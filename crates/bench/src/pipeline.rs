//! Cold-pipeline sweep: per-stage latency of one cold run per assay.
//!
//! `BENCH_arch.json` tracks the router's throughput; this sweep tracks the
//! whole **cold path** — schedule → place → route → layout → replay — for
//! the scale assays the job service actually serves cold (RA1K and RA10K).
//! Stage times come from the telemetry spans the pipeline records anyway
//! (the run executes under [`biochip_telemetry::with_collection`]); only the
//! end-to-end total is a stopwatch, so the stages may sum to slightly less
//! than the total (task extraction, verification and span bookkeeping live
//! between spans). Each row also records the outcome's `output_key`: the
//! canonical content hash of the timing- and search-effort-stripped report,
//! the schedule and the replay (see `SynthesisOutcome::output_key`), so a
//! row shows which chip its time bought.
//!
//! Run it with `cargo run --release -p biochip-bench --bin pipeline` or
//! `biochip bench pipeline`.

use std::time::Instant;

use biochip_json::{Deserialize, Serialize};
use biochip_synth::assay::library;
use biochip_synth::{SynthesisConfig, SynthesisFlow};
use biochip_telemetry as telemetry;

use crate::BenchError;

/// Default assays of the pipeline sweep: the scale workloads of the CI
/// smoke runs, under the same 8-mixer inventory.
pub const DEFAULT_PIPELINE_ASSAYS: &[&str] = &["RA1K", "RA10K"];

/// One row of the pipeline sweep: one assay, cold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineRow {
    /// Assay name.
    pub assay: String,
    /// Number of device operations.
    pub operations: usize,
    /// Scheduling wall seconds (the pipeline's `"schedule"` span).
    pub schedule_seconds: f64,
    /// Placement wall seconds (`"place"` spans, all grid attempts).
    pub place_seconds: f64,
    /// Routing wall seconds (`"route"` spans, all grid attempts).
    pub route_seconds: f64,
    /// Window-selection share of routing (`"route.window_select"` spans):
    /// candidate enumeration, oracle early-reject and lazy-merge ordering.
    pub window_select_seconds: f64,
    /// Path-search share of routing (`"route.path_search"` spans): the
    /// oracle-guided A* runs themselves.
    pub path_search_seconds: f64,
    /// Commit share of routing (`"route.commit"` spans): reservation
    /// writes, segment pricing and plan bookkeeping for accepted paths.
    pub commit_seconds: f64,
    /// Physical-design wall seconds (the `"layout"` span).
    pub layout_seconds: f64,
    /// Replay + dedicated-baseline wall seconds (the `"replay"` span).
    pub replay_seconds: f64,
    /// End-to-end cold wall seconds (stopwatch around the whole run; the
    /// stages above may sum to slightly less).
    pub total_seconds: f64,
    /// Canonical content hash of the timing-stripped outcome (report,
    /// schedule, replay).
    pub output_key: String,
    /// Grid attempts the synthesizer needed.
    pub grids_tried: usize,
}

/// Sums the durations of all complete spans named `name`.
fn span_seconds(events: &[telemetry::SpanEvent], name: &str) -> f64 {
    events
        .iter()
        .filter(|e| e.name == name)
        .map(|e| match e.kind {
            telemetry::SpanKind::Complete { dur_micros } => dur_micros as f64 / 1e6,
            telemetry::SpanKind::Instant => 0.0,
        })
        .sum()
}

/// Runs one assay cold, reading the per-stage times off the pipeline's
/// telemetry spans.
fn run_cold(name: &str) -> Result<PipelineRow, BenchError> {
    let graph = library::by_name(name).ok_or_else(|| BenchError::UnknownBenchmark {
        name: name.to_owned(),
        known: library::NAMED_ASSAYS.iter().map(|(n, _)| *n).collect(),
    })?;
    let flow = SynthesisFlow::new(SynthesisConfig::default().with_mixers(8));

    let started = Instant::now();
    let (result, events) = telemetry::with_collection(|| {
        telemetry::instant("bench", "pipeline.run", &[]);
        flow.run(graph)
    });
    let total_seconds = started.elapsed().as_secs_f64();
    // The collector is process-wide, so flows running on other threads at
    // the same time land in it too. The pipeline runs on the calling
    // thread only: keep that thread's events.
    let tid = events
        .iter()
        .find(|e| e.name == "pipeline.run")
        .map(|e| e.tid);
    let events: Vec<telemetry::SpanEvent> =
        events.into_iter().filter(|e| Some(e.tid) == tid).collect();
    let outcome = result.map_err(|error| BenchError::Synthesis {
        name: name.to_owned(),
        error,
    })?;

    let output_key = outcome.output_key();

    Ok(PipelineRow {
        assay: outcome.report.assay.clone(),
        operations: outcome.report.operations,
        schedule_seconds: span_seconds(&events, "schedule"),
        place_seconds: span_seconds(&events, "place"),
        route_seconds: span_seconds(&events, "route"),
        window_select_seconds: span_seconds(&events, "route.window_select"),
        path_search_seconds: span_seconds(&events, "route.path_search"),
        commit_seconds: span_seconds(&events, "route.commit"),
        layout_seconds: span_seconds(&events, "layout"),
        replay_seconds: span_seconds(&events, "replay"),
        total_seconds,
        output_key,
        grids_tried: outcome.report.grids_tried,
    })
}

/// Runs the sweep: every assay once, cold, in order.
///
/// # Errors
///
/// Returns a [`BenchError`] for unknown assay names and synthesis failures.
pub fn pipeline_rows(assays: &[&str]) -> Result<Vec<PipelineRow>, BenchError> {
    assays.iter().map(|name| run_cold(name)).collect()
}

/// Formats the pipeline sweep as an aligned text table.
#[must_use]
pub fn format_pipeline(rows: &[PipelineRow]) -> String {
    let mut out = String::from(
        "assay     |O|     t_sched(s)  t_place(s)  t_route(s)  t_win(s)    t_path(s)   t_commit(s)  t_layout(s)  t_replay(s)  total(s)  key\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<9} {:<7} {:<11.4} {:<11.4} {:<11.4} {:<11.4} {:<11.4} {:<12.4} {:<12.4} {:<12.4} {:<9.4} {}\n",
            r.assay,
            r.operations,
            r.schedule_seconds,
            r.place_seconds,
            r.route_seconds,
            r.window_select_seconds,
            r.path_search_seconds,
            r.commit_seconds,
            r.layout_seconds,
            r.replay_seconds,
            r.total_seconds,
            r.output_key,
        ));
    }
    out
}

/// Formats the pipeline sweep as CSV.
#[must_use]
pub fn pipeline_csv(rows: &[PipelineRow]) -> String {
    let mut out = String::from(
        "assay,operations,schedule_seconds,place_seconds,route_seconds,window_select_seconds,path_search_seconds,commit_seconds,layout_seconds,replay_seconds,total_seconds,output_key,grids_tried\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{},{}\n",
            r.assay,
            r.operations,
            r.schedule_seconds,
            r.place_seconds,
            r.route_seconds,
            r.window_select_seconds,
            r.path_search_seconds,
            r.commit_seconds,
            r.layout_seconds,
            r.replay_seconds,
            r.total_seconds,
            r.output_key,
            r.grids_tried,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_pipeline_sweep_records_every_stage() {
        // PCR is tiny, so the sweep is fast even in debug builds.
        let rows = pipeline_rows(&["PCR", "PCR"]).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].output_key, rows[1].output_key);
        assert!(rows.iter().all(|r| r.total_seconds > 0.0));
        // The span-derived stage times are populated and bounded by the
        // stopwatch total.
        for r in &rows {
            assert!(r.schedule_seconds >= 0.0);
            assert!(r.route_seconds > 0.0, "route span missing: {r:?}");
            // The router sub-stage spans are disjoint children of the route
            // span: each is populated and together they cannot exceed it.
            assert!(
                r.path_search_seconds > 0.0,
                "path_search span missing: {r:?}"
            );
            assert!(r.window_select_seconds >= 0.0);
            assert!(r.commit_seconds > 0.0, "commit span missing: {r:?}");
            let sub_sum = r.window_select_seconds + r.path_search_seconds + r.commit_seconds;
            assert!(
                sub_sum <= r.route_seconds * 1.05 + 0.01,
                "router sub-stages ({sub_sum}s) exceed the route span ({}s)",
                r.route_seconds
            );
            let stage_sum = r.schedule_seconds
                + r.place_seconds
                + r.route_seconds
                + r.layout_seconds
                + r.replay_seconds;
            assert!(
                stage_sum <= r.total_seconds * 1.05 + 0.01,
                "stages ({stage_sum}s) exceed the wall total ({}s)",
                r.total_seconds
            );
        }
        let table = format_pipeline(&rows);
        assert!(table.contains("PCR"));
        let csv = pipeline_csv(&rows);
        assert_eq!(csv.lines().count(), rows.len() + 1);
    }

    #[test]
    fn unknown_assays_error_cleanly() {
        let err = pipeline_rows(&["NOPE"]).unwrap_err();
        assert!(matches!(err, BenchError::UnknownBenchmark { .. }));
    }
}
