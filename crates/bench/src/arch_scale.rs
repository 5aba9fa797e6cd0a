//! Architectural-synthesis scale sweep: place & route throughput vs. assay
//! size.
//!
//! `BENCH_scale.json` tracks the *scheduler* at 10k-op scale; this sweep
//! does the same for the paper's headline contribution — architectural
//! synthesis with distributed channel storage. Each row runs the full
//! schedule → extract → place → route pipeline on a scale-family assay and
//! records routed-tasks/sec together with the staged router's work counters
//! (windows tried, path searches, nodes expanded, segments priced) and the
//! peak reservation-calendar length, i.e. the `n` of the router's
//! `O(log n)` occupancy queries.
//!
//! The committed `BENCH_arch_baseline.json` holds the pre-refactor
//! measurements of the same sweep: the linear-scan router completed only
//! the paper-sized benchmarks and failed outright on every scale assay, so
//! any `ok` row at RA1K/RA10K is new capability, not just speedup.
//!
//! Run it with `cargo run --release -p biochip-bench --bin arch` or
//! `biochip bench arch [--sizes 100,1000,10000] [--mixers 8]`.

use std::time::Instant;

use biochip_json::{Deserialize, Serialize};
use biochip_synth::arch::{extract_transport_tasks, ArchitectureSynthesizer, SynthesisOptions};
use biochip_synth::assay::random::{self, RandomAssayConfig};
use biochip_synth::schedule::{ListScheduler, ScheduleProblem, Scheduler, SchedulingStrategy};

/// Default graph sizes of the architectural scale sweep.
pub const DEFAULT_ARCH_SIZES: &[usize] = &[100, 1_000, 10_000];

/// Default mixer count of the architectural scale sweep.
pub const DEFAULT_ARCH_MIXERS: usize = 8;

/// One row of the architectural scale sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchScaleRow {
    /// Sweep assay label (scale-family generator, `-scaled` suffix as in
    /// `BENCH_scale.json`).
    pub assay: String,
    /// Number of device operations.
    pub operations: usize,
    /// Mixers available to the scheduler.
    pub mixers: usize,
    /// `ok`, or `failed: <error>` when synthesis cannot route the assay.
    pub status: String,
    /// Transportation tasks extracted from the schedule.
    pub transport_tasks: usize,
    /// Peak concurrent channel storage demanded by the schedule.
    pub peak_storage: usize,
    /// Wall-clock seconds of one `ArchitectureSynthesizer::synthesize` call.
    pub arch_seconds: f64,
    /// Transport tasks routed per second (`transport_tasks / arch_seconds`;
    /// 0 for failed rows).
    pub routed_tasks_per_sec: f64,
    /// Connection-grid dimensions of the synthesized chip.
    pub grid: String,
    /// Channel segments kept (`n_e`).
    pub used_edges: usize,
    /// Valves of the synthesized chip (`n_v`).
    pub valves: usize,
    /// Largest reservation calendar over all edges and nodes.
    pub peak_calendar: usize,
    /// Placement + routing attempts across grid sizes.
    pub grids_tried: usize,
    /// Window-selection stage: candidate windows evaluated.
    pub windows_tried: usize,
    /// Path-search stage: Dijkstra invocations.
    pub path_searches: usize,
    /// Path-search stage: total nodes expanded.
    pub nodes_expanded: usize,
    /// Store stage: cache segments priced through the segment index.
    pub segments_priced: usize,
    /// Commit stage: tasks committed past their schedule deadline.
    pub postponed_tasks: usize,
}

/// Runs the architectural scale sweep over the given assay sizes.
///
/// Failures are recorded as rows (status `failed: …`, zero throughput)
/// instead of panicking, so the sweep doubles as the capability record the
/// baseline file was produced with.
#[must_use]
pub fn arch_scale_rows(sizes: &[usize], mixers: usize) -> Vec<ArchScaleRow> {
    let mut rows = Vec::with_capacity(sizes.len());
    for &size in sizes {
        let seed = size as u64;
        let graph = random::generate(&RandomAssayConfig::scaled(size, seed));
        let problem = ScheduleProblem::new(graph).with_mixers(mixers);
        let schedule = ListScheduler::new(SchedulingStrategy::StorageAware)
            .schedule(&problem)
            .unwrap_or_else(|e| panic!("arch sweep size {size}: scheduling failed: {e}"));
        let peak_storage = schedule.metrics(&problem).max_concurrent_storage;
        let tasks = extract_transport_tasks(&problem, &schedule).len();

        let started = Instant::now();
        let result = ArchitectureSynthesizer::new(SynthesisOptions::default())
            .synthesize(&problem, &schedule);
        let arch_seconds = started.elapsed().as_secs_f64();

        let assay = format!("{}-scaled", problem.graph().name());
        let row = match result {
            Ok(arch) => {
                arch.verify()
                    .unwrap_or_else(|e| panic!("arch sweep size {size}: verify failed: {e}"));
                let stats = arch.stats();
                ArchScaleRow {
                    assay,
                    operations: size,
                    mixers,
                    status: "ok".to_owned(),
                    transport_tasks: tasks,
                    peak_storage,
                    arch_seconds,
                    routed_tasks_per_sec: if arch_seconds > 0.0 {
                        tasks as f64 / arch_seconds
                    } else {
                        f64::INFINITY
                    },
                    grid: arch.grid().dimensions(),
                    used_edges: arch.used_edge_count(),
                    valves: arch.valve_count(),
                    peak_calendar: stats.peak_calendar_len,
                    grids_tried: stats.grids_tried,
                    windows_tried: stats.router.windows_tried,
                    path_searches: stats.router.path_searches,
                    nodes_expanded: stats.router.nodes_expanded,
                    segments_priced: stats.router.segments_priced,
                    postponed_tasks: stats.router.postponed_tasks,
                }
            }
            Err(e) => ArchScaleRow {
                assay,
                operations: size,
                mixers,
                status: format!("failed: {e}"),
                transport_tasks: tasks,
                peak_storage,
                arch_seconds,
                routed_tasks_per_sec: 0.0,
                grid: String::new(),
                used_edges: 0,
                valves: 0,
                peak_calendar: 0,
                grids_tried: 0,
                windows_tried: 0,
                path_searches: 0,
                nodes_expanded: 0,
                segments_priced: 0,
                postponed_tasks: 0,
            },
        };
        rows.push(row);
    }
    rows
}

/// Formats the architectural sweep as an aligned text table.
#[must_use]
pub fn format_arch_scale(rows: &[ArchScaleRow]) -> String {
    let mut out = String::from(
        "assay           |O|     tasks   peak_st  t_arch(s)  tasks/s    grid    ne     nv     cal   status\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<15} {:<7} {:<7} {:<8} {:<10.4} {:<10.0} {:<7} {:<6} {:<6} {:<5} {}\n",
            r.assay,
            r.operations,
            r.transport_tasks,
            r.peak_storage,
            r.arch_seconds,
            r.routed_tasks_per_sec,
            r.grid,
            r.used_edges,
            r.valves,
            r.peak_calendar,
            r.status,
        ));
    }
    out
}

/// Formats the architectural sweep as CSV.
#[must_use]
pub fn arch_scale_csv(rows: &[ArchScaleRow]) -> String {
    let mut out = String::from(
        "assay,operations,mixers,status,transport_tasks,peak_storage,arch_seconds,routed_tasks_per_sec,grid,used_edges,valves,peak_calendar,grids_tried,windows_tried,path_searches,nodes_expanded,segments_priced,postponed_tasks\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{:.6},{:.0},{},{},{},{},{},{},{},{},{},{}\n",
            r.assay,
            r.operations,
            r.mixers,
            r.status,
            r.transport_tasks,
            r.peak_storage,
            r.arch_seconds,
            r.routed_tasks_per_sec,
            r.grid,
            r.used_edges,
            r.valves,
            r.peak_calendar,
            r.grids_tried,
            r.windows_tried,
            r.path_searches,
            r.nodes_expanded,
            r.segments_priced,
            r.postponed_tasks,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_arch_sweep_produces_ok_rows() {
        let rows = arch_scale_rows(&[60], 4);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.status, "ok", "{}", row.status);
        assert!(row.transport_tasks > 0);
        assert!(row.routed_tasks_per_sec > 0.0);
        assert!(row.used_edges > 0);
        assert!(row.windows_tried >= row.transport_tasks);
        assert!(row.path_searches > 0);
    }

    #[test]
    fn formatting_covers_every_row() {
        let rows = arch_scale_rows(&[40], 2);
        let table = format_arch_scale(&rows);
        assert!(table.contains("RA40"));
        let csv = arch_scale_csv(&rows);
        assert_eq!(csv.lines().count(), rows.len() + 1);
    }
}
