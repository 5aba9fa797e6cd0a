//! Scheduler scale sweep: throughput, makespan and storage vs. graph size.
//!
//! The paper's evaluation (Table 2, Fig. 8–10) stops at 100-operation
//! assays. This harness stresses the [`ListScheduler`] far beyond that with
//! the `biochip_assay::random` scale family (see
//! `RandomAssayConfig::scaled`), recording how scheduling throughput and
//! schedule quality evolve with graph size. The rows land in
//! `BENCH_scale.json` (via [`write_bench_json`](crate::write_bench_json)),
//! which CI uploads per commit — the perf trajectory that later sharding and
//! async work is measured against.
//!
//! Run it with `cargo run --release -p biochip-bench --bin scale` or
//! `biochip bench scale [--sizes 100,1000,10000] [--mixers 8]`.

use std::time::Instant;

use biochip_json::{Deserialize, Serialize};
use biochip_synth::assay::random::{self, RandomAssayConfig};
use biochip_synth::schedule::{ListScheduler, ScheduleProblem, Scheduler, SchedulingStrategy};

/// Default graph sizes of the scale sweep.
pub const DEFAULT_SCALE_SIZES: &[usize] = &[100, 1_000, 10_000];

/// Default mixer count of the scale sweep (kept fixed across sizes so the
/// trajectory isolates graph-size effects).
pub const DEFAULT_SCALE_MIXERS: usize = 8;

/// One row of the scale sweep: one assay size under one strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleRow {
    /// Sweep assay label (e.g. `RA10000-scaled`). The `-scaled` suffix
    /// marks the `RandomAssayConfig::scaled` generator: the size-100 sweep
    /// graph is *not* the paper's RA100 benchmark (different layer width,
    /// fan-in/out and duration mix), so the label keeps `BENCH_scale.json`
    /// from being correlated with Table 2 rows of the same size.
    pub assay: String,
    /// Number of device operations.
    pub operations: usize,
    /// Number of dependency edges.
    pub edges: usize,
    /// Mixers available to the scheduler.
    pub mixers: usize,
    /// Scheduling strategy (`makespan-only` or `storage-aware`).
    pub strategy: String,
    /// Wall-clock seconds one `ListScheduler::schedule` call took.
    pub schedule_seconds: f64,
    /// Operations scheduled per second (`operations / schedule_seconds`).
    pub ops_per_second: f64,
    /// Assay execution time `t_E` of the resulting schedule, in seconds.
    pub makespan: u64,
    /// Sum of all storage lifetimes in the schedule, in seconds.
    pub total_storage_time: u64,
    /// Maximum number of concurrently stored samples.
    pub peak_storage: usize,
}

fn strategy_name(strategy: SchedulingStrategy) -> &'static str {
    match strategy {
        SchedulingStrategy::MakespanOnly => "makespan-only",
        SchedulingStrategy::StorageAware => "storage-aware",
    }
}

/// Runs the scale sweep: every size × both list-scheduling strategies.
///
/// Every produced schedule is re-validated against the problem before its
/// metrics are reported, so a row in `BENCH_scale.json` is also a
/// correctness witness for that graph size.
///
/// # Panics
///
/// Panics if scheduling or validation fails — the scale family is expected
/// to always schedule.
#[must_use]
pub fn scale_rows(sizes: &[usize], mixers: usize) -> Vec<ScaleRow> {
    let mut rows = Vec::with_capacity(sizes.len() * 2);
    for &size in sizes {
        let seed = size as u64;
        let graph = random::generate(&RandomAssayConfig::scaled(size, seed));
        let problem = ScheduleProblem::new(graph).with_mixers(mixers);
        for strategy in [
            SchedulingStrategy::MakespanOnly,
            SchedulingStrategy::StorageAware,
        ] {
            let started = Instant::now();
            let schedule = ListScheduler::new(strategy)
                .schedule(&problem)
                .unwrap_or_else(|e| panic!("scale sweep size {size}: {e}"));
            let elapsed = started.elapsed().as_secs_f64();
            schedule.validate(&problem).unwrap_or_else(|e| {
                panic!("scale sweep size {size} produced invalid schedule: {e}")
            });
            let metrics = schedule.metrics(&problem);
            rows.push(ScaleRow {
                assay: format!("{}-scaled", problem.graph().name()),
                operations: size,
                edges: problem.graph().num_edges(),
                mixers,
                strategy: strategy_name(strategy).to_owned(),
                schedule_seconds: elapsed,
                ops_per_second: if elapsed > 0.0 {
                    size as f64 / elapsed
                } else {
                    f64::INFINITY
                },
                makespan: metrics.makespan,
                total_storage_time: metrics.total_storage_time,
                peak_storage: metrics.max_concurrent_storage,
            });
        }
    }
    rows
}

/// Formats the scale sweep as an aligned text table.
#[must_use]
pub fn format_scale(rows: &[ScaleRow]) -> String {
    let mut out = String::from(
        "assay           |O|     edges   mixers  strategy       t_sched(s)  ops/s      tE(s)    storage(s)  peak\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<15} {:<7} {:<7} {:<7} {:<14} {:<11.4} {:<10.0} {:<8} {:<11} {}\n",
            r.assay,
            r.operations,
            r.edges,
            r.mixers,
            r.strategy,
            r.schedule_seconds,
            r.ops_per_second,
            r.makespan,
            r.total_storage_time,
            r.peak_storage,
        ));
    }
    out
}

/// Formats the scale sweep as CSV.
#[must_use]
pub fn scale_csv(rows: &[ScaleRow]) -> String {
    let mut out = String::from(
        "assay,operations,edges,mixers,strategy,schedule_seconds,ops_per_second,makespan_s,total_storage_time_s,peak_storage\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{:.6},{:.0},{},{},{}\n",
            r.assay,
            r.operations,
            r.edges,
            r.mixers,
            r.strategy,
            r.schedule_seconds,
            r.ops_per_second,
            r.makespan,
            r.total_storage_time,
            r.peak_storage,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_produces_rows_for_both_strategies() {
        let rows = scale_rows(&[50, 120], 4);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.makespan > 0);
            assert!(row.ops_per_second > 0.0);
            assert_eq!(row.mixers, 4);
        }
        let strategies: std::collections::HashSet<&str> =
            rows.iter().map(|r| r.strategy.as_str()).collect();
        assert_eq!(
            strategies,
            ["makespan-only", "storage-aware"].into_iter().collect()
        );
    }

    #[test]
    fn formatting_covers_every_row() {
        let rows = scale_rows(&[40], 2);
        let table = format_scale(&rows);
        assert!(table.contains("RA40"));
        let csv = scale_csv(&rows);
        assert_eq!(csv.lines().count(), rows.len() + 1);
    }
}
