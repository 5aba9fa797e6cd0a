//! Execution with a dedicated storage unit (the paper's baseline).
//!
//! Previous synthesis flows send every waiting sample to a dedicated storage
//! unit. Its multiplexer port admits only one transfer at a time, so store
//! and fetch accesses that the schedule issues concurrently have to queue,
//! and every queued access delays the operations that depend on it. This
//! module quantifies that prolongation and the unit's valve cost, giving the
//! baseline side of the paper's Fig. 10.

use biochip_json::{Deserialize, Serialize};

use biochip_arch::{dedicated_storage_valves, DedicatedStorageUnit};
use biochip_assay::Seconds;
use biochip_schedule::{max_concurrent_storage, Schedule, ScheduleProblem};

/// Result of executing a schedule against the dedicated-storage baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DedicatedExecutionReport {
    /// Execution time of the schedule with ideal (unlimited-bandwidth)
    /// storage.
    pub schedule_makespan: Seconds,
    /// Execution time once storage-port contention is accounted for.
    pub prolonged_makespan: Seconds,
    /// Number of cells the unit needs (peak concurrent storage).
    pub storage_cells: usize,
    /// Valves of the dedicated storage unit itself.
    pub storage_valves: usize,
    /// Number of store/fetch port transfers performed.
    pub port_transfers: usize,
    /// Total queueing delay accumulated at the storage port.
    pub total_port_delay: Seconds,
}

impl DedicatedExecutionReport {
    /// Slow-down factor relative to the ideal schedule (≥ 1).
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        if self.schedule_makespan == 0 {
            return 1.0;
        }
        self.prolonged_makespan as f64 / self.schedule_makespan as f64
    }
}

/// Simulates the schedule with all stored samples routed through a dedicated
/// storage unit with a single-transfer port.
///
/// Every storage requirement produces two port transfers (a store right
/// after the producer finishes and a fetch right before the consumer
/// starts), each occupying the port for the transport time `u_c`. Transfers
/// are served first-come-first-served; whenever a fetch is delayed beyond
/// the consumer's start time, the consumer — and transitively the rest of
/// the assay — is pushed back by the same amount. The prolongation is the
/// sum of those fetch delays, which matches the paper's observation that
/// port bandwidth, not storage capacity, throttles execution.
#[must_use]
pub fn simulate_dedicated_storage(
    problem: &ScheduleProblem,
    schedule: &Schedule,
) -> DedicatedExecutionReport {
    let uc = problem.transport_time().max(1);
    let requirements = schedule.storage_requirements(problem);
    let cells = max_concurrent_storage(&requirements).max(1);
    let unit = DedicatedStorageUnit::new(cells);

    // Port accesses: (requested time, is_fetch) pairs, served FCFS.
    let mut accesses: Vec<(Seconds, bool)> = Vec::new();
    for requirement in &requirements {
        accesses.push((requirement.stored_from.saturating_sub(uc), false));
        accesses.push((requirement.stored_until, true));
    }
    accesses.sort_unstable();

    let mut port_free_at: Seconds = 0;
    let mut total_delay: Seconds = 0;
    let mut fetch_delay: Seconds = 0;
    for &(requested, is_fetch) in &accesses {
        let start = requested.max(port_free_at);
        let delay = start - requested;
        total_delay += delay;
        if is_fetch {
            fetch_delay += delay;
        }
        port_free_at = start + uc;
    }

    let schedule_makespan = schedule.makespan();
    DedicatedExecutionReport {
        schedule_makespan,
        prolonged_makespan: schedule_makespan + fetch_delay,
        storage_cells: cells,
        storage_valves: unit.valve_count(),
        port_transfers: accesses.len(),
        total_port_delay: total_delay,
    }
}

/// Valve count of a chip that uses a dedicated storage unit: the unit's own
/// valves plus the transport-network valves (`network_valves`, typically the
/// valve count of an architecture synthesized without channel caching).
#[must_use]
pub fn dedicated_chip_valves(storage_cells: usize, network_valves: usize) -> usize {
    dedicated_storage_valves(storage_cells) + network_valves
}

#[cfg(test)]
mod tests {
    use super::*;
    use biochip_assay::library;
    use biochip_schedule::{ListScheduler, Scheduler};

    fn setup(mixers: usize) -> (ScheduleProblem, Schedule) {
        let problem = ScheduleProblem::new(library::pcr())
            .with_mixers(mixers)
            .with_transport_time(5);
        let schedule = ListScheduler::default().schedule(&problem).unwrap();
        (problem, schedule)
    }

    #[test]
    fn baseline_is_never_faster_than_the_schedule() {
        for mixers in 1..=4 {
            let (problem, schedule) = setup(mixers);
            let report = simulate_dedicated_storage(&problem, &schedule);
            assert!(report.prolonged_makespan >= report.schedule_makespan);
            assert!(report.slowdown() >= 1.0);
        }
    }

    #[test]
    fn storage_cells_match_peak_requirement() {
        let (problem, schedule) = setup(2);
        let report = simulate_dedicated_storage(&problem, &schedule);
        let expected = max_concurrent_storage(&schedule.storage_requirements(&problem)).max(1);
        assert_eq!(report.storage_cells, expected);
        assert_eq!(
            report.storage_valves,
            biochip_arch::dedicated_storage_valves(expected)
        );
        assert_eq!(
            report.port_transfers,
            2 * schedule.storage_requirements(&problem).len()
        );
    }

    #[test]
    fn concurrent_accesses_queue_at_the_port() {
        // Force heavy storage by running IVD on one mixer and one detector:
        // every mix result waits for the single detector.
        let problem = ScheduleProblem::new(library::ivd())
            .with_mixers(2)
            .with_detectors(1)
            .with_transport_time(5);
        let schedule = ListScheduler::default().schedule(&problem).unwrap();
        let report = simulate_dedicated_storage(&problem, &schedule);
        if report.port_transfers > 2 {
            assert!(
                report.total_port_delay > 0
                    || report.prolonged_makespan >= report.schedule_makespan
            );
        }
    }

    #[test]
    fn chip_valve_helper_adds_both_parts() {
        assert_eq!(
            dedicated_chip_valves(4, 30),
            biochip_arch::dedicated_storage_valves(4) + 30
        );
    }
}
