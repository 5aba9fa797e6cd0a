//! Extraction of transportation tasks from a schedule.
//!
//! Every dependency edge whose producer and consumer are bound to different
//! devices gives rise to fluid movement on the chip. Short hand-overs are a
//! single *direct* transport; when the consumer starts much later the sample
//! is *stored*: it is moved into a channel segment right after the producer
//! finishes (freeing the device), rests there, and is *fetched* to the
//! consumer just in time.

use biochip_json::{Deserialize, Serialize};
use std::fmt;

use biochip_assay::{OpId, Seconds};
use biochip_schedule::{DeviceId, Schedule, ScheduleProblem};

/// The role of one transportation task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransportKind {
    /// Producer device → consumer device, no intermediate storage.
    Direct,
    /// Producer device → cache segment (frees the producer's device).
    Store,
    /// Cache segment → consumer device.
    Fetch,
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TransportKind::Direct => "direct",
            TransportKind::Store => "store",
            TransportKind::Fetch => "fetch",
        };
        f.write_str(s)
    }
}

/// One movement of a fluid sample across the chip, to be realized as a
/// transportation path during architectural synthesis.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TransportTask {
    /// Index of the sample (dense, one per cross-device dependency edge).
    pub sample: usize,
    /// Operation that produced the sample.
    pub producer: OpId,
    /// Operation that will consume the sample.
    pub consumer: OpId,
    /// Device the movement starts from (producer's device for
    /// [`Direct`](TransportKind::Direct)/[`Store`](TransportKind::Store),
    /// consumer's device for the target of a fetch).
    pub from_device: DeviceId,
    /// Device the sample is ultimately headed to.
    pub to_device: DeviceId,
    /// Kind of movement.
    pub kind: TransportKind,
    /// Start of the *preferred* time window in which the path is occupied.
    pub window_start: Seconds,
    /// End of the preferred time window (exclusive).
    pub window_end: Seconds,
    /// For [`Store`](TransportKind::Store) tasks: the interval during which
    /// the sample rests in its cache segment (`stored_from`, `stored_until`).
    pub storage_interval: Option<(Seconds, Seconds)>,
    /// Earliest time at which the movement may begin (the producer's end
    /// time). Together with [`deadline`](Self::deadline) this gives the
    /// router slack to stagger transports that would otherwise contend for
    /// the same device ports.
    pub earliest_start: Seconds,
    /// Latest time by which the movement must have completed (the consumer's
    /// start for direct and fetch transports, the fetch start or the
    /// producing device's next operation for store transports).
    pub deadline: Seconds,
}

impl TransportTask {
    /// Length of the occupation window.
    #[must_use]
    pub fn window_len(&self) -> Seconds {
        self.window_end.saturating_sub(self.window_start)
    }

    /// Whether this task's window overlaps another's.
    #[must_use]
    pub fn overlaps(&self, other: &TransportTask) -> bool {
        self.window_start < other.window_end && other.window_start < self.window_end
    }

    /// Short human-readable description (used in error messages).
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "{} of sample {} ({} -> {}) in [{}, {})",
            self.kind,
            self.sample,
            self.producer,
            self.consumer,
            self.window_start,
            self.window_end
        )
    }
}

/// Extracts all transportation tasks implied by a schedule, in order of their
/// window start times.
///
/// For every cross-device dependency edge:
///
/// * gap ≤ 2·`u_c` → one [`Direct`](TransportKind::Direct) task occupying the
///   last `u_c` seconds before the consumer starts,
/// * gap > 2·`u_c` → a [`Store`](TransportKind::Store) task right after the
///   producer ends (with the storage interval attached) and a
///   [`Fetch`](TransportKind::Fetch) task in the `u_c` seconds before the
///   consumer starts.
///
/// Same-device edges need no chip-level transport and produce no tasks.
#[must_use]
pub fn extract_transport_tasks(
    problem: &ScheduleProblem,
    schedule: &Schedule,
) -> Vec<TransportTask> {
    let graph = problem.graph();
    let uc = problem.transport_time();
    // Per-device sorted operation start times, built once: the store-deadline
    // rule needs "the producing device's next operation" per cross-device
    // edge, and a per-edge scan over the whole schedule is quadratic at
    // 10k-op scale.
    let mut starts_on_device: Vec<Vec<Seconds>> = vec![Vec::new(); problem.devices().len()];
    for assignment in schedule.iter() {
        if let Some(starts) = starts_on_device.get_mut(assignment.device.index()) {
            starts.push(assignment.start);
        }
    }
    for starts in &mut starts_on_device {
        starts.sort_unstable();
    }
    let next_op_on = |device: DeviceId, at: Seconds| -> Seconds {
        starts_on_device
            .get(device.index())
            .and_then(|starts| {
                let idx = starts.partition_point(|&s| s < at);
                starts.get(idx).copied()
            })
            .unwrap_or(Seconds::MAX)
    };
    let mut tasks = Vec::new();
    let mut sample = 0usize;
    for edge in graph.edges() {
        let (Some(parent), Some(child)) = (schedule.get(edge.parent), schedule.get(edge.child))
        else {
            continue;
        };
        if parent.device == child.device {
            continue;
        }
        let gap = child.start.saturating_sub(parent.end);
        if gap > 2 * uc {
            // Store right after the producer ends. The store may slide later
            // as long as the sample is out of the device before the device's
            // next operation and in its cache segment before the fetch.
            let producer_next_op = next_op_on(parent.device, parent.end);
            let store_deadline = (child.start - uc).min(producer_next_op);
            tasks.push(TransportTask {
                sample,
                producer: edge.parent,
                consumer: edge.child,
                from_device: parent.device,
                to_device: child.device,
                kind: TransportKind::Store,
                window_start: parent.end,
                window_end: parent.end + uc,
                storage_interval: Some((parent.end + uc, child.start - uc)),
                earliest_start: parent.end,
                deadline: store_deadline.max(parent.end + uc),
            });
            // Fetch just before the consumer starts (no slack: the sample
            // must arrive exactly when the consumer is ready to take it).
            tasks.push(TransportTask {
                sample,
                producer: edge.parent,
                consumer: edge.child,
                from_device: parent.device,
                to_device: child.device,
                kind: TransportKind::Fetch,
                window_start: child.start - uc,
                window_end: child.start,
                storage_interval: None,
                earliest_start: child.start - uc,
                deadline: child.start,
            });
        } else {
            let start = child.start.saturating_sub(uc).max(parent.end);
            tasks.push(TransportTask {
                sample,
                producer: edge.parent,
                consumer: edge.child,
                from_device: parent.device,
                to_device: child.device,
                kind: TransportKind::Direct,
                window_start: start,
                window_end: start + uc.max(1),
                storage_interval: None,
                earliest_start: parent.end,
                deadline: child.start,
            });
        }
        sample += 1;
    }
    tasks.sort_by_key(|t| (t.window_start, t.sample, t.kind != TransportKind::Store));
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;
    use biochip_assay::{OperationKind, SequencingGraph};

    fn problem_and_schedule() -> (ScheduleProblem, Schedule) {
        // a -> b (short gap, cross device), a -> c (long gap, cross device),
        // a -> d (same device).
        let mut g = SequencingGraph::new("t");
        let a = g.add_operation_with_duration("a", OperationKind::Mix, 10);
        let b = g.add_operation_with_duration("b", OperationKind::Mix, 10);
        let c = g.add_operation_with_duration("c", OperationKind::Mix, 10);
        let d = g.add_operation_with_duration("d", OperationKind::Mix, 10);
        g.add_dependency(a, b).unwrap();
        g.add_dependency(a, c).unwrap();
        g.add_dependency(a, d).unwrap();
        let problem = ScheduleProblem::new(g)
            .with_mixers(2)
            .with_transport_time(5);
        let mut s = Schedule::with_capacity(4);
        s.assign(a, DeviceId(0), 0, 10);
        s.assign(b, DeviceId(1), 15, 25); // gap 5 = uc: direct
        s.assign(c, DeviceId(1), 60, 70); // gap 50: store + fetch
        s.assign(d, DeviceId(0), 25, 35); // same device: nothing
        (problem, s)
    }

    #[test]
    fn direct_store_and_fetch_are_extracted() {
        let (p, s) = problem_and_schedule();
        let tasks = extract_transport_tasks(&p, &s);
        assert_eq!(tasks.len(), 3);
        let kinds: Vec<TransportKind> = tasks.iter().map(|t| t.kind).collect();
        assert!(kinds.contains(&TransportKind::Direct));
        assert!(kinds.contains(&TransportKind::Store));
        assert!(kinds.contains(&TransportKind::Fetch));
    }

    #[test]
    fn store_and_fetch_windows_bracket_the_storage_interval() {
        let (p, s) = problem_and_schedule();
        let tasks = extract_transport_tasks(&p, &s);
        let store = tasks
            .iter()
            .find(|t| t.kind == TransportKind::Store)
            .unwrap();
        let fetch = tasks
            .iter()
            .find(|t| t.kind == TransportKind::Fetch)
            .unwrap();
        assert_eq!(store.window_start, 10);
        assert_eq!(store.window_end, 15);
        assert_eq!(store.storage_interval, Some((15, 55)));
        assert_eq!(fetch.window_start, 55);
        assert_eq!(fetch.window_end, 60);
        assert_eq!(store.sample, fetch.sample);
    }

    #[test]
    fn direct_window_ends_at_consumer_start() {
        let (p, s) = problem_and_schedule();
        let tasks = extract_transport_tasks(&p, &s);
        let direct = tasks
            .iter()
            .find(|t| t.kind == TransportKind::Direct)
            .unwrap();
        assert_eq!(direct.window_start, 10);
        assert_eq!(direct.window_end, 15);
        assert_eq!(direct.deadline, 15);
        assert_eq!(direct.earliest_start, 10);
    }

    #[test]
    fn store_deadline_respects_the_producers_next_operation() {
        let (p, s) = problem_and_schedule();
        let tasks = extract_transport_tasks(&p, &s);
        let store = tasks
            .iter()
            .find(|t| t.kind == TransportKind::Store)
            .unwrap();
        // The producer's device (d0) runs its next operation at t = 25, so
        // the stored sample must be out of the device by then — and in its
        // segment before the fetch starts at t = 55.
        assert_eq!(store.earliest_start, 10);
        assert_eq!(store.deadline, 25);
    }

    #[test]
    fn same_device_edges_produce_no_tasks() {
        let (p, s) = problem_and_schedule();
        let tasks = extract_transport_tasks(&p, &s);
        assert!(tasks.iter().all(|t| t.producer == biochip_assay::OpId(0)));
        // Only two samples travel (b and c); d stays on the device.
        let samples: std::collections::HashSet<usize> = tasks.iter().map(|t| t.sample).collect();
        assert_eq!(samples.len(), 2);
    }

    #[test]
    fn tasks_are_sorted_by_window_start() {
        let (p, s) = problem_and_schedule();
        let tasks = extract_transport_tasks(&p, &s);
        for pair in tasks.windows(2) {
            assert!(pair[0].window_start <= pair[1].window_start);
        }
    }

    #[test]
    fn overlap_predicate() {
        let (p, s) = problem_and_schedule();
        let tasks = extract_transport_tasks(&p, &s);
        let store = tasks
            .iter()
            .find(|t| t.kind == TransportKind::Store)
            .unwrap();
        let direct = tasks
            .iter()
            .find(|t| t.kind == TransportKind::Direct)
            .unwrap();
        let fetch = tasks
            .iter()
            .find(|t| t.kind == TransportKind::Fetch)
            .unwrap();
        assert!(store.overlaps(direct)); // both occupy [10, 15)
        assert!(!store.overlaps(fetch));
    }

    #[test]
    fn describe_mentions_kind_and_window() {
        let (p, s) = problem_and_schedule();
        let tasks = extract_transport_tasks(&p, &s);
        let text = tasks[0].describe();
        assert!(text.contains("sample"));
        assert!(text.contains('['));
    }
}
