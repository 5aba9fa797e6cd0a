//! Storage requirements derived from a schedule.
//!
//! When a parent operation finishes on one device and its child starts later
//! on another device, the intermediate fluid sample must be transported and —
//! if the gap exceeds the pure transport time — cached somewhere in between.
//! These *storage requirements* drive both the storage-minimization term of
//! the scheduling objective and the channel-caching decisions of the
//! architectural synthesis.

use biochip_json::{Deserialize, Serialize};

use biochip_assay::{OpId, Seconds};

use crate::problem::{DeviceId, ScheduleProblem};
use crate::schedule::Schedule;

/// One intermediate fluid sample that has to wait between its producer and
/// its consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StorageRequirement {
    /// Operation producing the sample.
    pub producer: OpId,
    /// Operation consuming the sample.
    pub consumer: OpId,
    /// Device executing the producer.
    pub from_device: DeviceId,
    /// Device executing the consumer.
    pub to_device: DeviceId,
    /// Time at which the sample arrives at its cache location
    /// (producer end + transport time).
    pub stored_from: Seconds,
    /// Time at which the sample leaves the cache towards the consumer
    /// (consumer start − transport time).
    pub stored_until: Seconds,
}

impl StorageRequirement {
    /// How long the sample sits in storage.
    #[must_use]
    pub fn duration(&self) -> Seconds {
        self.stored_until.saturating_sub(self.stored_from)
    }

    /// Whether the sample is in storage at time `t` (half-open interval).
    #[must_use]
    pub fn is_active_at(&self, t: Seconds) -> bool {
        t >= self.stored_from && t < self.stored_until
    }
}

/// Computes all storage requirements of a schedule.
///
/// A dependency edge gives rise to a storage requirement when producer and
/// consumer run on *different* devices (same-device hand-over keeps the
/// sample in the device, as in the paper) and the gap between producer end
/// and consumer start exceeds twice the transport time (one hop to the cache,
/// one hop from the cache to the consumer).
#[must_use]
pub fn storage_requirements(
    problem: &ScheduleProblem,
    schedule: &Schedule,
) -> Vec<StorageRequirement> {
    let graph = problem.graph();
    let uc = problem.transport_time();
    let mut requirements = Vec::new();
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
            requirements.push(StorageRequirement {
                producer: edge.parent,
                consumer: edge.child,
                from_device: parent.device,
                to_device: child.device,
                stored_from: parent.end + uc,
                stored_until: child.start - uc,
            });
        }
    }
    requirements
}

/// The maximum number of samples stored simultaneously.
#[must_use]
pub fn max_concurrent_storage(requirements: &[StorageRequirement]) -> usize {
    concurrent_storage_profile(requirements)
        .into_iter()
        .map(|(_, count)| count)
        .max()
        .unwrap_or(0)
}

/// The number of concurrently stored samples over time, as a step function
/// sampled at every storage start time: `(time, active count)` pairs sorted
/// by time.
#[must_use]
pub fn concurrent_storage_profile(requirements: &[StorageRequirement]) -> Vec<(Seconds, usize)> {
    let mut times: Vec<Seconds> = requirements.iter().map(|r| r.stored_from).collect();
    times.sort_unstable();
    times.dedup();
    times
        .into_iter()
        .map(|t| {
            let active = requirements.iter().filter(|r| r.is_active_at(t)).count();
            (t, active)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use biochip_assay::{OperationKind, SequencingGraph};

    fn fan_problem() -> ScheduleProblem {
        // a feeds b and c; d independent.
        let mut g = SequencingGraph::new("fan");
        let a = g.add_operation_with_duration("a", OperationKind::Mix, 10);
        let b = g.add_operation_with_duration("b", OperationKind::Mix, 10);
        let c = g.add_operation_with_duration("c", OperationKind::Mix, 10);
        let _d = g.add_operation_with_duration("d", OperationKind::Mix, 10);
        g.add_dependency(a, b).unwrap();
        g.add_dependency(a, c).unwrap();
        ScheduleProblem::new(g)
            .with_mixers(2)
            .with_transport_time(5)
    }

    #[test]
    fn no_storage_for_immediate_handover() {
        let p = fan_problem();
        let g = p.graph();
        let mut s = Schedule::with_capacity(g.num_operations());
        let (a, b, c, d) = (OpId(0), OpId(1), OpId(2), OpId(3));
        s.assign(a, DeviceId(0), 0, 10);
        // b on the other device exactly one transport later: no storage.
        s.assign(b, DeviceId(1), 15, 25);
        // c on the same device: no storage even with a long gap.
        s.assign(c, DeviceId(0), 100, 110);
        s.assign(d, DeviceId(1), 40, 50);
        let reqs = storage_requirements(&p, &s);
        assert!(reqs.is_empty());
    }

    #[test]
    fn storage_for_long_cross_device_gaps() {
        let p = fan_problem();
        let g = p.graph();
        let mut s = Schedule::with_capacity(g.num_operations());
        let (a, b, c, d) = (OpId(0), OpId(1), OpId(2), OpId(3));
        s.assign(a, DeviceId(0), 0, 10);
        s.assign(b, DeviceId(1), 60, 70); // gap 50 > 2*5
        s.assign(c, DeviceId(1), 80, 90); // gap 70 > 10
        s.assign(d, DeviceId(0), 10, 20);
        let reqs = storage_requirements(&p, &s);
        assert_eq!(reqs.len(), 2);
        let first = reqs.iter().find(|r| r.consumer == b).unwrap();
        assert_eq!(first.stored_from, 15);
        assert_eq!(first.stored_until, 55);
        assert_eq!(first.duration(), 40);
        // Both samples originate from `a`, so they overlap in storage.
        assert_eq!(max_concurrent_storage(&reqs), 2);
    }

    #[test]
    fn profile_counts_active_samples() {
        let reqs = vec![
            StorageRequirement {
                producer: OpId(0),
                consumer: OpId(1),
                from_device: DeviceId(0),
                to_device: DeviceId(1),
                stored_from: 10,
                stored_until: 30,
            },
            StorageRequirement {
                producer: OpId(0),
                consumer: OpId(2),
                from_device: DeviceId(0),
                to_device: DeviceId(1),
                stored_from: 20,
                stored_until: 40,
            },
        ];
        let profile = concurrent_storage_profile(&reqs);
        assert_eq!(profile, vec![(10, 1), (20, 2)]);
        assert_eq!(max_concurrent_storage(&reqs), 2);
    }

    #[test]
    fn empty_requirements_have_zero_peak() {
        assert_eq!(max_concurrent_storage(&[]), 0);
        assert!(concurrent_storage_profile(&[]).is_empty());
    }

    #[test]
    fn is_active_at_boundaries() {
        let r = StorageRequirement {
            producer: OpId(0),
            consumer: OpId(1),
            from_device: DeviceId(0),
            to_device: DeviceId(1),
            stored_from: 10,
            stored_until: 20,
        };
        assert!(!r.is_active_at(9));
        assert!(r.is_active_at(10));
        assert!(r.is_active_at(19));
        assert!(!r.is_active_at(20));
    }
}
