//! Schedule representation, metrics and validation.

use biochip_json::{Deserialize, Serialize};
use std::fmt;

use biochip_assay::{OpId, Seconds};

use crate::error::ScheduleError;
use crate::problem::{DeviceId, ScheduleProblem};
use crate::storage::{max_concurrent_storage, storage_requirements, StorageRequirement};

/// One scheduled operation: which device executes it and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ScheduledOperation {
    /// The operation.
    pub op: OpId,
    /// The device executing it.
    pub device: DeviceId,
    /// Start time in seconds.
    pub start: Seconds,
    /// End time in seconds (`start + duration`).
    pub end: Seconds,
}

impl ScheduledOperation {
    /// Whether the execution interval overlaps another (half-open intervals).
    #[must_use]
    pub fn overlaps(&self, other: &ScheduledOperation) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// A complete schedule of an assay: binding and timing of every device
/// operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Schedule {
    /// Scheduled operations indexed by [`OpId::index`]; `None` for
    /// operations that do not occupy a device (inputs/outputs).
    assignments: Vec<Option<ScheduledOperation>>,
}

impl Schedule {
    /// Creates an empty schedule able to hold `num_operations` operations.
    #[must_use]
    pub fn with_capacity(num_operations: usize) -> Self {
        Schedule {
            assignments: vec![None; num_operations],
        }
    }

    /// Records the assignment of an operation.
    ///
    /// # Panics
    ///
    /// Panics if the operation index is out of range or `end < start`.
    pub fn assign(&mut self, op: OpId, device: DeviceId, start: Seconds, end: Seconds) {
        assert!(end >= start, "operation must end after it starts");
        self.assignments[op.index()] = Some(ScheduledOperation {
            op,
            device,
            start,
            end,
        });
    }

    /// The assignment of an operation, if it has one.
    #[must_use]
    pub fn get(&self, op: OpId) -> Option<&ScheduledOperation> {
        self.assignments.get(op.index()).and_then(Option::as_ref)
    }

    /// Iterator over all scheduled operations, in operation-id order.
    pub fn iter(&self) -> impl Iterator<Item = &ScheduledOperation> {
        self.assignments.iter().filter_map(Option::as_ref)
    }

    /// Number of scheduled operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.assignments.iter().filter(|a| a.is_some()).count()
    }

    /// Whether no operation has been scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The assay execution time `t_E`: the latest ending time of any
    /// operation.
    #[must_use]
    pub fn makespan(&self) -> Seconds {
        self.iter().map(|a| a.end).max().unwrap_or(0)
    }

    /// All operations bound to the given device, sorted by start time.
    #[must_use]
    pub fn operations_on(&self, device: DeviceId) -> Vec<ScheduledOperation> {
        let mut ops: Vec<ScheduledOperation> = self
            .iter()
            .filter(|a| a.device == device)
            .copied()
            .collect();
        ops.sort_by_key(|a| (a.start, a.op));
        ops
    }

    /// Storage requirements implied by this schedule (see
    /// [`StorageRequirement`]).
    #[must_use]
    pub fn storage_requirements(&self, problem: &ScheduleProblem) -> Vec<StorageRequirement> {
        storage_requirements(problem, self)
    }

    /// Summary metrics of this schedule for the given problem.
    #[must_use]
    pub fn metrics(&self, problem: &ScheduleProblem) -> ScheduleMetrics {
        let requirements = self.storage_requirements(problem);
        let store_count = requirements.len();
        let total_storage_time: Seconds =
            requirements.iter().map(StorageRequirement::duration).sum();
        let max_concurrent = max_concurrent_storage(&requirements);
        ScheduleMetrics {
            makespan: self.makespan(),
            store_count,
            total_storage_time,
            max_concurrent_storage: max_concurrent,
        }
    }

    /// Checks that the schedule is a valid solution of `problem`:
    ///
    /// * every device operation is scheduled exactly once on a compatible
    ///   device (uniqueness constraint),
    /// * the scheduled interval matches the operation duration (duration
    ///   constraint),
    /// * children start only after their parents finished, plus the transport
    ///   time when producer and consumer are bound to different devices
    ///   (precedence constraint),
    /// * operations bound to the same device do not overlap in time
    ///   (non-overlapping constraint).
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self, problem: &ScheduleProblem) -> Result<(), ScheduleError> {
        let graph = problem.graph();
        for op in graph.device_operations() {
            let Some(assignment) = self.get(op) else {
                return Err(ScheduleError::UnscheduledOperation { op });
            };
            let device = problem.devices().get(assignment.device.index()).ok_or(
                ScheduleError::IncompatibleDevice {
                    op,
                    device: assignment.device,
                },
            )?;
            if device.class != graph.operation(op).kind.device_class() {
                return Err(ScheduleError::IncompatibleDevice {
                    op,
                    device: assignment.device,
                });
            }
            let duration = graph.operation(op).duration;
            if assignment.end - assignment.start != duration {
                return Err(ScheduleError::DurationMismatch {
                    op,
                    expected: duration,
                    actual: assignment.end - assignment.start,
                });
            }
        }

        // Precedence with transport between different devices.
        for edge in graph.edges() {
            let (Some(parent), Some(child)) = (self.get(edge.parent), self.get(edge.child)) else {
                continue; // edges touching inputs/outputs
            };
            let required_gap = if parent.device == child.device {
                0
            } else {
                problem.transport_time()
            };
            if child.start < parent.end + required_gap {
                return Err(ScheduleError::PrecedenceViolation {
                    parent: edge.parent,
                    child: edge.child,
                    required_start: parent.end + required_gap,
                    actual_start: child.start,
                });
            }
        }

        // Non-overlap per device.
        for device in problem.devices() {
            let ops = self.operations_on(device.id);
            for pair in ops.windows(2) {
                if pair[0].overlaps(&pair[1]) {
                    return Err(ScheduleError::OverlappingOperations {
                        first: pair[0].op,
                        second: pair[1].op,
                        device: device.id,
                    });
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedule ({} operations, makespan {}s):",
            self.len(),
            self.makespan()
        )?;
        for a in self.iter() {
            writeln!(f, "  {} on {}: [{}, {}]", a.op, a.device, a.start, a.end)?;
        }
        Ok(())
    }
}

/// Aggregate metrics of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleMetrics {
    /// Assay execution time `t_E` in seconds.
    pub makespan: Seconds,
    /// Number of store/fetch pairs (intermediate samples that must wait).
    pub store_count: usize,
    /// Sum of all storage lifetimes in seconds (the `Σ u_{i,j}` term of the
    /// paper's objective, restricted to cross-device edges).
    pub total_storage_time: Seconds,
    /// Maximum number of samples stored simultaneously — the storage
    /// capacity a dedicated unit would need.
    pub max_concurrent_storage: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use biochip_assay::{library, OperationKind, SequencingGraph};

    fn two_op_problem() -> (ScheduleProblem, OpId, OpId) {
        let mut g = SequencingGraph::new("two");
        let a = g.add_operation_with_duration("a", OperationKind::Mix, 10);
        let b = g.add_operation_with_duration("b", OperationKind::Mix, 10);
        g.add_dependency(a, b).unwrap();
        (
            ScheduleProblem::new(g)
                .with_mixers(2)
                .with_transport_time(5),
            a,
            b,
        )
    }

    #[test]
    fn assign_and_query() {
        let (p, a, b) = two_op_problem();
        let mut s = Schedule::with_capacity(p.graph().num_operations());
        s.assign(a, DeviceId(0), 0, 10);
        s.assign(b, DeviceId(1), 15, 25);
        assert_eq!(s.len(), 2);
        assert_eq!(s.makespan(), 25);
        assert_eq!(s.get(a).unwrap().device, DeviceId(0));
        assert_eq!(s.operations_on(DeviceId(0)).len(), 1);
        assert!(s.validate(&p).is_ok());
    }

    #[test]
    fn validate_rejects_missing_operation() {
        let (p, a, _) = two_op_problem();
        let mut s = Schedule::with_capacity(p.graph().num_operations());
        s.assign(a, DeviceId(0), 0, 10);
        assert!(matches!(
            s.validate(&p),
            Err(ScheduleError::UnscheduledOperation { .. })
        ));
    }

    #[test]
    fn validate_rejects_wrong_duration() {
        let (p, a, b) = two_op_problem();
        let mut s = Schedule::with_capacity(p.graph().num_operations());
        s.assign(a, DeviceId(0), 0, 12);
        s.assign(b, DeviceId(1), 20, 30);
        assert!(matches!(
            s.validate(&p),
            Err(ScheduleError::DurationMismatch {
                expected: 10,
                actual: 12,
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_precedence_violation() {
        let (p, a, b) = two_op_problem();
        let mut s = Schedule::with_capacity(p.graph().num_operations());
        s.assign(a, DeviceId(0), 0, 10);
        // Starts only 2 s after the parent on a *different* device: needs 5 s.
        s.assign(b, DeviceId(1), 12, 22);
        assert!(matches!(
            s.validate(&p),
            Err(ScheduleError::PrecedenceViolation {
                required_start: 15,
                actual_start: 12,
                ..
            })
        ));
        // Same device: no transport needed, 10 s start is fine.
        let mut s = Schedule::with_capacity(p.graph().num_operations());
        s.assign(a, DeviceId(0), 0, 10);
        s.assign(b, DeviceId(0), 10, 20);
        assert!(s.validate(&p).is_ok());
    }

    #[test]
    fn validate_rejects_device_overlap() {
        // Two *independent* mixes: the overlap is the only violation, so the
        // dedicated variant (not a precedence error) must surface.
        let mut g = SequencingGraph::new("overlap");
        let a = g.add_operation_with_duration("a", OperationKind::Mix, 10);
        let b = g.add_operation_with_duration("b", OperationKind::Mix, 10);
        let p = ScheduleProblem::new(g).with_mixers(1);
        let mut s = Schedule::with_capacity(p.graph().num_operations());
        s.assign(a, DeviceId(0), 0, 10);
        s.assign(b, DeviceId(0), 5, 15);
        assert!(matches!(
            s.validate(&p),
            Err(ScheduleError::OverlappingOperations {
                device: DeviceId(0),
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_incompatible_device() {
        let p = ScheduleProblem::new(library::ivd())
            .with_mixers(1)
            .with_detectors(1);
        let g = p.graph();
        let mut s = Schedule::with_capacity(g.num_operations());
        // Bind everything (including detects) to the mixer: invalid.
        let mut t = 0;
        for op in g.device_operations() {
            let d = g.operation(op).duration;
            s.assign(op, DeviceId(0), t, t + d);
            t += d + 10;
        }
        assert!(matches!(
            s.validate(&p),
            Err(ScheduleError::IncompatibleDevice { .. })
        ));
    }

    #[test]
    fn metrics_of_simple_schedule() {
        let (p, a, b) = two_op_problem();
        let mut s = Schedule::with_capacity(p.graph().num_operations());
        s.assign(a, DeviceId(0), 0, 10);
        // Child starts 40 s later on another device: the sample is stored.
        s.assign(b, DeviceId(1), 50, 60);
        let m = s.metrics(&p);
        assert_eq!(m.makespan, 60);
        assert_eq!(m.store_count, 1);
        assert!(m.total_storage_time > 0);
        assert_eq!(m.max_concurrent_storage, 1);
    }

    #[test]
    #[should_panic(expected = "end after it starts")]
    fn assign_rejects_negative_duration() {
        let mut s = Schedule::with_capacity(1);
        s.assign(OpId(0), DeviceId(0), 10, 5);
    }

    #[test]
    fn display_lists_operations() {
        let (_, a, b) = two_op_problem();
        let mut s = Schedule::with_capacity(2);
        s.assign(a, DeviceId(0), 0, 10);
        s.assign(b, DeviceId(1), 15, 25);
        let text = s.to_string();
        assert!(text.contains("makespan 25s"));
        assert!(text.contains("op#0"));
    }
}
