//! Scheduling problem definition: assay, device inventory, weights.

use biochip_json::{Deserialize, Serialize};
use std::fmt;

use biochip_assay::{DeviceClass, OpId, Seconds, SequencingGraph};

use crate::error::ScheduleError;
use crate::DEFAULT_TRANSPORT_SECONDS;

/// Identifier of a device in the scheduling problem.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct DeviceId(pub usize);

impl DeviceId {
    /// The dense index of this device.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// An on-chip device available to the scheduler.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Device {
    /// Identifier (dense index).
    pub id: DeviceId,
    /// Device class (mixer, heater, detector).
    pub class: DeviceClass,
    /// Human-readable name, e.g. `"mixer0"`.
    pub name: String,
}

/// A scheduling and binding problem: which assay to execute, on how many
/// devices, with which transport constant and objective weights.
///
/// Corresponds to the "Inputs" of the paper's problem formulation
/// (sequencing graph, execution times, maximum device counts).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleProblem {
    graph: SequencingGraph,
    devices: Vec<Device>,
    transport_time: Seconds,
    alpha: f64,
    beta: f64,
}

impl ScheduleProblem {
    /// Creates a problem for `graph` with a single mixer and default
    /// transport time and weights (`α = 1000`, `β = 1` — execution time has
    /// strict priority over storage, as in the paper's experiments).
    #[must_use]
    pub fn new(graph: SequencingGraph) -> Self {
        let mut problem = ScheduleProblem {
            graph,
            devices: Vec::new(),
            transport_time: DEFAULT_TRANSPORT_SECONDS,
            alpha: 1000.0,
            beta: 1.0,
        };
        problem.add_devices(DeviceClass::Mixer, 1);
        problem
    }

    /// Replaces the mixer count (at least one).
    #[must_use]
    pub fn with_mixers(mut self, count: usize) -> Self {
        self.set_device_count(DeviceClass::Mixer, count.max(1));
        self
    }

    /// Sets the number of detectors.
    #[must_use]
    pub fn with_detectors(mut self, count: usize) -> Self {
        self.set_device_count(DeviceClass::Detector, count);
        self
    }

    /// Sets the number of heaters.
    #[must_use]
    pub fn with_heaters(mut self, count: usize) -> Self {
        self.set_device_count(DeviceClass::Heater, count);
        self
    }

    /// Sets the pure device-to-device transportation time `u_c`.
    #[must_use]
    pub fn with_transport_time(mut self, seconds: Seconds) -> Self {
        self.transport_time = seconds;
        self
    }

    /// Sets the objective weights `α` (execution time) and `β` (storage).
    #[must_use]
    pub fn with_weights(mut self, alpha: f64, beta: f64) -> Self {
        self.alpha = alpha;
        self.beta = beta;
        self
    }

    fn set_device_count(&mut self, class: DeviceClass, count: usize) {
        self.devices.retain(|d| d.class != class);
        self.add_devices(class, count);
        // Re-index densely so DeviceId remains a valid Vec index.
        for (i, d) in self.devices.iter_mut().enumerate() {
            d.id = DeviceId(i);
        }
    }

    fn add_devices(&mut self, class: DeviceClass, count: usize) {
        let existing = self.devices.iter().filter(|d| d.class == class).count();
        for i in 0..count {
            let id = DeviceId(self.devices.len());
            self.devices.push(Device {
                id,
                class,
                name: format!("{class}{}", existing + i),
            });
        }
    }

    /// The assay to schedule.
    #[must_use]
    pub fn graph(&self) -> &SequencingGraph {
        &self.graph
    }

    /// All devices.
    #[must_use]
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// The device with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this problem.
    #[must_use]
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.index()]
    }

    /// Devices able to execute the given operation.
    #[must_use]
    pub fn compatible_devices(&self, op: OpId) -> Vec<DeviceId> {
        let class = self.graph.operation(op).kind.device_class();
        self.devices
            .iter()
            .filter(|d| d.class == class)
            .map(|d| d.id)
            .collect()
    }

    /// The pure transportation time `u_c`.
    #[must_use]
    pub fn transport_time(&self) -> Seconds {
        self.transport_time
    }

    /// The execution-time weight `α`.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The storage weight `β`.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Validates that the graph is well-formed and every device operation has
    /// at least one compatible device.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::InvalidGraph`] or
    /// [`ScheduleError::MissingDevice`].
    pub fn validate(&self) -> Result<(), ScheduleError> {
        self.graph.validate()?;
        for op in self.graph.device_operations() {
            if self.compatible_devices(op).is_empty() {
                return Err(ScheduleError::MissingDevice {
                    op,
                    class: self.graph.operation(op).kind.device_class().to_string(),
                });
            }
        }
        Ok(())
    }

    /// A loose horizon (upper bound on the makespan) used for ILP big-M
    /// values and variable bounds: executing every operation sequentially
    /// with one transport in between.
    #[must_use]
    pub fn horizon(&self) -> Seconds {
        let ops = self.graph.device_operations().len() as u64;
        self.graph.total_work() + ops.saturating_mul(self.transport_time) + self.transport_time
    }
}

impl fmt::Display for ScheduleProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule problem for {} on {} devices (u_c = {}s)",
            self.graph,
            self.devices.len(),
            self.transport_time
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biochip_assay::library;

    #[test]
    fn default_problem_has_one_mixer() {
        let p = ScheduleProblem::new(library::pcr());
        assert_eq!(p.devices().len(), 1);
        assert_eq!(p.devices()[0].class, DeviceClass::Mixer);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn with_mixers_replaces_count() {
        let p = ScheduleProblem::new(library::pcr()).with_mixers(3);
        assert_eq!(p.devices().len(), 3);
        let p = p.with_mixers(2);
        assert_eq!(p.devices().len(), 2);
        // Ids stay dense.
        for (i, d) in p.devices().iter().enumerate() {
            assert_eq!(d.id.index(), i);
        }
    }

    #[test]
    fn ivd_needs_detectors() {
        let p = ScheduleProblem::new(library::ivd()).with_mixers(2);
        // No detector configured -> validation fails.
        assert!(matches!(
            p.validate(),
            Err(ScheduleError::MissingDevice { .. })
        ));
        let p = p.with_detectors(1);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn compatible_devices_by_class() {
        let p = ScheduleProblem::new(library::ivd())
            .with_mixers(2)
            .with_detectors(1);
        let g = p.graph();
        let mix = g.id_by_name("mix_s1r1").unwrap();
        let det = g.id_by_name("det_s1r1").unwrap();
        assert_eq!(p.compatible_devices(mix).len(), 2);
        assert_eq!(p.compatible_devices(det).len(), 1);
    }

    #[test]
    fn horizon_exceeds_total_work() {
        let p = ScheduleProblem::new(library::pcr()).with_transport_time(5);
        assert!(p.horizon() >= p.graph().total_work());
    }

    #[test]
    fn weights_and_transport_setters() {
        let p = ScheduleProblem::new(library::pcr())
            .with_weights(10.0, 2.0)
            .with_transport_time(7);
        assert_eq!(p.alpha(), 10.0);
        assert_eq!(p.beta(), 2.0);
        assert_eq!(p.transport_time(), 7);
    }

    #[test]
    fn display_mentions_device_count() {
        let p = ScheduleProblem::new(library::pcr()).with_mixers(2);
        assert!(p.to_string().contains("2 devices"));
    }
}
