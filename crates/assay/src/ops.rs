//! Operation kinds and per-operation metadata.

use biochip_json::{Deserialize, Serialize};
use std::fmt;

use crate::Seconds;

/// The kind of a fluidic operation in a sequencing graph.
///
/// The paper's evaluation only uses mixing operations executed on mixers, but
/// real assays also contain dilution, heating and detection steps, so the
/// model keeps the full set. The [`device_class`](OperationKind::device_class)
/// method maps each kind to the device class able to execute it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OperationKind {
    /// Dispensing of an input reagent or sample onto the chip.
    Input,
    /// Mixing of two (or more) fluid samples in a ring mixer.
    Mix,
    /// Dilution of a sample with a buffer (executed on a mixer).
    Dilute,
    /// Heating / incubation of a sample.
    Heat,
    /// Optical or electrochemical detection.
    Detect,
    /// Transport of a final product to an output port.
    Output,
}

impl OperationKind {
    /// The class of device that can execute this operation.
    ///
    /// Inputs and outputs are executed by chip I/O ports and do not occupy a
    /// functional device.
    #[must_use]
    pub fn device_class(self) -> DeviceClass {
        match self {
            OperationKind::Input | OperationKind::Output => DeviceClass::Port,
            OperationKind::Mix | OperationKind::Dilute => DeviceClass::Mixer,
            OperationKind::Heat => DeviceClass::Heater,
            OperationKind::Detect => DeviceClass::Detector,
        }
    }

    /// Default duration of this operation kind, in seconds.
    ///
    /// These defaults follow the magnitudes commonly used in the flow-based
    /// biochip synthesis literature (mixing ≈ tens of seconds, detection
    /// ≈ 30 s) and produce assay execution times of the same order as the
    /// paper's Table 2.
    #[must_use]
    pub fn default_duration(self) -> Seconds {
        match self {
            OperationKind::Input | OperationKind::Output => 0,
            OperationKind::Mix => 60,
            OperationKind::Dilute => 60,
            OperationKind::Heat => 90,
            OperationKind::Detect => 30,
        }
    }

    /// Whether this operation occupies a functional device (mixer, heater,
    /// detector) for its duration.
    #[must_use]
    pub fn needs_device(self) -> bool {
        self.device_class() != DeviceClass::Port
    }

    /// All operation kinds, in declaration order.
    #[must_use]
    pub fn all() -> &'static [OperationKind] {
        &[
            OperationKind::Input,
            OperationKind::Mix,
            OperationKind::Dilute,
            OperationKind::Heat,
            OperationKind::Detect,
            OperationKind::Output,
        ]
    }
}

impl fmt::Display for OperationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OperationKind::Input => "input",
            OperationKind::Mix => "mix",
            OperationKind::Dilute => "dilute",
            OperationKind::Heat => "heat",
            OperationKind::Detect => "detect",
            OperationKind::Output => "output",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for OperationKind {
    type Err = ParseKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "input" => Ok(OperationKind::Input),
            "mix" => Ok(OperationKind::Mix),
            "dilute" => Ok(OperationKind::Dilute),
            "heat" => Ok(OperationKind::Heat),
            "detect" => Ok(OperationKind::Detect),
            "output" => Ok(OperationKind::Output),
            other => Err(ParseKindError {
                found: other.to_owned(),
            }),
        }
    }
}

/// Error returned when parsing an [`OperationKind`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseKindError {
    found: String,
}

impl fmt::Display for ParseKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown operation kind `{}`", self.found)
    }
}

impl std::error::Error for ParseKindError {}

/// The class of an on-chip device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DeviceClass {
    /// A ring mixer built from nine valves (Fig. 1(b) of the paper).
    Mixer,
    /// A heating element.
    Heater,
    /// An optical detector.
    Detector,
    /// A chip inlet/outlet port (not a functional device).
    Port,
}

impl fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceClass::Mixer => "mixer",
            DeviceClass::Heater => "heater",
            DeviceClass::Detector => "detector",
            DeviceClass::Port => "port",
        };
        f.write_str(s)
    }
}

/// A single operation of a sequencing graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Operation {
    /// Human-readable name, unique within a graph (e.g. `"o3"`).
    pub name: String,
    /// What the operation does.
    pub kind: OperationKind,
    /// Execution duration in seconds.
    pub duration: Seconds,
}

impl Operation {
    /// Creates an operation with an explicit duration.
    ///
    /// # Example
    ///
    /// ```
    /// use biochip_assay::{Operation, OperationKind};
    /// let op = Operation::new("o1", OperationKind::Mix, 45);
    /// assert_eq!(op.duration, 45);
    /// ```
    #[must_use]
    pub fn new(name: impl Into<String>, kind: OperationKind, duration: Seconds) -> Self {
        Operation {
            name: name.into(),
            kind,
            duration,
        }
    }

    /// Creates an operation with the kind's [default duration](OperationKind::default_duration).
    #[must_use]
    pub fn with_default_duration(name: impl Into<String>, kind: OperationKind) -> Self {
        let duration = kind.default_duration();
        Operation::new(name, kind, duration)
    }

    /// Whether the operation needs a functional device.
    #[must_use]
    pub fn needs_device(&self) -> bool {
        self.kind.needs_device()
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}, {}s)", self.name, self.kind, self.duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_class_mapping() {
        assert_eq!(OperationKind::Mix.device_class(), DeviceClass::Mixer);
        assert_eq!(OperationKind::Dilute.device_class(), DeviceClass::Mixer);
        assert_eq!(OperationKind::Heat.device_class(), DeviceClass::Heater);
        assert_eq!(OperationKind::Detect.device_class(), DeviceClass::Detector);
        assert_eq!(OperationKind::Input.device_class(), DeviceClass::Port);
        assert_eq!(OperationKind::Output.device_class(), DeviceClass::Port);
    }

    #[test]
    fn ports_do_not_need_devices() {
        assert!(!OperationKind::Input.needs_device());
        assert!(!OperationKind::Output.needs_device());
        assert!(OperationKind::Mix.needs_device());
    }

    #[test]
    fn default_durations_are_positive_for_device_ops() {
        for &kind in OperationKind::all() {
            if kind.needs_device() {
                assert!(kind.default_duration() > 0, "{kind} should take time");
            }
        }
    }

    #[test]
    fn kind_display_roundtrip() {
        for &kind in OperationKind::all() {
            let text = kind.to_string();
            let parsed: OperationKind = text.parse().expect("roundtrip");
            assert_eq!(parsed, kind);
        }
    }

    #[test]
    fn kind_parse_rejects_unknown() {
        let err = "centrifuge".parse::<OperationKind>().unwrap_err();
        assert!(err.to_string().contains("centrifuge"));
    }

    #[test]
    fn operation_constructors() {
        let a = Operation::new("m", OperationKind::Mix, 10);
        assert_eq!(a.duration, 10);
        let b = Operation::with_default_duration("m", OperationKind::Mix);
        assert_eq!(b.duration, OperationKind::Mix.default_duration());
    }

    #[test]
    fn operation_display_mentions_name_and_kind() {
        let op = Operation::new("o7", OperationKind::Detect, 30);
        let shown = op.to_string();
        assert!(shown.contains("o7"));
        assert!(shown.contains("detect"));
    }
}
