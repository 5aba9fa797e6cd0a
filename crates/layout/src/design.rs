//! Physical-design data types.

use biochip_json::{Deserialize, Serialize};

use biochip_arch::{DeviceId, GridEdgeId};

/// Width × height of a (rectangular) chip region, in channel-pitch units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Dimensions {
    /// Horizontal extent.
    pub width: u64,
    /// Vertical extent.
    pub height: u64,
}

impl Dimensions {
    /// Creates a dimension pair.
    #[must_use]
    pub fn new(width: u64, height: u64) -> Self {
        Dimensions { width, height }
    }

    /// Chip area.
    #[must_use]
    pub fn area(&self) -> u64 {
        self.width * self.height
    }
}

impl std::fmt::Display for Dimensions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

/// Options of the physical-design flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayoutOptions {
    /// Minimum distance between two parallel channels (the scaling unit of
    /// the whole layout).
    pub channel_pitch: u64,
    /// Side length of a device footprint, in channel-pitch units.
    pub device_size: u64,
    /// Minimum length of a channel segment used as storage, in channel-pitch
    /// units (a segment must hold one full fluid sample).
    pub storage_segment_length: u64,
}

impl Default for LayoutOptions {
    fn default() -> Self {
        LayoutOptions {
            channel_pitch: 1,
            device_size: 3,
            storage_segment_length: 2,
        }
    }
}

/// A device with its physical position (lower-left corner) and footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacedDevice {
    /// The device.
    pub device: DeviceId,
    /// Horizontal position of the lower-left corner.
    pub x: u64,
    /// Vertical position of the lower-left corner.
    pub y: u64,
    /// Side length of the square footprint.
    pub size: u64,
}

impl PlacedDevice {
    /// Whether two device footprints overlap.
    #[must_use]
    pub fn overlaps(&self, other: &PlacedDevice) -> bool {
        self.x < other.x + other.size
            && other.x < self.x + self.size
            && self.y < other.y + other.size
            && other.y < self.y + self.size
    }
}

/// A channel segment in the physical layout.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutedSegment {
    /// The grid edge this segment realizes.
    pub edge: GridEdgeId,
    /// Straight-line span between its two end points after compression.
    pub span: u64,
    /// Physical length including the bends inserted to satisfy the storage
    /// length requirement (always ≥ `span`).
    pub length: u64,
    /// Number of bend points inserted.
    pub bends: usize,
    /// Whether the segment caches a fluid sample at some point of the assay.
    pub used_for_storage: bool,
}

/// The result of the physical-design flow.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhysicalDesign {
    /// Dimensions straight after architectural synthesis, scaled by the
    /// channel pitch (`d_r` in Table 2).
    pub scaled: Dimensions,
    /// Dimensions after device insertion and segment stretching (`d_e`).
    pub expanded: Dimensions,
    /// Dimensions after iterative compression (`d_p`).
    pub compressed: Dimensions,
    /// Devices with their physical positions in the compressed layout.
    pub devices: Vec<PlacedDevice>,
    /// Channel segments with their physical lengths in the compressed layout.
    pub segments: Vec<RoutedSegment>,
    /// Number of compression iterations performed.
    pub compression_iterations: usize,
}

impl PhysicalDesign {
    /// Area reduction achieved by compression, as a fraction of the expanded
    /// area (0 when compression achieved nothing).
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        if self.expanded.area() == 0 {
            return 0.0;
        }
        1.0 - self.compressed.area() as f64 / self.expanded.area() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions_area_and_display() {
        let d = Dimensions::new(4, 6);
        assert_eq!(d.area(), 24);
        assert_eq!(d.to_string(), "4x6");
    }

    #[test]
    fn device_overlap_detection() {
        let a = PlacedDevice {
            device: DeviceId(0),
            x: 0,
            y: 0,
            size: 3,
        };
        let b = PlacedDevice {
            device: DeviceId(1),
            x: 3,
            y: 0,
            size: 3,
        };
        let c = PlacedDevice {
            device: DeviceId(2),
            x: 2,
            y: 2,
            size: 3,
        };
        assert!(!a.overlaps(&b), "touching footprints do not overlap");
        assert!(a.overlaps(&c));
        assert!(c.overlaps(&a));
    }

    #[test]
    fn compression_ratio_bounds() {
        let design = PhysicalDesign {
            scaled: Dimensions::new(4, 4),
            expanded: Dimensions::new(16, 16),
            compressed: Dimensions::new(8, 8),
            devices: Vec::new(),
            segments: Vec::new(),
            compression_iterations: 3,
        };
        assert!((design.compression_ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn default_options_are_sane() {
        let o = LayoutOptions::default();
        assert!(o.channel_pitch >= 1);
        assert!(o.device_size >= 1);
        assert!(o.storage_segment_length >= 1);
    }
}
