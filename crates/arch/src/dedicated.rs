//! The dedicated storage unit baseline (Fig. 1(c) / Fig. 3 of the paper).
//!
//! Previous synthesis flows park every waiting sample in a dedicated storage
//! unit: a bank of side-by-side channel cells addressed through a
//! multiplexer-like valve structure at its port. Compared to distributed
//! channel storage this costs extra valves and — because the port can admit
//! only one sample at a time — serializes concurrent storage accesses,
//! prolonging the assay. This module provides the valve-cost model; the
//! port-queueing execution model lives in `biochip-sim`.

use biochip_json::{Deserialize, Serialize};

/// A dedicated storage unit with a fixed number of storage cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DedicatedStorageUnit {
    cells: usize,
}

impl DedicatedStorageUnit {
    /// Creates a storage unit with the given number of cells (at least one
    /// cell even if the schedule never stores, because previous flows always
    /// provision the unit).
    #[must_use]
    pub fn new(cells: usize) -> Self {
        DedicatedStorageUnit {
            cells: cells.max(1),
        }
    }

    /// Number of storage cells.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Number of samples that can enter or leave the unit simultaneously.
    ///
    /// The multiplexer port admits a single transfer at a time — the
    /// bandwidth bottleneck the paper's Fig. 3(c) illustrates.
    #[must_use]
    pub fn port_bandwidth(&self) -> usize {
        1
    }

    /// Valve count of the unit: see [`dedicated_storage_valves`].
    #[must_use]
    pub fn valve_count(&self) -> usize {
        dedicated_storage_valves(self.cells)
    }
}

/// Valve cost of a dedicated storage unit with `cells` cells.
///
/// The model follows the multiplexer-addressed bank of Fig. 1(c):
///
/// * two valves per cell seal the cell at both ends (`2·cells`),
/// * a binary multiplexer selecting one of `cells` cells needs
///   `2·ceil(log2 cells)` valves on the shared address lines,
/// * the port itself is a four-valve switch connecting the unit to the
///   transport network.
///
/// # Examples
///
/// ```
/// use biochip_arch::dedicated_storage_valves;
/// // The eight-cell unit of the paper's Fig. 1(c).
/// assert_eq!(dedicated_storage_valves(8), 8 * 2 + 2 * 3 + 4);
/// ```
#[must_use]
pub fn dedicated_storage_valves(cells: usize) -> usize {
    let cells = cells.max(1);
    let address_bits = usize::BITS as usize - (cells - 1).leading_zeros() as usize;
    2 * cells + 2 * address_bits + 4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valve_model_matches_formula() {
        assert_eq!(dedicated_storage_valves(1), 2 + 4);
        assert_eq!(dedicated_storage_valves(2), 4 + 2 + 4);
        assert_eq!(dedicated_storage_valves(4), 8 + 4 + 4);
        assert_eq!(dedicated_storage_valves(8), 16 + 6 + 4);
    }

    #[test]
    fn valves_grow_monotonically_with_cells() {
        let mut previous = 0;
        for cells in 1..64 {
            let v = dedicated_storage_valves(cells);
            assert!(v >= previous, "valve count must not shrink");
            previous = v;
        }
    }

    #[test]
    fn unit_accessors() {
        let unit = DedicatedStorageUnit::new(3);
        assert_eq!(unit.cells(), 3);
        assert_eq!(unit.port_bandwidth(), 1);
        assert_eq!(unit.valve_count(), dedicated_storage_valves(3));
    }

    #[test]
    fn zero_cells_is_clamped_to_one() {
        let unit = DedicatedStorageUnit::new(0);
        assert_eq!(unit.cells(), 1);
        assert_eq!(dedicated_storage_valves(0), dedicated_storage_valves(1));
    }
}
