//! Time-interval reservations of grid edges and nodes.
//!
//! Architectural synthesis must guarantee that transportation paths whose
//! time windows overlap never share a channel segment or an intersection
//! node, and that a segment caching a fluid sample is not used for transport
//! during its storage interval. The [`ReservationTable`] records who occupies
//! what and when.
//!
//! Every resource owns a [`ReservationCalendar`]: a start-sorted, coalesced
//! sequence of busy intervals. Queries and inserts are `O(log n)` binary
//! searches instead of the linear scans of the original `Vec<Interval>`
//! representation, and [`ReservationCalendar::first_free`] answers "when is
//! the earliest conflict-free window of this length?" directly — the staged
//! router asks the calendar for feasible windows instead of probing blind
//! candidate start times.

use biochip_json::{Deserialize, Serialize};

use biochip_assay::Seconds;

use crate::grid::{ConnectionGrid, GridEdgeId, NodeId};

/// A half-open time interval `[start, end)` in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Interval {
    /// Inclusive start.
    pub start: Seconds,
    /// Exclusive end.
    pub end: Seconds,
}

impl Interval {
    /// Creates an interval.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    #[must_use]
    pub fn new(start: Seconds, end: Seconds) -> Self {
        assert!(end >= start, "interval must not end before it starts");
        Interval { start, end }
    }

    /// Whether two intervals overlap (empty intervals never overlap).
    #[must_use]
    pub fn overlaps(&self, other: &Interval) -> bool {
        !self.is_empty() && !other.is_empty() && self.start < other.end && other.start < self.end
    }

    /// Length of the interval.
    #[must_use]
    pub fn len(&self) -> Seconds {
        self.end - self.start
    }

    /// Whether the interval is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// Start-sorted, coalesced busy intervals of one resource.
///
/// The invariant is strict: intervals are non-empty, sorted by start, and
/// pairwise neither overlapping nor adjacent (adjacent inserts are merged,
/// so the stored set is the canonical minimal representation of the busy
/// time). Because half-open intervals merge exactly (`[a,b) ∪ [b,c) =
/// [a,c)`), coalescing never changes the answer of an overlap query.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReservationCalendar {
    busy: Vec<Interval>,
}

impl ReservationCalendar {
    /// Creates an empty calendar.
    #[must_use]
    pub fn new() -> Self {
        ReservationCalendar { busy: Vec::new() }
    }

    /// The coalesced busy intervals, sorted by start.
    #[must_use]
    pub fn intervals(&self) -> &[Interval] {
        &self.busy
    }

    /// Number of coalesced busy intervals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.busy.len()
    }

    /// Whether nothing is reserved.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.busy.is_empty()
    }

    /// Whether the whole interval is free. Empty query intervals are always
    /// free (they occupy no time).
    #[must_use]
    pub fn is_free(&self, interval: Interval) -> bool {
        if interval.is_empty() {
            return true;
        }
        // Routing reserves forward in time, so most queries land past every
        // existing reservation: answer those from the last interval alone
        // before paying for a binary search.
        match self.busy.last() {
            None => return true,
            Some(last) if last.end <= interval.start => return true,
            _ => {}
        }
        // First busy interval that ends after the query starts; only that one
        // can overlap from the left.
        let idx = self.busy.partition_point(|b| b.end <= interval.start);
        self.busy.get(idx).is_none_or(|b| b.start >= interval.end)
    }

    /// Marks the interval busy. Empty intervals are ignored (a documented
    /// no-op, consistent with [`is_free`](Self::is_free) treating them as
    /// always free).
    pub fn reserve(&mut self, interval: Interval) {
        if interval.is_empty() {
            return;
        }
        // All stored intervals overlapping or adjacent to the new one form a
        // contiguous run [lo, hi); splice them into a single merged interval.
        let lo = self.busy.partition_point(|b| b.end < interval.start);
        let hi = self.busy.partition_point(|b| b.start <= interval.end);
        if lo == hi {
            self.busy.insert(lo, interval);
        } else {
            let merged = Interval {
                start: self.busy[lo].start.min(interval.start),
                end: self.busy[hi - 1].end.max(interval.end),
            };
            self.busy.splice(lo..hi, std::iter::once(merged));
        }
        debug_assert!(self.invariant_holds(), "calendar invariant violated");
    }

    /// Earliest start `s` with `earliest <= s <= latest_start` such that
    /// `[s, s + duration)` is completely free, or `None` when no such window
    /// exists. `duration` is clamped to at least 1.
    #[must_use]
    pub fn first_free(
        &self,
        duration: Seconds,
        earliest: Seconds,
        latest_start: Seconds,
    ) -> Option<Seconds> {
        if latest_start < earliest {
            return None;
        }
        let duration = duration.max(1);
        let mut candidate = earliest;
        // Jump straight to the first busy interval that could block the
        // candidate, then walk the (coalesced, hence strictly separated)
        // busy intervals — each step either returns or advances past one.
        let mut idx = self.busy.partition_point(|b| b.end <= candidate);
        loop {
            match self.busy.get(idx) {
                None => return Some(candidate),
                Some(b) if candidate.checked_add(duration)? <= b.start => return Some(candidate),
                Some(b) => {
                    candidate = candidate.max(b.end);
                    if candidate > latest_start {
                        return None;
                    }
                    idx += 1;
                }
            }
        }
    }

    /// Checks the sorted/coalesced invariant (debug assertions only).
    fn invariant_holds(&self) -> bool {
        self.busy.iter().all(|b| !b.is_empty())
            && self.busy.windows(2).all(|w| w[0].end < w[1].start)
    }
}

/// Occupancy of every grid edge and node over time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReservationTable {
    edge_busy: Vec<ReservationCalendar>,
    node_busy: Vec<ReservationCalendar>,
}

impl ReservationTable {
    /// Creates an empty table for the given grid.
    #[must_use]
    pub fn new(grid: &ConnectionGrid) -> Self {
        ReservationTable {
            edge_busy: vec![ReservationCalendar::new(); grid.num_edges()],
            node_busy: vec![ReservationCalendar::new(); grid.num_nodes()],
        }
    }

    /// Whether an edge is free during the whole interval.
    #[must_use]
    pub fn edge_free(&self, edge: GridEdgeId, interval: Interval) -> bool {
        self.edge_busy[edge.index()].is_free(interval)
    }

    /// Whether a node is free during the whole interval.
    #[must_use]
    pub fn node_free(&self, node: NodeId, interval: Interval) -> bool {
        self.node_busy[node.index()].is_free(interval)
    }

    /// Marks an edge busy during the interval. Empty intervals are ignored.
    pub fn reserve_edge(&mut self, edge: GridEdgeId, interval: Interval) {
        self.edge_busy[edge.index()].reserve(interval);
    }

    /// Marks a node busy during the interval. Empty intervals are ignored.
    pub fn reserve_node(&mut self, node: NodeId, interval: Interval) {
        self.node_busy[node.index()].reserve(interval);
    }

    /// The calendar of one edge.
    #[must_use]
    pub fn edge_calendar(&self, edge: GridEdgeId) -> &ReservationCalendar {
        &self.edge_busy[edge.index()]
    }

    /// The calendar of one node.
    #[must_use]
    pub fn node_calendar(&self, node: NodeId) -> &ReservationCalendar {
        &self.node_busy[node.index()]
    }

    /// All (coalesced) reservations of an edge, for inspection and
    /// verification.
    #[must_use]
    pub fn edge_reservations(&self, edge: GridEdgeId) -> &[Interval] {
        self.edge_busy[edge.index()].intervals()
    }

    /// All (coalesced) reservations of a node.
    #[must_use]
    pub fn node_reservations(&self, node: NodeId) -> &[Interval] {
        self.node_busy[node.index()].intervals()
    }

    /// Earliest conflict-free start of a `duration`-long window on an edge
    /// within `[earliest, latest_start]` (see
    /// [`ReservationCalendar::first_free`]).
    #[must_use]
    pub fn first_free_edge_window(
        &self,
        edge: GridEdgeId,
        duration: Seconds,
        earliest: Seconds,
        latest_start: Seconds,
    ) -> Option<Seconds> {
        self.edge_busy[edge.index()].first_free(duration, earliest, latest_start)
    }

    /// Earliest conflict-free start of a `duration`-long window on a node
    /// within `[earliest, latest_start]`.
    #[must_use]
    pub fn first_free_node_window(
        &self,
        node: NodeId,
        duration: Seconds,
        earliest: Seconds,
        latest_start: Seconds,
    ) -> Option<Seconds> {
        self.node_busy[node.index()].first_free(duration, earliest, latest_start)
    }

    /// Total number of coalesced edge reservations (used in statistics).
    #[must_use]
    pub fn total_edge_reservations(&self) -> usize {
        self.edge_busy.iter().map(ReservationCalendar::len).sum()
    }

    /// Largest calendar over all edges and nodes: the worst-case `n` of the
    /// `O(log n)` queries, reported by the scale benchmarks.
    #[must_use]
    pub fn peak_calendar_len(&self) -> usize {
        self.edge_busy
            .iter()
            .chain(self.node_busy.iter())
            .map(ReservationCalendar::len)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn interval_overlap_rules() {
        let a = Interval::new(0, 10);
        let b = Interval::new(10, 20);
        let c = Interval::new(5, 15);
        let empty = Interval::new(7, 7);
        assert!(!a.overlaps(&b), "touching intervals do not overlap");
        assert!(a.overlaps(&c));
        assert!(b.overlaps(&c));
        assert!(!a.overlaps(&empty));
        assert_eq!(a.len(), 10);
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "end before it starts")]
    fn inverted_interval_panics() {
        let _ = Interval::new(5, 1);
    }

    #[test]
    fn edge_and_node_reservations() {
        let grid = ConnectionGrid::square(3);
        let mut table = ReservationTable::new(&grid);
        let e = GridEdgeId(0);
        let n = NodeId(0);
        assert!(table.edge_free(e, Interval::new(0, 100)));
        table.reserve_edge(e, Interval::new(10, 20));
        table.reserve_node(n, Interval::new(10, 20));
        assert!(!table.edge_free(e, Interval::new(15, 25)));
        assert!(table.edge_free(e, Interval::new(20, 25)));
        assert!(!table.node_free(n, Interval::new(0, 11)));
        assert!(table.node_free(n, Interval::new(20, 30)));
        assert_eq!(table.edge_reservations(e).len(), 1);
        assert_eq!(table.total_edge_reservations(), 1);
        assert_eq!(table.peak_calendar_len(), 1);
    }

    #[test]
    fn empty_reservations_are_ignored() {
        let grid = ConnectionGrid::square(2);
        let mut table = ReservationTable::new(&grid);
        table.reserve_edge(GridEdgeId(0), Interval::new(5, 5));
        table.reserve_node(NodeId(0), Interval::new(5, 5));
        assert!(table.edge_free(GridEdgeId(0), Interval::new(0, 10)));
        assert!(table.node_free(NodeId(0), Interval::new(0, 10)));
        assert_eq!(table.total_edge_reservations(), 0);
    }

    #[test]
    fn calendar_coalesces_overlapping_and_adjacent_inserts() {
        let mut cal = ReservationCalendar::new();
        cal.reserve(Interval::new(10, 20));
        cal.reserve(Interval::new(30, 40));
        assert_eq!(cal.len(), 2);
        // Overlapping insert merges with the first interval.
        cal.reserve(Interval::new(15, 25));
        assert_eq!(
            cal.intervals(),
            &[Interval::new(10, 25), Interval::new(30, 40)]
        );
        // Adjacent insert bridges the gap into one interval.
        cal.reserve(Interval::new(25, 30));
        assert_eq!(cal.intervals(), &[Interval::new(10, 40)]);
        assert!(!cal.is_free(Interval::new(12, 13)));
        assert!(cal.is_free(Interval::new(40, 41)));
    }

    #[test]
    fn first_free_walks_the_gaps() {
        let mut cal = ReservationCalendar::new();
        cal.reserve(Interval::new(10, 20));
        cal.reserve(Interval::new(25, 40));
        // Fits before the first busy interval.
        assert_eq!(cal.first_free(5, 0, 100), Some(0));
        assert_eq!(cal.first_free(10, 0, 100), Some(0));
        // Too long for [0,10): lands in the [20,25) gap or after 40.
        assert_eq!(cal.first_free(11, 0, 100), Some(40));
        // [5, 10) exactly fills the gap before the first busy interval.
        assert_eq!(cal.first_free(5, 5, 100), Some(5));
        // Duration 6 overflows both the [5,10) and [20,25) gaps.
        assert_eq!(cal.first_free(6, 5, 100), Some(40));
        assert_eq!(cal.first_free(5, 6, 100), Some(20));
        assert_eq!(cal.first_free(4, 12, 100), Some(20));
        // Bounded by latest_start.
        assert_eq!(cal.first_free(5, 12, 19), None);
        assert_eq!(cal.first_free(5, 12, 20), Some(20));
        // Empty calendar: the earliest start always works.
        assert_eq!(ReservationCalendar::new().first_free(5, 7, 7), Some(7));
        // Inverted range.
        assert_eq!(cal.first_free(1, 10, 9), None);
    }

    #[test]
    fn first_free_clamps_zero_durations_to_one() {
        let mut cal = ReservationCalendar::new();
        cal.reserve(Interval::new(0, 10));
        assert_eq!(cal.first_free(0, 0, 100), Some(10));
    }

    proptest! {
        #[test]
        fn overlap_is_symmetric(s1 in 0u64..100, l1 in 0u64..50, s2 in 0u64..100, l2 in 0u64..50) {
            let a = Interval::new(s1, s1 + l1);
            let b = Interval::new(s2, s2 + l2);
            prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        }

        #[test]
        fn free_iff_no_overlapping_reservation(
            reservations in proptest::collection::vec((0u64..50, 1u64..10), 0..8),
            query_start in 0u64..60,
            query_len in 1u64..10,
        ) {
            let grid = ConnectionGrid::square(2);
            let mut table = ReservationTable::new(&grid);
            let e = GridEdgeId(0);
            for (s, l) in &reservations {
                table.reserve_edge(e, Interval::new(*s, s + l));
            }
            let query = Interval::new(query_start, query_start + query_len);
            let expected = reservations
                .iter()
                .all(|(s, l)| !Interval::new(*s, s + l).overlaps(&query));
            prop_assert_eq!(table.edge_free(e, query), expected);
        }

        #[test]
        fn merge_preserves_busy_time_including_adjacent_and_empty(
            reservations in proptest::collection::vec((0u64..40, 0u64..8), 0..10),
            t in 0u64..60,
        ) {
            // Zero-length reservations are allowed in the input mix and must
            // behave as no-ops; adjacent intervals must coalesce without
            // changing which instants are busy.
            let mut cal = ReservationCalendar::new();
            for (s, l) in &reservations {
                cal.reserve(Interval::new(*s, s + l));
            }
            // Invariant: sorted, non-empty, strictly separated.
            for b in cal.intervals() {
                prop_assert!(!b.is_empty());
            }
            for w in cal.intervals().windows(2) {
                prop_assert!(w[0].end < w[1].start, "not coalesced: {:?}", w);
            }
            let busy_expected = reservations
                .iter()
                .any(|(s, l)| t >= *s && t < s + l);
            let busy_actual = !cal.is_free(Interval::new(t, t + 1));
            prop_assert_eq!(busy_actual, busy_expected);
        }

        #[test]
        fn first_free_returns_the_earliest_valid_window(
            reservations in proptest::collection::vec((0u64..40, 0u64..8), 0..8),
            duration in 1u64..10,
            earliest in 0u64..50,
            slack in 0u64..30,
        ) {
            let mut cal = ReservationCalendar::new();
            for (s, l) in &reservations {
                cal.reserve(Interval::new(*s, s + l));
            }
            let latest = earliest + slack;
            let found = cal.first_free(duration, earliest, latest);
            // Oracle: linear scan over every candidate start.
            let oracle = (earliest..=latest)
                .find(|&s| cal.is_free(Interval::new(s, s + duration)));
            prop_assert_eq!(found, oracle);
            if let Some(s) = found {
                prop_assert!(cal.is_free(Interval::new(s, s + duration)));
                prop_assert!(s >= earliest && s <= latest);
            }
        }
    }
}
