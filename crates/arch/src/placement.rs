//! Device placement on the connection grid.
//!
//! Devices that exchange many fluid samples should sit close together so that
//! transportation paths stay short and use few channel segments. Placement
//! runs in two stages: a greedy constructive placement ordered by traffic,
//! followed by an optional simulated-annealing refinement (seeded, hence
//! deterministic) that swaps/moves devices to reduce the total
//! traffic-weighted Manhattan distance.
//!
//! The refinement evaluates every candidate move **incrementally**: a swap or
//! move only changes the cost terms of the touched devices, so the delta is
//! computed from the affected [`TrafficMatrix`] rows in `O(devices)` instead
//! of recomputing the full `O(devices²)` [`Placement::weighted_cost`] per
//! step.

use biochip_json::{Deserialize, Json, JsonError, Serialize};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use biochip_schedule::DeviceId;

use crate::error::ArchError;
use crate::grid::{ConnectionGrid, GridCoord, NodeId};
use crate::transport::TransportTask;

/// Options for the placement stage.
///
/// `Deserialize` is hand-written (not derived) so that older documents
/// still load: a missing `warm_start` defaults on, and the retired
/// multi-start field `starts` is accepted only as `1`, the single chain
/// this placer runs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PlacementOptions {
    /// Run the simulated-annealing refinement after greedy placement.
    pub refine: bool,
    /// Number of annealing moves.
    pub annealing_moves: usize,
    /// RNG seed for the refinement (placement is deterministic in this seed).
    pub seed: u64,
    /// Allow a warm start: when an edit-loop caller supplies a prior
    /// placement whose inputs (grid, traffic matrix, these options) are
    /// identical to the current ones, the placer adopts it instead of
    /// re-annealing. Adoption is gated on *exact* input equality — seeding
    /// the anneal with a prior placement under changed traffic would
    /// produce a result a cold run cannot reproduce, breaking the
    /// byte-identity contract of the warm-start differential suite — so a
    /// warm placement is always bit-identical to what the annealer would
    /// have found. `true` by default; set `false` to force cold placement.
    pub warm_start: bool,
}

impl Default for PlacementOptions {
    fn default() -> Self {
        PlacementOptions {
            refine: true,
            annealing_moves: 2_000,
            seed: 0xC0FFEE,
            warm_start: true,
        }
    }
}

impl Deserialize for PlacementOptions {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        // Documents written while multi-start annealing existed may carry
        // `starts`. One start is the chain this placer runs; any other
        // count asked for a placement it can no longer produce.
        if let Some(raw) = value.get("starts") {
            let starts: usize = Deserialize::from_json(raw)
                .map_err(|e| JsonError::new(format!("field `starts`: {e}")))?;
            if starts != 1 {
                return Err(JsonError::new(format!(
                    "field `starts`: multi-start placement is no longer supported \
                     (got {starts}); remove the field or set it to 1"
                )));
            }
        }
        Ok(PlacementOptions {
            refine: value.field("refine")?,
            annealing_moves: value.field("annealing_moves")?,
            seed: value.field("seed")?,
            // Absent in pre-warm-start documents: warm adoption is safe by
            // construction (exact-input gate), so it defaults on.
            warm_start: match value.get("warm_start") {
                Some(raw) => Deserialize::from_json(raw)?,
                None => true,
            },
        })
    }
}

/// A placement of devices onto grid nodes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// Node occupied by each device, indexed by [`DeviceId::index`].
    node_of_device: Vec<NodeId>,
}

impl Placement {
    /// Creates a placement from explicit device → node assignments (device
    /// `i` occupies `nodes[i]`). Useful for tests and for replaying a
    /// placement produced elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if two devices share a node.
    #[must_use]
    pub fn from_nodes(nodes: Vec<NodeId>) -> Self {
        let mut seen = std::collections::HashSet::new();
        for node in &nodes {
            assert!(seen.insert(*node), "two devices share node {node}");
        }
        Placement {
            node_of_device: nodes,
        }
    }

    /// The node a device occupies.
    ///
    /// # Panics
    ///
    /// Panics if the device was not placed.
    #[must_use]
    pub fn node_of(&self, device: DeviceId) -> NodeId {
        self.node_of_device[device.index()]
    }

    /// The device occupying a node, if any.
    #[must_use]
    pub fn device_at(&self, node: NodeId) -> Option<DeviceId> {
        self.node_of_device
            .iter()
            .position(|&n| n == node)
            .map(DeviceId)
    }

    /// Nodes occupied by devices, in device order.
    #[must_use]
    pub fn device_nodes(&self) -> &[NodeId] {
        &self.node_of_device
    }

    /// Number of placed devices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.node_of_device.len()
    }

    /// Whether no device is placed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.node_of_device.is_empty()
    }

    /// Total traffic-weighted Manhattan distance of this placement.
    #[must_use]
    pub fn weighted_cost(&self, grid: &ConnectionGrid, traffic: &TrafficMatrix) -> usize {
        let mut cost = 0;
        for a in 0..self.len() {
            for b in (a + 1)..self.len() {
                let weight = traffic.weight(DeviceId(a), DeviceId(b));
                if weight > 0 {
                    cost += weight * grid.distance(self.node_of_device[a], self.node_of_device[b]);
                }
            }
        }
        cost
    }
}

/// Symmetric device-to-device traffic counts derived from transport tasks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TrafficMatrix {
    counts: Vec<Vec<usize>>,
}

impl TrafficMatrix {
    /// Builds the traffic matrix for `num_devices` devices from transport
    /// tasks.
    #[must_use]
    pub fn from_tasks(num_devices: usize, tasks: &[TransportTask]) -> Self {
        let mut counts = vec![vec![0usize; num_devices]; num_devices];
        for task in tasks {
            let a = task.from_device.index();
            let b = task.to_device.index();
            if a != b && a < num_devices && b < num_devices {
                counts[a][b] += 1;
                counts[b][a] += 1;
            }
        }
        TrafficMatrix { counts }
    }

    /// Number of transports between two devices.
    #[must_use]
    pub fn weight(&self, a: DeviceId, b: DeviceId) -> usize {
        self.counts
            .get(a.index())
            .and_then(|row| row.get(b.index()))
            .copied()
            .unwrap_or(0)
    }

    /// Total traffic of one device.
    #[must_use]
    pub fn total(&self, a: DeviceId) -> usize {
        self.counts
            .get(a.index())
            .map(|row| row.iter().sum())
            .unwrap_or(0)
    }

    /// Number of devices covered by this matrix.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the matrix covers no devices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

/// Places `num_devices` devices on the grid, minimizing traffic-weighted
/// distance.
///
/// Devices are spread out (never adjacent to each other when the grid allows
/// it) so that every device keeps free channel segments around it for
/// transportation and caching.
///
/// # Errors
///
/// Returns [`ArchError::GridTooSmall`] if the grid has fewer nodes than
/// devices.
pub fn place_devices(
    grid: &ConnectionGrid,
    num_devices: usize,
    tasks: &[TransportTask],
    options: &PlacementOptions,
) -> Result<Placement, ArchError> {
    if num_devices > grid.num_nodes() {
        return Err(ArchError::GridTooSmall {
            devices: num_devices,
            nodes: grid.num_nodes(),
        });
    }
    let traffic = TrafficMatrix::from_tasks(num_devices, tasks);

    // Candidate positions: prefer nodes on a regular sub-lattice so devices
    // are separated by switch nodes (this keeps segments free for caching),
    // then fall back to all nodes. Small grids use the paper's every-other-
    // node spacing; storage-sized grids (side ≥ 12 with room to spare)
    // spread devices four apart so the corridors between them are several
    // channels wide — transit, caching and zero-slack port traffic then
    // stop competing for the same single-segment alleys.
    let side = grid.rows().max(grid.cols());
    let wide_lattice_fits = (side / 4 + 1).pow(2) >= num_devices;
    let spacing = if side >= 12 && wide_lattice_fits {
        4
    } else {
        2
    };
    let mut preferred: Vec<NodeId> = grid
        .nodes()
        .filter(|&n| {
            let c = grid.coord(n);
            c.row.is_multiple_of(spacing) && c.col.is_multiple_of(spacing)
        })
        .collect();
    if preferred.len() < num_devices {
        preferred = grid
            .nodes()
            .filter(|&n| {
                let c = grid.coord(n);
                c.row.is_multiple_of(2) && c.col.is_multiple_of(2)
            })
            .collect();
    }
    if preferred.len() < num_devices {
        preferred = grid.nodes().collect();
    }

    // Greedy: place devices in order of decreasing traffic; each at the free
    // preferred node minimizing weighted distance to already placed devices,
    // starting near the grid centre.
    let mut order: Vec<DeviceId> = (0..num_devices).map(DeviceId).collect();
    order.sort_by_key(|&d| std::cmp::Reverse(traffic.total(d)));

    let centre = GridCoord {
        row: grid.rows() / 2,
        col: grid.cols() / 2,
    };
    let mut node_of_device = vec![NodeId(usize::MAX); num_devices];
    let mut occupied: Vec<NodeId> = Vec::new();
    for &device in &order {
        let best = preferred
            .iter()
            .copied()
            .filter(|n| !occupied.contains(n))
            .min_by_key(|&candidate| {
                let mut cost = 0usize;
                for &placed in &order {
                    let node = node_of_device[placed.index()];
                    if node != NodeId(usize::MAX) {
                        cost +=
                            traffic.weight(device, placed) * grid.distance(candidate, node) * 10;
                    }
                }
                // Tie-break: stay near the centre.
                (cost, grid.coord(candidate).manhattan(centre), candidate)
            })
            .expect("grid has enough nodes");
        node_of_device[device.index()] = best;
        occupied.push(best);
    }
    let placement = Placement { node_of_device };

    if !(options.refine && num_devices > 1) {
        return Ok(placement);
    }
    let mut refined = placement;
    refine(grid, &traffic, &mut refined, &preferred, options);
    Ok(refined)
}

/// Cost delta of moving one device to `to`, with `ignore` (the swap partner,
/// if any) excluded because its own terms are accounted for by the caller.
fn move_delta(
    grid: &ConnectionGrid,
    traffic: &TrafficMatrix,
    nodes: &[NodeId],
    device: usize,
    to: NodeId,
    ignore: Option<usize>,
) -> i64 {
    let from = nodes[device];
    let mut delta = 0i64;
    for (other, &other_node) in nodes.iter().enumerate() {
        if other == device || Some(other) == ignore {
            continue;
        }
        let weight = traffic.weight(DeviceId(device), DeviceId(other)) as i64;
        if weight > 0 {
            delta += weight
                * (grid.distance(to, other_node) as i64 - grid.distance(from, other_node) as i64);
        }
    }
    delta
}

/// Simulated-annealing refinement: swap two devices or move one device to a
/// free preferred node, accepting uphill moves with a temperature-dependent
/// probability.
///
/// Each candidate move is priced by its **delta cost** — only the traffic
/// rows of the touched devices are visited — and applied in place; the full
/// quadratic cost is never recomputed inside the loop.
fn refine(
    grid: &ConnectionGrid,
    traffic: &TrafficMatrix,
    placement: &mut Placement,
    candidates: &[NodeId],
    options: &PlacementOptions,
) {
    let mut rng = StdRng::seed_from_u64(options.seed);
    let initial_cost = placement.weighted_cost(grid, traffic) as i64;
    let mut current_cost = initial_cost;
    let mut best = placement.node_of_device.clone();
    let mut best_cost = current_cost;
    let mut occupied: std::collections::HashSet<NodeId> =
        placement.node_of_device.iter().copied().collect();
    let moves = options.annealing_moves.max(1);
    for step in 0..moves {
        let temperature = 1.0 - (step as f64 / moves as f64);
        let nodes = &mut placement.node_of_device;
        let (delta, action) = if rng.gen_bool(0.5) && nodes.len() >= 2 {
            // Swap two devices.
            let a = rng.gen_range(0..nodes.len());
            let mut b = rng.gen_range(0..nodes.len());
            while b == a {
                b = rng.gen_range(0..nodes.len());
            }
            let delta = move_delta(grid, traffic, nodes, a, nodes[b], Some(b))
                + move_delta(grid, traffic, nodes, b, nodes[a], Some(a));
            (delta, Action::Swap(a, b))
        } else {
            // Move one device to a free candidate node. The free list is
            // materialized exactly as before the delta-cost rewrite so the
            // seeded RNG stream — and therefore every placement — stays
            // bit-identical to the original annealer's.
            let d = rng.gen_range(0..nodes.len());
            let free: Vec<NodeId> = candidates
                .iter()
                .copied()
                .filter(|n| !occupied.contains(n))
                .collect();
            if free.is_empty() {
                continue;
            }
            let to = free[rng.gen_range(0..free.len())];
            let delta = move_delta(grid, traffic, nodes, d, to, None);
            (delta, Action::Move(d, to))
        };
        let accept = delta <= 0 || rng.gen_bool((0.05 + 0.4 * temperature).clamp(0.0, 1.0));
        if accept {
            match action {
                Action::Swap(a, b) => nodes.swap(a, b),
                Action::Move(d, to) => {
                    occupied.remove(&nodes[d]);
                    occupied.insert(to);
                    nodes[d] = to;
                }
            }
            current_cost += delta;
            if current_cost < best_cost {
                best.copy_from_slice(nodes);
                best_cost = current_cost;
            }
        }
    }
    placement.node_of_device = best;
    debug_assert_eq!(
        placement.weighted_cost(grid, traffic) as i64,
        best_cost,
        "delta-cost bookkeeping diverged from the full recompute"
    );
}

/// A candidate annealing move, applied only after acceptance.
enum Action {
    Swap(usize, usize),
    Move(usize, NodeId),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TransportKind;
    use biochip_assay::OpId;

    fn task(from: usize, to: usize) -> TransportTask {
        TransportTask {
            sample: 0,
            producer: OpId(0),
            consumer: OpId(1),
            from_device: DeviceId(from),
            to_device: DeviceId(to),
            kind: TransportKind::Direct,
            window_start: 0,
            window_end: 5,
            storage_interval: None,
            earliest_start: 0,
            deadline: 5,
        }
    }

    #[test]
    fn placement_fits_devices_on_distinct_nodes() {
        let grid = ConnectionGrid::square(4);
        let tasks = vec![task(0, 1), task(1, 2), task(0, 2)];
        let p = place_devices(&grid, 3, &tasks, &PlacementOptions::default()).unwrap();
        assert_eq!(p.len(), 3);
        let mut nodes: Vec<NodeId> = p.device_nodes().to_vec();
        nodes.sort();
        nodes.dedup();
        assert_eq!(nodes.len(), 3, "devices must occupy distinct nodes");
    }

    #[test]
    fn heavily_communicating_devices_are_close() {
        let grid = ConnectionGrid::square(5);
        // Devices 0 and 1 exchange a lot of traffic, 2 and 3 are quiet.
        let mut tasks = Vec::new();
        for _ in 0..10 {
            tasks.push(task(0, 1));
        }
        tasks.push(task(2, 3));
        let p = place_devices(&grid, 4, &tasks, &PlacementOptions::default()).unwrap();
        let busy = grid.distance(p.node_of(DeviceId(0)), p.node_of(DeviceId(1)));
        assert!(
            busy <= 2,
            "busy pair should be adjacent-ish, got distance {busy}"
        );
    }

    #[test]
    fn grid_too_small_is_reported() {
        let grid = ConnectionGrid::new(1, 2);
        let err = place_devices(&grid, 5, &[], &PlacementOptions::default()).unwrap_err();
        assert!(matches!(err, ArchError::GridTooSmall { .. }));
    }

    #[test]
    fn placement_is_deterministic() {
        let grid = ConnectionGrid::square(4);
        let tasks = vec![task(0, 1), task(1, 2), task(2, 0)];
        let a = place_devices(&grid, 3, &tasks, &PlacementOptions::default()).unwrap();
        let b = place_devices(&grid, 3, &tasks, &PlacementOptions::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn refinement_never_worsens_the_greedy_cost() {
        let grid = ConnectionGrid::square(5);
        let tasks: Vec<TransportTask> = vec![
            task(0, 1),
            task(1, 2),
            task(2, 3),
            task(3, 4),
            task(4, 0),
            task(0, 2),
        ];
        let traffic = TrafficMatrix::from_tasks(5, &tasks);
        let greedy = place_devices(
            &grid,
            5,
            &tasks,
            &PlacementOptions {
                refine: false,
                ..PlacementOptions::default()
            },
        )
        .unwrap();
        let refined = place_devices(&grid, 5, &tasks, &PlacementOptions::default()).unwrap();
        assert!(refined.weighted_cost(&grid, &traffic) <= greedy.weighted_cost(&grid, &traffic));
    }

    #[test]
    fn traffic_matrix_is_symmetric() {
        let tasks = vec![task(0, 1), task(0, 1), task(1, 2)];
        let m = TrafficMatrix::from_tasks(3, &tasks);
        assert_eq!(m.weight(DeviceId(0), DeviceId(1)), 2);
        assert_eq!(m.weight(DeviceId(1), DeviceId(0)), 2);
        assert_eq!(m.total(DeviceId(1)), 3);
        assert_eq!(m.weight(DeviceId(0), DeviceId(2)), 0);
    }

    #[test]
    fn device_at_reverse_lookup() {
        let grid = ConnectionGrid::square(3);
        let p = place_devices(&grid, 2, &[task(0, 1)], &PlacementOptions::default()).unwrap();
        let node = p.node_of(DeviceId(1));
        assert_eq!(p.device_at(node), Some(DeviceId(1)));
        let free = grid.nodes().find(|n| p.device_at(*n).is_none()).unwrap();
        assert_eq!(p.device_at(free), None);
    }

    #[test]
    fn move_delta_matches_full_recompute() {
        let grid = ConnectionGrid::square(5);
        let tasks = vec![task(0, 1), task(0, 1), task(1, 2), task(2, 3), task(0, 3)];
        let traffic = TrafficMatrix::from_tasks(4, &tasks);
        let placement = Placement::from_nodes(vec![NodeId(0), NodeId(6), NodeId(12), NodeId(24)]);
        let base = placement.weighted_cost(&grid, &traffic) as i64;
        // Move device 2 to a free node.
        let mut moved = placement.clone();
        let delta = move_delta(
            &grid,
            &traffic,
            &placement.node_of_device,
            2,
            NodeId(20),
            None,
        );
        moved.node_of_device[2] = NodeId(20);
        assert_eq!(moved.weighted_cost(&grid, &traffic) as i64, base + delta);
        // Swap devices 0 and 3.
        let nodes = &placement.node_of_device;
        let delta = move_delta(&grid, &traffic, nodes, 0, nodes[3], Some(3))
            + move_delta(&grid, &traffic, nodes, 3, nodes[0], Some(0));
        let mut swapped = placement.clone();
        swapped.node_of_device.swap(0, 3);
        assert_eq!(swapped.weighted_cost(&grid, &traffic) as i64, base + delta);
    }

    #[test]
    fn single_start_matches_the_historical_annealer_stream() {
        // The annealer runs the seed's one stream: pinned to the placement
        // the multi-start-era placer produced at `starts: 1`.
        let grid = ConnectionGrid::square(7);
        let pairs = [
            (0, 5),
            (1, 6),
            (2, 7),
            (3, 0),
            (4, 1),
            (5, 2),
            (6, 3),
            (7, 4),
            (0, 2),
        ];
        let tasks: Vec<TransportTask> = pairs.map(|(from, to)| task(from, to)).to_vec();
        let placement = place_devices(&grid, 8, &tasks, &PlacementOptions::default()).unwrap();
        let expected = [32, 6, 30, 34, 18, 46, 20, 16].map(NodeId);
        assert_eq!(placement.device_nodes(), &expected);
    }

    #[test]
    fn single_device_placement_works_without_tasks() {
        let grid = ConnectionGrid::square(2);
        let p = place_devices(&grid, 1, &[], &PlacementOptions::default()).unwrap();
        assert_eq!(p.len(), 1);
    }
}
