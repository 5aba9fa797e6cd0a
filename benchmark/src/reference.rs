//! Host-speed reference: wall times reported at a fixed reference speed.
//!
//! The benchmark runs on shared virtual machines whose cores change speed
//! by up to 2x over seconds to minutes, as neighbours contend for the
//! core's caches. A cold RA10K run follows that drift, so the median of
//! one 50 s run moved by about a quarter between runs of the same code
//! (IQR/median of ten single-threaded run medians, 23–28 %).
//!
//! [`HostClock`] times a fixed reference computation before and after
//! measured operations: a shortest-path search over a weighted grid with a
//! binary heap, and a hash-map insert/lookup churn over a few MiB, the two
//! kinds of work the router spends its time on. It is benchmark code that
//! no program change touches, and it slows down in step with the program.
//! On a 2-vCPU VM, 50 s windows of back-to-back RA10K runs (120 runs) had
//! a per-run log-time correlation of 0.74 with the reference and a slope
//! of 0.91; the IQR/median of the window medians was 18 % raw and 3 %
//! scaled. Ten 50 s benchmark runs on ten seeds gave, raw vs scaled, 19.5 %
//! vs 10.5 % for the cold-ra10k p50 and 14.8 % vs 5.1 % for the edit-ra1k
//! p50. A reference with a larger working set (a 800×800 grid and a
//! million-key map) tracked the program less well (slope 0.81, windows
//! 7.5 %). An operation's time at reference speed is its wall time times
//! [`REFERENCE_S`] over the mean of the reference readings on either side
//! of it. A faster program still reads faster: the reference does the same
//! work whatever the program does.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// The reference computation's wall seconds at reference speed. A round
/// number near its time on a contended 2-vCPU VM, so that scaled times
/// read close to raw ones there.
pub const REFERENCE_S: f64 = 0.035;
/// Side of the reference grid.
const GRID_SIDE: usize = 400;
/// Keys inserted into (and probed in) the reference hash map.
const CHURN_KEYS: u64 = 200_000;

/// A fixed linear congruential stream: the reference does the same work
/// on every call, in every process.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }
}

/// Shortest distance from one corner of a `side`×`side` grid to the other,
/// stepping to a cell costing one plus its weight.
fn grid_search(weights: &[u8], side: usize) -> u64 {
    let mut dist = vec![u64::MAX; side * side];
    let mut heap = BinaryHeap::new();
    dist[0] = 0;
    heap.push(Reverse((0u64, 0usize)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        let (row, col) = (u / side, u % side);
        let neighbours = [
            (row > 0).then(|| u - side),
            (row + 1 < side).then(|| u + side),
            (col > 0).then(|| u - 1),
            (col + 1 < side).then(|| u + 1),
        ];
        for v in neighbours.into_iter().flatten() {
            let next = d + u64::from(weights[v]) + 1;
            if next < dist[v] {
                dist[v] = next;
                heap.push(Reverse((next, v)));
            }
        }
    }
    dist[side * side - 1]
}

/// Inserts [`CHURN_KEYS`] pseudo-random keys, then probes as many more;
/// returns the map size plus the hits.
fn churn(rng: &mut Lcg) -> usize {
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..CHURN_KEYS {
        map.insert(rng.next(), i);
    }
    let hits = (0..CHURN_KEYS)
        .filter(|_| map.contains_key(&rng.next()))
        .count();
    map.len() + hits
}

/// Runs the reference computation `repeats` times and returns the mean
/// wall seconds of one.
#[must_use]
pub fn reference_seconds(repeats: usize) -> f64 {
    let repeats = repeats.max(1);
    let start = Instant::now();
    for _ in 0..repeats {
        let mut rng = Lcg(7);
        let weights: Vec<u8> = (0..GRID_SIDE * GRID_SIDE)
            .map(|_| (rng.next() % 16) as u8)
            .collect();
        std::hint::black_box(grid_search(&weights, GRID_SIDE));
        std::hint::black_box(churn(&mut rng));
    }
    start.elapsed().as_secs_f64() / repeats as f64
}

/// The reference timed between measured operations.
#[derive(Debug, Clone)]
pub struct HostClock {
    repeats: usize,
    last: f64,
    scales: Vec<f64>,
}

impl HostClock {
    /// Times the reference (`repeats` computations per reading) once,
    /// before the first measured operation.
    #[must_use]
    pub fn new(repeats: usize) -> HostClock {
        HostClock {
            repeats,
            last: reference_seconds(repeats),
            scales: Vec::new(),
        }
    }

    /// Times the reference as the start of the next measured stretch, in
    /// place of the previous reading: for operations separated by work
    /// that is not measured.
    pub fn restart(&mut self) {
        self.last = reference_seconds(self.repeats);
    }

    /// Times the reference again and returns the factor that converts the
    /// wall times measured since the previous reading to reference speed: [`REFERENCE_S`] over the mean of the two
    /// reference readings around them.
    pub fn mark(&mut self) -> f64 {
        let now = reference_seconds(self.repeats);
        let scale = REFERENCE_S / ((self.last + now) / 2.0);
        self.last = now;
        self.scales.push(scale);
        scale
    }

    /// Every factor [`HostClock::mark`] returned, in order.
    #[must_use]
    pub fn scales(&self) -> &[f64] {
        &self.scales
    }
}
