//! Snapshots of the chip state at a given instant (Fig. 11 of the paper).

use std::collections::HashSet;

use biochip_json::{Deserialize, Serialize};

use biochip_arch::{Architecture, GridEdgeId, TransportKind};
use biochip_assay::Seconds;

/// The state of the synthesized chip at one instant.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Snapshot {
    /// The instant captured.
    pub time: Seconds,
    /// Channel segments currently traversed by a moving fluid sample.
    pub transporting_edges: Vec<GridEdgeId>,
    /// Channel segments currently caching a resting fluid sample.
    pub storing_edges: Vec<GridEdgeId>,
    /// Samples currently in transit (by sample index).
    pub moving_samples: Vec<usize>,
    /// Samples currently cached in channel segments (by sample index).
    pub stored_samples: Vec<usize>,
}

impl Snapshot {
    /// All segments that carry fluid at this instant (the blue segments of
    /// Fig. 11).
    #[must_use]
    pub fn active_edges(&self) -> HashSet<GridEdgeId> {
        self.transporting_edges
            .iter()
            .chain(self.storing_edges.iter())
            .copied()
            .collect()
    }
}

/// Captures the chip state at time `t` from the routed transportation paths.
#[must_use]
pub fn snapshot_at(architecture: &Architecture, t: Seconds) -> Snapshot {
    let mut transporting_edges = Vec::new();
    let mut storing_edges = Vec::new();
    let mut moving_samples = Vec::new();
    let mut stored_samples = Vec::new();

    for route in architecture.routes() {
        let window = &route.path.window;
        if t >= window.start && t < window.end {
            transporting_edges.extend(route.path.edges.iter().copied());
            moving_samples.push(route.task.sample);
        }
        if route.task.kind == TransportKind::Store {
            if let (Some(edge), Some((from, until))) =
                (route.cache_edge, route.task.storage_interval)
            {
                if t >= from && t < until {
                    storing_edges.push(edge);
                    stored_samples.push(route.task.sample);
                }
            }
        }
    }
    transporting_edges.sort_unstable();
    transporting_edges.dedup();
    storing_edges.sort_unstable();
    storing_edges.dedup();
    moving_samples.sort_unstable();
    moving_samples.dedup();
    stored_samples.sort_unstable();
    stored_samples.dedup();

    Snapshot {
        time: t,
        transporting_edges,
        storing_edges,
        moving_samples,
        stored_samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biochip_assay::library;
    use biochip_schedule::{ListScheduler, ScheduleProblem, Scheduler};

    fn ivd_architecture() -> Architecture {
        let problem = ScheduleProblem::new(library::ivd())
            .with_mixers(2)
            .with_detectors(1)
            .with_transport_time(5);
        let schedule = ListScheduler::default().schedule(&problem).unwrap();
        biochip_arch::ArchitectureSynthesizer::default()
            .synthesize(&problem, &schedule)
            .unwrap()
    }

    #[test]
    fn snapshot_during_a_transport_shows_moving_samples() {
        let arch = ivd_architecture();
        let first = &arch.routes()[0];
        let t = first.path.window.start;
        let snap = snapshot_at(&arch, t);
        assert_eq!(snap.time, t);
        assert!(snap.moving_samples.contains(&first.task.sample));
        assert!(!snap.transporting_edges.is_empty());
        assert!(snap.active_edges().len() >= snap.transporting_edges.len());
    }

    #[test]
    fn snapshot_during_storage_shows_cached_samples() {
        let arch = ivd_architecture();
        let Some(store) = arch.storage_routes().first().copied().cloned() else {
            return; // no storage in this schedule: nothing to check
        };
        let (from, until) = store.task.storage_interval.unwrap();
        if until > from {
            let snap = snapshot_at(&arch, (from + until) / 2);
            assert!(snap.stored_samples.contains(&store.task.sample));
            assert!(snap.storing_edges.contains(&store.cache_edge.unwrap()));
        }
    }

    #[test]
    fn transport_windows_are_half_open_at_both_ends() {
        let arch = ivd_architecture();
        let first = &arch.routes()[0];
        let window = first.path.window;
        // t == window.start: the transport is active from the first instant.
        let at_start = snapshot_at(&arch, window.start);
        assert!(at_start.moving_samples.contains(&first.task.sample));
        // t == window.end: the transport has already finished — the window
        // is [start, end), matching the storage-interval convention. Only
        // checkable when no *other* window of the same sample covers the
        // instant.
        let covered_elsewhere = arch.routes().iter().any(|r| {
            r.task.sample == first.task.sample
                && r.path.window != window
                && window.end >= r.path.window.start
                && window.end < r.path.window.end
        });
        if !covered_elsewhere {
            let at_end = snapshot_at(&arch, window.end);
            assert!(
                !at_end.moving_samples.contains(&first.task.sample),
                "a window must not be active at its exclusive end"
            );
        }
        // One instant before the end it is still active.
        if window.end > window.start + 1 {
            let before_end = snapshot_at(&arch, window.end - 1);
            assert!(before_end.moving_samples.contains(&first.task.sample));
        }
    }

    #[test]
    fn storage_intervals_are_half_open_at_both_ends() {
        let arch = ivd_architecture();
        let Some(store) = arch.storage_routes().first().copied().cloned() else {
            return; // no storage in this schedule: nothing to check
        };
        let (from, until) = store.task.storage_interval.unwrap();
        if until <= from {
            return;
        }
        let edge = store.cache_edge.unwrap();
        // Inclusive start: the sample is cached from the first instant.
        let at_from = snapshot_at(&arch, from);
        assert!(at_from.stored_samples.contains(&store.task.sample));
        assert!(at_from.storing_edges.contains(&edge));
        // Exclusive end: at `until` the sample has left the segment (unless
        // another storage interval of the same sample covers the instant).
        let covered_elsewhere = arch.storage_routes().iter().any(|r| {
            r.task.sample == store.task.sample
                && r.task.storage_interval != store.task.storage_interval
                && r.task
                    .storage_interval
                    .is_some_and(|(f, u)| until >= f && until < u)
        });
        if !covered_elsewhere {
            let at_until = snapshot_at(&arch, until);
            assert!(!at_until.stored_samples.contains(&store.task.sample));
        }
        // Last covered instant.
        let at_last = snapshot_at(&arch, until - 1);
        assert!(at_last.stored_samples.contains(&store.task.sample));
    }

    #[test]
    fn snapshot_outside_any_activity_is_empty() {
        let arch = ivd_architecture();
        let last = arch
            .routes()
            .iter()
            .map(|r| r.path.window.end)
            .max()
            .unwrap_or(0);
        let snap = snapshot_at(&arch, last + 10_000);
        assert!(snap.moving_samples.is_empty());
        assert!(snap.stored_samples.is_empty());
        assert!(snap.active_edges().is_empty());
    }
}
