//! Counters, gauges and fixed-bucket histograms with Prometheus rendering.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Contention stripes per histogram; recording threads hash onto one so
/// hot-path observations rarely touch the same cache lines.
const STRIPES: usize = 8;

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter {
    core: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.core.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.core.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can be set to arbitrary levels.
#[derive(Debug, Clone)]
pub struct Gauge {
    core: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: u64) {
        self.core.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.core.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramStripe {
    /// One slot per finite bound plus a final `+Inf` slot.
    counts: Vec<AtomicU64>,
    sum_nanos: AtomicU64,
}

#[derive(Debug)]
struct HistogramCore {
    /// Finite upper bounds in seconds, strictly ascending. Buckets are
    /// upper-inclusive (`value <= bound`), matching Prometheus `le`.
    bounds: Vec<f64>,
    stripes: Vec<HistogramStripe>,
}

/// A fixed-bucket, lock-free histogram of values in seconds.
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Records one observation (in seconds).
    pub fn observe(&self, seconds: f64) {
        let bucket = self
            .core
            .bounds
            .iter()
            .position(|&b| seconds <= b)
            .unwrap_or(self.core.bounds.len());
        let stripe = &self.core.stripes[stripe_index()];
        stripe.counts[bucket].fetch_add(1, Ordering::Relaxed);
        let nanos = if seconds > 0.0 {
            (seconds * 1e9) as u64
        } else {
            0
        };
        stripe.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time copy of the bucket counts.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self.core.bounds.len() + 1;
        let mut counts = vec![0u64; buckets];
        let mut sum_nanos = 0u64;
        for stripe in &self.core.stripes {
            for (total, c) in counts.iter_mut().zip(&stripe.counts) {
                *total += c.load(Ordering::Relaxed);
            }
            sum_nanos += stripe.sum_nanos.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            bounds: self.core.bounds.clone(),
            counts,
            sum_seconds: sum_nanos as f64 / 1e9,
        }
    }
}

thread_local! {
    static STRIPE: usize = {
        use std::sync::atomic::AtomicUsize;
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES
    };
}

fn stripe_index() -> usize {
    STRIPE.with(|s| *s)
}

/// Point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite upper bounds in seconds.
    pub bounds: Vec<f64>,
    /// Per-bucket (not cumulative) counts; the last entry is the `+Inf`
    /// bucket.
    pub counts: Vec<u64>,
    /// Sum of all observations in seconds.
    pub sum_seconds: f64,
}

impl HistogramSnapshot {
    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Estimates the `q`-quantile (`0 < q <= 1`) by linear interpolation
    /// within the bucket containing the target rank — the same scheme as
    /// Prometheus' `histogram_quantile`. Observations in the `+Inf` bucket
    /// clamp to the largest finite bound.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 || self.bounds.is_empty() {
            return 0.0;
        }
        let rank = (q * count as f64).max(1.0);
        let mut cumulative = 0u64;
        for (i, &bucket_count) in self.counts.iter().enumerate() {
            let prev = cumulative;
            cumulative += bucket_count;
            if (cumulative as f64) < rank {
                continue;
            }
            let upper = match self.bounds.get(i) {
                Some(&b) => b,
                // +Inf bucket: clamp to the largest finite bound.
                None => return *self.bounds.last().unwrap(),
            };
            let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
            let frac = (rank - prev as f64) / bucket_count as f64;
            return lower + frac * (upper - lower);
        }
        *self.bounds.last().unwrap()
    }
}

#[derive(Debug, Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Entry {
    name: &'static str,
    help: &'static str,
    labels: Vec<(&'static str, String)>,
    handle: Handle,
}

/// A collection of named metrics, rendered together as Prometheus text.
///
/// Registries are instantiable (not global) so independent servers — e.g.
/// two test servers in one process — keep independent metrics. Looking up
/// an existing (name, labels) pair returns the same underlying metric.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn find(&self, name: &str, labels: &[(&'static str, &str)]) -> Option<Handle> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries
            .iter()
            .find(|e| {
                e.name == name
                    && e.labels.len() == labels.len()
                    && e.labels
                        .iter()
                        .zip(labels)
                        .all(|((k1, v1), (k2, v2))| k1 == k2 && v1 == v2)
            })
            .map(|e| e.handle.clone())
    }

    fn register(&self, entry: Entry) {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.push(entry);
    }

    /// Returns the counter for `(name, labels)`, creating it on first use.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Counter {
        if let Some(Handle::Counter(c)) = self.find(name, labels) {
            return c;
        }
        let counter = Counter {
            core: Arc::new(AtomicU64::new(0)),
        };
        self.register(Entry {
            name,
            help,
            labels: own_labels(labels),
            handle: Handle::Counter(counter.clone()),
        });
        counter
    }

    /// Returns the gauge for `(name, labels)`, creating it on first use.
    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Gauge {
        if let Some(Handle::Gauge(g)) = self.find(name, labels) {
            return g;
        }
        let gauge = Gauge {
            core: Arc::new(AtomicU64::new(0)),
        };
        self.register(Entry {
            name,
            help,
            labels: own_labels(labels),
            handle: Handle::Gauge(gauge.clone()),
        });
        gauge
    }

    /// Returns the histogram for `(name, labels)`, creating it on first use
    /// with the given finite bucket bounds (seconds, ascending).
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        if let Some(Handle::Histogram(h)) = self.find(name, labels) {
            return h;
        }
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        let histogram = Histogram {
            core: Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                stripes: (0..STRIPES)
                    .map(|_| HistogramStripe {
                        counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                        sum_nanos: AtomicU64::new(0),
                    })
                    .collect(),
            }),
        };
        self.register(Entry {
            name,
            help,
            labels: own_labels(labels),
            handle: Handle::Histogram(histogram.clone()),
        });
        histogram
    }

    /// Renders every registered metric in the Prometheus text exposition
    /// format (version 0.0.4). Series with the same name are grouped under
    /// one `# HELP`/`# TYPE` header, in registration order.
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut names: Vec<&'static str> = Vec::new();
        for e in entries.iter() {
            if !names.contains(&e.name) {
                names.push(e.name);
            }
        }
        let mut out = String::new();
        for name in names {
            let group: Vec<&Entry> = entries.iter().filter(|e| e.name == name).collect();
            let first = group[0];
            let kind = match first.handle {
                Handle::Counter(_) => "counter",
                Handle::Gauge(_) => "gauge",
                Handle::Histogram(_) => "histogram",
            };
            let mut family = FamilyWriter::new(&mut out, name, kind, first.help);
            for e in &group {
                let labels: Vec<(&str, &str)> =
                    e.labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
                match &e.handle {
                    Handle::Counter(c) => family.sample("", &labels, c.get() as f64),
                    Handle::Gauge(g) => family.sample("", &labels, g.get() as f64),
                    Handle::Histogram(h) => {
                        let snap = h.snapshot();
                        let mut cumulative = 0u64;
                        for (i, &c) in snap.counts.iter().enumerate() {
                            cumulative += c;
                            let le = match snap.bounds.get(i) {
                                Some(b) => format_value(*b),
                                None => "+Inf".to_owned(),
                            };
                            let bucket: Vec<(&str, &str)> = labels
                                .iter()
                                .copied()
                                .chain([("le", le.as_str())])
                                .collect();
                            family.sample("_bucket", &bucket, cumulative as f64);
                        }
                        family.sample("_sum", &labels, snap.sum_seconds);
                        family.sample("_count", &labels, cumulative as f64);
                    }
                }
            }
        }
        out
    }
}

fn own_labels(labels: &[(&'static str, &str)]) -> Vec<(&'static str, String)> {
    labels.iter().map(|(k, v)| (*k, (*v).to_owned())).collect()
}

/// Writes one metric family in the Prometheus text exposition format
/// (version 0.0.4): the `# HELP`/`# TYPE` header on creation, then one line
/// per [`FamilyWriter::sample`]. [`Registry::prometheus_text`] renders
/// through it, and so can any caller exposing values it keeps elsewhere.
#[derive(Debug)]
pub struct FamilyWriter<'a> {
    out: &'a mut String,
    name: &'a str,
}

impl<'a> FamilyWriter<'a> {
    /// Appends the header of family `name` of type `kind` (`counter`,
    /// `gauge` or `histogram`) to `out`.
    pub fn new(out: &'a mut String, name: &'a str, kind: &str, help: &str) -> Self {
        let help = help.replace('\\', "\\\\").replace('\n', "\\n");
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        FamilyWriter { out, name }
    }

    /// Appends one sample: the family name plus `suffix` (`""`, or
    /// `_bucket`/`_sum`/`_count` under a histogram), the label set with
    /// escaped values, and `value`.
    pub fn sample(&mut self, suffix: &str, labels: &[(&str, &str)], value: f64) {
        let out = &mut *self.out;
        out.push_str(self.name);
        out.push_str(suffix);
        for (i, (k, v)) in labels.iter().enumerate() {
            out.push(if i == 0 { '{' } else { ',' });
            out.push_str(&format!("{k}=\"{}\"", escape_label(v)));
        }
        if !labels.is_empty() {
            out.push('}');
        }
        out.push_str(&format!(" {}\n", format_value(value)));
    }
}

/// The exposition value format: `Display` prints the shortest decimal that
/// round-trips; non-finite values use Prometheus' spellings.
fn format_value(v: f64) -> String {
    match v {
        f64::INFINITY => "+Inf".to_owned(),
        f64::NEG_INFINITY => "-Inf".to_owned(),
        v if v.is_nan() => "NaN".to_owned(),
        v => format!("{v}"),
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("reqs_total", "requests", &[("endpoint", "jobs")]);
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        // Same (name, labels) → same underlying counter.
        let again = reg.counter("reqs_total", "requests", &[("endpoint", "jobs")]);
        again.inc();
        assert_eq!(c.get(), 4);
        let other = reg.counter("reqs_total", "requests", &[("endpoint", "stats")]);
        assert_eq!(other.get(), 0);

        let g = reg.gauge("depth", "queue depth", &[]);
        g.set(17);
        assert_eq!(g.get(), 17);

        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE reqs_total counter"));
        assert!(text.contains("reqs_total{endpoint=\"jobs\"} 4"));
        assert!(text.contains("reqs_total{endpoint=\"stats\"} 0"));
        assert!(text.contains("depth 17"));
        // One header per metric name, not per series.
        assert_eq!(text.matches("# TYPE reqs_total").count(), 1);
    }

    #[test]
    fn family_writer_escapes_labels_and_spells_non_finite_values() {
        let mut out = String::new();
        let mut family = FamilyWriter::new(&mut out, "x", "gauge", "a \\ b\nc");
        family.sample("", &[], 1.5);
        family.sample("", &[("k", "q\"\\\n"), ("j", "v")], f64::NAN);
        family.sample("_sum", &[], f64::INFINITY);
        family.sample("_sum", &[], f64::NEG_INFINITY);
        assert_eq!(
            out,
            "# HELP x a \\\\ b\\nc\n# TYPE x gauge\nx 1.5\n\
             x{k=\"q\\\"\\\\\\n\",j=\"v\"} NaN\nx_sum +Inf\nx_sum -Inf\n"
        );
    }

    #[test]
    fn histogram_bucket_edges_are_upper_inclusive() {
        let reg = Registry::new();
        let h = reg.histogram("lat", "latency", &[], &[1.0, 2.0]);
        h.observe(1.0); // exactly on the edge → first bucket
        h.observe(1.5);
        h.observe(2.0); // exactly on the edge → second bucket
        h.observe(2.5); // overflow → +Inf
        h.observe(0.0);
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![2, 2, 1]);
        assert_eq!(snap.count(), 5);
        assert!((snap.sum_seconds - 7.0).abs() < 1e-9);

        let text = reg.prometheus_text();
        assert!(text.contains("lat_bucket{le=\"1\"} 2"));
        assert!(text.contains("lat_bucket{le=\"2\"} 4"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("lat_sum 7"));
        assert!(text.contains("lat_count 5"));
    }

    #[test]
    fn percentiles_interpolate_within_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("lat", "latency", &[], &[0.1, 0.2, 0.4]);
        for _ in 0..50 {
            h.observe(0.05);
        }
        for _ in 0..50 {
            h.observe(0.15);
        }
        let snap = h.snapshot();
        // rank(p50) = 50 lands exactly at the top of the first bucket.
        assert!((snap.quantile(0.50) - 0.1).abs() < 1e-9);
        // rank(p90) = 90: 40 of the second bucket's 50 → 0.1 + 0.8 * 0.1.
        assert!((snap.quantile(0.90) - 0.18).abs() < 1e-9);
        // rank(p99) = 99: 49 of 50 into the second bucket.
        assert!((snap.quantile(0.99) - 0.198).abs() < 1e-9);
    }

    #[test]
    fn percentiles_handle_empty_and_overflow() {
        let reg = Registry::new();
        let h = reg.histogram("lat", "latency", &[], &[0.1, 0.2]);
        assert_eq!(h.snapshot().quantile(0.99), 0.0);
        h.observe(5.0); // +Inf bucket clamps to the largest finite bound
        assert!((h.snapshot().quantile(0.99) - 0.2).abs() < 1e-9);
    }
}
