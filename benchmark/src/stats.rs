//! Sample statistics and the metric document the benchmark prints.
//!
//! Timings are reported as a median and a tail. The tail is the highest
//! percentile that still has at least [`MIN_BEYOND`] samples above it, so a
//! short run never claims a p99 it cannot support; the percentile and the
//! sample count travel with the value.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Samples a tail percentile must leave above it.
pub const MIN_BEYOND: usize = 10;
/// Lowest supported percentile [`Tail::or_max`] reports as a tail.
pub const MIN_TAIL_PERCENTILE: f64 = 90.0;

/// Median of `samples` (mean of the two middle values for even counts);
/// `0.0` for an empty sample.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean of `samples`; `0.0` for an empty sample.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// A tail statistic: `value` is the `percentile`-th percentile of
/// `samples` observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, in `(0, 100]`.
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// How many observations the statistic was taken over.
    pub samples: usize,
}

impl Tail {
    /// The highest percentile of `samples` with at least [`MIN_BEYOND`]
    /// observations above it: the value of rank `n - MIN_BEYOND` (1-based)
    /// in sorted order, reported as percentile `100·(n - MIN_BEYOND)/n`.
    /// `None` when the sample is too small to leave that many beyond any
    /// observation.
    #[must_use]
    pub fn supported(samples: &[f64]) -> Option<Tail> {
        let n = samples.len();
        if n <= MIN_BEYOND {
            return None;
        }
        let sorted = sorted(samples);
        let rank = n - MIN_BEYOND;
        Some(Tail {
            percentile: 100.0 * rank as f64 / n as f64,
            value: sorted[rank - 1],
            samples: n,
        })
    }

    /// The tail a run reports: [`Tail::supported`] when that percentile is
    /// at least [`MIN_TAIL_PERCENTILE`] (100 or more samples), else the
    /// maximum (percentile 100) — a small sample has no tail above its
    /// median to offer but its worst case. `None` only for an empty sample.
    #[must_use]
    pub fn or_max(samples: &[f64]) -> Option<Tail> {
        Tail::supported(samples)
            .filter(|t| t.percentile >= MIN_TAIL_PERCENTILE)
            .or_else(|| {
                let max = samples.iter().copied().reduce(f64::max)?;
                Some(Tail {
                    percentile: 100.0,
                    value: max,
                    samples: samples.len(),
                })
            })
    }

    /// `p97.5 of 400`-style label for the human-readable summary.
    #[must_use]
    pub fn label(&self) -> String {
        format!("p{:.1} of {}", self.percentile, self.samples)
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or a digit.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit, e.g. `ms`.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
}

/// The metric declarations of `BENCHMARK.json`.
#[derive(Debug, Clone, Default)]
pub struct Spec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics (printed by untraced runs).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (printed by traced runs).
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Parses the `BENCHMARK.json` document.
    ///
    /// # Errors
    ///
    /// Describes the first missing field or invalid name.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = biochip_json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<Vec<biochip_json::Json>, String> {
            Ok(doc
                .get(key)
                .ok_or_else(|| format!("BENCHMARK.json has no `{key}`"))?
                .expect_array()
                .map_err(|e| format!("BENCHMARK.json `{key}`: {e}"))?
                .to_vec())
        };
        let text_field = |item: &biochip_json::Json, key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(|v| v.expect_str().ok())
                .map(str::to_owned)
                .ok_or_else(|| format!("BENCHMARK.json entry without a string `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|item| {
                    let spec = MetricSpec {
                        name: text_field(item, "name")?,
                        unit: text_field(item, "unit")?,
                        better: text_field(item, "better")?,
                    };
                    if !valid_metric_name(&spec.name) {
                        return Err(format!("invalid metric name `{}`", spec.name));
                    }
                    Ok(spec)
                })
                .collect()
        };
        let workloads = list("workloads")?
            .iter()
            .map(|item| text_field(item, "name"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Spec {
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// What one benchmark run measured: operation counts plus named values.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Operations attempted (runs, edits, requests, jobs).
    pub attempted: u64,
    /// Operations that failed, were refused, or produced incorrect output.
    pub failed: u64,
    /// Descriptions of the first failures, for the error stream.
    pub failures: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
    /// Human-readable notes (tail percentiles, sample counts).
    pub notes: Vec<String>,
}

impl Measured {
    /// Records a measured value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    /// Counts one attempted operation, failed when `error` is given.
    pub fn attempt(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(error) = error {
            self.fail(error);
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(error);
        }
    }

    /// Renders the summary table and the final result line for the metrics
    /// of `specs`, in declaration order. `other` is the other metric list
    /// of `BENCHMARK.json`, whose values this run may also have measured.
    ///
    /// # Errors
    ///
    /// Fails when a metric of `specs` was not measured, a value is not
    /// finite, or the run measured a metric neither list declares — each a
    /// defect of the benchmark itself.
    pub fn render(&self, specs: &[MetricSpec], other: &[MetricSpec]) -> Result<String, String> {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        for name in self.values.keys() {
            if !specs.iter().chain(other).any(|s| &s.name == name) {
                return Err(format!(
                    "measured `{name}`, which BENCHMARK.json does not declare"
                ));
            }
        }
        let mut metrics = Vec::new();
        for spec in specs {
            let value = *self
                .values
                .get(&spec.name)
                .ok_or_else(|| format!("metric `{}` was not measured", spec.name))?;
            if !value.is_finite() {
                return Err(format!("metric `{}` is not finite: {value}", spec.name));
            }
            let _ = writeln!(
                out,
                "# {:<28} {:>16} {:<8} ({} is better)",
                spec.name,
                format_number(value),
                spec.unit,
                spec.better
            );
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                spec.name,
                format_number(value),
                spec.unit
            ));
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        Ok(out)
    }
}

/// A finite `f64` as a JSON number, with every digit of Rust's shortest
/// round-trip rendering.
fn format_number(value: f64) -> String {
    format!("{value}")
}
