//! The traced run: the staged synthesis flow called stage by stage.
//!
//! [`run_staged_traced`] performs exactly the calls
//! `SynthesisFlow::run_problem_staged` makes — stage keys, store probes,
//! scheduling, architectural synthesis (with the store's warm hint), layout,
//! replay, the dedicated-storage baseline and report assembly — through
//! their public functions, and records a span around each call. Spans are
//! kept in memory ([`Recorder`]) and written as a Chrome trace at exit.
//! The spans the program already emits inside architectural synthesis
//! (`place`, `route` and the router's per-task sub-stages) are captured with
//! `telemetry::with_collection` and folded in by name.
//!
//! A layer's figure is its **self time**: the call's duration minus the
//! part covered by child spans. Two calls happen inside
//! `synthesize_with_reuse` without a span of their own — transport-task
//! extraction and `Architecture::verify`. The benchmark times the same two
//! public calls on the same inputs right after the run and attributes that
//! time to them, out of `arch.synth`'s self time.
//!
//! The traced run's `output_key` must equal the untraced flow's; if it does
//! not, this decomposition has drifted from the program.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use biochip_synth::arch::{extract_transport_tasks, ArchitectureSynthesizer, WarmStart};
use biochip_synth::layout::generate_layout;
use biochip_synth::schedule::ScheduleProblem;
use biochip_synth::sim::{replay, simulate_dedicated_storage};
use biochip_synth::{
    FlowError, StageKeys, StageStore, SynthesisConfig, SynthesisFlow, SynthesisOutcome,
    SynthesisReport,
};
use biochip_telemetry as telemetry;

use crate::stats::Measured;
use crate::timed_store::TimedStore;

/// One recorded span: a call into a layer, within one workload iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `schedule` or `arch.synth`.
    pub name: &'static str,
    /// Category: `bench` for the benchmark's own spans, else the program's.
    pub cat: &'static str,
    /// The workload iteration the span belongs to (its parent).
    pub iteration: u64,
    /// Start, in microseconds since the recorder was created.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// In-memory span store of one traced run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    iteration: u64,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            iteration: 0,
            spans: Vec::new(),
        }
    }

    fn micros(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a span from `start` to now and returns its length.
    fn close(&mut self, name: &'static str, start: Instant) -> Duration {
        let end = Instant::now();
        self.spans.push(Span {
            name,
            cat: "bench",
            iteration: self.iteration,
            start_us: self.micros(start),
            dur_us: end.duration_since(start).as_secs_f64() * 1e6,
        });
        end.duration_since(start)
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.close(name, start);
        value
    }

    /// All spans recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a Chrome `trace_event` document (open in Perfetto).
    /// Each workload iteration is its own track.
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"iteration\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                span.name,
                span.cat,
                span.start_us,
                span.dur_us,
                span.iteration,
                span.iteration
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// How the staged run satisfied each stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reuse {
    /// The schedule came from the store by exact key.
    pub schedule_hit: bool,
    /// The architecture came from the store by exact key.
    pub arch_hit: bool,
    /// Synthesis ran and reused the warm hint (placement or routed prefix).
    pub arch_warm: bool,
    /// Transports committed by replay instead of search.
    pub tasks_replayed: usize,
    /// Transports of the synthesis (0 on an architecture hit).
    pub tasks_total: usize,
}

/// Per-layer figures of one traced iteration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Iteration {
    /// Self seconds per layer (`schedule.busy_s`, `arch.route_s`, ...) and
    /// the router's work counters of all grid attempts (`arch.*` counts).
    pub values: BTreeMap<&'static str, f64>,
    /// Wall seconds of the staged run itself (`synth.run`).
    pub run_s: f64,
    /// How the stages were satisfied.
    pub reuse: Reuse,
}

/// Layers whose self time lies inside the staged run (the store's from the
/// [`TimedStore`] counters). The remaining per-iteration figures
/// (`synth.output_key`, probes) are timed after it.
const IN_RUN: &[&str] = &[
    "schedule.busy_s",
    "synth.keys_s",
    "synth.store_get_s",
    "synth.store_put_s",
    "arch.synth_s",
    "arch.extract_s",
    "arch.verify_s",
    "arch.oracle_build_s",
    "arch.place_s",
    "arch.route_s",
    "arch.window_select_s",
    "arch.path_search_s",
    "arch.commit_s",
    "layout.busy_s",
    "sim.replay_s",
    "sim.dedicated_s",
    "synth.report_s",
];

/// Router counters folded from the `router.stats` events (one per routing
/// pass, so the sum covers every grid attempt).
const ROUTER_COUNTERS: &[(&str, &str)] = &[
    ("tasks_routed", "arch.tasks_routed"),
    ("windows_tried", "arch.windows_tried"),
    ("path_searches", "arch.path_searches"),
    ("nodes_expanded", "arch.nodes_expanded"),
    ("segments_priced", "arch.segments_priced"),
    ("postponed_tasks", "arch.postponed"),
    ("oracle_rejected_searches", "arch.oracle_rejected"),
];

/// Runs one staged synthesis through its public stage functions, recording
/// a span around every call, and returns the outcome with the iteration's
/// per-layer figures.
///
/// # Errors
///
/// Propagates scheduling and synthesis failures exactly like the flow.
pub fn run_staged_traced<S: StageStore>(
    config: &SynthesisConfig,
    problem: ScheduleProblem,
    store: &TimedStore<S>,
    rec: &mut Recorder,
) -> Result<(SynthesisOutcome, Iteration), FlowError> {
    rec.iteration += 1;
    store.take();
    let flow = SynthesisFlow::new(config.clone());
    let (result, events) = telemetry::with_collection(|| {
        // Pin the program's span clock to the recorder's.
        let anchor = Instant::now();
        telemetry::instant("bench", "anchor", &[]);
        (anchor, staged_body(&flow, config, problem, store, rec))
    });
    let (anchor, result) = result;
    let (outcome, reuse, run) = result?;
    let counters = store.take();
    let mut it = Iteration {
        reuse,
        run_s: run.as_secs_f64(),
        ..Iteration::default()
    };

    // The per-task router spans stay out of the Chrome trace (hundreds of
    // thousands per RA10K run); everything else the program emitted joins
    // the benchmark's spans on the recorder's clock.
    let anchor_us = rec.micros(anchor);
    let program_anchor = events
        .iter()
        .find(|e| e.cat == "bench" && e.name == "anchor")
        .map_or(0.0, |e| e.ts_micros as f64);
    let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
    let mut attempts: Vec<(&str, f64)> = Vec::new();
    for event in &events {
        match event.kind {
            telemetry::SpanKind::Complete { dur_micros } => {
                let seconds = dur_micros as f64 / 1e6;
                *sums.entry(event.name).or_default() += seconds;
                if matches!(event.name, "place" | "route") {
                    attempts.push((event.name, seconds));
                }
                if event.cat != "router" || event.name == "route.oracle_build" {
                    rec.spans.push(Span {
                        name: event.name,
                        cat: event.cat,
                        iteration: rec.iteration,
                        start_us: anchor_us + event.ts_micros as f64 - program_anchor,
                        dur_us: dur_micros as f64,
                    });
                }
            }
            telemetry::SpanKind::Instant if event.name == "router.stats" => {
                for (arg, value) in &event.args {
                    if let Some((_, metric)) = ROUTER_COUNTERS.iter().find(|(a, _)| a == arg) {
                        *it.values.entry(metric).or_default() += *value as f64;
                    }
                }
            }
            telemetry::SpanKind::Instant => {}
        }
    }
    for (_, metric) in ROUTER_COUNTERS {
        it.values.entry(metric).or_default();
    }
    let program = |name: &str| sums.get(name).copied().unwrap_or(0.0);

    // Calls the synthesizer makes without a span, timed here on the same
    // inputs (only when synthesis actually ran).
    let synthesized = !reuse.arch_hit;
    let (extract_s, verify_s) = if synthesized {
        let start = Instant::now();
        let tasks = extract_transport_tasks(&outcome.problem, &outcome.schedule);
        std::hint::black_box(tasks);
        let extract = rec.close("arch.extract", start);
        let start = Instant::now();
        let verified = outcome.architecture.verify();
        let verify = rec.close("arch.verify", start);
        verified.map_err(FlowError::Architecture)?;
        (extract.as_secs_f64(), verify.as_secs_f64())
    } else {
        (0.0, 0.0)
    };
    let start = Instant::now();
    std::hint::black_box(outcome.output_key());
    let output_key_s = rec.close("synth.output_key", start).as_secs_f64();

    let bench = |name: &str| -> f64 {
        rec.spans
            .iter()
            .filter(|s| s.iteration == rec.iteration && s.cat == "bench" && s.name == name)
            .map(|s| s.dur_us / 1e6)
            .sum::<f64>()
            + 0.0
    };
    let route_children = program("route.window_select")
        + program("route.path_search")
        + program("route.commit")
        + program("route.replay_commit");
    let route_self = program("route") - route_children;
    // Building the warm-start hint is part of the architecture stage too.
    let synth_self = bench("synth.warm_hint") + bench("arch.synth")
        - program("place")
        - program("route")
        - program("route.oracle_build")
        - extract_s
        - verify_s;
    let layers: [(&'static str, f64); 15] = [
        ("schedule.busy_s", bench("schedule")),
        ("synth.keys_s", bench("synth.keys")),
        ("arch.synth_s", synth_self),
        ("arch.extract_s", extract_s),
        ("arch.verify_s", verify_s),
        ("arch.oracle_build_s", program("route.oracle_build")),
        ("arch.place_s", program("place")),
        ("arch.route_s", route_self),
        ("arch.window_select_s", program("route.window_select")),
        ("arch.path_search_s", program("route.path_search")),
        (
            "arch.commit_s",
            program("route.commit") + program("route.replay_commit"),
        ),
        ("layout.busy_s", bench("layout")),
        ("sim.replay_s", bench("sim.replay")),
        ("sim.dedicated_s", bench("sim.dedicated")),
        ("synth.report_s", bench("synth.report")),
    ];
    for (name, seconds) in layers {
        it.values.insert(name, seconds);
    }
    it.values
        .insert("synth.key_s", bench("synth.keys") + output_key_s);

    // Share of place + route time spent on grid attempts before the one
    // that succeeds: every place/route span but the last of each kind (a
    // warm-adopted placement records no span).
    let routes = attempts.iter().filter(|(n, _)| *n == "route").count();
    let failed: f64 = ["place", "route"]
        .iter()
        .flat_map(|kind| {
            attempts
                .iter()
                .filter(move |(n, _)| n == kind)
                .take(routes.saturating_sub(1))
        })
        .map(|(_, seconds)| seconds)
        .sum();
    let attempted = program("place") + program("route");
    it.values.insert(
        "arch.failed_attempt_share",
        if attempted > 0.0 {
            failed / attempted
        } else {
            0.0
        },
    );
    it.values.insert(
        "arch.grids_tried",
        if synthesized {
            outcome.architecture.stats().grids_tried as f64
        } else {
            0.0
        },
    );
    let count = |name: &str| it.values.get(name).copied().unwrap_or(0.0);
    let per = |numerator: f64, denominator: f64| {
        if denominator > 0.0 {
            numerator / denominator
        } else {
            0.0
        }
    };
    let ns_per_node = per(
        program("route.path_search") * 1e9,
        count("arch.nodes_expanded"),
    );
    let ns_per_segment = per(route_self * 1e9, count("arch.segments_priced"));
    let search_yield = per(count("arch.tasks_routed"), count("arch.path_searches"));
    it.values.insert("arch.ns_per_node", ns_per_node);
    it.values.insert("arch.ns_per_segment", ns_per_segment);
    it.values.insert("arch.search_yield", search_yield);

    let flag = |b: bool| if b { 1.0 } else { 0.0 };
    let report = &outcome.report;
    let reuse_values = [
        ("synth.store_get_s", counters.get_seconds),
        ("synth.store_put_s", counters.put_seconds),
        ("synth.store_hits", counters.hits as f64),
        ("synth.store_misses", counters.misses as f64),
        ("synth.schedule_hits", flag(reuse.schedule_hit)),
        ("synth.arch_hits", flag(reuse.arch_hit)),
        ("synth.arch_warm", flag(reuse.arch_warm)),
        ("synth.tasks_replayed", reuse.tasks_replayed as f64),
        ("synth.tasks_total", reuse.tasks_total as f64),
        ("chip.exec_sim_s", report.execution_time as f64),
        ("chip.valves", report.valves as f64),
        ("chip.edges", report.used_edges as f64),
        (
            "chip.exec_vs_dedicated",
            report.execution_ratio_vs_dedicated(),
        ),
    ];
    for (name, value) in reuse_values {
        it.values.insert(name, value);
    }
    Ok((outcome, it))
}

/// The body of `run_problem_staged`, one recorded call per stage.
fn staged_body(
    flow: &SynthesisFlow,
    config: &SynthesisConfig,
    problem: ScheduleProblem,
    store: &dyn StageStore,
    rec: &mut Recorder,
) -> Result<(SynthesisOutcome, Reuse, Duration), FlowError> {
    let run_start = Instant::now();
    let mut reuse = Reuse::default();
    let keys = rec.time("synth.keys", || StageKeys::derive(config, &problem));

    let schedule_start = Instant::now();
    let schedule = match rec.time("synth.store_get", || store.get_schedule(&keys.schedule)) {
        Some(cached) => {
            reuse.schedule_hit = true;
            cached
        }
        None => {
            let computed = Arc::new(rec.time("schedule", || flow.schedule(&problem))?);
            rec.time("synth.store_put", || {
                store.put_schedule(&keys.schedule, &computed);
            });
            computed
        }
    };
    let scheduling_time = schedule_start.elapsed();

    let arch_start = Instant::now();
    let architecture = match rec.time("synth.store_get", || store.get_architecture(&keys.route)) {
        Some(cached) => {
            reuse.arch_hit = true;
            cached
        }
        None => {
            let mut synthesizer = ArchitectureSynthesizer::new(config.synthesis.clone())
                .with_oracle_scope(keys.placement.clone());
            if let Some(oracles) = store.oracle_cache() {
                synthesizer = synthesizer.with_oracle_cache(oracles);
            }
            let hint = rec.time("synth.store_get", || {
                store.warm_hint(problem.graph().name())
            });
            if let Some(hint) = hint {
                let warm = rec.time("synth.warm_hint", || {
                    WarmStart::from_prior(
                        &hint.problem,
                        &hint.schedule,
                        &hint.architecture,
                        &hint.synthesis,
                    )
                });
                if let Some(warm) = warm {
                    synthesizer = synthesizer.with_warm_start(warm);
                }
            }
            let (architecture, warm) = rec.time("arch.synth", || {
                synthesizer.synthesize_with_reuse(&problem, &schedule)
            })?;
            reuse.arch_warm = warm.placement_reused || warm.tasks_replayed > 0;
            reuse.tasks_replayed = warm.tasks_replayed;
            reuse.tasks_total = warm.tasks_total;
            let architecture = Arc::new(architecture);
            rec.time("synth.store_put", || {
                store.put_architecture(&keys.route, &architecture);
            });
            architecture
        }
    };
    let architecture_time = arch_start.elapsed();

    let layout_start = Instant::now();
    let layout = rec.time("layout", || generate_layout(&architecture, &config.layout));
    let layout_time = layout_start.elapsed();
    let execution = rec.time("sim.replay", || replay(&problem, &schedule, &architecture));
    let dedicated = rec.time("sim.dedicated", || {
        simulate_dedicated_storage(&problem, &schedule)
    });
    let report = rec.time("synth.report", || {
        SynthesisReport::collect(
            &problem,
            &schedule,
            &architecture,
            &layout,
            &execution,
            &dedicated,
            scheduling_time,
            architecture_time,
            layout_time,
        )
    });
    let outcome = SynthesisOutcome {
        schedule: Arc::try_unwrap(schedule).unwrap_or_else(|arc| (*arc).clone()),
        architecture: Arc::try_unwrap(architecture).unwrap_or_else(|arc| (*arc).clone()),
        problem,
        layout,
        execution,
        dedicated_baseline: dedicated,
        report,
    };
    rec.time("synth.store_put", || {
        store.put_warm(outcome.problem.graph().name(), &outcome, config);
    });
    let run = rec.close("synth.run", run_start);
    Ok((outcome, reuse, run))
}

/// Per-iteration figures exported under their own name.
const EXPORTED: &[&str] = &[
    "schedule.busy_s",
    "arch.extract_s",
    "arch.synth_s",
    "arch.verify_s",
    "arch.oracle_build_s",
    "arch.place_s",
    "arch.route_s",
    "arch.window_select_s",
    "arch.path_search_s",
    "arch.commit_s",
    "arch.grids_tried",
    "arch.tasks_routed",
    "arch.windows_tried",
    "arch.path_searches",
    "arch.nodes_expanded",
    "arch.segments_priced",
    "arch.postponed",
    "arch.oracle_rejected",
    "arch.failed_attempt_share",
    "arch.ns_per_node",
    "arch.ns_per_segment",
    "arch.search_yield",
    "layout.busy_s",
    "sim.replay_s",
    "sim.dedicated_s",
    "synth.key_s",
    "synth.report_s",
    "synth.store_get_s",
    "synth.store_put_s",
    "synth.store_hits",
    "synth.store_misses",
    "synth.schedule_hits",
    "synth.arch_hits",
    "synth.arch_warm",
    "chip.exec_sim_s",
    "chip.valves",
    "chip.edges",
    "chip.exec_vs_dedicated",
];

/// Per-layer figures over the iterations of a traced run, plus the two
/// accounting figures. Figures are means per iteration: a workload mixes
/// iterations that skip a layer with ones that do not (an edit served from
/// the store never routes), and means, unlike medians, add up across
/// layers.
#[derive(Debug, Clone, Default)]
pub struct LayerSummary {
    /// Mean per figure, by name.
    pub figures: BTreeMap<&'static str, f64>,
    /// Mean wall seconds of the traced staged runs.
    pub traced_run_s: f64,
    /// Sum of the means of the in-run layer self times.
    pub accounted_s: f64,
}

impl LayerSummary {
    /// Summarizes `iterations` (empty input gives all-zero figures).
    #[must_use]
    pub fn of(iterations: &[Iteration]) -> LayerSummary {
        let mut figures = BTreeMap::new();
        for it in iterations {
            for name in it.values.keys() {
                figures.entry(*name).or_insert(0.0);
            }
        }
        let mean = |values: &mut dyn Iterator<Item = f64>| {
            values.sum::<f64>() / iterations.len().max(1) as f64
        };
        for (name, figure) in figures.iter_mut() {
            *figure = mean(
                &mut iterations
                    .iter()
                    .map(|it| it.values.get(name).copied().unwrap_or(0.0)),
            );
        }
        let accounted_s = IN_RUN
            .iter()
            .map(|name| figures.get(name).copied().unwrap_or(0.0))
            .sum();
        LayerSummary {
            traced_run_s: mean(&mut iterations.iter().map(|it| it.run_s)),
            figures,
            accounted_s,
        }
    }

    /// Writes the per-layer metrics into `m`. `untraced_run_s` is the mean
    /// wall time of the same staged runs with tracing off.
    pub fn emit(&self, m: &mut Measured, untraced_run_s: f64) {
        let figure = |name: &str| self.figures.get(name).copied().unwrap_or(0.0);
        for name in EXPORTED {
            m.set(name, figure(name));
        }
        let total = figure("synth.tasks_total");
        m.set(
            "synth.replay_ratio",
            if total > 0.0 {
                figure("synth.tasks_replayed") / total
            } else {
                0.0
            },
        );
        m.set("synth.staged_s", untraced_run_s);
        m.set("unattributed_s", untraced_run_s - self.accounted_s);
        m.set("telemetry.overhead_s", self.traced_run_s - untraced_run_s);
        m.notes.push(format!(
            "traced run {:.6} s vs untraced {:.6} s; layers account for {:.6} s",
            self.traced_run_s, untraced_run_s, self.accounted_s
        ));
    }
}
