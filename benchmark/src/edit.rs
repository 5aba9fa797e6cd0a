//! `edit-ra1k`: the designer's edit loop on RA1K.
//!
//! One priming cold run fills a stage store, then a seeded stream of single
//! edits is resynthesized through `SynthesisFlow::run_problem_staged`
//! against a `MemoryStageStore` (wrapped in a [`TimedStore`]). Each edit
//! changes one thing relative to RA1K and the default configuration: a
//! layout setting, a routing setting, a scheduling setting, or one
//! operation's duration. Time goes to stage keying, store hits, placement
//! reuse and prefix replay; path search is mostly bypassed.
//!
//! Every warm result must equal (by `output_key`) an untimed cold run of
//! the same edited input; those cold runs give `cold_p50_ms`, what the same
//! edits cost without reuse.
//!
//! The seed draws one pass of [`PASS_EDITS`] edits. A run repeats that
//! pass, each time against a freshly primed store, and stops at the end of
//! the first pass that finishes after `--seconds`. So every run, however
//! fast the program, resynthesizes the same inputs in the same order and
//! memory does not grow with the number of passes; an edit that fails
//! counts as one failed operation of the pass, however often it is
//! repeated.

use std::time::{Duration, Instant};

use biochip_synth::assay::random::{generate, RandomAssayConfig, RA1K_SEED};
use biochip_synth::assay::SequencingGraph;
use biochip_synth::schedule::ScheduleProblem;
use biochip_synth::{
    FlowController, MemoryStageStore, SynthesisConfig, SynthesisFlow, SynthesisOutcome,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::reference::HostClock;
use crate::stats::{mean, median, Measured, Tail};
use crate::timed_store::TimedStore;
use crate::trace::{run_staged_traced, Iteration, LayerSummary, Recorder};
use crate::{check_outcome, serve, Args};

/// `output_key` of the RA1K chip under [`config`].
pub const RA1K_KEY: &str = "6de828242c0aa6b9";
/// Edits of one pass, each pass against a freshly primed store.
pub const PASS_EDITS: usize = 40;

/// The base configuration: default, with 8 mixers.
#[must_use]
pub fn config() -> SynthesisConfig {
    SynthesisConfig::default().with_mixers(8)
}

/// The four edit classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// `layout.channel_pitch` grows.
    Layout,
    /// `synthesis.routing.max_deadline_overrun` grows.
    Route,
    /// `ilp_time_limit` grows (a scheduling-stage setting).
    Schedule,
    /// One operation's duration grows.
    OpDuration,
}

/// One edited input.
#[derive(Debug, Clone)]
pub struct Edit {
    /// Edit class.
    pub kind: EditKind,
    /// The edited configuration.
    pub config: SynthesisConfig,
    /// The edited scheduling problem.
    pub problem: ScheduleProblem,
}

impl EditKind {
    /// The classes in the order the edit stream cycles through them, so
    /// every run measures the same mix.
    pub const ALL: [EditKind; 4] = [
        EditKind::Layout,
        EditKind::Route,
        EditKind::Schedule,
        EditKind::OpDuration,
    ];
}

/// Draws edit number `index` of the stream: its class cycles through
/// [`EditKind::ALL`], its size (and, for an operation edit, the operation)
/// comes from `rng`.
#[must_use]
pub fn next_edit(base: &SequencingGraph, index: usize, rng: &mut StdRng) -> Edit {
    let mut config = config();
    let mut graph = None;
    let amount = rng.gen_range(1..=64u64);
    let kind = EditKind::ALL[index % EditKind::ALL.len()];
    match kind {
        EditKind::Layout => config.layout.channel_pitch += amount,
        EditKind::Route => config.synthesis.routing.max_deadline_overrun += amount,
        EditKind::Schedule => config.ilp_time_limit += Duration::from_secs(amount),
        EditKind::OpDuration => graph = Some(with_longer_op(base, rng, amount)),
    }
    let graph = graph.unwrap_or_else(|| base.clone());
    let problem = SynthesisFlow::new(config.clone()).problem_for(graph);
    Edit {
        kind,
        config,
        problem,
    }
}

/// `base` with one seeded operation's duration grown by `amount` seconds.
fn with_longer_op(base: &SequencingGraph, rng: &mut StdRng, amount: u64) -> SequencingGraph {
    let targets: Vec<_> = base
        .iter()
        .filter(|(_, op)| op.duration > 0)
        .map(|(id, _)| id)
        .collect();
    let pick = targets[rng.gen_range(0..targets.len())];
    let mut graph = SequencingGraph::new(base.name().to_owned());
    for (id, op) in base.iter() {
        let mut op = op.clone();
        if id == pick {
            op.duration += amount;
        }
        graph.add_operation(op);
    }
    for edge in base.edges() {
        graph
            .add_dependency(edge.parent, edge.child)
            .expect("edges copied from a valid graph stay valid");
    }
    graph
}

type Store = TimedStore<MemoryStageStore>;

/// A fresh store primed with the cold RA1K run. Returns it with the
/// priming run's wall seconds.
fn primed(base: &SequencingGraph) -> Result<(Store, f64), String> {
    let store = TimedStore::new(MemoryStageStore::new());
    let flow = SynthesisFlow::new(config());
    let start = Instant::now();
    let (outcome, _) = flow
        .run_problem_staged(
            flow.problem_for(base.clone()),
            &FlowController::new(),
            &store,
        )
        .map_err(|e| format!("priming run failed: {e}"))?;
    let seconds = start.elapsed().as_secs_f64();
    let key = outcome.output_key();
    if key != RA1K_KEY {
        return Err(format!("RA1K output_key {key}, expected {RA1K_KEY}"));
    }
    store.take();
    Ok((store, seconds))
}

/// The untimed-checked cold run of an edited input: returns its wall
/// seconds and outcome.
fn cold_reference(edit: &Edit) -> Result<(f64, SynthesisOutcome), String> {
    let start = Instant::now();
    let outcome = SynthesisFlow::new(edit.config.clone())
        .run_problem_with(edit.problem.clone(), &FlowController::new())
        .map_err(|e| format!("cold run of a {:?} edit failed: {e}", edit.kind))?;
    let seconds = start.elapsed().as_secs_f64();
    check_outcome(&outcome)?;
    Ok((seconds, outcome))
}

/// Runs `edit-ra1k`.
pub fn edit_ra1k(args: &Args) -> Measured {
    let mut m = Measured::default();
    if let Err(e) = edit_into(args, &mut m) {
        m.attempt(Some(e));
    }
    m
}

/// One measured edit: warm and cold wall seconds, and the traced
/// decomposition when the run is traced.
struct Resynthesis {
    warm_s: f64,
    cold_s: f64,
    traced: Option<Iteration>,
}

/// Resynthesizes `edit` warm against `store` (timed), checks it against an
/// untimed-checked cold run and, in a traced run, repeats it stage by stage
/// against `traced_store`.
fn resynthesize(
    edit: &Edit,
    store: &Store,
    traced_store: Option<&Store>,
    rec: &mut Recorder,
) -> Result<Resynthesis, String> {
    let flow = SynthesisFlow::new(edit.config.clone());
    let t = Instant::now();
    let result = flow.run_problem_staged(edit.problem.clone(), &FlowController::new(), store);
    let warm_s = t.elapsed().as_secs_f64();
    let (outcome, _) = result.map_err(|e| format!("{:?} edit failed: {e}", edit.kind))?;
    let (cold_s, reference) = cold_reference(edit)?;
    if outcome.output_key() != reference.output_key() {
        return Err(format!(
            "{:?} edit: warm output_key differs from the cold run's",
            edit.kind
        ));
    }
    let traced = match traced_store {
        Some(traced_store) => {
            let (traced, it) =
                run_staged_traced(&edit.config, edit.problem.clone(), traced_store, rec)
                    .map_err(|e| format!("traced {:?} edit failed: {e}", edit.kind))?;
            if traced.output_key() != reference.output_key() {
                return Err("traced decomposition drifted from the flow".to_owned());
            }
            Some(it)
        }
        None => None,
    };
    Ok(Resynthesis {
        warm_s,
        cold_s,
        traced,
    })
}

fn edit_into(args: &Args, m: &mut Measured) -> Result<(), String> {
    let base = generate(&RandomAssayConfig::scaled(1_000, RA1K_SEED));
    let mut rng = StdRng::seed_from_u64(args.seed);
    let pass: Vec<Edit> = (0..PASS_EDITS)
        .map(|i| next_edit(&base, i, &mut rng))
        .collect();

    let mut rec = Recorder::new();
    let mut iterations = Vec::new();
    let (mut warm, mut cold) = (Vec::new(), Vec::new());
    let mut errors: Vec<Option<String>> = vec![None; pass.len()];
    let (mut raw_warm, mut raw_cold) = (Vec::new(), Vec::new());
    let start = Instant::now();
    // Every pass's priming run is a `setup_s` sample, so the set-up median
    // spans the same stretch of the run as the edits'. All of them are
    // scaled to reference speed (see `reference.rs`).
    let mut clock = HostClock::new(1);
    let mut setups = Vec::new();
    while setups.is_empty() || start.elapsed().as_secs_f64() < args.seconds as f64 {
        let (store, setup_s) = primed(&base)?;
        // The traced run keeps a second store with the identical history
        // for the stage-by-stage decomposition.
        let traced_store = if args.trace {
            Some(primed(&base)?.0)
        } else {
            None
        };
        setups.push(setup_s * clock.mark());
        for (edit, error) in pass.iter().zip(&mut errors) {
            let result = resynthesize(edit, &store, traced_store.as_ref(), &mut rec);
            let scale = clock.mark();
            match result {
                Ok(done) => {
                    warm.push((edit.kind, done.warm_s * scale));
                    cold.push(done.cold_s * scale);
                    raw_warm.push(done.warm_s);
                    raw_cold.push(done.cold_s);
                    iterations.extend(done.traced);
                }
                Err(e) => {
                    error.get_or_insert(e);
                }
            }
        }
    }
    for error in errors {
        m.attempt(error);
    }

    if args.trace {
        LayerSummary::of(&iterations).emit(m, mean(&raw_warm));
        let dir = serve::scratch_dir(args, "probe");
        let body =
            serve::job_submission(&SynthesisFlow::new(config()).problem_for(base), &config());
        let probe = serve::probe(&body, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        probe?.emit(m);
        crate::write_trace(args, &rec);
        return Ok(());
    }
    let warm_ms: Vec<f64> = warm.iter().map(|(_, s)| s * 1e3).collect();
    let tail = Tail::or_max(&warm_ms).ok_or("no edit succeeded")?;
    let by_kind: Vec<String> = EditKind::ALL
        .iter()
        .map(|kind| {
            let samples: Vec<f64> = warm
                .iter()
                .filter(|(k, _)| k == kind)
                .map(|(_, s)| s * 1e3)
                .collect();
            format!("{kind:?} {:.3}", median(&samples))
        })
        .collect();
    m.notes.push(format!(
        "passes: {} of {} edits; warm edits: {}; tail is {}; median ms by class: {}; \
         raw wall p50 {:.3} ms, cold p50 {:.3} ms; median speed scale {:.3}",
        setups.len(),
        pass.len(),
        warm_ms.len(),
        tail.label(),
        by_kind.join(", "),
        median(&raw_warm) * 1e3,
        median(&raw_cold) * 1e3,
        median(clock.scales())
    ));
    m.set("p50_ms", median(&warm_ms));
    m.set("tail_ms", tail.value);
    m.set("cold_p50_ms", median(&cold) * 1e3);
    m.set("setup_s", median(&setups));
    Ok(())
}
