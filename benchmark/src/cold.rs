//! `cold-ra10k`: repeated cold synthesis of the RA10K scale assay.
//!
//! Every iteration is a fresh `SynthesisFlow::run` of the 10,000-operation
//! random assay with 8 mixers and the default configuration. The run is
//! route-bound and needs two grid attempts, so it shows work on parallel
//! grid attempts and on the per-node cost of path search.
//!
//! The input is RA10K itself for every `--seed`: other 10k-operation seeds
//! need anywhere from 1 to 14 grid attempts (1.7 s to 8.4 s per run), a
//! spread no per-run repetition can average out, so the seed does not pick
//! the assay here.

use std::time::Instant;

use biochip_synth::assay::random::{generate, RandomAssayConfig, RA10K_SEED};
use biochip_synth::schedule::ScheduleProblem;
use biochip_synth::{NoStageStore, SynthesisConfig, SynthesisFlow, SynthesisOutcome};

use crate::reference::HostClock;
use crate::stats::{mean, median, Measured, Tail};
use crate::timed_store::TimedStore;
use crate::trace::{run_staged_traced, LayerSummary, Recorder};
use crate::{check_outcome, serve, Args};

/// `output_key` of the RA10K chip under [`config`].
pub const RA10K_KEY: &str = "d1913fe9814d825d";
/// Fewest cold runs a measurement makes, however short `--seconds` is.
const MIN_RUNS: usize = 3;
/// Reference computations per host-speed reading on either side of each
/// run. One takes tens of milliseconds, so a single reading catches
/// sub-second flicker that a 3 s run averages out; four roughly halved the
/// spread of scaled run times within a run, and the two readings cost
/// about 9 % of a run's time.
const REFERENCE_REPEATS: usize = 4;

/// The configuration of the cold runs: default, with 8 mixers.
#[must_use]
pub fn config() -> SynthesisConfig {
    SynthesisConfig::default().with_mixers(8)
}

/// Builds the RA10K scheduling problem (assay generation plus device
/// inventory): the set-up before a timed run.
fn build_problem() -> ScheduleProblem {
    let graph = generate(&RandomAssayConfig::scaled(10_000, RA10K_SEED));
    SynthesisFlow::new(config()).problem_for(graph)
}

/// The gate of every RA10K outcome: [`check_outcome`] and the known key.
fn gate(outcome: &SynthesisOutcome) -> Option<String> {
    check_outcome(outcome).err().or_else(|| {
        let key = outcome.output_key();
        (key != RA10K_KEY).then(|| format!("RA10K output_key {key}, expected {RA10K_KEY}"))
    })
}

/// One timed cold run: its wall seconds and its outcome, not yet gated.
fn cold_run(problem: &ScheduleProblem) -> (f64, Result<SynthesisOutcome, String>) {
    let graph = problem.graph().clone();
    let flow = SynthesisFlow::new(config());
    let start = Instant::now();
    let result = flow.run(graph);
    let seconds = start.elapsed().as_secs_f64();
    (
        seconds,
        result.map_err(|e| format!("RA10K cold run failed: {e}")),
    )
}

/// Gates a cold run's outcome, once its clock has stopped, and counts it.
/// Returns whether the run succeeded and passed the gate.
fn counted(m: &mut Measured, result: Result<SynthesisOutcome, String>) -> bool {
    let error = result.map_or_else(Some, |outcome| gate(&outcome));
    let ok = error.is_none();
    m.attempt(error);
    ok
}

/// Runs `cold-ra10k`.
pub fn cold_ra10k(args: &Args) -> Measured {
    let mut m = Measured::default();
    if args.trace {
        trace(args, &build_problem(), &mut m);
        return m;
    }

    // The set-up is repeated before every run rather than timed once at the
    // start, so its median spans the same stretch of the run as the runs'.
    // Both are reported at reference speed (see `reference.rs`).
    let start = Instant::now();
    let mut clock = HostClock::new(REFERENCE_REPEATS);
    let (mut setups, mut runs, mut raw) = (Vec::new(), Vec::new(), Vec::new());
    while (m.attempted as usize) < MIN_RUNS || start.elapsed().as_secs_f64() < args.seconds as f64 {
        let t = Instant::now();
        let problem = build_problem();
        let setup = t.elapsed().as_secs_f64();
        // The reference is read right before and right after the run; the
        // gate comes after both.
        clock.restart();
        let (seconds, result) = cold_run(&problem);
        let scale = clock.mark();
        setups.push(setup * scale);
        if counted(&mut m, result) {
            runs.push(seconds * scale);
            raw.push(seconds);
        }
    }
    let Some(tail) = Tail::or_max(&runs) else {
        return m;
    };
    m.notes.push(format!(
        "cold runs: {}; tail is {}; raw wall p50 {:.1} ms, max {:.1} ms; median speed scale {:.3}",
        runs.len(),
        tail.label(),
        median(&raw) * 1e3,
        raw.iter().copied().fold(0.0, f64::max) * 1e3,
        median(clock.scales())
    ));
    m.set("p50_ms", median(&runs) * 1e3);
    m.set("tail_ms", tail.value * 1e3);
    m.set("cold_p50_ms", median(&runs) * 1e3);
    m.set("setup_s", median(&setups));
    m
}

/// The traced run: untraced and traced cold runs alternate, so both see the
/// same host drift, and the service layers are probed with RA10K itself.
fn trace(args: &Args, problem: &ScheduleProblem, m: &mut Measured) {
    let mut rec = Recorder::new();
    let (mut untraced, mut iterations) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_RUNS || start.elapsed().as_secs_f64() < args.seconds as f64 {
        rounds += 1;
        // Which of the pair runs first alternates, so neither profits from
        // the state the other leaves behind.
        for traced in [rounds % 2 == 0, rounds % 2 == 1] {
            if !traced {
                let (seconds, result) = cold_run(problem);
                if counted(m, result) {
                    untraced.push(seconds);
                }
                continue;
            }
            let store = TimedStore::new(NoStageStore);
            match run_staged_traced(&config(), problem.clone(), &store, &mut rec) {
                Ok((outcome, it)) => {
                    m.attempt(gate(&outcome));
                    iterations.push(it);
                }
                Err(e) => m.attempt(Some(format!("traced RA10K run failed: {e}"))),
            }
        }
    }
    LayerSummary::of(&iterations).emit(m, mean(&untraced));
    let dir = serve::scratch_dir(args, "probe");
    let body = serve::job_submission(problem, &config());
    match serve::probe(&body, &dir) {
        Ok(service) => service.emit(m),
        Err(e) => m.attempt(Some(format!("service probe: {e}"))),
    }
    let _ = std::fs::remove_dir_all(&dir);
    crate::write_trace(args, &rec);
}
