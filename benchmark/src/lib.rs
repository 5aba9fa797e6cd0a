//! The repository benchmark: seeded workloads against the public APIs of
//! the synthesis flow and the job service, with a correctness gate and a
//! traced per-layer run.
//!
//! Workloads named in `BENCHMARK.json` at the repository root:
//!
//! * `cold-ra10k` (`cold.rs`): repeated cold synthesis of RA10K;
//! * `edit-ra1k` (`edit.rs`): seeded single edits of RA1K resynthesized
//!   against a stage store.
//!
//! The service layers are measured on both by a closed-loop probe
//! (`serve.rs`). An open-loop `serve-mixed` workload (warm resubmissions,
//! result fetches and cold jobs against one server) is not part of the
//! benchmark yet: about one random 200-operation assay in 1,500 fails
//! `Architecture::verify` in a plain cold run (a router defect), so such a
//! workload would report failed jobs on about half of its runs.
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics as wall
//! times at reference speed (`reference.rs`: each operation's wall time
//! scaled by a fixed reference computation timed on either side of it, so
//! the host's drifting speed cancels; the raw figures go to the `#` notes);
//! a traced run (`--trace 1`) prints the per-layer metrics and
//! writes a Chrome trace under `benchmark/out/`.

#![forbid(unsafe_code)]

mod cold;
mod edit;
pub mod reference;
mod serve;
pub mod stats;
pub mod timed_store;
pub mod trace;

use std::path::PathBuf;

use biochip_synth::arch::validate_route_plan;
use biochip_synth::SynthesisOutcome;

use crate::stats::Measured;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["cold-ra10k", "edit-ra1k"];

/// Command-line arguments of one benchmark run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed; the same seed gives the same inputs.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> [--seed <n>] [--seconds <n>] [--trace 0|1]`.
    ///
    /// # Errors
    ///
    /// Describes the first unknown, missing or malformed argument.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10,
            trace: false,
        };
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("`{flag}` takes a whole number, not `{value}`"))
            };
            match flag.as_str() {
                "--workload" => parsed.workload = value.clone(),
                "--seed" => parsed.seed = number()?,
                "--seconds" => parsed.seconds = number()?.max(1),
                "--trace" => {
                    parsed.trace = match number()? {
                        0 => false,
                        1 => true,
                        _ => return Err("`--trace` takes 0 or 1".to_owned()),
                    }
                }
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        if !WORKLOADS.contains(&parsed.workload.as_str()) {
            return Err(format!(
                "`--workload` must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        Ok(parsed)
    }
}

/// The correctness gate of every cold outcome: a valid schedule, a verified
/// architecture and a conflict-free route plan.
///
/// # Errors
///
/// Names the first check that failed.
pub fn check_outcome(outcome: &SynthesisOutcome) -> Result<(), String> {
    outcome
        .schedule
        .validate(&outcome.problem)
        .map_err(|e| format!("invalid schedule: {e}"))?;
    outcome
        .architecture
        .verify()
        .map_err(|e| format!("architecture does not verify: {e}"))?;
    validate_route_plan(&outcome.architecture).map_err(|e| format!("invalid route plan: {e}"))
}

/// Where runs leave traces and scratch data: `benchmark/out/`.
#[must_use]
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes a traced run's spans as `benchmark/out/<workload>-seed<n>.trace.json`.
pub fn write_trace(args: &Args, rec: &trace::Recorder) {
    let path = out_dir().join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, rec.chrome_trace()));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// Runs one workload.
#[must_use]
pub fn run(args: &Args) -> Measured {
    let mut m = match args.workload.as_str() {
        "cold-ra10k" => cold::cold_ra10k(args),
        _ => edit::edit_ra1k(args),
    };
    if !args.trace {
        if let Some(rss) = stats::peak_rss_mb() {
            m.set("peak_rss_mb", rss);
        }
    }
    m
}
