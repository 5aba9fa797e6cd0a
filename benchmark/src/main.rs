//! `perfbench`: runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <cold-ra10k|edit-ra1k> \
//!     [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`, with
//! the end-to-end metrics of `BENCHMARK.json` (or, with `--trace 1`, its
//! per-layer metrics). Exit code 0 once that line is printed, 2 for usage
//! errors, 1 when the benchmark itself is broken.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use biochip_perfbench::stats::Spec;
use biochip_perfbench::{run, Args};

/// `BENCHMARK.json`, read from the repository root the benchmark runs in.
fn load_spec() -> Result<Spec, String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Spec::parse(&text)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = match load_spec() {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let measured = run(&args);
    for failure in &measured.failures {
        eprintln!("perfbench: FAILED: {failure}");
    }
    let (shown, other) = if args.trace {
        (&spec.per_layer, &spec.end_to_end)
    } else {
        (&spec.end_to_end, &spec.per_layer)
    };
    match measured.render(shown, other) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
