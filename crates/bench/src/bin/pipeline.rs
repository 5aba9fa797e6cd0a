//! Cold-pipeline sweep → stdout table + `BENCH_pipeline.json`.
//!
//! Runs RA1K and RA10K cold once each. Takes no arguments.

#![forbid(unsafe_code)]

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("usage: pipeline\nunexpected argument `{arg}`");
        std::process::exit(2);
    }
    println!("Cold-pipeline sweep (schedule / place / route / layout / replay)\n");
    let rows = match biochip_bench::pipeline_rows(biochip_bench::DEFAULT_PIPELINE_ASSAYS) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("pipeline sweep failed: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", biochip_bench::format_pipeline(&rows));
    biochip_bench::write_bench_json("pipeline", &rows);
}
