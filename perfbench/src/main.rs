//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one JSON result line last on stdout; per-sample host
//! conditions go to stderr. Exits 2 on bad arguments and 1 when a run
//! or an output check fails.

use noiselab_perfbench::{run, Args};
use std::path::Path;
use std::process::ExitCode;

/// Checkpoint directories live here, under the directory the benchmark
/// is run from, and are removed before exit.
const WORK_ROOT: &str = ".perfbench_work";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args, Path::new(WORK_ROOT)) {
        Ok(report) => {
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
