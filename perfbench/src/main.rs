//! `perfbench` — the seedmin benchmark: one command that runs a named
//! workload, prints every end-to-end metric by name and unit, and checks
//! the outputs. With `--trace 1` it instead runs the same workload traced
//! and prints the per-layer metrics. See README.md for the workloads and
//! which layer metric should move which end-to-end metric.
//!
//! ```text
//! perfbench --workload asti-ic|select-cold|select-hot --seed N --seconds S --trace 0|1
//!           [--asm PATH]
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! stamps the provenance (workload seed, nproc, CPU model, rustc, git
//! revision). The exit code is non-zero when any correctness check fails.

mod asti_ic;
mod common;
mod layers;
mod openloop;
mod redrive;
mod select;
mod server;
mod stats;
mod trace;

use common::{provenance, Args};
use std::path::PathBuf;

const USAGE: &str = "usage: perfbench --workload asti-ic|select-cold|select-hot --seed N \
--seconds S --trace 0|1 [--asm PATH]";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    let seed = get("--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")
        .ok_or("missing --seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    let trace = match get("--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let asm = get("--asm").map(PathBuf::from);
    // Scratch inputs of this run, under the directory the span dumps go to.
    let work =
        PathBuf::from(".perfbench_work").join(format!("{workload}-{seed}-{}", std::process::id()));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        asm,
        work,
    })
}

/// Writes the traced run's spans next to the work directory, named after
/// the workload and seed.
pub fn write_trace(args: &Args, trace: &trace::Trace) -> Result<(), String> {
    let dir = args.work.parent().unwrap_or(&args.work);
    let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    trace
        .write_jsonl(file)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "self time by span ({} spans, {}):",
        trace.spans().len(),
        path.display()
    );
    print!("{}", trace.table());
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: cannot create {}: {e}", args.work.display());
        std::process::exit(2);
    }
    println!("{}", provenance(&args));
    let result = match args.workload.as_str() {
        "asti-ic" => asti_ic::run(&args),
        "select-cold" => select::run_cold(&args),
        "select-hot" => select::run_hot(&args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let _ = std::fs::remove_dir_all(&args.work);
    match result {
        Ok(outcome) => {
            for f in &outcome.failures {
                eprintln!("perfbench: check failed: {f}");
            }
            println!("{}", outcome.to_json());
            std::process::exit(if outcome.correct() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
