//! Inputs, process facts and the result line shared by every workload.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use smin_graph::generators::{assemble, chung_lu_directed};
use smin_graph::{store, Graph, WeightModel};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Nodes and edges of the Chung–Lu graph every workload runs on: the scale
/// of the paper's figures, where one select spends most of its time in mRR
/// sketch generation.
pub const GRAPH_N: usize = 50_000;
pub const GRAPH_M: usize = 250_000;
/// Degree exponent of the generator (the service's default).
pub const GAMMA: f64 = 2.1;
/// The graph is the benchmark's fixed dataset, as the paper's graphs are:
/// the workload seed draws the campaigns, worlds and requests run on it.
/// Chung–Lu graphs at this size differ too much from one generator seed to
/// the next (hub overlap) for runs on different seeds to be comparable.
pub const GRAPH_SEED: u64 = 0x5EED_0019;
/// `η = ETA_FRAC · n` on every workload.
pub const ETA_FRAC: f64 = 0.1;
pub const EPS: f64 = 0.5;
/// How many times a run sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 7;

/// `setup_s`: the median of a run's set-up times, each listed on stderr.
pub fn setup_median(times: &[f64]) -> f64 {
    let ms: Vec<String> = times.iter().map(|t| format!("{:.1}", t * 1e3)).collect();
    eprintln!("set-ups (ms): {}", ms.join(" "));
    crate::stats::median(times)
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Path of the `asm` binary the server workloads boot.
    pub asm: Option<PathBuf>,
    /// Scratch directory of this run (the packed graph); span dumps go to
    /// its parent.
    pub work: PathBuf,
}

/// SplitMix64: derives independent streams from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stream ids, so no two uses of the seed collide.
pub const STREAM_CAMPAIGN: u64 = 2;
pub const STREAM_REQUEST: u64 = 3;
pub const STREAM_PICK: u64 = 4;
pub const STREAM_PROBE: u64 = 5;

/// `η` for the benchmark graph.
pub fn eta() -> usize {
    (GRAPH_N as f64 * ETA_FRAC).round() as usize
}

/// Worker threads and connections: one per CPU.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The generated graph, packed to `.smg` and loaded back.
pub struct Prepared {
    pub graph: Graph,
    pub smg_bytes: u64,
    pub load_s: f64,
    pub reverse_build_s: f64,
}

/// Generates the benchmark's Chung–Lu graph with weighted-cascade weights.
/// This makes the input, as reading a dataset would; it is not part of
/// `setup_s`.
pub fn generate() -> Result<Graph, String> {
    let mut rng = SmallRng::seed_from_u64(GRAPH_SEED);
    let pairs = chung_lu_directed(GRAPH_N, GRAPH_M, GAMMA, &mut rng);
    assemble(
        GRAPH_N,
        &pairs,
        true,
        WeightModel::WeightedCascade,
        &mut rng,
    )
    .map_err(|e| format!("graph assembly failed: {e}"))
}

/// Packs `g` to `dir/g.smg`; returns that path.
pub fn pack(g: &Graph, dir: &Path) -> Result<PathBuf, String> {
    let path = dir.join("g.smg");
    store::write_smg_path(g, &path).map_err(|e| format!("pack failed: {e}"))?;
    Ok(path)
}

/// [`pack`], then [`load_graph`].
pub fn prepare_graph(g: &Graph, dir: &Path) -> Result<Prepared, String> {
    let path = pack(g, dir)?;
    let (graph, load_s, reverse_build_s, smg_bytes) = load_graph(&path)?;
    Ok(Prepared {
        graph,
        smg_bytes,
        load_s,
        reverse_build_s,
    })
}

/// Loads a packed graph and builds its reverse CSR; returns the graph, the
/// seconds each step took and the file size.
pub fn load_graph(path: &Path) -> Result<(Graph, f64, f64, u64), String> {
    let t = Instant::now();
    let graph = store::read_smg_path(path).map_err(|e| format!("load failed: {e}"))?;
    let load_s = t.elapsed().as_secs_f64();
    // The transpose is built lazily by the first in-edge query.
    let t = Instant::now();
    black_box(graph.in_edges(0).count());
    let reverse_build_s = t.elapsed().as_secs_f64();
    let smg_bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    if graph.n() != GRAPH_N || graph.m() != GRAPH_M {
        return Err(format!(
            "loaded graph is {}x{}, generated {GRAPH_N}x{GRAPH_M}",
            graph.n(),
            graph.m()
        ));
    }
    Ok((graph, load_s, reverse_build_s, smg_bytes))
}

/// Peak resident set size (`VmHWM`) of process `pid` in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// Where and on what a result was measured, as one JSON object.
pub fn provenance(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        r#"{{"provenance":{{"workload":{},"seed":{},"seconds":{},"trace":{},"nproc":{},"cpu":{},"rustc":{},"git":{}}}}}"#,
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        nproc(),
        json_str(&cpu),
        json_str(&run("rustc", &["-V"])),
        json_str(&run("git", &["rev-parse", "HEAD"])),
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    serde_json::to_string(&serde_json::Value::String(s.to_string()))
        .expect("a string always serializes")
}

/// The outcome of one run.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every correctness check that did not hold.
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// True when every check held, no operation failed and every metric is
    /// a finite number.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
            && self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    value.to_string()
                } else {
                    "null".to_string()
                };
                format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("setup_s", 0.25, "s");
        let line = o.to_json();
        let v = smin_service::json::parse_object(line.as_bytes()).unwrap();
        let keys: Vec<&str> = match &v {
            serde_json::Value::Object(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
            _ => unreachable!("parse_object returns an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.ends_with(r#""metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#));
        o.check(false, || "boom".into());
        assert!(!o.correct());
    }

    #[test]
    fn streams_differ() {
        assert_ne!(mix(1, STREAM_REQUEST), mix(1, STREAM_CAMPAIGN));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(9, 9), mix(9, 9));
    }
}
