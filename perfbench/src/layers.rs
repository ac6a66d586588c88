//! Per-layer metrics of the traced run: the span totals of the re-driven
//! round loop, and standalone calls into the sampling layer.

use crate::common::{mix, Outcome, STREAM_PROBE};
use crate::redrive::LoopCounts;
use crate::stats::median;
use crate::trace::Trace;
use smin_core::AstiParams;
use smin_diffusion::{Model, ResidualState};
use smin_graph::Graph;
use smin_sampling::{CoverageEngine, SketchGenPool, SketchJob, SketchPool};
use std::hint::black_box;
use std::time::Instant;

/// Sets each standalone generation call grows the pool to.
pub const PROBE_SETS: usize = 40_000;
const PROBE_REPS: usize = 3;
const KERNEL_REPS: usize = 21;

/// Per-operation times and exact counts from the re-driven loop's spans.
/// Times are means per campaign (or computed request) in seconds; counts
/// are totals over the fixed campaign list.
pub fn loop_metrics(out: &mut Outcome, trace: &Trace, counts: &LoopCounts) {
    let by = trace.totals_by_name();
    let ops = counts.campaigns.max(1) as f64;
    let total = |name: &str| by.get(name).map_or(0, |t| t.total_ns) as f64 / 1e9;
    let self_s = |name: &str| by.get(name).map_or(0, |t| t.self_ns) as f64 / 1e9;
    let campaign = total("campaign");
    out.metric(
        "diffusion.realization_s",
        total("diffusion.realization") / ops,
        "s",
    );
    out.metric("diffusion.observe_s", total("diffusion.observe") / ops, "s");
    out.metric("diffusion.activated", counts.activated as f64, "count");
    out.metric("core.select_s", total("core.select") / ops, "s");
    out.metric("core.self_s", self_s("core.select") / ops, "s");
    out.metric("core.rounds", counts.rounds as f64, "count");
    out.metric("core.iterations", counts.iterations as f64, "count");
    out.metric(
        "core.est_over_realized",
        ratio(counts.est_spread, counts.realized_spread),
        "ratio",
    );
    out.metric("sampling.sketch_s", total("sampling.sketch") / ops, "s");
    out.metric(
        "sampling.sketch_share",
        ratio(total("sampling.sketch"), campaign),
        "ratio",
    );
    out.metric("sampling.coverage_s", total("sampling.coverage") / ops, "s");
    out.metric(
        "sampling.coverage_share",
        ratio(total("sampling.coverage"), campaign),
        "ratio",
    );
    out.metric("sampling.sets", counts.sets as f64, "count");
    out.metric(
        "sampling.edges_examined",
        counts.edges_examined as f64,
        "count",
    );
}

/// The loop metrics of a workload that runs no selection: every count and
/// time is zero.
pub fn idle_loop_metrics(out: &mut Outcome) {
    loop_metrics(out, &Trace::new(Instant::now()), &LoopCounts::default());
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Standalone sampling-layer calls on the workload's graph and model: pool
/// growth to [`PROBE_SETS`] at one thread and at `threads`, then argmax and
/// an 8-seed greedy selection over the grown pool.
pub fn sampling_probe(
    out: &mut Outcome,
    g: &Graph,
    model: Model,
    eta: usize,
    seed: u64,
    threads: usize,
) {
    let residual = ResidualState::new(g.n());
    let job = SketchJob {
        graph: g,
        model,
        snapshot: residual.snapshot(),
        eta_i: eta,
        dist: AstiParams::with_eps(crate::common::EPS).trim.root_dist,
        base_seed: mix(seed, STREAM_PROBE),
    };
    let mut gen = SketchGenPool::new(g.n());
    let mut grow = |threads: usize, pool: &mut SketchPool| {
        let times: Vec<f64> = (0..PROBE_REPS)
            .map(|_| {
                pool.reset();
                let t = Instant::now();
                black_box(gen.generate(&job, PROBE_SETS, threads, pool));
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&times)
    };
    let mut single = SketchPool::new(g.n());
    let t1 = grow(1, &mut single);
    let mut pool = SketchPool::new(g.n());
    let tn = grow(threads, &mut pool);
    let same =
        single.len() == pool.len() && (0..pool.len() as u32).all(|s| single.set(s) == pool.set(s));
    out.check(same, || {
        format!("sketch pool at threads=1 differs from threads={threads}")
    });
    drop(single);

    let mut engine = CoverageEngine::new();
    let argmax: Vec<f64> = (0..KERNEL_REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(engine.argmax(&pool));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let select: Vec<f64> = (0..KERNEL_REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(engine.select(&pool, 8));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let heap_pops = engine.select_traffic().heap_pops;
    engine.select_eager(&pool, 8);
    let scanned = engine.select_traffic().scanned;

    out.metric("sampling.sets_per_s", PROBE_SETS as f64 / tn, "1/s");
    out.metric("sampling.thread_speedup", t1 / tn, "ratio");
    out.metric("sampling.argmax_us", median(&argmax), "us");
    out.metric("sampling.select_b8_us", median(&select), "us");
    out.metric("sampling.heap_pops", heap_pops as f64, "count");
    out.metric("sampling.scanned", scanned as f64, "count");
    out.metric("sampling.pool_bytes", pool.heap_bytes() as f64, "bytes");
}

/// The probe metrics of a workload that runs no selection.
pub fn idle_sampling_probe(out: &mut Outcome) {
    for (name, unit) in [
        ("sampling.sets_per_s", "1/s"),
        ("sampling.thread_speedup", "ratio"),
        ("sampling.argmax_us", "us"),
        ("sampling.select_b8_us", "us"),
        ("sampling.heap_pops", "count"),
        ("sampling.scanned", "count"),
        ("sampling.pool_bytes", "bytes"),
    ] {
        out.metric(name, 0.0, unit);
    }
}
