//! `asti-ic`: the paper's headline algorithm in-process — adaptive ASTI
//! campaigns (TRIM, b = 1) under IC on the benchmark graph, closed loop
//! with a single caller.

use crate::common::{
    eta, generate, mix, nproc, peak_rss_mb, prepare_graph, setup_median, Args, Outcome, Prepared,
    EPS, SETUP_REPS, STREAM_CAMPAIGN,
};
use crate::layers;
use crate::redrive::{LoopCounts, Redriver};
use crate::stats::{mean, median, sorted, tail};
use crate::trace::Trace;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use smin_core::{asti_in, AstiParams, AstiReport, AstiSession};
use smin_diffusion::{Model, Realization, RealizationOracle};
use smin_graph::{Graph, NodeId};
use std::time::Instant;

/// Campaigns the traced run re-drives; a fixed list, so its counts repeat.
const TRACE_CAMPAIGNS: u64 = 6;

/// The world and algorithm RNGs of campaign `c`, in the service's
/// convention (world stream `s + 1000`, algorithm stream `s`).
fn campaign_rngs(seed: u64, c: u64) -> (SmallRng, SmallRng) {
    let s = mix(mix(seed, STREAM_CAMPAIGN), c);
    (
        SmallRng::seed_from_u64(s.wrapping_add(1000)),
        SmallRng::seed_from_u64(s),
    )
}

fn params(threads: usize) -> AstiParams {
    let mut p = AstiParams::with_eps(EPS);
    p.trim.threads = Some(threads);
    p
}

/// Campaign `c` through `asti_in`; returns the report and the wall time
/// from `asti_in` entry until it returns (the world is sampled before).
fn campaign(
    g: &Graph,
    seed: u64,
    c: u64,
    threads: usize,
    session: &mut AstiSession,
) -> Result<(AstiReport, f64), String> {
    let (mut world, mut algo) = campaign_rngs(seed, c);
    let phi = Realization::sample(g, Model::IC, &mut world);
    let mut oracle = RealizationOracle::new(g, phi);
    let t = Instant::now();
    let report = asti_in(
        g,
        Model::IC,
        eta(),
        &params(threads),
        &mut oracle,
        &mut algo,
        session,
    )
    .map_err(|e| format!("asti_in failed on campaign {c}: {e}"))?;
    Ok((report, t.elapsed().as_secs_f64()))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    // Set-up: pack + load + reverse build of the generated graph.
    let generated = generate()?;
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(prepare_graph(&generated, &args.work)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    drop(generated);
    let prepared = last.expect("SETUP_REPS >= 1");
    // One recycled session for every campaign; the first campaign grows it.
    let mut session = AstiSession::new(prepared.graph.n());
    let g = &prepared.graph;
    let threads = nproc();
    let mut out = Outcome::default();

    if args.trace {
        traced(args, &prepared, &mut session, &mut out)?;
        return Ok(out);
    }

    let mut times = Vec::new();
    let mut seeds = Vec::new();
    let mut first: Option<Vec<NodeId>> = None;
    let started = Instant::now();
    let mut c = 0;
    while c == 0 || started.elapsed().as_secs_f64() < args.seconds {
        out.attempted += 1;
        match campaign(g, args.seed, c, threads, &mut session) {
            Ok((report, secs)) => {
                out.check(report.reached, || format!("campaign {c} did not reach eta"));
                times.push(secs);
                seeds.push(report.num_seeds() as f64);
                first.get_or_insert(report.seeds);
            }
            Err(e) => {
                out.failed += 1;
                out.failures.push(e);
            }
        }
        c += 1;
    }
    let elapsed = started.elapsed().as_secs_f64();

    // Sketch pools, and so selections, must not depend on the thread count.
    if let Some(first) = first {
        let mut fresh = AstiSession::new(g.n());
        let (report, _) = campaign(g, args.seed, 0, 1, &mut fresh)?;
        out.check(report.seeds == first, || {
            format!("campaign 0 selects different seeds at threads=1 and threads={threads}")
        });
    }

    let ms: Vec<f64> = times.iter().map(|s| s * 1e3).collect();
    let ms = sorted(&ms);
    let tail = tail(&ms).unwrap_or(crate::stats::Tail {
        value: f64::NAN,
        pct: 0.0,
        beyond: 0,
    });
    eprintln!(
        "asti-ic: {} campaigns, tail = p{:.1} with {} beyond",
        ms.len(),
        tail.pct,
        tail.beyond
    );
    out.metric("setup_s", setup_median(&setups), "s");
    out.metric("latency_p50_ms", median(&ms), "ms");
    out.metric("latency_tail_ms", tail.value, "ms");
    out.metric("throughput_rps", times.len() as f64 / elapsed, "1/s");
    out.metric("seeds_mean", mean(&seeds), "count");
    Ok(out)
}

/// The traced run: a fixed list of campaigns, each run through `asti_in`
/// (untraced) and re-driven round by round with spans; both must select
/// the same seeds.
fn traced(
    args: &Args,
    prepared: &Prepared,
    session: &mut AstiSession,
    out: &mut Outcome,
) -> Result<(), String> {
    let g = &prepared.graph;
    let threads = nproc();
    let mut trace = Trace::new(Instant::now());
    let mut counts = LoopCounts::default();
    let mut redriver = Redriver::new(g.n());
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    for c in 0..TRACE_CAMPAIGNS {
        out.attempted += 1;
        let (mut world, mut algo) = campaign_rngs(args.seed, c);
        let first_span = trace.spans().len();
        // Alternate which of the two runs goes first, so neither always
        // finds the caches warm.
        let plain_first = c % 2 == 0;
        let plain = |session: &mut AstiSession| campaign(g, args.seed, c, threads, session);
        let before = if plain_first {
            Some(plain(session)?)
        } else {
            None
        };
        let seeds = redriver.campaign(
            g,
            Model::IC,
            eta(),
            &params(threads),
            &mut world,
            &mut algo,
            &mut trace,
            c,
            &mut counts,
        )?;
        let (report, secs) = match before {
            Some(done) => done,
            None => plain(session)?,
        };
        plain_s += secs;
        out.check(report.reached, || format!("campaign {c} did not reach eta"));
        let root = &trace.spans()[first_span];
        let realization = &trace.spans()[first_span + 1];
        traced_s += ((root.end - root.start) - (realization.end - realization.start)) as f64 / 1e9;
        out.check(seeds == report.seeds, || {
            format!("campaign {c}: the traced loop selects other seeds than asti_in")
        });
    }
    crate::write_trace(args, &trace)?;

    out.metric("graph.load_s", prepared.load_s, "s");
    out.metric("graph.reverse_build_s", prepared.reverse_build_s, "s");
    out.metric("graph.smg_bytes", prepared.smg_bytes as f64, "bytes");
    layers::loop_metrics(out, &trace, &counts);
    layers::sampling_probe(out, g, Model::IC, eta(), args.seed, threads);
    crate::select::idle_service_metrics(out);
    out.metric("loadgen.late_p99_us", 0.0, "us");
    out.metric("process.peak_rss_mb", peak_rss_mb("self")?, "MB");
    out.metric("trace.overhead_ratio", traced_s / plain_s - 1.0, "ratio");
    Ok(())
}
