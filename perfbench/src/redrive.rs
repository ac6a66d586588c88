//! ASTI's adaptive round loop driven from the benchmark, one public call
//! per layer, so each call can carry a span.
//!
//! It mirrors `smin_core::asti_in` step for step — TRIM or TRIM-B on the
//! residual graph, observe the realization, remove the newly activated
//! nodes — and the workloads check that it selects exactly the seeds
//! `asti_in` selects. A difference means the two loops drifted apart and
//! the per-layer numbers no longer describe the measured code.

use crate::trace::Trace;
use rand::Rng;
use smin_core::trim::TrimScratch;
use smin_core::{trim, trim_b, AstiParams};
use smin_diffusion::{InfluenceOracle, Model, Realization, RealizationOracle, ResidualState};
use smin_graph::{Graph, NodeId};

/// Exact work counts of the re-driven loop, summed over campaigns.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LoopCounts {
    pub campaigns: u64,
    pub rounds: u64,
    pub iterations: u64,
    pub sets: u64,
    pub edges_examined: u64,
    pub activated: u64,
    /// Σ of TRIM's estimated marginal truncated spread over rounds.
    pub est_spread: f64,
    /// Σ of the spread the realization then delivered.
    pub realized_spread: f64,
}

/// Reusable state of the re-driven loop (the parts of an `AstiSession`).
pub struct Redriver {
    scratch: TrimScratch,
    residual: ResidualState,
}

impl Redriver {
    pub fn new(n: usize) -> Self {
        Redriver {
            scratch: TrimScratch::new(n),
            residual: ResidualState::new(n),
        }
    }

    /// One traced campaign: samples the world from `world_rng`, then runs
    /// the round loop with `algo_rng` until `eta` nodes are active. Returns
    /// the selected seeds.
    #[allow(clippy::too_many_arguments)]
    pub fn campaign(
        &mut self,
        g: &Graph,
        model: Model,
        eta: usize,
        params: &AstiParams,
        world_rng: &mut impl Rng,
        algo_rng: &mut impl Rng,
        trace: &mut Trace,
        op: u64,
        counts: &mut LoopCounts,
    ) -> Result<Vec<NodeId>, String> {
        let root = trace.open("campaign", op, None);
        let span = trace.open("diffusion.realization", op, Some(root));
        let phi = Realization::sample(g, model, world_rng);
        trace.close(span);
        let mut oracle = RealizationOracle::new(g, phi);

        let Redriver { scratch, residual } = self;
        residual.reset();
        let mut seeds = Vec::new();
        while oracle.num_active() < eta && residual.n_alive() > 0 {
            let eta_i = eta - oracle.num_active();
            let round = trace.open("core.round", op, Some(root));
            scratch.reset_stage_micros();
            let select = trace.open("core.select", op, Some(round));
            let (picked, est, iterations, sets, edges) = if params.batch == 1 {
                let out = trim(g, model, residual, eta_i, &params.trim, scratch, algo_rng)
                    .map_err(|e| format!("trim failed: {e}"))?;
                let est = out.est_truncated_spread;
                (
                    vec![out.node],
                    est,
                    out.iterations,
                    out.sets_generated,
                    out.edges_examined,
                )
            } else {
                let out = trim_b(
                    g,
                    model,
                    residual,
                    eta_i,
                    params.batch,
                    &params.trim,
                    scratch,
                    algo_rng,
                )
                .map_err(|e| format!("trim_b failed: {e}"))?;
                let est = out.est_truncated_spread;
                (
                    out.seeds,
                    est,
                    out.iterations,
                    out.sets_generated,
                    out.edges_examined,
                )
            };
            trace.close(select);
            // TRIM accumulates sketch and coverage time in its scratch; they
            // interleave inside the call, so they become two children laid
            // end to end from its start.
            let stage = scratch.stage_micros();
            let start = trace.spans()[select].start;
            let sketch_end = start + stage.sketch * 1000;
            trace.record("sampling.sketch", op, Some(select), start, sketch_end);
            let coverage_end = sketch_end + stage.coverage * 1000;
            trace.record(
                "sampling.coverage",
                op,
                Some(select),
                sketch_end,
                coverage_end,
            );

            let span = trace.open("diffusion.observe", op, Some(round));
            let newly = oracle.observe(&picked);
            residual.kill_all(&newly);
            residual.kill_all(&picked);
            trace.close(span);
            trace.close(round);

            counts.rounds += 1;
            counts.iterations += iterations as u64;
            counts.sets += sets as u64;
            counts.edges_examined += edges as u64;
            counts.activated += newly.len() as u64;
            counts.est_spread += est;
            counts.realized_spread += newly.len() as f64;
            seeds.extend_from_slice(&picked);
        }
        trace.close(root);
        counts.campaigns += 1;
        Ok(seeds)
    }
}
