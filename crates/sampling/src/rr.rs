//! Reverse reachable (RR) set sampling.
//!
//! A random RR set rooted at `v` contains every node that reaches `v` in a
//! random realization; `E[I(S)] = n · Pr[RR ∩ S ≠ ∅]` (Borgs et al., §3.2).
//! The sampler performs a *stochastic* reverse BFS, drawing each random
//! choice on first examination (principle of deferred decisions), so no
//! realization is ever materialized:
//!
//! * **IC** — the live in-edges of a node are drawn the first time it is
//!   dequeued; since every node is dequeued at most once, each edge is
//!   decided at most once and the merged multi-root search remains
//!   consistent with a single underlying realization (§3.3's requirement).
//!   When all in-edges of the node share one probability `p` (weighted
//!   cascade, uniform weights) the live ones are drawn by geometric
//!   skipping — one uniform `U ∈ (0, 1]` per live edge, inverted into the
//!   gap to it, `⌊ln U / ln(1 − p)⌋` — in O(1 + #live) draws over the
//!   graph's compact source-id column (SUBSIM, Guo et al., SIGMOD 2020).
//!   Nodes with differing in-probabilities flip one coin per alive
//!   in-edge;
//! * **LT** — the dequeued node draws its single live in-edge, scanning
//!   only the source column when its in-edges share one probability.
//!
//! The sampler honors a residual alive-mask so the same code serves rounds
//! `i > 1` on `G_i`.

use rand::Rng;
use smin_graph::{FixedBitSet, Graph, NodeId};

/// Remaining in-edge count up to which a skip is found by multiplying `q`
/// (one multiply per skipped edge) rather than by `⌊ln U / ln q⌋` (two
/// logarithms). Both yield the same geometric gap; this only sets the speed.
const SHORT_TAIL: usize = 32;

/// Reusable scratch for reverse stochastic BFS on one graph.
pub struct ReverseSampler {
    /// Word-packed frontier membership: 8× denser than the former
    /// `Vec<bool>`, so the mask for a million-node graph stays cache-resident
    /// across the thousands of samples each doubling round draws.
    visited: FixedBitSet,
}

impl ReverseSampler {
    /// Scratch for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        ReverseSampler {
            visited: FixedBitSet::new(n),
        }
    }

    /// Samples one RR/mRR set from `roots` into `out` (cleared first).
    ///
    /// Dead roots (per `alive`) are skipped. The returned set lists every
    /// alive node that reaches some root in the sampled world, roots
    /// included, in BFS order. Returns the number of in-edge slots the
    /// sampler read (the EPT accounting of Lemma 3.8): every alive in-edge
    /// of a coin-flipped node, every in-edge an LT draw scanned, and every
    /// skip-drawn live edge with an alive source.
    pub fn sample_into(
        &mut self,
        g: &Graph,
        model: smin_diffusion::Model,
        alive: Option<&[bool]>,
        roots: &[NodeId],
        rng: &mut impl Rng,
        out: &mut Vec<NodeId>,
    ) -> usize {
        out.clear();
        let is_alive = |u: NodeId| alive.is_none_or(|a| a[u as usize]);
        for &r in roots {
            if is_alive(r) && self.visited.insert(r as usize) {
                out.push(r);
            }
        }
        // `out` doubles as the BFS queue: every node is pushed exactly once,
        // when first visited, and dequeued by walking the vector in order.
        let mut edges_examined = 0usize;
        let mut head = 0;
        while head < out.len() {
            let v = out[head];
            head += 1;
            match model {
                smin_diffusion::Model::IC => match g.in_sources_uniform(v) {
                    Some((p, src)) => {
                        // Each draw inverts `U` into the gap to the next
                        // live edge: the smallest `k` with `U > q^(k+1)`.
                        // Dead or visited sources are dropped after the
                        // draw, so the live set of the alive edges keeps
                        // its distribution.
                        let q = 1.0 - p;
                        let mut i = 0;
                        while i < src.len() {
                            let u01 = 1.0 - rng.random::<f64>();
                            let rest = src.len() - i;
                            let skip = if rest <= SHORT_TAIL {
                                let (mut k, mut qk) = (0, q);
                                while k < rest && u01 <= qk {
                                    qk *= q;
                                    k += 1;
                                }
                                k
                            } else {
                                let skip = (u01.ln() / q.ln()).floor();
                                if skip < rest as f64 {
                                    skip as usize
                                } else {
                                    rest
                                }
                            };
                            if skip == rest {
                                break;
                            }
                            i += skip;
                            let u = src[i];
                            i += 1;
                            if is_alive(u) {
                                edges_examined += 1;
                                if self.visited.insert(u as usize) {
                                    out.push(u);
                                }
                            }
                        }
                    }
                    None => {
                        for (u, p, _) in g.in_edges(v) {
                            if !is_alive(u) {
                                continue;
                            }
                            edges_examined += 1;
                            if !self.visited.contains(u as usize) && rng.random::<f64>() < p {
                                self.visited.insert(u as usize);
                                out.push(u);
                            }
                        }
                    }
                },
                smin_diffusion::Model::LT => {
                    // v keeps exactly one live in-edge with prob p(u, v); if
                    // the chosen source is dead the choice maps to "none",
                    // which is exactly the induced-subgraph distribution.
                    // A uniform node runs the same scan over the source
                    // column alone: same arithmetic, same choice.
                    let r = rng.random::<f64>();
                    let (chosen, scanned) = match g.in_sources_uniform(v) {
                        Some((p, src)) => lt_choice(r, src.iter().map(|&u| (u, p))),
                        None => lt_choice(r, g.in_edges(v).map(|(u, p, _)| (u, p))),
                    };
                    edges_examined += scanned;
                    if let Some(u) = chosen {
                        if is_alive(u) && self.visited.insert(u as usize) {
                            out.push(u);
                        }
                    }
                }
            }
        }
        // O(|set|) cleanup keeps repeated sampling allocation-free.
        for &u in out.iter() {
            self.visited.remove(u as usize);
        }
        edges_examined
    }

    /// Convenience wrapper allocating a fresh vector.
    pub fn sample(
        &mut self,
        g: &Graph,
        model: smin_diffusion::Model,
        alive: Option<&[bool]>,
        roots: &[NodeId],
        rng: &mut impl Rng,
    ) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.sample_into(g, model, alive, roots, rng, &mut out);
        out
    }
}

/// The LT in-edge choice for a uniform draw `r ∈ [0, 1)`: the first edge
/// where `r`, less the probabilities before it, falls below the edge's own
/// probability; `None` past the last edge. Also returns the edges scanned.
#[inline]
fn lt_choice(mut r: f64, edges: impl Iterator<Item = (NodeId, f64)>) -> (Option<NodeId>, usize) {
    let mut scanned = 0;
    for (u, p) in edges {
        scanned += 1;
        if r < p {
            return (Some(u), scanned);
        }
        r -= p;
    }
    (None, scanned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use smin_diffusion::Model;
    use smin_graph::generators::{assemble, chung_lu_directed, erdos_renyi};
    use smin_graph::{GraphBuilder, WeightModel};

    /// Reference IC sampler: the per-edge coin-flip reverse BFS this module
    /// ran before geometric skipping — one `f64` coin per alive in-edge of
    /// every dequeued node. The skip path must match its distribution.
    fn reference_ic(
        g: &Graph,
        alive: Option<&[bool]>,
        roots: &[NodeId],
        rng: &mut impl Rng,
    ) -> Vec<NodeId> {
        let is_alive = |u: NodeId| alive.is_none_or(|a| a[u as usize]);
        let mut visited = vec![false; g.n()];
        let mut out = Vec::new();
        for &r in roots {
            if is_alive(r) && !visited[r as usize] {
                visited[r as usize] = true;
                out.push(r);
            }
        }
        let mut head = 0;
        while head < out.len() {
            let v = out[head];
            head += 1;
            for (u, p, _) in g.in_edges(v) {
                if is_alive(u) && !visited[u as usize] && rng.random::<f64>() < p {
                    visited[u as usize] = true;
                    out.push(u);
                }
            }
        }
        out
    }

    fn wc_chung_lu(n: usize, m: usize, seed: u64) -> Graph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pairs = chung_lu_directed(n, m, 2.1, &mut rng);
        assemble(n, &pairs, true, WeightModel::WeightedCascade, &mut rng).unwrap()
    }

    /// Per-node inclusion counts and set-size moments of `sets` IC samples,
    /// each rooted at 1–3 alive nodes drawn from a fixed root stream.
    struct Tally {
        hits: Vec<u64>,
        size_sum: f64,
        size_sq_sum: f64,
    }

    fn tally(
        g: &Graph,
        alive: Option<&[bool]>,
        sets: usize,
        mut sample: impl FnMut(&[NodeId]) -> Vec<NodeId>,
    ) -> Tally {
        let candidates: Vec<NodeId> = (0..g.n() as NodeId)
            .filter(|&u| alive.is_none_or(|a| a[u as usize]))
            .collect();
        let mut root_rng = SmallRng::seed_from_u64(0x2007);
        let mut t = Tally {
            hits: vec![0; g.n()],
            size_sum: 0.0,
            size_sq_sum: 0.0,
        };
        let mut roots = Vec::new();
        for _ in 0..sets {
            roots.clear();
            for _ in 0..root_rng.random_range(1..=3usize) {
                roots.push(candidates[root_rng.random_range(0..candidates.len())]);
            }
            let set = sample(&roots);
            for &u in &set {
                t.hits[u as usize] += 1;
            }
            let size = set.len() as f64;
            t.size_sum += size;
            t.size_sq_sum += size * size;
        }
        t
    }

    /// Draws 100k sets from the skip sampler and from [`reference_ic`] on
    /// the same root sequence (independent RNG streams) and requires every
    /// node's inclusion frequency, and the mean set size, to agree within 5
    /// standard errors of the difference. With a few hundred nodes the
    /// chance that a correct sampler fails is below 1e-4; the seeds are fixed,
    /// so the outcome is deterministic.
    fn assert_matches_reference(g: &Graph, alive: Option<&[bool]>) {
        const SETS: usize = 100_000;
        let mut sampler = ReverseSampler::new(g.n());
        let mut rng = SmallRng::seed_from_u64(11);
        let new = tally(g, alive, SETS, |roots| {
            sampler.sample(g, Model::IC, alive, roots, &mut rng)
        });
        let mut rng = SmallRng::seed_from_u64(12);
        let reference = tally(g, alive, SETS, |roots| {
            reference_ic(g, alive, roots, &mut rng)
        });
        let n = SETS as f64;
        for (u, (&a, &b)) in new.hits.iter().zip(&reference.hits).enumerate() {
            let (fa, fb) = (a as f64 / n, b as f64 / n);
            let pooled = (fa + fb) / 2.0;
            let se = (pooled * (1.0 - pooled) * 2.0 / n).sqrt();
            assert!(
                (fa - fb).abs() <= 5.0 * se,
                "node {u}: inclusion {fa} (skip) vs {fb} (reference), se {se}"
            );
        }
        let moments = |t: &Tally| {
            let mean = t.size_sum / n;
            (mean, t.size_sq_sum / n - mean * mean)
        };
        let ((ma, va), (mb, vb)) = (moments(&new), moments(&reference));
        let se = ((va + vb) / n).sqrt();
        assert!(
            (ma - mb).abs() <= 5.0 * se,
            "mean set size {ma} (skip) vs {mb} (reference), se {se}"
        );
    }

    #[test]
    fn skip_sampler_matches_reference_on_wc_graph() {
        let g = wc_chung_lu(300, 2_400, 21);
        assert!((0..300).all(|v| g.in_degree(v) == 0 || g.in_sources_uniform(v).is_some()));
        // Both skip searches run: short tails and at least one long one.
        assert!((0..300).any(|v| g.in_degree(v) > SHORT_TAIL));
        assert_matches_reference(&g, None);
    }

    #[test]
    fn skip_sampler_matches_reference_on_long_fan_ins() {
        // Uniform p = 0.02 and in-degree ~40: most draws start with more
        // than SHORT_TAIL edges left and take the logarithm.
        let mut rng = SmallRng::seed_from_u64(24);
        let pairs = erdos_renyi(120, 4_800, &mut rng);
        let g = assemble(120, &pairs, true, WeightModel::Uniform(0.02), &mut rng).unwrap();
        assert!((0..120).filter(|&v| g.in_degree(v) > SHORT_TAIL).count() > 100);
        assert_matches_reference(&g, None);
    }

    #[test]
    fn skip_sampler_matches_reference_with_a_mixed_node() {
        let wc = wc_chung_lu(300, 1_200, 22);
        let hub = (0..300).max_by_key(|&v| wc.in_degree(v)).unwrap();
        let g = wc.map_probabilities(|u, v, p| {
            if v != hub {
                p
            } else if u % 2 == 0 {
                p / 2.0
            } else {
                (p * 4.0).min(1.0)
            }
        });
        assert!(g.in_sources_uniform(hub).is_none());
        assert_matches_reference(&g, None);
    }

    #[test]
    fn skip_sampler_matches_reference_with_dead_nodes() {
        let g = wc_chung_lu(300, 1_200, 23);
        let alive: Vec<bool> = (0..300).map(|u| u % 5 != 0).collect();
        assert_matches_reference(&g, Some(&alive));
    }

    /// `0, 1, 2 → 3`, `4 → 0`, `5 → 1`, and a `SHORT_TAIL + 8` fan-in
    /// `6.. → 5`, every edge with `p = 1`.
    fn certain_fan_in() -> Graph {
        let fan = SHORT_TAIL as u32 + 8;
        let mut b = GraphBuilder::new(6 + fan as usize);
        for (u, v) in [(0, 3), (1, 3), (2, 3), (4, 0), (5, 1)] {
            b.add_edge_p(u, v, 1.0).unwrap();
        }
        for u in 6..6 + fan {
            b.add_edge_p(u, 5, 1.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn p1_uniform_node_yields_full_closure_through_the_skip_path() {
        let g = certain_fan_in();
        let (p, src) = g.in_sources_uniform(3).expect("uniform in-edges");
        assert_eq!(p, 1.0);
        assert_eq!(src, &[0, 1, 2]);
        // 5's fan-in is longer than SHORT_TAIL, so it takes the logarithm.
        assert!(g.in_sources_uniform(5).unwrap().1.len() > SHORT_TAIL);
        let mut s = ReverseSampler::new(g.n());
        let mut rng = SmallRng::seed_from_u64(9);
        let mut out = Vec::new();
        for _ in 0..100 {
            let examined = s.sample_into(&g, Model::IC, None, &[3], &mut rng, &mut out);
            let mut set = out.clone();
            set.sort_unstable();
            assert_eq!(set, (0..g.n() as NodeId).collect::<Vec<_>>());
            assert_eq!(examined, g.m(), "every drawn edge has an alive source");
        }
    }

    #[test]
    fn dead_source_drawn_by_the_skip_is_dropped() {
        let g = certain_fan_in();
        let mut alive = vec![true; g.n()];
        alive[1] = false;
        let mut s = ReverseSampler::new(g.n());
        let mut rng = SmallRng::seed_from_u64(10);
        let mut out = Vec::new();
        let examined = s.sample_into(&g, Model::IC, Some(&alive), &[3], &mut rng, &mut out);
        out.sort_unstable();
        // 1 is dead, so 5 and its fan-in (reachable only through 1) are
        // out as well.
        assert_eq!(out, vec![0, 2, 3, 4]);
        assert_eq!(examined, 3, "the dead source's slot is not counted");
    }

    #[test]
    fn mixed_node_takes_the_coin_flip_path() {
        // 2's in-probabilities differ; 0 and 1 have no in-edges. Every
        // dequeued node therefore flips coins, so the sampler consumes the
        // RNG exactly like the reference and returns identical sets.
        let mut b = GraphBuilder::new(3);
        b.add_edge_p(0, 2, 0.3).unwrap();
        b.add_edge_p(1, 2, 0.6).unwrap();
        let g = b.build().unwrap();
        assert!(g.in_sources_uniform(2).is_none());
        assert!(g.in_sources_uniform(0).is_none());
        let mut s = ReverseSampler::new(3);
        let mut rng = SmallRng::seed_from_u64(13);
        let mut ref_rng = SmallRng::seed_from_u64(13);
        for _ in 0..1_000 {
            assert_eq!(
                s.sample(&g, Model::IC, None, &[2], &mut rng),
                reference_ic(&g, None, &[2], &mut ref_rng)
            );
        }
    }

    fn path3(p: f64) -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge_p(0, 1, p).unwrap();
        b.add_edge_p(1, 2, p).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn p1_gives_full_ancestor_closure() {
        let g = path3(1.0);
        let mut s = ReverseSampler::new(3);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut rr = s.sample(&g, Model::IC, None, &[2], &mut rng);
        rr.sort_unstable();
        assert_eq!(rr, vec![0, 1, 2]);
    }

    #[test]
    fn tiny_p_gives_root_only() {
        let g = path3(1e-12);
        let mut s = ReverseSampler::new(3);
        let mut rng = SmallRng::seed_from_u64(1);
        let rr = s.sample(&g, Model::IC, None, &[2], &mut rng);
        assert_eq!(rr, vec![2]);
    }

    #[test]
    fn root_always_present() {
        let g = path3(0.5);
        let mut s = ReverseSampler::new(3);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..100 {
            let rr = s.sample(&g, Model::IC, None, &[1], &mut rng);
            assert!(rr.contains(&1));
        }
    }

    #[test]
    fn membership_rate_equals_reach_probability() {
        // P[0 ∈ RR(2)] = P[0 reaches 2] = p².
        let g = path3(0.5);
        let mut s = ReverseSampler::new(3);
        let mut rng = SmallRng::seed_from_u64(3);
        let trials = 40_000;
        let mut hits = 0usize;
        for _ in 0..trials {
            if s.sample(&g, Model::IC, None, &[2], &mut rng).contains(&0) {
                hits += 1;
            }
        }
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn alive_mask_blocks_dead_nodes() {
        let g = path3(1.0);
        let mut s = ReverseSampler::new(3);
        let mut rng = SmallRng::seed_from_u64(4);
        let alive = vec![true, false, true];
        // node 1 is dead: 0 can no longer reach 2 inside the residual graph
        let rr = s.sample(&g, Model::IC, Some(&alive), &[2], &mut rng);
        assert_eq!(rr, vec![2]);
        // a dead root yields an empty set
        let rr = s.sample(&g, Model::IC, Some(&alive), &[1], &mut rng);
        assert!(rr.is_empty());
    }

    #[test]
    fn multi_root_is_union_like() {
        let g = path3(1.0);
        let mut s = ReverseSampler::new(3);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut rr = s.sample(&g, Model::IC, None, &[0, 2], &mut rng);
        rr.sort_unstable();
        assert_eq!(rr, vec![0, 1, 2]);
        // duplicated roots are not double-counted
        let rr = s.sample(&g, Model::IC, None, &[0, 0], &mut rng);
        assert_eq!(rr, vec![0]);
    }

    #[test]
    fn lt_membership_rate_matches_choice_probability() {
        // v2 has two parents each with p = 0.3; P[0 ∈ RR(2)] = 0.3.
        let mut b = GraphBuilder::new(3);
        b.add_edge_p(0, 2, 0.3).unwrap();
        b.add_edge_p(1, 2, 0.3).unwrap();
        let g = b.build().unwrap();
        let mut s = ReverseSampler::new(3);
        let mut rng = SmallRng::seed_from_u64(6);
        let trials = 40_000;
        let mut hit0 = 0usize;
        let mut both = 0usize;
        for _ in 0..trials {
            let rr = s.sample(&g, Model::LT, None, &[2], &mut rng);
            if rr.contains(&0) {
                hit0 += 1;
            }
            if rr.contains(&0) && rr.contains(&1) {
                both += 1;
            }
        }
        let rate = hit0 as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate = {rate}");
        assert_eq!(both, 0, "LT keeps at most one live in-edge");
    }

    #[test]
    fn lt_scan_over_the_source_column_matches_the_in_edges_scan() {
        // The pre-split LT loop over `in_edges`; uniform nodes now scan the
        // source column instead, which must not move a single choice.
        fn reference_lt(g: &Graph, root: NodeId, rng: &mut impl Rng) -> (Vec<NodeId>, usize) {
            let (mut out, mut scanned) = (vec![root], 0);
            let mut head = 0;
            while head < out.len() {
                let v = out[head];
                head += 1;
                let mut r = rng.random::<f64>();
                for (u, p, _) in g.in_edges(v) {
                    scanned += 1;
                    if r < p {
                        if !out.contains(&u) {
                            out.push(u);
                        }
                        break;
                    }
                    r -= p;
                }
            }
            (out, scanned)
        }
        let g = wc_chung_lu(300, 2_400, 25);
        let mut s = ReverseSampler::new(300);
        let (mut rng, mut ref_rng) = (SmallRng::seed_from_u64(14), SmallRng::seed_from_u64(14));
        let mut out = Vec::new();
        for root in (0..300).cycle().take(3_000) {
            let scanned = s.sample_into(&g, Model::LT, None, &[root], &mut rng, &mut out);
            assert_eq!((out.clone(), scanned), reference_lt(&g, root, &mut ref_rng));
        }
    }

    #[test]
    fn lt_dead_chosen_source_maps_to_none() {
        let mut b = GraphBuilder::new(2);
        b.add_edge_p(0, 1, 1.0).unwrap();
        let g = b.build().unwrap();
        let mut s = ReverseSampler::new(2);
        let mut rng = SmallRng::seed_from_u64(7);
        let alive = vec![false, true];
        let rr = s.sample(&g, Model::LT, Some(&alive), &[1], &mut rng);
        assert_eq!(rr, vec![1]);
    }

    #[test]
    fn scratch_is_clean_between_samples() {
        let g = path3(1.0);
        let mut s = ReverseSampler::new(3);
        let mut rng = SmallRng::seed_from_u64(8);
        let a = s.sample(&g, Model::IC, None, &[2], &mut rng);
        assert_eq!(a.len(), 3);
        let b = s.sample(&g, Model::IC, None, &[0], &mut rng);
        assert_eq!(b, vec![0]);
        let c = s.sample(&g, Model::IC, None, &[2], &mut rng);
        assert_eq!(c.len(), 3);
    }
}
