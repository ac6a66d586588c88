//! Immutable CSR graph with forward and reverse adjacency.
//!
//! Reverse adjacency is first-class because reverse reachable set sampling
//! (the hot path of TRIM) traverses incoming edges. Each reverse slot also
//! records the *forward edge index* of the same edge so that edge-level state
//! (e.g. live/blocked status in an IC realization) can be shared between the
//! two directions.

use crate::cast::u32_of;

/// Node identifier. Graphs are limited to `u32::MAX` nodes, which covers the
/// largest dataset in the paper (LiveJournal, 4.85M nodes) with room to spare
/// while halving index memory compared to `usize`.
pub type NodeId = u32;

/// Edge count below which CSR construction and snapshot decoding run inline:
/// thread spawn overhead outweighs the parallelism. Purely a performance
/// knob — the output is bit-identical either way.
pub(crate) const MIN_PARALLEL_EDGES: usize = 1 << 18;

/// Worker count for parallel graph construction/decoding: the `SMIN_THREADS`
/// override first, then [`std::thread::available_parallelism`], capped at 8
/// (the work is memory-bandwidth bound beyond that). Every result is
/// bit-identical for every worker count; this only sets the wall-clock.
pub(crate) fn build_workers(m: usize) -> usize {
    if m < MIN_PARALLEL_EDGES {
        return 1;
    }
    let t = std::env::var("SMIN_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |t| t.get()));
    t.min(8)
}

/// Reverse adjacency of a [`Graph`], stored as parallel columns indexed by
/// reverse slot: source ids, forward edge ids and probabilities. On a node
/// whose in-edges share one probability the RR samplers read only the
/// 4-byte `src` column, a quarter of an interleaved `(src, eid, p)` record
/// array: 1 MB instead of 4 MB at 250k edges, which fits a core's L2.
#[derive(Clone, Debug)]
struct RevCsr {
    off: Vec<usize>,
    src: Vec<NodeId>,
    eid: Vec<u32>,
    prob: Vec<f64>,
    /// Per node: the probability `p` every in-edge carries, when they all
    /// carry the bit-identical `p` (weighted cascade, uniform weights) and
    /// `1 − p ∈ [0, 1)`; NaN when the in-probabilities differ, `p` is out of
    /// range or too small for `1 − p` to fall below 1, or there are no
    /// in-edges.
    uniform_p: Vec<f64>,
}

/// A directed probabilistic graph in compressed-sparse-row form.
///
/// Construction goes through [`GraphBuilder`](crate::GraphBuilder); the
/// resulting graph is immutable. Edges within a node's adjacency are sorted by
/// neighbor id and deduplicated according to the builder's policy.
///
/// The reverse CSR is materialized lazily on the first reverse traversal:
/// loading a snapshot, registering a graph, or restarting a server never pays
/// the O(n + m) transpose, only the first RR-sampling query does — once per
/// graph, with a result that is bit-identical no matter when or from how many
/// threads it is first demanded.
#[derive(Clone, Debug)]
pub struct Graph {
    n: usize,
    fwd_off: Vec<usize>,
    fwd_dst: Vec<NodeId>,
    fwd_prob: Vec<f64>,
    rev: std::sync::OnceLock<RevCsr>,
}

impl Graph {
    /// Assembles a graph from already-sorted CSR arrays. Used by the builder;
    /// not public because it does not validate invariants.
    pub(crate) fn from_csr(
        n: usize,
        fwd_off: Vec<usize>,
        fwd_dst: Vec<NodeId>,
        fwd_prob: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(fwd_off.len(), n + 1);
        debug_assert_eq!(fwd_prob.len(), fwd_dst.len());
        Graph {
            n,
            fwd_off,
            fwd_dst,
            fwd_prob,
            rev: std::sync::OnceLock::new(),
        }
    }

    /// The reverse CSR, built on first use.
    #[inline]
    fn rev(&self) -> &RevCsr {
        self.rev.get_or_init(|| {
            let workers = build_workers(self.m());
            build_reverse(
                self.n,
                &self.fwd_off,
                &self.fwd_dst,
                &self.fwd_prob,
                workers,
            )
        })
    }

    /// Raw forward-CSR columns `(offsets, targets, probabilities)` for the
    /// snapshot encoder. Crate-private: the slices expose internal layout.
    pub(crate) fn csr_columns(&self) -> (&[usize], &[NodeId], &[f64]) {
        (&self.fwd_off, &self.fwd_dst, &self.fwd_prob)
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of directed edges `m`.
    #[inline]
    pub fn m(&self) -> usize {
        self.fwd_dst.len()
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        let u = u as usize;
        self.fwd_off[u + 1] - self.fwd_off[u]
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        let rev = self.rev();
        rev.off[v + 1] - rev.off[v]
    }

    /// Outgoing neighbors of `u` with propagation probabilities, sorted by id.
    #[inline]
    pub fn out_edges(&self, u: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let u = u as usize;
        let r = self.fwd_off[u]..self.fwd_off[u + 1];
        self.fwd_dst[r.clone()]
            .iter()
            .copied()
            .zip(self.fwd_prob[r].iter().copied())
    }

    /// Outgoing neighbors of `u` together with the forward edge index.
    #[inline]
    pub fn out_edges_indexed(&self, u: NodeId) -> impl Iterator<Item = (u32, NodeId, f64)> + '_ {
        let u = u as usize;
        let r = self.fwd_off[u]..self.fwd_off[u + 1];
        r.clone()
            .map(u32_of)
            .zip(self.fwd_dst[r.clone()].iter().copied())
            .zip(self.fwd_prob[r].iter().copied())
            .map(|((e, v), p)| (e, v, p))
    }

    /// Incoming neighbors of `v`: `(source, probability, forward edge index)`.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = (NodeId, f64, u32)> + '_ {
        let v = v as usize;
        let rev = self.rev();
        let r = rev.off[v]..rev.off[v + 1];
        rev.src[r.clone()]
            .iter()
            .zip(&rev.prob[r.clone()])
            .zip(&rev.eid[r])
            .map(|((&u, &p), &e)| (u, p, e))
    }

    /// When every in-edge of `v` carries the same probability `p`, returns
    /// `(p, sources)` with the sources in [`in_edges`](Self::in_edges)
    /// order; `None` when the in-probabilities differ, `p` is out of range
    /// or too small for `1 − p` to fall below 1, or `v` has no in-edges.
    #[inline]
    pub fn in_sources_uniform(&self, v: NodeId) -> Option<(f64, &[NodeId])> {
        let v = v as usize;
        let rev = self.rev();
        let p = rev.uniform_p[v];
        (!p.is_nan()).then(|| (p, &rev.src[rev.off[v]..rev.off[v + 1]]))
    }

    /// Probability attached to forward edge index `e`.
    #[inline]
    pub fn edge_prob(&self, e: u32) -> f64 {
        self.fwd_prob[e as usize]
    }

    /// Destination of forward edge index `e`.
    #[inline]
    pub fn edge_dst(&self, e: u32) -> NodeId {
        self.fwd_dst[e as usize]
    }

    /// Iterates every edge as `(u, v, p)` in forward CSR order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        (0..self.n).flat_map(move |u| {
            self.out_edges(u as NodeId)
                .map(move |(v, p)| (u as NodeId, v, p))
        })
    }

    /// Returns whether the directed edge `⟨u, v⟩` exists (binary search).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let r = self.fwd_off[u as usize]..self.fwd_off[u as usize + 1];
        self.fwd_dst[r].binary_search(&v).is_ok()
    }

    /// Sum of incoming probabilities of `v`; the LT model requires this to be
    /// at most 1 for every node.
    pub fn in_prob_sum(&self, v: NodeId) -> f64 {
        self.in_edges(v).map(|(_, p, _)| p).sum()
    }

    /// `true` when every node's incoming probabilities sum to at most
    /// `1 + 1e-9` (tolerance for floating point accumulation), i.e. the graph
    /// is a valid LT instance.
    pub fn is_valid_lt(&self) -> bool {
        (0..self.n).all(|v| self.in_prob_sum(v as NodeId) <= 1.0 + 1e-9)
    }

    /// Replaces every edge probability via `f(u, v, current)` keeping the
    /// structure; used by [`weights`](crate::weights) to apply weight models.
    pub fn map_probabilities(&self, mut f: impl FnMut(NodeId, NodeId, f64) -> f64) -> Graph {
        let mut fwd_prob = Vec::with_capacity(self.m());
        for u in 0..self.n {
            for e in self.fwd_off[u]..self.fwd_off[u + 1] {
                fwd_prob.push(f(u as NodeId, self.fwd_dst[e], self.fwd_prob[e]));
            }
        }
        Graph::from_csr(self.n, self.fwd_off.clone(), self.fwd_dst.clone(), fwd_prob)
    }

    /// Memory footprint of the CSR arrays in bytes (diagnostics). Counts the
    /// reverse CSR as if materialized — its size is implied by `n` and `m` —
    /// so the figure is deterministic regardless of whether a reverse
    /// traversal has happened yet.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.fwd_off.len() * size_of::<usize>() * 2
            + self.n * size_of::<f64>()
            + self.fwd_dst.len()
                * (size_of::<NodeId>() * 2 + size_of::<f64>() * 2 + size_of::<u32>())
    }
}

/// Builds the reverse CSR from forward columns: a counting pass, a prefix
/// sum, then [`RevRange::fill`]. With several `workers` (see
/// [`build_workers`]) the target-id space is split into contiguous ranges of
/// roughly equal in-edge mass and each worker fills only its own range into
/// its own disjoint slices of the columns — slot positions are a pure
/// function of the input, so the result is bit-identical for every worker
/// count.
fn build_reverse(
    n: usize,
    fwd_off: &[usize],
    fwd_dst: &[NodeId],
    fwd_prob: &[f64],
    workers: usize,
) -> RevCsr {
    let m = fwd_dst.len();
    let mut off = vec![0usize; n + 1];
    for &v in fwd_dst {
        off[v as usize + 1] += 1;
    }
    for i in 0..n {
        off[i + 1] += off[i];
    }
    let mut rev = RevCsr {
        src: vec![0; m],
        eid: vec![0; m],
        prob: vec![0.0; m],
        uniform_p: vec![0.0; n],
        off,
    };
    let fwd = (fwd_off, fwd_dst, fwd_prob);
    let off = &rev.off;
    let mut all = RevRange {
        vlo: 0,
        src: &mut rev.src,
        eid: &mut rev.eid,
        prob: &mut rev.prob,
        uniform_p: &mut rev.uniform_p,
    };
    if workers <= 1 {
        all.fill(fwd, off);
    } else {
        let bounds = balance_bounds(off, workers);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let (mine, rest) = all.split_at(bounds[w + 1], off);
                all = rest;
                scope.spawn(move || mine.fill(fwd, off));
            }
        });
    }
    rev
}

/// The reverse-CSR columns of the target nodes
/// `[vlo, vlo + uniform_p.len())`:
/// their slots `[off[vlo], off[vlo] + src.len())` of the edge columns and
/// their entries of the per-node column.
struct RevRange<'a> {
    vlo: usize,
    src: &'a mut [NodeId],
    eid: &'a mut [u32],
    prob: &'a mut [f64],
    uniform_p: &'a mut [f64],
}

impl<'a> RevRange<'a> {
    /// Splits off the nodes below `vmid`, which must lie in this range.
    fn split_at(self, vmid: usize, off: &[usize]) -> (Self, Self) {
        let k = off[vmid] - off[self.vlo];
        let (src, src_tail) = self.src.split_at_mut(k);
        let (eid, eid_tail) = self.eid.split_at_mut(k);
        let (prob, prob_tail) = self.prob.split_at_mut(k);
        let (uniform_p, uniform_p_tail) = self.uniform_p.split_at_mut(vmid - self.vlo);
        (
            RevRange {
                vlo: self.vlo,
                src,
                eid,
                prob,
                uniform_p,
            },
            RevRange {
                vlo: vmid,
                src: src_tail,
                eid: eid_tail,
                prob: prob_tail,
                uniform_p: uniform_p_tail,
            },
        )
    }

    /// Fills this range in three passes:
    ///
    /// 1. scatter every forward edge whose target falls in the range into its
    ///    slot, in forward order within each target (so slot positions
    ///    depend only on the input), packing `(source, edge id)` into the
    ///    slot's 8-byte `prob` cell — one random write per edge;
    /// 2. walk the slots in order, unpacking into `src` / `eid` and
    ///    gathering each edge's probability;
    /// 3. walk the nodes in order, deriving each node's uniform `p`.
    fn fill(self, (fwd_off, fwd_dst, fwd_prob): (&[usize], &[NodeId], &[f64]), off: &[usize]) {
        let vhi = self.vlo + self.uniform_p.len();
        let base = off[self.vlo];
        let mut cursor: Vec<usize> = off[self.vlo..vhi].iter().map(|&o| o - base).collect();
        for u in 0..fwd_off.len() - 1 {
            let hi = u64::from(u32_of(u)) << 32;
            let r = fwd_off[u]..fwd_off[u + 1];
            for (e, &v) in r.clone().zip(&fwd_dst[r]) {
                let v = v as usize;
                if (self.vlo..vhi).contains(&v) {
                    let slot = cursor[v - self.vlo];
                    cursor[v - self.vlo] += 1;
                    self.prob[slot] = f64::from_bits(hi | u64::from(u32_of(e)));
                }
            }
        }
        let slots = self.prob.iter_mut().zip(self.src.iter_mut());
        for ((p, u), e) in slots.zip(self.eid.iter_mut()) {
            let packed = p.to_bits();
            *u = (packed >> 32) as NodeId;
            // smin-lint: allow(checked-cast) -- takes the low half of the word packed above
            *e = packed as u32;
            *p = fwd_prob[*e as usize];
        }
        let mut start = 0;
        for (up, &end) in self.uniform_p.iter_mut().zip(&off[self.vlo + 1..=vhi]) {
            let ps = &self.prob[start..end - base];
            start = end - base;
            *up = match ps {
                [p, rest @ ..]
                    if (0.0..1.0).contains(&(1.0 - p))
                        && rest.iter().all(|r| r.to_bits() == p.to_bits()) =>
                {
                    *p
                }
                _ => f64::NAN,
            };
        }
    }
}

/// Splits the target-id space `[0, n)` into `workers` contiguous ranges of
/// roughly equal in-edge mass, returning the `workers + 1` boundary ids.
fn balance_bounds(rev_off: &[usize], workers: usize) -> Vec<usize> {
    let n = rev_off.len() - 1;
    let m = rev_off[n];
    let mut bounds = Vec::with_capacity(workers + 1);
    bounds.push(0usize);
    for w in 1..workers {
        let target = m * w / workers;
        let v = rev_off.partition_point(|&o| o < target).min(n);
        bounds.push(v.max(bounds[w - 1]));
    }
    bounds.push(n);
    bounds
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;

    fn diamond() -> crate::Graph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut b = GraphBuilder::new(4);
        b.add_edge_p(0, 1, 0.5).unwrap();
        b.add_edge_p(0, 2, 0.25).unwrap();
        b.add_edge_p(1, 3, 1.0).unwrap();
        b.add_edge_p(2, 3, 0.75).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = diamond();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(0), 0);
    }

    #[test]
    fn adjacency_sorted_and_probs_attached() {
        let g = diamond();
        let out0: Vec<_> = g.out_edges(0).collect();
        assert_eq!(out0, vec![(1, 0.5), (2, 0.25)]);
        let in3: Vec<_> = g.in_edges(3).map(|(u, p, _)| (u, p)).collect();
        assert_eq!(in3, vec![(1, 1.0), (2, 0.75)]);
    }

    #[test]
    fn rev_edge_ids_point_back_to_forward_edges() {
        let g = diamond();
        for v in 0..4u32 {
            for (u, p, e) in g.in_edges(v) {
                assert_eq!(g.edge_dst(e), v);
                assert_eq!(g.edge_prob(e), p);
                // edge e must appear in u's forward range
                let found = g.out_edges_indexed(u).any(|(fe, fv, _)| fe == e && fv == v);
                assert!(
                    found,
                    "edge ({u},{v}) id {e} missing from forward adjacency"
                );
            }
        }
    }

    #[test]
    fn uniform_in_probability_is_reported_per_node() {
        // 3: in-edges 1.0 and 0.75 (mixed); 1: one 0.5 edge; 0: none.
        let g = diamond();
        assert!(g.in_sources_uniform(3).is_none());
        assert!(g.in_sources_uniform(0).is_none());
        let (p, src) = g.in_sources_uniform(1).unwrap();
        assert_eq!(p, 0.5);
        assert_eq!(src, &[0]);
        // 1 − 1e-17 rounds to 1: no skip distribution, so the coin flips.
        assert!(g
            .map_probabilities(|_, _, _| 1e-17)
            .in_sources_uniform(1)
            .is_none());
        let g = g.map_probabilities(|_, _, _| 1.0);
        let (p, src) = g.in_sources_uniform(3).unwrap();
        assert_eq!(p, 1.0);
        let in3: Vec<_> = g.in_edges(3).map(|(u, _, _)| u).collect();
        assert_eq!(src, &in3[..]);
    }

    #[test]
    fn reverse_build_is_bit_identical_for_any_worker_count() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        let mut b = GraphBuilder::new(200);
        for _ in 0..1_500 {
            let (u, v) = (rng.random_range(0..200u32), rng.random_range(0..200u32));
            if u != v {
                // Two probabilities, so uniform and mixed nodes both occur.
                let _ = b.add_edge_p(u, v, if u % 7 == 0 { 0.5 } else { 0.25 });
            }
        }
        let g = b.build().unwrap();
        let bits = |r: &super::RevCsr| {
            let f = |x: &[f64]| x.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            (
                r.off.clone(),
                r.src.clone(),
                r.eid.clone(),
                f(&r.prob),
                f(&r.uniform_p),
            )
        };
        let (off, dst, prob) = g.csr_columns();
        let one = bits(&super::build_reverse(g.n(), off, dst, prob, 1));
        assert!(one.4.iter().any(|&q| f64::from_bits(q).is_nan()));
        assert!(one.4.iter().any(|&q| !f64::from_bits(q).is_nan()));
        for workers in [2, 3, 8] {
            let many = bits(&super::build_reverse(g.n(), off, dst, prob, workers));
            assert!(one == many, "{workers} workers diverged");
        }
    }

    #[test]
    fn has_edge_binary_search() {
        let g = diamond();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(1, 0));
        assert!(!g.has_edge(3, 3));
    }

    #[test]
    fn edges_iterator_yields_all() {
        let g = diamond();
        let all: Vec<_> = g.edges().collect();
        assert_eq!(all.len(), 4);
        assert!(all.contains(&(0, 1, 0.5)));
        assert!(all.contains(&(2, 3, 0.75)));
    }

    #[test]
    fn map_probabilities_keeps_structure() {
        let g = diamond();
        let g2 = g.map_probabilities(|_, _, p| p / 2.0);
        assert_eq!(g2.n(), g.n());
        assert_eq!(g2.m(), g.m());
        let out0: Vec<_> = g2.out_edges(0).collect();
        assert_eq!(out0, vec![(1, 0.25), (2, 0.125)]);
    }

    #[test]
    fn lt_validity_check() {
        let g = diamond();
        // node 3 receives 1.0 + 0.75 > 1 -> invalid LT instance
        assert!(!g.is_valid_lt());
        let g2 = g.map_probabilities(|_, v, p| if v == 3 { p / 2.0 } else { p });
        assert!(g2.is_valid_lt());
    }
}
