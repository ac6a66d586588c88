//! Synthetic social-network generators.
//!
//! The paper evaluates on four SNAP datasets (NetHEPT, Epinions, Youtube,
//! LiveJournal). Those files are not redistributable with this repository, so
//! the benchmark harness substitutes structurally-matched synthetic graphs:
//! a directed Chung–Lu model reproduces each dataset's size and power-law
//! degree shape (Figure 3), and the classic Barabási–Albert, Erdős–Rényi and
//! Watts–Strogatz models are provided for ablations and tests.
//!
//! Every generator is deterministic given the `Rng` it is handed.

mod alias;
mod ba;
mod chung_lu;
mod er;
mod rmat;
mod ws;

pub use alias::AliasTable;
pub use ba::barabasi_albert;
pub use chung_lu::{chung_lu_directed, power_law_weights, try_chung_lu_directed};
pub use er::erdos_renyi;
pub use rmat::{rmat, RmatParams};
pub use ws::watts_strogatz;

use crate::csr::NodeId;
use crate::error::GraphError;
use crate::weights::{apply_weights, WeightModel};
use crate::{Graph, GraphBuilder};
use rand::Rng;

/// Turns a generated pair list into a weighted [`Graph`], mirroring edges for
/// undirected families and applying `model` afterwards.
pub fn assemble(
    n: usize,
    pairs: &[(NodeId, NodeId)],
    directed: bool,
    model: WeightModel,
    rng: &mut impl Rng,
) -> Result<Graph, GraphError> {
    let mut b = GraphBuilder::with_capacity(
        n,
        if directed {
            pairs.len()
        } else {
            pairs.len() * 2
        },
    );
    for &(u, v) in pairs {
        if directed {
            b.add_edge(u, v)?;
        } else {
            b.add_undirected_p(u, v, 1.0)?;
        }
    }
    let structural = b.build()?;
    Ok(apply_weights(&structural, model, rng))
}

/// A generator request as `asm generate` flags or a `/v1/graphs`
/// `"generate"` body spell it: the family (`chung-lu | ba | er | ws`), `n`,
/// and the family's optional parameters. Parameters another family uses are
/// ignored; missing ones take the documented defaults.
#[derive(Debug, Default)]
pub struct GeneratorSpec {
    pub kind: String,
    pub n: usize,
    /// Edge count for `chung-lu` / `er` (default `5n`).
    pub m: Option<usize>,
    /// Power-law exponent for `chung-lu` (default 2.1).
    pub gamma: Option<f64>,
    /// Attachments per node for `ba` (default 4).
    pub attach: Option<usize>,
    /// Ring degree for `ws` (default 6).
    pub k: Option<usize>,
    /// Rewiring probability for `ws` (default 0.1).
    pub beta: Option<f64>,
}

/// A precondition a [`GeneratorSpec`] breaks: the offending parameter, named
/// as the CLI flag / JSON key spells it, and what is wrong with it.
#[derive(Debug)]
pub struct SpecError {
    pub param: &'static str,
    pub message: String,
}

impl GeneratorSpec {
    /// Checks every precondition of the chosen generator, then runs it.
    /// Returns the pair list and whether it is directed (feed both to
    /// [`assemble`]). The generators assert their preconditions, so this is
    /// the entry point for untrusted input: a spec that breaks one gets a
    /// [`SpecError`] naming the parameter, never a panic.
    pub fn generate(&self, rng: &mut impl Rng) -> Result<(Vec<(NodeId, NodeId)>, bool), SpecError> {
        fn check(
            ok: bool,
            param: &'static str,
            message: impl FnOnce() -> String,
        ) -> Result<(), SpecError> {
            if ok {
                Ok(())
            } else {
                Err(SpecError {
                    param,
                    message: message(),
                })
            }
        }
        let (kind, n) = (self.kind.as_str(), self.n);
        check(n >= 1, "n", || "generator needs n >= 1".into())?;
        check(u32::try_from(n).is_ok(), "n", || {
            format!("generator needs n <= {} (node ids are 32-bit)", u32::MAX)
        })?;
        // `m` for the two edge-count generators: default 5n, at least two
        // nodes, and no more distinct directed edges than n(n-1).
        let edge_count = || -> Result<usize, SpecError> {
            let m = match self.m {
                Some(m) => m,
                None => n.checked_mul(5).ok_or_else(|| SpecError {
                    param: "n",
                    message: format!("default m = 5n overflows for n = {n}"),
                })?,
            };
            check(n >= 2, "n", || format!("generator '{kind}' needs n >= 2"))?;
            check((m as u128) <= (n as u128) * (n as u128 - 1), "m", || {
                format!("cannot place {m} distinct directed edges on {n} nodes")
            })?;
            Ok(m)
        };
        match kind {
            "chung-lu" => {
                let m = edge_count()?;
                let gamma = self.gamma.unwrap_or(2.1);
                check(gamma > 1.0, "gamma", || {
                    format!("chung-lu needs gamma > 1, got {gamma}")
                })?;
                let pairs = try_chung_lu_directed(n, m, gamma, rng).ok_or_else(|| SpecError {
                    param: "m",
                    message: format!(
                        "chung-lu stalled placing {m} distinct edges on {n} nodes; lower m or raise gamma"
                    ),
                })?;
                Ok((pairs, true))
            }
            "er" => {
                let m = edge_count()?;
                Ok((erdos_renyi(n, m, rng), true))
            }
            "ba" => {
                let attach = self.attach.unwrap_or(4);
                check(attach >= 1, "attach", || "ba needs attach >= 1".into())?;
                check(n > attach, "attach", || {
                    format!("ba needs more nodes ({n}) than attachments per node ({attach})")
                })?;
                Ok((barabasi_albert(n, attach, rng), false))
            }
            "ws" => {
                let k = self.k.unwrap_or(6);
                let beta = self.beta.unwrap_or(0.1);
                check(k >= 2 && k.is_multiple_of(2), "k", || {
                    format!("ws needs an even k >= 2, got {k}")
                })?;
                check(n > k, "k", || {
                    format!("ws needs n > k, got n = {n}, k = {k}")
                })?;
                check((0.0..=1.0).contains(&beta), "beta", || {
                    format!("ws needs beta in [0, 1], got {beta}")
                })?;
                Ok((watts_strogatz(n, k, beta, rng), false))
            }
            other => Err(SpecError {
                param: "kind",
                message: format!("unknown generator '{other}' (chung-lu | ba | er | ws)"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn spec_errors_name_the_parameter_instead_of_panicking() {
        let spec = |kind: &str, n: usize| GeneratorSpec {
            kind: kind.into(),
            n,
            ..GeneratorSpec::default()
        };
        for (bad, param) in [
            (spec("er", 0), "n"),
            (spec("er", 1), "n"),
            (spec("ba", 1 << 33), "n"),
            (spec("er", usize::MAX / 2), "n"),
            (
                GeneratorSpec {
                    m: Some(13),
                    ..spec("er", 4)
                },
                "m",
            ),
            (
                GeneratorSpec {
                    gamma: Some(0.5),
                    ..spec("chung-lu", 100)
                },
                "gamma",
            ),
            (
                GeneratorSpec {
                    attach: Some(5),
                    ..spec("ba", 3)
                },
                "attach",
            ),
            (
                GeneratorSpec {
                    attach: Some(0),
                    ..spec("ba", 3)
                },
                "attach",
            ),
            (
                GeneratorSpec {
                    k: Some(3),
                    ..spec("ws", 10)
                },
                "k",
            ),
            (
                GeneratorSpec {
                    k: Some(10),
                    ..spec("ws", 10)
                },
                "k",
            ),
            (
                GeneratorSpec {
                    beta: Some(1.5),
                    ..spec("ws", 10)
                },
                "beta",
            ),
            (spec("nope", 10), "kind"),
        ] {
            let err = bad.generate(&mut SmallRng::seed_from_u64(1)).unwrap_err();
            assert_eq!(err.param, param, "{bad:?}: {err:?}");
        }
        // The limits themselves are accepted.
        let (pairs, directed) = GeneratorSpec {
            m: Some(12),
            ..spec("er", 4)
        }
        .generate(&mut SmallRng::seed_from_u64(1))
        .unwrap();
        assert_eq!((pairs.len(), directed), (12, true));
        let (_, directed) = GeneratorSpec {
            attach: Some(4),
            ..spec("ba", 5)
        }
        .generate(&mut SmallRng::seed_from_u64(1))
        .unwrap();
        assert!(!directed);
    }

    #[test]
    fn assemble_undirected_mirrors() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = assemble(
            3,
            &[(0, 1), (1, 2)],
            false,
            WeightModel::Uniform(0.2),
            &mut rng,
        )
        .unwrap();
        assert_eq!(g.m(), 4);
        assert!(g.has_edge(2, 1) && g.has_edge(1, 2));
    }

    #[test]
    fn assemble_directed_keeps_orientation() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = assemble(3, &[(0, 1)], true, WeightModel::WeightedCascade, &mut rng).unwrap();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
    }
}
