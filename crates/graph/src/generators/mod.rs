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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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
