//! Graph reordering algorithms that reduce the number of non-empty octiles.
//!
//! Section IV-A of the paper exploits inter-tile sparsity by renumbering
//! the vertices of each graph so that its nonzeros aggregate into as few
//! 8×8 tiles as possible. [`ReorderMethod`] holds the orders a solver can
//! run from the graph alone:
//!
//! * [`pbr_order`] — the paper's partition-based reordering (PBR):
//!   recursive bisection with Fiduccia–Mattheyses refinement, targeting the
//!   non-empty-tile objective directly. The paper finds this the most
//!   effective method across all datasets.
//! * [`ReorderMethod::Rcm`] — Reverse Cuthill–McKee bandwidth reduction,
//!   the paper's baseline.
//!
//! [`hilbert_order`] orders vertices that carry a 3D embedding along a
//! Hilbert curve; it reads coordinates, not the graph, so only the report
//! bins and examples that hold coordinates call it.
//!
//! All orderings are returned in the same convention used by
//! [`mgk_graph::Graph::permute`]: `order[k]` is the original index of the
//! vertex placed at position `k`.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod objective;
mod pbr;
mod rcm;
mod sfc;

pub use objective::{count_nonempty_tiles, nonempty_tiles_of_order};
pub use pbr::{pbr_order, PbrConfig};
pub use sfc::hilbert_order;

use mgk_graph::Graph;

/// The reordering method to apply before tiling a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReorderMethod {
    /// Keep the natural (input) vertex order.
    #[default]
    Natural,
    /// Reverse Cuthill–McKee.
    Rcm,
    /// Partition-based reordering (the paper's contribution).
    Pbr,
}

impl ReorderMethod {
    /// Compute the vertex order for `g` under this method.
    pub fn compute_order<V, E>(self, g: &Graph<V, E>) -> Vec<u32> {
        match self {
            ReorderMethod::Natural => (0..g.num_vertices() as u32).collect(),
            ReorderMethod::Rcm => rcm::rcm_order(g),
            ReorderMethod::Pbr => pbr_order(g, &PbrConfig::default()),
        }
    }

    /// Short display name used by the benchmark reports.
    pub fn name(self) -> &'static str {
        match self {
            ReorderMethod::Natural => "natural",
            ReorderMethod::Rcm => "RCM",
            ReorderMethod::Pbr => "PBR",
        }
    }
}

/// Check that `order` is a permutation of `0..n`. Only tests call it: this
/// crate's, and the workspace's property tests.
pub fn is_permutation(order: &[u32], n: usize) -> bool {
    if order.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &v in order {
        let v = v as usize;
        if v >= n || seen[v] {
            return false;
        }
        seen[v] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgk_graph::Graph;

    #[test]
    fn natural_order_is_identity() {
        let g = Graph::from_edge_list(5, &[(0, 1), (3, 4)]);
        let order = ReorderMethod::Natural.compute_order(&g);
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn every_method_returns_a_permutation() {
        let g = Graph::from_edge_list(
            20,
            &[(0, 5), (5, 10), (10, 15), (15, 19), (1, 2), (2, 3), (7, 8), (12, 13), (0, 19)],
        );
        for m in [ReorderMethod::Natural, ReorderMethod::Rcm, ReorderMethod::Pbr] {
            let order = m.compute_order(&g);
            assert!(is_permutation(&order, 20), "{} did not return a permutation", m.name());
        }
    }

    #[test]
    fn is_permutation_detects_problems() {
        assert!(is_permutation(&[2, 0, 1], 3));
        assert!(!is_permutation(&[0, 0, 1], 3));
        assert!(!is_permutation(&[0, 1], 3));
        assert!(!is_permutation(&[0, 1, 3], 3));
    }
}
