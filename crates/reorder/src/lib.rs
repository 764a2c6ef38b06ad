//! Graph reordering algorithms that reduce the number of non-empty octiles.
//!
//! Section IV-A of the paper exploits inter-tile sparsity by renumbering
//! the vertices of each graph so that its nonzeros aggregate into as few
//! 8×8 tiles as possible. Four families of heuristics are compared:
//!
//! * [`pbr::pbr_order`] — the paper's partition-based reordering (PBR):
//!   recursive bisection with Fiduccia–Mattheyses refinement, targeting the
//!   non-empty-tile objective directly. The paper finds this the most
//!   effective method across all datasets.
//! * [`rcm::rcm_order`] — Reverse Cuthill–McKee bandwidth reduction.
//! * [`sfc::morton_order`] / [`sfc::hilbert_order`] — space-filling curve
//!   orders for graphs whose vertices carry a 3D embedding.
//! * [`tsp::tsp_order`] — a travelling-salesman heuristic over row-pattern
//!   similarity (nearest neighbour construction + 2-opt refinement).
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

pub mod objective;
pub mod pbr;
pub mod rcm;
pub mod sfc;
pub mod tsp;

pub use objective::{count_nonempty_tiles, nonempty_tiles_of_order};
pub use pbr::{pbr_order, PbrConfig};
pub use rcm::rcm_order;
pub use sfc::{hilbert_order, morton_order};
pub use tsp::tsp_order;

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
    /// Morton (Z-order) curve over a 3D embedding; falls back to RCM when
    /// no coordinates are available.
    Morton,
    /// Hilbert curve over a 3D embedding; falls back to RCM when no
    /// coordinates are available.
    Hilbert,
    /// Travelling-salesman heuristic over adjacency-row similarity.
    Tsp,
}

impl ReorderMethod {
    /// Compute the vertex order for `g` under this method. `coords`
    /// supplies an optional 3D embedding used by the space-filling-curve
    /// methods.
    pub fn compute_order<V, E>(self, g: &Graph<V, E>, coords: Option<&[[f32; 3]]>) -> Vec<u32> {
        let n = g.num_vertices();
        match self {
            ReorderMethod::Natural => (0..n as u32).collect(),
            ReorderMethod::Rcm => rcm_order(g),
            ReorderMethod::Pbr => pbr_order(g, &PbrConfig::default()),
            ReorderMethod::Morton => match coords {
                Some(c) => morton_order(c),
                None => rcm_order(g),
            },
            ReorderMethod::Hilbert => match coords {
                Some(c) => hilbert_order(c),
                None => rcm_order(g),
            },
            ReorderMethod::Tsp => tsp_order(g),
        }
    }

    /// Short display name used by the benchmark reports.
    pub fn name(self) -> &'static str {
        match self {
            ReorderMethod::Natural => "natural",
            ReorderMethod::Rcm => "RCM",
            ReorderMethod::Pbr => "PBR",
            ReorderMethod::Morton => "Morton",
            ReorderMethod::Hilbert => "Hilbert",
            ReorderMethod::Tsp => "TSP",
        }
    }
}

/// Check that `order` is a permutation of `0..n`. Used by tests and debug
/// assertions throughout the crate.
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
        let order = ReorderMethod::Natural.compute_order(&g, None);
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn every_method_returns_a_permutation() {
        let g = Graph::from_edge_list(
            20,
            &[(0, 5), (5, 10), (10, 15), (15, 19), (1, 2), (2, 3), (7, 8), (12, 13), (0, 19)],
        );
        let coords: Vec<[f32; 3]> = (0..20).map(|i| [i as f32, (i % 3) as f32, 0.0]).collect();
        for m in [
            ReorderMethod::Natural,
            ReorderMethod::Rcm,
            ReorderMethod::Pbr,
            ReorderMethod::Morton,
            ReorderMethod::Hilbert,
            ReorderMethod::Tsp,
        ] {
            let order = m.compute_order(&g, Some(&coords));
            assert!(is_permutation(&order, 20), "{} did not return a permutation", m.name());
        }
    }

    #[test]
    fn sfc_methods_fall_back_without_coordinates() {
        let g = Graph::from_edge_list(10, &[(0, 1), (1, 2), (8, 9)]);
        let morton = ReorderMethod::Morton.compute_order(&g, None);
        let rcm = ReorderMethod::Rcm.compute_order(&g, None);
        assert_eq!(morton, rcm);
    }

    #[test]
    fn is_permutation_detects_problems() {
        assert!(is_permutation(&[2, 0, 1], 3));
        assert!(!is_permutation(&[0, 0, 1], 3));
        assert!(!is_permutation(&[0, 1], 3));
        assert!(!is_permutation(&[0, 1, 3], 3));
    }
}
