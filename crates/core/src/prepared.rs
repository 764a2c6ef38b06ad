//! One structure, prepared once.
//!
//! The paper converts a graph to octile storage once (after reordering) and
//! reuses it for every pair of the Gram matrix (Section IV). A
//! [`PreparedGraph`] is that unit: everything about one structure that no
//! partner changes, built by
//! [`MarginalizedKernelSolver::prepare_graph`](crate::MarginalizedKernelSolver::prepare_graph)
//! and shared by every system the structure takes part in.

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

use std::sync::Arc;

use mgk_graph::Graph;
use mgk_tile::OctileMatrix;

/// An immutable structure ready to be paired with any other: the prepared
/// (stopping-probability-overridden, reordered) graph, the reordering that
/// produced it, its Laplacian degrees and its octile matrix. It holds no
/// panel: a system expands its inner operand's, and only those.
#[derive(Debug)]
pub struct PreparedGraph<V, E> {
    graph: Graph<V, E>,
    /// The order `prepare` applied: prepared vertex `k` is input vertex
    /// `order[k]`. `None` when the input order was kept.
    order: Option<Vec<u32>>,
    degrees: Vec<f32>,
    /// `Arc`-shared with the product systems of the pairs this structure is
    /// in, which therefore own their operands without copying a tile.
    matrix: Arc<OctileMatrix<E>>,
}

impl<V, E: Copy + Default> PreparedGraph<V, E> {
    /// Tile an already prepared graph, `order` being the reordering
    /// applied to the input (`None` if none was).
    pub(crate) fn new(graph: Graph<V, E>, order: Option<Vec<u32>>) -> Self {
        let matrix = Arc::new(OctileMatrix::from_graph(&graph));
        PreparedGraph { degrees: graph.laplacian_degrees(), graph, order, matrix }
    }

    /// The prepared graph, in the vertex order every solve over this
    /// structure iterates in. Nodal vectors are not laid out in it: the
    /// solver returns them in the input graph's order.
    pub fn graph(&self) -> &Graph<V, E> {
        &self.graph
    }

    /// The input vertex that prepared vertex `k` stands for.
    pub(crate) fn input_vertex(&self, k: usize) -> usize {
        self.order.as_ref().map_or(k, |order| order[k] as usize)
    }

    pub(crate) fn degrees(&self) -> &[f32] {
        &self.degrees
    }

    /// The octile matrix, shared with a system that takes this structure as
    /// an operand.
    pub(crate) fn matrix(&self) -> Arc<OctileMatrix<E>> {
        Arc::clone(&self.matrix)
    }
}
