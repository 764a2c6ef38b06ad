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

use crate::octile_ops::TilePanels;

/// An immutable structure ready to be paired with any other: the prepared
/// (stopping-probability-overridden, reordered) graph, the reordering that
/// produced it, its Laplacian degrees and its octile matrix.
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

/// One operand of the octile operator: a structure's shared octile matrix
/// and its tiles' expanded panels, parallel to `matrix.tiles()`.
pub(crate) struct Octiles<E> {
    pub(crate) matrix: Arc<OctileMatrix<E>>,
    pub(crate) panels: Vec<TilePanels<E>>,
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

    /// This structure as an operand of one system's octile operator. The
    /// panels are expanded here, per system, and live as long as it does: at
    /// 840 B a tile (`f32` labels) they are several times the rest of the
    /// structure — too much to hold for as long as a serving cache holds the
    /// structure — and expanding them is the cheapest step of an assembly.
    pub(crate) fn octiles(&self) -> Octiles<E> {
        let matrix = Arc::clone(&self.matrix);
        let panels = matrix.tiles().iter().map(TilePanels::new).collect();
        Octiles { matrix, panels }
    }
}
