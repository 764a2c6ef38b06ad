//! Incremental construction of [`Graph`] values with validation.

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

use crate::graph::Graph;
use crate::DEFAULT_STOPPING_PROBABILITY;

/// Errors reported while building a graph.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// An edge referenced a vertex index that has not been added.
    VertexOutOfRange { index: usize, num_vertices: usize },
    /// An edge connected a vertex to itself.
    SelfLoop { vertex: usize },
    /// The same vertex pair was connected more than once.
    DuplicateEdge { u: usize, v: usize },
    /// An edge weight was negative, NaN or infinite.
    InvalidWeight { u: usize, v: usize, weight: f32 },
    /// A starting probability vector of the wrong length or with an invalid
    /// entry was supplied.
    InvalidStartProbability(String),
    /// A stopping probability outside `(0, 1]` was supplied.
    InvalidStopProbability(f32),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::VertexOutOfRange { index, num_vertices } => write!(
                f,
                "edge endpoint {index} out of range for graph with {num_vertices} vertices"
            ),
            BuildError::SelfLoop { vertex } => write!(f, "self loop on vertex {vertex}"),
            BuildError::DuplicateEdge { u, v } => write!(f, "duplicate edge ({u}, {v})"),
            BuildError::InvalidWeight { u, v, weight } => {
                write!(f, "invalid weight {weight} on edge ({u}, {v})")
            }
            BuildError::InvalidStartProbability(msg) => {
                write!(f, "invalid starting probabilities: {msg}")
            }
            BuildError::InvalidStopProbability(q) => {
                write!(f, "stopping probability {q} outside (0, 1]")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for [`Graph`].
///
/// ```
/// use mgk_graph::{GraphBuilder, Unlabeled};
///
/// let mut b = GraphBuilder::new();
/// let a = b.add_vertex(Unlabeled);
/// let c = b.add_vertex(Unlabeled);
/// b.add_edge(a, c, 1.0, Unlabeled).unwrap();
/// let g = b.build().unwrap();
/// assert_eq!(g.num_vertices(), 2);
/// assert_eq!(g.num_edges(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder<V = crate::labels::Unlabeled, E = crate::labels::Unlabeled> {
    vertex_labels: Vec<V>,
    edges: Vec<(u32, u32, f32, E)>,
    start_prob: Option<Vec<f32>>,
    stop_prob: StopSpec,
}

#[derive(Debug, Clone)]
enum StopSpec {
    Uniform(f32),
    PerVertex(Vec<f32>),
}

impl<V, E> Default for GraphBuilder<V, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V, E> GraphBuilder<V, E> {
    /// Create an empty builder with the default uniform stopping
    /// probability.
    pub fn new() -> Self {
        GraphBuilder {
            vertex_labels: Vec::new(),
            edges: Vec::new(),
            start_prob: None,
            stop_prob: StopSpec::Uniform(DEFAULT_STOPPING_PROBABILITY),
        }
    }

    /// Create an empty builder with capacity hints.
    pub fn with_capacity(vertices: usize, edges: usize) -> Self {
        GraphBuilder {
            vertex_labels: Vec::with_capacity(vertices),
            edges: Vec::with_capacity(edges),
            start_prob: None,
            stop_prob: StopSpec::Uniform(DEFAULT_STOPPING_PROBABILITY),
        }
    }

    /// Number of vertices added so far.
    pub fn num_vertices(&self) -> usize {
        self.vertex_labels.len()
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Add a vertex and return its index.
    pub fn add_vertex(&mut self, label: V) -> usize {
        self.vertex_labels.push(label);
        self.vertex_labels.len() - 1
    }

    /// Add an undirected edge between `u` and `v` with weight `weight`.
    ///
    /// The edge is validated eagerly for range, self loops and weight
    /// validity; duplicate detection happens in [`build`](Self::build).
    pub fn add_edge(
        &mut self,
        u: usize,
        v: usize,
        weight: f32,
        label: E,
    ) -> Result<(), BuildError> {
        let n = self.vertex_labels.len();
        if u >= n {
            return Err(BuildError::VertexOutOfRange { index: u, num_vertices: n });
        }
        if v >= n {
            return Err(BuildError::VertexOutOfRange { index: v, num_vertices: n });
        }
        if u == v {
            return Err(BuildError::SelfLoop { vertex: u });
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(BuildError::InvalidWeight { u, v, weight });
        }
        self.edges.push((u as u32, v as u32, weight, label));
        Ok(())
    }

    /// Use a uniform stopping probability `q ∈ (0, 1]` on every vertex.
    pub fn stopping_probability(&mut self, q: f32) -> &mut Self {
        self.stop_prob = StopSpec::Uniform(q);
        self
    }

    /// Use per-vertex stopping probabilities.
    pub fn stopping_probabilities(&mut self, q: Vec<f32>) -> &mut Self {
        self.stop_prob = StopSpec::PerVertex(q);
        self
    }

    /// Use explicit per-vertex starting probabilities (they are normalized
    /// to sum to one at build time). By default the starting distribution is
    /// uniform.
    pub fn starting_probabilities(&mut self, p: Vec<f32>) -> &mut Self {
        self.start_prob = Some(p);
        self
    }

    /// Finalize the graph.
    pub fn build(self) -> Result<Graph<V, E>, BuildError>
    where
        E: Clone,
    {
        let n = self.vertex_labels.len();

        // stopping probabilities
        let stop_prob = match self.stop_prob {
            StopSpec::Uniform(q) => {
                if !(q > 0.0 && q <= 1.0 && q.is_finite()) {
                    return Err(BuildError::InvalidStopProbability(q));
                }
                vec![q; n]
            }
            StopSpec::PerVertex(qs) => {
                if qs.len() != n {
                    return Err(BuildError::InvalidStartProbability(format!(
                        "stopping probability vector has length {} but graph has {} vertices",
                        qs.len(),
                        n
                    )));
                }
                for &q in &qs {
                    if !(q > 0.0 && q <= 1.0 && q.is_finite()) {
                        return Err(BuildError::InvalidStopProbability(q));
                    }
                }
                qs
            }
        };

        // starting probabilities
        let start_prob = match self.start_prob {
            None => {
                if n == 0 {
                    Vec::new()
                } else {
                    vec![1.0 / n as f32; n]
                }
            }
            Some(p) => {
                if p.len() != n {
                    return Err(BuildError::InvalidStartProbability(format!(
                        "length {} does not match vertex count {}",
                        p.len(),
                        n
                    )));
                }
                let sum: f32 = p.iter().sum();
                if !sum.is_finite() || sum <= 0.0 || p.iter().any(|&x| x < 0.0 || !x.is_finite()) {
                    return Err(BuildError::InvalidStartProbability(
                        "entries must be non-negative and sum to a positive finite value".into(),
                    ));
                }
                p.iter().map(|&x| x / sum).collect()
            }
        };

        // degree counting + duplicate detection
        let mut degree = vec![0usize; n];
        {
            let mut seen = std::collections::HashSet::with_capacity(self.edges.len());
            for &(u, v, _, _) in &self.edges {
                let key = if u < v { (u, v) } else { (v, u) };
                if !seen.insert(key) {
                    return Err(BuildError::DuplicateEdge { u: u as usize, v: v as usize });
                }
                degree[u as usize] += 1;
                degree[v as usize] += 1;
            }
        }

        // CSR assembly (counting sort by row): each edge enters both
        // endpoints' rows as a (neighbor, weight, edge index) triple, each
        // row is sorted by neighbor index for deterministic iteration, and
        // the labels are read through the sorted edge indices
        let mut offsets = vec![0usize; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut cursor = offsets.clone();
        let mut entries = vec![(0u32, 0f32, 0usize); offsets[n]];
        for (k, &(u, v, w, _)) in self.edges.iter().enumerate() {
            for (row, neighbor) in [(u, v), (v, u)] {
                entries[cursor[row as usize]] = (neighbor, w, k);
                cursor[row as usize] += 1;
            }
        }
        for row in offsets.windows(2) {
            entries[row[0]..row[1]].sort_unstable_by_key(|&(neighbor, _, _)| neighbor);
        }
        let neighbors = entries.iter().map(|&(neighbor, _, _)| neighbor).collect();
        let weights = entries.iter().map(|&(_, weight, _)| weight).collect();
        let edge_labels = entries.iter().map(|&(_, _, k)| self.edges[k].3.clone()).collect();

        Ok(Graph::from_parts(
            self.vertex_labels,
            offsets,
            neighbors,
            weights,
            edge_labels,
            start_prob,
            stop_prob,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::Unlabeled;

    #[test]
    fn rejects_out_of_range_edge() {
        let mut b: GraphBuilder = GraphBuilder::new();
        b.add_vertex(Unlabeled);
        let err = b.add_edge(0, 3, 1.0, Unlabeled).unwrap_err();
        assert!(matches!(err, BuildError::VertexOutOfRange { index: 3, .. }));
    }

    #[test]
    fn rejects_self_loop() {
        let mut b: GraphBuilder = GraphBuilder::new();
        b.add_vertex(Unlabeled);
        let err = b.add_edge(0, 0, 1.0, Unlabeled).unwrap_err();
        assert_eq!(err, BuildError::SelfLoop { vertex: 0 });
    }

    #[test]
    fn rejects_negative_and_nan_weight() {
        let mut b: GraphBuilder = GraphBuilder::new();
        b.add_vertex(Unlabeled);
        b.add_vertex(Unlabeled);
        assert!(matches!(b.add_edge(0, 1, -1.0, Unlabeled), Err(BuildError::InvalidWeight { .. })));
        assert!(matches!(
            b.add_edge(0, 1, f32::NAN, Unlabeled),
            Err(BuildError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn rejects_duplicate_edge_in_either_direction() {
        let mut b: GraphBuilder = GraphBuilder::new();
        b.add_vertex(Unlabeled);
        b.add_vertex(Unlabeled);
        b.add_edge(0, 1, 1.0, Unlabeled).unwrap();
        b.add_edge(1, 0, 2.0, Unlabeled).unwrap();
        assert!(matches!(b.build(), Err(BuildError::DuplicateEdge { .. })));
    }

    #[test]
    fn rejects_bad_stopping_probability() {
        let mut b: GraphBuilder = GraphBuilder::new();
        b.add_vertex(Unlabeled);
        b.stopping_probability(0.0);
        assert!(matches!(b.build(), Err(BuildError::InvalidStopProbability(_))));

        let mut b: GraphBuilder = GraphBuilder::new();
        b.add_vertex(Unlabeled);
        b.stopping_probability(1.5);
        assert!(matches!(b.build(), Err(BuildError::InvalidStopProbability(_))));
    }

    #[test]
    fn start_probabilities_are_normalized() {
        let mut b: GraphBuilder = GraphBuilder::new();
        b.add_vertex(Unlabeled);
        b.add_vertex(Unlabeled);
        b.add_vertex(Unlabeled);
        b.starting_probabilities(vec![1.0, 1.0, 2.0]);
        let g = b.build().unwrap();
        let p = g.start_probabilities();
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!((p[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn rejects_wrong_length_start_probabilities() {
        let mut b: GraphBuilder = GraphBuilder::new();
        b.add_vertex(Unlabeled);
        b.starting_probabilities(vec![0.5, 0.5]);
        assert!(matches!(b.build(), Err(BuildError::InvalidStartProbability(_))));
    }

    #[test]
    fn neighbor_lists_are_sorted() {
        let mut b: GraphBuilder = GraphBuilder::new();
        for _ in 0..5 {
            b.add_vertex(Unlabeled);
        }
        b.add_edge(0, 4, 1.0, Unlabeled).unwrap();
        b.add_edge(0, 2, 1.0, Unlabeled).unwrap();
        b.add_edge(0, 3, 1.0, Unlabeled).unwrap();
        b.add_edge(0, 1, 1.0, Unlabeled).unwrap();
        let g = b.build().unwrap();
        let nbrs: Vec<u32> = g.neighbors(0).map(|e| e.target).collect();
        assert_eq!(nbrs, vec![1, 2, 3, 4]);
    }

    #[test]
    fn labels_survive_round_trip() {
        let mut b: GraphBuilder<u8, f32> = GraphBuilder::new();
        b.add_vertex(10);
        b.add_vertex(20);
        b.add_edge(0, 1, 0.5, 3.25).unwrap();
        let g = b.build().unwrap();
        assert_eq!(*g.vertex_label(1), 20);
        assert_eq!(*g.edge_label(1, 0).unwrap(), 3.25);
        assert_eq!(g.edge_weight(1, 0), Some(0.5));
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let b: GraphBuilder = GraphBuilder::new();
        let g = b.build().unwrap();
        assert_eq!(g.num_vertices(), 0);
    }
}
