//! The core labeled, weighted, undirected graph type.

use crate::labels::Unlabeled;
use crate::DEFAULT_STOPPING_PROBABILITY;

/// A reference to one incident edge of a vertex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRef<'a, E> {
    /// Index of the neighboring vertex.
    pub target: u32,
    /// Edge weight `w_ij` (the adjacency matrix entry).
    pub weight: f32,
    /// Edge label.
    pub label: &'a E,
}

/// An immutable, labeled, weighted, undirected graph.
///
/// The adjacency structure is stored in compressed sparse row (CSR) form
/// with both directions of every undirected edge materialized, so that the
/// neighbor list of every vertex is directly iterable. The graph also
/// carries the per-vertex random-walk starting probability `p` and stopping
/// probability `q` used by the marginalized graph kernel (Section II-B).
///
/// Invariants maintained by [`GraphBuilder`](crate::GraphBuilder):
///
/// * weights are finite and non-negative, and symmetric: `w_ij == w_ji`;
/// * edge labels are symmetric: the label of `(i, j)` equals that of `(j, i)`;
/// * there are no self loops;
/// * `p` sums to 1 (uniform by default) and `0 < q_i <= 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph<V = Unlabeled, E = Unlabeled> {
    pub(crate) vertex_labels: Vec<V>,
    /// CSR row offsets, length `n + 1`.
    pub(crate) offsets: Vec<usize>,
    /// Flattened neighbor lists.
    pub(crate) neighbors: Vec<u32>,
    /// Edge weights, parallel to `neighbors`.
    pub(crate) weights: Vec<f32>,
    /// Edge labels, parallel to `neighbors`.
    pub(crate) edge_labels: Vec<E>,
    /// Random-walk starting probabilities, length `n`.
    pub(crate) start_prob: Vec<f32>,
    /// Random-walk stopping probabilities, length `n`.
    pub(crate) stop_prob: Vec<f32>,
}

impl<V, E> Graph<V, E> {
    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vertex_labels.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Number of stored (directed) adjacency entries, i.e. `2 * num_edges`.
    #[inline]
    pub fn num_adjacency_entries(&self) -> usize {
        self.neighbors.len()
    }

    /// Degree (number of incident edges) of vertex `i`.
    #[inline]
    pub fn vertex_degree(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Label of vertex `i`.
    #[inline]
    pub fn vertex_label(&self, i: usize) -> &V {
        &self.vertex_labels[i]
    }

    /// All vertex labels in index order.
    #[inline]
    pub fn vertex_labels(&self) -> &[V] {
        &self.vertex_labels
    }

    /// Random-walk starting probability vector `p`.
    #[inline]
    pub fn start_probabilities(&self) -> &[f32] {
        &self.start_prob
    }

    /// Random-walk stopping probability vector `q`.
    #[inline]
    pub fn stop_probabilities(&self) -> &[f32] {
        &self.stop_prob
    }

    /// Iterate over the edges incident to vertex `i`.
    pub fn neighbors(&self, i: usize) -> impl Iterator<Item = EdgeRef<'_, E>> + '_ {
        let lo = self.offsets[i];
        let hi = self.offsets[i + 1];
        (lo..hi).map(move |k| EdgeRef {
            target: self.neighbors[k],
            weight: self.weights[k],
            label: &self.edge_labels[k],
        })
    }

    /// Vertex `i`'s row of the CSR adjacency: its neighbors and the weights
    /// of the edges to them, both in storage order.
    #[inline]
    pub fn adjacency_row(&self, i: usize) -> (&[u32], &[f32]) {
        let (lo, hi) = (self.offsets[i], self.offsets[i + 1]);
        (&self.neighbors[lo..hi], &self.weights[lo..hi])
    }

    /// Iterate over every undirected edge once, as `(i, j, weight, label)`
    /// with `i < j`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, f32, &E)> + '_ {
        (0..self.num_vertices()).flat_map(move |i| {
            self.neighbors(i)
                .filter(move |e| (i as u32) < e.target)
                .map(move |e| (i as u32, e.target, e.weight, e.label))
        })
    }

    /// Weight of edge `(i, j)`, or `None` if the vertices are not adjacent.
    pub fn edge_weight(&self, i: usize, j: usize) -> Option<f32> {
        self.neighbors(i).find(|e| e.target as usize == j).map(|e| e.weight)
    }

    /// Label of edge `(i, j)`, or `None` if the vertices are not adjacent.
    pub fn edge_label(&self, i: usize, j: usize) -> Option<&E> {
        self.neighbors(i).find(|e| e.target as usize == j).map(|e| e.label)
    }

    /// Weighted degree plus stopping probability: `d_i = Σ_j w_ij + q_i`.
    ///
    /// This is the diagonal of the `D` matrix of Eq. (1).
    pub fn laplacian_degrees(&self) -> Vec<f32> {
        (0..self.num_vertices())
            .map(|i| {
                let w: f32 = self.neighbors(i).map(|e| e.weight).sum();
                w + self.stop_prob[i]
            })
            .collect()
    }

    /// Dense `n × n` row-major adjacency matrix.
    pub fn adjacency_dense(&self) -> Vec<f32> {
        let n = self.num_vertices();
        let mut a = vec![0.0f32; n * n];
        for i in 0..n {
            for e in self.neighbors(i) {
                a[i * n + e.target as usize] = e.weight;
            }
        }
        a
    }

    /// Dense `n × n` row-major edge-label matrix, with `fill` in empty
    /// positions.
    pub fn edge_labels_dense(&self, fill: E) -> Vec<E>
    where
        E: Copy,
    {
        let n = self.num_vertices();
        let mut m = vec![fill; n * n];
        for i in 0..n {
            for e in self.neighbors(i) {
                m[i * n + e.target as usize] = *e.label;
            }
        }
        m
    }

    /// Return a copy of the graph with a uniform stopping probability `q`
    /// on every vertex. `q` must lie in `(0, 1]`.
    pub fn with_uniform_stopping_probability(mut self, q: f32) -> Self
    where
        V: Clone,
        E: Clone,
    {
        assert!(q > 0.0 && q <= 1.0, "stopping probability must be in (0, 1], got {q}");
        for s in &mut self.stop_prob {
            *s = q;
        }
        self
    }

    /// Return a copy of the graph with vertices renumbered according to
    /// `order`, where `order[k]` is the original index of the vertex that
    /// is placed at position `k` in the new graph.
    ///
    /// This is the operation applied after a reordering pass (Section IV-A):
    /// the kernel value is invariant under it, but the tile occupancy
    /// pattern is not.
    pub fn permute(&self, order: &[u32]) -> Self
    where
        V: Clone,
        E: Clone,
    {
        let n = self.num_vertices();
        assert_eq!(order.len(), n, "permutation length must equal vertex count");
        // inverse permutation: old index -> new index
        let mut inv = vec![u32::MAX; n];
        for (new, &old) in order.iter().enumerate() {
            assert!(
                (old as usize) < n && inv[old as usize] == u32::MAX,
                "order must be a permutation of 0..n"
            );
            inv[old as usize] = new as u32;
        }

        let mut vertex_labels = Vec::with_capacity(n);
        let mut start_prob = Vec::with_capacity(n);
        let mut stop_prob = Vec::with_capacity(n);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut neighbors = Vec::with_capacity(self.neighbors.len());
        let mut weights = Vec::with_capacity(self.weights.len());
        let mut edge_labels = Vec::with_capacity(self.edge_labels.len());

        for &old in order {
            let old = old as usize;
            vertex_labels.push(self.vertex_labels[old].clone());
            start_prob.push(self.start_prob[old]);
            stop_prob.push(self.stop_prob[old]);
            // gather and sort the remapped neighbor list for determinism
            let mut row: Vec<(u32, f32, E)> = self
                .neighbors(old)
                .map(|e| (inv[e.target as usize], e.weight, e.label.clone()))
                .collect();
            row.sort_by_key(|&(t, _, _)| t);
            for (t, w, l) in row {
                neighbors.push(t);
                weights.push(w);
                edge_labels.push(l);
            }
            offsets.push(neighbors.len());
        }

        Graph { vertex_labels, offsets, neighbors, weights, edge_labels, start_prob, stop_prob }
    }

    /// Map vertex and edge labels into new types, keeping the topology,
    /// weights and probabilities.
    pub fn map_labels<V2, E2>(
        &self,
        mut fv: impl FnMut(&V) -> V2,
        mut fe: impl FnMut(&E) -> E2,
    ) -> Graph<V2, E2> {
        Graph {
            vertex_labels: self.vertex_labels.iter().map(&mut fv).collect(),
            offsets: self.offsets.clone(),
            neighbors: self.neighbors.clone(),
            weights: self.weights.clone(),
            edge_labels: self.edge_labels.iter().map(&mut fe).collect(),
            start_prob: self.start_prob.clone(),
            stop_prob: self.stop_prob.clone(),
        }
    }

    /// Drop all labels, producing the unlabeled graph used by the
    /// random-walk kernel of Eq. (2).
    pub fn to_unlabeled(&self) -> Graph<Unlabeled, Unlabeled> {
        self.map_labels(|_| Unlabeled, |_| Unlabeled)
    }

    /// True if every vertex can reach every other vertex.
    pub fn is_connected(&self) -> bool {
        let n = self.num_vertices();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for e in self.neighbors(v) {
                let t = e.target as usize;
                if !seen[t] {
                    seen[t] = true;
                    count += 1;
                    stack.push(t);
                }
            }
        }
        count == n
    }

    /// Construct a graph directly from parts; used internally by the
    /// builder and generators. Panics on inconsistent lengths.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        vertex_labels: Vec<V>,
        offsets: Vec<usize>,
        neighbors: Vec<u32>,
        weights: Vec<f32>,
        edge_labels: Vec<E>,
        start_prob: Vec<f32>,
        stop_prob: Vec<f32>,
    ) -> Self {
        let n = vertex_labels.len();
        assert_eq!(offsets.len(), n + 1);
        assert_eq!(*offsets.last().unwrap(), neighbors.len());
        assert_eq!(neighbors.len(), weights.len());
        assert_eq!(neighbors.len(), edge_labels.len());
        assert_eq!(start_prob.len(), n);
        assert_eq!(stop_prob.len(), n);
        Graph { vertex_labels, offsets, neighbors, weights, edge_labels, start_prob, stop_prob }
    }
}

impl<V: Clone, E: Clone> Graph<V, E> {
    /// An empty graph with no vertices.
    pub fn empty() -> Self {
        Graph {
            vertex_labels: Vec::new(),
            offsets: vec![0],
            neighbors: Vec::new(),
            weights: Vec::new(),
            edge_labels: Vec::new(),
            start_prob: Vec::new(),
            stop_prob: Vec::new(),
        }
    }
}

impl Graph<Unlabeled, Unlabeled> {
    /// Build an unlabeled, unit-weight graph from an edge list over `n`
    /// vertices, with the default uniform starting/stopping probabilities.
    pub fn from_edge_list(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut b = crate::GraphBuilder::new();
        for _ in 0..n {
            b.add_vertex(Unlabeled);
        }
        for &(i, j) in edges {
            b.add_edge(i as usize, j as usize, 1.0, Unlabeled).expect("invalid edge in edge list");
        }
        b.stopping_probability(DEFAULT_STOPPING_PROBABILITY);
        b.build().expect("edge list produced an invalid graph")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path3() -> Graph {
        Graph::from_edge_list(3, &[(0, 1), (1, 2)])
    }

    #[test]
    fn basic_accessors() {
        let g = path3();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_adjacency_entries(), 4);
        assert_eq!(g.vertex_degree(0), 1);
        assert_eq!(g.vertex_degree(1), 2);
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.edge_weight(0, 2), None);
        assert!(g.is_connected());
    }

    #[test]
    fn dense_adjacency_is_symmetric() {
        let g = path3();
        let a = g.adjacency_dense();
        let n = g.num_vertices();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(a[i * n + j], a[j * n + i]);
            }
        }
        // row 0: vertex 0 is adjacent to 1 but not to 2
        assert_eq!(a[1], 1.0);
        assert_eq!(a[2], 0.0);
    }

    #[test]
    fn laplacian_degrees_include_stopping_probability() {
        let g = path3().with_uniform_stopping_probability(0.1);
        let d = g.laplacian_degrees();
        assert!((d[0] - 1.1).abs() < 1e-6);
        assert!((d[1] - 2.1).abs() < 1e-6);
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = path3();
        let edges: Vec<_> = g.edges().map(|(i, j, _, _)| (i, j)).collect();
        assert_eq!(edges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn permute_reverses_vertex_order() {
        let g = path3();
        let p = g.permute(&[2, 1, 0]);
        assert_eq!(p.num_edges(), 2);
        // old edge (0,1) becomes (2,1); old (1,2) becomes (1,0)
        assert_eq!(p.edge_weight(1, 2), Some(1.0));
        assert_eq!(p.edge_weight(0, 1), Some(1.0));
        assert_eq!(p.edge_weight(0, 2), None);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn permute_rejects_wrong_length() {
        let g = path3();
        let _ = g.permute(&[0, 1]);
    }

    #[test]
    #[should_panic(expected = "must be a permutation")]
    fn permute_rejects_duplicates() {
        let g = path3();
        let _ = g.permute(&[0, 0, 1]);
    }

    #[test]
    fn map_labels_and_unlabeled() {
        let mut b = GraphBuilder::new();
        b.add_vertex(5u32);
        b.add_vertex(7u32);
        b.add_edge(0, 1, 2.0, 1.5f32).unwrap();
        let g = b.build().unwrap();
        let mapped = g.map_labels(|v| *v as f64, |e| *e as f64);
        assert_eq!(*mapped.vertex_label(0), 5.0);
        assert_eq!(*mapped.edge_label(0, 1).unwrap(), 1.5);
        let u = g.to_unlabeled();
        assert_eq!(u.num_edges(), 1);
        assert_eq!(u.edge_weight(0, 1), Some(2.0));
    }

    #[test]
    fn disconnected_graph_detected() {
        let g = Graph::from_edge_list(4, &[(0, 1), (2, 3)]);
        assert!(!g.is_connected());
    }

    #[test]
    fn empty_graph() {
        let g: Graph = Graph::empty();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_connected());
    }
}
