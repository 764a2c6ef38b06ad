//! Octile storage: COO of 8×8 tiles with bitmap-compressed payloads.

use mgk_graph::Graph;

/// Side length of a tile. The paper settles on 8×8 tiles ("octiles") after
/// the parameter study of Section III-D.
pub const TILE_SIZE: usize = 8;

/// Number of elements in a tile.
pub const TILE_AREA: usize = TILE_SIZE * TILE_SIZE;

/// One non-empty 8×8 tile of the adjacency/edge-label matrix.
///
/// The `mask` bit `r * 8 + c` is set when the element at local row `r`,
/// local column `c` is nonzero. `weights[k]` and `labels[k]` store the
/// payload of the `k`-th set bit in ascending bit order.
#[derive(Debug, Clone, PartialEq)]
pub struct Octile<E> {
    /// Tile row index (vertex index / 8).
    pub row: u32,
    /// Tile column index (vertex index / 8).
    pub col: u32,
    /// 64-bit occupancy bitmap, row-major within the tile.
    pub mask: u64,
    /// Packed nonzero adjacency weights.
    pub weights: Vec<f32>,
    /// Packed nonzero edge labels, parallel to `weights`.
    pub labels: Vec<E>,
}

impl<E: Copy> Octile<E> {
    /// Number of nonzero elements in the tile.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// Fill factor of the tile in `[0, 1]`.
    #[inline]
    pub fn density(&self) -> f64 {
        self.nnz() as f64 / TILE_AREA as f64
    }

    /// Expand the packed weights into a dense row-major 8×8 block — the
    /// "expand in shared memory after loading from global memory" step of
    /// Section IV-B.
    pub fn expand_weights(&self) -> [f32; TILE_AREA] {
        let mut out = [0.0f32; TILE_AREA];
        for (k, pos) in BitIter::new(self.mask).enumerate() {
            out[pos] = self.weights[k];
        }
        out
    }

    /// Expand the packed labels into a dense row-major 8×8 block, with
    /// `fill` in the empty positions.
    pub fn expand_labels(&self, fill: E) -> [E; TILE_AREA] {
        let mut out = [fill; TILE_AREA];
        for (k, pos) in BitIter::new(self.mask).enumerate() {
            out[pos] = self.labels[k];
        }
        out
    }

    /// Per-row nonzero masks: byte `r` holds the 8 column-occupancy bits of
    /// local row `r` (the row-major bitmap is little-endian in rows).
    #[inline]
    pub fn row_masks(&self) -> [u8; TILE_SIZE] {
        self.mask.to_le_bytes()
    }

    /// Iterate over the nonzero elements as `(local_row, local_col, weight,
    /// label)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32, E)> + '_ {
        BitIter::new(self.mask).enumerate().map(move |(k, pos)| {
            (pos / TILE_SIZE, pos % TILE_SIZE, self.weights[k], self.labels[k])
        })
    }
}

/// Iterator over the set bit positions of a 64-bit mask, in ascending order.
struct BitIter {
    remaining: u64,
}

impl BitIter {
    fn new(mask: u64) -> Self {
        BitIter { remaining: mask }
    }
}

impl Iterator for BitIter {
    type Item = usize;
    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            None
        } else {
            let pos = self.remaining.trailing_zeros() as usize;
            self.remaining &= self.remaining - 1;
            Some(pos)
        }
    }
}

/// The full two-level sparse representation of a graph's adjacency and
/// edge-label matrices: a COO list of non-empty [`Octile`]s sorted by
/// `(row, col)`.
#[derive(Debug, Clone, PartialEq)]
pub struct OctileMatrix<E> {
    dim: usize,
    tiles_per_side: usize,
    tiles: Vec<Octile<E>>,
}

impl<E: Copy + Default> OctileMatrix<E> {
    /// Build the octile representation of a graph's adjacency matrix (with
    /// edge labels riding along), using the graph's current vertex order.
    pub fn from_graph<V>(g: &Graph<V, E>) -> Self {
        let n = g.num_vertices();
        let tiles_per_side = n.div_ceil(TILE_SIZE);
        // bucket edges by tile coordinate: intra-tile bit plus weight/label
        type TileEntries<E> = Vec<(u8, f32, E)>;
        use std::collections::BTreeMap;
        let mut buckets: BTreeMap<(u32, u32), TileEntries<E>> = BTreeMap::new();
        for i in 0..n {
            for e in g.neighbors(i) {
                let j = e.target as usize;
                let (tr, tc) = (i / TILE_SIZE, j / TILE_SIZE);
                let bit = (i % TILE_SIZE) * TILE_SIZE + (j % TILE_SIZE);
                buckets
                    .entry((tr as u32, tc as u32))
                    .or_default()
                    .push((bit as u8, e.weight, *e.label));
            }
        }
        let tiles = buckets
            .into_iter()
            .map(|((row, col), mut entries)| {
                entries.sort_by_key(|&(bit, _, _)| bit);
                let mut mask = 0u64;
                let mut weights = Vec::with_capacity(entries.len());
                let mut labels = Vec::with_capacity(entries.len());
                for (bit, w, l) in entries {
                    debug_assert_eq!(mask & (1u64 << bit), 0, "duplicate entry within tile");
                    mask |= 1u64 << bit;
                    weights.push(w);
                    labels.push(l);
                }
                Octile { row, col, mask, weights, labels }
            })
            .collect();
        OctileMatrix { dim: n, tiles_per_side, tiles }
    }

    /// Matrix dimension (number of vertices of the source graph).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of tiles along one side (`⌈n / 8⌉`).
    #[inline]
    pub(crate) fn tiles_per_side(&self) -> usize {
        self.tiles_per_side
    }

    /// Number of non-empty tiles stored.
    #[inline]
    pub fn num_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Total number of nonzero matrix elements.
    pub fn num_nonzeros(&self) -> usize {
        self.tiles.iter().map(|t| t.nnz()).sum()
    }

    /// The stored tiles, sorted by `(row, col)`.
    #[inline]
    pub fn tiles(&self) -> &[Octile<E>] {
        &self.tiles
    }

    /// Look up a tile by tile coordinates.
    pub fn tile(&self, row: u32, col: u32) -> Option<&Octile<E>> {
        self.tiles
            .binary_search_by_key(&(row, col), |t| (t.row, t.col))
            .ok()
            .map(|idx| &self.tiles[idx])
    }

    /// Reconstruct the dense adjacency matrix (row-major `n × n`); used for
    /// validation.
    pub fn to_dense_weights(&self) -> Vec<f32> {
        let n = self.dim;
        let mut out = vec![0.0f32; n * n];
        for t in &self.tiles {
            for (r, c, w, _) in t.iter() {
                let (i, j) = (t.row as usize * TILE_SIZE + r, t.col as usize * TILE_SIZE + c);
                if i < n && j < n {
                    out[i * n + j] = w;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgk_graph::{Graph, GraphBuilder, Unlabeled};

    fn labeled_path(n: usize) -> Graph<Unlabeled, f32> {
        let mut b: GraphBuilder<Unlabeled, f32> = GraphBuilder::new();
        for _ in 0..n {
            b.add_vertex(Unlabeled);
        }
        for i in 0..n - 1 {
            b.add_edge(i, i + 1, 1.0 + i as f32, 0.1 * i as f32).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn path_graph_within_one_tile() {
        let g = labeled_path(8);
        let m = OctileMatrix::from_graph(&g);
        assert_eq!(m.dim(), 8);
        assert_eq!(m.tiles_per_side(), 1);
        assert_eq!(m.num_tiles(), 1);
        assert_eq!(m.num_nonzeros(), 14); // 7 undirected edges, both directions
        let t = m.tile(0, 0).unwrap();
        assert_eq!(t.nnz(), 14);
        assert!(t.density() > 0.2 && t.density() < 0.25);
    }

    #[test]
    fn path_graph_spanning_tiles() {
        let g = labeled_path(20);
        let m = OctileMatrix::from_graph(&g);
        assert_eq!(m.tiles_per_side(), 3);
        // a path in natural order touches the diagonal tiles and the
        // super/sub-diagonal corner couplings: (0,0),(0,1),(1,0),(1,1),(1,2),(2,1),(2,2)
        assert_eq!(m.num_tiles(), 7);
        assert_eq!(m.num_nonzeros(), 38);
        assert!(m.tile(0, 2).is_none());
        assert!(m.tile(0, 1).is_some());
    }

    #[test]
    fn dense_round_trip_matches_graph_adjacency() {
        let g = labeled_path(13);
        let m = OctileMatrix::from_graph(&g);
        assert_eq!(m.to_dense_weights(), g.adjacency_dense());
    }

    #[test]
    fn expand_weights_round_trips_packed_payload() {
        let g = labeled_path(10);
        let m = OctileMatrix::from_graph(&g);
        for t in m.tiles() {
            let dense = t.expand_weights();
            assert_eq!(dense.iter().filter(|&&w| w != 0.0).count(), t.nnz());
            for (r, c, w, _) in t.iter() {
                assert_eq!(dense[r * TILE_SIZE + c], w);
            }
        }
    }

    #[test]
    fn expand_labels_uses_fill_value() {
        let g = labeled_path(9);
        let m = OctileMatrix::from_graph(&g);
        let t = m.tile(0, 0).unwrap();
        let labels = t.expand_labels(-1.0);
        let empties = labels.iter().filter(|&&l| l == -1.0).count();
        assert_eq!(empties, TILE_AREA - t.nnz());
    }

    #[test]
    fn row_masks_agree_with_the_bitmap() {
        let g = labeled_path(20);
        let m = OctileMatrix::from_graph(&g);
        for t in m.tiles() {
            let rows = t.row_masks();
            for (r, &row_mask) in rows.iter().enumerate() {
                for c in 0..TILE_SIZE {
                    let set = t.mask & (1u64 << (r * TILE_SIZE + c)) != 0;
                    assert_eq!(row_mask & (1u8 << c) != 0, set);
                }
            }
            assert_eq!(
                rows.iter().map(|m| m.count_ones() as usize).sum::<usize>(),
                t.nnz(),
                "row masks must partition the nnz"
            );
        }
    }

    #[test]
    fn symmetry_of_tiles() {
        let g = labeled_path(24);
        let m = OctileMatrix::from_graph(&g);
        // adjacency is symmetric so tile (r,c) non-empty iff (c,r) non-empty
        for t in m.tiles() {
            assert!(
                m.tile(t.col, t.row).is_some(),
                "missing symmetric tile ({}, {})",
                t.col,
                t.row
            );
        }
    }

    #[test]
    fn empty_graph_has_no_tiles() {
        let g: Graph = Graph::from_edge_list(5, &[]);
        let m = OctileMatrix::from_graph(&g);
        assert_eq!(m.num_tiles(), 0);
        assert_eq!(m.num_nonzeros(), 0);
    }

    #[test]
    fn complete_graph_fills_every_tile() {
        let edges: Vec<(u32, u32)> =
            (0..16u32).flat_map(|i| ((i + 1)..16).map(move |j| (i, j))).collect();
        let g = Graph::from_edge_list(16, &edges);
        let m = OctileMatrix::from_graph(&g.map_labels(|_| Unlabeled, |_| 0.0f32));
        assert_eq!(m.tiles_per_side(), 2);
        assert_eq!(m.num_tiles(), 4);
    }
}
