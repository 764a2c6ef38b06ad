//! Tile occupancy statistics — the quantities visualized in Figs. 6 and 7
//! of the paper.

use crate::octile::{Octile, OctileMatrix, TILE_AREA};

/// Occupancy statistics of an [`OctileMatrix`].
#[derive(Debug, Clone, PartialEq)]
pub struct TileDensityStats {
    /// Number of non-empty tiles.
    pub nonempty_tiles: usize,
    /// Number of possible tiles, `⌈n/8⌉²`.
    pub possible_tiles: usize,
    /// Fraction of possible tiles that are non-empty (the percentage shown
    /// on the left of Fig. 7).
    pub nonempty_fraction: f64,
    /// Mean fill factor of the non-empty tiles (the "avg. density" marker
    /// of Fig. 7).
    pub mean_density: f64,
    /// Histogram of per-tile fill factors over 16 equal-width bins covering
    /// `(0, 1]` (the density distribution curve of Fig. 7).
    pub density_histogram: [usize; 16],
    /// Total number of nonzero matrix elements.
    pub nonzeros: usize,
}

impl TileDensityStats {
    /// Compute the statistics of an octile matrix.
    pub fn of<E: Copy + Default>(m: &OctileMatrix<E>) -> Self {
        Self::from_tiles(m.tiles(), m.tiles_per_side())
    }

    /// Compute the statistics from a tile list and the tile-grid side
    /// length.
    fn from_tiles<E: Copy>(tiles: &[Octile<E>], tiles_per_side: usize) -> Self {
        let nonempty_tiles = tiles.len();
        let possible_tiles = tiles_per_side * tiles_per_side;
        let nonzeros: usize = tiles.iter().map(|t| t.nnz()).sum();
        let mut density_histogram = [0usize; 16];
        let mut density_sum = 0.0f64;
        for t in tiles {
            let d = t.nnz() as f64 / TILE_AREA as f64;
            density_sum += d;
            // nnz in 1..=64 maps to bins 0..16
            let bin = ((t.nnz() - 1) * 16 / TILE_AREA).min(15);
            density_histogram[bin] += 1;
        }
        TileDensityStats {
            nonempty_tiles,
            possible_tiles,
            nonempty_fraction: if possible_tiles == 0 {
                0.0
            } else {
                nonempty_tiles as f64 / possible_tiles as f64
            },
            mean_density: if nonempty_tiles == 0 {
                0.0
            } else {
                density_sum / nonempty_tiles as f64
            },
            density_histogram,
            nonzeros,
        }
    }

    /// Average over per-graph statistics: mean non-empty fraction and mean
    /// density across a dataset (this is how Fig. 7 aggregates each
    /// dataset).
    pub fn aggregate(stats: &[TileDensityStats]) -> TileDensityStats {
        if stats.is_empty() {
            return TileDensityStats {
                nonempty_tiles: 0,
                possible_tiles: 0,
                nonempty_fraction: 0.0,
                mean_density: 0.0,
                density_histogram: [0; 16],
                nonzeros: 0,
            };
        }
        let mut hist = [0usize; 16];
        for s in stats {
            for (h, x) in hist.iter_mut().zip(&s.density_histogram) {
                *h += x;
            }
        }
        TileDensityStats {
            nonempty_tiles: stats.iter().map(|s| s.nonempty_tiles).sum(),
            possible_tiles: stats.iter().map(|s| s.possible_tiles).sum(),
            nonempty_fraction: stats.iter().map(|s| s.nonempty_fraction).sum::<f64>()
                / stats.len() as f64,
            mean_density: stats.iter().map(|s| s.mean_density).sum::<f64>() / stats.len() as f64,
            density_histogram: hist,
            nonzeros: stats.iter().map(|s| s.nonzeros).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgk_graph::{Graph, Unlabeled};

    #[test]
    fn stats_of_small_path() {
        let g = Graph::from_edge_list(20, &[(0, 1), (1, 2), (8, 9), (16, 17)]);
        let m = OctileMatrix::from_graph(&g.map_labels(|_| Unlabeled, |_| 0.0f32));
        let s = TileDensityStats::of(&m);
        assert_eq!(s.possible_tiles, 9);
        assert_eq!(s.nonempty_tiles, 3); // (0,0), (1,1), (2,2)
        assert!((s.nonempty_fraction - 3.0 / 9.0).abs() < 1e-12);
        assert_eq!(s.nonzeros, 8);
        assert_eq!(s.density_histogram.iter().sum::<usize>(), 3);
        // every occupied tile here has at most 4/64 nonzeros -> first bin
        assert_eq!(s.density_histogram[0], 3);
    }

    #[test]
    fn histogram_top_bin_for_full_tile() {
        let edges: Vec<(u32, u32)> =
            (0..8u32).flat_map(|i| ((i + 1)..8).map(move |j| (i, j))).collect();
        let g = Graph::from_edge_list(8, &edges);
        let m = OctileMatrix::from_graph(&g.map_labels(|_| Unlabeled, |_| 0.0f32));
        let s = TileDensityStats::of(&m);
        assert_eq!(s.nonempty_tiles, 1);
        // 56/64 nonzeros (no diagonal) => bin index (55*16/64)=13
        assert_eq!(s.density_histogram[13], 1);
        assert!(s.mean_density > 0.8);
    }

    #[test]
    fn aggregate_averages_fractions() {
        let a = TileDensityStats {
            nonempty_tiles: 2,
            possible_tiles: 4,
            nonempty_fraction: 0.5,
            mean_density: 0.2,
            density_histogram: [0; 16],
            nonzeros: 10,
        };
        let mut b = a.clone();
        b.nonempty_fraction = 1.0;
        b.mean_density = 0.4;
        let agg = TileDensityStats::aggregate(&[a, b]);
        assert!((agg.nonempty_fraction - 0.75).abs() < 1e-12);
        assert!((agg.mean_density - 0.3).abs() < 1e-12);
        assert_eq!(agg.nonzeros, 20);
    }

    #[test]
    fn aggregate_of_empty_slice() {
        let agg = TileDensityStats::aggregate(&[]);
        assert_eq!(agg.nonempty_tiles, 0);
        assert_eq!(agg.nonempty_fraction, 0.0);
    }
}
