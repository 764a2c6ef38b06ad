//! Travelling-salesman-based reordering (reference \[11\] of the paper,
//! Pinar & Heath).
//!
//! Vertices are arranged along a path that keeps consecutive vertices'
//! adjacency-row patterns similar, so that their nonzeros fall into the
//! same tile rows. The "distance" between two vertices is the size of the
//! symmetric difference of their neighbourhoods minus a bonus when they are
//! themselves adjacent. The tour is built with a nearest-neighbour sweep
//! and improved with a bounded number of 2-opt passes — the paper observes
//! that TSP-based reordering is orders of magnitude slower than RCM/PBR,
//! which this construction reproduces (it is quadratic in the number of
//! vertices).

use mgk_graph::Graph;
use std::collections::HashSet;

/// Maximum number of 2-opt improvement passes.
const TWO_OPT_PASSES: usize = 4;

/// Compute the TSP-heuristic vertex order of a graph.
pub fn tsp_order<V, E>(g: &Graph<V, E>) -> Vec<u32> {
    let n = g.num_vertices();
    if n <= 2 {
        return (0..n as u32).collect();
    }

    // closed neighbourhoods (vertex included): two vertices that are
    // adjacent or share neighbours have overlapping rows, i.e. their
    // nonzeros fall into the same tile columns
    let neighbourhoods: Vec<HashSet<u32>> = (0..n)
        .map(|i| {
            let mut s: HashSet<u32> = g.neighbors(i).map(|e| e.target).collect();
            s.insert(i as u32);
            s
        })
        .collect();

    let dist = |a: usize, b: usize| -> i64 {
        // symmetric difference of the two closed adjacency rows
        let na = &neighbourhoods[a];
        let nb = &neighbourhoods[b];
        let inter = na.iter().filter(|v| nb.contains(v)).count();
        (na.len() + nb.len()) as i64 - 2 * inter as i64
    };

    // nearest-neighbour construction starting from the lowest-degree vertex
    let start = (0..n).min_by_key(|&i| g.vertex_degree(i)).unwrap_or(0);
    let mut tour: Vec<u32> = Vec::with_capacity(n);
    let mut used = vec![false; n];
    tour.push(start as u32);
    used[start] = true;
    let mut last = start;
    for _ in 1..n {
        let Some(next) = (0..n).filter(|&v| !used[v]).min_by_key(|&v| (dist(last, v), v)) else {
            break;
        };
        used[next] = true;
        tour.push(next as u32);
        last = next;
    }

    // 2-opt refinement on the path objective Σ dist(tour[i], tour[i+1])
    for _ in 0..TWO_OPT_PASSES {
        let mut improved = false;
        for i in 0..n.saturating_sub(2) {
            for j in (i + 2)..n - 1 {
                let (a, b) = (tour[i] as usize, tour[i + 1] as usize);
                let (c, d) = (tour[j] as usize, tour[j + 1] as usize);
                let before = dist(a, b) + dist(c, d);
                let after = dist(a, c) + dist(b, d);
                if after < before {
                    tour[i + 1..=j].reverse();
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    tour
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{is_permutation, nonempty_tiles_of_order};
    use mgk_graph::{generators, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tsp_returns_permutation() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::newman_watts_strogatz(40, 2, 0.2, &mut rng);
        let order = tsp_order(&g);
        assert!(is_permutation(&order, 40));
    }

    #[test]
    fn tsp_linearizes_a_shuffled_path() {
        let edges = [(0u32, 7u32), (7, 3), (3, 9), (9, 1), (1, 6), (6, 2), (2, 8), (8, 4), (4, 5)];
        let g = Graph::from_edge_list(10, &edges);
        let order = tsp_order(&g);
        let mut pos = [0usize; 10];
        for (k, &v) in order.iter().enumerate() {
            pos[v as usize] = k;
        }
        let bw =
            g.edges().map(|(i, j, _, _)| pos[i as usize].abs_diff(pos[j as usize])).max().unwrap();
        assert!(bw <= 2, "TSP order should nearly linearize a path, bandwidth {bw}");
    }

    #[test]
    fn tsp_improves_tile_count_of_interleaved_blocks() {
        // two cliques with interleaved labels (same setup as the PBR test)
        let mut edges = Vec::new();
        let a: Vec<u32> = (0..8).map(|i| 2 * i).collect();
        let b: Vec<u32> = (0..8).map(|i| 2 * i + 1).collect();
        for group in [&a, &b] {
            for x in 0..8 {
                for y in (x + 1)..8 {
                    edges.push((group[x], group[y]));
                }
            }
        }
        let g = Graph::from_edge_list(16, &edges);
        let order = tsp_order(&g);
        let t = nonempty_tiles_of_order(&g, &order, 8);
        // each clique should occupy its own diagonal tile
        assert_eq!(t, 2, "TSP should separate the two cliques, got {t} tiles");
    }

    #[test]
    fn tiny_graphs() {
        let g = Graph::from_edge_list(1, &[]);
        assert_eq!(tsp_order(&g), vec![0]);
        let g2 = Graph::from_edge_list(2, &[(0, 1)]);
        assert_eq!(tsp_order(&g2).len(), 2);
    }
}
