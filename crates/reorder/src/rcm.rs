//! Reverse Cuthill–McKee ordering (reference \[10\] of the paper).

use mgk_graph::Graph;

/// Compute the Reverse Cuthill–McKee order of a graph.
///
/// For every connected component a pseudo-peripheral starting vertex is
/// located by repeated BFS; vertices are then visited in BFS order with
/// neighbours enqueued by increasing degree, and the final ordering is
/// reversed. Isolated vertices are appended at the end.
pub fn rcm_order<V, E>(g: &Graph<V, E>) -> Vec<u32> {
    let n = g.num_vertices();
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut visited = vec![false; n];

    // process components in order of their lowest-index vertex
    for start in 0..n {
        if visited[start] {
            continue;
        }
        let root = pseudo_peripheral(g, start, &visited);
        // BFS with degree-sorted neighbour expansion (Cuthill–McKee)
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(root as u32);
        visited[root] = true;
        let component_start = order.len();
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nbrs: Vec<u32> = g
                .neighbors(v as usize)
                .map(|e| e.target)
                .filter(|&t| !visited[t as usize])
                .collect();
            nbrs.sort_by_key(|&t| g.vertex_degree(t as usize));
            for t in nbrs {
                if !visited[t as usize] {
                    visited[t as usize] = true;
                    queue.push_back(t);
                }
            }
        }
        // reverse this component's slice (Reverse Cuthill–McKee)
        order[component_start..].reverse();
    }
    order
}

/// Find a pseudo-peripheral vertex of the component containing `start`,
/// restricted to unvisited vertices, by iterating BFS from the farthest
/// minimum-degree vertex of the previous level structure.
fn pseudo_peripheral<V, E>(g: &Graph<V, E>, start: usize, visited: &[bool]) -> usize {
    let mut root = start;
    let mut last_ecc = usize::MAX;
    for _ in 0..4 {
        let (levels, ecc) = bfs_levels(g, root, visited);
        if ecc == last_ecc || ecc == 0 {
            break;
        }
        last_ecc = ecc;
        // pick a minimum-degree vertex in the last level
        let mut best = root;
        let mut best_deg = usize::MAX;
        for (v, &lvl) in levels.iter().enumerate() {
            if lvl == ecc && !visited[v] {
                let d = g.vertex_degree(v);
                if d < best_deg {
                    best_deg = d;
                    best = v;
                }
            }
        }
        root = best;
    }
    root
}

/// BFS level structure from `root`, ignoring visited vertices; returns the
/// level of every vertex (`usize::MAX` for unreachable) and the
/// eccentricity of the root within the unvisited subgraph.
fn bfs_levels<V, E>(g: &Graph<V, E>, root: usize, visited: &[bool]) -> (Vec<usize>, usize) {
    let n = g.num_vertices();
    let mut levels = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    levels[root] = 0;
    queue.push_back(root);
    let mut ecc = 0;
    while let Some(v) = queue.pop_front() {
        for e in g.neighbors(v) {
            let t = e.target as usize;
            if !visited[t] && levels[t] == usize::MAX {
                levels[t] = levels[v] + 1;
                ecc = ecc.max(levels[t]);
                queue.push_back(t);
            }
        }
    }
    (levels, ecc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{is_permutation, nonempty_tiles_of_order};
    use mgk_graph::Graph;

    #[test]
    fn rcm_is_a_permutation() {
        let g =
            Graph::from_edge_list(10, &[(0, 9), (9, 3), (3, 7), (7, 1), (1, 5), (2, 6), (6, 8)]);
        let order = rcm_order(&g);
        assert!(is_permutation(&order, 10));
    }

    #[test]
    fn rcm_reduces_bandwidth_of_shuffled_path() {
        // a path whose natural labels are scrambled: RCM should recover a
        // low-bandwidth (path-like) ordering
        let edges = [(0u32, 7u32), (7, 3), (3, 9), (9, 1), (1, 6), (6, 2), (2, 8), (8, 4), (4, 5)];
        let g = Graph::from_edge_list(10, &edges);
        let order = rcm_order(&g);
        // bandwidth under the RCM order
        let mut pos = [0usize; 10];
        for (k, &v) in order.iter().enumerate() {
            pos[v as usize] = k;
        }
        let bw =
            g.edges().map(|(i, j, _, _)| pos[i as usize].abs_diff(pos[j as usize])).max().unwrap();
        assert_eq!(bw, 1, "RCM should linearize a path, got bandwidth {bw}");
    }

    #[test]
    fn rcm_handles_disconnected_graphs_and_isolated_vertices() {
        let g = Graph::from_edge_list(7, &[(0, 1), (1, 2), (4, 5)]);
        let order = rcm_order(&g);
        assert!(is_permutation(&order, 7));
    }

    #[test]
    fn rcm_does_not_hurt_tile_count_on_banded_graph() {
        // long path shuffled randomly-ish: RCM should need no more tiles
        // than the shuffled order
        let edges = [
            (0u32, 12u32),
            (12, 5),
            (5, 17),
            (17, 3),
            (3, 9),
            (9, 14),
            (14, 1),
            (1, 19),
            (19, 7),
            (7, 11),
            (11, 2),
            (2, 16),
            (16, 4),
            (4, 10),
            (10, 15),
            (15, 6),
            (6, 13),
            (13, 8),
            (8, 18),
        ];
        let g = Graph::from_edge_list(20, &edges);
        let natural: Vec<u32> = (0..20).collect();
        let rcm = rcm_order(&g);
        let t_nat = nonempty_tiles_of_order(&g, &natural, 8);
        let t_rcm = nonempty_tiles_of_order(&g, &rcm, 8);
        assert!(t_rcm <= t_nat, "RCM {t_rcm} should not exceed natural {t_nat}");
        // a perfectly linearized 20-node path occupies the 3 diagonal tiles
        // plus the 4 tiles coupling consecutive tile rows
        assert_eq!(t_rcm, 7, "a linearized 20-node path occupies 7 tiles, got {t_rcm}");
    }
}
