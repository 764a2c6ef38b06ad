//! Random graph generators for the synthetic benchmark workloads.
//!
//! Section VI-A of the paper uses the Newman–Watts–Strogatz (small-world)
//! and Barabási–Albert (scale-free) models; the performance sections
//! additionally need dense (fully connected) graphs of a fixed size for the
//! XMV micro-benchmarks (Fig. 5 uses 72-node dense graphs).

use rand::seq::SliceRandom;
use rand::Rng;

use crate::graph::Graph;
use crate::labels::Unlabeled;
use crate::{GraphBuilder, DEFAULT_STOPPING_PROBABILITY};

/// Generate a Newman–Watts–Strogatz small-world graph.
///
/// Start from a ring lattice where every vertex is connected to its `k`
/// nearest neighbours on each side, then for every existing edge add a
/// random "shortcut" edge with probability `p` (edges are added, never
/// rewired — this is the NWS variant, which keeps the graph connected).
///
/// The paper's ablation (Section VII-A) uses `n = 96, k = 3, p = 0.1`.
pub fn newman_watts_strogatz<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    p: f64,
    rng: &mut R,
) -> Graph<Unlabeled, Unlabeled> {
    assert!(n >= 2, "NWS graph needs at least two vertices");
    assert!(k >= 1 && 2 * k < n, "NWS neighbourhood k must satisfy 1 <= k < n/2");
    assert!((0.0..=1.0).contains(&p), "shortcut probability must be in [0, 1]");

    // BTreeSet keeps the edge iteration order deterministic for a fixed seed
    let mut edges: std::collections::BTreeSet<(u32, u32)> = std::collections::BTreeSet::new();
    let add = |edges: &mut std::collections::BTreeSet<(u32, u32)>, a: usize, b: usize| {
        if a == b {
            return false;
        }
        let key = if a < b { (a as u32, b as u32) } else { (b as u32, a as u32) };
        edges.insert(key)
    };

    // ring lattice
    for i in 0..n {
        for d in 1..=k {
            let j = (i + d) % n;
            add(&mut edges, i, j);
        }
    }
    // shortcuts
    let ring_edges: Vec<(u32, u32)> = edges.iter().copied().collect();
    for &(u, _) in &ring_edges {
        if rng.gen_bool(p) {
            // add a shortcut from u to a random vertex
            let w = rng.gen_range(0..n);
            add(&mut edges, u as usize, w);
        }
    }

    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for _ in 0..n {
        b.add_vertex(Unlabeled);
    }
    for (u, v) in edges {
        b.add_edge(u as usize, v as usize, 1.0, Unlabeled).expect("generator produced valid edge");
    }
    b.stopping_probability(DEFAULT_STOPPING_PROBABILITY);
    b.build().expect("NWS generator produced a valid graph")
}

/// Generate a Barabási–Albert preferential-attachment (scale-free) graph.
///
/// The graph starts from a clique of `m + 1` vertices; every subsequently
/// added vertex attaches to `m` distinct existing vertices chosen with
/// probability proportional to their current degree.
///
/// The paper's ablation uses `n = 96, m = 6`.
pub fn barabasi_albert<R: Rng + ?Sized>(
    n: usize,
    m: usize,
    rng: &mut R,
) -> Graph<Unlabeled, Unlabeled> {
    assert!(m >= 1, "attachment count must be at least 1");
    assert!(n > m, "BA graph needs more than m vertices");

    let mut b = GraphBuilder::with_capacity(n, n * m);
    for _ in 0..n {
        b.add_vertex(Unlabeled);
    }

    // repeated-vertex list implementing preferential attachment
    let mut targets: Vec<usize> = Vec::with_capacity(2 * n * m);
    let seed = m + 1;
    for i in 0..seed {
        for j in (i + 1)..seed {
            b.add_edge(i, j, 1.0, Unlabeled).expect("seed clique edge");
            targets.push(i);
            targets.push(j);
        }
    }
    for v in seed..n {
        // BTreeSet: deterministic iteration keeps the attachment list (and
        // therefore the whole generated ensemble) reproducible under a seed
        let mut chosen = std::collections::BTreeSet::new();
        while chosen.len() < m {
            let t = *targets.choose(rng).expect("target list non-empty");
            chosen.insert(t);
        }
        for &t in &chosen {
            b.add_edge(v, t, 1.0, Unlabeled).expect("BA edge");
            targets.push(v);
            targets.push(t);
        }
    }
    b.stopping_probability(DEFAULT_STOPPING_PROBABILITY);
    b.build().expect("BA generator produced a valid graph")
}

/// Generate a fully connected graph with `n` vertices, unit weights and
/// uniformly random edge labels in `[0, 1)`.
///
/// This is the dense workload used for the XMV primitive micro-benchmarks
/// (Fig. 5 of the paper uses 72-node dense graphs).
pub fn complete_labeled<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph<Unlabeled, f32> {
    let mut b: GraphBuilder<Unlabeled, f32> = GraphBuilder::with_capacity(n, n * (n - 1) / 2);
    for _ in 0..n {
        b.add_vertex(Unlabeled);
    }
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_edge(i, j, 1.0, rng.gen::<f32>()).expect("complete graph edge");
        }
    }
    b.stopping_probability(DEFAULT_STOPPING_PROBABILITY);
    b.build().expect("complete generator produced a valid graph")
}

/// Generate an Erdős–Rényi `G(n, p)` graph with unit weights.
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph<Unlabeled, Unlabeled> {
    assert!((0.0..=1.0).contains(&p));
    let mut b = GraphBuilder::with_capacity(n, (p * (n * n) as f64 / 2.0) as usize + 1);
    for _ in 0..n {
        b.add_vertex(Unlabeled);
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p) {
                b.add_edge(i, j, 1.0, Unlabeled).expect("ER edge");
            }
        }
    }
    b.stopping_probability(DEFAULT_STOPPING_PROBABILITY);
    b.build().expect("ER generator produced a valid graph")
}

/// Generate a random geometric graph: `n` points uniformly distributed in
/// the unit cube, connected when closer than `radius`. Edge weights decay
/// smoothly from 1 (overlapping) to 0 (at the cutoff) and edge labels carry
/// the Euclidean distance — the same adjacency rule the paper applies to 3D
/// protein structures (Section VI-B).
///
/// Returns the graph together with the generated coordinates, which
/// `mgk_reorder::hilbert_order` can order along a Hilbert curve.
pub fn random_geometric<R: Rng + ?Sized>(
    n: usize,
    radius: f32,
    rng: &mut R,
) -> (Graph<Unlabeled, f32>, Vec<[f32; 3]>) {
    assert!(radius > 0.0);
    let points: Vec<[f32; 3]> = (0..n).map(|_| [rng.gen(), rng.gen(), rng.gen()]).collect();
    let g = geometric_from_points(&points, radius);
    (g, points)
}

/// Build a spatial-adjacency graph from explicit 3D coordinates using the
/// paper's smooth cutoff rule: `w = (1 - (r / cutoff)^2)^2` for `r < cutoff`
/// and 0 otherwise, with the interatomic distance as the edge label.
pub fn geometric_from_points(points: &[[f32; 3]], cutoff: f32) -> Graph<Unlabeled, f32> {
    let n = points.len();
    let mut b: GraphBuilder<Unlabeled, f32> = GraphBuilder::with_capacity(n, 8 * n);
    for _ in 0..n {
        b.add_vertex(Unlabeled);
    }
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = points[i][0] - points[j][0];
            let dy = points[i][1] - points[j][1];
            let dz = points[i][2] - points[j][2];
            let r = (dx * dx + dy * dy + dz * dz).sqrt();
            if r < cutoff {
                let x = r / cutoff;
                let w = (1.0 - x * x).powi(2);
                if w > 0.0 {
                    b.add_edge(i, j, w, r).expect("geometric edge");
                }
            }
        }
    }
    b.stopping_probability(DEFAULT_STOPPING_PROBABILITY);
    b.build().expect("geometric generator produced a valid graph")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn nws_has_ring_lattice_baseline() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = newman_watts_strogatz(96, 3, 0.1, &mut rng);
        assert_eq!(g.num_vertices(), 96);
        // ring lattice alone has n*k edges; shortcuts only add more
        assert!(g.num_edges() >= 96 * 3);
        assert!(g.is_connected());
        // every vertex has degree at least k (its forward ring neighbours)
        for i in 0..96 {
            assert!(g.vertex_degree(i) >= 3, "vertex {i} under-connected");
        }
    }

    #[test]
    fn nws_zero_probability_is_pure_ring() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = newman_watts_strogatz(20, 2, 0.0, &mut rng);
        assert_eq!(g.num_edges(), 20 * 2);
        for i in 0..20 {
            assert_eq!(g.vertex_degree(i), 4);
        }
    }

    #[test]
    #[should_panic(expected = "NWS neighbourhood")]
    fn nws_rejects_oversized_k() {
        let mut rng = StdRng::seed_from_u64(3);
        let _ = newman_watts_strogatz(10, 5, 0.1, &mut rng);
    }

    #[test]
    fn ba_degrees_and_connectivity() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = barabasi_albert(96, 6, &mut rng);
        assert_eq!(g.num_vertices(), 96);
        assert!(g.is_connected());
        // every non-seed vertex connects to exactly m distinct targets, so
        // the total edge count is the seed clique plus m per added vertex
        let seed = 7;
        let expected = seed * (seed - 1) / 2 + (96 - seed) * 6;
        assert_eq!(g.num_edges(), expected);
        // scale-free: max degree should well exceed the mean
        let max_deg = (0..96).map(|i| g.vertex_degree(i)).max().unwrap();
        let mean_deg = 2.0 * g.num_edges() as f64 / 96.0;
        assert!(max_deg as f64 > 1.5 * mean_deg, "max {max_deg} vs mean {mean_deg}");
    }

    #[test]
    fn complete_graph_is_dense() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = complete_labeled(12, &mut rng);
        assert_eq!(g.num_edges(), 12 * 11 / 2);
        for i in 0..12 {
            assert_eq!(g.vertex_degree(i), 11);
        }
        // labels are in [0, 1)
        for (_, _, _, &l) in g.edges() {
            assert!((0.0..1.0).contains(&l));
        }
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = StdRng::seed_from_u64(6);
        let empty = erdos_renyi(10, 0.0, &mut rng);
        assert_eq!(empty.num_edges(), 0);
        let full = erdos_renyi(10, 1.0, &mut rng);
        assert_eq!(full.num_edges(), 45);
    }

    #[test]
    fn geometric_graph_weights_decay_with_distance() {
        let points = vec![[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.4, 0.0, 0.0], [5.0, 5.0, 5.0]];
        let g = geometric_from_points(&points, 0.5);
        // nearby points connected, far point isolated
        assert!(g.edge_weight(0, 1).is_some());
        assert!(g.edge_weight(0, 3).is_none());
        let w01 = g.edge_weight(0, 1).unwrap();
        let w02 = g.edge_weight(0, 2).unwrap();
        assert!(w01 > w02, "closer pair should have larger weight");
        // edge label stores the distance
        assert!((g.edge_label(0, 1).unwrap() - 0.1).abs() < 1e-6);
    }

    #[test]
    fn random_geometric_returns_points() {
        let mut rng = StdRng::seed_from_u64(7);
        let (g, pts) = random_geometric(50, 0.3, &mut rng);
        assert_eq!(g.num_vertices(), 50);
        assert_eq!(pts.len(), 50);
    }

    #[test]
    fn generators_are_deterministic_under_seed() {
        let g1 = newman_watts_strogatz(30, 2, 0.3, &mut StdRng::seed_from_u64(99));
        let g2 = newman_watts_strogatz(30, 2, 0.3, &mut StdRng::seed_from_u64(99));
        assert_eq!(g1, g2);
        let b1 = barabasi_albert(30, 3, &mut StdRng::seed_from_u64(99));
        let b2 = barabasi_albert(30, 3, &mut StdRng::seed_from_u64(99));
        assert_eq!(b1, b2);
    }
}
