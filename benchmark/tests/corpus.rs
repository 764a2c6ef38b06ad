//! Corpora are a function of the seed: the same seed gives the same content,
//! another seed other content over the same wiring.

use mgk_benchmark::corpus;

const SEEDS: [u64; 4] = [0, 1, 2, u64::MAX];

fn hashes(make: impl Fn(u64) -> u64) -> Vec<u64> {
    SEEDS.iter().map(|&seed| make(seed)).collect()
}

fn assert_seeded(name: &str, make: impl Fn(u64) -> u64) {
    let first = hashes(&make);
    assert_eq!(first, hashes(&make), "{name}: the same seed must give the same corpus");
    for i in 0..first.len() {
        for j in i + 1..first.len() {
            assert_ne!(first[i], first[j], "{name}: seeds {} and {} collide", SEEDS[i], SEEDS[j]);
        }
    }
}

#[test]
fn every_corpus_is_a_function_of_the_seed() {
    assert_seeded("gram-sparse", |s| corpus::gram_sparse(s).content_hash());
    assert_seeded("gram-dense", |s| corpus::gram_dense(s).content_hash());
    assert_seeded("gram-small-mol", |s| corpus::gram_small_mol(s).content_hash());
    assert_seeded("serve-cold", |s| corpus::serve_cold(s).content_hash());
    assert_seeded("serve-hot-restart", |s| corpus::serve_hot_restart(s).content_hash());
}

#[test]
fn the_seed_dresses_but_does_not_wire() {
    let shape = |seed: u64| -> Vec<(usize, usize)> {
        let c = corpus::gram_sparse(seed);
        c.graphs
            .iter()
            .chain(c.cold_pairs.iter().flat_map(|(a, b)| [a, b]))
            .map(|g| (g.num_vertices(), g.num_edges()))
            .collect()
    };
    assert_eq!(shape(1), shape(2));
    // same edges, other weights and probabilities
    let (a, b) = (corpus::gram_sparse(1), corpus::gram_sparse(2));
    let edges = |g: &mgk_graph::Graph| -> Vec<(u32, u32)> {
        g.edges().map(|(i, j, _, _)| (i, j)).collect()
    };
    assert_eq!(edges(&a.graphs[0]), edges(&b.graphs[0]));
    assert_ne!(a.graphs[0].stop_probabilities(), b.graphs[0].stop_probabilities());
    assert_ne!(a.graphs[0].start_probabilities(), b.graphs[0].start_probabilities());
    let weights = |g: &mgk_graph::Graph| -> Vec<f32> { g.edges().map(|(_, _, w, _)| w).collect() };
    assert_ne!(weights(&a.graphs[0]), weights(&b.graphs[0]));
}

#[test]
fn corpora_have_the_documented_shape() {
    let sparse = corpus::gram_sparse(5);
    assert_eq!((sparse.graphs.len(), sparse.cold_pairs.len()), (3, 3));
    assert!(sparse.graphs.iter().all(|g| g.num_vertices() == 96));
    let dense = corpus::gram_dense(5);
    assert_eq!((dense.graphs.len(), dense.cold_pairs.len()), (4, 3));
    let small = corpus::gram_small_mol(5);
    assert_eq!((small.graphs.len(), small.cold_pairs.len()), (48, 256));
    assert_eq!(small.graphs.iter().map(|g| g.num_vertices()).min(), Some(6));
    assert_eq!(small.graphs.iter().map(|g| g.num_vertices()).max(), Some(40));

    for seed in 0..8 {
        let cold = corpus::serve_cold(seed);
        assert_eq!((cold.structures.len(), cold.requests.len(), cold.bursts.len()), (8, 16, 2));
        // four structures per shard on every seed, so a flush is 20 pairs
        let on_shard_0 = cold.structures.iter().filter(|g| corpus::shard_of(g) == 0).count();
        assert_eq!(on_shard_0, 4, "seed {seed}");
    }

    let hot = corpus::serve_hot_restart(5);
    assert_eq!((hot.structures.len(), hot.misses.len()), (64, 32));
    assert_eq!(hot.hit_order.len(), 8192);
    // both orientations of every pair, twice
    let mut seen = vec![0u8; 64 * 64];
    for &(i, j) in &hot.hit_order {
        seen[i as usize * 64 + j as usize] += 1;
    }
    assert!(seen.iter().all(|&count| count == 2));
}
