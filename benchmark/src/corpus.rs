//! Inputs, made from the seed and nothing else.
//!
//! **The seed dresses a corpus; it does not wire it.** Which vertices are
//! joined is drawn from the repository's generators under a constant
//! ([`TOPOLOGY_SEED`]); the run's seed then draws every edge weight and
//! every vertex's starting and stopping probability. So two seeds give
//! graphs with different content hashes, different kernel values and
//! different right-hand sides — nothing can be remembered from one seed to
//! the next — over the same sparsity pattern, which is what the amount of
//! work depends on.
//!
//! Why not draw the wiring from the seed too: see the probe numbers in the
//! README. Merely renumbering the vertices of the *same* four 96-node graphs
//! moved a Gram lap by ±10 % (PBR finds 124–138 tiles for the one BA graph
//! depending on the input order), four 48-atom protein-like structures
//! differ by ±25 % in edges, and even 1176 pairs of 48 random molecules
//! leave 2.5 % between seeds. Every bound of this benchmark is tighter than
//! that.

use mgk_datasets::{molecules, protein};
use mgk_graph::{generators, AtomLabel, BondLabel, Element, Graph, GraphBuilder, Unlabeled};
use mgk_runtime::{graph_content_hash, shard_of_side, ContentHash, Fnv1a, PairSide};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

pub type Molecule = Graph<AtomLabel, BondLabel>;
pub type Pairs<V, E> = Vec<(Graph<V, E>, Graph<V, E>)>;

/// The constant every corpus's wiring is drawn under.
pub const TOPOLOGY_SEED: u64 = 0x6d67_6b31;

/// Each workload wires and dresses from its own streams, so a corpus does
/// not change when another workload's does.
fn wiring_rng(stream: u64) -> StdRng {
    StdRng::seed_from_u64(TOPOLOGY_SEED ^ stream)
}

fn dressing_rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

/// The same graph with seeded content: every edge weight scaled by a factor
/// in `[0.9, 1)`, every vertex given a stopping probability in
/// `[0.045, 0.055)` (the default is 0.05) and a starting weight in
/// `[0.5, 1.5)` (normalised by the builder). Vertex order, labels and the
/// sparsity pattern are untouched. A perturbation of the system this small
/// still moves PCG iteration counts by a few per cent, chaotically — which
/// is the point: ten seeds average that lottery out for a change that
/// alters the order of floating-point operations.
fn dress<V: Clone, E: Copy>(g: &Graph<V, E>, rng: &mut StdRng) -> Graph<V, E> {
    let n = g.num_vertices();
    let mut b = GraphBuilder::with_capacity(n, g.num_edges());
    for label in g.vertex_labels() {
        b.add_vertex(label.clone());
    }
    for (i, j, weight, label) in g.edges() {
        b.add_edge(i as usize, j as usize, weight * rng.gen_range(0.9f32..1.0), *label)
            .expect("an edge of a valid graph is valid");
    }
    b.stopping_probabilities((0..n).map(|_| rng.gen_range(0.045f32..0.055)).collect());
    b.starting_probabilities((0..n).map(|_| rng.gen_range(0.5f32..1.5)).collect());
    b.build().expect("a valid graph with new weights is valid")
}

fn dress_all<V: Clone, E: Copy>(graphs: &[Graph<V, E>], rng: &mut StdRng) -> Vec<Graph<V, E>> {
    graphs.iter().map(|g| dress(g, rng)).collect()
}

fn pair_up<V, E>(graphs: Vec<Graph<V, E>>) -> Pairs<V, E> {
    let mut pairs = Vec::with_capacity(graphs.len() / 2);
    let mut graphs = graphs.into_iter();
    while let (Some(a), Some(b)) = (graphs.next(), graphs.next()) {
        pairs.push((a, b));
    }
    pairs
}

/// `count` sizes spread evenly over `min..=max`.
fn size_grid(count: usize, min: usize, max: usize) -> impl Iterator<Item = usize> {
    (0..count).map(move |i| min + (max - min) * i / (count - 1).max(1))
}

fn molecules_on_grid(count: usize, min: usize, max: usize, rng: &mut StdRng) -> Vec<Molecule> {
    size_grid(count, min, max).map(|n| molecules::synthetic_molecule(n, rng)).collect()
}

fn hash_graphs<'a, V: ContentHash + 'a, E: ContentHash + 'a>(
    h: &mut Fnv1a,
    graphs: impl IntoIterator<Item = &'a Graph<V, E>>,
) {
    for g in graphs {
        h.write_u64(graph_content_hash(g));
    }
}

fn hash_pairs<V: ContentHash, E: ContentHash>(h: &mut Fnv1a, pairs: &Pairs<V, E>) {
    hash_graphs(h, pairs.iter().flat_map(|(a, b)| [a, b]));
}

/// What a `gram-*` workload runs on: the graphs its throughput laps cover
/// and the pairs its cold-pair laps solve one at a time. The two share no
/// graph.
#[derive(Debug, Clone)]
pub struct Corpus<V, E> {
    pub graphs: Vec<Graph<V, E>>,
    pub cold_pairs: Pairs<V, E>,
}

impl<V: ContentHash, E: ContentHash> Corpus<V, E> {
    /// One hash over the content of every graph, in order.
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        hash_graphs(&mut h, &self.graphs);
        hash_pairs(&mut h, &self.cold_pairs);
        h.finish()
    }
}

/// The paper's ablation graphs (Sec. VII-A), unlabeled, 96 nodes.
fn nws(rng: &mut StdRng) -> Graph<Unlabeled, Unlabeled> {
    generators::newman_watts_strogatz(96, 3, 0.1, rng)
}

fn ba(rng: &mut StdRng) -> Graph<Unlabeled, Unlabeled> {
    generators::barabasi_albert(96, 6, rng)
}

/// `gram-sparse`: 2 NWS graphs and 1 BA graph for the Gram laps (6 pairs),
/// 3 cold pairs (NWS×NWS, NWS×BA, NWS×NWS).
pub fn gram_sparse(seed: u64) -> Corpus<Unlabeled, Unlabeled> {
    let mut wiring = wiring_rng(1);
    let graphs = [nws(&mut wiring), nws(&mut wiring), ba(&mut wiring)];
    let cold = [
        nws(&mut wiring),
        nws(&mut wiring),
        nws(&mut wiring),
        ba(&mut wiring),
        nws(&mut wiring),
        nws(&mut wiring),
    ];
    let mut dressing = dressing_rng(seed, 1);
    Corpus {
        graphs: dress_all(&graphs, &mut dressing),
        cold_pairs: pair_up(dress_all(&cold, &mut dressing)),
    }
}

/// Atoms per protein-like structure: 6 × 6 tiles, two thirds of them
/// non-empty.
pub const DENSE_ATOMS: usize = 48;

/// `gram-dense`: 4 protein-like structures for the Gram laps (10 pairs), 3
/// cold pairs.
pub fn gram_dense(seed: u64) -> Corpus<Element, f32> {
    let mut wiring = wiring_rng(2);
    let structures: Vec<Graph<Element, f32>> =
        (0..10).map(|_| protein::synthetic_structure(DENSE_ATOMS, &mut wiring).graph).collect();
    let mut dressing = dressing_rng(seed, 2);
    let mut dressed = dress_all(&structures, &mut dressing);
    let cold = dressed.split_off(4);
    Corpus { graphs: dressed, cold_pairs: pair_up(cold) }
}

/// `gram-small-mol`: 48 labelled molecules of 6–40 heavy atoms for the Gram
/// laps (1176 pairs), 256 cold pairs over the same sizes.
pub fn gram_small_mol(seed: u64) -> Corpus<AtomLabel, BondLabel> {
    let mut wiring = wiring_rng(3);
    let graphs = molecules_on_grid(48, 6, 40, &mut wiring);
    let cold = molecules_on_grid(512, 6, 40, &mut wiring);
    let mut dressing = dressing_rng(seed, 3);
    Corpus {
        graphs: dress_all(&graphs, &mut dressing),
        cold_pairs: pair_up(dress_all(&cold, &mut dressing)),
    }
}

/// `serve-cold`: 8 molecules submitted and flushed, 16 never-seen request
/// pairs asked one at a time, 2 pairs each asked as a burst of 8 tickets.
#[derive(Debug, Clone)]
pub struct ServeColdCorpus {
    pub structures: Vec<Molecule>,
    pub requests: Pairs<AtomLabel, BondLabel>,
    pub bursts: Pairs<AtomLabel, BondLabel>,
}

/// Shards of the cluster the `serve-*` workloads spawn.
pub const SHARDS: usize = 2;

/// The shard a structure routes to: the cluster's own pure routing function
/// over the default content hash.
pub fn shard_of(g: &Molecule) -> usize {
    let side = PairSide::new(graph_content_hash(g), g.num_vertices() as u32, g.num_edges() as u32);
    shard_of_side(&side, SHARDS)
}

pub fn serve_cold(seed: u64) -> ServeColdCorpus {
    let mut wiring = wiring_rng(4);
    let structures = molecules_on_grid(8, 48, 80, &mut wiring);
    let requests = molecules_on_grid(32, 48, 80, &mut wiring);
    let bursts = molecules_on_grid(4, 48, 80, &mut wiring);
    let mut dressing = dressing_rng(seed, 4);
    // a shard computes the Gram block of the structures routed to it, so how
    // 8 structures split decides whether a flush solves 20 pairs or 36; each
    // structure is re-dressed until it lands on its slot's shard, which keeps
    // the split 4/4 and the flush at 20 pairs on every seed
    let structures = structures
        .iter()
        .enumerate()
        .map(|(slot, g)| loop {
            let dressed = dress(g, &mut dressing);
            if shard_of(&dressed) == slot % SHARDS {
                break dressed;
            }
        })
        .collect();
    ServeColdCorpus {
        structures,
        requests: pair_up(dress_all(&requests, &mut dressing)),
        bursts: pair_up(dress_all(&bursts, &mut dressing)),
    }
}

impl ServeColdCorpus {
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        hash_graphs(&mut h, &self.structures);
        hash_pairs(&mut h, &self.requests);
        hash_pairs(&mut h, &self.bursts);
        h.finish()
    }
}

/// `serve-hot-restart`: 64 molecules whose 2080 pairs are bootstrapped into
/// the store, the order their ordered pairs are asked in, and 32 never-seen
/// pairs asked one at a time between the hit segments.
#[derive(Debug, Clone)]
pub struct ServeHotCorpus {
    pub structures: Vec<Molecule>,
    /// Two passes over every ordered pair `(i, j)`, each pass in its own
    /// seeded order: 8192 requests, both orientations of every pair.
    pub hit_order: Vec<(u16, u16)>,
    pub misses: Pairs<AtomLabel, BondLabel>,
}

pub fn serve_hot_restart(seed: u64) -> ServeHotCorpus {
    let mut wiring = wiring_rng(5);
    let structures = molecules_on_grid(64, 6, 24, &mut wiring);
    let misses = molecules_on_grid(64, 6, 24, &mut wiring);
    let mut dressing = dressing_rng(seed, 5);
    let structures = dress_all(&structures, &mut dressing);
    let misses = pair_up(dress_all(&misses, &mut dressing));
    let n = structures.len() as u16;
    let ordered: Vec<(u16, u16)> = (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).collect();
    let mut hit_order = Vec::with_capacity(2 * ordered.len());
    for _ in 0..2 {
        let mut pass = ordered.clone();
        pass.shuffle(&mut dressing);
        hit_order.extend(pass);
    }
    ServeHotCorpus { structures, hit_order, misses }
}

impl ServeHotCorpus {
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        hash_graphs(&mut h, &self.structures);
        for &(i, j) in &self.hit_order {
            h.write_u32(u32::from(i) << 16 | u32::from(j));
        }
        hash_pairs(&mut h, &self.misses);
        h.finish()
    }
}
