//! PBR's orders on the graph families the benchmark and the report bins
//! reorder, pinned bit for bit.
//!
//! Every tiling, tile-pair primitive and kernel value downstream follows
//! from `pbr_order`, so a rewrite of PBR must return the same orders.
//! `mgk_reorder::pbr::tests::orders_are_pinned` covers twelve 16–96-vertex
//! graphs; these hashes cover whole families: every molecule size from 1 to
//! 120 atoms (as generated and with scrambled vertex labels), protein-like
//! structures, the paper's two 96-node ensembles, Erdős–Rényi and random
//! geometric graphs, and tile sizes other than 8.

use mgk_datasets::{molecules::synthetic_molecule, protein::synthetic_structure};
use mgk_graph::{generators, Graph};
use mgk_reorder::{pbr_order, PbrConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// FNV-1a over the little-endian bytes of every order of a family, in turn.
fn family_hash<'a>(orders: impl IntoIterator<Item = &'a [u32]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for order in orders {
        for b in order.iter().flat_map(|v| v.to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn hash_orders<V, E>(graphs: &[Graph<V, E>], cfg: &PbrConfig) -> u64 {
    let orders: Vec<Vec<u32>> = graphs.iter().map(|g| pbr_order(g, cfg)).collect();
    family_hash(orders.iter().map(Vec::as_slice))
}

fn scrambled<V: Clone, E: Clone>(g: &Graph<V, E>, rng: &mut StdRng) -> Graph<V, E> {
    let mut shuffle: Vec<u32> = (0..g.num_vertices() as u32).collect();
    shuffle.shuffle(rng);
    g.permute(&shuffle)
}

#[test]
fn molecule_orders_are_pinned() {
    let cfg = PbrConfig::default();
    let mut rng = StdRng::seed_from_u64(43);
    let molecules: Vec<_> = (1..=120).map(|atoms| synthetic_molecule(atoms, &mut rng)).collect();
    let shuffled: Vec<_> = molecules.iter().map(|g| scrambled(g, &mut rng)).collect();
    let hashes = [hash_orders(&molecules, &cfg), hash_orders(&shuffled, &cfg)];
    let pinned: [u64; 2] = [
        0x8080_42a4_c6d2_f055, // molecules, 1–120 atoms
        0x06d1_29ed_896b_27e5, // the same, vertices scrambled
    ];
    assert_eq!(hashes, pinned);
}

#[test]
fn protein_orders_are_pinned() {
    let mut rng = StdRng::seed_from_u64(44);
    let proteins: Vec<_> =
        (0..24).map(|i| synthetic_structure(24 + 72 * i / 23, &mut rng).graph).collect();
    assert_eq!(hash_orders(&proteins, &PbrConfig::default()), 0xc153_09bb_1060_9e7a);
}

#[test]
fn ensemble_orders_are_pinned() {
    let cfg = PbrConfig::default();
    let mut rng = StdRng::seed_from_u64(45);
    let nws: Vec<_> =
        (0..10).map(|_| generators::newman_watts_strogatz(96, 3, 0.1, &mut rng)).collect();
    let ba: Vec<_> = (0..10).map(|_| generators::barabasi_albert(96, 6, &mut rng)).collect();
    let er: Vec<_> = (0..10).map(|_| generators::erdos_renyi(96, 0.06, &mut rng)).collect();
    let geometric: Vec<_> =
        (0..10).map(|_| generators::random_geometric(96, 0.25, &mut rng).0).collect();
    let mut hashes = vec![
        hash_orders(&nws, &cfg),
        hash_orders(&ba, &cfg),
        hash_orders(&er, &cfg),
        hash_orders(&geometric, &cfg),
    ];
    for tile_size in [1, 3, 5, 16] {
        hashes.push(hash_orders(&ba, &PbrConfig { tile_size }));
    }
    let pinned: [u64; 8] = [
        0x6e7a_4532_aa01_f815, // NWS-96
        0xeecc_63f9_463a_a9a5, // BA-96
        0x92a5_5646_1010_b935, // Erdős–Rényi-96
        0x99f3_3f34_0690_ea45, // random geometric-96
        0x099d_34a5_d1b3_2645, // BA-96, t = 1
        0xd2fc_cf81_dfc5_38c5, // BA-96, t = 3
        0x1902_808f_4cd3_4735, // BA-96, t = 5
        0x9870_6094_01eb_8945, // BA-96, t = 16
    ];
    assert_eq!(hashes, pinned);
}
