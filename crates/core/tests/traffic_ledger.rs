//! One application of the octile system operator counts exactly the traffic
//! the model attributes to it, field by field: every tile pair's closed form
//! as `tile_pair_product_with_panels` counts it, the operator's global terms
//! (each tile stored compactly, each outer tile loaded once per sweep, each
//! inner tile once per outer tile and shared across the 8 warps of a block,
//! one right-hand-side block per tile pair, one write-back of `y`) and the
//! fused diagonal sweep.
//!
//! The grid covers both precisions, three edge kernels, and random graphs
//! of 13–29 vertices at edge probability 0.1–0.9.

use mgk_core::octile_ops::{
    tile_pair_product_with_panels, KindTable, PairContext, PaneledTile, TileCosts, TilePanels,
};
use mgk_core::{ProductSystem, SolverConfig, SystemOperator};
use mgk_graph::{Graph, GraphBuilder, Unlabeled};
use mgk_kernels::{BaseKernel, KroneckerDelta, SquareExponential, UnitKernel};
use mgk_linalg::{LinearOperator, Scalar, TrafficCounters};
use mgk_tile::{Octile, OctileMatrix, TILE_AREA};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random graph of 13–29 vertices at edge probability `prob`, with weights
/// in `[0.1, 2)` and integer labels `0..4`.
fn random_graph(rng: &mut StdRng, prob: f64) -> Graph<Unlabeled, f32> {
    let n = rng.gen_range(13..30usize);
    let mut b: GraphBuilder<Unlabeled, f32> = GraphBuilder::new();
    for _ in 0..n {
        b.add_vertex(Unlabeled);
    }
    for u in 0..n {
        for v in u + 1..n {
            if rng.gen_bool(prob) {
                let label = rng.gen_range(0..4u8) as f32;
                b.add_edge(u, v, rng.gen_range(0.1..2.0f32), label).unwrap();
            }
        }
    }
    b.build().unwrap()
}

/// Warps of a block sharing each inner tile's load.
const BLOCK_SHARING: u64 = 8;

/// The traffic of one application, summed from its parts.
fn summed_parts<T: Scalar, K: BaseKernel<f32>>(
    g1: &Graph<Unlabeled, f32>,
    g2: &Graph<Unlabeled, f32>,
    kernel: &K,
) -> TrafficCounters {
    let (n, m) = (g1.num_vertices(), g2.num_vertices());
    let (tiles1, tiles2) = (OctileMatrix::from_graph(g1), OctileMatrix::from_graph(g2));
    let cost = kernel.cost();
    let costs =
        TileCosts { label_bytes: cost.label_bytes, float_bytes: 4, kernel_flops: cost.flops };
    let table = KindTable::new(cost.flops);
    let (fb, eb, vb) = (4u64, cost.label_bytes as u64, T::BYTES);
    let tile_bytes = |t: &Octile<f32>| 8 + t.nnz() as u64 * (fb + eb);
    let nm = (n * m) as u64;
    let x = vec![T::ONE; n * m];
    let mut y = vec![T::ZERO; n * m];

    let mut pairs = TrafficCounters::new();
    let mut global = TrafficCounters::new();
    for t1 in tiles1.tiles() {
        let p1 = TilePanels::new(t1);
        global.global_load_bytes += tile_bytes(t1);
        for t2 in tiles2.tiles() {
            let p2 = TilePanels::new(t2);
            global.global_load_bytes += tile_bytes(t2).div_ceil(BLOCK_SHARING);
            global.global_load_bytes += TILE_AREA as u64 * fb;
            tile_pair_product_with_panels(
                table.get(t1.nnz(), t2.nnz()),
                PaneledTile { tile: t1, panels: &p1 },
                PaneledTile { tile: t2, panels: &p2 },
                PairContext { n, m, kernel, costs: &costs },
                &x,
                &mut y,
                &mut pairs,
            );
        }
    }
    global.global_store_bytes += nm * vb;
    let diagonal = TrafficCounters {
        flops: 2 * nm,
        global_load_bytes: 3 * nm * vb,
        global_store_bytes: nm * vb,
        ..TrafficCounters::default()
    };
    pairs + global + diagonal
}

/// What `SystemOperator::apply_counted` counts for one application.
fn counted_apply<T: Scalar, K: BaseKernel<f32> + Clone>(
    g1: &Graph<Unlabeled, f32>,
    g2: &Graph<Unlabeled, f32>,
    kernel: &K,
) -> TrafficCounters {
    let config = SolverConfig::default();
    let system = ProductSystem::assemble(g1, g2, &UnitKernel, kernel.clone(), &config);
    let operator = SystemOperator::<_, _, T>::new(&system);
    let x: Vec<T> = (0..system.dim()).map(|k| T::from_f64(0.1 * (k % 7) as f64 - 0.3)).collect();
    let mut y = vec![T::ZERO; x.len()];
    let mut counters = TrafficCounters::new();
    operator.apply_counted(&x, &mut y, &mut counters);
    counters
}

fn assert_fields_equal(counted: &TrafficCounters, summed: &TrafficCounters, case: &str) {
    assert_eq!(counted.global_load_bytes, summed.global_load_bytes, "global loads, {case}");
    assert_eq!(counted.global_store_bytes, summed.global_store_bytes, "global stores, {case}");
    assert_eq!(counted.shared_load_bytes, summed.shared_load_bytes, "shared loads, {case}");
    assert_eq!(counted.shared_store_bytes, summed.shared_store_bytes, "shared stores, {case}");
    assert_eq!(counted.flops, summed.flops, "flops, {case}");
    assert_eq!(counted.kernel_evaluations, summed.kernel_evaluations, "evaluations, {case}");
}

fn check_kernel<K: BaseKernel<f32> + Clone>(
    name: &str,
    kernel: &K,
    g1: &Graph<Unlabeled, f32>,
    g2: &Graph<Unlabeled, f32>,
) {
    let case = format!("{name}, {}×{}", g1.num_vertices(), g2.num_vertices());
    assert_fields_equal(
        &counted_apply::<f32, _>(g1, g2, kernel),
        &summed_parts::<f32, _>(g1, g2, kernel),
        &format!("f32, {case}"),
    );
    assert_fields_equal(
        &counted_apply::<f64, _>(g1, g2, kernel),
        &summed_parts::<f64, _>(g1, g2, kernel),
        &format!("f64, {case}"),
    );
}

#[test]
fn apply_counts_the_sum_of_its_tile_pairs_global_terms_and_diagonal() {
    let mut rng = StdRng::seed_from_u64(32);
    let graphs: Vec<_> =
        (1..=9).map(|tenths| random_graph(&mut rng, tenths as f64 / 10.0)).collect();
    let (se, kd) = (SquareExponential::new(0.8), KroneckerDelta::new(0.25));
    for pair in graphs.windows(2) {
        for (g1, g2) in [(&pair[0], &pair[1]), (&pair[1], &pair[0])] {
            check_kernel("unit", &UnitKernel, g1, g2);
            check_kernel("delta", &kd, g1, g2);
            check_kernel("square-exponential", &se, g1, g2);
        }
    }
}
