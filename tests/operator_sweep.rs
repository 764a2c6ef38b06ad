//! The octile operator's sweep is the scalar reference, bit for bit.
//!
//! `ProductSystem::apply_off_diagonal` must produce exactly what
//! `tile_pair_product_scalar` produces when it is called once per tile pair,
//! outer tiles in order and inner tiles in order for each, with each pair
//! routed by the operator's own `KindTable`. The corpus covers what the
//! serving workloads tile into:
//! - molecules of 6–80 atoms after PBR, under the Kronecker delta;
//! - NWS×BA graphs of 96 vertices, under the unit kernel;
//! - protein-like structures of 48 atoms under the square-exponential edge
//!   kernel, where the tiles one outer tile meets at the same position in
//!   their tile rows go to packed and to dense primitives alike;
//! - random graphs with partial edge tiles and tile rows of several tiles.
//!
//! Every case runs at `f32` and at `f64`.

use mgk::datasets::{molecules, protein};
use mgk::graph::generators;
use mgk::graph::{Graph, GraphBuilder, Unlabeled};
use mgk::prelude::*;
use mgk::solver::octile_ops::{
    tile_pair_product_scalar, KindTable, PairContext, TileCosts, TileProductKind,
};
use mgk::solver::ProductSystem;
use mgk::tile::{Octile, OctileMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Exact bitwise equality (distinguishing `±0.0`), via the exact widening
/// to `f64`.
fn bitwise_equal<T: Scalar>(a: &[T], b: &[T]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_f64().to_bits() == y.to_f64().to_bits())
}

/// A graph in the vertex order the solver tiles it in (PBR by default).
fn prepared<V: Clone, E: Copy + Default>(g: &Graph<V, E>) -> Graph<V, E> {
    MarginalizedKernelSolver::unlabeled(SolverConfig::default()).prepare_graph(g).graph().clone()
}

/// Whether `kind` reads the second tile's packed nonzeros: sparse×sparse,
/// and dense×sparse with the first tile the sparser.
fn reads_packed(kind: TileProductKind, nnz1: usize, nnz2: usize) -> bool {
    match kind {
        TileProductKind::SparseSparse => true,
        TileProductKind::DenseSparse => nnz1 <= nnz2,
        TileProductKind::DenseDense => false,
    }
}

/// Each tile's position in its tile row, in column order (the tiles are
/// sorted by `(row, col)`).
fn positions_in_row<E>(tiles: &[Octile<E>]) -> Vec<usize> {
    let mut positions: Vec<usize> = Vec::with_capacity(tiles.len());
    for (k, t) in tiles.iter().enumerate() {
        let previous = k.checked_sub(1).filter(|&p| tiles[p].row == t.row);
        positions.push(previous.map_or(0, |p| positions[p] + 1));
    }
    positions
}

/// Whether some outer tile meets, among the inner tiles at one position of
/// their tile rows, both a tile its table routes to a packed primitive and
/// one it routes to a dense one.
fn some_position_mixes_routes<E: Copy + Default>(
    outer: &OctileMatrix<E>,
    inner: &OctileMatrix<E>,
    table: &KindTable,
) -> bool {
    let positions = positions_in_row(inner.tiles());
    outer.tiles().iter().any(|t1| {
        let route =
            |t2: &Octile<E>| reads_packed(table.get(t1.nnz(), t2.nnz()), t1.nnz(), t2.nnz());
        (0..=positions.iter().copied().max().unwrap_or(0)).any(|position| {
            let mut at = inner.tiles().iter().zip(&positions).filter(|(_, &p)| p == position);
            let first = at.next().map(|(t2, _)| route(t2));
            first.is_some_and(|packed| at.any(|(t2, _)| route(t2) != packed))
        })
    })
}

/// One application of the assembled operator and the scalar reference's
/// sweep of the same pair, at the vector precision `T`.
fn apply_and_reference<T, V, E, KV, KE>(
    g1: &Graph<V, E>,
    g2: &Graph<V, E>,
    vertex_kernel: &KV,
    edge_kernel: &KE,
) -> (Vec<T>, Vec<T>)
where
    T: Scalar,
    V: Clone,
    E: Copy + Default,
    KV: BaseKernel<V>,
    KE: BaseKernel<E> + Clone,
{
    let config = SolverConfig::default();
    let system = ProductSystem::assemble(g1, g2, vertex_kernel, edge_kernel.clone(), &config);
    let (n, m) = (g1.num_vertices(), g2.num_vertices());
    let mut rng = StdRng::seed_from_u64((n * 1000 + m) as u64);
    let x: Vec<T> = (0..n * m).map(|_| T::from_f64(rng.gen_range(-1.0..1.0))).collect();

    let mut y = vec![T::ZERO; n * m];
    system.apply_off_diagonal(&x, &mut y, &mut TrafficCounters::new());

    let (tiles1, tiles2) = (OctileMatrix::from_graph(g1), OctileMatrix::from_graph(g2));
    let cost = edge_kernel.cost();
    let costs =
        TileCosts { label_bytes: cost.label_bytes, float_bytes: 4, kernel_flops: cost.flops };
    let table = KindTable::new(cost.flops);
    let mut reference = vec![T::ZERO; n * m];
    let mut counters = TrafficCounters::new();
    for t1 in tiles1.tiles() {
        for t2 in tiles2.tiles() {
            let kind = table.get(t1.nnz(), t2.nnz());
            let ctx = PairContext { n, m, kernel: edge_kernel, costs: &costs };
            tile_pair_product_scalar(kind, t1, t2, ctx, &x, &mut reference, &mut counters);
        }
    }
    (y, reference)
}

/// Both orientations of the pair, at both precisions.
fn assert_sweep_is_the_reference<V, E, KV, KE>(
    g1: &Graph<V, E>,
    g2: &Graph<V, E>,
    vertex_kernel: &KV,
    edge_kernel: &KE,
    case: &str,
) where
    V: Clone,
    E: Copy + Default,
    KV: BaseKernel<V>,
    KE: BaseKernel<E> + Clone,
{
    for (a, b) in [(g1, g2), (g2, g1)] {
        let shape = format!("{case}, {}×{}", a.num_vertices(), b.num_vertices());
        let (y, reference) =
            apply_and_reference::<f32, _, _, _, _>(a, b, vertex_kernel, edge_kernel);
        assert!(bitwise_equal(&y, &reference), "f32 sweep differs from the reference, {shape}");
        let (y, reference) =
            apply_and_reference::<f64, _, _, _, _>(a, b, vertex_kernel, edge_kernel);
        assert!(bitwise_equal(&y, &reference), "f64 sweep differs from the reference, {shape}");
    }
}

#[test]
fn molecule_sweeps_are_the_reference_bitwise() {
    let mut rng = StdRng::seed_from_u64(34);
    let graphs: Vec<_> = [6, 13, 24, 40, 48, 57, 64, 80]
        .iter()
        .map(|&atoms| prepared(&molecules::synthetic_molecule(atoms, &mut rng)))
        .collect();
    let kernel = KroneckerDelta::new(0.5);
    for pair in graphs.windows(2) {
        assert_sweep_is_the_reference(&pair[0], &pair[1], &kernel, &kernel, "molecules");
    }
    assert_sweep_is_the_reference(&graphs[0], &graphs[7], &kernel, &kernel, "molecules");
}

#[test]
fn nws_ba_sweep_is_the_reference_bitwise() {
    let mut rng = StdRng::seed_from_u64(34);
    let nws = prepared(&generators::newman_watts_strogatz(96, 3, 0.1, &mut rng));
    let ba = prepared(&generators::barabasi_albert(96, 6, &mut rng));
    assert_sweep_is_the_reference(&nws, &ba, &UnitKernel, &UnitKernel, "NWS×BA");
}

#[test]
fn protein_sweep_is_the_reference_bitwise_where_routes_mix() {
    let mut rng = StdRng::seed_from_u64(34);
    let a = prepared(&protein::synthetic_structure(48, &mut rng).graph);
    let b = prepared(&protein::synthetic_structure(48, &mut rng).graph);
    let edge_kernel = SquareExponential::new(1.0);
    let table = KindTable::new(BaseKernel::<f32>::cost(&edge_kernel).flops);
    let (tiles_a, tiles_b) = (OctileMatrix::from_graph(&a), OctileMatrix::from_graph(&b));
    assert!(
        some_position_mixes_routes(&tiles_a, &tiles_b, &table),
        "the corpus should mix packed and dense routes at one row position"
    );
    assert_sweep_is_the_reference(&a, &b, &KroneckerDelta::new(0.5), &edge_kernel, "protein");
}

/// A random graph of 13–29 vertices at edge probability `prob`, with
/// weights in `[0.1, 2)` and integer labels `0..4`.
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

#[test]
fn random_graph_sweeps_are_the_reference_bitwise() {
    let mut rng = StdRng::seed_from_u64(34);
    let graphs: Vec<_> =
        (1..=9).map(|tenths| random_graph(&mut rng, tenths as f64 / 10.0)).collect();
    assert!(graphs.iter().any(|g| g.num_vertices() % 8 != 0), "no partial edge tile");
    assert!(
        graphs
            .iter()
            .any(|g| positions_in_row(OctileMatrix::from_graph(g).tiles()).iter().any(|&p| p >= 2)),
        "no tile row holds three tiles"
    );
    let (se, kd) = (SquareExponential::new(0.8), KroneckerDelta::new(0.25));
    for pair in graphs.windows(2) {
        assert_sweep_is_the_reference(&pair[0], &pair[1], &UnitKernel, &UnitKernel, "unit");
        assert_sweep_is_the_reference(&pair[0], &pair[1], &UnitKernel, &kd, "delta");
        assert_sweep_is_the_reference(&pair[0], &pair[1], &UnitKernel, &se, "square-exponential");
    }
}
