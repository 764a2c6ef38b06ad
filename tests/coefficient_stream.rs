//! The system operator's coefficient stream changes no bit.
//!
//! A `SystemOperator` whose product graph's coefficients fit its stream
//! budget records the packed loop's coefficients on its first application
//! and replays them on every later one. Each application must still produce
//! exactly `diagonal[i]·x[i] − off[i]`, with `off` from
//! `ProductSystem::apply_off_diagonal`, which forms every coefficient in
//! place and which `tests/operator_sweep.rs` pins to the scalar reference.
//! Each case builds one operator and applies it to three different vectors:
//! the first application records, the other two replay. The corpus covers
//! both sides of the gate:
//! - molecules of 6–80 atoms after PBR, under the Kronecker delta, where the
//!   stream is on, and a 120×80-atom pair, where it is on at `f32` and off
//!   at `f64`;
//! - 48-atom protein-like structures under the square-exponential edge
//!   kernel, where it is off, and a 12×20-atom pair, where it is on: on a
//!   CPU with AVX-512F a square-exponential system sweeps 16 lanes wide, so
//!   there the stream is recorded and replayed inside that sweep;
//! - two 96-vertex NWS graphs, and NWS×BA graphs of 96 vertices, under the
//!   unit kernel, where it is off.
//!
//! Every case runs at `f32` and at `f64`. One PCG solve of a molecule pair,
//! at the precision `MGK_TEST_PRECISION` selects, is pinned to the same
//! solve over the unstreamed operator.

use mgk::datasets::{molecules, protein};
use mgk::graph::generators;
use mgk::graph::Graph;
use mgk::linalg::{pcg, DiagonalOperator, LinearOperator, Precision};
use mgk::prelude::*;
use mgk::solver::octile_ops::{KindTable, TileProductKind};
use mgk::solver::{ProductSystem, SystemOperator};
use mgk::tile::OctileMatrix;
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

/// The system operator without a stream: the diagonal minus the
/// off-diagonal product formed in place, element by element as
/// `SystemOperator` fuses them.
struct Unstreamed<'a, E, KE> {
    system: &'a ProductSystem<E, KE>,
}

impl<E: Copy + Default, KE: BaseKernel<E>, T: Scalar> LinearOperator<T> for Unstreamed<'_, E, KE> {
    fn dim(&self) -> usize {
        self.system.dim()
    }

    fn apply(&self, x: &[T], y: &mut [T]) {
        self.system.apply_off_diagonal(x, y, &mut TrafficCounters::new());
        for ((yi, &xi), di) in y.iter_mut().zip(x).zip(self.system.system_diagonal::<T>()) {
            *yi = di * xi - *yi;
        }
    }
}

/// Three applications of one operator, each against the unstreamed
/// operator on the same vector, at the vector precision `T`.
fn assert_applies_are_unstreamed<T, E, KE>(system: &ProductSystem<E, KE>, shape: &str)
where
    T: Scalar,
    E: Copy + Default,
    KE: BaseKernel<E>,
{
    let operator = SystemOperator::<_, _, T>::new(system);
    let mut rng = StdRng::seed_from_u64(system.dim() as u64);
    for apply in ["records", "replays", "replays again"] {
        let x: Vec<T> = (0..system.dim()).map(|_| T::from_f64(rng.gen_range(-1.0..1.0))).collect();
        let streamed = operator.apply_alloc(&x);
        let unstreamed = Unstreamed { system }.apply_alloc(&x);
        assert!(
            bitwise_equal(&streamed, &unstreamed),
            "{} application that {apply} differs from the unstreamed operator, {shape}",
            T::PRECISION
        );
    }
}

/// Both orientations of the pair, at both precisions.
fn assert_pair<V, E, KV, KE>(g1: &Graph<V, E>, g2: &Graph<V, E>, vk: &KV, ek: &KE, case: &str)
where
    V: Clone,
    E: Copy + Default,
    KV: BaseKernel<V>,
    KE: BaseKernel<E> + Clone,
{
    for (a, b) in [(g1, g2), (g2, g1)] {
        let shape = format!("{case}, {}×{}", a.num_vertices(), b.num_vertices());
        let system = ProductSystem::assemble(a, b, vk, ek.clone(), &SolverConfig::default());
        assert_applies_are_unstreamed::<f32, _, _>(&system, &shape);
        assert_applies_are_unstreamed::<f64, _, _>(&system, &shape);
    }
}

fn molecule_corpus() -> Vec<molecules::MoleculeGraph> {
    let mut rng = StdRng::seed_from_u64(37);
    [6, 13, 24, 40, 48, 57, 64, 80]
        .iter()
        .map(|&atoms| prepared(&molecules::synthetic_molecule(atoms, &mut rng)))
        .collect()
}

#[test]
fn streamed_molecule_applies_are_the_unstreamed_ones_bitwise() {
    let graphs = molecule_corpus();
    let kernel = KroneckerDelta::new(0.5);
    for pair in graphs.windows(2) {
        assert_pair(&pair[0], &pair[1], &kernel, &kernel, "molecules");
    }
    assert_pair(&graphs[0], &graphs[7], &kernel, &kernel, "molecules");
    assert_pair(&graphs[7], &graphs[7], &kernel, &kernel, "molecules");
    let large = prepared(&molecules::synthetic_molecule(120, &mut StdRng::seed_from_u64(37)));
    assert_pair(&large, &graphs[7], &kernel, &kernel, "molecules");
}

#[test]
fn nws_and_ba_applies_are_the_unstreamed_ones_bitwise() {
    let mut rng = StdRng::seed_from_u64(37);
    let nws = prepared(&generators::newman_watts_strogatz(96, 3, 0.1, &mut rng));
    let other = prepared(&generators::newman_watts_strogatz(96, 3, 0.1, &mut rng));
    let ba = prepared(&generators::barabasi_albert(96, 6, &mut rng));
    assert_pair(&nws, &other, &UnitKernel, &UnitKernel, "NWS×NWS");
    assert_pair(&nws, &ba, &UnitKernel, &UnitKernel, "NWS×BA");
}

#[test]
fn protein_applies_are_the_unstreamed_ones_bitwise() {
    let mut rng = StdRng::seed_from_u64(37);
    let a = prepared(&protein::synthetic_structure(48, &mut rng).graph);
    let b = prepared(&protein::synthetic_structure(48, &mut rng).graph);
    let edge_kernel = SquareExponential::new(1.0);
    assert_pair(&a, &b, &KroneckerDelta::new(0.5), &edge_kernel, "protein");
}

#[test]
fn small_protein_applies_are_the_unstreamed_ones_bitwise() {
    let mut rng = StdRng::seed_from_u64(37);
    let a = prepared(&protein::synthetic_structure(12, &mut rng).graph);
    let b = prepared(&protein::synthetic_structure(20, &mut rng).graph);
    let edge_kernel = SquareExponential::new(1.0);
    let (tiles_a, tiles_b) = (OctileMatrix::from_graph(&a), OctileMatrix::from_graph(&b));
    // the stream's budget, 256 KiB at the vector precision, admits the pair
    // at f64, and so at f32
    let bytes = tiles_a.num_nonzeros() * tiles_b.num_nonzeros() * 8;
    assert!(bytes <= 256 * 1024, "{bytes} B of coefficients at f64");
    // and the pair's tile pairs go both to dense×dense, the 16-lane step,
    // and to the packed loop, whose coefficients stream
    let table = KindTable::new(edge_kernel.cost().flops);
    let kinds: Vec<_> = tiles_a
        .tiles()
        .iter()
        .flat_map(|t1| tiles_b.tiles().iter().map(|t2| table.get(t1.nnz(), t2.nnz())))
        .collect();
    assert!(kinds.contains(&TileProductKind::DenseDense));
    assert!(kinds.contains(&TileProductKind::SparseSparse));
    assert_pair(&a, &b, &KroneckerDelta::new(0.5), &edge_kernel, "small protein");
}

/// One PCG solve over the streamed operator and one over the unstreamed,
/// at `T`: same iterations, same solution bits.
fn assert_solve_is_unstreamed<T: Scalar, E: Copy + Default, KE: BaseKernel<E>>(
    system: &ProductSystem<E, KE>,
) {
    let options = SolverConfig::default().solve;
    let rhs = system.rhs::<T>();
    let preconditioner = DiagonalOperator::new(system.preconditioner_diagonal::<T>());
    let streamed = pcg(&SystemOperator::<_, _, T>::new(system), &preconditioner, &rhs, &options);
    let unstreamed = pcg(&Unstreamed { system }, &preconditioner, &rhs, &options);
    assert!(streamed.1.converged, "{:?}", streamed.1);
    assert!(streamed.1.iterations > 2, "the solve replays the stream");
    assert_eq!(streamed.1.iterations, unstreamed.1.iterations);
    assert!(bitwise_equal(&streamed.0, &unstreamed.0), "{} solutions differ", T::PRECISION);
}

#[test]
fn streamed_molecule_solve_is_the_unstreamed_one_bitwise() {
    let graphs = molecule_corpus();
    let kernel = KroneckerDelta::new(0.5);
    let config = SolverConfig::default();
    let system = ProductSystem::assemble(&graphs[4], &graphs[7], &kernel, kernel, &config);
    match Precision::from_env() {
        Precision::F32 => assert_solve_is_unstreamed::<f32, _, _>(&system),
        Precision::F64 => assert_solve_is_unstreamed::<f64, _, _>(&system),
    }
}
