//! The octile loop of Fig. 9's levels below `Block` (`OctileProduct`).
//!
//! At the serving policy (routed by `KindTable`, compact tiles, 8 warps
//! sharing each inner tile) the loop is the serving operator: `D× V×⁻¹ x`
//! minus its product is `SystemOperator`'s `y`, bit for bit, and the loop
//! plus the fused diagonal sweep counts the traffic `SystemOperator` counts
//! per apply, field by field. Both the recording
//! and the replaying application of an operator that streams its
//! coefficients are checked, at `f32` and at `f64`, over molecule pairs,
//! NWS and BA pairs under `OctileUnitKernel` and a pair of complete graphs
//! the table routes wholly to dense×dense. The policies of the lower levels move only the global
//! traffic terms. And the unit kernel Fig. 9's unlabeled sets run under,
//! `OctileUnitKernel`, keeps the serving solver on that operator: its
//! served solve is `pcg_counted` over `SystemOperator`, bit for bit.

use mgk_bench::ablation::{OctileProduct, OctileXmv};
use mgk_core::octile_ops::{KindTable, TileProductKind};
use mgk_core::{MarginalizedKernelSolver, ProductSystem, SolverConfig, SystemOperator};
use mgk_datasets::molecules::synthetic_molecule;
use mgk_graph::generators::{barabasi_albert, complete_labeled, newman_watts_strogatz};
use mgk_graph::Graph;
use mgk_kernels::{BaseKernel, KroneckerDelta, OctileUnitKernel, SquareExponential, UnitKernel};
use mgk_linalg::{
    pcg_counted, DiagonalOperator, LinearOperator, Precision, Scalar, TrafficCounters,
};
use mgk_tile::OctileMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The serving operator's policy, that of `Block` and `DynamicScheduling`.
const PRODUCTION: OctileXmv = OctileXmv { adaptive: true, compact: true, sharing: 8 };

/// Exact bitwise equality (distinguishing `±0.0`), via the exact widening
/// to `f64`.
fn bitwise_equal<T: Scalar>(a: &[T], b: &[T]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_f64().to_bits() == y.to_f64().to_bits())
}

/// `g` in the vertex order the serving solver tiles it in.
fn prepared<V: Clone, E: Copy + Default>(g: &Graph<V, E>) -> Graph<V, E> {
    MarginalizedKernelSolver::unlabeled(SolverConfig::default()).prepare_graph(g).graph().clone()
}

/// Two applications of `SystemOperator` against the octile loop at the
/// serving policy plus the fused diagonal sweep, at precision `T`.
fn assert_loop_is_the_operator_at<T, V, E, KV, KE>(
    g1: &Graph<V, E>,
    g2: &Graph<V, E>,
    vertex_kernel: &KV,
    edge_kernel: &KE,
    case: &str,
) where
    T: Scalar,
    V: Clone,
    E: Copy + Default,
    KV: BaseKernel<V>,
    KE: BaseKernel<E> + Clone,
{
    let config = SolverConfig::default();
    let system = ProductSystem::assemble(g1, g2, vertex_kernel, edge_kernel.clone(), &config);
    let operator = SystemOperator::<_, _, T>::new(&system);
    let octile = OctileProduct::new(g1, g2, edge_kernel, PRODUCTION);
    let diagonal = system.system_diagonal::<T>();
    let x: Vec<T> = (0..system.dim()).map(|k| T::from_f64(0.1 * (k % 7) as f64 - 0.3)).collect();

    let mut expected = vec![T::ZERO; x.len()];
    let mut expected_counts = TrafficCounters::new();
    octile.apply(edge_kernel, &x, &mut expected, &mut expected_counts);
    for ((yi, &xi), &di) in expected.iter_mut().zip(&x).zip(&diagonal) {
        *yi = di * xi - *yi;
    }
    let n = x.len() as u64;
    expected_counts.flops += 2 * n;
    expected_counts.global_load_bytes += 3 * n * T::BYTES;
    expected_counts.global_store_bytes += n * T::BYTES;

    for application in ["recording", "replaying"] {
        let mut y = vec![T::ZERO; x.len()];
        let mut counts = TrafficCounters::new();
        operator.apply_counted(&x, &mut y, &mut counts);
        assert!(bitwise_equal(&y, &expected), "{case}, {application} application");
        assert_eq!(counts, expected_counts, "{case}, {application} application");
    }
}

fn assert_loop_is_the_operator<V, E, KV, KE>(
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
    let (g1, g2) = (prepared(g1), prepared(g2));
    assert_loop_is_the_operator_at::<f32, _, _, _, _>(&g1, &g2, vertex_kernel, edge_kernel, case);
    assert_loop_is_the_operator_at::<f64, _, _, _, _>(&g1, &g2, vertex_kernel, edge_kernel, case);
}

#[test]
fn the_loop_at_the_serving_policy_is_the_system_operator_on_molecules() {
    let mut rng = StdRng::seed_from_u64(39);
    let kernel = KroneckerDelta::new(0.5);
    for (a, b) in [(6, 13), (24, 17), (48, 80)] {
        let (g1, g2) = (synthetic_molecule(a, &mut rng), synthetic_molecule(b, &mut rng));
        assert_loop_is_the_operator(&g1, &g2, &kernel, &kernel, &format!("molecules {a}×{b}"));
    }
}

#[test]
fn the_loop_at_the_serving_policy_is_the_system_operator_on_nws_and_ba() {
    let mut rng = StdRng::seed_from_u64(39);
    let nws = newman_watts_strogatz(96, 3, 0.1, &mut rng);
    let ba = barabasi_albert(96, 6, &mut rng);
    let small_ba = barabasi_albert(40, 3, &mut rng);
    for (g1, g2, case) in
        [(&nws, &ba, "NWS×BA"), (&ba, &nws, "BA×NWS"), (&nws, &small_ba, "NWS×BA-40")]
    {
        assert_loop_is_the_operator(g1, g2, &UnitKernel, &OctileUnitKernel, case);
    }
}

#[test]
fn the_loop_at_the_serving_policy_is_the_system_operator_where_every_pair_is_dense() {
    let mut rng = StdRng::seed_from_u64(39);
    let (g1, g2) = (complete_labeled(24, &mut rng), complete_labeled(16, &mut rng));
    let edge_kernel = SquareExponential::new(1.0);
    // the premise: the serving table routes every tile pair to dense×dense
    let table = KindTable::new(BaseKernel::<f32>::cost(&edge_kernel).flops);
    let (t1, t2) =
        (OctileMatrix::from_graph(&prepared(&g1)), OctileMatrix::from_graph(&prepared(&g2)));
    for a in t1.tiles() {
        for b in t2.tiles() {
            assert_eq!(table.get(a.nnz(), b.nnz()), TileProductKind::DenseDense);
        }
    }
    assert_loop_is_the_operator(&g1, &g2, &UnitKernel, &edge_kernel, "complete 24×16");
}

/// The global loads one application of the octile loop counts on a
/// 5-cycle × 4-path pair under `xmv`.
fn global_loads(xmv: OctileXmv) -> u64 {
    let g1: Graph = Graph::from_edge_list(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
    let g2: Graph = Graph::from_edge_list(4, &[(0, 1), (1, 2), (2, 3)]);
    let x = vec![0.5f32; 20];
    let mut y = vec![0.0f32; 20];
    let mut traffic = TrafficCounters::new();
    OctileProduct::new(&g1, &g2, &UnitKernel, xmv).apply(&UnitKernel, &x, &mut y, &mut traffic);
    traffic.global_load_bytes
}

#[test]
fn compact_storage_reduces_global_traffic() {
    let at = |compact| global_loads(OctileXmv { compact, ..PRODUCTION });
    assert!(at(true) < at(false));
}

#[test]
fn block_sharing_reduces_global_traffic() {
    let at = |sharing| global_loads(OctileXmv { sharing, ..PRODUCTION });
    assert!(at(8) < at(1));
}

/// The served solve of `g1 × g2` under `OctileUnitKernel` against PCG run
/// explicitly over the octile operator of the prepared pair, at `T`: the
/// same value bits, iterations and traffic.
fn assert_served_solve_is_the_octile_pcg<T: Scalar>(g1: &Graph, g2: &Graph, case: &str) {
    let config = SolverConfig { precision: T::PRECISION, ..SolverConfig::default() };
    let solver = MarginalizedKernelSolver::new(UnitKernel, OctileUnitKernel, config);
    let (a, b) = (solver.prepare_graph(g1), solver.prepare_graph(g2));
    let served = solver.kernel_prepared::<T, _, _>(&a, &b, T::PRECISION).unwrap();

    let system =
        ProductSystem::assemble(a.graph(), b.graph(), &UnitKernel, OctileUnitKernel, &config);
    let operator = SystemOperator::<_, _, T>::new(&system);
    let preconditioner = DiagonalOperator::new(system.preconditioner_diagonal::<T>());
    let mut traffic = TrafficCounters::new();
    let (x, info) =
        pcg_counted(&operator, &preconditioner, &system.rhs::<T>(), &config.solve, &mut traffic);
    let value: f64 =
        system.start_product().iter().zip(&x).map(|(&p, x)| p as f64 * x.to_f64()).sum();

    assert!(info.converged, "{case}");
    assert_eq!(served.value_f64.to_bits(), value.to_bits(), "{case}");
    assert_eq!(served.iterations, info.iterations, "{case}");
    assert_eq!(served.traffic, traffic, "{case}");
}

#[test]
fn the_octile_unit_kernel_serves_the_octile_operator_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(22);
    let nws = newman_watts_strogatz(40, 3, 0.1, &mut rng);
    let ba = barabasi_albert(32, 6, &mut rng);
    let odd = newman_watts_strogatz(21, 3, 0.1, &mut rng);
    for (g1, g2, case) in [(&nws, &ba, "NWS×BA"), (&nws, &odd, "NWS×NWS-21")] {
        assert_served_solve_is_the_octile_pcg::<f32>(g1, g2, case);
        assert_served_solve_is_the_octile_pcg::<f64>(g1, g2, case);
    }
    // the unit kernel itself is served factored: other bits, same value
    let solver = MarginalizedKernelSolver::unlabeled(SolverConfig {
        precision: Precision::F32,
        ..SolverConfig::default()
    });
    let octile = MarginalizedKernelSolver::new(UnitKernel, OctileUnitKernel, *solver.config());
    let (factored, swept) = (solver.kernel(&nws, &ba).unwrap(), octile.kernel(&nws, &ba).unwrap());
    assert_ne!(factored.value_f64.to_bits(), swept.value_f64.to_bits());
    assert!((factored.value_f64 - swept.value_f64).abs() <= 1e-4 * swept.value_f64);
}
