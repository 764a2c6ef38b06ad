//! Property-based tests (proptest) for the core invariants of the system.

use mgk::graph::{Graph, GraphBuilder};
use mgk::kernels::{BaseKernel, KroneckerDelta, SquareExponential, UnitKernel};
use mgk::linalg::{kron_dense, kron_vec, pcg, DenseMatrix, DenseOperator, DiagonalOperator};
use mgk::prelude::*;
use mgk::reorder::{is_permutation, nonempty_tiles_of_order, ReorderMethod};
use mgk::solver::octile_ops::{
    tile_pair_product, tile_pair_product_scalar, KindTable, PairContext, TileCosts, TileProductKind,
};
use mgk::tile::{OctileMatrix, TILE_SIZE};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// generators
// ---------------------------------------------------------------------------

/// A random connected labeled graph with up to `max_n` vertices.
fn arb_labeled_graph(max_n: usize) -> impl Strategy<Value = Graph<u8, f32>> {
    (2usize..=max_n)
        .prop_flat_map(|n| {
            let labels = proptest::collection::vec(0u8..4, n);
            // spanning-tree parents guarantee connectivity; extra edges add cycles
            let parents: Vec<BoxedStrategy<usize>> = (1..n).map(|v| (0..v).boxed()).collect();
            let extra =
                proptest::collection::vec((0usize..n, 0usize..n, 0.1f32..2.0, 0.0f32..3.0), 0..n);
            let edge_labels = proptest::collection::vec(0.0f32..3.0, n - 1);
            let weights = proptest::collection::vec(0.1f32..2.0, n - 1);
            (Just(n), labels, parents, extra, edge_labels, weights)
        })
        .prop_map(|(n, labels, parents, extra, edge_labels, weights)| {
            let mut b: GraphBuilder<u8, f32> = GraphBuilder::new();
            for &l in &labels {
                b.add_vertex(l);
            }
            for (v, &p) in (1..n).zip(parents.iter()) {
                b.add_edge(v, p, weights[v - 1], edge_labels[v - 1]).unwrap();
            }
            let mut existing: std::collections::HashSet<(usize, usize)> =
                (1..n).zip(parents.iter().copied()).map(|(v, p)| (p.min(v), p.max(v))).collect();
            for (u, v, w, l) in extra {
                if u == v {
                    continue;
                }
                let key = (u.min(v), u.max(v));
                if existing.insert(key) {
                    b.add_edge(u, v, w, l).unwrap();
                }
            }
            b.build().unwrap()
        })
}

/// A random permutation of `0..n`.
fn arb_permutation(n: usize) -> impl Strategy<Value = Vec<u32>> {
    Just((0..n as u32).collect::<Vec<_>>()).prop_shuffle()
}

fn labeled_solver() -> MarginalizedKernelSolver<KroneckerDelta, SquareExponential> {
    MarginalizedKernelSolver::new(
        KroneckerDelta::new(0.5),
        SquareExponential::new(1.0),
        SolverConfig::default(),
    )
}

// ---------------------------------------------------------------------------
// kernel-level properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kernel_is_symmetric_in_its_arguments(
        g1 in arb_labeled_graph(12),
        g2 in arb_labeled_graph(12),
    ) {
        let solver = labeled_solver();
        let k12 = solver.kernel(&g1, &g2).unwrap().value as f64;
        let k21 = solver.kernel(&g2, &g1).unwrap().value as f64;
        prop_assert!((k12 - k21).abs() <= 1e-4 * k12.abs().max(1e-12));
    }

    #[test]
    fn kernel_satisfies_cauchy_schwarz(
        g1 in arb_labeled_graph(10),
        g2 in arb_labeled_graph(10),
    ) {
        let solver = labeled_solver();
        let k12 = solver.kernel(&g1, &g2).unwrap().value as f64;
        let k11 = solver.kernel(&g1, &g1).unwrap().value as f64;
        let k22 = solver.kernel(&g2, &g2).unwrap().value as f64;
        prop_assert!(k12 > 0.0);
        prop_assert!(k12 * k12 <= k11 * k22 * (1.0 + 1e-3));
    }

    #[test]
    fn kernel_is_invariant_under_relabeling(
        g1 in arb_labeled_graph(12),
        g2 in arb_labeled_graph(12),
        seed in 0u64..1000,
    ) {
        let solver = labeled_solver();
        let base = solver.kernel(&g1, &g2).unwrap().value as f64;
        // permute g1's vertices deterministically from the seed
        let n = g1.num_vertices();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut state = seed.wrapping_add(1);
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let permuted = g1.permute(&order);
        let after = solver.kernel(&permuted, &g2).unwrap().value as f64;
        prop_assert!((base - after).abs() <= 1e-3 * base.abs().max(1e-12));
    }
}

// ---------------------------------------------------------------------------
// precision axis: the two Scalar instantiations of the solver surface
// ---------------------------------------------------------------------------

/// A random SPD system: `A = Bᵀ B + n·I` with `B` drawn entry-wise, plus a
/// right-hand side.
fn arb_spd_system(max_n: usize) -> impl Strategy<Value = (DenseMatrix, Vec<f32>)> {
    (2usize..=max_n)
        .prop_flat_map(|n| {
            let entries = proptest::collection::vec(-1.0f32..1.0, n * n);
            let rhs = proptest::collection::vec(-2.0f32..2.0, n);
            (Just(n), entries, rhs)
        })
        .prop_map(|(n, entries, rhs)| {
            let b = DenseMatrix::from_row_major(n, n, entries);
            let mut a = b.transpose().matmul(&b);
            for i in 0..n {
                a[(i, i)] += n as f32;
            }
            (a, rhs)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pcg_f32_and_f64_agree_on_random_spd_systems(
        (matrix, rhs) in arb_spd_system(24),
    ) {
        // the identical generic iteration at both precisions of the Scalar
        // axis, over the same f32-stored operator
        let n = rhs.len();
        let diag: Vec<f32> = (0..n).map(|i| matrix[(i, i)]).collect();
        let op = DenseOperator(matrix);
        let opts = SolveOptions { max_iterations: 10 * n + 50, tolerance: 1e-8 };

        let prec32 = DiagonalOperator::new(diag.clone()).inverse();
        let (x32, info32) = pcg(&op, &prec32, &rhs, &opts);

        let rhs64: Vec<f64> = rhs.iter().map(|&v| v as f64).collect();
        let diag64: Vec<f64> = diag.iter().map(|&v| v as f64).collect();
        let prec64 = DiagonalOperator::new(diag64).inverse();
        let (x64, info64) = pcg(&op, &prec64, &rhs64, &opts);

        prop_assert!(info32.converged, "f32 PCG stalled: {info32:?}");
        prop_assert!(info64.converged, "f64 PCG stalled: {info64:?}");
        // f32-level agreement between the two instantiations
        let norm: f64 = x64.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-12);
        let diff: f64 =
            x32.iter().zip(&x64).map(|(&a, &b)| (a as f64 - b) * (a as f64 - b)).sum::<f64>().sqrt();
        prop_assert!(
            diff / norm <= 1e-4,
            "instantiations diverged beyond f32 level: {:e}",
            diff / norm
        );
    }
}

// ---------------------------------------------------------------------------
// structural properties: tiles, reorderings, Kronecker algebra
// ---------------------------------------------------------------------------

/// Sweep every tile pair of `(g1, g2)` through one tile-product
/// implementation (the branchless bitmap kernels or the retained scalar
/// reference), accumulating into a fresh `y` — the operator's off-diagonal
/// application without the graph-level bookkeeping.
fn octile_sweep<T: Scalar>(
    scalar_reference: bool,
    kind_for: impl Fn(usize, usize) -> TileProductKind,
    g1: &Graph<u8, f32>,
    g2: &Graph<u8, f32>,
    p: &[T],
) -> (Vec<T>, TrafficCounters) {
    let kernel = SquareExponential::new(0.9);
    let costs = TileCosts { label_bytes: 4, float_bytes: 4, kernel_flops: 11 };
    let (n, m) = (g1.num_vertices(), g2.num_vertices());
    let t1 = OctileMatrix::from_graph(g1);
    let t2 = OctileMatrix::from_graph(g2);
    let mut y = vec![T::ZERO; n * m];
    let mut c = TrafficCounters::new();
    for a in t1.tiles() {
        for b in t2.tiles() {
            let kind = kind_for(a.nnz(), b.nnz());
            if scalar_reference {
                let ctx = PairContext { n, m, kernel: &kernel, costs: &costs };
                tile_pair_product_scalar(kind, a, b, ctx, p, &mut y, &mut c);
            } else {
                tile_pair_product(kind, a, b, n, m, &kernel, &costs, p, &mut y, &mut c);
            }
        }
    }
    (y, c)
}

/// A graph pair plus a random probability-like vector of matching length.
fn arb_tile_sweep_input() -> impl Strategy<Value = (Graph<u8, f32>, Graph<u8, f32>, Vec<f32>)> {
    (arb_labeled_graph(19), arb_labeled_graph(13)).prop_flat_map(|(g1, g2)| {
        let nm = g1.num_vertices() * g2.num_vertices();
        let p = proptest::collection::vec(-1.0f32..1.0, nm);
        (Just(g1), Just(g2), p)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bitmap_tile_kernels_match_the_scalar_reference(
        (g1, g2, p) in arb_tile_sweep_input(),
    ) {
        // sizes are rarely multiples of 8, so edge tiles (partial rows and
        // columns) are exercised on nearly every case
        let p64: Vec<f64> = p.iter().map(|&v| v as f64).collect();
        for kind in [
            TileProductKind::DenseDense,
            TileProductKind::DenseSparse,
            TileProductKind::SparseSparse,
        ] {
            let (y_new, _) = octile_sweep(false, |_, _| kind, &g1, &g2, &p);
            let (y_ref, _) = octile_sweep(true, |_, _| kind, &g1, &g2, &p);
            for (a, b) in y_new.iter().zip(&y_ref) {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "{} must be bit-for-bit at f32: {} vs {}", kind.name(), a, b
                );
            }
            let (d_new, _) = octile_sweep::<f64>(false, |_, _| kind, &g1, &g2, &p64);
            let (d_ref, _) = octile_sweep::<f64>(true, |_, _| kind, &g1, &g2, &p64);
            for (a, b) in d_new.iter().zip(&d_ref) {
                prop_assert!(
                    (a - b).abs() <= 1e-12,
                    "{} drifted past 1e-12 at f64: {} vs {}", kind.name(), a, b
                );
            }
        }
    }

    #[test]
    fn adaptive_kind_table_sweep_matches_reference_values_and_counters(
        (g1, g2, p) in arb_tile_sweep_input(),
    ) {
        // the operator's real dispatch path: per-pair kinds from the
        // precomputed table, closed-form counters from the bitmap kernels
        // — under the unit (X = 3) and Kronecker-delta (4) tables the sparse
        // workloads route by, and the square-exponential one (11)
        for flops in [3, 4, 11] {
            let table = KindTable::new(flops);
            let (y_new, c_new) = octile_sweep(false, |a, b| table.get(a, b), &g1, &g2, &p);
            let (y_ref, c_ref) = octile_sweep(true, |a, b| table.get(a, b), &g1, &g2, &p);
            for (a, b) in y_new.iter().zip(&y_ref) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "X = {}", flops);
            }
            prop_assert_eq!(c_new, c_ref, "closed-form traffic must equal per-element totals");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn octile_matrix_round_trips_the_adjacency(g in arb_labeled_graph(40)) {
        let tiles = OctileMatrix::from_graph(&g);
        prop_assert_eq!(tiles.to_dense_weights(), g.adjacency_dense());
        prop_assert_eq!(tiles.num_nonzeros(), 2 * g.num_edges());
        // per-tile masks agree with packed payload lengths
        for t in tiles.tiles() {
            prop_assert_eq!(t.nnz(), t.weights.len());
            prop_assert_eq!(t.nnz(), t.labels.len());
            prop_assert!(t.nnz() > 0 && t.nnz() <= TILE_SIZE * TILE_SIZE);
        }
    }

    #[test]
    fn reorderings_are_permutations_and_tile_count_matches_octile_matrix(
        g in arb_labeled_graph(40),
    ) {
        let n = g.num_vertices();
        for method in [ReorderMethod::Natural, ReorderMethod::Rcm, ReorderMethod::Pbr] {
            let order = method.compute_order(&g);
            prop_assert!(is_permutation(&order, n), "{} not a permutation", method.name());
            let counted = nonempty_tiles_of_order(&g, &order, TILE_SIZE);
            let via_tiles = OctileMatrix::from_graph(&g.permute(&order)).num_tiles();
            prop_assert_eq!(counted, via_tiles, "{} tile count mismatch", method.name());
        }
    }

    #[test]
    fn permuting_a_graph_preserves_degree_multiset(
        (g, order) in arb_labeled_graph(30)
            .prop_flat_map(|g| {
                let n = g.num_vertices();
                (Just(g), arb_permutation(n))
            }),
    ) {
        let permuted = g.permute(&order);
        let mut before: Vec<usize> = (0..g.num_vertices()).map(|i| g.vertex_degree(i)).collect();
        let mut after: Vec<usize> =
            (0..permuted.num_vertices()).map(|i| permuted.vertex_degree(i)).collect();
        before.sort_unstable();
        after.sort_unstable();
        prop_assert_eq!(before, after);
        prop_assert_eq!(g.num_edges(), permuted.num_edges());
    }

    #[test]
    fn kronecker_mixed_product_property(
        a in proptest::collection::vec(-2.0f32..2.0, 9),
        b in proptest::collection::vec(-2.0f32..2.0, 9),
        x in proptest::collection::vec(-2.0f32..2.0, 3),
        y in proptest::collection::vec(-2.0f32..2.0, 3),
    ) {
        // (A ⊗ B)(x ⊗ y) = (A x) ⊗ (B y)
        let am = DenseMatrix::from_row_major(3, 3, a);
        let bm = DenseMatrix::from_row_major(3, 3, b);
        let big = kron_dense(&am, &bm);
        let xy = kron_vec(&x, &y);
        let mut lhs = vec![0.0f32; 9];
        big.matvec(&xy, &mut lhs);
        let mut ax = vec![0.0f32; 3];
        let mut by = vec![0.0f32; 3];
        am.matvec(&x, &mut ax);
        bm.matvec(&y, &mut by);
        let rhs = kron_vec(&ax, &by);
        for (l, r) in lhs.iter().zip(&rhs) {
            prop_assert!((l - r).abs() <= 1e-3 + 1e-3 * r.abs());
        }
    }

    #[test]
    fn unlabeled_kernel_of_a_graph_with_itself_is_maximal_under_normalization(
        g in arb_labeled_graph(12),
    ) {
        // for the *normalized* kernel, K̂(G, G) = 1 >= K̂(G, G') for any G'
        let u = g.to_unlabeled();
        let solver = MarginalizedKernelSolver::unlabeled(SolverConfig::default());
        let kgg = solver.kernel(&u, &u).unwrap().value as f64;
        prop_assert!(kgg > 0.0);
        // compare against a fixed reference graph
        let h = Graph::from_edge_list(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let kgh = solver.kernel(&u, &h).unwrap().value as f64;
        let khh = solver.kernel(&h, &h).unwrap().value as f64;
        let normalized = kgh / (kgg * khh).sqrt();
        prop_assert!(normalized <= 1.0 + 1e-4);
        prop_assert!(normalized > 0.0);
    }

    #[test]
    fn base_kernels_stay_in_unit_interval_and_are_symmetric(
        a in -10.0f32..10.0,
        b in -10.0f32..10.0,
        labels in (0u8..6, 0u8..6),
    ) {
        let se = SquareExponential::new(1.3);
        prop_assert!((0.0..=1.0).contains(&se.eval(&a, &b)));
        prop_assert!((se.eval(&a, &b) - se.eval(&b, &a)).abs() < 1e-7);
        let kd = KroneckerDelta::new(0.25);
        let v = kd.eval(&labels.0, &labels.1);
        prop_assert!(v == 1.0 || v == 0.25);
        prop_assert_eq!(BaseKernel::<u8>::eval(&UnitKernel, &labels.0, &labels.1), 1.0);
    }
}
