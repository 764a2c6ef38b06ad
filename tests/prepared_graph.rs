//! A structure prepared once and paired many times solves exactly as the
//! one-shot `kernel*` entry points do: same tiles, same order, same
//! arithmetic — every field of the result bit for bit, at every precision.

use mgk::graph::{Graph, GraphBuilder, Unlabeled};
use mgk::kernels::BaseKernel;
use mgk::prelude::*;
use proptest::prelude::*;

/// Vertex counts on both sides of every tile boundary: a lone vertex, a
/// partial tile, exactly one tile, one tile and a sliver, two and a sliver.
const SIZES: [usize; 7] = [1, 2, 7, 8, 9, 13, 17];

/// A random connected labeled graph whose size is drawn from [`SIZES`].
fn arb_labeled_graph() -> impl Strategy<Value = Graph<u8, f32>> {
    (0..SIZES.len())
        .prop_flat_map(|k| {
            let n = SIZES[k];
            let labels = proptest::collection::vec(0u8..4, n);
            // spanning-tree parents guarantee connectivity; extra edges add cycles
            let parents: Vec<BoxedStrategy<usize>> = (1..n).map(|v| (0..v).boxed()).collect();
            let extra = proptest::collection::vec((0usize..n, 0usize..n, 0.1f32..2.0), 0..n);
            let edges = proptest::collection::vec((0.1f32..2.0, 0.0f32..3.0), n - 1);
            (labels, parents, extra, edges)
        })
        .prop_map(|(labels, parents, extra, edges)| {
            let mut b: GraphBuilder<u8, f32> = GraphBuilder::new();
            for &l in &labels {
                b.add_vertex(l);
            }
            let mut existing = std::collections::HashSet::new();
            for (v, (&p, &(w, l))) in (1..).zip(parents.iter().zip(&edges)) {
                b.add_edge(v, p, w, l).unwrap();
                existing.insert((p, v));
            }
            for (u, v, w) in extra {
                if u != v && existing.insert((u.min(v), u.max(v))) {
                    b.add_edge(u, v, w, w).unwrap();
                }
            }
            b.build().unwrap()
        })
}

/// `partners` against `a`, through the front door and through one
/// `PreparedGraph` of `a` reused for every partner.
fn assert_prepared_matches_front_door<V, E, KV, KE>(
    solver: &MarginalizedKernelSolver<KV, KE>,
    a: &Graph<V, E>,
    partners: &[&Graph<V, E>],
) where
    V: Clone,
    E: Copy + Default,
    KV: BaseKernel<V> + Clone,
    KE: BaseKernel<E> + Clone,
{
    for precision in [Precision::F32, Precision::F64] {
        let solver =
            solver.with_config(SolverConfig { precision, compute_nodal: true, ..*solver.config() });
        let prepared_a = solver.prepare_graph(a);
        for &b in partners {
            let prepared_b = solver.prepare_graph(b);
            // the policy-dispatched serving result
            same_bits(
                solver.kernel(a, b),
                solver.kernel_prepared::<f32, V, E>(&prepared_a, &prepared_b, precision),
            );
            // and the reversed orientation, the reused side on the right
            same_bits(
                solver.kernel(b, a),
                solver.kernel_prepared::<f32, V, E>(&prepared_b, &prepared_a, precision),
            );
            // the carrier is erased at the sink: whatever the solve ran at,
            // the f32 result is the element-wise narrowing of the f64 one
            same_bits(
                solver.kernel_prepared::<f32, V, E>(&prepared_a, &prepared_b, precision),
                solver
                    .kernel_prepared::<f64, V, E>(&prepared_a, &prepared_b, precision)
                    .map(narrowed),
            );
        }
        // the pinned and the un-narrowed entries carry f64
        let prepared_b = solver.prepare_graph(partners[0]);
        same_bits(
            solver.kernel_at::<f64, V, E>(a, partners[0]),
            solver.kernel_prepared::<f64, V, E>(&prepared_a, &prepared_b, Precision::F64),
        );
    }
}

/// An f64-carried result narrowed field by field with `f32::from_f64`.
fn narrowed(wide: KernelResult<f64>) -> KernelResult<f32> {
    KernelResult {
        value: f32::from_f64(wide.value),
        value_f64: wide.value_f64,
        iterations: wide.iterations,
        converged: wide.converged,
        relative_residual: wide.relative_residual,
        traffic: wide.traffic,
        nodal: wide.nodal.map(|nodal| nodal.into_iter().map(f32::from_f64).collect()),
        stages: wide.stages,
    }
}

fn same_bits<T: Scalar, Err: PartialEq + std::fmt::Debug>(
    front_door: Result<KernelResult<T>, Err>,
    prepared: Result<KernelResult<T>, Err>,
) {
    let (f, p) = match (front_door, prepared) {
        (Ok(f), Ok(p)) => (f, p),
        (f, p) => return assert_eq!(f.err(), p.err()),
    };
    assert_eq!(f.value.to_f64().to_bits(), p.value.to_f64().to_bits());
    assert_eq!(f.value_f64.to_bits(), p.value_f64.to_bits());
    assert_eq!(f.iterations, p.iterations);
    assert_eq!(f.relative_residual.to_bits(), p.relative_residual.to_bits());
    assert_eq!(f.traffic, p.traffic);
    let bits = |r: &KernelResult<T>| -> Vec<u64> {
        r.nodal.as_ref().expect("nodal requested").iter().map(|x| x.to_f64().to_bits()).collect()
    };
    assert_eq!(bits(&f), bits(&p));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prepared_pairs_solve_bit_identically_to_the_front_door(
        a in arb_labeled_graph(),
        b in arb_labeled_graph(),
        c in arb_labeled_graph(),
    ) {
        let labeled = MarginalizedKernelSolver::new(
            KroneckerDelta::new(0.5),
            SquareExponential::new(1.0),
            SolverConfig::default(),
        );
        assert_prepared_matches_front_door(&labeled, &a, &[&b, &c, &a]);

        let strip = |g: &Graph<u8, f32>| g.map_labels(|_| Unlabeled, |_| Unlabeled);
        let (a, b, c) = (strip(&a), strip(&b), strip(&c));
        let unlabeled = MarginalizedKernelSolver::unlabeled(SolverConfig::default());
        assert_prepared_matches_front_door(&unlabeled, &a, &[&b, &c, &a]);
    }
}
