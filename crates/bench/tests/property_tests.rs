//! Property-based tests (proptest) of the dense baselines against the
//! solver's octile operator.

use mgk_bench::dense::{DenseSolver, DenseXmv};
use mgk_bench::xmv::XmvPrimitive;
use mgk_core::{MarginalizedKernelSolver, SolverConfig};
use mgk_graph::{Graph, GraphBuilder};
use mgk_kernels::{KroneckerDelta, SquareExponential};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_xmv_modes_agree_on_the_kernel_value(
        g1 in arb_labeled_graph(10),
        g2 in arb_labeled_graph(10),
    ) {
        let value = |xmv: DenseXmv| {
            let solver = DenseSolver::new(
                KroneckerDelta::new(0.5),
                SquareExponential::new(1.0),
                SolverConfig::default(),
                xmv,
            );
            solver.kernel(&g1, &g2).unwrap().value as f64
        };
        let octile = MarginalizedKernelSolver::new(
            KroneckerDelta::new(0.5),
            SquareExponential::new(1.0),
            SolverConfig::default(),
        )
        .kernel(&g1, &g2)
        .unwrap()
        .value as f64;
        let naive = value(DenseXmv::Naive);
        let dense = value(DenseXmv::OnTheFly(XmvPrimitive::OCTILE));
        let shared = value(DenseXmv::OnTheFly(XmvPrimitive::SharedTiling { t: 8, r: 4 }));
        let reg = value(DenseXmv::OnTheFly(XmvPrimitive::RegisterBlocking { t: 8, r: 8 }));
        for v in [naive, dense, shared, reg] {
            prop_assert!((v - octile).abs() <= 1e-3 * octile.abs().max(1e-12), "{v} vs {octile}");
        }
    }
}
