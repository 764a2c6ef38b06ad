//! Cross-crate integration tests: datasets → reordering → solver → Gram
//! engine.

use mgk::datasets::{molecules, protein};
use mgk::graph::{AtomLabel, BondLabel};
use mgk::kernels::{BaseKernel, KernelCost, KroneckerDelta, SquareExponential};
use mgk::prelude::*;
use mgk::reorder::ReorderMethod;
use mgk::solver::{GramConfig, GramEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Clone, Copy)]
struct AtomKernel(KroneckerDelta);

impl BaseKernel<AtomLabel> for AtomKernel {
    fn eval(&self, a: &AtomLabel, b: &AtomLabel) -> f32 {
        self.0.eval(&a.element, &b.element)
    }
    fn cost(&self) -> KernelCost {
        KernelCost::new(4, 4)
    }
}

#[derive(Clone, Copy)]
struct BondKernel(KroneckerDelta);

impl BaseKernel<BondLabel> for BondKernel {
    fn eval(&self, a: &BondLabel, b: &BondLabel) -> f32 {
        self.0.eval(&a.order, &b.order)
    }
    fn cost(&self) -> KernelCost {
        KernelCost::new(1, 4)
    }
}

#[test]
fn labeled_molecular_gram_matrix_is_consistent_across_solver_modes() {
    let mut rng = StdRng::seed_from_u64(7);
    let mols = molecules::drugbank_like(8, 4, 30, &mut rng);
    let kv = AtomKernel(KroneckerDelta::new(0.2));
    let ke = BondKernel(KroneckerDelta::new(0.4));

    // mgk-bench checks the dense baseline's Gram matrix against this one
    let solver = MarginalizedKernelSolver::new(
        kv,
        ke,
        SolverConfig { reorder: ReorderMethod::Pbr, ..SolverConfig::default() },
    );
    let octile = GramEngine::new(solver, GramConfig { normalize: true }).compute(&mols);
    assert_eq!(octile.failures, 0);
    // normalized diagonal
    for i in 0..mols.len() {
        assert!((octile.get(i, i) - 1.0).abs() < 1e-4);
    }
}

#[test]
fn protein_structures_with_continuous_edge_labels_solve_and_normalize() {
    let mut rng = StdRng::seed_from_u64(2026);
    let structures = protein::pdb_like(6, 40, 80, &mut rng);
    let graphs: Vec<_> = structures.iter().map(|s| s.graph.clone()).collect();
    let solver = MarginalizedKernelSolver::new(
        KroneckerDelta::new(0.3),
        SquareExponential::new(1.0),
        SolverConfig::default(),
    );
    let engine = GramEngine::new(solver, GramConfig::default());
    let gram = engine.compute(&graphs);
    assert_eq!(gram.failures, 0);
    for i in 0..graphs.len() {
        for j in 0..graphs.len() {
            let v = gram.get(i, j);
            assert!(v.is_finite() && v > 0.0 && v <= 1.0 + 1e-5, "entry ({i},{j}) = {v}");
        }
    }
    // the labeled kernel must discriminate more than the unlabeled one
    // (Section VIII). Ensemble-level spread comparisons — both the old
    // max-minus-min range and mean-deviation variants — are noisy functions
    // of the sampled topologies and fail for some seeds, so discrimination
    // is tested by construction instead: a relabeled twin (same topology,
    // every element swapped) is indistinguishable to the unlabeled kernel
    // but clearly dissimilar to the labeled one, for any sampled structure
    let original = &graphs[0];
    let relabeled = original.map_labels(
        |e| match *e {
            mgk::graph::Element::CARBON => mgk::graph::Element::NITROGEN,
            mgk::graph::Element::NITROGEN => mgk::graph::Element::OXYGEN,
            _ => mgk::graph::Element::CARBON,
        },
        |&d| d,
    );
    let labeled_solver = MarginalizedKernelSolver::new(
        KroneckerDelta::new(0.3),
        SquareExponential::new(1.0),
        SolverConfig::default(),
    );
    let normalized = |solved: f32, kii: f32, kjj: f32| solved / (kii * kjj).sqrt();
    let k_cross = labeled_solver.kernel(original, &relabeled).unwrap().value;
    let k_self_a = labeled_solver.kernel(original, original).unwrap().value;
    let k_self_b = labeled_solver.kernel(&relabeled, &relabeled).unwrap().value;
    let labeled_similarity = normalized(k_cross, k_self_a, k_self_b);
    assert!(
        labeled_similarity < 0.95,
        "labeled kernel should distinguish relabeled twins, got {labeled_similarity}"
    );

    let unlabeled_solver = MarginalizedKernelSolver::unlabeled(SolverConfig::default());
    let (ua, ub) = (original.to_unlabeled(), relabeled.to_unlabeled());
    let u_cross = unlabeled_solver.kernel(&ua, &ub).unwrap().value;
    let u_self_a = unlabeled_solver.kernel(&ua, &ua).unwrap().value;
    let u_self_b = unlabeled_solver.kernel(&ub, &ub).unwrap().value;
    let unlabeled_similarity = normalized(u_cross, u_self_a, u_self_b);
    assert!(
        (unlabeled_similarity - 1.0).abs() < 1e-4,
        "unlabeled kernel cannot distinguish relabeled twins, got {unlabeled_similarity}"
    );
    assert!(labeled_similarity < unlabeled_similarity);
}

#[test]
fn reordering_never_changes_kernel_values_only_tile_counts() {
    let mut rng = StdRng::seed_from_u64(29);
    let structures = protein::pdb_like(2, 50, 90, &mut rng);
    let g1 = &structures[0].graph;
    let g2 = &structures[1].graph;
    let value_with = |method: ReorderMethod| {
        let solver = MarginalizedKernelSolver::new(
            KroneckerDelta::new(0.3),
            SquareExponential::new(1.0),
            SolverConfig { reorder: method, ..SolverConfig::default() },
        );
        solver.kernel(g1, g2).unwrap().value
    };
    let natural = value_with(ReorderMethod::Natural);
    for method in [ReorderMethod::Rcm, ReorderMethod::Pbr] {
        let v = value_with(method);
        assert!((v - natural).abs() < 1e-4 * natural.abs(), "{method:?}: {v} vs {natural}");
    }
    // but the tile counts do change (that is the whole point of reordering)
    let natural_tiles = mgk::reorder::count_nonempty_tiles(g1, 8);
    let pbr_order = ReorderMethod::Pbr.compute_order(g1);
    let pbr_tiles = mgk::reorder::nonempty_tiles_of_order(g1, &pbr_order, 8);
    assert!(pbr_tiles <= natural_tiles);
}
