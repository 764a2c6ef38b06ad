//! Molecular similarity search on a DrugBank-like dataset.
//!
//! This is the workload the paper's introduction motivates: build the
//! pairwise similarity matrix of a set of labeled molecular graphs (atom
//! attributes on vertices, bond attributes on edges) so that it can feed a
//! kernel-based learning method, then use it for a nearest-neighbour query.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example molecular_similarity
//! ```

use mgk::datasets::molecules;
use mgk::graph::{AtomLabel, BondLabel};
use mgk::kernels::{BaseKernel, KroneckerDelta};
use mgk::prelude::*;
use mgk::solver::{GramConfig, GramEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Vertex base kernel comparing atom attributes: element (must match
/// closely), charge and hybridization each contribute a Kronecker-delta
/// factor.
#[derive(Clone, Copy)]
struct AtomKernel {
    element: KroneckerDelta,
    charge: KroneckerDelta,
    hybridization: KroneckerDelta,
}

impl AtomKernel {
    fn new() -> Self {
        AtomKernel {
            element: KroneckerDelta::new(0.2),
            charge: KroneckerDelta::new(0.7),
            hybridization: KroneckerDelta::new(0.8),
        }
    }
}

impl BaseKernel<AtomLabel> for AtomKernel {
    const LABEL_BYTES: usize = 4;
    const FLOPS: usize = 8;

    fn eval(&self, a: &AtomLabel, b: &AtomLabel) -> f32 {
        self.element.eval(&a.element, &b.element)
            * self.charge.eval(&a.charge, &b.charge)
            * self.hybridization.eval(&a.hybridization, &b.hybridization)
    }
}

/// Edge base kernel comparing bond order and conjugacy.
#[derive(Clone, Copy)]
struct BondKernel {
    order: KroneckerDelta,
    conjugated: KroneckerDelta,
}

impl BondKernel {
    fn new() -> Self {
        BondKernel { order: KroneckerDelta::new(0.3), conjugated: KroneckerDelta::new(0.8) }
    }
}

impl BaseKernel<BondLabel> for BondKernel {
    const LABEL_BYTES: usize = 2;
    const FLOPS: usize = 6;

    fn eval(&self, a: &BondLabel, b: &BondLabel) -> f32 {
        self.order.eval(&a.order, &b.order) * self.conjugated.eval(&a.conjugated, &b.conjugated)
    }
}

fn main() {
    let mut rng = StdRng::seed_from_u64(20260616);
    // a modest subset of the DrugBank-like generator so the example runs in
    // seconds; crank `count`/`max_atoms` up to reproduce the paper-scale run
    let molecules = molecules::drugbank_like(40, 4, 80, &mut rng);
    println!(
        "generated {} molecules, {}..{} heavy atoms",
        molecules.len(),
        molecules.iter().map(|m| m.num_vertices()).min().unwrap(),
        molecules.iter().map(|m| m.num_vertices()).max().unwrap()
    );

    let solver = MarginalizedKernelSolver::new(
        AtomKernel::new(),
        BondKernel::new(),
        SolverConfig { stopping_probability: Some(0.05), ..SolverConfig::default() },
    );
    let engine = GramEngine::new(solver, GramConfig::default());
    let gram = engine.compute(&molecules);

    println!(
        "computed a {n}×{n} normalized Gram matrix in {:.2?} ({} pairs, {} failures)",
        gram.elapsed,
        molecules.len() * (molecules.len() + 1) / 2,
        gram.failures,
        n = molecules.len(),
    );

    // nearest-neighbour query: which molecule is most similar to molecule 0?
    let query = 0;
    let mut ranked: Vec<(usize, f32)> =
        (0..molecules.len()).filter(|&j| j != query).map(|j| (j, gram.get(query, j))).collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!(
        "\nquery molecule #{query} ({} atoms, {} bonds) — closest matches:",
        molecules[query].num_vertices(),
        molecules[query].num_edges()
    );
    for (j, similarity) in ranked.iter().take(5) {
        println!(
            "  molecule #{j:<3} similarity {similarity:.4}  ({} atoms, {} bonds)",
            molecules[*j].num_vertices(),
            molecules[*j].num_edges()
        );
    }

    // the least similar pair in the dataset
    let mut worst = (0, 0, f32::INFINITY);
    for i in 0..molecules.len() {
        for j in (i + 1)..molecules.len() {
            if gram.get(i, j) < worst.2 {
                worst = (i, j, gram.get(i, j));
            }
        }
    }
    println!("\nleast similar pair: #{} vs #{} (similarity {:.4})", worst.0, worst.1, worst.2);
}
