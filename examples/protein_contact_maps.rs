//! Protein-structure similarity with continuous edge labels and nodal
//! similarity output.
//!
//! The paper's other motivating application (reference [2]) compares 3D
//! molecular structures whose edges carry interatomic distances. This
//! example builds a few synthetic protein-like structures, evaluates the
//! labeled marginalized graph kernel with a square-exponential edge kernel
//! on the distances, inspects the reordering quality (the Fig. 6 scenario)
//! and extracts the node-wise similarity map between two structures.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example protein_contact_maps
//! ```

use mgk::datasets::protein;
use mgk::kernels::{KroneckerDelta, SquareExponential};
use mgk::prelude::*;
use mgk::reorder::{hilbert_order, nonempty_tiles_of_order, ReorderMethod};
use mgk::tile::{OctileMatrix, TileDensityStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let structures = protein::pdb_like(6, 60, 140, &mut rng);
    println!("generated {} protein-like structures:", structures.len());
    for (i, s) in structures.iter().enumerate() {
        println!("  #{i}: {} atoms, {} contacts", s.graph.num_vertices(), s.graph.num_edges());
    }

    // --- reordering study (the Fig. 6 scenario) ---------------------------
    println!("\nnon-empty 8×8 tiles under different vertex orders:");
    println!("{:>6} {:>10} {:>10} {:>10} {:>10}", "id", "natural", "RCM", "PBR", "Hilbert");
    for (i, s) in structures.iter().enumerate() {
        let count = |order: Vec<u32>| nonempty_tiles_of_order(&s.graph, &order, 8);
        println!(
            "{:>6} {:>10} {:>10} {:>10} {:>10}",
            i,
            count(ReorderMethod::Natural.compute_order(&s.graph)),
            count(ReorderMethod::Rcm.compute_order(&s.graph)),
            count(ReorderMethod::Pbr.compute_order(&s.graph)),
            count(hilbert_order(&s.coordinates)),
        );
    }

    // tile density of the first structure under PBR
    let order = ReorderMethod::Pbr.compute_order(&structures[0].graph);
    let reordered = structures[0].graph.permute(&order);
    let stats = TileDensityStats::of(&OctileMatrix::from_graph(&reordered));
    println!(
        "\nstructure #0 after PBR: {} of {} tiles non-empty ({:.1}%), mean tile density {:.1}%",
        stats.nonempty_tiles,
        stats.possible_tiles,
        100.0 * stats.nonempty_fraction,
        100.0 * stats.mean_density
    );

    // --- labeled kernel between two structures ----------------------------
    // vertex kernel: element identity; edge kernel: square exponential on
    // the interatomic distance (length scale 1 Å)
    let solver = MarginalizedKernelSolver::new(
        KroneckerDelta::new(0.3),
        SquareExponential::new(1.0),
        SolverConfig { compute_nodal: true, ..SolverConfig::default() },
    );

    let a = &structures[0].graph;
    let b = &structures[1].graph;
    let kab = solver.kernel(a, b).expect("kernel solve");
    let kaa = solver.kernel(a, a).expect("kernel solve");
    let kbb = solver.kernel(b, b).expect("kernel solve");
    let normalized = kab.value / (kaa.value * kbb.value).sqrt();
    println!(
        "\nK(#0, #1) = {:.4e}  (normalized similarity {:.4}, {} PCG iterations)",
        kab.value, normalized, kab.iterations
    );

    // nodal similarity: which atom of structure 1 is most similar to each of
    // the first few atoms of structure 0?
    let nodal = kab.nodal.expect("nodal similarities requested");
    let m = b.num_vertices();
    println!("\nmost similar atom of #1 for the first 8 atoms of #0:");
    for i in 0..8.min(a.num_vertices()) {
        let row = &nodal[i * m..(i + 1) * m];
        let (best, score) = row
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.partial_cmp(y.1).unwrap())
            .map(|(j, &v)| (j, v))
            .unwrap();
        println!(
            "  atom {:>3} ({:>2}) -> atom {:>3} ({:>2})   nodal similarity {:.3e}",
            i,
            a.vertex_label(i).symbol(),
            best,
            b.vertex_label(best).symbol(),
            score
        );
    }
}
