//! Synthetic 3D protein-like structures (stand-in for the paper's PDB-3k
//! dataset).
//!
//! Each structure is generated as a folded backbone — a self-avoiding
//! random walk with bond length ~1.5 Å and a bias that folds it into a
//! compact globule — plus a small number of side-chain atoms attached to
//! backbone sites. The graph is then built with the paper's spatial
//! adjacency rule (Section VI-B): edges connect atoms closer than a cutoff
//! distance, the weight decays smoothly from 1 (overlapping) to 0 (at the
//! cutoff), and the edge label carries the interatomic distance.

use mgk_graph::{generators, Element, Graph};
use rand::Rng;

/// One synthetic protein structure: the labeled graph plus the raw atom
/// coordinates (`fig6_reorder_examples` and the `protein_contact_maps`
/// example order them with `mgk_reorder::hilbert_order`).
#[derive(Debug, Clone)]
pub struct ProteinStructure {
    /// Spatial-adjacency graph: elements on vertices, interatomic distances
    /// on edges.
    pub graph: Graph<Element, f32>,
    /// Atom coordinates in Å.
    pub coordinates: Vec<[f32; 3]>,
}

/// Distance cutoff (Å) of the spatial adjacency rule.
const CONTACT_CUTOFF: f32 = 3.5;

/// Generate one protein-like structure with approximately `num_atoms`
/// heavy atoms.
pub fn synthetic_structure<R: Rng + ?Sized>(num_atoms: usize, rng: &mut R) -> ProteinStructure {
    assert!(num_atoms >= 2, "a structure needs at least two atoms");
    // number of backbone sites; roughly 2/3 of atoms are backbone
    let backbone_len = (num_atoms * 2 / 3).max(2);
    let mut coords: Vec<[f32; 3]> = Vec::with_capacity(num_atoms);
    let mut elements: Vec<Element> = Vec::with_capacity(num_atoms);

    // folded backbone: a biased random walk with step ~1.5 Å that is pulled
    // back toward the centroid so the chain collapses into a globule
    let mut pos = [0.0f32; 3];
    let mut centroid = [0.0f32; 3];
    for k in 0..backbone_len {
        coords.push(pos);
        // alternate C and N along the backbone with occasional O
        elements.push(match k % 5 {
            0 | 2 => Element::CARBON,
            1 => Element::NITROGEN,
            3 => Element::CARBON,
            _ => Element::OXYGEN,
        });
        for a in 0..3 {
            centroid[a] += (pos[a] - centroid[a]) / (k + 1) as f32;
        }
        // propose the next position: random direction + a gentle pull toward
        // the centroid so the chain folds, rejecting proposals that land on
        // top of an existing atom (crude self-avoidance keeps the contact
        // density realistic)
        let step = 1.5f32;
        let pull = 0.02;
        let mut accepted = pos;
        for _attempt in 0..12 {
            let mut dir = [
                rng.gen::<f32>() * 2.0 - 1.0,
                rng.gen::<f32>() * 2.0 - 1.0,
                rng.gen::<f32>() * 2.0 - 1.0,
            ];
            let norm = (dir[0] * dir[0] + dir[1] * dir[1] + dir[2] * dir[2]).sqrt().max(1e-6);
            for d in &mut dir {
                *d /= norm;
            }
            let candidate = [
                pos[0] + step * dir[0] + pull * (centroid[0] - pos[0]),
                pos[1] + step * dir[1] + pull * (centroid[1] - pos[1]),
                pos[2] + step * dir[2] + pull * (centroid[2] - pos[2]),
            ];
            accepted = candidate;
            let clash = coords.iter().rev().take(24).any(|c| {
                let dx = c[0] - candidate[0];
                let dy = c[1] - candidate[1];
                let dz = c[2] - candidate[2];
                dx * dx + dy * dy + dz * dz < 1.3 * 1.3
            });
            if !clash {
                break;
            }
        }
        pos = accepted;
    }

    // side-chain atoms: attach to random backbone sites at ~1.5 Å
    while coords.len() < num_atoms {
        let anchor = rng.gen_range(0..backbone_len);
        let base = coords[anchor];
        let offset = [
            rng.gen::<f32>() * 2.0 - 1.0,
            rng.gen::<f32>() * 2.0 - 1.0,
            rng.gen::<f32>() * 2.0 - 1.0,
        ];
        let norm = (offset[0] * offset[0] + offset[1] * offset[1] + offset[2] * offset[2])
            .sqrt()
            .max(1e-6);
        coords.push([
            base[0] + 1.5 * offset[0] / norm,
            base[1] + 1.5 * offset[1] / norm,
            base[2] + 1.5 * offset[2] / norm,
        ]);
        elements.push(match rng.gen_range(0..10) {
            0..=5 => Element::CARBON,
            6 | 7 => Element::OXYGEN,
            8 => Element::NITROGEN,
            _ => Element::SULFUR,
        });
    }

    let unlabeled = generators::geometric_from_points(&coords, CONTACT_CUTOFF);
    let mut idx = 0usize;
    let graph = unlabeled.map_labels(
        |_| {
            let e = elements[idx];
            idx += 1;
            e
        },
        |&d| d,
    );
    ProteinStructure { graph, coordinates: coords }
}

/// Generate a PDB-3k-like ensemble: `count` structures whose sizes are
/// spread between `min_atoms` and `max_atoms` atoms (the paper's subset
/// keeps proteins below 3000 Da, i.e. a few hundred heavy atoms).
pub fn pdb_like<R: Rng + ?Sized>(
    count: usize,
    min_atoms: usize,
    max_atoms: usize,
    rng: &mut R,
) -> Vec<ProteinStructure> {
    assert!(min_atoms >= 2 && max_atoms >= min_atoms);
    (0..count)
        .map(|_| {
            let n = rng.gen_range(min_atoms..=max_atoms);
            synthetic_structure(n, rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgk_graph::GraphStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn structure_has_requested_size_and_spatial_edges() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = synthetic_structure(120, &mut rng);
        assert_eq!(s.graph.num_vertices(), 120);
        assert_eq!(s.coordinates.len(), 120);
        let stats = GraphStats::of(&s.graph);
        // spatial cutoff graphs are sparse but well connected locally
        assert!(stats.mean_degree > 2.0, "mean degree {}", stats.mean_degree);
        assert!(stats.density < 0.5, "density {}", stats.density);
        // edge labels are distances within the cutoff
        for (_, _, w, &d) in s.graph.edges() {
            assert!(d > 0.0 && d < CONTACT_CUTOFF);
            assert!(w > 0.0 && w <= 1.0);
        }
    }

    #[test]
    fn backbone_gives_good_natural_locality() {
        // the chain order is the "natural" order of the PDB dataset; the
        // paper notes it already yields a near-banded adjacency pattern
        let mut rng = StdRng::seed_from_u64(5);
        let s = synthetic_structure(100, &mut rng);
        let natural: Vec<u32> = (0..100).collect();
        let natural_tiles = mgk_reorder::nonempty_tiles_of_order(&s.graph, &natural, 8);
        // a scrambled order should be clearly worse
        let scrambled: Vec<u32> = (0..100u32).map(|k| (k * 37) % 100).collect();
        let scrambled_tiles = mgk_reorder::nonempty_tiles_of_order(&s.graph, &scrambled, 8);
        assert!(
            natural_tiles < scrambled_tiles,
            "natural {natural_tiles} vs scrambled {scrambled_tiles}"
        );
    }

    #[test]
    fn ensemble_sizes_are_in_range_and_deterministic() {
        let mut rng = StdRng::seed_from_u64(11);
        let set = pdb_like(10, 40, 160, &mut rng);
        assert_eq!(set.len(), 10);
        for s in &set {
            let n = s.graph.num_vertices();
            assert!((40..=160).contains(&n));
        }
        let mut rng2 = StdRng::seed_from_u64(11);
        let set2 = pdb_like(10, 40, 160, &mut rng2);
        assert_eq!(set[3].graph, set2[3].graph);
    }

    #[test]
    fn vertex_labels_are_mostly_carbon() {
        let mut rng = StdRng::seed_from_u64(13);
        let s = synthetic_structure(200, &mut rng);
        let carbons = s.graph.vertex_labels().iter().filter(|e| **e == Element::CARBON).count();
        assert!(carbons > 80, "expected a carbon-dominated composition, got {carbons}/200");
    }
}
