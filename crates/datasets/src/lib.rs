//! Synthetic benchmark datasets standing in for the paper's workloads.
//!
//! The paper evaluates on two synthetic graph families and two real-world
//! datasets (Section VI):
//!
//! | paper dataset | here |
//! |---|---|
//! | Newman–Watts–Strogatz, 160 graphs × 96 nodes, `k = 3, p = 0.1` | [`ensembles::small_world`] |
//! | Barabási–Albert, 160 graphs × 96 nodes, `m = 6` | [`ensembles::scale_free`] |
//! | PDB-3k: 1324 protein structures, spatial-cutoff adjacency, distance edge labels | [`protein`] — synthetic 3D protein-like structures built from a folded backbone walk plus side-chain atoms, with the same adjacency rule |
//! | DrugBank: 10 607 molecules from SMILES, 1–551 heavy atoms | [`molecules`] — synthetic valence-bounded molecular graphs with element/charge/hybridization vertex labels, bond-order edge labels and a heavy-tailed size distribution |
//!
//! The substitutions exercise the same code paths (continuous edge labels
//! and geometric locality for the protein set; categorical labels, low
//! maximum degree and a highly skewed size distribution for the molecule
//! set), which is what the performance behaviour in Figs. 6, 7, 9 and 10
//! depends on.

#![forbid(unsafe_code)]

pub mod ensembles;
pub mod molecules;
pub mod protein;

pub use ensembles::{scale_free, small_world};
pub use molecules::{drugbank_like, MoleculeGraph};
pub use protein::{pdb_like, ProteinStructure};
