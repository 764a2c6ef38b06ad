//! Labeled, weighted, undirected graphs for the marginalized graph kernel.
//!
//! This crate provides the graph substrate used by the rest of the `mgk`
//! workspace:
//!
//! * [`Graph`] — an immutable, CSR-backed, labeled and weighted undirected
//!   graph carrying the per-node random-walk starting/stopping probabilities
//!   used by the marginalized graph kernel (Section II-B of the paper).
//! * [`GraphBuilder`] — an incremental builder with validation.
//! * [`generators`] — Newman–Watts–Strogatz and Barabási–Albert random graph
//!   generators (the synthetic workloads of Section VI-A), plus helpers for
//!   random geometric and random labeled graphs.
//! * [`stats`] — degree/size/sparsity statistics used by the benchmark
//!   harness.
//!
//! The scalar type is `f32` throughout, matching the single-precision
//! arithmetic of the GPU solver described in the paper.

#![forbid(unsafe_code)]

pub mod builder;
pub mod generators;
pub mod graph;
pub mod labels;
pub mod stats;

pub use builder::{BuildError, GraphBuilder};
pub use graph::{EdgeRef, Graph};
pub use labels::{AtomLabel, BondLabel, Element, Unlabeled};
pub use stats::{EnsembleStats, GraphStats};

/// Default uniform stopping probability used when none is specified.
///
/// The paper notes (Section VII-B) that its solver converges with stopping
/// probabilities as small as `0.0005`; we default to a moderate value that
/// keeps the system well conditioned for all datasets.
pub const DEFAULT_STOPPING_PROBABILITY: f32 = 0.05;
