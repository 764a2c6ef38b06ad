//! The high-throughput marginalized graph kernel solver — the primary
//! contribution of the paper.
//!
//! For a pair of labeled, weighted, undirected graphs `G` and `G'` the
//! marginalized graph kernel is (Eq. 1)
//!
//! ```text
//! K(G, G') = p×ᵀ (D× V×⁻¹ − A× ∘ E×)⁻¹ D× q×
//! ```
//!
//! The solver never materializes the tensor-product system: it applies the
//! operator on the fly while streaming the two graphs by 8×8 tiles
//! ("octiles"), exploits inter- and intra-tile sparsity, and solves the
//! system with a diagonally preconditioned conjugate gradient iteration
//! (Algorithm 1). Under a constant edge kernel (the unit kernel) the
//! operator factors as `A₁·X·A₂ᵀ`, and the solver applies it that way.
//!
//! Crate layout, mirroring the paper's sections:
//!
//! * [`octile_ops`] — the sparse tile-pair product primitives of
//!   Section IV-B (`dense×dense`, `dense×sparse`, `sparse×sparse`) and the
//!   CPU-fit table the solver routes tile pairs by.
//! * [`prepared`] — [`PreparedGraph`], everything about one structure that
//!   is built once and shared by every pair it is in (octile storage).
//! * [`product`] — assembly of the tensor-product system (degree/vertex
//!   kernel diagonals, right-hand side, and the octile or factored
//!   off-diagonal operator).
//! * `factored` — the operands of `A₁·X·A₂ᵀ`, which a system under a
//!   constant edge kernel holds in place of octile ones.
//! * [`solver`] — [`MarginalizedKernelSolver`], the per-pair PCG solver.
//! * [`gram`] — [`GramEngine`], the parallel pairwise Gram-matrix engine,
//!   dynamically scheduled (Section V).
//!
//! The baselines the paper compares against — the naive materialized
//! product of Section II-D, the dense on-the-fly primitives of Section III
//! with Table I's closed forms, the optimization levels of Fig. 9 and the
//! CPU packages of Fig. 10 — live in `mgk-bench`, beside the report
//! binaries that print them.

#![deny(unsafe_code, clippy::undocumented_unsafe_blocks)]

mod factored;
pub mod gram;
pub mod octile_ops;
pub mod prepared;
pub mod product;
pub mod solver;

/// The version of the solver's arithmetic: which bits `K(G, G')` takes.
///
/// Two builds with one version return the same bits for the same pair,
/// precision and configuration. A change that can move an answer bit (a
/// summation order, a routing constant, an operator, a preconditioner)
/// bumps it, regenerates `crates/bench/expected/answer_ledger.txt` and
/// records the new ledger's digest in `answer_ledger.history` beside it.
pub const ARITHMETIC_VERSION: u32 = 2;

pub use gram::{GramConfig, GramEngine, GramResult};
pub use mgk_telemetry::StageBreakdown;
pub use prepared::PreparedGraph;
pub use product::{ProductSystem, SystemOperator};
pub use solver::{KernelResult, MarginalizedKernelSolver, SolverConfig, SolverError};
