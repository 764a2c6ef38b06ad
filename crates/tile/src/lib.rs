//! The octile sparse matrix format of Section IV of the paper.
//!
//! The on-the-fly XMV primitives stream the adjacency and edge-label
//! matrices of the individual graphs by 8×8 square blocks ("octiles").
//! Sparsity is exploited at two levels:
//!
//! * **inter-tile** — only non-empty octiles are stored, in coordinate
//!   (COO) order of their tile row/column;
//! * **intra-tile** — each octile carries a 64-bit occupancy bitmap whose
//!   `i`-th bit marks whether the `i`-th element (row-major within the
//!   tile) is nonzero, and only the nonzero weights/labels are stored in a
//!   packed payload.
//!
//! [`OctileMatrix`] is the storage type; [`TileDensityStats`] produces the
//!   occupancy statistics plotted in Figs. 6 and 7 of the paper.

#![forbid(unsafe_code)]

pub mod octile;
pub mod stats;

pub use octile::{Octile, OctileMatrix, TILE_AREA, TILE_SIZE};
pub use stats::TileDensityStats;
