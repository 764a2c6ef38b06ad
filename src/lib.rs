//! `mgk` — a high-throughput solver for marginalized graph kernels.
//!
//! This facade crate re-exports the entire `mgk-*` workspace behind a single
//! dependency, mirroring the layering of the system described in
//! *"A High-Throughput Solver for Marginalized Graph Kernels on GPU"*
//! (Tang, Selvitopi, Popovici, Buluç — IPDPS 2020):
//!
//! * [`graph`] — labeled weighted undirected graphs and random generators.
//! * [`linalg`] — dense linear algebra, Kronecker products and the
//!   preconditioned conjugate gradient solver, generic over the sealed
//!   `Scalar` precision axis (`f32` serving / `f64` validation, selected at
//!   runtime through the `Precision` policy).
//! * [`kernels`] — base vertex/edge micro-kernels (Kronecker delta, square
//!   exponential, …) with cost metadata.
//! * [`tile`] — the octile (8×8 tile, bitmap-compressed) sparse format.
//! * [`reorder`] — partition-based (PBR) and RCM node reorderings that
//!   minimize the number of non-empty octiles, and a Hilbert-curve order
//!   over 3D coordinates.
//! * [`solver`] — the core contribution: on-the-fly Kronecker-product
//!   matrix-vector primitives, the PCG marginalized-graph-kernel solver and
//!   the parallel Gram-matrix engine.
//! * [`datasets`] — synthetic stand-ins for the paper's PDB-3k and DrugBank
//!   datasets, plus the small-world / scale-free ensembles.
//! * [`runtime`] — the serving layer: the persistent worker pool every
//!   parallel region executes on, the streaming Gram service with
//!   incremental extension and content-hash entry caching, the background
//!   Gram scheduler (microsecond submissions over a
//!   bounded command channel, versioned snapshot watch), the
//!   request-scoped `KernelClient` (per-pair tickets with coalescing,
//!   deadlines, cancellation and typed `KernelResult<T>` answers; the same
//!   client over one scheduler or over every shard of a cluster), and the
//!   sharded `GramCluster` serving plane (K schedulers behind a
//!   content-hash router, merged cluster epochs, shard-labeled telemetry).
//! * [`store`] — the dependency-free durability plane: an append-only,
//!   checksummed write-ahead log of solved pair entries plus atomic
//!   epoch snapshots, with warm recovery (snapshot + WAL tail replay,
//!   torn-tail tolerance, typed corruption/version-skew errors).
//! * [`telemetry`] — the dependency-free observability plane: sharded
//!   atomic metrics registry (counters, gauges, log-scaled latency
//!   histograms), RAII stage spans, and Prometheus-text / JSON exposition.
//!   The runtime records every pipeline stage into it; scrape a live
//!   scheduler via `GramScheduler::telemetry`.
//!
//! # Quickstart
//!
//! ```
//! use mgk::prelude::*;
//!
//! // two small unlabeled graphs: a path and a cycle
//! let g1 = mgk::graph::Graph::from_edge_list(4, &[(0, 1), (1, 2), (2, 3)]);
//! let g2 = mgk::graph::Graph::from_edge_list(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
//!
//! // configure the solver for unlabeled graphs (random-walk kernel)
//! let solver = MarginalizedKernelSolver::unlabeled(SolverConfig::default());
//! let k11 = solver.kernel(&g1, &g1).unwrap().value;
//! let k12 = solver.kernel(&g1, &g2).unwrap().value;
//! let k22 = solver.kernel(&g2, &g2).unwrap().value;
//! // Cauchy-Schwarz in the reproducing kernel Hilbert space
//! assert!(k12 * k12 <= k11 * k22 * 1.0001);
//! ```

#![forbid(unsafe_code)]

pub use mgk_core as solver;
pub use mgk_datasets as datasets;
pub use mgk_graph as graph;
pub use mgk_kernels as kernels;
pub use mgk_linalg as linalg;
pub use mgk_reorder as reorder;
pub use mgk_runtime as runtime;
pub use mgk_store as store;
pub use mgk_telemetry as telemetry;
pub use mgk_tile as tile;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use mgk_core::{
        GramConfig, GramEngine, KernelResult, MarginalizedKernelSolver, SolverConfig,
    };
    pub use mgk_graph::{Graph, GraphBuilder};
    pub use mgk_kernels::{BaseKernel, KroneckerDelta, SquareExponential, UnitKernel};
    pub use mgk_linalg::{LinearOperator, Precision, Scalar, SolveOptions, TrafficCounters};
    pub use mgk_reorder::ReorderMethod;
    pub use mgk_runtime::{
        ClusterConfig, ClusterWatch, DurabilityConfig, GramClient, GramCluster, GramScheduler,
        GramService, GramServiceConfig, KernelClient, Pool, RecoveryReport, RequestError,
        RuntimeMetrics, SchedulerConfig, SnapshotWatch, Ticket,
    };
    pub use mgk_store::{FsyncPolicy, StoreError};
    pub use mgk_telemetry::{MetricsRegistry, StageBreakdown, TelemetrySnapshot};
}
