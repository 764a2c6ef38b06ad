//! `mgk-runtime` — the long-lived serving layer of the workspace: a
//! persistent worker-pool runtime plus a streaming Gram service.
//!
//! The paper's premise is throughput — Gram matrices over many graph pairs,
//! fast enough to feed downstream learning. Batch computation
//! ([`GramEngine`](mgk_core::GramEngine)) covers one-shot experiments; this
//! crate adds the two pieces a long-running service needs:
//!
//! * **[`Pool`]** — the persistent work-stealing worker pool every parallel
//!   region in the workspace executes on. Workers are spawned once and
//!   parked while idle; `par_iter`/`par_chunks` calls (the rayon-shim
//!   surface used by `mgk-core`, `mgk-reorder` and the baselines) submit
//!   index ranges to it instead of spawning scoped threads per call. The
//!   implementation lives in the rayon shim (`rayon::pool`) — the lowest
//!   layer of the workspace DAG, so the shim itself can route through it —
//!   and is re-exported here as the runtime's pool layer.
//! * **[`GramService`]** — a streaming Gram matrix: structures are
//!   submitted incrementally, only new row/column blocks are solved,
//!   entries are cached by collision-hardened content key in an
//!   LRU-bounded [`PairCache`] (O(1) eviction), every pair is a cold PCG
//!   solve whose value depends on that pair alone, and a bounded pending
//!   queue applies backpressure to producers.
//! * **[`GramScheduler`]** — the service on a dedicated background thread:
//!   producers submit through a cheap [`GramClient`] over a bounded
//!   command channel (microsecond submissions, blocking
//!   backpressure), consumers follow a versioned [`SnapshotWatch`] whose
//!   epoch bumps once per completed flush — publication is lazy *and*
//!   O(1) (a captured source `Arc`-shares the triangle copy-on-write), so
//!   the O(n²) dense snapshot is built on the first observation of an
//!   epoch and never for unwatched ones — and
//!   [`join`](GramScheduler::join) drains gracefully while propagating
//!   solve panics.
//! * **[`KernelClient`]** — the request lane on the same scheduler thread:
//!   `request(pair)` returns a [`Ticket`] immediately and resolves it to a
//!   typed `KernelResult<T>` (f32 serving or f64 end-to-end). The
//!   precision is a value on the request, so one pipeline serves both. Duplicate in-flight requests coalesce onto one
//!   solve, already-solved pairs are answered from the [`PairCache`]
//!   without touching the solve lane, and expired or dropped tickets are
//!   skipped before their solve starts — tickets can never hang
//!   ([`RequestError::Closed`] on shutdown). The service solves with the
//!   solver it was given: a ticket carries a nodal vector only from a fresh
//!   solve by a solver that sets `compute_nodal`, never from the cache,
//!   which keeps values.
//! * **[`GramCluster`]** — the sharded serving plane: K schedulers behind
//!   a content-hash router. Structures route by their own content
//!   identity, request pairs by normalized [`PairKey`] (both orientations
//!   land on one shard, so coalescing and symmetric cache answers survive
//!   sharding) — through the scheduler's own [`GramClient`] and
//!   [`KernelClient`], holding K command lanes instead of one. Shards are
//!   born from the prototype's recipe, not a copy of its state; per-shard
//!   watches merge into a summed cluster epoch, per-shard registries into
//!   one scrape surface with `shard="k"` on every metric. `K = 1` behaves
//!   exactly like the plain scheduler.
//! * **Durability plane** — attach a per-service
//!   [`PairStore`](mgk_store::PairStore) via
//!   [`GramScheduler::spawn_durable`] (or
//!   [`GramCluster::spawn_durable`], one store directory per shard):
//!   every solved pair is appended to a checksummed write-ahead log off
//!   the solve path, epoch-boundary snapshots capture the Arc-shared
//!   triangle plus the full pair cache through the same O(1)
//!   copy-on-write capture, and a restart replays snapshot + WAL tail back
//!   into the [`PairCache`] so warm requests answer without re-solving.
//!   A torn final record (crash mid-append) is tolerated and counted;
//!   checksum mismatches and format-version skew refuse recovery with a
//!   typed [`StoreError`](mgk_store::StoreError).
//! * **Telemetry plane** — both lanes record into the service's
//!   [`RuntimeMetrics`] hub (an `mgk-telemetry` registry): stage-latency
//!   histograms for intake → queue wait → drain/group → preparation →
//!   solve → cache fold → publish, a queue-depth gauge, live
//!   bytes/flops traffic with a running arithmetic-intensity gauge, and
//!   every [`ServiceStats`] counter. Scrape it via
//!   [`GramScheduler::telemetry`]/[`GramCluster::telemetry`] and render
//!   with `TelemetrySnapshot::render_prometheus`/`render_json`; every
//!   answered `KernelResult` also carries a per-ticket `StageBreakdown`.
//!
//! ```
//! use mgk_runtime::{GramService, GramServiceConfig};
//! use mgk_core::{MarginalizedKernelSolver, SolverConfig};
//! use mgk_graph::Graph;
//!
//! let mut service = GramService::new(
//!     MarginalizedKernelSolver::unlabeled(SolverConfig::default()),
//!     GramServiceConfig::default(),
//! );
//! let path = Graph::from_edge_list(4, &[(0, 1), (1, 2), (2, 3)]);
//! let cycle = Graph::from_edge_list(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
//! service.submit(path).unwrap();
//! service.submit(cycle).unwrap();
//! let first = service.snapshot();
//! assert_eq!(first.num_graphs, 2);
//!
//! // extend the matrix: only the new row/column block is solved
//! let square = Graph::from_edge_list(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
//! service.submit(square).unwrap();
//! let second = service.snapshot();
//! assert_eq!(second.num_graphs, 3);
//! // existing entries are unchanged
//! assert_eq!(second.get(0, 1), first.get(0, 1));
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod cluster;
pub mod hash;
pub mod metrics;
pub mod persist;
pub mod scheduler;
pub mod service;
pub mod ticket;
pub mod watch;

pub use cache::{CachedEntry, PairCache, PairKey, PairSide, ReorderCache};
pub use cluster::{
    shard_of_key, shard_of_side, ClusterConfig, ClusterKernelClient, ClusterSnapshot,
    ClusterTelemetry, ClusterWatch, GramCluster,
};
pub use hash::{graph_content_hash, ContentHash, Fnv1a};
pub use metrics::RuntimeMetrics;
pub use persist::{DurabilityConfig, RecoveryReport};
pub use rayon::pool::Pool;
pub use scheduler::{
    BarrierReply, GramClient, GramScheduler, KernelClient, RequestScalar, SchedulerConfig,
    SchedulerError,
};
pub use service::{
    GramService, GramServiceConfig, GramServiceError, GramSnapshot, PreparedPair, ServiceStats,
    StructureId,
};
pub use ticket::{RequestError, Ticket};
pub use watch::{SnapshotWatch, VersionedSnapshot, WatchClosed};

/// Acquire `mutex` whether or not a previous holder panicked.
///
/// Sound for the watch slot and the ticket cell, the two protocols that
/// lock through here, because every critical section of theirs leaves its
/// state valid at each statement boundary: a holder that unwinds half-way
/// has published either all of a field or none of it, so the next holder
/// reads a consistent (if older) state — and a `Drop` that must wake
/// waiters can do so while its thread is already unwinding, where a second
/// panic would abort the process.
pub(crate) fn lock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reexport_is_the_global_pool() {
        // the runtime's pool layer IS the pool the rayon shim executes on
        let pool: &'static Pool = Pool::global();
        assert_eq!(pool.max_parallelism(), rayon::current_num_threads());
    }
}
