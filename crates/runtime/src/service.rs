//! The streaming Gram service: submit structures incrementally, read back a
//! growing Gram matrix.
//!
//! The batch [`GramEngine`](mgk_core::GramEngine) recomputes all
//! `N (N + 1) / 2` pairs from scratch on every call. For a long-lived
//! serving workload — new structures trickle in, the kernel matrix feeds a
//! downstream model after every extension — that is quadratic waste: all
//! previously computed entries are still valid. [`GramService`] keeps them:
//!
//! * **Incremental extension.** Admitting `M` new structures to an
//!   `N`-structure service schedules only the `M` new row/column blocks
//!   (`(N + M)(N + M + 1)/2 − N (N + 1)/2` pairs); existing entries are
//!   never touched.
//! * **Entry caching.** Pairs are keyed by structure *content hash*
//!   ([`graph_content_hash`]), so resubmitting a structure the service has
//!   seen turns its pairs into lookups in an LRU-bounded [`PairCache`].
//! * **Cold solves.** Every pair solve is the paper's preconditioned CG
//!   from zero, so a value depends on the prepared pair, its orientation
//!   and the precision — never on what the service solved before it. The
//!   solver runs as the caller configured it: a fresh solve carries a nodal
//!   vector only if it sets `compute_nodal`, and the cache keeps values
//!   alone.
//! * **Batched scheduling with backpressure.** Submissions queue up to
//!   [`GramServiceConfig::max_pending`]; past that, [`GramService::submit`]
//!   reports [`GramServiceError::Backpressure`] so producers can throttle.
//!   [`flush`](GramService::flush) pushes the new triangle block through
//!   the service's *wave* — the paper's queue of independent pair jobs
//!   launched together against shared state, and the runtime's one
//!   solve-and-fold loop: each pair **claims** its normalized [`PairKey`]
//!   (a key the wave already holds, or
//!   [`GramServiceConfig::batch_size`] cache-missed pairs, closes the wave
//!   first) and is **probed** in the pair cache; a closing wave **solves**
//!   its misses in one parallel region over the persistent worker pool,
//!   then **folds** them in arrival order and hands each outcome back to
//!   the lane that fed it. A wave has one payload type — whatever its lane
//!   wants back with the outcome — and carries every fresh solve at `f64`;
//!   what the consumer reads is decided at the sink (`flush` narrows the
//!   value into its `f32` triangle slot). The scheduler's request drain
//!   feeds the same wave with ticket groups instead of triangle slots, so
//!   batching and duplicate handling (a duplicate of a held key waits for
//!   that wave, then is a cache answer if the cache kept the entry and a
//!   solve of its own if not) are defined once.
//!
//! `flush` runs on the caller's thread; to decouple producers from solve
//! latency, hand the service to a
//! [`GramScheduler`](crate::scheduler::GramScheduler), which drains the
//! queue on a background thread and publishes versioned snapshots to a
//! [`SnapshotWatch`](crate::watch::SnapshotWatch).

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use rayon::prelude::*;

use mgk_core::{KernelResult, MarginalizedKernelSolver, PreparedGraph, SolverError};
use mgk_graph::Graph;
use mgk_kernels::BaseKernel;
use mgk_linalg::{Precision, Scalar};
use mgk_telemetry::{MetricsRegistry, Stopwatch};

use crate::cache::{CachedEntry, PairCache, PairKey, PairSide, ReorderCache};
use crate::hash::{graph_content_hash, ContentHash};
use crate::metrics::RuntimeMetrics;
use crate::persist::{
    entry_from_stored, entry_to_stored, side_to_stored, DurabilityConfig, RecoveryReport,
    ServiceStore,
};

/// Configuration of a [`GramService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GramServiceConfig {
    /// Normalize snapshots to unit self-similarity
    /// (`K̂_ij = K_ij / sqrt(K_ii K_jj)`). Raw entries are stored
    /// unnormalized so cached values stay valid as the matrix grows.
    pub normalize: bool,
    /// Maximum queued-but-unprocessed submissions before
    /// [`GramService::submit`] reports backpressure.
    pub max_pending: usize,
    /// Pair solves scheduled per parallel batch.
    pub batch_size: usize,
    /// Capacity of the pair-entry cache (entries, not bytes).
    pub cache_capacity: usize,
    /// Capacity of the reorder cache: prepared structures — the reordered
    /// graph, its Laplacian degrees and octile matrix, its content identity —
    /// retained per raw content identity, so a re-encountered structure
    /// skips reordering, tiling and hashing entirely, on batch admission
    /// and on the request lane alike. An entry lives as long as the cache
    /// (or a member, or an in-flight request) holds it; 0 disables the
    /// cache, and every encounter then prepares afresh.
    pub reorder_cache_capacity: usize,
}

impl Default for GramServiceConfig {
    fn default() -> Self {
        GramServiceConfig {
            normalize: true,
            max_pending: 1024,
            batch_size: 256,
            cache_capacity: 4096,
            reorder_cache_capacity: 512,
        }
    }
}

/// Index of an admitted structure; row/column of the structure in every
/// snapshot taken after its admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructureId(pub usize);

/// Errors reported by [`GramService::submit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GramServiceError {
    /// The pending queue is full; flush (or drop submissions) before
    /// retrying.
    Backpressure {
        /// Submissions currently queued.
        pending: usize,
        /// The configured queue bound.
        capacity: usize,
    },
    /// The submitted structure has no vertices.
    EmptyStructure,
}

impl std::fmt::Display for GramServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GramServiceError::Backpressure { pending, capacity } => {
                write!(f, "pending queue full ({pending}/{capacity}); flush before resubmitting")
            }
            GramServiceError::EmptyStructure => {
                write!(f, "cannot admit a structure with no vertices")
            }
        }
    }
}

impl std::error::Error for GramServiceError {}

/// Cumulative counters of one service instance.
///
/// Since the telemetry plane landed this is a *view*, not the store:
/// every field is read out of the service's [`RuntimeMetrics`] registry by
/// [`GramService::stats`], so scraping the registry and reading this
/// struct can never disagree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Structures admitted (pending ones not yet included).
    pub admitted: usize,
    /// Pair solves actually executed (cache hits excluded).
    pub jobs_executed: usize,
    /// Pair entries served from the cache instead of solved.
    pub cache_hits: usize,
    /// Total PCG iterations across executed solves.
    pub total_iterations: usize,
    /// Executed solves that failed to converge (entries left `NaN`).
    pub failures: usize,
    /// Parallel batches scheduled.
    pub batches: usize,
    /// Admitted structures whose content hash equals an earlier admitted
    /// structure's while vertex or edge counts differ — an observed 64-bit
    /// content-hash collision. The widened [`PairKey`] keeps such pairs
    /// from aliasing cache entries; this counter makes the event (and thus
    /// the residual risk of a collision with *equal* counts) monitorable.
    pub hash_collisions: usize,
    /// Copy-on-write clones of the `N(N+1)/2` triangle: a flush landed
    /// while a captured snapshot source still shared it. Capture itself
    /// is O(1) (an `Arc` clone), so this counts the only remaining O(n²)
    /// publication cost.
    pub triangle_copies: usize,
    /// Request-lane solves executed (per coalesced group, not per ticket).
    pub request_solves: usize,
    /// Requests answered straight from the [`PairCache`] without touching
    /// the solve lane.
    pub request_cache_answers: usize,
    /// Tickets that attached to an already-grouped in-flight request
    /// instead of scheduling their own solve (duplicates beyond each
    /// group's first).
    pub requests_coalesced: usize,
    /// Tickets resolved [`Expired`](crate::RequestError::Expired) because
    /// their deadline passed before the solve started — the sum of
    /// [`requests_expired_in_queue`](Self::requests_expired_in_queue) and
    /// [`requests_expired_pre_solve`](Self::requests_expired_pre_solve).
    pub requests_expired: usize,
    /// Tickets whose deadline had already passed when the scheduler
    /// drained them out of the command queue: the time died waiting in the
    /// channel, before any work was attempted.
    pub requests_expired_in_queue: usize,
    /// Tickets that were alive at drain but expired before their group's
    /// solve started, because earlier groups of the same drain were
    /// solving.
    pub requests_expired_pre_solve: usize,
    /// Tickets skipped because the consumer dropped them before the solve
    /// started.
    pub requests_cancelled: usize,
    /// Structures whose prepared form was served from the reorder cache
    /// instead of rebuilt — on batch admission or on the request lane.
    pub reorder_hits: usize,
    /// Structures whose preparation actually ran because no cached
    /// prepared form existed. A disabled cache counts in neither bucket.
    pub reorder_misses: usize,
    /// Records appended to the attached store's write-ahead log.
    pub store_appends: usize,
    /// Bytes appended to the attached store's write-ahead log.
    pub store_bytes: usize,
    /// `fsync` calls the attached store issued.
    pub store_fsyncs: usize,
    /// Entries replayed into the pair cache when a store was attached.
    pub store_replayed: usize,
    /// Torn final WAL records skipped (and truncated) at recovery.
    pub store_torn_tail: usize,
}

/// A materialized (dense, symmetric) view of the service's Gram matrix.
#[derive(Debug, Clone)]
pub struct GramSnapshot {
    /// Row-major `N × N` kernel matrix; entries of failed pairs are `NaN`.
    pub matrix: Vec<f32>,
    /// Number of admitted structures.
    pub num_graphs: usize,
}

impl GramSnapshot {
    /// Access entry `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.matrix[i * self.num_graphs + j]
    }
}

/// The raw ingredients of a [`GramSnapshot`]: the service's lower-triangle
/// values plus the normalization policy, captured *without* materializing
/// the dense matrix.
///
/// Capturing a source is O(1): the `N (N + 1) / 2` triangle is `Arc`-shared
/// with the service (copy-on-write — the service clones it only if a flush
/// mutates the triangle while a captured source still holds it, counted in
/// [`ServiceStats::triangle_copies`]); [`build`](Self::build) performs the
/// O(n²) materialization. The background scheduler publishes sources and
/// lets the snapshot watch build on first demand, so flushes that nobody
/// observes pay neither a copy nor a dense build.
#[derive(Debug, Clone)]
pub(crate) struct SnapshotSource {
    /// Lower-triangular raw kernel values, entry `(i, j)` with `j <= i` at
    /// `i (i + 1) / 2 + j`; shared copy-on-write with the service.
    triangle: Arc<Vec<f32>>,
    /// Number of admitted structures.
    num_graphs: usize,
    /// Normalize to unit self-similarity on build.
    normalize: bool,
}

impl SnapshotSource {
    /// A source materializing an already-built triangle: the store's
    /// recovered matrix in [`attach_store`](GramService::attach_store),
    /// and a watch's tests.
    pub(crate) fn from_triangle(triangle: Vec<f32>, num_graphs: usize, normalize: bool) -> Self {
        assert_eq!(
            triangle.len(),
            num_graphs * (num_graphs + 1) / 2,
            "triangle length must match num_graphs"
        );
        SnapshotSource { triangle: Arc::new(triangle), num_graphs, normalize }
    }

    /// Materialize the dense symmetric (optionally normalized) snapshot —
    /// the O(n²) step that lazy publication defers.
    pub fn build(&self) -> GramSnapshot {
        let n = self.num_graphs;
        let mut matrix = vec![f32::NAN; n * n];
        for i in 0..n {
            for j in 0..=i {
                let v = self.triangle[tri_index(i, j)];
                matrix[i * n + j] = v;
                matrix[j * n + i] = v;
            }
        }
        if self.normalize {
            let diag: Vec<f32> = (0..n).map(|i| matrix[i * n + i]).collect();
            for i in 0..n {
                for j in 0..n {
                    let d = (diag[i] * diag[j]).sqrt();
                    // a failed or degenerate diagonal poisons its whole
                    // row/column: mark those entries NaN rather than
                    // leaking raw-scale values into a normalized matrix
                    if d > 0.0 {
                        matrix[i * n + j] /= d;
                    } else {
                        matrix[i * n + j] = f32::NAN;
                    }
                }
            }
        }
        GramSnapshot { matrix, num_graphs: n }
    }
}

/// One structure as every lane of the service holds it: the prepared
/// graph (reordered, tiled) plus the collision-hardened content identity of
/// that prepared form, hashed once when the entry is built. `Arc`-shared
/// between the reorder cache, the admitted members and in-flight request
/// pairs, so meeting a structure again copies a pointer.
#[derive(Debug)]
struct PreparedStructure<V, E> {
    graph: PreparedGraph<V, E>,
    side: PairSide,
}

/// The streaming Gram service. See the module docs for the design.
///
/// Deliberately not `Clone`: its state (members, triangle, caches, the live
/// WAL handle, the registry its counters live in) belongs to one owner. A
/// cluster's further shards are built from the prototype's *recipe*
/// (solver, configuration, content hasher), not from a copy of its state.
#[derive(Debug)]
pub struct GramService<KV, KE, V, E> {
    /// The caller's solver, as given: prepares each structure once, solves
    /// every prepared pair.
    solver: MarginalizedKernelSolver<KV, KE>,
    config: GramServiceConfig,
    members: Vec<Arc<PreparedStructure<V, E>>>,
    /// Lower-triangular raw kernel values: entry `(i, j)` with `j <= i`
    /// lives at `i (i + 1) / 2 + j`. Appending structures appends rows —
    /// existing entries never move. `Arc`-shared with captured
    /// [`SnapshotSource`]s (copy-on-write: a flush that lands while a
    /// source still holds the triangle clones it first, counted in
    /// [`ServiceStats::triangle_copies`]).
    values: Arc<Vec<f32>>,
    /// Submitted structures, each with its raw content identity if the
    /// producer already hashed it (a cluster client routes by it); `flush`
    /// hashes the rest.
    pending: VecDeque<(Graph<V, E>, Option<PairSide>)>,
    cache: PairCache,
    /// Prepared structures keyed by the *raw* structure's content
    /// identity, shared across batch admission and the request lane. The
    /// stored `Arc` makes reuse allocation-free — no reordering, no tiling,
    /// no second hash — and, because none of that depends on the solve
    /// precision, one entry serves f32 and f64 solves alike.
    reorder: ReorderCache<Arc<PreparedStructure<V, E>>>,
    /// Content hasher for cache keys; replaceable via
    /// [`with_content_hasher`](GramService::with_content_hasher).
    hasher: fn(&Graph<V, E>) -> u64,
    /// Discriminators `(vertices, edges)` of the first admitted structure
    /// per content hash, used to observe hash collisions.
    seen_hashes: HashMap<u64, (u32, u32)>,
    /// Monotone snapshot version: bumped by every flush that admits at
    /// least one structure.
    version: u64,
    /// The attached durability plane, if any: WAL + snapshots under one
    /// store directory. `None` means a purely in-memory service (the
    /// default). Dropped (detached) on the first store I/O error — serving
    /// continues, durability stops.
    store: Option<ServiceStore>,
    /// The triangle recovered from the newest store snapshot, held until
    /// the scheduler publishes it as the initial epoch.
    recovered: Option<(u64, SnapshotSource)>,
    /// Telemetry hub: the one store behind [`ServiceStats`], the stage
    /// histograms and the live traffic gauges.
    metrics: RuntimeMetrics,
}

impl<KV, KE, V, E> GramService<KV, KE, V, E>
where
    V: Clone + Send + Sync + ContentHash,
    E: Copy + Default + Send + Sync + ContentHash,
    KV: BaseKernel<V> + Clone + Send + Sync,
    KE: BaseKernel<E> + Clone + Send + Sync,
{
    /// Create a service around a per-pair solver.
    ///
    /// The solver's reordering, stopping-probability and tiling settings
    /// are applied once per structure, when the service first meets it (the
    /// batch engine's amortization); its solve options govern every pair
    /// solve. A `max_pending` of 0 is treated as 1 — a queue that can
    /// never accept anything would make every submission path a silent
    /// no-op.
    pub fn new(solver: MarginalizedKernelSolver<KV, KE>, mut config: GramServiceConfig) -> Self {
        config.max_pending = config.max_pending.max(1);
        GramService {
            solver,
            cache: PairCache::new(config.cache_capacity),
            reorder: ReorderCache::new(config.reorder_cache_capacity),
            config,
            members: Vec::new(),
            values: Arc::new(Vec::new()),
            pending: VecDeque::new(),
            hasher: graph_content_hash,
            seen_hashes: HashMap::new(),
            version: 0,
            store: None,
            recovered: None,
            metrics: RuntimeMetrics::new(),
        }
    }

    /// An empty service built from this one's recipe — the same solver,
    /// (clamped) configuration and content hasher — and none of its state:
    /// no members, empty caches, no store, a registry of its own reading
    /// zero. What a [`GramCluster`](crate::GramCluster) gives its further
    /// shards (its module docs say why nothing is replicated).
    pub(crate) fn sibling(&self) -> Self {
        GramService::new(self.solver.clone(), self.config).with_content_hasher(self.hasher)
    }

    /// Replace the content hasher used for cache keys.
    ///
    /// The default is [`graph_content_hash`]; a replacement must be set
    /// before the first structure is admitted (keys of already-admitted
    /// structures are not rehashed). Primarily useful for callers that want
    /// a stronger hash — and for tests that force collisions to exercise
    /// the widened [`PairKey`] discriminators.
    pub fn with_content_hasher(mut self, hasher: fn(&Graph<V, E>) -> u64) -> Self {
        debug_assert!(self.members.is_empty(), "set the hasher before admitting structures");
        self.hasher = hasher;
        self
    }

    /// The service configuration.
    pub fn config(&self) -> &GramServiceConfig {
        &self.config
    }

    /// Number of admitted structures (the dimension of the next snapshot).
    pub fn num_structures(&self) -> usize {
        self.members.len()
    }

    /// Number of submitted-but-unprocessed structures.
    pub fn num_pending(&self) -> usize {
        self.pending.len()
    }

    /// Cumulative service counters, assembled from the telemetry registry
    /// (the registry is the store; this struct is the thin view).
    pub fn stats(&self) -> ServiceStats {
        let m = &self.metrics;
        let expired_in_queue = m.requests_expired_in_queue.value() as usize;
        let expired_pre_solve = m.requests_expired_pre_solve.value() as usize;
        ServiceStats {
            admitted: m.admitted.value() as usize,
            jobs_executed: m.jobs_executed.value() as usize,
            cache_hits: m.cache_hits.value() as usize,
            total_iterations: m.total_iterations.value() as usize,
            failures: m.failures.value() as usize,
            batches: m.batches.value() as usize,
            hash_collisions: m.hash_collisions.value() as usize,
            triangle_copies: m.triangle_copies.value() as usize,
            request_solves: m.request_solves.value() as usize,
            request_cache_answers: m.request_cache_answers.value() as usize,
            requests_coalesced: m.requests_coalesced.value() as usize,
            requests_expired: expired_in_queue + expired_pre_solve,
            requests_expired_in_queue: expired_in_queue,
            requests_expired_pre_solve: expired_pre_solve,
            requests_cancelled: m.requests_cancelled.value() as usize,
            reorder_hits: m.reorder_hits.value() as usize,
            reorder_misses: m.reorder_misses.value() as usize,
            store_appends: m.store_appends.value() as usize,
            store_bytes: m.store_bytes.value() as usize,
            store_fsyncs: m.store_fsyncs.value() as usize,
            store_replayed: m.store_replayed.value() as usize,
            store_torn_tail: m.store_torn_tail.value() as usize,
        }
    }

    /// The service's telemetry hub: typed handles every pipeline stage
    /// records into. The scheduler shares this hub (handles are
    /// `Arc`-backed) and registers its own activity into the same cells.
    pub fn metrics(&self) -> &RuntimeMetrics {
        &self.metrics
    }

    /// The registry behind [`metrics`](Self::metrics) — the pull/scrape
    /// surface ([`MetricsRegistry::snapshot`] → Prometheus or JSON
    /// rendering).
    pub fn telemetry(&self) -> Arc<MetricsRegistry> {
        self.metrics.registry()
    }

    /// Monotone snapshot version: bumped by every flush that admits at
    /// least one structure. The scheduler's watch epochs are exactly these
    /// versions.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Queue a structure for admission.
    ///
    /// Returns the [`StructureId`] (snapshot row) it will occupy once
    /// flushed. Fails with [`GramServiceError::Backpressure`] when the
    /// pending queue is at [`GramServiceConfig::max_pending`] — the caller
    /// decides whether to flush, retry later or shed load.
    pub fn submit(&mut self, structure: Graph<V, E>) -> Result<StructureId, GramServiceError> {
        self.submit_routed(structure, None)
    }

    /// [`submit`](Self::submit) for a caller that may already hold the
    /// structure's raw content identity — the scheduler, handed the one
    /// its routing client hashed.
    pub(crate) fn submit_routed(
        &mut self,
        structure: Graph<V, E>,
        side: Option<PairSide>,
    ) -> Result<StructureId, GramServiceError> {
        if structure.num_vertices() == 0 {
            return Err(GramServiceError::EmptyStructure);
        }
        if self.pending.len() >= self.config.max_pending {
            return Err(GramServiceError::Backpressure {
                pending: self.pending.len(),
                capacity: self.config.max_pending,
            });
        }
        let id = StructureId(self.members.len() + self.pending.len());
        self.pending.push_back((structure, side));
        Ok(id)
    }

    /// Submit every structure of an iterator, flushing whenever the queue
    /// fills (so backpressure throttles the producer instead of surfacing).
    /// Empty structures are skipped. Returns the ids assigned, in
    /// submission order.
    pub fn submit_all(
        &mut self,
        structures: impl IntoIterator<Item = Graph<V, E>>,
    ) -> Vec<StructureId> {
        let mut ids = Vec::new();
        for g in structures {
            if self.pending.len() >= self.config.max_pending {
                self.flush();
            }
            if let Ok(id) = self.submit(g) {
                ids.push(id);
            }
        }
        ids
    }

    /// Admit every pending structure and compute the new row/column blocks.
    ///
    /// Existing entries are not recomputed; new pairs are served from the
    /// content-hash cache where possible and otherwise scheduled in batches
    /// of [`GramServiceConfig::batch_size`] across the persistent worker
    /// pool. Returns the number of pair solves actually executed.
    pub fn flush(&mut self) -> usize {
        let first_new = self.members.len();
        if self.pending.is_empty() {
            return 0;
        }

        // admit: prepare each structure once. The reorder cache (keyed by
        // *raw* content identity, hashed here unless the producer routed by
        // it) is scanned first, so only structures the service has never
        // prepared pay for reordering, tiling and the prepared-form hash;
        // the parallel preparation runs over the misses alone.
        let (incoming, routed): (Vec<Graph<V, E>>, Vec<Option<PairSide>>) =
            self.pending.drain(..).unzip();
        let prepare_watch = Stopwatch::start();
        let keys: Vec<PairSide> = incoming
            .iter()
            .zip(routed)
            .map(|(g, side)| side.unwrap_or_else(|| PairSide::of(self.hasher, g)))
            .collect();
        let mut slots: Vec<Option<Arc<PreparedStructure<V, E>>>> =
            keys.iter().map(|&key| self.cached_structure(key)).collect();
        let missed: Vec<usize> = (0..slots.len()).filter(|&idx| slots[idx].is_none()).collect();
        let (solver, hasher) = (&self.solver, self.hasher);
        let freshly: Vec<(usize, Arc<PreparedStructure<V, E>>)> = missed
            .par_iter()
            .map(|&idx| (idx, Arc::new(prepare_structure(solver, hasher, &incoming[idx]))))
            .collect();
        for (idx, prepared) in freshly {
            self.reorder.insert(keys[idx], Arc::clone(&prepared));
            slots[idx] = Some(prepared);
        }
        // one preparation span per flush batch: scan + parallel preparation
        self.metrics.stage_prepare.record(prepare_watch.elapsed_ns());
        for member in slots.into_iter().flatten() {
            let PairSide { hash, vertices, edges } = member.side;
            match self.seen_hashes.get(&hash) {
                Some(&seen) if seen != (vertices, edges) => {
                    // same 64-bit content hash, structurally different
                    // graph: the widened PairKey keeps the entries apart,
                    // but the event is worth counting
                    self.metrics.hash_collisions.inc();
                }
                Some(_) => {}
                None => {
                    self.seen_hashes.insert(hash, (vertices, edges));
                }
            }
            self.members.push(member);
        }
        self.metrics.admitted.add((self.members.len() - first_new) as u64);
        self.version += 1;

        // the new lower-triangle block: rows [first_new, len), all j <= i,
        // fed through the wave with the triangle slot as payload. The flush
        // lane solves at the solver's precision and accepts any cached entry
        // (it stores f32 values).
        let new_len = self.members.len();
        // copy-on-write: captured snapshot sources share the triangle; a
        // flush that lands while one is alive clones it once, up front
        if Arc::strong_count(&self.values) > 1 {
            self.metrics.triangle_copies.inc();
        }
        Arc::make_mut(&mut self.values).resize(new_len * (new_len + 1) / 2, f32::NAN);
        let solve_at = self.solver.config().precision;
        let mut wave = Wave::new();
        let mut executed = 0;
        for i in first_new..new_len {
            for j in 0..=i {
                let pair = PreparedPair {
                    left: Arc::clone(&self.members[i]),
                    right: Arc::clone(&self.members[j]),
                    prepare_ns: 0,
                };
                let slot = tri_index(i, j);
                let landed = self.feed(&mut wave, pair, Precision::F32, solve_at, slot);
                executed += self.land(landed);
            }
        }
        let landed = self.close(&mut wave);
        executed += self.land(landed);

        // durability boundary of the admitting flush: epoch mark, fsync of
        // everything the waves appended, cadence snapshot when due
        self.persist_flush_boundary();
        executed
    }

    /// The flush lane's sink: narrow one closed wave's outcomes into their
    /// triangle slots and count them. A failed solve leaves its slot NaN
    /// (and uncached: a retry after resubmission gets a fresh chance to
    /// converge). Returns the solves the wave executed.
    fn land(&mut self, landed: Landed<V, E, usize>) -> usize {
        let mut executed = 0;
        for Claim { payload: slot, answer, .. } in landed {
            let value = match answer {
                Answer::Cached(entry) => {
                    self.metrics.cache_hits.inc();
                    Some(entry.value)
                }
                Answer::Fresh(result) => {
                    executed += 1;
                    self.metrics.jobs_executed.inc();
                    result.ok().map(|r| f32::from_f64(r.value))
                }
            };
            if let Some(value) = value {
                Arc::make_mut(&mut self.values)[slot] = value;
            }
        }
        if executed > 0 {
            self.metrics.batches.inc();
        }
        executed
    }

    /// Claim `pair` for `wave` and probe the pair cache for it. A key the
    /// wave already holds, or [`GramServiceConfig::batch_size`] cache-missed
    /// claims, closes the wave first — its outcomes are returned — so the
    /// probe sees what that wave folded. A cached entry must answer
    /// `wanted`; a miss is solved (and its entry tagged) at `solve_at`.
    pub(crate) fn feed<P: Send>(
        &mut self,
        wave: &mut Wave<V, E, P>,
        pair: PreparedPair<V, E>,
        wanted: Precision,
        solve_at: Precision,
        payload: P,
    ) -> Landed<V, E, P> {
        let key = pair.key();
        let landed = if wave.keys.contains(&key) || wave.misses >= self.config.batch_size.max(1) {
            self.close(wave)
        } else {
            Vec::new()
        };
        wave.keys.insert(key);
        let answer = self.probe(key, wanted).map_or(Answer::Fresh(()), Answer::Cached);
        wave.misses += usize::from(matches!(answer, Answer::Fresh(())));
        wave.claims.push(Claim { pair, precision: solve_at, payload, answer });
        landed
    }

    /// Close `wave` and start the next: the pure solves of its cache-missed
    /// claims fan out across the worker pool in one parallel region (the
    /// service is borrowed shared there); then the folds run in arrival
    /// order on the owning thread — the single-writer half — so the caches
    /// evolve exactly as a sequential loop would have left them. Returns
    /// every claim with its outcome, in arrival order, for the lane to
    /// deliver. Every fresh solve
    /// is carried at `f64` — whatever it ran at, a narrower result is the
    /// element-wise `from_f64` of this one, so the lane's sink narrows.
    pub(crate) fn close<P: Send>(&mut self, wave: &mut Wave<V, E, P>) -> Landed<V, E, P> {
        wave.keys.clear();
        wave.misses = 0;
        let service = &*self;
        let solved: Vec<_> = std::mem::take(&mut wave.claims)
            .into_par_iter()
            .map(|claim| claim.then(|pair, at, ()| service.solve_pair::<f64>(pair, at)))
            .collect();
        solved.into_iter().map(|claim| claim.then(|pair, at, s| self.fold(pair, s, at))).collect()
    }

    /// Cold solve of one prepared pair at `precision`, carried at `T`: the
    /// *pure* half of every solve, on both lanes and at every precision —
    /// the one place the service calls its solver. Writes nothing (`&self`),
    /// so a closing wave fans it out across the worker pool; the
    /// single-writer half is the fold
    /// ([`fold_request_solve`](Self::fold_request_solve) outside a wave).
    pub(crate) fn solve_pair<T: Scalar>(
        &self,
        pair: &PreparedPair<V, E>,
        precision: Precision,
    ) -> RequestSolve<T> {
        let solve_watch = Stopwatch::start();
        let result = self.solver.kernel_prepared(&pair.left.graph, &pair.right.graph, precision);
        RequestSolve { result, solve_ns: solve_watch.elapsed_ns() }
    }

    /// Everything a converged solve leaves behind, on either lane: the
    /// iteration and traffic counters and the pair-cache entry (persisted
    /// first). `precision` is the tag the cache entry is stored under.
    fn write_back<T: Scalar>(
        &mut self,
        pair: &PreparedPair<V, E>,
        r: &KernelResult<T>,
        precision: Precision,
    ) {
        self.metrics.total_iterations.add(r.iterations as u64);
        r.traffic.export_to(&self.metrics.traffic);
        let key = pair.key();
        let entry = CachedEntry {
            value: r.value.to_f32(),
            value_f64: r.value_f64,
            precision,
            relative_residual: r.relative_residual,
            iterations: r.iterations,
        };
        self.persist_pair(key, &entry);
        self.cache.insert(key, entry);
    }

    /// Materialize the current Gram matrix (flushing any pending
    /// submissions first).
    pub fn snapshot(&mut self) -> GramSnapshot {
        self.flush();
        self.snapshot_source().build()
    }

    /// Capture the ingredients of the current snapshot without building it
    /// — an O(1) `Arc` share of the triangle instead of the O(n²)
    /// materialization (the service clones the triangle lazily if a later
    /// flush mutates it while this source is still alive; see
    /// [`ServiceStats::triangle_copies`]). Pending submissions are *not*
    /// flushed; the scheduler captures a source right after its flush, and
    /// the watch materializes it on first demand.
    pub(crate) fn snapshot_source(&self) -> SnapshotSource {
        SnapshotSource {
            triangle: Arc::clone(&self.values),
            num_graphs: self.members.len(),
            normalize: self.config.normalize,
        }
    }

    /// Look a raw structure identity up in the reorder cache, counting the
    /// hit or miss (a disabled cache counts neither).
    fn cached_structure(&mut self, key: PairSide) -> Option<Arc<PreparedStructure<V, E>>> {
        let found = self.reorder.get(key).cloned();
        match found {
            Some(_) => self.metrics.reorder_hits.inc(),
            None if self.reorder.capacity() > 0 => self.metrics.reorder_misses.inc(),
            None => {}
        }
        found
    }

    /// Prepare a request pair for the request lane: fetch or build each
    /// side's prepared structure, *without* solving anything. The pair's
    /// key is what the [`PairCache`] answers by (duplicate in-flight
    /// requests coalesce earlier, on the raw structures' identities).
    /// Structures the service
    /// has already prepared — on a previous request or at batch admission —
    /// come back from the reorder cache as shared pointers
    /// ([`ServiceStats::reorder_hits`]): no reordering, no tiling, no
    /// second hash.
    pub fn prepare_pair(&mut self, left: &Graph<V, E>, right: &Graph<V, E>) -> PreparedPair<V, E> {
        let sides = (PairSide::of(self.hasher, left), PairSide::of(self.hasher, right));
        self.prepare_keyed(sides, left, right)
    }

    /// [`prepare_pair`](Self::prepare_pair) for a caller that already holds
    /// the raw content identity of each side — the scheduler's request
    /// drain, which groups the request by the identities its routing
    /// client hashed (or, on one lane, hashes them itself).
    pub(crate) fn prepare_keyed(
        &mut self,
        sides: (PairSide, PairSide),
        left: &Graph<V, E>,
        right: &Graph<V, E>,
    ) -> PreparedPair<V, E> {
        let watch = Stopwatch::start();
        let [left, right] = [(sides.0, left), (sides.1, right)].map(|(key, g)| {
            self.cached_structure(key).unwrap_or_else(|| {
                let prepared = Arc::new(prepare_structure(&self.solver, self.hasher, g));
                self.reorder.insert(key, Arc::clone(&prepared));
                prepared
            })
        });
        let prepare_ns = watch.elapsed_ns();
        self.metrics.stage_prepare.record(prepare_ns);
        PreparedPair { left, right, prepare_ns }
    }

    /// Answer a request straight from the [`PairCache`], if an entry of
    /// adequate precision exists — the request never touches the solve
    /// lane. Counted in [`ServiceStats::request_cache_answers`].
    pub fn cached_answer(&mut self, key: PairKey, wanted: Precision) -> Option<CachedEntry> {
        let entry = self.probe(key, wanted)?;
        self.metrics.request_cache_answers.inc();
        Some(entry)
    }

    /// The pair cache's entry for `key`, if it answers a request at
    /// `wanted`. Touches recency, so it runs on the owning thread.
    fn probe(&mut self, key: PairKey, wanted: Precision) -> Option<CachedEntry> {
        self.cache.get(key).filter(|entry| entry.answers(wanted)).cloned()
    }

    /// Cold solve of one prepared pair at the precision of the carrier —
    /// the pure half of a solve, as a closing wave runs it:
    /// `solve_prepared::<f32>` is the serving solve, `solve_prepared::<f64>`
    /// the oracle's.
    pub fn solve_prepared<T: Scalar>(&self, pair: &PreparedPair<V, E>) -> RequestSolve<T> {
        self.solve_pair(pair, T::PRECISION)
    }

    /// The *stateful* half of a request solve outside a wave:
    /// the fold every solve gets, counted in
    /// [`ServiceStats::request_solves`]. Must run on the thread that owns
    /// the service (the scheduler thread) — the caches and their recency
    /// bookkeeping are single-writer. `precision` is the one the solve ran
    /// at, the tag the cache entry is stored under: a [`Precision::F64`]
    /// entry answers later f32 and f64 requests.
    pub fn fold_request_solve<T: Scalar>(
        &mut self,
        pair: &PreparedPair<V, E>,
        solved: RequestSolve<T>,
        precision: Precision,
    ) -> Result<KernelResult<T>, SolverError> {
        let folded = self.fold(pair, solved, precision);
        if folded.is_ok() {
            self.metrics.request_solves.inc();
        }
        folded
    }

    /// The stateful half of every solve, on either lane: record the pair's
    /// `solve` stage, write a success back ([`write_back`](Self::write_back),
    /// timed as the pair's `cache_fold` stage, both stamped onto the
    /// result's `StageBreakdown`) or count the failure.
    fn fold<T: Scalar>(
        &mut self,
        pair: &PreparedPair<V, E>,
        solved: RequestSolve<T>,
        precision: Precision,
    ) -> Result<KernelResult<T>, SolverError> {
        self.metrics.stage_solve.record(solved.solve_ns);
        let mut r = solved.result.inspect_err(|_| self.metrics.failures.inc())?;
        let fold_watch = Stopwatch::start();
        self.write_back(pair, &r, precision);
        let fold_ns = fold_watch.elapsed_ns();
        self.metrics.stage_fold.record(fold_ns);
        r.stages.prepare_ns = pair.prepare_ns;
        r.stages.solve_ns = solved.solve_ns;
        r.stages.fold_ns = fold_ns;
        Ok(r)
    }

    /// The content hasher this service keys its caches by — the
    /// same pure function a cluster router must use so pair routing agrees
    /// with every shard's own identity computation (and stays stable
    /// across restarts).
    pub(crate) fn content_hasher(&self) -> fn(&Graph<V, E>) -> u64 {
        self.hasher
    }

    /// Attach a durability plane: open (or create) the store at
    /// `config.dir`, replay everything it recovered into the pair cache,
    /// resume the version counter from the recovered epoch, and persist
    /// every solve from here on.
    ///
    /// Call before handing the service to a scheduler (or use
    /// [`GramScheduler::spawn_durable`](crate::GramScheduler::spawn_durable),
    /// which does both). Replay folds the newest snapshot's entries first
    /// and the log tail after, so a tail record that re-solved a pair wins.
    /// A torn final log record — the signature of a crash mid-append — is
    /// skipped and counted ([`ServiceStats::store_torn_tail`]); checksum
    /// corruption and format-version skew are refused with the typed
    /// [`StoreError`](mgk_store::StoreError).
    pub fn attach_store(
        &mut self,
        config: DurabilityConfig,
    ) -> Result<RecoveryReport, mgk_store::StoreError> {
        let (store, recovery) = mgk_store::PairStore::open(&config.dir, config.fsync)?;
        // EveryFlush boundaries group-commit on a dedicated sync thread;
        // the synchronous policies (EveryRecord, Off) need no helper
        let syncer = match config.fsync {
            mgk_store::FsyncPolicy::EveryFlush => {
                Some(crate::persist::WalSyncer::spawn(store.sync_handle()?)?)
            }
            _ => None,
        };
        let mut replayed = 0usize;
        for stored in recovery.all_entries() {
            let (key, entry) = entry_from_stored(stored);
            self.cache.insert(key, entry);
            replayed += 1;
        }
        self.metrics.store_replayed.add(replayed as u64);
        if recovery.torn_tail {
            self.metrics.store_torn_tail.inc();
        }
        // resume the epoch counter monotonically: the next admitting flush
        // publishes strictly after everything a previous life published
        self.version = self.version.max(recovery.epoch);
        let snapshot_graphs = recovery.snapshot.as_ref().map_or(0, |s| s.num_graphs());
        if let Some(snap) = recovery.snapshot.as_ref().filter(|s| s.num_graphs() > 0) {
            // the recovered triangle is published read-only at the
            // snapshot's own epoch; members are not persisted (labels are
            // generic), so re-submitting the corpus rebuilds the live
            // matrix through cache hits
            self.recovered = Some((
                snap.epoch,
                SnapshotSource::from_triangle(
                    snap.triangle.clone(),
                    snap.num_graphs(),
                    self.config.normalize,
                ),
            ));
        }
        self.store = Some(ServiceStore {
            store,
            syncer,
            unsynced: false,
            snapshot_every: config.snapshot_every,
            flushes_since_snapshot: 0,
        });
        Ok(RecoveryReport {
            epoch: recovery.epoch,
            replayed,
            snapshot_graphs,
            torn_tail: recovery.torn_tail,
        })
    }

    /// Whether a store is currently attached (false after an I/O error
    /// detached it).
    pub fn store_attached(&self) -> bool {
        self.store.is_some()
    }

    /// The attached store's directory, if any.
    pub fn store_dir(&self) -> Option<&std::path::Path> {
        self.store.as_ref().map(|s| s.store.dir())
    }

    /// The triangle recovered from the newest store snapshot, handed to
    /// the scheduler exactly once for publication as the initial epoch.
    pub(crate) fn take_recovered_source(&mut self) -> Option<(u64, SnapshotSource)> {
        self.recovered.take()
    }

    /// Append one solved pair to the WAL (no-op without a store). A store
    /// I/O error detaches the store — serving continues, durability stops —
    /// rather than poisoning the solve path.
    fn persist_pair(&mut self, key: PairKey, entry: &CachedEntry) {
        let Some(service_store) = self.store.as_mut() else { return };
        service_store.unsynced = true;
        let stored = entry_to_stored(&key, entry);
        match service_store.store.append_pair(&stored) {
            Ok(appended) => {
                self.metrics.store_appends.inc();
                self.metrics.store_bytes.add(appended.bytes);
                if appended.synced {
                    self.metrics.store_fsyncs.inc();
                }
            }
            Err(_) => {
                self.store = None;
            }
        }
    }

    /// The durability boundary of an admitting flush: append the epoch
    /// mark, sync everything the waves appended (under the `EveryFlush`
    /// policy), and capture a cadence snapshot when due —
    /// all off the solve path, timed into the `persist` stage histogram.
    fn persist_flush_boundary(&mut self) {
        let Some(mut s) = self.store.take() else { return };
        let watch = Stopwatch::start();
        s.flushes_since_snapshot += 1;
        let snapshot_due = s.snapshot_every > 0 && s.flushes_since_snapshot >= s.snapshot_every;
        let epoch = self.version;
        let result = (|| -> Result<(u64, u64), mgk_store::StoreError> {
            s.unsynced = true;
            let appended = s.store.mark_epoch(epoch)?;
            let fsyncs = u64::from(appended.synced) + u64::from(s.sync_boundary()?);
            if snapshot_due {
                s.store.write_snapshot(&self.capture_store_snapshot())?;
                s.flushes_since_snapshot = 0;
            }
            Ok((appended.bytes, fsyncs))
        })();
        match result {
            Ok((bytes, fsyncs)) => {
                self.metrics.store_appends.inc();
                self.metrics.store_bytes.add(bytes);
                self.metrics.store_fsyncs.add(fsyncs);
                self.store = Some(s);
            }
            Err(_) => {
                // degrade: the store stays detached, serving continues
            }
        }
        self.metrics.stage_persist.record(watch.elapsed_ns());
    }

    /// The durability boundary of a request drain: sync whatever the
    /// request-lane folds appended since the last boundary, if anything —
    /// scheduled on the group-commit thread under `EveryFlush`, so the
    /// ticket already resolved and the next drain's solves overlap the
    /// sync's I/O wait.
    pub(crate) fn persist_request_boundary(&mut self) {
        let Some(s) = self.store.as_mut() else { return };
        let watch = Stopwatch::start();
        match s.sync_boundary() {
            Ok(true) => {
                self.metrics.store_fsyncs.inc();
                self.metrics.stage_persist.record(watch.elapsed_ns());
            }
            Ok(false) => {}
            Err(_) => self.store = None,
        }
    }

    /// Graceful-shutdown snapshot: capture the full serving state so the
    /// next life replays a snapshot instead of a long log tail.
    pub(crate) fn persist_final_snapshot(&mut self) {
        let Some(mut s) = self.store.take() else { return };
        let watch = Stopwatch::start();
        let snapshot = self.capture_store_snapshot();
        if s.store.write_snapshot(&snapshot).is_ok() {
            s.flushes_since_snapshot = 0;
            self.store = Some(s);
        }
        self.metrics.stage_persist.record(watch.elapsed_ns());
    }

    /// The current serving state as a store snapshot: epoch, member
    /// identities, the raw triangle, and every live cache entry. Cache
    /// entries are captured because request-lane solves never enter the
    /// triangle — without them, truncating the log after a snapshot would
    /// silently forget every answered request.
    fn capture_store_snapshot(&self) -> mgk_store::StoreSnapshot {
        mgk_store::StoreSnapshot {
            epoch: self.version,
            sides: self.members.iter().map(|m| side_to_stored(&m.side)).collect(),
            triangle: self.values.as_ref().clone(),
            entries: self.cache.iter().map(|(k, e)| entry_to_stored(k, e)).collect(),
        }
    }
}

/// The raw outcome of the pure half of a solve
/// ([`GramService::solve_prepared`]), before its stateful fold. Opaque by
/// design: worker threads produce it, the owning thread consumes it.
#[derive(Debug)]
pub struct RequestSolve<T: Scalar> {
    result: Result<KernelResult<T>, SolverError>,
    solve_ns: u64,
}

/// Where a claim's answer comes from: the pair cache, or a fresh solve —
/// `()` while it is pending, the [`RequestSolve`] once it ran, its result
/// (an [`Outcome`]) once it is folded.
pub(crate) enum Answer<R> {
    Cached(CachedEntry),
    Fresh(R),
}

/// What a closed wave hands back for one claim.
pub(crate) type Outcome = Answer<Result<KernelResult<f64>, SolverError>>;

/// One pair claimed by a wave: prepared, with the precision a miss is
/// solved at, the feeding lane's payload, and its answer so far.
pub(crate) struct Claim<V, E, P, A> {
    pub(crate) pair: PreparedPair<V, E>,
    pub(crate) precision: Precision,
    pub(crate) payload: P,
    pub(crate) answer: A,
}

impl<V, E, P, R> Claim<V, E, P, Answer<R>> {
    /// The claim with a fresh answer advanced by `step`.
    fn then<B>(
        self,
        step: impl FnOnce(&PreparedPair<V, E>, Precision, R) -> B,
    ) -> Claim<V, E, P, Answer<B>> {
        let answer = match self.answer {
            Answer::Cached(entry) => Answer::Cached(entry),
            Answer::Fresh(fresh) => Answer::Fresh(step(&self.pair, self.precision, fresh)),
        };
        Claim { pair: self.pair, precision: self.precision, payload: self.payload, answer }
    }
}

/// A closed wave's claims with their outcomes, in arrival order.
pub(crate) type Landed<V, E, P> = Vec<Claim<V, E, P, Outcome>>;

/// The pairs solving together next: the claims of the open wave in arrival
/// order, the normalized identities they hold, and how many of them missed
/// the cache. Lives for one flush or one request drain; see
/// [`GramService::feed`] and [`GramService::close`].
pub(crate) struct Wave<V, E, P> {
    claims: Vec<Claim<V, E, P, Answer<()>>>,
    keys: HashSet<PairKey>,
    misses: usize,
}

impl<V, E, P> Wave<V, E, P> {
    pub(crate) fn new() -> Self {
        Wave { claims: Vec::new(), keys: HashSet::new(), misses: 0 }
    }
}

/// Build the prepared structure of one raw graph: everything the solver
/// prepares once per structure, plus the content identity of the prepared
/// form (what [`PairKey`]s are made of).
fn prepare_structure<KV, KE, V, E>(
    solver: &MarginalizedKernelSolver<KV, KE>,
    hasher: fn(&Graph<V, E>) -> u64,
    g: &Graph<V, E>,
) -> PreparedStructure<V, E>
where
    V: Clone,
    E: Copy + Default,
{
    let graph = solver.prepare_graph(g);
    let side = PairSide::of(hasher, graph.graph());
    PreparedStructure { graph, side }
}

/// A request pair after per-structure preparation: the coalescing/caching
/// unit of the request lane, two shared pointers into the reorder cache's
/// entries.
#[derive(Debug)]
pub struct PreparedPair<V, E> {
    left: Arc<PreparedStructure<V, E>>,
    right: Arc<PreparedStructure<V, E>>,
    /// Wall-clock of the preparation that produced this pair, stamped onto
    /// the `StageBreakdown` of every result answered for it.
    prepare_ns: u64,
}

impl<V, E> PreparedPair<V, E> {
    /// The order-normalized, collision-hardened identity of the pair.
    pub fn key(&self) -> PairKey {
        PairKey::new(self.left.side, self.right.side)
    }

    /// Nanoseconds the per-structure preparation of this pair took (next to
    /// nothing when both sides came straight from the reorder cache — the
    /// cached pointers cost a lookup each).
    pub fn prepare_ns(&self) -> u64 {
        self.prepare_ns
    }
}

/// Index of entry `(i, j)`, `j <= i`, in the growing lower triangle.
fn tri_index(i: usize, j: usize) -> usize {
    debug_assert!(j <= i);
    i * (i + 1) / 2 + j
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgk_core::{GramConfig, GramEngine, SolverConfig};
    use mgk_graph::generators;
    use mgk_reorder::ReorderMethod;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset(n: usize, seed: u64) -> Vec<Graph> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|k| {
                if k % 2 == 0 {
                    generators::newman_watts_strogatz(12 + k % 5, 2, 0.2, &mut rng)
                } else {
                    generators::barabasi_albert(10 + k % 4, 2, &mut rng)
                }
            })
            .collect()
    }

    type UnlabeledService = GramService<
        mgk_kernels::UnitKernel,
        mgk_kernels::UnitKernel,
        mgk_graph::Unlabeled,
        mgk_graph::Unlabeled,
    >;

    fn service(config: GramServiceConfig) -> UnlabeledService {
        GramService::new(MarginalizedKernelSolver::unlabeled(SolverConfig::default()), config)
    }

    /// One request solved outside a wave, as the benchmark's oracle does
    /// it: the pure solve at `T`'s precision, then its fold.
    fn solve_request<T: Scalar>(
        svc: &mut UnlabeledService,
        pair: &PreparedPair<mgk_graph::Unlabeled, mgk_graph::Unlabeled>,
    ) -> Result<KernelResult<T>, SolverError> {
        let solved = svc.solve_prepared::<T>(pair);
        svc.fold_request_solve(pair, solved, T::PRECISION)
    }

    #[test]
    fn incremental_extension_matches_fresh_batch_computation() {
        let graphs = dataset(10, 3);
        let (first, second) = graphs.split_at(6);

        let mut svc = service(GramServiceConfig::default());
        for g in first {
            svc.submit(g.clone()).unwrap();
        }
        let executed_first = svc.flush();
        assert_eq!(executed_first, 6 * 7 / 2);
        let jobs_after_first = svc.stats().jobs_executed;

        for g in second {
            svc.submit(g.clone()).unwrap();
        }
        let snapshot = svc.snapshot();

        // only the new row/column blocks were computed
        let total_pairs = 10 * 11 / 2;
        assert_eq!(svc.stats().jobs_executed, total_pairs);
        assert_eq!(svc.stats().jobs_executed - jobs_after_first, total_pairs - 6 * 7 / 2);

        // and the result agrees with a from-scratch batch computation
        let engine = GramEngine::new(
            MarginalizedKernelSolver::unlabeled(SolverConfig::default()),
            GramConfig::default(),
        );
        let batch = engine.compute(&graphs);
        assert_eq!(snapshot.num_graphs, batch.num_graphs);
        for i in 0..10 {
            for j in 0..10 {
                let (a, b) = (snapshot.get(i, j), batch.get(i, j));
                assert!((a - b).abs() < 1e-4, "entry ({i},{j}): incremental {a} vs batch {b}");
            }
        }
    }

    #[test]
    fn resubmitted_structures_are_served_from_the_cache() {
        let graphs = dataset(4, 7);
        let mut svc = service(GramServiceConfig::default());
        for g in &graphs {
            svc.submit(g.clone()).unwrap();
        }
        svc.flush();
        let solved = svc.stats().jobs_executed;
        assert_eq!(solved, 4 * 5 / 2);

        // resubmit two structures verbatim: every new pair is content-equal
        // to an already-cached one, so no job runs
        svc.submit(graphs[0].clone()).unwrap();
        svc.submit(graphs[2].clone()).unwrap();
        let executed = svc.flush();
        assert_eq!(executed, 0, "cached entries must not be recomputed");
        assert_eq!(svc.stats().jobs_executed, solved);
        // rows 4 and 5 add 5 + 6 content-cached pairs
        assert!(svc.stats().cache_hits >= 11);

        // the duplicate row mirrors the original in the snapshot
        let snap = svc.snapshot();
        assert_eq!(snap.num_graphs, 6);
        for j in 0..6 {
            if j == 0 || j == 4 {
                continue; // self-similarity columns normalize to 1 anyway
            }
            let (orig, dup) = (snap.get(0, j), snap.get(4, j));
            assert!((orig - dup).abs() < 1e-6, "row 4 should mirror row 0 at column {j}");
        }
    }

    #[test]
    fn backpressure_bounds_the_pending_queue() {
        let graphs = dataset(3, 11);
        let mut svc = service(GramServiceConfig { max_pending: 2, ..Default::default() });
        svc.submit(graphs[0].clone()).unwrap();
        svc.submit(graphs[1].clone()).unwrap();
        match svc.submit(graphs[2].clone()) {
            Err(GramServiceError::Backpressure { pending: 2, capacity: 2 }) => {}
            other => panic!("expected backpressure, got {other:?}"),
        }
        svc.flush();
        svc.submit(graphs[2].clone()).unwrap();
        assert_eq!(svc.num_pending(), 1);
    }

    #[test]
    fn empty_structures_are_rejected() {
        let mut svc = service(GramServiceConfig::default());
        let empty: Graph = Graph::from_edge_list(0, &[]);
        assert_eq!(svc.submit(empty), Err(GramServiceError::EmptyStructure));
    }

    #[test]
    fn snapshot_is_symmetric_normalized_and_psd_like() {
        let graphs = dataset(5, 19);
        let mut svc = service(GramServiceConfig::default());
        for g in &graphs {
            svc.submit(g.clone()).unwrap();
        }
        let snap = svc.snapshot();
        assert_eq!(snap.num_graphs, 5);
        for i in 0..5 {
            assert!((snap.get(i, i) - 1.0).abs() < 1e-5);
            for j in 0..5 {
                assert_eq!(snap.get(i, j), snap.get(j, i));
                assert!(snap.get(i, j) > 0.0 && snap.get(i, j) <= 1.0 + 1e-5);
            }
        }
    }

    #[test]
    fn duplicates_within_one_flush_are_solved_once() {
        let graphs = dataset(3, 53);
        let mut svc = service(GramServiceConfig::default());
        // submit each structure twice before the first flush: every
        // content-duplicate pair must resolve from the representative's
        // cache entry, not a second solve
        for g in graphs.iter().chain(graphs.iter()) {
            svc.submit(g.clone()).unwrap();
        }
        let executed = svc.flush();
        assert_eq!(executed, 3 * 4 / 2, "only unique content pairs are solved");
        let snap = svc.snapshot();
        assert_eq!(snap.num_graphs, 6);
        assert!(snap.matrix.iter().all(|v| v.is_finite()));
        // rows of a duplicate mirror the original
        for j in 0..6 {
            assert!((snap.get(1, j) - snap.get(4, j)).abs() < 1e-6, "column {j}");
        }
    }

    #[test]
    fn duplicates_within_one_flush_survive_a_small_cache() {
        let graphs = dataset(3, 53);
        let flush_twice_submitted = |cache_capacity: usize| {
            let mut svc = service(GramServiceConfig { cache_capacity, ..Default::default() });
            for g in graphs.iter().chain(graphs.iter()) {
                svc.submit(g.clone()).unwrap();
            }
            let executed = svc.flush();
            (svc, executed)
        };
        // the bits of a fresh solve of members (i, j), in that orientation
        let cold = |svc: &UnlabeledService, i: usize, j: usize| {
            let (left, right) = (&svc.members[i].graph, &svc.members[j].graph);
            let at = svc.solver.config().precision;
            svc.solver.kernel_prepared::<f32, _, _>(left, right, at).unwrap().value.to_bits()
        };
        let slots = || (0..6).flat_map(|i| (0..=i).map(move |j| (i, j)));

        // member k + 3 duplicates member k: the first three rows solve every
        // unique pair once, the higher member on the left, and each
        // duplicate slot is a cache answer with that representative's bits
        let (reference, executed) =
            flush_twice_submitted(GramServiceConfig::default().cache_capacity);
        assert_eq!(executed, 3 * 4 / 2);
        for (i, j) in slots() {
            let (a, b) = (i % 3, j % 3);
            let got = reference.values[tri_index(i, j)].to_bits();
            assert_eq!(got, cold(&reference, a.max(b), a.min(b)), "slot ({i},{j})");
        }
        // a cache too small to hold the flush's unique pairs cannot serve
        // every duplicate: the ones whose probe misses are solved in their
        // own orientation, never left NaN. Without a cache that is every
        // slot, so each carries its own orientation's bits. With a small
        // one a slot may instead be answered by an entry that a mirrored
        // re-solve wrote — slots (3,1), (3,2) and (4,2) solve their pair the
        // other way round — so it carries one of the two orientations' bits
        for cache_capacity in [0, 2, 4] {
            let (svc, executed) = flush_twice_submitted(cache_capacity);
            assert_eq!(svc.stats().failures, 0);
            assert!(executed > 3 * 4 / 2, "capacity {cache_capacity} must re-solve duplicates");
            if cache_capacity == 0 {
                assert_eq!(executed, 6 * 7 / 2, "without a cache every slot is solved");
            }
            for (i, j) in slots() {
                let got = svc.values[tri_index(i, j)].to_bits();
                let (own, mirrored) = (cold(&svc, i, j), cold(&svc, j, i));
                assert!(
                    got == own || (cache_capacity > 0 && got == mirrored),
                    "cache_capacity {cache_capacity}, slot ({i},{j}): {got:#x} vs {own:#x}"
                );
            }
        }
    }

    #[test]
    fn zero_max_pending_is_clamped_to_one() {
        let graphs = dataset(1, 59);
        let mut svc = service(GramServiceConfig { max_pending: 0, ..Default::default() });
        svc.submit(graphs[0].clone()).expect("a zero queue bound must not reject everything");
        assert_eq!(svc.snapshot().num_graphs, 1);
        let ids = svc.submit_all(graphs.clone());
        assert_eq!(ids.len(), 1, "submit_all must not silently drop structures");
    }

    #[test]
    fn failed_solves_leave_nan_entries_not_raw_values() {
        let graphs = dataset(3, 67);
        // a 1-iteration budget at an unreachable tolerance: every solve fails
        let solver = MarginalizedKernelSolver::unlabeled(SolverConfig {
            solve: mgk_linalg::SolveOptions { max_iterations: 1, tolerance: 1e-30 },
            ..SolverConfig::default()
        });
        let mut svc = GramService::new(solver, GramServiceConfig::default());
        for g in &graphs {
            svc.submit(g.clone()).unwrap();
        }
        let snap = svc.snapshot();
        assert_eq!(svc.stats().failures, 3 * 4 / 2);
        assert!(
            snap.matrix.iter().all(|v| v.is_nan()),
            "failed entries must be NaN-marked, never raw-scale values"
        );
    }

    #[test]
    fn cache_capacity_bounds_memory() {
        let graphs = dataset(6, 31);
        let mut svc = service(GramServiceConfig { cache_capacity: 5, ..Default::default() });
        for g in &graphs {
            svc.submit(g.clone()).unwrap();
        }
        svc.flush();
        assert!(svc.cache.len() <= 5);
    }

    #[test]
    fn forced_hash_collision_cannot_serve_a_wrong_kernel_value() {
        // every structure hashes to the same 64-bit value: before the
        // PairKey widening, the second distinct graph's pairs would be
        // served from the first one's cache entries
        let collide: fn(&Graph) -> u64 = |_| 0xDEAD_BEEF;
        let path = Graph::from_edge_list(4, &[(0, 1), (1, 2), (2, 3)]);
        let cycle = Graph::from_edge_list(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);

        let mut svc = service(GramServiceConfig::default()).with_content_hasher(collide);
        svc.submit(path.clone()).unwrap();
        svc.submit(cycle.clone()).unwrap();
        let snap = svc.snapshot();

        // the collision was observed …
        assert!(svc.stats().hash_collisions >= 1, "collision went unobserved");
        // … and despite it, all three distinct pairs were solved, none
        // aliased to another's cache entry
        assert_eq!(svc.stats().jobs_executed, 3);
        assert_eq!(svc.stats().cache_hits, 0);

        // values agree with an un-collided reference service
        let mut reference = service(GramServiceConfig::default());
        reference.submit(path).unwrap();
        reference.submit(cycle).unwrap();
        let expected = reference.snapshot();
        for i in 0..2 {
            for j in 0..2 {
                let (a, b) = (snap.get(i, j), expected.get(i, j));
                assert!((a - b).abs() < 1e-5, "entry ({i},{j}): collided {a} vs reference {b}");
            }
        }
        assert!(
            (snap.get(0, 1) - 1.0).abs() > 1e-3,
            "off-diagonal must not alias the self-similarity entry"
        );
    }

    #[test]
    fn version_bumps_once_per_admitting_flush() {
        let graphs = dataset(4, 71);
        let mut svc = service(GramServiceConfig::default());
        assert_eq!(svc.version(), 0);
        svc.flush();
        assert_eq!(svc.version(), 0, "an empty flush must not bump the version");
        svc.submit(graphs[0].clone()).unwrap();
        svc.submit(graphs[1].clone()).unwrap();
        svc.flush();
        assert_eq!(svc.version(), 1);
        svc.flush();
        assert_eq!(svc.version(), 1);
        svc.submit(graphs[2].clone()).unwrap();
        svc.snapshot();
        assert_eq!(svc.version(), 2);
    }

    #[test]
    fn snapshot_capture_is_arc_shared_and_copies_only_under_contention() {
        let graphs = dataset(5, 301);
        let mut svc = service(GramServiceConfig::default());
        for g in &graphs[..3] {
            svc.submit(g.clone()).unwrap();
        }
        svc.flush();
        assert_eq!(svc.stats().triangle_copies, 0, "an unshared triangle mutates in place");

        // capture keeps the triangle alive; the next flush must clone once
        let held = svc.snapshot_source();
        svc.submit(graphs[3].clone()).unwrap();
        svc.flush();
        assert_eq!(svc.stats().triangle_copies, 1, "a flush under a live capture clones once");
        // the held source still builds the snapshot it captured
        assert_eq!(held.build().num_graphs, 3);
        drop(held);

        svc.submit(graphs[4].clone()).unwrap();
        svc.flush();
        assert_eq!(svc.stats().triangle_copies, 1, "no capture alive, no copy");
    }

    #[test]
    fn service_requests_solve_cache_and_gate_precision() {
        let graphs = dataset(2, 311);
        let config = SolverConfig { compute_nodal: true, ..SolverConfig::default() };
        let solver = MarginalizedKernelSolver::unlabeled(config);
        let mut svc = GramService::new(solver, GramServiceConfig::default());
        let pair = svc.prepare_pair(&graphs[0], &graphs[1]);
        assert!(svc.cached_answer(pair.key(), Precision::F32).is_none(), "cold cache");

        let narrow: KernelResult<f32> = solve_request::<f32>(&mut svc, &pair).unwrap();
        assert!(narrow.converged);
        assert!(narrow.nodal.is_some(), "request solves retain nodal vectors");
        assert_eq!(svc.stats().request_solves, 1);

        // the pair is now cache-answerable for f32 …
        let entry = svc.cached_answer(pair.key(), Precision::F32).expect("f32 answer");
        assert_eq!(entry.value, narrow.value);
        assert_eq!(svc.stats().request_cache_answers, 1);
        // … but an f32-solved entry must not answer an f64 request
        assert!(svc.cached_answer(pair.key(), Precision::F64).is_none());

        let wide: KernelResult<f64> = solve_request::<f64>(&mut svc, &pair).unwrap();
        assert!(wide.nodal.is_some());
        assert!((wide.value - narrow.value_f64).abs() <= 1e-4 * wide.value.abs());
        // the f64 solve upgraded the cache entry: both precisions answer now
        assert!(svc.cached_answer(pair.key(), Precision::F64).is_some());
        assert!(svc.cached_answer(pair.key(), Precision::F32).is_some());
    }

    #[test]
    fn request_solves_feed_the_flush_lane_cache() {
        let graphs = dataset(2, 317);
        let mut svc = service(GramServiceConfig::default());
        // answer a request first …
        let pair = svc.prepare_pair(&graphs[0], &graphs[1]);
        solve_request::<f32>(&mut svc, &pair).unwrap();
        let self_left = svc.prepare_pair(&graphs[0], &graphs[0]);
        solve_request::<f32>(&mut svc, &self_left).unwrap();

        // … then admit the same structures: the (0,1) and (0,0) entries
        // come from the request lane's cache entries, not fresh solves
        svc.submit(graphs[0].clone()).unwrap();
        svc.submit(graphs[1].clone()).unwrap();
        svc.flush();
        assert!(svc.stats().cache_hits >= 2, "flush must reuse request-lane entries");
        assert_eq!(svc.stats().jobs_executed, 1, "only the (1,1) self-pair is new");
    }

    #[test]
    fn a_sibling_shares_the_recipe_and_none_of_the_state() {
        let marker: fn(&Graph) -> u64 = |g| graph_content_hash(g) ^ 1;
        let dir = mgk_store::TempDir::new("service-sibling").unwrap();
        let graphs = dataset(3, 331);
        let config = GramServiceConfig { max_pending: 0, batch_size: 7, ..Default::default() };
        let mut svc = service(config).with_content_hasher(marker);
        svc.attach_store(DurabilityConfig::new(dir.path())).unwrap();
        svc.submit_all(graphs[..2].iter().cloned());
        svc.flush();
        let pair = svc.prepare_pair(&graphs[0], &graphs[2]);
        solve_request::<f32>(&mut svc, &pair).unwrap();
        assert!(svc.num_structures() > 0 && !svc.cache.is_empty());

        let sibling = svc.sibling();
        assert_eq!(sibling.config(), svc.config(), "the clamped configuration");
        assert_eq!(sibling.solver.config(), svc.solver.config());
        let hashed = sibling.content_hasher()(&graphs[0]);
        assert_eq!(hashed, marker(&graphs[0]), "the prototype's hasher, not the default");
        assert_ne!(hashed, graph_content_hash(&graphs[0]));
        assert_eq!((sibling.num_structures(), sibling.num_pending(), sibling.version()), (0, 0, 0));
        assert_eq!((sibling.cache.len(), sibling.reorder.len()), (0, 0));
        assert!(!sibling.store_attached());
        assert!(!Arc::ptr_eq(&sibling.telemetry(), &svc.telemetry()));
        assert_eq!(sibling.stats(), ServiceStats::default());
    }

    #[test]
    fn batched_scheduling_covers_all_jobs() {
        let graphs = dataset(7, 43);
        let mut svc = service(GramServiceConfig { batch_size: 3, ..Default::default() });
        for g in &graphs {
            svc.submit(g.clone()).unwrap();
        }
        let executed = svc.flush();
        assert_eq!(executed, 7 * 8 / 2);
        assert_eq!(svc.stats().batches, (7usize * 8 / 2).div_ceil(3));
        let snap = svc.snapshot();
        assert!(snap.matrix.iter().all(|v| v.is_finite()));
    }

    /// A service whose per-structure preprocessing actually reorders (the
    /// paper's PBR), so the reorder cache has output to share.
    fn reordering_service(config: GramServiceConfig) -> UnlabeledService {
        let solver = MarginalizedKernelSolver::unlabeled(SolverConfig {
            reorder: ReorderMethod::Pbr,
            ..SolverConfig::default()
        });
        GramService::new(solver, config)
    }

    #[test]
    fn reorder_cache_serves_resubmitted_structures_on_both_lanes() {
        let graphs = dataset(3, 131);
        let mut svc = reordering_service(GramServiceConfig::default());
        for g in &graphs {
            svc.submit(g.clone()).unwrap();
        }
        svc.flush();
        assert_eq!(svc.stats().reorder_misses, 3, "first admission prepares every structure");
        assert_eq!(svc.stats().reorder_hits, 0);

        // batch lane: resubmitting a structure reuses its prepared form
        svc.submit(graphs[0].clone()).unwrap();
        svc.flush();
        assert_eq!(svc.stats().reorder_hits, 1, "resubmission must hit the reorder cache");
        assert_eq!(svc.stats().reorder_misses, 3);

        // request lane: a request over admitted structures prepares nothing
        let pair = svc.prepare_pair(&graphs[1], &graphs[2]);
        assert_eq!(svc.stats().reorder_hits, 3, "both request sides were already prepared");
        assert_eq!(svc.stats().reorder_misses, 3);
        solve_request::<f32>(&mut svc, &pair).unwrap();

        // and a request lane miss seeds the cache for later admission
        let extra = dataset(4, 131)[3].clone();
        svc.prepare_pair(&extra, &graphs[0]);
        assert_eq!(svc.stats().reorder_misses, 4);
        svc.submit(extra).unwrap();
        svc.flush();
        assert_eq!(svc.stats().reorder_misses, 4, "admission reuses the request's preparation");
    }

    #[test]
    fn reorder_cache_values_match_an_uncached_service() {
        let graphs = dataset(4, 137);
        let mut cached = reordering_service(GramServiceConfig::default());
        let mut uncached = reordering_service(GramServiceConfig {
            reorder_cache_capacity: 0,
            ..Default::default()
        });
        // admit every structure once, then resubmit all of them: the
        // second flush serves every preparation from the cache
        for g in &graphs {
            cached.submit(g.clone()).unwrap();
            uncached.submit(g.clone()).unwrap();
        }
        cached.flush();
        uncached.flush();
        for g in &graphs {
            cached.submit(g.clone()).unwrap();
            uncached.submit(g.clone()).unwrap();
        }
        let a = cached.snapshot();
        let b = uncached.snapshot();
        assert!(cached.stats().reorder_hits >= 4, "duplicates must hit the cache");
        assert_eq!(uncached.stats().reorder_hits, 0, "capacity 0 disables the cache");
        assert_eq!(uncached.stats().reorder_misses, 0, "a disabled cache counts nothing");
        for (x, y) in a.matrix.iter().zip(&b.matrix) {
            assert_eq!(x, y, "cached preparation must be bit-identical to uncached");
        }
    }

    #[test]
    fn forced_hash_collision_cannot_alias_prepared_structures() {
        // path and cycle share the forced content hash but differ in edge
        // count: the widened PairSide key must keep their prepared forms
        // apart — a contaminated reorder cache would hand the path's
        // reordering to the cycle and corrupt every downstream solve
        let collide: fn(&Graph) -> u64 = |_| 0xDEAD_BEEF;
        let path = Graph::from_edge_list(4, &[(0, 1), (1, 2), (2, 3)]);
        let cycle = Graph::from_edge_list(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);

        let mut svc = reordering_service(GramServiceConfig::default()).with_content_hasher(collide);
        svc.submit(path.clone()).unwrap();
        svc.submit(cycle.clone()).unwrap();
        let snap = svc.snapshot();
        assert_eq!(svc.stats().reorder_misses, 2, "distinct structures must both prepare");
        assert_eq!(svc.stats().reorder_hits, 0, "a collision must not look like a hit");

        let mut reference = reordering_service(GramServiceConfig::default());
        reference.submit(path).unwrap();
        reference.submit(cycle).unwrap();
        let expected = reference.snapshot();
        for i in 0..2 {
            for j in 0..2 {
                let (a, b) = (snap.get(i, j), expected.get(i, j));
                assert!((a - b).abs() < 1e-5, "entry ({i},{j}): collided {a} vs reference {b}");
            }
        }
    }

    #[test]
    fn reorder_cache_eviction_respects_the_configured_bound() {
        let graphs = dataset(5, 139);
        let mut svc = reordering_service(GramServiceConfig {
            reorder_cache_capacity: 2,
            ..Default::default()
        });
        for g in &graphs {
            svc.submit(g.clone()).unwrap();
        }
        svc.flush();
        assert!(svc.reorder.len() <= 2, "reorder cache exceeded its bound: {}", svc.reorder.len());
        assert_eq!(svc.stats().reorder_misses, 5);

        // the earliest structure was evicted: resubmitting it re-prepares
        svc.submit(graphs[0].clone()).unwrap();
        svc.flush();
        assert_eq!(svc.stats().reorder_misses, 6, "an evicted structure must miss");
        assert!(svc.reorder.len() <= 2);
    }

    #[test]
    fn natural_order_services_share_prepared_structures_too() {
        // natural order, no stopping override: nothing is reordered, but
        // the structure is still tiled and hashed once — so it is cached
        // like any other and resubmission hits
        let graphs = dataset(2, 149);
        let solver = MarginalizedKernelSolver::unlabeled(SolverConfig {
            reorder: ReorderMethod::Natural,
            ..SolverConfig::default()
        });
        let mut svc = GramService::new(solver, GramServiceConfig::default());
        for g in graphs.iter().chain(graphs.iter()) {
            svc.submit(g.clone()).unwrap();
        }
        svc.flush();
        assert_eq!(svc.stats().reorder_misses, 4, "one flush scans before it prepares");
        assert_eq!(svc.reorder.len(), 2);
        for g in &graphs {
            svc.submit(g.clone()).unwrap();
        }
        svc.flush();
        assert_eq!(svc.stats().reorder_hits, 2, "resubmission reuses the prepared structures");
        let pair = svc.prepare_pair(&graphs[0], &graphs[1]);
        assert_eq!(svc.stats().reorder_hits, 4);
        assert_eq!(svc.stats().reorder_misses, 4);
        solve_request::<f32>(&mut svc, &pair).unwrap();
    }

    #[test]
    fn a_structure_is_one_allocation_across_both_lanes() {
        let graphs = dataset(2, 151);
        let mut svc = reordering_service(GramServiceConfig::default());
        svc.submit(graphs[0].clone()).unwrap();
        svc.flush();
        assert_eq!(svc.stats().reorder_misses, 1);

        // the request lane names the admitted structure: same entry, not
        // an equal one — its tiles exist once in the process
        let pair = svc.prepare_pair(&graphs[0], &graphs[1]);
        assert!(Arc::ptr_eq(&pair.left, &svc.members[0]));
        assert_eq!(svc.stats().reorder_hits, 1);
        assert_eq!(svc.stats().reorder_misses, 2, "only the never-seen right side prepared");
        // and admitting the request's other side reuses the request's entry
        svc.submit(graphs[1].clone()).unwrap();
        svc.flush();
        assert!(Arc::ptr_eq(&pair.right, &svc.members[1]));
        assert_eq!(svc.stats().reorder_misses, 2);
    }
}
