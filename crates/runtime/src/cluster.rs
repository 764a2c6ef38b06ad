//! The sharded serving plane: K [`GramScheduler`]s behind a content-hash
//! router.
//!
//! One scheduler thread serializes every flush and request drain behind a
//! single command channel. A [`GramCluster`] multiplies that plane: it
//! spawns `K` independent shards (each its own `GramScheduler` owning its
//! own [`GramService`]) and routes work to them by **content hash** —
//! structures by their own [`PairSide`] identity, request pairs by their
//! order-normalized [`PairKey`]. Routing is a pure function of content, so
//! it is deterministic across restarts, and both orientations of a pair
//! land on the *same* shard — per-shard request coalescing and the
//! symmetric-cache-answer guarantee survive sharding unchanged (duplicates
//! of one pair can never split across shards). The identity a client
//! routes by travels with the command, so the owning shard groups,
//! prepares and admits by it without hashing the graphs a second time.
//!
//! The producer side has no cluster types of its own — the cluster hands
//! out the scheduler's handles, holding K command lanes instead of one:
//!
//! * [`GramCluster::client`] is a [`GramClient`]: `submit` / `submit_all`
//!   route per structure, and [`flush`](GramClient::flush) barriers *every*
//!   shard and reports one [`BarrierReply`](crate::BarrierReply) — the
//!   cluster epoch, plus each shard's own in `shard_epochs`.
//! * [`GramCluster::kernel_client`] is a [`KernelClient`] sending each pair
//!   to its owning shard ([`ClusterKernelClient`] is that type's
//!   cluster-side name).
//!
//! The consumer side differs by K for a reason — one matrix against K
//! blocks, an unlabeled scrape against `shard="k"` on every metric — so it
//! is a primitive and its merge views, handed out by the owner:
//!
//! * [`ClusterWatch`] merges the per-shard [`SnapshotWatch`]es into one
//!   **cluster epoch** — the sum of the shard epochs. A
//!   [`ClusterSnapshot`] is consistent iff every shard's epoch was
//!   observed in one capture pass, which [`ClusterWatch::latest`]
//!   guarantees; per-shard epochs are monotone, so the summed cluster
//!   epoch is too.
//! * [`ClusterTelemetry`] aggregates the per-shard registries into one
//!   scrape surface, stamping `shard="k"` onto every metric.
//! * [`GramCluster::join`] drains **all** shards (a panicked shard never
//!   prevents the others from finishing their outstanding work) and then
//!   re-raises the first shard panic, mirroring
//!   [`GramScheduler::join`]'s propagation contract.
//!
//! **A shard is born from a recipe, not a copy.** Every shard beyond the
//! one that receives the prototype itself is the prototype's
//! `sibling()`: same solver, configuration and content hasher, no state.
//! State a prototype holds (admitted members, cache entries) is
//! therefore *not* replicated into other shards — a structure lives on the
//! shard its identity routes to, and a replica anywhere else could never
//! be asked for.
//!
//! `K = 1` is the degenerate case: one shard, every route resolves to it,
//! and the cluster behaves exactly like the underlying scheduler.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use mgk_kernels::BaseKernel;
use mgk_telemetry::{MetricsRegistry, TelemetrySnapshot};

use crate::cache::{PairKey, PairSide};
use crate::hash::{ContentHash, Fnv1a};
use crate::scheduler::{GramClient, GramScheduler, KernelClient, RequestScalar, SchedulerConfig};
use crate::service::GramService;
use crate::watch::{SnapshotWatch, VersionedSnapshot, WatchClosed};

/// Configuration of a [`GramCluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of shards (scheduler threads). `0` is treated as `1`; with
    /// one shard the cluster degenerates to a plain [`GramScheduler`].
    pub shards: usize,
    /// Per-shard scheduler configuration (each shard gets its own command
    /// channel of this capacity).
    pub scheduler: SchedulerConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig { shards: 1, scheduler: SchedulerConfig::default() }
    }
}

/// The shard owning one structure, by its content-identity
/// [`PairSide`] — a pure function of `(hash, vertices, edges)` and the
/// shard count, so the assignment is stable across restarts.
pub fn shard_of_side(side: &PairSide, shards: usize) -> usize {
    debug_assert!(shards > 0, "a cluster has at least one shard");
    let mut h = Fnv1a::new();
    h.write_u64(side.hash);
    h.write_u32(side.vertices);
    h.write_u32(side.edges);
    (h.finish() % shards.max(1) as u64) as usize
}

/// The shard owning one request pair, by its order-normalized
/// [`PairKey`]. Normalization means `(A, B)` and `(B, A)` route
/// identically, so both orientations coalesce/cache-share on one shard —
/// duplicates of a pair can never solve twice on different shards.
pub fn shard_of_key(key: &PairKey, shards: usize) -> usize {
    debug_assert!(shards > 0, "a cluster has at least one shard");
    let mut h = Fnv1a::new();
    h.write_u64(key.lo.hash);
    h.write_u32(key.lo.vertices);
    h.write_u32(key.lo.edges);
    h.write_u64(key.hi.hash);
    h.write_u32(key.hi.vertices);
    h.write_u32(key.hi.edges);
    (h.finish() % shards.max(1) as u64) as usize
}

/// K schedulers behind a content-hash router. See the module docs.
#[derive(Debug)]
pub struct GramCluster<KV, KE, V, E> {
    shards: Vec<GramScheduler<KV, KE, V, E>>,
    /// The producer handle over every shard's command lane.
    client: GramClient<V, E>,
}

impl<KV, KE, V, E> GramCluster<KV, KE, V, E>
where
    V: Clone + Send + Sync + ContentHash + 'static,
    E: Copy + Default + Send + Sync + ContentHash + 'static,
    KV: BaseKernel<V> + Clone + Send + Sync + 'static,
    KE: BaseKernel<E> + Clone + Send + Sync + 'static,
{
    /// Spawn `config.shards` scheduler shards: the last one owns
    /// `prototype` itself (so a pre-warmed prototype publishes its snapshot
    /// on spawn, as under [`GramScheduler::spawn`]), every other an empty
    /// sibling of it — same solver, configuration and hasher, a registry of
    /// its own (see the module docs for why no state is replicated). The
    /// prototype's content hasher doubles as the cluster's routing hash,
    /// so routing always agrees with the shards' own identity computation.
    pub fn spawn(prototype: GramService<KV, KE, V, E>, config: ClusterConfig) -> Self {
        let mut services: Vec<_> = (1..config.shards).map(|_| prototype.sibling()).collect();
        services.push(prototype);
        Self::start(services, config.scheduler)
    }

    /// [`spawn`](Self::spawn) with durability: every shard is an empty
    /// sibling of `prototype` with its own
    /// [`PairStore`](mgk_store::PairStore) under `durability.for_shard(k)`,
    /// recovered before serving. Content-hash routing is restart-stable, so
    /// after a restart every shard finds exactly the pairs it owned in its
    /// previous life. A store that refuses recovery refuses the whole
    /// cluster before any shard thread exists, so nothing is left running —
    /// or writing under `durability.dir` — behind the error. Returns the
    /// cluster plus one [`RecoveryReport`](crate::RecoveryReport) per
    /// shard, by shard index.
    pub fn spawn_durable(
        prototype: GramService<KV, KE, V, E>,
        config: ClusterConfig,
        durability: crate::persist::DurabilityConfig,
    ) -> Result<(Self, Vec<crate::persist::RecoveryReport>), mgk_store::StoreError> {
        let mut services: Vec<_> = (0..config.shards.max(1)).map(|_| prototype.sibling()).collect();
        let reports = services
            .iter_mut()
            .enumerate()
            .map(|(shard, service)| service.attach_store(durability.for_shard(shard)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((Self::start(services, config.scheduler), reports))
    }

    /// Start one scheduler thread per ready service (at least one).
    fn start(services: Vec<GramService<KV, KE, V, E>>, config: SchedulerConfig) -> Self {
        let hasher = services[0].content_hasher();
        let shards: Vec<_> =
            services.into_iter().map(|service| GramScheduler::spawn(service, config)).collect();
        let lanes = shards.iter().map(|shard| shard.lane().clone()).collect();
        GramCluster { shards, client: GramClient::new(lanes, hasher) }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// A producer handle over every shard's command lane (cheap; clone
    /// freely across threads): submissions route per structure, and
    /// [`flush`](GramClient::flush) barriers every shard.
    pub fn client(&self) -> GramClient<V, E> {
        self.client.clone()
    }

    /// A typed request client carrying its answers at `T`, over every
    /// shard's command lane: each pair goes to the shard its normalized
    /// [`PairKey`] hashes to. Otherwise exactly
    /// [`GramScheduler::kernel_client`].
    pub fn kernel_client<T: RequestScalar>(&self) -> KernelClient<V, E, T> {
        KernelClient::over(self.client())
    }

    /// The merged cluster watch over every shard's snapshot watch.
    pub fn watch(&self) -> ClusterWatch {
        ClusterWatch { watches: self.shards.iter().map(|s| s.watch()).collect() }
    }

    /// The aggregated scrape surface over every shard's registry.
    pub fn telemetry(&self) -> ClusterTelemetry {
        ClusterTelemetry { registries: self.shards.iter().map(|s| s.telemetry()).collect() }
    }

    /// Gracefully shut down every shard: each drains its outstanding
    /// submissions and requests, then the services are returned by shard
    /// index. Every shard is joined before any panic is re-raised — a
    /// poisoned shard never strands its siblings' outstanding work — and
    /// the **first** shard panic (by shard index) is then re-raised,
    /// matching [`GramScheduler::join`].
    pub fn join(self) -> Vec<GramService<KV, KE, V, E>> {
        let mut services = Vec::with_capacity(self.shards.len());
        let mut first_panic = None;
        for shard in self.shards {
            match catch_unwind(AssertUnwindSafe(move || shard.join())) {
                Ok(service) => services.push(service),
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        services
    }
}

/// The cluster-side name of [`KernelClient`]: the one request client,
/// built over K lanes by [`GramCluster::kernel_client`].
pub type ClusterKernelClient<V, E, T = f32> = KernelClient<V, E, T>;

/// A consistent observation of the whole cluster: every shard's epoch
/// captured in one pass, the cluster epoch their sum.
#[derive(Debug, Clone)]
pub struct ClusterSnapshot {
    /// The cluster epoch of this observation — the sum of `shard_epochs`.
    /// Per-shard epochs are monotone, so cluster epochs are too.
    pub epoch: u64,
    /// Each shard's epoch at capture, by shard index.
    pub shard_epochs: Vec<u64>,
    /// Each shard's latest snapshot, by shard index; `None` for a shard
    /// that has not published yet (or whose unobserved epoch was retired
    /// while its successor flush runs).
    pub shards: Vec<Option<VersionedSnapshot>>,
}

/// Merged consumer handle over every shard's [`SnapshotWatch`]. Cheap to
/// clone; any number of consumers may poll or wait concurrently.
#[derive(Debug, Clone)]
pub struct ClusterWatch {
    watches: Vec<SnapshotWatch>,
}

impl ClusterWatch {
    /// How long one shard's condvar is waited on before the round-robin
    /// sweep moves to the next shard. Progress on any single shard is
    /// observed within one slice of its publication.
    const WAIT_SLICE: Duration = Duration::from_millis(5);

    /// The current cluster epoch: the sum of every shard's epoch.
    pub fn epoch(&self) -> u64 {
        self.watches.iter().map(|w| w.epoch()).sum()
    }

    /// Each shard's current epoch, by shard index.
    pub fn shard_epochs(&self) -> Vec<u64> {
        self.watches.iter().map(|w| w.epoch()).collect()
    }

    /// Whether *every* shard's publisher is gone (no newer cluster
    /// snapshot will ever arrive).
    pub fn is_closed(&self) -> bool {
        self.watches.iter().all(|w| w.is_closed())
    }

    /// A consistent cluster observation: one capture pass reading every
    /// shard's epoch (and materializing its latest snapshot, if any).
    pub fn latest(&self) -> ClusterSnapshot {
        let mut shard_epochs = Vec::with_capacity(self.watches.len());
        let mut shards = Vec::with_capacity(self.watches.len());
        for watch in &self.watches {
            let versioned = watch.latest();
            // a shard mid-retirement reports its slot epoch with no
            // snapshot; the epoch still counts as observed progress
            shard_epochs.push(versioned.as_ref().map(|v| v.epoch).unwrap_or_else(|| watch.epoch()));
            shards.push(versioned);
        }
        ClusterSnapshot { epoch: shard_epochs.iter().sum(), shard_epochs, shards }
    }

    /// Block until the cluster epoch is strictly newer than `epoch`, and
    /// return the consistent observation that crossed it. Any single
    /// shard's flush bumps the cluster epoch (per-shard epochs are
    /// monotone and summed). Returns [`WatchClosed`] once every shard's
    /// publisher is gone and nothing newer than `epoch` remains.
    pub fn wait_newer(&self, epoch: u64) -> Result<ClusterSnapshot, WatchClosed> {
        let mut round = 0usize;
        loop {
            let observed = self.latest();
            if observed.epoch > epoch {
                return Ok(observed);
            }
            if self.is_closed() {
                // the closing shard may have published its final epoch
                // between the capture above and the closure check
                let last = self.latest();
                if last.epoch > epoch {
                    return Ok(last);
                }
                return Err(WatchClosed);
            }
            // wait one slice on one shard, rotating so a publication on
            // any shard is picked up within K slices; a single closed
            // shard is no error — only all-closed (above) ends the wait
            let watch = &self.watches[round % self.watches.len()];
            let _ = watch.wait_newer_timeout(watch.epoch(), Self::WAIT_SLICE);
            round += 1;
        }
    }
}

/// The cluster's aggregated scrape surface: every shard's registry,
/// merged with a `shard="k"` label stamped onto each metric.
#[derive(Debug, Clone)]
pub struct ClusterTelemetry {
    registries: Vec<Arc<MetricsRegistry>>,
}

impl ClusterTelemetry {
    /// One consistent-format capture of the whole cluster: each shard's
    /// snapshot stamped `shard="k"`, merged and re-sorted. Render with
    /// `render_prometheus()` / `render_json()` as usual;
    /// `counter_total(name)` sums a counter across shards.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot::merge(
            self.registries
                .iter()
                .enumerate()
                .map(|(shard, registry)| {
                    registry.snapshot().with_label("shard", &shard.to_string())
                })
                .collect::<Vec<_>>(),
        )
    }
}
