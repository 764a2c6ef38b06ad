//! The background Gram scheduler: producers submit structures in
//! microseconds, solves run on a dedicated thread.
//!
//! [`GramService::flush`] runs on the caller's thread, so a synchronous
//! producer stalls for the full PCG solve latency of its batch. The
//! [`GramScheduler`] decouples the two sides, the serving analogue of the
//! paper's batched job queue:
//!
//! * The scheduler **owns the service on a background thread** and drains
//!   its queue continuously: commands arriving while a flush is in progress
//!   coalesce into the next batch, so the solve pipeline stays saturated
//!   with pair jobs while producers run ahead.
//! * Producers hold a cheap, cloneable [`GramClient`] over a **bounded
//!   command channel**. [`submit`](GramClient::submit) blocks only when the
//!   channel is full: backpressure is flow control, which throttles a
//!   producer to the solver's pace, not an error it must retry around.
//!   It is the **one producer handle**: a
//!   [`GramCluster`](crate::GramCluster) hands out the same type over K
//!   channels, and a client only ever *sends* — the watch and the metrics
//!   registry are handed out by the owner that spawned the thread
//!   ([`GramScheduler::watch`] / [`GramScheduler::telemetry`]).
//! * Consumers hold a [`SnapshotWatch`]: every completed flush publishes
//!   the new snapshot under a bumped epoch (the service's
//!   [`version`](GramService::version)), `wait_newer` blocks until a
//!   fresher snapshot exists, and the per-epoch snapshot is cached so idle
//!   polls cost an `Arc` clone instead of an O(n²) rebuild.
//! * [`flush`](GramClient::flush) is a **barrier**: it returns once every
//!   submission enqueued before it has been admitted and solved.
//! * [`join`](GramScheduler::join) performs a **graceful shutdown** —
//!   outstanding submissions are drained and solved first — and returns the
//!   service for inspection. A panic on the scheduler thread (a poisoned
//!   solve) closes the watch, unblocks every waiting consumer, and is
//!   re-raised from `join`.
//! * A [`KernelClient`] asks for **one pair** over the same channel and
//!   gets a [`Ticket`] back. The precision to solve at is a value on the
//!   request, and the *carrier* `T` — what a `Ticket<KernelResult<T>>`
//!   promises — stays with the ticket's resolver: nothing between intake
//!   and wake is generic over it. Each drain groups its requests by
//!   (ordered pair identity, precision) and feeds the groups, in arrival
//!   order, to the service's *wave* — the
//!   same claim → probe → solve → fold loop [`GramService::flush`] pushes
//!   its triangle block through (see the [`service`](crate::service) module
//!   docs), here with the group's tickets as payload. A group is answered
//!   from the pair cache when an entry of adequate precision exists and
//!   otherwise solved once, together with the rest of its wave; a group
//!   whose key the wave already holds waits for that wave — so it sees the
//!   entry its sibling folded. Every ticket of a group wakes from the
//!   shared answer, which takes the ticket's type there and only there.
//!
//! Waves are fanned out over the existing persistent worker
//! [`Pool`](crate::Pool) — the scheduler thread is a coordinator, not a
//! compute thread.

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

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mgk_core::{KernelResult, StageBreakdown};
use mgk_graph::Graph;
use mgk_kernels::BaseKernel;
use mgk_linalg::{Precision, Scalar, TrafficCounters};
use mgk_telemetry::{Counter, Gauge, MetricsRegistry, Stopwatch};

use crate::cache::{CachedEntry, PairKey, PairSide};
use crate::cluster::{shard_of_key, shard_of_side};
use crate::hash::ContentHash;
use crate::service::{Answer, Claim, GramService, GramServiceError, Landed, Wave};
use crate::ticket::{ticket, RequestError, Ticket, TicketResolver};
use crate::watch::{snapshot_channel_counted, SnapshotPublisher, SnapshotWatch};

/// Configuration of a [`GramScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Capacity of the bounded command channel between producers and the
    /// scheduler thread. A full channel blocks every send on it
    /// ([`GramClient::submit`], [`KernelClient::request`], …) until the
    /// scheduler drains a command.
    pub channel_capacity: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig { channel_capacity: 1024 }
    }
}

/// Errors reported by [`GramClient`] and [`KernelClient`] operations. A
/// full command channel is not one of them: the send blocks instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerError {
    /// The submitted structure has no vertices.
    EmptyStructure,
    /// The scheduler thread is gone (shut down or panicked).
    Closed,
}

impl std::fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulerError::EmptyStructure => {
                write!(f, "cannot admit a structure with no vertices")
            }
            SchedulerError::Closed => write!(f, "scheduler is shut down"),
        }
    }
}

impl std::error::Error for SchedulerError {}

/// Reply of a [`GramClient::flush`] barrier: the state of every scheduler
/// the client fronts after each admitted and solved what was enqueued on it
/// before the call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BarrierReply {
    /// The snapshot epoch after the barrier's flush — over K schedulers the
    /// cluster epoch, the sum of `shard_epochs`.
    pub epoch: u64,
    /// Structures admitted so far, on every scheduler together.
    pub num_structures: usize,
    /// Each scheduler's own epoch at its barrier, by index: `[epoch]` for a
    /// client over one scheduler.
    pub shard_epochs: Vec<u64>,
}

/// A structure on its way to a scheduler, with the identity its client
/// routed it by — `None` from a one-lane client, which hashes nothing.
type Routed<V, E> = (Graph<V, E>, Option<PairSide>);

enum Command<V, E> {
    Submit(Routed<V, E>),
    SubmitAll(Vec<Routed<V, E>>),
    /// Answered with the scheduler's `(epoch, structures admitted)`.
    Barrier(mpsc::Sender<(u64, usize)>),
    // boxed: a request (two graphs + resolver + deadline) is several times
    // a Submit, and the channel moves Commands by value
    Request(Box<KernelRequest<V, E>>),
    Shutdown,
}

impl<V, E> Command<V, E> {
    /// What this command adds to the queue-depth gauge while it sits in
    /// the channel: one unit per structure or request.
    fn queue_units(&self) -> f64 {
        match self {
            Command::Submit(_) | Command::Request(_) => 1.0,
            Command::SubmitAll(gs) => gs.len() as f64,
            Command::Barrier(_) | Command::Shutdown => 0.0,
        }
    }
}

/// One request-lane command: a pair to evaluate, the raw identity of each
/// side if the client hashed them to route, the precision to solve it at,
/// an optional deadline, and the typed resolver its answer goes to. The
/// intake stopwatch starts in the client's enqueue call, so queue wait and
/// end-to-end latency are measured from the producer's perspective, channel
/// time included.
struct KernelRequest<V, E> {
    left: Graph<V, E>,
    right: Graph<V, E>,
    sides: Option<(PairSide, PairSide)>,
    precision: Precision,
    deadline: Option<Instant>,
    resolver: KernelResolver,
    intake: Stopwatch,
}

/// A typed ticket resolver routed through the scheduler's untyped command
/// stream, one variant per carrier type. Internal plumbing of the request
/// lane — constructed by [`RequestScalar::wrap_resolver`], consumed by the
/// scheduler thread.
#[doc(hidden)]
#[derive(Debug)]
pub enum KernelResolver {
    F32(TicketResolver<KernelResult<f32>>),
    F64(TicketResolver<KernelResult<f64>>),
}

/// The [`Scalar`] instantiations a typed [`KernelClient`] can carry its
/// answers at. Sealed through `Scalar` itself (only `f32` and `f64`
/// implement it); the trait routes a typed ticket into the scheduler's
/// command stream.
pub trait RequestScalar: Scalar {
    #[doc(hidden)]
    fn wrap_resolver(resolver: TicketResolver<KernelResult<Self>>) -> KernelResolver;
}

impl RequestScalar for f32 {
    fn wrap_resolver(resolver: TicketResolver<KernelResult<f32>>) -> KernelResolver {
        KernelResolver::F32(resolver)
    }
}

impl RequestScalar for f64 {
    fn wrap_resolver(resolver: TicketResolver<KernelResult<f64>>) -> KernelResolver {
        KernelResolver::F64(resolver)
    }
}

/// What a client holds of one scheduler: the sending half of its bounded
/// command channel and the queue-depth gauge of the service behind it.
/// Every client is one or more of these.
#[derive(Debug)]
pub(crate) struct Lane<V, E> {
    tx: SyncSender<Command<V, E>>,
    queue_depth: Gauge,
}

impl<V, E> Clone for Lane<V, E> {
    fn clone(&self) -> Self {
        Lane { tx: self.tx.clone(), queue_depth: self.queue_depth.clone() }
    }
}

impl<V, E> Lane<V, E> {
    /// Enqueue `command`, blocking while the channel is full (flow
    /// control).
    fn send(&self, command: Command<V, E>) -> Result<(), SchedulerError> {
        // raised before the send so a scraper never observes a queued
        // command the gauge has not counted; unwound if the send fails
        let units = command.queue_units();
        self.queue_depth.add(units);
        let sent = self.tx.send(command).map_err(|_| SchedulerError::Closed);
        if sent.is_err() {
            self.queue_depth.add(-units);
        }
        sent
    }
}

/// Cheap, cloneable producer handle to a running [`GramScheduler`] — or,
/// built by [`GramCluster::client`](crate::GramCluster::client), to every
/// shard of a cluster: it then holds K command lanes and sends each
/// structure to the shard its content identity hashes to
/// ([`shard_of_side`]) — the rule [`KernelClient`] follows for pairs.
#[derive(Debug)]
pub struct GramClient<V, E> {
    /// One lane per scheduler this client fronts.
    lanes: Vec<Lane<V, E>>,
    /// The schedulers' content hasher: what routing keys are made of.
    hasher: fn(&Graph<V, E>) -> u64,
}

impl<V, E> Clone for GramClient<V, E> {
    fn clone(&self) -> Self {
        GramClient { lanes: self.lanes.clone(), hasher: self.hasher }
    }
}

impl<V, E> GramClient<V, E> {
    /// A client over `lanes` (at least one).
    pub(crate) fn new(lanes: Vec<Lane<V, E>>, hasher: fn(&Graph<V, E>) -> u64) -> Self {
        debug_assert!(!lanes.is_empty(), "a client fronts at least one scheduler");
        GramClient { lanes, hasher }
    }

    /// The index of the scheduler a structure routes to, by the content
    /// identity this client hashes — the identity the structure then
    /// travels with, so its scheduler does not hash it again. A client over
    /// one scheduler answers 0 without hashing anything.
    pub fn shard_of(&self, structure: &Graph<V, E>) -> usize {
        self.route(structure).0
    }

    /// The scheduler a structure routes to and the identity it was routed
    /// by: `(0, None)` over one lane, where nothing is hashed.
    fn route(&self, structure: &Graph<V, E>) -> (usize, Option<PairSide>) {
        if self.lanes.len() == 1 {
            return (0, None);
        }
        let side = PairSide::of(self.hasher, structure);
        (shard_of_side(&side, self.lanes.len()), Some(side))
    }

    /// Enqueue a structure on its owning scheduler, blocking while that
    /// command channel is full.
    ///
    /// Returns in microseconds under normal load — the solve happens on the
    /// scheduler thread. Blocking on a full channel is the flow-control
    /// path: a producer outrunning the solver is throttled to its pace.
    pub fn submit(&self, structure: Graph<V, E>) -> Result<(), SchedulerError> {
        if structure.num_vertices() == 0 {
            return Err(SchedulerError::EmptyStructure);
        }
        let (shard, side) = self.route(&structure);
        self.lanes[shard].send(Command::Submit((structure, side)))
    }

    /// Enqueue a whole collection, routed per structure and batched per
    /// scheduler: one command per scheduler that receives anything (empty
    /// structures are skipped). Returns the number of structures enqueued.
    pub fn submit_all(
        &self,
        structures: impl IntoIterator<Item = Graph<V, E>>,
    ) -> Result<usize, SchedulerError> {
        let mut per_lane: Vec<Vec<Routed<V, E>>> = self.lanes.iter().map(|_| Vec::new()).collect();
        for g in structures.into_iter().filter(|g| g.num_vertices() > 0) {
            let (shard, side) = self.route(&g);
            per_lane[shard].push((g, side));
        }
        let mut enqueued = 0;
        for (lane, batch) in self.lanes.iter().zip(per_lane) {
            if !batch.is_empty() {
                enqueued += batch.len();
                lane.send(Command::SubmitAll(batch))?;
            }
        }
        Ok(enqueued)
    }

    /// Barrier: block until every submission enqueued before this call — on
    /// any scheduler — has been admitted and solved, and report the
    /// resulting epochs. The schedulers are barriered in index order; each
    /// only ever receives its own routed submissions, so the sequential
    /// sweep observes a consistent "everything enqueued before the call"
    /// state.
    pub fn flush(&self) -> Result<BarrierReply, SchedulerError> {
        let mut merged = BarrierReply {
            epoch: 0,
            num_structures: 0,
            shard_epochs: Vec::with_capacity(self.lanes.len()),
        };
        for lane in &self.lanes {
            let (reply_tx, reply_rx) = mpsc::channel();
            lane.send(Command::Barrier(reply_tx))?;
            let (epoch, num_structures) = reply_rx.recv().map_err(|_| SchedulerError::Closed)?;
            merged.epoch += epoch;
            merged.num_structures += num_structures;
            merged.shard_epochs.push(epoch);
        }
        Ok(merged)
    }
}

/// The request-scoped serving handle: ask for *one pair's* kernel value and
/// get a [`Ticket`] back immediately, instead of watching whole-Gram
/// snapshots.
///
/// Built over one [`GramScheduler`] it holds that scheduler's command
/// channel; built over a [`GramCluster`](crate::GramCluster) it holds every
/// shard's and sends each pair to the shard its order-normalized content
/// key hashes to ([`shard_of_key`]), so both orientations of a pair, and
/// every duplicate of it, meet on one scheduler. Requests ride the same
/// bounded channel as the flush lane of the sibling [`GramClient`], so
/// producer backpressure applies uniformly.
///
/// `T` is the *carrier*: `KernelClient<_, _, f64>` tickets carry
/// [`KernelResult<f64>`] — f64 values, and f64 nodal vectors when the
/// service's solver computes them — end-to-end. Requests are solved at the
/// carrier's own [`Precision`].
///
/// Request-lane guarantees (see the module docs for the mechanism):
///
/// * duplicate in-flight requests for one pair at one precision
///   **coalesce** onto a single solve, every ticket woken with the shared
///   answer;
/// * pairs the service has already solved are **answered from the pair
///   cache** without touching the solve lane;
/// * a ticket whose **deadline** passes before its solve starts resolves
///   [`RequestError::Expired`]; a **dropped** ticket cancels its request;
///   a scheduler that shuts down **closes** every outstanding ticket —
///   tickets can never hang, and stale requests never occupy the solver.
#[derive(Debug)]
pub struct KernelClient<V, E, T: RequestScalar = f32> {
    /// The lanes and routing hasher of the sibling producer handle.
    producer: GramClient<V, E>,
    _carrier: PhantomData<T>,
}

impl<V, E, T: RequestScalar> Clone for KernelClient<V, E, T> {
    fn clone(&self) -> Self {
        KernelClient { producer: self.producer.clone(), _carrier: PhantomData }
    }
}

impl<V, E, T: RequestScalar> KernelClient<V, E, T> {
    /// A client over `producer`'s lanes, solving at the carrier's own
    /// precision.
    pub(crate) fn over(producer: GramClient<V, E>) -> Self {
        KernelClient { producer, _carrier: PhantomData }
    }

    /// The index of the scheduler a pair routes to — by normalized
    /// [`PairKey`], so both orientations of a pair agree. The client hashes
    /// both sides here, and a request carries those identities to its
    /// scheduler, which groups and prepares by them without hashing again.
    /// A client over one scheduler answers 0 without hashing anything.
    pub fn shard_of(&self, left: &Graph<V, E>, right: &Graph<V, E>) -> usize {
        self.route(left, right).0
    }

    /// The scheduler a pair routes to and the raw identities of its sides
    /// it was routed by: `(0, None)` over one lane, where nothing is hashed.
    fn route(
        &self,
        left: &Graph<V, E>,
        right: &Graph<V, E>,
    ) -> (usize, Option<(PairSide, PairSide)>) {
        let GramClient { lanes, hasher } = &self.producer;
        if lanes.len() == 1 {
            return (0, None);
        }
        let sides = (PairSide::of(*hasher, left), PairSide::of(*hasher, right));
        (shard_of_key(&PairKey::new(sides.0, sides.1), lanes.len()), Some(sides))
    }

    /// Request the kernel value of one pair, blocking while the owning
    /// scheduler's command channel is full. The returned [`Ticket`]
    /// resolves to the pair's typed [`KernelResult<T>`].
    pub fn request(
        &self,
        left: Graph<V, E>,
        right: Graph<V, E>,
    ) -> Result<Ticket<KernelResult<T>>, SchedulerError> {
        self.enqueue(left, right, None)
    }

    /// [`request`](Self::request) with a deadline: if the solve has not
    /// *started* within `budget`, the ticket resolves
    /// [`RequestError::Expired`] instead of occupying the solve lane. A
    /// budget too large for the clock to represent is no deadline.
    pub fn request_within(
        &self,
        left: Graph<V, E>,
        right: Graph<V, E>,
        budget: Duration,
    ) -> Result<Ticket<KernelResult<T>>, SchedulerError> {
        self.enqueue(left, right, Instant::now().checked_add(budget))
    }

    /// Request a whole batch of pairs in submission order. Duplicate pairs
    /// within the batch coalesce onto one solve on the scheduler side; the
    /// returned tickets are independent (drop any subset to cancel it).
    pub fn request_all(
        &self,
        pairs: impl IntoIterator<Item = (Graph<V, E>, Graph<V, E>)>,
    ) -> Result<Vec<Ticket<KernelResult<T>>>, SchedulerError> {
        pairs.into_iter().map(|(l, r)| self.request(l, r)).collect()
    }

    fn enqueue(
        &self,
        left: Graph<V, E>,
        right: Graph<V, E>,
        deadline: Option<Instant>,
    ) -> Result<Ticket<KernelResult<T>>, SchedulerError> {
        if left.num_vertices() == 0 || right.num_vertices() == 0 {
            return Err(SchedulerError::EmptyStructure);
        }
        let (shard, sides) = self.route(&left, &right);
        let (ticket, resolver) = ticket::<KernelResult<T>>();
        let request = KernelRequest {
            left,
            right,
            sides,
            precision: T::PRECISION,
            deadline,
            resolver: T::wrap_resolver(resolver),
            intake: Stopwatch::start(),
        };
        self.producer.lanes[shard].send(Command::Request(Box::new(request)))?;
        Ok(ticket)
    }
}

/// A [`GramService`] running on a dedicated background thread. See the
/// module docs for the design.
#[derive(Debug)]
pub struct GramScheduler<KV, KE, V, E> {
    client: GramClient<V, E>,
    watch: SnapshotWatch,
    registry: Arc<MetricsRegistry>,
    handle: JoinHandle<GramService<KV, KE, V, E>>,
}

impl<KV, KE, V, E> GramScheduler<KV, KE, V, E>
where
    V: Clone + Send + Sync + ContentHash + 'static,
    E: Copy + Default + Send + Sync + ContentHash + 'static,
    KV: BaseKernel<V> + Clone + Send + Sync + 'static,
    KE: BaseKernel<E> + Clone + Send + Sync + 'static,
{
    /// Move `service` onto a background scheduler thread — the one place a
    /// scheduler thread is started: [`spawn_durable`](Self::spawn_durable)
    /// and both [`GramCluster`](crate::GramCluster) spawns hand it the
    /// ready services they differ by.
    ///
    /// A pre-warmed service (structures admitted before the handoff) has
    /// its current snapshot published immediately, so watchers see the warm
    /// state without waiting for the first submission; submissions still
    /// pending inside the service are flushed first.
    #[expect(
        clippy::expect_used,
        reason = "runs on the caller's thread before a scheduler thread exists, so it cannot poison one; `GramScheduler::spawn` is infallible by signature and an OS refusing a thread leaves nothing to serve with"
    )]
    pub fn spawn(service: GramService<KV, KE, V, E>, config: SchedulerConfig) -> Self {
        let capacity = config.channel_capacity.max(1);
        let (tx, rx) = mpsc::sync_channel(capacity);
        // clients raise the queue-depth gauge through the same cell the
        // scheduler thread lowers it through
        let queue_depth = service.metrics().queue_depth.clone();
        let registry = service.telemetry();
        let hasher = service.content_hasher();
        let (publisher, watch) =
            snapshot_channel_counted(service.metrics().snapshot_builds.clone());
        let inbox = Inbox { rx, queue_depth: queue_depth.clone() };
        let handle = std::thread::Builder::new()
            .name("mgk-gram-scheduler".to_string())
            .spawn(move || {
                // `publisher` and `inbox` live on this frame: whether `run`
                // returns or unwinds on a solve panic, dropping them closes
                // the watch, unblocking every waiting consumer, and takes
                // what is still queued off the queue-depth gauge
                Worker { service, publisher: &publisher }.run(&inbox.rx, capacity)
            })
            .expect("spawning the scheduler thread");
        let client = GramClient::new(vec![Lane { tx, queue_depth }], hasher);
        GramScheduler { client, watch, registry, handle }
    }

    /// [`spawn`](Self::spawn) with a durability plane: attach the store at
    /// `durability.dir` (recovering whatever a previous life persisted —
    /// warm cache entries, the epoch counter, the newest snapshot's
    /// triangle) and only then move the service onto the scheduler thread.
    ///
    /// A recovered triangle is published immediately at its snapshot's
    /// epoch, so watchers see the pre-crash state before the first new
    /// submission; the version counter resumes past the recovered epoch,
    /// keeping watch epochs monotone across lives. Returns the scheduler
    /// plus what recovery found. Refuses a corrupt or version-skewed store
    /// with the typed error instead of serving from a misread one.
    pub fn spawn_durable(
        mut service: GramService<KV, KE, V, E>,
        config: SchedulerConfig,
        durability: crate::persist::DurabilityConfig,
    ) -> Result<(Self, crate::persist::RecoveryReport), mgk_store::StoreError> {
        let report = service.attach_store(durability)?;
        Ok((Self::spawn(service, config), report))
    }

    /// A new producer handle (cheap; clone freely across threads).
    pub fn client(&self) -> GramClient<V, E> {
        self.client.clone()
    }

    /// A typed request client carrying its answers at `T` (cheap; clone
    /// freely across threads). `kernel_client::<f32>()` serves the paper's
    /// f32 arithmetic; `kernel_client::<f64>()` resolves tickets to
    /// [`KernelResult<f64>`] end-to-end (with f64 nodal vectors on fresh
    /// solves, when the service's solver computes them).
    pub fn kernel_client<T: RequestScalar>(&self) -> KernelClient<V, E, T> {
        KernelClient::over(self.client())
    }

    /// This scheduler's command lane (what a cluster's routing client is
    /// built from).
    pub(crate) fn lane(&self) -> &Lane<V, E> {
        &self.client.lanes[0]
    }

    /// The versioned snapshot watch fed by this scheduler.
    pub fn watch(&self) -> SnapshotWatch {
        self.watch.clone()
    }

    /// The metrics registry of the scheduler's service — the scrape/pull
    /// surface. Snapshot and render it while the scheduler runs:
    ///
    /// ```ignore
    /// let text = scheduler.telemetry().snapshot().render_prometheus();
    /// ```
    pub fn telemetry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// Gracefully shut down: every submission already enqueued is drained
    /// and solved, the final snapshot is published, and the service is
    /// returned for inspection. If the scheduler thread panicked, the panic
    /// is re-raised here.
    pub fn join(self) -> GramService<KV, KE, V, E> {
        // best-effort: the thread may already be gone (e.g. after a panic),
        // in which case the join below reports it
        let _ = self.lane().send(Command::Shutdown);
        drop(self.client);
        match self.handle.join() {
            Ok(service) => service,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

/// What duplicate in-flight requests coalesce on: the *raw* content
/// identity of the ordered pair, and the precision asked for.
type Slot = ((PairSide, PairSide), Precision);

/// One request's ticket on the scheduler side: the typed resolver it
/// arrived with, its deadline, the intake stopwatch (still running — it
/// times the ticket end-to-end) and, once grouping admitted it, the queue
/// wait credited to it.
struct LiveTicket {
    resolver: KernelResolver,
    deadline: Option<Instant>,
    intake: Stopwatch,
    queue_wait_ns: u64,
}

impl LiveTicket {
    fn is_cancelled(&self) -> bool {
        match &self.resolver {
            KernelResolver::F32(resolver) => resolver.is_cancelled(),
            KernelResolver::F64(resolver) => resolver.is_cancelled(),
        }
    }

    /// Wake the ticket: the one place an answer takes the ticket's type.
    fn resolve(self, answer: &Result<KernelResult<f64>, RequestError>) {
        match self.resolver {
            KernelResolver::F32(r) => r.resolve(make::<f32>(answer, self.queue_wait_ns)),
            KernelResolver::F64(r) => r.resolve(make::<f64>(answer, self.queue_wait_ns)),
        }
    }
}

/// The tickets of one drain that share a [`Slot`], in arrival order, with
/// the pair as the first of them spelled it.
struct RequestGroup<V, E> {
    /// Position of the group's first request in the drain.
    arrival: usize,
    left: Graph<V, E>,
    right: Graph<V, E>,
    tickets: Vec<LiveTicket>,
}

/// The receiving half of the command channel, with the gauge its senders
/// raise. Commands still queued when the scheduler thread leaves — a
/// producer racing the shutdown, or a solve panic mid-batch — are dropped
/// with the receiver; their units leave the gauge here, because the hub
/// outlives the thread and is where the next life's gauge starts.
struct Inbox<V, E> {
    rx: Receiver<Command<V, E>>,
    queue_depth: Gauge,
}

impl<V, E> Drop for Inbox<V, E> {
    fn drop(&mut self) {
        // a send landing between this sweep and the receiver's own drop,
        // just below, is the one window left; after it, sends fail and
        // `Lane::send` unwinds its own units
        for command in self.rx.try_iter() {
            self.queue_depth.add(-command.queue_units());
        }
    }
}

/// The scheduler thread's state: the service it owns and the watch it
/// publishes to.
struct Worker<'p, KV, KE, V, E> {
    service: GramService<KV, KE, V, E>,
    publisher: &'p SnapshotPublisher,
}

impl<KV, KE, V, E> Worker<'_, KV, KE, V, E>
where
    V: Clone + Send + Sync + ContentHash,
    E: Copy + Default + Send + Sync + ContentHash,
    KV: BaseKernel<V> + Clone + Send + Sync,
    KE: BaseKernel<E> + Clone + Send + Sync,
{
    /// The thread body: receive, coalesce, flush, publish, repeat.
    fn run(mut self, rx: &Receiver<Command<V, E>>, capacity: usize) -> GramService<KV, KE, V, E> {
        let metrics = self.service.metrics().clone();

        // hand-off state: flush anything already pending, publish warm state —
        // or, on a durable cold start, the triangle recovered from the store's
        // newest snapshot (at the snapshot's own epoch, strictly below every
        // epoch a future admitting flush will publish)
        if self.service.num_pending() > 0 {
            self.flush_and_publish();
        } else if self.service.num_structures() > 0 {
            self.publish();
        } else if let Some((epoch, source)) = self.service.take_recovered_source() {
            let _span = metrics.stage_publish.span();
            self.publisher.publish(epoch, source);
        }

        loop {
            let first = match rx.recv() {
                Ok(cmd) => cmd,
                // every client is gone: nothing more can arrive
                Err(_) => break,
            };
            // coalesce whatever has queued up behind the first command into one
            // batch — under load, many submissions amortize into one flush. The
            // drain is capped at one channel's worth per batch: producers
            // refilling the channel as fast as we drain it must not postpone
            // the flush (and any barrier) indefinitely
            let mut commands = vec![first];
            while commands.len() <= capacity {
                match rx.try_recv() {
                    Ok(cmd) => commands.push(cmd),
                    Err(_) => break,
                }
            }
            // the drained commands leave the queue now, taking the units their
            // senders raised the gauge by with them
            for command in &commands {
                metrics.queue_depth.add(-command.queue_units());
            }
            // raised for the whole processing cycle; RAII so a solve panic
            // unwinding through `run` cannot leave the gauge stuck at 1
            let _busy = metrics.scheduler_busy.track();

            let mut shutdown = false;
            let mut barriers: Vec<mpsc::Sender<(u64, usize)>> = Vec::new();
            let mut requests: Vec<KernelRequest<V, E>> = Vec::new();
            for command in commands {
                match command {
                    Command::Submit(routed) => self.admit(routed),
                    Command::SubmitAll(batch) => {
                        for routed in batch {
                            self.admit(routed);
                        }
                    }
                    Command::Barrier(reply) => barriers.push(reply),
                    Command::Request(req) => requests.push(*req),
                    Command::Shutdown => shutdown = true,
                }
            }

            if self.service.num_pending() > 0 {
                self.flush_and_publish();
            }
            // the request lane runs after the flush lane so requests in the
            // same drain see the freshest cache (and before the barrier
            // replies, so a barrier-then-wait consumer cannot outrun them)
            self.serve_requests(requests);
            // request-lane folds append to the WAL without a flush boundary of
            // their own: sync what they appended before the drain cycle ends
            self.service.persist_request_boundary();
            for barrier in barriers {
                // a client that gave up waiting is not an error
                let _ = barrier.send((self.service.version(), self.service.num_structures()));
            }
            if shutdown {
                // commands a racing producer enqueued *after* the shutdown are
                // dropped with the inbox; everything before it was drained
                // (requests among them resolve Closed as their resolvers drop)
                break;
            }
        }
        // graceful exit: capture a final snapshot so the next life replays a
        // compact snapshot instead of the whole log tail
        self.service.persist_final_snapshot();
        self.service
    }

    /// The request lane: group the drained requests by pair identity and
    /// precision, skip what cannot or need not run (cancelled, expired,
    /// cache-answerable), and solve once per surviving group — every ticket
    /// of a group is woken from the shared answer.
    fn serve_requests(&mut self, requests: Vec<KernelRequest<V, E>>) {
        if requests.is_empty() {
            return;
        }
        // coalesce: one group per (pair identity, precision), keyed by the
        // *raw* content identity so duplicates share the per-pair
        // preprocessing (reordering) as well as the solve — preparation
        // runs once per group, below, not once per ticket. The key is the
        // ORDERED side pair, not the normalized PairKey: when the solver
        // computes nodal vectors, a solved request's vector is laid out in
        // the request's orientation (row-major n_left × n_right), so (A, B)
        // and (B, A) must not share one solve result — the second
        // orientation resolves from the symmetric cache entry the first one
        // inserts (value only, no transposed vector)
        let mut groups: HashMap<Slot, RequestGroup<V, E>> = HashMap::new();
        // a span, not a stopwatch: the content hashers grouping calls into
        // can panic (tests rely on it), and the drain stage must stay
        // balanced through that unwind
        let drain_span = self.service.metrics().stage_drain.span();
        for (arrival, request) in requests.into_iter().enumerate() {
            self.coalesce(&mut groups, arrival, request);
        }
        drop(drain_span);
        // back in the order the groups' first requests arrived
        let mut groups: Vec<_> = groups.into_iter().collect();
        groups.sort_unstable_by_key(|(_, group)| group.arrival);

        // consecutive groups with *distinct* normalized pair identities
        // solve together in one wave; a group whose identity the open wave
        // holds closes it first, so same-key groups keep their sequential
        // cache dependency (e.g. the mirrored orientation of a pair
        // answers, value-only, from the entry its sibling's fold inserts)
        let mut wave = Wave::new();
        for (slot, group) in groups {
            self.stage(&mut wave, group, slot);
        }
        let landed = self.service.close(&mut wave);
        self.finish(landed);
    }

    /// The checkpoint a ticket passes before work is done for it: a dropped
    /// ticket is skipped (dropping its resolver is the whole skip), one past
    /// its deadline resolves [`RequestError::Expired`], counted in
    /// `expired`; any other comes back.
    fn still_wanted(&self, ticket: LiveTicket, expired: &Counter) -> Option<LiveTicket> {
        if ticket.is_cancelled() {
            self.service.metrics().requests_cancelled.inc();
            return None;
        }
        if ticket.deadline.is_some_and(|d| Instant::now() >= d) {
            expired.inc();
            ticket.resolve(&Err(RequestError::Expired));
            return None;
        }
        Some(ticket)
    }

    /// The in-queue checkpoint of one request: attach its ticket, if still
    /// wanted, to its slot's group, opening the group if it is the slot's
    /// first.
    fn coalesce(
        &mut self,
        groups: &mut HashMap<Slot, RequestGroup<V, E>>,
        arrival: usize,
        request: KernelRequest<V, E>,
    ) {
        let KernelRequest { left, right, sides, precision, deadline, resolver, intake } = request;
        let ticket = LiveTicket { resolver, deadline, intake, queue_wait_ns: 0 };
        let expired = &self.service.metrics().requests_expired_in_queue;
        let Some(mut ticket) = self.still_wanted(ticket, expired) else { return };
        // the queue-wait stage ends here, where grouping admits the ticket
        ticket.queue_wait_ns = ticket.intake.elapsed_ns();
        self.service.metrics().stage_queue_wait.record(ticket.queue_wait_ns);
        // a routing client hashed both sides already; only a one-lane
        // request is identified here
        let sides = sides.unwrap_or_else(|| {
            let hasher = self.service.content_hasher();
            (PairSide::of(hasher, &left), PairSide::of(hasher, &right))
        });
        match groups.entry((sides, precision)) {
            Entry::Occupied(mut group) => {
                self.service.metrics().requests_coalesced.inc();
                group.get_mut().tickets.push(ticket);
            }
            Entry::Vacant(slot) => {
                slot.insert(RequestGroup { arrival, left, right, tickets: vec![ticket] });
            }
        }
    }

    /// Feed one group to the wave: drop its stale tickets, prepare its
    /// pair, claim it with the surviving tickets as payload, and answer
    /// whatever wave that closed.
    fn stage(
        &mut self,
        wave: &mut Wave<V, E, Vec<LiveTicket>>,
        group: RequestGroup<V, E>,
        (sides, precision): Slot,
    ) {
        // cancellations and deadlines may have landed while earlier groups
        // solved; re-check so no solve starts for a fully stale group
        let expired = &self.service.metrics().requests_expired_pre_solve;
        let live: Vec<LiveTicket> =
            group.tickets.into_iter().filter_map(|t| self.still_wanted(t, expired)).collect();
        if live.is_empty() {
            return;
        }
        // one preparation per group, shared by every coalesced ticket;
        // runs on the owning thread — it may mutate the reorder cache. The
        // slot's sides are the identity of these very graphs, computed by
        // the routing client or, for a one-lane request, when the group
        // opened: nothing is hashed a second time
        let prepared = self.service.prepare_keyed(sides, &group.left, &group.right);
        let landed = self.service.feed(wave, prepared, precision, precision, live);
        self.finish(landed);
    }

    /// The request lane's sink: for every group of one closed wave, in
    /// arrival order, replay its cache entry or pass its folded solve on,
    /// and wake every coalesced ticket from it.
    fn finish(&mut self, landed: Landed<V, E, Vec<LiveTicket>>) {
        for Claim { pair, payload: tickets, answer, .. } in landed {
            let shared = match answer {
                Answer::Cached(entry) => {
                    self.service.metrics().request_cache_answers.inc();
                    Ok(replay_entry(&entry, pair.prepare_ns()))
                }
                // the entry was tagged with the precision the solve ran at,
                // so an f64 one answers later f32 and f64 requests alike
                Answer::Fresh(result) => {
                    if result.is_ok() {
                        self.service.metrics().request_solves.inc();
                    }
                    result.map_err(RequestError::Solver)
                }
            };
            // each ticket's end-to-end latency is recorded at the moment of
            // its resolution
            for ticket in tickets {
                self.service.metrics().request_latency.record(ticket.intake.elapsed_ns());
                ticket.resolve(&shared);
            }
        }
    }

    /// Queue one structure, with the identity its client routed it by,
    /// into the service, flushing mid-batch if the service's own pending
    /// bound fills up first.
    fn admit(&mut self, (g, side): Routed<V, E>) {
        if self.service.num_pending() >= self.service.config().max_pending {
            // the service queue is smaller than the coalesced batch: flush what
            // is pending (publishing the intermediate epoch) so the submission
            // below cannot hit backpressure
            self.flush_and_publish();
        }
        match self.service.submit_routed(g, side) {
            Ok(_) => {}
            Err(GramServiceError::Backpressure { .. }) => {
                debug_assert!(false, "queue was flushed; backpressure is impossible here");
            }
            // the client already rejects empty structures; dropping a stray one
            // mirrors GramService::submit_all
            Err(GramServiceError::EmptyStructure) => {}
        }
    }

    /// Flush the service and publish the fresh snapshot under its new version.
    fn flush_and_publish(&mut self) {
        // an epoch nobody observed still shares the service's triangle: drop
        // that share first so the flush below appends in place instead of
        // paying a copy-on-write clone for a snapshot nobody will ever build
        self.publisher.retire_unobserved();
        self.service.flush();
        self.publish();
    }

    /// Publish the service's current snapshot *source* at its current version.
    ///
    /// Publication is lazy: only the raw triangle is captured here. The dense
    /// O(n²) snapshot is materialized by the watch on the first
    /// `wait_newer`/`latest` that observes the epoch, so flushes nobody
    /// watches never build a matrix (see `SnapshotWatch::snapshot_builds`).
    fn publish(&mut self) {
        let _span = self.service.metrics().stage_publish.span();
        self.publisher.publish(self.service.version(), self.service.snapshot_source());
    }
}

/// A cache entry replayed as an answer: the stored full-precision value,
/// no nodal vector (the cache keeps values, not megabyte vectors), no fresh
/// traffic, and the group's preparation cost stamped on (preparation ran
/// even though the solve was skipped).
fn replay_entry(entry: &CachedEntry, prepare_ns: u64) -> KernelResult<f64> {
    KernelResult {
        value: entry.value_f64,
        value_f64: entry.value_f64,
        iterations: entry.iterations,
        converged: true,
        relative_residual: entry.relative_residual,
        traffic: TrafficCounters::new(),
        nodal: None,
        stages: StageBreakdown { prepare_ns, ..StageBreakdown::default() },
    }
}

/// The typed answer one ticket wakes with: its group's shared one narrowed
/// with the `from_f64` the solver itself would have used to carry it at
/// `T`, and stamped with the ticket's own queue wait — coalesced tickets
/// share the solve, not the wait.
fn make<T: Scalar>(
    answer: &Result<KernelResult<f64>, RequestError>,
    queue_wait_ns: u64,
) -> Result<KernelResult<T>, RequestError> {
    let result = answer.as_ref().map_err(Clone::clone)?;
    let nodal = result.nodal.as_ref().map(|wide| wide.iter().map(|&v| T::from_f64(v)).collect());
    Ok(KernelResult {
        value: T::from_f64(result.value_f64),
        value_f64: result.value_f64,
        iterations: result.iterations,
        converged: result.converged,
        relative_residual: result.relative_residual,
        traffic: result.traffic,
        nodal,
        stages: StageBreakdown { queue_wait_ns, ..result.stages },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::graph_content_hash;
    use crate::service::GramServiceConfig;
    use mgk_core::{MarginalizedKernelSolver, SolverConfig};
    use mgk_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    type UnlabeledScheduler = GramScheduler<
        mgk_kernels::UnitKernel,
        mgk_kernels::UnitKernel,
        mgk_graph::Unlabeled,
        mgk_graph::Unlabeled,
    >;

    fn dataset(n: usize, seed: u64) -> Vec<Graph> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|k| generators::newman_watts_strogatz(10 + k % 4, 2, 0.2, &mut rng)).collect()
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

    /// [`service`] over a solver that computes nodal vectors.
    fn nodal_service(config: GramServiceConfig) -> UnlabeledService {
        let nodal = SolverConfig { compute_nodal: true, ..SolverConfig::default() };
        GramService::new(MarginalizedKernelSolver::unlabeled(nodal), config)
    }

    fn spawn_default() -> UnlabeledScheduler {
        GramScheduler::spawn(service(GramServiceConfig::default()), SchedulerConfig::default())
    }

    #[test]
    fn submissions_flow_through_the_background_thread() {
        let scheduler = spawn_default();
        let client = scheduler.client();
        let graphs = dataset(3, 5);
        for g in &graphs {
            client.submit(g.clone()).unwrap();
        }
        let reply = client.flush().unwrap();
        assert_eq!(reply.num_structures, 3);
        assert!(reply.epoch >= 1);

        // the barrier guarantees the snapshot is published
        let latest = scheduler.watch().latest().expect("snapshot published after the barrier");
        assert_eq!(latest.snapshot.num_graphs, 3);
        assert!(latest.snapshot.matrix.iter().all(|v| v.is_finite()));

        let svc = scheduler.join();
        assert_eq!(svc.num_structures(), 3);
        assert_eq!(svc.stats().jobs_executed, 3 * 4 / 2);
    }

    #[test]
    fn join_drains_outstanding_submissions() {
        let scheduler = spawn_default();
        let client = scheduler.client();
        let graphs = dataset(5, 11);
        let n = client.submit_all(graphs).unwrap();
        assert_eq!(n, 5);
        // no barrier: join itself must drain and solve everything enqueued
        let svc = scheduler.join();
        assert_eq!(svc.num_structures(), 5);
        assert_eq!(svc.stats().jobs_executed, 5 * 6 / 2);
        assert_eq!(svc.num_pending(), 0);
    }

    #[test]
    fn a_panicking_solve_propagates_to_join_and_closes_the_watch() {
        let panicking: fn(&Graph) -> u64 = |_| panic!("forced solve-path panic");
        let svc = service(GramServiceConfig::default()).with_content_hasher(panicking);
        let scheduler = GramScheduler::spawn(svc, SchedulerConfig::default());
        let client = scheduler.client();
        let watch = scheduler.watch();

        client.submit(dataset(1, 13).pop().unwrap()).unwrap();
        // the thread dies flushing; consumers must be unblocked, not hung
        assert_eq!(watch.wait_newer(0).unwrap_err(), crate::watch::WatchClosed);
        let propagated = catch_unwind(AssertUnwindSafe(move || scheduler.join()));
        assert!(propagated.is_err(), "the scheduler panic was swallowed");
        // post-mortem clients observe closure, not deadlock
        assert_eq!(client.flush(), Err(SchedulerError::Closed));
    }

    #[test]
    fn wait_newer_wakes_exactly_once_per_epoch() {
        let scheduler = spawn_default();
        let client = scheduler.client();
        let watch = scheduler.watch();
        let graphs = dataset(2, 17);

        client.submit(graphs[0].clone()).unwrap();
        let first_epoch = client.flush().unwrap().epoch;
        let v1 = watch.wait_newer(0).unwrap();
        assert_eq!(v1.epoch, first_epoch);
        assert_eq!(v1.snapshot.num_graphs, 1);

        client.submit(graphs[1].clone()).unwrap();
        let second_epoch = client.flush().unwrap().epoch;
        assert_eq!(second_epoch, first_epoch + 1, "one epoch per completed flush");
        let v2 = watch.wait_newer(v1.epoch).unwrap();
        assert_eq!(v2.epoch, second_epoch);
        assert_eq!(v2.snapshot.num_graphs, 2);

        scheduler.join();
        // nothing newer ever arrives: the consumer is woken for closure,
        // not handed a stale epoch twice
        assert_eq!(watch.wait_newer(v2.epoch).unwrap_err(), crate::watch::WatchClosed);
    }

    #[test]
    fn empty_structures_are_rejected_client_side() {
        let scheduler = spawn_default();
        let client = scheduler.client();
        let empty: Graph = Graph::from_edge_list(0, &[]);
        assert_eq!(client.submit(empty.clone()), Err(SchedulerError::EmptyStructure));
        assert_eq!(client.submit_all(vec![empty]), Ok(0));
        assert_eq!(client.flush().unwrap().num_structures, 0);
        scheduler.join();
    }

    #[test]
    fn a_prewarmed_service_publishes_its_snapshot_on_spawn() {
        let mut svc = service(GramServiceConfig::default());
        for g in dataset(3, 23) {
            svc.submit(g).unwrap();
        }
        svc.flush();
        let warm_version = svc.version();

        let scheduler = GramScheduler::spawn(svc, SchedulerConfig::default());
        let v = scheduler.watch().wait_newer(0).unwrap();
        assert_eq!(v.epoch, warm_version);
        assert_eq!(v.snapshot.num_graphs, 3);
        scheduler.join();
    }

    #[test]
    fn unwatched_epochs_do_not_build_snapshots() {
        let scheduler = spawn_default();
        let client = scheduler.client();
        let watch = scheduler.watch();
        let graphs = dataset(4, 31);

        // three admitting flushes, no consumer looking: the solves run and
        // the epochs advance, but no O(n²) snapshot is ever materialized
        let mut last_epoch = 0;
        for g in &graphs[..3] {
            client.submit(g.clone()).unwrap();
            last_epoch = client.flush().unwrap().epoch;
        }
        assert!(last_epoch >= 3);
        assert_eq!(watch.snapshot_builds(), 0, "unwatched epochs must not build snapshots");

        // the first observation builds exactly one snapshot — of the
        // newest epoch only, the skipped ones stay unbuilt forever
        let v = watch.wait_newer(0).unwrap();
        assert_eq!(v.epoch, last_epoch);
        assert_eq!(v.snapshot.num_graphs, 3);
        assert_eq!(watch.snapshot_builds(), 1);
        // repeat polls reuse the cached build
        assert_eq!(watch.latest().unwrap().epoch, last_epoch);
        assert_eq!(watch.snapshot_builds(), 1);
        scheduler.join();
    }

    // A second gate for the request-lane tests, so they never contend with
    // the backpressure test's gate.
    static REQUEST_GATE: Mutex<()> = Mutex::new(());

    fn request_gated_hash(g: &Graph) -> u64 {
        let _held = REQUEST_GATE.lock().unwrap();
        graph_content_hash(g)
    }

    #[test]
    fn requests_resolve_with_correct_values_and_cache_answers() {
        let scheduler = GramScheduler::spawn(
            nodal_service(GramServiceConfig::default()),
            SchedulerConfig::default(),
        );
        let kernels = scheduler.kernel_client::<f32>();
        let graphs = dataset(2, 101);
        let direct = MarginalizedKernelSolver::unlabeled(SolverConfig::default())
            .kernel(&graphs[0], &graphs[1])
            .unwrap();

        let ticket = kernels.request(graphs[0].clone(), graphs[1].clone()).unwrap();
        let first = ticket.wait().expect("request must resolve");
        assert!(first.converged);
        assert!(first.nodal.is_some(), "a solved request carries its nodal vector");
        assert!(
            (first.value - direct.value).abs() <= 1e-4 * direct.value.abs(),
            "request {} vs direct {}",
            first.value,
            direct.value
        );

        // the same pair again: answered from the cache, no second solve
        let again = kernels.request(graphs[0].clone(), graphs[1].clone()).unwrap();
        let second = again.wait().unwrap();
        assert_eq!(second.value, first.value);

        let svc = scheduler.join();
        assert_eq!(svc.stats().request_solves, 1);
        assert_eq!(svc.stats().request_cache_answers, 1);
    }

    #[test]
    fn empty_requests_are_rejected_client_side() {
        let scheduler = spawn_default();
        let kernels = scheduler.kernel_client::<f32>();
        let empty: Graph = Graph::from_edge_list(0, &[]);
        let g = dataset(1, 107).pop().unwrap();
        assert!(matches!(
            kernels.request(empty.clone(), g.clone()),
            Err(SchedulerError::EmptyStructure)
        ));
        assert!(matches!(kernels.request(g, empty), Err(SchedulerError::EmptyStructure)));
        scheduler.join();
    }

    #[test]
    fn coalesced_requests_for_one_pair_solve_once_and_all_wake() {
        let gate = REQUEST_GATE.lock().unwrap();
        let svc = service(GramServiceConfig::default()).with_content_hasher(request_gated_hash);
        let scheduler = GramScheduler::spawn(svc, SchedulerConfig::default());
        let producers = scheduler.client();
        let kernels = scheduler.kernel_client::<f32>();
        let graphs = dataset(3, 103);

        // park the scheduler inside a gated flush, so every request below
        // lands in one coalesced drain
        producers.submit(graphs[2].clone()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        let tickets: Vec<_> = (0..6)
            .map(|_| kernels.request(graphs[0].clone(), graphs[1].clone()).unwrap())
            .collect();
        drop(gate);

        let values: Vec<f32> = tickets.iter().map(|t| t.wait().unwrap().value).collect();
        assert!(values.iter().all(|v| v.is_finite()));
        assert!(values.windows(2).all(|w| w[0] == w[1]), "all tickets share one answer");

        let svc = scheduler.join();
        assert_eq!(svc.stats().request_solves, 1, "six tickets, exactly one solve");
        assert_eq!(svc.stats().requests_coalesced, 5);
        assert_eq!(svc.stats().request_cache_answers, 0);
    }

    #[test]
    fn mixed_precisions_for_one_pair_group_apart_and_share_the_cache() {
        let gate = REQUEST_GATE.lock().unwrap();
        let svc =
            nodal_service(GramServiceConfig::default()).with_content_hasher(request_gated_hash);
        let scheduler = GramScheduler::spawn(svc, SchedulerConfig::default());
        let producers = scheduler.client();
        let single = scheduler.kernel_client::<f32>();
        let double = scheduler.kernel_client::<f64>();
        let graphs = dataset(4, 173);
        let (a, b, c) = (&graphs[0], &graphs[1], &graphs[2]);
        let solver = MarginalizedKernelSolver::unlabeled(SolverConfig::default());
        let direct_ab = solver.kernel_at::<f64, _, _>(a, b).unwrap().value;
        let direct_ac = solver.kernel_at::<f64, _, _>(a, c).unwrap().value;
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-5 * want.abs();

        // park the scheduler inside a gated flush, so all five requests
        // land in one drain: four groups, in this order
        producers.submit(graphs[3].clone()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        let ab_f32: Vec<_> =
            (0..2).map(|_| single.request(a.clone(), b.clone()).unwrap()).collect();
        let ab_f64 = double.request(a.clone(), b.clone()).unwrap();
        let ac_f64 = double.request(a.clone(), c.clone()).unwrap();
        let ac_f32 = single.request(a.clone(), c.clone()).unwrap();
        drop(gate);

        // every ticket resolves at its own carrier type
        let served: Vec<KernelResult<f32>> = ab_f32.iter().map(|t| t.wait().unwrap()).collect();
        assert_eq!(served[0].value, served[1].value, "the two f32 tickets share one solve");
        assert!(close(served[0].value as f64, direct_ab));
        let exact: KernelResult<f64> = ab_f64.wait().unwrap();
        assert!(close(exact.value, direct_ab), "f64 {} vs direct {direct_ab}", exact.value);
        assert!(exact.nodal.is_some(), "the f64 group ran its own solve");
        let other: KernelResult<f64> = ac_f64.wait().unwrap();
        assert!(close(other.value, direct_ac), "f64 {} vs direct {direct_ac}", other.value);
        // the f32 (A,C) group closed the wave that held the f64 (A,C) group
        // and found its upgraded entry: the f64 group's value, narrowed
        let replayed: KernelResult<f32> = ac_f32.wait().unwrap();
        assert_eq!(replayed.value, other.value as f32);

        // a late f32 request accepts the f64 entry too, and so does the
        // mirrored orientation
        let late = single.request(a.clone(), b.clone()).unwrap().wait().unwrap();
        assert_eq!(late.value, exact.value as f32);
        let mirrored = single.request(b.clone(), a.clone()).unwrap().wait().unwrap();

        // and each of them is, bit for bit, the front door's answer at its
        // own carrier: the solver the service holds and the prepared pair,
        // whatever the service solved before
        let solver = solver.with_config(SolverConfig { compute_nodal: true, ..*solver.config() });
        let [pa, pb, pc] = [a, b, c].map(|g| solver.prepare_graph(g));
        let cold_f32 = solver.kernel_prepared::<f32, _, _>(&pa, &pb, Precision::F32).unwrap();
        for ticket in &served {
            assert_same_solve(ticket, &cold_f32);
        }
        let cold_f64 = solver.kernel_prepared::<f64, _, _>(&pa, &pb, Precision::F64).unwrap();
        assert_same_solve(&exact, &cold_f64);
        let cold_ac = solver.kernel_prepared::<f64, _, _>(&pa, &pc, Precision::F64).unwrap();
        assert_same_solve(&other, &cold_ac);
        // cache replays: an f64 solve's entry, value only
        let replay_f32 = |solved: &KernelResult<f64>| KernelResult {
            value: solved.value_f64 as f32,
            value_f64: solved.value_f64,
            iterations: solved.iterations,
            converged: true,
            relative_residual: solved.relative_residual,
            traffic: TrafficCounters::new(),
            nodal: None,
            stages: StageBreakdown::default(),
        };
        assert_same_solve(&replayed, &replay_f32(&cold_ac));
        assert_same_solve(&late, &replay_f32(&cold_f64));
        assert_same_solve(&mirrored, &replay_f32(&cold_f64));

        let svc = scheduler.join();
        assert_eq!(svc.stats().requests_coalesced, 1, "precisions never coalesce with each other");
        assert_eq!(svc.stats().request_solves, 3, "(A,B) f32, (A,B) f64, (A,C) f64");
        assert_eq!(
            svc.stats().request_cache_answers,
            3,
            "the (A,C) f32 group, the late f32 and its mirror"
        );
    }

    fn bits<T: Scalar>(values: &[T]) -> Vec<u64> {
        values.iter().map(|v| v.to_f64().to_bits()).collect()
    }

    /// A woken ticket against the front door's result for the same solve:
    /// value, full-precision value, iteration count, residual, traffic and
    /// nodal vector, bit for bit (stages are the lane's to stamp).
    fn assert_same_solve<T: Scalar>(ticket: &KernelResult<T>, front_door: &KernelResult<T>) {
        assert_eq!(ticket.value.to_f64().to_bits(), front_door.value.to_f64().to_bits());
        assert_eq!(ticket.value_f64.to_bits(), front_door.value_f64.to_bits());
        assert_eq!(ticket.iterations, front_door.iterations);
        assert_eq!(ticket.relative_residual.to_bits(), front_door.relative_residual.to_bits());
        assert_eq!(ticket.traffic, front_door.traffic);
        assert_eq!(ticket.nodal.as_deref().map(bits), front_door.nodal.as_deref().map(bits));
    }

    #[test]
    fn opposite_orientations_never_share_a_transposed_nodal_vector() {
        let gate = REQUEST_GATE.lock().unwrap();
        let svc =
            nodal_service(GramServiceConfig::default()).with_content_hasher(request_gated_hash);
        let scheduler = GramScheduler::spawn(svc, SchedulerConfig::default());
        let producers = scheduler.client();
        let kernels = scheduler.kernel_client::<f32>();
        // different vertex counts, so a transposed nodal layout would be
        // silently wrong rather than shape-checked
        let graphs = dataset(3, 149);
        let (a, b) = (graphs[0].clone(), graphs[1].clone());
        assert_ne!(a.num_vertices(), b.num_vertices());

        // park the scheduler so both orientations land in one drain
        producers.submit(graphs[2].clone()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        let ab = kernels.request(a.clone(), b.clone()).unwrap();
        let ba = kernels.request(b.clone(), a.clone()).unwrap();
        drop(gate);

        let first = ab.wait().unwrap();
        let second = ba.wait().unwrap();
        // the kernel is symmetric, so the values agree …
        assert_eq!(first.value, second.value);
        // … but the two orientations must not have shared one solve: the
        // first solves (nodal in ITS orientation), the mirrored request is
        // answered from the symmetric cache entry, value-only
        assert_eq!(
            first.nodal.expect("the solved orientation carries its nodal vector").len(),
            a.num_vertices() * b.num_vertices()
        );
        assert!(second.nodal.is_none(), "no transposed vector may be handed out");

        let svc = scheduler.join();
        assert_eq!(svc.stats().request_solves, 1);
        assert_eq!(svc.stats().request_cache_answers, 1);
        assert_eq!(svc.stats().requests_coalesced, 0, "orientations must not coalesce");
    }

    #[test]
    fn tickets_carry_nodal_vectors_only_from_fresh_solves_of_a_nodal_solver() {
        let graphs = dataset(4, 197);
        let (a, b, c) = (&graphs[0], &graphs[1], &graphs[2]);

        // a default solver computes none: a fresh solve, a coalesced burst
        // and a cache answer all come back without a vector
        let gate = REQUEST_GATE.lock().unwrap();
        let svc = service(GramServiceConfig::default()).with_content_hasher(request_gated_hash);
        let scheduler = GramScheduler::spawn(svc, SchedulerConfig::default());
        let kernels = scheduler.kernel_client::<f32>();
        // park the scheduler so the fresh request and the burst land in one
        // drain
        scheduler.client().submit(graphs[3].clone()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        let fresh = kernels.request(a.clone(), b.clone()).unwrap();
        let burst: Vec<_> =
            (0..3).map(|_| kernels.request(a.clone(), c.clone()).unwrap()).collect();
        drop(gate);
        assert_eq!(fresh.wait().unwrap().nodal, None);
        for ticket in &burst {
            assert_eq!(ticket.wait().unwrap().nodal, None);
        }
        let cached = kernels.request(a.clone(), b.clone()).unwrap().wait().unwrap();
        assert_eq!(cached.nodal, None);
        let svc = scheduler.join();
        assert_eq!(svc.stats().request_solves, 2);
        assert_eq!(svc.stats().requests_coalesced, 2);
        assert_eq!(svc.stats().request_cache_answers, 1);

        // a solver that computes them: a fresh f32 ticket carries the front
        // door's vector, bit for bit
        let solver = MarginalizedKernelSolver::unlabeled(SolverConfig {
            precision: Precision::F32,
            compute_nodal: true,
            ..SolverConfig::default()
        });
        let scheduler = GramScheduler::spawn(
            GramService::new(solver.clone(), GramServiceConfig::default()),
            SchedulerConfig::default(),
        );
        let ticket = scheduler.kernel_client::<f32>().request(a.clone(), b.clone()).unwrap();
        let ticket = ticket.wait().unwrap();
        scheduler.join();
        let front_door = solver.kernel(a, b).unwrap();
        assert!(front_door.nodal.is_some());
        assert_same_solve(&ticket, &front_door);
    }

    #[test]
    fn a_group_whose_key_the_wave_holds_is_answered_or_solved_after_it() {
        // (cache capacity, solves, cache answers): the mirrored group waits
        // for its sibling's wave, then probes — a value-only cache answer
        // when the cache kept the sibling's entry, a solve of its own
        // (in its own orientation) when it could not
        for (cache_capacity, solves, cache_answers) in [(4096, 1, 1), (0, 2, 0)] {
            let gate = REQUEST_GATE.lock().unwrap();
            let svc = nodal_service(GramServiceConfig { cache_capacity, ..Default::default() })
                .with_content_hasher(request_gated_hash);
            let scheduler = GramScheduler::spawn(svc, SchedulerConfig::default());
            let producers = scheduler.client();
            let kernels = scheduler.kernel_client::<f32>();
            let graphs = dataset(3, 191);
            let (a, b) = (graphs[0].clone(), graphs[1].clone());
            assert_ne!(a.num_vertices(), b.num_vertices());

            // park the scheduler so both orientations land in one drain
            producers.submit(graphs[2].clone()).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(10));
            let ab = kernels.request(a.clone(), b.clone()).unwrap();
            let ba = kernels.request(b.clone(), a.clone()).unwrap();
            drop(gate);

            let first = ab.wait().unwrap();
            let second = ba.wait().unwrap();
            assert!((first.value - second.value).abs() <= 1e-4 * first.value.abs());
            assert_eq!(
                second.nodal.map(|nodal| nodal.len()),
                (solves == 2).then_some(b.num_vertices() * a.num_vertices()),
                "cache_capacity {cache_capacity}"
            );
            let svc = scheduler.join();
            assert_eq!(svc.stats().request_solves, solves, "cache_capacity {cache_capacity}");
            assert_eq!(svc.stats().request_cache_answers, cache_answers);
            assert_eq!(svc.stats().failures, 0);
        }
    }

    #[test]
    fn an_unrepresentable_deadline_is_no_deadline() {
        let scheduler = spawn_default();
        let kernels = scheduler.kernel_client::<f32>();
        let graphs = dataset(2, 179);
        // `Instant::now() + Duration::MAX` overflows; the request must be
        // accepted and served, not panic the producer
        let ticket = kernels
            .request_within(graphs[0].clone(), graphs[1].clone(), std::time::Duration::MAX)
            .unwrap();
        assert!(ticket.wait().is_ok());
        let svc = scheduler.join();
        assert_eq!(svc.stats().requests_expired, 0);
    }

    #[test]
    fn a_one_lane_client_routes_to_zero_without_hashing() {
        let panicking: fn(&Graph) -> u64 = |_| panic!("a one-lane client must not hash");
        let svc = service(GramServiceConfig::default()).with_content_hasher(panicking);
        let scheduler = GramScheduler::spawn(svc, SchedulerConfig::default());
        let kernels = scheduler.kernel_client::<f32>();
        let graphs = dataset(2, 181);
        assert_eq!(kernels.shard_of(&graphs[0], &graphs[1]), 0);
        assert_eq!(kernels.shard_of(&graphs[1], &graphs[0]), 0);
        scheduler.join();
    }

    // Counts every call: the identity test below is the only user, so the
    // count is its own.
    static HASH_CALLS: AtomicUsize = AtomicUsize::new(0);

    fn counting_hash(g: &Graph) -> u64 {
        HASH_CALLS.fetch_add(1, Ordering::SeqCst);
        graph_content_hash(g)
    }

    #[test]
    fn a_request_is_identified_once_on_the_scheduler_thread() {
        let svc = service(GramServiceConfig::default()).with_content_hasher(counting_hash);
        let scheduler = GramScheduler::spawn(svc, SchedulerConfig::default());
        let kernels = scheduler.kernel_client::<f32>();
        let graphs = dataset(2, 197);
        let ask = || kernels.request(graphs[0].clone(), graphs[1].clone()).unwrap().wait().unwrap();

        // the first request prepares both structures (hashing their prepared
        // forms too); the repeat finds them prepared and the pair cached
        ask();
        let before = HASH_CALLS.load(Ordering::SeqCst);
        ask();
        // a one-lane client hashes nothing to route; grouping hashes each
        // side once, and preparation reuses those identities
        assert_eq!(HASH_CALLS.load(Ordering::SeqCst) - before, 2, "one hash per side");
        let svc = scheduler.join();
        assert_eq!(svc.stats().request_cache_answers, 1);
        assert_eq!(svc.stats().reorder_hits, 2, "the repeat prepared nothing");
    }

    #[test]
    fn a_deadline_expiring_mid_queue_skips_the_solve() {
        let gate = REQUEST_GATE.lock().unwrap();
        let svc = service(GramServiceConfig::default()).with_content_hasher(request_gated_hash);
        let scheduler = GramScheduler::spawn(svc, SchedulerConfig::default());
        let producers = scheduler.client();
        let kernels = scheduler.kernel_client::<f32>();
        let graphs = dataset(3, 109);

        producers.submit(graphs[2].clone()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        let ticket = kernels
            .request_within(
                graphs[0].clone(),
                graphs[1].clone(),
                std::time::Duration::from_millis(20),
            )
            .unwrap();
        // the deadline passes while the request waits behind the gate
        std::thread::sleep(std::time::Duration::from_millis(40));
        drop(gate);

        assert_eq!(ticket.wait(), Err(crate::ticket::RequestError::Expired));
        let svc = scheduler.join();
        assert_eq!(svc.stats().requests_expired, 1);
        // the deadline passed while the ticket sat in the command queue, so
        // the expiry is attributed to the queue phase, not pre-solve
        assert_eq!(svc.stats().requests_expired_in_queue, 1);
        assert_eq!(svc.stats().requests_expired_pre_solve, 0);
        assert_eq!(svc.stats().request_solves, 0, "an expired request never occupies the solver");
    }

    // Hasher for the pre-solve expiry test: hashing the 7-vertex sentinel
    // graph stalls long enough for a sibling group's deadline to pass
    // between the drain checkpoint and its pre-solve checkpoint.
    fn stalling_hash(g: &Graph) -> u64 {
        let _held = REQUEST_GATE.lock().unwrap();
        if g.num_vertices() == 7 {
            std::thread::sleep(std::time::Duration::from_millis(300));
        }
        graph_content_hash(g)
    }

    #[test]
    fn a_deadline_expiring_after_drain_counts_as_pre_solve() {
        let gate = REQUEST_GATE.lock().unwrap();
        let svc = service(GramServiceConfig::default()).with_content_hasher(stalling_hash);
        let scheduler = GramScheduler::spawn(svc, SchedulerConfig::default());
        let producers = scheduler.client();
        let kernels = scheduler.kernel_client::<f32>();
        let graphs = dataset(4, 151);
        let stalling: Graph =
            Graph::from_edge_list(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]);
        assert!(graphs.iter().all(|g| g.num_vertices() != 7));

        // park the scheduler inside a gated flush so both requests below
        // land in one coalesced drain
        producers.submit(graphs[2].clone()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        // drained first: passes the in-queue checkpoint well inside its
        // deadline, then waits while the second request's grouping hash
        // stalls 300ms — its deadline passes *after* drain admission
        let doomed = kernels
            .request_within(
                graphs[0].clone(),
                graphs[1].clone(),
                std::time::Duration::from_millis(100),
            )
            .unwrap();
        let stalled = kernels.request(stalling, graphs[3].clone()).unwrap();
        drop(gate);

        assert_eq!(doomed.wait(), Err(crate::ticket::RequestError::Expired));
        assert!(stalled.wait().is_ok(), "the stalling pair itself still resolves");
        let svc = scheduler.join();
        assert_eq!(svc.stats().requests_expired_in_queue, 0);
        assert_eq!(svc.stats().requests_expired_pre_solve, 1);
        assert_eq!(svc.stats().requests_expired, 1);
        assert_eq!(svc.stats().request_solves, 1, "only the surviving group was solved");
    }

    #[test]
    fn cancellation_by_drop_skips_the_solve() {
        let gate = REQUEST_GATE.lock().unwrap();
        let svc = service(GramServiceConfig::default()).with_content_hasher(request_gated_hash);
        let scheduler = GramScheduler::spawn(svc, SchedulerConfig::default());
        let producers = scheduler.client();
        let kernels = scheduler.kernel_client::<f32>();
        let graphs = dataset(3, 113);

        producers.submit(graphs[2].clone()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        let ticket = kernels.request(graphs[0].clone(), graphs[1].clone()).unwrap();
        drop(ticket);
        drop(gate);

        let svc = scheduler.join();
        assert_eq!(svc.stats().requests_cancelled, 1);
        assert_eq!(svc.stats().request_solves, 0, "a dropped ticket never occupies the solver");
    }

    #[test]
    fn join_drains_outstanding_requests_before_shutdown() {
        let scheduler = spawn_default();
        let kernels = scheduler.kernel_client::<f32>();
        let graphs = dataset(2, 127);
        let ticket = kernels.request(graphs[0].clone(), graphs[1].clone()).unwrap();
        // no wait before join: the drain must still answer the ticket
        let svc = scheduler.join();
        assert!(ticket.wait().is_ok(), "join must drain outstanding requests");
        assert_eq!(svc.stats().request_solves, 1);
        // post-shutdown requests observe closure at the channel
        assert!(matches!(
            kernels.request(graphs[0].clone(), graphs[1].clone()),
            Err(SchedulerError::Closed)
        ));
    }

    #[test]
    fn a_panicking_scheduler_closes_outstanding_tickets() {
        let panicking: fn(&Graph) -> u64 = |_| panic!("forced request-path panic");
        let svc = service(GramServiceConfig::default()).with_content_hasher(panicking);
        let scheduler = GramScheduler::spawn(svc, SchedulerConfig::default());
        let kernels = scheduler.kernel_client::<f32>();
        let graphs = dataset(2, 131);

        let ticket = kernels.request(graphs[0].clone(), graphs[1].clone()).unwrap();
        // the thread dies hashing the request pair; the ticket must close,
        // not hang
        assert_eq!(ticket.wait(), Err(crate::ticket::RequestError::Closed));
        let propagated = catch_unwind(AssertUnwindSafe(move || scheduler.join()));
        assert!(propagated.is_err(), "the scheduler panic was swallowed");
    }

    #[test]
    fn typed_f64_requests_resolve_with_f64_nodal_vectors() {
        let scheduler = GramScheduler::spawn(
            nodal_service(GramServiceConfig::default()),
            SchedulerConfig::default(),
        );
        let kernels = scheduler.kernel_client::<f64>();
        let graphs = dataset(2, 137);
        let ticket = kernels.request(graphs[0].clone(), graphs[1].clone()).unwrap();
        let result = ticket.wait().expect("typed request must resolve");
        assert!(result.converged);
        assert_eq!(result.value, result.value_f64, "f64 results carry the full value");
        let nodal = result.nodal.expect("typed solved requests carry nodal vectors");
        assert!(nodal.iter().all(|v: &f64| v.is_finite()));
        let svc = scheduler.join();
        assert_eq!(svc.stats().request_solves, 1);
    }

    #[test]
    fn unwatched_scheduler_flushes_never_copy_the_triangle() {
        let scheduler = spawn_default();
        let client = scheduler.client();
        // several admitting flushes, each publishing an epoch nobody
        // observes: retirement must keep every flush copy-free
        for g in dataset(4, 139) {
            client.submit(g).unwrap();
            client.flush().unwrap();
        }
        let svc = scheduler.join();
        assert_eq!(svc.stats().triangle_copies, 0, "unwatched publication must be O(1)");
    }

    #[test]
    fn coalesced_batches_exceeding_the_service_queue_are_split_not_lost() {
        // service queue of 2, one coalesced wave of 6: the scheduler must
        // flush mid-batch instead of dropping submissions
        let svc = service(GramServiceConfig { max_pending: 2, ..Default::default() });
        let scheduler = GramScheduler::spawn(svc, SchedulerConfig::default());
        let client = scheduler.client();
        client.submit_all(dataset(6, 29)).unwrap();
        let svc = scheduler.join();
        assert_eq!(svc.num_structures(), 6, "mid-batch flushes must not lose structures");
    }

    #[test]
    fn solved_requests_report_their_stage_breakdown() {
        let scheduler = spawn_default();
        let kernels = scheduler.kernel_client::<f32>();
        let graphs = dataset(2, 157);
        let ticket = kernels.request(graphs[0].clone(), graphs[1].clone()).unwrap();
        let result = ticket.wait().unwrap();
        assert!(result.stages.solve_ns > 0, "a solved request times its solve stage");
        assert!(result.stages.total_ns() >= result.stages.solve_ns);
        scheduler.join();
    }

    #[test]
    fn the_scrape_surface_reports_stages_and_queue_state() {
        use crate::metrics::names;

        let scheduler = spawn_default();
        let client = scheduler.client();
        let kernels = scheduler.kernel_client::<f32>();
        let graphs = dataset(3, 163);
        client.submit(graphs[2].clone()).unwrap();
        client.flush().unwrap();
        kernels.request(graphs[0].clone(), graphs[1].clone()).unwrap().wait().unwrap();

        let snapshot = scheduler.telemetry().snapshot();
        let queue_wait = snapshot
            .histogram(names::STAGE_DURATION, Some(("stage", "queue_wait")))
            .expect("queue-wait stage histogram registered");
        assert_eq!(queue_wait.count(), 1, "one admitted request, one queue wait");
        let solve = snapshot
            .histogram(names::STAGE_DURATION, Some(("stage", "solve")))
            .expect("solve stage histogram registered");
        assert!(solve.count() >= 1);
        assert!(snapshot.histogram(names::REQUEST_LATENCY, None).unwrap().count() >= 1);
        // both answered: nothing left in the channel, scheduler idle
        assert_eq!(snapshot.gauge(names::QUEUE_DEPTH), Some(0.0));
        let text = snapshot.render_prometheus();
        assert!(text.contains(names::STAGE_DURATION));
        assert!(text.contains(names::QUEUE_DEPTH));
        assert!(text.contains(names::ARITHMETIC_INTENSITY));
        scheduler.join();
    }

    #[test]
    fn gauges_return_to_zero_after_a_scheduler_panic() {
        use crate::metrics::names;

        let panicking: fn(&Graph) -> u64 = |_| panic!("forced solve-path panic");
        let svc = service(GramServiceConfig::default()).with_content_hasher(panicking);
        let scheduler = GramScheduler::spawn(svc, SchedulerConfig::default());
        let registry = scheduler.telemetry();
        let client = scheduler.client();

        client.submit(dataset(1, 167).pop().unwrap()).unwrap();
        let propagated = catch_unwind(AssertUnwindSafe(move || scheduler.join()));
        assert!(propagated.is_err(), "the scheduler panic was swallowed");
        // the busy tracker and queue accounting are RAII/drain balanced:
        // the unwinding drain cycle cannot leave either gauge raised
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.gauge(names::SCHEDULER_BUSY), Some(0.0));
        assert_eq!(snapshot.gauge(names::QUEUE_DEPTH), Some(0.0));
    }

    // Gates for the queue-depth test below: hashing a 7-vertex graph waits
    // on the first, an 8-vertex graph on the second, so the test parks the
    // worker twice and releases each hold on its own.
    static HANDOFF_GATE: Mutex<()> = Mutex::new(());
    static SHUTDOWN_GATE: Mutex<()> = Mutex::new(());

    fn two_gate_hash(g: &Graph) -> u64 {
        let _held = match g.num_vertices() {
            7 => Some(HANDOFF_GATE.lock().unwrap()),
            8 => Some(SHUTDOWN_GATE.lock().unwrap()),
            _ => None,
        };
        graph_content_hash(g)
    }

    #[test]
    fn commands_left_in_the_channel_at_exit_leave_the_queue_depth_gauge() {
        let path = |n: u32| -> Graph {
            let edges: Vec<(u32, u32)> = (1..n).map(|v| (v - 1, v)).collect();
            Graph::from_edge_list(n as usize, &edges)
        };
        let (handoff, shutdown) = (HANDOFF_GATE.lock().unwrap(), SHUTDOWN_GATE.lock().unwrap());

        // park the worker in its hand-off flush, before it receives anything
        let mut svc = service(GramServiceConfig::default()).with_content_hasher(two_gate_hash);
        svc.submit(path(7)).unwrap();
        let scheduler = GramScheduler::spawn(svc, SchedulerConfig::default());
        let client = scheduler.client();
        let depth = scheduler.lane().queue_depth.clone();

        // one batch: a submission whose flush waits on the second gate, and
        // the shutdown
        client.submit(path(8)).unwrap();
        scheduler.lane().send(Command::Shutdown).unwrap();
        drop(handoff);
        // the worker lowers the gauge as it drains that batch; from then on
        // it receives nothing more — it is on its way out, through the flush
        while depth.value() != 0.0 {
            std::thread::yield_now();
        }
        for g in dataset(3, 193) {
            client.submit(g).unwrap();
        }
        assert_eq!(depth.value(), 3.0);
        drop(shutdown);

        let svc = scheduler.join();
        assert_eq!(svc.num_structures(), 2, "the three late submissions were never received");
        assert_eq!(depth.value(), 0.0, "commands dropped with the receiver left the queue");
        // the hub outlives the worker: the next life starts from what it reads
        let scheduler = GramScheduler::spawn(svc, SchedulerConfig::default());
        assert_eq!(scheduler.lane().queue_depth.value(), 0.0);
        scheduler.join();
    }
}
