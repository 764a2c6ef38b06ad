//! Versioned snapshot watch: the consumer side of the background scheduler.
//!
//! A publisher / [`SnapshotWatch`] pair shares one slot holding
//! the latest published snapshot *source* together with its epoch (the
//! service's snapshot [`version`](crate::GramService::version)). The
//! scheduler publishes once per completed flush — but publication is
//! **lazy**: what is published is a snapshot source (a triangle of raw
//! values, cheap to capture), and the O(n²) dense materialization runs on
//! the *first* [`latest`](SnapshotWatch::latest) /
//! [`wait_newer`](SnapshotWatch::wait_newer) that observes the epoch. Once
//! built, the per-epoch snapshot is cached behind an `Arc`, so repeat polls
//! cost a mutex lock and an `Arc` clone — and epochs nobody watches never
//! build a matrix at all (write-heavy, read-light loads skip the O(n²)
//! entirely; [`snapshot_builds`](SnapshotWatch::snapshot_builds) makes that
//! observable).
//!
//! The slot is a `Mutex` + `Condvar`, not a channel: consumers that fall
//! behind skip intermediate epochs and observe only the newest snapshot
//! (watch semantics), and any number of consumers can wait on the same
//! publisher. When the publisher is dropped — scheduler shutdown, or its
//! thread unwinding on a panic — the watch is closed and every blocked
//! consumer wakes with [`WatchClosed`] instead of hanging.
//!
//! **After a panicking holder.** Every acquisition here goes through the
//! crate's poison-tolerant `lock`, and every critical section leaves the
//! slot valid at each statement boundary, so a holder that panicked changes
//! nothing a consumer can observe beyond the operation that panicked: a
//! `publish` refused for a backwards epoch leaves the previous epoch served
//! by `latest` and `wait_newer`, later publications land and wake waiters
//! as usual, and dropping the publisher still closes the watch — also
//! while its thread is unwinding, where a second panic would abort the
//! process. A dense build that panics has consumed its source under the
//! source lock, so that epoch reads like a retired one and its waiters get
//! the successor.

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

use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use mgk_telemetry::Counter;

use crate::lock;
use crate::service::{GramSnapshot, SnapshotSource};

/// A snapshot together with the epoch it was published at.
#[derive(Debug, Clone)]
pub struct VersionedSnapshot {
    /// The publisher's epoch for this snapshot (monotonically increasing).
    pub epoch: u64,
    /// The published Gram matrix, shared — cloning is pointer-cheap.
    pub snapshot: Arc<GramSnapshot>,
}

/// Error returned by [`SnapshotWatch::wait_newer`] when the publisher is
/// gone and no snapshot newer than the requested epoch will ever arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchClosed;

impl std::fmt::Display for WatchClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot publisher closed; no newer snapshot will be published")
    }
}

impl std::error::Error for WatchClosed {}

/// One published epoch: the source, and the dense snapshot once some
/// consumer demanded it. The build *consumes* the source (it is dead
/// weight next to the dense matrix once materialized), so a retained epoch
/// holds either the triangle or the matrix, never both — and a source the
/// publisher [retired](SnapshotPublisher::retire_unobserved) before anyone
/// built it holds neither (`materialize` then reports `None` and waiters
/// keep waiting for the successor epoch that is already being flushed).
#[derive(Debug)]
struct PublishedEpoch {
    source: Mutex<Option<SnapshotSource>>,
    built: OnceLock<Arc<GramSnapshot>>,
}

impl PublishedEpoch {
    fn new(source: SnapshotSource) -> Self {
        PublishedEpoch { source: Mutex::new(Some(source)), built: OnceLock::new() }
    }

    /// The materialized snapshot, building it on first demand (counted in
    /// `builds`), or `None` if the publisher retired the source before any
    /// consumer observed this epoch.
    ///
    /// The source mutex is held across the build so a concurrent retirement
    /// cannot yank the triangle from under the building consumer: whoever
    /// locks first wins, the other sees the outcome.
    fn materialize(&self, builds: &Counter) -> Option<Arc<GramSnapshot>> {
        if let Some(built) = self.built.get() {
            return Some(Arc::clone(built));
        }
        let mut source = lock(&self.source);
        match source.take() {
            Some(taken) => {
                builds.inc();
                Some(Arc::clone(self.built.get_or_init(|| Arc::new(taken.build()))))
            }
            // consumed by a concurrent first observer while this consumer
            // waited on the lock (then `built` is set), or retired
            None => self.built.get().map(Arc::clone),
        }
    }

    /// Whether some consumer has materialized this epoch.
    fn is_built(&self) -> bool {
        self.built.get().is_some()
    }
}

#[derive(Debug)]
struct Slot {
    epoch: u64,
    published: Option<Arc<PublishedEpoch>>,
    closed: bool,
}

#[derive(Debug)]
struct Shared {
    slot: Mutex<Slot>,
    newer: Condvar,
    /// Dense materializations performed across all epochs (observability
    /// for the lazy-publication contract: unwatched epochs build nothing).
    /// A telemetry counter so the scheduler can register the same cell in
    /// its service's metrics registry (`mgk_snapshot_builds_total`).
    builds: Counter,
}

/// Consumer handle of a snapshot watch; cheap to clone, any number of
/// consumers may poll or wait concurrently.
#[derive(Debug, Clone)]
pub struct SnapshotWatch {
    shared: Arc<Shared>,
}

/// Producer handle of a snapshot watch. Not cloneable: one publisher per
/// watch, and dropping it closes the watch.
#[derive(Debug)]
pub(crate) struct SnapshotPublisher {
    shared: Arc<Shared>,
}

/// Create a connected publisher/watch pair. The watch starts at epoch 0
/// with no snapshot; the first [`publish`](SnapshotPublisher::publish)
/// makes one visible. The scheduler passes its registry's
/// `mgk_snapshot_builds_total` cell as `builds`, so
/// [`SnapshotWatch::snapshot_builds`] and the scraped registry read the
/// same number.
pub(crate) fn snapshot_channel_counted(builds: Counter) -> (SnapshotPublisher, SnapshotWatch) {
    let shared = Arc::new(Shared {
        slot: Mutex::new(Slot { epoch: 0, published: None, closed: false }),
        newer: Condvar::new(),
        builds,
    });
    (SnapshotPublisher { shared: Arc::clone(&shared) }, SnapshotWatch { shared })
}

impl SnapshotWatch {
    /// The epoch of the most recently published snapshot (0 before the
    /// first publication).
    pub fn epoch(&self) -> u64 {
        lock(&self.shared.slot).epoch
    }

    /// Whether the publisher is gone (no newer snapshot will arrive).
    pub fn is_closed(&self) -> bool {
        lock(&self.shared.slot).closed
    }

    /// How many dense snapshot materializations this watch has performed.
    /// Publication is lazy, so epochs that no consumer observed contribute
    /// nothing here.
    pub fn snapshot_builds(&self) -> u64 {
        self.shared.builds.value()
    }

    /// The latest published snapshot, without blocking for a newer one.
    ///
    /// The first call per epoch materializes the dense matrix from the
    /// published source; repeat polls of the same epoch cost a mutex lock
    /// and an `Arc` clone. During the brief window in which the publisher
    /// has retired an epoch nobody observed and its successor's flush is
    /// still running, there is nothing to materialize and `None` is
    /// returned (exactly as before the first publication).
    pub fn latest(&self) -> Option<VersionedSnapshot> {
        let (epoch, published) = {
            let slot = lock(&self.shared.slot);
            (slot.epoch, slot.published.as_ref().map(Arc::clone))
        };
        // build outside the slot lock: a large materialization must not
        // block the publisher or other consumers on different epochs
        published.and_then(|p| {
            Some(VersionedSnapshot { epoch, snapshot: p.materialize(&self.shared.builds)? })
        })
    }

    /// Block until a snapshot with an epoch strictly newer than `epoch` is
    /// published, and return it (materializing it if this is the first
    /// observation of that epoch).
    ///
    /// A consumer that starts at `epoch = 0` and feeds each returned epoch
    /// back in observes every epoch it can keep up with exactly once; a
    /// consumer that falls behind skips straight to the newest. Returns
    /// [`WatchClosed`] once the publisher is gone and nothing newer than
    /// `epoch` was ever published.
    pub fn wait_newer(&self, epoch: u64) -> Result<VersionedSnapshot, WatchClosed> {
        loop {
            // without a deadline `None` does not come back
            if let Some(newer) = self.wait_newer_until(epoch, None)? {
                return Ok(newer);
            }
        }
    }

    /// [`wait_newer`](Self::wait_newer) with a timeout: `Ok(None)` if no
    /// strictly newer snapshot was published within `timeout`. A cluster
    /// watch waits on its shards round-robin through this, so progress on
    /// *any* shard is observed within one timeout slice. A timeout too
    /// large for the clock to represent is no deadline.
    pub(crate) fn wait_newer_timeout(
        &self,
        epoch: u64,
        timeout: Duration,
    ) -> Result<Option<VersionedSnapshot>, WatchClosed> {
        self.wait_newer_until(epoch, Instant::now().checked_add(timeout))
    }

    fn wait_newer_until(
        &self,
        epoch: u64,
        deadline: Option<Instant>,
    ) -> Result<Option<VersionedSnapshot>, WatchClosed> {
        let mut slot = lock(&self.shared.slot);
        loop {
            if slot.epoch > epoch {
                if let Some(p) = &slot.published {
                    let (found, p) = (slot.epoch, Arc::clone(p));
                    drop(slot);
                    if let Some(snapshot) = p.materialize(&self.shared.builds) {
                        return Ok(Some(VersionedSnapshot { epoch: found, snapshot }));
                    }
                    // the epoch was retired unobserved while its successor
                    // flushes: re-examine the slot; if nothing newer has
                    // landed yet, fall through to the condvar wait for the
                    // successor's publication (or closure)
                    slot = lock(&self.shared.slot);
                    if slot.epoch > found {
                        continue;
                    }
                }
            }
            if slot.closed {
                return Err(WatchClosed);
            }
            match deadline {
                None => {
                    slot = self.shared.newer.wait(slot).unwrap_or_else(PoisonError::into_inner);
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Ok(None);
                    }
                    let (next, timeout) = self
                        .shared
                        .newer
                        .wait_timeout(slot, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    slot = next;
                    if timeout.timed_out() {
                        // one re-examination after the timeout: a publish
                        // that raced the wakeup must not be missed
                        continue;
                    }
                }
            }
        }
    }
}

impl SnapshotPublisher {
    /// Publish the source of a snapshot at `epoch`, waking every waiting
    /// consumer. The dense matrix is *not* built here — the first consumer
    /// to observe the epoch builds it. Epochs must be monotonically
    /// non-decreasing; a republication at the current epoch replaces the
    /// source without waking `wait_newer` callers already past it.
    pub(crate) fn publish(&self, epoch: u64, source: SnapshotSource) {
        let mut slot = lock(&self.shared.slot);
        debug_assert!(epoch >= slot.epoch, "epochs must not go backwards");
        slot.epoch = epoch;
        slot.published = Some(Arc::new(PublishedEpoch::new(source)));
        drop(slot);
        self.shared.newer.notify_all();
    }

    /// Release the current epoch's snapshot *source* if no consumer ever
    /// materialized it — called by the scheduler right before a flush that
    /// will republish, so an unwatched epoch's `Arc`-shared triangle is
    /// dropped *before* the service mutates it (unwatched flushes then
    /// never pay the copy-on-write clone; see
    /// `ServiceStats::triangle_copies`).
    ///
    /// Consumers remain safe: an already-built epoch is untouched, a
    /// consumer mid-build holds the source lock until its build lands, and
    /// a `wait_newer`/`latest` that races the retirement simply waits for
    /// (or polls until) the successor epoch the flush is about to publish.
    pub(crate) fn retire_unobserved(&self) {
        let published = {
            let slot = lock(&self.shared.slot);
            slot.published.as_ref().map(Arc::clone)
        };
        if let Some(p) = published {
            if !p.is_built() {
                // drop the triangle share; materialize() reports None to
                // any racing first observer, who then awaits the successor
                lock(&p.source).take();
            }
        }
    }

    /// Close the watch: every current and future waiter observes
    /// [`WatchClosed`] (after consuming any snapshot still newer than its
    /// request). Called automatically on drop.
    pub(crate) fn close(&self) {
        let mut slot = lock(&self.shared.slot);
        slot.closed = true;
        drop(slot);
        self.shared.newer.notify_all();
    }
}

impl Drop for SnapshotPublisher {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot_channel() -> (SnapshotPublisher, SnapshotWatch) {
        snapshot_channel_counted(Counter::new())
    }

    fn source(n: usize) -> SnapshotSource {
        SnapshotSource::from_triangle(vec![1.0; n * (n + 1) / 2], n, false)
    }

    #[test]
    fn latest_is_none_until_first_publish() {
        let (publisher, watch) = snapshot_channel();
        assert!(watch.latest().is_none());
        assert_eq!(watch.epoch(), 0);
        publisher.publish(1, source(2));
        let v = watch.latest().unwrap();
        assert_eq!(v.epoch, 1);
        assert_eq!(v.snapshot.num_graphs, 2);
    }

    #[test]
    fn wait_newer_returns_an_already_newer_snapshot_immediately() {
        let (publisher, watch) = snapshot_channel();
        publisher.publish(3, source(1));
        let v = watch.wait_newer(0).unwrap();
        assert_eq!(v.epoch, 3);
    }

    #[test]
    fn wait_newer_blocks_until_publication() {
        let (publisher, watch) = snapshot_channel();
        publisher.publish(1, source(1));
        let waiter = std::thread::spawn(move || watch.wait_newer(1).map(|v| v.epoch));
        // give the waiter a chance to block, then publish
        std::thread::sleep(std::time::Duration::from_millis(20));
        publisher.publish(2, source(2));
        assert_eq!(waiter.join().unwrap(), Ok(2));
    }

    #[test]
    fn close_wakes_blocked_waiters() {
        let (publisher, watch) = snapshot_channel();
        let waiter = std::thread::spawn(move || watch.wait_newer(0));
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(publisher);
        assert_eq!(waiter.join().unwrap().unwrap_err(), WatchClosed);
    }

    #[test]
    fn a_newer_snapshot_is_still_served_after_close() {
        let (publisher, watch) = snapshot_channel();
        publisher.publish(5, source(3));
        drop(publisher);
        assert!(watch.is_closed());
        // the final snapshot is newer than the consumer's epoch: drain it …
        assert_eq!(watch.wait_newer(2).unwrap().epoch, 5);
        // … and only then report closure
        assert_eq!(watch.wait_newer(5).unwrap_err(), WatchClosed);
    }

    #[test]
    fn an_unrepresentable_timeout_is_no_deadline() {
        let (publisher, watch) = snapshot_channel();
        publisher.publish(1, source(1));
        let v = watch.wait_newer_timeout(0, Duration::MAX).unwrap();
        assert_eq!(v.map(|v| v.epoch), Some(1));
    }

    // the refused publication is a `debug_assert!`
    #[cfg(debug_assertions)]
    #[test]
    fn a_poisoned_slot_still_closes_on_publisher_drop() {
        let (publisher, watch) = snapshot_channel();
        publisher.publish(5, source(3));
        // a backwards epoch panics under the slot lock and poisons it
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            publisher.publish(3, source(1));
        }));
        assert!(refused.is_err());
        drop(publisher);
        assert!(watch.is_closed());
        assert_eq!(watch.wait_newer(5).unwrap_err(), WatchClosed);
        let last = watch.latest().unwrap();
        assert_eq!((last.epoch, last.snapshot.num_graphs), (5, 3));
    }

    #[test]
    fn consumers_that_fall_behind_skip_to_the_newest_epoch() {
        let (publisher, watch) = snapshot_channel();
        publisher.publish(1, source(1));
        publisher.publish(2, source(2));
        publisher.publish(3, source(3));
        let v = watch.wait_newer(1).unwrap();
        assert_eq!(v.epoch, 3, "watch semantics: only the newest snapshot is retained");
        assert_eq!(v.snapshot.num_graphs, 3);
    }

    #[test]
    fn unwatched_epochs_never_materialize_a_snapshot() {
        let (publisher, watch) = snapshot_channel();
        publisher.publish(1, source(4));
        publisher.publish(2, source(5));
        publisher.publish(3, source(6));
        assert_eq!(watch.snapshot_builds(), 0, "publication alone must not build");
        // the first observation of epoch 3 builds exactly once …
        let v = watch.wait_newer(0).unwrap();
        assert_eq!(v.epoch, 3);
        assert_eq!(watch.snapshot_builds(), 1);
        // … and repeat polls of the same epoch reuse the cached build
        let again = watch.latest().unwrap();
        assert_eq!(again.epoch, 3);
        assert!(Arc::ptr_eq(&v.snapshot, &again.snapshot));
        assert_eq!(watch.snapshot_builds(), 1);
        // a newer epoch builds again only when observed
        publisher.publish(4, source(7));
        assert_eq!(watch.snapshot_builds(), 1);
        assert_eq!(watch.latest().unwrap().epoch, 4);
        assert_eq!(watch.snapshot_builds(), 2);
    }

    #[test]
    fn retire_unobserved_releases_the_source_and_waiters_get_the_successor() {
        let (publisher, watch) = snapshot_channel();
        publisher.publish(1, source(2));
        publisher.retire_unobserved();
        // nothing to build: the epoch was never observed and is now retired
        assert!(watch.latest().is_none());
        assert_eq!(watch.snapshot_builds(), 0);

        // a waiter in the retirement window blocks for the successor
        // instead of spinning or erroring
        let w = watch.clone();
        let waiter = std::thread::spawn(move || w.wait_newer(0).map(|v| v.epoch));
        std::thread::sleep(std::time::Duration::from_millis(20));
        publisher.publish(2, source(3));
        assert_eq!(waiter.join().unwrap(), Ok(2));
        assert_eq!(watch.snapshot_builds(), 1, "only the successor was ever built");
    }

    #[test]
    fn retire_unobserved_leaves_built_epochs_alone() {
        let (publisher, watch) = snapshot_channel();
        publisher.publish(1, source(4));
        let before = watch.latest().unwrap();
        publisher.retire_unobserved();
        let after = watch.latest().expect("a built epoch survives retirement");
        assert_eq!(after.epoch, 1);
        assert!(Arc::ptr_eq(&before.snapshot, &after.snapshot));
    }

    #[test]
    fn concurrent_first_observers_build_once() {
        let (publisher, watch) = snapshot_channel();
        publisher.publish(1, source(64));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let w = watch.clone();
                std::thread::spawn(move || w.wait_newer(0).unwrap().snapshot.num_graphs)
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 64);
        }
        assert_eq!(watch.snapshot_builds(), 1, "OnceLock must deduplicate the build");
    }
}
