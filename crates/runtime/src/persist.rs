//! The durability bridge: conversions between the runtime's in-memory
//! serving types and `mgk-store`'s plain on-disk records, plus the
//! configuration of an attached store.
//!
//! `mgk-store` sits at the bottom of the workspace DAG and knows nothing
//! about graphs, solvers or precisions — its records carry plain integers
//! and floats. This module is the only place the two vocabularies meet:
//! [`PairKey`] ↔ [`StoredKey`], [`CachedEntry`] ↔ [`StoredEntry`], and the
//! [`Precision`] tag ↔ its stable one-byte encoding. Keeping the mapping
//! here (and nowhere else) means in-memory refactors cannot silently
//! change the on-disk format.

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

use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::thread::JoinHandle;

use mgk_linalg::Precision;
use mgk_store::{FsyncPolicy, StoredEntry, StoredKey, StoredSide};

use crate::cache::{CachedEntry, PairKey, PairSide};

/// Configuration of a service's attached [`PairStore`](mgk_store::PairStore).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// The store directory (created if missing). A cluster derives one
    /// subdirectory per shard from it — see [`for_shard`](Self::for_shard).
    pub dir: PathBuf,
    /// When appended records are forced onto stable storage. The default,
    /// [`FsyncPolicy::EveryFlush`], syncs once per flush/request boundary —
    /// one `fsync` amortized over the whole drained batch, issued on a
    /// dedicated group-commit thread (`WalSyncer`) so the sync's I/O
    /// wait never serializes with the next drain's solves.
    pub fsync: FsyncPolicy,
    /// Admitting flushes between epoch snapshots; after each snapshot the
    /// log is truncated, bounding replay work at recovery. `0` disables
    /// cadence snapshots — only the final snapshot at graceful shutdown is
    /// written.
    pub snapshot_every: u64,
}

impl DurabilityConfig {
    /// Durability at `dir` with the default policy: fsync per flush
    /// boundary, a snapshot every 8 admitting flushes.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig { dir: dir.into(), fsync: FsyncPolicy::EveryFlush, snapshot_every: 8 }
    }

    /// Replace the fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Replace the snapshot cadence (admitting flushes per snapshot; 0 =
    /// final snapshot only).
    pub fn with_snapshot_every(mut self, snapshot_every: u64) -> Self {
        self.snapshot_every = snapshot_every;
        self
    }

    /// The per-shard derivation a [`GramCluster`](crate::GramCluster)
    /// uses: shard `k` persists under `<dir>/shard-<k>`, same policy.
    /// Content-hash routing is deterministic across restarts, so a
    /// restarted cluster of the same shard count finds each shard's pairs
    /// in exactly the store that shard recovers from.
    pub fn for_shard(&self, shard: usize) -> Self {
        DurabilityConfig {
            dir: self.dir.join(format!("shard-{shard}")),
            fsync: self.fsync,
            snapshot_every: self.snapshot_every,
        }
    }
}

/// What recovery found when a store was attached — the runtime-level view
/// of [`mgk_store::Recovery`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The epoch the service resumes from (0 on a cold start).
    pub epoch: u64,
    /// Pair entries replayed into the [`PairCache`](crate::PairCache)
    /// (snapshot entries plus the log tail).
    pub replayed: usize,
    /// Member graphs of the recovered snapshot's triangle (0 if none).
    pub snapshot_graphs: usize,
    /// The log's final record was torn by a crash mid-append and skipped.
    pub torn_tail: bool,
}

impl RecoveryReport {
    /// Whether anything was recovered (a warm start).
    pub fn is_warm(&self) -> bool {
        self.epoch > 0 || self.replayed > 0 || self.snapshot_graphs > 0
    }
}

/// The attached store plus its sync and snapshot-cadence bookkeeping, owned
/// by the service. Intentionally *not* `Clone`, like the service itself: two
/// writers over one live file handle would interleave frames.
#[derive(Debug)]
pub(crate) struct ServiceStore {
    pub(crate) store: mgk_store::PairStore,
    /// The group-commit thread boundary syncs run on under
    /// [`FsyncPolicy::EveryFlush`]; `None` for the synchronous policies.
    pub(crate) syncer: Option<WalSyncer>,
    /// Whether a record was appended to the log since the last boundary
    /// sync; whoever appends sets it.
    pub(crate) unsynced: bool,
    /// Admitting flushes per snapshot (0 = final snapshot only).
    pub(crate) snapshot_every: u64,
    /// Admitting flushes since the last snapshot.
    pub(crate) flushes_since_snapshot: u64,
}

impl ServiceStore {
    /// A durability boundary: sync what was appended since the last one —
    /// scheduled on the group-commit thread under `EveryFlush` — and report
    /// whether an `fsync` was issued for it (for the caller's counter). A
    /// boundary with nothing unsynced, or one that coalesces into a sync
    /// already pending, issues none.
    pub(crate) fn sync_boundary(&mut self) -> Result<bool, mgk_store::StoreError> {
        if !std::mem::take(&mut self.unsynced) {
            return Ok(false);
        }
        match &self.syncer {
            Some(syncer) => syncer.schedule(),
            None => self.store.flush_boundary(),
        }
    }
}

/// The group-commit thread of [`FsyncPolicy::EveryFlush`]: boundary
/// `fsync`s run here, off the scheduler thread, so a drain's sync I/O
/// wait overlaps the next drain's solves instead of serializing with
/// them. A boundary arriving while a sync is still pending coalesces
/// into it (classic group commit) — a crash loses at most the records
/// between the last *completed* sync and the crash, all re-solvable.
/// Dropping the syncer joins the thread after its final sync, so a
/// graceful shutdown never exits with unsynced records.
#[derive(Debug)]
pub(crate) struct WalSyncer {
    tx: Option<SyncSender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl WalSyncer {
    /// Spawn the sync thread over a second handle to the WAL file
    /// ([`PairStore::sync_handle`](mgk_store::PairStore::sync_handle)):
    /// both handles share one file description, so `sync_data` here
    /// flushes everything the owning thread appended before the call.
    /// An error is the OS refusing the thread.
    pub(crate) fn spawn(file: std::fs::File) -> std::io::Result<WalSyncer> {
        let (tx, rx) = sync_channel::<()>(1);
        let thread = std::thread::Builder::new().name("mgk-wal-sync".into()).spawn(move || {
            while rx.recv().is_ok() {
                if file.sync_data().is_err() {
                    // die; the owner sees Failed at the next boundary
                    return;
                }
            }
        })?;
        Ok(WalSyncer { tx: Some(tx), thread: Some(thread) })
    }

    /// Request a sync of everything appended so far; `Ok(true)` if one was
    /// newly scheduled. Never blocks: the channel holds one pending token,
    /// so at most one sync is queued behind the running one and later
    /// boundaries coalesce into it (`Ok(false)`). An error means the sync
    /// thread died on an I/O error — detach the store.
    fn schedule(&self) -> Result<bool, mgk_store::StoreError> {
        match self.tx.as_ref().map(|tx| tx.try_send(())) {
            Some(Ok(())) => Ok(true),
            Some(Err(TrySendError::Full(()))) => Ok(false),
            // only `drop` takes the sender (`spawn` is the one constructor),
            // so `None` cannot occur here; it reads as a dead thread
            Some(Err(TrySendError::Disconnected(()))) | None => {
                Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "WAL sync thread died")
                    .into())
            }
        }
    }
}

impl Drop for WalSyncer {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Stable one-byte encoding of the [`Precision`] tag. Part of the on-disk
/// format: changing an assignment requires a `FORMAT_VERSION` bump.
pub(crate) fn precision_to_byte(p: Precision) -> u8 {
    match p {
        Precision::F32 => 0,
        Precision::F64 => 1,
    }
}

/// Inverse of [`precision_to_byte`]. Byte 2 is a legacy tag: stores written
/// before mixed-precision refinement was removed hold it for entries whose
/// solve converged on the true f64 residual, which certifies at least what
/// an f64 solve does, so it decodes to [`Precision::F64`]. Any other unknown
/// byte (a future format's tag) decodes to [`Precision::F32`] — the
/// conservative reading: an f32 entry answers only f32 requests, so a
/// misunderstood tag can never over-promise accuracy.
pub(crate) fn precision_from_byte(b: u8) -> Precision {
    match b {
        1 | 2 => Precision::F64,
        _ => Precision::F32,
    }
}

pub(crate) fn side_to_stored(side: &PairSide) -> StoredSide {
    StoredSide::new(side.hash, side.vertices, side.edges)
}

pub(crate) fn side_from_stored(side: &StoredSide) -> PairSide {
    PairSide::new(side.hash, side.vertices, side.edges)
}

/// A cache entry (under its normalized key) as the WAL/snapshot record it
/// persists to.
pub(crate) fn entry_to_stored(key: &PairKey, entry: &CachedEntry) -> StoredEntry {
    StoredEntry {
        key: StoredKey::new(side_to_stored(&key.lo), side_to_stored(&key.hi)),
        precision: precision_to_byte(entry.precision),
        value: entry.value,
        value_f64: entry.value_f64,
        relative_residual: entry.relative_residual,
        iterations: entry.iterations as u64,
    }
}

/// A recovered record as the cache entry it restores.
pub(crate) fn entry_from_stored(stored: &StoredEntry) -> (PairKey, CachedEntry) {
    (
        PairKey::new(side_from_stored(&stored.key.lo), side_from_stored(&stored.key.hi)),
        CachedEntry {
            value: stored.value,
            value_f64: stored.value_f64,
            precision: precision_from_byte(stored.precision),
            relative_residual: stored.relative_residual,
            iterations: stored.iterations as usize,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn entries_roundtrip_through_the_stored_form() {
        let key = PairKey::new(PairSide::new(7, 10, 12), PairSide::new(3, 11, 13));
        for precision in [Precision::F32, Precision::F64] {
            let entry = CachedEntry {
                value: 0.75,
                value_f64: 0.750000001,
                precision,
                relative_residual: 2.5e-9,
                iterations: 17,
            };
            let stored = entry_to_stored(&key, &entry);
            let (back_key, back) = entry_from_stored(&stored);
            assert_eq!(back_key, key);
            assert_eq!(back.value.to_bits(), entry.value.to_bits());
            assert_eq!(back.value_f64.to_bits(), entry.value_f64.to_bits());
            assert_eq!(back.precision, entry.precision);
            assert_eq!(back.iterations, entry.iterations);
        }
    }

    #[test]
    fn unknown_precision_bytes_decode_conservatively() {
        assert_eq!(precision_from_byte(250), Precision::F32);
        for p in [Precision::F32, Precision::F64] {
            assert_eq!(precision_from_byte(precision_to_byte(p)), p);
        }
        // the legacy refined tag: converged on the true f64 residual
        assert_eq!(precision_from_byte(2), Precision::F64);
    }

    #[test]
    fn shard_directories_derive_deterministically() {
        let config = DurabilityConfig::new("/tmp/example");
        assert_eq!(config.for_shard(2).dir, Path::new("/tmp/example/shard-2"));
        assert_eq!(config.for_shard(2), config.for_shard(2));
        assert_eq!(config.for_shard(0).fsync, config.fsync);
    }
}
