//! The store directory: one write-ahead log plus a rolling set of
//! snapshots, opened together as a [`PairStore`] whose construction *is*
//! recovery.

use std::path::{Path, PathBuf};

use crate::format::{StoreError, StoredEntry};
use crate::snapshot::{SnapshotFile, StoreSnapshot};
use crate::wal::{WalRecord, WriteAheadLog};

const WAL_NAME: &str = "wal.log";

/// When appended records are forced onto stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` after every appended record: maximum durability, one
    /// syscall round-trip per solved pair.
    EveryRecord,
    /// `fsync` once per flush boundary (the scheduler's drain of a batch
    /// or request wave): one sync amortized over the whole burst. The
    /// default — a crash loses at most the records since the last
    /// boundary, all of which are re-solvable.
    #[default]
    EveryFlush,
    /// Never `fsync`; durability is whatever the OS page cache decides.
    /// For benchmarking the append path itself.
    Off,
}

/// What one append did: how many bytes hit the log, and whether the
/// policy forced them to stable storage. Returned as plain facts so the
/// caller can feed its own metrics registry.
#[derive(Debug, Clone, Copy)]
pub struct Appended {
    /// Bytes appended (frame + payload).
    pub bytes: u64,
    /// Whether this append performed an `fsync`.
    pub synced: bool,
}

/// Everything recovery found when the store was opened.
#[derive(Debug, Default)]
pub struct Recovery {
    /// The newest valid snapshot, if any epoch boundary was ever captured.
    pub snapshot: Option<StoreSnapshot>,
    /// Pair entries replayed from the log tail (everything appended since
    /// the snapshot — the log is truncated when a snapshot succeeds, so
    /// the tail never overlaps it).
    pub tail: Vec<StoredEntry>,
    /// The epoch to resume from: the newest of the snapshot's epoch and
    /// any epoch mark in the log tail. A restarted server continues its
    /// version counter from here, keeping epochs monotone across lives.
    pub epoch: u64,
    /// The final log record was torn by a crash mid-append and skipped.
    pub torn_tail: bool,
}

impl Recovery {
    /// Every recovered pair entry — snapshot entries first, then the log
    /// tail, so later (newer) duplicates overwrite earlier ones when
    /// folded into a map.
    pub fn all_entries(&self) -> impl Iterator<Item = &StoredEntry> {
        self.snapshot.iter().flat_map(|s| s.entries.iter()).chain(self.tail.iter())
    }

    /// Total records replayed (snapshot entries + log tail).
    pub fn replayed(&self) -> u64 {
        self.all_entries().count() as u64
    }

    /// Whether anything at all was recovered.
    pub fn is_warm(&self) -> bool {
        self.snapshot.is_some() || !self.tail.is_empty() || self.epoch > 0
    }
}

/// An open store directory. See the crate docs for the layout.
#[derive(Debug)]
pub struct PairStore {
    dir: PathBuf,
    policy: FsyncPolicy,
    wal: WriteAheadLog,
    /// Unsynced appends exist since the last boundary.
    dirty: bool,
}

impl PairStore {
    /// Open (creating if needed) the store at `dir` and perform recovery:
    /// load the newest valid snapshot, replay the log tail, tolerate a
    /// torn final record, refuse corruption and version skew.
    pub fn open(dir: &Path, policy: FsyncPolicy) -> Result<(Self, Recovery), StoreError> {
        std::fs::create_dir_all(dir)?;
        let snapshot = SnapshotFile::load_newest(dir)?;
        let (wal, replay) = WriteAheadLog::open(&dir.join(WAL_NAME))?;

        let mut epoch = snapshot.as_ref().map(|s| s.epoch).unwrap_or(0);
        let mut tail = Vec::with_capacity(replay.records.len());
        for record in replay.records {
            match record {
                WalRecord::Pair(entry) => tail.push(entry),
                WalRecord::Epoch(e) => epoch = epoch.max(e),
            }
        }
        let recovery = Recovery { snapshot, tail, epoch, torn_tail: replay.torn_tail };
        Ok((PairStore { dir: dir.to_path_buf(), policy, wal, dirty: false }, recovery))
    }

    /// Append one solved pair entry under the fsync policy.
    pub fn append_pair(&mut self, entry: &StoredEntry) -> Result<Appended, StoreError> {
        self.append(&WalRecord::Pair(*entry))
    }

    /// Append an epoch mark: the service version after an admitting
    /// flush, so recovery resumes the version counter monotonically.
    pub fn mark_epoch(&mut self, epoch: u64) -> Result<Appended, StoreError> {
        self.append(&WalRecord::Epoch(epoch))
    }

    fn append(&mut self, record: &WalRecord) -> Result<Appended, StoreError> {
        let bytes = self.wal.append(record)? as u64;
        let synced = match self.policy {
            FsyncPolicy::EveryRecord => {
                self.wal.sync()?;
                true
            }
            FsyncPolicy::EveryFlush | FsyncPolicy::Off => {
                self.dirty = true;
                false
            }
        };
        Ok(Appended { bytes, synced })
    }

    /// A flush boundary: under [`FsyncPolicy::EveryFlush`], sync whatever
    /// was appended since the last boundary. Returns whether an `fsync`
    /// actually ran (for the caller's fsync counter).
    pub fn flush_boundary(&mut self) -> Result<bool, StoreError> {
        if self.policy == FsyncPolicy::EveryFlush && self.dirty {
            self.wal.sync()?;
            self.dirty = false;
            return Ok(true);
        }
        Ok(false)
    }

    /// Capture a snapshot: atomically write it, then truncate the log
    /// (everything it recorded is now in the snapshot) and prune older
    /// snapshots. On success the store holds exactly one snapshot and an
    /// empty log.
    pub fn write_snapshot(&mut self, snapshot: &StoreSnapshot) -> Result<(), StoreError> {
        SnapshotFile::write(&self.dir, snapshot)?;
        // order matters: the snapshot is durable before the log forgets
        self.wal.reset()?;
        self.dirty = false;
        SnapshotFile::prune_older_than(&self.dir, snapshot.epoch)?;
        Ok(())
    }

    /// A second handle to the log file for a caller-owned sync thread.
    /// Both handles share one open file description, so `sync_data` on
    /// the clone flushes everything appended through the store — the
    /// caller can group-commit boundaries off its hot thread. Callers that
    /// sync through such a handle should not also call
    /// [`flush_boundary`](Self::flush_boundary).
    pub fn sync_handle(&self) -> Result<std::fs::File, StoreError> {
        self.wal.sync_handle()
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{StoredKey, StoredSide};
    use crate::temp::TempDir;

    fn entry(seed: u64) -> StoredEntry {
        StoredEntry {
            key: StoredKey::new(StoredSide::new(seed, 5, 4), StoredSide::new(seed + 100, 6, 7)),
            precision: 0,
            value: seed as f32 * 0.1,
            value_f64: seed as f64 * 0.1,
            relative_residual: 1e-8,
            iterations: seed + 2,
        }
    }

    #[test]
    fn a_fresh_store_recovers_cold() {
        let dir = TempDir::new("store-cold").unwrap();
        let (_store, recovery) = PairStore::open(dir.path(), FsyncPolicy::Off).unwrap();
        assert!(!recovery.is_warm());
        assert_eq!(recovery.epoch, 0);
        assert_eq!(recovery.replayed(), 0);
    }

    #[test]
    fn appends_and_epoch_marks_recover_across_lives() {
        let dir = TempDir::new("store-lives").unwrap();
        let (mut store, _) = PairStore::open(dir.path(), FsyncPolicy::EveryFlush).unwrap();
        for seed in 0..4 {
            let appended = store.append_pair(&entry(seed)).unwrap();
            assert!(appended.bytes > 0 && !appended.synced);
        }
        store.mark_epoch(2).unwrap();
        assert!(store.flush_boundary().unwrap(), "dirty boundary must sync");
        assert!(!store.flush_boundary().unwrap(), "clean boundary must not");
        drop(store);

        let (_store, recovery) = PairStore::open(dir.path(), FsyncPolicy::EveryFlush).unwrap();
        assert!(recovery.is_warm());
        assert_eq!(recovery.epoch, 2);
        assert_eq!(recovery.tail, (0..4).map(entry).collect::<Vec<_>>());
        assert!(recovery.snapshot.is_none());
    }

    #[test]
    fn every_record_policy_syncs_each_append() {
        let dir = TempDir::new("store-sync").unwrap();
        let (mut store, _) = PairStore::open(dir.path(), FsyncPolicy::EveryRecord).unwrap();
        assert!(store.append_pair(&entry(1)).unwrap().synced);
        assert!(!store.flush_boundary().unwrap(), "nothing left to sync at the boundary");
    }

    #[test]
    fn snapshot_truncates_the_log_and_prunes_predecessors() {
        let dir = TempDir::new("store-snap").unwrap();
        let (mut store, _) = PairStore::open(dir.path(), FsyncPolicy::EveryFlush).unwrap();
        store.append_pair(&entry(1)).unwrap();
        store
            .write_snapshot(&StoreSnapshot {
                epoch: 1,
                entries: vec![entry(1)],
                ..Default::default()
            })
            .unwrap();
        // post-snapshot appends form the new tail
        store.append_pair(&entry(2)).unwrap();
        store.mark_epoch(2).unwrap();
        store
            .write_snapshot(&StoreSnapshot {
                epoch: 2,
                entries: vec![entry(1), entry(2)],
                ..Default::default()
            })
            .unwrap();
        store.append_pair(&entry(3)).unwrap();
        store.flush_boundary().unwrap();
        drop(store);

        let (_store, recovery) = PairStore::open(dir.path(), FsyncPolicy::EveryFlush).unwrap();
        let snap = recovery.snapshot.as_ref().expect("snapshot recovered");
        assert_eq!(snap.epoch, 2, "only the newest snapshot survives");
        assert_eq!(snap.entries.len(), 2);
        assert_eq!(recovery.tail, vec![entry(3)], "log holds only the post-snapshot tail");
        assert_eq!(recovery.epoch, 2);
        assert_eq!(recovery.replayed(), 3);
        // exactly one snapshot file remains on disk
        let snaps = std::fs::read_dir(dir.path())
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".mgksnap"))
            .count();
        assert_eq!(snaps, 1);
    }

    #[test]
    fn epoch_resumes_from_the_newest_of_snapshot_and_marks() {
        let dir = TempDir::new("store-epoch").unwrap();
        let (mut store, _) = PairStore::open(dir.path(), FsyncPolicy::EveryFlush).unwrap();
        store.write_snapshot(&StoreSnapshot { epoch: 5, ..Default::default() }).unwrap();
        store.mark_epoch(7).unwrap();
        store.flush_boundary().unwrap();
        drop(store);
        let (_store, recovery) = PairStore::open(dir.path(), FsyncPolicy::EveryFlush).unwrap();
        assert_eq!(recovery.epoch, 7, "a mark newer than the snapshot wins");
    }
}
