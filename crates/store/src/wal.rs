//! The append-only write-ahead log: length-prefixed, checksummed records
//! of solved pair entries and epoch marks.
//!
//! Layout: a 12-byte header (`MGKWAL01` magic + format version), then
//! records of `[payload len: u32][payload FNV-1a: u64][payload]`. The
//! payload's first byte is the record kind. Appends are a single `write`
//! of the fully assembled record, so the only partial state a crash can
//! leave is a *torn final record* — replay detects it (the file ends
//! before the announced payload does), reports it, and the log is
//! truncated back to the last complete record before appending resumes.
//! A record whose payload is fully present but fails its checksum is
//! *corruption*, not a torn write, and is refused with a typed error.

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

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::format::{fnv1a64, Reader, StoreError, StoredEntry, FORMAT_VERSION};

const MAGIC: &[u8; 8] = b"MGKWAL01";
const HEADER_BYTES: usize = MAGIC.len() + 4;
/// Frame overhead per record: payload length + payload checksum.
const FRAME_BYTES: usize = 4 + 8;

const KIND_PAIR: u8 = 0;
const KIND_EPOCH: u8 = 1;

/// One log record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum WalRecord {
    /// A solved pair entry, appended from the service's fold path.
    Pair(StoredEntry),
    /// An epoch boundary: the service version after an admitting flush.
    /// Replay resumes the epoch counter from the newest mark, so a
    /// restarted server's versions continue monotonically.
    Epoch(u64),
}

impl WalRecord {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Pair(entry) => {
                out.push(KIND_PAIR);
                entry.encode(out);
            }
            WalRecord::Epoch(epoch) => {
                out.push(KIND_EPOCH);
                out.extend_from_slice(&epoch.to_le_bytes());
            }
        }
    }
}

/// The outcome of replaying a log: every complete record in append order,
/// whether the final record was torn, and how many bytes of the file were
/// valid (the truncation point appends resume from).
#[derive(Debug)]
pub(crate) struct WalReplay {
    /// Every complete, checksum-valid record, oldest first.
    pub records: Vec<WalRecord>,
    /// The file ended mid-record — a crash tore the final append. The
    /// torn bytes are discarded; everything before them is intact.
    pub torn_tail: bool,
    /// Bytes of the file occupied by the header and complete records.
    pub valid_bytes: u64,
}

/// An open write-ahead log. See the module docs for the format.
#[derive(Debug)]
pub(crate) struct WriteAheadLog {
    file: File,
}

impl WriteAheadLog {
    /// Open (or create) the log at `path`, replaying whatever it holds.
    ///
    /// A torn final record is truncated away so subsequent appends start
    /// from the last complete record; checksum corruption and format
    /// version skew are refused with the matching [`StoreError`].
    pub(crate) fn open(path: &Path) -> Result<(Self, WalReplay), StoreError> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let replay = if bytes.is_empty() {
            // fresh log: stamp the header and make its existence durable
            file.write_all(MAGIC)?;
            file.write_all(&FORMAT_VERSION.to_le_bytes())?;
            file.sync_data()?;
            WalReplay { records: Vec::new(), torn_tail: false, valid_bytes: HEADER_BYTES as u64 }
        } else {
            let replay = replay_bytes(path, &bytes)?;
            // drop any torn tail so the next append continues the chain of
            // complete records
            if replay.valid_bytes < bytes.len() as u64 {
                file.set_len(replay.valid_bytes)?;
            }
            replay
        };
        file.seek(SeekFrom::End(0))?;
        Ok((WriteAheadLog { file }, replay))
    }

    /// Append one record: a single `write` of the assembled frame.
    /// Returns the bytes written. Durability is the caller's policy —
    /// pair with [`sync`](Self::sync).
    pub(crate) fn append(&mut self, record: &WalRecord) -> Result<usize, StoreError> {
        let mut payload = Vec::with_capacity(StoredEntry::BYTES + 1);
        record.encode_payload(&mut payload);
        let mut frame = Vec::with_capacity(FRAME_BYTES + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        Ok(frame.len())
    }

    /// Force everything appended so far onto stable storage.
    pub(crate) fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// A second handle to the log file for a caller-owned sync thread.
    /// Both handles share one open file description, so `sync_data` on
    /// the clone flushes everything appended through this one — the
    /// caller can group-commit boundaries off its hot thread.
    pub(crate) fn sync_handle(&self) -> Result<File, StoreError> {
        Ok(self.file.try_clone()?)
    }

    /// Truncate the log back to an empty header — called after a snapshot
    /// has captured everything the log recorded. The truncation is synced:
    /// a crash right after must not resurrect pre-snapshot records.
    pub(crate) fn reset(&mut self) -> Result<(), StoreError> {
        self.file.set_len(HEADER_BYTES as u64)?;
        self.file.seek(SeekFrom::End(0))?;
        self.file.sync_data()?;
        Ok(())
    }
}

/// Replay a log image: header validation, then record iteration. See
/// [`WalReplay`] for the tolerance contract.
fn replay_bytes(path: &Path, bytes: &[u8]) -> Result<WalReplay, StoreError> {
    let mut reader = Reader::new(bytes);
    let (Some(magic), Some(version)) = (reader.take(MAGIC.len()), reader.u32()) else {
        // the creation write itself was torn; nothing was ever recorded
        return Ok(WalReplay { records: Vec::new(), torn_tail: true, valid_bytes: 0 });
    };
    if magic != MAGIC {
        return Err(StoreError::corrupt(path, 0, "bad WAL magic"));
    }
    if version != FORMAT_VERSION {
        return Err(StoreError::VersionSkew {
            file: path.display().to_string(),
            found: version,
            expected: FORMAT_VERSION,
        });
    }

    let mut records = Vec::new();
    let mut pos = HEADER_BYTES;
    let mut torn_tail = false;
    while reader.remaining() > 0 {
        // frame header or payload running past the end of the file: the
        // final append was torn mid-write — skip it, but remember it
        let (Some(len), Some(checksum)) = (reader.u32(), reader.u64()) else {
            torn_tail = true;
            break;
        };
        let Some(payload) = reader.take(len as usize) else {
            torn_tail = true;
            break;
        };
        // the payload is fully present: a checksum mismatch here is real
        // corruption, not a torn write
        if fnv1a64(payload) != checksum {
            return Err(StoreError::corrupt(path, pos as u64, "record checksum mismatch"));
        }
        let mut r = Reader::new(payload);
        let record = match r.u8() {
            Some(KIND_PAIR) => StoredEntry::decode(&mut r).map(WalRecord::Pair),
            Some(KIND_EPOCH) => r.u64().map(WalRecord::Epoch),
            _ => None,
        };
        match record {
            Some(rec) if r.remaining() == 0 => records.push(rec),
            _ => return Err(StoreError::corrupt(path, pos as u64, "malformed record payload")),
        }
        pos += FRAME_BYTES + payload.len();
    }
    Ok(WalReplay { records, torn_tail, valid_bytes: pos as u64 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{StoredKey, StoredSide};
    use crate::temp::TempDir;

    fn entry(seed: u64) -> StoredEntry {
        StoredEntry {
            key: StoredKey::new(StoredSide::new(seed, 10, 12), StoredSide::new(seed + 1, 11, 13)),
            precision: (seed % 3) as u8,
            value: seed as f32,
            value_f64: seed as f64 + 0.125,
            relative_residual: 1e-9,
            iterations: seed,
        }
    }

    fn reopen(path: &Path) -> WalReplay {
        WriteAheadLog::open(path).expect("reopen").1
    }

    #[test]
    fn appends_replay_in_order() {
        let dir = TempDir::new("wal-order").unwrap();
        let path = dir.path().join("wal.log");
        let (mut wal, fresh) = WriteAheadLog::open(&path).unwrap();
        assert!(fresh.records.is_empty() && !fresh.torn_tail);
        for seed in 0..5 {
            wal.append(&WalRecord::Pair(entry(seed))).unwrap();
        }
        wal.append(&WalRecord::Epoch(3)).unwrap();
        wal.sync().unwrap();
        drop(wal);

        let replay = reopen(&path);
        assert!(!replay.torn_tail);
        assert_eq!(replay.records.len(), 6);
        for (seed, rec) in replay.records[..5].iter().enumerate() {
            assert_eq!(*rec, WalRecord::Pair(entry(seed as u64)));
        }
        assert_eq!(replay.records[5], WalRecord::Epoch(3));
    }

    #[test]
    fn a_torn_final_record_is_skipped_and_flagged() {
        let dir = TempDir::new("wal-torn").unwrap();
        let path = dir.path().join("wal.log");
        let (mut wal, _) = WriteAheadLog::open(&path).unwrap();
        wal.append(&WalRecord::Pair(entry(1))).unwrap();
        wal.append(&WalRecord::Pair(entry(2))).unwrap();
        wal.sync().unwrap();
        drop(wal);

        // tear the final record: chop bytes off the end, mid-payload
        let full = std::fs::read(&path).unwrap();
        for cut in 1..(FRAME_BYTES + 3) {
            std::fs::write(&path, &full[..full.len() - cut]).unwrap();
            let replay = reopen(&path);
            assert!(replay.torn_tail, "cut of {cut} bytes must read as torn");
            assert_eq!(replay.records, vec![WalRecord::Pair(entry(1))]);
        }
    }

    #[test]
    fn reopening_after_a_tear_truncates_and_appends_cleanly() {
        let dir = TempDir::new("wal-heal").unwrap();
        let path = dir.path().join("wal.log");
        let (mut wal, _) = WriteAheadLog::open(&path).unwrap();
        wal.append(&WalRecord::Pair(entry(1))).unwrap();
        wal.append(&WalRecord::Pair(entry(2))).unwrap();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();

        // the torn bytes are truncated on open, so a post-recovery append
        // chains onto the last complete record
        let (mut wal, replay) = WriteAheadLog::open(&path).unwrap();
        assert!(replay.torn_tail);
        wal.append(&WalRecord::Pair(entry(9))).unwrap();
        drop(wal);
        let replay = reopen(&path);
        assert!(!replay.torn_tail);
        assert_eq!(replay.records, vec![WalRecord::Pair(entry(1)), WalRecord::Pair(entry(9))]);
    }

    #[test]
    fn checksum_corruption_is_a_hard_error() {
        let dir = TempDir::new("wal-corrupt").unwrap();
        let path = dir.path().join("wal.log");
        let (mut wal, _) = WriteAheadLog::open(&path).unwrap();
        wal.append(&WalRecord::Pair(entry(1))).unwrap();
        drop(wal);

        // flip one payload byte of the (fully present) record
        let mut bytes = std::fs::read(&path).unwrap();
        let flip = HEADER_BYTES + FRAME_BYTES + 3;
        bytes[flip] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match WriteAheadLog::open(&path) {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert_eq!(detail, "record checksum mismatch")
            }
            other => panic!("corruption must be refused, got {other:?}"),
        }
    }

    #[test]
    fn version_skew_is_a_hard_error() {
        let dir = TempDir::new("wal-skew").unwrap();
        let path = dir.path().join("wal.log");
        let (wal, _) = WriteAheadLog::open(&path).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[MAGIC.len()] = 0xEE; // foreign format version
        std::fs::write(&path, &bytes).unwrap();
        match WriteAheadLog::open(&path) {
            Err(StoreError::VersionSkew { found, expected, .. }) => {
                assert_ne!(found, expected);
                assert_eq!(expected, FORMAT_VERSION);
            }
            other => panic!("version skew must be refused, got {other:?}"),
        }
    }

    #[test]
    fn reset_empties_the_log_but_keeps_it_valid() {
        let dir = TempDir::new("wal-reset").unwrap();
        let path = dir.path().join("wal.log");
        let (mut wal, _) = WriteAheadLog::open(&path).unwrap();
        wal.append(&WalRecord::Pair(entry(1))).unwrap();
        wal.reset().unwrap();
        wal.append(&WalRecord::Epoch(7)).unwrap();
        drop(wal);
        let replay = reopen(&path);
        assert!(!replay.torn_tail);
        assert_eq!(replay.records, vec![WalRecord::Epoch(7)]);
    }
}
