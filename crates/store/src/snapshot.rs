//! Epoch-boundary snapshots: a point-in-time capture of the serving
//! state worth keeping across restarts.
//!
//! A snapshot holds the published epoch, the Gram triangle with its
//! member identities, *and every live cache entry*. The cache entries
//! matter: request-lane solves never enter the triangle, so a snapshot
//! of the triangle alone would lose them the moment the log is
//! truncated.
//!
//! Snapshots are written to a `.tmp` file and atomically renamed to
//! `snapshot-<epoch>.mgksnap`, so a crash mid-write can never leave a
//! half-written snapshot under a valid name — any file with a valid name
//! is complete, and a checksum failure on one is genuine corruption.

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

use std::io::Write;
use std::path::{Path, PathBuf};

use crate::format::{fnv1a64, Reader, StoreError, StoredEntry, StoredSide, FORMAT_VERSION};

const MAGIC: &[u8; 8] = b"MGKSNAP1";
const SUFFIX: &str = ".mgksnap";
const PREFIX: &str = "snapshot-";

/// A point-in-time capture of the service state: epoch, triangle with
/// member identities, and all live cache entries.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StoreSnapshot {
    /// The published epoch (service version) the capture was taken at.
    pub epoch: u64,
    /// Member identities of the Gram matrix, in row order.
    pub sides: Vec<StoredSide>,
    /// The lower triangle of the Gram matrix, row-major:
    /// `len == n * (n + 1) / 2` for `n == sides.len()`.
    pub triangle: Vec<f32>,
    /// Every live pair-cache entry at capture time.
    pub entries: Vec<StoredEntry>,
}

impl StoreSnapshot {
    /// Number of member graphs in the captured triangle.
    pub fn num_graphs(&self) -> usize {
        self.sides.len()
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            8 + 4 * 3
                + self.sides.len() * StoredSide::BYTES
                + self.triangle.len() * 4
                + self.entries.len() * StoredEntry::BYTES,
        );
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&(self.sides.len() as u32).to_le_bytes());
        for side in &self.sides {
            side.encode(&mut out);
        }
        out.extend_from_slice(&(self.triangle.len() as u32).to_le_bytes());
        for v in &self.triangle {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for entry in &self.entries {
            entry.encode(&mut out);
        }
        out
    }

    fn decode(payload: &[u8]) -> Option<Self> {
        let mut r = Reader::new(payload);
        let epoch = r.u64()?;
        let num_sides = r.u32()? as usize;
        let mut sides = Vec::with_capacity(num_sides.min(payload.len()));
        for _ in 0..num_sides {
            sides.push(StoredSide::decode(&mut r)?);
        }
        let tri_len = r.u32()? as usize;
        if tri_len != num_sides * (num_sides + 1) / 2 {
            return None; // triangle length must match the member count
        }
        let mut triangle = Vec::with_capacity(tri_len.min(payload.len()));
        for _ in 0..tri_len {
            triangle.push(r.f32()?);
        }
        let num_entries = r.u32()? as usize;
        let mut entries = Vec::with_capacity(num_entries.min(payload.len()));
        for _ in 0..num_entries {
            entries.push(StoredEntry::decode(&mut r)?);
        }
        if r.remaining() != 0 {
            return None; // trailing bytes mean a layout mismatch
        }
        Some(StoreSnapshot { epoch, sides, triangle, entries })
    }
}

/// Reading and (atomically) writing snapshot files in a store directory.
pub(crate) struct SnapshotFile;

impl SnapshotFile {
    /// The on-disk name a snapshot of `epoch` gets. Zero-padded so the
    /// lexicographic order of names is the numeric order of epochs.
    pub(crate) fn name_for(epoch: u64) -> String {
        format!("{PREFIX}{epoch:020}{SUFFIX}")
    }

    /// Parse the epoch back out of a snapshot file name.
    fn epoch_of(name: &str) -> Option<u64> {
        name.strip_prefix(PREFIX)?.strip_suffix(SUFFIX)?.parse().ok()
    }

    /// Write `snapshot` into `dir`: assemble, checksum, write to a temp
    /// name, fsync, then rename into place and fsync the directory. A
    /// crash at any point leaves either no snapshot or a complete one.
    pub(crate) fn write(dir: &Path, snapshot: &StoreSnapshot) -> Result<PathBuf, StoreError> {
        let payload = snapshot.encode();
        let mut bytes = Vec::with_capacity(MAGIC.len() + 4 + 8 + payload.len());
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);

        let final_path = dir.join(Self::name_for(snapshot.epoch));
        let tmp_path = dir.join(format!("{PREFIX}{:020}.tmp", snapshot.epoch));
        {
            let mut file = std::fs::File::create(&tmp_path)?;
            file.write_all(&bytes)?;
            file.sync_data()?;
        }
        std::fs::rename(&tmp_path, &final_path)?;
        // make the rename itself durable
        std::fs::File::open(dir)?.sync_all()?;
        Ok(final_path)
    }

    /// Load one snapshot file, validating magic, version, and checksum.
    pub(crate) fn load(path: &Path) -> Result<StoreSnapshot, StoreError> {
        let bytes = std::fs::read(path)?;
        let header = MAGIC.len() + 4 + 8;
        let mut reader = Reader::new(&bytes);
        let (Some(magic), Some(version), Some(checksum)) =
            (reader.take(MAGIC.len()), reader.u32(), reader.u64())
        else {
            return Err(StoreError::corrupt(path, 0, "snapshot shorter than its header"));
        };
        if magic != MAGIC {
            return Err(StoreError::corrupt(path, 0, "bad snapshot magic"));
        }
        if version != FORMAT_VERSION {
            return Err(StoreError::VersionSkew {
                file: path.display().to_string(),
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let payload = &bytes[header..];
        if fnv1a64(payload) != checksum {
            return Err(StoreError::corrupt(path, header as u64, "snapshot checksum mismatch"));
        }
        StoreSnapshot::decode(payload)
            .ok_or_else(|| StoreError::corrupt(path, header as u64, "malformed snapshot payload"))
    }

    /// Find and load the newest snapshot in `dir` (highest epoch), if any.
    /// Leftover `.tmp` files from a crash mid-write are ignored — only an
    /// atomically renamed snapshot counts.
    pub(crate) fn load_newest(dir: &Path) -> Result<Option<StoreSnapshot>, StoreError> {
        match Self::newest_name(dir)? {
            Some(name) => Self::load(&dir.join(name)).map(Some),
            None => Ok(None),
        }
    }

    fn newest_name(dir: &Path) -> Result<Option<String>, StoreError> {
        let mut newest: Option<(u64, String)> = None;
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(epoch) = Self::epoch_of(name) else { continue };
            if newest.as_ref().is_none_or(|(best, _)| epoch > *best) {
                newest = Some((epoch, name.to_string()));
            }
        }
        Ok(newest.map(|(_, name)| name))
    }

    /// Remove every snapshot older than `keep_epoch`. Returns how many
    /// files were pruned.
    pub(crate) fn prune_older_than(dir: &Path, keep_epoch: u64) -> Result<usize, StoreError> {
        let mut pruned = 0;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(epoch) = Self::epoch_of(name) else { continue };
            if epoch < keep_epoch {
                std::fs::remove_file(entry.path())?;
                pruned += 1;
            }
        }
        Ok(pruned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::StoredKey;
    use crate::temp::TempDir;

    fn sample(epoch: u64, n: usize) -> StoreSnapshot {
        let sides: Vec<StoredSide> =
            (0..n).map(|i| StoredSide::new(100 + i as u64, 4 + i as u32, 3)).collect();
        let triangle: Vec<f32> = (0..n * (n + 1) / 2).map(|i| i as f32 * 0.25).collect();
        let entries = vec![StoredEntry {
            key: StoredKey::new(sides[0], sides[n - 1]),
            precision: 1,
            value: 0.5,
            value_f64: 0.5 + 1e-12,
            relative_residual: 3e-9,
            iterations: epoch,
        }];
        StoreSnapshot { epoch, sides, triangle, entries }
    }

    #[test]
    fn snapshots_roundtrip() {
        let dir = TempDir::new("snap-roundtrip").unwrap();
        let snap = sample(7, 3);
        let path = SnapshotFile::write(dir.path(), &snap).unwrap();
        assert_eq!(SnapshotFile::load(&path).unwrap(), snap);
        assert_eq!(SnapshotFile::load_newest(dir.path()).unwrap(), Some(snap));
    }

    #[test]
    fn newest_snapshot_wins_and_pruning_keeps_it() {
        let dir = TempDir::new("snap-newest").unwrap();
        for epoch in [2, 9, 5] {
            SnapshotFile::write(dir.path(), &sample(epoch, 2)).unwrap();
        }
        let newest = SnapshotFile::load_newest(dir.path()).unwrap().unwrap();
        assert_eq!(newest.epoch, 9);
        assert_eq!(SnapshotFile::prune_older_than(dir.path(), 9).unwrap(), 2);
        let survivor = SnapshotFile::load_newest(dir.path()).unwrap().unwrap();
        assert_eq!(survivor.epoch, 9);
    }

    #[test]
    fn leftover_tmp_files_are_ignored() {
        let dir = TempDir::new("snap-tmp").unwrap();
        SnapshotFile::write(dir.path(), &sample(3, 2)).unwrap();
        // simulate a crash mid-write of a newer snapshot
        std::fs::write(dir.path().join("snapshot-00000000000000000009.tmp"), b"partial").unwrap();
        let newest = SnapshotFile::load_newest(dir.path()).unwrap().unwrap();
        assert_eq!(newest.epoch, 3, "a torn tmp file must never shadow a real snapshot");
    }

    #[test]
    fn corruption_and_skew_are_hard_errors() {
        let dir = TempDir::new("snap-corrupt").unwrap();
        let path = SnapshotFile::write(dir.path(), &sample(4, 2)).unwrap();
        let good = std::fs::read(&path).unwrap();

        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(SnapshotFile::load(&path), Err(StoreError::Corrupt { .. })));

        let mut skewed = good;
        skewed[MAGIC.len()] = 0x7F;
        std::fs::write(&path, &skewed).unwrap();
        assert!(matches!(
            SnapshotFile::load(&path),
            Err(StoreError::VersionSkew { found: 0x7F, .. })
        ));
    }

    #[test]
    fn empty_snapshot_is_valid() {
        let dir = TempDir::new("snap-empty").unwrap();
        let snap = StoreSnapshot { epoch: 1, ..Default::default() };
        SnapshotFile::write(dir.path(), &snap).unwrap();
        assert_eq!(SnapshotFile::load_newest(dir.path()).unwrap(), Some(snap));
    }
}
