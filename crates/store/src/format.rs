//! The on-disk vocabulary: plain-data record types, their byte encoding,
//! the payload checksum, and the typed error every durability operation
//! reports.
//!
//! Everything is little-endian and fixed-width. The format carries a
//! version number in every file header; a store written by a different
//! format version is refused with [`StoreError::VersionSkew`] instead of
//! being misread.

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

use std::path::Path;

/// Version stamped into every WAL and snapshot header. Bump it whenever
/// the byte layout of records or headers changes; recovery refuses files
/// of any other version.
pub const FORMAT_VERSION: u32 = 1;

/// FNV-1a over a byte slice — the payload checksum of every record and
/// snapshot. Dependency-free and byte-order independent; 64 bits is ample
/// for corruption *detection* (the threat is bit rot and torn writes, not
/// an adversary).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Errors reported by the durability plane.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// A record or file failed validation: checksum mismatch, impossible
    /// length, unknown record kind, or a truncated *non-final* region.
    /// Unlike a torn final WAL record (tolerated and counted), corruption
    /// is refused — replaying past it could serve wrong kernel values.
    Corrupt {
        /// The file that failed validation.
        file: String,
        /// Byte offset of the failing region.
        offset: u64,
        /// What failed.
        detail: &'static str,
    },
    /// The file was written by a different format version; re-solving is
    /// safer than guessing at a layout.
    VersionSkew {
        /// The file that declared the foreign version.
        file: String,
        /// The version found in the header.
        found: u32,
        /// The version this build writes ([`FORMAT_VERSION`]).
        expected: u32,
    },
}

impl StoreError {
    pub(crate) fn corrupt(file: &Path, offset: u64, detail: &'static str) -> Self {
        StoreError::Corrupt { file: file.display().to_string(), offset, detail }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt { file, offset, detail } => {
                write!(f, "corrupt store file {file} at byte {offset}: {detail}")
            }
            StoreError::VersionSkew { file, found, expected } => {
                write!(f, "store file {file} has format version {found}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// One side of a stored pair key: the structure's content hash plus the
/// cheap discriminators that keep a 64-bit collision from aliasing two
/// structurally different graphs — the on-disk mirror of the runtime's
/// collision-hardened cache key side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StoredSide {
    /// Content hash of the structure.
    pub hash: u64,
    /// Vertex count of the structure.
    pub vertices: u32,
    /// Undirected edge count of the structure.
    pub edges: u32,
}

impl StoredSide {
    /// Bundle a content hash with its discriminators.
    pub fn new(hash: u64, vertices: u32, edges: u32) -> Self {
        StoredSide { hash, vertices, edges }
    }

    pub(crate) const BYTES: usize = 16;

    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.hash.to_le_bytes());
        out.extend_from_slice(&self.vertices.to_le_bytes());
        out.extend_from_slice(&self.edges.to_le_bytes());
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(StoredSide { hash: r.u64()?, vertices: r.u32()?, edges: r.u32()? })
    }
}

/// Order-normalized stored pair key: `lo <= hi`, so `(a, b)` and `(b, a)`
/// persist identically — restart-stable for the same reason the cluster
/// router is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoredKey {
    /// Lexicographically smaller side.
    pub lo: StoredSide,
    /// Lexicographically larger side.
    pub hi: StoredSide,
}

impl StoredKey {
    /// Build the normalized key of an unordered pair.
    pub fn new(a: StoredSide, b: StoredSide) -> Self {
        if a <= b {
            StoredKey { lo: a, hi: b }
        } else {
            StoredKey { lo: b, hi: a }
        }
    }

    pub(crate) const BYTES: usize = 2 * StoredSide::BYTES;

    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        self.lo.encode(out);
        self.hi.encode(out);
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(StoredKey { lo: StoredSide::decode(r)?, hi: StoredSide::decode(r)? })
    }
}

/// One persisted pair solve — everything the runtime's cache entry needs
/// to answer a request after a restart. The precision tag is an opaque
/// small integer from the runtime's point of view; the store round-trips
/// it without interpreting it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredEntry {
    /// The normalized pair identity.
    pub key: StoredKey,
    /// Precision tag of the original solve (runtime-defined encoding).
    pub precision: u8,
    /// The serving (`f32`) kernel value.
    pub value: f32,
    /// The full-precision kernel value.
    pub value_f64: f64,
    /// Final relative residual of the original solve.
    pub relative_residual: f64,
    /// PCG iterations the original solve took.
    pub iterations: u64,
}

impl StoredEntry {
    pub(crate) const BYTES: usize = StoredKey::BYTES + 1 + 4 + 8 + 8 + 8;

    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        self.key.encode(out);
        out.push(self.precision);
        out.extend_from_slice(&self.value.to_le_bytes());
        out.extend_from_slice(&self.value_f64.to_le_bytes());
        out.extend_from_slice(&self.relative_residual.to_le_bytes());
        out.extend_from_slice(&self.iterations.to_le_bytes());
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(StoredEntry {
            key: StoredKey::decode(r)?,
            precision: r.u8()?,
            value: r.f32()?,
            value_f64: r.f64()?,
            relative_residual: r.f64()?,
            iterations: r.u64()?,
        })
    }
}

/// Cursor over a checksummed payload. Decoding runs *after* the checksum
/// passed, so a `None` here means a logic-level impossibility (e.g. a
/// record shorter than its kind requires) — callers map it to
/// [`StoreError::Corrupt`].
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(slice)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, _) = self.buf.get(self.pos..)?.split_first_chunk::<N>()?;
        self.pos += N;
        Some(*head)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    pub(crate) fn f32(&mut self) -> Option<f32> {
        self.u32().map(f32::from_bits)
    }

    pub(crate) fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_entry(seed: u64) -> StoredEntry {
        StoredEntry {
            key: StoredKey::new(
                StoredSide::new(seed, seed as u32 % 40 + 1, seed as u32 % 60),
                StoredSide::new(seed.wrapping_mul(31), 7, 9),
            ),
            precision: (seed % 3) as u8,
            value: seed as f32 * 0.5,
            value_f64: seed as f64 * 0.5 + 1e-13,
            relative_residual: 1e-8 / (seed + 1) as f64,
            iterations: seed.wrapping_mul(3).wrapping_add(1),
        }
    }

    #[test]
    fn entries_roundtrip_bit_exactly() {
        for seed in [0u64, 1, 7, u64::MAX - 3] {
            let entry = sample_entry(seed);
            let mut buf = Vec::new();
            entry.encode(&mut buf);
            assert_eq!(buf.len(), StoredEntry::BYTES);
            let mut r = Reader::new(&buf);
            let back = StoredEntry::decode(&mut r).expect("full buffer decodes");
            assert_eq!(back, entry);
            assert_eq!(back.value.to_bits(), entry.value.to_bits());
            assert_eq!(back.value_f64.to_bits(), entry.value_f64.to_bits());
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn keys_are_order_normalized_on_disk() {
        let a = StoredSide::new(10, 4, 4);
        let b = StoredSide::new(3, 9, 9);
        assert_eq!(StoredKey::new(a, b), StoredKey::new(b, a));
    }

    #[test]
    fn truncated_buffers_decode_to_none_not_panic() {
        let entry = sample_entry(42);
        let mut buf = Vec::new();
        entry.encode(&mut buf);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(StoredEntry::decode(&mut r).is_none(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn fnv_is_stable() {
        // pinned: the checksum is part of the on-disk format, so its value
        // for a known input must never drift between builds
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"mgk"), fnv1a64(b"mgk"));
        assert_ne!(fnv1a64(b"mgk"), fnv1a64(b"mgl"));
    }
}
