//! `mgk-store` — the durability plane of the serving stack: an append-only
//! write-ahead log of solved pair entries plus epoch-boundary snapshots,
//! so a restarted server recovers its expensive state from disk instead of
//! re-solving its corpus cold.
//!
//! The expensive artifact of the marginalized-graph-kernel service is the
//! set of *solved pair values*: each one costs a full PCG solve over the
//! octile product system. The serving runtime keys those values by content
//! hash, which makes them location-independent and restart-stable — the
//! same property that lets a cluster route pairs deterministically makes
//! them naturally durable. This crate persists them:
//!
//! * **The write-ahead log** — append-only, checksummed, length-prefixed
//!   records: solved pair entries ([`StoredEntry`]) and
//!   epoch marks. Appends are one `write` syscall per record; the
//!   [`FsyncPolicy`] decides when the OS is forced to make them durable
//!   (every record, every flush boundary, or never).
//! * **Snapshot files** — a point-in-time capture of the service state
//!   worth keeping across restarts ([`StoreSnapshot`]): the epoch, the
//!   Gram triangle with its member identities, and every live cache entry.
//!   Snapshots are written to a temporary file and renamed into place, so
//!   a crash mid-snapshot can never produce a half-written snapshot under
//!   a valid name.
//! * **[`PairStore`]** — a directory tying the two together. Opening it
//!   performs **recovery**: load the newest valid snapshot, replay the log
//!   tail, tolerate a torn final record (a crash mid-append), and refuse
//!   checksum corruption or format-version skew with a typed
//!   [`StoreError`]. After a successful snapshot the log is truncated —
//!   everything the log recorded is captured by the snapshot, so the log
//!   only ever holds the tail since the last epoch boundary.
//!
//! The crate is deliberately free of solver types: records carry plain
//! integers and floats ([`StoredSide`], [`StoredKey`], [`StoredEntry`]),
//! and the runtime converts to and from its own key/entry types. That
//! keeps the on-disk format independent of in-memory refactors.
//!
//! ```
//! use mgk_store::{FsyncPolicy, PairStore, StoredEntry, StoredKey, StoredSide, TempDir};
//!
//! let dir = TempDir::new("doctest").unwrap();
//! let key = StoredKey::new(StoredSide::new(1, 4, 3), StoredSide::new(2, 5, 6));
//! let entry = StoredEntry {
//!     key,
//!     precision: 0,
//!     value: 0.25,
//!     value_f64: 0.25,
//!     relative_residual: 1e-7,
//!     iterations: 12,
//! };
//!
//! // first life: append one solved pair, mark the epoch, shut down
//! let (mut store, recovery) = PairStore::open(dir.path(), FsyncPolicy::EveryFlush).unwrap();
//! assert_eq!(recovery.epoch, 0);
//! store.append_pair(&entry).unwrap();
//! store.mark_epoch(1).unwrap();
//! store.flush_boundary().unwrap();
//! drop(store);
//!
//! // second life: recovery replays the tail
//! let (_store, recovery) = PairStore::open(dir.path(), FsyncPolicy::EveryFlush).unwrap();
//! assert_eq!(recovery.epoch, 1);
//! assert_eq!(recovery.tail.len(), 1);
//! assert_eq!(recovery.tail[0].key, key);
//! ```

#![forbid(unsafe_code)]

mod format;
mod snapshot;
mod store;
mod temp;
mod wal;

pub use format::{StoreError, StoredEntry, StoredKey, StoredSide, FORMAT_VERSION};
pub use snapshot::StoreSnapshot;
pub use store::{Appended, FsyncPolicy, PairStore, Recovery};
pub use temp::TempDir;
