//! The LRU-bounded pair-entry cache of the streaming Gram service.
//!
//! Every converged pair solve yields a kernel value; keeping it turns a
//! resubmitted structure into a pure lookup. Nodal solution vectors are
//! not kept: one per pair would pin megabytes most lookups never read. The
//! cache is bounded — at capacity the least-recently-used entry
//! is evicted — so a long-running service holds memory constant no matter
//! how many structures stream through.
//!
//! Two properties matter at serving scale:
//!
//! * **Keys are collision-hardened.** A [`PairKey`] is built from two
//!   [`PairSide`]s, each carrying the structure's 64-bit content hash *and*
//!   cheap discriminators (vertex count, edge count). A content-hash
//!   collision between structurally different graphs therefore no longer
//!   aliases their cache entries unless the graphs also agree on both
//!   counts — and the service counts observed hash collisions in
//!   `ServiceStats::hash_collisions` so the residual risk is monitorable.
//! * **Eviction is O(1) amortized.** Recency is tracked by a tick-ordered
//!   queue with lazy deletion (`Recency`) instead of a full-map minimum
//!   scan, so inserting at capacity does not degrade linearly with the
//!   cache size.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

use mgk_graph::Graph;
use mgk_linalg::Precision;

/// One side of a pair key: the structure's content hash plus cheap
/// discriminators that keep a 64-bit hash collision from aliasing two
/// structurally different graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PairSide {
    /// FNV-1a content hash of the structure
    /// ([`graph_content_hash`](crate::hash::graph_content_hash)).
    pub hash: u64,
    /// Vertex count of the structure.
    pub vertices: u32,
    /// Undirected edge count of the structure.
    pub edges: u32,
}

impl PairSide {
    /// Bundle a content hash with its discriminators.
    pub fn new(hash: u64, vertices: u32, edges: u32) -> Self {
        PairSide { hash, vertices, edges }
    }

    /// The identity of `g` under `hasher` — what cache, reorder and routing
    /// keys are all made of.
    pub fn of<V, E>(hasher: fn(&Graph<V, E>) -> u64, g: &Graph<V, E>) -> Self {
        PairSide::new(hasher(g), g.num_vertices() as u32, g.num_edges() as u32)
    }
}

/// Order-normalized cache key: the content identities of the two structures
/// of a pair. The kernel is symmetric, so `(a, b)` and `(b, a)` map to the
/// same entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PairKey {
    /// Lexicographically smaller side.
    pub lo: PairSide,
    /// Lexicographically larger side.
    pub hi: PairSide,
}

impl PairKey {
    /// Build the normalized key of an unordered pair.
    pub fn new(a: PairSide, b: PairSide) -> Self {
        if a <= b {
            PairKey { lo: a, hi: b }
        } else {
            PairKey { lo: b, hi: a }
        }
    }
}

/// One cached pair solve.
///
/// The entry keeps enough of the original
/// [`KernelResult`](mgk_core::KernelResult) to answer a request without
/// re-solving: the serving (`f32`) value, the full-precision contraction,
/// the precision the solve ran at — a typed `f64` request is only answered
/// from entries whose solve actually carried `f64` accuracy — and the
/// convergence metadata.
#[derive(Debug, Clone)]
pub struct CachedEntry {
    /// The (unnormalized) kernel value `K(G_i, G_j)`.
    pub value: f32,
    /// The full-precision (`f64`-contracted) kernel value of the original
    /// solve.
    pub value_f64: f64,
    /// The [`Precision`] the original solve ran at.
    pub precision: Precision,
    /// Final relative residual of the original solve.
    pub relative_residual: f64,
    /// PCG iterations the original solve took.
    pub iterations: usize,
}

impl CachedEntry {
    /// Whether this entry can answer a request at `wanted` without losing
    /// accuracy: `f32` requests accept any entry, `f64` requests only
    /// entries whose solve ran at `f64`.
    pub(crate) fn answers(&self, wanted: Precision) -> bool {
        wanted == Precision::F32 || self.precision == Precision::F64
    }
}

/// Tick-ordered recency index with lazy deletion.
///
/// Every touch appends `(tick, key)` to a queue; the authoritative stamp per
/// key lives with the owner's map. Popping the LRU key skips queue entries
/// whose tick no longer matches the owner's current stamp (the key was
/// touched again later, or removed). The queue is compacted whenever it
/// grows past twice the live-entry count, so the whole structure is O(1)
/// amortized per operation and O(live) in memory.
#[derive(Debug, Clone, Default)]
pub(crate) struct Recency<K> {
    queue: VecDeque<(u64, K)>,
    tick: u64,
}

impl<K: Copy + Eq + Hash> Recency<K> {
    pub(crate) fn new() -> Self {
        Recency { queue: VecDeque::new(), tick: 0 }
    }

    /// Record an access to `key`, returning the stamp the owner must store
    /// as the key's current tick.
    pub(crate) fn touch(&mut self, key: K) -> u64 {
        self.tick += 1;
        self.queue.push_back((self.tick, key));
        self.tick
    }

    /// Pop the least-recently-touched live key. `current` reports the
    /// owner's stamp for a key (`None` once removed); stale queue entries
    /// are discarded on the way.
    pub(crate) fn pop_lru(&mut self, current: impl Fn(&K) -> Option<u64>) -> Option<K> {
        while let Some((tick, key)) = self.queue.pop_front() {
            if current(&key) == Some(tick) {
                return Some(key);
            }
        }
        None
    }

    /// Drop stale queue entries once they outnumber the live ones, keeping
    /// queue memory proportional to `live`.
    pub(crate) fn compact_if_bloated(&mut self, live: usize, current: impl Fn(&K) -> Option<u64>) {
        if self.queue.len() > live.saturating_mul(2) + 16 {
            self.queue.retain(|(tick, key)| current(key) == Some(*tick));
        }
    }
}

/// An LRU-bounded map: the one get/insert/evict behind every bounded cache
/// of the service ([`PairCache`], [`ReorderCache`]).
///
/// Recency is tracked with a tick-ordered queue with lazy deletion
/// (`Recency`); both lookup refresh and eviction at capacity are O(1)
/// amortized, so a serving-scale cache does not degrade with its size.
/// Hit/miss counters live with the owner (`ServiceStats`), not here.
#[derive(Debug, Clone)]
pub struct LruMap<K, V> {
    capacity: usize,
    map: HashMap<K, (u64, V)>,
    recency: Recency<K>,
}

impl<K: Copy + Eq + Hash, V> LruMap<K, V> {
    /// An empty map holding at most `capacity` entries (0 disables it
    /// entirely: nothing is ever stored).
    pub fn new(capacity: usize) -> Self {
        LruMap { capacity, map: HashMap::new(), recency: Recency::new() }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look up a key, refreshing its recency on a hit.
    pub fn get(&mut self, key: K) -> Option<&V> {
        let stamp_entry = self.map.get_mut(&key)?;
        stamp_entry.0 = self.recency.touch(key);
        self.compact();
        // reborrow: compaction only touched the recency queue
        self.map.get(&key).map(|(_, value)| value)
    }

    /// Insert (or refresh) an entry, evicting the least-recently-used one
    /// when at capacity.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            let map = &self.map;
            if let Some(victim) = self.recency.pop_lru(|k| map.get(k).map(|(t, _)| *t)) {
                self.map.remove(&victim);
            }
        }
        let stamp = self.recency.touch(key);
        self.map.insert(key, (stamp, value));
        self.compact();
    }

    fn compact(&mut self) {
        let map = &self.map;
        self.recency.compact_if_bloated(map.len(), |k| map.get(k).map(|(t, _)| *t));
    }

    /// Every live entry, in no particular order — the snapshot capture
    /// path. Does not refresh recency: capturing a snapshot must not
    /// perturb eviction order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter().map(|(key, (_, value))| (key, value))
    }
}

/// The pair-entry cache: normalized [`PairKey`] to [`CachedEntry`].
pub type PairCache = LruMap<PairKey, CachedEntry>;

/// Prepared structures by the *raw* structure's content identity — the same
/// collision-hardened `(content hash, vertices, edges)` triple [`PairKey`]s
/// are built from. Preparation is a pure function of a structure's content
/// and independent of the solve precision, so one entry serves every lane.
/// The service stores an `Arc` and hands out clones of the pointer: an
/// evicted entry lives on as long as a member or an in-flight request holds
/// it.
pub type ReorderCache<T> = LruMap<PairSide, T>;

#[cfg(test)]
mod tests {
    use super::*;

    fn side(h: u64) -> PairSide {
        PairSide::new(h, 4, 4)
    }

    fn key(a: u64, b: u64) -> PairKey {
        PairKey::new(side(a), side(b))
    }

    fn entry(v: f32) -> CachedEntry {
        CachedEntry {
            value: v,
            value_f64: v as f64,
            precision: Precision::F32,
            relative_residual: 0.0,
            iterations: 1,
        }
    }

    #[test]
    fn keys_are_order_normalized() {
        assert_eq!(key(3, 7), key(7, 3));
        assert_ne!(key(3, 7), key(3, 8));
    }

    #[test]
    fn discriminators_separate_hash_collisions() {
        // two distinct structures forced onto one content hash: different
        // vertex/edge counts must map to different keys, so a 64-bit hash
        // collision can no longer serve the wrong kernel value
        let path = PairSide::new(0xDEAD, 4, 3);
        let cycle = PairSide::new(0xDEAD, 4, 4);
        assert_ne!(PairKey::new(path, path), PairKey::new(cycle, cycle));

        let mut c = PairCache::new(8);
        c.insert(PairKey::new(path, path), entry(1.0));
        assert!(
            c.get(PairKey::new(cycle, cycle)).is_none(),
            "hash-colliding structure must miss, not alias"
        );
        c.insert(PairKey::new(cycle, cycle), entry(2.0));
        assert_eq!(c.get(PairKey::new(path, path)).unwrap().value, 1.0);
        assert_eq!(c.get(PairKey::new(cycle, cycle)).unwrap().value, 2.0);
    }

    #[test]
    fn precision_gating_blocks_narrow_entries_from_wide_requests() {
        let narrow = entry(1.0);
        let wide = CachedEntry { precision: Precision::F64, ..entry(1.0) };
        assert!(narrow.answers(Precision::F32));
        assert!(!narrow.answers(Precision::F64));
        assert!(wide.answers(Precision::F32) && wide.answers(Precision::F64));
    }

    #[test]
    fn get_returns_inserted_entries() {
        let mut c = PairCache::new(4);
        c.insert(key(1, 2), entry(0.5));
        assert_eq!(c.get(key(2, 1)).unwrap().value, 0.5);
        assert!(c.get(key(9, 9)).is_none());
    }

    #[test]
    fn lru_eviction_drops_the_coldest_entry() {
        let mut c = PairCache::new(2);
        c.insert(key(1, 1), entry(1.0));
        c.insert(key(2, 2), entry(2.0));
        // touch (1,1) so (2,2) becomes the LRU victim
        assert!(c.get(key(1, 1)).is_some());
        c.insert(key(3, 3), entry(3.0));
        assert_eq!(c.len(), 2);
        assert!(c.get(key(1, 1)).is_some());
        assert!(c.get(key(2, 2)).is_none(), "LRU entry should have been evicted");
        assert!(c.get(key(3, 3)).is_some());
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let mut c = PairCache::new(2);
        c.insert(key(1, 1), entry(1.0));
        c.insert(key(2, 2), entry(2.0));
        c.insert(key(1, 1), entry(1.5));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(key(1, 1)).unwrap().value, 1.5);
        assert!(c.get(key(2, 2)).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = PairCache::new(0);
        c.insert(key(1, 1), entry(1.0));
        assert!(c.is_empty());
        assert!(c.get(key(1, 1)).is_none());
    }

    #[test]
    fn eviction_order_survives_heavy_refresh_traffic() {
        // hammer a small cache with refreshes so the lazy queue accumulates
        // stale entries and compaction kicks in; LRU order must still hold
        let mut c = PairCache::new(4);
        for k in 0..4 {
            c.insert(key(k, k), entry(k as f32));
        }
        for _ in 0..1000 {
            for k in 1..4 {
                assert!(c.get(key(k, k)).is_some());
            }
        }
        // key 0 is now by far the coldest
        c.insert(key(9, 9), entry(9.0));
        assert_eq!(c.len(), 4);
        assert!(c.get(key(0, 0)).is_none(), "coldest entry should have been evicted");
        for k in 1..4 {
            assert!(c.get(key(k, k)).is_some());
        }
        assert!(c.get(key(9, 9)).is_some());
    }

    #[test]
    fn queue_memory_stays_proportional_to_live_entries() {
        let mut c = PairCache::new(8);
        for k in 0..8 {
            c.insert(key(k, k), entry(0.0));
        }
        for _ in 0..10_000 {
            for k in 0..8 {
                assert!(c.get(key(k, k)).is_some());
            }
        }
        assert!(
            c.recency.queue.len() <= 8 * 2 + 16,
            "lazy queue must be compacted: {} entries for 8 live keys",
            c.recency.queue.len()
        );
    }

    #[test]
    fn reorder_cache_evicts_least_recently_used_at_capacity() {
        let mut c: ReorderCache<u32> = ReorderCache::new(2);
        c.insert(side(1), 10);
        c.insert(side(2), 20);
        assert_eq!(c.get(side(1)), Some(&10)); // refresh 1: LRU is now 2
        c.insert(side(3), 30);
        assert_eq!(c.len(), 2, "capacity bound violated");
        assert_eq!(c.get(side(2)), None, "2 was the LRU entry");
        assert_eq!(c.get(side(1)), Some(&10));
        assert_eq!(c.get(side(3)), Some(&30));
    }

    #[test]
    fn reorder_cache_with_zero_capacity_stores_nothing() {
        let mut c: ReorderCache<u32> = ReorderCache::new(0);
        c.insert(side(1), 10);
        assert!(c.is_empty());
        assert_eq!(c.get(side(1)), None);
    }

    #[test]
    fn pair_cache_iter_walks_live_entries_without_touching_recency() {
        let mut c = PairCache::new(2);
        c.insert(key(1, 1), entry(1.0));
        c.insert(key(2, 2), entry(2.0));
        assert_eq!(c.iter().count(), 2);
        let tick_before = c.recency.tick;
        let total: f32 = c.iter().map(|(_, e)| e.value).sum();
        assert_eq!(total, 3.0);
        assert_eq!(c.recency.tick, tick_before, "iteration must not perturb LRU order");
    }

    #[test]
    fn recency_pop_lru_skips_stale_entries() {
        let mut r: Recency<u32> = Recency::new();
        let mut stamps: HashMap<u32, u64> = HashMap::new();
        for k in [1u32, 2, 3] {
            stamps.insert(k, r.touch(k));
        }
        stamps.insert(1, r.touch(1)); // refresh 1: its first queue entry is stale
        stamps.remove(&2); // remove 2 entirely
        let victim = r.pop_lru(|k| stamps.get(k).copied());
        assert_eq!(victim, Some(3), "3 is the least-recently-touched live key");
    }
}
