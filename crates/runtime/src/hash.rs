//! Content hashing of graphs for the pair-entry cache.
//!
//! The streaming Gram service keys cached kernel values by the *content* of
//! the two structures, not by their submission order, so resubmitting a
//! structure the service has already seen costs no solve. The hash is
//! FNV-1a over the full graph content — topology, weights, labels and
//! random-walk probabilities — with float payloads hashed by their exact
//! bit patterns (two graphs hash equal iff every `f32` is bitwise equal,
//! which is the same condition under which the solver produces identical
//! systems).

use mgk_graph::{AtomLabel, BondLabel, Element, Graph, Unlabeled};

/// Incremental FNV-1a 64-bit hasher (no `std::hash::Hasher` detour so the
/// byte stream is fully specified and stable across platforms).
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Absorb a byte slice.
    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorb a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorb a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Types whose content can be absorbed into the structure hash.
///
/// Implemented for the label types the workspace's datasets use; downstream
/// label types implement it in one line by forwarding their fields.
pub trait ContentHash {
    /// Absorb this value's content into `h`.
    fn content_hash(&self, h: &mut Fnv1a);
}

impl ContentHash for Unlabeled {
    fn content_hash(&self, _h: &mut Fnv1a) {}
}

macro_rules! impl_content_hash_int {
    ($($t:ty),*) => {$(
        impl ContentHash for $t {
            fn content_hash(&self, h: &mut Fnv1a) {
                h.write_bytes(&self.to_le_bytes());
            }
        }
    )*};
}

impl_content_hash_int!(u8, u16, u32, u64, i8, i16, i32, i64);

impl ContentHash for usize {
    fn content_hash(&self, h: &mut Fnv1a) {
        h.write_u64(*self as u64);
    }
}

impl ContentHash for f32 {
    fn content_hash(&self, h: &mut Fnv1a) {
        h.write_u32(self.to_bits());
    }
}

impl ContentHash for f64 {
    fn content_hash(&self, h: &mut Fnv1a) {
        h.write_u64(self.to_bits());
    }
}

impl ContentHash for bool {
    fn content_hash(&self, h: &mut Fnv1a) {
        h.write_bytes(&[*self as u8]);
    }
}

impl ContentHash for Element {
    fn content_hash(&self, h: &mut Fnv1a) {
        self.atomic_number().content_hash(h);
    }
}

impl ContentHash for AtomLabel {
    fn content_hash(&self, h: &mut Fnv1a) {
        self.element.content_hash(h);
        self.charge.content_hash(h);
        self.hybridization.content_hash(h);
        self.aromatic.content_hash(h);
    }
}

impl ContentHash for BondLabel {
    fn content_hash(&self, h: &mut Fnv1a) {
        self.order.content_hash(h);
        self.conjugated.content_hash(h);
    }
}

/// Hash the full content of a graph: vertex count, labels, random-walk
/// probabilities and every undirected edge with weight and label.
///
/// Two graphs hash equal exactly when the solver would assemble identical
/// systems for them (up to 64-bit hash collisions), so the streaming
/// service may substitute a cached kernel value for a fresh solve.
pub fn graph_content_hash<V: ContentHash, E: ContentHash>(g: &Graph<V, E>) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(g.num_vertices() as u64);
    for label in g.vertex_labels() {
        label.content_hash(&mut h);
    }
    for &p in g.start_probabilities() {
        p.content_hash(&mut h);
    }
    for &q in g.stop_probabilities() {
        q.content_hash(&mut h);
    }
    h.write_u64(g.num_edges() as u64);
    for (i, j, w, label) in g.edges() {
        h.write_u32(i);
        h.write_u32(j);
        w.content_hash(&mut h);
        label.content_hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_graphs_hash_equal() {
        let a = Graph::from_edge_list(4, &[(0, 1), (1, 2), (2, 3)]);
        let b = Graph::from_edge_list(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(graph_content_hash(&a), graph_content_hash(&b));
    }

    #[test]
    fn topology_changes_the_hash() {
        let path = Graph::from_edge_list(4, &[(0, 1), (1, 2), (2, 3)]);
        let cycle = Graph::from_edge_list(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_ne!(graph_content_hash(&path), graph_content_hash(&cycle));
    }

    #[test]
    fn stopping_probability_changes_the_hash() {
        let g = Graph::from_edge_list(3, &[(0, 1), (1, 2)]);
        let h = g.clone().with_uniform_stopping_probability(0.2);
        assert_ne!(graph_content_hash(&g), graph_content_hash(&h));
    }

    #[test]
    fn vertex_count_changes_the_hash() {
        let small = Graph::from_edge_list(3, &[(0, 1)]);
        let large = Graph::from_edge_list(4, &[(0, 1)]);
        assert_ne!(graph_content_hash(&small), graph_content_hash(&large));
    }

    #[test]
    fn fnv_is_deterministic() {
        let mut a = Fnv1a::new();
        let mut b = Fnv1a::new();
        a.write_u64(42);
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), Fnv1a::new().finish());
    }
}
