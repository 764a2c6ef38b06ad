//! Partition-based reordering (PBR) — Section IV-A of the paper.
//!
//! The goal is a vertex order whose implied perfectly balanced `⌈n/t⌉`-way
//! partition (consecutive groups of `t = 8` vertices) minimizes the number
//! of part pairs connected by at least one edge, i.e. the number of
//! non-empty off-diagonal tiles (Eq. 3).
//!
//! Following the paper, the order is obtained by *recursive bisection*:
//! each subset of vertices is split into two halves whose sizes are
//! multiples of the tile size (except for the globally last, possibly
//! partial, tile), with the cut between the halves minimized by a
//! Fiduccia–Mattheyses-style refinement restricted to balance-preserving
//! swaps. Minimizing the cut at every level of the recursion keeps edges
//! inside small vertex groups, which is exactly what concentrates nonzeros
//! into few dense tiles. A final pass, `refine_tile_partition`, then
//! swaps vertices between parts wherever that removes a connected part
//! pair, the analogue of the paper's extra FM step on Eq. 3.
//!
//! # Cost
//!
//! One CSR copy of the adjacency and one scratch serve the whole
//! recursion: a sub-problem of `s` vertices re-indexes its induced
//! subgraph into that scratch in `O(s + edges touched)` and allocates
//! nothing. Greedy growth and each FM swap scan the sub-problem once, so a
//! level costs `O(s²)` like the scans it replaces. The final pass keeps the
//! connected-pair counts in a dense `⌈n/t⌉²` table and scores a candidate
//! swap `(u, w)` in `O(deg w + touched parts)` from per-part neighbour
//! histograms; `u`'s histogram is built once per `u`, not per candidate.
//!
//! # Contract
//!
//! The order is a pure function of the graph's adjacency (in its stored
//! neighbour order) and the config, and every tiling, tile-pair primitive
//! and kernel value downstream follows from it, so `tests::orders_are_pinned`
//! pins it bit for bit. The tie-breaks that fix it:
//! - the growth seed is the *first* vertex of minimum subset degree;
//! - growth absorbs the vertex of largest `(adhesion, Reverse(index))`,
//!   i.e. the lowest-indexed one among the most-adhesive;
//! - an FM swap takes the *last* unlocked vertex of maximal gain on each
//!   side (what `Iterator::max_by_key` returns);
//! - both halves keep the sub-problem's relative vertex order;
//! - the final pass visits `u` in index order, its candidate parts in
//!   ascending order and each part's slots in order, and commits the first
//!   swap that lowers the objective.
//!
//! For `n ≤ t` the order is the identity.

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

use mgk_graph::Graph;

/// Tuning parameters of the PBR algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PbrConfig {
    /// Tile size `t`; parts of the implied partition have exactly this many
    /// vertices (the last one possibly fewer). The paper uses 8.
    pub tile_size: usize,
    /// Number of refinement passes per bisection. The paper's partitioner
    /// uses boundary FM with a tight balance constraint; a handful of
    /// passes is enough for the graph sizes at hand.
    pub refinement_passes: usize,
    /// Upper bound on the number of swaps attempted per pass, as a multiple
    /// of the subset size.
    pub max_swap_fraction: f64,
}

impl Default for PbrConfig {
    fn default() -> Self {
        PbrConfig { tile_size: 8, refinement_passes: 6, max_swap_fraction: 0.5 }
    }
}

/// Compute the PBR vertex order of a graph.
pub fn pbr_order<V, E>(g: &Graph<V, E>, cfg: &PbrConfig) -> Vec<u32> {
    assert!(cfg.tile_size >= 1, "tile size must be at least 1");
    let csr = Csr::new(g);
    let mut order: Vec<u32> = (0..csr.len() as u32).collect();
    Bisection::new(&csr, cfg).bisect(&mut order);
    refine_tile_partition(&csr, &mut order, cfg.tile_size, 5);
    order
}

/// The graph's adjacency as compressed sparse rows, in its stored
/// neighbour order.
struct Csr {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl Csr {
    fn new<V, E>(g: &Graph<V, E>) -> Self {
        let n = g.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(g.num_adjacency_entries());
        offsets.push(0);
        for v in 0..n {
            targets.extend(g.neighbors(v).map(|e| e.target));
            offsets.push(targets.len());
        }
        Csr { offsets, targets }
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }
}

/// Greedy partition-level refinement: swap vertices between parts whenever
/// the swap reduces the number of connected part pairs. `order` is updated
/// in place (the grouping of the order into consecutive `tile_size` chunks
/// defines the partition; the order of vertices within a part and the order
/// of the parts themselves do not affect the objective).
///
/// For each `u` (in index order, part `pu`) the candidates are the vertices
/// `w` of each part `pw ≠ pu` holding a neighbour of `u`, parts ascending,
/// slots in order; the first swap with a negative objective change is
/// committed, and `u` waits for the next pass. Scoring a candidate costs
/// `O(deg w + touched parts)` and allocates nothing:
/// - `a[p]` counts `u`'s neighbours in part `p`, once per `u`; the `u–w`
///   edge (a `Graph` has no duplicate edges or self loops, so at most
///   one), which joins the same two parts after the swap, leaves `a[pw]`;
/// - `b[p]` counts `w`'s neighbours in part `p`, skipping `u`;
/// - with `d_p = b[p] − a[p]`, the swap moves the edge count of the pair
///   `(pu, p)` by `d_p` and of `(pw, p)` by `−d_p` for `p ∉ {pu, pw}`, and
///   of `(pu, pw)` by `d_pw − d_pu`; diagonal pairs never score.
///
/// Those are exactly the per-pair net changes of moving every edge of `u`
/// and `w` one at a time, and the objective change is the number of pairs
/// that reach zero edges minus the number that leave it, so each decision
/// and therefore the order are the same as with per-edge bookkeeping.
fn refine_tile_partition(csr: &Csr, order: &mut [u32], tile_size: usize, passes: usize) {
    let n = order.len();
    if n <= tile_size {
        return;
    }
    let num_parts = n.div_ceil(tile_size);
    // position of each vertex in the order, and its part
    let mut position = vec![0usize; n];
    let mut part = vec![0usize; n];
    for (pos, &v) in order.iter().enumerate() {
        position[v as usize] = pos;
        part[v as usize] = pos / tile_size;
    }
    // edge counts between part pairs, symmetric (the diagonal is unused)
    let mut pair_count = vec![0i32; num_parts * num_parts];
    for u in 0..n {
        for &x in csr.neighbors(u) {
            pair_count[part[u] * num_parts + part[x as usize]] += 1;
        }
    }

    // per-part neighbour histograms of u and of the candidate w, and the
    // parts each touches
    let mut a = vec![0i32; num_parts];
    let mut b = vec![0i32; num_parts];
    let mut a_parts: Vec<usize> = Vec::new();
    let mut b_parts: Vec<usize> = Vec::new();

    for _ in 0..passes {
        let mut improved = false;
        for u in 0..n {
            let pu = part[u];
            a_parts.clear();
            for &x in csr.neighbors(u) {
                let px = part[x as usize];
                if a[px] == 0 {
                    a_parts.push(px);
                }
                a[px] += 1;
            }
            a_parts.sort_unstable();
            'parts: for &pw in &a_parts {
                if pw == pu {
                    continue;
                }
                let start = pw * tile_size;
                let end = (start + tile_size).min(n);
                for slot in start..end {
                    let w = order[slot] as usize;
                    b_parts.clear();
                    let mut uw = 0;
                    for &x in csr.neighbors(w) {
                        if x as usize == u {
                            uw = 1;
                            continue;
                        }
                        let px = part[x as usize];
                        if b[px] == 0 {
                            b_parts.push(px);
                        }
                        b[px] += 1;
                    }
                    a[pw] -= uw;

                    let mut objective_delta = 0i32;
                    let mut score = |p: usize, q: usize, d: i32| {
                        let before = pair_count[p * num_parts + q];
                        let after = before + d;
                        debug_assert!(after >= 0, "negative pair count");
                        objective_delta += i32::from(after > 0) - i32::from(before > 0);
                    };
                    let others = a_parts.iter().chain(b_parts.iter().filter(|&&p| a[p] == 0));
                    for &p in others.clone() {
                        if p != pu && p != pw {
                            let d = b[p] - a[p];
                            score(pu, p, d);
                            score(pw, p, -d);
                        }
                    }
                    let shared = (b[pw] - a[pw]) - (b[pu] - a[pu]);
                    score(pu, pw, shared);

                    if objective_delta < 0 {
                        let mut apply = |p: usize, q: usize, d: i32| {
                            pair_count[p * num_parts + q] += d;
                            pair_count[q * num_parts + p] += d;
                        };
                        for &p in others {
                            if p != pu && p != pw {
                                let d = b[p] - a[p];
                                apply(pu, p, d);
                                apply(pw, p, -d);
                            }
                        }
                        apply(pu, pw, shared);
                        let (posu, posw) = (position[u], position[w]);
                        order.swap(posu, posw);
                        position.swap(u, w);
                        part.swap(u, w);
                        improved = true;
                    }
                    a[pw] += uw;
                    for &p in &b_parts {
                        b[p] = 0;
                    }
                    if objective_delta < 0 {
                        // u has moved to part pw: both `pu` and its
                        // histogram are now stale, so stop processing u
                        // this pass (it can move again on the next pass)
                        break 'parts;
                    }
                }
            }
            for &p in &a_parts {
                a[p] = 0;
            }
        }
        if !improved {
            break;
        }
    }
}

/// Recursive bisection over one scratch. Each sub-problem is a contiguous
/// range of the order, split in place into its left and right halves.
struct Bisection<'a> {
    csr: &'a Csr,
    cfg: &'a PbrConfig,
    /// global vertex -> index in the current sub-problem, `u32::MAX` outside
    local: Vec<u32>,
    /// the sub-problem's induced subgraph as CSR over local indices
    sub_offsets: Vec<usize>,
    sub_targets: Vec<u32>,
    in_left: Vec<bool>,
    adhesion: Vec<u32>,
    gain: Vec<i64>,
    locked: Vec<bool>,
    /// the right half while the left one is compacted in place
    spill: Vec<u32>,
}

impl<'a> Bisection<'a> {
    fn new(csr: &'a Csr, cfg: &'a PbrConfig) -> Self {
        Bisection {
            csr,
            cfg,
            local: vec![u32::MAX; csr.len()],
            sub_offsets: Vec::new(),
            sub_targets: Vec::new(),
            in_left: Vec::new(),
            adhesion: Vec::new(),
            gain: Vec::new(),
            locked: Vec::new(),
            spill: Vec::new(),
        }
    }

    fn bisect(&mut self, verts: &mut [u32]) {
        let t = self.cfg.tile_size;
        if verts.len() <= t {
            return;
        }
        // left half receives ⌊k/2⌋ full tiles; the (possibly partial) last
        // tile stays on the right so that every left part is perfectly
        // balanced
        let left_size = verts.len().div_ceil(t) / 2 * t;
        self.split(verts, left_size);
        let (left, right) = verts.split_at_mut(left_size);
        self.bisect(left);
        self.bisect(right);
    }

    fn sub_neighbors(&self, v: usize) -> &[u32] {
        &self.sub_targets[self.sub_offsets[v]..self.sub_offsets[v + 1]]
    }

    /// gain(v) = (edges to the other side) − (edges to the own side)
    fn gain_of(&self, v: usize) -> i64 {
        self.sub_neighbors(v)
            .iter()
            .map(|&u| if self.in_left[u as usize] == self.in_left[v] { -1 } else { 1 })
            .sum()
    }

    /// Reorder `verts` so that its first `left_size` vertices and the rest
    /// are two halves with a small edge cut between them, each in its
    /// original relative order.
    fn split(&mut self, verts: &mut [u32], left_size: usize) {
        let n_sub = verts.len();
        for (i, &v) in verts.iter().enumerate() {
            self.local[v as usize] = i as u32;
        }
        self.sub_offsets.clear();
        self.sub_targets.clear();
        self.sub_offsets.push(0);
        for &v in verts.iter() {
            for &x in self.csr.neighbors(v as usize) {
                let l = self.local[x as usize];
                if l != u32::MAX {
                    self.sub_targets.push(l);
                }
            }
            self.sub_offsets.push(self.sub_targets.len());
        }
        for &v in verts.iter() {
            self.local[v as usize] = u32::MAX;
        }

        // --- initial partition: greedy graph growing from a low-degree seed
        // Instead of plain BFS (which happily shoots through a long-range
        // shortcut edge and splits a remote cluster), grow the left region
        // by repeatedly absorbing the unassigned vertex with the largest
        // number of edges into the current region ("maximum adhesion"
        // growth). This keeps the region contiguous and compact, which is
        // what minimizes the cut.
        self.in_left.clear();
        self.in_left.resize(n_sub, false);
        // adhesion[v] = number of edges from v into the current left region
        self.adhesion.clear();
        self.adhesion.resize(n_sub, 0);
        // seed: minimum subset-degree vertex (approximates a peripheral
        // vertex)
        let mut v =
            (0..n_sub).min_by_key(|&i| self.sub_offsets[i + 1] - self.sub_offsets[i]).unwrap_or(0);
        // n_sub > t ≥ 1 makes 1 ≤ left_size < n_sub, so every step finds an
        // unassigned vertex
        for taken in 0..left_size {
            if taken > 0 {
                // ties go to the lower local index; isolated or
                // disconnected vertices (adhesion 0) are absorbed last
                let Some(next) = (0..n_sub)
                    .filter(|&u| !self.in_left[u])
                    .max_by_key(|&u| (self.adhesion[u], std::cmp::Reverse(u)))
                else {
                    break;
                };
                v = next;
            }
            self.in_left[v] = true;
            for i in self.sub_offsets[v]..self.sub_offsets[v + 1] {
                let l = self.sub_targets[i] as usize;
                if !self.in_left[l] {
                    self.adhesion[l] += 1;
                }
            }
        }

        // --- FM-style refinement with balance-preserving swaps -----------
        // a swap of (l, r) changes the cut by -(gain_l + gain_r - 2·[l ~ r])
        let max_swaps = ((n_sub as f64 * self.cfg.max_swap_fraction) as usize).max(1);
        for _pass in 0..self.cfg.refinement_passes {
            self.gain.clear();
            for v in 0..n_sub {
                let g = self.gain_of(v);
                self.gain.push(g);
            }
            self.locked.clear();
            self.locked.resize(n_sub, false);
            let mut improved = false;

            for _ in 0..max_swaps {
                // the last unlocked vertex of maximal gain on each side
                let (mut best_l, mut best_r): (Option<usize>, Option<usize>) = (None, None);
                for v in 0..n_sub {
                    if self.locked[v] {
                        continue;
                    }
                    let best = if self.in_left[v] { &mut best_l } else { &mut best_r };
                    if best.is_none_or(|b| self.gain[v] >= self.gain[b]) {
                        *best = Some(v);
                    }
                }
                let (Some(l), Some(r)) = (best_l, best_r) else {
                    break;
                };
                let adjacent = self.sub_neighbors(l).contains(&(r as u32));
                let swap_gain = self.gain[l] + self.gain[r] - 2 * i64::from(adjacent);
                if swap_gain <= 0 {
                    break;
                }
                self.in_left[l] = false;
                self.in_left[r] = true;
                self.locked[l] = true;
                self.locked[r] = true;
                improved = true;
                // recompute the unlocked neighbours' gains (cheap: deg)
                for moved in [l, r] {
                    for i in self.sub_offsets[moved]..self.sub_offsets[moved + 1] {
                        let u = self.sub_targets[i] as usize;
                        if !self.locked[u] {
                            self.gain[u] = self.gain_of(u);
                        }
                    }
                }
            }
            if !improved {
                break;
            }
        }

        // stable partition: compact the left half in place, spill the right
        self.spill.clear();
        let mut k = 0;
        for i in 0..n_sub {
            let v = verts[i];
            if self.in_left[i] {
                verts[k] = v;
                k += 1;
            } else {
                self.spill.push(v);
            }
        }
        debug_assert_eq!(k, left_size);
        verts[k..].copy_from_slice(&self.spill);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{is_permutation, nonempty_tiles_of_order};
    use mgk_graph::{generators, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pbr_returns_permutation() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::newman_watts_strogatz(50, 2, 0.2, &mut rng);
        let order = pbr_order(&g, &PbrConfig::default());
        assert!(is_permutation(&order, 50));
    }

    #[test]
    fn pbr_recovers_block_structure() {
        // two 8-vertex cliques joined by a single edge, but with vertex
        // labels interleaved so the natural order smears them across tiles
        let mut edges = Vec::new();
        // clique A on even labels, clique B on odd labels
        let a: Vec<u32> = (0..8).map(|i| 2 * i).collect();
        let b: Vec<u32> = (0..8).map(|i| 2 * i + 1).collect();
        for group in [&a, &b] {
            for x in 0..8 {
                for y in (x + 1)..8 {
                    edges.push((group[x], group[y]));
                }
            }
        }
        edges.push((a[7], b[0]));
        let g = Graph::from_edge_list(16, &edges);

        let natural: Vec<u32> = (0..16).collect();
        let t_nat = nonempty_tiles_of_order(&g, &natural, 8);
        let pbr = pbr_order(&g, &PbrConfig::default());
        let t_pbr = nonempty_tiles_of_order(&g, &pbr, 8);
        // natural order spreads both cliques over all 4 tiles; PBR should
        // recover the 2 diagonal tiles plus the 2 tiles of the bridge edge
        assert_eq!(t_nat, 4);
        assert!(t_pbr <= 4);
        // each tile must gather exactly one clique: check the first 8
        // positions are all-even or all-odd labels
        let first: Vec<u32> = pbr[..8].to_vec();
        let all_even = first.iter().all(|v| v % 2 == 0);
        let all_odd = first.iter().all(|v| v % 2 == 1);
        assert!(all_even || all_odd, "PBR did not separate the cliques: {first:?}");
    }

    #[test]
    fn pbr_recovers_structure_of_scrambled_small_world_graphs() {
        // The paper's motivation: natural orderings are not always
        // available. Scramble the vertex labels of a ring-lattice graph and
        // check PBR recovers most of the tile locality that the scramble
        // destroyed.
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(7);
        let mut scrambled_total = 0usize;
        let mut pbr_total = 0usize;
        let mut band_total = 0usize;
        for _ in 0..4 {
            let g = generators::newman_watts_strogatz(96, 3, 0.1, &mut rng);
            let band: Vec<u32> = (0..96).collect();
            let mut shuffle: Vec<u32> = (0..96).collect();
            shuffle.shuffle(&mut rng);
            let scrambled_graph = g.permute(&shuffle);
            let natural_of_scrambled: Vec<u32> = (0..96).collect();
            let t_scrambled = nonempty_tiles_of_order(&scrambled_graph, &natural_of_scrambled, 8);
            let order = pbr_order(&scrambled_graph, &PbrConfig::default());
            let t_pbr = nonempty_tiles_of_order(&scrambled_graph, &order, 8);
            let t_band = nonempty_tiles_of_order(&g, &band, 8);
            scrambled_total += t_scrambled;
            pbr_total += t_pbr;
            band_total += t_band;
        }
        assert!(
            (pbr_total as f64) < 0.6 * scrambled_total as f64,
            "PBR ({pbr_total}) should substantially reduce the scrambled tile count ({scrambled_total})"
        );
        assert!(
            (pbr_total as f64) < 1.5 * band_total as f64,
            "PBR ({pbr_total}) should approach the quality of the band order ({band_total})"
        );
    }

    #[test]
    fn pbr_stays_close_to_natural_order_on_banded_graphs() {
        // when the natural order is already a good band order, PBR should
        // not be much worse
        let mut rng = StdRng::seed_from_u64(11);
        let mut total_nat = 0usize;
        let mut total_pbr = 0usize;
        for _ in 0..4 {
            let g = generators::newman_watts_strogatz(96, 3, 0.1, &mut rng);
            let natural: Vec<u32> = (0..96).collect();
            total_nat += nonempty_tiles_of_order(&g, &natural, 8);
            let order = pbr_order(&g, &PbrConfig::default());
            total_pbr += nonempty_tiles_of_order(&g, &order, 8);
        }
        assert!(
            (total_pbr as f64) <= 1.25 * total_nat as f64,
            "PBR total {total_pbr} should stay within 25% of the natural band order {total_nat}"
        );
    }

    #[test]
    fn pbr_handles_disconnected_graphs() {
        let g = Graph::from_edge_list(20, &[(0, 1), (1, 2), (10, 11), (18, 19)]);
        let order = pbr_order(&g, &PbrConfig::default());
        assert!(is_permutation(&order, 20));
    }

    #[test]
    fn pbr_handles_tiny_graphs() {
        let g = Graph::from_edge_list(3, &[(0, 1)]);
        let order = pbr_order(&g, &PbrConfig::default());
        assert!(is_permutation(&order, 3));
        let empty = Graph::from_edge_list(0, &[]);
        assert!(pbr_order(&empty, &PbrConfig::default()).is_empty());
    }

    /// FNV-1a over the little-endian bytes of an order.
    fn fnv1a(order: &[u32]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in order.iter().flat_map(|v| v.to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    #[test]
    fn orders_are_pinned() {
        // Every tiling, tile-pair primitive and kernel value downstream
        // follows from these orders, so any rewrite of PBR must return them
        // bit for bit. The cases: the paper's two 96-vertex ablation
        // families (seeded), a scrambled small-world graph (refinement does
        // real work), a pure ring lattice (many vertices tie on gain, which
        // exercises the last-maximum rule of the FM step), a disconnected
        // graph, the two-clique graph, a size that is not a multiple of 8,
        // and a tile size other than 8.
        use rand::seq::SliceRandom;
        let cfg = PbrConfig::default();
        let mut hashes = Vec::new();
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..3 {
            let g = generators::newman_watts_strogatz(96, 3, 0.1, &mut rng);
            hashes.push(fnv1a(&pbr_order(&g, &cfg)));
        }
        for _ in 0..3 {
            let g = generators::barabasi_albert(96, 6, &mut rng);
            hashes.push(fnv1a(&pbr_order(&g, &cfg)));
        }
        let g = generators::newman_watts_strogatz(96, 3, 0.1, &mut rng);
        let mut shuffle: Vec<u32> = (0..96).collect();
        shuffle.shuffle(&mut rng);
        hashes.push(fnv1a(&pbr_order(&g.permute(&shuffle), &cfg)));
        let ring = generators::newman_watts_strogatz(64, 2, 0.0, &mut rng);
        hashes.push(fnv1a(&pbr_order(&ring, &cfg)));
        let disconnected = Graph::from_edge_list(
            30,
            &[(0, 1), (1, 2), (2, 3), (10, 11), (11, 12), (18, 19), (20, 29), (25, 26)],
        );
        hashes.push(fnv1a(&pbr_order(&disconnected, &cfg)));
        let mut cliques = Vec::new();
        for parity in 0..2 {
            for x in 0..8 {
                for y in (x + 1)..8 {
                    cliques.push((2 * x + parity, 2 * y + parity));
                }
            }
        }
        cliques.push((14, 1));
        hashes.push(fnv1a(&pbr_order(&Graph::from_edge_list(16, &cliques), &cfg)));
        let odd = generators::barabasi_albert(45, 3, &mut rng);
        hashes.push(fnv1a(&pbr_order(&odd, &cfg)));
        let small_tiles = PbrConfig { tile_size: 4, ..cfg };
        let g = generators::newman_watts_strogatz(50, 2, 0.2, &mut rng);
        hashes.push(fnv1a(&pbr_order(&g, &small_tiles)));
        let pinned: [u64; 12] = [
            0x0719_c628_e6b8_fb45, // nws 0
            0xfb6d_e06f_5f57_5b95, // nws 1
            0x3c71_c3b6_2eb0_2b95, // nws 2
            0xafb2_b720_e2e7_e525, // ba 0
            0x1e79_b8e8_9420_b445, // ba 1
            0x2804_dbbd_eb3d_c125, // ba 2
            0x3434_9f7c_2e05_56b5, // scrambled nws
            0xf5f4_5328_a8eb_db25, // ring lattice
            0x825e_d372_e66b_8f24, // disconnected
            0xdbb3_dd39_4bef_3fe5, // two cliques
            0xcfce_d1a6_d8b0_37e9, // ba, n = 45
            0x47f0_e3b6_00ce_78c4, // nws, t = 4
        ];
        assert_eq!(hashes, pinned);
    }

    #[test]
    fn custom_tile_size_is_respected() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::barabasi_albert(40, 3, &mut rng);
        let cfg = PbrConfig { tile_size: 4, ..PbrConfig::default() };
        let order = pbr_order(&g, &cfg);
        assert!(is_permutation(&order, 40));
    }
}
