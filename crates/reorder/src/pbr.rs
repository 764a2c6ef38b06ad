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
//! Each phase does work in proportion to what can change its decisions.
//! One CSR copy of the adjacency and one scratch, sized once for the whole
//! graph, serve the whole recursion: a sub-problem of `s` vertices
//! re-indexes its induced subgraph into that scratch in
//! `O(s + edges touched)`.
//! - Greedy growth keeps the unassigned vertices in one `s`-bit bitset per
//!   adhesion. Absorbing a vertex costs a word scan of the highest non-empty
//!   bucket and one bucket move per edge it brings into the region.
//! - FM keeps each side's unlocked vertices in one bitset per gain. Picking
//!   a swap is a word scan per side; committing it moves each unlocked
//!   neighbour of the pair by ±2 per edge to a moved vertex, without
//!   rescanning that neighbour's edges.
//! - The final pass keeps, per vertex, the parts its neighbours touch and
//!   the part pairs it carries alone (two `⌈parts/64⌉`-word bitsets) and
//!   its neighbours in its own part, and per part the parts it is connected
//!   to. These change only when a swap is committed (0.2–7 times per graph
//!   on the benchmark's families), and then only for the parts the swap
//!   touched. A whole candidate part is skipped when none of its members
//!   can empty a pair with `u`; a candidate swap is scored in a few word
//!   operations, plus `O(deg u + deg w)` when both vertices are isolated in
//!   their parts.
//!
//! Extra memory is `O(n·⌈parts/64⌉ + parts²)` for the final pass (the
//! `parts²` is its table of connected-pair counts) and `O(Δ·⌈n/64⌉)` words
//! of buckets, `Δ` the largest degree; no dense `n × parts` table is built.
//!
//! # Contract
//!
//! The order is a pure function of the graph's adjacency (in its stored
//! neighbour order) and the config, and every tiling, tile-pair primitive
//! and kernel value downstream follows from it, so `tests::orders_are_pinned`
//! and `crates/datasets/tests/pbr_orders.rs` pin it bit for bit. The
//! tie-breaks that fix it:
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
//! The buckets and the bitset score keep those decisions exactly:
//! - the highest non-empty adhesion bucket holds the unassigned vertices
//!   of maximal adhesion, so its lowest set bit is the lowest-indexed of
//!   them;
//! - a side's highest non-empty gain bucket holds its unlocked vertices of
//!   maximal gain, so its highest set bit is the last of them. The ±2
//!   updates sum to what a rescan returns, because a swap moves exactly
//!   two vertices and each edge to one of them flips between cut and
//!   uncut; the gains of locked vertices go stale but are not read again
//!   in the pass;
//! - the objective changes by the off-diagonal pairs a swap connects minus
//!   those it empties, and `refine_tile_partition` derives both sets from
//!   the summaries, pair by pair, from the same per-pair edge counts as
//!   per-edge bookkeeping. In particular a swap of `u` (part `pu`) and `w`
//!   (part `pw`) lowers the objective only if some pair loses its last
//!   edge, which needs one of: (a) `u` carries alone a pair `(pu, p)`,
//!   `p ∉ {pu, pw}`, and `w` has no neighbour in `p`; (b) the same with `u`
//!   and `w` exchanged; (c) neither has a neighbour in its own part and they
//!   are not adjacent, since `c[pu][pw] ≥ h_u[pw] + h_w[pu] − [u ~ w]`
//!   leaves `(pu, pw)` at least `h_u[pu] + h_w[pw] + [u ~ w]` edges
//!   (`h_v[p]`: `v`'s neighbours in part `p`; `c[p][q]`: the edges between
//!   parts `p` and `q`). A part none of whose members can meet (a), (b) or
//!   (c) with `u` is skipped whole. `tests::final_pass_never_filters_out_a_swap_that_lowers_the_objective`
//!   checks the score and both filters against brute force on random
//!   orders.
//!
//! For `n ≤ t` the order is the identity.

use mgk_graph::Graph;

/// Number of FM refinement passes per bisection. The paper's partitioner
/// uses boundary FM with a tight balance constraint; a handful of passes is
/// enough for the graph sizes at hand.
const REFINEMENT_PASSES: usize = 6;

/// Upper bound on the number of swaps attempted per FM pass, as a multiple
/// of the subset size.
const MAX_SWAP_FRACTION: f64 = 0.5;

/// Number of passes of the final partition-level refinement.
const FINAL_PASSES: usize = 5;

/// Parameters of the PBR algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PbrConfig {
    /// Tile size `t`; parts of the implied partition have exactly this many
    /// vertices (the last one possibly fewer). The paper uses 8.
    pub tile_size: usize,
}

impl Default for PbrConfig {
    fn default() -> Self {
        PbrConfig { tile_size: 8 }
    }
}

/// Compute the PBR vertex order of a graph.
pub fn pbr_order<V, E>(g: &Graph<V, E>, cfg: &PbrConfig) -> Vec<u32> {
    assert!(cfg.tile_size >= 1, "tile size must be at least 1");
    let csr = Csr::new(g);
    let mut order: Vec<u32> = (0..csr.len() as u32).collect();
    Bisection::new(&csr, cfg.tile_size).bisect(&mut order);
    refine_tile_partition(&csr, order, cfg.tile_size)
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

fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// All bits but bit `p`, over word `i` of a bitset.
fn keep(i: usize, p: usize) -> u64 {
    if i == p / 64 {
        !(1 << (p % 64))
    } else {
        !0
    }
}

/// The words of `x & !y`, bits `p` and `q` cleared.
fn outside<'b>(
    x: &'b [u64],
    y: &'b [u64],
    p: usize,
    q: usize,
) -> impl Iterator<Item = u64> + Clone + 'b {
    x.iter().zip(y).enumerate().map(move |(i, (&x, &y))| x & !y & keep(i, p) & keep(i, q))
}

/// The number of set bits of `x` that `y` lacks, bits `p` and `q` left out.
fn count_outside(x: &[u64], y: &[u64], p: usize, q: usize) -> u32 {
    outside(x, y, p, q).map(u64::count_ones).sum()
}

/// Greedy partition-level refinement: swap vertices between parts whenever
/// the swap reduces the number of connected part pairs, and return the
/// refined order (the grouping of the order into consecutive `tile_size`
/// chunks defines the partition; the order of vertices within a part and
/// the order of the parts themselves do not affect the objective).
///
/// For each `u` (in index order, part `pu`) the candidates are the vertices
/// `w` of each part `pw ≠ pu` holding a neighbour of `u`, parts ascending,
/// slots in order; the first swap with a negative objective change is
/// committed, and `u` waits for the next pass. The change is the number of
/// off-diagonal pairs the swap connects minus the number it empties, both
/// read from bitsets (see the module's contract), so a candidate that
/// empties no pair is passed over after a few word operations. With `h_v[p]`
/// the number of `v`'s neighbours in part `p` and `c[p][q]` the edges between
/// parts, for `p ∉ {pu, pw}`:
/// - the pair `(pu, p)` ends with `c[pu][p] − h_u[p] + h_w[p]` edges: it
///   empties iff `u` carries it alone and `w` has no neighbour in `p`, and
///   it connects iff `c[pu][p] = 0` and `w` has a neighbour in `p`;
/// - `(pw, p)` likewise with `u` and `w` exchanged;
/// - `(pu, pw)` is connected through `u`, and it empties iff neither vertex
///   has a neighbour in its own part, they are not adjacent and
///   `c[pu][pw] = h_u[pw] + h_w[pu]`.
///
/// Committing moves each edge of `u` and `w` (but the one between them,
/// which joins the same two parts after the swap) from its old part pair to
/// its new one.
fn refine_tile_partition(csr: &Csr, order: Vec<u32>, tile_size: usize) -> Vec<u32> {
    if order.len() <= tile_size {
        return order;
    }
    let mut tiles = TilePartition::new(csr, order, tile_size);
    for _ in 0..FINAL_PASSES {
        let mut improved = false;
        for u in 0..tiles.order.len() {
            improved |= tiles.visit(u);
        }
        if !improved {
            break;
        }
    }
    tiles.order
}

/// The partition the final pass refines, with the per-vertex and per-part
/// summaries its scoring reads. Part bitsets are `words` words long.
struct TilePartition<'a> {
    csr: &'a Csr,
    tile_size: usize,
    num_parts: usize,
    words: usize,
    order: Vec<u32>,
    /// position of each vertex in the order, and its part
    position: Vec<usize>,
    part: Vec<usize>,
    /// edge counts between part pairs, symmetric
    pair_count: Vec<i32>,
    /// per part, the parts it shares an edge with
    connected: Vec<u64>,
    /// per vertex, the parts holding one of its neighbours
    touched: Vec<u64>,
    /// per vertex `v` of part `q`, the parts `p ≠ q` whose every edge to
    /// `q` ends at `v`
    alone: Vec<u64>,
    /// per vertex, its neighbours in its own part
    own: Vec<u32>,
    /// per part, the union of its members' `alone`
    part_alone: Vec<u64>,
    /// per part, its members with no neighbour in it
    part_isolated: Vec<u32>,
    /// per-part neighbour histogram of a vertex being refreshed
    histogram: Vec<i32>,
    /// the parts whose summaries a committed swap made stale
    dirty: Vec<u64>,
}

impl<'a> TilePartition<'a> {
    fn new(csr: &'a Csr, order: Vec<u32>, tile_size: usize) -> Self {
        let n = order.len();
        let num_parts = n.div_ceil(tile_size);
        let words = num_parts.div_ceil(64);
        let mut position = vec![0usize; n];
        let mut part = vec![0usize; n];
        for (pos, &v) in order.iter().enumerate() {
            position[v as usize] = pos;
            part[v as usize] = pos / tile_size;
        }
        let mut pair_count = vec![0i32; num_parts * num_parts];
        for u in 0..n {
            for &x in csr.neighbors(u) {
                pair_count[part[u] * num_parts + part[x as usize]] += 1;
            }
        }
        let mut tiles = TilePartition {
            csr,
            tile_size,
            num_parts,
            words,
            order,
            position,
            part,
            pair_count,
            connected: vec![0; num_parts * words],
            touched: vec![0; n * words],
            alone: vec![0; n * words],
            own: vec![0; n],
            part_alone: vec![0; num_parts * words],
            part_isolated: vec![0; num_parts],
            histogram: vec![0; num_parts],
            dirty: vec![!0; words],
        };
        tiles.refresh_dirty_parts();
        tiles
    }

    fn touched(&self, v: usize) -> &[u64] {
        &self.touched[v * self.words..(v + 1) * self.words]
    }

    fn alone(&self, v: usize) -> &[u64] {
        &self.alone[v * self.words..(v + 1) * self.words]
    }

    /// Visit `u`: try its candidate swaps in order and commit the first that
    /// lowers the objective. Returns whether one was committed.
    fn visit(&mut self, u: usize) -> bool {
        let pu = self.part[u];
        for i in 0..self.words {
            let mut word = self.touched[u * self.words + i];
            while word != 0 {
                let pw = i * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if pw == pu || !self.part_may_empty(u, pw) {
                    continue;
                }
                let start = pw * self.tile_size;
                for slot in start..(start + self.tile_size).min(self.order.len()) {
                    let w = self.order[slot] as usize;
                    let emptied = self.emptied(u, w);
                    if emptied > 0 && self.connected_by(u, w) < emptied {
                        self.commit(u, w);
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Whether swapping `u` with some member of part `pw` can empty a pair:
    /// `u` must carry alone a pair other than `(pu, pw)`, or a member must
    /// carry alone a pair to a part where `u` has no neighbour, or both
    /// must be isolated in their parts.
    fn part_may_empty(&self, u: usize, pw: usize) -> bool {
        let (pu, words) = (self.part[u], self.words);
        self.alone(u).iter().enumerate().any(|(i, &a)| a & keep(i, pw) != 0)
            || outside(&self.part_alone[pw * words..(pw + 1) * words], self.touched(u), pu, pw)
                .any(|m| m != 0)
            || (self.own[u] == 0 && self.part_isolated[pw] > 0)
    }

    /// The number of off-diagonal part pairs that swapping `u` with `w` of
    /// another part leaves without an edge.
    fn emptied(&self, u: usize, w: usize) -> u32 {
        let (pu, pw) = (self.part[u], self.part[w]);
        let carried = outside(self.alone(u), self.touched(w), pu, pw).chain(outside(
            self.alone(w),
            self.touched(u),
            pu,
            pw,
        ));
        let mut emptied = 0;
        if carried.clone().any(|m| m != 0) {
            emptied = carried.map(u64::count_ones).sum();
        }
        if self.own[u] == 0 && self.own[w] == 0 {
            let (mut adjacent, mut w_in_pu) = (false, 0);
            for &x in self.csr.neighbors(w) {
                adjacent |= x as usize == u;
                w_in_pu += i32::from(self.part[x as usize] == pu);
            }
            let u_in_pw =
                self.csr.neighbors(u).iter().filter(|&&x| self.part[x as usize] == pw).count();
            let shared = self.pair_count[pu * self.num_parts + pw];
            emptied += u32::from(!adjacent && shared == u_in_pw as i32 + w_in_pu);
        }
        emptied
    }

    /// The number of off-diagonal part pairs without an edge that swapping
    /// `u` with `w` of another part connects.
    fn connected_by(&self, u: usize, w: usize) -> u32 {
        let (pu, pw, words) = (self.part[u], self.part[w], self.words);
        count_outside(self.touched(w), &self.connected[pu * words..(pu + 1) * words], pu, pw)
            + count_outside(self.touched(u), &self.connected[pw * words..(pw + 1) * words], pu, pw)
    }

    /// Swap `u` and `w` and bring every summary the swap touched up to date.
    fn commit(&mut self, u: usize, w: usize) {
        let (pu, pw, np) = (self.part[u], self.part[w], self.num_parts);
        // the summaries of the members of pu, pw and of every part holding
        // a neighbour of u or w go stale
        for i in 0..self.words {
            self.dirty[i] = self.touched[u * self.words + i] | self.touched[w * self.words + i];
        }
        set_bit(&mut self.dirty, pu);
        set_bit(&mut self.dirty, pw);
        for (moved, other, from, to) in [(u, w, pu, pw), (w, u, pw, pu)] {
            for &x in self.csr.neighbors(moved) {
                if x as usize != other {
                    let px = self.part[x as usize];
                    self.pair_count[from * np + px] -= 1;
                    self.pair_count[px * np + from] -= 1;
                    self.pair_count[to * np + px] += 1;
                    self.pair_count[px * np + to] += 1;
                }
            }
        }
        let (posu, posw) = (self.position[u], self.position[w]);
        self.order.swap(posu, posw);
        self.position.swap(u, w);
        self.part.swap(u, w);
        self.refresh_dirty_parts();
    }

    /// Recompute the summaries of the parts in `dirty` and of their members.
    fn refresh_dirty_parts(&mut self) {
        let (words, np) = (self.words, self.num_parts);
        for i in 0..words {
            let mut word = self.dirty[i];
            while word != 0 {
                let p = i * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if p >= np {
                    break;
                }
                let connected = &mut self.connected[p * words..(p + 1) * words];
                connected.fill(0);
                for (q, &count) in self.pair_count[p * np..(p + 1) * np].iter().enumerate() {
                    if count > 0 {
                        set_bit(connected, q);
                    }
                }
                self.part_alone[p * words..(p + 1) * words].fill(0);
                self.part_isolated[p] = 0;
                let start = p * self.tile_size;
                for slot in start..(start + self.tile_size).min(self.order.len()) {
                    let v = self.order[slot] as usize;
                    self.refresh_vertex(v);
                    for j in 0..words {
                        self.part_alone[p * words + j] |= self.alone[v * words + j];
                    }
                    self.part_isolated[p] += u32::from(self.own[v] == 0);
                }
            }
        }
    }

    /// Recompute `v`'s touched parts, the pairs it carries alone and its
    /// neighbours in its own part.
    fn refresh_vertex(&mut self, v: usize) {
        let (words, np, pv) = (self.words, self.num_parts, self.part[v]);
        let touched = &mut self.touched[v * words..(v + 1) * words];
        touched.fill(0);
        for &x in self.csr.neighbors(v) {
            let px = self.part[x as usize];
            self.histogram[px] += 1;
            set_bit(touched, px);
        }
        self.own[v] = self.histogram[pv] as u32;
        let alone = &mut self.alone[v * words..(v + 1) * words];
        alone.fill(0);
        for (i, &word) in touched.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let p = i * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if p != pv && self.pair_count[pv * np + p] == self.histogram[p] {
                    set_bit(alone, p);
                }
                self.histogram[p] = 0;
            }
        }
    }
}

/// Sub-problem vertices bucketed by a small non-negative level, one bitset
/// per level, so the lowest or highest index on the highest non-empty level
/// is a word scan away.
struct Buckets {
    words: usize,
    bits: Vec<u64>,
    /// no vertex sits above this level
    top: usize,
}

impl Buckets {
    /// Buckets with room for `levels` levels over `n` vertices.
    fn with_capacity(levels: usize, n: usize) -> Self {
        Buckets { words: 0, bits: Vec::with_capacity(levels * n.div_ceil(64)), top: 0 }
    }

    /// Empty the buckets and shape them for `levels` levels over `n` vertices.
    fn reset(&mut self, levels: usize, n: usize) {
        self.words = n.div_ceil(64);
        self.bits.clear();
        self.bits.resize(levels * self.words, 0);
        self.top = 0;
    }

    fn insert(&mut self, level: usize, v: usize) {
        set_bit(&mut self.bits[level * self.words..], v);
        self.top = self.top.max(level);
    }

    fn remove(&mut self, level: usize, v: usize) {
        self.bits[level * self.words + v / 64] &= !(1 << (v % 64));
    }

    fn level(&self, level: usize) -> &[u64] {
        &self.bits[level * self.words..(level + 1) * self.words]
    }

    /// The highest non-empty level's bitset, or `None` if every level is empty.
    fn top_level(&mut self) -> Option<&[u64]> {
        while self.level(self.top).iter().all(|&w| w == 0) {
            self.top = self.top.checked_sub(1)?;
        }
        Some(self.level(self.top))
    }

    /// The lowest index on the highest non-empty level.
    fn first_of_top(&mut self) -> Option<usize> {
        let level = self.top_level()?;
        let (i, w) = level.iter().enumerate().find(|(_, &w)| w != 0)?;
        Some(i * 64 + w.trailing_zeros() as usize)
    }

    /// The highest index on the highest non-empty level.
    fn last_of_top(&mut self) -> Option<usize> {
        let level = self.top_level()?;
        let (i, w) = level.iter().enumerate().rev().find(|(_, &w)| w != 0)?;
        Some(i * 64 + 63 - w.leading_zeros() as usize)
    }
}

/// Recursive bisection over one scratch, sized for the whole graph, the
/// largest sub-problem. Each sub-problem is a contiguous range of the
/// order, split in place into its left and right halves.
struct Bisection<'a> {
    csr: &'a Csr,
    tile_size: usize,
    /// global vertex -> index in the current sub-problem, `u32::MAX` outside
    local: Vec<u32>,
    /// the sub-problem's induced subgraph as CSR over local indices
    sub_offsets: Vec<usize>,
    sub_targets: Vec<u32>,
    in_left: Vec<bool>,
    adhesion: Vec<u32>,
    gain: Vec<i64>,
    locked: Vec<bool>,
    /// the unassigned vertices by adhesion during growth, then the left
    /// side's unlocked vertices by gain during FM
    left: Buckets,
    /// the right side's unlocked vertices by gain during FM
    right: Buckets,
    /// the right half while the left one is compacted in place
    spill: Vec<u32>,
}

impl<'a> Bisection<'a> {
    fn new(csr: &'a Csr, tile_size: usize) -> Self {
        let n = csr.len();
        let max_degree = (0..n).map(|v| csr.neighbors(v).len()).max().unwrap_or(0);
        Bisection {
            csr,
            tile_size,
            local: vec![u32::MAX; n],
            sub_offsets: Vec::with_capacity(n + 1),
            sub_targets: Vec::with_capacity(csr.targets.len()),
            in_left: Vec::with_capacity(n),
            adhesion: Vec::with_capacity(n),
            gain: Vec::with_capacity(n),
            locked: Vec::with_capacity(n),
            left: Buckets::with_capacity(2 * max_degree + 1, n),
            right: Buckets::with_capacity(2 * max_degree + 1, n),
            spill: Vec::with_capacity(n),
        }
    }

    fn bisect(&mut self, verts: &mut [u32]) {
        let t = self.tile_size;
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
        let mut max_degree = 0;
        for &v in verts.iter() {
            let first = self.sub_targets.len();
            for &x in self.csr.neighbors(v as usize) {
                let l = self.local[x as usize];
                if l != u32::MAX {
                    self.sub_targets.push(l);
                }
            }
            max_degree = max_degree.max(self.sub_targets.len() - first);
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
        self.left.reset(max_degree + 1, n_sub);
        for v in 0..n_sub {
            self.left.insert(0, v);
        }
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
                let Some(next) = self.left.first_of_top() else {
                    break;
                };
                v = next;
            }
            self.left.remove(self.adhesion[v] as usize, v);
            self.in_left[v] = true;
            for i in self.sub_offsets[v]..self.sub_offsets[v + 1] {
                let l = self.sub_targets[i] as usize;
                if !self.in_left[l] {
                    self.left.remove(self.adhesion[l] as usize, l);
                    self.adhesion[l] += 1;
                    self.left.insert(self.adhesion[l] as usize, l);
                }
            }
        }

        // --- FM-style refinement with balance-preserving swaps -----------
        // a swap of (l, r) changes the cut by -(gain_l + gain_r - 2·[l ~ r]);
        // a gain g sits on bucket level g + Δ
        let max_swaps = ((n_sub as f64 * MAX_SWAP_FRACTION) as usize).max(1);
        let offset = max_degree as i64;
        let level = |gain: i64| (gain + offset) as usize;
        for _pass in 0..REFINEMENT_PASSES {
            self.left.reset(2 * max_degree + 1, n_sub);
            self.right.reset(2 * max_degree + 1, n_sub);
            self.gain.clear();
            for v in 0..n_sub {
                let g = self.gain_of(v);
                self.gain.push(g);
                let side = if self.in_left[v] { &mut self.left } else { &mut self.right };
                side.insert(level(g), v);
            }
            self.locked.clear();
            self.locked.resize(n_sub, false);
            let mut improved = false;

            for _ in 0..max_swaps {
                // the last unlocked vertex of maximal gain on each side
                let (Some(l), Some(r)) = (self.left.last_of_top(), self.right.last_of_top()) else {
                    break;
                };
                let adjacent = self.sub_neighbors(l).contains(&(r as u32));
                let swap_gain = self.gain[l] + self.gain[r] - 2 * i64::from(adjacent);
                if swap_gain <= 0 {
                    break;
                }
                self.left.remove(level(self.gain[l]), l);
                self.right.remove(level(self.gain[r]), r);
                self.in_left[l] = false;
                self.in_left[r] = true;
                self.locked[l] = true;
                self.locked[r] = true;
                improved = true;
                // each edge from an unlocked vertex to a moved one flips
                // between cut (+1) and uncut (−1)
                for (moved, was_left) in [(l, true), (r, false)] {
                    for i in self.sub_offsets[moved]..self.sub_offsets[moved + 1] {
                        let u = self.sub_targets[i] as usize;
                        if self.locked[u] {
                            continue;
                        }
                        let delta = if self.in_left[u] == was_left { 2 } else { -2 };
                        let side = if self.in_left[u] { &mut self.left } else { &mut self.right };
                        side.remove(level(self.gain[u]), u);
                        self.gain[u] += delta;
                        side.insert(level(self.gain[u]), u);
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
        let small_tiles = PbrConfig { tile_size: 4 };
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

    /// The connected off-diagonal part pairs of `order`, counted from scratch.
    fn connected_pairs(csr: &Csr, order: &[u32], tile_size: usize) -> usize {
        let mut part = vec![0; order.len()];
        for (pos, &v) in order.iter().enumerate() {
            part[v as usize] = pos / tile_size;
        }
        let parts = order.len().div_ceil(tile_size);
        let mut connected = vec![false; parts * parts];
        for u in 0..csr.len() {
            for &x in csr.neighbors(u) {
                let (p, q) = (part[u], part[x as usize]);
                connected[p * parts + q] |= p < q;
            }
        }
        connected.iter().filter(|&&c| c).count()
    }

    #[test]
    fn final_pass_never_filters_out_a_swap_that_lowers_the_objective() {
        // Random graphs under random orders, not only bisection outputs. At
        // each state, every candidate the final pass visits is brute-forced:
        // a swap that lowers the objective must pass both filters, and the
        // bitset score must equal the brute-force change for every
        // candidate. Then the first improving swap is committed through the
        // pass's own update, whose summaries must match a fresh build, and
        // the next state is checked.
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(43);
        let mut graphs = Vec::new();
        for n in [20, 45, 70] {
            graphs.push(generators::erdos_renyi(n, 4.0 / n as f64, &mut rng));
            graphs.push(generators::barabasi_albert(n, 3, &mut rng));
            graphs.push(generators::newman_watts_strogatz(n, 2, 0.3, &mut rng));
        }
        let mut improving_swaps = 0;
        for g in &graphs {
            let csr = Csr::new(g);
            let n = csr.len();
            for tile_size in [1, 3, 8] {
                let mut order: Vec<u32> = (0..n as u32).collect();
                order.shuffle(&mut rng);
                let mut tiles = TilePartition::new(&csr, order, tile_size);
                for _ in 0..12 {
                    let before = connected_pairs(&csr, &tiles.order, tile_size);
                    let mut first_improving = None;
                    for u in 0..n {
                        let pu = tiles.position[u] / tile_size;
                        let mut parts: Vec<usize> = csr
                            .neighbors(u)
                            .iter()
                            .map(|&x| tiles.position[x as usize] / tile_size)
                            .filter(|&p| p != pu)
                            .collect();
                        parts.sort_unstable();
                        parts.dedup();
                        for pw in parts {
                            let start = pw * tile_size;
                            for slot in start..(start + tile_size).min(n) {
                                let w = tiles.order[slot] as usize;
                                let mut swapped = tiles.order.clone();
                                swapped.swap(tiles.position[u], slot);
                                let change = connected_pairs(&csr, &swapped, tile_size) as i32
                                    - before as i32;
                                let (emptied, connected) =
                                    (tiles.emptied(u, w), tiles.connected_by(u, w));
                                assert_eq!(connected as i32 - emptied as i32, change);
                                if change < 0 {
                                    assert!(tiles.part_may_empty(u, pw) && emptied > 0);
                                    first_improving.get_or_insert((u, w));
                                }
                            }
                        }
                    }
                    let Some((u, w)) = first_improving else {
                        break;
                    };
                    tiles.commit(u, w);
                    improving_swaps += 1;
                    let fresh = TilePartition::new(&csr, tiles.order.clone(), tile_size);
                    assert_eq!(tiles.part, fresh.part);
                    assert_eq!(tiles.pair_count, fresh.pair_count);
                    assert_eq!(tiles.connected, fresh.connected);
                    assert_eq!(tiles.touched, fresh.touched);
                    assert_eq!(tiles.alone, fresh.alone);
                    assert_eq!(tiles.own, fresh.own);
                    assert_eq!(tiles.part_alone, fresh.part_alone);
                    assert_eq!(tiles.part_isolated, fresh.part_isolated);
                }
            }
        }
        assert!(improving_swaps > 50, "only {improving_swaps} improving swaps exercised");
    }

    #[test]
    fn custom_tile_size_is_respected() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::barabasi_albert(40, 3, &mut rng);
        let cfg = PbrConfig { tile_size: 4 };
        let order = pbr_order(&g, &cfg);
        assert!(is_permutation(&order, 40));
    }
}
