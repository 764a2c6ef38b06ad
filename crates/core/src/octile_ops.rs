//! Sparse tile-pair product primitives — Section IV-B of the paper.
//!
//! Given one octile of each graph, the tensor product of the two tiles
//! contributes
//!
//! ```text
//! y_{(8·I+i)(8·I'+i')} += A_ij · A'_i'j' · κ_e(E_ij, E'_i'j') · p_{(8·J+j)(8·J'+j')}
//! ```
//!
//! for every pair of nonzeros `(i, j) ∈ tile₁`, `(i', j') ∈ tile₂`. Three
//! primitives cover the density spectrum:
//!
//! * [`TileProductKind::DenseDense`] — the first tile's nonzeros against
//!   the second tile expanded to a dense 8×8 block: per nonzero of the
//!   first, all 64 slots of the second are evaluated, an empty one as an
//!   exact zero (fast, regular, but wasteful on a near-empty second tile).
//!   The GPU kernel it models expands both tiles and evaluates all 64×64
//!   products, and the traffic forms below count that.
//! * [`TileProductKind::DenseSparse`] — the sparser tile is iterated via
//!   its occupancy bitmap, the denser one as a dense block.
//! * [`TileProductKind::SparseSparse`] — both tiles iterated via their
//!   bitmaps; only `nnz₁ · nnz₂` products are formed.
//!
//! The solver picks among them by [`KindTable`], whose closed forms follow
//! the loops each primitive runs *here* and whose constants were fit to them
//! on a CPU. The paper's Fig. 8 rule — a warp-cycle estimate of each variant
//! on a V100 — is not on this path: it lives beside the bin that prints the
//! figure, as `mgk_bench::warp_cycles::select_kind`.
//!
//! # Counted traffic
//!
//! Every primitive's traffic is one closed form per tile pair of the GPU
//! kernels' shared-memory traffic and FLOPs (`octile_pair_traffic`, private,
//! beside [`tile_pair_product_with_panels`]). None of it depends on the
//! vector, so the octile operator sums the forms of every tile pair once, at
//! assembly, into a per-apply ledger, and each application adds that ledger
//! once; the standalone entries count their own pair's form per call. For
//! dense×dense it counts the full 64×64 block a warp evaluates — `4096·x`
//! FLOPs — while the CPU body walks only the first tile's nonzeros, decoded
//! once per sweep, and executes at most `64·nnz₁` kernel evaluations.
//! Wherever the CPU table sends a tile pair to dense×dense, the FLOP counters
//! (`mgk_traffic_flops_total`, the intensity gauge, and any roofline
//! fraction built on them) count the GPU's work, several times what the CPU
//! does.
//! The forms stay as they are: they are the V100 projection's inputs, and
//! their totals are pinned to [`tile_pair_product_scalar`].
//!
//! # Vectorization
//!
//! The paper regenerates each product tile on the fly, so the base-kernel
//! evaluation *is* the inner loop, and the loops below only become SIMD
//! code if the compiler can see through [`BaseKernel::eval`]: a base kernel
//! must stay `#[inline]` and free of opaque calls (libm's `expf`, `floor`,
//! `round`, …) — one such call and every lane runs scalar. That is why
//! `mgk_kernels::SquareExponential` evaluates its exponential as an inlined
//! polynomial, and why both sparse-operand primitives evaluate the kernel
//! over contiguous *packed* labels: the packed sparse×sparse loop then makes
//! one scalar update per packed nonzero, and dense-rows one register chain
//! per row of the outer tile's decoded nonzeros, reading the values in
//! place. The octile operator hands the packed loop many inner tiles
//! at once. It groups the inner graph's tiles into layers, where layer ℓ is
//! the ℓ-th tile of every tile row. A run of a layer's packed tiles, up to
//! 64 nonzeros, then costs one kernel-evaluation loop per outer nonzero,
//! not one per tile pair. The dense×dense lanes are slices, not indexed
//! elements: a bounds check per lane keeps a loop scalar whatever the
//! kernel is.
//!
//! The dense×dense primitive has three instantiations of *one source body*,
//! none with FMA. Rust never contracts `a * b + c` on its own, and a fused
//! multiply-add rounds once where the reference rounds twice, so each lane
//! of every instantiation executes the same IEEE-754 multiplies and adds,
//! and all three are bit-identical to each other and to
//! [`tile_pair_product_scalar`] (asserted by a unit test that calls each
//! directly):
//!
//! * the portable one, one inner column (8 lanes) a step;
//! * an AVX2 one, the same body compiled under
//!   `#[target_feature(enable = "avx2")]` and chosen per call by
//!   `is_x86_feature_detected!("avx2")`;
//! * an AVX-512 one, inside the whole octile sweep compiled under
//!   `#[target_feature(enable = "avx512f")]`: it evaluates the kernel over
//!   two inner columns (16 lanes) a step, then adds their terms into the
//!   8-lane block column by column, so every lane's sum keeps its order.
//!
//! A `ProductSystem` detects AVX-512F once, at assembly, and its sweep runs
//! wide there only for an edge kernel of at least 8 `BaseKernel::FLOPS`, a
//! branch resolved per kernel at compile time: the square exponential (11),
//! not the Kronecker delta (4). The wider vector halves the instructions of the
//! kernel evaluation, which is a lane's work only when the kernel is
//! costly; a cheap kernel gains nothing from the width, and intermittent
//! 512-bit code costs clock. There is nothing to configure; elsewhere the
//! portable instantiation is the only one.
//!
//! Measured by the benchmark's traced `gram-dense` run (square-exponential
//! edge kernel, one pinned 2.1 GHz Xeon core, seed 1, medians of five
//! alternated pairs), libm `expf` → the inlined polynomial, ns per tile
//! pair: dense×dense 10022 → 2458, dense×sparse 5967 → 3292;
//! `product.apply_gflops` 3.7 → 13.6. The AVX-512 sweep, against the AVX2
//! dense×dense on one pinned Sapphire Rapids core (family 6 model 143):
//! `product.apply_us` 734 → 582 on the traced `gram-dense` run (seed 1),
//! and its `pairs_per_s` 147.9 → 201.6 in the median of ten alternated
//! 24 s runs (seed 5), higher in all ten.

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

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};

use mgk_kernels::BaseKernel;
use mgk_linalg::{Scalar, TrafficCounters};
use mgk_tile::{Octile, TILE_AREA, TILE_SIZE};

/// Which tile-pair primitive to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileProductKind {
    /// Walk the first tile's nonzeros against the second tile expanded to
    /// a dense block (on the GPU, both expanded and all 64×64 products
    /// evaluated).
    DenseDense,
    /// Keep the first tile dense and iterate the second tile's nonzeros.
    DenseSparse,
    /// Iterate the nonzeros of both tiles.
    SparseSparse,
}

impl TileProductKind {
    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            TileProductKind::DenseDense => "dense×dense",
            TileProductKind::DenseSparse => "dense×sparse",
            TileProductKind::SparseSparse => "sparse×sparse",
        }
    }
}

/// The primitive of least `cost`; ties go to sparse×sparse, then
/// dense×sparse.
fn cheapest(cost: impl Fn(TileProductKind) -> f64) -> TileProductKind {
    let mut best = TileProductKind::SparseSparse;
    let mut best_cost = f64::INFINITY;
    for kind in
        [TileProductKind::SparseSparse, TileProductKind::DenseSparse, TileProductKind::DenseDense]
    {
        let c = cost(kind);
        if c < best_cost {
            best_cost = c;
            best = kind;
        }
    }
    best
}

// ns per tile pair of the three loops the primitives run, as closed forms in
// the tile populations and the kernel's FLOP count `x`. Fit by relative least
// squares to `fig8_profitable_regions`' timing grid (random octiles, nnz₁ and
// nnz₂ each over 1–16, 20, 24, 28, 32, 40, 48, 56, 64; unit, Kronecker-delta
// and square-exponential edge kernels, x = 3, 4, 11; f32; AVX2 dense×dense)
// on one 2.0 GHz Xeon core (family 6 model 143). That bin refits them.
// Outside x = 3–11 they extrapolate. `SPARSE_SPARSE_NS` was fit later than
// the other two, alone, to the quietest of six grids (the one whose
// dense×dense fit reproduced `DENSE_DENSE_NS`); with it, against the
// dense×dense body these constants were fit to, the table picked within 10 %
// of the fastest primitive in 94–96 % of cells.
//
// The grid times the standalone entry, one tile pair per call. The octile
// operator runs the packed loop over runs of several inner tiles, so it pays
// the fixed terms `d` and `e` once per run, not once per tile pair: for the
// operator these constants overstate what a sparse×sparse tile pair costs.
// They stay fit to the standalone loop on purpose. A refit moves the
// routing, and with it the summation order and the answers.
//
// `DENSE_DENSE_NS` was fit to a dense×dense body that scanned all 64 slots
// of the outer tile. The body now walks the outer tile's decoded nonzeros,
// which made the operator's sweep 0.71–0.80× as long on NWS and BA pairs of
// 96 vertices and left protein-48 pairs flat (0.92–1.01×; in process, one
// pinned Xeon core, bits asserted equal), so the constants overstate what a
// dense×dense pair costs: on the grid the table's pick is now within 10 % of
// the fastest in 82 % of cells. They are kept until the routing is refit,
// since a refit moves answers.

/// [`dense_dense`]: one 64-evaluation block per nonzero of the first tile,
/// flat in `nnz₂`: `a + nnz₁·(b + c·x)`.
const DENSE_DENSE_NS: [f64; 3] = [92.8, -14.19, 6.043];
/// [`packed_run`] over one tile: per nonzero of the first tile, one kernel
/// evaluation and one update of `y` per nonzero of the second:
/// `d + nnz₁·(e + f·x·nnz₂)`.
const SPARSE_SPARSE_NS: [f64; 3] = [17.3, 3.97, 0.3516];
/// [`dense_rows_direct`]: per nonzero of the second tile, one kernel
/// evaluation per nonzero of the first and a serial chain per row of the
/// first: `g + nnz₂·(h + i·x·nnz₁)`. Fit to a body that chained all 64 slots
/// of the first tile from its row-major panel.
const DENSE_ROWS_NS: [f64; 3] = [36.7, 57.65, 0.1402];

/// What `kind` costs on a tile pair, by the closed forms above.
fn cpu_cost(kind: TileProductKind, nnz1: usize, nnz2: usize, kernel_flops: usize) -> f64 {
    let (n1, n2, x) = (nnz1 as f64, nnz2 as f64, kernel_flops as f64);
    match kind {
        TileProductKind::DenseDense => {
            let [a, b, c] = DENSE_DENSE_NS;
            a + n1 * (b + c * x)
        }
        TileProductKind::DenseSparse if nnz1 > nnz2 => {
            let [g, h, i] = DENSE_ROWS_NS;
            g + n2 * (h + i * x * n1)
        }
        // dense×sparse with the first tile the sparser is the sparse×sparse
        // call itself
        TileProductKind::SparseSparse | TileProductKind::DenseSparse => {
            let [d, e, f] = SPARSE_SPARSE_NS;
            d + n1 * (e + f * x * n2)
        }
    }
}

/// The serving path's 65×65 primitive table, keyed by `(nnz1, nnz2)`.
///
/// The choice only depends on the two tile populations and the base-kernel
/// FLOP count, so an operator that sweeps every tile pair of a graph pair
/// looks it up instead of costing three candidates per pair. It is built
/// from closed forms of what each primitive costs on a CPU, with constants
/// fit once and written into the source — not from the paper's V100 model,
/// and not timed per process: the primitive fixes a pair's
/// summation order, so a table measured on the host would make answers
/// depend on the host's load. Ties go to sparse×sparse, so dense×sparse is
/// chosen only where it runs its own loop (`nnz1 > nnz2`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindTable {
    kinds: [[TileProductKind; TILE_AREA + 1]; TILE_AREA + 1],
}

impl KindTable {
    /// Build the decision table for a base kernel costing `kernel_flops`
    /// FLOPs per evaluation.
    pub fn new(kernel_flops: usize) -> Self {
        let mut kinds = [[TileProductKind::DenseDense; TILE_AREA + 1]; TILE_AREA + 1];
        for (n1, row) in kinds.iter_mut().enumerate() {
            for (n2, slot) in row.iter_mut().enumerate() {
                *slot = cheapest(|kind| cpu_cost(kind, n1, n2, kernel_flops));
            }
        }
        KindTable { kinds }
    }

    /// The table for `kernel_flops`, built on the first request and shared
    /// by every later one in the process: it depends on nothing else, so an
    /// assembly asks for it instead of building it.
    pub(crate) fn shared(kernel_flops: usize) -> Arc<KindTable> {
        static TABLES: Mutex<BTreeMap<usize, Arc<KindTable>>> = Mutex::new(BTreeMap::new());
        let mut tables = TABLES.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(tables.entry(kernel_flops).or_insert_with(|| Arc::new(Self::new(kernel_flops))))
    }

    /// The primitive the table routes a tile pair with `nnz1`/`nnz2`
    /// nonzeros to.
    #[inline]
    pub fn get(&self, nnz1: usize, nnz2: usize) -> TileProductKind {
        debug_assert!(
            nnz1 <= TILE_AREA && nnz2 <= TILE_AREA,
            "octile populations are at most {TILE_AREA}"
        );
        self.kinds[nnz1][nnz2]
    }
}

/// Cost metadata threaded through the tile product (byte sizes and FLOP
/// count of the base kernel).
#[derive(Debug, Clone, Copy)]
pub struct TileCosts {
    /// Bytes per edge label.
    pub label_bytes: usize,
    /// Bytes per edge weight.
    pub float_bytes: usize,
    /// FLOPs per base-kernel evaluation.
    pub kernel_flops: usize,
}

/// The transposed (column-major) weights and labels of one inner tile: what
/// a dense×dense pair reads of its inner tile, 512 B with `f32` labels. No
/// primitive reads a panel of its outer tile: dense×dense and dense-rows
/// walk that tile's nonzeros, decoded once per sweep. The packed
/// sparse×sparse loop reads no panel either: the operator's sweep hands it
/// the inner tiles' packed nonzeros through `TileLayers`, and the standalone
/// entry decodes the inner tile's mask.
///
/// Building the panels costs `O(nnz)` per tile; an operator sweeping all
/// tile pairs of a graph pair builds them once per inner tile and amortizes
/// the cost across the whole sweep (see `ProductSystem`). The standalone
/// [`tile_pair_product`] entry builds the second tile's per call.
#[derive(Debug, Clone)]
pub struct TilePanels<E> {
    /// Transposed dense weights (`w[c * 8 + r]`), zero in the empty slots.
    pub weights_t: [f32; TILE_AREA],
    /// Transposed dense labels, `E::default()` in the empty slots.
    pub labels_t: [E; TILE_AREA],
}

impl<E: Copy + Default> TilePanels<E> {
    /// Expand one octile's bitmap and packed payload into transposed panels.
    pub fn new(tile: &Octile<E>) -> Self {
        let mut panels =
            TilePanels { weights_t: [0.0; TILE_AREA], labels_t: [E::default(); TILE_AREA] };
        for (r, c, w, l) in tile.iter() {
            // the bitmap iterator yields r, c < TILE_SIZE
            let tr = c * TILE_SIZE + r;
            panels.weights_t[tr] = w;
            panels.labels_t[tr] = l;
        }
        panels
    }
}

/// Accumulate the product of one pair of octiles into the output vector.
///
/// `t1` is a tile of the first graph (tile row `I`, tile column `J`), `t2`
/// of the second (`I'`, `I'`→`J'`); `n`/`m` are the vertex counts of the
/// two graphs, `p` the right-hand side of length `n·m`, `y` the output of
/// the same length. Generic over the vector [`Scalar`]: tile weights and
/// base-kernel values are stored in `f32` and each factor is widened
/// through [`Scalar::from_f32`] before multiplying, so the `f64`
/// instantiation forms the exact product of the stored operands.
///
/// This entry expands the second tile's [`TilePanels`] per call and runs
/// the bitmap-driven kernels of [`tile_pair_product_with_panels`]; the
/// results are bit-for-bit identical to [`tile_pair_product_scalar`] at
/// every precision.
#[allow(clippy::too_many_arguments)]
pub fn tile_pair_product<T: Scalar, E: Copy + Default, K: BaseKernel<E>>(
    kind: TileProductKind,
    t1: &Octile<E>,
    t2: &Octile<E>,
    n: usize,
    m: usize,
    kernel: &K,
    costs: &TileCosts,
    p: &[T],
    y: &mut [T],
    counters: &mut TrafficCounters,
) {
    let panels2 = TilePanels::new(t2);
    let s2 = PaneledTile { tile: t2, panels: &panels2 };
    standalone_tile_pair(kind, t1, s2, PairContext { n, m, kernel, costs }, p, y, counters);
}

/// One octile plus its precomputed [`TilePanels`] — the unit the
/// panel-amortized entry point consumes. The operator builds the panels
/// once per inner tile at assembly and pairs them back up here for every
/// tile pair of the sweep.
#[derive(Clone, Copy)]
pub struct PaneledTile<'a, E> {
    /// The packed tile.
    pub tile: &'a Octile<E>,
    /// Its bitmap-derived dense and transposed panels.
    pub panels: &'a TilePanels<E>,
}

/// The context shared by every tile pair of one graph-pair sweep: problem
/// dimensions, base kernel and the cost metadata of the traffic closed
/// forms.
pub struct PairContext<'a, K> {
    /// First graph's vertex count (row blocks of the product system).
    pub n: usize,
    /// Second graph's vertex count (column blocks).
    pub m: usize,
    /// Base kernel evaluated per edge-label pair.
    pub kernel: &'a K,
    /// Byte sizes and FLOP count threaded into the traffic closed forms.
    pub costs: &'a TileCosts,
}

// by hand: a derive would ask for `K: Copy`, and the context holds `&K`
impl<K> Clone for PairContext<'_, K> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K> Copy for PairContext<'_, K> {}

/// Bitmap-driven tile-pair product over the second tile's precomputed
/// [`TilePanels`], counting the pair's closed-form traffic into `counters`.
/// The first tile's panels are not read: every primitive walks that tile's
/// nonzeros, decoded once per call.
///
/// Sparse×sparse, and dense×sparse with the first tile the sparser, form
/// exactly the reference's terms from the packed tiles. Dense×dense walks
/// the first tile's decoded nonzeros and sweeps the second tile's panel
/// rows branchlessly; the other dense×sparse orientation walks the first
/// tile's decoded nonzeros against each nonzero of the second. Every term
/// either inserts where the reference has none — dense×dense at an empty
/// slot of the second tile, dense-rows at a stored zero weight of the
/// first — is an exact `±0.0` (base kernels return finite values in
/// `[0, 1]` by contract), and dense×dense leaves out the reference's `+0.0`
/// update of each output row the first tile has no nonzero in. Neither
/// changes a `y` that never held `−0.0` (the operator's does not: it starts
/// at `+0.0` and only sums). So each output element accumulates the same
/// nonzero terms in the same order, at the same associativity, as
/// [`tile_pair_product_scalar`]: the results are bitwise identical at `f32`
/// and `f64`. Traffic is attributed through per-pair closed forms (the
/// private `octile_pair_traffic`), which match the scalar reference's totals
/// exactly.
///
/// The octile operator does not call this entry. It decodes each outer tile
/// once per sweep instead of once per pair, runs the packed loop over runs
/// of inner tiles instead of one tile (see `sweep_inner_layers`), and counts
/// the traffic of an application once, fixed at assembly. This entry runs
/// that same packed loop with a run of one tile, whose mask it decodes.
pub fn tile_pair_product_with_panels<T: Scalar, E: Copy + Default, K: BaseKernel<E>>(
    kind: TileProductKind,
    s1: PaneledTile<'_, E>,
    s2: PaneledTile<'_, E>,
    ctx: PairContext<'_, K>,
    p: &[T],
    y: &mut [T],
    counters: &mut TrafficCounters,
) {
    standalone_tile_pair(kind, s1.tile, s2, ctx, p, y, counters);
}

/// The body of both standalone entries: count the pair's closed form,
/// decode `t1` and run the pair.
fn standalone_tile_pair<T: Scalar, E: Copy + Default, K: BaseKernel<E>>(
    kind: TileProductKind,
    t1: &Octile<E>,
    s2: PaneledTile<'_, E>,
    ctx: PairContext<'_, K>,
    p: &[T],
    y: &mut [T],
    counters: &mut TrafficCounters,
) {
    counters.accumulate(&tile_pair_traffic(kind, t1, s2.tile, (ctx.n, ctx.m), ctx.costs, T::BYTES));
    let mut sweep = OuterSweep::new();
    sweep.decode(t1, ctx.m);
    tile_pair_body::<false, _, _, _>(kind, &mut sweep, t1, s2, ctx, p, y);
}

/// The per-sweep state of a tile-pair sweep over one outer tile: the outer
/// tile decoded once, and one coefficient scratch.
///
/// Per packed nonzero `(i, j)` of the outer tile, in row-major order,
/// `entries` holds the output row offset `(row₁+i)·m`, the right-hand-side
/// row offset `(col₁+j)·m`, the weight at the vector precision and the
/// label. Every run of the packed loop in the sweep reads it (sparse×sparse,
/// and dense×sparse with the outer tile the sparser), and so does every pair
/// routed to a dense form: dense×dense adds a block of `y` per run of
/// entries with one output row, and dense-rows one register chain per such
/// run and inner nonzero.
/// `coefficients` holds one coefficient per nonzero of a run, so a run holds
/// at most [`TILE_AREA`] nonzeros. Only a sweep that forms its coefficients
/// in place ([`Coefficients::Form`]) uses it: a sweep that records or
/// replays a coefficient stream keeps them there. It is written before it is
/// read, so it is never re-zeroed.
struct OuterSweep<T, E> {
    entries: [(usize, usize, T, E); TILE_AREA],
    len: usize,
    coefficients: [T; TILE_AREA],
}

impl<T: Scalar, E: Copy + Default> OuterSweep<T, E> {
    fn new() -> Self {
        OuterSweep {
            entries: [(0, 0, T::ZERO, E::default()); TILE_AREA],
            len: 0,
            coefficients: [T::ZERO; TILE_AREA],
        }
    }

    /// Decode `tile` as the outer tile of a sweep over a second graph of
    /// `m` vertices.
    fn decode(&mut self, tile: &Octile<E>, m: usize) {
        let (row, col) = (tile.row as usize * TILE_SIZE, tile.col as usize * TILE_SIZE);
        for (slot, (i, j, w, l)) in self.entries.iter_mut().zip(tile.iter()) {
            *slot = ((row + i) * m, (col + j) * m, T::from_f32(w), l);
        }
        self.len = tile.nnz();
    }
}

/// One tile pair's product, with the first tile `t1` already decoded into
/// `sweep`: the body [`tile_pair_product_with_panels`] runs, and the one the
/// octile operator's sweep runs for the pairs it routes to a dense form.
/// Both dense forms read the first tile from `sweep`, dense-rows its packed
/// labels too; only dense×dense reads the second tile's panels. A pair
/// routed to the packed loop is a run of one tile here, its mask decoded on
/// the stack. `WIDE` runs dense×dense two inner columns a step, inlined
/// (the AVX-512 sweep); otherwise it goes through the per-call dispatch of
/// `dense_dense`.
#[inline(always)]
fn tile_pair_body<const WIDE: bool, T: Scalar, E: Copy + Default, K: BaseKernel<E>>(
    kind: TileProductKind,
    sweep: &mut OuterSweep<T, E>,
    t1: &Octile<E>,
    s2: PaneledTile<'_, E>,
    ctx: PairContext<'_, K>,
    p: &[T],
    y: &mut [T],
) {
    let PairContext { n, m, kernel, .. } = ctx;
    debug_assert_eq!(p.len(), n * m);
    debug_assert_eq!(y.len(), n * m);
    debug_assert_eq!(sweep.len, t1.nnz(), "the sweep holds the first tile");
    let t2 = s2.tile;
    if reads_packed(kind, t1.nnz(), t2.nnz()) {
        const SIDE: u32 = TILE_SIZE as u32;
        let (row2, col2) = (t2.row * SIDE, t2.col * SIDE);
        let nnz2 = t2.nnz();
        let (mut rows, mut cols) = ([0u32; TILE_AREA], [0u32; TILE_AREA]);
        let mut bits = t2.mask;
        for (r, c) in rows.iter_mut().zip(&mut cols).take(nnz2) {
            let bit = bits.trailing_zeros();
            bits &= bits.wrapping_sub(1);
            (*r, *c) = (row2 + bit / SIDE, col2 + bit % SIDE);
        }
        let run = PackedRun {
            rows: &rows[..nnz2],
            cols: &cols[..nnz2],
            weights: &t2.weights,
            labels: &t2.labels,
        };
        packed_run(sweep, run, &mut Coefficients::Form, kernel, p, y);
    } else if kind == TileProductKind::DenseDense {
        if WIDE {
            dense_dense_blocked::<2, _, _, _>(sweep, s2, m, kernel, p, y);
        } else {
            dense_dense(sweep, s2, m, kernel, p, y);
        }
    } else {
        dense_rows_direct(sweep, &t1.labels, t2, kernel, p, y);
    }
}

/// The closed-form traffic of one tile pair routed to `kind`, at vector
/// width `vector_bytes`: what the primitive is counted before it touches any
/// payload.
pub(crate) fn tile_pair_traffic<E: Copy>(
    kind: TileProductKind,
    t1: &Octile<E>,
    t2: &Octile<E>,
    (n, m): (usize, usize),
    costs: &TileCosts,
    vector_bytes: u64,
) -> TrafficCounters {
    let shape = match kind {
        TileProductKind::SparseSparse => {
            OctilePairShape::SparseSparse { nnz1: t1.nnz() as u64, nnz2: t2.nnz() as u64 }
        }
        TileProductKind::DenseSparse => {
            let sparse_is_first = t1.nnz() <= t2.nnz();
            let (dense, dense_dim) = if sparse_is_first { (t2, m) } else { (t1, n) };
            let drow = dense.row as usize * TILE_SIZE;
            let rows_in_range = TILE_SIZE.min(dense_dim.saturating_sub(drow)) as u64;
            let nnz_sparse = t1.nnz().min(t2.nnz()) as u64;
            OctilePairShape::DenseSparse { nnz_sparse, rows_in_range }
        }
        TileProductKind::DenseDense => OctilePairShape::DenseDense,
    };
    octile_pair_traffic(
        shape,
        costs.label_bytes as u64,
        costs.float_bytes as u64,
        vector_bytes,
        costs.kernel_flops as u64,
    )
}

/// The shape of one tile-pair product, for the closed forms of
/// [`octile_pair_traffic`]: exactly what the primitives know before touching
/// any payload — the tile populations and, for the mixed primitive, how many
/// of the dense tile's rows fall inside the matrix (edge tiles are clamped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OctilePairShape {
    /// Both tiles expanded; all `t⁴` products evaluated.
    DenseDense,
    /// The sparser tile iterated per nonzero against the dense tile's
    /// in-range rows.
    DenseSparse {
        /// Nonzeros of the sparser tile.
        nnz_sparse: u64,
        /// Dense-tile rows inside the matrix (`min(t, dim − 8·tile_row)`).
        rows_in_range: u64,
    },
    /// Only `nnz₁ · nnz₂` products formed.
    SparseSparse {
        /// Nonzeros of the first tile.
        nnz1: u64,
        /// Nonzeros of the second tile.
        nnz2: u64,
    },
}

/// Closed-form shared-memory traffic, FLOPs and base-kernel evaluations of
/// one 8×8 tile-pair product on the GPU (Section IV-B), attributing what the
/// Appendix-C table attributes per term: `label_bytes`/`float_bytes` are the
/// stored `E`/`F` sizes, `vector_bytes` the right-hand-side scalar width and
/// `kernel_flops` the per-evaluation cost `X`.
///
/// Global traffic is *not* included — tile streaming is accounted at the
/// operator layer, where compact storage and block sharing apply.
/// [`tile_pair_product_scalar`] counts the same totals element by element.
fn octile_pair_traffic(
    shape: OctilePairShape,
    label_bytes: u64,
    float_bytes: u64,
    vector_bytes: u64,
    kernel_flops: u64,
) -> TrafficCounters {
    const T: u64 = TILE_SIZE as u64;
    let (eb, fb, vb, x) = (label_bytes, float_bytes, vector_bytes, kernel_flops);
    let mut c = TrafficCounters::new();
    match shape {
        OctilePairShape::SparseSparse { nnz1, nnz2 } => {
            let prods = nnz1 * nnz2;
            c.flops = prods * x;
            c.kernel_evaluations = prods;
            c.shared_load_bytes = prods * (2 * (fb + eb) + vb);
        }
        OctilePairShape::DenseSparse { nnz_sparse, rows_in_range } => {
            // the dense tile is expanded into shared memory once, then every
            // in-range dense slot is visited per sparse nonzero
            let elems = nnz_sparse * rows_in_range * T;
            c.flops = elems * x;
            c.kernel_evaluations = elems;
            c.shared_load_bytes = elems * (fb + eb + vb);
            c.shared_store_bytes = T * T * (fb + eb);
        }
        OctilePairShape::DenseDense => {
            // both tiles expanded; the full t⁴ block is evaluated with the
            // tiling-blocking reuse pattern (~2(E+F)/t bytes per term)
            let full = T * T * T * T;
            c.flops = full * x;
            c.kernel_evaluations = full;
            c.shared_load_bytes = full * (fb + eb) * 2 / T;
            c.shared_store_bytes = 2 * T * T * (fb + eb);
        }
    }
    c
}

/// Whether `kind` reads the second tile's packed nonzeros: sparse×sparse,
/// and dense×sparse with the first tile the sparser (the scalar reference
/// calls the first tile "sparse" on ties, and so does this).
#[inline]
pub(crate) fn reads_packed(kind: TileProductKind, nnz1: usize, nnz2: usize) -> bool {
    match kind {
        TileProductKind::SparseSparse => true,
        TileProductKind::DenseSparse => nnz1 <= nnz2,
        TileProductKind::DenseDense => false,
    }
}

/// Packed nonzeros of one or more inner tiles that lie in distinct tile
/// rows, each as its global row, its global column, its weight and its
/// label: what [`packed_run`] reads.
struct PackedRun<'a, E> {
    rows: &'a [u32],
    cols: &'a [u32],
    weights: &'a [f32],
    labels: &'a [E],
}

/// Where [`packed_run`] takes the coefficients `(w₁·w₂)·κ(l₁, l₂)` of its
/// terms from. None depends on the vector, so a sweep may record them once
/// and replay them on every later sweep of the same system.
pub(crate) enum Coefficients<'s, T> {
    /// Form each in the sweep's scratch, per outer nonzero, and drop it once
    /// its update loop has run: the paper's recompute-every-time design.
    Form,
    /// Form each and append it to a stream, in the order the sweep forms
    /// them.
    Record(&'s mut Vec<T>),
    /// Read each from a stream recorded by a sweep of the same system: the
    /// slice is the part not read yet.
    Replay(&'s [T]),
}

/// One coefficient `(w₁·w₂)·κ(l₁, l₂)` at the vector precision, with the
/// outer weight `w1` already widened: the one expression every coefficient
/// of the packed loop comes from, whether formed in place or recorded.
#[inline(always)]
fn coefficient<T: Scalar, E, K: BaseKernel<E>>(w1: T, l1: &E, w2: f32, l2: &E, kernel: &K) -> T {
    (w1 * T::from_f32(w2)) * T::from_f32(kernel.eval(l1, l2))
}

/// The packed loop's update: one term `coefficient · p` per nonzero of the
/// run, added to `y` in the run's order, for one outer nonzero whose output
/// and right-hand-side row offsets are `yrow1` and `prow1`.
#[inline(always)]
fn update_run<T: Scalar, E>(
    coefficients: &[T],
    (yrow1, prow1): (usize, usize),
    run: &PackedRun<'_, E>,
    p: &[T],
    y: &mut [T],
) {
    for ((&c, &row), &col) in coefficients.iter().zip(run.rows).zip(run.cols) {
        y[yrow1 + row as usize] += c * p[prow1 + col as usize];
    }
}

/// The packed sparse×sparse loop: the paper's `nnz₁ · nnz₂` products of the
/// sweep's outer tile with a run of inner nonzeros. It serves both the
/// sparse×sparse primitive and the mixed primitive when the outer tile is
/// the sparser one.
///
/// Per nonzero `(i, j)` of the outer tile, read from the sweep's decoded
/// copy, the coefficients `(w₁·w₂)·κ(l₁, l₂)` are formed over the run's
/// contiguous packed weights and labels, a loop that vectorizes. Then each
/// inner nonzero adds one term `coefficient · p` to `y`, in the run's order.
///
/// `coefficients` says where the coefficients come from. Formed in place,
/// they live in the sweep's scratch for one outer nonzero, as the paper's
/// kernel regenerates every product-graph weight inside each XMV. Recorded,
/// they are formed by the same expression and appended to a stream instead.
/// Replayed, the coefficient loop is skipped and the update loop reads the
/// stream, in the order the recording formed it. Each stored coefficient is
/// the value the loop would form, read by the term it was formed for, so
/// the three ways give the same bits.
///
/// For one tile these are the terms of [`tile_pair_product_scalar`]'s
/// sparse×sparse loop, in its order and association. They are also the terms
/// of its sparse-first dense×sparse loop, whose row-major sweep of the dense
/// tile meets the same nonzeros in the same order. (That loop skips a stored
/// zero weight. Here it adds an exact zero, which changes no sum, since an
/// accumulation from `+0.0` never reaches `−0.0`.) A run of several tiles
/// changes no element's order either. Its tiles lie in distinct tile rows,
/// so each output element meets the nonzeros of one tile of the run only,
/// in that tile's order.
#[inline(always)]
fn packed_run<T: Scalar, E: Copy + Default, K: BaseKernel<E>>(
    sweep: &mut OuterSweep<T, E>,
    run: PackedRun<'_, E>,
    coefficients: &mut Coefficients<'_, T>,
    kernel: &K,
    p: &[T],
    y: &mut [T],
) {
    debug_assert_eq!(p.len(), y.len(), "p and y are both length n*m");
    debug_assert!(run.weights.len() <= TILE_AREA, "a run holds at most {TILE_AREA} nonzeros");
    debug_assert!(
        run.rows.len() == run.weights.len()
            && run.cols.len() == run.weights.len()
            && run.labels.len() == run.weights.len()
    );
    let width = run.weights.len();
    if width == 0 {
        return;
    }
    let OuterSweep { entries, len, coefficients: scratch } = sweep;
    let entries = &entries[..*len];
    match coefficients {
        Coefficients::Form => {
            let scratch = &mut scratch[..width];
            for &(yrow1, prow1, w1t, l1) in entries {
                for ((c, &w2), l2) in scratch.iter_mut().zip(run.weights).zip(run.labels) {
                    *c = coefficient(w1t, &l1, w2, l2, kernel);
                }
                update_run(scratch, (yrow1, prow1), &run, p, y);
            }
        }
        Coefficients::Record(stream) => {
            for &(yrow1, prow1, w1t, l1) in entries {
                let start = stream.len();
                stream.extend(
                    run.weights
                        .iter()
                        .zip(run.labels)
                        .map(|(&w2, l2)| coefficient(w1t, &l1, w2, l2, kernel)),
                );
                update_run(&stream[start..], (yrow1, prow1), &run, p, y);
            }
        }
        Coefficients::Replay(cursor) => {
            let (recorded, rest) = cursor.split_at(entries.len() * width);
            *cursor = rest;
            for (&(yrow1, prow1, _, _), c) in entries.iter().zip(recorded.chunks_exact(width)) {
                update_run(c, (yrow1, prow1), &run, p, y);
            }
        }
    }
}

/// One structure's tiles as the inner operand of the octile operator:
/// grouped into layers, with every tile's packed nonzeros laid out for
/// [`packed_run`].
///
/// Layer ℓ is the ℓ-th tile, in column order, of every tile row that has
/// one, so the tiles of a layer lie in pairwise distinct tile rows. Each
/// layer stores its tiles one after another, in row order. Each nonzero
/// `(i, j)` of tile `(I, J)` is stored as its global row `8·I + i`, its
/// global column `8·J + j`, its weight and its label. Consecutive tiles of
/// a layer are therefore one contiguous slice of the four arrays. Building
/// the index costs `O(nnz)`, once per system.
pub(crate) struct TileLayers<E> {
    /// Layer ℓ is the slots `layers[ℓ]..layers[ℓ + 1]`.
    layers: Vec<usize>,
    /// Each slot's tile, as an index into the structure's tile list.
    tiles: Vec<usize>,
    /// Slot `s` holds the nonzeros `offsets[s]..offsets[s + 1]`.
    offsets: Vec<usize>,
    rows: Vec<u32>,
    cols: Vec<u32>,
    weights: Vec<f32>,
    labels: Vec<E>,
}

impl<E: Copy> TileLayers<E> {
    /// Index `tiles`, which are sorted by `(row, col)` as
    /// [`mgk_tile::OctileMatrix::tiles`] keeps them.
    pub(crate) fn new(tiles: &[Octile<E>]) -> Self {
        // the tile-list range of each tile row
        let mut tile_rows: Vec<Range<usize>> = Vec::new();
        for (k, tile) in tiles.iter().enumerate() {
            match tile_rows.last_mut() {
                Some(range) if tiles[range.start].row == tile.row => range.end = k + 1,
                _ => tile_rows.push(k..k + 1),
            }
        }
        let depth = tile_rows.iter().map(ExactSizeIterator::len).max().unwrap_or(0);
        let nnz = tiles.iter().map(Octile::nnz).sum();
        let mut index = TileLayers {
            layers: Vec::with_capacity(depth + 1),
            tiles: Vec::with_capacity(tiles.len()),
            offsets: Vec::with_capacity(tiles.len() + 1),
            rows: Vec::with_capacity(nnz),
            cols: Vec::with_capacity(nnz),
            weights: Vec::with_capacity(nnz),
            labels: Vec::with_capacity(nnz),
        };
        index.layers.push(0);
        index.offsets.push(0);
        for position in 0..depth {
            for k in tile_rows.iter().filter_map(|range| range.clone().nth(position)) {
                let tile = &tiles[k];
                let (row, col) = (tile.row * TILE_SIZE as u32, tile.col * TILE_SIZE as u32);
                for (i, j, w, l) in tile.iter() {
                    index.rows.push(row + i as u32);
                    index.cols.push(col + j as u32);
                    index.weights.push(w);
                    index.labels.push(l);
                }
                index.tiles.push(k);
                index.offsets.push(index.weights.len());
            }
            index.layers.push(index.tiles.len());
        }
        index
    }

    /// The packed nonzeros `range`.
    fn run(&self, range: Range<usize>) -> PackedRun<'_, E> {
        PackedRun {
            rows: &self.rows[range.clone()],
            cols: &self.cols[range.clone()],
            weights: &self.weights[range.clone()],
            labels: &self.labels[range],
        }
    }
}

/// The octile operator's sweep: the product of every outer tile with every
/// tile of the inner operand, added into `y`. Each outer tile is decoded
/// once, into one [`OuterSweep`] kept for its whole sweep over the inner
/// operand, which goes one layer at a time.
///
/// Within a layer, consecutive tiles that `kinds` routes to the packed loop
/// form a run, and each run costs one [`packed_run`] call. A run ends
/// before the tile that would take it past [`TILE_AREA`] nonzeros, so the
/// sweep's coefficient scratch holds it. A tile routed to dense×dense or to
/// `dense_rows_direct` ends the run and goes through [`tile_pair_body`].
/// Every run forms, records or replays its coefficients as `coefficients`
/// says.
///
/// Output element `(i, i')` is written only by the inner tiles of tile row
/// `I'`, and a layer holds at most one of them. So each element receives
/// its terms as the reference sweep adds them: outer tiles in order, inner
/// tiles in column order, then outer nonzeros, then inner nonzeros.
///
/// The body of both instantiations of [`octile_sweep`], which differ only
/// in `WIDE` (see [`tile_pair_body`]) and in the target features the body,
/// inlined, is compiled under.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn sweep_inner_layers<const WIDE: bool, T: Scalar, E: Copy + Default, K: BaseKernel<E>>(
    outer: &[Octile<E>],
    inner: (&[Octile<E>], &[TilePanels<E>]),
    layers: &TileLayers<E>,
    kinds: &KindTable,
    coefficients: &mut Coefficients<'_, T>,
    ctx: PairContext<'_, K>,
    p: &[T],
    y: &mut [T],
) {
    let mut sweep = OuterSweep::new();
    for t1 in outer {
        sweep.decode(t1, ctx.m);
        let nnz1 = t1.nnz();
        for layer in layers.layers.windows(2) {
            let first = layers.offsets[layer[0]];
            let mut run = first..first;
            for slot in layer[0]..layer[1] {
                let (start, end) = (layers.offsets[slot], layers.offsets[slot + 1]);
                let nnz2 = end - start;
                let kind = kinds.get(nnz1, nnz2);
                if reads_packed(kind, nnz1, nnz2) {
                    if end - run.start > TILE_AREA {
                        packed_run(&mut sweep, layers.run(run), coefficients, ctx.kernel, p, y);
                        run = start..end;
                    } else {
                        run.end = end;
                    }
                } else {
                    packed_run(&mut sweep, layers.run(run), coefficients, ctx.kernel, p, y);
                    run = end..end;
                    let k = layers.tiles[slot];
                    let s2 = PaneledTile { tile: &inner.0[k], panels: &inner.1[k] };
                    tile_pair_body::<WIDE, _, _, _>(kind, &mut sweep, t1, s2, ctx, p, y);
                }
            }
            packed_run(&mut sweep, layers.run(run), coefficients, ctx.kernel, p, y);
        }
    }
}

/// The least edge-kernel cost, in [`BaseKernel::FLOPS`], at which a system
/// runs the AVX-512 sweep: the square exponential (11) does, the unit
/// kernel (3) and the Kronecker delta (4) do not. The 16-lane dense×dense
/// step halves the instructions of the kernel evaluation, which is a lane's
/// work only when the kernel is costly; a cheap kernel gains nothing from
/// the width, and intermittent 512-bit code costs clock. In alternated 24 s
/// benchmark runs on one pinned Sapphire Rapids core, the wide sweep took
/// `gram-dense` (square exponential) from 147.9 to 201.6 pairs/s, while
/// every system wide, this gate removed, took `gram-small-mol` (Kronecker
/// delta) from 19.2k to 16.6k pairs/s and `gram-sparse` (unit kernel) from
/// 89.6 to 83.9. The gate is a constant of the kernel's type, so
/// `octile_sweep_avx512` is compiled only for kernels that pass it.
const WIDE_KERNEL_FLOPS: usize = 8;

/// Proof that the CPU has AVX-512F: made only by [`Avx512::detect`], and
/// what [`octile_sweep`] asks for to run 16 lanes wide.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Avx512(());

impl Avx512 {
    /// `Some` exactly when the CPU has AVX-512F.
    pub(crate) fn detect() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx512f") {
            return Some(Avx512(()));
        }
        None
    }
}

/// Whether a sweep under the edge kernel `K` runs 16 lanes wide where the
/// CPU has AVX-512F: `K` costs [`WIDE_KERNEL_FLOPS`] or more. The one gate,
/// a constant of the kernel's type.
pub(crate) const fn sweeps_wide<E, K: BaseKernel<E>>() -> bool {
    K::FLOPS >= WIDE_KERNEL_FLOPS
}

/// The octile operator's sweep of the outer operand's tiles `outer` against
/// the inner operand's tiles and panels `inner`, indexed by `layers` (see
/// [`sweep_inner_layers`]).
///
/// With `wide`, for a kernel of [`WIDE_KERNEL_FLOPS`] or more, it runs
/// `octile_sweep_avx512`: every primitive compiled with AVX-512F enabled,
/// and dense×dense two inner columns (16 lanes) a step. Otherwise
/// dense×dense runs 8 lanes wide, through the per-call dispatch of
/// `dense_dense`; a cheaper kernel ignores `wide`, and the wide sweep is
/// not compiled for it. Either way every element of `y` receives the same
/// terms, formed by the same IEEE-754 multiplies and added in the same
/// order, so the two give the same bits.
///
/// It is inlined into its caller. Once the width gate became a constant,
/// a cheap kernel's `octile_sweep` was small enough to stay out of line,
/// and in alternated benchmark runs on one pinned core that alone cost the
/// small-pair workloads 6–9 % (`gram-small-mol` 19.1k → 17.5k pairs/s,
/// `serve-cold` 1.61k → 1.49k, `serve-hot-restart` 184k → 173k);
/// inlined, they read as before.
#[allow(clippy::too_many_arguments, unsafe_code)]
#[inline(always)]
pub(crate) fn octile_sweep<T: Scalar, E: Copy + Default, K: BaseKernel<E>>(
    wide: Option<Avx512>,
    outer: &[Octile<E>],
    inner: (&[Octile<E>], &[TilePanels<E>]),
    layers: &TileLayers<E>,
    kinds: &KindTable,
    coefficients: &mut Coefficients<'_, T>,
    ctx: PairContext<'_, K>,
    p: &[T],
    y: &mut [T],
) {
    #[cfg(target_arch = "x86_64")]
    if const { sweeps_wide::<E, K>() } && wide.is_some() {
        // SAFETY: the `avx512f` target feature requires only that the CPU
        // has it, and an `Avx512` exists only where `Avx512::detect` found it.
        unsafe { octile_sweep_avx512(outer, inner, layers, kinds, coefficients, ctx, p, y) };
        return;
    }
    // off x86-64 there is no AVX-512 sweep, and `detect` makes no `Avx512`
    #[cfg(not(target_arch = "x86_64"))]
    let _ = wide;
    sweep_inner_layers::<false, _, _, _>(outer, inner, layers, kinds, coefficients, ctx, p, y);
}

/// [`sweep_inner_layers`] compiled with AVX-512F enabled, dense×dense at
/// two inner columns a step, with no per-call detection. FMA is not used:
/// Rust never contracts `a * b + c` on its own, so each lane executes the
/// same multiplies and adds as in the 8-lane sweep. Explicit arguments
/// rather than a closure, as for `dense_dense_blocked_avx2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
fn octile_sweep_avx512<T: Scalar, E: Copy + Default, K: BaseKernel<E>>(
    outer: &[Octile<E>],
    inner: (&[Octile<E>], &[TilePanels<E>]),
    layers: &TileLayers<E>,
    kinds: &KindTable,
    coefficients: &mut Coefficients<'_, T>,
    ctx: PairContext<'_, K>,
    p: &[T],
    y: &mut [T],
) {
    sweep_inner_layers::<true, _, _, _>(outer, inner, layers, kinds, coefficients, ctx, p, y);
}

/// Mixed primitive when the *second* tile is the sparser operand, with the
/// first (outer) tile decoded into `outer` and its packed labels `labels`.
/// The outputs for one sparse nonzero vary over the outer tile's rows with
/// stride `m`, so lanes cannot stay contiguous in `y`. Instead, per nonzero
/// of the inner tile `sp`, the kernel is evaluated over the outer tile's
/// contiguous packed labels, a loop that vectorizes, and each run of decoded
/// entries that share one output row accumulates its terms in a register
/// chain that starts from `y`.
///
/// These are the terms of [`tile_pair_product_scalar`]'s sparse-second
/// dense×sparse loop, in its row-major order, as `((w_s·w_d)·κ)·p`, and a
/// register chain is the same addition sequence as the reference's repeated
/// `y[yi] += …`. An empty slot or an empty row of the outer tile adds
/// nothing there or here. A stored zero weight, which the reference skips,
/// adds an exact `±0.0` here, which changes no `y` that never held `−0.0`
/// (as for dense×dense's empty slots); testing for it cost 15–25 % of this
/// loop at the populations the table routes here. So the bits are the
/// reference's.
#[inline(always)]
fn dense_rows_direct<T: Scalar, E: Copy + Default, K: BaseKernel<E>>(
    outer: &OuterSweep<T, E>,
    labels: &[E],
    sp: &Octile<E>,
    kernel: &K,
    p: &[T],
    y: &mut [T],
) {
    debug_assert_eq!(p.len(), y.len(), "p and y are both length n*m");
    let entries = &outer.entries[..outer.len];
    debug_assert_eq!(labels.len(), entries.len(), "the sweep holds the outer tile");
    let (srow, scol) = (sp.row as usize * TILE_SIZE, sp.col as usize * TILE_SIZE);
    let mut values = [0.0f32; TILE_AREA];
    let values = &mut values[..entries.len()];
    for (si, sj, sw, sl) in sp.iter() {
        for (value, other) in values.iter_mut().zip(labels) {
            *value = kernel.eval(&sl, other);
        }
        let swt = T::from_f32(sw);
        let (gip, gjp) = (srow + si, scol + sj);
        let mut rest = &values[..];
        for row in entries.chunk_by(|a, b| a.0 == b.0) {
            let (row_values, tail) = rest.split_at(row.len());
            rest = tail;
            let yi = row[0].0 + gip;
            let mut acc = y[yi];
            for (&(_, prow1, wdt, _), &value) in row.iter().zip(row_values) {
                acc += ((swt * wdt) * T::from_f32(value)) * p[prow1 + gjp];
            }
            y[yi] = acc;
        }
    }
}

/// Register-blocked dense×dense kernel: the outer tile read from the sweep's
/// decoded nonzeros, the inner tile from its transposed panels, so the inner
/// 8-lane loop runs over the inner tile's local rows (`ip`) — contiguous in
/// the accumulator block and in `y`.
///
/// The decoded nonzeros are row-major, so those of one output row are a run
/// of consecutive entries. Each run accumulates one 8-lane block in the
/// scalar reference's `(j, jp)` order and adds it into `y` once. A stored
/// zero weight is skipped, as the reference skips it (`GraphBuilder` accepts
/// weight 0). The inner tile's empty slots add exact `±0.0` terms to a block
/// that starts at `+0.0`, which change no sum.
///
/// A row of the outer tile with no nonzero adds nothing to `y`, where the
/// reference adds its all-`+0.0` block. That leaves the same bits: `y`
/// starts at `+0.0` and only ever sums, and a sum from `+0.0` never reaches
/// `−0.0`, so `y` holds no `−0.0` that adding `+0.0` would turn into `+0.0`.
///
/// A step covers `COLS` inner columns (`jp`), one or two: `COLS·8` lanes
/// evaluate the kernel over the panel's contiguous column-major slice, then
/// the columns' terms are added into the 8-lane block one column at a time,
/// in `jp` order. So every lane adds the same terms in the same order
/// whatever `COLS` is; only how many kernel evaluations share one vector
/// changes. With an odd number of columns in range (an edge tile), the last
/// one takes a one-column step.
///
/// `#[inline(always)]` so that each caller — the portable and AVX2
/// instantiations at `COLS = 1`, the AVX-512 sweep at `COLS = 2` — compiles
/// this one body under its own target features rather than calling a
/// portable copy.
#[inline(always)]
fn dense_dense_blocked<const COLS: usize, T: Scalar, E: Copy + Default, K: BaseKernel<E>>(
    outer: &OuterSweep<T, E>,
    inner: PaneledTile<'_, E>,
    m: usize,
    kernel: &K,
    p: &[T],
    y: &mut [T],
) {
    debug_assert_eq!(p.len(), y.len(), "p and y are both length n*m");
    let t2 = inner.tile;
    let (row2, col2) = (t2.row as usize * TILE_SIZE, t2.col as usize * TILE_SIZE);
    let ipmax = TILE_SIZE.min(m.saturating_sub(row2));
    let jpmax = TILE_SIZE.min(m.saturating_sub(col2));
    let paired = jpmax - jpmax % COLS;
    let step = COLS * TILE_SIZE;
    let (w2t, w2_last) = inner.panels.weights_t[..jpmax * TILE_SIZE].split_at(paired * TILE_SIZE);
    let (l2t, l2_last) = inner.panels.labels_t[..jpmax * TILE_SIZE].split_at(paired * TILE_SIZE);
    for row in outer.entries[..outer.len].chunk_by(|a, b| a.0 == b.0) {
        let mut acc = [T::ZERO; TILE_SIZE];
        for &(_, prow1, a1t, l1e) in row {
            if a1t == T::ZERO {
                continue;
            }
            let (ps, p_last) = p[prow1 + col2..prow1 + col2 + jpmax].split_at(paired);
            for ((w2, l2), ps) in
                w2t.chunks_exact(step).zip(l2t.chunks_exact(step)).zip(ps.chunks_exact(COLS))
            {
                dense_dense_step::<COLS, _, _, _>(&mut acc, (a1t, &l1e), (w2, l2), ps, kernel);
            }
            if !p_last.is_empty() {
                dense_dense_step::<1, _, _, _>(
                    &mut acc,
                    (a1t, &l1e),
                    (w2_last, l2_last),
                    p_last,
                    kernel,
                );
            }
        }
        let yrow = row[0].0 + row2;
        for (out, &a) in y[yrow..yrow + ipmax].iter_mut().zip(&acc) {
            *out += a;
        }
    }
}

/// One step of [`dense_dense_blocked`] for one outer nonzero `(a1t, l1)`:
/// the coefficients `(a1t·w2)·κ(l1, l2)` of `COLS` inner columns, formed
/// over `COLS·8` contiguous panel slots, then per column `c` the terms
/// `coefficient · ps[c]` added into `acc`, column by column.
#[inline(always)]
fn dense_dense_step<const COLS: usize, T: Scalar, E, K: BaseKernel<E>>(
    acc: &mut [T; TILE_SIZE],
    (a1t, l1): (T, &E),
    (w2, l2): (&[f32], &[E]),
    ps: &[T],
    kernel: &K,
) {
    let mut coefficients = [T::ZERO; 2 * TILE_SIZE];
    let coefficients = &mut coefficients[..COLS * TILE_SIZE];
    for ((c, &w), l) in coefficients.iter_mut().zip(&w2[..COLS * TILE_SIZE]).zip(l2) {
        *c = (a1t * T::from_f32(w)) * T::from_f32(kernel.eval(l1, l));
    }
    for (column, &pc) in coefficients.chunks_exact(TILE_SIZE).zip(&ps[..COLS]) {
        for (a, &c) in acc.iter_mut().zip(column) {
            *a += c * pc;
        }
    }
}

/// The dense×dense primitive as the sweep calls it: the AVX2 instantiation
/// on an x86-64 CPU that has AVX2, the portable one everywhere else.
#[inline]
#[allow(unsafe_code)]
fn dense_dense<T: Scalar, E: Copy + Default, K: BaseKernel<E>>(
    outer: &OuterSweep<T, E>,
    inner: PaneledTile<'_, E>,
    m: usize,
    kernel: &K,
    p: &[T],
    y: &mut [T],
) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: the `avx2` target feature requires only that the CPU has
        // it, which the detection on the line above established.
        unsafe { dense_dense_blocked_avx2(outer, inner, m, kernel, p, y) };
        return;
    }
    dense_dense_blocked::<1, _, _, _>(outer, inner, m, kernel, p, y);
}

/// [`dense_dense_blocked`] compiled with AVX2 enabled: the 8 lanes of the
/// inner loop become one 256-bit operation at `f32` and two at `f64`. FMA
/// is deliberately *not* enabled, so each lane executes the same IEEE-754
/// multiplies and adds as the portable instantiation and the two are
/// bit-identical. Explicit arguments rather than a closure: a closure does
/// not inherit its caller's `target_feature`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dense_dense_blocked_avx2<T: Scalar, E: Copy + Default, K: BaseKernel<E>>(
    outer: &OuterSweep<T, E>,
    inner: PaneledTile<'_, E>,
    m: usize,
    kernel: &K,
    p: &[T],
    y: &mut [T],
) {
    dense_dense_blocked::<1, _, _, _>(outer, inner, m, kernel, p, y);
}

/// The retained scalar reference implementation of the tile-pair product —
/// per-element bitmap walking with `w == 0.0` branches, exactly as the
/// kernels were first written. The bitmap kernels above are proven against
/// it bit-for-bit (unit tests here, property tests in `tests/`); what the
/// bitmap kernels cost per tile pair is the benchmark's
/// `octile_ops.tile_pair_ns.*` rows.
pub fn tile_pair_product_scalar<T: Scalar, E: Copy + Default, K: BaseKernel<E>>(
    kind: TileProductKind,
    t1: &Octile<E>,
    t2: &Octile<E>,
    ctx: PairContext<'_, K>,
    p: &[T],
    y: &mut [T],
    counters: &mut TrafficCounters,
) {
    let PairContext { n, m, kernel, costs } = ctx;
    debug_assert_eq!(p.len(), n * m);
    debug_assert_eq!(y.len(), n * m);
    let row1 = t1.row as usize * TILE_SIZE;
    let col1 = t1.col as usize * TILE_SIZE;
    let row2 = t2.row as usize * TILE_SIZE;
    let col2 = t2.col as usize * TILE_SIZE;
    // tile weight payloads are f32 storage at every vector precision;
    // right-hand-side reads follow the vector scalar
    let fb = costs.float_bytes as u64;
    let eb = costs.label_bytes as u64;
    let vb = T::BYTES;
    let xf = costs.kernel_flops as u64;

    match kind {
        TileProductKind::SparseSparse => {
            for (i, j, w1, l1) in t1.iter() {
                let gi = row1 + i;
                let gj = col1 + j;
                for (ip, jp, w2, l2) in t2.iter() {
                    let gip = row2 + ip;
                    let gjp = col2 + jp;
                    let ke = kernel.eval(&l1, &l2);
                    y[gi * m + gip] +=
                        T::from_f32(w1) * T::from_f32(w2) * T::from_f32(ke) * p[gj * m + gjp];
                }
            }
            let prods = (t1.nnz() * t2.nnz()) as u64;
            counters.flops += prods * xf;
            counters.kernel_evaluations += prods;
            counters.shared_load_bytes += prods * (2 * (fb + eb) + vb);
        }
        TileProductKind::DenseSparse => {
            // iterate the sparser tile's nonzeros, stream the denser tile as
            // a dense block
            let (sparse, dense, sparse_is_first) =
                if t1.nnz() <= t2.nnz() { (t1, t2, true) } else { (t2, t1, false) };
            let dw = dense.expand_weights();
            let dl = dense.expand_labels(E::default());
            counters.shared_store_bytes += (TILE_SIZE * TILE_SIZE) as u64 * (fb + eb);
            let (drow, dcol) = if sparse_is_first { (row2, col2) } else { (row1, col1) };
            let (srow, scol) = if sparse_is_first { (row1, col1) } else { (row2, col2) };
            let dense_rows = if sparse_is_first { m } else { n };
            for (si, sj, sw, sl) in sparse.iter() {
                for di in 0..TILE_SIZE {
                    if drow + di >= dense_rows {
                        break;
                    }
                    for dj in 0..TILE_SIZE {
                        let w2 = dw[di * TILE_SIZE + dj];
                        counters.flops += xf;
                        counters.kernel_evaluations += 1;
                        counters.shared_load_bytes += fb + eb + vb;
                        if w2 == 0.0 {
                            continue;
                        }
                        let ke = kernel.eval(&sl, &dl[di * TILE_SIZE + dj]);
                        let (gi, gj, gip, gjp) = if sparse_is_first {
                            (srow + si, scol + sj, drow + di, dcol + dj)
                        } else {
                            (drow + di, dcol + dj, srow + si, scol + sj)
                        };
                        y[gi * m + gip] +=
                            T::from_f32(sw) * T::from_f32(w2) * T::from_f32(ke) * p[gj * m + gjp];
                    }
                }
            }
        }
        TileProductKind::DenseDense => {
            let w1 = t1.expand_weights();
            let l1 = t1.expand_labels(E::default());
            let w2 = t2.expand_weights();
            let l2 = t2.expand_labels(E::default());
            counters.shared_store_bytes += 2 * (TILE_SIZE * TILE_SIZE) as u64 * (fb + eb);
            let imax = TILE_SIZE.min(n.saturating_sub(row1));
            let jmax = TILE_SIZE.min(n.saturating_sub(col1));
            let ipmax = TILE_SIZE.min(m.saturating_sub(row2));
            let jpmax = TILE_SIZE.min(m.saturating_sub(col2));
            // the GPU kernel always evaluates the full 64x64 block; shared
            // loads follow the tiling-blocking pattern (each row chunk of
            // either tile is staged in registers and reused across the
            // other tile's columns), i.e. ~(E+F)/t + (E+F)/r bytes per term
            counters.flops += (TILE_SIZE * TILE_SIZE * TILE_SIZE * TILE_SIZE) as u64 * xf;
            counters.kernel_evaluations += (TILE_SIZE * TILE_SIZE * TILE_SIZE * TILE_SIZE) as u64;
            counters.shared_load_bytes +=
                (TILE_SIZE * TILE_SIZE * TILE_SIZE * TILE_SIZE) as u64 * (fb + eb) * 2
                    / TILE_SIZE as u64;
            for i in 0..imax {
                for ip in 0..ipmax {
                    let mut acc = T::ZERO;
                    for j in 0..jmax {
                        let a1 = w1[i * TILE_SIZE + j];
                        if a1 == 0.0 {
                            continue;
                        }
                        for jp in 0..jpmax {
                            let a2 = w2[ip * TILE_SIZE + jp];
                            if a2 == 0.0 {
                                continue;
                            }
                            let ke = kernel.eval(&l1[i * TILE_SIZE + j], &l2[ip * TILE_SIZE + jp]);
                            acc += T::from_f32(a1)
                                * T::from_f32(a2)
                                * T::from_f32(ke)
                                * p[(col1 + j) * m + col2 + jp];
                        }
                    }
                    y[(row1 + i) * m + row2 + ip] += acc;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgk_graph::{Graph, GraphBuilder, Unlabeled};
    use mgk_kernels::{KroneckerDelta, SquareExponential, UnitKernel};
    use mgk_tile::OctileMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn costs() -> TileCosts {
        TileCosts { label_bytes: 4, float_bytes: 4, kernel_flops: 11 }
    }

    fn small_graph(seed: u64, n: usize, extra: &[(u32, u32)]) -> Graph<Unlabeled, f32> {
        let mut b: GraphBuilder<Unlabeled, f32> = GraphBuilder::new();
        for _ in 0..n {
            b.add_vertex(Unlabeled);
        }
        for i in 0..n - 1 {
            b.add_edge(i, i + 1, 1.0 + (i as f32) * 0.1, (seed as f32) * 0.01 + i as f32 * 0.2)
                .unwrap();
        }
        for &(u, v) in extra {
            b.add_edge(u as usize, v as usize, 0.5, 1.5).unwrap();
        }
        b.build().unwrap()
    }

    /// Reference: accumulate the full product over dense matrices.
    fn reference(
        g1: &Graph<Unlabeled, f32>,
        g2: &Graph<Unlabeled, f32>,
        kernel: &SquareExponential,
        p: &[f32],
    ) -> Vec<f32> {
        let (n, m) = (g1.num_vertices(), g2.num_vertices());
        let a1 = g1.adjacency_dense();
        let a2 = g2.adjacency_dense();
        let e1 = g1.edge_labels_dense(0.0);
        let e2 = g2.edge_labels_dense(0.0);
        let mut y = vec![0.0f32; n * m];
        for i in 0..n {
            for ip in 0..m {
                let mut acc = 0.0f64;
                for j in 0..n {
                    for jp in 0..m {
                        let w = a1[i * n + j] * a2[ip * m + jp];
                        if w != 0.0 {
                            acc += (w * kernel.eval(&e1[i * n + j], &e2[ip * m + jp])) as f64
                                * p[j * m + jp] as f64;
                        }
                    }
                }
                y[i * m + ip] = acc as f32;
            }
        }
        y
    }

    fn full_product(
        kind_for: impl Fn(usize, usize) -> TileProductKind,
        g1: &Graph<Unlabeled, f32>,
        g2: &Graph<Unlabeled, f32>,
        kernel: &SquareExponential,
        p: &[f32],
    ) -> Vec<f32> {
        let (n, m) = (g1.num_vertices(), g2.num_vertices());
        let t1 = OctileMatrix::from_graph(g1);
        let t2 = OctileMatrix::from_graph(g2);
        let mut y = vec![0.0f32; n * m];
        let mut c = TrafficCounters::new();
        for a in t1.tiles() {
            for b in t2.tiles() {
                let kind = kind_for(a.nnz(), b.nnz());
                tile_pair_product(kind, a, b, n, m, kernel, &costs(), p, &mut y, &mut c);
            }
        }
        y
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol * (1.0 + y.abs()), "mismatch at {k}: {x} vs {y}");
        }
    }

    #[test]
    fn all_three_primitives_match_the_dense_reference() {
        let g1 = small_graph(1, 19, &[(0, 10), (3, 15)]);
        let g2 = small_graph(2, 13, &[(1, 9)]);
        let kernel = SquareExponential::new(1.0);
        let p: Vec<f32> = (0..19 * 13).map(|k| ((k % 11) as f32) * 0.1 - 0.3).collect();
        let expect = reference(&g1, &g2, &kernel, &p);
        for kind in [
            TileProductKind::DenseDense,
            TileProductKind::DenseSparse,
            TileProductKind::SparseSparse,
        ] {
            let y = full_product(|_, _| kind, &g1, &g2, &kernel, &p);
            assert_close(&y, &expect, 1e-4);
        }
    }

    #[test]
    fn adaptive_selection_matches_reference() {
        let g1 = small_graph(3, 25, &[(0, 20), (5, 17), (2, 11)]);
        let g2 = small_graph(4, 9, &[]);
        let kernel = SquareExponential::new(0.5);
        let p: Vec<f32> = (0..25 * 9).map(|k| ((k * 13 % 17) as f32) * 0.05).collect();
        let expect = reference(&g1, &g2, &kernel, &p);
        let flops = mgk_kernels::BaseKernel::<f32>::cost(&kernel).flops;
        let table = KindTable::new(flops);
        let y = full_product(|n1, n2| table.get(n1, n2), &g1, &g2, &kernel, &p);
        assert_close(&y, &expect, 1e-4);
    }

    #[test]
    fn octile_pair_closed_forms_scale_with_population() {
        let ss =
            octile_pair_traffic(OctilePairShape::SparseSparse { nnz1: 3, nnz2: 5 }, 4, 4, 4, 11);
        assert_eq!(ss.kernel_evaluations, 15);
        assert_eq!(ss.flops, 15 * 11);
        assert_eq!(ss.shared_load_bytes, 15 * (2 * 8 + 4));
        assert_eq!(ss.shared_store_bytes, 0);

        let ds = octile_pair_traffic(
            OctilePairShape::DenseSparse { nnz_sparse: 4, rows_in_range: 6 },
            4,
            4,
            8,
            11,
        );
        assert_eq!(ds.kernel_evaluations, 4 * 6 * 8);
        assert_eq!(ds.flops, 4 * 6 * 8 * 11);
        assert_eq!(ds.shared_load_bytes, 4 * 6 * 8 * (4 + 4 + 8));
        assert_eq!(ds.shared_store_bytes, 64 * 8);

        let dd = octile_pair_traffic(OctilePairShape::DenseDense, 0, 4, 4, 3);
        assert_eq!(dd.kernel_evaluations, 4096);
        assert_eq!(dd.flops, 4096 * 3);
        assert_eq!(dd.shared_load_bytes, 4096 * 4 * 2 / 8);
        assert_eq!(dd.shared_store_bytes, 2 * 64 * 4);
    }

    #[test]
    fn kind_table_follows_the_cpu_fit() {
        for flops in [1, 3, 4, 11, 40] {
            let table = KindTable::new(flops);
            assert_eq!(table, KindTable::new(flops), "two builds differ at X = {flops}");
            // where dense×sparse is the sparse×sparse call, the tie goes to
            // sparse×sparse
            for n1 in 0..=TILE_AREA {
                for n2 in n1..=TILE_AREA {
                    assert_ne!(table.get(n1, n2), TileProductKind::DenseSparse, "({n1}, {n2})");
                }
            }
        }
        // cells the timing grid measured
        let (unit, se) = (KindTable::new(3), KindTable::new(11));
        for (n1, n2) in [(8, 12), (10, 10), (12, 6)] {
            assert_eq!(unit.get(n1, n2), TileProductKind::DenseDense, "unit ({n1}, {n2})");
        }
        for (n1, n2) in [(1, 6), (6, 4), (6, 6)] {
            assert_eq!(unit.get(n1, n2), TileProductKind::SparseSparse, "unit ({n1}, {n2})");
        }
        assert_eq!(se.get(48, 4), TileProductKind::DenseSparse);
        assert_eq!(se.get(4, 4), TileProductKind::SparseSparse);
    }

    /// Run the full tile-pair sweep through either the bitmap kernels or
    /// the scalar reference, returning the output and the traffic totals.
    fn sweep<T: Scalar, K: BaseKernel<f32> + Copy>(
        scalar_reference: bool,
        kind_for: impl Fn(usize, usize) -> TileProductKind,
        g1: &Graph<Unlabeled, f32>,
        g2: &Graph<Unlabeled, f32>,
        kernel: &K,
        p: &[T],
    ) -> (Vec<T>, TrafficCounters) {
        let (n, m) = (g1.num_vertices(), g2.num_vertices());
        let t1 = OctileMatrix::from_graph(g1);
        let t2 = OctileMatrix::from_graph(g2);
        let costs = costs();
        let ctx = PairContext { n, m, kernel, costs: &costs };
        let mut y = vec![T::ZERO; n * m];
        let mut c = TrafficCounters::new();
        for a in t1.tiles() {
            for b in t2.tiles() {
                let kind = kind_for(a.nnz(), b.nnz());
                if scalar_reference {
                    tile_pair_product_scalar(kind, a, b, ctx, p, &mut y, &mut c);
                } else {
                    tile_pair_product(kind, a, b, n, m, kernel, &costs, p, &mut y, &mut c);
                }
            }
        }
        (y, c)
    }

    /// Exact bitwise equality (distinguishing `±0.0`), via the exact
    /// widening to `f64`.
    fn bitwise_equal<T: Scalar>(a: &[T], b: &[T]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| x.to_f64().to_bits() == y.to_f64().to_bits())
    }

    #[test]
    fn bitmap_kernels_match_scalar_reference_bitwise() {
        // edge tiles: neither 19, 13, 25 nor 9 is a multiple of 8
        let pairs = [
            (small_graph(1, 19, &[(0, 10), (3, 15)]), small_graph(2, 13, &[(1, 9)])),
            (small_graph(3, 25, &[(0, 20), (5, 17), (2, 11)]), small_graph(4, 9, &[])),
        ];
        let kernel = SquareExponential::new(0.8);
        for (g1, g2) in &pairs {
            let nm = g1.num_vertices() * g2.num_vertices();
            let p32: Vec<f32> = (0..nm).map(|k| ((k % 11) as f32) * 0.1 - 0.3).collect();
            let p64: Vec<f64> = p32.iter().map(|&v| v as f64).collect();
            for kind in [
                TileProductKind::DenseDense,
                TileProductKind::DenseSparse,
                TileProductKind::SparseSparse,
            ] {
                let (y_new, _) = sweep(false, |_, _| kind, g1, g2, &kernel, &p32);
                let (y_ref, _) = sweep(true, |_, _| kind, g1, g2, &kernel, &p32);
                assert!(
                    bitwise_equal(&y_new, &y_ref),
                    "{} differs from the scalar reference at f32",
                    kind.name()
                );
                let (d_new, _) = sweep(false, |_, _| kind, g1, g2, &kernel, &p64);
                let (d_ref, _) = sweep(true, |_, _| kind, g1, g2, &kernel, &p64);
                assert!(
                    bitwise_equal(&d_new, &d_ref),
                    "{} differs from the scalar reference at f64",
                    kind.name()
                );
            }
            // and under the adaptive table, as the operator runs it
            let table = KindTable::new(costs().kernel_flops);
            let (y_new, _) = sweep(false, |a, b| table.get(a, b), g1, g2, &kernel, &p32);
            let (y_ref, _) = sweep(true, |a, b| table.get(a, b), g1, g2, &kernel, &p32);
            assert!(bitwise_equal(&y_new, &y_ref));
        }
    }

    /// Sweep every tile pair of `g1 × g2` through the portable dense×dense
    /// body at one and at two inner columns a step and through the
    /// dispatcher — the AVX2 instantiation where the CPU has it — each called
    /// directly, then all three primitives (so dense-rows and the packed
    /// sparse×sparse loop) through the public entry and through the
    /// operator's sweep with every tile pair forced to that primitive, 8
    /// lanes wide and, where the CPU has AVX-512F, 16, and compare each bit
    /// for bit with the scalar reference.
    fn instantiations_and_fills_agree<T: Scalar, K: BaseKernel<f32> + Copy>(
        g1: &Graph<Unlabeled, f32>,
        g2: &Graph<Unlabeled, f32>,
        kernel: &K,
        p: &[T],
    ) {
        let (n, m) = (g1.num_vertices(), g2.num_vertices());
        let t1 = OctileMatrix::from_graph(g1);
        let t2 = OctileMatrix::from_graph(g2);
        let panels: Vec<_> = t2.tiles().iter().map(TilePanels::new).collect();
        let mut y_portable = vec![T::ZERO; n * m];
        let mut y_paired = y_portable.clone();
        let mut y_dispatched = y_portable.clone();
        let mut outer = OuterSweep::new();
        for a in t1.tiles() {
            outer.decode(a, m);
            for (b, pb) in t2.tiles().iter().zip(&panels) {
                let s2 = PaneledTile { tile: b, panels: pb };
                dense_dense_blocked::<1, _, _, _>(&outer, s2, m, kernel, p, &mut y_portable);
                dense_dense_blocked::<2, _, _, _>(&outer, s2, m, kernel, p, &mut y_paired);
                dense_dense(&outer, s2, m, kernel, p, &mut y_dispatched);
            }
        }
        let layers = TileLayers::new(t2.tiles());
        let costs = costs();
        let ctx = PairContext { n, m, kernel, costs: &costs };
        for kind in [
            TileProductKind::DenseDense,
            TileProductKind::DenseSparse,
            TileProductKind::SparseSparse,
        ] {
            let (y_ref, _) = sweep(true, |_, _| kind, g1, g2, kernel, p);
            let (y_new, _) = sweep(false, |_, _| kind, g1, g2, kernel, p);
            assert!(bitwise_equal(&y_new, &y_ref), "{} differs from the reference", kind.name());
            if kind == TileProductKind::DenseDense {
                assert!(bitwise_equal(&y_portable, &y_ref), "portable body differs");
                assert!(bitwise_equal(&y_paired, &y_ref), "two-column body differs");
                assert!(bitwise_equal(&y_dispatched, &y_ref), "dispatched body differs");
            }
            let forced = KindTable { kinds: [[kind; TILE_AREA + 1]; TILE_AREA + 1] };
            for wide in [None, Avx512::detect()] {
                let mut y = vec![T::ZERO; n * m];
                let inner = (t2.tiles(), &panels[..]);
                let form = &mut Coefficients::Form;
                octile_sweep(wide, t1.tiles(), inner, &layers, &forced, form, ctx, p, &mut y);
                let width = if wide.is_some() { 16 } else { 8 };
                assert!(bitwise_equal(&y, &y_ref), "{}, {width}-lane sweep differs", kind.name());
            }
        }
    }

    #[test]
    fn both_instantiations_and_the_packed_fill_match_scalar_reference_bitwise() {
        // vertex 3's only edge leaves the first tile: row 3 of tile (0, 0)
        // is all zero, the row the blocked kernel skips
        let empty_row = {
            let mut b: GraphBuilder<Unlabeled, f32> = GraphBuilder::new();
            for _ in 0..12 {
                b.add_vertex(Unlabeled);
            }
            for i in (0..11).filter(|i| ![2, 3].contains(i)) {
                b.add_edge(i, i + 1, 1.0 + i as f32 * 0.1, i as f32 * 0.2).unwrap();
            }
            b.add_edge(2, 4, 0.7, 0.9).unwrap();
            b.add_edge(3, 10, 0.5, 1.5).unwrap();
            b.build().unwrap()
        };
        assert_eq!(OctileMatrix::from_graph(&empty_row).tiles()[0].row_masks()[3], 0);
        // the corners of the walk over an outer tile's decoded nonzeros:
        // tile (0, 0) stores the 0.0-weight edge (5, 6) between two nonzeros
        // of row 5 and the edge (5, 7) in column 7, tile (0, 1) holds vertex
        // 7's edges to 8, 11 and 14, all in its last row, and tile (2, 0)
        // holds only the edge (17, 7), at column 7 of its row 1
        let corners = {
            let mut b: GraphBuilder<Unlabeled, f32> = GraphBuilder::new();
            for _ in 0..20 {
                b.add_vertex(Unlabeled);
            }
            for (u, v) in [(0, 1), (1, 2), (2, 3), (4, 5), (8, 9), (9, 10), (12, 13), (16, 18)] {
                b.add_edge(u, v, 0.6 + u as f32 * 0.1, u as f32 * 0.3).unwrap();
            }
            b.add_edge(5, 6, 0.0, 0.4).unwrap();
            b.add_edge(5, 7, 0.9, 0.7).unwrap();
            for v in [8, 11, 14, 17] {
                b.add_edge(7, v, 1.1, v as f32 * 0.2).unwrap();
            }
            b.build().unwrap()
        };
        let corner_tiles = OctileMatrix::from_graph(&corners);
        let tile =
            |row, col| corner_tiles.tiles().iter().find(|t| (t.row, t.col) == (row, col)).unwrap();
        const COLUMN_7: u64 = 0x8080_8080_8080_8080;
        assert!(tile(0, 0).weights.contains(&0.0));
        assert_ne!(tile(0, 0).mask & COLUMN_7, 0);
        assert_eq!(tile(0, 1).row_masks()[..TILE_SIZE - 1], [0; TILE_SIZE - 1]);
        assert_eq!(tile(2, 0).mask, 1 << (TILE_SIZE + 7));
        // forced dense×sparse runs dense-rows on tiles (0, 0) and (0, 1) as
        // outer tiles: the partner below has a sparser tile than either
        let partner = small_graph(6, 13, &[(2, 9)]);
        let partner_tiles = OctileMatrix::from_graph(&partner);
        let sparsest = partner_tiles.tiles().iter().map(Octile::nnz).min().unwrap();
        assert!(tile(0, 0).nnz() > sparsest && tile(0, 1).nnz() > sparsest);
        // edge tiles: neither 19, 13, 25, 9, 12 nor 20 is a multiple of 8,
        // and 13 and 9 leave an inner edge tile 5 and 1 columns, so the
        // two-column step ends on a one-column step; the 0.0 weight is an
        // outer nonzero in the fourth pair and an inner one in the fifth;
        // the last pair is dense enough that inner rows hold nonzeros in
        // both columns of a two-column step, so the order in which the step
        // adds its columns shows in the bits
        let mut rng = StdRng::seed_from_u64(50);
        let pairs = [
            (small_graph(1, 19, &[(0, 10), (3, 15)]), small_graph(2, 13, &[(1, 9)])),
            (small_graph(3, 25, &[(0, 20), (5, 17), (2, 11)]), small_graph(4, 9, &[])),
            (empty_row, small_graph(5, 13, &[(2, 7)])),
            (corners.clone(), partner),
            (small_graph(7, 12, &[(1, 10)]), corners),
            (random_graph(&mut rng, 0.6), random_graph(&mut rng, 0.6)),
        ];
        for (g1, g2) in &pairs {
            let nm = g1.num_vertices() * g2.num_vertices();
            let p32: Vec<f32> = (0..nm).map(|k| ((k % 11) as f32) * 0.1 - 0.3).collect();
            let p64: Vec<f64> = p32.iter().map(|&v| v as f64).collect();
            let se = SquareExponential::new(0.8);
            let kd = KroneckerDelta::new(0.25);
            instantiations_and_fills_agree(g1, g2, &se, &p32);
            instantiations_and_fills_agree(g1, g2, &se, &p64);
            instantiations_and_fills_agree(g1, g2, &kd, &p32);
            instantiations_and_fills_agree(g1, g2, &kd, &p64);
            instantiations_and_fills_agree(g1, g2, &UnitKernel, &p32);
            instantiations_and_fills_agree(g1, g2, &UnitKernel, &p64);
        }
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        if !avx2 {
            println!("avx2 not detected, instantiation skipped");
        }
        if Avx512::detect().is_none() {
            println!("avx512f not detected, 16-lane sweep skipped");
        }
    }

    /// A random graph of 13–29 vertices at edge probability `prob`, with
    /// weights in `[0.1, 2)` and integer labels `0..4`, so the Kronecker
    /// delta both matches and misses.
    fn random_graph(rng: &mut StdRng, prob: f64) -> Graph<Unlabeled, f32> {
        let n = rng.gen_range(13..30usize);
        let mut b: GraphBuilder<Unlabeled, f32> = GraphBuilder::new();
        for _ in 0..n {
            b.add_vertex(Unlabeled);
        }
        for u in 0..n {
            for v in u + 1..n {
                if rng.gen_bool(prob) {
                    let label = rng.gen_range(0..4u8) as f32;
                    b.add_edge(u, v, rng.gen_range(0.1..2.0f32), label).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    /// One forced-`kind` sweep of `g1 × g2` through the public entry, bit for
    /// bit against the scalar reference.
    fn matches_reference<T: Scalar, K: BaseKernel<f32> + Copy>(
        kind: TileProductKind,
        g1: &Graph<Unlabeled, f32>,
        g2: &Graph<Unlabeled, f32>,
        kernel: &K,
        p: &[T],
    ) -> bool {
        let (y_new, _) = sweep(false, |_, _| kind, g1, g2, kernel, p);
        let (y_ref, _) = sweep(true, |_, _| kind, g1, g2, kernel, p);
        bitwise_equal(&y_new, &y_ref)
    }

    #[test]
    fn packed_sparse_loop_matches_scalar_reference_bitwise_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(31);
        let graphs: Vec<_> =
            (1..=9).map(|tenths| random_graph(&mut rng, tenths as f64 / 10.0)).collect();
        let populations: Vec<usize> = graphs
            .iter()
            .flat_map(|g| {
                OctileMatrix::from_graph(g).tiles().iter().map(|t| t.nnz()).collect::<Vec<_>>()
            })
            .collect();
        assert!(populations.contains(&1) && populations.iter().any(|&nnz| nnz >= 48));
        let (se, kd) = (SquareExponential::new(0.8), KroneckerDelta::new(0.25));
        for pair in graphs.windows(2) {
            // both operand orders: the sparser tile is the first one in some
            // tile pairs and the second one in others
            for (g1, g2) in [(&pair[0], &pair[1]), (&pair[1], &pair[0])] {
                let nm = g1.num_vertices() * g2.num_vertices();
                let p32: Vec<f32> = (0..nm).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
                let p64: Vec<f64> = p32.iter().map(|&v| v as f64).collect();
                for kind in [TileProductKind::SparseSparse, TileProductKind::DenseSparse] {
                    let name = kind.name();
                    assert!(matches_reference(kind, g1, g2, &se, &p32), "{name}, f32, se");
                    assert!(matches_reference(kind, g1, g2, &se, &p64), "{name}, f64, se");
                    assert!(matches_reference(kind, g1, g2, &kd, &p32), "{name}, f32, delta");
                    assert!(matches_reference(kind, g1, g2, &kd, &p64), "{name}, f64, delta");
                }
            }
        }
    }

    #[test]
    fn layers_hold_each_tile_once_by_row_position_and_rebuild_the_matrix() {
        let mut rng = StdRng::seed_from_u64(34);
        let mut graphs: Vec<_> =
            (1..=9).map(|tenths| random_graph(&mut rng, tenths as f64 / 10.0)).collect();
        graphs.push(small_graph(1, 1, &[]));
        for g in &graphs {
            let matrix = OctileMatrix::from_graph(g);
            let tiles = matrix.tiles();
            let index = TileLayers::new(tiles);
            let mut layers_of = vec![0; tiles.len()];
            for &k in &index.tiles {
                layers_of[k] += 1;
            }
            assert!(layers_of.iter().all(|&count| count == 1), "a tile is not in one layer");
            let position = |k: usize| tiles[..k].iter().filter(|t| t.row == tiles[k].row).count();
            for (layer, slots) in index.layers.windows(2).enumerate() {
                let members = &index.tiles[slots[0]..slots[1]];
                assert!(
                    members.windows(2).all(|w| tiles[w[0]].row < tiles[w[1]].row),
                    "layer {layer} repeats a tile row"
                );
                assert!(members.iter().all(|&k| position(k) == layer), "layer {layer}");
                let deep_enough = (0..tiles.len()).filter(|&k| position(k) == layer).count();
                assert_eq!(members.len(), deep_enough, "layer {layer} misses a row");
            }
            let n = matrix.dim();
            let (mut weights, mut labels) = (vec![0.0f32; n * n], vec![0.0f32; n * n]);
            assert_eq!(index.offsets.len(), index.tiles.len() + 1);
            for (slot, &k) in index.tiles.iter().enumerate() {
                let nonzeros = index.offsets[slot]..index.offsets[slot + 1];
                assert_eq!(nonzeros.len(), tiles[k].nnz());
                for e in nonzeros {
                    let (i, j) = (index.rows[e] as usize, index.cols[e] as usize);
                    let tile = (tiles[k].row as usize, tiles[k].col as usize);
                    assert_eq!((i / TILE_SIZE, j / TILE_SIZE), tile, "a nonzero outside its tile");
                    weights[i * n + j] = index.weights[e];
                    labels[i * n + j] = index.labels[e];
                }
            }
            assert_eq!(weights, matrix.to_dense_weights());
            assert_eq!(labels, g.edge_labels_dense(0.0));
        }
    }

    #[test]
    fn closed_form_counters_match_scalar_reference_totals() {
        // the DenseSparse branch in particular counted per element in the
        // scalar reference; the bitmap kernels attribute per-tile-pair
        // closed forms — totals must be identical for identical work
        let g1 = small_graph(1, 19, &[(0, 10), (3, 15), (2, 12)]);
        let g2 = small_graph(2, 13, &[(1, 9), (0, 11)]);
        let kernel = SquareExponential::new(1.0);
        let p: Vec<f32> = (0..19 * 13).map(|k| ((k % 7) as f32) * 0.2 - 0.5).collect();
        let table = KindTable::new(costs().kernel_flops);
        for kind_for in [
            Box::new(|_, _| TileProductKind::DenseDense) as Box<dyn Fn(usize, usize) -> _>,
            Box::new(|_, _| TileProductKind::DenseSparse),
            Box::new(|_, _| TileProductKind::SparseSparse),
            Box::new(move |a, b| table.get(a, b)),
        ] {
            let (_, c_new) = sweep(false, &kind_for, &g1, &g2, &kernel, &p);
            let (_, c_ref) = sweep(true, &kind_for, &g1, &g2, &kernel, &p);
            assert_eq!(c_new, c_ref, "traffic totals diverge from the scalar reference");
        }
    }

    #[test]
    fn sparse_sparse_counts_fewer_flops_on_sparse_tiles() {
        let g1 = small_graph(5, 8, &[]);
        let g2 = small_graph(6, 8, &[]);
        let kernel = SquareExponential::new(1.0);
        let p = vec![1.0f32; 64];
        let t1 = OctileMatrix::from_graph(&g1);
        let t2 = OctileMatrix::from_graph(&g2);
        let (a, b) = (&t1.tiles()[0], &t2.tiles()[0]);
        let mut y = vec![0.0f32; 64];
        let mut dense_c = TrafficCounters::new();
        tile_pair_product(
            TileProductKind::DenseDense,
            a,
            b,
            8,
            8,
            &kernel,
            &costs(),
            &p,
            &mut y,
            &mut dense_c,
        );
        let mut sparse_c = TrafficCounters::new();
        let mut y2 = vec![0.0f32; 64];
        tile_pair_product(
            TileProductKind::SparseSparse,
            a,
            b,
            8,
            8,
            &kernel,
            &costs(),
            &p,
            &mut y2,
            &mut sparse_c,
        );
        assert!(sparse_c.flops < dense_c.flops / 5);
        assert_close(&y, &y2, 1e-5);
    }

    #[test]
    fn dense_sparse_handles_either_operand_being_sparser() {
        // t1 much denser than t2 and vice versa
        let dense_edges: Vec<(u32, u32)> =
            (0..8u32).flat_map(|i| ((i + 1)..8).map(move |j| (i, j))).collect();
        let g_dense = {
            let mut b: GraphBuilder<Unlabeled, f32> = GraphBuilder::new();
            for _ in 0..8 {
                b.add_vertex(Unlabeled);
            }
            for &(u, v) in &dense_edges {
                b.add_edge(u as usize, v as usize, 1.0, 0.3).unwrap();
            }
            b.build().unwrap()
        };
        let g_sparse = small_graph(7, 8, &[]);
        let kernel = SquareExponential::new(1.0);
        let p: Vec<f32> = (0..64).map(|k| (k % 5) as f32 * 0.2).collect();
        for (ga, gb) in [(&g_dense, &g_sparse), (&g_sparse, &g_dense)] {
            let expect = reference(ga, gb, &kernel, &p);
            let y = full_product(|_, _| TileProductKind::DenseSparse, ga, gb, &kernel, &p);
            assert_close(&y, &expect, 1e-4);
        }
    }
}
