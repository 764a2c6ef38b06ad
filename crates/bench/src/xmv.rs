//! Dense on-the-fly Kronecker-product matrix-vector (XMV) primitives —
//! Section III of the paper.
//!
//! All primitives compute the off-diagonal part of the tensor-product
//! system applied to a vector,
//!
//! ```text
//! y_{ii'} = Σ_{j,j'} A_ij · A'_i'j' · κ_e(E_ij, E'_i'j') · p_{jj'}
//! ```
//!
//! treating both graphs as dense. They differ in how they stream and stage
//! the operands — which is invisible to the result but determines the
//! memory traffic. Each primitive reproduces the loop structure of its
//! pseudocode in Appendix C and increments a [`TrafficCounters`] with the
//! same load/store/operation accounting, so that the measured traffic can
//! be compared against the closed forms of Table I, which sit beside them
//! ([`XmvPrimitive::modeled_traffic`], [`NaiveProduct::modeled_traffic`]).
//!
//! On the CPU the role of "shared memory" is played by the cache-resident
//! tile copies; the traffic categories retain the GPU meaning for the cost
//! model.

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
use mgk_kernels::BaseKernel;
use mgk_linalg::{Scalar, TrafficCounters};

/// Bytes of one stored `f32` operand element (adjacency weights, edge
/// labels' float payloads, materialized product entries): matrix storage
/// stays single-precision at every vector precision of the [`Scalar`]
/// axis, so operand traffic is always counted at 4 bytes while vector
/// (right-hand-side / output) traffic follows [`Scalar::BYTES`].
const STORED_F32_BYTES: u64 = 4;

/// Dense operand data for one graph pair: row-major adjacency and
/// edge-label matrices of both graphs.
#[derive(Debug, Clone)]
pub struct DensePairData<E> {
    n: usize,
    m: usize,
    a1: Vec<f32>,
    a2: Vec<f32>,
    e1: Vec<E>,
    e2: Vec<E>,
    label_bytes: usize,
    kernel_flops: usize,
}

impl<E: Copy + Default> DensePairData<E> {
    /// Densify a pair of graphs. `kernel` supplies the cost metadata used
    /// for traffic accounting.
    pub fn new<V1, V2, K: BaseKernel<E>>(g1: &Graph<V1, E>, g2: &Graph<V2, E>, kernel: &K) -> Self {
        let cost = kernel.cost();
        DensePairData {
            n: g1.num_vertices(),
            m: g2.num_vertices(),
            a1: g1.adjacency_dense(),
            a2: g2.adjacency_dense(),
            e1: g1.edge_labels_dense(E::default()),
            e2: g2.edge_labels_dense(E::default()),
            label_bytes: cost.label_bytes,
            kernel_flops: cost.flops,
        }
    }

    /// Number of vertices of the first graph.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of vertices of the second graph.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Dimension of the tensor-product system, `n · m`.
    pub fn product_dim(&self) -> usize {
        self.n * self.m
    }
}

/// The problem shape and cost-model constants of one XMV invocation on a
/// pair of dense (fully connected) graphs — the inputs of the Table I /
/// Appendix C closed forms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProblemShape {
    /// Number of nodes of the first graph.
    pub n: usize,
    /// Number of nodes of the second graph.
    pub m: usize,
    /// Byte size of an edge label (`E`).
    pub edge_label_bytes: usize,
    /// Byte size of an edge weight / floating point number (`F`).
    pub float_bytes: usize,
    /// FLOPs per base-kernel evaluation (`X`).
    pub kernel_flops: usize,
}

impl ProblemShape {
    /// The unlabeled model problem of Section II-D: `E = 0`, `F = 4`,
    /// `X = 3`.
    pub fn unlabeled(n: usize, m: usize) -> Self {
        ProblemShape { n, m, edge_label_bytes: 0, float_bytes: 4, kernel_flops: 3 }
    }

    /// A labeled problem with 4-byte edge labels and a square-exponential
    /// edge kernel.
    pub fn labeled_f32(n: usize, m: usize, kernel_flops: usize) -> Self {
        ProblemShape { n, m, edge_label_bytes: 4, float_bytes: 4, kernel_flops }
    }

    /// `n`, `m`, `E`, `F` and `X` as floats.
    fn terms(&self) -> [f64; 5] {
        [self.n, self.m, self.edge_label_bytes, self.float_bytes, self.kernel_flops]
            .map(|v| v as f64)
    }
}

/// Counters from the closed-form terms of one XMV, rounded to whole bytes
/// and operations.
fn modeled(ops: f64, ld_g: f64, st_g: f64, ld_s: f64, st_s: f64, evals: f64) -> TrafficCounters {
    TrafficCounters {
        global_load_bytes: ld_g.round() as u64,
        global_store_bytes: st_g.round() as u64,
        shared_load_bytes: ld_s.round() as u64,
        shared_store_bytes: st_s.round() as u64,
        flops: ops.round() as u64,
        kernel_evaluations: evals.round() as u64,
    }
}

/// The three on-the-fly XMV primitives of Section III.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XmvPrimitive {
    /// Shared tiling with `t × r` tiles staged in shared memory
    /// (Section III-A).
    SharedTiling {
        /// Tile height.
        t: usize,
        /// Streamed chunk width.
        r: usize,
    },
    /// Register blocking with length-`r` chunks per thread
    /// (Section III-B).
    RegisterBlocking {
        /// Tile height.
        t: usize,
        /// Register chunk length.
        r: usize,
    },
    /// Shared `t × t` tiles re-staged in length-`r` register chunks
    /// (Section III-C). With `t = r = 8` this is the production octile
    /// primitive.
    TilingBlocking {
        /// Square tile size.
        t: usize,
        /// Register chunk length.
        r: usize,
    },
}

impl XmvPrimitive {
    /// The production configuration chosen in Section III-D: 8×8 tiles with
    /// 8-element register chunks.
    pub const OCTILE: XmvPrimitive = XmvPrimitive::TilingBlocking { t: 8, r: 8 };

    /// Display name.
    pub fn name(self) -> String {
        match self {
            XmvPrimitive::SharedTiling { t, r } => format!("shared-tiling({t},{r})"),
            XmvPrimitive::RegisterBlocking { t, r } => format!("register-blocking({t},{r})"),
            XmvPrimitive::TilingBlocking { t, r } => format!("tiling-blocking({t},{r})"),
        }
    }

    /// The Table I / Appendix C closed forms of this primitive: the traffic
    /// of one XMV (one CG iteration) on a dense graph pair of `shape`.
    pub fn modeled_traffic(self, shape: &ProblemShape) -> TrafficCounters {
        let [n, m, e, f, x] = shape.terms();
        let (n2m2, n2m, nm) = (n * n * m * m, n * n * m, n * m);
        // both graphs' chunks and the right-hand side, streamed from global
        // memory
        let streamed = |t: f64, r: f64| {
            n2m * f / t + n2m * e / t + n2m2 * f / (r * t) + n2m2 * e / (r * t) + n2m2 * f / (t * t)
        };
        let (ld_g, ld_s, st_s) = match self {
            XmvPrimitive::SharedTiling { t, r } => {
                let (t, r) = (t as f64, r as f64);
                let ld_g = streamed(t, r);
                // every streamed element is staged in shared memory
                (ld_g, n2m2 * (e + f) / r + n2m2 * f + n2m2 * e + n2m2 * f, ld_g)
            }
            XmvPrimitive::RegisterBlocking { t, r } => {
                let (t, r) = (t as f64, r as f64);
                // only the right-hand side chunk is staged
                (streamed(t, r), n2m2 * f, n2m2 * f / (t * t))
            }
            XmvPrimitive::TilingBlocking { t, r } => {
                let (t, r) = (t as f64, r as f64);
                let st_s = n2m * f / t + n2m * e / t + n2m2 * f / (t * t) + n2m2 * e / (t * t);
                let ld_s = n2m2 * f / t + n2m2 * e / t + n2m2 * f / r + n2m2 * e / r;
                (streamed(t, t), ld_s, st_s)
            }
        };
        modeled(n2m2 * x, ld_g, nm * f, ld_s, st_s, n2m2)
    }

    /// Asymptotic arithmetic intensity with respect to *global* memory (the
    /// "A.I. Global" row of Table I), in FLOPs per byte, for `e`-byte edge
    /// labels, `f`-byte floats and `x` FLOPs per kernel evaluation.
    pub fn asymptotic_ai_global(self, e: f64, f: f64, x: f64) -> f64 {
        match self {
            XmvPrimitive::SharedTiling { t, r } | XmvPrimitive::RegisterBlocking { t, r } => {
                let (t, r) = (t as f64, r as f64);
                t * t * x / (t / r * e + (1.0 + t / r) * f)
            }
            XmvPrimitive::TilingBlocking { t, .. } => {
                let t = t as f64;
                t * t * x / (e + 2.0 * f)
            }
        }
    }

    /// Asymptotic arithmetic intensity with respect to *shared* memory (the
    /// "A.I. Shared" row of Table I).
    pub fn asymptotic_ai_shared(self, e: f64, f: f64, x: f64) -> f64 {
        match self {
            XmvPrimitive::SharedTiling { r, .. } => {
                let r = r as f64;
                x / ((1.0 + 1.0 / r) * e + (2.0 + 1.0 / r) * f)
            }
            XmvPrimitive::RegisterBlocking { t, .. } => {
                let t = t as f64;
                x / ((1.0 + 1.0 / (t * t)) * f)
            }
            XmvPrimitive::TilingBlocking { t, r } => {
                let (t, r) = (t as f64, r as f64);
                x / ((1.0 / r + 1.0 / t) * e + (1.0 / r + 1.0 / t) * f)
            }
        }
    }

    /// Apply the primitive: `y ← (A ⊗ A') ∘ (E κ⊗ E') · p`, accumulating
    /// memory traffic into `counters`. Generic over the vector [`Scalar`]:
    /// the `f32`-stored operands are widened factor-wise, so the `f64`
    /// instantiation streams the exact products while the `f32` one keeps
    /// the single-precision arithmetic (with `f64` accumulation) of the
    /// paper's kernels.
    pub fn apply<T: Scalar, E: Copy + Default, K: BaseKernel<E>>(
        self,
        data: &DensePairData<E>,
        kernel: &K,
        p: &[T],
        y: &mut [T],
        counters: &mut TrafficCounters,
    ) {
        assert_eq!(p.len(), data.product_dim(), "right-hand side has wrong length");
        assert_eq!(y.len(), data.product_dim(), "output vector has wrong length");
        match self {
            XmvPrimitive::SharedTiling { t, r } => {
                shared_tiling(data, kernel, p, y, t, r, counters)
            }
            XmvPrimitive::RegisterBlocking { t, r } => {
                register_blocking(data, kernel, p, y, t, r, counters)
            }
            XmvPrimitive::TilingBlocking { t, r } => {
                tiling_blocking(data, kernel, p, y, t, r, counters)
            }
        }
    }
}

/// The naive primitive of Section II-D: the product matrix
/// `L× = (A ⊗ A') ∘ (E κ⊗ E')` is materialized once and re-read from
/// global memory on every application.
#[derive(Debug, Clone)]
pub struct NaiveProduct {
    nm: usize,
    l: Vec<f32>,
}

impl NaiveProduct {
    /// Materialize the product matrix (`(n·m)²` elements — the storage
    /// blow-up the paper's Section II-D warns about).
    pub fn new<E: Copy + Default, K: BaseKernel<E>>(data: &DensePairData<E>, kernel: &K) -> Self {
        let (n, m) = (data.n, data.m);
        debug_assert_eq!(data.a1.len(), n * n, "a1 is the n x n adjacency of the first graph");
        debug_assert_eq!(data.a2.len(), m * m, "a2 is the m x m adjacency of the second graph");
        let nm = n * m;
        let mut l = vec![0.0f32; nm * nm];
        for i in 0..n {
            for ip in 0..m {
                let row = i * m + ip;
                for j in 0..n {
                    let a1 = data.a1[i * n + j];
                    if a1 == 0.0 {
                        // the naive kernel stores the zero anyway; skipping
                        // the multiplication only saves CPU time
                        continue;
                    }
                    for jp in 0..m {
                        let a2 = data.a2[ip * m + jp];
                        if a2 == 0.0 {
                            continue;
                        }
                        let ke = kernel.eval(&data.e1[i * n + j], &data.e2[ip * m + jp]);
                        l[row * nm + j * m + jp] = a1 * a2 * ke;
                    }
                }
            }
        }
        NaiveProduct { nm, l }
    }

    /// Dimension of the product system.
    pub fn dim(&self) -> usize {
        self.nm
    }

    /// The Table I / Appendix C closed form of the naive primitive: the
    /// traffic of one application on a dense graph pair of `shape` — the
    /// product matrix plus the warp-shared right-hand side, 2 FLOPs (one
    /// FMA) per element, no shared-memory traffic.
    pub fn modeled_traffic(shape: &ProblemShape) -> TrafficCounters {
        let [n, m, _, f, _] = shape.terms();
        let (n2m2, nm) = (n * n * m * m, n * m);
        modeled(2.0 * n2m2, n2m2 * f + n2m2 * f / 32.0, nm * f, 0.0, 0.0, 0.0)
    }

    /// Asymptotic arithmetic intensity with respect to global memory for
    /// `f`-byte floats: `2 / F` (Section II-D). With no shared-memory
    /// traffic, the shared intensity is infinite.
    pub fn asymptotic_ai_global(f: f64) -> f64 {
        2.0 / f
    }

    /// Apply `y ← L× · p`, counting the traffic of one pass over the
    /// materialized matrix. The matrix entries were rounded to `f32` at
    /// materialization; any [`Scalar`] instantiation applies exactly those
    /// stored values.
    pub fn apply<T: Scalar>(&self, p: &[T], y: &mut [T], counters: &mut TrafficCounters) {
        assert_eq!(p.len(), self.nm);
        assert_eq!(y.len(), self.nm);
        // the materialized matrix is f32 storage at every vector precision;
        // only the right-hand-side and output traffic follow T
        let f = STORED_F32_BYTES;
        let vb = T::BYTES;
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.l[i * self.nm..(i + 1) * self.nm];
            let mut acc = 0.0f64;
            for (lij, pj) in row.iter().zip(p) {
                acc += *lij as f64 * pj.to_f64();
            }
            *yi = T::from_f64(acc);
        }
        // Appendix C, "Naive": the matrix is read once, the right-hand side
        // once per warp (32 rows), the output written once; 2 FLOPs per
        // element (one FMA)
        let nm = self.nm as u64;
        counters.global_load_bytes += nm * nm * f + nm * nm * vb / 32;
        counters.global_store_bytes += nm * vb;
        counters.flops += 2 * nm * nm;
    }

    /// Direct read access to the materialized product matrix (row-major),
    /// which the fixed-point baseline sweeps and validation tests read.
    pub fn matrix(&self) -> &[f32] {
        &self.l
    }
}

// --------------------------------------------------------------------------
// shared tiling
// --------------------------------------------------------------------------

fn shared_tiling<T: Scalar, E: Copy, K: BaseKernel<E>>(
    data: &DensePairData<E>,
    kernel: &K,
    p: &[T],
    y: &mut [T],
    t: usize,
    r: usize,
    counters: &mut TrafficCounters,
) {
    assert!(t > 0 && r > 0, "tile parameters must be positive");
    let (n, m) = (data.n, data.m);
    // operand matrices (A/E) are f32 storage at every vector precision;
    // right-hand-side and output traffic follow the vector scalar
    let fb = STORED_F32_BYTES;
    let vb = T::BYTES;
    let eb = data.label_bytes as u64;
    let xf = data.kernel_flops as u64;

    for i0 in (0..n).step_by(t) {
        let i1 = (i0 + t).min(n);
        for ip0 in (0..m).step_by(t) {
            let ip1 = (ip0 + t).min(m);
            // accumulator block lives in registers
            let mut acc = vec![0.0f64; (i1 - i0) * (ip1 - ip0)];

            for j0 in (0..n).step_by(r) {
                let j1 = (j0 + r).min(n);
                // stream the A/E chunk of the outer graph into shared memory
                let chunk1 = ((i1 - i0) * (j1 - j0)) as u64;
                counters.global_load_bytes += chunk1 * (fb + eb);
                counters.shared_store_bytes += chunk1 * (fb + eb);

                for jp0 in (0..m).step_by(r) {
                    let jp1 = (jp0 + r).min(m);
                    // stream the A'/E' chunk of the inner graph and the
                    // right-hand-side block
                    let chunk2 = ((ip1 - ip0) * (jp1 - jp0)) as u64;
                    let pblk = ((j1 - j0) * (jp1 - jp0)) as u64;
                    counters.global_load_bytes += chunk2 * (fb + eb) + pblk * vb;
                    counters.shared_store_bytes += chunk2 * (fb + eb) + pblk * vb;

                    // warp-parallel over (i, i'), serial over (j, j')
                    for i in i0..i1 {
                        for ip in ip0..ip1 {
                            let mut a = acc[(i - i0) * (ip1 - ip0) + (ip - ip0)];
                            for j in j0..j1 {
                                let a1 = data.a1[i * n + j];
                                let e1 = &data.e1[i * n + j];
                                // one shared load of (A_ij, E_ij) per j
                                counters.shared_load_bytes += fb + eb;
                                if a1 == 0.0 {
                                    // dense primitive still charges the
                                    // arithmetic for the zero entries
                                    counters.shared_load_bytes +=
                                        ((jp1 - jp0) as u64) * (fb + eb + vb);
                                    counters.flops += (jp1 - jp0) as u64 * xf;
                                    counters.kernel_evaluations += (jp1 - jp0) as u64;
                                    continue;
                                }
                                for jp in jp0..jp1 {
                                    let a2 = data.a2[ip * m + jp];
                                    let e2 = &data.e2[ip * m + jp];
                                    counters.shared_load_bytes += fb + eb + vb;
                                    counters.flops += xf;
                                    counters.kernel_evaluations += 1;
                                    if a2 != 0.0 {
                                        let ke = kernel.eval(e1, e2);
                                        a += (T::from_f32(a1) * T::from_f32(a2) * T::from_f32(ke))
                                            .to_f64()
                                            * p[j * m + jp].to_f64();
                                    }
                                }
                            }
                            acc[(i - i0) * (ip1 - ip0) + (ip - ip0)] = a;
                        }
                    }
                }
            }

            for i in i0..i1 {
                for ip in ip0..ip1 {
                    y[i * m + ip] = T::from_f64(acc[(i - i0) * (ip1 - ip0) + (ip - ip0)]);
                }
            }
            counters.global_store_bytes += ((i1 - i0) * (ip1 - ip0)) as u64 * vb;
        }
    }
}

// --------------------------------------------------------------------------
// register blocking
// --------------------------------------------------------------------------

fn register_blocking<T: Scalar, E: Copy, K: BaseKernel<E>>(
    data: &DensePairData<E>,
    kernel: &K,
    p: &[T],
    y: &mut [T],
    t: usize,
    r: usize,
    counters: &mut TrafficCounters,
) {
    assert!(t > 0 && r > 0, "tile parameters must be positive");
    let (n, m) = (data.n, data.m);
    // operand matrices (A/E) are f32 storage at every vector precision;
    // right-hand-side and output traffic follow the vector scalar
    let fb = STORED_F32_BYTES;
    let vb = T::BYTES;
    let eb = data.label_bytes as u64;
    let xf = data.kernel_flops as u64;

    for i0 in (0..n).step_by(t) {
        let i1 = (i0 + t).min(n);
        for ip0 in (0..m).step_by(t) {
            let ip1 = (ip0 + t).min(m);
            let mut acc = vec![0.0f64; (i1 - i0) * (ip1 - ip0)];

            for j0 in (0..n).step_by(r) {
                let j1 = (j0 + r).min(n);
                // chunks go straight to registers: global load, no shared store
                let chunk1 = ((i1 - i0) * (j1 - j0)) as u64;
                counters.global_load_bytes += chunk1 * (fb + eb);

                for jp0 in (0..m).step_by(r) {
                    let jp1 = (jp0 + r).min(m);
                    let chunk2 = ((ip1 - ip0) * (jp1 - jp0)) as u64;
                    let pblk = ((j1 - j0) * (jp1 - jp0)) as u64;
                    counters.global_load_bytes += chunk2 * (fb + eb) + pblk * vb;
                    // only the right-hand side is shared between threads
                    counters.shared_store_bytes += pblk * vb;

                    for i in i0..i1 {
                        for ip in ip0..ip1 {
                            let mut a = acc[(i - i0) * (ip1 - ip0) + (ip - ip0)];
                            for j in j0..j1 {
                                let a1 = data.a1[i * n + j];
                                let e1 = &data.e1[i * n + j];
                                for jp in jp0..jp1 {
                                    // p is read from shared memory per term
                                    counters.shared_load_bytes += vb;
                                    counters.flops += xf;
                                    counters.kernel_evaluations += 1;
                                    let a2 = data.a2[ip * m + jp];
                                    if a1 != 0.0 && a2 != 0.0 {
                                        let ke = kernel.eval(e1, &data.e2[ip * m + jp]);
                                        a += (T::from_f32(a1) * T::from_f32(a2) * T::from_f32(ke))
                                            .to_f64()
                                            * p[j * m + jp].to_f64();
                                    }
                                }
                            }
                            acc[(i - i0) * (ip1 - ip0) + (ip - ip0)] = a;
                        }
                    }
                }
            }

            for i in i0..i1 {
                for ip in ip0..ip1 {
                    y[i * m + ip] = T::from_f64(acc[(i - i0) * (ip1 - ip0) + (ip - ip0)]);
                }
            }
            counters.global_store_bytes += ((i1 - i0) * (ip1 - ip0)) as u64 * vb;
        }
    }
}

// --------------------------------------------------------------------------
// tiling + blocking (the production octile primitive)
// --------------------------------------------------------------------------

fn tiling_blocking<T: Scalar, E: Copy, K: BaseKernel<E>>(
    data: &DensePairData<E>,
    kernel: &K,
    p: &[T],
    y: &mut [T],
    t: usize,
    r: usize,
    counters: &mut TrafficCounters,
) {
    assert!(t > 0 && r > 0, "tile parameters must be positive");
    let (n, m) = (data.n, data.m);
    // operand matrices (A/E) are f32 storage at every vector precision;
    // right-hand-side and output traffic follow the vector scalar
    let fb = STORED_F32_BYTES;
    let vb = T::BYTES;
    let eb = data.label_bytes as u64;
    let xf = data.kernel_flops as u64;

    for i0 in (0..n).step_by(t) {
        let i1 = (i0 + t).min(n);
        for ip0 in (0..m).step_by(t) {
            let ip1 = (ip0 + t).min(m);
            let mut acc = vec![0.0f64; (i1 - i0) * (ip1 - ip0)];

            for j0 in (0..n).step_by(t) {
                let j1 = (j0 + t).min(n);
                // square tile of the outer graph staged in shared memory
                let tile1 = ((i1 - i0) * (j1 - j0)) as u64;
                counters.global_load_bytes += tile1 * (fb + eb);
                counters.shared_store_bytes += tile1 * (fb + eb);

                for jp0 in (0..m).step_by(t) {
                    let jp1 = (jp0 + t).min(m);
                    let tile2 = ((ip1 - ip0) * (jp1 - jp0)) as u64;
                    let pblk = ((j1 - j0) * (jp1 - jp0)) as u64;
                    counters.global_load_bytes += tile2 * (fb + eb) + pblk * vb;
                    counters.shared_store_bytes += tile2 * (fb + eb);

                    // traffic and arithmetic attribution for the whole block,
                    // hoisted out of the element loops (identical totals to
                    // counting per element): every (i, i') pair walks
                    // (j1−j0) staged row elements plus one register chunk of
                    // the second tile per (h0, hp0) chunk pair, and the
                    // dense primitive charges the arithmetic for zero
                    // entries too
                    let pairs = ((i1 - i0) * (ip1 - ip0)) as u64;
                    let elems = ((j1 - j0) * (jp1 - jp0)) as u64;
                    let chunk_pairs = ((j1 - j0).div_ceil(r) * (jp1 - jp0)) as u64;
                    counters.shared_load_bytes +=
                        pairs * ((j1 - j0) as u64 + chunk_pairs) * (fb + eb);
                    counters.flops += pairs * elems * xf;
                    counters.kernel_evaluations += pairs * elems;

                    for i in i0..i1 {
                        for ip in ip0..ip1 {
                            let mut a = acc[(i - i0) * (ip1 - ip0) + (ip - ip0)];
                            // march across the columns in register chunks of r
                            for h0 in (j0..j1).step_by(r) {
                                let h1 = (h0 + r).min(j1);
                                for hp0 in (jp0..jp1).step_by(r) {
                                    let hp1 = (hp0 + r).min(jp1);
                                    for j in h0..h1 {
                                        let a1 = data.a1[i * n + j];
                                        if a1 == 0.0 {
                                            continue;
                                        }
                                        let e1 = &data.e1[i * n + j];
                                        for jp in hp0..hp1 {
                                            let a2 = data.a2[ip * m + jp];
                                            if a2 != 0.0 {
                                                let ke = kernel.eval(e1, &data.e2[ip * m + jp]);
                                                a += (T::from_f32(a1)
                                                    * T::from_f32(a2)
                                                    * T::from_f32(ke))
                                                .to_f64()
                                                    * p[j * m + jp].to_f64();
                                            }
                                        }
                                    }
                                }
                            }
                            acc[(i - i0) * (ip1 - ip0) + (ip - ip0)] = a;
                        }
                    }
                }
            }

            for i in i0..i1 {
                for ip in ip0..ip1 {
                    y[i * m + ip] = T::from_f64(acc[(i - i0) * (ip1 - ip0) + (ip - ip0)]);
                }
            }
            counters.global_store_bytes += ((i1 - i0) * (ip1 - ip0)) as u64 * vb;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgk_graph::generators;
    use mgk_kernels::{SquareExponential, UnitKernel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Brute-force reference: y_{ii'} = Σ_{jj'} A_ij A'_i'j' κ(E_ij, E'_i'j') p_{jj'}.
    fn reference<E: Copy + Default, K: BaseKernel<E>>(
        data: &DensePairData<E>,
        kernel: &K,
        p: &[f32],
    ) -> Vec<f32> {
        let (n, m) = (data.n(), data.m());
        let mut y = vec![0.0f32; n * m];
        for i in 0..n {
            for ip in 0..m {
                let mut acc = 0.0f64;
                for j in 0..n {
                    for jp in 0..m {
                        let a1 = data.a1[i * n + j];
                        let a2 = data.a2[ip * m + jp];
                        if a1 != 0.0 && a2 != 0.0 {
                            let ke = kernel.eval(&data.e1[i * n + j], &data.e2[ip * m + jp]);
                            acc += (a1 * a2 * ke) as f64 * p[j * m + jp] as f64;
                        }
                    }
                }
                y[i * m + ip] = acc as f32;
            }
        }
        y
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol * (1.0 + y.abs()), "mismatch at {k}: {x} vs {y}");
        }
    }

    fn test_pair(seed: u64, n: usize, m: usize) -> (DensePairData<f32>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g1 = generators::complete_labeled(n, &mut rng);
        let g2 = generators::complete_labeled(m, &mut rng);
        let kernel = SquareExponential::new(0.7);
        let data = DensePairData::new(&g1, &g2, &kernel);
        let p: Vec<f32> = (0..n * m).map(|k| ((k * 37 % 101) as f32) / 101.0 - 0.3).collect();
        (data, p)
    }

    #[test]
    fn all_primitives_match_reference_labeled() {
        let (data, p) = test_pair(3, 13, 9);
        let kernel = SquareExponential::new(0.7);
        let expect = reference(&data, &kernel, &p);
        for prim in [
            XmvPrimitive::SharedTiling { t: 8, r: 4 },
            XmvPrimitive::SharedTiling { t: 8, r: 8 },
            XmvPrimitive::RegisterBlocking { t: 8, r: 8 },
            XmvPrimitive::RegisterBlocking { t: 4, r: 2 },
            XmvPrimitive::TilingBlocking { t: 8, r: 8 },
            XmvPrimitive::TilingBlocking { t: 8, r: 4 },
            XmvPrimitive::TilingBlocking { t: 4, r: 4 },
        ] {
            let mut y = vec![0.0f32; data.product_dim()];
            let mut c = TrafficCounters::new();
            prim.apply(&data, &kernel, &p, &mut y, &mut c);
            assert_close(&y, &expect, 1e-4);
            assert!(c.flops > 0 && c.global_load_bytes > 0, "{} counted no work", prim.name());
        }
    }

    #[test]
    fn naive_product_matches_reference() {
        let (data, p) = test_pair(5, 10, 11);
        let kernel = SquareExponential::new(0.7);
        let expect = reference(&data, &kernel, &p);
        let naive = NaiveProduct::new(&data, &kernel);
        let mut y = vec![0.0f32; data.product_dim()];
        let mut c = TrafficCounters::new();
        naive.apply(&p, &mut y, &mut c);
        assert_close(&y, &expect, 1e-4);
        assert_eq!(naive.dim(), 110);
        assert_eq!(c.flops, 2 * 110 * 110);
    }

    #[test]
    fn primitives_agree_on_unlabeled_sparse_graphs() {
        // sparse graphs through the dense primitives: zeros must not change
        // the result
        let mut rng = StdRng::seed_from_u64(11);
        let g1 = generators::newman_watts_strogatz(20, 2, 0.2, &mut rng);
        let g2 = generators::barabasi_albert(17, 3, &mut rng);
        let kernel = UnitKernel;
        let data = DensePairData::new(&g1, &g2, &kernel);
        let p: Vec<f32> = (0..data.product_dim()).map(|k| (k % 7) as f32 * 0.1).collect();
        let expect = reference(&data, &kernel, &p);
        for prim in [
            XmvPrimitive::OCTILE,
            XmvPrimitive::SharedTiling { t: 8, r: 8 },
            XmvPrimitive::RegisterBlocking { t: 8, r: 8 },
        ] {
            let mut y = vec![0.0f32; data.product_dim()];
            let mut c = TrafficCounters::new();
            prim.apply(&data, &kernel, &p, &mut y, &mut c);
            assert_close(&y, &expect, 1e-4);
        }
    }

    #[test]
    fn counted_traffic_matches_analytic_model_for_aligned_sizes() {
        // for sizes divisible by the tile parameters the counted traffic
        // must match Table I's closed forms (up to the output store and the
        // warp-amortized rhs of the naive kernel)
        let (data, p) = test_pair(7, 16, 16);
        let kernel = SquareExponential::new(0.7);
        let shape = ProblemShape {
            n: 16,
            m: 16,
            edge_label_bytes: 4,
            float_bytes: 4,
            kernel_flops: mgk_kernels::BaseKernel::<f32>::cost(&kernel).flops,
        };
        for prim in [
            XmvPrimitive::SharedTiling { t: 8, r: 4 },
            XmvPrimitive::RegisterBlocking { t: 8, r: 4 },
            XmvPrimitive::TilingBlocking { t: 8, r: 4 },
        ] {
            let mut y = vec![0.0f32; data.product_dim()];
            let mut counted = TrafficCounters::new();
            prim.apply(&data, &kernel, &p, &mut y, &mut counted);
            let modeled = prim.modeled_traffic(&shape);
            let rel = |a: u64, b: u64| {
                if b == 0 {
                    (a == 0) as u64 as f64
                } else {
                    a as f64 / b as f64
                }
            };
            assert!(
                (rel(counted.flops, modeled.flops) - 1.0).abs() < 0.01,
                "{}: flops {} vs modeled {}",
                prim.name(),
                counted.flops,
                modeled.flops
            );
            assert!(
                (rel(counted.global_load_bytes, modeled.global_load_bytes) - 1.0).abs() < 0.05,
                "{}: global loads {} vs modeled {}",
                prim.name(),
                counted.global_load_bytes,
                modeled.global_load_bytes
            );
            assert!(
                (rel(counted.shared_load_bytes, modeled.shared_load_bytes) - 1.0).abs() < 0.05,
                "{}: shared loads {} vs modeled {}",
                prim.name(),
                counted.shared_load_bytes,
                modeled.shared_load_bytes
            );
        }
    }

    /// The numbers `table1_intensity` prints, as literals: the four Table I
    /// rows at the two 72-node shapes.
    #[test]
    fn table_i_rows_are_pinned() {
        // [ops, ld.global, st.global, ld.shared, st.shared, kernel evaluations]
        let rows = |shape: ProblemShape| {
            let naive = NaiveProduct::modeled_traffic(&shape);
            let octile = [
                XmvPrimitive::SharedTiling { t: 8, r: 8 },
                XmvPrimitive::RegisterBlocking { t: 8, r: 8 },
                XmvPrimitive::OCTILE,
            ]
            .map(|prim| prim.modeled_traffic(&shape));
            [naive, octile[0], octile[1], octile[2]].map(|c| {
                [
                    c.flops,
                    c.global_load_bytes,
                    c.global_store_bytes,
                    c.shared_load_bytes,
                    c.shared_store_bytes,
                    c.kernel_evaluations,
                ]
            })
        };
        assert_eq!(
            rows(ProblemShape::unlabeled(72, 72)),
            [
                [53747712, 110854656, 20736, 0, 0, 0],
                [80621568, 3545856, 20736, 228427776, 3545856, 26873856],
                [80621568, 3545856, 20736, 107495424, 1679616, 26873856],
                [80621568, 3545856, 20736, 26873856, 1866240, 26873856],
            ]
        );
        assert_eq!(
            rows(ProblemShape::labeled_f32(72, 72, 11)),
            [
                [53747712, 110854656, 20736, 0, 0, 0],
                [295612416, 5412096, 20736, 349360128, 5412096, 26873856],
                [295612416, 5412096, 20736, 107495424, 1679616, 26873856],
                [295612416, 5412096, 20736, 53747712, 3732480, 26873856],
            ]
        );
    }

    const UNLABELED: (f64, f64, f64) = (0.0, 4.0, 3.0);

    #[test]
    fn naive_intensity_matches_section_2d() {
        // the naive solver's arithmetic intensity is 2/F = 1/2 in single
        // precision (Section II-D)
        let ai = NaiveProduct::asymptotic_ai_global(UNLABELED.1);
        assert!((ai - 0.5).abs() < 1e-12);
        let c = NaiveProduct::modeled_traffic(&ProblemShape::unlabeled(72, 72));
        // measured intensity approaches the asymptote for a 72x72 pair
        assert!((c.arithmetic_intensity_global() - 0.5).abs() < 0.02);
    }

    #[test]
    fn octile_primitive_intensity() {
        // tiling-blocking with t=8 in the unlabeled case: t²X / (E + 2F) =
        // 64*3/8 = 24 flops per byte of global traffic
        let k = XmvPrimitive::OCTILE;
        let ai = k.asymptotic_ai_global(UNLABELED.0, UNLABELED.1, UNLABELED.2);
        assert!((ai - 24.0).abs() < 1e-12);
        // shared intensity: X / ((1/r + 1/t)(E + F)) = 3 / (0.25*4) = 3
        let ai_s = k.asymptotic_ai_shared(UNLABELED.0, UNLABELED.1, UNLABELED.2);
        assert!((ai_s - 3.0).abs() < 1e-12);
    }

    #[test]
    fn counted_traffic_approaches_asymptotic_intensity() {
        let shape = ProblemShape::unlabeled(72, 72);
        for kind in [
            XmvPrimitive::SharedTiling { t: 8, r: 8 },
            XmvPrimitive::RegisterBlocking { t: 8, r: 8 },
            XmvPrimitive::OCTILE,
        ] {
            let measured = kind.modeled_traffic(&shape).arithmetic_intensity_global();
            let asymptotic = kind.asymptotic_ai_global(0.0, 4.0, 3.0);
            let rel = (measured - asymptotic).abs() / asymptotic;
            // the lower-order O(n²m) terms make the measured value smaller,
            // but it should be within ~20% for 72-node graphs
            assert!(
                rel < 0.2,
                "{}: measured {measured:.2} vs asymptotic {asymptotic:.2}",
                kind.name()
            );
            assert!(measured <= asymptotic + 1e-9);
        }
    }

    #[test]
    fn bigger_tiles_give_higher_global_intensity() {
        let shape = ProblemShape::labeled_f32(96, 96, 11);
        let small = XmvPrimitive::TilingBlocking { t: 4, r: 4 }.modeled_traffic(&shape);
        let large = XmvPrimitive::OCTILE.modeled_traffic(&shape);
        assert!(
            large.arithmetic_intensity_global() > small.arithmetic_intensity_global(),
            "8x8 tiles should be more intense than 4x4"
        );
        // FLOP count is identical — only data movement changes
        assert_eq!(small.flops, large.flops);
    }

    #[test]
    fn on_the_fly_primitives_trade_flops_for_traffic() {
        let shape = ProblemShape::unlabeled(72, 72);
        let naive = NaiveProduct::modeled_traffic(&shape);
        let otf = XmvPrimitive::OCTILE.modeled_traffic(&shape);
        // more arithmetic (X=3 vs 2 per term) but far less global traffic
        assert!(otf.flops > naive.flops);
        assert!(otf.global_load_bytes * 10 < naive.global_load_bytes);
    }

    #[test]
    fn register_blocking_with_larger_r_reduces_global_traffic() {
        let shape = ProblemShape::unlabeled(72, 72);
        let r4 = XmvPrimitive::RegisterBlocking { t: 8, r: 4 }.modeled_traffic(&shape);
        let r16 = XmvPrimitive::RegisterBlocking { t: 8, r: 16 }.modeled_traffic(&shape);
        assert!(r16.global_load_bytes < r4.global_load_bytes);
    }

    #[test]
    fn shared_tiling_ai_shared_matches_table() {
        // X / ((1 + 1/r)E + (2 + 1/r)F) with unlabeled params and r=8:
        // 3 / (2.125 * 4) = 0.3529…
        let k = XmvPrimitive::SharedTiling { t: 8, r: 8 };
        let ai = k.asymptotic_ai_shared(0.0, 4.0, 3.0);
        assert!((ai - 3.0 / 8.5).abs() < 1e-9);
    }

    #[test]
    fn octile_primitive_moves_less_global_data_than_small_tiles() {
        let (data, p) = test_pair(9, 24, 24);
        let kernel = SquareExponential::new(0.7);
        let count = |prim: XmvPrimitive| {
            let mut y = vec![0.0f32; data.product_dim()];
            let mut c = TrafficCounters::new();
            prim.apply(&data, &kernel, &p, &mut y, &mut c);
            c
        };
        let small = count(XmvPrimitive::TilingBlocking { t: 2, r: 2 });
        let octile = count(XmvPrimitive::OCTILE);
        assert!(octile.global_load_bytes < small.global_load_bytes / 2);
        assert_eq!(octile.flops, small.flops);
    }

    #[test]
    fn rectangular_and_non_aligned_sizes_work() {
        let (data, p) = test_pair(13, 7, 19);
        let kernel = SquareExponential::new(0.7);
        let expect = reference(&data, &kernel, &p);
        let mut y = vec![0.0f32; data.product_dim()];
        let mut c = TrafficCounters::new();
        XmvPrimitive::OCTILE.apply(&data, &kernel, &p, &mut y, &mut c);
        assert_close(&y, &expect, 1e-4);
    }
}
