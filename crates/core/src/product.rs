//! Assembly of the tensor-product linear system of Eq. (1).
//!
//! For a pair of graphs the system matrix is `D× V×⁻¹ − A× ∘ E×` where
//!
//! * `D× = diag(d ⊗ d')` with `d_i = Σ_j A_ij + q_i`,
//! * `V× = diag(v κ⊗ v')` holds the vertex base-kernel products,
//! * `A× ∘ E×` is the weight/edge-kernel product handled by the on-the-fly
//!   XMV primitives.
//!
//! [`ProductSystem`] owns the diagonal data, the right-hand side
//! `D× q×` and the two-level sparse octile operator over the octile
//! matrices its two [`PreparedGraph`]s were built with once.
//!
//! [`SystemOperator`] views the full `D× V×⁻¹ − A× ∘ E×` as a
//! [`mgk_linalg::LinearOperator`], and memory traffic flows through the
//! `apply_counted` side of that surface: callers pass a
//! [`TrafficCounters`] down and receive exact counts back, with no interior
//! mutability on the system itself (the operator's one cell is its
//! coefficient stream). Those counts are a per-apply ledger summed once at
//! assembly from the tile pairs' closed forms and the global terms of
//! compact tile storage shared across a block's warps; an application adds
//! it once instead of re-deriving it per tile pair.

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

use std::cell::OnceCell;
use std::sync::Arc;

use mgk_graph::Graph;
use mgk_kernels::BaseKernel;
use mgk_linalg::{
    kron_vec, kronecker::generalized_kron_vec, LinearOperator, Scalar, TrafficCounters,
};
use mgk_tile::{OctileMatrix, TILE_SIZE};

use crate::octile_ops::{
    reads_packed, sweep_inner_layers, tile_pair_traffic, Coefficients, KindTable, OuterSweep,
    PairContext, TileCosts, TileLayers, TilePanels,
};
use crate::prepared::PreparedGraph;
use crate::solver::SolverConfig;

/// The largest product graph whose coefficients a [`SystemOperator`] keeps,
/// in bytes at its vector precision: `nnz(A₁)·nnz(A₂)·T::BYTES`, although
/// the stream holds only the packed loop's share of them. Timed in process
/// at `f32`, one 2.1 GHz Xeon core, over the applications of one solve:
/// replaying sped the solve of molecule pairs of 13–80 atoms (5–108 KiB)
/// up 1.27–1.48×, and 80-atom pairs stream at `f64` too. Protein-48 pairs
/// (1.5–2.2 MiB, of which 1–23 KiB packed) gained nothing (1.00×), since
/// their dense tile pairs form in place either way. 96-vertex NWS×NWS,
/// NWS×BA and BA×BA pairs (1.5–4.7 MiB, of which 0.17–1.5 MiB packed)
/// gained 1.5–4 % per solve for a buffer of that size per solve. Streaming
/// every pair instead, in six alternated pairs of 24 s benchmark runs of
/// one binary, read `gram-sparse` (these graphs) 4.6 % faster but its peak
/// memory 35 % higher (4.5 → 6.1 MiB), past the benchmark's 20 % bound, and
/// `gram-dense` (protein-48) no different (−1.2 % throughput, +0.9 %
/// memory). The gate moves speed and memory only, never bits.
const COEFFICIENT_STREAM_BYTES: u64 = 256 * 1024;

/// The warps of a block that share each inner tile's load (Section V-A).
const BLOCK_SHARING: u64 = 8;

/// The traffic one application of the octile operator counts. Every term
/// depends on the pair's tiles, the table's picks and the vector width, and
/// none on the vector, so it is summed once at assembly, at both widths.
struct ApplyTraffic {
    at_f32: TrafficCounters,
    at_f64: TrafficCounters,
    /// The coefficients one application's packed loop forms: `nnz₁·nnz₂`
    /// summed over the tile pairs it routes there. The length of a
    /// [`SystemOperator`]'s coefficient stream.
    packed_terms: usize,
}

impl ApplyTraffic {
    /// Sum, over every tile pair of the sweep, the closed form of the
    /// primitive `kinds` routes it to, plus the operator's global terms:
    /// each outer tile loaded once per sweep, each inner tile once per outer
    /// tile with the load shared across the [`BLOCK_SHARING`] warps of a
    /// block, every tile in compact storage (an 8-byte bitmap and its packed
    /// nonzeros), one right-hand-side block per tile pair and one write-back
    /// of `y`. Tile payloads and labels keep their stored (`f32`) sizes at
    /// every vector precision; only the right-hand-side reads inside a tile
    /// pair and the write-back follow the vector width. The same loop counts
    /// the packed terms.
    fn octile<E: Copy + Default>(
        left: &OctileMatrix<E>,
        right: &OctileMatrix<E>,
        kinds: &KindTable,
        costs: &TileCosts,
        (n, m): (usize, usize),
    ) -> Self {
        let fb = costs.float_bytes as u64;
        let eb = costs.label_bytes as u64;
        let tile_bytes = |t: &mgk_tile::Octile<E>| 8 + t.nnz() as u64 * (fb + eb);
        let (mut at_f32, mut at_f64) = (TrafficCounters::new(), TrafficCounters::new());
        let (mut global_loads, mut packed_terms) = (0, 0);
        for t1 in left.tiles() {
            global_loads += tile_bytes(t1);
            for t2 in right.tiles() {
                global_loads += tile_bytes(t2).div_ceil(BLOCK_SHARING);
                global_loads += (TILE_SIZE * TILE_SIZE) as u64 * fb;
                let kind = kinds.get(t1.nnz(), t2.nnz());
                if reads_packed(kind, t1.nnz(), t2.nnz()) {
                    packed_terms += t1.nnz() * t2.nnz();
                }
                at_f32.accumulate(&tile_pair_traffic(kind, t1, t2, (n, m), costs, f32::BYTES));
                at_f64.accumulate(&tile_pair_traffic(kind, t1, t2, (n, m), costs, f64::BYTES));
            }
        }
        for (ledger, vb) in [(&mut at_f32, f32::BYTES), (&mut at_f64, f64::BYTES)] {
            ledger.global_load_bytes += global_loads;
            ledger.global_store_bytes += (n * m) as u64 * vb;
        }
        ApplyTraffic { at_f32, at_f64, packed_terms }
    }

    /// The ledger at the vector precision `T`.
    fn at<T: Scalar>(&self) -> &TrafficCounters {
        if T::BYTES == f64::BYTES {
            &self.at_f64
        } else {
            &self.at_f32
        }
    }
}

/// The assembled tensor-product system for one graph pair.
pub struct ProductSystem<E, KE> {
    n: usize,
    m: usize,
    /// `d ⊗ d'`.
    degree_product: Vec<f32>,
    /// `v κ⊗ v'`.
    vertex_product: Vec<f32>,
    /// `p ⊗ p'`.
    start_product: Vec<f32>,
    /// `q ⊗ q'`.
    stop_product: Vec<f32>,
    /// The outer and inner operands of `A× ∘ E×`, the two-level sparse
    /// octile operator of Section IV: the octile matrices the two
    /// [`PreparedGraph`]s were built with once, shared, not copied.
    left: Arc<OctileMatrix<E>>,
    right: Arc<OctileMatrix<E>>,
    /// `right`'s tiles in layers, for the packed loop: built per system, as
    /// is `panels`, so every CG iteration's tile-pair sweep reuses them.
    layers: TileLayers<E>,
    /// `right`'s transposed panels, parallel to its tiles, for dense×dense.
    /// At 512 B a tile (`f32` labels) they are several times the rest of
    /// the structure, too much to hold for as long as a serving cache holds
    /// it, and expanding them is the cheapest step of an assembly. The outer
    /// operand has none: every primitive reads it decoded.
    panels: Vec<TilePanels<E>>,
    /// The adaptive-selection table shared by every system of this kernel
    /// cost (the per-pair decision is a lookup, not three cost estimates).
    kinds: Arc<KindTable>,
    /// What one application counts, fixed at assembly.
    traffic: ApplyTraffic,
    edge_kernel: KE,
    tile_costs: TileCosts,
}

impl<E, KE> ProductSystem<E, KE>
where
    E: Copy + Default,
    KE: BaseKernel<E>,
{
    /// Assemble the system for a pair of graphs. The graphs are taken as
    /// already ordered: they are tiled as they stand, whatever reordering
    /// a solver configuration names (the solver's own entry points apply
    /// that first). Assembly reads no field of the configuration, which the
    /// signature keeps for its callers.
    pub fn assemble<V, KV>(
        g1: &Graph<V, E>,
        g2: &Graph<V, E>,
        vertex_kernel: &KV,
        edge_kernel: KE,
        _config: &SolverConfig,
    ) -> Self
    where
        V: Clone,
        KV: BaseKernel<V>,
    {
        let tile = |g: &Graph<V, E>| PreparedGraph::new(g.clone(), None);
        Self::from_prepared(&tile(g1), &tile(g2), vertex_kernel, edge_kernel)
    }

    /// Assemble the system of two prepared structures — the one assembly
    /// path.
    pub(crate) fn from_prepared<V, KV>(
        a: &PreparedGraph<V, E>,
        b: &PreparedGraph<V, E>,
        vertex_kernel: &KV,
        edge_kernel: KE,
    ) -> Self
    where
        KV: BaseKernel<V>,
    {
        let (g1, g2) = (a.graph(), b.graph());
        let degree_product = kron_vec(a.degrees(), b.degrees());
        let vertex_product =
            generalized_kron_vec(g1.vertex_labels(), g2.vertex_labels(), |u, v| {
                vertex_kernel.eval(u, v)
            });
        let start_product = kron_vec(g1.start_probabilities(), g2.start_probabilities());
        let stop_product = kron_vec(g1.stop_probabilities(), g2.stop_probabilities());

        let cost = edge_kernel.cost();
        let tile_costs =
            TileCosts { label_bytes: cost.label_bytes, float_bytes: 4, kernel_flops: cost.flops };

        let (left, right) = (a.matrix(), b.matrix());
        let layers = TileLayers::new(right.tiles());
        let panels = right.tiles().iter().map(TilePanels::new).collect();
        let kinds = KindTable::shared(cost.flops);
        let dims = (g1.num_vertices(), g2.num_vertices());
        let traffic = ApplyTraffic::octile(&left, &right, &kinds, &tile_costs, dims);

        ProductSystem {
            n: g1.num_vertices(),
            m: g2.num_vertices(),
            degree_product,
            vertex_product,
            start_product,
            stop_product,
            left,
            right,
            layers,
            panels,
            kinds,
            traffic,
            edge_kernel,
            tile_costs,
        }
    }

    /// Dimension of the product system, `n · m`.
    pub fn dim(&self) -> usize {
        self.n * self.m
    }

    /// Number of vertices of the two graphs.
    pub fn shape(&self) -> (usize, usize) {
        (self.n, self.m)
    }

    /// The right-hand side `D× q×` of Eq. (1), at any [`Scalar`]
    /// precision: the `f32`-stored factors are widened individually before
    /// multiplying, so the `f64` instantiation forms the exact products.
    pub fn rhs<T: Scalar>(&self) -> Vec<T> {
        self.degree_product
            .iter()
            .zip(&self.stop_product)
            .map(|(&d, &q)| T::from_f32(d) * T::from_f32(q))
            .collect()
    }

    /// The diagonal of the system matrix, `D× V×⁻¹`.
    pub fn system_diagonal<T: Scalar>(&self) -> Vec<T> {
        self.degree_product
            .iter()
            .zip(&self.vertex_product)
            .map(|(&d, &v)| T::from_f32(d) / T::from_f32(v))
            .collect()
    }

    /// The Jacobi preconditioner `M⁻¹ = V× D×⁻¹` used on line 14 of
    /// Algorithm 1.
    pub fn preconditioner_diagonal<T: Scalar>(&self) -> Vec<T> {
        self.degree_product
            .iter()
            .zip(&self.vertex_product)
            .map(|(&d, &v)| T::from_f32(v) / T::from_f32(d))
            .collect()
    }

    /// The starting-probability product `p ⊗ p'` used to contract the
    /// solution into the kernel value.
    pub fn start_product(&self) -> &[f32] {
        &self.start_product
    }

    /// Apply the off-diagonal operator: `y ← (A× ∘ E×) x`, adding the
    /// memory traffic of the application to `counters`. Generic over the
    /// vector [`Scalar`]; the `f32`-stored tiles and kernel values are
    /// widened factor-wise at `f64`.
    ///
    /// The operator sweeps the second graph's tiles once per tile of the
    /// first, one layer at a time (layer ℓ is the ℓ-th tile of every tile
    /// row). Each outer tile is decoded once for its whole sweep. Within a
    /// layer, a run of tiles the table routes to the packed loop, up to 64
    /// nonzeros, costs one coefficient loop and one update loop per outer
    /// nonzero, not one of each per tile pair. Every other tile goes through
    /// its dense primitive. The tiles of a layer lie in distinct tile rows,
    /// so each element of `y` still receives its terms in the order of the
    /// scalar reference's tile-pair sweep: outer tile, inner tile in column
    /// order, outer nonzero, inner nonzero. The results are bit-identical to
    /// it. The sweep allocates nothing, and the application's traffic is
    /// the ledger fixed at assembly, added once.
    ///
    /// Every call forms every coefficient `(w₁·w₂)·κ(l₁, l₂)` again, as the
    /// paper's XMV does. [`SystemOperator`], which applies one system many
    /// times, may instead record the packed loop's coefficients once and
    /// replay them, to the same bits.
    pub fn apply_off_diagonal<T: Scalar>(
        &self,
        x: &[T],
        y: &mut [T],
        counters: &mut TrafficCounters,
    ) {
        self.sweep(x, y, &mut Coefficients::Form);
        counters.accumulate(self.traffic.at::<T>());
    }

    /// `nnz(A₁)·nnz(A₂)`: the nonzeros of `A×`, one coefficient each, over
    /// every tile pair whichever loop it is routed to.
    fn product_nnz(&self) -> u64 {
        (self.left.num_nonzeros() * self.right.num_nonzeros()) as u64
    }

    /// `y ← (A× ∘ E×) x`, the packed loop taking its coefficients as
    /// `coefficients` says; counts nothing.
    fn sweep<T: Scalar>(&self, x: &[T], y: &mut [T], coefficients: &mut Coefficients<'_, T>) {
        y.iter_mut().for_each(|v| *v = T::ZERO);
        let ctx = PairContext {
            n: self.n,
            m: self.m,
            kernel: &self.edge_kernel,
            costs: &self.tile_costs,
        };
        let mut sweep = OuterSweep::new();
        for t1 in self.left.tiles() {
            // the outer tile is loaded once and kept for the whole sweep over
            // the inner graph
            sweep.decode(t1, self.m);
            sweep_inner_layers(
                &mut sweep,
                t1,
                (self.right.tiles(), &self.panels),
                &self.layers,
                &self.kinds,
                coefficients,
                ctx,
                x,
                y,
            );
        }
    }
}

/// Adapter making a `ProductSystem` usable as the full system operator
/// `D× V×⁻¹ − A× ∘ E×` for the conjugate gradient solver, at the vector
/// [`Scalar`] precision `T` (defaulting to the `f32` serving precision).
///
/// The off-diagonal part is [`ProductSystem::apply_off_diagonal`]'s sweep;
/// the diagonal is precomputed at precision `T` and fused into the same
/// sweep. Traffic is threaded through
/// [`apply_counted`](LinearOperator::apply_counted); the operator holds no
/// counter state, and every application counts the ledger fixed at
/// assembly.
///
/// The operator may keep a coefficient stream: every coefficient the packed
/// loop forms, at precision `T`, in sweep order. It does when every
/// coefficient of the product graph would fit in a fixed 256 KiB, as a
/// serving-size molecule pair's do; a protein pair, most of whose tile
/// pairs go to dense primitives, and a 96-vertex NWS or BA pair do not. Its
/// first application then records the stream, sized exactly from the count
/// of packed terms taken at assembly, and every later one replays it and
/// runs only the packed loop's update. This departs from the paper's
/// kernel, which forms each coefficient again in every XMV because a GPU
/// has no room for the product graph; a CPU solve applies one system a dozen times or more, and
/// a stream of this size stays in L2. A stored coefficient is the product
/// the loop would form, read back by the term it was formed for, so every
/// application gives the same bits streamed or not. The stream is filled
/// through a `OnceCell`, so the operator is not `Sync`: a solve applies its
/// operator from the thread that runs it.
pub struct SystemOperator<'a, E, KE, T: Scalar = f32> {
    system: &'a ProductSystem<E, KE>,
    diagonal: Vec<T>,
    /// The coefficient stream, filled by the first application; `None` when
    /// the product graph would not fit in [`COEFFICIENT_STREAM_BYTES`].
    coefficients: Option<OnceCell<Vec<T>>>,
}

impl<'a, E, KE, T> SystemOperator<'a, E, KE, T>
where
    T: Scalar,
    E: Copy + Default,
    KE: BaseKernel<E>,
{
    /// Wrap an assembled product system.
    pub fn new(system: &'a ProductSystem<E, KE>) -> Self {
        let streams = system.product_nnz() * T::BYTES <= COEFFICIENT_STREAM_BYTES;
        SystemOperator {
            system,
            diagonal: system.system_diagonal::<T>(),
            coefficients: streams.then(OnceCell::new),
        }
    }
}

impl<E, KE, T> LinearOperator<T> for SystemOperator<'_, E, KE, T>
where
    T: Scalar,
    E: Copy + Default,
    KE: BaseKernel<E>,
{
    fn dim(&self) -> usize {
        self.system.dim()
    }

    fn apply(&self, x: &[T], y: &mut [T]) {
        self.apply_counted(x, y, &mut TrafficCounters::new());
    }

    fn apply_counted(&self, x: &[T], y: &mut [T], counters: &mut TrafficCounters) {
        match &self.coefficients {
            None => self.system.sweep(x, y, &mut Coefficients::Form),
            Some(stream) => match stream.get() {
                Some(recorded) => self.system.sweep(x, y, &mut Coefficients::Replay(recorded)),
                None => {
                    let mut recorded = Vec::with_capacity(self.system.traffic.packed_terms);
                    self.system.sweep(x, y, &mut Coefficients::Record(&mut recorded));
                    // empty until now, and the operator is not `Sync`
                    let _ = stream.set(recorded);
                }
            },
        }
        counters.accumulate(self.system.traffic.at::<T>());
        for ((yi, &xi), &di) in y.iter_mut().zip(x).zip(&self.diagonal) {
            *yi = di * xi - *yi;
        }
        // the fused diagonal sweep, in place over the off-diagonal product:
        // one multiply and one subtract per element, streaming the
        // diagonal, x and y and writing y once (same per-vector accounting
        // as the built-in mgk_linalg operators)
        let n = self.diagonal.len() as u64;
        counters.flops += 2 * n;
        counters.global_load_bytes += 3 * n * T::BYTES;
        counters.global_store_bytes += n * T::BYTES;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::MarginalizedKernelSolver;
    use mgk_graph::Graph;
    use mgk_kernels::UnitKernel;
    use mgk_linalg::LinearOperator;

    fn unlabeled_pair() -> (Graph, Graph) {
        let g1 = Graph::from_edge_list(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let g2 = Graph::from_edge_list(4, &[(0, 1), (1, 2), (2, 3)]);
        (g1, g2)
    }

    fn assemble() -> ProductSystem<mgk_graph::Unlabeled, UnitKernel> {
        let (g1, g2) = unlabeled_pair();
        ProductSystem::assemble(&g1, &g2, &UnitKernel, UnitKernel, &SolverConfig::default())
    }

    #[test]
    fn diagonal_and_rhs_shapes() {
        let sys = assemble();
        assert_eq!(sys.dim(), 20);
        assert_eq!(sys.shape(), (5, 4));
        assert_eq!(sys.rhs::<f32>().len(), 20);
        assert_eq!(sys.system_diagonal::<f32>().len(), 20);
        // with unit vertex kernel the diagonal equals the degree product
        let d = sys.system_diagonal::<f32>();
        let (g1, g2) = unlabeled_pair();
        let expect = kron_vec(&g1.laplacian_degrees(), &g2.laplacian_degrees());
        for (a, b) in d.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-6);
        }
        // preconditioner is the element-wise inverse of the diagonal here
        for (p, d) in sys.preconditioner_diagonal::<f32>().iter().zip(&d) {
            assert!((p * d - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn off_diagonal_apply_counts_flops() {
        let x: Vec<f32> = (0..20).map(|k| 0.05 * k as f32 - 0.3).collect();
        let sys = assemble();
        let mut y = vec![0.0f32; 20];
        let mut traffic = TrafficCounters::new();
        sys.apply_off_diagonal(&x, &mut y, &mut traffic);
        assert!(traffic.flops > 0);
    }

    #[test]
    fn system_operator_is_diagonal_minus_off_diagonal() {
        let sys = assemble();
        let op = SystemOperator::<_, _, f32>::new(&sys);
        assert_eq!(LinearOperator::<f32>::dim(&op), 20);
        let x = vec![1.0f32; 20];
        let y = op.apply_alloc(&x);
        let diag = sys.system_diagonal::<f32>();
        let mut off = vec![0.0f32; 20];
        sys.apply_off_diagonal(&x, &mut off, &mut TrafficCounters::new());
        for i in 0..20 {
            assert!((y[i] - (diag[i] - off[i])).abs() < 1e-5);
        }
    }

    #[test]
    fn counted_apply_matches_plain_apply_and_reports_traffic() {
        let sys = assemble();
        let op = SystemOperator::new(&sys);
        let x: Vec<f32> = (0..20).map(|k| 0.1 * k as f32 - 1.0).collect();
        let plain = op.apply_alloc(&x);
        let mut counted = vec![0.0f32; 20];
        let mut traffic = TrafficCounters::new();
        op.apply_counted(&x, &mut counted, &mut traffic);
        assert_eq!(plain, counted);
        assert!(traffic.flops > 0);
        assert!(traffic.global_load_bytes > 0);
        // a second application doubles the counters exactly
        let once = traffic;
        op.apply_counted(&x, &mut counted, &mut traffic);
        assert_eq!(traffic, once.scaled(2));
    }

    /// `g1` and `g2` in the solver's tiling order, assembled as it would.
    fn assemble_prepared<V: Clone, E: Copy + Default, KV: BaseKernel<V>, KE: BaseKernel<E>>(
        g1: &Graph<V, E>,
        g2: &Graph<V, E>,
        vertex_kernel: &KV,
        edge_kernel: KE,
    ) -> ProductSystem<E, KE> {
        let solver = MarginalizedKernelSolver::unlabeled(SolverConfig::default());
        let (a, b) = (solver.prepare_graph(g1), solver.prepare_graph(g2));
        ProductSystem::from_prepared(&a, &b, vertex_kernel, edge_kernel)
    }

    /// Apply `op` twice and return its stream's length and capacity after
    /// each application, or `None` when it keeps no stream.
    fn stream_after_two_applies<E, KE, T>(
        op: &SystemOperator<'_, E, KE, T>,
    ) -> Option<[(usize, usize); 2]>
    where
        T: Scalar,
        E: Copy + Default,
        KE: BaseKernel<E>,
    {
        let x = vec![T::from_f64(0.5); op.dim()];
        let mut y = vec![T::ZERO; op.dim()];
        let cell = op.coefficients.as_ref()?;
        assert!(cell.get().is_none(), "the stream is filled by the first application");
        let mut shapes = [(0, 0); 2];
        for shape in &mut shapes {
            op.apply(&x, &mut y);
            let stream = cell.get()?;
            *shape = (stream.len(), stream.capacity());
        }
        Some(shapes)
    }

    #[test]
    fn a_molecule_pair_streams_exactly_its_packed_terms() {
        use mgk_datasets::molecules::synthetic_molecule;
        use mgk_kernels::KroneckerDelta;
        use rand::{rngs::StdRng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(37);
        let (g1, g2) = (synthetic_molecule(48, &mut rng), synthetic_molecule(80, &mut rng));
        let kernel = KroneckerDelta::new(0.5);
        let sys = assemble_prepared(&g1, &g2, &kernel, kernel);
        let terms = sys.traffic.packed_terms;
        assert!(terms > 0, "a molecule pair routes tile pairs to the packed loop");
        // recorded once at its exact size, then read, never regrown
        let exact = Some([(terms, terms); 2]);
        assert_eq!(stream_after_two_applies(&SystemOperator::<_, _, f32>::new(&sys)), exact);
        assert_eq!(stream_after_two_applies(&SystemOperator::<_, _, f64>::new(&sys)), exact);
    }

    #[test]
    fn an_nws_ba_pair_does_not_stream() {
        use mgk_graph::generators::{barabasi_albert, newman_watts_strogatz};
        use rand::{rngs::StdRng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(37);
        let nws = newman_watts_strogatz(96, 3, 0.1, &mut rng);
        let ba = barabasi_albert(96, 6, &mut rng);
        let sys = assemble_prepared(&nws, &ba, &UnitKernel, UnitKernel);
        let bytes = sys.product_nnz() * f32::BYTES;
        assert!(bytes > COEFFICIENT_STREAM_BYTES, "{bytes} B of coefficients at f32");
        assert!(SystemOperator::<_, _, f32>::new(&sys).coefficients.is_none());
        assert!(SystemOperator::<_, _, f64>::new(&sys).coefficients.is_none());
    }

    #[test]
    fn the_gate_reads_the_whole_product_graph_at_the_vector_precision() {
        use mgk_datasets::molecules::synthetic_molecule;
        use mgk_datasets::protein::synthetic_structure;
        use mgk_graph::generators::newman_watts_strogatz;
        use mgk_kernels::{KroneckerDelta, SquareExponential};
        use rand::{rngs::StdRng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(37);
        let kernel = KroneckerDelta::new(0.5);
        let (a, b) = (synthetic_molecule(120, &mut rng), synthetic_molecule(80, &mut rng));
        let sys = assemble_prepared(&a, &b, &kernel, kernel);
        let bytes = sys.product_nnz() * f32::BYTES;
        assert!((COEFFICIENT_STREAM_BYTES / 2..=COEFFICIENT_STREAM_BYTES).contains(&bytes));
        assert!(SystemOperator::<_, _, f32>::new(&sys).coefficients.is_some());
        assert!(SystemOperator::<_, _, f64>::new(&sys).coefficients.is_none());

        // a protein pair routes only a few tile pairs to the packed loop, so
        // its stream would be small, but its product graph is not
        let (a, b) = (synthetic_structure(48, &mut rng), synthetic_structure(48, &mut rng));
        let edge_kernel = SquareExponential::new(1.0);
        let sys = assemble_prepared(&a.graph, &b.graph, &kernel, edge_kernel);
        assert!(sys.traffic.packed_terms as u64 * f64::BYTES <= COEFFICIENT_STREAM_BYTES);
        assert!(SystemOperator::<_, _, f32>::new(&sys).coefficients.is_none());

        let nws = newman_watts_strogatz(96, 3, 0.1, &mut rng);
        let other = newman_watts_strogatz(96, 3, 0.1, &mut rng);
        let sys = assemble_prepared(&nws, &other, &UnitKernel, UnitKernel);
        assert!(sys.traffic.packed_terms as u64 * f32::BYTES <= COEFFICIENT_STREAM_BYTES);
        assert!(SystemOperator::<_, _, f32>::new(&sys).coefficients.is_none());
    }

    #[test]
    fn system_matrix_is_symmetric_positive_definite() {
        // build the dense system matrix column by column and check symmetry
        // and positive definiteness via Cholesky
        let sys = assemble();
        let op = SystemOperator::new(&sys);
        let nm = sys.dim();
        let mut mat = vec![0.0f64; nm * nm];
        for j in 0..nm {
            let mut e = vec![0.0f32; nm];
            e[j] = 1.0;
            let col = op.apply_alloc(&e);
            for i in 0..nm {
                mat[i * nm + j] = col[i] as f64;
            }
        }
        for i in 0..nm {
            for j in 0..nm {
                assert!((mat[i * nm + j] - mat[j * nm + i]).abs() < 1e-5, "asymmetry at ({i},{j})");
            }
        }
        let b = vec![1.0f64; nm];
        assert!(
            mgk_linalg::direct::cholesky_solve(&mat, &b).is_some(),
            "system matrix is not positive definite"
        );
    }
}
