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
//! mutability on the system itself. Those counts are a per-apply ledger
//! summed once at assembly from the tile pairs' closed forms, the storage
//! and sharing configuration and the global terms; an application adds it
//! once instead of re-deriving it per tile pair.

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

use std::sync::Arc;

use mgk_graph::Graph;
use mgk_kernels::BaseKernel;
use mgk_linalg::{
    kron_vec, kronecker::generalized_kron_vec, LinearOperator, Scalar, TrafficCounters,
};
use mgk_tile::TILE_SIZE;

use crate::octile_ops::{
    sweep_inner_layers, tile_pair_traffic, KindTable, OuterSweep, PairContext, PaneledTile,
    TileCosts, TileLayers, TileProductKind,
};
use crate::prepared::{Octiles, PreparedGraph};
use crate::solver::{MarginalizedKernelSolver, SolverConfig};

/// The traffic one application of the octile operator counts. Every term
/// depends on the pair's tiles, the table's picks, the storage and sharing
/// configuration and the vector width, and none on the vector, so it is
/// summed once at assembly, at both widths.
struct ApplyTraffic {
    at_f32: TrafficCounters,
    at_f64: TrafficCounters,
}

impl ApplyTraffic {
    /// Sum, over every tile pair of the sweep, the closed form of the
    /// primitive `kinds` routes it to (dense×dense without a table), plus the
    /// operator's global terms: each outer tile loaded once per sweep, each
    /// inner tile once per outer tile with the load shared across the
    /// `block_sharing` warps of a block (Section V-A), one right-hand-side
    /// block per tile pair and one write-back of `y`. Tile payloads and
    /// labels keep their stored (`f32`) sizes at every vector precision; only
    /// the right-hand-side reads inside a tile pair and the write-back follow
    /// the vector width.
    fn octile<E: Copy + Default>(
        left: &Octiles<E>,
        right: &Octiles<E>,
        kinds: Option<&KindTable>,
        costs: &TileCosts,
        (n, m): (usize, usize),
        config: &SolverConfig,
    ) -> Self {
        let fb = costs.float_bytes as u64;
        let eb = costs.label_bytes as u64;
        let tile_bytes = |t: &mgk_tile::Octile<E>| -> u64 {
            if config.compact_storage {
                8 + t.nnz() as u64 * (fb + eb)
            } else {
                (TILE_SIZE * TILE_SIZE) as u64 * (fb + eb)
            }
        };
        let sharing = config.block_sharing.max(1) as u64;
        let (mut at_f32, mut at_f64) = (TrafficCounters::new(), TrafficCounters::new());
        let mut global_loads = 0;
        for t1 in left.matrix.tiles() {
            global_loads += tile_bytes(t1);
            for t2 in right.matrix.tiles() {
                global_loads += tile_bytes(t2).div_ceil(sharing);
                global_loads += (TILE_SIZE * TILE_SIZE) as u64 * fb;
                let kind = kinds.map_or(TileProductKind::DenseDense, |k| k.get(t1.nnz(), t2.nnz()));
                at_f32.accumulate(&tile_pair_traffic(kind, t1, t2, (n, m), costs, f32::BYTES));
                at_f64.accumulate(&tile_pair_traffic(kind, t1, t2, (n, m), costs, f64::BYTES));
            }
        }
        for (ledger, vb) in [(&mut at_f32, f32::BYTES), (&mut at_f64, f64::BYTES)] {
            ledger.global_load_bytes += global_loads;
            ledger.global_store_bytes += (n * m) as u64 * vb;
        }
        ApplyTraffic { at_f32, at_f64 }
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
    /// [`PreparedGraph`]s were built with once. Their panels and the inner
    /// operand's layer index are built per system, so every CG iteration's
    /// tile-pair sweep reuses them.
    left: Octiles<E>,
    right: Octiles<E>,
    /// `right`'s tiles in layers, for the packed loop.
    layers: TileLayers<E>,
    /// The adaptive-selection table shared by every system of this kernel
    /// cost (the per-pair decision is a lookup, not three cost estimates),
    /// or `None` to force the dense×dense primitive.
    kinds: Option<Arc<KindTable>>,
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
    /// Assemble the system for a pair of graphs under a solver
    /// configuration. The graphs are taken as already ordered: they are
    /// tiled as they stand, whatever reordering the configuration names
    /// (the solver's own entry points apply that first).
    pub fn assemble<V, KV>(
        g1: &Graph<V, E>,
        g2: &Graph<V, E>,
        vertex_kernel: &KV,
        edge_kernel: KE,
        config: &SolverConfig,
    ) -> Self
    where
        V: Clone,
        KV: BaseKernel<V>,
        KE: Clone,
    {
        let tile = |g: &Graph<V, E>| PreparedGraph::new(g.clone());
        MarginalizedKernelSolver::new(vertex_kernel, edge_kernel, *config)
            .assemble_prepared(&tile(g1), &tile(g2))
    }

    /// Assemble the system of two prepared structures — the one assembly
    /// path.
    pub(crate) fn from_prepared<V, KV>(
        a: &PreparedGraph<V, E>,
        b: &PreparedGraph<V, E>,
        vertex_kernel: &KV,
        edge_kernel: KE,
        config: &SolverConfig,
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

        let (left, right) = (a.octiles(), b.octiles());
        let layers = TileLayers::new(right.matrix.tiles());
        let kinds = config.adaptive_tiles.then(|| KindTable::shared(cost.flops));
        let dims = (g1.num_vertices(), g2.num_vertices());
        let traffic =
            ApplyTraffic::octile(&left, &right, kinds.as_deref(), &tile_costs, dims, config);

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
    pub fn apply_off_diagonal<T: Scalar>(
        &self,
        x: &[T],
        y: &mut [T],
        counters: &mut TrafficCounters,
    ) {
        y.iter_mut().for_each(|v| *v = T::ZERO);
        let ctx = PairContext {
            n: self.n,
            m: self.m,
            kernel: &self.edge_kernel,
            costs: &self.tile_costs,
        };
        let mut sweep = OuterSweep::new();
        for (t1, p1) in self.left.matrix.tiles().iter().zip(&self.left.panels) {
            // the outer tile is loaded once and kept for the whole sweep over
            // the inner graph
            sweep.decode(t1, self.m);
            sweep_inner_layers(
                &mut sweep,
                PaneledTile { tile: t1, panels: p1 },
                (self.right.matrix.tiles(), &self.right.panels),
                &self.layers,
                self.kinds.as_deref(),
                ctx,
                x,
                y,
            );
        }
        counters.accumulate(self.traffic.at::<T>());
    }
}

/// Adapter making a `ProductSystem` usable as the full system operator
/// `D× V×⁻¹ − A× ∘ E×` for the conjugate gradient solver, at the vector
/// [`Scalar`] precision `T` (defaulting to the `f32` serving precision).
///
/// The off-diagonal part is [`ProductSystem::apply_off_diagonal`]; the
/// diagonal is precomputed at precision `T` and fused into the same sweep.
/// Traffic is threaded through
/// [`apply_counted`](LinearOperator::apply_counted); the operator holds no
/// counter state.
pub struct SystemOperator<'a, E, KE, T: Scalar = f32> {
    system: &'a ProductSystem<E, KE>,
    diagonal: Vec<T>,
}

impl<'a, E, KE, T> SystemOperator<'a, E, KE, T>
where
    T: Scalar,
    E: Copy + Default,
    KE: BaseKernel<E>,
{
    /// Wrap an assembled product system.
    pub fn new(system: &'a ProductSystem<E, KE>) -> Self {
        SystemOperator { system, diagonal: system.system_diagonal::<T>() }
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
        self.system.apply_off_diagonal(x, y, counters);
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
    use crate::solver::SolverConfig;
    use mgk_graph::Graph;
    use mgk_kernels::UnitKernel;
    use mgk_linalg::LinearOperator;

    fn unlabeled_pair() -> (Graph, Graph) {
        let g1 = Graph::from_edge_list(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let g2 = Graph::from_edge_list(4, &[(0, 1), (1, 2), (2, 3)]);
        (g1, g2)
    }

    fn assemble(config: &SolverConfig) -> ProductSystem<mgk_graph::Unlabeled, UnitKernel> {
        let (g1, g2) = unlabeled_pair();
        ProductSystem::assemble(&g1, &g2, &UnitKernel, UnitKernel, config)
    }

    #[test]
    fn diagonal_and_rhs_shapes() {
        let sys = assemble(&SolverConfig::default());
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
    fn all_three_off_diagonal_modes_agree() {
        // mgk-bench checks the naive and dense products against this one
        let x: Vec<f32> = (0..20).map(|k| 0.05 * k as f32 - 0.3).collect();
        let sys = assemble(&SolverConfig::default());
        let mut y = vec![0.0f32; 20];
        let mut traffic = TrafficCounters::new();
        sys.apply_off_diagonal(&x, &mut y, &mut traffic);
        assert!(traffic.flops > 0);
    }

    #[test]
    fn system_operator_is_diagonal_minus_off_diagonal() {
        let sys = assemble(&SolverConfig::default());
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
        let sys = assemble(&SolverConfig::default());
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

    #[test]
    fn compact_storage_reduces_global_traffic() {
        let x = vec![0.5f32; 20];
        let run = |compact: bool| {
            let config = SolverConfig { compact_storage: compact, ..SolverConfig::default() };
            let sys = assemble(&config);
            let mut y = vec![0.0f32; 20];
            let mut traffic = TrafficCounters::new();
            sys.apply_off_diagonal(&x, &mut y, &mut traffic);
            traffic.global_load_bytes
        };
        assert!(run(true) < run(false));
    }

    #[test]
    fn block_sharing_reduces_global_traffic() {
        let x = vec![0.5f32; 20];
        let run = |sharing: usize| {
            let config = SolverConfig { block_sharing: sharing, ..SolverConfig::default() };
            let sys = assemble(&config);
            let mut y = vec![0.0f32; 20];
            let mut traffic = TrafficCounters::new();
            sys.apply_off_diagonal(&x, &mut y, &mut traffic);
            traffic.global_load_bytes
        };
        assert!(run(8) < run(1));
    }

    #[test]
    fn system_matrix_is_symmetric_positive_definite() {
        // build the dense system matrix column by column and check symmetry
        // and positive definiteness via Cholesky
        let sys = assemble(&SolverConfig::default());
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
