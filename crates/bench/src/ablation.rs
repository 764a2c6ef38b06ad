//! The incremental optimization levels of the Fig. 9 ablation study.
//!
//! Each level inherits everything from the previous one and enables one
//! additional technique, in the same order the paper presents them:
//!
//! | level | adds | runs |
//! |---|---|---|
//! | `Dense` | the dense on-the-fly tiling-blocking kernel (all tiles processed) | [`DenseSolver`], dense primitive |
//! | `Sparse` | inter-tile sparsity: only non-empty octiles are streamed | [`DenseSolver`], [`OctileProduct`] |
//! | `Reorder` | PBR vertex reordering | [`DenseSolver`], [`OctileProduct`] |
//! | `Adaptive` | dynamic dense/sparse tile-primitive selection | [`DenseSolver`], [`OctileProduct`] |
//! | `Compact` | compact (bitmap + packed) tile storage | [`DenseSolver`], [`OctileProduct`] |
//! | `Block` | block-level octile sharing between warps | the serving solver, one chunk of pairs per thread |
//! | `DynamicScheduling` | dynamic scheduling of graph pairs | `GramEngine` |
//!
//! From `Block` on, a level's configuration is the serving one, so it runs
//! the serving solver: its layered, streamed octile sweep. `Block` assigns
//! the pairs to threads up front, one contiguous chunk each, and
//! `DynamicScheduling` runs `GramEngine`, which hands them out one at a
//! time; each pair is the same solve either way. The levels below
//! it route tile pairs or count traffic in a way the serving operator does
//! not, so they run [`DenseSolver`]'s PCG driver with [`OctileProduct`], a
//! plain loop over the tile pairs with the level's own routing and global
//! traffic terms. It visits the tile pairs in the order the serving sweep
//! is pinned to, with primitives bit-identical to the serving ones: every
//! level gets the bits, the iteration count and the traffic it would get
//! from the serving operator with that level's policy.

use std::time::Instant;

use rayon::prelude::*;

use mgk_core::octile_ops::{
    tile_pair_product_with_panels, KindTable, PairContext, PaneledTile, TileCosts, TilePanels,
    TileProductKind,
};
use mgk_core::{GramConfig, GramEngine, GramResult, MarginalizedKernelSolver, SolverConfig};
use mgk_graph::Graph;
use mgk_kernels::BaseKernel;
use mgk_linalg::{Scalar, TrafficCounters};
use mgk_reorder::ReorderMethod;
use mgk_tile::{Octile, OctileMatrix, TILE_AREA};

use crate::dense::{static_gram, DenseSolver, DenseXmv};
use crate::xmv::XmvPrimitive;

/// The tile routing and the traffic policy of an octile operator: what
/// `Adaptive`, `Compact` and `Block` turn on one at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OctileXmv {
    /// Route each tile pair to the primitive `KindTable` picks (Fig. 8);
    /// otherwise every pair goes to dense×dense.
    pub adaptive: bool,
    /// Count each tile as stored compactly, an 8-byte bitmap and its packed
    /// nonzeros, rather than as a dense 8×8 block.
    pub compact: bool,
    /// The warps of a block that share each inner tile's load
    /// (Section V-A); 1 is no sharing.
    pub sharing: u64,
}

/// `A× ∘ E×` of one graph pair as a plain loop over its tile pairs: outer
/// tiles in order and, for each, inner tiles in order, every pair through
/// [`tile_pair_product_with_panels`] with the primitive `xmv` routes it to.
/// That is the order the serving operator's layered sweep is pinned to, so
/// at the serving policy (adaptive, compact, 8 warps) an application gives
/// the serving operator's bits and counts its traffic.
pub struct OctileProduct<E> {
    n: usize,
    m: usize,
    left: OctileMatrix<E>,
    left_panels: Vec<TilePanels<E>>,
    right: OctileMatrix<E>,
    right_panels: Vec<TilePanels<E>>,
    /// The table of an adaptive policy; `None` routes every pair to
    /// dense×dense.
    kinds: Option<KindTable>,
    costs: TileCosts,
    /// The global loads of one application: each outer tile once, each
    /// inner tile once per outer tile, shared across `sharing` warps, and
    /// one right-hand-side block per tile pair.
    global_loads: u64,
}

impl<E: Copy + Default> OctileProduct<E> {
    /// Tile a pair of (prepared) graphs for `xmv`.
    pub fn new<V, K: BaseKernel<E>>(
        g1: &Graph<V, E>,
        g2: &Graph<V, E>,
        edge_kernel: &K,
        xmv: OctileXmv,
    ) -> Self {
        let (left, right) = (OctileMatrix::from_graph(g1), OctileMatrix::from_graph(g2));
        let cost = edge_kernel.cost();
        let costs =
            TileCosts { label_bytes: cost.label_bytes, float_bytes: 4, kernel_flops: cost.flops };
        let (fb, eb) = (costs.float_bytes as u64, costs.label_bytes as u64);
        let tile_bytes = |t: &Octile<E>| {
            if xmv.compact {
                8 + t.nnz() as u64 * (fb + eb)
            } else {
                TILE_AREA as u64 * (fb + eb)
            }
        };
        let per_outer_tile: u64 = right
            .tiles()
            .iter()
            .map(|t2| tile_bytes(t2).div_ceil(xmv.sharing.max(1)) + TILE_AREA as u64 * fb)
            .sum();
        let global_loads = left.tiles().iter().map(|t1| tile_bytes(t1) + per_outer_tile).sum();
        OctileProduct {
            n: g1.num_vertices(),
            m: g2.num_vertices(),
            left_panels: left.tiles().iter().map(TilePanels::new).collect(),
            right_panels: right.tiles().iter().map(TilePanels::new).collect(),
            left,
            right,
            kinds: xmv.adaptive.then(|| KindTable::new(cost.flops)),
            costs,
            global_loads,
        }
    }

    /// `y += (A× ∘ E×) x`, adding the traffic of one application to
    /// `counters`: every tile pair's closed form, the global loads and one
    /// write-back of `y`.
    pub fn apply<T: Scalar, K: BaseKernel<E>>(
        &self,
        edge_kernel: &K,
        x: &[T],
        y: &mut [T],
        counters: &mut TrafficCounters,
    ) {
        let ctx = PairContext { n: self.n, m: self.m, kernel: edge_kernel, costs: &self.costs };
        for (t1, p1) in self.left.tiles().iter().zip(&self.left_panels) {
            for (t2, p2) in self.right.tiles().iter().zip(&self.right_panels) {
                let kind = self
                    .kinds
                    .as_ref()
                    .map_or(TileProductKind::DenseDense, |k| k.get(t1.nnz(), t2.nnz()));
                tile_pair_product_with_panels(
                    kind,
                    PaneledTile { tile: t1, panels: p1 },
                    PaneledTile { tile: t2, panels: p2 },
                    ctx,
                    x,
                    y,
                    counters,
                );
            }
        }
        counters.global_load_bytes += self.global_loads;
        counters.global_store_bytes += (self.n * self.m) as u64 * T::BYTES;
    }
}

/// One level of the incremental ablation of Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OptimizationLevel {
    /// The dense on-the-fly kernel (no sparsity exploitation).
    Dense,
    /// Prune empty octiles.
    Sparse,
    /// Add PBR reordering.
    Reorder,
    /// Add adaptive dense/sparse tile primitives.
    Adaptive,
    /// Add compact tile storage.
    Compact,
    /// Add block-level tile sharing.
    Block,
    /// Add dynamic scheduling of graph pairs.
    DynamicScheduling,
}

impl OptimizationLevel {
    /// All levels in the order they appear in Fig. 9.
    pub const ALL: [OptimizationLevel; 7] = [
        OptimizationLevel::Dense,
        OptimizationLevel::Sparse,
        OptimizationLevel::Reorder,
        OptimizationLevel::Adaptive,
        OptimizationLevel::Compact,
        OptimizationLevel::Block,
        OptimizationLevel::DynamicScheduling,
    ];

    /// The bar label used in Fig. 9.
    pub fn label(self) -> &'static str {
        match self {
            OptimizationLevel::Dense => "Dense",
            OptimizationLevel::Sparse => "Sparse",
            OptimizationLevel::Reorder => "+Reorder",
            OptimizationLevel::Adaptive => "+Adaptive",
            OptimizationLevel::Compact => "+Compact",
            OptimizationLevel::Block => "+Block",
            OptimizationLevel::DynamicScheduling => "+DynSched",
        }
    }

    /// How this level applies `A× ∘ E×` in [`DenseSolver`]: the dense
    /// on-the-fly primitive at `Dense`, [`OctileProduct`] with this level's
    /// policy from `Sparse` to `Compact`, or `None` from `Block` on, where
    /// the serving solver's own operator takes over.
    pub fn xmv(self) -> Option<DenseXmv> {
        use OptimizationLevel::*;
        match self {
            Dense => Some(DenseXmv::OnTheFly(XmvPrimitive::OCTILE)),
            Sparse | Reorder | Adaptive | Compact => Some(DenseXmv::Octile(OctileXmv {
                adaptive: self >= Adaptive,
                compact: self >= Compact,
                sharing: 1,
            })),
            Block | DynamicScheduling => None,
        }
    }

    /// The per-pair solver configuration of this level, inheriting
    /// tolerance/iteration settings from `base`: it tiles the natural vertex
    /// order below `Reorder` and the PBR order from it on.
    pub fn solver_config(self, base: &SolverConfig) -> SolverConfig {
        let reorder = if self >= OptimizationLevel::Reorder {
            ReorderMethod::Pbr
        } else {
            ReorderMethod::Natural
        };
        SolverConfig { reorder, ..*base }
    }

    /// The normalized Gram matrix of `graphs` at this level. Up to
    /// `Compact` it solves with the level's [`xmv`](Self::xmv) through
    /// [`DenseSolver::gram`]; `Block` solves with the serving solver under
    /// the same static assignment of pairs to threads; `DynamicScheduling`
    /// runs `GramEngine`.
    pub fn gram<V, E, KV, KE>(
        self,
        graphs: &[Graph<V, E>],
        vertex_kernel: KV,
        edge_kernel: KE,
        base: &SolverConfig,
    ) -> GramResult
    where
        V: Clone + Send + Sync,
        E: Copy + Default + Send + Sync,
        KV: BaseKernel<V> + Clone + Send + Sync,
        KE: BaseKernel<E> + Clone + Send + Sync,
    {
        let config = self.solver_config(base);
        if let Some(xmv) = self.xmv() {
            return DenseSolver::new(vertex_kernel, edge_kernel, config, xmv).gram(graphs);
        }
        let solver = MarginalizedKernelSolver::new(vertex_kernel, edge_kernel, config);
        if self == OptimizationLevel::DynamicScheduling {
            return GramEngine::new(solver, GramConfig::default()).compute(graphs);
        }
        let prep_start = Instant::now();
        let prepared: Vec<_> = graphs.par_iter().map(|g| solver.prepare_graph(g)).collect();
        static_gram(&prepared, prep_start.elapsed(), |a, b| {
            solver.kernel_prepared(a, b, config.precision)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AtomKernel, BondKernel};
    use mgk_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn levels_are_cumulative() {
        use OptimizationLevel::*;
        let base = SolverConfig::default();
        for level in OptimizationLevel::ALL {
            let expect = if level >= Reorder { ReorderMethod::Pbr } else { ReorderMethod::Natural };
            assert_eq!(level.solver_config(&base).reorder, expect, "{}", level.label());
        }

        assert_eq!(Dense.xmv(), Some(DenseXmv::OnTheFly(XmvPrimitive::OCTILE)));
        let octile =
            |adaptive, compact| Some(DenseXmv::Octile(OctileXmv { adaptive, compact, sharing: 1 }));
        assert_eq!(Sparse.xmv(), octile(false, false));
        assert_eq!(Reorder.xmv(), octile(false, false));
        assert_eq!(Adaptive.xmv(), octile(true, false));
        assert_eq!(Compact.xmv(), octile(true, true));
        // block sharing is the serving operator's policy
        assert_eq!(Block.xmv(), None);
        assert_eq!(DynamicScheduling.xmv(), None);
    }

    /// `Block` and `DynamicScheduling` differ only in how the pairs are
    /// assigned to threads: every pair is the same `kernel_prepared` call,
    /// so the two give the same bits, iterations and traffic.
    #[test]
    fn static_and_dynamic_scheduling_agree() {
        fn agree<V, E, KV, KE>(graphs: &[Graph<V, E>], vertex_kernel: KV, edge_kernel: KE)
        where
            V: Clone + Send + Sync,
            E: Copy + Default + Send + Sync,
            KV: BaseKernel<V> + Clone + Send + Sync,
            KE: BaseKernel<E> + Clone + Send + Sync,
        {
            let base = SolverConfig::default();
            let gram = |level: OptimizationLevel| {
                level.gram(graphs, vertex_kernel.clone(), edge_kernel.clone(), &base)
            };
            let (static_, dynamic) =
                (gram(OptimizationLevel::Block), gram(OptimizationLevel::DynamicScheduling));
            assert_eq!(static_.failures, 0);
            assert_eq!(dynamic.failures, 0);
            let bits = |m: &[f32]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&static_.matrix), bits(&dynamic.matrix));
            assert_eq!(static_.total_iterations, dynamic.total_iterations);
            assert_eq!(static_.traffic, dynamic.traffic);
        }

        let mut rng = StdRng::seed_from_u64(17);
        let graphs: Vec<Graph> = (0..5)
            .map(|k| {
                if k % 2 == 0 {
                    generators::newman_watts_strogatz(12 + k, 2, 0.2, &mut rng)
                } else {
                    generators::barabasi_albert(10 + k, 2, &mut rng)
                }
            })
            .collect();
        agree(&graphs, mgk_kernels::UnitKernel, mgk_kernels::UnitKernel);
        let mols = mgk_datasets::molecules::drugbank_like(6, 4, 30, &mut rng);
        agree(&mols, AtomKernel::default(), BondKernel::default());
    }

    #[test]
    fn labels_match_figure_9() {
        let labels: Vec<&str> = OptimizationLevel::ALL.iter().map(|l| l.label()).collect();
        assert_eq!(
            labels,
            vec!["Dense", "Sparse", "+Reorder", "+Adaptive", "+Compact", "+Block", "+DynSched"]
        );
    }

    #[test]
    fn tolerance_is_inherited_from_base() {
        let base = SolverConfig {
            solve: mgk_linalg::SolveOptions { tolerance: 1e-3, max_iterations: 7 },
            ..SolverConfig::default()
        };
        for level in OptimizationLevel::ALL {
            let cfg = level.solver_config(&base);
            assert_eq!(cfg.solve.tolerance, 1e-3);
            assert_eq!(cfg.solve.max_iterations, 7);
        }
    }
}
