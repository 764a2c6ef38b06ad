//! The incremental optimization levels of the Fig. 9 ablation study.
//!
//! Each level inherits everything from the previous one and enables one
//! additional technique, in the same order the paper presents them:
//!
//! | level | adds |
//! |---|---|
//! | `Dense` | the dense on-the-fly tiling-blocking kernel (all tiles processed) |
//! | `Sparse` | inter-tile sparsity: only non-empty octiles are streamed |
//! | `Reorder` | PBR vertex reordering |
//! | `Adaptive` | dynamic dense/sparse tile-primitive selection |
//! | `Compact` | compact (bitmap + packed) tile storage |
//! | `Block` | block-level octile sharing between warps |
//! | `DynamicScheduling` | dynamic scheduling of graph pairs |

use mgk_core::{
    GramConfig, GramEngine, GramResult, MarginalizedKernelSolver, Scheduling, SolverConfig,
};
use mgk_graph::Graph;
use mgk_kernels::BaseKernel;
use mgk_reorder::ReorderMethod;

use crate::dense::{DenseSolver, DenseXmv};
use crate::xmv::XmvPrimitive;

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

    /// The dense on-the-fly primitive of the `Dense` level, or `None` from
    /// `Sparse` on, where the solver's octile operator takes over.
    pub fn dense_primitive(self) -> Option<XmvPrimitive> {
        (self < OptimizationLevel::Sparse).then_some(XmvPrimitive::OCTILE)
    }

    /// The per-pair solver configuration of this level, inheriting
    /// tolerance/iteration settings from `base`.
    pub fn solver_config(self, base: &SolverConfig) -> SolverConfig {
        let mut cfg = SolverConfig {
            reorder: ReorderMethod::Natural,
            adaptive_tiles: false,
            compact_storage: false,
            block_sharing: 1,
            ..*base
        };
        if self >= OptimizationLevel::Reorder {
            cfg.reorder = ReorderMethod::Pbr;
        }
        if self >= OptimizationLevel::Adaptive {
            cfg.adaptive_tiles = true;
        }
        if self >= OptimizationLevel::Compact {
            cfg.compact_storage = true;
        }
        if self >= OptimizationLevel::Block {
            cfg.block_sharing = 8;
        }
        cfg
    }

    /// The Gram-matrix scheduling policy of this level.
    pub fn scheduling(self) -> Scheduling {
        if self >= OptimizationLevel::DynamicScheduling {
            Scheduling::Dynamic
        } else {
            Scheduling::Static
        }
    }

    /// The normalized Gram matrix of `graphs` at this level. The `Dense`
    /// level solves with its [`dense_primitive`](Self::dense_primitive)
    /// through [`DenseSolver::gram`] (static scheduling); every other level
    /// runs `GramEngine` with this level's configuration and scheduling.
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
        match self.dense_primitive() {
            Some(primitive) => {
                DenseSolver::new(vertex_kernel, edge_kernel, config, DenseXmv::OnTheFly(primitive))
                    .gram(graphs)
            }
            None => GramEngine::new(
                MarginalizedKernelSolver::new(vertex_kernel, edge_kernel, config),
                GramConfig { scheduling: self.scheduling(), normalize: true },
            )
            .compute(graphs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_cumulative() {
        let base = SolverConfig::default();
        let dense = OptimizationLevel::Dense.solver_config(&base);
        assert!(OptimizationLevel::Dense.dense_primitive().is_some());
        assert_eq!(dense.reorder, ReorderMethod::Natural);

        let sparse = OptimizationLevel::Sparse.solver_config(&base);
        assert_eq!(OptimizationLevel::Sparse.dense_primitive(), None);
        assert!(!sparse.adaptive_tiles);

        let reorder = OptimizationLevel::Reorder.solver_config(&base);
        assert_eq!(reorder.reorder, ReorderMethod::Pbr);

        let adaptive = OptimizationLevel::Adaptive.solver_config(&base);
        assert!(adaptive.adaptive_tiles);
        assert!(!adaptive.compact_storage);

        let compact = OptimizationLevel::Compact.solver_config(&base);
        assert!(compact.compact_storage);
        assert_eq!(compact.block_sharing, 1);

        let block = OptimizationLevel::Block.solver_config(&base);
        assert_eq!(block.block_sharing, 8);

        let dyn_sched = OptimizationLevel::DynamicScheduling.solver_config(&base);
        assert_eq!(dyn_sched.block_sharing, 8);
        assert_eq!(OptimizationLevel::DynamicScheduling.scheduling(), Scheduling::Dynamic);
        assert_eq!(OptimizationLevel::Block.scheduling(), Scheduling::Static);
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
