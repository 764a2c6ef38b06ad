//! The paper's report binaries, their shared helpers, and the V100 model
//! they project onto.
//!
//! Every table and figure of the paper's evaluation has a dedicated report
//! binary under `src/bin/` (run with
//! `cargo run -p mgk-bench --release --bin <name>`). Wall-clock measurement
//! of the stack, layer by layer, is the `benchmark/` package's job.
//!
//! | paper artifact | binary |
//! |---|---|
//! | Fig. 3 (preliminary Roofline) | `fig3_roofline` |
//! | Table I (XMV cost model) | `table1_intensity` |
//! | Fig. 5 (XMV primitive micro-benchmark) | `fig5_primitives` |
//! | Fig. 6 (reordering examples) | `fig6_reorder_examples` |
//! | Fig. 7 (reordering across datasets) | `fig7_reorder_datasets` |
//! | Fig. 8 (profitable regions of tile primitives) | `fig8_profitable_regions` |
//! | Fig. 9 (incremental optimization ablation) | `fig9_ablation` |
//! | Fig. 10 (comparison with GraKeL/GraphKernels-style CPU baselines) | `fig10_package_comparison` |
//! | Table II (PCG convergence per dataset, f32 vs f64 precision) | `table2_convergence` |
//! | the answer ledger (kernel value bits on a fixed corpus) | `answer_ledger` |
//!
//! The CPU in this environment obviously cannot hit the absolute numbers of
//! a V100; each binary therefore reports both the measured CPU time of this
//! implementation and, where the paper's result is a GPU quantity, the
//! projection of the measured memory traffic onto the V100 model below.
//! Dataset sizes default to values that complete in minutes and can be
//! scaled with the `MGK_BENCH_SCALE` environment variable (a float
//! multiplier on dataset sizes; `1.0` is the default).
//!
//! The V100 model is analysis, not serving code, so it lives here beside the
//! bins that print it: device specifications ([`device`]), the Roofline
//! model of Figs. 3 and 5 ([`roofline`]), an occupancy model
//! ([`mod@occupancy`]), a projected-time estimator ([`project`]) and the
//! Fig. 8 warp-cycle selection rule ([`warp_cycles`]).
//!
//! The baselines the paper compares its solver against are here too: the
//! naive materialized product of Section II-D and the dense on-the-fly
//! primitives of Section III, with Table I's closed forms beside them
//! ([`xmv`]); the same primitives as whole solves over the solver's
//! assembled system ([`dense`]); the incremental optimization levels of
//! Fig. 9, whose `Dense` level is such a solve ([`ablation`]); and the
//! algorithms of the two CPU packages of Fig. 10, re-implemented because
//! neither package is available here: GraKeL's explicit solve is a
//! [`dense`] solve with the naive product, GraphKernels' is the fixed-point
//! iteration of [`fixed_point`]. [`spectral`] is the spectral method of
//! Section II-C for unlabeled graphs, an independent cross-check.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod answer_ledger;
pub mod dense;
pub mod device;
mod eigen;
pub mod fixed_point;
pub mod occupancy;
pub mod project;
pub mod roofline;
pub mod spectral;
pub mod warp_cycles;
pub mod xmv;

use mgk_graph::{AtomLabel, BondLabel, Element, Graph, Unlabeled};
use mgk_kernels::{BaseKernel, KroneckerDelta, SquareExponential};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Scale factor for dataset sizes, read from `MGK_BENCH_SCALE` (default 1).
/// A value that is set but is not a finite float above zero panics: falling
/// back to 1 would silently start the full-size, many-minute run.
pub fn bench_scale() -> f64 {
    match std::env::var_os("MGK_BENCH_SCALE") {
        None => 1.0,
        Some(value) => value.to_str().and_then(parse_scale).unwrap_or_else(|| {
            panic!("MGK_BENCH_SCALE={value:?} is not a finite float greater than 0")
        }),
    }
}

fn parse_scale(text: &str) -> Option<f64> {
    text.parse().ok().filter(|scale: &f64| scale.is_finite() && *scale > 0.0)
}

/// Scale a default count by [`bench_scale`], with a floor of `min`.
pub fn scaled(default: usize, min: usize) -> usize {
    ((default as f64 * bench_scale()).round() as usize).max(min)
}

/// Deterministic RNG shared by all benchmark binaries.
pub fn bench_rng() -> StdRng {
    StdRng::seed_from_u64(0x4d47_4b31)
}

/// Vertex base kernel for molecule-like graphs (element identity).
#[derive(Clone, Copy)]
pub struct AtomKernel(pub KroneckerDelta);

impl Default for AtomKernel {
    fn default() -> Self {
        AtomKernel(KroneckerDelta::new(0.2))
    }
}

impl BaseKernel<AtomLabel> for AtomKernel {
    const LABEL_BYTES: usize = 4;
    const FLOPS: usize = 4;

    fn eval(&self, a: &AtomLabel, b: &AtomLabel) -> f32 {
        self.0.eval(&a.element, &b.element)
    }
}

/// Edge base kernel for molecule-like graphs (bond-order identity).
#[derive(Clone, Copy)]
pub struct BondKernel(pub KroneckerDelta);

impl Default for BondKernel {
    fn default() -> Self {
        BondKernel(KroneckerDelta::new(0.3))
    }
}

impl BaseKernel<BondLabel> for BondKernel {
    const LABEL_BYTES: usize = 1;
    const FLOPS: usize = 4;

    fn eval(&self, a: &BondLabel, b: &BondLabel) -> f32 {
        self.0.eval(&a.order, &b.order)
    }
}

/// Vertex base kernel for protein-like graphs (element identity).
#[derive(Clone, Copy)]
pub struct ElementKernel(pub KroneckerDelta);

impl Default for ElementKernel {
    fn default() -> Self {
        ElementKernel(KroneckerDelta::new(0.3))
    }
}

impl BaseKernel<Element> for ElementKernel {
    const LABEL_BYTES: usize = 4;
    const FLOPS: usize = 4;

    fn eval(&self, a: &Element, b: &Element) -> f32 {
        self.0.eval(a, b)
    }
}

/// The square-exponential distance kernel used for protein edge labels.
pub fn distance_kernel() -> SquareExponential {
    SquareExponential::new(1.0)
}

/// The four benchmark datasets of Fig. 7 / Fig. 9, scaled for CPU use.
pub struct BenchmarkDatasets {
    /// Newman–Watts–Strogatz graphs (96 nodes, k = 3, p = 0.1).
    pub small_world: Vec<Graph<Unlabeled, Unlabeled>>,
    /// Barabási–Albert graphs (96 nodes, m = 6).
    pub scale_free: Vec<Graph<Unlabeled, Unlabeled>>,
    /// Protein-like structures with 3D coordinates.
    pub protein: Vec<mgk_datasets::ProteinStructure>,
    /// DrugBank-like molecules.
    pub drugbank: Vec<mgk_datasets::MoleculeGraph>,
}

/// Build the benchmark datasets. `graphs_per_set` controls the ensemble
/// sizes (the paper uses 160 synthetic graphs and the full real datasets).
pub fn benchmark_datasets(graphs_per_set: usize) -> BenchmarkDatasets {
    let mut rng = bench_rng();
    BenchmarkDatasets {
        small_world: mgk_datasets::small_world(graphs_per_set, &mut rng),
        scale_free: mgk_datasets::scale_free(graphs_per_set, &mut rng),
        protein: mgk_datasets::pdb_like(graphs_per_set, 60, 200, &mut rng),
        drugbank: mgk_datasets::drugbank_like(graphs_per_set, 4, 160, &mut rng),
    }
}

/// Format a duration in an engineering-friendly way.
pub fn fmt_duration(seconds: f64) -> String {
    if seconds >= 3600.0 {
        format!("{:.2} h", seconds / 3600.0)
    } else if seconds >= 60.0 {
        format!("{:.2} min", seconds / 60.0)
    } else if seconds >= 1.0 {
        format!("{seconds:.2} s")
    } else if seconds >= 1e-3 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{:.2} µs", seconds * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_respects_floor() {
        assert!(scaled(10, 2) >= 2);
    }

    #[test]
    fn scale_parsing_rejects_what_is_not_a_positive_finite_float() {
        assert_eq!(parse_scale("0.15"), Some(0.15));
        assert_eq!(parse_scale("2"), Some(2.0));
        for garbage in ["", "0", "-1", "nan", "inf", "0.15 ", "1,5", "fast"] {
            assert_eq!(parse_scale(garbage), None, "{garbage:?} must not fall back to 1.0");
        }
    }

    #[test]
    fn datasets_build() {
        let d = benchmark_datasets(2);
        assert_eq!(d.small_world.len(), 2);
        assert_eq!(d.scale_free.len(), 2);
        assert_eq!(d.protein.len(), 2);
        assert_eq!(d.drugbank.len(), 2);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(0.5e-3), "500.00 µs");
        assert_eq!(fmt_duration(2.0), "2.00 s");
        assert_eq!(fmt_duration(90.0), "1.50 min");
        assert_eq!(fmt_duration(7200.0), "2.00 h");
    }
}
