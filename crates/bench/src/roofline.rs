//! The Roofline model (Williams et al., reference \[8\]) used in Figs. 3 and
//! 5 of the paper.

use mgk_linalg::TrafficCounters;

use crate::device::DeviceSpec;

/// A point on the Roofline plot: a kernel characterized by its arithmetic
/// intensities and its attainable/measured performance.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePoint {
    /// Label of the kernel or configuration.
    pub name: String,
    /// Arithmetic intensity vs. global memory (FLOPs/byte).
    pub ai_global: f64,
    /// Arithmetic intensity vs. shared memory (FLOPs/byte);
    /// `f64::INFINITY` when the kernel performs no shared traffic.
    pub ai_shared: f64,
    /// Attainable performance per SM in GFLOP/s under the Roofline bound.
    pub attainable_gflops_per_sm: f64,
    /// Fraction of the FMA peak that the attainable performance represents.
    pub peak_fraction: f64,
}

/// Roofline model for one device.
#[derive(Debug, Clone)]
pub struct RooflineModel {
    device: DeviceSpec,
}

impl RooflineModel {
    /// Build the model for a device.
    pub fn new(device: DeviceSpec) -> Self {
        RooflineModel { device }
    }

    /// The device the model was built for.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Attainable per-SM performance for a kernel limited by global memory
    /// only: `min(peak, AI × BW_global_per_SM)`.
    pub fn attainable_global(&self, ai_global: f64) -> f64 {
        (ai_global * self.device.global_bandwidth_gbs_per_sm())
            .min(self.device.peak_sp_gflops_per_sm())
    }

    /// Attainable per-SM performance for a kernel limited by shared memory
    /// only: `min(peak, AI × BW_shared_per_SM)`.
    fn attainable_shared(&self, ai_shared: f64) -> f64 {
        if ai_shared.is_infinite() {
            return self.device.peak_sp_gflops_per_sm();
        }
        (ai_shared * self.device.shared_bandwidth_gbs_per_sm())
            .min(self.device.peak_sp_gflops_per_sm())
    }

    /// Attainable per-SM performance considering both the global and shared
    /// memory roofs (the tighter of the two bounds applies).
    pub fn attainable(&self, ai_global: f64, ai_shared: f64) -> f64 {
        self.attainable_global(ai_global).min(self.attainable_shared(ai_shared))
    }

    /// Arithmetic intensity below which a kernel is global-memory-bound
    /// (the "ridge point" of the global roof).
    pub fn ridge_point_global(&self) -> f64 {
        self.device.peak_sp_gflops_per_sm() / self.device.global_bandwidth_gbs_per_sm()
    }

    /// Arithmetic intensity below which a kernel is shared-memory-bound.
    pub fn ridge_point_shared(&self) -> f64 {
        self.device.peak_sp_gflops_per_sm() / self.device.shared_bandwidth_gbs_per_sm()
    }

    /// Build a Roofline point from measured/modeled traffic counters.
    pub fn point(&self, name: impl Into<String>, counters: &TrafficCounters) -> RooflinePoint {
        let ai_global = counters.arithmetic_intensity_global();
        let ai_shared = counters.arithmetic_intensity_shared();
        let attainable = self.attainable(ai_global, ai_shared);
        RooflinePoint {
            name: name.into(),
            ai_global,
            ai_shared,
            attainable_gflops_per_sm: attainable,
            peak_fraction: attainable / self.device.peak_sp_gflops_per_sm(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xmv::{NaiveProduct, ProblemShape, XmvPrimitive};

    #[test]
    fn naive_solver_is_memory_bound_at_3_percent() {
        // Section II-D: the naive solver achieves at most ~3% of peak on
        // the V100
        let model = RooflineModel::new(DeviceSpec::volta_v100());
        let frac = model.attainable_global(0.5) / model.device().peak_sp_gflops_per_sm();
        assert!(frac < 0.035, "naive peak fraction {frac}");
        assert!(frac > 0.02);
    }

    #[test]
    fn on_the_fly_reuse_lifts_the_bound() {
        // Fig. 3: with reuse factors c = 4, 16, 64 the unlabeled on-the-fly
        // solver reaches intensities 3c/4 and climbs towards the peak
        let model = RooflineModel::new(DeviceSpec::volta_v100());
        let peak = model.device().peak_sp_gflops_per_sm();
        let fractions: Vec<f64> = [4.0, 16.0, 64.0]
            .iter()
            .map(|c| model.attainable_global(3.0 * c / 4.0) / peak)
            .collect();
        assert!(fractions[0] < fractions[1] && fractions[1] < fractions[2]);
        assert!(fractions[2] > 0.9, "c=64 should be close to compute bound: {}", fractions[2]);
        assert!(fractions[0] < 0.2);
    }

    #[test]
    fn ridge_points_are_ordered() {
        let model = RooflineModel::new(DeviceSpec::volta_v100());
        // shared memory is much faster, so its ridge point is far to the left
        assert!(model.ridge_point_shared() < model.ridge_point_global());
        assert!(model.ridge_point_global() > 15.0);
        assert!(model.ridge_point_shared() < 1.5);
    }

    #[test]
    fn tiling_blocking_point_is_compute_bound_on_v100() {
        let model = RooflineModel::new(DeviceSpec::volta_v100());
        let shape = ProblemShape::unlabeled(72, 72);
        let c = XmvPrimitive::OCTILE.modeled_traffic(&shape);
        let p = model.point("octile", &c);
        // Fig. 5 reports ~91% FLOPS efficiency for the (8,8) tiling-blocking
        // primitive; the Roofline bound itself must therefore be higher
        assert!(p.peak_fraction > 0.85, "peak fraction {}", p.peak_fraction);
        let naive = model.point("naive", &NaiveProduct::modeled_traffic(&shape));
        assert!(naive.peak_fraction < 0.05);
        assert!(p.attainable_gflops_per_sm > naive.attainable_gflops_per_sm * 10.0);
    }

    #[test]
    fn shared_tiling_is_limited_by_the_shared_roof() {
        let model = RooflineModel::new(DeviceSpec::volta_v100());
        let shape = ProblemShape::unlabeled(72, 72);
        let c = XmvPrimitive::SharedTiling { t: 8, r: 8 }.modeled_traffic(&shape);
        let p = model.point("shared-tiling", &c);
        // bound by shared memory, i.e. the shared bound is the tighter one
        let only_global = model.attainable_global(p.ai_global);
        assert!(p.attainable_gflops_per_sm < only_global);
    }
}
