//! Projected execution time from traffic counters and a device model.
//!
//! The projection follows the Roofline logic: the kernel takes at least as
//! long as its arithmetic at peak throughput, its global traffic at peak
//! device bandwidth and its shared traffic at peak shared bandwidth — the
//! largest of the three bounds dominates. Occupancy derates the achievable
//! arithmetic throughput (an SM that cannot keep enough warps in flight
//! cannot reach peak issue rate).

use mgk_linalg::TrafficCounters;

use crate::device::DeviceSpec;

/// What limits the projected execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// Limited by arithmetic throughput.
    Compute,
    /// Limited by device (global) memory bandwidth.
    GlobalMemory,
    /// Limited by shared memory bandwidth.
    SharedMemory,
}

/// Breakdown of a projected execution time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeEstimate {
    /// Time needed by the arithmetic alone, in seconds.
    pub compute_seconds: f64,
    /// Time needed by the global-memory traffic alone, in seconds.
    pub global_seconds: f64,
    /// Time needed by the shared-memory traffic alone, in seconds.
    pub shared_seconds: f64,
    /// The projected execution time (maximum of the three), in seconds.
    pub total_seconds: f64,
    /// Which resource dominates.
    pub bound: Bound,
    /// Achieved fraction of device peak FLOP throughput.
    pub flops_efficiency: f64,
}

/// Project the execution time of a kernel with the given aggregate traffic
/// on `device`, assuming the whole device is available and the kernel runs
/// at `occupancy ∈ (0, 1]` of peak issue rate.
pub fn estimate_time(
    device: &DeviceSpec,
    counters: &TrafficCounters,
    occupancy: f64,
) -> TimeEstimate {
    let occ = occupancy.clamp(1e-3, 1.0);
    // an SM needs a reasonable number of resident warps to hide latency;
    // beyond ~50% occupancy the issue rate is typically saturated
    let issue_derate = (occ * 2.0).min(1.0);
    let peak_flops = device.peak_sp_gflops() * 1e9 * issue_derate;
    let global_bw = device.global_bandwidth_gbs * 1e9;
    let shared_bw = device.shared_bandwidth_gbs() * 1e9;

    let compute_seconds = counters.flops as f64 / peak_flops;
    let global_seconds = counters.global_bytes() as f64 / global_bw;
    let shared_seconds = counters.shared_bytes() as f64 / shared_bw;
    let total_seconds = compute_seconds.max(global_seconds).max(shared_seconds).max(1e-12);
    let bound = if total_seconds == compute_seconds {
        Bound::Compute
    } else if total_seconds == global_seconds {
        Bound::GlobalMemory
    } else {
        Bound::SharedMemory
    };
    TimeEstimate {
        compute_seconds,
        global_seconds,
        shared_seconds,
        total_seconds,
        bound,
        flops_efficiency: (counters.flops as f64 / total_seconds) / (device.peak_sp_gflops() * 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xmv::{NaiveProduct, ProblemShape, XmvPrimitive};

    fn shape() -> ProblemShape {
        ProblemShape::unlabeled(72, 72)
    }

    fn naive_pair() -> TrafficCounters {
        NaiveProduct::modeled_traffic(&shape())
    }

    fn per_pair(kind: XmvPrimitive) -> TrafficCounters {
        kind.modeled_traffic(&shape())
    }

    #[test]
    fn naive_is_global_memory_bound() {
        let d = DeviceSpec::volta_v100();
        let est = estimate_time(&d, &naive_pair(), 1.0);
        assert_eq!(est.bound, Bound::GlobalMemory);
        assert!(est.flops_efficiency < 0.05);
    }

    #[test]
    fn octile_primitive_is_much_faster_than_naive() {
        let d = DeviceSpec::volta_v100();
        // 5120 pairs of 72-node graphs, as in Fig. 5
        let naive = estimate_time(&d, &naive_pair().scaled(5120), 1.0);
        let octile = estimate_time(&d, &per_pair(XmvPrimitive::OCTILE).scaled(5120), 1.0);
        assert!(octile.total_seconds * 3.0 < naive.total_seconds);
        assert!(octile.flops_efficiency > 0.5);
    }

    #[test]
    fn ordering_of_primitives_matches_figure_5() {
        // walltime: tiling-blocking < register-blocking(8,8) and
        // shared-tiling(8,8); all beat the naive kernel
        let d = DeviceSpec::volta_v100();
        let time = |c: TrafficCounters| estimate_time(&d, &c.scaled(5120), 1.0).total_seconds;
        let naive = time(naive_pair());
        let shared = time(per_pair(XmvPrimitive::SharedTiling { t: 8, r: 8 }));
        let reg = time(per_pair(XmvPrimitive::RegisterBlocking { t: 8, r: 8 }));
        let octile = time(per_pair(XmvPrimitive::OCTILE));
        assert!(octile < shared, "octile {octile} vs shared {shared}");
        assert!(octile < reg, "octile {octile} vs register {reg}");
        assert!(shared < naive && reg < naive);
    }

    #[test]
    fn low_occupancy_slows_compute_bound_kernels() {
        let d = DeviceSpec::volta_v100();
        let c = per_pair(XmvPrimitive::OCTILE);
        let full = estimate_time(&d, &c, 1.0);
        let starved = estimate_time(&d, &c, 0.1);
        assert!(starved.total_seconds > full.total_seconds);
    }

    #[test]
    fn on_the_fly_gain_is_larger_on_the_bandwidth_starved_pascal_card() {
        // Section III-D compares against a Titan X Pascal: with GDDR memory
        // the global-bandwidth-bound naive kernel suffers relatively more,
        // so regenerating the product on the fly pays off even more there.
        let volta = DeviceSpec::volta_v100();
        let pascal = DeviceSpec::titan_x_pascal();
        let speedup = |d: &DeviceSpec| {
            let naive = estimate_time(d, &naive_pair(), 1.0).total_seconds;
            let octile = estimate_time(d, &per_pair(XmvPrimitive::OCTILE), 1.0).total_seconds;
            naive / octile
        };
        assert!(speedup(&pascal) > speedup(&volta));
        assert!(speedup(&volta) > 10.0);
    }
}
