//! GPU device specifications used by the Roofline and time-projection
//! models.

/// Hardware parameters of a GPU, at the granularity the paper's Roofline
/// analysis needs.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, e.g. "Tesla V100".
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Sustained SM clock in GHz.
    pub clock_ghz: f64,
    /// FP32 lanes (CUDA cores) per SM.
    pub fp32_lanes_per_sm: usize,
    /// Aggregate device (HBM/GDDR) memory bandwidth in GB/s.
    pub global_bandwidth_gbs: f64,
    /// Shared-memory bytes per SM per clock cycle (128 B/clk on Volta and
    /// Pascal).
    pub shared_bytes_per_clock_per_sm: f64,
    /// Threads per warp.
    pub warp_size: usize,
    /// Register file size per SM, in 32-bit registers.
    pub registers_per_sm: usize,
    /// Shared memory capacity per SM in bytes.
    pub shared_capacity_per_sm: usize,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: usize,
}

impl DeviceSpec {
    /// The Tesla V100 (Volta) configuration used by the paper's benchmarks
    /// on Summit. Microarchitectural constants follow Jia et al.,
    /// "Dissecting the NVIDIA Volta GPU Architecture via Microbenchmarking"
    /// (reference \[7\]).
    pub fn volta_v100() -> Self {
        DeviceSpec {
            name: "Tesla V100 (Volta)".to_string(),
            num_sms: 80,
            clock_ghz: 1.53,
            fp32_lanes_per_sm: 64,
            global_bandwidth_gbs: 900.0,
            shared_bytes_per_clock_per_sm: 128.0,
            warp_size: 32,
            registers_per_sm: 65_536,
            shared_capacity_per_sm: 96 * 1024,
            max_warps_per_sm: 64,
        }
    }

    /// The Titan X (Pascal) card used for the paper's secondary comparison
    /// in Section III-D (GDDR5X memory, lower bandwidth-to-compute ratio).
    pub fn titan_x_pascal() -> Self {
        DeviceSpec {
            name: "Titan X (Pascal)".to_string(),
            num_sms: 28,
            clock_ghz: 1.417,
            fp32_lanes_per_sm: 128,
            global_bandwidth_gbs: 480.0,
            shared_bytes_per_clock_per_sm: 128.0,
            warp_size: 32,
            registers_per_sm: 65_536,
            shared_capacity_per_sm: 96 * 1024,
            max_warps_per_sm: 64,
        }
    }

    /// Peak single-precision throughput in GFLOP/s assuming every
    /// instruction is a fused multiply-add (2 FLOPs per lane per clock).
    pub(crate) fn peak_sp_gflops(&self) -> f64 {
        self.num_sms as f64 * self.fp32_lanes_per_sm as f64 * 2.0 * self.clock_ghz
    }

    /// Peak throughput per SM in GFLOP/s (the y-axis of Figs. 3 and 5).
    pub fn peak_sp_gflops_per_sm(&self) -> f64 {
        self.peak_sp_gflops() / self.num_sms as f64
    }

    /// Aggregate shared-memory bandwidth in GB/s.
    pub(crate) fn shared_bandwidth_gbs(&self) -> f64 {
        self.num_sms as f64 * self.shared_bytes_per_clock_per_sm * self.clock_ghz
    }

    /// Shared-memory bandwidth per SM in GB/s.
    pub fn shared_bandwidth_gbs_per_sm(&self) -> f64 {
        self.shared_bytes_per_clock_per_sm * self.clock_ghz
    }

    /// Global-memory bandwidth per SM in GB/s.
    pub fn global_bandwidth_gbs_per_sm(&self) -> f64 {
        self.global_bandwidth_gbs / self.num_sms as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_peaks_match_published_figures() {
        let d = DeviceSpec::volta_v100();
        // ~15.7 TFLOP/s single precision
        assert!((d.peak_sp_gflops() - 15_667.2).abs() < 1.0);
        // ~196 GFLOP/s per SM — the "Peak SP" roof of Fig. 3
        assert!((d.peak_sp_gflops_per_sm() - 195.84).abs() < 0.1);
        // the paper quotes >10^4 GB/s of aggregate shared bandwidth
        assert!(d.shared_bandwidth_gbs() > 1.0e4);
        assert!(d.global_bandwidth_gbs_per_sm() < 12.0);
    }

    #[test]
    fn titan_x_is_more_memory_starved_than_v100() {
        let v = DeviceSpec::volta_v100();
        let t = DeviceSpec::titan_x_pascal();
        // FLOPs per byte of global bandwidth is higher on the GDDR card,
        // which is why the paper finds shared tiling relatively better there
        let ratio_v = v.peak_sp_gflops() / v.global_bandwidth_gbs;
        let ratio_t = t.peak_sp_gflops() / t.global_bandwidth_gbs;
        assert!(ratio_t > ratio_v);
    }
}
