//! A simplified CUDA occupancy model.
//!
//! Section III-D of the paper attributes the collapse of the
//! register-blocking primitive at `r = 24` to register spilling, and
//! Section V argues that tiles larger than one octile per warp would
//! constrain occupancy. This module models the three classic occupancy
//! limiters — registers, shared memory and the resident-warp ceiling — so
//! that the benchmark harness can reproduce those effects qualitatively.

use crate::device::DeviceSpec;

/// Resource usage of one thread block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccupancyLimits {
    /// Threads per block.
    pub threads_per_block: usize,
    /// Registers used per thread.
    pub registers_per_thread: usize,
    /// Shared memory bytes used per block.
    pub shared_bytes_per_block: usize,
}

/// Hardware ceiling on registers per thread before the compiler spills to
/// local memory (255 on Volta/Pascal).
const MAX_REGISTERS_PER_THREAD: usize = 255;

/// Fraction of the maximum resident warps per SM that a kernel with the
/// given resource usage can sustain, in `(0, 1]`. Returns 0 when the block
/// does not fit on an SM at all.
pub fn occupancy(device: &DeviceSpec, limits: &OccupancyLimits) -> f64 {
    let warps_per_block = limits.threads_per_block.div_ceil(device.warp_size);
    if warps_per_block == 0 {
        return 0.0;
    }

    // blocks per SM limited by registers
    let regs_per_block = limits.registers_per_thread.min(MAX_REGISTERS_PER_THREAD)
        * warps_per_block
        * device.warp_size;
    let by_regs = device.registers_per_sm.checked_div(regs_per_block).unwrap_or(usize::MAX);

    // blocks per SM limited by shared memory
    let by_shared = device
        .shared_capacity_per_sm
        .checked_div(limits.shared_bytes_per_block)
        .unwrap_or(usize::MAX);

    // blocks per SM limited by the warp ceiling
    let by_warps = device.max_warps_per_sm / warps_per_block;

    let blocks = by_regs.min(by_shared).min(by_warps);
    if blocks == 0 {
        return 0.0;
    }
    let resident_warps = (blocks * warps_per_block).min(device.max_warps_per_sm);
    resident_warps as f64 / device.max_warps_per_sm as f64
}

/// Estimate the register demand of the register-blocking primitive with
/// chunk length `r`: the running accumulators, the staged chunk of the
/// second graph's weights/labels and loop bookkeeping all live in
/// registers. The constants follow the paper's observation that the
/// primitive spills "right before it reaches the top of the Roofline model
/// with r = 24".
pub fn register_blocking_registers(r: usize, labeled: bool) -> usize {
    let per_element = if labeled { 4 } else { 2 };
    40 + per_element * 2 * r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_occupancy_with_modest_resources() {
        let d = DeviceSpec::volta_v100();
        let o = occupancy(
            &d,
            &OccupancyLimits {
                threads_per_block: 256,
                registers_per_thread: 32,
                shared_bytes_per_block: 4096,
            },
        );
        assert!((o - 1.0).abs() < 1e-12, "expected full occupancy, got {o}");
    }

    #[test]
    fn register_pressure_reduces_occupancy() {
        let d = DeviceSpec::volta_v100();
        let lo = occupancy(
            &d,
            &OccupancyLimits {
                threads_per_block: 256,
                registers_per_thread: 128,
                shared_bytes_per_block: 0,
            },
        );
        let hi = occupancy(
            &d,
            &OccupancyLimits {
                threads_per_block: 256,
                registers_per_thread: 32,
                shared_bytes_per_block: 0,
            },
        );
        assert!(lo < hi);
        assert!(lo <= 0.5);
    }

    #[test]
    fn shared_memory_pressure_reduces_occupancy() {
        let d = DeviceSpec::volta_v100();
        let o = occupancy(
            &d,
            &OccupancyLimits {
                threads_per_block: 64,
                registers_per_thread: 32,
                shared_bytes_per_block: 48 * 1024,
            },
        );
        // only two such blocks fit per SM -> 4 warps resident out of 64
        assert!(o <= 4.0 / 64.0 + 1e-12);
        assert!(o > 0.0);
    }

    #[test]
    fn oversized_block_cannot_run() {
        let d = DeviceSpec::volta_v100();
        let o = occupancy(
            &d,
            &OccupancyLimits {
                threads_per_block: 1024,
                registers_per_thread: 32,
                shared_bytes_per_block: 200 * 1024,
            },
        );
        assert_eq!(o, 0.0);
    }

    #[test]
    fn register_blocking_model_spills_around_r_24() {
        // r = 8 stays comfortable, r = 24 approaches the hardware limit as
        // described in Section III-D
        assert!(register_blocking_registers(8, false) < 128);
        assert!(register_blocking_registers(24, false) >= 128);
        assert!(register_blocking_registers(24, true) > 200);
    }
}
