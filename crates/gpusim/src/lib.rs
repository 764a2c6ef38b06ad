//! GPU cost-model simulator.
//!
//! The evaluation of the paper rests on a memory-traffic argument: Table I
//! and Appendix C count, for each on-the-fly XMV primitive, the number of
//! global/shared loads and stores and arithmetic operations per CG
//! iteration, and the Roofline model (Figs. 3 and 5) converts those counts
//! into attainable performance on a Volta V100.
//!
//! Because this reproduction runs on CPUs, the GPU never executes — instead
//! this crate reproduces the *model*: device specifications
//! ([`DeviceSpec`]), traffic counters ([`TrafficCounters`]), the analytic
//! per-primitive cost formulas of Table I ([`cost`]), a Roofline model
//! ([`roofline`]), an occupancy model ([`mod@occupancy`]) and a projected-time
//! estimator ([`project`]). The on-the-fly primitives in `mgk-core`
//! increment the same [`TrafficCounters`] while they execute on the CPU, so
//! sparse-dependent traffic (which the closed forms cannot capture) is
//! counted exactly.

#![forbid(unsafe_code)]

pub mod cost;
pub mod device;
pub mod occupancy;
pub mod project;
pub mod roofline;
pub mod traffic;

pub use cost::{octile_pair_traffic, xmv_traffic, OctilePairShape, PrimitiveKind, ProblemShape};
pub use device::DeviceSpec;
pub use occupancy::{occupancy, OccupancyLimits};
pub use project::{estimate_time, Bound, TimeEstimate};
pub use roofline::{RooflineModel, RooflinePoint};
pub use traffic::TrafficCounters;
