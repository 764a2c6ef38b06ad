//! Memory-traffic and operation counters.
//!
//! These are the same five categories that the pseudocode tables of
//! Appendix C of the paper attribute to every primitive: global loads
//! (`LD.G`), global stores (`ST.G`), shared loads (`LD.S`), shared stores
//! (`ST.S`) and arithmetic operations (`OPS`). Every
//! [`LinearOperator`](crate::LinearOperator) can increment an instance of
//! [`TrafficCounters`] while it applies (see
//! [`apply_counted`](crate::LinearOperator::apply_counted)), so that
//! sparsity-dependent traffic is measured exactly rather than modeled.
//!
//! The struct lives here, at the bottom of the workspace DAG, so that the
//! operator abstraction and the iterative solvers can thread counters
//! uniformly; the traffic closed forms in `mgk-core` and the V100 projection
//! in `mgk-bench` use it as it is.

/// Byte and operation counters for one kernel execution (or an aggregate of
/// many).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrafficCounters {
    /// Bytes loaded from device (global) memory.
    pub global_load_bytes: u64,
    /// Bytes stored to device (global) memory.
    pub global_store_bytes: u64,
    /// Bytes loaded from shared memory.
    pub shared_load_bytes: u64,
    /// Bytes stored to shared memory.
    pub shared_store_bytes: u64,
    /// Floating point operations executed.
    pub flops: u64,
    /// Base-kernel evaluations performed (informational).
    pub kernel_evaluations: u64,
}

impl TrafficCounters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total global-memory traffic (loads + stores) in bytes.
    pub fn global_bytes(&self) -> u64 {
        self.global_load_bytes + self.global_store_bytes
    }

    /// Total shared-memory traffic (loads + stores) in bytes.
    pub fn shared_bytes(&self) -> u64 {
        self.shared_load_bytes + self.shared_store_bytes
    }

    /// Arithmetic intensity with respect to global-memory traffic, in
    /// FLOPs per byte (the x-axis of the Roofline plots).
    pub fn arithmetic_intensity_global(&self) -> f64 {
        if self.global_bytes() == 0 {
            return f64::INFINITY;
        }
        self.flops as f64 / self.global_bytes() as f64
    }

    /// Arithmetic intensity with respect to shared-memory traffic.
    pub fn arithmetic_intensity_shared(&self) -> f64 {
        if self.shared_bytes() == 0 {
            return f64::INFINITY;
        }
        self.flops as f64 / self.shared_bytes() as f64
    }

    /// Attribute one CPU-side vector operation over vectors of scalar type
    /// `T`: `loads` elements read, `stores` elements written, `flops`
    /// arithmetic operations.
    ///
    /// The CG recurrences (`axpy`, `dot`, `xpby`, norms) stream their
    /// operand vectors through global memory exactly once per call, so the
    /// iterative solvers use this to attribute that traffic alongside the
    /// operator and preconditioner applications — without it the Roofline
    /// projections undercount the memory-bound tail of every iteration.
    /// The element counts are converted to bytes with
    /// [`Scalar::BYTES`](crate::Scalar::BYTES), so the `f64` instantiation
    /// of the solvers attributes its doubled memory footprint faithfully.
    pub fn count_vector_op_t<T: crate::Scalar>(&mut self, loads: u64, stores: u64, flops: u64) {
        self.global_load_bytes += loads * T::BYTES;
        self.global_store_bytes += stores * T::BYTES;
        self.flops += flops;
    }

    /// Element-wise accumulation (in place).
    pub fn accumulate(&mut self, other: &TrafficCounters) {
        self.global_load_bytes += other.global_load_bytes;
        self.global_store_bytes += other.global_store_bytes;
        self.shared_load_bytes += other.shared_load_bytes;
        self.shared_store_bytes += other.shared_store_bytes;
        self.flops += other.flops;
        self.kernel_evaluations += other.kernel_evaluations;
    }

    /// Fold this execution's totals into a live telemetry accumulator:
    /// global bytes and flops flow into the registry-backed counters and
    /// the running arithmetic-intensity gauge refreshes — the serving
    /// stack's live Roofline x-axis, updated per solve.
    pub fn export_to(&self, totals: &mgk_telemetry::TrafficTotals) {
        totals.record(self.global_bytes(), self.flops);
    }

    /// Multiply every counter by a constant factor (e.g. number of CG
    /// iterations or number of graph pairs).
    pub fn scaled(&self, factor: u64) -> TrafficCounters {
        TrafficCounters {
            global_load_bytes: self.global_load_bytes * factor,
            global_store_bytes: self.global_store_bytes * factor,
            shared_load_bytes: self.shared_load_bytes * factor,
            shared_store_bytes: self.shared_store_bytes * factor,
            flops: self.flops * factor,
            kernel_evaluations: self.kernel_evaluations * factor,
        }
    }
}

impl std::ops::Add for TrafficCounters {
    type Output = TrafficCounters;
    fn add(self, rhs: TrafficCounters) -> TrafficCounters {
        let mut out = self;
        out.accumulate(&rhs);
        out
    }
}

impl std::iter::Sum for TrafficCounters {
    fn sum<I: Iterator<Item = TrafficCounters>>(iter: I) -> Self {
        iter.fold(TrafficCounters::new(), |acc, x| acc + x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_intensity() {
        let c = TrafficCounters {
            global_load_bytes: 100,
            global_store_bytes: 28,
            shared_load_bytes: 64,
            shared_store_bytes: 0,
            flops: 256,
            kernel_evaluations: 10,
        };
        assert!((c.arithmetic_intensity_global() - 2.0).abs() < 1e-12);
        assert!((c.arithmetic_intensity_shared() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn zero_traffic_gives_infinite_intensity() {
        let c = TrafficCounters { flops: 10, ..Default::default() };
        assert!(c.arithmetic_intensity_global().is_infinite());
        assert!(c.arithmetic_intensity_shared().is_infinite());
    }

    #[test]
    fn export_feeds_the_live_intensity_gauge() {
        use mgk_telemetry::{Counter, Gauge, TrafficTotals};
        let totals = TrafficTotals::new(Counter::new(), Counter::new(), Gauge::new());
        let c = TrafficCounters {
            global_load_bytes: 96,
            global_store_bytes: 32,
            flops: 256,
            ..Default::default()
        };
        c.export_to(&totals);
        c.export_to(&totals);
        assert_eq!(totals.bytes.value(), 2 * c.global_bytes());
        assert_eq!(totals.flops.value(), 2 * c.flops);
        assert!((totals.intensity.value() - c.arithmetic_intensity_global()).abs() < 1e-12);
    }

    #[test]
    fn add_scale_and_sum() {
        let a = TrafficCounters { global_load_bytes: 4, flops: 2, ..Default::default() };
        let b = TrafficCounters { global_store_bytes: 8, flops: 3, ..Default::default() };
        let c = a + b;
        assert_eq!(c.global_bytes(), 12);
        assert_eq!(c.flops, 5);
        let s = c.scaled(3);
        assert_eq!(s.flops, 15);
        let total: TrafficCounters = vec![a, b, s].into_iter().sum();
        assert_eq!(total.flops, 20);
    }
}
