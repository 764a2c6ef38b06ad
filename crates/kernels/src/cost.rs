//! Cost metadata attached to base kernels.
//!
//! The paper's performance model (Section II-D, Table I, Appendix B)
//! abstracts a base kernel by two numbers: the byte size `E` of one label
//! and the number `X` of floating-point operations per evaluation. The
//! arithmetic intensity of the on-the-fly XMV primitives is a function of
//! `E`, `X` and the tile geometry, so every kernel implementation reports a
//! [`KernelCost`].

/// Cost model parameters of one base kernel evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCost {
    /// `E`: bytes occupied by one label operand in device memory.
    pub label_bytes: usize,
    /// `X`: floating point operations per kernel evaluation, including the
    /// multiply-accumulate into the output (the paper's unlabeled case
    /// counts `X = 3`: weight product, multiply by the right-hand side and
    /// accumulate).
    pub flops: usize,
}

impl KernelCost {
    /// Cost of the degenerate unlabeled case (Eq. 2): no label bytes, and
    /// three FLOPs per product term (`a_ii' += A_ij · A'_i'j' · p_jj'`).
    pub const UNLABELED: KernelCost = KernelCost { label_bytes: 0, flops: 3 };

    /// Construct a cost record.
    pub const fn new(label_bytes: usize, flops: usize) -> Self {
        KernelCost { label_bytes, flops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlabeled_cost_matches_paper() {
        // Section II-D uses E = 0, F = 4, X = 3 for the unlabeled model
        assert_eq!(KernelCost::UNLABELED.label_bytes, 0);
        assert_eq!(KernelCost::UNLABELED.flops, 3);
    }
}
