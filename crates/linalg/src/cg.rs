//! Preconditioned conjugate gradient, generic over the [`Scalar`]
//! precision.
//!
//! This is Algorithm 1 of the paper stripped of the graph-kernel-specific
//! operator: the system matrix and the preconditioner are abstract
//! [`LinearOperator`]s, so the same routine serves the dense baseline
//! solvers of `mgk-bench` and the on-the-fly tensor-product solvers of `mgk-core` — and,
//! through the [`Scalar`] axis, both the `f32` serving precision and the
//! `f64` validation precision run the *identical* iteration structure
//! (only the vector element type changes; the scalar recurrences always
//! evaluate in `f64`).

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use crate::operator::LinearOperator;
use crate::scalar::Scalar;
use crate::traffic::TrafficCounters;
use crate::vecops::{axpy, dot, norm_sq, xpby};

/// Options controlling an iterative solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOptions {
    /// Maximum number of iterations before giving up.
    pub max_iterations: usize,
    /// Convergence threshold on the *relative* residual
    /// `‖r‖ / ‖b‖ <= tolerance`.
    pub tolerance: f64,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions { max_iterations: 1000, tolerance: 1e-6 }
    }
}

/// Outcome of an iterative solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceInfo {
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final relative residual `‖r‖ / ‖b‖`.
    pub relative_residual: f64,
    /// Whether the tolerance was reached within the iteration budget.
    pub converged: bool,
}

/// Solve `A x = b` with preconditioned conjugate gradient.
///
/// `m_inv` is the *inverse* of the preconditioner, i.e. the operator applied
/// to the residual each iteration (`z ← M⁻¹ r` on line 14 of Algorithm 1).
/// For the marginalized graph kernel the paper uses the Jacobi (diagonal)
/// preconditioner `M = D× V×⁻¹`.
pub fn pcg<T: Scalar, A: LinearOperator<T>, M: LinearOperator<T>>(
    a: &A,
    m_inv: &M,
    b: &[T],
    opts: &SolveOptions,
) -> (Vec<T>, ConvergenceInfo) {
    pcg_counted(a, m_inv, b, opts, &mut TrafficCounters::new())
}

/// [`pcg`] with memory-traffic accounting: every application of `a` and of
/// the preconditioner adds its traffic to `counters` through
/// [`LinearOperator::apply_counted`]. This is the single instrumented
/// entry point shared by the on-the-fly solvers of `mgk-core` and the
/// dense baselines of `mgk-bench`.
///
/// ```
/// use mgk_linalg::{pcg_counted, DiagonalOperator, SolveOptions, TrafficCounters};
///
/// // a diagonal SPD system: 2x = 1, 4y = 1
/// let a = DiagonalOperator::new(vec![2.0f32, 4.0]);
/// let m_inv = a.inverse();
/// let mut traffic = TrafficCounters::new();
/// let (x, info) = pcg_counted(&a, &m_inv, &[1.0, 1.0], &SolveOptions::default(), &mut traffic);
/// assert!(info.converged);
/// assert!((x[0] - 0.5).abs() < 1e-6 && (x[1] - 0.25).abs() < 1e-6);
/// assert!(traffic.flops > 0); // operator + preconditioner traffic was counted
/// ```
pub fn pcg_counted<T: Scalar, A: LinearOperator<T>, M: LinearOperator<T>>(
    a: &A,
    m_inv: &M,
    b: &[T],
    opts: &SolveOptions,
    counters: &mut TrafficCounters,
) -> (Vec<T>, ConvergenceInfo) {
    pcg_counted_warm_multi(a, m_inv, b, &[], opts, counters)
}

/// [`pcg_counted`] started from the candidate initial guess with the *best
/// initial residual*.
///
/// Each candidate costs one counted operator application up front (its
/// residual `b − A·c` must be evaluated to rank it); a candidate is only
/// kept when its residual beats the cold start's `‖b‖`, so an empty or
/// uniformly bad candidate list degenerates to the cold solve. A guess of
/// the wrong length is rejected by assertion. Convergence is still measured
/// against `‖b‖`, so a warm and a cold solve of the same system stop at the
/// same residual quality. No solver of the workspace passes candidates:
/// every kernel value is a cold solve, so it depends on the pair alone.
pub fn pcg_counted_warm_multi<T: Scalar, A: LinearOperator<T>, M: LinearOperator<T>>(
    a: &A,
    m_inv: &M,
    b: &[T],
    candidates: &[&[T]],
    opts: &SolveOptions,
    counters: &mut TrafficCounters,
) -> (Vec<T>, ConvergenceInfo) {
    let n = b.len();
    assert_eq!(a.dim(), n, "operator dimension must match right-hand side");
    let nn = n as u64;

    let b_norm = T::accum_to_f64(norm_sq(b)).sqrt();
    counters.count_vector_op_t::<T>(nn, 0, 2 * nn);
    if b_norm == 0.0 {
        return (
            vec![T::ZERO; n],
            ConvergenceInfo { iterations: 0, relative_residual: 0.0, converged: true },
        );
    }

    // `a_p` doubles as the ranking's scratch: every application overwrites it
    let mut a_p = vec![T::ZERO; n];
    let mut best: Option<(Vec<T>, Vec<T>)> = None;
    let mut best_sq = b_norm * b_norm;
    for guess in candidates {
        assert_eq!(guess.len(), n, "warm-start guess dimension must match right-hand side");
        a.apply_counted(guess, &mut a_p, counters);
        let r: Vec<T> = b.iter().zip(&a_p).map(|(&bi, &axi)| bi - axi).collect();
        counters.count_vector_op_t::<T>(2 * nn, nn, nn);
        counters.count_vector_op_t::<T>(nn, 0, 2 * nn);
        let r_sq = T::accum_to_f64(norm_sq(&r));
        if r_sq <= best_sq {
            best_sq = r_sq;
            best = Some((guess.to_vec(), r));
        }
    }
    let (mut x, mut r) = best.unwrap_or_else(|| (vec![T::ZERO; n], b.to_vec()));
    let mut z = vec![T::ZERO; n];
    m_inv.apply_counted(&r, &mut z, counters);
    let mut p = z.clone();
    let mut rho = T::accum_to_f64(dot(&r, &z));
    counters.count_vector_op_t::<T>(2 * nn, 0, 2 * nn);

    let mut iterations = 0;
    let mut rel_res = T::accum_to_f64(norm_sq(&r)).sqrt() / b_norm;
    counters.count_vector_op_t::<T>(nn, 0, 2 * nn);
    let mut converged = rel_res <= opts.tolerance;

    while !converged && iterations < opts.max_iterations {
        a.apply_counted(&p, &mut a_p, counters);
        let p_ap = T::accum_to_f64(dot(&p, &a_p));
        counters.count_vector_op_t::<T>(2 * nn, 0, 2 * nn);
        if p_ap <= 0.0 || !p_ap.is_finite() {
            // matrix not positive definite along p (or numerical breakdown)
            break;
        }
        let alpha = T::from_f64(rho / p_ap);
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &a_p, &mut r);
        counters.count_vector_op_t::<T>(4 * nn, 2 * nn, 4 * nn);
        iterations += 1;

        rel_res = T::accum_to_f64(norm_sq(&r)).sqrt() / b_norm;
        counters.count_vector_op_t::<T>(nn, 0, 2 * nn);
        if rel_res <= opts.tolerance {
            converged = true;
            break;
        }

        m_inv.apply_counted(&r, &mut z, counters);
        let rho_next = T::accum_to_f64(dot(&r, &z));
        let beta = T::from_f64(rho_next / rho);
        rho = rho_next;
        xpby(&z, beta, &mut p);
        // the rho recurrence dot plus the search-direction xpby
        counters.count_vector_op_t::<T>(4 * nn, nn, 4 * nn);
    }

    (x, ConvergenceInfo { iterations, relative_residual: rel_res, converged })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
    use crate::operator::{DenseOperator, DiagonalOperator};

    /// The identity preconditioner, which turns PCG into plain CG and
    /// counts no traffic.
    struct IdentityPrec;

    impl<T: Scalar> LinearOperator<T> for IdentityPrec {
        fn dim(&self) -> usize {
            usize::MAX
        }
        fn apply(&self, x: &[T], y: &mut [T]) {
            y.copy_from_slice(x);
        }
    }

    fn spd_matrix(n: usize, seed: u64) -> DenseMatrix {
        // A = Bᵀ B + n*I is SPD; B filled from a simple LCG for determinism
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / u32::MAX as f32) - 0.5
        };
        let b = DenseMatrix::from_fn(n, n, |_, _| next());
        let mut a = b.transpose().matmul(&b);
        for i in 0..n {
            a[(i, i)] += n as f32;
        }
        a
    }

    #[test]
    fn cg_solves_identity() {
        let a = DenseOperator(DenseMatrix::identity(5));
        let b = vec![1.0f32, -2.0, 3.0, 0.5, 0.0];
        let (x, info) = pcg(&a, &IdentityPrec, &b, &SolveOptions::default());
        assert!(info.converged);
        assert!(info.iterations <= 2);
        for (xi, bi) in x.iter().zip(&b) {
            assert!((xi - bi).abs() < 1e-6);
        }
    }

    #[test]
    fn cg_solves_spd_system() {
        let m = spd_matrix(20, 7);
        let op = DenseOperator(m.clone());
        let b: Vec<f32> = (0..20).map(|i| (i as f32 * 0.3).sin()).collect();
        let (x, info) =
            pcg(&op, &IdentityPrec, &b, &SolveOptions { max_iterations: 200, tolerance: 1e-8 });
        assert!(info.converged, "did not converge: {info:?}");
        // check the residual directly
        let mut ax = vec![0.0; 20];
        m.matvec(&x, &mut ax);
        let res: f32 = ax.iter().zip(&b).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max);
        assert!(res < 1e-3, "residual too large: {res}");
    }

    #[test]
    fn both_precisions_solve_the_same_system() {
        let m = spd_matrix(16, 31);
        let op = DenseOperator(m);
        let b32: Vec<f32> = (0..16).map(|i| 1.0 + (i as f32 * 0.4).cos()).collect();
        let b64: Vec<f64> = b32.iter().map(|&v| v as f64).collect();
        let opts = SolveOptions { max_iterations: 300, tolerance: 1e-8 };
        let (x32, i32_) = pcg(&op, &IdentityPrec, &b32, &opts);
        let (x64, i64_) = pcg(&op, &IdentityPrec, &b64, &opts);
        assert!(i32_.converged && i64_.converged);
        for (a, b) in x32.iter().zip(&x64) {
            assert!(
                (*a as f64 - b).abs() <= 1e-5 * b.abs().max(1.0),
                "precisions diverged: {a} vs {b}"
            );
        }
        // the f64 instantiation reaches a strictly tighter residual budget
        let (_, deep) =
            pcg(&op, &IdentityPrec, &b64, &SolveOptions { max_iterations: 300, tolerance: 1e-13 });
        assert!(deep.converged, "f64 CG should reach 1e-13: {deep:?}");
    }

    #[test]
    fn pcg_with_jacobi_converges_no_slower_than_cg_on_scaled_system() {
        // badly scaled diagonal: Jacobi preconditioning should fix it
        let n = 50;
        let mut m = spd_matrix(n, 3);
        for i in 0..n {
            let s = 1.0 + 100.0 * (i as f32 / n as f32);
            for j in 0..n {
                m[(i, j)] *= s;
                m[(j, i)] *= s;
            }
        }
        let diag: Vec<f32> = (0..n).map(|i| m[(i, i)]).collect();
        let op = DenseOperator(m);
        let b = vec![1.0f32; n];
        let opts = SolveOptions { max_iterations: 500, tolerance: 1e-8 };
        let (_, plain) = pcg(&op, &IdentityPrec, &b, &opts);
        let prec = DiagonalOperator::new(diag).inverse();
        let (_, pre) = pcg(&op, &prec, &b, &opts);
        assert!(pre.converged);
        assert!(
            pre.iterations <= plain.iterations,
            "PCG ({}) should not need more iterations than CG ({})",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn zero_rhs_returns_zero_solution() {
        let a = DenseOperator(DenseMatrix::identity(3));
        let (x, info) = pcg(&a, &IdentityPrec, &[0.0f32, 0.0, 0.0], &SolveOptions::default());
        assert_eq!(x, vec![0.0, 0.0, 0.0]);
        assert!(info.converged);
        assert_eq!(info.iterations, 0);
    }

    #[test]
    fn iteration_budget_is_respected() {
        let m = spd_matrix(30, 11);
        let op = DenseOperator(m);
        let b = vec![1.0f32; 30];
        let (_, info) =
            pcg(&op, &IdentityPrec, &b, &SolveOptions { max_iterations: 2, tolerance: 1e-14 });
        assert!(!info.converged);
        assert_eq!(info.iterations, 2);
    }

    #[test]
    fn counted_solve_matches_plain_solve_and_accumulates_traffic() {
        let m = spd_matrix(16, 9);
        let op = DenseOperator(m);
        let b = vec![1.0f32; 16];
        let opts = SolveOptions::default();
        let (x_plain, info_plain) = pcg(&op, &IdentityPrec, &b, &opts);
        let mut counters = crate::TrafficCounters::new();
        let (x_counted, info_counted) = pcg_counted(&op, &IdentityPrec, &b, &opts, &mut counters);
        assert_eq!(x_plain, x_counted);
        assert_eq!(info_plain, info_counted);
        assert!(info_counted.converged);
        // one dense apply per iteration (2 n^2 flops each) plus the CG
        // vector recurrences: 6n up front, 8n per iteration, 4n more per
        // non-final iteration (the z/p updates are skipped on convergence)
        let (n, k) = (16u64, info_counted.iterations as u64);
        let operator_flops = k * 2 * n * n;
        let vector_flops = 6 * n + 8 * n * k + 4 * n * (k - 1);
        assert_eq!(counters.flops, operator_flops + vector_flops);
        assert!(counters.global_load_bytes > 0);
        assert!(counters.global_store_bytes > 0);
    }

    #[test]
    fn preconditioner_traffic_is_counted() {
        let m = spd_matrix(12, 13);
        let diag: Vec<f32> = (0..12).map(|i| m[(i, i)]).collect();
        let op = DenseOperator(m);
        let prec = DiagonalOperator::new(diag).inverse();
        let b = vec![1.0f32; 12];
        let mut with_prec = crate::TrafficCounters::new();
        let (_, info) = pcg_counted(&op, &prec, &b, &SolveOptions::default(), &mut with_prec);
        // the diagonal preconditioner applies once up front and once per
        // iteration except the converging one (12 flops each) on top of the
        // dense operator's 2 n^2 per iteration and the CG vector
        // recurrences (6n up front, 8n per iteration, 4n per non-final one)
        assert!(info.converged);
        let (n, k) = (12u64, info.iterations as u64);
        let operator_flops = k * 2 * n * n;
        let prec_flops = k * n;
        let vector_flops = 6 * n + 8 * n * k + 4 * n * (k - 1);
        assert_eq!(with_prec.flops, operator_flops + prec_flops + vector_flops);
    }

    #[test]
    fn warm_start_from_the_solution_converges_immediately() {
        let m = spd_matrix(24, 21);
        let op = DenseOperator(m);
        let b: Vec<f32> = (0..24).map(|i| 1.0 + (i as f32 * 0.1).cos()).collect();
        let opts = SolveOptions { max_iterations: 300, tolerance: 1e-7 };
        let (cold, cold_info) = pcg_counted(&op, &IdentityPrec, &b, &opts, &mut Default::default());
        assert!(cold_info.converged && cold_info.iterations > 0);
        let (warm, warm_info) = pcg_counted_warm_multi(
            &op,
            &IdentityPrec,
            &b,
            &[&cold],
            &opts,
            &mut Default::default(),
        );
        assert!(warm_info.converged);
        assert_eq!(warm_info.iterations, 0, "converged guess should need no iterations");
        assert_eq!(warm, cold);
    }

    #[test]
    fn warm_start_from_a_nearby_solution_cuts_iterations() {
        let m = spd_matrix(32, 2);
        let op = DenseOperator(m);
        let b: Vec<f32> = (0..32).map(|i| (i as f32 * 0.2).sin() + 1.5).collect();
        let opts = SolveOptions { max_iterations: 500, tolerance: 1e-8 };
        let (x, cold) = pcg_counted(&op, &IdentityPrec, &b, &opts, &mut Default::default());
        // perturb the solution slightly: a nearby (not exact) guess
        let guess: Vec<f32> = x.iter().map(|&v| v * 1.001 + 1e-5).collect();
        let (_, warm) = pcg_counted_warm_multi(
            &op,
            &IdentityPrec,
            &b,
            &[&guess],
            &opts,
            &mut Default::default(),
        );
        assert!(warm.converged);
        assert!(
            warm.iterations < cold.iterations,
            "warm ({}) should beat cold ({})",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn the_best_of_several_warm_start_candidates_wins() {
        let m = spd_matrix(32, 2);
        let op = DenseOperator(m);
        let b: Vec<f32> = (0..32).map(|i| (i as f32 * 0.2).sin() + 1.5).collect();
        let opts = SolveOptions { max_iterations: 500, tolerance: 1e-8 };
        let (x, _) = pcg_counted(&op, &IdentityPrec, &b, &opts, &mut Default::default());

        // candidate 0 is plausible but far; candidate 1 is nearly exact —
        // the driver must start from the *measured* best, not the first
        let far: Vec<f32> = x.iter().map(|&v| v * 1.5 + 0.3).collect();
        let near: Vec<f32> = x.iter().map(|&v| v * 1.0001).collect();
        let solve = |candidates: &[&[f32]]| {
            let (sol, info) = pcg_counted_warm_multi(
                &op,
                &IdentityPrec,
                &b,
                candidates,
                &opts,
                &mut Default::default(),
            );
            assert!(info.converged);
            (sol, info.iterations)
        };
        let (_, far_only) = solve(&[&far]);
        let (sol, both) = solve(&[&far, &near]);
        let (_, near_only) = solve(&[&near]);
        assert_eq!(both, near_only, "the second candidate has the best residual and must win");
        assert!(both < far_only, "best-of-k ({both}) should beat the far donor ({far_only})");
        for (a, b) in sol.iter().zip(&x) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn uniformly_bad_candidates_fall_back_to_the_cold_start() {
        let m = spd_matrix(16, 41);
        let op = DenseOperator(m);
        let b = vec![1.0f32; 16];
        let opts = SolveOptions::default();
        let (cold, cold_info) =
            pcg_counted_warm_multi(&op, &IdentityPrec, &b, &[], &opts, &mut Default::default());
        let awful = vec![1e6f32; 16];
        let worse = vec![-1e6f32; 16];
        let (warm, warm_info) = pcg_counted_warm_multi(
            &op,
            &IdentityPrec,
            &b,
            &[&awful, &worse],
            &opts,
            &mut Default::default(),
        );
        assert_eq!(warm, cold, "bad candidates must not change the solve");
        assert_eq!(warm_info.iterations, cold_info.iterations);
    }

    #[test]
    fn exact_convergence_in_n_iterations() {
        // CG converges in at most n iterations in exact arithmetic; allow
        // slack for floating point
        let n = 8;
        let m = spd_matrix(n, 5);
        let op = DenseOperator(m);
        let b = vec![1.0f32; n];
        let (_, info) =
            pcg(&op, &IdentityPrec, &b, &SolveOptions { max_iterations: 3 * n, tolerance: 1e-6 });
        assert!(info.converged);
        assert!(info.iterations <= 2 * n);
    }
}
