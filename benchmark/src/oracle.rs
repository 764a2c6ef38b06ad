//! Reference kernel values the program's outputs are checked against.
//!
//! The reference shares nothing with the code under test but the graph type
//! and the base kernels: it writes the tensor-product system of Eq. (1) out
//! explicitly in `f64` from the graphs' own edge lists and solves it — by
//! dense LU (`mgk_linalg::direct`) up to [`DENSE_LIMIT`] unknowns, and above
//! that, where a dense matrix would not fit in memory, by a plain Jacobi
//! conjugate gradient of its own on the explicit sparse matrix, run to a
//! residual four orders of magnitude below the solver's.

use mgk_graph::Graph;
use mgk_kernels::BaseKernel;
use mgk_linalg::direct;

/// Largest system solved by dense LU: 640² doubles are 3 MiB and the
/// factorisation takes tens of milliseconds.
pub const DENSE_LIMIT: usize = 640;

/// Relative tolerance between a served `f32` value and the reference. The
/// solver stops at a relative residual of 1e-6 in `f32` arithmetic; the
/// values it delivers sit within a few 1e-6 of the reference on every
/// workload here, and a wrong tile, label or weight moves them by 1e-2 or
/// more.
pub const TOLERANCE: f64 = 2e-4;

struct ExplicitSystem {
    dim: usize,
    /// Row `r` holds `(column, value)` of `A× ∘ E×`.
    rows: Vec<Vec<(u32, f64)>>,
    /// `D× V×⁻¹`.
    diagonal: Vec<f64>,
    /// `D× q×`.
    rhs: Vec<f64>,
    /// `p×`.
    start: Vec<f64>,
}

fn explicit_system<V, E, KV, KE>(
    g1: &Graph<V, E>,
    g2: &Graph<V, E>,
    vertex_kernel: &KV,
    edge_kernel: &KE,
) -> ExplicitSystem
where
    KV: BaseKernel<V>,
    KE: BaseKernel<E>,
{
    let m = g2.num_vertices();
    let dim = g1.num_vertices() * m;
    let (d1, d2) = (g1.laplacian_degrees(), g2.laplacian_degrees());
    let mut rows = Vec::with_capacity(dim);
    let mut diagonal = Vec::with_capacity(dim);
    let mut rhs = Vec::with_capacity(dim);
    let mut start = Vec::with_capacity(dim);
    for (i, &degree1) in d1.iter().enumerate() {
        for (ip, &degree2) in d2.iter().enumerate() {
            let mut row = Vec::new();
            for e1 in g1.neighbors(i) {
                for e2 in g2.neighbors(ip) {
                    let k = edge_kernel.eval(e1.label, e2.label) as f64;
                    let col = e1.target as usize * m + e2.target as usize;
                    row.push((col as u32, e1.weight as f64 * e2.weight as f64 * k));
                }
            }
            rows.push(row);
            let d = degree1 as f64 * degree2 as f64;
            let v = vertex_kernel.eval(g1.vertex_label(i), g2.vertex_label(ip)) as f64;
            diagonal.push(d / v);
            rhs.push(d * g1.stop_probabilities()[i] as f64 * g2.stop_probabilities()[ip] as f64);
            start.push(g1.start_probabilities()[i] as f64 * g2.start_probabilities()[ip] as f64);
        }
    }
    ExplicitSystem { dim, rows, diagonal, rhs, start }
}

impl ExplicitSystem {
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        for (r, row) in self.rows.iter().enumerate() {
            let off: f64 = row.iter().map(|&(c, v)| v * x[c as usize]).sum();
            y[r] = self.diagonal[r] * x[r] - off;
        }
    }

    fn solve_dense(&self) -> Option<Vec<f64>> {
        let dim = self.dim;
        let mut a = vec![0.0f64; dim * dim];
        for (r, row) in self.rows.iter().enumerate() {
            for &(c, v) in row {
                a[r * dim + c as usize] -= v;
            }
            a[r * dim + r] += self.diagonal[r];
        }
        direct::lu_solve(&a, &self.rhs)
    }

    /// Jacobi-preconditioned conjugate gradient in `f64`, to a relative
    /// residual of 1e-11 or 4 × dim iterations.
    fn solve_iterative(&self) -> Option<Vec<f64>> {
        let dim = self.dim;
        let dot = |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
        let b_norm = dot(&self.rhs, &self.rhs).sqrt();
        let mut x = vec![0.0; dim];
        let mut r = self.rhs.clone();
        let mut z: Vec<f64> = r.iter().zip(&self.diagonal).map(|(r, d)| r / d).collect();
        let mut p = z.clone();
        let mut ap = vec![0.0; dim];
        let mut rho = dot(&r, &z);
        for _ in 0..4 * dim {
            if dot(&r, &r).sqrt() <= 1e-11 * b_norm {
                return Some(x);
            }
            self.apply(&p, &mut ap);
            let alpha = rho / dot(&p, &ap);
            for k in 0..dim {
                x[k] += alpha * p[k];
                r[k] -= alpha * ap[k];
                z[k] = r[k] / self.diagonal[k];
            }
            let rho_next = dot(&r, &z);
            let beta = rho_next / rho;
            rho = rho_next;
            for k in 0..dim {
                p[k] = z[k] + beta * p[k];
            }
        }
        None
    }
}

/// The reference value of `K(g1, g2)`, or `None` when the reference solve
/// itself fails (counted as a failed check by the caller).
pub fn reference_kernel<V, E, KV, KE>(
    g1: &Graph<V, E>,
    g2: &Graph<V, E>,
    vertex_kernel: &KV,
    edge_kernel: &KE,
) -> Option<f64>
where
    KV: BaseKernel<V>,
    KE: BaseKernel<E>,
{
    let system = explicit_system(g1, g2, vertex_kernel, edge_kernel);
    let x =
        if system.dim <= DENSE_LIMIT { system.solve_dense() } else { system.solve_iterative() }?;
    let value: f64 = system.start.iter().zip(&x).map(|(p, x)| p * x).sum();
    value.is_finite().then_some(value)
}

/// The reference value of a normalised Gram entry,
/// `K(a, b) / sqrt(K(a, a) K(b, b))` — what `GramEngine` and `GramService`
/// deliver by default.
pub fn reference_normalised<V, E, KV, KE>(
    a: &Graph<V, E>,
    b: &Graph<V, E>,
    vertex_kernel: &KV,
    edge_kernel: &KE,
) -> Option<f64>
where
    KV: BaseKernel<V>,
    KE: BaseKernel<E>,
{
    let reference = |x, y| reference_kernel(x, y, vertex_kernel, edge_kernel);
    Some(reference(a, b)? / (reference(a, a)? * reference(b, b)?).sqrt())
}

/// Outcome of checking a sample of outputs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OracleReport {
    pub checked: usize,
    pub failed: usize,
    pub max_rel_err: f64,
}

impl OracleReport {
    /// Compare one delivered value with its reference.
    pub fn check(&mut self, delivered: f64, reference: Option<f64>) {
        self.checked += 1;
        let rel = match reference {
            Some(r) if delivered.is_finite() => {
                (delivered - r).abs() / r.abs().max(f64::MIN_POSITIVE)
            }
            _ => f64::INFINITY,
        };
        if rel.is_finite() {
            self.max_rel_err = self.max_rel_err.max(rel);
        }
        if rel.is_nan() || rel > TOLERANCE {
            self.failed += 1;
        }
    }
}
