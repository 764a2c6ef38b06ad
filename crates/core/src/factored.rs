//! The factored operands of a constant edge kernel.
//!
//! Under an edge kernel that is `1` for every label pair
//! ([`BaseKernel::CONSTANT`]), `A× ∘ E×` is the weighted Kronecker product
//! `A₁ ⊗ A₂`, and in the row-major product order
//! `(A₁ ⊗ A₂)·vec(X) = vec(A₁·X·A₂ᵀ)`: the identity behind the Sylvester
//! and spectral methods the paper's Section II-C cites (Vishwanathan,
//! Schraudolph, Kondor and Borgwardt, "Graph Kernels", JMLR 11, 2010). One
//! application then costs `nnz₁·m + n·nnz₂` multiply-adds, two sparse×dense
//! products over the graphs' CSR rows, where the octile sweep pays one term
//! per pair of nonzeros, `nnz₁·nnz₂`. A [`ProductSystem`] whose edge kernel
//! is constant holds these operands in place of octile ones; every kernel
//! that is not constant keeps the octile operator of the paper.
//!
//! [`ProductSystem`]: crate::ProductSystem

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

use mgk_graph::Graph;
#[cfg(doc)]
use mgk_kernels::BaseKernel;
use mgk_linalg::{Scalar, TrafficCounters};

/// A graph's weighted adjacency in CSR form, without its labels: the rows
/// [`Graph::adjacency_row`] gives, in storage order.
struct Adjacency {
    /// Row offsets, length `n + 1`.
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<f32>,
}

impl Adjacency {
    fn of<V, E>(g: &Graph<V, E>) -> Self {
        let entries = g.num_adjacency_entries();
        let mut offsets = Vec::with_capacity(g.num_vertices() + 1);
        let (mut targets, mut weights) = (Vec::with_capacity(entries), Vec::with_capacity(entries));
        offsets.push(0);
        for i in 0..g.num_vertices() {
            let (row_targets, row_weights) = g.adjacency_row(i);
            targets.extend_from_slice(row_targets);
            weights.extend_from_slice(row_weights);
            offsets.push(targets.len());
        }
        Adjacency { offsets, targets, weights }
    }

    fn row(&self, i: usize) -> (&[u32], &[f32]) {
        let (lo, hi) = (self.offsets[i], self.offsets[i + 1]);
        (&self.targets[lo..hi], &self.weights[lo..hi])
    }

    fn vertices(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// The operands of `A₁·X·A₂ᵀ`: the two graphs' weighted adjacencies.
pub(crate) struct Factors {
    left: Adjacency,
    right: Adjacency,
}

impl Factors {
    /// The factors of the pair `g1 × g2`, taken in the order they stand.
    pub(crate) fn new<V, E>(g1: &Graph<V, E>, g2: &Graph<V, E>) -> Self {
        Factors { left: Adjacency::of(g1), right: Adjacency::of(g2) }
    }

    /// `nnz₁` and `nnz₂`.
    pub(crate) fn nonzeros(&self) -> (usize, usize) {
        (self.left.targets.len(), self.right.targets.len())
    }

    /// What one application counts at a vector element of `vector_bytes`:
    /// `2(nnz₁·m + n·nnz₂)` FLOPs; the loads of `X`'s rows by the axpys and
    /// of each CSR entry (4-byte index and 4-byte weight: `A₁` once, `A₂`
    /// once per row of `X`); one store of `y`. It evaluates no kernel.
    pub(crate) fn traffic(&self, vector_bytes: u64) -> TrafficCounters {
        let (n, m) = (self.left.vertices() as u64, self.right.vertices() as u64);
        let (nnz1, nnz2) = self.nonzeros();
        let (nnz1, nnz2) = (nnz1 as u64, nnz2 as u64);
        let entry_bytes = (std::mem::size_of::<u32>() + std::mem::size_of::<f32>()) as u64;
        TrafficCounters {
            flops: 2 * (nnz1 * m + n * nnz2),
            global_load_bytes: nnz1 * (m * vector_bytes + entry_bytes) + n * nnz2 * entry_bytes,
            global_store_bytes: n * m * vector_bytes,
            ..TrafficCounters::new()
        }
    }

    /// `y ← A₁·X·A₂ᵀ`, `X` being `x` as a row-major `n × m` matrix, at the
    /// vector [`Scalar`] precision `T`.
    ///
    /// Row `i` of the product is formed in one pass: `z = Σₖ w₁(i, k)·X[k, :]`,
    /// row axpys over `A₁`'s row `i` in storage order into an `m`-element
    /// row, then `y[i, j] = Σₗ w₂(j, l)·z[l]`, a gather over `A₂`'s row `j`
    /// in storage order. Each element therefore adds its terms in a fixed
    /// order, with separate IEEE-754 multiplies and adds (no FMA), so every
    /// application gives the same bits; the `f32`-stored weights are widened
    /// before multiplying at `f64`, as in the octile operator. The
    /// summation order is not the octile sweep's, so the bits differ from
    /// it, within rounding. The row `z` is the one allocation.
    pub(crate) fn apply<T: Scalar>(&self, x: &[T], y: &mut [T]) {
        let m = self.right.vertices();
        if m == 0 {
            return;
        }
        let mut z = vec![T::ZERO; m];
        for (i, y_row) in y.chunks_exact_mut(m).enumerate() {
            z.fill(T::ZERO);
            let (targets, weights) = self.left.row(i);
            for (&k, &w) in targets.iter().zip(weights) {
                let w = T::from_f32(w);
                let x_k = &x[k as usize * m..][..m];
                for (zl, &xl) in z.iter_mut().zip(x_k) {
                    *zl += w * xl;
                }
            }
            for (j, yj) in y_row.iter_mut().enumerate() {
                let (targets, weights) = self.right.row(j);
                let mut off = T::ZERO;
                for (&l, &w) in targets.iter().zip(weights) {
                    off += T::from_f32(w) * z[l as usize];
                }
                *yj = off;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{MarginalizedKernelSolver, ProductSystem, SolverConfig, SystemOperator};
    use mgk_datasets::molecules::synthetic_molecule;
    use mgk_graph::generators::{barabasi_albert, complete_labeled, newman_watts_strogatz};
    use mgk_graph::{Graph, GraphBuilder, Unlabeled};
    use mgk_kernels::{
        BaseKernel, KroneckerDelta, OctileUnitKernel, SquareExponential, UnitKernel,
    };
    use mgk_linalg::{
        pcg_counted, DiagonalOperator, LinearOperator, Precision, Scalar, TrafficCounters,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The factored product in its summation order, one element at a time
    /// and over the graphs' edge iterators: `Σₗ w₂(j, l)·z` with
    /// `z = Σₖ w₁(i, k)·x[k, l]`, both sums from zero in storage order.
    fn reference<T: Scalar, V, E>(g1: &Graph<V, E>, g2: &Graph<V, E>, x: &[T]) -> Vec<T> {
        let (n, m) = (g1.num_vertices(), g2.num_vertices());
        let mut y = vec![T::ZERO; n * m];
        for i in 0..n {
            for j in 0..m {
                let mut off = T::ZERO;
                for e2 in g2.neighbors(j) {
                    let mut z = T::ZERO;
                    for e1 in g1.neighbors(i) {
                        z +=
                            T::from_f32(e1.weight) * x[e1.target as usize * m + e2.target as usize];
                    }
                    off += T::from_f32(e2.weight) * z;
                }
                y[i * m + j] = off;
            }
        }
        y
    }

    fn bitwise_equal<T: Scalar>(a: &[T], b: &[T]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(p, q)| p.to_f64().to_bits() == q.to_f64().to_bits())
    }

    /// A connected graph of `n` vertices with random weights in `[0.1, 2)`:
    /// a path plus random chords.
    fn weighted(n: usize, chords: usize, rng: &mut StdRng) -> Graph {
        let mut b: GraphBuilder = GraphBuilder::new();
        for _ in 0..n {
            b.add_vertex(Unlabeled);
        }
        for i in 1..n {
            b.add_edge(i - 1, i, rng.gen_range(0.1..2.0), Unlabeled).unwrap();
        }
        let mut chosen = std::collections::BTreeSet::new();
        for _ in 0..chords {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u.abs_diff(v) > 1 && chosen.insert((u.min(v), u.max(v))) {
                b.add_edge(u, v, rng.gen_range(0.1..2.0), Unlabeled).unwrap();
            }
        }
        b.build().unwrap()
    }

    /// The pairs every pin runs on: NWS-96 × BA-96 in the solver's order, a
    /// weighted 13 × 21 pair (neither a multiple of 8) and a 1-vertex graph
    /// against a weighted one and against itself.
    fn pairs() -> Vec<(Graph, Graph, &'static str)> {
        let mut rng = StdRng::seed_from_u64(51);
        let solver = MarginalizedKernelSolver::unlabeled(SolverConfig::default());
        let order = |g: &Graph| solver.prepare_graph(g).graph().clone();
        let nws = order(&newman_watts_strogatz(96, 3, 0.1, &mut rng));
        let ba = order(&barabasi_albert(96, 6, &mut rng));
        let (g13, g21) = (weighted(13, 20, &mut rng), weighted(21, 40, &mut rng));
        let single = Graph::from_edge_list(1, &[]);
        vec![
            (nws, ba, "NWS-96 × BA-96"),
            (g13.clone(), g21, "13 × 21"),
            (single.clone(), g13, "1 × 13"),
            (single.clone(), single, "1 × 1"),
        ]
    }

    /// Two applications of a unit-kernel system's operators against the
    /// reference, bit for bit: the off-diagonal product alone, and the
    /// system operator's `d·x − off`; and the ledger each application counts.
    fn assert_system_is_the_reference<T: Scalar>(g1: &Graph, g2: &Graph, case: &str) {
        let config = SolverConfig::default();
        let system = ProductSystem::assemble(g1, g2, &UnitKernel, UnitKernel, &config);
        let operator = SystemOperator::<_, _, T>::new(&system);
        let d = system.system_diagonal::<T>();
        let (n, m) = system.shape();
        let (nnz1, nnz2) = (g1.num_adjacency_entries(), g2.num_adjacency_entries());
        let x: Vec<T> = (0..n * m).map(|k| T::from_f64(0.1 * (k % 7) as f64 - 0.25)).collect();
        let off = reference(g1, g2, &x);
        let full: Vec<T> = d.iter().zip(&x).zip(&off).map(|((&d, &x), &o)| d * x - o).collect();
        let (mut off_counts, mut counts) = (TrafficCounters::new(), TrafficCounters::new());
        for application in ["first", "second"] {
            let mut y = vec![T::from_f64(7.0); n * m];
            system.apply_off_diagonal(&x, &mut y, &mut off_counts);
            assert!(bitwise_equal(&y, &off), "{case} off-diagonal at {}, {application}", T::NAME);
            let mut y = vec![T::from_f64(7.0); n * m];
            operator.apply_counted(&x, &mut y, &mut counts);
            assert!(bitwise_equal(&y, &full), "{case} at {}, {application}", T::NAME);
        }
        let flops = (2 * (nnz1 * m + n * nnz2)) as u64;
        assert_eq!(off_counts.flops, 2 * flops, "{case}");
        assert_eq!(counts.flops, 2 * (flops + 2 * (n * m) as u64), "{case}");
        assert_eq!(counts.kernel_evaluations, 0, "{case}");
    }

    #[test]
    fn a_unit_kernel_system_is_the_factored_reference_bit_for_bit() {
        for (g1, g2, case) in pairs() {
            assert_system_is_the_reference::<f32>(&g1, &g2, case);
            assert_system_is_the_reference::<f64>(&g1, &g2, case);
        }
    }

    /// The solver's answer for a unit-kernel pair is PCG over the system
    /// operator of the pair's `ProductSystem`, bit for bit, at both
    /// precisions: the public assembly replays what the solver runs.
    #[test]
    fn the_served_solve_is_pcg_over_the_assembled_system() {
        fn check<T: Scalar>(g1: &Graph, g2: &Graph, case: &str) {
            let config = SolverConfig {
                reorder: mgk_reorder::ReorderMethod::Natural,
                precision: T::PRECISION,
                ..SolverConfig::default()
            };
            let solver = MarginalizedKernelSolver::unlabeled(config);
            let served = solver.kernel_at::<T, _, _>(g1, g2).unwrap();
            let system = ProductSystem::assemble(g1, g2, &UnitKernel, UnitKernel, &config);
            let operator = SystemOperator::<_, _, T>::new(&system);
            let preconditioner = DiagonalOperator::new(system.preconditioner_diagonal::<T>());
            let rhs = system.rhs::<T>();
            let mut traffic = TrafficCounters::new();
            let (x, info) =
                pcg_counted(&operator, &preconditioner, &rhs, &config.solve, &mut traffic);
            let value: f64 =
                system.start_product().iter().zip(&x).map(|(&p, x)| p as f64 * x.to_f64()).sum();
            assert_eq!(served.value_f64.to_bits(), value.to_bits(), "{case} at {}", T::NAME);
            assert_eq!(served.iterations, info.iterations, "{case}");
            assert_eq!(served.traffic, traffic, "{case}");
        }
        for (g1, g2, case) in pairs() {
            check::<f32>(&g1, &g2, case);
            check::<f64>(&g1, &g2, case);
        }
    }

    /// Whether the served solve of `g1 × g2` under `edge_kernel` ran the
    /// factored operator: it alone evaluates no kernel.
    fn served_factored<
        V: Clone,
        E: Copy + Default,
        KV: BaseKernel<V>,
        KE: BaseKernel<E> + Clone,
    >(
        g1: &Graph<V, E>,
        g2: &Graph<V, E>,
        vertex_kernel: KV,
        edge_kernel: KE,
    ) -> bool {
        let config = SolverConfig { precision: Precision::F32, ..SolverConfig::default() };
        let solver = MarginalizedKernelSolver::new(vertex_kernel, edge_kernel, config);
        solver.kernel(g1, g2).unwrap().traffic.kernel_evaluations == 0
    }

    #[test]
    fn every_pair_of_a_constant_edge_kernel_and_no_other_is_factored() {
        let mut rng = StdRng::seed_from_u64(52);
        let (nws, other) = (
            newman_watts_strogatz(96, 3, 0.1, &mut rng),
            newman_watts_strogatz(40, 3, 0.1, &mut rng),
        );
        let ring =
            Graph::from_edge_list(12, &(0..12).map(|i| (i, (i + 1) % 12)).collect::<Vec<_>>());
        let path = Graph::from_edge_list(9, &(1..9).map(|i| (i - 1, i)).collect::<Vec<_>>());
        for (g1, g2) in [(&nws, &other), (&ring, &path)] {
            assert!(served_factored(g1, g2, UnitKernel, UnitKernel));
            // the Kronecker delta is 1 on every unlabeled pair, but says not
            // so, and the octile unit kernel is the unit kernel saying not so
            assert!(!served_factored(g1, g2, UnitKernel, KroneckerDelta::new(0.5)));
            assert!(!served_factored(g1, g2, UnitKernel, OctileUnitKernel));
        }
        // dense labeled graphs, under each kernel
        let (a, b) = (complete_labeled(12, &mut rng), complete_labeled(9, &mut rng));
        assert!(!served_factored(&a, &b, UnitKernel, SquareExponential::new(1.0)));
        assert!(!served_factored(&a, &b, UnitKernel, KroneckerDelta::new(0.5)));
        assert!(served_factored(&a, &b, UnitKernel, UnitKernel));
        // and molecules, under the unit kernel too
        let (m1, m2) = (synthetic_molecule(30, &mut rng), synthetic_molecule(23, &mut rng));
        assert!(served_factored(&m1, &m2, UnitKernel, UnitKernel));
        assert!(!served_factored(&m1, &m2, UnitKernel, OctileUnitKernel));
    }

    /// An empty operand leaves nothing to apply.
    #[test]
    fn an_empty_graph_has_an_empty_product() {
        let (empty, path) = (Graph::from_edge_list(0, &[]), Graph::from_edge_list(3, &[(0, 1)]));
        for (g1, g2) in [(&empty, &path), (&path, &empty)] {
            let system =
                ProductSystem::assemble(g1, g2, &UnitKernel, UnitKernel, &SolverConfig::default());
            assert_eq!(
                SystemOperator::<_, _, f32>::new(&system).apply_alloc(&[]),
                Vec::<f32>::new()
            );
        }
    }
}
