//! The answer ledger: the bits of `K(G, G')` on a fixed corpus, tied to
//! [`ARITHMETIC_VERSION`].
//!
//! One line per pair of the corpus: the kernel value's bits in hex, the PCG
//! iteration count and an FNV-1a digest of the nodal vector (in the input
//! vertex order), each from a solve at `f32` and at `f64`. The corpus spans every regime the solver serves:
//! unlabeled NWS-96 and BA-96 graphs under the unit kernels, protein-48
//! structures under `KroneckerDelta(0.3)` and `SquareExponential(1.0)`,
//! molecules of 6–80 atoms under `KroneckerDelta(0.5)`, and 1-vertex and
//! non-multiple-of-8 graphs among each. The text holds no timing, so it is
//! the same in debug and release builds and on every instruction set; the
//! `answer_ledger` bin prints it and CI diffs it against
//! `crates/bench/expected/answer_ledger.txt`.
//!
//! A change that moves an answer bit bumps [`ARITHMETIC_VERSION`],
//! regenerates that file and appends `version digest` to
//! `answer_ledger.history` beside it, where [`digest`] is the FNV-1a digest
//! of the file's bytes.

use std::fmt::Write;

use mgk_core::{MarginalizedKernelSolver, SolverConfig, ARITHMETIC_VERSION};
use mgk_datasets::molecules::synthetic_molecule;
use mgk_datasets::protein::synthetic_structure;
use mgk_graph::generators::{barabasi_albert, newman_watts_strogatz};
use mgk_graph::{Graph, Unlabeled};
use mgk_kernels::{BaseKernel, KroneckerDelta, SquareExponential, UnitKernel};
use mgk_linalg::Scalar;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// The digest `answer_ledger.history` records for a ledger's text.
pub fn digest(ledger: &str) -> String {
    format!("{:016x}", fnv1a(ledger.bytes()))
}

/// `value iterations nodal-digest` of one solve at `T`'s precision.
fn solve<T: Scalar, KV, KE, V, E>(
    solver: &MarginalizedKernelSolver<KV, KE>,
    g1: &Graph<V, E>,
    g2: &Graph<V, E>,
) -> String
where
    V: Clone,
    E: Copy + Default,
    KV: BaseKernel<V>,
    KE: BaseKernel<E> + Clone,
{
    match solver.kernel_at::<T, _, _>(g1, g2) {
        Ok(result) => {
            let nodal = result.nodal.unwrap_or_default();
            let bytes = nodal.iter().flat_map(|v| v.to_f64().to_bits().to_le_bytes());
            format!(
                "{:016x} {:>3} {:016x}",
                result.value_f64.to_bits(),
                result.iterations,
                fnv1a(bytes)
            )
        }
        Err(error) => format!("error: {error}"),
    }
}

/// Append the lines of every pair `pairs` names among `graphs`.
fn section<KV, KE, V, E>(
    out: &mut String,
    kernels: (KV, KE),
    graphs: &[(&str, Graph<V, E>)],
    pairs: &[(usize, usize)],
) where
    V: Clone,
    E: Copy + Default,
    KV: BaseKernel<V>,
    KE: BaseKernel<E> + Clone,
{
    let config = SolverConfig { compute_nodal: true, ..SolverConfig::default() };
    let solver = MarginalizedKernelSolver::new(kernels.0, kernels.1, config);
    for &(i, j) in pairs {
        let ((a, g1), (b, g2)) = (&graphs[i], &graphs[j]);
        let narrow = solve::<f32, _, _, _, _>(&solver, g1, g2);
        let wide = solve::<f64, _, _, _, _>(&solver, g1, g2);
        // writing to a String cannot fail
        let _ = writeln!(out, "{:<24} f32 {narrow}  f64 {wide}", format!("{a}×{b}"));
    }
}

/// A ring of `n` vertices.
fn ring(n: u32) -> Graph {
    let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    Graph::from_edge_list(n as usize, &edges)
}

/// A path of `n` vertices.
fn path(n: u32) -> Graph {
    let edges: Vec<_> = (1..n).map(|i| (i - 1, i)).collect();
    Graph::from_edge_list(n as usize, &edges)
}

/// Every pair `(i, j)`, `i ≤ j`, of `0..n`.
fn all_pairs(n: usize) -> Vec<(usize, usize)> {
    (0..n).flat_map(|i| (i..n).map(move |j| (i, j))).collect()
}

/// The ledger's text: a header naming [`ARITHMETIC_VERSION`], then one line
/// per corpus pair.
pub fn answer_ledger() -> String {
    let mut out = format!("answer ledger, ARITHMETIC_VERSION {ARITHMETIC_VERSION}\n");
    out.push_str("pair                     prec value            its nodal            prec value            its nodal\n");
    let mut rng = StdRng::seed_from_u64(20);

    let unlabeled: Vec<(&str, Graph<Unlabeled, Unlabeled>)> = vec![
        ("nws96a", newman_watts_strogatz(96, 3, 0.1, &mut rng)),
        ("nws96b", newman_watts_strogatz(96, 3, 0.1, &mut rng)),
        ("ba96a", barabasi_albert(96, 6, &mut rng)),
        ("ba96b", barabasi_albert(96, 6, &mut rng)),
        ("ring13", ring(13)),
        ("path11", path(11)),
        ("single", Graph::from_edge_list(1, &[])),
    ];
    let mut pairs = all_pairs(4);
    pairs.extend([(0, 4), (2, 5), (4, 5), (4, 4), (6, 6), (6, 4), (0, 6)]);
    section(&mut out, (UnitKernel, UnitKernel), &unlabeled, &pairs);

    let proteins: Vec<_> = [("prot48a", 48), ("prot48b", 48), ("prot37", 37)]
        .into_iter()
        .map(|(name, atoms)| (name, synthetic_structure(atoms, &mut rng).graph))
        .collect();
    let kernels = (KroneckerDelta::new(0.3), SquareExponential::new(1.0));
    section(&mut out, kernels, &proteins, &all_pairs(proteins.len()));

    let molecules: Vec<_> = [("mol6", 6), ("mol13", 13), ("mol29", 29), ("mol80", 80), ("mol1", 1)]
        .into_iter()
        .map(|(name, atoms)| (name, synthetic_molecule(atoms, &mut rng)))
        .collect();
    let mut pairs = all_pairs(4);
    pairs.extend([(4, 4), (4, 1)]);
    let delta = KroneckerDelta::new(0.5);
    section(&mut out, (delta, delta), &molecules, &pairs);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEDGER: &str = include_str!("../expected/answer_ledger.txt");
    const HISTORY: &str = include_str!("../expected/answer_ledger.history");

    /// The `(version, digest)` lines of the history, in order.
    fn history() -> Vec<(u32, &'static str)> {
        HISTORY
            .lines()
            .map(|line| {
                let (version, digest) = line.split_once(' ').expect("`version digest`");
                (version.parse().expect("a version number"), digest)
            })
            .collect()
    }

    #[test]
    fn the_committed_ledger_is_recorded_under_the_current_version() {
        let header = LEDGER.lines().next().expect("a header line");
        assert_eq!(header, format!("answer ledger, ARITHMETIC_VERSION {ARITHMETIC_VERSION}"));
        let history = history();
        let recorded: Vec<_> =
            history.iter().filter(|(v, _)| *v == ARITHMETIC_VERSION).map(|(_, d)| *d).collect();
        assert_eq!(
            recorded,
            [digest(LEDGER)],
            "answer_ledger.txt moved without an ARITHMETIC_VERSION bump, or its digest was not \
             appended to answer_ledger.history"
        );
        for (k, (version, _)) in history.iter().enumerate() {
            assert!(
                history[..k].iter().all(|(earlier, _)| earlier < version),
                "version {version} carries two digests, or the history is out of order"
            );
        }
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(*b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
