//! The three `gram-*` workloads: `GramEngine::compute` for throughput,
//! `MarginalizedKernelSolver::kernel` one pair at a time for cold latency.

use mgk_core::{GramConfig, GramEngine, MarginalizedKernelSolver, SolverConfig};
use mgk_kernels::BaseKernel;
use mgk_linalg::Precision;
use mgk_runtime::ContentHash;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::corpus::Corpus;
use crate::oracle::{reference_kernel, reference_normalised};
use crate::run::{count_non_finite, hash_values, LapFingerprint, LapLog, RunContext};
use crate::stats::median;

/// The solver every workload runs: the repository's defaults, with the
/// arithmetic pinned to `f32` whatever `MGK_TEST_PRECISION` says.
pub fn solver_config() -> SolverConfig {
    SolverConfig { precision: Precision::F32, ..SolverConfig::default() }
}

/// Fresh set-ups before every throughput lap; a set-up here costs well under
/// a tenth of a lap.
const SETUPS_PER_ROUND: usize = 4;

/// What a set-up leaves behind for the laps.
struct GramState<KV, KE, V, E> {
    corpus: Corpus<V, E>,
    solver: MarginalizedKernelSolver<KV, KE>,
    engine: GramEngine<KV, KE>,
}

fn set_up<KV, KE, V, E>(
    ctx: &RunContext,
    vertex_kernel: &KV,
    edge_kernel: &KE,
    make_corpus: fn(u64) -> Corpus<V, E>,
) -> GramState<KV, KE, V, E>
where
    KV: Clone,
    KE: Clone,
{
    let tracer = &ctx.tracer;
    let corpus = tracer.span("datasets.materialise", || make_corpus(ctx.seed));
    let solver =
        MarginalizedKernelSolver::new(vertex_kernel.clone(), edge_kernel.clone(), solver_config());
    let engine =
        tracer.span("gram.engine_new", || GramEngine::new(solver.clone(), GramConfig::default()));
    GramState { corpus, solver, engine }
}

/// Run rounds of set-ups, a throughput lap and a cold-pair lap until the
/// run's time is up, then the oracle; returns the corpus for the traced
/// run's layer walk.
pub fn run<KV, KE, V, E>(
    ctx: &RunContext,
    log: &mut LapLog,
    vertex_kernel: KV,
    edge_kernel: KE,
    make_corpus: fn(u64) -> Corpus<V, E>,
) -> Corpus<V, E>
where
    V: Clone + Send + Sync + ContentHash,
    E: Copy + Default + Send + Sync + ContentHash,
    KV: BaseKernel<V> + Clone + Send + Sync,
    KE: BaseKernel<E> + Clone + Send + Sync,
{
    let tracer = &ctx.tracer;
    let n_pairs = |n: usize| (n * (n + 1) / 2) as u64;
    let mut throughput_print = LapFingerprint::default();
    let mut cold_print = LapFingerprint::default();
    let mut last_matrix = Vec::new();
    let mut last_cold = Vec::new();
    let mut state = None;
    let mut lap = 0u32;
    // one round: a few fresh set-ups, one throughput lap, one cold-pair lap.
    // All three series span the whole run, so a slow episode of the host
    // cannot cover any one of them.
    while ctx.keep_lapping(lap as usize) {
        lap += 1;
        ctx.begin_lap(lap);

        for _ in 0..SETUPS_PER_ROUND {
            let (fresh, ns) = tracer
                .span_timed("setup", || set_up(ctx, &vertex_kernel, &edge_kernel, make_corpus));
            log.setup_s.push(ns as f64 / 1e9);
            state = Some(fresh);
        }
        let GramState { corpus, solver, engine } = state.as_ref().expect("a set-up just ran");

        let n = corpus.graphs.len();
        let (gram, ns) = tracer.span_timed("gram.compute", || engine.compute(&corpus.graphs));
        let seconds = ns as f64 / 1e9;
        log.pairs_per_s.push(n_pairs(n) as f64 / seconds);
        log.record_lap_seconds(tracer.enabled(), seconds);
        let upper: Vec<f32> =
            (0..n).flat_map(|i| (i..n).map(move |j| (i, j))).map(|(i, j)| gram.get(i, j)).collect();
        log.attempted += n_pairs(n);
        log.failed += count_non_finite(&upper);
        if !throughput_print.matches_first(hash_values(upper)) {
            log.nondeterministic_laps += 1;
        }
        last_matrix = gram.matrix;

        let mut latencies_ms = Vec::with_capacity(corpus.cold_pairs.len());
        let mut values = Vec::with_capacity(corpus.cold_pairs.len());
        tracer.span("cold_lap", || {
            for (a, b) in &corpus.cold_pairs {
                let (result, ns) = tracer.span_timed("solver.kernel", || solver.kernel(a, b));
                latencies_ms.push(ns as f64 / 1e6);
                values.push(result.map_or(f32::NAN, |r| r.value));
            }
        });
        log.cold_pair_ms.push(median(&latencies_ms));
        log.attempted += values.len() as u64;
        log.failed += count_non_finite(&values);
        if !cold_print.matches_first(hash_values(values.iter().copied())) {
            log.nondeterministic_laps += 1;
        }
        last_cold = values;
        log.calibrate();
    }
    let corpus = state.expect("at least one round ran").corpus;
    let n = corpus.graphs.len();
    tracer.set_enabled(ctx.trace);

    // memory is read before the oracle allocates its explicit systems: the
    // reference solver is the benchmark's, not the program's
    log.peak_rss_mib = crate::host::peak_rss_mib();

    // a seeded sample of the delivered values against the reference solve:
    // up to 12 draws, stopping early after the second once half a second is
    // spent (a 96-node pair costs ~0.1 s to reference, a molecule pair ~1 ms)
    let draws = if ctx.smoke { 1 } else { 12 };
    let oracle_started = std::time::Instant::now();
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x0eac1e);
    for draw in 0..draws {
        if draw >= 2 && oracle_started.elapsed().as_secs_f64() > 0.5 {
            break;
        }
        let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let (gi, gj) = (&corpus.graphs[i], &corpus.graphs[j]);
        let expected = reference_normalised(gi, gj, &vertex_kernel, &edge_kernel);
        log.oracle.check(last_matrix[i * n + j] as f64, expected);
        let k = rng.gen_range(0..corpus.cold_pairs.len());
        let (a, b) = &corpus.cold_pairs[k];
        log.oracle.check(last_cold[k] as f64, reference_kernel(a, b, &vertex_kernel, &edge_kernel));
    }
    log.attempted += log.oracle.checked as u64;
    log.failed += log.oracle.failed as u64;
    corpus
}
