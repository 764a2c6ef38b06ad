//! One run of one workload, start to report.

use mgk_kernels::{BaseKernel, KroneckerDelta, SquareExponential, UnitKernel};
use mgk_runtime::ContentHash;

use crate::corpus::{self, Corpus};
use crate::report::RunReport;
use crate::run::{out_dir, LapLog, RunContext};
use crate::spec::Workload;
use crate::{gram, layers, report, serve};

type Layers = Vec<(&'static str, f64)>;

fn gram_workload<KV, KE, V, E>(
    ctx: &RunContext,
    log: &mut LapLog,
    vertex_kernel: KV,
    edge_kernel: KE,
    make_corpus: fn(u64) -> Corpus<V, E>,
) -> Layers
where
    V: Clone + Send + Sync + ContentHash + 'static,
    E: Copy + Default + Send + Sync + ContentHash + 'static,
    KV: BaseKernel<V> + Clone + Send + Sync + 'static,
    KE: BaseKernel<E> + Clone + Send + Sync + 'static,
{
    let corpus = gram::run(ctx, log, vertex_kernel.clone(), edge_kernel.clone(), make_corpus);
    if !ctx.trace {
        return Vec::new();
    }
    let Corpus { graphs, cold_pairs } = &corpus;
    let materialise = || drop(make_corpus(ctx.seed));
    layers::walk(ctx, log, &vertex_kernel, &edge_kernel, graphs, cold_pairs, materialise)
}

fn serve_layers(
    ctx: &RunContext,
    log: &LapLog,
    structures: &[corpus::Molecule],
    pairs: &corpus::Pairs<mgk_graph::AtomLabel, mgk_graph::BondLabel>,
    materialise: impl Fn(),
) -> Layers {
    if !ctx.trace {
        return Vec::new();
    }
    let (vertex, edge) = serve::molecule_kernels();
    layers::walk(ctx, log, &vertex, &edge, structures, pairs, materialise)
}

/// Run the workload `ctx` names and report it. A traced run also writes its
/// spans to `benchmark/out/trace-<workload>.json`.
pub fn execute(ctx: &RunContext) -> RunReport {
    let mut log = LapLog::default();
    let (molecule_vertex, molecule_edge) = serve::molecule_kernels();
    let layers = match ctx.workload {
        Workload::GramSparse => {
            gram_workload(ctx, &mut log, UnitKernel, UnitKernel, corpus::gram_sparse)
        }
        Workload::GramDense => gram_workload(
            ctx,
            &mut log,
            KroneckerDelta::new(0.3),
            SquareExponential::new(1.0),
            corpus::gram_dense,
        ),
        Workload::GramSmallMol => {
            gram_workload(ctx, &mut log, molecule_vertex, molecule_edge, corpus::gram_small_mol)
        }
        Workload::ServeCold => {
            let corpus = serve::run_cold(ctx, &mut log);
            let materialise = || drop(corpus::serve_cold(ctx.seed));
            serve_layers(ctx, &log, &corpus.structures, &corpus.requests, materialise)
        }
        Workload::ServeHotRestart => {
            let corpus = serve::run_hot(ctx, &mut log);
            let materialise = || drop(corpus::serve_hot_restart(ctx.seed));
            serve_layers(ctx, &log, &corpus.structures, &corpus.misses, materialise)
        }
    };
    let mut report = report::build(ctx, &log, &layers);
    if ctx.trace {
        let path = out_dir().join(format!("trace-{}.json", ctx.workload.name()));
        let written = std::fs::create_dir_all(out_dir()).and_then(|()| {
            std::fs::write(&path, ctx.tracer.to_json(ctx.workload.name(), ctx.seed).to_compact())
        });
        if let Err(error) = written {
            report.correct = false;
            report.problems.push(format!("writing {}: {error}", path.display()));
        }
    }
    report
}
