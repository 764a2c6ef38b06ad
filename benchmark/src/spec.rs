//! The benchmark's contract: workloads, end-to-end metrics with their
//! bounds, per-layer metrics with the end-to-end metric each is expected to
//! move. `BENCHMARK.json` at the repository root is `mgk-benchmark spec`
//! written to a file; a test keeps the two equal.

use crate::json::Json;
use crate::stats::Better;

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 24;

/// Fewer laps than this in a series fails the run: the quiet value of a
/// shorter series is whatever its luckiest lap was.
pub const MIN_LAPS: usize = 40;

/// Fresh set-ups per run, at least.
pub const MIN_SETUPS: usize = 20;

/// What the frozen calibration kernel (`host::calibration_ms`) read on a
/// quiet day on the host this benchmark was written on. End-to-end times and
/// rates are reported at this host speed — scaled by this over the run's own
/// quiet calibration time — because the host's clock drifts by several per
/// cent for minutes at a time and the kernel drifts with it (README, rule 4).
/// On another machine the constant only fixes the unit.
pub const REFERENCE_CALIB_MS: f64 = 0.95;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GramSparse,
    GramDense,
    GramSmallMol,
    ServeCold,
    ServeHotRestart,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::GramSparse,
        Workload::GramDense,
        Workload::GramSmallMol,
        Workload::ServeCold,
        Workload::ServeHotRestart,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GramSparse => "gram-sparse",
            Workload::GramDense => "gram-dense",
            Workload::GramSmallMol => "gram-small-mol",
            Workload::ServeCold => "serve-cold",
            Workload::ServeHotRestart => "serve-hot-restart",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layers do its work.
    pub fn why(self) -> &'static str {
        match self {
            Workload::GramSparse => "GramEngine over 3 unlabeled 96-node NWS/BA graphs: sparse tiles, so sparse tile kernels, PBR quality and PCG do the work and assembly is ~1% of a pair",
            Workload::GramDense => "GramEngine over 4 protein-like structures with a square-exponential edge kernel: dense banded tiles, so the dense-dense primitive and base-kernel FLOPs dominate",
            Workload::GramSmallMol => "GramEngine over 48 labelled 6-40 atom molecules, 1176 pairs of ~200 us: per-pair tiling, panels, kind table, assembly and allocation dominate, tile kernels barely register",
            Workload::ServeCold => "durable K=2 cluster from an empty store each lap: flush lane, never-seen requests one at a time, coalesced bursts, WAL appends, join; the write path",
            Workload::ServeHotRestart => "durable K=2 cluster re-spawned over a 2080-entry store each lap, then 8192 cache hits, 32 in flight: recovery, PairCache, tickets, routing, telemetry; the read path",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const PAIRS_PER_S: &str = "pairs_per_s";
pub const COLD_PAIR_MS: &str = "cold_pair_ms";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: SETUP_S, unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: PAIRS_PER_S, unit: "pairs/s", better: Better::Higher, bound: 0.20 },
    EndToEnd { name: COLD_PAIR_MS, unit: "ms", better: Better::Lower, bound: 0.20 },
    EndToEnd { name: PEAK_RSS_MB, unit: "MiB", better: Better::Lower, bound: 0.20 },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this number is expected to move;
    /// flat elsewhere. Empty for numbers that describe the run itself.
    pub moves: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower, moves }
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher, moves }
}

/// For a count that is neither good nor bad, `better` is nominal: the file
/// format asks for a direction on every metric.
pub const PER_LAYER: [PerLayer; 68] = [
    lower("reorder.prepare_us", "us", "cold_pair_ms @ gram-sparse, gram-dense, serve-cold"),
    lower("reorder.tile_reduction", "ratio", "pairs_per_s @ gram-sparse"),
    lower("tile.from_graph_us", "us", "pairs_per_s @ gram-small-mol"),
    lower("tile.nonempty_tiles", "count", "pairs_per_s @ gram-sparse, gram-dense"),
    higher("tile.nnz_per_tile", "count", "pairs_per_s @ gram-sparse, gram-dense"),
    lower("octile_ops.panels_us", "us", "pairs_per_s @ gram-small-mol"),
    lower("octile_ops.kind_table_us", "us", "pairs_per_s @ gram-small-mol"),
    lower("octile_ops.tile_pair_ns.dense_dense", "ns", "pairs_per_s @ gram-dense"),
    lower("octile_ops.tile_pair_ns.dense_sparse", "ns", "pairs_per_s @ gram-dense, gram-sparse"),
    lower("octile_ops.tile_pair_ns.sparse_sparse", "ns", "pairs_per_s @ gram-sparse"),
    higher("octile_ops.kind_share.dense_dense", "ratio", "pairs_per_s @ gram-dense"),
    higher("octile_ops.kind_share.dense_sparse", "ratio", "pairs_per_s @ gram-dense, gram-sparse"),
    higher("octile_ops.kind_share.sparse_sparse", "ratio", "pairs_per_s @ gram-sparse"),
    lower("product.assemble_us", "us", "pairs_per_s @ gram-small-mol; cold_pair_ms @ all"),
    lower("product.assemble_share", "ratio", "pairs_per_s @ gram-small-mol; cold_pair_ms @ all"),
    lower("product.apply_us", "us", "pairs_per_s @ gram-sparse, gram-dense"),
    lower("product.apply_flops", "flops", "pairs_per_s @ gram-sparse, gram-dense"),
    lower("product.apply_bytes", "bytes", "pairs_per_s @ gram-sparse, gram-dense"),
    higher("product.apply_intensity", "flops/byte", "pairs_per_s @ gram-sparse, gram-dense"),
    higher("product.apply_gflops", "gflop/s", "pairs_per_s @ gram-sparse, gram-dense"),
    higher("product.apply_roofline_fraction", "ratio", "pairs_per_s @ gram-sparse, gram-dense"),
    lower("cg.iters_per_pair", "count", "pairs_per_s @ gram-sparse, gram-dense, gram-small-mol"),
    lower("cg.us_per_iter", "us", "pairs_per_s @ gram-sparse, gram-dense"),
    lower("cg.vecops_share", "ratio", "pairs_per_s @ gram-small-mol"),
    lower("cg.nonconverged", "count", ""),
    lower("solver.kernel_us_p50", "us", "cold_pair_ms @ gram-sparse, gram-dense, gram-small-mol"),
    lower("solver.kernel_us_p95", "us", "cold_pair_ms @ gram-sparse, gram-dense, gram-small-mol"),
    higher("solver.ledger_closure", "ratio", ""),
    lower("gram.preprocessing_share", "ratio", "pairs_per_s @ gram-sparse, gram-dense"),
    lower("gram.overhead_share", "ratio", "pairs_per_s @ gram-small-mol"),
    lower("service.prepare_pair_us.miss", "us", "cold_pair_ms @ serve-cold"),
    lower("service.prepare_pair_us.hit", "us", "cold_pair_ms @ serve-cold"),
    lower("service.solve_prepared_us", "us", "cold_pair_ms @ serve-cold"),
    lower("service.fold_us", "us", "cold_pair_ms @ serve-cold"),
    lower("service.cached_answer_us", "us", "pairs_per_s @ serve-hot-restart"),
    higher("service.flush_pairs_per_s", "pairs/s", "setup_s @ serve-cold"),
    higher("cache.pair_hit_ratio", "ratio", "pairs_per_s @ serve-hot-restart"),
    higher("cache.reorder_hit_ratio", "ratio", "cold_pair_ms @ serve-cold"),
    higher("cache.coalesced_share", "ratio", "pairs_per_s @ serve-cold"),
    lower("scheduler.hit_req_us_p50", "us", "pairs_per_s @ serve-hot-restart"),
    lower("scheduler.hit_req_us_p99", "us", "pairs_per_s @ serve-hot-restart"),
    lower("scheduler.overhead_us", "us", "cold_pair_ms @ serve-cold"),
    lower("scheduler.burst8_ms", "ms", "pairs_per_s @ serve-cold"),
    lower("scheduler.spawn_join_us", "us", "setup_s @ serve-cold, serve-hot-restart"),
    lower("cluster.route_ns", "ns", "pairs_per_s @ serve-hot-restart"),
    lower("cluster.shard_imbalance", "ratio", "pairs_per_s @ serve-hot-restart"),
    lower("cluster.k2_over_k1", "ratio", "pairs_per_s @ serve-hot-restart"),
    lower("store.append_us", "us", "pairs_per_s @ serve-cold"),
    lower("store.bytes_per_entry", "bytes", "pairs_per_s @ serve-cold"),
    lower("store.flush_boundary_us", "us", "pairs_per_s @ serve-cold"),
    lower("store.snapshot_write_ms", "ms", "pairs_per_s @ serve-cold"),
    lower("store.open_ms", "ms", "setup_s @ serve-hot-restart"),
    higher("store.replayed_entries", "count", "setup_s @ serve-hot-restart"),
    lower("telemetry.histogram_ns", "ns", "pairs_per_s @ serve-hot-restart"),
    lower("telemetry.counter_ns", "ns", "pairs_per_s @ serve-hot-restart"),
    lower("datasets.materialise_us", "us", "setup_s @ gram-sparse, gram-dense, gram-small-mol"),
    higher("host.pinned_cpu", "cpu", ""),
    lower("host.calib_ms", "ms", ""),
    lower("host.calib_p50_over_q05", "ratio", ""),
    lower("host.lap_p50_over_q05", "ratio", ""),
    higher("host.laps", "count", ""),
    higher("host.stream_triad_gbs", "GB/s", ""),
    higher("host.fma_peak_gflops", "gflop/s", ""),
    lower("oracle.max_rel_err", "ratio", ""),
    lower("oracle.failed_share", "ratio", ""),
    lower("oracle.nondeterministic_laps", "count", ""),
    lower("trace.overhead_share", "ratio", ""),
    higher("trace.spans", "count", ""),
];

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--bin",
        "mgk-benchmark",
        "--",
    ];
    Json::obj([
        ("command", Json::Arr(command.map(Json::str).to_vec())),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
