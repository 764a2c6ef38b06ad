//! The layer walk of a traced run: every per-layer metric, measured from
//! outside by timing calls into each layer's public functions on the
//! workload's own graphs, each call inside a span.
//!
//! The walk is the same on every workload — a `gram-*` run also walks the
//! serving layers over its graphs, a `serve-*` run also walks the solver —
//! so every metric is reported everywhere and "flat elsewhere" can be
//! checked.

use std::cell::Cell;
use std::time::{Duration, Instant};

use mgk_core::octile_ops::{
    tile_pair_product_with_panels, KindTable, PairContext, PaneledTile, TileCosts, TilePanels,
    TileProductKind,
};
use mgk_core::{
    GramConfig, GramEngine, MarginalizedKernelSolver, ProductSystem, SolverConfig, SystemOperator,
};
use mgk_graph::Graph;
use mgk_kernels::BaseKernel;
use mgk_linalg::{
    pcg_counted_warm_multi, DiagonalOperator, LinearOperator, Precision, TrafficCounters,
};
use mgk_reorder::ReorderMethod;
use mgk_runtime::{
    ClusterConfig, ContentHash, GramCluster, GramScheduler, GramService, GramServiceConfig,
    SchedulerConfig, Ticket,
};
use mgk_store::{FsyncPolicy, PairStore, StoreSnapshot, StoredEntry, StoredKey, StoredSide};
use mgk_telemetry::{Counter, Histogram};
use mgk_tile::OctileMatrix;

use crate::corpus::{Pairs, SHARDS};
use crate::gram::solver_config;
use crate::host;
use crate::run::{windowed, LapLog, RunContext};
use crate::serve::Scratch;
use crate::stats::{median, quantile, quiet_value, Better, Summary};
use crate::trace::Tracer;

/// Wraps the system operator so every application is a `product.apply`
/// span; what is left of the enclosing `cg.solve` span is the solver's own
/// vector work.
struct TimedOperator<'a, A> {
    inner: &'a A,
    tracer: &'a Tracer,
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl<A: LinearOperator<f32>> LinearOperator<f32> for TimedOperator<'_, A> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f32], y: &mut [f32]) {
        self.apply_counted(x, y, &mut TrafficCounters::new());
    }

    fn apply_counted(&self, x: &[f32], y: &mut [f32], counters: &mut TrafficCounters) {
        let ((), ns) =
            self.tracer.span_timed("product.apply", || self.inner.apply_counted(x, y, counters));
        self.ns.set(self.ns.get() + ns);
        self.calls.set(self.calls.get() + 1);
    }
}

type PairRef<'a, V, E> = (&'a Graph<V, E>, &'a Graph<V, E>);

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Up to `limit` items spread evenly over a slice.
fn spread<T>(items: &[T], limit: usize) -> Vec<&T> {
    let n = items.len().min(limit);
    (0..n).map(|k| &items[k * items.len() / n]).collect()
}

/// Ask for the pairs of `pool` `hits` times over, both orientations in
/// turn, with 32 answers outstanding; returns the seconds it took. `request`
/// sends one pair and returns its ticket.
fn hot_lap<V: Clone, E: Clone, T: Clone>(
    pool: &[PairRef<'_, V, E>],
    hits: usize,
    request: impl Fn(Graph<V, E>, Graph<V, E>) -> Option<Ticket<T>>,
) -> f64 {
    let started = Instant::now();
    windowed(
        0..hits,
        32,
        |k| {
            let (a, b) = pool[k % pool.len()];
            let (a, b) = if (k / pool.len()) % 2 == 1 { (b, a) } else { (a, b) };
            request(a.clone(), b.clone())
        },
        |ticket| drop(ticket.map(|t| t.wait())),
    );
    started.elapsed().as_secs_f64()
}

/// Measure every per-layer metric. `graphs` are the workload's structures,
/// `pairs` its never-seen pairs, `materialise` rebuilds its corpus from the
/// seed.
#[allow(clippy::too_many_lines)]
pub fn walk<KV, KE, V, E>(
    ctx: &RunContext,
    log: &LapLog,
    vertex_kernel: &KV,
    edge_kernel: &KE,
    graphs: &[Graph<V, E>],
    pairs: &Pairs<V, E>,
    materialise: impl Fn(),
) -> Vec<(&'static str, f64)>
where
    V: Clone + Send + Sync + ContentHash + 'static,
    E: Copy + Default + Send + Sync + ContentHash + 'static,
    KV: BaseKernel<V> + Clone + Send + Sync + 'static,
    KE: BaseKernel<E> + Clone + Send + Sync + 'static,
{
    let tracer = &ctx.tracer;
    tracer.set_enabled(true);
    tracer.set_lap(0);
    // a smoke run takes one sample where a full run takes several
    let reps = if ctx.smoke { 1 } else { 5 };
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    let solver =
        MarginalizedKernelSolver::new(vertex_kernel.clone(), edge_kernel.clone(), solver_config());
    // what the engine and the service solve prepared pairs with
    let natural = SolverConfig {
        reorder: ReorderMethod::Natural,
        stopping_probability: None,
        ..solver_config()
    };
    let new_service = || GramService::new(solver.clone(), GramServiceConfig::default());

    // the pool of pairs the pair-level probes draw from: the never-seen
    // pairs, then pairs of the workload's own graphs
    let own_pairs = (0..graphs.len())
        .flat_map(|i| (i + 1..graphs.len()).map(move |j| (i, j)))
        .map(|(i, j)| (&graphs[i], &graphs[j]));
    let pool: Vec<PairRef<'_, V, E>> = pairs.iter().map(|(a, b)| (a, b)).chain(own_pairs).collect();
    let pool: Vec<PairRef<'_, V, E>> =
        spread(&pool, if ctx.smoke { 4 } else { 48 }).into_iter().copied().collect();

    // ---- host ---------------------------------------------------------
    // a smoke run only shows that the probe runs
    let triad_cap = if ctx.smoke { 8 << 20 } else { host::MAX_TRIAD_ARRAY_BYTES };
    let triad = tracer.span("host.stream_triad", || host::stream_triad(triad_cap));
    let fma_peak = tracer.span("host.fma_peak", host::fma_peak_gflops);
    eprintln!(
        "  host roofline: triad {:.2} GB/s over 3 arrays of {} MiB (reported last-level cache {} MiB), multiply-add peak {:.2} GFLOP/s",
        triad.gb_per_s,
        triad.array_bytes >> 20,
        triad.llc_bytes >> 20,
        fma_peak
    );

    // ---- datasets -----------------------------------------------------
    let materialise_us: Vec<f64> =
        (0..reps).map(|_| us(tracer.span_timed("datasets.materialise", &materialise).1)).collect();
    out.push(("datasets.materialise_us", median(&materialise_us)));

    // ---- reorder, tile, panels: once per structure --------------------
    let (mut prepare_us, mut from_graph_us, mut panels_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut tiles_natural, mut tiles_pbr, mut nonzeros) = (0usize, 0usize, 0usize);
    let sampled_graphs = spread(graphs, if ctx.smoke { 2 } else { 12 });
    for &g in &sampled_graphs {
        let (prepared, ns) = tracer.span_timed("reorder.prepare", || solver.prepare(g));
        prepare_us.push(us(ns));
        let prepared = prepared.unwrap_or_else(|| g.clone());
        tiles_natural += OctileMatrix::from_graph(g).num_tiles();
        let (octiles, ns) =
            tracer.span_timed("tile.from_graph", || OctileMatrix::from_graph(&prepared));
        from_graph_us.push(us(ns));
        tiles_pbr += octiles.num_tiles();
        nonzeros += octiles.num_nonzeros();
        let (_, ns) = tracer.span_timed("octile_ops.panels", || {
            octiles.tiles().iter().map(TilePanels::new).collect::<Vec<_>>()
        });
        panels_us.push(us(ns));
    }
    out.push(("reorder.prepare_us", median(&prepare_us)));
    out.push(("reorder.tile_reduction", ratio(tiles_pbr as f64, tiles_natural as f64)));
    out.push(("tile.from_graph_us", median(&from_graph_us)));
    out.push(("tile.nonempty_tiles", ratio(tiles_pbr as f64, sampled_graphs.len() as f64)));
    out.push(("tile.nnz_per_tile", ratio(nonzeros as f64, tiles_pbr as f64)));
    out.push(("octile_ops.panels_us", median(&panels_us)));
    let cost = edge_kernel.cost();
    let kind_table_us: Vec<f64> = (0..reps)
        .map(|_| us(tracer.span_timed("octile_ops.kind_table", || KindTable::new(cost.flops)).1))
        .collect();
    out.push(("octile_ops.kind_table_us", median(&kind_table_us)));

    // ---- product, cg, solver: one pair at a time ----------------------
    let kinds =
        [TileProductKind::DenseDense, TileProductKind::DenseSparse, TileProductKind::SparseSparse];
    let kind_table = KindTable::new(cost.flops);
    let tile_costs =
        TileCosts { label_bytes: cost.label_bytes, float_bytes: 4, kernel_flops: cost.flops };
    let mut kind_ns = [0u64; 3];
    let mut kind_routed = [0u64; 3];
    let mut tile_pairs = 0u64;
    let (mut assemble_ns, mut solve_ns, mut apply_ns, mut applies) = (0u64, 0u64, 0u64, 0u64);
    let (mut iterations, mut nonconverged, mut replayed_ns, mut kernel_ns) =
        (0u64, 0u64, 0u64, 0u64);
    let mut one_apply = TrafficCounters::new();
    let (mut ledgers, mut ledger_pairs) = (0u64, 0u64);
    let mut ledger_diverged = false;
    let mut kernel_us = Vec::new();
    let pair_budget = Instant::now() + Duration::from_secs_f64(ctx.seconds * 0.07);
    for &(a, b) in &pool {
        if ledger_pairs >= 3 && Instant::now() > pair_budget {
            break;
        }
        ledger_pairs += 1;
        tracer.span("ledger.pair", || {
            // the ledger: what `kernel(a, b)` does, one public call at a
            // time. Ledger and front door take turns going first, so neither
            // always finds the pair's data already in cache.
            let mut replay = || {
                let (pa, ns_a) = tracer.span_timed("reorder.prepare", || solver.prepare(a));
                let (pb, ns_b) = tracer.span_timed("reorder.prepare", || solver.prepare(b));
                let (pa, pb) = (pa.unwrap_or_else(|| a.clone()), pb.unwrap_or_else(|| b.clone()));
                let (system, ns_assemble) = tracer.span_timed("product.assemble", || {
                    ProductSystem::assemble(&pa, &pb, vertex_kernel, edge_kernel.clone(), &natural)
                });
                let ((info, ns_apply, calls, value), ns_solve) =
                    tracer.span_timed("cg.solve", || {
                        let rhs = system.rhs::<f32>();
                        let operator = SystemOperator::<E, KE, f32>::new(&system);
                        let preconditioner =
                            DiagonalOperator::new(system.preconditioner_diagonal::<f32>());
                        let timed = TimedOperator {
                            inner: &operator,
                            tracer,
                            ns: Cell::new(0),
                            calls: Cell::new(0),
                        };
                        let (x, info) = pcg_counted_warm_multi(
                            &timed,
                            &preconditioner,
                            &rhs,
                            &[],
                            &natural.solve,
                            &mut TrafficCounters::new(),
                        );
                        let value: f64 = system
                            .start_product()
                            .iter()
                            .zip(&x)
                            .map(|(&p, &x)| p as f64 * x as f64)
                            .sum();
                        (info, timed.ns.get(), timed.calls.get(), value)
                    });
                ledgers += 1;
                assemble_ns += ns_assemble;
                solve_ns += ns_solve;
                apply_ns += ns_apply;
                applies += calls;
                iterations += info.iterations as u64;
                nonconverged += u64::from(!info.converged);
                replayed_ns += ns_a + ns_b + ns_assemble + ns_solve;
                (pa, pb, system, value)
            };
            let mut front_door = || {
                let (result, ns) = tracer.span_timed("solver.kernel", || solver.kernel(a, b));
                kernel_ns += ns;
                kernel_us.push(us(ns));
                result.map_or(f64::NAN, |r| r.value_f64)
            };
            let mut last = None;
            for rep in 0..reps {
                let (replayed, value) = if rep % 2 == 0 {
                    let replayed = replay();
                    (replayed, front_door())
                } else {
                    let value = front_door();
                    (replay(), value)
                };
                // the ledger replays the front door's arithmetic: same bits,
                // or it no longer describes what `kernel` does
                ledger_diverged |= replayed.3.to_bits() != value.to_bits();
                last = Some(replayed);
            }
            let (pa, pb, system, _) = last.expect("at least one repetition");

            // the traffic of one application, counted on its own
            let x = system.rhs::<f32>();
            let mut y = vec![0.0f32; x.len()];
            SystemOperator::<E, KE, f32>::new(&system).apply_counted(&x, &mut y, &mut one_apply);

            // each tile-pair primitive forced over every tile pair of the
            // pair, and which one the adaptive table routes each to
            let (tiles_a, tiles_b) = (OctileMatrix::from_graph(&pa), OctileMatrix::from_graph(&pb));
            let panels_a: Vec<_> = tiles_a.tiles().iter().map(TilePanels::new).collect();
            let panels_b: Vec<_> = tiles_b.tiles().iter().map(TilePanels::new).collect();
            let (n, m) = system.shape();
            for (slot, &kind) in kinds.iter().enumerate() {
                let ((), ns) = tracer.span_timed("octile_ops.tile_pair_sweep", || {
                    let mut counters = TrafficCounters::new();
                    for (t1, p1) in tiles_a.tiles().iter().zip(&panels_a) {
                        for (t2, p2) in tiles_b.tiles().iter().zip(&panels_b) {
                            tile_pair_product_with_panels(
                                kind,
                                PaneledTile { tile: t1, panels: p1 },
                                PaneledTile { tile: t2, panels: p2 },
                                PairContext { n, m, kernel: edge_kernel, costs: &tile_costs },
                                &x,
                                &mut y,
                                &mut counters,
                            );
                        }
                    }
                });
                kind_ns[slot] += ns;
            }
            std::hint::black_box(&y);
            for t1 in tiles_a.tiles() {
                for t2 in tiles_b.tiles() {
                    let routed = kind_table.get(t1.nnz(), t2.nnz());
                    kind_routed[kinds.iter().position(|&k| k == routed).expect("a known kind")] +=
                        1;
                    tile_pairs += 1;
                }
            }
        });
    }
    let names = ["dense_dense", "dense_sparse", "sparse_sparse"];
    let tile_pair_names = [
        "octile_ops.tile_pair_ns.dense_dense",
        "octile_ops.tile_pair_ns.dense_sparse",
        "octile_ops.tile_pair_ns.sparse_sparse",
    ];
    let kind_share_names = [
        "octile_ops.kind_share.dense_dense",
        "octile_ops.kind_share.dense_sparse",
        "octile_ops.kind_share.sparse_sparse",
    ];
    for slot in 0..names.len() {
        out.push((tile_pair_names[slot], ratio(kind_ns[slot] as f64, tile_pairs as f64)));
        out.push((kind_share_names[slot], ratio(kind_routed[slot] as f64, tile_pairs as f64)));
    }
    let flops = ratio(one_apply.flops as f64, ledger_pairs as f64);
    let bytes = ratio(one_apply.global_bytes() as f64, ledger_pairs as f64);
    let intensity = ratio(flops, bytes);
    // flops over nanoseconds is GFLOP/s
    let gflops = ratio(flops * applies as f64, apply_ns as f64);
    let roof = fma_peak.min(intensity * triad.gb_per_s);
    out.push(("product.assemble_us", ratio(us(assemble_ns), ledgers as f64)));
    out.push(("product.assemble_share", ratio(assemble_ns as f64, kernel_ns as f64)));
    out.push(("product.apply_us", ratio(us(apply_ns), applies as f64)));
    out.push(("product.apply_flops", flops));
    out.push(("product.apply_bytes", bytes));
    out.push(("product.apply_intensity", intensity));
    out.push(("product.apply_gflops", gflops));
    out.push(("product.apply_roofline_fraction", ratio(gflops, roof)));
    out.push(("cg.iters_per_pair", ratio(iterations as f64, ledgers as f64)));
    out.push(("cg.us_per_iter", ratio(us(solve_ns), iterations as f64)));
    out.push(("cg.vecops_share", ratio(solve_ns.saturating_sub(apply_ns) as f64, solve_ns as f64)));
    out.push(("cg.nonconverged", nonconverged as f64));
    out.push(("solver.kernel_us_p50", quantile(&kernel_us, 0.5)));
    out.push(("solver.kernel_us_p95", quantile(&kernel_us, 0.95)));
    // a ledger that computes other values than the front door closes nothing
    let closure = if ledger_diverged { 0.0 } else { ratio(replayed_ns as f64, kernel_ns as f64) };
    out.push(("solver.ledger_closure", closure));

    // ---- gram ----------------------------------------------------------
    let engine = GramEngine::new(solver.clone(), GramConfig::default());
    let pair_solver = solver.with_config(natural);
    let (mut lap_ns, mut preprocessing_ns, mut pairs_ns) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps.min(3) {
        let (gram, ns) = tracer.span_timed("gram.compute", || engine.compute(graphs));
        lap_ns.push(ns as f64);
        preprocessing_ns.push(gram.preprocessing.as_nanos() as f64);
        // the same pairs, solved by the harness one call at a time
        pairs_ns.push(tracer.span("gram.replay", || {
            let prepared: Vec<Graph<V, E>> = graphs
                .iter()
                .map(|g| {
                    tracer
                        .span("reorder.prepare", || solver.prepare(g))
                        .unwrap_or_else(|| g.clone())
                })
                .collect();
            let mut pair_ns = 0u64;
            for i in 0..prepared.len() {
                for j in i..prepared.len() {
                    let solve = || pair_solver.kernel(&prepared[i], &prepared[j]);
                    pair_ns += tracer.span_timed("solver.kernel", solve).1;
                }
            }
            pair_ns as f64
        }));
    }
    let lap = quiet_value(&lap_ns, Better::Lower);
    out.push(("gram.preprocessing_share", quiet_value(&preprocessing_ns, Better::Lower) / lap));
    out.push(("gram.overhead_share", (lap - quiet_value(&pairs_ns, Better::Lower)) / lap));

    // ---- service: the request lane inline, no threads ------------------
    let mut service = new_service();
    let (mut miss_us, mut hit_us, mut solve_us, mut fold_us, mut inline_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut keys = Vec::new();
    // the last pair of the pool is kept for the scheduler's burst
    let (burst_pair, request_pool) = pool.split_last().expect("the pool holds a pair");
    for &(a, b) in request_pool {
        let (prepared, ns_miss) =
            tracer.span_timed("service.prepare_pair", || service.prepare_pair(a, b));
        let (_, ns_hit) = tracer.span_timed("service.prepare_pair", || service.prepare_pair(a, b));
        let (solved, ns_solve) = tracer
            .span_timed("service.solve_prepared", || service.solve_prepared::<f32>(&prepared));
        let (_, ns_fold) = tracer.span_timed("service.fold_request_solve", || {
            service.fold_request_solve(&prepared, solved, Precision::F32)
        });
        miss_us.push(us(ns_miss));
        hit_us.push(us(ns_hit));
        solve_us.push(us(ns_solve));
        fold_us.push(us(ns_fold));
        inline_us.push(us(ns_miss + ns_solve + ns_fold));
        keys.push(prepared.key());
    }
    let answer_rounds = if ctx.smoke { 20 } else { 2000 };
    let ((), ns) = tracer.span_timed("service.cached_answer", || {
        for _ in 0..answer_rounds {
            for &key in &keys {
                std::hint::black_box(service.cached_answer(key, Precision::F32));
            }
        }
    });
    out.push(("service.prepare_pair_us.miss", median(&miss_us)));
    out.push(("service.prepare_pair_us.hit", median(&hit_us)));
    out.push(("service.solve_prepared_us", median(&solve_us)));
    out.push(("service.fold_us", median(&fold_us)));
    out.push(("service.cached_answer_us", us(ns) / (answer_rounds * keys.len()) as f64));
    let mut service = new_service();
    let (solved, ns) = tracer.span_timed("service.flush", || {
        service.submit_all(graphs.iter().cloned());
        service.flush()
    });
    out.push(("service.flush_pairs_per_s", solved as f64 / (ns as f64 / 1e9)));

    // ---- scheduler: one shard, no store --------------------------------
    let spawn_join_us: Vec<f64> = (0..reps)
        .map(|_| {
            let spawn_join =
                || GramScheduler::spawn(new_service(), SchedulerConfig::default()).join();
            us(tracer.span_timed("scheduler.spawn_join", spawn_join).1)
        })
        .collect();
    let scheduler = GramScheduler::spawn(new_service(), SchedulerConfig::default());
    let client = scheduler.kernel_client::<f32>();
    let mut tickets_sent = 0u64;
    let mut ask = |a: &Graph<V, E>, b: &Graph<V, E>, name: &'static str| -> f64 {
        tickets_sent += 1;
        let answer = || client.request(a.clone(), b.clone()).ok().map(|t| t.wait());
        us(tracer.span_timed(name, answer).1)
    };
    let cold_us: Vec<f64> =
        request_pool.iter().map(|&(a, b)| ask(a, b, "scheduler.cold_request")).collect();
    let hit_samples = if ctx.smoke { 50 } else { 1500 };
    let hit_req_us: Vec<f64> = (0..hit_samples)
        .map(|k| {
            let (a, b) = request_pool[k % request_pool.len()];
            ask(a, b, "scheduler.hit_request")
        })
        .collect();
    let hits = if ctx.smoke { 256 } else { 4096 };
    let k1_s = tracer.span("scheduler.hot_lap", || {
        hot_lap(request_pool, hits, |a, b| client.request(a, b).ok())
    });
    tickets_sent += hits as u64 + 8;
    let ((), burst_ns) = tracer.span_timed("scheduler.burst8", || {
        let (a, b) = *burst_pair;
        let tickets: Vec<_> = (0..8).map(|_| client.request(a.clone(), b.clone()).ok()).collect();
        tickets.into_iter().flatten().for_each(|t| drop(t.wait()));
    });
    drop(client);
    let stats = scheduler.join().stats();
    out.push((
        "cache.pair_hit_ratio",
        ratio(
            stats.request_cache_answers as f64,
            (stats.request_cache_answers + stats.request_solves) as f64,
        ),
    ));
    out.push((
        "cache.reorder_hit_ratio",
        ratio(stats.reorder_hits as f64, (stats.reorder_hits + stats.reorder_misses) as f64),
    ));
    out.push((
        "cache.coalesced_share",
        ratio(stats.requests_coalesced as f64, tickets_sent as f64),
    ));
    out.push(("scheduler.hit_req_us_p50", quantile(&hit_req_us, 0.5)));
    out.push(("scheduler.hit_req_us_p99", quantile(&hit_req_us, 0.99)));
    // pair by pair: the pairs differ in cost by more than the hand-off does
    let overhead_us: Vec<f64> = cold_us.iter().zip(&inline_us).map(|(c, i)| c - i).collect();
    out.push(("scheduler.overhead_us", median(&overhead_us)));
    out.push(("scheduler.burst8_ms", burst_ns as f64 / 1e6));
    out.push(("scheduler.spawn_join_us", median(&spawn_join_us)));

    // ---- cluster: two shards, no store ---------------------------------
    let cluster = GramCluster::spawn(
        new_service(),
        ClusterConfig { shards: SHARDS, scheduler: SchedulerConfig::default() },
    );
    let client = cluster.kernel_client::<f32>();
    let route_rounds = if ctx.smoke { 10 } else { 200 };
    let mut per_shard = [0u64; SHARDS];
    let ((), ns) = tracer.span_timed("cluster.shard_of", || {
        for _ in 0..route_rounds {
            for &(a, b) in request_pool {
                per_shard[client.shard_of(a, b)] += 1;
            }
        }
    });
    let routed: u64 = per_shard.iter().sum();
    let imbalance = per_shard.iter().max().unwrap_or(&0) - per_shard.iter().min().unwrap_or(&0);
    for &(a, b) in request_pool {
        drop(client.request(a.clone(), b.clone()).ok().map(|t| t.wait()));
    }
    let k2_s = tracer
        .span("cluster.hot_lap", || hot_lap(request_pool, hits, |a, b| client.request(a, b).ok()));
    drop(client);
    cluster.join();
    out.push(("cluster.route_ns", ns as f64 / routed as f64));
    out.push(("cluster.shard_imbalance", ratio(imbalance as f64, routed as f64)));
    out.push(("cluster.k2_over_k1", ratio(k2_s, k1_s)));

    // ---- store: the log and snapshots on their own ---------------------
    let scratch = Scratch::new().expect("benchmark/out is writable");
    let dir = scratch.dir("store-probe");
    let entries: Vec<StoredEntry> = (0..if ctx.smoke { 200u64 } else { 2080 })
        .map(|k| StoredEntry {
            key: StoredKey::new(
                StoredSide::new(k.wrapping_mul(0x9e37_79b9_7f4a_7c15), 24, 25),
                StoredSide::new(!k, 17, 18),
            ),
            precision: 0,
            value: k as f32,
            value_f64: k as f64,
            relative_residual: 1e-7,
            iterations: 12,
        })
        .collect();
    let (mut store, _) =
        PairStore::open(&dir, FsyncPolicy::EveryFlush).expect("an empty store opens");
    let (mut append_ns, mut appended_bytes, mut boundary_us) = (0u64, 0u64, Vec::new());
    for chunk in entries.chunks(entries.len() / 4) {
        let (bytes, ns) = tracer.span_timed("store.append_pair", || {
            chunk
                .iter()
                .map(|e| store.append_pair(e).expect("the log accepts an entry").bytes)
                .sum::<u64>()
        });
        append_ns += ns;
        appended_bytes += bytes;
        let (synced, ns) = tracer.span_timed("store.flush_boundary", || store.flush_boundary());
        synced.expect("the log syncs");
        boundary_us.push(us(ns));
    }
    let snapshot = StoreSnapshot {
        epoch: 1,
        sides: Vec::new(),
        triangle: Vec::new(),
        entries: entries.clone(),
    };
    let (written, snapshot_ns) =
        tracer.span_timed("store.write_snapshot", || store.write_snapshot(&snapshot));
    written.expect("the snapshot writes");
    drop(store);
    let (reopened, open_ns) =
        tracer.span_timed("store.open", || PairStore::open(&dir, FsyncPolicy::EveryFlush));
    let replayed = reopened.expect("the store reopens").1.replayed();
    out.push(("store.append_us", us(append_ns) / entries.len() as f64));
    out.push(("store.bytes_per_entry", appended_bytes as f64 / entries.len() as f64));
    out.push(("store.flush_boundary_us", median(&boundary_us)));
    out.push(("store.snapshot_write_ms", snapshot_ns as f64 / 1e6));
    out.push(("store.open_ms", open_ns as f64 / 1e6));
    out.push(("store.replayed_entries", replayed as f64));
    drop(scratch);

    // ---- telemetry ------------------------------------------------------
    let operations = if ctx.smoke { 100_000u64 } else { 2_000_000 };
    let histogram = Histogram::new();
    let ((), ns) = tracer.span_timed("telemetry.histogram_record", || {
        for k in 0..operations {
            histogram.record(std::hint::black_box(k));
        }
    });
    out.push(("telemetry.histogram_ns", ns as f64 / operations as f64));
    let counter = Counter::new();
    let ((), ns) = tracer.span_timed("telemetry.counter_inc", || {
        for _ in 0..operations {
            std::hint::black_box(&counter).inc();
        }
    });
    out.push(("telemetry.counter_ns", ns as f64 / operations as f64));

    // ---- the run itself --------------------------------------------------
    let laps = Summary::of(&log.pairs_per_s, Better::Higher);
    let calib = Summary::of(&log.calib_ms, Better::Lower);
    out.push(("host.pinned_cpu", ctx.pinned_cpu.map_or(-1.0, |c| c as f64)));
    out.push(("host.calib_ms", calib.quiet));
    out.push(("host.calib_p50_over_q05", calib.disturbance(Better::Lower)));
    out.push(("host.lap_p50_over_q05", laps.disturbance(Better::Higher)));
    out.push(("host.laps", laps.count as f64));
    out.push(("host.stream_triad_gbs", triad.gb_per_s));
    out.push(("host.fma_peak_gflops", fma_peak));
    out.push(("oracle.max_rel_err", log.oracle.max_rel_err));
    out.push(("oracle.failed_share", ratio(log.oracle.failed as f64, log.oracle.checked as f64)));
    out.push(("oracle.nondeterministic_laps", log.nondeterministic_laps as f64));
    let untraced = quiet_value(&log.lap_s_untraced, Better::Lower);
    let traced = quiet_value(&log.lap_s_traced, Better::Lower);
    out.push(("trace.overhead_share", (traced - untraced) / untraced));
    out.push(("trace.spans", tracer.span_count() as f64));
    out
}
