//! The two `serve-*` workloads: a durable K=2 `GramCluster` driven by one
//! closed-loop client. `serve-cold` starts every lap from an empty store and
//! is the write path; `serve-hot-restart` re-spawns every lap over a
//! bootstrapped store and is the read path.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mgk_core::{KernelResult, MarginalizedKernelSolver};
use mgk_graph::{AtomLabel, BondLabel};
use mgk_kernels::KroneckerDelta;
use mgk_runtime::{
    ClusterConfig, ClusterKernelClient, DurabilityConfig, GramCluster, GramService,
    GramServiceConfig, SchedulerConfig, ServiceStats, Ticket,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::corpus::{self, Molecule, ServeColdCorpus, ServeHotCorpus, SHARDS};
use crate::gram::solver_config;
use crate::oracle::{reference_kernel, reference_normalised};
use crate::run::{
    count_non_finite, hash_values, out_dir, windowed, LapFingerprint, LapLog, RunContext,
};
use crate::stats::median;
use crate::trace::Tracer;

pub type Service = GramService<KroneckerDelta, KroneckerDelta, AtomLabel, BondLabel>;
pub type Cluster = GramCluster<KroneckerDelta, KroneckerDelta, AtomLabel, BondLabel>;
type Client = ClusterKernelClient<AtomLabel, BondLabel, f32>;
type KernelTicket = Ticket<KernelResult<f32>>;

/// Vertex and edge base kernels of every molecule workload: a mismatch of
/// the whole atom or bond label halves the similarity.
pub fn molecule_kernels() -> (KroneckerDelta, KroneckerDelta) {
    (KroneckerDelta::new(0.5), KroneckerDelta::new(0.5))
}

pub fn new_service() -> Service {
    let (vertex, edge) = molecule_kernels();
    GramService::new(
        MarginalizedKernelSolver::new(vertex, edge, solver_config()),
        GramServiceConfig::default(),
    )
}

pub fn cluster_config() -> ClusterConfig {
    ClusterConfig { shards: SHARDS, scheduler: SchedulerConfig::default() }
}

/// Spawn the durable cluster over `dir` — empty for a cold start, holding a
/// store for a restart.
pub fn spawn(tracer: &Tracer, dir: &Path) -> Cluster {
    tracer.span("cluster.spawn_durable", || {
        GramCluster::spawn_durable(new_service(), cluster_config(), DurabilityConfig::new(dir))
            .expect("the store directory opens and recovers")
            .0
    })
}

/// Store directories of this run, under `benchmark/out`, removed on drop.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn new() -> std::io::Result<Scratch> {
        let root = out_dir().join(format!("tmp-{}", std::process::id()));
        // a crashed run with the same pid may have left one behind
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    pub fn dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Send one request and wait for its answer; returns the value (`NaN` for a
/// refused or failed request) and the latency in milliseconds.
fn ask(tracer: &Tracer, client: &Client, a: &Molecule, b: &Molecule) -> (f32, f64) {
    let started = Instant::now();
    let ticket = tracer.span("cluster.request", || client.request(a.clone(), b.clone()));
    let value = tracer.span("ticket.wait", || wait(ticket.ok()));
    (value, started.elapsed().as_secs_f64() * 1e3)
}

fn wait(ticket: Option<KernelTicket>) -> f32 {
    ticket.and_then(|t| t.wait().ok()).map_or(f32::NAN, |r| r.value)
}

/// What one lap hands back to be logged.
struct Lap {
    setup_s: f64,
    lap_s: f64,
    cold_ms: Vec<f64>,
    /// Every delivered value, in a fixed order.
    values: Vec<f32>,
    /// The values of the one-at-a-time requests among them.
    cold_values: Vec<f32>,
    /// Values that are wrong without being `NaN` (a hit that differs from
    /// the value the store was bootstrapped with).
    mismatched: u64,
    stats: Vec<ServiceStats>,
}

fn log_lap(ctx: &RunContext, log: &mut LapLog, fingerprint: &mut LapFingerprint, lap: &Lap) {
    log.setup_s.push(lap.setup_s);
    log.pairs_per_s.push(lap.values.len() as f64 / lap.lap_s);
    log.cold_pair_ms.push(median(&lap.cold_ms));
    log.record_lap_seconds(ctx.tracer.enabled(), lap.lap_s);
    log.attempted += lap.values.len() as u64;
    log.failed += count_non_finite(&lap.values) + lap.mismatched;
    log.failed += lap.stats.iter().map(|s| s.failures as u64).sum::<u64>();
    if !fingerprint.matches_first(hash_values(lap.values.iter().copied())) {
        log.nondeterministic_laps += 1;
    }
    log.calibrate();
}

/// Tickets of one burst: the same pair asked this many times back to back.
const BURST: usize = 8;

fn serve_cold_lap(ctx: &RunContext, dir: &Path) -> (Lap, ServeColdCorpus, Vec<Service>) {
    let tracer = &ctx.tracer;
    let started = Instant::now();
    let corpus = tracer.span("datasets.materialise", || corpus::serve_cold(ctx.seed));
    let cluster = spawn(tracer, dir);
    let producer = cluster.client();
    let submitted =
        tracer.span("cluster.submit_all", || producer.submit_all(corpus.structures.clone()));
    let flushed = tracer.span("cluster.flush", || producer.flush());
    let setup_s = started.elapsed().as_secs_f64();
    let ingested = submitted.is_ok() && flushed.is_ok();

    let client = cluster.kernel_client::<f32>();
    let mut cold_ms = Vec::with_capacity(corpus.requests.len());
    let mut values = Vec::new();
    for (a, b) in &corpus.requests {
        let (value, ms) = ask(tracer, &client, a, b);
        values.push(value);
        cold_ms.push(ms);
    }
    let cold_values = values.clone();
    for (a, b) in &corpus.bursts {
        let answers: Vec<f32> = tracer.span("burst", || {
            let tickets: Vec<Option<KernelTicket>> =
                (0..BURST).map(|_| client.request(a.clone(), b.clone()).ok()).collect();
            tickets.into_iter().map(wait).collect()
        });
        // one delivered value per burst; tickets that disagree poison it
        let agreed = answers.iter().all(|v| v.to_bits() == answers[0].to_bits());
        values.push(if agreed { answers[0] } else { f32::NAN });
    }
    let mut services = tracer.span("cluster.join", || cluster.join());
    let lap_s = started.elapsed().as_secs_f64();

    // the flushed Gram blocks, read after the clock stopped
    for service in &mut services {
        let snapshot = service.snapshot();
        let n = snapshot.num_graphs;
        values.extend(
            (0..n).flat_map(|i| (0..=i).map(move |j| (i, j))).map(|(i, j)| snapshot.get(i, j)),
        );
    }
    if !ingested {
        values.push(f32::NAN);
    }
    let stats = services.iter().map(|s| s.stats()).collect();
    (Lap { setup_s, lap_s, cold_ms, values, cold_values, mismatched: 0, stats }, corpus, services)
}

/// `serve-cold`: every lap is a whole life of the cluster on an empty
/// store. Set-up is spawn + submit + flush; the cold pairs are its 16
/// one-at-a-time requests; throughput is every value it delivered over the
/// lap's wall time, `join` included.
pub fn run_cold(ctx: &RunContext, log: &mut LapLog) -> ServeColdCorpus {
    let scratch = Scratch::new().expect("benchmark/out is writable");
    let mut fingerprint = LapFingerprint::default();
    let mut last = None;
    let mut lap = 0u32;
    while ctx.keep_lapping(lap as usize) {
        lap += 1;
        ctx.begin_lap(lap);
        let dir = scratch.dir(&format!("cold-{lap}"));
        let (sample, corpus, services) = serve_cold_lap(ctx, &dir);
        // best effort: the scratch root is removed when the run ends
        let _ = std::fs::remove_dir_all(&dir);
        log_lap(ctx, log, &mut fingerprint, &sample);
        last = Some((sample, corpus, services));
    }
    ctx.tracer.set_enabled(ctx.trace);
    log.peak_rss_mib = crate::host::peak_rss_mib();

    let (sample, corpus, mut services) = last.expect("at least one lap ran");
    let (vertex, edge) = molecule_kernels();
    let reference = |a: &Molecule, b: &Molecule| reference_kernel(a, b, &vertex, &edge);
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x0eac1e);
    for _ in 0..6 {
        let k = rng.gen_range(0..corpus.requests.len());
        let (a, b) = &corpus.requests[k];
        log.oracle.check(sample.cold_values[k] as f64, reference(a, b));
    }
    // one flushed entry per shard, normalised as the service normalises
    for (shard, service) in services.iter_mut().enumerate() {
        let members: Vec<&Molecule> =
            corpus.structures.iter().filter(|g| corpus::shard_of(g) == shard).collect();
        let snapshot = service.snapshot();
        if members.len() < 2 || snapshot.num_graphs != members.len() {
            log.oracle.check(f64::NAN, None);
            continue;
        }
        let (i, j) = (rng.gen_range(1..members.len()), 0);
        let expected = reference_normalised(members[i], members[j], &vertex, &edge);
        log.oracle.check(snapshot.get(i, j) as f64, expected);
    }
    log.attempted += log.oracle.checked as u64;
    log.failed += log.oracle.failed as u64;
    corpus
}

/// Hit requests kept in flight.
const WINDOW: usize = 32;

/// Ask every unordered pair once through the request lane, so every entry
/// lands in the store of the shard that will be asked for it, then shut down
/// gracefully. Returns the value of each ordered pair.
fn bootstrap_store(corpus: &ServeHotCorpus, dir: &Path) -> Vec<f32> {
    let quiet = Tracer::new(false);
    let cluster = spawn(&quiet, dir);
    let client = cluster.kernel_client::<f32>();
    let n = corpus.structures.len();
    let mut expected = vec![f32::NAN; n * n];
    windowed(
        (0..n).flat_map(|i| (i..n).map(move |j| (i, j))),
        WINDOW,
        |(i, j)| {
            let ticket = client.request(corpus.structures[i].clone(), corpus.structures[j].clone());
            (i, j, ticket.ok())
        },
        |(i, j, ticket)| {
            let value = wait(ticket);
            expected[i * n + j] = value;
            expected[j * n + i] = value;
        },
    );
    cluster.join();
    expected
}

fn serve_hot_lap(ctx: &RunContext, dir: &Path, expected: &[f32]) -> (Lap, ServeHotCorpus) {
    let tracer = &ctx.tracer;
    let started = Instant::now();
    let corpus = tracer.span("datasets.materialise", || corpus::serve_hot_restart(ctx.seed));
    let cluster = spawn(tracer, dir);
    let client = cluster.kernel_client::<f32>();
    let n = corpus.structures.len();
    let structure = |k: u16| &corpus.structures[k as usize];

    let mut values = Vec::with_capacity(corpus.hit_order.len() + corpus.misses.len() + 1);
    let mut mismatched = 0u64;
    let mut record_hit = |(i, j): (u16, u16), value: f32, values: &mut Vec<f32>| {
        if value.to_bits() != expected[i as usize * n + j as usize].to_bits() {
            mismatched += 1;
        }
        values.push(value);
    };

    // set-up ends with the first answer from the recovered cache
    let first = corpus.hit_order[0];
    let (value, _) = ask(tracer, &client, structure(first.0), structure(first.1));
    record_hit(first, value, &mut values);
    let setup_s = started.elapsed().as_secs_f64();

    let mut cold_ms = Vec::with_capacity(corpus.misses.len());
    let mut cold_values = Vec::with_capacity(corpus.misses.len());
    let segment = corpus.hit_order.len().div_ceil(corpus.misses.len().max(1));
    let mut misses = corpus.misses.iter();
    for hits in corpus.hit_order.chunks(segment) {
        tracer.span("hit_segment", || {
            windowed(
                hits.iter().copied(),
                WINDOW,
                |(i, j)| ((i, j), client.request(structure(i).clone(), structure(j).clone()).ok()),
                |(pair, ticket)| record_hit(pair, wait(ticket), &mut values),
            );
        });
        // nothing is in flight here: the miss is asked on its own
        if let Some((a, b)) = misses.next() {
            let (value, ms) = ask(tracer, &client, a, b);
            values.push(value);
            cold_values.push(value);
            cold_ms.push(ms);
        }
    }
    let services = tracer.span("cluster.join", || cluster.join());
    let lap_s = started.elapsed().as_secs_f64();
    let stats = services.iter().map(|s| s.stats()).collect();
    (Lap { setup_s, lap_s, cold_ms, values, cold_values, mismatched, stats }, corpus)
}

/// `serve-hot-restart`: a store holding every pair of 64 molecules is
/// bootstrapped once, untimed. Every lap copies it to a fresh directory
/// (untimed — a lap's misses and its shutdown snapshot would otherwise
/// change the next lap's recovery), re-spawns the cluster over the copy
/// (set-up: recovery up to the first recovered answer), then asks 8192
/// cached pairs with 32 in flight, with 32 never-seen pairs asked one at a
/// time in between.
pub fn run_hot(ctx: &RunContext, log: &mut LapLog) -> ServeHotCorpus {
    let scratch = Scratch::new().expect("benchmark/out is writable");
    let pristine = scratch.dir("pristine");
    let expected = bootstrap_store(&corpus::serve_hot_restart(ctx.seed), &pristine);

    let mut fingerprint = LapFingerprint::default();
    let mut last = None;
    let mut lap = 0u32;
    while ctx.keep_lapping(lap as usize) {
        lap += 1;
        ctx.begin_lap(lap);
        let dir = scratch.dir(&format!("hot-{lap}"));
        copy_dir(&pristine, &dir).expect("the bootstrapped store copies");
        let (sample, corpus) = serve_hot_lap(ctx, &dir, &expected);
        // best effort: the scratch root is removed when the run ends
        let _ = std::fs::remove_dir_all(&dir);
        log_lap(ctx, log, &mut fingerprint, &sample);
        last = Some((sample, corpus));
    }
    ctx.tracer.set_enabled(ctx.trace);
    log.peak_rss_mib = crate::host::peak_rss_mib();

    let (sample, corpus) = last.expect("at least one lap ran");
    // every hit answered the bootstrapped value, or the lap counted it; the
    // oracle checks bootstrapped values and the misses themselves
    let (vertex, edge) = molecule_kernels();
    let n = corpus.structures.len();
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x0eac1e);
    for _ in 0..12 {
        let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let reference =
            reference_kernel(&corpus.structures[i], &corpus.structures[j], &vertex, &edge);
        log.oracle.check(expected[i * n + j] as f64, reference);
    }
    for ((a, b), &delivered) in corpus.misses.iter().zip(&sample.cold_values) {
        log.oracle.check(delivered as f64, reference_kernel(a, b, &vertex, &edge));
    }
    log.attempted += log.oracle.checked as u64;
    log.failed += log.oracle.failed as u64;
    corpus
}
