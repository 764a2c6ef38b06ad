//! Cross-crate integration of the sharded serving plane: `GramCluster`
//! must route deterministically by content (stable across restarts,
//! orientation-invariant), answer with a fresh solver's bits at every
//! shard count, coalesce duplicate tickets within — and never across —
//! shards, propagate a shard panic through `join()` after every shard
//! drained, and expose a merged cluster epoch that stays monotone (and
//! equal to the sum of the shard epochs) under concurrent producers. A
//! routed structure is content-hashed once, by the client that routes it.
//! Runs under `RUST_TEST_THREADS=1` too (every thread here is our own).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use mgk::prelude::*;
use mgk::runtime::metrics::names;
use mgk::runtime::{
    graph_content_hash, shard_of_key, BarrierReply, GramCluster, PairKey, PairSide, ServiceStats,
    WatchClosed,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

type Unlabeled = mgk::graph::Unlabeled;
type Cluster = GramCluster<UnitKernel, UnitKernel, Unlabeled, Unlabeled>;

fn corpus(n: usize, seed: u64) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|k| mgk::graph::generators::newman_watts_strogatz(8 + k % 5, 2, 0.25, &mut rng))
        .collect()
}

fn service() -> GramService<UnitKernel, UnitKernel, Unlabeled, Unlabeled> {
    GramService::new(
        MarginalizedKernelSolver::unlabeled(SolverConfig::default()),
        GramServiceConfig::default(),
    )
}

fn spawn_cluster(shards: usize) -> Cluster {
    GramCluster::spawn(service(), ClusterConfig { shards, scheduler: SchedulerConfig::default() })
}

fn side(g: &Graph) -> PairSide {
    PairSide::new(graph_content_hash(g), g.num_vertices() as u32, g.num_edges() as u32)
}

#[test]
fn routing_is_deterministic_and_orientation_invariant() {
    let graphs = corpus(6, 311);
    let first = spawn_cluster(4);
    let kernels = first.kernel_client::<f32>();

    let mut assignments = Vec::new();
    for i in 0..graphs.len() {
        for j in 0..graphs.len() {
            let shard = kernels.shard_of(&graphs[i], &graphs[j]);
            // both orientations of a pair must land on the same shard —
            // that is what keeps coalescing and the symmetric cache answer
            // intact under sharding
            assert_eq!(
                shard,
                kernels.shard_of(&graphs[j], &graphs[i]),
                "orientation split pair ({i},{j}) across shards"
            );
            // the route is the pure content-hash function, nothing hidden
            let key = PairKey::new(side(&graphs[i]), side(&graphs[j]));
            assert_eq!(shard, shard_of_key(&key, first.num_shards()));
            assignments.push(shard);
        }
    }
    assert!(
        (0..first.num_shards()).all(|s| assignments.contains(&s)),
        "a 36-pair corpus should exercise every one of 4 shards: {assignments:?}"
    );
    first.join();

    // a "restart": a fresh cluster over a fresh service must route every
    // pair identically, because the route depends only on content
    let second = spawn_cluster(4);
    let kernels = second.kernel_client::<f32>();
    let mut replayed = Vec::new();
    for i in 0..graphs.len() {
        for j in 0..graphs.len() {
            replayed.push(kernels.shard_of(&graphs[i], &graphs[j]));
        }
    }
    assert_eq!(assignments, replayed, "routing changed across a restart");
    second.join();
}

/// Request every pair `i <= j` of `graphs` at f32 and then at f64 — an f32
/// entry cannot answer an f64 request, so both solve — and check each
/// answer against the bits of `fresh`, in the same order.
fn assert_answers(
    route: &str,
    graphs: &[Graph],
    narrow: &KernelClient<Unlabeled, Unlabeled, f32>,
    wide: &KernelClient<Unlabeled, Unlabeled, f64>,
    fresh: &[(u32, u64)],
) {
    let mut expected = fresh.iter();
    for i in 0..graphs.len() {
        for j in i..graphs.len() {
            let (l, r) = (&graphs[i], &graphs[j]);
            let f32_value = narrow.request(l.clone(), r.clone()).unwrap().wait().unwrap().value;
            let f64_value = wide.request(l.clone(), r.clone()).unwrap().wait().unwrap().value;
            let &(f32_bits, f64_bits) = expected.next().unwrap();
            assert_eq!(f32_value.to_bits(), f32_bits, "{route}, pair ({i},{j}) at f32");
            assert_eq!(f64_value.to_bits(), f64_bits, "{route}, pair ({i},{j}) at f64");
        }
    }
}

#[test]
fn every_shard_count_answers_with_a_fresh_solvers_bits() {
    // sizes 8–12 and 8 again: a shard's earlier solves include pairs of
    // the same shape, and each f64 request follows its own pair's f32 solve
    let graphs = corpus(6, 1217);
    let solver = MarginalizedKernelSolver::unlabeled(SolverConfig::default());
    let prepared: Vec<_> = graphs.iter().map(|g| solver.prepare_graph(g)).collect();
    let mut fresh = Vec::new();
    for i in 0..graphs.len() {
        for j in i..graphs.len() {
            let (l, r) = (&prepared[i], &prepared[j]);
            let narrow = solver.kernel_prepared::<f32, _, _>(l, r, Precision::F32).unwrap();
            let wide = solver.kernel_prepared::<f64, _, _>(l, r, Precision::F64).unwrap();
            fresh.push((narrow.value.to_bits(), wide.value.to_bits()));
        }
    }

    let scheduler = GramScheduler::spawn(service(), SchedulerConfig::default());
    let (narrow, wide) = (scheduler.kernel_client(), scheduler.kernel_client());
    assert_answers("plain scheduler", &graphs, &narrow, &wide, &fresh);
    let plain_flush = scheduler.client().flush().unwrap();
    scheduler.join();

    // one shard's history, or any split of it, answers with the same bits
    for shards in [1, 2, 3] {
        let cluster = spawn_cluster(shards);
        assert_eq!(cluster.num_shards(), shards);
        let (narrow, wide) = (cluster.kernel_client(), cluster.kernel_client());
        assert_answers(&format!("K = {shards}"), &graphs, &narrow, &wide, &fresh);
        let BarrierReply { epoch, shard_epochs, num_structures } =
            cluster.client().flush().unwrap();
        assert_eq!(shard_epochs.len(), shards);
        assert_eq!(epoch, shard_epochs.iter().sum::<u64>());
        assert_eq!(num_structures, plain_flush.num_structures);
        let solves: usize = cluster.join().iter().map(|svc| svc.stats().request_solves).sum();
        assert_eq!(solves, 2 * fresh.len(), "K = {shards}: every request ran its own solve");
    }
}

#[test]
fn duplicate_tickets_coalesce_within_and_never_across_shards() {
    let graphs = corpus(2, 47);
    let cluster = spawn_cluster(4);
    let kernels = cluster.kernel_client::<f32>();
    let owner = kernels.shard_of(&graphs[0], &graphs[1]);

    // eight duplicates of one pair, through two independent client clones
    // and both orientations — deterministic routing pins them all to one
    // shard, where they coalesce (same drain) or answer from cache
    let clone = kernels.clone();
    let tickets: Vec<_> = (0..8)
        .map(|k| {
            let client = if k % 2 == 0 { &kernels } else { &clone };
            let (l, r) = if k % 4 < 2 { (0, 1) } else { (1, 0) };
            client.request(graphs[l].clone(), graphs[r].clone()).unwrap()
        })
        .collect();
    let values: Vec<f32> =
        tickets.into_iter().map(|t| t.wait().expect("duplicate must resolve").value).collect();
    assert!(values.iter().all(|v| v.to_bits() == values[0].to_bits()));

    // the aggregated scrape surface sees exactly one solve cluster-wide,
    // and only the owning shard's registry recorded any request traffic
    let telemetry = cluster.telemetry();
    let snapshot = telemetry.snapshot();
    assert_eq!(snapshot.counter_total(names::REQUEST_SOLVES), Some(1));
    for shard in 0..cluster.num_shards() {
        let label = shard.to_string();
        let solves =
            snapshot.counter_labeled(names::REQUEST_SOLVES, Some(("shard", &label))).unwrap_or(0);
        assert_eq!(solves, u64::from(shard == owner), "solve leaked to shard {shard}");
    }

    let services = cluster.join();
    let mut solves = 0;
    let mut answered_without_solving = 0;
    for (shard, svc) in services.iter().enumerate() {
        let stats = svc.stats();
        if shard != owner {
            assert_eq!(
                stats.request_solves + stats.request_cache_answers + stats.requests_coalesced,
                0,
                "duplicates must never cross shards (shard {shard} saw traffic)"
            );
        }
        solves += stats.request_solves;
        answered_without_solving += stats.request_cache_answers + stats.requests_coalesced;
    }
    assert_eq!(solves, 1, "duplicates of one pair must solve exactly once cluster-wide");
    assert_eq!(answered_without_solving, 7, "the other seven answer without a solve");
}

#[test]
fn a_shard_panic_propagates_through_cluster_join() {
    // panic only on the scheduler thread: clients route with the same
    // hasher, and their calls (on test/producer threads) must stay clean
    let shard_side_bomb: fn(&Graph) -> u64 = |g| {
        if std::thread::current().name() == Some("mgk-gram-scheduler") {
            panic!("forced shard panic");
        }
        graph_content_hash(g)
    };
    let cluster: Cluster = GramCluster::spawn(
        service().with_content_hasher(shard_side_bomb),
        ClusterConfig { shards: 3, scheduler: SchedulerConfig::default() },
    );
    let client = cluster.client();
    let watch = cluster.watch();
    client.submit(corpus(1, 9).remove(0)).unwrap();

    let propagated = catch_unwind(AssertUnwindSafe(move || cluster.join()));
    assert!(propagated.is_err(), "the shard panic was swallowed by join()");
    // every shard was drained before the re-raise: all publishers are gone
    assert!(watch.is_closed(), "join() re-raised before draining every shard");
}

// Counts every hasher call, on client and shard threads alike: the
// hash-count test below is its only user, so the count is its own.
static HASH_CALLS: AtomicUsize = AtomicUsize::new(0);

fn counting_hash(g: &Graph) -> u64 {
    HASH_CALLS.fetch_add(1, Ordering::SeqCst);
    graph_content_hash(g)
}

#[test]
fn a_routed_structure_is_hashed_once_cluster_wide() {
    let cluster: Cluster = GramCluster::spawn(
        service().with_content_hasher(counting_hash),
        ClusterConfig { shards: 2, scheduler: SchedulerConfig::default() },
    );
    let (producer, kernels) = (cluster.client(), cluster.kernel_client::<f32>());
    let graphs = corpus(3, 419);
    let calls = |work: &dyn Fn()| {
        let before = HASH_CALLS.load(Ordering::SeqCst);
        work();
        HASH_CALLS.load(Ordering::SeqCst) - before
    };
    let ask = || {
        kernels.request(graphs[0].clone(), graphs[1].clone()).unwrap().wait().unwrap();
    };
    let submit = || {
        producer.submit(graphs[2].clone()).unwrap();
        producer.flush().unwrap();
    };

    // the client hashes both raw sides to route; the owning shard groups
    // and prepares by those identities, hashing only the prepared forms
    assert_eq!(calls(&ask), 4, "two raw hashes and two prepared-form hashes");
    assert_eq!(calls(&ask), 2, "a cached pair is hashed only to route");
    assert_eq!(calls(&submit), 2, "one raw hash and one prepared-form hash");
    assert_eq!(calls(&submit), 1, "a prepared structure is hashed only to route");

    let services = cluster.join();
    let total = |stat: fn(&ServiceStats) -> usize| -> usize {
        services.iter().map(|svc| stat(&svc.stats())).sum()
    };
    assert_eq!(total(|s| s.request_solves), 1);
    assert_eq!(total(|s| s.request_cache_answers), 1);
    assert_eq!(total(|s| s.reorder_hits), 3, "the repeat request and the resubmission");
}

#[test]
fn merged_epoch_is_monotone_under_concurrent_producers() {
    let cluster = spawn_cluster(2);
    let watch = cluster.watch();
    assert_eq!(watch.epoch(), watch.shard_epochs().iter().sum::<u64>());

    let watcher = std::thread::spawn({
        let watch = watch.clone();
        move || {
            let mut last = 0u64;
            let mut observations = 0usize;
            loop {
                match watch.wait_newer(last) {
                    Ok(snapshot) => {
                        assert!(
                            snapshot.epoch > last,
                            "cluster epoch regressed: {} after {last}",
                            snapshot.epoch
                        );
                        assert_eq!(
                            snapshot.epoch,
                            snapshot.shard_epochs.iter().sum::<u64>(),
                            "cluster epoch must be the sum of one consistent capture"
                        );
                        last = snapshot.epoch;
                        observations += 1;
                    }
                    Err(WatchClosed) => return (last, observations),
                }
            }
        }
    });

    let producers: Vec<_> = (0..3)
        .map(|p| {
            let client = cluster.client();
            std::thread::spawn(move || {
                for round in 0..4 {
                    let batch = corpus(3, 1000 + 17 * p + round);
                    client.submit_all(batch).unwrap();
                    let reply = client.flush().unwrap();
                    assert_eq!(reply.epoch, reply.shard_epochs.iter().sum::<u64>());
                }
            })
        })
        .collect();
    for producer in producers {
        producer.join().unwrap();
    }
    let settled = watch.epoch();
    assert!(settled > 0, "twelve cluster flushes must have bumped the epoch");

    cluster.join();
    let (final_epoch, observations) = watcher.join().unwrap();
    assert!(observations > 0, "the watcher never saw a publication");
    assert!(final_epoch >= settled, "the watcher missed the final epoch");
}
