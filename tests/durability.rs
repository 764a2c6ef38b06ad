//! Cross-crate integration of the durability plane: an attached
//! `mgk-store` must carry the serving state across process lives. Warm
//! restarts answer previously solved pairs straight from the replayed
//! cache (bit-identical `f32` and `f64` values, entries under the legacy
//! refined tag read as `f64`), a kill
//! without a graceful shutdown recovers from the WAL tail alone, torn
//! final records are skipped and counted, checksum corruption and format
//! version skew are refused with typed errors, and a restarted cluster
//! finds each shard's pairs in that shard's own store. Every test owns a
//! fresh `TempDir` (removed on drop), so runs are independent under both
//! serial and parallel test runners.

use mgk::prelude::*;
use mgk::store::TempDir;
use rand::rngs::StdRng;
use rand::SeedableRng;

type Unlabeled = mgk::graph::Unlabeled;
type Scheduler = GramScheduler<UnitKernel, UnitKernel, Unlabeled, Unlabeled>;
type Service = GramService<UnitKernel, UnitKernel, Unlabeled, Unlabeled>;

fn corpus(n: usize, seed: u64) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|k| mgk::graph::generators::newman_watts_strogatz(9 + k % 3, 2, 0.2, &mut rng))
        .collect()
}

fn service() -> Service {
    GramService::new(
        MarginalizedKernelSolver::unlabeled(SolverConfig::default()),
        GramServiceConfig::default(),
    )
}

/// All unordered pairs (including self-pairs) of a corpus.
fn all_pairs(graphs: &[Graph]) -> Vec<(Graph, Graph)> {
    (0..graphs.len())
        .flat_map(|i| (i..graphs.len()).map(move |j| (i, j)))
        .map(|(i, j)| (graphs[i].clone(), graphs[j].clone()))
        .collect()
}

fn request_values(scheduler: &Scheduler, pairs: &[(Graph, Graph)]) -> Vec<f32> {
    let kernels = scheduler.kernel_client::<f32>();
    let tickets = kernels.request_all(pairs.iter().cloned()).unwrap();
    tickets.into_iter().map(|t| t.wait().expect("request resolves").value).collect()
}

#[test]
fn graceful_restart_answers_warm_with_bit_identical_values() {
    let dir = TempDir::new("durable-warm").unwrap();
    let graphs = corpus(4, 11);
    let pairs = all_pairs(&graphs);

    // first life: admit the corpus, read every pair, shut down gracefully
    // (the scheduler writes a final snapshot on join)
    let (scheduler, report) = GramScheduler::spawn_durable(
        service(),
        SchedulerConfig::default(),
        DurabilityConfig::new(dir.path()),
    )
    .unwrap();
    assert!(!report.is_warm(), "a fresh directory recovers cold");
    let producers = scheduler.client();
    for g in &graphs {
        producers.submit(g.clone()).unwrap();
    }
    let barrier = producers.flush().unwrap();
    let first_values = request_values(&scheduler, &pairs);
    let first_life = scheduler.join();
    assert!(first_life.stats().store_appends > 0, "solved pairs must hit the log");
    assert!(first_life.stats().store_bytes > 0);

    // second life, same directory: recovery must replay every pair
    let (scheduler, report) = GramScheduler::spawn_durable(
        service(),
        SchedulerConfig::default(),
        DurabilityConfig::new(dir.path()),
    )
    .unwrap();
    assert!(report.is_warm());
    assert_eq!(report.epoch, barrier.epoch, "the version counter resumes where life one ended");
    assert_eq!(report.replayed, pairs.len());
    assert_eq!(report.snapshot_graphs, graphs.len());
    assert!(!report.torn_tail);

    // the recovered triangle is published as the initial epoch without any
    // new flush — consumers see the full matrix immediately
    let recovered = scheduler.watch().wait_newer(0).expect("recovered snapshot published");
    assert_eq!(recovered.snapshot.num_graphs, graphs.len());

    // every pair answers from the replayed cache, bit-identically
    let second_values = request_values(&scheduler, &pairs);
    for (k, (a, b)) in first_values.iter().zip(&second_values).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "pair {k}: {a} vs {b} after restart");
    }
    let second_life = scheduler.join();
    let stats = second_life.stats();
    assert_eq!(stats.request_solves, 0, "a warm restart must not re-solve");
    assert_eq!(stats.request_cache_answers, pairs.len());
    assert_eq!(stats.store_replayed, pairs.len());
    assert_eq!(stats.store_torn_tail, 0);
}

#[test]
fn refined_entries_survive_restart_at_f64_quality() {
    // stores written while mixed-precision refinement existed hold its
    // entries under the legacy tag 2; they converged on the true f64
    // residual, so they recover as f64 entries
    let (solved_dir, legacy_dir) =
        (TempDir::new("durable-f64").unwrap(), TempDir::new("durable-legacy-tag").unwrap());
    let g1 = Graph::from_edge_list(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]);
    let g2 = Graph::from_edge_list(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
    let solver = || {
        MarginalizedKernelSolver::unlabeled(SolverConfig {
            solve: SolveOptions { tolerance: 1e-13, max_iterations: 5000 },
            ..SolverConfig::default()
        })
    };
    let spawn = |dir: &std::path::Path| {
        GramScheduler::spawn_durable(
            GramService::new(solver(), GramServiceConfig::default()),
            SchedulerConfig::default(),
            DurabilityConfig::new(dir),
        )
        .unwrap()
    };

    // first life: one f64 solve, persisted under tag 1
    let (scheduler, _) = spawn(solved_dir.path());
    let first =
        scheduler.kernel_client::<f64>().request(g1.clone(), g2.clone()).unwrap().wait().unwrap();
    scheduler.join();

    // re-append what recovery reads back into a fresh store, re-tagged 2
    let (_, recovery) = mgk::store::PairStore::open(solved_dir.path(), FsyncPolicy::Off).unwrap();
    let (mut legacy, _) = mgk::store::PairStore::open(legacy_dir.path(), FsyncPolicy::Off).unwrap();
    let entries: Vec<_> = recovery.all_entries().copied().collect();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].precision, 1, "the first life solved at f64");
    legacy.append_pair(&mgk::store::StoredEntry { precision: 2, ..entries[0] }).unwrap();
    drop(legacy);

    // the legacy entry answers an f64 request from the replayed cache, and
    // the stored f64 value arrives unrounded
    let (scheduler, report) = spawn(legacy_dir.path());
    assert_eq!(report.replayed, 1);
    let again = scheduler.kernel_client::<f64>().request(g1, g2).unwrap().wait().unwrap();
    assert_eq!(again.value.to_bits(), first.value.to_bits());
    let svc = scheduler.join();
    assert_eq!(svc.stats().request_solves, 0);
    assert_eq!(svc.stats().request_cache_answers, 1);
}

#[test]
fn a_kill_without_shutdown_recovers_from_the_wal_tail() {
    let dir = TempDir::new("durable-kill").unwrap();
    let graphs = corpus(3, 23);
    let pairs = all_pairs(&graphs);

    // first life: a bare service (no scheduler) with raw values so the
    // triangle can be compared bit-for-bit against later cache answers.
    // Dropping it models a kill: no final snapshot is ever written — with
    // cadence snapshots disabled, recovery has only the WAL to go on.
    let mut svc = GramService::new(
        MarginalizedKernelSolver::unlabeled(SolverConfig::default()),
        GramServiceConfig { normalize: false, ..GramServiceConfig::default() },
    );
    svc.attach_store(DurabilityConfig::new(dir.path()).with_snapshot_every(0)).unwrap();
    for g in &graphs {
        svc.submit(g.clone()).unwrap();
    }
    svc.flush();
    let pre_kill = svc.snapshot();
    let pre_kill_epoch = svc.version();
    assert!(pre_kill_epoch > 0);
    drop(svc); // the kill

    // second life: the WAL tail alone restores the cache — every pair
    // answers warm with the exact pre-kill values
    let (scheduler, report) = GramScheduler::spawn_durable(
        GramService::new(
            MarginalizedKernelSolver::unlabeled(SolverConfig::default()),
            GramServiceConfig { normalize: false, ..GramServiceConfig::default() },
        ),
        SchedulerConfig::default(),
        DurabilityConfig::new(dir.path()).with_snapshot_every(0),
    )
    .unwrap();
    assert!(report.is_warm());
    assert_eq!(report.epoch, pre_kill_epoch);
    assert_eq!(report.replayed, pairs.len());
    assert_eq!(report.snapshot_graphs, 0, "no snapshot was ever written");

    let values = request_values(&scheduler, &pairs);
    let mut k = 0;
    for i in 0..graphs.len() {
        for j in i..graphs.len() {
            assert_eq!(
                values[k].to_bits(),
                pre_kill.get(i, j).to_bits(),
                "pair ({i},{j}) must replay the pre-kill value"
            );
            k += 1;
        }
    }

    // epochs continue monotonically across the kill: the next admitting
    // flush publishes strictly after the recovered epoch
    let producers = scheduler.client();
    producers.submit(corpus(1, 91).pop().unwrap()).unwrap();
    let barrier = producers.flush().unwrap();
    assert!(barrier.epoch > pre_kill_epoch, "{} !> {pre_kill_epoch}", barrier.epoch);

    let svc = scheduler.join();
    let stats = svc.stats();
    assert_eq!(stats.request_solves, 0, "the replayed tail answers everything");
    assert_eq!(stats.request_cache_answers, pairs.len());
}

#[test]
fn a_torn_final_record_is_skipped_counted_and_healed() {
    let dir = TempDir::new("durable-torn").unwrap();
    let graphs = corpus(2, 31);
    let pairs = all_pairs(&graphs);

    let mut svc = service();
    svc.attach_store(DurabilityConfig::new(dir.path()).with_snapshot_every(0)).unwrap();
    for g in &graphs {
        svc.submit(g.clone()).unwrap();
    }
    svc.flush();
    drop(svc);

    // tear the final record: a crash mid-append leaves a frame whose
    // announced payload runs past the end of the file
    let wal = dir.path().join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    let intact = bytes.len();
    bytes.extend_from_slice(&64u32.to_le_bytes()); // announce 64 payload bytes...
    bytes.extend_from_slice(&[0xAB; 8]); // ...with some checksum...
    bytes.extend_from_slice(&[0xCD; 5]); // ...but only 5 arrived
    std::fs::write(&wal, &bytes).unwrap();

    // recovery tolerates the tear: everything before it replays, the torn
    // bytes are truncated away, and the event is reported and counted
    let (scheduler, report) = GramScheduler::spawn_durable(
        service(),
        SchedulerConfig::default(),
        DurabilityConfig::new(dir.path()).with_snapshot_every(0),
    )
    .unwrap();
    assert!(report.torn_tail);
    assert_eq!(report.replayed, pairs.len());
    assert_eq!(
        std::fs::metadata(&wal).unwrap().len(),
        intact as u64,
        "the torn bytes are truncated so appends chain onto complete records"
    );
    let values = request_values(&scheduler, &pairs);
    assert_eq!(values.len(), pairs.len());
    let svc = scheduler.join();
    assert_eq!(svc.stats().store_torn_tail, 1);
    assert_eq!(svc.stats().request_solves, 0);
    assert_eq!(svc.stats().request_cache_answers, pairs.len());
}

#[test]
fn checksum_corruption_refuses_recovery_with_a_typed_error() {
    let dir = TempDir::new("durable-corrupt").unwrap();
    let mut svc = service();
    svc.attach_store(DurabilityConfig::new(dir.path()).with_snapshot_every(0)).unwrap();
    for g in corpus(2, 37) {
        svc.submit(g).unwrap();
    }
    svc.flush();
    drop(svc);

    // flip one byte inside the first record's (fully present) payload:
    // that is corruption, not a torn write, and must be refused
    let wal = dir.path().join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    let flip = 12 + 12 + 20; // header + first frame header + mid-payload
    bytes[flip] ^= 0xFF;
    std::fs::write(&wal, &bytes).unwrap();

    let result = GramScheduler::spawn_durable(
        service(),
        SchedulerConfig::default(),
        DurabilityConfig::new(dir.path()),
    );
    match result {
        Err(StoreError::Corrupt { detail, .. }) => assert_eq!(detail, "record checksum mismatch"),
        other => panic!("corruption must be a hard error, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn format_version_skew_refuses_recovery_with_a_typed_error() {
    let dir = TempDir::new("durable-skew").unwrap();
    let mut svc = service();
    svc.attach_store(DurabilityConfig::new(dir.path())).unwrap();
    drop(svc);

    // stamp a foreign format version into the WAL header
    let wal = dir.path().join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&wal, &bytes).unwrap();

    let result = GramScheduler::spawn_durable(
        service(),
        SchedulerConfig::default(),
        DurabilityConfig::new(dir.path()),
    );
    match result {
        Err(StoreError::VersionSkew { found, expected, .. }) => {
            assert_eq!(found, 99);
            assert_eq!(expected, mgk::store::FORMAT_VERSION);
        }
        other => panic!("version skew must be a hard error, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn fsync_policies_are_observable_in_the_stats() {
    let graphs = corpus(2, 41);

    // EveryRecord: one fsync per appended record
    let dir = TempDir::new("durable-sync-record").unwrap();
    let (scheduler, _) = GramScheduler::spawn_durable(
        service(),
        SchedulerConfig::default(),
        DurabilityConfig::new(dir.path()).with_fsync(FsyncPolicy::EveryRecord),
    )
    .unwrap();
    let producers = scheduler.client();
    for g in &graphs {
        producers.submit(g.clone()).unwrap();
    }
    producers.flush().unwrap();
    let svc = scheduler.join();
    let stats = svc.stats();
    assert!(
        stats.store_fsyncs >= stats.store_appends,
        "every append (and the epoch mark) must sync: {stats:?}"
    );

    // Off: appends land in the page cache, no fsync ever
    let dir = TempDir::new("durable-sync-off").unwrap();
    let (scheduler, _) = GramScheduler::spawn_durable(
        service(),
        SchedulerConfig::default(),
        DurabilityConfig::new(dir.path()).with_fsync(FsyncPolicy::Off),
    )
    .unwrap();
    let producers = scheduler.client();
    for g in &graphs {
        producers.submit(g.clone()).unwrap();
    }
    producers.flush().unwrap();
    let svc = scheduler.join();
    assert_eq!(svc.stats().store_fsyncs, 0);
    assert!(svc.stats().store_appends > 0);
}

#[test]
fn a_read_only_restart_appends_and_syncs_nothing() {
    let dir = TempDir::new("durable-read-only").unwrap();
    let graphs = corpus(4, 47);
    let pairs = all_pairs(&graphs);
    let spawn = || {
        GramScheduler::spawn_durable(
            service(),
            SchedulerConfig::default(),
            DurabilityConfig::new(dir.path()),
        )
        .unwrap()
        .0
    };

    // first life: solve all ten pairs into the store
    let scheduler = spawn();
    request_values(&scheduler, &pairs);
    assert_eq!(scheduler.join().stats().store_appends, pairs.len());

    // second life: 200 cache answers, one drain cycle each — boundaries
    // with nothing appended since the last one must not schedule syncs
    let scheduler = spawn();
    let kernels = scheduler.kernel_client::<f32>();
    for (a, b) in pairs.iter().cycle().take(200) {
        kernels.request(a.clone(), b.clone()).unwrap().wait().unwrap();
    }
    let stats = scheduler.join().stats();
    assert_eq!(stats.request_cache_answers, 200);
    assert_eq!(stats.store_appends, 0);
    assert_eq!(stats.store_fsyncs, 0, "a boundary with nothing unsynced syncs nothing");
}

#[test]
fn snapshot_cadence_truncates_the_log() {
    let dir = TempDir::new("durable-cadence").unwrap();
    let graphs = corpus(4, 43);
    let (scheduler, _) = GramScheduler::spawn_durable(
        service(),
        SchedulerConfig::default(),
        DurabilityConfig::new(dir.path()).with_snapshot_every(1),
    )
    .unwrap();
    let producers = scheduler.client();
    for g in &graphs {
        producers.submit(g.clone()).unwrap();
        producers.flush().unwrap();
    }
    scheduler.join();

    // every admitting flush snapshotted, so the store holds exactly one
    // snapshot and an empty (header-only) log
    let wal_len = std::fs::metadata(dir.path().join("wal.log")).unwrap().len();
    assert_eq!(wal_len, 12, "a snapshot must truncate the log back to its header");
    let snapshots = std::fs::read_dir(dir.path())
        .unwrap()
        .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".mgksnap"))
        .count();
    assert_eq!(snapshots, 1, "older snapshots are pruned");

    // and the single snapshot still warms the full corpus
    let (scheduler, report) = GramScheduler::spawn_durable(
        service(),
        SchedulerConfig::default(),
        DurabilityConfig::new(dir.path()),
    )
    .unwrap();
    assert_eq!(report.snapshot_graphs, graphs.len());
    assert_eq!(report.replayed, graphs.len() * (graphs.len() + 1) / 2);
    scheduler.join();
}

#[test]
fn a_restarted_cluster_recovers_every_shard_from_its_own_store() {
    let dir = TempDir::new("durable-cluster").unwrap();
    let graphs = corpus(6, 47);
    let pairs = all_pairs(&graphs);
    let config = ClusterConfig { shards: 3, scheduler: SchedulerConfig::default() };

    // first life: populate through the routed request lane, shut down
    // gracefully (each shard writes its own final snapshot)
    let (cluster, reports) =
        GramCluster::spawn_durable(service(), config, DurabilityConfig::new(dir.path())).unwrap();
    assert_eq!(reports.len(), 3);
    assert!(reports.iter().all(|r| !r.is_warm()));
    let kernels = cluster.kernel_client::<f32>();
    let tickets = kernels.request_all(pairs.iter().cloned()).unwrap();
    let first_values: Vec<f32> =
        tickets.into_iter().map(|t| t.wait().expect("request resolves").value).collect();
    cluster.join();
    for shard in 0..3 {
        assert!(
            dir.path().join(format!("shard-{shard}")).join("wal.log").is_file(),
            "shard {shard} persists under its own subdirectory"
        );
    }

    // second life: content-hash routing is restart-stable, so each shard
    // finds exactly its own pairs and the whole corpus answers warm
    let (cluster, reports) =
        GramCluster::spawn_durable(service(), config, DurabilityConfig::new(dir.path())).unwrap();
    let replayed: usize = reports.iter().map(|r| r.replayed).sum();
    assert_eq!(replayed, pairs.len(), "the shards partition the corpus exactly");
    let kernels = cluster.kernel_client::<f32>();
    let tickets = kernels.request_all(pairs.iter().cloned()).unwrap();
    let second_values: Vec<f32> =
        tickets.into_iter().map(|t| t.wait().expect("request resolves").value).collect();
    assert_eq!(first_values.len(), second_values.len());
    for (k, (a, b)) in first_values.iter().zip(&second_values).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "pair {k} after cluster restart");
    }
    let services = cluster.join();
    let solves: usize = services.iter().map(|s| s.stats().request_solves).sum();
    let warm: usize = services.iter().map(|s| s.stats().request_cache_answers).sum();
    assert_eq!(solves, 0, "no shard re-solves after recovery");
    assert_eq!(warm, pairs.len());
}

/// Every file of a store directory with its bytes, sorted by name.
fn directory_contents(dir: &std::path::Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap())
        .map(|entry| (entry.file_name(), std::fs::read(entry.path()).unwrap()))
        .collect();
    files.sort();
    files
}

#[test]
fn a_refused_cluster_leaves_no_shard_running_over_its_store() {
    let dir = TempDir::new("durable-cluster-refused").unwrap();
    let durability = DurabilityConfig::new(dir.path());
    let config = ClusterConfig { shards: 2, scheduler: SchedulerConfig::default() };
    let (shard0, shard1) = (durability.for_shard(0).dir, durability.for_shard(1).dir);

    // first life: admit a corpus on both shards and shut down gracefully,
    // so each shard's store holds a snapshot with members and a triangle
    let (cluster, _) = GramCluster::spawn_durable(service(), config, durability.clone()).unwrap();
    let producers = cluster.client();
    producers.submit_all(corpus(8, 53)).unwrap();
    let barrier = producers.flush().unwrap();
    assert!(barrier.shard_epochs.iter().all(|&epoch| epoch > 0), "both shards admitted");
    cluster.join();

    // give shard 1's log one record, then flip a byte inside its payload:
    // corruption, as in `checksum_corruption_refuses_recovery_with_a_typed_error`
    let (mut store, _) = mgk::store::PairStore::open(&shard1, FsyncPolicy::Off).unwrap();
    store.mark_epoch(barrier.shard_epochs[1] + 1).unwrap();
    drop(store);
    let wal = shard1.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes[12 + 12 + 2] ^= 0xFF; // header + frame header + mid-payload
    std::fs::write(&wal, &bytes).unwrap();

    // what shard 0's store is: its files, and what recovery reads from them
    let observe = |dir: &std::path::Path| {
        let (_, recovery) = mgk::store::PairStore::open(dir, FsyncPolicy::Off).unwrap();
        let entries: Vec<_> = recovery.all_entries().copied().collect();
        (directory_contents(dir), recovery.epoch, entries)
    };
    let before = observe(&shard0);
    assert_eq!(before.1, barrier.shard_epochs[0]);

    // second life: shard 0 recovers, shard 1 refuses — the cluster is
    // refused as a whole, with no shard thread left behind to write its
    // final snapshot over shard 0's store after the caller saw the error
    match GramCluster::spawn_durable(service(), config, durability) {
        Err(StoreError::Corrupt { detail, .. }) => assert_eq!(detail, "record checksum mismatch"),
        other => panic!("a corrupt shard must refuse the cluster, got {:?}", other.map(|_| ())),
    }
    assert!(before == observe(&shard0), "a refused spawn rewrote shard 0's store");
}

#[test]
fn a_service_reports_its_attached_store() {
    let dir = TempDir::new("durable-detach").unwrap();
    let mut svc = service();
    assert!(!svc.store_attached());
    assert_eq!(svc.store_dir(), None);
    svc.attach_store(DurabilityConfig::new(dir.path())).unwrap();
    assert!(svc.store_attached());
    assert_eq!(svc.store_dir(), Some(dir.path()));
}
