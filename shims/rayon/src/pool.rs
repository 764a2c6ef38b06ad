//! The persistent work-stealing worker pool behind every parallel call.
//!
//! The first version of this shim spawned fresh `std::thread::scope` threads
//! on every `par_iter` / `par_chunks` call, which is fine at Gram-engine
//! granularity but pays a full thread spawn + join per parallel region. This
//! module replaces that with a process-wide pool of persistent workers
//! ([`Pool::global`]):
//!
//! * Workers are spawned once (lazily, on first use) and then parked on a
//!   condvar while no work is queued — an idle pool costs nothing.
//! * A parallel region submits one `Job`: a lifetime-erased reference to
//!   an indexed closure plus an atomic index cursor. Every participating
//!   thread — pool workers *and* the submitting thread — claims indices
//!   through `fetch_add`, the CPU analogue of work stealing: a skewed
//!   workload never straggles on one thread.
//! * The submitting thread always participates until no indices are left,
//!   then blocks until the last in-flight index retires. Because the
//!   submitter drives its own job to completion, nested parallel regions
//!   (a `par_iter` inside a `par_iter` body) cannot deadlock even when all
//!   pool workers are busy.
//!
//! `mgk-runtime` re-exports this type as its pool layer; the crate lives
//! here, at the very bottom of the workspace DAG, so that the rayon shim
//! itself can route through it without a dependency cycle.
//!
//! # Safety
//!
//! The job holds a `*const (dyn Fn(usize) + Sync)` whose lifetime has been
//! erased. The invariant making this sound: the closure is only invoked
//! between a successful index claim (`next.fetch_add < count`) and the
//! matching `done.fetch_add`, and [`Pool::run_indexed`] does not return
//! until `done == count`. The borrow therefore outlives every call. Workers
//! holding a stale `Arc<Job>` after completion observe `next >= count` and
//! never touch the pointer again.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Number of worker threads the global pool spawns, resolved once.
///
/// `MGK_POOL_THREADS` overrides the default of
/// `available_parallelism() - 1` (the submitting thread is the remaining
/// participant, so parallel regions still use every core).
fn default_workers() -> usize {
    if let Ok(v) = std::env::var("MGK_POOL_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n;
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).saturating_sub(1)
}

/// One submitted parallel region: an indexed closure plus claim/retire
/// cursors.
struct Job {
    /// Lifetime-erased pointer to the caller's `&(dyn Fn(usize) + Sync)`.
    /// Only dereferenced between an index claim and its retirement; see the
    /// module-level safety note.
    task: *const (dyn Fn(usize) + Sync),
    /// Next index to hand out.
    next: AtomicUsize,
    /// Total number of indices.
    count: usize,
    /// Indices fully executed.
    done: AtomicUsize,
    /// Set when any index panicked; the submitter re-raises.
    panicked: AtomicBool,
    /// Completion latch for the submitting thread.
    complete: Mutex<bool>,
    complete_cv: Condvar,
}

// SAFETY: the only non-`Send` field is the raw closure pointer, and it is
// only dereferenced while the submitting stack frame is alive (see module
// docs), whichever thread holds the job.
unsafe impl Send for Job {}
// SAFETY: several workers share a `&Job`; the closure pointee is `Sync`, so
// concurrent calls through it are allowed, each index is claimed by one
// atomic `fetch_add`, and every other field is an atomic, a lock or
// immutable.
unsafe impl Sync for Job {}

impl Job {
    /// True when the job still has unclaimed indices.
    fn joinable(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.count
    }

    /// Claim and execute indices until none remain. Returns after the last
    /// index *this thread* ran; other threads may still be executing theirs.
    fn run_to_exhaustion(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.count {
                break;
            }
            // SAFETY: i < count, so the submitter is still blocked in
            // `run_indexed` and the closure borrow is alive.
            let task = unsafe { &*self.task };
            if catch_unwind(AssertUnwindSafe(|| task(i))).is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.count {
                let mut finished = self.complete.lock().unwrap();
                *finished = true;
                self.complete_cv.notify_all();
            }
        }
    }

    /// Block until every index has retired.
    fn wait_complete(&self) {
        let finished = self.complete.lock().unwrap();
        drop(self.complete_cv.wait_while(finished, |finished| !*finished).unwrap());
    }
}

/// Queue state shared between the pool handle and its workers.
struct Shared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    work_available: Condvar,
}

/// A persistent pool of parked worker threads executing indexed parallel
/// regions.
///
/// Most callers never construct one: [`Pool::global`] is the process-wide
/// instance every `par_iter`/`par_chunks` call routes through.
pub struct Pool {
    shared: Arc<Shared>,
    workers: usize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("workers", &self.workers).finish()
    }
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

impl Pool {
    /// The process-wide pool, spawning its workers on first use.
    pub fn global() -> &'static Pool {
        GLOBAL.get_or_init(|| Pool::new(default_workers()))
    }

    /// Build a pool with `workers` persistent worker threads (0 is allowed:
    /// every region then runs on the submitting thread alone).
    pub fn new(workers: usize) -> Pool {
        let shared =
            Arc::new(Shared { queue: Mutex::new(VecDeque::new()), work_available: Condvar::new() });
        for id in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("mgk-pool-{id}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawning pool worker");
        }
        Pool { shared, workers }
    }

    /// Maximum useful parallelism of a region run on this pool: the workers
    /// plus the submitting thread.
    pub fn max_parallelism(&self) -> usize {
        self.workers + 1
    }

    /// Run `body(i)` for every `i in 0..count` across the pool.
    ///
    /// The calling thread always participates, and the call returns only
    /// after every index has completed. Panics in `body` are collected and
    /// re-raised on the calling thread after the region drains.
    pub fn run_indexed(&self, count: usize, body: &(dyn Fn(usize) + Sync)) {
        if count == 0 {
            return;
        }
        if count == 1 || self.workers == 0 {
            for i in 0..count {
                body(i);
            }
            return;
        }

        // SAFETY: the transmute erases the borrow's lifetime so the raw
        // pointer can be shared with worker threads. The borrow outlives
        // every dereference because this function blocks in
        // `wait_until_complete` below until all workers have retired the
        // job, and the post-completion sweep only retires — never runs —
        // stale pointers; full soundness argument in the module docs.
        let task: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(body) };
        let job = Arc::new(Job {
            task,
            next: AtomicUsize::new(0),
            count,
            done: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            complete: Mutex::new(false),
            complete_cv: Condvar::new(),
        });

        self.shared.queue.lock().unwrap().push_back(Arc::clone(&job));
        self.shared.work_available.notify_all();

        job.run_to_exhaustion();
        job.wait_complete();

        // Drop the queue's reference so stale jobs don't accumulate. Workers
        // scanning concurrently see `next >= count` and skip it either way.
        let mut queue = self.shared.queue.lock().unwrap();
        if let Some(pos) = queue.iter().position(|j| Arc::ptr_eq(j, &job)) {
            queue.remove(pos);
        }
        drop(queue);

        if job.panicked.load(Ordering::Relaxed) {
            panic!("mgk pool: a parallel task panicked");
        }
    }
}

/// Body of every persistent worker: park until a job is joinable, attach,
/// drain, repeat.
fn worker_loop(shared: &Shared) {
    loop {
        let job: Arc<Job> = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                // attach to the first job with unclaimed indices
                match queue.iter().find(|j| j.joinable()).cloned() {
                    Some(job) => break job,
                    None => queue = shared.work_available.wait(queue).unwrap(),
                }
            }
        };
        job.run_to_exhaustion();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::thread::ThreadId;
    use std::time::Duration;

    fn thread_ids_of_region(pool: &Pool, count: usize) -> HashSet<ThreadId> {
        let ids = Mutex::new(HashSet::new());
        pool.run_indexed(count, &|_| {
            std::thread::sleep(Duration::from_millis(1));
            ids.lock().unwrap().insert(std::thread::current().id());
        });
        ids.into_inner().unwrap()
    }

    #[test]
    fn all_indices_execute_exactly_once() {
        let pool = Pool::new(3);
        let n = 10_000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        pool.run_indexed(n, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn a_region_that_finished_before_the_completion_wait_still_returns() {
        // every index retires on this thread before it reaches the wait, so
        // no wakeup will ever come: the predicate alone must release it
        let body: &(dyn Fn(usize) + Sync) = &|_| {};
        let job = Job {
            task: body,
            next: AtomicUsize::new(0),
            count: 3,
            done: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            complete: Mutex::new(false),
            complete_cv: Condvar::new(),
        };
        job.run_to_exhaustion();
        job.wait_complete();
        assert_eq!(job.done.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn worker_threads_are_stable_across_regions() {
        let pool = Pool::new(2);
        // `ThreadId`s are never reused, so per-call spawning would grow the
        // union of observed ids with every region; a persistent pool keeps
        // it bounded by workers + submitter
        let mut union = HashSet::new();
        for _ in 0..4 {
            union.extend(thread_ids_of_region(&pool, 64));
        }
        assert!(
            union.len() <= pool.max_parallelism(),
            "{} distinct thread ids across 4 regions on a pool of parallelism {}",
            union.len(),
            pool.max_parallelism()
        );
    }

    #[test]
    fn nested_regions_complete() {
        let pool = Pool::new(2);
        let total = AtomicUsize::new(0);
        pool.run_indexed(4, &|_| {
            pool.run_indexed(8, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn zero_worker_pool_runs_serially() {
        let pool = Pool::new(0);
        let sum = AtomicUsize::new(0);
        pool.run_indexed(100, &|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 99 * 100 / 2);
    }

    #[test]
    fn panics_propagate_to_the_submitter() {
        let pool = Pool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(16, &|i| {
                if i == 7 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "panic was swallowed");
        // the pool survives a panicked region
        let ok = AtomicUsize::new(0);
        pool.run_indexed(16, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 16);
    }
}
