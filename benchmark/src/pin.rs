//! Pin the process to one CPU before anything spawns.
//!
//! Rule 1 of the benchmark (see the README): on a small shared VM two busy
//! threads on two shared vCPUs never see a quiet window, and where the OS
//! places the client and scheduler threads makes request throughput
//! bimodal. One pinned CPU — the same one every run — makes both repeat.
//! Threads spawned later inherit the mask, and the rayon shim sizes its pool
//! from `available_parallelism()`, which reads the mask — so the pool gets
//! zero workers and every parallel region runs on the calling thread.

use std::time::Duration;

/// Room for 1024 CPUs, the size of glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPUs the calling thread may run on, in ascending order; empty when the
/// kernel refuses to say.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread; the kernel writes at most
    // `cpusetsize` bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64).filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
}

fn set_affinity(cpu: usize) -> bool {
    if cpu >= MASK_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the byte length passed and
    // is only read; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Busy (non-idle, non-iowait) and total jiffies per CPU from `/proc/stat`.
fn cpu_jiffies() -> Vec<(usize, u64, u64)> {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else { return Vec::new() };
    parse_proc_stat(&text)
}

/// Parse the per-CPU lines of `/proc/stat` into `(cpu, busy, total)`.
pub fn parse_proc_stat(text: &str) -> Vec<(usize, u64, u64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let mut fields = line.split_ascii_whitespace();
        let Some(cpu) = fields
            .next()
            .and_then(|name| name.strip_prefix("cpu"))
            .and_then(|id| id.parse::<usize>().ok())
        else {
            continue;
        };
        let values: Vec<u64> = fields.filter_map(|f| f.parse().ok()).collect();
        if values.len() < 5 {
            continue;
        }
        let total: u64 = values.iter().take(8).sum();
        let idle = values[3] + values[4];
        out.push((cpu, total - idle, total));
    }
    out
}

/// A CPU this busy over the sample is taken to be running something of its
/// own — another benchmark process, for one — and is avoided.
const BUSY_SHARE: f64 = 0.5;

/// Pin the calling thread (the only one, when called first thing in `main`)
/// to one CPU: the highest-numbered CPU it is allowed on that is not already
/// busy, or the idlest when all are, so two benchmark processes started
/// together do not stack on one core.
///
/// Why not simply the idlest: which CPU a run lands on is part of the
/// measurement. Where this was written the disk's interrupts go to CPU 1 and
/// the network's to CPU 0, and `serve-hot-restart` reads 83.5 k pairs/s on
/// CPU 0 and 77 k on CPU 1, every time; between two idle CPUs the idlest is
/// a coin toss. The highest number keeps away from CPU 0, where interrupts
/// that are none of the benchmark's doing usually land.
///
/// Returns the CPU, or `None` when pinning was refused — the caller warns
/// and reports `host.pinned_cpu = -1`.
pub fn pin_to_one_cpu() -> Option<usize> {
    let allowed = allowed_cpus();
    if allowed.is_empty() {
        return None;
    }
    let before = cpu_jiffies();
    std::thread::sleep(Duration::from_millis(200));
    let after = cpu_jiffies();
    let busy_share = |cpu: usize| -> f64 {
        let find = |rows: &[(usize, u64, u64)]| rows.iter().find(|r| r.0 == cpu).copied();
        match (find(&before), find(&after)) {
            (Some(b), Some(a)) if a.2 > b.2 => (a.1 - b.1) as f64 / (a.2 - b.2) as f64,
            // no reading for this CPU: take it for idle
            _ => 0.0,
        }
    };
    let shares: Vec<(usize, f64)> = allowed.iter().map(|&cpu| (cpu, busy_share(cpu))).collect();
    preference_order(&shares).into_iter().find(|&cpu| set_affinity(cpu))
}

/// The order CPUs are tried in, given each one's busy share: those below
/// [`BUSY_SHARE`] from the highest number down, then the rest from the idlest
/// up.
pub fn preference_order(shares: &[(usize, f64)]) -> Vec<usize> {
    let mut order: Vec<(usize, f64)> = shares.to_vec();
    order.sort_by(|a, b| match (a.1 < BUSY_SHARE, b.1 < BUSY_SHARE) {
        (true, true) => b.0.cmp(&a.0),
        (false, false) => a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)),
        (a_free, b_free) => b_free.cmp(&a_free),
    });
    order.into_iter().map(|(cpu, _)| cpu).collect()
}
