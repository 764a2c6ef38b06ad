//! Which CPU a run pins itself to.

use mgk_benchmark::pin::{allowed_cpus, parse_proc_stat, preference_order};

#[test]
fn pinning_prefers_the_highest_cpu_that_is_not_busy() {
    // both idle: the highest number, whichever is a shade idler
    assert_eq!(preference_order(&[(0, 0.00), (1, 0.02)]), [1, 0]);
    assert_eq!(preference_order(&[(0, 0.02), (1, 0.00)]), [1, 0]);
    // another benchmark process on CPU 1: take CPU 0
    assert_eq!(preference_order(&[(0, 0.03), (1, 0.99)]), [0, 1]);
    // everything busy: the idlest first
    assert_eq!(preference_order(&[(0, 0.9), (1, 0.7), (2, 0.8)]), [1, 2, 0]);
    assert_eq!(preference_order(&[(4, 0.1), (2, 0.1), (7, 0.6)]), [4, 2, 7]);

    let stat = "cpu  100 0 50 1000 10 0 5 2 0 0\n\
                cpu0 60 0 30 500 4 0 5 1 0 0\n\
                cpu1 40 0 20 500 6 0 0 1 0 0\n\
                intr 12345\n";
    // (cpu, busy, total): busy is everything but idle and iowait, steal included
    assert_eq!(parse_proc_stat(stat), [(0, 96, 600), (1, 61, 567)]);
}

#[test]
fn the_affinity_mask_is_readable() {
    // on Linux a process is allowed on at least one CPU
    assert!(!allowed_cpus().is_empty());
}
