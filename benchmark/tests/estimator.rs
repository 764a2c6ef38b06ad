//! The quiet-value and percentile estimators on series whose answers are
//! known.

use mgk_benchmark::stats::{iqr_share, median, quantile_sorted, quiet_value, Better, Summary};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * b.abs().max(1.0)
}

#[test]
fn quantiles_interpolate_between_order_statistics() {
    let series: Vec<f64> = (1..=101).map(f64::from).collect();
    assert!(close(quantile_sorted(&series, 0.0), 1.0));
    assert!(close(quantile_sorted(&series, 0.05), 6.0));
    assert!(close(quantile_sorted(&series, 0.5), 51.0));
    assert!(close(quantile_sorted(&series, 0.95), 96.0));
    assert!(close(quantile_sorted(&series, 1.0), 101.0));
    // between the second and third of five values
    assert!(close(quantile_sorted(&[10.0, 20.0, 30.0, 40.0, 50.0], 0.3), 22.0));
    assert!(close(quantile_sorted(&[7.0], 0.05), 7.0));
    assert!(quantile_sorted(&[], 0.5).is_nan());
}

#[test]
fn quiet_value_is_the_fast_end_of_either_direction() {
    // a lap series: mostly 100 ms, a fifth of the laps disturbed to 130 ms
    let mut times: Vec<f64> = vec![100.0; 80];
    times.extend(vec![130.0; 20]);
    assert!(close(quiet_value(&times, Better::Lower), 100.0));
    // the same laps as rates
    let rates: Vec<f64> = times.iter().map(|t| 1000.0 / t).collect();
    assert!(close(quiet_value(&rates, Better::Higher), 10.0));
    // the order the laps came in does not matter
    times.reverse();
    assert!(close(quiet_value(&times, Better::Lower), 100.0));
    assert!(close(median(&times), 100.0));
}

#[test]
fn quiet_value_ignores_a_disturbed_majority_the_median_does_not() {
    // 60 % of the laps 8 % slow: the median moves, the quiet value stays
    let mut times: Vec<f64> = vec![50.0; 40];
    times.extend(vec![54.0; 60]);
    assert!(close(quiet_value(&times, Better::Lower), 50.0));
    assert!(close(median(&times), 54.0));
    let summary = Summary::of(&times, Better::Lower);
    assert!(close(summary.disturbance(Better::Lower), 1.08));
}

#[test]
fn summary_reports_the_highest_tail_with_ten_samples_beyond_it() {
    let series = |n: usize| -> Vec<f64> { (1..=n).map(|k| k as f64).collect() };
    // fewer than 100 samples: no percentile has ten samples beyond it
    assert_eq!(Summary::of(&series(99), Better::Lower).tail, None);
    // 100 samples: p90 has exactly ten beyond it
    let (pct, value) = Summary::of(&series(100), Better::Lower).tail.unwrap();
    assert_eq!(pct, 90.0);
    assert!(close(value, 90.1));
    assert_eq!(Summary::of(&series(200), Better::Lower).tail.unwrap().0, 95.0);
    assert_eq!(Summary::of(&series(1000), Better::Lower).tail.unwrap().0, 99.0);
    assert_eq!(Summary::of(&series(10_000), Better::Lower).tail.unwrap().0, 99.9);
    // for a rate the tail is the slow end: the low values
    let (pct, value) = Summary::of(&series(100), Better::Higher).tail.unwrap();
    assert_eq!(pct, 90.0);
    assert!(close(value, 10.9));
    assert_eq!(Summary::of(&series(100), Better::Lower).count, 100);
}

#[test]
fn spread_matches_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]; median 5.5
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!(close(iqr_share(&ten), (8.25 - 2.75) / 5.5));
    // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
    let pi = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
    assert!(close(iqr_share(&pi), (5.25 - 1.75) / 3.5));
    // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
    assert!(close(iqr_share(&[20.0, 40.0, 10.0]), 30.0 / 20.0));
    assert_eq!(iqr_share(&[5.0]), 0.0);
    assert_eq!(iqr_share(&[5.0, 5.0, 5.0, 5.0]), 0.0);
}

#[test]
fn worse_by_more_than_respects_direction_and_bound() {
    assert!(Better::Lower.worse_by_more_than(100.0, 106.0, 0.05));
    assert!(!Better::Lower.worse_by_more_than(100.0, 105.0, 0.05));
    assert!(!Better::Lower.worse_by_more_than(100.0, 50.0, 0.05));
    assert!(Better::Higher.worse_by_more_than(100.0, 94.0, 0.05));
    assert!(!Better::Higher.worse_by_more_than(100.0, 95.0, 0.05));
    assert!(!Better::Higher.worse_by_more_than(100.0, 200.0, 0.05));
}
