//! What every workload shares: the run's clock, its lap log, and the rules
//! laps are held to.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::host;
use crate::oracle::OracleReport;
use crate::spec::{Workload, MIN_LAPS};
use crate::trace::Tracer;

/// Where traces, saved sets and the store directories of a run go:
/// `benchmark/out`, which the repository ignores. The benchmark reads and
/// writes nowhere else.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Everything a run is told, plus its clock and tracer.
pub struct RunContext {
    pub workload: Workload,
    pub seed: u64,
    /// The whole run — set-ups, laps, checks — is sized to end about this
    /// long after the process started.
    pub seconds: f64,
    pub trace: bool,
    /// Short laps series, for tests: everything runs, nothing is gated on
    /// the number of laps.
    pub smoke: bool,
    pub started: Instant,
    pub pinned_cpu: Option<usize>,
    pub tracer: Tracer,
}

impl RunContext {
    /// The instant `share` of the run's seconds after the process started.
    pub fn deadline(&self, share: f64) -> Instant {
        self.started + Duration::from_secs_f64(self.seconds * share)
    }

    /// The share of the run's seconds at which laps stop. What is left
    /// covers the oracle and the report; a traced run also keeps a third of
    /// its time for the layer walk.
    pub fn laps_end(&self) -> f64 {
        match (self.smoke, self.trace) {
            (true, _) => 0.5,
            (false, true) => 0.62,
            (false, false) => 0.95,
        }
    }

    /// Start lap `lap`: spans carry its number, and a traced run records
    /// every other lap so that `trace.overhead_share` compares like with like.
    pub fn begin_lap(&self, lap: u32) {
        self.tracer.set_lap(lap);
        if self.trace {
            self.tracer.set_enabled(lap.is_multiple_of(2));
        }
    }

    /// Whether to run another round after `laps` of them. Laps stop when the
    /// run's time is up — but not before every series has its 40 laps: on a
    /// host that is having a slow minute the run takes longer rather than
    /// fail. Three times the run's seconds is the hard stop.
    pub fn keep_lapping(&self, laps: usize) -> bool {
        let now = Instant::now();
        // a smoke run still needs one traced and one untraced lap
        let enough = if self.smoke { laps >= 2 } else { laps >= MIN_LAPS };
        (now < self.deadline(self.laps_end()) || !enough) && now < self.deadline(3.0)
    }
}

/// The series and counts one run collects.
#[derive(Debug, Default)]
pub struct LapLog {
    /// Seconds of each fresh set-up.
    pub setup_s: Vec<f64>,
    /// Kernel values delivered per second, one entry per throughput lap.
    pub pairs_per_s: Vec<f64>,
    /// Median single-pair latency in ms, one entry per cold-pair lap.
    pub cold_pair_ms: Vec<f64>,
    /// Wall seconds of each throughput lap, split by whether the tracer was
    /// recording (traced runs alternate), for `trace.overhead_share`.
    pub lap_s_untraced: Vec<f64>,
    pub lap_s_traced: Vec<f64>,
    /// Calibration-kernel times taken between laps.
    pub calib_ms: Vec<f64>,
    /// Kernel values asked for, and how many errored, did not converge,
    /// were not finite or missed the oracle.
    pub attempted: u64,
    pub failed: u64,
    /// Laps whose outputs differed bit-for-bit from the first lap's.
    pub nondeterministic_laps: u64,
    pub oracle: OracleReport,
    pub peak_rss_mib: f64,
}

impl LapLog {
    /// File one throughput lap's wall seconds under traced or untraced.
    pub fn record_lap_seconds(&mut self, traced: bool, seconds: f64) {
        if traced { &mut self.lap_s_traced } else { &mut self.lap_s_untraced }.push(seconds);
    }

    /// Run the frozen calibration kernel once, between laps.
    pub fn calibrate(&mut self) {
        self.calib_ms.push(host::calibration_ms());
    }
}

/// Compares every lap's outputs with the first lap's, bit for bit. Equal
/// outputs also show that the laps did identical work.
#[derive(Debug, Default)]
pub struct LapFingerprint {
    first: Option<u64>,
}

impl LapFingerprint {
    /// Record one lap's output hash; returns whether it matches lap 1.
    pub fn matches_first(&mut self, hash: u64) -> bool {
        *self.first.get_or_insert(hash) == hash
    }
}

/// Send every item, keeping at most `window` answers outstanding: before
/// the window overflows the oldest ticket is settled. Tickets settle in the
/// order they were sent.
pub fn windowed<I, T>(
    items: impl IntoIterator<Item = I>,
    window: usize,
    mut send: impl FnMut(I) -> T,
    mut settle: impl FnMut(T),
) {
    let mut in_flight = VecDeque::with_capacity(window);
    for item in items {
        if in_flight.len() == window {
            settle(in_flight.pop_front().expect("the window is full"));
        }
        in_flight.push_back(send(item));
    }
    in_flight.into_iter().for_each(settle);
}

/// FNV-1a over the bit patterns of a lap's delivered values.
pub fn hash_values(values: impl IntoIterator<Item = f32>) -> u64 {
    let mut h = mgk_runtime::Fnv1a::new();
    for v in values {
        h.write_u32(v.to_bits());
    }
    h.finish()
}

/// Count the values of a lap that are not finite as failed.
pub fn count_non_finite(values: &[f32]) -> u64 {
    values.iter().filter(|v| !v.is_finite()).count() as u64
}
