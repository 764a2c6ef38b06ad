//! The quiet-value estimator and the summaries printed beside it.
//!
//! Rule 3 of the benchmark: an end-to-end value is the *quiet value* of its
//! lap series — the 5th-percentile lap for a time, the 95th for a rate —
//! i.e. how fast the program runs when the host leaves it alone. On the
//! shared VM the probes ran on, the lap median moved 8–9 % between
//! identical runs while the 5th percentile moved 1–1.6 %.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Whether `candidate` is worse than `base` by more than `bound`, a
    /// share of `base`.
    pub fn worse_by_more_than(self, base: f64, candidate: f64, bound: f64) -> bool {
        match self {
            Better::Lower => candidate > base * (1.0 + bound),
            Better::Higher => candidate < base * (1.0 - bound),
        }
    }
}

/// Quantile `p` in `[0, 1]` of an ascending series, linearly interpolated
/// between order statistics (the common "type 7" definition). `NaN` for an
/// empty series.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `p` of an unsorted series.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    quantile_sorted(&sorted(values), p)
}

/// Median of an unsorted series.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The quiet value of a lap series: its 5th percentile when lower is
/// better, its 95th when higher is.
pub fn quiet_value(values: &[f64], better: Better) -> f64 {
    let p = match better {
        Better::Lower => 0.05,
        Better::Higher => 0.95,
    };
    quantile(values, p)
}

/// What is printed for every series: how many samples, the quiet value,
/// the median, and the highest tail percentile the sample supports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub quiet: f64,
    pub p50: f64,
    /// `(percentile, value)` of the highest percentile, on the side where
    /// the metric gets worse, that still has at least ten samples beyond
    /// it; `None` below 100 samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(values: &[f64], better: Better) -> Summary {
        let s = sorted(values);
        let n = s.len();
        // per mille, so that "ten of a hundred lie beyond p90" is exact
        let tail = [999usize, 990, 950, 900]
            .into_iter()
            .find(|per_mille| n * (1000 - per_mille) >= 10 * 1000)
            .map(|per_mille| {
                let p = match better {
                    Better::Lower => per_mille as f64 / 1000.0,
                    Better::Higher => (1000 - per_mille) as f64 / 1000.0,
                };
                (per_mille as f64 / 10.0, quantile_sorted(&s, p))
            });
        Summary {
            count: n,
            quiet: quiet_value(values, better),
            p50: quantile_sorted(&s, 0.5),
            tail,
        }
    }

    /// How disturbed the series was: median over quiet value for a time,
    /// quiet value over median for a rate; 1.0 is an undisturbed run.
    pub fn disturbance(&self, better: Better) -> f64 {
        match better {
            Better::Lower => self.p50 / self.quiet,
            Better::Higher => self.quiet / self.p50,
        }
    }
}

/// The spread the driver computes over a set of runs: the distance between
/// the first and third quartile as a share of the median. Quartiles follow
/// Python's `statistics.quantiles(values, n=4)` (exclusive method).
pub fn iqr_share(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let exclusive = |k: f64| -> f64 {
        // position k * (n + 1) / 4 in one-based order statistics, clamped
        let pos = k * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (exclusive(3.0) - exclusive(1.0)) / quantile_sorted(&s, 0.5)
}
