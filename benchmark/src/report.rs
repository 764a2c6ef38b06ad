//! Turn a run's lap log into named metrics, the result line the driver
//! reads, and the table a person reads.

use crate::json::Json;
use crate::run::{LapLog, RunContext};
use crate::spec::{
    self, Workload, END_TO_END, MIN_LAPS, MIN_SETUPS, PER_LAYER, REFERENCE_CALIB_MS,
};
use crate::stats::{Better, Summary};

/// One named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics of an untraced run, the per-layer metrics of a
    /// traced one, in the order of `BENCHMARK.json`.
    pub metrics: Vec<Metric>,
    /// Why `correct` is false, one line each.
    pub problems: Vec<String>,
    /// The human-readable table.
    pub table: String,
}

impl RunReport {
    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            // a value that is not a number is reported as a
                            // problem; the line stays valid JSON
                            let value = if m.value.is_finite() { m.value } else { 0.0 };
                            let fields = [("value", Json::Num(value)), ("unit", Json::str(m.unit))];
                            (m.name.to_string(), Json::obj(fields))
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The result line plus which run it was — what `selfcheck` saves and
    /// `compare` reads.
    pub fn record_json(&self) -> Json {
        let Json::Obj(mut fields) = self.result_json() else { unreachable!("result is an object") };
        fields.insert(0, ("workload".to_string(), Json::str(self.workload.name())));
        fields.insert(1, ("seed".to_string(), Json::Num(self.seed as f64)));
        fields.insert(2, ("trace".to_string(), Json::Bool(self.trace)));
        Json::Obj(fields)
    }
}

/// The three lap series of the log, by end-to-end metric name.
fn series<'a>(log: &'a LapLog, name: &str) -> Option<&'a [f64]> {
    match name {
        spec::SETUP_S => Some(&log.setup_s),
        spec::PAIRS_PER_S => Some(&log.pairs_per_s),
        spec::COLD_PAIR_MS => Some(&log.cold_pair_ms),
        _ => None,
    }
}

/// Six significant digits, whatever the magnitude.
fn show(value: f64) -> String {
    if value == 0.0 || (1e-3..1e9).contains(&value.abs()) {
        let digits = (5 - value.abs().max(1e-3).log10().floor() as i32).clamp(0, 8);
        format!("{value:.*}", digits as usize)
    } else {
        format!("{value:.5e}")
    }
}

fn summary_row(name: &str, unit: &str, reported: f64, s: &Summary) -> String {
    let tail = s.tail.map_or("-".to_string(), |(pct, v)| format!("p{pct}={}", show(v)));
    format!(
        "  {name:<14} {:>14} {unit:<8} as timed: quiet={:<12} p50={:<12} {tail} n={}\n",
        show(reported),
        show(s.quiet),
        show(s.p50),
        s.count
    )
}

/// Build the report of a finished run. `layers` holds the per-layer numbers
/// a traced run measured, by name; an untraced run passes none.
pub fn build(ctx: &RunContext, log: &LapLog, layers: &[(&'static str, f64)]) -> RunReport {
    let mut problems = Vec::new();
    let mut table = format!(
        "{} seed={} trace={} cpu={} seconds={}\n",
        ctx.workload.name(),
        ctx.seed,
        u8::from(ctx.trace),
        ctx.pinned_cpu.map_or(-1, |c| c as i64),
        ctx.seconds
    );

    // rule 4: times and rates are reported at the reference host speed
    let calib = Summary::of(&log.calib_ms, Better::Lower);
    let host_speed = if calib.quiet > 0.0 { REFERENCE_CALIB_MS / calib.quiet } else { 1.0 };
    let mut end_to_end = Vec::new();
    for m in &END_TO_END {
        let value = match series(log, m.name) {
            Some(values) => {
                let s = Summary::of(values, m.better);
                let reported = match m.better {
                    Better::Lower => s.quiet * host_speed,
                    Better::Higher => s.quiet / host_speed,
                };
                table.push_str(&summary_row(m.name, m.unit, reported, &s));
                let needed = if m.name == spec::SETUP_S { MIN_SETUPS } else { MIN_LAPS };
                if !ctx.smoke && s.count < needed {
                    problems.push(format!("{}: {} samples, {needed} needed", m.name, s.count));
                }
                reported
            }
            None => {
                table.push_str(&format!(
                    "  {:<14} {:>14} {}\n",
                    m.name,
                    show(log.peak_rss_mib),
                    m.unit
                ));
                log.peak_rss_mib
            }
        };
        end_to_end.push(Metric { name: m.name, value, unit: m.unit });
    }
    let laps = Summary::of(&log.pairs_per_s, Better::Higher);
    table.push_str(&format!(
        "  host: calib_ms={:.4} calib_p50_over_q05={:.4} speed={:.4} of reference ({REFERENCE_CALIB_MS} ms)\n",
        calib.quiet,
        calib.disturbance(Better::Lower),
        host_speed
    ));
    table.push_str(&format!(
        "  laps={} lap_p50_over_q05={:.4} attempted={} failed={} nondeterministic_laps={} oracle: checked={} failed={} max_rel_err={:.3e}\n",
        laps.count,
        laps.disturbance(Better::Higher),
        log.attempted,
        log.failed,
        log.nondeterministic_laps,
        log.oracle.checked,
        log.oracle.failed,
        log.oracle.max_rel_err,
    ));

    if log.failed > 0 {
        problems.push(format!("{} of {} kernel values failed", log.failed, log.attempted));
    }
    if log.nondeterministic_laps > 0 {
        problems.push(format!("{} laps differed from lap 1", log.nondeterministic_laps));
    }
    if log.oracle.checked == 0 {
        problems.push("the oracle checked nothing".to_string());
    }

    let metrics = if ctx.trace {
        table.push_str(&format!(
            "  {:<40} {:>14} {:<11} expected to move\n",
            "per-layer metric", "value", "unit"
        ));
        PER_LAYER
            .iter()
            .map(|m| {
                let value = layers.iter().find(|(name, _)| *name == m.name).map(|&(_, v)| v);
                let value = value.unwrap_or_else(|| {
                    problems.push(format!("{} was not measured", m.name));
                    f64::NAN
                });
                table.push_str(&format!(
                    "  {:<40} {:>14} {:<11} {}\n",
                    m.name,
                    show(value),
                    m.unit,
                    m.moves
                ));
                Metric { name: m.name, value, unit: m.unit }
            })
            .collect()
    } else {
        end_to_end
    };
    for m in &metrics {
        if !m.value.is_finite() {
            problems.push(format!("{} is not a finite number", m.name));
        }
    }
    for line in &problems {
        table.push_str(&format!("  PROBLEM: {line}\n"));
    }

    RunReport {
        workload: ctx.workload,
        seed: ctx.seed,
        trace: ctx.trace,
        correct: problems.is_empty(),
        attempted: log.attempted.max(1),
        failed: log.failed,
        metrics,
        problems,
        table,
    }
}
