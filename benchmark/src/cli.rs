//! The command line: one run (what the driver calls), `--smoke`, `spec`,
//! `selfcheck` and `compare`.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use crate::bench::execute;
use crate::json::{self, Json};
use crate::pin;
use crate::run::{out_dir, RunContext};
use crate::spec::{self, Workload, END_TO_END, RUN_SECONDS};
use crate::stats::median;
use crate::trace::Tracer;

const USAGE: &str = "usage:
  mgk-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one run; the last line of standard output is the result
  mgk-benchmark --smoke [--seed <n>]
      every workload for a few seconds each, untraced then traced, all checks on
  mgk-benchmark spec
      the contents of BENCHMARK.json
  mgk-benchmark selfcheck [--sets <n>] [--runs <n>] [--seed <n>] [--seconds <s>]
      run every workload in n back-to-back sets on this build; fail if a
      set's median of any end-to-end metric differs from the first set's by
      more than its bound. Sets are saved as benchmark/out/set-<i>.json
  mgk-benchmark compare <a.json> <b.json>
      one row per workload and end-to-end metric of two saved sets
workloads: gram-sparse gram-dense gram-small-mol serve-cold serve-hot-restart";

/// `--key value` pairs and bare words of a command line.
struct Args {
    words: Vec<String>,
    options: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], flags: &[&str]) -> Result<Args, String> {
        let mut args = Args { words: Vec::new(), options: Vec::new(), flags: Vec::new() };
        let mut raw = raw.iter();
        while let Some(arg) = raw.next() {
            if flags.contains(&arg.as_str()) {
                args.flags.push(arg.clone());
            } else if let Some(key) = arg.strip_prefix("--") {
                let value = raw.next().ok_or_else(|| format!("--{key} needs a value"))?;
                args.options.push((key.to_string(), value.clone()));
            } else {
                args.words.push(arg.clone());
            }
        }
        Ok(args)
    }

    fn option(&self, key: &str) -> Option<&str> {
        self.options.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.option(key)
            .map(|v| v.parse::<T>().map_err(|_| format!("--{key}: '{v}' is not a valid number")))
            .transpose()
    }

    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.options.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            Some((key, _)) => Err(format!("unknown option --{key}")),
            None => Ok(()),
        }
    }
}

/// Run the command line; returns the process's exit code. `started` is when
/// the process began.
pub fn main(started: Instant) -> i32 {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match raw.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::benchmark_json().to_pretty());
            Ok(true)
        }
        Some("selfcheck") => selfcheck(&raw[1..]),
        Some("compare") => compare(&raw[1..]),
        Some("help" | "--help" | "-h") | None => {
            println!("{USAGE}");
            Ok(!raw.is_empty())
        }
        Some(_) => run(&raw, started),
    };
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(message) => {
            eprintln!("mgk-benchmark: {message}\n{USAGE}");
            2
        }
    }
}

fn context(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    started: Instant,
    pinned_cpu: Option<usize>,
) -> RunContext {
    RunContext {
        workload,
        seed,
        seconds,
        trace,
        smoke,
        started,
        pinned_cpu,
        tracer: Tracer::new(trace),
    }
}

fn run(raw: &[String], started: Instant) -> Result<bool, String> {
    let args = Args::parse(raw, &["--smoke"])?;
    args.only(&["workload", "seed", "seconds", "trace"])?;
    if let Some(word) = args.words.first() {
        return Err(format!("unknown command '{word}'"));
    }
    // rule 1: before the first thread, store or pool exists
    let pinned_cpu = pin::pin_to_one_cpu();
    if pinned_cpu.is_none() {
        eprintln!("mgk-benchmark: warning: could not pin to one CPU; results will not repeat");
    }
    let seed = args.number::<u64>("seed")?.unwrap_or(1);
    if !args.flags.is_empty() {
        return Ok(smoke(seed, pinned_cpu));
    }
    let name = args.option("workload").ok_or("--workload is required")?;
    let workload = Workload::from_name(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seconds = args.number::<f64>("seconds")?.unwrap_or(RUN_SECONDS as f64);
    if !(1.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    let trace = match args.option("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    let report = execute(&context(workload, seed, seconds, trace, false, started, pinned_cpu));
    print!("{}", report.table);
    println!("{}", report.result_json().to_compact());
    Ok(report.correct)
}

/// Seconds a smoke run gives each workload and mode.
const SMOKE_SECONDS: f64 = 1.2;

/// All five workloads for about a second each, untraced and then traced:
/// pinned, oracle-checked, every metric reported, nothing gated on the
/// number of laps. One result line per run.
fn smoke(seed: u64, pinned_cpu: Option<usize>) -> bool {
    let mut all_correct = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            let ctx =
                context(workload, seed, SMOKE_SECONDS, trace, true, Instant::now(), pinned_cpu);
            let report = execute(&ctx);
            for problem in &report.problems {
                eprintln!("{} trace={}: {problem}", workload.name(), u8::from(trace));
            }
            all_correct &= report.correct;
            println!("{}", report.record_json().to_compact());
        }
    }
    all_correct
}

/// One run in a child process — a fresh address space per run, as the
/// driver does it — returning the record parsed from its last line.
fn child_run(workload: Workload, seed: u64, seconds: f64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("finding this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("starting a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let mut record = json::parse(last).map_err(|e| {
        format!(
            "{} printed no result ({e}): {}",
            workload.name(),
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    if let Json::Obj(fields) = &mut record {
        fields.insert(0, ("workload".to_string(), Json::str(workload.name())));
        fields.insert(1, ("seed".to_string(), Json::Num(seed as f64)));
    }
    if !output.status.success() || record.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{} seed {seed} was not correct:\n{stdout}", workload.name()));
    }
    Ok(record)
}

/// Values of one end-to-end metric on one workload in a saved set.
fn values_of(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    set.as_arr()
        .unwrap_or(&[])
        .iter()
        .filter(|record| record.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|record| record.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn spread_of(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    if values.len() < 2 {
        0.0
    } else {
        max - min
    }
}

/// How set `b` compares with set `a`, one row per workload and metric.
/// Anything inside the bound, or inside either set's own spread, is
/// `unresolved` — never `improved`.
pub fn comparison_table(a: &Json, b: &Json) -> (String, usize, usize) {
    let mut table = format!(
        "{:<18} {:<13} {:>14} {:>14} {:>9} {:>7} {:>9}  verdict\n",
        "workload", "metric", "a (median)", "b (median)", "change", "bound", "spread"
    );
    let (mut regressed, mut improved) = (0, 0);
    for workload in Workload::ALL {
        for metric in &END_TO_END {
            let (va, vb) = (
                values_of(a, workload.name(), metric.name),
                values_of(b, workload.name(), metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let spread = spread_of(&va).max(spread_of(&vb));
            let verdict = if (mb - ma).abs() <= spread || (mb - ma).abs() <= metric.bound * ma {
                "unresolved"
            } else if metric.better.worse_by_more_than(ma, mb, metric.bound) {
                regressed += 1;
                "REGRESSED"
            } else {
                improved += 1;
                "improved"
            };
            table.push_str(&format!(
                "{:<18} {:<13} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}% {:>8.2}%  {verdict}\n",
                workload.name(),
                metric.name,
                ma,
                mb,
                100.0 * (mb - ma) / ma,
                100.0 * metric.bound,
                100.0 * spread / ma,
            ));
        }
    }
    (table, regressed, improved)
}

fn selfcheck(raw: &[String]) -> Result<bool, String> {
    let args = Args::parse(raw, &[])?;
    args.only(&["sets", "runs", "seed", "seconds"])?;
    let sets = args.number::<usize>("sets")?.unwrap_or(2).max(2);
    let runs = args.number::<u64>("runs")?.unwrap_or(1).max(1);
    let seed = args.number::<u64>("seed")?.unwrap_or(1);
    let seconds = args.number::<f64>("seconds")?.unwrap_or(RUN_SECONDS as f64);
    std::fs::create_dir_all(out_dir())
        .map_err(|e| format!("creating {}: {e}", out_dir().display()))?;

    let mut saved = Vec::new();
    for set in 1..=sets {
        let mut records = Vec::new();
        for workload in Workload::ALL {
            // the same seeds in every set: the sets differ by nothing but time
            for run in 0..runs {
                eprintln!("set {set}/{sets}: {} seed {}", workload.name(), seed + run);
                records.push(child_run(workload, seed + run, seconds)?);
            }
        }
        let set_json = Json::Arr(records);
        let path = out_dir().join(format!("set-{set}.json"));
        std::fs::write(&path, set_json.to_pretty())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        saved.push(set_json);
    }
    let mut passed = true;
    for (index, later) in saved.iter().enumerate().skip(1) {
        // the same build ran both sets: a resolved difference either way
        // means the benchmark does not repeat
        let (table, regressed, improved) = comparison_table(&saved[0], later);
        println!("set 1 against set {}:\n{table}", index + 1);
        passed &= regressed + improved == 0;
    }
    println!("selfcheck {}", if passed { "passed" } else { "FAILED" });
    Ok(passed)
}

fn load_set(path: &str) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(Path::new(path)).map_err(|e| format!("reading {path}: {e}"))?;
    let set = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match set {
        Json::Arr(_) => Ok(set),
        _ => Err(format!("{path}: expected an array of run records, as selfcheck saves")),
    }
}

fn compare(raw: &[String]) -> Result<bool, String> {
    let [a, b] = raw else { return Err("compare takes two files".to_string()) };
    let (table, regressed, _) = comparison_table(&load_set(a)?, &load_set(b)?);
    print!("{table}");
    Ok(regressed == 0)
}
