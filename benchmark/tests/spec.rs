//! `BENCHMARK.json` is the binary's `spec`, inside the limits of the
//! benchmark contract; results and sets survive a JSON round trip.

use std::collections::BTreeSet;
use std::path::Path;

use mgk_benchmark::cli::comparison_table;
use mgk_benchmark::json::{self, Json};
use mgk_benchmark::report::{Metric, RunReport};
use mgk_benchmark::spec::{self, Workload, END_TO_END, PER_LAYER, RUN_SECONDS};
use mgk_benchmark::stats::Better;

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

#[test]
fn benchmark_json_is_the_binarys_spec() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk =
        std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    assert_eq!(
        on_disk,
        spec::benchmark_json().to_pretty(),
        "regenerate with `mgk-benchmark spec > BENCHMARK.json`"
    );
    assert_eq!(json::parse(&on_disk).expect("BENCHMARK.json parses"), spec::benchmark_json());
}

#[test]
fn the_spec_is_inside_the_contracts_limits() {
    let file = spec::benchmark_json();
    let keys: Vec<&str> = file.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    assert!(file.to_pretty().len() <= 64 * 1024);
    assert!((1..=60).contains(&RUN_SECONDS));
    // 4 + 22 runs per workload, all inside 3420 s with room for two builds
    assert!((4 + 22 * Workload::ALL.len() as u64) * (RUN_SECONDS + 1) + 2 * 120 <= 3420);

    let command = file.get("command").unwrap().as_arr().unwrap();
    assert!(command.len() <= 32);
    for word in command {
        let word = word.as_str().unwrap();
        assert!(word.len() <= 200 && !word.starts_with('/') && !word.contains(".."));
    }
    assert_eq!(file.get("paths").unwrap().as_arr().unwrap(), [Json::str("benchmark")]);

    assert!((2..=8).contains(&Workload::ALL.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let mut names = BTreeSet::new();
    for w in Workload::ALL {
        assert!(is_name(w.name()), "{}", w.name());
        assert!(names.insert(w.name()), "{} is used twice", w.name());
        assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{}: {}", w.name(), w.why().len());
        assert_eq!(Workload::from_name(w.name()), Some(w));
    }
    for m in &END_TO_END {
        assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
        assert!(names.insert(m.name), "{} is used twice", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25);
    }
    for m in &PER_LAYER {
        assert!(is_name(m.name) && is_unit(m.unit), "{} [{}]", m.name, m.unit);
        assert!(names.insert(m.name), "{} is used twice", m.name);
    }
    // set-up time is there, in seconds, lower is better, with the widest bound
    let setup = spec::end_to_end(spec::SETUP_S).unwrap();
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
}

fn report(metrics: &[(&'static str, f64, &'static str)]) -> RunReport {
    RunReport {
        workload: Workload::GramDense,
        seed: 9,
        trace: false,
        correct: true,
        attempted: 1234,
        failed: 0,
        metrics: metrics.iter().map(|&(name, value, unit)| Metric { name, value, unit }).collect(),
        problems: Vec::new(),
        table: String::new(),
    }
}

#[test]
fn a_result_round_trips_with_every_digit() {
    let values =
        [("setup_s", 0.000_473_218_901_234_5, "s"), ("pairs_per_s", 24.317_746_190_8, "pairs/s")];
    let line = report(&values).result_json().to_compact();
    assert!(!line.contains('\n'));
    let parsed = json::parse(&line).expect("the result line is JSON");
    let keys: Vec<&str> = parsed.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(parsed.get("attempted").and_then(Json::as_f64), Some(1234.0));
    for (name, value, unit) in values {
        let metric = parsed.get("metrics").unwrap().get(name).unwrap();
        assert_eq!(metric.get("value").and_then(Json::as_f64), Some(value), "{name}");
        assert_eq!(metric.get("unit").and_then(Json::as_str), Some(unit));
    }
    // a value that is not a number still leaves a valid line
    let broken = report(&[("setup_s", f64::NAN, "s")]).result_json().to_compact();
    assert!(json::parse(&broken).is_ok());
    // the record adds which run it was, in front
    let record = report(&values).record_json();
    assert_eq!(record.get("workload").and_then(Json::as_str), Some("gram-dense"));
    assert_eq!(record.get("seed").and_then(Json::as_f64), Some(9.0));
}

#[test]
fn the_parser_reads_what_the_writer_writes_and_rejects_the_rest() {
    let value = Json::obj([
        ("text", Json::str("quote \" backslash \\ newline \n tab \t unicode é")),
        (
            "numbers",
            Json::Arr(vec![Json::Num(-0.5), Json::Num(1e-9), Json::Num(3.0), Json::Num(1.5e300)]),
        ),
        ("nested", Json::obj([("empty_list", Json::Arr(vec![])), ("empty", Json::Obj(vec![]))])),
        ("flags", Json::Arr(vec![Json::Bool(true), Json::Bool(false), Json::Null])),
    ]);
    assert_eq!(json::parse(&value.to_compact()).unwrap(), value);
    assert_eq!(json::parse(&value.to_pretty()).unwrap(), value);
    for bad in ["", "{", "[1,]", "{\"a\":}", "\"open", "1 2", "nul", "{\"a\" 1}"] {
        assert!(json::parse(bad).is_err(), "{bad:?} must not parse");
    }
    let deep = "[".repeat(100) + &"]".repeat(100);
    assert!(json::parse(&deep).is_err(), "nesting is bounded");
}

fn set(rows: &[(&str, &str, f64)]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|&(workload, metric, value)| {
                let metric = Json::obj([(metric, Json::obj([("value", Json::Num(value))]))]);
                Json::obj([("workload", Json::str(workload)), ("metrics", metric)])
            })
            .collect(),
    )
}

#[test]
fn compare_never_calls_a_difference_inside_the_bound_or_the_spread_improved() {
    let bound = spec::end_to_end(spec::PAIRS_PER_S).unwrap().bound;
    let verdict = |a: &[f64], b: &[f64]| -> (String, usize, usize) {
        let rows = |v: &[f64]| -> Vec<(&str, &str, f64)> {
            v.iter().map(|&x| ("gram-sparse", "pairs_per_s", x)).collect()
        };
        comparison_table(&set(&rows(a)), &set(&rows(b)))
    };
    // inside the bound: unresolved, whichever way it points
    let (table, regressed, improved) = verdict(&[100.0], &[100.0 * (1.0 + 0.9 * bound)]);
    assert!(table.contains("unresolved"), "{table}");
    assert_eq!((regressed, improved), (0, 0));
    let (_, regressed, improved) = verdict(&[100.0], &[100.0 * (1.0 - 0.9 * bound)]);
    assert_eq!((regressed, improved), (0, 0));
    // outside the bound, no spread known: resolved, in the metric's direction
    let (table, regressed, improved) = verdict(&[100.0], &[100.0 * (1.0 + 2.0 * bound)]);
    assert!(table.contains("improved"), "{table}");
    assert_eq!((regressed, improved), (0, 1));
    let (table, regressed, improved) = verdict(&[100.0], &[100.0 * (1.0 - 2.0 * bound)]);
    assert!(table.contains("REGRESSED"), "{table}");
    assert_eq!((regressed, improved), (1, 0));
    // outside the bound but inside a set's own spread: unresolved
    let wide = 100.0 * (1.0 + 2.0 * bound);
    let (table, regressed, improved) = verdict(&[80.0, 100.0, 125.0], &[wide, wide, wide]);
    assert!(table.contains("unresolved"), "{table}");
    assert_eq!((regressed, improved), (0, 0));
    // lower-is-better metrics regress upwards
    let up = comparison_table(
        &set(&[("serve-cold", "cold_pair_ms", 1.0)]),
        &set(&[("serve-cold", "cold_pair_ms", 1.5)]),
    );
    assert_eq!((up.1, up.2), (1, 0));
    // a workload or metric missing from either set has no row
    assert_eq!(verdict(&[], &[1.0]).0.lines().count(), 1);
}
