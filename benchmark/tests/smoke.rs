//! The binary itself: `--smoke` drives all five workloads, untraced and
//! traced, pinned and oracle-checked; bad command lines are refused.

use std::process::Command;
use std::time::Instant;

use mgk_benchmark::json::{self, Json};
use mgk_benchmark::spec::{Workload, END_TO_END, PER_LAYER};

fn binary() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mgk-benchmark"))
}

#[test]
fn smoke_runs_every_workload_and_reports_every_metric() {
    if cfg!(debug_assertions) {
        // thirty times slower without optimisation; measure optimised builds
        eprintln!("skipped: run the tests with --release");
        return;
    }
    let started = Instant::now();
    let output = binary().args(["--smoke", "--seed", "3"]).output().expect("the binary starts");
    let elapsed = started.elapsed();
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "smoke failed:\n{stdout}\n{stderr}");
    // the target is 15 s on an idle machine; tests run beside other tests
    assert!(elapsed.as_secs() < 90, "smoke took {elapsed:?}");
    eprintln!("smoke took {elapsed:?}");

    let records: Vec<Json> =
        stdout.lines().map(|line| json::parse(line).expect("every line is a record")).collect();
    assert_eq!(records.len(), 2 * Workload::ALL.len());
    for (index, record) in records.iter().enumerate() {
        let workload = Workload::ALL[index / 2];
        let traced = index % 2 == 1;
        assert_eq!(record.get("workload").and_then(Json::as_str), Some(workload.name()));
        assert_eq!(record.get("trace").and_then(Json::as_bool), Some(traced));
        assert_eq!(record.get("correct").and_then(Json::as_bool), Some(true), "{record:?}");
        assert_eq!(record.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(record.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let metrics = record.get("metrics").unwrap().as_obj().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        if traced {
            let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names, expected, "{}", workload.name());
            let metric = |name: &str| {
                record
                    .get("metrics")
                    .unwrap()
                    .get(name)
                    .unwrap()
                    .get("value")
                    .unwrap()
                    .as_f64()
                    .unwrap()
            };
            assert!(metric("host.pinned_cpu") >= 0.0, "smoke runs pinned");
            assert_eq!(metric("oracle.failed_share"), 0.0);
            assert_eq!(metric("oracle.nondeterministic_laps"), 0.0);
            assert_eq!(metric("cg.nonconverged"), 0.0);
            assert!(metric("trace.spans") > 0.0);
            assert!(metric("solver.ledger_closure") > 0.5, "the ledger replays the front door");
        } else {
            let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, expected, "{}", workload.name());
        }
        for (name, metric) in metrics {
            let value = metric.get("value").and_then(Json::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{}: {name}", workload.name());
            if !traced {
                assert!(value.unwrap() > 0.0, "{}: {name} must never be 0", workload.name());
            }
        }
    }
    // traced runs leave their spans behind
    for workload in Workload::ALL {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.json", workload.name()));
        let trace = std::fs::read_to_string(&path).expect("a traced run writes its trace");
        let trace = json::parse(&trace).expect("the trace is JSON");
        assert!(!trace.get("spans").unwrap().as_arr().unwrap().is_empty());
    }
}

#[test]
fn bad_command_lines_are_refused_without_a_result() {
    for args in [
        &["--workload", "gram-nonsense", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "gram-sparse", "--seed", "x"],
        &["--workload", "gram-sparse", "--seconds", "0"],
        &["--workload", "gram-sparse", "--trace", "2"],
        &["--workload", "gram-sparse", "--frobnicate", "1"],
        &["--seed", "1"],
        &["compare", "only-one-file.json"],
        &["frobnicate"],
    ] {
        let output = binary().args(args).output().expect("the binary starts");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(!String::from_utf8_lossy(&output.stdout).contains("\"metrics\""), "{args:?}");
    }
}

#[test]
fn spec_subcommand_prints_the_benchmark_file() {
    let output = binary().arg("spec").output().expect("the binary starts");
    assert!(output.status.success());
    let printed = String::from_utf8_lossy(&output.stdout);
    assert_eq!(printed, mgk_benchmark::spec::benchmark_json().to_pretty());
}
