//! Smoke test: runs the `ledger` binary with `--smoke` (every workload
//! shrunk to one short pass) and checks the output's shape against
//! `BENCHMARK.json`, the exactness guarantees, and the failure paths.

use std::path::PathBuf;
use std::process::{Command, Output};

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Value;

const LEDGER: &str = env!("CARGO_BIN_EXE_ledger");
const BENCHMARK: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");

/// Differences of two timings; noise can push them below zero.
const SIGNED: [&str; 4] = [
    "trace_overhead_pct",
    "obs.always_on_overhead_pct",
    "transport.receiver.glue_ns_per_chunk",
    "transport.mux.demux_ns_per_chunk",
];

fn ledger(args: &[&str]) -> Output {
    Command::new(LEDGER)
        .args(args)
        .output()
        .expect("ledger binary runs")
}

fn scratch(name: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("ledger-smoke");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir.join(name).to_string_lossy().into_owned()
}

fn load(path: &str) -> Value {
    json::parse(&std::fs::read_to_string(path).expect("report written")).expect("report parses")
}

fn names(benchmark: &Value, section: &str) -> Vec<String> {
    benchmark
        .get(section)
        .and_then(Value::as_arr)
        .expect("section present")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("named")
                .to_owned()
        })
        .collect()
}

fn workloads(report: &Value) -> &[Value] {
    report
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads present")
}

fn workload<'v>(report: &'v Value, name: &str) -> &'v Value {
    workloads(report)
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        .expect("workload present")
}

fn smoke_run(seed: &str, out: &str) -> (Output, Value) {
    let output = ledger(&["run", "--smoke", "--seed", seed, "--out", out]);
    assert!(
        output.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    (output, load(out))
}

#[test]
fn every_benchmark_metric_is_printed_for_every_workload() {
    let benchmark = load(BENCHMARK);
    let workload_names = names(&benchmark, "workloads");
    assert_eq!(workload_names.len(), 4);
    let mut metric_names = names(&benchmark, "end_to_end");
    metric_names.extend(names(&benchmark, "per_layer"));
    for name in &metric_names {
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name {name:?} leaves [A-Za-z0-9_.-]"
        );
    }

    let out = scratch("shape.json");
    let (output, report) = smoke_run("7", &out);
    let text = String::from_utf8(output.stdout).expect("utf-8 table");
    assert!(text.contains("in-process simulator"), "link note missing");

    // The text table: a section per workload, a row per metric.
    let sections: Vec<&str> = text.split("\n--- ").skip(1).collect();
    assert_eq!(sections.len(), workload_names.len());
    for (section, wname) in sections.iter().zip(&workload_names) {
        assert!(section.starts_with(wname.as_str()), "section order");
        for metric in &metric_names {
            assert!(
                section
                    .lines()
                    .any(|l| l.split_whitespace().next() == Some(metric)),
                "{wname}: {metric} not printed"
            );
        }
    }

    // The JSON report: same names, sane values, nothing undelivered.
    for wname in &workload_names {
        let w = workload(&report, wname);
        for (section, names) in [
            ("end_to_end", names(&benchmark, "end_to_end")),
            ("per_layer", names(&benchmark, "per_layer")),
        ] {
            for metric in names {
                let value = w
                    .get(section)
                    .and_then(|s| s.get(&metric))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                    .unwrap_or_else(|| panic!("{wname}: {metric} missing or not a number"));
                assert!(value.is_finite(), "{wname}: {metric} = {value}");
                if !SIGNED.contains(&metric.as_str()) {
                    assert!(value >= 0.0, "{wname}: {metric} = {value}");
                }
            }
        }
        let undelivered = w.get("undelivered_share").and_then(Value::as_f64);
        assert_eq!(undelivered, Some(0.0), "{wname}: undelivered_share");
    }
    let provenance = report.get("provenance").expect("provenance block");
    for key in [
        "seed",
        "nproc",
        "workers",
        "gf_backend",
        "rustc",
        "git_describe",
        "dirty",
        "link",
    ] {
        assert!(provenance.get(key).is_some(), "provenance lacks {key}");
    }
}

#[test]
fn a_seed_fixes_every_exact_metric_and_another_seed_changes_the_lossy_trace() {
    let (_, first) = smoke_run("11", &scratch("seed11-a.json"));
    let (_, again) = smoke_run("11", &scratch("seed11-b.json"));
    let (_, other) = smoke_run("12", &scratch("seed12.json"));
    let exact = |report: &Value, name: &str| {
        let w = workload(report, name);
        (
            w.get("exact").expect("exact block").clone(),
            w.get("end_to_end")
                .and_then(|e| e.get("wire_efficiency"))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .expect("wire_efficiency"),
        )
    };
    for w in workloads(&first) {
        let name = w.get("name").and_then(Value::as_str).expect("named");
        assert_eq!(exact(&first, name), exact(&again, name), "{name}");
    }
    assert_ne!(
        exact(&first, "many-flows-lossy").0,
        exact(&other, "many-flows-lossy").0,
        "a different seed must lose different frames"
    );
}

#[test]
fn a_corrupted_expected_buffer_fails_the_run() {
    let output = ledger(&[
        "run",
        "--smoke",
        "--workload",
        "bulk-clean",
        "--corrupt-expected",
    ]);
    assert!(!output.status.success(), "corrupted expectation must fail");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("error[app-data-mismatch]"),
        "stderr: {stderr}"
    );
}

#[test]
fn bench_prints_the_contract_result_line() {
    let benchmark = load(BENCHMARK);
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let output = ledger(&[
            "bench",
            "--workload",
            "small-frag",
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--smoke",
        ]);
        assert!(output.status.success());
        let stdout = String::from_utf8(output.stdout).expect("utf-8");
        let result = json::parse(stdout.lines().last().expect("a last line")).expect("json");
        let Value::Obj(pairs) = &result else {
            panic!("result is not an object");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
        assert!(
            result
                .get("attempted")
                .and_then(Value::as_f64)
                .expect("attempted")
                >= 1.0
        );
        assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
        let Some(Value::Obj(metrics)) = result.get("metrics") else {
            panic!("metrics is not an object");
        };
        let mut printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let mut wanted = names(&benchmark, section);
        printed.sort_unstable();
        wanted.sort_unstable();
        assert_eq!(printed, wanted, "--trace {trace}");
    }
    let unknown = ledger(&["bench", "--workload", "no-such-workload"]);
    assert_eq!(unknown.status.code(), Some(2), "usage errors exit 2");
}

#[test]
fn compare_prints_a_row_per_metric_and_workload() {
    let a = scratch("cmp-a.json");
    let b = scratch("cmp-b.json");
    smoke_run("5", &a);
    smoke_run("5", &b);
    let output = ledger(&["compare", &a, &b, "--benchmark", BENCHMARK]);
    // Smoke timings are noise, so either verdict is fine; the shape is not.
    assert!(matches!(output.status.code(), Some(0 | 1)));
    let table = String::from_utf8(output.stdout).expect("utf-8");
    let verdicts = table
        .lines()
        .filter(|l| {
            ["unchanged", "improved", "regressed", "unresolved"]
                .iter()
                .any(|v| l.ends_with(v))
        })
        .count();
    // 4 workloads x (5 end-to-end metrics + failed share).
    assert_eq!(verdicts, 24, "{table}");
    for exact in ["wire_efficiency", "failed_share"] {
        assert!(
            table
                .lines()
                .filter(|l| l.contains(exact))
                .all(|l| l.ends_with("unchanged")),
            "same seed, same {exact}"
        );
    }
}
