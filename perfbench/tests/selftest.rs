//! Self-test of the benchmark at tiny sizes: every workload runs in both
//! modes, passes its correctness gate, and prints exactly the metrics that
//! `BENCHMARK.json` names, each with its unit.

use std::path::PathBuf;
use std::process::Command;

use reis_bench::artifacts::{parse, Json};

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    parse(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn string<'a>(doc: &'a Json, key: &str) -> &'a str {
    match doc.get(key) {
        Some(Json::Str(s)) => s,
        other => panic!("{key} is not a string: {other:?}"),
    }
}

fn number(doc: &Json, key: &str) -> f64 {
    match doc.get(key) {
        Some(Json::Num(n)) => *n,
        other => panic!("{key} is not a number: {other:?}"),
    }
}

/// Run one tiny workload; returns (run record, result object).
fn run(workload: &str, trace: u8, seed: u64) -> (Json, Json) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("selftest-{workload}-{trace}-{seed}"));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0.5",
            "--trace",
            &trace.to_string(),
            "--size",
            "tiny",
        ])
        .current_dir(&dir)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "expected a record and a result line, got {stdout:?}"
    );
    let record = parse(lines[lines.len() - 2]).expect("record line parses");
    let result = parse(lines[lines.len() - 1]).expect("result line parses");
    (record.get("record").expect("record object").clone(), result)
}

fn check_result(workload: &str, trace: u8, result: &Json, wanted: &[Json]) {
    let Json::Obj(fields) = result else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(number(result, "attempted") >= 1.0);
    assert_eq!(
        number(result, "failed"),
        0.0,
        "{workload}: an operation failed"
    );
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let named: Vec<&str> = wanted.iter().map(|m| string(m, "name")).collect();
    assert_eq!(printed, named, "{workload} --trace {trace}: metric names");
    for spec in wanted {
        let metric = result
            .get("metrics")
            .and_then(|m| m.get(string(spec, "name")))
            .expect("metric present");
        assert_eq!(
            string(metric, "unit"),
            string(spec, "unit"),
            "{workload}: unit of {spec:?}"
        );
        let value = number(metric, "value");
        assert!(value.is_finite(), "{workload}: {spec:?} = {value}");
        if trace == 0 {
            assert!(
                value > 0.0,
                "{workload}: end-to-end metric {spec:?} = {value}"
            );
        }
    }
}

fn workloads() -> Vec<String> {
    array(&benchmark(), "workloads")
        .iter()
        .map(|w| string(w, "name").to_string())
        .collect()
}

#[test]
fn every_workload_prints_every_named_metric_with_its_unit() {
    let bench = benchmark();
    for workload in workloads() {
        for (trace, key) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let (record, result) = run(&workload, trace, 3);
            check_result(&workload, trace, &result, array(&bench, key));
            assert!(
                number(&record, "checks") > 0.0,
                "{workload}: the correctness gate checked nothing"
            );
            assert!(number(&record, "available_cores") >= 1.0);
        }
    }
}

#[test]
fn cluster_answers_equal_single_device_answers() {
    let (ivf, _) = run("ivf-pipeline", 0, 5);
    let (cluster, _) = run("cluster-pipeline", 0, 5);
    assert_eq!(string(&ivf, "digest"), string(&cluster, "digest"));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
