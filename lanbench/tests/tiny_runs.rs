//! Runs every workload at its tiny size through the real command line and
//! checks the result line: exactly the metrics `BENCHMARK.json` declares,
//! each with its declared unit, all checks passed.

use lan_obs::json::{parse, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Arr(items)) => items,
        _ => panic!("BENCHMARK.json lacks the {key} list"),
    }
}

fn string<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        _ => panic!("entry lacks {key}"),
    }
}

/// Fresh scratch directory per test (tests run in parallel).
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("lanbench-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_tiny(workload: &str, trace: u8) -> Value {
    let dir = scratch(&format!("{workload}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_lanbench"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .output()
        .expect("run lanbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    if trace == 1 {
        let spans = dir.join(format!(".lanbench_out/spans-{workload}-seed7.jsonl"));
        let text = std::fs::read_to_string(&spans).expect("span file written");
        assert!(text.lines().count() > 1, "spans recorded");
    }
    let _ = std::fs::remove_dir_all(&dir);
    let last = stdout.lines().last().expect("a result line");
    parse(last).expect("result line is JSON")
}

fn assert_metrics(result: &Value, declared: &[Value], workload: &str) {
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{workload}"
    );
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    let Some(Value::Obj(metrics)) = result.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    assert_eq!(metrics.len(), declared.len(), "{workload}: metric count");
    for spec in declared {
        let name = string(spec, "name");
        let m = result
            .get("metrics")
            .and_then(|ms| ms.get(name))
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
        assert_eq!(
            string(m, "unit"),
            string(spec, "unit"),
            "{workload}: {name} unit"
        );
        let v = m
            .get("value")
            .and_then(Value::as_f64)
            .expect("numeric value");
        assert!(v.is_finite(), "{workload}: {name} = {v}");
    }
}

#[test]
fn manifest_matches_the_catalogue() {
    let m = manifest();
    for (key, specs) in [
        ("end_to_end", lanbench::metrics::END_TO_END),
        ("per_layer", lanbench::metrics::PER_LAYER),
    ] {
        let declared = entries(&m, key);
        assert_eq!(declared.len(), specs.len(), "{key} count");
        for (d, s) in declared.iter().zip(specs) {
            assert_eq!(string(d, "name"), s.name);
            assert_eq!(string(d, "unit"), s.unit);
            assert_eq!(string(d, "better"), s.better.as_str());
        }
    }
    let names: Vec<&str> = entries(&m, "workloads")
        .iter()
        .map(|w| string(w, "name"))
        .collect();
    assert_eq!(names, lanbench::workload::NAMES);
    for n in names {
        assert!(lanbench::metrics::valid_name(n), "{n}");
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let m = manifest();
    for w in lanbench::workload::NAMES {
        assert_metrics(&run_tiny(w, 0), entries(&m, "end_to_end"), w);
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    let m = manifest();
    for w in lanbench::workload::NAMES {
        assert_metrics(&run_tiny(w, 1), entries(&m, "per_layer"), w);
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "syn1k-batch",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "syn1k-batch",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_lanbench"))
            .args(&args)
            .output()
            .expect("run lanbench");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
