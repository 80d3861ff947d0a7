//! The benchmark at tiny lengths: every workload untraced and traced,
//! every metric of `BENCHMARK.json` printed with its unit, simulated
//! results repeating exactly per seed and changing with the seed.

use serde_json::Value;
use std::process::Command;

struct Run {
    result: Value,
    fingerprint: String,
    figures: String,
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rcsim-perfbench"));
    for (knob, _) in std::env::vars().filter(|(k, _)| k.starts_with("RC_")) {
        cmd.env_remove(knob);
    }
    let out = cmd
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.1", "--trace", if trace { "1" } else { "0" }])
        .arg("--tiny")
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = |prefix: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(prefix))
            .unwrap_or_else(|| panic!("{workload}: no `{prefix}` line in\n{stdout}"))
            .to_owned()
    };
    let result: Value =
        serde_json::from_str(stdout.lines().last().expect("output")).expect("last line is JSON");
    Run {
        fingerprint: line("sim_fingerprint "),
        figures: line("figures "),
        result,
    }
}

fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("name and unit");
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

fn assert_metrics(run: &Run, expected: &[(String, String)], what: &str) {
    let metrics = run
        .result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name} has no value"
            );
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_owned())
        })
        .collect();
    assert_eq!(
        printed, expected,
        "{what}: metrics differ from BENCHMARK.json"
    );
    assert_eq!(
        run.result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{what}"
    );
    assert_eq!(
        run.result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{what}"
    );
    assert!(
        run.result.get("attempted").and_then(Value::as_u64) >= Some(1),
        "{what}"
    );
}

fn metric(run: &Run, name: &str) -> f64 {
    run.result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .expect("metric value")
}

#[test]
fn every_workload_prints_its_metrics_and_repeats_per_seed() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in ["fs64-canneal", "fs16-blackscholes", "noc256-echo"] {
        let first = run(workload, 7, false);
        let again = run(workload, 7, false);
        let traced = run(workload, 7, true);
        let other = run(workload, 8, false);
        assert_metrics(&first, &end_to_end, workload);
        assert_metrics(&traced, &per_layer, workload);

        for run in [&again, &traced] {
            assert_eq!(run.fingerprint, first.fingerprint, "{workload}");
            assert_eq!(run.figures, first.figures, "{workload}");
        }
        for name in ["sim_net_latency_cycles", "sim_noc_energy_nj"] {
            assert_eq!(
                metric(&again, name),
                metric(&first, name),
                "{workload} {name}"
            );
        }
        assert_ne!(
            other.fingerprint, first.fingerprint,
            "{workload}: seed ignored"
        );
    }
}

#[test]
fn refuses_to_run_with_a_knob_set() {
    let out = Command::new(env!("CARGO_BIN_EXE_rcsim-perfbench"))
        .args(["--workload", "noc256-echo", "--seed", "1", "--seconds", "1"])
        .args(["--trace", "0", "--tiny"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .env("RC_KERNEL", "dense")
        .output()
        .expect("benchmark starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "printed a result");
}
