//! End-to-end checks of the benchmark itself on `--smoke` inputs: the
//! printed record parses back with every declared metric exactly once,
//! every workload verifies, and the deterministic counts repeat exactly
//! across two runs.

use std::process::Command;

use georep_benchmark::json::{self, Value};
use georep_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use georep_benchmark::probes;
use georep_benchmark::run::{run, Args, Outcome};
use georep_benchmark::world::Scale;

fn smoke(workload: &str, trace: bool) -> Outcome {
    run(&Args {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.0,
        trace,
        smoke: true,
        out: None,
    })
    .expect("known workload")
}

/// Parses a result line back and checks it against the declared metrics.
fn check_line(line: &str, declared: &[(&str, &str)]) -> Vec<f64> {
    let doc = json::parse(line).expect("the result line is JSON");
    let keys: Vec<&str> = doc
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        doc.get("correct").and_then(Value::as_bool),
        Some(true),
        "{line}"
    );
    assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(doc.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    let metrics = doc.get("metrics").and_then(Value::as_object).unwrap();
    // Same names, same order, so each is present exactly once.
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = declared.iter().map(|d| d.0).collect();
    assert_eq!(names, expected);
    metrics
        .iter()
        .zip(declared)
        .map(|((name, m), (_, unit))| {
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit), "{name}");
            let value = m.get("value").and_then(Value::as_f64);
            value.unwrap_or_else(|| panic!("{name} has no numeric value"))
        })
        .collect()
}

#[test]
fn untraced_runs_print_every_end_to_end_metric_once() {
    let declared: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    for w in &WORKLOADS {
        let outcome = smoke(w.name, false);
        assert!(outcome.correct, "{}:\n{}", w.name, outcome.text);
        let values = check_line(&outcome.json_line(), &declared);
        // End-to-end metrics are never 0.
        assert!(values.iter().all(|&v| v > 0.0), "{}: {values:?}", w.name);
        // The human-readable report names every metric with its unit too.
        for (name, unit) in &declared {
            let row = outcome.text.lines().find(|l| l.starts_with(name));
            assert!(row.is_some_and(|l| l.ends_with(unit)), "{name} row");
        }
    }
}

#[test]
fn traced_runs_print_every_layer_metric_once_and_counts_repeat() {
    let declared: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    for w in &WORKLOADS {
        // The two runs share a trace file, so they run one after the other.
        let first = smoke(w.name, true);
        let second = smoke(w.name, true);
        assert!(first.correct, "{}:\n{}", w.name, first.text);
        let a = check_line(&first.json_line(), &declared);
        let b = check_line(&second.json_line(), &declared);
        for ((decl, a), b) in PER_LAYER.iter().zip(&a).zip(&b) {
            if decl.exact {
                assert_eq!(a, b, "{} on {} must repeat exactly", decl.name, w.name);
            }
        }
        // A layer the workload enters has its times measured; one it never
        // enters reads zero; the layers its `why` names hold the work.
        let value = |name: &str| a[PER_LAYER.iter().position(|m| m.name == name).unwrap()];
        let measured = |names: &[&str]| names.iter().all(|n| value(n) > 0.0);
        let absent = |names: &[&str]| names.iter().all(|n| value(n) == 0.0);
        let serve = [
            "serve.producer.submit_ns",
            "serve.service.poll_busy_share",
            "serve.service.flush_ms_p50",
            "serve.metrics.render_us",
        ];
        let fleet = [
            "core.fleet.ingest_ns_per_access",
            "core.fleet.rebalance_us_per_owner",
            "core.fleet.rebalance_share",
            "core.fleet.route_ns",
            "core.fleet.speedup_vs_1t",
            "coord.embed_ms",
            "workload.generate_per_s",
        ];
        let decide = [
            "core.strategy.central_us",
            "core.strategy.decentralized.solve_ms_p50",
            "core.scenario.run_ms_p50",
            "net.sim.events_per_s",
            "net.topology.apsp_ms",
        ];
        let decided = value("core.scenario.share") + value("core.strategy.decentralized.share");
        match w.name {
            "decide_mesh" => {
                assert!(measured(&decide) && absent(&serve) && absent(&fleet));
                assert!(decided > 0.9, "decision plane holds {decided}");
            }
            "fleet_wide" => {
                assert!(measured(&fleet) && absent(&serve) && absent(&decide));
                let share = value("core.fleet.rebalance_share");
                assert!(share > 0.5, "rebalance holds {share}");
                assert!(value("core.fleet.committed") > 0.0 && value("core.fleet.deferred") > 0.0);
            }
            _ => assert!(measured(&serve) && measured(&fleet) && absent(&decide)),
        }
        // The trace file holds one parseable span per line.
        let path = georep_benchmark::run::trace_path(w.name);
        let text = std::fs::read_to_string(&path).expect("trace file written");
        assert!(text.lines().count() > 10);
        for line in text.lines() {
            let span = json::parse(line).expect("span line is JSON");
            assert!(span.get("name").and_then(Value::as_str).is_some());
            assert!(span.get("end_ns").unwrap().as_f64() >= span.get("start_ns").unwrap().as_f64());
        }
    }
}

#[test]
fn the_binary_refuses_bad_input_without_printing_a_result() {
    let exe = env!("CARGO_BIN_EXE_georep-benchmark");
    for args in [
        &["run", "--workload", "no_such_workload", "--smoke"][..],
        &["run", "--smoke"],
        &["run", "--workload", "serve_hot", "--trace", "2"],
        &["run", "--workload", "serve_hot", "--seconds", "-1"],
        &["probes", "--seed"],
        &["compare", "only_one_file"],
        &["frobnicate"],
    ] {
        let out = Command::new(exe).args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn the_binary_prints_the_result_as_its_last_line() {
    let exe = env!("CARGO_BIN_EXE_georep-benchmark");
    let dir = std::env::temp_dir().join(format!("georep-benchmark-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let records = dir.join("records.jsonl");
    let out = Command::new(exe)
        .args([
            "run",
            "--workload",
            "decide_mesh",
            "--seed",
            "0x2a",
            "--seconds",
            "0",
        ])
        .args(["--trace", "0", "--smoke", "--out"])
        .arg(&records)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let declared: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    check_line(stdout.lines().last().unwrap(), &declared);

    // The appended record feeds `compare`; a run against itself is `ok`.
    let cmp = Command::new(exe)
        .arg("compare")
        .args([&records, &records])
        .output()
        .expect("binary runs");
    assert!(cmp.status.success());
    let table = String::from_utf8(cmp.stdout).unwrap();
    assert_eq!(table.matches(" ok ").count(), END_TO_END.len(), "{table}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_probe_measures_something() {
    let out = probes::run(7, Scale::Smoke);
    assert!(out.len() >= 12, "{out:?}");
    for (name, value, unit) in out {
        assert!(value.is_finite() && value > 0.0, "{name} = {value} {unit}");
    }
}
