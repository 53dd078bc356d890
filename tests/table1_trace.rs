//! The Table I run, observed end to end:
//! `sfq-t1 suite --small --trace t.json --bench-json BENCH_table1.json` must
//! emit a valid Chrome trace with spans from every instrumented layer plus a
//! schema-valid bench report, and `--pre-opt` must add the optimizer's
//! passes to the trace. That tracing leaves the table unchanged is checked
//! by `tests/cli.rs::suite_trace_is_a_pure_observer_and_valid_chrome_json`.

use std::path::PathBuf;
use std::process::Command;

fn suite() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sfq-t1"));
    cmd.arg("suite");
    cmd
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sfq_table1_trace_{}_{name}", std::process::id()));
    p
}

fn span_names(trace: &PathBuf) -> Vec<String> {
    let text = std::fs::read_to_string(trace).expect("trace written");
    let doc = sfq_t1::obs::json::parse(&text).expect("trace is valid JSON");
    doc.get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array")
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .map(str::to_owned)
        .collect()
}

#[test]
fn acceptance_command_emits_trace_and_bench_report() {
    let trace = tmp("t.json");
    let bench = tmp("BENCH_table1.json");
    let out = suite()
        .args([
            "--small",
            "--trace",
            trace.to_str().unwrap(),
            "--bench-json",
            bench.to_str().unwrap(),
        ])
        .output()
        .expect("run suite --trace --bench-json");
    assert!(
        out.status.success(),
        "suite failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The trace carries spans from core (flow stages), sta and engine.
    let names = span_names(&trace);
    for required in [
        "flow:run",
        "flow:detect",
        "flow:map",
        "flow:phase-assign",
        "flow:dff-insert",
        "flow:timing",
        "sta:build",
        "engine:job",
        "engine:compute",
        "engine:queue-wait",
    ] {
        assert!(
            names.iter().any(|n| n == required),
            "trace must contain span '{required}': {names:?}"
        );
    }

    // The bench report passes its own schema validator.
    let report = std::fs::read_to_string(&bench).expect("bench report written");
    sfq_t1::bench::validate_bench_report(&report).expect("BENCH_table1.json validates");

    for f in [&trace, &bench] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn pre_opt_run_traces_optimizer_passes() {
    let trace = tmp("preopt.json");
    let out = suite()
        .args(["--small", "--pre-opt", "--trace", trace.to_str().unwrap()])
        .output()
        .expect("run suite --pre-opt --trace");
    assert!(
        out.status.success(),
        "suite --pre-opt failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let names = span_names(&trace);
    for required in ["flow:pre-opt", "opt:strash", "opt:sweep", "opt:rewrite"] {
        assert!(
            names.iter().any(|n| n == required),
            "pre-opt trace must contain span '{required}': {names:?}"
        );
    }
    let _ = std::fs::remove_file(&trace);
}
