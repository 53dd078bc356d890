//! Integration test of the `sfq-t1` command-line tool: generate → map →
//! verify → export, through real files.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sfq-t1"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sfq_t1_cli_{}_{name}", std::process::id()));
    p
}

#[test]
fn gen_map_verify_roundtrip() {
    let aag = tmp("adder.aag");
    let out = bin()
        .args(["gen", "adder", "8", "-o", aag.to_str().unwrap()])
        .output()
        .expect("run gen");
    assert!(
        out.status.success(),
        "gen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin()
        .args(["verify", aag.to_str().unwrap(), "--waves", "4"])
        .output()
        .expect("run verify");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "verify failed: {stdout}");
    assert!(stdout.contains("verified: 4 waves"), "{stdout}");
    assert!(stdout.contains("0 hazards"), "{stdout}");
    let _ = std::fs::remove_file(&aag);
}

#[test]
fn binary_aiger_and_verilog_export() {
    let aig = tmp("mult.aig");
    let v = tmp("mult.v");
    let models = tmp("models.v");
    let out = bin()
        .args(["gen", "c6288", "-o", aig.to_str().unwrap()])
        .output()
        .expect("run gen");
    assert!(out.status.success());

    let out = bin()
        .args([
            "map",
            aig.to_str().unwrap(),
            "--verilog",
            v.to_str().unwrap(),
            "--models",
            models.to_str().unwrap(),
        ])
        .output()
        .expect("run map");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let verilog = std::fs::read_to_string(&v).expect("verilog written");
    assert!(verilog.contains("module sfq_top"));
    assert!(verilog.contains("sfq_t1 "));
    let m = std::fs::read_to_string(&models).expect("models written");
    assert!(m.contains("module sfq_t1"));
    for f in [&aig, &v, &models] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn baseline_flow_flag() {
    let aag = tmp("voter.aag");
    assert!(bin()
        .args(["gen", "voter", "15", "-o", aag.to_str().unwrap()])
        .status()
        .expect("gen")
        .success());
    let out = bin()
        .args(["map", aag.to_str().unwrap(), "--no-t1", "--phases", "2"])
        .output()
        .expect("map");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(stdout.contains("0 T1 cells"), "{stdout}");
    let _ = std::fs::remove_file(&aag);
}

#[test]
fn suite_subcommand_matches_serial_run() {
    // Parallel and serial runs must produce byte-identical CSVs (the
    // engine orders results by submission, not completion).
    let csv1 = tmp("suite1.csv");
    let csv2 = tmp("suite2.csv");
    for (jobs, csv) in [("1", &csv1), ("4", &csv2)] {
        let out = bin()
            .args([
                "suite",
                "--small",
                "--jobs",
                jobs,
                "--csv",
                csv.to_str().unwrap(),
            ])
            .output()
            .expect("run suite");
        assert!(
            out.status.success(),
            "suite --jobs {jobs} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("Average"), "{stdout}");
    }
    let a = std::fs::read(&csv1).expect("serial CSV written");
    let b = std::fs::read(&csv2).expect("parallel CSV written");
    assert_eq!(a, b, "serial and parallel CSVs are byte-identical");
    assert!(a.starts_with(b"benchmark,"));
    for f in [&csv1, &csv2] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn suite_flag_errors() {
    // A bare --csv must be a hard error, not a silently dropped CSV.
    let out = bin()
        .args(["suite", "--small", "--csv"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--csv requires a file path"));
    // Garbage --jobs is rejected.
    let out = bin()
        .args(["suite", "--small", "--jobs", "zero"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--jobs"));
}

#[test]
fn errors_are_reported() {
    // Unknown command.
    let out = bin().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    // Missing file.
    let out = bin()
        .args(["map", "/nonexistent.aag"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    // T1 with too few phases.
    let aag = tmp("tiny.aag");
    assert!(bin()
        .args(["gen", "adder", "2", "-o", aag.to_str().unwrap()])
        .status()
        .expect("gen")
        .success());
    let out = bin()
        .args(["map", aag.to_str().unwrap(), "--phases", "2"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("at least 3 phases"));
    // Zero phases is an error (exit 1), not a panic in the phase assigner.
    let file = aag.to_str().unwrap();
    for args in [
        ["map", file, "--phases", "0", "--no-t1"].as_slice(),
        &["verify", file, "--phases", "0", "--no-t1"],
        &["sta", file, "--mapped", "--phases", "0", "--no-t1"],
    ] {
        let out = bin().args(args).output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("bad --phases '0'"), "{args:?}: {stderr}");
    }
    // Zero verification waves would simulate nothing and still report a pass.
    let out = bin()
        .args(["verify", file, "--waves", "0"])
        .output()
        .expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("bad --waves '0'"), "{stderr}");
    let _ = std::fs::remove_file(&aag);
}

#[test]
fn unknown_benchmark_hard_errors_with_known_names() {
    // Satellite: a typo'd benchmark name must fail loudly and teach the
    // full list of known names — in `gen`…
    let out = bin().args(["gen", "adderr"]).output().expect("run gen");
    assert!(!out.status.success(), "unknown benchmark must be an error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown benchmark 'adderr'"), "{stderr}");
    for name in [
        "adder",
        "multiplier",
        "square",
        "sin",
        "log2",
        "voter",
        "c6288",
        "c7552",
    ] {
        assert!(stderr.contains(name), "error must list '{name}': {stderr}");
    }
    // …and in `opt`, where a non-benchmark string is also not a file.
    let out = bin().args(["opt", "bogus9"]).output().expect("run opt");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("known benchmark") && stderr.contains("voter"),
        "{stderr}"
    );
}

#[test]
fn opt_subcommand_fixpoint_verify() {
    let out = bin()
        .args(["opt", "adder", "8", "--fixpoint", "--verify"])
        .output()
        .expect("run opt");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "opt failed: {stdout} {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("verified equivalent"), "{stdout}");
    assert!(stdout.contains("rewrite"), "per-pass stats table: {stdout}");
    // The total line reports a strict node reduction on the adder: parse
    // the before/after counts out of "total: <b> -> <a> nodes (...)".
    let total = stdout
        .lines()
        .find(|l| l.starts_with("total:"))
        .expect("total line");
    let counts: Vec<usize> = total
        .split_whitespace()
        .take_while(|w| !w.starts_with("nodes"))
        .filter_map(|w| w.parse().ok())
        .collect();
    assert_eq!(counts.len(), 2, "before/after counts: {total}");
    assert!(counts[1] < counts[0], "adder must shrink: {total}");
}

#[test]
fn opt_subcommand_on_files_and_pass_selection() {
    let aag = tmp("opt_in.aag");
    let optimized = tmp("opt_out.aag");
    assert!(bin()
        .args(["gen", "adder", "6", "-o", aag.to_str().unwrap()])
        .status()
        .expect("gen")
        .success());
    let out = bin()
        .args([
            "opt",
            aag.to_str().unwrap(),
            "--passes",
            "strash,sweep",
            "--verify",
            "-o",
            optimized.to_str().unwrap(),
        ])
        .output()
        .expect("run opt");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let reread = std::fs::read_to_string(&optimized).expect("optimized AIGER written");
    assert!(reread.starts_with("aag"), "{reread}");
    // Unknown pass names are hard errors listing every known pass,
    // including the slack-aware variants.
    let out = bin()
        .args(["opt", "adder", "4", "--passes", "frobnicate"])
        .output()
        .expect("run opt");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown pass 'frobnicate'"), "{stderr}");
    for name in [
        "strash",
        "sweep",
        "rewrite",
        "rewrite-slack",
        "balance",
        "balance-slack",
    ] {
        assert!(stderr.contains(name), "error must list '{name}': {stderr}");
    }
    for f in [&aag, &optimized] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn opt_slack_aware_flag_runs_verified() {
    let out = bin()
        .args([
            "opt",
            "adder",
            "8",
            "--fixpoint",
            "--slack-aware",
            "--verify",
        ])
        .output()
        .expect("run opt");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "opt --slack-aware failed: {stdout} {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("rewrite-slack"), "{stdout}");
    assert!(stdout.contains("verified equivalent"), "{stdout}");
}

#[test]
fn sta_subcommand_reports_unit_delay_timing() {
    let csv = tmp("sta.csv");
    let out = bin()
        .args([
            "sta",
            "adder",
            "8",
            "--top-paths",
            "2",
            "--csv",
            csv.to_str().unwrap(),
        ])
        .output()
        .expect("run sta");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "sta failed: {stdout} {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("worst slack 0"), "{stdout}");
    assert!(stdout.contains("slack histogram:"), "{stdout}");
    assert!(
        stdout.contains("path #1") && stdout.contains("path #2"),
        "{stdout}"
    );
    let table = std::fs::read_to_string(&csv).expect("CSV written");
    assert!(
        table.starts_with("node,arrival,required,slack\n"),
        "{table}"
    );
    assert!(table.lines().count() > 10, "{table}");
    let _ = std::fs::remove_file(&csv);
}

#[test]
fn sta_subcommand_mapped_mode() {
    let out = bin()
        .args(["sta", "adder", "8", "--mapped", "--phases", "4"])
        .output()
        .expect("run sta --mapped");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout} {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("mapped timing (n = 4 phases)"), "{stdout}");
    assert!(stdout.contains("schedule slack: worst 0"), "{stdout}");
    assert!(stdout.contains("per-edge"), "{stdout}");
    // Unknown subjects fail loudly, as everywhere else.
    let out = bin().args(["sta", "nonesuch"]).output().expect("run sta");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("known benchmark"));
}

#[test]
fn suite_cache_dir_warm_start_computes_nothing() {
    // A second run over a populated store must hit 100% on disk (zero
    // flow computations) and still emit a byte-identical CSV.
    let dir = tmp("suite_store");
    let _ = std::fs::remove_dir_all(&dir);
    let cold_csv = tmp("cold.csv");
    let warm_csv = tmp("warm.csv");
    let mut stdouts = Vec::new();
    for csv in [&cold_csv, &warm_csv] {
        let out = bin()
            .args([
                "suite",
                "--small",
                "--cache-dir",
                dir.to_str().unwrap(),
                "--csv",
                csv.to_str().unwrap(),
            ])
            .output()
            .expect("run suite");
        assert!(
            out.status.success(),
            "suite --cache-dir failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        stdouts.push(String::from_utf8_lossy(&out.stdout).into_owned());
    }
    assert!(stdouts[0].contains("store: "), "{}", stdouts[0]);
    let warm = stdouts[1]
        .lines()
        .find(|l| l.starts_with("store: "))
        .expect("warm store summary");
    assert!(warm.contains(" 0 flow runs"), "warm run computed: {warm}");
    assert!(
        !warm.contains("0 disk hits"),
        "warm run must hit disk: {warm}"
    );
    let a = std::fs::read(&cold_csv).expect("cold CSV written");
    let b = std::fs::read(&warm_csv).expect("warm CSV written");
    assert_eq!(a, b, "cold and warm CSVs are byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
    for f in [&cold_csv, &warm_csv] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn serve_streams_one_result_line_per_job() {
    use std::io::Write;
    let mut child = bin()
        .args(["serve", "--jobs", "2"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(
            b"# warm-up batch\n\
              adder:4 1phi\n\
              adder:4 t1 4\n\
              ---\n\
              square:4 nphi 4\n\
              bogus t1\n",
        )
        .expect("write requests");
    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let done: Vec<&str> = stdout.lines().filter(|l| l.starts_with("done ")).collect();
    assert_eq!(done.len(), 3, "one result line per job: {stdout}");
    // Indices are assigned in submission order, across batches.
    assert!(done.iter().any(|l| l.starts_with("done 0 adder:4/1phi ")));
    assert!(done.iter().any(|l| l.starts_with("done 1 adder:4/t1 ")));
    assert!(done.iter().any(|l| l.starts_with("done 2 square:4/nphi ")));
    for l in &done {
        assert!(l.contains(" source=computed "), "fresh store: {l}");
        assert!(l.contains(" micros="), "wall-clock per job: {l}");
        assert!(l.contains(" dffs=") && l.contains(" area="), "{l}");
    }
    // The malformed request gets an err line with its index, not a crash.
    assert!(
        stdout.lines().any(|l| l.starts_with("err 3 ")),
        "bad request reported: {stdout}"
    );
}

#[test]
fn serve_with_cache_dir_reports_sources() {
    use std::io::Write;
    let dir = tmp("serve_store");
    let _ = std::fs::remove_dir_all(&dir);
    let run = |requests: &[u8]| -> String {
        let mut child = bin()
            .args(["serve", "--cache-dir", dir.to_str().unwrap()])
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn serve");
        child
            .stdin
            .take()
            .expect("stdin piped")
            .write_all(requests)
            .expect("write requests");
        let out = child.wait_with_output().expect("serve exits");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    // Same job twice in one batch: computed once, memory hit once.
    let first = run(b"adder:4 t1 4\nadder:4 t1 4\n");
    assert_eq!(first.matches("source=computed").count(), 1, "{first}");
    assert_eq!(first.matches("source=memory").count(), 1, "{first}");
    // A later process over the same directory serves from disk.
    let second = run(b"adder:4 t1 4\n");
    assert!(second.contains("source=disk"), "{second}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn suite_trace_is_a_pure_observer_and_valid_chrome_json() {
    // Tracing must never perturb results: the CSV from a traced run is
    // byte-identical to an untraced one. And the trace file itself must be
    // well-formed Chrome-trace JSON with spans from every layer.
    let traced_csv = tmp("traced.csv");
    let plain_csv = tmp("plain.csv");
    let trace = tmp("trace.json");
    let out = bin()
        .args([
            "suite",
            "--small",
            "--trace",
            trace.to_str().unwrap(),
            "--csv",
            traced_csv.to_str().unwrap(),
        ])
        .output()
        .expect("run traced suite");
    assert!(
        out.status.success(),
        "traced suite failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bin()
        .args(["suite", "--small", "--csv", plain_csv.to_str().unwrap()])
        .output()
        .expect("run untraced suite");
    assert!(out.status.success());
    let a = std::fs::read(&traced_csv).expect("traced CSV written");
    let b = std::fs::read(&plain_csv).expect("plain CSV written");
    assert_eq!(a, b, "tracing changed the results");

    let text = std::fs::read_to_string(&trace).expect("trace written");
    let doc = sfq_t1::obs::json::parse(&text).expect("trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    // One span from each instrumented layer: core flow stages, the STA
    // subsystem, and the engine's per-job accounting.
    for required in [
        "flow:run",
        "flow:map",
        "flow:phase-assign",
        "flow:dff-insert",
        "sta:build",
        "engine:job",
        "engine:queue-wait",
    ] {
        assert!(
            names.contains(&required),
            "trace must contain span '{required}': {names:?}"
        );
    }
    for f in [&traced_csv, &plain_csv, &trace] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn bench_report_emit_and_check_roundtrip() {
    // `bench-report` writes a schema-versioned perf report, and its
    // `--check` mode accepts exactly what it emits.
    let json = tmp("bench_report.json");
    let out = bin()
        .args(["bench-report", "--small", "-o", json.to_str().unwrap()])
        .output()
        .expect("run bench-report");
    assert!(
        out.status.success(),
        "bench-report failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&json).expect("report written");
    let doc = sfq_t1::obs::json::parse(&text).expect("report is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("sfq-t1/bench-report")
    );
    assert_eq!(doc.get("schema_version").and_then(|v| v.as_u64()), Some(2));
    // v2 reports carry the memory block and latency histograms.
    assert!(doc.get("memory").is_some(), "memory block: {text}");
    assert!(doc.get("histograms").is_some(), "histograms: {text}");
    assert!(text.contains("\"alloc_bytes\""), "{text}");
    assert!(text.contains("\"peak_bytes\""), "{text}");

    let out = bin()
        .args(["bench-report", "--check", json.to_str().unwrap()])
        .output()
        .expect("run bench-report --check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "--check rejected own output: {stdout} {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("valid bench report"), "{stdout}");
    // A non-report file is rejected loudly.
    let bogus = tmp("bogus.json");
    std::fs::write(&bogus, "{\"schema\":\"nope\"}").unwrap();
    let out = bin()
        .args(["bench-report", "--check", bogus.to_str().unwrap()])
        .output()
        .expect("run bench-report --check bogus");
    assert!(!out.status.success(), "bogus report must fail --check");
    for f in [&json, &bogus] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn bench_report_diff_self_clean_and_injected_slowdown_fails() {
    // The regression sentinel end-to-end: a report diffed against itself
    // exits zero; doubling one job's wall time makes the diff exit
    // nonzero and name exactly that job.
    let base = tmp("diff_base.json");
    let out = bin()
        .args(["bench-report", "--small", "-o", base.to_str().unwrap()])
        .output()
        .expect("run bench-report");
    assert!(
        out.status.success(),
        "bench-report failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin()
        .args([
            "bench-report",
            "diff",
            base.to_str().unwrap(),
            base.to_str().unwrap(),
        ])
        .output()
        .expect("run self-diff");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "self-diff must exit zero: {stdout}");
    assert!(stdout.contains("OK: no regressions"), "{stdout}");

    // Inject a 10x slowdown into exactly one job (adder/T1). Entries are
    // emitted one per line, so the edit can be scoped to that line.
    let text = std::fs::read_to_string(&base).expect("report written");
    let slowed: String = text
        .lines()
        .map(|l| {
            if l.contains("\"benchmark\": \"adder\"") && l.contains("\"flow\": \"T1\"") {
                let start = l.find("\"micros\": ").expect("micros field") + "\"micros\": ".len();
                let end = start + l[start..].find(',').expect("comma after micros");
                let micros: u64 = l[start..end].trim().parse().expect("micros value");
                format!("{}{}{}", &l[..start], micros * 10, &l[end..])
            } else {
                l.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    let cur = tmp("diff_slow.json");
    std::fs::write(&cur, slowed).expect("write slowed report");

    let out = bin()
        .args([
            "bench-report",
            "diff",
            base.to_str().unwrap(),
            cur.to_str().unwrap(),
            "--json",
        ])
        .output()
        .expect("run slowdown diff");
    assert!(!out.status.success(), "regression must exit nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("adder/T1"), "names the job: {stderr}");
    let doc = sfq_t1::obs::json::parse(&stdout).expect("verdict is valid JSON");
    assert_eq!(doc.get("ok").and_then(|v| v.as_bool()), Some(false));
    assert_eq!(doc.get("regressed").and_then(|v| v.as_u64()), Some(1));
    // A generous allowance lets the same pair pass.
    let out = bin()
        .args([
            "bench-report",
            "diff",
            base.to_str().unwrap(),
            cur.to_str().unwrap(),
            "--max-regress-pct",
            "10000",
        ])
        .output()
        .expect("run lenient diff");
    assert!(
        out.status.success(),
        "lenient diff must pass: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for f in [&base, &cur] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn serve_stats_line_snapshots_counters_and_done_lines_carry_alloc() {
    use std::io::Write;
    let mut child = bin()
        .args(["serve"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(b"adder:4 1phi\n---\nstats\nadder:4 1phi\n---\nstats\n")
        .expect("write requests");
    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stats: Vec<&str> = stdout.lines().filter(|l| l.starts_with("stats ")).collect();
    assert_eq!(stats.len(), 2, "one snapshot per stats line: {stdout}");
    for l in &stats {
        for field in [
            "memory_hits=",
            "disk_hits=",
            "misses=",
            "live_bytes=",
            "peak_bytes=",
            "p50_compute_us=",
            "p99_compute_us=",
        ] {
            assert!(l.contains(field), "stats line carries {field}: {l}");
        }
    }
    // The second snapshot has seen both jobs (same job resubmitted, so
    // one miss plus one memory hit).
    assert!(stats[0].contains("misses=1"), "{}", stats[0]);
    assert!(stats[1].contains("memory_hits=1"), "{}", stats[1]);
    // Result lines now report per-job allocation.
    for l in stdout.lines().filter(|l| l.starts_with("done ")) {
        assert!(l.contains(" alloc_bytes="), "{l}");
        assert!(l.contains(" peak_bytes="), "{l}");
    }
}

#[test]
fn opt_and_sta_emit_trace_and_bench_json() {
    // The single-tool subcommands share the suite's observability flags:
    // `--trace` writes Chrome JSON, `--bench-json` a valid v2 report.
    let trace = tmp("opt_trace.json");
    let opt_json = tmp("opt_bench.json");
    let sta_json = tmp("sta_bench.json");
    let out = bin()
        .args([
            "opt",
            "adder",
            "8",
            "--trace",
            trace.to_str().unwrap(),
            "--bench-json",
            opt_json.to_str().unwrap(),
        ])
        .output()
        .expect("run opt");
    assert!(
        out.status.success(),
        "opt failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let doc = sfq_t1::obs::json::parse(&text).expect("trace is valid JSON");
    assert!(doc.get("traceEvents").and_then(|v| v.as_arr()).is_some());

    let out = bin()
        .args([
            "sta",
            "adder",
            "8",
            "--bench-json",
            sta_json.to_str().unwrap(),
        ])
        .output()
        .expect("run sta");
    assert!(
        out.status.success(),
        "sta failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for report in [&opt_json, &sta_json] {
        let out = bin()
            .args(["bench-report", "--check", report.to_str().unwrap()])
            .output()
            .expect("run --check");
        assert!(
            out.status.success(),
            "{} must validate: {}",
            report.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(report).expect("report written");
        let doc = sfq_t1::obs::json::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("schema_version").and_then(|v| v.as_u64()),
            Some(2),
            "{text}"
        );
    }
    for f in [&trace, &opt_json, &sta_json] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn map_accepts_pre_opt_flag() {
    let aag = tmp("preopt.aag");
    assert!(bin()
        .args(["gen", "adder", "8", "-o", aag.to_str().unwrap()])
        .status()
        .expect("gen")
        .success());
    let out = bin()
        .args(["map", aag.to_str().unwrap(), "--pre-opt"])
        .output()
        .expect("map");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(&aag);
}

#[test]
fn explore_cold_warm_cache_dir_roundtrip() {
    // The exploration autopilot end-to-end: a cold run writes a validated
    // EXPLORE report; a warm rerun over the same store performs zero flow
    // computations and reproduces the report modulo provenance fields.
    let spec = tmp("explore.sweep");
    std::fs::write(
        &spec,
        "# tiny grid for the CLI test\n\
         sweep clitest\n\
         benchmarks adder:4\n\
         flows 1phi t1\n\
         phases 3 4\n",
    )
    .expect("write spec");
    let dir = tmp("explore_store");
    let _ = std::fs::remove_dir_all(&dir);
    let cold_json = tmp("explore_cold.json");
    let warm_json = tmp("explore_warm.json");
    let mut stdouts = Vec::new();
    for out_file in [&cold_json, &warm_json] {
        let out = bin()
            .args([
                "explore",
                spec.to_str().unwrap(),
                "--cache-dir",
                dir.to_str().unwrap(),
                "-o",
                out_file.to_str().unwrap(),
            ])
            .output()
            .expect("run explore");
        assert!(
            out.status.success(),
            "explore failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        stdouts.push(String::from_utf8_lossy(&out.stdout).into_owned());
    }
    // Cold: header, frontier table, summary with dedup-aware totals
    // (1phi collapses across the phases axis: 4 points, 3 unique jobs).
    assert!(stdouts[0].contains("explore 'clitest'"), "{}", stdouts[0]);
    assert!(stdouts[0].contains("adder:4: frontier"), "{}", stdouts[0]);
    assert!(
        stdouts[0].contains("explore: 4 points, 3 unique jobs"),
        "{}",
        stdouts[0]
    );
    // Warm: everything from disk, zero flow computations.
    assert!(stdouts[1].contains(" 0 flow runs"), "{}", stdouts[1]);
    let cold = std::fs::read_to_string(&cold_json).expect("cold report written");
    let warm = std::fs::read_to_string(&warm_json).expect("warm report written");
    sfq_t1::explore::validate(&cold).expect("cold report validates");
    sfq_t1::explore::validate(&warm).expect("warm report validates");
    assert!(cold.contains("\"schema\": \"sfq-t1/explore\""), "{cold}");
    assert_eq!(
        sfq_t1::explore::report::strip_provenance(&cold),
        sfq_t1::explore::report::strip_provenance(&warm),
        "reports are byte-identical modulo source-tier fields"
    );
    let _ = std::fs::remove_dir_all(&dir);
    for f in [&spec, &cold_json, &warm_json] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn explore_spec_errors_name_the_line_and_legal_tokens() {
    // A bad axis value is a hard error naming the spec file, the line,
    // and the full legal vocabulary.
    let spec = tmp("explore_bad.sweep");
    std::fs::write(&spec, "benchmarks adder:4\nflows 1phi warp\n").expect("write spec");
    let out = bin()
        .args(["explore", spec.to_str().unwrap()])
        .output()
        .expect("run explore");
    assert!(!out.status.success(), "bad spec must be an error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "{stderr}");
    assert!(stderr.contains("unknown flow 'warp'"), "{stderr}");
    for token in ["1phi", "nphi", "t1"] {
        assert!(
            stderr.contains(token),
            "error must list '{token}': {stderr}"
        );
    }
    // An unknown key lists every legal key.
    std::fs::write(&spec, "benchmarks adder:4\nfrobnicate yes\n").expect("write spec");
    let out = bin()
        .args(["explore", spec.to_str().unwrap()])
        .output()
        .expect("run explore");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown key 'frobnicate'"), "{stderr}");
    for key in [
        "sweep",
        "benchmarks",
        "flows",
        "phases",
        "opt",
        "timing",
        "library",
        "objectives",
    ] {
        assert!(stderr.contains(key), "error must list '{key}': {stderr}");
    }
    let _ = std::fs::remove_file(&spec);
}

#[test]
fn store_gc_subcommand_evicts_and_reports() {
    // Populate a store, then shrink it with the gc verb.
    let dir = tmp("gc_store");
    let _ = std::fs::remove_dir_all(&dir);
    let out = bin()
        .args(["suite", "--small", "--cache-dir", dir.to_str().unwrap()])
        .output()
        .expect("run suite");
    assert!(
        out.status.success(),
        "suite failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = bin()
        .args(["store", "gc", dir.to_str().unwrap(), "--keep-newest", "2"])
        .output()
        .expect("run store gc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "store gc failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("store gc: evicted"), "{stdout}");
    assert!(stdout.contains("2 entries"), "keeps 2 newest: {stdout}");
    // Idempotent: a second pass has nothing left to evict.
    let out = bin()
        .args(["store", "gc", dir.to_str().unwrap(), "--keep-newest", "2"])
        .output()
        .expect("run store gc again");
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("evicted 0 entries"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    // Missing --keep-newest and unknown verbs are hard errors.
    let out = bin()
        .args(["store", "gc", dir.to_str().unwrap()])
        .output()
        .expect("run store gc bare");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--keep-newest"));
    let out = bin().args(["store", "prune"]).output().expect("run store");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown verb 'prune'"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_shares_the_explore_config_vocabulary() {
    use std::io::Write;
    // Serve requests accept the explore spec's config tokens uniformly,
    // and an unknown token's error teaches the full list — all six.
    let mut child = bin()
        .args(["serve"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(b"adder:4 t1 4 slack-opt no-timing\nadder:4 t1 4 warp\n")
        .expect("write requests");
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.lines().any(|l| l.starts_with("done 0 adder:4/t1 ")),
        "valid config tokens serve: {stdout}"
    );
    let err = stdout
        .lines()
        .find(|l| l.starts_with("err 1 "))
        .expect("bad token reported");
    assert!(err.contains("unknown option 'warp'"), "{err}");
    for token in [
        "none",
        "pre-opt",
        "slack-opt",
        "dff-opt",
        "timing",
        "no-timing",
    ] {
        assert!(err.contains(token), "error must list '{token}': {err}");
    }
}

#[test]
fn serve_rejects_zero_phases_and_keeps_serving() {
    use std::io::Write;
    // Zero phases and a width on a fixed-size benchmark are request
    // errors: each gets an err line, and the session serves on.
    let mut child = bin()
        .args(["serve", "--jobs", "1"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(b"adder:8 nphi 0\nadder:4 1phi\nc6288:3 1phi\n")
        .expect("write requests");
    let out = child.wait_with_output().expect("serve exits");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "serve must survive: {stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.iter().any(|l| l.starts_with("err 0 ")),
        "zero phases reported: {stdout}"
    );
    assert!(
        lines.iter().any(|l| l.starts_with("done 1 adder:4/1phi ")),
        "the next request is answered: {stdout}"
    );
    let err = lines
        .iter()
        .find(|l| l.starts_with("err 2 "))
        .expect("fixed-size width reported");
    assert!(
        err.contains("c6288 is fixed-size and takes no width"),
        "{err}"
    );
}

#[test]
fn serve_answers_a_non_utf8_line_and_keeps_serving() {
    use std::io::Write;
    let mut child = bin()
        .args(["serve", "--jobs", "1"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(b"adder:4 1phi\n\xff\nadder:4 nphi\n")
        .expect("write requests");
    let out = child.wait_with_output().expect("serve exits");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "serve must survive: {stdout}");
    let mut lines: Vec<&str> = stdout.lines().collect();
    lines.sort_unstable();
    assert_eq!(lines.len(), 3, "one answer per request: {stdout}");
    assert!(lines[0].starts_with("done 0 adder:4/1phi "), "{stdout}");
    assert!(lines[1].starts_with("done 2 adder:4/"), "{stdout}");
    assert!(
        lines[2].starts_with("err 1 request is not valid UTF-8"),
        "{stdout}"
    );
}

#[test]
fn gen_random_then_opt_matches_golden_hash() {
    let aag = tmp("scale.aag");
    let out = bin()
        .args([
            "gen",
            "random",
            "--nodes",
            "3000",
            "--seed",
            "9",
            "-o",
            aag.to_str().unwrap(),
        ])
        .output()
        .expect("run gen random");
    assert!(
        out.status.success(),
        "gen random failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Deterministic in (--nodes, --seed): a second generation is identical.
    let aag2 = tmp("scale2.aag");
    let out = bin()
        .args([
            "gen",
            "random",
            "--nodes",
            "3000",
            "--seed",
            "9",
            "-o",
            aag2.to_str().unwrap(),
        ])
        .output()
        .expect("rerun gen random");
    assert!(out.status.success());
    assert_eq!(
        std::fs::read(&aag).unwrap(),
        std::fs::read(&aag2).unwrap(),
        "gen random must be deterministic in its seed"
    );

    // The fixpoint-optimized network is pinned by its structural hash.
    let out = bin()
        .args(["opt", aag.to_str().unwrap(), "--fixpoint", "--stats"])
        .output()
        .expect("run opt");
    assert!(
        out.status.success(),
        "opt failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout
            .lines()
            .any(|l| l == "structural hash: 0xd71255c915231be9"),
        "golden structural hash missing:\n{stdout}"
    );

    // A missing --nodes is a hard error naming the requirement.
    let out = bin().args(["gen", "random"]).output().expect("run");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--nodes"),
        "error must name --nodes"
    );
    // --nodes is held to the scale-100k entry's largest width, before
    // anything is built.
    let out = bin()
        .args(["gen", "random", "--nodes", "100000000000", "-o"])
        .arg(&aag)
        .output()
        .expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("above its largest width 2097152"),
        "{stderr}"
    );
    let _ = std::fs::remove_file(&aag);
    let _ = std::fs::remove_file(&aag2);
}

/// Every command, with its positionals.
const COMMANDS: [&str; 12] = [
    "gen adder 4",
    "map x.aag",
    "verify x.aag",
    "opt adder 4",
    "sta adder 4",
    "suite",
    "serve",
    "explore x.sweep",
    "store gc dir",
    "bench-report",
    "bench-report diff a.json b.json",
    "ablation",
];

#[test]
fn every_command_parses_from_its_flag_table() {
    // Each malformed invocation runs in an empty directory, which must
    // stay empty: no flow runs and no file is written.
    let cwd = tmp("malformed");
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).unwrap();
    let run = |args: &str| {
        bin()
            .args(args.split_whitespace())
            .current_dir(&cwd)
            .stdin(std::process::Stdio::null())
            .output()
            .expect("run")
    };
    let reject = |args: &str, named: &str| {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args} must fail");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(named),
            "{args}: error must name '{named}': {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args} printed a result");
        let written: Vec<_> = std::fs::read_dir(&cwd).unwrap().collect();
        assert!(written.is_empty(), "{args} wrote {written:?}");
        stderr.into_owned()
    };

    for command in COMMANDS {
        // A typo'd flag is named, listing the command's flag table…
        let stderr = reject(&format!("{command} --smal"), "unknown flag '--smal'");
        let (_, flags) = stderr.split_once("(flags: ").expect("flag list");
        // …and `--help` prints that same table and runs nothing.
        let out = run(&format!("{command} --help"));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{command} --help failed");
        for flag in flags.trim_end().trim_end_matches(')').split(", ") {
            let listed = stdout.contains(&format!("  {flag} "));
            assert!(listed, "{command} --help must list {flag}: {stdout}");
        }
        assert!(!stdout.contains("Table I —"), "--help ran the suite");
    }
    assert!(std::fs::read_dir(&cwd).unwrap().next().is_none());

    for (args, named) in [
        ("opt adder --rebuild-passes", "--rebuild-passes"),
        ("bench-report --rebuild-passes", "--rebuild-passes"),
        ("serve --jbos 2", "--jbos"),
        ("verify x.aag --wave 2", "--wave"),
        ("bench-report diff a b --jsn", "--jsn"),
        ("map x.aag --waves 2", "--waves"),
        ("sta adder 4 --csv --mapped", "--csv"),
        ("gen adder 4 -o", "-o"),
        ("suite --jobs", "--jobs"),
        ("opt adder --passes strash --passes sweep", "--passes"),
        ("suite --small --small", "--small"),
        ("opt adder 4 extra", "'extra'"),
        ("store gc", "<DIR>"),
        ("bench-report diff a", "<CUR>"),
        // Flags that would have no effect are errors too.
        ("opt adder --rounds 2", "--rounds"),
        ("map x.aag --models m.v", "--models"),
        ("verify x.aag --models m.v", "--models"),
        ("sta adder 4 --phases 4", "--phases"),
        ("sta adder 4 --no-t1", "--no-t1"),
        ("gen adder 4 --nodes 100", "--nodes"),
        ("gen adder 4 --seed 7", "--seed"),
        ("gen random 4 --nodes 100", "width"),
        ("bench-report --check b.json --small", "--small"),
        ("bench-report --check b.json --pre-opt", "--pre-opt"),
        ("bench-report --check b.json --jobs 2", "--jobs"),
        ("bench-report --check b.json --cache-dir s", "--cache-dir"),
        ("bench-report --check b.json -o out.json", "-o"),
    ] {
        reject(args, named);
    }
    let _ = std::fs::remove_dir_all(&cwd);

    // Positionals may come before or after the flags.
    let aag = tmp("order.aag");
    let file = aag.to_str().unwrap();
    assert!(bin()
        .args(["gen", "adder", "4", "-o", file])
        .status()
        .expect("gen")
        .success());
    let flags_first = bin().args(["map", "--no-t1", file]).output().unwrap();
    let flags_last = bin().args(["map", file, "--no-t1"]).output().unwrap();
    assert!(flags_first.status.success() && flags_last.status.success());
    assert_eq!(flags_first.stdout, flags_last.stdout);
    let _ = std::fs::remove_file(&aag);
}
