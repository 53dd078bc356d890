//! `sfq-t1` — command-line front end for the T1-aware SFQ mapping flow.
//!
//! ```text
//! sfq-t1 gen <benchmark> [width] -o out.aag      generate a benchmark circuit
//! sfq-t1 map <in.aag|in.aig> [options]           run a mapping flow, print stats
//! sfq-t1 verify <in.aag|in.aig> [options]        map + wave-pipelined pulse-sim check
//! sfq-t1 opt <benchmark|in.aag> [width] [opts]   pre-mapping AIG optimization (sfq-opt)
//! sfq-t1 sta <benchmark|in.aag> [width] [opts]   static timing & slack analysis (sfq-sta)
//! sfq-t1 suite [options]                         Table-I suite through sfq-engine
//! sfq-t1 serve [options]                         batch flow service on stdin/stdout
//! sfq-t1 explore SPEC [options]                  design-space sweep + Pareto frontier
//! sfq-t1 store gc DIR --keep-newest N [opts]     evict old persistent-store entries
//! sfq-t1 bench-report [options]                  emit/validate BENCH_*.json perf reports
//! sfq-t1 bench-report diff BASE CUR [opts]       regression-diff two BENCH_*.json reports
//!
//! options:
//!   --phases N       number of clock phases (default 4)
//!   --no-t1          disable T1 detection (baseline flow)
//!   --exact          exact MILP phase assignment (small circuits)
//!   --pre-opt        map/verify/suite/sta: run the sfq-opt stage before mapping
//!   --verilog FILE   write structural Verilog (with --models FILE for cell models)
//!   --dot FILE       write a Graphviz visualization of the scheduled netlist
//!   --waves K        number of verification waves (verify; default 8)
//!   --small          suite: CI-scale benchmark widths
//!   --jobs N         suite/serve/explore: engine worker threads (default: available parallelism)
//!   --csv FILE       suite/explore: write the table as CSV
//!   --cache-dir DIR  suite/serve/explore: persistent result store (second runs hit it)
//!   --stats          suite: span rollups + store counters after the table
//!   --trace FILE     suite/opt/sta/explore: Chrome-trace JSON of the run (chrome://tracing)
//!   --bench-json F   suite/opt/sta/explore: schema-versioned BENCH_*.json perf report
//!
//! bench-report runs the Table-I suite and writes the perf-trajectory
//! report (default BENCH_table1.json; -o FILE overrides). It accepts the
//! suite options above plus `--check FILE` to only validate an existing
//! report against the current schema (the CI gate).
//!
//! bench-report diff compares two reports job-by-job (aligned on
//! benchmark×flow): deterministic quality metrics (gates, DFFs, area,
//! depth) regress on any increase; timing/allocation regress beyond
//! `--max-regress-pct N` (default 25). `--json` emits the machine
//! verdict instead of the table. Exits nonzero iff a job regressed.
//!
//! explore reads a sweep spec (axes: benchmarks, flows, phases, opt
//! pipelines, timing, cell-library variants; see `sfq_explore::spec`),
//! expands the cross product with fingerprint-deduplicated engine jobs,
//! runs it through the suite engine (honoring `--jobs`, `--cache-dir`,
//! `--trace`, `--bench-json`, `--csv`), prints the per-benchmark Pareto
//! frontier table and writes the schema-versioned `EXPLORE_*.json`
//! report (default `EXPLORE_<sweep>.json`; `-o FILE` overrides). With a
//! warm `--cache-dir` the rerun recomputes nothing (`0 flow runs`).
//!
//! store gc expires entries of a persistent `--cache-dir` result store:
//! keeps the `--keep-newest N` most recent entries, then keeps evicting
//! oldest-first while the store exceeds `--max-bytes B` (if given), and
//! always sweeps stale-format debris. Prints an eviction summary.
//!
//! serve reads one job request per stdin line
//! (`<benchmark>[:width] <1phi|nphi|t1> [phases] [pre-opt|slack-opt|dff-opt|timing|...]`,
//! `#` comments, `---` flushes the batch early) and streams one
//! `done <idx> ...` or `err <idx> ...` line per request to stdout. A
//! `stats` line responds immediately with a one-line flushed snapshot of
//! the session counters (`stats memory_hits=... p99_compute_us=...`).
//!
//! opt options:
//!   --passes LIST    comma-separated pass sequence (default strash,sweep,rewrite,balance)
//!   --slack-aware    use the slack-aware pipeline (rewrite may consume per-site slack)
//!   --dff-aware      use the DFF-objective pipeline (sites priced by per-edge DFF
//!                    cost under --phases clocking, default 4; --phases also
//!                    parameterizes rewrite-dff named via --passes, and errors
//!                    when no DFF-objective pass would read it)
//!   --fixpoint       iterate the sequence to convergence (guarded)
//!   --rounds N       fixpoint round limit (default 8)
//!   --verify         CEC the result against the input (simulation + SAT miter)
//!   --stats          per-pass table: node/depth deltas, analysis cache hits,
//!                    STA nodes refreshed vs rebuilt, wall time per pass
//!   -o FILE          write the optimized network as AIGER
//!
//! Unknown `opt` flags are a hard error listing every flag and pass name.
//!
//! sta options:
//!   --mapped         analyze the mapped + scheduled netlist (phase-granular
//!                    slack) instead of the unit-delay AIG
//!   --top-paths K    critical paths to extract (default 3)
//!   --csv FILE       write the per-node timing table as CSV
//! ```

use std::io::BufRead;
use std::process::ExitCode;

use sfq_t1::bench::{
    bench_json_flag, bench_report_json, csv_flag, diff_reports, fixpoint_opt_jobs, jobs_flag,
    pre_opt_flag, progress_event, progress_line, result_rows, store_flag, store_summary,
    suite_summary, table1_jobs_with, table_one, tool_report_json, trace_flag,
    validate_bench_report, BenchmarkScale, JobSample, ReportEntry, ReportMeta,
    DEFAULT_MAX_REGRESS_PCT,
};
use sfq_t1::engine::{DiskStore, Job, SuiteRunner};
use sfq_t1::explore::{explore_report_json, explore_summary, frontier_table};
use sfq_t1::netlist::aiger;
use sfq_t1::netlist::Aig;
use sfq_t1::opt::{
    optimize, optimize_verified, parse_passes, CecConfig, CecVerdict, OptConfig, PassKind,
};
use sfq_t1::t1map::cells::CellLibrary;
use sfq_t1::t1map::flow::{run_flow, FlowConfig, PhaseEngine};
use sfq_t1::t1map::to_pulse_circuit;
use sfq_t1::t1map::verilog::{cell_models, export, ExportOptions};

// Counting allocator wrapper: behaves exactly like the system allocator
// (one relaxed atomic load per call) until the recorder is enabled, then
// feeds the memory columns of traces, bench reports and serve stats.
#[global_allocator]
static ALLOC: sfq_t1::obs::alloc::CountingAlloc = sfq_t1::obs::alloc::CountingAlloc::new();

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    "usage: sfq-t1 <gen|map|verify|opt|sta|suite|serve|explore|store|bench-report> ... \
     (see --help in README)"
        .to_string()
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("map") => cmd_map(&args[1..], false),
        Some("verify") => cmd_map(&args[1..], true),
        Some("opt") => cmd_opt(&args[1..]),
        Some("sta") => cmd_sta(&args[1..]),
        Some("suite") => cmd_suite(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("explore") => cmd_explore(&args[1..]),
        Some("store") => cmd_store(&args[1..]),
        Some("bench-report") => cmd_bench_report(&args[1..]),
        Some("--help" | "-h") | None => {
            println!("{}", usage());
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'; {}", usage())),
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn load_aig(path: &str) -> Result<Aig, String> {
    // Stream straight off the file through the buffered readers — a
    // million-node AIGER never materializes as one giant String/Vec here.
    let file = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut reader = std::io::BufReader::new(file);
    let head = reader
        .fill_buf()
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    if head.starts_with(b"aag") {
        aiger::read_ascii_from(reader).map_err(|e| e.to_string())
    } else if head.starts_with(b"aig") {
        aiger::read_binary_from(reader).map_err(|e| e.to_string())
    } else {
        Err(format!(
            "{path}: neither ASCII ('aag') nor binary ('aig') AIGER"
        ))
    }
}

/// Builds the named benchmark at `width` (0 = the benchmark's default).
///
/// Delegates to the [`sfq_t1::circuits::named`] registry — the same one
/// the `serve` parser and the explore sweep spec resolve through — so
/// every interface agrees on the legal names and an unknown name is a
/// hard error listing every known benchmark.
fn build_benchmark(name: &str, width: usize) -> Result<Aig, String> {
    sfq_t1::circuits::named::build(name, width)
}

/// Resolves the `opt` subject: a known benchmark name or an AIGER file.
fn load_subject(name: &str, width: usize) -> Result<Aig, String> {
    if sfq_t1::circuits::named::is_known(name) {
        build_benchmark(name, width)
    } else if std::path::Path::new(name).exists() {
        load_aig(name)
    } else {
        Err(format!(
            "'{name}' is neither a known benchmark ({}) nor an existing AIGER file",
            sfq_t1::circuits::named::known_names().join(", ")
        ))
    }
}

/// Flags the `opt` subcommand accepts (`true` = the flag consumes the next
/// argument as its value). Anything else starting with `-` is a hard error
/// — see [`reject_unknown_flags`].
const OPT_FLAGS: [(&str, bool); 11] = [
    ("--passes", true),
    ("--slack-aware", false),
    ("--dff-aware", false),
    ("--phases", true),
    ("--fixpoint", false),
    ("--rounds", true),
    ("--verify", false),
    ("--stats", false),
    ("--trace", true),
    ("--bench-json", true),
    ("-o", true),
];

/// Hard-errors on any `-`-prefixed argument outside `known`, listing every
/// accepted flag (plus any command-specific `notes`, e.g. `opt`'s pass
/// names) — the same no-silent-typo policy as unknown benchmark names.
fn reject_unknown_flags(
    cmd: &str,
    args: &[String],
    known: &[(&str, bool)],
    notes: &str,
) -> Result<(), String> {
    let mut skip_value = false;
    for a in args {
        if skip_value {
            skip_value = false;
            continue;
        }
        if !a.starts_with('-') {
            continue;
        }
        match known.iter().find(|(n, _)| n == a) {
            Some(&(_, takes_value)) => skip_value = takes_value,
            None => {
                let flags: Vec<&str> = known.iter().map(|&(n, _)| n).collect();
                return Err(format!(
                    "{cmd}: unknown flag '{a}' (flags: {}{notes})",
                    flags.join(", ")
                ));
            }
        }
    }
    Ok(())
}

/// Runs the `sfq-opt` pipeline standalone: per-pass stats table, optional
/// fixpoint iteration, optional SAT-checked equivalence, optional export.
fn cmd_opt(args: &[String]) -> Result<(), String> {
    let passes: Vec<&str> = PassKind::KNOWN.iter().map(|p| p.name()).collect();
    reject_unknown_flags(
        "opt",
        args,
        &OPT_FLAGS,
        &format!("; known passes: {}", passes.join(", ")),
    )?;
    let name = args
        .first()
        .filter(|a| !a.starts_with('-'))
        .ok_or("opt: benchmark name or AIGER file required")?;
    let width: usize = args
        .get(1)
        .filter(|a| !a.starts_with('-'))
        .map(|a| a.parse().map_err(|e| format!("bad width: {e}")))
        .transpose()?
        .unwrap_or(0);
    let aig = load_subject(name, width)?;

    if has_flag(args, "--slack-aware") && has_flag(args, "--dff-aware") {
        return Err("opt: --slack-aware and --dff-aware are mutually exclusive".into());
    }
    // --passes replaces the whole pipeline, so combining it with a preset
    // selector would silently discard the preset — hard-error instead.
    if flag_value(args, "--passes").is_some()
        && (has_flag(args, "--slack-aware") || has_flag(args, "--dff-aware"))
    {
        return Err(
            "opt: --passes replaces the whole pipeline; drop --slack-aware/--dff-aware \
             and name the passes directly (e.g. --passes strash,sweep,rewrite-dff,balance)"
                .into(),
        );
    }
    let mut config = if has_flag(args, "--slack-aware") {
        OptConfig::slack_aware()
    } else if has_flag(args, "--dff-aware") {
        OptConfig::dff_aware(4)
    } else {
        OptConfig::standard()
    };
    if let Some(list) = flag_value(args, "--passes") {
        config.passes = parse_passes(list)?;
    }
    // --phases parameterizes DFF-objective rewriting wherever it came from
    // (--dff-aware or a --passes list naming rewrite-dff); anywhere else it
    // would be a silent no-op, which is a hard error like any unknown flag.
    if let Some(p) = flag_value(args, "--phases") {
        let n: u32 = p
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("bad --phases: '{p}' is not a positive integer"))?;
        let mut applied = false;
        for kind in &mut config.passes {
            if let PassKind::RewriteDff(m) = kind {
                *m = n;
                applied = true;
            }
        }
        if !applied {
            return Err(
                "opt: --phases only affects DFF-objective rewriting (use --dff-aware or \
                 --passes ...,rewrite-dff,...)"
                    .into(),
            );
        }
    }
    config.fixpoint = has_flag(args, "--fixpoint");
    if let Some(r) = flag_value(args, "--rounds") {
        config.max_rounds = r
            .parse::<usize>()
            .ok()
            .filter(|&r| r >= 1)
            .ok_or_else(|| format!("bad --rounds: '{r}' is not a positive integer"))?;
    }

    // Same observation-only recorder as the suite: `--trace` and
    // `--bench-json` watch the run without changing its output.
    let trace_path = trace_flag(args)?;
    let bench_json_path = bench_json_flag(args)?;
    let observing = trace_path.is_some() || bench_json_path.is_some();
    if observing {
        sfq_t1::obs::enable();
    }
    let opt_start = std::time::Instant::now();

    let verify = has_flag(args, "--verify");
    let (optimized, report, verified) = if verify {
        // Pass-by-pass equivalence checking, chained by transitivity into
        // an end-to-end proof (tractable even at paper scale, where a
        // single original-vs-final miter would not be).
        let run = optimize_verified(&aig, &config, &CecConfig::default());
        (run.aig.clone(), run.report.clone(), Some(run))
    } else {
        let (optimized, report) = optimize(&aig, &config);
        (optimized, report, None)
    };
    let opt_micros = opt_start.elapsed().as_micros() as u64;
    println!(
        "{name}: {} PIs, {} POs, {} ANDs, depth {}",
        aig.pi_count(),
        aig.po_count(),
        aig.and_count(),
        aig.depth()
    );
    for (round, stats) in report.rounds.iter().enumerate() {
        for s in stats {
            println!("  round {:>2}  {s}", round + 1);
        }
    }
    let pct = if report.nodes_before > 0 {
        100.0 * report.node_delta() as f64 / report.nodes_before as f64
    } else {
        0.0
    };
    println!(
        "total: {} -> {} nodes ({pct:+.1}%), depth {} -> {}{}",
        report.nodes_before,
        report.nodes_after,
        report.depth_before,
        report.depth_after,
        if config.fixpoint && !report.converged {
            " (round limit reached)"
        } else {
            ""
        }
    );

    if has_flag(args, "--stats") {
        println!(
            "\n{:>5} {:<13} {:>15} {:>10} {:>7} {:>5} {:>6} {:>13} {:>9}",
            "round", "pass", "nodes", "depth", "applied", "hits", "inval", "STA refr/bld", "µs"
        );
        for (round, stats) in report.rounds.iter().enumerate() {
            for s in stats {
                println!(
                    "{:>5} {:<13} {:>7}->{:<7} {:>4}->{:<5} {:>7} {:>5} {:>6} {:>9}/{:<3} {:>9}",
                    round + 1,
                    s.pass,
                    s.nodes_before,
                    s.nodes_after,
                    s.depth_before,
                    s.depth_after,
                    s.applied,
                    s.cache_hits,
                    s.invalidations,
                    s.sta_refreshed,
                    s.sta_builds,
                    s.micros
                );
            }
        }
        // The in-place/rebuild identity contract, observable from the
        // shell: equal hashes here mean equal networks, bit for bit.
        println!("structural hash: {:#018x}", optimized.structural_hash());
        let a = &report.analysis;
        println!(
            "analysis cache: {} hits, {} invalidations, {} recomputes, {} STA builds, \
             {} rebinds ({} STA nodes refreshed incrementally)",
            a.cache_hits,
            a.invalidations,
            a.recomputes,
            a.sta_full_builds,
            a.sta_rebinds,
            a.sta_nodes_refreshed
        );
    }

    if let Some(run) = verified {
        match run.verdict {
            CecVerdict::Equivalent => println!(
                "verified equivalent: {} pass checks, {} simulation words, {} sweep merges, \
                 {} SAT queries{}",
                run.checked_stages,
                run.cec.sim_words,
                run.cec.sweep_merges,
                run.cec.sat_queries,
                if run.cec.used_final_sat {
                    " (miter discharged by SAT)"
                } else {
                    " (all outputs matched structurally)"
                }
            ),
            CecVerdict::NotEquivalent(cex) => {
                return Err(format!(
                    "CEC MISMATCH in pass '{}': differs on input {:?}",
                    run.failed_pass.unwrap_or("?"),
                    cex.iter().map(|&b| b as u8).collect::<Vec<_>>()
                ));
            }
            CecVerdict::Unknown => {
                return Err(format!(
                    "CEC inconclusive in pass '{}': the pass changed the PI/PO \
                     interface, or a configured solver budget ran out",
                    run.failed_pass.unwrap_or("?")
                ));
            }
        }
    }

    if let Some(out) = flag_value(args, "-o") {
        let payload = if out.ends_with(".aig") {
            aiger::write_binary(&optimized)
        } else {
            aiger::write_ascii(&optimized).into_bytes()
        };
        std::fs::write(out, payload).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("optimized AIGER -> {out}");
    }

    if observing {
        let trace = sfq_t1::obs::take();
        if let Some(path) = trace_path {
            std::fs::write(&path, trace.chrome_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("trace written to {path}");
        }
        if let Some(path) = bench_json_path {
            let mem = sfq_t1::obs::alloc::stats();
            let entry = ReportEntry {
                benchmark: name.to_string(),
                flow: "opt".to_string(),
                micros: opt_micros,
                source: "computed".to_string(),
                // Tool reports repurpose the AIG-shape columns: node
                // count and combinational depth of the optimized result.
                ands: optimized.and_count() as u64,
                depth_cycles: report.depth_after as u64,
                alloc_bytes: mem.allocated,
                peak_bytes: mem.peak,
                ..ReportEntry::default()
            };
            let text = tool_report_json("opt", &entry, opt_micros, &trace);
            validate_bench_report(&text)
                .map_err(|e| format!("internal: emitted report invalid: {e}"))?;
            std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("bench report written to {path}");
        }
    }
    Ok(())
}

/// Static timing analysis: unit-delay slack over the AIG, or phase-granular
/// schedule slack over the mapped netlist (`--mapped`).
fn cmd_sta(args: &[String]) -> Result<(), String> {
    use sfq_t1::sta::{AigSta, TimingReport};
    use sfq_t1::t1map::timing::analyze_mapped;

    let name = args
        .first()
        .filter(|a| !a.starts_with('-'))
        .ok_or("sta: benchmark name or AIGER file required")?;
    let width: usize = args
        .get(1)
        .filter(|a| !a.starts_with('-'))
        .map(|a| a.parse().map_err(|e| format!("bad width: {e}")))
        .transpose()?
        .unwrap_or(0);
    let top_paths: usize = flag_value(args, "--top-paths")
        .map(|v| v.parse().map_err(|e| format!("bad --top-paths: {e}")))
        .transpose()?
        .unwrap_or(3);
    let mut aig = load_subject(name, width)?;
    if has_flag(args, "--pre-opt") {
        aig = optimize(&aig, &OptConfig::standard()).0;
    }
    // Same observation-only recorder as the suite: `--trace` and
    // `--bench-json` watch the analysis without changing its output.
    let trace_path = trace_flag(args)?;
    let bench_json_path = bench_json_flag(args)?;
    let observing = trace_path.is_some() || bench_json_path.is_some();
    if observing {
        sfq_t1::obs::enable();
    }
    let sta_start = std::time::Instant::now();
    let mut report_depth = aig.depth() as u64;
    println!(
        "{name}: {} PIs, {} POs, {} ANDs, depth {}",
        aig.pi_count(),
        aig.po_count(),
        aig.and_count(),
        aig.depth()
    );

    if has_flag(args, "--mapped") {
        let phases: u32 = flag_value(args, "--phases")
            .map(|v| v.parse().map_err(|e| format!("bad --phases: {e}")))
            .transpose()?
            .unwrap_or(4);
        let use_t1 = !has_flag(args, "--no-t1");
        if use_t1 && phases < 3 {
            return Err("T1 flows need at least 3 phases (use --no-t1 for fewer)".into());
        }
        let cfg = if use_t1 {
            FlowConfig::t1(phases)
        } else {
            FlowConfig::multiphase(phases)
        };
        let lib = CellLibrary::default();
        let res = run_flow(&aig, &lib, &cfg);
        // One analysis serves the summary, the paths and the CSV (running
        // the flow's own timing stage here would analyze twice).
        let timing = analyze_mapped(&res.mapped, &res.schedule);
        let summary = timing.summary(&res.mapped, &res.schedule, &res.plan);
        report_depth = res.schedule.depth_cycles() as u64;
        println!(
            "mapped timing (n = {phases} phases): horizon {} stages ({} cycles), \
             {} scheduled cells",
            summary.horizon,
            res.schedule.depth_cycles(),
            summary.scheduled_cells
        );
        println!(
            "schedule slack: worst {}, total {} phases of headroom, {} zero-slack \
             cells ({:.1}%)",
            summary.worst_slack,
            summary.total_slack,
            summary.zero_slack_cells,
            100.0 * summary.zero_slack_cells as f64 / summary.scheduled_cells.max(1) as f64
        );
        println!(
            "DFF cost at this schedule: {} per-edge (§II-B objective), {} realized \
             with shared chains",
            summary.edge_dffs, summary.chained_dffs
        );
        let (paths, truncated) = timing.critical_paths_bounded(top_paths);
        for (i, p) in paths.iter().enumerate() {
            println!(
                "path #{} length {} stages, slack {} ({} cells): c{} -> ... -> c{}",
                i + 1,
                p.length,
                p.slack,
                p.nodes.len(),
                p.nodes.first().copied().unwrap_or(0),
                p.nodes.last().copied().unwrap_or(0)
            );
        }
        if truncated {
            println!("(path search budget exhausted — more paths exist than listed)");
        }
        if let Some(path) = flag_value(args, "--csv") {
            let mut csv = String::from("cell,stage,earliest,latest,slack\n");
            for (id, _) in res.mapped.cells() {
                let latest = timing.latest(id);
                if latest == i64::MAX {
                    continue;
                }
                csv.push_str(&format!(
                    "{},{},{},{},{}\n",
                    id.0,
                    res.schedule.stages[id.index()],
                    timing.earliest(id),
                    latest,
                    timing.schedule_slack(&res.schedule, id)
                ));
            }
            std::fs::write(path, csv).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("timing CSV -> {path}");
        }
    } else {
        let sta = AigSta::new(&aig);
        let report = TimingReport::new(sta.graph(), sta.analysis(), top_paths);
        print!("unit-delay timing: {report}");
        if let Some(path) = flag_value(args, "--csv") {
            std::fs::write(path, TimingReport::node_csv(sta.graph(), sta.analysis()))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("timing CSV -> {path}");
        }
    }

    if observing {
        let sta_micros = sta_start.elapsed().as_micros() as u64;
        let trace = sfq_t1::obs::take();
        if let Some(path) = trace_path {
            std::fs::write(&path, trace.chrome_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("trace written to {path}");
        }
        if let Some(path) = bench_json_path {
            let mem = sfq_t1::obs::alloc::stats();
            let entry = ReportEntry {
                benchmark: name.to_string(),
                flow: "sta".to_string(),
                micros: sta_micros,
                source: "computed".to_string(),
                ands: aig.and_count() as u64,
                depth_cycles: report_depth,
                alloc_bytes: mem.allocated,
                peak_bytes: mem.peak,
                ..ReportEntry::default()
            };
            let text = tool_report_json("sta", &entry, sta_micros, &trace);
            validate_bench_report(&text)
                .map_err(|e| format!("internal: emitted report invalid: {e}"))?;
            std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("bench report written to {path}");
        }
    }
    Ok(())
}

/// Runs the full Table-I suite through the `sfq-engine` worker pool.
fn cmd_suite(args: &[String]) -> Result<(), String> {
    let small = has_flag(args, "--small");
    let phases: u32 = flag_value(args, "--phases")
        .map(|v| v.parse().map_err(|e| format!("bad --phases: {e}")))
        .transpose()?
        .unwrap_or(4);
    if phases < 3 {
        return Err("suite runs the T1 flow, which needs at least 3 phases".into());
    }
    // Shared parsers with the bench binaries: a bare `--csv` or malformed
    // `--jobs` is a hard error, not a silent fallback.
    let workers = jobs_flag(args)?;
    let csv_path = csv_flag(args)?;
    let pre_opt = pre_opt_flag(args);
    let trace_path = trace_flag(args)?;
    let bench_json_path = bench_json_flag(args)?;
    let stats = has_flag(args, "--stats");
    // One recorder feeds every sink: the `--stats` summary table, the
    // `--trace` Chrome trace and the `--bench-json` span rollups are all
    // views of the same run. Observation only — the table and CSV are
    // byte-identical whether or not anything observes.
    let observing = stats || trace_path.is_some() || bench_json_path.is_some();
    if observing {
        sfq_t1::obs::enable();
    }

    let scale = if small {
        BenchmarkScale::small()
    } else {
        BenchmarkScale::paper()
    };
    let lib = CellLibrary::default();
    println!(
        "Table I — multiphase clocking with T1 cells ({} scale, n = {phases} phases{})\n",
        if small { "small" } else { "paper" },
        if pre_opt { ", pre-opt" } else { "" }
    );
    let jobs = table1_jobs_with(&scale, phases, &lib, pre_opt);
    let store = store_flag(args)?;
    let mut runner = SuiteRunner::new(workers);
    if let Some(store) = &store {
        runner = runner.with_store(store.clone());
    }
    let mut samples = vec![JobSample::default(); jobs.len()];
    let report = runner.run_with_progress(&jobs, |o| {
        samples[o.index] = JobSample::from_outcome(&o);
        progress_event(&o);
    });
    sfq_t1::obs::gauge("store.disk.entries", report.cache.disk.entries as i64);
    let trace = observing.then(sfq_t1::obs::take).unwrap_or_default();

    let table = table_one(&jobs, &report);
    println!("\n{table}");
    if store.is_some() || stats {
        println!("{}", store_summary(&report));
    }
    if stats {
        print!("{}", trace.summary());
    }
    progress_line(suite_summary(jobs.len(), &report));
    if let Some(path) = csv_path {
        std::fs::write(&path, table.to_csv()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("CSV written to {path}");
    }
    if let Some(path) = trace_path {
        std::fs::write(&path, trace.chrome_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("trace written to {path}");
    }
    if let Some(path) = bench_json_path {
        let meta = ReportMeta {
            suite: "table1".to_string(),
            scale: if small { "small" } else { "paper" }.to_string(),
            phases,
            pre_opt,
        };
        let rows = result_rows(&jobs, &report);
        let text = bench_report_json(&meta, &jobs, &rows, &report, &samples, &trace);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("bench report written to {path}");
    }
    Ok(())
}

/// Flags the `explore` subcommand accepts (see [`reject_unknown_flags`]).
const EXPLORE_FLAGS: [(&str, bool); 6] = [
    ("--jobs", true),
    ("--cache-dir", true),
    ("--trace", true),
    ("--bench-json", true),
    ("--csv", true),
    ("-o", true),
];

/// Runs a design-space sweep from a spec file: expansion with
/// fingerprint deduplication, execution through the suite engine (with
/// any `--cache-dir` result store), per-benchmark Pareto frontiers, and
/// the validated `EXPLORE_*.json` report.
fn cmd_explore(args: &[String]) -> Result<(), String> {
    reject_unknown_flags("explore", args, &EXPLORE_FLAGS, "")?;
    let spec_path = args
        .first()
        .filter(|a| !a.starts_with('-'))
        .ok_or("explore: sweep spec file required (see README §Design-space exploration)")?;
    let text =
        std::fs::read_to_string(spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let spec = sfq_t1::explore::spec::parse(&text).map_err(|e| format!("{spec_path}: {e}"))?;
    let workers = jobs_flag(args)?;
    let csv_path = csv_flag(args)?;
    let trace_path = trace_flag(args)?;
    let bench_json_path = bench_json_flag(args)?;
    let store = store_flag(args)?;
    let observing = trace_path.is_some() || bench_json_path.is_some();
    if observing {
        sfq_t1::obs::enable();
    }

    let mut runner = SuiteRunner::new(workers);
    if let Some(store) = &store {
        runner = runner.with_store(store.clone());
    }
    println!(
        "explore '{}': {} benchmarks x {} flows x {} phase counts x {} opt x {} timing x \
         {} libraries",
        spec.name,
        spec.benchmarks.len(),
        spec.flows.len(),
        spec.phases.len(),
        spec.opts.len(),
        spec.timing.len(),
        spec.libraries.len()
    );
    let run = sfq_t1::explore::run_sweep(spec, &runner, progress_event)?;
    sfq_t1::obs::gauge("store.disk.entries", run.cache().disk.entries as i64);
    let trace = observing.then(sfq_t1::obs::take).unwrap_or_default();

    println!();
    print!("{}", frontier_table(&run));
    if store.is_some() {
        println!("{}", store_summary(&run.report));
    }
    println!("{}", explore_summary(&run));

    let out = flag_value(args, "-o")
        .map(str::to_string)
        .unwrap_or_else(|| format!("EXPLORE_{}.json", run.spec.name));
    let report_text = explore_report_json(&run);
    // A report that fails its own schema must never reach disk.
    sfq_t1::explore::validate(&report_text)
        .map_err(|e| format!("internal: emitted report invalid: {e}"))?;
    std::fs::write(&out, report_text).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("explore report written to {out}");

    if let Some(path) = csv_path {
        std::fs::write(&path, sfq_t1::explore::report::points_csv(&run))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("CSV written to {path}");
    }
    if let Some(path) = trace_path {
        std::fs::write(&path, trace.chrome_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("trace written to {path}");
    }
    if let Some(path) = bench_json_path {
        let meta = ReportMeta {
            suite: "explore".to_string(),
            scale: run.spec.name.clone(),
            phases: run.spec.phases[0],
            pre_opt: run.spec.opts.contains(&"pre-opt"),
        };
        let rows = result_rows(&run.jobs, &run.report);
        let text = bench_report_json(&meta, &run.jobs, &rows, &run.report, &run.samples, &trace);
        validate_bench_report(&text)
            .map_err(|e| format!("internal: emitted report invalid: {e}"))?;
        std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("bench report written to {path}");
    }
    Ok(())
}

/// Flags the `store gc` verb accepts (see [`reject_unknown_flags`]).
const STORE_GC_FLAGS: [(&str, bool); 2] = [("--keep-newest", true), ("--max-bytes", true)];

/// `store <verb>` — maintenance of persistent `--cache-dir` result
/// stores. The only verb today is `gc`.
fn cmd_store(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("gc") => cmd_store_gc(&args[1..]),
        Some(other) => Err(format!("store: unknown verb '{other}' (one of: gc)")),
        None => Err("store: verb required (one of: gc)".into()),
    }
}

/// `store gc DIR --keep-newest N [--max-bytes B]`: evicts all but the
/// newest `N` entries, then keeps evicting oldest-first until at most
/// `B` bytes remain (when given); stale-format debris is always swept.
fn cmd_store_gc(args: &[String]) -> Result<(), String> {
    reject_unknown_flags("store gc", args, &STORE_GC_FLAGS, "")?;
    let dir = args
        .first()
        .filter(|a| !a.starts_with('-'))
        .ok_or("store gc: cache directory required (the --cache-dir of previous runs)")?;
    let keep: usize = flag_value(args, "--keep-newest")
        .ok_or("store gc: --keep-newest N required")?
        .parse()
        .map_err(|e| format!("bad --keep-newest: {e}"))?;
    let max_bytes: Option<u64> = flag_value(args, "--max-bytes")
        .map(|v| v.parse().map_err(|e| format!("bad --max-bytes: {e}")))
        .transpose()?;
    let store = DiskStore::open(dir).map_err(|e| format!("cannot open store {dir}: {e}"))?;
    let s = store.gc_with_budget(keep, max_bytes);
    println!(
        "store gc: evicted {} entries ({} bytes); {} entries ({} bytes) remain in {dir}",
        s.removed, s.removed_bytes, s.remaining, s.remaining_bytes
    );
    Ok(())
}

/// Flags `bench-report` accepts (see [`OPT_FLAGS`] for the table format).
const BENCH_REPORT_FLAGS: [(&str, bool); 6] = [
    ("--check", true),
    ("--small", false),
    ("--pre-opt", false),
    ("--jobs", true),
    ("--cache-dir", true),
    ("-o", true),
];

/// Emits (or, with `--check`, validates) the schema-versioned
/// `BENCH_*.json` perf-trajectory report: the Table-I suite with tracing
/// on, rolled up into per-benchmark wall micros, result metrics,
/// cache-source breakdown and span totals.
fn cmd_bench_report(args: &[String]) -> Result<(), String> {
    if args.first().map(String::as_str) == Some("diff") {
        return cmd_bench_diff(&args[1..]);
    }
    reject_unknown_flags("bench-report", args, &BENCH_REPORT_FLAGS, "")?;
    if let Some(path) = flag_value(args, "--check") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        validate_bench_report(&text).map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: valid bench report");
        return Ok(());
    }
    let small = has_flag(args, "--small");
    let pre_opt = pre_opt_flag(args);
    let workers = jobs_flag(args)?;
    let store = store_flag(args)?;
    let out = flag_value(args, "-o").unwrap_or("BENCH_table1.json");
    let phases = 4u32;
    sfq_t1::obs::enable();

    let scale = if small {
        BenchmarkScale::small()
    } else {
        BenchmarkScale::paper()
    };
    let lib = CellLibrary::default();
    let mut jobs = table1_jobs_with(&scale, phases, &lib, pre_opt);
    // The allocation-sensitive rows: fixpoint optimization dominates their
    // alloc_bytes, so the diff against the committed baseline tracks the
    // optimizer's allocation cost.
    jobs.extend(fixpoint_opt_jobs(&scale, phases, &lib));
    let mut runner = SuiteRunner::new(workers);
    if let Some(store) = &store {
        runner = runner.with_store(store.clone());
    }
    let mut samples = vec![JobSample::default(); jobs.len()];
    let report = runner.run_with_progress(&jobs, |o| {
        samples[o.index] = JobSample::from_outcome(&o);
        progress_event(&o);
    });
    sfq_t1::obs::gauge("store.disk.entries", report.cache.disk.entries as i64);
    let trace = sfq_t1::obs::take();
    progress_line(suite_summary(jobs.len(), &report));

    let meta = ReportMeta {
        suite: "table1".to_string(),
        scale: if small { "small" } else { "paper" }.to_string(),
        phases,
        pre_opt,
    };
    let rows = result_rows(&jobs, &report);
    let text = bench_report_json(&meta, &jobs, &rows, &report, &samples, &trace);
    // A report that fails its own schema must never reach disk.
    validate_bench_report(&text).map_err(|e| format!("internal: emitted report invalid: {e}"))?;
    std::fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("bench report written to {out}");
    Ok(())
}

/// `bench-report diff BASELINE CURRENT [--max-regress-pct N] [--json]`:
/// the regression gate. Prints the per-job table (or, with `--json`, the
/// machine-readable verdict) and fails — nonzero exit — iff any job
/// regressed beyond its allowance.
fn cmd_bench_diff(args: &[String]) -> Result<(), String> {
    let positional: Vec<&String> = {
        // `--max-regress-pct` consumes its value; skip it when collecting.
        let mut out = Vec::new();
        let mut skip = false;
        for a in args {
            if skip {
                skip = false;
                continue;
            }
            if a == "--max-regress-pct" {
                skip = true;
            } else if !a.starts_with('-') {
                out.push(a);
            }
        }
        out
    };
    let [baseline, current] = positional.as_slice() else {
        return Err("bench-report diff: exactly two report files required \
             (usage: bench-report diff BASELINE CURRENT [--max-regress-pct N] [--json])"
            .into());
    };
    let pct: u64 = flag_value(args, "--max-regress-pct")
        .map(|v| v.parse().map_err(|e| format!("bad --max-regress-pct: {e}")))
        .transpose()?
        .unwrap_or(DEFAULT_MAX_REGRESS_PCT);
    let base_text =
        std::fs::read_to_string(baseline).map_err(|e| format!("cannot read {baseline}: {e}"))?;
    let cur_text =
        std::fs::read_to_string(current).map_err(|e| format!("cannot read {current}: {e}"))?;
    let diff = diff_reports(&base_text, &cur_text, pct)?;
    if has_flag(args, "--json") {
        print!("{}", diff.verdict_json());
    } else {
        print!("{}", diff.table());
    }
    if diff.ok() {
        Ok(())
    } else {
        let names: Vec<String> = diff
            .regressions()
            .iter()
            .map(|j| format!("{}/{}", j.benchmark, j.flow))
            .collect();
        Err(format!(
            "performance regression in {} job(s): {}",
            names.len(),
            names.join(", ")
        ))
    }
}

/// Long-running batch service: one job request per stdin line, one
/// `done`/`err` response line per request on stdout.
///
/// Request lines: `<benchmark>[:width] <1phi|nphi|t1> [phases]
/// [pre-opt|slack-opt|dff-opt] [timing]`. Blank lines and `#` comments are
/// ignored; `---` flushes the accumulated batch through the engine early
/// (responses stream back in completion order); EOF flushes and exits. All
/// requests share one result store for the whole session — with
/// `--cache-dir`, the persistent one.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use std::io::{BufRead, Write};

    let workers = jobs_flag(args)?;
    let store = store_flag(args)?
        .unwrap_or_else(|| std::sync::Arc::new(sfq_t1::engine::ResultCache::new()));
    let runner = SuiteRunner::new(workers).with_store(store.clone());
    let lib = CellLibrary::default();
    // The session-long recorder backs the `stats` control line and the
    // per-job memory fields of `done` lines. Span events are discarded
    // after every flush (only the cumulative counters and histograms
    // are kept), so recorder memory stays bounded over a long session.
    sfq_t1::obs::enable();

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    // Responses must reach a piped consumer promptly, so every response
    // line is flushed (stdout is block-buffered when not a terminal).
    let respond = |line: String| -> Result<(), String> {
        let mut out = stdout.lock();
        writeln!(out, "{line}")
            .and_then(|()| out.flush())
            .map_err(|e| e.to_string())
    };

    let mut batch: Vec<(usize, Job)> = Vec::new();
    let mut next_index = 0usize;
    let flush = |batch: &mut Vec<(usize, Job)>| -> Result<(), String> {
        if batch.is_empty() {
            return Ok(());
        }
        let jobs: Vec<Job> = batch.iter().map(|(_, j)| j.clone()).collect();
        let mut failure = None;
        runner.run_with_progress(&jobs, |o| {
            let (index, _) = batch[o.index];
            let s = o.stats;
            let line = format!(
                "done {index} {} source={} micros={} dffs={} splitters={} area={} depth={} \
                 gates={} t1={}/{} alloc_bytes={} peak_bytes={}",
                o.job.label(),
                o.source.serve_label(),
                o.duration.as_micros(),
                s.dffs,
                s.splitters,
                s.area,
                s.depth_cycles,
                s.gates,
                s.t1_used,
                s.t1_found,
                o.alloc_bytes,
                o.peak_bytes
            );
            if let Err(e) = respond(line) {
                failure.get_or_insert(e);
            }
        });
        batch.clear();
        sfq_t1::obs::discard_events();
        match failure {
            Some(e) => Err(format!("serve: cannot write response: {e}")),
            None => Ok(()),
        }
    };

    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("serve: cannot read stdin: {e}"))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if trimmed == "---" {
            flush(&mut batch)?;
            continue;
        }
        if trimmed == "stats" {
            // Immediate flushed snapshot — no batch flush required, so a
            // monitoring client can poll mid-stream.
            respond(serve_stats_line(&store))?;
            continue;
        }
        let index = next_index;
        next_index += 1;
        match parse_serve_request(trimmed, &lib) {
            Ok(job) => batch.push((index, job)),
            Err(e) => respond(format!("err {index} {e}"))?,
        }
    }
    flush(&mut batch)
}

/// One-line counters/histogram snapshot for the serve `stats` control
/// line: session-lifetime cache counters, live/peak process memory and
/// compute-latency percentiles.
fn serve_stats_line(store: &sfq_t1::engine::ResultCache) -> String {
    let s = store.stats();
    let mem = sfq_t1::obs::alloc::stats();
    let (p50, p99) = match sfq_t1::obs::histogram("engine:compute") {
        Some(h) => (h.percentile(50), h.percentile(99)),
        None => (0, 0),
    };
    format!(
        "stats memory_hits={} disk_hits={} misses={} live_bytes={} peak_bytes={} \
         p50_compute_us={p50} p99_compute_us={p99}",
        s.memory_hits, s.disk_hits, s.misses, mem.live, mem.peak
    )
}

/// Parses one `serve` request line into a [`Job`] (see [`cmd_serve`]).
///
/// Subjects resolve through the shared [`sfq_t1::circuits::named`]
/// registry and option suffixes through the explore spec's
/// [`sfq_t1::explore::apply_config_token`] table, so `serve` and
/// `explore` accept the same spellings and reject unknown tokens with
/// the same exhaustive list.
fn parse_serve_request(line: &str, lib: &CellLibrary) -> Result<Job, String> {
    let mut fields = line.split_whitespace();
    let subject = fields.next().ok_or("benchmark required")?;
    let (label, aig) = sfq_t1::circuits::named::build_subject(subject)?;

    let flow = fields
        .next()
        .ok_or("flow required (one of: 1phi, nphi, t1)")?;
    let mut rest = fields.peekable();
    let phases: u32 = match rest.peek().and_then(|t| t.parse().ok()) {
        Some(n) => {
            rest.next();
            n
        }
        None => 4,
    };
    let mut builder = match flow {
        "1phi" => FlowConfig::single_phase().to_builder(),
        "nphi" => FlowConfig::multiphase(phases).to_builder(),
        "t1" => {
            if phases < 3 {
                return Err(format!("t1 needs at least 3 phases, got {phases}"));
            }
            FlowConfig::t1(phases).to_builder()
        }
        other => return Err(format!("unknown flow '{other}' (one of: 1phi, nphi, t1)")),
    };
    for opt in rest {
        builder = sfq_t1::explore::apply_config_token(builder, opt)?;
    }
    Ok(Job::new(
        label,
        flow,
        std::sync::Arc::new(aig),
        *lib,
        builder.build(),
    ))
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or(
        "gen: benchmark name required (random, or a registry name: adder, multiplier, \
         square, sin, log2, voter, c6288, c7552, scale-100k)",
    )?;
    let width: usize = args
        .get(1)
        .filter(|a| !a.starts_with('-'))
        .map(|a| a.parse().map_err(|e| format!("bad width: {e}")))
        .transpose()?
        .unwrap_or(0);
    let out = flag_value(args, "-o").unwrap_or("out.aag");
    let aig = if name == "random" {
        // Scale-class generator: `gen random --nodes N --seed S` emits a
        // seeded random network in the same shape as the `scale-100k`
        // registry entry, so CI smoke sizes are a one-flag choice.
        let nodes: usize = flag_value(args, "--nodes")
            .ok_or("gen random: --nodes <count> required")?
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or("gen random: --nodes must be a positive integer")?;
        let seed: u64 = flag_value(args, "--seed")
            .map(|s| {
                s.parse()
                    .map_err(|e| format!("gen random: bad --seed: {e}"))
            })
            .transpose()?
            .unwrap_or(sfq_t1::circuits::named::SCALE_SEED);
        sfq_t1::circuits::random::random_aig(
            seed,
            &sfq_t1::circuits::random::RandomAigConfig {
                num_pis: 64,
                num_gates: nodes,
                num_pos: 32,
                xor_percent: 30,
            },
        )
    } else {
        build_benchmark(name, width)?
    };
    let payload = if out.ends_with(".aig") {
        aiger::write_binary(&aig)
    } else {
        aiger::write_ascii(&aig).into_bytes()
    };
    std::fs::write(out, payload).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "{name}: {} inputs, {} outputs, {} AND gates -> {out}",
        aig.pi_count(),
        aig.po_count(),
        aig.and_count()
    );
    Ok(())
}

fn cmd_map(args: &[String], verify: bool) -> Result<(), String> {
    let path = args.first().ok_or("input AIGER file required")?;
    let aig = load_aig(path)?;
    let phases: u32 = flag_value(args, "--phases")
        .map(|v| v.parse().map_err(|e| format!("bad --phases: {e}")))
        .transpose()?
        .unwrap_or(4);
    let use_t1 = !has_flag(args, "--no-t1");
    if use_t1 && phases < 3 {
        return Err("T1 flows need at least 3 phases (use --no-t1 for fewer)".into());
    }
    let mut cfg = if use_t1 {
        FlowConfig::t1(phases)
    } else {
        FlowConfig::multiphase(phases)
    };
    if has_flag(args, "--exact") {
        cfg.engine = PhaseEngine::Exact;
    }
    if has_flag(args, "--pre-opt") {
        cfg = cfg.to_builder().standard_opt().build();
    }
    let lib = CellLibrary::default();
    let res = run_flow(&aig, &lib, &cfg);
    println!(
        "{path}: {} ANDs -> {} gates + {} T1 cells ({} found)",
        aig.and_count(),
        res.stats.gates,
        res.stats.t1_used,
        res.stats.t1_found
    );
    println!(
        "  DFFs {}  splitters {}  area {} JJ  depth {} cycles (n = {phases})",
        res.stats.dffs, res.stats.splitters, res.stats.area, res.stats.depth_cycles
    );

    if let Some(dfile) = flag_value(args, "--dot") {
        std::fs::write(dfile, sfq_t1::t1map::dot::to_dot(&res))
            .map_err(|e| format!("cannot write {dfile}: {e}"))?;
        println!("  graphviz -> {dfile}");
    }
    if let Some(vfile) = flag_value(args, "--verilog") {
        let v = export(&res, &ExportOptions::default());
        std::fs::write(vfile, v).map_err(|e| format!("cannot write {vfile}: {e}"))?;
        println!("  structural Verilog -> {vfile}");
        if let Some(mfile) = flag_value(args, "--models") {
            std::fs::write(mfile, cell_models()).map_err(|e| e.to_string())?;
            println!("  cell models -> {mfile}");
        }
    }

    if verify {
        let waves: usize = flag_value(args, "--waves")
            .map(|v| v.parse().map_err(|e| format!("bad --waves: {e}")))
            .transpose()?
            .unwrap_or(8);
        let pc = to_pulse_circuit(&res.mapped, &res.schedule, &res.plan);
        let mut seed = 0xD1CE_F00D_u64 | 1;
        let vectors: Vec<Vec<bool>> = (0..waves)
            .map(|_| {
                (0..aig.pi_count())
                    .map(|_| {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        seed & 1 == 1
                    })
                    .collect()
            })
            .collect();
        let outcome = pc.simulate(&vectors, phases).map_err(|e| e.to_string())?;
        for (k, v) in vectors.iter().enumerate() {
            if outcome.outputs[k] != aig.eval(v) {
                return Err(format!("verification FAILED on wave {k}"));
            }
        }
        println!(
            "  verified: {waves} waves wave-pipelined, {} hazards, {} pulses",
            outcome.hazards, outcome.pulses
        );
        if outcome.hazards > 0 {
            return Err("T1 pulse-overlap hazards detected".into());
        }
    }
    Ok(())
}
