//! `sfq-t1` — command-line front end for the T1-aware SFQ mapping flow.
//!
//! Every command is described by one flag table (see
//! [`sfq_t1::bench::args`]), which drives its parsing, its unknown-flag
//! errors and its usage text: `sfq-t1 --help` prints every command's
//! usage, `sfq-t1 <command> --help` one.

use std::io::BufRead;
use std::process::ExitCode;
use std::sync::Arc;

use sfq_t1::bench::ablation::{self, ABLATION};
use sfq_t1::bench::args::{
    self, Args, Command, Flag, BENCH_JSON, CACHE_DIR, CSV, JOBS, OUTPUT, PHASES, PRE_OPT, SMALL,
    TRACE,
};
use sfq_t1::bench::{
    bench_report_json, diff_reports, fixpoint_opt_jobs, progress_event, progress_line,
    store_summary, suite_summary, table1_jobs_with, table_one, tool_report_json,
    validate_bench_report, BenchmarkScale, JobSample, ReportEntry, ReportMeta,
    DEFAULT_MAX_REGRESS_PCT,
};
use sfq_t1::engine::{DiskStore, Job, ResultCache, SuiteReport, SuiteRunner};
use sfq_t1::explore::spec::Flow;
use sfq_t1::explore::{explore_report_json, explore_summary, frontier_table};
use sfq_t1::netlist::aiger;
use sfq_t1::netlist::Aig;
use sfq_t1::obs::Trace;
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

const NO_T1: Flag = Flag("--no-t1  disable T1 detection (baseline flow)");
const EXACT: Flag = Flag("--exact  exact MILP phase assignment (small circuits)");
const VERILOG: Flag = Flag("--verilog FILE  write structural Verilog");
const MODELS: Flag = Flag("--models FILE  write the cell models (with --verilog)");
const DOT: Flag = Flag("--dot FILE  write a Graphviz view of the scheduled netlist");
const WAVES: Flag = Flag("--waves K  number of verification waves (default 8)");

const GEN: Command = Command {
    name: "gen",
    positionals: "<benchmark> [width]",
    about: "write a benchmark as AIGER (-o, default out.aag): random, or a registry name \
            (adder, multiplier, square, sin, log2, voter, c6288, c7552, scale-100k)",
    flags: &[
        OUTPUT,
        Flag("--nodes N  gate count of `gen random` (required)"),
        Flag("--seed S  seed of `gen random`"),
    ],
};

const MAP: Command = Command {
    name: "map",
    positionals: "<in.aag|in.aig>",
    about: "run a mapping flow, print stats",
    flags: &[PHASES, NO_T1, EXACT, PRE_OPT, VERILOG, MODELS, DOT],
};

const VERIFY: Command = Command {
    name: "verify",
    positionals: "<in.aag|in.aig>",
    about: "map + wave-pipelined pulse-sim check",
    flags: &[PHASES, NO_T1, EXACT, PRE_OPT, VERILOG, MODELS, DOT, WAVES],
};

const OPT: Command = Command {
    name: "opt",
    positionals: "<benchmark|in.aag> [width]",
    about: "pre-mapping AIG optimization (sfq-opt)",
    flags: &[
        Flag("--passes LIST  pass sequence (default strash,sweep,rewrite,balance)"),
        Flag("--slack-aware  slack-aware pipeline (rewrite may consume per-site slack)"),
        Flag("--dff-aware  DFF-objective pipeline (per-edge DFF cost under --phases)"),
        PHASES,
        Flag("--fixpoint  iterate the sequence to convergence (guarded)"),
        Flag("--rounds N  fixpoint round limit (default 8)"),
        Flag("--verify  CEC every pass that changed the network against its input"),
        Flag("--stats  per-pass node/depth deltas and wall time"),
        TRACE,
        BENCH_JSON,
        OUTPUT,
    ],
};

const STA: Command = Command {
    name: "sta",
    positionals: "<benchmark|in.aag> [width]",
    about: "static timing & slack analysis (sfq-sta)",
    flags: &[
        Flag("--top-paths K  critical paths to extract (default 3)"),
        PRE_OPT,
        Flag("--mapped  analyze the mapped, scheduled netlist (phase-granular slack)"),
        PHASES,
        NO_T1,
        CSV,
        TRACE,
        BENCH_JSON,
    ],
};

const SUITE: Command = Command {
    name: "suite",
    positionals: "",
    about: "the paper's Table I (8 benchmarks x 1φ/nφ/T1) through sfq-engine",
    flags: &[
        SMALL,
        PHASES,
        JOBS,
        CSV,
        PRE_OPT,
        CACHE_DIR,
        Flag("--stats  span rollups + store counters after the table"),
        TRACE,
        BENCH_JSON,
    ],
};

const SERVE: Command = Command {
    name: "serve",
    positionals: "",
    about: "batch flow service: one `<benchmark>[:width] <1phi|nphi|t1> [phases] [options]` \
            request per stdin line, one done/err line each on stdout",
    flags: &[JOBS, CACHE_DIR],
};

const EXPLORE: Command = Command {
    name: "explore",
    positionals: "<SPEC>",
    about: "design-space sweep + Pareto frontier, written to EXPLORE_<sweep>.json (or -o)",
    flags: &[JOBS, CACHE_DIR, TRACE, BENCH_JSON, CSV, OUTPUT],
};

const STORE_GC: Command = Command {
    name: "store gc",
    positionals: "<DIR>",
    about: "evict old entries of a persistent --cache-dir result store",
    flags: &[
        Flag("--keep-newest N  keep the N most recent entries (required)"),
        Flag("--max-bytes B  then evict oldest-first down to B bytes"),
    ],
};

const BENCH_REPORT: Command = Command {
    name: "bench-report",
    positionals: "",
    about: "write the traced Table-I suite as a BENCH_*.json report (-o, default \
            BENCH_table1.json)",
    flags: &[
        Flag("--check FILE  only validate an existing report against the schema"),
        SMALL,
        PRE_OPT,
        JOBS,
        CACHE_DIR,
        OUTPUT,
    ],
};

const BENCH_DIFF: Command = Command {
    name: "bench-report diff",
    positionals: "<BASE> <CUR>",
    about: "regression-diff two BENCH_*.json reports; exits nonzero iff a job regressed",
    flags: &[
        Flag("--max-regress-pct N  allowed timing/allocation growth (default 25)"),
        Flag("--json  print the machine verdict instead of the table"),
    ],
};

type Handler = fn(&Args) -> Result<(), String>;

/// Every command: its flag table and the function that runs it.
static COMMANDS: [(&Command, Handler); 12] = [
    (&GEN, cmd_gen),
    (&MAP, |args| map_flow(args, false)),
    (&VERIFY, |args| map_flow(args, true)),
    (&OPT, cmd_opt),
    (&STA, cmd_sta),
    (&SUITE, cmd_suite),
    (&SERVE, cmd_serve),
    (&EXPLORE, cmd_explore),
    (&STORE_GC, cmd_store_gc),
    (&BENCH_REPORT, cmd_bench_report),
    (&BENCH_DIFF, cmd_bench_diff),
    (&ABLATION, ablation::run),
];

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

fn run(argv: &[String]) -> Result<(), String> {
    let is_help = |a: &String| a == "-h" || a == "--help";
    let Some(first) = argv.first().filter(|a| !is_help(a)) else {
        return print_usage("");
    };
    // The longest command name whose words start `argv` (`bench-report
    // diff` before `bench-report`).
    let found = COMMANDS
        .iter()
        .filter(|(cmd, _)| {
            let words = cmd.name.split(' ');
            words.clone().count() <= argv.len() && words.zip(argv).all(|(w, a)| w == a)
        })
        .max_by_key(|(cmd, _)| cmd.name.len());
    let Some(&(cmd, handler)) = found else {
        // A verb-only group such as `store`.
        let group = format!("{first} ");
        let verbs: Vec<&str> = COMMANDS
            .iter()
            .filter_map(|(cmd, _)| cmd.name.strip_prefix(&group))
            .collect();
        let verbs = verbs.join(", ");
        return match argv.get(1) {
            _ if verbs.is_empty() => Err(format!(
                "unknown command '{first}' (`sfq-t1 --help` lists the commands)"
            )),
            Some(a) if is_help(a) => print_usage(&group),
            Some(verb) => Err(format!("{first}: unknown verb '{verb}' (one of: {verbs})")),
            None => Err(format!("{first}: verb required (one of: {verbs})")),
        };
    };
    match args::parse(cmd, &argv[cmd.name.split(' ').count()..])? {
        Some(args) => handler(&args),
        None => print_usage(cmd.name),
    }
}

/// Prints the usage of every command whose name starts with `prefix`
/// (`bench-report` also shows `bench-report diff`). A closed pipe
/// (`sfq-t1 --help | head`) is not an error.
fn print_usage(prefix: &str) -> Result<(), String> {
    use std::io::Write;
    let usages: Vec<String> = COMMANDS
        .iter()
        .filter(|(cmd, _)| cmd.name.starts_with(prefix))
        .map(|(cmd, _)| cmd.usage("sfq-t1"))
        .collect();
    let _ = std::io::stdout().write_all(usages.join("\n").as_bytes());
    Ok(())
}

fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// The observation sinks of a run, `--trace` and `--bench-json`: the
/// recorder runs only when something observes, and observing never
/// changes the run's own output.
struct Observer {
    trace: Option<String>,
    bench: Option<String>,
    on: bool,
}

impl Observer {
    /// Reads the sink flags and enables the recorder when one is given or
    /// `also` asks for it (`suite --stats`).
    fn start(args: &Args, also: bool) -> Observer {
        let trace = args.value("--trace").map(str::to_string);
        let bench = args.value("--bench-json").map(str::to_string);
        let on = also || trace.is_some() || bench.is_some();
        if on {
            sfq_t1::obs::enable();
        }
        Observer { trace, bench, on }
    }

    /// Drains the recorder: an empty trace when nothing observes.
    fn take(&self) -> Trace {
        self.on.then(sfq_t1::obs::take).unwrap_or_default()
    }

    /// Writes the trace, then the bench report `report` builds, which must
    /// pass its own schema before it reaches disk.
    fn write(&self, trace: &Trace, report: impl FnOnce() -> String) -> Result<(), String> {
        if let Some(path) = &self.trace {
            write_file(path, trace.chrome_json())?;
            println!("trace written to {path}");
        }
        if let Some(path) = &self.bench {
            let text = report();
            validate_bench_report(&text)
                .map_err(|e| format!("internal: emitted report invalid: {e}"))?;
            write_file(path, text)?;
            println!("bench report written to {path}");
        }
        Ok(())
    }
}

/// The bench report of a single-tool run (`opt`, `sta`), which repurposes
/// the AIG-shape columns for the result's node count and depth.
fn tool_report(
    flow: &str,
    name: &str,
    micros: u64,
    ands: u64,
    depth: u64,
    trace: &Trace,
) -> String {
    let mem = sfq_t1::obs::alloc::stats();
    let entry = ReportEntry {
        benchmark: name.to_string(),
        flow: flow.to_string(),
        micros,
        source: "computed".to_string(),
        ands,
        depth_cycles: depth,
        alloc_bytes: mem.allocated,
        peak_bytes: mem.peak,
        ..ReportEntry::default()
    };
    tool_report_json(flow, &entry, micros, trace)
}

/// An engine worker pool sized by `--jobs`, backed by the `--cache-dir`
/// store when one is given.
fn runner(args: &Args) -> Result<(SuiteRunner, Option<Arc<ResultCache>>), String> {
    let store = args.store()?;
    let mut runner = SuiteRunner::new(args.jobs()?);
    if let Some(store) = &store {
        runner = runner.with_store(store.clone());
    }
    Ok((runner, store))
}

/// Runs a Table-I-style job list with progress on stderr, keeping each
/// job's sample for the bench report.
fn run_suite(runner: &SuiteRunner, jobs: &[Job]) -> (SuiteReport, Vec<JobSample>) {
    let mut samples = vec![JobSample::default(); jobs.len()];
    let report = runner.run_with_progress(jobs, |o| {
        samples[o.index] = JobSample::from_outcome(&o);
        progress_event(&o);
    });
    sfq_t1::obs::gauge("store.disk.entries", report.cache.disk.entries as i64);
    (report, samples)
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

/// The optional `[width]` positional (0 = the benchmark's default).
fn width(args: &Args) -> Result<usize, String> {
    args.positional(1)
        .map(|a| a.parse().map_err(|e| format!("bad width: {e}")))
        .transpose()
        .map(Option::unwrap_or_default)
}

/// Resolves the `opt`/`sta` subject: a known benchmark name (built through
/// the shared [`sfq_t1::circuits::named`] registry) or an AIGER file.
fn load_subject(args: &Args) -> Result<(&str, Aig), String> {
    let name = args.positional(0).expect("required positional");
    let aig = if sfq_t1::circuits::named::is_known(name) {
        sfq_t1::circuits::named::build(name, width(args)?)?
    } else if std::path::Path::new(name).exists() {
        load_aig(name)?
    } else {
        return Err(format!(
            "'{name}' is neither a known benchmark ({}) nor an existing AIGER file",
            sfq_t1::circuits::named::known_names().join(", ")
        ));
    };
    Ok((name, aig))
}

/// Runs the `sfq-opt` pipeline standalone: per-pass stats table, optional
/// fixpoint iteration, optional SAT-checked equivalence, optional export.
fn cmd_opt(args: &Args) -> Result<(), String> {
    if args.has("--rounds") && !args.has("--fixpoint") {
        return Err("opt: --rounds only limits --fixpoint iteration".into());
    }
    let (name, aig) = load_subject(args)?;
    let (slack_aware, dff_aware) = (args.has("--slack-aware"), args.has("--dff-aware"));
    if slack_aware && dff_aware {
        return Err("opt: --slack-aware and --dff-aware are mutually exclusive".into());
    }
    // --passes replaces the whole pipeline, so combining it with a preset
    // selector would silently discard the preset — hard-error instead.
    if args.has("--passes") && (slack_aware || dff_aware) {
        return Err(
            "opt: --passes replaces the whole pipeline; drop --slack-aware/--dff-aware \
             and name the passes directly (e.g. --passes strash,sweep,rewrite-dff,balance)"
                .into(),
        );
    }
    let mut config = if slack_aware {
        OptConfig::slack_aware()
    } else if dff_aware {
        OptConfig::dff_aware(4)
    } else {
        OptConfig::standard()
    };
    if let Some(list) = args.value("--passes") {
        config.passes = parse_passes(list)?;
    }
    // --phases parameterizes DFF-objective rewriting wherever it came from
    // (--dff-aware or a --passes list naming rewrite-dff); anywhere else it
    // would be a silent no-op, which is a hard error like any unknown flag.
    if let Some(n) = args.positive::<u32>("--phases")? {
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
    config.fixpoint = args.has("--fixpoint");
    if let Some(rounds) = args.positive("--rounds")? {
        config.max_rounds = rounds;
    }

    // Same observation-only recorder as the suite: `--trace` and
    // `--bench-json` watch the run without changing its output.
    let observer = Observer::start(args, false);
    let opt_start = std::time::Instant::now();

    let (optimized, report, verified) = if args.has("--verify") {
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

    if args.has("--stats") {
        println!(
            "\n{:>5} {:<13} {:>15} {:>10} {:>7} {:>9}",
            "round", "pass", "nodes", "depth", "applied", "µs"
        );
        for (round, stats) in report.rounds.iter().enumerate() {
            for s in stats {
                println!(
                    "{:>5} {:<13} {:>7}->{:<7} {:>4}->{:<5} {:>7} {:>9}",
                    round + 1,
                    s.pass,
                    s.nodes_before,
                    s.nodes_after,
                    s.depth_before,
                    s.depth_after,
                    s.applied,
                    s.micros
                );
            }
        }
        // Equal hashes mean equal networks, bit for bit.
        println!("structural hash: {:#018x}", optimized.structural_hash());
    }

    if let Some(run) = verified {
        match run.verdict {
            CecVerdict::Equivalent => println!(
                "verified equivalent: {} pass checks, {} unchanged passes skipped, \
                 {} simulation words, {} sweep merges, {} SAT queries{}",
                run.checked_stages,
                run.skipped_stages,
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

    if let Some(out) = args.value("-o") {
        write_aiger(out, &optimized)?;
        println!("optimized AIGER -> {out}");
    }

    let trace = observer.take();
    observer.write(&trace, || {
        let (ands, depth) = (optimized.and_count() as u64, report.depth_after as u64);
        tool_report("opt", name, opt_micros, ands, depth, &trace)
    })
}

/// Writes `aig` as binary AIGER when `path` ends in `.aig`, ASCII otherwise.
fn write_aiger(path: &str, aig: &Aig) -> Result<(), String> {
    let payload = if path.ends_with(".aig") {
        aiger::write_binary(aig)
    } else {
        aiger::write_ascii(aig).into_bytes()
    };
    write_file(path, payload)
}

/// Flow configuration shared by `map`, `verify` and `sta --mapped`:
/// `--phases` (default 4) and `--no-t1`.
fn flow_config(args: &Args) -> Result<(u32, FlowConfig), String> {
    let phases: u32 = args.positive("--phases")?.unwrap_or(4);
    let builder = if args.has("--no-t1") {
        Flow::Multiphase.preset(phases)?
    } else {
        Flow::T1
            .preset(phases)
            .map_err(|e| format!("{e} (use --no-t1 for fewer)"))?
    };
    Ok((phases, builder.build()))
}

/// Static timing analysis: unit-delay slack over the AIG, or phase-granular
/// schedule slack over the mapped netlist (`--mapped`).
fn cmd_sta(args: &Args) -> Result<(), String> {
    use sfq_t1::sta::{AigSta, TimingReport};
    use sfq_t1::t1map::timing::analyze_mapped;

    let mapped = args.has("--mapped");
    if !mapped && (args.has("--phases") || args.has("--no-t1")) {
        return Err("sta: --phases and --no-t1 only apply with --mapped".into());
    }
    let top_paths: usize = args.parse("--top-paths")?.unwrap_or(3);
    let (name, mut aig) = load_subject(args)?;
    if args.has("--pre-opt") {
        aig = optimize(&aig, &OptConfig::standard()).0;
    }
    // Same observation-only recorder as the suite: `--trace` and
    // `--bench-json` watch the analysis without changing its output.
    let observer = Observer::start(args, false);
    let sta_start = std::time::Instant::now();
    let mut report_depth = aig.depth() as u64;
    println!(
        "{name}: {} PIs, {} POs, {} ANDs, depth {}",
        aig.pi_count(),
        aig.po_count(),
        aig.and_count(),
        aig.depth()
    );

    if mapped {
        let (phases, cfg) = flow_config(args)?;
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
        if let Some(path) = args.value("--csv") {
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
            write_file(path, csv)?;
            println!("timing CSV -> {path}");
        }
    } else {
        let sta = AigSta::new(&aig);
        let report = TimingReport::new(sta.graph(), sta.analysis(), top_paths);
        print!("unit-delay timing: {report}");
        if let Some(path) = args.value("--csv") {
            write_file(path, TimingReport::node_csv(sta.graph(), sta.analysis()))?;
            println!("timing CSV -> {path}");
        }
    }

    let sta_micros = sta_start.elapsed().as_micros() as u64;
    let trace = observer.take();
    let ands = aig.and_count() as u64;
    observer.write(&trace, || {
        tool_report("sta", name, sta_micros, ands, report_depth, &trace)
    })
}

/// `small` → CI-scale widths and its report label; otherwise paper scale.
fn scale(small: bool) -> (BenchmarkScale, &'static str) {
    if small {
        (BenchmarkScale::small(), "small")
    } else {
        (BenchmarkScale::paper(), "paper")
    }
}

/// Runs the full Table-I suite through the `sfq-engine` worker pool.
fn cmd_suite(args: &Args) -> Result<(), String> {
    let phases: u32 = args.parse("--phases")?.unwrap_or(4);
    Flow::T1
        .preset(phases)
        .map_err(|e| format!("suite runs the T1 flow: {e}"))?;
    let pre_opt = args.has("--pre-opt");
    let stats = args.has("--stats");
    // One recorder feeds every sink: the `--stats` summary table, the
    // `--trace` Chrome trace and the `--bench-json` span rollups are all
    // views of the same run. Observation only — the table and CSV are
    // byte-identical whether or not anything observes.
    let observer = Observer::start(args, stats);

    let (scale, scale_name) = scale(args.has("--small"));
    let lib = CellLibrary::default();
    println!(
        "Table I — multiphase clocking with T1 cells ({scale_name} scale, n = {phases} phases{})\n",
        if pre_opt { ", pre-opt" } else { "" }
    );
    let jobs = table1_jobs_with(&scale, phases, &lib, pre_opt);
    let (runner, store) = runner(args)?;
    let (report, samples) = run_suite(&runner, &jobs);
    let trace = observer.take();

    let table = table_one(&jobs, &report);
    println!("\n{table}");
    println!(
        "paper averages for comparison: DFF T1/1φ 0.35, T1/4φ 0.94; \
         area 0.59 / 0.94; depth 0.29 / 1.13"
    );
    if store.is_some() || stats {
        println!("{}", store_summary(&report));
    }
    if stats {
        print!("{}", trace.summary());
    }
    progress_line(suite_summary(jobs.len(), &report));
    if let Some(path) = args.value("--csv") {
        write_file(path, table.to_csv())?;
        println!("CSV written to {path}");
    }
    observer.write(&trace, || {
        let meta = table1_meta(scale_name, phases, pre_opt);
        bench_report_json(&meta, &jobs, &report, &samples, &trace)
    })
}

fn table1_meta(scale: &str, phases: u32, pre_opt: bool) -> ReportMeta {
    ReportMeta {
        suite: "table1".to_string(),
        scale: scale.to_string(),
        phases,
        pre_opt,
    }
}

/// Runs a design-space sweep from a spec file: expansion with
/// fingerprint deduplication, execution through the suite engine (with
/// any `--cache-dir` result store), per-benchmark Pareto frontiers, and
/// the validated `EXPLORE_*.json` report.
fn cmd_explore(args: &Args) -> Result<(), String> {
    let spec_path = args.positional(0).expect("required positional");
    let text =
        std::fs::read_to_string(spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let spec = sfq_t1::explore::spec::parse(&text).map_err(|e| format!("{spec_path}: {e}"))?;
    let (runner, store) = runner(args)?;
    let observer = Observer::start(args, false);
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
    let trace = observer.take();

    println!();
    print!("{}", frontier_table(&run));
    if store.is_some() {
        println!("{}", store_summary(&run.report));
    }
    println!("{}", explore_summary(&run));

    let out = args
        .value("-o")
        .map(str::to_string)
        .unwrap_or_else(|| format!("EXPLORE_{}.json", run.spec.name));
    let report_text = explore_report_json(&run);
    // A report that fails its own schema must never reach disk.
    sfq_t1::explore::validate(&report_text)
        .map_err(|e| format!("internal: emitted report invalid: {e}"))?;
    write_file(&out, report_text)?;
    println!("explore report written to {out}");

    if let Some(path) = args.value("--csv") {
        write_file(path, sfq_t1::explore::report::points_csv(&run))?;
        println!("CSV written to {path}");
    }
    observer.write(&trace, || {
        let meta = ReportMeta {
            suite: "explore".to_string(),
            scale: run.spec.name.clone(),
            phases: run.spec.phases[0],
            pre_opt: run.spec.opts.contains(&"pre-opt"),
        };
        bench_report_json(&meta, &run.jobs, &run.report, &run.samples, &trace)
    })
}

/// `store gc DIR --keep-newest N [--max-bytes B]`: evicts all but the
/// newest `N` entries, then keeps evicting oldest-first until at most
/// `B` bytes remain (when given); stale-format debris is always swept.
fn cmd_store_gc(args: &Args) -> Result<(), String> {
    let dir = args.positional(0).expect("required positional");
    let keep: usize = args
        .parse("--keep-newest")?
        .ok_or("store gc: --keep-newest N required")?;
    let max_bytes: Option<u64> = args.parse("--max-bytes")?;
    let store = DiskStore::open(dir).map_err(|e| format!("cannot open store {dir}: {e}"))?;
    let s = store.gc_with_budget(keep, max_bytes);
    println!(
        "store gc: evicted {} entries ({} bytes); {} entries ({} bytes) remain in {dir}",
        s.removed, s.removed_bytes, s.remaining, s.remaining_bytes
    );
    Ok(())
}

/// Emits (or, with `--check`, validates) the schema-versioned
/// `BENCH_*.json` perf-trajectory report: the Table-I suite with tracing
/// on, rolled up into per-benchmark wall micros, result metrics,
/// cache-source breakdown and span totals.
fn cmd_bench_report(args: &Args) -> Result<(), String> {
    if let Some(path) = args.value("--check") {
        if let Some(flag) = ["--small", "--pre-opt", "--jobs", "--cache-dir", "-o"]
            .into_iter()
            .find(|&f| args.has(f))
        {
            return Err(format!(
                "bench-report: {flag} has no effect with --check (which only validates FILE)"
            ));
        }
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        validate_bench_report(&text).map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: valid bench report");
        return Ok(());
    }
    let pre_opt = args.has("--pre-opt");
    let (runner, _) = runner(args)?;
    let out = args.value("-o").unwrap_or("BENCH_table1.json");
    let phases = 4u32;
    sfq_t1::obs::enable();

    let (scale, scale_name) = scale(args.has("--small"));
    let lib = CellLibrary::default();
    let mut jobs = table1_jobs_with(&scale, phases, &lib, pre_opt);
    // The allocation-sensitive rows: fixpoint optimization dominates their
    // alloc_bytes, so the diff against the committed baseline tracks the
    // optimizer's allocation cost.
    jobs.extend(fixpoint_opt_jobs(&scale, phases, &lib));
    let (report, samples) = run_suite(&runner, &jobs);
    let trace = sfq_t1::obs::take();
    progress_line(suite_summary(jobs.len(), &report));

    let meta = table1_meta(scale_name, phases, pre_opt);
    let text = bench_report_json(&meta, &jobs, &report, &samples, &trace);
    // A report that fails its own schema must never reach disk.
    validate_bench_report(&text).map_err(|e| format!("internal: emitted report invalid: {e}"))?;
    write_file(out, text)?;
    println!("bench report written to {out}");
    Ok(())
}

/// `bench-report diff BASELINE CURRENT [--max-regress-pct N] [--json]`:
/// the regression gate. Prints the per-job table (or, with `--json`, the
/// machine-readable verdict) and fails — nonzero exit — iff any job
/// regressed beyond its allowance.
fn cmd_bench_diff(args: &Args) -> Result<(), String> {
    let read = |i: usize| {
        let path = args.positional(i).expect("required positional");
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    let pct: u64 = args
        .parse("--max-regress-pct")?
        .unwrap_or(DEFAULT_MAX_REGRESS_PCT);
    let diff = diff_reports(&read(0)?, &read(1)?, pct)?;
    if args.has("--json") {
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
/// [option ...]`, read by [`sfq_t1::explore::parse_request`]. Blank lines
/// and `#` comments are ignored; `---` flushes the accumulated batch
/// through the engine early (responses stream back in completion order;
/// this thread is one of the `--jobs` workers, so a response from another
/// worker waits at most until this thread's current job ends); EOF
/// flushes and exits. All requests share one result store for the whole
/// session — with `--cache-dir`, the persistent one.
fn cmd_serve(args: &Args) -> Result<(), String> {
    use std::io::{BufRead, Write};

    let workers = args.jobs()?;
    let store = args
        .store()?
        .unwrap_or_else(|| Arc::new(ResultCache::new()));
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

    // Lines are read as bytes: one that is not UTF-8 is a bad request,
    // answered like any other, not the end of the session.
    for line in stdin.lock().split(b'\n') {
        let line = line.map_err(|e| format!("serve: cannot read stdin: {e}"))?;
        let text = String::from_utf8_lossy(&line);
        let trimmed = text.trim();
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
        let request = match std::str::from_utf8(&line) {
            Ok(_) => parse_serve_request(trimmed, &lib),
            Err(e) => Err(format!("request is not valid UTF-8: {e}")),
        };
        match request {
            Ok(job) => batch.push((index, job)),
            Err(e) => respond(format!("err {index} {e}"))?,
        }
    }
    flush(&mut batch)
}

/// One-line counters/histogram snapshot for the serve `stats` control
/// line: session-lifetime cache counters, live/peak process memory and
/// compute-latency percentiles.
fn serve_stats_line(store: &ResultCache) -> String {
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

/// Turns one `serve` request line into a [`Job`] (see [`cmd_serve`]):
/// [`sfq_t1::explore::parse_request`] checks the whole line, the same
/// vocabulary an explore spec is read with, and only then is the subject
/// built.
fn parse_serve_request(line: &str, lib: &CellLibrary) -> Result<Job, String> {
    let request = sfq_t1::explore::parse_request(line)?;
    let aig = sfq_t1::circuits::named::build(request.name, request.width)?;
    Ok(Job::new(
        request.subject,
        request.flow.token(),
        Arc::new(aig),
        *lib,
        request.config,
    ))
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let name = args.positional(0).expect("required positional");
    if name == "random" && args.positional(1).is_some() {
        return Err("gen random: takes no width (size it with --nodes N)".into());
    }
    if let Some(flag) = ["--nodes", "--seed"]
        .into_iter()
        .find(|&f| name != "random" && args.has(f))
    {
        return Err(format!("gen: {flag} only applies to `gen random`"));
    }
    let out = args.value("-o").unwrap_or("out.aag");
    let aig = if name == "random" {
        // The `scale-100k` generator under any seed, so CI smoke sizes are
        // a one-flag choice; its largest width bounds --nodes.
        let nodes: usize = args
            .positive("--nodes")?
            .ok_or("gen random: --nodes <count> required")?;
        let seed: u64 = args
            .parse("--seed")?
            .unwrap_or(sfq_t1::circuits::named::SCALE_SEED);
        sfq_t1::circuits::named::build_random(seed, nodes)
            .map_err(|e| format!("gen random --nodes: {e}"))?
    } else {
        sfq_t1::circuits::named::build(name, width(args)?)?
    };
    write_aiger(out, &aig)?;
    println!(
        "{name}: {} inputs, {} outputs, {} AND gates -> {out}",
        aig.pi_count(),
        aig.po_count(),
        aig.and_count()
    );
    Ok(())
}

fn map_flow(args: &Args, verify: bool) -> Result<(), String> {
    if args.has("--models") && !args.has("--verilog") {
        return Err("--models only applies together with --verilog".into());
    }
    let path = args.positional(0).expect("required positional");
    let aig = load_aig(path)?;
    let (phases, mut cfg) = flow_config(args)?;
    if args.has("--exact") {
        cfg.engine = PhaseEngine::Exact;
    }
    if args.has("--pre-opt") {
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

    if let Some(dfile) = args.value("--dot") {
        write_file(dfile, sfq_t1::t1map::dot::to_dot(&res))?;
        println!("  graphviz -> {dfile}");
    }
    if let Some(vfile) = args.value("--verilog") {
        write_file(vfile, export(&res, &ExportOptions::default()))?;
        println!("  structural Verilog -> {vfile}");
        if let Some(mfile) = args.value("--models") {
            write_file(mfile, cell_models())?;
            println!("  cell models -> {mfile}");
        }
    }

    if verify {
        let waves: usize = args.positive("--waves")?.unwrap_or(8);
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
