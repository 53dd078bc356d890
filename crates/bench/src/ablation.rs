//! Ablation studies extending the paper's evaluation (`sfq-t1 ablation`):
//!
//! 1. **Phase-count sweep** (`abl-phases`): area/DFF/depth of the baseline
//!    and T1 flows as the number of clock phases varies. The paper fixes
//!    n = 4; the sweep shows where the T1 advantage peaks.
//! 2. **Heuristic vs exact phase assignment** (`abl-exact`): the optimality
//!    gap of the scalable local search against the exact MILP, on instances
//!    the MILP can solve.
//! 3. **Sharing-aware retiming** (`abl-retime`): the per-edge objective of
//!    the paper's ILP vs our shared-chain objective — how much the richer
//!    cost model saves on realized DFFs.
//! 4. **Pre-mapping optimization** (`abl-opt`): node/depth/#DFF deltas of
//!    the `sfq-opt` fixpoint pipeline on every Table-I benchmark.
//! 5. **Slack-aware rewriting** (`abl-sta`): what required-time-bounded
//!    rewriting (`sfq-sta` slack) buys over the conservative pipeline —
//!    node/depth deltas at the AIG level and #DFF deltas end to end.
//!
//! ```sh
//! sfq-t1 ablation [--jobs N] [--pre-opt] [--small|--paper] [--cache-dir DIR]
//! ```
//!
//! `--pre-opt` additionally runs the phase sweep itself on pre-optimized
//! networks. The benchmark-suite sections (`abl-opt`, `abl-sta`) run at
//! small scale by default (`--small` spells it out, as CI does); `--paper`
//! selects the full Table-I widths. With `--cache-dir` every engine-backed
//! section shares one persistent result store, so repeated runs (and other
//! front ends pointed at the same directory) skip already-computed flows.

use crate::args::{Args, Command, Flag, CACHE_DIR, JOBS, PRE_OPT, SMALL};
use crate::{
    opt_sweep_jobs, phase_sweep_jobs, progress_event, progress_line, slack_sweep_jobs,
    BenchmarkScale, SWEEP_PHASES,
};
use sfq_circuits::epfl;
use sfq_engine::SuiteRunner;
use std::sync::Arc;
use t1map::cells::CellLibrary;
use t1map::dff::insert_dffs;
use t1map::flow::{run_flow, FlowConfig};
use t1map::mapper::map;
use t1map::phase::{assign_phases_exact, assign_phases_with, edge_dff_objective, SearchObjective};

/// The `ablation` command's flag table.
pub const ABLATION: Command = Command {
    name: "ablation",
    positionals: "",
    about: "ablation studies extending the paper's evaluation",
    flags: &[JOBS, PRE_OPT, SMALL, PAPER, CACHE_DIR],
};
const PAPER: Flag = Flag("--paper  Table-I widths for the suite sections");

/// Runs every ablation section, printing each table to stdout and the
/// engine's per-job progress to stderr.
///
/// # Errors
///
/// Rejects `--small` together with `--paper`, and propagates `--jobs` and
/// `--cache-dir` errors, before any section runs.
pub fn run(args: &Args) -> Result<(), String> {
    let paper = args.has("--paper");
    if paper && args.has("--small") {
        return Err("ablation: --small and --paper are mutually exclusive".into());
    }
    let mut runner = SuiteRunner::new(args.jobs()?);
    if let Some(store) = args.store()? {
        runner = runner.with_store(store);
    }
    let pre_opt = args.has("--pre-opt");
    let lib = CellLibrary::default();
    // The suite sections run small-scale unless --paper asks for Table-I
    // widths (--small spells the default out; CI passes it explicitly).
    let (suite_scale, scale_label) = if paper {
        (BenchmarkScale::paper(), "paper scale")
    } else {
        (BenchmarkScale::small(), "small scale")
    };
    println!(
        "=== abl-phases: phase-count sweep (64-bit adder{}) ===",
        if pre_opt { ", pre-opt" } else { "" }
    );
    println!(
        "{:>2} | {:>9} {:>9} {:>6} | {:>9} {:>9} {:>6} | {:>10}",
        "n", "base DFF", "base area", "depth", "T1 DFF", "T1 area", "depth", "area ratio"
    );
    let aig = Arc::new(epfl::adder(64));
    // Each sweep point submits (baseline, T1, shared 1φ reference); the
    // engine's content-addressed cache computes the repeated 1φ job once.
    let jobs = phase_sweep_jobs("adder64", &aig, &lib, pre_opt);
    let report = runner.run_with_progress(&jobs, |o| progress_event(&o));
    for (n, triple) in SWEEP_PHASES.iter().zip(report.results.chunks(3)) {
        let (base, t1) = (&triple[0].stats, &triple[1].stats);
        println!(
            "{n:>2} | {:>9} {:>9} {:>6} | {:>9} {:>9} {:>6} | {:>10.3}",
            base.dffs,
            base.area,
            base.depth_cycles,
            t1.dffs,
            t1.area,
            t1.depth_cycles,
            t1.area as f64 / base.area as f64,
        );
    }
    // Single-phase reference (T1 is infeasible below three phases) —
    // computed once, served from cache for every other sweep point.
    let base1 = &report.results[2].stats;
    println!(
        " 1 | {:>9} {:>9} {:>6} | {:>9} {:>9} {:>6} | {:>10}",
        base1.dffs, base1.area, base1.depth_cycles, "-", "-", "-", "-"
    );
    progress_line(format_args!(
        "sweep: {} jobs on {} workers in {:.1?} ({} cache hits, {} flow runs)",
        jobs.len(),
        report.workers,
        report.elapsed,
        report.cache.hits(),
        report.cache.misses
    ));

    println!("\n=== abl-exact: heuristic vs exact MILP (per-edge ILP objective) ===");
    println!(
        "{:<10} {:>2} | {:>10} {:>10} {:>7}",
        "circuit", "n", "heuristic", "exact", "gap"
    );
    for (name, aig) in [
        ("adder2", epfl::adder(2)),
        ("adder3", epfl::adder(3)),
        ("adder4", epfl::adder(4)),
    ] {
        let mc = map(&aig, &lib, None).circuit;
        for n in [1u32, 2, 4] {
            let h = assign_phases_with(&mc, n, 3, SearchObjective::PerEdge);
            let ho = edge_dff_objective(&mc, &h);
            match assign_phases_exact(&mc, n) {
                Ok(e) => {
                    let eo = edge_dff_objective(&mc, &e);
                    let gap = if eo == 0 {
                        0.0
                    } else {
                        (ho as f64 - eo as f64) / eo as f64 * 100.0
                    };
                    println!("{name:<10} {n:>2} | {ho:>10} {eo:>10} {gap:>6.1}%");
                }
                Err(err) => println!("{name:<10} {n:>2} | {ho:>10} {:>10} (exact: {err})", "-"),
            }
        }
    }

    println!("\n=== abl-arch: adder architecture (ripple-carry vs Kogge-Stone) ===");
    println!(
        "{:<14} | {:>5} {:>5} | {:>9} {:>9} {:>10} | {:>6} {:>6}",
        "adder (32b)", "found", "used", "base area", "T1 area", "area ratio", "base D", "T1 D"
    );
    {
        use sfq_circuits::arith;
        use sfq_netlist::aig::Aig;
        let rca = epfl::adder(32);
        let mut ks = Aig::new();
        let a: Vec<_> = (0..32).map(|_| ks.add_pi()).collect();
        let b: Vec<_> = (0..32).map(|_| ks.add_pi()).collect();
        let (sum, carry) = arith::kogge_stone_adder(&mut ks, &a, &b);
        for s in sum {
            ks.add_po(s);
        }
        ks.add_po(carry);
        for (name, aig) in [("ripple-carry", rca), ("kogge-stone", ks)] {
            let base = run_flow(&aig, &lib, &FlowConfig::multiphase(4));
            let t1 = run_flow(&aig, &lib, &FlowConfig::t1(4));
            println!(
                "{name:<14} | {:>5} {:>5} | {:>9} {:>9} {:>10.3} | {:>6} {:>6}",
                t1.stats.t1_found,
                t1.stats.t1_used,
                base.stats.area,
                t1.stats.area,
                t1.stats.area as f64 / base.stats.area as f64,
                base.stats.depth_cycles,
                t1.stats.depth_cycles,
            );
        }
        println!(
            "(prefix adders trade the T1-friendly full-adder chain for shared\n\
             AND/OR prefix nodes: far fewer candidates, lower latency)"
        );
    }

    println!("\n=== abl-select: greedy vs exact (ILP) T1 group selection ===");
    println!(
        "{:<10} | {:>6} {:>12} {:>12} {:>12}",
        "circuit", "cands", "greedy gain", "exact gain", "greedy used"
    );
    {
        use t1map::detect::{detect, select_exact, DetectConfig};
        for (name, aig) in [
            ("adder8", epfl::adder(8)),
            ("adder16", epfl::adder(16)),
            ("square8", epfl::square(8)),
        ] {
            let res = detect(&aig, &lib, &DetectConfig::default());
            let greedy: i64 = res.selection.groups.iter().map(|g| g.gain.max(0)).sum();
            match select_exact(&aig, &res.candidates) {
                Ok(exact) => {
                    let eg: i64 = exact.groups.iter().map(|g| g.gain.max(0)).sum();
                    println!(
                        "{name:<10} | {:>6} {:>12} {:>12} {:>12}",
                        res.found(),
                        greedy,
                        eg,
                        res.selected()
                    );
                }
                Err(e) => println!(
                    "{name:<10} | {:>6} {greedy:>12} {:>12} ({e})",
                    res.found(),
                    "-"
                ),
            }
        }
        println!("(greedy-by-gain matches the ILP optimum on these instances)");
    }

    println!("\n=== abl-jitter: clock-jitter margin of the T1 staggering ===");
    println!(
        "{:>10} | {:>8} {:>10} {:>12}",
        "jitter", "hazards", "bit errors", "margin used"
    );
    {
        use sfq_sim::pulse::{SimOptions, SLOT, T1_MIN_SEPARATION};
        use t1map::sim_bridge::{random_waves, to_pulse_circuit};
        let aig = epfl::adder(16);
        let res = run_flow(&aig, &lib, &FlowConfig::t1(4));
        let pc = to_pulse_circuit(&res.mapped, &res.schedule, &res.plan);
        let vectors = random_waves(aig.pi_count(), 16, 0xFEE1_600D);
        // The nominal margin: pulses are SLOT apart, hazard below
        // T1_MIN_SEPARATION, so overlap needs 2·jitter > SLOT − threshold.
        for amplitude in [0u64, 100, 200, 250, 300, 400, 600, 900] {
            let mut hazards = 0u64;
            let mut errors = 0u64;
            for js in 0..4u64 {
                let out = pc
                    .simulate_opts(
                        &vectors,
                        4,
                        SimOptions {
                            jitter_amplitude: amplitude,
                            jitter_seed: js,
                        },
                    )
                    .expect("valid schedule");
                hazards += out.hazards;
                for (k, v) in vectors.iter().enumerate() {
                    let expect = aig.eval(v);
                    errors += out.outputs[k]
                        .iter()
                        .zip(expect.iter())
                        .filter(|(a, b)| a != b)
                        .count() as u64;
                }
            }
            println!(
                "{:>9}± | {:>8} {:>10} {:>11.0}%",
                amplitude,
                hazards,
                errors,
                200.0 * amplitude as f64 / (SLOT - T1_MIN_SEPARATION) as f64
            );
        }
        println!(
            "(one stage slot = {SLOT}, hazard threshold = {T1_MIN_SEPARATION}: T1 pulse overlap \
             needs ~±{} of jitter.\n Functional bit errors appear much earlier: edges that use \
             the full n-stage\n capture window have only the clock-to-output delay ({} units) of \
             hold margin\n — the timing bottleneck is window-filling path balancing, not the T1 \
             staggering.)",
            (SLOT - T1_MIN_SEPARATION) / 2,
            sfq_sim::pulse::EMIT_DELAY
        );
    }

    println!("\n=== abl-opt: sfq-opt pre-mapping pipeline ({scale_label}, T1@4φ) ===");
    println!(
        "{:<10} | {:>6} {:>6} {:>6} | {:>5} {:>5} | {:>8} {:>8} {:>7}",
        "circuit", "nodes", "opt", "Δ%", "depth", "opt", "T1 DFF", "opt DFF", "Δ%"
    );
    {
        let scale = suite_scale;
        let jobs = opt_sweep_jobs(&scale, 4, &lib);
        let report = runner.run(&jobs);
        for (pair, job) in report.results.chunks(2).zip(jobs.iter().step_by(2)) {
            // The T1+opt flow already ran the pipeline inside the engine.
            let opt_report = pair[1].pre_opt.as_ref().expect("T1+opt ran pre-opt");
            let (plain, opted) = (&pair[0].stats, &pair[1].stats);
            println!(
                "{:<10} | {:>6} {:>6} {:>5.1}% | {:>5} {:>5} | {:>8} {:>8} {:>6.1}%",
                job.name,
                opt_report.nodes_before,
                opt_report.nodes_after,
                100.0 * opt_report.node_delta() as f64 / opt_report.nodes_before.max(1) as f64,
                opt_report.depth_before,
                opt_report.depth_after,
                plain.dffs,
                opted.dffs,
                100.0 * (opted.dffs as f64 - plain.dffs as f64) / plain.dffs.max(1) as f64,
            );
        }
        println!(
            "(negative Δ = reduction; the pipeline is guarded, so nodes and depth\n\
             never increase — DFFs can move either way since path-balancing cost\n\
             depends on the schedule, not just the gate count)"
        );
    }

    println!("\n=== abl-sta: slack-aware vs conservative rewriting ({scale_label}, T1@4φ) ===");
    println!(
        "{:<10} | {:>6} {:>6} {:>6} | {:>5} {:>5} | {:>8} {:>8} | {:>16}",
        "circuit", "cons n", "slck n", "Δn", "consD", "slckD", "cons DFF", "slck DFF", "delta"
    );
    {
        let scale = suite_scale;
        let jobs = slack_sweep_jobs(&scale, 4, &lib);
        let report = runner.run(&jobs);
        let mut node_wins = 0usize;
        for (pair, job) in report.results.chunks(2).zip(jobs.iter().step_by(2)) {
            // The flows already ran both pre-opt pipelines inside the
            // engine; read their AIG-level reports instead of re-running.
            let cons = pair[0].pre_opt.as_ref().expect("T1+opt ran pre-opt");
            let slack = pair[1].pre_opt.as_ref().expect("T1+slack ran pre-opt");
            let dn = cons.nodes_after as i64 - slack.nodes_after as i64;
            if dn > 0 {
                node_wins += 1;
            }
            let (cons_flow, slack_flow) = (&pair[0].stats, &pair[1].stats);
            println!(
                "{:<10} | {:>6} {:>6} {:>+6} | {:>5} {:>5} | {:>8} {:>8} | delta {:>+5.1}% n",
                job.name,
                cons.nodes_after,
                slack.nodes_after,
                -dn,
                cons.depth_after,
                slack.depth_after,
                cons_flow.dffs,
                slack_flow.dffs,
                -100.0 * dn as f64 / cons.nodes_after.max(1) as f64,
            );
        }
        println!(
            "abl-sta: slack-aware rewriting strictly reduced nodes on {node_wins}/{} \
             benchmarks (depth never above the subject's; per-site growth is \
             bounded by required-time slack)",
            jobs.len() / 2
        );
    }

    println!("\n=== abl-retime: per-edge (paper) vs sharing-aware objective ===");
    println!(
        "{:<10} {:>2} | {:>10} {:>12} {:>8}",
        "circuit", "n", "per-edge", "share-aware", "saved"
    );
    for (name, aig) in [("adder32", epfl::adder(32)), ("square16", epfl::square(16))] {
        let mc = map(&aig, &lib, None).circuit;
        for n in [1u32, 4] {
            let pe = assign_phases_with(&mc, n, 3, SearchObjective::PerEdge);
            let sc = assign_phases_with(&mc, n, 3, SearchObjective::SharedChains);
            let pe_d = insert_dffs(&mc, &pe).total_dffs;
            let sc_d = insert_dffs(&mc, &sc).total_dffs;
            println!(
                "{name:<10} {n:>2} | {pe_d:>10} {sc_d:>12} {:>7.1}%",
                (pe_d as f64 - sc_d as f64) / pe_d as f64 * 100.0
            );
        }
    }
    Ok(())
}
