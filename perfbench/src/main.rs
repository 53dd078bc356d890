//! End-to-end and per-layer benchmark of the sfq-t1 workspace.
//!
//! ```text
//! perfbench --workload <table1|opt-verify|sweep-warm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one engine worker. `--trace 0` is a timed run: it prints
//! the end-to-end metrics of [`END_TO_END`]. `--trace 1` is the separate
//! traced run: it prints the per-layer metrics of [`PER_LAYER`], measured
//! from this crate around calls into the layers, plus the tracing
//! overhead. Every run checks the program's outputs; the last line of
//! standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod layers;
mod measure;
mod opt_verify;
mod sweep_warm;
mod table1;

use measure::{Metrics, WorkDir};
use std::process::ExitCode;
use std::time::Duration;

// The allocator the CLI installs: one relaxed load per call until the
// recorder is enabled, exact per-thread byte tallies after.
#[global_allocator]
static ALLOC: sfq_obs::alloc::CountingAlloc = sfq_obs::alloc::CountingAlloc::new();

/// End-to-end metrics `(name, unit)`, printed by every workload.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("correct_frac", "ratio"),
    ("area_jj", "JJ"),
    ("dffs", "count"),
    ("depth_cycles", "cycles"),
    ("t1_area_ratio", "ratio"),
    ("ands_out", "count"),
    ("depth_out", "levels"),
];

/// Per-layer metrics `(name, unit)` of the traced run. A layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("t1map.baseline_map_ms", "ms"),
    ("t1map.detect_ms", "ms"),
    ("t1map.map_ms", "ms"),
    ("t1map.phase_ms", "ms"),
    ("t1map.dff_ms", "ms"),
    ("sta.timing_ms", "ms"),
    ("t1map.baseline_map_alloc_mb", "MB"),
    ("t1map.detect_alloc_mb", "MB"),
    ("t1map.map_alloc_mb", "MB"),
    ("t1map.phase_alloc_mb", "MB"),
    ("t1map.dff_alloc_mb", "MB"),
    ("sta.timing_alloc_mb", "MB"),
    ("t1map.map_calls", "count"),
    ("t1map.t1_found", "count"),
    ("t1map.t1_used", "count"),
    ("netlist.cuts3_ms", "ms"),
    ("netlist.cuts3_total", "count"),
    ("netlist.cuts3_alloc_mb", "MB"),
    ("opt.strash_ms", "ms"),
    ("opt.sweep_ms", "ms"),
    ("opt.rewrite_ms", "ms"),
    ("opt.balance_ms", "ms"),
    ("opt.rounds", "count"),
    ("opt.applied", "count"),
    ("opt.alloc_mb", "MB"),
    ("cec.ms", "ms"),
    ("cec.sat_queries", "count"),
    ("cec.sweep_merges", "count"),
    ("cec.sim_words", "count"),
    ("cec.alias_skips", "count"),
    ("cec.checked_stages", "count"),
    ("engine.key_ms", "ms"),
    ("engine.overhead_ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.put_kb", "KiB"),
    ("store.puts", "count"),
    ("store.get_ms", "ms"),
    ("store.get_kb", "KiB"),
    ("store.disk_hits", "count"),
    ("store.decode_errors", "count"),
    ("explore.expand_ms", "ms"),
    ("explore.pareto_ms", "ms"),
    ("circuits.build_ms", "ms"),
    ("trace.untraced_pass_ms", "ms"),
    ("trace.traced_pass_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// The benchmark workloads.
const WORKLOADS: [&str; 3] = ["table1", "opt-verify", "sweep-warm"];

/// Parsed command line.
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed: drives every generated input and check vector.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Traced run (per-layer metrics) instead of a timed run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = sfq_circuits::named::SCALE_SEED;
    let mut seconds = 30u64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload '{value}' (one of: {})",
                        WORKLOADS.join(", ")
                    ));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| format!("bad --seconds '{value}'"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}' (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed,
        window: Duration::from_secs(seconds),
        trace,
    })
}

/// What a run reports besides its metrics.
#[derive(Debug, Default)]
pub struct Tally {
    /// Jobs whose outputs were checked.
    pub attempted: u64,
    /// Jobs that failed a check.
    pub failed: u64,
    /// Run-level checks (not tied to one job) that failed.
    pub run_failures: Vec<String>,
}

impl Tally {
    /// Records one job's check outcome.
    pub fn job(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a run-level check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.run_failures.push(what());
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::create() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    match args.workload.as_str() {
        "table1" => table1::run(&args, &work, &mut tally, &mut metrics),
        "opt-verify" => opt_verify::run(&args, &mut tally, &mut metrics),
        "sweep-warm" => sweep_warm::run(&args, &work, &mut tally, &mut metrics),
        _ => unreachable!("workload validated by parse_args"),
    }
    drop(work);

    let table: &[(&str, &str)] = if args.trace {
        &PER_LAYER
    } else {
        metrics.set("peak_rss_mb", measure::peak_rss_mb());
        metrics.set(
            "correct_frac",
            1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
        );
        &END_TO_END
    };
    for failure in &tally.run_failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let correct = tally.failed == 0 && tally.run_failures.is_empty() && tally.attempted > 0;
    println!(
        "{}",
        metrics.render(table, correct, tally.attempted.max(1), tally.failed)
    );
    ExitCode::SUCCESS
}
