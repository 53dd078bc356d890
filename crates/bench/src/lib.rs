//! # sfq-bench
//!
//! Benchmark harness regenerating every table and figure of the paper:
//!
//! - the Table-I suite (all eight benchmarks × three flows, ratio columns
//!   and averages), which `sfq-t1 suite` prints and writes as CSV;
//! - [`args`] — the one command-line parser, a flag table per command;
//! - [`ablation`] — `sfq-t1 ablation`: phase-count sweep and
//!   heuristic-vs-exact / sharing-aware-retiming ablations (extensions
//!   beyond the paper).
//!
//! The paper-scale benchmark set is exposed as [`paper_benchmarks`] so the
//! CLI, the benchmark binary and the integration tests agree on the
//! exact workloads, and the suites themselves are exposed as `sfq-engine`
//! job lists ([`table1_jobs`], [`phase_sweep_jobs`]) so every consumer runs
//! them through the same parallel, cached execution engine.

use sfq_circuits::named;
use sfq_engine::Job;
use sfq_netlist::aig::Aig;
use std::sync::Arc;
use t1map::cells::CellLibrary;
use t1map::flow::FlowConfig;

pub mod ablation;
pub mod args;
pub mod diff;
pub mod progress;
pub mod report;
pub mod rows;
pub use diff::{diff_reports, DiffReport, DiffStatus, JobDiff, DEFAULT_MAX_REGRESS_PCT};
pub use progress::progress_line;
pub use report::{
    bench_report_json, tool_report_json, validate as validate_bench_report, JobSample, ReportEntry,
    ReportMeta,
};
pub use rows::{progress_event, store_summary, suite_summary, table_one};

/// The widths the suites build their subjects at: one per
/// [`named`] registry entry, in registry order (0 for the fixed-size
/// entries).
///
/// The generators reproduce each benchmark's *structure class*
/// (DESIGN.md §4). Paper scale is the registry's default widths, chosen
/// paper-scale where runtime permits and reduced otherwise (noted per
/// benchmark in EXPERIMENTS.md); small scale shrinks every parametric
/// benchmark for CI and unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchmarkScale {
    widths: [(&'static str, usize); named::KNOWN_BENCHMARKS.len()],
}

impl BenchmarkScale {
    /// The scale used by the shipped Table-I reproduction: every registry
    /// default (adder 128, multiplier 32, square 32, sin 16, log2 32,
    /// voter 255, scale-100k 100 000).
    pub fn paper() -> Self {
        BenchmarkScale {
            widths: named::KNOWN_BENCHMARKS.map(|(name, default, _)| (name, default)),
        }
    }

    /// A small scale for CI and unit tests.
    pub fn small() -> Self {
        BenchmarkScale {
            widths: [
                ("adder", 16),
                ("multiplier", 8),
                ("square", 8),
                ("sin", 8),
                ("log2", 16),
                ("voter", 31),
                ("c6288", 0),
                ("c7552", 0),
                ("scale-100k", 2_000),
            ],
        }
    }

    /// Builds registry entry `name` at this scale.
    fn build(&self, name: &'static str) -> (&'static str, Aig) {
        let &(_, width) = self
            .widths
            .iter()
            .find(|&&(n, _)| n == name)
            .expect("every registry name has a width");
        let aig = named::build(name, width).expect("suite widths are within the registry's bounds");
        (name, aig)
    }
}

/// The eight Table-I benchmarks, in the paper's row order.
const TABLE1_BENCHMARKS: [&str; 8] = [
    "adder",
    "c7552",
    "c6288",
    "sin",
    "voter",
    "square",
    "multiplier",
    "log2",
];

/// Builds the eight Table-I benchmarks (in the paper's row order) at the
/// given scale.
pub fn paper_benchmarks(scale: &BenchmarkScale) -> Vec<(&'static str, Aig)> {
    TABLE1_BENCHMARKS.map(|name| scale.build(name)).into()
}

/// Flow labels of the three Table-I columns, in column order. Every
/// benchmark contributes one job per label (see [`table1_jobs`]).
pub const TABLE1_FLOWS: [&str; 3] = ["1φ", "nφ", "T1"];

/// The complete Table-I suite as an `sfq-engine` job list: every benchmark
/// of [`paper_benchmarks`] × the three flows of [`TABLE1_FLOWS`], in
/// row-major paper order. Chunking the engine's (submission-ordered)
/// results by 3 therefore yields one `(1φ, nφ, T1)` triple per benchmark.
pub fn table1_jobs(scale: &BenchmarkScale, n: u32, lib: &CellLibrary) -> Vec<Job> {
    table1_jobs_with(scale, n, lib, false)
}

/// [`table1_jobs`] with an optional `sfq-opt` pre-mapping stage on every
/// flow (`--pre-opt` on the binaries). Optimized jobs carry a different
/// [`FlowConfig`] fingerprint, so the engine caches the two flavors
/// separately.
pub fn table1_jobs_with(
    scale: &BenchmarkScale,
    n: u32,
    lib: &CellLibrary,
    pre_opt: bool,
) -> Vec<Job> {
    // Every Table-I job runs the post-scheduling timing stage: it is pure
    // analysis (stats and CSV provably unchanged — see
    // `timing_stage_attaches_a_summary` in `t1map::flow`), so traces and
    // bench reports carry schedule-slack data on every benchmark.
    let stage = |config: FlowConfig| {
        let timed = config.to_builder().timing(true);
        if pre_opt {
            timed.standard_opt().build()
        } else {
            timed.build()
        }
    };
    let mut jobs = Vec::new();
    for (name, aig) in paper_benchmarks(scale) {
        let aig = Arc::new(aig);
        for (flow, config) in [
            (TABLE1_FLOWS[0], FlowConfig::single_phase()),
            (TABLE1_FLOWS[1], FlowConfig::multiphase(n)),
            (TABLE1_FLOWS[2], FlowConfig::t1(n)),
        ] {
            jobs.push(Job::new(name, flow, aig.clone(), *lib, stage(config)));
        }
    }
    jobs
}

/// Flow label of the fixpoint-optimization jobs of [`fixpoint_opt_jobs`].
pub const FIXPOINT_OPT_FLOW: &str = "T1+fix";

/// The scale-class fixpoint-optimization jobs the bench report appends to
/// the Table-I suite: `adder`, `multiplier` and the seeded `scale-100k`
/// random network, each through the T1 flow with a *fixpoint* `sfq-opt`
/// stage in front. These are the allocation-sensitive rows of the
/// regression baseline — the optimizer dominates their `alloc_bytes`, so
/// they pin the cost of the optimizer's in-place transforms.
pub fn fixpoint_opt_jobs(scale: &BenchmarkScale, n: u32, lib: &CellLibrary) -> Vec<Job> {
    let opt = sfq_opt::OptConfig::standard();
    ["adder", "multiplier", "scale-100k"]
        .map(|name| scale.build(name))
        .into_iter()
        .map(|(name, aig)| {
            Job::new(
                name,
                FIXPOINT_OPT_FLOW,
                Arc::new(aig),
                *lib,
                FlowConfig::t1(n)
                    .to_builder()
                    .timing(true)
                    .pre_opt(opt.clone())
                    .build(),
            )
        })
        .collect()
}

/// Phase counts swept by the ablation study (T1 needs ≥ 3 phases).
pub const SWEEP_PHASES: [u32; 5] = [3, 4, 5, 6, 8];

/// The ablation phase-sweep suite as an `sfq-engine` job list: for every
/// `n` in [`SWEEP_PHASES`], the multiphase baseline, the T1 flow and the
/// shared single-phase reference — three jobs per sweep point, so chunking
/// the results by 3 yields one `(baseline, T1, 1φ)` triple per `n`.
///
/// The 1φ reference is deliberately submitted *per sweep point*: its
/// content address is identical every time, so the engine's
/// content-addressed cache computes it once and serves the remaining
/// `SWEEP_PHASES.len() - 1` requests as cache hits. This keeps the suite
/// definition declarative (each row names everything it reads) without
/// paying for the redundancy.
pub fn phase_sweep_jobs(name: &str, aig: &Arc<Aig>, lib: &CellLibrary) -> Vec<Job> {
    phase_sweep_jobs_with(name, aig, lib, false)
}

/// [`phase_sweep_jobs`] with an optional `sfq-opt` pre-mapping stage.
pub fn phase_sweep_jobs_with(
    name: &str,
    aig: &Arc<Aig>,
    lib: &CellLibrary,
    pre_opt: bool,
) -> Vec<Job> {
    let stage = |config: FlowConfig| {
        if pre_opt {
            config.to_builder().standard_opt().build()
        } else {
            config
        }
    };
    let mut jobs = Vec::new();
    for n in SWEEP_PHASES {
        jobs.push(Job::new(
            name,
            format!("{n}φ"),
            aig.clone(),
            *lib,
            stage(FlowConfig::multiphase(n)),
        ));
        jobs.push(Job::new(
            name,
            format!("T1@{n}φ"),
            aig.clone(),
            *lib,
            stage(FlowConfig::t1(n)),
        ));
        jobs.push(Job::new(
            name,
            "1φ",
            aig.clone(),
            *lib,
            stage(FlowConfig::single_phase()),
        ));
    }
    jobs
}

/// The pre-mapping optimization sweep: for every Table-I benchmark, the T1
/// flow without and with the `sfq-opt` stage — two jobs per benchmark, in
/// [`paper_benchmarks`] order, so chunking the engine's results by 2 yields
/// one `(plain, pre-opt)` pair per row. With the AIG-level numbers of the
/// pre-opt job's own optimizer report, this is what the `abl-opt` section
/// of `sfq-t1 ablation` prints (node/depth/#DFF deltas per benchmark).
pub fn opt_sweep_jobs(scale: &BenchmarkScale, n: u32, lib: &CellLibrary) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (name, aig) in paper_benchmarks(scale) {
        let aig = Arc::new(aig);
        jobs.push(Job::new(name, "T1", aig.clone(), *lib, FlowConfig::t1(n)));
        jobs.push(Job::new(
            name,
            "T1+opt",
            aig.clone(),
            *lib,
            FlowConfig::t1(n).to_builder().standard_opt().build(),
        ));
    }
    jobs
}

/// The slack-aware optimization sweep behind the `abl-sta` ablation: for
/// every Table-I benchmark, the T1 flow with the conservative pre-opt stage
/// and with the slack-aware one — two jobs per benchmark, in
/// [`paper_benchmarks`] order, so chunking the engine's results by 2 yields
/// one `(conservative, slack-aware)` pair per row. With the AIG-level
/// numbers of both jobs' optimizer reports, this quantifies what
/// required-time-bounded rewriting buys end to end (node/depth/#DFF deltas).
pub fn slack_sweep_jobs(scale: &BenchmarkScale, n: u32, lib: &CellLibrary) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (name, aig) in paper_benchmarks(scale) {
        let aig = Arc::new(aig);
        jobs.push(Job::new(
            name,
            "T1+opt",
            aig.clone(),
            *lib,
            FlowConfig::t1(n).to_builder().standard_opt().build(),
        ));
        jobs.push(Job::new(
            name,
            "T1+slack",
            aig.clone(),
            *lib,
            FlowConfig::t1(n).to_builder().slack_opt().build(),
        ));
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_builds_all_benchmarks() {
        let benches = paper_benchmarks(&BenchmarkScale::small());
        assert_eq!(benches.len(), 8);
        for (name, aig) in &benches {
            assert!(aig.and_count() > 10, "{name} too small");
            assert!(aig.po_count() > 0, "{name} has no outputs");
        }
    }

    #[test]
    fn table1_suite_is_row_major() {
        let lib = CellLibrary::default();
        let jobs = table1_jobs(&BenchmarkScale::small(), 4, &lib);
        assert_eq!(jobs.len(), 8 * 3);
        assert_eq!(jobs[0].label(), "adder/1φ");
        assert_eq!(jobs[1].label(), "adder/nφ");
        assert_eq!(jobs[2].label(), "adder/T1");
        assert_eq!(jobs[23].label(), "log2/T1");
        // Each benchmark's three jobs share one AIG allocation.
        assert!(Arc::ptr_eq(&jobs[0].aig, &jobs[2].aig));
    }

    #[test]
    fn phase_sweep_repeats_the_single_phase_reference() {
        let lib = CellLibrary::default();
        let aig = Arc::new(named::build("adder", 4).unwrap());
        let jobs = phase_sweep_jobs("adder4", &aig, &lib);
        assert_eq!(jobs.len(), SWEEP_PHASES.len() * 3);
        let reference_key = jobs[2].key();
        for chunk in jobs.chunks(3) {
            assert_eq!(chunk[2].key(), reference_key, "shared 1φ baseline");
            assert_ne!(chunk[0].key(), chunk[1].key());
        }
    }

    #[test]
    fn opt_sweep_pairs_have_distinct_cache_keys() {
        let lib = CellLibrary::default();
        let jobs = opt_sweep_jobs(&BenchmarkScale::small(), 4, &lib);
        assert_eq!(jobs.len(), 8 * 2);
        for pair in jobs.chunks(2) {
            assert_eq!(pair[0].name, pair[1].name);
            assert!(Arc::ptr_eq(&pair[0].aig, &pair[1].aig));
            assert_ne!(
                pair[0].key(),
                pair[1].key(),
                "{}: the pre-opt stage must re-key the job",
                pair[0].name
            );
        }
    }

    #[test]
    fn slack_sweep_pairs_have_distinct_cache_keys() {
        let lib = CellLibrary::default();
        let jobs = slack_sweep_jobs(&BenchmarkScale::small(), 4, &lib);
        assert_eq!(jobs.len(), 8 * 2);
        for pair in jobs.chunks(2) {
            assert_eq!(pair[0].name, pair[1].name);
            assert!(Arc::ptr_eq(&pair[0].aig, &pair[1].aig));
            assert_ne!(
                pair[0].key(),
                pair[1].key(),
                "{}: the slack-aware stage must re-key the job",
                pair[0].name
            );
        }
    }

    #[test]
    fn pre_opt_rekeys_every_table1_job() {
        let lib = CellLibrary::default();
        let plain = table1_jobs(&BenchmarkScale::small(), 4, &lib);
        let opted = table1_jobs_with(&BenchmarkScale::small(), 4, &lib, true);
        assert_eq!(plain.len(), opted.len());
        for (p, o) in plain.iter().zip(&opted) {
            assert_eq!(p.label(), o.label());
            assert_ne!(p.key(), o.key(), "{} must get a distinct key", p.label());
        }
    }

    #[test]
    fn fixpoint_opt_jobs_name_three_subjects() {
        let lib = CellLibrary::default();
        let jobs = fixpoint_opt_jobs(&BenchmarkScale::small(), 4, &lib);
        let labels: Vec<String> = jobs.iter().map(|j| j.label()).collect();
        assert_eq!(
            labels,
            ["adder/T1+fix", "multiplier/T1+fix", "scale-100k/T1+fix"]
        );
    }

    #[test]
    fn scales_name_every_registry_entry_and_paper_is_its_defaults() {
        let (paper, small) = (BenchmarkScale::paper(), BenchmarkScale::small());
        for (i, (name, default, _)) in named::KNOWN_BENCHMARKS.into_iter().enumerate() {
            assert_eq!(paper.widths[i], (name, default));
            assert_eq!(small.widths[i].0, name);
            assert!(named::check(name, small.widths[i].1).is_ok(), "{name}");
        }
        assert_eq!(paper.widths[0], ("adder", 128));
        assert_eq!(paper.widths[8], ("scale-100k", 100_000));
    }

    #[test]
    fn row_order_matches_paper() {
        let names: Vec<&str> = paper_benchmarks(&BenchmarkScale::small())
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(
            names,
            [
                "adder",
                "c7552",
                "c6288",
                "sin",
                "voter",
                "square",
                "multiplier",
                "log2"
            ]
        );
    }
}
