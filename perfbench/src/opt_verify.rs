//! `opt-verify`: the `sfq-t1 opt --fixpoint --verify` path — the standard
//! fixpoint pipeline with every pass equivalence-checked — on four fixed
//! subjects and one seeded scale-class random network per pass. No
//! mapping, no store: it stresses the optimizer and the CEC.

use crate::measure::{geomean, timed, JobTimes, Metrics, Rng, SetupTimes, MB};
use crate::{Args, Tally};
use sfq_circuits::{epfl, iscas, random_aig, RandomAigConfig};
use sfq_netlist::aig::Aig;
use sfq_opt::{optimize, optimize_verified, CecConfig, CecVerdict, OptConfig, VerifiedRun};
use std::collections::HashMap;
use std::time::Instant;
use t1map::cells::CellLibrary;
use t1map::flow::{run_flow, FlowConfig};

/// Set-ups before the window; one more follows every timed pass.
const SETUP_REPS: usize = 3;
/// Timed passes per run, at least (more while the window lasts).
const MIN_PASSES: usize = 2;
/// 64-pattern simulation words per job check.
const CHECK_WORDS: usize = 4;
/// The fixed subjects come first; the seeded random ones follow and are
/// left out of the quality sums, which therefore repeat across seeds.
const FIXED_SUBJECTS: usize = 4;
/// Seeded random subjects; pass `k` runs the fixed subjects and random
/// subject `k mod RANDOM_SUBJECTS`. One such subject costs from 0.6 s to
/// 1.1 s depending on its seed; rotating through four of them makes a
/// run's throughput rest on four draws instead of one.
const RANDOM_SUBJECTS: usize = 4;

/// The subjects. Random subject `i` is the `scale-100k` generator at
/// 10 000 gates seeded with `seed + i`; the default seed makes the first
/// one `scale-100k:10000`.
fn subjects(seed: u64) -> Vec<(&'static str, Aig)> {
    let mut subjects = vec![
        ("adder", epfl::adder(128)),
        ("c6288", iscas::c6288_like()),
        ("log2", epfl::log2(32)),
        ("multiplier", epfl::multiplier(32)),
    ];
    let config = RandomAigConfig {
        num_pis: 64,
        num_gates: 10_000,
        num_pos: 32,
        xor_percent: 30,
    };
    for i in 0..RANDOM_SUBJECTS as u64 {
        subjects.push(("random", random_aig(seed.wrapping_add(i), &config)));
    }
    subjects
}

/// Subject indices of pass `k`.
fn pass_subjects(k: usize) -> impl Iterator<Item = usize> {
    (0..FIXED_SUBJECTS).chain([FIXED_SUBJECTS + k % RANDOM_SUBJECTS])
}

fn verified(aig: &Aig) -> VerifiedRun {
    optimize_verified(aig, &OptConfig::standard(), &CecConfig::default())
}

/// Seeded input words per subject with the subject's outputs on them.
type Cases = Vec<Vec<(Vec<u64>, Vec<u64>)>>;

fn cases(subjects: &[(&str, Aig)], seed: u64) -> Cases {
    let mut rng = Rng::new(seed ^ 0x0C_EC);
    subjects
        .iter()
        .map(|(_, aig)| {
            (0..CHECK_WORDS)
                .map(|_| {
                    let inputs = rng.words(aig.pi_count());
                    let outputs = aig.eval64(&inputs);
                    (inputs, outputs)
                })
                .collect()
        })
        .collect()
}

/// The verdict is `Equivalent`, an independent simulation agrees, and the
/// result is no larger and no deeper than the subject.
fn job_ok(subject: &Aig, run: &VerifiedRun, cases: &[(Vec<u64>, Vec<u64>)]) -> bool {
    run.verdict == CecVerdict::Equivalent
        && run.aig.pi_count() == subject.pi_count()
        && run.aig.po_count() == subject.po_count()
        && run.aig.and_count() <= subject.and_count()
        && run.aig.depth() <= subject.depth()
        && cases
            .iter()
            .all(|(inputs, outputs)| run.aig.eval64(inputs) == *outputs)
}

pub fn run(args: &Args, tally: &mut Tally, m: &mut Metrics) {
    let mut setup = SetupTimes::default();
    let subjects = setup.time(|| self::subjects(args.seed));
    for _ in 1..SETUP_REPS {
        setup.time(|| self::subjects(args.seed));
    }
    let cases = cases(&subjects, args.seed);

    // Warm-up on the smallest subject only: a full pass takes seconds.
    let warm = verified(&subjects[0].1);
    tally.job(job_ok(&subjects[0].1, &warm, &cases[0]));

    if args.trace {
        traced(args, &subjects, &cases, tally, m);
        return;
    }

    let start = Instant::now();
    let mut times = JobTimes::default();
    let mut hashes = HashMap::new();
    let mut last = Vec::new();
    while times.passes() < MIN_PASSES || start.elapsed() < args.window {
        let mut job_ms = Vec::new();
        let mut runs = Vec::new();
        for i in pass_subjects(times.passes()) {
            let aig = &subjects[i].1;
            let (run, t, _) = timed(|| verified(aig));
            job_ms.push((i, t));
            tally.job(job_ok(aig, &run, &cases[i]));
            let hash = run.aig.structural_hash();
            let same = *hashes.entry(i).or_insert(hash) == hash;
            tally.check(same, || {
                format!("optimized {} differs between passes", subjects[i].0)
            });
            runs.push(run);
        }
        let pass_ms = job_ms.iter().map(|(_, t)| t).sum();
        times.push(job_ms, pass_ms);
        last = runs;
        setup.time(|| self::subjects(args.seed));
    }

    m.set("setup_s", setup.median_s());
    times.report(m);
    quality(&subjects, &last, &cases, tally, m);
    eprintln!("{}", times.summary("opt-verify"));
}

/// Quality over the fixed subjects: the optimized networks' size and
/// depth, and what the paper's flows make of them (T1 and nφ at n = 4,
/// mapped once per run, untimed).
fn quality(
    subjects: &[(&str, Aig)],
    runs: &[VerifiedRun],
    cases: &Cases,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    let lib = CellLibrary::default();
    let (mut area, mut dffs, mut depth, mut ratios) = (0.0, 0.0, 0.0, Vec::new());
    for i in 0..FIXED_SUBJECTS {
        let aig = &runs[i].aig;
        m.add("ands_out", aig.and_count() as f64);
        m.add("depth_out", aig.depth() as f64);
        let t1 = run_flow(aig, &lib, &FlowConfig::t1(4));
        let nphi = run_flow(aig, &lib, &FlowConfig::multiphase(4));
        for r in [&t1, &nphi] {
            area += r.stats.area as f64;
            dffs += r.stats.dffs as f64;
            depth += r.stats.depth_cycles as f64;
            let ok = cases[i]
                .iter()
                .all(|(inputs, outputs)| r.mapped.eval64(inputs) == *outputs);
            tally.check(ok, || format!("mapping of optimized {}", subjects[i].0));
        }
        ratios.push(t1.stats.area as f64 / nphi.stats.area as f64);
    }
    m.set("area_jj", area);
    m.set("dffs", dffs);
    m.set("depth_cycles", depth);
    m.set("t1_area_ratio", geomean(&ratios));
}

/// The traced run. Each round: an untraced pass, whose runs give the
/// per-pass times and CEC counters the program reports; the unverified
/// `optimize` replay, which splits optimizer time from CEC time; then the
/// same pass and replay with the recorder on, for the tracing overhead and
/// the optimizer's allocation.
fn traced(
    args: &Args,
    subjects: &[(&str, Aig)],
    cases: &Cases,
    tally: &mut Tally,
    out: &mut Metrics,
) {
    let (_, build_ms, _) = timed(|| self::subjects(args.seed));
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed() < args.window {
        let mut m = Metrics::default();
        m.set("circuits.build_ms", build_ms);
        for recording in [false, true] {
            if recording {
                sfq_obs::enable();
            }
            let mut pass_ms = 0.0;
            for i in pass_subjects(0) {
                let ((name, aig), cases) = (&subjects[i], &cases[i]);
                let (run, verified_ms, _) = timed(|| verified(aig));
                pass_ms += verified_ms;
                tally.job(job_ok(aig, &run, cases));
                let ((plain, _), opt_ms, bytes) = timed(|| optimize(aig, &OptConfig::standard()));
                let same = plain.structural_hash() == run.aig.structural_hash();
                tally.check(same, || {
                    format!("optimize and optimize_verified differ on {name}")
                });
                if recording {
                    m.add("opt.alloc_mb", bytes as f64 / MB);
                } else {
                    m.add("cec.ms", verified_ms - opt_ms);
                    opt_layer(&run, &mut m);
                }
            }
            let pass = if recording {
                "trace.traced_pass_ms"
            } else {
                "trace.untraced_pass_ms"
            };
            m.set(pass, pass_ms);
        }
        sfq_obs::disable();
        drop(sfq_obs::take());
        rounds.push(m);
    }
    *out = Metrics::from_rounds(&rounds);
    eprintln!("opt-verify traced: {} rounds", rounds.len());
}

/// The optimizer's and the CEC's own counters of one verified run.
fn opt_layer(run: &VerifiedRun, m: &mut Metrics) {
    for stats in run.report.rounds.iter().flatten() {
        let metric = match stats.pass {
            "strash" => "opt.strash_ms",
            "sweep" => "opt.sweep_ms",
            "rewrite" => "opt.rewrite_ms",
            "balance" => "opt.balance_ms",
            other => unreachable!("pass {other} is not in the standard pipeline"),
        };
        m.add(metric, stats.micros as f64 / 1e3);
        m.add("opt.applied", stats.applied as f64);
    }
    m.add("opt.rounds", run.report.rounds.len() as f64);
    m.add("cec.sat_queries", run.cec.sat_queries as f64);
    m.add("cec.sweep_merges", run.cec.sweep_merges as f64);
    m.add("cec.sim_words", run.cec.sim_words as f64);
    m.add("cec.alias_skips", run.cec.alias_skips as f64);
    m.add("cec.checked_stages", run.checked_stages as f64);
}
