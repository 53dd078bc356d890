//! `table1`: the paper's experiment run the way a cold
//! `sfq-t1 suite --cache-dir` runs it — the 24 Table-I jobs (8 subjects ×
//! {1φ, nφ, T1}, n = 4, timing stage on) on one engine worker, over a
//! result cache layered on a fresh, empty disk store every pass.

use crate::layers::{engine_layer, record, replay_flow, TimedStore};
use crate::measure::{dir_bytes, geomean, ms, timed, JobTimes, Metrics, Rng, SetupTimes, WorkDir};
use crate::{Args, Tally};
use sfq_bench::{paper_benchmarks, table1_jobs, BenchmarkScale};
use sfq_engine::{DiskStore, Job, ResultCache, ResultStore, SuiteReport, SuiteRunner};
use sfq_netlist::cut::{enumerate_cuts, CutConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};
use t1map::cells::CellLibrary;
use t1map::flow::FlowResult;
use t1map::sim_bridge::to_pulse_circuit;

/// Clock phases of the multiphase and T1 columns (the paper's n).
const PHASES: u32 = 4;
/// Set-ups before the window; one more follows every timed pass.
const SETUP_REPS: usize = 3;
/// Timed passes per run, at least (more while the window lasts).
const MIN_PASSES: usize = 5;
/// 64-pattern simulation words per job check.
const CHECK_WORDS: usize = 4;
/// Waves of the once-per-run pulse-level simulation of each T1 result.
const PULSE_WAVES: usize = 8;

/// One pass: the 24 jobs through a fresh disk-backed cache.
struct Pass {
    report: SuiteReport,
    durations: Vec<Duration>,
    timed_store: Option<Arc<TimedStore>>,
    disk: Arc<DiskStore>,
}

fn pass(jobs: &[Job], work: &WorkDir, traced: bool) -> Pass {
    let disk = Arc::new(DiskStore::open(work.fresh("table1")).expect("open the pass's store"));
    let timed_store = traced.then(|| Arc::new(TimedStore::new(disk.clone())));
    let backing: Arc<dyn ResultStore> = match &timed_store {
        Some(t) => t.clone(),
        None => disk.clone(),
    };
    let runner = SuiteRunner::new(1).with_store(Arc::new(ResultCache::with_backing(backing)));
    let mut durations = vec![Duration::ZERO; jobs.len()];
    let report = runner.run_with_progress(jobs, |o| durations[o.index] = o.duration);
    Pass {
        report,
        durations,
        timed_store,
        disk,
    }
}

impl Drop for Pass {
    fn drop(&mut self) {
        if let Some(dir) = self.disk.root().parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Seeded check inputs per job: `CHECK_WORDS` input vectors and the
/// subject's outputs on them.
struct Checks {
    cases: Vec<Vec<(Vec<u64>, Vec<u64>)>>,
}

impl Checks {
    fn new(jobs: &[Job], seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let cases = jobs
            .iter()
            .map(|job| {
                (0..CHECK_WORDS)
                    .map(|_| {
                        let inputs = rng.words(job.aig.pi_count());
                        let outputs = job.aig.eval64(&inputs);
                        (inputs, outputs)
                    })
                    .collect()
            })
            .collect();
        Checks { cases }
    }

    /// The mapped netlist computes the subject's functions and the
    /// schedule meets every constraint.
    fn job_ok(&self, index: usize, result: &FlowResult) -> bool {
        result.schedule.validate(&result.mapped).is_ok()
            && self.cases[index]
                .iter()
                .all(|(inputs, outputs)| result.mapped.eval64(inputs) == *outputs)
    }

    fn check_pass(&self, p: &Pass, tally: &mut Tally) {
        for (i, result) in p.report.results.iter().enumerate() {
            tally.job(self.job_ok(i, result));
        }
    }
}

pub fn run(args: &Args, work: &WorkDir, tally: &mut Tally, m: &mut Metrics) {
    let lib = CellLibrary::default();
    let scale = BenchmarkScale::paper();
    let build = || table1_jobs(&scale, PHASES, &lib);
    let mut setup = SetupTimes::default();
    let jobs = setup.time(build);
    for _ in 1..SETUP_REPS {
        setup.time(build);
    }
    let checks = Checks::new(&jobs, args.seed);

    // Warm-up: fault in code and allocator arenas before timing.
    let warm = pass(&jobs, work, false);
    checks.check_pass(&warm, tally);
    let reference: Vec<_> = warm.report.results.iter().map(|r| r.stats).collect();
    drop(warm);

    if args.trace {
        traced(args, &jobs, &scale, work, &checks, tally, m);
        return;
    }

    let start = Instant::now();
    let mut times = JobTimes::default();
    let mut last = None;
    while times.passes() < MIN_PASSES || start.elapsed() < args.window {
        let p = pass(&jobs, work, false);
        let job_ms = p.durations.iter().map(|d| ms(*d)).enumerate().collect();
        times.push(job_ms, ms(p.report.elapsed));
        checks.check_pass(&p, tally);
        let stats: Vec<_> = p.report.results.iter().map(|r| r.stats).collect();
        tally.check(stats == reference, || {
            "table1 stats differ between passes".into()
        });
        last = Some(p);
        setup.time(build);
    }
    let last = last.expect("at least one timed pass");
    pulse_check(&jobs, &last.report.results, args.seed, tally);

    m.set("setup_s", setup.median_s());
    times.report(m);
    quality(&jobs, &last.report.results, m);
    eprintln!("{}", times.summary("table1"));
}

/// Table-I quality: totals over the 24 jobs, the T1/nφ area ratio
/// (geometric mean over the subjects; the paper reports 0.94) and the
/// size of the networks handed to the mapper.
fn quality(jobs: &[Job], results: &[Arc<FlowResult>], m: &mut Metrics) {
    m.set("area_jj", results.iter().map(|r| r.stats.area as f64).sum());
    m.set("dffs", results.iter().map(|r| r.stats.dffs as f64).sum());
    m.set(
        "depth_cycles",
        results.iter().map(|r| r.stats.depth_cycles as f64).sum(),
    );
    // Jobs come in (1φ, nφ, T1) triples per subject.
    let ratios: Vec<f64> = results
        .chunks(3)
        .map(|t| t[2].stats.area as f64 / t[1].stats.area as f64)
        .collect();
    m.set("t1_area_ratio", geomean(&ratios));
    let subjects: Vec<_> = jobs.chunks(3).map(|t| &t[0].aig).collect();
    m.set(
        "ands_out",
        subjects.iter().map(|a| a.and_count() as f64).sum(),
    );
    m.set("depth_out", subjects.iter().map(|a| a.depth() as f64).sum());
}

/// Once per run: every T1 result, simulated at pulse level over seeded
/// waves, shows no hazard and matches the subject's outputs.
fn pulse_check(jobs: &[Job], results: &[Arc<FlowResult>], seed: u64, tally: &mut Tally) {
    let mut rng = Rng::new(seed ^ 0x9_0153);
    for (job, r) in jobs.iter().zip(results).filter(|(j, _)| j.config.use_t1) {
        let waves: Vec<Vec<bool>> = (0..PULSE_WAVES)
            .map(|_| rng.bools(job.aig.pi_count()))
            .collect();
        let pc = to_pulse_circuit(&r.mapped, &r.schedule, &r.plan);
        let ok = match pc.simulate(&waves, r.schedule.n) {
            Ok(out) => {
                out.hazards == 0
                    && waves
                        .iter()
                        .zip(&out.outputs)
                        .all(|(w, o)| job.aig.eval(w) == *o)
            }
            Err(_) => false,
        };
        tally.check(ok, || format!("pulse simulation of {}", job.label()));
    }
}

/// The traced run: rounds of an untraced pass, a traced pass (timed
/// store, allocation counting) and the stage and cut replays, until the
/// window closes.
fn traced(
    args: &Args,
    jobs: &[Job],
    scale: &BenchmarkScale,
    work: &WorkDir,
    checks: &Checks,
    tally: &mut Tally,
    out: &mut Metrics,
) {
    let (subjects, build_ms, _) = timed(|| paper_benchmarks(scale));
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed() < args.window {
        let mut m = Metrics::default();
        m.set("circuits.build_ms", build_ms);
        let plain = pass(jobs, work, false);
        m.set("trace.untraced_pass_ms", ms(plain.report.elapsed));
        checks.check_pass(&plain, tally);
        drop(plain);

        sfq_obs::enable();
        let p = pass(jobs, work, true);
        m.set("trace.traced_pass_ms", ms(p.report.elapsed));
        let store = p
            .timed_store
            .as_ref()
            .expect("traced pass has a timed store");
        m.set("store.put_ms", store.put_ms());
        m.set("store.puts", p.report.cache.disk.puts as f64);
        m.set("store.put_kb", dir_bytes(p.disk.root()) as f64 / 1024.0);
        sfq_obs::disable();
        engine_layer(jobs, &p.report, &p.durations, &mut m);
        checks.check_pass(&p, tally);

        // Replays: first timed (recorder off), then counting allocation.
        for recording in [false, true] {
            if recording {
                sfq_obs::enable();
            }
            for (job, result) in jobs.iter().zip(&p.report.results) {
                let same = replay_flow(job, result, &mut m);
                tally.check(same, || format!("stage replay of {} differs", job.label()));
            }
            for (_, aig) in &subjects {
                let config = CutConfig {
                    max_leaves: 3,
                    max_cuts: 16,
                };
                let (cuts, t, bytes) = timed(|| enumerate_cuts(aig, &config));
                record(
                    &mut m,
                    "netlist.cuts3_ms",
                    "netlist.cuts3_alloc_mb",
                    t,
                    bytes,
                );
                if !recording {
                    m.add("netlist.cuts3_total", cuts.total() as f64);
                }
            }
        }
        sfq_obs::disable();
        drop(sfq_obs::take());
        rounds.push(m);
    }
    *out = Metrics::from_rounds(&rounds);
    eprintln!("table1 traced: {} rounds", rounds.len());
}
