//! `sweep-warm`: an explore grid replayed from disk. Set-up runs the grid
//! cold into a disk store; every pass then reruns it through a fresh
//! memory tier on that store, so all 105 jobs are disk hits and no flow
//! runs. The seed shuffles each axis, and with it the job submission
//! order, on every pass.

use crate::layers::{engine_layer, TimedStore};
use crate::measure::{dir_bytes, geomean, ms, timed, JobTimes, Metrics, Rng, SetupTimes, WorkDir};
use crate::{Args, Tally};
use sfq_engine::{CacheKey, DiskStore, ResultCache, ResultStore, SuiteRunner};
use sfq_explore::spec::{parse, SweepSpec};
use sfq_explore::sweep::{expand, run_sweep, ExploreRun};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use t1map::flow::FlowResult;

/// Cold set-ups per run: before the window, halfway through it and after
/// it, so their median does not rest on one phase of the host.
const SETUP_REPS: usize = 3;
/// Timed passes per run, at least (more while the window lasts).
const MIN_PASSES: usize = 5;

/// The grid: 135 points over 105 unique jobs.
fn spec(rng: Option<&mut Rng>) -> SweepSpec {
    let mut axes = [
        vec!["adder", "c6288", "sin", "voter", "multiplier"],
        vec!["1phi", "nphi", "t1"],
        vec!["3", "4", "6"],
        vec!["default", "cheap-dff", "costly-dff"],
    ];
    if let Some(rng) = rng {
        for axis in &mut axes {
            rng.shuffle(axis);
        }
    }
    let [benchmarks, flows, phases, libraries] = axes.map(|a| a.join(" "));
    parse(&format!(
        "sweep perfbench\nbenchmarks {benchmarks}\nflows {flows}\nphases {phases}\n\
         opt none\ntiming on\nlibrary {libraries}\n"
    ))
    .expect("the benchmark's sweep spec is valid")
}

/// Job durations of one sweep, by job key.
type Durations = HashMap<CacheKey, Duration>;

/// Runs `spec` on one worker over a fresh memory tier layered on
/// `backing`; returns the run, its job durations and its wall time in ms.
fn sweep(spec: SweepSpec, backing: Arc<dyn ResultStore>) -> (ExploreRun, Durations, f64) {
    let runner = SuiteRunner::new(1).with_store(Arc::new(ResultCache::with_backing(backing)));
    let mut durations = HashMap::new();
    let t0 = Instant::now();
    let run = run_sweep(spec, &runner, |o| {
        durations.insert(o.key, o.duration);
    })
    .expect("sweep runs");
    (run, durations, ms(t0.elapsed()))
}

/// A point's coordinates, independent of the axis order.
fn coordinate(run: &ExploreRun, i: usize) -> (String, String) {
    let p = &run.points[i];
    (p.benchmark.clone(), p.config_label())
}

/// What the cold run computed: results by key, frontier by coordinate.
struct Reference {
    /// Job keys in the cold run's order: the job order of [`JobTimes`].
    keys: Vec<CacheKey>,
    results: HashMap<CacheKey, Arc<FlowResult>>,
    frontier: HashMap<(String, String), bool>,
}

impl Reference {
    fn new(cold: &ExploreRun) -> Self {
        let results = cold
            .points
            .iter()
            .map(|p| (p.key, cold.report.results[p.job].clone()))
            .collect();
        let frontier = (0..cold.points.len())
            .map(|i| (coordinate(cold, i), cold.frontier[i]))
            .collect();
        let mut keys: Vec<CacheKey> = Vec::new();
        for p in &cold.points {
            if !keys.contains(&p.key) {
                keys.push(p.key);
            }
        }
        Reference {
            keys,
            results,
            frontier,
        }
    }

    /// Every served result equals the cold one, came from disk, and the
    /// frontier is the cold run's.
    fn check(&self, run: &ExploreRun, tally: &mut Tally) {
        let mut ok = vec![true; run.jobs.len()];
        for (i, p) in run.points.iter().enumerate() {
            let same = self
                .results
                .get(&p.key)
                .is_some_and(|r| **r == *run.report.results[p.job]);
            let on_frontier = self.frontier.get(&coordinate(run, i)) == Some(&run.frontier[i]);
            ok[p.job] &= same && on_frontier && run.sources[i] == "disk";
        }
        for job_ok in ok {
            tally.job(job_ok);
        }
        tally.check(run.cache().disk_hits == run.jobs.len() as u64, || {
            format!(
                "{} of {} jobs were disk hits",
                run.cache().disk_hits,
                run.jobs.len()
            )
        });
    }
}

/// Set-up: the grid run cold into a fresh disk store.
fn cold(work: &WorkDir) -> (Arc<DiskStore>, ExploreRun) {
    let disk = Arc::new(DiskStore::open(work.fresh("sweep")).expect("open the sweep store"));
    let (run, _, _) = sweep(spec(None), disk.clone());
    (disk, run)
}

pub fn run(args: &Args, work: &WorkDir, tally: &mut Tally, m: &mut Metrics) {
    let mut setup = SetupTimes::default();
    let (disk, cold_run) = setup.time(|| cold(work));
    tally.check(cold_run.sources.iter().all(|s| *s == "computed"), || {
        "the cold set-up served cached results".into()
    });
    let reference = Reference::new(&cold_run);
    let mut rng = Rng::new(args.seed);

    // Warm-up: fault in code, page cache and allocator arenas.
    let (warm, _, _) = sweep(spec(Some(&mut rng)), disk.clone());
    reference.check(&warm, tally);

    if args.trace {
        traced(args, &disk, &reference, &mut rng, tally, m);
        return;
    }

    let again = |setup: &mut SetupTimes, tally: &mut Tally| {
        let (_, run) = setup.time(|| cold(work));
        tally.check(run.stats == cold_run.stats, || {
            "cold set-ups disagree".into()
        });
    };
    let start = Instant::now();
    let mut times = JobTimes::default();
    while times.passes() < MIN_PASSES || start.elapsed() < args.window {
        if setup.len() < SETUP_REPS - 1 && start.elapsed() > args.window / 2 {
            again(&mut setup, tally);
        }
        let spec = spec(Some(&mut rng));
        let (run, durations, t) = sweep(spec, disk.clone());
        let job_ms = reference
            .keys
            .iter()
            .enumerate()
            .filter_map(|(id, k)| durations.get(k).map(|d| (id, ms(*d))))
            .collect();
        times.push(job_ms, t);
        reference.check(&run, tally);
    }
    while setup.len() < SETUP_REPS {
        again(&mut setup, tally);
    }

    m.set("setup_s", setup.median_s());
    times.report(m);
    quality(&cold_run, m);
    eprintln!("{}", times.summary("sweep-warm"));
}

/// Quality of the grid: totals over the unique jobs, the T1/nφ area
/// ratio (geometric mean over benchmark × phases × library) and the size
/// of the networks handed to the mapper.
fn quality(cold: &ExploreRun, m: &mut Metrics) {
    let results = &cold.report.results;
    m.set("area_jj", results.iter().map(|r| r.stats.area as f64).sum());
    m.set("dffs", results.iter().map(|r| r.stats.dffs as f64).sum());
    m.set(
        "depth_cycles",
        results.iter().map(|r| r.stats.depth_cycles as f64).sum(),
    );
    let area = |flow: &str, p: &sfq_explore::sweep::Point| {
        cold.points
            .iter()
            .position(|q| {
                q.flow.token() == flow
                    && q.benchmark == p.benchmark
                    && q.phases == p.phases
                    && q.library == p.library
            })
            .map(|i| cold.stats[i].area as f64)
            .expect("the grid crosses every flow with every coordinate")
    };
    let ratios: Vec<f64> = cold
        .points
        .iter()
        .filter(|p| p.flow.token() == "t1")
        .map(|p| area("t1", p) / area("nphi", p))
        .collect();
    m.set("t1_area_ratio", geomean(&ratios));
    let mut seen = Vec::new();
    for job in &cold.jobs {
        if !seen.contains(&job.name) {
            seen.push(job.name.clone());
            m.add("ands_out", job.aig.and_count() as f64);
            m.add("depth_out", job.aig.depth() as f64);
        }
    }
}

/// The traced run: rounds of an untraced pass, a traced pass (timed
/// store, recorder on) and timed replays of the sweep's expansion, key
/// hashing and Pareto analysis, until the window closes.
fn traced(
    args: &Args,
    disk: &Arc<DiskStore>,
    reference: &Reference,
    rng: &mut Rng,
    tally: &mut Tally,
    out: &mut Metrics,
) {
    let names = ["adder", "c6288", "sin", "voter", "multiplier"];
    let (_, build_ms, _) = timed(|| {
        names
            .iter()
            .map(|n| sfq_circuits::named::build(n, 0).expect("registered benchmark"))
            .collect::<Vec<_>>()
    });
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed() < args.window {
        let mut m = Metrics::default();
        m.set("circuits.build_ms", build_ms);
        let (plain, _, t) = sweep(spec(Some(rng)), disk.clone());
        m.set("trace.untraced_pass_ms", t);
        reference.check(&plain, tally);
        drop(plain);

        sfq_obs::enable();
        let store = Arc::new(TimedStore::new(disk.clone()));
        let spec = spec(Some(rng));
        let (run, durations, t) = sweep(spec.clone(), store.clone());
        m.set("trace.traced_pass_ms", t);
        reference.check(&run, tally);
        m.set("store.get_ms", store.get_ms());
        m.set("store.get_kb", dir_bytes(disk.root()) as f64 / 1024.0);
        m.set("store.disk_hits", run.cache().disk_hits as f64);
        m.set("store.decode_errors", run.cache().disk.errors as f64);
        sfq_obs::disable();
        drop(sfq_obs::take());

        // Replays of what `run_sweep` does around the engine run.
        let durations: Vec<Duration> = durations.into_values().collect();
        engine_layer(&run.jobs, &run.report, &durations, &mut m);
        let (_, t, _) = timed(|| expand(&spec).expect("the spec expands"));
        m.set("explore.expand_ms", t);
        let (_, t, _) = timed(|| {
            for (_, range) in run.benchmark_ranges() {
                let vectors: Vec<Vec<u64>> = range.map(|i| run.objectives_of(i)).collect();
                std::hint::black_box(sfq_explore::pareto::frontier(&vectors));
            }
        });
        m.set("explore.pareto_ms", t);
        rounds.push(m);
    }
    *out = Metrics::from_rounds(&rounds);
    eprintln!("sweep-warm traced: {} rounds", rounds.len());
}
