//! Outside-in instrumentation of the program's layers: a timing wrapper
//! around the disk store, the replay of `run_flow`'s stages, and the
//! engine's per-pass accounting. Nothing here is compiled into the
//! program; every figure comes from calls into its public functions.

use crate::measure::{timed, Metrics, MB};
use sfq_engine::{CacheKey, DiskStore, Job, ResultStore, StoreStats, SuiteReport};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};
use t1map::detect::detect_with_attribution;
use t1map::dff::insert_dffs;
use t1map::flow::{FlowResult, FlowStats, PhaseEngine};
use t1map::mapper::map;
use t1map::phase::{assign_phases, assign_phases_exact};
use t1map::timing::analyze_mapped;

/// A [`DiskStore`] whose `get`/`put` calls are timed.
pub struct TimedStore {
    inner: Arc<DiskStore>,
    get_ns: AtomicU64,
    put_ns: AtomicU64,
}

impl TimedStore {
    pub fn new(inner: Arc<DiskStore>) -> Self {
        TimedStore {
            inner,
            get_ns: AtomicU64::new(0),
            put_ns: AtomicU64::new(0),
        }
    }

    pub fn get_ms(&self) -> f64 {
        self.get_ns.load(Relaxed) as f64 / 1e6
    }

    pub fn put_ms(&self) -> f64 {
        self.put_ns.load(Relaxed) as f64 / 1e6
    }
}

fn add_elapsed(total: &AtomicU64, t0: Instant) {
    total.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
}

impl ResultStore for TimedStore {
    fn get(&self, key: CacheKey) -> Option<Arc<FlowResult>> {
        let t0 = Instant::now();
        let found = self.inner.get(key);
        add_elapsed(&self.get_ns, t0);
        found
    }

    fn put(&self, key: CacheKey, result: &Arc<FlowResult>) {
        let t0 = Instant::now();
        self.inner.put(key, result);
        add_elapsed(&self.put_ns, t0);
    }

    fn contains(&self, key: CacheKey) -> bool {
        self.inner.contains(key)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn gc(&self, keep_newest: usize) -> usize {
        self.inner.gc(keep_newest)
    }
}

/// Engine figures of one pass: the time spent hashing job keys (every
/// `Job::key` call of the pass, replayed) and the runner's wall time not
/// covered by any job.
pub fn engine_layer(jobs: &[Job], report: &SuiteReport, durations: &[Duration], m: &mut Metrics) {
    let (_, key_ms, _) = timed(|| {
        for job in jobs {
            std::hint::black_box(job.key());
        }
    });
    let busy: Duration = durations.iter().sum();
    m.set("engine.key_ms", key_ms);
    m.set(
        "engine.overhead_ms",
        (report.elapsed.as_secs_f64() - busy.as_secs_f64()) * 1e3,
    );
}

/// Adds one measured call to `m`: its allocation while the recorder is
/// on (times then carry the recorder's own cost), else its time.
pub fn record(m: &mut Metrics, time: &'static str, alloc: &'static str, ms: f64, bytes: u64) {
    if sfq_obs::is_enabled() {
        m.add(alloc, bytes as f64 / MB);
    } else {
        m.add(time, ms);
    }
}

/// Replays `run_flow` on `job` stage by stage — the same functions in the
/// same order — adding each stage's time (recorder off) or allocation
/// (recorder on) to `m`, and the work counts. Returns whether the
/// replayed result equals `expected`, the result `run_flow` produced for
/// the job.
pub fn replay_flow(job: &Job, expected: &FlowResult, m: &mut Metrics) -> bool {
    let (aig, lib, config) = (&*job.aig, &job.lib, &job.config);
    assert!(
        !config.pre_opt.enabled,
        "the stage replay covers flows without a pre-mapping stage"
    );
    let (map_result, t1_found) = if config.use_t1 {
        let (baseline, t, b) = timed(|| map(aig, lib, None));
        record(
            m,
            "t1map.baseline_map_ms",
            "t1map.baseline_map_alloc_mb",
            t,
            b,
        );
        let (det, t, b) =
            timed(|| detect_with_attribution(aig, lib, &config.detect, &baseline.attribution));
        record(m, "t1map.detect_ms", "t1map.detect_alloc_mb", t, b);
        let (mapped, t, b) = timed(|| map(aig, lib, Some(&det.selection)));
        record(m, "t1map.map_ms", "t1map.map_alloc_mb", t, b);
        (mapped, det.found())
    } else {
        let (mapped, t, b) = timed(|| map(aig, lib, None));
        record(m, "t1map.map_ms", "t1map.map_alloc_mb", t, b);
        (mapped, 0)
    };
    let mc = map_result.circuit;
    let (schedule, t, b) = timed(|| match config.engine {
        PhaseEngine::Heuristic => assign_phases(&mc, config.phases, config.opt_passes),
        PhaseEngine::Exact => {
            assign_phases_exact(&mc, config.phases).expect("exact phase assignment")
        }
    });
    record(m, "t1map.phase_ms", "t1map.phase_alloc_mb", t, b);
    let (plan, t, b) = timed(|| insert_dffs(&mc, &schedule));
    record(m, "t1map.dff_ms", "t1map.dff_alloc_mb", t, b);
    let timing = config.timing.enabled.then(|| {
        let (summary, t, b) =
            timed(|| analyze_mapped(&mc, &schedule).summary(&mc, &schedule, &plan));
        record(m, "sta.timing_ms", "sta.timing_alloc_mb", t, b);
        summary
    });
    let cell_area = mc.cell_area(lib);
    let stats = FlowStats {
        t1_found,
        t1_used: map_result.t1_used,
        dffs: plan.total_dffs,
        splitters: plan.total_splitters,
        cell_area,
        area: cell_area
            + plan.total_dffs * lib.dff as u64
            + plan.total_splitters * lib.splitter as u64,
        depth_cycles: schedule.depth_cycles(),
        gates: mc.gate_count(),
    };
    if !sfq_obs::is_enabled() {
        m.add("t1map.map_calls", if config.use_t1 { 2.0 } else { 1.0 });
        m.add("t1map.t1_found", stats.t1_found as f64);
        m.add("t1map.t1_used", stats.t1_used as f64);
    }
    let replayed = FlowResult {
        mapped: mc,
        schedule,
        plan,
        stats,
        pre_opt: None,
        timing,
    };
    replayed == *expected
}
