//! Fixed-size worker pool and suite orchestration.

use crate::cache::{CacheStats, HitSource, ResultCache};
use crate::job::{CacheKey, Job, SubjectKey};
use sfq_netlist::aig::Aig;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use t1map::flow::{FlowResult, FlowStats, Subject};

/// Worker count to use when the caller does not specify one: the machine's
/// [`available_parallelism`](std::thread::available_parallelism), or 1 if
/// that cannot be determined.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Progress event for one finished job, streamed to the caller as results
/// arrive (in *completion* order, which under parallelism differs from
/// submission order — `index` identifies the job, `completed` counts
/// progress).
#[derive(Debug, Clone, Copy)]
pub struct JobOutcome<'a> {
    /// The finished job.
    pub job: &'a Job,
    /// Index of the job in the submitted slice.
    pub index: usize,
    /// How many jobs have finished so far (including this one).
    pub completed: usize,
    /// Total number of submitted jobs.
    pub total: usize,
    /// The job's content address (equal to [`Job::key`]), computed once
    /// before the workers start from one structural hash per distinct
    /// network — streaming consumers (e.g. the `sfq-explore` sweep runner)
    /// group deduplicated submissions by this key without re-hashing the
    /// AIG.
    pub key: CacheKey,
    /// Which tier served the result (or [`HitSource::Computed`] if the
    /// flow ran).
    pub source: HitSource,
    /// Wall-clock time this job occupied a worker. Near zero for hits on an
    /// already-finished entry; a hit that piggybacked on another worker's
    /// in-flight computation of the same key reports the time spent waiting
    /// for that computation instead. The first computed job of a subject
    /// (see [`SuiteRunner`]) is charged for building it, so the 1φ job of
    /// a Table-I triple takes longer than its nφ and T1 siblings would
    /// alone; a job that waited for another worker's build is charged the
    /// wait.
    pub duration: Duration,
    /// Monotonic wall-clock time from the start of the whole run to this
    /// job's completion — the timestamp progress reporters print.
    pub elapsed: Duration,
    /// Bytes the worker thread allocated while this job occupied it.
    /// Zero unless the [`sfq_obs::alloc`] wrapper is installed and the
    /// recorder is enabled.
    pub alloc_bytes: u64,
    /// Process-wide peak live bytes observed by this job's end — a
    /// high-water mark over all threads, not a per-job figure. Zero when
    /// allocation tracking is off.
    pub peak_bytes: u64,
    /// Aggregate metrics of the result.
    pub stats: FlowStats,
}

/// Everything a suite run produces.
#[derive(Debug)]
pub struct SuiteReport {
    /// One result per submitted job, in submission order — independent of
    /// completion order, so serial and parallel runs render identically.
    /// Jobs that shared a cache entry share the same `Arc`.
    pub results: Vec<Arc<FlowResult>>,
    /// Cache counter increments attributable to *this* run (a delta of two
    /// snapshots, so a shared long-lived store reports per-run figures).
    pub cache: CacheStats,
    /// Wall-clock time of the whole suite.
    pub elapsed: Duration,
    /// Number of threads that ran jobs, the calling thread included (the
    /// configured count, shrunk to the job count).
    pub workers: usize,
}

/// A fixed-size pool that executes a batch of [`Job`]s.
///
/// The calling thread is worker 0: a run with `n` workers spawns `n - 1`
/// scoped helper threads, and all of them, the caller included, claim jobs
/// from a shared atomic cursor. A one-worker run spawns no thread at all,
/// so results decoded from a disk store live in the caller's allocator
/// arena, which keeps its pages from one run to the next. Helpers send
/// their results over an `mpsc` channel to the caller, which invokes the
/// progress callback (no `Send`/`Sync` bound on the callback) and slots
/// each result into its submission-order position.
///
/// Before any job runs, the runner keys every job from one
/// [`structural_hash`](Aig::structural_hash) per distinct `Arc<Aig>`, so a
/// suite of many jobs on few shared networks hashes each network once per
/// run. Equal networks behind distinct `Arc`s are hashed once each and
/// still get equal keys.
///
/// Within a run, computed jobs that share a network, a library and a
/// pre-mapping stage share one [`Subject`]: the first to compute builds it
/// (pre-opt, cut choice, baseline cover), later ones reuse it, and it is
/// dropped when the run's last job with that subject finishes. The memo is
/// per run and never persisted; cache hits never build a subject. The
/// `engine.subject_builds` and `engine.subject_reuses` counters show it.
///
/// By default each run uses a private in-memory [`ResultCache`] that dies
/// with the run. [`with_store`](SuiteRunner::with_store) attaches a shared,
/// long-lived store instead — typically a [`ResultCache`] layered over a
/// [`DiskStore`](crate::store::DiskStore) — so results persist across runs
/// (and, through the disk tier, across processes).
#[derive(Debug, Clone)]
pub struct SuiteRunner {
    workers: usize,
    store: Option<Arc<ResultCache>>,
}

/// The run's subject memo: one lazily built [`Subject`] per subject key.
struct Subjects {
    live: Mutex<HashMap<SubjectKey, LiveSubject>>,
}

struct LiveSubject {
    subject: Arc<OnceLock<Subject>>,
    /// Jobs of the run that have yet to finish with this subject.
    pending: usize,
}

impl Subjects {
    fn new(keys: &[SubjectKey]) -> Self {
        let mut live = HashMap::new();
        for &key in keys {
            live.entry(key)
                .or_insert_with(|| LiveSubject {
                    subject: Arc::new(OnceLock::new()),
                    pending: 0,
                })
                .pending += 1;
        }
        Subjects {
            live: Mutex::new(live),
        }
    }

    /// The (possibly not yet built) subject of a job with subject `key`.
    fn claim(&self, key: SubjectKey) -> Arc<OnceLock<Subject>> {
        self.live.lock().unwrap()[&key].subject.clone()
    }

    /// Records that a job with subject `key` finished; the last one drops
    /// the memo's reference.
    fn release(&self, key: SubjectKey) {
        let mut live = self.live.lock().unwrap();
        let entry = live.get_mut(&key).expect("claimed subject");
        entry.pending -= 1;
        if entry.pending == 0 {
            live.remove(&key);
        }
    }
}

struct WorkerEvent {
    index: usize,
    result: Arc<FlowResult>,
    key: CacheKey,
    source: HitSource,
    duration: Duration,
    elapsed: Duration,
    alloc_bytes: u64,
    peak_bytes: u64,
}

impl SuiteRunner {
    /// Creates a runner with `workers` workers (clamped to at least 1): the
    /// calling thread and `workers - 1` helper threads.
    pub fn new(workers: usize) -> Self {
        SuiteRunner {
            workers: workers.max(1),
            store: None,
        }
    }

    /// Uses `store` for every run instead of a fresh per-run cache, so
    /// results are shared across runs (and across runners holding clones of
    /// the same `Arc`).
    pub fn with_store(mut self, store: Arc<ResultCache>) -> Self {
        self.store = Some(store);
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes `jobs` and collects the report, without progress reporting.
    pub fn run(&self, jobs: &[Job]) -> SuiteReport {
        self.run_with_progress(jobs, |_| {})
    }

    /// Executes `jobs`, invoking `on_event` on the calling thread as each
    /// job finishes, and collects the report.
    ///
    /// The calling thread runs jobs itself (it is worker 0), so events are
    /// delivered in completion order between its own jobs: a helper's
    /// event is delivered at the latest when the caller finishes its
    /// current job, and before the caller's own event for that job.
    pub fn run_with_progress<F>(&self, jobs: &[Job], mut on_event: F) -> SuiteReport
    where
        F: FnMut(JobOutcome<'_>),
    {
        let start = Instant::now();
        let total = jobs.len();
        let workers = self.workers.min(total.max(1));
        let local;
        let cache: &ResultCache = match &self.store {
            Some(shared) => shared.as_ref(),
            None => {
                local = ResultCache::new();
                &local
            }
        };
        let before = cache.stats();
        // One structural hash per distinct network: jobs sharing an `Arc`
        // share its digest. The pointers stay valid (and unique per live
        // network) because `jobs` is borrowed for the whole run.
        let mut digests: HashMap<*const Aig, u64> = HashMap::new();
        let keys: Vec<CacheKey> = jobs
            .iter()
            .map(|job| {
                let digest = *digests
                    .entry(Arc::as_ptr(&job.aig))
                    .or_insert_with(|| job.aig.structural_hash());
                CacheKey::from_digest(digest, &job.lib, &job.config)
            })
            .collect();
        let subject_keys: Vec<SubjectKey> = jobs
            .iter()
            .zip(&keys)
            .map(|(job, &key)| SubjectKey::of(job, key))
            .collect();
        let subjects = Subjects::new(&subject_keys);
        let cursor = AtomicUsize::new(0);
        let mut results: Vec<Option<Arc<FlowResult>>> = vec![None; total];
        // Queue-wait spans are measured from this common origin; `None`
        // while the recorder is disabled, making the whole path free.
        let run_start_us = sfq_obs::now_us();

        // One job's whole stay on a worker, from claim to event.
        let run_job = |index: usize| -> WorkerEvent {
            let job = &jobs[index];
            if let (Some(submit), Some(picked)) = (run_start_us, sfq_obs::now_us()) {
                sfq_obs::emit_span("engine:queue-wait", submit, picked, || job.label());
            }
            let t0 = Instant::now();
            let alloc0 = sfq_obs::alloc::thread_allocated();
            let (key, subject_key) = (keys[index], subject_keys[index]);
            let subject = subjects.claim(subject_key);
            let (result, source) = {
                let _span = sfq_obs::span_labeled("engine:job", || job.label());
                cache.get_or_compute(key, || {
                    let _span = sfq_obs::span_labeled("engine:compute", || job.label());
                    let _flow = sfq_obs::span("flow:run");
                    let mut built = false;
                    let subject = subject.get_or_init(|| {
                        built = true;
                        sfq_obs::counter("engine.subject_builds", 1);
                        Subject::new(&job.aig, &job.lib, &job.config.pre_opt)
                    });
                    if !built {
                        sfq_obs::counter("engine.subject_reuses", 1);
                    }
                    subject.run(&job.aig, &job.lib, &job.config)
                })
            };
            subjects.release(subject_key);
            WorkerEvent {
                index,
                result,
                key,
                source,
                duration: t0.elapsed(),
                elapsed: start.elapsed(),
                alloc_bytes: sfq_obs::alloc::thread_allocated().saturating_sub(alloc0),
                peak_bytes: sfq_obs::alloc::stats().peak,
            }
        };
        let claim = || {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            (index < total).then_some(index)
        };
        let mut completed = 0;
        let mut deliver = |event: WorkerEvent| {
            completed += 1;
            on_event(JobOutcome {
                job: &jobs[event.index],
                index: event.index,
                completed,
                total,
                key: event.key,
                source: event.source,
                duration: event.duration,
                elapsed: event.elapsed,
                alloc_bytes: event.alloc_bytes,
                peak_bytes: event.peak_bytes,
                stats: event.result.stats,
            });
            results[event.index] = Some(event.result);
        };

        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<WorkerEvent>();
            let (run_job, claim) = (&run_job, &claim);
            for _ in 1..workers {
                let tx = tx.clone();
                scope.spawn(move || {
                    while let Some(index) = claim() {
                        // The receiver only disappears if the caller's loop
                        // ended early (callback panic); nothing left to report.
                        let _ = tx.send(run_job(index));
                    }
                });
            }
            drop(tx);

            // The caller is worker 0: it runs jobs too, and after each one
            // delivers the helpers' events that finished meanwhile first.
            while let Some(index) = claim() {
                let own = run_job(index);
                rx.try_iter().for_each(&mut deliver);
                deliver(own);
            }
            rx.into_iter().for_each(&mut deliver);
        });

        SuiteReport {
            results: results
                .into_iter()
                .map(|r| r.expect("every submitted job reports a result"))
                .collect(),
            cache: cache.stats().delta_since(&before),
            elapsed: start.elapsed(),
            workers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::HitSource;
    use sfq_circuits::epfl::adder;
    use t1map::cells::CellLibrary;
    use t1map::flow::FlowConfig;

    fn three_flow_jobs() -> Vec<Job> {
        let lib = CellLibrary::default();
        let aig = Arc::new(adder(4));
        vec![
            Job::new("adder4", "1φ", aig.clone(), lib, FlowConfig::single_phase()),
            Job::new("adder4", "4φ", aig.clone(), lib, FlowConfig::multiphase(4)),
            Job::new("adder4", "T1", aig, lib, FlowConfig::t1(4)),
        ]
    }

    #[test]
    fn empty_suite() {
        let report = SuiteRunner::new(4).run(&[]);
        assert!(report.results.is_empty());
        assert_eq!(report.cache, CacheStats::default());
    }

    #[test]
    fn progress_streams_every_job_once() {
        let jobs = three_flow_jobs();
        let mut seen = Vec::new();
        let report = SuiteRunner::new(2).run_with_progress(&jobs, |o| {
            assert_eq!(o.total, 3);
            assert_eq!(o.completed, seen.len() + 1);
            assert_eq!(o.key, jobs[o.index].key(), "outcomes carry their address");
            seen.push(o.index);
        });
        seen.sort_unstable();
        assert_eq!(seen, [0, 1, 2]);
        assert_eq!(report.results.len(), 3);
        assert_eq!(report.workers, 2);
    }

    #[test]
    fn worker_count_is_clamped() {
        assert_eq!(SuiteRunner::new(0).workers(), 1);
        let jobs = three_flow_jobs();
        // More workers than jobs: the pool shrinks to the job count.
        let report = SuiteRunner::new(64).run(&jobs);
        assert_eq!(report.workers, 3);
    }

    #[test]
    fn shared_store_carries_results_across_runs() {
        let store = Arc::new(ResultCache::new());
        let runner = SuiteRunner::new(2).with_store(store.clone());
        let jobs = three_flow_jobs();

        let cold = runner.run(&jobs);
        assert_eq!(cold.cache.misses, 3);
        assert_eq!(cold.cache.hits(), 0);

        // Second run over the same store: everything is a memory hit, and
        // the per-run delta does not double-count the first run.
        let mut sources = Vec::new();
        let warm = runner.run_with_progress(&jobs, |o| sources.push(o.source));
        assert_eq!(warm.cache.misses, 0);
        assert_eq!(warm.cache.memory_hits, 3);
        assert!(sources.iter().all(|s| *s == HitSource::Memory));
        assert_eq!(store.stats().misses, 3, "lifetime counters accumulate");
    }
}
