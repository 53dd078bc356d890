//! The calling thread is worker 0: a one-worker run does all of its work,
//! store reads and writes included, on the thread that called it, and a
//! run with helpers still reports every job exactly once, in a gapless
//! completion count.

use sfq_circuits::epfl::adder;
use sfq_engine::{CacheKey, HitSource, Job, ResultCache, ResultStore, StoreStats, SuiteRunner};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use t1map::cells::CellLibrary;
use t1map::flow::{FlowConfig, FlowResult};

/// An in-memory backing store that records which thread made each call.
#[derive(Default)]
struct ThreadRecordingStore {
    entries: Mutex<HashMap<CacheKey, Arc<FlowResult>>>,
    gets: Mutex<Vec<ThreadId>>,
    puts: Mutex<Vec<ThreadId>>,
}

impl ResultStore for ThreadRecordingStore {
    fn get(&self, key: CacheKey) -> Option<Arc<FlowResult>> {
        self.gets.lock().unwrap().push(std::thread::current().id());
        self.entries.lock().unwrap().get(&key).cloned()
    }

    fn put(&self, key: CacheKey, result: &Arc<FlowResult>) {
        self.puts.lock().unwrap().push(std::thread::current().id());
        self.entries.lock().unwrap().insert(key, result.clone());
    }

    fn contains(&self, key: CacheKey) -> bool {
        self.entries.lock().unwrap().contains_key(&key)
    }

    fn stats(&self) -> StoreStats {
        StoreStats::default()
    }

    fn gc(&self, _keep_newest: usize) -> usize {
        0
    }
}

/// Six distinct jobs over two small subjects.
fn jobs() -> Vec<Job> {
    let lib = CellLibrary::default();
    [3, 4]
        .into_iter()
        .flat_map(|width| {
            let aig = Arc::new(adder(width));
            let name = format!("adder{width}");
            [
                ("1φ", FlowConfig::single_phase()),
                ("4φ", FlowConfig::multiphase(4)),
                ("T1", FlowConfig::t1(4)),
            ]
            .map(|(flow, config)| Job::new(&name, flow, aig.clone(), lib, config))
        })
        .collect()
}

#[test]
fn one_worker_reads_and_writes_the_store_on_the_calling_thread() {
    let me = std::thread::current().id();
    let backing = Arc::new(ThreadRecordingStore::default());
    let jobs = jobs();

    let cold = SuiteRunner::new(1)
        .with_store(Arc::new(ResultCache::with_backing(backing.clone())))
        .run(&jobs);
    assert_eq!(cold.workers, 1);
    assert_eq!(cold.cache.misses, jobs.len() as u64);
    let puts = std::mem::take(&mut *backing.puts.lock().unwrap());
    assert_eq!(puts.len(), jobs.len(), "every computed result is written");
    assert!(
        puts.iter().all(|&t| t == me),
        "a one-worker run writes on the calling thread"
    );

    // A fresh memory tier over the same backing: every job is a disk hit.
    backing.gets.lock().unwrap().clear();
    let mut sources = Vec::new();
    let warm = SuiteRunner::new(1)
        .with_store(Arc::new(ResultCache::with_backing(backing.clone())))
        .run_with_progress(&jobs, |o| sources.push(o.source));
    assert_eq!(warm.cache.disk_hits, jobs.len() as u64);
    assert!(sources.iter().all(|&s| s == HitSource::Disk));
    let gets = backing.gets.lock().unwrap();
    assert_eq!(gets.len(), jobs.len(), "every job probes the backing once");
    assert!(
        gets.iter().all(|&t| t == me),
        "a one-worker run decodes its disk hits on the calling thread"
    );
}

#[test]
fn helpers_and_caller_report_every_job_once_in_a_gapless_count() {
    let jobs = jobs();
    let mut indices = Vec::new();
    let mut completed = Vec::new();
    let report = SuiteRunner::new(3).run_with_progress(&jobs, |o| {
        assert_eq!(o.total, jobs.len());
        indices.push(o.index);
        completed.push(o.completed);
    });
    assert_eq!(report.workers, 3);
    assert_eq!(report.results.len(), jobs.len());
    assert_eq!(completed, (1..=jobs.len()).collect::<Vec<_>>());
    indices.sort_unstable();
    assert_eq!(indices, (0..jobs.len()).collect::<Vec<_>>());
}
