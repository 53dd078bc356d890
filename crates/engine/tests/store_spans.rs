//! The write-through to a persistent store is its own span: a cold run
//! over a `DiskStore` emits one `store:put` per computed job, a warm run
//! emits none. One test function: the `sfq-obs` recorder is global.

use sfq_circuits::epfl;
use sfq_engine::{DiskStore, Job, ResultCache, SuiteRunner};
use std::sync::Arc;
use t1map::cells::CellLibrary;
use t1map::flow::FlowConfig;

fn traced<T>(f: impl FnOnce() -> T) -> (T, sfq_obs::Trace) {
    sfq_obs::enable();
    let out = f();
    sfq_obs::disable();
    (out, sfq_obs::take())
}

fn puts(trace: &sfq_obs::Trace) -> usize {
    trace
        .events
        .iter()
        .filter(|e| e.name == "store:put")
        .count()
}

#[test]
fn write_through_is_one_store_put_span_per_computed_job() {
    let dir = std::env::temp_dir().join(format!("sfq-store-spans-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let lib = CellLibrary::default();
    let aig = Arc::new(epfl::adder(6));
    let mut jobs = vec![
        Job::new("adder6", "1φ", aig.clone(), lib, FlowConfig::single_phase()),
        Job::new("adder6", "4φ", aig.clone(), lib, FlowConfig::multiphase(4)),
        Job::new("adder6", "T1", aig, lib, FlowConfig::t1(4)),
    ];
    // A duplicate is served from memory: it computes and writes nothing.
    jobs.push(jobs[2].clone());
    let layered = || {
        Arc::new(ResultCache::with_backing(Arc::new(
            DiskStore::open(&dir).unwrap(),
        )))
    };

    let (cold, trace) = traced(|| SuiteRunner::new(2).with_store(layered()).run(&jobs));
    assert_eq!(cold.cache.misses, 3);
    assert_eq!(puts(&trace), 3, "one store:put per computed job");

    let (warm, trace) = traced(|| SuiteRunner::new(2).with_store(layered()).run(&jobs));
    assert_eq!((warm.cache.misses, warm.cache.disk_hits), (0, 3));
    assert_eq!(puts(&trace), 0, "a warm run writes nothing");
    std::fs::remove_dir_all(&dir).unwrap();
}
