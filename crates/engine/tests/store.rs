//! Integration tests of the persistent result store: codec round-trips
//! (property-based and on real flows), the golden format-v3 entry,
//! corrupt/stale entries behaving as misses, cross-process sharing, warm
//! starts computing nothing, and concurrent runners sharing one
//! disk-backed store.

mod synthetic;

use proptest::prelude::*;
use sfq_circuits::epfl;
use sfq_engine::store::codec;
use sfq_engine::{DiskStore, HitSource, Job, ResultCache, ResultStore, SuiteRunner};
use sfq_opt::OptConfig;
use std::path::PathBuf;
use std::sync::Arc;
use synthetic::{extreme_result, synthetic_result};
use t1map::cells::CellLibrary;
use t1map::flow::FlowConfig;
use t1map::timing::TimingConfig;

/// Fresh per-test scratch directory (removed by the test when it cares;
/// the temp dir is process-unique so parallel test binaries never clash).
fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sfq-store-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn codec_round_trips_synthetic_results(
        seed in any::<u64>(),
        with_pre_opt in any::<bool>(),
        with_timing in any::<bool>(),
    ) {
        let original = synthetic_result(seed, with_pre_opt, with_timing);
        let text = codec::encode(&original);
        let back = codec::decode(text.as_bytes());
        prop_assert_eq!(Ok(&original), back.as_ref(), "seed {}", seed);
        // Encoding is deterministic, so the round trip is a fixpoint.
        prop_assert_eq!(text.clone(), codec::encode(&back.unwrap()));

        let extreme = extreme_result(seed);
        prop_assert_eq!(codec::decode(codec::encode(&extreme).as_bytes()), Ok(extreme));
    }
}

/// Seed of the result the golden entry encodes: two T1 cells, pre-opt
/// and timing.
const GOLDEN_SEED: u64 = 6;

/// The committed entry pins format v3 byte for byte: a change to the
/// encoder's output must bump `FORMAT_VERSION` (and replace this file).
/// Decoding it derives the DFF plan the entry does not store.
#[test]
fn golden_entry_pins_format_v3() {
    let golden = include_str!("golden/entry_v3.sfqr");
    let result = synthetic_result(GOLDEN_SEED, true, true);
    assert_eq!(result.mapped.t1_count(), 2);
    assert_eq!(codec::FORMAT_VERSION, 3);
    assert_eq!(codec::encode(&result), golden);
    assert_eq!(codec::decode(golden.as_bytes()), Ok(result));
}

/// One small real job per flow flavor the front ends submit, including
/// pre-opt and timing (whose reports must survive the disk round trip —
/// the ablation binary reads `pre_opt` out of cached results).
fn flavored_jobs() -> Vec<Job> {
    let lib = CellLibrary::default();
    let aig = Arc::new(epfl::adder(6));
    vec![
        Job::new("adder6", "1φ", aig.clone(), lib, FlowConfig::single_phase()),
        Job::new("adder6", "4φ", aig.clone(), lib, FlowConfig::multiphase(4)),
        Job::new("adder6", "T1", aig.clone(), lib, FlowConfig::t1(4)),
        Job::new(
            "adder6",
            "T1+opt",
            aig.clone(),
            lib,
            FlowConfig {
                pre_opt: OptConfig::standard(),
                ..FlowConfig::t1(4)
            },
        ),
        Job::new(
            "adder6",
            "T1+sta",
            aig,
            lib,
            FlowConfig {
                pre_opt: OptConfig::slack_aware(),
                timing: TimingConfig::standard(),
                ..FlowConfig::t1(4)
            },
        ),
    ]
}

#[test]
fn disk_store_round_trips_across_instances() {
    let dir = tmp_dir("across");
    let result = Arc::new(synthetic_result(42, true, true));
    let key = sfq_engine::CacheKey { aig: 7, setup: 9 };
    {
        let store = DiskStore::open(&dir).unwrap();
        store.put(key, &result);
        assert!(store.contains(key));
        assert_eq!(store.stats().puts, 1);
    }
    // A fresh instance (≈ another process) sees the entry.
    let store = DiskStore::open(&dir).unwrap();
    let back = store.get(key).expect("persisted entry");
    assert_eq!(*back, *result);
    assert_eq!(store.stats().entries, 1);
    assert!(store
        .get(sfq_engine::CacheKey { aig: 0, setup: 0 })
        .is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_and_truncated_files_are_misses_and_get_removed() {
    let dir = tmp_dir("corrupt");
    let store = DiskStore::open(&dir).unwrap();
    let result = Arc::new(synthetic_result(1, false, false));
    let key = sfq_engine::CacheKey { aig: 1, setup: 1 };
    store.put(key, &result);

    // Overwrite the entry with garbage: the lookup must miss, count an
    // error and clear the debris so the next put starts clean.
    let path = store.root().join(format!("{:016x}-{:016x}.sfqr", 1, 1));
    std::fs::write(&path, "not a flow result\n").unwrap();
    assert!(store.get(key).is_none(), "corrupt entry is a miss");
    let stats = store.stats();
    assert_eq!((stats.errors, stats.misses), (1, 1));
    assert!(!path.exists(), "corrupt entry removed");

    // Truncated entry (simulated torn write): same contract.
    let text = codec::encode(&result);
    std::fs::write(&path, &text[..text.len() / 2]).unwrap();
    assert!(store.get(key).is_none(), "truncated entry is a miss");
    assert!(!path.exists());

    // One byte that is not UTF-8 is a decode error like any other, not an
    // I/O error that leaves the entry on disk. No other test of this
    // binary enables the recorder or decodes a bad entry.
    let mut bytes = text.into_bytes();
    let middle = bytes.len() / 2;
    bytes[middle] = 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    sfq_obs::enable();
    let got = store.get(key);
    sfq_obs::disable();
    let trace = sfq_obs::take();
    assert!(got.is_none(), "non-UTF-8 entry is a miss");
    assert!(!path.exists(), "non-UTF-8 entry removed");
    assert_eq!(store.stats().errors, 3);
    let decode_errors = trace
        .counters
        .iter()
        .find(|(n, _)| n == "store.codec.decode_errors")
        .map(|&(_, v)| v);
    assert_eq!(decode_errors, Some(1));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stale_format_versions_are_invisible_and_swept_by_gc() {
    let dir = tmp_dir("stale");
    // Debris from a hypothetical older codec version.
    let stale = dir.join("v0");
    std::fs::create_dir_all(&stale).unwrap();
    std::fs::write(stale.join("00-00.sfqr"), "old format").unwrap();

    let store = DiskStore::open(&dir).unwrap();
    assert_eq!(store.stats().entries, 0, "stale entries are not visible");
    let result = Arc::new(synthetic_result(3, false, false));
    for aig in 0..4u64 {
        store.put(sfq_engine::CacheKey { aig, setup: 0 }, &result);
    }
    // gc removes the stale version dir and evicts down to the newest two.
    let removed = store.gc(2);
    assert_eq!(removed, 3, "one stale entry + two evictions");
    assert!(!stale.exists());
    assert_eq!(store.stats().entries, 2);
    assert_eq!(store.stats().evicted, 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn warm_start_over_a_populated_store_computes_nothing() {
    let dir = tmp_dir("warm");
    let jobs = flavored_jobs();

    let cold_report = {
        let disk = Arc::new(DiskStore::open(&dir).unwrap());
        let store = Arc::new(ResultCache::with_backing(disk));
        SuiteRunner::new(2).with_store(store).run(&jobs)
    };
    assert_eq!(cold_report.cache.misses, jobs.len() as u64);
    assert_eq!(cold_report.cache.disk.puts, jobs.len() as u64);

    // Fresh memory tier, same directory: every result comes off disk and
    // ZERO flows are computed — the warm-start guarantee.
    let disk = Arc::new(DiskStore::open(&dir).unwrap());
    let store = Arc::new(ResultCache::with_backing(disk));
    let warm_report = SuiteRunner::new(2).with_store(store).run(&jobs);
    assert_eq!(warm_report.cache.misses, 0, "zero flow computations");
    assert_eq!(warm_report.cache.disk_hits, jobs.len() as u64);
    for (cold, warm) in cold_report.results.iter().zip(&warm_report.results) {
        assert_eq!(**cold, **warm, "disk round trip preserves the result");
    }
    // The reports the ablation binary reads off cached results survived.
    assert!(warm_report.results[3].pre_opt.is_some());
    assert!(warm_report.results[4].timing.is_some());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_runners_sharing_one_store_compute_each_key_once() {
    let dir = tmp_dir("concurrent");
    let disk = Arc::new(DiskStore::open(&dir).unwrap());
    let store = Arc::new(ResultCache::with_backing(disk));
    let jobs = flavored_jobs();
    let distinct = jobs.len() as u64;

    std::thread::scope(|scope| {
        for _ in 0..2 {
            let store = store.clone();
            let jobs = &jobs;
            scope.spawn(move || {
                SuiteRunner::new(2).with_store(store).run(jobs);
            });
        }
    });

    // Both runners submitted every key; the shared store's in-flight
    // deduplication makes one runner compute while the other hits.
    let stats = store.stats();
    assert_eq!(stats.misses, distinct, "each key computed exactly once");
    assert_eq!(stats.hits() + stats.misses, 2 * distinct);
    assert_eq!(stats.disk.puts, distinct, "write-through once per key");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn layered_cache_promotes_disk_hits_into_memory() {
    let dir = tmp_dir("promote");
    let key = sfq_engine::CacheKey { aig: 5, setup: 5 };
    let stored = Arc::new(synthetic_result(9, false, false));
    DiskStore::open(&dir).unwrap().put(key, &stored);
    let disk = Arc::new(DiskStore::open(&dir).unwrap());
    let cache = ResultCache::with_backing(disk);
    assert!(cache.is_empty());
    let compute = || -> t1map::flow::FlowResult { panic!("the stored entry must be served") };
    let (first, first_source) = cache.get_or_compute(key, compute);
    let (second, second_source) = cache.get_or_compute(key, compute);
    assert_eq!(
        (first_source, second_source),
        (HitSource::Disk, HitSource::Memory),
        "the first request reads disk, the second is served from memory"
    );
    assert_eq!(*first, *stored);
    assert!(Arc::ptr_eq(&first, &second), "the promoted entry is shared");
    assert_eq!(cache.len(), 1, "promoted into memory");
    let stats = cache.stats();
    assert_eq!(
        (stats.disk_hits, stats.memory_hits, stats.misses),
        (1, 1, 0)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
