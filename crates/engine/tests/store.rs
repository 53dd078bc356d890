//! Integration tests of the persistent result store: codec round-trips
//! (property-based and on real flows), corrupt/stale entries behaving as
//! misses, cross-process sharing, warm starts computing nothing, and
//! concurrent runners sharing one disk-backed store.

use sfq_circuits::epfl;
use sfq_engine::store::codec;
use sfq_engine::{DiskStore, Job, ResultCache, ResultStore, SuiteRunner};
use std::path::PathBuf;
use std::sync::Arc;
use t1map::cells::CellLibrary;
use t1map::dff::{Chain, Consumer, DffPlan, DriverPlan, Requirement};
use t1map::flow::{FlowConfig, FlowResult, FlowStats};
use t1map::mapped::{CellId, Edge, MappedCircuit};
use t1map::phase::Schedule;
use t1map::timing::TimingSummary;

use proptest::prelude::*;
use sfq_netlist::truth_table::TruthTable;
use sfq_opt::{OptReport, PassKind, PassStats};

/// Fresh per-test scratch directory (removed by the test when it cares;
/// the temp dir is process-unique so parallel test binaries never clash).
fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sfq-store-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Small deterministic generator for the synthetic-result proptest.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn stage(&mut self) -> i64 {
        self.below(2001) as i64 - 1000
    }
}

/// Builds a structurally valid — but otherwise arbitrary — [`FlowResult`]
/// from a seed: random netlist shape, schedule, DFF plan and optional
/// reports. This exercises codec paths real flows rarely produce (empty
/// chains, negative stages, exotic truth tables, multi-round reports).
fn synthetic_result(seed: u64, with_pre_opt: bool, with_timing: bool) -> FlowResult {
    let mut rng = XorShift(seed | 1);
    let mut mc = MappedCircuit::new();
    // Output-port count of each built cell (3 for T1, 1 otherwise).
    let mut ports: Vec<u8> = Vec::new();

    let inputs = 1 + rng.below(4) as usize;
    for _ in 0..inputs {
        mc.add_input();
    }
    ports.resize(inputs, 1);
    if rng.below(2) == 0 {
        mc.add_const0();
        ports.push(1);
    }
    fn edge(rng: &mut XorShift, ports: &[u8], positive: bool) -> Edge {
        let cell = rng.below(ports.len() as u64) as usize;
        Edge {
            cell: CellId(cell as u32),
            port: rng.below(ports[cell] as u64) as u8,
            invert: !positive && rng.below(2) == 0,
        }
    }
    let extra = rng.below(12) as usize;
    for _ in 0..extra {
        if ports.len() >= 3 && rng.below(4) == 0 {
            let fanins = [
                edge(&mut rng, &ports, true),
                edge(&mut rng, &ports, true),
                edge(&mut rng, &ports, true),
            ];
            mc.add_t1(fanins);
            ports.push(3);
        } else {
            let nvars = 1 + rng.below(6) as usize;
            let tt = TruthTable::from_bits(nvars, rng.next());
            let fanins: Vec<Edge> = (0..nvars).map(|_| edge(&mut rng, &ports, false)).collect();
            mc.add_gate(tt, fanins);
            ports.push(1);
        }
    }
    let pos = 1 + rng.below(3) as usize;
    for _ in 0..pos {
        let cell = rng.below(ports.len() as u64) as usize;
        mc.add_po(Edge {
            cell: CellId(cell as u32),
            port: rng.below(ports[cell] as u64) as u8,
            invert: rng.below(2) == 0,
        });
    }

    let ncells = ports.len();
    let schedule = Schedule {
        n: 1 + rng.below(8) as u32,
        stages: (0..ncells).map(|_| rng.stage()).collect(),
        horizon: rng.stage(),
        t1_offsets: (0..ncells)
            .map(|i| (ports[i] == 3).then(|| [rng.stage(), rng.stage(), rng.stage()]))
            .collect(),
    };

    let drivers = (0..rng.below(5))
        .map(|_| {
            let cell = rng.below(ncells as u64) as usize;
            let ncons = rng.below(4) as usize;
            DriverPlan {
                source: (CellId(cell as u32), rng.below(ports[cell] as u64) as u8),
                source_stage: rng.stage(),
                chain: Chain {
                    members: (0..rng.below(6)).map(|_| rng.stage()).collect(),
                    taps: (0..ncons).map(|_| rng.stage()).collect(),
                },
                consumers: (0..ncons)
                    .map(|_| {
                        let consumer = match rng.below(3) {
                            0 => Consumer::GateInput {
                                cell: CellId(rng.below(ncells as u64) as u32),
                                slot: rng.below(6) as usize,
                            },
                            1 => Consumer::T1Input {
                                cell: CellId(rng.below(ncells as u64) as u32),
                                slot: rng.below(3) as usize,
                            },
                            _ => Consumer::Output {
                                index: rng.below(8) as usize,
                            },
                        };
                        let req = if rng.below(2) == 0 {
                            Requirement::Window(rng.stage())
                        } else {
                            Requirement::Exact(rng.stage())
                        };
                        (consumer, req)
                    })
                    .collect(),
            }
        })
        .collect();
    let plan = DffPlan {
        drivers,
        total_dffs: rng.below(10_000),
        total_splitters: rng.below(1_000),
    };

    let pre_opt = with_pre_opt.then(|| OptReport {
        rounds: (0..1 + rng.below(3))
            .map(|_| {
                (0..rng.below(4))
                    .map(|_| PassStats {
                        pass: PassKind::KNOWN[rng.below(PassKind::KNOWN.len() as u64) as usize]
                            .name(),
                        nodes_before: rng.below(9999) as usize,
                        nodes_after: rng.below(9999) as usize,
                        depth_before: rng.below(99) as u32,
                        depth_after: rng.below(99) as u32,
                        applied: rng.below(999) as usize,
                        micros: rng.next(),
                    })
                    .collect()
            })
            .collect(),
        converged: rng.below(2) == 0,
        nodes_before: rng.below(9999) as usize,
        nodes_after: rng.below(9999) as usize,
        depth_before: rng.below(99) as u32,
        depth_after: rng.below(99) as u32,
    });

    let timing = with_timing.then(|| TimingSummary {
        horizon: rng.stage(),
        phases: 1 + rng.below(8) as u32,
        scheduled_cells: rng.below(9999) as usize,
        zero_slack_cells: rng.below(9999) as usize,
        worst_slack: rng.stage(),
        total_slack: rng.stage(),
        edge_dffs: rng.below(99_999),
        chained_dffs: rng.below(99_999),
    });

    FlowResult {
        mapped: mc,
        schedule,
        plan,
        stats: FlowStats {
            t1_found: rng.below(999) as usize,
            t1_used: rng.below(999) as usize,
            dffs: rng.below(99_999),
            splitters: rng.below(9_999),
            cell_area: rng.below(999_999),
            area: rng.below(999_999),
            depth_cycles: rng.stage(),
            gates: rng.below(9999) as usize,
        },
        pre_opt,
        timing,
    }
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
        let back = codec::decode(&text);
        prop_assert_eq!(Ok(&original), back.as_ref(), "seed {}", seed);
        // Encoding is deterministic, so the round trip is a fixpoint.
        prop_assert_eq!(text.clone(), codec::encode(&back.unwrap()));
    }
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
            FlowConfig::t1(4).to_builder().standard_opt().build(),
        ),
        Job::new(
            "adder6",
            "T1+sta",
            aig,
            lib,
            FlowConfig::t1(4)
                .to_builder()
                .slack_opt()
                .timing(true)
                .build(),
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
    {
        let disk = Arc::new(DiskStore::open(&dir).unwrap());
        let warmup = ResultCache::with_backing(disk);
        warmup.put(key, &Arc::new(synthetic_result(9, false, false)));
    }
    let disk = Arc::new(DiskStore::open(&dir).unwrap());
    let cache = ResultCache::with_backing(disk);
    assert!(cache.is_empty());
    assert!(cache.contains(key), "contains falls through to disk");
    assert!(
        ResultStore::get(&cache, key).is_some(),
        "first get hits disk"
    );
    assert_eq!(cache.len(), 1, "promoted into memory");
    assert!(ResultStore::get(&cache, key).is_some());
    let stats = cache.stats();
    assert_eq!((stats.disk_hits, stats.memory_hits), (1, 1));
    std::fs::remove_dir_all(&dir).unwrap();
}
