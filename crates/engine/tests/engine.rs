//! Integration tests of the execution engine: cache-key stability,
//! deterministic result ordering under different worker counts, and result
//! sharing across identical jobs.

use sfq_circuits::epfl;
use sfq_engine::{CacheKey, Job, SuiteRunner};
use sfq_netlist::aig::Aig;
use std::sync::Arc;
use t1map::cells::CellLibrary;
use t1map::flow::FlowConfig;

/// Builds a 4-bit adder through the public construction API (not the `epfl`
/// generator) so the test controls every gate.
fn hand_built_adder(extra_gate: bool) -> Aig {
    let mut g = Aig::new();
    let a: Vec<_> = (0..4).map(|_| g.add_pi()).collect();
    let b: Vec<_> = (0..4).map(|_| g.add_pi()).collect();
    let mut carry = None;
    for i in 0..4 {
        let (s, c) = match carry {
            None => (g.xor(a[i], b[i]), g.and(a[i], b[i])),
            Some(cin) => (g.xor3(a[i], b[i], cin), g.maj3(a[i], b[i], cin)),
        };
        g.add_po(s);
        carry = Some(c);
    }
    let mut last = carry.expect("non-empty adder");
    if extra_gate {
        last = g.and(last, a[0]);
    }
    g.add_po(last);
    g
}

#[test]
fn cache_key_is_stable_across_identical_builds() {
    let lib = CellLibrary::default();
    let cfg = FlowConfig::t1(4);
    let first = CacheKey::compute(&hand_built_adder(false), &lib, &cfg);
    let second = CacheKey::compute(&hand_built_adder(false), &lib, &cfg);
    assert_eq!(first, second, "same construction → same content address");
}

#[test]
fn cache_key_changes_on_a_one_gate_edit() {
    let lib = CellLibrary::default();
    let cfg = FlowConfig::t1(4);
    let pristine = CacheKey::compute(&hand_built_adder(false), &lib, &cfg);
    let edited = CacheKey::compute(&hand_built_adder(true), &lib, &cfg);
    assert_ne!(pristine, edited, "one extra gate → different address");
}

fn mixed_suite() -> Vec<Job> {
    let lib = CellLibrary::default();
    let mut jobs = Vec::new();
    for (name, aig) in [
        ("adder8", epfl::adder(8)),
        ("square4", epfl::square(4)),
        ("voter7", epfl::voter(7)),
    ] {
        let aig = Arc::new(aig);
        jobs.push(Job::new(
            name,
            "1φ",
            aig.clone(),
            lib,
            FlowConfig::single_phase(),
        ));
        jobs.push(Job::new(
            name,
            "4φ",
            aig.clone(),
            lib,
            FlowConfig::multiphase(4),
        ));
        jobs.push(Job::new(name, "T1", aig, lib, FlowConfig::t1(4)));
    }
    jobs
}

#[test]
fn result_order_is_deterministic_across_worker_counts() {
    let jobs = mixed_suite();
    let serial = SuiteRunner::new(1).run(&jobs);
    let parallel = SuiteRunner::new(4).run(&jobs);
    assert_eq!(serial.results.len(), parallel.results.len());
    for (i, (s, p)) in serial.results.iter().zip(&parallel.results).enumerate() {
        assert_eq!(s.stats, p.stats, "job {i} ({}) diverged", jobs[i].label());
    }
}

#[test]
fn duplicate_jobs_share_one_computation() {
    let lib = CellLibrary::default();
    let aig = Arc::new(epfl::adder(8));
    // The same content five times under different labels.
    let jobs: Vec<Job> = (0..5)
        .map(|i| {
            Job::new(
                format!("copy{i}"),
                "4φ",
                aig.clone(),
                lib,
                FlowConfig::multiphase(4),
            )
        })
        .collect();
    let report = SuiteRunner::new(3).run(&jobs);
    assert_eq!(report.cache.misses, 1, "computed exactly once");
    assert_eq!(report.cache.hits(), 4, "four requests served from cache");
    assert_eq!(
        report.cache.memory_hits, 4,
        "all hits from the in-memory tier"
    );
    let first = &report.results[0];
    for r in &report.results[1..] {
        assert!(Arc::ptr_eq(first, r), "results share one allocation");
    }
}

#[test]
fn pre_opt_jobs_get_distinct_cache_keys() {
    // The pre-mapping optimization stage is part of the job's content
    // address: an optimized run must never be served a plain run's cached
    // result (or vice versa).
    let lib = CellLibrary::default();
    let aig = Arc::new(epfl::adder(8));
    let plain = Job::new("adder", "T1", aig.clone(), lib, FlowConfig::t1(4));
    let opted = Job::new(
        "adder",
        "T1+opt",
        aig.clone(),
        lib,
        FlowConfig::t1(4).to_builder().standard_opt().build(),
    );
    assert_ne!(
        plain.key(),
        opted.key(),
        "pre_opt must contribute to the cache key"
    );
    assert_eq!(
        opted.key(),
        CacheKey::compute(
            &aig,
            &lib,
            &FlowConfig::t1(4).to_builder().standard_opt().build()
        ),
        "equal configurations agree on the key"
    );
    // Both flavors run side by side without sharing results.
    let report = SuiteRunner::new(2).run(&[plain, opted]);
    assert_eq!(report.cache.misses, 2);
    assert_eq!(report.cache.hits(), 0);
    assert!(report.results.iter().all(|r| r.stats.gates > 0));
}

#[test]
fn timing_configs_get_distinct_cache_keys() {
    // The timing-analysis stage fingerprints into the content address:
    // a timing-enabled job carries an extra summary, so serving it a plain
    // run's cached result (or vice versa) would be wrong.
    let lib = CellLibrary::default();
    let aig = Arc::new(epfl::adder(8));
    let plain = Job::new("adder", "T1", aig.clone(), lib, FlowConfig::t1(4));
    let timed = Job::new(
        "adder",
        "T1+sta",
        aig.clone(),
        lib,
        FlowConfig::t1(4).to_builder().timing(true).build(),
    );
    assert_ne!(
        plain.key(),
        timed.key(),
        "the timing stage must contribute to the cache key"
    );
    // The slack-aware pre-opt stage keys differently from the standard one.
    assert_ne!(
        CacheKey::compute(
            &aig,
            &lib,
            &FlowConfig::t1(4).to_builder().standard_opt().build()
        ),
        CacheKey::compute(
            &aig,
            &lib,
            &FlowConfig::t1(4).to_builder().slack_opt().build()
        ),
        "conservative and slack-aware pre-opt must not share results"
    );
    // End to end: the timed job's result carries the summary, the plain
    // one's does not, and no cache sharing happens.
    let report = SuiteRunner::new(2).run(&[plain, timed]);
    assert_eq!(report.cache.misses, 2);
    assert_eq!(report.cache.hits(), 0);
    assert!(report.results[0].timing.is_none());
    let summary = report.results[1].timing.expect("timing summary attached");
    assert_eq!(summary.worst_slack, 0);
}
