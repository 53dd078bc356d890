//! A run hashes each subject network once per place that keys it:
//! `expand` once per subject, the runner once per distinct `Arc<Aig>`.
//! Every key the runner reports is still the job's own `Job::key`, so
//! sharing digests changes no address. One test function: the `sfq-obs`
//! recorder that counts structural hashes is global.

use sfq_circuits::epfl;
use sfq_engine::{CacheKey, Job, SuiteRunner};
use sfq_explore::spec;
use sfq_explore::sweep::run_sweep;
use std::sync::Arc;
use t1map::cells::CellLibrary;
use t1map::flow::FlowConfig;

fn structural_hashes(trace: &sfq_obs::Trace) -> u64 {
    trace
        .counters
        .iter()
        .find(|(n, _)| n == "netlist.structural_hashes")
        .map_or(0, |&(_, v)| v)
}

fn traced<T>(f: impl FnOnce() -> T) -> (T, sfq_obs::Trace) {
    sfq_obs::enable();
    let out = f();
    sfq_obs::disable();
    (out, sfq_obs::take())
}

/// The key of every outcome of running `jobs` on `workers` workers, in
/// submission order, and the number of structural hashes the run made.
fn outcome_keys(jobs: &[Job], workers: usize) -> (Vec<CacheKey>, u64) {
    let (keys, trace) = traced(|| {
        let mut keys = vec![None; jobs.len()];
        SuiteRunner::new(workers).run_with_progress(jobs, |o| keys[o.index] = Some(o.key));
        keys
    });
    let keys: Vec<CacheKey> = keys.into_iter().map(Option::unwrap).collect();
    for (i, (job, key)) in jobs.iter().zip(&keys).enumerate() {
        assert_eq!(
            *key,
            job.key(),
            "outcome {i} ({}) carries Job::key",
            job.label()
        );
    }
    (keys, structural_hashes(&trace))
}

#[test]
fn each_network_is_hashed_once_per_run_and_keys_are_unchanged() {
    let lib = CellLibrary::default();
    let flows = || {
        [
            ("1φ", FlowConfig::single_phase()),
            ("4φ", FlowConfig::multiphase(4)),
            ("T1", FlowConfig::t1(4)),
        ]
    };

    // A 2-benchmark grid of 18 points: `expand` hashes each subject once
    // and the runner hashes each subject's shared `Arc` once more.
    let s =
        spec::parse("benchmarks adder:4 multiplier:3\nflows 1phi nphi t1\nphases 3 4 5\n").unwrap();
    for workers in [1, 2] {
        let (run, trace) = traced(|| run_sweep(s.clone(), &SuiteRunner::new(workers), |_| {}));
        let run = run.unwrap();
        assert_eq!(run.points.len(), 18);
        assert_eq!(
            structural_hashes(&trace),
            2 * 2,
            "expand plus pool, per benchmark, on {workers} workers"
        );
        for (i, p) in run.points.iter().enumerate() {
            assert_eq!(p.key, run.jobs[p.job].key(), "point {i} carries Job::key");
        }
    }

    // Jobs sharing one `Arc` are hashed once, on any worker count.
    let shared = Arc::new(epfl::adder(4));
    let jobs: Vec<Job> = flows()
        .into_iter()
        .map(|(flow, config)| Job::new("adder4", flow, shared.clone(), lib, config))
        .collect();
    for workers in [1, 3] {
        let (_, hashes) = outcome_keys(&jobs, workers);
        assert_eq!(hashes, 1, "one shared network on {workers} workers");
    }

    // Equal content behind distinct `Arc`s: hashed once each, equal keys.
    let twins: Vec<Job> = (0..2)
        .map(|_| {
            let aig = Arc::new(epfl::adder(4));
            Job::new("adder4", "1φ", aig, lib, FlowConfig::single_phase())
        })
        .collect();
    let (keys, hashes) = outcome_keys(&twins, 1);
    assert_eq!(hashes, 2);
    assert_eq!(keys[0], keys[1], "equal networks share an address");

    // One name on different networks: the digest follows the network, not
    // the label, so every flow gets two distinct addresses.
    let (small, large) = (Arc::new(epfl::adder(4)), Arc::new(epfl::adder(5)));
    let mut jobs = Vec::new();
    for (flow, config) in flows() {
        jobs.push(Job::new("x", flow, small.clone(), lib, config.clone()));
        jobs.push(Job::new("x", flow, large.clone(), lib, config));
    }
    let (keys, hashes) = outcome_keys(&jobs, 2);
    assert_eq!(hashes, 2);
    for pair in keys.chunks(2) {
        assert_ne!(pair[0], pair[1], "same name, different networks");
    }
}
