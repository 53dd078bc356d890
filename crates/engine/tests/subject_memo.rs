//! The engine's per-run subject memo is invisible in results: a suite run
//! returns exactly what `run_flow` returns for every job, and builds one
//! subject per (network, library, pre-mapping stage) it computes. One test
//! function: the `sfq-obs` recorder that counts subject builds is global.

use sfq_circuits::epfl;
use sfq_engine::{Job, ResultCache, SuiteRunner};
use sfq_netlist::fnv::Fnv1a;
use sfq_opt::OptConfig;
use std::collections::HashSet;
use std::hash::Hasher;
use std::sync::Arc;
use t1map::cells::CellLibrary;
use t1map::flow::{run_flow, FlowConfig, FlowResult};

/// Two networks × two libraries × four pre-mapping stages × the three
/// paper flows, with duplicates, in a seeded shuffled order.
fn jobs() -> Vec<Job> {
    let pricey_xor = CellLibrary {
        xor2: 25,
        ..CellLibrary::default()
    };
    let pre_opts = [
        OptConfig::disabled(),
        OptConfig::standard(),
        OptConfig::dff_aware(4),
        OptConfig::dff_aware(6),
    ];
    let mut jobs = Vec::new();
    for (name, aig) in [("adder6", epfl::adder(6)), ("square3", epfl::square(3))] {
        let aig = Arc::new(aig);
        for lib in [CellLibrary::default(), pricey_xor] {
            for pre_opt in &pre_opts {
                for (flow, config) in [
                    ("1φ", FlowConfig::single_phase()),
                    ("nφ", FlowConfig::multiphase(4)),
                    ("T1", FlowConfig::t1(4)),
                ] {
                    let config = FlowConfig {
                        pre_opt: pre_opt.clone(),
                        ..config
                    };
                    jobs.push(Job::new(name, flow, aig.clone(), lib, config));
                }
            }
        }
    }
    let duplicates: Vec<Job> = jobs.iter().step_by(7).cloned().collect();
    jobs.extend(duplicates);
    let mut state = 0x5EED_CAFE_F00D_0001u64;
    for i in (1..jobs.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        jobs.swap(i, (state % (i as u64 + 1)) as usize);
    }
    jobs
}

/// `result` with the optimizer's wall-clock pass times zeroed: the only
/// fields two runs of one flow may disagree on.
fn without_clock(result: &FlowResult) -> FlowResult {
    let mut r = result.clone();
    if let Some(report) = &mut r.pre_opt {
        for pass in report.rounds.iter_mut().flatten() {
            pass.micros = 0;
        }
    }
    r
}

fn fingerprint(f: impl FnOnce(&mut Fnv1a)) -> u64 {
    let mut h = Fnv1a::new();
    f(&mut h);
    h.finish()
}

fn subject_builds(trace: &sfq_obs::Trace) -> u64 {
    trace
        .counters
        .iter()
        .find(|(n, _)| n == "engine.subject_builds")
        .map_or(0, |&(_, v)| v)
}

fn traced<T>(f: impl FnOnce() -> T) -> (T, sfq_obs::Trace) {
    sfq_obs::enable();
    let out = f();
    sfq_obs::disable();
    (out, sfq_obs::take())
}

#[test]
fn suite_runs_equal_run_flow_and_build_each_subject_once() {
    let jobs = jobs();
    let expected: Vec<FlowResult> = jobs
        .iter()
        .map(|j| without_clock(&run_flow(&j.aig, &j.lib, &j.config)))
        .collect();
    let keys: HashSet<_> = jobs.iter().map(Job::key).collect();
    let subjects: HashSet<_> = jobs
        .iter()
        .map(|j| {
            (
                j.aig.structural_hash(),
                fingerprint(|h| j.lib.fingerprint(h)),
                fingerprint(|h| j.config.pre_opt.fingerprint(h)),
            )
        })
        .collect();
    assert_eq!(subjects.len(), 2 * 2 * 4);

    for workers in [1, 3] {
        let (report, trace) = traced(|| SuiteRunner::new(workers).run(&jobs));
        for (i, (got, want)) in report.results.iter().zip(&expected).enumerate() {
            assert_eq!(
                &without_clock(got),
                want,
                "job {i} ({}) on {workers} workers",
                jobs[i].label()
            );
        }
        assert_eq!(report.cache.misses, keys.len() as u64);
        assert_eq!(
            subject_builds(&trace),
            subjects.len() as u64,
            "one subject per distinct subject key on {workers} workers"
        );
    }

    // A second run over a shared store is all hits: no subject is built.
    let runner = SuiteRunner::new(2).with_store(Arc::new(ResultCache::new()));
    runner.run(&jobs);
    let (warm, trace) = traced(|| runner.run(&jobs));
    assert_eq!(warm.cache.misses, 0);
    assert_eq!(
        subject_builds(&trace),
        0,
        "cache hits never build a subject"
    );
}
