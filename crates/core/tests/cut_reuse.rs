//! A T1 flow's detection matches over its subject's 3-cuts when they are
//! exactly what detection's own limits would enumerate, and enumerates
//! again otherwise; either way the flow result is the one standalone
//! detection gives. One test function: the `sfq-obs` recorder is global.

use sfq_circuits::epfl::{adder, multiplier, sin};
use sfq_circuits::iscas::c6288_like;
use sfq_netlist::cut::CutConfig;
use sfq_opt::OptConfig;
use t1map::{detect, map, run_flow, CellLibrary, DetectConfig, FlowConfig, Subject};

fn traced<T>(f: impl FnOnce() -> T) -> (T, sfq_obs::Trace) {
    sfq_obs::enable();
    let out = f();
    sfq_obs::disable();
    (out, sfq_obs::take())
}

fn counter(trace: &sfq_obs::Trace, name: &str) -> u64 {
    trace
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}

#[test]
fn detection_reuses_subject_cuts_or_falls_back_with_the_same_result() {
    let lib = CellLibrary::default();
    // Two cuts per node truncates every subject below, so the mapper's
    // limit-16 set cannot serve it.
    let tight = DetectConfig {
        cut: CutConfig {
            max_leaves: 3,
            max_cuts: 2,
        },
        ..DetectConfig::default()
    };
    let mut tight_differs = false;
    for aig in [adder(16), multiplier(6), sin(8), c6288_like()] {
        let subject = Subject::new(&aig, &lib, &OptConfig::disabled());
        for (detect_config, enumerations) in [(DetectConfig::default(), 0), (tight, 1)] {
            let config = FlowConfig {
                detect: detect_config,
                ..FlowConfig::t1(4)
            };
            let (res, trace) = traced(|| subject.run(&aig, &lib, &config));
            let detect_spans = |name: &str| trace.events.iter().filter(|e| e.name == name).count();
            assert_eq!(detect_spans("detect:cuts"), enumerations as usize);
            assert_eq!(detect_spans("detect:match"), 1);
            assert_eq!(counter(&trace, "netlist.cut_enumerations"), enumerations);
            assert_eq!(sfq_obs::open_spans(), 0);

            // Standalone detection enumerates its own cuts; the T1-aware
            // cover of its selection is the flow's netlist.
            let det = detect(&aig, &lib, &detect_config);
            assert_eq!(res.stats.t1_found, det.found());
            assert_eq!(res.mapped, map(&aig, &lib, Some(&det.selection)).circuit);
            assert_eq!(res, run_flow(&aig, &lib, &config));
            if enumerations == 1 {
                tight_differs |=
                    det.found() != detect(&aig, &lib, &DetectConfig::default()).found();
            }
        }
    }
    assert!(
        tight_differs,
        "the fallback limit must change some detection"
    );
}
