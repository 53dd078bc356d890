//! The mapping, detection and phase-assignment sub-stage spans, how often
//! a flow (and a suite of flows on one subject) enumerates cuts, and the
//! phase-assignment work counter. One test function: the `sfq-obs`
//! recorder is global.

use sfq_circuits::epfl::adder;
use sfq_engine::{Job, SuiteRunner};
use std::sync::Arc;
use t1map::cells::CellLibrary;
use t1map::flow::{run_flow, FlowConfig};

fn traced(f: impl FnOnce()) -> sfq_obs::Trace {
    sfq_obs::enable();
    f();
    sfq_obs::disable();
    sfq_obs::take()
}

fn span_count(trace: &sfq_obs::Trace, name: &str) -> usize {
    trace.events.iter().filter(|e| e.name == name).count()
}

fn counter(trace: &sfq_obs::Trace, name: &str) -> u64 {
    trace
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}

#[test]
fn t1_flow_enumerates_mapping_cuts_once_and_covers_twice() {
    let aig = adder(8);
    let lib = CellLibrary::default();

    let t1 = traced(|| {
        run_flow(&aig, &lib, &FlowConfig::t1(4));
    });
    // One 3-cut set and cut choice serve both the baseline cover (whose
    // attribution prices the T1 candidates) and the T1-aware cover.
    assert_eq!(span_count(&t1, "map:cuts"), 1);
    assert_eq!(span_count(&t1, "map:choose"), 1);
    assert_eq!(span_count(&t1, "map:cover"), 2);
    for stage in ["detect:match", "detect:bundle", "detect:greedy"] {
        assert_eq!(span_count(&t1, stage), 1, "{stage}");
    }
    // Detection matches over the mapping cuts: one kernel call, every
    // stored cut counted.
    assert_eq!(span_count(&t1, "detect:cuts"), 0);
    assert_eq!(counter(&t1, "netlist.cut_enumerations"), 1);
    assert!(counter(&t1, "netlist.cuts_kept") > aig.len() as u64);
    // The multiphase local search evaluates candidate stages.
    assert!(counter(&t1, "t1map.phase_evals") > 0);
    for stage in ["phase:asap", "phase:search"] {
        assert_eq!(span_count(&t1, stage), 1, "{stage}");
    }
    assert_eq!(sfq_obs::open_spans(), 0);

    let single = traced(|| {
        run_flow(&aig, &lib, &FlowConfig::single_phase());
    });
    assert_eq!(span_count(&single, "map:cuts"), 1);
    assert_eq!(span_count(&single, "map:cover"), 1);
    assert_eq!(span_count(&single, "detect:cuts"), 0);
    assert_eq!(counter(&single, "netlist.cut_enumerations"), 1);

    // The three paper flows of one subject, through the engine: one cut
    // set, cut choice and baseline cover serve all three, and only the T1
    // flow covers again.
    let shared = Arc::new(aig.clone());
    let jobs = [
        ("1φ", FlowConfig::single_phase()),
        ("nφ", FlowConfig::multiphase(4)),
        ("T1", FlowConfig::t1(4)),
    ]
    .map(|(flow, config)| Job::new("adder8", flow, shared.clone(), lib, config));
    let suite = traced(|| {
        SuiteRunner::new(1).run(&jobs);
    });
    assert_eq!(span_count(&suite, "map:cuts"), 1);
    assert_eq!(span_count(&suite, "map:choose"), 1);
    assert_eq!(span_count(&suite, "map:cover"), 2);
    assert_eq!(span_count(&suite, "detect:cuts"), 0);
    assert_eq!(counter(&suite, "netlist.cut_enumerations"), 1);
    assert_eq!(counter(&suite, "engine.subject_builds"), 1);
    assert_eq!(counter(&suite, "engine.subject_reuses"), 2);
}
