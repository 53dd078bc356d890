//! Shared helper of the Table-I integration tests.

use sfq_t1::bench::{table_one, TABLE1_FLOWS};
use sfq_t1::engine::{Job, SuiteRunner};
use sfq_t1::netlist::Aig;
use sfq_t1::t1map::cells::CellLibrary;
use sfq_t1::t1map::flow::FlowConfig;
use sfq_t1::t1map::report::TableOne;
use std::sync::Arc;

/// Table I over `benchmarks` at 4 phases, laid out and run as `suite`
/// runs it: one `(1φ, nφ, T1)` job triple per benchmark through the
/// engine, assembled by [`table_one`].
pub fn table(benchmarks: Vec<(&str, Aig)>) -> TableOne {
    let lib = CellLibrary::default();
    let mut jobs = Vec::new();
    for (name, aig) in benchmarks {
        let aig = Arc::new(aig);
        let configs = [
            FlowConfig::single_phase(),
            FlowConfig::multiphase(4),
            FlowConfig::t1(4),
        ];
        for (flow, config) in TABLE1_FLOWS.into_iter().zip(configs) {
            jobs.push(Job::new(name, flow, aig.clone(), lib, config));
        }
    }
    table_one(&jobs, &SuiteRunner::new(2).run(&jobs))
}
