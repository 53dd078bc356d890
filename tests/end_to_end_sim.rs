//! Integration test: every benchmark generator, through every flow, is
//! verified wave-pipelined in the pulse-level simulator — functional
//! equivalence against the source AIG, zero T1 pulse-overlap hazards, and
//! DFF counts consistent with the insertion plan.

use sfq_t1::circuits::{epfl, iscas};
use sfq_t1::netlist::Aig;
use sfq_t1::t1map::cells::CellLibrary;
use sfq_t1::t1map::flow::{run_flow, FlowConfig};
use sfq_t1::t1map::sim_bridge::{random_waves, to_pulse_circuit};

fn verify(name: &str, aig: &Aig, cfg: &FlowConfig, waves: usize) {
    let lib = CellLibrary::default();
    let res = run_flow(aig, &lib, cfg);
    res.schedule.validate(&res.mapped).expect("valid schedule");
    let pc = to_pulse_circuit(&res.mapped, &res.schedule, &res.plan);
    assert_eq!(
        pc.dff_count() as u64,
        res.plan.total_dffs,
        "{name}: plan/netlist DFF mismatch"
    );
    let vectors = random_waves(aig.pi_count(), waves, 0x5EED ^ aig.and_count() as u64);
    let outcome = pc.simulate(&vectors, cfg.phases).expect("simulatable");
    assert_eq!(outcome.hazards, 0, "{name}: T1 pulse-overlap hazards");
    for (k, v) in vectors.iter().enumerate() {
        assert_eq!(outcome.outputs[k], aig.eval(v), "{name}: wave {k} mismatch");
    }
}

#[test]
fn adder_all_flows() {
    let aig = epfl::adder(8);
    verify("adder-1p", &aig, &FlowConfig::single_phase(), 5);
    verify("adder-4p", &aig, &FlowConfig::multiphase(4), 5);
    verify("adder-t1", &aig, &FlowConfig::t1(4), 5);
}

#[test]
fn multiplier_t1_flow() {
    verify("mult-t1", &epfl::multiplier(6), &FlowConfig::t1(4), 4);
}

#[test]
fn square_t1_flow() {
    verify("square-t1", &epfl::square(6), &FlowConfig::t1(4), 4);
}

#[test]
fn voter_t1_flow() {
    verify("voter-t1", &epfl::voter(15), &FlowConfig::t1(4), 4);
}

#[test]
fn sin_t1_flow() {
    verify("sin-t1", &epfl::sin(8), &FlowConfig::t1(4), 3);
}

#[test]
fn log2_t1_flow() {
    verify("log2-t1", &epfl::log2(12), &FlowConfig::t1(4), 3);
}

#[test]
fn c7552_like_flows() {
    let aig = iscas::c7552_like();
    verify("c7552-4p", &aig, &FlowConfig::multiphase(4), 3);
    verify("c7552-t1", &aig, &FlowConfig::t1(4), 3);
}

#[test]
fn six_phase_clocking() {
    verify("adder-6p-t1", &epfl::adder(8), &FlowConfig::t1(6), 4);
}

#[test]
fn three_phase_minimum_for_t1() {
    verify("adder-3p-t1", &epfl::adder(6), &FlowConfig::t1(3), 4);
}
