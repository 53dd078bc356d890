//! Conversion of a scheduled, DFF-inserted netlist into a pulse-level
//! simulation model ([`sfq_sim::PulseCircuit`]).
//!
//! This closes the verification loop: the flow's output — cells with stage
//! assignments plus shared DFF chains — is rebuilt as a physical netlist
//! where every consumer is wired to its chain *tap* element, and simulated
//! wave-pipelined. Functional mismatch or a T1 pulse-overlap hazard indicates
//! a mapping/scheduling bug.

use crate::dff::DffPlan;
use crate::mapped::{Edge, MappedCell, MappedCircuit};
use crate::phase::Schedule;
use sfq_sim::pulse::{ElementId, Fanin, OutRef, PulseCircuit};

/// Builds the pulse-level model of a scheduled netlist.
///
/// `plan` must have been produced by [`crate::dff::insert_dffs`] for exactly
/// this `(mc, sched)` pair.
///
/// # Panics
///
/// Panics if the plan is inconsistent with the netlist (missing chains or
/// taps), or if any stage is negative.
pub fn to_pulse_circuit(mc: &MappedCircuit, sched: &Schedule, plan: &DffPlan) -> PulseCircuit {
    let mut pc = PulseCircuit::new();

    // 1. Inputs and constants first, in cell order. Gates and T1 cells get
    //    a placeholder until their fanins exist.
    let mut cell_elem: Vec<ElementId> = mc
        .cells()
        .map(|(_, cell)| match cell {
            MappedCell::Input { .. } => pc.add_input(),
            MappedCell::Const0 => pc.add_const(false),
            _ => ElementId(u32::MAX),
        })
        .collect();

    // 2. Walk cells topologically: create the element, then the DFF chains
    //    hanging off its ports. The chain DFFs are created cells ascending,
    //    then ports, so `dffs` numbers them as `DffPlan::tapped_dff` does. A
    //    consumer comes after its drivers, so the element each fanin taps
    //    exists when the consumer is wired; fanins take the plan's taps in
    //    use order.
    let mut dffs: Vec<ElementId> = Vec::with_capacity(plan.total_dffs as usize);
    let mut taps = plan.taps().iter();
    let mut tapped = |cell_elem: &[ElementId], dffs: &[ElementId], e: &Edge| -> OutRef {
        let tap = *taps.next().expect("the plan has a tap per use");
        match plan.tapped_dff(e.cell, e.port, tap) {
            None => OutRef {
                elem: cell_elem[e.cell.index()],
                port: e.port,
            },
            Some((i, _)) => OutRef {
                elem: dffs[i],
                port: 0,
            },
        }
    };
    for (id, cell) in mc.cells() {
        let stage = sched.stages[id.index()];
        match cell {
            MappedCell::Input { .. } | MappedCell::Const0 => {}
            MappedCell::Gate { tt, fanins } => {
                let wired: Vec<Fanin> = fanins
                    .iter()
                    .map(|e| Fanin {
                        source: tapped(&cell_elem, &dffs, e),
                        invert: e.invert,
                    })
                    .collect();
                assert!(stage >= 1, "gate at non-positive stage");
                cell_elem[id.index()] = pc.add_gate(*tt, wired, stage as u32);
            }
            MappedCell::T1 { fanins } => {
                let wired = fanins.each_ref().map(|e| {
                    debug_assert!(!e.invert, "T1 operands are positive by construction");
                    Fanin {
                        source: tapped(&cell_elem, &dffs, e),
                        invert: false,
                    }
                });
                cell_elem[id.index()] = pc.add_t1(wired, stage as u32);
            }
        }
        for port in 0..mc.num_ports(id) as u8 {
            let mut prev = OutRef {
                elem: cell_elem[id.index()],
                port,
            };
            for &m in plan.chain(id, port) {
                let elem = pc.add_dff(
                    Fanin {
                        source: prev,
                        invert: false,
                    },
                    m as u32,
                );
                dffs.push(elem);
                prev = OutRef { elem, port: 0 };
            }
        }
    }

    // 3. Primary outputs: capture one stage after the horizon. Constant
    //    outputs need no balancing and have no tap; capture right away.
    for e in mc.pos() {
        let (source, capture) = if matches!(mc.cell(e.cell), MappedCell::Const0) {
            let source = OutRef {
                elem: cell_elem[e.cell.index()],
                port: 0,
            };
            (source, 1)
        } else {
            let capture = (sched.horizon + 1).max(1) as u32;
            (tapped(&cell_elem, &dffs, e), capture)
        };
        pc.add_output(
            Fanin {
                source,
                invert: e.invert,
            },
            capture,
        );
    }
    assert!(taps.next().is_none(), "the plan has a tap per use");

    pc
}

/// `waves` pseudo-random input vectors of `inputs` bits each, drawn from a
/// xorshift64 generator started at `seed` (which must be nonzero). The
/// stream is fixed by the seed, so a verification run is reproducible.
pub fn random_waves(inputs: usize, waves: usize, mut seed: u64) -> Vec<Vec<bool>> {
    (0..waves)
        .map(|_| {
            (0..inputs)
                .map(|_| {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    seed & 1 == 1
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CellLibrary;
    use crate::dff::insert_dffs;
    use crate::flow::{run_flow, FlowConfig};
    use sfq_circuits::epfl::adder;
    use sfq_circuits::random::{random_aig, RandomAigConfig};

    fn check_flow_in_sim(aig: &sfq_netlist::aig::Aig, cfg: &FlowConfig, waves: usize) {
        let lib = CellLibrary::default();
        let res = run_flow(aig, &lib, cfg);
        let pc = to_pulse_circuit(&res.mapped, &res.schedule, &res.plan);
        let vectors = random_waves(aig.pi_count(), waves, 0xABCDEF987654321);
        let outcome = pc.simulate(&vectors, cfg.phases).expect("valid schedule");
        assert_eq!(outcome.hazards, 0, "no T1 pulse-overlap hazards");
        for (k, v) in vectors.iter().enumerate() {
            let expect = aig.eval(v);
            assert_eq!(outcome.outputs[k], expect, "wave {k} mismatch");
        }
    }

    #[test]
    fn pulse_sim_matches_adder_single_phase() {
        check_flow_in_sim(&adder(4), &FlowConfig::single_phase(), 6);
    }

    #[test]
    fn pulse_sim_matches_adder_four_phase() {
        check_flow_in_sim(&adder(4), &FlowConfig::multiphase(4), 6);
    }

    #[test]
    fn pulse_sim_matches_adder_t1_flow() {
        check_flow_in_sim(&adder(4), &FlowConfig::t1(4), 8);
    }

    #[test]
    fn pulse_sim_matches_random_networks() {
        for seed in 0..5 {
            let aig = random_aig(
                seed,
                &RandomAigConfig {
                    num_pis: 6,
                    num_gates: 40,
                    num_pos: 3,
                    xor_percent: 40,
                },
            );
            check_flow_in_sim(&aig, &FlowConfig::multiphase(4), 4);
            check_flow_in_sim(&aig, &FlowConfig::t1(4), 4);
        }
    }

    #[test]
    fn dff_elements_match_plan() {
        let lib = CellLibrary::default();
        let aig = adder(4);
        let res = run_flow(&aig, &lib, &FlowConfig::t1(4));
        let plan = insert_dffs(&res.mapped, &res.schedule);
        let pc = to_pulse_circuit(&res.mapped, &res.schedule, &plan);
        assert_eq!(pc.dff_count() as u64, plan.total_dffs);
    }
}
