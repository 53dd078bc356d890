//! Conversion of a scheduled, DFF-inserted netlist into a pulse-level
//! simulation model ([`sfq_sim::PulseCircuit`]).
//!
//! This closes the verification loop: the flow's output — cells with stage
//! assignments plus shared DFF chains — is rebuilt as a physical netlist
//! where every consumer is wired to its chain *tap* element, and simulated
//! wave-pipelined. Functional mismatch or a T1 pulse-overlap hazard indicates
//! a mapping/scheduling bug.

use crate::dff::{Consumer, DffPlan};
use crate::mapped::{CellId, MappedCell, MappedCircuit};
use crate::phase::Schedule;
use sfq_sim::pulse::{ElementId, Fanin, OutRef, PulseCircuit};
use std::collections::HashMap;

/// Builds the pulse-level model of a scheduled netlist.
///
/// `plan` must have been produced by [`crate::dff::insert_dffs`] for exactly
/// this `(mc, sched)` pair.
///
/// # Panics
///
/// Panics if the plan is inconsistent with the netlist (missing drivers or
/// taps), or if any stage is negative.
pub fn to_pulse_circuit(mc: &MappedCircuit, sched: &Schedule, plan: &DffPlan) -> PulseCircuit {
    let mut pc = PulseCircuit::new();

    // 1. Create one element per cell (inputs first, in index order, which is
    //    creation order in MappedCircuit).
    let mut cell_elem: Vec<ElementId> = Vec::with_capacity(mc.len());
    // Tap resolution needs chain DFF elements: (driver, stage) → element.
    let mut chain_elems: HashMap<((CellId, u8), i64), ElementId> = HashMap::new();

    // First pass: inputs/constants (stage 0) and placeholders.
    for (_, cell) in mc.cells() {
        let elem = match cell {
            MappedCell::Input { .. } => pc.add_input(),
            MappedCell::Const0 => pc.add_const(false),
            // Real gates/T1s are created in the second pass, once their
            // fanin taps exist; reserve a placeholder id slot.
            _ => ElementId(u32::MAX),
        };
        cell_elem.push(elem);
    }

    // 2. Create chain DFFs in stage order per driver. A chain member's fanin
    //    is the previous member (or the driver); drivers that are gates do
    //    not exist yet, so chains rooted at gates are deferred to pass 3.
    //    To keep it simple we create everything in global topological order:
    //    cells are topologically sorted already, and a chain hangs off one
    //    driver, so interleave: for each cell (in order) create its element,
    //    then its chains.
    let stage_of = |sched: &Schedule, cell: CellId| sched.stages[cell.index()];

    // Tap lookup used when wiring consumers.
    let resolve_tap = |cell_elem: &[ElementId],
                       chain_elems: &HashMap<((CellId, u8), i64), ElementId>,
                       driver: (CellId, u8),
                       tap_stage: i64,
                       source_stage: i64|
     -> OutRef {
        if tap_stage == source_stage {
            OutRef {
                elem: cell_elem[driver.0.index()],
                port: driver.1,
            }
        } else {
            let elem = *chain_elems
                .get(&(driver, tap_stage))
                .expect("tap element must exist in the chain");
            OutRef { elem, port: 0 }
        }
    };

    // (driver output, tap stage, source stage) for one consumer slot.
    type TapSource = ((CellId, u8), i64, i64);
    // consumer (cell, slot) → where its pulse is tapped from
    let mut taps: HashMap<(CellId, usize), TapSource> = HashMap::new();
    let mut po_taps: HashMap<usize, TapSource> = HashMap::new();
    for d in plan.drivers() {
        for ((consumer, _req), &tap) in d.consumers.iter().zip(d.taps) {
            match *consumer {
                Consumer::GateInput { cell, slot } | Consumer::T1Input { cell, slot } => {
                    taps.insert((cell, slot), (d.source, tap, d.source_stage));
                }
                Consumer::Output { index } => {
                    po_taps.insert(index, (d.source, tap, d.source_stage));
                }
            }
        }
    }

    // Driver plans indexed by source for chain creation.
    let plans_by_source: HashMap<(CellId, u8), crate::dff::DriverPlan<'_>> =
        plan.drivers().map(|d| (d.source, d)).collect();

    // 3. Walk cells topologically: create the element, then its chains.
    for (id, cell) in mc.cells() {
        match cell {
            MappedCell::Input { .. } | MappedCell::Const0 => {}
            MappedCell::Gate { tt, fanins } => {
                let wired: Vec<Fanin> = fanins
                    .iter()
                    .enumerate()
                    .map(|(slot, e)| {
                        let &(driver, tap, src) =
                            taps.get(&(id, slot)).expect("gate input has a tap");
                        Fanin {
                            source: resolve_tap(&cell_elem, &chain_elems, driver, tap, src),
                            invert: e.invert,
                        }
                    })
                    .collect();
                let stage = stage_of(sched, id);
                assert!(stage >= 1, "gate at non-positive stage");
                cell_elem[id.index()] = pc.add_gate(*tt, wired, stage as u32);
            }
            MappedCell::T1 { fanins } => {
                let mut wired = [Fanin::plain(ElementId(0)); 3];
                for (slot, e) in fanins.iter().enumerate() {
                    let &(driver, tap, src) = taps.get(&(id, slot)).expect("T1 input has a tap");
                    debug_assert!(!e.invert, "T1 operands are positive by construction");
                    wired[slot] = Fanin {
                        source: resolve_tap(&cell_elem, &chain_elems, driver, tap, src),
                        invert: false,
                    };
                }
                let stage = stage_of(sched, id);
                cell_elem[id.index()] = pc.add_t1(wired, stage as u32);
            }
        }
        // Chains hanging off this cell's ports.
        for port in 0..mc.num_ports(id) as u8 {
            if let Some(d) = plans_by_source.get(&(id, port)) {
                let mut prev = OutRef {
                    elem: cell_elem[id.index()],
                    port,
                };
                for &m in d.members {
                    let elem = pc.add_dff(
                        Fanin {
                            source: prev,
                            invert: false,
                        },
                        m as u32,
                    );
                    chain_elems.insert(((id, port), m), elem);
                    prev = OutRef { elem, port: 0 };
                }
            }
        }
    }

    // 4. Primary outputs: capture one stage after the horizon.
    for (index, e) in mc.pos().iter().enumerate() {
        if matches!(mc.cell(e.cell), MappedCell::Const0) {
            // Constant outputs need no balancing; capture right away.
            let src = OutRef {
                elem: cell_elem[e.cell.index()],
                port: 0,
            };
            pc.add_output(
                Fanin {
                    source: src,
                    invert: e.invert,
                },
                1,
            );
            continue;
        }
        let &(driver, tap, src) = po_taps.get(&index).expect("PO has a tap");
        let source = resolve_tap(&cell_elem, &chain_elems, driver, tap, src);
        let capture = (sched.horizon + 1).max(1) as u32;
        pc.add_output(
            Fanin {
                source,
                invert: e.invert,
            },
            capture,
        );
    }

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
