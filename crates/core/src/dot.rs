//! Graphviz DOT export of mapped netlists for visual inspection.
//!
//! Cells are ranked by stage (one column per pipeline stage), T1 cells are
//! highlighted, and DFF chains are drawn as grey boxes — handy for
//! understanding small mapped designs and for documentation figures.
//!
//! # Examples
//!
//! ```
//! use sfq_netlist::aig::Aig;
//! use t1map::cells::CellLibrary;
//! use t1map::flow::{run_flow, FlowConfig};
//! use t1map::dot::to_dot;
//!
//! let mut aig = Aig::new();
//! let a = aig.add_pi();
//! let b = aig.add_pi();
//! let c = aig.add_pi();
//! let s = aig.xor3(a, b, c);
//! aig.add_po(s);
//! let lib = CellLibrary::default();
//! let res = run_flow(&aig, &lib, &FlowConfig::t1(4));
//! let dot = to_dot(&res);
//! assert!(dot.starts_with("digraph"));
//! ```

use crate::dff::Consumer;
use crate::flow::FlowResult;
use crate::mapped::MappedCell;
use std::fmt::Write as _;

/// Renders a flow result as a Graphviz DOT digraph.
pub fn to_dot(res: &FlowResult) -> String {
    let mc = &res.mapped;
    let sched = &res.schedule;
    let mut out = String::from("digraph sfq {\n  rankdir=LR;\n  node [fontsize=10];\n");

    for (id, cell) in mc.cells() {
        let stage = sched.stages[id.index()];
        match cell {
            MappedCell::Input { index } => {
                let _ = writeln!(
                    out,
                    "  c{} [label=\"pi{index}\" shape=triangle color=blue];",
                    id.0
                );
            }
            MappedCell::Const0 => {
                let _ = writeln!(out, "  c{} [label=\"0\" shape=plaintext];", id.0);
            }
            MappedCell::Gate { tt, fanins } => {
                let _ = writeln!(
                    out,
                    "  c{} [label=\"g{}\\nσ{stage} tt={}\" shape=box];",
                    id.0, id.0, tt
                );
                let _ = fanins;
            }
            MappedCell::T1 { .. } => {
                let _ = writeln!(
                    out,
                    "  c{} [label=\"T1\\nσ{stage}\" shape=box style=filled fillcolor=gold];",
                    id.0
                );
            }
        }
    }
    // DFF chains as intermediate nodes; edges follow the tap resolution.
    for d in res.plan.drivers() {
        let (cell, port) = d.source;
        let src_name = |stage: i64| {
            if stage == d.source_stage {
                format!("c{}", cell.0)
            } else {
                format!("d{}_{}_{}", cell.0, port, stage)
            }
        };
        let mut prev = d.source_stage;
        for &m in d.members {
            let _ = writeln!(
                out,
                "  {} [label=\"DFF σ{m}\" shape=box style=filled fillcolor=lightgrey fontsize=8];",
                src_name(m)
            );
            let _ = writeln!(out, "  {} -> {};", src_name(prev), src_name(m));
            prev = m;
        }
        for ((consumer, _), &tap) in d.consumers.iter().zip(d.taps) {
            match *consumer {
                Consumer::GateInput { cell: c, .. } | Consumer::T1Input { cell: c, .. } => {
                    let _ = writeln!(out, "  {} -> c{};", src_name(tap), c.0);
                }
                Consumer::Output { index } => {
                    let _ = writeln!(out, "  po{index} [shape=triangle color=red];");
                    let _ = writeln!(out, "  {} -> po{index};", src_name(tap));
                }
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CellLibrary;
    use crate::flow::{run_flow, FlowConfig};
    use sfq_circuits::epfl;

    #[test]
    fn dot_structure() {
        let lib = CellLibrary::default();
        let res = run_flow(&epfl::adder(3), &lib, &FlowConfig::t1(4));
        let dot = to_dot(&res);
        assert!(dot.starts_with("digraph sfq {"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("fillcolor=gold"), "T1 cells highlighted");
        assert!(
            dot.matches("shape=triangle color=blue").count() == 6,
            "6 inputs"
        );
        assert!(dot.contains("po0"), "outputs present");
    }

    #[test]
    fn dff_nodes_match_plan() {
        let lib = CellLibrary::default();
        let res = run_flow(&epfl::adder(4), &lib, &FlowConfig::multiphase(4));
        let dot = to_dot(&res);
        assert_eq!(
            dot.matches("label=\"DFF").count() as u64,
            res.plan.total_dffs
        );
    }
}
