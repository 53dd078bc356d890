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

use crate::flow::FlowResult;
use crate::mapped::{CellId, Edge, MappedCell};
use std::fmt::Write as _;

/// Renders a flow result as a Graphviz DOT digraph.
pub fn to_dot(res: &FlowResult) -> String {
    let mc = &res.mapped;
    let sched = &res.schedule;
    let mut out = String::from("digraph sfq {\n  rankdir=LR;\n  node [fontsize=10];\n");
    // The node of the chain DFF at stage `m` of output `port` of `cell`.
    let dff_node = |cell: CellId, port: u8, m: i64| format!("d{}_{port}_{m}", cell.0);
    // The node serving a use of `e`: its driver, or the chain DFF the
    // plan's next tap in use order names.
    let mut taps = res.plan.taps().iter();
    let mut tapped = |e: &Edge| {
        let tap = *taps.next().expect("the plan has a tap per use");
        match res.plan.tapped_dff(e.cell, e.port, tap) {
            None => format!("c{}", e.cell.0),
            Some((_, m)) => dff_node(e.cell, e.port, m),
        }
    };

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
            MappedCell::Gate { tt, .. } => {
                let _ = writeln!(
                    out,
                    "  c{} [label=\"g{}\\nσ{stage} tt={}\" shape=box];",
                    id.0, id.0, tt
                );
            }
            MappedCell::T1 { .. } => {
                let _ = writeln!(
                    out,
                    "  c{} [label=\"T1\\nσ{stage}\" shape=box style=filled fillcolor=gold];",
                    id.0
                );
            }
        }
        for e in mc.fanins(id) {
            let _ = writeln!(out, "  {} -> c{};", tapped(e), id.0);
        }
        // DFF chains as intermediate nodes.
        for port in 0..mc.num_ports(id) as u8 {
            let mut prev = format!("c{}", id.0);
            for &m in res.plan.chain(id, port) {
                let node = dff_node(id, port, m);
                let _ = writeln!(
                    out,
                    "  {node} [label=\"DFF σ{m}\" shape=box style=filled fillcolor=lightgrey fontsize=8];"
                );
                let _ = writeln!(out, "  {prev} -> {node};");
                prev = node;
            }
        }
    }
    for (index, e) in mc.pos().iter().enumerate() {
        if !matches!(mc.cell(e.cell), MappedCell::Const0) {
            let _ = writeln!(out, "  po{index} [shape=triangle color=red];");
            let _ = writeln!(out, "  {} -> po{index};", tapped(e));
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
