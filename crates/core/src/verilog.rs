//! Structural Verilog export of scheduled, DFF-inserted SFQ netlists.
//!
//! Emits one module instantiating behavioural SFQ cell primitives (declared
//! in a companion header produced by [`cell_models`]): clocked gates with a
//! phase parameter, path-balancing DFFs, and T1 cells. The output is meant
//! for waveform inspection and hand-off to SFQ place-and-route flows that
//! consume structural Verilog; functional simulation uses the cell models.
//!
//! # Examples
//!
//! ```
//! use sfq_netlist::aig::Aig;
//! use t1map::cells::CellLibrary;
//! use t1map::flow::{run_flow, FlowConfig};
//! use t1map::verilog::{export, ExportOptions};
//!
//! let mut aig = Aig::new();
//! let a = aig.add_pi();
//! let b = aig.add_pi();
//! let c = aig.add_pi();
//! let s = aig.xor3(a, b, c);
//! aig.add_po(s);
//! let lib = CellLibrary::default();
//! let res = run_flow(&aig, &lib, &FlowConfig::t1(4));
//! let v = export(&res, &ExportOptions { module_name: "fa".into() });
//! assert!(v.contains("module fa"));
//! ```

use crate::flow::FlowResult;
use crate::mapped::{CellId, Edge, MappedCell, MappedCircuit};
use std::fmt::Write as _;

/// Export options.
#[derive(Debug, Clone)]
pub struct ExportOptions {
    /// Name of the emitted module.
    pub module_name: String,
}

impl Default for ExportOptions {
    fn default() -> Self {
        ExportOptions {
            module_name: "sfq_top".into(),
        }
    }
}

/// Names a (cell, port) wire.
fn wire_name(cell: CellId, port: u8) -> String {
    if port == 0 {
        format!("n{}", cell.0)
    } else {
        format!("n{}_p{}", cell.0, port)
    }
}

fn dff_wire(cell: CellId, port: u8, stage: i64) -> String {
    format!("{}_d{}", wire_name(cell, port), stage)
}

/// The behavioural primitive declarations used by exported modules.
///
/// `sfq_gate2`/`sfq_gate3` take the truth table as a parameter and latch
/// their inputs per clock; `sfq_t1` implements the pulse counter's
/// synchronous outputs; `sfq_dff` is the path-balancing flip-flop.
pub fn cell_models() -> &'static str {
    r#"// Behavioural SFQ cell models (synchronous abstraction: one clock per
// stage; pulse presence modelled as a 1-cycle-wide logic level).
module sfq_dff(input clk, input d, output reg q);
  always @(posedge clk) q <= d;
endmodule

module sfq_gate1 #(parameter [1:0] TT = 2'b10) (input clk, input a, output reg q);
  always @(posedge clk) q <= TT[a];
endmodule

module sfq_gate2 #(parameter [3:0] TT = 4'b1000) (input clk, input a, input b, output reg q);
  always @(posedge clk) q <= TT[{b, a}];
endmodule

module sfq_gate3 #(parameter [7:0] TT = 8'he8) (input clk, input a, input b, input c, output reg q);
  always @(posedge clk) q <= TT[{c, b, a}];
endmodule

module sfq_t1(input clk, input t0, input t1, input t2,
              output reg s, output reg c, output reg q);
  // Synchronous abstraction of the T1 counter: operands are guaranteed
  // temporally separated by the mapping flow, so the pulse count equals
  // the population count of the staggered operand captures.
  wire [1:0] count = t0 + t1 + t2;
  always @(posedge clk) begin
    s <= count[0];
    c <= (count >= 2);
    q <= (count >= 1);
  end
endmodule
"#
}

/// Exports a flow result as structural Verilog.
///
/// Each clocked instance carries its stage in the instance name
/// (`..._s<stage>`); the testbench/clock tree is expected to derive the
/// per-phase clocks from the stage numbers (`stage mod n` is the phase).
pub fn export(res: &FlowResult, opts: &ExportOptions) -> String {
    let mc = &res.mapped;
    let sched = &res.schedule;
    let mut v = String::new();
    let _ = writeln!(
        v,
        "// Generated by t1map: {} phases, horizon {}",
        sched.n, sched.horizon
    );
    let _ = writeln!(v, "// {}", mc);
    let inputs: Vec<String> = (0..mc.num_inputs()).map(|i| format!("pi{i}")).collect();
    let outputs: Vec<String> = (0..mc.pos().len()).map(|i| format!("po{i}")).collect();
    let _ = writeln!(
        v,
        "module {}(input clk, input {}, output {});",
        opts.module_name,
        inputs.join(", input "),
        outputs.join(", output ")
    );

    // The wire delivering a use of `e`: its driver's, or that of the chain
    // DFF the plan's next tap in use order names.
    let mut taps = res.plan.taps().iter();
    let mut tapped = |e: &Edge| {
        let tap = *taps.next().expect("the plan has a tap per use");
        match res.plan.tapped_dff(e.cell, e.port, tap) {
            None => source_wire(mc, e.cell, e.port),
            Some((_, m)) => dff_wire(e.cell, e.port, m),
        }
    };

    // Wires.
    for (id, cell) in mc.cells() {
        match cell {
            MappedCell::Input { .. } | MappedCell::Const0 => {}
            MappedCell::Gate { .. } => {
                let _ = writeln!(v, "  wire {};", wire_name(id, 0));
            }
            MappedCell::T1 { .. } => {
                for port in 0..3u8 {
                    let _ = writeln!(v, "  wire {};", wire_name(id, port));
                }
            }
        }
    }
    for (id, _) in mc.cells() {
        for port in 0..mc.num_ports(id) as u8 {
            for &m in res.plan.chain(id, port) {
                let _ = writeln!(v, "  wire {};", dff_wire(id, port, m));
            }
        }
    }

    // Cell instances.
    for (id, cell) in mc.cells() {
        let stage = sched.stages[id.index()];
        match cell {
            MappedCell::Input { .. } | MappedCell::Const0 => {}
            MappedCell::Gate { tt, fanins } => {
                let args: Vec<String> = fanins
                    .iter()
                    .map(|e| {
                        let w = tapped(e);
                        if e.invert {
                            format!("~{w}")
                        } else {
                            w
                        }
                    })
                    .collect();
                let out = wire_name(id, 0);
                match fanins.len() {
                    1 => {
                        let _ = writeln!(
                            v,
                            "  sfq_gate1 #(.TT(2'b{:02b})) g{}_s{stage}(.clk(clk), .a({}), .q({out}));",
                            tt.bits() & 0x3,
                            id.0,
                            args[0]
                        );
                    }
                    2 => {
                        let _ = writeln!(
                            v,
                            "  sfq_gate2 #(.TT(4'b{:04b})) g{}_s{stage}(.clk(clk), .a({}), .b({}), .q({out}));",
                            tt.bits() & 0xF,
                            id.0,
                            args[0],
                            args[1]
                        );
                    }
                    3 => {
                        let _ = writeln!(
                            v,
                            "  sfq_gate3 #(.TT(8'h{:02x})) g{}_s{stage}(.clk(clk), .a({}), .b({}), .c({}), .q({out}));",
                            tt.bits() & 0xFF,
                            id.0,
                            args[0],
                            args[1],
                            args[2]
                        );
                    }
                    _ => {
                        let _ = writeln!(
                            v,
                            "  // unsupported arity {} for gate {}",
                            fanins.len(),
                            id.0
                        );
                    }
                }
            }
            MappedCell::T1 { fanins } => {
                let ops = fanins.each_ref().map(&mut tapped);
                let _ = writeln!(
                    v,
                    "  sfq_t1 t1_{}_s{stage}(.clk(clk), .t0({}), .t1({}), .t2({}), .s({}), .c({}), .q({}));",
                    id.0,
                    ops[0],
                    ops[1],
                    ops[2],
                    wire_name(id, 0),
                    wire_name(id, 1),
                    wire_name(id, 2)
                );
            }
        }
    }

    // DFF chains.
    for (id, _) in mc.cells() {
        for port in 0..mc.num_ports(id) as u8 {
            let mut prev = source_wire(mc, id, port);
            let mut prev_stage = sched.stages[id.index()];
            for &m in res.plan.chain(id, port) {
                let w = dff_wire(id, port, m);
                let _ = writeln!(
                    v,
                    "  sfq_dff dff_{}_{}_s{m}(.clk(clk), .d({prev}), .q({w})); // gap {}",
                    wire_name(id, port),
                    m,
                    m - prev_stage
                );
                prev = w;
                prev_stage = m;
            }
        }
    }

    // Outputs. A constant output has no tap.
    for (index, e) in mc.pos().iter().enumerate() {
        let w = if matches!(mc.cell(e.cell), MappedCell::Const0) {
            source_wire(mc, e.cell, e.port)
        } else {
            tapped(e)
        };
        let _ = writeln!(
            v,
            "  assign po{index} = {}{w};",
            if e.invert { "~" } else { "" }
        );
    }
    let _ = writeln!(v, "endmodule");
    v
}

fn source_wire(mc: &MappedCircuit, cell: CellId, port: u8) -> String {
    match mc.cell(cell) {
        MappedCell::Input { index } => format!("pi{index}"),
        MappedCell::Const0 => "1'b0".into(),
        _ => wire_name(cell, port),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CellLibrary;
    use crate::flow::{run_flow, FlowConfig};
    use sfq_circuits::epfl;

    fn export_adder(bits: usize, cfg: &FlowConfig) -> String {
        let aig = epfl::adder(bits);
        let lib = CellLibrary::default();
        let res = run_flow(&aig, &lib, cfg);
        export(&res, &ExportOptions::default())
    }

    #[test]
    fn module_structure() {
        let v = export_adder(4, &FlowConfig::t1(4));
        assert!(v.starts_with("// Generated by t1map"));
        assert!(v.contains("module sfq_top(input clk"));
        assert!(v.trim_end().ends_with("endmodule"));
        assert!(v.contains("sfq_t1 "), "T1 instances present");
        assert!(v.contains("sfq_dff "), "DFF chain present");
        // All 8 inputs and 5 outputs appear.
        for i in 0..8 {
            assert!(v.contains(&format!("pi{i}")), "pi{i} missing");
        }
        for o in 0..5 {
            assert!(v.contains(&format!("po{o}")), "po{o} missing");
        }
    }

    #[test]
    fn baseline_has_no_t1_instances() {
        let v = export_adder(4, &FlowConfig::multiphase(4));
        assert!(!v.contains("sfq_t1 "));
        assert!(v.contains("sfq_gate3 "), "MAJ3 carry cells present");
    }

    #[test]
    fn dff_count_matches_plan() {
        let aig = epfl::adder(4);
        let lib = CellLibrary::default();
        let res = run_flow(&aig, &lib, &FlowConfig::t1(4));
        let v = export(&res, &ExportOptions::default());
        let dff_instances = v.matches("sfq_dff dff_").count();
        assert_eq!(dff_instances as u64, res.plan.total_dffs);
    }

    #[test]
    fn chain_gaps_within_window() {
        let v = export_adder(6, &FlowConfig::multiphase(4));
        for line in v.lines() {
            if let Some(idx) = line.find("// gap ") {
                let gap: i64 = line[idx + 7..].trim().parse().expect("gap annotation");
                assert!((1..=4).contains(&gap), "chain gap {gap} outside window");
            }
        }
    }

    #[test]
    fn cell_models_declare_all_primitives() {
        let m = cell_models();
        for prim in ["sfq_dff", "sfq_gate1", "sfq_gate2", "sfq_gate3", "sfq_t1"] {
            assert!(m.contains(&format!("module {prim}")), "{prim} missing");
        }
    }
}
