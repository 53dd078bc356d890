//! # t1map
//!
//! The paper's contribution: T1-cell-aware multiphase technology mapping for
//! SFQ (RSFQ) circuits, reproducing
//! *"Unleashing the Power of T1-cells in SFQ Arithmetic Circuits"*
//! (Bairamkulov, Yu, De Micheli — DATE 2024).
//!
//! The three-stage flow of §II:
//!
//! 1. [`mod@detect`] — T1-FF detection via cut enumeration + Boolean matching,
//!    gated by the area-gain test of eq. (2);
//! 2. [`phase`] — multiphase stage assignment with the T1 constraint of
//!    eq. (3) (heuristic and exact-ILP engines);
//! 3. [`dff`] — path-balancing DFF insertion with fanout-shared chains and
//!    the T1 staggering constraint of eq. (5).
//!
//! Supporting modules: [`cells`] (JJ area model), [`mapper`] (cut-based
//! covering), [`mapped`] (netlist model), [`flow`] (end-to-end flows),
//! [`timing`] (phase-granular schedule slack via `sfq-sta`), [`report`]
//! (Table-I assembly), [`sim_bridge`] (pulse-level verification via
//! `sfq-sim`), and [`dot`] and [`verilog`] (netlist export).
//!
//! # Example
//!
//! ```
//! use t1map::cells::CellLibrary;
//! use t1map::flow::{run_flow, FlowConfig};
//! use sfq_netlist::aig::Aig;
//!
//! // A 1-bit full adder.
//! let mut aig = Aig::new();
//! let a = aig.add_pi();
//! let b = aig.add_pi();
//! let cin = aig.add_pi();
//! let s = aig.xor3(a, b, cin);
//! let c = aig.maj3(a, b, cin);
//! aig.add_po(s);
//! aig.add_po(c);
//!
//! let lib = CellLibrary::default();
//! let result = run_flow(&aig, &lib, &FlowConfig::t1(4));
//! assert_eq!(result.stats.t1_used, 1, "the FA collapses into one T1 cell");
//! ```

pub mod cells;
pub mod detect;
pub mod dff;
pub mod dot;
pub mod flow;
mod func3;
pub mod mapped;
pub mod mapper;
pub mod phase;
pub mod report;
pub mod sim_bridge;
pub mod timing;
pub mod verilog;

pub use cells::{CellLibrary, GateClass};
pub use detect::{detect, select_exact, DetectConfig, DetectionResult};
pub use dff::{build_chain, insert_dffs, Chain, Consumer, DffPlan, Requirement};
pub use dot::to_dot;
pub use flow::{run_flow, FlowBuilder, FlowConfig, FlowResult, FlowStats, PhaseEngine, Subject};
pub use mapped::{CellId, Edge, MappedCell, MappedCircuit};
pub use mapper::{map, MapResult, T1Group, T1Member, T1Selection};
pub use phase::{assign_phases, assign_phases_exact, Schedule};
pub use report::{TableOne, TableRow};
pub use sim_bridge::to_pulse_circuit;
pub use timing::{analyze_mapped, MappedTiming, TimingConfig, TimingSummary};
pub use verilog::{export as export_verilog, ExportOptions};
