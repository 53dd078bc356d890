//! # sfq-t1
//!
//! A complete, from-scratch reproduction of
//! *"Unleashing the Power of T1-cells in SFQ Arithmetic Circuits"*
//! (R. Bairamkulov, M. Yu, G. De Micheli — DATE 2024), as a Rust workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`netlist`] | AIGs, truth tables, cut enumeration, NPN matching, MFFC |
//! | [`solver`] | simplex LP, branch-and-bound MILP, CDCL SAT |
//! | [`circuits`] | EPFL-like and ISCAS-like benchmark generators |
//! | [`sim`] | pulse-level SFQ simulator with behavioural T1 cell |
//! | [`opt`] | pass-manager-driven AIG optimization with SAT-checked equivalence |
//! | [`sta`] | static timing & slack analysis (arrival/required propagation, critical paths) |
//! | [`t1map`] | the paper's flow: T1 detection, multiphase phase assignment, DFF insertion |
//! | [`engine`] | parallel batch-flow execution with content-addressed result caching |
//! | [`obs`] | opt-in tracing & metrics: spans, counters, Chrome-trace and summary sinks |
//! | [`mod@bench`] | paper benchmark suites, engine job lists, progress helper |
//! | [`explore`] | design-space sweeps: spec expansion, Pareto frontiers, explore reports |
//!
//! This facade crate re-exports everything and hosts the runnable examples
//! and cross-crate integration tests.
//!
//! # Quickstart
//!
//! ```
//! use sfq_t1::t1map::cells::CellLibrary;
//! use sfq_t1::t1map::flow::{run_flow, FlowConfig};
//! use sfq_t1::circuits::epfl;
//!
//! let aig = epfl::adder(16);
//! let lib = CellLibrary::default();
//! let baseline = run_flow(&aig, &lib, &FlowConfig::multiphase(4));
//! let proposed = run_flow(&aig, &lib, &FlowConfig::t1(4));
//! assert!(proposed.stats.area < baseline.stats.area, "T1 wins on adders");
//! ```

pub use sfq_bench as bench;
pub use sfq_circuits as circuits;
pub use sfq_engine as engine;
pub use sfq_explore as explore;
pub use sfq_netlist as netlist;
pub use sfq_obs as obs;
pub use sfq_opt as opt;
pub use sfq_sim as sim;
pub use sfq_solver as solver;
pub use sfq_sta as sta;
pub use t1map;
