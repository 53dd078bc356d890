//! # sfq-sta
//!
//! Static timing and slack analysis — the required-time layer that makes
//! the rest of the workspace timing-aware, in the spirit of ABC's
//! arrival/required propagation.
//!
//! Four cooperating pieces:
//!
//! - [`graph`] — the generic [`TimingGraph`] (DAG with integer edge
//!   delays) and its [`TimingAnalysis`]: arrival times forward, required
//!   times backward from a caller-pinned sink deadline, per-node slack,
//!   and an incremental [`TimingAnalysis::refresh`] that re-propagates
//!   only the cone affected by raised arrival floors (dirty-set
//!   propagation — a rewrite site does not trigger whole-network
//!   retraversal; the deadline never moves).
//! - [`aig`] — [`AigSta`], the unit-delay view of an
//!   [`Aig`](sfq_netlist::aig::Aig): arrivals are logic levels, the
//!   horizon is the network depth, and slack is the headroom slack-aware
//!   rewriting (`sfq-opt`) may consume without deepening the network.
//! - [`path`] — [`top_paths_bounded`]: exact best-first extraction of the
//!   k longest source→sink paths with per-hop delay contributions.
//! - [`report`] / [`config`] — the rendered [`TimingReport`] behind the
//!   CLI `sta` subcommand, and the fingerprinted [`TimingConfig`] stage
//!   that rides inside `t1map::flow::FlowConfig` so `sfq-engine` cache
//!   keys distinguish timing configurations.
//!
//! The phase-granular view of a mapped, scheduled netlist (slack measured
//! in clock phases, convertible to per-edge DFF cost) lives upstream in
//! `t1map::timing`, which builds a [`TimingGraph`] from a
//! `MappedCircuit` + `Schedule` pair and runs the same analysis.
//!
//! # Example
//!
//! ```
//! use sfq_netlist::aig::Aig;
//! use sfq_sta::{AigSta, TimingReport};
//!
//! let mut aig = Aig::new();
//! let a = aig.add_pi();
//! let b = aig.add_pi();
//! let c = aig.add_pi();
//! let shallow = aig.and(a, b);
//! let deep = aig.xor3(a, b, c);
//! let top = aig.and(shallow, deep);
//! aig.add_po(top);
//!
//! let sta = AigSta::new(&aig);
//! assert_eq!(sta.slack(shallow.node()), 3, "the AND can sink 3 levels");
//! assert_eq!(sta.slack(deep.node()), 0, "the XOR3 cone is critical");
//!
//! let report = TimingReport::new(sta.graph(), sta.analysis(), 1);
//! assert_eq!(report.paths[0].length, sta.horizon());
//! ```

pub mod aig;
pub mod config;
pub mod graph;
pub mod path;
pub mod report;

pub use aig::AigSta;
pub use config::TimingConfig;
pub use graph::{TimingAnalysis, TimingGraph};
pub use path::{top_paths_bounded, TimingPath};
pub use report::TimingReport;
