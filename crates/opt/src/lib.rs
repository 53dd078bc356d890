//! # sfq-opt
//!
//! Pass-manager-driven AIG optimization with SAT-checked equivalence — the
//! pre-mapping synthesis layer of the T1 flow, in the spirit of ABC-style
//! `rewrite; balance; dc2` scripts.
//!
//! Three cooperating pieces:
//!
//! - **Pass manager** ([`pass`]) — [`PassKind`], which names each pass
//!   and runs it with per-pass node/level deltas ([`PassKind::run`]), the
//!   one guarded round loop ([`optimize_with`]: a fixpoint result never has
//!   more nodes or depth than the input) that [`optimize`] and the
//!   CEC-checked [`optimize_verified`] share, and the fingerprinted
//!   [`OptConfig`] that rides inside `t1map::flow::FlowConfig` so
//!   `sfq-engine` cache keys distinguish optimized jobs. The passes:
//!   `strash` (structural deduplication), `sweep` (ID-stable
//!   dangling-node removal, [`sfq_netlist::transform::sweep_in_place`]),
//!   `balance` (depth-optimal AND-tree rebalancing) and `rewrite` (4-input
//!   cut enumeration → NPN-canonical class lookup against the precomputed
//!   subgraph table of [`table`] → MFFC-gain-based replacement, with
//!   slack-aware and DFF-objective pricing modes).
//!
//! - **Analysis manager** ([`analysis`]) — the [`OptContext`] threaded
//!   through every pass: a typed cache of lazily-computed,
//!   incrementally-refreshed analyses (levels/depth, unit-delay STA,
//!   fanout counts, simulation signatures). Passes report [`Preserved`]
//!   sets; stale timing analyses are rebound incrementally rather than
//!   rebuilt, so a fixpoint run constructs the STA from scratch at most
//!   once.
//!
//! - **Verification guard** ([`cec`]) — combinational equivalence checking
//!   of original vs. optimized networks: random-simulation prefilter,
//!   SAT sweeping over a shared reduced network, and a final SAT miter
//!   discharged by `sfq_solver::sat`, so every pipeline run can be checked
//!   end to end.
//!
//! # Example
//!
//! ```
//! use sfq_netlist::aig::Aig;
//! use sfq_opt::{check_equivalence, optimize, CecConfig, CecVerdict, OptConfig};
//!
//! // A textbook 5-AND majority: rewriting finds the 4-AND form.
//! let mut aig = Aig::new();
//! let a = aig.add_pi();
//! let b = aig.add_pi();
//! let c = aig.add_pi();
//! let m = aig.maj3(a, b, c);
//! aig.add_po(m);
//!
//! let (optimized, report) = optimize(&aig, &OptConfig::standard());
//! assert!(report.nodes_after < report.nodes_before);
//! assert!(report.depth_after <= report.depth_before);
//!
//! let cec = check_equivalence(&aig, &optimized, &CecConfig::default()).unwrap();
//! assert_eq!(cec.verdict, CecVerdict::Equivalent);
//! ```

pub mod analysis;
pub mod cec;
pub mod pass;
pub mod passes;
pub mod rewrite;
pub mod table;
mod util;

pub use analysis::{signatures_of, signatures_of_into, CtxCounters, OptContext, Preserved};
pub use cec::{check_equivalence, CecConfig, CecError, CecOutcome, CecStats, CecVerdict};
pub use pass::{
    optimize, optimize_verified, optimize_with, parse_passes, OptConfig, OptReport, PassKind,
    PassStats, VerifiedRun,
};
pub use passes::{
    balance_critical_network, balance_critical_network_ctx, balance_network, strash_network,
};
pub use rewrite::{rewrite_network, RewriteConfig, RewriteMode, DEFAULT_DFF_PHASES};
pub use table::{Program, ProgramBuilder, RewriteTable};
