//! # sfq-netlist
//!
//! Logic-network substrate for SFQ technology mapping — the Rust counterpart
//! of the mockturtle facilities the paper builds on:
//!
//! - [`aig`] — and-inverter graphs with structural hashing, levels/depth and
//!   64-way bit-parallel evaluation,
//! - [`truth_table`] — small-function truth tables (≤ 6 variables),
//! - [`cut`] — k-feasible cut enumeration with cut functions (Cong et al.,
//!   ref \[8\] of the paper),
//! - [`npn`] — exact NPN canonization for Boolean matching (ref \[9\]),
//! - [`mffc`] — maximum fanout-free cones for the area-gain test of eq. (2),
//! - [`fnv`] — stable FNV-1a hashing behind structural digests and the
//!   `sfq-engine` content-addressed result cache.
//!
//! # Example
//!
//! ```
//! use sfq_netlist::aig::Aig;
//! use sfq_netlist::cut::{enumerate_cuts, CutConfig};
//! use sfq_netlist::truth_table::TruthTable;
//!
//! // A one-bit full adder: the structure the T1 cell replaces.
//! let mut aig = Aig::new();
//! let a = aig.add_pi();
//! let b = aig.add_pi();
//! let cin = aig.add_pi();
//! let sum = aig.xor3(a, b, cin);
//! let carry = aig.maj3(a, b, cin);
//! aig.add_po(sum);
//! aig.add_po(carry);
//!
//! let cuts = enumerate_cuts(&aig, &CutConfig::default());
//! // Cut functions describe the positive node; `sum` may be a complemented
//! // literal, so compare modulo polarity.
//! let sum_is_xor3 = cuts.cuts(sum.node()).iter().any(|c| {
//!     let tt = if sum.is_complement() { !c.truth_table() } else { c.truth_table() };
//!     tt == TruthTable::xor3()
//! });
//! assert!(sum_is_xor3);
//! ```

pub mod aig;
pub mod aiger;
pub mod cut;
pub mod fnv;
pub mod mffc;
pub mod npn;
pub mod transform;
pub mod truth_table;

pub use aig::{Aig, Lit, NodeId, NodeKind};
pub use aiger::ParseAigerError;
pub use cut::{enumerate_cuts, Cut, CutConfig, CutSet};
pub use mffc::Mffc;
pub use npn::{npn_canonical, npn_equivalent, NpnCanon};
pub use transform::{cleanup, sweep, NetworkStats};
pub use truth_table::TruthTable;
