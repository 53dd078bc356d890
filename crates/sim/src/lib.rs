//! # sfq-sim
//!
//! Event-driven pulse-level simulation of scheduled SFQ netlists under
//! multiphase clocking — the verification substrate standing in for the
//! analog/SPICE level of the paper (DESIGN.md §4):
//!
//! - [`t1cell`] — behavioural T1 flip-flop (Fig. 1 of the paper), including
//!   pulse-overlap hazard detection,
//! - [`pulse`] — wave-pipelined simulation of a scheduled netlist with
//!   capture-window validation, and optional deterministic clock jitter
//!   ([`SimOptions`]) for timing-margin studies.
//!
//! A run reports the sampled outputs, the T1 hazard count and the number
//! of data pulses ([`SimOutcome`]); it records no per-event trace.
//!
//! # Example
//!
//! ```
//! use sfq_sim::pulse::{Fanin, PulseCircuit};
//! use sfq_sim::t1cell::T1Cell;
//!
//! // A T1-based full adder: operands staggered over phases 1..3, read at 4.
//! let mut c = PulseCircuit::new();
//! let a = c.add_input();
//! let b = c.add_input();
//! let cin = c.add_input();
//! let da = c.add_dff(Fanin::plain(a), 1);
//! let db = c.add_dff(Fanin::plain(b), 2);
//! let dc = c.add_dff(Fanin::plain(cin), 3);
//! let t1 = c.add_t1([Fanin::plain(da), Fanin::plain(db), Fanin::plain(dc)], 4);
//! # let _ = t1;
//! ```

pub mod pulse;
pub mod t1cell;

pub use pulse::{ElementId, Fanin, OutRef, PulseCircuit, SimError, SimOptions, SimOutcome};
pub use t1cell::{T1Cell, T1Event};
