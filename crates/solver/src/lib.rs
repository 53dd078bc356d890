//! # sfq-solver
//!
//! Self-contained optimization substrate replacing the Google OR-Tools
//! dependency of the paper (see DESIGN.md §2):
//!
//! - [`linear`] — sparse linear expressions and constraints,
//! - [`simplex`] — two-phase primal simplex LP solver,
//! - [`milp`] — branch-and-bound mixed-integer programming (exact phase
//!   assignment, §II-B of the paper),
//! - [`sat`] — CDCL SAT solver.
//!
//! # Example
//!
//! ```
//! use sfq_solver::milp::MilpProblem;
//! use sfq_solver::linear::{LinExpr, Sense};
//!
//! // The paper's DFF-count linearization: minimize d with n·d >= σj - σi - n.
//! let mut p = MilpProblem::new();
//! let d = p.add_int_var(0.0, None);
//! p.add_constraint(LinExpr::var(d) * 4.0, Sense::Ge, 9.0 - 4.0);
//! p.set_objective(LinExpr::var(d));
//! let sol = p.solve().expect("feasible");
//! assert_eq!(sol.int_value(d), 2);
//! ```

pub mod linear;
pub mod milp;
pub mod sat;
pub mod simplex;

pub use linear::{Constraint, LinExpr, Sense, VarId};
pub use milp::{MilpError, MilpProblem, MilpSolution};
pub use sat::{SatLit, SatSolver, SatVar, SolveOutcome};
pub use simplex::{solve_lp, LpOutcome, LpSolution};
