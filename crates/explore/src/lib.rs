//! # sfq-explore
//!
//! Design-space exploration autopilot: declare a sweep over the flow
//! parameter space in a small text spec, execute it through the
//! `sfq-engine` worker pool (with full result-store reuse), and reduce
//! the results to per-benchmark Pareto frontiers with dominated-by
//! witnesses and a schema-versioned `EXPLORE_*.json` report.
//!
//! The crate is four modules, composed left to right:
//!
//! - [`spec`] — the hand-rolled sweep-spec text format (axes:
//!   benchmarks, flows, phase counts, optimization pipelines, timing,
//!   cell-library variants, objectives), with hard-error validation
//!   that lists every legal alternative on any unknown key or value.
//!   Also home of the `serve` request parser [`spec::parse_request`],
//!   which reads a request line through the same flow, phase-floor and
//!   option tables ([`spec::CONFIG_TOKENS`]) without building anything.
//! - [`sweep`] — combinatorial expansion of a spec into grid
//!   [`sweep::Point`]s with *fingerprint-deduplicated* engine jobs
//!   (coordinates whose configurations content-address identically are
//!   computed once and counted once), and the streaming runner that
//!   executes them on a [`SuiteRunner`](sfq_engine::SuiteRunner) —
//!   honoring any attached result store, so a warm `--cache-dir` rerun
//!   recomputes nothing.
//! - [`pareto`] — exact integer multi-objective non-domination:
//!   frontier membership plus a deterministic dominating witness for
//!   every pruned point.
//! - [`report`] — the `"sfq-t1/explore"` v1 JSON report (validated by
//!   its own [`report::validate`] before writing), the human frontier
//!   table, the per-point CSV and the provenance normalizer backing the
//!   cold/warm byte-identity guarantee.
//!
//! # Example
//!
//! ```
//! use sfq_engine::SuiteRunner;
//!
//! let spec = sfq_explore::spec::parse(
//!     "benchmarks adder:4\nflows 1phi t1\nphases 3 4\n",
//! )
//! .unwrap();
//! let run = sfq_explore::sweep::run_sweep(spec, &SuiteRunner::new(2), |_| {}).unwrap();
//! assert_eq!(run.points.len(), 4);
//! assert_eq!(run.jobs.len(), 3, "the two 1phi points share one job");
//! let report = sfq_explore::report::explore_report_json(&run);
//! sfq_explore::report::validate(&report).unwrap();
//! ```

pub mod pareto;
pub mod report;
pub mod spec;
pub mod sweep;

pub use report::{explore_report_json, explore_summary, frontier_table, validate};
pub use spec::{parse_request, SweepSpec, CONFIG_TOKENS};
pub use sweep::{expand, run_sweep, ExploreRun};
