//! # sfq-engine
//!
//! Batch execution of mapping flows: one shared engine behind the Table-I
//! binaries, the ablation sweeps and the CLI `suite`/`serve` subcommands,
//! so every consumer gets parallelism and result reuse instead of
//! re-running [`run_flow`](t1map::flow::run_flow) serially and from
//! scratch.
//!
//! ## Architecture
//!
//! The engine is four small layers, plus one per-run memo:
//!
//! - **[`Job`]** ([`job`]) — the unit of work: a named AIG × a
//!   [`CellLibrary`](t1map::cells::CellLibrary) × a
//!   [`FlowConfig`](t1map::flow::FlowConfig). Each job has a [`CacheKey`]
//!   content address combining the AIG's stable
//!   [`structural_hash`](sfq_netlist::aig::Aig::structural_hash) with
//!   canonical fingerprints of the library and configuration — equal inputs
//!   produce equal keys across threads, runs and platforms.
//!
//! - **[`ResultStore`]** ([`store`]) — the storage abstraction: a
//!   content-addressed map from [`CacheKey`] to shared results with uniform
//!   counters and a gc hook. Its one backend, [`DiskStore`], keeps one
//!   atomically written file per key under a format-versioned directory,
//!   encoded by the [`store::codec`] text codec, so results persist across
//!   processes.
//!
//! - **[`ResultCache`]** ([`cache`]) — the in-memory tier.
//!   [`ResultCache::get_or_compute`] deduplicates *concurrent* requests
//!   too: the first worker to claim a key computes it while later workers
//!   block on a condvar and share the finished `Arc`, so a suite that
//!   submits the same (AIG, library, config) several times — e.g. the
//!   shared 1φ baseline of an ablation phase sweep — computes it exactly
//!   once regardless of worker count. Layered over a backing
//!   [`ResultStore`] ([`ResultCache::with_backing`]) it probes disk on
//!   memory misses and writes computed results through, making a second run
//!   over a populated store compute nothing.
//!
//! - **[`SuiteRunner`]** ([`pool`]) — a fixed-size worker pool built on
//!   `std::thread::scope` and channels. The calling thread is worker 0
//!   (a one-worker run spawns no thread); it and the helper threads claim
//!   jobs from a shared atomic cursor, helpers' results stream back over
//!   an `mpsc` channel, and every job becomes a [`JobOutcome`] progress
//!   event (delivered on the *calling* thread, so progress callbacks need
//!   no synchronisation, in completion order). The final
//!   [`SuiteReport`] lists results in deterministic input order regardless
//!   of completion order — `--jobs 1` and `--jobs 8` render byte-identical
//!   tables. [`SuiteRunner::with_store`] swaps the per-run cache for a
//!   shared, long-lived (and optionally disk-backed) store.
//!
//! - **The subject memo** ([`pool`]) — inside one run, computed jobs on the
//!   same network, library and pre-mapping stage share one
//!   [`Subject`](t1map::flow::Subject): the pre-opt result, the cut choice
//!   and the baseline cover that the 1φ, nφ and T1 flows (and every phase
//!   count of a sweep) have in common. It is keyed by the AIG's structural
//!   hash and the fingerprints of the library and the pre-mapping stage,
//!   built only inside a cache miss's compute closure (hits never build
//!   one), and dropped when the run's last job with that key finishes. It
//!   is not a persisted tier: nothing outlives the run, so the results a
//!   [`ResultStore`] holds are the only thing shared across runs. Its hits
//!   show as the `engine.subject_builds` and `engine.subject_reuses`
//!   counters.
//!
//! ## Example
//!
//! ```
//! use sfq_engine::{Job, SuiteRunner};
//! use std::sync::Arc;
//! use t1map::cells::CellLibrary;
//! use t1map::flow::FlowConfig;
//!
//! let lib = CellLibrary::default();
//! let aig = Arc::new(sfq_circuits::epfl::adder(8));
//! let jobs = vec![
//!     Job::new("adder8", "1φ", aig.clone(), lib, FlowConfig::single_phase()),
//!     Job::new("adder8", "4φ", aig.clone(), lib, FlowConfig::multiphase(4)),
//!     // Same content as the first job → served from the cache.
//!     Job::new("adder8", "1φ-again", aig, lib, FlowConfig::single_phase()),
//! ];
//! let report = SuiteRunner::new(2).run(&jobs);
//! assert_eq!(report.results.len(), 3);
//! assert_eq!(report.cache.hits(), 1);
//! assert_eq!(report.results[0].stats, report.results[2].stats);
//! ```

pub mod cache;
pub mod job;
pub mod pool;
pub mod store;

pub use cache::{CacheStats, HitSource, ResultCache};
pub use job::{CacheKey, Job};
pub use pool::{default_workers, JobOutcome, SuiteReport, SuiteRunner};
pub use store::{DiskStore, GcSummary, ResultStore, StoreStats};
