//! Sweep expansion and execution.
//!
//! [`expand`] turns a parsed [`SweepSpec`] into the full cross product
//! of its axes — one [`Point`] per grid coordinate — while deduplicating
//! the underlying engine [`Job`]s by content address: coordinates whose
//! configurations fingerprint identically (the single-phase flow ignores
//! the `phases` axis entirely; `nphi` at 1 phase *is* the 1φ baseline)
//! share one job, are computed once, and are counted once in progress
//! totals. This generalizes the shared-1φ-baseline trick of
//! [`sfq_bench::phase_sweep_jobs`] from a special case into the
//! expander's contract.
//!
//! [`run_sweep`] streams the deduplicated jobs through a
//! [`SuiteRunner`] — any store attached to the runner (memory-only or
//! disk-backed) is honored, so a warm `--cache-dir` rerun recomputes
//! nothing — then joins results back onto points and runs the
//! per-benchmark Pareto analysis of [`crate::pareto`].

use crate::pareto;
use crate::spec::{Flow, SweepSpec};
use sfq_bench::report::JobSample;
use sfq_engine::{CacheKey, CacheStats, Job, JobOutcome, SuiteReport, SuiteRunner};
use std::collections::HashMap;
use std::sync::Arc;
use t1map::flow::FlowStats;

/// One coordinate of the sweep grid. `job` indexes into the expansion's
/// deduplicated job list; several points may share it.
#[derive(Debug, Clone)]
pub struct Point {
    /// Benchmark subject label (`adder:16`).
    pub benchmark: String,
    /// Flow coordinate.
    pub flow: Flow,
    /// Phase-count coordinate (carried even by flows that ignore it).
    pub phases: u32,
    /// Optimization-pipeline coordinate.
    pub opt: &'static str,
    /// Timing-analysis coordinate.
    pub timing: bool,
    /// Cell-library variant coordinate.
    pub library: &'static str,
    /// Index of this point's job in [`Expansion::jobs`].
    pub job: usize,
    /// The job's content address (shared by collapsed coordinates).
    pub key: CacheKey,
}

impl Point {
    /// Compact coordinate label, unique per benchmark: flow`@`phases,
    /// plus any non-default coordinates (`t1@4+pre-opt+timing+cheap-dff`).
    pub fn config_label(&self) -> String {
        let mut label = format!("{}@{}", self.flow.token(), self.phases);
        if self.opt != "none" {
            label.push('+');
            label.push_str(self.opt);
        }
        if self.timing {
            label.push_str("+timing");
        }
        if self.library != "default" {
            label.push('+');
            label.push_str(self.library);
        }
        label
    }
}

/// A fully expanded sweep: the point grid plus the deduplicated jobs.
#[derive(Debug)]
pub struct Expansion {
    /// Every grid coordinate, benchmarks outermost (so points of one
    /// benchmark are contiguous), axes in spec order within.
    pub points: Vec<Point>,
    /// Unique jobs, in first-use order. `points.len() >= jobs.len()`.
    pub jobs: Vec<Job>,
}

/// Expands `spec` into its point grid with fingerprint-deduplicated jobs.
///
/// # Errors
///
/// Benchmark construction failures (from [`sfq_circuits::named`]) and
/// configuration-token failures propagate as hard errors.
pub fn expand(spec: &SweepSpec) -> Result<Expansion, String> {
    let mut points = Vec::new();
    let mut jobs: Vec<Job> = Vec::new();
    let mut by_key: HashMap<CacheKey, usize> = HashMap::new();

    for subject in &spec.benchmarks {
        let (label, aig) = sfq_circuits::named::build_subject(subject)?;
        let aig = Arc::new(aig);
        for &flow in &spec.flows {
            for &phases in &spec.phases {
                for &opt in &spec.opts {
                    for &timing in &spec.timing {
                        for &library in &spec.libraries {
                            let lib = crate::spec::library_variant(library)?;
                            let builder = flow.preset(phases)?;
                            let builder = crate::spec::apply_config_token(builder, opt)?;
                            let config = builder.timing(timing).build();
                            let mut point = Point {
                                benchmark: label.clone(),
                                flow,
                                phases,
                                opt,
                                timing,
                                library,
                                job: usize::MAX,
                                key: CacheKey { aig: 0, setup: 0 },
                            };
                            let job = Job::new(
                                label.clone(),
                                point.config_label(),
                                aig.clone(),
                                lib,
                                config,
                            );
                            let key = job.key();
                            point.key = key;
                            point.job = *by_key.entry(key).or_insert_with(|| {
                                jobs.push(job);
                                jobs.len() - 1
                            });
                            points.push(point);
                        }
                    }
                }
            }
        }
    }
    Ok(Expansion { points, jobs })
}

/// Everything one executed sweep produces: the grid, the deduplicated
/// jobs, per-point metrics and provenance, the per-benchmark Pareto
/// verdicts, and the run-level cache accounting.
#[derive(Debug)]
pub struct ExploreRun {
    /// The spec the sweep ran.
    pub spec: SweepSpec,
    /// The point grid (benchmarks contiguous, spec order within).
    pub points: Vec<Point>,
    /// The deduplicated jobs, aligned with [`Point::job`].
    pub jobs: Vec<Job>,
    /// Per-*job* timing/provenance samples (for `--bench-json`).
    pub samples: Vec<JobSample>,
    /// Per-*point* result metrics.
    pub stats: Vec<FlowStats>,
    /// Per-*point* result provenance (`"memory"`/`"disk"`/`"computed"`),
    /// looked up through the outcome's [`CacheKey`] so collapsed
    /// coordinates report the tier that actually served their job.
    pub sources: Vec<&'static str>,
    /// Per-point frontier membership (within the point's benchmark).
    pub frontier: Vec<bool>,
    /// Per-point witness: global index of a frontier point of the same
    /// benchmark that dominates it. `None` exactly for frontier points.
    pub dominated_by: Vec<Option<usize>>,
    /// The engine's suite report over the deduplicated jobs (per-run
    /// cache accounting, wall time, worker count, shared results).
    pub report: SuiteReport,
}

impl ExploreRun {
    /// Cache counter increments attributable to this run.
    pub fn cache(&self) -> &CacheStats {
        &self.report.cache
    }

    /// Objective vector of point `i` under the spec's objectives.
    pub fn objectives_of(&self, i: usize) -> Vec<u64> {
        self.spec
            .objectives
            .iter()
            .map(|o| o.extract(&self.stats[i]))
            .collect()
    }

    /// Contiguous point-index ranges, one per benchmark, in spec order.
    pub fn benchmark_ranges(&self) -> Vec<(String, std::ops::Range<usize>)> {
        let mut ranges: Vec<(String, std::ops::Range<usize>)> = Vec::new();
        for (i, p) in self.points.iter().enumerate() {
            match ranges.last_mut() {
                Some((name, range)) if *name == p.benchmark => range.end = i + 1,
                _ => ranges.push((p.benchmark.clone(), i..i + 1)),
            }
        }
        ranges
    }
}

/// Expands and executes `spec` on `runner`, forwarding every progress
/// event to `on_event`, then joins results onto points and computes the
/// per-benchmark Pareto frontiers.
///
/// # Errors
///
/// Propagates [`expand`] errors; execution itself is infallible.
pub fn run_sweep<F>(
    spec: SweepSpec,
    runner: &SuiteRunner,
    mut on_event: F,
) -> Result<ExploreRun, String>
where
    F: FnMut(&JobOutcome<'_>),
{
    let Expansion { points, jobs } = expand(&spec)?;
    let mut samples = vec![JobSample::default(); jobs.len()];
    let mut source_by_key: HashMap<CacheKey, &'static str> = HashMap::new();
    let report = runner.run_with_progress(&jobs, |o| {
        let sample = JobSample::from_outcome(&o);
        samples[o.index] = sample;
        source_by_key.insert(o.key, sample.source);
        on_event(&o);
    });

    let stats: Vec<FlowStats> = points.iter().map(|p| report.results[p.job].stats).collect();
    let sources: Vec<&'static str> = points
        .iter()
        .map(|p| source_by_key.get(&p.key).copied().unwrap_or("unknown"))
        .collect();

    let mut run = ExploreRun {
        spec,
        points,
        jobs,
        samples,
        stats,
        sources,
        frontier: Vec::new(),
        dominated_by: Vec::new(),
        report,
    };
    run.frontier = vec![false; run.points.len()];
    run.dominated_by = vec![None; run.points.len()];
    for (_, range) in run.benchmark_ranges() {
        let vectors: Vec<Vec<u64>> = range.clone().map(|i| run.objectives_of(i)).collect();
        let verdict = pareto::frontier(&vectors);
        for (local, global) in range.enumerate() {
            run.frontier[global] = verdict.on_frontier[local];
            run.dominated_by[global] = verdict.dominated_by[local].map(|j| j + global - local);
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn single_phase_points_collapse_to_one_job() {
        let s = spec::parse("benchmarks adder:4\nflows 1phi\nphases 3 4 6\n").unwrap();
        let e = expand(&s).unwrap();
        assert_eq!(e.points.len(), 3, "one point per grid coordinate");
        assert_eq!(e.jobs.len(), 1, "1phi ignores the phases axis");
        assert!(e.points.iter().all(|p| p.job == 0));
    }

    #[test]
    fn nphi_at_one_phase_is_the_single_phase_baseline() {
        let s = spec::parse("benchmarks adder:4\nflows 1phi nphi\nphases 1 4\n").unwrap();
        let e = expand(&s).unwrap();
        // Grid: 1phi@1, 1phi@4, nphi@1, nphi@4 — the first three share
        // the 1φ configuration fingerprint.
        assert_eq!(e.points.len(), 4);
        assert_eq!(e.jobs.len(), 2);
        assert_eq!(e.points[0].job, e.points[2].job);
    }

    #[test]
    fn distinct_axes_stay_distinct() {
        let s = spec::parse(
            "benchmarks adder:4\nflows t1\nphases 4\nopt none pre-opt\n\
             timing off on\nlibrary default cheap-dff\n",
        )
        .unwrap();
        let e = expand(&s).unwrap();
        assert_eq!(e.points.len(), 8);
        assert_eq!(e.jobs.len(), 8, "every coordinate is a distinct config");
        let labels: Vec<String> = e.points.iter().map(|p| p.config_label()).collect();
        assert!(labels.contains(&"t1@4".to_string()));
        assert!(labels.contains(&"t1@4+pre-opt+timing+cheap-dff".to_string()));
    }

    #[test]
    fn run_joins_results_and_frontier_onto_points() {
        let s = spec::parse("benchmarks adder:4\nflows 1phi t1\nphases 4\n").unwrap();
        let run = run_sweep(s, &SuiteRunner::new(2), |_| {}).unwrap();
        assert_eq!(run.points.len(), 2);
        assert_eq!(run.stats.len(), 2);
        assert!(run.sources.iter().all(|s| *s == "computed"));
        // Two points, four objectives: at least one must survive.
        assert!(run.frontier.iter().any(|f| *f));
        for i in 0..run.points.len() {
            assert_eq!(run.frontier[i], run.dominated_by[i].is_none());
            if let Some(w) = run.dominated_by[i] {
                assert!(run.frontier[w], "witness must be on the frontier");
                assert_eq!(
                    run.points[w].benchmark, run.points[i].benchmark,
                    "witness stays within the benchmark"
                );
            }
        }
    }
}
