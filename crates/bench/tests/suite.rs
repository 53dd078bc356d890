//! Integration tests of the benchmark suites running through `sfq-engine`:
//! the cache-hit guarantee of the ablation phase sweep and the Table-I
//! row-major result layout.

use sfq_bench::{phase_sweep_jobs, table1_jobs, BenchmarkScale, SWEEP_PHASES, TABLE1_FLOWS};
use sfq_circuits::epfl;
use sfq_engine::SuiteRunner;
use std::sync::Arc;
use t1map::cells::CellLibrary;

#[test]
fn phase_sweep_reports_cache_hits_for_the_shared_baseline() {
    let lib = CellLibrary::default();
    let aig = Arc::new(epfl::adder(8));
    let jobs = phase_sweep_jobs("adder8", &aig, &lib, false);
    let report = SuiteRunner::new(2).run(&jobs);

    // One 1φ reference per sweep point, identical content → exactly one
    // computation and hits for every other request.
    let expected_hits = (SWEEP_PHASES.len() - 1) as u64;
    assert_eq!(
        report.cache.hits(),
        expected_hits,
        "shared baselines reused"
    );
    assert_eq!(
        report.cache.misses,
        (jobs.len() as u64) - expected_hits,
        "every distinct job computed once"
    );

    // Every sweep point's 1φ column is the same shared result.
    let reference = &report.results[2];
    for chunk in report.results.chunks(3) {
        assert!(Arc::ptr_eq(&chunk[2], reference));
    }
}

#[test]
fn table1_small_suite_runs_in_parallel_with_paper_shape() {
    let lib = CellLibrary::default();
    let jobs = table1_jobs(&BenchmarkScale::small(), 4, &lib);
    let report = SuiteRunner::new(4).run(&jobs);
    assert_eq!(report.results.len(), 8 * TABLE1_FLOWS.len());

    // Row-major triples: per benchmark, T1 beats the 1φ baseline on area
    // (the paper's headline claim) and the three flows are distinct jobs.
    assert_eq!(report.cache.hits(), 0, "Table I has no duplicate jobs");
    for (i, triple) in report.results.chunks(3).enumerate() {
        let (single, t1) = (&triple[0].stats, &triple[2].stats);
        assert!(
            t1.area < single.area,
            "benchmark {} ({}): T1 area {} vs 1φ {}",
            i,
            jobs[i * 3].name,
            t1.area,
            single.area
        );
    }
}
