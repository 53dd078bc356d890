//! Shared result-row formatting for every suite front end.
//!
//! The CLI `suite`, `explore` and `bench-report` subcommands and the
//! `ablation` binary all turn a job list plus a [`SuiteReport`] into
//! tables, progress lines, summary lines and CSV. One implementation keeps
//! the front ends byte-identical where they overlap — in particular, the
//! engine's submission-ordered results make every function here
//! independent of worker count, so `--jobs 1` and `--jobs N` produce
//! identical tables and CSV.

use sfq_engine::{Job, JobOutcome, SuiteReport};
use t1map::report::{TableOne, TableRow};

use crate::progress_line;

/// Assembles the Table-I view from a suite laid out as consecutive
/// `(1φ, nφ, T1)` triples (the layout of
/// [`table1_jobs`](crate::table1_jobs)).
///
/// # Panics
///
/// Panics if the job list is not a whole number of triples or does not
/// match the report.
pub fn table_one(jobs: &[Job], report: &SuiteReport) -> TableOne {
    assert_eq!(
        jobs.len(),
        report.results.len(),
        "report does not match the job list"
    );
    assert_eq!(jobs.len() % 3, 0, "Table-I suites are (1φ, nφ, T1) triples");
    let mut table = TableOne::new();
    for (triple, job) in report.results.chunks(3).zip(jobs.iter().step_by(3)) {
        table.push(TableRow::from_stats(
            &job.name,
            triple[0].stats,
            triple[1].stats,
            triple[2].stats,
        ));
    }
    table
}

/// The shared per-job progress line (stderr): completion counter, label,
/// subject size, result source, duration, and the monotonic elapsed time
/// since run start (`t+<micros>µs`) so interleaved parallel logs order.
pub fn progress_event(o: &JobOutcome<'_>) {
    progress_line(format_args!(
        "  [{:>2}/{}] {:<14} {:>6} ANDs  {} in {:>7.1?}  t+{}µs",
        o.completed,
        o.total,
        o.job.label(),
        o.job.aig.and_count(),
        o.source.label(),
        o.duration,
        o.elapsed.as_micros()
    ));
}

/// The shared end-of-suite summary line (for [`progress_line`]).
pub fn suite_summary(jobs: usize, report: &SuiteReport) -> String {
    let c = &report.cache;
    format!(
        "suite: {} jobs on {} workers in {:.1?} ({} cache hits, {} flow runs)",
        jobs,
        report.workers,
        report.elapsed,
        c.hits(),
        c.misses
    )
}

/// Per-backend store breakdown (stdout when a persistent store is in use,
/// and `suite --stats`). The "flow runs" figure is what warm-start CI greps
/// for: a second run over a populated store must report `0 flow runs`.
pub fn store_summary(report: &SuiteReport) -> String {
    let c = &report.cache;
    format!(
        "store: {} memory hits, {} disk hits, {} flow runs, {} disk entries \
         ({} disk reads failed)",
        c.memory_hits, c.disk_hits, c.misses, c.disk.entries, c.disk.errors
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{table1_jobs, BenchmarkScale};
    use sfq_engine::SuiteRunner;
    use t1map::cells::CellLibrary;

    #[test]
    fn rows_and_csv_are_independent_of_worker_count() {
        let lib = CellLibrary::default();
        let jobs = table1_jobs(&BenchmarkScale::small(), 4, &lib);
        let serial = SuiteRunner::new(1).run(&jobs);
        let parallel = SuiteRunner::new(4).run(&jobs);

        let (table1, table_n) = (table_one(&jobs, &serial), table_one(&jobs, &parallel));
        let rows = |t: &TableOne| {
            t.rows
                .iter()
                .map(|r| (r.name.clone(), r.single, r.multi, r.t1))
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(&table1), rows(&table_n), "every stat of every job");
        assert_eq!(table1.to_csv(), table_n.to_csv(), "Table-I CSV");
        assert_eq!(table1.rows[0].name, "adder");
    }
}
