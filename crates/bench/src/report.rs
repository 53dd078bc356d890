//! Schema-versioned machine-readable bench reports (`BENCH_*.json`).
//!
//! One report captures a whole suite run: per-job wall micros, result
//! provenance and allocation volume, the mapped-circuit results (nodes,
//! depth, DFFs — the numbers a perf regression must not silently
//! change), the cache-source breakdown, the span rollups of the run's
//! trace, latency/allocation histograms, and the process memory
//! high-water mark. Reports are the PR-over-PR perf trajectory: CI
//! emits `BENCH_table1.json` on every run, validates it against
//! [`validate`], and diffs it against the committed baseline with
//! [`crate::diff`], so the format only evolves via an explicit
//! [`BENCH_SCHEMA_VERSION`] bump.
//!
//! Schema history: v1 (PR 7) had timing + quality metrics; v2 adds
//! per-job `alloc_bytes`/`peak_bytes`, a top-level `memory` object and a
//! `histograms` array. [`validate`] still accepts v1 files, so old
//! baselines keep working as diff inputs.
//!
//! Emission is hand-rolled JSON (no dependencies) and deliberately free
//! of absolute timestamps: two runs of equal speed produce structurally
//! identical reports, which keeps diffs reviewable.

use sfq_engine::{CacheStats, Job, JobOutcome, SuiteReport};
use sfq_obs::json::Value;
use sfq_obs::{escape_json, Trace};

/// `schema` field of every report this module writes.
pub const BENCH_SCHEMA: &str = "sfq-t1/bench-report";
/// Current schema version; bump on any breaking format change.
pub const BENCH_SCHEMA_VERSION: u64 = 2;
/// Oldest version [`validate`] still accepts (pre-memory, pre-histogram).
pub const BENCH_SCHEMA_MIN_VERSION: u64 = 1;

/// Per-job timing sample collected from [`JobOutcome`] progress events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobSample {
    /// Wall micros the job occupied a worker.
    pub micros: u64,
    /// Result provenance: `"memory"`, `"disk"` or `"computed"`.
    pub source: &'static str,
    /// Bytes the worker allocated during the job (0 if untracked).
    pub alloc_bytes: u64,
    /// Process-wide peak live bytes at job end (0 if untracked).
    pub peak_bytes: u64,
}

impl JobSample {
    /// Extracts the sample for `o.index` from a progress event.
    pub fn from_outcome(o: &JobOutcome<'_>) -> Self {
        JobSample {
            micros: o.duration.as_micros() as u64,
            source: o.source.label(),
            alloc_bytes: o.alloc_bytes,
            peak_bytes: o.peak_bytes,
        }
    }
}

/// Suite-level context the report records alongside the results.
#[derive(Debug, Clone)]
pub struct ReportMeta {
    /// Which suite produced the report (e.g. `"table1"`).
    pub suite: String,
    /// Benchmark scale label (`"paper"` or `"small"`).
    pub scale: String,
    /// Phase count of the multiphase/T1 flows.
    pub phases: u32,
    /// Whether the pre-mapping optimization stage ran.
    pub pre_opt: bool,
}

/// One `benchmarks[]` entry — the unit the regression diff aligns on
/// (keyed by `benchmark` × `flow`).
#[derive(Debug, Clone, Default)]
pub struct ReportEntry {
    /// Benchmark name.
    pub benchmark: String,
    /// Flow label (`"1φ"`, `"nφ"`, `"T1"`, or a tool name for
    /// single-network reports).
    pub flow: String,
    /// Wall micros.
    pub micros: u64,
    /// Result provenance.
    pub source: String,
    /// Input AIG and-node count.
    pub ands: u64,
    /// Mapped gate count.
    pub gates: u64,
    /// Path-balancing DFF count.
    pub dffs: u64,
    /// Splitter count.
    pub splitters: u64,
    /// Logic-cell area.
    pub cell_area: u64,
    /// Total area including DFFs and splitters.
    pub area: u64,
    /// Pipeline depth in clock cycles.
    pub depth_cycles: u64,
    /// T1 candidate count found.
    pub t1_found: u64,
    /// T1 cells actually used.
    pub t1_used: u64,
    /// Worker-thread allocation volume of the job.
    pub alloc_bytes: u64,
    /// Process peak live bytes at job end.
    pub peak_bytes: u64,
}

/// Renders the report. `samples` must be indexed like `jobs` (missing
/// entries render as zero micros with an `"unknown"` source).
///
/// # Panics
///
/// Panics if `report` was produced from a different job list.
pub fn bench_report_json(
    meta: &ReportMeta,
    jobs: &[Job],
    report: &SuiteReport,
    samples: &[JobSample],
    trace: &Trace,
) -> String {
    assert_eq!(
        jobs.len(),
        report.results.len(),
        "report does not match the job list"
    );
    let entries: Vec<ReportEntry> = jobs
        .iter()
        .zip(&report.results)
        .enumerate()
        .map(|(i, (job, result))| {
            let sample = samples.get(i).copied().unwrap_or(JobSample {
                micros: 0,
                source: "unknown",
                alloc_bytes: 0,
                peak_bytes: 0,
            });
            let s = result.stats;
            ReportEntry {
                benchmark: job.name.clone(),
                flow: job.flow.clone(),
                micros: sample.micros,
                source: sample.source.to_string(),
                ands: job.aig.and_count() as u64,
                gates: s.gates as u64,
                dffs: s.dffs,
                splitters: s.splitters,
                cell_area: s.cell_area,
                area: s.area,
                depth_cycles: s.depth_cycles as u64,
                t1_found: s.t1_found as u64,
                t1_used: s.t1_used as u64,
                alloc_bytes: sample.alloc_bytes,
                peak_bytes: sample.peak_bytes,
            }
        })
        .collect();
    render_report(
        meta,
        report.workers as u64,
        report.elapsed.as_micros() as u64,
        &entries,
        &report.cache,
        trace,
    )
}

/// Renders a single-network report for the `opt`/`sta` tool paths: one
/// entry whose `flow` is the tool name, zeros for metrics the tool does
/// not produce. Same schema, same validator, same diff alignment.
pub fn tool_report_json(
    tool: &str,
    entry: &ReportEntry,
    wall_micros: u64,
    trace: &Trace,
) -> String {
    let meta = ReportMeta {
        suite: tool.to_string(),
        scale: "single".to_string(),
        phases: 0,
        pre_opt: false,
    };
    render_report(
        &meta,
        1,
        wall_micros,
        std::slice::from_ref(entry),
        &CacheStats::default(),
        trace,
    )
}

fn render_report(
    meta: &ReportMeta,
    workers: u64,
    wall_micros: u64,
    entries: &[ReportEntry],
    cache: &CacheStats,
    trace: &Trace,
) -> String {
    let mut out = String::with_capacity(1024 + entries.len() * 256);
    out.push_str(&format!(
        "{{\n  \"schema\": \"{}\",\n  \"schema_version\": {},\n",
        escape_json(BENCH_SCHEMA),
        BENCH_SCHEMA_VERSION
    ));
    out.push_str(&format!(
        "  \"suite\": \"{}\",\n  \"scale\": \"{}\",\n  \"phases\": {},\n  \"pre_opt\": {},\n",
        escape_json(&meta.suite),
        escape_json(&meta.scale),
        meta.phases,
        meta.pre_opt
    ));
    out.push_str(&format!(
        "  \"jobs\": {},\n  \"workers\": {},\n  \"wall_micros\": {},\n",
        entries.len(),
        workers,
        wall_micros
    ));

    out.push_str("  \"benchmarks\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"benchmark\": \"{}\", \"flow\": \"{}\", \"micros\": {}, \"source\": \"{}\", \
             \"ands\": {}, \"gates\": {}, \"dffs\": {}, \"splitters\": {}, \"cell_area\": {}, \
             \"area\": {}, \"depth_cycles\": {}, \"t1_found\": {}, \"t1_used\": {}, \
             \"alloc_bytes\": {}, \"peak_bytes\": {}}}{}\n",
            escape_json(&e.benchmark),
            escape_json(&e.flow),
            e.micros,
            escape_json(&e.source),
            e.ands,
            e.gates,
            e.dffs,
            e.splitters,
            e.cell_area,
            e.area,
            e.depth_cycles,
            e.t1_found,
            e.t1_used,
            e.alloc_bytes,
            e.peak_bytes,
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");

    out.push_str(&format!(
        "  \"cache\": {{\"memory_hits\": {}, \"disk_hits\": {}, \"misses\": {}, \
         \"disk_entries\": {}, \"disk_errors\": {}}},\n",
        cache.memory_hits, cache.disk_hits, cache.misses, cache.disk.entries, cache.disk.errors
    ));

    // Process-wide allocation counters for the whole run. `tracked` says
    // whether the counting allocator was installed — zeros are
    // meaningful only when it was.
    let mem = sfq_obs::alloc::stats();
    out.push_str(&format!(
        "  \"memory\": {{\"tracked\": {}, \"allocated_bytes\": {}, \"freed_bytes\": {}, \
         \"peak_bytes\": {}}},\n",
        sfq_obs::alloc::is_tracking(),
        mem.allocated,
        mem.freed,
        mem.peak
    ));

    out.push_str("  \"spans\": [\n");
    let rollups = trace.rollups();
    for (i, r) in rollups.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"count\": {}, \"total_micros\": {}}}{}\n",
            escape_json(&r.name),
            r.count,
            r.total_us,
            if i + 1 == rollups.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");

    out.push_str("  \"histograms\": [\n");
    for (i, (name, h)) in trace.histograms.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \
             \"max\": {}}}{}\n",
            escape_json(name),
            h.count(),
            h.percentile(50),
            h.percentile(90),
            h.percentile(99),
            h.max(),
            if i + 1 == trace.histograms.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str("  ],\n");

    out.push_str("  \"counters\": [\n");
    for (i, (name, value)) in trace.counters.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"value\": {}}}{}\n",
            escape_json(name),
            value,
            if i + 1 == trace.counters.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Checks that `text` is a well-formed report of an accepted schema
/// version (v1 files lack the memory/histogram fields and still pass).
/// Returns a human-readable reason on the first violation.
pub fn validate(text: &str) -> Result<(), String> {
    let doc = sfq_obs::json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing field '{key}'"));
    let schema = field("schema")?
        .as_str()
        .ok_or("'schema' must be a string")?;
    if schema != BENCH_SCHEMA {
        return Err(format!("schema is '{schema}', expected '{BENCH_SCHEMA}'"));
    }
    let version = field("schema_version")?
        .as_u64()
        .ok_or("'schema_version' must be an integer")?;
    if !(BENCH_SCHEMA_MIN_VERSION..=BENCH_SCHEMA_VERSION).contains(&version) {
        return Err(format!(
            "schema_version is {version}, expected {BENCH_SCHEMA_MIN_VERSION}..={BENCH_SCHEMA_VERSION}"
        ));
    }
    for key in ["suite", "scale"] {
        field(key)?
            .as_str()
            .ok_or_else(|| format!("'{key}' must be a string"))?;
    }
    for key in ["phases", "jobs", "workers", "wall_micros"] {
        field(key)?
            .as_u64()
            .ok_or_else(|| format!("'{key}' must be a non-negative integer"))?;
    }
    field("pre_opt")?
        .as_bool()
        .ok_or("'pre_opt' must be a boolean")?;

    let benchmarks = field("benchmarks")?
        .as_arr()
        .ok_or("'benchmarks' must be an array")?;
    if benchmarks.is_empty() {
        return Err("'benchmarks' must not be empty".to_string());
    }
    let job_count = doc.get("jobs").and_then(Value::as_u64).unwrap_or(0);
    if benchmarks.len() as u64 != job_count {
        return Err(format!(
            "'benchmarks' has {} entries but 'jobs' says {job_count}",
            benchmarks.len()
        ));
    }
    let mut per_job_keys = vec![
        "micros",
        "ands",
        "gates",
        "dffs",
        "splitters",
        "cell_area",
        "area",
        "depth_cycles",
        "t1_found",
        "t1_used",
    ];
    if version >= 2 {
        per_job_keys.extend(["alloc_bytes", "peak_bytes"]);
    }
    for (i, b) in benchmarks.iter().enumerate() {
        for key in ["benchmark", "flow", "source"] {
            b.get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("benchmarks[{i}].{key} must be a string"))?;
        }
        for key in &per_job_keys {
            b.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("benchmarks[{i}].{key} must be an integer"))?;
        }
    }

    let cache = field("cache")?;
    for key in [
        "memory_hits",
        "disk_hits",
        "misses",
        "disk_entries",
        "disk_errors",
    ] {
        cache
            .get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("cache.{key} must be an integer"))?;
    }

    if version >= 2 {
        let mem = field("memory")?;
        mem.get("tracked")
            .and_then(Value::as_bool)
            .ok_or("memory.tracked must be a boolean")?;
        for key in ["allocated_bytes", "freed_bytes", "peak_bytes"] {
            mem.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("memory.{key} must be an integer"))?;
        }
        let hists = field("histograms")?
            .as_arr()
            .ok_or("'histograms' must be an array")?;
        for (i, h) in hists.iter().enumerate() {
            h.get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("histograms[{i}].name must be a string"))?;
            for key in ["count", "p50", "p90", "p99", "max"] {
                h.get(key)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("histograms[{i}].{key} must be an integer"))?;
            }
        }
    }

    let spans = field("spans")?.as_arr().ok_or("'spans' must be an array")?;
    for (i, s) in spans.iter().enumerate() {
        s.get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("spans[{i}].name must be a string"))?;
        for key in ["count", "total_micros"] {
            s.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("spans[{i}].{key} must be an integer"))?;
        }
    }
    let counters = field("counters")?
        .as_arr()
        .ok_or("'counters' must be an array")?;
    for (i, c) in counters.iter().enumerate() {
        c.get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("counters[{i}].name must be a string"))?;
        c.get("value")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("counters[{i}].value must be an integer"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{table1_jobs, BenchmarkScale};
    use sfq_engine::SuiteRunner;
    use t1map::cells::CellLibrary;

    fn small_report() -> String {
        let lib = CellLibrary::default();
        // One benchmark (three flows) keeps this a unit-speed test.
        let jobs: Vec<_> = table1_jobs(&BenchmarkScale::small(), 4, &lib)
            .into_iter()
            .take(3)
            .collect();
        let mut samples = vec![JobSample::default(); jobs.len()];
        let report = SuiteRunner::new(2).run_with_progress(&jobs, |o| {
            samples[o.index] = JobSample::from_outcome(&o);
        });
        let meta = ReportMeta {
            suite: "table1".to_string(),
            scale: "small".to_string(),
            phases: 4,
            pre_opt: false,
        };
        bench_report_json(&meta, &jobs, &report, &samples, &Trace::default())
    }

    #[test]
    fn emitted_report_validates() {
        let text = small_report();
        validate(&text).expect("fresh report must validate");
        // And every job carries a real sample.
        let doc = sfq_obs::json::parse(&text).unwrap();
        for b in doc.get("benchmarks").unwrap().as_arr().unwrap() {
            assert_eq!(b.get("source").unwrap().as_str(), Some("computed"));
            assert!(b.get("alloc_bytes").unwrap().as_u64().is_some());
            assert!(b.get("peak_bytes").unwrap().as_u64().is_some());
        }
        assert_eq!(
            doc.get("schema_version").unwrap().as_u64(),
            Some(BENCH_SCHEMA_VERSION)
        );
        assert!(doc.get("memory").is_some());
        assert!(doc.get("histograms").is_some());
    }

    #[test]
    fn validate_accepts_v1_reports_without_memory_fields() {
        // Simulate a v1 baseline: strip the v2-only fields. (The test
        // binary has no counting allocator, so the byte fields are 0.)
        let text = small_report();
        let v1 = text
            .replace("\"schema_version\": 2", "\"schema_version\": 1")
            .replace(", \"alloc_bytes\": 0, \"peak_bytes\": 0", "")
            .lines()
            .filter(|l| !l.trim_start().starts_with("\"memory\""))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(!v1.contains("alloc_bytes"), "v2 fields really stripped");
        validate(&v1).expect("v1 reader compatibility");
    }

    #[test]
    fn tool_report_is_a_valid_single_entry_report() {
        let entry = ReportEntry {
            benchmark: "adder4".to_string(),
            flow: "opt".to_string(),
            micros: 1234,
            source: "computed".to_string(),
            ands: 40,
            ..ReportEntry::default()
        };
        let text = tool_report_json("opt", &entry, 1500, &Trace::default());
        validate(&text).expect("tool report must validate");
        let doc = sfq_obs::json::parse(&text).unwrap();
        assert_eq!(doc.get("suite").unwrap().as_str(), Some("opt"));
        assert_eq!(doc.get("jobs").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn validate_rejects_wrong_schema_and_missing_fields() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").unwrap_err().contains("schema"));
        let text = small_report();
        let wrong_version = text.replace("\"schema_version\": 2", "\"schema_version\": 99");
        assert!(validate(&wrong_version).unwrap_err().contains("99"));
        let wrong_schema = text.replace(BENCH_SCHEMA, "other/format");
        assert!(validate(&wrong_schema).is_err());
        let no_benchmarks = text.replace("\"benchmarks\"", "\"renamed\"");
        assert!(validate(&no_benchmarks).is_err());
    }
}
