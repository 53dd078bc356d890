//! The `EXPLORE_*.json` report, its validator, and the human renderings.
//!
//! Schema `"sfq-t1/explore"` version 1. The report is deliberately free
//! of wall-clock figures: every field is a pure function of the sweep
//! spec and the flow results, except the per-point `"source"` provenance
//! and the run-level `"cache"` accounting. [`strip_provenance`] blanks
//! exactly those, so a cold run and a warm `--cache-dir` rerun of the
//! same spec produce byte-identical normalized reports — the invariant
//! the warm-start tests and CI assert.
//!
//! Like the bench reports, the emitter validates its own output
//! ([`validate`], built on [`sfq_obs::json`]) before anything is
//! written to disk, so a schema drift fails the producer, not a later
//! consumer.

use crate::spec::{FLOW_TOKENS, LIBRARY_VARIANTS, OBJECTIVE_TOKENS, OPT_TOKENS};
use crate::sweep::ExploreRun;
use sfq_obs::escape_json;
use sfq_obs::json::{self, Value};
use std::fmt::Write as _;

/// Schema identifier of explore reports.
pub const EXPLORE_SCHEMA: &str = "sfq-t1/explore";
/// Current schema version; bump on any breaking format change.
pub const EXPLORE_SCHEMA_VERSION: u64 = 1;

/// Provenance labels a point may carry.
const SOURCES: [&str; 4] = ["memory", "disk", "computed", "unknown"];

/// Renders the report. One line per point, so line-oriented tooling
/// (and [`strip_provenance`]) can treat points atomically.
pub fn explore_report_json(run: &ExploreRun) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{EXPLORE_SCHEMA}\",");
    let _ = writeln!(out, "  \"schema_version\": {EXPLORE_SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"sweep\": \"{}\",", escape_json(&run.spec.name));
    let objectives: Vec<String> = run
        .spec
        .objectives
        .iter()
        .map(|o| format!("\"{}\"", o.token()))
        .collect();
    let _ = writeln!(out, "  \"objectives\": [{}],", objectives.join(", "));
    let _ = writeln!(out, "  \"points\": {},", run.points.len());
    let _ = writeln!(out, "  \"unique_jobs\": {},", run.jobs.len());
    out.push_str("  \"benchmarks\": [\n");
    let ranges = run.benchmark_ranges();
    for (b, (benchmark, range)) in ranges.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"benchmark\": \"{}\",", escape_json(benchmark));
        let frontier_size = range.clone().filter(|&i| run.frontier[i]).count();
        let _ = writeln!(out, "      \"frontier_size\": {frontier_size},");
        out.push_str("      \"points\": [\n");
        for i in range.clone() {
            let p = &run.points[i];
            let s = &run.stats[i];
            let dominated_by = match run.dominated_by[i] {
                Some(w) => format!("\"{}\"", escape_json(&run.points[w].config_label())),
                None => "null".into(),
            };
            let _ = writeln!(
                out,
                "        {{\"config\": \"{}\", \"flow\": \"{}\", \"phases\": {}, \
                 \"opt\": \"{}\", \"timing\": {}, \"library\": \"{}\", \
                 \"fingerprint\": \"{:016x}-{:016x}\", \"source\": \"{}\", \
                 \"gates\": {}, \"depth_cycles\": {}, \"dffs\": {}, \
                 \"splitters\": {}, \"cell_area\": {}, \"area\": {}, \
                 \"t1_used\": {}, \"frontier\": {}, \"dominated_by\": {}}}{}",
                escape_json(&p.config_label()),
                p.flow.token(),
                p.phases,
                p.opt,
                p.timing,
                p.library,
                p.key.aig,
                p.key.setup,
                run.sources[i],
                s.gates,
                s.depth_cycles.max(0),
                s.dffs,
                s.splitters,
                s.cell_area,
                s.area,
                s.t1_used,
                run.frontier[i],
                dominated_by,
                if i + 1 == range.end { "" } else { "," }
            );
        }
        out.push_str("      ]\n");
        let _ = writeln!(
            out,
            "    }}{}",
            if b + 1 == ranges.len() { "" } else { "," }
        );
    }
    out.push_str("  ],\n");
    let c = run.cache();
    let _ = writeln!(
        out,
        "  \"cache\": {{\"memory_hits\": {}, \"disk_hits\": {}, \"flow_runs\": {}, \
         \"disk_entries\": {}}}",
        c.memory_hits, c.disk_hits, c.misses, c.disk.entries
    );
    out.push_str("}\n");
    out
}

/// Blanks the result-provenance fields — every per-point `"source"`
/// value and the run-level `"cache"` line — which are the only report
/// fields that may differ between a cold run and a warm rerun of the
/// same spec. Everything else must be byte-identical.
pub fn strip_provenance(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        if line.trim_start().starts_with("\"cache\":") {
            out.push_str("  \"cache\": {}\n");
            continue;
        }
        const NEEDLE: &str = "\"source\": \"";
        if let Some(at) = line.find(NEEDLE) {
            let value_start = at + NEEDLE.len();
            if let Some(len) = line[value_start..].find('"') {
                out.push_str(&line[..value_start]);
                out.push('-');
                out.push_str(&line[value_start + len..]);
                out.push('\n');
                continue;
            }
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

fn get_u64(v: &Value, key: &str, ctx: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{ctx}: missing or non-integer '{key}'"))
}

fn get_str<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{ctx}: missing or non-string '{key}'"))
}

fn get_bool(v: &Value, key: &str, ctx: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(Value::as_bool)
        .ok_or_else(|| format!("{ctx}: missing or non-boolean '{key}'"))
}

/// Validates an explore report against schema version 1: structure,
/// field types, token vocabularies, fingerprint shape, point counts,
/// frontier-size consistency, non-empty frontiers, and witness
/// integrity (every pruned point's `dominated_by` names a frontier
/// point of the same benchmark; frontier points carry `null`).
pub fn validate(text: &str) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| format!("explore report is not JSON: {e}"))?;
    let schema = get_str(&doc, "schema", "report")?;
    if schema != EXPLORE_SCHEMA {
        return Err(format!(
            "schema mismatch: got '{schema}', want '{EXPLORE_SCHEMA}'"
        ));
    }
    let version = get_u64(&doc, "schema_version", "report")?;
    if version != EXPLORE_SCHEMA_VERSION {
        return Err(format!(
            "schema_version mismatch: got {version}, want {EXPLORE_SCHEMA_VERSION}"
        ));
    }
    get_str(&doc, "sweep", "report")?;
    let objectives = doc
        .get("objectives")
        .and_then(Value::as_arr)
        .ok_or("report: missing 'objectives' array")?;
    if objectives.is_empty() {
        return Err("report: empty 'objectives'".into());
    }
    for o in objectives {
        let token = o.as_str().ok_or("report: non-string objective")?;
        if !OBJECTIVE_TOKENS.contains(&token) {
            return Err(format!("report: unknown objective '{token}'"));
        }
    }
    let points_total = get_u64(&doc, "points", "report")?;
    let unique_jobs = get_u64(&doc, "unique_jobs", "report")?;
    if unique_jobs == 0 || unique_jobs > points_total {
        return Err(format!(
            "report: unique_jobs {unique_jobs} out of range for {points_total} points"
        ));
    }
    doc.get("cache")
        .filter(|c| matches!(c, Value::Obj(_)))
        .ok_or("report: missing 'cache' object")?;

    let benchmarks = doc
        .get("benchmarks")
        .and_then(Value::as_arr)
        .ok_or("report: missing 'benchmarks' array")?;
    if benchmarks.is_empty() {
        return Err("report: empty 'benchmarks'".into());
    }
    let mut seen_points = 0u64;
    for b in benchmarks {
        let name = get_str(b, "benchmark", "benchmark entry")?;
        let ctx = format!("benchmark '{name}'");
        let frontier_size = get_u64(b, "frontier_size", &ctx)?;
        let points = b
            .get("points")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{ctx}: missing 'points' array"))?;
        if points.is_empty() {
            return Err(format!("{ctx}: no points"));
        }
        seen_points += points.len() as u64;
        let mut frontier_configs: Vec<&str> = Vec::new();
        let mut counted = 0u64;
        for p in points {
            let config = get_str(p, "config", &ctx)?;
            let pctx = format!("{ctx} point '{config}'");
            let flow = get_str(p, "flow", &pctx)?;
            if !FLOW_TOKENS.contains(&flow) {
                return Err(format!("{pctx}: unknown flow '{flow}'"));
            }
            get_u64(p, "phases", &pctx)?;
            let opt = get_str(p, "opt", &pctx)?;
            if !OPT_TOKENS.contains(&opt) {
                return Err(format!("{pctx}: unknown opt '{opt}'"));
            }
            get_bool(p, "timing", &pctx)?;
            let library = get_str(p, "library", &pctx)?;
            if !LIBRARY_VARIANTS.contains(&library) {
                return Err(format!("{pctx}: unknown library '{library}'"));
            }
            let fp = get_str(p, "fingerprint", &pctx)?;
            let halves: Vec<&str> = fp.split('-').collect();
            if halves.len() != 2
                || halves
                    .iter()
                    .any(|h| h.len() != 16 || !h.chars().all(|c| c.is_ascii_hexdigit()))
            {
                return Err(format!("{pctx}: malformed fingerprint '{fp}'"));
            }
            let source = get_str(p, "source", &pctx)?;
            if !SOURCES.contains(&source) && source != "-" {
                return Err(format!("{pctx}: unknown source '{source}'"));
            }
            for key in [
                "gates",
                "depth_cycles",
                "dffs",
                "splitters",
                "cell_area",
                "area",
                "t1_used",
            ] {
                get_u64(p, key, &pctx)?;
            }
            if get_bool(p, "frontier", &pctx)? {
                counted += 1;
                frontier_configs.push(config);
                if !matches!(p.get("dominated_by"), Some(Value::Null)) {
                    return Err(format!("{pctx}: frontier point with a dominator"));
                }
            } else if p.get("dominated_by").and_then(Value::as_str).is_none() {
                return Err(format!("{pctx}: pruned point without a witness"));
            }
        }
        if counted != frontier_size {
            return Err(format!(
                "{ctx}: frontier_size {frontier_size} but {counted} frontier points"
            ));
        }
        if counted == 0 {
            return Err(format!("{ctx}: empty frontier"));
        }
        for p in points {
            if let Some(witness) = p.get("dominated_by").and_then(Value::as_str) {
                if !frontier_configs.contains(&witness) {
                    return Err(format!(
                        "{ctx}: witness '{witness}' is not a frontier point"
                    ));
                }
            }
        }
    }
    if seen_points != points_total {
        return Err(format!(
            "report: 'points' says {points_total} but benchmarks list {seen_points}"
        ));
    }
    Ok(())
}

/// Human frontier table: per benchmark, the surviving configurations
/// with their objective values, plus a pruned-point count.
pub fn frontier_table(run: &ExploreRun) -> String {
    let objectives: Vec<&str> = run.spec.objectives.iter().map(|o| o.token()).collect();
    let mut out = String::new();
    for (benchmark, range) in run.benchmark_ranges() {
        let total = range.len();
        let on: Vec<usize> = range.clone().filter(|&i| run.frontier[i]).collect();
        let _ = writeln!(
            out,
            "{benchmark}: frontier {} of {} points (objectives: {})",
            on.len(),
            total,
            objectives.join(", ")
        );
        let _ = writeln!(
            out,
            "  {:<34} {:>8} {:>8} {:>8} {:>8}  source",
            "config", "gates", "depth", "dffs", "area"
        );
        for i in on {
            let s = &run.stats[i];
            let _ = writeln!(
                out,
                "  {:<34} {:>8} {:>8} {:>8} {:>8}  {}",
                run.points[i].config_label(),
                s.gates,
                s.depth_cycles.max(0),
                s.dffs,
                s.area,
                run.sources[i]
            );
        }
        let pruned = range.filter(|&i| !run.frontier[i]).count();
        if pruned > 0 {
            let _ = writeln!(out, "  ({pruned} dominated points pruned)");
        }
    }
    out
}

/// CSV rendering of every point (frontier and pruned alike).
pub fn points_csv(run: &ExploreRun) -> String {
    let mut out = String::from(
        "benchmark,config,flow,phases,opt,timing,library,gates,depth_cycles,dffs,\
         splitters,cell_area,area,t1_used,frontier,dominated_by\n",
    );
    for (i, p) in run.points.iter().enumerate() {
        let s = &run.stats[i];
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            p.benchmark,
            p.config_label(),
            p.flow.token(),
            p.phases,
            p.opt,
            p.timing,
            p.library,
            s.gates,
            s.depth_cycles.max(0),
            s.dffs,
            s.splitters,
            s.cell_area,
            s.area,
            s.t1_used,
            run.frontier[i],
            run.dominated_by[i]
                .map(|w| run.points[w].config_label())
                .unwrap_or_default()
        );
    }
    out
}

/// End-of-sweep summary line; the `N flow runs` figure is what warm-start
/// CI greps for (a warm rerun must report `0 flow runs`).
pub fn explore_summary(run: &ExploreRun) -> String {
    format!(
        "explore: {} points, {} unique jobs on {} workers in {:.1?} \
         ({} cache hits, {} flow runs)",
        run.points.len(),
        run.jobs.len(),
        run.report.workers,
        run.report.elapsed,
        run.cache().hits(),
        run.cache().misses
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use crate::sweep::run_sweep;
    use sfq_engine::SuiteRunner;

    fn small_run() -> ExploreRun {
        let s = spec::parse("sweep unit\nbenchmarks adder:4 c6288\nflows 1phi t1\nphases 3 4\n")
            .unwrap();
        run_sweep(s, &SuiteRunner::new(2), |_| {}).unwrap()
    }

    #[test]
    fn report_validates_and_counts_points() {
        let run = small_run();
        let text = explore_report_json(&run);
        validate(&text).expect("emitted report must validate");
        let doc = sfq_obs::json::parse(&text).unwrap();
        assert_eq!(doc.get("points").unwrap().as_u64(), Some(8));
        assert_eq!(doc.get("unique_jobs").unwrap().as_u64(), Some(6));
        assert_eq!(doc.get("benchmarks").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn validator_rejects_tampering() {
        let run = small_run();
        let text = explore_report_json(&run);
        assert!(validate(&text.replace("sfq-t1/explore", "sfq-t1/other")).is_err());
        assert!(validate(&text.replace("\"frontier\": true", "\"frontier\": false")).is_err());
        assert!(validate(&text.replace("\"flow\": \"t1\"", "\"flow\": \"t2\"")).is_err());
        assert!(validate("{}").is_err());
    }

    #[test]
    fn strip_provenance_blanks_only_sources_and_cache() {
        let run = small_run();
        let text = explore_report_json(&run);
        let stripped = strip_provenance(&text);
        assert!(stripped.contains("\"source\": \"-\""));
        assert!(!stripped.contains("computed"));
        assert!(stripped.contains("\"cache\": {}"));
        validate(&stripped).expect("normalized report still validates");
        // Idempotent: stripping twice changes nothing.
        assert_eq!(strip_provenance(&stripped), stripped);
    }

    #[test]
    fn human_renderings_cover_every_benchmark() {
        let run = small_run();
        let table = frontier_table(&run);
        assert!(table.contains("adder:4: frontier"));
        assert!(table.contains("c6288: frontier"));
        let csv = points_csv(&run);
        assert_eq!(csv.lines().count(), 1 + run.points.len());
        assert!(csv.starts_with("benchmark,config,flow,phases"));
        let summary = explore_summary(&run);
        assert!(summary.contains("8 points, 6 unique jobs"), "{summary}");
    }
}
