//! The job vocabulary: the sweep-spec text format, the `serve` request
//! line, and the flow and option tables both are read through.
//!
//! A sweep spec is a line-oriented, zero-dependency text file declaring
//! the axes of a design-space sweep. Each non-empty line is
//! `key value value ...`; `#` starts a comment. Every key is optional
//! except `benchmarks`:
//!
//! ```text
//! # Table-I neighbourhood sweep.
//! sweep       table1
//! benchmarks  adder:16 multiplier:8
//! flows       1phi nphi t1
//! phases      3 4 6
//! opt         none pre-opt
//! timing      off on
//! library     default cheap-dff
//! objectives  gates depth dffs area
//! ```
//!
//! Parsing is *hard-error validating*: an unknown key, an unknown value,
//! a duplicate key or a duplicate value within an axis aborts with a
//! message listing every legal alternative — a typo can never silently
//! shrink a sweep. Cross-axis contradictions (the `t1` flow under fewer
//! than 3 phases) are rejected at parse time, naming the combination.
//!
//! The module also owns serve's parse step, [`parse_request`], which
//! checks a whole request line without building its subject. Spec and
//! request share every table — the [`sfq_circuits::named`] registry,
//! [`Flow::parse`], the phase floor of [`Flow::preset`] and
//! [`CONFIG_TOKENS`] — so both spell everything identically and reject
//! unknown tokens with the same exhaustive list.

use t1map::cells::CellLibrary;
use t1map::flow::{FlowBuilder, FlowConfig, FlowStats};

/// Legal `flows` axis values.
pub const FLOW_TOKENS: [&str; 3] = ["1phi", "nphi", "t1"];
/// Legal `opt` axis values (`none` is the identity pipeline).
pub const OPT_TOKENS: [&str; 4] = ["none", "pre-opt", "slack-opt", "dff-opt"];
/// Legal `timing` axis values.
pub const TIMING_TOKENS: [&str; 2] = ["off", "on"];
/// Legal `library` axis values (named [`CellLibrary`] variants).
pub const LIBRARY_VARIANTS: [&str; 3] = ["default", "cheap-dff", "costly-dff"];
/// Legal `objectives` values.
pub const OBJECTIVE_TOKENS: [&str; 4] = ["gates", "depth", "dffs", "area"];
/// Keys a sweep spec may contain.
pub const SPEC_KEYS: [&str; 8] = [
    "sweep",
    "benchmarks",
    "flows",
    "phases",
    "opt",
    "timing",
    "library",
    "objectives",
];

/// Every flow-configuration suffix token [`apply_config_token`] accepts —
/// the one table behind the spec's `opt`/`timing` axes *and* the
/// `serve` request suffix, so the two interfaces cannot drift apart.
pub const CONFIG_TOKENS: [&str; 6] = [
    "none",
    "pre-opt",
    "slack-opt",
    "dff-opt",
    "timing",
    "no-timing",
];

/// Applies one configuration token to a [`FlowBuilder`].
///
/// # Errors
///
/// Unknown tokens are a hard error listing all of [`CONFIG_TOKENS`].
pub fn apply_config_token(builder: FlowBuilder, token: &str) -> Result<FlowBuilder, String> {
    Ok(match token {
        "none" => builder,
        "pre-opt" => builder.standard_opt(),
        "slack-opt" => builder.slack_opt(),
        "dff-opt" => builder.dff_opt(),
        "timing" => builder.timing(true),
        "no-timing" => builder.timing(false),
        other => {
            return Err(format!(
                "unknown option '{other}' (one of: {})",
                CONFIG_TOKENS.join(", ")
            ))
        }
    })
}

/// Resolves a named [`CellLibrary`] variant.
///
/// # Errors
///
/// Unknown names are a hard error listing all of [`LIBRARY_VARIANTS`].
pub fn library_variant(name: &str) -> Result<CellLibrary, String> {
    let mut lib = CellLibrary::default();
    match name {
        "default" => {}
        "cheap-dff" => lib.dff = 3,
        "costly-dff" => lib.dff = 12,
        other => {
            return Err(format!(
                "unknown library '{other}' (one of: {})",
                LIBRARY_VARIANTS.join(", ")
            ))
        }
    }
    Ok(lib)
}

/// One of the three paper flows, as a sweep axis value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Single-phase baseline; ignores the `phases` axis.
    SinglePhase,
    /// Multiphase clocking without T1 cells.
    Multiphase,
    /// Multiphase clocking with T1 detection (needs ≥ 3 phases).
    T1,
}

impl Flow {
    /// The spec/serve spelling of this flow.
    pub fn token(self) -> &'static str {
        match self {
            Flow::SinglePhase => "1phi",
            Flow::Multiphase => "nphi",
            Flow::T1 => "t1",
        }
    }

    /// Parses a `flows` axis value.
    ///
    /// # Errors
    ///
    /// Unknown tokens list all of [`FLOW_TOKENS`].
    pub fn parse(token: &str) -> Result<Self, String> {
        match token {
            "1phi" => Ok(Flow::SinglePhase),
            "nphi" => Ok(Flow::Multiphase),
            "t1" => Ok(Flow::T1),
            other => Err(format!(
                "unknown flow '{other}' (one of: {})",
                FLOW_TOKENS.join(", ")
            )),
        }
    }

    /// The preset configuration of this flow at `phases`, as a builder
    /// (`1phi` runs at one phase whatever `phases` says).
    ///
    /// # Errors
    ///
    /// Fewer phases than the flow runs at: one for every flow, and three
    /// for `t1`, whose cells take their three operands in three distinct
    /// phases. This is the one place that floor is decided.
    pub fn preset(self, phases: u32) -> Result<FlowBuilder, String> {
        let least = match self {
            Flow::T1 => 3,
            Flow::SinglePhase | Flow::Multiphase => 1,
        };
        if phases < least {
            return Err(format!(
                "flow '{}' needs at least {least} phase{}, got {phases}",
                self.token(),
                if least == 1 { "" } else { "s" }
            ));
        }
        Ok(match self {
            Flow::SinglePhase => FlowConfig::single_phase().to_builder(),
            Flow::Multiphase => FlowConfig::multiphase(phases).to_builder(),
            Flow::T1 => FlowConfig::t1(phases).to_builder(),
        })
    }
}

/// A checked `serve` request line: the subject to build and the flow to
/// run on it. Parsing builds nothing.
#[derive(Debug, Clone)]
pub struct Request<'a> {
    /// The `name[:width]` subject as written (it labels the job).
    pub subject: &'a str,
    /// The subject's registry name.
    pub name: &'a str,
    /// The subject's width (0 = the registry default).
    pub width: usize,
    /// The flow.
    pub flow: Flow,
    /// The flow's configuration, option tokens applied.
    pub config: FlowConfig,
}

/// Parses one `serve` request line,
/// `<benchmark>[:width] <1phi|nphi|t1> [phases] [option ...]`, left to
/// right; the phase count defaults to 4.
///
/// # Errors
///
/// A missing subject or flow, and the first field that
/// [`sfq_circuits::named::parse_subject`], [`Flow::parse`],
/// [`Flow::preset`] or [`apply_config_token`] rejects.
pub fn parse_request(line: &str) -> Result<Request<'_>, String> {
    let mut fields = line.split_whitespace();
    let subject = fields.next().ok_or("benchmark required")?;
    let (name, width) = sfq_circuits::named::parse_subject(subject)?;
    let flow = fields
        .next()
        .ok_or_else(|| format!("flow required (one of: {})", FLOW_TOKENS.join(", ")))?;
    let flow = Flow::parse(flow)?;
    let mut rest = fields.peekable();
    let phases = match rest.peek().and_then(|t| t.parse().ok()) {
        Some(n) => {
            rest.next();
            n
        }
        None => 4,
    };
    let mut builder = flow.preset(phases)?;
    for token in rest {
        builder = apply_config_token(builder, token)?;
    }
    Ok(Request {
        subject,
        name,
        width,
        flow,
        config: builder.build(),
    })
}

/// A minimization objective over [`FlowStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Mapped gate count.
    Gates,
    /// Pipeline depth in clock cycles.
    Depth,
    /// Path-balancing DFF count.
    Dffs,
    /// Total area including DFFs and splitters.
    Area,
}

/// Every objective, in the canonical (default) order.
pub const ALL_OBJECTIVES: [Objective; 4] = [
    Objective::Gates,
    Objective::Depth,
    Objective::Dffs,
    Objective::Area,
];

impl Objective {
    /// The spec spelling of this objective.
    pub fn token(self) -> &'static str {
        match self {
            Objective::Gates => "gates",
            Objective::Depth => "depth",
            Objective::Dffs => "dffs",
            Objective::Area => "area",
        }
    }

    /// Parses an `objectives` value.
    ///
    /// # Errors
    ///
    /// Unknown tokens list all of [`OBJECTIVE_TOKENS`].
    pub fn parse(token: &str) -> Result<Self, String> {
        match token {
            "gates" => Ok(Objective::Gates),
            "depth" => Ok(Objective::Depth),
            "dffs" => Ok(Objective::Dffs),
            "area" => Ok(Objective::Area),
            other => Err(format!(
                "unknown objective '{other}' (one of: {})",
                OBJECTIVE_TOKENS.join(", ")
            )),
        }
    }

    /// Extracts this objective's value from a result (minimize; depth is
    /// clamped at zero, exact for every real schedule).
    pub fn extract(self, stats: &FlowStats) -> u64 {
        match self {
            Objective::Gates => stats.gates as u64,
            Objective::Depth => stats.depth_cycles.max(0) as u64,
            Objective::Dffs => stats.dffs,
            Objective::Area => stats.area,
        }
    }
}

/// A parsed, validated sweep specification. Every axis is non-empty and
/// duplicate-free; the cross product of the axes is the sweep's point
/// grid (see [`expand`](crate::sweep::expand)).
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Sweep name (names the default report file); `"sweep"` by default.
    pub name: String,
    /// `name[:width]` benchmark subjects, resolved through
    /// [`sfq_circuits::named`].
    pub benchmarks: Vec<String>,
    /// Flows axis (default: `t1`).
    pub flows: Vec<Flow>,
    /// Phase counts axis (default: `4`).
    pub phases: Vec<u32>,
    /// Optimization-pipeline axis (default: `none`).
    pub opts: Vec<&'static str>,
    /// Timing-analysis axis (default: off).
    pub timing: Vec<bool>,
    /// Cell-library variant axis (default: `default`).
    pub libraries: Vec<&'static str>,
    /// Objectives of the Pareto analysis (default: all four).
    pub objectives: Vec<Objective>,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            name: "sweep".into(),
            benchmarks: Vec::new(),
            flows: vec![Flow::T1],
            phases: vec![4],
            opts: vec!["none"],
            timing: vec![false],
            libraries: vec!["default"],
            objectives: ALL_OBJECTIVES.to_vec(),
        }
    }
}

/// Canonicalizes `token` to its `&'static str` spelling in `table`.
fn canon(key: &str, token: &str, table: &'static [&'static str]) -> Result<&'static str, String> {
    table.iter().find(|t| **t == token).copied().ok_or_else(|| {
        format!(
            "unknown {key} value '{token}' (one of: {})",
            table.join(", ")
        )
    })
}

/// Rejects duplicate values within one axis.
fn reject_duplicate<T: PartialEq>(
    key: &str,
    token: &str,
    seen: &[T],
    value: &T,
) -> Result<(), String> {
    if seen.contains(value) {
        return Err(format!("duplicate {key} value '{token}'"));
    }
    Ok(())
}

/// Parses a sweep spec.
///
/// # Errors
///
/// Unknown keys, unknown values, duplicate keys, duplicate axis values,
/// a missing `benchmarks` line, and the `t1` flow crossed with fewer
/// than 3 phases are all hard errors; every message lists the legal
/// alternatives (or names the contradicting combination).
pub fn parse(text: &str) -> Result<SweepSpec, String> {
    let mut spec = SweepSpec::default();
    let mut seen_keys: Vec<String> = Vec::new();
    let mut have_benchmarks = false;

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let key = tokens.next().expect("non-empty line has a first token");
        let values: Vec<&str> = tokens.collect();
        let at = |msg: String| format!("sweep spec line {}: {msg}", lineno + 1);

        if !SPEC_KEYS.contains(&key) {
            return Err(at(format!(
                "unknown key '{key}' (one of: {})",
                SPEC_KEYS.join(", ")
            )));
        }
        if seen_keys.iter().any(|k| k == key) {
            return Err(at(format!("duplicate key '{key}'")));
        }
        seen_keys.push(key.to_string());
        if values.is_empty() {
            return Err(at(format!("key '{key}' needs at least one value")));
        }

        match key {
            "sweep" => {
                if values.len() != 1 {
                    return Err(at(format!(
                        "key 'sweep' takes exactly one name, got {}",
                        values.len()
                    )));
                }
                spec.name = values[0].to_string();
            }
            "benchmarks" => {
                let mut subjects = Vec::new();
                for subject in values {
                    sfq_circuits::named::parse_subject(subject).map_err(&at)?;
                    reject_duplicate("benchmarks", subject, &subjects, &subject.to_string())
                        .map_err(&at)?;
                    subjects.push(subject.to_string());
                }
                spec.benchmarks = subjects;
                have_benchmarks = true;
            }
            "flows" => {
                let mut flows = Vec::new();
                for token in values {
                    let flow = Flow::parse(token).map_err(&at)?;
                    reject_duplicate("flows", token, &flows, &flow).map_err(&at)?;
                    flows.push(flow);
                }
                spec.flows = flows;
            }
            "phases" => {
                let mut phases = Vec::new();
                for token in values {
                    let n: u32 = token.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        at(format!(
                            "bad phases value '{token}' (need a positive integer)"
                        ))
                    })?;
                    reject_duplicate("phases", token, &phases, &n).map_err(&at)?;
                    phases.push(n);
                }
                spec.phases = phases;
            }
            "opt" => {
                let mut opts = Vec::new();
                for token in values {
                    let opt = canon("opt", token, &OPT_TOKENS).map_err(&at)?;
                    reject_duplicate("opt", token, &opts, &opt).map_err(&at)?;
                    opts.push(opt);
                }
                spec.opts = opts;
            }
            "timing" => {
                let mut timing = Vec::new();
                for token in values {
                    let on = canon("timing", token, &TIMING_TOKENS).map_err(&at)? == "on";
                    reject_duplicate("timing", token, &timing, &on).map_err(&at)?;
                    timing.push(on);
                }
                spec.timing = timing;
            }
            "library" => {
                let mut libraries = Vec::new();
                for token in values {
                    let lib = canon("library", token, &LIBRARY_VARIANTS).map_err(&at)?;
                    reject_duplicate("library", token, &libraries, &lib).map_err(&at)?;
                    libraries.push(lib);
                }
                spec.libraries = libraries;
            }
            "objectives" => {
                let mut objectives = Vec::new();
                for token in values {
                    let obj = Objective::parse(token).map_err(&at)?;
                    reject_duplicate("objectives", token, &objectives, &obj).map_err(&at)?;
                    objectives.push(obj);
                }
                spec.objectives = objectives;
            }
            _ => unreachable!("key validated against SPEC_KEYS above"),
        }
    }

    if !have_benchmarks {
        return Err("sweep spec has no 'benchmarks' line (it is the one required key)".into());
    }
    for &flow in &spec.flows {
        for &phases in &spec.phases {
            flow.preset(phases).map_err(|e| {
                format!(
                    "{e} on the phases axis (drop '{}' from 'flows' or raise 'phases')",
                    flow.token()
                )
            })?;
        }
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_fills_defaults() {
        let spec = parse("benchmarks adder:8\n").unwrap();
        assert_eq!(spec.name, "sweep");
        assert_eq!(spec.benchmarks, ["adder:8"]);
        assert_eq!(spec.flows, [Flow::T1]);
        assert_eq!(spec.phases, [4]);
        assert_eq!(spec.opts, ["none"]);
        assert_eq!(spec.timing, [false]);
        assert_eq!(spec.libraries, ["default"]);
        assert_eq!(spec.objectives.len(), 4);
    }

    #[test]
    fn full_spec_round_trips_every_axis() {
        let spec = parse(
            "# comment\n\
             sweep demo\n\
             benchmarks adder:8 c6288  # trailing comment\n\
             flows 1phi nphi t1\n\
             phases 3 4 6\n\
             opt none pre-opt slack-opt dff-opt\n\
             timing off on\n\
             library default cheap-dff costly-dff\n\
             objectives area depth\n",
        )
        .unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.benchmarks, ["adder:8", "c6288"]);
        assert_eq!(spec.flows.len(), 3);
        assert_eq!(spec.phases, [3, 4, 6]);
        assert_eq!(spec.opts.len(), 4);
        assert_eq!(spec.timing, [false, true]);
        assert_eq!(spec.libraries.len(), 3);
        assert_eq!(spec.objectives, [Objective::Area, Objective::Depth]);
    }

    #[test]
    fn unknown_keys_and_values_list_the_legal_ones() {
        let err = parse("benchmarks adder\nflavor mild\n").unwrap_err();
        assert!(err.contains("unknown key 'flavor'"), "{err}");
        for key in SPEC_KEYS {
            assert!(err.contains(key), "error must list {key}: {err}");
        }
        let err = parse("benchmarks adder\nflows 2phi\n").unwrap_err();
        assert!(err.contains("unknown flow '2phi'"), "{err}");
        for token in FLOW_TOKENS {
            assert!(err.contains(token), "error must list {token}: {err}");
        }
        let err = parse("benchmarks adder\nopt fast\n").unwrap_err();
        for token in OPT_TOKENS {
            assert!(err.contains(token), "error must list {token}: {err}");
        }
        let err = parse("benchmarks adder\nlibrary exotic\n").unwrap_err();
        for token in LIBRARY_VARIANTS {
            assert!(err.contains(token), "error must list {token}: {err}");
        }
        let err = parse("benchmarks adder\nobjectives speed\n").unwrap_err();
        for token in OBJECTIVE_TOKENS {
            assert!(err.contains(token), "error must list {token}: {err}");
        }
        let err = parse("benchmarks nosuch\n").unwrap_err();
        assert!(err.contains("unknown benchmark 'nosuch'"), "{err}");
        assert!(err.contains("adder"), "{err}");
        // A width too large to build fails the parse, before any job runs.
        let err = parse("benchmarks adder:100000000\n").unwrap_err();
        assert!(err.contains("above its largest width"), "{err}");
        let err = parse("benchmarks voter:4\n").unwrap_err();
        assert!(err.contains("odd input count"), "{err}");
    }

    #[test]
    fn duplicates_and_contradictions_are_hard_errors() {
        assert!(parse("benchmarks adder\nphases 4 4\n")
            .unwrap_err()
            .contains("duplicate phases value '4'"));
        assert!(parse("benchmarks adder\nflows t1\nflows t1\n")
            .unwrap_err()
            .contains("duplicate key 'flows'"));
        assert!(parse("flows t1\n").unwrap_err().contains("benchmarks"));
        let err = parse("benchmarks adder\nflows t1\nphases 2 4\n").unwrap_err();
        assert!(err.contains("at least 3 phases"), "{err}");
        assert!(err.contains('2'), "{err}");
        // The same axis is fine without t1.
        assert!(parse("benchmarks adder\nflows nphi\nphases 2 4\n").is_ok());
    }

    #[test]
    fn config_tokens_cover_opt_axis_and_timing() {
        for token in OPT_TOKENS {
            assert!(CONFIG_TOKENS.contains(&token), "{token} must be shared");
            assert!(apply_config_token(FlowConfig::builder(4), token).is_ok());
        }
        let cfg = apply_config_token(FlowConfig::builder(4), "timing")
            .unwrap()
            .build();
        assert!(cfg.timing.enabled);
        let err = apply_config_token(FlowConfig::builder(4), "fast").unwrap_err();
        assert!(err.contains("unknown option 'fast'"), "{err}");
        for token in CONFIG_TOKENS {
            assert!(err.contains(token), "error must list {token}: {err}");
        }
    }

    #[test]
    fn library_variants_differ_in_fingerprint() {
        use std::hash::Hasher;
        fn digest(lib: &CellLibrary) -> u64 {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            lib.fingerprint(&mut h);
            h.finish()
        }
        let default = library_variant("default").unwrap();
        let cheap = library_variant("cheap-dff").unwrap();
        let costly = library_variant("costly-dff").unwrap();
        assert_eq!(digest(&default), digest(&CellLibrary::default()));
        assert_ne!(digest(&default), digest(&cheap));
        assert_ne!(digest(&cheap), digest(&costly));
        assert!(library_variant("exotic").is_err());
    }
}
