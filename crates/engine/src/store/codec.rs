//! Versioned, self-describing text codec for [`FlowResult`].
//!
//! The on-disk store needs a serialization that is (a) stable across
//! processes and platforms, (b) inspectable when something goes wrong, and
//! (c) dependency-free — so the format is hand-rolled line-oriented text:
//! a header naming the format and its version, one section per result
//! component with explicit element counts, and a trailing `end` marker
//! that catches truncated writes. Every count is written before the
//! elements it governs, so the decoder never guesses and never reads past
//! a section.
//!
//! [`decode`] is *total*: any input — corrupt, truncated, hostile — yields
//! either an equal [`FlowResult`] or a [`DecodeError`] with the offending
//! line, never a panic. In particular it pre-validates everything the
//! [`MappedCircuit`] builder asserts (topological order, port ranges, gate
//! arity, positive T1 operands), so rebuilding through the public builder
//! API cannot trip an assertion.
//!
//! [`FORMAT_VERSION`] participates in the [`DiskStore`](super::DiskStore)
//! directory layout (`<dir>/v<N>/`): bumping it on any format change
//! orphans old entries cleanly instead of misdecoding them.

use std::fmt;
use std::str::{FromStr, SplitWhitespace};
use t1map::dff::{Chain, Consumer, DffPlan, DriverPlan, Requirement};
use t1map::flow::{FlowResult, FlowStats};
use t1map::mapped::{CellId, Edge, MappedCell, MappedCircuit};
use t1map::phase::Schedule;
use t1map::timing::TimingSummary;

use sfq_netlist::truth_table::TruthTable;
use sfq_opt::{OptReport, PassKind, PassStats};

/// Version of the serialization format. Participates in the on-disk
/// directory layout, so bumping it invalidates every persisted entry at
/// once. Bump on **any** change to [`encode`]'s output.
pub const FORMAT_VERSION: u32 = 2;

/// Header line opening every encoded result.
const HEADER: &str = "sfq-flow-result";

/// Why a byte stream failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// 1-based line number of the offending line (0 = unexpected EOF).
    pub line: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "unexpected end of input: {}", self.reason)
        } else {
            write!(f, "line {}: {}", self.line, self.reason)
        }
    }
}

impl std::error::Error for DecodeError {}

/// Serializes `result` into the versioned text format.
pub fn encode(result: &FlowResult) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let w = &mut s;
    writeln!(w, "{HEADER} v{FORMAT_VERSION}").unwrap();
    let st = &result.stats;
    writeln!(
        w,
        "stats {} {} {} {} {} {} {} {}",
        st.t1_found,
        st.t1_used,
        st.dffs,
        st.splitters,
        st.cell_area,
        st.area,
        st.depth_cycles,
        st.gates
    )
    .unwrap();

    let mc = &result.mapped;
    writeln!(w, "cells {}", mc.len()).unwrap();
    for (_, cell) in mc.cells() {
        match cell {
            MappedCell::Input { index } => writeln!(w, "i {index}").unwrap(),
            MappedCell::Const0 => writeln!(w, "k").unwrap(),
            MappedCell::Gate { tt, fanins } => {
                write!(w, "g {} {:x}", tt.num_vars(), tt.bits()).unwrap();
                for e in fanins {
                    write!(w, " {} {} {}", e.cell.0, e.port, e.invert as u8).unwrap();
                }
                writeln!(w).unwrap();
            }
            MappedCell::T1 { fanins } => {
                write!(w, "t").unwrap();
                for e in fanins {
                    write!(w, " {} {} {}", e.cell.0, e.port, e.invert as u8).unwrap();
                }
                writeln!(w).unwrap();
            }
        }
    }
    writeln!(w, "pos {}", mc.pos().len()).unwrap();
    for e in mc.pos() {
        writeln!(w, "p {} {} {}", e.cell.0, e.port, e.invert as u8).unwrap();
    }

    let sched = &result.schedule;
    writeln!(
        w,
        "sched {} {} {}",
        sched.n,
        sched.horizon,
        sched.stages.len()
    )
    .unwrap();
    write!(w, "stages").unwrap();
    for s in &sched.stages {
        write!(w, " {s}").unwrap();
    }
    writeln!(w).unwrap();
    let offsets: Vec<(usize, [i64; 3])> = sched
        .t1_offsets
        .iter()
        .enumerate()
        .filter_map(|(i, o)| o.map(|o| (i, o)))
        .collect();
    writeln!(w, "t1off {} {}", sched.t1_offsets.len(), offsets.len()).unwrap();
    for (i, o) in offsets {
        writeln!(w, "o {} {} {} {}", i, o[0], o[1], o[2]).unwrap();
    }

    let plan = &result.plan;
    writeln!(
        w,
        "plan {} {} {}",
        plan.drivers.len(),
        plan.total_dffs,
        plan.total_splitters
    )
    .unwrap();
    for d in &plan.drivers {
        writeln!(
            w,
            "d {} {} {} {} {}",
            d.source.0 .0,
            d.source.1,
            d.source_stage,
            d.chain.members.len(),
            d.consumers.len()
        )
        .unwrap();
        write!(w, "m").unwrap();
        for m in &d.chain.members {
            write!(w, " {m}").unwrap();
        }
        writeln!(w).unwrap();
        write!(w, "a").unwrap();
        for t in &d.chain.taps {
            write!(w, " {t}").unwrap();
        }
        writeln!(w).unwrap();
        for (consumer, req) in &d.consumers {
            match consumer {
                Consumer::GateInput { cell, slot } => write!(w, "c g {} {}", cell.0, slot),
                Consumer::T1Input { cell, slot } => write!(w, "c t {} {}", cell.0, slot),
                Consumer::Output { index } => write!(w, "c o {index} 0"),
            }
            .unwrap();
            match req {
                Requirement::Window(t) => writeln!(w, " w {t}"),
                Requirement::Exact(tau) => writeln!(w, " e {tau}"),
            }
            .unwrap();
        }
    }

    match &result.pre_opt {
        None => writeln!(w, "preopt 0").unwrap(),
        Some(report) => {
            writeln!(w, "preopt 1").unwrap();
            writeln!(
                w,
                "r {} {} {} {} {} {}",
                report.rounds.len(),
                report.converged as u8,
                report.nodes_before,
                report.nodes_after,
                report.depth_before,
                report.depth_after
            )
            .unwrap();
            for round in &report.rounds {
                writeln!(w, "q {}", round.len()).unwrap();
                for p in round {
                    writeln!(
                        w,
                        "s {} {} {} {} {} {} {}",
                        p.pass,
                        p.nodes_before,
                        p.nodes_after,
                        p.depth_before,
                        p.depth_after,
                        p.applied,
                        p.micros
                    )
                    .unwrap();
                }
            }
        }
    }

    match &result.timing {
        None => writeln!(w, "timing 0").unwrap(),
        Some(t) => {
            writeln!(w, "timing 1").unwrap();
            writeln!(
                w,
                "y {} {} {} {} {} {} {} {}",
                t.horizon,
                t.phases,
                t.scheduled_cells,
                t.zero_slack_cells,
                t.worst_slack,
                t.total_slack,
                t.edge_dffs,
                t.chained_dffs
            )
            .unwrap();
        }
    }
    writeln!(w, "end").unwrap();
    s
}

/// Line cursor with 1-based positions for error reporting.
struct Lines<'a> {
    inner: std::str::Lines<'a>,
    pos: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Lines {
            inner: text.lines(),
            pos: 0,
        }
    }

    /// Next line, as a tagged field cursor; EOF is a decode error.
    fn next(&mut self, expect: &str) -> Result<Fields<'a>, DecodeError> {
        match self.inner.next() {
            Some(line) => {
                self.pos += 1;
                Fields::new(self.pos, line, expect)
            }
            None => Err(DecodeError {
                line: 0,
                reason: format!("missing '{expect}' section"),
            }),
        }
    }
}

/// Whitespace-separated fields of one line, consumed left to right.
struct Fields<'a> {
    line: usize,
    it: SplitWhitespace<'a>,
}

impl<'a> Fields<'a> {
    /// Splits `line`, requiring its first token to equal `tag`.
    fn new(pos: usize, line: &'a str, tag: &str) -> Result<Self, DecodeError> {
        let mut it = line.split_whitespace();
        match it.next() {
            Some(t) if t == tag => Ok(Fields { line: pos, it }),
            other => Err(DecodeError {
                line: pos,
                reason: format!("expected '{tag}', found '{}'", other.unwrap_or("")),
            }),
        }
    }

    fn fail(&self, reason: impl Into<String>) -> DecodeError {
        DecodeError {
            line: self.line,
            reason: reason.into(),
        }
    }

    fn str(&mut self) -> Result<&'a str, DecodeError> {
        self.it
            .next()
            .ok_or_else(|| self.fail("missing field".to_string()))
    }

    fn num<T: FromStr>(&mut self) -> Result<T, DecodeError> {
        let tok = self.str()?;
        tok.parse()
            .map_err(|_| self.fail(format!("malformed number '{tok}'")))
    }

    fn hex_u64(&mut self) -> Result<u64, DecodeError> {
        let tok = self.str()?;
        u64::from_str_radix(tok, 16).map_err(|_| self.fail(format!("malformed hex '{tok}'")))
    }

    fn bool01(&mut self) -> Result<bool, DecodeError> {
        match self.str()? {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(self.fail(format!("expected 0 or 1, found '{other}'"))),
        }
    }

    /// Parses a count field, bounded by [`MAX_COUNT`] so a corrupt count
    /// cannot make the decoder attempt a huge allocation before the
    /// (inevitable) parse error surfaces.
    fn count(&mut self, what: &str) -> Result<usize, DecodeError> {
        let n: usize = self.num()?;
        if n > MAX_COUNT {
            return Err(self.fail(format!("implausible {what} count {n}")));
        }
        Ok(n)
    }

    /// Requires the line to be fully consumed.
    fn done(mut self) -> Result<(), DecodeError> {
        match self.it.next() {
            None => Ok(()),
            Some(extra) => Err(self.fail(format!("trailing field '{extra}'"))),
        }
    }
}

/// Reads one `(cell, port, invert)` edge triple, validated against the
/// cells decoded so far (`ports[c]` = output-port count of cell `c`).
fn read_edge(f: &mut Fields<'_>, ports: &[u8]) -> Result<Edge, DecodeError> {
    let cell: u32 = f.num()?;
    let port: u8 = f.num()?;
    let invert = f.bool01()?;
    let nports = *ports
        .get(cell as usize)
        .ok_or_else(|| f.fail(format!("edge references cell {cell} before creation")))?;
    if port >= nports {
        return Err(f.fail(format!("port {port} out of range for cell {cell}")));
    }
    Ok(Edge {
        cell: CellId(cell),
        port,
        invert,
    })
}

/// Cap on declared element counts (see [`Fields::count`]).
const MAX_COUNT: usize = 1 << 28;

/// Deserializes a [`FlowResult`] previously produced by [`encode`].
///
/// # Errors
///
/// Any malformed, truncated or version-mismatched input yields a
/// [`DecodeError`] naming the offending line; the store layers treat every
/// such error as a cache miss.
pub fn decode(text: &str) -> Result<FlowResult, DecodeError> {
    let mut lines = Lines::new(text);

    let mut f = lines.next(HEADER)?;
    let version = f.str()?;
    if version != format!("v{FORMAT_VERSION}") {
        return Err(f.fail(format!(
            "format version mismatch: found '{version}', expected 'v{FORMAT_VERSION}'"
        )));
    }
    f.done()?;

    let mut f = lines.next("stats")?;
    let stats = FlowStats {
        t1_found: f.num()?,
        t1_used: f.num()?,
        dffs: f.num()?,
        splitters: f.num()?,
        cell_area: f.num()?,
        area: f.num()?,
        depth_cycles: f.num()?,
        gates: f.num()?,
    };
    f.done()?;

    // Mapped netlist: rebuild through the public builder, pre-validating
    // everything the builder asserts.
    let mut f = lines.next("cells")?;
    let ncells = f.count("cell")?;
    f.done()?;
    let mut mapped = MappedCircuit::new();
    let mut ports: Vec<u8> = Vec::with_capacity(ncells);
    for _ in 0..ncells {
        let raw = match lines.inner.next() {
            Some(l) => l,
            None => {
                return Err(DecodeError {
                    line: 0,
                    reason: "missing cell line".into(),
                })
            }
        };
        lines.pos += 1;
        let mut it = raw.split_whitespace();
        let tag = it.next().unwrap_or("");
        let mut f = Fields {
            line: lines.pos,
            it,
        };
        match tag {
            "i" => {
                let index: u32 = f.num()?;
                if index as usize != mapped.num_inputs() {
                    return Err(f.fail(format!(
                        "input index {index} out of sequence (expected {})",
                        mapped.num_inputs()
                    )));
                }
                mapped.add_input();
                ports.push(1);
            }
            "k" => {
                mapped.add_const0();
                ports.push(1);
            }
            "g" => {
                let nvars: usize = f.num()?;
                if nvars > TruthTable::MAX_VARS {
                    return Err(f.fail(format!("gate arity {nvars} exceeds 6")));
                }
                let bits = f.hex_u64()?;
                let tt = TruthTable::from_bits(nvars, bits);
                let mut fanins = Vec::with_capacity(nvars);
                for _ in 0..nvars {
                    fanins.push(read_edge(&mut f, &ports)?);
                }
                mapped.add_gate(tt, fanins);
                ports.push(1);
            }
            "t" => {
                let mut fanins = [Edge::plain(CellId(0)); 3];
                for slot in &mut fanins {
                    let e = read_edge(&mut f, &ports)?;
                    if e.invert {
                        return Err(f.fail("inverted T1 operand".to_string()));
                    }
                    *slot = e;
                }
                mapped.add_t1(fanins);
                ports.push(3);
            }
            other => return Err(f.fail(format!("unknown cell tag '{other}'"))),
        }
        f.done()?;
    }
    let mut f = lines.next("pos")?;
    let npos = f.count("output")?;
    f.done()?;
    for _ in 0..npos {
        let mut f = lines.next("p")?;
        let e = read_edge(&mut f, &ports)?;
        mapped.add_po(e);
        f.done()?;
    }

    // Schedule.
    let mut f = lines.next("sched")?;
    let n: u32 = f.num()?;
    let horizon: i64 = f.num()?;
    let nstages = f.count("stage")?;
    f.done()?;
    let mut f = lines.next("stages")?;
    let mut stages = Vec::with_capacity(nstages);
    for _ in 0..nstages {
        stages.push(f.num::<i64>()?);
    }
    f.done()?;
    let mut f = lines.next("t1off")?;
    let noff_slots = f.count("offset-slot")?;
    let noff = f.count("offset")?;
    f.done()?;
    let mut t1_offsets: Vec<Option<[i64; 3]>> = vec![None; noff_slots];
    for _ in 0..noff {
        let mut f = lines.next("o")?;
        let idx: usize = f.num()?;
        let o = [f.num()?, f.num()?, f.num()?];
        f.done()?;
        match t1_offsets.get_mut(idx) {
            Some(slot) => *slot = Some(o),
            None => {
                return Err(DecodeError {
                    line: lines.pos,
                    reason: format!("T1 offset index {idx} out of range"),
                })
            }
        }
    }
    let schedule = Schedule {
        n,
        stages,
        horizon,
        t1_offsets,
    };

    // DFF plan.
    let mut f = lines.next("plan")?;
    let ndrivers = f.count("driver")?;
    let total_dffs: u64 = f.num()?;
    let total_splitters: u64 = f.num()?;
    f.done()?;
    let mut drivers = Vec::with_capacity(ndrivers);
    for _ in 0..ndrivers {
        let mut f = lines.next("d")?;
        let cell: u32 = f.num()?;
        let port: u8 = f.num()?;
        let source_stage: i64 = f.num()?;
        let nmembers = f.count("chain-member")?;
        let ncons = f.count("consumer")?;
        f.done()?;
        let mut f = lines.next("m")?;
        let mut members = Vec::with_capacity(nmembers);
        for _ in 0..nmembers {
            members.push(f.num::<i64>()?);
        }
        f.done()?;
        let mut f = lines.next("a")?;
        let mut taps = Vec::with_capacity(ncons);
        for _ in 0..ncons {
            taps.push(f.num::<i64>()?);
        }
        f.done()?;
        let mut consumers = Vec::with_capacity(ncons);
        for _ in 0..ncons {
            let mut f = lines.next("c")?;
            let kind = f.str()?;
            let a: usize = f.num()?;
            let b: usize = f.num()?;
            let consumer = match kind {
                "g" => Consumer::GateInput {
                    cell: CellId(a as u32),
                    slot: b,
                },
                "t" => Consumer::T1Input {
                    cell: CellId(a as u32),
                    slot: b,
                },
                "o" => Consumer::Output { index: a },
                other => return Err(f.fail(format!("unknown consumer kind '{other}'"))),
            };
            let req = match f.str()? {
                "w" => Requirement::Window(f.num()?),
                "e" => Requirement::Exact(f.num()?),
                other => return Err(f.fail(format!("unknown requirement kind '{other}'"))),
            };
            f.done()?;
            consumers.push((consumer, req));
        }
        drivers.push(DriverPlan {
            source: (CellId(cell), port),
            source_stage,
            chain: Chain { members, taps },
            consumers,
        });
    }
    let plan = DffPlan {
        drivers,
        total_dffs,
        total_splitters,
    };

    // Optional pre-mapping optimization report.
    let mut f = lines.next("preopt")?;
    let has_preopt = f.bool01()?;
    f.done()?;
    let pre_opt = if has_preopt {
        let mut f = lines.next("r")?;
        let nrounds = f.count("round")?;
        let converged = f.bool01()?;
        let nodes_before: usize = f.num()?;
        let nodes_after: usize = f.num()?;
        let depth_before: u32 = f.num()?;
        let depth_after: u32 = f.num()?;
        f.done()?;
        let mut rounds = Vec::with_capacity(nrounds);
        for _ in 0..nrounds {
            let mut f = lines.next("q")?;
            let npasses = f.count("pass")?;
            f.done()?;
            let mut round = Vec::with_capacity(npasses);
            for _ in 0..npasses {
                let mut f = lines.next("s")?;
                let name = f.str()?;
                // `PassStats::pass` is `&'static str`: re-intern the decoded
                // name against the known pass vocabulary. A name outside it
                // means the entry came from an incompatible build — a miss.
                let pass = PassKind::KNOWN
                    .iter()
                    .map(|p| p.name())
                    .find(|n| *n == name)
                    .ok_or_else(|| f.fail(format!("unknown pass name '{name}'")))?;
                round.push(PassStats {
                    pass,
                    nodes_before: f.num()?,
                    nodes_after: f.num()?,
                    depth_before: f.num()?,
                    depth_after: f.num()?,
                    applied: f.num()?,
                    micros: f.num()?,
                });
                f.done()?;
            }
            rounds.push(round);
        }
        Some(OptReport {
            rounds,
            converged,
            nodes_before,
            nodes_after,
            depth_before,
            depth_after,
        })
    } else {
        None
    };

    // Optional timing summary.
    let mut f = lines.next("timing")?;
    let has_timing = f.bool01()?;
    f.done()?;
    let timing = if has_timing {
        let mut f = lines.next("y")?;
        let t = TimingSummary {
            horizon: f.num()?,
            phases: f.num()?,
            scheduled_cells: f.num()?,
            zero_slack_cells: f.num()?,
            worst_slack: f.num()?,
            total_slack: f.num()?,
            edge_dffs: f.num()?,
            chained_dffs: f.num()?,
        };
        f.done()?;
        Some(t)
    } else {
        None
    };

    // Truncation guard: a partially written file is missing this marker.
    lines.next("end")?.done()?;

    Ok(FlowResult {
        mapped,
        schedule,
        plan,
        stats,
        pre_opt,
        timing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_circuits::epfl::adder;
    use t1map::cells::CellLibrary;
    use t1map::flow::{run_flow, FlowConfig};

    #[test]
    fn real_flow_results_round_trip() {
        let lib = CellLibrary::default();
        let aig = adder(6);
        for cfg in [
            FlowConfig::single_phase(),
            FlowConfig::multiphase(4),
            FlowConfig::t1(4),
            FlowConfig::t1(4).to_builder().standard_opt().build(),
            FlowConfig::t1(4).to_builder().timing(true).build(),
            FlowConfig::t1(4)
                .to_builder()
                .slack_opt()
                .timing(true)
                .build(),
        ] {
            let result = run_flow(&aig, &lib, &cfg);
            let text = encode(&result);
            let back = decode(&text).expect("decodes");
            assert_eq!(result, back, "round trip under {cfg:?}");
        }
    }

    #[test]
    fn version_mismatch_is_an_error() {
        let result = run_flow(
            &adder(2),
            &CellLibrary::default(),
            &FlowConfig::single_phase(),
        );
        let text = encode(&result).replace(&format!("v{FORMAT_VERSION}"), "v999");
        let err = decode(&text).expect_err("wrong version rejected");
        assert!(err.reason.contains("version"), "{err}");
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let result = run_flow(&adder(3), &CellLibrary::default(), &FlowConfig::t1(4));
        let text = encode(&result);
        // Every prefix must fail cleanly (the full text must not).
        for cut in 0..text.len().saturating_sub(1) {
            if let Ok(val) = decode(&text[..cut]) {
                panic!("prefix of {cut} bytes decoded to {:?}", val.stats);
            }
        }
        assert!(decode(&text).is_ok());
    }

    #[test]
    fn hostile_edges_are_rejected_before_the_builder_panics() {
        let bad = |body: &str| format!("{HEADER} v{FORMAT_VERSION}\nstats 0 0 0 0 0 0 0 0\n{body}");
        // Forward reference.
        assert!(decode(&bad("cells 1\ng 1 2 5 0 0\n")).is_err());
        // Port out of range on a non-T1 producer.
        assert!(decode(&bad("cells 2\ni 0\ng 1 2 0 2 0\n")).is_err());
        // Inverted T1 operand.
        assert!(decode(&bad("cells 4\ni 0\ni 1\ni 2\nt 0 0 1 1 0 0 2 0 0\n")).is_err());
        // Absurd count field must not allocate.
        assert!(decode(&bad("cells 99999999999\n")).is_err());
    }
}
