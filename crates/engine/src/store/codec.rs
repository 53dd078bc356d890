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
//! An entry stores the mapped netlist, its schedule and the reports. The
//! DFF plan is not stored: it is a deterministic function of the netlist
//! and the schedule ([`insert_dffs`]), so [`decode`] derives it again.
//!
//! # Canonical grammar
//!
//! Each line is a tag followed by zero or more fields, each field preceded
//! by exactly one space, and the line ends in one `\n` (no `\r`, no
//! trailing space). Numbers are decimal without sign or leading zeros
//! (`0` itself excepted); signed fields add a leading `-` to a non-zero
//! magnitude. A truth table is lower-case hex of its `2^vars` rows, again
//! without leading zeros. Flags are `0` or `1`.
//!
//! ```text
//! sfq-flow-result v3
//! stats <t1_found> <t1_used> <dffs> <splitters> <cell_area> <area> <depth_cycles> <gates>
//! cells <N>                      then N cell lines, in id order:
//!   i <index>                      primary input
//!   k                              constant 0
//!   g <vars> <hex> {<cell> <port> <invert>}×vars
//!   t {<cell> <port> 0}×3          T1 cell
//! pos <P>                        then P lines `p <cell> <port> <invert>`
//! sched <n> <horizon> <N>
//! stages {<stage>}×N
//! t1off <N> <K>                  then K lines `o <cell> <o0> <o1> <o2>`, cells ascending
//! preopt 0 | preopt 1            then, when 1:
//!   r <R> <converged> <nodes_before> <nodes_after> <depth_before> <depth_after>
//!   q <S>                          R times, each then S lines:
//!   s <pass> <nodes_before> <nodes_after> <depth_before> <depth_after> <applied> <micros>
//! timing 0 | timing 1            then, when 1:
//!   y <horizon> <phases> <scheduled> <zero_slack> <worst> <total> <edge_dffs> <chained_dffs>
//! end
//! ```
//!
//! [`encode`] appends this text straight into one pre-sized byte buffer;
//! [`decode`] reads it back in a single pass of one byte cursor, parsing
//! each number in the scan that finds it, then derives the plan. It sizes
//! the cell vector from the `cells` count and parses each gate's fanins
//! into a stack array, which the netlist stores inline, so a decoded entry
//! allocates a fixed number of vectors: never one per gate or per driver.
//!
//! [`decode`] is *total*: any input — corrupt, truncated, hostile — yields
//! either an equal [`FlowResult`] or a [`DecodeError`] with the offending
//! line, never a panic. It accepts exactly the canonical text: anything
//! [`encode`] would not have written (extra whitespace, `\r\n` line ends,
//! leading zeros, bytes after `end`) is an error, which the store counts
//! as a miss. It pre-validates everything the [`MappedCircuit`] builder
//! asserts (topological order, port ranges, gate arity, positive T1
//! operands), so rebuilding through the public builder API cannot trip an
//! assertion. Before deriving the plan it checks the schedule
//! ([`Schedule::validate`], at least one phase, non-negative stages, a
//! horizon below `i64::MAX`) and bounds the chain work the derivation
//! would do; an entry whose derived DFF or splitter total differs from its
//! `stats` line is an error too.
//!
//! Nothing is allocated beyond what the entry's length allows: the
//! per-cell arrays (`stages`, `t1off`) must match the cell count, every
//! other count is checked against the bytes left in the entry, and the
//! derivation runs only when its chain members stay within
//! `WORK_PER_BYTE` per byte of the entry.
//!
//! [`FORMAT_VERSION`] participates in the [`DiskStore`](super::DiskStore)
//! directory layout (`<dir>/v<N>/`): bumping it on any format change
//! orphans old entries cleanly instead of misdecoding them.

use std::fmt;
use t1map::dff::insert_dffs;
use t1map::flow::{FlowResult, FlowStats};
use t1map::mapped::{CellId, Edge, MappedCell, MappedCircuit};
use t1map::phase::Schedule;
use t1map::timing::TimingSummary;

use sfq_netlist::truth_table::TruthTable;
use sfq_opt::{OptReport, PassKind, PassStats};

#[cfg(test)]
mod oracle;
#[cfg(test)]
#[path = "../../tests/synthetic/mod.rs"]
mod synthetic;

/// Version of the serialization format. Participates in the on-disk
/// directory layout, so bumping it invalidates every persisted entry at
/// once. Bump on **any** change to [`encode`]'s output.
pub const FORMAT_VERSION: u32 = 3;

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

/// Append-only writer of canonical lines: a tag, then space-prefixed
/// fields, then `\n`.
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Starts a line with `tag`.
    fn tag(&mut self, tag: &str) -> &mut Self {
        self.buf.extend_from_slice(tag.as_bytes());
        self
    }

    /// Appends the decimal digits of `v`.
    fn digits(&mut self, mut v: u64) {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.buf.extend_from_slice(&digits[i..]);
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.push(b' ');
        self.digits(v);
        self
    }

    fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    fn i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(if v < 0 { b" -" } else { b" " });
        self.digits(v.unsigned_abs());
        self
    }

    fn hex(&mut self, v: u64) -> &mut Self {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let nibbles = (64 - (v | 1).leading_zeros()).div_ceil(4);
        self.buf.push(b' ');
        for k in (0..nibbles).rev() {
            self.buf.push(HEX[(v >> (4 * k)) as usize & 15]);
        }
        self
    }

    fn word(&mut self, w: &str) -> &mut Self {
        self.buf.push(b' ');
        self.buf.extend_from_slice(w.as_bytes());
        self
    }

    fn flag(&mut self, b: bool) -> &mut Self {
        self.buf.extend_from_slice(if b { b" 1" } else { b" 0" });
        self
    }

    fn edge(&mut self, e: &Edge) -> &mut Self {
        self.u64(e.cell.0.into()).u64(e.port.into()).flag(e.invert)
    }

    fn i64s(&mut self, vs: &[i64]) -> &mut Self {
        for &v in vs {
            self.i64(v);
        }
        self
    }

    /// Ends the current line.
    fn end(&mut self) {
        self.buf.push(b'\n');
    }
}

/// A capacity estimate for [`encode`]'s buffer, from the element counts:
/// generous for typical results, so the buffer rarely grows.
fn encoded_size_hint(result: &FlowResult) -> usize {
    let passes: usize = result.pre_opt.as_ref().map_or(0, |r| {
        r.rounds.iter().map(|round| 8 + 48 * round.len()).sum()
    });
    256 + 40 * result.mapped.len() + 16 * result.mapped.pos().len() + passes
}

/// Serializes `result` into the versioned text format.
pub fn encode(result: &FlowResult) -> String {
    let mut w = Writer {
        buf: Vec::with_capacity(encoded_size_hint(result)),
    };
    w.tag(HEADER).word(&format!("v{FORMAT_VERSION}")).end();
    let st = &result.stats;
    w.tag("stats")
        .usize(st.t1_found)
        .usize(st.t1_used)
        .u64(st.dffs)
        .u64(st.splitters)
        .u64(st.cell_area)
        .u64(st.area)
        .i64(st.depth_cycles)
        .usize(st.gates)
        .end();

    let mc = &result.mapped;
    w.tag("cells").usize(mc.len()).end();
    for (_, cell) in mc.cells() {
        match cell {
            MappedCell::Input { index } => w.tag("i").u64((*index).into()),
            MappedCell::Const0 => w.tag("k"),
            MappedCell::Gate { tt, fanins } => {
                w.tag("g").usize(tt.num_vars()).hex(tt.bits());
                for e in fanins {
                    w.edge(e);
                }
                &mut w
            }
            MappedCell::T1 { fanins } => {
                w.tag("t");
                for e in fanins {
                    w.edge(e);
                }
                &mut w
            }
        }
        .end();
    }
    w.tag("pos").usize(mc.pos().len()).end();
    for e in mc.pos() {
        w.tag("p").edge(e).end();
    }

    let sched = &result.schedule;
    w.tag("sched")
        .u64(sched.n.into())
        .i64(sched.horizon)
        .usize(sched.stages.len())
        .end();
    w.tag("stages").i64s(&sched.stages).end();
    let offsets = sched.t1_offsets.iter().flatten().count();
    w.tag("t1off")
        .usize(sched.t1_offsets.len())
        .usize(offsets)
        .end();
    for (i, o) in sched.t1_offsets.iter().enumerate() {
        if let Some(o) = o {
            w.tag("o").usize(i).i64s(o).end();
        }
    }

    match &result.pre_opt {
        None => w.tag("preopt").flag(false).end(),
        Some(report) => {
            w.tag("preopt").flag(true).end();
            w.tag("r")
                .usize(report.rounds.len())
                .flag(report.converged)
                .usize(report.nodes_before)
                .usize(report.nodes_after)
                .u64(report.depth_before.into())
                .u64(report.depth_after.into())
                .end();
            for round in &report.rounds {
                w.tag("q").usize(round.len()).end();
                for p in round {
                    w.tag("s")
                        .word(p.pass)
                        .usize(p.nodes_before)
                        .usize(p.nodes_after)
                        .u64(p.depth_before.into())
                        .u64(p.depth_after.into())
                        .usize(p.applied)
                        .u64(p.micros)
                        .end();
                }
            }
        }
    }

    match &result.timing {
        None => w.tag("timing").flag(false).end(),
        Some(t) => {
            w.tag("timing").flag(true).end();
            w.tag("y")
                .i64(t.horizon)
                .u64(t.phases.into())
                .usize(t.scheduled_cells)
                .usize(t.zero_slack_cells)
                .i64(t.worst_slack)
                .i64(t.total_slack)
                .u64(t.edge_dffs)
                .u64(t.chained_dffs)
                .end();
        }
    }
    w.tag("end").end();
    String::from_utf8(w.buf).expect("every field is ASCII or a whole `str`")
}

/// Cap on declared element counts, whatever the entry's length.
const MAX_COUNT: u64 = 1 << 28;

/// Byte cursor over one entry, reading the canonical grammar left to
/// right: [`tag`](Cursor::tag) opens a line, each field reader consumes
/// one space and one field, [`eol`](Cursor::eol) closes the line.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// 1-based number of the line `pos` is on.
    line: usize,
}

impl<'a> Cursor<'a> {
    #[cold]
    fn fail(&self, reason: impl Into<String>) -> DecodeError {
        DecodeError {
            line: self.line,
            reason: reason.into(),
        }
    }

    #[cold]
    fn eof(&self, reason: impl Into<String>) -> DecodeError {
        DecodeError {
            line: 0,
            reason: reason.into(),
        }
    }

    /// The error for an unexpected byte (or the end of input) at `pos`.
    #[cold]
    fn unexpected(&self, what: &str) -> DecodeError {
        match self.peek() {
            Some(b) => self.fail(format!("expected {what}, found {:?}", b as char)),
            None => self.eof(format!("expected {what}")),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Opens a line, which must start with `tag`.
    fn tag(&mut self, tag: &str) -> Result<(), DecodeError> {
        if self.bytes[self.pos..].starts_with(tag.as_bytes()) {
            self.pos += tag.len();
            Ok(())
        } else if self.pos == self.bytes.len() {
            Err(self.eof(format!("missing '{tag}' section")))
        } else {
            Err(self.fail(format!("expected '{tag}'")))
        }
    }

    /// Closes a line.
    fn eol(&mut self) -> Result<(), DecodeError> {
        if self.peek() != Some(b'\n') {
            return Err(self.unexpected("end of line"));
        }
        self.pos += 1;
        self.line += 1;
        Ok(())
    }

    /// Consumes the space that opens a field.
    fn sep(&mut self) -> Result<(), DecodeError> {
        if self.peek() != Some(b' ') {
            return Err(self.unexpected("a field"));
        }
        self.pos += 1;
        Ok(())
    }

    /// Accepts `v`, read from the digits at `start..pos`, unless there are
    /// none or they have a leading zero.
    fn canonical(&self, start: usize, v: u64) -> Result<u64, DecodeError> {
        match self.pos - start {
            0 => Err(self.unexpected("a digit")),
            1 => Ok(v),
            _ if self.bytes[start] == b'0' => Err(self.fail("number with a leading zero")),
            _ => Ok(v),
        }
    }

    /// Decimal digits, parsed as they are scanned.
    fn magnitude(&mut self) -> Result<u64, DecodeError> {
        let start = self.pos;
        let mut v: u64 = 0;
        while let Some(&b) = self.bytes.get(self.pos) {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            v = match v.checked_mul(10).and_then(|v| v.checked_add(d.into())) {
                Some(v) => v,
                None => return Err(self.fail("number out of range")),
            };
            self.pos += 1;
        }
        self.canonical(start, v)
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        self.sep()?;
        self.magnitude()
    }

    /// An unsigned field that must fit `T`.
    fn num<T: TryFrom<u64>>(&mut self) -> Result<T, DecodeError> {
        let v = self.u64()?;
        T::try_from(v).map_err(|_| self.fail(format!("number {v} out of range")))
    }

    fn i64(&mut self) -> Result<i64, DecodeError> {
        self.sep()?;
        let negative = self.peek() == Some(b'-');
        self.pos += usize::from(negative);
        match (negative, self.magnitude()?) {
            (false, m) if m <= i64::MAX as u64 => Ok(m as i64),
            (true, 0) => Err(self.fail("negative zero")),
            (true, m) if m <= i64::MIN.unsigned_abs() => Ok((m as i64).wrapping_neg()),
            _ => Err(self.fail("number out of range")),
        }
    }

    fn i64s(&mut self, n: usize) -> Result<Vec<i64>, DecodeError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.i64()?);
        }
        Ok(out)
    }

    /// Lower-case hex digits, at most 16.
    fn hex(&mut self) -> Result<u64, DecodeError> {
        self.sep()?;
        let start = self.pos;
        let mut v: u64 = 0;
        while let Some(&b) = self.bytes.get(self.pos) {
            let d = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                _ => break,
            };
            if self.pos - start == 16 {
                return Err(self.fail("hex number out of range"));
            }
            v = v << 4 | u64::from(d);
            self.pos += 1;
        }
        self.canonical(start, v)
    }

    fn flag(&mut self) -> Result<bool, DecodeError> {
        self.sep()?;
        let v = match self.peek() {
            Some(b'0') => false,
            Some(b'1') => true,
            _ => return Err(self.unexpected("0 or 1")),
        };
        self.pos += 1;
        Ok(v)
    }

    /// A non-empty field of any bytes but space and newline.
    fn word(&mut self) -> Result<&'a [u8], DecodeError> {
        self.sep()?;
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b != b' ' && b != b'\n') {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.unexpected("a field"));
        }
        Ok(&self.bytes[start..self.pos])
    }

    /// The count of a section's elements. Every element takes at least
    /// two bytes, so a count the rest of the entry cannot hold fails here,
    /// before anything is allocated for it.
    fn count(&mut self, what: &str) -> Result<usize, DecodeError> {
        let n = self.u64()?;
        let room = (self.bytes.len() - self.pos) / 2;
        if n > MAX_COUNT || n > room as u64 {
            return Err(self.fail(format!("implausible {what} count {n}")));
        }
        Ok(n as usize)
    }

    /// A `(cell, port, invert)` edge, validated against the cells of `mc`
    /// built so far.
    fn edge(&mut self, mc: &MappedCircuit) -> Result<Edge, DecodeError> {
        let cell: u32 = self.num()?;
        let port: u8 = self.num()?;
        let invert = self.flag()?;
        if cell as usize >= mc.len() {
            return Err(self.fail(format!("edge references cell {cell} before creation")));
        }
        if usize::from(port) >= mc.num_ports(CellId(cell)) {
            return Err(self.fail(format!("port {port} out of range for cell {cell}")));
        }
        Ok(Edge {
            cell: CellId(cell),
            port,
            invert,
        })
    }
}

/// Chain members [`decode`] lets the plan derivation build per byte of
/// the entry, by [`chain_work`]'s bound. The paper's benchmarks need at
/// most ≈2.5 (the 128-bit adder under one phase). Ripple adders under one
/// phase need DFFs quadratic in their width, so a wide one can exceed any
/// fixed ratio: `adder:1024` under one phase needs ≈17.5 and still fits.
const WORK_PER_BYTE: u64 = 32;

/// Line number of the `stats` line, which follows the header.
const STATS_LINE: usize = 2;

/// Checks what [`insert_dffs`] relies on: at least one phase,
/// non-negative stages, a horizon whose capture stage `horizon + 1` fits
/// an `i64`, and [`Schedule::validate`] (every gate after its fanins,
/// every T1 with distinct offsets in `1..=n` and no operand later than its
/// slot). Then no requirement the derivation computes can overflow or
/// precede its driver.
fn check_schedule(mc: &MappedCircuit, sched: &Schedule) -> Result<(), String> {
    if sched.n == 0 {
        return Err("schedule with 0 phases".into());
    }
    if !(0..i64::MAX).contains(&sched.horizon) {
        return Err(format!("horizon {} out of range", sched.horizon));
    }
    if let Some(s) = sched.stages.iter().find(|&&s| s < 0) {
        return Err(format!("negative stage {s}"));
    }
    sched.validate(mc)
}

/// An upper bound on the chain members [`insert_dffs`] builds for a
/// schedule that passed [`check_schedule`]: Σ over the uses of a cell
/// output of `⌊gap/n⌋ + 1`, where the gap runs from the driver's stage to
/// the consumer's (a gate's stage, a T1 delivery slot, or the outputs'
/// capture at `horizon + 1`). A driver's chain spans its widest gap in
/// steps of at most `n` plus one forced member per exact delivery, so it
/// never needs more. Saturates instead of overflowing.
fn chain_work(mc: &MappedCircuit, sched: &Schedule) -> u64 {
    let n = u64::from(sched.n);
    let stage = |e: &Edge| sched.stages[e.cell.index()];
    // Checked schedules put every target at or after its driver.
    let cost = |source: i64, target: i64| (target - source) as u64 / n + 1;
    let mut work = 0u64;
    for (id, cell) in mc.cells() {
        let s = sched.stages[id.index()];
        match cell {
            MappedCell::Input { .. } | MappedCell::Const0 => {}
            MappedCell::Gate { fanins, .. } => {
                for e in fanins {
                    work = work.saturating_add(cost(stage(e), s));
                }
            }
            MappedCell::T1 { fanins } => {
                let offsets = sched.t1_offsets[id.index()].expect("a checked T1 has offsets");
                for (e, o) in fanins.iter().zip(offsets) {
                    work = work.saturating_add(cost(stage(e), s - o));
                }
            }
        }
    }
    for e in mc.pos() {
        if !matches!(mc.cell(e.cell), MappedCell::Const0) {
            work = work.saturating_add(cost(stage(e), sched.horizon + 1));
        }
    }
    work
}

/// Deserializes a [`FlowResult`] previously produced by [`encode`].
///
/// Takes raw bytes: the grammar is ASCII and every byte is checked, so a
/// byte outside it (UTF-8 or not) is an ordinary decode error.
///
/// # Errors
///
/// Any malformed, non-canonical, truncated or version-mismatched input
/// yields a [`DecodeError`] naming the offending line, and so does an
/// unsound schedule, one whose DFF chains the entry's length cannot
/// account for, or a `stats` line whose DFF or splitter total differs
/// from the derived plan's; the store layers treat every such error as a
/// cache miss.
pub fn decode(bytes: &[u8]) -> Result<FlowResult, DecodeError> {
    let mut c = Cursor {
        bytes,
        pos: 0,
        line: 1,
    };

    c.tag(HEADER)?;
    let version = c.word()?;
    if version != format!("v{FORMAT_VERSION}").as_bytes() {
        return Err(c.fail(format!(
            "format version mismatch: found '{}', expected 'v{FORMAT_VERSION}'",
            String::from_utf8_lossy(version)
        )));
    }
    c.eol()?;

    c.tag("stats")?;
    let stats = FlowStats {
        t1_found: c.num()?,
        t1_used: c.num()?,
        dffs: c.u64()?,
        splitters: c.u64()?,
        cell_area: c.u64()?,
        area: c.u64()?,
        depth_cycles: c.i64()?,
        gates: c.num()?,
    };
    c.eol()?;

    // Mapped netlist: rebuild through the public builder, pre-validating
    // everything the builder asserts.
    c.tag("cells")?;
    let ncells = c.count("cell")?;
    c.eol()?;
    let mut mapped = MappedCircuit::with_capacity(ncells);
    for _ in 0..ncells {
        let tag = c.peek().ok_or_else(|| c.eof("missing cell line"))?;
        c.pos += 1;
        match tag {
            b'i' => {
                let index: u32 = c.num()?;
                if index as usize != mapped.num_inputs() {
                    return Err(c.fail(format!(
                        "input index {index} out of sequence (expected {})",
                        mapped.num_inputs()
                    )));
                }
                mapped.add_input();
            }
            b'k' => {
                mapped.add_const0();
            }
            b'g' => {
                let nvars: usize = c.num()?;
                if nvars > TruthTable::MAX_VARS {
                    return Err(c.fail(format!("gate arity {nvars} exceeds 6")));
                }
                let bits = c.hex()?;
                let tt = TruthTable::from_bits(nvars, bits);
                if tt.bits() != bits {
                    return Err(c.fail(format!(
                        "truth table {bits:x} has bits beyond {nvars} variables"
                    )));
                }
                let mut fanins = [Edge::plain(CellId(0)); TruthTable::MAX_VARS];
                for slot in &mut fanins[..nvars] {
                    *slot = c.edge(&mapped)?;
                }
                mapped.add_gate(tt, &fanins[..nvars]);
            }
            b't' => {
                let mut fanins = [Edge::plain(CellId(0)); 3];
                for slot in &mut fanins {
                    *slot = c.edge(&mapped)?;
                    if slot.invert {
                        return Err(c.fail("inverted T1 operand"));
                    }
                }
                mapped.add_t1(fanins);
            }
            other => return Err(c.fail(format!("unknown cell tag {:?}", other as char))),
        }
        c.eol()?;
    }
    c.tag("pos")?;
    let npos = c.count("output")?;
    c.eol()?;
    for _ in 0..npos {
        c.tag("p")?;
        let e = c.edge(&mapped)?;
        c.eol()?;
        mapped.add_po(e);
    }

    // Schedule: stages and T1 offset slots are per-cell arrays.
    let sched_line = c.line;
    c.tag("sched")?;
    let n: u32 = c.num()?;
    let horizon = c.i64()?;
    let nstages: u64 = c.u64()?;
    if nstages != ncells as u64 {
        return Err(c.fail(format!(
            "stage count {nstages} does not match cell count {ncells}"
        )));
    }
    c.eol()?;
    c.tag("stages")?;
    let stages = c.i64s(ncells)?;
    c.eol()?;
    c.tag("t1off")?;
    let nslots = c.u64()?;
    if nslots != ncells as u64 {
        return Err(c.fail(format!(
            "T1 offset slot count {nslots} does not match cell count {ncells}"
        )));
    }
    let noff = c.count("offset")?;
    c.eol()?;
    let mut t1_offsets: Vec<Option<[i64; 3]>> = vec![None; ncells];
    // Offset lines name their cells in ascending order.
    let mut next = 0;
    for _ in 0..noff {
        c.tag("o")?;
        let idx: usize = c.num()?;
        if idx < next || idx >= ncells {
            return Err(c.fail(format!("T1 offset index {idx} out of order or range")));
        }
        t1_offsets[idx] = Some([c.i64()?, c.i64()?, c.i64()?]);
        next = idx + 1;
        c.eol()?;
    }
    let schedule = Schedule {
        n,
        stages,
        horizon,
        t1_offsets,
    };

    // Optional pre-mapping optimization report.
    c.tag("preopt")?;
    let has_preopt = c.flag()?;
    c.eol()?;
    let pre_opt = if has_preopt {
        c.tag("r")?;
        let nrounds = c.count("round")?;
        let converged = c.flag()?;
        let nodes_before = c.num()?;
        let nodes_after = c.num()?;
        let depth_before = c.num()?;
        let depth_after = c.num()?;
        c.eol()?;
        let mut rounds = Vec::with_capacity(nrounds);
        for _ in 0..nrounds {
            c.tag("q")?;
            let npasses = c.count("pass")?;
            c.eol()?;
            let mut round = Vec::with_capacity(npasses);
            for _ in 0..npasses {
                c.tag("s")?;
                let name = c.word()?;
                // `PassStats::pass` is `&'static str`: re-intern the decoded
                // name against the known pass vocabulary. A name outside it
                // means the entry came from an incompatible build — a miss.
                let pass = PassKind::KNOWN
                    .iter()
                    .map(|p| p.name())
                    .find(|n| n.as_bytes() == name)
                    .ok_or_else(|| {
                        c.fail(format!(
                            "unknown pass name '{}'",
                            String::from_utf8_lossy(name)
                        ))
                    })?;
                round.push(PassStats {
                    pass,
                    nodes_before: c.num()?,
                    nodes_after: c.num()?,
                    depth_before: c.num()?,
                    depth_after: c.num()?,
                    applied: c.num()?,
                    micros: c.u64()?,
                });
                c.eol()?;
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
    c.tag("timing")?;
    let has_timing = c.flag()?;
    c.eol()?;
    let timing = if has_timing {
        c.tag("y")?;
        let t = TimingSummary {
            horizon: c.i64()?,
            phases: c.num()?,
            scheduled_cells: c.num()?,
            zero_slack_cells: c.num()?,
            worst_slack: c.i64()?,
            total_slack: c.i64()?,
            edge_dffs: c.u64()?,
            chained_dffs: c.u64()?,
        };
        c.eol()?;
        Some(t)
    } else {
        None
    };

    // Truncation guard: a partially written file is missing this marker.
    c.tag("end")?;
    c.eol()?;
    if c.pos != c.bytes.len() {
        return Err(c.fail("bytes after the 'end' marker"));
    }

    // DFF plan: derived, once the schedule is known to be sound and the
    // derivation's work to fit the entry.
    let line = |reason: String| DecodeError {
        line: sched_line,
        reason,
    };
    check_schedule(&mapped, &schedule).map_err(line)?;
    let work = chain_work(&mapped, &schedule);
    if work > (bytes.len() as u64).saturating_mul(WORK_PER_BYTE) {
        return Err(line(format!(
            "schedule needs up to {work} DFFs, implausible for a {}-byte entry",
            bytes.len()
        )));
    }
    let plan = insert_dffs(&mapped, &schedule);
    if (plan.total_dffs, plan.total_splitters) != (stats.dffs, stats.splitters) {
        return Err(DecodeError {
            line: STATS_LINE,
            reason: format!(
                "stats list {} DFFs and {} splitters, the schedule needs {} and {}",
                stats.dffs, stats.splitters, plan.total_dffs, plan.total_splitters
            ),
        });
    }

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
    use super::synthetic::{extreme_result, synthetic_result};
    use super::*;
    use proptest::prelude::*;
    use sfq_circuits::epfl::adder;
    use sfq_opt::OptConfig;
    use t1map::cells::CellLibrary;
    use t1map::flow::{run_flow, FlowConfig, PhaseEngine};
    use t1map::timing::TimingConfig;

    #[test]
    fn real_flow_results_round_trip() {
        let lib = CellLibrary::default();
        let aig = adder(6);
        for cfg in [
            FlowConfig::single_phase(),
            FlowConfig::multiphase(4),
            FlowConfig::t1(4),
            FlowConfig {
                engine: PhaseEngine::Exact,
                ..FlowConfig::t1(4)
            },
            FlowConfig {
                pre_opt: OptConfig::standard(),
                ..FlowConfig::t1(4)
            },
            FlowConfig {
                timing: TimingConfig::standard(),
                ..FlowConfig::t1(4)
            },
            FlowConfig {
                pre_opt: OptConfig::slack_aware(),
                timing: TimingConfig::standard(),
                ..FlowConfig::t1(4)
            },
        ] {
            let result = run_flow(&aig, &lib, &cfg);
            let text = encode(&result);
            assert_eq!(text, oracle::encode(&result), "same bytes under {cfg:?}");
            let back = decode(text.as_bytes()).expect("decodes");
            assert_eq!(result, back, "round trip under {cfg:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        #[test]
        fn encode_writes_the_oracle_bytes(
            seed in any::<u64>(),
            with_pre_opt in any::<bool>(),
            with_timing in any::<bool>(),
        ) {
            for result in [synthetic_result(seed, with_pre_opt, with_timing), extreme_result(seed)] {
                prop_assert_eq!(encode(&result), oracle::encode(&result), "seed {}", seed);
            }
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
        let err = decode(text.as_bytes()).expect_err("wrong version rejected");
        assert!(err.reason.contains("version"), "{err}");
    }

    /// A real T1 result with a pre-optimization report and a timing
    /// summary, so its entry holds every section.
    fn full_t1_result() -> FlowResult {
        let cfg = FlowConfig {
            pre_opt: OptConfig::standard(),
            timing: TimingConfig::standard(),
            ..FlowConfig::t1(4)
        };
        let result = run_flow(&adder(3), &CellLibrary::default(), &cfg);
        assert!(result.stats.t1_used > 0, "a T1 entry");
        assert!(result.pre_opt.is_some() && result.timing.is_some());
        result
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let text = encode(&full_t1_result());
        // Every prefix must fail cleanly (the full text must not).
        for cut in 0..text.len().saturating_sub(1) {
            if let Ok(val) = decode(&text.as_bytes()[..cut]) {
                panic!("prefix of {cut} bytes decoded to {:?}", val.stats);
            }
        }
        assert!(decode(text.as_bytes()).is_ok());
    }

    /// Every byte of a real entry replaced by each of the 256 byte values:
    /// the decoder returns, and whatever it accepts is canonical
    /// (re-encodes to the very same bytes).
    #[test]
    fn every_byte_replacement_decodes_or_errs() {
        let mut bytes = encode(&full_t1_result()).into_bytes();
        let mut accepted = 0;
        for i in 0..bytes.len() {
            let original = bytes[i];
            for b in 0..=u8::MAX {
                bytes[i] = b;
                if let Ok(back) = decode(&bytes) {
                    assert_eq!(encode(&back).as_bytes(), bytes, "byte {i} set to {b:#04x}");
                    accepted += 1;
                }
            }
            bytes[i] = original;
        }
        assert!(accepted > 0, "digit swaps inside values still decode");
    }

    /// The first T1 cell (`t1`) or gate of `r`.
    fn first(r: &FlowResult, t1: bool) -> usize {
        let found = r.mapped.cells().find(|(_, cell)| match cell {
            MappedCell::T1 { .. } => t1,
            MappedCell::Gate { .. } => !t1,
            _ => false,
        });
        found.expect("a cell of that kind").0.index()
    }

    /// The stage of the first gate of `r`.
    fn gate_stage(r: &mut FlowResult) -> &mut i64 {
        let gate = first(r, false);
        &mut r.schedule.stages[gate]
    }

    /// The delivery offsets of the first T1 cell of `r`.
    fn t1_offsets(r: &mut FlowResult) -> &mut Option<[i64; 3]> {
        let t1 = first(r, true);
        &mut r.schedule.t1_offsets[t1]
    }

    /// Adds `gap` to the stage of every cell but the inputs and constants,
    /// and to the horizon.
    fn widen(r: &mut FlowResult, gap: i64) {
        for (id, cell) in r.mapped.cells() {
            if !matches!(cell, MappedCell::Input { .. } | MappedCell::Const0) {
                r.schedule.stages[id.index()] += gap;
            }
        }
        r.schedule.horizon += gap;
    }

    /// Well-formed entries of a real T1 result with a hostile schedule or
    /// `stats` line: each is an error (a panic under the dev profile's
    /// overflow checks would fail the test), and none reaches the plan
    /// derivation with work the entry's length cannot account for.
    #[test]
    fn hostile_schedules_and_stats_are_errors() {
        type Tamper = fn(&mut FlowResult);
        let cases: [(&str, Tamper); 14] = [
            // A 2^62 stage gap: 2^60 chain members under 4 phases.
            ("implausible", |r| widen(r, 1 << 62)),
            ("negative stage", |r| *gate_stage(r) = -1),
            ("negative stage", |r| *gate_stage(r) = i64::MIN),
            ("horizon", |r| r.schedule.horizon = -1),
            // The outputs' capture at `horizon + 1` does not fit an i64.
            ("horizon", |r| r.schedule.horizon = i64::MAX),
            ("0 phases", |r| r.schedule.n = 0),
            ("not after fanin", |r| {
                let gate = first(r, false);
                let fanin = r.mapped.fanins(CellId(gate as u32))[0].cell.index();
                r.schedule.stages[gate] = r.schedule.stages[fanin];
            }),
            ("lacks offsets", |r| *t1_offsets(r) = None),
            ("duplicate offset", |r| *t1_offsets(r) = Some([1, 1, 2])),
            ("out of range", |r| *t1_offsets(r) = Some([0, 1, 2])),
            ("out of range", |r| *t1_offsets(r) = Some([5, 1, 2])),
            ("out of range", |r| *t1_offsets(r) = Some([i64::MIN, 1, 2])),
            ("the schedule needs", |r| r.stats.dffs += 1),
            ("the schedule needs", |r| r.stats.splitters -= 1),
        ];
        for (i, (expected, tamper)) in cases.into_iter().enumerate() {
            let mut result = full_t1_result();
            assert!(!result.mapped.pos().is_empty() && result.schedule.n == 4);
            tamper(&mut result);
            let err = decode(encode(&result).as_bytes()).expect_err("tampered entry accepted");
            assert!(err.reason.contains(expected), "case {i}: {err}");
        }
    }

    #[test]
    fn hostile_edges_are_rejected_before_the_builder_panics() {
        let bad = |body: &str| {
            format!("{HEADER} v{FORMAT_VERSION}\nstats 0 0 0 0 0 0 0 0\n{body}").into_bytes()
        };
        // Forward reference.
        assert!(decode(&bad("cells 1\ng 1 2 5 0 0\n")).is_err());
        // Port out of range on a non-T1 producer.
        assert!(decode(&bad("cells 2\ni 0\ng 1 2 0 2 0\n")).is_err());
        // Inverted T1 operand.
        assert!(decode(&bad("cells 4\ni 0\ni 1\ni 2\nt 0 0 1 1 0 0 2 0 0\n")).is_err());
        // Absurd count field must not allocate.
        assert!(decode(&bad("cells 99999999999\n")).is_err());
    }

    /// A 92-byte entry declaring 2^28 T1 offset slots for zero cells once
    /// made the decoder allocate 8 GiB. Per-cell arrays must match the
    /// cell count, and other counts must fit the bytes left.
    #[test]
    fn counts_larger_than_the_entry_fail_before_allocating() {
        let entry = "sfq-flow-result v3\nstats 0 0 0 0 0 0 0 0\ncells 0\npos 0\n\
                     sched 4 0 0\nstages\nt1off 268435456 0\n";
        assert_eq!(entry.len(), 92);
        let err = decode(entry.as_bytes()).expect_err("slot count is not the cell count");
        assert!(err.reason.contains("slot count"), "{err}");

        let head = "sfq-flow-result v3\nstats 0 0 0 0 0 0 0 0\ncells 0\npos 0\n\
                    sched 4 0 0\nstages\n";
        for tail in [
            "t1off 0 1000\n",
            "t1off 0 0\npreopt 1\nr 100000 0 0 0 0 0\n",
            "t1off 0 0\npreopt 1\nr 1 0 0 0 0 0\nq 1000000\n",
        ] {
            let err = decode(format!("{head}{tail}").as_bytes()).expect_err(tail);
            assert!(err.reason.contains("implausible"), "{tail}: {err}");
        }
        let stages = "sfq-flow-result v3\nstats 0 0 0 0 0 0 0 0\ncells 0\npos 0\n\
                      sched 4 0 268435456\n";
        assert!(decode(stages.as_bytes()).is_err());
    }

    #[test]
    fn non_canonical_text_is_an_error() {
        let result = run_flow(&adder(3), &CellLibrary::default(), &FlowConfig::t1(4));
        let text = encode(&result);
        assert!(decode(text.as_bytes()).is_ok());
        for (from, to) in [
            ("\n", "\r\n"),
            ("cells ", "cells  "),
            ("cells ", "cells 0"),
            ("sched ", "sched +"),
            ("\nend\n", "\nend \n"),
            ("\nend\n", "\nend"),
            ("\nend\n", "\nend\n\n"),
        ] {
            let mangled = text.replacen(from, to, 1);
            assert_ne!(mangled, text);
            assert!(
                decode(mangled.as_bytes()).is_err(),
                "{from:?} -> {to:?} accepted"
            );
        }
        // A truth table with bits beyond its variables' 2^n rows.
        let gate = "sfq-flow-result v3\nstats 0 0 0 0 0 0 0 0\ncells 2\ni 0\ng 1 6 0 0 0\n";
        let err = decode(gate.as_bytes()).unwrap_err();
        assert!(err.reason.contains("beyond 1 variables"), "{err}");
    }
}
