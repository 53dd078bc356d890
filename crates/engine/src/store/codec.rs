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
//! sfq-flow-result v2
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
//! plan <D> <total_dffs> <total_splitters>
//!                                then per driver:
//!   d <cell> <port> <stage> <M> <C>
//!   m {<member>}×M
//!   a {<tap>}×C
//!   c <g|t> <cell> <slot> <w|e> <t>  or  c o <index> 0 <w|e> <t>   (C lines)
//! preopt 0 | preopt 1            then, when 1:
//!   r <R> <converged> <nodes_before> <nodes_after> <depth_before> <depth_after>
//!   q <S>                          R times, each then S lines:
//!   s <pass> <nodes_before> <nodes_after> <depth_before> <depth_after> <applied> <micros>
//! timing 0 | timing 1            then, when 1:
//!   y <horizon> <phases> <scheduled> <zero_slack> <worst> <total> <edge_dffs> <chained_dffs>
//! end
//! ```
//!
//! [`encode`] appends this text straight into one pre-sized byte buffer,
//! walking the plan's [`DffPlan::drivers`] views; [`decode`] reads it
//! back in a single pass of one byte cursor, parsing each number in the
//! scan that finds it. Decode appends every driver's chain members, taps
//! and consumers into the plan's shared arrays (see [`DffPlan`]), so a
//! decoded entry allocates one fanin vector per gate and otherwise a
//! fixed number of vectors, never one per driver.
//!
//! [`decode`] is *total*: any input — corrupt, truncated, hostile — yields
//! either an equal [`FlowResult`] or a [`DecodeError`] with the offending
//! line, never a panic. It accepts exactly the canonical text: anything
//! [`encode`] would not have written (extra whitespace, `\r\n` line ends,
//! leading zeros, bytes after `end`) is an error, which the store counts
//! as a miss. It pre-validates everything the [`MappedCircuit`] builder
//! asserts (topological order, port ranges, gate arity, positive T1
//! operands), so rebuilding through the public builder API cannot trip an
//! assertion. It never allocates for elements the input cannot hold: the
//! per-cell arrays (`stages`, `t1off`) must match the cell count, every
//! other count is checked against the bytes left in the entry, and the
//! plan's arrays are sized up front for no more than those bytes can
//! hold.
//!
//! [`FORMAT_VERSION`] participates in the [`DiskStore`](super::DiskStore)
//! directory layout (`<dir>/v<N>/`): bumping it on any format change
//! orphans old entries cleanly instead of misdecoding them.

use std::fmt;
use t1map::dff::{Consumer, DffPlan, Requirement};
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
    let drivers: usize = result
        .plan
        .drivers()
        .map(|d| 24 + 4 * d.members.len() + 16 * d.consumers.len())
        .sum();
    let passes: usize = result.pre_opt.as_ref().map_or(0, |r| {
        r.rounds.iter().map(|round| 8 + 48 * round.len()).sum()
    });
    256 + 40 * result.mapped.len() + 16 * result.mapped.pos().len() + drivers + passes
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

    let plan = &result.plan;
    w.tag("plan")
        .usize(plan.drivers().len())
        .u64(plan.total_dffs)
        .u64(plan.total_splitters)
        .end();
    for d in plan.drivers() {
        w.tag("d")
            .u64(d.source.0 .0.into())
            .u64(d.source.1.into())
            .i64(d.source_stage)
            .usize(d.members.len())
            .usize(d.consumers.len())
            .end();
        w.tag("m").i64s(d.members).end();
        w.tag("a").i64s(d.taps).end();
        for (consumer, req) in d.consumers {
            w.tag("c");
            match consumer {
                Consumer::GateInput { cell, slot } => w.word("g").u64(cell.0.into()).usize(*slot),
                Consumer::T1Input { cell, slot } => w.word("t").u64(cell.0.into()).usize(*slot),
                Consumer::Output { index } => w.word("o").usize(*index).u64(0),
            };
            match req {
                Requirement::Window(t) => w.word("w").i64(*t),
                Requirement::Exact(tau) => w.word("e").i64(*tau),
            }
            .end();
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

/// Deserializes a [`FlowResult`] previously produced by [`encode`].
///
/// # Errors
///
/// Any malformed, non-canonical, truncated or version-mismatched input
/// yields a [`DecodeError`] naming the offending line; the store layers
/// treat every such error as a cache miss.
pub fn decode(text: &str) -> Result<FlowResult, DecodeError> {
    let mut c = Cursor {
        bytes: text.as_bytes(),
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
    let mut mapped = MappedCircuit::new();
    // Uses of cell outputs (fanins, then outputs): the plan's consumers.
    let mut uses = 0;
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
                let mut fanins = Vec::with_capacity(nvars);
                for _ in 0..nvars {
                    fanins.push(c.edge(&mapped)?);
                }
                uses += nvars;
                mapped.add_gate(tt, fanins);
            }
            b't' => {
                let mut fanins = [Edge::plain(CellId(0)); 3];
                for slot in &mut fanins {
                    *slot = c.edge(&mapped)?;
                    if slot.invert {
                        return Err(c.fail("inverted T1 operand"));
                    }
                }
                uses += 3;
                mapped.add_t1(fanins);
            }
            other => return Err(c.fail(format!("unknown cell tag {:?}", other as char))),
        }
        c.eol()?;
    }
    c.tag("pos")?;
    let npos = c.count("output")?;
    uses += npos;
    c.eol()?;
    for _ in 0..npos {
        c.tag("p")?;
        let e = c.edge(&mapped)?;
        c.eol()?;
        mapped.add_po(e);
    }

    // Schedule: stages and T1 offset slots are per-cell arrays.
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

    // DFF plan: every driver's members, taps and consumers are appended
    // to the plan's shared vectors. A real plan holds `total_dffs` chain
    // members and one consumer per use of a cell output, so the vectors
    // are sized for those up front, but never beyond what the bytes left
    // can hold: a member takes at least 2 bytes, a consumer line 12.
    c.tag("plan")?;
    let ndrivers = c.count("driver")?;
    let total_dffs = c.u64()?;
    let total_splitters = c.u64()?;
    c.eol()?;
    let room = c.bytes.len() - c.pos;
    let mut plan = DffPlan::with_capacity(
        ndrivers,
        total_dffs.min(room as u64 / 2) as usize,
        uses.min(room / 12),
    );
    plan.total_dffs = total_dffs;
    plan.total_splitters = total_splitters;
    for _ in 0..ndrivers {
        c.tag("d")?;
        let source = (CellId(c.num()?), c.num()?);
        let source_stage = c.i64()?;
        let nmembers = c.count("chain-member")?;
        let ncons = c.count("consumer")?;
        c.eol()?;
        c.tag("m")?;
        for _ in 0..nmembers {
            plan.push_member(c.i64()?);
        }
        c.eol()?;
        c.tag("a")?;
        for _ in 0..ncons {
            plan.push_tap(c.i64()?);
        }
        c.eol()?;
        for _ in 0..ncons {
            c.tag("c")?;
            let consumer = match c.word()? {
                b"g" => Consumer::GateInput {
                    cell: CellId(c.num()?),
                    slot: c.num()?,
                },
                b"t" => Consumer::T1Input {
                    cell: CellId(c.num()?),
                    slot: c.num()?,
                },
                b"o" => {
                    let index = c.num()?;
                    if c.u64()? != 0 {
                        return Err(c.fail("output consumer with a non-zero slot"));
                    }
                    Consumer::Output { index }
                }
                other => {
                    return Err(c.fail(format!(
                        "unknown consumer kind '{}'",
                        String::from_utf8_lossy(other)
                    )))
                }
            };
            let req = match c.word()? {
                b"w" => Requirement::Window(c.i64()?),
                b"e" => Requirement::Exact(c.i64()?),
                other => {
                    return Err(c.fail(format!(
                        "unknown requirement kind '{}'",
                        String::from_utf8_lossy(other)
                    )))
                }
            };
            c.eol()?;
            plan.push_consumer(consumer, req);
        }
        plan.finish_driver(source, source_stage);
    }

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
            assert_eq!(text, oracle::encode(&result), "same bytes under {cfg:?}");
            let back = decode(&text).expect("decodes");
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

    /// Every byte of a real entry replaced by each of a few bytes that
    /// look like grammar: the decoder returns, and whatever it accepts is
    /// canonical (re-encodes to the very same bytes).
    #[test]
    fn every_byte_replacement_decodes_or_errs() {
        let cfg = FlowConfig::t1(4)
            .to_builder()
            .standard_opt()
            .timing(true)
            .build();
        let result = run_flow(&adder(3), &CellLibrary::default(), &cfg);
        let mut bytes = encode(&result).into_bytes();
        let mut accepted = 0;
        for i in 0..bytes.len() {
            let original = bytes[i];
            for b in *b" \n-09x\r" {
                bytes[i] = b;
                let text = std::str::from_utf8(&bytes).expect("ASCII");
                if let Ok(back) = decode(text) {
                    assert_eq!(encode(&back), text, "byte {i} set to {:?}", b as char);
                    accepted += 1;
                }
            }
            bytes[i] = original;
        }
        assert!(accepted > 0, "digit swaps inside values still decode");
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

    /// A 92-byte entry declaring 2^28 T1 offset slots for zero cells once
    /// made the decoder allocate 8 GiB. Per-cell arrays must match the
    /// cell count, and other counts must fit the bytes left.
    #[test]
    fn counts_larger_than_the_entry_fail_before_allocating() {
        let entry = "sfq-flow-result v2\nstats 0 0 0 0 0 0 0 0\ncells 0\npos 0\n\
                     sched 4 0 0\nstages\nt1off 268435456 0\n";
        assert_eq!(entry.len(), 92);
        let err = decode(entry).expect_err("slot count is not the cell count");
        assert!(err.reason.contains("slot count"), "{err}");

        let head = "sfq-flow-result v2\nstats 0 0 0 0 0 0 0 0\ncells 0\npos 0\n\
                    sched 4 0 0\nstages\nt1off 0 0\n";
        for tail in [
            "plan 1000 0 0\n",
            "plan 1 0 0\nd 0 0 0 268435456 0\n",
            "plan 1 0 0\nd 0 0 0 0 1000000\n",
            "plan 0 0 0\npreopt 1\nr 100000 0 0 0 0 0\n",
        ] {
            let err = decode(&format!("{head}{tail}")).expect_err(tail);
            assert!(err.reason.contains("implausible"), "{tail}: {err}");
        }
        let stages = "sfq-flow-result v2\nstats 0 0 0 0 0 0 0 0\ncells 0\npos 0\n\
                      sched 4 0 268435456\n";
        assert!(decode(stages).is_err());
    }

    #[test]
    fn non_canonical_text_is_an_error() {
        let result = run_flow(&adder(3), &CellLibrary::default(), &FlowConfig::t1(4));
        let text = encode(&result);
        assert!(decode(&text).is_ok());
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
            assert!(decode(&mangled).is_err(), "{from:?} -> {to:?} accepted");
        }
        // A truth table with bits beyond its variables' 2^n rows.
        let gate = "sfq-flow-result v2\nstats 0 0 0 0 0 0 0 0\ncells 2\ni 0\ng 1 6 0 0 0\n";
        let err = decode(gate).unwrap_err();
        assert!(err.reason.contains("beyond 1 variables"), "{err}");
    }
}
