//! AIGER file I/O (ASCII `aag` and binary `aig` formats).
//!
//! The AIGER format (Biere, FMV Reports 07/1 and 11/2) is the interchange
//! format of the EPFL/ISCAS benchmark suites the paper evaluates on. This
//! module reads and writes combinational AIGER files, so the flow can be run
//! on the original benchmark files when they are available (our generators
//! in `sfq-circuits` stand in when they are not).
//!
//! Parsing is *streaming*: [`read_ascii_from`]/[`read_binary_from`] consume
//! any [`std::io::BufRead`] with two reusable line buffers and no
//! per-node allocations beyond the network itself, so million-node files
//! parse directly off a buffered file handle without first slurping them
//! into a string. The slice-based [`read_ascii`]/[`read_binary`] are thin
//! wrappers over the streaming path.
//!
//! Latches are not supported (the paper's flow is combinational); files
//! containing latches are rejected.
//!
//! # Examples
//!
//! ```
//! use sfq_netlist::aig::Aig;
//! use sfq_netlist::aiger::{read_ascii, write_ascii};
//!
//! let mut g = Aig::new();
//! let a = g.add_pi();
//! let b = g.add_pi();
//! let c = g.and(a, b);
//! g.add_po(c);
//!
//! let text = write_ascii(&g);
//! let back = read_ascii(&text)?;
//! assert_eq!(back.pi_count(), 2);
//! assert_eq!(back.and_count(), 1);
//! # Ok::<(), sfq_netlist::aiger::ParseAigerError>(())
//! ```

use crate::aig::{Aig, Lit, NodeId};
use std::collections::HashMap;
use std::fmt;
use std::io::BufRead;

/// Errors produced while parsing an AIGER file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseAigerError {
    /// The header line is missing or malformed.
    BadHeader(String),
    /// A body line is malformed.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        reason: String,
    },
    /// The file contains latches (sequential AIGER), which are unsupported.
    LatchesUnsupported,
    /// A literal exceeds the declared maximum variable index.
    LiteralOutOfRange(u64),
    /// An AND gate's fanin is not defined before use.
    UndefinedFanin(u64),
    /// An input or AND gate defines a variable that is already defined
    /// (the constant, an earlier input or an earlier AND gate).
    Redefined(u64),
    /// Binary payload truncated or malformed.
    BadBinary(String),
    /// The underlying reader failed (streaming entry points only).
    Io(String),
}

impl fmt::Display for ParseAigerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseAigerError::BadHeader(s) => write!(f, "bad AIGER header: {s}"),
            ParseAigerError::BadLine { line, reason } => {
                write!(f, "bad AIGER line {line}: {reason}")
            }
            ParseAigerError::LatchesUnsupported => {
                f.write_str("sequential AIGER (latches) unsupported")
            }
            ParseAigerError::LiteralOutOfRange(l) => write!(f, "literal {l} out of range"),
            ParseAigerError::UndefinedFanin(l) => write!(f, "fanin literal {l} undefined"),
            ParseAigerError::Redefined(l) => write!(f, "literal {l} is defined twice"),
            ParseAigerError::BadBinary(s) => write!(f, "bad binary AIGER: {s}"),
            ParseAigerError::Io(s) => write!(f, "AIGER read failed: {s}"),
        }
    }
}

impl std::error::Error for ParseAigerError {}

/// The most inputs plus AND gates (`I + A`) a file's header may declare;
/// both readers refuse a larger header with [`ParseAigerError::BadHeader`]
/// before building anything.
///
/// A binary file's inputs take no bytes, so a 30-byte header could
/// otherwise ask for hundreds of millions of inputs. The budget,
/// 2²³ ≈ 8.4M nodes, is twice the largest network the `sfq-circuits`
/// registry builds (`voter` at its largest width: ≈4.1M inputs plus AND
/// gates), so every registry network round-trips through a file.
pub const NODE_BUDGET: u64 = 1 << 23;

struct Header {
    max_var: u64,
    inputs: u64,
    latches: u64,
    outputs: u64,
    ands: u64,
}

fn parse_header(line: &str, magic: &str) -> Result<Header, ParseAigerError> {
    let mut parts = line.split_whitespace();
    let tag = parts.next().unwrap_or("");
    if tag != magic {
        return Err(ParseAigerError::BadHeader(format!(
            "expected '{magic}', got '{tag}'"
        )));
    }
    let nums: Vec<u64> = parts
        .map(|p| p.parse::<u64>())
        .collect::<Result<_, _>>()
        .map_err(|e| ParseAigerError::BadHeader(e.to_string()))?;
    if nums.len() != 5 {
        return Err(ParseAigerError::BadHeader(format!(
            "expected 5 counts, got {}",
            nums.len()
        )));
    }
    if nums[1].checked_add(nums[4]).is_none_or(|n| n > NODE_BUDGET) {
        return Err(ParseAigerError::BadHeader(format!(
            "{} inputs plus {} AND gates exceed the {NODE_BUDGET}-node budget",
            nums[1], nums[4]
        )));
    }
    Ok(Header {
        max_var: nums[0],
        inputs: nums[1],
        latches: nums[2],
        outputs: nums[3],
        ands: nums[4],
    })
}

/// Parser state: external AIGER variable → our literal.
///
/// The map grows only as definitions arrive, never from the header's `M`.
/// Variables stay in a dense vector while they are numbered near the count
/// of definitions seen (as every canonical file numbers them); a far-off
/// variable number costs one hash entry, not memory up to it.
struct VarMap {
    max_var: u64,
    dense: Vec<Option<Lit>>,
    /// Keys come from the file, so the map keeps the default (keyed) hasher.
    sparse: HashMap<u64, Lit>,
    defined: u64,
}

impl VarMap {
    fn new(max_var: u64) -> Self {
        VarMap {
            max_var,
            dense: vec![Some(Lit::FALSE)],
            sparse: HashMap::new(),
            defined: 0,
        }
    }

    fn var(&self, ext_lit: u64) -> Result<u64, ParseAigerError> {
        let var = ext_lit >> 1;
        if var > self.max_var {
            return Err(ParseAigerError::LiteralOutOfRange(ext_lit));
        }
        Ok(var)
    }

    fn get(&self, var: u64) -> Option<Lit> {
        usize::try_from(var)
            .ok()
            .and_then(|v| self.dense.get(v).copied().flatten())
            .or_else(|| self.sparse.get(&var).copied())
    }

    fn define(&mut self, ext_lit: u64, lit: Lit) -> Result<(), ParseAigerError> {
        let var = self.var(ext_lit)?;
        if self.get(var).is_some() {
            return Err(ParseAigerError::Redefined(ext_lit));
        }
        // A defining literal is always even; fold any complement here.
        let lit = lit.with_complement(lit.is_complement() ^ (ext_lit & 1 == 1));
        self.defined += 1;
        // Growing only up to twice the definitions read (plus slack for
        // small files) keeps the dense map linear in the input so far.
        if var < 2 * self.defined + 1024 {
            let var = var as usize;
            if var >= self.dense.len() {
                self.dense.resize(var + 1, None);
            }
            self.dense[var] = Some(lit);
        } else {
            self.sparse.insert(var, lit);
        }
        Ok(())
    }

    fn resolve(&self, ext_lit: u64) -> Result<Lit, ParseAigerError> {
        let var = self.var(ext_lit)?;
        let base = self
            .get(var)
            .ok_or(ParseAigerError::UndefinedFanin(ext_lit))?;
        Ok(if ext_lit & 1 == 1 { !base } else { base })
    }
}

/// Fills `buf` with the next non-empty line of `r` (trailing newline and
/// surrounding whitespace trimmed in place). Returns `false` at EOF.
fn next_line(r: &mut impl BufRead, buf: &mut String) -> Result<bool, ParseAigerError> {
    loop {
        buf.clear();
        let n = r
            .read_line(buf)
            .map_err(|e| ParseAigerError::Io(e.to_string()))?;
        if n == 0 {
            return Ok(false);
        }
        buf.truncate(buf.trim_end().len());
        let lead = buf.len() - buf.trim_start().len();
        buf.drain(..lead);
        if !buf.is_empty() {
            return Ok(true);
        }
    }
}

/// Parses an ASCII AIGER (`aag`) file from a string slice.
///
/// # Errors
///
/// Any structural problem yields a [`ParseAigerError`]; see the variants.
pub fn read_ascii(text: &str) -> Result<Aig, ParseAigerError> {
    read_ascii_from(text.as_bytes())
}

/// Streaming ASCII AIGER (`aag`) parser: consumes any buffered reader line
/// by line through one reusable buffer — no per-node allocations, no
/// up-front slurp. The entry point for paper-scale files
/// (`BufReader::new(File::open(..)?)`).
///
/// # Errors
///
/// As [`read_ascii`], plus [`ParseAigerError::Io`] when the reader fails.
pub fn read_ascii_from(mut r: impl BufRead) -> Result<Aig, ParseAigerError> {
    let mut line = String::new();
    if !next_line(&mut r, &mut line)? {
        return Err(ParseAigerError::BadHeader("empty file".into()));
    }
    let h = parse_header(&line, "aag")?;
    if h.latches != 0 {
        return Err(ParseAigerError::LatchesUnsupported);
    }

    let mut g = Aig::new();
    let mut vars = VarMap::new(h.max_var);
    let mut take = |line: &mut String, what: &str| -> Result<(), ParseAigerError> {
        if next_line(&mut r, line)? {
            Ok(())
        } else {
            Err(ParseAigerError::BadHeader(format!("missing {what} line")))
        }
    };

    for _ in 0..h.inputs {
        take(&mut line, "input")?;
        let lit: u64 = line
            .parse()
            .map_err(|_| ParseAigerError::BadHeader(format!("bad input literal '{line}'")))?;
        if lit & 1 == 1 || lit == 0 {
            return Err(ParseAigerError::BadHeader(format!(
                "input literal {lit} must be positive and even"
            )));
        }
        let pi = g.add_pi();
        vars.define(lit, pi)?;
    }

    let mut outputs = Vec::new();
    for _ in 0..h.outputs {
        take(&mut line, "output")?;
        let lit: u64 = line
            .parse()
            .map_err(|_| ParseAigerError::BadHeader(format!("bad output literal '{line}'")))?;
        outputs.push(lit);
    }

    for _ in 0..h.ands {
        take(&mut line, "and gate")?;
        let mut fields = line.split_ascii_whitespace().map(str::parse::<u64>);
        let mut field = || -> Result<u64, ParseAigerError> {
            fields
                .next()
                .and_then(Result::ok)
                .ok_or_else(|| ParseAigerError::BadHeader(format!("bad and line '{line}'")))
        };
        let (lhs, r0, r1) = (field()?, field()?, field()?);
        if fields.next().is_some() {
            return Err(ParseAigerError::BadHeader(format!(
                "and line '{line}' needs 3 literals"
            )));
        }
        if lhs & 1 == 1 {
            return Err(ParseAigerError::BadHeader(format!(
                "and lhs {lhs} must be even"
            )));
        }
        let a = vars.resolve(r0)?;
        let b = vars.resolve(r1)?;
        // Structural hashing/simplification may fold the node; record
        // whatever literal now carries the function.
        let out = g.and(a, b);
        vars.define(lhs, out)?;
    }

    for ext in outputs {
        let lit = vars.resolve(ext)?;
        g.add_po(lit);
    }
    Ok(g)
}

/// Serializes an AIG as an ASCII AIGER (`aag`) string.
///
/// The output is canonical: variables are numbered constant-first, then
/// inputs, then AND gates in topological order.
pub fn write_ascii(aig: &Aig) -> String {
    use std::fmt::Write;
    let (order, ext_of) = externalize(aig);
    let num_ands = order.len();
    let mut out = format!(
        "aag {} {} 0 {} {}\n",
        aig.pi_count() + num_ands,
        aig.pi_count(),
        aig.po_count(),
        num_ands
    );
    for i in 0..aig.pi_count() {
        let _ = writeln!(out, "{}", (i as u64 + 1) * 2);
    }
    for po in aig.pos() {
        let _ = writeln!(out, "{}", ext_lit(*po, &ext_of));
    }
    for &node in &order {
        let (a, b) = aig.fanins(node).expect("order contains only AND nodes");
        let _ = writeln!(
            out,
            "{} {} {}",
            ext_of[node.index()] * 2,
            ext_lit(a, &ext_of),
            ext_lit(b, &ext_of)
        );
    }
    out
}

/// Parses a binary AIGER (`aig`) file from a byte slice.
///
/// # Errors
///
/// See [`ParseAigerError`]; truncated delta codes yield
/// [`ParseAigerError::BadBinary`].
pub fn read_binary(bytes: &[u8]) -> Result<Aig, ParseAigerError> {
    read_binary_from(bytes)
}

/// Streaming binary AIGER (`aig`) parser over any buffered reader: the
/// header and output lines go through one reusable buffer and the
/// delta-coded AND section is decoded byte by byte straight off the
/// reader's buffer — no per-node allocations, no up-front slurp.
///
/// # Errors
///
/// As [`read_binary`], plus [`ParseAigerError::Io`] when the reader fails.
pub fn read_binary_from(mut r: impl BufRead) -> Result<Aig, ParseAigerError> {
    // Header is the ASCII first line; output literals follow, one ASCII
    // line each. A reusable byte buffer serves both.
    let mut line: Vec<u8> = Vec::new();
    let mut read_text_line = |line: &mut Vec<u8>| -> Result<(), ParseAigerError> {
        line.clear();
        let n = r
            .read_until(b'\n', line)
            .map_err(|e| ParseAigerError::Io(e.to_string()))?;
        if n == 0 || line.last() != Some(&b'\n') {
            return Err(ParseAigerError::BadBinary("truncated text section".into()));
        }
        line.pop();
        Ok(())
    };
    read_text_line(&mut line)
        .map_err(|_| ParseAigerError::BadHeader("no newline after header".into()))?;
    let header_line = std::str::from_utf8(&line)
        .map_err(|_| ParseAigerError::BadHeader("non-UTF8 header".into()))?;
    let h = parse_header(header_line, "aig")?;
    if h.latches != 0 {
        return Err(ParseAigerError::LatchesUnsupported);
    }
    // `parse_header` bounds `inputs + ands`, so the sum cannot overflow.
    if h.max_var != h.inputs + h.ands {
        return Err(ParseAigerError::BadHeader(format!(
            "binary AIGER requires M = I + A (got {} vs {} + {})",
            h.max_var, h.inputs, h.ands
        )));
    }

    let mut outputs = Vec::new();
    for _ in 0..h.outputs {
        read_text_line(&mut line).map_err(|e| match e {
            ParseAigerError::BadBinary(_) => ParseAigerError::BadBinary("truncated outputs".into()),
            other => other,
        })?;
        let text = std::str::from_utf8(&line)
            .map_err(|_| ParseAigerError::BadBinary("non-UTF8 output line".into()))?;
        let lit: u64 = text
            .trim()
            .parse()
            .map_err(|_| ParseAigerError::BadBinary(format!("bad output '{text}'")))?;
        outputs.push(lit);
    }

    // AND gates: delta-encoded pairs.
    let mut g = Aig::new();
    let mut vars = VarMap::new(h.max_var);
    for i in 0..h.inputs {
        let pi = g.add_pi();
        vars.define((i + 1) * 2, pi)?;
    }
    let mut read_delta = || -> Result<u64, ParseAigerError> {
        let mut x = 0u64;
        let mut shift = 0u32;
        loop {
            let buf = r
                .fill_buf()
                .map_err(|e| ParseAigerError::Io(e.to_string()))?;
            let Some(&byte) = buf.first() else {
                return Err(ParseAigerError::BadBinary("truncated delta".into()));
            };
            r.consume(1);
            x |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(x);
            }
            shift += 7;
            if shift > 63 {
                return Err(ParseAigerError::BadBinary("delta overflow".into()));
            }
        }
    };
    for i in 0..h.ands {
        let lhs = (h.inputs + i + 1) * 2;
        let d0 = read_delta()?;
        let d1 = read_delta()?;
        let r0 = lhs
            .checked_sub(d0)
            .ok_or_else(|| ParseAigerError::BadBinary("delta0 exceeds lhs".into()))?;
        let r1 = r0
            .checked_sub(d1)
            .ok_or_else(|| ParseAigerError::BadBinary("delta1 exceeds rhs0".into()))?;
        let a = vars.resolve(r0)?;
        let b = vars.resolve(r1)?;
        let out = g.and(a, b);
        vars.define(lhs, out)?;
    }
    for ext in outputs {
        g.add_po(vars.resolve(ext)?);
    }
    Ok(g)
}

/// Serializes an AIG as a binary AIGER (`aig`) byte vector.
pub fn write_binary(aig: &Aig) -> Vec<u8> {
    use std::io::Write;
    let (order, ext_of) = externalize(aig);
    let num_ands = order.len();
    let mut out = format!(
        "aig {} {} 0 {} {}\n",
        aig.pi_count() + num_ands,
        aig.pi_count(),
        aig.po_count(),
        num_ands
    )
    .into_bytes();
    for po in aig.pos() {
        let _ = writeln!(out, "{}", ext_lit(*po, &ext_of));
    }
    let push_delta = |out: &mut Vec<u8>, mut x: u64| loop {
        let mut byte = (x & 0x7F) as u8;
        x >>= 7;
        if x != 0 {
            byte |= 0x80;
        }
        out.push(byte);
        if x == 0 {
            break;
        }
    };
    for &node in &order {
        let (a, b) = aig.fanins(node).expect("AND node");
        let lhs = ext_of[node.index()] * 2;
        let mut l0 = ext_lit(a, &ext_of);
        let mut l1 = ext_lit(b, &ext_of);
        if l0 < l1 {
            std::mem::swap(&mut l0, &mut l1);
        }
        debug_assert!(lhs > l0 && l0 >= l1);
        push_delta(&mut out, lhs - l0);
        push_delta(&mut out, l0 - l1);
    }
    out
}

/// Assigns external variable numbers: inputs 1..=I, live ANDs I+1.. in
/// topological order. Returns (AND order, node index → external var). The
/// map is a dense vector — node ids index it directly, so million-node
/// writes skip hashing entirely. Freed slots of an in-place-edited
/// network are excluded (their entry stays 0, never referenced by a live
/// fanin).
fn externalize(aig: &Aig) -> (Vec<NodeId>, Vec<u64>) {
    let mut ext_of: Vec<u64> = vec![0; aig.len()];
    for (i, &pi) in aig.pis().iter().enumerate() {
        ext_of[pi.index()] = i as u64 + 1;
    }
    let mut order = Vec::new();
    for (next, id) in (aig.pi_count() as u64 + 1..).zip(aig.and_ids()) {
        ext_of[id.index()] = next;
        order.push(id);
    }
    (order, ext_of)
}

fn ext_lit(l: Lit, ext_of: &[u64]) -> u64 {
    ext_of[l.node().index()] * 2 + l.is_complement() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn equivalent(a: &Aig, b: &Aig, samples: usize) -> bool {
        if a.pi_count() != b.pi_count() || a.po_count() != b.po_count() {
            return false;
        }
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for _ in 0..samples {
            let inputs: Vec<u64> = (0..a.pi_count())
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                })
                .collect();
            if a.eval64(&inputs) != b.eval64(&inputs) {
                return false;
            }
        }
        true
    }

    fn sample_aig() -> Aig {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let x = g.xor(a, b);
        let m = g.maj3(a, b, c);
        g.add_po(x);
        g.add_po(!m);
        g.add_po(Lit::TRUE);
        g
    }

    #[test]
    fn ascii_roundtrip() {
        let g = sample_aig();
        let text = write_ascii(&g);
        let back = read_ascii(&text).unwrap();
        assert!(equivalent(&g, &back, 8));
    }

    #[test]
    fn binary_roundtrip() {
        let g = sample_aig();
        let bytes = write_binary(&g);
        let back = read_binary(&bytes).unwrap();
        assert!(equivalent(&g, &back, 8));
    }

    #[test]
    fn ascii_binary_agree() {
        let g = sample_aig();
        let from_ascii = read_ascii(&write_ascii(&g)).unwrap();
        let from_binary = read_binary(&write_binary(&g)).unwrap();
        assert!(equivalent(&from_ascii, &from_binary, 8));
    }

    #[test]
    fn parses_reference_example() {
        // The and-gate example from the AIGER report.
        let text = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n";
        let g = read_ascii(text).unwrap();
        assert_eq!(g.pi_count(), 2);
        assert_eq!(g.po_count(), 1);
        assert_eq!(g.eval(&[true, true]), vec![true]);
        assert_eq!(g.eval(&[true, false]), vec![false]);
    }

    #[test]
    fn parses_constant_outputs() {
        // Output literal 0 (false) and 1 (true).
        let text = "aag 1 1 0 2 0\n2\n0\n1\n";
        let g = read_ascii(text).unwrap();
        assert_eq!(g.eval(&[false]), vec![false, true]);
    }

    #[test]
    fn rejects_latches() {
        let text = "aag 3 1 1 1 1\n2\n4 2\n6\n6 2 4\n";
        assert_eq!(
            read_ascii(text).unwrap_err(),
            ParseAigerError::LatchesUnsupported
        );
    }

    #[test]
    fn rejects_bad_header() {
        assert!(matches!(
            read_ascii("not aiger"),
            Err(ParseAigerError::BadHeader(_))
        ));
        assert!(matches!(
            read_ascii("aag 1 2 3"),
            Err(ParseAigerError::BadHeader(_))
        ));
        assert!(matches!(read_ascii(""), Err(ParseAigerError::BadHeader(_))));
    }

    #[test]
    fn rejects_out_of_range_literal() {
        let text = "aag 1 1 0 1 0\n2\n99\n";
        assert_eq!(
            read_ascii(text).unwrap_err(),
            ParseAigerError::LiteralOutOfRange(99)
        );
    }

    #[test]
    fn rejects_an_input_defined_twice() {
        assert_eq!(
            read_ascii("aag 2 2 0 0 0\n2\n2\n").unwrap_err(),
            ParseAigerError::Redefined(2)
        );
        // Also when the first definition sits in the sparse map.
        let far = "aag 4000000000 2 0 0 0\n8000000000\n8000000000\n";
        assert_eq!(
            read_ascii(far).unwrap_err(),
            ParseAigerError::Redefined(8000000000)
        );
    }

    #[test]
    fn rejects_an_and_that_redefines_an_input_or_an_and() {
        assert_eq!(
            read_ascii("aag 2 2 0 0 1\n2\n4\n4 2 3\n").unwrap_err(),
            ParseAigerError::Redefined(4)
        );
        assert_eq!(
            read_ascii("aag 3 2 0 0 2\n2\n4\n6 2 4\n6 3 5\n").unwrap_err(),
            ParseAigerError::Redefined(6)
        );
        // Variable 0 is the constant, defined before any line is read.
        assert_eq!(
            read_ascii("aag 1 1 0 0 1\n2\n0 2 3\n").unwrap_err(),
            ParseAigerError::Redefined(0)
        );
    }

    #[test]
    fn roundtrip_larger_network() {
        let mut g = Aig::new();
        let pis: Vec<Lit> = (0..8).map(|_| g.add_pi()).collect();
        let mut acc = pis[0];
        for &p in &pis[1..] {
            let x = g.xor(acc, p);
            acc = g.and(x, p);
        }
        g.add_po(acc);
        let back = read_binary(&write_binary(&g)).unwrap();
        assert!(equivalent(&g, &back, 8));
    }

    #[test]
    fn folded_and_gates_roundtrip() {
        // x & !x folds to constant false at parse time; the file is still
        // valid and the function preserved.
        let text = "aag 2 1 0 1 1\n2\n4\n4 2 3\n";
        let g = read_ascii(text).unwrap();
        assert_eq!(g.eval(&[true]), vec![false]);
        assert_eq!(g.eval(&[false]), vec![false]);
    }

    #[test]
    fn hostile_headers_neither_panic_nor_allocate() {
        // A huge `M` costs nothing until literals use it.
        for text in [
            "aag 4000000000 0 0 0 0\n",
            "aag 18446744073709551615 0 0 0 0\n",
        ] {
            let g = read_ascii(text).unwrap();
            assert_eq!((g.pi_count(), g.po_count(), g.and_count()), (0, 0, 0));
        }
        // Header counts are promises the body must keep, not reservations.
        assert!(read_ascii("aag 1 0 0 4000000000 0\n").is_err());
        assert!(read_ascii("aag 18446744073709551615 18446744073709551615 0 0 1\n").is_err());
        // Binary inputs are implicit: a count beyond the node budget is an
        // error, and `I + A` may not overflow.
        assert!(matches!(
            read_binary(b"aig 4000000000 4000000000 0 0 0\n"),
            Err(ParseAigerError::BadHeader(_))
        ));
        assert!(read_binary(b"aig 0 18446744073709551615 0 0 1\n").is_err());
    }

    #[test]
    fn headers_beyond_the_node_budget_are_refused_before_building() {
        // The 30-byte file that used to create 300M inputs.
        let file = b"aig 300000000 300000000 0 0 0\n";
        assert_eq!(file.len(), 30);
        let err = read_binary(file).unwrap_err();
        assert_eq!(
            err.to_string(),
            "bad AIGER header: 300000000 inputs plus 0 AND gates exceed the 8388608-node budget"
        );
        let (i, a) = (NODE_BUDGET / 2, NODE_BUDGET / 2 + 1);
        let over = format!("aag {} {i} 0 0 {a}\n", i + a);
        assert!(matches!(
            read_ascii(&over),
            Err(ParseAigerError::BadHeader(_))
        ));
        // At the budget the header passes; here the missing body fails.
        let at = format!("aig {NODE_BUDGET} 0 0 0 {NODE_BUDGET}\n");
        assert_eq!(
            read_binary(at.as_bytes()).unwrap_err(),
            ParseAigerError::BadBinary("truncated delta".into())
        );
    }

    /// A small network with inputs, a complemented and a constant output
    /// and folded AND gates, in both formats.
    fn fuzz_seed() -> Aig {
        let mut g = Aig::new();
        let pis: Vec<Lit> = (0..4).map(|_| g.add_pi()).collect();
        let x = g.xor(pis[0], pis[1]);
        let m = g.maj3(x, pis[2], !pis[3]);
        g.add_po(m);
        g.add_po(!x);
        g.add_po(Lit::FALSE);
        g
    }

    /// Whatever a reader accepts is a network: it writes and reads back to
    /// an equivalent one.
    fn check_accepted(g: &Aig) {
        let back = read_ascii(&write_ascii(g)).expect("written files parse");
        assert!(equivalent(g, &back, g.pi_count()));
    }

    /// Every prefix of both files, and every byte of both replaced by each
    /// of the 256 byte values: each reader returns (never panics), and
    /// whatever it accepts is a network.
    #[test]
    fn every_prefix_and_byte_replacement_parses_or_errs() {
        let g = fuzz_seed();
        let ascii = write_ascii(&g).into_bytes();
        let binary = write_binary(&g);
        type Reader = fn(&[u8]) -> Result<Aig, ParseAigerError>;
        let readers: [(&[u8], Reader); 2] =
            [(&ascii, |b| read_ascii_from(b)), (&binary, read_binary)];
        for (file, read) in readers {
            assert!(equivalent(&g, &read(file).unwrap(), 4));
            for cut in 0..file.len() {
                if let Ok(back) = read(&file[..cut]) {
                    check_accepted(&back);
                }
            }
            let mut bytes = file.to_vec();
            let mut accepted = 0;
            for i in 0..bytes.len() {
                for b in 0..=u8::MAX {
                    bytes[i] = b;
                    if let Ok(back) = read(&bytes) {
                        check_accepted(&back);
                        accepted += 1;
                    }
                }
                bytes[i] = file[i];
            }
            assert!(accepted > 1, "other literals still parse");
        }
    }

    #[test]
    fn far_off_variable_numbers_parse() {
        // Variable 4e9 is legal under M = 4e9; it lands in the sparse map.
        let text = "aag 4000000000 2 0 2 1\n8000000000\n2\n8000000001\n7999999998\n7999999998 8000000000 2\n";
        let g = read_ascii(text).unwrap();
        assert_eq!((g.pi_count(), g.po_count(), g.and_count()), (2, 2, 1));
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(g.eval(&[a, b]), vec![!a, a && b]);
        }
    }
}
