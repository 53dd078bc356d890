//! The precomputed optimal-subgraph table behind the `rewrite` pass.
//!
//! Cut rewriting replaces the logic cone of a 4-feasible cut with a known
//! small implementation of the cut function. Implementations are stored per
//! *NPN class* (see [`sfq_netlist::npn`]) as straight-line AND/INV
//! [`Program`]s over the canonical inputs, so one entry serves every
//! function in the class — the NPN transform reported by
//! [`npn_canonical`] translates between the cut's leaves and the canonical
//! input order at instantiation time.
//!
//! The table is seeded with hand-minimized subgraphs for structures the
//! generic synthesizer does not find (e.g. the 4-AND majority, one node
//! smaller than the textbook 5-AND form — the workhorse gain on full-adder
//! carry chains), and lazily fills the remaining classes with the best
//! network found by a Shannon-style decomposition search. There are only
//! 222 NPN classes of ≤ 4-input functions, so the table stays tiny and each
//! class is synthesized at most once per process.
//!
//! The table also memoizes each cut function's canonization
//! ([`RewriteTable::canonize`]): a pure function of the truth table, so it
//! is computed at most once per process and never goes stale. Keys are cut
//! functions of at most four inputs, which bounds the memo at
//! 2^16 + 2^8 + 2^4 + 2^2 + 2 entries (a few MB at worst) with no eviction.

use sfq_netlist::aig::{Aig, Lit};
use sfq_netlist::fnv::FnvHashMap;
use sfq_netlist::npn::{npn_canonical, NpnCanon};
use sfq_netlist::truth_table::TruthTable;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A literal inside a [`Program`]: slot index × 2 + complement bit.
///
/// Slot 0 is constant false, slots `1..=num_vars` are the program inputs,
/// and slot `num_vars + 1 + k` is the result of step `k`.
pub type ProgramLit = u16;

/// The constant-false program literal.
pub const P_FALSE: ProgramLit = 0;
/// The constant-true program literal.
pub const P_TRUE: ProgramLit = 1;

fn p_lit(slot: usize, neg: bool) -> ProgramLit {
    ((slot as u16) << 1) | neg as u16
}

fn p_slot(l: ProgramLit) -> usize {
    (l >> 1) as usize
}

fn p_neg(l: ProgramLit) -> bool {
    l & 1 == 1
}

/// A straight-line AND/INV program: the portable representation of one
/// small subgraph, independent of any concrete [`Aig`].
///
/// Each step ANDs two earlier literals; inverters ride on the literals. The
/// program's function is fully determined, so it can be evaluated over
/// truth tables ([`Program::eval`]) or instantiated into a network
/// ([`Program::build`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    num_vars: usize,
    steps: Vec<(ProgramLit, ProgramLit)>,
    out: ProgramLit,
}

impl Program {
    /// Number of input variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of AND steps (the cost of a fresh instantiation).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Returns `true` if the program has no AND steps (constant or
    /// single-literal output).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The AND steps in execution order.
    pub fn steps(&self) -> &[(ProgramLit, ProgramLit)] {
        &self.steps
    }

    /// The output literal.
    pub fn out(&self) -> ProgramLit {
        self.out
    }

    /// Evaluates the program symbolically, returning its function as a
    /// truth table over `num_vars` variables.
    pub fn eval(&self) -> TruthTable {
        let n = self.num_vars;
        let mut vals: Vec<TruthTable> = Vec::with_capacity(1 + n + self.steps.len());
        vals.push(TruthTable::zero(n));
        for v in 0..n {
            vals.push(TruthTable::var(n, v));
        }
        let resolve = |vals: &[TruthTable], l: ProgramLit| {
            let t = vals[p_slot(l)];
            if p_neg(l) {
                !t
            } else {
                t
            }
        };
        for &(a, b) in &self.steps {
            let t = resolve(&vals, a) & resolve(&vals, b);
            vals.push(t);
        }
        resolve(&vals, self.out)
    }

    /// Instantiates the program in `aig`, feeding canonical input `i` with
    /// `inputs[i]`, and returns the output literal. Structural hashing in
    /// [`Aig::and`] reuses any step that already exists.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_vars()`.
    pub fn build(&self, aig: &mut Aig, inputs: &[Lit]) -> Lit {
        assert_eq!(inputs.len(), self.num_vars, "one literal per program input");
        let mut vals: Vec<Lit> = Vec::with_capacity(1 + self.num_vars + self.steps.len());
        vals.push(Lit::FALSE);
        vals.extend_from_slice(inputs);
        let resolve = |vals: &[Lit], l: ProgramLit| {
            let lit = vals[p_slot(l)];
            lit.with_complement(lit.is_complement() ^ p_neg(l))
        };
        for &(a, b) in &self.steps {
            let (la, lb) = (resolve(&vals, a), resolve(&vals, b));
            let lit = aig.and(la, lb);
            vals.push(lit);
        }
        resolve(&vals, self.out)
    }

    /// Rewrites the program to compute `T(f)` when it computes `f`, where
    /// `T` is the NPN transform `(perm, input_neg, output_neg)` as reported
    /// by [`npn_canonical`]: input `i` of `f` becomes canonical input
    /// `perm[i]` (pre-complemented when bit `i` of `input_neg` is set), and
    /// the output is complemented when `output_neg` holds.
    fn apply_transform(&self, perm: &[u8], input_neg: u8, output_neg: bool) -> Program {
        let remap = |l: ProgramLit| -> ProgramLit {
            let slot = p_slot(l);
            if slot >= 1 && slot <= self.num_vars {
                let i = slot - 1;
                let neg = p_neg(l) ^ (input_neg >> i & 1 == 1);
                p_lit(1 + perm[i] as usize, neg)
            } else {
                l
            }
        };
        let steps = self
            .steps
            .iter()
            .map(|&(a, b)| (remap(a), remap(b)))
            .collect();
        let mut out = remap(self.out);
        if output_neg {
            out ^= 1;
        }
        Program {
            num_vars: self.num_vars,
            steps,
            out,
        }
    }
}

/// Builds [`Program`]s with the same trivial simplifications and structural
/// hashing as [`Aig::and`], so synthesized subgraphs never carry redundant
/// steps.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    num_vars: usize,
    steps: Vec<(ProgramLit, ProgramLit)>,
    strash: HashMap<(ProgramLit, ProgramLit), ProgramLit>,
}

impl ProgramBuilder {
    /// Creates a builder over `num_vars` inputs.
    pub fn new(num_vars: usize) -> Self {
        ProgramBuilder {
            num_vars,
            ..Default::default()
        }
    }

    /// The literal of input `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn input(&self, v: usize) -> ProgramLit {
        assert!(v < self.num_vars, "program input out of range");
        p_lit(1 + v, false)
    }

    /// AND of two program literals, with simplification and hashing.
    pub fn and(&mut self, a: ProgramLit, b: ProgramLit) -> ProgramLit {
        if a == P_FALSE || b == P_FALSE || a == b ^ 1 {
            return P_FALSE;
        }
        if a == P_TRUE {
            return b;
        }
        if b == P_TRUE || a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&l) = self.strash.get(&(a, b)) {
            return l;
        }
        let l = p_lit(1 + self.num_vars + self.steps.len(), false);
        self.steps.push((a, b));
        self.strash.insert((a, b), l);
        l
    }

    /// OR of two program literals.
    pub fn or(&mut self, a: ProgramLit, b: ProgramLit) -> ProgramLit {
        self.and(a ^ 1, b ^ 1) ^ 1
    }

    /// XOR of two program literals (three AND steps).
    pub fn xor(&mut self, a: ProgramLit, b: ProgramLit) -> ProgramLit {
        let l = self.and(a, b ^ 1);
        let r = self.and(a ^ 1, b);
        self.or(l, r)
    }

    /// Finishes the program with output literal `out`.
    pub fn finish(self, out: ProgramLit) -> Program {
        Program {
            num_vars: self.num_vars,
            steps: self.steps,
            out,
        }
    }
}

/// Synthesizes a program for `f` by Shannon-style decomposition: constant
/// and complementary cofactors become OR/AND/XOR factorings, everything
/// else a multiplexer, with memoized sub-functions shared through the
/// builder's strash. The search tries each support variable as the first
/// split and keeps the smallest result.
fn synthesize(f: TruthTable) -> Program {
    let n = f.num_vars();
    let mut best: Option<Program> = None;
    let tops: Vec<usize> = if n == 0 {
        vec![0]
    } else {
        (0..n).filter(|&v| f.depends_on(v)).collect()
    };
    let tops = if tops.is_empty() { vec![0] } else { tops };
    for &top in &tops {
        let mut b = ProgramBuilder::new(n);
        let mut memo: HashMap<TruthTable, ProgramLit> = HashMap::new();
        let out = decompose(f, Some(top), &mut b, &mut memo);
        let prog = b.finish(out);
        debug_assert_eq!(prog.eval(), f, "synthesized program must compute f");
        if best.as_ref().is_none_or(|p| prog.len() < p.len()) {
            best = Some(prog);
        }
    }
    best.expect("at least one decomposition exists")
}

fn decompose(
    f: TruthTable,
    prefer: Option<usize>,
    b: &mut ProgramBuilder,
    memo: &mut HashMap<TruthTable, ProgramLit>,
) -> ProgramLit {
    if f.is_zero() {
        return P_FALSE;
    }
    if f.is_one() {
        return P_TRUE;
    }
    if let Some(&l) = memo.get(&f) {
        return l;
    }
    if let Some(&l) = memo.get(&!f) {
        return l ^ 1;
    }
    let n = f.num_vars();
    for v in 0..n {
        if f == TruthTable::var(n, v) {
            return b.input(v);
        }
        if f == !TruthTable::var(n, v) {
            return b.input(v) ^ 1;
        }
    }
    // Pick the split variable: the preferred one if given, else the support
    // variable with the cheapest local factoring (constant cofactor beats
    // complementary cofactor beats multiplexer).
    let split = prefer.filter(|&v| f.depends_on(v)).unwrap_or_else(|| {
        let mut choice = (usize::MAX, 3u8);
        for v in 0..n {
            if !f.depends_on(v) {
                continue;
            }
            let (c0, c1) = (f.cofactor0(v), f.cofactor1(v));
            let rank = if c0.is_zero() || c0.is_one() || c1.is_zero() || c1.is_one() {
                0
            } else if c0 == !c1 {
                1
            } else {
                2
            };
            if rank < choice.1 {
                choice = (v, rank);
            }
        }
        choice.0
    });
    let x = b.input(split);
    let (c0, c1) = (f.cofactor0(split), f.cofactor1(split));
    let lit = if c1.is_one() {
        let g = decompose(c0, None, b, memo);
        b.or(x, g)
    } else if c1.is_zero() {
        let g = decompose(c0, None, b, memo);
        b.and(x ^ 1, g)
    } else if c0.is_zero() {
        let g = decompose(c1, None, b, memo);
        b.and(x, g)
    } else if c0.is_one() {
        let g = decompose(c1, None, b, memo);
        b.or(x ^ 1, g)
    } else if c0 == !c1 {
        let g = decompose(c0, None, b, memo);
        b.xor(x, g)
    } else {
        let g1 = decompose(c1, None, b, memo);
        let g0 = decompose(c0, None, b, memo);
        let t = b.and(x, g1);
        let e = b.and(x ^ 1, g0);
        b.or(t, e)
    };
    memo.insert(f, lit);
    lit
}

/// A cut function's canonization: the support it shrinks to and the NPN
/// transform of the shrunk function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutCanon {
    /// `kept[i]` is the cut variable that shrunk variable `i` came from,
    /// for `i < num_vars`.
    pub kept: [u8; 4],
    /// Size of the function's support.
    pub num_vars: usize,
    /// The NPN transform of the shrunk function.
    pub npn: NpnCanon,
}

impl CutCanon {
    /// Shrinks `func` to its support and canonizes the result.
    fn of(func: TruthTable) -> Self {
        let (shrunk, vars) = func.shrink_to_support();
        let mut kept = [0u8; 4];
        for (k, &v) in kept.iter_mut().zip(&vars) {
            *k = v as u8;
        }
        CutCanon {
            kept,
            num_vars: vars.len(),
            npn: npn_canonical(shrunk),
        }
    }
}

/// The NPN-class → subgraph table plus the cut-function canonization memo.
/// Thread-safe; obtain the process-wide instance with
/// [`RewriteTable::global`].
#[derive(Debug, Default)]
pub struct RewriteTable {
    classes: Mutex<HashMap<TruthTable, Arc<Program>>>,
    /// Cut function → canonization. Holds no programs, so
    /// [`RewriteTable::insert`] can never leave a stale one behind. FNV
    /// keying: truth tables are short fixed-width non-adversarial keys.
    canons: Mutex<FnvHashMap<TruthTable, CutCanon>>,
}

impl RewriteTable {
    /// The process-wide table, seeded on first use.
    pub fn global() -> &'static RewriteTable {
        static TABLE: OnceLock<RewriteTable> = OnceLock::new();
        TABLE.get_or_init(RewriteTable::seeded)
    }

    /// A fresh table containing only the hand-minimized seed entries.
    pub fn seeded() -> Self {
        let table = RewriteTable::default();
        // MAJ3 in four ANDs: maj(a,b,c) = (a&b) | (c & (a|b)). The generic
        // Shannon decomposition finds the five-AND form; this one is the
        // optimum and what makes full-adder carry chains shrink.
        let mut b = ProgramBuilder::new(3);
        let (a, bb, c) = (b.input(0), b.input(1), b.input(2));
        let ab = b.and(a, bb);
        let aob = b.or(a, bb);
        let t = b.and(c, aob);
        let out = b.or(ab, t);
        table.insert(TruthTable::maj3(), b.finish(out));
        table
    }

    /// Registers `prog` (which must compute `f`) under `f`'s NPN class,
    /// keeping it only if it beats the current entry.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `prog` does not compute `f`.
    pub fn insert(&self, f: TruthTable, prog: Program) {
        debug_assert_eq!(prog.eval(), f, "table entry must compute its function");
        let c = npn_canonical(f);
        let canon_prog = prog.apply_transform(&c.perm, c.input_neg, c.output_neg);
        debug_assert_eq!(
            canon_prog.eval(),
            c.canon,
            "transformed entry must compute the canonical function"
        );
        let mut classes = self.classes.lock().expect("table lock");
        match classes.get(&c.canon) {
            Some(existing) if existing.len() <= canon_prog.len() => {}
            _ => {
                classes.insert(c.canon, Arc::new(canon_prog));
            }
        }
    }

    /// The implementation of the NPN class of `canon` (which must already
    /// be a canonical representative, as produced by [`npn_canonical`]).
    /// Synthesizes and caches the class on first request.
    pub fn lookup(&self, canon: TruthTable) -> Arc<Program> {
        if let Some(p) = self.classes.lock().expect("table lock").get(&canon) {
            return p.clone();
        }
        let prog = Arc::new(synthesize(canon));
        let mut classes = self.classes.lock().expect("table lock");
        classes.entry(canon).or_insert_with(|| prog.clone()).clone()
    }

    /// The canonization of cut function `func`: its support and the NPN
    /// transform of the function shrunk to it, computed on the first
    /// request to this table and memoized.
    ///
    /// # Panics
    ///
    /// Panics if `func`'s support has more than four variables.
    pub fn canonize(&self, func: TruthTable) -> CutCanon {
        if let Some(&c) = self.canons.lock().expect("canon memo lock").get(&func) {
            return c;
        }
        // Computed outside the lock, so a panic here cannot poison it.
        let c = CutCanon::of(func);
        self.canons.lock().expect("canon memo lock").insert(func, c);
        c
    }

    /// Number of cut functions canonized so far (diagnostic).
    pub fn canonized_len(&self) -> usize {
        self.canons.lock().expect("canon memo lock").len()
    }

    /// Number of classes currently materialized (diagnostic).
    pub fn len(&self) -> usize {
        self.classes.lock().expect("table lock").len()
    }

    /// Returns `true` if no class has been materialized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_simplifies_like_aig() {
        let mut b = ProgramBuilder::new(2);
        let x = b.input(0);
        assert_eq!(b.and(x, P_FALSE), P_FALSE);
        assert_eq!(b.and(P_TRUE, x), x);
        assert_eq!(b.and(x, x), x);
        assert_eq!(b.and(x, x ^ 1), P_FALSE);
        let y = b.input(1);
        let a1 = b.and(x, y);
        let a2 = b.and(y, x);
        assert_eq!(a1, a2, "strash shares steps");
        assert_eq!(b.finish(a1).len(), 1);
    }

    #[test]
    fn program_eval_and_build_agree() {
        let f = TruthTable::from_bits(3, 0b1101_1000);
        let prog = synthesize(f);
        assert_eq!(prog.eval(), f);
        let mut g = Aig::new();
        let ins: Vec<Lit> = (0..3).map(|_| g.add_pi()).collect();
        let out = prog.build(&mut g, &ins);
        g.add_po(out);
        for idx in 0..8usize {
            let bits: Vec<bool> = (0..3).map(|i| idx >> i & 1 == 1).collect();
            assert_eq!(g.eval(&bits)[0], f.get(idx), "assignment {idx}");
        }
    }

    #[test]
    fn seeded_maj_is_four_ands() {
        let table = RewriteTable::seeded();
        let canon = npn_canonical(TruthTable::maj3());
        assert_eq!(table.lookup(canon.canon).len(), 4);
        // The complemented majority lives in the same class.
        let canon_neg = npn_canonical(!TruthTable::maj3());
        assert_eq!(canon.canon, canon_neg.canon);
    }

    #[test]
    fn every_3var_class_synthesizes_correctly() {
        let table = RewriteTable::seeded();
        for bits in 0u64..256 {
            let f = TruthTable::from_bits(3, bits);
            let c = npn_canonical(f);
            let prog = table.lookup(c.canon);
            assert_eq!(prog.eval(), c.canon, "class of {bits:#04x}");
        }
        // 14 NPN classes of 3-variable functions.
        assert_eq!(table.len(), 14);
    }

    #[test]
    fn random_4var_classes_synthesize_correctly() {
        let table = RewriteTable::seeded();
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for _ in 0..200 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let f = TruthTable::from_bits(4, state);
            let c = npn_canonical(f);
            assert_eq!(table.lookup(c.canon).eval(), c.canon);
        }
    }

    #[test]
    fn canonize_memoizes_the_shrunk_transform() {
        let table = RewriteTable::default();
        // a & c over three cut variables: b is outside the support.
        let f = TruthTable::var(3, 0) & TruthTable::var(3, 2);
        let c = table.canonize(f);
        assert_eq!((c.num_vars, &c.kept[..2]), (2, &[0u8, 2][..]));
        assert_eq!(c.npn, npn_canonical(f.shrink_to_support().0));
        assert_eq!(table.canonize(f), c);
        assert_eq!(table.canonized_len(), 1);
    }

    #[test]
    fn insert_keeps_the_smaller_program() {
        let table = RewriteTable::default();
        // Generic synthesis of maj3 (5 ANDs) first…
        let canon = npn_canonical(TruthTable::maj3());
        let generic = table.lookup(canon.canon);
        assert!(generic.len() >= 4);
        // …then the hand entry wins only if smaller.
        let mut b = ProgramBuilder::new(3);
        let (a, bb, c) = (b.input(0), b.input(1), b.input(2));
        let ab = b.and(a, bb);
        let aob = b.or(a, bb);
        let t = b.and(c, aob);
        let out = b.or(ab, t);
        table.insert(TruthTable::maj3(), b.finish(out));
        assert_eq!(table.lookup(canon.canon).len(), 4.min(generic.len()));
    }
}
