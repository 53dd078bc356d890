//! A CDCL SAT solver.
//!
//! Conflict-driven clause learning with two-watched-literal propagation,
//! VSIDS-style variable activities, first-UIP clause learning and Luby
//! restarts. It discharges the equivalence-checking miters of `sfq-opt`
//! (the paper relies on OR-Tools; this workspace builds its own solvers —
//! DESIGN.md §2).
//!
//! # Examples
//!
//! ```
//! use sfq_solver::sat::{SatSolver, SatLit};
//!
//! let mut s = SatSolver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause([SatLit::pos(a), SatLit::pos(b)]);
//! s.add_clause([SatLit::neg(a)]);
//! let model = s.solve().expect("satisfiable");
//! assert!(!model[a.index()] && model[b.index()]);
//! ```

use std::fmt;

/// A propositional variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SatVar(u32);

impl SatVar {
    /// Index into model vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A literal: variable plus polarity.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SatLit(u32);

impl SatLit {
    /// Positive literal of `v`.
    pub fn pos(v: SatVar) -> Self {
        SatLit(v.0 << 1)
    }

    /// Negative literal of `v`.
    pub fn neg(v: SatVar) -> Self {
        SatLit(v.0 << 1 | 1)
    }

    /// The underlying variable.
    pub fn var(self) -> SatVar {
        SatVar(self.0 >> 1)
    }

    /// Returns `true` for a negative literal.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    fn index(self) -> usize {
        self.0 as usize
    }

    fn negate(self) -> SatLit {
        SatLit(self.0 ^ 1)
    }
}

impl std::ops::Not for SatLit {
    type Output = SatLit;
    fn not(self) -> SatLit {
        self.negate()
    }
}

impl fmt::Debug for SatLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}",
            if self.is_neg() { "¬" } else { "" },
            self.var().0
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Value {
    True,
    False,
    Unassigned,
}

impl Value {
    fn from_bool(b: bool) -> Value {
        if b {
            Value::True
        } else {
            Value::False
        }
    }
}

type ClauseRef = usize;

/// Result of a (possibly budget-limited) solve call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveOutcome {
    /// Satisfiable, with a full model indexed by [`SatVar::index`].
    Sat(Vec<bool>),
    /// Proven unsatisfiable.
    Unsat,
    /// The conflict budget ran out before an answer was found.
    Unknown,
}

/// CDCL SAT solver.
#[derive(Debug, Default)]
pub struct SatSolver {
    clauses: Vec<Vec<SatLit>>,
    /// watches[lit.index()] = clauses watching `lit`.
    watches: Vec<Vec<ClauseRef>>,
    assign: Vec<Value>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<SatLit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    activity: Vec<f64>,
    act_inc: f64,
    /// Saved phases for phase saving.
    phase: Vec<bool>,
    ok: bool,
    /// Statistics: number of conflicts encountered.
    pub conflicts: u64,
    /// Statistics: number of decisions taken.
    pub decisions: u64,
    /// Statistics: number of propagated literals.
    pub propagations: u64,
}

impl SatSolver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        SatSolver {
            act_inc: 1.0,
            ok: true,
            ..Default::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> SatVar {
        let v = SatVar(self.assign.len() as u32);
        self.assign.push(Value::Unassigned);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Adds a clause (an iterator of literals). An empty clause makes the
    /// instance trivially unsatisfiable.
    pub fn add_clause<I: IntoIterator<Item = SatLit>>(&mut self, lits: I) {
        if !self.ok {
            return;
        }
        let mut c: Vec<SatLit> = lits.into_iter().collect();
        c.sort_by_key(|l| l.0);
        c.dedup();
        // Tautology check.
        if c.windows(2).any(|w| w[0] == !w[1]) {
            return;
        }
        debug_assert_eq!(self.trail_lim.len(), 0, "clauses must be added at level 0");
        // Remove literals already false at level 0; detect satisfied clauses.
        c.retain(|&l| self.value(l) != Value::False);
        if c.iter().any(|&l| self.value(l) == Value::True) {
            return;
        }
        match c.len() {
            0 => self.ok = false,
            1 => {
                if !self.enqueue(c[0], None) || self.propagate().is_some() {
                    self.ok = false;
                }
            }
            _ => {
                let idx = self.clauses.len();
                self.watches[c[0].negate().index()].push(idx);
                self.watches[c[1].negate().index()].push(idx);
                self.clauses.push(c);
            }
        }
    }

    fn value(&self, l: SatLit) -> Value {
        match self.assign[l.var().index()] {
            Value::Unassigned => Value::Unassigned,
            Value::True => Value::from_bool(!l.is_neg()),
            Value::False => Value::from_bool(l.is_neg()),
        }
    }

    fn enqueue(&mut self, l: SatLit, reason: Option<ClauseRef>) -> bool {
        match self.value(l) {
            Value::True => true,
            Value::False => false,
            Value::Unassigned => {
                let v = l.var().index();
                self.assign[v] = Value::from_bool(!l.is_neg());
                self.level[v] = self.trail_lim.len() as u32;
                self.reason[v] = reason;
                self.phase[v] = !l.is_neg();
                self.trail.push(l);
                self.propagations += 1;
                true
            }
        }
    }

    /// Unit propagation; returns a conflicting clause on conflict.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.prop_head < self.trail.len() {
            let p = self.trail[self.prop_head];
            self.prop_head += 1;
            // Clauses watching ¬p (stored under p's index by convention above:
            // we registered watch under `lit.negate()`, so watches[p.index()]
            // holds clauses where p's falsification matters).
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut i = 0;
            while i < ws.len() {
                let cref = ws[i];
                let false_lit = !p;
                // Ensure false_lit is at position 1.
                {
                    let c = &mut self.clauses[cref];
                    if c[0] == false_lit {
                        c.swap(0, 1);
                    }
                }
                let first = self.clauses[cref][0];
                if self.value(first) == Value::True {
                    i += 1;
                    continue;
                }
                // Find a new watch.
                let mut moved = false;
                for k in 2..self.clauses[cref].len() {
                    let lk = self.clauses[cref][k];
                    if self.value(lk) != Value::False {
                        self.clauses[cref].swap(1, k);
                        self.watches[lk.negate().index()].push(cref);
                        ws.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                if !self.enqueue(first, Some(cref)) {
                    // Conflict: restore remaining watches.
                    self.watches[p.index()].append(&mut ws);
                    return Some(cref);
                }
                i += 1;
            }
            self.watches[p.index()] = ws;
        }
        None
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.act_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.act_inc *= 1e-100;
        }
    }

    fn decay(&mut self) {
        self.act_inc /= 0.95;
    }

    /// First-UIP conflict analysis. Returns (learnt clause, backjump level).
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<SatLit>, u32) {
        let cur_level = self.trail_lim.len() as u32;
        let mut learnt: Vec<SatLit> = vec![SatLit(0)]; // placeholder for UIP
        let mut seen = vec![false; self.num_vars()];
        let mut counter = 0usize;
        let mut p: Option<SatLit> = None;
        let mut cref = confl;
        let mut idx = self.trail.len();

        loop {
            let start = usize::from(p.is_some());
            for k in start..self.clauses[cref].len() {
                let q = self.clauses[cref][k];
                let v = q.var().index();
                if !seen[v] && self.level[v] > 0 {
                    seen[v] = true;
                    self.bump(v);
                    if self.level[v] == cur_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find next literal on the trail to resolve on.
            loop {
                idx -= 1;
                let l = self.trail[idx];
                if seen[l.var().index()] {
                    p = Some(l);
                    break;
                }
            }
            counter -= 1;
            if counter == 0 {
                break;
            }
            cref = self.reason[p.unwrap().var().index()].expect("resolved literal has a reason");
            seen[p.unwrap().var().index()] = false;
        }
        learnt[0] = !p.unwrap();
        // Backjump level = max level among non-UIP literals; move that
        // literal into watch position 1 (standard MiniSat invariant).
        let mut bj = 0u32;
        let mut max_idx = 1usize;
        for (k, l) in learnt.iter().enumerate().skip(1) {
            let lv = self.level[l.var().index()];
            if lv > bj {
                bj = lv;
                max_idx = k;
            }
        }
        if learnt.len() > 1 {
            learnt.swap(1, max_idx);
        }
        (learnt, bj)
    }

    fn backtrack(&mut self, level: u32) {
        while self.trail_lim.len() as u32 > level {
            let lim = self.trail_lim.pop().unwrap();
            while self.trail.len() > lim {
                let l = self.trail.pop().unwrap();
                let v = l.var().index();
                self.assign[v] = Value::Unassigned;
                self.reason[v] = None;
            }
        }
        self.prop_head = self.trail.len();
    }

    fn pick_branch(&self) -> Option<SatLit> {
        let mut best: Option<(usize, f64)> = None;
        for v in 0..self.num_vars() {
            if self.assign[v] == Value::Unassigned {
                let a = self.activity[v];
                if best.is_none_or(|(_, ba)| a > ba) {
                    best = Some((v, a));
                }
            }
        }
        best.map(|(v, _)| {
            let var = SatVar(v as u32);
            if self.phase[v] {
                SatLit::pos(var)
            } else {
                SatLit::neg(var)
            }
        })
    }

    /// Solves the instance. Returns `Some(model)` (indexed by
    /// [`SatVar::index`]) if satisfiable, `None` if unsatisfiable.
    pub fn solve(&mut self) -> Option<Vec<bool>> {
        match self.solve_limited(None) {
            SolveOutcome::Sat(model) => Some(model),
            SolveOutcome::Unsat => None,
            SolveOutcome::Unknown => unreachable!("unbounded solve cannot time out"),
        }
    }

    /// Solves with an optional conflict budget.
    ///
    /// With `max_conflicts = None` this is exactly [`SatSolver::solve`].
    /// With a budget, the search gives up after that many additional
    /// conflicts and returns [`SolveOutcome::Unknown`], leaving the solver
    /// at decision level zero with its learnt clauses intact, so callers
    /// (e.g. SAT sweeping in `sfq-opt`) can treat a blown budget as "not
    /// proven" and move on — or call again to continue with a fresh budget.
    pub fn solve_limited(&mut self, max_conflicts: Option<u64>) -> SolveOutcome {
        if !self.ok {
            return SolveOutcome::Unsat;
        }
        if self.propagate().is_some() {
            self.ok = false;
            return SolveOutcome::Unsat;
        }
        let budget = max_conflicts.map(|m| self.conflicts.saturating_add(m));
        let mut restart_count = 0u32;
        let mut conflicts_until_restart = luby(restart_count) * 100;
        loop {
            if let Some(confl) = self.propagate() {
                self.conflicts += 1;
                if self.trail_lim.is_empty() {
                    self.ok = false;
                    return SolveOutcome::Unsat;
                }
                if budget.is_some_and(|b| self.conflicts >= b) {
                    self.backtrack(0);
                    return SolveOutcome::Unknown;
                }
                let (learnt, bj) = self.analyze(confl);
                self.backtrack(bj);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    let ok = self.enqueue(asserting, None);
                    debug_assert!(ok, "asserting unit must be enqueueable");
                } else {
                    let idx = self.clauses.len();
                    self.watches[learnt[0].negate().index()].push(idx);
                    self.watches[learnt[1].negate().index()].push(idx);
                    self.clauses.push(learnt);
                    let ok = self.enqueue(asserting, Some(idx));
                    debug_assert!(ok, "asserting literal must be enqueueable");
                }
                self.decay();
                if conflicts_until_restart > 0 {
                    conflicts_until_restart -= 1;
                } else {
                    restart_count += 1;
                    conflicts_until_restart = luby(restart_count) * 100;
                    self.backtrack(0);
                }
            } else {
                match self.pick_branch() {
                    None => {
                        // Full assignment: extract model.
                        return SolveOutcome::Sat(
                            self.assign.iter().map(|&v| v == Value::True).collect(),
                        );
                    }
                    Some(l) => {
                        self.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(l, None);
                        debug_assert!(ok, "decision variable was unassigned");
                    }
                }
            }
        }
    }
}

/// Luby restart sequence (1,1,2,1,1,2,4,...).
fn luby(i: u32) -> u64 {
    let mut k = 1u32;
    while (1u64 << (k + 1)) - 1 <= (i as u64) + 1 {
        k += 1;
    }
    let mut i = i as u64;
    let mut kk = k;
    loop {
        if i + 1 == (1u64 << kk) - 1 {
            return 1u64 << (kk - 1);
        }
        if i + 1 < (1u64 << kk) - 1 {
            kk -= 1;
            if kk == 0 {
                return 1;
            }
            continue;
        }
        i -= (1u64 << kk) - 1;
        // Restart scan for the remainder.
        kk = 1;
        while (1u64 << (kk + 1)) - 1 <= i + 1 {
            kk += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(s: &mut SatSolver, n: usize) -> Vec<SatVar> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivial_sat() {
        let mut s = SatSolver::new();
        let v = lits(&mut s, 2);
        s.add_clause([SatLit::pos(v[0])]);
        s.add_clause([SatLit::neg(v[1])]);
        let m = s.solve().unwrap();
        assert!(m[0] && !m[1]);
    }

    #[test]
    fn trivial_unsat() {
        let mut s = SatSolver::new();
        let v = lits(&mut s, 1);
        s.add_clause([SatLit::pos(v[0])]);
        s.add_clause([SatLit::neg(v[0])]);
        assert!(s.solve().is_none());
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = SatSolver::new();
        let _ = lits(&mut s, 1);
        s.add_clause([]);
        assert!(s.solve().is_none());
    }

    #[test]
    fn implication_chain() {
        // a, a→b, b→c, ..., forces all true.
        let mut s = SatSolver::new();
        let v = lits(&mut s, 10);
        s.add_clause([SatLit::pos(v[0])]);
        for i in 0..9 {
            s.add_clause([SatLit::neg(v[i]), SatLit::pos(v[i + 1])]);
        }
        let m = s.solve().unwrap();
        assert!(m.iter().all(|&b| b));
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // PHP(3,2): 3 pigeons, 2 holes. x[p][h] = pigeon p in hole h.
        let mut s = SatSolver::new();
        let mut x = [[SatVar(0); 2]; 3];
        for row in x.iter_mut() {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &x {
            s.add_clause([SatLit::pos(row[0]), SatLit::pos(row[1])]);
        }
        for (p1, row1) in x.iter().enumerate() {
            for row2 in &x[p1 + 1..] {
                for (&a, &b) in row1.iter().zip(row2) {
                    s.add_clause([SatLit::neg(a), SatLit::neg(b)]);
                }
            }
        }
        assert!(s.solve().is_none());
    }

    #[test]
    fn pigeonhole_4_into_4_sat() {
        let n = 4;
        let mut s = SatSolver::new();
        let mut x = vec![vec![SatVar(0); n]; n];
        for row in x.iter_mut() {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &x {
            s.add_clause(row.iter().map(|&v| SatLit::pos(v)));
        }
        for (p1, row1) in x.iter().enumerate() {
            for row2 in &x[p1 + 1..] {
                for (&a, &b) in row1.iter().zip(row2) {
                    s.add_clause([SatLit::neg(a), SatLit::neg(b)]);
                }
            }
        }
        let m = s.solve().unwrap();
        // Verify it is a perfect matching.
        for h in 0..n {
            let count = (0..n).filter(|&p| m[x[p][h].index()]).count();
            assert!(count <= 1, "hole {h} hosts {count} pigeons");
        }
        for p in 0..n {
            assert!((0..n).any(|h| m[x[p][h].index()]), "pigeon {p} unplaced");
        }
    }

    #[test]
    fn random_3sat_vs_brute_force() {
        // Cross-check SAT/UNSAT answers against exhaustive enumeration for
        // random small formulas.
        let mut seed = 0xdeadbeefu64;
        let mut next = move |m: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % m
        };
        for trial in 0..60 {
            let nv = 6;
            let nc = 3 + (trial % 20);
            let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
            for _ in 0..nc {
                let mut cl = Vec::new();
                for _ in 0..3 {
                    cl.push((next(nv as u64) as usize, next(2) == 1));
                }
                clauses.push(cl);
            }
            // Brute force.
            let mut any = false;
            'outer: for m in 0..(1u32 << nv) {
                for cl in &clauses {
                    if !cl.iter().any(|&(v, neg)| ((m >> v) & 1 == 1) != neg) {
                        continue 'outer;
                    }
                }
                any = true;
                break;
            }
            // CDCL.
            let mut s = SatSolver::new();
            let vars = lits(&mut s, nv);
            for cl in &clauses {
                s.add_clause(cl.iter().map(|&(v, neg)| {
                    if neg {
                        SatLit::neg(vars[v])
                    } else {
                        SatLit::pos(vars[v])
                    }
                }));
            }
            let res = s.solve();
            assert_eq!(
                res.is_some(),
                any,
                "trial {trial} disagrees with brute force"
            );
            if let Some(model) = res {
                for cl in &clauses {
                    assert!(
                        cl.iter().any(|&(v, neg)| model[vars[v].index()] != neg),
                        "model violates clause"
                    );
                }
            }
        }
    }

    #[test]
    fn solve_limited_gives_up_then_finishes() {
        // PHP(5,4) needs plenty of conflicts: a one-conflict budget must
        // come back Unknown, and an unbounded follow-up call on the same
        // solver must still prove UNSAT.
        let n = 5;
        let mut s = SatSolver::new();
        let mut x = vec![vec![SatVar(0); n - 1]; n];
        for row in x.iter_mut() {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &x {
            s.add_clause(row.iter().map(|&v| SatLit::pos(v)));
        }
        for (p1, row1) in x.iter().enumerate() {
            for row2 in &x[p1 + 1..] {
                for (&a, &b) in row1.iter().zip(row2) {
                    s.add_clause([SatLit::neg(a), SatLit::neg(b)]);
                }
            }
        }
        assert_eq!(s.solve_limited(Some(1)), SolveOutcome::Unknown);
        assert_eq!(s.solve_limited(None), SolveOutcome::Unsat);
    }

    #[test]
    fn solve_limited_sat_matches_solve() {
        let mut s = SatSolver::new();
        let v = lits(&mut s, 3);
        s.add_clause([SatLit::pos(v[0]), SatLit::pos(v[1])]);
        s.add_clause([SatLit::neg(v[0]), SatLit::pos(v[2])]);
        match s.solve_limited(Some(10_000)) {
            SolveOutcome::Sat(m) => assert!((m[0] && m[2]) || m[1]),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u32), e, "luby({i})");
        }
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = SatSolver::new();
        let v = lits(&mut s, 2);
        s.add_clause([SatLit::pos(v[0]), SatLit::pos(v[0])]);
        s.add_clause([SatLit::pos(v[1]), SatLit::neg(v[1])]); // tautology: ignored
        let m = s.solve().unwrap();
        assert!(m[0]);
    }
}
