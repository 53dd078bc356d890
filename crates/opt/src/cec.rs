//! Combinational equivalence checking (CEC): the verification guard of the
//! optimization subsystem.
//!
//! [`check_equivalence`] decides whether two AIGs with matching interfaces
//! compute the same functions, in three escalating stages:
//!
//! 1. **Random-simulation prefilter** — both networks are evaluated on
//!    packed 64-bit pattern words ([`Aig::eval64`]); any mismatch yields a
//!    concrete counterexample without touching the solver.
//! 2. **SAT sweeping** — the output cones of both networks are rebuilt
//!    into one shared, structurally hashed network
//!    ([`Aig::mark_output_cones`]: logic no output reads is never copied,
//!    since outputs depend only on their cones); internal nodes whose
//!    simulation signatures collide (modulo complement) are proven
//!    equivalent and merged, so locally rewritten regions collapse back
//!    onto the original structure. A candidate pair whose cones meet on a
//!    cut of at most six nodes is proven by comparing its truth tables over
//!    that cut (cut sweeping); any other goes to a small SAT query against
//!    `sfq_solver::sat`, bounded to a window of 200 AND nodes and 500
//!    conflicts (a node asks at most 8 such queries before it joins its
//!    class unmerged). Output pairs that merge to the
//!    same literal are proven structurally. Refuted queries are not
//!    wasted: their distinguishing patterns are simulated back into the
//!    signatures (counterexample-guided refinement, the classic fraiging
//!    loop), so an alias class — nodes that 256 random patterns cannot
//!    tell apart — splits after one refutation instead of being refuted
//!    pairwise.
//! 3. **Miter SAT** — any still-unresolved output pair goes into a final
//!    miter (XOR per pair, OR over pairs, assert true), solved without a
//!    budget; UNSAT proves equivalence, a model is a counterexample.
//!
//! The window, the budgets and the pattern seed are constants of this
//! module; [`CecConfig`] sets only the prefilter length. So a check always
//! ends in a proof or a counterexample, and [`CecVerdict::Unknown`] means
//! a miter model that did not replay on the two networks (an unsound
//! merge, which the sweep rules out by construction).
//!
//! The sweep makes the check scale to the paper's benchmarks: after cut
//! rewriting the two networks differ only in small local cones, each
//! discharged by a SAT query over a few dozen clauses.
//!
//! The pass-by-pass guard ([`crate::optimize_verified`]) calls the check
//! only for passes that changed the network: a pass whose output is its
//! input node for node ([`Aig::is_identical`]) is the identity and needs
//! no proof. Its checks form a chain N₀ → N₁ → …, the `before` of each
//! the `after` of the one before it, and they share one sweep space
//! (`CecSession`): Nₖ is swept once, as the `after` of its check, and
//! absorbing it again as the next `before` finds every node of its cones
//! already in the joint network, swept and resolved — one structural-hash
//! lookup per node, no signature, class scan or query. Every merge is
//! still a proven equivalence of two joint nodes, so a reused space
//! proves only true equivalences. Each check draws the same patterns from
//! one fixed seed, and its [`CecStats`] count its own work.
//!
//! **The miter rule.** The final miter only runs over a space that holds
//! just the check's two networks. A check in a reused space absorbs its
//! `after` network one output cone at a time; at the first output pair it
//! leaves unresolved, it drops that space and starts over in a fresh one
//! ([`CecStats::restarts`]), which the later checks reuse. From there the
//! check is [`check_equivalence`] exactly: same patterns, same queries,
//! same verdict and counterexample. A reused space never refutes a pair,
//! so every counterexample comes from the prefilter or a fresh space. A
//! miter over a reused space would encode cones mixed from every earlier
//! network of the chain: a probe without this rule took `opt sin 16
//! --fixpoint --verify` 396 s, against ≈15 s with it, on a 2-vCPU host.
//!
//! # Cost model
//!
//! The sweep costs O(output cones), not O(network): dangling logic gets
//! no signature, class, SAT query or refinement walk. That matters for
//! the check of a `sweep` pass, whose input can be mostly dead (on the
//! 10k-gate random net, 14,759 of 15,936 ANDs). Only the prefilter still
//! simulates every node slot.
//!
//! A check in a reused space sweeps only what its `after` network changed,
//! but the space outlives the check and grows by every node a checked
//! network added without merging (`opt multiplier`: 19,038 joint nodes
//! after five checks, from a 12,286-slot subject). Its memory is sized for
//! that: one 48-byte slot per joint node (signature, refinement word,
//! canonical literal, class link), and class lists kept as a map from a
//! 64-bit signature digest to a `(head, tail)` pair of node ids threaded
//! through the slots, with no allocation per class. The 64 refinement
//! patterns belong to the space, so a long run feeds back fewer of them
//! (c6288: 64 instead of 233), yet asks fewer queries.
//!
//! Most candidates are a rewritten site and the cone it replaced. The two
//! meet on the site's at most four leaves, so a truth table over that cut
//! proves them in a few dozen word operations, where a SAT query costs
//! ≈25 µs (`opt multiplier`: 2,871 of 2,951 merges are cut proofs, and
//! the sweep asks 562 SAT queries instead of 3,433). The cut walk expands
//! at most 32 nodes and gives up past 10 frontier nodes, in fixed-size
//! buffers on the stack, so it allocates nothing. A pair it cannot prove
//! goes on to the SAT query unchanged, and the pairs it proves are ones
//! the query proves too: on the CI subjects the merges, refinements and
//! verdicts are those of the solver alone.
//!
//! A sweep query costs O(cone), not O(network): one space owns one
//! encoder — a SAT solver, a node→variable map, queued marks and the BFS
//! queue — and every query resets it. The solver's
//! [`SatSolver::reset`] keeps its allocations; the map and the marks are
//! cleared through the list of nodes the previous query touched, so
//! nothing network-sized is allocated or scanned per query. A reset
//! encoder creates variables and clauses in the same order as a fresh one,
//! so each query's search, model and answer do not depend on the queries
//! before it.

use crate::util::mapped;
use sfq_netlist::aig::{Aig, Lit, NodeId, NodeKind};
use sfq_netlist::fnv::{Fnv1a, FnvHashMap};
use sfq_netlist::truth_table::TruthTable;
use sfq_solver::sat::{SatLit, SatSolver, SatVar, SolveOutcome};
use std::collections::hash_map::Entry;
use std::fmt;
use std::hash::Hasher;

/// Words per simulation signature (4 × 64 = 256 patterns per node).
const SIG_WORDS: usize = 4;

/// Maximum AND nodes encoded per sweep query; logic beyond the window is
/// abstracted to free variables (sound: abstraction can only lose merges,
/// never create false ones).
const SWEEP_WINDOW: usize = 200;
/// Conflict budget per sweep query; a blown budget just skips the merge.
const SWEEP_CONFLICTS: u64 = 500;
/// SAT queries a fresh node asks of its class before it joins it unmerged.
const QUERIES_PER_NODE: usize = 8;
/// Seed of the deterministic pattern generator.
const SEED: u64 = 0x5FC5_EC0D_E5EE_D001;

/// Parameters of the equivalence check: the length of the simulation
/// prefilter. Everything else (the sweep's window and budgets, the pattern
/// seed) is fixed, see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CecConfig {
    /// 64-pattern words used by the simulation prefilter: 16 by default,
    /// 0 leaves every counterexample to the sweep and the miter.
    pub sim_words: usize,
}

impl Default for CecConfig {
    fn default() -> Self {
        CecConfig { sim_words: 16 }
    }
}

/// Why the two networks cannot be compared at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CecError {
    /// Different primary-input counts.
    PiMismatch(usize, usize),
    /// Different primary-output counts.
    PoMismatch(usize, usize),
}

impl fmt::Display for CecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CecError::PiMismatch(a, b) => write!(f, "input count mismatch: {a} vs {b} PIs"),
            CecError::PoMismatch(a, b) => write!(f, "output count mismatch: {a} vs {b} POs"),
        }
    }
}

impl std::error::Error for CecError {}

/// The check's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CecVerdict {
    /// The networks compute identical functions.
    Equivalent,
    /// They differ on the contained input assignment (one `bool` per PI).
    NotEquivalent(Vec<bool>),
    /// No proof either way. A check answers this only when a miter model
    /// does not replay on the networks, which an unsound merge would
    /// cause; [`crate::optimize_verified`] also reports it for a pass that
    /// changed the PI/PO interface (a [`CecError`] to the check).
    Unknown,
}

/// Work counters of one check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CecStats {
    /// Simulation words evaluated by the prefilter.
    pub sim_words: usize,
    /// Output pairs proven by hashing/sweeping alone.
    pub structural_matches: usize,
    /// Internal equivalences proven and merged during sweeping.
    pub sweep_merges: usize,
    /// Sweep merges proven by a truth table over a small shared cut, with
    /// no SAT query (see the module docs).
    pub cut_proofs: usize,
    /// SAT solver calls (sweep queries and the miter).
    pub sat_queries: usize,
    /// Counterexample patterns fed back into the signatures.
    pub refinements: usize,
    /// Sweep candidates dismissed by a refined-signature mismatch —
    /// each one is a SAT query the refinement saved.
    pub alias_skips: usize,
    /// Whether the final miter was needed.
    pub used_final_sat: bool,
    /// Checks that left an output pair unresolved in a reused sweep space
    /// and started over in a fresh one (see the module docs).
    pub restarts: usize,
}

impl CecStats {
    /// Accumulates another check's counters (used by the pass-by-pass
    /// verification of `optimize_verified`).
    pub fn absorb(&mut self, other: &CecStats) {
        self.sim_words += other.sim_words;
        self.structural_matches += other.structural_matches;
        self.sweep_merges += other.sweep_merges;
        self.cut_proofs += other.cut_proofs;
        self.sat_queries += other.sat_queries;
        self.refinements += other.refinements;
        self.alias_skips += other.alias_skips;
        self.used_final_sat |= other.used_final_sat;
        self.restarts += other.restarts;
    }
}

/// Verdict plus counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CecOutcome {
    /// The answer.
    pub verdict: CecVerdict,
    /// Work counters.
    pub stats: CecStats,
}

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Marks an empty entry of a node-indexed `u32` table.
const NONE: u32 = u32::MAX;

/// Tseitin encoder with window-bounded cone collection, reused by every
/// query of one sweep space (see the module's cost model).
#[derive(Default)]
struct Encoder {
    solver: SatSolver,
    /// Per-node position in `touched` of the node's variable in the
    /// current query, `NONE` for a node without one.
    vars: Vec<u32>,
    /// The nodes with a variable in the current query, with that variable.
    touched: Vec<(NodeId, SatVar)>,
    /// Per-node "already queued" marks of the current query.
    queued: Vec<bool>,
    /// Breadth-first queue of the current query. Popping only advances a
    /// head index, so the vector also lists every node marked in `queued`.
    queue: Vec<NodeId>,
}

impl Encoder {
    /// Empties the encoder for a query over `aig`, in time proportional to
    /// the previous query.
    fn reset(&mut self, aig: &Aig) {
        self.solver.reset();
        for (n, _) in self.touched.drain(..) {
            self.vars[n.index()] = NONE;
        }
        for n in self.queue.drain(..) {
            self.queued[n.index()] = false;
        }
        self.vars.resize(aig.len(), NONE);
        self.queued.resize(aig.len(), false);
    }

    /// The node's variable in the current query, if it has one.
    fn var_of(&self, n: NodeId) -> Option<SatVar> {
        let slot = self.vars[n.index()];
        (slot != NONE).then(|| self.touched[slot as usize].1)
    }

    fn var(&mut self, n: NodeId) -> SatVar {
        if let Some(v) = self.var_of(n) {
            return v;
        }
        let v = self.solver.new_var();
        self.vars[n.index()] = self.touched.len() as u32;
        self.touched.push((n, v));
        if n == NodeId::CONST0 {
            self.solver.add_clause([SatLit::neg(v)]);
        }
        v
    }

    fn lit(&mut self, l: Lit) -> SatLit {
        let v = self.var(l.node());
        if l.is_complement() {
            SatLit::neg(v)
        } else {
            SatLit::pos(v)
        }
    }

    /// Emits AND constraints for up to `window` AND nodes of the transitive
    /// fanin of `roots`; everything beyond stays a free variable.
    ///
    /// The cone is collected breadth-first, so a bounded window covers the
    /// neighborhoods of *all* roots evenly — with depth-first collection a
    /// deep chain under the first root would eat the whole budget and leave
    /// the second root's cone fully abstracted (making every bounded query
    /// spuriously satisfiable).
    fn encode_cones(&mut self, aig: &Aig, roots: &[NodeId], window: usize) {
        let mut head = self.queue.len();
        self.queue.extend_from_slice(roots);
        for n in roots {
            self.queued[n.index()] = true;
        }
        let mut constrained = 0usize;
        while let Some(&n) = self.queue.get(head) {
            head += 1;
            if let NodeKind::And(a, b) = aig.kind(n) {
                if constrained >= window {
                    // The window is full: this node and everything still
                    // queued stay free variables (abstracted frontier).
                    break;
                }
                constrained += 1;
                let o = self.var(n);
                let la = self.lit(a);
                let lb = self.lit(b);
                self.solver.add_clause([SatLit::neg(o), la]);
                self.solver.add_clause([SatLit::neg(o), lb]);
                self.solver.add_clause([SatLit::pos(o), !la, !lb]);
                for f in [a.node(), b.node()] {
                    if !self.queued[f.index()] {
                        self.queued[f.index()] = true;
                        self.queue.push(f);
                    }
                }
            }
        }
    }

    /// Window-bounded equivalence query for `x ≡ y` over `aig`.
    fn prove_equal(&mut self, aig: &Aig, x: Lit, y: Lit, window: usize, budget: u64) -> Proof {
        self.reset(aig);
        self.encode_cones(aig, &[x.node(), y.node()], window);
        let lx = self.lit(x);
        let ly = self.lit(y);
        // SAT iff x ≠ y somewhere: exactly one of the two is true.
        self.solver.add_clause([lx, ly]);
        self.solver.add_clause([!lx, !ly]);
        match self.solver.solve_limited(Some(budget)) {
            SolveOutcome::Unsat => Proof::Proved,
            SolveOutcome::Unknown => Proof::Unknown,
            SolveOutcome::Sat(model) => Proof::Refuted(self.pi_values(aig, &model)),
        }
    }

    /// The primary-input assignment of a model (unencoded inputs read 0).
    fn pi_values(&self, aig: &Aig, model: &[bool]) -> Vec<bool> {
        aig.pis()
            .iter()
            .map(|&pi| self.var_of(pi).is_some_and(|v| model[v.index()]))
            .collect()
    }
}

/// Outcome of one window-bounded equivalence query.
#[derive(Debug, PartialEq, Eq)]
enum Proof {
    /// `x ≡ y` proven (UNSAT).
    Proved,
    /// A model was found; the payload is its primary-input assignment.
    /// Under window abstraction the model may involve free frontier
    /// variables, so the pattern is not guaranteed to distinguish the pair
    /// on the real network — it is only a *candidate* distinguisher, which
    /// is all signature refinement needs (simulation recomputes the true
    /// node values on it).
    Refuted(Vec<bool>),
    /// Budget expired.
    Unknown,
}

fn flip(l: Lit, c: bool) -> Lit {
    l.with_complement(l.is_complement() ^ c)
}

/// The class-map key of a normalized signature. Classes whose digests
/// collide share one list; [`SweepSpace::and`] skips the members whose
/// signature differs, so a collision costs a comparison, never a query.
fn digest(norm: &[u64; SIG_WORDS]) -> u64 {
    let mut h = Fnv1a::new();
    for &w in norm {
        h.write_u64(w);
    }
    h.finish()
}

/// AND nodes a cut proof expands before it gives up.
const CUT_EXPANSIONS: usize = 32;
/// Frontier nodes past which a cut proof gives up.
const CUT_FRONTIER: usize = 10;

/// Proves `x ≡ y` without the solver when their cones meet on a small cut.
///
/// The walk expands the joint cone of both roots, always the frontier node
/// with the highest id. Fanins have lower ids than their node, so every
/// node above the frontier is expanded and the frontier is a cut of both
/// cones. Whenever it holds at most six nodes and neither root, the roots'
/// truth tables over it decide: equal tables prove the pair. Unequal ones
/// prove nothing, since the cut nodes need not be independent, so the walk
/// goes on until it runs out of expansions or the frontier grows too wide.
/// `kind` reads the network, in which `x` is newer than `y`; `Const0` is
/// the constant 0, never a leaf.
fn cut_proof(kind: impl Fn(NodeId) -> NodeKind, x: NodeId, y: Lit) -> bool {
    let mut frontier = [NodeId::CONST0; CUT_FRONTIER];
    frontier[..2].copy_from_slice(&[x, y.node()]);
    let mut width = 2;
    // The expanded nodes with their fanins, in decreasing id order.
    let mut inner = [(NodeId::CONST0, Lit::FALSE, Lit::FALSE); CUT_EXPANSIONS];
    let mut tables = [TruthTable::zero(TruthTable::MAX_VARS); CUT_EXPANSIONS];
    for count in 1..=CUT_EXPANSIONS {
        let Some(top) = (0..width).max_by_key(|&i| frontier[i]) else {
            return false;
        };
        let n = frontier[top];
        let NodeKind::And(a, b) = kind(n) else {
            return false; // only inputs are left
        };
        width -= 1;
        frontier[top] = frontier[width];
        inner[count - 1] = (n, a, b);
        for f in [a.node(), b.node()] {
            if f != NodeId::CONST0 && !frontier[..width].contains(&f) {
                if width == CUT_FRONTIER {
                    return false;
                }
                frontier[width] = f;
                width += 1;
            }
        }
        let leaves = &frontier[..width];
        // `x`, the newer root, was expanded first.
        if width > TruthTable::MAX_VARS || leaves.contains(&y.node()) {
            continue;
        }
        let expanded = &inner[..count];
        let value = |tables: &[TruthTable], l: Lit| {
            let n = l.node();
            let t = if n == NodeId::CONST0 {
                TruthTable::zero(TruthTable::MAX_VARS)
            } else if let Some(j) = leaves.iter().position(|&m| m == n) {
                TruthTable::var(TruthTable::MAX_VARS, j)
            } else {
                let k = expanded.iter().position(|e| e.0 == n);
                tables[k.expect("a node above the cut is expanded")]
            };
            if l.is_complement() {
                !t
            } else {
                t
            }
        };
        // Lower ids sit later in `expanded`, so fanins are evaluated first.
        for k in (0..count).rev() {
            let (_, a, b) = expanded[k];
            tables[k] = value(&tables, a) & value(&tables, b);
        }
        if value(&tables, Lit::new(x, false)) == value(&tables, y) {
            return true;
        }
    }
    false
}

/// What the sweep knows of one joint node (48 bytes).
#[derive(Clone, Copy)]
struct Slot {
    /// Simulation signature.
    sig: [u64; SIG_WORDS],
    /// Refinement signature: bit `k` is the node's value on the `k`-th
    /// counterexample pattern fed back by a refuted query.
    extra: u64,
    /// Canonical literal: the proven-equivalent class member a merged node
    /// was substituted by, the node itself otherwise.
    subst: Lit,
    /// Next member of the node's class list, `NONE` at the end.
    next: u32,
}

/// Shared reduced network the sweep builds its subjects into.
struct SweepSpace {
    joint: Aig,
    pis: Vec<Lit>,
    /// One slot per joint node.
    slots: Vec<Slot>,
    pi_sigs: Vec<[u64; SIG_WORDS]>,
    pi_extra: Vec<u64>,
    /// Valid refinement patterns (bits `0..patterns` of `Slot::extra`).
    patterns: u32,
    /// Class lists: the [`digest`] of a normalized signature → the first
    /// and the last member (joint AND nodes, in insertion order).
    classes: FnvHashMap<u64, (u32, u32)>,
    /// The encoder every SAT query in this space reuses.
    enc: Encoder,
    /// Whether candidates are tried by [`cut_proof`] before the solver.
    cut_proofs: bool,
}

impl SweepSpace {
    fn new(pi_count: usize, cut_proofs: bool, rng: &mut Rng) -> Self {
        let mut joint = Aig::new();
        let pis: Vec<Lit> = (0..pi_count).map(|_| joint.add_pi()).collect();
        let pi_sigs: Vec<[u64; SIG_WORDS]> = (0..pi_count)
            .map(|_| std::array::from_fn(|_| rng.next()))
            .collect();
        SweepSpace {
            joint,
            pis,
            slots: Vec::new(),
            pi_sigs,
            pi_extra: vec![0; pi_count],
            patterns: 0,
            classes: FnvHashMap::default(),
            enc: Encoder::default(),
            cut_proofs,
        }
    }

    fn sync(&mut self) {
        for idx in self.slots.len()..self.joint.len() {
            let id = NodeId(idx as u32);
            let (sig, extra) = match self.joint.kind(id) {
                NodeKind::Const0 => ([0; SIG_WORDS], 0),
                NodeKind::Input(i) => (self.pi_sigs[i as usize], self.pi_extra[i as usize]),
                NodeKind::And(a, b) => {
                    let (sa, sb) = (self.slots[a.node().index()], self.slots[b.node().index()]);
                    let (ma, mb) = (
                        if a.is_complement() { u64::MAX } else { 0 },
                        if b.is_complement() { u64::MAX } else { 0 },
                    );
                    let sig = std::array::from_fn(|w| (sa.sig[w] ^ ma) & (sb.sig[w] ^ mb));
                    (sig, (sa.extra ^ ma) & (sb.extra ^ mb))
                }
            };
            self.slots.push(Slot {
                sig,
                extra,
                subst: Lit::new(id, false),
                next: NONE,
            });
        }
    }

    /// The node's signature normalized by its phase bit, and that bit.
    fn norm_sig(&self, node: NodeId) -> ([u64; SIG_WORDS], bool) {
        let sig = self.slots[node.index()].sig;
        let phase = sig[0] & 1 == 1;
        (sig.map(|w| if phase { !w } else { w }), phase)
    }

    /// Mask selecting the valid refinement bits.
    fn pattern_mask(&self) -> u64 {
        if self.patterns >= 64 {
            u64::MAX
        } else {
            (1u64 << self.patterns) - 1
        }
    }

    /// The node's refinement signature, normalized by its phase bit.
    fn norm_extra(&self, node: NodeId, phase: bool) -> u64 {
        let e = self.slots[node.index()].extra;
        (if phase { !e } else { e }) & self.pattern_mask()
    }

    /// Simulates one counterexample pattern into every node's refinement
    /// signature. The pattern need not actually distinguish the refuted
    /// pair on the real network (window abstraction can produce spurious
    /// models); simulation assigns the true values either way, so the
    /// signatures only ever get more precise.
    fn refine(&mut self, cex: &[bool], stats: &mut CecStats) {
        if self.patterns >= 64 {
            return; // refinement word exhausted; later queries go to SAT
        }
        let bit = self.patterns;
        self.patterns += 1;
        stats.refinements += 1;
        for (i, &v) in cex.iter().enumerate() {
            if v {
                self.pi_extra[i] |= 1u64 << bit;
            }
        }
        for idx in 0..self.joint.len() {
            let id = NodeId(idx as u32);
            self.slots[idx].extra = match self.joint.kind(id) {
                NodeKind::Const0 => 0,
                NodeKind::Input(i) => self.pi_extra[i as usize],
                NodeKind::And(a, b) => {
                    let (ma, mb) = (
                        if a.is_complement() { u64::MAX } else { 0 },
                        if b.is_complement() { u64::MAX } else { 0 },
                    );
                    let (ea, eb) = (
                        self.slots[a.node().index()].extra,
                        self.slots[b.node().index()].extra,
                    );
                    (ea ^ ma) & (eb ^ mb)
                }
            };
        }
    }

    fn resolve(&self, l: Lit) -> Lit {
        flip(self.slots[l.node().index()].subst, l.is_complement())
    }

    /// ANDs two canonical literals in the joint network and sweeps the
    /// result: a fresh node whose signature matches an existing class
    /// member is SAT-checked and, if proven, merged onto it. Candidates
    /// whose *refined* signature disagrees are dismissed without a query —
    /// their inequivalence was already witnessed by a simulated pattern —
    /// and every refuted query feeds its distinguishing pattern back into
    /// the signatures, splitting the rest of the alias class for free.
    fn and(&mut self, a: Lit, b: Lit, stats: &mut CecStats) -> Lit {
        let len = self.joint.len();
        let lit = self.joint.and(a, b);
        if self.joint.len() == len {
            // A node already in the space (swept when it was added), a
            // fanin or a constant.
            return self.resolve(lit);
        }
        self.sync();
        let node = lit.node();
        let (norm, phase) = self.norm_sig(node);
        let key = digest(&norm);
        let mut merged = None;
        let mut queries = 0usize;
        let mut cursor = self.classes.get(&key).map_or(NONE, |&(head, _)| head);
        while cursor != NONE && queries < QUERIES_PER_NODE {
            let cand = NodeId(cursor);
            cursor = self.slots[cand.index()].next;
            let (cand_norm, cand_phase) = self.norm_sig(cand);
            if cand_norm != norm {
                continue; // another class behind a colliding digest
            }
            // Refinement filter: the refined signatures are true simulated
            // values, so a mismatch is a definitive inequivalence witness.
            if self.norm_extra(node, phase) != self.norm_extra(cand, cand_phase) {
                stats.alias_skips += 1;
                continue;
            }
            let target = Lit::new(cand, phase ^ cand_phase);
            if self.cut_proofs && cut_proof(|n| self.joint.kind(n), node, target) {
                stats.cut_proofs += 1;
                merged = Some(target);
                break;
            }
            queries += 1;
            stats.sat_queries += 1;
            match self.enc.prove_equal(
                &self.joint,
                Lit::new(node, false),
                target,
                SWEEP_WINDOW,
                SWEEP_CONFLICTS,
            ) {
                Proof::Proved => {
                    merged = Some(target);
                    break;
                }
                Proof::Refuted(cex) => self.refine(&cex, stats),
                Proof::Unknown => {}
            }
        }
        if let Some(target) = merged {
            self.slots[node.index()].subst = target;
            stats.sweep_merges += 1;
            return target;
        }
        match self.classes.entry(key) {
            Entry::Occupied(mut e) => {
                let (_, tail) = e.get_mut();
                self.slots[*tail as usize].next = node.0;
                *tail = node.0;
            }
            Entry::Vacant(e) => {
                e.insert((node.0, node.0));
            }
        }
        lit
    }

    /// Copies the output cones of `aig` into the joint network, returning
    /// the canonical literal of every node they contain. Logic no output
    /// reads is never copied, so it costs no signature, class or query.
    fn absorb(&mut self, aig: &Aig, stats: &mut CecStats) -> Vec<Option<Lit>> {
        let mut map: Vec<Option<Lit>> = vec![None; aig.len()];
        map[NodeId::CONST0.index()] = Some(Lit::FALSE);
        self.sync();
        let mut reached = Vec::new();
        aig.mark_output_cones(&mut reached);
        for id in aig.node_ids() {
            if !reached[id.index()] {
                continue;
            }
            match aig.kind(id) {
                NodeKind::Const0 => {}
                NodeKind::Input(i) => map[id.index()] = Some(self.pis[i as usize]),
                NodeKind::And(a, b) => {
                    let fa = self.resolve(mapped(&map, a));
                    let fb = self.resolve(mapped(&map, b));
                    map[id.index()] = Some(self.and(fa, fb, stats));
                }
            }
        }
        map
    }

    /// Absorbs both networks and pairs up their outputs: returns the pairs
    /// whose canonical literals differ, and counts the others in
    /// `stats.structural_matches`.
    fn sweep(&mut self, a: &Aig, b: &Aig, stats: &mut CecStats) -> Vec<(Lit, Lit)> {
        let map_a = self.absorb(a, stats);
        let map_b = self.absorb(b, stats);
        let unresolved: Vec<(Lit, Lit)> = a
            .pos()
            .iter()
            .zip(b.pos())
            .map(|(&pa, &pb)| {
                (
                    self.resolve(mapped(&map_a, pa)),
                    self.resolve(mapped(&map_b, pb)),
                )
            })
            .filter(|(la, lb)| la != lb)
            .collect();
        stats.structural_matches = a.po_count() - unresolved.len();
        unresolved
    }

    /// The sweep of a reused space, which only ever proves: absorbs `a`,
    /// then `b` one output cone at a time, depth first, and gives up at
    /// the first output pair whose canonical literals differ. Returns
    /// whether every pair matched.
    fn sweep_outputs(&mut self, a: &Aig, b: &Aig, stats: &mut CecStats) -> bool {
        let map_a = self.absorb(a, stats);
        let mut map: Vec<Option<Lit>> = vec![None; b.len()];
        map[NodeId::CONST0.index()] = Some(Lit::FALSE);
        // (node, whether its fanins are mapped)
        let mut stack = Vec::new();
        for (&pa, &pb) in a.pos().iter().zip(b.pos()) {
            stack.push((pb.node(), false));
            while let Some((n, ready)) = stack.pop() {
                if map[n.index()].is_some() {
                    continue;
                }
                match b.kind(n) {
                    NodeKind::Const0 => {}
                    NodeKind::Input(i) => map[n.index()] = Some(self.pis[i as usize]),
                    NodeKind::And(x, y) if ready => {
                        let fx = self.resolve(mapped(&map, x));
                        let fy = self.resolve(mapped(&map, y));
                        map[n.index()] = Some(self.and(fx, fy, stats));
                    }
                    NodeKind::And(x, y) => {
                        stack.extend([(n, true), (y.node(), false), (x.node(), false)])
                    }
                }
            }
            if self.resolve(mapped(&map_a, pa)) != self.resolve(mapped(&map, pb)) {
                return false;
            }
        }
        stats.structural_matches = a.po_count();
        true
    }
}

/// The equivalence checks of one chain of networks N₀ → N₁ → …, each
/// check's `before` the previous check's `after`, in one sweep space (see
/// the module docs: the space is reused while its checks resolve every
/// output, and rebuilt for a check that does not).
#[derive(Default)]
pub(crate) struct CecSession {
    space: Option<SweepSpace>,
    /// Sweep with the solver alone, no cut proofs: the reference the
    /// cut-proof tests compare against.
    sat_only: bool,
}

impl CecSession {
    /// Checks whether `a` and `b` compute the same functions, as
    /// [`check_equivalence`] does, reusing the space of the session's
    /// earlier checks. The counters are this check's work alone.
    pub(crate) fn check(
        &mut self,
        a: &Aig,
        b: &Aig,
        cfg: &CecConfig,
    ) -> Result<CecOutcome, CecError> {
        if a.pi_count() != b.pi_count() {
            return Err(CecError::PiMismatch(a.pi_count(), b.pi_count()));
        }
        if a.po_count() != b.po_count() {
            return Err(CecError::PoMismatch(a.po_count(), b.po_count()));
        }
        let mut stats = CecStats::default();
        let mut rng = Rng::new(SEED);

        // Stage 1: random-simulation prefilter. One set of buffers serves
        // every pattern word ([`Aig::eval64_into`]) — at `sim_words = 8` on
        // a million-node network the naive form would allocate sixteen
        // fresh node-sized vectors before the solver even starts.
        let sim_span = sfq_obs::span("cec:sim");
        let mut inputs = Vec::with_capacity(a.pi_count());
        let (mut scratch, mut oa, mut ob) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..cfg.sim_words {
            inputs.clear();
            inputs.extend((0..a.pi_count()).map(|_| rng.next()));
            a.eval64_into(&inputs, &mut scratch, &mut oa);
            b.eval64_into(&inputs, &mut scratch, &mut ob);
            stats.sim_words += 1;
            if let Some(bit) = oa
                .iter()
                .zip(&ob)
                .find_map(|(x, y)| (x != y).then(|| (x ^ y).trailing_zeros()))
            {
                let cex: Vec<bool> = inputs.iter().map(|w| w >> bit & 1 == 1).collect();
                debug_assert_ne!(a.eval(&cex), b.eval(&cex));
                return Ok(CecOutcome {
                    verdict: CecVerdict::NotEquivalent(cex),
                    stats,
                });
            }
        }

        drop(sim_span);

        // Stage 2: SAT sweeping in the shared reconstruction.
        let sweep_span = sfq_obs::span("cec:sweep");
        if let Some(space) = self.space.as_mut() {
            if space.sweep_outputs(a, b, &mut stats) {
                return Ok(CecOutcome {
                    verdict: CecVerdict::Equivalent,
                    stats,
                });
            }
            // The miter rule: a miter over a reused space would encode
            // cones mixed from every earlier network of the chain, so the
            // check starts over in a space of its own two networks.
            stats.restarts += 1;
            self.space = None;
        }
        let space = self
            .space
            .insert(SweepSpace::new(a.pi_count(), !self.sat_only, &mut rng));
        let unresolved = space.sweep(a, b, &mut stats);
        if unresolved.is_empty() {
            return Ok(CecOutcome {
                verdict: CecVerdict::Equivalent,
                stats,
            });
        }

        drop(sweep_span);

        // Stage 3: miter over the unresolved pairs.
        let _span = sfq_obs::span("cec:miter");
        stats.used_final_sat = true;
        stats.sat_queries += 1;
        let enc = &mut space.enc;
        enc.reset(&space.joint);
        let roots: Vec<NodeId> = unresolved
            .iter()
            .flat_map(|&(x, y)| [x.node(), y.node()])
            .collect();
        enc.encode_cones(&space.joint, &roots, usize::MAX);
        let mut selectors = Vec::with_capacity(unresolved.len());
        for &(x, y) in &unresolved {
            let lx = enc.lit(x);
            let ly = enc.lit(y);
            let s = SatLit::pos(enc.solver.new_var());
            // s ↔ (x ⊕ y)
            enc.solver.add_clause([!s, lx, ly]);
            enc.solver.add_clause([!s, !lx, !ly]);
            enc.solver.add_clause([s, lx, !ly]);
            enc.solver.add_clause([s, !lx, ly]);
            selectors.push(s);
        }
        enc.solver.add_clause(selectors);
        let Some(model) = enc.solver.solve() else {
            return Ok(CecOutcome {
                verdict: CecVerdict::Equivalent,
                stats,
            });
        };
        let cex = enc.pi_values(&space.joint, &model);
        let verdict = if a.eval(&cex) != b.eval(&cex) {
            CecVerdict::NotEquivalent(cex)
        } else {
            // A model that does not replay means an internal merge was
            // unsound — impossible by construction, but never report "not
            // equivalent" on a non-replaying witness.
            debug_assert!(false, "miter model must replay on the originals");
            CecVerdict::Unknown
        };
        Ok(CecOutcome { verdict, stats })
    }
}

#[cfg(test)]
impl CecSession {
    /// A session whose sweeps ask the solver about every candidate.
    pub(crate) fn sat_only() -> Self {
        CecSession {
            space: None,
            sat_only: true,
        }
    }

    /// The merges of the session's space that some input pattern refutes:
    /// `(node, the literal it was merged onto)`, found by simulating the
    /// joint network on every input pattern (at most 16 inputs).
    pub(crate) fn refuted_merges(&self) -> Vec<(NodeId, Lit)> {
        let Some(space) = &self.space else {
            return Vec::new();
        };
        let joint = &space.joint;
        assert!(joint.pi_count() <= 16, "exhaustive simulation");
        let words = 1usize << joint.pi_count().saturating_sub(6);
        let var = |i: usize, w: usize| match i {
            0..6 => TruthTable::var(6, i).bits(),
            _ if w >> (i - 6) & 1 == 1 => u64::MAX,
            _ => 0,
        };
        let mut values = vec![0u64; joint.len() * words];
        for id in joint.node_ids() {
            for w in 0..words {
                let value = |l: Lit| {
                    let v = values[l.node().index() * words + w];
                    if l.is_complement() {
                        !v
                    } else {
                        v
                    }
                };
                values[id.index() * words + w] = match joint.kind(id) {
                    NodeKind::Const0 => 0,
                    NodeKind::Input(i) => var(i as usize, w),
                    NodeKind::And(a, b) => value(a) & value(b),
                };
            }
        }
        let row = |n: NodeId| &values[n.index() * words..][..words];
        joint
            .and_ids()
            .map(|id| (id, space.slots[id.index()].subst))
            .filter(|&(id, to)| {
                let c = if to.is_complement() { u64::MAX } else { 0 };
                row(id).iter().zip(row(to.node())).any(|(x, y)| *x != y ^ c)
            })
            .collect()
    }
}

/// Checks whether `a` and `b` compute the same functions, in a sweep space
/// of their own.
///
/// # Errors
///
/// Returns [`CecError`] when the PI or PO counts differ (nothing to
/// compare).
pub fn check_equivalence(a: &Aig, b: &Aig, cfg: &CecConfig) -> Result<CecOutcome, CecError> {
    CecSession::default().check(a, b, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::PassKind;
    use proptest::prelude::*;
    use sfq_circuits::{random_aig, RandomAigConfig};
    use sfq_netlist::transform::sweep_in_place;
    use std::collections::HashMap;

    fn xor_chain(n: usize, twist: bool) -> Aig {
        let mut g = Aig::new();
        let pis: Vec<Lit> = (0..n).map(|_| g.add_pi()).collect();
        let mut acc = pis[0];
        for &p in &pis[1..] {
            acc = g.xor(acc, p);
        }
        g.add_po(if twist { !acc } else { acc });
        g
    }

    #[test]
    fn identical_networks_are_equivalent() {
        let a = xor_chain(5, false);
        let b = xor_chain(5, false);
        let out = check_equivalence(&a, &b, &CecConfig::default()).unwrap();
        assert_eq!(out.verdict, CecVerdict::Equivalent);
        assert!(!out.stats.used_final_sat, "pure strash match");
    }

    #[test]
    fn complemented_output_is_caught_by_simulation() {
        let a = xor_chain(5, false);
        let b = xor_chain(5, true);
        let out = check_equivalence(&a, &b, &CecConfig::default()).unwrap();
        match out.verdict {
            CecVerdict::NotEquivalent(cex) => {
                assert_eq!(cex.len(), 5);
                assert_ne!(a.eval(&cex), b.eval(&cex));
            }
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
    }

    #[test]
    fn restructured_majority_needs_the_solver() {
        // maj(a,b,c) two ways: textbook 5-AND vs the 4-AND factored form.
        // Simulation cannot tell them apart, and structure alone does not
        // merge them; a truth table over their shared cut {a, b, c} proves
        // them equal without a solver call.
        let mut a = Aig::new();
        let (x, y, z) = (a.add_pi(), a.add_pi(), a.add_pi());
        let m = a.maj3(x, y, z);
        a.add_po(m);
        let mut b = Aig::new();
        let (x, y, z) = (b.add_pi(), b.add_pi(), b.add_pi());
        let xy = b.and(x, y);
        let xoy = b.or(x, y);
        let t = b.and(z, xoy);
        let m = b.or(xy, t);
        b.add_po(m);
        let out = check_equivalence(&a, &b, &CecConfig::default()).unwrap();
        assert_eq!(out.verdict, CecVerdict::Equivalent);
        assert!(out.stats.cut_proofs > 0, "the shared cut proves the pair");
        assert_eq!(out.stats.sat_queries, 0, "no solver call");
    }

    /// An 8-input AND as a chain and as a balanced tree that pairs the
    /// inputs differently, so the two share no inner node: their joint
    /// cone meets only on all eight inputs, wider than a truth table, and
    /// the solver must prove the outputs equal.
    #[test]
    fn a_cut_wider_than_six_leaves_needs_the_solver() {
        let chain = {
            let mut g = Aig::new();
            let pis: Vec<Lit> = (0..8).map(|_| g.add_pi()).collect();
            let out = pis[1..].iter().fold(pis[0], |acc, &p| g.and(acc, p));
            g.add_po(out);
            g
        };
        let tree = {
            let mut g = Aig::new();
            let p: Vec<Lit> = (0..8).map(|_| g.add_pi()).collect();
            let pairs = [(0, 4), (1, 5), (2, 6), (3, 7)].map(|(i, j)| g.and(p[i], p[j]));
            let l = g.and(pairs[0], pairs[1]);
            let r = g.and(pairs[2], pairs[3]);
            let out = g.and(l, r);
            g.add_po(out);
            g
        };
        let out = check_equivalence(&chain, &tree, &CecConfig::default()).unwrap();
        assert_eq!(out.verdict, CecVerdict::Equivalent);
        assert_eq!(out.stats.cut_proofs, 0);
        assert!(out.stats.sat_queries > 0, "the solver proves the pair");
        assert!(!out.stats.used_final_sat, "in the sweep, not the miter");
    }

    /// A cut proof reads `Const0` as the constant 0, never as a leaf:
    /// `x = AND(n, ¬Const0)` equals `n` only because the constant is 0.
    /// Joint networks never hold a constant fanin, so the network here is
    /// a raw kind table.
    #[test]
    fn cut_proofs_read_const0_as_zero() {
        let lit = |n: u32, c: bool| Lit::new(NodeId(n), c);
        let kinds = [
            NodeKind::Const0,
            NodeKind::Input(0),
            NodeKind::Input(1),
            NodeKind::And(lit(1, false), lit(2, true)),
            NodeKind::And(Lit::TRUE, lit(3, false)),
            NodeKind::And(Lit::FALSE, lit(3, false)),
        ];
        let kind = |n: NodeId| kinds[n.index()];
        assert!(cut_proof(kind, NodeId(4), lit(3, false)));
        assert!(!cut_proof(kind, NodeId(4), lit(3, true)));
        assert!(!cut_proof(kind, NodeId(5), lit(3, false)));
    }

    /// `x == k` detectors: each is 1 on exactly one of 2^12 patterns, so
    /// 256 random patterns see every detector as constant-0 — a worst-case
    /// signature-alias class (the `voter` pathology in miniature).
    fn detectors(keys: &[u16], balanced: bool) -> Aig {
        let mut g = Aig::new();
        let pis: Vec<Lit> = (0..12).map(|_| g.add_pi()).collect();
        for out in detector_logic(&mut g, &pis, keys, balanced) {
            g.add_po(out);
        }
        g
    }

    /// The detector cones over `pis`, one output literal per key.
    fn detector_logic(g: &mut Aig, pis: &[Lit], keys: &[u16], balanced: bool) -> Vec<Lit> {
        let mut outs = Vec::with_capacity(keys.len());
        for &k in keys {
            let lits: Vec<Lit> = (0..12)
                .map(|i| {
                    let bit = k >> i & 1 == 1;
                    if bit {
                        pis[i]
                    } else {
                        !pis[i]
                    }
                })
                .collect();
            let out = if balanced {
                // Balanced tree association.
                let mut layer = lits;
                while layer.len() > 1 {
                    layer = layer
                        .chunks(2)
                        .map(|c| {
                            if c.len() == 2 {
                                g.and(c[0], c[1])
                            } else {
                                c[0]
                            }
                        })
                        .collect();
                }
                layer[0]
            } else {
                // Left-leaning chain association.
                let mut acc = lits[0];
                for &l in &lits[1..] {
                    acc = g.and(acc, l);
                }
                acc
            };
            outs.push(out);
        }
        outs
    }

    /// Counterexample-guided refinement splits the alias class of the
    /// detectors: every one of them aliases to the all-zero signature, and
    /// the refuted queries' patterns, fed back, dismiss most candidates
    /// without a query. The counters are pinned exactly; a sweep without
    /// refinement asked 981 SAT queries here and merged 36 nodes.
    #[test]
    fn refinement_cuts_alias_queries() {
        let keys: Vec<u16> = (0..24).map(|i| (i * 157 + 3) % 4096).collect();
        let a = detectors(&keys, false);
        let b = detectors(&keys, true);
        let out = check_equivalence(&a, &b, &CecConfig::default()).unwrap();
        assert_eq!(out.verdict, CecVerdict::Equivalent);
        assert!(out.stats.refinements > 0, "patterns must be fed back");
        assert!(out.stats.alias_skips > 0, "aliases must be dismissed");
        let pinned = CecStats {
            sim_words: 16,
            structural_matches: 17,
            sweep_merges: 54,
            cut_proofs: 54,
            sat_queries: 437,
            refinements: 64,
            alias_skips: 4655,
            used_final_sat: true,
            restarts: 0,
        };
        assert_eq!(out.stats, pinned);
    }

    /// A cone no output reads is never absorbed: an unconnected alias class
    /// beside `before` leaves every counter of the check unchanged.
    #[test]
    fn dangling_alias_cone_costs_nothing() {
        let keys: Vec<u16> = (0..24).map(|i| (i * 157 + 3) % 4096).collect();
        let before = detectors(&keys, false);
        let after = detectors(&keys, true);
        let mut dangling = before.clone();
        let pis: Vec<Lit> = dangling.pis().iter().map(|&n| Lit::new(n, false)).collect();
        let others: Vec<u16> = (0..24).map(|i| (i * 389 + 11) % 4096).collect();
        detector_logic(&mut dangling, &pis, &others, true);
        assert!(dangling.and_count() > before.and_count());
        let cfg = CecConfig::default();
        let clean = check_equivalence(&before, &after, &cfg).unwrap();
        assert_eq!(clean.verdict, CecVerdict::Equivalent);
        assert!(
            clean.stats.alias_skips > 0,
            "the live class is an alias class"
        );
        let out = check_equivalence(&dangling, &after, &cfg).unwrap();
        assert_eq!(out, clean);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Logic no output reads is invisible to the check: sweeping it off
        /// `g` first changes neither the verdict (counterexample included)
        /// nor a single counter, whether `h` is an optimized copy of `g` or
        /// an unrelated network.
        #[test]
        fn dangling_logic_is_invisible(
            seed in any::<u64>(),
            num_pis in 1usize..=8,
            num_gates in 1usize..80,
            num_pos in 1usize..=4,
            unrelated in any::<bool>(),
            sim_words in 0usize..=2,
        ) {
            let config = RandomAigConfig { num_pis, num_gates, num_pos, xor_percent: 30 };
            let g = random_aig(seed, &config);
            let h = if unrelated {
                random_aig(seed ^ 1, &config)
            } else {
                let mut h = g.clone();
                PassKind::Rewrite.run(&mut h);
                PassKind::Balance.run(&mut h);
                h
            };
            let mut swept = g.clone();
            sweep_in_place(&mut swept);
            let cfg = CecConfig { sim_words };
            prop_assert_eq!(check_equivalence(&g, &h, &cfg), check_equivalence(&swept, &h, &cfg));
        }
    }

    /// One reused encoder answers a query sequence exactly like the
    /// reference, a fresh encoder per query: same proof, same model, same
    /// solver work.
    #[test]
    fn reused_encoder_matches_fresh_encoders() {
        // A random network in which every majority is built twice, in two
        // structurally different forms, so some queries are provable.
        let mut g = Aig::new();
        let mut pool: Vec<Lit> = (0..8).map(|_| g.add_pi()).collect();
        let mut rng = Rng::new(0xC0FFEE);
        let pick = |pool: &[Lit], rng: &mut Rng| {
            let r = rng.next();
            let l = pool[r as usize % pool.len()];
            l.with_complement(l.is_complement() ^ (r >> 32 & 1 == 1))
        };
        for _ in 0..120 {
            let (x, y, z) = (
                pick(&pool, &mut rng),
                pick(&pool, &mut rng),
                pick(&pool, &mut rng),
            );
            match rng.next() % 3 {
                0 => pool.push(g.and(x, y)),
                1 => pool.push(g.xor(x, y)),
                _ => {
                    pool.push(g.maj3(x, y, z));
                    let xy = g.and(x, y);
                    let xoy = g.or(x, y);
                    let t = g.and(z, xoy);
                    pool.push(g.or(xy, t));
                }
            }
        }
        let mut reused = Encoder::default();
        let mut seen = [0usize; 3];
        for i in 8..pool.len() {
            for j in [i - 1, i / 2, i - 7] {
                for (window, budget) in [(3, 500), (200, 1), (200, 500)] {
                    let (x, y) = (pool[i], pool[j]);
                    let mut fresh = Encoder::default();
                    let want = fresh.prove_equal(&g, x, y, window, budget);
                    let got = reused.prove_equal(&g, x, y, window, budget);
                    assert_eq!(got, want, "query {i} vs {j}, window {window}");
                    assert_eq!(reused.solver.num_vars(), fresh.solver.num_vars());
                    assert_eq!(reused.solver.conflicts, fresh.solver.conflicts);
                    assert_eq!(reused.solver.decisions, fresh.solver.decisions);
                    seen[match got {
                        Proof::Proved => 0,
                        Proof::Refuted(_) => 1,
                        Proof::Unknown => 2,
                    }] += 1;
                }
            }
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "every outcome exercised: {seen:?}"
        );
    }

    /// Class lists keep insertion order: walking a list from its head
    /// visits exactly the members a `Vec` per class would hold, in the
    /// order it appended them — every unmerged AND node, by node id.
    #[test]
    fn class_members_are_visited_in_insertion_order() {
        let keys: Vec<u16> = (0..24).map(|i| (i * 157 + 3) % 4096).collect();
        let (a, b) = (detectors(&keys, false), detectors(&keys, true));
        let mut space = SweepSpace::new(a.pi_count(), true, &mut Rng::new(SEED));
        let mut stats = CecStats::default();
        space.sweep(&a, &b, &mut stats);
        assert!(stats.sweep_merges > 0 && stats.alias_skips > 0);
        let mut lists: HashMap<[u64; SIG_WORDS], Vec<NodeId>> = HashMap::new();
        for id in space.joint.and_ids() {
            if space.resolve(Lit::new(id, false)) == Lit::new(id, false) {
                lists.entry(space.norm_sig(id).0).or_default().push(id);
            }
        }
        assert!(
            lists.values().any(|m| m.len() > 1),
            "some class has members"
        );
        for (norm, want) in &lists {
            let mut got = Vec::new();
            let mut cursor = space.classes[&digest(norm)].0;
            while cursor != NONE {
                let n = NodeId(cursor);
                if space.norm_sig(n).0 == *norm {
                    got.push(n);
                }
                cursor = space.slots[n.index()].next;
            }
            assert_eq!(&got, want);
        }
    }

    /// The maj3 pair of [`restructured_majority_needs_the_solver`] and a
    /// copy of its second form that differs on one input pattern.
    fn majority_chain() -> [Aig; 3] {
        let textbook = {
            let mut g = Aig::new();
            let (x, y, z) = (g.add_pi(), g.add_pi(), g.add_pi());
            let m = g.maj3(x, y, z);
            g.add_po(m);
            g
        };
        let factored = |broken: bool| {
            let mut g = Aig::new();
            let (x, y, z) = (g.add_pi(), g.add_pi(), g.add_pi());
            let xy = g.and(x, y);
            let xoy = g.or(x, y);
            let t = g.and(z, xoy);
            let m = g.or(xy, t);
            // `broken`: also 1 on x = y = z = 0.
            let none = g.and(!xoy, !z);
            let m = if broken { g.or(m, none) } else { m };
            g.add_po(m);
            g
        };
        [textbook, factored(false), factored(true)]
    }

    /// The miter rule: a check that leaves an output pair unresolved in a
    /// reused space starts over in a fresh space, so its verdict is a fresh
    /// check's. The equivalent pair merges in the reused space; the broken
    /// pair restarts, since a reused space never refutes a pair.
    #[test]
    fn unresolved_reused_check_restarts_fresh() {
        let [a, b, c] = majority_chain();
        let cfg = CecConfig { sim_words: 0 };
        let mut session = CecSession::default();
        let first = session.check(&a, &b, &cfg).unwrap();
        assert_eq!(first, check_equivalence(&a, &b, &cfg).unwrap());
        for (x, y, equivalent) in [(&b, &a, true), (&a, &c, false)] {
            let got = session.check(x, y, &cfg).unwrap();
            let want = check_equivalence(x, y, &cfg).unwrap();
            assert_eq!(got.verdict, want.verdict);
            assert_eq!(got.verdict == CecVerdict::Equivalent, equivalent);
            if let CecVerdict::NotEquivalent(cex) = &got.verdict {
                assert_ne!(x.eval(cex), y.eval(cex), "cex must replay");
            }
            let restarts = usize::from(!equivalent);
            assert_eq!(got.stats.restarts, restarts);
            assert_eq!(got.stats.used_final_sat, restarts == 1);
        }
    }

    #[test]
    fn interface_mismatch_is_an_error() {
        let a = xor_chain(4, false);
        let b = xor_chain(5, false);
        assert_eq!(
            check_equivalence(&a, &b, &CecConfig::default()),
            Err(CecError::PiMismatch(4, 5))
        );
    }

    #[test]
    fn subtle_internal_difference_found_by_miter() {
        // Two almost-identical networks differing only on one input pattern:
        // force the prefilter off (zero words) so the solver must find it.
        let mut a = Aig::new();
        let pis: Vec<Lit> = (0..4).map(|_| a.add_pi()).collect();
        let c1 = a.and(pis[0], pis[1]);
        let c2 = a.and(pis[2], pis[3]);
        let top = a.and(c1, c2);
        a.add_po(top);
        let mut b = Aig::new();
        let pis: Vec<Lit> = (0..4).map(|_| b.add_pi()).collect();
        let c1 = b.and(pis[0], pis[1]);
        let c2 = b.and(pis[2], !pis[3]);
        let top = b.and(c1, c2);
        b.add_po(top);
        let out = check_equivalence(&a, &b, &CecConfig { sim_words: 0 }).unwrap();
        match out.verdict {
            CecVerdict::NotEquivalent(cex) => assert_ne!(a.eval(&cex), b.eval(&cex)),
            other => panic!("expected NotEquivalent, got {other:?}"),
        }
        assert!(out.stats.used_final_sat);
    }
}
