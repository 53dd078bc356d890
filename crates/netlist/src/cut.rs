//! K-feasible cut enumeration with truth-table computation.
//!
//! Implements the classic bottom-up cut enumeration of Cong et al. (FPGA'99,
//! ref \[8\] of the paper) with per-node cut-count limits ("priority cuts") and
//! dominance filtering. Every cut carries the Boolean function it computes in
//! terms of its (sorted) leaves, which is what T1 Boolean matching consumes.
//!
//! # Layout
//!
//! The kernel allocates nothing per cut. A [`Cut`] is `Copy`: up to six
//! leaves stored inline, their count, a signature and the truth table. A
//! [`CutSet`] is one flat arena holding the cuts of every node back to back,
//! in node order, plus one offset per node; [`CutSet::cuts`] slices it. One
//! scratch buffer of candidate merges is reused across all nodes.
//!
//! # Signatures
//!
//! A cut's signature is the OR of `1 << (id & 63)` over its leaves. Distinct
//! leaves may share a bit, so a signature only *bounds* the leaf set:
//!
//! - the popcount of `sig(a) | sig(b)` never exceeds `|a ∪ b|`, so a popcount
//!   above `max_leaves` proves the merge too wide and skips it;
//! - `a ⊆ b` implies `sig(a) ⊆ sig(b)`, so a failed containment proves that
//!   `a` does not dominate `b`.
//!
//! # Exactness
//!
//! Signatures only ever *reject*: every merge they admit is still checked
//! leaf by leaf, and every dominance they admit is still confirmed by an
//! exact subset test. The output is therefore exactly that of the textbook
//! procedure — fanin cut pairs merged in order, candidates taken smallest
//! first in a stable order, a candidate dropped when a kept cut's leaves are
//! a subset of its own (which covers duplicates), at most `max_cuts` kept,
//! and the trivial cut appended last. Truth tables are computed only for
//! kept cuts: each fanin function is lifted onto the merged leaves with
//! [`TruthTable::extend_to`] and adjacent-variable swaps.
//!
//! # Examples
//!
//! ```
//! use sfq_netlist::aig::Aig;
//! use sfq_netlist::cut::{enumerate_cuts, CutConfig};
//! use sfq_netlist::truth_table::TruthTable;
//!
//! let mut aig = Aig::new();
//! let a = aig.add_pi();
//! let b = aig.add_pi();
//! let c = aig.add_pi();
//! let m = aig.maj3(a, b, c);
//! aig.add_po(m);
//!
//! let cuts = enumerate_cuts(&aig, &CutConfig::default());
//! // Cut functions describe the positive node; the builder may hand back a
//! // complemented literal, so compare modulo the root polarity.
//! let found = cuts.cuts(m.node()).iter().any(|cut| {
//!     cut.leaves().len() == 3 && {
//!         let tt = if m.is_complement() { !cut.truth_table() } else { cut.truth_table() };
//!         tt == TruthTable::maj3()
//!     }
//! });
//! assert!(found);
//! ```

use crate::aig::{Aig, NodeId, NodeKind};
use crate::truth_table::TruthTable;

const MAX_LEAVES: usize = TruthTable::MAX_VARS;

/// A cut: a set of leaves plus the function of the root in terms of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cut {
    /// Sorted leaves in `leaves[..len]`; unused slots hold `NodeId(0)`.
    leaves: [NodeId; MAX_LEAVES],
    len: u8,
    sig: u64,
    /// The truth table's word ([`TruthTable::word`]); its variable count
    /// is `len`, so the cut stores only the word (48 bytes, not 56).
    tt: u64,
}

impl Cut {
    fn trivial(id: NodeId) -> Cut {
        let mut leaves = [NodeId(0); MAX_LEAVES];
        leaves[0] = id;
        Cut {
            leaves,
            len: 1,
            sig: signature_bit(id),
            tt: TruthTable::var(1, 0).word(),
        }
    }

    fn constant() -> Cut {
        Cut {
            leaves: [NodeId(0); MAX_LEAVES],
            len: 0,
            sig: 0,
            tt: 0,
        }
    }

    /// The sorted leaf nodes of the cut.
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves[..self.len as usize]
    }

    /// The function of the cut root over the leaves (variable `i` is
    /// `leaves()[i]`).
    pub fn truth_table(&self) -> TruthTable {
        TruthTable::from_word(self.len, self.tt)
    }
}

fn signature_bit(id: NodeId) -> u64 {
    1 << (id.0 & 63)
}

/// Parameters of the enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutConfig {
    /// Maximum cut width (leaf count). At most 6.
    pub max_leaves: usize,
    /// Maximum number of cuts stored per node (priority-cut limit).
    pub max_cuts: usize,
}

impl Default for CutConfig {
    /// `max_leaves = 4`, `max_cuts = 25` — enough to discover all T1
    /// candidates in arithmetic networks while staying linear in practice.
    fn default() -> Self {
        CutConfig {
            max_leaves: 4,
            max_cuts: 25,
        }
    }
}

/// Per-node cut sets for a whole network, stored in one flat arena.
#[derive(Debug, Clone)]
pub struct CutSet {
    cuts: Vec<Cut>,
    /// `cuts[offsets[i]..offsets[i + 1]]` are the cuts of node `i`.
    offsets: Vec<usize>,
    /// The parameters the set was enumerated under.
    config: CutConfig,
    /// The most non-trivial cuts any node kept.
    max_kept: usize,
}

impl CutSet {
    /// The cuts enumerated for `node` (first cut is the trivial one for
    /// PIs, and cuts are ordered smaller-first for ANDs).
    pub fn cuts(&self, node: NodeId) -> &[Cut] {
        let i = node.index();
        &self.cuts[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Total number of stored cuts (diagnostic).
    pub fn total(&self) -> usize {
        self.cuts.len()
    }

    /// Whether this set is exactly what `enumerate_cuts(aig, other)` would
    /// return on the network it was enumerated from, so a consumer asking
    /// for `other` can use it instead of enumerating again.
    ///
    /// The width must match. The per-node limit need not: when no node
    /// kept as many non-trivial cuts as either limit allows, neither limit
    /// truncated any node, and both enumerations keep every undominated
    /// cut.
    pub fn serves(&self, other: &CutConfig) -> bool {
        self.config.max_leaves == other.max_leaves
            && (self.config.max_cuts == other.max_cuts
                || self.max_kept < self.config.max_cuts.min(other.max_cuts))
    }
}

/// A merged leaf set whose truth table is computed only if it is kept.
#[derive(Clone, Copy)]
struct Candidate {
    leaves: [NodeId; MAX_LEAVES],
    len: u8,
    sig: u64,
    /// Arena indices of the two fanin cuts.
    a: usize,
    b: usize,
    /// Bit `p` set: union position `p` holds a leaf of fanin cut `a` / `b`.
    pos_a: u8,
    pos_b: u8,
}

impl Candidate {
    fn leaves(&self) -> &[NodeId] {
        &self.leaves[..self.len as usize]
    }
}

/// Merges the sorted leaf sets of `a` and `b`, or `None` if the union has
/// more than `max` leaves. Records which union positions each side fills.
fn merge(a: &Cut, ia: usize, b: &Cut, ib: usize, max: usize) -> Option<Candidate> {
    let (la, lb) = (a.leaves(), b.leaves());
    let mut out = Candidate {
        leaves: [NodeId(0); MAX_LEAVES],
        len: 0,
        sig: a.sig | b.sig,
        a: ia,
        b: ib,
        pos_a: 0,
        pos_b: 0,
    };
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < la.len() || j < lb.len() {
        if n == max {
            return None;
        }
        let take_a = j == lb.len() || (i < la.len() && la[i] <= lb[j]);
        let take_b = i == la.len() || (j < lb.len() && lb[j] <= la[i]);
        if take_a {
            out.leaves[n] = la[i];
            out.pos_a |= 1 << n;
            i += 1;
        }
        if take_b {
            out.leaves[n] = lb[j];
            out.pos_b |= 1 << n;
            j += 1;
        }
        n += 1;
    }
    out.len = n as u8;
    Some(out)
}

/// Whether every element of the sorted `small` occurs in the sorted `big`.
fn is_subset(small: &[NodeId], big: &[NodeId]) -> bool {
    let mut j = 0;
    for &x in small {
        while j < big.len() && big[j] < x {
            j += 1;
        }
        if j == big.len() || big[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

/// Re-expresses `tt` on `m` variables, moving its variable `i` to the
/// position of the `i`-th set bit of `positions` (the others are
/// don't-cares). Variables move highest first, so each one only crosses
/// don't-care positions.
fn expand_tt(tt: TruthTable, positions: u8, m: usize) -> TruthTable {
    let mut t = tt.extend_to(m);
    let mut rest = positions;
    for i in (0..tt.num_vars()).rev() {
        let p = (u8::BITS - 1 - rest.leading_zeros()) as usize;
        rest &= !(1 << p);
        for j in i..p {
            t = t.swap_adjacent(j);
        }
    }
    t
}

/// Enumerates cuts for every node of `aig`.
///
/// Emits the `netlist.cut_enumerations` (one per call) and
/// `netlist.cuts_kept` (cuts stored, trivial cuts included) counters to
/// the `sfq-obs` recorder when it is enabled.
///
/// # Panics
///
/// Panics if `config.max_leaves > 6` or `config.max_cuts == 0`.
pub fn enumerate_cuts(aig: &Aig, config: &CutConfig) -> CutSet {
    assert!(config.max_leaves <= MAX_LEAVES, "cut width limited to 6");
    assert!(config.max_cuts > 0, "at least one cut per node required");
    let (max_leaves, max_cuts) = (config.max_leaves, config.max_cuts);
    // Every node keeps at least one cut. Reserving for `max_cuts` per AND
    // instead would over-allocate ~4x on arithmetic networks, whose nodes
    // keep about five 3-cuts each; growth past this bound adds half the
    // capacity (below). The arena is the enumeration's largest allocation,
    // and each move leaves the heap a span of old plus new capacity: after
    // doubling that is up to 3x the cuts kept, after growing by half 2.5x.
    let mut cuts: Vec<Cut> = Vec::with_capacity(aig.len());
    let mut offsets: Vec<usize> = Vec::with_capacity(aig.len() + 1);
    offsets.push(0);
    let mut merged: Vec<Candidate> = Vec::new();
    let mut max_kept = 0;
    for id in aig.node_ids() {
        // A node adds at most `max_cuts` cuts plus its trivial one.
        if cuts.capacity() - cuts.len() <= max_cuts {
            cuts.reserve_exact(cuts.capacity() / 2 + max_cuts + 1);
        }
        match aig.kind(id) {
            NodeKind::Const0 => cuts.push(Cut::constant()),
            NodeKind::Input(_) => cuts.push(Cut::trivial(id)),
            NodeKind::And(fa, fb) => {
                let (na, nb) = (fa.node().index(), fb.node().index());
                let (ra, rb) = (offsets[na]..offsets[na + 1], offsets[nb]..offsets[nb + 1]);
                merged.clear();
                // Bit `k` set: some candidate has `k` leaves.
                let mut widths = 0u8;
                for ia in ra {
                    let a = &cuts[ia];
                    for ib in rb.clone() {
                        let b = &cuts[ib];
                        if (a.sig | b.sig).count_ones() as usize > max_leaves {
                            continue;
                        }
                        if let Some(c) = merge(a, ia, b, ib, max_leaves) {
                            widths |= 1 << c.len;
                            merged.push(c);
                        }
                    }
                }
                // Candidates in a stable smallest-first order; a candidate
                // is dominated when a kept cut's leaves are a subset of its
                // own, which includes an identical leaf set.
                let start = cuts.len();
                'fill: for width in 0..=max_leaves {
                    if widths >> width & 1 == 0 {
                        continue;
                    }
                    for c in merged.iter().filter(|c| c.len as usize == width) {
                        let dominated = cuts[start..]
                            .iter()
                            .any(|k| k.sig & !c.sig == 0 && is_subset(k.leaves(), c.leaves()));
                        if dominated {
                            continue;
                        }
                        let (a, b) = (&cuts[c.a], &cuts[c.b]);
                        let ta = expand_tt(a.truth_table(), c.pos_a, width);
                        let tb = expand_tt(b.truth_table(), c.pos_b, width);
                        let ta = if fa.is_complement() { !ta } else { ta };
                        let tb = if fb.is_complement() { !tb } else { tb };
                        cuts.push(Cut {
                            leaves: c.leaves,
                            len: c.len,
                            sig: c.sig,
                            tt: (ta & tb).word(),
                        });
                        if cuts.len() - start >= max_cuts {
                            break 'fill;
                        }
                    }
                }
                max_kept = max_kept.max(cuts.len() - start);
                // The trivial cut is always present (consumers build their
                // direct fanin cuts from it); it rides on top of the limit
                // so it can never be crowded out.
                cuts.push(Cut::trivial(id));
            }
        }
        offsets.push(cuts.len());
    }
    if sfq_obs::is_enabled() {
        sfq_obs::counter("netlist.cut_enumerations", 1);
        sfq_obs::counter("netlist.cuts_kept", cuts.len() as u64);
    }
    CutSet {
        cuts,
        offsets,
        config: *config,
        max_kept,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::Lit;
    use proptest::prelude::*;

    /// The reference oracle for [`enumerate_cuts`]: the straightforward
    /// enumerator with a heap-allocated leaf list per cut, a
    /// bit-by-bit truth-table expansion and a stable sort by width.
    fn enumerate_cuts_reference(
        aig: &Aig,
        config: &CutConfig,
    ) -> Vec<Vec<(Vec<NodeId>, TruthTable)>> {
        fn expand(tt: TruthTable, leaves: &[NodeId], union: &[NodeId]) -> TruthTable {
            let positions: Vec<usize> = leaves
                .iter()
                .map(|l| union.binary_search(l).expect("leaf must be in union"))
                .collect();
            let m = union.len();
            let mut bits = 0u64;
            for idx in 0..(1usize << m) {
                let mut sub = 0usize;
                for (i, &p) in positions.iter().enumerate() {
                    sub |= ((idx >> p) & 1) << i;
                }
                if tt.get(sub) {
                    bits |= 1 << idx;
                }
            }
            TruthTable::from_bits(m, bits)
        }
        fn merge_leaves(a: &[NodeId], b: &[NodeId], max: usize) -> Option<Vec<NodeId>> {
            let mut out = Vec::with_capacity(a.len() + b.len());
            let (mut i, mut j) = (0, 0);
            while i < a.len() || j < b.len() {
                let next = if j >= b.len() || (i < a.len() && a[i] <= b[j]) {
                    if j < b.len() && a[i] == b[j] {
                        j += 1;
                    }
                    let v = a[i];
                    i += 1;
                    v
                } else {
                    let v = b[j];
                    j += 1;
                    v
                };
                out.push(next);
                if out.len() > max {
                    return None;
                }
            }
            Some(out)
        }
        let dominates = |k: &[NodeId], c: &[NodeId]| {
            k.len() <= c.len() && k.iter().all(|l| c.binary_search(l).is_ok())
        };
        let mut all: Vec<Vec<(Vec<NodeId>, TruthTable)>> = Vec::new();
        for id in aig.node_ids() {
            let cuts = match aig.kind(id) {
                NodeKind::Const0 => vec![(vec![], TruthTable::zero(0))],
                NodeKind::Input(_) => vec![(vec![id], TruthTable::var(1, 0))],
                NodeKind::And(fa, fb) => {
                    let mut merged = Vec::new();
                    for (la, ta) in &all[fa.node().index()] {
                        for (lb, tb) in &all[fb.node().index()] {
                            let Some(leaves) = merge_leaves(la, lb, config.max_leaves) else {
                                continue;
                            };
                            let mut ta = expand(*ta, la, &leaves);
                            let mut tb = expand(*tb, lb, &leaves);
                            if fa.is_complement() {
                                ta = !ta;
                            }
                            if fb.is_complement() {
                                tb = !tb;
                            }
                            merged.push((leaves, ta & tb));
                        }
                    }
                    merged.sort_by_key(|(l, _)| l.len());
                    let mut kept: Vec<(Vec<NodeId>, TruthTable)> = Vec::new();
                    for cut in merged {
                        if kept
                            .iter()
                            .any(|(k, _)| dominates(k, &cut.0) && *k != cut.0)
                        {
                            continue;
                        }
                        if kept.iter().any(|(k, _)| *k == cut.0) {
                            continue;
                        }
                        kept.push(cut);
                        if kept.len() >= config.max_cuts {
                            break;
                        }
                    }
                    kept.push((vec![id], TruthTable::var(1, 0)));
                    kept
                }
            };
            all.push(cuts);
        }
        all
    }

    /// A random network from a byte script: each 4-byte chunk picks two
    /// (possibly complemented) literals from the pool of everything built
    /// so far — so fanins are shared — and adds an AND, XOR or MAJ3 node.
    fn script_aig(script: &[u8], num_pis: usize) -> Aig {
        let mut g = Aig::new();
        let mut pool: Vec<Lit> = (0..num_pis).map(|_| g.add_pi()).collect();
        for chunk in script.chunks_exact(4) {
            let pick = |byte: u8, neg: bool| {
                let l = pool[byte as usize % pool.len()];
                if neg {
                    !l
                } else {
                    l
                }
            };
            let a = pick(chunk[0], chunk[3] & 1 != 0);
            let b = pick(chunk[1], chunk[3] & 2 != 0);
            let c = pick(chunk[2], chunk[3] & 4 != 0);
            let out = match chunk[3] >> 3 & 3 {
                0 | 1 => g.and(a, b),
                2 => g.xor(a, b),
                _ => g.maj3(a, b, c),
            };
            pool.push(out);
        }
        g.add_po(*pool.last().expect("nonempty pool"));
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

        #[test]
        fn kernel_matches_reference_enumerator(
            script in prop::collection::vec(any::<u8>(), 0..400),
            num_pis in 1usize..=8,
            max_leaves in 1usize..=6,
            max_cuts in 1usize..=30,
        ) {
            let g = script_aig(&script, num_pis);
            let config = CutConfig { max_leaves, max_cuts };
            let fast = enumerate_cuts(&g, &config);
            let reference = enumerate_cuts_reference(&g, &config);
            let mut total = 0;
            for id in g.node_ids() {
                let got: Vec<(Vec<NodeId>, TruthTable)> = fast
                    .cuts(id)
                    .iter()
                    .map(|c| (c.leaves().to_vec(), c.truth_table()))
                    .collect();
                prop_assert_eq!(&got, &reference[id.index()], "node {:?}", id);
                total += got.len();
            }
            prop_assert_eq!(fast.total(), total);
        }

        /// A set serves another limit only when it is exactly that
        /// limit's enumeration, and never when some node reached its own
        /// limit.
        #[test]
        fn served_limit_gets_the_identical_set(
            script in prop::collection::vec(any::<u8>(), 0..400),
            num_pis in 1usize..=8,
            max_leaves in 2usize..=4,
            limit in 1usize..=12,
            other in 1usize..=12,
        ) {
            let g = script_aig(&script, num_pis);
            let config = |max_cuts| CutConfig { max_leaves, max_cuts };
            let set = enumerate_cuts(&g, &config(limit));
            prop_assert!(set.serves(&config(limit)));
            prop_assert!(!set.serves(&CutConfig { max_leaves: max_leaves + 1, max_cuts: limit }));
            let at_limit = g.node_ids().any(|id| {
                matches!(g.kind(id), NodeKind::And(..)) && set.cuts(id).len() == limit + 1
            });
            if at_limit && other != limit {
                prop_assert!(!set.serves(&config(other)));
            }
            if set.serves(&config(other)) {
                let fresh = enumerate_cuts(&g, &config(other));
                for id in g.node_ids() {
                    prop_assert_eq!(set.cuts(id), fresh.cuts(id), "node {:?}", id);
                }
                prop_assert_eq!(set.total(), fresh.total());
            }
        }
    }

    fn tiny_and() -> (Aig, Lit) {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.and(a, b);
        g.add_po(x);
        (g, x)
    }

    /// The cut arena is the enumeration's largest allocation: a cut keeps
    /// only its truth table's word, since the leaf count is its width.
    #[test]
    fn cut_is_48_bytes() {
        assert_eq!(std::mem::size_of::<Cut>(), 48);
    }

    #[test]
    fn and_node_has_pi_cut() {
        let (g, x) = tiny_and();
        let cuts = enumerate_cuts(&g, &CutConfig::default());
        let set = cuts.cuts(x.node());
        let two_leaf = set
            .iter()
            .find(|c| c.leaves().len() == 2)
            .expect("2-leaf cut");
        let expect = TruthTable::var(2, 0) & TruthTable::var(2, 1);
        assert_eq!(two_leaf.truth_table(), expect);
    }

    #[test]
    fn trivial_cut_present() {
        let (g, x) = tiny_and();
        let cuts = enumerate_cuts(&g, &CutConfig::default());
        assert!(cuts.cuts(x.node()).iter().any(|c| c.leaves() == [x.node()]));
    }

    #[test]
    fn xor3_found_as_3cut() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let x = g.xor3(a, b, c);
        g.add_po(x);
        let cuts = enumerate_cuts(&g, &CutConfig::default());
        // The root literal may be complemented (xor is built via or); the cut
        // function describes the positive node, so compare modulo polarity.
        let found = cuts.cuts(x.node()).iter().any(|cut| {
            cut.leaves().len() == 3 && {
                let tt = if x.is_complement() {
                    !cut.truth_table()
                } else {
                    cut.truth_table()
                };
                tt == TruthTable::xor3()
            }
        });
        assert!(found, "xor3 cut must be enumerated");
    }

    #[test]
    fn maj3_found_as_3cut() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let m = g.maj3(a, b, c);
        g.add_po(m);
        let cuts = enumerate_cuts(&g, &CutConfig::default());
        let found = cuts.cuts(m.node()).iter().any(|cut| {
            cut.leaves().len() == 3 && {
                let tt = if m.is_complement() {
                    !cut.truth_table()
                } else {
                    cut.truth_table()
                };
                tt == TruthTable::maj3()
            }
        });
        assert!(found, "maj3 cut must be enumerated");
    }

    #[test]
    fn or3_found_with_complements() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let o1 = g.or(a, b);
        let o = g.or(o1, c);
        g.add_po(o);
        let cuts = enumerate_cuts(&g, &CutConfig::default());
        // The root node computes !(or3) structurally (AND of complements);
        // its positive-literal function is the AND; with the PO complement it
        // is or3. Check that the 3-cut function matches !or3 on the node.
        let found = cuts.cuts(o.node()).iter().any(|cut| {
            cut.leaves().len() == 3 && {
                let tt = if o.is_complement() {
                    !cut.truth_table()
                } else {
                    cut.truth_table()
                };
                tt == TruthTable::or3()
            }
        });
        assert!(found, "or3 cut must be enumerated (modulo root polarity)");
    }

    /// Asserts that, for every cut of every node and every input
    /// assignment, evaluating the cut's truth table on the leaf values
    /// equals the node value.
    fn assert_cut_functions_match_eval(g: &Aig, config: &CutConfig) {
        let cuts = enumerate_cuts(g, config);
        let n = g.pi_count();
        for idx in 0..1u32 << n {
            let bits: Vec<bool> = (0..n).map(|i| idx >> i & 1 == 1).collect();
            let mut vals = vec![false; g.len()];
            for id in g.node_ids() {
                vals[id.index()] = match g.kind(id) {
                    NodeKind::Const0 => false,
                    NodeKind::Input(i) => bits[i as usize],
                    NodeKind::And(fa, fb) => {
                        (vals[fa.node().index()] ^ fa.is_complement())
                            & (vals[fb.node().index()] ^ fb.is_complement())
                    }
                };
            }
            for id in g.node_ids() {
                for cut in cuts.cuts(id) {
                    let mut leaf_idx = 0usize;
                    for (i, l) in cut.leaves().iter().enumerate() {
                        if vals[l.index()] {
                            leaf_idx |= 1 << i;
                        }
                    }
                    assert_eq!(
                        cut.truth_table().get(leaf_idx),
                        vals[id.index()],
                        "cut of node {id:?} disagrees at input {idx}"
                    );
                }
            }
        }
    }

    #[test]
    fn cut_functions_match_network_eval() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let d = g.add_pi();
        let s1 = g.xor(a, b);
        let s2 = g.maj3(s1, c, d);
        let s3 = g.and(s2, a);
        g.add_po(s3);
        let config = CutConfig {
            max_leaves: 4,
            max_cuts: 50,
        };
        assert_cut_functions_match_eval(&g, &config);

        // The widest expansion: six leaves, interleaved across the fanin
        // cuts so every lifted variable has to move.
        let mut g = Aig::new();
        let x: Vec<Lit> = (0..6).map(|_| g.add_pi()).collect();
        let lo = g.xor3(x[0], !x[2], x[4]);
        let hi = g.maj3(x[1], x[3], !x[5]);
        let root = g.xor(lo, hi);
        g.add_po(root);
        let config = CutConfig {
            max_leaves: 6,
            max_cuts: 50,
        };
        let cuts = enumerate_cuts(&g, &config);
        assert!(
            cuts.cuts(root.node()).iter().any(|c| c.leaves().len() == 6),
            "the root must have a 6-leaf cut"
        );
        assert_cut_functions_match_eval(&g, &config);
    }

    #[test]
    fn max_cuts_respected() {
        let mut g = Aig::new();
        let pis: Vec<_> = (0..8).map(|_| g.add_pi()).collect();
        let mut acc = pis[0];
        for &p in &pis[1..] {
            acc = g.xor(acc, p);
        }
        g.add_po(acc);
        let cfg = CutConfig {
            max_leaves: 4,
            max_cuts: 5,
        };
        let cuts = enumerate_cuts(&g, &cfg);
        for id in g.node_ids() {
            assert!(cuts.cuts(id).len() <= cfg.max_cuts + 1);
        }
    }

    #[test]
    fn dominated_cuts_removed() {
        let (g, x) = tiny_and();
        let cuts = enumerate_cuts(&g, &CutConfig::default());
        // The {a, b} cut must not coexist with a dominated {a, b, anything}.
        for c in cuts.cuts(x.node()) {
            assert!(c.leaves().len() <= 2);
        }
    }
}
