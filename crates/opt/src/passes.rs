//! The rebuilding network transformations behind the pass manager:
//! structural hashing and AND-tree balancing (sweeping edits in place via
//! [`sfq_netlist::transform::sweep_in_place`]; rewriting lives in
//! [`crate::rewrite`]).

use crate::analysis::OptContext;
use crate::util::mapped;
use sfq_netlist::aig::{Aig, Lit, NodeId, NodeKind};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Rebuilds every node of `aig` through the structural-hashing builder,
/// merging duplicate two-level structures. Unlike the `sweep` pass,
/// dangling logic is preserved (merged, but not removed), so the pass is a
/// pure deduplication. Returns the network and the number of AND nodes
/// merged away.
pub fn strash_network(aig: &Aig) -> (Aig, usize) {
    let mut out = Aig::new();
    let mut map: Vec<Option<Lit>> = vec![None; aig.len()];
    map[NodeId::CONST0.index()] = Some(Lit::FALSE);
    for id in aig.node_ids() {
        match aig.kind(id) {
            NodeKind::Const0 => {}
            NodeKind::Input(_) => map[id.index()] = Some(out.add_pi()),
            NodeKind::And(a, b) => {
                let (fa, fb) = (mapped(&map, a), mapped(&map, b));
                map[id.index()] = Some(out.and(fa, fb));
            }
        }
    }
    for &po in aig.pos() {
        out.add_po(mapped(&map, po));
    }
    let merged = aig.and_count().saturating_sub(out.and_count());
    (out, merged)
}

/// Per-node "internal to an AND tree" classification: an AND with exactly
/// one fanout, that fanout being a non-complemented fanin edge of another
/// AND. Such nodes dissolve into their parent's multi-input conjunction.
fn internal_flags(aig: &Aig) -> Vec<bool> {
    let mut and_parent_refs = vec![0u32; aig.len()];
    let mut complemented_ref = vec![false; aig.len()];
    for id in aig.and_ids() {
        let (a, b) = aig.fanins(id).expect("AND node has fanins");
        for l in [a, b] {
            and_parent_refs[l.node().index()] += 1;
            if l.is_complement() {
                complemented_ref[l.node().index()] = true;
            }
        }
    }
    aig.node_ids()
        .map(|id| {
            matches!(aig.kind(id), NodeKind::And(..))
                && aig.fanout_count(id) == 1
                && and_parent_refs[id.index()] == 1
                && !complemented_ref[id.index()]
        })
        .collect()
}

/// Collects the leaf literals of the maximal AND tree rooted at `root`.
fn collect_tree(aig: &Aig, internal: &[bool], root: NodeId, leaves: &mut Vec<Lit>) {
    let (a, b) = aig.fanins(root).expect("tree root is an AND");
    for l in [a, b] {
        if !l.is_complement() && internal[l.node().index()] {
            collect_tree(aig, internal, l.node(), leaves);
        } else {
            leaves.push(l);
        }
    }
}

/// Extends `levels` to cover nodes appended to `aig` since the last call.
fn sync_levels(aig: &Aig, levels: &mut Vec<u32>) {
    for idx in levels.len()..aig.len() {
        let id = NodeId(idx as u32);
        let l = match aig.fanins(id) {
            Some((a, b)) => 1 + levels[a.node().index()].max(levels[b.node().index()]),
            None => 0,
        };
        levels.push(l);
    }
}

/// Rebalances maximal AND trees to minimize depth: leaves are combined
/// two-lowest-levels-first (the optimal-merge strategy), so every tree ends
/// at the minimum possible level given its leaf levels — never deeper than
/// before. Duplicate leaves are deduplicated and complementary leaf pairs
/// collapse the tree to constant false. Returns the network and the number
/// of trees (≥ 3 leaves) rebuilt.
pub fn balance_network(aig: &Aig) -> (Aig, usize) {
    balance_trees(aig, &internal_flags(aig))
}

/// Slack-prioritized balancing: only trees whose root sits on a tight
/// PI→PO path (zero slack under `sfq-sta`'s unit-delay analysis) are
/// rebuilt; everything off the critical paths is copied verbatim. Depth
/// never increases and the zero-slack trees shrink as far as full
/// balancing would shrink them; the network depth matches full balancing
/// whenever the rebuilt critical trees remain the deepest (a near-critical
/// tree left alone can otherwise become the new depth limit — the fixpoint
/// loop re-levels and picks it up next round). Non-critical structure (and
/// any sharing rewriting set up there) is left untouched. Returns the
/// network and the number of trees rebuilt.
pub fn balance_critical_network(aig: &Aig) -> (Aig, usize) {
    balance_critical_network_ctx(aig, &mut OptContext::scratch())
}

/// [`balance_critical_network`] consuming the caller's analysis context:
/// the slack classification reads the context's cached timing analysis (a
/// cache hit or an incremental rebind when a slack-aware rewrite ran
/// earlier in the pipeline) instead of building a throwaway one.
pub fn balance_critical_network_ctx(aig: &Aig, ctx: &mut OptContext) -> (Aig, usize) {
    let sta = ctx.sta(aig);
    let mut internal = internal_flags(aig);
    // Restrict the dissolve set to trees rooted at zero-slack nodes: an
    // internal node keeps its flag only if its (unique) maximal tree root
    // is critical. Roots are the non-internal ANDs; walk each critical
    // root's tree and collect the members, then clear everyone else.
    let mut keep = vec![false; aig.len()];
    for id in aig.and_ids() {
        if internal[id.index()] {
            continue; // not a root
        }
        if sta.slack(id) != 0 {
            continue; // off the critical paths: leave the tree alone
        }
        // Mark this tree's internal members.
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            let (a, b) = aig.fanins(n).expect("AND tree member");
            for l in [a, b] {
                if !l.is_complement() && internal[l.node().index()] {
                    keep[l.node().index()] = true;
                    stack.push(l.node());
                }
            }
        }
    }
    for (i, flag) in internal.iter_mut().enumerate() {
        *flag &= keep[i];
    }
    balance_trees(aig, &internal)
}

/// Shared rebuild behind [`balance_network`] and
/// [`balance_critical_network`]: dissolves exactly the trees described by
/// `internal` and rebuilds each with the optimal-merge heap.
fn balance_trees(aig: &Aig, internal: &[bool]) -> (Aig, usize) {
    let mut out = Aig::new();
    let mut levels: Vec<u32> = Vec::new();
    let mut map: Vec<Option<Lit>> = vec![None; aig.len()];
    map[NodeId::CONST0.index()] = Some(Lit::FALSE);
    let mut rebuilt = 0usize;
    for id in aig.node_ids() {
        match aig.kind(id) {
            NodeKind::Const0 => {}
            NodeKind::Input(_) => map[id.index()] = Some(out.add_pi()),
            NodeKind::And(..) => {
                if internal[id.index()] {
                    continue; // dissolved into its tree root
                }
                let mut leaves = Vec::new();
                collect_tree(aig, internal, id, &mut leaves);
                let mut lits: Vec<Lit> = leaves.iter().map(|&l| mapped(&map, l)).collect();
                lits.sort();
                lits.dedup();
                let contradiction = lits.windows(2).any(|w| w[0] == !w[1]);
                let result = if contradiction || lits.contains(&Lit::FALSE) {
                    Lit::FALSE
                } else {
                    lits.retain(|&l| l != Lit::TRUE);
                    if lits.len() >= 3 {
                        rebuilt += 1;
                    }
                    sync_levels(&out, &mut levels);
                    let mut heap: BinaryHeap<Reverse<(u32, Lit)>> = lits
                        .iter()
                        .map(|&l| Reverse((levels[l.node().index()], l)))
                        .collect();
                    while heap.len() >= 2 {
                        let Reverse((_, x)) = heap.pop().expect("two entries");
                        let Reverse((_, y)) = heap.pop().expect("two entries");
                        let t = out.and(x, y);
                        sync_levels(&out, &mut levels);
                        heap.push(Reverse((levels[t.node().index()], t)));
                    }
                    match heap.pop() {
                        Some(Reverse((_, l))) => l,
                        None => Lit::TRUE, // every leaf was constant true
                    }
                };
                map[id.index()] = Some(result);
            }
        }
    }
    for &po in aig.pos() {
        out.add_po(mapped(&map, po));
    }
    (out, rebuilt)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_equal(a: &Aig, b: &Aig) {
        assert_eq!(a.pi_count(), b.pi_count());
        assert_eq!(a.po_count(), b.po_count());
        let mut state = 0x5EED_5EED_5EED_5EEDu64;
        for _ in 0..8 {
            let inputs: Vec<u64> = (0..a.pi_count())
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                })
                .collect();
            assert_eq!(a.eval64(&inputs), b.eval64(&inputs));
        }
    }

    #[test]
    fn balance_flattens_a_chain() {
        let mut g = Aig::new();
        let pis: Vec<Lit> = (0..8).map(|_| g.add_pi()).collect();
        let mut acc = pis[0];
        for &p in &pis[1..] {
            acc = g.and(acc, p);
        }
        g.add_po(acc);
        assert_eq!(g.depth(), 7);
        let (b, rebuilt) = balance_network(&g);
        assert_eq!(rebuilt, 1);
        assert_eq!(b.depth(), 3, "8-leaf tree balances to depth 3");
        assert_eq!(b.and_count(), 7);
        eval_equal(&g, &b);
    }

    #[test]
    fn balance_respects_leaf_levels() {
        // A chain hanging off a deep leaf: the deep leaf must join last.
        let mut g = Aig::new();
        let pis: Vec<Lit> = (0..6).map(|_| g.add_pi()).collect();
        let deep = g.xor3(pis[0], pis[1], pis[2]); // level 4 cone
        let mut acc = deep;
        for &p in &pis[3..] {
            acc = g.and(acc, p);
        }
        g.add_po(acc);
        let (b, _) = balance_network(&g);
        assert!(b.depth() <= g.depth());
        eval_equal(&g, &b);
    }

    #[test]
    fn balance_handles_duplicates_and_contradictions() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        // a & b & a — duplicate leaf.
        let t1 = g.and(a, b);
        let dup = g.and(t1, a);
        // (a & c) & !a — hidden contradiction.
        let t2 = g.and(a, c);
        let zero = g.and(t2, !a);
        g.add_po(dup);
        g.add_po(zero);
        let (bal, _) = balance_network(&g);
        eval_equal(&g, &bal);
        assert!(bal.and_count() <= g.and_count());
        // The contradictory tree must fold to constant false.
        assert!(!bal.eval(&[true, true, true])[1]);
    }

    #[test]
    fn balance_keeps_shared_nodes_as_leaves() {
        let mut g = Aig::new();
        let pis: Vec<Lit> = (0..4).map(|_| g.add_pi()).collect();
        let shared = g.and(pis[0], pis[1]);
        let x = g.and(shared, pis[2]);
        let y = g.and(shared, pis[3]);
        g.add_po(x);
        g.add_po(y);
        let (b, _) = balance_network(&g);
        assert_eq!(b.and_count(), 3, "shared node must not be duplicated");
        eval_equal(&g, &b);
    }

    #[test]
    fn critical_balance_rebuilds_only_zero_slack_trees() {
        // A deep AND chain (critical) next to a shallow chain that ends in
        // a gate with plenty of slack: full balancing rebuilds both, the
        // slack-prioritized variant touches only the critical tree — and
        // both land on the same depth, because depth is decided by the
        // zero-slack tree.
        let mut g = Aig::new();
        let pis: Vec<Lit> = (0..8).map(|_| g.add_pi()).collect();
        let mut deep = pis[0];
        for &p in &pis[1..8] {
            deep = g.and(deep, p);
        }
        // Over complemented literals so the side tree neither shares
        // structure with the deep chain nor is implied by it.
        let mut side = !pis[3];
        for &p in pis[..3].iter().rev() {
            side = g.and(side, !p);
        }
        let top = g.and(deep, !side);
        g.add_po(top);
        let (full, full_rebuilt) = balance_network(&g);
        let (crit, crit_rebuilt) = balance_critical_network(&g);
        assert_eq!(full_rebuilt, 2, "full balancing rebuilds both trees");
        assert_eq!(crit_rebuilt, 1, "only the critical tree is rebuilt");
        assert_eq!(full.depth(), crit.depth(), "same depth either way");
        assert!(crit.depth() < g.depth());
        eval_equal(&g, &crit);
        eval_equal(&g, &full);
    }

    #[test]
    fn strash_preserves_dangling_sweep_removes() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let keep = g.and(a, b);
        let _dead = g.xor(a, b);
        g.add_po(keep);
        let (s, merged) = strash_network(&g);
        assert_eq!(merged, 0);
        assert_eq!(s.and_count(), g.and_count(), "strash keeps dangling logic");
        let mut w = g.clone();
        let removed = sfq_netlist::transform::sweep_in_place(&mut w);
        w.compact();
        assert_eq!(removed, 3);
        assert_eq!(w.and_count(), 1);
        eval_equal(&g, &w);
    }
}
