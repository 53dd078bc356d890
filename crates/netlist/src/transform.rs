//! Network transformations and statistics.
//!
//! - [`sweep`] — rebuilds an AIG keeping only the logic reachable from the
//!   primary outputs (dead-node sweep, constant propagation through the
//!   builder's simplification rules, and re-strashing);
//! - [`sweep_in_place`] — the ID-stable variant behind the `sweep` pass of
//!   the `sfq-opt` pass manager: kills unreachable nodes where they stand
//!   instead of rebuilding, so surviving nodes keep their ids;
//! - [`ConeRewrite`] / [`apply_cone_rewrites_in_place`] — the batch
//!   cone-rewrite engine: a network-independent description of "replace
//!   this fanout-free cone with this AND program", applied by editing slots
//!   in place. The result is structurally identical to a full
//!   reconstruction through the builder (the reference rebuild this
//!   module's tests compare against);
//! - [`NetworkStats`] — summary numbers for reports and regression tests.
//!
//! # Examples
//!
//! ```
//! use sfq_netlist::aig::Aig;
//! use sfq_netlist::transform::{sweep, NetworkStats};
//!
//! let mut g = Aig::new();
//! let a = g.add_pi();
//! let b = g.add_pi();
//! let used = g.and(a, b);
//! let _dead = g.xor(a, b); // never drives an output
//! g.add_po(used);
//! let clean = sweep(&g);
//! assert_eq!(clean.and_count(), 1);
//! let stats = NetworkStats::of(&clean);
//! assert_eq!(stats.ands, 1);
//! ```

use crate::aig::{fold_and, Aig, Lit, NodeId, NodeKind};
use std::fmt;

/// Rebuilds `aig` keeping only logic in the transitive fanin of the primary
/// outputs. Input and output order is preserved; structural hashing may
/// merge nodes that became equivalent through the copy, and constants feed
/// through the builder's simplification rules (constant propagation).
pub fn sweep(aig: &Aig) -> Aig {
    let mut reached = Vec::new();
    aig.mark_output_cones(&mut reached);
    let mut out = Aig::new();
    // Old node → new literal; only entries of reached nodes are ever read.
    let mut map = vec![Lit::FALSE; aig.len()];
    for &pi in aig.pis() {
        map[pi.index()] = out.add_pi();
    }
    let follow = |map: &[Lit], l: Lit| {
        let base = map[l.node().index()];
        base.with_complement(base.is_complement() ^ l.is_complement())
    };
    // Build in id order (topological) restricted to reachable nodes.
    for id in aig.node_ids() {
        if !reached[id.index()] {
            continue;
        }
        if let NodeKind::And(a, b) = aig.kind(id) {
            map[id.index()] = out.and(follow(&map, a), follow(&map, b));
        }
    }
    for &po in aig.pos() {
        out.add_po(follow(&map, po));
    }
    out
}

/// [`sweep`] without the rebuild: kills every AND unreachable from the
/// primary outputs where it stands, leaving all surviving node ids (and the
/// strash entries and analyses keyed on them) untouched. Returns the number
/// of nodes removed.
///
/// Freed slots stay on the free list until [`Aig::compact`]; every analysis
/// in this crate tolerates the holes. On networks built through [`Aig::and`]
/// — which folds constants and merges duplicates eagerly — the reachable
/// logic is already simplified, so `sweep_in_place(&mut g); g.compact();`
/// produces the same network as the rebuilding [`sweep`] whenever the PIs
/// precede all ANDs (the order every builder in this workspace uses).
pub fn sweep_in_place(aig: &mut Aig) -> usize {
    let mut reached = Vec::new();
    aig.mark_output_cones(&mut reached);
    let mut removed = 0;
    for (idx, &reachable) in reached.iter().enumerate() {
        let id = NodeId(idx as u32);
        if reachable || aig.is_dead(id) {
            continue;
        }
        if let NodeKind::And(a, b) = aig.kind(id) {
            aig.strash_remove_if((a, b), id);
            aig.kill_raw(id);
            removed += 1;
        }
    }
    if removed > 0 {
        aig.recompute_fanouts();
    }
    removed
}

/// One selected cone replacement for the batch rewrite engine: destroy the
/// fanout-free cone of `root` (the `freed` set) and recompute its output as
/// a straight-line AND program over `inputs`.
///
/// This is the network-independent form the `sfq-opt` rewriter lowers its
/// accepted sites into; [`apply_cone_rewrites_in_place`] applies a batch of
/// them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConeRewrite {
    /// The cone's root node — the highest-indexed member of `freed`.
    pub root: NodeId,
    /// The nodes this rewrite destroys: the root's maximum fanout-free cone
    /// within the cut, `root` included. Freed sets of distinct sites must be
    /// disjoint, and no site's `inputs` may reference another site's freed
    /// node (the selection loop in `sfq-opt` guarantees both).
    pub freed: Vec<NodeId>,
    /// Cut-leaf literals feeding the program, in program-input order, with
    /// any NPN input negations already folded into the complement bits.
    pub inputs: Vec<Lit>,
    /// AND steps over packed program literals `slot << 1 | negate`: slot 0
    /// is constant false, slots `1..=inputs.len()` are the inputs, and slot
    /// `inputs.len() + 1 + k` is the output of step `k`.
    pub steps: Vec<(u16, u16)>,
    /// Packed program literal selecting the replacement output (any NPN
    /// output negation already folded in).
    pub out: u16,
}

/// Resolves a packed program literal against materialized step values.
fn program_resolve(vals: &[Lit], l: u16) -> Lit {
    let lit = vals[(l >> 1) as usize];
    lit.with_complement(lit.is_complement() ^ (l & 1 == 1))
}

/// Indexes `sites` by root and marks every non-root freed node as doomed.
fn index_sites(sites: &[ConeRewrite], len: usize) -> (Vec<Option<usize>>, Vec<bool>) {
    let mut site_at: Vec<Option<usize>> = vec![None; len];
    let mut doomed = vec![false; len];
    for (i, s) in sites.iter().enumerate() {
        debug_assert!(
            s.freed.contains(&s.root),
            "a site's freed set includes its root"
        );
        site_at[s.root.index()] = Some(i);
        for &n in &s.freed {
            if n != s.root {
                doomed[n.index()] = true;
            }
        }
    }
    (site_at, doomed)
}

/// Applies a batch of cone rewrites in place. One forward scan over `aig`
/// destroys each site's cone where it stands at its root's position,
/// re-emits the program steps into freed slots, folds survivors whose
/// fanins changed, and ends with [`Aig::compact_to`] in emission order plus
/// one fanout recompute. The result is structurally identical to copying
/// the survivors and programs into a fresh network through [`Aig::and`] —
/// same node kinds, ids, and interface — while allocating only the
/// bookkeeping vectors (no second network).
///
/// Returns the old→new id map from the final compaction (`None` for
/// destroyed or folded nodes), which is exactly the dirty-set information
/// an incremental consumer needs.
pub fn apply_cone_rewrites_in_place(aig: &mut Aig, sites: &[ConeRewrite]) -> Vec<Option<NodeId>> {
    let old_len = aig.len();
    let (site_at, doomed) = index_sites(sites, old_len);
    // repl[original id] = the literal it maps to in the edited network
    // (current slot ids, pre-compaction). emitted marks slots belonging to
    // the new network, in `order` (the order a fresh rebuild would
    // allocate them in).
    let mut repl: Vec<Option<Lit>> = vec![None; old_len];
    repl[0] = Some(Lit::FALSE);
    let mut emitted: Vec<bool> = vec![false; old_len];
    emitted[0] = true;
    let mut order: Vec<NodeId> = Vec::with_capacity(old_len);
    let resolved = |repl: &[Option<Lit>], l: Lit| -> Lit {
        let base = repl[l.node().index()].expect("reference into a destroyed cone");
        base.with_complement(base.is_complement() ^ l.is_complement())
    };
    for idx in 1..old_len {
        let id = NodeId(idx as u32);
        if aig.is_dead(id) {
            continue;
        }
        match aig.kind(id) {
            NodeKind::Const0 => unreachable!("constant appears only at slot 0"),
            NodeKind::Input(_) => {
                repl[idx] = Some(Lit::new(id, false));
                emitted[idx] = true;
                order.push(id);
            }
            NodeKind::And(a, b) => {
                if let Some(si) = site_at[idx] {
                    let site = &sites[si];
                    // Destroy the whole cone first so its slots are free
                    // for the program steps. Interior members were skipped
                    // (doomed) when the scan passed them, so their kinds
                    // are still intact here.
                    for &n in &site.freed {
                        let NodeKind::And(fa, fb) = aig.kind(n) else {
                            unreachable!("freed cone members are ANDs");
                        };
                        aig.strash_remove_if((fa, fb), n);
                        aig.kill_raw(n);
                    }
                    let ins: Vec<Lit> = site.inputs.iter().map(|&l| resolved(&repl, l)).collect();
                    let lit = emit_program(aig, site, &ins, &mut emitted, &mut order);
                    repl[idx] = Some(lit);
                } else if doomed[idx] {
                    // Destroyed at its site root's position, later in the
                    // scan. Leave the slot alone until then.
                } else {
                    let (fa, fb) = (resolved(&repl, a), resolved(&repl, b));
                    repl[idx] = Some(emit_survivor(
                        aig,
                        id,
                        (a, b),
                        fa,
                        fb,
                        &mut emitted,
                        &mut order,
                    ));
                }
            }
        }
    }
    let pos: Vec<Lit> = aig.pos().to_vec();
    for (i, po) in pos.into_iter().enumerate() {
        aig.set_po_raw(i, resolved(&repl, po));
    }
    let map = aig.compact_to(&order);
    aig.recompute_fanouts();
    map
}

/// Emits one AND during the in-place scan with *restricted* structural
/// hashing: a strash probe only counts as a hit when its owner is already
/// part of the new network (`emitted`), exactly matching what a fresh
/// rebuild's strash would contain at this point. A miss whose key is
/// owned by a not-yet-emitted original node claims the key; when that owner
/// is scanned later it folds into the claimant, keeping eager duplicate
/// merging intact.
fn emit_and(
    aig: &mut Aig,
    a: Lit,
    b: Lit,
    emitted: &mut Vec<bool>,
    order: &mut Vec<NodeId>,
) -> Lit {
    if let Some(f) = fold_and(a, b) {
        return f;
    }
    let (a, b) = if a <= b { (a, b) } else { (b, a) };
    match aig.strash_get((a, b)) {
        Some(w) if emitted[w.index()] => Lit::new(w, false),
        _ => {
            let id = aig.alloc_any_raw(a, b);
            if id.index() >= emitted.len() {
                emitted.resize(id.index() + 1, false);
            }
            aig.strash_insert((a, b), id);
            emitted[id.index()] = true;
            order.push(id);
            Lit::new(id, false)
        }
    }
}

/// Emits a surviving AND in place. The node keeps its own slot when it
/// stays live; it is killed when its resolved fanins fold or duplicate an
/// emitted node (mirroring what [`Aig::and`] would have returned in a fresh
/// rebuild).
fn emit_survivor(
    aig: &mut Aig,
    id: NodeId,
    old_key: (Lit, Lit),
    fa: Lit,
    fb: Lit,
    emitted: &mut [bool],
    order: &mut Vec<NodeId>,
) -> Lit {
    aig.strash_remove_if(old_key, id);
    if let Some(f) = fold_and(fa, fb) {
        aig.kill_raw(id);
        return f;
    }
    let (fa, fb) = if fa <= fb { (fa, fb) } else { (fb, fa) };
    match aig.strash_get((fa, fb)) {
        Some(w) if emitted[w.index()] => {
            aig.kill_raw(id);
            Lit::new(w, false)
        }
        _ => {
            // Fresh pair, or a key owned by a not-yet-emitted original
            // node: keep this slot and claim the key (the old owner folds
            // into us when the scan reaches it).
            aig.set_and_raw(id, fa, fb);
            aig.strash_insert((fa, fb), id);
            emitted[id.index()] = true;
            order.push(id);
            Lit::new(id, false)
        }
    }
}

/// Instantiates a site's program during the in-place scan via
/// [`emit_and`]: one emission per step, in program order.
fn emit_program(
    aig: &mut Aig,
    site: &ConeRewrite,
    ins: &[Lit],
    emitted: &mut Vec<bool>,
    order: &mut Vec<NodeId>,
) -> Lit {
    let mut vals: Vec<Lit> = Vec::with_capacity(1 + ins.len() + site.steps.len());
    vals.push(Lit::FALSE);
    vals.extend_from_slice(ins);
    for &(a, b) in &site.steps {
        let (la, lb) = (program_resolve(&vals, a), program_resolve(&vals, b));
        vals.push(emit_and(aig, la, lb, emitted, order));
    }
    program_resolve(&vals, site.out)
}

/// Summary statistics of an AIG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkStats {
    /// Primary inputs.
    pub pis: usize,
    /// Primary outputs.
    pub pos: usize,
    /// AND gates.
    pub ands: usize,
    /// Logic depth (levels).
    pub depth: u32,
    /// Nodes with more than one fanout.
    pub multi_fanout_nodes: usize,
    /// Maximum fanout of any node.
    pub max_fanout: u32,
}

impl NetworkStats {
    /// Computes the statistics of `aig`.
    pub fn of(aig: &Aig) -> Self {
        let mut multi = 0;
        let mut max_fanout = 0;
        for id in aig.node_ids() {
            let f = aig.fanout_count(id);
            if f > 1 {
                multi += 1;
            }
            max_fanout = max_fanout.max(f);
        }
        NetworkStats {
            pis: aig.pi_count(),
            pos: aig.po_count(),
            ands: aig.and_count(),
            depth: aig.depth(),
            multi_fanout_nodes: multi,
            max_fanout,
        }
    }
}

impl fmt::Display for NetworkStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} PIs, {} POs, {} ANDs, depth {}, {} multi-fanout nodes (max fanout {})",
            self.pis, self.pos, self.ands, self.depth, self.multi_fanout_nodes, self.max_fanout
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference oracle for [`apply_cone_rewrites_in_place`]: applies a
    /// batch of cone rewrites by full reconstruction. One forward scan over
    /// `aig` copies PIs and surviving ANDs into a fresh network through
    /// [`Aig::and`], instantiates each site's program at its root's
    /// position, and skips the doomed cone interiors; POs are remapped at
    /// the end.
    fn apply_cone_rewrites_rebuild(aig: &Aig, sites: &[ConeRewrite]) -> Aig {
        let (site_at, doomed) = index_sites(sites, aig.len());
        let mut out = Aig::new();
        let mut map: Vec<Option<Lit>> = vec![None; aig.len()];
        map[0] = Some(Lit::FALSE);
        let mapped = |map: &[Option<Lit>], l: Lit| -> Lit {
            let base = map[l.node().index()].expect("reference into a destroyed cone");
            base.with_complement(base.is_complement() ^ l.is_complement())
        };
        for idx in 1..aig.len() {
            let id = NodeId(idx as u32);
            if aig.is_dead(id) {
                continue;
            }
            match aig.kind(id) {
                NodeKind::Const0 => unreachable!("constant appears only at slot 0"),
                NodeKind::Input(_) => map[idx] = Some(out.add_pi()),
                NodeKind::And(a, b) => {
                    if let Some(si) = site_at[idx] {
                        let site = &sites[si];
                        let mut vals = vec![Lit::FALSE];
                        vals.extend(site.inputs.iter().map(|&l| mapped(&map, l)));
                        for &(a, b) in &site.steps {
                            let (la, lb) = (program_resolve(&vals, a), program_resolve(&vals, b));
                            let lit = out.and(la, lb);
                            vals.push(lit);
                        }
                        map[idx] = Some(program_resolve(&vals, site.out));
                    } else if !doomed[idx] {
                        let (fa, fb) = (mapped(&map, a), mapped(&map, b));
                        map[idx] = Some(out.and(fa, fb));
                    }
                }
            }
        }
        for po in aig.pos() {
            out.add_po(mapped(&map, *po));
        }
        out
    }

    #[test]
    fn cleanup_removes_dead_logic() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let keep = g.and(a, b);
        let _dead1 = g.xor(a, b);
        let _dead2 = g.or(a, b);
        g.add_po(keep);
        let clean = sweep(&g);
        assert_eq!(clean.and_count(), 1);
        assert_eq!(clean.pi_count(), 2);
        for x in 0..4u32 {
            let bits = [x & 1 == 1, x >> 1 & 1 == 1];
            assert_eq!(g.eval(&bits)[0], clean.eval(&bits)[0]);
        }
    }

    #[test]
    fn cleanup_preserves_functions_and_order() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let x = g.xor3(a, b, c);
        let m = g.maj3(a, b, c);
        g.add_po(!x);
        g.add_po(m);
        let clean = sweep(&g);
        for i in 0..8u32 {
            let bits = [i & 1 == 1, i >> 1 & 1 == 1, i >> 2 & 1 == 1];
            assert_eq!(g.eval(&bits), clean.eval(&bits), "input {i}");
        }
    }

    #[test]
    fn cleanup_keeps_constant_outputs() {
        let mut g = Aig::new();
        let _a = g.add_pi();
        g.add_po(Lit::TRUE);
        g.add_po(Lit::FALSE);
        let clean = sweep(&g);
        assert_eq!(clean.eval(&[false]), vec![true, false]);
    }

    fn assert_fanouts_consistent(g: &Aig) {
        let counts = g.fanout_counts();
        for id in g.node_ids() {
            assert_eq!(
                g.fanout_count(id),
                counts[id.index()],
                "stored fanout of n{} disagrees with a fresh count",
                id.index()
            );
        }
    }

    #[test]
    fn sweep_in_place_matches_rebuild_sweep() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let keep = g.xor3(a, b, c);
        let _dead1 = g.maj3(a, b, c);
        let _dead2 = g.or(a, !c);
        g.add_po(keep);
        let rebuilt = sweep(&g);
        let removed = sweep_in_place(&mut g);
        assert!(removed > 0, "unreachable logic should be removed");
        assert_eq!(g.dead_count(), removed, "holes stay until compact");
        assert_fanouts_consistent(&g);
        g.compact();
        assert_eq!(g.structural_hash(), rebuilt.structural_hash());
    }

    #[test]
    fn sweep_in_place_keeps_survivor_ids_stable() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let keep = g.and(a, b);
        let _dead = g.or(a, b);
        g.add_po(keep);
        let keep_id = keep.node();
        sweep_in_place(&mut g);
        assert!(!g.is_dead(keep_id));
        assert_eq!(g.kind(keep_id), NodeKind::And(a, b));
        assert_eq!(g.eval(&[true, true]), vec![true]);
    }

    /// f = (a·b)·c with a one-deep MFFC, rewritten to a·(b·c).
    fn reassociation_site(t1: Lit, t2: Lit, a: Lit, b: Lit, c: Lit) -> ConeRewrite {
        // Program slots: 0 = false, 1..=3 = inputs a, b, c,
        // 4 = step 0 = b·c, 5 = step 1 = a·(b·c).
        ConeRewrite {
            root: t2.node(),
            freed: vec![t1.node(), t2.node()],
            inputs: vec![a, b, c],
            steps: vec![(2 << 1, 3 << 1), (1 << 1, 4 << 1)],
            out: 5 << 1,
        }
    }

    #[test]
    fn cone_engine_in_place_matches_rebuild() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let t1 = g.and(a, b);
        let t2 = g.and(t1, c);
        let up = g.and(t2, a); // survivor above the rewritten cone
        g.add_po(up);
        g.add_po(t2);
        let site = reassociation_site(t1, t2, a, b, c);
        let rebuilt = apply_cone_rewrites_rebuild(&g, std::slice::from_ref(&site));
        let mut ip = g.clone();
        apply_cone_rewrites_in_place(&mut ip, std::slice::from_ref(&site));
        assert_eq!(ip.structural_hash(), rebuilt.structural_hash());
        assert_eq!(ip.dead_count(), 0, "in-place apply ends compacted");
        assert_fanouts_consistent(&ip);
        for x in 0..8u32 {
            let bits = [x & 1 == 1, x >> 1 & 1 == 1, x >> 2 & 1 == 1];
            assert_eq!(g.eval(&bits), ip.eval(&bits), "input {x}");
        }
    }

    #[test]
    fn cone_engine_handles_literal_program_outputs() {
        // Replace the cone with plain !b: no steps, out = slot 2 negated.
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let t1 = g.and(a, b);
        let t2 = g.and(t1, c);
        g.add_po(t2);
        let site = ConeRewrite {
            root: t2.node(),
            freed: vec![t1.node(), t2.node()],
            inputs: vec![a, b, c],
            steps: vec![],
            out: (2 << 1) | 1,
        };
        let rebuilt = apply_cone_rewrites_rebuild(&g, std::slice::from_ref(&site));
        let mut ip = g.clone();
        apply_cone_rewrites_in_place(&mut ip, std::slice::from_ref(&site));
        assert_eq!(ip.structural_hash(), rebuilt.structural_hash());
        assert_eq!(ip.and_count(), 0);
        assert_eq!(ip.eval(&[false, true, false]), vec![false], "po is !b");
        assert_eq!(ip.eval(&[false, false, false]), vec![true]);
    }

    #[test]
    fn cone_engine_dedups_against_emitted_survivors() {
        // The program re-creates a·b, which survives outside the cone as
        // t1 (kept alive by s): the step must reuse t1, not duplicate it.
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let d = g.add_pi();
        let t1 = g.and(a, b);
        let t2 = g.and(t1, c);
        let s = g.and(t1, d);
        g.add_po(t2);
        g.add_po(s);
        let site = ConeRewrite {
            root: t2.node(),
            freed: vec![t2.node()],
            inputs: vec![a, b, c],
            // step 0 = a·b (already present as t1), step 1 = (a·b)·c.
            steps: vec![(1 << 1, 2 << 1), (4 << 1, 3 << 1)],
            out: 5 << 1,
        };
        let rebuilt = apply_cone_rewrites_rebuild(&g, std::slice::from_ref(&site));
        let mut ip = g.clone();
        apply_cone_rewrites_in_place(&mut ip, std::slice::from_ref(&site));
        assert_eq!(ip.structural_hash(), rebuilt.structural_hash());
        assert_eq!(ip.and_count(), 3, "a·b reused, not duplicated");
        assert_fanouts_consistent(&ip);
    }

    #[test]
    fn cone_engine_folds_upper_duplicates_into_program_nodes() {
        // A site low in the network emits a·c; the pre-existing u = a·c
        // sits *above* the site root and must merge into the program node.
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let d = g.add_pi();
        let t1 = g.and(a, b);
        let u = g.and(a, c);
        let top = g.and(u, d);
        g.add_po(top);
        g.add_po(t1);
        let site = ConeRewrite {
            root: t1.node(),
            freed: vec![t1.node()],
            inputs: vec![a, c],
            steps: vec![(1 << 1, 2 << 1)],
            out: 3 << 1,
        };
        let rebuilt = apply_cone_rewrites_rebuild(&g, std::slice::from_ref(&site));
        let mut ip = g.clone();
        apply_cone_rewrites_in_place(&mut ip, std::slice::from_ref(&site));
        assert_eq!(ip.structural_hash(), rebuilt.structural_hash());
        assert_eq!(ip.and_count(), 2, "u merged with the program's a·c");
        assert_fanouts_consistent(&ip);
        for x in 0..16u32 {
            let bits = [
                x & 1 == 1,
                x >> 1 & 1 == 1,
                x >> 2 & 1 == 1,
                x >> 3 & 1 == 1,
            ];
            assert_eq!(ip.eval(&bits), rebuilt.eval(&bits), "input {x}");
        }
    }

    #[test]
    fn cone_engine_applies_disjoint_sites_in_one_batch() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let d = g.add_pi();
        let t1 = g.and(a, b);
        let t2 = g.and(t1, c);
        let r1 = g.and(c, d);
        let r2 = g.and(r1, a);
        g.add_po(t2);
        g.add_po(r2);
        let sites = vec![
            reassociation_site(t1, t2, a, b, c),
            ConeRewrite {
                root: r2.node(),
                freed: vec![r1.node(), r2.node()],
                inputs: vec![c, d, a],
                steps: vec![(2 << 1, 3 << 1), (1 << 1, 4 << 1)],
                out: 5 << 1,
            },
        ];
        let rebuilt = apply_cone_rewrites_rebuild(&g, &sites);
        let mut ip = g.clone();
        let map = apply_cone_rewrites_in_place(&mut ip, &sites);
        assert_eq!(ip.structural_hash(), rebuilt.structural_hash());
        assert_eq!(map.len(), 9, "old→new map covers every original slot");
        assert_fanouts_consistent(&ip);
        for x in 0..16u32 {
            let bits = [
                x & 1 == 1,
                x >> 1 & 1 == 1,
                x >> 2 & 1 == 1,
                x >> 3 & 1 == 1,
            ];
            assert_eq!(g.eval(&bits), ip.eval(&bits), "input {x}");
        }
    }

    #[test]
    fn stats_reports_fanout_structure() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.and(a, b);
        let y = g.and(x, a);
        let z = g.and(x, b);
        g.add_po(y);
        g.add_po(z);
        let s = NetworkStats::of(&g);
        assert_eq!(s.ands, 3);
        assert_eq!(s.depth, 2);
        assert!(s.multi_fanout_nodes >= 2, "a and x have fanout 2");
        assert!(s.max_fanout >= 2);
        assert!(s.to_string().contains("3 ANDs"));
    }
}
