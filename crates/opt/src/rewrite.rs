//! Cut-based rewriting: 4-input cut enumeration → NPN class lookup against
//! the precomputed subgraph table → MFFC-gain-based replacement.
//!
//! For every AND node (in topological order) the pass enumerates its
//! 4-feasible cuts, shrinks each cut function to its support, canonizes it,
//! and prices the class implementation from [`RewriteTable`] against the
//! logic the replacement would free — the cut-bounded MFFC of the root.
//! Existing nodes are discovered through [`Aig::lookup_and`] and cost
//! nothing (unless they are about to be freed themselves), mirroring
//! ABC-style rewriting where sharing with the surrounding network is what
//! makes local replacements profitable. A replacement is accepted only if
//! its estimated gain is strictly positive **and** its estimated output
//! level does not exceed the site's depth budget:
//!
//! - [`RewriteMode::Conservative`] — the budget is the root's current
//!   level, so a site never deepens locally (the historical behavior);
//! - [`RewriteMode::SlackAware`] — the budget is the root's *required
//!   time* from `sfq-sta`'s unit-delay analysis, so a site may grow up to
//!   its slack. Accepted growth is immediately fed back into the arrival
//!   analysis ([`sfq_sta::AigSta::raise_arrival`], an incremental
//!   dirty-cone refresh), so every later estimate prices candidate logic
//!   against the levels the network will actually have. Network depth
//!   still never increases: every node's realized level stays bounded by
//!   its required time (roots by the acceptance test, everything else by
//!   the required-time recurrence `required(fanin) ≤ required(node) − 1`);
//! - [`RewriteMode::DffAware`] — the slack-aware budget plus DFF-objective
//!   site pricing: in an SFQ mapping every fanin edge spanning `g` logic
//!   levels needs `⌈g/n⌉` path-balancing DFFs under `n`-phase clocking
//!   (the per-edge accounting of the paper's §II-B, applied at unit
//!   delay), so a cone's slack converts directly into balancing cost.
//!   Candidate sites are scored `node_gain · n + (freed_edge_DFFs −
//!   added_edge_DFFs)`: MFFC gains are weighted by how much DFF cost the
//!   freed cone's slack spans induce, and a site that frees no nodes is
//!   still accepted when it tightens edges enough to save DFFs — though
//!   such a node-neutral site may not deepen the root: the per-edge
//!   score is local, and consumed slack shifts gaps onto the consumers'
//!   other fanin edges, a cost the score cannot see (node-saving sites
//!   keep the full slack budget, node count being the primary objective
//!   there). Node count never increases at a site and the depth budget
//!   is unchanged, so the fixpoint guard invariants hold as in the other
//!   modes.
//!
//! Accepted sites are lowered to [`sfq_netlist::transform::ConeRewrite`]
//! plans and committed by the netlist crate's ID-stable batch engine
//! ([`rewrite_network_in_place_ctx`]), which edits slots in place; a round
//! with zero accepted sites leaves the network completely untouched.
//!
//! Analyses are consumed through the [`OptContext`] threaded down from the
//! pass manager: levels are a cache hit when the previous pass preserved
//! them, and the timing modes *take* the context's incrementally-maintained
//! [`sfq_sta::AigSta`] (built from scratch at most once per pipeline run),
//! feed accepted growth back through `raise_arrival`, and hand it back
//! rebound to the reconstructed network — only the rebuilt cones are
//! refreshed.

use crate::analysis::OptContext;
use crate::table::{Program, RewriteTable};
use sfq_netlist::aig::{Aig, Lit, NodeId};
use sfq_netlist::cut::{enumerate_cuts, CutConfig};
use sfq_netlist::fnv::FnvHashMap;
use sfq_netlist::mffc::Mffc;
use sfq_netlist::npn::{npn_canonical, NpnCanon};
use sfq_netlist::transform::{apply_cone_rewrites_in_place, ConeRewrite};
use sfq_netlist::truth_table::TruthTable;
use sfq_sta::AigSta;
use std::sync::Arc;

/// The phase count `rewrite-dff` assumes when none is configured (the
/// paper's Table-I evaluation point, n = 4).
pub const DEFAULT_DFF_PHASES: u32 = 4;

/// Depth/pricing policy of the rewrite pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RewriteMode {
    /// Reject any site whose estimated output level exceeds the root's
    /// current level.
    #[default]
    Conservative,
    /// Allow a site to grow up to the root's slack (required-time
    /// analysis); network depth is still never increased.
    SlackAware,
    /// The slack-aware budget plus per-edge DFF-objective pricing (see the
    /// module docs): gains are weighted by the balancing cost the freed
    /// cone induces at its schedule slack.
    DffAware,
}

/// Parameters of the rewrite pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RewriteConfig {
    /// Depth/pricing policy.
    pub mode: RewriteMode,
    /// Clock-phase count `n` of the DFF-objective pricing (used by
    /// [`RewriteMode::DffAware`] only): an edge spanning `g` levels costs
    /// `⌈g/n⌉` DFFs.
    pub dff_phases: u32,
}

impl Default for RewriteConfig {
    fn default() -> Self {
        Self::conservative()
    }
}

impl RewriteConfig {
    /// Priority-cut limit per node during enumeration: twelve cuts — enough
    /// to expose the profitable 3- and 4-input cones without paying full
    /// mapping-grade enumeration.
    pub const DEFAULT_MAX_CUTS: usize = 12;

    /// The historical depth-conservative configuration.
    pub fn conservative() -> Self {
        RewriteConfig {
            mode: RewriteMode::Conservative,
            dff_phases: DEFAULT_DFF_PHASES,
        }
    }

    /// The slack-aware configuration.
    pub fn slack_aware() -> Self {
        RewriteConfig {
            mode: RewriteMode::SlackAware,
            ..Self::conservative()
        }
    }

    /// The DFF-objective configuration under `n`-phase clocking.
    pub fn dff_aware(n: u32) -> Self {
        RewriteConfig {
            mode: RewriteMode::DffAware,
            dff_phases: n.max(1),
        }
    }
}

/// One committed replacement: the class program plus the network literals
/// feeding its canonical inputs.
struct Site {
    program: Arc<Program>,
    /// `inputs[j]` drives canonical input `j`; complements encode the NPN
    /// input negations.
    inputs: Vec<Lit>,
    /// Complement the program output (NPN output negation).
    output_neg: bool,
}

impl Site {
    /// Lowers the site into the netlist crate's network-independent
    /// [`ConeRewrite`] form: the program steps ride along verbatim (the
    /// packed-literal encodings match by construction) and the NPN output
    /// negation folds into the output literal's complement bit.
    fn lower(self, root: NodeId, freed: Vec<NodeId>) -> ConeRewrite {
        ConeRewrite {
            root,
            freed,
            inputs: self.inputs,
            steps: self.program.steps().to_vec(),
            out: self.program.out() ^ u16::from(self.output_neg),
        }
    }
}

/// Cost/level probe of instantiating `prog` with `inputs` against the
/// existing network: returns `(new_nodes, output_level, new_edge_dffs)`
/// estimates, where strash hits on live nodes are free and everything else
/// costs one node. Level estimates use current levels for hits, so they
/// upper-bound the levels realized after reconstruction. `new_edge_dffs`
/// is the per-edge DFF cost of the *created* steps under `dff_phases`-phase
/// clocking (0 when `dff_phases` is 0 — the non-DFF modes skip the
/// accounting; strash hits contribute nothing since their edges already
/// exist).
fn estimate(
    aig: &Aig,
    levels: &[i64],
    freed: &[NodeId],
    dead: &[bool],
    prog: &Program,
    inputs: &[Lit],
    dff_phases: u32,
) -> (usize, i64, i64) {
    #[derive(Clone, Copy)]
    enum Slot {
        /// Exists in the network today (literal, level).
        Known(Lit, i64),
        /// Would be created (level estimate).
        New(i64),
    }
    let level_of = |s: Slot| match s {
        Slot::Known(_, l) | Slot::New(l) => l,
    };
    let mut slots: Vec<Slot> = Vec::with_capacity(1 + prog.num_vars() + prog.len());
    slots.push(Slot::Known(Lit::FALSE, 0));
    for &l in inputs {
        slots.push(Slot::Known(l, levels[l.node().index()]));
    }
    let resolve = |slots: &[Slot], pl: u16| -> Slot {
        match slots[(pl >> 1) as usize] {
            Slot::Known(l, lv) => {
                Slot::Known(l.with_complement(l.is_complement() ^ (pl & 1 == 1)), lv)
            }
            s => s,
        }
    };
    let mut cost = 0usize;
    let mut new_dffs = 0i64;
    // A created step at level `l = 1 + max(la, lb)` adds two fanin edges
    // spanning `l − la − 1` and `l − lb − 1` levels; each spanned level
    // block of `n` costs one path-balancing DFF.
    let mut price_step = |la: i64, lb: i64| -> i64 {
        let l = 1 + la.max(lb);
        if dff_phases > 0 {
            new_dffs += dffs_for_gap(l - la - 1, dff_phases);
            new_dffs += dffs_for_gap(l - lb - 1, dff_phases);
        }
        l
    };
    for &(a, b) in prog.steps() {
        let (ra, rb) = (resolve(&slots, a), resolve(&slots, b));
        let slot = if let (Slot::Known(la, lva), Slot::Known(lb, lvb)) = (ra, rb) {
            match aig.lookup_and(la, lb) {
                Some(hit) => {
                    let hn = hit.node();
                    if freed.binary_search(&hn).is_ok() || dead[hn.index()] {
                        // The hit is being freed — it will not survive the
                        // reconstruction, so the step must be rebuilt.
                        cost += 1;
                        Slot::New(price_step(lva, lvb))
                    } else {
                        Slot::Known(hit, levels[hn.index()])
                    }
                }
                None => {
                    cost += 1;
                    Slot::New(price_step(lva, lvb))
                }
            }
        } else {
            cost += 1;
            Slot::New(price_step(level_of(ra), level_of(rb)))
        };
        slots.push(slot);
    }
    (cost, level_of(resolve(&slots, prog.out())), new_dffs)
}

/// Path-balancing DFFs of one fanin edge spanning `gap` logic levels under
/// `n`-phase clocking: `⌈gap/n⌉`, 0 for non-positive gaps. The unit-delay
/// counterpart of `t1map::phase::edge_dff_objective`'s per-edge accounting
/// (which floors adjacent-stage gate edges but ceils T1/PO spans; at the
/// pre-mapping level the ceiling is the conservative upper bound).
fn dffs_for_gap(gap: i64, n: u32) -> i64 {
    if gap <= 0 {
        return 0;
    }
    let n = i64::from(n);
    gap.div_euclid(n) + i64::from(gap % n != 0)
}

/// Per-edge DFF cost of the fanin edges of `freed` at the current
/// `arrivals` under `n`-phase clocking — the balancing cost the site's
/// removal reclaims (the counterpart of `estimate`'s `new_edge_dffs`).
fn freed_edge_dffs(aig: &Aig, arrivals: &[i64], freed: &[NodeId], n: u32) -> i64 {
    let mut dffs = 0i64;
    for &f in freed {
        let (a, b) = aig.fanins(f).expect("freed nodes are ANDs");
        for l in [a, b] {
            dffs += dffs_for_gap(arrivals[f.index()] - arrivals[l.node().index()] - 1, n);
        }
    }
    dffs
}

/// Rewrites a copy of `aig` once; returns the dense (compacted) network and
/// the number of replacement sites committed. One-shot convenience over
/// [`rewrite_network_in_place_ctx`] (every analysis is computed from
/// scratch and dropped).
pub fn rewrite_network(aig: &Aig, config: &RewriteConfig) -> (Aig, usize) {
    let mut out = aig.clone();
    let applied = rewrite_network_in_place_ctx(&mut out, config, &mut OptContext::scratch());
    out.compact();
    (out, applied)
}

/// Rewrites `aig` once in place against the caller's analysis context:
/// selects sites, then commits them by editing slots
/// ([`apply_cone_rewrites_in_place`]). Levels and the timing analysis are
/// consumed from (and, for the timing modes, returned to) `ctx` instead of
/// being rebuilt per invocation. With zero accepted sites the network is
/// left completely untouched — the converged fixpoint rounds that dominate
/// paper-scale `opt --fixpoint` runs then cost no reconstruction, no
/// compaction and no analysis invalidation at all. Returns the number of
/// sites committed.
pub fn rewrite_network_in_place_ctx(
    aig: &mut Aig,
    config: &RewriteConfig,
    ctx: &mut OptContext,
) -> usize {
    let (sites, sta) = select_sites(aig, config, ctx);
    let applied = sites.len();
    if applied > 0 {
        apply_cone_rewrites_in_place(aig, &sites);
    }
    if let Some(sta) = sta {
        // Hand the analysis back rebound to the edited network: floors are
        // cleared and only the changed cones are refreshed, so the next
        // timing consumer (this pass's next round, or a later
        // balance-slack) gets an exact analysis without a rebuild.
        ctx.finish_sta(sta, aig);
    }
    applied
}

/// The shared selection phase: enumerates cuts, prices candidate
/// replacements and greedily commits non-overlapping sites, returning them
/// lowered to [`ConeRewrite`]s in root-scan (topological) order together
/// with the timing analysis taken from the context (timing modes only —
/// hand it back through [`OptContext::finish_sta`] after applying).
fn select_sites(
    aig: &Aig,
    config: &RewriteConfig,
    ctx: &mut OptContext,
) -> (Vec<ConeRewrite>, Option<AigSta>) {
    let cuts = enumerate_cuts(
        aig,
        &CutConfig {
            max_leaves: 4,
            max_cuts: RewriteConfig::DEFAULT_MAX_CUTS,
        },
    );
    // The timing modes run on the unit-delay required-time analysis; its
    // arrival view starts at the static levels and is floored upward as
    // growing sites are accepted, so later estimates price against the
    // post-rewrite cone depths. The analysis is *taken* from the context —
    // a cache hit or an incremental rebind, a from-scratch build only on
    // the context's very first timing request.
    let mut sta = match config.mode {
        RewriteMode::Conservative => None,
        RewriteMode::SlackAware | RewriteMode::DffAware => Some(ctx.take_sta(aig)),
    };
    let static_levels: Vec<i64> = match &sta {
        // The taken analysis carries the levels as arrivals already.
        Some(_) => Vec::new(),
        None => ctx.levels(aig).iter().map(|&l| i64::from(l)).collect(),
    };
    let dff_phases = match config.mode {
        RewriteMode::DffAware => config.dff_phases.max(1),
        _ => 0,
    };
    let mut mffc = Mffc::new(aig);
    let table = RewriteTable::global();
    // Cut functions repeat heavily (every full adder contributes the same
    // XOR3/MAJ3 tables), so canonization is memoized per run. FNV keying:
    // truth tables are short fixed-width non-adversarial keys, the case
    // `sfq_netlist::fnv` exists for.
    let mut canon_memo: FnvHashMap<TruthTable, NpnCanon> = FnvHashMap::default();

    let mut sites: Vec<ConeRewrite> = Vec::new();
    let mut dead = vec![false; aig.len()];
    let mut is_root = vec![false; aig.len()];

    for root in aig.and_ids() {
        if dead[root.index()] {
            continue;
        }
        // The depth budget of this site: its current level in conservative
        // mode, its required time (current level + slack) in slack-aware
        // mode. Either way the realized network depth cannot grow.
        let arrivals: &[i64] = match &sta {
            Some(s) => s.arrivals(),
            None => &static_levels,
        };
        let level_limit = match &sta {
            Some(s) => s.required(root),
            None => static_levels[root.index()],
        };
        let mut best: Option<(i64, i64, Site, Vec<NodeId>)> = None;
        for cut in cuts.cuts(root) {
            let leaves = cut.leaves();
            if leaves.len() == 1 && leaves[0] == root {
                continue; // trivial cut
            }
            if leaves.iter().any(|l| dead[l.index()]) {
                continue;
            }
            let freed = mffc.members_bounded(root, leaves);
            debug_assert!(freed.contains(&root));
            if freed
                .iter()
                .any(|n| dead[n.index()] || (is_root[n.index()] && *n != root))
            {
                continue; // overlaps an earlier site
            }
            let (func, kept) = cut.truth_table().shrink_to_support();
            let canon = *canon_memo
                .entry(func)
                .or_insert_with(|| npn_canonical(func));
            let program = table.lookup(canon.canon);
            let mut inputs = vec![Lit::FALSE; func.num_vars()];
            for (i, &orig_var) in kept.iter().enumerate() {
                let neg = canon.input_neg >> i & 1 == 1;
                inputs[canon.perm[i] as usize] = Lit::new(leaves[orig_var], neg);
            }
            let (cost, out_level, new_dffs) =
                estimate(aig, arrivals, &freed, &dead, &program, &inputs, dff_phases);
            if out_level > level_limit {
                continue; // would exceed the site's depth budget
            }
            let node_gain = freed.len() as i64 - cost as i64;
            // DFF mode, node-neutral site: the per-edge score only sees the
            // site's own edges, and deepening the root shifts level gaps
            // onto its consumers' *other* fanin edges — an unmodeled cost
            // that can turn a local "DFF win" into a global loss. A pure
            // DFF play therefore may not consume slack: it must hold the
            // root's current level, so the surrounding gaps are unchanged
            // and the scored delta is the real one.
            if dff_phases > 0 && node_gain == 0 && out_level > arrivals[root.index()] {
                continue;
            }
            // The score the site is selected by: plain node gain in the
            // conservative/slack modes; in DFF mode, node gain weighted by
            // the phase count plus the per-edge DFF delta, so freeing a
            // slack-heavy cone (whose long edges cost balancing DFFs)
            // outranks freeing a tight one, and a node-neutral rewiring is
            // still profitable when it saves DFFs. Node count never
            // increases at a site in any mode.
            let score = if dff_phases > 0 {
                node_gain * i64::from(dff_phases)
                    + freed_edge_dffs(aig, arrivals, &freed, dff_phases)
                    - new_dffs
            } else {
                node_gain
            };
            if node_gain < 0 || score <= 0 {
                continue;
            }
            // Tiebreak equal scores toward the shallower implementation so
            // slack is only consumed when it buys something.
            if best
                .as_ref()
                .is_none_or(|&(s, lv, ..)| (score, -out_level) > (s, -lv))
            {
                best = Some((
                    score,
                    out_level,
                    Site {
                        program,
                        inputs,
                        output_neg: canon.output_neg,
                    },
                    freed,
                ));
            }
        }
        if let Some((_, out_level, site, freed)) = best {
            for &n in &freed {
                if n != root {
                    dead[n.index()] = true;
                }
            }
            is_root[root.index()] = true;
            if let Some(s) = sta.as_mut() {
                if out_level > s.arrival(root) {
                    // Feed the accepted growth back into the analysis so
                    // downstream estimates see the deepened cone.
                    s.raise_arrival(root, out_level);
                }
            }
            sites.push(site.lower(root, freed));
        }
    }
    (sites, sta)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_equal(a: &Aig, b: &Aig) {
        assert_eq!(a.pi_count(), b.pi_count());
        let mut state = 0xC0FF_EE00_DEAD_BEEFu64;
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
    fn maj3_shrinks_to_four_ands() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let m = g.maj3(a, b, c);
        g.add_po(m);
        assert_eq!(g.and_count(), 5);
        let (rw, applied) = rewrite_network(&g, &RewriteConfig::default());
        // One round may leave an interior site; iterate to the fixpoint.
        let (rw2, _) = rewrite_network(&rw, &RewriteConfig::default());
        let final_net = sfq_netlist::transform::sweep(&rw2);
        assert!(applied >= 1, "at least one site rewritten");
        assert!(
            final_net.and_count() <= 4,
            "maj3 must reach the 4-AND form, got {}",
            final_net.and_count()
        );
        assert!(final_net.depth() <= g.depth());
        eval_equal(&g, &final_net);
    }

    #[test]
    fn rewrite_preserves_function_on_redundant_logic() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let d = g.add_pi();
        // Redundant structure: (a&b) | (a&b&c) == a&b; plus an xor cone.
        let ab = g.and(a, b);
        let abc = g.and(ab, c);
        let red = g.or(ab, abc);
        let x = g.xor3(b, c, d);
        let m = g.maj3(red, x, d);
        g.add_po(m);
        g.add_po(red);
        let before = g.and_count();
        let (rw, _) = rewrite_network(&g, &RewriteConfig::default());
        let rw = sfq_netlist::transform::sweep(&rw);
        assert!(rw.and_count() <= before);
        assert!(rw.depth() <= g.depth());
        eval_equal(&g, &rw);
    }

    #[test]
    fn slack_aware_never_deepens_the_network() {
        // Random-ish structured cones; whatever sites the slack-aware mode
        // accepts, the PO depth must never exceed the subject's.
        let mut g = Aig::new();
        let pis: Vec<Lit> = (0..8).map(|_| g.add_pi()).collect();
        let m1 = g.maj3(pis[0], pis[1], pis[2]);
        let x1 = g.xor3(pis[2], pis[3], pis[4]);
        let m2 = g.maj3(m1, x1, pis[5]);
        let x2 = g.xor3(m2, pis[6], pis[7]);
        let deep = {
            let mut acc = x2;
            for &p in &pis[..6] {
                acc = g.and(acc, p);
            }
            acc
        };
        g.add_po(deep);
        g.add_po(m2);
        let depth0 = g.depth();
        let mut cur = g.clone();
        for _ in 0..3 {
            let (next, _) = rewrite_network(&cur, &RewriteConfig::slack_aware());
            assert!(next.depth() <= depth0, "depth grew past the subject's");
            cur = sfq_netlist::transform::sweep(&next);
        }
        eval_equal(&g, &cur);
    }

    #[test]
    fn slack_aware_matches_conservative_gains_at_worst() {
        // On a pure majority cone (root is the PO, zero slack), the two
        // modes must agree exactly.
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let m = g.maj3(a, b, c);
        g.add_po(m);
        let (cons, n_cons) = rewrite_network(&g, &RewriteConfig::conservative());
        let (slack, n_slack) = rewrite_network(&g, &RewriteConfig::slack_aware());
        assert_eq!(n_cons, n_slack);
        assert_eq!(cons.and_count(), slack.and_count());
        eval_equal(&cons, &slack);
    }

    #[test]
    fn constant_cone_collapses() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        // (a & b) & (!a & b) == 0, hidden from the builder's local folds.
        let l = g.and(a, b);
        let r = g.and(!a, b);
        let z = g.and(l, r);
        g.add_po(z);
        let (rw, applied) = rewrite_network(&g, &RewriteConfig::default());
        let rw = sfq_netlist::transform::sweep(&rw);
        assert!(applied >= 1);
        assert_eq!(rw.and_count(), 0, "constant-zero cone must vanish");
        assert_eq!(rw.eval(&[true, true]), vec![false]);
        eval_equal(&g, &rw);
    }
}
