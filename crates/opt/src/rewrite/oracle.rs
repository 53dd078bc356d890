//! Rewrite-site selection as it was before the allocation-free rewrite,
//! kept as the test oracle that pins [`super::select_sites`]: every
//! candidate cut allocates its bounded MFFC, its input list and its
//! estimate slots, and looks its class program up in the shared table.

use super::{dffs_for_gap, freed_edge_dffs, RewriteConfig, RewriteMode};
use crate::table::{Program, RewriteTable};
use sfq_netlist::aig::{Aig, Lit, NodeId};
use sfq_netlist::cut::{enumerate_cuts, CutConfig};
use sfq_netlist::fnv::FnvHashMap;
use sfq_netlist::mffc::Mffc;
use sfq_netlist::npn::{npn_canonical, NpnCanon};
use sfq_netlist::transform::ConeRewrite;
use sfq_netlist::truth_table::TruthTable;
use sfq_sta::AigSta;
use std::sync::Arc;

/// One accepted replacement.
struct Site {
    program: Arc<Program>,
    inputs: Vec<Lit>,
    output_neg: bool,
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

/// The shared selection phase: enumerates cuts, prices candidate
/// replacements and greedily commits non-overlapping sites, returning them
/// lowered to [`ConeRewrite`]s in root-scan (topological) order.
pub(super) fn select_sites(aig: &Aig, config: &RewriteConfig) -> Vec<ConeRewrite> {
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
    // post-rewrite cone depths.
    let mut sta = match config.mode {
        RewriteMode::Conservative => None,
        RewriteMode::SlackAware | RewriteMode::DffAware => Some(AigSta::new(aig)),
    };
    let static_levels: Vec<i64> = match &sta {
        // The analysis carries the levels as arrivals already.
        Some(_) => Vec::new(),
        None => aig.levels().into_iter().map(i64::from).collect(),
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
            let freed = mffc.members_bounded(root, leaves).to_vec();
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
            sites.push(ConeRewrite {
                root,
                freed,
                inputs: site.inputs,
                steps: site.program.steps().to_vec(),
                out: site.program.out() ^ u16::from(site.output_neg),
            });
        }
    }
    sites
}
