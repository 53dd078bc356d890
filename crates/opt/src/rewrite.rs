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
//! ([`rewrite_network_in_place`]), which edits slots in place; a round
//! with zero accepted sites leaves the network completely untouched.
//!
//! Each invocation computes the analyses it prices against from the
//! network it is given: the conservative mode reads [`Aig::levels`], and
//! the timing modes build one [`sfq_sta::AigSta`], feed accepted growth
//! back through `raise_arrival` and drop it when the sites are selected.
//! The one thing that outlives an invocation is the canonization of each
//! cut function ([`RewriteTable::canonize`]), a pure function of its truth
//! table: it costs ≈2.4 µs the first time a process sees the function and
//! a map probe after that, so evaluation is dominated by cut enumeration,
//! MFFC walks and strash probes. An invocation records the trace spans
//! `rewrite:cuts` (enumeration), `rewrite:select` (pricing and greedy
//! selection) and `rewrite:commit` (the in-place edit, when any site is
//! accepted).

use crate::table::{CutCanon, Program, RewriteTable};
use sfq_netlist::aig::{Aig, Lit, NodeId};
use sfq_netlist::cut::{enumerate_cuts, CutConfig};
use sfq_netlist::fnv::FnvHashMap;
use sfq_netlist::mffc::Mffc;
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

/// The best replacement found so far at one root: the class program plus
/// the network literals feeding its canonical inputs.
struct Site {
    program: Arc<Program>,
    /// `inputs[j]` drives canonical input `j` for `j < num_inputs`;
    /// complements encode the NPN input negations.
    inputs: [Lit; 4],
    num_inputs: usize,
    /// Complement the program output (NPN output negation).
    output_neg: bool,
}

impl Site {
    /// Lowers the site into the netlist crate's network-independent
    /// [`ConeRewrite`] form: the program steps ride along verbatim (the
    /// packed-literal encodings match by construction) and the NPN output
    /// negation folds into the output literal's complement bit.
    fn lower(&self, root: NodeId, freed: &[NodeId]) -> ConeRewrite {
        ConeRewrite {
            root,
            freed: freed.to_vec(),
            inputs: self.inputs[..self.num_inputs].to_vec(),
            steps: self.program.steps().to_vec(),
            out: self.program.out() ^ u16::from(self.output_neg),
        }
    }
}

/// A cut function's canonization plus its class program, memoized per run
/// so a repeated function costs one lock-free map probe.
struct Canonized {
    cut: CutCanon,
    program: Arc<Program>,
}

impl Canonized {
    fn new(func: TruthTable, table: &RewriteTable) -> Self {
        let cut = table.canonize(func);
        Canonized {
            cut,
            program: table.lookup(cut.npn.canon),
        }
    }
}

/// One slot of a program instantiation being priced.
#[derive(Clone, Copy)]
enum Slot {
    /// Exists in the network today (literal, level).
    Known(Lit, i64),
    /// Would be created (level estimate).
    New(i64),
}

impl Slot {
    fn level(self) -> i64 {
        match self {
            Slot::Known(_, l) | Slot::New(l) => l,
        }
    }
}

/// Prices program instantiations against the network, reusing one slot
/// buffer for every candidate cut.
struct Estimator {
    slots: Vec<Slot>,
    /// Clock-phase count of the per-edge DFF accounting; 0 skips it.
    dff_phases: u32,
}

impl Estimator {
    /// Cost/level probe of instantiating `prog` with `inputs` against the
    /// existing network: returns `(new_nodes, output_level,
    /// new_edge_dffs)` estimates, where strash hits on live nodes are free
    /// and everything else costs one node. Level estimates use current
    /// levels for hits, so they upper-bound the levels realized after
    /// reconstruction. `new_edge_dffs` is the per-edge DFF cost of the
    /// *created* steps under `dff_phases`-phase clocking (0 when
    /// `dff_phases` is 0 — the non-DFF modes skip the accounting; strash
    /// hits contribute nothing since their edges already exist).
    ///
    /// Returns `None`, pricing no further, once the cost passes what a
    /// selectable site may spend: `freed.len()` in DFF mode, which allows no
    /// node growth, and `freed.len() − 1` in the others, where the score is
    /// the node gain and must be positive.
    fn estimate(
        &mut self,
        aig: &Aig,
        levels: &[i64],
        freed: &[NodeId],
        dead: &[bool],
        prog: &Program,
        inputs: &[Lit],
    ) -> Option<(usize, i64, i64)> {
        let dff_phases = self.dff_phases;
        let max_cost = freed.len() - usize::from(dff_phases == 0);
        let slots = &mut self.slots;
        slots.clear();
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
        // A created step at level `l = 1 + max(la, lb)` adds two fanin
        // edges spanning `l − la − 1` and `l − lb − 1` levels; each spanned
        // level block of `n` costs one path-balancing DFF.
        let mut price_step = |la: i64, lb: i64| -> i64 {
            let l = 1 + la.max(lb);
            if dff_phases > 0 {
                new_dffs += dffs_for_gap(l - la - 1, dff_phases);
                new_dffs += dffs_for_gap(l - lb - 1, dff_phases);
            }
            l
        };
        for &(a, b) in prog.steps() {
            let (ra, rb) = (resolve(slots, a), resolve(slots, b));
            let slot = if let (Slot::Known(la, lva), Slot::Known(lb, lvb)) = (ra, rb) {
                match aig.lookup_and(la, lb) {
                    Some(hit) => {
                        let hn = hit.node();
                        if freed.binary_search(&hn).is_ok() || dead[hn.index()] {
                            // The hit is being freed — it will not survive
                            // the reconstruction, so the step must be
                            // rebuilt.
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
                Slot::New(price_step(ra.level(), rb.level()))
            };
            if cost > max_cost {
                return None;
            }
            slots.push(slot);
        }
        Some((cost, resolve(slots, prog.out()).level(), new_dffs))
    }
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
/// removal reclaims (the counterpart of [`Estimator::estimate`]'s
/// `new_edge_dffs`).
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
/// [`rewrite_network_in_place`].
pub fn rewrite_network(aig: &Aig, config: &RewriteConfig) -> (Aig, usize) {
    let mut out = aig.clone();
    let applied = rewrite_network_in_place(&mut out, config);
    out.compact();
    (out, applied)
}

/// Rewrites `aig` once in place: selects sites, then commits them by
/// editing slots ([`apply_cone_rewrites_in_place`]). With zero accepted
/// sites the network is left completely untouched — the converged
/// fixpoint rounds that dominate paper-scale `opt --fixpoint` runs then
/// cost no reconstruction and no compaction. Returns the number of sites
/// committed.
pub fn rewrite_network_in_place(aig: &mut Aig, config: &RewriteConfig) -> usize {
    let sites = select_sites(aig, config, RewriteTable::global());
    if !sites.is_empty() {
        let _span = sfq_obs::span("rewrite:commit");
        apply_cone_rewrites_in_place(aig, &sites);
    }
    sites.len()
}

/// The shared selection phase: enumerates cuts, prices candidate
/// replacements and greedily commits non-overlapping sites, returning them
/// lowered to [`ConeRewrite`]s in root-scan (topological) order.
///
/// Pricing a candidate cut allocates nothing: its bounded MFFC is borrowed
/// from the [`Mffc`] walk buffer, its inputs live in a fixed array, the
/// estimate reuses one slot buffer, and the function's canonization and
/// class program come from a per-run memo in front of `table`'s
/// process-wide canonization memo. Only a cut that beats the root's best
/// so far is copied out.
fn select_sites(aig: &Aig, config: &RewriteConfig, table: &RewriteTable) -> Vec<ConeRewrite> {
    let cuts = {
        let _span = sfq_obs::span("rewrite:cuts");
        enumerate_cuts(
            aig,
            &CutConfig {
                max_leaves: 4,
                max_cuts: RewriteConfig::DEFAULT_MAX_CUTS,
            },
        )
    };
    let _span = sfq_obs::span("rewrite:select");
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
    let mut estimator = Estimator {
        slots: Vec::new(),
        dff_phases,
    };
    let mut mffc = Mffc::new(aig);
    // Cut functions repeat heavily (every full adder contributes the same
    // XOR3/MAJ3 tables), so each distinct function takes the shared
    // table's locks once per run; later cuts probe this lock-free memo,
    // keyed by the cut function itself. FNV keying: truth tables are short
    // fixed-width non-adversarial keys, the case `sfq_netlist::fnv` exists
    // for.
    let mut canon_memo: FnvHashMap<TruthTable, Canonized> = FnvHashMap::default();

    let mut sites: Vec<ConeRewrite> = Vec::new();
    let mut dead = vec![false; aig.len()];
    let mut is_root = vec![false; aig.len()];
    // The best site's freed cone, reused across roots.
    let mut best_freed: Vec<NodeId> = Vec::new();

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
        let mut best: Option<(i64, i64, Site)> = None;
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
            let func = cut.truth_table();
            let c = canon_memo
                .entry(func)
                .or_insert_with(|| Canonized::new(func, table));
            let CutCanon {
                kept,
                num_vars,
                npn,
            } = c.cut;
            let mut inputs = [Lit::FALSE; 4];
            for (i, &orig_var) in kept[..num_vars].iter().enumerate() {
                let neg = npn.input_neg >> i & 1 == 1;
                inputs[npn.perm[i] as usize] = Lit::new(leaves[orig_var as usize], neg);
            }
            let inputs = &inputs[..num_vars];
            let Some((cost, out_level, new_dffs)) =
                estimator.estimate(aig, arrivals, freed, &dead, &c.program, inputs)
            else {
                continue; // costs more nodes than the site may
            };
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
                    + freed_edge_dffs(aig, arrivals, freed, dff_phases)
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
                .is_none_or(|&(s, lv, _)| (score, -out_level) > (s, -lv))
            {
                let mut site_inputs = [Lit::FALSE; 4];
                site_inputs[..inputs.len()].copy_from_slice(inputs);
                best = Some((
                    score,
                    out_level,
                    Site {
                        program: Arc::clone(&c.program),
                        inputs: site_inputs,
                        num_inputs: inputs.len(),
                        output_neg: npn.output_neg,
                    },
                ));
                best_freed.clear();
                best_freed.extend_from_slice(freed);
            }
        }
        if let Some((_, out_level, site)) = best {
            for &n in &best_freed {
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
            sites.push(site.lower(root, &best_freed));
        }
    }
    sites
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sfq_circuits::{epfl, iscas, random_aig, RandomAigConfig};

    /// The three pricing modes, the DFF one at `n` phases.
    fn modes(n: u32) -> [RewriteConfig; 3] {
        [
            RewriteConfig::conservative(),
            RewriteConfig::slack_aware(),
            RewriteConfig::dff_aware(n),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The allocation-free selection picks exactly the oracle's sites:
        /// same roots, freed cones, inputs, steps and outputs, in order.
        #[test]
        fn select_sites_matches_the_oracle(
            seed in any::<u64>(),
            num_pis in 2usize..=8,
            num_gates in 1usize..120,
            num_pos in 1usize..=8,
            n in 1u32..=6,
            holes in any::<bool>(),
        ) {
            let config = RandomAigConfig { num_pis, num_gates, num_pos, xor_percent: 30 };
            let mut g = random_aig(seed, &config);
            if holes {
                // In-place rewriting leaves dead slots behind.
                rewrite_network_in_place(&mut g, &RewriteConfig::conservative());
            }
            for config in modes(n) {
                prop_assert_eq!(
                    select_sites(&g, &config, RewriteTable::global()),
                    oracle::select_sites(&g, &config)
                );
            }
        }
    }

    #[test]
    fn select_sites_matches_the_oracle_on_benchmarks() {
        let subjects = [
            epfl::adder(16),
            epfl::multiplier(8),
            epfl::sin(8),
            iscas::c6288_like(),
        ];
        for g in &subjects {
            for n in [1, 4, 6] {
                for config in modes(n) {
                    let sites = select_sites(g, &config, RewriteTable::global());
                    assert!(!sites.is_empty(), "{config:?} found no site");
                    assert_eq!(sites, oracle::select_sites(g, &config), "{config:?}");
                }
            }
        }
    }

    #[test]
    fn a_warm_canon_memo_picks_the_cold_sites() {
        let g = epfl::log2(16);
        for config in modes(4) {
            let table = RewriteTable::seeded();
            assert_eq!(table.canonized_len(), 0);
            let cold = select_sites(&g, &config, &table);
            let filled = table.canonized_len();
            assert!(!cold.is_empty() && filled > 0, "{config:?}");
            let warm = select_sites(&g, &config, &table);
            assert_eq!(cold, warm, "{config:?}");
            assert_eq!(table.canonized_len(), filled, "{config:?}: memo grew");
        }
    }

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
