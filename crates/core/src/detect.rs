//! T1-FF detection: cut enumeration + Boolean matching (§II-A of the paper).
//!
//! Candidate formation: for every node, every 3-leaf cut whose function is
//! (a possibly input/output-negated) XOR3, MAJ3 or OR3 yields a *match*.
//! Matches sharing the same leaves and operand-negation mask form a
//! candidate *group* — a set of cuts `{C(u_1), …, C(u_n)}` implementable by
//! one T1 cell. A group is beneficial when the area gain of eq. (2),
//!
//! ```text
//! ΔA = Σᵢ A(MFFC(uᵢ)) − A_T1(C)  >  0,
//! ```
//!
//! is positive, where the MFFC areas are measured on the *baseline-mapped*
//! netlist (the cells that actually disappear) and `A_T1` includes NOT gates
//! for negated operands. Overlapping groups are resolved greedily by
//! descending gain, which is the mockturtle convention.

use crate::cells::CellLibrary;
use crate::func3;
use crate::mapper::{map, T1Group, T1Member, T1Selection};
use sfq_netlist::aig::{Aig, NodeId, NodeKind};
use sfq_netlist::cut::{enumerate_cuts, CutConfig};
use sfq_netlist::mffc::Mffc;
use std::collections::{HashMap, HashSet};

/// Parameters of the detection stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectConfig {
    /// Cut enumeration parameters (cuts wider than 3 leaves are ignored).
    pub cut: CutConfig,
    /// Minimum number of member functions a candidate group needs (groups
    /// with fewer are dropped before bundling and are not "found").
    pub min_members: usize,
}

impl Default for DetectConfig {
    fn default() -> Self {
        DetectConfig {
            cut: CutConfig {
                max_leaves: 3,
                max_cuts: 20,
            },
            min_members: 2,
        }
    }
}

impl DetectConfig {
    /// Feeds a canonical encoding of the detection parameters into `h`, in
    /// fixed field order, for the `sfq-engine` content-addressed cache key.
    pub fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
        h.write_usize(self.cut.max_leaves);
        h.write_usize(self.cut.max_cuts);
        h.write_usize(self.min_members);
    }
}

/// Result of T1 detection.
#[derive(Debug, Clone)]
pub struct DetectionResult {
    /// Groups selected for instantiation (mutually compatible, gain > 0).
    pub selection: T1Selection,
    /// All candidate groups (deduplicated), including rejected ones.
    pub candidates: Vec<T1Group>,
}

impl DetectionResult {
    /// Number of candidate T1 cells found (the paper's "found" column).
    pub fn found(&self) -> usize {
        self.candidates.len()
    }

    /// Number of T1 cells selected (the paper's "used" column upper bound —
    /// the cover reports the exact instantiated count).
    pub fn selected(&self) -> usize {
        self.selection.groups.len()
    }
}

/// Runs T1 detection on `aig`.
///
/// The baseline mapping is computed internally to attribute realistic cell
/// areas to cut roots (eq. 2).
pub fn detect(aig: &Aig, lib: &CellLibrary, config: &DetectConfig) -> DetectionResult {
    let attribution = map(aig, lib, None).attribution;
    detect_with_attribution(aig, lib, config, &attribution)
}

/// Like [`detect`], but reusing an existing baseline-mapping attribution.
pub fn detect_with_attribution(
    aig: &Aig,
    lib: &CellLibrary,
    config: &DetectConfig,
    attribution: &HashMap<NodeId, u32>,
) -> DetectionResult {
    let cuts = {
        let _span = sfq_obs::span("detect:cuts");
        enumerate_cuts(aig, &config.cut)
    };

    // One ((leaves, mask), member) entry per match, grouped by sorting:
    // members of a group stay in node order.
    let match_span = sfq_obs::span("detect:match");
    let mut hits: Vec<(([NodeId; 3], u8), T1Member)> = Vec::new();
    let mut seen: Vec<[NodeId; 3]> = Vec::new();
    for id in aig.node_ids() {
        if !matches!(aig.kind(id), NodeKind::And(..)) {
            continue;
        }
        seen.clear();
        for cut in cuts.cuts(id) {
            let &[a, b, c] = cut.leaves() else {
                continue;
            };
            // A node is one member per (leaves, mask): skip duplicate
            // cuts of the same node.
            let leaves = [a, b, c];
            if seen.contains(&leaves) {
                continue;
            }
            seen.push(leaves);
            for m in func3::t1_matches(cut.truth_table()) {
                let member = T1Member {
                    root: id,
                    port: m.port,
                    output_invert: m.output_invert,
                };
                hits.push(((leaves, m.mask), member));
            }
        }
    }
    hits.sort_by_key(|&(key, _)| key);
    drop(match_span);

    // Bundle mask variants of the same replacement (same leaves, same root
    // set): each variant needs different operand negations, whose cost
    // depends on what earlier selections provide (a preceding T1's inverted
    // output is free), so the winning variant is chosen during the greedy
    // pass below — exactly how the cover's NOT-insertion logic works.
    let bundle_span = sfq_obs::span("detect:bundle");
    let mut mffc = Mffc::new(aig);
    struct Candidate {
        leaves: [NodeId; 3],
        variants: Vec<(u8, Vec<T1Member>)>,
        union: Vec<NodeId>,
        freed: i64,
    }
    // (leaf triple, root-set union) → mask variants with their members.
    type BundleKey = ([NodeId; 3], Vec<NodeId>);
    let mut bundles: HashMap<BundleKey, Vec<(u8, Vec<T1Member>)>> = HashMap::new();
    for group in hits.chunk_by(|x, y| x.0 == y.0) {
        if group.len() < config.min_members {
            continue;
        }
        let (leaves, mask) = group[0].0;
        let members: Vec<T1Member> = group.iter().map(|&(_, m)| m).collect();
        let mut roots: Vec<NodeId> = members.iter().map(|m| m.root).collect();
        roots.sort();
        bundles
            .entry((leaves, roots))
            .or_default()
            .push((mask, members));
    }
    let mut cands: Vec<Candidate> = Vec::new();
    for ((leaves, roots), variants) in bundles {
        // Bound the dereference at the cut leaves: the replacement removes
        // exactly the cones between the roots and the shared cut.
        let union = mffc.union_members_bounded(&roots, &leaves);
        let freed: i64 = union
            .iter()
            .map(|n| attribution.get(n).copied().unwrap_or(0) as i64)
            .sum();
        cands.push(Candidate {
            leaves,
            variants,
            union,
            freed,
        });
    }
    drop(bundle_span);

    // Greedy selection by descending optimistic gain; ties broken by leaf
    // order, which processes chained structures (ripple carry) forward so
    // inverted carries are already available when a successor is scored.
    let _greedy_span = sfq_obs::span("detect:greedy");
    cands.sort_by(|a, b| b.freed.cmp(&a.freed).then(a.leaves.cmp(&b.leaves)));
    let mut claimed: HashSet<NodeId> = HashSet::new();
    // Accepted member roots → output polarity their T1 port provides
    // (true = the port emits the complement of the node value).
    let mut kept_roots: HashMap<NodeId, bool> = HashMap::new();
    let mut protected_leaves: HashSet<NodeId> = HashSet::new();
    let mut selection = T1Selection::default();
    let mut candidates = Vec::new();
    let base_cost = lib.t1_assembly() as i64;
    for cand in cands {
        // Resolve the best mask variant under the current selection state:
        // a negated operand is free iff the leaf's available polarity
        // already matches (mirrors `Cover::build_t1`'s flip computation).
        let mut best: Option<(i64, &(u8, Vec<T1Member>))> = None;
        for v in &cand.variants {
            let (mask, _) = *v;
            let mut nots = 0i64;
            for (k, leaf) in cand.leaves.iter().enumerate() {
                let neg = mask >> k & 1 == 1;
                let avail_invert = kept_roots.get(leaf).copied().unwrap_or(false);
                if neg ^ avail_invert {
                    nots += 1;
                }
            }
            let gain = cand.freed - base_cost - nots * lib.not as i64;
            if best.is_none() || gain > best.as_ref().expect("set").0 {
                best = Some((gain, v));
            }
        }
        let (gain, (mask, members)) = best.expect("at least one variant");
        let group = T1Group {
            leaves: cand.leaves,
            input_neg: *mask,
            members: members.clone(),
            gain,
        };
        // A protected leaf inside this union is fine iff it is one of this
        // group's own roots (it stays available through the new T1's port).
        let own_roots: HashSet<NodeId> = group.members.iter().map(|m| m.root).collect();
        let ok = gain > 0
            && cand.union.iter().all(|n| {
                !claimed.contains(n) && (!protected_leaves.contains(n) || own_roots.contains(n))
            })
            && group
                .leaves
                .iter()
                .all(|l| !claimed.contains(l) || kept_roots.contains_key(l));
        candidates.push(group.clone());
        if ok {
            claimed.extend(cand.union.iter().copied());
            for m in &group.members {
                kept_roots.insert(m.root, m.output_invert);
            }
            protected_leaves.extend(group.leaves.iter().copied());
            selection.groups.push(group);
        }
    }

    DetectionResult {
        selection,
        candidates,
    }
}

/// Exact T1 selection: maximum-total-gain compatible subset of the
/// candidates, solved as a 0/1 ILP on [`sfq_solver::milp`].
///
/// Pairwise compatibility is the static part of the greedy rules (disjoint
/// removed cones; a leaf inside another group's cone only if it is one of
/// that group's member roots). Gains are priced optimistically (negations
/// free), matching the greedy's tie-free ordering rule; the realized
/// area is decided by the cover as usual.
///
/// Intended for small/medium candidate sets (the constraint count is
/// quadratic in candidates); used by the `abl-select` ablation to audit the
/// greedy selection.
///
/// # Errors
///
/// Propagates [`sfq_solver::milp::MilpError`] from the solver (e.g. node-limit exhaustion).
pub fn select_exact(
    aig: &Aig,
    candidates: &[T1Group],
) -> Result<T1Selection, sfq_solver::milp::MilpError> {
    use sfq_solver::linear::{LinExpr, Sense};
    use sfq_solver::milp::MilpProblem;

    let mut mffc = Mffc::new(aig);
    let unions: Vec<HashSet<NodeId>> = candidates
        .iter()
        .map(|g| {
            let roots: Vec<NodeId> = g.members.iter().map(|m| m.root).collect();
            mffc.union_members_bounded(&roots, &g.leaves)
                .into_iter()
                .collect()
        })
        .collect();
    let roots: Vec<HashSet<NodeId>> = candidates
        .iter()
        .map(|g| g.members.iter().map(|m| m.root).collect())
        .collect();
    let gains: Vec<i64> = candidates.iter().map(|g| g.gain).collect();

    let mut p = MilpProblem::new();
    let xs: Vec<_> = (0..candidates.len())
        .map(|_| p.add_int_var(0.0, Some(1.0)))
        .collect();
    let mut obj = LinExpr::new();
    for (i, &x) in xs.iter().enumerate() {
        // Maximize total gain → minimize negated gain.
        obj.add_term(x, -(gains[i] as f64));
        if gains[i] <= 0 {
            // Non-beneficial groups are never selected.
            p.add_constraint(LinExpr::var(x), Sense::Le, 0.0);
        }
    }
    for i in 0..candidates.len() {
        for j in i + 1..candidates.len() {
            let cones_overlap = !unions[i].is_disjoint(&unions[j]);
            let leaf_conflict_ij = candidates[i]
                .leaves
                .iter()
                .any(|l| unions[j].contains(l) && !roots[j].contains(l));
            let leaf_conflict_ji = candidates[j]
                .leaves
                .iter()
                .any(|l| unions[i].contains(l) && !roots[i].contains(l));
            if cones_overlap || leaf_conflict_ij || leaf_conflict_ji {
                p.add_constraint(LinExpr::var(xs[i]) + LinExpr::var(xs[j]), Sense::Le, 1.0);
            }
        }
    }
    p.set_objective(obj);
    let sol = p.solve()?;
    let groups = candidates
        .iter()
        .enumerate()
        .filter(|(i, _)| sol.int_value(xs[*i]) == 1)
        .map(|(_, g)| g.clone())
        .collect();
    Ok(T1Selection { groups })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapped::{T1_PORT_CARRY, T1_PORT_SUM};
    use sfq_circuits::epfl::adder;

    fn full_adder_aig() -> Aig {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let s = g.xor3(a, b, c);
        let m = g.maj3(a, b, c);
        g.add_po(s);
        g.add_po(m);
        g
    }

    #[test]
    fn full_adder_detected() {
        let g = full_adder_aig();
        let lib = CellLibrary::default();
        let res = detect(&g, &lib, &DetectConfig::default());
        assert!(res.found() >= 1, "the FA group must be found");
        assert_eq!(res.selected(), 1, "exactly one group selected");
        let group = &res.selection.groups[0];
        assert_eq!(group.members.len(), 2);
        assert!(group.gain > 0, "gain {}", group.gain);
        let ports: HashSet<u8> = group.members.iter().map(|m| m.port).collect();
        assert!(ports.contains(&T1_PORT_SUM));
        assert!(ports.contains(&T1_PORT_CARRY));
    }

    #[test]
    fn single_function_not_grouped() {
        // Only a MAJ3: fewer than min_members functions share the cut.
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let m = g.maj3(a, b, c);
        g.add_po(m);
        let lib = CellLibrary::default();
        let res = detect(&g, &lib, &DetectConfig::default());
        assert_eq!(res.selected(), 0);
    }

    #[test]
    fn unrelated_logic_yields_nothing() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.and(a, b);
        g.add_po(x);
        let lib = CellLibrary::default();
        let res = detect(&g, &lib, &DetectConfig::default());
        assert_eq!(res.found(), 0);
    }

    #[test]
    fn ripple_adder_detects_one_group_per_bit() {
        let bits = 16;
        let g = adder(bits);
        let lib = CellLibrary::default();
        let res = detect(&g, &lib, &DetectConfig::default());
        // One FA per bit; the first bit has no carry-in (half adder), so
        // bits-1 groups are expected (paper: 127 for the 128-bit adder).
        assert!(
            res.selected() >= bits - 2 && res.selected() <= bits,
            "selected {} groups for {bits}-bit adder",
            res.selected()
        );
        for gsel in &res.selection.groups {
            assert!(gsel.gain > 0);
            assert!(gsel.members.len() >= 2);
        }
    }

    #[test]
    fn negated_operand_candidate_has_correct_mask() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let s = g.xor3(!a, b, c);
        let m = g.maj3(!a, b, c);
        g.add_po(s);
        g.add_po(m);
        let lib = CellLibrary::default();
        let res = detect(&g, &lib, &DetectConfig::default());
        // The candidate exists and MAJ3 pins its mask to the actual operand
        // negation (either exactly !a or its complement-all dual)…
        assert_eq!(res.found(), 1);
        let cand = &res.candidates[0];
        assert!(
            cand.input_neg == 0b001 || cand.input_neg == 0b110,
            "mask {:#05b}",
            cand.input_neg
        );
        // …but standalone it is rejected: the baseline MAJ3/XOR3 cells
        // absorb the input polarity for free (34 JJ) while the T1 needs a
        // real inverter for its pulse stream (29 + 9 JJ). Only chained
        // structures (ripple carry), where a preceding T1's inverted output
        // supplies the negation, make such groups profitable.
        assert!(cand.gain < 0, "gain {}", cand.gain);
        assert_eq!(res.selected(), 0);
    }

    #[test]
    fn selection_respects_conflicts() {
        // Two overlapping FAs sharing the carry: both want the same interior.
        let g = adder(8);
        let lib = CellLibrary::default();
        let res = detect(&g, &lib, &DetectConfig::default());
        // Verify no two selected groups claim the same member root.
        let mut seen = HashSet::new();
        for gr in &res.selection.groups {
            for m in &gr.members {
                assert!(seen.insert(m.root), "root claimed twice");
            }
        }
    }

    #[test]
    fn found_at_least_selected() {
        let g = adder(12);
        let lib = CellLibrary::default();
        let res = detect(&g, &lib, &DetectConfig::default());
        assert!(res.found() >= res.selected());
    }

    #[test]
    fn exact_selection_at_least_greedy_gain() {
        let g = adder(8);
        let lib = CellLibrary::default();
        let res = detect(&g, &lib, &DetectConfig::default());
        let exact = select_exact(&g, &res.candidates).expect("solvable");
        let greedy_gain: i64 = res.selection.groups.iter().map(|x| x.gain.max(0)).sum();
        let exact_gain: i64 = exact.groups.iter().map(|x| x.gain.max(0)).sum();
        assert!(
            exact_gain >= greedy_gain,
            "exact {exact_gain} below greedy {greedy_gain}"
        );
        // The exact selection is itself mappable.
        let mapped = map(&g, &lib, Some(&exact)).circuit;
        let mut state = 0x0FEDCBA987654321u64;
        for _ in 0..4 {
            let inputs: Vec<u64> = (0..g.pi_count())
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                })
                .collect();
            assert_eq!(g.eval64(&inputs), mapped.eval64(&inputs));
        }
    }

    #[test]
    fn exact_selection_respects_conflicts() {
        let g = adder(6);
        let lib = CellLibrary::default();
        let res = detect(&g, &lib, &DetectConfig::default());
        let exact = select_exact(&g, &res.candidates).expect("solvable");
        let mut seen = HashSet::new();
        for gr in &exact.groups {
            assert!(gr.gain > 0, "only beneficial groups selected");
            for m in &gr.members {
                assert!(seen.insert(m.root), "root claimed twice");
            }
        }
    }
}
