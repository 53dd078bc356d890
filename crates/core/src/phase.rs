//! Multiphase stage/phase assignment (§II-B of the paper).
//!
//! Every clocked element `g` receives a stage `σ(g) = n·S(g) + φ(g)`
//! (eq. 1). Ordinary gates need `σ(j) ≥ σ(i) + 1` for every fanin `i`; a
//! T1 cell needs its three operands *delivered* at the distinct stages
//! `σ_T1 − 3, σ_T1 − 2, σ_T1 − 1`, which is feasible iff eq. (3) holds:
//!
//! ```text
//! σ(j) ≥ max(σ(i1) + 3, σ(i2) + 2, σ(i3) + 1),   σ(i1) ≤ σ(i2) ≤ σ(i3).
//! ```
//!
//! The offsets are frozen at ASAP time into *delivery slots* per operand; a
//! schedule is valid as long as each operand's stage stays at or below its
//! slot, which keeps the staggering constraint linear for both the local
//! search and the exact ILP.
//!
//! Two engines are provided, mirroring the paper's setup (ILP via OR-Tools
//! there, our own MILP here — DESIGN.md §2):
//!
//! - [`assign_phases`] — ASAP schedule + DFF-aware local search
//!   (scales to the Table-I benchmarks),
//! - [`assign_phases_exact`] — the ILP of §II-B with the per-edge DFF-count
//!   linearization `n·d ≥ σ(j) − σ(i) − n` (exact, for small instances and
//!   cross-validation).

use crate::dff::{build_chain, for_each_use, Consumer, Fanouts, Requirement};
use crate::mapped::{CellId, MappedCell, MappedCircuit};
use sfq_solver::linear::{LinExpr, Sense};
use sfq_solver::milp::{MilpError, MilpProblem};

/// A stage assignment for a mapped netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Number of clock phases.
    pub n: u32,
    /// Stage per cell (inputs and constants at 0).
    pub stages: Vec<i64>,
    /// Delivery target for primary outputs (the maximum PO driver stage).
    pub horizon: i64,
    /// For T1 cells: the frozen delivery offset of each operand slot
    /// (delivery at `σ(T1) − offset`); `None` for other cells.
    pub t1_offsets: Vec<Option<[i64; 3]>>,
}

impl Schedule {
    /// Logic depth in clock cycles: `⌈horizon / n⌉`.
    pub fn depth_cycles(&self) -> i64 {
        self.horizon.div_euclid(self.n as i64)
            + i64::from(self.horizon.rem_euclid(self.n as i64) != 0)
    }

    /// Checks all scheduling constraints; returns a description of the first
    /// violation.
    pub fn validate(&self, mc: &MappedCircuit) -> Result<(), String> {
        for (id, cell) in mc.cells() {
            let s = self.stages[id.index()];
            match cell {
                MappedCell::Input { .. } | MappedCell::Const0 => {
                    if s != 0 {
                        return Err(format!("source cell {} not at stage 0", id.0));
                    }
                }
                MappedCell::Gate { fanins, .. } => {
                    for e in fanins {
                        if self.stages[e.cell.index()] >= s {
                            return Err(format!("gate {} not after fanin {}", id.0, e.cell.0));
                        }
                    }
                }
                MappedCell::T1 { fanins } => {
                    let offsets = self.t1_offsets[id.index()]
                        .ok_or_else(|| format!("T1 {} lacks offsets", id.0))?;
                    for (k, e) in fanins.iter().enumerate() {
                        let o = offsets[k];
                        if !(1..=self.n as i64).contains(&o) {
                            return Err(format!("T1 {} offset {o} out of range", id.0));
                        }
                        if offsets.iter().filter(|&&x| x == o).count() > 1 {
                            return Err(format!("T1 {} duplicate offset {o}", id.0));
                        }
                        if self.stages[e.cell.index()] > s - o {
                            return Err(format!(
                                "T1 {} operand {k} (stage {}) misses slot {}",
                                id.0,
                                self.stages[e.cell.index()],
                                s - o
                            ));
                        }
                    }
                }
            }
        }
        for e in mc.pos() {
            if !matches!(mc.cell(e.cell), MappedCell::Const0)
                && self.stages[e.cell.index()] > self.horizon
            {
                return Err(format!("PO driver {} beyond horizon", e.cell.0));
            }
        }
        Ok(())
    }
}

/// Computes the ASAP schedule with frozen T1 delivery offsets.
fn asap(mc: &MappedCircuit, n: u32) -> Schedule {
    let mut stages = vec![0i64; mc.len()];
    let mut t1_offsets = vec![None; mc.len()];
    for (id, cell) in mc.cells() {
        match cell {
            MappedCell::Input { .. } | MappedCell::Const0 => {}
            MappedCell::Gate { fanins, .. } => {
                let lo = fanins
                    .iter()
                    .map(|e| stages[e.cell.index()])
                    .max()
                    .unwrap_or(0);
                stages[id.index()] = lo + 1;
            }
            MappedCell::T1 { fanins } => {
                // Choose three *distinct* delivery offsets in 1..=n (eq. 5
                // generalized to the full capture window), minimizing first
                // the T1 stage (eq. 3) and then the DFFs needed to reach the
                // slots.
                let srcs = [
                    stages[fanins[0].cell.index()],
                    stages[fanins[1].cell.index()],
                    stages[fanins[2].cell.index()],
                ];
                let (sigma, offsets) = best_t1_slots(&srcs, n as i64);
                stages[id.index()] = sigma;
                t1_offsets[id.index()] = Some(offsets);
            }
        }
    }
    let horizon = mc
        .pos()
        .iter()
        .filter(|e| !matches!(mc.cell(e.cell), MappedCell::Const0))
        .map(|e| stages[e.cell.index()])
        .max()
        .unwrap_or(0);
    Schedule {
        n,
        stages,
        horizon,
        t1_offsets,
    }
}

/// Chooses distinct delivery offsets (in `1..=n`) for a T1's three operands
/// given their source stages: minimal feasible σ first (eq. 3), then minimal
/// chain DFFs `Σ ⌈(σ − oₖ − srcₖ)/n⌉` as a tiebreak, then the
/// lexicographically smallest offsets.
///
/// Constant time in `n`. At a given σ, operand `k` may take any offset up
/// to its cap `min(n, σ − srcₖ)`, and three distinct offsets exist exactly
/// when the sorted caps are at least 1, 2 and 3; the least such σ lies in
/// `max(src) + 1..=max(src) + 3`. Every assignment within the caps of that
/// σ reaches it. An operand's DFF cost is non-increasing in its offset and
/// takes at most two values over `1..=cap` (the lags `σ − srcₖ − o` span
/// at most `n` consecutive values), and an optimum never needs more than
/// the three smallest offsets of a cost level (the other two operands block
/// at most two of them). So a search over those ≤ 6 candidates per operand,
/// in the brute force's order, returns the brute force's answer.
fn best_t1_slots(srcs: &[i64; 3], n: i64) -> (i64, [i64; 3]) {
    let n = n.max(3);
    let ceil_div = |a: i64, b: i64| if a <= 0 { 0 } else { (a + b - 1) / b };
    let top = srcs.iter().copied().max().expect("three sources");
    let caps_at = |sigma: i64| srcs.map(|src| n.min(sigma - src));
    let sigma = (top + 1..=top + 3)
        .find(|&sigma| {
            let mut caps = caps_at(sigma);
            caps.sort_unstable();
            caps[0] >= 1 && caps[1] >= 2 && caps[2] >= 3
        })
        .expect("caps of at least 3 admit three distinct offsets");
    let caps = caps_at(sigma);
    // Per operand, ascending: the (up to) three smallest offsets of the
    // higher cost level `1..low`, then of the lowest level `low..=cap`.
    let candidates: [([i64; 6], usize); 3] = std::array::from_fn(|k| {
        let lag = sigma - srcs[k];
        let low = (lag - ceil_div(lag - caps[k], n) * n).max(1);
        let (mut offs, mut len) = ([0; 6], 0);
        for o in (1..low.min(4)).chain(low..low + 3) {
            if o <= caps[k] {
                offs[len] = o;
                len += 1;
            }
        }
        (offs, len)
    });
    let [c0, c1, c2] = candidates.each_ref().map(|(offs, len)| &offs[..*len]);
    let cost =
        |offs: [i64; 3]| -> i64 { (0..3).map(|k| ceil_div(sigma - offs[k] - srcs[k], n)).sum() };
    let mut best: Option<(i64, [i64; 3])> = None;
    for &o0 in c0 {
        for &o1 in c1 {
            for &o2 in c2 {
                if o0 == o1 || o0 == o2 || o1 == o2 {
                    continue;
                }
                let c = cost([o0, o1, o2]);
                if best.is_none_or(|(b, _)| c < b) {
                    best = Some((c, [o0, o1, o2]));
                }
            }
        }
    }
    let (_, offsets) = best.expect("the least feasible σ admits an assignment");
    (sigma, offsets)
}

/// Cost model minimized by the local search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchObjective {
    /// The paper's ILP objective: per-edge DFF counts, no fanout sharing
    /// (§II-B; matches [`assign_phases_exact`]). The realized counts after
    /// shared-chain insertion can be lower.
    #[default]
    PerEdge,
    /// Our extension: the true shared-chain DFF count (fanout sharing aware).
    /// Finds schedules the per-edge objective cannot distinguish; see the
    /// `abl-retime` ablation in EXPERIMENTS.md.
    SharedChains,
}

/// Heuristic phase assignment: ASAP followed by `passes` rounds of DFF-aware
/// local search (coordinate descent on σ in reverse topological order),
/// minimizing the paper's per-edge objective.
///
/// # Panics
///
/// Panics if `n == 0`, or if the netlist contains T1 cells and `n < 3`
/// (staggering needs three distinct phases).
pub fn assign_phases(mc: &MappedCircuit, n: u32, passes: usize) -> Schedule {
    assign_phases_with(mc, n, passes, SearchObjective::PerEdge)
}

/// [`assign_phases`] with an explicit search objective.
///
/// Adds the number of candidate stages the local search evaluated to the
/// `t1map.phase_evals` counter.
///
/// # Panics
///
/// Same conditions as [`assign_phases`].
pub fn assign_phases_with(
    mc: &MappedCircuit,
    n: u32,
    passes: usize,
    objective: SearchObjective,
) -> Schedule {
    let (sched, evals) = local_search(mc, n, passes, objective);
    sfq_obs::counter("t1map.phase_evals", evals);
    sched
}

/// Drivers whose fanout exceeds this are left out of a candidate's cost.
const MAX_FANOUT_FOR_EVAL: usize = 64;

/// The local search of [`assign_phases_with`], returning the schedule and
/// the number of candidate stages evaluated.
fn local_search(
    mc: &MappedCircuit,
    n: u32,
    passes: usize,
    objective: SearchObjective,
) -> (Schedule, u64) {
    assert!(n >= 1, "need at least one phase");
    if mc.t1_count() > 0 {
        assert!(n >= 3, "T1 cells need at least 3 phases");
    }
    let mut sched = {
        let _span = sfq_obs::span("phase:asap");
        asap(mc, n)
    };
    let _span = sfq_obs::span("phase:search");
    let fanouts = Fanouts::new(mc);
    let nn = n as i64;
    let mut scratch: Vec<Requirement> = Vec::new();
    let mut candidates: Vec<i64> = Vec::new();
    let mut evals = 0u64;
    for _ in 0..passes {
        let mut improved = false;
        for idx in (0..mc.len()).rev() {
            let id = CellId(idx as u32);
            let cell = mc.cell(id);
            if matches!(cell, MappedCell::Input { .. } | MappedCell::Const0) {
                continue;
            }
            // Feasible range.
            let lo = match cell {
                MappedCell::Gate { fanins, .. } => {
                    fanins
                        .iter()
                        .map(|e| sched.stages[e.cell.index()])
                        .max()
                        .unwrap_or(0)
                        + 1
                }
                MappedCell::T1 { fanins } => {
                    let offsets = sched.t1_offsets[idx].expect("offsets");
                    (0..3)
                        .map(|k| sched.stages[fanins[k].cell.index()] + offsets[k])
                        .max()
                        .unwrap()
                }
                _ => unreachable!(),
            };
            let at = |c: CellId| sched.stages[c.index()];
            let mut hi = i64::MAX;
            for port in 0..mc.num_ports(id) as u8 {
                let uses = fanouts.of(id, port);
                if uses.is_empty() && mc.num_ports(id) == 1 {
                    // Dead cell: keep at lo.
                    hi = hi.min(lo);
                }
                for u in uses {
                    // The latest stage that still meets the requirement.
                    let bound = match u.requirement(&sched, at) {
                        Requirement::Window(t) => t - 1,
                        Requirement::Exact(tau) => tau,
                    };
                    hi = hi.min(bound);
                }
            }
            if hi == i64::MAX {
                hi = lo; // fully unused multi-port cell
            }
            if hi <= lo {
                sched.stages[idx] = lo;
                continue;
            }
            // Cost of a candidate stage `s`: own chains + fanin-driver
            // chains, with this cell's requirements moved to `s`.
            let current = sched.stages[idx];
            let mut eval = |s: i64| -> u64 {
                evals += 1;
                let at = |c: CellId| if c == id { s } else { sched.stages[c.index()] };
                let mut cost = |source: i64, uses: &[Consumer]| -> u64 {
                    match objective {
                        SearchObjective::PerEdge => uses
                            .iter()
                            .map(|u| u.requirement(&sched, at).edge_dffs(source, nn))
                            .sum(),
                        SearchObjective::SharedChains => {
                            scratch.clear();
                            scratch.extend(uses.iter().map(|u| u.requirement(&sched, at)));
                            build_chain(source, &scratch, nn).dff_count() as u64
                        }
                    }
                };
                let mut total = 0u64;
                for port in 0..mc.num_ports(id) as u8 {
                    total += cost(s, fanouts.of(id, port));
                }
                for e in mc.fanins(id) {
                    let uses = fanouts.of(e.cell, e.port);
                    if uses.len() <= MAX_FANOUT_FOR_EVAL {
                        total += cost(sched.stages[e.cell.index()], uses);
                    }
                }
                total
            };
            // Candidate set: bounded sweep of the feasible range.
            let span = hi - lo;
            candidates.clear();
            if span <= 40 {
                candidates.extend(lo..=hi);
            } else {
                let stride = span / 40 + 1;
                candidates.extend((lo..=hi).step_by(stride as usize));
                candidates.push(hi);
                candidates.push(current);
                candidates.sort_unstable();
                candidates.dedup();
                candidates.retain(|&s| s >= lo && s <= hi);
            }
            let mut best = (eval(current), current);
            for &s in &candidates {
                if s == current {
                    continue;
                }
                let c = eval(s);
                if c < best.0 {
                    best = (c, s);
                }
            }
            if best.1 != current {
                sched.stages[idx] = best.1;
                improved = true;
            }
        }
        // Horizon can only stay or shrink (PO drivers never move past it).
        sched.horizon = mc
            .pos()
            .iter()
            .filter(|e| !matches!(mc.cell(e.cell), MappedCell::Const0))
            .map(|e| sched.stages[e.cell.index()])
            .max()
            .unwrap_or(0);
        if !improved {
            break;
        }
    }
    debug_assert_eq!(sched.validate(mc), Ok(()));
    (sched, evals)
}

/// Exact phase assignment via the MILP of §II-B (per-edge linearized DFF
/// objective `n·d ≥ σ(j) − σ(i) − n`), with T1 delivery-slot constraints.
///
/// The horizon is fixed to the ASAP depth; T1 offsets are frozen from ASAP.
/// Intended for small netlists (tests, ablations, heuristic validation).
///
/// # Errors
///
/// Propagates [`MilpError`] from the underlying solver.
///
/// # Panics
///
/// Panics under the same conditions as [`assign_phases`].
pub fn assign_phases_exact(mc: &MappedCircuit, n: u32) -> Result<Schedule, MilpError> {
    assert!(n >= 1, "need at least one phase");
    if mc.t1_count() > 0 {
        assert!(n >= 3, "T1 cells need at least 3 phases");
    }
    let base = asap(mc, n);
    let horizon = base.horizon;
    let nn = n as f64;

    let mut p = MilpProblem::new();
    // σ variables.
    let sigma: Vec<_> = (0..mc.len())
        .map(|i| {
            let cell = mc.cell(CellId(i as u32));
            if matches!(cell, MappedCell::Input { .. } | MappedCell::Const0) {
                p.add_int_var(0.0, Some(0.0))
            } else {
                p.add_int_var(base.stages[i] as f64, Some(horizon as f64))
            }
        })
        .collect();

    let mut objective = LinExpr::new();
    // Posts `n·d >= expr − shift` with fresh integer d >= 0 in the objective.
    let add_edge_cost = |p: &mut MilpProblem, obj: &mut LinExpr, expr: LinExpr, shift: f64| {
        let d = p.add_int_var(0.0, None);
        // n·d − expr >= −shift
        p.add_constraint(LinExpr::var(d) * nn - expr, Sense::Ge, -shift);
        obj.add_term(d, 1.0);
    };

    for (id, cell) in mc.cells() {
        match cell {
            MappedCell::Input { .. } | MappedCell::Const0 => {}
            MappedCell::Gate { fanins, .. } => {
                for e in fanins {
                    // σ(j) − σ(i) >= 1
                    let diff =
                        LinExpr::var(sigma[id.index()]) - LinExpr::var(sigma[e.cell.index()]);
                    p.add_constraint(diff.clone(), Sense::Ge, 1.0);
                    // DFFs: n·d >= σ(j) − σ(i) − n.
                    add_edge_cost(&mut p, &mut objective, diff, nn);
                }
            }
            MappedCell::T1 { fanins } => {
                let offsets = base.t1_offsets[id.index()].expect("offsets");
                for (k, e) in fanins.iter().enumerate() {
                    let o = offsets[k] as f64;
                    // Delivery slot: σ(T1) − o >= σ(i).
                    let diff =
                        LinExpr::var(sigma[id.index()]) - LinExpr::var(sigma[e.cell.index()]);
                    p.add_constraint(diff.clone(), Sense::Ge, o);
                    // DFFs to reach the slot exactly: n·d >= σ(T1) − σ(i) − o.
                    add_edge_cost(&mut p, &mut objective, diff, o);
                }
            }
        }
    }
    for e in mc.pos() {
        if matches!(mc.cell(e.cell), MappedCell::Const0) {
            continue;
        }
        // Window capture at horizon + 1: d = ⌊(horizon − σ)/n⌋, i.e.
        // n·d >= horizon − σ(driver) − (n − 1).
        let expr = LinExpr::new() - LinExpr::var(sigma[e.cell.index()]);
        add_edge_cost(&mut p, &mut objective, expr, -(horizon as f64) + nn - 1.0);
    }
    p.set_objective(objective);
    let sol = p.solve()?;

    let stages: Vec<i64> = (0..mc.len()).map(|i| sol.int_value(sigma[i])).collect();
    let sched = Schedule {
        n,
        stages,
        horizon,
        t1_offsets: base.t1_offsets,
    };
    debug_assert_eq!(sched.validate(mc), Ok(()));
    Ok(sched)
}

/// The per-edge linearized DFF objective of §II-B: the
/// [`Requirement::edge_dffs`] of every fanin edge and primary output —
/// `⌊(σ(j) − σ(i) − 1)/n⌋` per gate edge, `⌈(slot − σ(i))/n⌉` per T1
/// operand and `⌊(horizon − σ)/n⌋` per output. This is what
/// [`assign_phases_exact`] minimizes; realized DFF counts after
/// fanout-shared insertion can be lower.
pub fn edge_dff_objective(mc: &MappedCircuit, sched: &Schedule) -> u64 {
    let (n, stage) = (sched.n as i64, |c: CellId| sched.stages[c.index()]);
    let mut total = 0;
    for_each_use(mc, |e, c| {
        total += c.requirement(sched, stage).edge_dffs(stage(e.cell), n);
    });
    total
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cells::CellLibrary;
    use crate::detect::{detect, DetectConfig};
    use crate::dff::insert_dffs;
    use crate::mapped::Edge;
    use crate::mapper::map;
    use proptest::prelude::*;
    use sfq_netlist::aig::{Aig, Lit};
    use sfq_netlist::truth_table::TruthTable;

    /// Consumer bookkeeping of the reference search.
    #[derive(Debug, Clone, Copy)]
    enum Use {
        /// (consumer cell, weight 1)
        Gate(CellId),
        /// (T1 cell, operand slot)
        T1(CellId, usize),
        /// Primary output.
        Po,
    }

    /// The `HashMap`-and-requirement-vector local search that
    /// [`local_search`] replaces, kept as its test oracle: the same
    /// schedule and the same number of candidate evaluations.
    fn local_search_reference(
        mc: &MappedCircuit,
        n: u32,
        passes: usize,
        objective: SearchObjective,
    ) -> (Schedule, u64) {
        use crate::dff::build_chain_reference;
        use std::collections::HashMap;
        assert!(n >= 1, "need at least one phase");
        if mc.t1_count() > 0 {
            assert!(n >= 3, "T1 cells need at least 3 phases");
        }
        let mut sched = asap(mc, n);
        let mut evals = 0u64;

        // users[(cell, port)] = consumers.
        let mut users: HashMap<(CellId, u8), Vec<Use>> = HashMap::new();
        for (id, cell) in mc.cells() {
            match cell {
                MappedCell::Gate { fanins, .. } => {
                    for e in fanins {
                        users
                            .entry((e.cell, e.port))
                            .or_default()
                            .push(Use::Gate(id));
                    }
                }
                MappedCell::T1 { fanins } => {
                    for (slot, e) in fanins.iter().enumerate() {
                        users
                            .entry((e.cell, e.port))
                            .or_default()
                            .push(Use::T1(id, slot));
                    }
                }
                _ => {}
            }
        }
        for e in mc.pos() {
            if !matches!(mc.cell(e.cell), MappedCell::Const0) {
                users.entry((e.cell, e.port)).or_default().push(Use::Po);
            }
        }

        let nn = n as i64;
        let max_fanout_for_eval = 64usize;
        // Cost of one driver's requirement set under the chosen objective.
        let req_cost = |source: i64, reqs: &[Requirement]| -> u64 {
            match objective {
                SearchObjective::SharedChains => {
                    build_chain_reference(source, reqs, nn).dff_count() as u64
                }
                SearchObjective::PerEdge => reqs
                    .iter()
                    .map(|r| match *r {
                        Requirement::Window(t) => ((t - source - 1).max(0) / nn) as u64,
                        Requirement::Exact(tau) => {
                            let d = tau - source;
                            if d <= 0 {
                                0
                            } else {
                                ((d + nn - 1) / nn) as u64
                            }
                        }
                    })
                    .sum(),
            }
        };
        for _ in 0..passes {
            let mut improved = false;
            for idx in (0..mc.len()).rev() {
                let id = CellId(idx as u32);
                let cell = mc.cell(id);
                if matches!(cell, MappedCell::Input { .. } | MappedCell::Const0) {
                    continue;
                }
                // Feasible range.
                let lo = match cell {
                    MappedCell::Gate { fanins, .. } => {
                        fanins
                            .iter()
                            .map(|e| sched.stages[e.cell.index()])
                            .max()
                            .unwrap_or(0)
                            + 1
                    }
                    MappedCell::T1 { fanins } => {
                        let offsets = sched.t1_offsets[idx].expect("offsets");
                        (0..3)
                            .map(|k| sched.stages[fanins[k].cell.index()] + offsets[k])
                            .max()
                            .unwrap()
                    }
                    _ => unreachable!(),
                };
                let mut hi = i64::MAX;
                for port in 0..mc.num_ports(id) as u8 {
                    if let Some(us) = users.get(&(id, port)) {
                        for u in us {
                            let bound = match u {
                                Use::Gate(j) => sched.stages[j.index()] - 1,
                                Use::T1(t, slot) => {
                                    let o = sched.t1_offsets[t.index()].expect("offsets")[*slot];
                                    sched.stages[t.index()] - o
                                }
                                Use::Po => sched.horizon,
                            };
                            hi = hi.min(bound);
                        }
                    } else if port == 0 && mc.num_ports(id) == 1 {
                        // Dead cell: keep at lo.
                        hi = hi.min(lo);
                    }
                }
                if hi == i64::MAX {
                    hi = lo; // fully unused multi-port cell
                }
                if hi <= lo {
                    sched.stages[idx] = lo.min(hi.max(lo));
                    continue;
                }
                // Cost of a candidate stage: own chains + fanin-driver chains.
                let current = sched.stages[idx];
                let mut eval = |s: i64, sched: &Schedule| -> u64 {
                    evals += 1;
                    let mut cost = 0u64;
                    for port in 0..mc.num_ports(id) as u8 {
                        if let Some(us) = users.get(&(id, port)) {
                            let reqs: Vec<Requirement> = us
                                .iter()
                                .map(|u| match u {
                                    Use::Gate(j) => Requirement::Window(sched.stages[j.index()]),
                                    Use::T1(t, slot) => {
                                        let o =
                                            sched.t1_offsets[t.index()].expect("offsets")[*slot];
                                        Requirement::Exact(sched.stages[t.index()] - o)
                                    }
                                    Use::Po => Requirement::Window(sched.horizon + 1),
                                })
                                .collect();
                            cost += req_cost(s, &reqs);
                        }
                    }
                    // Fanin drivers: recompute with this cell's requirement at s.
                    for e in mc.fanins(id).iter() {
                        let Some(us) = users.get(&(e.cell, e.port)) else {
                            continue;
                        };
                        if us.len() > max_fanout_for_eval {
                            continue;
                        }
                        let src = sched.stages[e.cell.index()];
                        let reqs: Vec<Requirement> = us
                            .iter()
                            .map(|u| match u {
                                Use::Gate(j) => {
                                    let t = if *j == id { s } else { sched.stages[j.index()] };
                                    Requirement::Window(t)
                                }
                                Use::T1(t, sl) => {
                                    let o = sched.t1_offsets[t.index()].expect("offsets")[*sl];
                                    // The moved cell may itself be this consumer.
                                    let ts = if *t == id { s } else { sched.stages[t.index()] };
                                    Requirement::Exact(ts - o)
                                }
                                Use::Po => Requirement::Window(sched.horizon + 1),
                            })
                            .collect();
                        cost += req_cost(src, &reqs);
                    }
                    cost
                };
                // Candidate set: bounded sweep of the feasible range.
                let span = hi - lo;
                let mut candidates: Vec<i64> = if span <= 40 {
                    (lo..=hi).collect()
                } else {
                    let stride = span / 40 + 1;
                    let mut v: Vec<i64> = (lo..=hi).step_by(stride as usize).collect();
                    v.push(hi);
                    v.push(current);
                    v.sort_unstable();
                    v.dedup();
                    v
                };
                candidates.retain(|&s| s >= lo && s <= hi);
                let mut best = (eval(current, &sched), current);
                for &s in &candidates {
                    if s == current {
                        continue;
                    }
                    let c = eval(s, &sched);
                    if c < best.0 {
                        best = (c, s);
                    }
                }
                if best.1 != current {
                    sched.stages[idx] = best.1;
                    improved = true;
                }
            }
            // Horizon can only stay or shrink (PO drivers never move past it).
            sched.horizon = mc
                .pos()
                .iter()
                .filter(|e| !matches!(mc.cell(e.cell), MappedCell::Const0))
                .map(|e| sched.stages[e.cell.index()])
                .max()
                .unwrap_or(0);
            if !improved {
                break;
            }
        }
        (sched, evals)
    }

    /// A random network from a byte script: each 4-byte chunk picks three
    /// literals, mostly among the six most recent pool entries (so most of
    /// the network stays in the output cones), else anywhere (so some
    /// edges span many stages), and adds an AND, an XOR or a MAJ3 of
    /// possibly complemented literals, or a full adder (its sum and carry)
    /// of plain ones, so T1 groups are common. The last `pos` pool entries,
    /// and optionally a constant, are the outputs.
    pub(crate) fn script_aig(script: &[u8], num_pis: usize, pos: usize, const_po: bool) -> Aig {
        let mut g = Aig::new();
        let mut pool: Vec<Lit> = (0..num_pis).map(|_| g.add_pi()).collect();
        for chunk in script.chunks_exact(4) {
            let pick = |byte: u8| {
                let window = if byte < 0xC0 {
                    pool.len().min(6)
                } else {
                    pool.len()
                };
                pool[pool.len() - 1 - byte as usize % window]
            };
            let (a, b, c) = (pick(chunk[0]), pick(chunk[1]), pick(chunk[2]));
            let neg = |l: Lit, bit: u8| if chunk[3] >> bit & 1 == 1 { !l } else { l };
            match chunk[3] >> 3 & 7 {
                0 | 1 => pool.push(g.and(neg(a, 0), neg(b, 1))),
                2 => pool.push(g.xor(neg(a, 0), neg(b, 1))),
                3 => pool.push(g.maj3(neg(a, 0), neg(b, 1), neg(c, 2))),
                _ => {
                    let sum = g.xor3(a, b, c);
                    let carry = g.maj3(a, b, c);
                    pool.extend([sum, carry]);
                }
            }
        }
        for &o in pool.iter().rev().take(pos) {
            g.add_po(o);
        }
        if const_po {
            g.add_po(Lit::FALSE);
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

        /// The CSR local search finds the reference search's schedule with
        /// the same number of candidate evaluations, on mapped circuits
        /// with and without T1 cells, under both objectives.
        #[test]
        fn local_search_matches_reference(
            script in prop::collection::vec(any::<u8>(), 4..240),
            num_pis in 3usize..=6,
            pos in 1usize..=4,
            const_po in any::<bool>(),
            n in 1u32..=6,
            passes in 0usize..=4,
            shared in any::<bool>(),
        ) {
            let aig = script_aig(&script, num_pis, pos, const_po);
            let lib = CellLibrary::default();
            let det = detect(&aig, &lib, &DetectConfig::default());
            let mc = map(&aig, &lib, Some(&det.selection)).circuit;
            let n = if mc.t1_count() > 0 { n.max(3) } else { n };
            let objective = if shared {
                SearchObjective::SharedChains
            } else {
                SearchObjective::PerEdge
            };
            let (got, evals) = local_search(&mc, n, passes, objective);
            let (want, want_evals) = local_search_reference(&mc, n, passes, objective);
            prop_assert_eq!(got, want);
            prop_assert_eq!(evals, want_evals);
        }
    }

    /// The brute force that [`best_t1_slots`] replaces, kept as its test
    /// oracle: every ordered triple of distinct offsets in `1..=n`, the
    /// first least (σ, DFF cost) in lexicographic order wins. O(n³).
    fn best_t1_slots_brute_force(srcs: &[i64; 3], n: i64) -> (i64, [i64; 3]) {
        let n = n.max(3);
        let ceil_div = |a: i64, b: i64| if a <= 0 { 0 } else { (a + b - 1) / b };
        let mut best: Option<(i64, i64, [i64; 3])> = None;
        for o0 in 1..=n {
            for o1 in (1..=n).filter(|&o1| o1 != o0) {
                for o2 in (1..=n).filter(|&o2| o2 != o0 && o2 != o1) {
                    let offs = [o0, o1, o2];
                    let sigma = (0..3).map(|k| srcs[k] + offs[k]).max().unwrap();
                    let cost: i64 = (0..3).map(|k| ceil_div(sigma - offs[k] - srcs[k], n)).sum();
                    if best.is_none_or(|(s, c, _)| (sigma, cost) < (s, c)) {
                        best = Some((sigma, cost, offs));
                    }
                }
            }
        }
        let (sigma, _, offsets) = best.unwrap();
        (sigma, offsets)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

        /// The constant-time slot choice equals the brute force, on source
        /// stages from one stage apart to 200 apart.
        #[test]
        fn t1_slots_match_brute_force(
            n in 1i64..=40,
            spread in 1i64..=200,
            a in 0i64..200,
            b in 0i64..200,
            c in 0i64..200,
        ) {
            let srcs = [a % spread, b % spread, c % spread];
            prop_assert_eq!(best_t1_slots(&srcs, n), best_t1_slots_brute_force(&srcs, n));
        }
    }

    #[test]
    fn t1_slots_at_huge_phase_counts() {
        let n = i64::from(u32::MAX);
        assert_eq!(best_t1_slots(&[0, 5, 5], n), (7, [7, 1, 2]));
        assert_eq!(best_t1_slots(&[7, 7, 7], n), (10, [1, 2, 3]));
    }

    #[test]
    fn random_circuits_exercise_t1_cells() {
        // The proptest's generator must produce T1 cells often enough to
        // test the T1 paths of the search.
        let lib = CellLibrary::default();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let with_t1 = (0..40)
            .filter(|_| {
                let script: Vec<u8> = (0..80)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state as u8
                    })
                    .collect();
                let aig = script_aig(&script, 4, 2, false);
                let det = detect(&aig, &lib, &DetectConfig::default());
                map(&aig, &lib, Some(&det.selection)).circuit.t1_count() > 0
            })
            .count();
        assert!(with_t1 >= 10, "{with_t1} of 40 circuits have T1 cells");
    }

    fn and2() -> TruthTable {
        TruthTable::var(2, 0) & TruthTable::var(2, 1)
    }

    fn chain_circuit(depth: usize) -> MappedCircuit {
        let mut m = MappedCircuit::new();
        let a = m.add_input();
        let b = m.add_input();
        let mut prev = m.add_gate(and2(), vec![Edge::plain(a), Edge::plain(b)]);
        for _ in 1..depth {
            prev = m.add_gate(and2(), vec![Edge::plain(prev), Edge::plain(a)]);
        }
        m.add_po(Edge::plain(prev));
        m
    }

    #[test]
    fn asap_chain_stages() {
        let mc = chain_circuit(5);
        let s = assign_phases(&mc, 1, 0);
        assert_eq!(s.horizon, 5);
        assert_eq!(s.depth_cycles(), 5);
        s.validate(&mc).unwrap();
    }

    #[test]
    fn depth_cycles_divides_by_phases() {
        let mc = chain_circuit(8);
        let s = assign_phases(&mc, 4, 0);
        assert_eq!(s.horizon, 8);
        assert_eq!(s.depth_cycles(), 2);
    }

    #[test]
    fn t1_asap_respects_eq3() {
        let mut m = MappedCircuit::new();
        let a = m.add_input();
        let b = m.add_input();
        let c = m.add_input();
        let g = m.add_gate(and2(), vec![Edge::plain(a), Edge::plain(b)]); // stage 1
        let t1 = m.add_t1([Edge::plain(g), Edge::plain(b), Edge::plain(c)]);
        m.add_po(Edge {
            cell: t1,
            port: 0,
            invert: false,
        });
        let s = assign_phases(&m, 4, 0);
        // Operands at stages 1, 0, 0 → sorted (0,0,1) with offsets (3,2,1)
        // → σ(T1) >= max(0+3, 0+2, 1+1) = 3... but offsets are assigned by
        // ascending stage with slot tiebreak: b (slot1, stage0) → 3,
        // c (slot2, stage0) → 2, g (slot0, stage1) → 1 → σ = max(3,2,2)=3.
        assert_eq!(s.stages[t1.index()], 3);
        s.validate(&m).unwrap();
    }

    #[test]
    fn local_search_reduces_dffs_on_unbalanced_tree() {
        // A deep chain alternating over inputs a and b: both input chains
        // already span all stages. A shallow side gate over the same inputs
        // pays a long balancing chain under ASAP; moving it later is free
        // (its operands' chains already have members near the top) and
        // saves the side chain — exactly what the local search must find.
        let mut m = MappedCircuit::new();
        let a = m.add_input();
        let b = m.add_input();
        let mut prev = m.add_gate(and2(), vec![Edge::plain(a), Edge::plain(b)]);
        for i in 0..6 {
            let other = if i % 2 == 0 { a } else { b };
            prev = m.add_gate(and2(), vec![Edge::plain(prev), Edge::plain(other)]);
        }
        // Shallow side gate: ASAP stage 1, but its consumer is at stage 8.
        let side = m.add_gate(and2(), vec![Edge::plain(a), Edge::plain(b)]);
        let top = m.add_gate(and2(), vec![Edge::plain(prev), Edge::plain(side)]);
        m.add_po(Edge::plain(top));
        let asap_s = assign_phases(&m, 1, 0);
        let opt_s = assign_phases_with(&m, 1, 3, SearchObjective::SharedChains);
        let asap_d = insert_dffs(&m, &asap_s).total_dffs;
        let opt_d = insert_dffs(&m, &opt_s).total_dffs;
        assert!(
            opt_d < asap_d,
            "local search must help: {opt_d} vs {asap_d}"
        );
        opt_s.validate(&m).unwrap();
    }

    #[test]
    fn shared_chain_objective_never_worse_than_per_edge() {
        use sfq_circuits::epfl::adder;
        let lib = CellLibrary::default();
        let aig = adder(8);
        let mc = map(&aig, &lib, None).circuit;
        for n in [1u32, 4] {
            let pe = assign_phases_with(&mc, n, 3, SearchObjective::PerEdge);
            let sc = assign_phases_with(&mc, n, 3, SearchObjective::SharedChains);
            let pe_d = insert_dffs(&mc, &pe).total_dffs;
            let sc_d = insert_dffs(&mc, &sc).total_dffs;
            assert!(
                sc_d <= pe_d,
                "sharing-aware search ({sc_d}) worse than per-edge ({pe_d}) at n={n}"
            );
        }
    }

    #[test]
    fn exact_optimal_on_linearized_objective() {
        use sfq_circuits::epfl::adder;
        let lib = CellLibrary::default();
        let aig = adder(3);
        let mc = map(&aig, &lib, None).circuit;
        for n in [1u32, 2, 4] {
            let h = assign_phases(&mc, n, 3);
            let e = assign_phases_exact(&mc, n).expect("solvable");
            // The ILP minimizes the per-edge objective of §II-B exactly;
            // the heuristic can never beat it on that metric (it optimizes
            // the richer shared-chain count instead).
            let ho = edge_dff_objective(&mc, &h);
            let eo = edge_dff_objective(&mc, &e);
            assert!(
                eo <= ho,
                "exact ({eo}) worse than heuristic ({ho}) on ILP objective, n={n}"
            );
            e.validate(&mc).unwrap();
        }
    }

    #[test]
    fn four_phase_needs_fewer_dffs_than_single() {
        let mc = chain_circuit(12);
        let s1 = assign_phases(&mc, 1, 2);
        let s4 = assign_phases(&mc, 4, 2);
        let d1 = insert_dffs(&mc, &s1).total_dffs;
        let d4 = insert_dffs(&mc, &s4).total_dffs;
        assert!(d4 < d1, "4-phase {d4} must beat 1-phase {d1}");
    }

    #[test]
    fn validate_catches_bad_stage() {
        let mc = chain_circuit(3);
        let mut s = assign_phases(&mc, 1, 0);
        s.stages[3] = 0; // gate forced to stage 0
        assert!(s.validate(&mc).is_err());
    }
}
