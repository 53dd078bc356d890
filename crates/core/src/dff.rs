//! Path-balancing DFF insertion with fanout sharing (§II-C of the paper).
//!
//! Under `n`-phase clocking, a datum produced at stage `s` must be re-latched
//! at least every `n` stages, and a consumer clocked at stage `t` must
//! capture from an element at a stage in the window `[t − n, t − 1]`. All
//! fanouts of one driver share a single DFF chain; consumers tap the chain
//! at a suitable element.
//!
//! Two requirement kinds exist:
//!
//! - **Window(t)** — an ordinary clocked consumer at stage `t`: any tap in
//!   `[t − n, t − 1]` works.
//! - **Exact(τ)** — a T1 operand (eq. 5: the three deliveries must sit at
//!   *pairwise distinct* stages `σ_T1 − 3, σ_T1 − 2, σ_T1 − 1`) or a primary
//!   output (all outputs equalized to the horizon stage): the delivering
//!   element must sit exactly at `τ`.
//!
//! The chain builder places members greedily, which is *optimal* for a fixed
//! stage assignment: every exact stage is forced, and between forced points
//! the gap constraint admits at most `⌈gap/n⌉ − 1` free members, which the
//! greedy `+n` stepping achieves; window extension beyond the last forced
//! point likewise adds the provably minimal `⌊(t − p − 1)/n⌋` members.
//!
//! # Plan layout
//!
//! A [`DffPlan`] is two arrays its readers walk directly.
//!
//! - **Chains**, in compressed sparse row form: one offset per driver
//!   `d = 3·cell + port` (a cell has at most three ports) over one shared
//!   vector of member stages. [`DffPlan::chain`] looks a driver's chain up
//!   by `(cell, port)`; chains are stored cells ascending, then ports.
//! - **Taps**, one per use of a driver, in netlist use order: the fanin
//!   slots of gates and T1 cells, cells ascending, then the primary
//!   outputs not driven by a constant. A tap is the position, in its
//!   driver's chain, of the element serving the use: 0 for the driver
//!   itself, `k` for the `k`-th member.
//!
//! The plan repeats nothing the netlist and the schedule hold: a use's
//! driver is its fanin edge, and its requirement follows from the stages.
//! A reader walks the cells and their fanins in order, then the outputs,
//! and takes the next of [`DffPlan::taps`] for each use. A use costs the
//! plan 4 bytes. [`insert_dffs`], the only builder, fills both arrays in
//! one pass over the drivers, so a plan costs a handful of allocations
//! whatever its size.
//!
//! # Splitter count
//!
//! A driver with `u` consumers needs exactly `u − 1` splitters, whatever
//! its chain. An element (the driver or a chain DFF) with fanout `f ≥ 1`
//! needs `f − 1` splitters. The fanout branches of a chain with `k`
//! members are the `u` taps plus the `k` succession edges driver →
//! member 1 → … → member `k`, and its `k + 1` elements sit at distinct
//! stages. Every element drives something: each one before the last
//! drives its successor, and the last is tapped. It is an exact delivery,
//! or the window extension placed for some consumer `t`, which then taps
//! it as its latest element before `t`; with no members, every tap is at
//! the driver. So the total is `(u + k) − (k + 1) = u − 1`, and
//! [`insert_dffs`] adds that per driver without looking at the chain.

use crate::mapped::{CellId, Edge, MappedCell, MappedCircuit};
use crate::phase::Schedule;
use std::ops::Range;

/// A delivery requirement placed on a driver's DFF chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Requirement {
    /// Consumer clocked at the given stage; tap within `[t − n, t − 1]`.
    Window(i64),
    /// Delivering element must sit exactly at the given stage.
    Exact(i64),
}

impl Requirement {
    /// The §II-B per-edge DFF cost of meeting this requirement from a
    /// driver at stage `source` under `n` phases, sharing no DFF with the
    /// driver's other consumers: `⌊(t − s − 1)/n⌋` for a window at `t`,
    /// `⌈(τ − s)/n⌉` for an exact delivery at `τ` (0 when already met).
    pub fn edge_dffs(self, source: i64, n: i64) -> u64 {
        let dffs = match self {
            Requirement::Window(t) => (t - source - 1).max(0) / n,
            Requirement::Exact(tau) => ((tau - source).max(0) + n - 1) / n,
        };
        dffs as u64
    }
}

/// Who a use of a driver belongs to: the requirement it places on the
/// driver's chain follows from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Consumer {
    /// Fanin slot of an ordinary gate.
    GateInput {
        /// Consuming cell.
        cell: CellId,
    },
    /// Operand slot of a T1 cell.
    T1Input {
        /// Consuming T1 cell.
        cell: CellId,
        /// Operand slot.
        slot: u8,
    },
    /// Primary output.
    Output,
}

/// A shared DFF chain for one driver, as [`build_chain`] returns it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Chain {
    /// Stages of the chain DFFs, ascending (the driver itself is not listed).
    pub members: Vec<i64>,
    /// For each requirement (in input order): the position of the serving
    /// element in the chain (0 is the driver, `k` the `k`-th member).
    pub taps: Vec<u32>,
}

impl Chain {
    /// Number of DFFs in the chain.
    pub fn dff_count(&self) -> usize {
        self.members.len()
    }
}

/// Working buffers of [`append_chain`], reused across the drivers of one
/// plan.
#[derive(Debug, Default)]
struct ChainScratch {
    exact: Vec<i64>,
    windows: Vec<i64>,
}

/// Builds the minimal shared chain for one driver.
///
/// # Panics
///
/// Panics if a requirement is infeasible for the given source stage:
/// `Exact(τ)` with `τ < source`, or `Window(t)` with `t <= source`.
pub fn build_chain(source: i64, reqs: &[Requirement], n: i64) -> Chain {
    let mut chain = Chain::default();
    append_chain(
        source,
        reqs,
        n,
        &mut ChainScratch::default(),
        &mut chain.members,
        |_, tap| chain.taps.push(tap),
    );
    chain
}

/// The chain builder behind [`build_chain`] and [`insert_dffs`]: appends
/// the minimal shared chain of a driver at stage `source` to `members`
/// (ascending), working in the caller's `scratch` buffers, and calls
/// `tap(i, k)` for each requirement `i` in order with the position `k` of
/// its serving element (0 for the driver, `k` for the `k`-th appended
/// member). Elements already in `members` are left alone.
///
/// # Panics
///
/// As [`build_chain`].
fn append_chain(
    source: i64,
    reqs: &[Requirement],
    n: i64,
    scratch: &mut ChainScratch,
    members: &mut Vec<i64>,
    mut tap: impl FnMut(usize, u32),
) {
    assert!(n >= 1, "need at least one phase");
    let ChainScratch { exact, windows } = scratch;
    exact.clear();
    windows.clear();
    for r in reqs {
        match *r {
            Requirement::Exact(tau) => {
                assert!(
                    tau >= source,
                    "exact delivery at {tau} before source {source}"
                );
                if tau > source {
                    exact.push(tau);
                }
            }
            Requirement::Window(t) => {
                assert!(t > source, "consumer at {t} not after source {source}");
                windows.push(t);
            }
        }
    }
    exact.sort_unstable();
    exact.dedup();
    windows.sort_unstable();
    // Fill gaps so consecutive elements are at most n apart. The chain,
    // `members[start..]`, stays ascending, and every member is above
    // `source`.
    let start = members.len();
    let mut prev = source;
    for &m in exact.iter() {
        while m - prev > n {
            prev += n;
            members.push(prev);
        }
        members.push(m);
        prev = m;
    }
    // The element serving a window consumer at `t` is the last one before
    // `t`: returns its position (where a member before `t` would be
    // inserted in `chain`), and its stage.
    let latest_before = |chain: &[i64], t: i64| {
        let at = chain.partition_point(|&m| m < t);
        (at, if at == 0 { source } else { chain[at - 1] })
    };
    // Extend for window consumers beyond the current chain end.
    for &t in windows.iter() {
        let (mut at, mut p) = latest_before(&members[start..], t);
        while p < t - n {
            p += n;
            members.insert(start + at, p);
            at += 1;
        }
    }
    // Assign taps. An exact delivery above the source is a member, so its
    // position counts the members up to it; one at the source counts none.
    // A position is at most the plan's member count, which `insert_dffs`
    // checks fits a `u32`.
    let chain = &members[start..];
    for (i, r) in reqs.iter().enumerate() {
        let at = match *r {
            Requirement::Exact(tau) => chain.partition_point(|&m| m <= tau),
            Requirement::Window(t) => {
                let (at, p) = latest_before(chain, t);
                debug_assert!(p >= t - n, "window consumer unserved");
                at
            }
        };
        tap(i, at as u32);
    }
}

/// Complete DFF-insertion plan for a scheduled netlist: every driver's
/// chain, and every use's tap into its driver's chain (see the
/// [module docs](self#plan-layout)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DffPlan {
    /// The chain of driver `d = 3·cell + port` is
    /// `members[chain_start[d]..chain_start[d + 1]]`.
    chain_start: Vec<u32>,
    members: Vec<i64>,
    taps: Vec<u32>,
    /// Total path-balancing DFFs.
    pub total_dffs: u64,
    /// Total splitters.
    pub total_splitters: u64,
}

impl DffPlan {
    /// The stages of the chain DFFs of output `port` of `cell`, ascending
    /// (the driver itself is not listed; empty when no use needs a DFF).
    pub fn chain(&self, cell: CellId, port: u8) -> &[i64] {
        &self.members[self.chain_range(cell, port)]
    }

    /// The chain DFF serving a use of output `port` of `cell` whose tap is
    /// `tap` (one of [`DffPlan::taps`]): `None` when the driver serves the
    /// use itself, else the DFF's stage and its number among all the
    /// plan's chain DFFs, numbered cells ascending, then ports, then along
    /// each chain.
    pub fn tapped_dff(&self, cell: CellId, port: u8, tap: u32) -> Option<(usize, i64)> {
        let k = tap.checked_sub(1)? as usize;
        let chain = self.chain_range(cell, port);
        Some((chain.start + k, self.members[chain][k]))
    }

    fn chain_range(&self, cell: CellId, port: u8) -> Range<usize> {
        let d = driver_index(cell, port);
        self.chain_start[d] as usize..self.chain_start[d + 1] as usize
    }

    /// One tap per use, in netlist use order (see the
    /// [module docs](self#plan-layout)): the position of the serving
    /// element in the use's driver chain, 0 being the driver itself.
    /// [`DffPlan::tapped_dff`] names the element.
    pub fn taps(&self) -> &[u32] {
        &self.taps
    }
}

impl Consumer {
    /// The requirement this consumer places on its driver under `sched`,
    /// with its cell at stage `stage(cell)`: a gate input captures in a
    /// window, a T1 operand at its delivery slot, and a primary output in
    /// the window of the environment's capture at `horizon + 1` (every
    /// output is latency-equalized to the cycle granularity).
    pub(crate) fn requirement(
        self,
        sched: &Schedule,
        stage: impl Fn(CellId) -> i64,
    ) -> Requirement {
        match self {
            Consumer::GateInput { cell } => Requirement::Window(stage(cell)),
            Consumer::T1Input { cell, slot } => {
                let offsets = sched.t1_offsets[cell.index()].expect("T1 cell has offsets");
                Requirement::Exact(stage(cell) - offsets[usize::from(slot)])
            }
            Consumer::Output => Requirement::Window(sched.horizon + 1),
        }
    }
}

/// The index of driver `(cell, port)` among all `3 · cells` driver slots
/// (a cell has at most three ports).
fn driver_index(cell: CellId, port: u8) -> usize {
    3 * cell.index() + port as usize
}

/// The uses of every driver `(cell, port)` of a mapped circuit, in
/// compressed sparse row form.
///
/// Each driver lists its uses in netlist order (see [`for_each_use`]),
/// each with its consumer and its number in that order.
pub(crate) struct Fanouts {
    /// Uses of driver `d` ([`driver_index`]):
    /// `consumers[start[d]..start[d + 1]]` and `uses[start[d]..start[d + 1]]`.
    start: Vec<usize>,
    consumers: Vec<Consumer>,
    /// The number of each use in netlist use order.
    uses: Vec<u32>,
}

impl Fanouts {
    pub(crate) fn new(mc: &MappedCircuit) -> Self {
        let driver = |e: &Edge| driver_index(e.cell, e.port);
        let mut start = vec![0; 3 * mc.len() + 1];
        for_each_use(mc, |e, _| start[driver(e) + 1] += 1);
        for d in 1..start.len() {
            start[d] += start[d - 1];
        }
        let total = start[start.len() - 1];
        let mut next = start.clone();
        let mut consumers = vec![Consumer::Output; total];
        let mut uses = vec![0; total];
        let mut count = 0;
        for_each_use(mc, |e, c| {
            let at = next[driver(e)];
            consumers[at] = c;
            uses[at] = count;
            next[driver(e)] += 1;
            count += 1;
        });
        Fanouts {
            start,
            consumers,
            uses,
        }
    }

    fn range(&self, cell: CellId, port: u8) -> Range<usize> {
        let d = driver_index(cell, port);
        self.start[d]..self.start[d + 1]
    }

    /// The consumers of output `port` of `cell`.
    pub(crate) fn of(&self, cell: CellId, port: u8) -> &[Consumer] {
        &self.consumers[self.range(cell, port)]
    }
}

/// Calls `f` on every (driver edge, consumer) pair in netlist use order:
/// the fanins of gates and T1 cells, cells ascending and slots in order,
/// then the primary outputs. Outputs driven by a constant are left out, as
/// they need no balancing.
pub(crate) fn for_each_use(mc: &MappedCircuit, mut f: impl FnMut(&Edge, Consumer)) {
    for (id, cell) in mc.cells() {
        match cell {
            MappedCell::Input { .. } | MappedCell::Const0 => {}
            MappedCell::Gate { fanins, .. } => {
                for e in fanins.iter() {
                    f(e, Consumer::GateInput { cell: id });
                }
            }
            MappedCell::T1 { fanins } => {
                for (slot, e) in (0..).zip(fanins) {
                    f(e, Consumer::T1Input { cell: id, slot });
                }
            }
        }
    }
    for e in mc.pos() {
        if !matches!(mc.cell(e.cell), MappedCell::Const0) {
            f(e, Consumer::Output);
        }
    }
}

/// Inserts shared DFF chains for every driver of the scheduled netlist.
///
/// Each driver's chain members are appended straight to the plan's shared
/// vector, and each of its uses' taps written straight into the use's
/// slot, so the plan allocates a handful of vectors whatever its driver
/// count; the requirement list and the chain builder's working buffers
/// are reused across drivers. A driver with `u` consumers adds `u − 1`
/// splitters (see the [module docs](self#splitter-count)).
///
/// # Panics
///
/// Panics if the plan would hold more than `u32::MAX` chain DFFs.
pub fn insert_dffs(mc: &MappedCircuit, sched: &Schedule) -> DffPlan {
    let fanouts = Fanouts::new(mc);
    let n = sched.n as i64;
    let stage = |c: CellId| sched.stages[c.index()];
    let mut reqs: Vec<Requirement> = Vec::new();
    let mut scratch = ChainScratch::default();
    let mut plan = DffPlan {
        chain_start: Vec::with_capacity(fanouts.start.len()),
        members: Vec::new(),
        taps: vec![0; fanouts.uses.len()],
        total_dffs: 0,
        total_splitters: 0,
    };
    plan.chain_start.push(0);
    for (cell, _) in mc.cells() {
        for port in 0..3 {
            let range = fanouts.range(cell, port);
            if !range.is_empty() {
                let uses = &fanouts.uses[range.clone()];
                reqs.clear();
                reqs.extend(
                    fanouts.consumers[range]
                        .iter()
                        .map(|c| c.requirement(sched, stage)),
                );
                let members_start = plan.members.len();
                append_chain(
                    stage(cell),
                    &reqs,
                    n,
                    &mut scratch,
                    &mut plan.members,
                    |i, tap| plan.taps[uses[i] as usize] = tap,
                );
                plan.total_dffs += (plan.members.len() - members_start) as u64;
                plan.total_splitters += uses.len() as u64 - 1;
            }
            let end = u32::try_from(plan.members.len()).expect("chain DFFs fit in u32");
            plan.chain_start.push(end);
        }
    }
    plan
}

/// The `BTreeSet` chain builder [`build_chain`] replaces, kept as its
/// test oracle.
#[cfg(test)]
pub(crate) fn build_chain_reference(source: i64, reqs: &[Requirement], n: i64) -> Chain {
    use std::collections::BTreeSet;
    assert!(n >= 1, "need at least one phase");
    let mut members: BTreeSet<i64> = BTreeSet::new();
    for r in reqs {
        match *r {
            Requirement::Exact(tau) => {
                assert!(
                    tau >= source,
                    "exact delivery at {tau} before source {source}"
                );
                if tau > source {
                    members.insert(tau);
                }
            }
            Requirement::Window(t) => {
                assert!(t > source, "consumer at {t} not after source {source}");
            }
        }
    }
    // Fill gaps so consecutive elements are at most n apart.
    let mut filled: BTreeSet<i64> = BTreeSet::new();
    let mut prev = source;
    for &m in &members {
        let mut p = prev;
        while m - p > n {
            p += n;
            filled.insert(p);
        }
        filled.insert(m);
        prev = m;
    }
    let mut members = filled;
    // Extend for window consumers beyond the current chain end.
    let mut windows: Vec<i64> = reqs
        .iter()
        .filter_map(|r| match *r {
            Requirement::Window(t) => Some(t),
            Requirement::Exact(_) => None,
        })
        .collect();
    windows.sort_unstable();
    for &t in &windows {
        let mut p = members
            .range(..=t - 1)
            .next_back()
            .copied()
            .unwrap_or(source);
        while p < t - n {
            p += n;
            members.insert(p);
        }
    }
    // Assign taps: the position of the serving element is the number of
    // members up to it, 0 being the driver.
    let taps: Vec<u32> = reqs
        .iter()
        .map(|r| match *r {
            Requirement::Exact(tau) => members.range(..=tau).count() as u32,
            Requirement::Window(t) => members.range(..t).count() as u32,
        })
        .collect();
    Chain {
        members: members.into_iter().collect(),
        taps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The splitters a chain of `members` DFFs with the given `taps` needs,
    /// tallied element by element: each element (driver or DFF) with
    /// fanout `f > 1` needs `f − 1`. The sort-based count the closed form
    /// `uses − 1` replaces, kept as its oracle.
    fn splitter_count(members: usize, taps: &[u32]) -> u64 {
        // One entry per fanout branch, naming the chain position of the
        // element that drives it: the taps, then the chain succession
        // driver (0) → member 1 → … → member `members`.
        let mut branches = taps.to_vec();
        branches.extend(0..members as u32);
        // Σ (f − 1) over the elements with fanout f ≥ 1.
        let total = branches.len();
        branches.sort_unstable();
        branches.dedup();
        (total - branches.len()) as u64
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 500, ..ProptestConfig::default() })]

        /// The sorted-`Vec` chain builder equals the `BTreeSet` one, both
        /// fresh and appended after earlier drivers' chains through one
        /// reused scratch (so no state leaks from one driver to the next),
        /// and the per-element splitter tally of every chain is the closed
        /// form `uses − 1`.
        #[test]
        fn build_chain_matches_reference(
            n in 1i64..=6,
            drivers in prop::collection::vec(
                (-4i64..12, prop::collection::vec((any::<bool>(), 0i64..40), 0..12)),
                1..8,
            ),
        ) {
            let mut scratch = ChainScratch::default();
            let (mut members, mut taps) = (Vec::new(), Vec::new());
            for (source, raw) in drivers {
                // Feasible requirements: exact at or after the source,
                // windows strictly after it.
                let reqs: Vec<Requirement> = raw
                    .iter()
                    .map(|&(exact, d)| {
                        if exact {
                            Requirement::Exact(source + d)
                        } else {
                            Requirement::Window(source + 1 + d)
                        }
                    })
                    .collect();
                let reference = build_chain_reference(source, &reqs, n);
                let chain = build_chain(source, &reqs, n);
                prop_assert_eq!(
                    &chain,
                    &reference,
                    "source {} n {} reqs {:?}", source, n, reqs
                );
                if !reqs.is_empty() {
                    prop_assert_eq!(
                        splitter_count(chain.members.len(), &chain.taps),
                        reqs.len() as u64 - 1,
                        "source {} n {} reqs {:?}", source, n, reqs
                    );
                }
                let (members_start, taps_start) = (members.len(), taps.len());
                append_chain(source, &reqs, n, &mut scratch, &mut members, |i, tap| {
                    assert_eq!(taps.len(), taps_start + i, "taps come in order");
                    taps.push(tap);
                });
                let appended = Chain {
                    members: members[members_start..].to_vec(),
                    taps: taps[taps_start..].to_vec(),
                };
                prop_assert_eq!(
                    &appended,
                    &reference,
                    "appended: source {} n {} reqs {:?}", source, n, reqs
                );
            }
        }
    }

    /// What the per-driver fresh-allocation [`insert_dffs`] oracle builds:
    /// the chain of every driver with a use, the taps in use order and
    /// the DFF and splitter totals.
    struct Reference {
        chains: std::collections::BTreeMap<(CellId, u8), Vec<i64>>,
        taps: Vec<u32>,
        total_dffs: u64,
        total_splitters: u64,
    }

    /// The per-driver fresh-allocation [`insert_dffs`] oracle: uses grouped
    /// by driver in a map with their numbers in use order, each chain built
    /// by the reference builder into vectors of its own, its taps scattered
    /// back to use order and its splitters tallied element by element.
    fn insert_dffs_reference(mc: &MappedCircuit, sched: &Schedule) -> Reference {
        use std::collections::BTreeMap;
        let stage = |c: CellId| sched.stages[c.index()];
        let mut uses: BTreeMap<(CellId, u8), Vec<(usize, Consumer)>> = BTreeMap::new();
        let mut count = 0;
        for_each_use(mc, |e, c| {
            uses.entry((e.cell, e.port)).or_default().push((count, c));
            count += 1;
        });
        let mut reference = Reference {
            chains: BTreeMap::new(),
            taps: vec![u32::MAX; count],
            total_dffs: 0,
            total_splitters: 0,
        };
        for (source, consumers) in uses {
            let reqs: Vec<Requirement> = consumers
                .iter()
                .map(|&(_, c)| c.requirement(sched, stage))
                .collect();
            let chain = build_chain_reference(stage(source.0), &reqs, sched.n as i64);
            for (&(u, _), &tap) in consumers.iter().zip(&chain.taps) {
                reference.taps[u] = tap;
            }
            reference.total_dffs += chain.dff_count() as u64;
            reference.total_splitters += splitter_count(chain.members.len(), &chain.taps);
            reference.chains.insert(source, chain.members);
        }
        reference
    }

    /// Whether `plan` holds the oracle's chain for every driver slot, its
    /// taps in use order and its totals.
    fn matches_reference(plan: &DffPlan, mc: &MappedCircuit, sched: &Schedule) -> bool {
        let reference = insert_dffs_reference(mc, sched);
        let chains = mc.cells().all(|(cell, _)| {
            (0..3).all(|port| {
                let expected = reference.chains.get(&(cell, port));
                plan.chain(cell, port) == expected.map_or(&[][..], Vec::as_slice)
            })
        });
        chains
            && plan.taps() == reference.taps
            && (plan.total_dffs, plan.total_splitters)
                == (reference.total_dffs, reference.total_splitters)
    }

    #[test]
    fn insert_dffs_matches_fresh_allocation_oracle() {
        use crate::cells::CellLibrary;
        use crate::flow::{run_flow, FlowConfig};
        let lib = CellLibrary::default();
        let aig = sfq_circuits::epfl::adder(16);
        for config in [
            FlowConfig::t1(4),
            FlowConfig::multiphase(4),
            FlowConfig::single_phase(),
        ] {
            let flow = run_flow(&aig, &lib, &config);
            assert_eq!(flow.stats.t1_used > 0, config.use_t1);
            let plan = insert_dffs(&flow.mapped, &flow.schedule);
            assert!(matches_reference(&plan, &flow.mapped, &flow.schedule));
            assert_eq!(plan, flow.plan);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// The flat plan of a random mapped network, T1 flow or not, under
        /// 1–6 phases, holds every chain, every tap and both totals exactly
        /// as the per-driver oracle builds them.
        #[test]
        fn flat_plan_matches_per_driver_oracle(
            script in prop::collection::vec(any::<u8>(), 4..240),
            num_pis in 3usize..=6,
            pos in 1usize..=4,
            const_po in any::<bool>(),
            n in 1u32..=6,
            use_t1 in any::<bool>(),
        ) {
            use crate::cells::CellLibrary;
            use crate::flow::{run_flow, FlowConfig};
            let aig = crate::phase::tests::script_aig(&script, num_pis, pos, const_po);
            let config = if use_t1 && n >= 3 {
                FlowConfig::t1(n)
            } else {
                FlowConfig::multiphase(n)
            };
            let flow = run_flow(&aig, &CellLibrary::default(), &config);
            let plan = insert_dffs(&flow.mapped, &flow.schedule);
            prop_assert!(
                matches_reference(&plan, &flow.mapped, &flow.schedule),
                "{} T1 cells under {:?}", flow.stats.t1_used, config
            );
            prop_assert_eq!(&plan, &flow.plan);
        }
    }

    #[test]
    fn single_phase_full_balancing() {
        // Source at 0, consumer window at stage 5, n = 1: 4 DFFs at 1..4.
        let c = build_chain(0, &[Requirement::Window(5)], 1);
        assert_eq!(c.members, vec![1, 2, 3, 4]);
        // Served by member 4, at stage 4.
        assert_eq!(c.taps, vec![4]);
    }

    #[test]
    fn four_phase_reduces_dffs() {
        // Same span under n = 4: data survives 4 stages → 1 DFF.
        let c = build_chain(0, &[Requirement::Window(5)], 4);
        assert_eq!(c.members, vec![4]);
        assert_eq!(c.taps, vec![1]);
    }

    #[test]
    fn adjacent_consumer_needs_nothing() {
        let c = build_chain(3, &[Requirement::Window(4)], 1);
        assert!(c.members.is_empty());
        assert_eq!(c.taps, vec![0]);
    }

    #[test]
    fn shared_chain_is_max_not_sum() {
        // Consumers at 3, 5, 9 under n = 1: one chain of 8 DFFs serves all.
        let c = build_chain(
            0,
            &[
                Requirement::Window(3),
                Requirement::Window(5),
                Requirement::Window(9),
            ],
            1,
        );
        assert_eq!(c.dff_count(), 8);
        // Members 1..=8 sit at stages 1..=8: taps at stages 2, 4 and 8.
        assert_eq!(c.taps, vec![2, 4, 8]);
    }

    #[test]
    fn window_taps_latest_feasible() {
        let c = build_chain(0, &[Requirement::Window(10), Requirement::Window(6)], 4);
        // Chain: 4, 8 (gap-filled by extension); consumer 6 taps member 1
        // (stage 4), 10 taps member 2 (stage 8).
        assert_eq!(c.members, vec![4, 8]);
        assert_eq!(c.taps, vec![2, 1]);
    }

    #[test]
    fn exact_requirements_are_members() {
        let c = build_chain(
            2,
            &[
                Requirement::Exact(7),
                Requirement::Exact(6),
                Requirement::Exact(5),
            ],
            4,
        );
        assert_eq!(c.members, vec![5, 6, 7]);
        assert_eq!(c.taps, vec![3, 2, 1]);
    }

    #[test]
    fn exact_at_source_taps_driver() {
        let c = build_chain(4, &[Requirement::Exact(4)], 4);
        assert!(c.members.is_empty());
        assert_eq!(c.taps, vec![0]);
    }

    #[test]
    fn gap_filling_between_exacts() {
        // Source 0, exact at 9, n = 4 → fill 4, 8, then 9.
        let c = build_chain(0, &[Requirement::Exact(9)], 4);
        assert_eq!(c.members, vec![4, 8, 9]);
    }

    #[test]
    fn count_matches_closed_form_for_single_window() {
        for n in 1..=6i64 {
            for t in 1..=20i64 {
                let c = build_chain(0, &[Requirement::Window(t)], n);
                let expect = ((t - 1).max(0)) / n; // floor((t − s − 1)/n)
                assert_eq!(c.dff_count() as i64, expect, "t={t} n={n}");
            }
        }
    }

    #[test]
    fn splitter_counting() {
        // Source drives chain + a direct tap → 1 splitter at the source.
        let c = build_chain(0, &[Requirement::Window(1), Requirement::Window(5)], 1);
        // Members 1..4 at stages 1..4; taps: the driver (direct) and
        // member 4.
        assert_eq!(c.taps, vec![0, 4]);
        // Source fanout: chain successor + direct tap = 2 → 1 splitter.
        // Member 4 is the last and taps one consumer → fanout 1 → 0.
        // Members 1..3 drive only successors → 0.
        assert_eq!(splitter_count(c.members.len(), &c.taps), 1);
    }

    #[test]
    #[should_panic(expected = "before source")]
    fn infeasible_exact_panics() {
        build_chain(5, &[Requirement::Exact(3)], 2);
    }

    #[test]
    fn mixed_exact_and_window() {
        // T1 deliveries at 5,6,7 plus a window consumer at 12, n = 4.
        let c = build_chain(
            1,
            &[
                Requirement::Exact(5),
                Requirement::Exact(6),
                Requirement::Exact(7),
                Requirement::Window(12),
            ],
            4,
        );
        // 5,6,7 forced; window 12 needs an element ≥ 8: extend with 11.
        assert_eq!(c.members, vec![5, 6, 7, 11]);
        assert_eq!(c.taps, vec![1, 2, 3, 4]);
    }
}
