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
//! A [`DffPlan`] is stored in compressed sparse row form: one head per
//! driver (its source, its source stage and where its slices end), plus
//! one shared vector each of chain members, taps and consumers. A driver
//! owns the members from the previous driver's end to its own, and
//! likewise the taps and the consumers; a driver has one tap per consumer,
//! so those two share an end. [`DffPlan::drivers`] walks the heads and
//! yields borrowed [`DriverPlan`] views. [`insert_dffs`], the only
//! builder, appends to the shared vectors, so a plan costs a handful of
//! allocations whatever its driver count. A consumer entry is 24 bytes:
//! a [`Consumer`] keeps its slot in a `u8` and its output index in a
//! `u32`.
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

/// Who a requirement belongs to (used to rebuild the netlist for simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Consumer {
    /// Fanin slot of an ordinary gate.
    GateInput {
        /// Consuming cell.
        cell: CellId,
        /// Fanin slot.
        slot: u8,
    },
    /// Operand slot of a T1 cell.
    T1Input {
        /// Consuming T1 cell.
        cell: CellId,
        /// Operand slot.
        slot: u8,
    },
    /// Primary output.
    Output {
        /// Output index.
        index: u32,
    },
}

/// A shared DFF chain for one driver, as [`build_chain`] returns it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Chain {
    /// Stages of the chain DFFs, ascending (the driver itself is not listed).
    pub members: Vec<i64>,
    /// For each requirement (in input order): the stage of the serving
    /// element (`source` stage means the driver serves directly).
    pub taps: Vec<i64>,
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
        &mut chain.taps,
    );
    chain
}

/// The chain builder behind [`build_chain`] and [`insert_dffs`]: appends
/// the minimal shared chain of a driver at stage `source` to `members`
/// (ascending) and one tap per requirement to `taps`, working in the
/// caller's `scratch` buffers. Elements already in `members` and `taps`
/// are left alone.
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
    taps: &mut Vec<i64>,
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
    // `t`: returns where a member before `t` would be inserted in `chain`,
    // and the stage of that element.
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
    // Assign taps.
    let chain = &members[start..];
    taps.extend(reqs.iter().map(|r| match *r {
        Requirement::Exact(tau) => tau,
        Requirement::Window(t) => {
            let (_, p) = latest_before(chain, t);
            debug_assert!(p >= t - n, "window consumer unserved");
            p
        }
    }));
}

/// The DFF chain of one driver, with its consumers: a borrowed view of one
/// driver of a [`DffPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriverPlan<'a> {
    /// Driving cell and output port.
    pub source: (CellId, u8),
    /// Stage of the driver.
    pub source_stage: i64,
    /// Stages of the chain DFFs, ascending (the driver itself is not
    /// listed).
    pub members: &'a [i64],
    /// For each consumer, in order: the stage of the serving element
    /// (`source_stage` means the driver serves directly).
    pub taps: &'a [i64],
    /// Consumers with their requirements, in the same order as `taps`.
    pub consumers: &'a [(Consumer, Requirement)],
}

/// One driver of a [`DffPlan`]: its source, and where its slices end in the
/// plan's shared vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DriverHead {
    source: (CellId, u8),
    source_stage: i64,
    /// End of the driver's chain in `members`.
    members_end: usize,
    /// End of the driver's taps in `taps`, and of its consumers in
    /// `consumers`.
    consumers_end: usize,
}

/// Complete DFF-insertion plan for a scheduled netlist, in compressed
/// sparse row form (see the [module docs](self#plan-layout)): per-driver
/// heads over one shared vector each of chain members, taps and
/// consumers. Read it through [`DffPlan::drivers`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DffPlan {
    heads: Vec<DriverHead>,
    members: Vec<i64>,
    taps: Vec<i64>,
    consumers: Vec<(Consumer, Requirement)>,
    /// Total path-balancing DFFs.
    pub total_dffs: u64,
    /// Total splitters.
    pub total_splitters: u64,
}

impl DffPlan {
    /// The per-driver chains (only drivers with at least one consumer), in
    /// the order they were built: [`insert_dffs`] lists cells ascending,
    /// then ports.
    pub fn drivers(&self) -> impl ExactSizeIterator<Item = DriverPlan<'_>> + '_ {
        let (mut members, mut consumers) = (0, 0);
        self.heads.iter().map(move |h| {
            let d = DriverPlan {
                source: h.source,
                source_stage: h.source_stage,
                members: &self.members[members..h.members_end],
                taps: &self.taps[consumers..h.consumers_end],
                consumers: &self.consumers[consumers..h.consumers_end],
            };
            (members, consumers) = (h.members_end, h.consumers_end);
            d
        })
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
            Consumer::GateInput { cell, .. } => Requirement::Window(stage(cell)),
            Consumer::T1Input { cell, slot } => {
                let offsets = sched.t1_offsets[cell.index()].expect("T1 cell has offsets");
                Requirement::Exact(stage(cell) - offsets[usize::from(slot)])
            }
            Consumer::Output { .. } => Requirement::Window(sched.horizon + 1),
        }
    }
}

/// The consumers of every driver `(cell, port)` of a mapped circuit, in
/// compressed sparse row form.
///
/// Each driver lists its consumers in netlist order: the inputs of gates
/// and T1 cells by cell id and slot, then the primary outputs. Outputs
/// driven by a constant are left out, as they need no balancing.
pub(crate) struct Fanouts {
    /// Consumers of driver `d = 3·cell + port` (a cell has at most three
    /// ports): `consumers[start[d]..start[d + 1]]`.
    start: Vec<usize>,
    consumers: Vec<Consumer>,
}

impl Fanouts {
    fn driver(cell: CellId, port: u8) -> usize {
        3 * cell.index() + port as usize
    }

    pub(crate) fn new(mc: &MappedCircuit) -> Self {
        let driver = |e: &Edge| Self::driver(e.cell, e.port);
        let mut start = vec![0; 3 * mc.len() + 1];
        for_each_use(mc, |e, _| start[driver(e) + 1] += 1);
        for d in 1..start.len() {
            start[d] += start[d - 1];
        }
        let mut next = start.clone();
        let mut consumers = vec![Consumer::Output { index: 0 }; start[start.len() - 1]];
        for_each_use(mc, |e, c| {
            consumers[next[driver(e)]] = c;
            next[driver(e)] += 1;
        });
        Fanouts { start, consumers }
    }

    /// The consumers of output `port` of `cell`.
    pub(crate) fn of(&self, cell: CellId, port: u8) -> &[Consumer] {
        let d = Self::driver(cell, port);
        &self.consumers[self.start[d]..self.start[d + 1]]
    }

    /// The number of drivers with at least one consumer.
    fn used_drivers(&self) -> usize {
        self.start.windows(2).filter(|w| w[0] < w[1]).count()
    }
}

/// Calls `f` on every (driver edge, consumer) pair in netlist order.
pub(crate) fn for_each_use(mc: &MappedCircuit, mut f: impl FnMut(&Edge, Consumer)) {
    for (id, cell) in mc.cells() {
        match cell {
            MappedCell::Input { .. } | MappedCell::Const0 => {}
            MappedCell::Gate { fanins, .. } => {
                for (slot, e) in (0..).zip(fanins) {
                    f(e, Consumer::GateInput { cell: id, slot });
                }
            }
            MappedCell::T1 { fanins } => {
                for (slot, e) in (0..).zip(fanins) {
                    f(e, Consumer::T1Input { cell: id, slot });
                }
            }
        }
    }
    for (index, e) in (0..).zip(mc.pos()) {
        if !matches!(mc.cell(e.cell), MappedCell::Const0) {
            f(e, Consumer::Output { index });
        }
    }
}

/// Inserts shared DFF chains for every driver of the scheduled netlist.
///
/// Each driver's consumers, chain members and taps are appended straight
/// to the plan's shared vectors, so the plan allocates a handful of
/// vectors whatever its driver count; the requirement list and the chain
/// builder's working buffers are reused across drivers. A driver with `u`
/// consumers adds `u − 1` splitters (see the
/// [module docs](self#splitter-count)).
pub fn insert_dffs(mc: &MappedCircuit, sched: &Schedule) -> DffPlan {
    let fanouts = Fanouts::new(mc);
    let n = sched.n as i64;
    let stage = |c: CellId| sched.stages[c.index()];
    let mut reqs: Vec<Requirement> = Vec::new();
    let mut scratch = ChainScratch::default();
    // Every use is one consumer with one tap.
    let mut plan = DffPlan {
        heads: Vec::with_capacity(fanouts.used_drivers()),
        taps: Vec::with_capacity(fanouts.consumers.len()),
        consumers: Vec::with_capacity(fanouts.consumers.len()),
        ..DffPlan::default()
    };
    for (cell, _) in mc.cells() {
        for port in 0..mc.num_ports(cell) as u8 {
            let uses = fanouts.of(cell, port);
            if uses.is_empty() {
                continue;
            }
            reqs.clear();
            for &c in uses {
                let r = c.requirement(sched, stage);
                reqs.push(r);
                plan.consumers.push((c, r));
            }
            let source_stage = stage(cell);
            let members_start = plan.members.len();
            append_chain(
                source_stage,
                &reqs,
                n,
                &mut scratch,
                &mut plan.members,
                &mut plan.taps,
            );
            plan.total_dffs += (plan.members.len() - members_start) as u64;
            plan.total_splitters += uses.len() as u64 - 1;
            plan.heads.push(DriverHead {
                source: (cell, port),
                source_stage,
                members_end: plan.members.len(),
                consumers_end: plan.consumers.len(),
            });
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
    // Assign taps.
    let member_vec: Vec<i64> = members.iter().copied().collect();
    let taps: Vec<i64> = reqs
        .iter()
        .map(|r| match *r {
            Requirement::Exact(tau) => tau,
            Requirement::Window(t) => members
                .range(..=t - 1)
                .next_back()
                .copied()
                .unwrap_or(source),
        })
        .collect();
    Chain {
        members: member_vec,
        taps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The splitters the chain `members` and `taps` of a driver at stage
    /// `source` need, tallied element by element: each element (driver or
    /// DFF) with fanout `f > 1` needs `f − 1`. The sort-based count the
    /// closed form `uses − 1` replaces, kept as its oracle.
    fn splitter_count(source: i64, members: &[i64], taps: &[i64]) -> u64 {
        // One entry per fanout branch, naming the element that drives it:
        // the taps, then the chain succession source → members[0] → ….
        let mut branches = taps.to_vec();
        if let Some((_, drivers)) = members.split_last() {
            branches.push(source);
            branches.extend_from_slice(drivers);
        }
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
                        splitter_count(source, &chain.members, &chain.taps),
                        reqs.len() as u64 - 1,
                        "source {} n {} reqs {:?}", source, n, reqs
                    );
                }
                let (members_start, taps_start) = (members.len(), taps.len());
                append_chain(source, &reqs, n, &mut scratch, &mut members, &mut taps);
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

    /// One driver of the per-driver [`insert_dffs`] oracle, owning its
    /// chain and consumers.
    struct OwnedDriver {
        source: (CellId, u8),
        source_stage: i64,
        chain: Chain,
        consumers: Vec<(Consumer, Requirement)>,
    }

    impl OwnedDriver {
        fn view(&self) -> DriverPlan<'_> {
            DriverPlan {
                source: self.source,
                source_stage: self.source_stage,
                members: &self.chain.members,
                taps: &self.chain.taps,
                consumers: &self.consumers,
            }
        }
    }

    /// The per-driver fresh-allocation [`insert_dffs`] oracle: consumers
    /// grouped by driver in a map, each chain built by the reference
    /// builder into vectors of its own and its splitters tallied element
    /// by element. Returns the drivers and the DFF and splitter totals.
    fn insert_dffs_reference(mc: &MappedCircuit, sched: &Schedule) -> (Vec<OwnedDriver>, u64, u64) {
        use std::collections::BTreeMap;
        let stage = |c: CellId| sched.stages[c.index()];
        let mut uses: BTreeMap<(CellId, u8), Vec<Consumer>> = BTreeMap::new();
        for_each_use(mc, |e, c| uses.entry((e.cell, e.port)).or_default().push(c));
        let (mut drivers, mut total_dffs, mut total_splitters) = (Vec::new(), 0, 0);
        for (source, consumers) in uses {
            let consumers: Vec<(Consumer, Requirement)> = consumers
                .into_iter()
                .map(|c| (c, c.requirement(sched, stage)))
                .collect();
            let reqs: Vec<Requirement> = consumers.iter().map(|&(_, r)| r).collect();
            let source_stage = stage(source.0);
            let chain = build_chain_reference(source_stage, &reqs, sched.n as i64);
            total_dffs += chain.dff_count() as u64;
            total_splitters += splitter_count(source_stage, &chain.members, &chain.taps);
            drivers.push(OwnedDriver {
                source,
                source_stage,
                chain,
                consumers,
            });
        }
        (drivers, total_dffs, total_splitters)
    }

    /// Whether the flat `plan` lists the oracle's drivers, view for view,
    /// with its totals.
    fn matches_reference(plan: &DffPlan, mc: &MappedCircuit, sched: &Schedule) -> bool {
        let (drivers, total_dffs, total_splitters) = insert_dffs_reference(mc, sched);
        plan.drivers().eq(drivers.iter().map(OwnedDriver::view))
            && (plan.total_dffs, plan.total_splitters) == (total_dffs, total_splitters)
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
        /// 1–6 phases, lists every driver and both totals exactly as the
        /// per-driver oracle builds them.
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
        assert_eq!(c.taps, vec![4]);
    }

    #[test]
    fn four_phase_reduces_dffs() {
        // Same span under n = 4: data survives 4 stages → 1 DFF.
        let c = build_chain(0, &[Requirement::Window(5)], 4);
        assert_eq!(c.members, vec![4]);
        assert_eq!(c.taps, vec![4]);
    }

    #[test]
    fn adjacent_consumer_needs_nothing() {
        let c = build_chain(3, &[Requirement::Window(4)], 1);
        assert!(c.members.is_empty());
        assert_eq!(c.taps, vec![3]);
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
        assert_eq!(c.taps, vec![2, 4, 8]);
    }

    #[test]
    fn window_taps_latest_feasible() {
        let c = build_chain(0, &[Requirement::Window(10), Requirement::Window(6)], 4);
        // Chain: 4, 8 (gap-filled by extension); consumer 6 taps 4, 10 taps 8.
        assert_eq!(c.members, vec![4, 8]);
        assert_eq!(c.taps, vec![8, 4]);
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
        assert_eq!(c.taps, vec![7, 6, 5]);
    }

    #[test]
    fn exact_at_source_taps_driver() {
        let c = build_chain(4, &[Requirement::Exact(4)], 4);
        assert!(c.members.is_empty());
        assert_eq!(c.taps, vec![4]);
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
        // Members 1..4; taps: 0 (direct) and 4.
        assert_eq!(c.taps, vec![0, 4]);
        // Source fanout: chain successor + direct tap = 2 → 1 splitter.
        // Member 4 is the last and taps one consumer → fanout 1 → 0.
        // Members 1..3 drive only successors → 0.
        assert_eq!(splitter_count(0, &c.members, &c.taps), 1);
    }

    #[test]
    fn consumer_entry_is_24_bytes() {
        assert_eq!(std::mem::size_of::<(Consumer, Requirement)>(), 24);
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
        assert_eq!(c.taps, vec![5, 6, 7, 11]);
    }
}
