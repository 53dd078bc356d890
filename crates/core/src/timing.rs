//! Phase-granular timing of a mapped, scheduled netlist.
//!
//! Bridges a [`MappedCircuit`] + [`Schedule`] pair onto `sfq-sta`'s generic
//! [`TimingGraph`]: every fanin edge of an ordinary gate carries delay 1
//! (the consumer must be clocked at least one stage later), every T1
//! operand carries its frozen delivery offset (eq. 3), and PO drivers are
//! the sinks with the schedule horizon as deadline.
//!
//! Slack here is measured **in clock phases** and is taken against the
//! *actual* schedule, not just the ASAP lower bound:
//!
//! ```text
//! slack(c) = required(c) − σ(c)
//! ```
//!
//! where `required` is the ALAP stage under the horizon. A valid schedule
//! always has non-negative slack everywhere, and a zero-slack cell cannot
//! be clocked any later without missing a deadline downstream. Because a
//! DFF chain spanning `k` stages under `n`-phase clocking costs about
//! `⌈k/n⌉` DFFs per edge (`edge_dff_objective`-style accounting), per-cell
//! slack converts directly into the DFF headroom retiming can still
//! harvest: the schedule's total per-edge DFF cost is part of the summary.

use crate::dff::DffPlan;
use crate::mapped::{MappedCell, MappedCircuit};
use crate::phase::{edge_dff_objective, Schedule};
pub use sfq_sta::TimingConfig;
use sfq_sta::{top_paths_bounded, TimingAnalysis, TimingGraph, TimingPath};

/// The timing view of one scheduled netlist.
#[derive(Debug, Clone)]
pub struct MappedTiming {
    graph: TimingGraph,
    analysis: TimingAnalysis,
}

/// Builds the phase-granular timing graph of a scheduled netlist.
///
/// # Panics
///
/// Panics if `sched` does not belong to `mc` (missing T1 offsets).
pub fn timing_graph(mc: &MappedCircuit, sched: &Schedule) -> TimingGraph {
    let mut graph = TimingGraph::new();
    for (id, cell) in mc.cells() {
        match cell {
            MappedCell::Input { .. } | MappedCell::Const0 => {
                graph.add_node(&[]);
            }
            MappedCell::Gate { fanins, .. } => {
                let edges: Vec<(usize, i64)> = fanins.iter().map(|e| (e.cell.index(), 1)).collect();
                graph.add_node(&edges);
            }
            MappedCell::T1 { fanins } => {
                let offsets = sched.t1_offsets[id.index()].expect("T1 cell has offsets");
                let edges: Vec<(usize, i64)> = fanins
                    .iter()
                    .zip(offsets)
                    .map(|(e, o)| (e.cell.index(), o))
                    .collect();
                graph.add_node(&edges);
            }
        }
    }
    for e in mc.pos() {
        if !matches!(mc.cell(e.cell), MappedCell::Const0) {
            graph.mark_sink(e.cell.index());
        }
    }
    graph
}

/// Analyzes the scheduled netlist against its horizon.
pub fn analyze_mapped(mc: &MappedCircuit, sched: &Schedule) -> MappedTiming {
    let graph = timing_graph(mc, sched);
    let analysis = TimingAnalysis::analyze_with_horizon(&graph, sched.horizon);
    MappedTiming { graph, analysis }
}

impl MappedTiming {
    /// Earliest feasible stage of `cell` (the ASAP bound).
    pub fn earliest(&self, cell: crate::mapped::CellId) -> i64 {
        self.analysis.arrival[cell.index()]
    }

    /// Latest feasible stage of `cell` under the horizon (`i64::MAX` for
    /// cells that reach no output).
    pub fn latest(&self, cell: crate::mapped::CellId) -> i64 {
        self.analysis.required[cell.index()]
    }

    /// Slack of `cell` in clock phases against the actual schedule:
    /// `latest − σ(cell)`. Non-negative for every valid schedule.
    pub fn schedule_slack(&self, sched: &Schedule, cell: crate::mapped::CellId) -> i64 {
        self.latest(cell).saturating_sub(sched.stages[cell.index()])
    }

    /// The `k` structurally longest PI→PO paths (stage-weighted), and
    /// whether the search budget expired before `k` paths were found.
    pub fn critical_paths_bounded(&self, k: usize) -> (Vec<TimingPath>, bool) {
        top_paths_bounded(&self.graph, &self.analysis, k)
    }

    /// Condenses the analysis into the flow-level [`TimingSummary`].
    /// `plan` is the schedule's DFF-insertion plan — passed in rather than
    /// recomputed, since every caller (the flow, the CLI) already has one.
    pub fn summary(&self, mc: &MappedCircuit, sched: &Schedule, plan: &DffPlan) -> TimingSummary {
        let mut scheduled_cells = 0usize;
        let mut zero_slack_cells = 0usize;
        let mut worst_slack = i64::MAX;
        let mut total_slack = 0i64;
        for (id, cell) in mc.cells() {
            if matches!(cell, MappedCell::Input { .. } | MappedCell::Const0) {
                continue;
            }
            let lat = self.latest(id);
            if lat == i64::MAX {
                continue; // dead cell: no deadline
            }
            let s = lat - sched.stages[id.index()];
            scheduled_cells += 1;
            worst_slack = worst_slack.min(s);
            total_slack += s;
            if s == 0 {
                zero_slack_cells += 1;
            }
        }
        TimingSummary {
            horizon: sched.horizon,
            phases: sched.n,
            scheduled_cells,
            zero_slack_cells,
            worst_slack: if scheduled_cells == 0 { 0 } else { worst_slack },
            total_slack,
            edge_dffs: edge_dff_objective(mc, sched),
            chained_dffs: plan.total_dffs,
        }
    }
}

/// Flow-level timing numbers (attached to `FlowResult` when the
/// [`TimingConfig`] stage is enabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingSummary {
    /// Schedule horizon in stages.
    pub horizon: i64,
    /// Clock phases `n`.
    pub phases: u32,
    /// Clocked cells with a deadline (inputs/constants/dead cells excluded).
    pub scheduled_cells: usize,
    /// Cells that cannot be clocked any later.
    pub zero_slack_cells: usize,
    /// Minimum schedule slack in phases.
    pub worst_slack: i64,
    /// Sum of schedule slack over all scheduled cells — the total phase
    /// headroom still available to retiming.
    pub total_slack: i64,
    /// The per-edge DFF objective of §II-B at this schedule (no fanout
    /// sharing) — the edge-wise conversion of stage gaps into DFF cost.
    pub edge_dffs: u64,
    /// Realized DFF count with fanout-shared chains.
    pub chained_dffs: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CellLibrary;
    use crate::flow::{run_flow, FlowConfig};
    use crate::phase::assign_phases;
    use sfq_circuits::epfl::adder;

    #[test]
    fn valid_schedules_have_nonnegative_slack() {
        let lib = CellLibrary::default();
        let aig = adder(8);
        for cfg in [
            FlowConfig::single_phase(),
            FlowConfig::multiphase(4),
            FlowConfig::t1(4),
        ] {
            let res = run_flow(&aig, &lib, &cfg);
            let timing = analyze_mapped(&res.mapped, &res.schedule);
            let mut tight = 0usize;
            for (id, cell) in res.mapped.cells() {
                if matches!(cell, MappedCell::Input { .. } | MappedCell::Const0) {
                    continue;
                }
                let s = timing.schedule_slack(&res.schedule, id);
                assert!(s >= 0, "cell {} has negative slack {s}", id.0);
                if s == 0 {
                    tight += 1;
                }
            }
            assert!(tight > 0, "some cell must be at its deadline");
        }
    }

    #[test]
    fn arrival_matches_asap_and_paths_span_the_horizon() {
        let lib = CellLibrary::default();
        let aig = adder(6);
        let res = run_flow(&aig, &lib, &FlowConfig::t1(4));
        let timing = analyze_mapped(&res.mapped, &res.schedule);
        // ASAP arrival is a lower bound on every scheduled stage.
        for (id, cell) in res.mapped.cells() {
            if matches!(cell, MappedCell::Input { .. } | MappedCell::Const0) {
                continue;
            }
            assert!(timing.earliest(id) <= res.schedule.stages[id.index()]);
        }
        let (paths, truncated) = timing.critical_paths_bounded(2);
        assert!(!paths.is_empty() && !truncated);
        assert_eq!(paths[0].length, res.schedule.horizon, "ASAP top path");
        assert_eq!(paths[0].slack, 0);
    }

    #[test]
    fn summary_is_consistent() {
        let lib = CellLibrary::default();
        let aig = adder(6);
        let res = run_flow(&aig, &lib, &FlowConfig::t1(4));
        let timing = analyze_mapped(&res.mapped, &res.schedule);
        let s = timing.summary(&res.mapped, &res.schedule, &res.plan);
        assert_eq!(s.horizon, res.schedule.horizon);
        assert_eq!(s.phases, 4);
        assert!(s.zero_slack_cells > 0);
        assert!(s.zero_slack_cells <= s.scheduled_cells);
        assert_eq!(s.worst_slack, 0, "a tight cell exists");
        assert!(s.total_slack >= 0);
        assert_eq!(s.chained_dffs, res.plan.total_dffs);
        assert_eq!(s.edge_dffs, edge_dff_objective(&res.mapped, &res.schedule));
    }

    #[test]
    fn deeper_schedules_expose_more_slack_at_more_phases() {
        // With more phases the ASAP window widens relative to deadlines,
        // so aggregate slack cannot shrink when n grows on the same map.
        let lib = CellLibrary::default();
        let aig = adder(8);
        let mc = crate::mapper::map(&aig, &lib, None).circuit;
        let s2 = assign_phases(&mc, 2, 0);
        let plan = crate::dff::insert_dffs(&mc, &s2);
        let t2 = analyze_mapped(&mc, &s2).summary(&mc, &s2, &plan);
        assert!(t2.scheduled_cells > 0);
        assert_eq!(t2.worst_slack, 0);
    }
}
