//! The generic timing graph and its arrival/required/slack analysis.
//!
//! A [`TimingGraph`] is a DAG with integer edge delays, built in topological
//! order (every fanin precedes its consumer). Nodes without fanins are
//! *sources* (arrival 0); *sinks* are marked explicitly and carry the
//! deadline (the horizon). The same graph type backs both timing views of
//! the workspace: unit-delay AIG levels ([`crate::aig`]) and phase-granular
//! mapped schedules (`t1map::timing`).
//!
//! The analysis follows the classic ABC/STA recurrences:
//!
//! ```text
//! arrival(v)  = max over fanins  (arrival(u) + d(u→v))   (0 at sources)
//! required(v) = min over fanouts (required(w) − d(v→w))  (horizon at sinks)
//! slack(v)    = required(v) − arrival(v)
//! ```
//!
//! Nodes that cannot reach any sink are unconstrained: their required time
//! is `i64::MAX` and their slack saturates (they can never violate a sink
//! deadline).
//!
//! # Incremental recompute
//!
//! [`TimingAnalysis::refresh`] re-runs the recurrences only over the cone
//! affected by a set of *dirty* nodes (nodes whose fanin delays or arrival
//! floors changed): arrivals propagate forward through fanouts while they
//! keep changing, required times propagate backward through fanins, and an
//! untouched region is never revisited. A localized edit — the rewrite-site
//! case — therefore costs time proportional to the affected cone, not the
//! network.

/// A DAG with integer edge delays, built bottom-up in topological order.
#[derive(Debug, Clone, Default)]
pub struct TimingGraph {
    /// `fanins[v]` = `(u, delay)` pairs with `u < v`.
    fanins: Vec<Vec<(u32, i64)>>,
    /// Reverse edges, maintained on construction.
    fanouts: Vec<Vec<u32>>,
    /// Explicitly marked timing endpoints.
    sinks: Vec<u32>,
    is_sink: Vec<bool>,
    /// Per-node arrival floor (`i64::MIN` = none): the arrival is the max
    /// of the fanin-derived value and the floor. Used to model a pending
    /// local edit (e.g. an accepted rewrite site whose cone will deepen)
    /// without rebuilding the graph.
    floors: Vec<i64>,
}

impl TimingGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.fanins.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.fanins.is_empty()
    }

    /// Adds a node with the given `(fanin, delay)` edges and returns its
    /// index. A node without fanins is a source.
    ///
    /// # Panics
    ///
    /// Panics if any fanin index is not smaller than the new node's index
    /// (topological-order violation).
    pub fn add_node(&mut self, fanins: &[(usize, i64)]) -> usize {
        let id = self.fanins.len();
        for &(u, _) in fanins {
            assert!(u < id, "fanin {u} of node {id} violates topological order");
            self.fanouts[u].push(id as u32);
        }
        self.fanins
            .push(fanins.iter().map(|&(u, d)| (u as u32, d)).collect());
        self.fanouts.push(Vec::new());
        self.is_sink.push(false);
        self.floors.push(i64::MIN);
        id
    }

    /// Marks `node` as a timing endpoint (deadline carrier).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn mark_sink(&mut self, node: usize) {
        if !self.is_sink[node] {
            self.is_sink[node] = true;
            self.sinks.push(node as u32);
        }
    }

    /// The `(fanin, delay)` edges of `node`.
    pub fn fanins(&self, node: usize) -> impl Iterator<Item = (usize, i64)> + '_ {
        self.fanins[node].iter().map(|&(u, d)| (u as usize, d))
    }

    /// The consumers of `node`.
    pub fn fanouts(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        self.fanouts[node].iter().map(|&w| w as usize)
    }

    /// Whether `node` is a marked sink.
    pub fn is_sink(&self, node: usize) -> bool {
        self.is_sink[node]
    }

    /// The marked sinks.
    pub fn sinks(&self) -> impl Iterator<Item = usize> + '_ {
        self.sinks.iter().map(|&s| s as usize)
    }

    /// Changes the delay of fanin edge `slot` of `node`. The caller must
    /// pass `node` to the next [`TimingAnalysis::refresh`] (or re-run
    /// [`TimingAnalysis::analyze`]) for the analysis to see the edit.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `slot` is out of range.
    pub fn set_fanin_delay(&mut self, node: usize, slot: usize, delay: i64) {
        self.fanins[node][slot].1 = delay;
    }

    /// Sets the arrival floor of `node` (`i64::MIN` clears it). As with
    /// delay edits, the caller must hand `node` to the next refresh.
    pub fn set_floor(&mut self, node: usize, floor: i64) {
        self.floors[node] = floor;
    }

    fn arrival_of(&self, node: usize, arrival: &[i64]) -> i64 {
        let from_fanins = self.fanins[node]
            .iter()
            .map(|&(u, d)| arrival[u as usize] + d)
            .max()
            .unwrap_or(0);
        from_fanins.max(self.floors[node])
    }

    fn required_of(&self, node: usize, required: &[i64], horizon: i64) -> i64 {
        let mut req = if self.is_sink[node] {
            horizon
        } else {
            i64::MAX
        };
        for &w in &self.fanouts[node] {
            let w = w as usize;
            if required[w] == i64::MAX {
                continue; // unconstrained consumer
            }
            let d = self.fanins[w]
                .iter()
                .filter(|&&(u, _)| u as usize == node)
                .map(|&(_, d)| d)
                .max()
                .expect("fanout edge exists");
            req = req.min(required[w] - d);
        }
        req
    }
}

/// Arrival/required times of one analysis run over a [`TimingGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingAnalysis {
    /// Arrival time per node.
    pub arrival: Vec<i64>,
    /// Required time per node (`i64::MAX` = unconstrained: the node cannot
    /// reach any sink).
    pub required: Vec<i64>,
    /// The sink deadline the required times were computed against.
    pub horizon: i64,
    /// Whether the horizon tracks the worst sink arrival (`analyze`) or was
    /// pinned by the caller (`analyze_with_horizon`).
    fixed_horizon: bool,
}

impl TimingAnalysis {
    /// Full analysis with the horizon set to the worst sink arrival (so at
    /// least one sink is tight and the worst slack over sinks is exactly 0).
    pub fn analyze(graph: &TimingGraph) -> Self {
        Self::run(graph, None)
    }

    /// Full analysis against a caller-pinned deadline.
    pub fn analyze_with_horizon(graph: &TimingGraph, horizon: i64) -> Self {
        Self::run(graph, Some(horizon))
    }

    fn run(graph: &TimingGraph, horizon: Option<i64>) -> Self {
        let _span = sfq_obs::span("sta:build");
        let n = graph.len();
        let mut arrival = vec![0i64; n];
        for v in 0..n {
            arrival[v] = graph.arrival_of(v, &arrival);
        }
        let fixed_horizon = horizon.is_some();
        let horizon =
            horizon.unwrap_or_else(|| graph.sinks().map(|s| arrival[s]).max().unwrap_or(0));
        let mut required = vec![i64::MAX; n];
        for v in (0..n).rev() {
            required[v] = graph.required_of(v, &required, horizon);
        }
        TimingAnalysis {
            arrival,
            required,
            horizon,
            fixed_horizon,
        }
    }

    /// Slack of `node`, saturating for unconstrained nodes.
    pub fn slack(&self, node: usize) -> i64 {
        self.required[node].saturating_sub(self.arrival[node])
    }

    /// Whether `node` lies on a tight path to a sink.
    pub fn is_critical(&self, node: usize) -> bool {
        self.slack(node) == 0
    }

    /// Re-runs the analysis over the cone affected by `dirty` — nodes whose
    /// fanin delays or arrival floors changed since the last run. Arrivals
    /// propagate forward only while they change; required times propagate
    /// backward the same way. When the refresh moves an auto-tracked
    /// horizon, the backward pass falls back to a full recompute (the
    /// deadline shift touches every constrained node by definition).
    pub fn refresh(&mut self, graph: &TimingGraph, dirty: &[usize]) {
        use std::collections::BTreeSet;
        let _span = sfq_obs::span("sta:refresh");
        // Forward: arrivals.
        let mut work: BTreeSet<usize> = dirty.iter().copied().collect();
        while let Some(v) = work.pop_first() {
            let a = graph.arrival_of(v, &self.arrival);
            if a != self.arrival[v] {
                self.arrival[v] = a;
                work.extend(graph.fanouts(v));
            }
        }
        // Horizon: tracked horizons follow the worst sink arrival.
        if !self.fixed_horizon {
            let new_horizon = graph.sinks().map(|s| self.arrival[s]).max().unwrap_or(0);
            if new_horizon != self.horizon {
                self.horizon = new_horizon;
                for v in (0..graph.len()).rev() {
                    self.required[v] = graph.required_of(v, &self.required, self.horizon);
                }
                return;
            }
        }
        // Backward: required times. A delay edit at node v changes the
        // required times of v's *fanins*, so seed with those; propagation
        // handles the rest.
        let mut work: BTreeSet<usize> = BTreeSet::new();
        for &v in dirty {
            work.insert(v);
            work.extend(graph.fanins(v).map(|(u, _)| u));
        }
        while let Some(v) = work.pop_last() {
            let r = graph.required_of(v, &self.required, self.horizon);
            if r != self.required[v] {
                self.required[v] = r;
                work.extend(graph.fanins(v).map(|(u, _)| u));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// a → b → d(sink), a → c → d: unequal delays make one branch slack.
    fn diamond() -> TimingGraph {
        let mut g = TimingGraph::new();
        let a = g.add_node(&[]);
        let b = g.add_node(&[(a, 1)]);
        let c = g.add_node(&[(a, 3)]);
        let d = g.add_node(&[(b, 1), (c, 1)]);
        g.mark_sink(d);
        g
    }

    #[test]
    fn diamond_arrivals_and_slacks() {
        let g = diamond();
        let t = TimingAnalysis::analyze(&g);
        assert_eq!(t.arrival, vec![0, 1, 3, 4]);
        assert_eq!(t.horizon, 4);
        assert_eq!(t.required, vec![0, 3, 3, 4]);
        assert_eq!(t.slack(0), 0);
        assert_eq!(t.slack(1), 2, "short branch has slack");
        assert_eq!(t.slack(2), 0, "long branch is critical");
        assert!(t.is_critical(3));
    }

    #[test]
    fn unreachable_nodes_are_unconstrained() {
        let mut g = diamond();
        let dangling = g.add_node(&[(0, 10)]);
        let t = TimingAnalysis::analyze(&g);
        assert_eq!(t.required[dangling], i64::MAX);
        assert_eq!(t.slack(dangling), i64::MAX - 10, "saturating slack");
        // The dangling fanout does not drag node 0's required time down.
        assert_eq!(t.required[0], 0);
    }

    #[test]
    fn pinned_horizon_adds_uniform_slack() {
        let g = diamond();
        let t = TimingAnalysis::analyze_with_horizon(&g, 6);
        assert_eq!(t.slack(3), 2);
        assert_eq!(t.slack(2), 2);
        assert_eq!(t.slack(1), 4);
    }

    #[test]
    fn refresh_matches_scratch_after_delay_edit() {
        let mut g = diamond();
        let mut t = TimingAnalysis::analyze(&g);
        // Lengthen the short branch: b→d edge now dominates.
        g.set_fanin_delay(1, 0, 5); // a→b delay 1 → 5
        t.refresh(&g, &[1]);
        assert_eq!(t, TimingAnalysis::analyze(&g));
        assert_eq!(t.arrival[3], 6);
        assert_eq!(t.slack(1), 0);
        assert_eq!(t.slack(2), 2, "roles swapped");
    }

    #[test]
    fn refresh_handles_floors() {
        let mut g = diamond();
        let mut t = TimingAnalysis::analyze_with_horizon(&g, 4);
        g.set_floor(1, 3); // pretend b is about to deepen to level 3
        t.refresh(&g, &[1]);
        assert_eq!(t, TimingAnalysis::analyze_with_horizon(&g, 4));
        assert_eq!(t.arrival[1], 3);
        assert_eq!(t.arrival[3], 4, "still within the pinned horizon");
        assert_eq!(t.slack(1), 0);
        // Clearing the floor restores the original analysis.
        g.set_floor(1, i64::MIN);
        t.refresh(&g, &[1]);
        assert_eq!(t, TimingAnalysis::analyze_with_horizon(&g, 4));
    }

    #[test]
    fn refresh_tracks_auto_horizon() {
        let mut g = diamond();
        let mut t = TimingAnalysis::analyze(&g);
        g.set_fanin_delay(2, 0, 7); // a→c delay 3 → 7
        t.refresh(&g, &[2]);
        assert_eq!(t, TimingAnalysis::analyze(&g));
        assert_eq!(t.horizon, 8);
    }
}
