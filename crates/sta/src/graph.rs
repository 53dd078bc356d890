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
//! [`TimingAnalysis::refresh`] re-runs the arrival recurrence only over
//! the cone affected by a set of *dirty* nodes (nodes whose arrival floors
//! changed): arrivals propagate forward through fanouts while they keep
//! changing, and an untouched region is never revisited. Required times
//! need no refresh: delays are fixed when the graph is built and the
//! horizon is pinned, and floors enter only the arrivals. A localized edit
//! — the rewrite-site case — therefore costs time proportional to its
//! fanout cone, not the network.

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

    /// Sets the arrival floor of `node` (`i64::MIN` clears it). The caller
    /// must pass `node` to the next [`TimingAnalysis::refresh`] for the
    /// analysis to see the edit.
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
    /// The sink deadline the required times were computed against, pinned
    /// by the caller.
    pub horizon: i64,
}

impl TimingAnalysis {
    /// Full analysis against the caller's sink deadline `horizon`. The
    /// horizon stays pinned: a later [`TimingAnalysis::refresh`] that moves
    /// a sink past it shows up as negative slack.
    pub fn analyze_with_horizon(graph: &TimingGraph, horizon: i64) -> Self {
        let _span = sfq_obs::span("sta:build");
        let n = graph.len();
        let mut arrival = vec![0i64; n];
        for v in 0..n {
            arrival[v] = graph.arrival_of(v, &arrival);
        }
        let mut required = vec![i64::MAX; n];
        for v in (0..n).rev() {
            required[v] = graph.required_of(v, &required, horizon);
        }
        TimingAnalysis {
            arrival,
            required,
            horizon,
        }
    }

    /// Slack of `node`, saturating for unconstrained nodes.
    pub fn slack(&self, node: usize) -> i64 {
        self.required[node].saturating_sub(self.arrival[node])
    }

    /// Re-runs the analysis over the cone affected by `dirty` — nodes whose
    /// arrival floors changed since the last run. Arrivals propagate
    /// forward only while they change. Required times are left alone: they
    /// read only the edge delays, the sinks and the pinned horizon, none of
    /// which a floor edit touches.
    pub fn refresh(&mut self, graph: &TimingGraph, dirty: &[usize]) {
        use std::collections::BTreeSet;
        let _span = sfq_obs::span("sta:refresh");
        let mut work: BTreeSet<usize> = dirty.iter().copied().collect();
        while let Some(v) = work.pop_first() {
            let a = graph.arrival_of(v, &self.arrival);
            if a != self.arrival[v] {
                self.arrival[v] = a;
                work.extend(graph.fanouts(v));
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
        let t = TimingAnalysis::analyze_with_horizon(&g, 4);
        assert_eq!(t.arrival, vec![0, 1, 3, 4]);
        assert_eq!(t.horizon, 4);
        assert_eq!(t.required, vec![0, 3, 3, 4]);
        assert_eq!(t.slack(0), 0);
        assert_eq!(t.slack(1), 2, "short branch has slack");
        assert_eq!(t.slack(2), 0, "long branch is critical");
        assert_eq!(t.slack(3), 0);
    }

    #[test]
    fn unreachable_nodes_are_unconstrained() {
        let mut g = diamond();
        let dangling = g.add_node(&[(0, 10)]);
        let t = TimingAnalysis::analyze_with_horizon(&g, 4);
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
    fn refresh_keeps_the_horizon_past_a_floor() {
        let mut g = diamond();
        let mut t = TimingAnalysis::analyze_with_horizon(&g, 4);
        g.set_floor(1, 5); // b deepens past what the deadline allows
        t.refresh(&g, &[1]);
        assert_eq!(t, TimingAnalysis::analyze_with_horizon(&g, 4));
        assert_eq!(t.arrival[3], 6);
        assert_eq!(t.horizon, 4, "the deadline does not follow the sink");
        assert_eq!(t.slack(3), -2, "the overrun reads as negative slack");
    }
}
