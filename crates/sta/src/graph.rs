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
//! # Storage
//!
//! The fanins are one compressed sparse row: a vector of `(fanin, delay)`
//! edges, node after node, and one end offset per node. Building a graph
//! therefore allocates a fixed number of vectors, not one per node. The
//! required recurrence runs over the same fanins, as a reverse scatter:
//! nodes are visited from last to first, a node's required time is final
//! when it is reached (its consumers all come later), and it lowers each
//! fanin `u` to `required(v) − d(u→v)`. Parallel edges thus charge their
//! largest delay, exactly as the min over fanouts does.
//!
//! The fanouts, which only [`TimingAnalysis::refresh`] and path
//! enumeration read, are a second compressed sparse row built on first
//! use and dropped by [`TimingGraph::add_node`]. They list each node's
//! consumers ascending, a consumer repeated once per parallel edge, so
//! the repeats are adjacent.
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

use std::sync::OnceLock;

/// A DAG with integer edge delays, built bottom-up in topological order.
///
/// Fanins are stored in compressed sparse row form: `fanin_end[v]` is
/// where node `v`'s `(fanin, delay)` edges end in `fanin_edges`, and they
/// start where node `v − 1`'s end. The fanouts are the same edges
/// reversed, built into a second CSR on first use.
#[derive(Debug, Clone, Default)]
pub struct TimingGraph {
    /// End of each node's fanins in `fanin_edges`.
    fanin_end: Vec<u32>,
    /// `(u, delay)` fanin edges with `u < v`, node after node.
    fanin_edges: Vec<(u32, i64)>,
    /// Reverse edges, built on first use and dropped by [`Self::add_node`].
    fanouts: OnceLock<Fanouts>,
    /// Explicitly marked timing endpoints.
    sinks: Vec<u32>,
    is_sink: Vec<bool>,
    /// Per-node arrival floor (`i64::MIN` = none): the arrival is the max
    /// of the fanin-derived value and the floor. Used to model a pending
    /// local edit (e.g. an accepted rewrite site whose cone will deepen)
    /// without rebuilding the graph.
    floors: Vec<i64>,
}

/// The consumers of every node in compressed sparse row form: those of
/// node `u` are `consumers[start[u]..start[u + 1]]`, ascending, a
/// consumer repeated once per parallel edge.
#[derive(Debug, Clone)]
struct Fanouts {
    start: Vec<u32>,
    consumers: Vec<u32>,
}

impl Fanouts {
    fn new(graph: &TimingGraph) -> Self {
        let mut start = vec![0u32; graph.len() + 1];
        for &(u, _) in &graph.fanin_edges {
            start[u as usize + 1] += 1;
        }
        for u in 1..start.len() {
            start[u] += start[u - 1];
        }
        let mut next = start.clone();
        let mut consumers = vec![0u32; graph.fanin_edges.len()];
        // Visiting consumers in ascending order lists each node's
        // consumers ascending, parallel edges adjacent.
        for v in 0..graph.len() {
            for &(u, _) in graph.fanin_slice(v) {
                consumers[next[u as usize] as usize] = v as u32;
                next[u as usize] += 1;
            }
        }
        Fanouts { start, consumers }
    }
}

impl TimingGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with room for `nodes` nodes and `edges`
    /// fanin edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        TimingGraph {
            fanin_end: Vec::with_capacity(nodes),
            fanin_edges: Vec::with_capacity(edges),
            is_sink: Vec::with_capacity(nodes),
            floors: Vec::with_capacity(nodes),
            ..Self::default()
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.fanin_end.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.fanin_end.is_empty()
    }

    /// Adds a node with the given `(fanin, delay)` edges and returns its
    /// index. A node without fanins is a source.
    ///
    /// # Panics
    ///
    /// Panics if any fanin index is not smaller than the new node's index
    /// (topological-order violation), or if the graph outgrows `u32`
    /// node or edge indices.
    pub fn add_node(&mut self, fanins: &[(usize, i64)]) -> usize {
        let id = self.len();
        for &(u, d) in fanins {
            assert!(u < id, "fanin {u} of node {id} violates topological order");
            self.fanin_edges.push((u as u32, d));
        }
        let end = u32::try_from(self.fanin_edges.len()).expect("timing graph edges fit u32");
        self.fanin_end.push(end);
        self.fanouts.take();
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

    fn fanin_slice(&self, node: usize) -> &[(u32, i64)] {
        let start = match node {
            0 => 0,
            _ => self.fanin_end[node - 1] as usize,
        };
        &self.fanin_edges[start..self.fanin_end[node] as usize]
    }

    /// The `(fanin, delay)` edges of `node`.
    pub fn fanins(&self, node: usize) -> impl Iterator<Item = (usize, i64)> + '_ {
        self.fanin_slice(node).iter().map(|&(u, d)| (u as usize, d))
    }

    /// The consumers of `node`, ascending, a consumer repeated once per
    /// parallel edge. The first call after [`Self::add_node`] builds the
    /// reverse edges of the whole graph.
    pub fn fanouts(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        let f = self.fanouts.get_or_init(|| Fanouts::new(self));
        f.consumers[f.start[node] as usize..f.start[node + 1] as usize]
            .iter()
            .map(|&w| w as usize)
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
        let from_fanins = self
            .fanin_slice(node)
            .iter()
            .map(|&(u, d)| arrival[u as usize] + d)
            .max()
            .unwrap_or(0);
        from_fanins.max(self.floors[node])
    }

    /// Required times against `horizon`, by one reverse scatter: a node's
    /// required time is final once every consumer (a later node) has been
    /// visited, and it then tightens each fanin's by the edge delay.
    fn required_times(&self, horizon: i64) -> Vec<i64> {
        let mut required = vec![i64::MAX; self.len()];
        for &s in &self.sinks {
            required[s as usize] = horizon;
        }
        for v in (0..self.len()).rev() {
            let r = required[v];
            if r == i64::MAX {
                continue; // unconstrained: reaches no sink
            }
            for &(u, d) in self.fanin_slice(v) {
                let u = u as usize;
                required[u] = required[u].min(r - d);
            }
        }
        required
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
        TimingAnalysis {
            arrival,
            required: graph.required_times(horizon),
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
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The fanout-scan required recurrence the reverse scatter replaces,
    /// kept as its oracle: `required(v)` is the min over `v`'s fanouts `w`
    /// of `required(w)` less the largest delay of the edges `v → w`.
    fn required_reference(g: &TimingGraph, horizon: i64) -> Vec<i64> {
        let mut required = vec![i64::MAX; g.len()];
        for v in (0..g.len()).rev() {
            let mut req = if g.is_sink(v) { horizon } else { i64::MAX };
            for w in g.fanouts(v) {
                if required[w] == i64::MAX {
                    continue; // unconstrained consumer
                }
                let d = g
                    .fanins(w)
                    .filter(|&(u, _)| u == v)
                    .map(|(_, d)| d)
                    .max()
                    .expect("fanout edge exists");
                req = req.min(required[w] - d);
            }
            required[v] = req;
        }
        required
    }

    /// The per-node fanout lists the graph kept before its fanouts became
    /// a compressed sparse row: consumers pushed in node order.
    fn fanout_lists_reference(g: &TimingGraph) -> Vec<Vec<usize>> {
        let mut lists = vec![Vec::new(); g.len()];
        for v in 0..g.len() {
            for (u, _) in g.fanins(v) {
                lists[u].push(v);
            }
        }
        lists
    }

    /// A random DAG: node `v` takes each raw fanin `(r, d)` as an edge
    /// from `r mod v` with delay `d` (node 0 has none), and `dup` repeats
    /// its first edge with one more delay, so parallel edges are common.
    /// Each raw sink names `r mod n`; nodes that reach none stay
    /// unconstrained.
    pub(crate) fn random_graph(nodes: &[(Vec<(u32, i64)>, bool)], sinks: &[u32]) -> TimingGraph {
        let mut g = TimingGraph::default();
        for (v, (raw, dup)) in nodes.iter().enumerate() {
            let mut fanins: Vec<(usize, i64)> = if v == 0 {
                Vec::new()
            } else {
                raw.iter().map(|&(r, d)| (r as usize % v, d)).collect()
            };
            if let (true, Some(&(u, d))) = (*dup, fanins.first()) {
                fanins.push((u, d + 1));
            }
            g.add_node(&fanins);
        }
        for &s in sinks {
            g.mark_sink(s as usize % nodes.len());
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// On random DAGs with parallel edges, unreachable nodes and
        /// several sinks, the scatter required times equal the fanout-scan
        /// recurrence, and the fanouts list each node's consumers
        /// ascending with parallel-edge repeats adjacent, as the per-node
        /// lists did.
        #[test]
        fn scatter_required_matches_fanout_scan(
            nodes in prop::collection::vec(
                (prop::collection::vec((any::<u32>(), 0i64..5), 0..4), any::<bool>()),
                1..40,
            ),
            sinks in prop::collection::vec(any::<u32>(), 0..5),
            horizon in -3i64..30,
        ) {
            let g = random_graph(&nodes, &sinks);
            let t = TimingAnalysis::analyze_with_horizon(&g, horizon);
            prop_assert_eq!(&t.required, &required_reference(&g, horizon));
            for (u, list) in fanout_lists_reference(&g).iter().enumerate() {
                let fanouts: Vec<usize> = g.fanouts(u).collect();
                prop_assert_eq!(&fanouts, list, "fanouts of {}", u);
                prop_assert!(fanouts.windows(2).all(|w| w[0] <= w[1]));
            }
        }
    }

    #[test]
    fn default_graph_grows_after_fanouts_are_read() {
        let mut g = TimingGraph::default();
        assert!(g.is_empty());
        let a = g.add_node(&[]);
        let b = g.add_node(&[(a, 2), (a, 1)]);
        assert_eq!(g.fanouts(a).collect::<Vec<_>>(), vec![b, b]);
        // Growing the graph after the fanouts were built rebuilds them.
        let c = g.add_node(&[(b, 1), (a, 4)]);
        g.mark_sink(c);
        assert_eq!(g.len(), 3);
        assert_eq!(g.fanouts(a).collect::<Vec<_>>(), vec![b, b, c]);
        assert_eq!(g.fanouts(b).collect::<Vec<_>>(), vec![c]);
        assert_eq!(g.fanouts(c).count(), 0);
        assert_eq!(g.fanins(c).collect::<Vec<_>>(), vec![(b, 1), (a, 4)]);
        let t = TimingAnalysis::analyze_with_horizon(&g, 4);
        assert_eq!(t.arrival, vec![0, 2, 4]);
        assert_eq!(t.required, vec![0, 3, 4]);
        assert_eq!(t.required, required_reference(&g, 4));
    }

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
