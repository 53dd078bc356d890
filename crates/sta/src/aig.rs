//! Unit-delay timing over an [`Aig`]: arrivals are logic levels, the
//! horizon is the network depth, and per-node slack is the headroom a
//! rewrite site may consume without deepening the network.
//!
//! [`AigSta`] is the view `sfq-opt`'s slack-aware rewriting runs on: each
//! `rewrite-slack`/`rewrite-dff` invocation builds one and updates it
//! incrementally as sites are accepted ([`AigSta::raise_arrival`] floors
//! the site root at its estimated post-rewrite level and re-propagates
//! only the affected cone).
//!
//! # Examples
//!
//! ```
//! use sfq_netlist::aig::Aig;
//! use sfq_sta::aig::AigSta;
//!
//! let mut aig = Aig::new();
//! let a = aig.add_pi();
//! let b = aig.add_pi();
//! let c = aig.add_pi();
//! let ab = aig.and(a, b);
//! let deep = aig.xor3(a, b, c); // level 4 cone
//! let top = aig.and(ab, deep);
//! aig.add_po(top);
//!
//! let sta = AigSta::new(&aig);
//! assert_eq!(sta.horizon(), aig.depth() as i64);
//! // The shallow AND can slip 3 levels before it would deepen the output.
//! assert_eq!(sta.slack(ab.node()), 3);
//! assert_eq!(sta.slack(deep.node()), 0, "the xor cone is critical");
//! ```

use crate::graph::{TimingAnalysis, TimingGraph};
use sfq_netlist::aig::{Aig, NodeId, NodeKind};

/// Unit-delay arrival/required/slack analysis of an AIG.
#[derive(Debug, Clone)]
pub struct AigSta {
    graph: TimingGraph,
    analysis: TimingAnalysis,
}

fn build_graph(aig: &Aig) -> TimingGraph {
    let mut graph = TimingGraph::with_capacity(aig.len(), 2 * aig.and_count());
    for id in aig.node_ids() {
        match aig.kind(id) {
            NodeKind::Const0 | NodeKind::Input(_) => {
                graph.add_node(&[]);
            }
            NodeKind::And(a, b) => {
                graph.add_node(&[(a.node().index(), 1), (b.node().index(), 1)]);
            }
        }
    }
    for po in aig.pos() {
        graph.mark_sink(po.node().index());
    }
    graph
}

impl AigSta {
    /// Analyzes `aig` under the unit-delay model. The horizon is *pinned*
    /// to the network depth at construction time — it does not drift if
    /// arrivals are later floored past it — which gives
    /// [`AigSta::raise_arrival`] its fixed-deadline semantics.
    pub fn new(aig: &Aig) -> Self {
        let graph = build_graph(aig);
        let analysis = TimingAnalysis::analyze_with_horizon(&graph, i64::from(aig.depth()));
        AigSta { graph, analysis }
    }

    /// The deadline (network depth at analysis time).
    pub fn horizon(&self) -> i64 {
        self.analysis.horizon
    }

    /// Arrival time (logic level, possibly floored by
    /// [`AigSta::raise_arrival`]) of `node`.
    pub fn arrival(&self, node: NodeId) -> i64 {
        self.analysis.arrival[node.index()]
    }

    /// The arrival times of all nodes, indexed by [`NodeId::index`].
    pub fn arrivals(&self) -> &[i64] {
        &self.analysis.arrival
    }

    /// Required time of `node` (`i64::MAX` for nodes that reach no output).
    pub fn required(&self, node: NodeId) -> i64 {
        self.analysis.required[node.index()]
    }

    /// Slack of `node` (saturating for unconstrained nodes).
    pub fn slack(&self, node: NodeId) -> i64 {
        self.analysis.slack(node.index())
    }

    /// Floors `node`'s arrival at `level` and incrementally re-propagates
    /// arrivals through the affected cone. Used by slack-aware rewriting:
    /// once a site is accepted at an estimated post-rewrite level, every
    /// later estimate must see the (possibly deeper) cone it feeds.
    ///
    /// The horizon is pinned at construction, so it and the required
    /// times are untouched — a floor pushing a sink past
    /// the deadline shows up as *negative* slack rather than silently
    /// loosening every deadline, which is exactly what a depth-budget
    /// check needs.
    pub fn raise_arrival(&mut self, node: NodeId, level: i64) {
        self.graph.set_floor(node.index(), level);
        self.analysis.refresh(&self.graph, &[node.index()]);
    }

    /// Borrow of the underlying graph (for path extraction / reporting).
    pub fn graph(&self) -> &TimingGraph {
        &self.graph
    }

    /// Borrow of the underlying analysis (for path extraction / reporting).
    pub fn analysis(&self) -> &TimingAnalysis {
        &self.analysis
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slack_zero_along_critical_path() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let x = g.xor(a, b); // level 2
        let y = g.and(x, c); // level 3
        g.add_po(y);
        let sta = AigSta::new(&g);
        assert_eq!(sta.horizon(), 3);
        assert_eq!(sta.slack(y.node()), 0);
        assert!(sta.slack(a.node()) == 0, "PIs on the critical path");
        assert_eq!(sta.required(y.node()), 3);
    }

    #[test]
    fn dangling_logic_is_unconstrained() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let keep = g.and(a, b);
        let dead = g.xor(a, b);
        g.add_po(keep);
        let sta = AigSta::new(&g);
        assert_eq!(sta.required(dead.node()), i64::MAX);
        assert!(sta.slack(dead.node()) > 1_000_000);
    }

    #[test]
    fn raise_arrival_propagates_incrementally() {
        let mut g = Aig::new();
        let pis: Vec<_> = (0..4).map(|_| g.add_pi()).collect();
        let ab = g.and(pis[0], pis[1]); // level 1, slack comes from the deep side
        let deep = g.xor3(pis[1], pis[2], pis[3]); // level 4
        let top = g.and(ab, deep); // level 5
        g.add_po(top);
        let mut sta = AigSta::new(&g);
        let slack = sta.slack(ab.node());
        assert_eq!(slack, 3);
        // Consume the slack: the root's cone re-levels, the output stays.
        sta.raise_arrival(ab.node(), sta.arrival(ab.node()) + slack);
        assert_eq!(sta.slack(ab.node()), 0);
        assert_eq!(sta.arrival(top.node()), 5, "output level unchanged");
        assert_eq!(sta.horizon(), 5);
    }
}
