//! Property-based tests of the timing analysis on random AIGs:
//!
//! - slack is non-negative on every constrained node,
//! - at least one PI→PO path is tight (zero slack along its whole length),
//! - incremental recompute after random arrival floors, within the
//!   pinned horizon or past it, matches a from-scratch analysis exactly.

use proptest::prelude::*;
use sfq_circuits::random::{random_aig, RandomAigConfig};
use sfq_netlist::aig::{Aig, NodeKind};
use sfq_sta::{top_paths_bounded, AigSta, TimingAnalysis, TimingGraph};

fn subject(seed: u64, gates: usize) -> Aig {
    random_aig(
        seed,
        &RandomAigConfig {
            num_pis: 6,
            num_gates: gates,
            num_pos: 3,
            xor_percent: 30,
        },
    )
}

/// Mirrors the unit-delay graph an `AigSta` builds, but through the public
/// generic API so the tests can set floors afterwards.
fn unit_graph(aig: &Aig) -> TimingGraph {
    let mut g = TimingGraph::new();
    for id in aig.node_ids() {
        match aig.kind(id) {
            NodeKind::Const0 | NodeKind::Input(_) => {
                g.add_node(&[]);
            }
            NodeKind::And(a, b) => {
                g.add_node(&[(a.node().index(), 1), (b.node().index(), 1)]);
            }
        }
    }
    for po in aig.pos() {
        g.mark_sink(po.node().index());
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn slack_is_nonnegative_everywhere(seed in any::<u64>(), gates in 8usize..96) {
        let aig = subject(seed, gates);
        let sta = AigSta::new(&aig);
        for id in aig.node_ids() {
            prop_assert!(
                sta.slack(id) >= 0,
                "node {} has negative slack {}",
                id.0,
                sta.slack(id)
            );
        }
        // Arrivals are exactly the logic levels under unit delay.
        let levels = aig.levels();
        for id in aig.node_ids() {
            prop_assert_eq!(sta.arrival(id), levels[id.index()] as i64);
        }
    }

    #[test]
    fn a_tight_pi_to_po_path_exists(seed in any::<u64>(), gates in 8usize..96) {
        let aig = subject(seed, gates);
        let sta = AigSta::new(&aig);
        let (paths, truncated) = top_paths_bounded(sta.graph(), sta.analysis(), 1);
        prop_assert!(!truncated);
        prop_assert_eq!(paths.len(), 1, "every network has at least one path");
        let p = &paths[0];
        prop_assert_eq!(p.length, sta.horizon(), "top path realizes the depth");
        prop_assert_eq!(p.slack, 0);
        for &v in &p.nodes {
            prop_assert_eq!(
                sta.analysis().slack(v),
                0,
                "node n{} on the critical path must be tight",
                v
            );
        }
        // The path starts at a source (PI or constant) and ends at a PO driver.
        let first = p.nodes[0];
        prop_assert!(
            !matches!(aig.kind(sfq_netlist::aig::NodeId(first as u32)), NodeKind::And(..)),
            "critical path starts at a source"
        );
        let last = *p.nodes.last().unwrap();
        prop_assert!(aig.pos().iter().any(|po| po.node().index() == last));
    }

    #[test]
    fn incremental_refresh_matches_scratch(
        seed in any::<u64>(),
        gates in 8usize..64,
        lifts in proptest::collection::vec((any::<u32>(), 1i64..4), 1..12),
    ) {
        // Pinned at the network depth, as `AigSta` pins it: lifting an
        // arrival past its slack pushes a sink beyond the deadline, which
        // the refresh must report as negative slack, exactly as scratch.
        let aig = subject(seed, gates);
        let mut graph = unit_graph(&aig);
        let horizon = i64::from(aig.depth());
        let mut incremental = TimingAnalysis::analyze_with_horizon(&graph, horizon);
        for (pick, lift) in lifts {
            let node = pick as usize % graph.len();
            graph.set_floor(node, incremental.arrival[node] + lift);
            incremental.refresh(&graph, &[node]);
            prop_assert_eq!(
                &incremental,
                &TimingAnalysis::analyze_with_horizon(&graph, horizon),
                "incremental analysis diverged after lifting node {}",
                node
            );
        }
    }

    #[test]
    fn incremental_floors_match_scratch(
        seed in any::<u64>(),
        gates in 8usize..64,
        floors in proptest::collection::vec((any::<u32>(), 0i64..20), 1..8),
    ) {
        let aig = subject(seed, gates);
        let mut graph = unit_graph(&aig);
        let horizon = i64::from(aig.depth()) + 32;
        let mut incremental = TimingAnalysis::analyze_with_horizon(&graph, horizon);
        for (pick, floor) in floors {
            let node = pick as usize % graph.len();
            graph.set_floor(node, floor);
            incremental.refresh(&graph, &[node]);
            prop_assert_eq!(
                &incremental,
                &TimingAnalysis::analyze_with_horizon(&graph, horizon),
                "incremental analysis diverged after flooring node {}",
                node
            );
        }
    }
}
