//! Top-k critical path extraction.
//!
//! [`top_paths_bounded`] enumerates complete source→sink paths of a
//! [`TimingGraph`] in non-increasing length order, using a best-first
//! search guided by the exact longest-suffix potential `F(v)` (the longest
//! delay from `v` to any sink). The bound is *exact*, so the search is an
//! A*-style enumeration: every popped complete path is the next-longest
//! one, and the k-th pop ends the search — no path explosion for small k.

use crate::graph::{TimingAnalysis, TimingGraph};
use std::collections::BinaryHeap;

/// One extracted path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingPath {
    /// Nodes from source to sink.
    pub nodes: Vec<usize>,
    /// Per-hop delay contribution: `delays[i]` is the delay of the edge
    /// into `nodes[i]` (`0` for the source).
    pub delays: Vec<i64>,
    /// Total path length (sum of `delays`).
    pub length: i64,
    /// Headroom against the analysis horizon: `horizon − length`.
    pub slack: i64,
}

/// Search state: a partial path ending at `node`, ordered by the exact
/// upper bound `len + F(node)` on any completion.
struct State {
    bound: i64,
    len: i64,
    node: usize,
    /// Index of the predecessor state in the arena (`usize::MAX` = none).
    prev: usize,
    done: bool,
}

/// Extracts the `k` longest source→sink paths, longest first, and whether
/// the search budget expired before `k` paths were found (`true` = more
/// paths may exist than were returned). Ties are broken arbitrarily but
/// deterministically. `analysis` supplies the horizon used for the
/// per-path slack. Callers that render reports should surface the flag
/// instead of letting a truncated result read as "this network has few
/// paths".
pub fn top_paths_bounded(
    graph: &TimingGraph,
    analysis: &TimingAnalysis,
    k: usize,
) -> (Vec<TimingPath>, bool) {
    if k == 0 || graph.is_empty() {
        return (Vec::new(), false);
    }
    let n = graph.len();
    // F(v): longest delay from v to any sink; i64::MIN = reaches none.
    let mut f = vec![i64::MIN; n];
    for v in (0..n).rev() {
        if graph.is_sink(v) {
            f[v] = 0;
        }
        for w in graph.fanouts(v) {
            if f[w] == i64::MIN {
                continue;
            }
            for (u, d) in graph.fanins(w) {
                if u == v {
                    f[v] = f[v].max(f[w] + d);
                }
            }
        }
    }

    // Tie-break equal bounds toward the NEWEST state (plain `idx` in a
    // max-heap): on a network whose critical paths share one exact bound
    // (every prefix of every critical path bounds to the horizon), this
    // descends depth-first and completes a longest path after ~depth pops.
    // Oldest-first would sweep the whole equal-bound frontier breadth-first
    // and can exhaust the pop budget on high-multiplicity networks (array
    // multipliers) before a single complete path pops.
    let mut arena: Vec<State> = Vec::new();
    let mut heap: BinaryHeap<(i64, usize)> = BinaryHeap::new();
    let push = |arena: &mut Vec<State>, heap: &mut BinaryHeap<(i64, usize)>, st: State| {
        let idx = arena.len();
        heap.push((st.bound, idx));
        arena.push(st);
    };
    for (v, &fv) in f.iter().enumerate() {
        // Sources: no fanins, reaches a sink.
        if graph.fanins(v).next().is_none() && fv != i64::MIN {
            push(
                &mut arena,
                &mut heap,
                State {
                    bound: fv,
                    len: 0,
                    node: v,
                    prev: usize::MAX,
                    done: false,
                },
            );
        }
    }

    let mut out = Vec::with_capacity(k);
    // Backstop against adversarial graphs; with the newest-first tie-break
    // a path completes in ~depth pops, so real networks never get near it.
    // Paths found within the budget are still exact and in order; the
    // returned flag records an early exit.
    let mut truncated = false;
    let mut pops = 10_000usize.saturating_add(k.saturating_mul(1_000));
    while let Some((_, idx)) = heap.pop() {
        pops = match pops.checked_sub(1) {
            Some(p) => p,
            None => {
                truncated = true;
                break;
            }
        };
        let (len, node, done) = {
            let st = &arena[idx];
            (st.len, st.node, st.done)
        };
        if done {
            // Reconstruct the path by walking the arena chain.
            let mut nodes = Vec::new();
            let mut cur = arena[idx].prev; // skip the terminal marker
            while cur != usize::MAX {
                nodes.push(arena[cur].node);
                cur = arena[cur].prev;
            }
            nodes.reverse();
            let mut delays = Vec::with_capacity(nodes.len());
            delays.push(0);
            for w in nodes.windows(2) {
                let d = graph
                    .fanins(w[1])
                    .filter(|&(u, _)| u == w[0])
                    .map(|(_, d)| d)
                    .max()
                    .expect("path edge exists");
                delays.push(d);
            }
            out.push(TimingPath {
                nodes,
                delays,
                length: len,
                slack: analysis.horizon - len,
            });
            if out.len() >= k {
                break;
            }
            continue;
        }
        if graph.is_sink(node) {
            // Terminating here is one completion of this prefix.
            push(
                &mut arena,
                &mut heap,
                State {
                    bound: len,
                    len,
                    node,
                    prev: idx,
                    done: true,
                },
            );
        }
        // Parallel edges to one consumer collapse to their max-delay edge
        // (the shorter arm of a parallel pair is never the critical one);
        // the fanout list repeats such consumers, so dedupe to avoid
        // emitting the same path once per parallel edge. Duplicates are
        // adjacent by construction (one add_node call pushes them in a row).
        let mut fanouts: Vec<usize> = graph.fanouts(node).collect();
        fanouts.dedup();
        for w in fanouts {
            if f[w] == i64::MIN {
                continue;
            }
            let d = graph
                .fanins(w)
                .filter(|&(u, _)| u == node)
                .map(|(_, d)| d)
                .max()
                .expect("fanout edge exists");
            push(
                &mut arena,
                &mut heap,
                State {
                    bound: len + d + f[w],
                    len: len + d,
                    node: w,
                    prev: idx,
                    done: false,
                },
            );
        }
    }
    (out, truncated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TimingAnalysis;

    fn ladder() -> TimingGraph {
        // s → a → t(sink) with a parallel long edge s → b → t.
        let mut g = TimingGraph::new();
        let s = g.add_node(&[]);
        let a = g.add_node(&[(s, 1)]);
        let b = g.add_node(&[(s, 4)]);
        let t = g.add_node(&[(a, 1), (b, 1)]);
        g.mark_sink(t);
        g
    }

    #[test]
    fn paths_come_out_longest_first() {
        let g = ladder();
        let t = TimingAnalysis::analyze_with_horizon(&g, 5);
        let paths = top_paths_bounded(&g, &t, 10).0;
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].length, 5);
        assert_eq!(paths[0].nodes, vec![0, 2, 3]);
        assert_eq!(paths[0].slack, 0);
        assert_eq!(paths[1].length, 2);
        assert_eq!(paths[1].nodes, vec![0, 1, 3]);
        assert_eq!(paths[1].slack, 3);
        assert_eq!(paths[0].delays, vec![0, 4, 1]);
    }

    #[test]
    fn k_limits_the_enumeration() {
        let g = ladder();
        let t = TimingAnalysis::analyze_with_horizon(&g, 5);
        assert_eq!(top_paths_bounded(&g, &t, 1).0.len(), 1);
        assert!(top_paths_bounded(&g, &t, 0).0.is_empty());
    }

    #[test]
    fn sink_with_fanout_can_end_or_continue() {
        // s → m(sink) → t(sink): both the short and the full path exist.
        let mut g = TimingGraph::new();
        let s = g.add_node(&[]);
        let m = g.add_node(&[(s, 2)]);
        let t = g.add_node(&[(m, 2)]);
        g.mark_sink(m);
        g.mark_sink(t);
        let a = TimingAnalysis::analyze_with_horizon(&g, 4);
        let paths = top_paths_bounded(&g, &a, 10).0;
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].nodes, vec![s, m, t]);
        assert_eq!(paths[0].length, 4);
        assert_eq!(paths[1].nodes, vec![s, m]);
        assert_eq!(paths[1].length, 2);
    }

    #[test]
    fn exhausts_without_panic_on_empty_graph() {
        let g = TimingGraph::new();
        let a = TimingAnalysis::analyze_with_horizon(&g, 0);
        assert!(top_paths_bounded(&g, &a, 3).0.is_empty());
    }

    #[test]
    fn parallel_edges_collapse_to_one_path() {
        // Two edges u→w with different delays: one path at the max delay,
        // not the same path twice (and no phantom short-arm path).
        let mut g = TimingGraph::new();
        let u = g.add_node(&[]);
        let w = g.add_node(&[(u, 1), (u, 3)]);
        g.mark_sink(w);
        let t = TimingAnalysis::analyze_with_horizon(&g, 3);
        let paths = top_paths_bounded(&g, &t, 5).0;
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].length, 3);
        assert_eq!(paths[0].delays, vec![0, 3]);
    }

    #[test]
    fn huge_path_multiplicity_still_yields_paths() {
        // 60 stacked diamonds with equal-delay arms: 2^60 distinct
        // critical paths, every prefix bounding to the horizon. The
        // newest-first tie-break must descend and complete paths instead
        // of sweeping the equal-bound frontier until the budget dies
        // (the regression observed on the array-multiplier benchmarks).
        let mut g = TimingGraph::new();
        let mut cur = g.add_node(&[]);
        for _ in 0..60 {
            let a = g.add_node(&[(cur, 1)]);
            let b = g.add_node(&[(cur, 1)]);
            cur = g.add_node(&[(a, 1), (b, 1)]);
        }
        g.mark_sink(cur);
        let t = TimingAnalysis::analyze_with_horizon(&g, 120);
        let (paths, truncated) = top_paths_bounded(&g, &t, 3);
        assert_eq!(paths.len(), 3, "three of the 2^60 paths extracted");
        assert!(!truncated, "budget must not be the limiting factor");
        for p in &paths {
            assert_eq!(p.length, 120);
            assert_eq!(p.slack, 0);
            assert_eq!(p.nodes.len(), 121);
        }
    }
}
