//! Human- and machine-readable timing reports.
//!
//! [`TimingReport`] condenses one [`TimingAnalysis`] into the numbers a
//! designer acts on — worst slack, critical-node count, a slack histogram
//! and the top-k critical paths — and renders them as text (the CLI `sta`
//! subcommand) or CSV (`--csv`).

use crate::graph::{TimingAnalysis, TimingGraph};
use crate::path::{top_paths_bounded, TimingPath};
use std::fmt;

/// Summary of one timing analysis.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// The deadline the analysis ran against.
    pub horizon: i64,
    /// Nodes constrained by some sink (unconstrained nodes are excluded
    /// from every statistic below).
    pub constrained: usize,
    /// Worst (minimum) slack over constrained nodes.
    pub worst_slack: i64,
    /// Constrained nodes with zero slack.
    pub critical: usize,
    /// `(slack, node count)` pairs, ascending by slack.
    pub histogram: Vec<(i64, usize)>,
    /// The top-k critical paths, longest first.
    pub paths: Vec<TimingPath>,
    /// Whether path extraction hit its search budget before finding all
    /// requested paths (more paths may exist than are listed).
    pub paths_truncated: bool,
}

impl TimingReport {
    /// Builds a report with the `top_paths` longest paths extracted.
    pub fn new(graph: &TimingGraph, analysis: &TimingAnalysis, top_paths_k: usize) -> Self {
        let mut histogram: std::collections::BTreeMap<i64, usize> = Default::default();
        let mut constrained = 0usize;
        let mut worst = i64::MAX;
        for v in 0..graph.len() {
            if analysis.required[v] == i64::MAX {
                continue;
            }
            let s = analysis.slack(v);
            constrained += 1;
            worst = worst.min(s);
            *histogram.entry(s).or_insert(0) += 1;
        }
        let critical = histogram.get(&0).copied().unwrap_or(0);
        let (paths, paths_truncated) = top_paths_bounded(graph, analysis, top_paths_k);
        TimingReport {
            horizon: analysis.horizon,
            constrained,
            worst_slack: if constrained == 0 { 0 } else { worst },
            critical,
            histogram: histogram.into_iter().collect(),
            paths,
            paths_truncated,
        }
    }

    /// Per-node CSV (`node,arrival,required,slack`), constrained nodes only.
    pub fn node_csv(graph: &TimingGraph, analysis: &TimingAnalysis) -> String {
        let mut out = String::from("node,arrival,required,slack\n");
        for v in 0..graph.len() {
            if analysis.required[v] == i64::MAX {
                continue;
            }
            out.push_str(&format!(
                "{v},{},{},{}\n",
                analysis.arrival[v],
                analysis.required[v],
                analysis.slack(v)
            ));
        }
        out
    }
}

/// Renders one path as `n3 -> n7 -> n12`, eliding long middles.
fn render_path(path: &TimingPath, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    const HEAD: usize = 4;
    const TAIL: usize = 3;
    let n = path.nodes.len();
    if n <= HEAD + TAIL + 1 {
        for (i, v) in path.nodes.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "n{v}")?;
        }
    } else {
        for v in &path.nodes[..HEAD] {
            write!(f, "n{v} -> ")?;
        }
        write!(f, "... {} more ...", n - HEAD - TAIL)?;
        for v in &path.nodes[n - TAIL..] {
            write!(f, " -> n{v}")?;
        }
    }
    Ok(())
}

impl fmt::Display for TimingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "horizon {}: {} constrained nodes, worst slack {}, {} critical ({:.1}%)",
            self.horizon,
            self.constrained,
            self.worst_slack,
            self.critical,
            100.0 * self.critical as f64 / self.constrained.max(1) as f64
        )?;
        write!(f, "slack histogram:")?;
        const BUCKETS: usize = 8;
        for (i, (s, c)) in self.histogram.iter().enumerate() {
            if i >= BUCKETS {
                let rest: usize = self.histogram[BUCKETS..].iter().map(|&(_, c)| c).sum();
                write!(f, "  >={}:{rest}", self.histogram[BUCKETS].0)?;
                break;
            }
            write!(f, "  {s}:{c}")?;
        }
        writeln!(f)?;
        for (i, p) in self.paths.iter().enumerate() {
            write!(
                f,
                "path #{} length {} slack {} ({} nodes): ",
                i + 1,
                p.length,
                p.slack,
                p.nodes.len()
            )?;
            render_path(p, f)?;
            writeln!(f)?;
        }
        if self.paths_truncated {
            writeln!(
                f,
                "(path search budget exhausted — more paths exist than listed)"
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TimingGraph;

    fn sample() -> (TimingGraph, TimingAnalysis) {
        let mut g = TimingGraph::new();
        let a = g.add_node(&[]);
        let b = g.add_node(&[(a, 1)]);
        let c = g.add_node(&[(a, 3)]);
        let d = g.add_node(&[(b, 1), (c, 1)]);
        g.mark_sink(d);
        let t = TimingAnalysis::analyze_with_horizon(&g, 4);
        (g, t)
    }

    #[test]
    fn report_counts_and_histogram() {
        let (g, t) = sample();
        let r = TimingReport::new(&g, &t, 2);
        assert_eq!(r.horizon, 4);
        assert_eq!(r.constrained, 4);
        assert_eq!(r.worst_slack, 0);
        assert_eq!(r.critical, 3); // a, c, d
        assert_eq!(r.histogram, vec![(0, 3), (2, 1)]);
        assert_eq!(r.paths.len(), 2);
        assert_eq!(r.paths[0].length, 4);
    }

    #[test]
    fn display_and_csv_render() {
        let (g, t) = sample();
        let r = TimingReport::new(&g, &t, 1);
        let text = r.to_string();
        assert!(text.contains("worst slack 0"), "{text}");
        assert!(text.contains("path #1"), "{text}");
        let csv = TimingReport::node_csv(&g, &t);
        assert!(csv.starts_with("node,arrival,required,slack\n"), "{csv}");
        assert_eq!(csv.lines().count(), 5, "{csv}");
    }

    #[test]
    fn dangling_nodes_stay_out_of_the_report() {
        let (mut g, _) = sample();
        g.add_node(&[(0, 9)]); // unconstrained
        let t = TimingAnalysis::analyze_with_horizon(&g, 4);
        let r = TimingReport::new(&g, &t, 0);
        assert_eq!(r.constrained, 4);
        let csv = TimingReport::node_csv(&g, &t);
        assert_eq!(csv.lines().count(), 5);
    }
}
