//! Table-I assembly: per-benchmark comparison of the 1φ, 4φ and T1 flows.
//!
//! Produces the same row layout as the paper's Table I — T1 cells
//! found/used, path-balancing DFF counts, area (JJs) and depth (cycles) for
//! all three flows, with `T1/1φ` and `T1/4φ` ratio columns and a final
//! averages row.

use crate::flow::FlowStats;
use std::fmt;

/// One benchmark row of Table I.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// Benchmark name.
    pub name: String,
    /// Single-phase baseline stats.
    pub single: FlowStats,
    /// Multiphase (no T1) baseline stats.
    pub multi: FlowStats,
    /// Proposed T1-flow stats.
    pub t1: FlowStats,
}

impl TableRow {
    /// Assembles a row from already-measured flow stats (the flows run
    /// through `sfq-engine`, possibly in parallel or from cache).
    pub fn from_stats(name: &str, single: FlowStats, multi: FlowStats, t1: FlowStats) -> Self {
        TableRow {
            name: name.to_string(),
            single,
            multi,
            t1,
        }
    }

    /// `T1 / 1φ` DFF ratio.
    pub fn dff_ratio_1(&self) -> f64 {
        ratio(self.t1.dffs as f64, self.single.dffs as f64)
    }

    /// `T1 / 4φ` DFF ratio.
    pub fn dff_ratio_n(&self) -> f64 {
        ratio(self.t1.dffs as f64, self.multi.dffs as f64)
    }

    /// `T1 / 1φ` area ratio.
    pub fn area_ratio_1(&self) -> f64 {
        ratio(self.t1.area as f64, self.single.area as f64)
    }

    /// `T1 / 4φ` area ratio.
    pub fn area_ratio_n(&self) -> f64 {
        ratio(self.t1.area as f64, self.multi.area as f64)
    }

    /// `T1 / 1φ` depth ratio.
    pub fn depth_ratio_1(&self) -> f64 {
        ratio(self.t1.depth_cycles as f64, self.single.depth_cycles as f64)
    }

    /// `T1 / 4φ` depth ratio.
    pub fn depth_ratio_n(&self) -> f64 {
        ratio(self.t1.depth_cycles as f64, self.multi.depth_cycles as f64)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        if a == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        a / b
    }
}

/// A complete Table-I instance.
#[derive(Debug, Clone, Default)]
pub struct TableOne {
    /// Benchmark rows in insertion order.
    pub rows: Vec<TableRow>,
}

impl TableOne {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an already-measured row.
    pub fn push(&mut self, row: TableRow) {
        self.rows.push(row);
    }

    /// Geometric-mean-free averages of the ratio columns, in the paper's
    /// order: (dff vs 1φ, dff vs 4φ, area vs 1φ, area vs 4φ, depth vs 1φ,
    /// depth vs 4φ).
    pub fn averages(&self) -> [f64; 6] {
        let k = self.rows.len().max(1) as f64;
        let mut sums = [0.0f64; 6];
        for r in &self.rows {
            sums[0] += r.dff_ratio_1();
            sums[1] += r.dff_ratio_n();
            sums[2] += r.area_ratio_1();
            sums[3] += r.area_ratio_n();
            sums[4] += r.depth_ratio_1();
            sums[5] += r.depth_ratio_n();
        }
        sums.map(|s| s / k)
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "benchmark,t1_found,t1_used,dff_1p,dff_np,dff_t1,dff_vs_1p,dff_vs_np,\
             area_1p,area_np,area_t1,area_vs_1p,area_vs_np,\
             depth_1p,depth_np,depth_t1,depth_vs_1p,depth_vs_np\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{},{},{},{:.2},{:.2},{},{},{},{:.2},{:.2},{},{},{},{:.2},{:.2}\n",
                r.name,
                r.t1.t1_found,
                r.t1.t1_used,
                r.single.dffs,
                r.multi.dffs,
                r.t1.dffs,
                r.dff_ratio_1(),
                r.dff_ratio_n(),
                r.single.area,
                r.multi.area,
                r.t1.area,
                r.area_ratio_1(),
                r.area_ratio_n(),
                r.single.depth_cycles,
                r.multi.depth_cycles,
                r.t1.depth_cycles,
                r.depth_ratio_1(),
                r.depth_ratio_n(),
            ));
        }
        out
    }
}

impl fmt::Display for TableOne {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:>6} {:>5} | {:>9} {:>9} {:>9} {:>5} {:>5} | {:>9} {:>9} {:>9} {:>5} {:>5} | {:>5} {:>5} {:>5} {:>5} {:>5}",
            "benchmark", "found", "used",
            "#DFF 1φ", "#DFF nφ", "#DFF T1", "r/1φ", "r/nφ",
            "Area 1φ", "Area nφ", "Area T1", "r/1φ", "r/nφ",
            "D 1φ", "D nφ", "D T1", "r/1φ", "r/nφ",
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<12} {:>6} {:>5} | {:>9} {:>9} {:>9} {:>5.2} {:>5.2} | {:>9} {:>9} {:>9} {:>5.2} {:>5.2} | {:>5} {:>5} {:>5} {:>5.2} {:>5.2}",
                r.name,
                r.t1.t1_found,
                r.t1.t1_used,
                r.single.dffs,
                r.multi.dffs,
                r.t1.dffs,
                r.dff_ratio_1(),
                r.dff_ratio_n(),
                r.single.area,
                r.multi.area,
                r.t1.area,
                r.area_ratio_1(),
                r.area_ratio_n(),
                r.single.depth_cycles,
                r.multi.depth_cycles,
                r.t1.depth_cycles,
                r.depth_ratio_1(),
                r.depth_ratio_n(),
            )?;
        }
        let avg = self.averages();
        writeln!(
            f,
            "{:<12} {:>6} {:>5} | {:>9} {:>9} {:>9} {:>5.2} {:>5.2} | {:>9} {:>9} {:>9} {:>5.2} {:>5.2} | {:>5} {:>5} {:>5} {:>5.2} {:>5.2}",
            "Average", "", "", "", "", "", avg[0], avg[1], "", "", "", avg[2], avg[3], "", "", "", avg[4], avg[5],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CellLibrary;
    use crate::flow::{run_flow, FlowConfig};
    use sfq_circuits::epfl::adder;

    /// The three flows of `adder(width)` at 4 phases, as one row.
    fn adder_row(name: &str, width: usize) -> TableRow {
        let (aig, lib) = (adder(width), CellLibrary::default());
        let stats = |config: FlowConfig| run_flow(&aig, &lib, &config).stats;
        TableRow::from_stats(
            name,
            stats(FlowConfig::single_phase()),
            stats(FlowConfig::multiphase(4)),
            stats(FlowConfig::t1(4)),
        )
    }

    #[test]
    fn table_row_on_small_adder() {
        let row = adder_row("adder8", 8);
        assert!(row.t1.t1_used > 0);
        assert!(row.dff_ratio_1() < 1.0, "T1 beats 1φ on DFFs");
        assert!(row.area_ratio_1() < 1.0, "T1 beats 1φ on area");
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut t = TableOne::new();
        t.push(adder_row("adder4", 4));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.starts_with("benchmark,"));
    }

    #[test]
    fn display_renders() {
        let mut t = TableOne::new();
        t.push(adder_row("adder4", 4));
        let s = t.to_string();
        assert!(s.contains("adder4"));
        assert!(s.contains("Average"));
    }
}
