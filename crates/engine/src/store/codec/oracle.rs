//! The encoder as it was before the single-pass rewrite, less the DFF
//! plan that format v3 no longer stores, kept as the test oracle that
//! pins [`super::encode`]'s bytes: every field goes through `write!`, one
//! line at a time.

use super::{FORMAT_VERSION, HEADER};
use t1map::flow::FlowResult;
use t1map::mapped::MappedCell;

/// Serializes `result` into the versioned text format.
pub fn encode(result: &FlowResult) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let w = &mut s;
    writeln!(w, "{HEADER} v{FORMAT_VERSION}").unwrap();
    let st = &result.stats;
    writeln!(
        w,
        "stats {} {} {} {} {} {} {} {}",
        st.t1_found,
        st.t1_used,
        st.dffs,
        st.splitters,
        st.cell_area,
        st.area,
        st.depth_cycles,
        st.gates
    )
    .unwrap();

    let mc = &result.mapped;
    writeln!(w, "cells {}", mc.len()).unwrap();
    for (_, cell) in mc.cells() {
        match cell {
            MappedCell::Input { index } => writeln!(w, "i {index}").unwrap(),
            MappedCell::Const0 => writeln!(w, "k").unwrap(),
            MappedCell::Gate { tt, fanins } => {
                write!(w, "g {} {:x}", tt.num_vars(), tt.bits()).unwrap();
                for e in fanins {
                    write!(w, " {} {} {}", e.cell.0, e.port, e.invert as u8).unwrap();
                }
                writeln!(w).unwrap();
            }
            MappedCell::T1 { fanins } => {
                write!(w, "t").unwrap();
                for e in fanins {
                    write!(w, " {} {} {}", e.cell.0, e.port, e.invert as u8).unwrap();
                }
                writeln!(w).unwrap();
            }
        }
    }
    writeln!(w, "pos {}", mc.pos().len()).unwrap();
    for e in mc.pos() {
        writeln!(w, "p {} {} {}", e.cell.0, e.port, e.invert as u8).unwrap();
    }

    let sched = &result.schedule;
    writeln!(
        w,
        "sched {} {} {}",
        sched.n,
        sched.horizon,
        sched.stages.len()
    )
    .unwrap();
    write!(w, "stages").unwrap();
    for s in &sched.stages {
        write!(w, " {s}").unwrap();
    }
    writeln!(w).unwrap();
    let offsets: Vec<(usize, [i64; 3])> = sched
        .t1_offsets
        .iter()
        .enumerate()
        .filter_map(|(i, o)| o.map(|o| (i, o)))
        .collect();
    writeln!(w, "t1off {} {}", sched.t1_offsets.len(), offsets.len()).unwrap();
    for (i, o) in offsets {
        writeln!(w, "o {} {} {} {}", i, o[0], o[1], o[2]).unwrap();
    }

    match &result.pre_opt {
        None => writeln!(w, "preopt 0").unwrap(),
        Some(report) => {
            writeln!(w, "preopt 1").unwrap();
            writeln!(
                w,
                "r {} {} {} {} {} {}",
                report.rounds.len(),
                report.converged as u8,
                report.nodes_before,
                report.nodes_after,
                report.depth_before,
                report.depth_after
            )
            .unwrap();
            for round in &report.rounds {
                writeln!(w, "q {}", round.len()).unwrap();
                for p in round {
                    writeln!(
                        w,
                        "s {} {} {} {} {} {} {}",
                        p.pass,
                        p.nodes_before,
                        p.nodes_after,
                        p.depth_before,
                        p.depth_after,
                        p.applied,
                        p.micros
                    )
                    .unwrap();
                }
            }
        }
    }

    match &result.timing {
        None => writeln!(w, "timing 0").unwrap(),
        Some(t) => {
            writeln!(w, "timing 1").unwrap();
            writeln!(
                w,
                "y {} {} {} {} {} {} {} {}",
                t.horizon,
                t.phases,
                t.scheduled_cells,
                t.zero_slack_cells,
                t.worst_slack,
                t.total_slack,
                t.edge_dffs,
                t.chained_dffs
            )
            .unwrap();
        }
    }
    writeln!(w, "end").unwrap();
    s
}
