//! Synthetic [`FlowResult`]s for the store codec's tests, shared by the
//! codec's unit tests and the store's integration tests.

use t1map::dff::insert_dffs;
use t1map::flow::{FlowResult, FlowStats};
use t1map::mapped::{CellId, Edge, MappedCell, MappedCircuit};
use t1map::phase::Schedule;
use t1map::timing::TimingSummary;

use sfq_netlist::truth_table::TruthTable;
use sfq_opt::{OptReport, PassKind, PassStats};

/// Small deterministic generator for the synthetic-result proptest.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn stage(&mut self) -> i64 {
        self.below(2001) as i64 - 1000
    }

    /// Three distinct T1 delivery offsets in `1..=n` (`n >= 3`).
    fn offsets(&mut self, n: u32) -> [i64; 3] {
        let mut o = [0i64; 3];
        for k in 0..3 {
            o[k] = 1 + self.below(n.into()) as i64;
            while o[..k].contains(&o[k]) {
                o[k] = o[k] % i64::from(n) + 1;
            }
        }
        o
    }
}

/// A valid schedule for `mc` under `n` phases: inputs and constants at
/// stage 0, every other cell up to 2 stages later than it must be, T1
/// cells with random distinct offsets, and the horizon up to 2 stages past
/// the latest output driver.
fn schedule(rng: &mut XorShift, mc: &MappedCircuit, n: u32) -> Schedule {
    let mut stages = vec![0i64; mc.len()];
    let mut t1_offsets = vec![None; mc.len()];
    for (id, cell) in mc.cells() {
        let earliest = match cell {
            MappedCell::Input { .. } | MappedCell::Const0 => continue,
            MappedCell::Gate { fanins, .. } => {
                fanins.iter().map(|e| stages[e.cell.index()] + 1).max()
            }
            MappedCell::T1 { fanins } => {
                let o = rng.offsets(n);
                t1_offsets[id.index()] = Some(o);
                fanins
                    .iter()
                    .zip(o)
                    .map(|(e, o)| stages[e.cell.index()] + o)
                    .max()
            }
        };
        stages[id.index()] = earliest.unwrap_or(1) + rng.below(3) as i64;
    }
    let latest = mc
        .pos()
        .iter()
        .filter(|e| !matches!(mc.cell(e.cell), MappedCell::Const0))
        .map(|e| stages[e.cell.index()])
        .max()
        .unwrap_or(0);
    Schedule {
        n,
        stages,
        horizon: latest + rng.below(3) as i64,
        t1_offsets,
    }
}

/// Builds a valid — but otherwise arbitrary — [`FlowResult`] from a seed:
/// random netlist shape, a valid schedule for it, the DFF plan
/// [`insert_dffs`] derives (with the matching `stats` totals) and optional
/// reports. This exercises codec paths real flows rarely produce (slack
/// stages, exotic truth tables, unused cells, multi-round reports).
pub fn synthetic_result(seed: u64, with_pre_opt: bool, with_timing: bool) -> FlowResult {
    let mut rng = XorShift(seed | 1);
    let n = 1 + rng.below(8) as u32;
    let mut mc = MappedCircuit::new();
    // Output-port count of each built cell (3 for T1, 1 otherwise).
    let mut ports: Vec<u8> = Vec::new();

    let inputs = 1 + rng.below(4) as usize;
    for _ in 0..inputs {
        mc.add_input();
    }
    ports.resize(inputs, 1);
    if rng.below(2) == 0 {
        mc.add_const0();
        ports.push(1);
    }
    fn edge(rng: &mut XorShift, ports: &[u8], positive: bool) -> Edge {
        let cell = rng.below(ports.len() as u64) as usize;
        Edge {
            cell: CellId(cell as u32),
            port: rng.below(ports[cell] as u64) as u8,
            invert: !positive && rng.below(2) == 0,
        }
    }
    let extra = rng.below(12) as usize;
    for _ in 0..extra {
        if n >= 3 && rng.below(4) == 0 {
            let fanins = [
                edge(&mut rng, &ports, true),
                edge(&mut rng, &ports, true),
                edge(&mut rng, &ports, true),
            ];
            mc.add_t1(fanins);
            ports.push(3);
        } else {
            let nvars = 1 + rng.below(6) as usize;
            let tt = TruthTable::from_bits(nvars, rng.next());
            let fanins: Vec<Edge> = (0..nvars).map(|_| edge(&mut rng, &ports, false)).collect();
            mc.add_gate(tt, &fanins);
            ports.push(1);
        }
    }
    let pos = 1 + rng.below(3) as usize;
    for _ in 0..pos {
        let cell = rng.below(ports.len() as u64) as usize;
        mc.add_po(Edge {
            cell: CellId(cell as u32),
            port: rng.below(ports[cell] as u64) as u8,
            invert: rng.below(2) == 0,
        });
    }

    let schedule = schedule(&mut rng, &mc, n);

    let pre_opt = with_pre_opt.then(|| OptReport {
        rounds: (0..1 + rng.below(3))
            .map(|_| {
                (0..rng.below(4))
                    .map(|_| PassStats {
                        pass: PassKind::KNOWN[rng.below(PassKind::KNOWN.len() as u64) as usize]
                            .name(),
                        nodes_before: rng.below(9999) as usize,
                        nodes_after: rng.below(9999) as usize,
                        depth_before: rng.below(99) as u32,
                        depth_after: rng.below(99) as u32,
                        applied: rng.below(999) as usize,
                        micros: rng.next(),
                    })
                    .collect()
            })
            .collect(),
        converged: rng.below(2) == 0,
        nodes_before: rng.below(9999) as usize,
        nodes_after: rng.below(9999) as usize,
        depth_before: rng.below(99) as u32,
        depth_after: rng.below(99) as u32,
    });

    let timing = with_timing.then(|| TimingSummary {
        horizon: rng.stage(),
        phases: 1 + rng.below(8) as u32,
        scheduled_cells: rng.below(9999) as usize,
        zero_slack_cells: rng.below(9999) as usize,
        worst_slack: rng.stage(),
        total_slack: rng.stage(),
        edge_dffs: rng.below(99_999),
        chained_dffs: rng.below(99_999),
    });

    let plan = insert_dffs(&mc, &schedule);
    FlowResult {
        stats: FlowStats {
            t1_found: rng.below(999) as usize,
            t1_used: rng.below(999) as usize,
            dffs: plan.total_dffs,
            splitters: plan.total_splitters,
            cell_area: rng.below(999_999),
            area: rng.below(999_999),
            depth_cycles: rng.stage(),
            gates: rng.below(9999) as usize,
        },
        mapped: mc,
        schedule,
        plan,
        pre_opt,
        timing,
    }
}

/// [`synthetic_result`] pushed to the extremes of every stored field a
/// valid schedule leaves free: `u64::MAX` truth-table bits and pass
/// micros, `u32::MAX` phases and T1 offsets (so stages past `u32::MAX`),
/// `i64::MIN`/`i64::MAX` slacks and depth, and the largest counts. A
/// 6-input all-ones gate and a T1 cell are appended so both are always
/// present. The plan and the `stats` DFF and splitter totals are derived
/// again, as a decoder derives them.
pub fn extreme_result(seed: u64) -> FlowResult {
    let mut r = synthetic_result(seed, true, true);
    r.mapped.add_gate(
        TruthTable::from_bits(6, u64::MAX),
        &[Edge::plain(CellId(0)); 6],
    );
    let t1 = r.mapped.add_t1([Edge::plain(CellId(0)); 3]);
    r.mapped.add_po(Edge::plain(t1));
    let sched = &mut r.schedule;
    sched.n = u32::MAX;
    let top = i64::from(u32::MAX);
    sched.stages.extend([1, top]);
    sched.t1_offsets.extend([None, Some([top, 1, top - 1])]);
    sched.horizon = sched.horizon.max(top);
    r.plan = insert_dffs(&r.mapped, &r.schedule);

    r.stats = FlowStats {
        t1_found: usize::MAX,
        t1_used: usize::MAX,
        dffs: r.plan.total_dffs,
        splitters: r.plan.total_splitters,
        cell_area: u64::MAX,
        area: u64::MAX,
        depth_cycles: i64::MIN,
        gates: usize::MAX,
    };
    if let Some(report) = &mut r.pre_opt {
        report.nodes_before = usize::MAX;
        report.depth_after = u32::MAX;
        report.rounds.push(vec![PassStats {
            pass: PassKind::KNOWN[0].name(),
            nodes_before: usize::MAX,
            nodes_after: 0,
            depth_before: u32::MAX,
            depth_after: 0,
            applied: usize::MAX,
            micros: u64::MAX,
        }]);
    }
    if let Some(t) = &mut r.timing {
        t.horizon = i64::MAX;
        t.phases = u32::MAX;
        t.worst_slack = i64::MIN;
        t.total_slack = i64::MAX;
        t.edge_dffs = u64::MAX;
        t.chained_dffs = u64::MAX;
    }
    r
}
