//! Synthetic [`FlowResult`]s for the store codec's tests, shared by the
//! codec's unit tests and the store's integration tests.

use t1map::dff::{Consumer, DffPlan, Requirement};
use t1map::flow::{FlowResult, FlowStats};
use t1map::mapped::{CellId, Edge, MappedCircuit};
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
}

/// Builds a structurally valid — but otherwise arbitrary — [`FlowResult`]
/// from a seed: random netlist shape, schedule, DFF plan and optional
/// reports. This exercises codec paths real flows rarely produce (empty
/// chains, negative stages, exotic truth tables, multi-round reports).
pub fn synthetic_result(seed: u64, with_pre_opt: bool, with_timing: bool) -> FlowResult {
    let mut rng = XorShift(seed | 1);
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
        if ports.len() >= 3 && rng.below(4) == 0 {
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
            mc.add_gate(tt, fanins);
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

    let ncells = ports.len();
    let schedule = Schedule {
        n: 1 + rng.below(8) as u32,
        stages: (0..ncells).map(|_| rng.stage()).collect(),
        horizon: rng.stage(),
        t1_offsets: (0..ncells)
            .map(|i| (ports[i] == 3).then(|| [rng.stage(), rng.stage(), rng.stage()]))
            .collect(),
    };

    let mut plan = DffPlan::default();
    for _ in 0..rng.below(5) {
        let cell = rng.below(ncells as u64) as usize;
        let ncons = rng.below(4);
        let source = (CellId(cell as u32), rng.below(ports[cell] as u64) as u8);
        let source_stage = rng.stage();
        for _ in 0..rng.below(6) {
            plan.push_member(rng.stage());
        }
        for _ in 0..ncons {
            plan.push_tap(rng.stage());
        }
        for _ in 0..ncons {
            let consumer = match rng.below(3) {
                0 => Consumer::GateInput {
                    cell: CellId(rng.below(ncells as u64) as u32),
                    slot: rng.below(6) as usize,
                },
                1 => Consumer::T1Input {
                    cell: CellId(rng.below(ncells as u64) as u32),
                    slot: rng.below(3) as usize,
                },
                _ => Consumer::Output {
                    index: rng.below(8) as usize,
                },
            };
            let req = if rng.below(2) == 0 {
                Requirement::Window(rng.stage())
            } else {
                Requirement::Exact(rng.stage())
            };
            plan.push_consumer(consumer, req);
        }
        plan.finish_driver(source, source_stage);
    }
    plan.total_dffs = rng.below(10_000);
    plan.total_splitters = rng.below(1_000);

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

    FlowResult {
        mapped: mc,
        schedule,
        plan,
        stats: FlowStats {
            t1_found: rng.below(999) as usize,
            t1_used: rng.below(999) as usize,
            dffs: rng.below(99_999),
            splitters: rng.below(9_999),
            cell_area: rng.below(999_999),
            area: rng.below(999_999),
            depth_cycles: rng.stage(),
            gates: rng.below(9999) as usize,
        },
        pre_opt,
        timing,
    }
}

/// [`synthetic_result`] pushed to the extremes of every field type:
/// `i64::MIN`/`i64::MAX` stages, offsets, taps and slacks, `u64::MAX`
/// truth-table bits, DFF counts and pass micros, and the largest cell
/// ids, slots and counts. A 6-input all-ones gate and a T1 cell are
/// appended so both are always present.
pub fn extreme_result(seed: u64) -> FlowResult {
    let mut r = synthetic_result(seed, true, true);
    let extreme = |i: usize| [i64::MIN, i64::MAX, -1, 0][i % 4];

    r.mapped.add_gate(
        TruthTable::from_bits(6, u64::MAX),
        vec![Edge::plain(CellId(0)); 6],
    );
    r.mapped.add_t1([Edge::plain(CellId(0)); 3]);
    let ncells = r.mapped.len();
    let sched = &mut r.schedule;
    sched.n = u32::MAX;
    sched.horizon = i64::MIN;
    sched.stages = (0..ncells).map(extreme).collect();
    sched.t1_offsets.resize(ncells - 1, None);
    sched.t1_offsets.push(Some([i64::MIN, i64::MAX, 0]));

    let plan = &mut r.plan;
    plan.total_dffs = u64::MAX;
    plan.total_splitters = u64::MAX;
    for member in [i64::MIN, i64::MAX] {
        plan.push_member(member);
    }
    for tap in [i64::MAX, i64::MIN, 0] {
        plan.push_tap(tap);
    }
    plan.push_consumer(
        Consumer::GateInput {
            cell: CellId(u32::MAX),
            slot: usize::MAX,
        },
        Requirement::Window(i64::MIN),
    );
    plan.push_consumer(
        Consumer::T1Input {
            cell: CellId(u32::MAX),
            slot: usize::MAX,
        },
        Requirement::Exact(i64::MAX),
    );
    plan.push_consumer(
        Consumer::Output { index: usize::MAX },
        Requirement::Exact(i64::MIN),
    );
    plan.finish_driver((CellId(u32::MAX), u8::MAX), i64::MIN);

    r.stats = FlowStats {
        t1_found: usize::MAX,
        t1_used: usize::MAX,
        dffs: u64::MAX,
        splitters: u64::MAX,
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
