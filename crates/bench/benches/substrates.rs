//! Criterion benchmarks of the substrate layers: cut enumeration, NPN
//! canonization, the LP/MILP/SAT solvers and the pulse simulator.

use criterion::{criterion_group, criterion_main, Criterion};
use sfq_circuits::epfl;
use sfq_netlist::cut::{enumerate_cuts, CutConfig};
use sfq_netlist::npn::npn_canonical;
use sfq_netlist::truth_table::TruthTable;
use sfq_opt::RewriteConfig;
use sfq_solver::linear::{Constraint, LinExpr, Sense, VarId};
use sfq_solver::milp::MilpProblem;
use sfq_solver::sat::{SatLit, SatSolver};
use sfq_solver::simplex::solve_lp;
use t1map::cells::CellLibrary;
use t1map::flow::{run_flow, FlowConfig};
use t1map::to_pulse_circuit;

fn bench_netlist(c: &mut Criterion) {
    let aig = epfl::adder(64);
    let mut group = c.benchmark_group("netlist");
    group.sample_size(20);
    group.bench_function("cut-enum-adder64-k3", |b| {
        b.iter(|| {
            enumerate_cuts(
                &aig,
                &CutConfig {
                    max_leaves: 3,
                    max_cuts: 20,
                },
            )
            .total()
        })
    });
    // The two production configurations of the kernel: the mapper's
    // 3-cuts and the rewrite pass's 4-cuts.
    let mult = epfl::multiplier(32);
    group.bench_function("cut-enum-multiplier-k3", |b| {
        b.iter(|| {
            enumerate_cuts(
                &mult,
                &CutConfig {
                    max_leaves: 3,
                    max_cuts: 16,
                },
            )
            .total()
        })
    });
    group.bench_function("cut-enum-multiplier-k4", |b| {
        b.iter(|| {
            enumerate_cuts(
                &mult,
                &CutConfig {
                    max_leaves: 4,
                    max_cuts: RewriteConfig::DEFAULT_MAX_CUTS,
                },
            )
            .total()
        })
    });
    group.bench_function("npn-canon-all-3var", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for bits in 0u64..256 {
                acc ^= npn_canonical(TruthTable::from_bits(3, bits)).canon.bits();
            }
            acc
        })
    });
    group.bench_function("eval64-adder64", |b| {
        let inputs: Vec<u64> = (0..aig.pi_count() as u64)
            .map(|i| i.wrapping_mul(0x9E37))
            .collect();
        b.iter(|| aig.eval64(&inputs))
    });
    group.finish();
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("solvers");
    group.sample_size(20);
    group.bench_function("simplex-20x40", |b| {
        // A scheduling-like LP: chain of difference constraints.
        let n = 40;
        let mut cons = Vec::new();
        for i in 0..n - 1 {
            cons.push(Constraint::new(
                LinExpr::var(VarId(i + 1)) - LinExpr::var(VarId(i)),
                Sense::Ge,
                1.0,
            ));
        }
        cons.push(Constraint::new(
            LinExpr::var(VarId(n - 1)),
            Sense::Le,
            100.0,
        ));
        let obj = LinExpr::var(VarId(n - 1)) - LinExpr::var(VarId(0));
        b.iter(|| solve_lp(n, &cons, &obj))
    });
    group.bench_function("milp-knapsack-12", |b| {
        b.iter(|| {
            let mut p = MilpProblem::new();
            let vars: Vec<_> = (0..12).map(|_| p.add_int_var(0.0, Some(1.0))).collect();
            let mut weight = LinExpr::new();
            let mut value = LinExpr::new();
            for (i, &v) in vars.iter().enumerate() {
                weight.add_term(v, (i % 5 + 1) as f64);
                value.add_term(v, -((i % 7 + 1) as f64));
            }
            p.add_constraint(weight, Sense::Le, 14.0);
            p.set_objective(value);
            p.solve().expect("feasible").objective
        })
    });
    group.bench_function("sat-php-6-5", |b| {
        b.iter(|| {
            let (p, h) = (6, 5);
            let mut s = SatSolver::new();
            let vars: Vec<Vec<_>> = (0..p)
                .map(|_| (0..h).map(|_| s.new_var()).collect())
                .collect();
            for row in &vars {
                s.add_clause(row.iter().map(|&v| SatLit::pos(v)));
            }
            for (a, row1) in vars.iter().enumerate() {
                for row2 in &vars[a + 1..] {
                    for (&va, &vb) in row1.iter().zip(row2) {
                        s.add_clause([SatLit::neg(va), SatLit::neg(vb)]);
                    }
                }
            }
            assert!(s.solve().is_none());
            s.conflicts
        })
    });
    group.finish();
}

fn bench_pulse_sim(c: &mut Criterion) {
    let lib = CellLibrary::default();
    let aig = epfl::adder(16);
    let res = run_flow(&aig, &lib, &FlowConfig::t1(4));
    let pc = to_pulse_circuit(&res.mapped, &res.schedule, &res.plan);
    let vectors: Vec<Vec<bool>> = (0..16u64)
        .map(|k| {
            (0..32)
                .map(|i| (k.wrapping_mul(0x9E3779B9) >> (i % 60)) & 1 == 1)
                .collect()
        })
        .collect();
    let mut group = c.benchmark_group("pulse-sim");
    group.sample_size(20);
    group.bench_function("adder16-t1-16waves", |b| {
        b.iter(|| pc.simulate(&vectors, 4).expect("valid").pulses)
    });
    group.finish();
}

criterion_group!(benches, bench_netlist, bench_solvers, bench_pulse_sim);
criterion_main!(benches);
