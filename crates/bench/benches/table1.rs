//! Criterion benchmarks of the three mapping flows on the Table-I
//! benchmark set (one group per table row; run with reduced widths so the
//! suite completes quickly — absolute flow runtimes at paper scale are
//! printed by `sfq-t1 suite`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sfq_bench::{paper_benchmarks, BenchmarkScale};
use t1map::cells::CellLibrary;
use t1map::flow::{run_flow, FlowConfig};

fn bench_flows(c: &mut Criterion) {
    let lib = CellLibrary::default();
    let scale = BenchmarkScale::small();
    let mut group = c.benchmark_group("table1-flows");
    group.sample_size(10);
    for (name, aig) in paper_benchmarks(&scale) {
        group.bench_with_input(BenchmarkId::new("1phase", name), &aig, |b, aig| {
            b.iter(|| run_flow(aig, &lib, &FlowConfig::single_phase()).stats)
        });
        group.bench_with_input(BenchmarkId::new("4phase", name), &aig, |b, aig| {
            b.iter(|| run_flow(aig, &lib, &FlowConfig::multiphase(4)).stats)
        });
        group.bench_with_input(BenchmarkId::new("t1", name), &aig, |b, aig| {
            b.iter(|| run_flow(aig, &lib, &FlowConfig::t1(4)).stats)
        });
    }
    group.finish();
}

fn bench_flow_stages(c: &mut Criterion) {
    use sfq_circuits::epfl;
    use t1map::detect::{detect, DetectConfig};
    use t1map::dff::insert_dffs;
    use t1map::mapper::map;
    use t1map::phase::assign_phases;

    let lib = CellLibrary::default();
    let aig = epfl::adder(32);
    let mut group = c.benchmark_group("flow-stages-adder32");
    group.sample_size(20);
    group.bench_function("mapping", |b| {
        b.iter(|| map(&aig, &lib, None).circuit.len())
    });
    group.bench_function("detection", |b| {
        b.iter(|| detect(&aig, &lib, &DetectConfig::default()).found())
    });
    let mc = map(&aig, &lib, None).circuit;
    group.bench_function("phase-assignment", |b| {
        b.iter(|| assign_phases(&mc, 4, 2).horizon)
    });
    let sched = assign_phases(&mc, 4, 2);
    group.bench_function("dff-insertion", |b| {
        b.iter(|| insert_dffs(&mc, &sched).total_dffs)
    });
    group.finish();
}

criterion_group!(benches, bench_flows, bench_flow_stages);
criterion_main!(benches);
