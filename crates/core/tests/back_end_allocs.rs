//! Allocator counts of the flow's back-end stages: mapping, DFF insertion
//! and timing. This test binary installs
//! [`sfq_obs::alloc::CountingAlloc`] as its global allocator; each test
//! holds one lock from start to end, so the counters see every call one
//! stage makes and nothing of another test.
//!
//! Each stage builds a fixed number of vectors: gate fanins are stored
//! inline, the cover memoizes in dense per-node vectors, the DFF plan and
//! the timing graph are compressed sparse rows. Each vector is one
//! allocation that grows by doubling at most, so one constant per stage
//! bounds its call count on a small and a large subject alike, and a stage
//! that allocated per node, cell or driver again would break it.

use sfq_circuits::epfl::multiplier;
use sfq_netlist::aig::Aig;
use sfq_obs::alloc::{self, CountingAlloc};
use std::sync::Mutex;
use t1map::cells::CellLibrary;
use t1map::dff::insert_dffs;
use t1map::flow::{run_flow, FlowConfig, FlowResult};
use t1map::mapper::map;
use t1map::timing::{analyze_mapped, TimingConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Held by each test for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Allocator calls each stage may make, whatever the subject's size: the
/// first allocation and each doubling of the stage's growing vectors.
const BOUND: u64 = 64;

/// The allocator calls `f` makes, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    sfq_obs::enable();
    let out = f();
    let calls = alloc::stats().calls;
    sfq_obs::disable();
    (out, calls)
}

/// A small and a large subject, each with the T1 flow's result on it. The
/// large one has far more gates, T1 cells and drivers than [`BOUND`].
fn subjects() -> Vec<(Aig, FlowResult)> {
    let lib = CellLibrary::default();
    let config = FlowConfig {
        timing: TimingConfig::standard(),
        ..FlowConfig::t1(4)
    };
    let subjects: Vec<(Aig, FlowResult)> = [4, 16]
        .into_iter()
        .map(|width| {
            let aig = multiplier(width);
            let flow = run_flow(&aig, &lib, &config);
            (aig, flow)
        })
        .collect();
    let (_, large) = &subjects[1];
    let (gates, t1s) = (large.mapped.gate_count(), large.mapped.t1_count());
    let drivers = large.plan.drivers().len();
    assert!(
        gates.min(t1s).min(drivers) as u64 > 2 * BOUND,
        "{gates} gates, {t1s} T1 cells, {drivers} drivers"
    );
    subjects
}

#[test]
fn map_allocates_a_fixed_number_of_times() {
    let _serial = serial();
    let lib = CellLibrary::default();
    for (aig, flow) in subjects() {
        let (_, calls) = counted(|| map(&aig, &lib, None));
        assert!(
            calls <= BOUND,
            "{} ANDs: map made {calls} calls",
            aig.and_count()
        );
        // The T1-aware cover of the same network, with the flow's
        // selection, reproduces the flow's netlist.
        let selection = t1map::detect::detect(&aig, &lib, &Default::default()).selection;
        let (cover, calls) = counted(|| map(&aig, &lib, Some(&selection)));
        assert_eq!(cover.circuit, flow.mapped);
        assert!(
            calls <= BOUND,
            "{} ANDs: T1 map made {calls} calls",
            aig.and_count()
        );
    }
}

#[test]
fn insert_dffs_allocates_a_fixed_number_of_times() {
    let _serial = serial();
    for (aig, flow) in subjects() {
        let (plan, calls) = counted(|| insert_dffs(&flow.mapped, &flow.schedule));
        assert_eq!(plan, flow.plan);
        assert!(
            calls <= BOUND,
            "{} ANDs, {} drivers: insert_dffs made {calls} calls",
            aig.and_count(),
            plan.drivers().len()
        );
    }
}

#[test]
fn timing_allocates_a_fixed_number_of_times() {
    let _serial = serial();
    for (aig, flow) in subjects() {
        let (summary, calls) = counted(|| {
            analyze_mapped(&flow.mapped, &flow.schedule).summary(
                &flow.mapped,
                &flow.schedule,
                &flow.plan,
            )
        });
        assert_eq!(Some(summary), flow.timing);
        assert!(
            calls <= BOUND,
            "{} ANDs, {} cells: timing made {calls} calls",
            aig.and_count(),
            flow.mapped.len()
        );
    }
}
