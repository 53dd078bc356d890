//! Allocator counts of decoding a store entry. This test binary installs
//! [`sfq_obs::alloc::CountingAlloc`] as its global allocator; each test
//! holds one lock from start to end, so the counters see every call one
//! decode makes and nothing of the other test.
//!
//! A decoded entry owns one fanin vector per gate; every other vector
//! (the cells, the schedule's arrays, the DFF plan's shared arrays and the
//! derivation's working buffers) is one allocation that grows by
//! doubling. So the call count of decoding and deriving the plan is the
//! gate count plus a small constant, and a decoder that allocated per
//! driver again would break the bound.

use sfq_circuits::epfl::adder;
use sfq_engine::store::codec::{decode, encode, DecodeError};
use sfq_obs::alloc::{self, AllocStats, CountingAlloc};
use std::sync::Mutex;
use t1map::cells::CellLibrary;
use t1map::flow::{run_flow, FlowConfig, FlowResult};
use t1map::mapped::MappedCell;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Held by each test for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Allocator calls a decode may make beyond one per gate: the first
/// allocation and each doubling of the entry's growing vectors.
const SLACK: u64 = 64;

/// The allocation counters of decoding `bytes`, with its outcome.
fn counted_decode(bytes: &[u8]) -> (Result<FlowResult, DecodeError>, AllocStats) {
    sfq_obs::enable();
    let decoded = decode(bytes);
    let stats = alloc::stats();
    sfq_obs::disable();
    (decoded, stats)
}

#[test]
fn decode_allocates_per_gate_not_per_driver() {
    let _serial = serial();
    let result = run_flow(&adder(16), &CellLibrary::default(), &FlowConfig::t1(4));
    assert!(result.stats.t1_used > 0, "a T1 entry");
    let text = encode(&result);
    let gates = result
        .mapped
        .cells()
        .filter(|(_, cell)| matches!(cell, MappedCell::Gate { .. }))
        .count() as u64;
    let drivers = result.plan.drivers().len() as u64;
    assert!(
        drivers >= SLACK,
        "{drivers} drivers: one allocation each would break the bound"
    );

    let (back, stats) = counted_decode(text.as_bytes());
    assert_eq!(back, Ok(result));
    assert!(
        stats.calls <= gates + SLACK,
        "decode made {} allocator calls for {gates} gates and {drivers} drivers",
        stats.calls
    );
}

/// The entry CI writes over a whole store: well formed (one input, one
/// buffer, one phase), but its schedule puts a 2^62-stage gap before the
/// buffer, so deriving its plan would build 2^62 chain members. Decoding
/// refuses it at the `sched` line with a few times its length allocated.
/// The same entry with a 1-stage gap decodes.
#[test]
fn a_huge_stage_gap_is_refused_without_a_large_allocation() {
    let _serial = serial();
    let entry = "sfq-flow-result v3\nstats 0 0 0 0 0 0 0 0\ncells 2\ni 0\ng 1 2 0 0 0\n\
                 pos 1\np 1 0 0\nsched 1 4611686018427387904 2\n\
                 stages 0 4611686018427387904\nt1off 2 0\npreopt 0\ntiming 0\nend\n";
    let (decoded, stats) = counted_decode(entry.as_bytes());
    let err = decoded.expect_err("refused");
    assert!(err.reason.contains("implausible") && err.line == 8, "{err}");
    assert!(
        stats.peak <= 16 * entry.len() as u64,
        "{} bytes live at peak for a {}-byte entry",
        stats.peak,
        entry.len()
    );
    let sound = entry.replace("4611686018427387904", "1");
    assert_eq!(decode(sound.as_bytes()).map(|r| encode(&r)), Ok(sound));
}
