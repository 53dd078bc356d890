//! Exact allocator-call count of decoding a store entry. This test binary
//! installs [`sfq_obs::alloc::CountingAlloc`] as its global allocator and
//! holds a single test, so the counters see every call the decoder makes
//! and nothing else.
//!
//! A decoded entry owns one fanin vector per gate; every other vector
//! (the cells, the schedule's arrays, the DFF plan's shared arrays) is
//! one allocation that grows by doubling. So the call count is the gate
//! count plus a small constant, and a decoder that allocated per driver
//! again would break the bound.

use sfq_circuits::epfl::adder;
use sfq_engine::store::codec::{decode, encode};
use sfq_obs::alloc::{self, CountingAlloc};
use t1map::cells::CellLibrary;
use t1map::flow::{run_flow, FlowConfig};
use t1map::mapped::MappedCell;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Allocator calls a decode may make beyond one per gate: the first
/// allocation and each doubling of the entry's growing vectors.
const SLACK: u64 = 64;

#[test]
fn decode_allocates_per_gate_not_per_driver() {
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

    sfq_obs::enable();
    let back = decode(text.as_bytes());
    let calls = alloc::stats().calls;
    sfq_obs::disable();

    assert_eq!(back.as_ref(), Ok(&result));
    assert!(
        calls <= gates + SLACK,
        "decode made {calls} allocator calls for {gates} gates and {drivers} drivers"
    );
}
