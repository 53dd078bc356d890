//! Allocator counts of decoding a store entry. This test binary installs
//! [`sfq_obs::alloc::CountingAlloc`] as its global allocator; each test
//! holds one lock from start to end, so the counters see every call one
//! decode makes and nothing of the other test.
//!
//! A decoded entry allocates a fixed number of vectors: the cells (gate
//! fanins are stored inline), the outputs, the schedule's arrays, the DFF
//! plan's shared arrays and the derivation's working buffers, each one
//! allocation that grows by doubling at most. So one constant bounds the
//! call count of decoding and deriving the plan whatever the entry's size,
//! and a decoder that allocated per gate or per driver again would break
//! it.

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

/// Allocator calls a decode may make, whatever the entry's size: the
/// first allocation and each doubling of the entry's growing vectors.
const BOUND: u64 = 48;

/// The allocation counters of decoding `bytes`, with its outcome.
fn counted_decode(bytes: &[u8]) -> (Result<FlowResult, DecodeError>, AllocStats) {
    sfq_obs::enable();
    let decoded = decode(bytes);
    let stats = alloc::stats();
    sfq_obs::disable();
    (decoded, stats)
}

/// A T1 entry and a wider single-phase one decode within the same
/// [`BOUND`], though each has more drivers than the bound and the wider
/// one more gates too.
#[test]
fn decode_allocates_a_fixed_number_of_times() {
    let _serial = serial();
    let lib = CellLibrary::default();
    for (width, config) in [(16, FlowConfig::t1(4)), (128, FlowConfig::single_phase())] {
        let result = run_flow(&adder(width), &lib, &config);
        assert_eq!(result.stats.t1_used > 0, config.use_t1);
        let text = encode(&result);
        let gates = result
            .mapped
            .cells()
            .filter(|(_, cell)| matches!(cell, MappedCell::Gate { .. }))
            .count() as u64;
        let drivers = result.plan.drivers().len() as u64;
        // The T1 entry is nearly all T1 cells; the single-phase one has a
        // gate per T1 cell it lacks.
        assert!(
            drivers > BOUND && (config.use_t1 || gates > BOUND),
            "{gates} gates and {drivers} drivers: one allocation each must break the bound"
        );

        let (back, stats) = counted_decode(text.as_bytes());
        assert_eq!(back, Ok(result));
        assert!(
            stats.calls <= BOUND,
            "adder({width}): decode made {} allocator calls for {gates} gates and {drivers} drivers",
            stats.calls
        );
    }
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
