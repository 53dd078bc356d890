//! Reproduces Fig. 1b (the T1 pulse waveform) and Fig. 1c (the T1 full
//! adder under multiphase clocking) of the paper.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example t1_full_adder
//! ```

use sfq_t1::sim::pulse::{Fanin, OutRef, PulseCircuit};
use sfq_t1::sim::t1cell::T1Cell;

/// Fig. 1b: drive the cell with the paper's pulse script — epochs carrying
/// `a`, then `a b`, then `a b c` — and print the observed events.
fn fig1b() {
    println!("=== Fig. 1b: T1 cell simulation ===");
    println!("{:<8} {:<10} {:<6} outputs", "time", "input", "loop");
    let mut t1 = T1Cell::new(500);
    let apply = |t1: &mut T1Cell, time: u64, input: &str| {
        let events = if input == "clock(R)" {
            t1.pulse_r(time)
        } else {
            t1.pulse_t(time)
        };
        let evs: Vec<String> = events.iter().map(|e| format!("{e:?}")).collect();
        println!(
            "{:<8} {:<10} {:<6} {}",
            time,
            input,
            t1.state() as u8,
            evs.join(" ")
        );
    };
    // Epoch 1: a
    apply(&mut t1, 1000, "a");
    apply(&mut t1, 4000, "clock(R)");
    // Epoch 2: a, b
    apply(&mut t1, 5000, "a");
    apply(&mut t1, 6000, "b");
    apply(&mut t1, 8000, "clock(R)");
    // Epoch 3: a, b, c
    apply(&mut t1, 9000, "a");
    apply(&mut t1, 10000, "b");
    apply(&mut t1, 11000, "c");
    apply(&mut t1, 12000, "clock(R)");
    assert_eq!(t1.hazards(), 0);
    println!("hazards: {}\n", t1.hazards());
}

/// Fig. 1c: the full adder built from one T1 cell; the operands are
/// released at phases φ0, φ1, φ2 of a 4-phase epoch and the cell is read
/// (R = clock) at the next φ0. All eight operand combinations are streamed
/// wave-pipelined.
fn fig1c() {
    println!("=== Fig. 1c: T1 full adder, 4-phase clocking ===");
    let mut c = PulseCircuit::new();
    let a = c.add_input();
    let b = c.add_input();
    let cin = c.add_input();
    // Release DFFs at stages 1 (φ1), 2 (φ2), 3 (φ3): temporally separated.
    let da = c.add_dff(Fanin::plain(a), 1);
    let db = c.add_dff(Fanin::plain(b), 2);
    let dc = c.add_dff(Fanin::plain(cin), 3);
    let t1 = c.add_t1([Fanin::plain(da), Fanin::plain(db), Fanin::plain(dc)], 4);
    c.add_output(
        Fanin {
            source: OutRef { elem: t1, port: 0 },
            invert: false,
        },
        5,
    ); // S
    c.add_output(
        Fanin {
            source: OutRef { elem: t1, port: 1 },
            invert: false,
        },
        5,
    ); // C
    c.add_output(
        Fanin {
            source: OutRef { elem: t1, port: 2 },
            invert: false,
        },
        5,
    ); // Q

    let vectors: Vec<Vec<bool>> = (0..8u32)
        .map(|i| (0..3).map(|k| (i >> k) & 1 == 1).collect())
        .collect();
    let out = c.simulate(&vectors, 4).expect("valid schedule");
    println!(
        "{:<10} {:>12} {:>12} {:>10}",
        "a b cin", "S (xor3)", "C (maj3)", "Q (or3)"
    );
    for (i, o) in out.outputs.iter().enumerate() {
        println!(
            "{} {} {}    {:>10} {:>12} {:>12}",
            i & 1,
            (i >> 1) & 1,
            (i >> 2) & 1,
            o[0] as u8,
            o[1] as u8,
            o[2] as u8
        );
        let ones = (i as u32).count_ones();
        assert_eq!(o[0], ones % 2 == 1);
        assert_eq!(o[1], ones >= 2);
        assert_eq!(o[2], ones >= 1);
    }
    println!(
        "hazards: {} (multiphase staggering keeps T pulses separated)",
        out.hazards
    );
    assert_eq!(out.hazards, 0);

    // Counter-experiment: release all three operands at the SAME phase —
    // the behavioural model reports pulse-overlap hazards, the failure mode
    // the paper's flow is designed to prevent.
    let mut bad = T1Cell::new(500);
    bad.pulse_t(1000);
    bad.pulse_t(1010);
    bad.pulse_t(1020);
    println!(
        "\nwithout staggering: {} hazards on one epoch",
        bad.hazards()
    );
    assert!(bad.hazards() > 0);
}

fn main() {
    fig1b();
    fig1c();
}
