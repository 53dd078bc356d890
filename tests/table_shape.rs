//! Integration test: the Table-I machinery end to end at small scale, and
//! the qualitative *shape* of the paper's results.

mod common;

use common::table;
use sfq_t1::circuits::{epfl, iscas};

#[test]
fn adder_row_shape_matches_paper() {
    // Paper row `adder` (128-bit): T1/1φ DFF 0.18, T1/4φ area 0.75,
    // depth 128/32/33. We check the same row at 32 bits: the ratios are
    // stable under scaling (both terms are dominated by the same
    // quadratic balancing chains).
    let row = table(vec![("adder", epfl::adder(32))]).rows.remove(0);
    assert!(
        row.t1.t1_used >= 30,
        "nearly every FA becomes a T1: {}",
        row.t1.t1_used
    );
    assert!(
        row.dff_ratio_1() < 0.35,
        "T1 crushes 1φ DFFs: {:.2}",
        row.dff_ratio_1()
    );
    assert!(
        row.dff_ratio_n() < 1.0,
        "T1 beats 4φ DFFs: {:.2}",
        row.dff_ratio_n()
    );
    assert!(
        row.area_ratio_n() > 0.6 && row.area_ratio_n() < 0.95,
        "T1 area win in the paper's ballpark (0.75): {:.2}",
        row.area_ratio_n()
    );
    // Depth: T1 costs about one extra cycle (paper: 33 vs 32).
    assert!(
        row.t1.depth_cycles >= row.multi.depth_cycles
            && row.t1.depth_cycles <= row.multi.depth_cycles + 2,
        "T1 depth {} vs 4φ {}",
        row.t1.depth_cycles,
        row.multi.depth_cycles
    );
    // 1φ→4φ depth divides by ~4.
    assert!(row.multi.depth_cycles <= row.single.depth_cycles / 3);
}

#[test]
fn multiplier_benefits_like_paper() {
    // Paper: c6288 area ratio 0.91, multiplier 0.95 vs 4φ.
    let row = table(vec![("c6288", iscas::c6288_like())]).rows.remove(0);
    assert!(
        row.t1.t1_used > 50,
        "array multipliers are full-adder fabrics"
    );
    assert!(
        row.area_ratio_n() < 1.0,
        "T1 wins area on the multiplier: {:.2}",
        row.area_ratio_n()
    );
    assert!(row.area_ratio_n() > 0.8, "win is modest, as in the paper");
}

#[test]
fn c7552_is_neutral_or_regresses() {
    // Paper: c7552 area ratio 1.02 (slight regression) — the comparator
    // shares the a⊕b terms with the adder, shrinking every MFFC.
    let row = table(vec![("c7552", iscas::c7552_like())]).rows.remove(0);
    assert!(
        row.area_ratio_n() >= 0.99,
        "c7552 must not benefit: {:.2}",
        row.area_ratio_n()
    );
}

#[test]
fn averages_match_paper_direction() {
    // On a reduced benchmark set: average area ratio vs 4φ below 1 (the
    // paper reports 0.94), average depth ratio vs 4φ at or above 1
    // (paper: 1.13), and the 1φ ratios far below 1.
    let t = table(vec![
        ("adder", epfl::adder(24)),
        ("square", epfl::square(12)),
        ("mult", epfl::multiplier(10)),
        ("voter", epfl::voter(63)),
    ]);
    let avg = t.averages();
    assert!(avg[2] < 0.7, "area vs 1φ strongly improves: {:.2}", avg[2]);
    assert!(
        avg[3] < 1.0,
        "area vs 4φ improves on average: {:.2}",
        avg[3]
    );
    assert!(avg[5] >= 1.0, "depth vs 4φ does not improve: {:.2}", avg[5]);
    assert!(avg[0] < 0.5, "DFFs vs 1φ strongly improve: {:.2}", avg[0]);
}

#[test]
fn csv_roundtrip_has_all_rows() {
    let t = table(vec![("adder", epfl::adder(8)), ("voter", epfl::voter(15))]);
    let csv = t.to_csv();
    assert_eq!(csv.lines().count(), 3, "header + 2 rows");
    assert!(csv.contains("adder,"));
    assert!(csv.contains("voter,"));
}
