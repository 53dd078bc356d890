//! Reporting-layer integration tests: ratio columns, averages, CSV schema,
//! Verilog export consistency and library-driven area accounting on real
//! flow results.

mod common;

use common::table;
use sfq_t1::circuits::epfl;
use sfq_t1::t1map::cells::CellLibrary;
use sfq_t1::t1map::flow::{run_flow, FlowConfig};
use sfq_t1::t1map::verilog::{cell_models, export, ExportOptions};

#[test]
fn ratios_are_consistent_with_stats() {
    let row = table(vec![("adder10", epfl::adder(10))]).rows.remove(0);
    assert!((row.dff_ratio_1() - row.t1.dffs as f64 / row.single.dffs as f64).abs() < 1e-12);
    assert!((row.area_ratio_n() - row.t1.area as f64 / row.multi.area as f64).abs() < 1e-12);
    assert!(
        (row.depth_ratio_n() - row.t1.depth_cycles as f64 / row.multi.depth_cycles as f64).abs()
            < 1e-12
    );
}

#[test]
fn averages_are_means_of_rows() {
    let t = table(vec![("a", epfl::adder(6)), ("b", epfl::adder(10))]);
    let avg = t.averages();
    let expect0 = (t.rows[0].dff_ratio_1() + t.rows[1].dff_ratio_1()) / 2.0;
    assert!((avg[0] - expect0).abs() < 1e-12);
    let expect3 = (t.rows[0].area_ratio_n() + t.rows[1].area_ratio_n()) / 2.0;
    assert!((avg[3] - expect3).abs() < 1e-12);
}

#[test]
fn csv_schema_is_stable() {
    let t = table(vec![("adder6", epfl::adder(6))]);
    let csv = t.to_csv();
    let header = csv.lines().next().expect("header");
    let fields: Vec<&str> = header.split(',').collect();
    assert_eq!(fields.len(), 18, "schema: {header}");
    let row = csv.lines().nth(1).expect("row");
    assert_eq!(row.split(',').count(), fields.len(), "row matches header");
}

#[test]
fn verilog_wire_counts_match_netlist() {
    let lib = CellLibrary::default();
    let res = run_flow(&epfl::adder(6), &lib, &FlowConfig::t1(4));
    let v = export(
        &res,
        &ExportOptions {
            module_name: "adder6".into(),
        },
    );
    let t1_instances = v.matches("sfq_t1 t1_").count();
    assert_eq!(t1_instances, res.mapped.t1_count());
    let gate_instances = v.matches("sfq_gate").count() - cell_models_gate_decls();
    // All instantiated gates come from the mapped netlist (arity 1..3).
    assert_eq!(gate_instances, res.mapped.gate_count());
    // Cell models are self-contained.
    assert!(cell_models().contains("module sfq_t1"));
}

fn cell_models_gate_decls() -> usize {
    0 // `export` emits instances only; declarations live in `cell_models()`.
}

#[test]
fn custom_library_changes_area_accounting() {
    let aig = epfl::adder(8);
    let mut lib = CellLibrary::default();
    let base = run_flow(&aig, &lib, &FlowConfig::multiphase(4)).stats.area;
    lib.dff *= 2;
    let heavier = run_flow(&aig, &lib, &FlowConfig::multiphase(4)).stats.area;
    assert!(heavier > base, "doubling DFF cost must increase area");
}
