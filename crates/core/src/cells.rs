//! SFQ standard-cell library and area model.
//!
//! The paper measures area in Josephson-junction (JJ) counts, following the
//! standard cell library of Yorozu et al. (ref \[6\]). We use a parametric
//! [`CellLibrary`]; the defaults are calibrated so the derived quantities the
//! paper states hold:
//!
//! - a T1-based full adder costs [`CellLibrary::t1_assembly`] = 29 JJ
//!   (T1 core + the two mergers funnelling three operands into `T`),
//! - the conventional full adder (XOR3 + MAJ3 from 2-input clocked cells,
//!   with input splitters) costs ≈ 72 JJ — i.e. the T1 realization needs
//!   only ~40 % of the area, the paper's §I claim.
//!
//! Two-input clocked gates are charged by NPN class: AND-class cells
//! (AND/NAND/OR/NOR and inverted-input variants) share one cost, XOR-class
//! (XOR/XNOR) another; single-input cells are NOT/BUF. Input polarity is
//! absorbed into the cell variant, which is why costs are per class
//! (DESIGN.md §4).

use crate::func3;
use sfq_netlist::truth_table::TruthTable;

/// Functional class of a (≤ 3)-input clocked SFQ cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateClass {
    /// Constant output (degenerate; realized as omitted wiring).
    Constant,
    /// Buffer / DFF-like single-input pass.
    Buffer,
    /// Inverter.
    Not,
    /// AND/OR/NAND/NOR and inverted-input variants.
    AndClass,
    /// XOR/XNOR.
    XorClass,
    /// 3-input majority (carry cell), any polarity variant.
    Maj3Class,
}

/// Classifies a gate truth table into its cost class, or `None` if no
/// library cell implements it.
///
/// The only 3-input cell is ±MAJ3 modulo input polarities. In particular
/// there is no XOR3: like the standard cell library of ref \[6\], sums are
/// realized as two XOR2 levels, which is what gives the paper's baseline
/// its fourth path-balancing chain per adder bit (and the T1 flow its 25%
/// adder win). The class is a lookup into the 3-input function table.
///
/// # Panics
///
/// Panics if `tt` has more than three variables (wider cells do not exist
/// in the baseline library; the T1 cell is costed separately).
pub fn classify(tt: TruthTable) -> Option<GateClass> {
    assert!(
        tt.num_vars() <= 3,
        "baseline SFQ cells have at most 3 inputs"
    );
    func3::class(tt)
}

/// JJ-count area model for all cells used by the flows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellLibrary {
    /// Path-balancing D flip-flop.
    pub dff: u32,
    /// Splitter (one extra fanout branch each).
    pub splitter: u32,
    /// Clocked inverter.
    pub not: u32,
    /// Clocked buffer (rarely instantiated; DFFs serve as buffers).
    pub buffer: u32,
    /// AND-class 2-input clocked gate.
    pub and2: u32,
    /// XOR-class 2-input clocked gate.
    pub xor2: u32,
    /// 3-input majority (carry) cell.
    pub maj3: u32,
    /// Confluence buffer (merger).
    pub merger: u32,
    /// T1 flip-flop core (Fig. 1a of the paper).
    pub t1_core: u32,
}

impl Default for CellLibrary {
    /// Default JJ counts (approximating ref \[6\]; see module docs).
    fn default() -> Self {
        CellLibrary {
            dff: 6,
            splitter: 3,
            not: 9,
            buffer: 4,
            and2: 10,
            xor2: 10,
            maj3: 14,
            merger: 5,
            t1_core: 19,
        }
    }
}

impl CellLibrary {
    /// Creates the default library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cost of a library gate given its truth table, or `None` if no cell
    /// implements the function.
    ///
    /// # Panics
    ///
    /// Panics if `tt` has more than three variables.
    pub fn gate_cost_checked(&self, tt: TruthTable) -> Option<u32> {
        classify(tt).map(|class| match class {
            GateClass::Constant => 0,
            GateClass::Buffer => self.buffer,
            GateClass::Not => self.not,
            GateClass::AndClass => self.and2,
            GateClass::XorClass => self.xor2,
            GateClass::Maj3Class => self.maj3,
        })
    }

    /// Cost of a library gate given its truth table.
    ///
    /// # Panics
    ///
    /// Panics if `tt` has more than three variables or no cell implements
    /// the function (use [`CellLibrary::gate_cost_checked`] to filter).
    pub fn gate_cost(&self, tt: TruthTable) -> u32 {
        self.gate_cost_checked(tt)
            .expect("no library cell implements this function")
    }

    /// Full cost of one T1 assembly: core plus the two mergers combining the
    /// three operand streams onto the `T` input.
    pub fn t1_assembly(&self) -> u32 {
        self.t1_core + 2 * self.merger
    }

    /// Feeds a canonical encoding of the library into `h` — every JJ cost in
    /// fixed declaration order behind a version tag — so equal libraries
    /// produce equal digests across processes. Part of the `sfq-engine`
    /// content-addressed cache key.
    pub fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
        h.write_u8(1); // encoding version
        for cost in [
            self.dff,
            self.splitter,
            self.not,
            self.buffer,
            self.and2,
            self.xor2,
            self.maj3,
            self.merger,
            self.t1_core,
        ] {
            h.write_u32(cost);
        }
    }

    /// Cost of the conventional (non-T1) full adder for reference: XOR3 as
    /// two XOR2 levels, MAJ3 as three AND2 + two OR2(-class) cells
    /// (splitters excluded — they are charged at the netlist level).
    pub fn conventional_full_adder(&self) -> u32 {
        2 * self.xor2 + 5 * self.and2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> TruthTable {
        TruthTable::var(2, i)
    }

    #[test]
    fn classification_covers_all_2var_functions() {
        for bits in 0u64..16 {
            let tt = TruthTable::from_bits(2, bits);
            let class = classify(tt).expect("all 2-var functions are cells");
            match bits {
                0b0000 | 0b1111 => assert_eq!(class, GateClass::Constant),
                0b1010 | 0b1100 => assert_eq!(class, GateClass::Buffer),
                0b0101 | 0b0011 => assert_eq!(class, GateClass::Not),
                0b0110 | 0b1001 => assert_eq!(class, GateClass::XorClass),
                _ => assert_eq!(class, GateClass::AndClass, "bits {bits:#06b}"),
            }
        }
    }

    #[test]
    fn and_or_nand_nor_share_class() {
        let and = v(0) & v(1);
        let or = v(0) | v(1);
        assert_eq!(classify(and), classify(or));
        assert_eq!(classify(!and), Some(GateClass::AndClass));
        assert_eq!(classify(!or), Some(GateClass::AndClass));
    }

    #[test]
    fn three_input_cells_classified() {
        assert_eq!(classify(TruthTable::maj3()), Some(GateClass::Maj3Class));
        assert_eq!(classify(!TruthTable::maj3()), Some(GateClass::Maj3Class));
        assert_eq!(
            classify(TruthTable::maj3().flip_var(1)),
            Some(GateClass::Maj3Class),
            "negated-input majority variant"
        );
        // XOR3 is intentionally NOT a baseline cell (sums are 2-level XOR2).
        assert_eq!(classify(TruthTable::xor3()), None);
        assert_eq!(classify(!TruthTable::xor3()), None);
        // OR3 and other 3-input functions are not baseline cells either.
        assert_eq!(classify(TruthTable::or3()), None);
        let and3 = TruthTable::var(3, 0) & TruthTable::var(3, 1) & TruthTable::var(3, 2);
        assert_eq!(classify(and3), None);
        // A 3-var table with 2-var support still classifies as 2-input.
        let xor_pair = TruthTable::var(3, 0) ^ TruthTable::var(3, 2);
        assert_eq!(classify(xor_pair), Some(GateClass::XorClass));
    }

    #[test]
    fn mapped_full_adder_uses_efficient_cells() {
        // With the MAJ3 carry cell and 2-level XOR2 sums the conventional
        // mapped FA is 34 JJ — the baseline the T1 (29 JJ + shared outputs
        // + one fewer balancing chain) competes against.
        let lib = CellLibrary::default();
        assert_eq!(lib.maj3 + 2 * lib.xor2, 34);
        assert!(lib.t1_assembly() < lib.maj3 + 2 * lib.xor2);
    }

    #[test]
    fn paper_area_claims_hold() {
        let lib = CellLibrary::default();
        // §I: T1 full adder = 29 JJ.
        assert_eq!(lib.t1_assembly(), 29);
        // §I: "only 40% of the area required by the conventional realization"
        // and "60% fewer JJs": conventional ≈ 72.
        let conv = lib.conventional_full_adder();
        assert!((69..=79).contains(&conv), "conventional FA = {conv} JJ");
        let ratio = lib.t1_assembly() as f64 / conv as f64;
        assert!(ratio > 0.35 && ratio < 0.45, "T1/conventional = {ratio:.2}");
    }

    #[test]
    fn gate_costs() {
        let lib = CellLibrary::default();
        assert_eq!(lib.gate_cost(v(0) & v(1)), 10);
        assert_eq!(lib.gate_cost(v(0) ^ v(1)), 10);
        assert_eq!(lib.gate_cost(!TruthTable::var(1, 0).extend_to(2)), 9);
        assert_eq!(lib.gate_cost(TruthTable::zero(2)), 0);
    }
}
