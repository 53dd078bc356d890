//! The 3-input function table.
//!
//! Every function of at most three variables is one of 256 truth tables:
//! a table of `k ≤ 3` variables is stored normalized (its low block
//! replicated), so `tt.extend_to(3).bits()` is the same 8-bit index for
//! every `k`. For each index the table holds the function's library cell
//! class and its T1 matches, computed once at compile time. Cell
//! classification ([`crate::cells::classify`]) and T1 matching
//! ([`mod@crate::detect`]) are lookups into it.

use crate::cells::GateClass;
use crate::mapped::{T1_PORT_CARRY, T1_PORT_OR, T1_PORT_SUM};
use sfq_netlist::truth_table::TruthTable;

/// One way a 3-input function is realized by a T1 output port: the cut
/// function equals the port function with the operands in `mask` negated,
/// complemented iff `output_invert`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct T1Match {
    /// Operand negation mask (bit `i`: operand `i` enters negated).
    pub mask: u8,
    /// T1 output port (see `mapped::T1_PORT_*`).
    pub port: u8,
    /// Whether the function is the complement of the port output.
    pub output_invert: bool,
}

/// Cell class and T1 matches of one 3-input truth table.
#[derive(Clone, Copy)]
struct Entry {
    class: Option<GateClass>,
    /// At most one match per negation mask, in ascending mask order.
    matches: [T1Match; 8],
    len: u8,
}

/// Variable projections over three variables (bit `i` of a table is the
/// value at the input assignment whose bit `v` is variable `v`).
const VARS: [u8; 3] = [0xAA, 0xCC, 0xF0];
const MAJ3: u8 = 0xE8;
/// The T1 ports in match priority order: per mask, the first port whose
/// function matches wins.
const PORTS: [(u8, u8); 3] = [
    (T1_PORT_SUM, 0x96), // XOR3
    (T1_PORT_CARRY, MAJ3),
    (T1_PORT_OR, 0xFE), // OR3
];

static TABLE: [Entry; 256] = build();

fn entry(tt: TruthTable) -> &'static Entry {
    &TABLE[tt.extend_to(3).bits() as usize]
}

/// The library cell class of `tt`, or `None` if no cell implements it.
///
/// # Panics
///
/// Panics if `tt` has more than three variables.
pub(crate) fn class(tt: TruthTable) -> Option<GateClass> {
    entry(tt).class
}

/// The T1 matches of `tt`, at most one per negation mask, in ascending
/// mask order. Empty unless `tt` depends on all three variables.
///
/// # Panics
///
/// Panics if `tt` has more than three variables.
pub(crate) fn t1_matches(tt: TruthTable) -> &'static [T1Match] {
    let e = entry(tt);
    &e.matches[..e.len as usize]
}

/// Complements variable `v` of a 3-variable table.
const fn flip(t: u8, v: usize) -> u8 {
    let m = VARS[v];
    let shift = 1 << v;
    ((t & m) >> shift) | ((t & !m) << shift)
}

/// Negates the variables in `mask`.
const fn apply_mask(t: u8, mask: u8) -> u8 {
    let mut out = t;
    let mut v = 0;
    while v < 3 {
        if mask >> v & 1 == 1 {
            out = flip(out, v);
        }
        v += 1;
    }
    out
}

const fn classify(t: u8) -> Option<GateClass> {
    let mut support = [0usize; 3];
    let mut k = 0;
    let mut v = 0;
    while v < 3 {
        if flip(t, v) != t {
            support[k] = v;
            k += 1;
        }
        v += 1;
    }
    match k {
        0 => Some(GateClass::Constant),
        1 if t == VARS[support[0]] => Some(GateClass::Buffer),
        1 => Some(GateClass::Not),
        2 => {
            let xor = VARS[support[0]] ^ VARS[support[1]];
            if t == xor || t == !xor {
                Some(GateClass::XorClass)
            } else {
                Some(GateClass::AndClass)
            }
        }
        _ => {
            // MAJ3's orbit under input and output negation is the only
            // 3-input cell.
            let mut mask = 0;
            while mask < 8 {
                let m = apply_mask(MAJ3, mask);
                if t == m || t == !m {
                    return Some(GateClass::Maj3Class);
                }
                mask += 1;
            }
            None
        }
    }
}

const fn build() -> [Entry; 256] {
    const NONE: T1Match = T1Match {
        mask: 0,
        port: 0,
        output_invert: false,
    };
    let mut table = [Entry {
        class: None,
        matches: [NONE; 8],
        len: 0,
    }; 256];
    let mut i = 0;
    while i < 256 {
        let t = i as u8;
        let e = &mut table[i];
        e.class = classify(t);
        let mut mask = 0;
        while mask < 8 {
            let mut p = 0;
            while p < PORTS.len() {
                let (port, base) = PORTS[p];
                let target = apply_mask(base, mask);
                if t == target || t == !target {
                    e.matches[e.len as usize] = T1Match {
                        mask,
                        port,
                        output_invert: t != target,
                    };
                    e.len += 1;
                    break;
                }
                p += 1;
            }
            mask += 1;
        }
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cell classification the table replaces, kept as its oracle.
    fn classify_reference(tt: TruthTable) -> Option<GateClass> {
        match tt.support_size() {
            0 => Some(GateClass::Constant),
            1 => {
                let (small, _) = tt.shrink_to_support();
                if small == TruthTable::var(1, 0) {
                    Some(GateClass::Buffer)
                } else {
                    Some(GateClass::Not)
                }
            }
            2 => {
                let (small, _) = tt.shrink_to_support();
                let xor = TruthTable::var(2, 0) ^ TruthTable::var(2, 1);
                if small == xor || small == !xor {
                    Some(GateClass::XorClass)
                } else {
                    Some(GateClass::AndClass)
                }
            }
            _ => {
                let (small, _) = tt.shrink_to_support();
                let m3 = TruthTable::maj3();
                for mask in 0u8..8 {
                    let t = apply_mask_reference(m3, mask);
                    if small == t || small == !t {
                        return Some(GateClass::Maj3Class);
                    }
                }
                None
            }
        }
    }

    /// The three T1-implementable functions, as (port, base table) pairs.
    fn port_functions() -> [(u8, TruthTable); 3] {
        [
            (T1_PORT_SUM, TruthTable::xor3()),
            (T1_PORT_CARRY, TruthTable::maj3()),
            (T1_PORT_OR, TruthTable::or3()),
        ]
    }

    fn apply_mask_reference(tt: TruthTable, mask: u8) -> TruthTable {
        let mut out = tt;
        for v in 0..3 {
            if mask >> v & 1 == 1 {
                out = out.flip_var(v);
            }
        }
        out
    }

    /// Detection's mask × port matching loop the table replaces: for a
    /// 3-leaf cut of full support, the first matching port per mask.
    fn t1_matches_reference(tt: TruthTable) -> Vec<T1Match> {
        let mut out = Vec::new();
        if tt.support_size() != 3 {
            return out;
        }
        for mask in 0u8..8 {
            for &(port, base) in &port_functions() {
                let target = apply_mask_reference(base, mask);
                let output_invert = if tt == target {
                    false
                } else if tt == !target {
                    true
                } else {
                    continue;
                };
                out.push(T1Match {
                    mask,
                    port,
                    output_invert,
                });
                break;
            }
        }
        out
    }

    #[test]
    fn class_matches_reference_on_every_function() {
        for vars in 0..=3 {
            for bits in 0..1u64 << (1 << vars) {
                let tt = TruthTable::from_bits(vars, bits);
                assert_eq!(class(tt), classify_reference(tt), "{vars} vars, {bits:#x}");
            }
        }
    }

    #[test]
    fn t1_matches_equal_reference_on_every_function() {
        let mut matched = 0;
        for bits in 0..256 {
            let tt = TruthTable::from_bits(3, bits);
            let reference = t1_matches_reference(tt);
            assert_eq!(t1_matches(tt), reference.as_slice(), "{bits:#04x}");
            matched += usize::from(!reference.is_empty());
        }
        // ±XOR3 (2), the MAJ3 orbit (8) and the OR3 orbit (16).
        assert_eq!(matched, 26);
    }
}
