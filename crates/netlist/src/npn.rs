//! Exact NPN canonization for small functions.
//!
//! Two functions are NPN-equivalent when one can be obtained from the other
//! by Negating inputs, Permuting inputs, and/or Negating the output. Boolean
//! matching against a cell library (here: the T1 cell's output functions)
//! reduces to comparing NPN canonical forms.
//!
//! For functions of up to four variables exhaustive enumeration of the
//! `2 · n! · 2^n` transforms is cheap and exact, which is all the T1 mapping
//! flow requires (cuts are at most four inputs wide). A call allocates
//! nothing: permutations are walked in Heap's order with one variable swap
//! per step, ≈2.4 µs for a 4-input function in a release build.
//!
//! # Examples
//!
//! ```
//! use sfq_netlist::truth_table::TruthTable;
//! use sfq_netlist::npn::npn_canonical;
//!
//! // MAJ(a, b, c) and !MAJ(!a, !b, !c) are NPN-equivalent (self-dual).
//! let maj = TruthTable::maj3();
//! let dual = !maj.flip_var(0).flip_var(1).flip_var(2);
//! assert_eq!(npn_canonical(maj).canon, npn_canonical(dual).canon);
//! ```

use crate::truth_table::TruthTable;

/// The result of canonizing a function, together with the transform that
/// maps the *original* function to the canonical one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NpnCanon {
    /// The canonical (lexicographically smallest) representative.
    pub canon: TruthTable,
    /// Permutation applied: `perm[i]` is the canonical position of input `i`.
    pub perm: [u8; TruthTable::MAX_VARS],
    /// Input complementation mask (bit `i` set means input `i` was negated
    /// before permuting).
    pub input_neg: u8,
    /// Whether the output was complemented.
    pub output_neg: bool,
}

/// Visits every permutation of the first `k` entries of `items` in Heap's
/// order, keeping `h` equal to the visit's base table permuted by `items`
/// (`items[i]` is the position of variable `i`): each item swap is mirrored
/// by one variable swap of `h`, so no permutation is applied from scratch
/// and nothing is allocated.
fn heap_walk(
    items: &mut [usize; 4],
    h: &mut TruthTable,
    k: usize,
    visit: &mut impl FnMut(&[usize; 4], TruthTable),
) {
    if k <= 1 {
        visit(items, *h);
        return;
    }
    for i in 0..k {
        heap_walk(items, h, k - 1, visit);
        let j = if k.is_multiple_of(2) { i } else { 0 };
        *h = h.swap_vars(items[j], items[k - 1]);
        items.swap(j, k - 1);
    }
}

/// Computes the exact NPN canonical form of `f` by exhaustive enumeration.
///
/// Transforms are tried with the input negation mask ascending, then the
/// permutations in Heap's order, then the uncomplemented output before the
/// complemented one; the first transform reaching the smallest table wins.
/// Callers that see the same function repeatedly memoize the result (the
/// `rewrite` pass's table does, once per process).
///
/// # Panics
///
/// Panics if `f` has more than four variables (exhaustive canonization is
/// only intended for cut functions; wider tables are rejected rather than
/// silently slow).
pub fn npn_canonical(f: TruthTable) -> NpnCanon {
    let n = f.num_vars();
    assert!(
        n <= 4,
        "exact NPN canonization supports at most 4 variables"
    );
    let mut best: Option<NpnCanon> = None;
    for neg_mask in 0u8..(1 << n) {
        let mut g = f;
        for v in 0..n {
            if neg_mask >> v & 1 == 1 {
                g = g.flip_var(v);
            }
        }
        heap_walk(&mut [0, 1, 2, 3], &mut g, n, &mut |perm, h| {
            for out_neg in [false, true] {
                let cand = if out_neg { !h } else { h };
                if best.is_none_or(|b| cand.bits() < b.canon.bits()) {
                    let mut perm_arr = [0u8; TruthTable::MAX_VARS];
                    for (slot, &p) in perm_arr.iter_mut().zip(&perm[..n]) {
                        *slot = p as u8;
                    }
                    best = Some(NpnCanon {
                        canon: cand,
                        perm: perm_arr,
                        input_neg: neg_mask,
                        output_neg: out_neg,
                    });
                }
            }
        });
    }
    best.expect("at least one transform exists")
}

/// Returns `true` if `f` and `g` are NPN-equivalent.
pub fn npn_equivalent(f: TruthTable, g: TruthTable) -> bool {
    f.num_vars() == g.num_vars() && npn_canonical(f).canon == npn_canonical(g).canon
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn and_or_same_class() {
        // AND and OR are NPN-equivalent (De Morgan).
        let a = TruthTable::var(2, 0) & TruthTable::var(2, 1);
        let o = TruthTable::var(2, 0) | TruthTable::var(2, 1);
        assert!(npn_equivalent(a, o));
    }

    #[test]
    fn xor_not_equivalent_to_and() {
        let a = TruthTable::var(2, 0) & TruthTable::var(2, 1);
        let x = TruthTable::var(2, 0) ^ TruthTable::var(2, 1);
        assert!(!npn_equivalent(a, x));
    }

    #[test]
    fn number_of_2var_npn_classes_is_4() {
        // Known result: 4 NPN classes of 2-variable functions
        // (constant, projection, and2, xor2).
        let mut canons = HashSet::new();
        for bits in 0u64..16 {
            canons.insert(npn_canonical(TruthTable::from_bits(2, bits)).canon);
        }
        assert_eq!(canons.len(), 4);
    }

    #[test]
    fn number_of_3var_npn_classes_is_14() {
        // Known result: 14 NPN classes of 3-variable functions.
        let mut canons = HashSet::new();
        for bits in 0u64..256 {
            canons.insert(npn_canonical(TruthTable::from_bits(3, bits)).canon);
        }
        assert_eq!(canons.len(), 14);
    }

    #[test]
    fn maj_is_self_dual() {
        let maj = TruthTable::maj3();
        let dual = !maj.flip_var(0).flip_var(1).flip_var(2);
        assert_eq!(maj, dual, "maj3 is self-dual outright");
        assert!(npn_equivalent(maj, !maj));
    }

    #[test]
    fn or3_and_nor3_equivalent() {
        assert!(npn_equivalent(TruthTable::or3(), !TruthTable::or3()));
        // OR3 and AND3 share a class as well.
        let and3 = TruthTable::var(3, 0) & TruthTable::var(3, 1) & TruthTable::var(3, 2);
        assert!(npn_equivalent(TruthTable::or3(), and3));
    }

    #[test]
    fn xor3_class_is_small() {
        // XOR3's NPN class contains only xor3 and xnor3 (16 transforms all
        // collapse onto two tables).
        let x = TruthTable::xor3();
        assert!(npn_equivalent(x, !x));
        assert!(!npn_equivalent(x, TruthTable::maj3()));
    }

    #[test]
    fn canonical_transform_roundtrip() {
        // Applying the reported transform to the original reproduces canon.
        for bits in [0x96u64, 0xe8, 0x3c, 0x01, 0x7f, 0xaa, 0x55, 0x1b] {
            let f = TruthTable::from_bits(3, bits);
            let c = npn_canonical(f);
            let mut g = f;
            for v in 0..3 {
                if c.input_neg >> v & 1 == 1 {
                    g = g.flip_var(v);
                }
            }
            let perm: Vec<usize> = (0..3).map(|i| c.perm[i] as usize).collect();
            g = g.permute(&perm);
            if c.output_neg {
                g = !g;
            }
            assert_eq!(g, c.canon, "transform roundtrip for {bits:#x}");
        }
    }

    #[test]
    fn match_against_t1_set() {
        let reps = [TruthTable::xor3(), TruthTable::maj3(), TruthTable::or3()];
        let class_of = |f| reps.iter().position(|&r| npn_equivalent(f, r));
        assert_eq!(class_of(TruthTable::xor3()), Some(0));
        assert_eq!(class_of(!TruthTable::maj3()), Some(1));
        let and3 = TruthTable::var(3, 0) & TruthTable::var(3, 1) & TruthTable::var(3, 2);
        assert_eq!(class_of(and3), Some(2));
        let f = TruthTable::var(3, 0);
        assert_eq!(class_of(f), None);
    }

    fn permutations(n: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut items: Vec<usize> = (0..n).collect();
        heap_permute(&mut items, n, &mut out);
        out
    }

    fn heap_permute(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(items.clone());
            return;
        }
        for i in 0..k {
            heap_permute(items, k - 1, out);
            if k.is_multiple_of(2) {
                items.swap(i, k - 1);
            } else {
                items.swap(0, k - 1);
            }
        }
    }

    /// The original allocating canonizer, kept as the reference the
    /// allocation-free one must agree with transform for transform.
    /// `perms` is `permutations(f.num_vars().max(1))`, hoisted out so the
    /// exhaustive comparison builds it once per width.
    fn oracle_canonical(f: TruthTable, perms: &[Vec<usize>]) -> NpnCanon {
        let n = f.num_vars();
        let mut best: Option<NpnCanon> = None;
        for neg_mask in 0u8..(1 << n) {
            let mut g = f;
            for v in 0..n {
                if neg_mask >> v & 1 == 1 {
                    g = g.flip_var(v);
                }
            }
            for perm in perms {
                let h = if n == 0 { g } else { g.permute(perm) };
                for &out_neg in &[false, true] {
                    let cand = if out_neg { !h } else { h };
                    let mut perm_arr = [0u8; TruthTable::MAX_VARS];
                    for (i, &p) in perm.iter().enumerate() {
                        perm_arr[i] = p as u8;
                    }
                    let entry = NpnCanon {
                        canon: cand,
                        perm: perm_arr,
                        input_neg: neg_mask,
                        output_neg: out_neg,
                    };
                    match &best {
                        None => best = Some(entry),
                        Some(b) if cand.bits() < b.canon.bits() => best = Some(entry),
                        _ => {}
                    }
                }
            }
        }
        best.expect("at least one transform exists")
    }

    #[test]
    fn matches_the_oracle_on_every_function_of_up_to_4_vars() {
        // The 2^16 four-input functions dominate; two threads split them.
        let halves = |n: usize| {
            let count = 1u64 << (1 << n);
            [0..count / 2, count / 2..count]
        };
        for n in 0..=4usize {
            let perms = permutations(n.max(1));
            std::thread::scope(|s| {
                for range in halves(n) {
                    let perms = &perms;
                    s.spawn(move || {
                        for bits in range {
                            let f = TruthTable::from_bits(n, bits);
                            let want = oracle_canonical(f, perms);
                            assert_eq!(npn_canonical(f), want, "{n} vars, {bits:#x}");
                        }
                    });
                }
            });
        }
    }
}
