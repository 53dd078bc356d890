//! Small-function truth tables (up to 6 variables) packed into a single `u64`.
//!
//! Cut functions in SFQ technology mapping never exceed a handful of inputs
//! (the T1 cell consumes exactly three), so a fixed-width bitset
//! representation is both simpler and faster than a growable one. Bit `i` of
//! the word stores the function value on the input assignment whose binary
//! encoding is `i` (variable 0 is the least significant input).
//!
//! # Examples
//!
//! ```
//! use sfq_netlist::truth_table::TruthTable;
//!
//! let a = TruthTable::var(3, 0);
//! let b = TruthTable::var(3, 1);
//! let c = TruthTable::var(3, 2);
//! let maj = (a & b) | (a & c) | (b & c);
//! assert_eq!(maj, TruthTable::maj3());
//! assert!(maj.is_totally_symmetric());
//! ```

use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// Masks selecting the positive cofactor bits of variable `v` in a 6-var table.
const VAR_MASK: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// A completely specified Boolean function of at most six variables.
///
/// The table is always stored normalized: bits above `2^num_vars` replicate
/// the low block so that bitwise operators work without masking.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TruthTable {
    bits: u64,
    num_vars: u8,
}

impl TruthTable {
    /// Maximum number of variables representable.
    pub const MAX_VARS: usize = 6;

    /// Creates a table from raw bits over `num_vars` variables.
    ///
    /// Only the low `2^num_vars` bits of `bits` are significant; they are
    /// replicated to fill the word.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 6`.
    pub fn from_bits(num_vars: usize, bits: u64) -> Self {
        assert!(num_vars <= Self::MAX_VARS, "at most 6 variables supported");
        let mut t = TruthTable {
            bits,
            num_vars: num_vars as u8,
        };
        t.normalize();
        t
    }

    /// The constant-zero function of `num_vars` variables.
    pub fn zero(num_vars: usize) -> Self {
        Self::from_bits(num_vars, 0)
    }

    /// The constant-one function of `num_vars` variables.
    pub fn one(num_vars: usize) -> Self {
        Self::from_bits(num_vars, u64::MAX)
    }

    /// The projection function returning variable `var` of `num_vars`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars` or `num_vars > 6`.
    pub fn var(num_vars: usize, var: usize) -> Self {
        assert!(var < num_vars, "variable index out of range");
        Self::from_bits(num_vars, VAR_MASK[var])
    }

    /// Three-input exclusive-or (the T1 cell's `S` output).
    pub fn xor3() -> Self {
        let (a, b, c) = Self::three_vars();
        a ^ b ^ c
    }

    /// Three-input majority (the T1 cell's `C` output).
    pub fn maj3() -> Self {
        let (a, b, c) = Self::three_vars();
        (a & b) | (a & c) | (b & c)
    }

    /// Three-input or (the T1 cell's `Q` output).
    pub fn or3() -> Self {
        let (a, b, c) = Self::three_vars();
        a | b | c
    }

    fn three_vars() -> (Self, Self, Self) {
        (Self::var(3, 0), Self::var(3, 1), Self::var(3, 2))
    }

    /// Number of variables of this function.
    pub fn num_vars(&self) -> usize {
        self.num_vars as usize
    }

    /// The table's whole word: its low `2^num_vars` bits replicated to
    /// fill 64, as [`TruthTable::from_bits`] leaves them.
    pub(crate) fn word(&self) -> u64 {
        self.bits
    }

    /// The table over `num_vars` variables whose whole word is `word`, as
    /// [`TruthTable::word`] returned it.
    pub(crate) fn from_word(num_vars: u8, word: u64) -> Self {
        TruthTable {
            bits: word,
            num_vars,
        }
    }

    /// Raw bit representation (low `2^num_vars` bits are significant).
    pub fn bits(&self) -> u64 {
        self.bits & self.low_mask()
    }

    fn low_mask(&self) -> u64 {
        if self.num_vars as usize >= Self::MAX_VARS {
            u64::MAX
        } else {
            (1u64 << (1usize << self.num_vars)) - 1
        }
    }

    fn normalize(&mut self) {
        let mut width = 1usize << self.num_vars;
        self.bits &= self.low_mask();
        while width < 64 {
            self.bits |= self.bits << width;
            width <<= 1;
        }
    }

    /// Value of the function on input assignment `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^num_vars`.
    pub fn get(&self, index: usize) -> bool {
        assert!(index < (1usize << self.num_vars), "assignment out of range");
        (self.bits >> index) & 1 == 1
    }

    /// Number of input assignments on which the function is true.
    pub fn count_ones(&self) -> u32 {
        (self.bits & self.low_mask()).count_ones()
    }

    /// Returns `true` if the function is constant zero.
    pub fn is_zero(&self) -> bool {
        self.bits() == 0
    }

    /// Returns `true` if the function is constant one.
    pub fn is_one(&self) -> bool {
        self.bits() == self.low_mask()
    }

    /// Positive cofactor with respect to variable `var`.
    pub fn cofactor1(&self, var: usize) -> Self {
        assert!(var < self.num_vars as usize);
        let m = VAR_MASK[var];
        let hi = self.bits & m;
        let shifted = hi >> (1usize << var);
        TruthTable {
            bits: hi | shifted,
            num_vars: self.num_vars,
        }
    }

    /// Negative cofactor with respect to variable `var`.
    pub fn cofactor0(&self, var: usize) -> Self {
        assert!(var < self.num_vars as usize);
        let m = !VAR_MASK[var];
        let lo = self.bits & m;
        let shifted = lo << (1usize << var);
        TruthTable {
            bits: lo | shifted,
            num_vars: self.num_vars,
        }
    }

    /// Returns `true` if the function actually depends on variable `var`.
    pub fn depends_on(&self, var: usize) -> bool {
        self.cofactor0(var).bits() != self.cofactor1(var).bits()
    }

    /// The set of variables the function depends on, as a bitmask.
    pub fn support_mask(&self) -> u8 {
        let mut mask = 0u8;
        for v in 0..self.num_vars as usize {
            if self.depends_on(v) {
                mask |= 1 << v;
            }
        }
        mask
    }

    /// Number of variables in the functional support.
    pub fn support_size(&self) -> usize {
        self.support_mask().count_ones() as usize
    }

    /// Complements variable `var` in place, returning the new table.
    pub fn flip_var(&self, var: usize) -> Self {
        assert!(var < self.num_vars as usize);
        let shift = 1usize << var;
        let m = VAR_MASK[var];
        let bits = ((self.bits & m) >> shift) | ((self.bits & !m) << shift);
        TruthTable {
            bits,
            num_vars: self.num_vars,
        }
    }

    /// Swaps adjacent variables `var` and `var + 1`.
    pub fn swap_adjacent(&self, var: usize) -> Self {
        assert!(var + 1 < self.num_vars as usize);
        let shift = 1usize << var;
        // Partition minterms by the values of (v, v+1): keep 00 and 11 blocks,
        // exchange the 01 and 10 blocks.
        let m01 = VAR_MASK[var] & !VAR_MASK[var + 1];
        let m10 = !VAR_MASK[var] & VAR_MASK[var + 1];
        let keep = self.bits & !(m01 | m10);
        let bits = keep | ((self.bits & m01) << shift) | ((self.bits & m10) >> shift);
        TruthTable {
            bits,
            num_vars: self.num_vars,
        }
    }

    /// Swaps variables `a` and `b` (in either order; equal indices are a
    /// no-op). [`TruthTable::swap_adjacent`] is the constant-shift special
    /// case that cut enumeration's hot loop uses.
    pub fn swap_vars(&self, a: usize, b: usize) -> Self {
        assert!(a < self.num_vars as usize && b < self.num_vars as usize);
        let (lo, hi) = (a.min(b), a.max(b));
        if lo == hi {
            return *self;
        }
        let shift = (1usize << hi) - (1usize << lo);
        // Partition minterms by the values of (lo, hi): keep the 00 and 11
        // blocks, exchange the 10 and 01 blocks.
        let m10 = VAR_MASK[lo] & !VAR_MASK[hi];
        let m01 = !VAR_MASK[lo] & VAR_MASK[hi];
        let keep = self.bits & !(m10 | m01);
        let bits = keep | ((self.bits & m10) << shift) | ((self.bits & m01) >> shift);
        TruthTable {
            bits,
            num_vars: self.num_vars,
        }
    }

    /// Applies an arbitrary variable permutation.
    ///
    /// `perm[i]` is the new position of old variable `i`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..num_vars`.
    pub fn permute(&self, perm: &[usize]) -> Self {
        assert_eq!(
            perm.len(),
            self.num_vars as usize,
            "permutation length mismatch"
        );
        let mut seen = [false; Self::MAX_VARS];
        for &p in perm {
            assert!(p < perm.len() && !seen[p], "not a permutation");
            seen[p] = true;
        }
        // Apply as a sequence of adjacent transpositions (bubble sort).
        let mut buf = [0usize; Self::MAX_VARS];
        let cur = &mut buf[..perm.len()];
        cur.copy_from_slice(perm);
        let mut t = *self;
        // Sort `cur` with adjacent swaps; each swap on positions (i, i+1)
        // corresponds to swapping variables i and i+1 of the table.
        loop {
            let mut swapped = false;
            for i in 1..cur.len() {
                if cur[i - 1] > cur[i] {
                    cur.swap(i - 1, i);
                    t = t.swap_adjacent(i - 1);
                    swapped = true;
                }
            }
            if !swapped {
                break;
            }
        }
        t
    }

    /// Returns `true` if the function is invariant under every permutation of
    /// its variables (as XOR3, MAJ3 and OR3 are).
    pub fn is_totally_symmetric(&self) -> bool {
        for v in 0..(self.num_vars as usize).saturating_sub(1) {
            if self.swap_adjacent(v) != *self {
                return false;
            }
        }
        true
    }

    /// Expands the function to a larger variable count (new variables are
    /// don't-cares the function does not depend on).
    ///
    /// # Panics
    ///
    /// Panics if `num_vars` is smaller than the current count or exceeds 6.
    pub fn extend_to(&self, num_vars: usize) -> Self {
        assert!(num_vars >= self.num_vars as usize && num_vars <= Self::MAX_VARS);
        TruthTable {
            bits: self.bits,
            num_vars: num_vars as u8,
        }
    }

    /// Shrinks the function to its support, returning the compacted table and
    /// the list of original variable indices retained (in ascending order).
    pub fn shrink_to_support(&self) -> (Self, Vec<usize>) {
        let mut vars: Vec<usize> = (0..self.num_vars as usize)
            .filter(|&v| self.depends_on(v))
            .collect();
        let mut t = *self;
        // Compact support variables into the low positions while preserving order.
        for (target, _) in vars.clone().iter().enumerate() {
            let mut at = vars[target];
            while at > target {
                t = t.swap_adjacent(at - 1);
                at -= 1;
            }
        }
        let k = vars.len();
        let out = TruthTable::from_bits(k, t.bits);
        vars.truncate(k);
        (out, vars)
    }
}

impl Not for TruthTable {
    type Output = TruthTable;
    fn not(self) -> TruthTable {
        TruthTable {
            bits: !self.bits,
            num_vars: self.num_vars,
        }
    }
}

macro_rules! impl_bitop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for TruthTable {
            type Output = TruthTable;
            fn $method(self, rhs: TruthTable) -> TruthTable {
                assert_eq!(
                    self.num_vars, rhs.num_vars,
                    "truth tables must have the same variable count"
                );
                TruthTable { bits: self.bits $op rhs.bits, num_vars: self.num_vars }
            }
        }
    };
}

impl_bitop!(BitAnd, bitand, &);
impl_bitop!(BitOr, bitor, |);
impl_bitop!(BitXor, bitxor, ^);

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({}v, {:#x})", self.num_vars, self.bits())
    }
}

impl fmt::Display for TruthTable {
    /// Hexadecimal truth-table string, most significant assignment first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let digits = (1usize << self.num_vars).div_ceil(4).max(1);
        write!(f, "{:0width$x}", self.bits(), width = digits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projections_match_masks() {
        for v in 0..6 {
            let t = TruthTable::var(6, v);
            for idx in 0..64usize {
                assert_eq!(t.get(idx), (idx >> v) & 1 == 1);
            }
        }
    }

    #[test]
    fn normalization_replicates_low_block() {
        let t = TruthTable::from_bits(2, 0b0110);
        // 2-var XOR replicated across the word means ops with masks work.
        assert_eq!(t.bits(), 0b0110);
        let t3 = t.extend_to(3);
        assert_eq!(t3.bits(), 0b0110_0110);
    }

    #[test]
    fn xor3_and_maj3_values() {
        let x = TruthTable::xor3();
        let m = TruthTable::maj3();
        let o = TruthTable::or3();
        for idx in 0..8usize {
            let ones = (idx as u32).count_ones();
            assert_eq!(x.get(idx), ones % 2 == 1, "xor3 at {idx}");
            assert_eq!(m.get(idx), ones >= 2, "maj3 at {idx}");
            assert_eq!(o.get(idx), ones >= 1, "or3 at {idx}");
        }
    }

    #[test]
    fn cofactors_reconstruct_function() {
        let f = TruthTable::from_bits(3, 0b1011_0010);
        for v in 0..3 {
            let c0 = f.cofactor0(v);
            let c1 = f.cofactor1(v);
            let xv = TruthTable::var(3, v);
            let rebuilt = (xv & c1) | (!xv & c0);
            assert_eq!(rebuilt.bits(), f.bits(), "Shannon expansion on var {v}");
        }
    }

    #[test]
    fn flip_var_is_involution() {
        let f = TruthTable::from_bits(4, 0xBEEF);
        for v in 0..4 {
            assert_eq!(f.flip_var(v).flip_var(v), f);
        }
    }

    #[test]
    fn swap_adjacent_is_involution() {
        let f = TruthTable::from_bits(4, 0x1234);
        for v in 0..3 {
            assert_eq!(f.swap_adjacent(v).swap_adjacent(v), f);
        }
    }

    #[test]
    fn swap_vars_is_a_transposition() {
        let f = TruthTable::from_bits(5, 0x1234_5678_9abc_def0);
        for a in 0..5 {
            for b in 0..5 {
                let mut perm = [0, 1, 2, 3, 4];
                perm.swap(a, b);
                assert_eq!(f.swap_vars(a, b), f.permute(&perm), "swap {a} {b}");
            }
        }
    }

    #[test]
    fn permute_accepts_the_empty_permutation() {
        for bits in [0, 1] {
            let f = TruthTable::from_bits(0, bits);
            assert_eq!(f.permute(&[]), f);
        }
    }

    #[test]
    fn permute_identity_and_rotation() {
        let f = TruthTable::from_bits(3, 0b1100_1010);
        assert_eq!(f.permute(&[0, 1, 2]), f);
        // Rotate variables: old var i goes to position (i+1) mod 3.
        let g = f.permute(&[1, 2, 0]);
        for idx in 0..8usize {
            let a = idx & 1;
            let b = (idx >> 1) & 1;
            let c = (idx >> 2) & 1;
            // In g, new position 1 holds old var 0, position 2 old var 1, position 0 old var 2.
            let orig_idx = (b << 2) | (a << 1) | c;
            let _ = orig_idx;
            // Verify via evaluation: g(x0,x1,x2) = f(x1, x2, x0) since old var0 is read
            // from new position 1, old var1 from position 2, old var2 from position 0.
            let expect = f.get((b) | ((c) << 1) | ((a) << 2));
            assert_eq!(g.get(idx), expect, "idx {idx}");
        }
    }

    #[test]
    fn symmetric_functions_detected() {
        assert!(TruthTable::xor3().is_totally_symmetric());
        assert!(TruthTable::maj3().is_totally_symmetric());
        assert!(TruthTable::or3().is_totally_symmetric());
        assert!(!TruthTable::var(3, 0).is_totally_symmetric());
        let f = TruthTable::var(3, 0) & TruthTable::var(3, 1);
        assert!(!f.is_totally_symmetric());
    }

    #[test]
    fn support_and_shrink() {
        // f = x0 XOR x2 over 4 vars.
        let f = TruthTable::var(4, 0) ^ TruthTable::var(4, 2);
        assert_eq!(f.support_mask(), 0b0101);
        assert_eq!(f.support_size(), 2);
        let (g, vars) = f.shrink_to_support();
        assert_eq!(vars, vec![0, 2]);
        assert_eq!(g, TruthTable::var(2, 0) ^ TruthTable::var(2, 1));
    }

    #[test]
    fn constants() {
        assert!(TruthTable::zero(3).is_zero());
        assert!(TruthTable::one(3).is_one());
        assert!(!TruthTable::zero(3).is_one());
        assert_eq!(TruthTable::zero(0).num_vars(), 0);
        assert!(TruthTable::one(0).get(0));
    }

    #[test]
    fn display_format() {
        assert_eq!(TruthTable::xor3().to_string(), "96");
        assert_eq!(TruthTable::maj3().to_string(), "e8");
    }

    #[test]
    #[should_panic(expected = "at most 6 variables")]
    fn too_many_vars_panics() {
        let _ = TruthTable::zero(7);
    }
}
