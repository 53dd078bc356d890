//! Arithmetic building blocks over [`Aig`]s.
//!
//! These are the word-level constructors from which the EPFL-like and
//! ISCAS-like benchmark generators are assembled: full/half adders, ripple
//! and carry-save addition, array multiplication, comparators, population
//! count, shifters and priority encoders.
//!
//! All functions operate on little-endian bit vectors (`bits[0]` is the LSB).
//!
//! # Examples
//!
//! ```
//! use sfq_netlist::aig::Aig;
//! use sfq_circuits::arith;
//!
//! let mut g = Aig::new();
//! let a: Vec<_> = (0..4).map(|_| g.add_pi()).collect();
//! let b: Vec<_> = (0..4).map(|_| g.add_pi()).collect();
//! let (sum, carry) = arith::ripple_carry_adder(&mut g, &a, &b, None);
//! for s in sum {
//!     g.add_po(s);
//! }
//! g.add_po(carry);
//! // 5 + 11 = 16 → sum 0000, carry 1.
//! let mut inputs = vec![true, false, true, false]; // a = 5
//! inputs.extend([true, true, false, true]);        // b = 11
//! let out = g.eval(&inputs);
//! assert_eq!(out, vec![false, false, false, false, true]);
//! ```

use sfq_netlist::aig::{Aig, Lit};

/// One-bit full adder; returns `(sum, carry)`.
pub fn full_adder(g: &mut Aig, a: Lit, b: Lit, c: Lit) -> (Lit, Lit) {
    (g.xor3(a, b, c), g.maj3(a, b, c))
}

/// Ripple-carry addition of two equal-width vectors with optional carry-in.
///
/// Returns `(sum_bits, carry_out)`.
///
/// # Panics
///
/// Panics if the vectors have different widths or are empty.
pub fn ripple_carry_adder(g: &mut Aig, a: &[Lit], b: &[Lit], cin: Option<Lit>) -> (Vec<Lit>, Lit) {
    assert_eq!(a.len(), b.len(), "operand widths must match");
    assert!(!a.is_empty(), "operands must be non-empty");
    let mut carry = cin.unwrap_or(Lit::FALSE);
    let mut sum = Vec::with_capacity(a.len());
    for i in 0..a.len() {
        let (s, c) = full_adder(g, a[i], b[i], carry);
        sum.push(s);
        carry = c;
    }
    (sum, carry)
}

/// Carry-save (3:2) compression of three equal-width vectors into two.
///
/// Returns `(sums, carries)` where `carries` is shifted one position up and
/// padded with constant false at the LSB.
///
/// # Panics
///
/// Panics if the widths differ.
pub fn carry_save(g: &mut Aig, a: &[Lit], b: &[Lit], c: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
    assert!(
        a.len() == b.len() && b.len() == c.len(),
        "widths must match"
    );
    let mut sums = Vec::with_capacity(a.len());
    let mut carries = vec![Lit::FALSE];
    for i in 0..a.len() {
        let (s, cy) = full_adder(g, a[i], b[i], c[i]);
        sums.push(s);
        carries.push(cy);
    }
    (sums, carries)
}

/// Pads `v` with constant-false bits up to `width`.
pub fn zero_extend(v: &[Lit], width: usize) -> Vec<Lit> {
    let mut out = v.to_vec();
    while out.len() < width {
        out.push(Lit::FALSE);
    }
    out
}

/// Sums an arbitrary list of equal-or-varying-width unsigned vectors with a
/// carry-save reduction tree followed by a final ripple adder.
///
/// `width` is the width of the result (higher bits are dropped, i.e. the sum
/// is computed modulo `2^width`).
///
/// # Panics
///
/// Panics if `addends` is empty.
pub fn sum_vectors(g: &mut Aig, addends: &[Vec<Lit>], width: usize) -> Vec<Lit> {
    assert!(!addends.is_empty(), "need at least one addend");
    let mut layer: Vec<Vec<Lit>> = addends
        .iter()
        .map(|v| {
            let mut x = zero_extend(v, width);
            x.truncate(width);
            x
        })
        .collect();
    while layer.len() > 2 {
        let mut next = Vec::with_capacity(layer.len() / 3 * 2 + 2);
        let mut iter = layer.chunks(3);
        for chunk in &mut iter {
            match chunk {
                [a, b, c] => {
                    let (s, cy) = carry_save(g, a, b, c);
                    let mut cy = cy;
                    cy.truncate(width);
                    next.push(s);
                    next.push(zero_extend(&cy, width));
                }
                rest => next.extend(rest.iter().cloned()),
            }
        }
        layer = next;
    }
    if layer.len() == 1 {
        return layer.pop().unwrap();
    }
    let (a, b) = (layer[0].clone(), layer[1].clone());
    let (sum, _) = ripple_carry_adder(g, &a, &b, None);
    sum
}

/// Unsigned array multiplier: returns the full `2·width` product bits.
///
/// The structure is the classic ripple array (as in ISCAS c6288): one row of
/// partial products per multiplier bit, reduced row by row with full adders.
///
/// # Panics
///
/// Panics if operands differ in width or are empty.
pub fn array_multiplier(g: &mut Aig, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
    assert_eq!(a.len(), b.len(), "operand widths must match");
    assert!(!a.is_empty(), "operands must be non-empty");
    let n = a.len();
    let out_width = 2 * n;
    let rows: Vec<Vec<Lit>> = (0..n)
        .map(|j| {
            let mut row = vec![Lit::FALSE; j];
            for &ai in a {
                row.push(g.and(ai, b[j]));
            }
            row
        })
        .collect();
    sum_vectors(g, &rows, out_width)
}

/// Unsigned squarer (`a * a`) using dedicated partial products
/// (`a_i & a_j` appears once with doubled weight for `i != j`).
///
/// Returns the full `2·width` result.
///
/// # Panics
///
/// Panics if `a` is empty.
pub fn squarer(g: &mut Aig, a: &[Lit]) -> Vec<Lit> {
    assert!(!a.is_empty(), "operand must be non-empty");
    let n = a.len();
    let out_width = 2 * n;
    let mut addends: Vec<Vec<Lit>> = Vec::new();
    for i in 0..n {
        // a_i & a_i = a_i at weight 2i.
        let mut diag = vec![Lit::FALSE; 2 * i];
        diag.push(a[i]);
        addends.push(diag);
        for j in i + 1..n {
            // Cross terms count twice: weight i + j + 1.
            let p = g.and(a[i], a[j]);
            let mut cross = vec![Lit::FALSE; i + j + 1];
            cross.push(p);
            addends.push(cross);
        }
    }
    sum_vectors(g, &addends, out_width)
}

/// Population count: number of set bits of `bits` as a binary vector of
/// width `ceil(log2(len + 1))`.
///
/// # Panics
///
/// Panics if `bits` is empty.
pub fn popcount(g: &mut Aig, bits: &[Lit]) -> Vec<Lit> {
    assert!(!bits.is_empty(), "need at least one bit");
    let width = usize::BITS as usize - bits.len().leading_zeros() as usize;
    let addends: Vec<Vec<Lit>> = bits.iter().map(|&b| vec![b]).collect();
    sum_vectors(g, &addends, width)
}

/// Unsigned comparison `a >= k` against a constant.
///
/// # Panics
///
/// Panics if `a` is empty or `k` does not fit `a`'s width + 1.
pub fn ge_const(g: &mut Aig, a: &[Lit], k: u64) -> Lit {
    assert!(!a.is_empty());
    assert!(k <= 1u64 << a.len(), "constant exceeds comparable range");
    if k == 0 {
        return Lit::TRUE;
    }
    if k == 1u64 << a.len() {
        return Lit::FALSE;
    }
    // From MSB down: result = a_i > k_i or (a_i == k_i and rest >= ...).
    let mut result = Lit::TRUE; // a >= k on empty suffix means equality so far
    for (i, &ai) in a.iter().enumerate() {
        let ki = (k >> i) & 1 == 1;
        result = if ki {
            // a_i must be 1 and rest >=, or a_i = 1 and carry... simplified:
            g.and(ai, result)
        } else {
            g.or(ai, result)
        };
    }
    result
}

/// Equality comparison of two equal-width vectors.
///
/// # Panics
///
/// Panics if widths differ or the vectors are empty.
pub fn equals(g: &mut Aig, a: &[Lit], b: &[Lit]) -> Lit {
    assert_eq!(a.len(), b.len());
    assert!(!a.is_empty());
    let mut acc = Lit::TRUE;
    for i in 0..a.len() {
        let x = g.xnor(a[i], b[i]);
        acc = g.and(acc, x);
    }
    acc
}

/// Unsigned comparison `a >= b` between vectors.
///
/// # Panics
///
/// Panics if widths differ or the vectors are empty.
pub fn ge(g: &mut Aig, a: &[Lit], b: &[Lit]) -> Lit {
    assert_eq!(a.len(), b.len());
    assert!(!a.is_empty());
    let mut acc = Lit::TRUE; // equal so far → a >= b
    for i in 0..a.len() {
        // From LSB to MSB: acc = (a_i > b_i) | (a_i == b_i) & acc
        let gt = g.and(a[i], !b[i]);
        let eq = g.xnor(a[i], b[i]);
        let keep = g.and(eq, acc);
        acc = g.or(gt, keep);
    }
    acc
}

/// Logical barrel shifter right: `a >> s` where `s` is a bit vector.
///
/// The result has `a.len()` bits; vacated positions are zero.
///
/// # Panics
///
/// Panics if `a` is empty or `s` is wider than needed (`> ceil(log2 a.len())`
/// bits are accepted but must be provided consistently by the caller).
pub fn barrel_shift_right(g: &mut Aig, a: &[Lit], s: &[Lit]) -> Vec<Lit> {
    assert!(!a.is_empty());
    let mut cur = a.to_vec();
    for (stage, &sel) in s.iter().enumerate() {
        let shift = 1usize << stage;
        let mut next = Vec::with_capacity(cur.len());
        for i in 0..cur.len() {
            let shifted = if i + shift < cur.len() {
                cur[i + shift]
            } else {
                Lit::FALSE
            };
            next.push(g.mux(sel, shifted, cur[i]));
        }
        cur = next;
    }
    cur
}

/// Parity (XOR-reduce) of a bit vector.
///
/// # Panics
///
/// Panics if `bits` is empty.
pub fn parity(g: &mut Aig, bits: &[Lit]) -> Lit {
    assert!(!bits.is_empty());
    let mut acc = bits[0];
    for &b in &bits[1..] {
        acc = g.xor(acc, b);
    }
    acc
}

/// Priority encoder: index of the most significant set bit, plus a `valid`
/// flag (false when the input is all zeros).
///
/// Returns `(index_bits, valid)` with `index_bits` of width
/// `ceil(log2(len))`.
///
/// # Panics
///
/// Panics if `bits` is empty.
pub fn priority_encode(g: &mut Aig, bits: &[Lit]) -> (Vec<Lit>, Lit) {
    assert!(!bits.is_empty());
    let n = bits.len();
    let width = (usize::BITS as usize - (n - 1).leading_zeros() as usize).max(1);
    // found_i = bits[i] & !bits[i+1..] — walk from MSB keeping a "none above" flag.
    let mut none_above = Lit::TRUE;
    let mut index = vec![Lit::FALSE; width];
    let mut valid = Lit::FALSE;
    for i in (0..n).rev() {
        let here = g.and(bits[i], none_above);
        valid = g.or(valid, here);
        for (b, idx_bit) in index.iter_mut().enumerate() {
            if (i >> b) & 1 == 1 {
                *idx_bit = g.or(*idx_bit, here);
            }
        }
        none_above = g.and(none_above, !bits[i]);
    }
    (index, valid)
}

/// Constant multiplication by shift-and-add: `a * k` truncated to `width`.
///
/// # Panics
///
/// Panics if `a` is empty.
pub fn mul_const(g: &mut Aig, a: &[Lit], k: u64, width: usize) -> Vec<Lit> {
    assert!(!a.is_empty());
    if k == 0 {
        return vec![Lit::FALSE; width];
    }
    let mut addends = Vec::new();
    for s in 0..64 {
        if (k >> s) & 1 == 1 {
            let mut shifted = vec![Lit::FALSE; s];
            shifted.extend_from_slice(a);
            addends.push(shifted);
        }
    }
    sum_vectors(g, &addends, width)
}

/// Kogge–Stone parallel-prefix adder; returns `(sum_bits, carry_out)`.
///
/// Logarithmic depth, heavily shared prefix tree — the architectural
/// antithesis of the ripple-carry adder. Used by the `abl-arch` ablation to
/// study how adder architecture affects the T1 advantage (prefix nodes are
/// AND/OR pairs, not full adders, so far fewer T1 candidates exist).
///
/// # Panics
///
/// Panics if the operands differ in width or are empty.
pub fn kogge_stone_adder(g: &mut Aig, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Lit) {
    assert_eq!(a.len(), b.len(), "operand widths must match");
    assert!(!a.is_empty(), "operands must be non-empty");
    let n = a.len();
    // Generate/propagate pairs.
    let mut gen: Vec<Lit> = (0..n).map(|i| g.and(a[i], b[i])).collect();
    let mut prop: Vec<Lit> = (0..n).map(|i| g.xor(a[i], b[i])).collect();
    let half_sum = prop.clone();
    // Prefix tree: (g, p)_i ∘ (g, p)_{i−d}.
    let mut d = 1usize;
    while d < n {
        let mut next_gen = gen.clone();
        let mut next_prop = prop.clone();
        for i in d..n {
            let carry_through = g.and(prop[i], gen[i - d]);
            next_gen[i] = g.or(gen[i], carry_through);
            next_prop[i] = g.and(prop[i], prop[i - d]);
        }
        gen = next_gen;
        prop = next_prop;
        d *= 2;
    }
    // Sum bits: half_sum[i] XOR carry_in(i) where carry_in(i) = gen[i−1].
    let mut sum = Vec::with_capacity(n);
    sum.push(half_sum[0]);
    for i in 1..n {
        sum.push(g.xor(half_sum[i], gen[i - 1]));
    }
    (sum, gen[n - 1])
}

/// Two's-complement subtraction `a - b` (same width, wrap-around).
///
/// # Panics
///
/// Panics if widths differ or the vectors are empty.
pub fn subtract(g: &mut Aig, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
    assert_eq!(a.len(), b.len());
    let nb: Vec<Lit> = b.iter().map(|&l| !l).collect();
    let (sum, _) = ripple_carry_adder(g, a, &nb, Some(Lit::TRUE));
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pis(g: &mut Aig, n: usize) -> Vec<Lit> {
        (0..n).map(|_| g.add_pi()).collect()
    }

    fn to_bits(v: u64, w: usize) -> Vec<bool> {
        (0..w).map(|i| (v >> i) & 1 == 1).collect()
    }

    fn from_bits(bits: &[bool]) -> u64 {
        bits.iter().enumerate().map(|(i, &b)| (b as u64) << i).sum()
    }

    #[test]
    fn adder_exhaustive_4bit() {
        let mut g = Aig::new();
        let a = pis(&mut g, 4);
        let b = pis(&mut g, 4);
        let (sum, carry) = ripple_carry_adder(&mut g, &a, &b, None);
        for s in sum {
            g.add_po(s);
        }
        g.add_po(carry);
        for x in 0..16u64 {
            for y in 0..16u64 {
                let mut input = to_bits(x, 4);
                input.extend(to_bits(y, 4));
                let out = g.eval(&input);
                let got = from_bits(&out);
                assert_eq!(got, x + y, "{x} + {y}");
            }
        }
    }

    #[test]
    fn kogge_stone_exhaustive_5bit() {
        let mut g = Aig::new();
        let a = pis(&mut g, 5);
        let b = pis(&mut g, 5);
        let (sum, carry) = kogge_stone_adder(&mut g, &a, &b);
        for s in sum {
            g.add_po(s);
        }
        g.add_po(carry);
        for x in 0..32u64 {
            for y in 0..32u64 {
                let mut input = to_bits(x, 5);
                input.extend(to_bits(y, 5));
                let out = g.eval(&input);
                assert_eq!(from_bits(&out), x + y, "{x} + {y}");
            }
        }
    }

    #[test]
    fn kogge_stone_is_logarithmic_depth() {
        let mut g = Aig::new();
        let a = pis(&mut g, 32);
        let b = pis(&mut g, 32);
        let (sum, carry) = kogge_stone_adder(&mut g, &a, &b);
        for s in sum {
            g.add_po(s);
        }
        g.add_po(carry);
        // Ripple: ~3 levels/bit → ~96. Kogge-Stone: O(log n) prefix levels.
        assert!(g.depth() < 32, "depth {} not logarithmic", g.depth());
    }

    #[test]
    fn subtract_wraps() {
        let mut g = Aig::new();
        let a = pis(&mut g, 4);
        let b = pis(&mut g, 4);
        let d = subtract(&mut g, &a, &b);
        for s in d {
            g.add_po(s);
        }
        for x in 0..16u64 {
            for y in 0..16u64 {
                let mut input = to_bits(x, 4);
                input.extend(to_bits(y, 4));
                let out = g.eval(&input);
                assert_eq!(from_bits(&out), (x.wrapping_sub(y)) & 0xF, "{x} - {y}");
            }
        }
    }

    #[test]
    fn multiplier_exhaustive_4bit() {
        let mut g = Aig::new();
        let a = pis(&mut g, 4);
        let b = pis(&mut g, 4);
        let p = array_multiplier(&mut g, &a, &b);
        assert_eq!(p.len(), 8);
        for s in p {
            g.add_po(s);
        }
        for x in 0..16u64 {
            for y in 0..16u64 {
                let mut input = to_bits(x, 4);
                input.extend(to_bits(y, 4));
                let out = g.eval(&input);
                assert_eq!(from_bits(&out), x * y, "{x} * {y}");
            }
        }
    }

    #[test]
    fn squarer_matches_multiplier() {
        let mut g = Aig::new();
        let a = pis(&mut g, 5);
        let sq = squarer(&mut g, &a);
        for s in sq {
            g.add_po(s);
        }
        for x in 0..32u64 {
            let out = g.eval(&to_bits(x, 5));
            assert_eq!(from_bits(&out), x * x, "{x}^2");
        }
    }

    #[test]
    fn popcount_exhaustive() {
        let mut g = Aig::new();
        let a = pis(&mut g, 7);
        let c = popcount(&mut g, &a);
        assert_eq!(c.len(), 3);
        for s in c {
            g.add_po(s);
        }
        for x in 0..128u64 {
            let out = g.eval(&to_bits(x, 7));
            assert_eq!(from_bits(&out), x.count_ones() as u64, "popcount({x:#b})");
        }
    }

    #[test]
    fn ge_const_exhaustive() {
        for k in 0..=16u64 {
            let mut g = Aig::new();
            let a = pis(&mut g, 4);
            let r = ge_const(&mut g, &a, k);
            g.add_po(r);
            for x in 0..16u64 {
                let out = g.eval(&to_bits(x, 4));
                assert_eq!(out[0], x >= k, "{x} >= {k}");
            }
        }
    }

    #[test]
    fn vector_ge_exhaustive() {
        let mut g = Aig::new();
        let a = pis(&mut g, 3);
        let b = pis(&mut g, 3);
        let r = ge(&mut g, &a, &b);
        g.add_po(r);
        for x in 0..8u64 {
            for y in 0..8u64 {
                let mut input = to_bits(x, 3);
                input.extend(to_bits(y, 3));
                let out = g.eval(&input);
                assert_eq!(out[0], x >= y, "{x} >= {y}");
            }
        }
    }

    #[test]
    fn equals_exhaustive() {
        let mut g = Aig::new();
        let a = pis(&mut g, 3);
        let b = pis(&mut g, 3);
        let r = equals(&mut g, &a, &b);
        g.add_po(r);
        for x in 0..8u64 {
            for y in 0..8u64 {
                let mut input = to_bits(x, 3);
                input.extend(to_bits(y, 3));
                assert_eq!(g.eval(&input)[0], x == y, "{x} == {y}");
            }
        }
    }

    #[test]
    fn barrel_shifter_exhaustive() {
        let mut g = Aig::new();
        let a = pis(&mut g, 8);
        let s = pis(&mut g, 3);
        let r = barrel_shift_right(&mut g, &a, &s);
        for bit in r {
            g.add_po(bit);
        }
        for x in [0xA5u64, 0xFF, 0x01, 0x80, 0x3C] {
            for sh in 0..8u64 {
                let mut input = to_bits(x, 8);
                input.extend(to_bits(sh, 3));
                let out = g.eval(&input);
                assert_eq!(from_bits(&out), x >> sh, "{x:#x} >> {sh}");
            }
        }
    }

    #[test]
    fn parity_exhaustive() {
        let mut g = Aig::new();
        let a = pis(&mut g, 5);
        let p = parity(&mut g, &a);
        g.add_po(p);
        for x in 0..32u64 {
            assert_eq!(g.eval(&to_bits(x, 5))[0], x.count_ones() % 2 == 1);
        }
    }

    #[test]
    fn priority_encoder_exhaustive() {
        let mut g = Aig::new();
        let a = pis(&mut g, 8);
        let (idx, valid) = priority_encode(&mut g, &a);
        for b in idx {
            g.add_po(b);
        }
        g.add_po(valid);
        for x in 0..256u64 {
            let out = g.eval(&to_bits(x, 8));
            let valid_got = out[out.len() - 1];
            assert_eq!(valid_got, x != 0, "valid for {x:#x}");
            if x != 0 {
                let idx_got = from_bits(&out[..out.len() - 1]);
                assert_eq!(
                    idx_got,
                    63 - x.leading_zeros() as u64,
                    "msb index of {x:#x}"
                );
            }
        }
    }

    #[test]
    fn mul_const_matches() {
        let mut g = Aig::new();
        let a = pis(&mut g, 6);
        let r = mul_const(&mut g, &a, 11, 10);
        for bit in r {
            g.add_po(bit);
        }
        for x in 0..64u64 {
            let out = g.eval(&to_bits(x, 6));
            assert_eq!(from_bits(&out), (x * 11) & 0x3FF, "{x} * 11");
        }
    }

    #[test]
    fn sum_vectors_many_addends() {
        let mut g = Aig::new();
        let vs: Vec<Vec<Lit>> = (0..5).map(|_| pis(&mut g, 3)).collect();
        let total = sum_vectors(&mut g, &vs, 6);
        for b in total {
            g.add_po(b);
        }
        let vals = [5u64, 7, 1, 6, 3];
        let mut input = Vec::new();
        for v in vals {
            input.extend(to_bits(v, 3));
        }
        let out = g.eval(&input);
        assert_eq!(from_bits(&out), vals.iter().sum::<u64>());
    }
}
