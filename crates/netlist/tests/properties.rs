//! Property-based tests for the netlist substrate: truth-table algebra, NPN
//! canonization, cut enumeration, MFFC, AIGER round-trips, and ID-stable
//! in-place editing (a random network swept in place and then
//! [`Aig::compact`]ed must match a from-scratch builder rebuild exactly).

use proptest::prelude::*;
use sfq_netlist::aig::{Aig, Lit, NodeId, NodeKind};
use sfq_netlist::aiger::{read_ascii, read_binary, write_ascii, write_binary};
use sfq_netlist::cut::{enumerate_cuts, CutConfig};
use sfq_netlist::mffc::Mffc;
use sfq_netlist::npn::npn_canonical;
use sfq_netlist::transform::{sweep, sweep_in_place};
use sfq_netlist::truth_table::TruthTable;

/// A deterministic small random AIG built from a byte script.
fn build_aig(script: &[u8], num_pis: usize) -> Aig {
    let mut g = Aig::new();
    let mut pool: Vec<Lit> = (0..num_pis).map(|_| g.add_pi()).collect();
    for chunk in script.chunks(3) {
        if chunk.len() < 3 {
            break;
        }
        let a = pool[chunk[0] as usize % pool.len()];
        let b = pool[chunk[1] as usize % pool.len()];
        let (a, b) = match chunk[2] % 4 {
            0 => (a, b),
            1 => (!a, b),
            2 => (a, !b),
            _ => (!a, !b),
        };
        let out = if chunk[2] & 0x10 != 0 {
            g.xor(a, b)
        } else {
            g.and(a, b)
        };
        pool.push(out);
    }
    let out = *pool.last().expect("nonempty pool");
    g.add_po(out);
    g.add_po(!pool[pool.len() / 2]);
    g
}

/// Replays the live nodes of `g` (which may contain freed slots) through
/// the public builder API — the from-scratch rebuild in-place editing is
/// pinned against. Because `Aig::and` eagerly folds and
/// deduplicates, hash equality with [`Aig::compact`]'s output proves the
/// edited network stayed *canonical*: no live AND is trivial or a
/// structural duplicate.
fn rebuild_via_builder(g: &Aig) -> Aig {
    let mut out = Aig::new();
    let mut map: Vec<Option<Lit>> = vec![None; g.len()];
    map[NodeId::CONST0.index()] = Some(Lit::FALSE);
    let mapped = |map: &[Option<Lit>], l: Lit| -> Lit {
        let base = map[l.node().index()].expect("live fanins precede their node");
        base.with_complement(base.is_complement() ^ l.is_complement())
    };
    for id in g.node_ids() {
        if g.is_dead(id) {
            continue;
        }
        match g.kind(id) {
            NodeKind::Const0 => {}
            NodeKind::Input(_) => map[id.index()] = Some(out.add_pi()),
            NodeKind::And(a, b) => {
                let (fa, fb) = (mapped(&map, a), mapped(&map, b));
                map[id.index()] = Some(out.and(fa, fb));
            }
        }
    }
    for &po in g.pos() {
        out.add_po(mapped(&map, po));
    }
    out
}

/// The `index`-th (0..24) permutation of `[0, 1, 2, 3]`, via Lehmer-code
/// decoding, so a proptest integer maps uniformly onto all permutations.
fn nth_permutation4(index: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..4).collect();
    let mut idx = index % 24;
    let mut out = Vec::with_capacity(4);
    for radix in (1..=4).rev() {
        let fact: usize = (1..radix).product();
        out.push(pool.remove(idx / fact));
        idx %= fact;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn tt_de_morgan(bits_a in any::<u64>(), bits_b in any::<u64>(), n in 1usize..=6) {
        let a = TruthTable::from_bits(n, bits_a);
        let b = TruthTable::from_bits(n, bits_b);
        prop_assert_eq!(!(a & b), !a | !b);
        prop_assert_eq!(!(a | b), !a & !b);
    }

    #[test]
    fn tt_shannon_expansion(bits in any::<u64>(), n in 1usize..=6, v in 0usize..6) {
        prop_assume!(v < n);
        let f = TruthTable::from_bits(n, bits);
        let x = TruthTable::var(n, v);
        let rebuilt = (x & f.cofactor1(v)) | (!x & f.cofactor0(v));
        prop_assert_eq!(rebuilt.bits(), f.bits());
    }

    #[test]
    fn tt_permutation_preserves_weight(bits in any::<u64>(), p0 in 0usize..3, p1 in 0usize..3) {
        prop_assume!(p0 != p1);
        let f = TruthTable::from_bits(3, bits);
        let mut perm = [0usize, 1, 2];
        perm.swap(p0, p1);
        prop_assert_eq!(f.permute(&perm).count_ones(), f.count_ones());
    }

    #[test]
    fn npn_canonical_is_transform_invariant(bits in 0u64..256, mask in 0u8..8, out_neg in any::<bool>()) {
        let f = TruthTable::from_bits(3, bits);
        let mut g = f;
        for v in 0..3 {
            if mask >> v & 1 == 1 {
                g = g.flip_var(v);
            }
        }
        if out_neg {
            g = !g;
        }
        prop_assert_eq!(npn_canonical(f).canon, npn_canonical(g).canon);
    }

    #[test]
    fn npn_canonical_4var_invariant_under_perm_and_neg(
        bits in any::<u64>(),
        mask in 0u8..16,
        perm_index in 0usize..24,
        out_neg in any::<bool>(),
    ) {
        // Round-trip: any NPN transform of a random 4-input function (input
        // negations, an arbitrary input permutation, optional output
        // negation) lands in the same canonical class as the original.
        let f = TruthTable::from_bits(4, bits);
        let perm = nth_permutation4(perm_index);
        let mut g = f;
        for v in 0..4 {
            if mask >> v & 1 == 1 {
                g = g.flip_var(v);
            }
        }
        g = g.permute(&perm);
        if out_neg {
            g = !g;
        }
        prop_assert_eq!(npn_canonical(f).canon, npn_canonical(g).canon);
    }

    #[test]
    fn cut_functions_agree_with_eval(script in prop::collection::vec(any::<u8>(), 6..60)) {
        let g = build_aig(&script, 4);
        let cuts = enumerate_cuts(&g, &CutConfig { max_leaves: 3, max_cuts: 12 });
        // Evaluate all nodes on random vectors and check each cut function.
        let inputs: Vec<u64> = (0..4).map(|i| 0x9E3779B97F4A7C15u64.rotate_left(i * 17)).collect();
        let mut values = vec![0u64; g.len()];
        for id in g.node_ids() {
            values[id.index()] = match g.kind(id) {
                sfq_netlist::aig::NodeKind::Const0 => 0,
                sfq_netlist::aig::NodeKind::Input(i) => inputs[i as usize],
                sfq_netlist::aig::NodeKind::And(a, b) => {
                    let va = values[a.node().index()] ^ if a.is_complement() { u64::MAX } else { 0 };
                    let vb = values[b.node().index()] ^ if b.is_complement() { u64::MAX } else { 0 };
                    va & vb
                }
            };
        }
        for id in g.node_ids() {
            for cut in cuts.cuts(id) {
                for bit in [0u32, 17, 63] {
                    let mut idx = 0usize;
                    for (i, l) in cut.leaves().iter().enumerate() {
                        if values[l.index()] >> bit & 1 == 1 {
                            idx |= 1 << i;
                        }
                    }
                    prop_assert_eq!(
                        cut.truth_table().get(idx),
                        values[id.index()] >> bit & 1 == 1
                    );
                }
            }
        }
    }

    #[test]
    fn mffc_members_have_no_outside_fanout_path(script in prop::collection::vec(any::<u8>(), 9..45)) {
        let g = build_aig(&script, 3);
        let mut mffc = Mffc::new(&g);
        for id in g.node_ids() {
            if !matches!(g.kind(id), sfq_netlist::aig::NodeKind::And(..)) {
                continue;
            }
            let members = mffc.members(id);
            if members.is_empty() {
                continue;
            }
            prop_assert!(members.contains(&id), "root belongs to its own MFFC");
            // Every member except the root has all its AIG fanout inside the
            // member set (checked via fanout counting on edges).
            let mut internal_refs = std::collections::HashMap::new();
            for &m in &members {
                if let Some((a, b)) = g.fanins(m) {
                    *internal_refs.entry(a.node()).or_insert(0u32) += 1;
                    *internal_refs.entry(b.node()).or_insert(0u32) += 1;
                }
            }
            for &m in &members {
                if m == id {
                    continue;
                }
                prop_assert_eq!(
                    g.fanout_count(m),
                    internal_refs.get(&m).copied().unwrap_or(0),
                    "member {:?} referenced outside the cone", m
                );
            }
        }
    }

    #[test]
    fn aiger_ascii_roundtrip(script in prop::collection::vec(any::<u8>(), 6..90)) {
        let g = build_aig(&script, 5);
        let back = read_ascii(&write_ascii(&g)).expect("own output parses");
        prop_assert_eq!(g.pi_count(), back.pi_count());
        prop_assert_eq!(g.po_count(), back.po_count());
        let inputs: Vec<u64> = (0..5u64).map(|i| i.wrapping_mul(0xA5A5_5A5A_1234_5678)).collect();
        prop_assert_eq!(g.eval64(&inputs), back.eval64(&inputs));
    }

    #[test]
    fn aiger_binary_roundtrip(script in prop::collection::vec(any::<u8>(), 6..90)) {
        let g = build_aig(&script, 5);
        let back = read_binary(&write_binary(&g)).expect("own output parses");
        let inputs: Vec<u64> = (0..5u64).map(|i| i.wrapping_mul(0x0123_4567_89AB_CDEF)).collect();
        prop_assert_eq!(g.eval64(&inputs), back.eval64(&inputs));
    }

    #[test]
    fn random_edits_then_compact_match_a_builder_rebuild(
        script in prop::collection::vec(any::<u8>(), 12..90),
    ) {
        // Sweeping a random network in place leaves holes wherever its
        // dangling logic stood; squeezing them out (`compact`) must agree
        // node for node with replaying the swept network through the
        // eagerly-hashing builder and with the rebuilding `sweep` — the
        // rebuild-path identity the in-place optimizer passes inherit.
        let g = build_aig(&script, 4);
        let mut edited = g.clone();
        let removed = sweep_in_place(&mut edited);
        prop_assert_eq!(edited.dead_count(), removed);
        let rebuilt = rebuild_via_builder(&edited);
        let inputs: Vec<u64> =
            (0..4u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        let edited_function = edited.eval64(&inputs);
        prop_assert_eq!(&edited_function, &g.eval64(&inputs));
        let mut compacted = edited;
        compacted.compact();
        prop_assert_eq!(compacted.dead_count(), 0);
        prop_assert_eq!(
            compacted.structural_hash(),
            rebuilt.structural_hash(),
            "compact() of the swept network must equal the builder rebuild"
        );
        prop_assert_eq!(compacted.structural_hash(), sweep(&g).structural_hash());
        // Compaction renumbers but must not change the function.
        prop_assert_eq!(compacted.eval64(&inputs), edited_function);
        // Fanout bookkeeping survives the whole sweep+compact sequence.
        let recounted = {
            let mut c = compacted.clone();
            c.recompute_fanouts();
            c.fanout_counts()
        };
        prop_assert_eq!(compacted.fanout_counts(), recounted);
    }

    #[test]
    fn strash_keeps_function(script in prop::collection::vec(any::<u8>(), 6..60)) {
        // Building the same script twice yields identical networks.
        let g1 = build_aig(&script, 4);
        let g2 = build_aig(&script, 4);
        prop_assert_eq!(g1.and_count(), g2.and_count());
        let inputs: Vec<u64> = (0..4u64).map(|i| i.wrapping_mul(0xDEAD_BEEF_CAFE)).collect();
        prop_assert_eq!(g1.eval64(&inputs), g2.eval64(&inputs));
    }
}
