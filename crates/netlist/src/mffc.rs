//! Maximum fanout-free cone (MFFC) computation.
//!
//! The MFFC of a node `r` is the largest cone rooted at `r` such that every
//! path from any cone node to a primary output passes through `r`. When `r`
//! is replaced (e.g. by a T1 cell output), exactly the MFFC nodes become
//! dead, so the area gain of eq. (2) of the paper is the summed area of the
//! MFFC members.
//!
//! The implementation is the standard reference-counting dereference walk:
//! virtually remove `r`, decrement fanin references, and recurse into fanins
//! whose count reaches zero.
//!
//! # Cost model
//!
//! A [`Mffc`] sizes its state to the network once, in [`Mffc::new`]: one
//! working fanout-count array and one visited array. Every query after that
//! costs O(cone), not O(network): the walk undo-logs each count it
//! decrements and each node it visits, and restores both before returning,
//! so between calls the working counts equal [`Aig::fanout_counts`] again
//! and no node is marked. Queries may therefore be issued in any order on
//! one calculator, with the same answers a fresh calculator would give.
//!
//! # Examples
//!
//! ```
//! use sfq_netlist::aig::Aig;
//! use sfq_netlist::mffc::Mffc;
//!
//! let mut aig = Aig::new();
//! let a = aig.add_pi();
//! let b = aig.add_pi();
//! let c = aig.add_pi();
//! let m = aig.maj3(a, b, c);
//! aig.add_po(m);
//! let mut mffc = Mffc::new(&aig);
//! // All five AND nodes of the majority belong to the root's MFFC.
//! assert_eq!(mffc.size(m.node()), 5);
//! ```

use crate::aig::{Aig, NodeId, NodeKind};

/// Reusable MFFC calculator over a fixed network.
#[derive(Debug)]
pub struct Mffc<'a> {
    aig: &'a Aig,
    /// Working fanout counts; equal to `aig.fanout_counts()` between calls.
    refs: Vec<u32>,
    /// Visited marks; all `false` between calls.
    visited: Vec<bool>,
    /// Undo log of `refs`: one entry per decrement of the current walk.
    derefed: Vec<NodeId>,
    /// Members found by the current walk, in visit order; also the undo log
    /// of `visited`.
    members: Vec<NodeId>,
}

impl<'a> Mffc<'a> {
    /// Creates a calculator for `aig`.
    pub fn new(aig: &'a Aig) -> Self {
        Mffc {
            aig,
            refs: aig.fanout_counts(),
            visited: vec![false; aig.len()],
            derefed: Vec::new(),
            members: Vec::new(),
        }
    }

    /// Number of AND nodes in the MFFC of `root`.
    pub fn size(&mut self, root: NodeId) -> usize {
        self.walk(&[root], &[])
    }

    /// The AND nodes forming the MFFC of `root` (including `root` itself if
    /// it is an AND node). PIs and the constant node are never members.
    pub fn members(&mut self, root: NodeId) -> Vec<NodeId> {
        self.members_bounded(root, &[]).to_vec()
    }

    /// MFFC of `root` bounded by `boundary` nodes: the dereference walk does
    /// not descend past (or include) boundary nodes. Used with cut leaves to
    /// measure exactly the cone a cut replacement removes.
    ///
    /// The sorted members are borrowed from the calculator's walk buffer,
    /// valid until the next query, so the per-cut pricing loop of
    /// `sfq-opt`'s rewriter allocates nothing per candidate.
    pub fn members_bounded(&mut self, root: NodeId, boundary: &[NodeId]) -> &[NodeId] {
        self.sorted_walk(&[root], boundary)
    }

    /// Union of MFFCs of several roots: the set of AND nodes that die when
    /// *all* roots are removed together.
    ///
    /// This is at least as large as any single MFFC and at most the sum of
    /// the individual ones; the sequential dereference makes overlap exact.
    pub fn union_members(&mut self, roots: &[NodeId]) -> Vec<NodeId> {
        self.union_members_bounded(roots, &[])
    }

    /// Bounded variant of [`Mffc::union_members`]; see
    /// [`Mffc::members_bounded`].
    pub fn union_members_bounded(&mut self, roots: &[NodeId], boundary: &[NodeId]) -> Vec<NodeId> {
        self.sorted_walk(roots, boundary).to_vec()
    }

    /// [`Mffc::walk`], then the members sorted in place (members are
    /// distinct, so the unstable sort is exact and allocates nothing).
    fn sorted_walk(&mut self, roots: &[NodeId], boundary: &[NodeId]) -> &[NodeId] {
        self.walk(roots, boundary);
        self.members.sort_unstable();
        &self.members
    }

    /// Dereferences `roots` into `self.members`, then restores the working
    /// state from the undo logs. Returns the member count.
    fn walk(&mut self, roots: &[NodeId], boundary: &[NodeId]) -> usize {
        self.members.clear();
        for &r in roots {
            if boundary.contains(&r) {
                continue;
            }
            self.deref_rec(r, boundary);
        }
        for n in self.derefed.drain(..) {
            self.refs[n.index()] += 1;
        }
        for n in &self.members {
            self.visited[n.index()] = false;
        }
        self.members.len()
    }

    fn deref_rec(&mut self, node: NodeId, boundary: &[NodeId]) {
        // A node may be reached both as an explicit root and as a fanin
        // whose reference count dropped to zero; its own fanin edges must
        // only be released once.
        if self.visited[node.index()] {
            return;
        }
        if let NodeKind::And(a, b) = self.aig.kind(node) {
            self.visited[node.index()] = true;
            self.members.push(node);
            for f in [a.node(), b.node()] {
                if boundary.contains(&f) {
                    continue;
                }
                let count = &mut self.refs[f.index()];
                if *count > 0 {
                    *count -= 1;
                    self.derefed.push(f);
                }
                if *count == 0 {
                    self.deref_rec(f, boundary);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::Lit;
    use crate::cut::{enumerate_cuts, CutConfig};
    use proptest::prelude::*;

    /// The reference walk: fresh counts and marks for every query.
    fn reference_members(aig: &Aig, roots: &[NodeId], boundary: &[NodeId]) -> Vec<NodeId> {
        fn deref_rec(
            aig: &Aig,
            node: NodeId,
            refs: &mut [u32],
            visited: &mut [bool],
            out: &mut Vec<NodeId>,
            boundary: &[NodeId],
        ) {
            if visited[node.index()] {
                return;
            }
            if let NodeKind::And(a, b) = aig.kind(node) {
                visited[node.index()] = true;
                out.push(node);
                for f in [a.node(), b.node()] {
                    if boundary.contains(&f) {
                        continue;
                    }
                    refs[f.index()] = refs[f.index()].saturating_sub(1);
                    if refs[f.index()] == 0 {
                        deref_rec(aig, f, refs, visited, out, boundary);
                    }
                }
            }
        }
        let mut refs = aig.fanout_counts();
        let mut visited = vec![false; aig.len()];
        let mut out = Vec::new();
        for &r in roots {
            if !boundary.contains(&r) {
                deref_rec(aig, r, &mut refs, &mut visited, &mut out, boundary);
            }
        }
        out.sort();
        out
    }

    /// A random network from a byte script: each 3-byte chunk ANDs or XORs
    /// two (possibly complemented) literals of everything built so far, and
    /// every fourth node is also an output, so cones share fanout.
    fn script_aig(script: &[u8], num_pis: usize) -> Aig {
        let mut g = Aig::new();
        let mut pool: Vec<Lit> = (0..num_pis).map(|_| g.add_pi()).collect();
        for (i, chunk) in script.chunks_exact(3).enumerate() {
            let a = pool[chunk[0] as usize % pool.len()];
            let b = pool[chunk[1] as usize % pool.len()];
            let a = if chunk[2] & 1 != 0 { !a } else { a };
            let b = if chunk[2] & 2 != 0 { !b } else { b };
            let out = if chunk[2] & 4 != 0 {
                g.xor(a, b)
            } else {
                g.and(a, b)
            };
            pool.push(out);
            if i % 4 == 3 {
                g.add_po(out);
            }
        }
        g.add_po(*pool.last().expect("nonempty pool"));
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

        /// One reused calculator answers a random query sequence exactly
        /// like the reference walk, and every query leaves its working
        /// state as it found it.
        #[test]
        fn reused_walk_matches_reference(
            script in prop::collection::vec(any::<u8>(), 3..240),
            num_pis in 1usize..=6,
            ops in prop::collection::vec((0u8..4, prop::collection::vec(any::<u16>(), 4), any::<u16>()), 1..40),
        ) {
            let g = script_aig(&script, num_pis);
            let cuts = enumerate_cuts(&g, &CutConfig { max_leaves: 4, max_cuts: 8 });
            let nodes: Vec<NodeId> = g.node_ids().collect();
            let fanout_counts = g.fanout_counts();
            let mut mffc = Mffc::new(&g);
            for (kind, picks, cut_pick) in ops {
                let roots: Vec<NodeId> = picks
                    .iter()
                    .map(|&p| nodes[p as usize % nodes.len()])
                    .collect();
                // Boundaries are real cut leaves of the first root.
                let root_cuts = cuts.cuts(roots[0]);
                let boundary = root_cuts[cut_pick as usize % root_cuts.len()].leaves();
                let (got, want) = match kind {
                    0 => (mffc.members(roots[0]), reference_members(&g, &roots[..1], &[])),
                    // The borrowed query, answered from the walk buffer.
                    1 => (
                        mffc.members_bounded(roots[0], boundary).to_vec(),
                        reference_members(&g, &roots[..1], boundary),
                    ),
                    2 => {
                        let got = mffc.union_members_bounded(&roots, boundary);
                        (got, reference_members(&g, &roots, boundary))
                    }
                    _ => {
                        let single = reference_members(&g, &roots[..1], &[]);
                        prop_assert_eq!(mffc.size(roots[0]), single.len());
                        (mffc.union_members(&roots), reference_members(&g, &roots, &[]))
                    }
                };
                prop_assert_eq!(got, want, "op {} roots {:?}", kind, roots);
                prop_assert_eq!(&mffc.refs, &fanout_counts, "counts restored");
                prop_assert!(mffc.visited.iter().all(|&v| !v), "marks cleared");
            }
        }
    }

    #[test]
    fn single_chain_mffc_is_whole_cone() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let ab = g.and(a, b);
        let abc = g.and(ab, c);
        g.add_po(abc);
        let mut m = Mffc::new(&g);
        assert_eq!(m.size(abc.node()), 2);
        assert_eq!(m.size(ab.node()), 1);
    }

    #[test]
    fn shared_node_excluded() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let ab = g.and(a, b);
        let x = g.and(ab, c);
        let y = g.and(ab, a);
        g.add_po(x);
        g.add_po(y);
        let mut m = Mffc::new(&g);
        // ab has two fanouts, so it is not in x's MFFC.
        assert_eq!(m.members(x.node()), vec![x.node()]);
        assert_eq!(m.members(y.node()), vec![y.node()]);
    }

    #[test]
    fn union_captures_shared_interior() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let ab = g.and(a, b);
        let x = g.and(ab, c);
        let y = g.and(ab, a);
        g.add_po(x);
        g.add_po(y);
        let mut m = Mffc::new(&g);
        // Removing both x and y kills ab as well.
        let u = m.union_members(&[x.node(), y.node()]);
        assert_eq!(u.len(), 3);
        assert!(u.contains(&ab.node()));
    }

    #[test]
    fn pi_has_empty_mffc() {
        let mut g = Aig::new();
        let a = g.add_pi();
        g.add_po(a);
        let mut m = Mffc::new(&g);
        assert_eq!(m.size(a.node()), 0);
    }

    #[test]
    fn mffc_of_maj_root_counts_all_ands() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let mj = g.maj3(a, b, c);
        g.add_po(mj);
        let mut m = Mffc::new(&g);
        assert_eq!(m.size(mj.node()), g.and_count());
    }

    #[test]
    fn mffc_stops_at_po_referenced_interior() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let ab = g.and(a, b);
        let top = g.and(ab, a);
        g.add_po(top);
        g.add_po(ab); // interior node is also a PO
        let mut m = Mffc::new(&g);
        assert_eq!(m.members(top.node()), vec![top.node()]);
    }
}
