//! And-inverter graphs with structural hashing.
//!
//! The [`Aig`] is the subject network of the mapping flow — the Rust
//! equivalent of mockturtle's `aig_network`. Nodes are two-input ANDs;
//! inverters live on edges as complement bits of [`Lit`]s. Construction
//! performs constant folding, trivial simplification and structural hashing,
//! so equivalent two-level structures share nodes.
//!
//! # Examples
//!
//! ```
//! use sfq_netlist::aig::Aig;
//!
//! let mut aig = Aig::new();
//! let a = aig.add_pi();
//! let b = aig.add_pi();
//! let sum = aig.xor(a, b);
//! aig.add_po(sum);
//! assert_eq!(aig.and_count(), 3); // xor = 3 ANDs
//! ```

use crate::fnv::FnvHashMap;
use std::fmt;

/// Index of a node inside an [`Aig`]. Node 0 is the constant-zero node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The constant-zero node present in every AIG.
    pub const CONST0: NodeId = NodeId(0);

    /// Index as `usize` for direct slice access.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A literal: a node reference plus an optional complement.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The constant-false literal.
    pub const FALSE: Lit = Lit(0);
    /// The constant-true literal.
    pub const TRUE: Lit = Lit(1);

    /// Builds a literal from a node and complement flag.
    pub fn new(node: NodeId, complement: bool) -> Self {
        Lit(node.0 << 1 | complement as u32)
    }

    /// The node this literal refers to.
    pub fn node(self) -> NodeId {
        NodeId(self.0 >> 1)
    }

    /// Whether the literal is complemented.
    pub fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complemented literal.
    pub fn complement(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// This literal with complement flag set to `c`.
    pub fn with_complement(self, c: bool) -> Lit {
        Lit(self.0 & !1 | c as u32)
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        self.complement()
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_complement() {
            write!(f, "!n{}", self.node().0)
        } else {
            write!(f, "n{}", self.node().0)
        }
    }
}

/// Node payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// The constant-zero node (always node 0).
    Const0,
    /// Primary input; the payload is the PI ordinal.
    Input(u32),
    /// Two-input AND of the given literals.
    And(Lit, Lit),
}

#[derive(Debug, Clone)]
struct Node {
    kind: NodeKind,
    /// Number of AND nodes and primary outputs referencing this node.
    fanout: u32,
}

/// Kind marking a freed node slot. No *live* AND can ever carry this kind:
/// [`Aig::and`] folds any constant operand away before a node is created,
/// so `And(FALSE, FALSE)` is unambiguous as a tombstone.
const DEAD: NodeKind = NodeKind::And(Lit::FALSE, Lit::FALSE);

/// An and-inverter graph.
///
/// Nodes are stored in topological order by construction (an AND can only be
/// created after its fanins), so iteration over `0..len` is a valid forward
/// traversal. The in-place edits in [`crate::transform`]
/// ([`sweep_in_place`](crate::transform::sweep_in_place) and the batch
/// cone-rewrite engine) preserve that invariant while keeping every
/// surviving node id stable; freed slots are kept on a free list and reused
/// by later [`Aig::and`] calls, and [`Aig::compact`] squeezes them out again
/// when a dense network is required.
#[derive(Debug, Clone, Default)]
pub struct Aig {
    nodes: Vec<Node>,
    pis: Vec<NodeId>,
    pos: Vec<Lit>,
    strash: FnvHashMap<(Lit, Lit), NodeId>,
    /// Freed (dead) node slots, ascending.
    free: Vec<u32>,
}

impl Aig {
    /// Creates an empty AIG containing only the constant node.
    pub fn new() -> Self {
        Aig {
            nodes: vec![Node {
                kind: NodeKind::Const0,
                fanout: 0,
            }],
            pis: Vec::new(),
            pos: Vec::new(),
            strash: FnvHashMap::default(),
            free: Vec::new(),
        }
    }

    /// Adds a primary input and returns its positive literal.
    pub fn add_pi(&mut self) -> Lit {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind: NodeKind::Input(self.pis.len() as u32),
            fanout: 0,
        });
        self.pis.push(id);
        Lit::new(id, false)
    }

    /// Registers `lit` as a primary output.
    pub fn add_po(&mut self, lit: Lit) {
        self.nodes[lit.node().index()].fanout += 1;
        self.pos.push(lit);
    }

    /// AND of two literals with simplification and structural hashing.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        if let Some(f) = fold_and(a, b) {
            return f;
        }
        // Normalize operand order for hashing.
        let (a, b) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        if let Some(&id) = self.strash.get(&(a, b)) {
            return Lit::new(id, false);
        }
        // Reuse the lowest freed slot that keeps ids topological (the slot
        // must sit above both fanins); append when none qualifies.
        let node = Node {
            kind: NodeKind::And(a, b),
            fanout: 0,
        };
        let min = a.node().0.max(b.node().0);
        let pos = self.free.partition_point(|&s| s <= min);
        let id = if pos < self.free.len() {
            let slot = self.free.remove(pos);
            self.nodes[slot as usize] = node;
            NodeId(slot)
        } else {
            let id = NodeId(self.nodes.len() as u32);
            self.nodes.push(node);
            id
        };
        self.nodes[a.node().index()].fanout += 1;
        self.nodes[b.node().index()].fanout += 1;
        self.strash.insert((a, b), id);
        Lit::new(id, false)
    }

    /// Looks up what [`Aig::and`] would return for `(a, b)` **without**
    /// creating a node: trivial simplifications are applied and the strash
    /// table is consulted, but the network is never modified.
    ///
    /// Returns `None` when the AND does not exist yet — the cost probe used
    /// by cut rewriting to price candidate subgraphs against logic that is
    /// already present.
    pub fn lookup_and(&self, a: Lit, b: Lit) -> Option<Lit> {
        if let Some(f) = fold_and(a, b) {
            return Some(f);
        }
        let (a, b) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        self.strash.get(&(a, b)).map(|&id| Lit::new(id, false))
    }

    /// OR of two literals.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// XOR of two literals (three AND nodes).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let left = self.and(a, !b);
        let right = self.and(!a, b);
        self.or(left, right)
    }

    /// XNOR of two literals.
    pub fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor(a, b)
    }

    /// Three-input majority.
    pub fn maj3(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let ab = self.and(a, b);
        let ac = self.and(a, c);
        let bc = self.and(b, c);
        let t = self.or(ab, ac);
        self.or(t, bc)
    }

    /// Three-input XOR.
    pub fn xor3(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let t = self.xor(a, b);
        self.xor(t, c)
    }

    /// If-then-else `sel ? t : e`.
    pub fn mux(&mut self, sel: Lit, t: Lit, e: Lit) -> Lit {
        let pt = self.and(sel, t);
        let pe = self.and(!sel, e);
        self.or(pt, pe)
    }

    /// Number of node *slots* including constant, PIs and any dead slots
    /// left behind by in-place edits (buffers indexed by [`NodeId`] must be
    /// sized by this).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the network has no gates and no inputs.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1 && self.pos.is_empty()
    }

    /// Number of live AND gates (dead slots excluded).
    pub fn and_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::And(..)) && n.kind != DEAD)
            .count()
    }

    /// Number of freed (dead) node slots awaiting reuse or [`Aig::compact`].
    pub fn dead_count(&self) -> usize {
        self.free.len()
    }

    /// Whether node `id` is a freed slot left behind by an in-place edit.
    pub fn is_dead(&self, id: NodeId) -> bool {
        self.nodes[id.index()].kind == DEAD
    }

    /// Number of primary inputs.
    pub fn pi_count(&self) -> usize {
        self.pis.len()
    }

    /// Number of primary outputs.
    pub fn po_count(&self) -> usize {
        self.pos.len()
    }

    /// The primary inputs in declaration order.
    pub fn pis(&self) -> &[NodeId] {
        &self.pis
    }

    /// The primary output literals in declaration order.
    pub fn pos(&self) -> &[Lit] {
        &self.pos
    }

    /// Kind of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.nodes[id.index()].kind
    }

    /// Fanins of an AND node, or `None` for PIs/constant.
    pub fn fanins(&self, id: NodeId) -> Option<(Lit, Lit)> {
        match self.nodes[id.index()].kind {
            NodeKind::And(a, b) => Some((a, b)),
            _ => None,
        }
    }

    /// Combined fanout count (ANDs + POs referencing the node).
    pub fn fanout_count(&self, id: NodeId) -> u32 {
        self.nodes[id.index()].fanout
    }

    /// Iterator over all node ids in topological order (constant and PIs
    /// first). Dead slots are included; filter with [`Aig::is_dead`] when
    /// iterating an edited network.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over live AND-node ids in topological order.
    pub fn and_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(move |id| {
            let kind = self.nodes[id.index()].kind;
            matches!(kind, NodeKind::And(..)) && kind != DEAD
        })
    }

    /// Logic level of every node (PIs and constant at level 0).
    pub fn levels(&self) -> Vec<u32> {
        let mut lev = Vec::new();
        self.levels_into(&mut lev);
        lev
    }

    /// [`Aig::levels`] writing into a caller-owned buffer, so hot loops
    /// that re-level repeatedly (the `sfq-opt` fixpoint loop) reuse one
    /// allocation instead of paying a fresh vector per round.
    pub fn levels_into(&self, lev: &mut Vec<u32>) {
        lev.clear();
        lev.resize(self.nodes.len(), 0);
        for id in self.node_ids() {
            if let NodeKind::And(a, b) = self.nodes[id.index()].kind {
                lev[id.index()] = 1 + lev[a.node().index()].max(lev[b.node().index()]);
            }
        }
    }

    /// Depth of the network: maximum level over primary outputs.
    pub fn depth(&self) -> u32 {
        self.depth_from(&self.levels())
    }

    /// [`Aig::depth`] over a precomputed level vector (see
    /// [`Aig::levels`]), for call sites that already hold one.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is shorter than the network.
    pub fn depth_from(&self, levels: &[u32]) -> u32 {
        self.pos
            .iter()
            .map(|l| levels[l.node().index()])
            .max()
            .unwrap_or(0)
    }

    /// Marks the transitive fanin of the primary outputs: afterwards
    /// `reached[i]` says whether node slot `i` feeds some output (the
    /// constant and PIs included when they do). Writes into a caller-owned
    /// buffer, mirroring [`Aig::levels_into`], and walks with an explicit
    /// stack, so it neither recurses nor relies on the id order. Dead slots
    /// are never reached: no live node references them.
    pub fn mark_output_cones(&self, reached: &mut Vec<bool>) {
        reached.clear();
        reached.resize(self.nodes.len(), false);
        let mut stack: Vec<NodeId> = self.pos.iter().map(|l| l.node()).collect();
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut reached[n.index()], true) {
                continue;
            }
            if let NodeKind::And(a, b) = self.nodes[n.index()].kind {
                stack.push(a.node());
                stack.push(b.node());
            }
        }
    }

    /// Evaluates all primary outputs on 64 input vectors at once.
    ///
    /// `inputs[i]` packs 64 Boolean values of PI `i`; the result packs the
    /// corresponding output values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != pi_count()`.
    pub fn eval64(&self, inputs: &[u64]) -> Vec<u64> {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        self.eval64_into(inputs, &mut scratch, &mut out);
        out
    }

    /// [`Aig::eval64`] writing into caller-owned buffers, mirroring
    /// [`Aig::levels_into`]: `scratch` holds the per-node values and `out`
    /// receives the output words, so simulation-heavy loops (the CEC random
    /// prefilter, the optimizer's signature analysis) reuse two allocations
    /// across calls instead of paying two fresh vectors each.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != pi_count()`.
    pub fn eval64_into(&self, inputs: &[u64], scratch: &mut Vec<u64>, out: &mut Vec<u64>) {
        assert_eq!(
            inputs.len(),
            self.pis.len(),
            "one word per primary input required"
        );
        scratch.clear();
        scratch.resize(self.nodes.len(), 0);
        for id in self.node_ids() {
            scratch[id.index()] = match self.nodes[id.index()].kind {
                NodeKind::Const0 => 0,
                NodeKind::Input(i) => inputs[i as usize],
                NodeKind::And(a, b) => {
                    let va =
                        scratch[a.node().index()] ^ if a.is_complement() { u64::MAX } else { 0 };
                    let vb =
                        scratch[b.node().index()] ^ if b.is_complement() { u64::MAX } else { 0 };
                    va & vb
                }
            };
        }
        out.clear();
        out.extend(
            self.pos
                .iter()
                .map(|l| scratch[l.node().index()] ^ if l.is_complement() { u64::MAX } else { 0 }),
        );
    }

    /// Evaluates on a single Boolean assignment.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != pi_count()`.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        let words: Vec<u64> = inputs
            .iter()
            .map(|&b| if b { u64::MAX } else { 0 })
            .collect();
        self.eval64(&words)
            .into_iter()
            .map(|w| w & 1 == 1)
            .collect()
    }

    /// Reference counts equal to fanout, per node slot (dead slots report
    /// zero); the basis of MFFC computation.
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut counts = Vec::new();
        self.fanout_counts_into(&mut counts);
        counts
    }

    /// [`Aig::fanout_counts`] writing into a caller-owned buffer, mirroring
    /// [`Aig::levels_into`].
    pub fn fanout_counts_into(&self, counts: &mut Vec<u32>) {
        counts.clear();
        counts.extend(self.nodes.iter().map(|n| n.fanout));
    }

    /// Recomputes every fanout count from scratch (one forward pass).
    ///
    /// The in-place edits in [`crate::transform`] skip fanout bookkeeping
    /// while they kill or rewire nodes and call this once at the end.
    pub fn recompute_fanouts(&mut self) {
        for n in &mut self.nodes {
            n.fanout = 0;
        }
        for idx in 0..self.nodes.len() {
            let kind = self.nodes[idx].kind;
            if kind == DEAD {
                continue;
            }
            if let NodeKind::And(a, b) = kind {
                self.nodes[a.node().index()].fanout += 1;
                self.nodes[b.node().index()].fanout += 1;
            }
        }
        for i in 0..self.pos.len() {
            let n = self.pos[i].node();
            self.nodes[n.index()].fanout += 1;
        }
    }

    // ------------------------------------------------------------------
    // Holes and compaction.
    //
    // In-place edits (`transform::sweep_in_place` and the batch cone-rewrite
    // engine) kill nodes where they stand: surviving node ids never move, so
    // analyses keyed by id (levels, signatures, the incremental STA) stay
    // valid outside the true edit footprint. Freed slots are tombstoned
    // (`DEAD`) and tracked on `free`; `Aig::and` reuses them when the
    // index-topological invariant allows, and `compact` squeezes them out
    // when a dense network is required (AIGER export, content addressing
    // via `structural_hash`).
    // ------------------------------------------------------------------

    /// Squeezes dead slots out, renumbering live nodes densely while
    /// preserving their relative (topological) order. Returns the old→new
    /// id map (`None` for freed slots). The strash table is rebuilt in
    /// place (capacity retained); a no-op when the network has no dead
    /// slots.
    pub fn compact(&mut self) -> Vec<Option<NodeId>> {
        if self.free.is_empty() {
            return (0..self.nodes.len() as u32)
                .map(|i| Some(NodeId(i)))
                .collect();
        }
        let order: Vec<NodeId> = (1..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|&id| !self.is_dead(id))
            .collect();
        self.compact_to(&order)
    }

    /// [`Aig::compact`] with an explicit new node order: `order` must list
    /// every live non-constant node exactly once, topologically (each AND
    /// after both fanins). The batch cone-rewrite engine uses this to land
    /// its edits in the exact emission order of the reference rebuild path,
    /// making the two byte-identical.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the live non-constant
    /// nodes or is not topologically sorted.
    pub fn compact_to(&mut self, order: &[NodeId]) -> Vec<Option<NodeId>> {
        let old_len = self.nodes.len();
        assert_eq!(
            order.len() + self.free.len() + 1,
            old_len,
            "compact order must cover every live node exactly once"
        );
        let mut map: Vec<Option<NodeId>> = vec![None; old_len];
        map[0] = Some(NodeId::CONST0);
        for (i, &id) in order.iter().enumerate() {
            assert!(
                id != NodeId::CONST0 && !self.is_dead(id),
                "compact order names n{} which is not a live non-constant node",
                id.0
            );
            assert!(
                map[id.index()].is_none(),
                "compact order lists n{} twice",
                id.0
            );
            map[id.index()] = Some(NodeId(i as u32 + 1));
        }
        let remap = |map: &[Option<NodeId>], l: Lit| -> Lit {
            Lit::new(
                map[l.node().index()].expect("dangling reference into a dropped slot"),
                l.is_complement(),
            )
        };
        let mut new_nodes = Vec::with_capacity(order.len() + 1);
        new_nodes.push(self.nodes[0].clone());
        for &id in order {
            let n = &self.nodes[id.index()];
            let kind = match n.kind {
                NodeKind::Const0 => unreachable!("constant appears only at slot 0"),
                NodeKind::Input(i) => NodeKind::Input(i),
                NodeKind::And(a, b) => {
                    let (mut na, mut nb) = (remap(&map, a), remap(&map, b));
                    // A non-monotone `order` (the cone-rewrite engine's
                    // emission order reuses low slots) can flip which fanin
                    // carries the lower id; re-normalize for the canonical
                    // form `Aig::and` would have produced.
                    if na.0 > nb.0 {
                        std::mem::swap(&mut na, &mut nb);
                    }
                    let new_id = map[id.index()].unwrap();
                    assert!(
                        na.node().0 < new_id.0 && nb.node().0 < new_id.0,
                        "compact order is not topological at n{}",
                        id.0
                    );
                    NodeKind::And(na, nb)
                }
            };
            new_nodes.push(Node {
                kind,
                fanout: n.fanout,
            });
        }
        self.nodes = new_nodes;
        for pi in &mut self.pis {
            *pi = map[pi.index()].expect("primary input dropped by compact");
        }
        for po in &mut self.pos {
            *po = remap(&map, *po);
        }
        // Rebuild the strash in place: clear keeps the table's capacity, so
        // this allocates nothing. `or_insert` keeps the lowest id for any
        // (transient) duplicate pair, matching fresh-construction ownership.
        self.strash.clear();
        for idx in 1..self.nodes.len() {
            if let NodeKind::And(a, b) = self.nodes[idx].kind {
                self.strash.entry((a, b)).or_insert(NodeId(idx as u32));
            }
        }
        self.free.clear();
        map
    }

    /// Removes the strash entry for `key` only if it is owned by `id`.
    pub(crate) fn strash_remove_if(&mut self, key: (Lit, Lit), id: NodeId) {
        if self.strash.get(&key) == Some(&id) {
            self.strash.remove(&key);
        }
    }

    /// Pushes a tombstoned slot onto the (sorted) free list.
    fn free_insert(&mut self, id: NodeId) {
        debug_assert!(self.is_dead(id));
        let pos = self.free.partition_point(|&s| s < id.0);
        self.free.insert(pos, id.0);
    }

    // ------------------------------------------------------------------
    // Raw hooks for the batch cone-rewrite engine (crate::transform).
    //
    // The engine defers fanout bookkeeping to one recompute_fanouts call
    // and restores the index-topological invariant itself via compact_to,
    // so these deliberately skip both; they are not sound on their own and
    // stay crate-private.
    // ------------------------------------------------------------------

    /// Strash probe by exact (normalized) key.
    pub(crate) fn strash_get(&self, key: (Lit, Lit)) -> Option<NodeId> {
        self.strash.get(&key).copied()
    }

    /// Inserts/overwrites the strash entry for `key`.
    pub(crate) fn strash_insert(&mut self, key: (Lit, Lit), id: NodeId) {
        self.strash.insert(key, id);
    }

    /// Installs an AND kind without strash or fanout maintenance.
    pub(crate) fn set_and_raw(&mut self, id: NodeId, a: Lit, b: Lit) {
        debug_assert!(a.0 <= b.0, "fanins must be normalized");
        self.nodes[id.index()].kind = NodeKind::And(a, b);
    }

    /// Tombstones a slot and frees it, without fanout maintenance.
    pub(crate) fn kill_raw(&mut self, id: NodeId) {
        debug_assert!(!self.is_dead(id));
        self.nodes[id.index()].kind = DEAD;
        self.free_insert(id);
    }

    /// Allocates a slot for an AND with **no** positional constraint: the
    /// lowest free slot wins, else the array grows. Only valid inside a
    /// batch edit that ends with [`Aig::compact_to`] (which restores the
    /// index-topological invariant). No strash or fanout maintenance.
    pub(crate) fn alloc_any_raw(&mut self, a: Lit, b: Lit) -> NodeId {
        debug_assert!(a.0 <= b.0, "fanins must be normalized");
        let node = Node {
            kind: NodeKind::And(a, b),
            fanout: 0,
        };
        if let Some(&slot) = self.free.first() {
            self.free.remove(0);
            self.nodes[slot as usize] = node;
            NodeId(slot)
        } else {
            let id = NodeId(self.nodes.len() as u32);
            self.nodes.push(node);
            id
        }
    }

    /// Repoints primary output `i` without fanout maintenance.
    pub(crate) fn set_po_raw(&mut self, i: usize, lit: Lit) {
        self.pos[i] = lit;
    }

    /// Stable 64-bit structural digest of the network.
    ///
    /// Covers exactly the logical structure — node kinds with fanin literals
    /// in construction (topological) order, plus the PI/PO interface — and
    /// nothing else: the strash table and fanout counts do not participate.
    /// Two identically constructed AIGs therefore hash equal across
    /// processes and platforms, while editing a single gate changes the
    /// digest with overwhelming probability. This is the content address
    /// used by the `sfq-engine` result cache.
    ///
    /// Dead slots *do* participate (the digest is over the raw node array),
    /// so [`Aig::compact`] an edited network before using the digest as a
    /// content address.
    pub fn structural_hash(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = crate::fnv::Fnv1a::new();
        h.write_usize(self.nodes.len());
        for node in &self.nodes {
            match node.kind {
                NodeKind::Const0 => h.write_u8(0),
                NodeKind::Input(i) => {
                    h.write_u8(1);
                    h.write_u32(i);
                }
                NodeKind::And(a, b) => {
                    h.write_u8(2);
                    h.write_u32(a.0);
                    h.write_u32(b.0);
                }
            }
        }
        h.write_usize(self.pis.len());
        h.write_usize(self.pos.len());
        for po in &self.pos {
            h.write_u32(po.0);
        }
        h.finish()
    }

    /// Whether `other` is this network node for node: the same node kinds
    /// in the same slots (dead slots included), the same primary inputs and
    /// the same primary output literals. Identical networks compute
    /// identical functions, so `sfq-opt`'s verified loop skips the
    /// equivalence check of a pass whose output is identical to its input.
    ///
    /// Unlike comparing [`Aig::structural_hash`]es this is exact, and it
    /// returns at the first difference.
    pub fn is_identical(&self, other: &Aig) -> bool {
        self.pis == other.pis
            && self.pos == other.pos
            && self.nodes.len() == other.nodes.len()
            && self
                .nodes
                .iter()
                .zip(&other.nodes)
                .all(|(a, b)| a.kind == b.kind)
    }
}

/// The trivial AND simplifications, the single source of truth shared by
/// [`Aig::and`], [`Aig::lookup_and`] and the batch cone-rewrite engine in
/// [`crate::transform`]: `Some` when `a & b` folds to an existing literal
/// without creating a node.
pub(crate) fn fold_and(a: Lit, b: Lit) -> Option<Lit> {
    if a == Lit::FALSE || b == Lit::FALSE || a == !b {
        Some(Lit::FALSE)
    } else if a == Lit::TRUE {
        Some(b)
    } else if b == Lit::TRUE || a == b {
        Some(a)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::sweep_in_place;

    #[test]
    fn trivial_simplifications() {
        let mut g = Aig::new();
        let a = g.add_pi();
        assert_eq!(g.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(g.and(Lit::TRUE, a), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, !a), Lit::FALSE);
        assert_eq!(g.and_count(), 0);
    }

    #[test]
    fn structural_hashing_shares_nodes() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.and(a, b);
        let y = g.and(b, a);
        assert_eq!(x, y);
        assert_eq!(g.and_count(), 1);
    }

    #[test]
    fn xor_truth() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.xor(a, b);
        g.add_po(x);
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let out = g.eval(&[va, vb]);
            assert_eq!(out[0], va ^ vb, "xor({va},{vb})");
        }
    }

    #[test]
    fn maj3_truth() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let m = g.maj3(a, b, c);
        g.add_po(m);
        for idx in 0..8u32 {
            let bits = [idx & 1 == 1, idx >> 1 & 1 == 1, idx >> 2 & 1 == 1];
            let out = g.eval(&bits);
            let ones = bits.iter().filter(|&&b| b).count();
            assert_eq!(out[0], ones >= 2, "maj at {idx}");
        }
    }

    #[test]
    fn mux_truth() {
        let mut g = Aig::new();
        let s = g.add_pi();
        let t = g.add_pi();
        let e = g.add_pi();
        let m = g.mux(s, t, e);
        g.add_po(m);
        for idx in 0..8u32 {
            let bits = [idx & 1 == 1, idx >> 1 & 1 == 1, idx >> 2 & 1 == 1];
            let out = g.eval(&bits);
            let expect = if bits[0] { bits[1] } else { bits[2] };
            assert_eq!(out[0], expect, "mux at {idx}");
        }
    }

    #[test]
    fn levels_and_depth() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let ab = g.and(a, b);
        let abc = g.and(ab, c);
        g.add_po(abc);
        assert_eq!(g.depth(), 2);
        let lev = g.levels();
        assert_eq!(lev[ab.node().index()], 1);
        assert_eq!(lev[abc.node().index()], 2);
        assert_eq!(g.depth_from(&lev), 2);
        // The buffer-reusing variant agrees and recycles its allocation.
        let mut buf = vec![99u32; 1];
        g.levels_into(&mut buf);
        assert_eq!(buf, lev);
    }

    #[test]
    fn complemented_po() {
        let mut g = Aig::new();
        let a = g.add_pi();
        g.add_po(!a);
        assert_eq!(g.eval(&[true]), vec![false]);
        assert_eq!(g.eval(&[false]), vec![true]);
    }

    #[test]
    fn eval64_packs_vectors() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.xor(a, b);
        g.add_po(x);
        let va = 0b1010u64;
        let vb = 0b0110u64;
        let out = g.eval64(&[va, vb]);
        assert_eq!(out[0] & 0xF, (va ^ vb) & 0xF);
    }

    #[test]
    fn structural_hash_is_stable_and_sensitive() {
        let build = |extra_gate: bool| {
            let mut g = Aig::new();
            let a = g.add_pi();
            let b = g.add_pi();
            let x = g.xor(a, b);
            let y = if extra_gate { g.and(x, a) } else { x };
            g.add_po(y);
            g
        };
        // Same construction → same digest (the strash map does not leak in).
        assert_eq!(
            build(false).structural_hash(),
            build(false).structural_hash()
        );
        // A one-gate edit → different digest.
        assert_ne!(
            build(false).structural_hash(),
            build(true).structural_hash()
        );
        // PO polarity is part of the structure.
        let mut g = build(false);
        let h1 = g.structural_hash();
        let po = g.pos()[0];
        g.pos[0] = !po;
        assert_ne!(h1, g.structural_hash());
    }

    #[test]
    fn identical_means_node_for_node() {
        let mut g = Aig::new();
        let (a, b, c) = (g.add_pi(), g.add_pi(), g.add_pi());
        let ab = g.and(a, b);
        let top = g.and(ab, c);
        let side = g.and(!ab, c);
        g.add_po(top);
        g.add_po(side);
        assert!(g.is_identical(&g.clone()));
        let mut swapped = g.clone();
        swapped.pos.swap(0, 1);
        assert!(!g.is_identical(&swapped), "output order counts");
        // A dangling AND swept in place leaves a dead slot: the two networks
        // compute the same function but are not the same node array, until
        // compacting restores the original one.
        let mut edited = g.clone();
        edited.and(a, c);
        assert_eq!(sweep_in_place(&mut edited), 1);
        assert!(edited.is_identical(&edited.clone()));
        assert!(!g.is_identical(&edited), "dead slots count");
        edited.compact();
        assert!(g.is_identical(&edited));
    }

    #[test]
    fn lookup_and_probes_without_mutation() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.and(a, b);
        let before = g.len();
        // Existing node found under both operand orders.
        assert_eq!(g.lookup_and(a, b), Some(x));
        assert_eq!(g.lookup_and(b, a), Some(x));
        // Trivial simplifications answered without a node.
        assert_eq!(g.lookup_and(a, Lit::FALSE), Some(Lit::FALSE));
        assert_eq!(g.lookup_and(a, !a), Some(Lit::FALSE));
        assert_eq!(g.lookup_and(Lit::TRUE, a), Some(a));
        assert_eq!(g.lookup_and(a, a), Some(a));
        // Absent structure reported as such, with no node created.
        assert_eq!(g.lookup_and(!a, b), None);
        assert_eq!(g.len(), before);
    }

    #[test]
    fn fanout_counting() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.and(a, b);
        let y = g.and(x, a);
        g.add_po(y);
        g.add_po(x);
        assert_eq!(g.fanout_count(x.node()), 2); // y + PO
        assert_eq!(g.fanout_count(a.node()), 2); // x + y
    }

    /// Every fanout count must equal the number of live AND + PO references.
    fn assert_fanouts_consistent(g: &Aig) {
        let mut expect = vec![0u32; g.len()];
        for id in g.and_ids() {
            let (a, b) = g.fanins(id).unwrap();
            expect[a.node().index()] += 1;
            expect[b.node().index()] += 1;
        }
        for po in g.pos() {
            expect[po.node().index()] += 1;
        }
        for id in g.node_ids() {
            assert_eq!(
                g.fanout_count(id),
                expect[id.index()],
                "fanout mismatch at n{}",
                id.0
            );
        }
    }

    #[test]
    fn compact_restores_dense_form_and_matches_fresh_build() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        // A dangling cone in the middle of the id range, swept into holes.
        let dangling = g.xor(a, b);
        let ac = g.and(a, c);
        let bc = g.and(b, c);
        g.add_po(ac);
        g.add_po(bc);
        assert_eq!(sweep_in_place(&mut g), 3);
        assert_eq!(g.dead_count(), 3);
        let map = g.compact();
        assert_eq!(g.dead_count(), 0);
        assert_eq!(map[dangling.node().index()], None);
        // The compacted network hashes identically to building the final
        // structure from scratch.
        let mut fresh = Aig::new();
        let fa = fresh.add_pi();
        let fb = fresh.add_pi();
        let fc = fresh.add_pi();
        let fac = fresh.and(fa, fc);
        let fbc = fresh.and(fb, fc);
        fresh.add_po(fac);
        fresh.add_po(fbc);
        assert_eq!(g.structural_hash(), fresh.structural_hash());
        assert_fanouts_consistent(&g);
    }

    #[test]
    fn eval64_into_and_fanout_counts_into_reuse_buffers() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.xor(a, b);
        g.add_po(x);
        let (mut scratch, mut out) = (vec![7u64; 1], Vec::new());
        g.eval64_into(&[0b1010, 0b0110], &mut scratch, &mut out);
        assert_eq!(out, g.eval64(&[0b1010, 0b0110]));
        let mut counts = vec![9u32; 1];
        g.fanout_counts_into(&mut counts);
        assert_eq!(counts, g.fanout_counts());
    }

    #[test]
    fn output_cones_exclude_dangling_and_dead_logic() {
        let mut g = Aig::new();
        let pis: Vec<Lit> = (0..3).map(|_| g.add_pi()).collect();
        let used = g.and(pis[0], !pis[1]);
        let doomed = g.and(pis[0], pis[2]);
        let _doomed_top = g.or(used, doomed);
        g.add_po(!used);
        assert_eq!(sweep_in_place(&mut g), 2);
        assert!(g.is_dead(doomed.node()));
        // Live logic that drives no output, built into the holes.
        let dangling = g.xor(pis[1], pis[2]);
        assert!(!g.is_dead(dangling.node()));
        let mut reached = vec![true; 2];
        g.mark_output_cones(&mut reached);
        assert_eq!(reached.len(), g.len());
        let want: Vec<NodeId> = vec![pis[0].node(), pis[1].node(), used.node()];
        for id in g.node_ids() {
            assert_eq!(reached[id.index()], want.contains(&id), "n{}", id.0);
        }
    }

    #[test]
    fn edits_keep_ids_topological_and_eval_working() {
        // After an in-place sweep and slot reuse, every live AND must still
        // sit above its fanins (the invariant all forward scans rely on).
        let mut g = Aig::new();
        let pis: Vec<Lit> = (0..4).map(|_| g.add_pi()).collect();
        let _dangling = g.xor(pis[0], pis[1]);
        let y = g.maj3(pis[1], pis[2], pis[3]);
        g.add_po(y);
        assert_eq!(sweep_in_place(&mut g), 3);
        let len = g.len();
        // New ANDs reuse freed slots instead of growing the array...
        let z = g.and(pis[0], pis[3]);
        assert_eq!(g.len(), len);
        assert!(z.node().0 < y.node().0);
        g.add_po(z);
        // ...and only slots above both fanins qualify.
        let w = g.and(y, pis[0]);
        assert_eq!(w.node().index(), len);
        g.add_po(w);
        for id in g.and_ids() {
            let (a, b) = g.fanins(id).unwrap();
            assert!(a.node().0 < id.0 && b.node().0 < id.0, "n{} fanins", id.0);
            assert!(!g.is_dead(a.node()) && !g.is_dead(b.node()));
        }
        assert_fanouts_consistent(&g);
        for bits in 0..16u32 {
            let ins: Vec<bool> = (0..4).map(|k| bits >> k & 1 == 1).collect();
            let maj = (ins[1] as u8 + ins[2] as u8 + ins[3] as u8) >= 2;
            let got = g.eval(&ins);
            assert_eq!(got, vec![maj, ins[0] && ins[3], maj && ins[0]], "at {bits}");
        }
    }
}
