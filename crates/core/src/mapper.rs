//! Cut-based technology mapping of AIGs onto the SFQ cell library.
//!
//! This is the "technology mapping flow implemented in mockturtle" the paper
//! integrates into (§III): an area-flow driven DAG covering with 1/2-input
//! clocked cells, extended here with T1-aware covering — selected T1 groups
//! (from [`mod@crate::detect`]) are instantiated as multi-output T1 cells and
//! the remaining logic is covered with ordinary gates.
//!
//! Negated T1 operands receive explicit NOT gates (a pulse absence cannot
//! toggle the `T` input), while ordinary gate-input polarities are absorbed
//! into cell variants.

use crate::cells::CellLibrary;
use crate::mapped::{CellId, Edge, MappedCircuit};
use sfq_netlist::aig::{Aig, NodeId, NodeKind};
use sfq_netlist::cut::{enumerate_cuts, Cut, CutConfig, CutSet};
use sfq_netlist::truth_table::TruthTable;
use std::collections::HashMap;

/// One function realized by a T1 group member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct T1Member {
    /// The AIG node whose function the T1 port reproduces.
    pub root: NodeId,
    /// T1 output port (see `mapped::T1_PORT_*`).
    pub port: u8,
    /// Whether the node computes the *complement* of the port function.
    pub output_invert: bool,
}

/// A set of cuts sharing three leaves, implementable by one T1 cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct T1Group {
    /// The shared cut leaves (ascending node order).
    pub leaves: [NodeId; 3],
    /// Operand negation mask: bit `i` set means leaf `i` enters `T` negated
    /// (realized by an explicit NOT gate).
    pub input_neg: u8,
    /// The member functions replaced by this T1 cell.
    pub members: Vec<T1Member>,
    /// Area gain ΔA of eq. (2), in JJs (positive = beneficial).
    pub gain: i64,
}

/// The set of T1 groups chosen for instantiation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct T1Selection {
    /// Selected, mutually compatible groups.
    pub groups: Vec<T1Group>,
}

/// Output of the mapping stage.
#[derive(Debug, Clone)]
pub struct MapResult {
    /// The mapped netlist.
    pub circuit: MappedCircuit,
    /// Mapped-cell cost attributed to each covering cut root (used by the
    /// ΔA computation of eq. 2).
    pub attribution: HashMap<NodeId, u32>,
    /// Number of T1 groups actually instantiated by the cover.
    pub t1_used: usize,
}

/// Maps `aig` onto the library, optionally instantiating the given T1
/// selection.
///
/// Shorthand for `MapPlan::new(aig, lib).cover(aig, lib, t1)`; build the
/// [`MapPlan`] yourself to cover one network more than once.
///
/// # Panics
///
/// Panics if a selected T1 group references nodes outside `aig`.
pub fn map(aig: &Aig, lib: &CellLibrary, t1: Option<&T1Selection>) -> MapResult {
    MapPlan::new(aig, lib).cover(aig, lib, t1)
}

/// The selection-independent half of mapping one network: the area-flow
/// choice of one 3-feasible cut per AND node.
///
/// The choice does not depend on the T1 selection, so everything that
/// covers one network more than once — the baseline cover whose
/// attribution prices T1 candidates (eq. 2), then the T1-aware cover —
/// enumerates and chooses cuts once and calls [`MapPlan::cover`] per
/// selection. The flow keeps its plan in a
/// [`Subject`](crate::flow::Subject), which the 1φ, nφ and T1 flows of one
/// network share. The plan owns nothing but the chosen cuts;
/// [`MapPlan::cover`] takes the network and library it was built from.
/// Each cover is exactly what [`map`] returns for the same selection.
///
/// # Examples
///
/// ```
/// use sfq_netlist::aig::Aig;
/// use t1map::cells::CellLibrary;
/// use t1map::mapper::{map, MapPlan};
///
/// let mut aig = Aig::new();
/// let (a, b, c) = (aig.add_pi(), aig.add_pi(), aig.add_pi());
/// let s = aig.xor3(a, b, c);
/// aig.add_po(s);
/// let lib = CellLibrary::default();
///
/// let plan = MapPlan::new(&aig, &lib);
/// let baseline = plan.cover(&aig, &lib, None);
/// assert_eq!(baseline.circuit, map(&aig, &lib, None).circuit);
/// ```
#[derive(Debug)]
pub struct MapPlan {
    /// `best[node]`: the cut chosen for each AND node (`None` elsewhere).
    best: Vec<Option<Cut>>,
}

impl MapPlan {
    /// Enumerates the 3-feasible cuts of `aig` (the library has 1/2-input
    /// cells plus MAJ3/XOR3) and chooses one per AND node by area flow.
    pub fn new(aig: &Aig, lib: &CellLibrary) -> Self {
        Self::with_cuts(aig, lib).0
    }

    /// [`MapPlan::new`], also returning the cut set the plan chose from.
    /// A [`Subject`](crate::flow::Subject) keeps it for T1 detection, which
    /// matches over the same 3-cuts.
    pub(crate) fn with_cuts(aig: &Aig, lib: &CellLibrary) -> (Self, CutSet) {
        let cuts = {
            let _span = sfq_obs::span("map:cuts");
            enumerate_cuts(
                aig,
                &CutConfig {
                    max_leaves: 3,
                    max_cuts: 16,
                },
            )
        };
        let best = {
            let _span = sfq_obs::span("map:choose");
            choose_cuts(aig, lib, &cuts)
        };
        (MapPlan { best }, cuts)
    }

    /// Covers `aig` — the network the plan was built from — with the
    /// chosen cuts, instantiating the given T1 selection.
    ///
    /// # Panics
    ///
    /// Panics if a selected T1 group references nodes outside the network.
    pub fn cover(&self, aig: &Aig, lib: &CellLibrary, t1: Option<&T1Selection>) -> MapResult {
        debug_assert_eq!(self.best.len(), aig.len(), "plan built for another network");
        let _span = sfq_obs::span("map:cover");
        Cover::new(aig, lib, &self.best, t1).run()
    }
}

/// Area-flow cut choice: `best[node]` is the selected cut of each AND node.
fn choose_cuts(aig: &Aig, lib: &CellLibrary, cuts: &CutSet) -> Vec<Option<Cut>> {
    let mut area_flow = vec![0.0f64; aig.len()];
    let mut best = vec![None; aig.len()];
    for id in aig.node_ids() {
        if !matches!(aig.kind(id), NodeKind::And(..)) {
            continue;
        }
        let mut best_cost = f64::INFINITY;
        for cut in cuts.cuts(id) {
            let leaves = cut.leaves();
            if leaves.is_empty() || leaves.len() > 3 || leaves == [id] {
                continue;
            }
            // Skip cuts no library cell implements (3-input non-MAJ3/XOR3).
            let Some(cell) = lib.gate_cost_checked(cut.truth_table()) else {
                continue;
            };
            let flow: f64 = leaves.iter().map(|l| area_flow[l.index()]).sum();
            let cost = cell as f64 + flow;
            if cost < best_cost {
                best_cost = cost;
                best[id.index()] = Some(*cut);
            }
        }
        debug_assert!(best[id.index()].is_some(), "every AND has a fanin cut");
        let refs = aig.fanout_count(id).max(1) as f64;
        area_flow[id.index()] = best_cost / refs;
    }
    best
}

/// One T1 member's place: its group, its port and its output inversion.
#[derive(Debug, Clone, Copy)]
struct T1Root {
    group: u32,
    port: u8,
    invert: bool,
}

struct Cover<'a> {
    aig: &'a Aig,
    lib: &'a CellLibrary,
    best: &'a [Option<Cut>],
    /// `t1_roots[node]`: the T1 member realizing `node`, if any (empty
    /// without a selection).
    t1_roots: Vec<Option<T1Root>>,
    groups: Vec<&'a T1Group>,
    /// `built[node]`: the edge realizing `node`, once built.
    built: Vec<Option<Edge>>,
    t1_cells: Vec<Option<CellId>>,
    out: MappedCircuit,
    attribution: HashMap<NodeId, u32>,
    input_edges: Vec<Edge>,
    const_edge: Option<Edge>,
}

impl<'a> Cover<'a> {
    fn new(
        aig: &'a Aig,
        lib: &'a CellLibrary,
        best: &'a [Option<Cut>],
        t1: Option<&'a T1Selection>,
    ) -> Self {
        let mut t1_roots = Vec::new();
        let mut groups = Vec::new();
        if let Some(sel) = t1 {
            t1_roots.resize(aig.len(), None);
            for (gi, g) in sel.groups.iter().enumerate() {
                groups.push(g);
                for m in &g.members {
                    t1_roots[m.root.index()] = Some(T1Root {
                        group: gi as u32,
                        port: m.port,
                        invert: m.output_invert,
                    });
                }
            }
        }
        let mut out = MappedCircuit::new();
        let input_edges: Vec<Edge> = (0..aig.pi_count())
            .map(|_| Edge::plain(out.add_input()))
            .collect();
        let t1_cells = vec![None; groups.len()];
        Cover {
            aig,
            lib,
            best,
            t1_roots,
            groups,
            built: vec![None; aig.len()],
            t1_cells,
            out,
            attribution: HashMap::new(),
            input_edges,
            const_edge: None,
        }
    }

    fn run(mut self) -> MapResult {
        for po in self.aig.pos().to_vec() {
            let edge = self.build(po.node()).xor_invert(po.is_complement());
            self.out.add_po(edge);
        }
        let t1_used = self.t1_cells.iter().flatten().count();
        MapResult {
            circuit: self.out,
            attribution: self.attribution,
            t1_used,
        }
    }

    fn const_edge(&mut self) -> Edge {
        if let Some(e) = self.const_edge {
            return e;
        }
        let e = Edge::plain(self.out.add_const0());
        self.const_edge = Some(e);
        e
    }

    fn build(&mut self, node: NodeId) -> Edge {
        if let Some(e) = self.built[node.index()] {
            return e;
        }
        let edge = match self.aig.kind(node) {
            NodeKind::Const0 => self.const_edge(),
            NodeKind::Input(i) => self.input_edges[i as usize],
            NodeKind::And(..) => {
                if let Some(root) = self.t1_roots.get(node.index()).copied().flatten() {
                    Edge {
                        cell: self.build_t1(root.group as usize),
                        port: root.port,
                        invert: root.invert,
                    }
                } else {
                    self.build_gate(node)
                }
            }
        };
        self.built[node.index()] = Some(edge);
        edge
    }

    fn build_gate(&mut self, node: NodeId) -> Edge {
        let cut = self.best[node.index()].expect("every AND has a chosen cut");
        let tt = cut.truth_table();
        let leaves = cut.leaves();
        let mut fanins = [Edge::plain(CellId(0)); 3];
        for (slot, &leaf) in fanins.iter_mut().zip(leaves) {
            *slot = self.build(leaf);
        }
        let cost = self.lib.gate_cost(tt);
        let cell = self.out.add_gate(tt, &fanins[..leaves.len()]);
        self.attribution.insert(node, cost);
        Edge::plain(cell)
    }

    fn build_t1(&mut self, gi: usize) -> CellId {
        if let Some(c) = self.t1_cells[gi] {
            return c;
        }
        let group = self.groups[gi];
        let mut operands = [Edge::plain(CellId(0)); 3];
        for (k, &leaf) in group.leaves.iter().enumerate() {
            let e = self.build(leaf);
            let neg = group.input_neg >> k & 1 == 1;
            let flip = neg ^ e.invert;
            operands[k] = if flip {
                // Pulse logic cannot invert on a wire: materialize a NOT.
                let raw = Edge {
                    cell: e.cell,
                    port: e.port,
                    invert: false,
                };
                let not_tt = !TruthTable::var(1, 0);
                Edge::plain(self.out.add_gate(not_tt, &[raw]))
            } else {
                Edge {
                    cell: e.cell,
                    port: e.port,
                    invert: false,
                }
            };
        }
        let cell = self.out.add_t1(operands);
        self.t1_cells[gi] = Some(cell);
        cell
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapped::{T1_PORT_CARRY, T1_PORT_SUM};
    use sfq_netlist::aig::Lit;

    fn check_equivalent(aig: &Aig, mc: &MappedCircuit, samples: u64) {
        assert_eq!(aig.pi_count(), mc.num_inputs());
        assert_eq!(aig.po_count(), mc.pos().len());
        let mut state = 0x243F6A8885A308D3u64;
        for _ in 0..samples {
            let inputs: Vec<u64> = (0..aig.pi_count())
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                })
                .collect();
            assert_eq!(
                aig.eval64(&inputs),
                mc.eval64(&inputs),
                "functional mismatch"
            );
        }
    }

    fn full_adder_aig() -> (Aig, Lit, Lit) {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let s = g.xor3(a, b, c);
        let m = g.maj3(a, b, c);
        g.add_po(s);
        g.add_po(m);
        (g, s, m)
    }

    #[test]
    fn baseline_maps_full_adder_equivalently() {
        let (g, _, _) = full_adder_aig();
        let lib = CellLibrary::default();
        let res = map(&g, &lib, None);
        check_equivalent(&g, &res.circuit, 8);
        assert_eq!(res.t1_used, 0);
    }

    #[test]
    fn xor_maps_to_single_cell() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.xor(a, b);
        g.add_po(x);
        let lib = CellLibrary::default();
        let res = map(&g, &lib, None);
        // One XOR2 cell instead of three AND-class cells.
        assert_eq!(res.circuit.gate_count(), 1);
        assert_eq!(res.circuit.cell_area(&lib), lib.xor2 as u64);
        check_equivalent(&g, &res.circuit, 4);
    }

    #[test]
    fn attribution_covers_mapped_cells() {
        let (g, _, _) = full_adder_aig();
        let lib = CellLibrary::default();
        let res = map(&g, &lib, None);
        let total: u64 = res.attribution.values().map(|&c| c as u64).sum();
        assert_eq!(
            total,
            res.circuit.cell_area(&lib),
            "attribution sums to cell area"
        );
    }

    #[test]
    fn t1_cover_replaces_full_adder() {
        let (g, s, m) = full_adder_aig();
        let lib = CellLibrary::default();
        // Hand-build the selection: both roots on the PI leaves.
        let leaves = [g.pis()[0], g.pis()[1], g.pis()[2]];
        let sel = T1Selection {
            groups: vec![T1Group {
                leaves,
                input_neg: 0,
                members: vec![
                    T1Member {
                        root: s.node(),
                        port: T1_PORT_SUM,
                        output_invert: s.is_complement(),
                    },
                    T1Member {
                        root: m.node(),
                        port: T1_PORT_CARRY,
                        output_invert: m.is_complement(),
                    },
                ],
                gain: 40,
            }],
        };
        let res = map(&g, &lib, Some(&sel));
        assert_eq!(res.t1_used, 1);
        assert_eq!(res.circuit.t1_count(), 1);
        assert_eq!(
            res.circuit.gate_count(),
            0,
            "whole FA collapses into the T1"
        );
        check_equivalent(&g, &res.circuit, 8);
    }

    #[test]
    fn t1_with_negated_operand_gets_not_gate() {
        // f = xor3(!a, b, c), g = maj3(!a, b, c).
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let s = g.xor3(!a, b, c);
        let m = g.maj3(!a, b, c);
        g.add_po(s);
        g.add_po(m);
        let lib = CellLibrary::default();
        let sel = T1Selection {
            groups: vec![T1Group {
                leaves: [a.node(), b.node(), c.node()],
                input_neg: 0b001,
                members: vec![
                    T1Member {
                        root: s.node(),
                        port: T1_PORT_SUM,
                        output_invert: s.is_complement(),
                    },
                    T1Member {
                        root: m.node(),
                        port: T1_PORT_CARRY,
                        output_invert: m.is_complement(),
                    },
                ],
                gain: 30,
            }],
        };
        let res = map(&g, &lib, Some(&sel));
        assert_eq!(res.circuit.t1_count(), 1);
        assert_eq!(
            res.circuit.gate_count(),
            1,
            "one NOT gate for the negated operand"
        );
        check_equivalent(&g, &res.circuit, 8);
    }

    #[test]
    fn constant_and_pass_through_pos() {
        let mut g = Aig::new();
        let a = g.add_pi();
        g.add_po(a);
        g.add_po(!a);
        g.add_po(Lit::FALSE);
        g.add_po(Lit::TRUE);
        let lib = CellLibrary::default();
        let res = map(&g, &lib, None);
        check_equivalent(&g, &res.circuit, 2);
    }

    #[test]
    fn random_networks_map_equivalently() {
        use sfq_circuits::random::{random_aig, RandomAigConfig};
        let lib = CellLibrary::default();
        for seed in 0..10 {
            let g = random_aig(seed, &RandomAigConfig::default());
            let res = map(&g, &lib, None);
            check_equivalent(&g, &res.circuit, 4);
        }
    }

    #[test]
    fn ripple_adder_maps_equivalently() {
        use sfq_circuits::epfl::adder;
        let g = adder(16);
        let lib = CellLibrary::default();
        let res = map(&g, &lib, None);
        check_equivalent(&g, &res.circuit, 4);
        // An FA per bit: 2 XOR-class + a few AND-class cells each; the total
        // must be far below naive 1-cell-per-AND.
        assert!(res.circuit.gate_count() < g.and_count());
    }
}
