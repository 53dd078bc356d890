//! Technology-mapped SFQ netlists.
//!
//! A [`MappedCircuit`] is the output of the mapping stage: a DAG of clocked
//! SFQ cells — 1/2-input gates and multi-output T1 cells — prior to phase
//! assignment and DFF insertion. Cells are stored in topological order
//! (builders may only reference already-created cells), which every later
//! stage of the flow relies on.
//!
//! Input-port polarities live on [`Edge`]s and are absorbed by the consuming
//! cell variant (see `cells` module); T1 fanins are always positive —
//! negated T1 operands get explicit NOT gates during mapping, since a
//! pulse-absence cannot toggle the T input.

use crate::cells::CellLibrary;
use sfq_netlist::truth_table::TruthTable;
use std::fmt;

/// Identifier of a cell inside a [`MappedCircuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

impl CellId {
    /// Index into cell vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// T1 output ports.
pub const T1_PORT_SUM: u8 = 0;
/// T1 carry port (MAJ3).
pub const T1_PORT_CARRY: u8 = 1;
/// T1 or port (OR3).
pub const T1_PORT_OR: u8 = 2;

/// A connection from an output port of a producing cell, with consumer-side
/// inversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Producing cell.
    pub cell: CellId,
    /// Output port (0 for everything except T1: 0 = S, 1 = C, 2 = Q).
    pub port: u8,
    /// Whether the consumer reads the complement.
    pub invert: bool,
}

impl Edge {
    /// Plain non-inverted edge from port 0.
    pub fn plain(cell: CellId) -> Self {
        Edge {
            cell,
            port: 0,
            invert: false,
        }
    }

    /// The same edge with inversion toggled by `flip`.
    pub fn xor_invert(self, flip: bool) -> Self {
        Edge {
            invert: self.invert ^ flip,
            ..self
        }
    }
}

/// A mapped cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappedCell {
    /// Primary input (released at stage 0, phase 0).
    Input {
        /// Input ordinal.
        index: u32,
    },
    /// Constant-false driver.
    Const0,
    /// Clocked combinational cell computing `tt` over its fanins.
    Gate {
        /// Function over the fanin slots (after per-edge inversion).
        tt: TruthTable,
        /// Fanin edges (slot `i` is variable `i` of `tt`).
        fanins: Vec<Edge>,
    },
    /// T1 cell; fanins are merged into the `T` input, the clock acts as `R`.
    T1 {
        /// The three operand edges (always `invert == false`).
        fanins: [Edge; 3],
    },
}

/// A technology-mapped netlist.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MappedCircuit {
    cells: Vec<MappedCell>,
    pos: Vec<Edge>,
    num_inputs: usize,
}

impl MappedCircuit {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a primary input cell.
    pub fn add_input(&mut self) -> CellId {
        let id = CellId(self.cells.len() as u32);
        self.cells.push(MappedCell::Input {
            index: self.num_inputs as u32,
        });
        self.num_inputs += 1;
        id
    }

    /// Adds a constant-false cell.
    pub fn add_const0(&mut self) -> CellId {
        let id = CellId(self.cells.len() as u32);
        self.cells.push(MappedCell::Const0);
        id
    }

    /// Adds a clocked gate.
    ///
    /// # Panics
    ///
    /// Panics if `tt.num_vars() != fanins.len()`, if any fanin references a
    /// not-yet-created cell (topological order violation), or if a fanin
    /// references a non-existent T1 port.
    pub fn add_gate(&mut self, tt: TruthTable, fanins: Vec<Edge>) -> CellId {
        assert_eq!(tt.num_vars(), fanins.len(), "gate arity mismatch");
        for e in &fanins {
            self.check_edge(e);
        }
        let id = CellId(self.cells.len() as u32);
        self.cells.push(MappedCell::Gate { tt, fanins });
        id
    }

    /// Adds a T1 cell over three positive operand edges.
    ///
    /// # Panics
    ///
    /// Panics on topological-order violations or if any edge is inverted
    /// (negated operands need explicit NOT gates).
    pub fn add_t1(&mut self, fanins: [Edge; 3]) -> CellId {
        for e in &fanins {
            self.check_edge(e);
            assert!(!e.invert, "T1 operands must be positive; insert a NOT gate");
        }
        let id = CellId(self.cells.len() as u32);
        self.cells.push(MappedCell::T1 { fanins });
        id
    }

    /// Registers a primary output.
    ///
    /// # Panics
    ///
    /// Panics if the edge is invalid.
    pub fn add_po(&mut self, edge: Edge) {
        self.check_edge(&edge);
        self.pos.push(edge);
    }

    fn check_edge(&self, e: &Edge) {
        assert!(
            (e.cell.index()) < self.cells.len(),
            "edge references cell {} before creation",
            e.cell.0
        );
        let ports = self.num_ports(e.cell);
        assert!((e.port as usize) < ports, "port {} out of range", e.port);
    }

    /// Number of output ports of `cell` (3 for T1, 1 otherwise).
    pub fn num_ports(&self, cell: CellId) -> usize {
        match self.cells[cell.index()] {
            MappedCell::T1 { .. } => 3,
            _ => 1,
        }
    }

    /// The cell payload.
    pub fn cell(&self, id: CellId) -> &MappedCell {
        &self.cells[id.index()]
    }

    /// All cells in topological order.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &MappedCell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId(i as u32), c))
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` if the netlist is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Primary output edges.
    pub fn pos(&self) -> &[Edge] {
        &self.pos
    }

    /// Fanin edges of a cell.
    pub fn fanins(&self, id: CellId) -> &[Edge] {
        match &self.cells[id.index()] {
            MappedCell::Input { .. } | MappedCell::Const0 => &[],
            MappedCell::Gate { fanins, .. } => fanins,
            MappedCell::T1 { fanins } => fanins,
        }
    }

    /// Number of logic gates (excluding inputs/constants/T1).
    pub fn gate_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c, MappedCell::Gate { .. }))
            .count()
    }

    /// Number of T1 cells.
    pub fn t1_count(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c, MappedCell::T1 { .. }))
            .count()
    }

    /// Total cell area in JJs (gates + T1 assemblies; no DFFs/splitters,
    /// which are accounted by the DFF-insertion plan).
    pub fn cell_area(&self, lib: &CellLibrary) -> u64 {
        self.cells
            .iter()
            .map(|c| match c {
                MappedCell::Input { .. } | MappedCell::Const0 => 0u64,
                MappedCell::Gate { tt, .. } => lib.gate_cost(*tt) as u64,
                MappedCell::T1 { .. } => lib.t1_assembly() as u64,
            })
            .sum()
    }

    /// Evaluates all primary outputs on 64 packed input vectors
    /// (combinational semantics, ignoring timing).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_inputs()`.
    pub fn eval64(&self, inputs: &[u64]) -> Vec<u64> {
        assert_eq!(inputs.len(), self.num_inputs, "one word per input required");
        // Values per (cell, port): T1 uses 3 slots.
        let mut values: Vec<[u64; 3]> = vec![[0; 3]; self.cells.len()];
        let read = |values: &[[u64; 3]], e: &Edge| -> u64 {
            let v = values[e.cell.index()][e.port as usize];
            if e.invert {
                !v
            } else {
                v
            }
        };
        for (i, c) in self.cells.iter().enumerate() {
            match c {
                MappedCell::Input { index } => values[i][0] = inputs[*index as usize],
                MappedCell::Const0 => values[i][0] = 0,
                MappedCell::Gate { tt, fanins } => {
                    let mut out = 0u64;
                    for bit in 0..64 {
                        let mut idx = 0usize;
                        for (s, e) in fanins.iter().enumerate() {
                            if (read(&values, e) >> bit) & 1 == 1 {
                                idx |= 1 << s;
                            }
                        }
                        if tt.get(idx) {
                            out |= 1 << bit;
                        }
                    }
                    values[i][0] = out;
                }
                MappedCell::T1 { fanins } => {
                    let a = read(&values, &fanins[0]);
                    let b = read(&values, &fanins[1]);
                    let c3 = read(&values, &fanins[2]);
                    values[i][T1_PORT_SUM as usize] = a ^ b ^ c3;
                    values[i][T1_PORT_CARRY as usize] = (a & b) | (a & c3) | (b & c3);
                    values[i][T1_PORT_OR as usize] = a | b | c3;
                }
            }
        }
        self.pos.iter().map(|e| read(&values, e)).collect()
    }

    /// Evaluates on a single Boolean assignment.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_inputs()`.
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
}

impl fmt::Display for MappedCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MappedCircuit: {} inputs, {} gates, {} T1 cells, {} outputs",
            self.num_inputs,
            self.gate_count(),
            self.t1_count(),
            self.pos.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn and2() -> TruthTable {
        TruthTable::var(2, 0) & TruthTable::var(2, 1)
    }

    #[test]
    fn build_and_eval_gate() {
        let mut m = MappedCircuit::new();
        let a = m.add_input();
        let b = m.add_input();
        let g = m.add_gate(and2(), vec![Edge::plain(a), Edge::plain(b)]);
        m.add_po(Edge::plain(g));
        assert_eq!(m.eval(&[true, true]), vec![true]);
        assert_eq!(m.eval(&[true, false]), vec![false]);
    }

    #[test]
    fn inverted_edges() {
        let mut m = MappedCircuit::new();
        let a = m.add_input();
        let b = m.add_input();
        let g = m.add_gate(
            and2(),
            vec![
                Edge::plain(a),
                Edge {
                    cell: b,
                    port: 0,
                    invert: true,
                },
            ],
        );
        m.add_po(Edge {
            cell: g,
            port: 0,
            invert: true,
        });
        // !(a & !b)
        assert_eq!(m.eval(&[true, false]), vec![false]);
        assert_eq!(m.eval(&[true, true]), vec![true]);
    }

    #[test]
    fn t1_ports_compute_fa() {
        let mut m = MappedCircuit::new();
        let a = m.add_input();
        let b = m.add_input();
        let c = m.add_input();
        let t1 = m.add_t1([Edge::plain(a), Edge::plain(b), Edge::plain(c)]);
        m.add_po(Edge {
            cell: t1,
            port: T1_PORT_SUM,
            invert: false,
        });
        m.add_po(Edge {
            cell: t1,
            port: T1_PORT_CARRY,
            invert: false,
        });
        m.add_po(Edge {
            cell: t1,
            port: T1_PORT_OR,
            invert: false,
        });
        for i in 0..8u32 {
            let bits = [i & 1 == 1, i >> 1 & 1 == 1, i >> 2 & 1 == 1];
            let out = m.eval(&bits);
            let ones = i.count_ones();
            assert_eq!(out[0], ones % 2 == 1, "sum at {i}");
            assert_eq!(out[1], ones >= 2, "carry at {i}");
            assert_eq!(out[2], ones >= 1, "or at {i}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn t1_rejects_inverted_operand() {
        let mut m = MappedCircuit::new();
        let a = m.add_input();
        let b = m.add_input();
        let c = m.add_input();
        m.add_t1([
            Edge {
                cell: a,
                port: 0,
                invert: true,
            },
            Edge::plain(b),
            Edge::plain(c),
        ]);
    }

    #[test]
    #[should_panic(expected = "before creation")]
    fn forward_reference_rejected() {
        let mut m = MappedCircuit::new();
        let a = m.add_input();
        m.add_gate(and2(), vec![Edge::plain(a), Edge::plain(CellId(99))]);
    }

    #[test]
    fn area_accounting() {
        let lib = CellLibrary::default();
        let mut m = MappedCircuit::new();
        let a = m.add_input();
        let b = m.add_input();
        let c = m.add_input();
        let g = m.add_gate(and2(), vec![Edge::plain(a), Edge::plain(b)]);
        let t1 = m.add_t1([Edge::plain(a), Edge::plain(b), Edge::plain(c)]);
        m.add_po(Edge::plain(g));
        m.add_po(Edge {
            cell: t1,
            port: 0,
            invert: false,
        });
        assert_eq!(m.cell_area(&lib), (lib.and2 + lib.t1_assembly()) as u64);
        assert_eq!(m.gate_count(), 1);
        assert_eq!(m.t1_count(), 1);
    }

    #[test]
    fn const0_evaluates_false() {
        let mut m = MappedCircuit::new();
        let k = m.add_const0();
        m.add_po(Edge::plain(k));
        m.add_po(Edge {
            cell: k,
            port: 0,
            invert: true,
        });
        assert_eq!(m.eval(&[]), vec![false, true]);
    }
}
