//! Event-driven pulse-level simulation of scheduled SFQ netlists.
//!
//! The simulator executes a *scheduled* netlist — every clocked element
//! carries the stage `σ = n·epoch + phase` assigned by the mapping flow —
//! under multiphase clocking, streaming one input vector per epoch
//! (wave pipelining, the actual operating mode of gate-level-pipelined SFQ).
//!
//! Semantics (see DESIGN.md §4 for the modeling decisions):
//!
//! - time is measured in abstract units; one stage slot is [`SLOT`] units and
//!   an n-phase epoch is `n · SLOT`;
//! - a clocked element at stage `σ` receives clock pulses at times
//!   `(σ + k·n) · SLOT` for wave `k = 0, 1, …`;
//! - on its clock, an element computes its function over the input pulses
//!   captured since its previous clock, clears them, and (for a logic 1)
//!   emits an output pulse shortly after the clock edge;
//! - input-port inversions are absorbed into the consuming cell (RSFQ cell
//!   variants — NAND/NOR/inverted-input gates — share the cost class);
//! - the [T1 cell](crate::t1cell) processes `T` pulses asynchronously at
//!   arrival time and counts pulse-overlap hazards.
//!
//! Because data is only valid for `n` stages, the simulator validates the
//! schedule (every fanin within the capture window) before running — a
//! mapping-flow bug that violates the window is reported as an error rather
//! than silently mis-simulating.

use crate::t1cell::{T1Cell, T1Event};
use sfq_netlist::truth_table::TruthTable;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Duration of one stage slot in simulator time units.
pub const SLOT: u64 = 1000;
/// Delay from a clock edge to the corresponding data pulse emission.
pub const EMIT_DELAY: u64 = 60;
/// Minimum admissible separation of T1 `T`-input pulses (hazard threshold).
pub const T1_MIN_SEPARATION: u64 = 500;

/// Identifier of an element inside a [`PulseCircuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElementId(pub u32);

impl ElementId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// A reference to an output port of an element (T1 cells have three ports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OutRef {
    /// Producing element.
    pub elem: ElementId,
    /// Output port (0 except for T1: 0 = S, 1 = C, 2 = Q).
    pub port: u8,
}

/// A connection to a fanin, with the consumer-side inversion flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fanin {
    /// Driving output.
    pub source: OutRef,
    /// Whether the consuming cell reads the complement.
    pub invert: bool,
}

impl Fanin {
    /// Plain (non-inverting) connection to port 0 of `elem`.
    pub fn plain(elem: ElementId) -> Self {
        Fanin {
            source: OutRef { elem, port: 0 },
            invert: false,
        }
    }
}

#[derive(Debug, Clone)]
enum Element {
    /// Primary input (stage 0); emits according to the wave's vector.
    Input { index: usize },
    /// Constant driver (stage 0); emits every wave if `value`.
    Const { value: bool },
    /// Clocked combinational cell: function over captured fanin flags.
    Gate {
        tt: TruthTable,
        fanins: Vec<Fanin>,
        stage: u32,
    },
    /// Clocked D flip-flop (a path-balancing buffer).
    Dff { fanin: Fanin, stage: u32 },
    /// T1 cell: three data fanins merged into `T`, clock on `R`.
    T1 { fanins: [Fanin; 3], stage: u32 },
    /// Output capture latch.
    Output {
        fanin: Fanin,
        index: usize,
        stage: u32,
    },
}

impl Element {
    fn stage(&self) -> u32 {
        match self {
            Element::Input { .. } | Element::Const { .. } => 0,
            Element::Gate { stage, .. }
            | Element::Dff { stage, .. }
            | Element::T1 { stage, .. }
            | Element::Output { stage, .. } => *stage,
        }
    }

    fn fanins(&self) -> Vec<Fanin> {
        match self {
            Element::Input { .. } | Element::Const { .. } => vec![],
            Element::Gate { fanins, .. } => fanins.clone(),
            Element::Dff { fanin, .. } | Element::Output { fanin, .. } => vec![*fanin],
            Element::T1 { fanins, .. } => fanins.to_vec(),
        }
    }
}

/// Errors reported by schedule validation or simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A fanin is produced outside the consumer's capture window.
    WindowViolation {
        /// Consuming element.
        consumer: ElementId,
        /// Driving element.
        producer: ElementId,
        /// Consumer stage.
        consumer_stage: u32,
        /// Producer stage.
        producer_stage: u32,
    },
    /// A T1 cell's fanins do not arrive at pairwise distinct stages.
    T1InputsNotStaggered(ElementId),
    /// Fewer than three phases: T1 staggering is impossible.
    TooFewPhases,
    /// An input vector has the wrong width.
    VectorWidth {
        /// Expected width (number of inputs).
        expected: usize,
        /// Provided width.
        got: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::WindowViolation {
                consumer,
                producer,
                consumer_stage,
                producer_stage,
            } => {
                write!(
                    f,
                    "element {} (stage {}) cannot capture element {} (stage {})",
                    consumer.0, consumer_stage, producer.0, producer_stage
                )
            }
            SimError::T1InputsNotStaggered(id) => {
                write!(f, "T1 cell {} has non-staggered inputs", id.0)
            }
            SimError::TooFewPhases => f.write_str("T1 cells require at least 3 clock phases"),
            SimError::VectorWidth { expected, got } => {
                write!(f, "input vector width {got}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Optional simulation controls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimOptions {
    /// Peak clock jitter: every clock event is displaced by a deterministic
    /// pseudo-random offset in `[-amplitude, +amplitude]` time units.
    /// Models skew/jitter of the multiphase clock network; large values
    /// shrink the T1 pulse-separation margin until hazards appear.
    pub jitter_amplitude: u64,
    /// Seed for the jitter pattern.
    pub jitter_seed: u64,
}

/// Result of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// One output vector per input wave (indexed by output index).
    pub outputs: Vec<Vec<bool>>,
    /// Total T1 pulse-overlap hazards observed.
    pub hazards: u64,
    /// Total pulses emitted (activity metric).
    pub pulses: u64,
}

/// A scheduled SFQ netlist ready for pulse simulation.
#[derive(Debug, Clone, Default)]
pub struct PulseCircuit {
    elements: Vec<Element>,
    num_inputs: usize,
    num_outputs: usize,
}

impl PulseCircuit {
    /// Creates an empty circuit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a primary input (stage 0) and returns its element id.
    pub fn add_input(&mut self) -> ElementId {
        let id = ElementId(self.elements.len() as u32);
        self.elements.push(Element::Input {
            index: self.num_inputs,
        });
        self.num_inputs += 1;
        id
    }

    /// Adds a constant driver (stage 0).
    pub fn add_const(&mut self, value: bool) -> ElementId {
        let id = ElementId(self.elements.len() as u32);
        self.elements.push(Element::Const { value });
        id
    }

    /// Adds a clocked gate computing `tt` over its fanins at `stage`.
    ///
    /// # Panics
    ///
    /// Panics if `tt.num_vars() != fanins.len()` or `stage == 0`.
    pub fn add_gate(&mut self, tt: TruthTable, fanins: Vec<Fanin>, stage: u32) -> ElementId {
        assert_eq!(
            tt.num_vars(),
            fanins.len(),
            "function arity must match fanin count"
        );
        assert!(stage > 0, "clocked elements start at stage 1");
        let id = ElementId(self.elements.len() as u32);
        self.elements.push(Element::Gate { tt, fanins, stage });
        id
    }

    /// Adds a path-balancing DFF at `stage`.
    ///
    /// # Panics
    ///
    /// Panics if `stage == 0`.
    pub fn add_dff(&mut self, fanin: Fanin, stage: u32) -> ElementId {
        assert!(stage > 0, "clocked elements start at stage 1");
        let id = ElementId(self.elements.len() as u32);
        self.elements.push(Element::Dff { fanin, stage });
        id
    }

    /// Adds a T1 cell clocked (R input) at `stage`; ports 0/1/2 are S/C/Q.
    ///
    /// # Panics
    ///
    /// Panics if `stage == 0`.
    pub fn add_t1(&mut self, fanins: [Fanin; 3], stage: u32) -> ElementId {
        assert!(stage > 0, "clocked elements start at stage 1");
        let id = ElementId(self.elements.len() as u32);
        self.elements.push(Element::T1 { fanins, stage });
        id
    }

    /// Adds an output capture latch at `stage`; returns the output index.
    ///
    /// # Panics
    ///
    /// Panics if `stage == 0`.
    pub fn add_output(&mut self, fanin: Fanin, stage: u32) -> usize {
        assert!(stage > 0, "clocked elements start at stage 1");
        let index = self.num_outputs;
        self.elements.push(Element::Output {
            fanin,
            index,
            stage,
        });
        self.num_outputs += 1;
        index
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Number of elements (including inputs and output latches).
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Returns `true` if the circuit has no elements.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Number of DFF elements.
    pub fn dff_count(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| matches!(e, Element::Dff { .. }))
            .count()
    }

    /// Validates the schedule for `n`-phase operation.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] found: capture-window violations,
    /// non-staggered T1 inputs, or `n < 3` in the presence of T1 cells.
    pub fn validate(&self, n: u32) -> Result<(), SimError> {
        if n < 3
            && self
                .elements
                .iter()
                .any(|e| matches!(e, Element::T1 { .. }))
        {
            return Err(SimError::TooFewPhases);
        }
        for (i, e) in self.elements.iter().enumerate() {
            let id = ElementId(i as u32);
            let stage = e.stage();
            for f in e.fanins() {
                let pstage = self.elements[f.source.elem.index()].stage();
                let gap = stage as i64 - pstage as i64;
                if gap < 1 || gap > n as i64 {
                    return Err(SimError::WindowViolation {
                        consumer: id,
                        producer: f.source.elem,
                        consumer_stage: stage,
                        producer_stage: pstage,
                    });
                }
            }
            if let Element::T1 { fanins, .. } = e {
                if n < 3 {
                    return Err(SimError::TooFewPhases);
                }
                let mut stages: Vec<u32> = fanins
                    .iter()
                    .map(|f| self.elements[f.source.elem.index()].stage())
                    .collect();
                stages.sort_unstable();
                stages.dedup();
                if stages.len() != 3 {
                    return Err(SimError::T1InputsNotStaggered(id));
                }
            }
        }
        Ok(())
    }

    /// Runs the circuit on a stream of input vectors (one per epoch) under
    /// `n`-phase clocking.
    ///
    /// # Errors
    ///
    /// Propagates [`PulseCircuit::validate`] errors and rejects vectors of
    /// the wrong width.
    pub fn simulate(&self, vectors: &[Vec<bool>], n: u32) -> Result<SimOutcome, SimError> {
        self.simulate_opts(vectors, n, SimOptions::default())
    }

    /// [`PulseCircuit::simulate`] with explicit [`SimOptions`] (clock jitter
    /// injection for timing-margin studies).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PulseCircuit::simulate`].
    pub fn simulate_opts(
        &self,
        vectors: &[Vec<bool>],
        n: u32,
        opts: SimOptions,
    ) -> Result<SimOutcome, SimError> {
        // SplitMix64-style hash for deterministic per-event jitter.
        let jitter = |elem: u32, wave: u32| -> i64 {
            if opts.jitter_amplitude == 0 {
                return 0;
            }
            let mut z = opts
                .jitter_seed
                .wrapping_add(0x9E3779B97F4A7C15)
                .wrapping_add((elem as u64) << 32 | wave as u64);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            let span = 2 * opts.jitter_amplitude + 1;
            (z % span) as i64 - opts.jitter_amplitude as i64
        };
        self.validate(n)?;
        for v in vectors {
            if v.len() != self.num_inputs {
                return Err(SimError::VectorWidth {
                    expected: self.num_inputs,
                    got: v.len(),
                });
            }
        }
        let num_waves = vectors.len();

        // Fanout lists per (element, port).
        let mut fanouts: Vec<Vec<Vec<(ElementId, u8)>>> = self
            .elements
            .iter()
            .map(|e| {
                let ports = if matches!(e, Element::T1 { .. }) {
                    3
                } else {
                    1
                };
                vec![Vec::new(); ports]
            })
            .collect();
        for (i, e) in self.elements.iter().enumerate() {
            for (slot, f) in e.fanins().iter().enumerate() {
                fanouts[f.source.elem.index()][f.source.port as usize]
                    .push((ElementId(i as u32), slot as u8));
            }
        }

        // Per-element run state.
        let mut flags: Vec<Vec<bool>> = self
            .elements
            .iter()
            .map(|e| vec![false; e.fanins().len()])
            .collect();
        let mut t1_state: Vec<Option<T1Cell>> = self
            .elements
            .iter()
            .map(|e| matches!(e, Element::T1 { .. }).then(|| T1Cell::new(T1_MIN_SEPARATION)))
            .collect();
        let mut outputs = vec![vec![false; self.num_outputs]; num_waves];
        let mut pulses: u64 = 0;

        // Event queue: (time, kind_rank, element). Pulses (rank 0) are
        // processed before clocks (rank 1) at equal times, although the
        // EMIT_DELAY offset keeps times distinct in practice.
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        enum Ev {
            Pulse(ElementId, u8),
            Clock(ElementId, u32),
        }
        let mut queue: BinaryHeap<Reverse<(u64, u8, u32, Ev)>> = BinaryHeap::new();
        let push = |q: &mut BinaryHeap<Reverse<(u64, u8, u32, Ev)>>, t: u64, ev: Ev| {
            let (rank, id) = match &ev {
                Ev::Pulse(e, _) => (0u8, e.0),
                Ev::Clock(e, _) => (1u8, e.0),
            };
            q.push(Reverse((t, rank, id, ev)));
        };

        // Schedule all clock events (with optional jitter displacement).
        for (i, e) in self.elements.iter().enumerate() {
            let id = ElementId(i as u32);
            for k in 0..num_waves as u32 {
                let nominal = (e.stage() as u64 + k as u64 * n as u64) * SLOT;
                let t = nominal.saturating_add_signed(jitter(i as u32, k));
                match e {
                    Element::Input { index } => {
                        if vectors[k as usize][*index] {
                            push(&mut queue, t + EMIT_DELAY, Ev::Clock(id, k));
                        }
                    }
                    Element::Const { value } => {
                        if *value {
                            push(&mut queue, t + EMIT_DELAY, Ev::Clock(id, k));
                        }
                    }
                    _ => push(&mut queue, t, Ev::Clock(id, k)),
                }
            }
        }

        // Drain the queue.
        while let Some(Reverse((time, _, _, ev))) = queue.pop() {
            match ev {
                Ev::Pulse(target, slot) => {
                    let ti = target.index();
                    match &self.elements[ti] {
                        Element::T1 { .. } => {
                            // All three fanin slots merge into the T input.
                            let cell = t1_state[ti].as_mut().expect("T1 state allocated");
                            let _async_events = cell.pulse_t(time);
                        }
                        _ => {
                            flags[ti][slot as usize] = true;
                        }
                    }
                }
                Ev::Clock(id, wave) => {
                    let i = id.index();
                    let value = match &self.elements[i] {
                        Element::Input { .. } | Element::Const { .. } => Some(true),
                        Element::Gate { tt, fanins, .. } => {
                            let mut idx = 0usize;
                            for (s, f) in fanins.iter().enumerate() {
                                if flags[i][s] ^ f.invert {
                                    idx |= 1 << s;
                                }
                            }
                            for fl in flags[i].iter_mut() {
                                *fl = false;
                            }
                            Some(tt.get(idx))
                        }
                        Element::Dff { fanin, .. } => {
                            let v = flags[i][0] ^ fanin.invert;
                            flags[i][0] = false;
                            Some(v)
                        }
                        Element::Output { fanin, index, .. } => {
                            let v = flags[i][0] ^ fanin.invert;
                            flags[i][0] = false;
                            outputs[wave as usize][*index] = v;
                            None
                        }
                        Element::T1 { .. } => {
                            let cell = t1_state[i].as_mut().expect("T1 state allocated");
                            let events = cell.pulse_r(time);
                            // Emit per port: 0 = S, 1 = C, 2 = Q.
                            for (port, ev_kind) in
                                [(0u8, T1Event::S), (1, T1Event::C), (2, T1Event::Q)]
                            {
                                if events.contains(&ev_kind) {
                                    for &(consumer, slot) in &fanouts[i][port as usize] {
                                        pulses += 1;
                                        push(
                                            &mut queue,
                                            time + EMIT_DELAY,
                                            Ev::Pulse(consumer, slot),
                                        );
                                    }
                                }
                            }
                            None
                        }
                    };
                    if let Some(true) = value {
                        // T1 inverted-input handling lives in the mapping
                        // flow (explicit NOT gates), so plain emission is
                        // correct for all single-port elements.
                        for &(consumer, slot) in &fanouts[i][0] {
                            pulses += 1;
                            push(&mut queue, time + EMIT_DELAY, Ev::Pulse(consumer, slot));
                        }
                    }
                }
            }
        }

        let hazards = t1_state.iter().flatten().map(T1Cell::hazards).sum();
        Ok(SimOutcome {
            outputs,
            hazards,
            pulses,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tt_and2() -> TruthTable {
        TruthTable::var(2, 0) & TruthTable::var(2, 1)
    }

    fn tt_xor2() -> TruthTable {
        TruthTable::var(2, 0) ^ TruthTable::var(2, 1)
    }

    #[test]
    fn single_gate_and() {
        let mut c = PulseCircuit::new();
        let a = c.add_input();
        let b = c.add_input();
        let g = c.add_gate(tt_and2(), vec![Fanin::plain(a), Fanin::plain(b)], 1);
        c.add_output(Fanin::plain(g), 2);
        let out = c
            .simulate(
                &[vec![true, true], vec![true, false], vec![false, false]],
                1,
            )
            .unwrap();
        assert_eq!(out.outputs, vec![vec![true], vec![false], vec![false]]);
    }

    #[test]
    fn inverted_input_gate() {
        let mut c = PulseCircuit::new();
        let a = c.add_input();
        let b = c.add_input();
        let g = c.add_gate(
            tt_and2(),
            vec![
                Fanin::plain(a),
                Fanin {
                    source: OutRef { elem: b, port: 0 },
                    invert: true,
                },
            ],
            1,
        );
        c.add_output(Fanin::plain(g), 2);
        let out = c
            .simulate(&[vec![true, false], vec![true, true]], 1)
            .unwrap();
        assert_eq!(out.outputs, vec![vec![true], vec![false]]);
    }

    #[test]
    fn dff_chain_delays_one_stage_each() {
        let mut c = PulseCircuit::new();
        let a = c.add_input();
        let d1 = c.add_dff(Fanin::plain(a), 1);
        let d2 = c.add_dff(Fanin::plain(d1), 2);
        c.add_output(Fanin::plain(d2), 3);
        let out = c
            .simulate(&[vec![true], vec![false], vec![true]], 1)
            .unwrap();
        assert_eq!(out.outputs, vec![vec![true], vec![false], vec![true]]);
    }

    #[test]
    fn multiphase_window_allows_gap() {
        // Producer at stage 1, consumer at stage 4: legal under n = 4.
        let mut c = PulseCircuit::new();
        let a = c.add_input();
        let g = c.add_gate(TruthTable::var(1, 0), vec![Fanin::plain(a)], 1);
        c.add_output(Fanin::plain(g), 4);
        let out = c.simulate(&[vec![true], vec![false]], 4).unwrap();
        assert_eq!(out.outputs, vec![vec![true], vec![false]]);
        // Same netlist under single-phase clocking is invalid.
        assert!(matches!(
            c.simulate(&[vec![true]], 1),
            Err(SimError::WindowViolation { .. })
        ));
    }

    #[test]
    fn t1_full_adder_all_combinations() {
        // T1 at stage 4, inputs delivered at stages 1, 2, 3 via DFFs.
        let mut c = PulseCircuit::new();
        let a = c.add_input();
        let b = c.add_input();
        let cin = c.add_input();
        let da = c.add_dff(Fanin::plain(a), 1);
        let db = c.add_dff(Fanin::plain(b), 2);
        let dc = c.add_dff(Fanin::plain(cin), 3);
        let t1 = c.add_t1([Fanin::plain(da), Fanin::plain(db), Fanin::plain(dc)], 4);
        c.add_output(
            Fanin {
                source: OutRef { elem: t1, port: 0 },
                invert: false,
            },
            5,
        );
        c.add_output(
            Fanin {
                source: OutRef { elem: t1, port: 1 },
                invert: false,
            },
            5,
        );
        c.add_output(
            Fanin {
                source: OutRef { elem: t1, port: 2 },
                invert: false,
            },
            5,
        );
        let vectors: Vec<Vec<bool>> = (0..8u32)
            .map(|i| (0..3).map(|b| (i >> b) & 1 == 1).collect())
            .collect();
        let out = c.simulate(&vectors, 4).unwrap();
        assert_eq!(out.hazards, 0, "staggered inputs must not overlap");
        for (i, got) in out.outputs.iter().enumerate() {
            let ones = (i as u32).count_ones();
            assert_eq!(got[0], ones % 2 == 1, "S at input {i}");
            assert_eq!(got[1], ones >= 2, "C at input {i}");
            assert_eq!(got[2], ones >= 1, "Q at input {i}");
        }
    }

    #[test]
    fn t1_unstaggered_inputs_rejected() {
        let mut c = PulseCircuit::new();
        let a = c.add_input();
        let b = c.add_input();
        let cin = c.add_input();
        let da = c.add_dff(Fanin::plain(a), 2);
        let db = c.add_dff(Fanin::plain(b), 2); // same stage as da
        let dc = c.add_dff(Fanin::plain(cin), 3);
        let t1 = c.add_t1([Fanin::plain(da), Fanin::plain(db), Fanin::plain(dc)], 4);
        c.add_output(
            Fanin {
                source: OutRef { elem: t1, port: 0 },
                invert: false,
            },
            5,
        );
        assert_eq!(
            c.simulate(&[vec![false, false, false]], 4),
            Err(SimError::T1InputsNotStaggered(t1))
        );
    }

    #[test]
    fn t1_requires_three_phases() {
        let mut c = PulseCircuit::new();
        let a = c.add_input();
        let b = c.add_input();
        let cin = c.add_input();
        let da = c.add_dff(Fanin::plain(a), 1);
        let db = c.add_dff(Fanin::plain(b), 2);
        let dc = c.add_dff(Fanin::plain(cin), 3);
        let t1 = c.add_t1([Fanin::plain(da), Fanin::plain(db), Fanin::plain(dc)], 4);
        c.add_output(
            Fanin {
                source: OutRef { elem: t1, port: 0 },
                invert: false,
            },
            5,
        );
        assert_eq!(
            c.simulate(&[vec![true, true, true]], 2),
            Err(SimError::TooFewPhases)
        );
    }

    #[test]
    fn wave_pipelining_streams_independent_vectors() {
        // xor of two inputs, 8 random-ish waves, single phase.
        let mut c = PulseCircuit::new();
        let a = c.add_input();
        let b = c.add_input();
        let g = c.add_gate(tt_xor2(), vec![Fanin::plain(a), Fanin::plain(b)], 1);
        c.add_output(Fanin::plain(g), 2);
        let vectors: Vec<Vec<bool>> = (0..8u32)
            .map(|i| vec![i & 1 == 1, i >> 1 & 1 == 1])
            .collect();
        let out = c.simulate(&vectors, 1).unwrap();
        for (i, got) in out.outputs.iter().enumerate() {
            let expect = ((i & 1) ^ ((i >> 1) & 1)) == 1;
            assert_eq!(got[0], expect, "wave {i}");
        }
    }

    #[test]
    fn const_driver() {
        let mut c = PulseCircuit::new();
        let a = c.add_input();
        let k = c.add_const(true);
        let g = c.add_gate(tt_and2(), vec![Fanin::plain(a), Fanin::plain(k)], 1);
        c.add_output(Fanin::plain(g), 2);
        let out = c.simulate(&[vec![true], vec![false]], 1).unwrap();
        assert_eq!(out.outputs, vec![vec![true], vec![false]]);
    }

    #[test]
    fn vector_width_checked() {
        let mut c = PulseCircuit::new();
        let a = c.add_input();
        c.add_output(Fanin::plain(a), 1);
        assert_eq!(
            c.simulate(&[vec![true, false]], 1),
            Err(SimError::VectorWidth {
                expected: 1,
                got: 2
            })
        );
    }

    #[test]
    fn inverted_output() {
        let mut c = PulseCircuit::new();
        let a = c.add_input();
        c.add_output(
            Fanin {
                source: OutRef { elem: a, port: 0 },
                invert: true,
            },
            1,
        );
        let out = c.simulate(&[vec![true], vec![false]], 1).unwrap();
        assert_eq!(out.outputs, vec![vec![false], vec![true]]);
    }
}

#[cfg(test)]
mod jitter_tests {
    use super::*;

    /// T1 full adder with release DFFs at stages 1..3, T1 at 4.
    fn t1_fa() -> PulseCircuit {
        let mut c = PulseCircuit::new();
        let a = c.add_input();
        let b = c.add_input();
        let cin = c.add_input();
        let da = c.add_dff(Fanin::plain(a), 1);
        let db = c.add_dff(Fanin::plain(b), 2);
        let dc = c.add_dff(Fanin::plain(cin), 3);
        let t1 = c.add_t1([Fanin::plain(da), Fanin::plain(db), Fanin::plain(dc)], 4);
        c.add_output(
            Fanin {
                source: OutRef { elem: t1, port: 0 },
                invert: false,
            },
            5,
        );
        c
    }

    #[test]
    fn zero_jitter_matches_plain_simulation() {
        let c = t1_fa();
        let vectors: Vec<Vec<bool>> = (0..8u32)
            .map(|i| (0..3).map(|k| (i >> k) & 1 == 1).collect())
            .collect();
        let plain = c.simulate(&vectors, 4).unwrap();
        let opt = c
            .simulate_opts(
                &vectors,
                4,
                SimOptions {
                    jitter_amplitude: 0,
                    jitter_seed: 7,
                },
            )
            .unwrap();
        assert_eq!(plain, opt);
    }

    #[test]
    fn small_jitter_is_harmless() {
        // Stage separation is SLOT = 1000, hazard threshold 500:
        // ±100 of jitter keeps pulses separated and capture windows intact.
        let c = t1_fa();
        let vectors: Vec<Vec<bool>> = (0..8u32)
            .map(|i| (0..3).map(|k| (i >> k) & 1 == 1).collect())
            .collect();
        for seed in 0..5 {
            let out = c
                .simulate_opts(
                    &vectors,
                    4,
                    SimOptions {
                        jitter_amplitude: 100,
                        jitter_seed: seed,
                    },
                )
                .unwrap();
            assert_eq!(out.hazards, 0, "seed {seed}");
            for (i, o) in out.outputs.iter().enumerate() {
                assert_eq!(
                    o[0],
                    (i as u32).count_ones() % 2 == 1,
                    "seed {seed} wave {i}"
                );
            }
        }
    }

    #[test]
    fn large_jitter_produces_hazards() {
        // Jitter comparable to the slot width collapses the staggering:
        // consecutive T pulses can fall closer than the hazard threshold.
        let c = t1_fa();
        let vectors: Vec<Vec<bool>> = (0..16).map(|_| vec![true, true, true]).collect();
        let mut total_hazards = 0;
        for seed in 0..8 {
            let out = c
                .simulate_opts(
                    &vectors,
                    4,
                    SimOptions {
                        jitter_amplitude: 700,
                        jitter_seed: seed,
                    },
                )
                .unwrap();
            total_hazards += out.hazards;
        }
        assert!(
            total_hazards > 0,
            "700-unit jitter must eventually overlap pulses"
        );
    }

    #[test]
    fn jitter_is_deterministic_in_seed() {
        let c = t1_fa();
        let vectors: Vec<Vec<bool>> = (0..4).map(|_| vec![true, false, true]).collect();
        let opts = SimOptions {
            jitter_amplitude: 300,
            jitter_seed: 42,
        };
        let a = c.simulate_opts(&vectors, 4, opts).unwrap();
        let b = c.simulate_opts(&vectors, 4, opts).unwrap();
        assert_eq!(a, b);
    }
}
