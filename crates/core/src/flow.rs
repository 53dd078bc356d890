//! End-to-end mapping flows (§III of the paper).
//!
//! Three flows are compared in Table I:
//!
//! - **1φ** — baseline mapping, single-phase clocking (classic full path
//!   balancing),
//! - **4φ** — baseline mapping, multiphase clocking without T1 cells
//!   (ref \[10\]),
//! - **T1** — the proposed flow: T1 detection → T1-aware mapping →
//!   multiphase phase assignment with eq. (3) → DFF insertion with eq. (5).
//!
//! Each flow produces a [`FlowResult`] bundling the mapped netlist, the
//! schedule, the DFF plan and the aggregate [`FlowStats`] (the paper's
//! Table-I metrics: #DFF, area in JJs, depth in cycles, T1 found/used).
//!
//! A flow runs in two stages. The [`Subject`] stage optimizes the network
//! (when the pre-mapping stage is on), chooses its cuts and covers it
//! without T1 cells; it depends only on the network, the library and the
//! pre-mapping stage, so the three flows of one subject share it. The
//! per-config tail ([`Subject::run`]) detects and instantiates T1 cells
//! (T1 flow only), assigns phases, inserts DFFs and runs the optional
//! timing stage. [`run_flow`] runs both stages.

use crate::cells::CellLibrary;
use crate::detect::{detect_with_attribution, detect_with_cuts, DetectConfig};
use crate::dff::{insert_dffs, DffPlan};
use crate::mapped::MappedCircuit;
use crate::mapper::{MapPlan, MapResult};
use crate::phase::{assign_phases, assign_phases_exact, Schedule};
use crate::timing::{analyze_mapped, TimingConfig, TimingSummary};
use sfq_netlist::aig::Aig;
use sfq_netlist::cut::CutSet;
use sfq_opt::{OptConfig, OptReport};

/// Phase-assignment engine selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PhaseEngine {
    /// ASAP + DFF-aware local search (scalable; Table-I default).
    #[default]
    Heuristic,
    /// Exact MILP (§II-B); small instances only.
    Exact,
}

/// Configuration of a mapping flow.
///
/// The presets ([`FlowConfig::single_phase`], [`FlowConfig::multiphase`],
/// [`FlowConfig::t1`]) spell the three paper flows; optional stages attach
/// to them as struct updates:
///
/// ```
/// use sfq_opt::OptConfig;
/// use t1map::flow::FlowConfig;
/// use t1map::timing::TimingConfig;
///
/// let cfg = FlowConfig {
///     pre_opt: OptConfig::standard(),
///     timing: TimingConfig::standard(),
///     ..FlowConfig::t1(4)
/// };
/// assert!(cfg.use_t1 && cfg.pre_opt.enabled && cfg.timing.enabled);
/// ```
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Number of clock phases `n`.
    pub phases: u32,
    /// Enable T1 detection and instantiation.
    pub use_t1: bool,
    /// Phase-assignment engine.
    pub engine: PhaseEngine,
    /// Local-search passes for the heuristic engine.
    pub opt_passes: usize,
    /// T1 detection parameters.
    pub detect: DetectConfig,
    /// Pre-mapping AIG optimization stage (`sfq-opt`); disabled by default
    /// so the flow maps the network exactly as the generators emit it.
    pub pre_opt: OptConfig,
    /// Post-scheduling timing-analysis stage (`sfq-sta`); disabled by
    /// default. When enabled, the flow attaches a phase-granular
    /// [`TimingSummary`] to its result.
    pub timing: TimingConfig,
}

impl FlowConfig {
    /// The paper's single-phase baseline (1φ).
    pub fn single_phase() -> Self {
        FlowConfig {
            phases: 1,
            use_t1: false,
            engine: PhaseEngine::Heuristic,
            opt_passes: 2,
            detect: DetectConfig::default(),
            pre_opt: OptConfig::disabled(),
            timing: TimingConfig::disabled(),
        }
    }

    /// The paper's multiphase baseline without T1 (4φ by default).
    pub fn multiphase(n: u32) -> Self {
        FlowConfig {
            phases: n,
            ..Self::single_phase()
        }
    }

    /// The proposed T1 flow under `n` phases (the paper evaluates n = 4).
    pub fn t1(n: u32) -> Self {
        FlowConfig {
            phases: n,
            use_t1: true,
            ..Self::single_phase()
        }
    }

    /// Feeds a canonical encoding of the configuration into `h` — every
    /// field in fixed order and width behind a version tag — so equal
    /// configurations produce equal digests across processes. Together with
    /// [`CellLibrary::fingerprint`] and
    /// [`Aig::structural_hash`](sfq_netlist::aig::Aig::structural_hash) this
    /// forms the `sfq-engine` content-addressed cache key.
    pub fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
        h.write_u8(4); // encoding version (4: pre-opt analysis-manager passes)
        h.write_u32(self.phases);
        h.write_u8(self.use_t1 as u8);
        h.write_u8(match self.engine {
            PhaseEngine::Heuristic => 0,
            PhaseEngine::Exact => 1,
        });
        h.write_usize(self.opt_passes);
        self.detect.fingerprint(h);
        self.pre_opt.fingerprint(h);
        self.timing.fingerprint(h);
    }
}

/// Aggregate metrics of a flow run (one Table-I cell group).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowStats {
    /// Candidate T1 groups found (0 for non-T1 flows).
    pub t1_found: usize,
    /// T1 cells instantiated.
    pub t1_used: usize,
    /// Path-balancing DFFs.
    pub dffs: u64,
    /// Splitters.
    pub splitters: u64,
    /// Logic-cell area in JJs (gates + T1 assemblies).
    pub cell_area: u64,
    /// Total area in JJs (cells + DFFs + splitters).
    pub area: u64,
    /// Logic depth in clock cycles.
    pub depth_cycles: i64,
    /// Number of logic gates.
    pub gates: usize,
}

/// Everything produced by one flow run.
///
/// `PartialEq` compares every component (netlist, schedule, plan, stats and
/// the optional stage reports) — the equality the `sfq-engine` store codec's
/// round-trip guarantee is stated in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowResult {
    /// The mapped netlist.
    pub mapped: MappedCircuit,
    /// The stage assignment.
    pub schedule: Schedule,
    /// The DFF-insertion plan.
    pub plan: DffPlan,
    /// Aggregate metrics.
    pub stats: FlowStats,
    /// Per-pass report of the pre-mapping optimization stage, present when
    /// it is enabled (saves consumers like the `abl-sta` ablation from
    /// re-running the whole pipeline just to read the AIG-level deltas).
    pub pre_opt: Option<OptReport>,
    /// Schedule-slack summary, present when the timing stage is enabled.
    pub timing: Option<TimingSummary>,
}

/// The selection- and phase-independent half of a flow on one network:
/// the pre-mapping optimization result, the mapper's 3-cuts and cut
/// choice, and the baseline cover.
///
/// None of these depends on the phase count, the phase engine, the T1
/// selection or the timing stage — only on the network, the library and
/// the pre-mapping optimization stage. So the 1φ, nφ and T1 flows of one
/// subject (and every phase count of a sweep) can share one `Subject`:
/// [`Subject::new`] does the shared work, [`Subject::run`] the per-config
/// tail. [`run_flow`] is the two in sequence, and `sfq-engine` builds one
/// subject per (network, library, pre-opt stage) in a run.
///
/// The subject holds the mapper's full cut set until it is dropped, after
/// its last job: T1 detection matches over the same 3-cuts, so a T1 tail
/// borrows them instead of enumerating again.
#[derive(Debug)]
pub struct Subject {
    /// The optimized network and the optimizer's report, present when the
    /// pre-mapping stage is enabled.
    pre_opt: Option<(Aig, OptReport)>,
    /// Chosen cuts of the mapped network.
    plan: MapPlan,
    /// The 3-cuts `plan` chose from, which T1 detection reuses when they
    /// are what its own limits would enumerate.
    cuts: CutSet,
    /// The cover without T1 cells: the 1φ/nφ netlist, and the attribution
    /// that prices T1 candidates (eq. 2).
    baseline: MapResult,
}

impl Subject {
    /// Optimizes `aig` under `pre_opt` (when enabled), then chooses its
    /// cuts and covers it without T1 cells.
    pub fn new(aig: &Aig, lib: &CellLibrary, pre_opt: &OptConfig) -> Self {
        let _span = sfq_obs::span("flow:map");
        // Pre-mapping optimization: a guarded `sfq-opt` pipeline run, so the
        // mapped network is never larger or deeper than the subject network.
        let pre_opt = pre_opt.enabled.then(|| {
            let _span = sfq_obs::span("flow:pre-opt");
            sfq_opt::optimize(aig, pre_opt)
        });
        let net = pre_opt.as_ref().map_or(aig, |(net, _)| net);
        let (plan, cuts) = MapPlan::with_cuts(net, lib);
        let baseline = plan.cover(net, lib, None);
        Subject {
            pre_opt,
            plan,
            cuts,
            baseline,
        }
    }

    /// Runs the rest of `config`'s flow: T1 detection and the T1-aware
    /// cover (T1 flows only; 1φ and nφ take the baseline cover), phase
    /// assignment, DFF insertion and the optional timing stage.
    ///
    /// Detection matches over the subject's cuts when they are exactly what
    /// `config.detect.cut` would enumerate ([`CutSet::serves`]), and
    /// enumerates its own otherwise; the result is the same either way.
    ///
    /// `aig` and `lib` must be the network and library the subject was
    /// built from, and `config.pre_opt` its pre-mapping stage.
    ///
    /// # Panics
    ///
    /// Panics if `config.use_t1` with fewer than 3 phases, or if the exact
    /// engine fails on an instance it cannot solve.
    pub fn run(&self, aig: &Aig, lib: &CellLibrary, config: &FlowConfig) -> FlowResult {
        assert!(
            !config.use_t1 || config.phases >= 3,
            "T1 staggering needs at least 3 phases"
        );
        debug_assert_eq!(self.pre_opt.is_some(), config.pre_opt.enabled);
        let aig = self.pre_opt.as_ref().map_or(aig, |(net, _)| net);
        let (mc, t1_found, t1_used) = if config.use_t1 {
            let det = {
                let _span = sfq_obs::span("flow:detect");
                let attribution = &self.baseline.attribution;
                if self.cuts.serves(&config.detect.cut) {
                    detect_with_cuts(aig, lib, &config.detect, attribution, &self.cuts)
                } else {
                    detect_with_attribution(aig, lib, &config.detect, attribution)
                }
            };
            let mapped = {
                let _span = sfq_obs::span("flow:map");
                self.plan.cover(aig, lib, Some(&det.selection))
            };
            (mapped.circuit, det.found(), mapped.t1_used)
        } else {
            (self.baseline.circuit.clone(), 0, 0)
        };
        let schedule = {
            let _span = sfq_obs::span("flow:phase-assign");
            match config.engine {
                PhaseEngine::Heuristic => assign_phases(&mc, config.phases, config.opt_passes),
                PhaseEngine::Exact => {
                    assign_phases_exact(&mc, config.phases).expect("exact phase assignment failed")
                }
            }
        };
        let plan = {
            let _span = sfq_obs::span("flow:dff-insert");
            insert_dffs(&mc, &schedule)
        };
        let timing = config.timing.enabled.then(|| {
            let _span = sfq_obs::span("flow:timing");
            analyze_mapped(&mc, &schedule).summary(&mc, &schedule, &plan)
        });
        let cell_area = mc.cell_area(lib);
        let area = cell_area
            + plan.total_dffs * lib.dff as u64
            + plan.total_splitters * lib.splitter as u64;
        let stats = FlowStats {
            t1_found,
            t1_used,
            dffs: plan.total_dffs,
            splitters: plan.total_splitters,
            cell_area,
            area,
            depth_cycles: schedule.depth_cycles(),
            gates: mc.gate_count(),
        };
        FlowResult {
            mapped: mc,
            schedule,
            plan,
            stats,
            pre_opt: self.pre_opt.as_ref().map(|(_, report)| report.clone()),
            timing,
        }
    }
}

/// Runs a complete flow on `aig`: [`Subject::new`], then
/// [`Subject::run`].
///
/// # Panics
///
/// Panics if `config.use_t1` with fewer than 3 phases, or if the exact
/// engine fails on an instance it cannot solve (use the heuristic for large
/// netlists).
pub fn run_flow(aig: &Aig, lib: &CellLibrary, config: &FlowConfig) -> FlowResult {
    let _span = sfq_obs::span("flow:run");
    Subject::new(aig, lib, &config.pre_opt).run(aig, lib, config)
}

// Compile-time Send + Sync audit: `sfq-engine` moves jobs (AIG + library +
// config) into worker threads and shares `Arc<FlowResult>`s across them, so
// every type on that path must stay thread-safe. Adding an `Rc`/`RefCell`
// or a raw pointer to any of these breaks this constant, not the engine.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Aig>();
    assert_send_sync::<CellLibrary>();
    assert_send_sync::<FlowConfig>();
    assert_send_sync::<FlowStats>();
    assert_send_sync::<FlowResult>();
    assert_send_sync::<Subject>();
    assert_send_sync::<MappedCircuit>();
    assert_send_sync::<Schedule>();
    assert_send_sync::<DffPlan>();
    assert_send_sync::<TimingSummary>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_circuits::epfl::adder;

    #[test]
    fn three_flows_on_small_adder() {
        let lib = CellLibrary::default();
        let aig = adder(8);
        let f1 = run_flow(&aig, &lib, &FlowConfig::single_phase());
        let f4 = run_flow(&aig, &lib, &FlowConfig::multiphase(4));
        let ft = run_flow(&aig, &lib, &FlowConfig::t1(4));

        // Multiphase slashes DFFs relative to single phase (paper: ~0.18–0.5×).
        assert!(
            f4.stats.dffs * 2 < f1.stats.dffs,
            "4φ DFFs {} vs 1φ {}",
            f4.stats.dffs,
            f1.stats.dffs
        );
        // T1 flow finds and uses cells on an adder.
        assert!(ft.stats.t1_used >= 6, "t1 used {}", ft.stats.t1_used);
        // T1 area beats the 4φ baseline on adders (paper: 0.75×).
        assert!(
            ft.stats.area < f4.stats.area,
            "T1 area {} vs 4φ {}",
            ft.stats.area,
            f4.stats.area
        );
        // Depth in cycles: 4φ ≈ depth/4.
        assert!(f4.stats.depth_cycles <= f1.stats.depth_cycles / 3);
    }

    #[test]
    fn flows_preserve_function() {
        let lib = CellLibrary::default();
        let aig = adder(6);
        for cfg in [
            FlowConfig::single_phase(),
            FlowConfig::multiphase(4),
            FlowConfig::t1(4),
        ] {
            let res = run_flow(&aig, &lib, &cfg);
            let mut state = 0x9E3779B97F4A7C15u64;
            for _ in 0..4 {
                let inputs: Vec<u64> = (0..aig.pi_count())
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state
                    })
                    .collect();
                assert_eq!(aig.eval64(&inputs), res.mapped.eval64(&inputs));
            }
        }
    }

    #[test]
    fn exact_engine_on_tiny_circuit() {
        let lib = CellLibrary::default();
        let aig = adder(2);
        let mut cfg = FlowConfig::multiphase(2);
        cfg.engine = PhaseEngine::Exact;
        let exact = run_flow(&aig, &lib, &cfg);
        let heur = run_flow(&aig, &lib, &FlowConfig::multiphase(2));
        assert!(exact.stats.dffs <= heur.stats.dffs + 2);
    }

    #[test]
    fn pre_opt_stage_preserves_function_and_never_grows_the_mapping() {
        let lib = CellLibrary::default();
        let aig = adder(8);
        let plain = run_flow(&aig, &lib, &FlowConfig::t1(4));
        let pre_opt = OptConfig::standard();
        let pre = run_flow(
            &aig,
            &lib,
            &FlowConfig {
                pre_opt: pre_opt.clone(),
                ..FlowConfig::t1(4)
            },
        );
        // The mapped result of the optimized network still computes the
        // subject functions.
        let mut state = 0xA5A5_F00D_1234_5678u64;
        for _ in 0..4 {
            let inputs: Vec<u64> = (0..aig.pi_count())
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                })
                .collect();
            assert_eq!(aig.eval64(&inputs), pre.mapped.eval64(&inputs));
        }
        // The guard bounds the AIG handed to the mapper, not the mapped
        // gate count (a heuristic cover of a smaller AIG may legally use
        // more gates), so only sanity-check that both flows produced a
        // real mapping.
        assert!(pre.stats.gates > 0 && plain.stats.gates > 0);
        assert!(
            sfq_opt::optimize(&aig, &pre_opt).0.and_count() <= aig.and_count(),
            "the pre-opt stage itself never grows the AIG"
        );
    }

    #[test]
    fn dff_opt_stage_preserves_function_and_rekeys() {
        use sfq_netlist::fnv::Fnv1a;
        use std::hash::Hasher;
        let lib = CellLibrary::default();
        let aig = adder(8);
        let dff_opt = FlowConfig {
            pre_opt: OptConfig::dff_aware(4),
            ..FlowConfig::t1(4)
        };
        let res = run_flow(&aig, &lib, &dff_opt);
        let mut state = 0x0DFF_0DFF_0DFF_0DFFu64 | 1;
        for _ in 0..4 {
            let inputs: Vec<u64> = (0..aig.pi_count())
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                })
                .collect();
            assert_eq!(aig.eval64(&inputs), res.mapped.eval64(&inputs));
        }
        // The stage rides the phase count of its flow and re-keys the
        // engine cache relative to every other pre-opt flavor.
        let fp = |cfg: &FlowConfig| {
            let mut h = Fnv1a::new();
            cfg.fingerprint(&mut h);
            h.finish()
        };
        let slack_opt = FlowConfig {
            pre_opt: OptConfig::slack_aware(),
            ..FlowConfig::t1(4)
        };
        assert_ne!(fp(&FlowConfig::t1(4)), fp(&dff_opt));
        assert_ne!(fp(&slack_opt), fp(&dff_opt));
        // Same flow phase count, different pricing phase count: only the
        // pre-opt stage encoding separates these two, so this pins the
        // RewriteDff parameter actually reaching the fingerprint.
        let price8 = FlowConfig {
            pre_opt: OptConfig::dff_aware(8),
            ..FlowConfig::t1(4)
        };
        assert_ne!(
            fp(&dff_opt),
            fp(&price8),
            "the pricing phase count must key"
        );
    }

    #[test]
    fn timing_stage_attaches_a_summary() {
        let lib = CellLibrary::default();
        let aig = adder(6);
        let plain = run_flow(&aig, &lib, &FlowConfig::t1(4));
        assert!(plain.timing.is_none(), "disabled stage reports nothing");
        let timed = run_flow(
            &aig,
            &lib,
            &FlowConfig {
                timing: TimingConfig::standard(),
                ..FlowConfig::t1(4)
            },
        );
        let summary = timed.timing.expect("enabled stage attaches a summary");
        assert_eq!(summary.horizon, timed.schedule.horizon);
        assert_eq!(summary.chained_dffs, timed.stats.dffs);
        assert_eq!(summary.worst_slack, 0);
        assert!(summary.zero_slack_cells > 0);
        // The stage is pure analysis: mapping results are untouched.
        assert_eq!(plain.stats, timed.stats);
    }

    #[test]
    fn stats_are_consistent() {
        let lib = CellLibrary::default();
        let aig = adder(5);
        let res = run_flow(&aig, &lib, &FlowConfig::t1(4));
        assert_eq!(
            res.stats.area,
            res.stats.cell_area
                + res.stats.dffs * lib.dff as u64
                + res.stats.splitters * lib.splitter as u64
        );
        assert_eq!(res.stats.dffs, res.plan.total_dffs);
        res.schedule.validate(&res.mapped).unwrap();
    }
}
