//! The pass manager: [`PassKind`] — the passes themselves — with their
//! per-pass statistics, the guarded round loop [`optimize_with`] that runs
//! them, and the fingerprinted [`OptConfig`] that flows and caches key on.
//!
//! A pass computes the analyses it reads (levels, the unit-delay timing
//! analysis) from the network it is given. [`optimize`] and
//! [`optimize_verified`] are the one round loop, the latter with an
//! equivalence check of every pass that changed the network.

use crate::cec::{CecConfig, CecSession, CecStats, CecVerdict};
use crate::passes::{balance_critical_network, balance_network, strash_network};
use crate::rewrite::{rewrite_network_in_place, RewriteConfig, DEFAULT_DFF_PHASES};
use sfq_netlist::aig::Aig;
use sfq_netlist::transform::sweep_in_place;
use std::fmt;
use std::hash::Hasher;
use std::time::Instant;

/// Node/level deltas of one pass execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassStats {
    /// Pass name (as shown in stats tables).
    pub pass: &'static str,
    /// AND count before the pass.
    pub nodes_before: usize,
    /// AND count after the pass.
    pub nodes_after: usize,
    /// Depth before the pass.
    pub depth_before: u32,
    /// Depth after the pass.
    pub depth_after: u32,
    /// Pass-specific application count (nodes merged/removed, trees
    /// rebuilt, rewrite sites committed).
    pub applied: usize,
    /// Wall-clock time of the pass in microseconds.
    pub micros: u64,
}

impl PassStats {
    /// Signed node delta (negative = reduction).
    pub fn node_delta(&self) -> i64 {
        self.nodes_after as i64 - self.nodes_before as i64
    }
}

impl fmt::Display for PassStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<8} {:>6} -> {:<6} nodes  {:>3} -> {:<3} depth  ({} applied)",
            self.pass,
            self.nodes_before,
            self.nodes_after,
            self.depth_before,
            self.depth_after,
            self.applied
        )
    }
}

/// A concrete optimization pass — the configuration-level (and CLI-level)
/// currency, plain data so [`OptConfig`] stays cloneable and
/// fingerprintable, and the pass itself ([`PassKind::run`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassKind {
    /// Structural hashing / deduplication.
    Strash,
    /// Dangling-node sweep with constant propagation.
    ///
    /// Kills unreachable nodes in place ([`sweep_in_place`]), leaving free
    /// slots behind instead of rebuilding — survivors keep their ids.
    Sweep,
    /// Cut-based NPN rewriting in the depth-conservative mode. Accepted
    /// sites are committed by editing slots in place
    /// ([`rewrite_network_in_place`]); a round with zero accepted sites
    /// leaves the network completely untouched.
    Rewrite,
    /// Rewriting in the slack-aware mode (sites may grow up to their
    /// required-time slack; network depth still never increases).
    RewriteSlack,
    /// Rewriting in the DFF-objective mode under the given phase count:
    /// the slack-aware depth budget plus site pricing by the per-edge DFF
    /// cost (§II-B accounting at unit delay).
    RewriteDff(u32),
    /// Depth-oriented AND-tree rebalancing.
    Balance,
    /// Slack-prioritized rebalancing: only zero-slack trees are rebuilt
    /// (see [`crate::passes::balance_critical_network`]).
    BalanceSlack,
}

impl PassKind {
    /// The default conservative pipeline, in order.
    pub const ALL: [PassKind; 4] = [
        PassKind::Strash,
        PassKind::Sweep,
        PassKind::Rewrite,
        PassKind::Balance,
    ];

    /// Every parseable pass (the `--passes` vocabulary and the error-
    /// message listing). `rewrite-dff` parses at the default phase count
    /// ([`DEFAULT_DFF_PHASES`]); programmatic configs pick their own via
    /// [`PassKind::RewriteDff`].
    pub const KNOWN: [PassKind; 7] = [
        PassKind::Strash,
        PassKind::Sweep,
        PassKind::Rewrite,
        PassKind::RewriteSlack,
        PassKind::RewriteDff(DEFAULT_DFF_PHASES),
        PassKind::Balance,
        PassKind::BalanceSlack,
    ];

    /// The pass's `--passes` spelling.
    pub fn name(self) -> &'static str {
        match self {
            PassKind::Strash => "strash",
            PassKind::Sweep => "sweep",
            PassKind::Rewrite => "rewrite",
            PassKind::RewriteSlack => "rewrite-slack",
            PassKind::RewriteDff(_) => "rewrite-dff",
            PassKind::Balance => "balance",
            PassKind::BalanceSlack => "balance-slack",
        }
    }

    /// Parses a single pass name.
    ///
    /// # Errors
    ///
    /// Returns the list of known passes on an unknown name.
    pub fn parse(s: &str) -> Result<PassKind, String> {
        PassKind::KNOWN
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| {
                let known: Vec<&str> = PassKind::KNOWN.iter().map(|p| p.name()).collect();
                format!("unknown pass '{s}' (known passes: {})", known.join(", "))
            })
    }

    /// Stable fingerprint tag.
    fn tag(self) -> u8 {
        match self {
            PassKind::Strash => 0,
            PassKind::Sweep => 1,
            PassKind::Rewrite => 2,
            PassKind::Balance => 3,
            PassKind::RewriteSlack => 4,
            PassKind::BalanceSlack => 5,
            PassKind::RewriteDff(_) => 6,
        }
    }

    /// Runs the pass once on `aig` and measures it.
    pub fn run(self, aig: &mut Aig) -> PassStats {
        let pass = self.name();
        let _span = sfq_obs::span_owned(|| format!("opt:{pass}"));
        let start = Instant::now();
        let nodes_before = aig.and_count();
        let depth_before = aig.depth();
        let applied = self.transform(aig);
        PassStats {
            pass,
            nodes_before,
            nodes_after: aig.and_count(),
            depth_before,
            depth_after: aig.depth(),
            applied,
            micros: start.elapsed().as_micros() as u64,
        }
    }

    /// The pass proper: rewrites `aig` (rebuilt by `strash`, `balance` and
    /// `balance-slack`, edited in place by the others) and returns the
    /// application count.
    fn transform(self, aig: &mut Aig) -> usize {
        let (rebuilt, applied) = match self {
            PassKind::Strash => strash_network(aig),
            PassKind::Balance => balance_network(aig),
            PassKind::BalanceSlack => balance_critical_network(aig),
            PassKind::Sweep => {
                let applied = sweep_in_place(aig);
                // Occupancy guard: when sweeping killed most of the array
                // (a huge dead cone, e.g. random scale-class networks),
                // leaving the holes would make every later len()-sized
                // analysis pay for slots that no longer exist. Compaction
                // preserves live-node order, so the resulting structure is
                // unaffected; on paper-scale incremental rounds the dead
                // fraction stays tiny and this is skipped.
                if aig.dead_count() * 2 > aig.len() {
                    aig.compact();
                }
                return applied;
            }
            PassKind::Rewrite => {
                return rewrite_network_in_place(aig, &RewriteConfig::conservative())
            }
            PassKind::RewriteSlack => {
                return rewrite_network_in_place(aig, &RewriteConfig::slack_aware())
            }
            PassKind::RewriteDff(n) => {
                return rewrite_network_in_place(aig, &RewriteConfig::dff_aware(n))
            }
        };
        *aig = rebuilt;
        applied
    }
}

/// Parses a comma-separated pass list (the CLI `--passes` syntax).
///
/// # Errors
///
/// Propagates [`PassKind::parse`] errors and rejects an empty list.
pub fn parse_passes(s: &str) -> Result<Vec<PassKind>, String> {
    let passes: Result<Vec<PassKind>, String> = s
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(PassKind::parse)
        .collect();
    let passes = passes?;
    if passes.is_empty() {
        return Err("--passes requires at least one pass name".into());
    }
    Ok(passes)
}

/// Configuration of the pre-mapping optimization stage.
///
/// Plain data (no trait objects), so it can ride inside
/// `t1map::flow::FlowConfig` and fingerprint into `sfq-engine` cache keys:
/// two jobs that differ only in their optimization stage hash to different
/// content addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptConfig {
    /// Master switch; a disabled stage leaves the network untouched.
    pub enabled: bool,
    /// Pass sequence of one round.
    pub passes: Vec<PassKind>,
    /// Iterate the sequence to convergence (guarded; see
    /// [`optimize_with`]).
    pub fixpoint: bool,
    /// Round limit for the convergence loop.
    pub max_rounds: usize,
}

impl OptConfig {
    /// The disabled stage (flow default: map the network exactly as given).
    pub fn disabled() -> Self {
        OptConfig {
            enabled: false,
            passes: PassKind::ALL.to_vec(),
            fixpoint: true,
            max_rounds: 8,
        }
    }

    /// The standard enabled stage: every pass, run to fixpoint.
    pub fn standard() -> Self {
        OptConfig {
            enabled: true,
            ..Self::disabled()
        }
    }

    /// The slack-aware stage: like [`OptConfig::standard`] but with
    /// rewriting allowed to consume per-site slack
    /// ([`PassKind::RewriteSlack`]). Depth is still never increased; the
    /// extra freedom buys strictly more area on depth-dominated networks.
    pub fn slack_aware() -> Self {
        OptConfig {
            enabled: true,
            passes: vec![
                PassKind::Strash,
                PassKind::Sweep,
                PassKind::RewriteSlack,
                PassKind::Balance,
            ],
            ..Self::disabled()
        }
    }

    /// The DFF-objective stage: like [`OptConfig::slack_aware`] but with
    /// rewrite sites priced by their projected per-edge DFF cost under
    /// `n`-phase clocking ([`PassKind::RewriteDff`]) — the mapping-aware
    /// pre-optimization that weights MFFC gains by how much path-balancing
    /// cost the freed cone induces at its schedule slack.
    pub fn dff_aware(n: u32) -> Self {
        OptConfig {
            enabled: true,
            passes: vec![
                PassKind::Strash,
                PassKind::Sweep,
                PassKind::RewriteDff(n),
                PassKind::Balance,
            ],
            ..Self::disabled()
        }
    }

    /// Canonical encoding of the configuration into `h` (versioned, fixed
    /// field order) — the `sfq-engine` cache-key contribution.
    pub fn fingerprint(&self, h: &mut impl Hasher) {
        h.write_u8(2); // encoding version (2: parameterized pass tags)
        h.write_u8(self.enabled as u8);
        h.write_usize(self.passes.len());
        for p in &self.passes {
            h.write_u8(p.tag());
            if let PassKind::RewriteDff(n) = p {
                h.write_u32(*n);
            }
        }
        h.write_u8(self.fixpoint as u8);
        h.write_usize(self.max_rounds);
    }
}

impl Default for OptConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Outcome of a pipeline run: per-round, per-pass statistics plus the
/// end-to-end deltas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptReport {
    /// Statistics of every executed pass, grouped by round.
    pub rounds: Vec<Vec<PassStats>>,
    /// Whether the convergence loop stopped by itself (rather than hitting
    /// the round limit). Single-shot runs report `true`.
    pub converged: bool,
    /// AND count before optimization.
    pub nodes_before: usize,
    /// AND count after optimization.
    pub nodes_after: usize,
    /// Depth before optimization.
    pub depth_before: u32,
    /// Depth after optimization.
    pub depth_after: u32,
}

impl OptReport {
    /// Signed node delta (negative = reduction).
    pub fn node_delta(&self) -> i64 {
        self.nodes_after as i64 - self.nodes_before as i64
    }
}

/// Runs the optimization stage described by `config` on `aig` in place —
/// the crate's one round loop.
///
/// A disabled config leaves `aig` untouched and reports no rounds. A
/// single-shot config (`fixpoint: false`) runs the pass sequence once. A
/// fixpoint config repeats it until a round changes neither node count
/// nor depth, up to `max_rounds` rounds. That loop is *guarded*: a round
/// whose result has more nodes or more depth than it started with is
/// rolled back and the loop stops, so the final network never has more
/// nodes or depth than the input — the invariant `opt --fixpoint` and the
/// flow's pre-mapping stage rely on.
///
/// In-place passes may leave freed slots behind; [`optimize`] compacts,
/// this does not.
pub fn optimize_with(aig: &mut Aig, config: &OptConfig) -> OptReport {
    run_rounds(aig, config, &mut PassKind::run, None)
}

/// Runs one pass of the configured sequence on a network: [`PassKind::run`]
/// everywhere except in the tests, which inject stages of their own.
type Stage<'a> = &'a mut dyn FnMut(PassKind, &mut Aig) -> PassStats;

/// A per-pass acceptance check: the pass's input network, its output
/// network and its name. Returning `false` rejects the pass.
type PassCheck<'a> = &'a mut dyn FnMut(&Aig, &Aig, &'static str) -> bool;

/// [`optimize_with`] with each pass run by `stage`, optionally handing
/// every pass's input and output to `check`. A rejected pass is rolled
/// back and ends the run; its stats close the report's last round, and the
/// run counts as converged (it stopped by itself, not at the round limit).
fn run_rounds(
    aig: &mut Aig,
    config: &OptConfig,
    stage: Stage<'_>,
    mut check: Option<PassCheck<'_>>,
) -> OptReport {
    if !config.enabled {
        let (nodes, depth) = (aig.and_count(), aig.depth());
        return OptReport {
            rounds: Vec::new(),
            converged: true,
            nodes_before: nodes,
            nodes_after: nodes,
            depth_before: depth,
            depth_after: depth,
        };
    }
    let nodes_before = aig.and_count();
    let depth_before = aig.depth();
    let max_rounds = if config.fixpoint {
        config.max_rounds
    } else {
        1
    };
    let mut rounds = Vec::new();
    let mut converged = !config.fixpoint;
    'rounds: for _ in 0..max_rounds {
        let guard = config
            .fixpoint
            .then(|| (aig.and_count(), aig.depth(), aig.clone()));
        let mut stats = Vec::with_capacity(config.passes.len());
        for &kind in &config.passes {
            // The pre-pass network is only kept when something checks it.
            let before = check.is_some().then(|| aig.clone());
            let s = stage(kind, aig);
            stats.push(s);
            if let (Some(check), Some(before)) = (check.as_mut(), before) {
                if !check(&before, aig, s.pass) {
                    *aig = before;
                    rounds.push(stats);
                    converged = true;
                    break 'rounds;
                }
            }
        }
        let Some((prev_nodes, prev_depth, snapshot)) = guard else {
            rounds.push(stats);
            break;
        };
        let (nodes, depth) = (aig.and_count(), aig.depth());
        if nodes > prev_nodes || depth > prev_depth {
            *aig = snapshot; // guard: roll the regression back
            converged = true;
            break;
        }
        rounds.push(stats);
        if nodes == prev_nodes && depth == prev_depth {
            converged = true;
            break;
        }
    }
    OptReport {
        rounds,
        converged,
        nodes_before,
        nodes_after: aig.and_count(),
        depth_before,
        depth_after: aig.depth(),
    }
}

/// Runs the optimization stage described by `config` on a copy of `aig`
/// (see [`optimize_with`]) and hands back its dense form.
///
/// The convenience entry point used by `t1map::flow::run_flow` and the CLI:
/// a disabled config returns an untouched copy with an empty report.
pub fn optimize(aig: &Aig, config: &OptConfig) -> (Aig, OptReport) {
    let mut g = aig.clone();
    let report = optimize_with(&mut g, config);
    // An identity when no pass left holes.
    g.compact();
    (g, report)
}

/// Outcome of [`optimize_verified`]: the optimized network plus the
/// verification verdict of the whole run.
#[derive(Debug, Clone)]
pub struct VerifiedRun {
    /// The optimized network (the last *verified* state on a mismatch).
    pub aig: Aig,
    /// Per-round, per-pass statistics, as in [`optimize`].
    pub report: OptReport,
    /// [`CecVerdict::Equivalent`] only if **every** executed pass was
    /// proven equivalent to its input (a pass that left its input
    /// identical needs no proof). Otherwise the verdict of the first pass
    /// that was not: a counterexample if it broke the function,
    /// [`CecVerdict::Unknown`] if it changed the PI/PO interface or its
    /// miter model did not replay.
    pub verdict: CecVerdict,
    /// Name of the pass that failed verification, if any: the run stopped
    /// there.
    pub failed_pass: Option<&'static str>,
    /// Aggregated CEC counters over all stage checks.
    pub cec: CecStats,
    /// Number of pass executions that were equivalence-checked: those that
    /// changed the network.
    pub checked_stages: usize,
    /// Number of pass executions whose output was identical to their input
    /// ([`Aig::is_identical`]) and therefore not checked.
    pub skipped_stages: usize,
}

/// [`optimize`] with the verification guard engaged: every executed pass
/// that changed the network is equivalence-checked against its input
/// network, and the results chain by transitivity into an end-to-end proof
/// that the final network computes the subject functions.
///
/// A pass whose output is identical to its input node for node
/// ([`Aig::is_identical`]: same node kinds, dead slots included, same
/// inputs, same output literals) is the identity, so its check is skipped
/// and counted in [`VerifiedRun::skipped_stages`]; converged fixpoint
/// rounds are mostly such passes. The remaining checks share one sweep
/// space (see [`crate::cec`]): each network is swept once, as the output
/// of the pass that made it, and a check that needs the final miter starts
/// over in a fresh space, where it is exactly a
/// [`check_equivalence`](crate::check_equivalence) call.
///
/// Checking adjacent stages (rather than original vs. final once) is what
/// keeps the SAT work tractable at paper scale: consecutive networks differ
/// only in local cones, which the CEC sweep discharges with small
/// window-bounded queries instead of one monolithic miter across several
/// optimization rounds of structural drift.
///
/// A check's final miter has no budget, so every check ends in a proof or
/// a counterexample. The run stops at the first pass that is not proven,
/// whether it broke the function (a counterexample) or changed the PI/PO
/// interface ([`CecVerdict::Unknown`], as is a miter model that did not
/// replay), and returns the last verified network with that verdict.
pub fn optimize_verified(subject: &Aig, config: &OptConfig, cec: &CecConfig) -> VerifiedRun {
    verified_rounds(subject, config, cec, &mut PassKind::run)
}

/// [`optimize_verified`] with each pass run by `stage`.
fn verified_rounds(
    subject: &Aig,
    config: &OptConfig,
    cec: &CecConfig,
    stage: Stage<'_>,
) -> VerifiedRun {
    let mut aig = subject.clone();
    let mut verdict = CecVerdict::Equivalent;
    let mut failed_pass = None;
    let mut stats = CecStats::default();
    let (mut checked_stages, mut skipped_stages) = (0usize, 0usize);
    let mut session = CecSession::default();
    let mut check = |before: &Aig, after: &Aig, pass: &'static str| {
        if before.is_identical(after) {
            skipped_stages += 1;
            return true;
        }
        checked_stages += 1;
        // A pass that changed the PI/PO interface is a contract violation
        // no counterexample can express: it stops the run as `Unknown`.
        let out = match session.check(before, after, cec) {
            Ok(out) => {
                stats.absorb(&out.stats);
                out.verdict
            }
            Err(_) => CecVerdict::Unknown,
        };
        if out == CecVerdict::Equivalent {
            return true;
        }
        // The pass is not proven: stop on the last verified network and
        // report the verdict (with its witness, if it has one).
        verdict = out;
        failed_pass = Some(pass);
        false
    };
    let report = run_rounds(&mut aig, config, stage, Some(&mut check));
    // As in [`optimize`]: hand back the dense form.
    aig.compact();
    VerifiedRun {
        aig,
        report,
        verdict,
        failed_pass,
        cec: stats,
        checked_stages,
        skipped_stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cec::check_equivalence;
    use proptest::prelude::*;
    use sfq_circuits::{random_aig, RandomAigConfig};
    use sfq_netlist::aig::{Lit, NodeId, NodeKind};
    use sfq_netlist::fnv::Fnv1a;
    use std::hash::Hasher;

    fn fp(cfg: &OptConfig) -> u64 {
        let mut h = Fnv1a::new();
        cfg.fingerprint(&mut h);
        h.finish()
    }

    #[test]
    fn parse_pass_lists() {
        assert_eq!(
            parse_passes("strash,sweep,rewrite,balance").unwrap(),
            PassKind::ALL.to_vec()
        );
        assert_eq!(
            parse_passes(" balance , sweep ").unwrap(),
            vec![PassKind::Balance, PassKind::Sweep]
        );
        assert_eq!(
            parse_passes("rewrite-slack,balance-slack").unwrap(),
            vec![PassKind::RewriteSlack, PassKind::BalanceSlack]
        );
        assert_eq!(
            parse_passes("rewrite-dff").unwrap(),
            vec![PassKind::RewriteDff(DEFAULT_DFF_PHASES)]
        );
        let err = parse_passes("strash,frobnicate").unwrap_err();
        assert!(
            err.contains("frobnicate") && err.contains("balance"),
            "{err}"
        );
        for kind in PassKind::KNOWN {
            assert!(err.contains(kind.name()), "error must list {}", kind.name());
        }
        assert!(parse_passes(" , ").is_err());
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let off = OptConfig::disabled();
        let on = OptConfig::standard();
        assert_ne!(fp(&off), fp(&on), "enabled bit must key");
        let mut reordered = OptConfig::standard();
        reordered.passes = vec![PassKind::Balance, PassKind::Rewrite];
        assert_ne!(fp(&on), fp(&reordered), "pass list must key");
        let mut single = OptConfig::standard();
        single.fixpoint = false;
        assert_ne!(fp(&on), fp(&single), "fixpoint flag must key");
        assert_eq!(fp(&OptConfig::standard()), fp(&OptConfig::standard()));
        assert_ne!(
            fp(&OptConfig::standard()),
            fp(&OptConfig::slack_aware()),
            "the slack-aware pipeline must key differently"
        );
        assert_ne!(
            fp(&OptConfig::slack_aware()),
            fp(&OptConfig::dff_aware(4)),
            "the DFF-objective pipeline must key differently"
        );
        assert_ne!(
            fp(&OptConfig::dff_aware(4)),
            fp(&OptConfig::dff_aware(8)),
            "the DFF phase count must key"
        );
    }

    #[test]
    fn slack_aware_pipeline_never_regresses() {
        let mut g = Aig::new();
        let pis: Vec<_> = (0..6).map(|_| g.add_pi()).collect();
        let m = g.maj3(pis[0], pis[1], pis[2]);
        let x = g.xor3(pis[3], pis[4], pis[5]);
        let top = g.and(m, x);
        g.add_po(top);
        let (nodes0, depth0) = (g.and_count(), g.depth());
        let (opt, report) = optimize(&g, &OptConfig::slack_aware());
        assert!(report.nodes_after <= nodes0);
        assert!(report.depth_after <= depth0, "depth guard holds");
        for i in 0..64u32 {
            let bits: Vec<bool> = (0..6).map(|k| i >> k & 1 == 1).collect();
            assert_eq!(g.eval(&bits), opt.eval(&bits), "input {i}");
        }
    }

    #[test]
    fn dff_aware_pipeline_never_regresses() {
        let mut g = Aig::new();
        let pis: Vec<_> = (0..6).map(|_| g.add_pi()).collect();
        let m = g.maj3(pis[0], pis[1], pis[2]);
        let x = g.xor3(pis[3], pis[4], pis[5]);
        let deep = {
            let mut acc = g.and(m, x);
            for &p in &pis[..4] {
                acc = g.and(acc, p);
            }
            acc
        };
        g.add_po(deep);
        let (nodes0, depth0) = (g.and_count(), g.depth());
        let (opt, report) = optimize(&g, &OptConfig::dff_aware(4));
        assert!(report.nodes_after <= nodes0);
        assert!(report.depth_after <= depth0, "depth guard holds");
        for i in 0..64u32 {
            let bits: Vec<bool> = (0..6).map(|k| i >> k & 1 == 1).collect();
            assert_eq!(g.eval(&bits), opt.eval(&bits), "input {i}");
        }
    }

    #[test]
    fn fixpoint_never_regresses() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let m = g.maj3(a, b, c);
        let x = g.xor3(a, b, c);
        g.add_po(m);
        g.add_po(x);
        let (nodes0, depth0) = (g.and_count(), g.depth());
        let mut opt = g.clone();
        let report = optimize_with(&mut opt, &OptConfig::standard());
        assert!(report.nodes_after <= nodes0);
        assert!(report.depth_after <= depth0);
        assert!(report.converged);
        assert!(report.nodes_after < nodes0, "maj3 must shrink");
        for i in 0..8u32 {
            let bits = [i & 1 == 1, i >> 1 & 1 == 1, i >> 2 & 1 == 1];
            assert_eq!(g.eval(&bits), opt.eval(&bits), "input {i}");
        }
    }

    /// A copy of `aig` rebuilt node for node, with its outputs replaced by
    /// `pos(old outputs)` (mapped into the copy).
    fn with_pos(aig: &Aig, pos: impl Fn(&[Lit]) -> Vec<Lit>) -> Aig {
        rebuilt(aig, None, pos)
    }

    /// A copy of `aig` rebuilt node for node, with fanin `old` of `node`
    /// rewired to `new`.
    fn with_fanin(aig: &Aig, node: NodeId, old: Lit, new: Lit) -> Aig {
        rebuilt(aig, Some((node, old, new)), <[Lit]>::to_vec)
    }

    fn rebuilt(
        aig: &Aig,
        rewire: Option<(NodeId, Lit, Lit)>,
        pos: impl Fn(&[Lit]) -> Vec<Lit>,
    ) -> Aig {
        let mut g = Aig::new();
        let mut map = vec![Lit::FALSE; aig.len()];
        let remap = |map: &[Lit], l: Lit| {
            map[l.node().index()]
                .with_complement(map[l.node().index()].is_complement() ^ l.is_complement())
        };
        for id in aig.node_ids() {
            map[id.index()] = match aig.kind(id) {
                NodeKind::Const0 => Lit::FALSE,
                NodeKind::Input(_) => g.add_pi(),
                NodeKind::And(a, b) => {
                    let fanin = |l: Lit| match rewire {
                        Some((node, old, new)) if node == id && l == old => new,
                        _ => l,
                    };
                    let (a, b) = (remap(&map, fanin(a)), remap(&map, fanin(b)));
                    g.and(a, b)
                }
            };
        }
        for l in pos(aig.pos()) {
            let l = remap(&map, l);
            g.add_po(l);
        }
        g
    }

    /// Stats of an injected stage that kept node count and depth.
    fn unchanged(pass: &'static str, aig: &Aig) -> PassStats {
        let (nodes, depth) = (aig.and_count(), aig.depth());
        PassStats {
            pass,
            nodes_before: nodes,
            nodes_after: nodes,
            depth_before: depth,
            depth_after: depth,
            applied: 0,
            micros: 0,
        }
    }

    /// Two stages injected after a real rewrite: a no-op, then one that
    /// complements the first output, keeping node count and depth. The
    /// verified loop must name the broken stage, hand back the counter-
    /// example, and return the rewritten network it last proved.
    #[test]
    fn a_broken_stage_is_caught_and_named() {
        let mut g = Aig::new();
        let (a, b, c) = (g.add_pi(), g.add_pi(), g.add_pi());
        let m = g.maj3(a, b, c);
        let x = g.xor3(a, b, c);
        g.add_po(m);
        g.add_po(x);
        let config = OptConfig {
            enabled: true,
            passes: vec![PassKind::Rewrite, PassKind::Strash, PassKind::Sweep],
            fixpoint: false,
            max_rounds: 1,
        };
        let flip = |aig: &Aig| with_pos(aig, |pos| vec![!pos[0], pos[1]]);
        let mut stage = |kind: PassKind, aig: &mut Aig| match kind {
            PassKind::Strash => unchanged("no-op", aig),
            PassKind::Sweep => {
                let (nodes, depth) = (aig.and_count(), aig.depth());
                *aig = flip(aig);
                assert_eq!((aig.and_count(), aig.depth()), (nodes, depth));
                unchanged("flip-po", aig)
            }
            _ => kind.run(aig),
        };
        let run = verified_rounds(&g, &config, &CecConfig::default(), &mut stage);

        let mut rewritten = g.clone();
        assert!(PassKind::Rewrite.run(&mut rewritten).applied > 0);
        rewritten.compact();
        let broken = flip(&rewritten);
        let CecVerdict::NotEquivalent(cex) = &run.verdict else {
            panic!("expected a counterexample, got {:?}", run.verdict);
        };
        assert_ne!(rewritten.eval(cex), broken.eval(cex), "cex must replay");
        assert_ne!(g.eval(cex), broken.eval(cex), "cex must replay");
        assert_eq!(run.failed_pass, Some("flip-po"));
        assert_eq!(
            run.aig.structural_hash(),
            rewritten.structural_hash(),
            "the last verified network is the rewritten one"
        );
        assert_ne!(run.aig.structural_hash(), g.structural_hash());
        let passes: Vec<_> = run.report.rounds.concat().iter().map(|s| s.pass).collect();
        assert_eq!(passes, ["rewrite", "no-op", "flip-po"]);
        assert_eq!((run.checked_stages, run.skipped_stages), (2, 1));
    }

    /// A stage injected after a real rewrite that appends an output: the
    /// CEC cannot compare the two interfaces, so the verified loop must stop
    /// there with `Unknown`, name the stage, return the rewritten network it
    /// last proved, and run no later pass.
    #[test]
    fn an_interface_change_stops_the_run() {
        let mut g = Aig::new();
        let (a, b, c) = (g.add_pi(), g.add_pi(), g.add_pi());
        let m = g.maj3(a, b, c);
        g.add_po(m);
        let config = OptConfig {
            enabled: true,
            passes: vec![PassKind::Rewrite, PassKind::Sweep, PassKind::Balance],
            fixpoint: true,
            max_rounds: 4,
        };
        let mut stage = |kind: PassKind, aig: &mut Aig| match kind {
            PassKind::Sweep => {
                *aig = with_pos(aig, |pos| vec![pos[0], !pos[0]]);
                unchanged("add-po", aig)
            }
            _ => kind.run(aig),
        };
        let run = verified_rounds(&g, &config, &CecConfig::default(), &mut stage);

        let mut rewritten = g.clone();
        assert!(PassKind::Rewrite.run(&mut rewritten).applied > 0);
        rewritten.compact();
        assert_eq!(run.verdict, CecVerdict::Unknown);
        assert_eq!(run.failed_pass, Some("add-po"));
        assert_eq!(run.aig.po_count(), 1);
        assert_eq!(
            run.aig.structural_hash(),
            rewritten.structural_hash(),
            "the last verified network is the rewritten one"
        );
        let passes: Vec<_> = run.report.rounds.concat().iter().map(|s| s.pass).collect();
        assert_eq!(passes, ["rewrite", "add-po"], "no later pass runs");
        assert_eq!((run.checked_stages, run.skipped_stages), (2, 0));
    }

    /// One single edit of `g`, selected by `which` and placed by `pick`:
    /// a fanin's complement flipped, an output complemented, two distinct
    /// outputs swapped, or one AND fanin rewired to another live node.
    /// `None` when `g` offers no place for that edit.
    fn edited(g: &Aig, which: usize, pick: usize) -> Option<Aig> {
        let ands: Vec<NodeId> = g.and_ids().collect();
        let n = g.po_count();
        match which {
            0 | 3 => {
                let node = *ands.get(pick % ands.len().max(1))?;
                let (a, b) = g.fanins(node)?;
                let old = if pick & 1 == 0 { a } else { b };
                let new = if which == 0 {
                    !old
                } else {
                    let below: Vec<NodeId> = (1..node.0)
                        .map(NodeId)
                        .filter(|&m| !g.is_dead(m) && m != old.node())
                        .collect();
                    Lit::new(*below.get(pick / 2 % below.len().max(1))?, false)
                };
                Some(with_fanin(g, node, old, new))
            }
            1 => Some(with_pos(g, |pos| {
                let mut pos = pos.to_vec();
                pos[pick % n] = !pos[pick % n];
                pos
            })),
            _ => {
                let i = pick % n;
                let j = (0..n).find(|&j| g.pos()[j] != g.pos()[i])?;
                Some(with_pos(g, |pos| {
                    let mut pos = pos.to_vec();
                    pos.swap(i, j);
                    pos
                }))
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// The skip is sound: a copy is identical and its stage is
        /// skipped, every single edit makes a network that is not
        /// identical, and every stage a real pipeline skips is one the
        /// CEC proves equivalent.
        #[test]
        fn identical_stages_are_skipped_soundly(
            seed in any::<u64>(),
            num_pis in 1usize..=6,
            num_gates in 1usize..60,
            num_pos in 1usize..=6,
            holes in any::<bool>(),
            picks in prop::collection::vec(any::<usize>(), 4),
        ) {
            let config = RandomAigConfig { num_pis, num_gates, num_pos, xor_percent: 30 };
            let mut g = random_aig(seed, &config);
            if holes {
                // In-place rewriting leaves dead slots behind.
                PassKind::Rewrite.run(&mut g);
            }
            prop_assert!(g.is_identical(&g.clone()));
            let once = OptConfig {
                enabled: true,
                passes: vec![PassKind::Sweep],
                fixpoint: false,
                max_rounds: 1,
            };
            let cec = CecConfig::default();
            let mut copy = |_: PassKind, aig: &mut Aig| {
                *aig = aig.clone();
                unchanged("copy", aig)
            };
            let run = verified_rounds(&g, &once, &cec, &mut copy);
            prop_assert_eq!((run.checked_stages, run.skipped_stages), (0, 1));
            prop_assert_eq!(run.verdict, CecVerdict::Equivalent);
            prop_assert_eq!(run.cec, CecStats::default());

            // Each edit kind once, at a drawn place. The edits rebuild the
            // network, so they are compared with a rebuilt copy.
            let subject = with_pos(&g, <[Lit]>::to_vec);
            for (which, &pick) in picks.iter().enumerate() {
                if let Some(e) = edited(&subject, which, pick) {
                    prop_assert!(!subject.is_identical(&e), "edit {} compared equal", which);
                    prop_assert!(!e.is_identical(&subject), "edit {} compared equal", which);
                }
            }

            // A real pipeline: each stage it skips is provably the identity.
            let mut skipped = Vec::new();
            let mut record = |kind: PassKind, aig: &mut Aig| {
                let before = aig.clone();
                let s = kind.run(aig);
                if before.is_identical(aig) {
                    skipped.push((before, aig.clone()));
                }
                s
            };
            let run = verified_rounds(&g, &OptConfig::standard(), &cec, &mut record);
            prop_assert_eq!(run.verdict, CecVerdict::Equivalent);
            prop_assert_eq!(run.skipped_stages, skipped.len());
            prop_assert!(run.skipped_stages > 0, "a converged round skips");
            for (before, after) in &skipped {
                let out = check_equivalence(before, after, &cec).expect("same interface");
                prop_assert_eq!(out.verdict, CecVerdict::Equivalent);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// One sweep space per run is sound: along a chain of real passes
        /// with one single edit injected after a reused check, every check
        /// of the session gives a fresh check's verdict, and every
        /// counterexample replays on the two networks it tells apart.
        #[test]
        fn session_verdicts_match_fresh_checks(
            seed in any::<u64>(),
            num_pis in 1usize..=6,
            num_gates in 1usize..60,
            num_pos in 1usize..=6,
            at in 2usize..8,
            which in 0usize..4,
            pick in any::<usize>(),
            sim_words in 0usize..=2,
        ) {
            let config = RandomAigConfig { num_pis, num_gates, num_pos, xor_percent: 30 };
            let mut aig = random_aig(seed, &config);
            let cec = CecConfig { sim_words };
            let mut session = CecSession::default();
            let stages = PassKind::ALL.iter().cycle().take(8);
            for (step, &kind) in stages.enumerate() {
                let before = aig.clone();
                if step == at {
                    if let Some(e) = edited(&aig, which, pick) {
                        aig = e;
                    }
                } else {
                    kind.run(&mut aig);
                }
                let got = session.check(&before, &aig, &cec).expect("same interface");
                let want = check_equivalence(&before, &aig, &cec).expect("same interface");
                prop_assert_eq!(&got.verdict, &want.verdict, "step {}", step);
                if let CecVerdict::NotEquivalent(cex) = &got.verdict {
                    prop_assert!(before.eval(cex) != aig.eval(cex), "step {}: cex must replay", step);
                }
            }
        }
    }

    /// `g` with one more output per mask: the AND of every input, input `i`
    /// complemented where bit `i` of the mask is set. On ten inputs such a
    /// product is 1 on one pattern of 1,024, so random signatures rarely
    /// tell it from its single-fanin edits: the candidate pairs a wrong cut
    /// proof would merge.
    fn with_products(g: &Aig, masks: &[u16]) -> Aig {
        let mut g = g.clone();
        let pis: Vec<Lit> = g.pis().iter().map(|&n| Lit::new(n, false)).collect();
        for &m in masks {
            let out = pis
                .iter()
                .enumerate()
                .map(|(i, &p)| p.with_complement(m >> i & 1 == 1))
                .reduce(|acc, l| g.and(acc, l))
                .expect("at least one input");
            g.add_po(out);
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Cut proofs are sound and move no verdict: along the chain of a
        /// random network, its optimized version and one single-fanin edit
        /// of that, every merge in the session's space holds on all input
        /// patterns, and every check gives the verdict, counterexample
        /// included, of a session that asks the solver about every
        /// candidate.
        #[test]
        fn cut_proofs_are_sound(
            seed in any::<u64>(),
            num_pis in 1usize..=10,
            num_gates in 1usize..40,
            num_pos in 1usize..=4,
            masks in prop::collection::vec(any::<u16>(), 0..3),
            rewire in any::<bool>(),
            pick in any::<usize>(),
            sim_words in 0usize..=1,
        ) {
            let config = RandomAigConfig { num_pis, num_gates, num_pos, xor_percent: 30 };
            let g = with_products(&random_aig(seed, &config), &masks);
            let mut optimized = g.clone();
            for kind in PassKind::ALL {
                kind.run(&mut optimized);
            }
            let edit = edited(&optimized, if rewire { 3 } else { 0 }, pick);
            let edit = edit.unwrap_or_else(|| optimized.clone());
            let cec = CecConfig { sim_words };
            let (mut cut, mut sat) = (CecSession::default(), CecSession::sat_only());
            for (step, (x, y)) in [(&g, &optimized), (&optimized, &edit)].into_iter().enumerate() {
                let got = cut.check(x, y, &cec).expect("same interface");
                let want = sat.check(x, y, &cec).expect("same interface");
                prop_assert_eq!(&got.verdict, &want.verdict, "step {}", step);
                prop_assert_eq!(got.stats.sweep_merges, want.stats.sweep_merges);
                prop_assert_eq!(want.stats.cut_proofs, 0);
                let refuted = cut.refuted_merges();
                prop_assert!(refuted.is_empty(), "step {}: false merges {:?}", step, refuted);
            }
        }
    }

    #[test]
    fn disabled_stage_is_identity() {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let x = g.xor(a, b);
        g.add_po(x);
        let (out, report) = optimize(&g, &OptConfig::disabled());
        assert_eq!(out.and_count(), g.and_count());
        assert!(report.rounds.is_empty());
        assert_eq!(report.node_delta(), 0);
    }
}
