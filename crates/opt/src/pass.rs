//! The pass manager: [`PassKind`] — the passes themselves — with their
//! per-pass statistics, the guarded round loop [`optimize_with`] that runs
//! them, and the fingerprinted [`OptConfig`] that flows and caches key on.
//!
//! Every pass runs against an [`OptContext`] — the typed analysis cache of
//! [`crate::analysis`] — and marks stale exactly the cached analyses its
//! output network no longer matches. The round loop threads **one**
//! context through all passes and all fixpoint rounds, so analyses survive
//! pass boundaries: levels are recomputed only when a pass restructured the
//! network, and the unit-delay timing analysis is built from scratch at
//! most once per run (stale copies are incrementally rebound — see
//! [`sfq_sta::AigSta::rebind`]). [`optimize`] and [`optimize_verified`]
//! are that one loop, the latter with a per-pass equivalence check.

use crate::analysis::{same_structure, CtxCounters, OptContext, Preserved};
use crate::cec::{check_equivalence, CecConfig, CecStats, CecVerdict};
use crate::passes::{balance_critical_network_ctx, balance_network, strash_network};
use crate::rewrite::{rewrite_network_in_place_ctx, RewriteConfig, DEFAULT_DFF_PHASES};
use sfq_netlist::aig::Aig;
use sfq_netlist::transform::sweep_in_place;
use std::fmt;
use std::hash::Hasher;
use std::time::Instant;

/// Node/level deltas and analysis-cache accounting of one pass execution.
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
    /// Analysis requests served from the context cache during this pass.
    pub cache_hits: usize,
    /// Cached analyses this pass invalidated (marked stale).
    pub invalidations: usize,
    /// STA nodes incrementally refreshed (rebind dirty cones) during this
    /// pass — compare against `sta_builds` × network size.
    pub sta_refreshed: usize,
    /// From-scratch STA builds during this pass.
    pub sta_builds: usize,
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
    /// slots behind instead of rebuilding — survivors keep their ids, so
    /// the next timing rebind's dirty set is exactly the killed nodes. The
    /// cached analyses are invalidated even though live nodes are
    /// untouched: freed slots change the *indexed* views (levels,
    /// signatures) at their positions, and dead nodes in a stale timing
    /// graph would phantom-constrain live required times.
    Sweep,
    /// Cut-based NPN rewriting in the depth-conservative mode. Accepted
    /// sites are committed by editing slots in place
    /// ([`rewrite_network_in_place_ctx`]); a round with zero accepted sites
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
    /// (see [`crate::passes::balance_critical_network`]). Consumes the
    /// context's cached timing analysis instead of building a throwaway
    /// one.
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

    /// Runs the pass once on `aig`, threading `ctx`, and measures it.
    ///
    /// On return `ctx` holds exactly the analyses still valid for the
    /// output network. A pass that verifiably left the network unchanged —
    /// a rebuild that reproduced it structurally, or an in-place pass with
    /// zero applications — keeps every analysis, so the converged fixpoint
    /// rounds that dominate paper-scale runs cost no analysis work.
    pub fn run(self, aig: &mut Aig, ctx: &mut OptContext) -> PassStats {
        let pass = self.name();
        let _span = sfq_obs::span_owned(|| format!("opt:{pass}"));
        let start = Instant::now();
        let snap = ctx.counters();
        let nodes_before = aig.and_count();
        let depth_before = ctx.depth(aig);
        let (rebuilt, applied, mut preserved) = self.transform(aig, ctx);
        let unchanged = match rebuilt {
            Some(next) => {
                let same = same_structure(aig, &next);
                *aig = next;
                same
            }
            None => applied == 0,
        };
        if unchanged {
            preserved = Preserved::all();
        }
        ctx.retain(&preserved);
        let nodes_after = aig.and_count();
        let depth_after = ctx.depth(aig);
        let delta = ctx.counters().delta_since(&snap);
        PassStats {
            pass,
            nodes_before,
            nodes_after,
            depth_before,
            depth_after,
            applied,
            cache_hits: delta.cache_hits,
            invalidations: delta.invalidations,
            sta_refreshed: delta.sta_nodes_refreshed,
            sta_builds: delta.sta_full_builds,
            micros: start.elapsed().as_micros() as u64,
        }
    }

    /// The pass proper: either a rebuilt network (`strash`, `balance`,
    /// `balance-slack`) or an in-place edit of `aig` (`None`), the
    /// application count, and the analyses the pass keeps valid.
    fn transform(self, aig: &mut Aig, ctx: &mut OptContext) -> (Option<Aig>, usize, Preserved) {
        let rebuilt = |(out, applied): (Aig, usize)| (Some(out), applied, Preserved::none());
        // The timing modes rebound the context's STA to the output network
        // themselves (invalidating only the reconstructed cones through the
        // incremental refresh), and the rebound arrivals are the output's
        // levels.
        let retimed = Preserved::none().with_sta().with_levels();
        let mut rewrite = |config: RewriteConfig, preserved: Preserved| {
            let applied = rewrite_network_in_place_ctx(aig, &config, ctx);
            (None, applied, preserved)
        };
        match self {
            PassKind::Strash => rebuilt(strash_network(aig)),
            PassKind::Balance => rebuilt(balance_network(aig)),
            PassKind::BalanceSlack => rebuilt(balance_critical_network_ctx(aig, ctx)),
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
                (None, applied, Preserved::none())
            }
            PassKind::Rewrite => rewrite(RewriteConfig::conservative(), Preserved::none()),
            PassKind::RewriteSlack => rewrite(RewriteConfig::slack_aware(), retimed),
            PassKind::RewriteDff(n) => rewrite(RewriteConfig::dff_aware(n), retimed),
        }
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
/// end-to-end deltas and the analysis-cache accounting.
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
    /// Aggregate analysis-context counters over the whole run (cache hits,
    /// invalidations, STA builds vs. incremental refreshes).
    pub analysis: CtxCounters,
}

impl OptReport {
    /// Signed node delta (negative = reduction).
    pub fn node_delta(&self) -> i64 {
        self.nodes_after as i64 - self.nodes_before as i64
    }
}

/// Runs the optimization stage described by `config` on `aig` in place,
/// threading the caller's analysis context through **all** passes and
/// rounds — the crate's one round loop.
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
pub fn optimize_with(aig: &mut Aig, config: &OptConfig, ctx: &mut OptContext) -> OptReport {
    run_rounds(aig, config, ctx, None)
}

/// A per-pass acceptance check: the pass's input network, its output
/// network and its name. Returning `false` rejects the pass.
type PassCheck<'a> = &'a mut dyn FnMut(&Aig, &Aig, &'static str) -> bool;

/// [`optimize_with`], optionally handing every pass's input and output to
/// `check`. A rejected pass is rolled back and ends the run; its stats
/// close the report's last round, and the run counts as converged (it
/// stopped by itself, not at the round limit).
fn run_rounds(
    aig: &mut Aig,
    config: &OptConfig,
    ctx: &mut OptContext,
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
            analysis: CtxCounters::default(),
        };
    }
    let entry = ctx.counters();
    let nodes_before = aig.and_count();
    let depth_before = ctx.depth(aig);
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
            .then(|| (aig.and_count(), ctx.depth(aig), aig.clone()));
        let mut stats = Vec::with_capacity(config.passes.len());
        for &kind in &config.passes {
            // The pre-pass network is only kept when something checks it.
            let before = check.is_some().then(|| aig.clone());
            let s = kind.run(aig, ctx);
            stats.push(s);
            if let (Some(check), Some(before)) = (check.as_mut(), before) {
                if !check(&before, aig, s.pass) {
                    *aig = before;
                    ctx.invalidate_all();
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
        let (nodes, depth) = (aig.and_count(), ctx.depth(aig));
        if nodes > prev_nodes || depth > prev_depth {
            *aig = snapshot; // guard: roll the regression back
            ctx.invalidate_all();
            converged = true;
            break;
        }
        rounds.push(stats);
        if nodes == prev_nodes && depth == prev_depth {
            converged = true;
            break;
        }
    }
    let report = OptReport {
        rounds,
        converged,
        nodes_before,
        nodes_after: aig.and_count(),
        depth_before,
        depth_after: ctx.depth(aig),
        analysis: ctx.counters().delta_since(&entry),
    };
    mirror_counters(&report.analysis);
    report
}

/// Runs the optimization stage described by `config` on a copy of `aig`
/// (see [`optimize_with`]) and hands back its dense form.
///
/// The convenience entry point used by `t1map::flow::run_flow` and the CLI:
/// a disabled config returns an untouched copy with an empty report.
pub fn optimize(aig: &Aig, config: &OptConfig) -> (Aig, OptReport) {
    let mut g = aig.clone();
    let report = optimize_with(&mut g, config, &mut OptContext::new());
    // An identity when no pass left holes.
    g.compact();
    (g, report)
}

/// Mirrors a run's analysis-context counters into the `sfq-obs` recorder,
/// so `--stats`/`--trace` see the same numbers the [`OptReport`] carries.
fn mirror_counters(c: &CtxCounters) {
    sfq_obs::counter("opt.cache_hits", c.cache_hits as u64);
    sfq_obs::counter("opt.recomputes", c.recomputes as u64);
    sfq_obs::counter("opt.invalidations", c.invalidations as u64);
    sfq_obs::counter("opt.sta_builds", c.sta_full_builds as u64);
    sfq_obs::counter("opt.sta_rebinds", c.sta_rebinds as u64);
    sfq_obs::counter("opt.sta_nodes_refreshed", c.sta_nodes_refreshed as u64);
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
    /// proven equivalent to its input; a counterexample identifies the
    /// first pass that broke the function.
    pub verdict: CecVerdict,
    /// Name of the pass that failed verification, if any.
    pub failed_pass: Option<&'static str>,
    /// Aggregated CEC counters over all stage checks.
    pub cec: CecStats,
    /// Number of pass executions that were equivalence-checked.
    pub checked_stages: usize,
}

/// [`optimize`] with the verification guard engaged: every executed pass is
/// equivalence-checked against its input network, and the results chain by
/// transitivity into an end-to-end proof that the final network computes
/// the subject functions.
///
/// Checking adjacent stages (rather than original vs. final once) is what
/// keeps the SAT work tractable at paper scale: consecutive networks differ
/// only in local cones, which the CEC sweep discharges with small
/// window-bounded queries instead of one monolithic miter across several
/// optimization rounds of structural drift.
///
/// On a mismatch the run stops at the failing pass and returns the last
/// verified network together with the counterexample.
pub fn optimize_verified(subject: &Aig, config: &OptConfig, cec: &CecConfig) -> VerifiedRun {
    let mut aig = subject.clone();
    let mut verdict = CecVerdict::Equivalent;
    let mut failed_pass = None;
    let mut stats = CecStats::default();
    let mut checked_stages = 0usize;
    let mut check = |before: &Aig, after: &Aig, pass: &'static str| {
        checked_stages += 1;
        match check_equivalence(before, after, cec) {
            Ok(out) => {
                stats.absorb(&out.stats);
                match out.verdict {
                    CecVerdict::Equivalent => true,
                    // Budget ran out: keep optimizing, but the run as a
                    // whole is no longer fully proven.
                    CecVerdict::Unknown => {
                        if verdict == CecVerdict::Equivalent {
                            verdict = CecVerdict::Unknown;
                            failed_pass = Some(pass);
                        }
                        true
                    }
                    // A pass broke the function: stop on the last verified
                    // network and report the witness.
                    CecVerdict::NotEquivalent(cex) => {
                        verdict = CecVerdict::NotEquivalent(cex);
                        failed_pass = Some(pass);
                        false
                    }
                }
            }
            // A pass changed the PI/PO interface — a contract violation
            // no counterexample can express.
            Err(_) => {
                verdict = CecVerdict::Unknown;
                failed_pass = Some(pass);
                false
            }
        }
    };
    let report = run_rounds(&mut aig, config, &mut OptContext::new(), Some(&mut check));
    // As in [`optimize`]: hand back the dense form.
    aig.compact();
    VerifiedRun {
        aig,
        report,
        verdict,
        failed_pass,
        cec: stats,
        checked_stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let report = optimize_with(&mut opt, &OptConfig::standard(), &mut OptContext::new());
        assert!(report.nodes_after <= nodes0);
        assert!(report.depth_after <= depth0);
        assert!(report.converged);
        assert!(report.nodes_after < nodes0, "maj3 must shrink");
        for i in 0..8u32 {
            let bits = [i & 1 == 1, i >> 1 & 1 == 1, i >> 2 & 1 == 1];
            assert_eq!(g.eval(&bits), opt.eval(&bits), "input {i}");
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
