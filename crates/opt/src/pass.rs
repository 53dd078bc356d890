//! The pass manager: the [`OptPass`] trait, per-pass statistics, the
//! [`Pipeline`] runner with its guarded convergence loop, and the
//! fingerprinted [`OptConfig`] that flows and caches key on.
//!
//! Every pass runs against an [`OptContext`] — the typed analysis cache of
//! [`crate::analysis`] — and reports a [`Preserved`] set describing which
//! cached analyses its output network kept valid. The pipeline threads
//! **one** context through all passes and all fixpoint rounds, so analyses
//! survive pass boundaries: levels are recomputed only when a pass
//! restructured the network, and the unit-delay timing analysis is built
//! from scratch at most once per run (stale copies are incrementally
//! rebound — see [`sfq_sta::AigSta::rebind`]).

use crate::analysis::{same_structure, CtxCounters, OptContext, Preserved};
use crate::cec::{check_equivalence, CecConfig, CecStats, CecVerdict};
use crate::passes::{balance_critical_network_ctx, balance_network, strash_network};
use crate::rewrite::{
    rewrite_network_in_place_ctx, RewriteConfig, RewriteMode, DEFAULT_DFF_PHASES,
};
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

/// A network optimization pass.
///
/// Passes transform the network in place and keep the analysis context
/// honest: the returned [`Preserved`] set (already applied to `ctx` by the
/// time `run` returns) names exactly the cached analyses that are still
/// valid for the output network. The shared runner upgrades the report to
/// [`Preserved::all`] when the pass verifiably reproduced the network
/// unchanged, so converged fixpoint rounds cost no analysis work.
pub trait OptPass {
    /// Short stable name (also the `--passes` spelling).
    fn name(&self) -> &'static str;
    /// Transforms `aig` in place, returning the run's statistics and the
    /// preservation report applied to `ctx`.
    fn run(&self, aig: &mut Aig, ctx: &mut OptContext) -> (PassStats, Preserved);
}

fn stats_around(
    pass: &'static str,
    aig: &mut Aig,
    ctx: &mut OptContext,
    f: impl FnOnce(&Aig, &mut OptContext) -> (Aig, usize, Preserved),
) -> (PassStats, Preserved) {
    let _span = sfq_obs::span_owned(|| format!("opt:{pass}"));
    let start = Instant::now();
    let snap = ctx.counters();
    let nodes_before = aig.and_count();
    let depth_before = ctx.depth(aig);
    let (next, applied, mut preserved) = f(aig, ctx);
    // A verbatim rebuild (the converged-round common case) preserves every
    // analysis regardless of what the pass claims.
    if same_structure(aig, &next) {
        preserved = Preserved::all();
    }
    *aig = next;
    ctx.retain(&preserved);
    let nodes_after = aig.and_count();
    let depth_after = ctx.depth(aig);
    let delta = ctx.counters().delta_since(&snap);
    (
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
        },
        preserved,
    )
}

/// The [`stats_around`] counterpart for ID-stable passes that edit the
/// network in place instead of returning a rebuilt one. With zero
/// applications an in-place pass has verifiably not touched the network at
/// all, so the report is upgraded to [`Preserved::all`] — the converged
/// fixpoint rounds that dominate paper-scale runs then cost no
/// reconstruction and no analysis invalidation.
fn stats_around_in_place(
    pass: &'static str,
    aig: &mut Aig,
    ctx: &mut OptContext,
    f: impl FnOnce(&mut Aig, &mut OptContext) -> (usize, Preserved),
) -> (PassStats, Preserved) {
    let _span = sfq_obs::span_owned(|| format!("opt:{pass}"));
    let start = Instant::now();
    let snap = ctx.counters();
    let nodes_before = aig.and_count();
    let depth_before = ctx.depth(aig);
    let (applied, mut preserved) = f(aig, ctx);
    if applied == 0 {
        preserved = Preserved::all();
    }
    ctx.retain(&preserved);
    let nodes_after = aig.and_count();
    let depth_after = ctx.depth(aig);
    let delta = ctx.counters().delta_since(&snap);
    (
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
        },
        preserved,
    )
}

/// Structural hashing / deduplication pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Strash;

impl OptPass for Strash {
    fn name(&self) -> &'static str {
        "strash"
    }
    fn run(&self, aig: &mut Aig, ctx: &mut OptContext) -> (PassStats, Preserved) {
        stats_around("strash", aig, ctx, |g, _| {
            let (out, applied) = strash_network(g);
            (out, applied, Preserved::none())
        })
    }
}

/// Dangling-node sweep with constant propagation.
///
/// Kills unreachable nodes in place ([`sweep_in_place`]), leaving free
/// slots behind instead of rebuilding — survivors keep their ids, so the
/// next timing rebind's dirty set is exactly the killed nodes. The cached
/// analyses are invalidated even though live nodes are untouched: freed
/// slots change the *indexed* views (levels, signatures) at their
/// positions, and dead nodes in a stale timing graph would
/// phantom-constrain live required times.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sweep;

impl OptPass for Sweep {
    fn name(&self) -> &'static str {
        "sweep"
    }
    fn run(&self, aig: &mut Aig, ctx: &mut OptContext) -> (PassStats, Preserved) {
        stats_around_in_place("sweep", aig, ctx, |g, _| {
            let applied = sweep_in_place(g);
            // Occupancy guard: when sweeping killed most of the array (a
            // huge dead cone, e.g. random scale-class networks), leaving
            // the holes would make every later len()-sized analysis pay for
            // slots that no longer exist. Compaction preserves live-node
            // order, so the resulting structure is unaffected; on
            // paper-scale incremental rounds the dead fraction stays tiny
            // and this is skipped.
            if g.dead_count() * 2 > g.len() {
                g.compact();
            }
            (applied, Preserved::none())
        })
    }
}

/// Depth-oriented AND-tree rebalancing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Balance;

impl OptPass for Balance {
    fn name(&self) -> &'static str {
        "balance"
    }
    fn run(&self, aig: &mut Aig, ctx: &mut OptContext) -> (PassStats, Preserved) {
        stats_around("balance", aig, ctx, |g, _| {
            let (out, applied) = balance_network(g);
            (out, applied, Preserved::none())
        })
    }
}

/// Slack-prioritized rebalancing: only zero-slack trees are rebuilt (see
/// [`crate::passes::balance_critical_network`]). Consumes the context's
/// cached timing analysis instead of building a throwaway one.
#[derive(Debug, Clone, Copy, Default)]
pub struct BalanceCritical;

impl OptPass for BalanceCritical {
    fn name(&self) -> &'static str {
        "balance-slack"
    }
    fn run(&self, aig: &mut Aig, ctx: &mut OptContext) -> (PassStats, Preserved) {
        stats_around("balance-slack", aig, ctx, |g, ctx| {
            let (out, applied) = balance_critical_network_ctx(g, ctx);
            (out, applied, Preserved::none())
        })
    }
}

/// Cut-based NPN rewriting; the config's [`RewriteMode`] selects the
/// depth/pricing policy (and the pass name shown in stats tables).
///
/// Accepted sites are committed by editing slots in place
/// ([`rewrite_network_in_place_ctx`]); a round with zero accepted sites
/// then leaves the network completely untouched.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rewrite {
    /// Enumeration parameters and depth policy.
    pub config: RewriteConfig,
}

impl Rewrite {
    /// The slack-aware variant (depth budget = required time).
    pub fn slack_aware() -> Self {
        Rewrite {
            config: RewriteConfig::slack_aware(),
        }
    }

    /// The DFF-objective variant (slack-aware budget, sites priced by the
    /// per-edge DFF cost under `n`-phase clocking).
    pub fn dff_aware(n: u32) -> Self {
        Rewrite {
            config: RewriteConfig::dff_aware(n),
        }
    }
}

impl OptPass for Rewrite {
    fn name(&self) -> &'static str {
        match self.config.mode {
            RewriteMode::Conservative => "rewrite",
            RewriteMode::SlackAware => "rewrite-slack",
            RewriteMode::DffAware => "rewrite-dff",
        }
    }
    fn run(&self, aig: &mut Aig, ctx: &mut OptContext) -> (PassStats, Preserved) {
        // The timing modes rebound the context's STA to the output network
        // themselves (invalidating only the reconstructed cones through the
        // incremental refresh), and the rebound arrivals are the output's
        // levels.
        let preserved = if self.config.mode != RewriteMode::Conservative {
            Preserved::none().with_sta().with_levels()
        } else {
            Preserved::none()
        };
        stats_around_in_place(self.name(), aig, ctx, |g, ctx| {
            (
                rewrite_network_in_place_ctx(g, &self.config, ctx),
                preserved,
            )
        })
    }
}

/// Name of a concrete pass — the configuration-level (and CLI-level)
/// currency, kept separate from the trait objects so [`OptConfig`] stays
/// plain cloneable data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassKind {
    /// [`Strash`].
    Strash,
    /// [`Sweep`].
    Sweep,
    /// [`Rewrite`] in the depth-conservative mode.
    Rewrite,
    /// [`Rewrite`] in the slack-aware mode (sites may grow up to their
    /// required-time slack; network depth still never increases).
    RewriteSlack,
    /// [`Rewrite`] in the DFF-objective mode under the given phase count:
    /// the slack-aware depth budget plus site pricing by the per-edge DFF
    /// cost (§II-B accounting at unit delay).
    RewriteDff(u32),
    /// [`Balance`].
    Balance,
    /// [`BalanceCritical`] — only zero-slack trees are rebuilt.
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

    fn instantiate(self) -> Box<dyn OptPass + Send + Sync> {
        match self {
            PassKind::Strash => Box::new(Strash),
            PassKind::Sweep => Box::new(Sweep),
            PassKind::Rewrite => Box::new(Rewrite::default()),
            PassKind::RewriteSlack => Box::new(Rewrite::slack_aware()),
            PassKind::RewriteDff(n) => Box::new(Rewrite::dff_aware(n)),
            PassKind::Balance => Box::new(Balance),
            PassKind::BalanceSlack => Box::new(BalanceCritical),
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
    /// [`Pipeline::run_until_fixpoint`]).
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

/// A configured sequence of passes.
pub struct Pipeline {
    passes: Vec<Box<dyn OptPass + Send + Sync>>,
}

impl Pipeline {
    /// Builds a pipeline from explicit pass objects.
    pub fn new(passes: Vec<Box<dyn OptPass + Send + Sync>>) -> Self {
        Pipeline { passes }
    }

    /// Builds a pipeline from pass names.
    pub fn from_kinds(kinds: &[PassKind]) -> Self {
        Pipeline::new(kinds.iter().map(|k| k.instantiate()).collect())
    }

    /// Builds the pipeline described by `config` (ignoring its `enabled`
    /// and `fixpoint` switches — those select *whether/how* callers run it).
    pub fn from_config(config: &OptConfig) -> Self {
        Pipeline::from_kinds(&config.passes)
    }

    /// Runs every pass once, in order, against a fresh analysis context.
    pub fn run(&self, aig: &mut Aig) -> Vec<PassStats> {
        self.run_with(aig, &mut OptContext::new())
    }

    /// Runs every pass once, in order, threading the caller's context.
    pub fn run_with(&self, aig: &mut Aig, ctx: &mut OptContext) -> Vec<PassStats> {
        self.passes.iter().map(|p| p.run(aig, ctx).0).collect()
    }

    /// Runs the pass sequence repeatedly until no round improves the
    /// network, up to `max_rounds` rounds, against a fresh analysis
    /// context.
    ///
    /// The loop is *guarded*: a round whose result has more nodes or more
    /// depth than it started with is rolled back and the loop stops, so the
    /// final network never has more nodes or depth than the input — the
    /// invariant `opt --fixpoint` and the flow's pre-mapping stage rely on.
    pub fn run_until_fixpoint(&self, aig: &mut Aig, max_rounds: usize) -> OptReport {
        self.run_until_fixpoint_with(aig, max_rounds, &mut OptContext::new())
    }

    /// [`Pipeline::run_until_fixpoint`] threading the caller's analysis
    /// context through **all** rounds: analyses survive both pass and
    /// round boundaries, so e.g. `rewrite-slack` builds its timing
    /// analysis from scratch at most once per run and converged rounds
    /// cost no analysis work at all.
    pub fn run_until_fixpoint_with(
        &self,
        aig: &mut Aig,
        max_rounds: usize,
        ctx: &mut OptContext,
    ) -> OptReport {
        let entry = ctx.counters();
        let nodes_before = aig.and_count();
        let depth_before = ctx.depth(aig);
        let mut rounds = Vec::new();
        let mut converged = false;
        for _ in 0..max_rounds {
            let prev_nodes = aig.and_count();
            let prev_depth = ctx.depth(aig);
            let snapshot = aig.clone();
            let stats = self.run_with(aig, ctx);
            let nodes = aig.and_count();
            let depth = ctx.depth(aig);
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
        OptReport {
            rounds,
            converged,
            nodes_before,
            nodes_after: aig.and_count(),
            depth_before,
            depth_after: ctx.depth(aig),
            analysis: ctx.counters().delta_since(&entry),
        }
    }
}

/// Runs the optimization stage described by `config` on a copy of `aig`.
///
/// The convenience entry point used by `t1map::flow::run_flow` and the CLI:
/// a disabled config returns an untouched copy with an empty report.
pub fn optimize(aig: &Aig, config: &OptConfig) -> (Aig, OptReport) {
    let mut g = aig.clone();
    if !config.enabled {
        let report = OptReport {
            rounds: Vec::new(),
            converged: true,
            nodes_before: g.and_count(),
            nodes_after: g.and_count(),
            depth_before: g.depth(),
            depth_after: g.depth(),
            analysis: CtxCounters::default(),
        };
        return (g, report);
    }
    let pipeline = Pipeline::from_config(config);
    let mut ctx = OptContext::new();
    let report = if config.fixpoint {
        pipeline.run_until_fixpoint_with(&mut g, config.max_rounds, &mut ctx)
    } else {
        let nodes_before = g.and_count();
        let depth_before = ctx.depth(&g);
        let stats = pipeline.run_with(&mut g, &mut ctx);
        let depth_after = ctx.depth(&g);
        OptReport {
            rounds: vec![stats],
            converged: true,
            nodes_before,
            nodes_after: g.and_count(),
            depth_before,
            depth_after,
            analysis: ctx.counters(),
        }
    };
    // In-place passes may leave freed slots behind; hand callers the dense
    // form they always got (an identity when no pass left holes).
    g.compact();
    mirror_counters(&report.analysis);
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
    let mut g = subject.clone();
    let nodes_before = g.and_count();
    let depth_before = g.depth();
    let mut rounds = Vec::new();
    let mut agg = CecStats::default();
    let mut checked_stages = 0usize;
    let mut verdict = CecVerdict::Equivalent;
    let mut failed_pass = None;
    let mut converged = true;
    let mut ctx = OptContext::new();

    let pipeline = Pipeline::from_config(config);
    let max_rounds = match (config.enabled, config.fixpoint) {
        (false, _) => 0,
        (true, false) => 1,
        (true, true) => config.max_rounds,
    };
    'rounds: for round in 0..max_rounds {
        let prev_nodes = g.and_count();
        let prev_depth = g.depth();
        let snapshot = g.clone();
        let mut stats = Vec::new();
        for pass in &pipeline.passes {
            let before = g.clone();
            let (s, _) = pass.run(&mut g, &mut ctx);
            checked_stages += 1;
            match check_equivalence(&before, &g, cec) {
                Ok(out) => {
                    agg.absorb(&out.stats);
                    match out.verdict {
                        CecVerdict::Equivalent => {}
                        CecVerdict::NotEquivalent(cex) => {
                            // A pass broke the function: stop on the last
                            // verified network and report the witness.
                            verdict = CecVerdict::NotEquivalent(cex);
                            failed_pass = Some(s.pass);
                            g = before;
                            ctx.invalidate_all();
                            stats.push(s);
                            rounds.push(stats);
                            break 'rounds;
                        }
                        CecVerdict::Unknown => {
                            // Budget ran out: keep optimizing, but the run
                            // as a whole is no longer fully proven.
                            if verdict == CecVerdict::Equivalent {
                                verdict = CecVerdict::Unknown;
                                failed_pass = Some(s.pass);
                            }
                        }
                    }
                }
                Err(_) => {
                    // A pass changed the PI/PO interface — a contract
                    // violation no counterexample can express.
                    verdict = CecVerdict::Unknown;
                    failed_pass = Some(s.pass);
                    g = before;
                    ctx.invalidate_all();
                    stats.push(s);
                    rounds.push(stats);
                    break 'rounds;
                }
            }
            stats.push(s);
        }
        if !config.fixpoint {
            rounds.push(stats);
            break;
        }
        let (nodes, depth) = (g.and_count(), g.depth());
        if nodes > prev_nodes || depth > prev_depth {
            g = snapshot; // same guard as Pipeline::run_until_fixpoint
            ctx.invalidate_all();
            break;
        }
        rounds.push(stats);
        if nodes == prev_nodes && depth == prev_depth {
            break;
        }
        converged = round + 1 < max_rounds;
    }

    // As in [`optimize`]: hand back the dense form.
    g.compact();
    mirror_counters(&ctx.counters());
    VerifiedRun {
        report: OptReport {
            rounds,
            converged,
            nodes_before,
            nodes_after: g.and_count(),
            depth_before,
            depth_after: g.depth(),
            analysis: ctx.counters(),
        },
        aig: g,
        verdict,
        failed_pass,
        cec: agg,
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
        let pipeline = Pipeline::from_config(&OptConfig::standard());
        let mut opt = g.clone();
        let report = pipeline.run_until_fixpoint(&mut opt, 8);
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
