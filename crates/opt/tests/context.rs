//! Analysis-manager integration tests:
//!
//! - after **any** random sequence of passes on random AIGs, every
//!   context-cached analysis (levels, arrivals, required times, slack,
//!   fanout counts, signatures) is identical to a freshly computed one —
//!   the honesty contract behind every `Preserved` report;
//! - a slack-aware fixpoint run builds the STA from scratch **at most
//!   once** (counter-asserted) while producing byte-identical results
//!   (same structural hash, so same nodes and depth) to the scratch-mode
//!   pipeline — which reproduces the pre-context behavior exactly — on
//!   the Table-I small suite, CEC-verified against the subject;
//! - the DFF-objective mode is live (its decisions differ from the
//!   slack-aware mode somewhere on the suite) and guarded.

use proptest::prelude::*;
use sfq_circuits::epfl;
use sfq_circuits::random::{random_aig, RandomAigConfig};
use sfq_netlist::aig::Aig;
use sfq_opt::analysis::signatures_of;
use sfq_opt::{
    check_equivalence, optimize_with, CecConfig, CecVerdict, OptConfig, OptContext, PassKind,
};
use sfq_sta::AigSta;

fn table1_small() -> Vec<(&'static str, Aig)> {
    vec![
        ("adder16", epfl::adder(16)),
        ("multiplier8", epfl::multiplier(8)),
        ("sin8", epfl::sin(8)),
        ("voter31", epfl::voter(31)),
    ]
}

/// Asserts every cached analysis of `ctx` equals a fresh computation on
/// `aig`. Calling the accessors is itself the test: stale entries must
/// refresh (incrementally, for the STA) to exactly the scratch values.
fn assert_ctx_matches_fresh(ctx: &mut OptContext, aig: &Aig) {
    assert_eq!(ctx.levels(aig), aig.levels().as_slice(), "levels");
    assert_eq!(ctx.depth(aig), aig.depth(), "depth");
    let fanouts: Vec<u32> = aig.node_ids().map(|id| aig.fanout_count(id)).collect();
    assert_eq!(ctx.fanouts(aig), fanouts.as_slice(), "fanout counts");
    assert_eq!(
        ctx.signatures(aig),
        signatures_of(aig).as_slice(),
        "signatures"
    );
    let fresh = AigSta::new(aig);
    let cached = ctx.sta(aig);
    assert_eq!(cached.horizon(), fresh.horizon(), "horizon");
    for id in aig.node_ids() {
        assert_eq!(
            cached.arrival(id),
            fresh.arrival(id),
            "arrival of n{}",
            id.0
        );
        assert_eq!(
            cached.required(id),
            fresh.required(id),
            "required of n{}",
            id.0
        );
        assert_eq!(cached.slack(id), fresh.slack(id), "slack of n{}", id.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn cached_analyses_match_fresh_after_any_pass_sequence(
        seed in any::<u64>(),
        gates in 16usize..96,
        sequence in proptest::collection::vec(0usize..PassKind::KNOWN.len(), 1..8),
    ) {
        let mut aig = random_aig(
            seed,
            &RandomAigConfig {
                num_pis: 6,
                num_gates: gates,
                num_pos: 3,
                xor_percent: 30,
            },
        );
        let mut ctx = OptContext::new();
        for &pick in &sequence {
            PassKind::KNOWN[pick].run(&mut aig, &mut ctx);
            assert_ctx_matches_fresh(&mut ctx, &aig);
        }
    }
}

/// Acceptance: the slack-aware fixpoint loop builds the STA from scratch
/// at most once per run while producing byte-identical results to the
/// scratch pipeline (== the pre-refactor behavior), CEC-verified against
/// the subject on the Table-I small suite.
#[test]
fn slack_fixpoint_builds_sta_at_most_once_and_matches_scratch() {
    for (name, aig) in table1_small() {
        let config = OptConfig::slack_aware();

        let mut shared = aig.clone();
        let mut shared_ctx = OptContext::new();
        let shared_report = optimize_with(&mut shared, &config, &mut shared_ctx);

        // The instrumentation counter: one from-scratch STA build for the
        // whole run, every later round served incrementally.
        assert!(
            shared_report.analysis.sta_full_builds <= 1,
            "{name}: expected <= 1 STA build, got {}",
            shared_report.analysis.sta_full_builds
        );
        assert!(
            shared_report.analysis.cache_hits > 0,
            "{name}: the shared context must serve cache hits"
        );

        // Scratch mode recomputes every analysis per consumer — exactly
        // the pre-context pipeline. Results must be byte-identical.
        let mut scratch = aig.clone();
        let mut scratch_ctx = OptContext::scratch();
        let scratch_report = optimize_with(&mut scratch, &config, &mut scratch_ctx);
        assert!(
            scratch_report.analysis.sta_full_builds > 1,
            "{name}: scratch mode rebuilds the STA per consumer"
        );
        assert_eq!(
            shared.structural_hash(),
            scratch.structural_hash(),
            "{name}: shared-context results must be byte-identical to scratch"
        );
        assert_eq!(shared_report.nodes_after, scratch_report.nodes_after);
        assert_eq!(shared_report.depth_after, scratch_report.depth_after);

        // And the run is functionally correct end to end.
        let cec = check_equivalence(&aig, &shared, &CecConfig::default()).unwrap();
        assert_eq!(
            cec.verdict,
            CecVerdict::Equivalent,
            "{name}: CEC must prove the shared-context run"
        );
    }
}

/// The DFF-objective mode must be guarded like every other mode (never
/// more nodes or depth than the subject, CEC-equivalent) and *live*: on at
/// least one suite benchmark its pricing makes a different decision than
/// plain slack-aware rewriting.
#[test]
fn dff_aware_mode_is_guarded_and_live() {
    let mut diverged = 0usize;
    for (name, aig) in table1_small() {
        let (dff, report) = sfq_opt::optimize(&aig, &OptConfig::dff_aware(4));
        assert!(
            report.nodes_after <= report.nodes_before,
            "{name}: node guard"
        );
        assert!(
            report.depth_after <= report.depth_before,
            "{name}: depth guard"
        );
        let cec = check_equivalence(&aig, &dff, &CecConfig::default()).unwrap();
        assert_eq!(cec.verdict, CecVerdict::Equivalent, "{name}: CEC");
        let (slack, _) = sfq_opt::optimize(&aig, &OptConfig::slack_aware());
        if dff.structural_hash() != slack.structural_hash() {
            diverged += 1;
        }
    }
    assert!(
        diverged >= 1,
        "DFF pricing never changed a decision — the mode is dead"
    );
}

/// One shared context across *different* pass runs (the
/// `balance-slack` satellite): after a slack-aware rewrite leaves a fresh
/// STA in the context, a following `balance-slack` consumes it as a cache
/// hit instead of building its own.
#[test]
fn balance_slack_reuses_the_rewrite_sta() {
    let aig = epfl::adder(16);
    let mut g = aig.clone();
    let mut ctx = OptContext::new();
    let stats =
        [PassKind::RewriteSlack, PassKind::BalanceSlack].map(|kind| kind.run(&mut g, &mut ctx));
    assert_eq!(stats.len(), 2);
    let c = ctx.counters();
    assert_eq!(
        c.sta_full_builds, 1,
        "one build serves both timing consumers"
    );
    // balance-slack's STA request after the rewrite must not be a build:
    // either a pure hit (identical rebuild) or an incremental rebind.
    assert!(
        stats[1].sta_builds == 0,
        "balance-slack must not build its own STA"
    );
    let cec = check_equivalence(&aig, &g, &CecConfig::default()).unwrap();
    assert_eq!(cec.verdict, CecVerdict::Equivalent);
}
