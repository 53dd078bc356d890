//! Integration tests of the optimization subsystem on real benchmark
//! circuits: the fixpoint pipeline must shrink EPFL-class networks without
//! deepening them, and the CEC guard must prove every run equivalent — and
//! catch a deliberately injected bug.

use sfq_circuits::{epfl, named};
use sfq_netlist::aig::{Aig, Lit, NodeId, NodeKind};
use sfq_opt::{
    check_equivalence, optimize, optimize_verified, CecConfig, CecVerdict, OptConfig, OptReport,
    PassKind,
};

fn assert_optimizes(name: &str, aig: &Aig) {
    let (opt, report) = optimize(aig, &OptConfig::standard());
    assert!(
        report.nodes_after < report.nodes_before,
        "{name}: expected a node reduction, got {} -> {}",
        report.nodes_before,
        report.nodes_after
    );
    assert!(
        report.depth_after <= report.depth_before,
        "{name}: depth must never increase, got {} -> {}",
        report.depth_before,
        report.depth_after
    );
    let cec = check_equivalence(aig, &opt, &CecConfig::default())
        .unwrap_or_else(|e| panic!("{name}: interface changed: {e}"));
    assert_eq!(
        cec.verdict,
        CecVerdict::Equivalent,
        "{name}: optimized network must stay equivalent"
    );
}

#[test]
fn adder_shrinks_and_verifies() {
    assert_optimizes("adder16", &epfl::adder(16));
}

#[test]
fn multiplier_shrinks_and_verifies() {
    assert_optimizes("multiplier8", &epfl::multiplier(8));
}

#[test]
fn sin_shrinks_and_verifies() {
    assert_optimizes("sin8", &epfl::sin(8));
}

#[test]
fn voter_shrinks_and_verifies() {
    assert_optimizes("voter31", &epfl::voter(31));
}

/// Satellite: CEC negative test. Flip one fanin polarity somewhere in an
/// optimized AIG and the miter must become SAT (a concrete counterexample).
#[test]
fn mutated_fanin_polarity_makes_the_miter_sat() {
    let aig = epfl::adder(8);
    let (opt, _) = optimize(&aig, &OptConfig::standard());

    // Rebuild `opt` with exactly one fanin complement flipped. Scan for a
    // mutation that actually changes the function (a flip can be masked,
    // e.g. under a dominating constant), so the assertion below is about
    // CEC finding the bug, not about luck in picking the node.
    let mutated = (0..opt.len())
        .filter_map(|victim| {
            let g = flip_fanin(&opt, NodeId(victim as u32))?;
            let probe: Vec<u64> = (0..g.pi_count())
                .map(|i| 0x9E37_79B9_7F4A_7C15u64.rotate_left(i as u32 * 7))
                .collect();
            (g.eval64(&probe) != opt.eval64(&probe)).then_some(g)
        })
        .next()
        .expect("some single-polarity flip changes the function");

    let out = check_equivalence(&opt, &mutated, &CecConfig::default()).unwrap();
    match out.verdict {
        CecVerdict::NotEquivalent(cex) => {
            assert_eq!(cex.len(), opt.pi_count());
            assert_ne!(
                opt.eval(&cex),
                mutated.eval(&cex),
                "counterexample must replay"
            );
        }
        other => panic!("expected NotEquivalent, got {other:?}"),
    }

    // The same bug must also be caught with the simulation prefilter off —
    // i.e. by the SAT miter itself.
    let sat_only = CecConfig {
        sim_words: 0,
        ..CecConfig::default()
    };
    let out = check_equivalence(&opt, &mutated, &sat_only).unwrap();
    assert!(
        matches!(out.verdict, CecVerdict::NotEquivalent(_)),
        "miter must be SAT on the mutated network, got {:?}",
        out.verdict
    );
}

/// Copies `aig`, complementing the first fanin of AND node `victim`.
/// Returns `None` when `victim` is not an AND node.
fn flip_fanin(aig: &Aig, victim: NodeId) -> Option<Aig> {
    matches!(aig.kind(victim), NodeKind::And(..)).then_some(())?;
    let mut out = Aig::new();
    let mut map: Vec<Option<Lit>> = vec![None; aig.len()];
    map[NodeId::CONST0.index()] = Some(Lit::FALSE);
    let mapped = |map: &[Option<Lit>], l: Lit| -> Lit {
        let base = map[l.node().index()].expect("topological order");
        base.with_complement(base.is_complement() ^ l.is_complement())
    };
    for id in aig.node_ids() {
        match aig.kind(id) {
            NodeKind::Const0 => {}
            NodeKind::Input(_) => map[id.index()] = Some(out.add_pi()),
            NodeKind::And(a, b) => {
                let a = if id == victim { !a } else { a };
                let (fa, fb) = (mapped(&map, a), mapped(&map, b));
                map[id.index()] = Some(out.and(fa, fb));
            }
        }
    }
    for &po in aig.pos() {
        out.add_po(mapped(&map, po));
    }
    Some(out)
}

/// Tentpole acceptance: the slack-aware pipeline must beat the
/// conservative one on nodes — at equal depth — on at least three EPFL
/// benchmarks, and every slack-aware run must be CEC-verified.
#[test]
fn slack_aware_rewriting_dominates_conservative() {
    let mut dominated = 0usize;
    for (name, aig) in [
        ("adder16", epfl::adder(16)),
        ("multiplier8", epfl::multiplier(8)),
        ("voter31", epfl::voter(31)),
        ("sin8", epfl::sin(8)),
    ] {
        let (_, cons) = optimize(&aig, &OptConfig::standard());
        let (slack_net, slack) = optimize(&aig, &OptConfig::slack_aware());
        assert!(
            slack.nodes_after <= cons.nodes_after,
            "{name}: slack-aware ({}) must never lose to conservative ({})",
            slack.nodes_after,
            cons.nodes_after
        );
        assert!(
            slack.depth_after <= slack.depth_before,
            "{name}: the depth guard must hold, got {} -> {}",
            slack.depth_before,
            slack.depth_after
        );
        let cec = check_equivalence(&aig, &slack_net, &CecConfig::default()).unwrap();
        assert_eq!(
            cec.verdict,
            CecVerdict::Equivalent,
            "{name}: slack-aware result must be CEC-verified equivalent"
        );
        if slack.nodes_after < cons.nodes_after && slack.depth_after == cons.depth_after {
            dominated += 1;
        }
    }
    assert!(
        dominated >= 3,
        "slack-aware must strictly win nodes at equal depth on >= 3 \
         benchmarks, got {dominated}"
    );
}

#[test]
fn single_pass_pipelines_preserve_function() {
    let aig = epfl::adder(8);
    for kind in PassKind::KNOWN {
        let cfg = OptConfig {
            enabled: true,
            passes: vec![kind],
            fixpoint: false,
            max_rounds: 1,
        };
        let (opt, report) = optimize(&aig, &cfg);
        assert_eq!(report.rounds.len(), 1);
        assert_eq!(report.rounds[0][0].pass, kind.name());
        let cec = check_equivalence(&aig, &opt, &CecConfig::default()).unwrap();
        assert_eq!(
            cec.verdict,
            CecVerdict::Equivalent,
            "pass {} must preserve the function",
            kind.name()
        );
    }
}

/// Golden structural hashes of every pipeline flavor on real benchmark
/// circuits and on the seeded scale-class random network (at the small
/// bench scale's 2 000-gate budget). The values were captured when a
/// from-scratch rebuild strategy still existed and agreed with the in-place
/// passes byte for byte, so any drift here is a behaviour change, not a
/// refactor.
#[test]
fn optimized_networks_match_golden_hashes() {
    let subjects = [
        (
            "adder16",
            epfl::adder(16),
            [0xf635052da23a6801, 0x16355cae79b462ae, 0xef4139c7948b6c63],
        ),
        (
            "multiplier8",
            epfl::multiplier(8),
            [0xbd5a6d9a0c0e2fff, 0x51afbb467966d5e7, 0x5f9611d1998f65b6],
        ),
        (
            "sin8",
            epfl::sin(8),
            [0x35077c4feea946e9, 0x573b31251c364cd7, 0x6f7116d5c49cb34a],
        ),
        (
            "voter31",
            epfl::voter(31),
            [0x1e6a7263472cbbc2, 0xc46671cf6aaa7718, 0xc8b00efcd443ddff],
        ),
        (
            "scale-100k:2000",
            named::build("scale-100k", 2_000).unwrap(),
            [0x057e2dadeb29265e, 0x2e3c7605148c6c15, 0x22f61cbd73d298dc],
        ),
    ];
    for (name, aig, golden) in subjects {
        let configs = [
            OptConfig::standard(),
            OptConfig::slack_aware(),
            OptConfig::dff_aware(4),
        ];
        for (cfg, want) in configs.iter().zip(golden) {
            let (opt, _) = optimize(&aig, cfg);
            assert_eq!(
                opt.structural_hash(),
                want,
                "{name} {:?}: structural hash drifted",
                cfg.passes
            );
            assert_eq!(opt.dead_count(), 0, "{name}: optimize returns dense");
            if *cfg == OptConfig::standard() {
                let cec = check_equivalence(&aig, &opt, &CecConfig::default()).unwrap();
                assert_eq!(cec.verdict, CecVerdict::Equivalent, "{name}: CEC");
            }
        }
    }
}

#[test]
fn fixpoint_report_structure() {
    let aig = epfl::adder(8);
    let (_, report) = optimize(&aig, &OptConfig::standard());
    assert!(
        report.converged,
        "small adder must converge within 8 rounds"
    );
    assert!(!report.rounds.is_empty());
    for round in &report.rounds {
        assert_eq!(round.len(), PassKind::ALL.len());
        for (stats, kind) in round.iter().zip(PassKind::ALL) {
            assert_eq!(stats.pass, kind.name());
        }
    }
}

/// `optimize` and `optimize_verified` run the same round loop, so on an
/// equivalent run their reports agree in every field but wall time —
/// including the per-pass analysis-cache accounting `opt --stats` prints.
#[test]
fn verified_report_equals_plain_report() {
    let without_micros = |mut report: OptReport| {
        for stats in report.rounds.iter_mut().flatten() {
            stats.micros = 0;
        }
        report
    };
    // Only a rejected pass could end the two runs differently, and an
    // exhausted budget never rejects, so a simulation-only check (no SAT
    // sweep, no final miter conflicts) compares the same loop at half the
    // cost of the full CEC in a debug build.
    let budgeted = CecConfig {
        sweep: false,
        final_conflicts: Some(0),
        ..CecConfig::default()
    };
    let single_round = OptConfig {
        fixpoint: false,
        ..OptConfig::standard()
    };
    let configs = [
        OptConfig::standard(),
        OptConfig::slack_aware(),
        OptConfig::dff_aware(4),
        single_round,
    ];
    for (name, aig) in [
        ("adder16", epfl::adder(16)),
        ("multiplier8", epfl::multiplier(8)),
        ("sin8", epfl::sin(8)),
        ("voter31", epfl::voter(31)),
    ] {
        for cfg in &configs {
            let (opt, plain) = optimize(&aig, cfg);
            let run = optimize_verified(&aig, cfg, &budgeted);
            let refuted = matches!(run.verdict, CecVerdict::NotEquivalent(_));
            assert!(!refuted, "{name}: a pass broke the function");
            assert_eq!(
                run.aig.structural_hash(),
                opt.structural_hash(),
                "{name} {:?}: same network",
                cfg.passes
            );
            assert_eq!(
                without_micros(run.report),
                without_micros(plain),
                "{name} {:?} (fixpoint {}): reports differ",
                cfg.passes,
                cfg.fixpoint
            );
        }
    }
}
