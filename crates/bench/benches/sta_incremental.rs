//! Criterion benchmark of the `sfq-opt` analysis manager: the slack-aware
//! fixpoint pipeline on `multiplier`, with one shared [`OptContext`]
//! threaded through all rounds (the STA is built once and incrementally
//! rebound) versus scratch mode (every timing consumer rebuilds from
//! scratch — the pre-context behavior). Both produce byte-identical
//! networks; the delta is pure analysis cost.
//!
//! A third pair isolates the analysis layer itself: rebinding a cached
//! [`sfq_sta::AigSta`] to a locally-edited network versus building a fresh
//! one.

use criterion::{criterion_group, criterion_main, Criterion};
use sfq_circuits::epfl;
use sfq_opt::{optimize_with, OptConfig, OptContext};
use sfq_sta::AigSta;

fn bench_fixpoint_context(c: &mut Criterion) {
    let aig = epfl::multiplier(8);
    let config = OptConfig::slack_aware();
    let mut group = c.benchmark_group("sta_incremental");
    group.sample_size(10);
    group.bench_function("fixpoint-shared-context", |b| {
        b.iter(|| {
            let mut g = aig.clone();
            let mut ctx = OptContext::new();
            optimize_with(&mut g, &config, &mut ctx).nodes_after
        })
    });
    group.bench_function("fixpoint-scratch-rebuilds", |b| {
        b.iter(|| {
            let mut g = aig.clone();
            let mut ctx = OptContext::scratch();
            optimize_with(&mut g, &config, &mut ctx).nodes_after
        })
    });
    group.finish();
}

fn bench_rebind_vs_scratch(c: &mut Criterion) {
    // The analysis layer alone: one optimization round's worth of change
    // (the conservative rewrite restructures a few local cones), then
    // either rebind the stale analysis or build a fresh one.
    let before = epfl::multiplier(8);
    let (after, _) = sfq_opt::rewrite_network(&before, &sfq_opt::RewriteConfig::conservative());
    let mut group = c.benchmark_group("sta_rebind");
    group.bench_function("rebind-after-rewrite", |b| {
        let baseline = AigSta::new(&before);
        b.iter(|| {
            let mut sta = baseline.clone();
            sta.rebind(&after).refreshed
        })
    });
    group.bench_function("build-from-scratch", |b| {
        b.iter(|| AigSta::new(&after).horizon())
    });
    group.finish();
}

criterion_group!(benches, bench_fixpoint_context, bench_rebind_vs_scratch);
criterion_main!(benches);
