//! The analysis manager: a typed cache of lazily-computed, incrementally
//! refreshed network analyses threaded through the whole pass pipeline.
//!
//! Every pass used to recompute its analyses from scratch — a fresh level
//! vector per [`crate::pass::PassStats`] measurement, a throwaway
//! [`AigSta`] per `balance-slack` invocation, a full timing build per
//! `rewrite-slack` round. [`OptContext`] centralizes them LLVM-style: a
//! pass *asks* for an analysis ([`OptContext::levels`],
//! [`OptContext::sta`], [`OptContext::fanouts`],
//! [`OptContext::signatures`]) and *reports* what it kept valid (a
//! [`Preserved`] set applied via [`OptContext::retain`]). Consumers get
//!
//! - **cache hits** when the previous pass preserved the analysis,
//! - **incremental refreshes** when it went stale: a stale [`AigSta`] is
//!   never dropped — it is *rebound* to the current network
//!   ([`AigSta::rebind`]: structural diff + dirty-cone
//!   [`sfq_sta::TimingAnalysis::refresh`]), so the pipeline builds the
//!   timing analysis from scratch at most once per run,
//! - **from-scratch recomputes** only on first use.
//!
//! [`CtxCounters`] records which of the three paths served each request;
//! the per-pass deltas surface in [`crate::pass::PassStats`] and the CLI
//! `opt --stats` table. [`OptContext::scratch`] disables all caching —
//! every request recomputes, reproducing the pre-context pipeline exactly —
//! which is what the `abl-ctx` ablation and the byte-identity tests run
//! against.

use sfq_netlist::aig::{Aig, NodeKind};
use sfq_sta::AigSta;

/// Which cached analyses a pass left valid for its *output* network.
///
/// Applied by every pass run ([`crate::pass::PassKind::run`]): `strash`,
/// `sweep` and the balancers preserve nothing, while
/// `rewrite-slack`/`rewrite-dff` hand their already-rebound timing
/// analysis (and the levels implied by its arrivals) back to the context,
/// so only the reconstructed cones were refreshed and nothing is rebuilt.
/// The run upgrades any set to [`Preserved::all`] when the pass verifiably
/// left the network unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Preserved {
    /// Node levels (and the depth derived from them) are still exact.
    pub levels: bool,
    /// The unit-delay timing analysis is still exact.
    pub sta: bool,
    /// Fanout/reference counts are still exact.
    pub fanouts: bool,
    /// Simulation signatures are still exact.
    pub signatures: bool,
}

impl Preserved {
    /// Nothing survives — the pass restructured the network arbitrarily.
    pub fn none() -> Self {
        Preserved {
            levels: false,
            sta: false,
            fanouts: false,
            signatures: false,
        }
    }

    /// Everything survives — the pass left the network untouched.
    pub fn all() -> Self {
        Preserved {
            levels: true,
            sta: true,
            fanouts: true,
            signatures: true,
        }
    }

    /// This set with the timing analysis marked preserved.
    pub fn with_sta(mut self) -> Self {
        self.sta = true;
        self
    }

    /// This set with the level analysis marked preserved.
    pub fn with_levels(mut self) -> Self {
        self.levels = true;
        self
    }
}

/// Monotonic counters over an [`OptContext`]'s lifetime. Per-pass numbers
/// are deltas between two snapshots ([`CtxCounters::delta_since`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CtxCounters {
    /// Requests served straight from a fresh cache entry.
    pub cache_hits: usize,
    /// Analyses recomputed from the network (levels, fanouts, signatures —
    /// and, in scratch mode, everything).
    pub recomputes: usize,
    /// Cached analyses marked stale by [`OptContext::retain`].
    pub invalidations: usize,
    /// Timing analyses built from scratch (graph construction plus full
    /// forward/backward sweeps). At most 1 per pipeline run once a context
    /// is threaded through it.
    pub sta_full_builds: usize,
    /// Stale timing analyses rebound incrementally ([`AigSta::rebind`]).
    pub sta_rebinds: usize,
    /// Node recomputations performed by those rebinds — the incremental
    /// cost actually paid, to compare against `sta_full_builds × network`.
    pub sta_nodes_refreshed: usize,
}

impl CtxCounters {
    /// Counter increments since `earlier` (a snapshot of the same context).
    pub fn delta_since(&self, earlier: &CtxCounters) -> CtxCounters {
        CtxCounters {
            cache_hits: self.cache_hits - earlier.cache_hits,
            recomputes: self.recomputes - earlier.recomputes,
            invalidations: self.invalidations - earlier.invalidations,
            sta_full_builds: self.sta_full_builds - earlier.sta_full_builds,
            sta_rebinds: self.sta_rebinds - earlier.sta_rebinds,
            sta_nodes_refreshed: self.sta_nodes_refreshed - earlier.sta_nodes_refreshed,
        }
    }

    /// Merges another context's counters into this one (used when a run
    /// aggregates across helper contexts).
    pub fn absorb(&mut self, other: &CtxCounters) {
        self.cache_hits += other.cache_hits;
        self.recomputes += other.recomputes;
        self.invalidations += other.invalidations;
        self.sta_full_builds += other.sta_full_builds;
        self.sta_rebinds += other.sta_rebinds;
        self.sta_nodes_refreshed += other.sta_nodes_refreshed;
    }
}

/// The seed of the deterministic signature patterns (see
/// [`signatures_of`]).
pub const SIGNATURE_SEED: u64 = 0x51F0_57A7_1C51_6EED;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// 64-bit simulation signature of every node under the fixed deterministic
/// input patterns (`splitmix64(SIGNATURE_SEED ^ pi_ordinal)` per input):
/// the cheap semantic fingerprint resubstitution-style passes filter
/// candidates with before paying for SAT. Exposed as a free function so
/// tests can cross-check the cached copy in [`OptContext::signatures`].
pub fn signatures_of(aig: &Aig) -> Vec<u64> {
    let mut sig = Vec::new();
    signatures_of_into(aig, &mut sig);
    sig
}

/// [`signatures_of`] writing into a caller-owned buffer, mirroring
/// [`Aig::levels_into`]: the fixpoint loop re-signs the network every
/// round, and the context reuses one allocation across all of them.
pub fn signatures_of_into(aig: &Aig, sig: &mut Vec<u64>) {
    sig.clear();
    sig.resize(aig.len(), 0);
    for id in aig.node_ids() {
        sig[id.index()] = match aig.kind(id) {
            NodeKind::Const0 => 0,
            NodeKind::Input(i) => splitmix64(SIGNATURE_SEED ^ u64::from(i)),
            NodeKind::And(a, b) => {
                let va = sig[a.node().index()] ^ if a.is_complement() { u64::MAX } else { 0 };
                let vb = sig[b.node().index()] ^ if b.is_complement() { u64::MAX } else { 0 };
                va & vb
            }
        };
    }
}

/// Structural equality of two networks: same node array (kinds and fanin
/// literals) and the same output list. [`crate::pass::PassKind::run`] uses
/// this to detect a verbatim rebuild — the common case on converged fixpoint rounds — and
/// upgrade the pass's [`Preserved`] report to [`Preserved::all`].
pub fn same_structure(a: &Aig, b: &Aig) -> bool {
    a.len() == b.len() && a.pos() == b.pos() && a.node_ids().all(|id| a.kind(id) == b.kind(id))
}

/// The typed analysis cache threaded through a pass pipeline.
///
/// One context serves one network *lineage*: the pipeline hands it the
/// evolving network, passes consume analyses through the accessors and
/// report [`Preserved`] sets, and the context keeps every analysis as warm
/// as the reports allow. Staleness is a contract, not a detection: a pass
/// that restructures the network and claims preservation corrupts the
/// cache (the property tests pin every pass's honesty).
#[derive(Debug, Default)]
pub struct OptContext {
    scratch: bool,
    levels: Vec<u32>,
    levels_fresh: bool,
    sta: Option<AigSta>,
    sta_fresh: bool,
    fanouts: Vec<u32>,
    fanouts_fresh: bool,
    signatures: Vec<u64>,
    signatures_fresh: bool,
    counters: CtxCounters,
}

impl OptContext {
    /// A caching context — the normal mode.
    pub fn new() -> Self {
        Self::default()
    }

    /// A non-caching context: every request recomputes from scratch and
    /// nothing is retained across passes. This reproduces the pre-context
    /// pipeline exactly — the baseline of the `abl-ctx` ablation, the
    /// `sta_incremental` Criterion bench and the byte-identity tests.
    pub fn scratch() -> Self {
        OptContext {
            scratch: true,
            ..Self::default()
        }
    }

    /// Whether this is a non-caching ([`OptContext::scratch`]) context.
    pub fn is_scratch(&self) -> bool {
        self.scratch
    }

    /// Lifetime counters (snapshot; see [`CtxCounters::delta_since`]).
    pub fn counters(&self) -> CtxCounters {
        self.counters
    }

    /// Node levels of `aig` (indexed by `NodeId::index`), recomputed into
    /// the context's reusable buffer only when stale.
    pub fn levels(&mut self, aig: &Aig) -> &[u32] {
        self.refresh_levels(aig);
        &self.levels
    }

    /// Network depth of `aig` (max level over POs) from the cached levels.
    pub fn depth(&mut self, aig: &Aig) -> u32 {
        self.refresh_levels(aig);
        aig.depth_from(&self.levels)
    }

    fn refresh_levels(&mut self, aig: &Aig) {
        if !self.scratch && self.levels_fresh && self.levels.len() == aig.len() {
            self.counters.cache_hits += 1;
            return;
        }
        aig.levels_into(&mut self.levels);
        self.levels_fresh = true;
        self.counters.recomputes += 1;
    }

    /// Fanout/reference counts of `aig` (ANDs plus POs referencing each
    /// node, indexed by `NodeId::index`).
    pub fn fanouts(&mut self, aig: &Aig) -> &[u32] {
        if self.scratch || !self.fanouts_fresh || self.fanouts.len() != aig.len() {
            self.fanouts.clear();
            self.fanouts
                .extend(aig.node_ids().map(|id| aig.fanout_count(id)));
            self.fanouts_fresh = true;
            self.counters.recomputes += 1;
        } else {
            self.counters.cache_hits += 1;
        }
        &self.fanouts
    }

    /// Per-node 64-bit simulation signatures of `aig` (see
    /// [`signatures_of`]).
    pub fn signatures(&mut self, aig: &Aig) -> &[u64] {
        if self.scratch || !self.signatures_fresh || self.signatures.len() != aig.len() {
            signatures_of_into(aig, &mut self.signatures);
            self.signatures_fresh = true;
            self.counters.recomputes += 1;
        } else {
            self.counters.cache_hits += 1;
        }
        &self.signatures
    }

    /// The unit-delay timing analysis of `aig`: a cache hit when fresh, an
    /// incremental rebind when stale, a from-scratch build only when the
    /// context has never held one.
    pub fn sta(&mut self, aig: &Aig) -> &AigSta {
        self.ensure_sta(aig);
        self.sta.as_ref().expect("ensure_sta populates the cache")
    }

    /// Removes the timing analysis from the cache for exclusive mutable
    /// use (the slack-aware rewrite pattern: consult required times while
    /// feeding accepted growth back through `raise_arrival`). The taken
    /// analysis is exact for `aig`; hand it back with
    /// [`OptContext::finish_sta`] once the pass has produced its output
    /// network.
    pub fn take_sta(&mut self, aig: &Aig) -> AigSta {
        self.ensure_sta(aig);
        self.sta_fresh = false;
        self.sta.take().expect("ensure_sta populates the cache")
    }

    /// Returns a taken timing analysis after the pass rebuilt the network
    /// into `out`: the analysis is rebound to `out` (clearing any arrival
    /// floors the pass raised, refreshing only the reconstructed cones)
    /// and re-cached as fresh, together with the levels its arrivals now
    /// equal. In scratch mode the analysis is simply dropped.
    pub fn finish_sta(&mut self, mut sta: AigSta, out: &Aig) {
        if self.scratch {
            return;
        }
        let stats = sta.rebind(out);
        self.counters.sta_rebinds += 1;
        self.counters.sta_nodes_refreshed += stats.refreshed;
        self.levels.clear();
        self.levels.extend(sta.arrivals().iter().map(|&a| a as u32));
        self.levels_fresh = true;
        self.sta = Some(sta);
        self.sta_fresh = true;
    }

    fn ensure_sta(&mut self, aig: &Aig) {
        if self.scratch {
            self.refresh_levels(aig);
            self.sta = Some(AigSta::with_levels(aig, &self.levels));
            self.sta_fresh = true;
            self.counters.sta_full_builds += 1;
            return;
        }
        match (self.sta.is_some(), self.sta_fresh) {
            (true, true) => self.counters.cache_hits += 1,
            (true, false) => {
                let sta = self.sta.as_mut().expect("checked above");
                let stats = sta.rebind(aig);
                self.counters.sta_rebinds += 1;
                self.counters.sta_nodes_refreshed += stats.refreshed;
                self.sta_fresh = true;
            }
            (false, _) => {
                self.refresh_levels(aig);
                self.sta = Some(AigSta::with_levels(aig, &self.levels));
                self.sta_fresh = true;
                self.counters.sta_full_builds += 1;
            }
        }
    }

    /// Applies a pass's [`Preserved`] report: everything not preserved is
    /// marked stale (the cached object survives as the warm start of the
    /// next incremental refresh — nothing is dropped).
    pub fn retain(&mut self, preserved: &Preserved) {
        if self.scratch {
            return;
        }
        if !preserved.levels && self.levels_fresh {
            self.levels_fresh = false;
            self.counters.invalidations += 1;
        }
        if !preserved.sta && self.sta_fresh {
            self.sta_fresh = false;
            self.counters.invalidations += 1;
        }
        if !preserved.fanouts && self.fanouts_fresh {
            self.fanouts_fresh = false;
            self.counters.invalidations += 1;
        }
        if !preserved.signatures && self.signatures_fresh {
            self.signatures_fresh = false;
            self.counters.invalidations += 1;
        }
    }

    /// Marks every cached analysis stale — the fixpoint loop's rollback
    /// hook (the network was replaced wholesale by a snapshot).
    pub fn invalidate_all(&mut self) {
        self.retain(&Preserved::none());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subject() -> Aig {
        let mut g = Aig::new();
        let a = g.add_pi();
        let b = g.add_pi();
        let c = g.add_pi();
        let x = g.xor(a, b);
        let m = g.maj3(x, b, c);
        g.add_po(m);
        g
    }

    #[test]
    fn accessors_match_fresh_computation() {
        let g = subject();
        let mut ctx = OptContext::new();
        assert_eq!(ctx.levels(&g), g.levels().as_slice());
        assert_eq!(ctx.depth(&g), g.depth());
        let fanouts: Vec<u32> = g.node_ids().map(|id| g.fanout_count(id)).collect();
        assert_eq!(ctx.fanouts(&g), fanouts.as_slice());
        assert_eq!(ctx.signatures(&g), signatures_of(&g).as_slice());
        let fresh = AigSta::new(&g);
        assert_eq!(ctx.sta(&g).analysis(), fresh.analysis());
    }

    #[test]
    fn second_request_is_a_cache_hit() {
        let g = subject();
        let mut ctx = OptContext::new();
        ctx.levels(&g);
        let before = ctx.counters();
        ctx.levels(&g);
        ctx.depth(&g);
        let d = ctx.counters().delta_since(&before);
        assert_eq!(d.cache_hits, 2);
        assert_eq!(d.recomputes, 0);
    }

    #[test]
    fn stale_sta_rebinds_instead_of_rebuilding() {
        let g = subject();
        let mut ctx = OptContext::new();
        ctx.sta(&g);
        ctx.invalidate_all();
        ctx.sta(&g);
        let c = ctx.counters();
        assert_eq!(c.sta_full_builds, 1, "one from-scratch build ever");
        assert_eq!(c.sta_rebinds, 1, "the stale copy was rebound");
    }

    #[test]
    fn scratch_context_never_caches() {
        let g = subject();
        let mut ctx = OptContext::scratch();
        ctx.sta(&g);
        ctx.sta(&g);
        let c = ctx.counters();
        assert_eq!(c.sta_full_builds, 2);
        assert_eq!(c.cache_hits, 0);
        assert_eq!(c.sta_rebinds, 0);
    }

    #[test]
    fn signatures_separate_distinct_functions() {
        let g = subject();
        let sig = signatures_of(&g);
        let pis: Vec<u64> = g.pis().iter().map(|&id| sig[id.index()]).collect();
        assert_eq!(pis.len(), 3);
        assert!(pis[0] != pis[1] && pis[1] != pis[2], "distinct PI patterns");
        // The PO cone's signature is the simulated function of the PI
        // patterns — spot-check against eval64.
        let po = g.pos()[0];
        let expect = g.eval64(&pis)[0];
        let got = sig[po.node().index()] ^ if po.is_complement() { u64::MAX } else { 0 };
        assert_eq!(got, expect);
    }

    #[test]
    fn same_structure_detects_identity_and_change() {
        let g = subject();
        assert!(same_structure(&g, &g.clone()));
        let mut h = g.clone();
        let extra = h.pis()[0];
        h.add_po(sfq_netlist::aig::Lit::new(extra, true));
        assert!(!same_structure(&g, &h));
    }
}
