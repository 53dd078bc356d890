//! The unit of work and its content address.

use sfq_netlist::aig::Aig;
use sfq_netlist::fnv::Fnv1a;
use std::hash::Hasher;
use std::sync::Arc;
use t1map::cells::CellLibrary;
use t1map::flow::FlowConfig;

/// Content address of a job: the AIG's structural digest plus a canonical
/// fingerprint of the (library, configuration) pair.
///
/// Two jobs with equal keys describe the same computation and may share one
/// [`FlowResult`](t1map::flow::FlowResult); the two halves are kept separate
/// (rather than folded into one word) so a collision requires *both* 64-bit
/// digests to collide at once.
///
/// The digest half is a whole-network hash and costs as much as a pass over
/// the AIG, while the setup half is cheap. So a run that submits many jobs
/// on few networks hashes each network once and builds every key from that
/// digest with [`CacheKey::from_digest`]: the [`SuiteRunner`] memoizes
/// digests per shared `Arc<Aig>`, and the `sfq-explore` expander hashes each
/// subject once.
///
/// [`SuiteRunner`]: crate::SuiteRunner
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`Aig::structural_hash`] of the subject network.
    pub aig: u64,
    /// FNV-1a over [`CellLibrary::fingerprint`] then
    /// [`FlowConfig::fingerprint`].
    pub setup: u64,
}

impl CacheKey {
    /// Computes the content address of running `config` on `aig` under
    /// `lib`, hashing the whole network.
    pub fn compute(aig: &Aig, lib: &CellLibrary, config: &FlowConfig) -> Self {
        Self::from_digest(aig.structural_hash(), lib, config)
    }

    /// The content address of running `config` under `lib` on the network
    /// whose [`Aig::structural_hash`] is `aig` — [`CacheKey::compute`]
    /// without the pass over the network.
    pub fn from_digest(aig: u64, lib: &CellLibrary, config: &FlowConfig) -> Self {
        let mut h = Fnv1a::new();
        lib.fingerprint(&mut h);
        config.fingerprint(&mut h);
        CacheKey {
            aig,
            setup: h.finish(),
        }
    }
}

/// Address of a job's [`Subject`](t1map::flow::Subject) — the half of a
/// flow that depends only on the network, the library and the pre-mapping
/// stage. Jobs with equal subject keys can share one subject within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SubjectKey {
    /// [`CacheKey::aig`] of the job.
    aig: u64,
    /// FNV-1a over [`CellLibrary::fingerprint`].
    lib: u64,
    /// FNV-1a over the pre-mapping stage's
    /// [`OptConfig::fingerprint`](sfq_opt::OptConfig::fingerprint).
    pre_opt: u64,
}

impl SubjectKey {
    /// The subject address of `job`, whose content address is `key`.
    pub(crate) fn of(job: &Job, key: CacheKey) -> Self {
        let mut lib = Fnv1a::new();
        job.lib.fingerprint(&mut lib);
        let mut pre_opt = Fnv1a::new();
        job.config.pre_opt.fingerprint(&mut pre_opt);
        SubjectKey {
            aig: key.aig,
            lib: lib.finish(),
            pre_opt: pre_opt.finish(),
        }
    }
}

/// One unit of batch work: run a mapping flow on a named AIG.
///
/// The AIG is shared via `Arc` so a suite that maps the same benchmark under
/// several configurations (the normal case) carries one copy of the network,
/// and cloning a `Job` into a worker thread is cheap.
#[derive(Debug, Clone)]
pub struct Job {
    /// Benchmark name (e.g. `"adder"`), used for progress and row labels.
    pub name: String,
    /// Flow label (e.g. `"1φ"`, `"T1"`), used for progress lines.
    pub flow: String,
    /// The subject network.
    pub aig: Arc<Aig>,
    /// The cell library to map against.
    pub lib: CellLibrary,
    /// The flow configuration to run.
    pub config: FlowConfig,
}

impl Job {
    /// Creates a job.
    pub fn new(
        name: impl Into<String>,
        flow: impl Into<String>,
        aig: Arc<Aig>,
        lib: CellLibrary,
        config: FlowConfig,
    ) -> Self {
        Job {
            name: name.into(),
            flow: flow.into(),
            aig,
            lib,
            config,
        }
    }

    /// The job's content address (see [`CacheKey`]). Hashes the whole
    /// network; a caller that already holds its digest calls
    /// [`CacheKey::from_digest`] instead.
    pub fn key(&self) -> CacheKey {
        CacheKey::compute(&self.aig, &self.lib, &self.config)
    }

    /// `name/flow`, the label shown in progress output.
    pub fn label(&self) -> String {
        format!("{}/{}", self.name, self.flow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_circuits::epfl::adder;

    #[test]
    fn key_ignores_name_but_not_content() {
        let lib = CellLibrary::default();
        let aig = Arc::new(adder(4));
        let a = Job::new("a", "1φ", aig.clone(), lib, FlowConfig::single_phase());
        let b = Job::new("b", "x", aig.clone(), lib, FlowConfig::single_phase());
        assert_eq!(a.key(), b.key(), "labels are not part of the address");

        let c = Job::new("a", "1φ", aig.clone(), lib, FlowConfig::multiphase(4));
        assert_ne!(a.key(), c.key(), "config is part of the address");

        let mut lib2 = lib;
        lib2.dff += 1;
        let d = Job::new("a", "1φ", aig, lib2, FlowConfig::single_phase());
        assert_ne!(a.key(), d.key(), "library is part of the address");
    }
}
