//! Content-addressed in-memory result cache with in-flight deduplication,
//! optionally layered over a persistent backing store.

use crate::job::CacheKey;
use crate::store::{ResultStore, StoreStats};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use t1map::flow::FlowResult;

/// Where a served result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitSource {
    /// The in-memory tier, including requests that waited for another
    /// worker's in-flight computation of the same key.
    Memory,
    /// The backing store (decoded from disk and promoted into memory).
    Disk,
    /// Nowhere — the flow ran.
    Computed,
}

impl HitSource {
    /// The provenance word every front end prints: `serve` response lines,
    /// progress lines, explore and bench reports.
    pub fn label(self) -> &'static str {
        match self {
            HitSource::Memory => "memory",
            HitSource::Disk => "disk",
            HitSource::Computed => "computed",
        }
    }
}

/// Snapshot of the cache counters, broken down per backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served from the in-memory tier (including requests that
    /// waited for another worker's in-flight computation of the same key).
    pub memory_hits: u64,
    /// Requests served from the backing store.
    pub disk_hits: u64,
    /// Requests that ran the flow.
    pub misses: u64,
    /// Counters of the backing store, if one is attached.
    pub disk: StoreStats,
}

impl CacheStats {
    /// Requests served without running the flow, from either tier.
    pub fn hits(&self) -> u64 {
        self.memory_hits + self.disk_hits
    }

    /// Total requests observed.
    pub fn requests(&self) -> u64 {
        self.hits() + self.misses
    }

    /// Counter increments since `earlier` (a snapshot of the same cache);
    /// gauges keep their current value.
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            memory_hits: self.memory_hits.saturating_sub(earlier.memory_hits),
            disk_hits: self.disk_hits.saturating_sub(earlier.disk_hits),
            misses: self.misses.saturating_sub(earlier.misses),
            disk: self.disk.delta_since(&earlier.disk),
        }
    }
}

enum Slot {
    /// A worker is computing this key; waiters block on the condvar.
    InFlight,
    /// Finished result.
    Ready(Arc<FlowResult>),
}

/// A content-addressed store of flow results.
///
/// [`get_or_compute`](ResultCache::get_or_compute) guarantees each key is
/// computed at most once even under concurrent submission: the first caller
/// claims the key and computes *outside* the lock, later callers for the
/// same key sleep on a condvar and wake to share the finished `Arc`. If the
/// computing closure panics, the claim is released and a waiter takes over,
/// so one poisoned job cannot deadlock the pool.
///
/// With a backing [`ResultStore`] attached
/// ([`with_backing`](ResultCache::with_backing)), the cache becomes the
/// layered view of the result layer: lookups fall through to the backing
/// store (one probe per claimed key, so concurrent requests for one key
/// still trigger a single disk read), computed results are written through,
/// and disk hits are promoted into memory.
#[derive(Default)]
pub struct ResultCache {
    // NB: `Debug` is implemented by hand — `dyn ResultStore` has no `Debug`
    // bound, so the derive cannot apply.
    slots: Mutex<HashMap<CacheKey, Slot>>,
    ready: Condvar,
    backing: Option<Arc<dyn ResultStore>>,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("entries", &self.len())
            .field("backed", &self.backing.is_some())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Releases an in-flight claim if the computing closure unwinds.
struct ClaimGuard<'a> {
    cache: &'a ResultCache,
    key: CacheKey,
    armed: bool,
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut slots = self.cache.slots.lock().unwrap();
            slots.remove(&self.key);
            self.cache.ready.notify_all();
        }
    }
}

impl ResultCache {
    /// Creates an empty cache with no backing store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache layered over `backing`: lookups missing in
    /// memory probe `backing`, computed results are written through to it.
    pub fn with_backing(backing: Arc<dyn ResultStore>) -> Self {
        ResultCache {
            backing: Some(backing),
            ..Self::default()
        }
    }

    /// Inserts `result` as a finished entry, waking any waiters.
    fn insert_ready(&self, key: CacheKey, result: Arc<FlowResult>) {
        let mut slots = self.slots.lock().unwrap();
        slots.insert(key, Slot::Ready(result));
        self.ready.notify_all();
    }

    /// Returns the result for `key`, running `compute` only if neither tier
    /// has (or is producing) it. The [`HitSource`] says which tier served
    /// the request.
    pub fn get_or_compute<F>(&self, key: CacheKey, compute: F) -> (Arc<FlowResult>, HitSource)
    where
        F: FnOnce() -> FlowResult,
    {
        {
            let mut slots = self.slots.lock().unwrap();
            loop {
                match slots.get(&key) {
                    Some(Slot::Ready(result)) => {
                        self.memory_hits.fetch_add(1, Ordering::Relaxed);
                        sfq_obs::counter("store.memory.hits", 1);
                        return (result.clone(), HitSource::Memory);
                    }
                    Some(Slot::InFlight) => {
                        slots = self.ready.wait(slots).unwrap();
                    }
                    None => {
                        slots.insert(key, Slot::InFlight);
                        break;
                    }
                }
            }
        }
        let mut guard = ClaimGuard {
            cache: self,
            key,
            armed: true,
        };
        // Probe the backing store under the claim, so concurrent requests
        // for the same key cost one disk read, not one each.
        let probed = self.backing.as_ref().and_then(|b| {
            let _span = sfq_obs::span("store:probe");
            b.get(key)
        });
        if let Some(found) = probed {
            guard.armed = false;
            self.insert_ready(key, found.clone());
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            sfq_obs::counter("store.disk.hits", 1);
            return (found, HitSource::Disk);
        }
        let result = Arc::new(compute());
        guard.armed = false;
        self.insert_ready(key, result.clone());
        self.misses.fetch_add(1, Ordering::Relaxed);
        sfq_obs::counter("store.misses", 1);
        if let Some(backing) = &self.backing {
            let _span = sfq_obs::span("store:put");
            backing.put(key, &result);
        }
        (result, HitSource::Computed)
    }

    /// Number of finished in-memory entries.
    pub fn len(&self) -> usize {
        self.slots
            .lock()
            .unwrap()
            .values()
            .filter(|s| matches!(s, Slot::Ready(..)))
            .count()
    }

    /// Returns `true` if no finished entry is stored in memory.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the per-backend counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk: self.backing.as_ref().map(|b| b.stats()).unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_circuits::epfl::adder;
    use t1map::cells::CellLibrary;
    use t1map::flow::{run_flow, FlowConfig};

    fn small_result() -> FlowResult {
        run_flow(
            &adder(2),
            &CellLibrary::default(),
            &FlowConfig::single_phase(),
        )
    }

    #[test]
    fn second_lookup_hits() {
        let cache = ResultCache::new();
        let key = CacheKey { aig: 1, setup: 2 };
        let mut runs = 0;
        let (_, source) = cache.get_or_compute(key, || {
            runs += 1;
            small_result()
        });
        assert_eq!(source, HitSource::Computed);
        let (_, source) = cache.get_or_compute(key, || {
            runs += 1;
            small_result()
        });
        assert_eq!(source, HitSource::Memory);
        assert_eq!(runs, 1);
        let stats = cache.stats();
        assert_eq!(
            (stats.memory_hits, stats.disk_hits, stats.misses),
            (1, 0, 1)
        );
        assert_eq!(stats.hits(), 1);
        assert_eq!(stats.requests(), 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn panicking_compute_releases_the_claim() {
        let cache = ResultCache::new();
        let key = CacheKey { aig: 3, setup: 4 };
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_compute(key, || panic!("boom"));
        }));
        assert!(panic.is_err());
        // The claim is gone: a retry computes instead of deadlocking.
        let (_, source) = cache.get_or_compute(key, small_result);
        assert_eq!(source, HitSource::Computed);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_requests_compute_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = ResultCache::new();
        let key = CacheKey { aig: 5, setup: 6 };
        let runs = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    cache.get_or_compute(key, || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window so waiters actually block.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        small_result()
                    });
                });
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "exactly one computation");
        let stats = cache.stats();
        assert_eq!(stats.hits() + stats.misses, 4);
        assert_eq!(stats.misses, 1);
    }
}
