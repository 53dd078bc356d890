//! Persistent, multi-backend result storage.
//!
//! [`ResultStore`] is the storage abstraction of the engine's result layer:
//! a content-addressed map from [`CacheKey`] to shared
//! [`FlowResult`]s with uniform counters
//! ([`StoreStats`]) and a garbage-collection hook. [`DiskStore`] ([`disk`])
//! implements it: one file per key under a format-versioned directory,
//! written atomically (temp file + rename), so results survive the process
//! and are shared across runs, CLI invocations and CI steps. The in-memory
//! [`ResultCache`](crate::cache::ResultCache) is not a backend but the tier
//! in front of one: layered over a store with
//! [`ResultCache::with_backing`](crate::cache::ResultCache::with_backing),
//! its [`get_or_compute`](crate::cache::ResultCache::get_or_compute) probes
//! the store on memory misses and writes computed results through.
//!
//! On-disk entries are encoded by the hand-rolled, self-describing codec of
//! [`codec`]; its [`FORMAT_VERSION`](codec::FORMAT_VERSION) participates in
//! the directory layout, so a codec bump invalidates old entries wholesale
//! instead of risking misdecodes. Corrupt or truncated files decode to an
//! error and are treated (and counted) as misses, never as panics.

pub mod codec;
pub mod disk;

pub use disk::{DiskStore, GcSummary};

use crate::job::CacheKey;
use std::sync::Arc;
use t1map::flow::FlowResult;

/// Uniform counters every [`ResultStore`] backend reports.
///
/// `entries` is a gauge (current occupancy); the rest are monotone
/// counters, so per-run figures are differences of two snapshots
/// ([`StoreStats::delta_since`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Entries currently stored.
    pub entries: usize,
    /// Lookups that found a decodable entry.
    pub hits: u64,
    /// Lookups that found nothing usable (including corrupt entries).
    pub misses: u64,
    /// Entries written.
    pub puts: u64,
    /// I/O or decode failures (each also counts as a miss or a failed put).
    pub errors: u64,
    /// Entries removed by [`ResultStore::gc`].
    pub evicted: u64,
}

impl StoreStats {
    /// Counter increments since `earlier` (a snapshot of the same store);
    /// `entries` stays the current gauge value.
    pub fn delta_since(&self, earlier: &StoreStats) -> StoreStats {
        StoreStats {
            entries: self.entries,
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            puts: self.puts.saturating_sub(earlier.puts),
            errors: self.errors.saturating_sub(earlier.errors),
            evicted: self.evicted.saturating_sub(earlier.evicted),
        }
    }
}

/// A content-addressed store of flow results.
///
/// Implementations must be safe to share across the engine's worker
/// threads (`Send + Sync`); all methods take `&self`. A `get` after a
/// successful `put` of the same key returns an equal result (module
/// crash-window caveats of the backend); a failed or corrupt entry is a
/// miss, never an error surfaced to the flow.
pub trait ResultStore: Send + Sync {
    /// Returns the stored result for `key`, if present and decodable.
    fn get(&self, key: CacheKey) -> Option<Arc<FlowResult>>;

    /// Stores `result` under `key` (best effort: backends count failures
    /// in [`StoreStats::errors`] rather than propagate them).
    fn put(&self, key: CacheKey, result: &Arc<FlowResult>);

    /// Whether an entry for `key` exists (without decoding it).
    fn contains(&self, key: CacheKey) -> bool;

    /// Snapshot of the store's counters.
    fn stats(&self) -> StoreStats;

    /// Evicts all but the `keep_newest` most recent entries (plus any
    /// stale-format debris), returning how many entries were removed.
    fn gc(&self, keep_newest: usize) -> usize;
}
