//! On-disk [`ResultStore`] backend: one file per key, atomic writes.
//!
//! Layout: `<dir>/v<FORMAT_VERSION>/<aig>-<setup>.sfqr`, where the two key
//! halves are zero-padded hex. The version directory ties entries to the
//! codec that wrote them — after a format bump, old entries sit in a stale
//! `v<k>` directory that never matches lookups and is swept by
//! [`ResultStore::gc`].
//!
//! Writes go through a uniquely named temp file in the same directory
//! followed by a rename, so readers (including concurrent processes
//! sharing the directory) only ever observe absent or complete files.
//! Failures of any kind — I/O errors, decode errors, rename races — are
//! counted in [`StoreStats::errors`] and surface as misses or dropped
//! puts, never as panics or propagated errors.

use super::codec::{self, FORMAT_VERSION};
use super::{ResultStore, StoreStats};
use crate::job::CacheKey;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use t1map::flow::FlowResult;

/// Extension of entry files inside the version directory.
const ENTRY_EXT: &str = "sfqr";

/// What a [`DiskStore::gc_with_budget`] pass did and left behind — the
/// eviction summary the `sfq-t1 store gc` CLI verb prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcSummary {
    /// Entries removed (stale-format debris plus evictions).
    pub removed: usize,
    /// Bytes freed by removing current-format entries (stale-format
    /// debris is swept wholesale and not byte-counted).
    pub removed_bytes: u64,
    /// Current-format entries remaining after the pass.
    pub remaining: usize,
    /// Bytes of current-format entries remaining after the pass.
    pub remaining_bytes: u64,
}

/// Persistent result store rooted at a user-supplied cache directory.
#[derive(Debug)]
pub struct DiskStore {
    /// `<dir>/v<FORMAT_VERSION>` — entries of the current format only.
    root: PathBuf,
    /// Parent cache directory (holds stale version dirs for gc to sweep).
    dir: PathBuf,
    /// Distinguishes concurrent temp files from one process.
    tmp_seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
    errors: AtomicU64,
    evicted: AtomicU64,
}

impl DiskStore {
    /// Opens (creating if necessary) a store under `dir`.
    ///
    /// # Errors
    ///
    /// Fails only if the version directory cannot be created — entries
    /// themselves are handled best-effort afterwards.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        let root = dir.join(format!("v{FORMAT_VERSION}"));
        fs::create_dir_all(&root)?;
        Ok(DiskStore {
            root,
            dir,
            tmp_seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        })
    }

    /// Directory holding current-format entries.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, key: CacheKey) -> PathBuf {
        self.root
            .join(format!("{:016x}-{:016x}.{ENTRY_EXT}", key.aig, key.setup))
    }

    /// [`ResultStore::gc`] with an additional size budget: after keeping
    /// at most `keep_newest` entries, keeps evicting oldest-first until
    /// the remaining entries total at most `max_bytes` (when given).
    /// Stale-format version directories are swept wholesale either way.
    ///
    /// Eviction order is oldest-modified-first in both phases, so a point
    /// that survives the count cap can still fall to the byte cap, never
    /// the other way around.
    pub fn gc_with_budget(&self, keep_newest: usize, max_bytes: Option<u64>) -> GcSummary {
        let mut summary = GcSummary::default();

        // Sweep stale-format version directories wholesale.
        if let Ok(rd) = fs::read_dir(&self.dir) {
            for entry in rd.flatten() {
                let path = entry.path();
                if !path.is_dir() || path == self.root {
                    continue;
                }
                let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                    continue;
                };
                let Some(version) = name.strip_prefix('v') else {
                    continue;
                };
                if version.parse::<u32>().is_err() {
                    continue;
                }
                if let Ok(stale) = fs::read_dir(&path) {
                    summary.removed += stale
                        .flatten()
                        .filter(|e| {
                            e.path().extension().and_then(|x| x.to_str()) == Some(ENTRY_EXT)
                        })
                        .count();
                }
                let _ = fs::remove_dir_all(&path);
            }
        }

        // Oldest-first queue of current-format entries with their sizes.
        let mut entries: Vec<(std::time::SystemTime, u64, PathBuf)> = self
            .entries()
            .into_iter()
            .map(|p| {
                let meta = fs::metadata(&p).ok();
                let mtime = meta
                    .as_ref()
                    .and_then(|m| m.modified().ok())
                    .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                let len = meta.map(|m| m.len()).unwrap_or(0);
                (mtime, len, p)
            })
            .collect();
        entries.sort_by(|a, b| (a.0, &a.2).cmp(&(b.0, &b.2)));
        let mut total_bytes: u64 = entries.iter().map(|(_, len, _)| *len).sum();

        let mut cursor = 0usize;
        let over_budget = |remaining: usize, bytes: u64| {
            remaining > keep_newest || max_bytes.is_some_and(|cap| bytes > cap)
        };
        while cursor < entries.len() && over_budget(entries.len() - cursor, total_bytes) {
            let (_, len, path) = &entries[cursor];
            if fs::remove_file(path).is_ok() {
                summary.removed += 1;
                summary.removed_bytes += len;
            }
            total_bytes -= len;
            cursor += 1;
        }
        summary.remaining = entries.len() - cursor;
        summary.remaining_bytes = total_bytes;

        self.evicted
            .fetch_add(summary.removed as u64, Ordering::Relaxed);
        sfq_obs::counter("store.disk.gc_evicted", summary.removed as u64);
        summary
    }

    /// Current-format entry files, ignoring temp files and debris.
    fn entries(&self) -> Vec<PathBuf> {
        let mut out = Vec::new();
        let Ok(rd) = fs::read_dir(&self.root) else {
            return out;
        };
        for entry in rd.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some(ENTRY_EXT) {
                out.push(path);
            }
        }
        out
    }
}

impl ResultStore for DiskStore {
    fn get(&self, key: CacheKey) -> Option<Arc<FlowResult>> {
        let path = self.entry_path(key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) => {
                if e.kind() != io::ErrorKind::NotFound {
                    self.errors.fetch_add(1, Ordering::Relaxed);
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                sfq_obs::counter("store.disk.misses", 1);
                return None;
            }
        };
        match codec::decode(&bytes) {
            Ok(result) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::new(result))
            }
            Err(_) => {
                // Corrupt or stale entry: count it, drop it, report a miss.
                self.errors.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                sfq_obs::counter("store.codec.decode_errors", 1);
                sfq_obs::counter("store.disk.misses", 1);
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    fn put(&self, key: CacheKey, result: &Arc<FlowResult>) {
        let text = codec::encode(result);
        let tmp = self.root.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let written = fs::write(&tmp, &text).and_then(|()| fs::rename(&tmp, self.entry_path(key)));
        match written {
            Ok(()) => {
                self.puts.fetch_add(1, Ordering::Relaxed);
                sfq_obs::counter("store.disk.puts", 1);
            }
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                let _ = fs::remove_file(&tmp);
            }
        }
    }

    fn contains(&self, key: CacheKey) -> bool {
        self.entry_path(key).is_file()
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            entries: self.entries().len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }

    fn gc(&self, keep_newest: usize) -> usize {
        self.gc_with_budget(keep_newest, None).removed
    }
}
