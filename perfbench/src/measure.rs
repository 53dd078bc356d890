//! Measurement helpers: seeded inputs, order statistics, the OS memory
//! high-water mark, the run's work directory and the JSON result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Bytes per MiB, the unit of every `*_mb` metric.
pub const MB: f64 = 1024.0 * 1024.0;

/// SplitMix64: the benchmark's only source of generated inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `n` 64-pattern simulation words.
    pub fn words(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_u64()).collect()
    }

    /// `n` single-pattern input bits.
    pub fn bools(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.next_u64() & 1 == 1).collect()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Median (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `p` in (0, 100].
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "percentile of nothing");
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Geometric mean of positive ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of nothing");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f`, returning its value, wall time in ms and the bytes this
/// thread allocated meanwhile (non-zero only while the recorder is on).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, u64) {
    let alloc0 = sfq_obs::alloc::thread_allocated();
    let t0 = Instant::now();
    let out = f();
    let elapsed = ms(t0.elapsed());
    (
        out,
        elapsed,
        sfq_obs::alloc::thread_allocated().saturating_sub(alloc0),
    )
}

/// Job durations of a run's passes, keyed by job id, plus the part of
/// each pass no job covers.
///
/// The host alternates, for seconds at a time, between a fast phase and
/// one about 1.6× slower (a fixed CPU loop shows the same levels), so a
/// median over passes measures which phase a run landed in. Each job's
/// best duration over the run measures the program instead: every sample
/// counts at its job's best duration.
#[derive(Debug, Default)]
pub struct JobTimes {
    /// `(job id, ms)` per pass.
    passes: Vec<Vec<(usize, f64)>>,
    /// Pass wall time not covered by a job, per pass.
    rest: Vec<f64>,
}

impl JobTimes {
    /// Records one pass: its `(job id, duration)` samples and its wall
    /// time, in ms.
    pub fn push(&mut self, jobs: Vec<(usize, f64)>, pass_ms: f64) {
        self.rest
            .push(pass_ms - jobs.iter().map(|(_, t)| t).sum::<f64>());
        self.passes.push(jobs);
    }

    pub fn passes(&self) -> usize {
        self.passes.len()
    }

    /// Sets `jobs_per_s` (samples over their summed best durations plus
    /// each pass's best uncovered remainder) and the median and 90th
    /// percentile of the samples at their best durations.
    pub fn report(&self, m: &mut Metrics) {
        let mut best: BTreeMap<usize, f64> = BTreeMap::new();
        for &(id, t) in self.passes.iter().flatten() {
            let b = best.entry(id).or_insert(t);
            *b = b.min(t);
        }
        let samples: Vec<f64> = self
            .passes
            .iter()
            .flatten()
            .map(|(id, _)| best[id])
            .collect();
        let rest = self
            .rest
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .max(0.0);
        let total_ms = samples.iter().sum::<f64>() + rest * self.passes.len() as f64;
        m.set("jobs_per_s", samples.len() as f64 / (total_ms / 1e3));
        m.set("job_p50_ms", percentile(&samples, 50.0));
        m.set("job_p90_ms", percentile(&samples, 90.0));
    }

    /// One line for standard error: passes, samples and the pass times.
    pub fn summary(&self, workload: &str) -> String {
        let pass_ms: Vec<f64> = self
            .passes
            .iter()
            .zip(&self.rest)
            .map(|(p, r)| p.iter().map(|(_, t)| t).sum::<f64>() + r)
            .collect();
        format!(
            "{workload}: {} passes, {} job samples; pass ms min {:.1} median {:.1} max {:.1}",
            self.passes.len(),
            self.passes.iter().map(Vec::len).sum::<usize>(),
            pass_ms.iter().copied().fold(f64::INFINITY, f64::min),
            median(&pass_ms),
            pass_ms.iter().copied().fold(0.0, f64::max),
        )
    }
}

/// Set-up times of a run. Workloads repeat their set-up before the
/// window and again between passes, so the median samples the host's
/// fast and slow phases alike instead of the one the run started in.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Runs one set-up and records its wall time.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = setup();
        self.0.push(t0.elapsed().as_secs_f64());
        out
    }

    /// Set-ups recorded so far.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Median set-up time in seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.0)
    }
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB, as the
/// OS counts it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size in bytes of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The run's scratch directory, `.bench_work/<pid>` under the current
/// directory; removed with everything in it when dropped.
pub struct WorkDir {
    root: PathBuf,
    seq: std::cell::Cell<u32>,
}

impl WorkDir {
    pub fn create() -> std::io::Result<Self> {
        let root = PathBuf::from(".bench_work").join(std::process::id().to_string());
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir {
            root,
            seq: std::cell::Cell::new(0),
        })
    }

    /// A fresh, not yet existing path inside the work directory.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.seq.get();
        self.seq.set(n + 1);
        self.root.join(format!("{tag}-{n}"))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leaves `.bench_work` itself only if another run still uses it.
        let _ = self.root.parent().map(std::fs::remove_dir);
    }
}

/// Named metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Reduces the traced run's rounds to per-metric medians, then sets
    /// the tracing overhead: traced minus untraced pass time.
    pub fn from_rounds(rounds: &[Metrics]) -> Metrics {
        let mut out = Metrics::default();
        for &name in rounds.iter().flat_map(|r| r.0.keys()) {
            if !out.0.contains_key(name) {
                let values: Vec<f64> = rounds.iter().map(|r| r.get(name)).collect();
                out.set(name, median(&values));
            }
        }
        out.set(
            "trace.overhead_ms",
            out.get("trace.traced_pass_ms") - out.get("trace.untraced_pass_ms"),
        );
        out
    }

    /// The result line: every metric of `table` (absent ones read 0).
    pub fn render(
        &self,
        table: &[(&str, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = self.get(name);
            let v = if v.is_finite() { v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}
