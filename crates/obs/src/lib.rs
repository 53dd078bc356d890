//! Zero-dependency tracing and metrics for the sfq-t1 stack.
//!
//! The crate owns one process-global recorder. It is **strictly opt-in**:
//! until [`enable`] is called, every instrumentation point — [`span`],
//! [`counter`], [`gauge`] — costs exactly one relaxed atomic load and
//! allocates nothing (dynamic span labels are closures that are never
//! evaluated while disabled). Instrumented code therefore never branches
//! on "are we tracing?" itself and never changes behaviour based on it.
//!
//! What the recorder collects:
//!
//! - **Spans** — hierarchical wall-time intervals with per-thread depth,
//!   opened by [`span`]/[`span_labeled`]/[`span_owned`] and closed by the
//!   RAII guard's `Drop` (so unwinding a panic still closes them), or
//!   emitted whole via [`emit_span`] for intervals whose start predates
//!   the observing thread. Timestamps are monotonic micros relative to
//!   the instant [`enable`] was called.
//! - **Counters** — named monotonically-accumulated `u64` values, merged
//!   across threads under one lock.
//! - **Gauges** — named last-write-wins `i64` values.
//! - **Histograms** — fixed-bucket log-scale [`Histogram`]s of `u64`
//!   samples. Every span close automatically records its duration under
//!   the span's name (and, when the [`alloc`] wrapper is counting, its
//!   allocation delta under `{name}.bytes`), so rollups carry
//!   p50/p90/p99/max, not just mean. Merging is element-wise and
//!   lossless, like counters.
//!
//! [`take`] drains everything into a [`Trace`], which renders to the two
//! sinks: [`Trace::chrome_json`] (the Chrome trace-event format, loadable
//! in `chrome://tracing` or Perfetto) and [`Trace::summary`] (a human
//! table of span rollups and counters, the `--stats` view). [`Trace`]
//! also exposes [`Trace::rollups`] for programmatic consumers such as
//! the `BENCH_*.json` perf-trajectory reports.
//!
//! The sibling [`json`] module is a minimal JSON parser used by tests
//! and CLI validators to check emitted files without external crates.
//! The [`alloc`] module is an opt-in counting `#[global_allocator]`
//! wrapper that follows the same enable path as the recorder.

pub mod alloc;
pub mod hist;
pub mod json;

pub use hist::Histogram;

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span: a named interval on one thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name; static for fixed instrument points, owned for dynamic
    /// ones (e.g. `opt:rewrite`).
    pub name: Cow<'static, str>,
    /// Optional free-form label (job name, benchmark, …).
    pub label: Option<String>,
    /// Recorder-assigned thread id (small, stable per thread).
    pub tid: u64,
    /// Start, micros since [`enable`].
    pub start_us: u64,
    /// Duration in micros.
    pub dur_us: u64,
    /// Nesting depth on its thread at open time (0 = top level).
    pub depth: u32,
    /// Bytes this span's thread allocated while the span was open. Zero
    /// unless the [`alloc`] wrapper is installed and counting.
    pub alloc_bytes: u64,
}

struct Recorder {
    enabled: AtomicBool,
    /// Spans currently open across all threads; zero when balanced.
    open: AtomicI64,
    epoch: Mutex<Option<Instant>>,
    events: Mutex<Vec<SpanEvent>>,
    counters: Mutex<BTreeMap<Cow<'static, str>, u64>>,
    gauges: Mutex<BTreeMap<Cow<'static, str>, i64>>,
    histograms: Mutex<BTreeMap<Cow<'static, str>, Histogram>>,
}

static RECORDER: Recorder = Recorder {
    enabled: AtomicBool::new(false),
    open: AtomicI64::new(0),
    epoch: Mutex::new(None),
    events: Mutex::new(Vec::new()),
    counters: Mutex::new(BTreeMap::new()),
    gauges: Mutex::new(BTreeMap::new()),
    histograms: Mutex::new(BTreeMap::new()),
};

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // The recorder never panics while holding a lock; recover anyway so
    // observation can't take the observed program down.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Clears all recorded data and starts recording. Timestamps from here
/// on are micros relative to this call.
pub fn enable() {
    *lock(&RECORDER.epoch) = Some(Instant::now());
    lock(&RECORDER.events).clear();
    lock(&RECORDER.counters).clear();
    lock(&RECORDER.gauges).clear();
    lock(&RECORDER.histograms).clear();
    alloc::reset();
    RECORDER.open.store(0, Ordering::Relaxed);
    RECORDER.enabled.store(true, Ordering::Relaxed);
}

/// Stops recording. Already-collected data stays until [`take`] or the
/// next [`enable`]. Spans opened before `disable` still close normally.
pub fn disable() {
    RECORDER.enabled.store(false, Ordering::Relaxed);
}

/// Whether the recorder is currently collecting.
pub fn is_enabled() -> bool {
    RECORDER.enabled.load(Ordering::Relaxed)
}

/// Micros elapsed since [`enable`], or `None` while disabled.
pub fn now_us() -> Option<u64> {
    if !is_enabled() {
        return None;
    }
    let epoch = (*lock(&RECORDER.epoch))?;
    Some(epoch.elapsed().as_micros() as u64)
}

/// Number of spans currently open (begin without end). Zero whenever
/// instrumented code is quiescent — the balance invariant tests assert.
pub fn open_spans() -> i64 {
    RECORDER.open.load(Ordering::Relaxed)
}

/// RAII span guard: records a [`SpanEvent`] when dropped. Obtained from
/// [`span`], [`span_labeled`] or [`span_owned`]; a guard created while
/// the recorder is disabled is inert.
#[must_use = "a span measures the scope that holds it"]
pub struct Span {
    rec: Option<OpenSpan>,
}

struct OpenSpan {
    name: Cow<'static, str>,
    label: Option<String>,
    tid: u64,
    start_us: u64,
    depth: u32,
    /// Thread-allocated bytes at open time; the close delta is the
    /// span's allocation volume (exact: the tally is per-thread).
    alloc_at_open: u64,
}

fn open(name: Cow<'static, str>, label: Option<String>) -> Span {
    let Some(start_us) = now_us() else {
        return Span { rec: None };
    };
    let tid = TID.with(|t| *t);
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    RECORDER.open.fetch_add(1, Ordering::Relaxed);
    Span {
        rec: Some(OpenSpan {
            name,
            label,
            tid,
            start_us,
            depth,
            alloc_at_open: alloc::thread_allocated(),
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.rec.take() else {
            return;
        };
        // Close even if the recorder was disabled mid-span, so the
        // open-span balance always returns to zero.
        let end_us = lock(&RECORDER.epoch)
            .map(|e| e.elapsed().as_micros() as u64)
            .unwrap_or(open.start_us);
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        RECORDER.open.fetch_sub(1, Ordering::Relaxed);
        let dur_us = end_us.saturating_sub(open.start_us);
        let alloc_bytes = alloc::thread_allocated().saturating_sub(open.alloc_at_open);
        record_hist(open.name.clone(), dur_us);
        if alloc::is_tracking() {
            record_hist(Cow::Owned(format!("{}.bytes", open.name)), alloc_bytes);
        }
        lock(&RECORDER.events).push(SpanEvent {
            name: open.name,
            label: open.label,
            tid: open.tid,
            start_us: open.start_us,
            dur_us,
            depth: open.depth,
            alloc_bytes,
        });
    }
}

/// Opens a span with a static name. Disabled cost: one atomic load.
pub fn span(name: &'static str) -> Span {
    if !is_enabled() {
        return Span { rec: None };
    }
    open(Cow::Borrowed(name), None)
}

/// Opens a span with a static name and a lazily-built label. The closure
/// runs only while recording, so the disabled path allocates nothing.
pub fn span_labeled(name: &'static str, label: impl FnOnce() -> String) -> Span {
    if !is_enabled() {
        return Span { rec: None };
    }
    open(Cow::Borrowed(name), Some(label()))
}

/// Opens a span whose name itself is built lazily (e.g. `opt:{pass}`).
pub fn span_owned(name: impl FnOnce() -> String) -> Span {
    if !is_enabled() {
        return Span { rec: None };
    }
    open(Cow::Owned(name()), None)
}

/// Records an already-measured interval, for spans whose start predates
/// the recording thread (e.g. queue wait measured from run start).
/// `start_us`/`end_us` are values previously obtained from [`now_us`].
pub fn emit_span(name: &'static str, start_us: u64, end_us: u64, label: impl FnOnce() -> String) {
    if !is_enabled() {
        return;
    }
    let tid = TID.with(|t| *t);
    let depth = DEPTH.with(|d| d.get());
    let dur_us = end_us.saturating_sub(start_us);
    record_hist(Cow::Borrowed(name), dur_us);
    lock(&RECORDER.events).push(SpanEvent {
        name: Cow::Borrowed(name),
        label: Some(label()),
        tid,
        start_us,
        dur_us,
        depth,
        alloc_bytes: 0,
    });
}

/// Adds `delta` to the named counter. Disabled cost: one atomic load.
pub fn counter(name: &'static str, delta: u64) {
    if !is_enabled() || delta == 0 {
        return;
    }
    *lock(&RECORDER.counters)
        .entry(Cow::Borrowed(name))
        .or_insert(0) += delta;
}

/// Sets the named gauge to `value` (last write wins).
pub fn gauge(name: &'static str, value: i64) {
    if !is_enabled() {
        return;
    }
    lock(&RECORDER.gauges).insert(Cow::Borrowed(name), value);
}

fn record_hist(name: Cow<'static, str>, value: u64) {
    lock(&RECORDER.histograms)
        .entry(name)
        .or_default()
        .record(value);
}

/// Snapshot of one histogram without draining it — for live status
/// lines (e.g. serve `stats`) that must not disturb the recording.
pub fn histogram(name: &str) -> Option<Histogram> {
    lock(&RECORDER.histograms).get(name).cloned()
}

/// Drops the recorded span events while keeping counters, gauges and
/// histograms accumulating. Long-running processes (serve mode) call
/// this after each flush so recorder memory stays bounded: per-event
/// storage is cleared, per-name aggregates keep their full history.
pub fn discard_events() {
    lock(&RECORDER.events).clear();
}

/// Drains everything recorded so far into a [`Trace`]. Recording state
/// (enabled/disabled, epoch) is left unchanged, so a long-running
/// process can take periodic snapshots.
pub fn take() -> Trace {
    let mut events = std::mem::take(&mut *lock(&RECORDER.events));
    // Drop order is completion order; present start order for readers.
    events.sort_by(|a, b| {
        (a.start_us, a.tid, std::cmp::Reverse(a.dur_us)).cmp(&(
            b.start_us,
            b.tid,
            std::cmp::Reverse(b.dur_us),
        ))
    });
    let counters = std::mem::take(&mut *lock(&RECORDER.counters))
        .into_iter()
        .map(|(k, v)| (k.into_owned(), v))
        .collect();
    let gauges = std::mem::take(&mut *lock(&RECORDER.gauges))
        .into_iter()
        .map(|(k, v)| (k.into_owned(), v))
        .collect();
    let histograms = std::mem::take(&mut *lock(&RECORDER.histograms))
        .into_iter()
        .map(|(k, v)| (k.into_owned(), v))
        .collect();
    Trace {
        events,
        counters,
        gauges,
        histograms,
    }
}

/// A drained recording: closed spans plus final counter/gauge values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Closed spans, sorted by start time then thread.
    pub events: Vec<SpanEvent>,
    /// Final counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Final gauge values, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histograms, sorted by name. Span names hold duration micros;
    /// `{span}.bytes` hold per-span allocation deltas.
    pub histograms: Vec<(String, Histogram)>,
}

/// Per-span-name aggregate used by the summary sink and bench reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rollup {
    /// Span name.
    pub name: String,
    /// Number of closed spans with this name.
    pub count: usize,
    /// Sum of their durations, micros.
    pub total_us: u64,
}

impl Trace {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Aggregates spans by name, sorted by name for determinism.
    pub fn rollups(&self) -> Vec<Rollup> {
        let mut by_name: BTreeMap<&str, (usize, u64)> = BTreeMap::new();
        for e in &self.events {
            let slot = by_name.entry(&e.name).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += e.dur_us;
        }
        by_name
            .into_iter()
            .map(|(name, (count, total_us))| Rollup {
                name: name.to_string(),
                count,
                total_us,
            })
            .collect()
    }

    /// Renders the Chrome trace-event format: an object whose
    /// `traceEvents` array holds one complete (`"ph":"X"`) event per
    /// span and one counter (`"ph":"C"`) sample per counter. Open the
    /// file in `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut push = |s: String, out: &mut String| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str(&s);
            out.push('\n');
        };
        for e in &self.events {
            let mut ev = format!(
                "{{\"name\":\"{}\",\"cat\":\"sfq\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}",
                escape_json(&e.name),
                e.tid,
                e.start_us,
                e.dur_us
            );
            let alloc = if e.alloc_bytes > 0 {
                format!(",\"alloc_bytes\":{}", e.alloc_bytes)
            } else {
                String::new()
            };
            match &e.label {
                Some(label) => {
                    ev.push_str(&format!(
                        ",\"args\":{{\"label\":\"{}\",\"depth\":{}{}}}}}",
                        escape_json(label),
                        e.depth,
                        alloc
                    ));
                }
                None => ev.push_str(&format!(",\"args\":{{\"depth\":{}{}}}}}", e.depth, alloc)),
            }
            push(ev, &mut out);
        }
        let end_ts = self
            .events
            .iter()
            .map(|e| e.start_us + e.dur_us)
            .max()
            .unwrap_or(0);
        for (name, value) in &self.counters {
            push(
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"sfq\",\"ph\":\"C\",\"pid\":1,\"ts\":{},\"args\":{{\"value\":{}}}}}",
                    escape_json(name),
                    end_ts,
                    value
                ),
                &mut out,
            );
        }
        for (name, value) in &self.gauges {
            push(
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"sfq\",\"ph\":\"C\",\"pid\":1,\"ts\":{},\"args\":{{\"value\":{}}}}}",
                    escape_json(name),
                    end_ts,
                    value
                ),
                &mut out,
            );
        }
        // One counter sample per histogram: a `hist:*` track carrying the
        // percentile summary, viewable alongside the span timeline.
        for (name, h) in &self.histograms {
            push(
                format!(
                    "{{\"name\":\"hist:{}\",\"cat\":\"sfq\",\"ph\":\"C\",\"pid\":1,\"ts\":{},\
                     \"args\":{{\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}}}",
                    escape_json(name),
                    end_ts,
                    h.percentile(50),
                    h.percentile(90),
                    h.percentile(99),
                    h.max()
                ),
                &mut out,
            );
        }
        out.push_str("]}\n");
        out
    }

    /// Renders the human summary: span rollups (count, total, mean and —
    /// when histograms were recorded — p50/p99/max plus the peak per-span
    /// allocation) sorted by total time, then counters and gauges, then
    /// histograms that belong to no span. This is the `--stats` sink.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let mut rollups = self.rollups();
        rollups.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));
        let mut span_hist_names = std::collections::BTreeSet::new();
        if !rollups.is_empty() {
            out.push_str(&format!(
                "{:<28} {:>7} {:>12} {:>10} {:>10} {:>10} {:>10} {:>12}\n",
                "span", "count", "total µs", "mean µs", "p50 µs", "p99 µs", "max µs", "peak B"
            ));
            for r in &rollups {
                let bytes_name = format!("{}.bytes", r.name);
                let dur = self.histogram(&r.name);
                let bytes = self.histogram(&bytes_name);
                span_hist_names.insert(r.name.clone());
                span_hist_names.insert(bytes_name);
                let pct = |p| dur.map_or("-".to_string(), |h| h.percentile(p).to_string());
                out.push_str(&format!(
                    "  {:<26} {:>7} {:>12} {:>10} {:>10} {:>10} {:>10} {:>12}\n",
                    r.name,
                    r.count,
                    r.total_us,
                    r.total_us / r.count.max(1) as u64,
                    pct(50),
                    pct(99),
                    dur.map_or("-".to_string(), |h| h.max().to_string()),
                    bytes.map_or("-".to_string(), |h| h.max().to_string()),
                ));
            }
        }
        if !self.counters.is_empty() || !self.gauges.is_empty() {
            out.push_str(&format!("{:<28} {:>12}\n", "counter", "value"));
            for (name, value) in &self.counters {
                out.push_str(&format!("  {:<26} {:>12}\n", name, value));
            }
            for (name, value) in &self.gauges {
                out.push_str(&format!("  {:<26} {:>12}\n", name, value));
            }
        }
        let extra: Vec<_> = self
            .histograms
            .iter()
            .filter(|(n, _)| !span_hist_names.contains(n))
            .collect();
        if !extra.is_empty() {
            out.push_str(&format!(
                "{:<28} {:>7} {:>10} {:>10} {:>10}\n",
                "histogram", "count", "p50", "p99", "max"
            ));
            for (name, h) in extra {
                out.push_str(&format!(
                    "  {:<26} {:>7} {:>10} {:>10} {:>10}\n",
                    name,
                    h.count(),
                    h.percentile(50),
                    h.percentile(99),
                    h.max()
                ));
            }
        }
        out
    }
}

/// Escapes `s` for inclusion inside a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// Compile-time audit: guards may cross threads with the data they wrap.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Span>();
    assert_send_sync::<Trace>();
};
