//! Integration tests of the global recorder. The recorder is
//! process-global state, so every test serializes on one mutex.

use sfq_obs::{json, Trace};
use std::sync::Mutex;

static GLOBAL: Mutex<()> = Mutex::new(());

/// Runs `f` with exclusive ownership of the (freshly enabled) recorder
/// and returns what it recorded, leaving the recorder disabled.
fn recorded(f: impl FnOnce()) -> Trace {
    let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    sfq_obs::enable();
    f();
    let trace = sfq_obs::take();
    sfq_obs::disable();
    trace
}

#[test]
fn spans_balance_including_nesting() {
    let trace = recorded(|| {
        {
            let _outer = sfq_obs::span("outer");
            for _ in 0..3 {
                let _inner = sfq_obs::span("inner");
                sfq_obs::counter("work", 1);
            }
            assert_eq!(sfq_obs::open_spans(), 1, "outer still open");
        }
        // Checked under the lock: once `recorded` returns, another test
        // may already be holding spans open on the shared recorder.
        assert_eq!(sfq_obs::open_spans(), 0, "all spans closed");
    });
    assert_eq!(trace.events.len(), 4);
    let outer = trace.events.iter().find(|e| e.name == "outer").unwrap();
    assert_eq!(outer.depth, 0);
    assert!(trace
        .events
        .iter()
        .filter(|e| e.name == "inner")
        .all(|e| e.depth == 1));
    assert_eq!(trace.counters, vec![("work".to_string(), 3)]);
}

#[test]
fn spans_balance_through_a_panicking_pass() {
    let trace = recorded(|| {
        let caught = std::panic::catch_unwind(|| {
            let _span = sfq_obs::span("doomed-pass");
            panic!("pass blew up");
        });
        assert!(caught.is_err());
        assert_eq!(
            sfq_obs::open_spans(),
            0,
            "unwinding must close the span via Drop"
        );
    });
    let doomed = trace.events.iter().find(|e| e.name == "doomed-pass");
    assert!(doomed.is_some(), "panicked span still recorded");
}

#[test]
fn chrome_trace_json_is_valid_and_faithful() {
    let trace = recorded(|| {
        let _a = sfq_obs::span_labeled("stage", || "job \"q\"\tφ".to_string());
        drop(sfq_obs::span_owned(|| "opt:rewrite".to_string()));
        sfq_obs::counter("store.memory.hits", 4);
        sfq_obs::gauge("store.disk.entries", 17);
    });
    let text = trace.chrome_json();
    let doc = json::parse(&text).expect("chrome trace parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    // 2 spans + 1 counter + 1 gauge + 2 histogram tracks (one per
    // distinct span name, auto-fed on close).
    assert_eq!(events.len(), 6);
    let hist = events
        .iter()
        .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("hist:stage"))
        .expect("span close feeds a hist:stage counter track");
    for key in ["p50", "p90", "p99", "max"] {
        assert!(
            hist.get("args").and_then(|a| a.get(key)).is_some(),
            "hist track carries {key}"
        );
    }
    for e in events {
        assert!(e.get("name").and_then(|v| v.as_str()).is_some());
        assert!(matches!(
            e.get("ph").and_then(|v| v.as_str()),
            Some("X" | "C")
        ));
        assert!(e.get("ts").and_then(|v| v.as_u64()).is_some());
    }
    let labeled = events
        .iter()
        .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("stage"))
        .unwrap();
    assert_eq!(
        labeled
            .get("args")
            .and_then(|a| a.get("label"))
            .and_then(|v| v.as_str()),
        Some("job \"q\"\tφ"),
        "label escaping roundtrips"
    );
    let counter = events
        .iter()
        .find(|e| e.get("name").and_then(|v| v.as_str()) == Some("store.memory.hits"))
        .unwrap();
    assert_eq!(
        counter
            .get("args")
            .and_then(|a| a.get("value"))
            .and_then(|v| v.as_u64()),
        Some(4)
    );
}

#[test]
fn counters_from_two_threads_merge_losslessly() {
    const PER_THREAD: u64 = 10_000;
    let trace = recorded(|| {
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let _span = sfq_obs::span("worker");
                    for _ in 0..PER_THREAD {
                        sfq_obs::counter("shared", 1);
                    }
                });
            }
        });
    });
    assert_eq!(
        trace.counters,
        vec![("shared".to_string(), 2 * PER_THREAD)],
        "no increments lost to racing threads"
    );
    let tids: std::collections::BTreeSet<u64> = trace
        .events
        .iter()
        .filter(|e| e.name == "worker")
        .map(|e| e.tid)
        .collect();
    assert_eq!(tids.len(), 2, "each thread gets its own tid");
}

#[test]
fn disabled_recorder_records_nothing_and_costs_no_state() {
    let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    sfq_obs::disable();
    let _ = sfq_obs::take();
    {
        let _span = sfq_obs::span("ghost");
        let _labeled = sfq_obs::span_labeled("ghost", || unreachable!("label not built"));
        let _named = sfq_obs::span_owned(|| unreachable!("name not built"));
        sfq_obs::counter("ghost", 1);
        sfq_obs::gauge("ghost", 1);
        assert_eq!(sfq_obs::open_spans(), 0);
    }
    assert!(sfq_obs::now_us().is_none());
    assert!(sfq_obs::take().is_empty());
}

#[test]
fn summary_and_rollups_aggregate_by_name() {
    let trace = recorded(|| {
        for _ in 0..2 {
            let _s = sfq_obs::span("flow:map");
        }
        sfq_obs::counter("store.misses", 2);
    });
    let rollups = trace.rollups();
    assert_eq!(rollups.len(), 1);
    assert_eq!(rollups[0].name, "flow:map");
    assert_eq!(rollups[0].count, 2);
    let summary = trace.summary();
    assert!(summary.contains("flow:map"), "{summary}");
    assert!(summary.contains("store.misses"), "{summary}");
}
