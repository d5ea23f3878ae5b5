//! Chrome trace-event JSON export (the `chrome://tracing` / Perfetto
//! "JSON trace" format): one complete (`"ph":"X"`) event per recorded
//! span, timestamps in microseconds with nanosecond fractions.
//!
//! Rendered with the crate's [`json`](crate::json) writer — the
//! workspace has no serialization dependency. The output loads directly in
//! <https://ui.perfetto.dev> (or `chrome://tracing`): one track per
//! recorded thread, span labels as slice names, the `u64` argument under
//! `args.arg`.

use crate::json::{self, JsonWriter};
use crate::TraceEvent;

/// Serializes `events` (as returned by [`crate::dump`]) into a
/// self-contained Chrome trace-event JSON document.
///
/// Layout: a `thread_name` metadata record per distinct ring (so
/// Perfetto names the tracks) followed by one `X` (complete) event per
/// span. All events carry `pid` 1; `tid` is the ring id.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut threads: Vec<u64> = events.iter().map(|e| e.thread).collect();
    threads.sort_unstable();
    threads.dedup();

    json::object(|w| {
        w.key("displayTimeUnit").str("ns");
        w.key("traceEvents").array(|w| {
            for tid in threads {
                w.object(|w| {
                    event_head(w, "thread_name", "M", tid);
                    w.key("args").object(|w| w.key("name").str(&format!("ring-{tid}")));
                });
            }
            for e in events {
                w.object(|w| {
                    event_head(w, e.label, "X", e.thread);
                    w.key("ts").raw(micros(e.start_ns));
                    w.key("dur").raw(micros(e.dur_ns));
                    w.key("args").object(|w| w.key("arg").raw(e.arg));
                });
            }
        });
    })
}

/// The members every trace event starts with.
fn event_head(w: &mut JsonWriter, name: &str, phase: &str, tid: u64) {
    w.key("name").str(name);
    w.key("ph").str(phase);
    w.key("pid").raw(1);
    w.key("tid").raw(tid);
}

/// Nanoseconds as a microsecond number with a 3-digit fraction.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(label: &'static str, thread: u64, start_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent { label, arg: 7, start_ns, dur_ns, thread }
    }

    #[test]
    fn exports_complete_events_with_us_timestamps() {
        let json = chrome_trace_json(&[ev("qnet.conv", 0, 1_234_567, 890), ev("b", 2, 5, 0)]);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        // 1_234_567 ns = 1234.567 µs; 890 ns = 0.890 µs.
        assert!(json.contains("\"name\":\"qnet.conv\""), "{json}");
        assert!(json.contains("\"ts\":1234.567"), "{json}");
        assert!(json.contains("\"dur\":0.890"), "{json}");
        assert!(json.contains("\"args\":{\"arg\":7}"), "{json}");
        // Track metadata for both rings.
        assert!(json.contains("\"name\":\"ring-0\"") && json.contains("\"name\":\"ring-2\""));
        // The whole document, byte for byte.
        assert_eq!(
            json,
            concat!(
                r#"{"displayTimeUnit":"ns","traceEvents":["#,
                r#"{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"ring-0"}},"#,
                r#"{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"ring-2"}},"#,
                r#"{"name":"qnet.conv","ph":"X","pid":1,"tid":0,"ts":1234.567,"dur":0.890,"#,
                r#""args":{"arg":7}},"#,
                r#"{"name":"b","ph":"X","pid":1,"tid":2,"ts":0.005,"dur":0.000,"args":{"arg":7}}]}"#,
            )
        );
    }

    #[test]
    fn empty_dump_is_a_valid_trace() {
        assert_eq!(chrome_trace_json(&[]), "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}");
    }

    #[test]
    fn escapes_hostile_labels() {
        let json = chrome_trace_json(&[ev("a\"b\\c\nd", 0, 0, 0)]);
        assert!(json.contains("\"name\":\"a\\\"b\\\\c\\u000ad\""), "{json}");
    }
}
