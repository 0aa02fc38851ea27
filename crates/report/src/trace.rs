//! Chrome trace-event JSON export for profiled span trees.
//!
//! Renders `SpanRow` data (see [`crate::flame`]) into the Trace Event
//! Format consumed by `chrome://tracing` and Perfetto: complete events
//! (`"ph":"X"`) for spans, instant events (`"ph":"i"`) for marks, and
//! metadata events naming processes and threads.  Timestamps are in
//! microseconds; callers pass a `scale` converting their raw stamp unit
//! into µs (`1.0` for a cycle-domain trace viewed as 1 cycle = 1 µs,
//! `1e-3` for nanosecond stamps).

use crate::flame::SpanRow;
use crate::json::Json;

/// One named track (process/thread pair) of spans and marks.
#[derive(Debug, Clone, Default)]
pub struct TraceTrack {
    /// Process id (groups tracks in the viewer).
    pub pid: u64,
    /// Thread id (one row in the viewer).
    pub tid: u64,
    /// Human name shown on the track.
    pub name: String,
    /// Spans as `(label, start, end, parent)` rows.
    pub spans: Vec<SpanRow>,
    /// Instant marks as `(label, stamp)` pairs.
    pub marks: Vec<(String, u64)>,
    /// Multiplier from raw stamps to microseconds.
    pub scale: f64,
}

/// Render tracks into a Trace Event Format document
/// (`{"traceEvents": [...]}`).
pub fn chrome_trace(tracks: &[TraceTrack]) -> Json {
    let mut events = Vec::new();
    for track in tracks {
        events.push(Json::obj(vec![
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::int(track.pid as i64)),
            ("tid", Json::int(track.tid as i64)),
            (
                "args",
                Json::obj(vec![("name", Json::str(track.name.clone()))]),
            ),
        ]));
        for (label, start, end, _) in &track.spans {
            events.push(Json::obj(vec![
                ("name", Json::str(label.clone())),
                ("cat", Json::str("span")),
                ("ph", Json::str("X")),
                ("ts", Json::Num(*start as f64 * track.scale)),
                ("dur", Json::Num((end - start) as f64 * track.scale)),
                ("pid", Json::int(track.pid as i64)),
                ("tid", Json::int(track.tid as i64)),
            ]));
        }
        for (label, stamp) in &track.marks {
            events.push(Json::obj(vec![
                ("name", Json::str(label.clone())),
                ("cat", Json::str("mark")),
                ("ph", Json::str("i")),
                ("s", Json::str("t")),
                ("ts", Json::Num(*stamp as f64 * track.scale)),
                ("pid", Json::int(track.pid as i64)),
                ("tid", Json::int(track.tid as i64)),
            ]));
        }
    }
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn track() -> TraceTrack {
        TraceTrack {
            pid: 1,
            tid: 7,
            name: "machine".to_owned(),
            spans: vec![
                ("run".to_owned(), 0, 100, None),
                ("slice".to_owned(), 0, 100, Some(0)),
            ],
            marks: vec![("delivery".to_owned(), 40)],
            scale: 1.0,
        }
    }

    #[test]
    fn emits_metadata_complete_and_instant_events() {
        let text = chrome_trace(&[track()]).emit();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.contains("\"thread_name\""));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"dur\":100"));
        assert!(text.contains("\"ph\":\"i\""));
        assert!(text.contains("\"ts\":40"));
    }

    #[test]
    fn scale_converts_raw_stamps_to_microseconds() {
        let mut t = track();
        t.scale = 1e-3; // nanosecond stamps
        let text = chrome_trace(&[t]).emit();
        assert!(text.contains("\"dur\":0.1"), "text: {text}");
        assert!(text.contains("\"ts\":0.04"), "text: {text}");
    }

    #[test]
    fn empty_track_list_is_still_a_valid_document() {
        assert_eq!(
            chrome_trace(&[]).emit(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
        );
    }
}
