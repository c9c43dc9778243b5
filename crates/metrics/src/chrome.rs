//! Chrome `trace_event` JSON writer.
//!
//! Builds files loadable in `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev): the object-format variant
//! (`{"traceEvents": [...]}`) of the Trace Event Format. The builder is
//! deliberately dumb — callers append typed events (instants, async spans,
//! flow arrows, metadata), each is written as JSON the moment it is
//! appended, and every event carries the mandatory `ph`, `ts`, `pid` and
//! `tid` fields. Timestamps are in microseconds, per the format;
//! `regnet-netsim` converts simulator cycles with `cycle * CYCLE_NS / 1000`.
//!
//! Output is deterministic: events are written in append order and
//! timestamps are fixed-precision, so golden-file tests can compare the
//! whole document byte for byte.

use std::fmt::{self, Write as _};

/// One typed argument attached to an event (rendered under `"args"`).
#[derive(Clone, Copy)]
pub enum Arg<'a> {
    Int(u64),
    Str(&'a str),
    /// Rendered as a JSON string of its `Debug` form.
    Debug(&'a dyn fmt::Debug),
}

/// Builder for one trace file: the events appended so far, already
/// written as `traceEvents` entries.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    body: String,
    len: usize,
}

impl ChromeTrace {
    pub fn new() -> ChromeTrace {
        ChromeTrace::default()
    }

    /// Number of events appended so far (metadata included).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Name a process track (Perfetto group header).
    pub fn process_name(&mut self, pid: u32, name: &str) {
        let args = [("name", Arg::Str(name))];
        self.push("process_name", "__metadata", 'M', 0.0, pid, 0, None, &args);
    }

    /// Name a thread track within a process.
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        let args = [("name", Arg::Str(name))];
        self.push("thread_name", "__metadata", 'M', 0.0, pid, tid, None, &args);
    }

    /// A zero-duration marker on one track.
    pub fn instant(
        &mut self,
        name: &str,
        cat: &str,
        ts_us: f64,
        pid: u32,
        tid: u32,
        args: &[(&str, Arg)],
    ) {
        self.push(name, cat, 'i', ts_us, pid, tid, None, args);
    }

    /// Open an async span (`ph: "b"`), correlated by `(cat, id)`.
    pub fn async_begin(
        &mut self,
        name: &str,
        cat: &str,
        id: u64,
        ts_us: f64,
        pid: u32,
        args: &[(&str, Arg)],
    ) {
        self.push(name, cat, 'b', ts_us, pid, 0, Some(id), args);
    }

    /// Close an async span opened with the same `(cat, id)`.
    pub fn async_end(&mut self, name: &str, cat: &str, id: u64, ts_us: f64, pid: u32) {
        self.push(name, cat, 'e', ts_us, pid, 0, Some(id), &[]);
    }

    /// Start a flow arrow (`ph: "s"`) at a point on a track.
    pub fn flow_start(&mut self, name: &str, cat: &str, id: u64, ts_us: f64, pid: u32, tid: u32) {
        self.push(name, cat, 's', ts_us, pid, tid, Some(id), &[]);
    }

    /// An intermediate flow point (`ph: "t"`) — e.g. one ITB hop.
    pub fn flow_step(&mut self, name: &str, cat: &str, id: u64, ts_us: f64, pid: u32, tid: u32) {
        self.push(name, cat, 't', ts_us, pid, tid, Some(id), &[]);
    }

    /// Terminate a flow arrow (`ph: "f"`).
    pub fn flow_end(&mut self, name: &str, cat: &str, id: u64, ts_us: f64, pid: u32, tid: u32) {
        self.push(name, cat, 'f', ts_us, pid, tid, Some(id), &[]);
    }

    /// Write one event. `ph` is the trace-event phase: `i` instant,
    /// `b`/`e` async begin/end, `s`/`t`/`f` flow start/step/end, `M`
    /// metadata; `id` correlates async spans and flows.
    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        name: &str,
        cat: &str,
        ph: char,
        ts_us: f64,
        pid: u32,
        tid: u32,
        id: Option<u64>,
        args: &[(&str, Arg)],
    ) {
        let out = &mut self.body;
        if self.len > 0 {
            out.push_str(",\n");
        }
        self.len += 1;
        out.push_str("  {\"name\":");
        serde::write_json_string(name, out);
        // Fixed precision keeps the document byte-stable; 3 decimals of
        // a microsecond = nanosecond resolution, finer than one cycle.
        let _ = write!(
            out,
            ",\"cat\":\"{cat}\",\"ph\":\"{ph}\",\"ts\":{ts_us:.3},\"pid\":{pid},\"tid\":{tid}"
        );
        if let Some(id) = id {
            let _ = write!(out, ",\"id\":\"{id:x}\"");
        }
        // Flow arrows bind to the *next* slice on the track by default;
        // `bp:"e"` binds to the enclosing one, which is what the
        // packet-journey tracks want.
        if matches!(ph, 's' | 't' | 'f') {
            out.push_str(",\"bp\":\"e\"");
        }
        if !args.is_empty() {
            out.push_str(",\"args\":{");
            for (j, (k, v)) in args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                serde::write_json_string(k, out);
                out.push(':');
                match v {
                    Arg::Int(i) => {
                        let _ = write!(out, "{i}");
                    }
                    Arg::Str(s) => serde::write_json_string(s, out),
                    Arg::Debug(d) => serde::write_json_string(&format!("{d:?}"), out),
                }
            }
            out.push('}');
        }
        out.push('}');
    }

    /// The trace as object-format `trace_event` JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.body.len() + 48);
        out.push_str("{\"traceEvents\":[\n");
        out.push_str(&self.body);
        out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    fn sample() -> ChromeTrace {
        let mut t = ChromeTrace::new();
        t.process_name(1, "switches");
        t.thread_name(1, 3, "S3");
        t.instant(
            "route",
            "switch",
            12.5,
            1,
            3,
            &[("out_port", Arg::Int(2)), ("pid", Arg::Int(7))],
        );
        t.instant(
            "block",
            "switch",
            12.5,
            1,
            3,
            &[
                ("cause", Arg::Debug(&Some(1))),
                ("note", Arg::Str("a \"b\"")),
            ],
        );
        t.async_begin("pkt 7", "journey", 7, 10.0, 3, &[("src", Arg::Int(0))]);
        t.flow_start("journey", "flow", 7, 10.0, 1, 3);
        t.flow_step("itb", "flow", 7, 14.0, 2, 1);
        t.flow_end("journey", "flow", 7, 20.0, 2, 0);
        t.async_end("pkt 7", "journey", 7, 20.0, 3);
        t
    }

    #[test]
    fn emits_valid_trace_event_json() {
        let trace = sample();
        let text = trace.to_json();
        let doc = JsonValue::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 9);
        assert_eq!(trace.len(), 9);
        for ev in events {
            // The mandatory trace_event fields.
            assert!(ev.get("ph").and_then(|v| v.as_str()).is_some());
            assert!(ev.get("ts").and_then(|v| v.as_f64()).is_some());
            assert!(ev.get("pid").and_then(|v| v.as_f64()).is_some());
            assert!(ev.get("tid").and_then(|v| v.as_f64()).is_some());
        }
        // Flow phases present for the ITB-hop arrows.
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        for ph in ["s", "t", "f", "b", "e", "i", "M"] {
            assert!(phases.contains(&ph), "missing phase {ph}: {phases:?}");
        }
    }

    #[test]
    fn deterministic_output() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn an_empty_trace_is_an_empty_event_list() {
        let t = ChromeTrace::new();
        assert!(t.is_empty());
        assert_eq!(
            t.to_json(),
            "{\"traceEvents\":[\n\n],\"displayTimeUnit\":\"ns\"}\n"
        );
    }

    #[test]
    fn args_and_ids_roundtrip() {
        let text = sample().to_json();
        let doc = JsonValue::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let named = |name: &str| {
            events
                .iter()
                .find(|e| e.get("name").unwrap().as_str() == Some(name))
                .unwrap()
                .get("args")
                .unwrap()
        };
        assert_eq!(named("route").get("out_port").unwrap().as_f64(), Some(2.0));
        let block = named("block");
        assert_eq!(block.get("cause").unwrap().as_str(), Some("Some(1)"));
        assert_eq!(block.get("note").unwrap().as_str(), Some("a \"b\""));
        let flow = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("t"))
            .unwrap();
        assert_eq!(flow.get("id").unwrap().as_str(), Some("7"));
    }
}
