//! The benchmark's own span recorder: one span per call into a layer
//! (a crate), kept in memory and written out when the traced child ends.
//!
//! Spans are recorded from the benchmark's files, around calls to the
//! crates' public functions; nothing inside the simulator is touched. An
//! untraced run holds a disabled recorder, whose `span` is a single branch
//! around the call, so end-to-end timings never pay for tracing.

use std::time::Instant;

use serde::Serialize;

struct Span {
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; pair with [`Recorder::exit`]. For calls whose start and
    /// end arrive as separate callbacks (the campaign runner's events).
    pub fn enter(&mut self, layer: &'static str, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span. The recorder is handed back to `f` so calls
    /// made from inside it nest as child spans.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        self.enter(layer, name);
        let out = f(self);
        self.exit();
        out
    }

    /// Self time of every span: its duration minus the part its children
    /// cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Self time summed per `layer.name`, largest first — the table the
    /// runner prints after a traced run.
    pub fn self_time_by_name(&self) -> Vec<(String, u64, usize)> {
        let own = self.self_ns();
        let mut rows: Vec<(String, u64, usize)> = Vec::new();
        for (s, ns) in self.spans.iter().zip(own) {
            let key = format!("{}.{}", s.layer, s.name);
            match rows.iter_mut().find(|r| r.0 == key) {
                Some(r) => {
                    r.1 += ns;
                    r.2 += 1;
                }
                None => rows.push((key, ns, 1)),
            }
        }
        rows.sort_by_key(|row| std::cmp::Reverse(row.1));
        rows
    }

    /// The whole trace as JSON: every span with its parent and the
    /// workload it belongs to.
    pub fn to_json(&self, workload: &str) -> String {
        let spans = self
            .spans
            .iter()
            .zip(self.self_ns())
            .enumerate()
            .map(|(id, (s, self_ns))| SpanRow {
                id,
                workload: workload.to_string(),
                layer: s.layer,
                name: s.name,
                start: s.start_ns,
                end: s.end_ns,
                parent: s.parent,
                self_ns,
            })
            .collect();
        let trace = TraceFile {
            workload: workload.to_string(),
            unit: "ns",
            spans,
        };
        serde_json::to_string(&trace).expect("spans are plain data")
    }
}

/// One span as the trace file spells it.
#[derive(Serialize)]
struct SpanRow {
    id: usize,
    workload: String,
    layer: &'static str,
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    self_ns: u64,
}

#[derive(Serialize)]
struct TraceFile {
    workload: String,
    unit: &'static str,
    spans: Vec<SpanRow>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut rec = Recorder::new(true);
        rec.span("a", "outer", |rec| {
            rec.span("b", "inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].parent, Some(0));
        let own = rec.self_ns();
        let outer = rec.spans[0].end_ns - rec.spans[0].start_ns;
        let inner = rec.spans[1].end_ns - rec.spans[1].start_ns;
        assert_eq!(own[0], outer - inner);
        assert_eq!(own[1], inner);
        assert!(regnet_metrics::JsonValue::parse(&rec.to_json("w")).is_ok());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("a", "b", |_| 7), 7);
        assert!(rec.spans.is_empty());
    }
}
