//! A unified metrics registry: named counters, gauges and summaries with
//! deterministic ordering, exported as Prometheus text exposition.
//!
//! The registry is a *snapshot* container, not a live concurrent store:
//! producers (the simulator, the campaign runner, the bench harness) build
//! one from their own deterministic state at a well-defined point in the
//! cycle domain, then export it. Families keep insertion order and points
//! keep the order they were added in, so two runs that record the same
//! values produce byte-identical exposition — which is what lets the
//! Prometheus output be golden-tested.

/// The Prometheus type of a metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic event count (`_total` naming convention applies).
    Counter,
    /// Instantaneous value, may go up or down.
    Gauge,
    /// Pre-aggregated distribution: count, sum and a few quantiles.
    Summary,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Summary => "summary",
        }
    }
}

/// The value of one metric point.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Summary {
        count: u64,
        sum: f64,
        /// `(quantile, value)` pairs, e.g. `(0.5, 1200.0)`.
        quantiles: Vec<(f64, f64)>,
    },
}

/// One sample of a family: a label set plus a value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricPoint {
    /// `(key, value)` pairs, rendered in the order given.
    pub labels: Vec<(String, String)>,
    pub value: MetricValue,
}

/// All points sharing a metric name.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricFamily {
    pub name: String,
    pub help: String,
    pub kind: MetricKind,
    pub points: Vec<MetricPoint>,
}

/// Insertion-ordered collection of metric families.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    families: Vec<MetricFamily>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Record a labelless counter sample.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.push(
            name,
            help,
            MetricKind::Counter,
            &[],
            MetricValue::Counter(value),
        );
    }

    /// Record a counter sample with labels.
    pub fn counter_with(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.push(
            name,
            help,
            MetricKind::Counter,
            labels,
            MetricValue::Counter(value),
        );
    }

    /// Record a labelless gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.push(
            name,
            help,
            MetricKind::Gauge,
            &[],
            MetricValue::Gauge(value),
        );
    }

    /// Record a gauge sample with labels.
    pub fn gauge_with(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.push(
            name,
            help,
            MetricKind::Gauge,
            labels,
            MetricValue::Gauge(value),
        );
    }

    /// Record a pre-aggregated summary (count, sum, quantiles).
    pub fn summary(
        &mut self,
        name: &str,
        help: &str,
        count: u64,
        sum: f64,
        quantiles: &[(f64, f64)],
    ) {
        self.push(
            name,
            help,
            MetricKind::Summary,
            &[],
            MetricValue::Summary {
                count,
                sum,
                quantiles: quantiles.to_vec(),
            },
        );
    }

    /// Look a family up by name.
    pub fn get(&self, name: &str) -> Option<&MetricFamily> {
        self.families.iter().find(|f| f.name == name)
    }

    pub fn families(&self) -> &[MetricFamily] {
        &self.families
    }

    pub fn len(&self) -> usize {
        self.families.len()
    }

    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    fn push(
        &mut self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        value: MetricValue,
    ) {
        let point = MetricPoint {
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        };
        if let Some(f) = self.families.iter_mut().find(|f| f.name == name) {
            assert_eq!(
                f.kind, kind,
                "metric {name:?} registered twice with different kinds"
            );
            f.points.push(point);
            return;
        }
        self.families.push(MetricFamily {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            points: vec![point],
        });
    }

    /// Render as Prometheus text exposition (version 0.0.4). Deterministic:
    /// families and points appear in insertion order.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for f in &self.families {
            out.push_str("# HELP ");
            out.push_str(&f.name);
            out.push(' ');
            out.push_str(&escape_help(&f.help));
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(&f.name);
            out.push(' ');
            out.push_str(f.kind.as_str());
            out.push('\n');
            for p in &f.points {
                match &p.value {
                    MetricValue::Counter(v) => {
                        out.push_str(&f.name);
                        render_labels(&mut out, &p.labels, None);
                        out.push(' ');
                        out.push_str(&v.to_string());
                        out.push('\n');
                    }
                    MetricValue::Gauge(v) => {
                        out.push_str(&f.name);
                        render_labels(&mut out, &p.labels, None);
                        out.push(' ');
                        out.push_str(&fmt_f64(*v));
                        out.push('\n');
                    }
                    MetricValue::Summary {
                        count,
                        sum,
                        quantiles,
                    } => {
                        for &(q, v) in quantiles {
                            out.push_str(&f.name);
                            render_labels(&mut out, &p.labels, Some(q));
                            out.push(' ');
                            out.push_str(&fmt_f64(v));
                            out.push('\n');
                        }
                        out.push_str(&f.name);
                        out.push_str("_sum");
                        render_labels(&mut out, &p.labels, None);
                        out.push(' ');
                        out.push_str(&fmt_f64(*sum));
                        out.push('\n');
                        out.push_str(&f.name);
                        out.push_str("_count");
                        render_labels(&mut out, &p.labels, None);
                        out.push(' ');
                        out.push_str(&count.to_string());
                        out.push('\n');
                    }
                }
            }
        }
        out
    }
}

/// Format an `f64` deterministically: integers without a trailing `.0`
/// (stable golden bytes), everything else via Rust's shortest-roundtrip
/// formatting. Non-finite values use the Prometheus spellings.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        return "NaN".to_string();
    }
    if v.is_infinite() {
        return if v > 0.0 { "+Inf" } else { "-Inf" }.to_string();
    }
    if v == v.trunc() && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('"', "\\\"")
}

fn render_labels(out: &mut String, labels: &[(String, String)], quantile: Option<f64>) {
    if labels.is_empty() && quantile.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label(v));
        out.push('"');
    }
    if let Some(q) = quantile {
        if !first {
            out.push(',');
        }
        out.push_str("quantile=\"");
        out.push_str(&fmt_f64(q));
        out.push('"');
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render_in_insertion_order() {
        let mut r = MetricsRegistry::new();
        r.counter("regnet_flits_total", "Flits forwarded", 42);
        r.gauge("regnet_live_packets", "Packets in flight", 7.0);
        r.counter_with(
            "regnet_drops_total",
            "Dropped packets",
            &[("scheme", "itb-sp")],
            3,
        );
        let text = r.to_prometheus();
        let expected = "\
# HELP regnet_flits_total Flits forwarded
# TYPE regnet_flits_total counter
regnet_flits_total 42
# HELP regnet_live_packets Packets in flight
# TYPE regnet_live_packets gauge
regnet_live_packets 7
# HELP regnet_drops_total Dropped packets
# TYPE regnet_drops_total counter
regnet_drops_total{scheme=\"itb-sp\"} 3
";
        assert_eq!(text, expected);
    }

    #[test]
    fn repeated_names_append_points_under_one_family() {
        let mut r = MetricsRegistry::new();
        r.counter_with("x_total", "X", &[("k", "a")], 1);
        r.counter_with("x_total", "X", &[("k", "b")], 2);
        assert_eq!(r.len(), 1);
        let text = r.to_prometheus();
        assert_eq!(text.matches("# TYPE x_total").count(), 1);
        assert!(text.contains("x_total{k=\"a\"} 1\n"));
        assert!(text.contains("x_total{k=\"b\"} 2\n"));
    }

    #[test]
    #[should_panic(expected = "different kinds")]
    fn kind_conflicts_panic() {
        let mut r = MetricsRegistry::new();
        r.counter("x", "X", 1);
        r.gauge("x", "X", 1.0);
    }

    #[test]
    fn summary_renders_quantiles_sum_count() {
        let mut r = MetricsRegistry::new();
        r.summary(
            "lat_ns",
            "Latency",
            10,
            1234.5,
            &[(0.5, 100.0), (0.99, 900.0)],
        );
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE lat_ns summary\n"));
        assert!(text.contains("lat_ns{quantile=\"0.5\"} 100\n"));
        assert!(text.contains("lat_ns{quantile=\"0.99\"} 900\n"));
        assert!(text.contains("lat_ns_sum 1234.5\n"));
        assert!(text.contains("lat_ns_count 10\n"));
    }

    #[test]
    fn float_formatting_is_stable() {
        assert_eq!(fmt_f64(7.0), "7");
        assert_eq!(fmt_f64(-3.0), "-3");
        assert_eq!(fmt_f64(0.1), "0.1");
        assert_eq!(fmt_f64(f64::NAN), "NaN");
        assert_eq!(fmt_f64(f64::INFINITY), "+Inf");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "-Inf");
    }

    #[test]
    fn escaping_help_and_labels() {
        let mut r = MetricsRegistry::new();
        r.gauge_with("g", "line1\nline2 \\ end", &[("p", "a\"b\\c\nd")], 1.0);
        let text = r.to_prometheus();
        assert!(text.contains("# HELP g line1\\nline2 \\\\ end\n"));
        assert!(text.contains("g{p=\"a\\\"b\\\\c\\nd\"} 1\n"));
    }
}
