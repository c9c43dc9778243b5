//! Measurement and reporting for `regnet` simulations: streaming statistics,
//! latency histograms, latency-vs-throughput curves with saturation
//! detection, the saturation search, and link-utilization summaries.

pub mod chrome;
mod curve;
pub mod export;
pub mod json;
pub mod registry;
mod stats;
pub mod sys;
mod util;

pub use chrome::{Arg as ChromeArg, ChromeTrace};
pub use curve::{
    Curve, CurvePoint, NamedSeries, Saturation, SaturationSearch, TimeSeries, SATURATION_RATIO,
};
pub use export::{curve_to_dat, write_figure, write_time_series};
pub use json::JsonValue;
pub use registry::{MetricFamily, MetricKind, MetricPoint, MetricValue, MetricsRegistry};
pub use stats::{Histogram, RunningStats};
pub use sys::peak_rss_kb;
pub use util::UtilizationSummary;
