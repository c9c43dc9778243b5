//! Measurement and reporting for `regnet` simulations: streaming statistics,
//! latency histograms, latency-vs-throughput curves with saturation
//! detection, the saturation search, and link-utilization summaries.

mod chrome;
mod curve;
mod export;
mod json;
mod registry;
mod stats;
mod sys;
mod util;

pub use chrome::{Arg as ChromeArg, ChromeTrace};
pub use curve::{
    Curve, CurvePoint, NamedSeries, Saturation, SaturationSearch, TimeSeries, SATURATION_RATIO,
};
pub use export::{write_figure, write_time_series};
pub use json::JsonValue;
pub use registry::MetricsRegistry;
pub use stats::{Histogram, RunningStats};
pub use sys::peak_rss_kb;
pub use util::UtilizationSummary;
