//! Running one campaign cell and (de)serializing its result.
//!
//! [`CellResult`] is the checkpoint unit: everything the aggregation
//! layer needs, written as one JSON file per cell. Serialization uses the
//! vendored `serde_json` writer; deserialization goes through the strict
//! [`regnet_metrics::JsonValue`] reader. Every numeric field is either an
//! `f64` (shortest-roundtrip formatting makes the JSON round trip
//! bit-exact) or a `u64` far below 2^53 — except the FNV run digest,
//! which spans the full 64-bit range and therefore travels as a 16-digit
//! hex *string*.

use std::time::Instant;

use regnet_core::RouteDbConfig;
use regnet_metrics::{CurvePoint, JsonValue};
use regnet_netsim::{
    ChannelDesc, Experiment, FaultOptions, GoodputSeries, ReliabilityStats, RunOptions, SimConfig,
    TraceOptions,
};
use serde::Serialize;

use crate::spec::CellSpec;

/// The checkpointed outcome of one cell.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CellResult {
    /// The cell's canonical key (self-describing checkpoint files).
    pub key: String,
    /// 16-hex config hash — also the checkpoint file's stem.
    pub hash: String,
    /// Offered load, flits/ns/switch (== the spec's load).
    pub offered: f64,
    /// Accepted traffic, flits/ns/switch.
    pub accepted: f64,
    pub avg_latency_ns: f64,
    pub p99_latency_ns: f64,
    pub avg_total_latency_ns: f64,
    pub avg_itbs_per_msg: f64,
    pub delivered: u64,
    pub generated: u64,
    pub delivered_payload_flits: u64,
    pub window_cycles: u64,
    /// Mean utilization over switch↔switch channels.
    pub util_mean: f64,
    /// Peak utilization over switch↔switch channels.
    pub util_max: f64,
    /// FNV-1a run digest as 16 hex digits (`None` if the digest observer
    /// was off — never for cells run by this crate, which always enables
    /// it).
    pub digest: Option<String>,
    pub digest_events: u64,
    pub reliability: ReliabilityStats,
    /// Goodput time series, present when the spec asked for one.
    pub goodput: Option<GoodputSeries>,
    /// Wall time of the run, milliseconds. Presentation only — excluded
    /// from [`CellResult::same_results`] so resumed and uninterrupted
    /// campaigns compare equal.
    pub wall_ms: u64,
    /// Peak resident set size of the process when the cell finished, KiB
    /// (0 where `/proc` is unavailable). Machine-dependent like `wall_ms`
    /// and excluded from [`CellResult::same_results`] the same way.
    pub peak_rss_kb: u64,
}

impl CellResult {
    /// Equality of everything the simulation determined (wall time, the
    /// one machine-dependent field, excluded).
    pub fn same_results(&self, other: &CellResult) -> bool {
        let mut a = self.clone();
        let mut b = other.clone();
        a.wall_ms = 0;
        b.wall_ms = 0;
        a.peak_rss_kb = 0;
        b.peak_rss_kb = 0;
        a == b
    }

    /// The cell as one point of a latency-vs-traffic curve.
    pub fn curve_point(&self) -> CurvePoint {
        CurvePoint {
            offered: self.offered,
            accepted: self.accepted,
            avg_latency_ns: self.avg_latency_ns,
            p99_latency_ns: self.p99_latency_ns,
            avg_total_latency_ns: self.avg_total_latency_ns,
            avg_itbs_per_msg: self.avg_itbs_per_msg,
            delivered: self.delivered,
        }
    }

    /// Serialize for checkpointing.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self).expect("CellResult serialization is infallible")
    }

    /// Parse a checkpoint file written by [`CellResult::to_json_string`].
    pub fn from_json_str(text: &str) -> Result<CellResult, String> {
        let v = JsonValue::parse(text).map_err(|e| format!("bad cell checkpoint: {e}"))?;
        let f = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(|x| x.as_f64())
                .ok_or_else(|| format!("cell checkpoint missing number {k:?}"))
        };
        let u = |k: &str| -> Result<u64, String> {
            v.get(k).and_then(|x| x.as_u64()).ok_or_else(|| {
                format!("cell checkpoint {k:?} is missing or not an integer in 0..2^53")
            })
        };
        let s = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(|x| x.as_str())
                .map(String::from)
                .ok_or_else(|| format!("cell checkpoint missing string {k:?}"))
        };
        let digest = match v.get("digest") {
            None | Some(JsonValue::Null) => None,
            Some(d) => Some(
                d.as_str()
                    .ok_or("cell checkpoint digest must be a hex string")?
                    .to_string(),
            ),
        };
        let rel = v
            .get("reliability")
            .ok_or("cell checkpoint missing reliability")?;
        let ru = |k: &str| -> Result<u64, String> {
            rel.get(k).and_then(|x| x.as_u64()).ok_or_else(|| {
                format!("cell checkpoint reliability {k:?} is missing or not an integer in 0..2^53")
            })
        };
        let reliability = ReliabilityStats {
            link_failures: ru("link_failures")?,
            switch_failures: ru("switch_failures")?,
            host_failures: ru("host_failures")?,
            repairs: ru("repairs")?,
            worms_truncated: ru("worms_truncated")?,
            retransmissions: ru("retransmissions")?,
            dropped_packets: ru("dropped_packets")?,
            dropped_messages: ru("dropped_messages")?,
            unreachable_drops: ru("unreachable_drops")?,
            reconfigurations: ru("reconfigurations")?,
            reconfig_failures: ru("reconfig_failures")?,
            reconfig_stall_cycles: ru("reconfig_stall_cycles")?,
            unreachable_pairs: ru("unreachable_pairs")?,
        };
        let goodput = match v.get("goodput") {
            None | Some(JsonValue::Null) => None,
            Some(g) => {
                let interval = g
                    .get("interval")
                    .and_then(|x| x.as_u64())
                    .ok_or("goodput series interval is missing or not an integer in 0..2^53")?;
                let samples = g
                    .get("samples")
                    .and_then(|x| x.as_array())
                    .ok_or("goodput series missing samples")?
                    .iter()
                    .map(|x| {
                        x.as_u64()
                            .ok_or("goodput samples must be integers in 0..2^53")
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Some(GoodputSeries { interval, samples })
            }
        };
        Ok(CellResult {
            key: s("key")?,
            hash: s("hash")?,
            offered: f("offered")?,
            accepted: f("accepted")?,
            avg_latency_ns: f("avg_latency_ns")?,
            p99_latency_ns: f("p99_latency_ns")?,
            avg_total_latency_ns: f("avg_total_latency_ns")?,
            avg_itbs_per_msg: f("avg_itbs_per_msg")?,
            delivered: u("delivered")?,
            generated: u("generated")?,
            delivered_payload_flits: u("delivered_payload_flits")?,
            window_cycles: u("window_cycles")?,
            util_mean: f("util_mean")?,
            util_max: f("util_max")?,
            digest,
            digest_events: u("digest_events")?,
            reliability,
            goodput,
            wall_ms: u("wall_ms")?,
            // Absent in pre-v5 checkpoints; default keeps resume working.
            peak_rss_kb: match v.get("peak_rss_kb") {
                None => 0,
                Some(_) => u("peak_rss_kb")?,
            },
        })
    }
}

/// Build the [`Experiment`] for a cell spec (shared by the runner and the
/// campaign↔fig equivalence tests).
pub fn build_experiment(spec: &CellSpec) -> Result<Experiment, String> {
    let topo = spec.topo.build()?;
    let mut cfg = SimConfig {
        payload_flits: spec.payload_flits,
        ..SimConfig::default()
    };
    if let Some(r) = spec.reconfig_latency_cycles {
        cfg.reconfig_latency_cycles = r;
    }
    Experiment::new(
        topo,
        spec.scheme,
        RouteDbConfig::default(),
        spec.pattern,
        cfg,
    )
    .map_err(|e| format!("cell {}: {e}", spec.canonical_key()))
}

/// The [`RunOptions`] a cell runs under: the spec's window and seed
/// plus the always-on determinism digest (observers never perturb
/// results) and the optional goodput series.
pub fn run_options(spec: &CellSpec) -> RunOptions {
    RunOptions {
        warmup_cycles: spec.warmup_cycles,
        measure_cycles: spec.measure_cycles,
        seed: spec.seed,
        trace: TraceOptions {
            digest: true,
            goodput_interval: spec.goodput_interval,
            ..TraceOptions::default()
        },
        faults: spec
            .faults
            .as_ref()
            .map(|f| FaultOptions::with_plan(f.to_plan())),
        ..RunOptions::default()
    }
}

/// Run one cell to completion and capture its checkpointable result.
pub fn run_cell(spec: &CellSpec) -> Result<CellResult, String> {
    let exp = build_experiment(spec)?;
    let opts = run_options(spec);
    let started = Instant::now();
    let obs = exp.run_observed(spec.load, &opts);
    let wall_ms = started.elapsed().as_millis() as u64;
    let n_switches = exp.topology().num_switches();
    let accepted = obs.stats.accepted_flits_per_ns_per_switch(n_switches);
    // Switch-link utilization summary (the paper's Figures 8/9/11 view).
    let descs = ChannelDesc::of(exp.topology());
    let mut util_sum = 0.0f64;
    let mut util_max = 0.0f64;
    let mut n_links = 0u64;
    for (d, &busy) in descs.iter().zip(&obs.stats.channel_busy) {
        if d.switch_link {
            let util = busy as f64 / obs.stats.window_cycles as f64;
            util_sum += util;
            util_max = util_max.max(util);
            n_links += 1;
        }
    }
    let trace = obs.trace.as_ref();
    Ok(CellResult {
        key: spec.canonical_key(),
        hash: spec.hash_hex(),
        offered: spec.load,
        accepted,
        avg_latency_ns: obs.stats.avg_latency_ns,
        p99_latency_ns: obs.stats.p99_latency_ns,
        avg_total_latency_ns: obs.stats.avg_total_latency_ns,
        avg_itbs_per_msg: obs.stats.avg_itbs_per_msg,
        delivered: obs.stats.delivered,
        generated: obs.stats.generated,
        delivered_payload_flits: obs.stats.delivered_payload_flits,
        window_cycles: obs.stats.window_cycles,
        util_mean: if n_links > 0 {
            util_sum / n_links as f64
        } else {
            0.0
        },
        util_max,
        digest: trace.and_then(|t| t.digest).map(|d| format!("{d:016x}")),
        digest_events: trace.map_or(0, |t| t.digest_events),
        reliability: obs.reliability,
        goodput: obs.trace.and_then(|t| t.goodput),
        wall_ms,
        peak_rss_kb: regnet_metrics::peak_rss_kb().unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FaultSpec, TopoSpec};
    use regnet_core::RoutingScheme;
    use regnet_traffic::PatternSpec;

    fn tiny_cell() -> CellSpec {
        CellSpec {
            topo: TopoSpec::TorusCustom {
                rows: 4,
                cols: 4,
                hosts: 2,
            },
            scheme: RoutingScheme::ItbRr,
            pattern: PatternSpec::Uniform,
            load: 0.006,
            seed: 5,
            warmup_cycles: 4_000,
            measure_cycles: 20_000,
            payload_flits: 64,
            goodput_interval: Some(5_000),
            reconfig_latency_cycles: Some(2_000),
            faults: None,
        }
    }

    #[test]
    fn cell_result_roundtrips_through_json() {
        let r = run_cell(&tiny_cell()).unwrap();
        assert!(r.delivered > 0);
        assert!(r.digest.is_some());
        assert!(r.goodput.as_ref().is_some_and(|g| !g.samples.is_empty()));
        let text = r.to_json_string();
        let back = CellResult::from_json_str(&text).unwrap();
        assert_eq!(r, back, "JSON round trip must be bit-exact");
    }

    #[test]
    fn run_is_deterministic_and_wall_time_is_ignored() {
        let a = run_cell(&tiny_cell()).unwrap();
        let b = run_cell(&tiny_cell()).unwrap();
        assert!(a.same_results(&b));
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn faulty_cell_reports_reliability() {
        let mut spec = tiny_cell();
        spec.faults = Some(FaultSpec::parse("one-link", "fail_link:3@6000").unwrap());
        let r = run_cell(&spec).unwrap();
        assert_eq!(r.reliability.link_failures, 1);
        let text = r.to_json_string();
        let back = CellResult::from_json_str(&text).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn bad_checkpoint_is_rejected() {
        assert!(CellResult::from_json_str("{}").is_err());
        assert!(CellResult::from_json_str("not json").is_err());
        // A count that is negative, fractional or past 2^53 is corrupt: it
        // must not load as 0, 1 or u64::MAX.
        let mut cell = run_cell(&tiny_cell()).unwrap();
        (cell.delivered, cell.wall_ms, cell.peak_rss_kb) = (77, 5, 9);
        let good = cell.to_json_string();
        for (from, to) in [
            ("\"delivered\": 77", "\"delivered\": -3"),
            ("\"delivered\": 77", "\"delivered\": 1.5"),
            ("\"delivered\": 77", "\"delivered\": 1e300"),
            ("\"delivered\": 77", "\"delivered\": 9007199254740992"),
            ("\"link_failures\": 0", "\"link_failures\": -1"),
            ("\"interval\": 5000", "\"interval\": 5000.5"),
            ("\"wall_ms\": 5", "\"wall_ms\": -5"),
            ("\"peak_rss_kb\": 9", "\"peak_rss_kb\": 9.5"),
        ] {
            assert!(good.contains(from), "{from}");
            let bad = good.replacen(from, to, 1);
            let err = CellResult::from_json_str(&bad);
            assert!(err.is_err(), "{to:?} loaded as {err:?}");
        }
        let samples = good.replacen("\"samples\": [", "\"samples\": [0.25, ", 1);
        assert!(CellResult::from_json_str(&samples).is_err());
        assert!(CellResult::from_json_str(&good).is_ok());
    }
}
