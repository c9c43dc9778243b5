//! Run-time telemetry for the simulator: pluggable observers that are
//! zero-cost when disabled.
//!
//! The simulator owns an `Option<Box<TraceState>>`; with tracing disabled
//! every hook in the hot path is a single `is_some` branch. When enabled
//! (see [`TraceOptions`]), the engine records:
//!
//! - **per-channel utilization time series** — busy cycles per channel per
//!   fixed-size bucket of cycles (the paper's Figures 8/9/11 show only the
//!   end-of-window average; the series shows how utilization evolves);
//! - **packet lifetime histogram** — injection → delivery, per message;
//! - **ITB re-injection latency histogram** — ejection at an in-transit
//!   host → first re-injected flit (includes the 275 ns detection, the
//!   200 ns DMA programming and any queueing at the re-injecting NIC);
//! - **ITB pool occupancy time series** — total reserved pool flits across
//!   all NICs, sampled on a fixed interval;
//! - **trace digest** — an order-sensitive FNV-1a fold of every
//!   delivered-message event `(cycle, src, dst, payload, itbs)`. Two runs
//!   of the same seeded configuration must produce identical digests; the
//!   determinism regression suite is built on this.

use serde::Serialize;

use regnet_metrics::Histogram;

use crate::counters::CounterSnapshot;
use crate::nic::Nic;

/// Which observers to enable. `Default` is everything off — the simulator
/// then allocates no trace state at all.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceOptions {
    /// Sample per-channel busy cycles every this many cycles.
    pub channel_util_interval: Option<u64>,
    /// Record message lifetime and ITB re-injection latency histograms.
    pub packet_lifetimes: bool,
    /// Sample total ITB pool occupancy every this many cycles.
    pub itb_occupancy_interval: Option<u64>,
    /// Fold delivered-message events into a stable digest.
    pub digest: bool,
    /// Bucket delivered payload flits every this many cycles (goodput time
    /// series; shows the dip and recovery around a fault).
    pub goodput_interval: Option<u64>,
    /// Sample the unified metrics row (live packets, ITB pool flits, the
    /// 19 event counters) every this many cycles.
    pub metrics_interval: Option<u64>,
}

impl TraceOptions {
    /// Anything enabled?
    pub fn any(&self) -> bool {
        self.channel_util_interval.is_some()
            || self.packet_lifetimes
            || self.itb_occupancy_interval.is_some()
            || self.digest
            || self.goodput_interval.is_some()
            || self.metrics_interval.is_some()
    }

    /// Only the determinism digest (cheapest useful observer).
    pub fn digest_only() -> TraceOptions {
        TraceOptions {
            digest: true,
            ..TraceOptions::default()
        }
    }

    /// Every observer on, with both time series sampled every
    /// `interval` cycles.
    pub fn full(interval: u64) -> TraceOptions {
        assert!(interval > 0, "trace interval must be positive");
        TraceOptions {
            channel_util_interval: Some(interval),
            packet_lifetimes: true,
            itb_occupancy_interval: Some(interval),
            digest: true,
            goodput_interval: Some(interval),
            metrics_interval: Some(interval),
        }
    }
}

/// Busy-cycle time series for every directed channel, bucketed on a fixed
/// interval. `busy[ch][b]` is the number of busy cycles of channel `ch`
/// during bucket `b`; divide by `interval` for utilization in `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelUtilSeries {
    pub interval: u64,
    pub buckets: u64,
    pub busy: Vec<Vec<u32>>,
}

/// Total ITB pool occupancy (reserved flits over all NICs), sampled every
/// `interval` cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancySeries {
    pub interval: u64,
    pub samples: Vec<u64>,
    pub max: u64,
}

/// Delivered payload flits per bucket of `interval` cycles. Divide by
/// `interval` for goodput in flits/cycle; a fault shows up as a dip, the
/// reconfiguration as the recovery.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct GoodputSeries {
    pub interval: u64,
    pub samples: Vec<u64>,
}

/// One row of the unified metrics series: every column of
/// [`MetricsSeries::names`] sampled at the end of `cycle`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSample {
    /// The cycle the row was sampled at (end-of-cycle).
    pub cycle: u64,
    /// One value per [`MetricsSeries::names`] column.
    pub values: Vec<u64>,
}

/// Fixed-column metrics time series sampled in the cycle domain: live
/// packets, total ITB pool flits and the 19 event counters (cumulative
/// since the last counter reset; zero columns when the counter registry
/// is off). The column layout is fixed so the series is deterministic
/// regardless of which observers are enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSeries {
    pub interval: u64,
    pub names: Vec<String>,
    pub samples: Vec<MetricsSample>,
}

impl MetricsSeries {
    /// Column names of every series: the two gauges, then the 19 counters.
    pub(crate) fn column_names() -> Vec<String> {
        let mut names = vec!["live_packets".to_string(), "itb_pool_flits".to_string()];
        names.extend(CounterSnapshot::NAMES.iter().map(|s| s.to_string()));
        names
    }
}

/// Quantile summary of one histogramed latency population (cycles).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySummary {
    pub count: u64,
    pub p50_cycles: u64,
    pub p99_cycles: u64,
    pub max_cycles: u64,
}

impl LatencySummary {
    fn from_histogram(h: &Histogram) -> LatencySummary {
        LatencySummary {
            count: h.count(),
            p50_cycles: h.quantile(0.5),
            p99_cycles: h.quantile(0.99),
            max_cycles: h.quantile(1.0),
        }
    }
}

/// Everything the enabled observers recorded, snapshot at collection time.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// FNV-1a fold of delivered-message events; `None` when the digest
    /// observer was off.
    pub digest: Option<u64>,
    /// Number of events folded into the digest.
    pub digest_events: u64,
    pub channel_util: Option<ChannelUtilSeries>,
    pub itb_occupancy: Option<OccupancySeries>,
    pub goodput: Option<GoodputSeries>,
    /// Injection → delivery, per message.
    pub lifetime: Option<LatencySummary>,
    /// ITB ejection → re-injection start, per in-transit hop.
    pub reinject_latency: Option<LatencySummary>,
    /// Unified metrics series, present when `metrics_interval` was set.
    pub metrics: Option<MetricsSeries>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// One sampled series' clock: it fires at the end of every
/// `interval`-th cycle, and never when the series is off.
#[derive(Debug)]
struct Clock {
    interval: u64,
    /// The fire at the end of cycle `next - 1` is the next one.
    next: u64,
}

impl Clock {
    fn new(interval: Option<u64>) -> Clock {
        let interval = interval.unwrap_or(u64::MAX);
        Clock {
            interval,
            next: interval,
        }
    }

    /// Does the series sample at the end of `cycle`? Firing moves the
    /// clock on by one interval.
    fn fires(&mut self, cycle: u64) -> bool {
        let fires = cycle + 1 >= self.next;
        if fires {
            self.next = self.next.saturating_add(self.interval);
        }
        fires
    }
}

/// Live observer state, boxed inside the simulator when tracing is on.
#[derive(Debug)]
pub(crate) struct TraceState {
    opts: TraceOptions,
    // Channel-utilization series.
    util_clock: Clock,
    util_snapshot: Vec<u64>,
    util_busy: Vec<Vec<u32>>,
    util_buckets: u64,
    // Pool-occupancy series.
    occ_clock: Clock,
    occ_samples: Vec<u64>,
    occ_max: u64,
    // Goodput series.
    goodput_clock: Clock,
    goodput_acc: u64,
    goodput_samples: Vec<u64>,
    // Unified metrics series.
    met_clock: Clock,
    met_samples: Vec<MetricsSample>,
    // Latency histograms.
    lifetime: Histogram,
    reinject: Histogram,
    /// pid -> cycle the in-transit NIC started processing the packet.
    reinject_pending: std::collections::HashMap<u32, u64>,
    // Digest.
    digest: u64,
    digest_events: u64,
}

impl TraceState {
    pub(crate) fn new(opts: TraceOptions, n_channels: usize) -> TraceState {
        let util_channels = opts.channel_util_interval.map_or(0, |_| n_channels);
        TraceState {
            util_clock: Clock::new(opts.channel_util_interval),
            util_snapshot: vec![0; util_channels],
            util_busy: vec![Vec::new(); util_channels],
            util_buckets: 0,
            occ_clock: Clock::new(opts.itb_occupancy_interval),
            occ_samples: Vec::new(),
            occ_max: 0,
            goodput_clock: Clock::new(opts.goodput_interval),
            goodput_acc: 0,
            goodput_samples: Vec::new(),
            met_clock: Clock::new(opts.metrics_interval),
            met_samples: Vec::new(),
            lifetime: Histogram::new(),
            reinject: Histogram::new(),
            reinject_pending: std::collections::HashMap::new(),
            digest: FNV_OFFSET,
            digest_events: 0,
            opts,
        }
    }

    #[inline]
    fn fold(&mut self, word: u64) {
        // FNV-1a over the 8 bytes of `word`.
        let mut h = self.digest;
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.digest = h;
    }

    /// A message was fully delivered.
    pub(crate) fn on_message_delivered(
        &mut self,
        cycle: u64,
        src: u32,
        dst: u32,
        payload_flits: u64,
        itbs: u64,
        first_inject: u64,
    ) {
        if self.opts.digest {
            self.fold(cycle);
            self.fold(((src as u64) << 32) | dst as u64);
            self.fold(payload_flits);
            self.fold(itbs);
            self.digest_events += 1;
        }
        if self.opts.packet_lifetimes && first_inject != u64::MAX && cycle >= first_inject {
            self.lifetime.record(cycle - first_inject);
        }
        if self.opts.goodput_interval.is_some() {
            self.goodput_acc += payload_flits;
        }
    }

    /// A packet was ejected into an in-transit buffer (`cycle` is when the
    /// NIC began the detection + DMA processing).
    pub(crate) fn on_itb_eject(&mut self, cycle: u64, pid: u32) {
        if self.opts.packet_lifetimes {
            self.reinject_pending.insert(pid, cycle);
        }
    }

    /// A previously ejected packet started re-injecting.
    pub(crate) fn on_reinject_start(&mut self, cycle: u64, pid: u32) {
        if self.opts.packet_lifetimes {
            if let Some(eject) = self.reinject_pending.remove(&pid) {
                self.reinject.record(cycle.saturating_sub(eject));
            }
        }
    }

    /// Called once per cycle from `Simulator::step` (the only per-cycle
    /// cost; everything else is event-driven). `live_packets` is the
    /// arena's live-packet count; `counters` is the simulator's counter
    /// registry when enabled (read only on a metrics flush).
    pub(crate) fn on_cycle_end(
        &mut self,
        cycle: u64,
        busy: &[u64],
        nics: &[Nic],
        live_packets: u64,
        counters: Option<&CounterSnapshot>,
    ) {
        if self.util_clock.fires(cycle) {
            let interval = self.util_clock.interval;
            for (i, &now) in busy.iter().enumerate() {
                let delta = now.saturating_sub(self.util_snapshot[i]);
                self.util_snapshot[i] = now;
                self.util_busy[i].push(delta.min(interval) as u32);
            }
            self.util_buckets += 1;
        }
        if self.goodput_clock.fires(cycle) {
            self.goodput_samples.push(self.goodput_acc);
            self.goodput_acc = 0;
        }
        let (occ, met) = (self.occ_clock.fires(cycle), self.met_clock.fires(cycle));
        if !(occ || met) {
            return;
        }
        let pool: u64 = nics.iter().map(|n| n.pool_used as u64).sum();
        if occ {
            self.occ_max = self.occ_max.max(pool);
            self.occ_samples.push(pool);
        }
        if met {
            let mut values = Vec::with_capacity(2 + CounterSnapshot::NAMES.len());
            values.push(live_packets);
            values.push(pool);
            match counters {
                // Fixed column layout: zeros when the registry is off, so
                // the series shape never depends on other observers.
                Some(c) => values.extend(c.as_pairs().iter().map(|&(_, v)| v)),
                None => values.extend(std::iter::repeat_n(0, CounterSnapshot::NAMES.len())),
            }
            self.met_samples.push(MetricsSample { cycle, values });
        }
    }

    /// The earliest cycle boundary at which `on_cycle_end` will flush a
    /// sample. A flush guarded by `cycle + 1 >= next` executes during cycle
    /// `next - 1`, so the run loop's time skip clamps its target to
    /// `next_tick() - 1`. `u64::MAX` when no sampling observer is armed.
    pub(crate) fn next_tick(&self) -> u64 {
        (self.util_clock.next)
            .min(self.occ_clock.next)
            .min(self.goodput_clock.next)
            .min(self.met_clock.next)
    }

    /// The measurement window restarted and channel busy counters were
    /// reset; re-baseline the utilization snapshots.
    pub(crate) fn on_busy_reset(&mut self) {
        for s in &mut self.util_snapshot {
            *s = 0;
        }
    }

    /// Snapshot everything recorded so far.
    pub(crate) fn report(&self) -> TraceReport {
        TraceReport {
            digest: self.opts.digest.then_some(self.digest),
            digest_events: self.digest_events,
            channel_util: self
                .opts
                .channel_util_interval
                .map(|interval| ChannelUtilSeries {
                    interval,
                    buckets: self.util_buckets,
                    busy: self.util_busy.clone(),
                }),
            itb_occupancy: self
                .opts
                .itb_occupancy_interval
                .map(|interval| OccupancySeries {
                    interval,
                    samples: self.occ_samples.clone(),
                    max: self.occ_max,
                }),
            goodput: self.opts.goodput_interval.map(|interval| GoodputSeries {
                interval,
                samples: self.goodput_samples.clone(),
            }),
            lifetime: self
                .opts
                .packet_lifetimes
                .then(|| LatencySummary::from_histogram(&self.lifetime)),
            reinject_latency: self
                .opts
                .packet_lifetimes
                .then(|| LatencySummary::from_histogram(&self.reinject)),
            metrics: self.opts.metrics_interval.map(|interval| MetricsSeries {
                interval,
                names: MetricsSeries::column_names(),
                samples: self.met_samples.clone(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_default_off() {
        let o = TraceOptions::default();
        assert!(!o.any());
        assert!(TraceOptions::digest_only().any());
        assert!(TraceOptions::full(100).any());
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = TraceState::new(TraceOptions::digest_only(), 0);
        let mut b = TraceState::new(TraceOptions::digest_only(), 0);
        a.on_message_delivered(10, 1, 2, 64, 0, 5);
        a.on_message_delivered(11, 3, 4, 64, 1, 6);
        b.on_message_delivered(11, 3, 4, 64, 1, 6);
        b.on_message_delivered(10, 1, 2, 64, 0, 5);
        let (ra, rb) = (a.report(), b.report());
        assert_eq!(ra.digest_events, 2);
        assert_ne!(ra.digest, rb.digest, "digest must be order-sensitive");
        // And equal histories agree.
        let mut c = TraceState::new(TraceOptions::digest_only(), 0);
        c.on_message_delivered(10, 1, 2, 64, 0, 5);
        c.on_message_delivered(11, 3, 4, 64, 1, 6);
        assert_eq!(a.report().digest, c.report().digest);
    }

    #[test]
    fn reinject_latency_pairs_eject_with_start() {
        let mut t = TraceState::new(
            TraceOptions {
                packet_lifetimes: true,
                ..TraceOptions::default()
            },
            0,
        );
        t.on_itb_eject(100, 7);
        t.on_reinject_start(175, 7);
        // Unmatched start is ignored.
        t.on_reinject_start(300, 99);
        let r = t.report();
        let lat = r.reinject_latency.unwrap();
        assert_eq!(lat.count, 1);
        assert!(lat.p50_cycles <= 75 && lat.max_cycles >= 64);
    }

    #[test]
    fn report_disabled_sections_absent() {
        let t = TraceState::new(TraceOptions::digest_only(), 4);
        let r = t.report();
        assert!(r.channel_util.is_none());
        assert!(r.itb_occupancy.is_none());
        assert!(r.goodput.is_none());
        assert!(r.lifetime.is_none());
        assert!(r.digest.is_some());
    }

    #[test]
    fn goodput_buckets_delivered_payload() {
        let mut t = TraceState::new(
            TraceOptions {
                goodput_interval: Some(100),
                ..TraceOptions::default()
            },
            0,
        );
        for c in 0..250u64 {
            if c == 10 || c == 50 {
                t.on_message_delivered(c, 0, 1, 64, 0, 5);
            }
            if c == 150 {
                t.on_message_delivered(c, 2, 3, 32, 0, 5);
            }
            t.on_cycle_end(c, &[], &[], 0, None);
        }
        let g = t.report().goodput.unwrap();
        assert_eq!(g.interval, 100);
        assert_eq!(g.samples, vec![128, 32]);
    }

    #[test]
    fn metrics_series_samples_on_the_interval() {
        let mut t = TraceState::new(
            TraceOptions {
                metrics_interval: Some(100),
                ..TraceOptions::default()
            },
            0,
        );
        assert_eq!(t.next_tick(), 100);
        for c in 0..250u64 {
            t.on_cycle_end(c, &[], &[], c, None);
        }
        let m = t.report().metrics.unwrap();
        assert_eq!(m.interval, 100);
        assert_eq!(m.names.len(), 2 + CounterSnapshot::NAMES.len());
        assert_eq!(m.names[0], "live_packets");
        // The flush guarded by `cycle + 1 >= next` runs during cycle 99/199.
        assert_eq!(m.samples.len(), 2);
        assert_eq!(m.samples[0].cycle, 99);
        assert_eq!(m.samples[0].values[0], 99);
        assert_eq!(m.samples[1].cycle, 199);
        // Counter columns are present but zero when the registry is off.
        assert!(m.samples[0].values[2..].iter().all(|&v| v == 0));
    }
}
