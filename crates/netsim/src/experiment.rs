//! High-level experiment API: one offered-load point, observed as much as
//! the caller asks. Load ladders and saturation searches run one point
//! per campaign cell (`regnet-campaign`), which fans them across its
//! worker pool; a search over a topology no campaign can name drives
//! `regnet_metrics::SaturationSearch` with [`Experiment::run_point`].

use regnet_core::{RouteDb, RouteDbConfig, RoutingScheme};
use regnet_metrics::{CurvePoint, MetricsRegistry, UtilizationSummary};
use regnet_topology::Topology;
use regnet_traffic::{Pattern, PatternSpec};

use crate::config::{SimConfig, MAX_SWITCH_PORTS};
use crate::events::{EventJournal, EventOptions};
use crate::faultplan::{FaultOptions, ReliabilityStats};
use crate::profiler::ProfileReport;
use crate::sched::Scheduler;
use crate::sim::{ChannelDesc, RunStats, Simulator};
use crate::trace::{ChannelUtilSeries, TraceOptions, TraceReport};

/// Per-run options.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Cycles simulated before measurement starts (fills the network to
    /// steady state).
    pub warmup_cycles: u64,
    /// Length of the measurement window, cycles.
    pub measure_cycles: u64,
    /// RNG seed (generation phases, destination draws, path sampling).
    pub seed: u64,
    /// Telemetry observers to enable for the run (default: all off, which
    /// costs nothing). Results come back in [`RunObservation::trace`].
    pub trace: TraceOptions,
    /// Fault schedule to inject (default: `None`, a fault-free run). The
    /// dependability counters come back in
    /// [`RunObservation::reliability`].
    pub faults: Option<FaultOptions>,
    /// Enable the unified counter registry; the snapshot over the
    /// measurement window rides in [`RunStats::counters`].
    pub counters: bool,
    /// Enable the structured event journal (default: `None`, no journal).
    /// The journal comes back in [`RunObservation::journal`].
    pub events: Option<EventOptions>,
    /// Enable the per-phase wall-time self-profiler; the report comes back
    /// in [`RunObservation::profile`].
    pub profile: bool,
    /// Oracle switch for the equivalence suites: `Scheduler::Scan` runs
    /// the reference loop instead of the engine, with bit-identical
    /// results. Everything else leaves the default.
    #[doc(hidden)]
    pub scheduler: Scheduler,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            warmup_cycles: 100_000,
            measure_cycles: 300_000,
            seed: 1,
            trace: TraceOptions::default(),
            faults: None,
            counters: false,
            events: None,
            profile: false,
            scheduler: Scheduler::default(),
        }
    }
}

/// Everything a single run can report beyond its [`RunStats`]: the
/// dependability counters, the trace-observer report, the self-profiler
/// breakdown and the event journal (each `None`/default unless the
/// corresponding [`RunOptions`] field enabled it).
pub struct RunObservation {
    pub stats: RunStats,
    pub reliability: ReliabilityStats,
    pub trace: Option<TraceReport>,
    pub profile: Option<ProfileReport>,
    pub journal: Option<Box<EventJournal>>,
}

impl RunObservation {
    /// Project the run into the unified [`MetricsRegistry`]: the 19 event
    /// counters, the run gauges, the 13 reliability counters, the ITB
    /// occupancy peak and the latency summaries — everything the
    /// simulation determined, nothing wall-clock, so two same-seed runs
    /// produce byte-identical Prometheus exposition
    /// ([`MetricsRegistry::to_prometheus`]).
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let s = &self.stats;
        if let Some(c) = &s.counters {
            for (name, value) in c.as_pairs() {
                reg.counter_with(
                    "regnet_events_total",
                    "Simulator event counts over the measurement window, by event kind",
                    &[("event", name)],
                    value,
                );
            }
        }
        reg.gauge(
            "regnet_run_window_cycles",
            "Length of the measurement window, cycles",
            s.window_cycles as f64,
        );
        reg.gauge(
            "regnet_run_delivered_messages",
            "Messages fully delivered during the window",
            s.delivered as f64,
        );
        reg.gauge(
            "regnet_run_generated_messages",
            "Messages generated during the window",
            s.generated as f64,
        );
        reg.gauge(
            "regnet_run_delivered_payload_flits",
            "Payload flits delivered during the window",
            s.delivered_payload_flits as f64,
        );
        reg.gauge(
            "regnet_run_avg_latency_ns",
            "Mean network latency (injection to delivery), ns",
            s.avg_latency_ns,
        );
        reg.gauge(
            "regnet_run_p99_latency_ns",
            "99th-percentile network latency, ns",
            s.p99_latency_ns,
        );
        reg.gauge(
            "regnet_run_avg_total_latency_ns",
            "Mean total latency (generation to delivery), ns",
            s.avg_total_latency_ns,
        );
        reg.gauge(
            "regnet_run_avg_itbs_per_msg",
            "Mean in-transit buffer hops per message",
            s.avg_itbs_per_msg,
        );
        reg.gauge(
            "regnet_run_gen_stall_cycles",
            "Generation cycles stalled by flow control",
            s.gen_stall_cycles as f64,
        );
        reg.gauge(
            "regnet_run_max_pool_flits",
            "Peak ITB pool occupancy of any single NIC during the window, flits",
            s.max_pool_flits as f64,
        );
        let r = &self.reliability;
        for (kind, value) in [
            ("link_failures", r.link_failures),
            ("switch_failures", r.switch_failures),
            ("host_failures", r.host_failures),
            ("repairs", r.repairs),
            ("worms_truncated", r.worms_truncated),
            ("retransmissions", r.retransmissions),
            ("dropped_packets", r.dropped_packets),
            ("dropped_messages", r.dropped_messages),
            ("unreachable_drops", r.unreachable_drops),
            ("reconfigurations", r.reconfigurations),
            ("reconfig_failures", r.reconfig_failures),
            ("reconfig_stall_cycles", r.reconfig_stall_cycles),
            ("unreachable_pairs", r.unreachable_pairs),
        ] {
            reg.counter_with(
                "regnet_reliability_total",
                "Dependability event counts, by kind",
                &[("kind", kind)],
                value,
            );
        }
        if let Some(t) = &self.trace {
            reg.counter(
                "regnet_digest_events_total",
                "Delivered-message events folded into the determinism digest",
                t.digest_events,
            );
            if let Some(occ) = &t.itb_occupancy {
                reg.gauge(
                    "regnet_itb_pool_peak_flits",
                    "Peak total ITB pool occupancy across all NICs, flits",
                    occ.max as f64,
                );
            }
            for (name, help, summary) in [
                (
                    "regnet_packet_lifetime_cycles",
                    "Message lifetime (injection to delivery), cycles; sum not tracked",
                    &t.lifetime,
                ),
                (
                    "regnet_itb_reinject_latency_cycles",
                    "ITB ejection to re-injection start, cycles; sum not tracked",
                    &t.reinject_latency,
                ),
            ] {
                if let Some(l) = summary {
                    reg.summary(
                        name,
                        help,
                        l.count,
                        0.0,
                        &[
                            (0.5, l.p50_cycles as f64),
                            (0.99, l.p99_cycles as f64),
                            (1.0, l.max_cycles as f64),
                        ],
                    );
                }
            }
        }
        reg
    }
}

/// A fully prepared experiment: topology, routing tables, traffic pattern
/// and hardware parameters. Cheap to query repeatedly at different offered
/// loads, and immutable.
pub struct Experiment {
    topo: Topology,
    db: RouteDb,
    /// What `db` was built with, and what every mid-run reconfiguration
    /// rebuilds with.
    db_cfg: RouteDbConfig,
    pattern: Pattern,
    cfg: SimConfig,
    scheme: RoutingScheme,
}

impl Experiment {
    /// Build the routing tables and resolve the traffic pattern.
    pub fn new(
        topo: Topology,
        scheme: RoutingScheme,
        db_cfg: RouteDbConfig,
        pattern: PatternSpec,
        cfg: SimConfig,
    ) -> Result<Experiment, String> {
        cfg.validate()?;
        if topo.max_ports() as usize > MAX_SWITCH_PORTS {
            return Err(format!(
                "{} ports per switch: the simulator takes at most {MAX_SWITCH_PORTS}",
                topo.max_ports()
            ));
        }
        let db = RouteDb::build(&topo, scheme, &db_cfg);
        let pattern = Pattern::resolve(pattern, &topo)?;
        Ok(Experiment {
            topo,
            db,
            db_cfg,
            pattern,
            cfg,
            scheme,
        })
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    pub fn scheme(&self) -> RoutingScheme {
        self.scheme
    }

    pub fn route_db(&self) -> &RouteDb {
        &self.db
    }

    pub fn sim_config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Run one point with every observer selected in `opts` and return the
    /// full [`RunObservation`]: stats, reliability (all zeros unless
    /// `opts.faults` schedules something), trace report, profiler
    /// breakdown and event journal.
    ///
    /// Observers are enabled before warmup, so the journal and the trace
    /// digest see the whole run (warmup included) while
    /// `RunStats.counters` — reset at `begin_measurement` — covers exactly
    /// the measurement window.
    pub fn run_observed(&self, offered: f64, opts: &RunOptions) -> RunObservation {
        let mut sim = self.make_sim(offered, opts);
        sim.run(opts.warmup_cycles);
        sim.begin_measurement();
        sim.run(opts.measure_cycles);
        sim.end_observation(opts.measure_cycles)
    }

    /// A simulator at `offered` with every observer `opts` selects armed
    /// (its windows are left to the caller): the one constructor from
    /// options, under [`run_observed`](Experiment::run_observed) and the
    /// development binaries alike.
    pub fn make_sim(&self, offered: f64, opts: &RunOptions) -> Simulator<'_> {
        let mut sim = Simulator::new(
            &self.topo,
            &self.db,
            &self.pattern,
            self.cfg.clone(),
            offered,
            opts.seed,
        );
        sim.set_scheduler(opts.scheduler);
        sim.enable_trace(opts.trace.clone());
        if let Some(faults) = &opts.faults {
            // The tables a fault swaps in are built like the ones it
            // replaces (same alternative cap, in-transit host picker and
            // seed), whatever the options' own `db_cfg` says.
            sim.enable_faults(FaultOptions {
                db_cfg: self.db_cfg.clone(),
                ..faults.clone()
            });
        }
        if opts.counters {
            sim.enable_counters();
        }
        if let Some(ev) = &opts.events {
            sim.enable_events(ev.clone());
        }
        if opts.profile {
            sim.enable_profiler();
        }
        sim
    }

    /// Run one offered-load point and summarise it as a [`CurvePoint`].
    pub fn run_point(&self, offered: f64, opts: &RunOptions) -> CurvePoint {
        let stats = self.run_observed(offered, opts).stats;
        self.to_point(offered, &stats)
    }

    fn to_point(&self, offered: f64, stats: &RunStats) -> CurvePoint {
        CurvePoint {
            offered,
            accepted: stats.accepted_flits_per_ns_per_switch(self.topo.num_switches()),
            avg_latency_ns: stats.avg_latency_ns,
            p99_latency_ns: stats.p99_latency_ns,
            avg_total_latency_ns: stats.avg_total_latency_ns,
            avg_itbs_per_msg: stats.avg_itbs_per_msg,
            delivered: stats.delivered,
        }
    }

    /// A run's link-utilization summary over its window, restricted to
    /// switch↔switch channels (what the paper's Figures 8/9/11 map), with
    /// those channels' descriptors and their rows of the utilization
    /// *time series* (`None` unless the run set
    /// `trace.channel_util_interval`), parallel to the summary.
    pub fn link_utilization(
        &self,
        obs: &RunObservation,
    ) -> (
        UtilizationSummary,
        Vec<ChannelDesc>,
        Option<ChannelUtilSeries>,
    ) {
        let descs = ChannelDesc::of(&self.topo);
        let keep: Vec<usize> = (0..descs.len()).filter(|&i| descs[i].switch_link).collect();
        let busy: Vec<u64> = keep.iter().map(|&i| obs.stats.channel_busy[i]).collect();
        let series = obs.trace.as_ref().and_then(|r| r.channel_util.as_ref());
        (
            UtilizationSummary::from_busy_cycles(&busy, obs.stats.window_cycles),
            keep.iter().map(|&i| descs[i]).collect(),
            series.map(|s| ChannelUtilSeries {
                busy: keep.iter().map(|&i| s.busy[i].clone()).collect(),
                ..*s
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regnet_topology::gen;

    fn quick_opts() -> RunOptions {
        RunOptions {
            warmup_cycles: 5_000,
            measure_cycles: 40_000,
            seed: 3,
            ..RunOptions::default()
        }
    }

    fn small_exp(scheme: RoutingScheme) -> Experiment {
        Experiment::new(
            gen::torus_2d(4, 4, 2).unwrap(),
            scheme,
            RouteDbConfig::default(),
            PatternSpec::Uniform,
            SimConfig {
                payload_flits: 64,
                ..SimConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn run_point_accepts_offered_at_low_load() {
        let exp = small_exp(RoutingScheme::ItbRr);
        let p = exp.run_point(0.003, &quick_opts());
        assert!(p.delivered > 10);
        assert!((p.accepted - 0.003).abs() / 0.003 < 0.15);
        assert!(p.avg_latency_ns > 0.0);
    }

    #[test]
    fn reconfiguration_keeps_the_experiments_route_configuration() {
        use crate::faultplan::FaultPlan;
        let topo = gen::torus_2d(4, 4, 2).unwrap();
        let link = topo.links().iter().find(|l| l.is_switch_link()).unwrap().id;
        let exp = Experiment::new(
            topo,
            RoutingScheme::ItbRr,
            RouteDbConfig {
                max_alternatives: 1,
                ..RouteDbConfig::default()
            },
            PatternSpec::Uniform,
            SimConfig::default(),
        )
        .unwrap();
        let mut plan = FaultPlan::new();
        plan.fail_link(2_000, link).repair_link(30_000, link);
        let opts = RunOptions {
            // The caller did not repeat the configuration here.
            faults: Some(FaultOptions::with_plan(plan)),
            ..quick_opts()
        };
        let mut sim = exp.make_sim(0.003, &opts);
        sim.run(60_000);
        assert_eq!(sim.reliability().reconfigurations, 2);
        let rebuilt = sim
            .reconfigured_routes()
            .expect("tables were swapped")
            .db(exp.topology());
        for (s, d, alts) in rebuilt.iter_pairs() {
            assert_eq!(alts.len(), 1, "{s}->{d} after the repair");
        }
    }

    #[test]
    fn link_utilization_switch_links_only() {
        let exp = small_exp(RoutingScheme::UpDown);
        let obs = exp.run_observed(0.006, &quick_opts());
        let (util, descs, _) = exp.link_utilization(&obs);
        // 4x4 torus: 32 switch links = 64 directed channels.
        assert_eq!(descs.len(), 64);
        assert_eq!(util.per_channel.len(), 64);
        assert!(util.max() > 0.0);
        assert!(util.max() <= 1.0);
        assert!(descs.iter().all(|d| d.switch_link));
    }

    /// 4 switch ports + 61 hosts: one more port than the kernel's `u64`
    /// masks hold. Refused here, not by `Simulator::new`'s assert.
    #[test]
    fn a_switch_past_the_port_bound_is_rejected() {
        let exp = |hosts| {
            Experiment::new(
                gen::torus_2d(3, 3, hosts).unwrap(),
                RoutingScheme::UpDown,
                RouteDbConfig::default(),
                PatternSpec::Uniform,
                SimConfig::default(),
            )
        };
        let err = exp(61).err().unwrap();
        assert!(err.contains("65 ports per switch"), "{err}");
        assert!(
            err.contains(&format!("at most {MAX_SWITCH_PORTS}")),
            "{err}"
        );
        assert_eq!(exp(60).unwrap().topology().max_ports(), 64);
    }

    #[test]
    fn invalid_pattern_is_rejected() {
        // Bit-reversal on a non-power-of-two host count must fail at
        // construction, not at run time.
        let err = Experiment::new(
            gen::cplant().unwrap(),
            RoutingScheme::UpDown,
            RouteDbConfig::default(),
            PatternSpec::BitReversal,
            SimConfig::default(),
        );
        assert!(err.is_err());
    }
}
