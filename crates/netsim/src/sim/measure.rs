//! What a run reports: the measurement window and its [`RunStats`], the
//! observers' switches and reports, the per-cycle watchdog and trace hook,
//! and the diagnostics (stall analysis, state dump, channel map).

use regnet_metrics::{Histogram, RunningStats};
use regnet_topology::{HostId, LinkEnd, NodeId, SwitchId, Topology};

use super::Simulator;
use crate::channel::{Receiver, Sender};
use crate::config::{
    CYCLE_NS, ITB_DETECT_CYCLES, ITB_DMA_CYCLES, ITB_OVERFLOW_PENALTY_CYCLES, LINK_DELAY_CYCLES,
    SWITCH_ROUTING_CYCLES,
};
use crate::counters::CounterSnapshot;
use crate::events::{EventJournal, EventOptions};
use crate::experiment::RunObservation;
use crate::kernel::KernelMeasure;
use crate::profiler::{ProfileReport, Profiler};
use crate::trace::{TraceOptions, TraceReport, TraceState};
use crate::wfg::StallReport;

/// Worst-case number of quiet cycles the engine can legitimately go
/// through while still making progress (routing delays, cable crossings,
/// in-transit detection + DMA + overflow handling), with generous slack.
/// Quiescence beyond this means nothing is coming.
const QUIESCENCE_THRESHOLD: u64 = 4
    * (LINK_DELAY_CYCLES as u64
        + SWITCH_ROUTING_CYCLES
        + ITB_DETECT_CYCLES
        + ITB_DMA_CYCLES
        + ITB_OVERFLOW_PENALTY_CYCLES)
    + 64;

/// Static description of a directed channel, for utilization maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelDesc {
    pub from: NodeId,
    pub to: NodeId,
    /// True for switch↔switch channels (the ones the paper's link
    /// utilization figures show).
    pub switch_link: bool,
}

/// Every directed channel of `topo` as `(sender end, receiver end)`, in
/// the simulator's channel order: links in id order, `ends[0] → ends[1]`
/// before `ends[1] → ends[0]`. The one definition of that order.
pub(super) fn directed_channels(topo: &Topology) -> impl Iterator<Item = (LinkEnd, LinkEnd)> + '_ {
    let links = topo.links().iter();
    links.flat_map(|l| [(l.ends[0], l.ends[1]), (l.ends[1], l.ends[0])])
}

impl ChannelDesc {
    /// Descriptors of every directed channel of `topo`, parallel to
    /// [`RunStats::channel_busy`], without building a simulator.
    pub(crate) fn of(topo: &Topology) -> Vec<ChannelDesc> {
        let desc = |(from, to): (LinkEnd, LinkEnd)| ChannelDesc {
            from: from.node(),
            to: to.node(),
            switch_link: matches!((from, to), (LinkEnd::Switch { .. }, LinkEnd::Switch { .. })),
        };
        directed_channels(topo).map(desc).collect()
    }
}

/// Aggregated results of one measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    pub window_cycles: u64,
    /// Messages delivered (a message is one packet).
    pub delivered: u64,
    pub delivered_payload_flits: u64,
    pub generated: u64,
    /// Network latency (injection → delivery), paper footnote 4.
    pub avg_latency_ns: f64,
    pub p99_latency_ns: f64,
    /// Generation → delivery (includes source queueing).
    pub avg_total_latency_ns: f64,
    pub avg_itbs_per_msg: f64,
    pub itb_overflows: u64,
    pub reinject_bubbles: u64,
    pub gen_stall_cycles: u64,
    pub max_pool_flits: u32,
    /// Busy cycles per directed channel during the window.
    pub channel_busy: Vec<u64>,
    /// Counter-registry snapshot over the window; `None` unless
    /// [`Simulator::enable_counters`] was called. Counters are pure event
    /// counts, so this stays `==`-comparable across same-seed runs.
    pub counters: Option<CounterSnapshot>,
}

impl RunStats {
    /// Accepted traffic in the paper's unit.
    pub fn accepted_flits_per_ns_per_switch(&self, n_switches: usize) -> f64 {
        self.delivered_payload_flits as f64
            / (self.window_cycles as f64 * CYCLE_NS)
            / n_switches as f64
    }
}

/// The open window's tallies.
#[derive(Default)]
pub(super) struct Measure {
    pub(super) on: bool,
    pub(super) latency: RunningStats,
    pub(super) total_latency: RunningStats,
    pub(super) hist: Histogram,
    pub(super) delivered: u64,
    pub(super) delivered_payload_flits: u64,
    pub(super) generated: u64,
    pub(super) itb_sum: u64,
    pub(super) gen_stall_cycles: u64,
    /// ITB overflows, re-injection bubbles and the pool high-water mark.
    pub(super) kernel: KernelMeasure,
}

impl Simulator<'_> {
    /// Enable the unified counter registry. Counting from this point on;
    /// [`begin_measurement`](Simulator::begin_measurement) resets it so the
    /// snapshot in [`RunStats`] covers exactly the measurement window.
    pub fn enable_counters(&mut self) {
        self.counters = Some(Box::default());
    }

    /// Current counter values; `None` when counting was never enabled.
    pub fn counter_snapshot(&self) -> Option<CounterSnapshot> {
        self.counters.as_deref().cloned()
    }

    /// Enable the structured event journal (see [`EventOptions`]).
    pub fn enable_events(&mut self, opts: EventOptions) {
        self.journal = Some(Box::new(EventJournal::new(opts)));
    }

    /// The event journal, if enabled.
    pub fn journal(&self) -> Option<&EventJournal> {
        self.journal.as_deref()
    }

    /// Take the journal out of the simulator (for export after a run).
    pub(crate) fn take_journal(&mut self) -> Option<Box<EventJournal>> {
        self.journal.take()
    }

    /// Enable per-phase wall-time profiling. Wall times never enter
    /// [`RunStats`]; collect them with
    /// [`profile_report`](Simulator::profile_report).
    pub(crate) fn enable_profiler(&mut self) {
        self.profiler = Some(Box::new(Profiler::new()));
    }

    /// Per-phase wall-time breakdown; `None` when profiling was never
    /// enabled.
    pub(crate) fn profile_report(&self) -> Option<ProfileReport> {
        self.profiler.as_deref().map(|p| p.report())
    }

    /// Enable the telemetry observers selected in `opts` (see
    /// [`TraceOptions`]). No-op when nothing is enabled. Call before
    /// running; observers record from this point on.
    pub fn enable_trace(&mut self, opts: TraceOptions) {
        if opts.any() {
            self.trace = Some(Box::new(TraceState::new(opts, self.channels.len())));
        }
    }

    /// Snapshot of everything the observers recorded so far; `None` when
    /// tracing was never enabled.
    pub fn trace_report(&self) -> Option<TraceReport> {
        self.trace.as_deref().map(|t| t.report())
    }

    /// Start the measurement window (resets all counters).
    pub fn begin_measurement(&mut self) {
        self.measure = Measure {
            on: true,
            ..Measure::default()
        };
        self.channels.reset_busy();
        if let Some(tr) = &mut self.trace {
            tr.on_busy_reset();
        }
        if let Some(c) = &mut self.counters {
            **c = CounterSnapshot::default();
        }
    }

    /// Close the measurement window and collect the results.
    pub fn end_measurement(&mut self, window_cycles: u64) -> RunStats {
        let m = &self.measure;
        let delivered = m.delivered;
        RunStats {
            window_cycles,
            delivered,
            delivered_payload_flits: m.delivered_payload_flits,
            generated: m.generated,
            // An empty window reports 0.0, not NaN: RunStats must stay
            // comparable with `==` (determinism suite) and finite in the
            // cell checkpoints written from it.
            avg_latency_ns: if delivered > 0 {
                m.latency.mean() * CYCLE_NS
            } else {
                0.0
            },
            p99_latency_ns: m.hist.quantile(0.99) as f64 * CYCLE_NS,
            avg_total_latency_ns: if delivered > 0 {
                m.total_latency.mean() * CYCLE_NS
            } else {
                0.0
            },
            avg_itbs_per_msg: if delivered > 0 {
                m.itb_sum as f64 / delivered as f64
            } else {
                0.0
            },
            itb_overflows: m.kernel.itb_overflows,
            reinject_bubbles: m.kernel.reinject_bubbles,
            gen_stall_cycles: m.gen_stall_cycles,
            max_pool_flits: m.kernel.max_pool_flits,
            channel_busy: self.channels.busy().to_vec(),
            counters: self.counter_snapshot(),
        }
    }

    /// Close the measurement window and collect it with every armed
    /// observer's report, the event journal taken out of the simulator:
    /// the one place a [`RunObservation`] is built.
    pub fn end_observation(&mut self, window_cycles: u64) -> RunObservation {
        RunObservation {
            stats: self.end_measurement(window_cycles),
            reliability: self.reliability(),
            trace: self.trace_report(),
            profile: self.profile_report(),
            journal: self.take_journal(),
        }
    }

    /// Watchdog + per-cycle observer work. `trace_ns`, on a sampled cycle,
    /// accumulates the wall time of the trace observer's end-of-cycle hook
    /// (the "trace" child span under the observers phase).
    pub(super) fn observer_phase(&mut self, cycle: u64, trace_ns: Option<&mut u64>) {
        // Watchdog: a quiescent network with live packets should be
        // impossible under the routing schemes' deadlock-freedom argument.
        // Before aborting, run the wait-for-graph analyzer so the panic
        // says *what kind* of stall this is (cyclic-dependency deadlock
        // vs. starvation/livelock) and which channels form the cycle.
        if self.arena.live() > 0
            && cycle - self.last_activity > self.cfg.watchdog_cycles
            && self.nics.iter().all(|n| n.tx.is_none() || n.stopped)
        {
            let report = self.analyze_stall();
            panic!(
                "watchdog: no flit moved for {} cycles with {} packets live at cycle {}\n{}",
                self.cfg.watchdog_cycles,
                self.arena.live(),
                cycle,
                report.summary
            );
        }

        if let Some(tr) = &mut self.trace {
            let mark = trace_ns.as_ref().map(|_| std::time::Instant::now());
            let live = self.arena.live() as u64;
            tr.on_cycle_end(
                cycle,
                self.channels.busy(),
                &self.nics,
                live,
                self.counters.as_deref(),
            );
            if let (Some(acc), Some(m)) = (trace_ns, mark) {
                *acc += m.elapsed().as_nanos() as u64;
            }
        }
    }

    /// Build the channel wait-for graph and classify the network's current
    /// state: [`Idle`](crate::wfg::StallClass::Idle),
    /// [`Active`](crate::wfg::StallClass::Active), a true cyclic-dependency
    /// [`Deadlock`](crate::wfg::StallClass::Deadlock) (naming the cycle's
    /// channels), or [`Starvation`](crate::wfg::StallClass::Starvation).
    pub fn analyze_stall(&mut self) -> StallReport {
        if let Some(c) = self.counters.as_deref_mut() {
            c.wfg_invocations += 1;
        }
        crate::wfg::analyze(
            &self.switches,
            self.arena.live(),
            self.cycle,
            self.last_activity,
            QUIESCENCE_THRESHOLD,
            &self.channel_descriptors(),
        )
    }

    /// Static channel descriptors (parallel to [`RunStats::channel_busy`]),
    /// read off the channels this simulator built; equal to
    /// `ChannelDesc::of` its topology.
    pub fn channel_descriptors(&self) -> Vec<ChannelDesc> {
        (0..self.channels.len() as u32)
            .map(|ci| {
                let from = match self.channels.sender(ci) {
                    Sender::SwitchOut { sw, .. } => NodeId::Switch(SwitchId(sw)),
                    Sender::Nic { host } => NodeId::Host(HostId(host)),
                };
                let to = match self.channels.receiver(ci) {
                    Receiver::SwitchIn { sw, .. } => NodeId::Switch(SwitchId(sw)),
                    Receiver::Nic { host } => NodeId::Host(HostId(host)),
                };
                let switch_link =
                    matches!(from, NodeId::Switch(_)) && matches!(to, NodeId::Switch(_));
                ChannelDesc {
                    from,
                    to,
                    switch_link,
                }
            })
            .collect()
    }

    /// Dump a human-readable snapshot of where every live packet is —
    /// diagnostic aid for stalls (used by tests and the `probe` binary).
    pub fn dump_state(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cycle {} live {} last_activity {}",
            self.cycle,
            self.arena.live(),
            self.last_activity
        );
        let in_flight = (0..self.channels.len() as u32)
            .filter(|&ci| self.channels.has_data_in_flight(ci))
            .count();
        let _ = writeln!(out, "channels with data in flight: {in_flight}");
        for (h, nic) in self.nics.iter().enumerate() {
            if nic.is_idle() {
                continue;
            }
            let _ = writeln!(
                out,
                "  nic {h}: q={} reinj={} rtx={} tx={:?} rx={:?} stopped={} pool={}",
                nic.local_queue.len(),
                nic.reinject.len(),
                nic.retransmit.len(),
                nic.tx,
                nic.rx,
                nic.stopped,
                nic.pool_used
            );
        }
        for (s, sw) in self.switches.iter().enumerate() {
            for &p in &sw.active_ports {
                let inp = sw.inp[p as usize].as_ref().unwrap();
                if let Some(head) = inp.queue().front() {
                    let _ = writeln!(
                        out,
                        "  sw {s} in p{p}: q={} occ={} head pid={} exp={} rx={} fwd={} state={:?} out={}",
                        inp.queue().len(),
                        inp.occ,
                        head.pid,
                        head.expected,
                        head.received,
                        head.forwarded,
                        inp.head(),
                        inp.head_out()
                    );
                }
                let conn = sw.outp[p as usize].as_ref().unwrap().conn_in();
                let stopped = sw.is_stopped(p as usize);
                if conn.is_some() || stopped {
                    let _ = writeln!(out, "  sw {s} out p{p}: conn={conn:?} stopped={stopped}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{build_ring4, small_cfg};
    use super::*;
    use crate::config::SimConfig;
    use regnet_core::{RouteDb, RouteDbConfig, RoutingScheme};
    use regnet_topology::TopologyBuilder;
    use regnet_traffic::{Pattern, PatternSpec};

    #[test]
    fn channel_busy_reported_per_channel() {
        let topo = build_ring4();
        let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let mut sim = Simulator::new(&topo, &db, &pattern, small_cfg(), 0.01, 1);
        let descs = sim.channel_descriptors();
        assert_eq!(descs.len(), topo.num_links() * 2);
        // Ring: 4 switch links * 2 directions are switch links.
        assert_eq!(descs.iter().filter(|d| d.switch_link).count(), 8);
        sim.begin_measurement();
        sim.run(50_000);
        let stats = sim.end_measurement(50_000);
        assert_eq!(stats.channel_busy.len(), descs.len());
        assert!(stats.channel_busy.iter().any(|&b| b > 0));
    }

    #[test]
    fn seeded_cyclic_routes_classified_as_deadlock_with_named_cycle() {
        use crate::wfg::StallClass;
        use regnet_core::{JourneyTemplate, Segment, SegmentEnd};
        use regnet_topology::Port;

        let topo = build_ring4();
        // Deliberately illegal route set: every packet from switch a to
        // switch b walks clockwise a -> a+1 -> ... -> b around the ring, so
        // the channel dependency graph contains the cycle
        // s0->s1 => s1->s2 => s2->s3 => s3->s0 (what up*/down* ordering or
        // ITB splitting would normally forbid).
        let n = 4usize;
        let mut templates = Vec::with_capacity(n * n);
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                let hops = ((b + 4 - a) % 4) as usize;
                let switches: Vec<SwitchId> =
                    (0..=hops).map(|k| SwitchId((a + k as u32) % 4)).collect();
                let ports: Vec<Port> = switches
                    .windows(2)
                    .map(|w| topo.port_to(w[0], w[1]).unwrap())
                    .collect();
                templates.push(vec![JourneyTemplate {
                    segments: vec![Segment {
                        switches,
                        ports,
                        end: SegmentEnd::Deliver,
                    }],
                }]);
            }
        }
        let db = RouteDb::from_templates(RoutingScheme::UpDown, n, topo.num_hosts(), templates);
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let mut sim = Simulator::new(&topo, &db, &pattern, SimConfig::default(), 0.0001, 1);
        sim.stop_generation();
        // One 512-flit message per switch, each two clockwise hops: every
        // packet holds its first ring channel while its head waits for the
        // next one, which the next packet holds — a true cyclic deadlock.
        for i in 0..4u32 {
            let src = topo.hosts_of(SwitchId(i))[0];
            let dst = topo.hosts_of(SwitchId((i + 2) % 4))[0];
            sim.schedule_message(src, dst, 0);
        }
        sim.run(30_000);
        let report = sim.analyze_stall();
        assert!(
            report.is_deadlock(),
            "expected deadlock, got: {}",
            report.summary
        );
        match &report.class {
            StallClass::Deadlock { cycle } => {
                assert_eq!(cycle.len(), 4, "ring cycle has 4 channels: {cycle:?}");
            }
            c => panic!("expected Deadlock, got {c:?}"),
        }
        // The summary names the cycle's channels for the operator.
        assert!(report.summary.contains("DEADLOCK"), "{}", report.summary);
        assert!(report.summary.contains("S0->S1"), "{}", report.summary);
        assert!(report.summary.contains("=>"), "{}", report.summary);
    }

    #[test]
    fn legal_routes_never_classified_as_deadlock() {
        use crate::wfg::StallClass;

        let topo = build_ring4();
        for scheme in [
            RoutingScheme::UpDown,
            RoutingScheme::ItbSp,
            RoutingScheme::ItbRr,
        ] {
            let db = RouteDb::build(&topo, scheme, &RouteDbConfig::default());
            let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
            // Far past saturation: heavy blocking, but legal routes cannot
            // produce a cyclic channel dependency.
            let mut sim = Simulator::new(&topo, &db, &pattern, small_cfg(), 0.5, 3);
            sim.run(30_000);
            let mid = sim.analyze_stall();
            assert!(
                matches!(mid.class, StallClass::Active),
                "{scheme:?} mid-run: {}",
                mid.summary
            );
            sim.stop_generation();
            assert!(
                sim.run_until_drained(5_000_000).is_some(),
                "{scheme:?} failed to drain:\n{}",
                sim.dump_state()
            );
            let idle = sim.analyze_stall();
            assert!(
                matches!(idle.class, StallClass::Idle),
                "{scheme:?} drained: {}",
                idle.summary
            );
        }
    }

    #[test]
    fn watchdog_tolerates_long_stop_go_exchanges() {
        use crate::channel::{CTL_GO, CTL_STOP};

        // Regression: control-symbol arrivals must count as watchdog
        // activity. A worm held by STOP for longer than `watchdog_cycles`
        // is a flow-controlled network, not a stall; before the fix the
        // watchdog panicked here once the in-flight data drained.
        let mut b = TopologyBuilder::new("line2", 4);
        b.add_switches(2);
        b.connect(SwitchId(0), SwitchId(1)).unwrap();
        b.attach_hosts_everywhere(1).unwrap();
        let topo = b.build().unwrap();
        let cfg = SimConfig {
            payload_flits: 4_000,
            watchdog_cycles: 200,
            ..SimConfig::default()
        };
        let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let mut sim = Simulator::new(&topo, &db, &pattern, cfg, 1e-9, 1);
        sim.stop_generation();
        sim.begin_measurement();
        sim.schedule_message(HostId(0), HostId(1), 0);

        // Let the worm start streaming.
        let mut guard = 0;
        while sim.nics[0].tx.is_none() {
            sim.step();
            guard += 1;
            assert!(guard < 1_000, "worm never started");
        }
        sim.run(30);

        // Impersonate the downstream switch: one STOP per cycle holds the
        // source NIC for 1_000 cycles — five watchdog windows. The flits
        // already in flight drain within a few dozen cycles; from then on
        // the STOP stream is the only activity in the network.
        let stop_chan = sim.nics[0].out_chan;
        let send_ctl = |sim: &mut Simulator, cycle: u64, symbol: u8| {
            let row = sim.channels.row(cycle);
            sim.channels.send_ctl(row, stop_chan, symbol);
        };
        for _ in 0..1_000 {
            let c = sim.cycle;
            sim.step();
            send_ctl(&mut sim, c, CTL_STOP);
        }
        assert!(sim.nics[0].stopped, "STOP stream should hold the NIC");
        assert!(
            sim.nics[0].tx.is_some(),
            "the worm must still be mid-transmission"
        );
        assert_eq!(sim.packets_in_flight(), 1);

        // Release the worm and check it completes.
        let c = sim.cycle;
        sim.step();
        send_ctl(&mut sim, c, CTL_GO);
        assert!(
            sim.run_until_drained(100_000).is_some(),
            "worm failed to finish after GO:\n{}",
            sim.dump_state()
        );
        let window = sim.cycle;
        let stats = sim.end_measurement(window);
        assert_eq!(stats.delivered, 1);
    }
}
