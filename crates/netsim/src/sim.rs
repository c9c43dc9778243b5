//! The cycle-driven simulation engine.
//!
//! Each cycle runs five phases in a fixed order:
//!
//! 1. **Control arrivals** — stop/go symbols reaching senders flip their
//!    `stopped` flags.
//! 2. **Data arrivals** — flits reaching switch input buffers and NICs are
//!    accounted; buffer thresholds may emit STOP; NIC headers trigger
//!    delivery or in-transit processing.
//! 3. **Switches** — routing control units consume header flits (150 ns),
//!    output ports arbitrate (demand-slotted round-robin) and connected
//!    inputs forward one flit through the crossbar.
//! 4. **NIC transmission** — each NIC sends one flit of its current packet
//!    (new injection or in-transit re-injection) if flow control allows.
//! 5. **Generation** — hosts create new messages according to the offered
//!    load.
//!
//! What phases 1–4 *do* is `crate::kernel`, shared by the engine and its
//! scan oracle; this file owns the simulator's state, the phase sequence
//! ([`Simulator::step`]), the sink for the kernel's effects, generation
//! and the fault machinery.

use std::cmp::Reverse;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use regnet_core::{PathSelector, RouteDb, SrcSelector};
use regnet_mapper::{rebuild_physical_routes, FaultSet, PhysicalRoutes};
use regnet_metrics::{Histogram, RunningStats};
use regnet_topology::{HostId, LinkEnd, NodeId, SwitchId, Topology};
use regnet_traffic::{interarrival_cycles, Pattern};

use crate::channel::{Channel, Receiver, Sender};
use crate::config::{GenerationProcess, SimConfig, CYCLE_NS};
use crate::counters::{CounterSnapshot, Counters};
use crate::events::{EventJournal, EventKind, EventOptions, NO_PACKET};
use crate::faultplan::{FaultEvent, FaultOptions, FaultRuntime, FaultTarget, ReliabilityStats};
use crate::kernel::{self, At, Fx, KernelMeasure, Sink, SwitchSpan, Tick};
use crate::nic::Nic;
use crate::packet::{Arena, Packet, PacketArena};
use crate::profiler::{times_children, Phase, ProfileReport, Profiler, SpanReport};
use crate::sched::{ActiveSched, Scheduler};
use crate::switch::{HeadState, SwitchState};
use crate::trace::{TraceOptions, TraceReport, TraceState};
use crate::wfg::StallReport;

// The run loops' time skip lives in its own file for readability, but is a
// *child* module of `sim` so it can reach the simulator's internals without
// widening their visibility.
#[path = "event.rs"]
mod event;

/// Static description of a directed channel, for utilization maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelDesc {
    pub from: NodeId,
    pub to: NodeId,
    /// True for switch↔switch channels (the ones the paper's link
    /// utilization figures show).
    pub switch_link: bool,
}

/// Aggregated results of one measurement window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    pub window_cycles: u64,
    /// Messages fully delivered (all their packets reassembled).
    pub delivered: u64,
    /// Packets delivered (== `delivered` unless MTU segmentation is on).
    pub delivered_packets: u64,
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

#[derive(Default)]
struct Measure {
    on: bool,
    latency: RunningStats,
    total_latency: RunningStats,
    hist: Histogram,
    delivered: u64,
    delivered_packets: u64,
    delivered_payload_flits: u64,
    generated: u64,
    itb_sum: u64,
    gen_stall_cycles: u64,
    /// ITB overflows, re-injection bubbles and the pool high-water mark.
    kernel: KernelMeasure,
}

/// Reassembly state of one message (one or more packets).
#[derive(Debug)]
pub(crate) struct MsgState {
    pub(crate) remaining: u16,
    pub(crate) gen_cycle: u64,
    pub(crate) first_inject: u64,
    pub(crate) itbs: u16,
    /// At least one packet of this message was dropped by a fault; the
    /// message can never complete.
    pub(crate) failed: bool,
}

/// The tables new routes are drawn from: the reconfigured ones once a
/// rebuild has installed some, the build-time ones before.
fn route_db<'a>(faults: Option<&'a FaultRuntime>, built: &'a RouteDb) -> &'a RouteDb {
    let rebuilt = faults.and_then(|f| f.routes.as_ref());
    rebuilt.map_or(built, |r| &r.db)
}

/// Profiler lap: charge the time since `mark` to `phase`. A no-op — and
/// no `Instant::now()` — unless profiling is on (`mark` is `Some`).
#[inline]
fn lap(prof: &mut Option<Box<Profiler>>, mark: &mut Option<Instant>, phase: Phase) {
    if let Some(m) = mark {
        let now = Instant::now();
        let p = prof.as_deref_mut().expect("a mark without a profiler");
        p.add(phase, (now - *m).as_nanos() as u64);
        *m = now;
    }
}

/// The simulator's [`Sink`]: disjoint `&mut` borrows of its fields, every
/// effect applied the moment the kernel emits it (only the deferred losses
/// keep their [`At`] key).
pub(crate) struct SeqSink<'s> {
    pub(crate) cycle: u64,
    pub(crate) channels: &'s mut [Channel],
    arena: &'s mut PacketArena,
    msgs: &'s mut Arena<MsgState>,
    selector: &'s mut PathSelector,
    sched: Option<&'s mut ActiveSched>,
    counters: Option<&'s mut Counters>,
    journal: Option<&'s mut EventJournal>,
    trace: Option<&'s mut TraceState>,
    measure: &'s mut Measure,
    rel: &'s mut ReliabilityStats,
    last_activity: &'s mut u64,
    pending_loss: &'s mut Vec<(At, u32)>,
    /// Iff profiling and this cycle is sampled: the last span lap, and the
    /// (routing, crossbar) ns inside the switch phase this cycle.
    spans: Option<(Instant, [u64; 2])>,
}

impl SeqSink<'_> {
    #[inline]
    fn record(&mut self, pid: u32, kind: EventKind) {
        if let Some(j) = self.journal.as_deref_mut() {
            j.record(self.cycle, pid, kind);
        }
    }

    /// Arena/message bookkeeping, measurement, counters, journal and trace
    /// hooks of a completed delivery.
    fn complete_delivery(&mut self, pid: u32, host: u32) {
        let cycle = self.cycle;
        let pkt = self.arena.remove(pid);
        let ms = self.msgs.get_mut(pkt.msg);
        ms.remaining -= 1;
        ms.itbs += pkt.itbs_used as u16;
        let done = ms.remaining == 0;
        if self.measure.on {
            let m = &mut *self.measure;
            m.delivered_packets += 1;
            m.delivered_payload_flits += pkt.payload as u64;
        }
        self.count(|c| c.packets_delivered += 1);
        self.record(pid, EventKind::Deliver { dst: host });
        if !done {
            return;
        }
        // All packets of the message reassembled: the message is delivered
        // (with mtu_flits = None this is every packet, the paper's model).
        let ms = self.msgs.remove(pkt.msg);
        if ms.failed {
            // A sibling packet was dropped by a fault (only possible with
            // MTU segmentation): the message never completes at the
            // receiver.
            self.rel.dropped_messages += 1;
            return;
        }
        if self.measure.on {
            let m = &mut *self.measure;
            m.delivered += 1;
            m.itb_sum += ms.itbs as u64;
            m.latency.push((cycle - ms.first_inject) as f64);
            m.hist.record(cycle - ms.first_inject);
            m.total_latency.push((cycle - ms.gen_cycle) as f64);
        }
        self.count(|c| c.messages_delivered += 1);
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.on_message_delivered(
                cycle,
                pkt.journey.src.0,
                pkt.journey.dst.0,
                pkt.payload as u64,
                ms.itbs as u64,
                ms.first_inject,
            );
        }
    }
}

impl Sink for SeqSink<'_> {
    #[inline]
    fn pkt(&mut self, pid: u32) -> &mut Packet {
        self.arena.get_mut(pid)
    }
    #[inline]
    fn msg(&mut self, midx: u32) -> &mut MsgState {
        self.msgs.get_mut(midx)
    }
    #[inline]
    fn selector(&mut self, src: HostId) -> &mut SrcSelector {
        self.selector.src_mut(src)
    }
    #[inline]
    fn is_dead(&self, ci: u32) -> bool {
        self.channels[ci as usize].is_dead()
    }

    // `send` and `send_ctl` are forced inline: the kernel is instantiated
    // once per sink, and with a mere hint LLVM outlines these two (and
    // `SwitchState::forward_flit`) from the switch loop — measured at +7 %
    // wall time on the saturated torus.
    #[inline(always)]
    fn send(&mut self, ci: u32, pid: u32) {
        self.channels[ci as usize].data.send(self.cycle, pid);
        if let Some(sc) = self.sched.as_deref_mut() {
            sc.note_data(self.cycle, ci);
        }
    }
    #[inline(always)]
    fn send_ctl(&mut self, ci: u32, symbol: u8) {
        self.channels[ci as usize].ctl.send(self.cycle, symbol);
        if let Some(sc) = self.sched.as_deref_mut() {
            sc.note_ctl(self.cycle, ci);
        }
    }
    #[inline]
    fn activate_switch(&mut self, sw: u32) {
        if let Some(sc) = self.sched.as_deref_mut() {
            sc.activate_switch(sw);
        }
    }
    #[inline]
    fn wake_nic_at(&mut self, ready: u64, host: u32) {
        if let Some(sc) = self.sched.as_deref_mut() {
            sc.wake_nic_at(ready, host);
        }
    }
    #[inline]
    fn activity(&mut self) {
        *self.last_activity = self.cycle;
    }
    #[inline]
    fn count(&mut self, bump: impl FnOnce(&mut Counters)) {
        if let Some(c) = self.counters.as_deref_mut() {
            bump(c);
        }
    }
    #[inline]
    fn diag(&self) -> bool {
        self.counters.is_some() || self.journal.is_some()
    }
    #[inline]
    fn measure(&mut self, update: impl FnOnce(&mut KernelMeasure)) {
        if self.measure.on {
            update(&mut self.measure.kernel);
        }
    }
    #[inline]
    fn journal_on(&self) -> bool {
        self.journal.is_some()
    }
    #[inline]
    fn fx(&mut self, at: At, fx: Fx) {
        match fx {
            Fx::Journal { pid, kind } => self.record(pid, kind),
            Fx::ItbEject {
                pid,
                host,
                overflow,
            } => {
                if let Some(tr) = self.trace.as_deref_mut() {
                    tr.on_itb_eject(self.cycle, pid);
                }
                self.record(pid, EventKind::ItbEject { host, overflow });
            }
            Fx::Reinject { pid, host } => {
                if let Some(tr) = self.trace.as_deref_mut() {
                    tr.on_reinject_start(self.cycle, pid);
                }
                self.record(pid, EventKind::Reinject { host });
            }
            Fx::Deliver { pid, host } => self.complete_delivery(pid, host),
            Fx::Lose { pid } => self.pending_loss.push((at, pid)),
        }
    }
    #[inline]
    fn span_lap(&mut self, span: Option<SwitchSpan>) {
        if let Some((mark, acc)) = self.spans.as_mut() {
            let now = Instant::now();
            if let Some(span) = span {
                acc[span as usize] += (now - *mark).as_nanos() as u64;
            }
            *mark = now;
        }
    }
}

/// What the kernel's per-channel deliveries and phase loops walk: the
/// component arrays next to the sink that borrows everything else, so
/// that one component and the sink can be borrowed at once.
pub(crate) struct SeqParts<'s> {
    pub(crate) switches: &'s mut [SwitchState],
    pub(crate) nics: &'s mut [Nic],
    pub(crate) sink: SeqSink<'s>,
}

impl SeqParts<'_> {
    /// The wake wheels and active lists the phase loops drain. The scan
    /// oracle has none and never asks.
    #[inline]
    pub(crate) fn sched(&mut self) -> &mut ActiveSched {
        let sched = self.sink.sched.as_deref_mut();
        sched.expect("phase loop without wake state")
    }
}

/// The simulator: a concrete network (topology + routing tables + traffic
/// pattern) driven cycle by cycle.
pub struct Simulator<'a> {
    topo: &'a Topology,
    db: &'a RouteDb,
    pattern: &'a Pattern,
    cfg: SimConfig,
    interarrival: f64,
    cycle: u64,
    channels: Vec<Channel>,
    switches: Vec<SwitchState>,
    nics: Vec<Nic>,
    arena: PacketArena,
    msgs: Arena<MsgState>,
    selector: PathSelector,
    measure: Measure,
    last_activity: u64,
    /// Telemetry observers; `None` (the default) keeps every hook in the
    /// hot path down to a single branch.
    trace: Option<Box<TraceState>>,
    /// Fault-injection runtime; `None` (the default) keeps the fault hooks
    /// in the hot path down to a single branch.
    faults: Option<Box<FaultRuntime>>,
    /// Dependability counters; all zeros unless faults are armed.
    rel: ReliabilityStats,
    /// Counter registry; `None` (the default) costs one branch per hook.
    counters: Option<Box<Counters>>,
    /// Structured event journal; `None` (the default) costs one branch per
    /// hook.
    journal: Option<Box<EventJournal>>,
    /// Per-phase wall-time profiler; `None` (the default) keeps `step` on
    /// the untimed fast path.
    profiler: Option<Box<Profiler>>,
    /// The engine's wake state; `None` runs the full-scan oracle loop (see
    /// [`Scheduler`]).
    sched: Option<Box<ActiveSched>>,
    /// Directed channel indices per physical link (both directions).
    link_chans: Vec<[u32; 2]>,
    /// This cycle's deferred losses: worms that hit a dead output
    /// (`At::Switch`) and packets that became unroutable at their source
    /// NIC (`At::Nic`). Truncated or dropped in the loss phase after NIC
    /// transmission so engine and oracle mutate the arenas in the same order
    /// (see `loss_phase`).
    pending_loss: Vec<(At, u32)>,
    /// `stop_generation` was called: never restart generators, even when a
    /// repaired host comes back.
    gen_frozen: bool,
    /// No host creates a message before this cycle: the minimum, over the
    /// hosts allowed to generate, of the next generation cycle and the
    /// head of the `scheduled` queue. `gen_phase` returns at once below it
    /// and recomputes it during each full scan; whatever makes a message
    /// due earlier (`schedule_message`, a host coming back) lowers it. It
    /// may be early — a scan with nothing due is a no-op — never late.
    gen_due: u64,
    /// Total cycles `run`/`run_until_drained` jumped over (see `event.rs`).
    skipped_cycles: u64,
    /// Optional `(from, to)` record of every jump — test instrumentation,
    /// never enters `RunStats` or the counter snapshot.
    skip_log: Option<Vec<(u64, u64)>>,
}

impl<'a> Simulator<'a> {
    /// Build a simulator for `offered` flits/ns/switch. Deterministic for a
    /// given `seed`.
    pub fn new(
        topo: &'a Topology,
        db: &'a RouteDb,
        pattern: &'a Pattern,
        cfg: SimConfig,
        offered: f64,
        seed: u64,
    ) -> Simulator<'a> {
        cfg.validate().expect("invalid simulation config");
        assert!(
            topo.max_ports() <= 64,
            "the switch kernel tracks ports in u64 bitmasks: at most 64 ports per switch, \
             this topology has {}",
            topo.max_ports()
        );
        let interarrival = interarrival_cycles(
            offered,
            topo.num_switches(),
            topo.num_hosts(),
            cfg.payload_flits,
        );

        // Build channels: two directed channels per physical link.
        let mut channels: Vec<Channel> = Vec::with_capacity(topo.num_links() * 2);
        // (sw, port) -> (in_chan, out_chan)
        let ports = topo.max_ports() as usize;
        let mut sw_in = vec![u32::MAX; topo.num_switches() * ports];
        let mut sw_out = vec![u32::MAX; topo.num_switches() * ports];
        let mut nic_out = vec![u32::MAX; topo.num_hosts()];
        let end_sender = |e: &LinkEnd| match *e {
            LinkEnd::Switch { sw, port } => Sender::SwitchOut {
                sw: sw.0,
                port: port.0,
            },
            LinkEnd::Host { host } => Sender::Nic { host: host.0 },
        };
        let end_receiver = |e: &LinkEnd| match *e {
            LinkEnd::Switch { sw, port } => Receiver::SwitchIn {
                sw: sw.0,
                port: port.0,
            },
            LinkEnd::Host { host } => Receiver::Nic { host: host.0 },
        };
        let mut link_chans: Vec<[u32; 2]> = Vec::with_capacity(topo.num_links());
        for link in topo.links() {
            let mut pair = [u32::MAX; 2];
            for (k, (s, r)) in [(0usize, 1usize), (1, 0)].into_iter().enumerate() {
                let idx = channels.len() as u32;
                pair[k] = idx;
                let sender = end_sender(&link.ends[s]);
                let receiver = end_receiver(&link.ends[r]);
                channels.push(Channel::new(sender, receiver, cfg.link_delay_cycles));
                match sender {
                    Sender::SwitchOut { sw, port } => {
                        sw_out[sw as usize * ports + port as usize] = idx
                    }
                    Sender::Nic { host } => nic_out[host as usize] = idx,
                }
                match receiver {
                    Receiver::SwitchIn { sw, port } => {
                        sw_in[sw as usize * ports + port as usize] = idx
                    }
                    Receiver::Nic { .. } => {}
                }
            }
            link_chans.push(pair);
        }

        let switches: Vec<SwitchState> = topo
            .switches()
            .map(|s| {
                SwitchState::new((0..ports).map(|p| {
                    let ic = sw_in[s.idx() * ports + p];
                    let oc = sw_out[s.idx() * ports + p];
                    debug_assert_eq!(ic == u32::MAX, oc == u32::MAX);
                    (ic != u32::MAX).then_some((ic, oc))
                }))
            })
            .collect();

        let mut nics: Vec<Nic> = topo
            .hosts()
            .map(|h| {
                let rng = SmallRng::seed_from_u64(seed ^ 0x5EED_0000 ^ (h.0 as u64) << 20);
                Nic::new(nic_out[h.idx()], rng)
            })
            .collect();

        // Random initial phase for the constant-rate generators; silent
        // hosts never generate.
        for (i, nic) in nics.iter_mut().enumerate() {
            if pattern.host_generates(regnet_topology::HostId(i as u32)) {
                nic.next_gen = nic.rng.gen::<f64>() * interarrival;
            } else {
                nic.next_gen = f64::MAX;
            }
        }

        let selector = db.selector();
        let mut sim = Simulator {
            topo,
            db,
            pattern,
            cfg,
            interarrival,
            cycle: 0,
            channels,
            switches,
            nics,
            arena: PacketArena::new(),
            msgs: Arena::new(),
            selector,
            measure: Measure::default(),
            last_activity: 0,
            trace: None,
            faults: None,
            rel: ReliabilityStats::default(),
            counters: None,
            journal: None,
            profiler: None,
            sched: None,
            link_chans,
            pending_loss: Vec::new(),
            gen_frozen: false,
            gen_due: 0,
            skipped_cycles: 0,
            skip_log: None,
        };
        sim.set_scheduler(Scheduler::default());
        sim
    }

    /// Swap the cycle loop for the `Scan` oracle (or back). A simulator
    /// starts on the engine, [`Scheduler::ActiveSet`]; only the equivalence
    /// suites have a reason to call this. Must be called before the first
    /// [`step`](Simulator::step): the engine derives its wake-ups from
    /// channel writes it observed, so it can only take over an empty
    /// network.
    pub fn set_scheduler(&mut self, s: Scheduler) {
        assert_eq!(
            self.cycle, 0,
            "scheduler must be selected before the first cycle"
        );
        self.sched = match s {
            Scheduler::Scan => None,
            // The last two are retired labels, not engines (see their doc
            // comments): they run, and report as, the active set.
            Scheduler::ActiveSet | Scheduler::EventDriven | Scheduler::Parallel { .. } => {
                Some(Box::new(ActiveSched::new(
                    self.cfg.link_delay_cycles,
                    self.switches.len(),
                    self.nics.len(),
                )))
            }
        };
    }

    /// The cycle loop in effect.
    pub fn scheduler(&self) -> Scheduler {
        if self.sched.is_some() {
            Scheduler::ActiveSet
        } else {
            Scheduler::Scan
        }
    }

    /// Enable the unified counter registry. Counting from this point on;
    /// [`begin_measurement`](Simulator::begin_measurement) resets it so the
    /// snapshot in [`RunStats`] covers exactly the measurement window.
    pub fn enable_counters(&mut self) {
        self.counters = Some(Box::new(Counters::new()));
    }

    /// Current counter values; `None` when counting was never enabled.
    pub fn counter_snapshot(&self) -> Option<CounterSnapshot> {
        self.counters.as_deref().map(|c| c.snapshot())
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
    pub fn take_journal(&mut self) -> Option<Box<EventJournal>> {
        self.journal.take()
    }

    /// Enable per-phase wall-time profiling. Wall times never enter
    /// [`RunStats`]; collect them with
    /// [`profile_report`](Simulator::profile_report).
    pub fn enable_profiler(&mut self) {
        self.profiler = Some(Box::new(Profiler::new()));
    }

    /// Per-phase wall-time breakdown; `None` when profiling was never
    /// enabled.
    pub fn profile_report(&self) -> Option<ProfileReport> {
        self.profiler.as_deref().map(|p| p.report())
    }

    /// Hierarchical span view of the same profile (phase → component
    /// bucket); `None` when profiling was never enabled.
    pub fn span_report(&self) -> Option<SpanReport> {
        self.profiler.as_deref().map(|p| p.span_report())
    }

    /// Arm the fault-injection runtime with `opts` (see [`FaultOptions`]).
    /// Call before running; events earlier than the current cycle fire
    /// immediately on the next step.
    pub fn enable_faults(&mut self, opts: FaultOptions) {
        self.faults = Some(Box::new(FaultRuntime::new(opts, self.topo.num_hosts())));
    }

    /// Dependability counters so far; all zeros when faults were never
    /// enabled.
    pub fn reliability(&self) -> ReliabilityStats {
        self.rel.clone()
    }

    /// The routing tables installed by the last successful mid-run
    /// reconfiguration, if any.
    pub fn reconfigured_routes(&self) -> Option<&PhysicalRoutes> {
        self.faults.as_deref().and_then(|f| f.routes.as_ref())
    }

    /// The faults currently in force, if fault injection is enabled.
    pub fn active_faults(&self) -> Option<&FaultSet> {
        self.faults.as_deref().map(|f| &f.active)
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

    /// Worst-case number of quiet cycles the engine can legitimately go
    /// through while still making progress (routing delays, cable
    /// crossings, in-transit detection + DMA + overflow handling), with
    /// generous slack. Quiescence beyond this means nothing is coming.
    fn quiescence_threshold(&self) -> u64 {
        4 * (self.cfg.link_delay_cycles as u64
            + self.cfg.switch_routing_cycles as u64
            + self.cfg.itb_detect_cycles as u64
            + self.cfg.itb_dma_cycles as u64
            + self.cfg.itb_overflow_penalty_cycles as u64)
            + 64
    }

    /// Build the channel wait-for graph and classify the network's current
    /// state: [`Idle`](crate::wfg::StallClass::Idle),
    /// [`Active`](crate::wfg::StallClass::Active), a true cyclic-dependency
    /// [`Deadlock`](crate::wfg::StallClass::Deadlock) (naming the cycle's
    /// channels), or [`Starvation`](crate::wfg::StallClass::Starvation).
    pub fn analyze_stall(&self) -> StallReport {
        if let Some(c) = self.counters.as_deref() {
            c.wfg_invocations.set(c.wfg_invocations.get() + 1);
        }
        crate::wfg::analyze(
            &self.switches,
            self.arena.live(),
            self.cycle,
            self.last_activity,
            self.quiescence_threshold(),
            &self.channel_descriptors(),
        )
    }

    /// Test oracle: recompute every switch's port summaries (the masks the
    /// kernel iterates, the resident-packet count behind quiescence) from
    /// the port state and panic on a mismatch. Valid between steps.
    pub fn check_invariants(&self) {
        for sw in &self.switches {
            sw.check_invariants();
        }
    }

    /// Current simulation time, cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Packets currently alive (queued, in flight, or in transit).
    pub fn packets_in_flight(&self) -> usize {
        self.arena.live()
    }

    /// Static channel descriptors (parallel to [`RunStats::channel_busy`]).
    pub fn channel_descriptors(&self) -> Vec<ChannelDesc> {
        self.channels
            .iter()
            .map(|c| {
                let from = match c.sender {
                    Sender::SwitchOut { sw, .. } => NodeId::Switch(regnet_topology::SwitchId(sw)),
                    Sender::Nic { host } => NodeId::Host(regnet_topology::HostId(host)),
                };
                let to = match c.receiver {
                    Receiver::SwitchIn { sw, .. } => NodeId::Switch(regnet_topology::SwitchId(sw)),
                    Receiver::Nic { host } => NodeId::Host(regnet_topology::HostId(host)),
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

    /// Run for `cycles` cycles. Idle spans are jumped over, but the loop
    /// still stops exactly at `cycle + cycles`, so measurement-window
    /// boundaries are unaffected.
    pub fn run(&mut self, cycles: u64) {
        let end = self.cycle + cycles;
        while self.cycle < end {
            self.try_time_skip(end);
            if self.cycle >= end {
                break;
            }
            self.step();
        }
    }

    /// Start the measurement window (resets all counters).
    pub fn begin_measurement(&mut self) {
        self.measure = Measure {
            on: true,
            ..Measure::default()
        };
        for ch in &mut self.channels {
            ch.reset_busy();
        }
        if let Some(tr) = &mut self.trace {
            tr.on_busy_reset();
        }
        if let Some(c) = &mut self.counters {
            c.reset();
        }
    }

    /// Close the measurement window and collect the results.
    pub fn end_measurement(&mut self, window_cycles: u64) -> RunStats {
        let m = &self.measure;
        let delivered = m.delivered;
        RunStats {
            window_cycles,
            delivered,
            delivered_packets: m.delivered_packets,
            delivered_payload_flits: m.delivered_payload_flits,
            generated: m.generated,
            // An empty window reports 0.0, not NaN: RunStats must stay
            // comparable with `==` (determinism suite) and serializable.
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
            channel_busy: self.channels.iter().map(|c| c.busy_cycles()).collect(),
            counters: self.counter_snapshot(),
        }
    }

    /// Permanently stop message generation at every host. Used to drain
    /// the network at the end of a run (every in-flight packet must then
    /// eventually be delivered — the no-deadlock invariant).
    pub fn stop_generation(&mut self) {
        self.gen_frozen = true;
        for nic in &mut self.nics {
            nic.next_gen = f64::MAX;
        }
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
        let in_flight = self
            .channels
            .iter()
            .filter(|c| c.has_data_in_flight())
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
                let outp = sw.outp[p as usize].as_ref().unwrap();
                if outp.conn_in().is_some() || outp.stopped {
                    let _ = writeln!(
                        out,
                        "  sw {s} out p{p}: conn={:?} stopped={}",
                        outp.conn_in(),
                        outp.stopped
                    );
                }
            }
        }
        out
    }

    /// Advance one cycle: the one phase sequence both loops run. Phases
    /// 1–4 are the kernel's (`crate::kernel`); the rest is the same code
    /// under either. With the profiler on, each phase ends in a lap, and a
    /// hashed sample of cycles also times the child spans (`sample` holds
    /// the phase totals that cycle began from); off, `mark` stays `None`
    /// and no `Instant::now()` is ever called.
    pub fn step(&mut self) {
        let cycle = self.cycle;
        let sample = self
            .profiler
            .as_deref()
            .filter(|_| times_children(cycle))
            .map(|p| p.ns);
        let mut mark = self.profiler.as_ref().map(|_| Instant::now());
        // ---- Phase 0: fault events, purges, reconfig.
        if self.faults.is_some() {
            self.fault_phase(cycle);
        }
        lap(&mut self.profiler, &mut mark, Phase::Faults);
        // ---- Phases 1-4: control, arrivals, switches, NIC transmission.
        self.kernel_phases(cycle, &mut mark, sample.is_some());
        // ---- Phase 6: deferred mid-cycle losses (faulted runs).
        if self.faults.is_some() {
            self.loss_phase(cycle);
        }
        lap(&mut self.profiler, &mut mark, Phase::Faults);
        self.gen_phase(cycle);
        lap(&mut self.profiler, &mut mark, Phase::Generation);
        let mut trace_ns = 0u64;
        self.observer_phase(cycle, sample.is_some().then_some(&mut trace_ns));
        lap(&mut self.profiler, &mut mark, Phase::Observers);
        if let Some(p) = self.profiler.as_deref_mut() {
            if let Some(before) = sample {
                p.add_child(Phase::Observers, "trace", trace_ns);
                p.end_sample(before);
            }
            p.cycles += 1;
        }
        self.cycle += 1;
    }

    /// Split the simulator into what the kernel phases of one cycle work
    /// on — the component arrays next to the sink that borrows everything
    /// they emit into, and the cycle's constants — plus the profiler, for
    /// the laps in between. `timed`: the sink times the switch spans.
    #[inline]
    fn split(
        &mut self,
        cycle: u64,
        timed: bool,
    ) -> (SeqParts<'_>, Tick<'_>, &mut Option<Box<Profiler>>) {
        let faults = self.faults.as_deref();
        let tick = Tick {
            cycle,
            cfg: &self.cfg,
            faults,
            db: route_db(faults, self.db),
            topo: self.topo,
        };
        let sink = SeqSink {
            cycle,
            channels: &mut self.channels,
            arena: &mut self.arena,
            msgs: &mut self.msgs,
            selector: &mut self.selector,
            sched: self.sched.as_deref_mut(),
            counters: self.counters.as_deref_mut(),
            journal: self.journal.as_deref_mut(),
            trace: self.trace.as_deref_mut(),
            measure: &mut self.measure,
            rel: &mut self.rel,
            last_activity: &mut self.last_activity,
            pending_loss: &mut self.pending_loss,
            spans: timed.then(|| (Instant::now(), [0; 2])),
        };
        let parts = SeqParts {
            switches: &mut self.switches,
            nics: &mut self.nics,
            sink,
        };
        (parts, tick, &mut self.profiler)
    }

    /// Phases 1-4. The engine runs the kernel's wheel-drain and active-list
    /// loops; `Scheduler::Scan`, the oracle the equivalence suites diff
    /// against, visits every channel, switch and NIC in index order
    /// instead — same kernel, every component.
    fn kernel_phases(&mut self, cycle: u64, mark: &mut Option<Instant>, timed: bool) {
        let n_channels = self.channels.len() as u32;
        let n_switches = self.switches.len() as u32;
        let n_nics = self.nics.len() as u32;
        let (mut p, t, prof) = self.split(cycle, timed);
        let scan = p.sink.sched.is_none();
        if scan {
            (0..n_channels).for_each(|ci| kernel::deliver_ctl(&mut p, ci));
        } else {
            kernel::ctl_phase(&mut p, &t);
        }
        lap(prof, mark, Phase::Control);
        if scan {
            (0..n_channels).for_each(|ci| kernel::deliver_data(&mut p, ci, &t));
        } else {
            kernel::arrival_phase(&mut p, &t);
        }
        lap(prof, mark, Phase::Arrivals);
        if scan {
            for s in 0..n_switches {
                kernel::switch_phase(&mut p.switches[s as usize], s, &t, &mut p.sink);
            }
        } else {
            kernel::switches_phase(&mut p, &t);
        }
        lap(prof, mark, Phase::Switches);
        if let (Some(pr), Some((_, [routing, crossbar]))) = (prof.as_deref_mut(), p.sink.spans) {
            pr.add_child(Phase::Switches, "routing", routing);
            pr.add_child(Phase::Switches, "crossbar", crossbar);
        }
        if scan {
            for h in 0..n_nics {
                kernel::nic_tx(&mut p.nics[h as usize], h, &t, &mut p.sink);
            }
        } else {
            kernel::nic_tx_phase(&mut p, &t);
        }
        lap(prof, mark, Phase::NicTx);
    }

    /// Phase 5: message generation. Nothing is due before `gen_due`, so
    /// most cycles return at once; a cycle that scans the hosts learns the
    /// next due cycle from them as it goes.
    fn gen_phase(&mut self, cycle: u64) {
        if cycle < self.gen_due {
            return;
        }
        let mut due = u64::MAX;
        for h in 0..self.nics.len() {
            due = due.min(self.nic_gen(h, cycle));
        }
        self.gen_due = due;
    }

    /// Watchdog + per-cycle observer work. `trace_ns`, on a sampled cycle,
    /// accumulates the wall time of the trace observer's end-of-cycle hook
    /// (the "trace" child span under the observers phase).
    fn observer_phase(&mut self, cycle: u64, trace_ns: Option<&mut u64>) {
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
                &self.channels,
                &self.nics,
                live,
                self.counters.as_deref(),
            );
            if let (Some(acc), Some(m)) = (trace_ns, mark) {
                *acc += m.elapsed().as_nanos() as u64;
            }
        }
    }

    /// Schedule an explicit message (the scripted traffic of the tests).
    /// Messages at each host must be scheduled with non-decreasing
    /// `at_cycle`; they are injected in order once the cycle is reached.
    pub fn schedule_message(
        &mut self,
        src: regnet_topology::HostId,
        dst: regnet_topology::HostId,
        at_cycle: u64,
    ) {
        assert_ne!(src, dst, "a host cannot message itself through the network");
        let nic = &mut self.nics[src.idx()];
        if let Some(&(last, _)) = nic.scheduled.back() {
            assert!(
                last <= at_cycle,
                "scheduled messages must be time-ordered per host"
            );
        }
        nic.scheduled.push_back((at_cycle, dst.0));
        self.gen_due = self.gen_due.min(at_cycle);
    }

    /// Step until no packet is live or `max_cycles` elapse; returns the
    /// cycle at which the network drained.
    pub fn run_until_drained(&mut self, max_cycles: u64) -> Option<u64> {
        let end = self.cycle + max_cycles;
        while self.cycle < end {
            if self.arena.live() == 0 && self.nics.iter().all(|n| n.scheduled.is_empty()) {
                return Some(self.cycle);
            }
            // Not drained yet: a skip cannot change that (nothing executes
            // inside the jumped span), so the drained cycle this returns is
            // identical to the tick-every-cycle oracle's.
            self.try_time_skip(end);
            if self.cycle >= end {
                break;
            }
            self.step();
        }
        None
    }

    /// Create one message from `src` to `dst`: a single packet, or several
    /// when MTU segmentation is configured (each packet routes
    /// independently, so ITB-RR spreads a large message over alternative
    /// paths).
    fn create_message(
        &mut self,
        src: regnet_topology::HostId,
        dst: regnet_topology::HostId,
        gen_cycle: u64,
    ) {
        let payload_total = self.cfg.payload_flits;
        let mtu = self.cfg.mtu_flits.unwrap_or(payload_total).max(1);
        let n_packets = payload_total.div_ceil(mtu);
        let midx = self.msgs.insert(MsgState {
            remaining: n_packets as u16,
            gen_cycle,
            first_inject: u64::MAX,
            itbs: 0,
            failed: false,
        });
        let mut left = payload_total;
        while left > 0 {
            let chunk = left.min(mtu);
            left -= chunk;
            let db = route_db(self.faults.as_deref(), self.db);
            let journey = db.select(self.topo, src, dst, &mut self.selector);
            let pkt = Packet {
                msg: midx,
                journey,
                payload: chunk as u32,
                seg: 0,
                hop: 0,
                inject_cycle: u64::MAX,
                itbs_used: 0,
                pool_reserved: 0,
                retries: 0,
            };
            let pid = self.arena.insert(pkt);
            self.nics[src.idx()].local_queue.push_back(pid);
        }
        if let Some(sc) = self.sched.as_deref_mut() {
            sc.activate_nic(src.0);
        }
        if self.measure.on {
            self.measure.generated += 1;
        }
        if let Some(c) = &mut self.counters {
            c.messages_generated += 1;
        }
    }

    /// Create the messages host `h` has due at `cycle`; returns the first
    /// later cycle at which it can have one due (`u64::MAX`: never, as far
    /// as this host can tell).
    fn nic_gen(&mut self, h: usize, cycle: u64) -> u64 {
        if let Some(f) = self.faults.as_deref() {
            // Dead or unreachable hosts generate nothing (their backlog was
            // stranded when they went down) until `apply_host_ok` brings
            // them back, which lowers `gen_due` itself.
            if !f.host_ok[h] {
                return u64::MAX;
            }
        }
        // Explicitly scheduled messages first.
        while let Some(&(at, dst)) = self.nics[h].scheduled.front() {
            if at > cycle {
                break;
            }
            self.nics[h].scheduled.pop_front();
            let src = regnet_topology::HostId(h as u32);
            self.create_message(src, regnet_topology::HostId(dst), at);
        }
        let scheduled_due = self.nics[h]
            .scheduled
            .front()
            .map_or(u64::MAX, |&(at, _)| at);
        loop {
            let next_gen = self.nics[h].next_gen;
            if next_gen > cycle as f64 {
                // Generation fires at the first integer cycle >= next_gen
                // (the cast saturates: `f64::MAX`, a silent host, is never).
                return scheduled_due.min(next_gen.ceil() as u64);
            }
            if self.nics[h].local_queue.len() >= self.cfg.source_queue_cap {
                // Stalled on a full source queue: counted every cycle.
                if self.measure.on {
                    self.measure.gen_stall_cycles += 1;
                }
                return cycle + 1;
            }
            let src = regnet_topology::HostId(h as u32);
            let gen_cycle = self.nics[h].next_gen.max(0.0) as u64;
            let dst = {
                let nic = &mut self.nics[h];
                self.pattern.dest(src, self.topo, &mut nic.rng)
            };
            // Advance the generation clock.
            let step = match self.cfg.generation {
                GenerationProcess::Constant => self.interarrival,
                GenerationProcess::Poisson => {
                    let u: f64 = self.nics[h].rng.gen::<f64>().max(1e-12);
                    -u.ln() * self.interarrival
                }
            };
            self.nics[h].next_gen += step;
            let Some(dst) = dst else {
                // Silent host under a permutation pattern: stop for good.
                self.nics[h].next_gen = f64::MAX;
                return scheduled_due;
            };
            let unreachable = match self.faults.as_deref() {
                Some(f) => {
                    let db = route_db(Some(f), self.db);
                    !f.host_ok[dst.idx()]
                        || !db.has_route(self.topo.host_switch(src), self.topo.host_switch(dst))
                }
                None => false,
            };
            if unreachable {
                // The pair cannot communicate right now: the message is
                // refused at the API (the generation clock still advances).
                self.rel.unreachable_drops += 1;
                continue;
            }
            self.create_message(src, dst, gen_cycle);
        }
    }

    // ---- Fault machinery (phases 0 and 6). ----

    /// Phase 6, faulted runs only: replay this cycle's deferred losses.
    /// The switch and NIC phases never truncate or drop in place — they
    /// record `(At, packet)` pairs — and this phase replays the records
    /// sorted (stably) by `At`. Engine and oracle therefore mutate the
    /// packet/message arenas in the same within-cycle order — deliveries
    /// in channel order, then switch truncations in switch order, then
    /// source drops in NIC order, then generation — which is what keeps
    /// free-list reuse, and with it every downstream id, bit-identical
    /// between the two.
    fn loss_phase(&mut self, cycle: u64) {
        if self.pending_loss.is_empty() {
            return;
        }
        let mut lost = std::mem::take(&mut self.pending_loss);
        lost.sort_by_key(|&(at, _)| at);
        for (at, pid) in lost.drain(..) {
            match at {
                At::Switch(_) => self.handle_loss(pid, cycle),
                At::Nic(_) => self.drop_packet(pid, cycle),
                At::Chan(_) => unreachable!("the arrival phase loses nothing"),
            }
        }
        self.pending_loss = lost;
    }

    /// Apply every fault event due at `cycle`, purge the truncated worms,
    /// and drive the pending reconfiguration if one is in flight.
    fn fault_phase(&mut self, cycle: u64) {
        let mut victims: Vec<u32> = Vec::new();
        let mut applied = false;
        loop {
            let f = self.faults.as_deref().unwrap();
            let Some(&ev) = f.events.get(f.next_event) else {
                break;
            };
            if ev.cycle > cycle {
                break;
            }
            self.faults.as_deref_mut().unwrap().next_event += 1;
            self.apply_fault_event(ev, &mut victims);
            applied = true;
        }
        if applied {
            self.sync_channels_to_faults(&mut victims);
            victims.sort_unstable();
            victims.dedup();
            for pid in victims {
                self.handle_loss(pid, cycle);
            }
            if self.faults.as_deref().unwrap().reconfigure {
                // The management process re-maps the network; the new
                // tables take effect after the reconfiguration latency.
                self.faults.as_deref_mut().unwrap().reconfig_due =
                    Some(cycle + self.cfg.reconfig_latency_cycles);
            } else {
                self.refresh_direct_host_ok(cycle);
            }
        }
        match self.faults.as_deref().unwrap().reconfig_due {
            Some(due) if cycle >= due => self.complete_reconfiguration(cycle),
            Some(_) => self.rel.reconfig_stall_cycles += 1,
            None => {}
        }
    }

    fn apply_fault_event(&mut self, ev: FaultEvent, victims: &mut Vec<u32>) {
        if let Some(c) = &mut self.counters {
            if ev.fail {
                c.fault_fires += 1;
            } else {
                c.fault_repairs += 1;
            }
        }
        if let Some(j) = &mut self.journal {
            let kind = if ev.fail {
                EventKind::FaultFire { target: ev.target }
            } else {
                EventKind::FaultRepair { target: ev.target }
            };
            j.record(ev.cycle, NO_PACKET, kind);
        }
        let f = self.faults.as_deref_mut().unwrap();
        match (ev.target, ev.fail) {
            (FaultTarget::Link(l), true) => {
                f.active.kill_link(l);
                self.rel.link_failures += 1;
            }
            (FaultTarget::Link(l), false) => {
                f.active.revive_link(l);
                self.rel.repairs += 1;
            }
            (FaultTarget::Switch(s), true) => {
                f.active.kill_switch(s);
                self.rel.switch_failures += 1;
            }
            (FaultTarget::Switch(s), false) => {
                f.active.revive_switch(s);
                self.rel.repairs += 1;
            }
            (FaultTarget::Host(h), true) => {
                f.active.kill_host(h);
                self.rel.host_failures += 1;
                f.host_up[h.idx()] = false;
                f.host_ok[h.idx()] = false;
                self.kill_host_nic(h.idx(), victims);
            }
            (FaultTarget::Host(h), false) => {
                f.active.revive_host(h);
                self.rel.repairs += 1;
                // Powered back on; reachability (and generation restart)
                // is decided when host_ok is next refreshed.
                f.host_up[h.idx()] = true;
            }
        }
    }

    /// A host died: everything its NIC holds is lost, and it generates
    /// nothing until repaired.
    fn kill_host_nic(&mut self, h: usize, victims: &mut Vec<u32>) {
        let nic = &mut self.nics[h];
        nic.next_gen = f64::MAX;
        nic.scheduled.clear();
        nic.stopped = false;
        if let Some(tx) = nic.tx {
            victims.push(tx.pid);
        }
        if let Some(rx) = nic.rx {
            victims.push(rx.pid);
        }
        victims.extend(nic.local_queue.iter().copied());
        victims.extend(nic.reinject.iter().map(|&Reverse((_, pid))| pid));
        victims.extend(nic.retransmit.iter().map(|&Reverse((_, pid))| pid));
    }

    /// Bring every channel's dead/alive state in line with the active fault
    /// set (a dead switch or host implicitly kills its cables), collecting
    /// the packets truncated in the process.
    fn sync_channels_to_faults(&mut self, victims: &mut Vec<u32>) {
        for i in 0..self.topo.num_links() {
            let lid = self.topo.links()[i].id;
            let alive = self
                .faults
                .as_deref()
                .unwrap()
                .active
                .is_link_alive(self.topo, lid);
            let pair = self.link_chans[i];
            for ci in pair {
                let ci = ci as usize;
                if !alive && !self.channels[ci].is_dead() {
                    let mut v = self.fail_channel(ci);
                    victims.append(&mut v);
                } else if alive && self.channels[ci].is_dead() {
                    self.repair_channel(ci);
                }
            }
        }
        // Packets resident in a freshly dead switch's buffers die with it.
        for s in 0..self.switches.len() {
            if self
                .faults
                .as_deref()
                .unwrap()
                .active
                .is_switch_alive(SwitchId(s as u32))
            {
                continue;
            }
            for inp in self.switches[s].inp.iter().flatten() {
                victims.extend(inp.queue().iter().map(|q| q.pid));
            }
        }
    }

    /// Kill one directed channel: flits in flight are destroyed, and the
    /// worms cut at either end of the cable are victims too.
    fn fail_channel(&mut self, ci: usize) -> Vec<u32> {
        let mut victims = self.channels[ci].fail();
        match self.channels[ci].receiver {
            Receiver::SwitchIn { sw, port } => {
                // A partially received packet can never get its tail.
                if let Some(inp) = self.switches[sw as usize].inp[port as usize].as_ref() {
                    if let Some(back) = inp.queue().back() {
                        if back.received < back.expected {
                            victims.push(back.pid);
                        }
                    }
                }
            }
            Receiver::Nic { host } => {
                if let Some(rx) = self.nics[host as usize].rx {
                    victims.push(rx.pid);
                }
            }
        }
        match self.channels[ci].sender {
            Sender::SwitchOut { sw, port } => {
                // Any head routed towards this output loses its worm: flits
                // already sent are gone and the remainder can never follow.
                for inp in self.switches[sw as usize].inp.iter().flatten() {
                    if inp.head() != HeadState::Idle && inp.head_out() == port {
                        if let Some(head) = inp.queue().front() {
                            victims.push(head.pid);
                        }
                    }
                }
            }
            Sender::Nic { host } => {
                if let Some(tx) = self.nics[host as usize].tx {
                    victims.push(tx.pid);
                }
            }
        }
        victims
    }

    /// Bring a repaired channel back and re-sync the sender's stop/go flag
    /// with the receiver's current state (control symbols in flight died
    /// with the cable; without the re-sync a stale STOP wedges the link).
    fn repair_channel(&mut self, ci: usize) {
        self.channels[ci].repair();
        let stopped = match self.channels[ci].receiver {
            Receiver::SwitchIn { sw, port } => self.switches[sw as usize].inp[port as usize]
                .as_ref()
                .map(|p| p.stop_sent)
                .unwrap_or(false),
            Receiver::Nic { .. } => false,
        };
        match self.channels[ci].sender {
            Sender::SwitchOut { sw, port } => {
                if let Some(o) = self.switches[sw as usize].outp[port as usize].as_mut() {
                    o.stopped = stopped;
                }
            }
            Sender::Nic { host } => self.nics[host as usize].stopped = stopped,
        }
    }

    /// Recompute host_ok straight from the fault set (no mapper): a host is
    /// ok iff it is powered on and its own access path is alive. Used when
    /// reconfiguration is disabled or failed.
    fn refresh_direct_host_ok(&mut self, cycle: u64) {
        let new_ok: Vec<bool> = {
            let f = self.faults.as_deref().unwrap();
            self.topo
                .hosts()
                .map(|h| f.host_up[h.idx()] && f.active.is_host_alive(self.topo, h))
                .collect()
        };
        self.apply_host_ok(new_ok, cycle);
    }

    /// Install a new host_ok vector, reacting to the edges: a host coming
    /// back restarts its generator; a host dropping out strands the traffic
    /// queued at its NIC.
    fn apply_host_ok(&mut self, new_ok: Vec<bool>, cycle: u64) {
        let n = new_ok.len();
        for (h, &ok) in new_ok.iter().enumerate() {
            let old = self.faults.as_deref().unwrap().host_ok[h];
            if old == ok {
                continue;
            }
            self.faults.as_deref_mut().unwrap().host_ok[h] = ok;
            if ok {
                // Its generator restarts and its `scheduled` backlog is
                // due again: have this cycle's generation phase look.
                self.gen_due = self.gen_due.min(cycle);
                self.restart_generation(h, cycle);
            } else {
                self.strand_host_traffic(h, cycle);
            }
        }
        let f = self.faults.as_deref().unwrap();
        let live = f.host_ok.iter().filter(|&&ok| ok).count() as u64;
        let total = n as u64;
        self.rel.unreachable_pairs = total * (total - 1) - live * (live - 1);
    }

    /// A repaired (or re-connected) host resumes generating with a fresh
    /// random phase — no burst to catch up on the downtime.
    fn restart_generation(&mut self, h: usize, cycle: u64) {
        if self.gen_frozen || !self.pattern.host_generates(HostId(h as u32)) {
            return;
        }
        let nic = &mut self.nics[h];
        nic.next_gen = cycle as f64 + nic.rng.gen::<f64>() * self.interarrival;
    }

    /// A host became unreachable (but may still be powered on): everything
    /// queued at its NIC can no longer leave; treat it as lost so sources
    /// elsewhere can retransmit and the network still drains.
    fn strand_host_traffic(&mut self, h: usize, cycle: u64) {
        let mut victims: Vec<u32> = Vec::new();
        let nic = &self.nics[h];
        if let Some(tx) = nic.tx {
            victims.push(tx.pid);
        }
        victims.extend(nic.local_queue.iter().copied());
        victims.extend(nic.reinject.iter().map(|&Reverse((_, pid))| pid));
        victims.extend(nic.retransmit.iter().map(|&Reverse((_, pid))| pid));
        victims.sort_unstable();
        victims.dedup();
        for pid in victims {
            self.handle_loss(pid, cycle);
        }
    }

    /// The reconfiguration latency elapsed: run the mapper on the surviving
    /// network and swap the rebuilt tables in atomically.
    fn complete_reconfiguration(&mut self, cycle: u64) {
        let scheme = self.db.scheme();
        let (seed_host, db_cfg) = {
            let f = self.faults.as_deref_mut().unwrap();
            f.reconfig_due = None;
            (f.seed_host, f.db_cfg.clone())
        };
        let rebuilt = {
            let f = self.faults.as_deref().unwrap();
            let seed = if f.host_up[seed_host.idx()] && f.active.is_host_alive(self.topo, seed_host)
            {
                Some(seed_host)
            } else {
                // The management host itself is down: the lowest-numbered
                // live host takes over.
                self.topo
                    .hosts()
                    .find(|&h| f.host_up[h.idx()] && f.active.is_host_alive(self.topo, h))
            };
            seed.and_then(|s| {
                rebuild_physical_routes(self.topo, &f.active, s, scheme, &db_cfg).ok()
            })
        };
        match rebuilt {
            Some(pr) => {
                let new_ok: Vec<bool> = {
                    let f = self.faults.as_deref().unwrap();
                    (0..self.topo.num_hosts())
                        .map(|h| f.host_up[h] && pr.reachable_hosts[h])
                        .collect()
                };
                self.rel.reconfigurations += 1;
                self.faults.as_deref_mut().unwrap().routes = Some(pr);
                self.apply_host_ok(new_ok, cycle);
            }
            None => {
                self.rel.reconfig_failures += 1;
                self.refresh_direct_host_ok(cycle);
            }
        }
    }

    /// A packet's worm was truncated somewhere: purge every remaining trace
    /// of it, then either queue a source retransmission or drop it for good.
    fn handle_loss(&mut self, pid: u32, cycle: u64) {
        self.purge_packet(pid, cycle);
        self.rel.worms_truncated += 1;
        let (src, retries) = {
            let p = self.arena.get(pid);
            (p.journey.src, p.retries)
        };
        let can_retry = self.cfg.nic_retransmission
            && retries < self.cfg.max_retransmits
            && self.faults.as_deref().unwrap().host_ok[src.idx()];
        if can_retry {
            let pkt = self.arena.get_mut(pid);
            pkt.retries += 1;
            pkt.seg = 0;
            pkt.hop = 0;
            pkt.itbs_used = 0;
            pkt.inject_cycle = u64::MAX;
            let due = cycle + self.cfg.retransmit_timeout_cycles;
            self.nics[src.idx()].retransmit.push(Reverse((due, pid)));
            if let Some(sc) = self.sched.as_deref_mut() {
                sc.wake_nic_at(due, src.0);
            }
            self.rel.retransmissions += 1;
            if let Some(c) = &mut self.counters {
                c.retransmits += 1;
            }
            if let Some(j) = &mut self.journal {
                j.record(cycle, pid, EventKind::Retransmit { src: src.0 });
            }
        } else {
            self.drop_packet(pid, cycle);
        }
    }

    /// Give up on a packet: its message can never complete.
    fn drop_packet(&mut self, pid: u32, cycle: u64) {
        if let Some(c) = &mut self.counters {
            c.packets_dropped += 1;
        }
        if let Some(j) = &mut self.journal {
            j.record(cycle, pid, EventKind::Drop);
        }
        let pkt = self.arena.remove(pid);
        let ms = self.msgs.get_mut(pkt.msg);
        ms.remaining -= 1;
        ms.failed = true;
        let done = ms.remaining == 0;
        if done {
            self.msgs.remove(pkt.msg);
        }
        self.rel.dropped_packets += 1;
        if done {
            self.rel.dropped_messages += 1;
        }
    }

    /// Remove every trace of `pid` from the fabric — channels, switch input
    /// buffers (with flow-control accounting), crossbar connections and NIC
    /// queues — leaving the packet itself in the arena for the caller.
    fn purge_packet(&mut self, pid: u32, cycle: u64) {
        for ch in &mut self.channels {
            ch.purge(pid);
        }
        for s in 0..self.switches.len() {
            let mut ctl = Vec::new();
            self.switches[s].purge(pid, &self.cfg, |c| ctl.push(c));
            for (in_chan, sym) in ctl {
                // The purge can run in phase 0, before this cycle's control
                // arrivals were taken; discard any symbol arriving right
                // now explicitly (the scan loop used to overwrite it in
                // place) so `send_ctl`'s call-order check holds.
                let ch = &mut self.channels[in_chan as usize];
                let _ = ch.ctl.take_arrival(cycle);
                ch.ctl.send(cycle, sym);
                if let Some(sc) = self.sched.as_deref_mut() {
                    sc.note_ctl(cycle, in_chan);
                }
            }
        }
        for h in 0..self.nics.len() {
            let mut release = false;
            {
                let nic = &mut self.nics[h];
                if let Some(tx) = nic.tx {
                    if tx.pid == pid {
                        release = tx.reinjection;
                        nic.tx = None;
                    }
                }
                if let Some(rx) = nic.rx {
                    if rx.pid == pid {
                        nic.rx = None;
                    }
                }
                nic.local_queue.retain(|&q| q != pid);
                if nic.reinject.iter().any(|&Reverse((_, q))| q == pid) {
                    release = true;
                    let kept: Vec<_> = nic
                        .reinject
                        .drain()
                        .filter(|&Reverse((_, q))| q != pid)
                        .collect();
                    nic.reinject = kept.into_iter().collect();
                }
                if nic.retransmit.iter().any(|&Reverse((_, q))| q == pid) {
                    let kept: Vec<_> = nic
                        .retransmit
                        .drain()
                        .filter(|&Reverse((_, q))| q != pid)
                        .collect();
                    nic.retransmit = kept.into_iter().collect();
                }
            }
            if release {
                // The packet held in-transit pool space at this NIC.
                let pkt = self.arena.get_mut(pid);
                if pkt.pool_reserved > 0 {
                    self.nics[h].pool_used =
                        self.nics[h].pool_used.saturating_sub(pkt.pool_reserved);
                    pkt.pool_reserved = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultplan::FaultPlan;
    use regnet_core::{RouteDb, RouteDbConfig, RoutingScheme};
    use regnet_topology::{gen, SwitchId, TopologyBuilder};
    use regnet_traffic::PatternSpec;

    fn small_cfg() -> SimConfig {
        SimConfig {
            payload_flits: 64,
            ..SimConfig::default()
        }
    }

    fn build_ring4() -> Topology {
        let mut b = TopologyBuilder::new("ring4", 6);
        b.add_switches(4);
        for i in 0..4u32 {
            b.connect(SwitchId(i), SwitchId((i + 1) % 4)).unwrap();
        }
        b.attach_hosts_everywhere(2).unwrap();
        b.build().unwrap()
    }

    fn run_once(
        topo: &Topology,
        scheme: RoutingScheme,
        offered: f64,
        cfg: SimConfig,
        warmup: u64,
        window: u64,
    ) -> RunStats {
        let db = RouteDb::build(topo, scheme, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, topo).unwrap();
        let mut sim = Simulator::new(topo, &db, &pattern, cfg, offered, 42);
        sim.run(warmup);
        sim.begin_measurement();
        sim.run(window);
        sim.end_measurement(window)
    }

    #[test]
    fn zero_load_latency_matches_hand_calculation() {
        // One message, one switch hop: check first-order timing. Build a
        // 2-switch line, 1 host each.
        let mut b = TopologyBuilder::new("line2", 4);
        b.add_switches(2);
        b.connect(SwitchId(0), SwitchId(1)).unwrap();
        b.attach_hosts_everywhere(1).unwrap();
        let topo = b.build().unwrap();
        let cfg = small_cfg();
        let stats = run_once(
            &topo,
            RoutingScheme::UpDown,
            0.0005,
            cfg.clone(),
            0,
            400_000,
        );
        assert!(stats.delivered > 0, "no messages delivered");
        // Expected network latency for 2 switch hops (src switch + dst
        // switch), wire = 2 ports + type + 64 payload = 67 flits:
        //   2 cable crossings host->sw0->sw1 is 3 cables = 3*8 cycles,
        //   2 routing delays = 48, tail streaming = 67 cycles,
        //   minus pipelining overlaps... rough band check:
        let lat_cycles = stats.avg_latency_ns / CYCLE_NS;
        assert!(
            (100.0..200.0).contains(&lat_cycles),
            "unexpected zero-load latency: {lat_cycles} cycles"
        );
        // No ITBs under up*/down*.
        assert_eq!(stats.avg_itbs_per_msg, 0.0);
        assert_eq!(stats.itb_overflows, 0);
    }

    #[test]
    fn conservation_all_generated_eventually_delivered() {
        let topo = build_ring4();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let cfg = small_cfg();
        let mut sim = Simulator::new(&topo, &db, &pattern, cfg, 0.01, 7);
        sim.begin_measurement();
        sim.run(50_000);
        // Freeze generation and drain.
        for nic in &mut sim.nics {
            nic.next_gen = f64::MAX;
        }
        let mut guard = 0;
        while sim.packets_in_flight() > 0 {
            sim.run(1_000);
            guard += 1;
            assert!(guard < 1_000, "network failed to drain");
        }
        let stats = sim.end_measurement(50_000);
        assert!(stats.generated > 0);
        assert_eq!(
            stats.delivered, stats.generated,
            "every generated packet must be delivered"
        );
    }

    #[test]
    fn itb_packets_take_itb_hops_on_ring() {
        // On a ring with root 0, many minimal paths need an ITB.
        let topo = build_ring4();
        let stats = run_once(
            &topo,
            RoutingScheme::ItbRr,
            0.005,
            small_cfg(),
            5_000,
            100_000,
        );
        assert!(stats.delivered > 100);
        assert!(
            stats.avg_itbs_per_msg > 0.05,
            "expected some in-transit hops, got {}",
            stats.avg_itbs_per_msg
        );
    }

    #[test]
    fn updown_never_uses_itbs() {
        let topo = build_ring4();
        let stats = run_once(
            &topo,
            RoutingScheme::UpDown,
            0.005,
            small_cfg(),
            5_000,
            100_000,
        );
        assert!(stats.delivered > 100);
        assert_eq!(stats.avg_itbs_per_msg, 0.0);
    }

    #[test]
    fn accepted_tracks_offered_below_saturation() {
        let topo = gen::torus_2d(4, 4, 2).unwrap();
        let offered = 0.004;
        let stats = run_once(
            &topo,
            RoutingScheme::UpDown,
            offered,
            small_cfg(),
            20_000,
            200_000,
        );
        let accepted = stats.accepted_flits_per_ns_per_switch(16);
        assert!(
            (accepted - offered).abs() / offered < 0.08,
            "accepted {accepted} vs offered {offered}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let topo = build_ring4();
        let a = run_once(
            &topo,
            RoutingScheme::ItbSp,
            0.01,
            small_cfg(),
            2_000,
            30_000,
        );
        let b = run_once(
            &topo,
            RoutingScheme::ItbSp,
            0.01,
            small_cfg(),
            2_000,
            30_000,
        );
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.avg_latency_ns, b.avg_latency_ns);
        assert_eq!(a.channel_busy, b.channel_busy);
    }

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
    fn saturation_throughput_is_bounded() {
        // Offered load way beyond capacity: accepted must plateau and the
        // simulator must stay live (no deadlock, watchdog silent).
        let topo = build_ring4();
        let stats = run_once(
            &topo,
            RoutingScheme::ItbRr,
            0.5,
            small_cfg(),
            20_000,
            100_000,
        );
        let accepted = stats.accepted_flits_per_ns_per_switch(4);
        assert!(accepted > 0.0);
        assert!(accepted < 0.5, "accepted {accepted} cannot exceed capacity");
        assert!(stats.gen_stall_cycles > 0, "sources should be backlogged");
    }

    #[test]
    fn poisson_generation_works() {
        let topo = build_ring4();
        let cfg = SimConfig {
            generation: GenerationProcess::Poisson,
            ..small_cfg()
        };
        let stats = run_once(&topo, RoutingScheme::ItbRr, 0.01, cfg, 5_000, 50_000);
        assert!(stats.delivered > 50);
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
        use regnet_topology::HostId;

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
        // A symbol written by hand bypasses the sink, so note it on the
        // control wheel as the sink would.
        let send_ctl = |sim: &mut Simulator, cycle: u64, symbol: u8| {
            sim.channels[stop_chan as usize].ctl.send(cycle, symbol);
            let wheels = sim.sched.as_deref_mut().expect("default engine");
            wheels.note_ctl(cycle, stop_chan);
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

    /// Step `cycles` cycles; `ungated` clears the generation gate before
    /// each one, which is the scan of every host on every cycle that
    /// `gen_phase` ran before it had a gate.
    fn step_n(sim: &mut Simulator, cycles: u64, ungated: bool) {
        for _ in 0..cycles {
            if ungated {
                sim.gen_due = 0;
            }
            sim.step();
        }
    }

    #[test]
    fn generation_gate_changes_nothing_at_saturation() {
        let topo = build_ring4();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let run = |ungated: bool| {
            let mut sim = Simulator::new(&topo, &db, &pattern, small_cfg(), 0.5, 5);
            step_n(&mut sim, 5_000, ungated);
            sim.begin_measurement();
            step_n(&mut sim, 30_000, ungated);
            sim.end_measurement(30_000)
        };
        let gated = run(false);
        assert!(gated.gen_stall_cycles > 0, "sources should be backlogged");
        assert_eq!(gated, run(true));
    }

    #[test]
    fn scheduled_message_before_the_cached_gate_fires_on_its_cycle() {
        let topo = build_ring4();
        let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        for scheduler in [Scheduler::Scan, Scheduler::ActiveSet] {
            // Interarrival of ~1e8 cycles: after the first scan the gate
            // sits far in the future.
            let mut sim = Simulator::new(&topo, &db, &pattern, small_cfg(), 1e-9, 1);
            sim.set_scheduler(scheduler);
            sim.begin_measurement();
            sim.run(100);
            assert!(sim.gen_due > 1_000_000, "gate at {}", sim.gen_due);
            assert_eq!(sim.measure.generated, 0);
            sim.schedule_message(HostId(0), HostId(5), 140);
            assert_eq!(sim.gen_due, 140);
            sim.run(40);
            assert_eq!((sim.cycle, sim.measure.generated), (140, 0));
            sim.run(1);
            assert_eq!(sim.measure.generated, 1, "{scheduler:?}");
            assert!(sim.gen_due > 1_000_000, "gate not recomputed");
            assert_eq!(sim.run_until_drained(10_000).map(|c| c > 141), Some(true));
        }
    }

    #[test]
    fn stop_generation_is_honoured_through_the_gate() {
        let topo = build_ring4();
        let db = RouteDb::build(&topo, RoutingScheme::ItbSp, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let mut sim = Simulator::new(&topo, &db, &pattern, small_cfg(), 0.01, 9);
        sim.begin_measurement();
        sim.run(10_000);
        let generated = sim.measure.generated;
        assert!(generated > 0);
        sim.stop_generation();
        assert!(sim.run_until_drained(1_000_000).is_some());
        sim.run(10_000);
        assert_eq!(sim.measure.generated, generated);
        assert_eq!(sim.gen_due, u64::MAX);
    }

    #[test]
    fn repaired_host_generates_again_through_the_gate() {
        let topo = build_ring4();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let cfg = SimConfig {
            reconfig_latency_cycles: 300,
            ..small_cfg()
        };
        let run = |ungated: bool| {
            let mut plan = FaultPlan::new();
            plan.fail_host(2_000, HostId(3));
            plan.repair_host(6_000, HostId(3));
            let mut sim = Simulator::new(&topo, &db, &pattern, cfg.clone(), 0.01, 4);
            sim.enable_faults(FaultOptions::with_plan(plan));
            // Every generator silent (but not frozen, as `stop_generation`
            // would): the first scan finds nothing due, ever.
            for nic in &mut sim.nics {
                nic.next_gen = f64::MAX;
            }
            sim.begin_measurement();
            step_n(&mut sim, 6_000, ungated);
            assert!(ungated || sim.gen_due == u64::MAX);
            // Back after repair + reconfiguration latency, with a fresh
            // phase — the only host that generates.
            step_n(&mut sim, 301, ungated);
            assert!(sim.faults.as_deref().unwrap().host_ok[3]);
            let restart = sim.nics[3].next_gen;
            assert!((6_300.0..9_000.0).contains(&restart), "{restart}");
            assert!(ungated || sim.gen_due == restart.ceil() as u64);
            step_n(&mut sim, 20_000, ungated);
            (sim.end_measurement(sim.cycle), sim.reliability())
        };
        let gated = run(false);
        assert_eq!(gated.1.host_failures, 1);
        assert!(gated.0.generated > 3, "host 3 never generated again");
        assert_eq!(gated, run(true));
    }

    /// A packet resident in a switch, one per purge case not exercised
    /// yet: head `Idle` / `Routing` / `Requesting` / `Granted`, or (4) a
    /// queue entry behind the head.
    fn next_purge_case(sim: &Simulator, seen: &[bool; 5]) -> Option<(usize, u32)> {
        for sw in &sim.switches {
            for inp in sw.inp.iter().flatten() {
                for (pos, entry) in inp.queue().iter().enumerate() {
                    let case = match (pos, inp.head()) {
                        (0, HeadState::Idle) => 0,
                        (0, HeadState::Routing { .. }) => 1,
                        (0, HeadState::Requesting) => 2,
                        (0, HeadState::Granted) => 3,
                        _ => 4,
                    };
                    if !seen[case] {
                        return Some((case, entry.pid));
                    }
                }
            }
        }
        None
    }

    #[test]
    fn switch_summaries_hold_through_faults_under_engine_and_oracle() {
        let topo = gen::torus_2d(4, 4, 2).unwrap();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let link = topo.links().iter().find(|l| l.is_switch_link()).unwrap().id;
        let cfg = SimConfig {
            reconfig_latency_cycles: 400,
            ..small_cfg()
        };
        let run = |scheduler: Scheduler| {
            // A cable and a whole switch die under saturating load and
            // come back: `fail_channel`, the purge of a dead switch's
            // buffers, both repairs and four reconfigurations.
            let mut plan = FaultPlan::new();
            plan.fail_link(1_500, link);
            plan.fail_switch(2_500, SwitchId(5));
            plan.repair_link(4_000, link);
            plan.repair_switch(5_000, SwitchId(5));
            let mut sim = Simulator::new(&topo, &db, &pattern, cfg.clone(), 0.08, 3);
            sim.set_scheduler(scheduler);
            sim.enable_faults(FaultOptions::with_plan(plan));
            sim.begin_measurement();
            let mut seen = [false; 5];
            for _ in 0..7_000 {
                // Between the plan's events, lose packets by hand until
                // every purge case has happened at least once. The switch
                // state is the same under both loops, so both pick the
                // same victims.
                if sim.cycle.is_multiple_of(64) {
                    if let Some((case, pid)) = next_purge_case(&sim, &seen) {
                        seen[case] = true;
                        sim.handle_loss(pid, sim.cycle);
                        sim.check_invariants();
                    }
                }
                sim.run(1);
                sim.check_invariants();
            }
            assert_eq!(seen, [true; 5], "{scheduler:?}: purge cases exercised");
            let rel = sim.reliability();
            assert_eq!(
                (rel.link_failures, rel.switch_failures, rel.repairs),
                (1, 1, 2)
            );
            assert!(
                rel.worms_truncated > 5 && rel.reconfigurations >= 2,
                "{rel:?}"
            );
            (sim.end_measurement(7_000), rel)
        };
        let reference = run(Scheduler::Scan);
        assert!(reference.0.delivered > 100);
        assert_eq!(reference, run(Scheduler::ActiveSet));
    }

    #[test]
    #[should_panic(expected = "at most 64 ports per switch")]
    fn more_than_64_ports_is_refused_up_front() {
        let mut b = TopologyBuilder::new("wide", 65);
        b.add_switches(2);
        b.connect(SwitchId(0), SwitchId(1)).unwrap();
        b.attach_hosts_everywhere(1).unwrap();
        let topo = b.build().unwrap();
        let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        Simulator::new(&topo, &db, &pattern, SimConfig::default(), 0.001, 1);
    }

    #[test]
    fn scan_and_active_set_schedulers_agree() {
        let topo = build_ring4();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let run = |scheduler: Scheduler| {
            let mut sim = Simulator::new(&topo, &db, &pattern, small_cfg(), 0.01, 11);
            sim.set_scheduler(scheduler);
            sim.run(2_000);
            sim.begin_measurement();
            sim.run(30_000);
            sim.end_measurement(30_000)
        };
        let scan = run(Scheduler::Scan);
        let active = run(Scheduler::ActiveSet);
        assert_eq!(scan, active, "schedulers must be bit-identical");
    }

    /// A fresh simulator is on the engine, not the oracle: `probe`,
    /// `diagnose` and every other direct `Simulator::new` caller get the
    /// same loop `Experiment` runs.
    #[test]
    fn a_new_simulator_runs_the_default_engine() {
        let topo = build_ring4();
        let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let mut sim = Simulator::new(&topo, &db, &pattern, small_cfg(), 0.01, 1);
        assert_eq!(sim.scheduler(), Scheduler::ActiveSet);
        assert_eq!(Scheduler::default(), Scheduler::ActiveSet);
        sim.set_scheduler(Scheduler::Scan);
        assert_eq!(sim.scheduler(), Scheduler::Scan);
    }

    /// A profiled run reports simulated cycles, not stepped ones: the
    /// spans the run loop jumps are credited to the profiler.
    #[test]
    fn profiled_cycles_count_skipped_spans() {
        let topo = gen::torus_2d(8, 8, 8).unwrap();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let mut sim = Simulator::new(&topo, &db, &pattern, small_cfg(), 0.0005, 11);
        sim.enable_profiler();
        sim.run(2_000);
        sim.begin_measurement();
        sim.run(10_000);
        assert!(sim.skipped_cycles() > 0, "low load must leave idle spans");
        assert_eq!(sim.profile_report().unwrap().cycles, 12_000);
        assert_eq!(sim.span_report().unwrap().cycles, 12_000);
    }

    /// A real profiled run fills every child span from its sample of
    /// cycles and still reconciles with the flat phases at every node.
    #[test]
    fn sampled_child_spans_survive_a_saturated_run() {
        let topo = gen::torus_2d(4, 4, 2).unwrap();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let mut sim = Simulator::new(&topo, &db, &pattern, small_cfg(), 0.08, 3);
        sim.enable_trace(TraceOptions::full(1_000));
        sim.enable_profiler();
        sim.run(20_000);
        let (flat, spans) = (sim.profile_report().unwrap(), sim.span_report().unwrap());
        assert_eq!(spans.cycles, 20_000);
        let sampled = spans.sampled_cycles;
        assert!((20_000 / 128..=20_000 / 32).contains(&sampled), "{sampled}");
        assert_eq!(spans.total_ns, flat.total_ns);
        for (root, phase) in spans.roots.iter().zip(&flat.phases) {
            assert_eq!(root.total_ns, phase.ns);
            crate::profiler::tests::assert_node_invariant(root);
        }
        let child = |phase: Phase, name: &str| {
            let root = &spans.roots[phase as usize];
            root.children
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.total_ns)
        };
        assert!(child(Phase::Switches, "routing") > 0);
        assert!(child(Phase::Switches, "crossbar") > 0);
        assert!(child(Phase::Observers, "trace") > 0);
    }

    /// The two shims: each retired label selects, and reports as, the
    /// active-set engine.
    #[test]
    fn retired_labels_run_the_active_set() {
        let topo = build_ring4();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let run = |scheduler: Scheduler| {
            let mut sim = Simulator::new(&topo, &db, &pattern, small_cfg(), 0.01, 11);
            sim.set_scheduler(scheduler);
            assert_eq!(sim.scheduler(), Scheduler::ActiveSet);
            sim.enable_trace(TraceOptions::digest_only());
            sim.begin_measurement();
            sim.run(5_000);
            let digest = sim.trace_report().unwrap().digest;
            (sim.end_measurement(5_000), digest, sim.skipped_cycles())
        };
        let active = run(Scheduler::ActiveSet);
        assert!(active.0.delivered > 0 && active.1.is_some());
        assert_eq!(active, run(Scheduler::EventDriven));
        assert_eq!(active, run(Scheduler::Parallel { threads: 2 }));
    }
}
