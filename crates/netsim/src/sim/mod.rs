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
//! scan oracle. This module owns the simulator's state and the phase
//! sequence ([`Simulator::step`]); the rest of the simulator is split by
//! concern:
//!
//! * `sink.rs` — the sink the kernel emits its effects into;
//! * `faults.rs` — the fault phase, the loss replay and reconfiguration;
//! * `generation.rs` — the generation phase and its heap of due hosts;
//! * `measure.rs` — the measurement window, observers and diagnostics;
//! * `skip.rs` — the run loops' time skip.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use regnet_core::{PathSelector, RouteDb};
use regnet_topology::{HostId, LinkEnd, Topology};
use regnet_traffic::{interarrival_cycles, Pattern};

use crate::channel::{Channels, Receiver, Sender, CTL_NONE};
use crate::config::{SimConfig, LINK_DELAY_CYCLES, MAX_SWITCH_PORTS};
use crate::counters::CounterSnapshot;
use crate::events::EventJournal;
use crate::faultplan::{FaultRuntime, ReliabilityStats};
use crate::kernel::{self, Tables, Tick};
use crate::nic::Nic;
use crate::packet::PacketArena;
use crate::profiler::{times_children, Phase, Profiler};
use crate::sched::{ActiveSched, Scheduler};
use crate::switch::{HeadState, SwitchState};
use crate::trace::TraceState;

mod faults;
mod generation;
mod measure;
mod sink;
mod skip;

use faults::Loss;
use measure::{directed_channels, Measure};
pub use measure::{ChannelDesc, RunStats};
pub(crate) use sink::SeqParts;
use sink::SeqSink;

/// The tables new routes are drawn from: the reconfigured ones once a
/// rebuild has installed some, the build-time ones before.
fn route_db<'a>(faults: Option<&'a FaultRuntime>, built: &'a RouteDb) -> Tables<'a> {
    match faults.and_then(|f| f.routes.as_ref()) {
        Some(r) => Tables::Remapped(&r.routes),
        None => Tables::Built(built),
    }
}

/// Profiler lap: charge the time since `mark` to `phase`. A no-op — and
/// no `Instant::now()` — unless the cycle is sampled (`mark` is `Some`).
#[inline]
fn lap(prof: &mut Option<Box<Profiler>>, mark: &mut Option<Instant>, phase: Phase) {
    if let Some(m) = mark {
        let now = Instant::now();
        let p = prof.as_deref_mut().expect("a mark without a profiler");
        p.add(phase, (now - *m).as_nanos() as u64);
        *m = now;
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
    channels: Channels,
    switches: Vec<SwitchState>,
    nics: Vec<Nic>,
    arena: PacketArena,
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
    counters: Option<Box<CounterSnapshot>>,
    /// Structured event journal; `None` (the default) costs one branch per
    /// hook.
    journal: Option<Box<EventJournal>>,
    /// Per-phase wall-time profiler; `None` (the default) keeps `step` on
    /// the untimed fast path.
    profiler: Option<Box<Profiler>>,
    /// The engine's wake state; `None` runs the full-scan oracle loop (see
    /// [`Scheduler`]).
    sched: Option<Box<ActiveSched>>,
    /// This cycle's deferred losses: worms that hit a dead output and
    /// packets that became unroutable at their source NIC, in the order
    /// the kernel recorded them. Truncated or dropped in the loss phase
    /// after NIC transmission so engine and oracle mutate the arenas in
    /// the same order (see `loss_phase`).
    pending_loss: Vec<(Loss, u32)>,
    /// `stop_generation` was called: never restart generators, even when a
    /// repaired host comes back.
    gen_frozen: bool,
    /// `(cycle, host)`: `host` may have a message due at `cycle`. Every
    /// host allowed to generate has an entry no later than its next due
    /// cycle; whatever makes a message due earlier (`schedule_message`, a
    /// host coming back) pushes one. An entry may be early or stale —
    /// visiting a host with nothing due is a no-op — never late.
    gen_heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Scripted messages not yet generated, over every NIC's `scheduled`
    /// queue: what `run_until_drained` waits for besides live packets.
    scheduled_pending: usize,
    /// Total cycles `run`/`run_until_drained` jumped over (see `skip.rs`).
    skipped_cycles: u64,
    /// Optional `(from, to, busy)` record of every jump — test instrumentation,
    /// never enters `RunStats` or the counter snapshot.
    skip_log: Option<Vec<(u64, u64, bool)>>,
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
            topo.max_ports() as usize <= MAX_SWITCH_PORTS,
            "the switch kernel tracks ports in u64 bitmasks: at most {MAX_SWITCH_PORTS} ports \
             per switch, this topology has {}",
            topo.max_ports()
        );
        let interarrival = interarrival_cycles(
            offered,
            topo.num_switches(),
            topo.num_hosts(),
            cfg.payload_flits,
        );

        // Build channels: two directed channels per physical link, link
        // `l`'s at `link_channels(l)`.
        let mut ends = Vec::with_capacity(topo.num_links() * 2);
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
        for (from, to) in directed_channels(topo) {
            let idx = ends.len() as u32;
            let (sender, receiver) = (end_sender(&from), end_receiver(&to));
            ends.push((sender, receiver));
            match sender {
                Sender::SwitchOut { sw, port } => sw_out[sw as usize * ports + port as usize] = idx,
                Sender::Nic { host } => nic_out[host as usize] = idx,
            }
            match receiver {
                Receiver::SwitchIn { sw, port } => sw_in[sw as usize * ports + port as usize] = idx,
                Receiver::Nic { .. } => {}
            }
        }
        let channels = Channels::new(ends, LINK_DELAY_CYCLES);

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
            if pattern.host_generates(HostId(i as u32)) {
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
            pending_loss: Vec::new(),
            gen_frozen: false,
            gen_heap: (0..topo.num_hosts() as u32)
                .map(|h| Reverse((0, h)))
                .collect(),
            scheduled_pending: 0,
            skipped_cycles: 0,
            skip_log: None,
        };
        sim.set_scheduler(Scheduler::default());
        sim
    }

    /// Swap the cycle loop for the `Scan` oracle (or back). A simulator
    /// starts on the engine, [`Scheduler::ActiveSet`]; only the equivalence
    /// suites have a reason to call this. Must be called before the first
    /// [`step`](Simulator::step): the engine lists only the switches and
    /// NICs it saw receive work, so it can only take over an empty
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
            Scheduler::ActiveSet | Scheduler::EventDriven | Scheduler::Parallel { .. } => Some(
                Box::new(ActiveSched::new(self.switches.len(), self.nics.len())),
            ),
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

    /// Test oracle: recompute every switch's port summaries (the masks the
    /// kernel iterates, the resident-packet count behind quiescence) from
    /// the port state, and check the engine's wake state: every switch
    /// holding a packet is listed or has its next event scheduled, no
    /// later than any of its runs' stored next events, unless all it
    /// waits for is an arrival or a control symbol; every NIC with
    /// something to send is listed unless asleep (held by STOP, or frozen
    /// by a pending reconfiguration) or streaming a steady run. Panics on
    /// a mismatch. Valid between steps.
    pub fn check_invariants(&self) {
        for sw in &self.switches {
            sw.check_invariants();
        }
        let Some(sc) = self.sched.as_deref() else {
            return;
        };
        let streaming = |ci: u32| self.channels.stream(ci).is_some_and(|st| st.running());
        for (s, sw) in self.switches.iter().enumerate() {
            if sc.switches.contains(s as u32) || sw.is_quiescent() {
                continue;
            }
            let due = sc.switch_due(s as u32).unwrap_or(u64::MAX);
            for &p in &sw.active_ports {
                let inp = sw.inp[p as usize].as_ref().expect("active port");
                let head = inp.queue().front();
                match inp.head() {
                    HeadState::Idle => assert!(head.is_none(), "switch {s}: p{p} waits to route"),
                    HeadState::Routing { ready } => {
                        assert!(due <= ready, "switch {s}: p{p} routed, no wake-up")
                    }
                    HeadState::Granted => {
                        let out = inp.head_out() as usize;
                        let out_chan = sw.out_chan(out as u8).expect("granted output");
                        if let Some(run) = self.channels.stream(out_chan).filter(|st| st.running())
                        {
                            assert!(
                                due <= run.due(),
                                "switch {s}: the run p{p} -> p{out} is due before its wake-up"
                            );
                            continue;
                        }
                        let supply = head.is_some_and(|h| h.available() > 0);
                        assert!(
                            !supply || sw.is_stopped(out),
                            "switch {s}: p{p} -> p{out} has flits to move, unlisted:\n{}",
                            self.describe()
                        );
                    }
                    HeadState::Requesting => {}
                }
            }
        }
        // What became ready by the last cycle stepped was visited then;
        // later readiness is the calendar's.
        let last = self.cycle.saturating_sub(1);
        let faults = self.faults.as_deref();
        for (h, nic) in self.nics.iter().enumerate() {
            let idle = nic.quiescent_for_tx(last)
                || nic.held_by_stop()
                || nic.frozen(faults)
                || streaming(nic.out_chan);
            assert!(
                sc.nics.contains(h as u32) || idle,
                "NIC {h} has work, unlisted:\n{}",
                self.describe()
            );
        }
    }

    /// Count every steady run's flits moved before `upto` into the
    /// component state (`kernel.rs`): afterwards switches, NICs, busy
    /// counts, counters and the watchdog clock are what the per-flit loop
    /// holds. `upto` is the current cycle between steps and in the fault
    /// phase, and the next one after NIC transmission.
    pub(crate) fn settle(&mut self, upto: u64) {
        if self.channels.streams() > 0 {
            let (mut p, _, _) = self.split(upto, None);
            kernel::settle_all(&mut p, upto);
        }
    }

    /// [`settle`](Simulator::settle), then end every run: what a fault
    /// event or a purge is about to touch is all in slots and components.
    pub(crate) fn unstream(&mut self, upto: u64) {
        if self.channels.streams() > 0 {
            let (mut p, _, _) = self.split(upto, None);
            kernel::unstream_all(&mut p, upto);
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

    /// Step until no packet is live or `max_cycles` elapse; returns the
    /// cycle at which the network drained, which may be the last one
    /// allowed (with `max_cycles == 0`, the current one).
    pub fn run_until_drained(&mut self, max_cycles: u64) -> Option<u64> {
        let end = self.cycle + max_cycles;
        loop {
            if self.arena.live() == 0 && self.scheduled_pending == 0 {
                return Some(self.cycle);
            }
            if self.cycle >= end {
                return None;
            }
            // Not drained yet: a skip cannot change that (nothing executes
            // inside the jumped span), so the drained cycle this returns is
            // identical to the tick-every-cycle oracle's.
            self.try_time_skip(end);
            if self.cycle < end {
                self.step();
            }
        }
    }

    /// Advance one cycle: the one phase sequence both loops run. Phases
    /// 1–4 are the kernel's (`crate::kernel`); the rest is the same code
    /// under either. With the profiler on, a hashed sample of cycles
    /// (`times_children`) ends each phase in a lap and times the child
    /// spans inside them; on every other cycle, and with the profiler
    /// off, `mark` stays `None` and no `Instant::now()` is called. The
    /// `faults` laps run only with a fault plan armed.
    pub fn step(&mut self) {
        let cycle = self.cycle;
        let sampled = self.profiler.is_some() && times_children(cycle);
        let mut mark = sampled.then(Instant::now);
        // ---- Phase 0: fault events, purges, reconfig.
        if self.faults.is_some() {
            self.fault_phase(cycle);
            lap(&mut self.profiler, &mut mark, Phase::Faults);
        }
        // ---- Phases 1-4: control, arrivals, switches, NIC transmission.
        self.kernel_phases(cycle, &mut mark);
        // ---- Phase 6: deferred mid-cycle losses (faulted runs).
        if self.faults.is_some() {
            self.loss_phase(cycle);
            lap(&mut self.profiler, &mut mark, Phase::Faults);
        }
        self.gen_phase(cycle);
        lap(&mut self.profiler, &mut mark, Phase::Generation);
        let mut trace_ns = 0u64;
        self.observer_phase(cycle, sampled.then_some(&mut trace_ns));
        lap(&mut self.profiler, &mut mark, Phase::Observers);
        if let Some(p) = self.profiler.as_deref_mut() {
            if sampled {
                p.add_child(Phase::Observers, "trace", trace_ns);
            }
            p.end_cycle(sampled);
        }
        self.cycle += 1;
    }

    /// Split the simulator into what the kernel phases of one cycle work
    /// on — the component arrays next to the sink that borrows everything
    /// they emit into, and the cycle's constants — plus the profiler, for
    /// the laps in between. `mark`: `Some` on a sampled cycle, where the
    /// sink times the switch spans.
    #[inline]
    fn split(
        &mut self,
        cycle: u64,
        mark: Option<Instant>,
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
            row: self.channels.row(cycle),
            channels: &mut self.channels,
            arena: &mut self.arena,
            selector: &mut self.selector,
            sched: self.sched.as_deref_mut(),
            counters: self.counters.as_deref_mut(),
            journal: self.journal.as_deref_mut(),
            trace: self.trace.as_deref_mut(),
            measure: &mut self.measure,
            last_activity: &mut self.last_activity,
            pending_loss: &mut self.pending_loss,
            spans: mark.map(|m| (m, [0; 2])),
        };
        let parts = SeqParts {
            switches: &mut self.switches,
            nics: &mut self.nics,
            sink,
        };
        (parts, tick, &mut self.profiler)
    }

    /// Phases 1-4. The engine runs the kernel's row walks and listed-set
    /// walks; `Scheduler::Scan`, the oracle the equivalence suites diff
    /// against, reads the same row for every channel and visits every
    /// switch and NIC, in index order — same kernel, every component.
    fn kernel_phases(&mut self, cycle: u64, mark: &mut Option<Instant>) {
        let n_channels = self.channels.len() as u32;
        let n_switches = self.switches.len() as u32;
        let n_nics = self.nics.len() as u32;
        let (mut p, t, prof) = self.split(cycle, *mark);
        let scan = p.sink.sched.is_none();
        if scan {
            for ci in 0..n_channels {
                let symbol = p.sink.channels.take_ctl(p.sink.row, ci);
                if symbol != CTL_NONE {
                    kernel::deliver_ctl(&mut p, ci, symbol);
                }
            }
        } else {
            kernel::ctl_phase(&mut p);
        }
        lap(prof, mark, Phase::Control);
        if scan {
            for ci in 0..n_channels {
                if let Some(pid) = p.sink.channels.take_data(p.sink.row, ci) {
                    kernel::deliver_data(&mut p, ci, pid, &t);
                }
            }
        } else {
            kernel::arrival_phase(&mut p, &t);
        }
        lap(prof, mark, Phase::Arrivals);
        if scan {
            for s in 0..n_switches {
                kernel::switch_phase(&mut p.switches[s as usize], s, 0, &t, &mut p.sink);
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
}

impl Simulator<'_> {
    /// Do `self` and `other` hold the same settled state? Settles both,
    /// then compares what the two cycle loops must agree on between
    /// steps: components, the flits and symbols in flight, packets,
    /// generation, selector, fault progress and measurement tallies.
    /// Heaps are compared sorted, floats by bits. The engine's wake state
    /// and runs (as runs: their flits count as in flight), the skip
    /// telemetry and the profiler are left out: they are what the loops
    /// may differ in. For the equivalence suites' lockstep bisector.
    #[doc(hidden)]
    pub fn same_state(&mut self, other: &mut Simulator<'_>) -> bool {
        fn sorted<T: Ord + Copy>(heap: &BinaryHeap<T>) -> Vec<T> {
            let mut v: Vec<T> = heap.iter().copied().collect();
            v.sort_unstable();
            v
        }
        fn nic(n: &Nic) -> impl PartialEq + '_ {
            let heaps = (sorted(&n.reinject), sorted(&n.retransmit));
            let (tx, rx, gen) = (n.tx, n.rx, n.next_gen.to_bits());
            let queues = (&n.local_queue, &n.scheduled);
            (n.stopped, queues, heaps, tx, rx, n.pool_used, gen, &n.rng)
        }
        fn faults(f: Option<&FaultRuntime>) -> impl PartialEq + '_ {
            f.map(|f| (f.next_event, f.reconfig_due, &f.host_ok))
        }
        self.settle(self.cycle);
        other.settle(other.cycle);
        let (a, b) = (&*self, &*other);
        a.cycle == b.cycle
            && a.channels.control_state() == b.channels.control_state()
            && a.channels.flits_in_flight(a.cycle) == b.channels.flits_in_flight(b.cycle)
            && a.switches == b.switches
            && a.nics.iter().map(nic).eq(b.nics.iter().map(nic))
            && a.arena == b.arena
            && sorted(&a.gen_heap) == sorted(&b.gen_heap)
            && (&a.rel, a.last_activity) == (&b.rel, b.last_activity)
            && faults(a.faults.as_deref()) == faults(b.faults.as_deref())
            && a.measure == b.measure
            && a.selector == b.selector
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Stream;
    use crate::config::CYCLE_NS;
    use crate::events::EventOptions;
    use crate::faultplan::{FaultOptions, FaultPlan};
    use crate::profiler::tests::assert_node_invariant;
    use crate::profiler::EngineCounts;
    use crate::trace::TraceOptions;
    use regnet_core::{RouteDbConfig, RoutingScheme};
    use regnet_topology::{gen, PortTarget, SwitchId, TopologyBuilder};
    use regnet_traffic::PatternSpec;

    pub(super) fn small_cfg() -> SimConfig {
        SimConfig {
            payload_flits: 64,
            ..SimConfig::default()
        }
    }

    pub(super) fn build_ring4() -> Topology {
        let mut b = TopologyBuilder::new("ring4", 6);
        b.add_switches(4);
        for i in 0..4u32 {
            b.connect(SwitchId(i), SwitchId((i + 1) % 4)).unwrap();
        }
        b.attach_hosts_everywhere(2).unwrap();
        b.build().unwrap()
    }

    pub(super) fn run_once(
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

    /// A drain on the last cycle the budget allows is a drain, and so is
    /// an empty network given no budget at all.
    #[test]
    fn run_until_drained_sees_a_drain_on_its_last_cycle() {
        let topo = build_ring4();
        let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        for scheduler in [Scheduler::Scan, Scheduler::ActiveSet] {
            // Interarrival of ~1e8 cycles: only the scripted message moves.
            let scripted = || {
                let mut sim = Simulator::new(&topo, &db, &pattern, small_cfg(), 1e-9, 1);
                sim.set_scheduler(scheduler);
                sim.schedule_message(HostId(0), HostId(5), 100);
                sim
            };
            let drained = scripted().run_until_drained(1_000_000).expect("drains");
            assert_eq!(scripted().run_until_drained(drained - 1), None);
            let mut sim = scripted();
            assert_eq!(
                sim.run_until_drained(drained),
                Some(drained),
                "{scheduler:?}"
            );
            assert_eq!(sim.run_until_drained(0), Some(drained), "{scheduler:?}");
        }
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
    }

    /// A real profiled run fills every child span from its sample of
    /// stepped cycles, counts its jumps exactly, and still reconciles with
    /// the flat phases at every node.
    #[test]
    fn sampled_child_spans_survive_a_saturated_run() {
        let topo = gen::torus_2d(4, 4, 2).unwrap();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let mut sim = Simulator::new(&topo, &db, &pattern, small_cfg(), 0.08, 3);
        sim.enable_trace(TraceOptions::full(1_000));
        sim.enable_profiler();
        sim.enable_skip_log();
        sim.run(20_000);
        let report = sim.profile_report().unwrap();
        assert_eq!(report.cycles, 20_000);
        let log = sim.skip_log();
        let skipped = |c: u64| log.iter().any(|&(from, to, _)| (from..to).contains(&c));
        let stepped: Vec<u64> = (0..20_000u64).filter(|&c| !skipped(c)).collect();
        assert_eq!(report.stepped_cycles, stepped.len() as u64);
        assert_eq!(report.stepped_cycles + sim.skipped_cycles(), 20_000);
        assert_eq!(report.skip_jumps, log.len() as u64);
        let sampled = report.sampled_cycles;
        let hashed = stepped.iter().filter(|&&c| times_children(c)).count() as u64;
        assert_eq!(sampled, hashed);
        assert!((20_000 / 128..=20_000 / 32).contains(&sampled), "{sampled}");
        assert_eq!(
            report.total_ns,
            report.phases.iter().map(|p| p.ns).sum::<u64>()
        );
        for phase in &report.phases {
            assert_node_invariant(phase);
        }
        let child = |phase: Phase, name: &str| {
            let root = &report.phases[phase as usize];
            root.children
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.ns)
        };
        assert!(child(Phase::Switches, "routing") > 0);
        assert!(child(Phase::Switches, "crossbar") > 0);
        assert!(child(Phase::Observers, "trace") > 0);
    }

    /// A profiled 4x4 torus run of `cycles`, with `plan` armed if any.
    fn profiled_run(cycles: u64, plan: Option<FaultPlan>) -> crate::ProfileReport {
        let topo = gen::torus_2d(4, 4, 2).unwrap();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let mut sim = Simulator::new(&topo, &db, &pattern, small_cfg(), 0.02, 5);
        if let Some(plan) = plan {
            sim.enable_faults(FaultOptions::with_plan(plan));
        }
        sim.enable_profiler();
        sim.run(cycles);
        sim.profile_report().unwrap()
    }

    #[test]
    fn a_fault_free_profiled_run_bills_nothing_to_faults() {
        let report = profiled_run(10_000, None);
        assert!(report.total_ns > 0);
        assert_eq!(report.phases[Phase::Faults as usize].ns, 0);
    }

    #[test]
    fn a_link_fail_repair_plan_bills_faults() {
        let topo = gen::torus_2d(4, 4, 2).unwrap();
        let link = topo.links().iter().find(|l| l.is_switch_link()).unwrap().id;
        let mut plan = FaultPlan::single_link(link, 1_500);
        plan.repair_link(5_000, link);
        let report = profiled_run(10_000, Some(plan));
        assert!(report.phases[Phase::Faults as usize].ns > 0);
    }

    #[test]
    fn every_remap_is_timed_rebuilds_and_swap_backs_apart() {
        // A link fails, is repaired and fails again: a rebuild, a rebuild
        // of the fault-free tables, then a swap-back of the first.
        let topo = gen::torus_2d(4, 4, 2).unwrap();
        let link = topo.links().iter().find(|l| l.is_switch_link()).unwrap().id;
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let cfg = SimConfig {
            reconfig_latency_cycles: 400,
            ..small_cfg()
        };
        let mut sim = Simulator::new(&topo, &db, &pattern, cfg, 0.02, 5);
        let mut plan = FaultPlan::single_link(link, 1_000);
        plan.repair_link(3_000, link).fail_link(5_000, link);
        sim.enable_faults(FaultOptions::with_plan(plan));
        sim.enable_profiler();
        sim.run(8_000);
        let rel = sim.reliability();
        let report = sim.profile_report().unwrap();
        let remaps = report.remaps;
        assert_eq!((rel.reconfigurations, rel.reconfig_failures), (3, 0));
        assert_eq!(remaps.rebuilds + remaps.swaps, rel.reconfigurations);
        assert_eq!((remaps.rebuilds, remaps.swaps), (2, 1));
        assert!(remaps.rebuild_ns > 0 && remaps.swap_ns > 0);
        let line = "re-maps (each timed): 2 rebuilds in ";
        assert!(report.to_table().contains(line), "{}", report.to_table());
        // A fault-free run has no re-map to time.
        assert_eq!(
            profiled_run(10_000, None).remaps,
            crate::RemapTimes::default()
        );
    }

    #[test]
    fn a_run_shorter_than_its_first_sampled_cycle_reports_zeros() {
        let first = (0..).find(|&c| times_children(c)).unwrap();
        assert!(first > 0);
        let report = profiled_run(first, None);
        assert_eq!((report.cycles, report.sampled_cycles), (first, 0));
        assert_eq!(report.total_ns, 0);
        assert!(report.phases.iter().all(|p| p.ns == 0 && p.fraction == 0.0));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Engine and oracle hold the same state after every `run(n)`, not
        /// only the same results at the end: random small topologies,
        /// schemes and loads, half of them with a link that fails and is
        /// repaired under a re-map short enough to complete and drain.
        #[test]
        fn engine_and_oracle_same_state_after_every_run(
            point in (
                (4usize..9, 2usize..4, 1usize..3, 0u64..500),
                0usize..3,
                proptest::sample::select(vec![0.0005f64, 0.003, 0.02, 0.1]),
                proptest::prelude::any::<u64>(),
            ),
            (faulted, latency) in (proptest::prelude::any::<bool>(), 1_000u64..4_000),
            runs in proptest::collection::vec(1u64..3_000, 3..6),
        ) {
            let ((n, deg, hosts, tseed), scheme, load, seed) = point;
            let topo = gen::irregular_random(n, deg, hosts, tseed).unwrap();
            let scheme = RoutingScheme::all()[scheme];
            let db = RouteDb::build(&topo, scheme, &RouteDbConfig::default());
            let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
            let cfg = SimConfig { reconfig_latency_cycles: latency, ..small_cfg() };
            let link = topo.links().iter().find(|l| l.is_switch_link()).map(|l| l.id);
            let start = |scheduler: Scheduler| {
                let mut sim = Simulator::new(&topo, &db, &pattern, cfg.clone(), load, seed);
                sim.set_scheduler(scheduler);
                if let (true, Some(link)) = (faulted, link) {
                    let mut plan = FaultPlan::single_link(link, 1_500);
                    plan.repair_link(5_000, link);
                    sim.enable_faults(FaultOptions::with_plan(plan));
                }
                sim
            };
            let (mut engine, mut oracle) = (start(Scheduler::ActiveSet), start(Scheduler::Scan));
            for n in runs {
                engine.run(n);
                oracle.run(n);
                proptest::prop_assert_eq!(engine.cycle, oracle.cycle);
                engine.check_invariants();
                proptest::prop_assert!(
                    engine.same_state(&mut oracle),
                    "states diverged by cycle {}", engine.cycle
                );
            }
        }
    }

    /// `same_state` reads every field family it names. Two identical
    /// simulators, busy and mid-window with a fault plan armed: one value
    /// changed in one of them makes them differ, and the same change in
    /// the other makes them equal again. Both run the scan loop, which
    /// streams nothing, so settling cannot undo a change.
    #[test]
    fn same_state_sees_a_change_in_every_field_family() {
        let topo = build_ring4();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let link = topo.links().iter().find(|l| l.is_switch_link()).unwrap().id;
        let start = || {
            let mut sim = Simulator::new(&topo, &db, &pattern, small_cfg(), 0.1, 7);
            sim.set_scheduler(Scheduler::Scan);
            let plan = FaultPlan::single_link(link, 1_000_000);
            sim.enable_faults(FaultOptions::with_plan(plan));
            sim.run(300);
            sim.begin_measurement();
            sim.run(300);
            sim
        };
        let (mut a, mut b) = (start(), start());
        assert!(a.same_state(&mut b));
        let empty = (0..a.channels.len() as u32).find(|&ci| !a.channels.has_data_in_flight(ci));
        let empty = empty.expect("an idle channel");
        let pid = a.nics.iter().find_map(|n| n.tx.map(|t| t.pid));
        let pid = pid.expect("a packet in transmission");
        let port = a.switches[0].active_ports[0] as usize;
        // The next-generation times first agree on 0.0, so that the next
        // change (to -0.0) differs only by bits.
        for sim in [&mut a, &mut b] {
            sim.nics[0].next_gen = 0.0;
        }
        let mut check = |what: &str, change: &dyn Fn(&mut Simulator<'_>)| {
            change(&mut b);
            assert!(!a.same_state(&mut b), "{what} is not compared");
            change(&mut a);
            assert!(a.same_state(&mut b), "{what}: equal again");
        };
        check("cycle", &|s| s.cycle += 1);
        check("control state", &|s| s.channels.reset_busy());
        check("flits in flight", &|s| {
            let row = s.channels.row(s.cycle);
            s.channels.send(row, empty, pid);
        });
        check("switch", &|s| {
            let inp = s.switches[0].inp[port].as_mut().unwrap();
            inp.stop_sent = !inp.stop_sent;
        });
        check("NIC stopped", &|s| s.nics[0].stopped ^= true);
        check("NIC local queue", &|s| s.nics[0].local_queue.push_back(pid));
        check("NIC reinject", &|s| {
            s.nics[0].reinject.push(Reverse((9, pid)))
        });
        check("NIC retransmit", &|s| {
            s.nics[0].retransmit.push(Reverse((9, pid)))
        });
        let (sent, total, reinjection) = (0, 1, true);
        check("NIC tx", &|s| {
            s.nics[0].tx = Some(crate::nic::TxState {
                pid,
                sent,
                total,
                reinjection,
            })
        });
        let (received, expected, deliver) = (0, 1, true);
        check("NIC rx", &|s| {
            s.nics[0].rx = Some(crate::nic::RxState {
                pid,
                received,
                expected,
                deliver,
            })
        });
        check("NIC pool", &|s| s.nics[0].pool_used += 1);
        check("NIC next_gen", &|s| {
            s.nics[0].next_gen = -s.nics[0].next_gen
        });
        check("NIC rng", &|s| {
            s.nics[0].rng.gen::<u64>();
        });
        check("NIC scheduled", &|s| s.nics[0].scheduled.push_back((9, 1)));
        check("arena", &|s| s.arena.get_mut(pid).retries += 1);
        check("generation heap", &|s| s.gen_heap.push(Reverse((9, 0))));
        check("reliability", &|s| s.rel.retransmissions += 1);
        check("last activity", &|s| s.last_activity += 1);
        check("fault next event", &|s| {
            s.faults.as_mut().unwrap().next_event += 1
        });
        check("fault reconfig due", &|s| {
            let f = s.faults.as_mut().unwrap();
            f.reconfig_due = Some(f.reconfig_due.map_or(9, |c| c + 1));
        });
        check("fault host_ok", &|s| {
            s.faults.as_mut().unwrap().host_ok[0] ^= true
        });
        check("measure on", &|s| s.measure.on ^= true);
        check("latency", &|s| s.measure.latency.push(1.0));
        check("total latency", &|s| s.measure.total_latency.push(1.0));
        check("histogram", &|s| s.measure.hist.record(1));
        check("delivered", &|s| s.measure.delivered += 1);
        check("payload", &|s| s.measure.delivered_payload_flits += 1);
        check("generated", &|s| s.measure.generated += 1);
        check("itb sum", &|s| s.measure.itb_sum += 1);
        check("generation stalls", &|s| s.measure.gen_stall_cycles += 1);
        check("kernel tallies", &|s| s.measure.kernel.itb_overflows += 1);
        check("selector", &|s| {
            let (db, topo) = (s.db, s.topo);
            db.select(topo, HostId(0), HostId(5), &mut s.selector);
        });
    }

    /// Three switches in a line, one host each: worms from either end
    /// cross two switches.
    fn line3() -> Topology {
        let mut b = TopologyBuilder::new("line3", 3);
        b.add_switches(3);
        b.connect(SwitchId(0), SwitchId(1)).unwrap();
        b.connect(SwitchId(1), SwitchId(2)).unwrap();
        b.attach_hosts_everywhere(1).unwrap();
        b.build().unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Settle against stepping: on a two-hop line driven by scripted
        /// worms (headers arriving behind and beside steady runs) and by
        /// STOP/GO pairs injected on random channels (control symbols in
        /// the middle of runs), the engine's settled state equals the
        /// per-flit oracle's after every cycle — every run's event lands
        /// on the cycle per-flit stepping meets it.
        #[test]
        fn settled_runs_equal_per_flit_stepping_after_every_cycle(
            payload in proptest::sample::select(vec![20usize, 70, 300, 600]),
            msgs in proptest::collection::vec((0u64..2_000, 0u32..3, 1u32..3), 1..10),
            ctl in proptest::collection::vec((0u64..2_000, 1u64..200, 0u32..10), 0..8),
        ) {
            let topo = line3();
            let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
            let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
            let cfg = SimConfig { payload_flits: payload, ..SimConfig::default() };
            let mut msgs = msgs;
            msgs.sort_unstable();
            let start = |scheduler: Scheduler| {
                let mut sim = Simulator::new(&topo, &db, &pattern, cfg.clone(), 1e-9, 1);
                sim.set_scheduler(scheduler);
                sim.stop_generation();
                for &(at, src, hop) in &msgs {
                    sim.schedule_message(HostId(src), HostId((src + hop) % 3), at);
                }
                sim
            };
            let (mut engine, mut oracle) = (start(Scheduler::ActiveSet), start(Scheduler::Scan));
            // STOP at `at`, GO `hold` cycles later unless the receiver has
            // sent a STOP of its own (its GO then comes by itself).
            let mut symbols: Vec<(u64, u32, bool)> = ctl
                .iter()
                .flat_map(|&(at, hold, ci)| [(at, ci, true), (at + hold, ci, false)])
                .collect();
            symbols.sort_unstable();
            let mut next = symbols.into_iter().peekable();
            for cycle in 0..2_600u64 {
                engine.run(1);
                oracle.run(1);
                while let Some(&(_, ci, stop)) = next.peek().filter(|s| s.0 == cycle) {
                    next.next();
                    let ci = ci % engine.channels.len() as u32;
                    let held = match engine.channels.receiver(ci) {
                        Receiver::SwitchIn { sw, port } => {
                            engine.switches[sw as usize].inp[port as usize].as_ref().unwrap().stop_sent
                        }
                        Receiver::Nic { .. } => false,
                    };
                    if stop || !held {
                        let symbol = if stop { crate::channel::CTL_STOP } else { crate::channel::CTL_GO };
                        for sim in [&mut engine, &mut oracle] {
                            let row = sim.channels.row(cycle);
                            sim.channels.send_ctl(row, ci, symbol);
                        }
                    }
                }
                engine.check_invariants();
                proptest::prop_assert!(
                    engine.same_state(&mut oracle),
                    "diverged in cycle {}:\n{}\n{}", cycle, engine.dump_state(), oracle.dump_state()
                );
            }
        }
    }

    // ---- A visit leaves the runs of ports it has no work on streaming.
    // One switch, six hosts: h0 -> h1 and h2 -> h3 stream through it as
    // runs from their first flits on, and the switch is visited for one
    // other cause. The other run's record must come out of that step as it
    // went in (neither settled nor suspended), and the engine's settled
    // state must equal the per-flit oracle's every cycle.

    /// One switch with six hosts.
    fn star6() -> Topology {
        let mut b = TopologyBuilder::new("star6", 6);
        b.add_switches(1);
        b.attach_hosts_everywhere(6).unwrap();
        b.build().unwrap()
    }

    /// Engine and oracle on [`star6`], stepped in lockstep.
    struct TwoRuns<'a> {
        engine: Simulator<'a>,
        oracle: Simulator<'a>,
    }

    impl<'a> TwoRuns<'a> {
        /// h0 -> h1 at cycle 0, h2 -> h3 at 40, and `more` for both loops.
        fn new(
            topo: &'a Topology,
            db: &'a RouteDb,
            pattern: &'a Pattern,
            more: &[(u32, u32, u64)],
        ) -> TwoRuns<'a> {
            let start = |scheduler| {
                let mut sim = Simulator::new(topo, db, pattern, SimConfig::default(), 1e-9, 1);
                sim.set_scheduler(scheduler);
                sim.stop_generation();
                for &(src, dst, at) in [(0, 1, 0), (2, 3, 40)].iter().chain(more) {
                    sim.schedule_message(HostId(src), HostId(dst), at);
                }
                sim
            };
            let mut both = TwoRuns {
                engine: start(Scheduler::ActiveSet),
                oracle: start(Scheduler::Scan),
            };
            // Both worms cross the switch, each as a run.
            while both.engine.cycle < 120 {
                both.step();
            }
            assert!(both.run_to(1).is_some_and(|st| st.running()));
            assert!(both.run_to(3).is_some_and(|st| st.running()));
            both
        }

        /// The switch's run into host `h`'s NIC.
        fn run_to(&self, h: u32) -> Option<Stream> {
            self.engine
                .channels
                .stream(self.engine.channels.nic_in(h))
                .copied()
        }

        /// Both loops step one cycle and must agree, settled.
        fn step(&mut self) {
            self.engine.run(1);
            self.oracle.run(1);
            self.engine.check_invariants();
            let cycle = self.engine.cycle;
            assert!(
                self.engine.same_state(&mut self.oracle),
                "diverged by cycle {cycle}"
            );
        }

        /// Step one cycle with the states compared only afterwards (that
        /// settles every run); returns the runs into h1 and h3 as they
        /// were before and after the step, and what the engine counted.
        fn step_watched(&mut self) -> ([Option<Stream>; 2], [Option<Stream>; 2], EngineCounts) {
            let before = [self.run_to(1), self.run_to(3)];
            let counts = self.engine.sched.as_deref().unwrap().counts;
            self.engine.run(1);
            self.oracle.run(1);
            let after = [self.run_to(1), self.run_to(3)];
            let now = self.engine.sched.as_deref().unwrap().counts;
            let delta = EngineCounts {
                switch_visits: now.switch_visits - counts.switch_visits,
                runs_suspended: now.runs_suspended - counts.runs_suspended,
                runs_left_streaming: now.runs_left_streaming - counts.runs_left_streaming,
                ..EngineCounts::default()
            };
            self.engine.check_invariants();
            assert!(self.engine.same_state(&mut self.oracle));
            (before, after, delta)
        }

        /// Step until `cause` holds after a step; that step's visit must
        /// leave both runs streaming as they were.
        fn visit_leaves_both_runs(&mut self, what: &str, cause: impl Fn(&Simulator) -> bool) {
            for _ in 0..200 {
                let (before, after, delta) = self.step_watched();
                if !cause(&self.engine) {
                    continue;
                }
                assert_eq!(delta.switch_visits, 1, "{what}: the switch is visited");
                assert_eq!(before, after, "{what}: a run was settled or suspended");
                assert_eq!(
                    (delta.runs_suspended, delta.runs_left_streaming),
                    (0, 2),
                    "{what}"
                );
                return;
            }
            panic!("{what}: never happened");
        }

        /// Lockstep on until both worms are delivered.
        fn finish(&mut self) {
            while self.engine.packets_in_flight() > 0 {
                self.step();
            }
            assert_eq!(self.oracle.packets_in_flight(), 0);
        }
    }

    /// The state of input `port` of the star's switch.
    fn input(sim: &Simulator, port: usize) -> (HeadState, usize) {
        let inp = sim.switches[0].inp[port].as_ref().unwrap();
        (inp.head(), inp.queue().len())
    }

    #[test]
    fn untouched_runs_stream_through_a_slot_arrival() {
        let topo = star6();
        let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let mut both = TwoRuns::new(&topo, &db, &pattern, &[(4, 5, 150)]);
        // h4's header: the first flit of a NIC's worm travels in a slot.
        both.visit_leaves_both_runs("slot arrival", |sim| input(sim, 4).1 == 1);
        both.finish();
    }

    #[test]
    fn untouched_runs_stream_through_stop_and_go() {
        let topo = star6();
        let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let mut both = TwoRuns::new(&topo, &db, &pattern, &[]);
        // STOP, then GO, on the idle output towards h5.
        let into_h5 = both.engine.channels.nic_in(5);
        for (symbol, stopped) in [
            (crate::channel::CTL_STOP, true),
            (crate::channel::CTL_GO, false),
        ] {
            let cycle = both.engine.cycle - 1;
            for sim in [&mut both.engine, &mut both.oracle] {
                let row = sim.channels.row(cycle);
                sim.channels.send_ctl(row, into_h5, symbol);
            }
            let Sender::SwitchOut { port, .. } = both.engine.channels.sender(into_h5) else {
                unreachable!("a switch drives a NIC's link")
            };
            both.visit_leaves_both_runs(if stopped { "STOP" } else { "GO" }, |sim| {
                sim.switches[0].is_stopped(port as usize) == stopped
            });
        }
        both.finish();
    }

    #[test]
    fn untouched_runs_stream_through_routing_and_a_grant() {
        let topo = star6();
        let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let mut both = TwoRuns::new(&topo, &db, &pattern, &[(4, 5, 150)]);
        // The header arrives and is routed; 150 ns later its routing ends
        // and the free output is granted in one visit.
        while !matches!(input(&both.engine, 4).0, HeadState::Routing { .. }) {
            both.step();
        }
        both.visit_leaves_both_runs("routing and grant", |sim| {
            input(sim, 4).0 == HeadState::Granted
        });
        both.finish();
    }

    #[test]
    fn untouched_runs_stream_through_the_other_runs_event() {
        let topo = star6();
        let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let mut both = TwoRuns::new(&topo, &db, &pattern, &[]);
        // h0's worm started first: its tail is due first.
        let due = |h| both.run_to(h).unwrap().due();
        let (due, later) = (due(1), due(3));
        assert!(due < later);
        while both.engine.cycle < due {
            both.step();
        }
        let (before, after, delta) = both.step_watched();
        assert_eq!(delta.switch_visits, 1, "the run's event is a visit");
        assert_ne!(before[0], after[0], "the due run is suspended and ends");
        assert_eq!(before[1], after[1], "the other run streams on untouched");
        assert_eq!((delta.runs_suspended, delta.runs_left_streaming), (1, 1));
        both.finish();
    }

    /// A cut-through re-injection streams out of what streams into its
    /// NIC. Held STOP upstream of the NIC for longer than the re-injection
    /// takes to catch up, it starves mid-packet: the engine visits it per
    /// flit then, and counts every bubble the oracle counts, in lockstep.
    #[test]
    fn a_starved_cut_through_reinjection_counts_every_bubble_in_lockstep() {
        let topo = build_ring4();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let cfg = SimConfig::default();
        let start = |scheduler: Scheduler| {
            let mut sim = Simulator::new(&topo, &db, &pattern, cfg.clone(), 1e-9, 1);
            sim.set_scheduler(scheduler);
            sim.stop_generation();
            sim.begin_measurement();
            sim
        };
        // The first pair whose route takes an in-transit buffer.
        let (mut engine, mut oracle) = (start(Scheduler::ActiveSet), start(Scheduler::Scan));
        let hosts = topo.num_hosts() as u32;
        let pairs = (0..hosts).flat_map(|s| (0..hosts).map(move |d| (s, d)));
        let itb = pairs.filter(|&(s, d)| s != d).find_map(|(s, d)| {
            let (src, mut sel) = (HostId(s), db.selector());
            let route = db.choose_from(&topo, src, HostId(d), sel.src_mut(src));
            route.walk(&topo).find_map(|hop| match hop.to {
                PortTarget::Host { host, .. } => Some((s, d, host.0)),
                PortTarget::Switch { .. } => None,
            })
        });
        let (src, dst, itb) = itb.expect("ring routes use in-transit buffers");
        for sim in [&mut engine, &mut oracle] {
            sim.schedule_message(HostId(src), HostId(dst), 10);
        }
        let into_itb = engine.channels.nic_in(itb);
        let mut stop_at = None;
        for cycle in 0..6_000u64 {
            engine.run(1);
            oracle.run(1);
            // 150 flits in: hold the switch feeding the NIC for 400 cycles.
            engine.settle(engine.cycle);
            let received = engine.nics[itb as usize].rx.map_or(0, |rx| rx.received);
            let symbol = match stop_at {
                None if received >= 150 => {
                    stop_at = Some(cycle);
                    Some(crate::channel::CTL_STOP)
                }
                Some(at) if cycle == at + 400 => Some(crate::channel::CTL_GO),
                _ => None,
            };
            if let Some(symbol) = symbol {
                for sim in [&mut engine, &mut oracle] {
                    let row = sim.channels.row(cycle);
                    sim.channels.send_ctl(row, into_itb, symbol);
                }
            }
            engine.check_invariants();
            assert!(engine.same_state(&mut oracle), "cycle {cycle}");
        }
        let (e, o) = (engine.end_measurement(6_000), oracle.end_measurement(6_000));
        assert_eq!(e, o);
        assert_eq!(e.delivered, 1);
        assert!(e.reinject_bubbles > 100, "bubbles: {}", e.reinject_bubbles);
    }

    /// `end_observation` moves the trace series out: with every recorder
    /// armed, its report equals a copy taken just before, and each
    /// utilization row holds no spare capacity.
    #[test]
    fn end_observation_moves_the_trace_out_unchanged() {
        let topo = build_ring4();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let mut sim = Simulator::new(&topo, &db, &pattern, small_cfg(), 0.05, 5);
        sim.enable_counters();
        sim.enable_events(EventOptions::default());
        sim.enable_trace(TraceOptions::full(100));
        sim.enable_profiler();
        sim.run(2_000);
        sim.begin_measurement();
        sim.run(3_050);
        let copied = sim.trace_report().expect("trace armed");
        let obs = sim.end_observation(3_050);
        let moved = obs.trace.expect("trace armed");
        assert_eq!(moved, copied);
        let util = moved.channel_util.as_ref().expect("utilization armed");
        assert_eq!(util.buckets, 50);
        assert_eq!(util.busy.len(), sim.channels.len());
        assert!(util.busy.iter().all(|row| row.len() == 50));
        assert!(util.busy.iter().all(|row| row.capacity() == row.len()));
        assert!(moved
            .metrics
            .unwrap()
            .samples
            .iter()
            .any(|s| s.values[0] > 0));
        assert!(obs.journal.is_some_and(|j| !j.is_empty()));
        assert!(sim.trace_report().is_none() && sim.journal().is_none());
    }

    /// A journal entry names hosts in 16 bits: `enable_events` refuses a
    /// network of 65,537 hosts (1,058 switches in a line, 64 ports each)
    /// before it records anything. Its table is a small ring's; the
    /// refusal comes before a cycle could read it.
    #[test]
    #[should_panic(
        expected = "at most 65,536 hosts and 65,536 switches, this network has 65537 hosts"
    )]
    fn enable_events_refuses_ids_a_journal_entry_cannot_hold() {
        let mut b = TopologyBuilder::new("line", 64);
        let first = b.add_switches(1_058);
        for s in 1..1_058u32 {
            b.connect(SwitchId(first.0 + s - 1), SwitchId(first.0 + s))
                .unwrap();
        }
        for h in 0..(1 << 16) + 1 {
            b.attach_host(SwitchId(h / 62)).unwrap();
        }
        let topo = b.build().unwrap();
        let ring = build_ring4();
        let db = RouteDb::build(&ring, RoutingScheme::UpDown, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let mut sim = Simulator::new(&topo, &db, &pattern, small_cfg(), 1e-9, 1);
        sim.enable_events(EventOptions::default());
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
