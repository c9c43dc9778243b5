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
use crate::kernel::{self, Tick};
use crate::nic::Nic;
use crate::packet::PacketArena;
use crate::profiler::{times_children, Phase, Profiler};
use crate::sched::{ActiveSched, Scheduler};
use crate::switch::SwitchState;
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
fn route_db<'a>(faults: Option<&'a FaultRuntime>, built: &'a RouteDb) -> &'a RouteDb {
    let rebuilt = faults.and_then(|f| f.routes.as_ref());
    rebuilt.map_or(built, |r| &r.routes.db)
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
    /// Directed channel indices per physical link (both directions).
    link_chans: Vec<[u32; 2]>,
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
    /// Total cycles `run`/`run_until_drained` jumped over (see `skip.rs`).
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

        // Build channels: two directed channels per physical link, so link
        // `l`'s are `2l` and `2l + 1`.
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
        let link_chans = (0..topo.num_links() as u32)
            .map(|l| [2 * l, 2 * l + 1])
            .collect();

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
            link_chans,
            pending_loss: Vec::new(),
            gen_frozen: false,
            gen_heap: (0..topo.num_hosts() as u32)
                .map(|h| Reverse((0, h)))
                .collect(),
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
    /// the port state, and check that the engine lists every switch
    /// holding a packet and every NIC with something to send that is not
    /// asleep (held by STOP, or frozen by a pending reconfiguration);
    /// panic on a mismatch. Valid between steps.
    pub fn check_invariants(&self) {
        for sw in &self.switches {
            sw.check_invariants();
        }
        let Some(sc) = self.sched.as_deref() else {
            return;
        };
        for (s, sw) in self.switches.iter().enumerate() {
            assert!(
                sc.switches.contains(s as u32) || sw.is_quiescent(),
                "switch {s} holds a packet, unlisted"
            );
        }
        // What became ready by the last cycle stepped was visited then;
        // later readiness is the wake heap's.
        let last = self.cycle.saturating_sub(1);
        let faults = self.faults.as_deref();
        for (h, nic) in self.nics.iter().enumerate() {
            let idle = nic.quiescent_for_tx(last) || nic.held_by_stop() || nic.frozen(faults);
            assert!(
                sc.nics.contains(h as u32) || idle,
                "NIC {h} has work, unlisted:\n{}",
                self.dump_state()
            );
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
            spans: timed.then(|| (Instant::now(), [0; 2])),
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
    fn kernel_phases(&mut self, cycle: u64, mark: &mut Option<Instant>, timed: bool) {
        let n_channels = self.channels.len() as u32;
        let n_switches = self.switches.len() as u32;
        let n_nics = self.nics.len() as u32;
        let (mut p, t, prof) = self.split(cycle, timed);
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
}

#[cfg(test)]
impl Simulator<'_> {
    /// FNV-1a over the state the two cycle loops must agree on between
    /// steps: components, channel table, packets, generation, selector,
    /// fault progress and measurement tallies. Heaps are hashed sorted.
    /// The engine's wake state, the skip telemetry and the profiler are
    /// left out: they are what the loops may differ in.
    pub(crate) fn state_hash(&self) -> u64 {
        use std::fmt::Write;
        fn sorted<T: Ord + Copy>(heap: &BinaryHeap<T>) -> Vec<T> {
            let mut v: Vec<T> = heap.iter().copied().collect();
            v.sort_unstable();
            v
        }
        let mut s = format!("{} {:?} {:?}", self.cycle, self.channels, self.switches);
        for n in &self.nics {
            let heaps = (sorted(&n.reinject), sorted(&n.retransmit));
            let (tx, rx, gen) = (n.tx, n.rx, n.next_gen.to_bits());
            write!(
                s,
                "|{} {:?} {heaps:?} {tx:?} {rx:?}",
                n.stopped, n.local_queue
            )
            .unwrap();
            write!(s, " {} {gen} {:?} {:?}", n.pool_used, n.rng, n.scheduled).unwrap();
        }
        write!(s, "|{:?} {:?}", self.arena, sorted(&self.gen_heap)).unwrap();
        write!(
            s,
            " {:?} {:?} {}",
            self.selector, self.rel, self.last_activity
        )
        .unwrap();
        if let Some(f) = self.faults.as_deref() {
            write!(s, " {} {:?} {:?}", f.next_event, f.reconfig_due, f.host_ok).unwrap();
        }
        let m = &self.measure;
        write!(
            s,
            " {} {:?} {:?} {:?}",
            m.on, m.latency, m.total_latency, m.hist
        )
        .unwrap();
        let tallies = (
            m.delivered,
            m.delivered_payload_flits,
            m.generated,
            m.itb_sum,
        );
        write!(s, " {tallies:?} {} {:?}", m.gen_stall_cycles, m.kernel).unwrap();
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CYCLE_NS;
    use crate::faultplan::{FaultOptions, FaultPlan};
    use crate::profiler::tests::assert_node_invariant;
    use crate::trace::TraceOptions;
    use regnet_core::{RouteDbConfig, RoutingScheme};
    use regnet_topology::{gen, SwitchId, TopologyBuilder};
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
        let report = sim.profile_report().unwrap();
        assert_eq!(report.cycles, 20_000);
        let sampled = report.sampled_cycles;
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Engine and oracle hold the same state after every `run(n)`, not
        /// only the same results at the end: random small topologies,
        /// schemes and loads, half of them with a link that fails and is
        /// repaired under a re-map short enough to complete and drain.
        #[test]
        fn engine_and_oracle_state_hash_agree_after_every_run(
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
                proptest::prop_assert_eq!(
                    engine.state_hash(),
                    oracle.state_hash(),
                    "states diverged by cycle {}", engine.cycle
                );
            }
        }
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
