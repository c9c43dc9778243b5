//! The Myrinet switch/NIC cycle, written once.
//!
//! Everything the paper's results come out of — control symbols flipping
//! sender flags, flits entering slack buffers, the 150 ns routing delay,
//! demand-slotted round-robin arbitration, stop&go, in-transit eject and
//! re-injection — lives in the functions of this module and nowhere else.
//! They are safe and generic over the sink: each takes the
//! component it advances (`&mut SwitchState` / `&mut Nic`) and a [`Sink`],
//! through which it reaches the packets and channels it touches
//! and *emits* every other consequence of the cycle, one named method per
//! effect.
//!
//! The simulator's sink (`sim/sink.rs`) is a bundle of disjoint `&mut`
//! borrows of its fields and applies every effect the moment it is
//! emitted. The two losses are the exception: it records them, and the
//! loss phase replays the records in recording order after NIC
//! transmission. The kernel tests' recording sink logs every effect
//! instead.
//!
//! The phase loops at the bottom walk the set bits of the channel table's
//! current row and of the engine's listed switches and NICs, in ascending
//! order, over the simulator's `SeqParts`: the component arrays next to
//! that sink. The full-scan oracle (`Scheduler::Scan`) keeps its own loops
//! in `sim/mod.rs` and calls the per-component functions directly.
//!
//! Below them, the engine's steady runs: a granted connection (or a NIC's
//! worm) that moves one flit per cycle until an event it can foresee is
//! streamed as one run, its component visited only at the event, and its
//! flits counted into the component state when something reads it
//! (`settle_tx`/`settle_rx`). A run adds no transition of its own. A
//! switch visit suspends only the runs of the ports it has work on (a
//! slot arrival, a STOP, routing or arbitration, the run's own stored next
//! event) and runs the functions above per flit there; every other run
//! streams on through the visit, its flit carried by the run, towards the
//! next event the visit that started or resumed it worked out. A NIC has
//! one run, which every visit of the NIC suspends. A suspended run goes
//! on afterwards if the flow is still steady. The oracle never starts
//! one.

use std::cmp::Reverse;

use regnet_core::{Header, RouteDb, SrcSelector};
use regnet_mapper::PhysicalRoutes;
use regnet_topology::{HostId, SwitchId, Topology};

use crate::channel::{Channels, Drain, Receiver, Sender, Stream, CTL_STOP};
use crate::config::{
    SimConfig, GO_THRESHOLD, ITB_DETECT_CYCLES, ITB_DMA_CYCLES, ITB_OVERFLOW_PENALTY_CYCLES,
    STOP_THRESHOLD, SWITCH_ROUTING_CYCLES,
};
use crate::counters::CounterSnapshot;
use crate::events::EventKind;
use crate::faultplan::FaultRuntime;
use crate::nic::{Nic, RxState, TxKind, TxState};
use crate::packet::Packet;
use crate::sched::Listed;
use crate::sim::SeqParts;
use crate::switch::{ports, HeadState, InPort, SwitchState};

/// Measurement-window tallies the kernel feeds.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct KernelMeasure {
    pub max_pool_flits: u32,
    pub itb_overflows: u64,
    pub reinject_bubbles: u64,
}

/// What is fixed for the duration of one cycle. The fault state mutates
/// only in the fault phase (phase 0), so for the kernel phases it is
/// plain shared data.
#[derive(Clone, Copy)]
pub(crate) struct Tick<'a> {
    pub cycle: u64,
    pub cfg: &'a SimConfig,
    /// `None` unless fault injection is armed: every fault branch of the
    /// kernel hangs off this one test.
    pub faults: Option<&'a FaultRuntime>,
    /// The table fresh and retransmitted packets route from: the
    /// reconfigured tables once installed, the build-time ones before.
    pub db: Tables<'a>,
    pub topo: &'a Topology,
}

/// The tables new headers are written from: the build-time table, or the
/// tables a re-map installed, which write a switch pair's routes on its
/// first `select`. Generation and the NIC's re-select reach either
/// through this one `has_route`/`select` pair.
#[derive(Clone, Copy)]
pub(crate) enum Tables<'a> {
    Built(&'a RouteDb),
    Remapped(&'a PhysicalRoutes),
}

impl Tables<'_> {
    /// Does switch pair `(s, d)` have a route?
    pub(crate) fn has_route(self, s: SwitchId, d: SwitchId) -> bool {
        match self {
            Tables::Built(db) => db.has_route(s, d),
            Tables::Remapped(routes) => routes.has_route(s, d),
        }
    }

    /// The header a packet from `src` to `dst` carries now.
    pub(crate) fn select(
        self,
        topo: &Topology,
        src: HostId,
        dst: HostId,
        selector: &mut SrcSelector,
    ) -> Header {
        match self {
            Tables::Built(db) => db.select_from(topo, src, dst, selector),
            Tables::Remapped(routes) => routes.select(topo, src, dst, selector),
        }
    }
}

/// The two child spans the profiler shows below the switch phase.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SwitchSpan {
    Routing = 0,
    Crossbar = 1,
}

/// Everything a kernel function needs besides the component it advances:
/// access to the packets and channels it touches, and a place to
/// emit every effect of the cycle. Implementations hold the current cycle.
pub(crate) trait Sink {
    // ---- Access. ----

    /// A live packet.
    fn pkt(&mut self, pid: u32) -> &mut Packet;
    /// Path-selection state of source host `src`.
    fn selector(&mut self, src: HostId) -> &mut SrcSelector;
    /// Has channel `ci`'s cable failed?
    fn is_dead(&self, ci: u32) -> bool;

    // ---- Effects. ----

    /// One flit of `pid` leaves on channel `ci`: it is written into the
    /// channel table's row of its arrival cycle.
    fn send(&mut self, ci: u32, pid: u32);
    /// A stop/go symbol goes back on channel `ci`, the same way.
    fn send_ctl(&mut self, ci: u32, symbol: u8);
    /// Switch `sw` holds a flit: keep it in the active set.
    fn activate_switch(&mut self, sw: u32);
    /// NIC `host` has a re-injection becoming ready at `ready`.
    fn wake_nic_at(&mut self, ready: u64, host: u32);
    /// A flit or control symbol moved (watchdog feed).
    fn activity(&mut self);
    /// Bump the counter registry, if counting.
    fn count(&mut self, bump: impl FnOnce(&mut CounterSnapshot));
    /// Counters or journal are on: block causes are worth computing.
    fn diag(&self) -> bool;
    /// Update the measurement tallies, if a window is open.
    fn measure(&mut self, update: impl FnOnce(&mut KernelMeasure));
    /// Journal `(packet, event)` if journaling; `event` is not evaluated
    /// otherwise.
    fn journal(&mut self, event: impl FnOnce() -> (u32, EventKind));
    /// `pid` was ejected into NIC `host`'s in-transit buffer (`overflow`:
    /// into host memory).
    fn itb_eject(&mut self, pid: u32, host: u32, overflow: bool);
    /// NIC `host` sent the first flit of re-injected `pid`.
    fn reinject(&mut self, pid: u32, host: u32);
    /// The tail of `pid` reached its destination NIC `host`: the packet,
    /// and with it its message, is delivered and leaves the arena.
    fn deliver(&mut self, pid: u32, host: u32);
    /// `pid`'s worm was routed into a dead output and cannot go on.
    fn lose_worm(&mut self, pid: u32);
    /// `pid` became unroutable at its source NIC and is dropped.
    fn drop_unroutable(&mut self, pid: u32);

    /// Profiler hook around the two loops of [`switch_phase`]: if child
    /// spans are being collected, charge the time since the last lap to
    /// `span` (`None`: just start the clock).
    #[inline]
    fn span_lap(&mut self, _span: Option<SwitchSpan>) {}
}

// ---------------------------------------------------------------------------
// Per-component kernels
// ---------------------------------------------------------------------------

/// Phase 1, one channel: deliver `symbol`, which arrived on `ci`, to the
/// channel's sender. Control traffic counts as activity for the watchdog:
/// a long STOP/GO exchange with no data arrivals is a flow-controlled
/// network, not a stall.
#[inline]
pub(crate) fn deliver_ctl(p: &mut SeqParts, ci: u32, symbol: u8) {
    let k = &mut p.sink;
    let sender = k.channels.sender(ci);
    let stopped = symbol == CTL_STOP;
    k.count(|c| {
        if stopped {
            c.ctl_stops += 1;
        } else {
            c.ctl_gos += 1;
        }
    });
    k.activity();
    // A STOP holds the sender from this cycle's send on: the run it
    // streams into `ci` ends here.
    if stopped && k.channels.stream(ci).is_some_and(|st| st.running()) {
        let cycle = k.cycle;
        settle_tx(p, ci, cycle);
        p.sink.channels.suspend(ci, cycle);
        p.sink.channels.close(ci);
        p.sink.counts().runs_closed += 1;
    }
    let k = &mut p.sink;
    match sender {
        Sender::SwitchOut { sw, port } => {
            p.switches[sw as usize].set_stopped(port as usize, stopped);
            // Its next event may move either way: the visit works it out.
            if let Some(sc) = k.sched.as_deref_mut() {
                sc.activate_switch(sw);
            }
        }
        Sender::Nic { host } => {
            p.nics[host as usize].stopped = stopped;
            // A NIC held by STOP sleeps until this GO (`nic_tx_phase`).
            if let (false, Some(sc)) = (stopped, k.sched.as_deref_mut()) {
                sc.activate_nic(host);
            }
        }
    }
}

/// Phase 2, one channel: hand the flit of `pid` that arrived on `ci` to
/// the channel's receiver.
#[inline]
pub(crate) fn deliver_data(p: &mut SeqParts, ci: u32, pid: u32, t: &Tick) {
    let receiver = p.sink.channels.receiver(ci);
    // The receiver may hold a run's arrivals or sends still to count: the
    // flit meets the state a per-flit loop would hold. A run forwarding
    // from the port is suspended for the visit the flit lists, which
    // works out what the flit changes.
    if let Receiver::SwitchIn { sw, port } = receiver {
        if let Some(out) = streaming_out(&p.switches[sw as usize], port as usize, p.sink.channels) {
            settle_tx(p, out, t.cycle);
            p.sink.channels.suspend(out, t.cycle);
            p.sink.counts().runs_suspended += 1;
        }
    }
    if p.sink.channels.stream(ci).is_some() {
        settle_rx(p, ci, t.cycle);
    }
    let k = &mut p.sink;
    k.activity();
    match receiver {
        Receiver::SwitchIn { sw, port } => {
            switch_rx(&mut p.switches[sw as usize], sw, port, pid, k);
        }
        Receiver::Nic { host } => {
            let nic = &mut p.nics[host as usize];
            nic_rx(nic, host, pid, t, k);
            // A re-injection streaming out of what streams in has its
            // supply changed: its visit works out the run's next event.
            if let (Some(tx), Some(sc)) = (nic.tx, k.sched.as_deref_mut()) {
                if tx.pid == pid
                    && k.channels
                        .stream(nic.out_chan)
                        .is_some_and(|st| st.running())
                {
                    sc.activate_nic(host);
                }
            }
        }
    }
}

/// One flit of `pid` enters input `port` of switch `id`.
#[inline]
pub(crate) fn switch_rx<S: Sink>(sw: &mut SwitchState, id: u32, port: u8, pid: u32, k: &mut S) {
    // A flit in an input buffer is exactly what keeps a switch in the
    // active set.
    k.activate_switch(id);
    let (new_packet, ctl) = sw.flit_in(port, pid, || k.pkt(pid).expected_at_next_receiver());
    if new_packet {
        k.count(|c| c.switch_arrivals += 1);
        k.journal(|| (pid, EventKind::SwitchArrival { sw: id, port }));
    }
    if let Some((chan, sym)) = ctl {
        k.send_ctl(chan, sym);
    }
}

/// One flit of `pid` enters NIC `host`: the header decides between
/// delivery and in-transit processing, the last flit completes a delivery.
pub(crate) fn nic_rx<S: Sink>(nic: &mut Nic, host: u32, pid: u32, t: &Tick, k: &mut S) {
    let cfg = t.cfg;
    // New packet or continuation?
    let is_new = match nic.rx {
        Some(rx) => {
            debug_assert_eq!(rx.pid, pid, "interleaved packets into NIC");
            false
        }
        None => true,
    };
    if is_new {
        let pkt = k.pkt(pid);
        let expected = pkt.expected_at_next_receiver();
        // Only an ITB mark ejects a packet into the pool; the header of a
        // packet that arrives at its destination is used up.
        let deliver = if !pkt.at_itb_mark() {
            debug_assert_eq!(pkt.dst.0, host, "misrouted packet");
            debug_assert_eq!(pkt.header.bytes().len(), pkt.pos as usize);
            true
        } else {
            // In-transit processing: recognise the packet (275 ns),
            // program the DMA (200 ns), reserve pool space.
            let mut ready = t.cycle + ITB_DETECT_CYCLES + ITB_DMA_CYCLES;
            // `pool_used` never exceeds the pool, so the difference
            // cannot underflow where the sum could overflow.
            let overflow = expected > cfg.itb_pool_flits - nic.pool_used;
            if overflow {
                // Overflow to host memory: considerably more overhead
                // (paper section 3).
                pkt.pool_reserved = 0;
                ready += ITB_OVERFLOW_PENALTY_CYCLES;
            } else {
                nic.pool_used += expected;
                pkt.pool_reserved = expected;
            }
            // The packet enters its next segment: this NIC strips the
            // ITB mark.
            pkt.pos += 1;
            let pool_used = nic.pool_used;
            k.measure(|m| {
                if overflow {
                    m.itb_overflows += 1;
                } else {
                    m.max_pool_flits = m.max_pool_flits.max(pool_used);
                }
            });
            nic.reinject.push(Reverse((ready, pid)));
            k.wake_nic_at(ready, host);
            k.count(|c| {
                c.itb_ejections += 1;
                c.itb_overflows += u64::from(overflow);
            });
            k.itb_eject(pid, host, overflow);
            false
        };
        nic.rx = Some(RxState {
            pid,
            received: 0,
            expected,
            deliver,
        });
    }

    let rx = nic.rx.as_mut().unwrap();
    rx.received += 1;
    if rx.received == rx.expected {
        let deliver = rx.deliver;
        nic.rx = None;
        if deliver {
            k.deliver(pid, host);
        }
    }
}

/// Phase 3, one switch: routing, arbitration and transfer, touching only
/// ports with work. Both loops walk a port bitmask of the switch in
/// ascending port order — the order a full scan over `active_ports`
/// visits them, so journal records come out identically. `streaming`
/// holds the connected outputs whose flit of this cycle a steady run
/// carries (the engine's; 0 for a per-flit caller): the crossbar skips
/// them, as it does nothing else for them (a connected output grants
/// nobody). The profiler's child spans are optional timestamps around the
/// same single pass, never a restructured loop.
pub(crate) fn switch_phase<S: Sink>(
    sw: &mut SwitchState,
    id: u32,
    streaming: u64,
    t: &Tick,
    k: &mut S,
) {
    // A dead switch routes nothing (its resident packets were purged when
    // it failed).
    if t.faults
        .is_some_and(|f| !f.active.is_switch_alive(SwitchId(id)))
    {
        return;
    }
    let cycle = t.cycle;
    k.span_lap(None);

    // Routing control units: consume the header byte of each head packet
    // and start the 150 ns routing delay.
    for p in ports(sw.rcu_ports()) {
        match sw.head(p) {
            HeadState::Idle => {
                let pid = sw.head_pid(p);
                let out = k.pkt(pid).consume_port_byte();
                let ready = cycle + SWITCH_ROUTING_CYCLES;
                if let Some((chan, sym)) = sw.start_routing(p, out, ready) {
                    k.send_ctl(chan, sym);
                }
                // Routing towards a dead cable (or a port that never
                // existed in a stale route): the worm is lost.
                if t.faults.is_some() && sw.out_chan(out).is_none_or(|c| k.is_dead(c)) {
                    k.lose_worm(pid);
                }
                k.count(|c| c.route_lookups += 1);
                k.journal(|| {
                    let port = p as u8;
                    (pid, EventKind::Route { sw: id, port, out })
                });
            }
            HeadState::Routing { ready } if cycle >= ready => {
                sw.request_output(p);
                if k.diag() {
                    if let Some(cause) = sw.block_cause(p) {
                        k.count(|c| c.worms_blocked += 1);
                        k.journal(|| {
                            let out = sw.head_out(p);
                            (sw.head_pid(p), EventKind::Block { sw: id, out, cause })
                        });
                    }
                }
            }
            _ => {}
        }
    }
    k.span_lap(Some(SwitchSpan::Routing));

    // Output ports: arbitrate (demand-slotted round-robin over the
    // requesting inputs) and transfer one flit per connected port.
    for p in ports(sw.busy_outputs() & !streaming) {
        if let Some(g) = sw.arbitrate(p) {
            k.count(|c| c.arbitration_grants += 1);
            k.journal(|| {
                let (in_port, out) = (g, p as u8);
                let kind = EventKind::HeadAdvance {
                    sw: id,
                    in_port,
                    out,
                };
                (sw.head_pid(g as usize), kind)
            });
        }
        let Some((g, out_chan)) = sw.open_connection(p) else {
            continue;
        };
        if t.faults.is_some() && k.is_dead(out_chan) {
            // The granted head is already queued for loss handling; never
            // stream flits into a dead cable.
            continue;
        }
        let Some((pid, ctl)) = sw.forward_flit(p, g) else {
            continue;
        };
        k.send(out_chan, pid);
        k.activity();
        k.count(|c| c.flits_forwarded += 1);
        if let Some((chan, sym)) = ctl {
            k.send_ctl(chan, sym);
        }
    }
    k.span_lap(Some(SwitchSpan::Crossbar));
}

/// Phase 4, one NIC: pick the next packet if idle, then send one flit of
/// the current one if flow control and (for a re-injection) cut-through
/// availability allow.
pub(crate) fn nic_tx<S: Sink>(nic: &mut Nic, h: u32, t: &Tick, k: &mut S) {
    let (cfg, cycle) = (t.cfg, t.cycle);
    if nic.frozen(t.faults) {
        return;
    }
    // A NIC on a dead host link cannot move flits at all.
    if t.faults.is_some() && k.is_dead(nic.out_chan) {
        return;
    }
    if nic.tx.is_none() {
        while let Some((pid, kind)) = nic.pick_next_tx(cycle, cfg.itb_priority) {
            // Fresh and retransmitted packets route from scratch: under
            // faults, re-validate the pair and — once a rebuild has been
            // installed — write a new header from the current tables
            // (in-transit packets keep their remaining route).
            if let (Some(f), true) = (t.faults, kind != TxKind::Reinject) {
                let (src, dst) = (k.pkt(pid).src, k.pkt(pid).dst);
                let routable = f.host_ok[src.idx()]
                    && f.host_ok[dst.idx()]
                    && t.db
                        .has_route(t.topo.host_switch(src), t.topo.host_switch(dst));
                if !routable {
                    // Skip it now (the NIC still transmits the next
                    // routable packet this cycle).
                    k.drop_unroutable(pid);
                    continue;
                }
                if f.routes.is_some() {
                    // Its cursor is at 0 already: the packet is fresh, or a
                    // loss reset it.
                    let header = t.db.select(t.topo, src, dst, k.selector(src));
                    k.pkt(pid).header = header;
                }
            }
            nic.tx = Some(TxState {
                pid,
                sent: 0,
                total: k.pkt(pid).expected_at_next_receiver(),
                reinjection: kind == TxKind::Reinject,
            });
            break;
        }
    }
    let Some(tx) = nic.tx else { return };
    if nic.stopped {
        return;
    }
    if tx.sent >= nic.sendable(cfg.itb_cut_through) {
        if tx.reinjection && tx.sent > 0 {
            // Mid-packet bubble: the tail has not arrived yet.
            k.measure(|m| m.reinject_bubbles += 1);
        }
        return;
    }
    if tx.sent == 0 && !tx.reinjection {
        let pkt = k.pkt(tx.pid);
        if pkt.first_inject == u64::MAX {
            pkt.first_inject = cycle;
        }
        let (src, dst) = (pkt.src.0, pkt.dst.0);
        k.journal(|| (tx.pid, EventKind::Inject { src, dst }));
    }
    k.send(nic.out_chan, tx.pid);
    k.activity();
    k.count(|c| c.flits_injected += 1);
    if tx.sent == 0 && tx.reinjection {
        k.count(|c| c.itb_reinjections += 1);
        k.reinject(tx.pid, h);
    }
    let tx = nic.tx.as_mut().unwrap();
    tx.sent += 1;
    if tx.sent == tx.total {
        if tx.reinjection {
            // The tail left: give the in-transit pool space back.
            nic.pool_used -= std::mem::take(&mut k.pkt(tx.pid).pool_reserved);
        }
        nic.tx = None;
    }
}

// ---------------------------------------------------------------------------
// Phase loops of the engine
// ---------------------------------------------------------------------------

/// Phase 1: deliver this cycle's control symbols, walking the set bits of
/// the channel table's row in ascending channel order (scan order).
#[inline]
pub(crate) fn ctl_phase(p: &mut SeqParts) {
    let mut row = Drain::default();
    while let Some((ci, symbol)) = p.sink.channels.next_ctl(p.sink.row, &mut row) {
        deliver_ctl(p, ci, symbol);
    }
}

/// Phase 2: the same for data flits. A visit sends no data, and its
/// control symbols land in the row phase 1 has already drained.
#[inline]
pub(crate) fn arrival_phase(p: &mut SeqParts, t: &Tick) {
    let mut row = Drain::default();
    while let Some((ci, pid)) = p.sink.channels.next_data(p.sink.row, &mut row) {
        deliver_data(p, ci, pid, t);
    }
}

/// Visit the ids `set` lists in ascending order, the scan's, copying one
/// word at a time, and unlist each one `visit` returns `false` for. Sound
/// because no visit lists a component of its own phase, so the copy is
/// all of this cycle's work for its word.
#[inline(always)]
fn walk<P>(p: &mut P, set: fn(&mut P) -> &mut Listed, mut visit: impl FnMut(&mut P, u32) -> bool) {
    for w in 0..set(p).words() {
        let word = set(p).word(w);
        let (mut bits, mut kept) = (word, word);
        while bits != 0 {
            let bit = bits & bits.wrapping_neg();
            bits ^= bit;
            if !visit(p, 64 * w as u32 + bit.trailing_zeros()) {
                kept ^= bit;
            }
        }
        let listed = set(p);
        debug_assert_eq!(listed.word(w), word, "a visit listed its own kind");
        listed.set_word(w, kept);
    }
}

/// Phase 3: list the switches and NICs whose next event is due, then
/// visit the listed switches in ascending order. A visit settles and
/// suspends the runs of the ports it has work on, leaves the others
/// streaming ([`resume_switch`]), runs the kernel on the switch, and
/// unlists it unless it has work next cycle that no run covers
/// ([`rearm_switch`]).
#[inline]
pub(crate) fn switches_phase(p: &mut SeqParts, t: &Tick) {
    p.sched().drain(t.cycle);
    walk(
        p,
        |p| &mut p.sched().switches,
        |p, s| {
            p.sink.counts().switch_visits += 1;
            let alone = resume_switch(p, s, t.cycle);
            switch_phase(&mut p.switches[s as usize], s, alone.out, t, &mut p.sink);
            rearm_switch(p, s, t, &alone)
        },
    );
}

/// Phase 4: visit the listed NICs in ascending order, those phase 3's
/// drain woke included, unlisting those with nothing left to send, those
/// asleep (held by STOP until GO, or frozen until the new tables land) and
/// those streaming a steady run.
#[inline]
pub(crate) fn nic_tx_phase(p: &mut SeqParts, t: &Tick) {
    walk(
        p,
        |p| &mut p.sched().nics,
        |p, h| {
            p.sink.counts().nic_visits += 1;
            resume_nic(p, h, t.cycle);
            nic_tx(&mut p.nics[h as usize], h, t, &mut p.sink);
            rearm_nic(p, h, t)
        },
    );
}

// ---------------------------------------------------------------------------
// Steady runs of the engine
// ---------------------------------------------------------------------------
//
// A granted connection whose flow is steady moves one flit per cycle until
// an event it can foresee: its tail, its buffered flits running out, a
// STOP or GO threshold crossing at its input. The engine streams such a
// connection as a run (`channel::Stream`), stores the event's cycle in it
// (`Stream::due`) and visits its switch or NIC at the earliest stored
// event; what the run moved meanwhile is counted into the component state
// by `settle_tx`/`settle_rx` whenever anything reads it. Every transition
// that is not a steady flit is still made by the kernel functions above,
// on a visit, per flit, at the ports it touches:
//
// * an input with a slot arrival (`deliver_data` suspends the run that
//   forwards from it);
// * an output hit by STOP (`deliver_ctl` ends its run; a GO changes
//   nothing for a run, whose output was not stopped);
// * a port whose run's stored next event is due;
// * an input with routing work, an output with requests and no run, a
//   connection without a run, an input a run feeds but nothing forwards
//   by a run;
// * the other end of a connection with one of those.
//
// A run of any other port is neither settled nor suspended: nothing but
// the run changes its input and output, so its stored event still holds,
// and the crossbar skips the output whose flit it carries. A suspended run
// starts again at the end of the visit if the flow is still steady.

/// The channel of input `port`'s connection, if it streams a run.
#[inline]
fn streaming_out(sw: &SwitchState, port: usize, ch: &Channels) -> Option<u32> {
    let inp = sw.inp[port].as_ref()?;
    if inp.head() != HeadState::Granted {
        return None;
    }
    let out = sw.out_chan(inp.head_out())?;
    ch.stream(out).is_some_and(|st| st.running()).then_some(out)
}

/// Count the arrivals of channel `ci`'s run before `upto` into its
/// receiver.
#[inline]
fn settle_rx(p: &mut SeqParts, ci: u32, upto: u64) {
    let Some((pid, n, last)) = p.sink.channels.take_arrivals(ci, upto) else {
        return;
    };
    match p.sink.channels.receiver(ci) {
        Receiver::SwitchIn { sw, port } => p.switches[sw as usize].stream_in(port, pid, n),
        Receiver::Nic { host } => {
            let rx = p.nics[host as usize].rx.as_mut();
            let rx = rx.expect("a run into a NIC receiving nothing");
            debug_assert_eq!(rx.pid, pid, "a run of another packet");
            rx.received += n;
            debug_assert!(rx.received < rx.expected, "a run's last flit is ordinary");
        }
    }
    p.sink.activity_at(last);
}

/// Count the sends of channel `ci`'s run before `upto` into its sender. A
/// switch's input is settled first: its buffer counts arrivals before the
/// flits that leave it.
#[inline]
fn settle_tx(p: &mut SeqParts, ci: u32, upto: u64) {
    match p.sink.channels.sender(ci) {
        Sender::SwitchOut { sw, port } => {
            let s = &p.switches[sw as usize];
            let g = s.outp[port as usize].as_ref().and_then(|o| o.conn_in());
            if let Some(g) = g {
                let in_chan = s.inp[g as usize].as_ref().expect("connected input").in_chan;
                settle_rx(p, in_chan, upto);
            }
            let Some((pid, n, last)) = p.sink.channels.take_sends(ci, upto) else {
                return;
            };
            p.switches[sw as usize].stream_out(port as usize, pid, n);
            p.sink.count(|c| c.flits_forwarded += u64::from(n));
            p.sink.activity_at(last);
        }
        Sender::Nic { host } => {
            let Some((pid, n, last)) = p.sink.channels.take_sends(ci, upto) else {
                return;
            };
            let tx = p.nics[host as usize].tx.as_mut();
            let tx = tx.expect("a run from a NIC sending nothing");
            debug_assert_eq!(tx.pid, pid, "a run of another packet");
            tx.sent += n;
            debug_assert!(tx.sent < tx.total, "a run sends no tail");
            p.sink.count(|c| c.flits_injected += u64::from(n));
            p.sink.activity_at(last);
        }
    }
}

/// Count every run's sends and arrivals before `upto` into the component
/// state: afterwards it is what the per-flit loop holds at `upto`.
pub(crate) fn settle_all(p: &mut SeqParts, upto: u64) {
    for ci in 0..p.sink.channels.len() as u32 {
        if p.sink.channels.streams() == 0 {
            return;
        }
        if p.sink.channels.stream(ci).is_some() {
            settle_tx(p, ci, upto);
            settle_rx(p, ci, upto);
        }
    }
}

/// End every run at `upto` (fault handling): settle it, put its flits
/// still in flight into their slots, and list its sender, which goes on
/// per flit.
pub(crate) fn unstream_all(p: &mut SeqParts, upto: u64) {
    settle_all(p, upto);
    for ci in 0..p.sink.channels.len() as u32 {
        let Some(st) = p.sink.channels.stream(ci) else {
            continue;
        };
        let running = st.running();
        p.sink.channels.unstream(ci, upto);
        if let (true, Some(sc)) = (running, p.sink.sched.as_deref_mut()) {
            match p.sink.channels.sender(ci) {
                Sender::SwitchOut { sw, .. } => sc.activate_switch(sw),
                Sender::Nic { host } => sc.activate_nic(host),
            }
        }
    }
}

/// The runs a switch visit leaves streaming: their outputs, the inputs
/// they forward from, and the earliest of their next events.
struct Alone {
    out: u64,
    inp: u64,
    due: u64,
}

/// Before the kernel visits switch `s` at `cycle`: settle the runs of the
/// ports it has work on, and suspend the ones it sends, so that the visit
/// meets the per-flit state there. A run whose stored next event has come
/// is one of them. A run visited before its event is left alone, with the
/// input it forwards from: nothing but the run changes the two (a slot
/// arrival at the input or a STOP on the output has already suspended or
/// ended it), and whatever reads them next settles it. The flit a run
/// brings in at `cycle` is taken like a slot's, through [`switch_rx`], so
/// that a STOP it triggers goes back this cycle.
fn resume_switch(p: &mut SeqParts, s: u32, cycle: u64) -> Alone {
    let mut alone = Alone {
        out: 0,
        inp: 0,
        due: u64::MAX,
    };
    for q in ports(p.sink.channels.runs_out(s)) {
        let o = p.switches[s as usize].outp[q]
            .as_ref()
            .expect("a run from a port");
        let out = o.out_chan;
        let Some(due) = p
            .sink
            .channels
            .stream(out)
            .filter(|st| st.running())
            .map(Stream::due)
        else {
            continue;
        };
        if due > cycle {
            let g = o.conn_in().expect("a run streams over its connection");
            alone.out |= 1 << q;
            alone.inp |= 1 << g;
            alone.due = alone.due.min(due);
            p.sink.counts().runs_left_streaming += 1;
            continue;
        }
        settle_tx(p, out, cycle);
        p.sink.channels.suspend(out, cycle);
        p.sink.counts().runs_suspended += 1;
    }
    for q in ports(p.sink.channels.runs_in(s) & !alone.inp) {
        let in_chan = p.switches[s as usize].inp[q]
            .as_ref()
            .expect("a run into a port")
            .in_chan;
        let q = q as u8;
        settle_rx(p, in_chan, cycle);
        if let Some(pid) = p.sink.channels.take_arrival_at(in_chan, cycle) {
            p.sink.activity();
            switch_rx(&mut p.switches[s as usize], s, q, pid, &mut p.sink);
        }
    }
    alone
}

/// After the kernel visited switch `s` at `t.cycle`: stream every
/// connection the visit touched whose flow is steady, storing its run's
/// next event, end the runs of the others, and schedule the switch's next
/// event, the earliest of those and of the runs left `alone`. Returns
/// whether the switch stays listed: it has work next cycle that no run
/// covers. A listed switch's calendar entry is left as it is (it lists the
/// switch at most once more): the first visit that unlists it moves the
/// entry, and only if its next event moved.
fn rearm_switch(p: &mut SeqParts, s: u32, t: &Tick, alone: &Alone) -> bool {
    let cycle = t.cycle;
    // Work next cycle, and the earliest later event.
    let (mut keep, mut next) = (false, u64::MAX);
    let mut at = |c: u64| {
        if c <= cycle + 1 {
            keep = true;
        } else {
            next = next.min(c);
        }
    };
    at(alone.due);
    // Inputs a run forwards from.
    let mut streaming = 0u64;
    let sw = &p.switches[s as usize];
    let k = &mut p.sink;
    // Outputs with requests, a connection or a suspended run.
    for q in ports((sw.busy_outputs() | k.channels.runs_out(s)) & !alone.out) {
        let o = sw.outp[q]
            .as_ref()
            .expect("busy or streaming outputs exist");
        let (out, conn) = (o.out_chan, o.conn_in());
        let suspended = k.channels.stream(out).is_some_and(|st| st.suspended());
        let Some(g) = conn else {
            if suspended {
                k.channels.close(out);
                k.counts().runs_closed += 1;
            }
            // A free output with requests arbitrates next cycle.
            if sw.busy_outputs() & (1 << q) != 0 {
                at(cycle + 1);
            }
            continue;
        };
        let flow = flow(sw, g as usize, q, t, k.channels);
        let steady = match (suspended, &flow) {
            (true, &Flow::Steady(h)) => {
                k.channels.resume(out, h);
                true
            }
            (true, _) => {
                k.channels.close(out);
                k.counts().runs_closed += 1;
                false
            }
            // Unless the channel still carries the end of the last run.
            (false, &Flow::Steady(h)) if k.channels.stream(out).is_none() => {
                k.channels.open(out, sw.head_pid(g as usize), cycle + 1, h);
                k.counts().runs_opened += 1;
                true
            }
            _ => false,
        };
        match flow {
            Flow::Steady(h) if steady => {
                streaming |= 1 << g;
                at(h);
            }
            Flow::Waits => {}
            _ => at(cycle + 1),
        }
    }
    // Inputs with routing work or a run arriving.
    for q in ports((sw.rcu_ports() | k.channels.runs_in(s)) & !alone.inp) {
        let inp = sw.inp[q]
            .as_ref()
            .expect("routing or streamed-into inputs exist");
        if inp.queue().is_empty() {
            continue;
        }
        match inp.head() {
            HeadState::Idle => at(cycle + 1),
            HeadState::Routing { ready } => at(ready),
            _ => {}
        }
        if streaming & (1 << q) == 0 {
            at(fill_horizon(inp, cycle, k.channels));
        }
    }
    if !keep {
        p.sched().wake_switch_at(next, s);
    }
    keep
}

/// What connection `g` → `out` does from the next cycle on.
#[derive(Debug, PartialEq)]
enum Flow {
    /// Streams one flit per cycle until its next event, at this cycle:
    /// its tail crossing, its buffered flits running out, or its buffer
    /// falling below the GO threshold.
    Steady(u64),
    /// Forwards next cycle, but not steadily: an event is due then, or no
    /// flit crossed this cycle (a run starts after an ordinary flit).
    PerFlit,
    /// Moves nothing until an arrival or a control symbol: STOP-held,
    /// into a dead cable, or nothing to forward.
    Waits,
}

fn flow(sw: &SwitchState, g: usize, out: usize, t: &Tick, ch: &Channels) -> Flow {
    let (cycle, delay) = (t.cycle, ch.delay());
    let Some((inp, head)) = sw.inp[g]
        .as_ref()
        .and_then(|i| Some((i, i.queue().front()?)))
    else {
        return Flow::Waits;
    };
    let out_chan = sw.out_chan(out as u8);
    if sw.is_stopped(out) || out_chan.is_none_or(|c| t.faults.is_some() && ch.is_dead(c)) {
        return Flow::Waits;
    }
    let arriving = ch
        .stream(inp.in_chan)
        .filter(|st| st.arriving(cycle + 1, delay));
    let fed = arriving.is_some_and(|st| st.pid == head.pid);
    let available = u64::from(head.available());
    if !fed && available == 0 {
        return Flow::Waits;
    }
    if out_chan.is_none_or(|c| !ch.sent_at(c, head.pid, cycle)) {
        return Flow::PerFlit;
    }
    // Forwards left, the tail's included; the tail crosses on a visit.
    let left = u64::from(head.expected - 1 - head.forwarded);
    // Fed one flit per cycle, the buffer holds steady until the tail;
    // unfed, it drains, and the visit after the last flit finds it empty.
    let mut h = cycle + if fed { left } else { left.min(available + 1) };
    let occ = u64::from(inp.occ);
    if arriving.is_some() {
        // Each cycle's arrival lands before its forward.
        if !inp.stop_sent && occ + 1 > u64::from(STOP_THRESHOLD) {
            return Flow::PerFlit;
        }
    } else if inp.stop_sent {
        // Draining: GO goes back with the flit that brings it below 40.
        h = h.min(cycle + (occ + 1).saturating_sub(u64::from(GO_THRESHOLD)));
    }
    if h > cycle + 1 {
        Flow::Steady(h)
    } else {
        Flow::PerFlit
    }
}

/// The cycle input `inp`, which no run forwards from, crosses the STOP
/// threshold if a run fills it one flit per cycle: the STOP goes back with
/// that flit, on a visit. `u64::MAX` when nothing streams in or STOP is
/// already out.
fn fill_horizon(inp: &InPort, cycle: u64, ch: &Channels) -> u64 {
    let arriving = ch.stream(inp.in_chan);
    if inp.stop_sent || !arriving.is_some_and(|st| st.arriving(cycle + 1, ch.delay())) {
        return u64::MAX;
    }
    cycle + u64::from((STOP_THRESHOLD + 1).saturating_sub(inp.occ).max(1))
}

/// Before the kernel visits NIC `h` at `cycle`: settle and suspend its
/// run, and count the arrivals of a run into it, a re-injection's
/// cut-through supply.
fn resume_nic(p: &mut SeqParts, h: u32, cycle: u64) {
    let nic = &p.nics[h as usize];
    let out = nic.out_chan;
    if p.sink.channels.stream(out).is_some_and(|st| st.running()) {
        settle_tx(p, out, cycle);
        p.sink.channels.suspend(out, cycle);
    }
    let in_chan = p.sink.channels.nic_in(h);
    if p.sink.channels.stream(in_chan).is_some() {
        settle_rx(p, in_chan, cycle + 1);
    }
}

/// After the kernel visited NIC `h` at `t.cycle`: stream its worm if the
/// flow is steady ([`nic_run_horizon`]), else end its run. Returns whether
/// the NIC stays listed.
fn rearm_nic(p: &mut SeqParts, h: u32, t: &Tick) -> bool {
    let cycle = t.cycle;
    let nic = &p.nics[h as usize];
    let out = nic.out_chan;
    let k = &mut p.sink;
    let suspended = k.channels.stream(out).is_some_and(|st| st.suspended());
    let horizon = nic_run_horizon(nic, h, t, k.channels);
    let streams = match (suspended, horizon) {
        (true, Some(at)) => {
            k.channels.resume(out, at);
            true
        }
        (true, None) => {
            k.channels.close(out);
            k.counts().runs_closed += 1;
            false
        }
        (false, Some(at)) if k.channels.stream(out).is_none() => {
            let tx = nic.tx.expect("a horizon has a worm");
            k.channels.open(out, tx.pid, cycle + 1, at);
            k.counts().runs_opened += 1;
            true
        }
        _ => false,
    };
    if let (true, Some(at)) = (streams, horizon) {
        let sc = k.sched.as_deref_mut().expect("runs without wake state");
        sc.wake_nic_at(at, h);
        return false;
    }
    !(nic.quiescent_for_tx(cycle) || nic.held_by_stop() || nic.frozen(t.faults))
}

/// The cycle of the next event of NIC `h`'s worm, if it can stream from
/// the next cycle on: the cycle its tail leaves, or a re-injection's
/// supply runs out. A re-injection is supplied by this NIC's own
/// reception, as in [`nic_tx`]: fed one flit per cycle by a run into the
/// NIC, it holds steady (an ordinary arrival lists the NIC again); unfed,
/// it drains what has arrived. `None` when the flow is not steady:
/// STOP-held, into a dead cable, no flit sent this cycle, or an event
/// next cycle.
fn nic_run_horizon(nic: &Nic, h: u32, t: &Tick, ch: &Channels) -> Option<u64> {
    let (cycle, tx) = (t.cycle, nic.tx?);
    if nic.stopped
        || t.faults.is_some() && ch.is_dead(nic.out_chan)
        || !ch.sent_at(nic.out_chan, tx.pid, cycle)
    {
        return None;
    }
    let mut h_at = cycle + u64::from(tx.total - tx.sent);
    let cut_through = t.cfg.itb_cut_through;
    let receiving = nic.rx.is_some_and(|rx| rx.pid == tx.pid);
    let fed = receiving
        && cut_through
        && ch
            .stream(ch.nic_in(h))
            .is_some_and(|st| st.pid == tx.pid && st.arriving(cycle + 1, ch.delay()));
    if tx.reinjection && !fed {
        let available = nic.sendable(cut_through).saturating_sub(tx.sent);
        h_at = h_at.min(cycle + u64::from(available) + 1);
    }
    (h_at > cycle + 1).then_some(h_at)
}

#[cfg(test)]
mod tests {
    //! The kernel against a sink that only writes down what it is told:
    //! effect order without an engine around it.

    use super::*;
    use crate::channel::{CTL_GO, CTL_STOP};
    use crate::events::BlockCause;
    use crate::faultplan::{FaultOptions, FaultPlan};
    use regnet_core::{Header, RouteDbConfig, RoutingScheme, ITB_MARK};
    use regnet_topology::{Port, TopologyBuilder};

    #[derive(Debug, PartialEq)]
    enum Rec {
        Send(u32, u32),
        Ctl(u32, u8),
        Activate(u32),
        Wake(u64, u32),
        Activity,
        Journal(u32, EventKind),
        ItbEject(u32, u32, bool),
        Reinject(u32, u32),
        Deliver(u32, u32),
        LoseWorm(u32),
        DropUnroutable(u32),
    }
    use Rec::*;

    /// Packets by index, a list of dead channels, and a log.
    #[derive(Default)]
    struct Recorder {
        pkts: Vec<Packet>,
        dead: Vec<u32>,
        log: Vec<Rec>,
        counters: CounterSnapshot,
        measure: KernelMeasure,
    }

    impl Recorder {
        fn with(pkts: Vec<Packet>) -> Recorder {
            Recorder {
                pkts,
                ..Recorder::default()
            }
        }
        /// The log so far, emptied.
        fn take(&mut self) -> Vec<Rec> {
            std::mem::take(&mut self.log)
        }
    }

    impl Sink for Recorder {
        fn pkt(&mut self, pid: u32) -> &mut Packet {
            &mut self.pkts[pid as usize]
        }
        fn selector(&mut self, _: HostId) -> &mut SrcSelector {
            unreachable!("no test installs reconfigured routes")
        }
        fn is_dead(&self, ci: u32) -> bool {
            self.dead.contains(&ci)
        }
        fn send(&mut self, ci: u32, pid: u32) {
            self.log.push(Send(ci, pid));
        }
        fn send_ctl(&mut self, ci: u32, symbol: u8) {
            self.log.push(Ctl(ci, symbol));
        }
        fn activate_switch(&mut self, sw: u32) {
            self.log.push(Activate(sw));
        }
        fn wake_nic_at(&mut self, ready: u64, host: u32) {
            self.log.push(Wake(ready, host));
        }
        fn activity(&mut self) {
            self.log.push(Activity);
        }
        fn count(&mut self, bump: impl FnOnce(&mut CounterSnapshot)) {
            bump(&mut self.counters);
        }
        fn diag(&self) -> bool {
            true
        }
        fn measure(&mut self, update: impl FnOnce(&mut KernelMeasure)) {
            update(&mut self.measure);
        }
        fn journal(&mut self, event: impl FnOnce() -> (u32, EventKind)) {
            let (pid, kind) = event();
            self.log.push(Journal(pid, kind));
        }
        fn itb_eject(&mut self, pid: u32, host: u32, overflow: bool) {
            self.log.push(ItbEject(pid, host, overflow));
        }
        fn reinject(&mut self, pid: u32, host: u32) {
            self.log.push(Reinject(pid, host));
        }
        fn deliver(&mut self, pid: u32, host: u32) {
            self.log.push(Deliver(pid, host));
        }
        fn lose_worm(&mut self, pid: u32) {
            self.log.push(LoseWorm(pid));
        }
        fn drop_unroutable(&mut self, pid: u32) {
            self.log.push(DropUnroutable(pid));
        }
    }

    const SW: u32 = 7;

    /// Switch 7 with ports 0..3; port `p` receives on channel `10 + p` and
    /// drives channel `20 + p`.
    fn switch() -> SwitchState {
        SwitchState::new((0..3).map(|p| Some((10 + p, 20 + p))))
    }

    /// Three flits each of packet 0 into input 0 and packet 1 into input 1.
    fn feed_two_worms(sw: &mut SwitchState, k: &mut Recorder) {
        for (port, pid) in [(0u8, 0u32), (1, 1)] {
            for _ in 0..3 {
                switch_rx(sw, SW, port, pid, k);
            }
        }
    }

    /// NIC driving channel 40.
    fn nic() -> Nic {
        use rand::SeedableRng;
        Nic::new(40, rand::rngs::SmallRng::seed_from_u64(0))
    }

    /// A packet from host 0 to host 9 whose header holds `segments`' port
    /// bytes, joined by ITB marks: every segment but the last ends in an
    /// in-transit buffer.
    fn packet(payload: u32, segments: &[&[u8]]) -> Packet {
        let bytes: Vec<Port> = segments.join(&ITB_MARK.0).into_iter().map(Port).collect();
        Packet {
            src: HostId(0),
            dst: HostId(9),
            header: Header::new(bytes),
            pos: 0,
            payload,
            gen_cycle: 0,
            first_inject: u64::MAX,
            pool_reserved: 0,
            retries: 0,
        }
    }

    fn route(port: u8, pid: u32, out: u8) -> Rec {
        Journal(pid, EventKind::Route { sw: SW, port, out })
    }

    fn grant(in_port: u8, pid: u32) -> Rec {
        let (sw, out) = (SW, 2);
        Journal(pid, EventKind::HeadAdvance { sw, in_port, out })
    }

    /// What a [`Tick`] borrows: a two-switch line with one host each.
    struct World {
        cfg: SimConfig,
        topo: Topology,
        db: RouteDb,
        faults: Option<FaultRuntime>,
    }

    impl World {
        fn new() -> World {
            let mut b = TopologyBuilder::new("line2", 4);
            b.add_switches(2);
            b.connect(SwitchId(0), SwitchId(1)).unwrap();
            b.attach_hosts_everywhere(1).unwrap();
            let topo = b.build().unwrap();
            World {
                cfg: SimConfig::default(),
                db: RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default()),
                topo,
                faults: None,
            }
        }

        /// Fault injection armed, nothing failed, hosts usable as given.
        fn faulted(host_ok: [bool; 2]) -> World {
            let mut faults = FaultRuntime::new(FaultOptions::with_plan(FaultPlan::new()), 2);
            faults.host_ok = host_ok.to_vec();
            World {
                faults: Some(faults),
                ..World::new()
            }
        }

        fn tick(&self, cycle: u64) -> Tick<'_> {
            Tick {
                cycle,
                cfg: &self.cfg,
                faults: self.faults.as_ref(),
                db: Tables::Built(&self.db),
                topo: &self.topo,
            }
        }
    }

    #[test]
    fn switch_emits_route_block_grant_and_flit_in_journal_order() {
        let w = World::new();
        let mut sw = switch();
        // Two worms, both leaving through port 2.
        let mut k = Recorder::with(vec![packet(30, &[&[2, 0]]), packet(30, &[&[2, 1]])]);
        feed_two_worms(&mut sw, &mut k);
        let arrival = |port: u8, pid| Journal(pid, EventKind::SwitchArrival { sw: SW, port });
        // Every flit keeps the switch active; only the header is journaled.
        let (a, b) = (arrival(0, 0), arrival(1, 1));
        let on = || Activate(SW);
        assert_eq!(k.take(), [on(), a, on(), on(), on(), b, on(), on()]);

        // Cycle 0: both routing units consume their header byte, in
        // ascending port order; then 150 ns = 24 cycles of nothing.
        switch_phase(&mut sw, SW, 0, &w.tick(0), &mut k);
        assert_eq!(k.take(), [route(0, 0, 2), route(1, 1, 2)]);
        assert_eq!((k.pkts[0].pos, k.pkts[1].pos), (1, 1));
        switch_phase(&mut sw, SW, 0, &w.tick(23), &mut k);
        assert_eq!(k.take(), []);

        // Cycle 24: input 0 requests the free port unopposed; input 1 then
        // finds a rival (Block); the first grant of a fresh round-robin
        // pointer goes to the first requester after port 0, input 1, whose
        // first buffered flit crosses at once.
        switch_phase(&mut sw, SW, 0, &w.tick(24), &mut k);
        let (out, cause) = (2, BlockCause::Arbitration);
        let block = Journal(1, EventKind::Block { sw: SW, out, cause });
        assert_eq!(k.take(), [block, grant(1, 1), Send(22, 1), Activity]);

        // One more flit; input 0 keeps waiting, silently (a block is
        // recorded once, when the request is made). Then input 1 has
        // nothing buffered: no transfer, no activity.
        switch_phase(&mut sw, SW, 0, &w.tick(25), &mut k);
        assert_eq!(k.take(), [Send(22, 1), Activity]);
        switch_phase(&mut sw, SW, 0, &w.tick(26), &mut k);
        assert_eq!(k.take(), []);
        let c = &k.counters;
        assert_eq!(
            (c.switch_arrivals, c.route_lookups, c.worms_blocked),
            (2, 2, 1)
        );
        assert_eq!((c.arbitration_grants, c.flits_forwarded), (1, 2));
        sw.check_invariants();
    }

    #[test]
    fn stop_leaves_on_arrival_and_go_after_the_flit_that_earned_it() {
        let w = World::new();
        let mut sw = switch();
        let mut k = Recorder::with(vec![packet(100, &[&[2, 0]])]);
        // The 57th buffered flit crosses the STOP threshold (56).
        for n in 1..=57 {
            switch_rx(&mut sw, SW, 1, 0, &mut k);
            let stop = k.take().contains(&Ctl(11, CTL_STOP));
            assert_eq!(stop, n == 57, "flit {n}");
        }
        switch_phase(&mut sw, SW, 0, &w.tick(0), &mut k);
        switch_phase(&mut sw, SW, 0, &w.tick(24), &mut k);
        k.take();
        // Header consumed (56 left) and one flit forwarded (55): GO goes
        // back when occupancy falls below 40, i.e. with the 17th flit —
        // after that flit and its activity mark, never before.
        for n in 2..=17 {
            switch_phase(&mut sw, SW, 0, &w.tick(23 + n), &mut k);
            let go = (n == 17).then_some(Ctl(11, CTL_GO));
            let want: Vec<Rec> = [Send(22, 0), Activity].into_iter().chain(go).collect();
            assert_eq!(k.take(), want, "flit {n}");
        }
    }

    #[test]
    fn itb_eject_reserves_pool_space_and_reinjects_cut_through() {
        let w = World::new();
        let mut nic = nic();
        let mut k = Recorder::with(vec![packet(20, &[&[1], &[3, 2]])]);
        k.pkts[0].pos = 1; // the one switch of segment 0 is behind it
        let wire = 1 + 2 + 1 + 20; // ITB mark, segment 1's ports, type, payload
        nic_rx(&mut nic, 4, 0, &w.tick(100), &mut k);
        // Recognition (44) + DMA set-up (32) cycles after the header.
        assert_eq!(k.take(), [Wake(176, 4), ItbEject(0, 4, false)]);
        let p = &k.pkts[0];
        assert_eq!((p.pos, p.pool_reserved), (2, wire));
        assert_eq!((nic.pool_used, k.measure.max_pool_flits), (wire, wire));
        assert_eq!((k.counters.itb_ejections, k.counters.itb_overflows), (1, 0));

        // Not ready before cycle 176; then ready, but only the header has
        // arrived and the ITB mark is not forwarded: nothing to cut
        // through yet, and no bubble counted before the first flit.
        for cycle in [175, 176] {
            nic_tx(&mut nic, 4, &w.tick(cycle), &mut k);
            assert_eq!(k.take(), []);
        }
        assert_eq!(nic.tx.map(|tx| (tx.sent, tx.total)), Some((0, wire - 1)));
        // A second flit arrives; one leaves, announced as a re-injection.
        nic_rx(&mut nic, 4, 0, &w.tick(177), &mut k);
        nic_tx(&mut nic, 4, &w.tick(177), &mut k);
        assert_eq!(k.take(), [Send(40, 0), Activity, Reinject(0, 4)]);
        // Starved again: a mid-packet bubble.
        nic_tx(&mut nic, 4, &w.tick(178), &mut k);
        assert_eq!((k.take(), k.measure.reinject_bubbles), (vec![], 1));
        // The rest arrives (an in-transit packet is never delivered here)
        // and leaves; the tail gives the pool space back.
        for cycle in 179..177 + wire as u64 {
            nic_rx(&mut nic, 4, 0, &w.tick(cycle), &mut k);
            nic_tx(&mut nic, 4, &w.tick(cycle), &mut k);
            assert_eq!(k.take(), [Send(40, 0), Activity]);
        }
        assert!(nic.rx.is_none() && nic.tx.is_none());
        assert_eq!((nic.pool_used, k.pkts[0].pool_reserved), (0, 0));
        assert_eq!(k.counters.itb_reinjections, 1);
        assert_eq!(k.counters.flits_injected, wire as u64 - 1);
    }

    #[test]
    fn itb_eject_into_a_full_pool_overflows_to_host_memory() {
        let mut w = World::new();
        w.cfg.itb_pool_flits = 30;
        let mut nic = nic();
        nic.pool_used = 10;
        let mut k = Recorder::with(vec![packet(20, &[&[1], &[3, 2]])]);
        k.pkts[0].pos = 1;
        nic_rx(&mut nic, 4, 0, &w.tick(100), &mut k);
        // 10 + 24 > 30: nothing reserved, and the overflow penalty (160)
        // on top of recognition + DMA.
        assert_eq!(k.take(), [Wake(336, 4), ItbEject(0, 4, true)]);
        assert_eq!((nic.pool_used, k.pkts[0].pool_reserved), (10, 0));
        assert_eq!((k.measure.itb_overflows, k.measure.max_pool_flits), (1, 0));
        assert_eq!((k.counters.itb_ejections, k.counters.itb_overflows), (1, 1));
    }

    #[test]
    fn delivery_is_emitted_once_with_the_last_flit() {
        let w = World::new();
        let mut nic = nic();
        let mut k = Recorder::with(vec![packet(5, &[&[1]])]);
        k.pkts[0].pos = 1;
        for n in 1..=6 {
            nic_rx(&mut nic, 9, 0, &w.tick(n), &mut k);
            let want = (n == 6).then_some(Deliver(0, 9));
            assert_eq!(k.take(), Vec::from_iter(want), "flit {n}");
        }
        assert!(nic.rx.is_none());
    }

    #[test]
    fn a_worm_routed_into_a_dead_output_is_recorded_lost_and_never_streamed() {
        let w = World::faulted([true, true]);
        let mut sw = switch();
        let mut k = Recorder::with(vec![packet(30, &[&[2, 0]]), packet(30, &[&[5, 0]])]);
        // Channel 22 (output 2) is dead; port 5 does not exist at all.
        k.dead = vec![22];
        feed_two_worms(&mut sw, &mut k);
        k.take();
        switch_phase(&mut sw, SW, 0, &w.tick(0), &mut k);
        let want = [LoseWorm(0), route(0, 0, 2), LoseWorm(1), route(1, 1, 5)];
        assert_eq!(k.take(), want);
        // Recorded, not applied: both worms stay where they are, the
        // one facing a real port even wins it, and no flit enters the
        // dead cable. Purging them is the loss phase's business.
        switch_phase(&mut sw, SW, 0, &w.tick(24), &mut k);
        assert_eq!(k.take(), [grant(0, 0)]);
        switch_phase(&mut sw, SW, 0, &w.tick(25), &mut k);
        assert_eq!(k.take(), []);
        assert!(!sw.is_quiescent());
        sw.check_invariants();
    }

    #[test]
    fn an_unroutable_packet_is_recorded_lost_and_the_next_one_transmits() {
        // Host 1 is down: packet 0 (to host 1) cannot go, packet 1 can.
        let w = World::faulted([true, false]);
        let mut nic = nic();
        let mut k = Recorder::with(vec![packet(8, &[&[0, 1]]), packet(8, &[&[0]])]);
        k.pkts[0].dst = HostId(1);
        k.pkts[1].dst = HostId(0);
        nic.local_queue.extend([0, 1]);
        nic_tx(&mut nic, 0, &w.tick(50), &mut k);
        let inject = Journal(1, EventKind::Inject { src: 0, dst: 0 });
        assert_eq!(k.take(), [DropUnroutable(0), inject, Send(40, 1), Activity]);
        assert_eq!(k.pkts[1].first_inject, 50);
        assert_eq!(k.pkts[0].first_inject, u64::MAX, "only recorded");
    }

    #[test]
    fn a_retransmission_keeps_the_first_injection_cycle() {
        let w = World::new();
        let mut nic = nic();
        let mut k = Recorder::with(vec![packet(8, &[&[1]])]);
        // First sent at cycle 50, lost, and due again at cycle 4_000.
        k.pkts[0].first_inject = 50;
        k.pkts[0].retries = 1;
        nic.retransmit.push(Reverse((4_000, 0)));
        nic_tx(&mut nic, 0, &w.tick(4_000), &mut k);
        let inject = Journal(0, EventKind::Inject { src: 0, dst: 9 });
        assert_eq!(k.take(), [inject, Send(40, 0), Activity]);
        assert_eq!(
            k.pkts[0].first_inject, 50,
            "latency counts from the first try"
        );
    }

    // ---- Steady runs: each horizon is the cycle per-flit stepping meets
    // the event at.

    /// A channel table wide enough for [`switch`]'s channels and [`nic`]'s.
    fn table() -> Channels {
        crate::channel::tests::table(41, crate::config::LINK_DELAY_CYCLES)
    }

    /// `flits` flits of a `payload`-flit worm for output 2 into input 1,
    /// routed at cycle 0 and granted at 24, where its first flit crosses;
    /// `ch` records that send. Returns the flits the worm has here.
    fn granted_worm(sw: &mut SwitchState, k: &mut Recorder, ch: &mut Channels, flits: u32) -> u32 {
        let w = World::new();
        let expected = k.pkts[0].expected_at_next_receiver();
        for _ in 0..flits.min(expected) {
            switch_rx(sw, SW, 1, 0, k);
        }
        switch_phase(sw, SW, 0, &w.tick(0), k);
        switch_phase(sw, SW, 0, &w.tick(24), k);
        assert!(k.take().contains(&Send(22, 0)));
        ch.send(ch.row(24), 22, 0);
        expected
    }

    /// The cycles from 25 on at which per-flit stepping forwards, until
    /// `until`.
    fn forward_cycles(sw: &mut SwitchState, k: &mut Recorder, until: u64) -> Vec<u64> {
        let w = World::new();
        let mut sent = Vec::new();
        for cycle in 25..=until {
            switch_phase(sw, SW, 0, &w.tick(cycle), k);
            if k.take().contains(&Send(22, 0)) {
                sent.push(cycle);
            }
        }
        sent
    }

    #[test]
    fn a_run_of_a_buffered_worm_ends_when_its_tail_crosses() {
        let (w, mut sw, mut ch) = (World::new(), switch(), table());
        let mut k = Recorder::with(vec![packet(30, &[&[2, 0]])]);
        let expected = granted_worm(&mut sw, &mut k, &mut ch, u32::MAX);
        let Flow::Steady(h) = flow(&sw, 1, 2, &w.tick(24), &ch) else {
            panic!("not steady")
        };
        // Header byte consumed, one flit across: the tail is the last of
        // the other `expected - 2`, one per cycle.
        assert_eq!(h, 22 + u64::from(expected));
        let sent = forward_cycles(&mut sw, &mut k, h + 3);
        assert_eq!(sent.last(), Some(&h));
        assert!(sw.is_quiescent(), "the tail released the connection");
    }

    #[test]
    fn an_unfed_run_ends_on_the_cycle_its_buffer_is_empty() {
        let (w, mut sw, mut ch) = (World::new(), switch(), table());
        let mut k = Recorder::with(vec![packet(30, &[&[2, 0]])]);
        granted_worm(&mut sw, &mut k, &mut ch, 10);
        // Ten in, header consumed, one across: eight to go, then nothing.
        let Flow::Steady(h) = flow(&sw, 1, 2, &w.tick(24), &ch) else {
            panic!("not steady")
        };
        assert_eq!(h, 24 + 8 + 1);
        assert_eq!(
            forward_cycles(&mut sw, &mut k, h),
            (25..h).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_run_fed_by_a_run_lasts_until_its_tail() {
        let (w, mut sw, mut ch) = (World::new(), switch(), table());
        let mut k = Recorder::with(vec![packet(30, &[&[2, 0]])]);
        let expected = granted_worm(&mut sw, &mut k, &mut ch, 10);
        // Channel 11 (input 1) streams the rest from cycle 25 on.
        let delay = ch.delay();
        ch.open(11, 0, 25 - delay, 1_000);
        let Flow::Steady(h) = flow(&sw, 1, 2, &w.tick(24), &ch) else {
            panic!("not steady")
        };
        assert_eq!(h, 22 + u64::from(expected));
        // Stepped per flit with those arrivals: no gap, the tail at `h`.
        let mut sent = Vec::new();
        for cycle in 25..=h {
            if cycle - 25 < u64::from(expected - 10) {
                switch_rx(&mut sw, SW, 1, 0, &mut k);
            }
            switch_phase(&mut sw, SW, 0, &w.tick(cycle), &mut k);
            if k.take().contains(&Send(22, 0)) {
                sent.push(cycle);
            }
        }
        assert_eq!(sent, (25..=h).collect::<Vec<_>>());
        assert!(sw.is_quiescent());
    }

    #[test]
    fn a_draining_run_ends_with_the_flit_that_sends_go() {
        let (w, mut sw, mut ch) = (World::new(), switch(), table());
        let mut k = Recorder::with(vec![packet(100, &[&[2, 0]])]);
        // 57 flits: over the STOP threshold; 55 buffered after cycle 24.
        granted_worm(&mut sw, &mut k, &mut ch, 57);
        let Flow::Steady(h) = flow(&sw, 1, 2, &w.tick(24), &ch) else {
            panic!("not steady")
        };
        assert_eq!(h, 24 + 55 + 1 - u64::from(GO_THRESHOLD));
        for cycle in 25..=h {
            switch_phase(&mut sw, SW, 0, &w.tick(cycle), &mut k);
            let go = k.take().contains(&Ctl(11, crate::channel::CTL_GO));
            assert_eq!(go, cycle == h, "cycle {cycle}");
        }
    }

    #[test]
    fn a_buffer_filled_by_a_run_ends_it_with_the_flit_that_sends_stop() {
        let (w, mut sw, mut ch) = (World::new(), switch(), table());
        let mut k = Recorder::with(vec![packet(100, &[&[2, 0]])]);
        for _ in 0..10 {
            switch_rx(&mut sw, SW, 1, 0, &mut k);
        }
        // Routing: nothing leaves while a run sent from cycle 0 streams in
        // from cycle `at` on.
        switch_phase(&mut sw, SW, 0, &w.tick(0), &mut k);
        ch.open(11, 0, 0, 1_000);
        let (inp, at) = (sw.inp[1].as_ref().unwrap(), ch.delay());
        assert_eq!(fill_horizon(inp, at - 2, &ch), u64::MAX, "not arriving yet");
        // Nine buffered: the 48th arrival makes 57.
        let h = fill_horizon(inp, at - 1, &ch);
        assert_eq!(h, at - 1 + 48);
        k.take();
        for cycle in at..=h {
            switch_rx(&mut sw, SW, 1, 0, &mut k);
            let stop = k.take().contains(&Ctl(11, CTL_STOP));
            assert_eq!(stop, cycle == h, "cycle {cycle}");
        }
    }

    #[test]
    fn a_nic_run_ends_when_the_tail_leaves() {
        let (w, mut nic, mut ch) = (World::new(), nic(), table());
        let mut k = Recorder::with(vec![packet(30, &[&[1]])]);
        nic.local_queue.push_back(0);
        nic_tx(&mut nic, 0, &w.tick(50), &mut k);
        ch.send(ch.row(50), 40, 0);
        let total = nic.tx.unwrap().total;
        let h = nic_run_horizon(&nic, 0, &w.tick(50), &ch).unwrap();
        assert_eq!(h, 50 + u64::from(total) - 1);
        for cycle in 51..=h {
            nic_tx(&mut nic, 0, &w.tick(cycle), &mut k);
            assert_eq!(nic.tx.is_none(), cycle == h, "cycle {cycle}");
        }
        // Held by STOP, or no flit sent this cycle: no run.
        let mut nic2 = self::nic();
        nic2.local_queue.push_back(0);
        nic_tx(&mut nic2, 0, &w.tick(50), &mut k);
        assert_eq!(nic_run_horizon(&nic2, 0, &w.tick(51), &ch), None);
        nic2.stopped = true;
        assert_eq!(nic_run_horizon(&nic2, 0, &w.tick(50), &ch), None);
    }

    /// The phase loops' walk on ids at both sides of a word boundary and
    /// at the end of the last word: each visited once, in ascending order,
    /// and a refused visit clears its own bit and no other.
    #[test]
    fn walk_visits_across_words_in_order_and_unlists_only_the_refused() {
        let mut s = crate::sched::ActiveSched::new(1, 512);
        for h in [511, 64, 0, 63, 64] {
            s.activate_nic(h);
        }
        let mut seen = Vec::new();
        walk(
            &mut s,
            |s| &mut s.nics,
            |_, h| {
                seen.push(h);
                h != 64
            },
        );
        assert_eq!(seen, [0, 63, 64, 511]);
        let words: Vec<u64> = (0..s.nics.words()).map(|w| s.nics.word(w)).collect();
        assert_eq!(words, [1 | 1 << 63, 0, 0, 0, 0, 0, 0, 1 << 63]);
        walk(&mut s, |s| &mut s.nics, |_, _| false);
        assert!(s.nothing_listed());
    }

    /// A visit that lists a component of its own kind breaks the copied
    /// word's premise; debug builds say so.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a visit listed its own kind")]
    fn walk_refuses_a_visit_that_lists_its_own_kind() {
        let mut s = crate::sched::ActiveSched::new(1, 128);
        s.activate_nic(3);
        walk(
            &mut s,
            |s| &mut s.nics,
            |s, _| {
                s.activate_nic(5);
                true
            },
        );
    }
}
