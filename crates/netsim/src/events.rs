//! Structured event journal: what happened to *which packet*, *where*,
//! *when*.
//!
//! The trace observers ([`trace`](crate::trace)) aggregate; the journal
//! records. Each entry is a typed [`Event`] — injection, per-switch
//! arrival/route/head-advance, block with cause, ITB eject/re-inject,
//! delivery, drop, fault fire/repair — stamped with the cycle and the
//! packet id. Entries live in a bounded ring: when the ring fills, the
//! oldest packet entries are evicted (and counted), so a journal on a long
//! run degrades to "the most recent N events, plus every fault fire and
//! repair" instead of unbounded memory.
//!
//! The ring holds each entry in 16 bytes, not as an [`Event`] (24): the
//! cycle word carries the kind in its top 4 bits, then the pid, then one
//! 32-bit payload — two 16-bit host ids, a 16-bit switch id and two port
//! (or port and cause) bytes, a host id and the overflow bit, or a 2-bit
//! fault target kind and a 30-bit element id. So the journal names at
//! most 65,536 hosts and 65,536 switches
//! ([`Simulator::enable_events`](crate::Simulator::enable_events)
//! refuses a larger network), and cycles below 2⁶⁰. Recording packs;
//! every reader ([`EventJournal::events`], [`EventJournal::journey`],
//! [`EventJournal::blocked_packets`], [`EventJournal::to_chrome`])
//! decodes, so what the journal exports is the `Event` it was given.
//!
//! The journal exports Chrome `trace_event` JSON
//! ([`EventJournal::to_chrome`]): switches and NICs become tracks, events
//! become instants on them, and each packet journey becomes an async span
//! plus a flow arrow threading injection → ITB hops → delivery. Load the
//! file in [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`.
//!
//! Like every observer, the journal is `Option<Box<...>>` inside the
//! simulator: disabled, each hook site costs one branch. The journal is
//! order-sensitive (entries are appended as hooks fire), so the hook
//! sites live in the shared helpers below the scheduler dispatch and the
//! engine walks its channel-occupancy and active-component bitsets in
//! ascending index order, the scan oracle's order — the recorded
//! sequence, and therefore the Chrome trace export, is byte-identical
//! between [`Scheduler`](crate::Scheduler) modes
//! (`tests/scheduler_equivalence.rs::chrome_trace_export_schedulers_agree`).

use std::collections::{HashMap, HashSet, VecDeque};

use regnet_metrics::{ChromeArg, ChromeTrace};

use crate::config::CYCLE_NS;
use crate::faultplan::FaultTarget;
use crate::packet::NO_PACKET;

/// Why a worm's head could not advance when it finished routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockCause {
    /// The output port is crossbar-connected to another input.
    OutputBusy,
    /// The output port's downstream buffer sent STOP.
    FlowStopped,
    /// Another head is requesting the same free output (arbitration race).
    Arbitration,
}

/// One journal entry's payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// First flit of a fresh (or retransmitted) packet left the source NIC.
    Inject { src: u32, dst: u32 },
    /// A packet started arriving at a switch input port.
    SwitchArrival { sw: u32, port: u8 },
    /// The routing control unit consumed the header and selected `out`.
    Route { sw: u32, port: u8, out: u8 },
    /// The head finished routing but cannot advance yet.
    Block { sw: u32, out: u8, cause: BlockCause },
    /// Arbitration connected input `in_port` to output `out` (the head
    /// advances — this is the unblock edge).
    HeadAdvance { sw: u32, in_port: u8, out: u8 },
    /// The packet was ejected into this host's in-transit buffer.
    ItbEject { host: u32, overflow: bool },
    /// A previously ejected packet started re-injecting.
    Reinject { host: u32 },
    /// The packet reached its destination NIC completely.
    Deliver { dst: u32 },
    /// The packet was abandoned (fault machinery, retry budget exhausted).
    Drop,
    /// A truncated packet was queued for source retransmission.
    Retransmit { src: u32 },
    /// A fault event fired.
    FaultFire { target: FaultTarget },
    /// A fault was repaired.
    FaultRepair { target: FaultTarget },
}

/// One journal entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    pub cycle: u64,
    /// Packet id (`u32::MAX` for fault events). Packet ids are arena
    /// slots and are reused; journeys are delimited by `Inject` …
    /// `Deliver`/`Drop` pairs, not by pid alone.
    pub pid: u32,
    pub kind: EventKind,
}

impl Event {
    /// One human-readable line, used by the `packet_forensics` example.
    pub fn describe(&self) -> String {
        let t_ns = self.cycle as f64 * CYCLE_NS;
        let what = match self.kind {
            EventKind::Inject { src, dst } => format!("inject at host {src}, bound for {dst}"),
            EventKind::SwitchArrival { sw, port } => format!("arrives at S{sw} port {port}"),
            EventKind::Route { sw, port, out } => {
                format!("S{sw} routes header (in p{port} -> out p{out})")
            }
            EventKind::Block { sw, out, cause } => {
                let why = match cause {
                    BlockCause::OutputBusy => "output busy",
                    BlockCause::FlowStopped => "downstream STOP",
                    BlockCause::Arbitration => "arbitration",
                };
                format!("BLOCKED at S{sw} waiting for out p{out} ({why})")
            }
            EventKind::HeadAdvance { sw, in_port, out } => {
                format!("S{sw} grants p{in_port} -> p{out}, head advances")
            }
            EventKind::ItbEject { host, overflow } => format!(
                "ejected into in-transit buffer at host {host}{}",
                if overflow { " (pool OVERFLOW)" } else { "" }
            ),
            EventKind::Reinject { host } => format!("re-injection starts at host {host}"),
            EventKind::Deliver { dst } => format!("delivered at host {dst}"),
            EventKind::Drop => "dropped".to_string(),
            EventKind::Retransmit { src } => {
                format!("queued for retransmission at host {src}")
            }
            EventKind::FaultFire { target } => format!("fault fires: {target:?}"),
            EventKind::FaultRepair { target } => format!("repair: {target:?}"),
        };
        format!("cycle {:>10} ({:>12.1} ns)  {}", self.cycle, t_ns, what)
    }

    /// Hand `draw` the Chrome instant this event draws: its name,
    /// category, `(pid, tid)` track and args. `Drop` draws none; it only
    /// closes its journey. [`EventJournal::to_chrome`] names the tracks and
    /// writes the instants from this one description.
    fn chrome_instant(&self, draw: impl FnOnce(&str, &str, (u32, u32), &[(&str, ChromeArg)])) {
        use ChromeArg::{Debug, Int};
        use EventKind as K;
        let pid = ("pid", Int(self.pid.into()));
        let (name, cat, track, args): (_, _, _, &[_]) = match self.kind {
            K::Inject { src, dst } => (
                "inject",
                "nic",
                (PID_NICS, src),
                &[("dst", Int(dst.into()))],
            ),
            K::SwitchArrival { sw, port } => (
                "arrival",
                "switch",
                (PID_SWITCHES, sw),
                &[("port", Int(port.into())), pid],
            ),
            K::Route { sw, port, out } => (
                "route",
                "switch",
                (PID_SWITCHES, sw),
                &[("in", Int(port.into())), ("out", Int(out.into())), pid],
            ),
            K::Block { sw, out, ref cause } => (
                "block",
                "switch",
                (PID_SWITCHES, sw),
                &[("out", Int(out.into())), ("cause", Debug(cause)), pid],
            ),
            K::HeadAdvance { sw, in_port, out } => (
                "grant",
                "switch",
                (PID_SWITCHES, sw),
                &[("in", Int(in_port.into())), ("out", Int(out.into())), pid],
            ),
            K::ItbEject { host, ref overflow } => (
                "itb_eject",
                "nic",
                (PID_NICS, host),
                &[("overflow", Debug(overflow)), pid],
            ),
            K::Reinject { host } => ("reinject", "nic", (PID_NICS, host), &[pid]),
            K::Deliver { dst } => ("deliver", "nic", (PID_NICS, dst), &[pid]),
            K::Drop => return,
            K::Retransmit { src } => ("retransmit", "nic", (PID_NICS, src), &[pid]),
            K::FaultFire { ref target } => ("fault", "fault", FAULTS, &[("target", Debug(target))]),
            K::FaultRepair { ref target } => {
                ("repair", "fault", FAULTS, &[("target", Debug(target))])
            }
        };
        draw(name, cat, track, args);
    }
}

/// Chrome export tracks: process 1 holds one thread per switch, process 2
/// one per host, and process 3 the journey spans and, on thread 0, the
/// fault events.
const PID_SWITCHES: u32 = 1;
const PID_NICS: u32 = 2;
const PID_JOURNEYS: u32 = 3;
const FAULTS: (u32, u32) = (PID_JOURNEYS, 0);

/// Most hosts, and most switches, a journal entry's 16-bit ids can name.
pub(crate) const MAX_IDS: usize = 1 << 16;
/// Most links a fault entry's 30-bit element id can name.
const MAX_LINKS: usize = 1 << 30;

/// The kind tag sits in the top 4 bits of the cycle word.
const TAG_SHIFT: u32 = 60;
const CYCLE_MASK: u64 = (1 << TAG_SHIFT) - 1;

// Kind tags, in `EventKind` declaration order.
const INJECT: u8 = 0;
const ARRIVAL: u8 = 1;
const ROUTE: u8 = 2;
const BLOCK: u8 = 3;
const GRANT: u8 = 4;
const ITB_EJECT: u8 = 5;
const REINJECT: u8 = 6;
const DELIVER: u8 = 7;
const DROP: u8 = 8;
const RETRANSMIT: u8 = 9;
const FAULT_FIRE: u8 = 10;
const FAULT_REPAIR: u8 = 11;

/// `BlockCause` by its payload byte.
const CAUSES: [BlockCause; 3] = [
    BlockCause::OutputBusy,
    BlockCause::FlowStopped,
    BlockCause::Arbitration,
];

/// One retained journal entry in 16 bytes: the cycle with the kind tag
/// above it, the pid, and the kind's fields packed into one word (module
/// docs). [`Entry::pack`] and [`Entry::unpack`] are the only places that
/// know the layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    tagged_cycle: u64,
    pid: u32,
    payload: u32,
}

/// A host or switch id in 16 bits; `enable_events` refuses a network
/// whose ids do not fit.
fn id16(id: u32) -> u32 {
    debug_assert!((id as usize) < MAX_IDS, "id {id} does not fit in 16 bits");
    id
}

/// A 16-bit switch id over two port (or port and cause) bytes.
fn at_switch(sw: u32, hi: u8, lo: u8) -> u32 {
    id16(sw) << 16 | u32::from(hi) << 8 | u32::from(lo)
}

/// A fault target as a 2-bit kind over a 30-bit element id.
fn target_word(target: FaultTarget) -> u32 {
    let (kind, id) = match target {
        FaultTarget::Link(l) => (0, l.0),
        FaultTarget::Switch(s) => (1, id16(s.0)),
        FaultTarget::Host(h) => (2, id16(h.0)),
    };
    debug_assert!(
        (id as usize) < MAX_LINKS,
        "fault target id {id} does not fit in 30 bits"
    );
    kind << 30 | id
}

fn word_target(word: u32) -> FaultTarget {
    let id = word & (MAX_LINKS as u32 - 1);
    match word >> 30 {
        0 => FaultTarget::Link(regnet_topology::LinkId(id)),
        1 => FaultTarget::Switch(regnet_topology::SwitchId(id)),
        _ => FaultTarget::Host(regnet_topology::HostId(id)),
    }
}

impl Entry {
    /// Panics on a cycle of 2⁶⁰ or more, which the tag bits would cut.
    fn pack(cycle: u64, pid: u32, kind: EventKind) -> Entry {
        assert!(
            cycle <= CYCLE_MASK,
            "the event journal keeps cycles below 2^60; got {cycle}"
        );
        use EventKind as K;
        let (tag, payload) = match kind {
            K::Inject { src, dst } => (INJECT, id16(src) << 16 | id16(dst)),
            K::SwitchArrival { sw, port } => (ARRIVAL, at_switch(sw, port, 0)),
            K::Route { sw, port, out } => (ROUTE, at_switch(sw, port, out)),
            K::Block { sw, out, cause } => (BLOCK, at_switch(sw, out, cause as u8)),
            K::HeadAdvance { sw, in_port, out } => (GRANT, at_switch(sw, in_port, out)),
            K::ItbEject { host, overflow } => (ITB_EJECT, id16(host) << 1 | u32::from(overflow)),
            K::Reinject { host } => (REINJECT, id16(host)),
            K::Deliver { dst } => (DELIVER, id16(dst)),
            K::Drop => (DROP, 0),
            K::Retransmit { src } => (RETRANSMIT, id16(src)),
            K::FaultFire { target } => (FAULT_FIRE, target_word(target)),
            K::FaultRepair { target } => (FAULT_REPAIR, target_word(target)),
        };
        Entry {
            tagged_cycle: u64::from(tag) << TAG_SHIFT | cycle,
            pid,
            payload,
        }
    }

    fn tag(&self) -> u8 {
        (self.tagged_cycle >> TAG_SHIFT) as u8
    }

    /// A fault firing or being repaired: the entries the journal never
    /// evicts.
    fn is_fault(&self) -> bool {
        matches!(self.tag(), FAULT_FIRE | FAULT_REPAIR)
    }

    fn unpack(&self) -> Event {
        use EventKind as K;
        let p = self.payload;
        let (sw, hi, lo) = (p >> 16, (p >> 8) as u8, p as u8);
        let kind = match self.tag() {
            INJECT => K::Inject {
                src: p >> 16,
                dst: p & 0xFFFF,
            },
            ARRIVAL => K::SwitchArrival { sw, port: hi },
            ROUTE => K::Route {
                sw,
                port: hi,
                out: lo,
            },
            BLOCK => K::Block {
                sw,
                out: hi,
                cause: CAUSES[lo as usize],
            },
            GRANT => K::HeadAdvance {
                sw,
                in_port: hi,
                out: lo,
            },
            ITB_EJECT => K::ItbEject {
                host: p >> 1,
                overflow: p & 1 != 0,
            },
            REINJECT => K::Reinject { host: p },
            DELIVER => K::Deliver { dst: p },
            DROP => K::Drop,
            RETRANSMIT => K::Retransmit { src: p },
            FAULT_FIRE => K::FaultFire {
                target: word_target(p),
            },
            FAULT_REPAIR => K::FaultRepair {
                target: word_target(p),
            },
            tag => unreachable!("no event kind has tag {tag}"),
        };
        Event {
            cycle: self.tagged_cycle & CYCLE_MASK,
            pid: self.pid,
            kind,
        }
    }
}

/// Journal configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventOptions {
    /// Ring capacity in events; the oldest packet entries are evicted
    /// beyond it (fault entries never are).
    pub capacity: usize,
}

impl Default for EventOptions {
    fn default() -> Self {
        EventOptions { capacity: 1 << 16 }
    }
}

/// The ring-buffered journal.
#[derive(Debug)]
pub struct EventJournal {
    capacity: usize,
    ring: VecDeque<Entry>,
    recorded: u64,
    evicted: u64,
}

impl EventJournal {
    pub fn new(opts: EventOptions) -> EventJournal {
        let capacity = opts.capacity.max(1);
        EventJournal {
            ring: VecDeque::with_capacity(capacity.min(1 << 20)),
            capacity,
            recorded: 0,
            evicted: 0,
        }
    }

    // Out of line: every caller tests that a journal exists first, and
    // the body inlined at the kernel's journal sites slows the untraced
    // switch loop.
    #[inline(never)]
    pub(crate) fn record(&mut self, cycle: u64, pid: u32, kind: EventKind) {
        let entry = Entry::pack(cycle, pid, kind);
        self.recorded += 1;
        if self.ring.len() >= self.capacity {
            // Make room by the oldest packet event: fault markers are few
            // and are what a long run's trace is read for, so they stay,
            // still counting toward the capacity. With only those left, a
            // packet event is not kept and a fault one is.
            match self.ring.iter().position(|e| !e.is_fault()) {
                Some(oldest) => {
                    self.ring.remove(oldest);
                    self.evicted += 1;
                }
                None if entry.is_fault() => {}
                None => {
                    self.evicted += 1;
                    return;
                }
            }
        }
        self.ring.push_back(entry);
    }

    /// Events currently in the ring, oldest first, decoded.
    pub fn events(&self) -> impl Iterator<Item = Event> + '_ {
        self.ring.iter().map(Entry::unpack)
    }

    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total events accepted (including those since evicted).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted from the ring to make room.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// All retained events of one packet id, oldest first. Packet ids are
    /// reused; the caller should cut at `Inject` boundaries (see
    /// `examples/packet_forensics.rs`).
    pub fn journey(&self, pid: u32) -> Vec<Event> {
        let mine = self.ring.iter().filter(|e| e.pid == pid);
        mine.map(Entry::unpack).collect()
    }

    /// Pids of packets whose last retained event is a `Block` — worms
    /// sitting blocked at the journal horizon, newest block first.
    pub fn blocked_packets(&self) -> Vec<u32> {
        use std::collections::HashMap;
        let mut last: HashMap<u32, (usize, bool)> = HashMap::new();
        for (i, e) in self.ring.iter().enumerate() {
            if e.pid == NO_PACKET {
                continue;
            }
            let blocked = e.tag() == BLOCK;
            last.insert(e.pid, (i, blocked));
        }
        let mut out: Vec<(usize, u32)> = last
            .into_iter()
            .filter(|&(_, (_, blocked))| blocked)
            .map(|(pid, (i, _))| (i, pid))
            .collect();
        out.sort_unstable_by_key(|&(i, _)| std::cmp::Reverse(i));
        out.into_iter().map(|(_, pid)| pid).collect()
    }

    /// Export the retained events as Chrome `trace_event` JSON.
    ///
    /// Tracks: process 1 = switches (one thread per switch), process 2 =
    /// NICs (one thread per host), process 3 = packet journeys (async
    /// spans) and faults. Every event but `Drop` is an instant on its
    /// track. Every `Inject` opens a journey span and a flow arrow; a
    /// retransmission's `Inject` and each `ItbEject` (the ITB hops the
    /// paper's schemes introduce) add a flow step; `Deliver` closes both
    /// and `Drop` the span.
    pub fn to_chrome(&self) -> ChromeTrace {
        let us = |cycle: u64| cycle as f64 * CYCLE_NS / 1000.0;
        let mut t = ChromeTrace::new();
        t.process_name(PID_SWITCHES, "switches");
        t.process_name(PID_NICS, "nics");
        t.process_name(PID_JOURNEYS, "packet journeys");
        // Name every switch and NIC track that appears, in first-appearance
        // order.
        let mut named = HashSet::new();
        for e in self.events() {
            e.chrome_instant(|_, _, (pid, tid), _| {
                if pid != PID_JOURNEYS && named.insert((pid, tid)) {
                    let name = if pid == PID_SWITCHES {
                        format!("S{tid}")
                    } else {
                        format!("host {tid}")
                    };
                    t.thread_name(pid, tid, &name);
                }
            });
        }

        // Packet correlation: pids are reused, so each Inject opens a
        // fresh journey id and later events of that pid attach to it. A
        // retransmission injects a pid whose journey is still open: it is
        // one more flow step of that journey.
        let mut open: HashMap<u32, u64> = HashMap::new();
        let mut next_journey: u64 = 1;
        for e in self.events() {
            let ts = us(e.cycle);
            match e.kind {
                EventKind::Inject { src, .. } if open.contains_key(&e.pid) => {
                    t.flow_step("journey", "journey", open[&e.pid], ts, PID_NICS, src);
                }
                EventKind::Inject { src, dst } => {
                    let id = next_journey;
                    next_journey += 1;
                    open.insert(e.pid, id);
                    let args = [
                        ("src", ChromeArg::Int(src.into())),
                        ("dst", ChromeArg::Int(dst.into())),
                        ("pid", ChromeArg::Int(e.pid.into())),
                    ];
                    let name = format!("pkt {src}->{dst}");
                    t.async_begin(&name, "journey", id, ts, PID_JOURNEYS, &args);
                    t.flow_start("journey", "journey", id, ts, PID_NICS, src);
                }
                EventKind::ItbEject { host, .. } => {
                    if let Some(&id) = open.get(&e.pid) {
                        t.flow_step("journey", "journey", id, ts, PID_NICS, host);
                    }
                }
                EventKind::Deliver { dst } => {
                    if let Some(id) = open.remove(&e.pid) {
                        t.flow_end("journey", "journey", id, ts, PID_NICS, dst);
                        t.async_end("pkt", "journey", id, ts, PID_JOURNEYS);
                    }
                }
                EventKind::Drop => {
                    if let Some(id) = open.remove(&e.pid) {
                        t.async_end("pkt", "journey", id, ts, PID_JOURNEYS);
                    }
                }
                _ => {}
            }
            e.chrome_instant(|name, cat, (pid, tid), args| {
                t.instant(name, cat, ts, pid, tid, args)
            });
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest() {
        let mut j = EventJournal::new(EventOptions { capacity: 3 });
        for c in 0..5u64 {
            j.record(c, c as u32, EventKind::Drop);
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.recorded(), 5);
        assert_eq!(j.evicted(), 2);
        let cycles: Vec<u64> = j.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
    }

    #[test]
    fn ring_never_evicts_fault_markers() {
        let fire = EventKind::FaultFire {
            target: FaultTarget::Link(regnet_topology::LinkId(5)),
        };
        let repair = EventKind::FaultRepair {
            target: FaultTarget::Host(regnet_topology::HostId(4)),
        };
        let mut j = EventJournal::new(EventOptions { capacity: 3 });
        j.record(0, 0, EventKind::Drop);
        j.record(1, NO_PACKET, fire);
        for c in 2..6u64 {
            j.record(c, c as u32, EventKind::Drop);
        }
        // The fault stays where it was recorded; packet events age out
        // around it.
        let cycles: Vec<u64> = j.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![1, 4, 5]);
        assert_eq!((j.recorded(), j.evicted()), (6, 3));
        j.record(6, NO_PACKET, repair);
        j.record(7, NO_PACKET, fire);
        // Only fault markers left: a packet event is not kept, a fault
        // event is, past the capacity.
        j.record(8, 8, EventKind::Drop);
        j.record(9, NO_PACKET, repair);
        let fault = |k| {
            matches!(
                k,
                EventKind::FaultFire { .. } | EventKind::FaultRepair { .. }
            )
        };
        let kept: Vec<(u64, bool)> = j.events().map(|e| (e.cycle, fault(e.kind))).collect();
        assert_eq!(kept, vec![(1, true), (6, true), (7, true), (9, true)]);
        assert_eq!((j.recorded(), j.evicted()), (10, 6));
    }

    #[test]
    fn blocked_packets_finds_stuck_worms() {
        let mut j = EventJournal::new(EventOptions::default());
        let block = EventKind::Block {
            sw: 1,
            out: 2,
            cause: BlockCause::FlowStopped,
        };
        j.record(1, 7, block);
        j.record(
            2,
            7,
            EventKind::HeadAdvance {
                sw: 1,
                in_port: 0,
                out: 2,
            },
        );
        j.record(3, 9, block);
        j.record(4, 11, block);
        // 7 unblocked; 9 and 11 still blocked, newest first.
        assert_eq!(j.blocked_packets(), vec![11, 9]);
    }

    #[test]
    fn chrome_export_threads_journeys() {
        let mut j = EventJournal::new(EventOptions::default());
        j.record(10, 5, EventKind::Inject { src: 0, dst: 3 });
        j.record(
            20,
            5,
            EventKind::ItbEject {
                host: 1,
                overflow: false,
            },
        );
        j.record(25, 5, EventKind::Reinject { host: 1 });
        j.record(40, 5, EventKind::Deliver { dst: 3 });
        // Pid 5 is reused by a later packet: a fresh journey id. Its
        // retransmission is a flow step of that journey, not a third one.
        j.record(50, 5, EventKind::Inject { src: 2, dst: 0 });
        j.record(52, 5, EventKind::Retransmit { src: 2 });
        j.record(55, 5, EventKind::Inject { src: 2, dst: 0 });
        j.record(60, 5, EventKind::Deliver { dst: 0 });
        let json = j.to_chrome().to_json();
        let doc = regnet_metrics::JsonValue::parse(&json).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let phase = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").unwrap().as_str() == Some(ph))
                .count()
        };
        assert_eq!(phase("s"), 2, "two journeys start");
        assert_eq!(phase("t"), 2, "one ITB hop, one retransmission");
        assert_eq!(phase("f"), 2, "two journeys end");
        assert_eq!(phase("b"), 2);
        assert_eq!(phase("e"), 2);
        // Distinct flow ids for the reused pid.
        let ids: std::collections::HashSet<&str> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("s"))
            .map(|e| e.get("id").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(ids.len(), 2);
    }

    /// A synthetic journal holding every event kind, every block cause,
    /// both overflow flags, all three fault targets, a retransmission, a
    /// journey closed by `Drop`, a reused pid and a `Deliver` whose
    /// `Inject` was evicted, exported and compared byte for byte with
    /// `tests/golden/chrome_every_kind.json`. Regenerate with
    /// `REGNET_BLESS=1 cargo test -p regnet-netsim chrome_export_every_kind`.
    #[test]
    fn chrome_export_every_kind_matches_golden_file() {
        use regnet_topology::{HostId, LinkId, SwitchId};
        use BlockCause::*;
        use EventKind::*;
        const GOLDEN: &str = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/chrome_every_kind.json"
        );
        let script = [
            // Evicted from the ring of 30: pid 9's journey never opens.
            (1, 9, Inject { src: 7, dst: 2 }),
            (2, 1, Inject { src: 0, dst: 3 }),
            (3, 1, SwitchArrival { sw: 0, port: 4 }),
            (
                4,
                1,
                Route {
                    sw: 0,
                    port: 4,
                    out: 1,
                },
            ),
            (
                5,
                1,
                Block {
                    sw: 0,
                    out: 1,
                    cause: OutputBusy,
                },
            ),
            (
                6,
                2,
                Block {
                    sw: 1,
                    out: 0,
                    cause: FlowStopped,
                },
            ),
            (
                7,
                3,
                Block {
                    sw: 0,
                    out: 2,
                    cause: Arbitration,
                },
            ),
            (
                8,
                1,
                HeadAdvance {
                    sw: 0,
                    in_port: 4,
                    out: 1,
                },
            ),
            (
                9,
                1,
                ItbEject {
                    host: 5,
                    overflow: false,
                },
            ),
            (10, 1, Reinject { host: 5 }),
            (
                11,
                1,
                ItbEject {
                    host: 6,
                    overflow: true,
                },
            ),
            (12, 1, Reinject { host: 6 }),
            (13, 1, Deliver { dst: 3 }),
            (
                14,
                9,
                ItbEject {
                    host: 4,
                    overflow: false,
                },
            ),
            (15, 9, Deliver { dst: 2 }),
            // Pid 1 again: a fresh journey, truncated by a link fault and
            // retransmitted from its source.
            (20, 1, Inject { src: 2, dst: 6 }),
            (21, 1, SwitchArrival { sw: 1, port: 0 }),
            (
                22,
                NO_PACKET,
                FaultFire {
                    target: FaultTarget::Link(LinkId(5)),
                },
            ),
            (22, 1, Retransmit { src: 2 }),
            (23, 2, Inject { src: 4, dst: 5 }),
            (
                24,
                NO_PACKET,
                FaultFire {
                    target: FaultTarget::Switch(SwitchId(3)),
                },
            ),
            (25, 2, Drop),
            (26, 7, Drop),
            (
                27,
                NO_PACKET,
                FaultFire {
                    target: FaultTarget::Host(HostId(4)),
                },
            ),
            (30, 1, Inject { src: 2, dst: 6 }),
            (
                31,
                1,
                ItbEject {
                    host: 3,
                    overflow: false,
                },
            ),
            (32, 1, Reinject { host: 3 }),
            (33, 1, Deliver { dst: 6 }),
            (
                40,
                NO_PACKET,
                FaultRepair {
                    target: FaultTarget::Link(LinkId(5)),
                },
            ),
            (
                41,
                NO_PACKET,
                FaultRepair {
                    target: FaultTarget::Switch(SwitchId(3)),
                },
            ),
            (
                42,
                NO_PACKET,
                FaultRepair {
                    target: FaultTarget::Host(HostId(4)),
                },
            ),
        ];
        let mut j = EventJournal::new(EventOptions {
            capacity: script.len() - 1,
        });
        for (cycle, pid, kind) in script {
            j.record(cycle, pid, kind);
        }
        assert_eq!(j.evicted(), 1);
        let json = j.to_chrome().to_json();
        if std::env::var_os("REGNET_BLESS").is_some() {
            std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden")).unwrap();
            std::fs::write(GOLDEN, &json).unwrap();
            return;
        }
        let golden = std::fs::read_to_string(GOLDEN).expect(
            "golden file missing; run REGNET_BLESS=1 cargo test -p regnet-netsim chrome_export_every_kind",
        );
        assert_eq!(
            json, golden,
            "the Chrome export drifted from the golden file"
        );
    }

    /// Every kind at the limits of its packed fields comes back from the
    /// ring as recorded, and the ring keeps 16 bytes per entry. CI runs
    /// this without debug assertions.
    #[test]
    fn packed_entries_round_trip_every_kind_at_its_limits() {
        use regnet_topology::{HostId, LinkId, SwitchId};
        use BlockCause::*;
        use EventKind::*;
        assert_eq!(std::mem::size_of::<Entry>(), 16);
        let (host, sw, link) = (MAX_IDS as u32 - 1, MAX_IDS as u32 - 1, MAX_LINKS as u32 - 1);
        let mut kinds = vec![
            Inject { src: 0, dst: host },
            Inject { src: host, dst: 0 },
            Drop,
        ];
        for (sw, a, b) in [(0, 0, 255), (sw, 255, 0), (sw, 255, 255)] {
            kinds.extend([
                SwitchArrival { sw, port: a },
                Route {
                    sw,
                    port: a,
                    out: b,
                },
                HeadAdvance {
                    sw,
                    in_port: a,
                    out: b,
                },
            ]);
            for cause in [OutputBusy, FlowStopped, Arbitration] {
                kinds.push(Block { sw, out: a, cause });
            }
        }
        for h in [0, host] {
            kinds.extend([
                ItbEject {
                    host: h,
                    overflow: false,
                },
                ItbEject {
                    host: h,
                    overflow: true,
                },
                Reinject { host: h },
                Deliver { dst: h },
                Retransmit { src: h },
            ]);
        }
        for target in [
            FaultTarget::Link(LinkId(0)),
            FaultTarget::Link(LinkId(link)),
            FaultTarget::Switch(SwitchId(0)),
            FaultTarget::Switch(SwitchId(sw)),
            FaultTarget::Host(HostId(0)),
            FaultTarget::Host(HostId(host)),
        ] {
            kinds.extend([FaultFire { target }, FaultRepair { target }]);
        }
        let top = (1u64 << 60) - 1;
        let events: Vec<Event> = kinds
            .into_iter()
            .enumerate()
            .flat_map(|(i, kind)| {
                let i = i as u64;
                [(0, 0), (top - i, NO_PACKET), (i, i as u32)].map(|(cycle, pid)| Event {
                    cycle,
                    pid,
                    kind,
                })
            })
            .collect();
        let mut j = EventJournal::new(EventOptions {
            capacity: events.len(),
        });
        for e in &events {
            j.record(e.cycle, e.pid, e.kind);
        }
        assert_eq!(j.events().collect::<Vec<_>>(), events);
        assert_eq!(j.journey(NO_PACKET).len(), events.len() / 3);
    }

    #[test]
    #[should_panic(expected = "cycles below 2^60")]
    fn record_refuses_a_cycle_the_tag_would_cut() {
        let mut j = EventJournal::new(EventOptions::default());
        j.record((1 << 60) - 1, 0, EventKind::Drop);
        j.record(1 << 60, 0, EventKind::Drop);
    }

    #[test]
    fn describe_is_readable() {
        let e = Event {
            cycle: 100,
            pid: 7,
            kind: EventKind::Block {
                sw: 3,
                out: 1,
                cause: BlockCause::OutputBusy,
            },
        };
        let s = e.describe();
        assert!(s.contains("BLOCKED at S3"), "{s}");
        assert!(s.contains("625.0 ns"), "{s}");
    }
}
