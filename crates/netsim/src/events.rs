//! Structured event journal: what happened to *which packet*, *where*,
//! *when*.
//!
//! The trace observers ([`trace`](crate::trace)) aggregate; the journal
//! records. Each entry is a typed [`Event`] — injection, per-switch
//! arrival/route/head-advance, block with cause, ITB eject/re-inject,
//! delivery, drop, fault fire/repair — stamped with the cycle and the
//! packet id. Entries live in a bounded ring: when the ring fills, the
//! oldest entries are evicted (and counted), so a journal on a long run
//! degrades to "the most recent N events" instead of unbounded memory.
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

use std::collections::VecDeque;

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
    /// One human-readable line, used by `diagnose` and the
    /// `packet_forensics` example.
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
}

/// Journal configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventOptions {
    /// Ring capacity in events; the oldest entries are evicted beyond it.
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
    ring: VecDeque<Event>,
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
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(Event { cycle, pid, kind });
        self.recorded += 1;
    }

    /// Events currently in the ring, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
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
    pub fn journey(&self, pid: u32) -> Vec<&Event> {
        self.ring.iter().filter(|e| e.pid == pid).collect()
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
            let blocked = matches!(e.kind, EventKind::Block { .. });
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
    /// spans). Every `Inject` opens a journey span and a flow arrow; each
    /// `ItbEject` adds a flow step (the ITB hops the paper's schemes
    /// introduce); `Deliver`/`Drop` close both.
    pub fn to_chrome(&self) -> ChromeTrace {
        const PID_SWITCHES: u32 = 1;
        const PID_NICS: u32 = 2;
        const PID_JOURNEYS: u32 = 3;
        let us = |cycle: u64| cycle as f64 * CYCLE_NS / 1000.0;

        let mut t = ChromeTrace::new();
        t.process_name(PID_SWITCHES, "switches");
        t.process_name(PID_NICS, "nics");
        t.process_name(PID_JOURNEYS, "packet journeys");
        // Name every track that appears, in first-appearance order.
        let mut named_sw: Vec<u32> = Vec::new();
        let mut named_nic: Vec<u32> = Vec::new();
        for e in &self.ring {
            match e.kind {
                EventKind::SwitchArrival { sw, .. }
                | EventKind::Route { sw, .. }
                | EventKind::Block { sw, .. }
                | EventKind::HeadAdvance { sw, .. }
                    if !named_sw.contains(&sw) =>
                {
                    named_sw.push(sw);
                    t.thread_name(PID_SWITCHES, sw, &format!("S{sw}"));
                }
                EventKind::Inject { src: h, .. }
                | EventKind::ItbEject { host: h, .. }
                | EventKind::Reinject { host: h }
                | EventKind::Deliver { dst: h }
                | EventKind::Retransmit { src: h }
                    if !named_nic.contains(&h) =>
                {
                    named_nic.push(h);
                    t.thread_name(PID_NICS, h, &format!("host {h}"));
                }
                _ => {}
            }
        }

        // Journey correlation: pids are reused, so each Inject opens a
        // fresh journey id and later events of that pid attach to it.
        let mut open: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        let mut next_journey: u64 = 1;
        for e in &self.ring {
            let ts = us(e.cycle);
            match e.kind {
                EventKind::Inject { src, dst } => {
                    let id = *open.entry(e.pid).or_insert_with(|| {
                        let id = next_journey;
                        next_journey += 1;
                        id
                    });
                    t.async_begin(
                        &format!("pkt {src}->{dst}"),
                        "journey",
                        id,
                        ts,
                        PID_JOURNEYS,
                        vec![
                            ("src", ChromeArg::Int(src as u64)),
                            ("dst", ChromeArg::Int(dst as u64)),
                            ("pid", ChromeArg::Int(e.pid as u64)),
                        ],
                    );
                    t.flow_start("journey", "journey", id, ts, PID_NICS, src);
                    t.instant(
                        "inject",
                        "nic",
                        ts,
                        PID_NICS,
                        src,
                        vec![("dst", ChromeArg::Int(dst as u64))],
                    );
                }
                EventKind::SwitchArrival { sw, port } => {
                    t.instant(
                        "arrival",
                        "switch",
                        ts,
                        PID_SWITCHES,
                        sw,
                        vec![
                            ("port", ChromeArg::Int(port as u64)),
                            ("pid", ChromeArg::Int(e.pid as u64)),
                        ],
                    );
                }
                EventKind::Route { sw, port, out } => {
                    t.instant(
                        "route",
                        "switch",
                        ts,
                        PID_SWITCHES,
                        sw,
                        vec![
                            ("in", ChromeArg::Int(port as u64)),
                            ("out", ChromeArg::Int(out as u64)),
                            ("pid", ChromeArg::Int(e.pid as u64)),
                        ],
                    );
                }
                EventKind::Block { sw, out, cause } => {
                    t.instant(
                        "block",
                        "switch",
                        ts,
                        PID_SWITCHES,
                        sw,
                        vec![
                            ("out", ChromeArg::Int(out as u64)),
                            ("cause", ChromeArg::Str(format!("{cause:?}"))),
                            ("pid", ChromeArg::Int(e.pid as u64)),
                        ],
                    );
                }
                EventKind::HeadAdvance { sw, in_port, out } => {
                    t.instant(
                        "grant",
                        "switch",
                        ts,
                        PID_SWITCHES,
                        sw,
                        vec![
                            ("in", ChromeArg::Int(in_port as u64)),
                            ("out", ChromeArg::Int(out as u64)),
                            ("pid", ChromeArg::Int(e.pid as u64)),
                        ],
                    );
                }
                EventKind::ItbEject { host, overflow } => {
                    if let Some(&id) = open.get(&e.pid) {
                        t.flow_step("journey", "journey", id, ts, PID_NICS, host);
                    }
                    t.instant(
                        "itb_eject",
                        "nic",
                        ts,
                        PID_NICS,
                        host,
                        vec![
                            ("overflow", ChromeArg::Str(overflow.to_string())),
                            ("pid", ChromeArg::Int(e.pid as u64)),
                        ],
                    );
                }
                EventKind::Reinject { host } => {
                    t.instant(
                        "reinject",
                        "nic",
                        ts,
                        PID_NICS,
                        host,
                        vec![("pid", ChromeArg::Int(e.pid as u64))],
                    );
                }
                EventKind::Deliver { dst } => {
                    if let Some(id) = open.remove(&e.pid) {
                        t.flow_end("journey", "journey", id, ts, PID_NICS, dst);
                        t.async_end("pkt", "journey", id, ts, PID_JOURNEYS);
                    }
                    t.instant(
                        "deliver",
                        "nic",
                        ts,
                        PID_NICS,
                        dst,
                        vec![("pid", ChromeArg::Int(e.pid as u64))],
                    );
                }
                EventKind::Drop => {
                    if let Some(id) = open.remove(&e.pid) {
                        t.async_end("pkt", "journey", id, ts, PID_JOURNEYS);
                    }
                }
                EventKind::Retransmit { src } => {
                    t.instant(
                        "retransmit",
                        "nic",
                        ts,
                        PID_NICS,
                        src,
                        vec![("pid", ChromeArg::Int(e.pid as u64))],
                    );
                }
                EventKind::FaultFire { target } => {
                    t.instant(
                        "fault",
                        "fault",
                        ts,
                        PID_JOURNEYS,
                        0,
                        vec![("target", ChromeArg::Str(format!("{target:?}")))],
                    );
                }
                EventKind::FaultRepair { target } => {
                    t.instant(
                        "repair",
                        "fault",
                        ts,
                        PID_JOURNEYS,
                        0,
                        vec![("target", ChromeArg::Str(format!("{target:?}")))],
                    );
                }
            }
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
        // Pid 5 is reused by a later packet: a fresh journey id.
        j.record(50, 5, EventKind::Inject { src: 2, dst: 0 });
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
        assert_eq!(phase("t"), 1, "one ITB hop");
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
