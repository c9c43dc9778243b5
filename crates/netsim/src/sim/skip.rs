//! Time skipping — the first branch of the default cycle loop.
//!
//! The active-set engine visits only channels, switches and NICs with
//! work, but ticking every cycle would still execute seven empty phases
//! per idle cycle: at very low load, or while a fault-recovery stall
//! empties the network, that is millions of them. So `run` and
//! `run_until_drained` take the classic discrete-event shortcut over the
//! engine's own wake state: whenever no switch or NIC is listed and no
//! flit or control symbol lands in the current cycle's row — runs and
//! cables in flight or not — they compute the earliest future cycle that
//! can possibly have work and jump the clock straight to it. The `Scan`
//! oracle has no wake state and never skips.
//!
//! # Why a skip is effect-free
//!
//! Such a cycle executes seven phases that touch nothing: the
//! control/arrival phases walk empty rows (the rows between now and the
//! next arrival, source 7 below, hold nothing), the switch/NIC phases walk
//! empty bitsets, and calendar, generation, fault and observer work only
//! happens at cycles this module treats as *time sources* (below). A flit
//! or symbol on a cable is written into the row of its arrival cycle when
//! sent, so it waits there untouched until that cycle. A steady run moves
//! one flit per cycle until its sender's next event, a calendar entry, and
//! what it moves is counted into the component state only when read
//! (`Simulator::settle`), stepped or not. Jumping over such cycles
//! therefore leaves every piece of simulator state — packet arena, RNGs,
//! counters, digests, journal — exactly as the tick-every-cycle loop
//! would, with two deliberate compensations:
//!
//! * `reconfig_stall_cycles` ticks once per cycle while a
//!   reconfiguration is pending, so a jump of `t - c` cycles adds
//!   `t - c` to it (the jump target is clamped to the reconfiguration
//!   completion, so the whole span is pending time).
//! * `gen_stall_cycles` needs no compensation: a stalled host is due
//!   again the next cycle, so `gen_due` blocks skipping entirely. Its NIC
//!   is busy too: listed, or asleep under STOP, which implies a packet
//!   resident at its switch (an active switch) or a GO in flight, whose
//!   arrival bounds the jump.
//!
//! # Time sources
//!
//! The jump target is the minimum over every mechanism that can create
//! work at a future cycle:
//!
//! 1. the wake-up calendar (a run's next event, a routing delay, a
//!    re-injection or retransmission becoming eligible) —
//!    [`ActiveSched::next_wake`](crate::sched::ActiveSched::next_wake);
//! 2. per-host open-loop generation (`ceil(next_gen)`) and the head of
//!    the closed-loop `scheduled` queue — excluding hosts currently
//!    failed/unreachable, whose `host_ok` can only flip back at a fault
//!    or reconfiguration cycle, which is itself a time source.
//!    `Simulator::gen_due`, the top of the generation phase's heap of due
//!    hosts, is at most their minimum; this module reads it and scans no
//!    host;
//! 3. the next fault-plan event and the pending reconfiguration
//!    completion;
//! 4. the next telemetry sampling tick (utilization / occupancy /
//!    goodput flush) — the flush must *execute* on schedule so the
//!    sample series stays bit-identical, even when every delta is zero;
//! 5. the watchdog boundary `last_activity + watchdog + 1`, only while
//!    packets are live and no run streams (the watchdog cannot fire
//!    otherwise), so a stall inside a skipped region still panics at the
//!    same cycle;
//! 6. the caller's run limit (`run(cycles)` boundaries are exact, so
//!    `begin`/`end_measurement` land on identical cycles);
//! 7. the next arrival from a slot: the first cycle whose row of the
//!    channel table holds a data flit or a control symbol
//!    ([`Channels::next_arrival`](crate::channel::Channels::next_arrival)).
//!    A flit sent at `c` lands at `c + delay`, so a worm's crossing of a
//!    cable outside a run costs its two ends' steps, not `delay` of them.
//!
//! Skipping happens at the top of `run`/`run_until_drained` — never
//! inside `step` — and the skip telemetry (`skipped_cycles`, the
//! optional skip log) lives outside `RunStats` and the counter registry,
//! so result equality with the oracle is preserved by construction.
//! `tests/proptest_timeskip.rs` checks every jump against a
//! tick-every-cycle `Scan` twin (its raw-state predicate
//! [`Simulator::cycle_has_pending_work`], or its journal, counters and
//! state, field for field, at both ends where work was deferred across
//! the jump: a run streamed, a switch waited or a slot was full), and the
//! shared harness in `tests/common/` enforces bit-identical results on
//! every paper topology.

use super::Simulator;

impl Simulator<'_> {
    /// Total cycles jumped over so far (always 0 under the `Scan` oracle).
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Record every jump for inspection via
    /// [`skip_log`](Simulator::skip_log). Test instrumentation.
    pub fn enable_skip_log(&mut self) {
        self.skip_log = Some(Vec::new());
    }

    /// The jumps recorded since [`enable_skip_log`](Simulator::enable_skip_log):
    /// `(from, to, busy)` means cycles `from..to` were skipped, `busy` that
    /// work was deferred across them: a run streamed, a switch held a
    /// packet (say in its routing delay), or a flit or control symbol was
    /// in flight on a cable, to land at `to` or later.
    pub fn skip_log(&self) -> &[(u64, u64, bool)] {
        self.skip_log.as_deref().unwrap_or(&[])
    }

    /// Flits and control symbols in the slots of the channel table; a
    /// run's flits hold none. A jump that starts with one in a slot is
    /// logged busy ([`skip_log`](Simulator::skip_log)). Test
    /// instrumentation.
    #[doc(hidden)]
    pub fn slots_full(&self) -> usize {
        self.channels.in_flight()
    }

    /// Steady runs streaming plus switches holding a packet: the work
    /// besides full slots that marks a jump busy
    /// ([`skip_log`](Simulator::skip_log)). A jump that starts with a slot
    /// full and none of these defers only the slot. Test instrumentation.
    #[doc(hidden)]
    pub fn runs_and_held_switches(&self) -> usize {
        let held = self.switches.iter().filter(|sw| !sw.is_quiescent());
        self.channels.streams() + held.count()
    }

    /// If nothing is listed and nothing lands at the current cycle, jump
    /// the clock to the earliest future cycle that can have work, clamped
    /// to `limit`. No-op unless the target lies ahead.
    pub(crate) fn try_time_skip(&mut self, limit: u64) {
        let Some(sc) = self.sched.as_deref_mut() else {
            return;
        };
        // O(1) gate: a flit or control symbol landing now is in the
        // current row, and any switch or NIC with work now that no run
        // covers is listed. The row goes first: on a saturated network
        // most cycles fail there, and it costs a summary word per lane.
        // Wake-ups already due but not yet drained are covered by
        // `next_wake` clamping the target to "now".
        let c = self.cycle;
        let slot = self.channels.next_arrival(c);
        if slot <= c || !sc.nothing_listed() {
            return;
        }
        let wake = sc.next_wake().unwrap_or(u64::MAX);
        let t = wake.min(slot).min(self.next_cycle_with_work()).min(limit);
        if t <= c {
            return;
        }
        if matches!(self.faults.as_deref(), Some(f) if f.reconfig_due.is_some()) {
            // The scan loop ticks the stall counter once per cycle while
            // a reconfiguration is pending; `t` is clamped to the
            // completion cycle, so the whole span counts.
            self.rel.reconfig_stall_cycles += t - c;
        }
        self.skipped_cycles += t - c;
        if let Some(p) = self.profiler.as_deref_mut() {
            (p.skipped_cycles, p.skip_jumps) = (p.skipped_cycles + t - c, p.skip_jumps + 1);
        }
        if let Some(log) = &mut self.skip_log {
            let held = self.switches.iter().any(|sw| !sw.is_quiescent());
            let moving = self.channels.streams() > 0 || self.channels.in_flight() > 0;
            log.push((c, t, held || moving));
        }
        self.cycle = t;
    }

    /// The earliest cycle at which a time source other than the calendar
    /// can create work; `u64::MAX` for none (callers clamp to a limit).
    fn next_cycle_with_work(&self) -> u64 {
        // Generation and scheduled messages: the top of the generation
        // phase's heap. It can be early, which only shortens the jump.
        let mut t = self.gen_due();
        if let Some(f) = self.faults.as_deref() {
            if let Some(ev) = f.events.get(f.next_event) {
                t = t.min(ev.cycle);
            }
            if let Some(due) = f.reconfig_due {
                t = t.min(due);
            }
        }
        if let Some(tr) = self.trace.as_deref() {
            // A flush guarded by `cycle + 1 >= next` executes during
            // cycle `next - 1`.
            t = t.min(tr.next_tick().saturating_sub(1));
        }
        if self.arena.live() > 0 && self.channels.streams() == 0 {
            // First cycle the watchdog can trip; quiescence with live
            // packets is exactly the state it exists to catch, so the
            // panic must land on the same cycle as under the oracle. None
            // trips while a run sends (up to a calendar entry), and with
            // no run left `last_activity` is settled.
            t = t.min(self.last_activity + self.cfg.watchdog_cycles + 1);
        }
        t
    }

    /// Does the *current* cycle have pending work? A raw-state scan,
    /// deliberately independent of the active-set bookkeeping, used by
    /// `tests/proptest_timeskip.rs` to cross-check the quiescence
    /// predicate on a tick-every-cycle twin: no cycle inside a span
    /// skipped with no work deferred (the skip log's `busy`) may satisfy
    /// this. A run's flits, a flit or symbol in flight in a slot and a
    /// switch's routing delay count as work: each is work deferred to a
    /// later cycle, a time source of the skip.
    ///
    /// "Work" means an effect observable in results: flits or control
    /// symbols in flight, busy switches, NICs with something to send,
    /// generation or scheduled messages due, a fault event or completed
    /// reconfiguration due, a telemetry flush due, or a watchdog trip.
    /// A NIC whose worm STOP holds counts as work although the engine lets
    /// it sleep: STOP implies a packet resident at its switch or a GO in
    /// flight, either of which marks a skip over it busy.
    /// A NIC frozen by a pending reconfiguration (`Nic::frozen`) is
    /// excluded, as the stall tick is: its visit is a no-op until the
    /// tables land, and the completion cycle is itself a time source and
    /// counts as work below, so skipping up to it loses nothing.
    /// The per-cycle `reconfig_stall_cycles` tick of a *pending*
    /// reconfiguration is excluded — the skip path compensates it
    /// exactly. A partially reassembled `rx` worm is also excluded: its
    /// remaining flits are in flight or at an eligible sender, both
    /// already covered.
    pub fn cycle_has_pending_work(&self) -> bool {
        let c = self.cycle;
        if self.channels.any_slot_full() {
            return true;
        }
        if self.switches.iter().any(|sw| !sw.is_quiescent()) {
            return true;
        }
        let faults = self.faults.as_deref();
        for (h, nic) in self.nics.iter().enumerate() {
            if !nic.quiescent_for_tx(c) && !nic.frozen(faults) {
                return true;
            }
            let host_ok = faults.is_none_or(|f| f.host_ok[h]);
            if !host_ok {
                continue;
            }
            if nic.scheduled.front().is_some_and(|&(at, _)| at <= c) {
                return true;
            }
            if nic.next_gen != f64::MAX && nic.next_gen <= c as f64 {
                return true;
            }
        }
        if let Some(f) = self.faults.as_deref() {
            if f.events.get(f.next_event).is_some_and(|ev| ev.cycle <= c) {
                return true;
            }
            if f.reconfig_due.is_some_and(|due| due <= c) {
                return true;
            }
        }
        if let Some(tr) = self.trace.as_deref() {
            if c + 1 >= tr.next_tick() {
                return true;
            }
        }
        if self.arena.live() > 0
            && c - self.last_activity > self.cfg.watchdog_cycles
            && self.nics.iter().all(|n| n.tx.is_none() || n.stopped)
        {
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{build_ring4, small_cfg};
    use super::Simulator;
    use crate::sched::Scheduler;
    use regnet_core::{RouteDb, RouteDbConfig, RoutingScheme};
    use regnet_topology::HostId;
    use regnet_traffic::{Pattern, PatternSpec};

    /// One worm on an idle ring: its header crosses each cable with
    /// nothing listed, the NIC or the switch behind it streaming the rest
    /// as a run. Every jump that starts with a flit or a stop/go symbol in
    /// a slot is logged busy and ends no later than that arrival, and some
    /// end exactly there. The run drains on the scan oracle's cycle, with
    /// its results and state.
    #[test]
    fn a_worm_crossing_a_cable_with_nothing_listed_is_jumped() {
        let topo = build_ring4();
        let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let scripted = |scheduler: Scheduler| {
            let mut sim = Simulator::new(&topo, &db, &pattern, small_cfg(), 1e-9, 1);
            sim.set_scheduler(scheduler);
            sim.enable_skip_log();
            sim.schedule_message(HostId(0), HostId(5), 100);
            sim.begin_measurement();
            sim
        };
        let mut scan = scripted(Scheduler::Scan);
        let drained = scan.run_until_drained(100_000).expect("drains");
        let mut engine = scripted(Scheduler::default());
        assert_eq!(engine.run_until_drained(100_000), Some(drained));
        assert!(engine.same_state(&mut scan));
        assert_eq!(
            engine.end_measurement(drained),
            scan.end_measurement(drained)
        );
        let (mut over_slots, mut to_arrival) = (0, 0);
        for &(from, to, busy) in engine.skip_log() {
            let mut sim = scripted(Scheduler::default());
            sim.run(from);
            if sim.slots_full() > 0 {
                let arrival = sim.channels.next_arrival(from);
                assert!(busy, "({from}, {to}) is not logged busy");
                assert!(
                    to <= arrival,
                    "({from}, {to}) jumps an arrival at {arrival}"
                );
                over_slots += 1;
                to_arrival += usize::from(to == arrival);
            }
        }
        assert!(
            to_arrival > 0,
            "{over_slots} jumps over slots, none to the arrival"
        );
    }
}
