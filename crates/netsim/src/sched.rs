//! The cycle loop and its oracle.
//!
//! The simulator's four hot phases (control arrivals, data arrivals,
//! switches, NIC transmission) are driven by one engine, with a second
//! loop kept as its executable specification:
//!
//! * [`Scheduler::ActiveSet`] — the engine. The channel table
//!   (`channel.rs`) is indexed by arrival cycle, so the arrival phases walk
//!   the set occupancy bits of the current row; switches and NICs are
//!   listed by one bit each, which a component loses when provably
//!   quiescent (or, for a NIC, asleep: held by STOP until GO, or frozen
//!   by a pending reconfiguration until the new tables land), or when all
//!   its work is steady runs: a connection streaming one flit per cycle is
//!   deferred until its next event (`kernel.rs`, "Steady runs of the
//!   engine"). A component waiting for a cycle it can foresee (a run's
//!   next event, a routing delay, a timer) has an entry in one wake-up
//!   calendar, which lists it then. Whenever no slot of the channel table
//!   is full and no bit is set, runs or not, the run loop jumps the clock
//!   to the next cycle at which *anything* can happen (the calendar,
//!   generation, faults, trace sampling, the watchdog; `sim/skip.rs`).
//! * `Scheduler::Scan` — the oracle: visit every channel, switch and NIC on
//!   every cycle, per flit, never defer a run and never skip (its loops sit
//!   beside the engine's calls in
//!   `Simulator::kernel_phases`, `sim/mod.rs`). Trivially correct,
//!   O(network size) per cycle regardless of load; nothing but the
//!   equivalence suites selects it.
//!
//! The two are bit-identical: same `RunStats`, counters, event journal and
//! trace digest. The scan loop's observable ordering (channel, switch and
//! NIC index order within each phase) is reproduced by walking every
//! bitset — each row's occupancy bits, the listed switches, the listed
//! NICs — in ascending order, so the active set is a strict subsequence of
//! the scan order. The `scheduler_equivalence` integration test diffs them
//! end-to-end, and CI runs the determinism suite once more under
//! `REGNET_SCHEDULER=scan`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::profiler::EngineCounts;

/// Which cycle loop [`crate::Simulator`] runs: the engine every simulator
/// starts on, or the oracle the equivalence suites diff it against. See
/// the module docs for the contract between the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Full scan of every component every cycle, no time skipping: the
    /// reference implementation. For tests; nothing else should select it.
    #[doc(hidden)]
    Scan,
    /// Occupancy-bit arrivals, one bit per listed switch and NIC, and a
    /// wake-up calendar; spans with no full slot and nothing listed are
    /// jumped, steady runs or not (the engine; bit-identical to `Scan`).
    #[default]
    ActiveSet,
    /// Retired label, not an engine: time skipping used to be a third
    /// engine under this name and is now part of `ActiveSet`. Selecting it
    /// installs `ActiveSet` and [`crate::Simulator::scheduler`] says so.
    /// Kept only because the frozen `benchmark/` package names it; it goes
    /// when the next benchmark PR drops its `event` row.
    #[doc(hidden)]
    EventDriven,
    /// Retired label, not an engine. The shard-parallel cycle engine lost
    /// to `ActiveSet` on every benchmark workload and was deleted.
    /// Selecting it installs `ActiveSet`; it goes with `EventDriven`, when
    /// the next benchmark PR drops its `parallel-2` row.
    #[doc(hidden)]
    Parallel {
        /// Ignored.
        threads: usize,
    },
}

/// One bit per component id, 64 to a word: set iff the component is
/// listed. The phase loops walk it a word at a time (`kernel.rs`).
#[derive(Debug)]
pub(crate) struct Listed(Box<[u64]>);

impl Listed {
    fn new(n: usize) -> Listed {
        Listed(vec![0; n.div_ceil(64)].into())
    }

    #[inline]
    fn insert(&mut self, id: u32) {
        self.0[id as usize / 64] |= 1 << (id % 64);
    }

    pub(crate) fn contains(&self, id: u32) -> bool {
        (self.0[id as usize / 64] >> (id % 64)) & 1 != 0
    }

    #[inline]
    pub(crate) fn words(&self) -> usize {
        self.0.len()
    }

    /// Word `w`: bit `b` is id `64 w + b`.
    #[inline]
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.0[w]
    }

    #[inline]
    pub(crate) fn set_word(&mut self, w: usize, bits: u64) {
        self.0[w] = bits;
    }
}

/// What a wake-up calendar entry lists; a cycle's switches pop first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Wake {
    Switch,
    Nic,
}

/// Run-time state of the active-set scheduler: who the switch and NIC
/// phases visit, and when the waiting ones are listed again. The channels
/// need no such state: the channel table's occupancy bits already say
/// which of them have an arrival (`channel.rs`).
///
/// Invariants:
/// * a switch whose input buffers hold a packet is listed, or has its
///   next event in the calendar (`switch_due`), or waits only for an
///   arrival or a control symbol, each of which lists it (a switch with
///   empty input queues provably has idle heads and no crossbar
///   connections, so visiting it is a no-op);
/// * an unlisted switch's calendar entry is the earliest of the next
///   events stored with its runs (`Stream::due`) and of those of its
///   other ports; a visit works out anew only the events of the ports it
///   touches (`kernel.rs`, "Steady runs of the engine") and keeps the
///   others, so the entry moves, and a push happens, only when that
///   earliest moves. A listed switch's entry is left as it was: it lists
///   the switch at most once more;
/// * a NIC is listed whenever its transmit phase has work *now* (in-flight
///   tx, queued local packet, ready re-injection or retransmission),
///   except while it sleeps, every visit a no-op, until the event that
///   ends the sleep lists it again:
///   - held by STOP with its worm in progress: the GO's arrival or a purge
///     of the worm;
///   - frozen by a pending reconfiguration with no worm in progress
///     (`Nic::frozen`): the new tables landing
///     (`Simulator::complete_reconfiguration`).
///
///   - streaming a steady run: the run's next event (a calendar entry),
///     or a visit for any other reason.
///
///   Heap entries that become ready in the future have a calendar entry.
///
/// No switch visit lists a switch and no NIC visit lists a NIC, which is
/// what lets the phase loops walk a copied word (`kernel.rs`).
/// `Simulator::check_invariants` checks both sets against the components.
#[derive(Debug)]
pub(crate) struct ActiveSched {
    pub(crate) switches: Listed,
    pub(crate) nics: Listed,
    /// `(cycle, kind, id)` wake-ups, earliest first. A switch's entry is
    /// live only while it equals the switch's `switch_due` (a later visit
    /// replaces it); a NIC's is a hint, a stale one costs a no-op visit.
    calendar: BinaryHeap<Reverse<(u64, Wake, u32)>>,
    /// Each switch's live wake-up, `u64::MAX` for none.
    switch_due: Box<[u64]>,
    /// What the engine did so far, counted exactly (the profiler reports
    /// it): the calendar counts itself, the kernel the rest.
    pub(crate) counts: EngineCounts,
}

impl ActiveSched {
    pub(crate) fn new(n_switches: usize, n_nics: usize) -> ActiveSched {
        ActiveSched {
            switches: Listed::new(n_switches),
            nics: Listed::new(n_nics),
            calendar: BinaryHeap::new(),
            switch_due: vec![u64::MAX; n_switches].into(),
            counts: EngineCounts::default(),
        }
    }

    /// Switch `sw`'s next event is at `cycle` (`u64::MAX`: none the switch
    /// can foresee; an arrival or a control symbol lists it). Pushes only
    /// if that moves its live entry.
    #[inline]
    pub(crate) fn wake_switch_at(&mut self, cycle: u64, sw: u32) {
        let due = &mut self.switch_due[sw as usize];
        if *due == cycle {
            return;
        }
        *due = cycle;
        if cycle != u64::MAX {
            self.calendar.push(Reverse((cycle, Wake::Switch, sw)));
            self.counts.calendar_pushes += 1;
        }
    }

    /// Switch `sw`'s live wake-up, if any.
    pub(crate) fn switch_due(&self, sw: u32) -> Option<u64> {
        Some(self.switch_due[sw as usize]).filter(|&c| c != u64::MAX)
    }

    #[inline]
    pub(crate) fn activate_switch(&mut self, sw: u32) {
        self.switches.insert(sw);
    }

    #[inline]
    pub(crate) fn activate_nic(&mut self, h: u32) {
        self.nics.insert(h);
    }

    /// Register a future wake-up for `h`: a heap entry becoming ready at
    /// `ready`, or a run's next event.
    #[inline]
    pub(crate) fn wake_nic_at(&mut self, ready: u64, h: u32) {
        self.calendar.push(Reverse((ready, Wake::Nic, h)));
        self.counts.calendar_pushes += 1;
    }

    /// List every switch and NIC whose live wake-up is due by `cycle`.
    /// Once per cycle, before the switch phase, suffices: every wake-up
    /// the kernel phases register lies in a later cycle.
    #[inline]
    pub(crate) fn drain(&mut self, cycle: u64) {
        while self.next_wake().is_some_and(|at| at <= cycle) {
            match self.calendar.pop().expect("a live wake-up").0 {
                (_, Wake::Switch, sw) => {
                    self.switch_due[sw as usize] = u64::MAX;
                    self.activate_switch(sw);
                }
                (_, Wake::Nic, h) => self.activate_nic(h),
            }
        }
    }

    // ---- Quiescence accessors for the time skip (`sim/skip.rs`).

    /// No switch or NIC is listed: a read of every word (9 on the largest
    /// paper topology).
    pub(crate) fn nothing_listed(&self) -> bool {
        let empty = |l: &Listed| l.0.iter().all(|&w| w == 0);
        empty(&self.switches) && empty(&self.nics)
    }

    /// The earliest live wake-up in the calendar, if any. Replaced switch
    /// entries are dropped first, so that they cannot cut a jump short; a
    /// stale NIC entry still counts, which only shortens the jump.
    #[inline]
    pub(crate) fn next_wake(&mut self) -> Option<u64> {
        while let Some(&Reverse((at, kind, id))) = self.calendar.peek() {
            if kind == Wake::Nic || self.switch_due[id as usize] == at {
                return Some(at);
            }
            self.calendar.pop();
            self.counts.stale_pops += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::tests::{drain_ctl, drain_data, table};
    use crate::channel::{CTL_GO, CTL_STOP};

    /// The listed ids in ascending order, the order the phase loops visit
    /// them.
    fn listed(l: &Listed) -> Vec<u32> {
        (0..64 * l.words() as u32)
            .filter(|&id| l.contains(id))
            .collect()
    }

    /// What a phase loop does to a component it leaves quiescent.
    fn retire(l: &mut Listed, id: u32) {
        l.0[id as usize / 64] &= !(1 << (id % 64));
    }

    /// A row of the channel table comes out in ascending channel order,
    /// each channel once: a same-cycle control supersede is one slot and
    /// one bit, not two entries.
    #[test]
    fn wheel_buckets_sort_and_dedup() {
        let mut c = table(70, 4);
        c.send(c.row(10), 67, 1);
        c.send(c.row(10), 3, 2);
        c.send(c.row(10), 7, 3);
        c.send_ctl(c.row(10), 7, CTL_STOP);
        c.send_ctl(c.row(10), 7, CTL_GO);
        // Cycle 14 is the arrival cycle of everything sent at 10.
        assert_eq!(drain_data(&mut c, 14), [(3, 2), (7, 3), (67, 1)]);
        assert!(drain_data(&mut c, 14).is_empty(), "row drained");
        assert_eq!(drain_ctl(&mut c, 14), [(7, CTL_GO)]);
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn active_lists_dedup_and_retire() {
        let mut s = ActiveSched::new(3, 2);
        s.activate_switch(2);
        s.activate_switch(0);
        s.activate_switch(2);
        assert_eq!(listed(&s.switches), [0, 2], "dedup'd, ascending");
        retire(&mut s.switches, 0);
        assert_eq!(listed(&s.switches), [2]);
        s.activate_switch(0); // re-activation after retire works
        assert_eq!(listed(&s.switches), [0, 2]);
    }

    #[test]
    fn nic_wakes_fire_in_order() {
        let mut s = ActiveSched::new(1, 4);
        s.wake_nic_at(20, 1);
        s.wake_nic_at(10, 3);
        s.wake_nic_at(15, 1);
        s.drain(9);
        assert!(listed(&s.nics).is_empty());
        s.drain(15);
        assert_eq!(listed(&s.nics), [1, 3]);
        retire(&mut s.nics, 3);
        retire(&mut s.nics, 1);
        s.drain(100);
        assert_eq!(listed(&s.nics), [1], "cycle-20 wake still fires");
    }

    /// Duplicate `(ready, host)` pairs in the future heap must collapse to
    /// one activation: a host woken three times for the same cycle is one
    /// bit, visited once.
    #[test]
    fn duplicate_nic_wakes_collapse() {
        let mut s = ActiveSched::new(1, 4);
        s.wake_nic_at(12, 2);
        s.wake_nic_at(12, 2);
        s.wake_nic_at(12, 2);
        s.wake_nic_at(12, 0);
        s.drain(12);
        assert_eq!(listed(&s.nics), [0, 2]);
        // The heap is fully drained: nothing left to fire later.
        assert_eq!(s.next_wake(), None);
        retire(&mut s.nics, 0);
        retire(&mut s.nics, 2);
        s.drain(1_000);
        assert!(listed(&s.nics).is_empty());
    }

    /// A stale wake-up — one scheduled for a packet that has since been
    /// purged — still fires, listing the NIC; the NIC phase then finds
    /// nothing to do and retires it. The scheduler layer must tolerate
    /// this (wakes are hints, not obligations) and the retire must not
    /// cancel *future* wakes for the same host.
    #[test]
    fn stale_wake_after_purge_is_harmless() {
        let mut s = ActiveSched::new(1, 4);
        s.wake_nic_at(10, 1); // retransmit timer, packet later purged
        s.wake_nic_at(30, 1); // unrelated later wake for the same host
        s.drain(10);
        assert_eq!(listed(&s.nics), [1]);
        retire(&mut s.nics, 1); // NIC phase found nothing to do
        assert_eq!(s.next_wake(), Some(30), "future wake survives the retire");
        s.drain(30);
        assert_eq!(listed(&s.nics), [1]);
    }

    /// Switch and NIC wake-ups share the calendar: one drain lists both.
    /// A replaced switch wake-up is dead: it neither lists the switch nor
    /// bounds the next wake-up, and a cancelled one (`u64::MAX`) likewise.
    #[test]
    fn one_calendar_drops_replaced_switch_wakes() {
        let mut s = ActiveSched::new(3, 2);
        s.wake_switch_at(10, 0);
        s.wake_switch_at(30, 0); // a later visit moved it
        s.wake_switch_at(12, 1);
        s.wake_switch_at(u64::MAX, 1); // and this one has none left
        s.wake_switch_at(20, 2);
        s.wake_nic_at(20, 1);
        assert_eq!(s.next_wake(), Some(20), "the replaced tops are gone");
        assert_eq!((s.switch_due(0), s.switch_due(1)), (Some(30), None));
        s.drain(20);
        assert_eq!((listed(&s.switches), listed(&s.nics)), (vec![2], vec![1]));
        assert_eq!(s.switch_due(2), None, "a fired wake-up is spent");
        assert_eq!(s.next_wake(), Some(30));
        s.drain(30);
        assert_eq!(listed(&s.switches), [0, 2]);
        assert_eq!(s.next_wake(), None);
    }

    /// Row wraparound: with delay d, cycles c and c + d share a row. A
    /// symbol sent for the *next* lap must be there when that lap drains
    /// the row, and a drain at cycle c hands over everything in it.
    #[test]
    fn wheel_wraparound_at_slot_boundaries() {
        let mut c = table(9, 3);
        // Row 0 holds cycles 0, 3, 6, ...
        c.send(c.row(0), 5, 1);
        assert_eq!(c.in_flight(), 1);
        assert_eq!(drain_data(&mut c, 3), [(5, 1)]);
        assert_eq!(c.in_flight(), 0);
        // The next lap reuses the row cleanly after a drain.
        c.send(c.row(3), 8, 2);
        c.send(c.row(3), 2, 3);
        assert_eq!(drain_data(&mut c, 6), [(2, 3), (8, 2)]);
        // The last row wraps to cycle delay-1 + k*delay.
        c.send_ctl(c.row(2), 4, CTL_STOP);
        assert_eq!(drain_ctl(&mut c, 5), [(4, CTL_STOP)]);
        c.send_ctl(c.row(5), 1, CTL_GO);
        c.send_ctl(c.row(5), 4, CTL_GO);
        assert_eq!(
            drain_ctl(&mut c, 8),
            [(1, CTL_GO), (4, CTL_GO)],
            "same row, next lap"
        );
        assert_eq!(c.in_flight(), 0);
    }

    /// The quiescence accessors used by the time skip: the table's count
    /// of set bits tracks sends and drains exactly, and a listing lasts
    /// until its retire.
    #[test]
    fn quiescence_accessors_track_raw_entries() {
        let (mut c, mut s) = (table(8, 4), ActiveSched::new(2, 2));
        assert_eq!(c.in_flight(), 0);
        assert!(s.nothing_listed());
        assert_eq!(s.next_wake(), None);
        c.send(c.row(1), 6, 9);
        c.send_ctl(c.row(1), 6, CTL_STOP);
        c.send_ctl(c.row(2), 3, CTL_GO);
        assert_eq!(c.in_flight(), 3);
        assert_eq!(drain_data(&mut c, 5), [(6, 9)]);
        assert_eq!(c.in_flight(), 2, "control symbols still pending");
        assert_eq!(drain_ctl(&mut c, 5), [(6, CTL_STOP)]);
        assert_eq!(c.in_flight(), 1);
        assert_eq!(drain_ctl(&mut c, 6), [(3, CTL_GO)]);
        assert_eq!(c.in_flight(), 0);
        s.activate_nic(1);
        assert!(!s.nothing_listed());
        // A retire clears the bit at once: nothing stays queued.
        retire(&mut s.nics, 1);
        assert!(s.nothing_listed());
        s.wake_nic_at(40, 0);
        s.wake_nic_at(25, 1);
        assert_eq!(s.next_wake(), Some(25));
    }
}
