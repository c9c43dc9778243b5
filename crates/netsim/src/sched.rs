//! The cycle loop and its oracle.
//!
//! The simulator's four hot phases (control arrivals, data arrivals,
//! switches, NIC transmission) are driven by one engine, with a second
//! loop kept as its executable specification:
//!
//! * [`Scheduler::ActiveSet`] — the engine. The channel table
//!   (`channel.rs`) is indexed by arrival cycle, so the arrival phases walk
//!   the set occupancy bits of the current row; switches/NICs live in
//!   dedup'd active lists that members leave only when provably quiescent
//!   (or, for a NIC, asleep under STOP until GO).
//!   Per cycle the loop touches only components with work, and whenever
//!   nothing is in flight and both lists are empty the run loop jumps the
//!   clock to the next cycle at which *anything* can happen (wake heap,
//!   generation clocks, fault plan, reconfiguration deadline, trace
//!   sampling, watchdog boundary; see `sim/skip.rs`).
//! * `Scheduler::Scan` — the oracle: visit every channel, switch and NIC on
//!   every cycle, never skip (its loops sit beside the engine's calls in
//!   `Simulator::kernel_phases`, `sim/mod.rs`). Trivially correct,
//!   O(network size) per cycle regardless of load; nothing but the
//!   equivalence suites selects it.
//!
//! The two are bit-identical: same `RunStats`, counters, event journal and
//! trace digest. The scan loop's observable ordering (channel, switch and
//! NIC index order within each phase) is reproduced by walking each row's
//! occupancy bits in ascending order and sorting each active list before
//! visiting it, so the active set is a strict subsequence of the scan
//! order. The `scheduler_equivalence` integration test diffs them
//! end-to-end, and CI runs the determinism suite once more under
//! `REGNET_SCHEDULER=scan`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which cycle loop [`crate::Simulator`] runs: the engine every simulator
/// starts on, or the oracle the equivalence suites diff it against. See
/// the module docs for the contract between the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Full scan of every component every cycle, no time skipping: the
    /// reference implementation. For tests; nothing else should select it.
    #[doc(hidden)]
    Scan,
    /// Occupancy-bit arrivals + dedup'd active lists, with provably idle
    /// spans jumped in O(1) (the engine; bit-identical to `Scan`).
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

/// Run-time state of the active-set scheduler: who the switch and NIC
/// phases visit. The channels need no such state: the channel table's
/// occupancy bits already say which of them have an arrival (`channel.rs`).
///
/// Invariants:
/// * `sw_active` holds exactly the switch ids whose `sw_is_active` flag is
///   set; a switch is listed whenever any of its input buffers holds a
///   packet (a switch with empty input queues provably has idle heads and
///   no crossbar connections, so visiting it is a no-op).
/// * `nic_active`/`nic_is_active` likewise; a NIC is listed whenever its
///   transmit phase has work *now* (in-flight tx, queued local packet,
///   ready re-injection or retransmission), except while STOP holds its
///   worm in progress: then every visit is a no-op, and both events that
///   end the hold list it again (the GO's arrival, a purge of the worm).
///   Heap entries that become ready in the future are covered by
///   `nic_wake`, which gets an entry at every heap insertion.
///
/// `Simulator::check_invariants` checks both against the component state.
#[derive(Debug)]
pub(crate) struct ActiveSched {
    sw_active: Vec<u32>,
    sw_is_active: Vec<bool>,
    nic_active: Vec<u32>,
    nic_is_active: Vec<bool>,
    /// `(ready_cycle, host)` wake-ups for NICs whose re-injection or
    /// retransmission becomes eligible in the future.
    nic_wake: BinaryHeap<Reverse<(u64, u32)>>,
}

impl ActiveSched {
    pub(crate) fn new(n_switches: usize, n_nics: usize) -> ActiveSched {
        ActiveSched {
            sw_active: Vec::new(),
            sw_is_active: vec![false; n_switches],
            nic_active: Vec::new(),
            nic_is_active: vec![false; n_nics],
            nic_wake: BinaryHeap::new(),
        }
    }

    #[inline]
    pub(crate) fn activate_switch(&mut self, sw: u32) {
        if !self.sw_is_active[sw as usize] {
            self.sw_is_active[sw as usize] = true;
            self.sw_active.push(sw);
        }
    }

    #[inline]
    pub(crate) fn activate_nic(&mut self, h: u32) {
        if !self.nic_is_active[h as usize] {
            self.nic_is_active[h as usize] = true;
            self.nic_active.push(h);
        }
    }

    /// Register a future wake-up for `h` (a heap entry becoming ready at
    /// `ready`). Stale wake-ups (the packet was purged meanwhile) cost one
    /// no-op visit.
    #[inline]
    pub(crate) fn wake_nic_at(&mut self, ready: u64, h: u32) {
        self.nic_wake.push(Reverse((ready, h)));
    }

    /// Move every wake-up due at or before `cycle` into the active list.
    pub(crate) fn drain_wakes(&mut self, cycle: u64) {
        while let Some(&Reverse((ready, h))) = self.nic_wake.peek() {
            if ready > cycle {
                break;
            }
            self.nic_wake.pop();
            self.activate_nic(h);
        }
    }

    /// Take the switch active list for this cycle's visit; members the
    /// caller retires must be flagged via `retire_switch`, and the
    /// still-active remainder merged back with `merge_switches`.
    pub(crate) fn take_active_switches(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.sw_active)
    }

    pub(crate) fn retire_switch(&mut self, sw: u32) {
        self.sw_is_active[sw as usize] = false;
    }

    pub(crate) fn merge_switches(&mut self, mut kept: Vec<u32>) {
        self.sw_active.append(&mut kept);
    }

    pub(crate) fn take_active_nics(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.nic_active)
    }

    pub(crate) fn retire_nic(&mut self, h: u32) {
        self.nic_is_active[h as usize] = false;
    }

    pub(crate) fn merge_nics(&mut self, mut kept: Vec<u32>) {
        self.nic_active.append(&mut kept);
    }

    /// Test oracle: each active list holds exactly the ids its flags set,
    /// once each. Returns the flags, `(switches, nics)`.
    pub(crate) fn check_invariants(&self) -> (&[bool], &[bool]) {
        for (list, flags) in [
            (&self.sw_active, &self.sw_is_active),
            (&self.nic_active, &self.nic_is_active),
        ] {
            let mut ids = list.clone();
            ids.sort_unstable();
            let flagged = (0..flags.len() as u32).filter(|&i| flags[i as usize]);
            assert!(
                ids.into_iter().eq(flagged),
                "active list and flags disagree"
            );
        }
        (&self.sw_is_active, &self.nic_is_active)
    }

    // ---- Quiescence accessors for the time skip (`sim/skip.rs`).

    /// No switch or NIC is in an active list. O(1).
    pub(crate) fn active_lists_empty(&self) -> bool {
        self.sw_active.is_empty() && self.nic_active.is_empty()
    }

    /// Earliest pending NIC wake-up, if any. Stale entries (the packet was
    /// purged meanwhile) still count: waking to a no-op visit is harmless,
    /// and treating the peek as a time bound keeps the skip target
    /// conservative.
    pub(crate) fn next_wake(&self) -> Option<u64> {
        self.nic_wake.peek().map(|&Reverse((ready, _))| ready)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::tests::{drain_ctl, drain_data, table};
    use crate::channel::{CTL_GO, CTL_STOP};

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
        let list = s.take_active_switches();
        assert_eq!(list, vec![2, 0], "dedup'd, caller sorts");
        s.retire_switch(0);
        s.merge_switches(vec![2]);
        s.activate_switch(0); // re-activation after retire works
        assert_eq!(s.take_active_switches(), vec![2, 0]);
    }

    #[test]
    fn nic_wakes_fire_in_order() {
        let mut s = ActiveSched::new(1, 4);
        s.wake_nic_at(20, 1);
        s.wake_nic_at(10, 3);
        s.wake_nic_at(15, 1);
        s.drain_wakes(9);
        assert!(s.take_active_nics().is_empty());
        s.drain_wakes(15);
        assert_eq!(s.take_active_nics(), vec![3, 1]);
        s.retire_nic(3);
        s.retire_nic(1);
        s.drain_wakes(100);
        assert_eq!(s.take_active_nics(), vec![1], "cycle-20 wake still fires");
    }

    /// Duplicate `(ready, host)` pairs in the future heap must collapse to
    /// one activation: the active list dedups by membership bit, so a host
    /// woken twice for the same cycle appears exactly once.
    #[test]
    fn drain_wakes_duplicate_entries_collapse() {
        let mut s = ActiveSched::new(1, 4);
        s.wake_nic_at(12, 2);
        s.wake_nic_at(12, 2);
        s.wake_nic_at(12, 2);
        s.wake_nic_at(12, 0);
        s.drain_wakes(12);
        // Ties on `ready` pop in host order: (12, 0) before (12, 2).
        assert_eq!(s.take_active_nics(), vec![0, 2]);
        // The heap is fully drained: nothing left to fire later.
        assert_eq!(s.next_wake(), None);
        s.drain_wakes(1_000);
        assert!(s.take_active_nics().is_empty());
    }

    /// A stale wake-up — one scheduled for a packet that has since been
    /// purged — still fires, putting the NIC on the active list; the NIC
    /// phase then finds nothing to do and retires it. The scheduler layer
    /// must tolerate this (wakes are hints, not obligations) and the
    /// retire must not cancel *future* wakes for the same host.
    #[test]
    fn stale_wake_after_purge_is_harmless() {
        let mut s = ActiveSched::new(1, 4);
        s.wake_nic_at(10, 1); // retransmit timer, packet later purged
        s.wake_nic_at(30, 1); // unrelated later wake for the same host
        s.drain_wakes(10);
        assert_eq!(s.take_active_nics(), vec![1]);
        s.retire_nic(1); // NIC phase found nothing to do
        assert_eq!(s.next_wake(), Some(30), "future wake survives the retire");
        s.drain_wakes(30);
        assert_eq!(s.take_active_nics(), vec![1]);
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

    /// The O(1) quiescence accessors used by the time skip: the table's
    /// count of set bits tracks sends and drains exactly.
    #[test]
    fn quiescence_accessors_track_raw_entries() {
        let (mut c, mut s) = (table(8, 4), ActiveSched::new(2, 2));
        assert_eq!(c.in_flight(), 0);
        assert!(s.active_lists_empty());
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
        assert!(!s.active_lists_empty());
        s.retire_nic(1);
        // Retire clears membership but the id stays queued until taken.
        s.take_active_nics();
        assert!(s.active_lists_empty());
        s.wake_nic_at(40, 0);
        s.wake_nic_at(25, 1);
        assert_eq!(s.next_wake(), Some(25));
    }
}
