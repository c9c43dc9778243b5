//! The cycle loop and its oracle.
//!
//! The simulator's four hot phases (control arrivals, data arrivals,
//! switches, NIC transmission) are driven by one engine, with a second
//! loop kept as its executable specification:
//!
//! * [`Scheduler::ActiveSet`] — the engine. Every channel write registers
//!   the channel in a per-cycle timing wheel (the arrival cycle is known at
//!   send time because all channels share one pipeline delay), and
//!   switches/NICs live in dedup'd active lists that members leave only
//!   when provably quiescent. Per cycle the loop touches only components
//!   with work, and whenever both wheels and both lists are empty the run
//!   loop jumps the clock to the next cycle at which *anything* can happen
//!   (wake heap, generation clocks, fault plan, reconfiguration deadline,
//!   trace sampling, watchdog boundary; see `sim/skip.rs`).
//! * `Scheduler::Scan` — the oracle: visit every channel, switch and NIC on
//!   every cycle, never skip (its loops sit beside the engine's calls in
//!   `Simulator::kernel_phases`, `sim/mod.rs`). Trivially correct,
//!   O(network size) per cycle regardless of load; nothing but the
//!   equivalence suites selects it.
//!
//! The two are bit-identical: same `RunStats`, counters, event journal and
//! trace digest. The scan loop's observable ordering (channel, switch and
//! NIC index order within each phase) is reproduced by sorting each
//! drained wheel bucket and each active list before visiting it, so the
//! active set is a strict subsequence of the scan order. The
//! `scheduler_equivalence` integration test diffs them end-to-end, and CI
//! runs the determinism suite once more under `REGNET_SCHEDULER=scan`.

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
    /// Timing-wheel wake-ups + dedup'd active lists, with provably idle
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

/// Run-time state of the active-set scheduler.
///
/// Invariants:
/// * A channel index appears in `data_wheel[c % delay]` whenever a flit was
///   written that arrives at cycle `c` (`ctl_wheel` likewise for control
///   symbols). Stale entries (the flit was purged or the cable died after
///   registration) are harmless: the drain finds the slot empty and skips.
/// * `sw_active` holds exactly the switch ids whose `sw_is_active` flag is
///   set; a switch is listed whenever any of its input buffers holds a
///   packet (a switch with empty input queues provably has idle heads and
///   no crossbar connections, so visiting it is a no-op).
/// * `nic_active`/`nic_is_active` likewise; a NIC is listed whenever its
///   transmit phase has work *now* (in-flight tx, queued local packet,
///   ready re-injection or retransmission). Heap entries that become ready
///   in the future are covered by `nic_wake`, which gets an entry at every
///   heap insertion.
#[derive(Debug)]
pub(crate) struct ActiveSched {
    delay: u64,
    data_wheel: Vec<Vec<u32>>,
    ctl_wheel: Vec<Vec<u32>>,
    /// Entries currently parked across all `data_wheel` buckets. Kept so
    /// the time skip can test "both wheels drained" in O(1); the
    /// count covers raw (pre-dedup) entries, which is exactly what makes
    /// zero mean "no bucket holds anything".
    data_entries: usize,
    /// `ctl_wheel` counterpart of `data_entries`.
    ctl_entries: usize,
    /// Recycled bucket storage (capacity reuse across drains).
    spare: Vec<Vec<u32>>,
    sw_active: Vec<u32>,
    sw_is_active: Vec<bool>,
    nic_active: Vec<u32>,
    nic_is_active: Vec<bool>,
    /// `(ready_cycle, host)` wake-ups for NICs whose re-injection or
    /// retransmission becomes eligible in the future.
    nic_wake: BinaryHeap<Reverse<(u64, u32)>>,
}

impl ActiveSched {
    pub(crate) fn new(delay: u32, n_switches: usize, n_nics: usize) -> ActiveSched {
        assert!(delay > 0);
        let delay = delay as u64;
        ActiveSched {
            delay,
            data_wheel: (0..delay).map(|_| Vec::new()).collect(),
            ctl_wheel: (0..delay).map(|_| Vec::new()).collect(),
            data_entries: 0,
            ctl_entries: 0,
            spare: Vec::new(),
            sw_active: Vec::new(),
            sw_is_active: vec![false; n_switches],
            nic_active: Vec::new(),
            nic_is_active: vec![false; n_nics],
            nic_wake: BinaryHeap::new(),
        }
    }

    /// A data flit was written on channel `ci` at `cycle`; it arrives at
    /// `cycle + delay`, whose bucket is the same `cycle % delay` index.
    #[inline]
    pub(crate) fn note_data(&mut self, cycle: u64, ci: u32) {
        let idx = (cycle % self.delay) as usize;
        self.data_wheel[idx].push(ci);
        self.data_entries += 1;
    }

    /// A control symbol was written on channel `ci` at `cycle`. Same bucket
    /// arithmetic as `note_data` — which also covers the fault-phase case:
    /// a symbol written in phase 0 of cycle `c` lands in the bucket drained
    /// by *this* cycle's control phase, exactly when the scan loop would
    /// read the (shared) slot.
    #[inline]
    pub(crate) fn note_ctl(&mut self, cycle: u64, ci: u32) {
        let idx = (cycle % self.delay) as usize;
        self.ctl_wheel[idx].push(ci);
        self.ctl_entries += 1;
    }

    /// Drain the data bucket for `cycle`: sorted and dedup'd so the caller
    /// visits channels in scan (index) order. Return the bucket to
    /// [`recycle`](ActiveSched::recycle) after processing.
    pub(crate) fn take_data(&mut self, cycle: u64) -> Vec<u32> {
        let idx = (cycle % self.delay) as usize;
        let empty = self.spare.pop().unwrap_or_default();
        let mut v = std::mem::replace(&mut self.data_wheel[idx], empty);
        self.data_entries -= v.len();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Drain the control bucket for `cycle` (see `take_data`).
    pub(crate) fn take_ctl(&mut self, cycle: u64) -> Vec<u32> {
        let idx = (cycle % self.delay) as usize;
        let empty = self.spare.pop().unwrap_or_default();
        let mut v = std::mem::replace(&mut self.ctl_wheel[idx], empty);
        self.ctl_entries -= v.len();
        v.sort_unstable();
        v.dedup();
        v
    }

    pub(crate) fn recycle(&mut self, mut bucket: Vec<u32>) {
        bucket.clear();
        self.spare.push(bucket);
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

    // ---- Quiescence accessors for the time skip (`sim/skip.rs`).

    /// No flit or control symbol is parked in either wake wheel. O(1).
    pub(crate) fn wheels_empty(&self) -> bool {
        self.data_entries == 0 && self.ctl_entries == 0
    }

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

    #[test]
    fn wheel_buckets_sort_and_dedup() {
        let mut s = ActiveSched::new(4, 1, 1);
        s.note_data(10, 7);
        s.note_data(10, 3);
        s.note_data(10, 7);
        // Cycle 14 maps to the same bucket (10 % 4 == 14 % 4).
        assert_eq!(s.take_data(14), vec![3, 7]);
        let b = s.take_data(14);
        assert!(b.is_empty(), "bucket drained");
        s.recycle(b);
        // Recycled storage is reused.
        s.note_ctl(0, 9);
        assert_eq!(s.take_ctl(4), vec![9]);
    }

    #[test]
    fn active_lists_dedup_and_retire() {
        let mut s = ActiveSched::new(1, 3, 2);
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
        let mut s = ActiveSched::new(1, 1, 4);
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
        let mut s = ActiveSched::new(1, 1, 4);
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
        let mut s = ActiveSched::new(1, 1, 4);
        s.wake_nic_at(10, 1); // retransmit timer, packet later purged
        s.wake_nic_at(30, 1); // unrelated later wake for the same host
        s.drain_wakes(10);
        assert_eq!(s.take_active_nics(), vec![1]);
        s.retire_nic(1); // NIC phase found nothing to do
        assert_eq!(s.next_wake(), Some(30), "future wake survives the retire");
        s.drain_wakes(30);
        assert_eq!(s.take_active_nics(), vec![1]);
    }

    /// Wheel wraparound at slot boundaries: with delay d, cycles c and
    /// c + d share a bucket. Entries noted for the *next* lap must be
    /// visible when that lap's cycle drains the slot, and a drain at
    /// cycle c must hand over everything in the bucket (the simulator
    /// never notes more than one lap ahead, so this is safe).
    #[test]
    fn wheel_wraparound_at_slot_boundaries() {
        let mut s = ActiveSched::new(3, 1, 1);
        // Slot 0 holds cycles 0, 3, 6, ...
        s.note_data(3, 5);
        assert!(!s.wheels_empty());
        assert_eq!(s.take_data(3), vec![5]);
        assert!(s.wheels_empty());
        // Next lap reuses the slot cleanly after a drain.
        s.note_data(6, 8);
        s.note_data(6, 2);
        assert_eq!(s.take_data(6), vec![2, 8]);
        // The last slot wraps to cycle delay-1 + k*delay.
        s.note_ctl(2, 4);
        s.note_ctl(5, 1);
        assert_eq!(s.take_ctl(5), vec![1, 4], "same slot, both laps drain");
        assert!(s.wheels_empty());
    }

    /// The O(1) quiescence accessors used by the time skip:
    /// raw entry counters track note/take exactly, including dup'd
    /// entries that dedup would hide.
    #[test]
    fn quiescence_accessors_track_raw_entries() {
        let mut s = ActiveSched::new(4, 2, 2);
        assert!(s.wheels_empty());
        assert!(s.active_lists_empty());
        assert_eq!(s.next_wake(), None);
        s.note_data(1, 6);
        s.note_data(1, 6); // duplicate still counts until drained
        s.note_ctl(2, 3);
        assert!(!s.wheels_empty());
        assert_eq!(s.take_data(1), vec![6]);
        assert!(!s.wheels_empty(), "ctl entry still pending");
        assert_eq!(s.take_ctl(2), vec![3]);
        assert!(s.wheels_empty());
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
