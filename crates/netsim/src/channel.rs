//! Unidirectional pipelined channels with reverse-direction stop/go control.

use crate::packet::NO_PACKET;

/// Who receives the data flits of a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Receiver {
    /// A switch input buffer.
    SwitchIn { sw: u32, port: u8 },
    /// A host NIC.
    Nic { host: u32 },
}

/// Who drives the data flits of a channel (and therefore receives its
/// stop/go control flits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sender {
    /// A switch output port.
    SwitchOut { sw: u32, port: u8 },
    /// A host NIC.
    Nic { host: u32 },
}

/// Stop/go control symbols travelling against the data direction.
pub(crate) const CTL_NONE: u8 = 0;
pub(crate) const CTL_STOP: u8 = 1;
pub(crate) const CTL_GO: u8 = 2;

/// The data half of a channel: a delay line of `delay` flit slots, written
/// by the channel's sender and drained by its receiver.
///
/// A channel is two lanes so that the two components at its ends can each
/// borrow one exclusively: the data lane is written by the sender and
/// drained by the receiver, the control lane the other way round. Each
/// lane therefore carries its own copy of the cable's `delay` and `dead`
/// state (`dead` changes only in the fault phase).
#[derive(Debug)]
pub(crate) struct DataLane {
    delay: u32,
    /// A dead channel drops every flit offered to it (cable fault).
    dead: bool,
    /// `slots[c % delay]` is the flit that *arrives* at cycle `c`; a flit
    /// written at cycle `c` (same index, after the arrival was consumed)
    /// arrives at `c + delay`.
    slots: Box<[u32]>,
    /// Data flits observed during the measurement window (utilization).
    busy_cycles: u64,
}

impl DataLane {
    /// Take the data flit arriving this cycle (if any), freeing the slot.
    #[inline]
    pub(crate) fn take_arrival(&mut self, cycle: u64) -> Option<u32> {
        let s = (cycle % self.delay as u64) as usize;
        let v = self.slots[s];
        if v == NO_PACKET {
            None
        } else {
            self.slots[s] = NO_PACKET;
            self.busy_cycles += 1;
            Some(v)
        }
    }

    /// Send one flit of `packet`; it will arrive `delay` cycles from now.
    /// Must be called after `take_arrival` for the same cycle. A dead
    /// channel silently eats the flit — the sender cannot tell (Myrinet
    /// links carry no acknowledgement; loss is detected end-to-end).
    #[inline]
    pub(crate) fn send(&mut self, cycle: u64, packet: u32) {
        if self.dead {
            return;
        }
        let s = (cycle % self.delay as u64) as usize;
        debug_assert_eq!(self.slots[s], NO_PACKET, "channel slot collision");
        self.slots[s] = packet;
    }
}

/// The control half of a channel: the same delay line for stop/go symbols
/// flowing against the data direction, written by the channel's receiver
/// and drained by its sender (Myrinet encodes control symbols inline; they
/// do not consume data bandwidth).
#[derive(Debug)]
pub(crate) struct CtlLane {
    delay: u32,
    /// Control symbols die with the cable too.
    dead: bool,
    slots: Box<[u8]>,
    /// Cycle of the last `send`, used by the call-order check: a slot may
    /// only be overwritten by a second symbol sent in the *same* cycle (a
    /// deliberate supersede); anything else would silently destroy an
    /// undelivered symbol.
    written_at: u64,
}

impl CtlLane {
    /// Take the control symbol arriving this cycle.
    #[inline]
    pub(crate) fn take_arrival(&mut self, cycle: u64) -> u8 {
        let s = (cycle % self.delay as u64) as usize;
        std::mem::replace(&mut self.slots[s], CTL_NONE)
    }

    /// Emit a stop/go symbol towards the sender; arrives `delay` cycles
    /// from now.
    ///
    /// Must be called after [`take_arrival`](CtlLane::take_arrival) for the
    /// same cycle: the write reuses the slot the current cycle's arrival
    /// occupies, so calling out of order would silently drop that symbol.
    /// The only legal overwrite is superseding a symbol sent earlier in the
    /// *same* cycle (e.g. a purge's GO replacing this cycle's STOP), which
    /// the debug assertion below permits.
    #[inline]
    pub(crate) fn send(&mut self, cycle: u64, symbol: u8) {
        if self.dead {
            return;
        }
        let s = (cycle % self.delay as u64) as usize;
        debug_assert!(
            self.slots[s] == CTL_NONE || self.written_at == cycle,
            "send would clobber an undelivered control symbol \
             (call take_arrival for this cycle first)"
        );
        self.slots[s] = symbol;
        self.written_at = cycle;
    }
}

/// One unidirectional channel: a [`DataLane`] in the data direction plus a
/// [`CtlLane`] for the stop/go symbols flowing the opposite way. The
/// per-cycle operations are the lanes'; the methods below are the
/// whole-cable ones (inspection, faults).
#[derive(Debug)]
pub(crate) struct Channel {
    pub sender: Sender,
    pub receiver: Receiver,
    pub data: DataLane,
    pub ctl: CtlLane,
}

impl Channel {
    pub(crate) fn new(sender: Sender, receiver: Receiver, delay: u32) -> Channel {
        assert!(delay > 0);
        Channel {
            sender,
            receiver,
            data: DataLane {
                delay,
                dead: false,
                slots: vec![NO_PACKET; delay as usize].into_boxed_slice(),
                busy_cycles: 0,
            },
            ctl: CtlLane {
                delay,
                dead: false,
                slots: vec![CTL_NONE; delay as usize].into_boxed_slice(),
                written_at: 0,
            },
        }
    }

    /// Any data flits still in flight?
    pub(crate) fn has_data_in_flight(&self) -> bool {
        self.data.slots.iter().any(|&v| v != NO_PACKET)
    }

    /// Any control symbols (STOP/GO/purge) still in flight? Used by the
    /// time skip's pending-work cross-check.
    pub(crate) fn has_ctl_in_flight(&self) -> bool {
        self.ctl.slots.iter().any(|&v| v != CTL_NONE)
    }

    /// Data flits observed since the last [`reset_busy`](Channel::reset_busy).
    pub(crate) fn busy_cycles(&self) -> u64 {
        self.data.busy_cycles
    }

    /// Reset the utilization counter (start of the measurement window).
    pub(crate) fn reset_busy(&mut self) {
        self.data.busy_cycles = 0;
    }

    /// Kill the channel: every in-flight flit is lost. Returns the distinct
    /// packet ids whose flits were destroyed (the victims' worms have been
    /// truncated — the upstream state must be purged by the caller).
    pub(crate) fn fail(&mut self) -> Vec<u32> {
        let mut victims: Vec<u32> = self
            .data
            .slots
            .iter()
            .copied()
            .filter(|&v| v != NO_PACKET)
            .collect();
        victims.sort_unstable();
        victims.dedup();
        self.set_dead(true);
        victims
    }

    /// Drop every in-flight flit of one packet (its worm is being purged
    /// after a fault elsewhere on its path).
    pub(crate) fn purge(&mut self, pid: u32) {
        for slot in self.data.slots.iter_mut() {
            if *slot == pid {
                *slot = NO_PACKET;
            }
        }
    }

    /// Bring a repaired channel back into service, empty.
    pub(crate) fn repair(&mut self) {
        self.set_dead(false);
    }

    /// Flip both lanes' `dead` flag, emptying them.
    fn set_dead(&mut self, dead: bool) {
        self.data.dead = dead;
        self.ctl.dead = dead;
        self.data.slots.fill(NO_PACKET);
        self.ctl.slots.fill(CTL_NONE);
    }

    pub(crate) fn is_dead(&self) -> bool {
        self.data.dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan() -> Channel {
        Channel::new(
            Sender::Nic { host: 0 },
            Receiver::SwitchIn { sw: 0, port: 0 },
            8,
        )
    }

    #[test]
    fn flit_takes_delay_cycles() {
        let mut c = chan();
        c.data.send(100, 42);
        for cyc in 101..108 {
            assert_eq!(c.data.take_arrival(cyc), None);
        }
        assert_eq!(c.data.take_arrival(108), Some(42));
        assert_eq!(c.data.take_arrival(108), None, "slot freed after take");
        assert!(!c.has_data_in_flight());
    }

    #[test]
    fn back_to_back_flits() {
        let mut c = chan();
        for i in 0..20u64 {
            // Receiver first, sender second, every cycle.
            let got = c.data.take_arrival(i);
            if i >= 8 {
                assert_eq!(got, Some((i - 8) as u32));
            } else {
                assert_eq!(got, None);
            }
            c.data.send(i, i as u32);
        }
        assert_eq!(c.busy_cycles(), 12);
    }

    #[test]
    fn control_symbols_travel_independently() {
        let mut c = chan();
        c.data.send(50, 7);
        c.ctl.send(50, CTL_STOP);
        assert_eq!(c.ctl.take_arrival(57), CTL_NONE);
        assert_eq!(c.ctl.take_arrival(58), CTL_STOP);
        assert_eq!(c.ctl.take_arrival(58), CTL_NONE);
        assert_eq!(c.data.take_arrival(58), Some(7));
    }

    #[test]
    #[should_panic(expected = "slot collision")]
    fn double_send_panics_in_debug() {
        let mut c = chan();
        c.data.send(10, 1);
        c.data.send(10, 2);
    }

    #[test]
    #[should_panic(expected = "undelivered control symbol")]
    fn misordered_ctl_send_panics_in_debug() {
        let mut c = chan();
        c.ctl.send(10, CTL_STOP);
        // Cycle 18 reuses slot 10 % 8, and the STOP arriving right now has
        // not been taken: without the check it would vanish silently.
        c.ctl.send(18, CTL_GO);
    }

    #[test]
    fn ctl_send_after_take_is_ordered() {
        let mut c = chan();
        c.ctl.send(10, CTL_STOP);
        assert_eq!(c.ctl.take_arrival(18), CTL_STOP);
        c.ctl.send(18, CTL_GO); // slot freed by the take: legal
        assert_eq!(c.ctl.take_arrival(26), CTL_GO);
    }

    #[test]
    fn same_cycle_ctl_supersede_is_allowed() {
        let mut c = chan();
        // A purge's GO may overwrite a STOP sent earlier the same cycle;
        // the receiver sees only the final symbol.
        c.ctl.send(5, CTL_STOP);
        c.ctl.send(5, CTL_GO);
        assert_eq!(c.ctl.take_arrival(13), CTL_GO);
    }

    #[test]
    fn fail_truncates_and_repair_restores() {
        let mut c = chan();
        c.data.send(0, 5);
        c.data.send(1, 5);
        c.data.send(2, 9);
        c.ctl.send(2, CTL_STOP);
        assert_eq!(c.fail(), vec![5, 9], "distinct in-flight victims");
        assert!(c.is_dead());
        assert!(!c.has_data_in_flight());
        // A dead cable eats everything offered to it.
        c.data.send(3, 11);
        c.ctl.send(3, CTL_GO);
        for cyc in 4..30 {
            assert_eq!(c.data.take_arrival(cyc), None);
            assert_eq!(c.ctl.take_arrival(cyc), CTL_NONE);
        }
        c.repair();
        assert!(!c.is_dead());
        c.data.send(30, 1);
        assert_eq!(c.data.take_arrival(38), Some(1));
    }

    #[test]
    fn reset_busy() {
        let mut c = chan();
        c.data.send(0, 1);
        c.data.take_arrival(8);
        assert_eq!(c.busy_cycles(), 1);
        c.reset_busy();
        assert_eq!(c.busy_cycles(), 0);
    }
}
