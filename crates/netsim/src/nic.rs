//! Per-host network interface card state: injection, reception, and the
//! in-transit buffer pool.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rand::rngs::SmallRng;

use crate::faultplan::FaultRuntime;

/// Reception progress for the packet currently streaming into this NIC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RxState {
    pub pid: u32,
    pub received: u32,
    pub expected: u32,
    /// True when this packet is being delivered here (as opposed to being
    /// an in-transit packet that will be re-injected).
    pub deliver: bool,
}

/// Transmission progress for the packet currently leaving this NIC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TxState {
    pub pid: u32,
    pub sent: u32,
    pub total: u32,
    pub reinjection: bool,
}

/// What kind of transmission a [`Nic::pick_next_tx`] winner is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxKind {
    /// A locally generated packet leaving for the first time.
    Fresh,
    /// An in-transit packet continuing its journey (holds pool space).
    Reinject,
    /// A source retransmission of a packet lost to a fault; restarts from
    /// the header's first byte.
    Retransmit,
}

/// One host's network interface.
#[derive(Debug)]
pub(crate) struct Nic {
    /// Channel into the switch (data out).
    pub out_chan: u32,
    /// STOP received from the switch input buffer we feed.
    pub stopped: bool,
    /// Locally generated packets awaiting injection (FIFO).
    pub local_queue: VecDeque<u32>,
    /// In-transit packets with their re-injection ready cycle.
    pub reinject: BinaryHeap<Reverse<(u64, u32)>>,
    /// Source retransmissions keyed by the cycle the send-timeout fires.
    pub retransmit: BinaryHeap<Reverse<(u64, u32)>>,
    pub tx: Option<TxState>,
    pub rx: Option<RxState>,
    /// In-transit buffer pool occupancy, flits.
    pub pool_used: u32,
    /// Next scheduled generation time, in (fractional) cycles. `f64::MAX`
    /// for hosts that never generate under the current pattern.
    pub next_gen: f64,
    /// Per-host RNG (destinations, interarrival jitter).
    pub rng: SmallRng,
    /// Explicitly scheduled messages (closed-loop workloads): destination
    /// host ids keyed by generation cycle, non-decreasing.
    pub scheduled: VecDeque<(u64, u32)>,
}

impl Nic {
    pub(crate) fn new(out_chan: u32, rng: SmallRng) -> Nic {
        Nic {
            out_chan,
            stopped: false,
            local_queue: VecDeque::new(),
            reinject: BinaryHeap::new(),
            retransmit: BinaryHeap::new(),
            tx: None,
            rx: None,
            pool_used: 0,
            next_gen: 0.0,
            rng,
            scheduled: VecDeque::new(),
        }
    }

    /// The next packet to transmit, if any is eligible at `cycle`.
    ///
    /// The paper's mechanism re-injects in-transit packets "as soon as
    /// possible"; with `itb_priority` they preempt locally queued messages,
    /// otherwise the NIC serves whichever became ready first.
    /// Retransmissions slot in between: they carry already-late traffic, so
    /// they outrank fresh injections, but never preempt in-transit packets
    /// holding pool space.
    pub(crate) fn pick_next_tx(&mut self, cycle: u64, itb_priority: bool) -> Option<(u32, TxKind)> {
        let ready = |heap: &BinaryHeap<Reverse<(u64, u32)>>| {
            heap.peek()
                .filter(|Reverse((ready, _))| *ready <= cycle)
                .is_some()
        };
        let reinject_ready = ready(&self.reinject);
        if reinject_ready && (itb_priority || self.local_queue.is_empty()) {
            let Reverse((_, pid)) = self.reinject.pop().unwrap();
            return Some((pid, TxKind::Reinject));
        }
        if ready(&self.retransmit) {
            let Reverse((_, pid)) = self.retransmit.pop().unwrap();
            return Some((pid, TxKind::Retransmit));
        }
        if let Some(pid) = self.local_queue.pop_front() {
            return Some((pid, TxKind::Fresh));
        }
        if reinject_ready {
            let Reverse((_, pid)) = self.reinject.pop().unwrap();
            return Some((pid, TxKind::Reinject));
        }
        None
    }

    /// How many flits of the packet in transmission this NIC may have sent
    /// by now: all of a fresh or retransmitted one. A re-injected packet
    /// can only send flits that have already arrived *at this NIC* (minus
    /// the consumed ITB mark) under cut-through, and none before its tail
    /// under store-and-forward. The count comes from this NIC's own
    /// reception state — if its rx has moved on, the packet arrived here
    /// completely. (A packet can span several NICs at once when
    /// cut-through chains through consecutive in-transit hosts, so the
    /// count must be per-NIC, not per-packet.)
    pub(crate) fn sendable(&self, cut_through: bool) -> u32 {
        let Some(tx) = self.tx.filter(|tx| tx.reinjection) else {
            return self.tx.map_or(0, |tx| tx.total);
        };
        let arrived_here = match self.rx {
            Some(rx) if rx.pid == tx.pid => rx.received,
            _ => tx.total + 1, // fully received (wire included the ITB mark)
        };
        if cut_through {
            arrived_here.saturating_sub(1)
        } else if arrived_here > tx.total {
            tx.total
        } else {
            0
        }
    }

    /// Nothing for the transmit phase to do at `cycle` — no transmission in
    /// flight, no queued local packet, and no re-injection or
    /// retransmission ready yet. Heap entries that become ready later are
    /// covered by the scheduler's wake-up heap (one entry per insertion),
    /// so the active-set scheduler may retire a NIC for which this holds.
    /// It may also retire one asleep: [`held_by_stop`](Nic::held_by_stop)
    /// or [`frozen`](Nic::frozen).
    pub(crate) fn quiescent_for_tx(&self, cycle: u64) -> bool {
        let ready = |heap: &BinaryHeap<Reverse<(u64, u32)>>| {
            heap.peek().is_some_and(|Reverse((r, _))| *r <= cycle)
        };
        self.tx.is_none()
            && self.local_queue.is_empty()
            && !ready(&self.reinject)
            && !ready(&self.retransmit)
    }

    /// A worm in progress, held by STOP: a transmit-phase visit is a no-op
    /// until GO arrives or the worm is purged, and both wake the NIC. (A
    /// dead host or cable has its worm purged; a NIC starts none while its
    /// cable is dead, so a repair finds nothing held.)
    pub(crate) fn held_by_stop(&self) -> bool {
        self.stopped && self.tx.is_some()
    }

    /// Frozen by a pending reconfiguration: sources stall while the mapper
    /// redistributes routes, and only a worm already in progress may
    /// finish. A transmit-phase visit is a no-op until the new tables
    /// land, and landing them lists every NIC with work again
    /// (`Simulator::complete_reconfiguration`).
    pub(crate) fn frozen(&self, faults: Option<&FaultRuntime>) -> bool {
        faults.is_some_and(|f| f.reconfig_due.is_some()) && self.tx.is_none()
    }

    /// Anything left to do at this NIC?
    pub(crate) fn is_idle(&self) -> bool {
        self.tx.is_none()
            && self.rx.is_none()
            && self.local_queue.is_empty()
            && self.reinject.is_empty()
            && self.retransmit.is_empty()
            && self.scheduled.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn nic() -> Nic {
        Nic::new(0, SmallRng::seed_from_u64(0))
    }

    #[test]
    fn pick_prefers_reinjection_with_priority() {
        let mut n = nic();
        n.local_queue.push_back(7);
        n.reinject.push(Reverse((10, 3)));
        // Not ready yet at cycle 5: local goes first.
        assert_eq!(n.pick_next_tx(5, true), Some((7, TxKind::Fresh)));
        n.local_queue.push_back(8);
        // Ready at cycle 10: reinjection preempts.
        assert_eq!(n.pick_next_tx(10, true), Some((3, TxKind::Reinject)));
        assert_eq!(n.pick_next_tx(10, true), Some((8, TxKind::Fresh)));
        assert_eq!(n.pick_next_tx(10, true), None);
    }

    #[test]
    fn pick_without_priority_serves_local_first() {
        let mut n = nic();
        n.local_queue.push_back(7);
        n.reinject.push(Reverse((0, 3)));
        assert_eq!(n.pick_next_tx(10, false), Some((7, TxKind::Fresh)));
        assert_eq!(n.pick_next_tx(10, false), Some((3, TxKind::Reinject)));
    }

    #[test]
    fn reinject_orders_by_ready_cycle() {
        let mut n = nic();
        n.reinject.push(Reverse((30, 1)));
        n.reinject.push(Reverse((10, 2)));
        n.reinject.push(Reverse((20, 3)));
        assert_eq!(n.pick_next_tx(100, true), Some((2, TxKind::Reinject)));
        assert_eq!(n.pick_next_tx(100, true), Some((3, TxKind::Reinject)));
        assert_eq!(n.pick_next_tx(100, true), Some((1, TxKind::Reinject)));
    }

    #[test]
    fn retransmit_outranks_fresh_but_not_reinjection() {
        let mut n = nic();
        n.local_queue.push_back(7);
        n.retransmit.push(Reverse((10, 4)));
        n.reinject.push(Reverse((10, 3)));
        assert_eq!(n.pick_next_tx(10, true), Some((3, TxKind::Reinject)));
        assert_eq!(n.pick_next_tx(10, true), Some((4, TxKind::Retransmit)));
        assert_eq!(n.pick_next_tx(10, true), Some((7, TxKind::Fresh)));
        // A retransmission whose timeout has not fired yet waits its turn.
        n.retransmit.push(Reverse((50, 5)));
        n.local_queue.push_back(8);
        assert_eq!(n.pick_next_tx(20, true), Some((8, TxKind::Fresh)));
        assert_eq!(n.pick_next_tx(20, true), None);
        assert_eq!(n.pick_next_tx(50, true), Some((5, TxKind::Retransmit)));
    }

    #[test]
    fn tx_quiescence_tracks_ready_cycles() {
        let mut n = nic();
        assert!(n.quiescent_for_tx(0));
        n.reinject.push(Reverse((10, 1)));
        assert!(
            n.quiescent_for_tx(9),
            "future-ready entry: wake-up covers it"
        );
        assert!(!n.quiescent_for_tx(10), "ready entry demands a visit");
        n.reinject.clear();
        n.tx = Some(TxState {
            pid: 1,
            sent: 0,
            total: 4,
            reinjection: false,
        });
        assert!(
            !n.quiescent_for_tx(0),
            "in-flight worm keeps the NIC active"
        );
    }

    #[test]
    fn idle_detection() {
        let mut n = nic();
        assert!(n.is_idle());
        n.local_queue.push_back(1);
        assert!(!n.is_idle());
        n.local_queue.clear();
        n.retransmit.push(Reverse((0, 1)));
        assert!(!n.is_idle());
    }
}
