//! The simulator's [`Sink`]: where the kernel's effects land.

use std::time::Instant;

use regnet_core::{PathSelector, SrcSelector};
use regnet_topology::HostId;

use super::faults::Loss;
use super::measure::Measure;
use crate::channel::{Channels, Row};
use crate::counters::CounterSnapshot;
use crate::events::{EventJournal, EventKind};
use crate::kernel::{KernelMeasure, Sink, SwitchSpan};
use crate::nic::Nic;
use crate::packet::{Packet, PacketArena};
use crate::profiler::EngineCounts;
use crate::sched::ActiveSched;
use crate::switch::SwitchState;
use crate::trace::TraceState;

/// Disjoint `&mut` borrows of the simulator's fields. Every effect is
/// applied the moment the kernel emits it, except the two losses, which
/// are recorded for the loss phase.
pub(crate) struct SeqSink<'s> {
    pub(crate) cycle: u64,
    /// `cycle`'s row of the channel table.
    pub(crate) row: Row,
    pub(crate) channels: &'s mut Channels,
    pub(super) arena: &'s mut PacketArena,
    pub(super) selector: &'s mut PathSelector,
    pub(crate) sched: Option<&'s mut ActiveSched>,
    pub(super) counters: Option<&'s mut CounterSnapshot>,
    pub(super) journal: Option<&'s mut EventJournal>,
    pub(super) trace: Option<&'s mut TraceState>,
    pub(super) measure: &'s mut Measure,
    pub(super) last_activity: &'s mut u64,
    pub(super) pending_loss: &'s mut Vec<(Loss, u32)>,
    /// Iff profiling and this cycle is sampled: the last span lap, and the
    /// (routing, crossbar) ns inside the switch phase this cycle.
    pub(super) spans: Option<(Instant, [u64; 2])>,
}

// The effects below `journal` happen per packet or more rarely, so they
// stay out of line (`EventJournal::record` too): inlined into the switch
// and NIC loops they grow `switch_phase` by a sixth and cost ~7 % wall
// time on the saturated torus.
impl Sink for SeqSink<'_> {
    #[inline]
    fn pkt(&mut self, pid: u32) -> &mut Packet {
        self.arena.get_mut(pid)
    }
    #[inline]
    fn selector(&mut self, src: HostId) -> &mut SrcSelector {
        self.selector.src_mut(src)
    }
    #[inline]
    fn is_dead(&self, ci: u32) -> bool {
        self.channels.is_dead(ci)
    }

    // `send` and `send_ctl` are forced inline: the kernel is instantiated
    // once per sink, and with a mere hint LLVM outlines these two (and
    // `SwitchState::forward_flit`) from the switch loop — measured at +7 %
    // wall time on the saturated torus.
    #[inline(always)]
    fn send(&mut self, ci: u32, pid: u32) {
        if !self.channels.extend(ci, pid, self.cycle) {
            self.channels.send(self.row, ci, pid);
        }
    }
    #[inline(always)]
    fn send_ctl(&mut self, ci: u32, symbol: u8) {
        self.channels.send_ctl(self.row, ci, symbol);
    }
    #[inline]
    fn activate_switch(&mut self, sw: u32) {
        if let Some(sc) = self.sched.as_deref_mut() {
            sc.activate_switch(sw);
        }
    }
    #[inline]
    fn wake_nic_at(&mut self, ready: u64, host: u32) {
        if let Some(sc) = self.sched.as_deref_mut() {
            sc.wake_nic_at(ready, host);
        }
    }
    #[inline]
    fn activity(&mut self) {
        *self.last_activity = self.cycle;
    }
    #[inline]
    fn count(&mut self, bump: impl FnOnce(&mut CounterSnapshot)) {
        if let Some(c) = self.counters.as_deref_mut() {
            bump(c);
        }
    }
    #[inline]
    fn diag(&self) -> bool {
        self.counters.is_some() || self.journal.is_some()
    }
    #[inline]
    fn measure(&mut self, update: impl FnOnce(&mut KernelMeasure)) {
        if self.measure.on {
            update(&mut self.measure.kernel);
        }
    }
    #[inline]
    fn journal(&mut self, event: impl FnOnce() -> (u32, EventKind)) {
        if let Some(j) = self.journal.as_deref_mut() {
            let (pid, kind) = event();
            j.record(self.cycle, pid, kind);
        }
    }
    #[inline(never)]
    fn itb_eject(&mut self, pid: u32, host: u32, overflow: bool) {
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.on_itb_eject(self.cycle, pid);
        }
        self.journal(|| (pid, EventKind::ItbEject { host, overflow }));
    }
    #[inline(never)]
    fn reinject(&mut self, pid: u32, host: u32) {
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.on_reinject_start(self.cycle, pid);
        }
        self.journal(|| (pid, EventKind::Reinject { host }));
    }
    /// Arena bookkeeping, measurement, counters, journal and trace hooks
    /// of a completed delivery: the packet is the whole message, so its
    /// delivery is the message's, through every in-transit buffer its
    /// header marks.
    #[inline(never)]
    fn deliver(&mut self, pid: u32, host: u32) {
        let cycle = self.cycle;
        let pkt = self.arena.remove(pid);
        let itbs = pkt.header.num_itbs() as u64;
        if self.measure.on {
            let m = &mut *self.measure;
            m.delivered += 1;
            m.delivered_payload_flits += pkt.payload as u64;
            m.itb_sum += itbs;
            m.latency.push((cycle - pkt.first_inject) as f64);
            m.hist.record(cycle - pkt.first_inject);
            m.total_latency.push((cycle - pkt.gen_cycle) as f64);
        }
        self.count(|c| {
            c.packets_delivered += 1;
            c.messages_delivered += 1;
        });
        self.journal(|| (pid, EventKind::Deliver { dst: host }));
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.on_message_delivered(
                cycle,
                pkt.src.0,
                pkt.dst.0,
                pkt.payload as u64,
                itbs,
                pkt.first_inject,
            );
        }
    }
    #[inline(never)]
    fn lose_worm(&mut self, pid: u32) {
        self.pending_loss.push((Loss::Worm, pid));
    }
    #[inline(never)]
    fn drop_unroutable(&mut self, pid: u32) {
        self.pending_loss.push((Loss::Unroutable, pid));
    }
    #[inline]
    fn span_lap(&mut self, span: Option<SwitchSpan>) {
        if let Some((mark, acc)) = self.spans.as_mut() {
            let now = Instant::now();
            if let Some(span) = span {
                acc[span as usize] += (now - *mark).as_nanos() as u64;
            }
            *mark = now;
        }
    }
}

/// What the kernel's per-channel deliveries and phase loops walk: the
/// component arrays next to the sink that borrows everything else, so
/// that one component and the sink can be borrowed at once.
pub(crate) struct SeqParts<'s> {
    pub(crate) switches: &'s mut [SwitchState],
    pub(crate) nics: &'s mut [Nic],
    pub(crate) sink: SeqSink<'s>,
}

impl SeqSink<'_> {
    /// A steady run moved a flit at `cycle` (watchdog feed, applied late).
    #[inline]
    pub(crate) fn activity_at(&mut self, cycle: u64) {
        *self.last_activity = (*self.last_activity).max(cycle);
    }

    /// The engine's exact counts. Only the engine moves runs and walks
    /// listed components, so only its code asks.
    #[inline]
    pub(crate) fn counts(&mut self) -> &mut EngineCounts {
        let sched = self.sched.as_deref_mut();
        &mut sched.expect("engine work without wake state").counts
    }
}

impl SeqParts<'_> {
    /// The wake state whose listed switches and NICs the phase loops
    /// walk. The scan oracle has none and never asks.
    #[inline]
    pub(crate) fn sched(&mut self) -> &mut ActiveSched {
        let sched = self.sink.sched.as_deref_mut();
        sched.expect("phase loop without wake state")
    }
}
