//! Per-switch simulation state: input buffers with stop&go flow control,
//! the routing control unit, and output-port arbitration state.

use std::collections::VecDeque;

use crate::channel::{CTL_GO, CTL_STOP};
use crate::config::{GO_THRESHOLD, SLACK_BUFFER_FLITS, STOP_THRESHOLD};
use crate::events::BlockCause;
use crate::packet::NO_PACKET;

/// A packet resident (partially or fully) in one input buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct InPkt {
    pub pid: u32,
    /// Flits that will arrive at this input for this packet.
    pub expected: u32,
    pub received: u32,
    /// Flits forwarded to the output (excludes the consumed header byte).
    pub forwarded: u32,
    /// Has the routing control unit removed the first header flit?
    pub header_consumed: bool,
}

impl InPkt {
    /// Flits buffered and ready to forward right now.
    #[inline]
    pub(crate) fn available(&self) -> u32 {
        self.received - u32::from(self.header_consumed) - self.forwarded
    }

    /// Has every forwardable flit been forwarded?
    #[inline]
    pub(crate) fn done(&self) -> bool {
        self.forwarded == self.expected - 1
    }
}

/// An input port's packets in arrival order. The head lives inline and
/// the packets behind it out of line: an incomplete head has nothing
/// behind it (a channel carries one packet's flits back to back), so
/// neither a continuation flit's arrival nor a crossbar transfer touches
/// the out-of-line buffer.
#[derive(Debug, Default)]
pub(crate) struct PortQueue {
    head: Option<InPkt>,
    rest: VecDeque<InPkt>,
}

impl PortQueue {
    #[inline]
    pub(crate) fn front(&self) -> Option<&InPkt> {
        self.head.as_ref()
    }

    pub(crate) fn back(&self) -> Option<&InPkt> {
        self.rest.back().or(self.head.as_ref())
    }

    #[inline]
    fn back_mut(&mut self) -> Option<&mut InPkt> {
        if self.rest.is_empty() {
            self.head.as_mut()
        } else {
            self.rest.back_mut()
        }
    }

    #[inline]
    fn push_back(&mut self, pkt: InPkt) {
        if self.head.is_none() {
            self.head = Some(pkt);
        } else {
            self.rest.push_back(pkt);
        }
    }

    #[inline]
    fn pop_front(&mut self) -> Option<InPkt> {
        let head = self.head.take();
        self.head = self.rest.pop_front();
        head
    }

    /// Remove the packet at `pos` (0 is the head).
    fn remove(&mut self, pos: usize) -> Option<InPkt> {
        match pos {
            0 => self.pop_front(),
            _ => self.rest.remove(pos - 1),
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &InPkt> {
        self.head.iter().chain(&self.rest)
    }

    pub(crate) fn len(&self) -> usize {
        usize::from(self.head.is_some()) + self.rest.len()
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.head.is_none()
    }
}

/// Routing progress of the packet at the head of an input queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HeadState {
    /// Waiting for the head packet's first flit (or no packet at all).
    Idle,
    /// The routing control unit is processing the header (150 ns).
    Routing { ready: u64 },
    /// Waiting for the requested output port.
    Requesting,
    /// Connected through the crossbar; flits are streaming.
    Granted,
}

/// One switch input port: slack buffer + routing control unit. The queue
/// and the head's routing state are private: they change only through the
/// [`SwitchState`] transitions, which keep the port bitmasks in step.
#[derive(Debug)]
pub(crate) struct InPort {
    /// Channel whose flits arrive here (index into the simulator's channel
    /// table); stop/go symbols are sent back on it.
    pub in_chan: u32,
    /// Buffer occupancy in flits.
    pub occ: u16,
    /// Packets in arrival order; only the head can be routed/forwarded.
    queue: PortQueue,
    /// Routing state of `queue[0]`.
    head: HeadState,
    /// Output port requested by `queue[0]` (valid once routed).
    head_out: u8,
    /// Last flow-control symbol we sent was STOP.
    pub stop_sent: bool,
}

impl InPort {
    pub(crate) fn new(in_chan: u32) -> InPort {
        InPort {
            in_chan,
            occ: 0,
            queue: PortQueue::default(),
            head: HeadState::Idle,
            head_out: 0,
            stop_sent: false,
        }
    }

    /// Packets in arrival order; only the head can be routed/forwarded.
    pub(crate) fn queue(&self) -> &PortQueue {
        &self.queue
    }

    /// Routing state of the head packet.
    pub(crate) fn head(&self) -> HeadState {
        self.head
    }

    /// Output port requested by the head packet (valid once routed).
    pub(crate) fn head_out(&self) -> u8 {
        self.head_out
    }

    /// Account one arriving flit; returns `Some(CTL_STOP)` when the STOP
    /// threshold is crossed.
    #[inline]
    pub(crate) fn on_flit_in(&mut self) -> Option<u8> {
        self.occ += 1;
        debug_assert!(
            self.occ <= SLACK_BUFFER_FLITS,
            "slack buffer overflow: flow control failed (occ {})",
            self.occ
        );
        if self.occ > STOP_THRESHOLD && !self.stop_sent {
            self.stop_sent = true;
            Some(CTL_STOP)
        } else {
            None
        }
    }

    /// Account one flit leaving the buffer (forwarded or consumed); returns
    /// `Some(CTL_GO)` when the GO threshold is crossed.
    #[inline]
    pub(crate) fn on_flit_out(&mut self) -> Option<u8> {
        debug_assert!(self.occ > 0);
        self.occ -= 1;
        if self.occ < GO_THRESHOLD && self.stop_sent {
            self.stop_sent = false;
            Some(CTL_GO)
        } else {
            None
        }
    }

    /// Remove `flits` buffered flits at once (a packet purged after a
    /// fault); returns `Some(CTL_GO)` when the GO threshold is crossed.
    pub(crate) fn on_flits_purged(&mut self, flits: u16) -> Option<u8> {
        debug_assert!(self.occ >= flits);
        self.occ -= flits;
        if self.occ < GO_THRESHOLD && self.stop_sent {
            self.stop_sent = false;
            Some(CTL_GO)
        } else {
            None
        }
    }
}

/// One switch output port.
#[derive(Debug)]
pub(crate) struct OutPort {
    /// Channel this port drives.
    pub out_chan: u32,
    /// Input port currently connected through the crossbar.
    conn_in: Option<u8>,
    /// Round-robin pointer for demand-slotted arbitration: the input
    /// granted last (0 before the first grant).
    rr: u8,
}

impl OutPort {
    pub(crate) fn new(out_chan: u32) -> OutPort {
        OutPort {
            out_chan,
            conn_in: None,
            rr: 0,
        }
    }

    /// Input port currently connected through the crossbar.
    pub(crate) fn conn_in(&self) -> Option<u8> {
        self.conn_in
    }
}

/// A flow-control symbol to send back on a channel: `(channel, symbol)`.
pub(crate) type CtlOut = (u32, u8);

/// The ports in a port mask, ascending — the order a scan over
/// `active_ports` visits them.
#[inline]
pub(crate) fn ports(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let p = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            p
        })
    })
}

/// Demand-slotted round-robin: of the inputs in `want`, the lowest port
/// above `rr`, else the lowest port. `rr` is either an active port or the
/// initial 0, and `want` only ever holds active ports, so this is the
/// first requester after `rr` in ascending-port cyclic order.
#[inline]
fn rr_grant(want: u64, rr: u8) -> Option<u8> {
    if want == 0 {
        return None;
    }
    // Two shifts: `rr == 63` must yield an empty mask, not an overflow.
    let above = want & ((u64::MAX << rr) << 1);
    let pick = if above != 0 { above } else { want };
    Some(pick.trailing_zeros() as u8)
}

/// All simulation state of one switch.
///
/// Besides the ports themselves the switch keeps four summaries of them,
/// so that a cycle touches only ports with work. Each is a function of
/// the port state (recomputed and compared by
/// [`check_invariants`](SwitchState::check_invariants)) and is maintained
/// by the transition methods below, the only code that can change a
/// queue, a head state or a crossbar connection. A fifth mask is state,
/// not a summary: `stopped`, the outputs whose downstream receiver last
/// sent STOP, written only by [`set_stopped`](SwitchState::set_stopped).
///
/// * `rcu` — inputs whose routing control unit has work: a queued packet
///   whose head is `Idle` (header not consumed yet) or `Routing`;
/// * `want[o]` — inputs whose head is `Requesting` output `o` (only for
///   outputs that exist), with `want_any` the outputs where that is
///   non-empty;
/// * `conn` — outputs holding a crossbar connection;
/// * `resident` — packets in all input queues.
///
/// An output that is both connected and stopped has no work: it neither
/// arbitrates nor transfers until GO.
#[derive(Debug)]
pub(crate) struct SwitchState {
    /// Indexed by port; `None` where nothing is connected.
    pub inp: Vec<Option<InPort>>,
    pub outp: Vec<Option<OutPort>>,
    /// Port indices that are actually connected, ascending.
    pub active_ports: Vec<u8>,
    rcu: u64,
    want: Vec<u64>,
    want_any: u64,
    conn: u64,
    stopped: u64,
    resident: u32,
}

impl SwitchState {
    /// A switch with one port per item: `Some((in_chan, out_chan))` where a
    /// cable is attached, `None` where the port is unconnected.
    pub(crate) fn new(ports: impl Iterator<Item = Option<(u32, u32)>>) -> SwitchState {
        let mut inp = Vec::new();
        let mut outp = Vec::new();
        let mut active_ports = Vec::new();
        for (p, chans) in ports.enumerate() {
            inp.push(chans.map(|(ic, _)| InPort::new(ic)));
            outp.push(chans.map(|(_, oc)| OutPort::new(oc)));
            if chans.is_some() {
                active_ports.push(p as u8);
            }
        }
        debug_assert!(inp.len() <= 64, "port masks are u64");
        SwitchState {
            want: vec![0; inp.len()],
            inp,
            outp,
            active_ports,
            rcu: 0,
            want_any: 0,
            conn: 0,
            stopped: 0,
            resident: 0,
        }
    }

    /// No packet resident in any input buffer. Under that condition a
    /// switch-phase visit is provably a no-op — every head is `Idle` (head
    /// state always refers to `queue[0]`, so nothing is routing or
    /// requesting) and no crossbar connection is held (a connection belongs
    /// to a `Granted` head and is cleared when the worm completes or is
    /// purged) — so the active-set scheduler may retire the switch until
    /// the next flit arrives.
    #[inline]
    pub(crate) fn is_quiescent(&self) -> bool {
        debug_assert!(
            self.resident != 0 || (self.rcu | self.want_any | self.conn) == 0,
            "empty input queues with routing, requests or a connection pending"
        );
        self.resident == 0
    }

    fn inp_mut(&mut self, p: usize) -> &mut InPort {
        self.inp[p].as_mut().expect("unconnected input port")
    }

    /// Recompute input `p`'s `rcu` bit after its queue or head changed.
    #[inline]
    fn sync_rcu(&mut self, p: usize) {
        let inp = self.inp[p].as_ref().expect("unconnected input port");
        let work = !inp.queue.is_empty()
            && matches!(inp.head, HeadState::Idle | HeadState::Routing { .. });
        self.rcu = (self.rcu & !(1 << p)) | (u64::from(work) << p);
    }

    /// Drop input `p` from output `out`'s request set.
    #[inline]
    fn clear_want(&mut self, out: usize, p: usize) {
        // A head requesting a port that does not exist never got a bit.
        if let Some(w) = self.want.get_mut(out) {
            *w &= !(1 << p);
            if *w == 0 {
                self.want_any &= !(1 << out);
            }
        }
    }

    /// One flit of `pid` arrives at input `port`: a continuation of the
    /// tail packet, or (then `expected` supplies its length at this
    /// receiver) a new packet. Returns whether a packet was queued and the
    /// STOP to send if the threshold was crossed.
    #[inline]
    pub(crate) fn flit_in(
        &mut self,
        port: u8,
        pid: u32,
        expected: impl FnOnce() -> u32,
    ) -> (bool, Option<CtlOut>) {
        let p = port as usize;
        let inp = self.inp[p].as_mut().expect("flit into unconnected port");
        // Contiguity: a channel carries one packet's flits back-to-back
        // (possibly with bubbles), so an incomplete tail entry means
        // continuation.
        let new_packet = match inp.queue.back_mut() {
            Some(back) if back.received < back.expected => {
                debug_assert_eq!(back.pid, pid, "interleaved packets on one channel");
                back.received += 1;
                false
            }
            _ => {
                let expected = expected();
                debug_assert!(expected >= 2);
                inp.queue.push_back(InPkt {
                    pid,
                    expected,
                    received: 1,
                    forwarded: 0,
                    header_consumed: false,
                });
                true
            }
        };
        let ctl = inp.on_flit_in().map(|sym| (inp.in_chan, sym));
        if new_packet {
            self.resident += 1;
            self.sync_rcu(p);
        }
        (new_packet, ctl)
    }

    /// Inputs whose routing control unit has work this cycle.
    #[inline]
    pub(crate) fn rcu_ports(&self) -> u64 {
        self.rcu
    }

    /// Routing state of input `p`'s head packet.
    #[inline]
    pub(crate) fn head(&self, p: usize) -> HeadState {
        self.inp[p].as_ref().expect("unconnected input port").head
    }

    /// The packet at the head of input `p` ([`NO_PACKET`] if none).
    #[inline]
    pub(crate) fn head_pid(&self, p: usize) -> u32 {
        let inp = self.inp[p].as_ref().expect("unconnected input port");
        inp.queue.front().map_or(NO_PACKET, |q| q.pid)
    }

    /// Output port requested by input `p`'s head packet.
    #[inline]
    pub(crate) fn head_out(&self, p: usize) -> u8 {
        self.inp[p]
            .as_ref()
            .expect("unconnected input port")
            .head_out
    }

    /// Has output `out`'s downstream receiver sent STOP (and no GO since)?
    #[inline]
    pub(crate) fn is_stopped(&self, out: usize) -> bool {
        self.stopped & (1 << out) != 0
    }

    /// Output `out` received STOP (`true`) or GO (`false`).
    #[inline]
    pub(crate) fn set_stopped(&mut self, out: usize, stopped: bool) {
        debug_assert!(self.outp[out].is_some(), "ctl for unconnected port");
        self.stopped = (self.stopped & !(1 << out)) | (u64::from(stopped) << out);
    }

    /// The channel output `out` drives; `None` for a port that does not
    /// exist (a stale route under faults).
    #[inline]
    pub(crate) fn out_chan(&self, out: u8) -> Option<u32> {
        let o = self.outp.get(out as usize)?.as_ref()?;
        Some(o.out_chan)
    }

    /// `Idle` → `Routing`: the routing control unit of input `p` consumes
    /// the head packet's header byte, which named output `out`, and is busy
    /// until `ready`. Returns the GO to send if the threshold was crossed.
    #[inline]
    pub(crate) fn start_routing(&mut self, p: usize, out: u8, ready: u64) -> Option<CtlOut> {
        let inp = self.inp_mut(p);
        debug_assert_eq!(inp.head, HeadState::Idle);
        let head = inp.queue.head.as_mut().expect("routing without a packet");
        debug_assert!(head.received >= 1 && !head.header_consumed);
        head.header_consumed = true;
        inp.head_out = out;
        inp.head = HeadState::Routing { ready };
        inp.on_flit_out().map(|sym| (inp.in_chan, sym))
    }

    /// `Routing` → `Requesting`: input `p`'s head now waits for its output.
    #[inline]
    pub(crate) fn request_output(&mut self, p: usize) {
        let inp = self.inp_mut(p);
        debug_assert!(matches!(inp.head, HeadState::Routing { .. }));
        inp.head = HeadState::Requesting;
        let out = inp.head_out as usize;
        self.rcu &= !(1 << p);
        // A port that does not exist is never arbitrated; the packet stays
        // covered by `resident` until the loss phase purges it.
        if self.outp.get(out).is_some_and(|o| o.is_some()) {
            self.want[out] |= 1 << p;
            self.want_any |= 1 << out;
        }
    }

    /// Why input `p`'s `Requesting` head cannot advance right now: busy or
    /// stopped output, or another head requesting the same free output.
    pub(crate) fn block_cause(&self, p: usize) -> Option<BlockCause> {
        let out = self.head_out(p) as usize;
        let o = self.outp.get(out)?.as_ref()?;
        if o.conn_in.is_some() {
            Some(BlockCause::OutputBusy)
        } else if self.is_stopped(out) {
            Some(BlockCause::FlowStopped)
        } else {
            (self.want[out] & !(1 << p) != 0).then_some(BlockCause::Arbitration)
        }
    }

    /// Outputs with arbitration or transfer work this cycle: requested or
    /// connected, and not both connected and stopped.
    #[inline]
    pub(crate) fn busy_outputs(&self) -> u64 {
        (self.want_any | self.conn) & !(self.conn & self.stopped)
    }

    /// Arbitrate output `out` if it is free: demand-slotted round-robin
    /// over the inputs requesting it. `Requesting` → `Granted` for the
    /// winner, which is returned.
    #[inline]
    pub(crate) fn arbitrate(&mut self, out: usize) -> Option<u8> {
        if self.conn & (1 << out) != 0 {
            return None;
        }
        let o = self.outp[out].as_mut().expect("unconnected output port");
        let g = rr_grant(self.want[out], o.rr)?;
        o.conn_in = Some(g);
        o.rr = g;
        self.conn |= 1 << out;
        self.clear_want(out, g as usize);
        self.inp_mut(g as usize).head = HeadState::Granted;
        Some(g)
    }

    /// The input connected to output `out` and the channel it streams
    /// into, unless the output is unconnected or held by STOP.
    #[inline]
    pub(crate) fn open_connection(&self, out: usize) -> Option<(u8, u32)> {
        let o = self.outp[out].as_ref().expect("unconnected output port");
        let g = o.conn_in?;
        (!self.is_stopped(out)).then_some((g, o.out_chan))
    }

    /// Move one buffered flit of input `g`'s `Granted` head through the
    /// crossbar to output `out`; `None` when no flit is buffered. Returns
    /// the packet and the GO to send if the threshold was crossed. The
    /// worm's last flit releases the connection (`Granted` → `Idle`).
    /// Forced inline: called once per forwarded flit from each
    /// instantiation of the kernel, where a hint alone no longer suffices.
    #[inline(always)]
    pub(crate) fn forward_flit(&mut self, out: usize, g: u8) -> Option<(u32, Option<CtlOut>)> {
        let inp = self.inp_mut(g as usize);
        let head = inp.queue.head.as_mut().expect("granted without head");
        if head.available() == 0 {
            return None;
        }
        let pid = head.pid;
        head.forwarded += 1;
        let done = head.done();
        let ctl = inp.on_flit_out().map(|sym| (inp.in_chan, sym));
        if done {
            inp.queue.pop_front();
            inp.head = HeadState::Idle;
            self.outp[out]
                .as_mut()
                .expect("unconnected output port")
                .conn_in = None;
            self.conn &= !(1 << out);
            self.resident -= 1;
            self.sync_rcu(g as usize);
        }
        Some((pid, ctl))
    }

    /// Remove every queue entry of `pid` (a packet lost to a fault), head
    /// or not, in any head state, releasing its request or connection.
    /// `emit` receives the GO of each input the purge drains below the
    /// threshold, in ascending port order.
    pub(crate) fn purge(&mut self, pid: u32, mut emit: impl FnMut(CtlOut)) {
        if self.resident == 0 {
            return;
        }
        for k in 0..self.active_ports.len() {
            let p = self.active_ports[k] as usize;
            let inp = self.inp_mut(p);
            let Some(pos) = inp.queue.iter().position(|q| q.pid == pid) else {
                continue;
            };
            let entry = inp.queue.remove(pos).expect("position is in range");
            let flits = entry.available() as u16;
            let released = (pos == 0).then(|| std::mem::replace(&mut inp.head, HeadState::Idle));
            let out = inp.head_out as usize;
            if flits > 0 {
                if let Some(sym) = inp.on_flits_purged(flits) {
                    emit((inp.in_chan, sym));
                }
            }
            match released {
                Some(HeadState::Requesting) => self.clear_want(out, p),
                Some(HeadState::Granted) => {
                    if let Some(o) = self.outp.get_mut(out).and_then(|o| o.as_mut()) {
                        if o.conn_in == Some(p as u8) {
                            o.conn_in = None;
                            self.conn &= !(1 << out);
                        }
                    }
                }
                _ => {}
            }
            self.resident -= 1;
            self.sync_rcu(p);
        }
    }

    /// Test oracle: recompute every summary from the port state and assert
    /// it equals the maintained one, plus the head/queue/connection
    /// consistency the kernel relies on.
    pub(crate) fn check_invariants(&self) {
        let n = self.inp.len();
        let (mut rcu, mut conn, mut want_any, mut resident) = (0u64, 0u64, 0u64, 0usize);
        let mut want = vec![0u64; n];
        for (p, inp) in self.inp.iter().enumerate() {
            let Some(inp) = inp else { continue };
            resident += inp.queue.len();
            if inp.queue.is_empty() {
                assert_eq!(inp.head, HeadState::Idle, "in p{p}: head without packet");
                continue;
            }
            let out = inp.head_out as usize;
            let outp = self.outp.get(out).and_then(|o| o.as_ref());
            match inp.head {
                HeadState::Idle | HeadState::Routing { .. } => rcu |= 1 << p,
                HeadState::Requesting => {
                    if outp.is_some() {
                        want[out] |= 1 << p;
                        want_any |= 1 << out;
                    }
                }
                HeadState::Granted => assert_eq!(
                    outp.and_then(|o| o.conn_in),
                    Some(p as u8),
                    "in p{p}: granted head without its connection"
                ),
            }
        }
        for (o, outp) in self.outp.iter().enumerate() {
            assert!(
                outp.is_some() || !self.is_stopped(o),
                "STOP on missing p{o}"
            );
            let Some(g) = outp.as_ref().and_then(|o| o.conn_in) else {
                continue;
            };
            conn |= 1 << o;
            let inp = self.inp[g as usize].as_ref().expect("connected input");
            assert!(
                inp.head == HeadState::Granted && inp.head_out as usize == o,
                "out p{o}: connected to in p{g}, whose head is {:?} -> p{}",
                inp.head,
                inp.head_out
            );
        }
        assert_eq!(self.rcu, rcu, "rcu mask");
        assert_eq!(self.want, want, "want masks");
        assert_eq!(self.want_any, want_any, "want_any mask");
        assert_eq!(self.conn, conn, "conn mask");
        assert_eq!(self.resident as usize, resident, "resident count");
        assert_eq!(self.is_quiescent(), resident == 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The arbitration the kernel ran before the port masks: find `rr` in
    /// `active_ports`, then scan the ports after it in cyclic order for the
    /// first requester. Kept as the oracle for [`rr_grant`].
    fn reference_grant(active_ports: &[u8], rr: u8, requesting: u64) -> Option<u8> {
        let nports = active_ports.len();
        let start = active_ports
            .iter()
            .position(|&ap| ap == rr)
            .map(|i| i + 1)
            .unwrap_or(0);
        (0..nports)
            .map(|off| active_ports[(start + off) % nports])
            .find(|&cand| requesting & (1 << cand) != 0)
    }

    /// Every request subset of `active_ports`, with every `rr` the kernel
    /// can hold (the initial 0 or a previously granted, hence active, port).
    fn check_against_reference(active_ports: &[u8]) {
        let mut rrs = active_ports.to_vec();
        rrs.push(0);
        for subset in 0u32..1 << active_ports.len() {
            let requesting = active_ports
                .iter()
                .enumerate()
                .filter(|&(i, _)| subset & (1 << i) != 0)
                .fold(0u64, |m, (_, &p)| m | 1 << p);
            for &rr in &rrs {
                assert_eq!(
                    rr_grant(requesting, rr),
                    reference_grant(active_ports, rr, requesting),
                    "ports {active_ports:?} rr {rr} requesting {requesting:#b}"
                );
            }
        }
    }

    #[test]
    fn mask_grant_matches_the_scan_exhaustively() {
        // Dense switches of every size up to 16 ports.
        for n in 1..=16u8 {
            check_against_reference(&(0..n).collect::<Vec<_>>());
        }
        // Sparse ones: CPLANT leaves ports unconnected, and port 0 may be
        // among them while `rr` still holds its initial 0.
        for ports in [
            &[1u8, 2, 3][..],
            &[1, 3, 5, 7, 9, 11, 13, 15],
            &[0, 2, 4, 6, 8, 10, 12, 14],
            &[2, 3, 7, 8, 15],
            &[0, 15],
            &[5],
            &[0, 1, 2, 3, 8, 9, 10, 11, 12, 13, 14, 15],
        ] {
            check_against_reference(ports);
        }
    }

    #[test]
    fn grant_wraps_at_the_top_port_without_overflow() {
        let want = 1 << 63 | 1 << 5;
        assert_eq!(rr_grant(want, 63), Some(5));
        assert_eq!(rr_grant(want, 62), Some(63));
        assert_eq!(rr_grant(want, 5), Some(63));
        assert_eq!(rr_grant(1 << 63, 63), Some(63));
        assert_eq!(rr_grant(0, 63), None);
    }

    /// A 4-port switch with port 2 unconnected; input `p` hangs off channel
    /// `p`, output `p` drives channel `10 + p`.
    fn switch4() -> SwitchState {
        SwitchState::new((0..4u32).map(|p| (p != 2).then_some((p, 10 + p))))
    }

    /// Queue `pid` (4 flits at this receiver) at input `p`, all received.
    fn arrive(sw: &mut SwitchState, p: u8, pid: u32) {
        for _ in 0..4 {
            sw.flit_in(p, pid, || 4);
        }
        sw.check_invariants();
    }

    #[test]
    fn transitions_keep_the_masks_in_step() {
        let mut sw = switch4();
        assert_eq!(sw.active_ports, vec![0, 1, 3]);
        sw.check_invariants();
        assert!(sw.is_quiescent());

        // Two worms for output 3 on inputs 0 and 1, a second packet queued
        // behind the first on input 0.
        arrive(&mut sw, 0, 7);
        arrive(&mut sw, 0, 8);
        arrive(&mut sw, 1, 9);
        assert!(!sw.is_quiescent());
        assert_eq!(sw.rcu_ports(), 0b011);
        for p in [0, 1] {
            assert_eq!(sw.head(p), HeadState::Idle);
            sw.start_routing(p, 3, 24);
            sw.check_invariants();
            sw.request_output(p);
            sw.check_invariants();
        }
        assert_eq!((sw.rcu_ports(), sw.busy_outputs()), (0, 0b1000));
        assert_eq!(sw.block_cause(0), Some(BlockCause::Arbitration));

        // rr starts at 0, so input 1 wins; input 0 keeps requesting.
        assert_eq!(sw.arbitrate(3), Some(1));
        sw.check_invariants();
        assert_eq!(sw.arbitrate(3), None);
        assert_eq!(sw.block_cause(0), Some(BlockCause::OutputBusy));
        assert_eq!(sw.open_connection(3), Some((1, 13)));

        // Three forwardable flits (the header byte was consumed); the last
        // one releases the connection and empties input 1.
        for left in (0..3).rev() {
            assert_eq!(sw.forward_flit(3, 1), Some((9, None)));
            sw.check_invariants();
            assert_eq!(sw.open_connection(3).is_some(), left > 0);
        }
        assert_eq!(sw.arbitrate(3), Some(0));
        for _ in 0..3 {
            sw.forward_flit(3, 0);
            sw.check_invariants();
        }
        // Packet 8 moved up to the head of input 0: routing work again.
        assert_eq!((sw.head_pid(0), sw.rcu_ports()), (8, 0b001));
    }

    #[test]
    fn requesting_a_port_that_does_not_exist_stays_resident() {
        for out in [2u8, 4, 200] {
            let mut sw = switch4();
            arrive(&mut sw, 0, 7);
            sw.start_routing(0, out, 24);
            assert_eq!(sw.out_chan(out), None);
            sw.request_output(0);
            sw.check_invariants();
            // Nothing to arbitrate, but the switch is not retired before
            // the loss phase purges the packet.
            assert_eq!((sw.rcu_ports(), sw.busy_outputs()), (0, 0));
            assert_eq!(sw.block_cause(0), None);
            assert!(!sw.is_quiescent());
            sw.purge(7, |_| {});
            sw.check_invariants();
            assert!(sw.is_quiescent());
        }
    }

    #[test]
    fn purge_releases_the_head_in_every_state() {
        // How far the victim's head gets before the purge.
        for stage in 0..4 {
            let mut sw = switch4();
            arrive(&mut sw, 0, 7);
            arrive(&mut sw, 0, 8);
            if stage >= 1 {
                sw.start_routing(0, 1, 24);
            }
            if stage >= 2 {
                sw.request_output(0);
            }
            if stage >= 3 {
                assert_eq!(sw.arbitrate(1), Some(0));
                sw.forward_flit(1, 0);
            }
            sw.purge(7, |_| {});
            sw.check_invariants();
            // The follower is the head now and starts from scratch.
            assert_eq!((sw.head_pid(0), sw.head(0)), (8, HeadState::Idle));
            assert_eq!((sw.rcu_ports(), sw.busy_outputs()), (0b001, 0));
            assert_eq!(sw.inp[0].as_ref().unwrap().occ, 4);
        }
        // A non-head entry: the head keeps its connection.
        let mut sw = switch4();
        arrive(&mut sw, 0, 7);
        arrive(&mut sw, 0, 8);
        sw.start_routing(0, 1, 24);
        sw.request_output(0);
        assert_eq!(sw.arbitrate(1), Some(0));
        sw.purge(8, |_| {});
        sw.check_invariants();
        assert_eq!((sw.head_pid(0), sw.head(0)), (7, HeadState::Granted));
        assert_eq!(sw.open_connection(1), Some((0, 11)));
    }

    #[test]
    fn purge_reports_the_go_it_triggers() {
        let mut sw = switch4();
        // One long packet fills input 3 past the STOP threshold.
        let mut stop = None;
        for _ in 0..60 {
            stop = stop.or(sw.flit_in(3, 7, || 100).1);
        }
        assert_eq!(stop, Some((3, CTL_STOP)));
        let mut go = Vec::new();
        sw.purge(7, |c| go.push(c));
        assert_eq!(go, vec![(3, CTL_GO)]);
        sw.check_invariants();
    }

    #[test]
    fn stop_go_thresholds() {
        let mut p = InPort::new(0);
        let mut stop_at = None;
        for i in 1..=60u16 {
            if p.on_flit_in() == Some(CTL_STOP) {
                stop_at = Some(i);
                break;
            }
        }
        // STOP when occupancy *exceeds* 56.
        assert_eq!(stop_at, Some(57));
        assert!(p.stop_sent);
        // No repeated STOP while draining slightly.
        let mut go_at = None;
        for i in 1..=60u16 {
            if p.on_flit_out() == Some(CTL_GO) {
                go_at = Some(i);
                break;
            }
        }
        // occ 57 -> GO when it drops *below* 40, i.e. at 39 (18 drains).
        assert_eq!(go_at, Some(18));
        assert!(!p.stop_sent);
    }

    #[test]
    fn no_spurious_signals() {
        let mut p = InPort::new(0);
        for _ in 0..20 {
            assert_eq!(p.on_flit_in(), None);
        }
        for _ in 0..20 {
            assert_eq!(p.on_flit_out(), None);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The inline-head queue against the plain `VecDeque` it replaced:
        /// the same packets, in the same order, after every operation.
        #[test]
        fn port_queue_matches_a_vecdeque(script in prop::collection::vec((0u8..5, any::<u8>()), 1..60)) {
            let (mut q, mut model) = (PortQueue::default(), VecDeque::new());
            for (i, (op, x)) in script.into_iter().enumerate() {
                let pkt = InPkt {
                    pid: i as u32,
                    expected: 8,
                    received: u32::from(x % 8),
                    forwarded: 0,
                    header_consumed: x % 2 == 0,
                };
                match op {
                    0 => {
                        q.push_back(pkt);
                        model.push_back(pkt);
                    }
                    1 => prop_assert_eq!(q.pop_front(), model.pop_front()),
                    2 => {
                        let pos = usize::from(x) % (model.len() + 1);
                        prop_assert_eq!(q.remove(pos), model.remove(pos));
                    }
                    3 => {
                        if let Some(back) = q.back_mut() {
                            back.received += 1;
                        }
                        if let Some(back) = model.back_mut() {
                            back.received += 1;
                        }
                    }
                    _ => prop_assert_eq!(q.front(), model.front()),
                }
                prop_assert!(q.iter().eq(model.iter()));
                prop_assert_eq!((q.front(), q.back()), (model.front(), model.back()));
                prop_assert_eq!((q.len(), q.is_empty()), (model.len(), model.is_empty()));
            }
        }
    }

    #[test]
    fn inpkt_accounting() {
        let mut pkt = InPkt {
            pid: 1,
            expected: 10,
            received: 1,
            forwarded: 0,
            header_consumed: false,
        };
        assert_eq!(pkt.available(), 1);
        pkt.header_consumed = true;
        assert_eq!(pkt.available(), 0);
        pkt.received = 10;
        assert_eq!(pkt.available(), 9);
        pkt.forwarded = 9;
        assert_eq!(pkt.available(), 0);
        assert!(pkt.done());
    }
}
