//! The cables: unidirectional pipelined channels with reverse-direction
//! stop/go control, stored once.
//!
//! Every channel has the same delay, so a flit or control symbol written
//! at cycle `c` arrives at exactly `c + delay`. [`Channels`] is a table
//! indexed by arrival cycle: row `c % delay` holds each channel's data flit
//! and control symbol arriving at `c`, an occupancy bit per channel and a
//! summary bit per non-empty occupancy word. A write sets slot and bit in
//! one call. The engine walks a row's bits in ascending channel order, the
//! scan oracle's order; the time skip reads the summary words of the rows
//! ahead, for the cycle of the next arrival ([`Channels::next_arrival`]).
//!
//! A channel may also carry a [`Stream`]: one packet's flits sent on
//! consecutive cycles by a sender the engine does not visit meanwhile (a
//! steady run, `kernel.rs`). Those flits occupy no slot; the table counts
//! them off to the sender and the receiver when either is settled, and
//! writes the last one into its slot when the run ends, so that the end of
//! a run is an ordinary arrival. The scan oracle never starts one.

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

/// What a slot holds when nothing arrives in it.
trait Slot: Copy + PartialEq {
    const EMPTY: Self;
}
impl Slot for u32 {
    const EMPTY: u32 = NO_PACKET;
}
impl Slot for u8 {
    const EMPTY: u8 = CTL_NONE;
}

/// A cycle and its row of the table, `cycle % delay`: the one division a
/// step makes ([`Channels::row`]), however many flits and symbols it moves.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row {
    cycle: u64,
    idx: usize,
}

/// A walk over one row: its summary word, and the occupancy word it copied
/// out minus the channels already visited.
#[derive(Debug, Default)]
pub(crate) struct Drain {
    sum: usize,
    base: u32,
    bits: u64,
}

/// The bit of `Stream::end` that marks a run whose sender still streams:
/// set, it puts `end` above every cycle, as an open end must be.
const OPEN: u64 = 1 << 63;

/// One packet's flits sent on every cycle of `start..end` and held in no
/// slot. While the run lasts `end` has the [`OPEN`] bit set, and the bits
/// below it hold the run's next event, the cycle its sender must be
/// visited at, as the visit that started or resumed the run worked it out
/// (the record has no room for another word). A visit of the sender sets
/// `end` to the visit's cycle, and a send that cycle extends it by one
/// ([`Channels::extend`]). The sender's state holds the first `sent`
/// sends, the receiver's the first `recv` arrivals (counts, so that a
/// record is 32 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Stream {
    start: u64,
    end: u64,
    pub pid: u32,
    sent: u32,
    recv: u32,
    /// The sender's run is over: only arrivals are left to count.
    closed: bool,
}

const _: () = assert!(std::mem::size_of::<Option<Stream>>() == 32);

impl Stream {
    /// The sender's state holds the sends before this cycle.
    #[inline]
    fn sent_to(&self) -> u64 {
        self.start + u64::from(self.sent)
    }

    /// The receiver's state holds the arrivals before this cycle.
    #[inline]
    fn recv_to(&self, delay: u64) -> u64 {
        self.start + delay + u64::from(self.recv)
    }

    /// Every flit sent is counted off to the receiver.
    #[inline]
    fn drained(&self, delay: u64) -> bool {
        self.closed && self.recv_to(delay) >= self.end + delay
    }

    /// Does the sender still stream (not suspended by a visit, not over)?
    #[inline]
    pub(crate) fn running(&self) -> bool {
        self.end & OPEN != 0
    }

    /// The next event of a running run.
    #[inline]
    pub(crate) fn due(&self) -> u64 {
        debug_assert!(self.running());
        self.end & !OPEN
    }

    /// Is the sender's run stopped by a visit in progress?
    #[inline]
    pub(crate) fn suspended(&self) -> bool {
        !self.closed && !self.running()
    }

    /// Do flits of this stream arrive on every cycle from `cycle` until an
    /// ordinary arrival, the last flit, is delivered? True from the first
    /// flit's arrival on, for as long as the record exists.
    #[inline]
    pub(crate) fn arriving(&self, cycle: u64, delay: u64) -> bool {
        self.start + delay <= cycle
    }
}

/// One direction of every cable: `delay` rows of one slot per channel.
/// A bit is set iff its slot is full, except in the word a [`Drain`] has
/// copied out and cleared but not yet handed out in full.
#[derive(Debug)]
struct Lane<T> {
    n: usize,
    /// Occupancy words and summary words per row.
    words: usize,
    sums: usize,
    /// `slots[row * n + ci]`.
    slots: Box<[T]>,
    /// `bits[row * words + ci / 64]`, bit `ci % 64`: that slot is full.
    bits: Box<[u64]>,
    /// `summary[row * sums + w / 64]`, bit `w % 64`: occupancy word `w`
    /// of the row is not zero.
    summary: Box<[u64]>,
    /// Full slots over all rows.
    set: usize,
}

impl<T: Slot> Lane<T> {
    fn new(rows: usize, n: usize) -> Lane<T> {
        let words = n.div_ceil(64);
        let sums = words.div_ceil(64);
        Lane {
            n,
            words,
            sums,
            slots: vec![T::EMPTY; rows * n].into(),
            bits: vec![0; rows * words].into(),
            summary: vec![0; rows * sums].into(),
            set: 0,
        }
    }

    /// Does a slot of `row` hold something? One summary word up to 4,096
    /// channels.
    #[inline]
    fn row_full(&self, row: usize) -> bool {
        if self.sums == 1 {
            self.summary[row] != 0
        } else {
            let sums = &self.summary[row * self.sums..(row + 1) * self.sums];
            sums.iter().any(|&s| s != 0)
        }
    }

    /// Write `v` into channel `ci`'s slot of `row`; returns what it held.
    #[inline]
    fn put(&mut self, row: usize, ci: u32, v: T) -> T {
        let old = std::mem::replace(&mut self.slots[row * self.n + ci as usize], v);
        if old == T::EMPTY {
            let w = ci as usize / 64;
            let word = &mut self.bits[row * self.words + w];
            if *word == 0 {
                self.summary[row * self.sums + w / 64] |= 1 << (w % 64);
            }
            *word |= 1 << (ci % 64);
            self.set += 1;
        }
        old
    }

    /// Empty channel `ci`'s slot of `row`; returns what it held.
    #[inline]
    fn take(&mut self, row: usize, ci: u32) -> T {
        let old = std::mem::replace(&mut self.slots[row * self.n + ci as usize], T::EMPTY);
        if old != T::EMPTY {
            let w = ci as usize / 64;
            let word = &mut self.bits[row * self.words + w];
            *word &= !(1 << (ci % 64));
            if *word == 0 {
                self.summary[row * self.sums + w / 64] &= !(1 << (w % 64));
            }
            self.set -= 1;
        }
        old
    }

    /// The next full slot of `row` in ascending channel order, emptied (an
    /// empty lane answers at once). Copies and clears one occupancy word at
    /// a time: sound while nothing writes `row` until the walk ends.
    #[inline]
    fn next(&mut self, row: usize, d: &mut Drain) -> Option<(u32, T)> {
        if d.bits == 0 {
            if self.set == 0 {
                return None;
            }
            let sums = &mut self.summary[row * self.sums..(row + 1) * self.sums];
            let (s, sum) = sums
                .iter_mut()
                .enumerate()
                .skip(d.sum)
                .find(|(_, s)| **s != 0)?;
            let w = s * 64 + sum.trailing_zeros() as usize;
            *sum &= *sum - 1;
            d.sum = s;
            d.base = (w * 64) as u32;
            d.bits = std::mem::take(&mut self.bits[row * self.words + w]);
        }
        self.set -= 1;
        let ci = d.base + d.bits.trailing_zeros();
        d.bits &= d.bits - 1;
        let v = std::mem::replace(&mut self.slots[row * self.n + ci as usize], T::EMPTY);
        Some((ci, v))
    }
}

/// Every channel of the network: its ends, fault state and utilization
/// counter, and its pipeline in the arrival-cycle table (module docs).
#[derive(Debug)]
pub(crate) struct Channels {
    delay: u64,
    ends: Box<[(Sender, Receiver)]>,
    /// A dead channel eats every flit and symbol offered to it (cable fault).
    dead: Box<[bool]>,
    /// Data flits delivered per channel since the last `reset_busy`.
    busy: Box<[u64]>,
    data: Lane<u32>,
    ctl: Lane<u8>,
    /// Cycle of each channel's last control send, for the check that a
    /// send never destroys an undelivered symbol.
    ctl_sent_at: Box<[u64]>,
    /// Each channel's run, if it carries one.
    streams: Box<[Option<Stream>]>,
    /// Channels with a run.
    n_streams: usize,
    /// The channel into each host's NIC.
    nic_in: Box<[u32]>,
    /// Per switch, a bit per port whose input channel carries a run, and
    /// one per port whose output channel does.
    runs_in: Box<[u64]>,
    runs_out: Box<[u64]>,
}

impl Channels {
    /// Channel `i` runs from `ends[i].0` to `ends[i].1`.
    pub(crate) fn new(ends: Vec<(Sender, Receiver)>, delay: u32) -> Channels {
        assert!(delay > 0);
        let (rows, n) = (delay as usize, ends.len());
        let mut nic_in = Vec::new();
        let switches = ends
            .iter()
            .map(|&(sender, receiver)| match (sender, receiver) {
                (Sender::SwitchOut { sw, .. }, _) | (_, Receiver::SwitchIn { sw, .. }) => {
                    sw as usize + 1
                }
                _ => 0,
            });
        let switches = switches.max().unwrap_or(0);
        for (ci, &(_, receiver)) in ends.iter().enumerate() {
            if let Receiver::Nic { host } = receiver {
                let h = host as usize;
                if nic_in.len() <= h {
                    nic_in.resize(h + 1, u32::MAX);
                }
                nic_in[h] = ci as u32;
            }
        }
        Channels {
            delay: delay as u64,
            ends: ends.into(),
            dead: vec![false; n].into(),
            busy: vec![0; n].into(),
            data: Lane::new(rows, n),
            ctl: Lane::new(rows, n),
            ctl_sent_at: vec![0; n].into(),
            streams: vec![None; n].into(),
            n_streams: 0,
            nic_in: nic_in.into(),
            runs_in: vec![0; switches].into(),
            runs_out: vec![0; switches].into(),
        }
    }

    /// The cycles a flit spends on a cable.
    #[inline]
    pub(crate) fn delay(&self) -> u64 {
        self.delay
    }

    /// The channel into NIC `host`.
    #[inline]
    pub(crate) fn nic_in(&self, host: u32) -> u32 {
        self.nic_in[host as usize]
    }

    /// The row `cycle`'s arrivals are read from and its sends written to.
    /// A mask, not a division, for the Myrinet delay of 8.
    #[inline]
    pub(crate) fn row(&self, cycle: u64) -> Row {
        let idx = if self.delay.is_power_of_two() {
            cycle & (self.delay - 1)
        } else {
            cycle % self.delay
        };
        Row {
            cycle,
            idx: idx as usize,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    #[inline]
    pub(crate) fn sender(&self, ci: u32) -> Sender {
        self.ends[ci as usize].0
    }

    #[inline]
    pub(crate) fn receiver(&self, ci: u32) -> Receiver {
        self.ends[ci as usize].1
    }

    #[inline]
    pub(crate) fn is_dead(&self, ci: u32) -> bool {
        self.dead[ci as usize]
    }

    /// Send one flit of `packet` on `ci` at `row`'s cycle; it arrives
    /// `delay` cycles later. Must be called after that cycle's arrivals
    /// were taken. A dead channel silently eats the flit — the sender
    /// cannot tell (Myrinet links carry no acknowledgement; loss is
    /// detected end-to-end).
    #[inline]
    pub(crate) fn send(&mut self, row: Row, ci: u32, packet: u32) {
        if self.dead[ci as usize] {
            return;
        }
        let old = self.data.put(row.idx, ci, packet);
        debug_assert_eq!(old, NO_PACKET, "channel slot collision");
    }

    /// Emit a stop/go symbol on `ci` towards its sender, `delay` cycles
    /// away (inline in Myrinet: no data bandwidth used); a dead cable eats
    /// it. Call after this cycle's [`take_ctl`](Channels::take_ctl): the
    /// only legal overwrite is a supersede within the *same* cycle (e.g. a
    /// purge's GO replacing this cycle's STOP).
    #[inline]
    pub(crate) fn send_ctl(&mut self, row: Row, ci: u32, symbol: u8) {
        if self.dead[ci as usize] {
            return;
        }
        let old = self.ctl.put(row.idx, ci, symbol);
        debug_assert!(
            old == CTL_NONE || self.ctl_sent_at[ci as usize] == row.cycle,
            "send would clobber an undelivered control symbol \
             (call take_ctl for this cycle first)"
        );
        self.ctl_sent_at[ci as usize] = row.cycle;
    }

    /// Take the data flit arriving on `ci` at `row`'s cycle, if any: the
    /// scan oracle's visit.
    #[inline]
    pub(crate) fn take_data(&mut self, row: Row, ci: u32) -> Option<u32> {
        let pid = self.data.take(row.idx, ci);
        self.busy[ci as usize] += u64::from(pid != NO_PACKET);
        (pid != NO_PACKET).then_some(pid)
    }

    /// Take the control symbol arriving on `ci` at `row`'s cycle
    /// (`CTL_NONE` if there is none).
    #[inline]
    pub(crate) fn take_ctl(&mut self, row: Row, ci: u32) -> u8 {
        self.ctl.take(row.idx, ci)
    }

    /// The engine's visit: the next `(channel, packet)` whose flit arrives
    /// at `row`'s cycle, in ascending channel order. Nothing may send data
    /// until the walk has returned `None`.
    #[inline]
    pub(crate) fn next_data(&mut self, row: Row, d: &mut Drain) -> Option<(u32, u32)> {
        let (ci, pid) = self.data.next(row.idx, d)?;
        self.busy[ci as usize] += 1;
        Some((ci, pid))
    }

    /// [`next_data`](Channels::next_data) for the control symbols.
    #[inline]
    pub(crate) fn next_ctl(&mut self, row: Row, d: &mut Drain) -> Option<(u32, u8)> {
        self.ctl.next(row.idx, d)
    }

    /// Flits and control symbols in slots: the full slots of every row.
    /// A run's flits hold no slot and are not counted: its sender's next
    /// event is in the wake-up calendar. O(1); zero is the time skip's "no
    /// slot has work".
    pub(crate) fn in_flight(&self) -> usize {
        self.data.set + self.ctl.set
    }

    /// The first cycle from `cycle` on at which a data flit or a control
    /// symbol arrives from a slot; `u64::MAX` if no slot is full. Row
    /// `(cycle + k) % delay` holds the arrivals of `cycle + k` for `k <
    /// delay`, so the rows before the one found are empty. A run's flits
    /// hold no slot and do not count. The time skip asks before every
    /// step, so `cycle`'s own row is read first. Call it between steps: a row walk in progress has cleared summary
    /// bits of flits it has not handed out yet.
    #[inline]
    pub(crate) fn next_arrival(&self, cycle: u64) -> u64 {
        let full = |r: usize| self.data.row_full(r) || self.ctl.row_full(r);
        let (rows, mut r) = (self.delay as usize, self.row(cycle).idx);
        if full(r) {
            return cycle;
        }
        for k in 1..self.delay {
            r = if r + 1 == rows { 0 } else { r + 1 };
            if full(r) {
                return cycle + k;
            }
        }
        u64::MAX
    }

    /// Does any slot hold a flit or a symbol, or any channel carry a run?
    /// A raw scan that ignores the occupancy bits, for the time skip's
    /// cross-check.
    pub(crate) fn any_slot_full(&self) -> bool {
        self.data.slots.iter().any(|&v| v != NO_PACKET)
            || self.ctl.slots.iter().any(|&v| v != CTL_NONE)
            || self.streams.iter().any(Option::is_some)
    }

    /// Any data flits in flight on `ci`?
    pub(crate) fn has_data_in_flight(&self, ci: u32) -> bool {
        let rows = self.data.slots.iter().skip(ci as usize);
        self.streams[ci as usize].is_some() || rows.step_by(self.len()).any(|&v| v != NO_PACKET)
    }

    // ---- Runs (module docs). ----

    /// Channels that carry a run.
    #[inline]
    pub(crate) fn streams(&self) -> usize {
        self.n_streams
    }

    /// Channel `ci`'s run, if it carries one.
    #[inline]
    pub(crate) fn stream(&self, ci: u32) -> Option<&Stream> {
        self.streams[ci as usize].as_ref()
    }

    /// The ports of switch `sw` whose input channel carries a run.
    #[inline]
    pub(crate) fn runs_in(&self, sw: u32) -> u64 {
        self.runs_in[sw as usize]
    }

    /// The ports of switch `sw` whose output channel carries a run.
    #[inline]
    pub(crate) fn runs_out(&self, sw: u32) -> u64 {
        self.runs_out[sw as usize]
    }

    /// Set or clear the port bits of `ci`'s ends.
    #[inline]
    fn mark(&mut self, ci: u32, on: bool) {
        let (sender, receiver) = self.ends[ci as usize];
        let set = |mask: &mut u64, port: u8| {
            *mask = (*mask & !(1 << port)) | (u64::from(on) << port);
        };
        if let Sender::SwitchOut { sw, port } = sender {
            set(&mut self.runs_out[sw as usize], port);
        }
        if let Receiver::SwitchIn { sw, port } = receiver {
            set(&mut self.runs_in[sw as usize], port);
        }
    }

    /// `ci`'s run leaves the channel.
    #[inline]
    fn drop_stream(&mut self, ci: u32) -> Option<Stream> {
        let st = self.streams[ci as usize].take()?;
        self.n_streams -= 1;
        self.mark(ci, false);
        Some(st)
    }

    /// The sender of `ci` sent a flit of `pid` at `start - 1` and streams
    /// one more every cycle from `start` on, until its next event at
    /// `due`. The channel must carry no run.
    pub(crate) fn open(&mut self, ci: u32, pid: u32, start: u64, due: u64) {
        let slot = &mut self.streams[ci as usize];
        debug_assert!(slot.is_none(), "a second run on channel {ci}");
        debug_assert!(due < OPEN);
        *slot = Some(Stream {
            start,
            end: OPEN | due,
            pid,
            sent: 0,
            recv: 0,
            closed: false,
        });
        self.n_streams += 1;
        self.mark(ci, true);
    }

    /// Count off the sends of `ci`'s run before `upto` that its sender's
    /// state does not hold yet: `(packet, sends, cycle of the last)`.
    #[inline]
    pub(crate) fn take_sends(&mut self, ci: u32, upto: u64) -> Option<(u32, u32, u64)> {
        let st = self.streams[ci as usize].as_mut()?;
        let to = upto.min(st.end);
        if to <= st.sent_to() {
            return None;
        }
        let n = (to - st.sent_to()) as u32;
        st.sent += n;
        Some((st.pid, n, to - 1))
    }

    /// Count off the arrivals of `ci`'s run before `upto` that its
    /// receiver's state does not hold yet, as busy cycles of the channel:
    /// `(packet, arrivals, cycle of the last)`. A closed run whose last
    /// virtual flit is counted off leaves the channel.
    #[inline]
    pub(crate) fn take_arrivals(&mut self, ci: u32, upto: u64) -> Option<(u32, u32, u64)> {
        let delay = self.delay;
        let st = self.streams[ci as usize].as_mut()?;
        let to = upto.min(st.end.saturating_add(delay));
        let counted = (to > st.recv_to(delay)).then(|| {
            let n = (to - st.recv_to(delay)) as u32;
            st.recv += n;
            (st.pid, n, to - 1)
        });
        if st.drained(delay) {
            self.drop_stream(ci);
        }
        if let Some((_, n, _)) = counted {
            self.busy[ci as usize] += u64::from(n);
        }
        counted
    }

    /// The flit of `ci`'s run arriving at `cycle`, taken like a slot's
    /// (all earlier arrivals must have been counted off).
    #[inline]
    pub(crate) fn take_arrival_at(&mut self, ci: u32, cycle: u64) -> Option<u32> {
        let st = self.streams[ci as usize].as_ref()?;
        if st.recv_to(self.delay) != cycle || cycle >= st.end.saturating_add(self.delay) {
            return None;
        }
        debug_assert!(cycle >= st.start + self.delay);
        self.take_arrivals(ci, cycle + 1).map(|(pid, _, _)| pid)
    }

    /// A visit of the sender at `cycle`: the run stops streaming there.
    /// Its sends before `cycle` must have been counted off.
    #[inline]
    pub(crate) fn suspend(&mut self, ci: u32, cycle: u64) {
        let st = self.streams[ci as usize].as_mut().expect("no run");
        debug_assert!(st.running() && st.sent_to() == cycle);
        st.end = cycle;
    }

    /// A send of `pid` at `cycle` by the sender of a run suspended at
    /// `cycle`: the run takes the flit (the sender's state already holds
    /// it). False for any other send, which goes into a slot.
    #[inline]
    pub(crate) fn extend(&mut self, ci: u32, pid: u32, cycle: u64) -> bool {
        match self.streams[ci as usize].as_mut() {
            Some(st) if !st.closed && st.end == cycle && st.pid == pid => {
                st.end = cycle + 1;
                st.sent += 1;
                true
            }
            _ => false,
        }
    }

    /// Did the sender of `ci` send a flit of `pid` at `cycle`, into the run
    /// or into a slot? Valid after the cycle's arrivals were taken.
    #[inline]
    pub(crate) fn sent_at(&self, ci: u32, pid: u32, cycle: u64) -> bool {
        match self.stream(ci) {
            Some(st) if st.suspended() => st.end == cycle + 1 && st.pid == pid,
            _ => self.data.slots[self.row(cycle).idx * self.data.n + ci as usize] == pid,
        }
    }

    /// A suspended run streams again, until its next event at `due`.
    #[inline]
    pub(crate) fn resume(&mut self, ci: u32, due: u64) {
        let st = self.streams[ci as usize].as_mut().expect("no run");
        debug_assert!(st.suspended() && due < OPEN);
        st.end = OPEN | due;
    }

    /// A suspended run is over. Its last flit goes into its slot, so that
    /// the receiver takes it as an ordinary arrival; a run that never sent
    /// a flit leaves the channel at once.
    pub(crate) fn close(&mut self, ci: u32) {
        let delay = self.delay;
        let st = self.streams[ci as usize].as_mut().expect("no run");
        debug_assert!(st.suspended() && st.sent_to() == st.end);
        st.closed = true;
        if st.end > st.start {
            st.end -= 1;
            let (pid, last) = (st.pid, st.end);
            let old = self.data.put((last % delay) as usize, ci, pid);
            debug_assert_eq!(old, NO_PACKET, "a run's last flit over a slot");
        }
        if st.drained(delay) {
            self.drop_stream(ci);
        }
    }

    /// Fault handling: put every flit of `ci`'s run still in flight at
    /// `cycle` into its slot and drop the run. Sender and receiver must
    /// hold every send and arrival before `cycle`.
    pub(crate) fn unstream(&mut self, ci: u32, cycle: u64) {
        let Some(st) = self.drop_stream(ci) else {
            return;
        };
        let to = cycle.min(st.end);
        debug_assert!(st.closed || st.sent_to() == to);
        debug_assert!(st.recv_to(self.delay) >= cycle.min(st.end.saturating_add(self.delay)));
        for sent in cycle.saturating_sub(self.delay).max(st.start)..to {
            let old = self.data.put((sent % self.delay) as usize, ci, st.pid);
            debug_assert_eq!(old, NO_PACKET, "a run's flit over a slot");
        }
    }

    /// The data slots as the scan oracle holds them at `cycle`, flits of
    /// runs included: `(row, channel, packet)` of every flit in flight, in
    /// row-major order.
    pub(crate) fn flits_in_flight(&self, cycle: u64) -> Vec<(usize, u32, u32)> {
        let n = self.len();
        let mut slots = self.data.slots.to_vec();
        for (ci, st) in self.streams.iter().enumerate() {
            let Some(st) = st else { continue };
            let to = cycle.min(st.end);
            for sent in cycle.saturating_sub(self.delay).max(st.start)..to {
                slots[(sent % self.delay) as usize * n + ci] = st.pid;
            }
        }
        let full = slots
            .into_iter()
            .enumerate()
            .filter(|&(_, v)| v != NO_PACKET);
        full.map(|(i, v)| (i / n, (i % n) as u32, v)).collect()
    }

    /// What the state hash reads besides the data slots: dead cables, busy
    /// counts, control slots and the cycle of each channel's last control
    /// send.
    pub(crate) fn control_state(&self) -> (&[bool], &[u64], &[u8], &[u64]) {
        (&self.dead, &self.busy, &self.ctl.slots, &self.ctl_sent_at)
    }

    /// Data flits observed per channel since the last
    /// [`reset_busy`](Channels::reset_busy).
    pub(crate) fn busy(&self) -> &[u64] {
        &self.busy
    }

    /// Reset the utilization counters (start of the measurement window).
    pub(crate) fn reset_busy(&mut self) {
        self.busy.fill(0);
    }

    /// Kill channel `ci`: every flit and symbol in flight on it is lost.
    /// Returns the distinct packet ids whose flits were destroyed (the
    /// victims' worms have been truncated — the upstream state must be
    /// purged by the caller).
    pub(crate) fn fail(&mut self, ci: u32) -> Vec<u32> {
        let mut victims = Vec::new();
        for row in 0..self.delay as usize {
            self.ctl.take(row, ci);
            victims.push(self.data.take(row, ci));
        }
        victims.retain(|&v| v != NO_PACKET);
        victims.sort_unstable();
        victims.dedup();
        self.dead[ci as usize] = true;
        victims
    }

    /// Bring a repaired channel back into service (empty: see `send`).
    pub(crate) fn repair(&mut self, ci: u32) {
        self.dead[ci as usize] = false;
    }

    /// Drop every in-flight flit of one packet (its worm is being purged
    /// after a fault elsewhere on its path).
    pub(crate) fn purge(&mut self, pid: u32) {
        let n = self.len();
        for i in 0..self.data.slots.len() {
            if self.data.slots[i] == pid {
                self.data.take(i / n, (i % n) as u32);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A table of `n` host-to-switch channels with pipeline `delay`.
    pub(crate) fn table(n: usize, delay: u32) -> Channels {
        let end = (
            Sender::Nic { host: 0 },
            Receiver::SwitchIn { sw: 0, port: 0 },
        );
        Channels::new(vec![end; n], delay)
    }

    /// The engine's walk over this cycle's data row.
    pub(crate) fn drain_data(c: &mut Channels, cycle: u64) -> Vec<(u32, u32)> {
        let mut d = Drain::default();
        std::iter::from_fn(|| c.next_data(c.row(cycle), &mut d)).collect()
    }

    /// The engine's walk over this cycle's control row.
    pub(crate) fn drain_ctl(c: &mut Channels, cycle: u64) -> Vec<(u32, u8)> {
        let mut d = Drain::default();
        std::iter::from_fn(|| c.next_ctl(c.row(cycle), &mut d)).collect()
    }

    fn chan() -> Channels {
        table(1, 8)
    }

    #[test]
    fn flit_takes_delay_cycles() {
        let mut c = chan();
        c.send(c.row(100), 0, 42);
        for cyc in 101..108 {
            assert_eq!(c.take_data(c.row(cyc), 0), None);
        }
        assert_eq!(c.take_data(c.row(108), 0), Some(42));
        assert_eq!(c.take_data(c.row(108), 0), None, "slot freed after take");
        assert!(!c.has_data_in_flight(0));
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn back_to_back_flits() {
        let mut c = chan();
        for i in 0..20u64 {
            // Receiver first, sender second, every cycle.
            let got = c.take_data(c.row(i), 0);
            if i >= 8 {
                assert_eq!(got, Some((i - 8) as u32));
            } else {
                assert_eq!(got, None);
            }
            c.send(c.row(i), 0, i as u32);
        }
        assert_eq!(c.busy(), [12]);
    }

    #[test]
    fn control_symbols_travel_independently() {
        let mut c = chan();
        c.send(c.row(50), 0, 7);
        c.send_ctl(c.row(50), 0, CTL_STOP);
        assert_eq!(c.take_ctl(c.row(57), 0), CTL_NONE);
        assert_eq!(c.take_ctl(c.row(58), 0), CTL_STOP);
        assert_eq!(c.take_ctl(c.row(58), 0), CTL_NONE);
        assert_eq!(c.take_data(c.row(58), 0), Some(7));
    }

    #[test]
    #[should_panic(expected = "slot collision")]
    #[cfg_attr(not(debug_assertions), ignore = "a debug assertion")]
    fn double_send_panics_in_debug() {
        let mut c = chan();
        c.send(c.row(10), 0, 1);
        c.send(c.row(10), 0, 2);
    }

    #[test]
    #[should_panic(expected = "undelivered control symbol")]
    #[cfg_attr(not(debug_assertions), ignore = "a debug assertion")]
    fn misordered_ctl_send_panics_in_debug() {
        let mut c = chan();
        c.send_ctl(c.row(10), 0, CTL_STOP);
        // Cycle 18 reuses row 10 % 8, and the STOP arriving right now has
        // not been taken: without the check it would vanish silently.
        c.send_ctl(c.row(18), 0, CTL_GO);
    }

    #[test]
    fn ctl_send_after_take_is_ordered() {
        let mut c = chan();
        c.send_ctl(c.row(10), 0, CTL_STOP);
        assert_eq!(c.take_ctl(c.row(18), 0), CTL_STOP);
        c.send_ctl(c.row(18), 0, CTL_GO); // slot freed by the take: legal
        assert_eq!(c.take_ctl(c.row(26), 0), CTL_GO);
    }

    #[test]
    fn same_cycle_ctl_supersede_is_allowed() {
        let mut c = chan();
        // A purge's GO may overwrite a STOP sent earlier the same cycle;
        // the receiver sees only the final symbol.
        c.send_ctl(c.row(5), 0, CTL_STOP);
        c.send_ctl(c.row(5), 0, CTL_GO);
        assert_eq!(c.in_flight(), 1, "one slot, one bit");
        assert_eq!(drain_ctl(&mut c, 13), [(0, CTL_GO)]);
    }

    #[test]
    fn fail_truncates_and_repair_restores() {
        let mut c = chan();
        c.send(c.row(0), 0, 5);
        c.send(c.row(1), 0, 5);
        c.send(c.row(2), 0, 9);
        c.send_ctl(c.row(2), 0, CTL_STOP);
        assert_eq!(c.fail(0), vec![5, 9], "distinct in-flight victims");
        assert!(c.is_dead(0));
        assert!(!c.has_data_in_flight(0));
        assert_eq!(c.in_flight(), 0);
        // A dead cable eats everything offered to it.
        c.send(c.row(3), 0, 11);
        c.send_ctl(c.row(3), 0, CTL_GO);
        for cyc in 4..30 {
            assert_eq!(c.take_data(c.row(cyc), 0), None);
            assert_eq!(c.take_ctl(c.row(cyc), 0), CTL_NONE);
        }
        c.repair(0);
        assert!(!c.is_dead(0));
        c.send(c.row(30), 0, 1);
        assert_eq!(c.take_data(c.row(38), 0), Some(1));
    }

    /// STOP and GO sent into a failed cable leave neither a slot nor an
    /// occupancy bit behind, so nothing holds the time skip off.
    #[test]
    fn a_dead_cable_records_no_control_symbol() {
        let mut c = table(3, 8);
        c.send_ctl(c.row(4), 1, CTL_STOP);
        assert!(c.fail(1).is_empty());
        c.send_ctl(c.row(5), 1, CTL_STOP);
        c.send_ctl(c.row(6), 1, CTL_GO);
        assert_eq!(c.in_flight(), 0);
        assert!(!c.any_slot_full());
        assert!((5..30).all(|cyc| drain_ctl(&mut c, cyc).is_empty()));
    }

    /// A run's flits are counted off to both ends, take no slot while it
    /// lasts, and its last one lands in its slot when it closes: the
    /// arrivals, busy count and slots are those of the same sends made
    /// one slot at a time.
    #[test]
    fn a_run_counts_off_its_flits_and_ends_in_a_slot() {
        let mut c = chan();
        // A flit at cycle 9 in its slot, then one per cycle from 10 on.
        c.send(c.row(9), 0, 7);
        c.open(0, 7, 10, 31);
        assert_eq!((c.in_flight(), c.streams()), (1, 1), "a run holds no slot");
        assert!(c.flits_in_flight(12).iter().all(|&(_, _, pid)| pid == 7));
        assert_eq!(c.flits_in_flight(12).len(), 3);
        assert_eq!(c.take_sends(0, 15), Some((7, 5, 14)));
        assert_eq!(c.take_sends(0, 15), None);
        // The slot flit arrives at 17, the run's first at 18.
        assert_eq!(drain_data(&mut c, 17), [(0, 7)]);
        assert_eq!(c.take_arrivals(0, 18), None);
        assert_eq!(c.take_arrivals(0, 20), Some((7, 2, 19)));
        assert_eq!(c.take_arrival_at(0, 20), Some(7));
        // A visit at 30 sends once more, then ends the run: sends 10..=30,
        // the last of them (30) in its slot.
        assert_eq!(c.take_sends(0, 30), Some((7, 15, 29)));
        c.suspend(0, 30);
        assert!(c.extend(0, 7, 30) && c.sent_at(0, 7, 30));
        c.close(0);
        assert_eq!(c.take_arrivals(0, 38), Some((7, 17, 37)));
        assert!(c.stream(0).is_none(), "every virtual flit counted off");
        assert_eq!(drain_data(&mut c, 38), [(0, 7)]);
        assert_eq!(c.in_flight(), 0);
        // One per cycle from 10 to 30, 21 arrivals, plus the one at 9.
        assert_eq!(c.busy(), [22]);
    }

    #[test]
    fn reset_busy() {
        let mut c = chan();
        c.send(c.row(0), 0, 1);
        c.take_data(c.row(8), 0);
        assert_eq!(c.busy(), [1]);
        c.reset_busy();
        assert_eq!(c.busy(), [0]);
    }

    /// The per-channel delay lines the table replaced, kept as its
    /// reference model: each channel its own ring of `delay` data and
    /// control slots, visited one by one.
    #[derive(Debug, Clone)]
    struct Ring {
        data: Vec<u32>,
        ctl: Vec<u8>,
        ctl_sent_at: u64,
        dead: bool,
        busy: u64,
    }

    struct Model {
        delay: u64,
        rings: Vec<Ring>,
    }

    impl Model {
        fn new(n: usize, delay: u32) -> Model {
            let d = delay as usize;
            let ring = Ring {
                data: vec![NO_PACKET; d],
                ctl: vec![CTL_NONE; d],
                ctl_sent_at: 0,
                dead: false,
                busy: 0,
            };
            Model {
                delay: delay as u64,
                rings: vec![ring; n],
            }
        }

        fn ring(&mut self, cycle: u64, ci: u32) -> (&mut Ring, usize) {
            (&mut self.rings[ci as usize], (cycle % self.delay) as usize)
        }

        fn can_send(&self, cycle: u64, ci: u32) -> bool {
            self.rings[ci as usize].data[(cycle % self.delay) as usize] == NO_PACKET
        }

        fn can_send_ctl(&self, cycle: u64, ci: u32) -> bool {
            let r = &self.rings[ci as usize];
            r.ctl[(cycle % self.delay) as usize] == CTL_NONE || r.ctl_sent_at == cycle
        }

        fn send(&mut self, cycle: u64, ci: u32, pid: u32) {
            let (r, s) = self.ring(cycle, ci);
            if !r.dead {
                r.data[s] = pid;
            }
        }

        fn send_ctl(&mut self, cycle: u64, ci: u32, symbol: u8) {
            let (r, s) = self.ring(cycle, ci);
            if !r.dead {
                r.ctl[s] = symbol;
                r.ctl_sent_at = cycle;
            }
        }

        fn take_data(&mut self, cycle: u64, ci: u32) -> Option<u32> {
            let (r, s) = self.ring(cycle, ci);
            let v = std::mem::replace(&mut r.data[s], NO_PACKET);
            r.busy += u64::from(v != NO_PACKET);
            (v != NO_PACKET).then_some(v)
        }

        fn take_ctl(&mut self, cycle: u64, ci: u32) -> u8 {
            let (r, s) = self.ring(cycle, ci);
            std::mem::replace(&mut r.ctl[s], CTL_NONE)
        }

        fn fail(&mut self, ci: u32) -> Vec<u32> {
            let r = &mut self.rings[ci as usize];
            let mut victims: Vec<u32> =
                r.data.iter().copied().filter(|&v| v != NO_PACKET).collect();
            victims.sort_unstable();
            victims.dedup();
            r.data.fill(NO_PACKET);
            r.ctl.fill(CTL_NONE);
            r.dead = true;
            victims
        }

        fn purge(&mut self, pid: u32) {
            for r in &mut self.rings {
                r.data
                    .iter_mut()
                    .filter(|v| **v == pid)
                    .for_each(|v| *v = NO_PACKET);
            }
        }

        /// The first cycle from `cycle` on with a flit or symbol arriving.
        fn next_arrival(&self, cycle: u64) -> u64 {
            let full = |k: u64| {
                let s = ((cycle + k) % self.delay) as usize;
                let full = |r: &Ring| r.data[s] != NO_PACKET || r.ctl[s] != CTL_NONE;
                self.rings.iter().any(full)
            };
            (0..self.delay)
                .find(|&k| full(k))
                .map_or(u64::MAX, |k| cycle + k)
        }

        fn in_flight(&self) -> usize {
            let full = |r: &Ring| {
                let data = r.data.iter().filter(|&&v| v != NO_PACKET).count();
                data + r.ctl.iter().filter(|&&v| v != CTL_NONE).count()
            };
            self.rings.iter().map(full).sum()
        }
    }

    /// A channel of `n`: mostly the ones at the 64- and 4,096-channel word
    /// boundaries and the last, otherwise any.
    fn pick(n: usize, x: u32) -> u32 {
        let edges = [0, 63, 64, 65, 4_095, 4_096, 4_097, n - 1];
        let ci = if x.is_multiple_of(2) {
            edges[(x / 2) as usize % edges.len()]
        } else {
            x as usize
        };
        (ci % n) as u32
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Cycle by cycle: phase-0 work (fail, repair, purge, a single
        /// take, a control rewrite as a purge makes it), then both rows
        /// drained by the engine's walk or the scan's takes, then sends
        /// (data, control, same-cycle supersedes). Table and rings must
        /// agree on every arrival, victim list and busy count, the table's
        /// count on whether anything is in flight, and the cycle of the
        /// next arrival before the walks and after the sends.
        #[test]
        fn table_matches_per_channel_rings(
            n in 1usize..9_001,
            delay in 1u32..13,
            script in prop::collection::vec(
                (
                    any::<u8>(),
                    any::<u32>(),
                    any::<u32>(),
                    prop::collection::vec((any::<u32>(), any::<u32>(), any::<u8>()), 0..8),
                ),
                1..40,
            ),
        ) {
            let (mut t, mut m) = (table(n, delay), Model::new(n, delay));
            for (cycle, (op, a, b, sends)) in script.into_iter().enumerate() {
                let (cycle, ci) = (cycle as u64, pick(n, a));
                match op % 8 {
                    0 => prop_assert_eq!(t.fail(ci), m.fail(ci)),
                    1 => {
                        t.repair(ci);
                        m.rings[ci as usize].dead = false;
                    }
                    2 => {
                        t.purge(b % 4);
                        m.purge(b % 4);
                    }
                    3 => prop_assert_eq!(t.take_data(t.row(cycle), ci), m.take_data(cycle, ci)),
                    4 => {
                        let symbol = [CTL_STOP, CTL_GO][b as usize % 2];
                        prop_assert_eq!(t.take_ctl(t.row(cycle), ci), m.take_ctl(cycle, ci));
                        t.send_ctl(t.row(cycle), ci, symbol);
                        m.send_ctl(cycle, ci, symbol);
                    }
                    _ => {}
                }
                prop_assert_eq!(t.next_arrival(cycle), m.next_arrival(cycle));
                let want_ctl: Vec<(u32, u8)> = (0..n as u32)
                    .map(|ci| (ci, m.take_ctl(cycle, ci)))
                    .filter(|&(_, s)| s != CTL_NONE)
                    .collect();
                let want_data: Vec<(u32, u32)> = (0..n as u32)
                    .filter_map(|ci| Some((ci, m.take_data(cycle, ci)?)))
                    .collect();
                let (got_ctl, got_data) = if op >= 128 {
                    let ctl = (0..n as u32).map(|ci| (ci, t.take_ctl(t.row(cycle), ci)));
                    let ctl = ctl.filter(|&(_, s)| s != CTL_NONE).collect();
                    let data = (0..n as u32).filter_map(|ci| Some((ci, t.take_data(t.row(cycle), ci)?)));
                    (ctl, data.collect())
                } else {
                    (drain_ctl(&mut t, cycle), drain_data(&mut t, cycle))
                };
                prop_assert!(got_ctl.windows(2).all(|w| w[0].0 < w[1].0), "{:?}", got_ctl);
                prop_assert!(got_data.windows(2).all(|w| w[0].0 < w[1].0), "{:?}", got_data);
                prop_assert_eq!(got_ctl, want_ctl, "control row at cycle {}", cycle);
                prop_assert_eq!(got_data, want_data, "data row at cycle {}", cycle);
                for (x, pid, sym) in sends {
                    let ci = pick(n, x);
                    if sym % 3 == 0 && m.can_send(cycle, ci) {
                        t.send(t.row(cycle), ci, pid % 4);
                        m.send(cycle, ci, pid % 4);
                    } else if sym % 3 != 0 && m.can_send_ctl(cycle, ci) {
                        let symbol = [CTL_STOP, CTL_GO][sym as usize % 2];
                        t.send_ctl(t.row(cycle), ci, symbol);
                        m.send_ctl(cycle, ci, symbol);
                    }
                }
                let in_flight = m.in_flight();
                prop_assert_eq!(t.in_flight(), in_flight, "cycle {}", cycle);
                prop_assert_eq!(t.any_slot_full(), in_flight > 0);
                let next = m.next_arrival(cycle + 1);
                prop_assert_eq!(t.next_arrival(cycle + 1), next, "cycle {}", cycle);
            }
            let busy: Vec<u64> = m.rings.iter().map(|r| r.busy).collect();
            prop_assert_eq!(t.busy(), &busy[..]);
        }
    }
}
