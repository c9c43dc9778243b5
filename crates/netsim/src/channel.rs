//! The cables: unidirectional pipelined channels with reverse-direction
//! stop/go control, stored once.
//!
//! Every channel has the same delay, so a flit or control symbol written
//! at cycle `c` arrives at exactly `c + delay`. [`Channels`] is a table
//! indexed by arrival cycle: row `c % delay` holds each channel's data flit
//! and control symbol arriving at `c`, an occupancy bit per channel and a
//! summary bit per non-empty occupancy word. A write sets slot and bit in
//! one call. The engine walks a row's bits in ascending channel order, the
//! scan oracle's order; the time skip reads one count.

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
}

impl Channels {
    /// Channel `i` runs from `ends[i].0` to `ends[i].1`.
    pub(crate) fn new(ends: Vec<(Sender, Receiver)>, delay: u32) -> Channels {
        assert!(delay > 0);
        let (rows, n) = (delay as usize, ends.len());
        Channels {
            delay: delay as u64,
            ends: ends.into(),
            dead: vec![false; n].into(),
            busy: vec![0; n].into(),
            data: Lane::new(rows, n),
            ctl: Lane::new(rows, n),
            ctl_sent_at: vec![0; n].into(),
        }
    }

    /// The row `cycle`'s arrivals are read from and its sends written to.
    #[inline]
    pub(crate) fn row(&self, cycle: u64) -> Row {
        let idx = (cycle % self.delay) as usize;
        Row { cycle, idx }
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

    /// Flits and control symbols in flight: the full slots of every row.
    /// O(1); zero is the time skip's "no channel has work".
    pub(crate) fn in_flight(&self) -> usize {
        self.data.set + self.ctl.set
    }

    /// Does any slot hold a flit or a symbol? A raw scan that ignores the
    /// occupancy bits, for the time skip's cross-check.
    pub(crate) fn any_slot_full(&self) -> bool {
        self.data.slots.iter().any(|&v| v != NO_PACKET)
            || self.ctl.slots.iter().any(|&v| v != CTL_NONE)
    }

    /// Any data flits in flight on `ci`?
    pub(crate) fn has_data_in_flight(&self, ci: u32) -> bool {
        let rows = self.data.slots.iter().skip(ci as usize);
        rows.step_by(self.len()).any(|&v| v != NO_PACKET)
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
        /// agree on every arrival, victim list and busy count, and the
        /// table's count on whether anything is in flight.
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
            }
            let busy: Vec<u64> = m.rings.iter().map(|r| r.busy).collect();
            prop_assert_eq!(t.busy(), &busy[..]);
        }
    }
}
