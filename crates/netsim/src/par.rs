//! The shard-parallel cycle engine behind [`Scheduler::Parallel`].
//!
//! This module adds no simulation logic. The cycle itself — what a control
//! symbol, a flit, a switch and a NIC do — is `crate::kernel`, the same
//! monomorphised functions the sequential engines run. What lives here is
//! *when* the kernel's effects land: a worker pool that runs the kernel's
//! phase loops per shard, and the [`ShardSink`] through which a shard's
//! kernels reach shared state. DESIGN.md §6 tabulates, for every effect,
//! where the sequential sink applies it and under which key this one
//! buffers it, and carries the argument for bit-identity; in short:
//!
//! The topology is cut into `threads` shards ([`crate::partition`]); each
//! shard owns its switches, the NICs attached to them, and a private
//! [`ActiveSched`] over them. A cycle is two barrier-separated regions on
//! a persistent [`WorkerPool`]:
//!
//! * **Region A** — per shard: `kernel::ctl_phase` then
//!   `kernel::arrival_phase` (sequential phases 1 + 2). The fusion is
//!   safe: arrival processing never reads the flags control delivery
//!   flips, and each shard drains its own control bucket before its own
//!   arrivals, so an intra-shard `send_ctl` finds its slot already taken —
//!   the sequential call-order contract.
//! * **Mid-barrier** (main thread) — apply cross-shard control symbols
//!   emitted during region A, in ascending channel order. They cannot be
//!   written in-region: the owner of the channel's *sender* side may still
//!   be draining that very slot.
//! * **Region B** — per shard: `kernel::switches_phase` then
//!   `kernel::nic_tx_phase` (sequential phases 3 + 4).
//! * **Fold** (main thread) — apply cross-shard timing-wheel notes, merge
//!   the shards' buffered effects, sort them stably by `kernel::At` and
//!   replay them into the sequential sink, sum the counter/measure
//!   deltas. Fault events (before region A), the loss phase, generation
//!   and observers run on the main thread with the workers parked.
//!
//! Every channel has `delay ≥ 1`, so nothing sent at cycle `t` is consumed
//! before `t+1`: a region never reads a same-cycle write of another shard.
//! Each executor processes shards `e, e+E, e+2E, …`; since every
//! cross-shard effect is buffered and folded in a fixed order, results
//! depend on the shard count alone, never on the executor count.
//!
//! # Safety model
//!
//! Workers address simulator state through [`ParCtx`]: shared references
//! for what is read-only in a region (configuration, fault state — it
//! mutates only in the fault phase), raw pointers to the arrays shards
//! write into. [`ShardSink`] is the only code that dereferences them, and
//! each dereference yields a reference to one whole object:
//!
//! * Different elements of the `switches`/`nics`/`shards`/selector and
//!   message-slot arrays are disjoint objects, and each is used by one
//!   shard per region (a message's `first_inject` is stamped only by its
//!   source NIC), so the `&mut` a shard forms is unique.
//! * A channel is used by at most two shards per region, one per lane: in
//!   region A the sender's shard drains the `CtlLane` and the receiver's
//!   the `DataLane`; in region B the sender writes the `DataLane` and the
//!   receiver the `CtlLane`. The `&mut` to a lane is unique, and no `&mut
//!   Channel` is ever formed. `sender`, `receiver` and the lanes' `dead`
//!   flags change only on the main thread.
//! * A packet is the exception. In region B the NIC re-injecting a worm's
//!   tail (releasing `pool_reserved`) and a downstream switch routing its
//!   head (advancing `hop`) can hold `&mut Packet` to the same packet at
//!   once. They touch disjoint fields, so there is no data race, but two
//!   live `&mut` to one object is stricter-aliasing folklore rather than
//!   a formal guarantee; it is confined to [`ShardSink::pkt`] on purpose.
//!   Everywhere else a packet has one toucher per region: only the
//!   receiver of its *head* flit reads it in region A, and `journey` is
//!   rewritten only while the packet still sits whole in its source NIC.
//! * `Vec`s never grow/shrink while raw pointers are live: arena/message
//!   inserts and removes happen only on the main thread between regions.
//! * The pool's job pointer is valid for the duration of `run` because
//!   `run` blocks until every worker reports done (release/acquire on
//!   `done`), and the epoch bump that publishes the job is a release
//!   store matched by the workers' acquire loads.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use regnet_core::SrcSelector;
use regnet_topology::{HostId, Topology};

use crate::channel::{Channel, Receiver, Sender};
use crate::counters::Counters;
use crate::kernel::{self, At, Fx, KernelMeasure, Parts, Sink, Tick};
use crate::nic::Nic;
use crate::packet::Packet;
use crate::partition::ShardPlan;
use crate::sched::ActiveSched;
use crate::sim::MsgState;
use crate::switch::SwitchState;

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

type Job = dyn Fn(usize) + Sync;

struct PoolShared {
    /// Bumped (release) to publish a new job; workers acquire-load it.
    epoch: AtomicU64,
    /// Workers that finished the current epoch's job.
    done: AtomicUsize,
    quit: AtomicBool,
    /// The job for the current epoch. Only written by the main thread
    /// while every worker is provably idle (previous epoch fully done).
    job: UnsafeCell<Option<*const Job>>,
}

// SAFETY: `job` is written only between epochs (all workers idle, main
// thread owns the cell) and read only after the release/acquire epoch
// handshake; everything else is atomics.
unsafe impl Sync for PoolShared {}
unsafe impl Send for PoolShared {}

/// Persistent barrier-synchronized workers, spawned once per simulator.
/// Executor 0 is the calling thread; executors `1..=n` are pool threads.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// A pool driving `executors` executors total (so `executors - 1`
    /// spawned threads; `executors == 1` spawns nothing and `run` degrades
    /// to a plain call).
    pub(crate) fn new(executors: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            epoch: AtomicU64::new(0),
            done: AtomicUsize::new(0),
            quit: AtomicBool::new(false),
            job: UnsafeCell::new(None),
        });
        let handles = (1..executors)
            .map(|e| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("regnet-par-{e}"))
                    .spawn(move || worker_loop(&shared, e))
                    .expect("spawn parallel-engine worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    pub(crate) fn executors(&self) -> usize {
        self.handles.len() + 1
    }

    /// Run `job(e)` once per executor `e ∈ 0..executors`, on this thread
    /// for `e = 0`; returns when every executor finished.
    pub(crate) fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        let n = self.handles.len();
        if n == 0 {
            job(0);
            return;
        }
        // SAFETY: workers are idle (previous run drained `done`), so the
        // cell is unobserved. The transmute only erases the borrow's
        // lifetime from the pointer's type: the pointer is not used past
        // this call, because we block on `done` below before `job` can go
        // out of scope.
        unsafe {
            *self.shared.job.get() = Some(
                std::mem::transmute::<&(dyn Fn(usize) + Sync), *const Job>(job),
            );
        }
        self.shared.done.store(0, Ordering::Relaxed);
        self.shared.epoch.fetch_add(1, Ordering::Release);
        for h in &self.handles {
            h.thread().unpark();
        }
        job(0);
        let mut spins = 0u32;
        while self.shared.done.load(Ordering::Acquire) != n {
            spins += 1;
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.quit.store(true, Ordering::Release);
        self.shared.epoch.fetch_add(1, Ordering::Release);
        for h in &self.handles {
            h.thread().unpark();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, executor: usize) {
    let mut seen = 0u64;
    loop {
        // Wait for a new epoch: spin briefly, then yield, then park with a
        // timeout (a pure spin is catastrophic on an oversubscribed host,
        // and the timeout bounds a lost unpark between check and park).
        let mut spins = 0u32;
        loop {
            let e = shared.epoch.load(Ordering::Acquire);
            if e != seen {
                seen = e;
                break;
            }
            spins += 1;
            if spins < 128 {
                std::hint::spin_loop();
            } else if spins < 512 {
                std::thread::yield_now();
            } else {
                std::thread::park_timeout(Duration::from_micros(200));
            }
        }
        if shared.quit.load(Ordering::Acquire) {
            return;
        }
        // SAFETY: the acquire load of `epoch` synchronized with the
        // release store in `run`, which wrote `job` beforehand.
        let job = unsafe { (*shared.job.get()).expect("epoch bumped without a job") };
        (unsafe { &*job })(executor);
        shared.done.fetch_add(1, Ordering::Release);
    }
}

// ---------------------------------------------------------------------------
// Per-shard state
// ---------------------------------------------------------------------------

/// Something a shard's region leaves to the main thread because it lands
/// in another shard. Sorts by kind, then channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Out {
    /// Region A: symbol `.1` for channel `.0`, whose sender's shard may
    /// still be draining that very slot. Written and noted at the
    /// mid-barrier, in ascending channel order.
    Ctl(u32, u8),
    /// Region B: wheel note for a control symbol this shard wrote into a
    /// channel whose control side another shard drains.
    NoteCtl(u32),
    /// Region B: wheel note for a flit sent into another shard.
    NoteData(u32),
}

/// One shard's private scheduler plus its per-cycle outboxes. Everything
/// here is written by exactly one executor per region and drained by the
/// main thread at the barriers. Aligned so that two shards' states never
/// share a cache line: neighbours in the `Vec` are written by different
/// executors (measured: +18 % wall time on `parallel:2` without it).
#[repr(align(128))]
pub(crate) struct ShardState {
    pub(crate) sched: ActiveSched,
    /// Event counts this cycle; folded into the global registry (sums).
    pub(crate) counters: Counters,
    /// Any flit/ctl movement this cycle (watchdog feed).
    pub(crate) activity: bool,
    /// Measurement deltas (only maintained while measuring).
    pub(crate) measure: KernelMeasure,
    /// What this region could not do in place; applied by the main thread
    /// at the next barrier.
    pub(crate) out: Vec<Out>,
    /// Buffered order-sensitive effects, keyed for the fold's stable sort.
    pub(crate) fx: Vec<(At, Fx)>,
    /// Per-shard span wall time this cycle, ns: ctl deliveries, data
    /// arrivals (region A), switch advance, NIC transmit (region B).
    /// Written only when `ParCtx::prof_on`; drained by the main thread.
    pub(crate) span_ns: [u64; 4],
}

impl ShardState {
    fn new(delay: u32, n_switches: usize, n_nics: usize) -> ShardState {
        ShardState {
            sched: ActiveSched::new(delay, n_switches, n_nics),
            counters: Counters::new(),
            activity: false,
            measure: KernelMeasure::default(),
            out: Vec::new(),
            fx: Vec::new(),
            span_ns: [0; 4],
        }
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Everything `Scheduler::Parallel` adds to a simulator: the plan, one
/// [`ShardState`] per shard, channel ownership maps and the worker pool.
pub(crate) struct ParEngine {
    /// Shard count as requested (reported by `Simulator::scheduler`).
    pub(crate) requested: usize,
    pub(crate) plan: ShardPlan,
    pub(crate) shards: Vec<ShardState>,
    pub(crate) pool: WorkerPool,
    /// Shard that drains each channel's data side (owner of the receiver).
    pub(crate) data_owner: Vec<u32>,
    /// Shard that drains each channel's ctl side (owner of the sender,
    /// whose `stopped` flags the symbols flip).
    pub(crate) ctl_owner: Vec<u32>,
    // Reused barrier scratch.
    pub(crate) merged_out: Vec<Out>,
    pub(crate) merged_fx: Vec<(At, Fx)>,
}

impl ParEngine {
    /// `executors` sizes the worker pool; `None` is one per shard, capped
    /// by the host's cores, so a 4-shard run on a 1-core machine
    /// multiplexes its shards instead of oversubscribing the host. The
    /// shard count — and with it every simulation result — comes from
    /// `requested` alone.
    pub(crate) fn new(
        topo: &Topology,
        requested: usize,
        executors: Option<usize>,
        delay: u32,
        channels: &[Channel],
        n_switches: usize,
        n_nics: usize,
    ) -> ParEngine {
        let plan = ShardPlan::new(topo, requested);
        let shards = (0..plan.n_shards())
            // Active lists are indexed by global component id (the
            // membership bitmaps are cheap), but each shard only ever
            // inserts its own components.
            .map(|_| ShardState::new(delay, n_switches, n_nics))
            .collect();
        let data_owner = channels
            .iter()
            .map(|c| match c.receiver {
                Receiver::SwitchIn { sw, .. } => plan.switch_shard(sw as usize) as u32,
                Receiver::Nic { host } => plan.nic_shard(host as usize) as u32,
            })
            .collect();
        let ctl_owner = channels
            .iter()
            .map(|c| match c.sender {
                Sender::SwitchOut { sw, .. } => plan.switch_shard(sw as usize) as u32,
                Sender::Nic { host } => plan.nic_shard(host as usize) as u32,
            })
            .collect();
        let executors = executors.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        let pool = WorkerPool::new(executors.clamp(1, plan.n_shards()));
        ParEngine {
            requested,
            plan,
            shards,
            pool,
            data_owner,
            ctl_owner,
            merged_out: Vec::new(),
            merged_fx: Vec::new(),
        }
    }

    /// The scheduler of the shard that drains channel `ci`'s control side.
    pub(crate) fn ctl_sched(&mut self, ci: u32) -> &mut ActiveSched {
        &mut self.shards[self.ctl_owner[ci as usize] as usize].sched
    }

    /// The scheduler of the shard that drains channel `ci`'s data side.
    pub(crate) fn data_sched(&mut self, ci: u32) -> &mut ActiveSched {
        &mut self.shards[self.data_owner[ci as usize] as usize].sched
    }
}

/// The two barrier-separated halves of a parallel cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Region {
    /// Control deliveries + data arrivals.
    A,
    /// Switch advance + NIC transmission.
    B,
}

/// The simulator as one parallel region sees it. Built by `par_ctx` in
/// `sim.rs`; see the module-level safety notes.
pub(crate) struct ParCtx<'a> {
    pub(crate) tick: Tick<'a>,
    pub(crate) channels: *mut Channel,
    pub(crate) switches: *mut SwitchState,
    pub(crate) nics: *mut Nic,
    pub(crate) pkt_slots: *mut Option<Packet>,
    pub(crate) msg_slots: *mut Option<MsgState>,
    /// Per-source path-selection state, indexed by host. A shard only
    /// touches the entries of hosts it owns, so selection is race-free
    /// and draws the same per-source sequence as the sequential engines.
    pub(crate) selectors: *mut SrcSelector,
    pub(crate) shards: *mut ShardState,
    pub(crate) n_shards: usize,
    pub(crate) pool: &'a WorkerPool,
    pub(crate) data_owner: &'a [u32],
    pub(crate) ctl_owner: &'a [u32],
    pub(crate) measure_on: bool,
    /// Counters or journal enabled: compute block-cause diagnostics.
    pub(crate) diag: bool,
    pub(crate) journal_on: bool,
    pub(crate) trace_on: bool,
    /// Profiler enabled: workers time their phases into
    /// `ShardState::span_ns` (no `Instant` calls otherwise).
    pub(crate) prof_on: bool,
}

// SAFETY: shared across executors for the duration of one region. The
// references point at data nothing mutates while a region runs; what the
// pointers reach is partitioned among the shards as documented at module
// level.
unsafe impl Sync for ParCtx<'_> {}

impl ParCtx<'_> {
    /// Run `region` for every shard on the pool: executor `e` takes shards
    /// `e, e+E, e+2E, …`. Returns when all are done.
    pub(crate) fn run(&self, region: Region) {
        let executors = self.pool.executors();
        self.pool.run(&|e| {
            for s in (e..self.n_shards).step_by(executors) {
                // SAFETY: shard `s` is processed by this executor alone.
                let sh = unsafe { &mut *self.shards.add(s) };
                let mut sink = ShardSink {
                    ctx: self,
                    sh,
                    shard: s as u32,
                    region,
                };
                sink.run();
            }
        });
    }
}

/// One shard's [`Sink`] (and [`Parts`]) for one region of one cycle;
/// DESIGN.md §6 tabulates what each effect does here.
struct ShardSink<'a> {
    ctx: &'a ParCtx<'a>,
    sh: &'a mut ShardState,
    shard: u32,
    region: Region,
}

impl ShardSink<'_> {
    /// The region's two kernel phases, each timed into `span_ns` when
    /// profiling.
    fn run(&mut self) {
        let t = &self.ctx.tick;
        let mut mark = self.ctx.prof_on.then(Instant::now);
        let mut lap = |sh: &mut ShardState, span: usize| {
            if let Some(m) = mark.as_mut() {
                let now = Instant::now();
                sh.span_ns[span] += (now - *m).as_nanos() as u64;
                *m = now;
            }
        };
        match self.region {
            Region::A => {
                kernel::ctl_phase(self, t);
                lap(self.sh, 0);
                kernel::arrival_phase(self, t);
                lap(self.sh, 1);
            }
            Region::B => {
                kernel::switches_phase(self, t);
                lap(self.sh, 2);
                kernel::nic_tx_phase(self, t);
                lap(self.sh, 3);
            }
        }
    }

    #[inline]
    fn chan(&self, ci: u32) -> *mut Channel {
        // SAFETY: `ci` indexes the channel array; forming the element
        // pointer dereferences nothing.
        unsafe { self.ctx.channels.add(ci as usize) }
    }
}

impl Parts for ShardSink<'_> {
    type Sink = Self;
    #[inline]
    fn sink(&mut self) -> &mut Self {
        self
    }
    #[inline]
    fn switch(&mut self, sw: u32) -> (&mut SwitchState, &mut Self) {
        // SAFETY: the kernel loops only name switches of this shard (its
        // own active list, the receivers and senders of its own buckets).
        (unsafe { &mut *self.ctx.switches.add(sw as usize) }, self)
    }
    #[inline]
    fn nic(&mut self, host: u32) -> (&mut Nic, &mut Self) {
        // SAFETY: as for `switch`.
        (unsafe { &mut *self.ctx.nics.add(host as usize) }, self)
    }
    #[inline]
    fn ends(&self, ci: u32) -> (Sender, Receiver) {
        // SAFETY: both fields are immutable after construction.
        unsafe { ((*self.chan(ci)).sender, (*self.chan(ci)).receiver) }
    }
    #[inline]
    fn take_ctl_arrival(&mut self, ci: u32) -> u8 {
        // SAFETY: `ci` came from this shard's ctl bucket: it owns the
        // sender, in region A the one user of the ctl lane.
        unsafe { &mut (*self.chan(ci)).ctl }.take_arrival(self.ctx.tick.cycle)
    }
    #[inline]
    fn take_arrival(&mut self, ci: u32) -> Option<u32> {
        // SAFETY: `ci` came from this shard's data bucket: it owns the
        // receiver, in region A the one user of the data lane.
        unsafe { &mut (*self.chan(ci)).data }.take_arrival(self.ctx.tick.cycle)
    }
    #[inline]
    fn sched(&mut self) -> &mut ActiveSched {
        &mut self.sh.sched
    }
}

impl Sink for ShardSink<'_> {
    #[inline]
    fn pkt(&mut self, pid: u32) -> &mut Packet {
        // SAFETY: the slot array does not move while a region runs. For
        // the aliasing of the `&mut Packet` see *Safety model*.
        unsafe { &mut *self.ctx.pkt_slots.add(pid as usize) }
            .as_mut()
            .expect("stale id")
    }
    #[inline]
    fn msg(&mut self, midx: u32) -> &mut MsgState {
        // SAFETY: only the message's source NIC, which this shard owns,
        // touches it in a region.
        unsafe { &mut *self.ctx.msg_slots.add(midx as usize) }
            .as_mut()
            .expect("stale id")
    }
    #[inline]
    fn selector(&mut self, src: HostId) -> &mut SrcSelector {
        // SAFETY: `src` is the host of the NIC being advanced, so the
        // entry is this shard's.
        unsafe { &mut *self.ctx.selectors.add(src.idx()) }
    }
    #[inline]
    fn is_dead(&self, ci: u32) -> bool {
        // SAFETY: asked by the channel's sender, in region B the one user
        // of its data lane.
        unsafe { &(*self.chan(ci)).data }.is_dead()
    }
    // Forced inline, as in the sequential sink (see there).
    #[inline(always)]
    fn send(&mut self, ci: u32, pid: u32) {
        let cycle = self.ctx.tick.cycle;
        // SAFETY: only region B sends, and the sender is then the one user
        // of the data lane.
        unsafe { &mut (*self.chan(ci)).data }.send(cycle, pid);
        if self.ctx.data_owner[ci as usize] == self.shard {
            self.sh.sched.note_data(cycle, ci);
        } else {
            self.sh.out.push(Out::NoteData(ci));
        }
    }
    #[inline(always)]
    fn send_ctl(&mut self, ci: u32, symbol: u8) {
        let cycle = self.ctx.tick.cycle;
        let own = self.ctx.ctl_owner[ci as usize] == self.shard;
        if self.region == Region::A && !own {
            // The owner may not have drained this slot yet.
            self.sh.out.push(Out::Ctl(ci, symbol));
            return;
        }
        // SAFETY: region A, own channel: this shard already drained the
        // slot and nobody else uses the ctl lane. Region B: the receiver
        // — this shard — is the lane's one user, and nothing reads control
        // until next cycle's region A.
        unsafe { &mut (*self.chan(ci)).ctl }.send(cycle, symbol);
        if own {
            self.sh.sched.note_ctl(cycle, ci);
        } else {
            self.sh.out.push(Out::NoteCtl(ci));
        }
    }
    #[inline]
    fn activate_switch(&mut self, sw: u32) {
        self.sh.sched.activate_switch(sw);
    }
    #[inline]
    fn wake_nic_at(&mut self, ready: u64, host: u32) {
        self.sh.sched.wake_nic_at(ready, host);
    }
    #[inline]
    fn activity(&mut self) {
        self.sh.activity = true;
    }
    #[inline]
    fn count(&mut self, bump: impl FnOnce(&mut Counters)) {
        bump(&mut self.sh.counters);
    }
    #[inline]
    fn diag(&self) -> bool {
        self.ctx.diag
    }
    #[inline]
    fn measure(&mut self, update: impl FnOnce(&mut KernelMeasure)) {
        if self.ctx.measure_on {
            update(&mut self.sh.measure);
        }
    }
    #[inline]
    fn journal_on(&self) -> bool {
        self.ctx.journal_on
    }
    #[inline]
    fn fx(&mut self, at: At, fx: Fx) {
        // The in-transit hooks feed only the trace observers and the
        // journal; everything else always counts (`journal` has checked).
        let wanted = match fx {
            Fx::ItbEject { .. } | Fx::Reinject { .. } => self.ctx.trace_on || self.ctx.journal_on,
            _ => true,
        };
        if wanted {
            self.sh.fx.push((at, fx));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn pool_runs_every_executor_each_epoch() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.executors(), 4);
        let hits: Arc<Vec<AtomicU32>> = Arc::new((0..4).map(|_| AtomicU32::new(0)).collect());
        for _ in 0..100 {
            let hits = Arc::clone(&hits);
            pool.run(&move |e| {
                hits[e].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in hits.iter() {
            assert_eq!(h.load(Ordering::Relaxed), 100);
        }
    }

    #[test]
    fn single_executor_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.executors(), 1);
        let hit = Arc::new(AtomicU32::new(0));
        let hit2 = Arc::clone(&hit);
        pool.run(&move |e| {
            assert_eq!(e, 0);
            hit2.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }
}
