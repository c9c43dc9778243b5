//! The shard-parallel cycle engine behind [`Scheduler::Parallel`].
//!
//! # Architecture
//!
//! The topology is cut into `threads` shards ([`crate::partition`]); each
//! shard owns its switches, the NICs attached to them, and runs a private
//! [`ActiveSched`] over them. A cycle executes as two barrier-separated
//! regions on a persistent [`WorkerPool`]:
//!
//! * **Region A** — per shard: drain the shard's ctl wheel and flip sender
//!   flags (phase 1), then drain its data wheel and deliver arrivals
//!   (phase 2). The two sequential phases fuse safely because arrival
//!   processing never reads a `stopped` flag.
//! * **Mid-barrier** (main thread) — apply cross-shard control symbols
//!   emitted during region A, in ascending channel order. They cannot be
//!   written in-region: the owner of the channel's *sender* side may still
//!   be draining that very slot.
//! * **Region B** — per shard: advance its switches (phase 3) and transmit
//!   from its NICs (phase 4), with the same sorted-active-list visit order
//!   as the sequential active-set engine.
//! * **Fold** (main thread) — apply cross-shard timing-wheel notes, replay
//!   the deferred observable effects in sequential order, merge per-shard
//!   counter/measure deltas, then run generation and observers inline.
//!
//! # Why results are bit-identical to the sequential engines
//!
//! *Lookahead.* Every channel has `delay ≥ 1` (asserted in
//! `Channel::new`), so anything sent at cycle `t` is consumed at `t+delay
//! ≥ t+1`: a region never reads a same-cycle write of another shard. The
//! only same-cycle cross-shard interactions are the control-symbol
//! supersede (handled by the mid-barrier) and the timing-wheel notes
//! (applied at the fold, before cycle `t+1` starts; buckets are
//! sorted+dedup'd at drain, so note insertion order is immaterial).
//!
//! * **State.** Each switch, NIC and per-shard scheduler is touched by
//!   exactly one shard per region. Channels and packets can be touched by
//!   two shards, but only through disjoint fields (see `channel::raw`,
//!   `packet::raw`).
//! * **Visit order.** Within a shard, components are visited in ascending
//!   index order (sorted buckets/lists), exactly like the sequential
//!   engines; effects that are order-sensitive *across* shards (journal
//!   records, trace digest folds, delivery completions — the arena and
//!   message free-lists reuse slots in removal order) are buffered
//!   per-shard keyed by channel/switch/NIC index and replayed at the fold
//!   in one stream per phase, stably sorted by key. BFS shards are not
//!   index-contiguous, so the sort (not concatenation) is what
//!   reconstructs the global sequential order.
//! * **Order-free folds.** Counters and the measurement deltas folded at
//!   the barrier are sums/maxes; `last_activity` is "any shard moved a
//!   flit this cycle ⇒ cycle", matching the sequential last-writer value.
//! * **RNG and generation.** Message generation stays on the main thread
//!   (phase 5), so per-NIC RNG draws happen in the sequential order.
//!
//! The number of live executors is [`crate::threads::par_executors`] —
//! capped by the host's cores (override: `REGNET_PAR_WORKERS`) — and each
//! executor processes shards `e, e+E, e+2E, …` in order. Because every
//! cross-shard effect is buffered and folded deterministically, results
//! depend only on the shard count, never on the executor count or
//! interleaving: `Parallel { threads: 4 }` is bit-identical on a 1-core
//! and a 64-core host. `tests/scheduler_equivalence.rs` pins all of this
//! against `ActiveSet`.
//!
//! # Faults
//!
//! Fault injection runs shard-parallel and stays bit-identical to the
//! sequential engines. The cross-shard pieces of the fault machinery are
//! confined to the main thread; the work splits by phase:
//!
//! * **Phase 0** (main thread, workers parked, before region A) — fault
//!   events fire, their victims are purged globally and reconfiguration
//!   advances, exactly as in the sequential engines. Purge control
//!   fix-ups and retransmission timers route their wakes to the owner
//!   shard's scheduler (`Simulator::sched_note_ctl` /
//!   `sched_wake_nic_at`).
//! * **Regions** — the mirrors below carry the same fault branches as
//!   their sequential counterparts: dead-switch skip, dead-output
//!   detection at routing, the dead-cable transfer gate, the
//!   reconfiguration source freeze, and the per-packet routability check
//!   with journey re-selection. All fault state read in-region
//!   (`FaultSet`, `host_ok`, the installed tables) only mutates in phase
//!   0, and path-selection state is sharded per source host
//!   ([`regnet_core::SrcSelector`]), so nothing here crosses a shard.
//! * **Loss phase** (main thread, after the fold) — mid-cycle worm
//!   truncations and source drops are *never* applied in-region, in any
//!   engine: the switch/NIC phases record `(component, packet)` pairs
//!   ([`ShardState::sw_loss`] / [`ShardState::nic_drop`] here, the
//!   simulator's pending lists sequentially) and `Simulator::loss_phase`
//!   replays them stably sorted by component index after NIC
//!   transmission. The packet/message arenas therefore mutate in the
//!   same within-cycle order — deliveries, then losses, then generation
//!   — under every scheduler, keeping free-list reuse bit-identical.
//!
//! # Safety model
//!
//! Workers address simulator state through [`ParCtx`], a bundle of raw
//! pointers built fresh each cycle from `&mut Simulator`. Soundness
//! arguments, in one place:
//!
//! * Different elements of the `channels`/`switches`/`nics`/packet-slot
//!   arrays are disjoint objects; two shards never form `&mut` to the same
//!   element (same-element access goes through the field-disjoint raw
//!   helpers in `channel::raw`/`packet::raw`).
//! * Resolving a packet id momentarily materializes `&mut Packet` to take
//!   its address ([`pkt_ptr`]). Creating a reference is not a memory
//!   access; all real loads/stores after it go through field-disjoint
//!   places, so no data race exists. (This pattern is stricter-aliasing
//!   folklore rather than a formal guarantee; it is confined to this
//!   module on purpose.)
//! * `Vec`s never grow/shrink while raw pointers are live: arena/message
//!   inserts and removes happen only on the main thread between regions.
//! * The pool's job pointer is valid for the duration of `run` because
//!   `run` blocks until every worker reports done (release/acquire on
//!   `done`), and the epoch bump that publishes the job is a release
//!   store matched by the workers' acquire loads.

use std::cell::UnsafeCell;
use std::cmp::Reverse;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use regnet_core::{RouteDb, SegmentEnd, SrcSelector};
use regnet_topology::{SwitchId, Topology};

use crate::channel::{self, Channel, Receiver, Sender, CTL_NONE, CTL_STOP};
use crate::config::SimConfig;
use crate::counters::Counters;
use crate::events::EventKind;
use crate::faultplan::FaultRuntime;
use crate::nic::{Nic, RxState, TxKind, TxState};
use crate::packet::{self, Packet};
use crate::partition::ShardPlan;
use crate::sched::ActiveSched;
use crate::sim::MsgState;
use crate::switch::{ports, HeadState, SwitchState};

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
    pub(crate) fn run(&self, job: &Job) {
        let n = self.handles.len();
        if n == 0 {
            job(0);
            return;
        }
        // SAFETY: workers are idle (previous run drained `done`), so the
        // cell is unobserved; the raw pointer outlives the call because we
        // block on `done` below before `job` can go out of scope.
        unsafe { *self.shared.job.get() = Some(job as *const Job) };
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
// Deferred cross-shard effects
// ---------------------------------------------------------------------------

/// Observable side effect of an arrival (region A), replayed at the fold
/// in ascending-channel order so journal/trace/free-list mutations happen
/// exactly as the sequential arrival phase would.
pub(crate) enum ArrFx {
    /// Journal-only record (switch arrival).
    Journal { pid: u32, kind: EventKind },
    /// ITB ejection: trace hook + journal record.
    ItbEject { pid: u32, host: u32, overflow: bool },
    /// Packet fully received at its destination: the entire delivery
    /// completion (arena/message bookkeeping, measurement, trace digest)
    /// is replayed by `Simulator::complete_delivery`.
    Deliver { pid: u32, host: u32 },
}

/// Observable NIC-transmit side effect (region B), keyed by NIC index.
pub(crate) enum NicFx {
    Inject { pid: u32, src: u32, dst: u32 },
    Reinject { pid: u32, host: u32 },
}

/// One shard's private scheduler plus its per-cycle outboxes. Everything
/// here is written by exactly one executor per region and drained by the
/// main thread at the barriers.
pub(crate) struct ShardState {
    pub(crate) sched: ActiveSched,
    /// Event counts this cycle; folded into the global registry (sums).
    pub(crate) counters: Counters,
    /// Any flit/ctl movement this cycle (watchdog feed).
    pub(crate) activity: bool,
    // Measurement deltas (only maintained while measuring).
    pub(crate) max_pool_flits: u32,
    pub(crate) itb_overflows: u64,
    pub(crate) reinject_bubbles: u64,
    /// Region A cross-shard control symbols `(channel, symbol)`; applied
    /// by the main thread at the mid-barrier in ascending channel order.
    pub(crate) ctl_out: Vec<(u32, u8)>,
    /// Cross-shard ctl-wheel notes (region B sends; region A cross-shard
    /// sends are noted when the mid-barrier applies them).
    pub(crate) note_ctl_out: Vec<u32>,
    /// Cross-shard data-wheel notes (region B sends into another shard).
    pub(crate) note_data_out: Vec<u32>,
    /// Deferred effects, keyed for the stable global replay sort.
    pub(crate) arr_fx: Vec<(u32, ArrFx)>,
    pub(crate) sw_fx: Vec<(u32, u32, EventKind)>,
    pub(crate) nic_fx: Vec<(u32, NicFx)>,
    /// Worms routed into a dead output this cycle `(switch, packet)`;
    /// truncated by `Simulator::loss_phase` after the fold.
    pub(crate) sw_loss: Vec<(u32, u32)>,
    /// Unroutable packets skipped at their source NIC `(host, packet)`;
    /// dropped by `Simulator::loss_phase` after the fold.
    pub(crate) nic_drop: Vec<(u32, u32)>,
    /// Per-shard span wall time this cycle, ns: ctl deliveries, data
    /// arrivals (region A), switch advance, NIC transmit (region B).
    /// Written only when `ParCtx::prof_on`; drained by `step_parallel`.
    pub(crate) span_ns: [u64; 4],
}

impl ShardState {
    fn new(delay: u32, n_switches: usize, n_nics: usize) -> ShardState {
        ShardState {
            sched: ActiveSched::new(delay, n_switches, n_nics),
            counters: Counters::new(),
            activity: false,
            max_pool_flits: 0,
            itb_overflows: 0,
            reinject_bubbles: 0,
            ctl_out: Vec::new(),
            note_ctl_out: Vec::new(),
            note_data_out: Vec::new(),
            arr_fx: Vec::new(),
            sw_fx: Vec::new(),
            nic_fx: Vec::new(),
            sw_loss: Vec::new(),
            nic_drop: Vec::new(),
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
    // Reused fold scratch.
    pub(crate) merged_ctl: Vec<(u32, u8)>,
    pub(crate) merged_arr: Vec<(u32, ArrFx)>,
    pub(crate) merged_sw: Vec<(u32, u32, EventKind)>,
    pub(crate) merged_nic: Vec<(u32, NicFx)>,
}

impl ParEngine {
    pub(crate) fn new(
        topo: &Topology,
        requested: usize,
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
        let shard_of = |end: ComponentRef| match end {
            ComponentRef::Switch(sw) => plan.switch_shard(sw as usize) as u32,
            ComponentRef::Nic(host) => plan.nic_shard(host as usize) as u32,
        };
        let data_owner = channels
            .iter()
            .map(|c| {
                shard_of(match c.receiver {
                    Receiver::SwitchIn { sw, .. } => ComponentRef::Switch(sw),
                    Receiver::Nic { host } => ComponentRef::Nic(host),
                })
            })
            .collect();
        let ctl_owner = channels
            .iter()
            .map(|c| {
                shard_of(match c.sender {
                    Sender::SwitchOut { sw, .. } => ComponentRef::Switch(sw),
                    Sender::Nic { host } => ComponentRef::Nic(host),
                })
            })
            .collect();
        let pool = WorkerPool::new(crate::threads::par_executors(plan.n_shards()));
        ParEngine {
            requested,
            plan,
            shards,
            pool,
            data_owner,
            ctl_owner,
            merged_ctl: Vec::new(),
            merged_arr: Vec::new(),
            merged_sw: Vec::new(),
            merged_nic: Vec::new(),
        }
    }
}

enum ComponentRef {
    Switch(u32),
    Nic(u32),
}

/// Raw-pointer view of the simulator for one parallel cycle. Built by
/// `Simulator::step_parallel`; see the module-level safety notes.
pub(crate) struct ParCtx {
    pub(crate) channels: *mut Channel,
    pub(crate) switches: *mut SwitchState,
    pub(crate) nics: *mut Nic,
    pub(crate) pkt_slots: *mut Option<Packet>,
    pub(crate) msg_slots: *mut Option<MsgState>,
    pub(crate) shards: *mut ShardState,
    pub(crate) n_shards: usize,
    pub(crate) executors: usize,
    pub(crate) data_owner: *const u32,
    pub(crate) ctl_owner: *const u32,
    pub(crate) cfg: *const SimConfig,
    pub(crate) topo: *const Topology,
    /// Faults armed. When false, `faults` is null and every fault branch
    /// below is dead.
    pub(crate) faults_on: bool,
    /// Read-only in-region: `FaultSet`/`host_ok`/`reconfig_due` and the
    /// installed tables only mutate in phase 0 (main thread, workers
    /// parked). Null when `faults_on` is false.
    pub(crate) faults: *const FaultRuntime,
    /// The table fresh/retransmitted packets route from: the
    /// reconfigured tables once installed, the build-time `RouteDb`
    /// otherwise. Always valid.
    pub(crate) eff_db: *const RouteDb,
    /// Reconfigured tables are installed: re-select journeys at the
    /// source NIC (mirror of the sequential `f.routes.is_some()` branch).
    pub(crate) reselect: bool,
    /// Per-source path-selection state, indexed by host. A shard only
    /// touches the entries of hosts it owns, so selection is race-free
    /// and draws the same per-source sequence as the sequential engines.
    pub(crate) selectors: *mut SrcSelector,
    pub(crate) cycle: u64,
    pub(crate) measure_on: bool,
    /// Counters or journal enabled: compute block-cause diagnostics.
    pub(crate) diag: bool,
    pub(crate) journal_on: bool,
    pub(crate) trace_on: bool,
    /// Profiler enabled: workers time their region sub-drains into
    /// `ShardState::span_ns` (no `Instant` calls otherwise).
    pub(crate) prof_on: bool,
}

// SAFETY: shared across executors for the duration of one region; the
// disjointness discipline is documented at module level.
unsafe impl Sync for ParCtx {}

/// Resolve a live packet id to a raw pointer. Materializes a transient
/// `&mut Packet` (see the module safety notes); all subsequent access must
/// go through field places / `packet::raw`.
#[inline]
unsafe fn pkt_ptr(ctx: &ParCtx, pid: u32) -> *mut Packet {
    match &mut *ctx.pkt_slots.add(pid as usize) {
        Some(p) => p as *mut Packet,
        None => panic!("stale packet id"),
    }
}

#[inline]
unsafe fn msg_ptr(ctx: &ParCtx, midx: u32) -> *mut MsgState {
    match &mut *ctx.msg_slots.add(midx as usize) {
        Some(m) => m as *mut MsgState,
        None => panic!("stale message id"),
    }
}

/// Run the region-A job for every shard of `executor`.
pub(crate) fn run_region_a(ctx: &ParCtx, executor: usize) {
    let mut s = executor;
    while s < ctx.n_shards {
        unsafe { region_a(ctx, s) };
        s += ctx.executors;
    }
}

/// Run the region-B job for every shard of `executor`.
pub(crate) fn run_region_b(ctx: &ParCtx, executor: usize) {
    let mut s = executor;
    while s < ctx.n_shards {
        unsafe { region_b(ctx, s) };
        s += ctx.executors;
    }
}

// ---------------------------------------------------------------------------
// Region A: ctl deliveries + data arrivals (sequential phases 1 + 2)
// ---------------------------------------------------------------------------

/// Mirrors `Simulator::ctl_phase` + `arrival_phase` for one shard. The
/// fusion is safe: arrival processing never reads the flags ctl delivery
/// flips, and each shard drains its own ctl before its own arrivals so
/// intra-shard `send_ctl` calls find their slot already taken — exactly
/// the sequential call-order contract.
unsafe fn region_a(ctx: &ParCtx, s: usize) {
    let cycle = ctx.cycle;
    let sh = &mut *ctx.shards.add(s);
    let mut mark = ctx.prof_on.then(std::time::Instant::now);

    let bucket = sh.sched.take_ctl(cycle);
    for &ci in &bucket {
        let c = ctx.channels.add(ci as usize);
        let symbol = channel::raw::take_ctl_arrival(c, cycle);
        if symbol != CTL_NONE {
            // Mirror of `Simulator::deliver_ctl`.
            let stopped = symbol == CTL_STOP;
            if stopped {
                sh.counters.ctl_stops += 1;
            } else {
                sh.counters.ctl_gos += 1;
            }
            sh.activity = true;
            match (*c).sender {
                Sender::SwitchOut { sw, port } => {
                    (&mut (*ctx.switches.add(sw as usize)).outp)[port as usize]
                        .as_mut()
                        .expect("ctl for unconnected port")
                        .stopped = stopped;
                }
                Sender::Nic { host } => (*ctx.nics.add(host as usize)).stopped = stopped,
            }
        }
    }
    sh.sched.recycle(bucket);
    if let Some(m) = mark.as_mut() {
        let now = std::time::Instant::now();
        sh.span_ns[0] += (now - *m).as_nanos() as u64;
        *m = now;
    }

    let bucket = sh.sched.take_data(cycle);
    for &ci in &bucket {
        let c = ctx.channels.add(ci as usize);
        if let Some(pid) = channel::raw::take_arrival(c, cycle) {
            sh.activity = true;
            match (*c).receiver {
                Receiver::SwitchIn { sw, port } => switch_rx(ctx, sh, s, ci, sw, port, pid, cycle),
                Receiver::Nic { host } => nic_rx(ctx, sh, ci, host, pid, cycle),
            }
        }
    }
    sh.sched.recycle(bucket);
    if let Some(m) = mark {
        sh.span_ns[1] += m.elapsed().as_nanos() as u64;
    }
}

/// Emit a control symbol from region A. Intra-shard (this shard owns the
/// sender side too, so it already drained the slot): write directly.
/// Cross-shard: the owner may not have drained yet — defer to the
/// mid-barrier.
#[inline]
unsafe fn emit_ctl_region_a(ctx: &ParCtx, sh: &mut ShardState, s: usize, ci: u32, sym: u8) {
    if *ctx.ctl_owner.add(ci as usize) as usize == s {
        channel::raw::send_ctl(ctx.channels.add(ci as usize), ctx.cycle, sym);
        sh.sched.note_ctl(ctx.cycle, ci);
    } else {
        sh.ctl_out.push((ci, sym));
    }
}

/// Mirror of `Simulator::switch_rx`.
#[allow(clippy::too_many_arguments)]
unsafe fn switch_rx(
    ctx: &ParCtx,
    sh: &mut ShardState,
    s: usize,
    ci: u32,
    sw: u32,
    port: u8,
    pid: u32,
    _cycle: u64,
) {
    sh.sched.activate_switch(sw);
    let (new_packet, ctl) = (*ctx.switches.add(sw as usize)).flit_in(port, pid, &*ctx.cfg, || {
        packet::raw::expected_at_next_receiver(pkt_ptr(ctx, pid))
    });
    if new_packet {
        sh.counters.switch_arrivals += 1;
        if ctx.journal_on {
            sh.arr_fx.push((
                ci,
                ArrFx::Journal {
                    pid,
                    kind: EventKind::SwitchArrival { sw, port },
                },
            ));
        }
    }
    if let Some((chan, sym)) = ctl {
        emit_ctl_region_a(ctx, sh, s, chan, sym);
    }
}

/// Mirror of `Simulator::nic_rx`, with the delivery completion deferred to
/// the fold (`ArrFx::Deliver`): it mutates globally shared state (arena
/// and message free-lists, measurement, trace digest) whose order across
/// shards must match the sequential channel order.
unsafe fn nic_rx(ctx: &ParCtx, sh: &mut ShardState, ci: u32, host: u32, pid: u32, cycle: u64) {
    let cfg = &*ctx.cfg;
    let nic = &mut *ctx.nics.add(host as usize);
    let is_new = match nic.rx {
        Some(rx) => {
            debug_assert_eq!(rx.pid, pid, "interleaved packets into NIC");
            false
        }
        None => true,
    };
    if is_new {
        let pkt = pkt_ptr(ctx, pid);
        let expected = packet::raw::expected_at_next_receiver(pkt);
        let deliver = match (&(*pkt).journey.segments)[(*pkt).seg as usize].end {
            SegmentEnd::Deliver => {
                debug_assert_eq!((*pkt).journey.dst.0, host, "misrouted packet");
                true
            }
            SegmentEnd::Itb(itb_host) => {
                debug_assert_eq!(itb_host.0, host, "misrouted in-transit packet");
                (*pkt).itbs_used += 1;
                let mut ready = cycle + (cfg.itb_detect_cycles + cfg.itb_dma_cycles) as u64;
                let overflow = nic.pool_used + expected > cfg.itb_pool_flits;
                if !overflow {
                    nic.pool_used += expected;
                    (*pkt).pool_reserved = expected;
                    if ctx.measure_on {
                        sh.max_pool_flits = sh.max_pool_flits.max(nic.pool_used);
                    }
                } else {
                    (*pkt).pool_reserved = 0;
                    ready += cfg.itb_overflow_penalty_cycles as u64;
                    if ctx.measure_on {
                        sh.itb_overflows += 1;
                    }
                }
                (*pkt).seg += 1;
                (*pkt).hop = 0;
                nic.reinject.push(Reverse((ready, pid)));
                sh.sched.wake_nic_at(ready, host);
                sh.counters.itb_ejections += 1;
                if overflow {
                    sh.counters.itb_overflows += 1;
                }
                if ctx.trace_on || ctx.journal_on {
                    sh.arr_fx.push((
                        ci,
                        ArrFx::ItbEject {
                            pid,
                            host,
                            overflow,
                        },
                    ));
                }
                false
            }
        };
        nic.rx = Some(RxState {
            pid,
            received: 0,
            expected,
            deliver,
        });
    }

    let rx = nic.rx.as_mut().unwrap();
    rx.received += 1;
    let finished = rx.received == rx.expected;
    let deliver = rx.deliver;
    if finished {
        nic.rx = None;
        if deliver {
            sh.arr_fx.push((ci, ArrFx::Deliver { pid, host }));
        }
    }
}

// ---------------------------------------------------------------------------
// Region B: switch advance + NIC transmit (sequential phases 3 + 4)
// ---------------------------------------------------------------------------

/// Mirrors `Simulator::switches_phase` + `nic_tx_phase` for one shard,
/// with the active-set retire/merge discipline intact (quiescence is a
/// per-component predicate, so it shards cleanly).
unsafe fn region_b(ctx: &ParCtx, s: usize) {
    let cycle = ctx.cycle;
    let sh = &mut *ctx.shards.add(s);
    let mut mark = ctx.prof_on.then(std::time::Instant::now);

    let mut list = sh.sched.take_active_switches();
    list.sort_unstable();
    list.retain(|&sw| {
        switch_phase(ctx, sh, s, sw as usize, cycle);
        if (*ctx.switches.add(sw as usize)).is_quiescent() {
            sh.sched.retire_switch(sw);
            false
        } else {
            true
        }
    });
    sh.sched.merge_switches(list);
    if let Some(m) = mark.as_mut() {
        let now = std::time::Instant::now();
        sh.span_ns[2] += (now - *m).as_nanos() as u64;
        *m = now;
    }

    sh.sched.drain_wakes(cycle);
    let mut list = sh.sched.take_active_nics();
    list.sort_unstable();
    list.retain(|&h| {
        nic_tx(ctx, sh, s, h as usize, cycle);
        if (*ctx.nics.add(h as usize)).quiescent_for_tx(cycle) {
            sh.sched.retire_nic(h);
            false
        } else {
            true
        }
    });
    sh.sched.merge_nics(list);
    if let Some(m) = mark {
        sh.span_ns[3] += m.elapsed().as_nanos() as u64;
    }
}

/// Emit a control symbol from region B. The write is always direct — this
/// shard's in-port is the channel's unique ctl writer this region and
/// nothing reads ctl until next cycle's region A (the mid-barrier applied
/// region A's cross-shard symbols *before* region B, preserving the
/// STOP-then-GO supersede order). Only the wheel note can be cross-shard.
#[inline]
unsafe fn emit_ctl_region_b(ctx: &ParCtx, sh: &mut ShardState, s: usize, ci: u32, sym: u8) {
    channel::raw::send_ctl(ctx.channels.add(ci as usize), ctx.cycle, sym);
    if *ctx.ctl_owner.add(ci as usize) as usize == s {
        sh.sched.note_ctl(ctx.cycle, ci);
    } else {
        sh.note_ctl_out.push(ci);
    }
}

/// Mirror of `Simulator::switch_phase`, fault branches included; losses
/// are recorded in `ShardState::sw_loss` for the deferred loss phase.
unsafe fn switch_phase(ctx: &ParCtx, sh: &mut ShardState, s_shard: usize, s: usize, cycle: u64) {
    let cfg = &*ctx.cfg;
    // A dead switch routes nothing (its resident packets were purged
    // when it failed).
    if ctx.faults_on && !(*ctx.faults).active.is_switch_alive(SwitchId(s as u32)) {
        return;
    }
    let sw = &mut *ctx.switches.add(s);

    for p in ports(sw.rcu_ports()) {
        match sw.head(p) {
            HeadState::Idle => {
                let pid = sw.head_pid(p);
                let out = packet::raw::consume_port_byte(pkt_ptr(ctx, pid));
                let ready = cycle + cfg.switch_routing_cycles as u64;
                if let Some((chan, sym)) = sw.start_routing(p, out, ready, cfg) {
                    emit_ctl_region_b(ctx, sh, s_shard, chan, sym);
                }
                if ctx.faults_on {
                    // Routing towards a dead cable (or a port that never
                    // existed in a stale route): the worm is lost.
                    // Truncation is deferred to the loss phase (see
                    // `Simulator::loss_phase`).
                    let dead_out = match sw.out_chan(out) {
                        Some(c) => channel::raw::is_dead(ctx.channels.add(c as usize)),
                        None => true,
                    };
                    if dead_out {
                        sh.sw_loss.push((s as u32, pid));
                    }
                }
                sh.counters.route_lookups += 1;
                if ctx.journal_on {
                    sh.sw_fx.push((
                        s as u32,
                        pid,
                        EventKind::Route {
                            sw: s as u32,
                            port: p as u8,
                            out,
                        },
                    ));
                }
            }
            HeadState::Routing { ready } if cycle >= ready => {
                sw.request_output(p);
                if ctx.diag {
                    if let Some(cause) = sw.block_cause(p) {
                        sh.counters.worms_blocked += 1;
                        if ctx.journal_on {
                            sh.sw_fx.push((
                                s as u32,
                                sw.head_pid(p),
                                EventKind::Block {
                                    sw: s as u32,
                                    out: sw.head_out(p),
                                    cause,
                                },
                            ));
                        }
                    }
                }
            }
            _ => {}
        }
    }

    for p in ports(sw.busy_outputs()) {
        if let Some(g) = sw.arbitrate(p) {
            sh.counters.arbitration_grants += 1;
            if ctx.journal_on {
                sh.sw_fx.push((
                    s as u32,
                    sw.head_pid(g as usize),
                    EventKind::HeadAdvance {
                        sw: s as u32,
                        in_port: g,
                        out: p as u8,
                    },
                ));
            }
        }
        let Some((g, out_chan)) = sw.open_connection(p) else {
            continue;
        };
        if ctx.faults_on && channel::raw::is_dead(ctx.channels.add(out_chan as usize)) {
            // The granted head is already queued for loss handling;
            // never stream flits into a dead cable.
            continue;
        }
        let Some((pid, ctl)) = sw.forward_flit(p, g, cfg) else {
            continue;
        };
        channel::raw::send(ctx.channels.add(out_chan as usize), cycle, pid);
        sh.activity = true;
        if *ctx.data_owner.add(out_chan as usize) as usize == s_shard {
            sh.sched.note_data(cycle, out_chan);
        } else {
            sh.note_data_out.push(out_chan);
        }
        sh.counters.flits_forwarded += 1;
        if let Some((chan, sym)) = ctl {
            emit_ctl_region_b(ctx, sh, s_shard, chan, sym);
        }
    }
}

/// Mirror of `Simulator::nic_tx`, fault branches included; unroutable
/// packets are recorded in `ShardState::nic_drop` for the deferred loss
/// phase. A NIC's access channel always stays intra-shard (the NIC lives
/// in its host switch's shard), so the data note is direct.
unsafe fn nic_tx(ctx: &ParCtx, sh: &mut ShardState, _s_shard: usize, h: usize, cycle: u64) {
    let cfg = &*ctx.cfg;
    let nic = &mut *ctx.nics.add(h);
    if ctx.faults_on {
        let f = &*ctx.faults;
        // Sources freeze while the mapper redistributes routes; the
        // transmission already in progress may finish.
        if f.reconfig_due.is_some() && nic.tx.is_none() {
            return;
        }
        // A NIC on a dead host link cannot move flits at all.
        if channel::raw::is_dead(ctx.channels.add(nic.out_chan as usize)) {
            return;
        }
    }
    if nic.tx.is_none() {
        while let Some((pid, kind)) = nic.pick_next_tx(cycle, cfg.itb_priority) {
            // Fresh and retransmitted packets route from scratch: under
            // faults, re-validate the pair and — once a rebuild has been
            // installed — re-select the journey from the current tables
            // (in-transit packets keep their remaining route).
            if ctx.faults_on && kind != TxKind::Reinject {
                let f = &*ctx.faults;
                let topo = &*ctx.topo;
                let db = &*ctx.eff_db;
                let pkt = pkt_ptr(ctx, pid);
                let (src, dst) = ((*pkt).journey.src, (*pkt).journey.dst);
                let routable = f.host_ok[src.idx()]
                    && f.host_ok[dst.idx()]
                    && db.has_route(topo.host_switch(src), topo.host_switch(dst));
                if !routable {
                    // Skip it now (the NIC still transmits the next
                    // routable packet this cycle); the drop bookkeeping
                    // runs in the loss phase.
                    sh.nic_drop.push((h as u32, pid));
                    continue;
                }
                if ctx.reselect {
                    // `src` is this NIC's host, so the selector entry is
                    // shard-owned.
                    let journey =
                        db.select_from(topo, src, dst, &mut *ctx.selectors.add(src.idx()));
                    (*pkt).journey = journey;
                    (*pkt).seg = 0;
                    (*pkt).hop = 0;
                }
            }
            let total = packet::raw::wire_len_current_segment(pkt_ptr(ctx, pid));
            nic.tx = Some(TxState {
                pid,
                sent: 0,
                total,
                reinjection: kind == TxKind::Reinject,
            });
            break;
        }
    }
    let Some(tx) = nic.tx else { return };
    if nic.stopped {
        return;
    }
    let pkt = pkt_ptr(ctx, tx.pid);
    let available = if tx.reinjection {
        let arrived_here = match nic.rx {
            Some(rx) if rx.pid == tx.pid => rx.received,
            _ => tx.total + 1, // fully received (wire included the ITB mark)
        };
        if cfg.itb_cut_through {
            arrived_here.saturating_sub(1)
        } else if arrived_here > tx.total {
            tx.total
        } else {
            0
        }
    } else {
        tx.total
    };
    if tx.sent >= available {
        if tx.reinjection && tx.sent > 0 && ctx.measure_on {
            sh.reinject_bubbles += 1;
        }
        return;
    }
    if tx.sent == 0 && !tx.reinjection {
        (*pkt).inject_cycle = cycle;
        let ms = msg_ptr(ctx, (*pkt).msg);
        if (*ms).first_inject == u64::MAX {
            (*ms).first_inject = cycle;
        }
        if ctx.journal_on {
            sh.nic_fx.push((
                h as u32,
                NicFx::Inject {
                    pid: tx.pid,
                    src: (*pkt).journey.src.0,
                    dst: (*pkt).journey.dst.0,
                },
            ));
        }
    }
    channel::raw::send(ctx.channels.add(nic.out_chan as usize), cycle, tx.pid);
    sh.activity = true;
    sh.sched.note_data(cycle, nic.out_chan);
    sh.counters.flits_injected += 1;
    if tx.sent == 0 && tx.reinjection {
        sh.counters.itb_reinjections += 1;
        if ctx.trace_on || ctx.journal_on {
            sh.nic_fx.push((
                h as u32,
                NicFx::Reinject {
                    pid: tx.pid,
                    host: h as u32,
                },
            ));
        }
    }
    let tx_ref = nic.tx.as_mut().unwrap();
    tx_ref.sent += 1;
    if tx_ref.sent == tx_ref.total {
        if tx_ref.reinjection && (*pkt).pool_reserved > 0 {
            nic.pool_used -= (*pkt).pool_reserved;
            (*pkt).pool_reserved = 0;
        }
        nic.tx = None;
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
