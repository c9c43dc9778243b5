//! The fault machinery: phase 0 (fault events, purges, reconfiguration)
//! and the replay of the kernel's deferred losses after NIC transmission.

use std::cmp::Reverse;

use rand::Rng;

use regnet_mapper::{rebuild_physical_routes, FaultSet, PhysicalRoutes};
use regnet_topology::{HostId, SwitchId};

use super::Simulator;
use crate::channel::{Receiver, Sender};
use crate::config::MAX_RETRANSMITS;
use crate::events::EventKind;
use crate::faultplan::{
    FaultEvent, FaultOptions, FaultRuntime, FaultTarget, ReliabilityStats, Remap,
};
use crate::nic::Nic;
use crate::packet::NO_PACKET;
use crate::switch::HeadState;

/// How the loss phase disposes of a packet the kernel could not move on.
pub(super) enum Loss {
    /// Its worm was routed into a dead output: truncated, then
    /// retransmitted or dropped (`handle_loss`).
    Worm,
    /// It became unroutable at its source NIC: dropped (`drop_packet`).
    Unroutable,
}

/// Every packet `nic` holds for transmission — the one it is sending, its
/// source queue, its pending re-injections and retransmissions — plus,
/// with `rx`, the one it is receiving.
fn nic_victims(nic: &Nic, rx: bool, victims: &mut Vec<u32>) {
    victims.extend(nic.tx.map(|tx| tx.pid));
    victims.extend(nic.rx.filter(|_| rx).map(|rx| rx.pid));
    victims.extend(nic.local_queue.iter().copied());
    victims.extend(nic.reinject.iter().map(|&Reverse((_, pid))| pid));
    victims.extend(nic.retransmit.iter().map(|&Reverse((_, pid))| pid));
}

/// Ordered pairs of distinct hosts among `n`.
fn pairs(n: u64) -> u64 {
    n * n.saturating_sub(1)
}

impl Simulator<'_> {
    /// Arm the fault-injection runtime with `opts` (see [`FaultOptions`]).
    /// Call before running; events earlier than the current cycle fire
    /// immediately on the next step. Panics on an event naming an element
    /// the topology lacks (see [`FaultPlan::check`](crate::FaultPlan::check)).
    pub fn enable_faults(&mut self, opts: FaultOptions) {
        if let Err(e) = opts.plan.check(self.topo) {
            panic!("enable_faults: {e}");
        }
        self.faults = Some(Box::new(FaultRuntime::new(opts, self.topo.num_hosts())));
    }

    /// Dependability counters so far; all zeros when faults were never
    /// enabled.
    pub fn reliability(&self) -> ReliabilityStats {
        self.rel.clone()
    }

    /// The routing tables installed by the last successful mid-run
    /// reconfiguration, if any.
    pub fn reconfigured_routes(&self) -> Option<&PhysicalRoutes> {
        let installed = self.faults.as_deref().and_then(|f| f.routes.as_ref());
        installed.map(|r| &r.routes)
    }

    /// The faults currently in force, if fault injection is enabled.
    pub fn active_faults(&self) -> Option<&FaultSet> {
        self.faults.as_deref().map(|f| &f.active)
    }

    /// Faulted runs only: replay this cycle's deferred losses. The switch
    /// and NIC phases never truncate or drop in place — they record
    /// `(Loss, packet)` pairs — and this phase replays them in recording
    /// order, which is visit order: switches before NICs, each ascending,
    /// under both loops. Engine and oracle therefore mutate the packet
    /// arena in the same within-cycle order — deliveries in channel
    /// order, then switch truncations in switch order, then source drops
    /// in NIC order, then generation — which is what keeps free-list
    /// reuse, and with it every downstream id, bit-identical between the
    /// two.
    pub(super) fn loss_phase(&mut self, cycle: u64) {
        let mut lost = std::mem::take(&mut self.pending_loss);
        for (loss, pid) in lost.drain(..) {
            match loss {
                Loss::Worm => self.handle_loss(pid, cycle),
                Loss::Unroutable => self.drop_packet(pid, cycle),
            }
        }
        self.pending_loss = lost;
    }

    /// Apply every fault event due at `cycle`, purge the truncated worms,
    /// and drive the pending reconfiguration if one is in flight.
    pub(super) fn fault_phase(&mut self, cycle: u64) {
        let mut victims: Vec<u32> = Vec::new();
        let mut applied = false;
        loop {
            let f = self.faults.as_deref().unwrap();
            let Some(&ev) = f.events.get(f.next_event) else {
                break;
            };
            if ev.cycle > cycle {
                break;
            }
            self.faults.as_deref_mut().unwrap().next_event += 1;
            self.apply_fault_event(ev, &mut victims);
            applied = true;
        }
        if applied {
            self.sync_channels_to_faults(&mut victims);
            self.lose_all(victims, cycle);
            if self.faults.as_deref().unwrap().reconfigure {
                // The management process re-maps the network; the new
                // tables take effect after the reconfiguration latency.
                self.faults.as_deref_mut().unwrap().reconfig_due =
                    Some(cycle + self.cfg.reconfig_latency_cycles);
            } else {
                self.refresh_direct_host_ok(cycle);
            }
        }
        match self.faults.as_deref().unwrap().reconfig_due {
            Some(due) if cycle >= due => self.complete_reconfiguration(cycle),
            Some(_) => self.rel.reconfig_stall_cycles += 1,
            None => {}
        }
    }

    /// Hand every victim, once each and in id order, to `handle_loss`.
    fn lose_all(&mut self, mut victims: Vec<u32>, cycle: u64) {
        victims.sort_unstable();
        victims.dedup();
        for pid in victims {
            self.handle_loss(pid, cycle);
        }
    }

    fn apply_fault_event(&mut self, ev: FaultEvent, victims: &mut Vec<u32>) {
        if let Some(c) = &mut self.counters {
            if ev.fail {
                c.fault_fires += 1;
            } else {
                c.fault_repairs += 1;
            }
        }
        if let Some(j) = &mut self.journal {
            let kind = if ev.fail {
                EventKind::FaultFire { target: ev.target }
            } else {
                EventKind::FaultRepair { target: ev.target }
            };
            j.record(ev.cycle, NO_PACKET, kind);
        }
        let f = self.faults.as_deref_mut().unwrap();
        match (ev.target, ev.fail) {
            (FaultTarget::Link(l), true) => {
                f.active.kill_link(l);
                self.rel.link_failures += 1;
            }
            (FaultTarget::Link(l), false) => {
                f.active.revive_link(l);
                self.rel.repairs += 1;
            }
            (FaultTarget::Switch(s), true) => {
                f.active.kill_switch(s);
                self.rel.switch_failures += 1;
            }
            (FaultTarget::Switch(s), false) => {
                f.active.revive_switch(s);
                self.rel.repairs += 1;
            }
            (FaultTarget::Host(h), true) => {
                f.active.kill_host(h);
                self.rel.host_failures += 1;
                f.host_up[h.idx()] = false;
                f.host_ok[h.idx()] = false;
                self.kill_host_nic(h.idx(), victims);
            }
            (FaultTarget::Host(h), false) => {
                f.active.revive_host(h);
                self.rel.repairs += 1;
                // Powered back on; reachability (and generation restart)
                // is decided when host_ok is next refreshed.
                f.host_up[h.idx()] = true;
            }
        }
    }

    /// A host died: everything its NIC holds is lost, and it generates
    /// nothing until repaired.
    fn kill_host_nic(&mut self, h: usize, victims: &mut Vec<u32>) {
        let nic = &mut self.nics[h];
        nic.next_gen = f64::MAX;
        nic.scheduled.clear();
        nic.stopped = false;
        nic_victims(nic, true, victims);
    }

    /// Bring every channel's dead/alive state in line with the active fault
    /// set (a dead switch or host implicitly kills its cables), collecting
    /// the packets truncated in the process.
    fn sync_channels_to_faults(&mut self, victims: &mut Vec<u32>) {
        for i in 0..self.topo.num_links() {
            let lid = self.topo.links()[i].id;
            let alive = self
                .faults
                .as_deref()
                .unwrap()
                .active
                .is_link_alive(self.topo, lid);
            let pair = self.link_chans[i];
            for ci in pair {
                if !alive && !self.channels.is_dead(ci) {
                    let mut v = self.fail_channel(ci);
                    victims.append(&mut v);
                } else if alive && self.channels.is_dead(ci) {
                    self.repair_channel(ci);
                }
            }
        }
        // Packets resident in a freshly dead switch's buffers die with it.
        for s in 0..self.switches.len() {
            if self
                .faults
                .as_deref()
                .unwrap()
                .active
                .is_switch_alive(SwitchId(s as u32))
            {
                continue;
            }
            for inp in self.switches[s].inp.iter().flatten() {
                victims.extend(inp.queue().iter().map(|q| q.pid));
            }
        }
    }

    /// Kill one directed channel: flits in flight are destroyed, and the
    /// worms cut at either end of the cable are victims too.
    fn fail_channel(&mut self, ci: u32) -> Vec<u32> {
        let mut victims = self.channels.fail(ci);
        match self.channels.receiver(ci) {
            Receiver::SwitchIn { sw, port } => {
                // A partially received packet can never get its tail.
                if let Some(inp) = self.switches[sw as usize].inp[port as usize].as_ref() {
                    if let Some(back) = inp.queue().back() {
                        if back.received < back.expected {
                            victims.push(back.pid);
                        }
                    }
                }
            }
            Receiver::Nic { host } => {
                if let Some(rx) = self.nics[host as usize].rx {
                    victims.push(rx.pid);
                }
            }
        }
        match self.channels.sender(ci) {
            Sender::SwitchOut { sw, port } => {
                // Any head routed towards this output loses its worm: flits
                // already sent are gone and the remainder can never follow.
                for inp in self.switches[sw as usize].inp.iter().flatten() {
                    if inp.head() != HeadState::Idle && inp.head_out() == port {
                        if let Some(head) = inp.queue().front() {
                            victims.push(head.pid);
                        }
                    }
                }
            }
            Sender::Nic { host } => {
                if let Some(tx) = self.nics[host as usize].tx {
                    victims.push(tx.pid);
                }
            }
        }
        victims
    }

    /// Bring a repaired channel back and re-sync the sender's stop/go flag
    /// with the receiver's current state (control symbols in flight died
    /// with the cable; without the re-sync a stale STOP wedges the link).
    fn repair_channel(&mut self, ci: u32) {
        self.channels.repair(ci);
        let stopped = match self.channels.receiver(ci) {
            Receiver::SwitchIn { sw, port } => self.switches[sw as usize].inp[port as usize]
                .as_ref()
                .map(|p| p.stop_sent)
                .unwrap_or(false),
            Receiver::Nic { .. } => false,
        };
        match self.channels.sender(ci) {
            Sender::SwitchOut { sw, port } => {
                self.switches[sw as usize].set_stopped(port as usize, stopped)
            }
            Sender::Nic { host } => self.nics[host as usize].stopped = stopped,
        }
    }

    /// Recompute host_ok straight from the fault set (no mapper): a host is
    /// ok iff it is powered on and its own access path is alive. Used when
    /// reconfiguration is disabled or failed.
    fn refresh_direct_host_ok(&mut self, cycle: u64) {
        let new_ok: Vec<bool> = {
            let f = self.faults.as_deref().unwrap();
            self.topo
                .hosts()
                .map(|h| f.host_up[h.idx()] && f.active.is_host_alive(self.topo, h))
                .collect()
        };
        self.apply_host_ok(new_ok, cycle);
    }

    /// Install a new host_ok vector, reacting to the edges: a host coming
    /// back restarts its generator; a host dropping out strands the traffic
    /// queued at its NIC.
    fn apply_host_ok(&mut self, new_ok: Vec<bool>, cycle: u64) {
        let n = new_ok.len();
        for (h, &ok) in new_ok.iter().enumerate() {
            let old = self.faults.as_deref().unwrap().host_ok[h];
            if old == ok {
                continue;
            }
            self.faults.as_deref_mut().unwrap().host_ok[h] = ok;
            if ok {
                // Its generator restarts and its `scheduled` backlog is
                // due again: have this cycle's generation phase look.
                self.gen_heap.push(Reverse((cycle, h as u32)));
                self.restart_generation(h, cycle);
            } else {
                self.strand_host_traffic(h, cycle);
            }
        }
        let f = self.faults.as_deref().unwrap();
        let live = f.host_ok.iter().filter(|&&ok| ok).count() as u64;
        let total = n as u64;
        self.rel.unreachable_pairs = pairs(total) - pairs(live);
    }

    /// A repaired (or re-connected) host resumes generating with a fresh
    /// random phase — no burst to catch up on the downtime.
    fn restart_generation(&mut self, h: usize, cycle: u64) {
        if self.gen_frozen || !self.pattern.host_generates(HostId(h as u32)) {
            return;
        }
        let nic = &mut self.nics[h];
        nic.next_gen = cycle as f64 + nic.rng.gen::<f64>() * self.interarrival;
    }

    /// A host became unreachable (but may still be powered on): everything
    /// queued at its NIC can no longer leave; treat it as lost so sources
    /// elsewhere can retransmit and the network still drains.
    fn strand_host_traffic(&mut self, h: usize, cycle: u64) {
        let mut victims: Vec<u32> = Vec::new();
        nic_victims(&self.nics[h], false, &mut victims);
        self.lose_all(victims, cycle);
    }

    /// The reconfiguration latency elapsed: run the mapper on the surviving
    /// network and swap the rebuilt tables in atomically — or, when the
    /// network is back to the fault set the installed tables replaced,
    /// swap those back in: rebuilding them would give the same bits.
    fn complete_reconfiguration(&mut self, cycle: u64) {
        let scheme = self.db.scheme();
        let topo = self.topo;
        let rebuilt = {
            let f = self.faults.as_deref_mut().unwrap();
            f.reconfig_due = None;
            let alive = |h: HostId| f.host_up[h.idx()] && f.active.is_host_alive(topo, h);
            // The management host itself may be down: the lowest-numbered
            // live host takes over.
            let seed = Some(f.seed_host)
                .filter(|&h| alive(h))
                .or_else(|| topo.hosts().find(|&h| alive(h)));
            seed.and_then(|seed| {
                // A miss drops the kept tables here, before the build, so
                // at most the installed tables and the new ones are live.
                let kept = f.replaced.take();
                if let Some(r) = kept.filter(|r| r.seed == seed && r.faults == f.active) {
                    f.swaps += 1;
                    return Some(r);
                }
                let routes =
                    rebuild_physical_routes(topo, &f.active, seed, scheme, &f.db_cfg).ok()?;
                Some(Remap {
                    faults: f.active.clone(),
                    seed,
                    routes,
                })
            })
        };
        match rebuilt {
            Some(remap) => {
                let f = self.faults.as_deref_mut().unwrap();
                let new_ok: Vec<bool> = (0..topo.num_hosts())
                    .map(|h| f.host_up[h] && remap.routes.reachable_hosts[h])
                    .collect();
                self.rel.reconfigurations += 1;
                f.replaced = f.routes.replace(remap);
                self.apply_host_ok(new_ok, cycle);
            }
            None => {
                self.rel.reconfig_failures += 1;
                self.refresh_direct_host_ok(cycle);
            }
        }
        // List every NIC with work, so that phase 4 of this very cycle
        // visits it, as the scan does.
        if let Some(sc) = self.sched.as_deref_mut() {
            for (h, nic) in self.nics.iter().enumerate() {
                if !nic.quiescent_for_tx(cycle) {
                    sc.activate_nic(h as u32);
                }
            }
        }
    }

    /// A packet's worm was truncated somewhere: purge every remaining trace
    /// of it, then either queue a source retransmission or drop it for good.
    fn handle_loss(&mut self, pid: u32, cycle: u64) {
        self.purge_packet(pid, cycle);
        self.rel.worms_truncated += 1;
        let (src, retries) = {
            let p = self.arena.get(pid);
            (p.journey.src, p.retries)
        };
        let can_retry =
            retries < MAX_RETRANSMITS && self.faults.as_deref().unwrap().host_ok[src.idx()];
        if can_retry {
            let pkt = self.arena.get_mut(pid);
            pkt.retries += 1;
            pkt.seg = 0;
            pkt.hop = 0;
            pkt.itbs_used = 0;
            let due = cycle + self.cfg.retransmit_timeout_cycles;
            self.nics[src.idx()].retransmit.push(Reverse((due, pid)));
            if let Some(sc) = self.sched.as_deref_mut() {
                sc.wake_nic_at(due, src.0);
            }
            self.rel.retransmissions += 1;
            if let Some(c) = &mut self.counters {
                c.retransmits += 1;
            }
            if let Some(j) = &mut self.journal {
                j.record(cycle, pid, EventKind::Retransmit { src: src.0 });
            }
        } else {
            self.drop_packet(pid, cycle);
        }
    }

    /// Give up on a packet, and with it on its message.
    fn drop_packet(&mut self, pid: u32, cycle: u64) {
        if let Some(c) = &mut self.counters {
            c.packets_dropped += 1;
        }
        if let Some(j) = &mut self.journal {
            j.record(cycle, pid, EventKind::Drop);
        }
        self.arena.remove(pid);
        self.rel.dropped_packets += 1;
        self.rel.dropped_messages += 1;
    }

    /// Remove every trace of `pid` from the fabric — channels, switch input
    /// buffers (with flow-control accounting), crossbar connections and NIC
    /// queues — leaving the packet itself in the arena for the caller.
    fn purge_packet(&mut self, pid: u32, cycle: u64) {
        self.channels.purge(pid);
        let row = self.channels.row(cycle);
        for s in 0..self.switches.len() {
            let mut ctl = Vec::new();
            self.switches[s].purge(pid, |c| ctl.push(c));
            for (in_chan, sym) in ctl {
                // The purge can run in phase 0, before this cycle's control
                // arrivals were taken: the symbol arriving right now is
                // overwritten, so take it first for `send_ctl`'s call-order
                // check. In phase 0, `sym` lands in the row phase 1 drains
                // this very cycle, under the engine and the oracle alike.
                self.channels.take_ctl(row, in_chan);
                self.channels.send_ctl(row, in_chan, sym);
            }
        }
        for h in 0..self.nics.len() {
            let mut release = false;
            if let Some(tx) = self.nics[h].tx.filter(|tx| tx.pid == pid) {
                release = tx.reinjection;
                self.nics[h].tx = None;
                // It may have been asleep, held by STOP.
                if let Some(sc) = self.sched.as_deref_mut() {
                    sc.activate_nic(h as u32);
                }
            }
            {
                let nic = &mut self.nics[h];
                if let Some(rx) = nic.rx {
                    if rx.pid == pid {
                        nic.rx = None;
                    }
                }
                nic.local_queue.retain(|&q| q != pid);
                // The heaps' entries are distinct `(cycle, pid)` pairs, so
                // their pop order is total and no rebuild can change it.
                let queued = nic.reinject.len();
                nic.reinject.retain(|&Reverse((_, q))| q != pid);
                release |= nic.reinject.len() != queued;
                nic.retransmit.retain(|&Reverse((_, q))| q != pid);
            }
            if release {
                // The packet held in-transit pool space at this NIC.
                let pkt = self.arena.get_mut(pid);
                if pkt.pool_reserved > 0 {
                    self.nics[h].pool_used =
                        self.nics[h].pool_used.saturating_sub(pkt.pool_reserved);
                    pkt.pool_reserved = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{build_ring4, small_cfg};
    use super::*;
    use crate::config::SimConfig;
    use crate::faultplan::FaultPlan;
    use crate::sched::Scheduler;
    use regnet_core::{RouteDb, RouteDbConfig, RoutingScheme};
    use regnet_topology::gen;
    use regnet_traffic::{Pattern, PatternSpec};

    /// A packet resident in a switch, one per purge case not exercised
    /// yet: head `Idle` / `Routing` / `Requesting` / `Granted`, or (4) a
    /// queue entry behind the head.
    fn next_purge_case(sim: &Simulator, seen: &[bool; 5]) -> Option<(usize, u32)> {
        for sw in &sim.switches {
            for inp in sw.inp.iter().flatten() {
                for (pos, entry) in inp.queue().iter().enumerate() {
                    let case = match (pos, inp.head()) {
                        (0, HeadState::Idle) => 0,
                        (0, HeadState::Routing { .. }) => 1,
                        (0, HeadState::Requesting) => 2,
                        (0, HeadState::Granted) => 3,
                        _ => 4,
                    };
                    if !seen[case] {
                        return Some((case, entry.pid));
                    }
                }
            }
        }
        None
    }

    /// A plan naming a host the topology lacks is refused when armed, not
    /// by an index out of bounds once the event fires.
    #[test]
    #[should_panic(expected = "enable_faults: cannot fail host 500 at cycle 50")]
    fn arming_a_fault_on_a_missing_host_names_the_event() {
        let topo = build_ring4();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let mut sim = Simulator::new(&topo, &db, &pattern, small_cfg(), 0.01, 3);
        let mut plan = FaultPlan::new();
        plan.fail_host(50, HostId(500));
        sim.enable_faults(FaultOptions::with_plan(plan));
    }

    /// A NIC asleep under STOP with packets queued behind its worm must
    /// wake when the worm is lost: the GO that would have woken it may
    /// never come (the purge can leave the switch's buffer above the GO
    /// threshold, or the cable dead).
    #[test]
    fn losing_a_stop_held_worm_wakes_its_nic() {
        let topo = build_ring4();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let mut sim = Simulator::new(&topo, &db, &pattern, small_cfg(), 0.5, 3);
        sim.enable_faults(FaultOptions::with_plan(FaultPlan::new()));
        // Asleep: held, and not listed since.
        let held = |sim: &Simulator| {
            let listed = &sim.sched.as_deref().unwrap().nics;
            let mut nics = sim.nics.iter().enumerate();
            let unlisted = |h: usize| !listed.contains(h as u32);
            nics.find(|&(h, n)| n.held_by_stop() && !n.local_queue.is_empty() && unlisted(h))
                .map(|(h, n)| (h, n.tx.unwrap().pid))
        };
        while held(&sim).is_none() {
            assert!(sim.cycle < 20_000, "no NIC ever held by STOP");
            sim.step();
        }
        let (h, pid) = held(&sim).unwrap();
        sim.handle_loss(pid, sim.cycle);
        assert!(sim.nics[h].tx.is_none());
        sim.check_invariants();
    }

    /// A source with a packet queued while the network re-maps sleeps:
    /// once the fabric has drained it is unlisted and the run loop jumps
    /// the stall; the cycle the new tables land lists it again, and it
    /// sends its first flit that very cycle, as under the scan.
    #[test]
    fn a_frozen_source_sleeps_until_the_new_tables_land() {
        let topo = gen::torus_2d(4, 4, 2).unwrap();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let link = topo.links().iter().find(|l| l.is_switch_link()).unwrap().id;
        let cfg = SimConfig {
            reconfig_latency_cycles: 3_000,
            ..small_cfg()
        };
        let (fail, due) = (1_000, 4_000);
        let start = |scheduler: Scheduler| {
            let mut sim = Simulator::new(&topo, &db, &pattern, cfg.clone(), 0.01, 5);
            sim.set_scheduler(scheduler);
            sim.enable_faults(FaultOptions::with_plan(FaultPlan::single_link(link, fail)));
            sim
        };
        let listed =
            |sim: &Simulator, h: usize| sim.sched.as_deref().unwrap().nics.contains(h as u32);
        // Drained fabric, and a source with only a fresh packet to send.
        let sleeper = |sim: &Simulator| {
            let drained =
                sim.channels.in_flight() == 0 && sim.switches.iter().all(|sw| sw.is_quiescent());
            let fresh_only = |n: &Nic| n.reinject.is_empty() && n.retransmit.is_empty();
            sim.nics
                .iter()
                .enumerate()
                .filter(|&(h, n)| drained && fresh_only(n) && !listed(sim, h))
                .find_map(|(h, n)| Some((h, *n.local_queue.front()?)))
        };

        let mut sim = start(Scheduler::ActiveSet);
        sim.enable_skip_log();
        sim.run(fail + 1);
        while sleeper(&sim).is_none() {
            assert!(sim.cycle < due - 500, "no source asleep in a drained stall");
            sim.run(1);
            sim.check_invariants();
        }
        let (h, pid) = sleeper(&sim).unwrap();
        sim.run(due - sim.cycle);
        let jumped = sim
            .skip_log()
            .iter()
            .any(|&(from, to)| fail < from && to <= due);
        assert!(jumped, "no jump inside the stall: {:?}", sim.skip_log());
        sim.step();
        assert!(listed(&sim, h), "NIC {h} not listed when the tables landed");
        assert_eq!(sim.arena.get(pid).first_inject, due);
        sim.check_invariants();

        let mut scan = start(Scheduler::Scan);
        scan.run(due + 1);
        assert_eq!(scan.arena.get(pid).first_inject, due);
        assert_eq!(scan.reliability(), sim.reliability());
    }

    #[test]
    fn repairs_after_the_first_swap_the_fault_free_tables_back() {
        // Four links failed and repaired in turn, as on the benchmark's
        // faulted torus: repair 1 rebuilds the fault-free tables (nothing
        // is kept yet), repairs 2-4 swap them back; every failure builds.
        let topo = gen::torus_2d(4, 4, 2).unwrap();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let links: Vec<_> = topo.links().iter().filter(|l| l.is_switch_link()).collect();
        let mut plan = FaultPlan::new();
        for (k, i) in [3, 12, 20, 29].into_iter().enumerate() {
            let k = k as u64;
            plan.fail_link(1_000 * (2 * k + 1), links[i].id);
            plan.repair_link(1_000 * (2 * k + 2), links[i].id);
        }
        let cfg = SimConfig {
            reconfig_latency_cycles: 300,
            ..small_cfg()
        };
        let mut sim = Simulator::new(&topo, &db, &pattern, cfg, 0.01, 5);
        sim.enable_faults(FaultOptions::with_plan(plan));
        let mut swapped = Vec::new();
        while sim.cycle < 9_000 {
            sim.run(100);
            let f = sim.faults.as_deref().unwrap();
            if sim.rel.reconfigurations > swapped.len() as u64 {
                swapped.push(f.swaps > swapped.iter().filter(|&&s| s).count() as u64);
                let kept = f.replaced.as_ref().map(|r| r.faults.is_empty());
                // What was replaced is kept: after a failure the
                // fault-free tables, after a repair the failed link's.
                let failure = swapped.len() % 2 == 1;
                assert_eq!(kept, (swapped.len() > 1).then_some(failure));
            }
        }
        let (f, t) = (false, true);
        assert_eq!(swapped, [f, f, f, t, f, t, f, t]);
        assert_eq!(sim.rel.reconfigurations, 8);
        assert_eq!(sim.faults.as_deref().unwrap().swaps, 3);
    }

    #[test]
    fn switch_summaries_hold_through_faults_under_engine_and_oracle() {
        let topo = gen::torus_2d(4, 4, 2).unwrap();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let link = topo.links().iter().find(|l| l.is_switch_link()).unwrap().id;
        let cfg = SimConfig {
            reconfig_latency_cycles: 400,
            ..small_cfg()
        };
        let run = |scheduler: Scheduler| {
            // A cable and a whole switch die under saturating load and
            // come back: `fail_channel`, the purge of a dead switch's
            // buffers, both repairs and four reconfigurations.
            let mut plan = FaultPlan::new();
            plan.fail_link(1_500, link);
            plan.fail_switch(2_500, SwitchId(5));
            plan.repair_link(4_000, link);
            plan.repair_switch(5_000, SwitchId(5));
            let mut sim = Simulator::new(&topo, &db, &pattern, cfg.clone(), 0.08, 3);
            sim.set_scheduler(scheduler);
            sim.enable_faults(FaultOptions::with_plan(plan));
            sim.begin_measurement();
            let mut seen = [false; 5];
            for _ in 0..7_000 {
                // Between the plan's events, lose packets by hand until
                // every purge case has happened at least once. The switch
                // state is the same under both loops, so both pick the
                // same victims.
                if sim.cycle.is_multiple_of(64) {
                    if let Some((case, pid)) = next_purge_case(&sim, &seen) {
                        seen[case] = true;
                        sim.handle_loss(pid, sim.cycle);
                        sim.check_invariants();
                    }
                }
                sim.run(1);
                sim.check_invariants();
            }
            assert_eq!(seen, [true; 5], "{scheduler:?}: purge cases exercised");
            let rel = sim.reliability();
            assert_eq!(
                (rel.link_failures, rel.switch_failures, rel.repairs),
                (1, 1, 2)
            );
            assert!(
                rel.worms_truncated > 5 && rel.reconfigurations >= 2,
                "{rel:?}"
            );
            (sim.end_measurement(7_000), rel)
        };
        let reference = run(Scheduler::Scan);
        assert!(reference.0.delivered > 100);
        assert_eq!(reference, run(Scheduler::ActiveSet));
    }
}
