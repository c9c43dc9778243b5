//! Phase 5, message generation: the heap of due hosts, the open-loop
//! generators and the scripted messages of the tests.

use std::cmp::Reverse;

use regnet_topology::HostId;

use super::{route_db, Simulator};
use crate::config::SOURCE_QUEUE_CAP;
use crate::packet::Packet;

impl Simulator<'_> {
    /// Phase 5: message generation. Visits the hosts due by `cycle` once
    /// each, in ascending order — the order a scan of every host visits
    /// them, so packet ids and RNG draws do not depend on the heap — and
    /// pushes back each one's next due cycle.
    pub(super) fn gen_phase(&mut self, cycle: u64) {
        let mut due = Vec::new();
        while let Some(&Reverse((at, h))) = self.gen_heap.peek() {
            if at > cycle {
                break;
            }
            self.gen_heap.pop();
            due.push(h);
        }
        due.sort_unstable();
        due.dedup();
        for h in due {
            let next = self.nic_gen(h as usize, cycle);
            if next != u64::MAX {
                self.gen_heap.push(Reverse((next, h)));
            }
        }
    }

    /// No host creates a message before this cycle (`u64::MAX`: none ever
    /// will, as far as the hosts can tell). It may be early, never late.
    pub(super) fn gen_due(&self) -> u64 {
        self.gen_heap
            .peek()
            .map_or(u64::MAX, |&Reverse((at, _))| at)
    }

    /// Schedule an explicit message (the scripted traffic of the tests).
    /// Messages at each host must be scheduled with non-decreasing
    /// `at_cycle`; they are injected in order once the cycle is reached.
    pub fn schedule_message(&mut self, src: HostId, dst: HostId, at_cycle: u64) {
        assert_ne!(src, dst, "a host cannot message itself through the network");
        let nic = &mut self.nics[src.idx()];
        if let Some(&(last, _)) = nic.scheduled.back() {
            assert!(
                last <= at_cycle,
                "scheduled messages must be time-ordered per host"
            );
        }
        nic.scheduled.push_back((at_cycle, dst.0));
        self.scheduled_pending += 1;
        self.gen_heap.push(Reverse((at_cycle, src.0)));
    }

    /// Permanently stop message generation at every host. Used to drain
    /// the network at the end of a run (every in-flight packet must then
    /// eventually be delivered — the no-deadlock invariant).
    pub fn stop_generation(&mut self) {
        self.gen_frozen = true;
        for nic in &mut self.nics {
            nic.next_gen = f64::MAX;
        }
    }

    /// Create one message from `src` to `dst`: one packet, carrying a
    /// header written from the current tables.
    fn create_message(&mut self, src: HostId, dst: HostId, gen_cycle: u64) {
        let db = route_db(self.faults.as_deref(), self.db);
        let header = db.select(self.topo, src, dst, self.selector.src_mut(src));
        let pid = self.arena.insert(Packet {
            src,
            dst,
            header,
            pos: 0,
            payload: self.cfg.payload_flits as u32,
            gen_cycle,
            first_inject: u64::MAX,
            pool_reserved: 0,
            retries: 0,
        });
        self.nics[src.idx()].local_queue.push_back(pid);
        if let Some(sc) = self.sched.as_deref_mut() {
            sc.activate_nic(src.0);
        }
        if self.measure.on {
            self.measure.generated += 1;
        }
        if let Some(c) = &mut self.counters {
            c.messages_generated += 1;
        }
    }

    /// Create the messages host `h` has due at `cycle`; returns the first
    /// later cycle at which it can have one due (`u64::MAX`: never, as far
    /// as this host can tell).
    fn nic_gen(&mut self, h: usize, cycle: u64) -> u64 {
        if let Some(f) = self.faults.as_deref() {
            // Dead or unreachable hosts generate nothing (their backlog was
            // stranded when they went down) until `apply_host_ok` brings
            // them back, which pushes them onto the heap itself.
            if !f.host_ok[h] {
                return u64::MAX;
            }
        }
        // Explicitly scheduled messages first.
        while let Some(&(at, dst)) = self.nics[h].scheduled.front() {
            if at > cycle {
                break;
            }
            self.nics[h].scheduled.pop_front();
            self.scheduled_pending -= 1;
            let src = HostId(h as u32);
            self.create_message(src, HostId(dst), at);
        }
        let scheduled_due = self.nics[h]
            .scheduled
            .front()
            .map_or(u64::MAX, |&(at, _)| at);
        loop {
            let next_gen = self.nics[h].next_gen;
            if next_gen > cycle as f64 {
                // Generation fires at the first integer cycle >= next_gen
                // (the cast saturates: `f64::MAX`, a silent host, is never).
                return scheduled_due.min(next_gen.ceil() as u64);
            }
            if self.nics[h].local_queue.len() >= SOURCE_QUEUE_CAP {
                // Stalled on a full source queue: counted every cycle.
                if self.measure.on {
                    self.measure.gen_stall_cycles += 1;
                }
                return cycle + 1;
            }
            let src = HostId(h as u32);
            let gen_cycle = self.nics[h].next_gen.max(0.0) as u64;
            let dst = {
                let nic = &mut self.nics[h];
                self.pattern.dest(src, self.topo, &mut nic.rng)
            };
            // Advance the generation clock.
            self.nics[h].next_gen += self.interarrival;
            let Some(dst) = dst else {
                // Silent host under a permutation pattern: stop for good.
                self.nics[h].next_gen = f64::MAX;
                return scheduled_due;
            };
            let unreachable = match self.faults.as_deref() {
                Some(f) => {
                    let db = route_db(Some(f), self.db);
                    !f.host_ok[dst.idx()]
                        || !db.has_route(self.topo.host_switch(src), self.topo.host_switch(dst))
                }
                None => false,
            };
            if unreachable {
                // The pair cannot communicate right now: the message is
                // refused at the API (the generation clock still advances).
                self.rel.unreachable_drops += 1;
                continue;
            }
            self.create_message(src, dst, gen_cycle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{build_ring4, small_cfg};
    use super::*;
    use crate::config::SimConfig;
    use crate::faultplan::{FaultOptions, FaultPlan};
    use crate::sched::Scheduler;
    use regnet_core::{RouteDb, RouteDbConfig, RoutingScheme};
    use regnet_traffic::{Pattern, PatternSpec};

    /// Step `cycles` cycles; `ungated` makes every host due on every
    /// cycle, so `gen_phase` visits them all, as it did before the heap.
    fn step_n(sim: &mut Simulator, cycles: u64, ungated: bool) {
        for _ in 0..cycles {
            if ungated {
                let every = (0..sim.nics.len() as u32).map(|h| Reverse((sim.cycle, h)));
                sim.gen_heap = every.collect();
            }
            sim.step();
        }
    }

    #[test]
    fn generation_gate_changes_nothing_at_saturation() {
        let topo = build_ring4();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let run = |ungated: bool| {
            let mut sim = Simulator::new(&topo, &db, &pattern, small_cfg(), 0.5, 5);
            step_n(&mut sim, 5_000, ungated);
            sim.begin_measurement();
            step_n(&mut sim, 30_000, ungated);
            sim.end_measurement(30_000)
        };
        let gated = run(false);
        assert!(gated.gen_stall_cycles > 0, "sources should be backlogged");
        assert_eq!(gated, run(true));
    }

    /// Four hosts due on one cycle, one of them through an entry from an
    /// earlier cycle: they are visited in host order, as the scan twin
    /// visits them, so packet ids follow host ids.
    #[test]
    fn hosts_due_on_one_cycle_are_visited_in_host_order() {
        let topo = build_ring4();
        let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let run = |ungated: bool| {
            let mut sim = Simulator::new(&topo, &db, &pattern, small_cfg(), 1e-9, 2);
            for h in [5, 1] {
                sim.nics[h].next_gen = 49.5;
            }
            sim.schedule_message(HostId(2), HostId(0), 50);
            step_n(&mut sim, 50, ungated);
            // Due in the past: its heap entry pops ahead of cycle 50's.
            sim.schedule_message(HostId(6), HostId(0), 45);
            step_n(&mut sim, 1, ungated);
            let fronts = sim.nics.iter().map(|n| n.local_queue.front().copied());
            fronts.collect::<Vec<_>>()
        };
        let queued = run(false);
        let want = [None, Some(0), Some(1), None, None, Some(2), Some(3), None];
        assert_eq!(queued, want);
        assert_eq!(queued, run(true));
    }

    #[test]
    fn scheduled_message_before_the_cached_gate_fires_on_its_cycle() {
        let topo = build_ring4();
        let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        for scheduler in [Scheduler::Scan, Scheduler::ActiveSet] {
            // Interarrival of ~1e8 cycles: after the first scan the gate
            // sits far in the future.
            let mut sim = Simulator::new(&topo, &db, &pattern, small_cfg(), 1e-9, 1);
            sim.set_scheduler(scheduler);
            sim.begin_measurement();
            sim.run(100);
            assert!(sim.gen_due() > 1_000_000, "gate at {}", sim.gen_due());
            assert_eq!(sim.measure.generated, 0);
            sim.schedule_message(HostId(0), HostId(5), 140);
            assert_eq!(sim.gen_due(), 140);
            sim.run(40);
            assert_eq!((sim.cycle, sim.measure.generated), (140, 0));
            sim.run(1);
            assert_eq!(sim.measure.generated, 1, "{scheduler:?}");
            assert!(sim.gen_due() > 1_000_000, "gate not recomputed");
            assert_eq!(sim.run_until_drained(10_000).map(|c| c > 141), Some(true));
        }
    }

    #[test]
    fn stop_generation_is_honoured_through_the_gate() {
        let topo = build_ring4();
        let db = RouteDb::build(&topo, RoutingScheme::ItbSp, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let mut sim = Simulator::new(&topo, &db, &pattern, small_cfg(), 0.01, 9);
        sim.begin_measurement();
        sim.run(10_000);
        let generated = sim.measure.generated;
        assert!(generated > 0);
        sim.stop_generation();
        assert!(sim.run_until_drained(1_000_000).is_some());
        sim.run(10_000);
        assert_eq!(sim.measure.generated, generated);
        assert_eq!(sim.gen_due(), u64::MAX);
    }

    #[test]
    fn repaired_host_generates_again_through_the_gate() {
        let topo = build_ring4();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let cfg = SimConfig {
            reconfig_latency_cycles: 300,
            ..small_cfg()
        };
        let run = |ungated: bool| {
            let mut plan = FaultPlan::new();
            plan.fail_host(2_000, HostId(3));
            plan.repair_host(6_000, HostId(3));
            let mut sim = Simulator::new(&topo, &db, &pattern, cfg.clone(), 0.01, 4);
            sim.enable_faults(FaultOptions::with_plan(plan));
            // Every generator silent (but not frozen, as `stop_generation`
            // would): the first scan finds nothing due, ever.
            for nic in &mut sim.nics {
                nic.next_gen = f64::MAX;
            }
            sim.begin_measurement();
            step_n(&mut sim, 6_000, ungated);
            assert!(ungated || sim.gen_due() == u64::MAX);
            // Back after repair + reconfiguration latency, with a fresh
            // phase — the only host that generates.
            step_n(&mut sim, 301, ungated);
            assert!(sim.faults.as_deref().unwrap().host_ok[3]);
            let restart = sim.nics[3].next_gen;
            assert!((6_300.0..9_000.0).contains(&restart), "{restart}");
            assert!(ungated || sim.gen_due() == restart.ceil() as u64);
            step_n(&mut sim, 20_000, ungated);
            (sim.end_measurement(sim.cycle), sim.reliability())
        };
        let gated = run(false);
        assert_eq!(gated.1.host_failures, 1);
        assert!(gated.0.generated > 3, "host 3 never generated again");
        assert_eq!(gated, run(true));
    }
}
