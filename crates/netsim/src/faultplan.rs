//! Deterministic fault schedules and the runtime state that drives them.
//!
//! A [`FaultPlan`] is a time-ordered list of fail/repair events for links,
//! switches and hosts — either scripted explicitly or drawn from seeded
//! MTBF/MTTR exponential processes. The plan is part of a run's identity:
//! the same seed plus the same plan reproduces the same `RunStats`,
//! [`ReliabilityStats`] and trace digest, bit for bit.
//!
//! The simulator consumes the plan through
//! [`Simulator::enable_faults`](crate::Simulator::enable_faults); the
//! runtime bookkeeping lives in `FaultRuntime` (crate-private).
//!
//! Fault execution needs one scheduler hook: a retransmission wakes its
//! source NIC through the simulator's `ActiveSched`. The GO symbols a
//! purge resends are plain channel-table writes, so a phase-0 purge's
//! symbol is delivered by that same cycle's control phase under the
//! engine and its scan oracle alike. Mid-cycle losses are deferred to a
//! deterministic replay point after NIC tx (`Simulator::loss_phase`).
//! `tests/scheduler_equivalence.rs` pins engine/oracle equality under a
//! fault plan on every paper topology × scheme.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use regnet_core::RouteDbConfig;
use regnet_mapper::{FaultSet, PhysicalRoutes};
use regnet_topology::{HostId, LinkId, SwitchId};

/// What a fault event acts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultTarget {
    Link(LinkId),
    Switch(SwitchId),
    Host(HostId),
}

/// One scheduled change of a network element's health.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Simulation cycle the event takes effect (start of the cycle).
    pub cycle: u64,
    pub target: FaultTarget,
    /// `true` = the element fails; `false` = it is repaired.
    pub fail: bool,
}

/// A deterministic schedule of fail/repair events.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan with one link failing at `cycle`, never repaired.
    pub fn single_link(link: LinkId, cycle: u64) -> FaultPlan {
        let mut p = FaultPlan::new();
        p.fail_link(cycle, link);
        p
    }

    pub fn push(&mut self, ev: FaultEvent) -> &mut Self {
        self.events.push(ev);
        self
    }

    pub fn fail_link(&mut self, cycle: u64, l: LinkId) -> &mut Self {
        self.push(FaultEvent {
            cycle,
            target: FaultTarget::Link(l),
            fail: true,
        })
    }

    pub fn repair_link(&mut self, cycle: u64, l: LinkId) -> &mut Self {
        self.push(FaultEvent {
            cycle,
            target: FaultTarget::Link(l),
            fail: false,
        })
    }

    pub fn fail_switch(&mut self, cycle: u64, s: SwitchId) -> &mut Self {
        self.push(FaultEvent {
            cycle,
            target: FaultTarget::Switch(s),
            fail: true,
        })
    }

    pub fn repair_switch(&mut self, cycle: u64, s: SwitchId) -> &mut Self {
        self.push(FaultEvent {
            cycle,
            target: FaultTarget::Switch(s),
            fail: false,
        })
    }

    pub fn fail_host(&mut self, cycle: u64, h: HostId) -> &mut Self {
        self.push(FaultEvent {
            cycle,
            target: FaultTarget::Host(h),
            fail: true,
        })
    }

    pub fn repair_host(&mut self, cycle: u64, h: HostId) -> &mut Self {
        self.push(FaultEvent {
            cycle,
            target: FaultTarget::Host(h),
            fail: false,
        })
    }

    /// A seeded MTBF/MTTR process over `links`: each link alternates
    /// up/down with exponentially distributed up-times (mean `mtbf_cycles`)
    /// and down-times (mean `mttr_cycles`), truncated at `horizon_cycles`.
    /// Deterministic per (seed, link id).
    pub fn mtbf_links(
        links: &[LinkId],
        horizon_cycles: u64,
        mtbf_cycles: f64,
        mttr_cycles: f64,
        seed: u64,
    ) -> FaultPlan {
        assert!(mtbf_cycles > 0.0 && mttr_cycles > 0.0);
        let mut plan = FaultPlan::new();
        for &l in links {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0xFA17_0000 ^ ((l.0 as u64) << 24));
            let mut exp = |mean: f64| -> f64 {
                let u: f64 = rng.gen::<f64>().max(1e-12);
                -u.ln() * mean
            };
            let mut t = 0.0f64;
            loop {
                t += exp(mtbf_cycles);
                if t >= horizon_cycles as f64 {
                    break;
                }
                plan.fail_link(t as u64, l);
                t += exp(mttr_cycles);
                if t >= horizon_cycles as f64 {
                    break;
                }
                plan.repair_link(t as u64, l);
            }
        }
        plan.normalize();
        plan
    }

    /// Stable-sort the events by cycle (scripted order breaks ties).
    pub fn normalize(&mut self) {
        self.events.sort_by_key(|e| e.cycle);
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }
}

/// How the simulator reacts to a [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct FaultOptions {
    pub plan: FaultPlan,
    /// Invoke the mapper (discovery + route rebuild) after each event, once
    /// the configured reconfiguration latency elapses. Off = routes are
    /// never updated (ablation: pure retransmission).
    pub reconfigure: bool,
    /// Route-build parameters for reconfigurations (the root is overridden
    /// by the seed's switch, as a real re-mapping would elect). Honoured as
    /// given by [`Simulator::enable_faults`](crate::Simulator::enable_faults);
    /// an [`Experiment`](crate::experiment::Experiment) overrides it with
    /// the configuration its own tables were built with.
    pub db_cfg: RouteDbConfig,
    /// Host the management process runs on; discovery starts here. Falls
    /// back to the lowest-numbered live host if this one is down.
    pub seed_host: HostId,
}

impl Default for FaultOptions {
    fn default() -> Self {
        FaultOptions {
            plan: FaultPlan::new(),
            reconfigure: true,
            db_cfg: RouteDbConfig::default(),
            seed_host: HostId(0),
        }
    }
}

impl FaultOptions {
    pub fn with_plan(plan: FaultPlan) -> FaultOptions {
        FaultOptions {
            plan,
            ..FaultOptions::default()
        }
    }
}

/// Dependability counters for one run. All zeros when the plan is empty.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReliabilityStats {
    pub link_failures: u64,
    pub switch_failures: u64,
    pub host_failures: u64,
    pub repairs: u64,
    /// Packets whose worm was truncated by a fault (each loss counts once).
    pub worms_truncated: u64,
    /// Source retransmissions performed.
    pub retransmissions: u64,
    /// Packets dropped for good (retry budget exhausted, source dead, or
    /// destination unreachable).
    pub dropped_packets: u64,
    /// Messages lost with their packet: always equal to `dropped_packets`,
    /// since a message is one packet. Kept because cell checkpoints, the
    /// benchmark goldens and the `.prom` exposition carry it.
    pub dropped_messages: u64,
    /// Generation attempts suppressed because the destination was
    /// unreachable under the current routing tables.
    pub unreachable_drops: u64,
    /// Successful route rebuilds swapped in.
    pub reconfigurations: u64,
    /// Rebuild attempts that failed (e.g. no live host to map from).
    pub reconfig_failures: u64,
    /// Cycles sources spent stalled waiting for a rebuild.
    pub reconfig_stall_cycles: u64,
    /// Ordered host pairs unable to communicate after the last rebuild.
    pub unreachable_pairs: u64,
}

/// Live fault state inside the simulator (crate-private).
pub(crate) struct FaultRuntime {
    /// The normalized plan.
    pub events: Vec<FaultEvent>,
    /// Cursor into `events`.
    pub next_event: usize,
    pub reconfigure: bool,
    pub db_cfg: RouteDbConfig,
    pub seed_host: HostId,
    /// Faults currently in force.
    pub active: FaultSet,
    /// Host itself powered on (independent of reachability).
    pub host_up: Vec<bool>,
    /// Host powered on *and* reachable under the current routing tables —
    /// the gate for generation and injection.
    pub host_ok: Vec<bool>,
    /// Cycle the pending reconfiguration completes, if one is in flight.
    pub reconfig_due: Option<u64>,
    /// Rebuilt physical routing tables; `None` until the first rebuild.
    pub routes: Option<PhysicalRoutes>,
}

impl FaultRuntime {
    pub(crate) fn new(opts: FaultOptions, n_hosts: usize) -> FaultRuntime {
        let mut plan = opts.plan;
        plan.normalize();
        FaultRuntime {
            events: plan.events,
            next_event: 0,
            reconfigure: opts.reconfigure,
            db_cfg: opts.db_cfg,
            seed_host: opts.seed_host,
            active: FaultSet::new(),
            host_up: vec![true; n_hosts],
            host_ok: vec![true; n_hosts],
            reconfig_due: None,
            routes: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_normalizes_by_cycle_keeping_script_order() {
        let mut p = FaultPlan::new();
        p.fail_link(500, LinkId(2))
            .fail_switch(100, SwitchId(1))
            .repair_link(500, LinkId(2))
            .fail_host(100, HostId(3));
        p.normalize();
        let cycles: Vec<u64> = p.events.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![100, 100, 500, 500]);
        // Stable: the two cycle-500 events keep fail-before-repair order.
        assert!(p.events[2].fail && !p.events[3].fail);
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
    }

    #[test]
    fn mtbf_process_is_deterministic_and_alternates() {
        let links = [LinkId(0), LinkId(7)];
        let a = FaultPlan::mtbf_links(&links, 1_000_000, 50_000.0, 10_000.0, 9);
        let b = FaultPlan::mtbf_links(&links, 1_000_000, 50_000.0, 10_000.0, 9);
        assert_eq!(a, b, "same seed must give the same schedule");
        let c = FaultPlan::mtbf_links(&links, 1_000_000, 50_000.0, 10_000.0, 10);
        assert_ne!(a, c, "different seed must give a different schedule");
        assert!(!a.is_empty(), "1M cycles at 50k MTBF should produce events");
        // Per link: strictly increasing cycles, strictly alternating
        // fail/repair starting with a failure.
        for &l in &links {
            let evs: Vec<&FaultEvent> = a
                .events
                .iter()
                .filter(|e| e.target == FaultTarget::Link(l))
                .collect();
            for (i, e) in evs.iter().enumerate() {
                assert_eq!(e.fail, i % 2 == 0, "alternation broken at {i}");
                if i > 0 {
                    assert!(evs[i - 1].cycle <= e.cycle);
                }
            }
        }
    }

    #[test]
    fn single_link_helper() {
        let p = FaultPlan::single_link(LinkId(4), 1_000);
        assert_eq!(
            p.events,
            vec![FaultEvent {
                cycle: 1_000,
                target: FaultTarget::Link(LinkId(4)),
                fail: true
            }]
        );
    }
}
