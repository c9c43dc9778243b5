//! Unified event-counter registry.
//!
//! A single boxed struct of plain `u64` counters, owned by the simulator
//! as `Option<Box<CounterSnapshot>>` — the same pattern as the trace
//! observers, so a disabled registry costs one branch per hook site and no
//! memory. Unlike the histogram/time-series observers in
//! [`trace`](crate::trace), counters are pure event counts: incrementing
//! them never perturbs simulation
//! state, so two same-seed runs produce identical snapshots (asserted by
//! the determinism suite). The hook sites sit inside the shared
//! per-component delivery/advance helpers, *below* the scheduler's
//! dispatch: whether a phase reached a component by scanning everything
//! or by draining a wake list, the same hooks fire in the same
//! ascending-index order, so snapshots are also identical across
//! [`Scheduler`](crate::Scheduler) modes (`tests/scheduler_equivalence.rs`).
//!
//! The hook sites count straight into the [`CounterSnapshot`] the
//! simulator owns; a snapshot is a copy of it. It rides inside
//! [`RunStats`](crate::RunStats) and is printed by the `probe`/`diagnose`
//! binaries.

use serde::{Deserialize, Serialize};

/// Counter values: live inside the simulator, a copy of them at a point in
/// time everywhere else. Field order matches [`CounterSnapshot::NAMES`];
/// iterate with [`as_pairs`](CounterSnapshot::as_pairs).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Flits moved through a switch crossbar.
    pub flits_forwarded: u64,
    /// Flits sent from a NIC into its access link (fresh, re-injected and
    /// retransmitted traffic alike).
    pub flits_injected: u64,
    /// Packet headers consumed by a routing control unit.
    pub route_lookups: u64,
    /// Crossbar connections established by output-port arbitration.
    pub arbitration_grants: u64,
    /// Worms whose head found its output busy, stopped, or contended when
    /// it finished routing (the paper's blocking events).
    pub worms_blocked: u64,
    /// Packets that started arriving at a switch input port.
    pub switch_arrivals: u64,
    /// STOP symbols delivered to senders.
    pub ctl_stops: u64,
    /// GO symbols delivered to senders.
    pub ctl_gos: u64,
    /// Messages created by the generators.
    pub messages_generated: u64,
    /// Messages delivered at their destination.
    pub messages_delivered: u64,
    /// Packets delivered (== `messages_delivered`: a message is one
    /// packet).
    pub packets_delivered: u64,
    /// Packets abandoned for good (fault machinery).
    pub packets_dropped: u64,
    /// Packets ejected into an in-transit buffer.
    pub itb_ejections: u64,
    /// Ejected packets that started re-injecting.
    pub itb_reinjections: u64,
    /// ITB ejections that overflowed the pool to host memory.
    pub itb_overflows: u64,
    /// Source retransmissions queued after a worm was truncated.
    pub retransmits: u64,
    /// Fault events fired (links/switches/hosts going down).
    pub fault_fires: u64,
    /// Fault repairs applied.
    pub fault_repairs: u64,
    /// Wait-for-graph stall analyses run.
    pub wfg_invocations: u64,
}

impl CounterSnapshot {
    /// Counter names, in [`as_pairs`](CounterSnapshot::as_pairs) order.
    pub const NAMES: [&'static str; 19] = [
        "flits_forwarded",
        "flits_injected",
        "route_lookups",
        "arbitration_grants",
        "worms_blocked",
        "switch_arrivals",
        "ctl_stops",
        "ctl_gos",
        "messages_generated",
        "messages_delivered",
        "packets_delivered",
        "packets_dropped",
        "itb_ejections",
        "itb_reinjections",
        "itb_overflows",
        "retransmits",
        "fault_fires",
        "fault_repairs",
        "wfg_invocations",
    ];

    /// `(name, value)` pairs in a fixed order, for table printing.
    pub fn as_pairs(&self) -> [(&'static str, u64); 19] {
        [
            ("flits_forwarded", self.flits_forwarded),
            ("flits_injected", self.flits_injected),
            ("route_lookups", self.route_lookups),
            ("arbitration_grants", self.arbitration_grants),
            ("worms_blocked", self.worms_blocked),
            ("switch_arrivals", self.switch_arrivals),
            ("ctl_stops", self.ctl_stops),
            ("ctl_gos", self.ctl_gos),
            ("messages_generated", self.messages_generated),
            ("messages_delivered", self.messages_delivered),
            ("packets_delivered", self.packets_delivered),
            ("packets_dropped", self.packets_dropped),
            ("itb_ejections", self.itb_ejections),
            ("itb_reinjections", self.itb_reinjections),
            ("itb_overflows", self.itb_overflows),
            ("retransmits", self.retransmits),
            ("fault_fires", self.fault_fires),
            ("fault_repairs", self.fault_repairs),
            ("wfg_invocations", self.wfg_invocations),
        ]
    }

    /// Sum of every counter — a cheap proxy for "events observed", used by
    /// the bench pipeline's events/sec figure.
    pub fn total_events(&self) -> u64 {
        self.as_pairs().iter().map(|&(_, v)| v).sum()
    }

    /// Multi-line `name value` table, non-zero counters only (all-zero
    /// registries print a placeholder line).
    pub fn to_table(&self) -> String {
        let pairs = self.as_pairs();
        let width = pairs.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        let mut any = false;
        for (name, v) in pairs {
            if v == 0 {
                continue;
            }
            any = true;
            out.push_str(&format!("{name:<width$}  {v}\n"));
        }
        if !any {
            out.push_str("(all counters zero)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_events_sums_every_counter() {
        let s = CounterSnapshot {
            flits_forwarded: 10,
            worms_blocked: 3,
            wfg_invocations: 2,
            ..CounterSnapshot::default()
        };
        assert_eq!(s.total_events(), 15);
    }

    #[test]
    fn pairs_cover_every_name() {
        let s = CounterSnapshot {
            flits_forwarded: 1,
            ..CounterSnapshot::default()
        };
        let pairs = s.as_pairs();
        assert_eq!(pairs.len(), CounterSnapshot::NAMES.len());
        for ((n1, _), n2) in pairs.iter().zip(CounterSnapshot::NAMES) {
            assert_eq!(*n1, n2);
        }
        assert!(s.to_table().contains("flits_forwarded"));
        assert!(!s.to_table().contains("ctl_stops"), "zero rows are elided");
        assert!(CounterSnapshot::default()
            .to_table()
            .contains("all counters zero"));
    }
}
