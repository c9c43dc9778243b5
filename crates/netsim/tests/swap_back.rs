//! A reconfiguration that returns the network to the fault set the
//! installed tables replaced swaps those tables back in instead of
//! rebuilding them. Swap-back is exact: after every reconfiguration the
//! installed table is bit for bit what a fresh rebuild for the faults in
//! force gives.

use regnet_core::{RouteDb, RouteDbConfig, RoutingScheme};
use regnet_mapper::rebuild_physical_routes;
use regnet_netsim::{FaultOptions, FaultPlan, SimConfig, Simulator};
use regnet_topology::{gen, HostId, LinkId, Topology};
use regnet_traffic::{Pattern, PatternSpec};

/// Cycles between two fault events; the re-map latency is shorter, so
/// every event gets a reconfiguration of its own.
const GAP: u64 = 1_500;

fn switch_links(topo: &Topology) -> Vec<LinkId> {
    topo.links()
        .iter()
        .filter(|l| l.is_switch_link())
        .map(|l| l.id)
        .collect()
}

/// Run `plan` and compare the installed table against a fresh rebuild
/// after every reconfiguration; returns how many there were.
fn check_every_reconfiguration(topo: &Topology, scheme: RoutingScheme, plan: FaultPlan) -> u64 {
    let db = RouteDb::build(topo, scheme, &RouteDbConfig::default());
    let pattern = Pattern::resolve(PatternSpec::Uniform, topo).unwrap();
    let cfg = SimConfig {
        payload_flits: 64,
        reconfig_latency_cycles: 400,
        ..SimConfig::default()
    };
    let end = plan.events.last().unwrap().cycle + GAP;
    let mut sim = Simulator::new(topo, &db, &pattern, cfg, 0.01, 11);
    sim.enable_faults(FaultOptions::with_plan(plan));
    let mut seen = 0;
    while sim.cycle() < end {
        sim.run(100);
        let done = sim.reliability().reconfigurations;
        if done == seen {
            continue;
        }
        assert_eq!(done, seen + 1, "one reconfiguration per event");
        seen = done;
        let faults = sim.active_faults().unwrap();
        let fresh =
            rebuild_physical_routes(topo, faults, HostId(0), scheme, &RouteDbConfig::default())
                .unwrap();
        let installed = sim.reconfigured_routes().unwrap();
        assert_eq!(
            installed.db.fingerprint(),
            fresh.db.fingerprint(),
            "{scheme}: reconfiguration {done} at cycle {}",
            sim.cycle()
        );
        installed.verify(topo, faults).unwrap();
    }
    seen
}

#[test]
fn swap_back_equals_a_fresh_rebuild() {
    let topo = gen::torus_2d(4, 4, 2).unwrap();
    let links = switch_links(&topo);
    for scheme in [RoutingScheme::UpDown, RoutingScheme::ItbRr] {
        // One link flapping: down, up, down, up, down, up.
        let mut flap = FaultPlan::new();
        for k in 0..3 {
            flap.fail_link(GAP * (2 * k + 1), links[5]);
            flap.repair_link(GAP * (2 * k + 2), links[5]);
        }
        assert_eq!(check_every_reconfiguration(&topo, scheme, flap), 6);
        // The benchmark's faulted-torus shape: four links failed and
        // repaired in turn.
        let mut four = FaultPlan::new();
        for (k, &i) in [3usize, 12, 20, 29].iter().enumerate() {
            let k = k as u64;
            four.fail_link(GAP * (2 * k + 1), links[i]);
            four.repair_link(GAP * (2 * k + 2), links[i]);
        }
        assert_eq!(check_every_reconfiguration(&topo, scheme, four), 8);
    }
}
