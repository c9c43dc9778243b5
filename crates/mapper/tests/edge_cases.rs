//! Mapper edge cases: reconfiguring when the management host itself dies,
//! when a fault partitions the network, and when a repair must restore the
//! original pair coverage.

use regnet_core::{RouteDbConfig, RoutingScheme};
use regnet_mapper::{rebuild_physical_routes, FaultSet, MapperError};
use regnet_topology::{gen, HostId, LinkId, SwitchId, Topology, TopologyBuilder};

fn rebuild(
    topo: &Topology,
    faults: &FaultSet,
    seed: HostId,
) -> Result<regnet_mapper::PhysicalRoutes, MapperError> {
    rebuild_physical_routes(
        topo,
        faults,
        seed,
        RoutingScheme::ItbRr,
        &RouteDbConfig::default(),
    )
}

/// A dumbbell: two 2x2 meshes joined by a single bridge link. Killing the
/// bridge partitions the network into two equal components.
fn dumbbell() -> (Topology, LinkId) {
    let mut b = TopologyBuilder::new("dumbbell", 8);
    b.add_switches(8);
    for base in [0u32, 4] {
        b.connect(SwitchId(base), SwitchId(base + 1)).unwrap();
        b.connect(SwitchId(base), SwitchId(base + 2)).unwrap();
        b.connect(SwitchId(base + 1), SwitchId(base + 3)).unwrap();
        b.connect(SwitchId(base + 2), SwitchId(base + 3)).unwrap();
    }
    let bridge = b.connect(SwitchId(3), SwitchId(4)).unwrap();
    b.attach_hosts_everywhere(1).unwrap();
    (b.build().unwrap(), bridge)
}

/// Killing the host running the mapper (or its switch) makes
/// reconfiguration impossible from that vantage point — a typed error, not
/// a bogus map. A different live seed still succeeds.
#[test]
fn dead_seed_host_fails_cleanly() {
    let topo = gen::torus_2d(4, 4, 2).unwrap();
    let seed = HostId(0);
    let e = rebuild(&topo, &FaultSet::host(seed), seed);
    assert_eq!(e.unwrap_err(), MapperError::SeedDead(seed));
    let e = rebuild(&topo, &FaultSet::switch(topo.host_switch(seed)), seed);
    assert_eq!(e.unwrap_err(), MapperError::SeedDead(seed));

    // Another host takes over and maps around the dead one.
    let pr = rebuild(&topo, &FaultSet::host(seed), HostId(1)).unwrap();
    pr.verify(&topo, &FaultSet::host(seed)).unwrap();
    assert_eq!(pr.lost_hosts(), 1);
    assert!(!pr.reachable_hosts[seed.idx()]);
}

/// A partition is survivable: each half rebuilds a consistent, legal,
/// partial table covering exactly its own component, and the two halves'
/// reachability views are complementary.
#[test]
fn partition_rebuilds_both_halves() {
    let (topo, bridge) = dumbbell();
    let faults = FaultSet::link(bridge);
    let left_seed = topo.hosts_of(SwitchId(0))[0];
    let right_seed = topo.hosts_of(SwitchId(4))[0];

    let left = rebuild(&topo, &faults, left_seed).unwrap();
    let right = rebuild(&topo, &faults, right_seed).unwrap();
    left.verify(&topo, &faults).unwrap();
    right.verify(&topo, &faults).unwrap();

    assert_eq!(left.lost_hosts(), 4);
    assert_eq!(right.lost_hosts(), 4);
    for h in topo.hosts() {
        assert_ne!(
            left.reachable_hosts[h.idx()],
            right.reachable_hosts[h.idx()],
            "{h} must belong to exactly one half"
        );
    }
    // The left view routes within its own half and never across the cut.
    for s in topo.switches() {
        for d in topo.switches() {
            if s == d {
                continue;
            }
            if s.0 < 4 && d.0 < 4 {
                assert!(
                    left.db(&topo).has_route(s, d),
                    "{s}->{d} should stay routable"
                );
            } else if (s.0 < 4) != (d.0 < 4) {
                assert!(!left.db(&topo).has_route(s, d), "{s}->{d} crosses the cut");
            }
        }
    }
    // 8 hosts, 4 live per side: 8*7 - 4*3 = 44 ordered pairs lost per view.
    assert_eq!(left.unreachable_pairs(&topo), 44);
    assert_eq!(right.unreachable_pairs(&topo), 44);
}

/// Repairing the fault restores exactly the original pair coverage.
#[test]
fn repair_restores_pair_coverage() {
    let (topo, bridge) = dumbbell();
    let seed = HostId(0);

    let baseline = rebuild(&topo, &FaultSet::new(), seed).unwrap();

    let mut faults = FaultSet::link(bridge);
    let broken = rebuild(&topo, &faults, seed).unwrap();
    assert!(broken.lost_hosts() > 0);
    assert!(broken.unreachable_pairs(&topo) > 0);

    faults.revive_link(bridge);
    assert!(faults.is_empty(), "repair must cancel the fault");
    let healed = rebuild(&topo, &faults, seed).unwrap();
    healed.verify(&topo, &faults).unwrap();
    assert_eq!(healed.lost_hosts(), 0);
    assert_eq!(healed.unreachable_pairs(&topo), 0);
    for s in topo.switches() {
        for d in topo.switches() {
            assert_eq!(
                healed.db(&topo).has_route(s, d),
                baseline.db(&topo).has_route(s, d),
                "{s}->{d} coverage differs from the pre-fault tables"
            );
        }
    }
}
