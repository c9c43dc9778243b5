//! The rebuilt tables themselves, pinned: FNV-1a fingerprints
//! ([`RouteDb::fingerprint`]) of `rebuild_physical_routes` on the paper
//! torus with 0, 1 and 3 failed links — the physical table the simulator
//! swaps in, and the same routes in discovered coordinates (`RouteDb::build`
//! on the discovered topology, rooted at the seed's switch) — recorded from
//! the per-pair builder and per-hop port scan this implementation replaced.
//! ITB-SP and ITB-RR share their tables.

use regnet_core::{RouteDb, RouteDbConfig, RoutingScheme};
use regnet_mapper::{rebuild_physical_routes, FaultSet};
use regnet_topology::{gen, HostId, SwitchId};

/// `(uses in-transit buffers, failed links, db fingerprint, discovered-
/// coordinates fingerprint)`.
const PINNED: [(bool, usize, u64, u64); 6] = [
    (false, 0, 0xad3d225dcd18a3f2, 0xf90f50309a7389b6),
    (false, 1, 0x601c27843ffb75cf, 0xe78b3be4c5d72881),
    (false, 3, 0x2407189f8b74937a, 0xd4876642a6c26d88),
    (true, 0, 0xe0ee2468a6f4e9c2, 0xb8c316bff129a5ff),
    (true, 1, 0x1fea88bb231153c2, 0x42a7869306f73942),
    (true, 3, 0xec0127f69d839764, 0x737a2f2fc6265d4b),
];

#[test]
fn rebuilt_tables_are_pinned() {
    let topo = gen::torus_2d(8, 8, 8).unwrap();
    let switch_links: Vec<_> = topo
        .links()
        .iter()
        .filter(|l| l.is_switch_link())
        .map(|l| l.id)
        .collect();
    for scheme in [
        RoutingScheme::UpDown,
        RoutingScheme::ItbSp,
        RoutingScheme::ItbRr,
    ] {
        for (_, failed, db, discovered_db) in
            PINNED.into_iter().filter(|p| p.0 == scheme.uses_itbs())
        {
            let mut faults = FaultSet::new();
            for i in [0usize, 37, 90].into_iter().take(failed) {
                faults.kill_link(switch_links[i]);
            }
            let pr = rebuild_physical_routes(
                &topo,
                &faults,
                HostId(0),
                scheme,
                &RouteDbConfig::default(),
            )
            .unwrap();
            pr.verify(&topo, &faults).unwrap();
            let root = RouteDbConfig {
                root: SwitchId(0),
                ..RouteDbConfig::default()
            };
            let in_discovered = RouteDb::build(&pr.discovered.topo, scheme, &root);
            let got = (
                pr.db(&topo).fingerprint(&topo),
                in_discovered.fingerprint(&pr.discovered.topo),
            );
            assert_eq!(
                got,
                (db, discovered_db),
                "{scheme}, {failed} failed link(s): got ({:#018x}, {:#018x})",
                got.0,
                got.1
            );
        }
    }
}
