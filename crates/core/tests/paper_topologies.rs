//! Full-scale route validation on the paper's three networks: every
//! ordered switch pair, every scheme, every alternative — structural
//! checks only (no simulation), so this covers all ~4k pairs per network
//! in seconds.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use regnet_core::{Header, RouteDb, RouteDbConfig, RouteFill, RouteRef, RoutingScheme, Unchanged};
use regnet_routing::SwitchPath;
use regnet_topology::{gen, DistanceMatrix, HostId, Orientation, PortTarget, SwitchId, Topology};

/// The segments of `route`, a route of a pair from switch `s`, walked on
/// `topo`: each one's switches, and the in-transit host its last byte
/// ejects at (`None` for the delivering segment).
fn segments(topo: &Topology, s: SwitchId, route: RouteRef) -> Vec<(SwitchPath, Option<HostId>)> {
    let mut segs = vec![(vec![s], None)];
    for hop in route.walk(topo) {
        match hop.to {
            PortTarget::Switch { to, .. } => segs.last_mut().unwrap().0.push(to),
            PortTarget::Host { host, .. } => {
                segs.last_mut().unwrap().1 = Some(host);
                segs.push((vec![topo.host_switch(host)], None));
            }
        }
    }
    segs.into_iter()
        .map(|(switches, end)| (SwitchPath::new(switches), end))
        .collect()
}

fn check_db(topo: &Topology, scheme: RoutingScheme) {
    let cfg = RouteDbConfig::default();
    let db = RouteDb::build(topo, scheme, &cfg);
    let orient = Orientation::compute(topo, cfg.root);
    let dm = DistanceMatrix::compute(topo);
    for (s, d, alts) in db.iter_pairs() {
        assert!(!alts.is_empty(), "{scheme} {s}->{d}: no route");
        for t in alts {
            // Segment chain: starts at s, ends at d, hands over at ITBs.
            let segments = segments(topo, s, t);
            assert_eq!(segments[0].0.src(), s);
            assert_eq!(segments.last().unwrap().0.dst(), d);
            for w in segments.windows(2) {
                assert_eq!(w[0].0.dst(), w[1].0.src());
            }
            for (p, end) in segments {
                assert!(p.is_connected(topo), "{scheme} {s}->{d}: segment {p}");
                assert!(
                    p.is_legal(&orient),
                    "{scheme} {s}->{d}: illegal segment {p}"
                );
                if let Some(h) = end {
                    assert_eq!(topo.host_switch(h), p.dst());
                }
            }
            if scheme.uses_itbs() {
                assert_eq!(
                    t.total_links(),
                    dm.get(s, d) as usize,
                    "{scheme} {s}->{d}: ITB route must be minimal"
                );
            } else {
                assert_eq!(t.num_itbs(), 0);
            }
        }
    }
    check_headers(topo, &db);
}

/// For every switch pair, from one of its source hosts to one of its
/// destination hosts, twice (round robin moves on): the header `select`
/// writes is the stored bytes of the route `choose_from` draws, then the
/// destination's port; walked on the topology it ejects at the hosts the
/// route's walk reaches and ends at the destination.
fn check_headers(topo: &Topology, db: &RouteDb) {
    let scheme = db.scheme();
    let (mut chooser, mut selector) = (db.selector(), db.selector());
    for s in topo.switches() {
        for d in topo.switches() {
            let (from, to) = (topo.hosts_of(s), topo.hosts_of(d));
            if from.is_empty() || to.is_empty() {
                continue;
            }
            let (src, dst) = (from[d.idx() % from.len()], to[s.idx() % to.len()]);
            for _ in 0..2 {
                let route = db.choose_from(topo, src, dst, chooser.src_mut(src));
                let mut want = route.bytes().to_vec();
                let mut hosts: Vec<HostId> = route
                    .walk(topo)
                    .filter_map(|hop| match hop.to {
                        PortTarget::Host { host, .. } => Some(host),
                        PortTarget::Switch { .. } => None,
                    })
                    .collect();
                assert_eq!(hosts.len(), route.num_itbs());
                want.push(topo.host_port(dst));
                hosts.push(dst);
                let header = db.select(topo, src, dst, &mut selector);
                assert_eq!(header.bytes(), want, "{scheme} {src}->{dst}");
                assert_eq!(header.walk(topo, src), Ok(hosts), "{scheme} {src}->{dst}");
            }
        }
    }
}

#[test]
fn torus_all_pairs_all_schemes() {
    let topo = gen::torus_2d(8, 8, 8).unwrap();
    for scheme in RoutingScheme::extended() {
        check_db(&topo, scheme);
    }
}

#[test]
fn express_all_pairs_all_schemes() {
    let topo = gen::torus_2d_express(8, 8, 8).unwrap();
    for scheme in RoutingScheme::extended() {
        check_db(&topo, scheme);
    }
}

#[test]
fn cplant_all_pairs_all_schemes() {
    let topo = gen::cplant().unwrap();
    for scheme in RoutingScheme::extended() {
        check_db(&topo, scheme);
    }
}

/// The table-size cap of the paper: no pair may carry more than 10
/// alternatives, and pairs with abundant minimal paths should reach the
/// cap.
#[test]
fn alternative_cap_respected_and_reached() {
    let topo = gen::torus_2d(8, 8, 8).unwrap();
    let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
    let mut max_seen = 0;
    for (_, _, alts) in db.iter_pairs() {
        assert!(alts.len() <= 10);
        max_seen = max_seen.max(alts.len());
    }
    assert_eq!(
        max_seen, 10,
        "some pair should use the full 10 alternatives"
    );
}

/// Moving the spanning-tree root changes which minimal paths are forbidden
/// but never the ITB guarantees.
#[test]
fn alternative_roots_keep_invariants() {
    let topo = gen::torus_2d(8, 8, 2).unwrap();
    for root in [SwitchId(0), SwitchId(27), SwitchId(63)] {
        let cfg = RouteDbConfig {
            root,
            ..RouteDbConfig::default()
        };
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &cfg);
        let orient = Orientation::compute(&topo, root);
        let dm = DistanceMatrix::compute(&topo);
        for (s, d, alts) in db.iter_pairs() {
            for t in alts {
                assert_eq!(t.total_links(), dm.get(s, d) as usize);
                for (p, _) in segments(&topo, s, t) {
                    assert!(p.is_legal(&orient));
                }
            }
        }
    }
}

type Pin = (u64, [usize; 3]);

/// The tables themselves, not only the runs that use them: FNV-1a
/// fingerprints ([`RouteDb::fingerprint`]) of every table of the paper's
/// networks, recorded from the per-pair, nested-`Vec` builder this one
/// replaced. A one-byte change in any port choice moves them. The three
/// ITB schemes share one table (they differ in how a source picks from it).
///
/// Next to each fingerprint, the table's footprint: routes, segments
/// (routes plus ITB marks) and heap bytes. The bytes pin the layout: each
/// route one span of its owned bytes, no switch or host id (walked on the
/// topology), no filler byte. Its history, torus UP/DOWN / ITB, express,
/// CPLANT:
///
/// - 32-bit switch ids, separate switch and port offsets, 8-byte segment
///   ends: 206,864 / 1,499,932 B, 167,184 / 926,906, 100,026 / 704,070;
/// - 16-bit switch ids beside the port bytes, one offset vector for both,
///   4-byte segment ends: 133,132 / 892,352, 109,324 / 559,586,
///   65,518 / 422,634;
/// - port bytes only, switches walked through the table's own switch ×
///   port neighbour map and host → switch map: 77,324 / 481,424,
///   69,900 / 320,794, 42,614 / 243,066;
/// - port bytes only, switches walked on the topology, a segment level
///   (route → segments → bytes offsets) and a 2-byte in-transit host id
///   per segment: 75,788 / 479,888, 67,852 / 318,746, 41,014 / 241,466;
/// - each route's owned bytes in one span, an ITB mark where a segment
///   ended, in-transit hosts walked: the pins below.
///
/// Each network's pins are its UP/DOWN table's, then its ITB table's.
fn pinned() -> [(&'static str, Topology, [Pin; 2]); 3] {
    [
        (
            "torus",
            gen::torus_2d(8, 8, 8).unwrap(),
            [
                (0x27eb20e7b6ab96f8, [4096, 4096, 51_208]),
                (0x3d1e813ebb51eb84, [22_720, 40_092, 256_704]),
            ],
        ),
        (
            "express",
            gen::torus_2d_express(8, 8, 8).unwrap(),
            [
                (0x0ab4caf4b548a247, [4096, 4096, 43_272]),
                (0x9f13351cdb6f3257, [18_368, 27_202, 164_364]),
            ],
        ),
        (
            "cplant",
            gen::cplant().unwrap(),
            [
                (0x9a74d0fef55cf304, [2500, 2500, 26_010]),
                (0x58ef4932f2349115, [13_756, 21_296, 121_226]),
            ],
        ),
    ]
}

/// `db`, a table over the paper network `name`, against the pins of its
/// scheme.
fn assert_pinned(name: &str, topo: &Topology, db: &RouteDb, [updown, itb]: [Pin; 2]) {
    let scheme = db.scheme();
    let (fingerprint, [routes, segments, bytes]) = if scheme.uses_itbs() { itb } else { updown };
    assert_eq!(
        db.fingerprint(topo),
        fingerprint,
        "{name} {scheme}: got {:#018x}",
        db.fingerprint(topo)
    );
    let fp = db.footprint();
    assert_eq!(
        (fp.routes, fp.segments, fp.bytes),
        (routes, segments, bytes),
        "{name} {scheme}: footprint"
    );
}

#[test]
fn paper_tables_are_pinned() {
    for (name, topo, pins) in pinned() {
        for scheme in RoutingScheme::extended() {
            let db = RouteDb::build(&topo, scheme, &RouteDbConfig::default());
            assert_pinned(name, &topo, &db, pins);
        }
    }
}

/// A [`RouteFill`] that a seeded random multiset of host pairs asked, in
/// random order, completes to the table [`RouteDb::build`] writes, the
/// pinned one. Every header drawn while it filled is the one the
/// completed table's `select_from` draws with a fresh selector, and it
/// wrote exactly the switch pairs asked.
#[test]
fn a_filled_table_completes_to_the_pinned_one() {
    let mut rng = SmallRng::seed_from_u64(70);
    let cfg = RouteDbConfig::default();
    for (name, topo, pins) in pinned() {
        let n = topo.num_hosts() as u32;
        for scheme in RoutingScheme::extended() {
            let mut asks: Vec<(HostId, HostId)> = (0..150)
                .map(|_| (HostId(rng.gen_range(0..n)), HostId(rng.gen_range(0..n))))
                .collect();
            let repeats: Vec<_> = (0..50).map(|_| asks[rng.gen_range(0..150usize)]).collect();
            asks.extend(repeats);
            asks.shuffle(&mut rng);
            let built = RouteDb::build(&topo, scheme, &cfg);
            let map = Unchanged::new(&topo);
            let mut fill = RouteFill::new(&topo, scheme, &cfg, &map);
            let mut sel = built.selector();
            let headers: Vec<Header> = asks
                .iter()
                .map(|&(s, d)| fill.select(&topo, &map, s, d, sel.src_mut(s)))
                .collect();
            let mut asked: Vec<_> = asks
                .iter()
                .map(|&(s, d)| (topo.host_switch(s), topo.host_switch(d)))
                .collect();
            asked.sort_unstable();
            asked.dedup();
            assert_eq!(fill.filled().collect::<Vec<_>>(), asked, "{name} {scheme}");
            let db = fill.complete(&topo, &map);
            assert!(db == built, "{name} {scheme}: not the built table");
            assert_pinned(name, &topo, &db, pins);
            let mut again = db.selector();
            for (&(s, d), header) in asks.iter().zip(&headers) {
                let drawn = db.select_from(&topo, s, d, again.src_mut(s));
                assert_eq!(&drawn, header, "{name} {scheme} {s}->{d}");
            }
        }
    }
}
