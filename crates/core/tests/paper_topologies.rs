//! Full-scale route validation on the paper's three networks: every
//! ordered switch pair, every scheme, every alternative — structural
//! checks only (no simulation), so this covers all ~4k pairs per network
//! in seconds.

use regnet_core::{RouteDb, RouteDbConfig, RoutingScheme, SegmentEnd};
use regnet_routing::SwitchPath;
use regnet_topology::{gen, DistanceMatrix, Orientation, SwitchId, Topology};

fn check_db(topo: &Topology, scheme: RoutingScheme) {
    let cfg = RouteDbConfig::default();
    let db = RouteDb::build(topo, scheme, &cfg);
    let orient = Orientation::compute(topo, cfg.root);
    let dm = DistanceMatrix::compute(topo);
    for (s, d, alts) in db.iter_pairs() {
        assert!(!alts.is_empty(), "{scheme} {s}->{d}: no route");
        for t in alts {
            // Segment chain: starts at s, ends at d, hands over at ITBs.
            let segments: Vec<_> = t.segments().collect();
            assert_eq!(segments[0].switches[0], s);
            assert_eq!(*segments.last().unwrap().switches.last().unwrap(), d);
            for w in segments.windows(2) {
                assert_eq!(*w[0].switches.last().unwrap(), w[1].switches[0]);
            }
            for seg in &segments {
                let p = SwitchPath::new(seg.switches.to_vec());
                assert!(p.is_connected(topo), "{scheme} {s}->{d}: segment {p}");
                assert!(
                    p.is_legal(&orient),
                    "{scheme} {s}->{d}: illegal segment {p}"
                );
                if let SegmentEnd::Itb(h) = seg.end {
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
                for seg in t.segments() {
                    assert!(SwitchPath::new(seg.switches.to_vec()).is_legal(&orient));
                }
            }
        }
    }
}

/// The tables themselves, not only the runs that use them: FNV-1a
/// fingerprints ([`RouteDb::fingerprint`]) of every table of the paper's
/// networks, recorded from the per-pair, nested-`Vec` builder this one
/// replaced. A one-byte change in any port choice moves them. The three
/// ITB schemes share one table (they differ in how a source picks from it).
#[test]
fn paper_tables_are_pinned() {
    let pinned: [(&str, Topology, [u64; 2]); 3] = [
        (
            "torus",
            gen::torus_2d(8, 8, 8).unwrap(),
            [0x27eb20e7b6ab96f8, 0x3d1e813ebb51eb84],
        ),
        (
            "express",
            gen::torus_2d_express(8, 8, 8).unwrap(),
            [0x0ab4caf4b548a247, 0x9f13351cdb6f3257],
        ),
        (
            "cplant",
            gen::cplant().unwrap(),
            [0x9a74d0fef55cf304, 0x58ef4932f2349115],
        ),
    ];
    for (name, topo, [updown, itb]) in pinned {
        for scheme in RoutingScheme::extended() {
            let db = RouteDb::build(&topo, scheme, &RouteDbConfig::default());
            let want = if scheme.uses_itbs() { itb } else { updown };
            assert_eq!(
                db.fingerprint(),
                want,
                "{name} {scheme}: got {:#018x}",
                db.fingerprint()
            );
        }
    }
}
