//! Structural tests of up*/down* routing on the classical topologies:
//! where the up*/down* rule does and does not forbid minimal paths.

use regnet_routing::{simple_routes, LegalDistances, Phase, SimpleRoutesConfig, SwitchPath};
use regnet_topology::{gen, DistanceMatrix, Orientation, SwitchId};

/// On a hypercube rooted at node 0, every minimal path can be made legal:
/// clear the bits towards the root first (up moves), then set the bits away
/// from it (down moves). The legal distance therefore always equals the
/// Hamming distance.
#[test]
fn hypercube_minimal_paths_are_never_forbidden() {
    let topo = gen::hypercube(4, 1).unwrap();
    let orient = Orientation::compute(&topo, SwitchId(0));
    let dm = DistanceMatrix::compute(&topo);
    for d in topo.switches() {
        let legal = LegalDistances::to_dest(&topo, &orient, d);
        for s in topo.switches() {
            assert_eq!(
                legal.from(s),
                dm.get(s, d),
                "hypercube pair {s}->{d} should have a minimal legal path"
            );
        }
    }
}

/// On a mesh rooted at a corner, up*/down* is also non-restrictive: levels
/// are monotone along any minimal path direction change... in fact the
/// corner-rooted mesh admits minimal legal paths for all pairs.
#[test]
fn corner_rooted_mesh_is_unrestricted() {
    let topo = gen::mesh_2d(5, 5, 1).unwrap();
    let orient = Orientation::compute(&topo, SwitchId(0));
    let dm = DistanceMatrix::compute(&topo);
    for d in topo.switches() {
        let legal = LegalDistances::to_dest(&topo, &orient, d);
        for s in topo.switches() {
            assert_eq!(legal.from(s), dm.get(s, d), "mesh pair {s}->{d}");
        }
    }
}

/// The torus wraparound is exactly what up*/down* cannot exploit: some
/// pairs must lose their minimal paths, and they concentrate diametrically
/// opposite the root.
#[test]
fn torus_forbidden_pairs_cluster_far_from_root() {
    let topo = gen::torus_2d(8, 8, 1).unwrap();
    let orient = Orientation::compute(&topo, SwitchId(0));
    let dm = DistanceMatrix::compute(&topo);
    let mut forbidden: Vec<(SwitchId, SwitchId)> = Vec::new();
    for d in topo.switches() {
        let legal = LegalDistances::to_dest(&topo, &orient, d);
        for s in topo.switches() {
            if s != d && legal.from(s) > dm.get(s, d) {
                forbidden.push((s, d));
            }
        }
    }
    assert!(!forbidden.is_empty());
    // Forbidden pairs involve switches whose tree level is high (far from
    // the root): their minimal paths cross the "level ridge".
    let avg_level: f64 = forbidden
        .iter()
        .map(|&(s, d)| (orient.level(s) + orient.level(d)) as f64 / 2.0)
        .sum::<f64>()
        / forbidden.len() as f64;
    let overall: f64 = topo.switches().map(|s| orient.level(s) as f64).sum::<f64>() / 64.0;
    assert!(
        avg_level > overall,
        "forbidden pairs avg level {avg_level:.2} should exceed network avg {overall:.2}"
    );
}

/// simple_routes on CPLANT: the paper says all its up*/down* routes are
/// minimal; verify path lengths equal legal distances equal (mostly)
/// graph distances.
#[test]
fn cplant_routes_lengths() {
    let topo = gen::cplant().unwrap();
    let orient = Orientation::compute(&topo, SwitchId(0));
    let routes = simple_routes(&topo, &orient, &SimpleRoutesConfig::default());
    let dm = DistanceMatrix::compute(&topo);
    let mut non_minimal = 0;
    let mut total = 0;
    for (s, d, p) in routes.iter() {
        let p = SwitchPath::new(p.to_vec());
        assert!(p.is_legal(&orient));
        total += 1;
        if p.len_links() != dm.get(s, d) as usize {
            non_minimal += 1;
        }
    }
    assert!(
        (non_minimal as f64) < total as f64 * 0.1,
        "{non_minimal}/{total} non-minimal CPLANT routes"
    );
}

/// Phase-state distances: the Down-phase distance to a destination is
/// infinite exactly when no pure-down path exists.
#[test]
fn down_phase_reaches_only_descendant_like_targets() {
    let topo = gen::torus_2d(4, 4, 1).unwrap();
    let orient = Orientation::compute(&topo, SwitchId(0));
    // From the root in Down phase, only pure-down paths are allowed; the
    // root is the top of the up-graph so it can still reach everything...
    // verify at least that Down-phase distances are finite iff a monotone
    // down path exists, by checking consistency: finite Down distance
    // implies a legal path whose first move is down.
    for d in topo.switches() {
        let legal = LegalDistances::to_dest(&topo, &orient, d);
        for s in topo.switches() {
            if s == d {
                continue;
            }
            let down = legal.from_state(s, Phase::Down);
            if down != u16::MAX {
                // There must exist a neighbour t with a down move s->t on a
                // shortest remaining path.
                let ok = topo.switch_neighbors(s).any(|(_, t, _)| {
                    let td = legal.from_state(t, Phase::Down);
                    !orient.is_up_move(s, t) && td != u16::MAX && td + 1 == down
                });
                assert!(ok, "inconsistent Down-phase distance at {s}->{d}");
            }
        }
    }
}

/// A legality cross-check: every shortest legal path reported by
/// simple_routes verifies with `SwitchPath::is_legal`, and mutating one hop
/// to violate the rule is caught.
#[test]
fn legality_checker_catches_violations() {
    let topo = gen::torus_2d(4, 4, 1).unwrap();
    let orient = Orientation::compute(&topo, SwitchId(0));
    // Construct a known violation: a down move followed by an up move.
    // Find any switch with a down-neighbour that has an up-neighbour.
    let mut found = false;
    'outer: for a in topo.switches() {
        for (_, b, _) in topo.switch_neighbors(a) {
            if orient.is_up_move(a, b) {
                continue;
            }
            for (_, c, _) in topo.switch_neighbors(b) {
                if c != a && orient.is_up_move(b, c) {
                    let p = SwitchPath::new(vec![a, b, c]);
                    assert!(!p.is_legal(&orient));
                    assert_eq!(p.first_violation(&orient), Some(1));
                    found = true;
                    break 'outer;
                }
            }
        }
    }
    assert!(found, "no down->up pattern found on a torus?!");
}
