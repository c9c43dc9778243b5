//! Property-based tests over random topologies: the routing invariants
//! that make the ITB mechanism deadlock-free must hold on *any* connected
//! network, not just the paper's three.

use proptest::prelude::*;

use regnet::core::{
    split_minimal_path, try_split_minimal_path, ItbHostPicker, PortWalk, RouteDb, RouteDbConfig,
    RoutingScheme, ITB_MARK,
};
use regnet::mapper::discover;
use regnet::prelude::*;
use regnet::routing::{minimal, simple_routes, SimpleRoutesConfig, SwitchPath};
use regnet::topology::{Port, PortTarget};

/// Strategy: a random connected irregular topology.
fn arb_topology() -> impl Strategy<Value = Topology> {
    (4usize..20, 2usize..5, 1usize..4, any::<u64>()).prop_map(|(n, deg, hosts, seed)| {
        gen::irregular_random(n, deg, hosts, seed).expect("irregular generator")
    })
}

/// Strategy: a random connected network with parallel links and hostless
/// switches, where the paper's topologies do not reach.
fn arb_multigraph() -> impl Strategy<Value = Topology> {
    (3usize..14, 0usize..16, any::<u64>()).prop_map(|(n, extra, seed)| {
        gen::irregular_multigraph(n, extra, seed).expect("multigraph generator")
    })
}

/// Strategy: a re-mapped network — `arb_multigraph` with up to three links
/// failed, as discovery from host 0 renumbers what survives.
fn arb_discovered() -> impl Strategy<Value = Topology> {
    (
        arb_multigraph(),
        proptest::collection::vec(any::<u32>(), 0..4),
    )
        .prop_map(|(physical, dead)| {
            let mut faults = FaultSet::new();
            for pick in dead {
                let link = &physical.links()[pick as usize % physical.num_links()];
                if link.is_switch_link() {
                    faults.kill_link(link.id);
                }
            }
            match discover(&physical, &faults, HostId(0)) {
                Ok(d) => d.topo,
                Err(_) => physical,
            }
        })
}

/// The segments of `bytes`, a route in owned form, walked on `topo` from
/// switch `start`: each one's switches, and the in-transit host it ends
/// in (`None` for the delivering segment).
fn segments(topo: &Topology, start: SwitchId, bytes: &[Port]) -> Vec<(SwitchPath, Option<HostId>)> {
    let mut segs = vec![(vec![start], None)];
    for hop in PortWalk::new(topo, start, bytes.iter().copied()) {
        match hop.expect("a byte that leads somewhere").to {
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

/// The flat table against the per-pair public functions it is built from:
/// every pair holds exactly the usable splits of its sampled minimal
/// paths, a pair with none falls back to the `simple_routes` path, and the
/// table survives a trip through its owned bytes.
fn assert_table_is_the_per_pair_composition(topo: &Topology) -> Result<(), TestCaseError> {
    let cfg = RouteDbConfig::default();
    let orient = Orientation::compute(topo, cfg.root);
    let dm = DistanceMatrix::compute(topo);
    let legal = simple_routes(topo, &orient, &SimpleRoutesConfig::default());
    let db = RouteDb::build(topo, RoutingScheme::ItbRr, &cfg);
    for (s, d, alts) in db.iter_pairs() {
        let usable: Vec<Vec<Port>> =
            minimal::k_minimal_paths(topo, &dm, s, d, cfg.max_alternatives, cfg.seed)
                .iter()
                .filter_map(|p| try_split_minimal_path(topo, &orient, p, cfg.itb_picker))
                .collect();
        if usable.is_empty() {
            // Every minimal path needs an in-transit buffer at a hostless
            // switch: one legal route, no ITBs.
            let path = SwitchPath::new(legal.get(s, d).to_vec());
            let fallback = split_minimal_path(topo, &orient, &path, cfg.itb_picker);
            prop_assert!(!fallback.contains(&ITB_MARK));
            prop_assert_eq!(alts.to_owned(), vec![fallback], "{}->{} fallback", s, d);
        } else {
            prop_assert_eq!(alts.to_owned(), usable, "{}->{}", s, d);
        }
    }
    let again = RouteDb::from_templates(db.scheme(), topo, db.to_templates());
    prop_assert_eq!(again.fingerprint(topo), db.fingerprint(topo));
    prop_assert!(again == db, "flat store round trip");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flat_table_matches_per_pair_functions_on_multigraphs(topo in arb_multigraph()) {
        assert_table_is_the_per_pair_composition(&topo)?;
    }

    #[test]
    fn flat_table_matches_per_pair_functions_on_discovered_topologies(topo in arb_discovered()) {
        assert_table_is_the_per_pair_composition(&topo)?;
    }

    /// The up-direction graph of any orientation is acyclic — the property
    /// that makes up*/down* deadlock-free.
    #[test]
    fn orientation_up_graph_is_acyclic(topo in arb_topology(), root_pick in any::<u32>()) {
        let root = SwitchId(root_pick % topo.num_switches() as u32);
        let orient = Orientation::compute(&topo, root);
        // Kahn's algorithm over "down end -> up end" edges.
        let n = topo.num_switches();
        let mut indeg = vec![0usize; n];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for link in topo.links() {
            if let Some((a, b)) = link.switch_ends() {
                let up = orient.up_end(a, b);
                let down = if up == a { b } else { a };
                adj[down.idx()].push(up.idx());
                indeg[up.idx()] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut removed = 0;
        while let Some(u) = queue.pop() {
            removed += 1;
            for &v in &adj[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        prop_assert_eq!(removed, n);
    }

    /// Every pair is reachable by a legal up*/down* path, and the legal
    /// distance is sandwiched between the graph distance and the
    /// through-the-root tree distance.
    #[test]
    fn legal_distances_are_sound(topo in arb_topology()) {
        let orient = Orientation::compute(&topo, SwitchId(0));
        let dm = DistanceMatrix::compute(&topo);
        for d in topo.switches() {
            let legal = LegalDistances::to_dest(&topo, &orient, d);
            for s in topo.switches() {
                let l = legal.from(s);
                prop_assert!(l != u16::MAX, "{} cannot reach {} legally", s, d);
                prop_assert!(l >= dm.get(s, d));
                prop_assert!(l as u32 <= orient.level(s) + orient.level(d));
            }
        }
    }

    /// Splitting any minimal path yields segments that are each legal
    /// up*/down* paths, preserve total length, and put every in-transit
    /// host on the right switch.
    #[test]
    fn split_segments_are_legal_and_minimal(topo in arb_topology(), seed in any::<u64>()) {
        let orient = Orientation::compute(&topo, SwitchId(0));
        let dm = DistanceMatrix::compute(&topo);
        let n = topo.num_switches() as u32;
        let src = SwitchId(seed as u32 % n);
        let dst = SwitchId((seed >> 16) as u32 % n);
        for path in minimal::k_minimal_paths(&topo, &dm, src, dst, 5, seed) {
            let bytes = split_minimal_path(&topo, &orient, &path, ItbHostPicker::Spread);
            let segs = segments(&topo, src, &bytes);
            let links: usize = segs.iter().map(|(p, _)| p.len_links()).sum();
            prop_assert_eq!(links, dm.get(src, dst) as usize);
            prop_assert_eq!(segs.last().unwrap().0.dst(), dst);
            for (p, end) in segs {
                prop_assert!(p.is_legal(&orient), "illegal segment {}", p);
                prop_assert!(p.is_connected(&topo));
                if let Some(h) = end {
                    prop_assert_eq!(topo.host_switch(h), p.dst());
                }
            }
        }
    }

    /// The header `select` writes for a host pair, walked on the topology
    /// from the source host's switch, ejects at each in-transit host of
    /// the route `choose_from` draws and ends at the destination, on any
    /// multigraph under every scheme.
    #[test]
    fn route_db_headers_walk_to_their_destination(topo in arb_multigraph(), scheme_pick in 0u8..4) {
        let scheme = RoutingScheme::extended()[scheme_pick as usize];
        let db = RouteDb::build(&topo, scheme, &RouteDbConfig::default());
        let (mut chooser, mut selector) = (db.selector(), db.selector());
        let hosts: Vec<HostId> = topo.hosts().collect();
        // Sample pairs rather than the full quadratic set.
        for (i, &src) in hosts.iter().enumerate() {
            let dst = hosts[(i * 7 + 3) % hosts.len()];
            if src == dst {
                continue;
            }
            let route = db.choose_from(&topo, src, dst, chooser.src_mut(src));
            let header = db.select(&topo, src, dst, &mut selector);
            // The final port byte must address the destination host.
            prop_assert_eq!(header.bytes().last(), Some(&topo.host_port(dst)));
            let walked = header.walk(&topo, src);
            prop_assert!(walked.is_ok(), "{}->{}: {:?}", src, dst, walked);
            let walked = walked.unwrap();
            prop_assert_eq!(walked.last(), Some(&dst));
            prop_assert_eq!(walked.len(), route.num_itbs() + 1);
            // Segments must chain: each in-transit host is attached where
            // its segment ends and the next one starts.
            let (s, d) = (topo.host_switch(src), topo.host_switch(dst));
            let segs = segments(&topo, s, route.bytes());
            prop_assert_eq!(segs.last().unwrap().0.dst(), d);
            for (w, &h) in segs.windows(2).zip(&walked) {
                prop_assert_eq!(w[0].1, Some(h));
                prop_assert_eq!(w[0].0.dst(), topo.host_switch(h));
                prop_assert_eq!(w[1].0.src(), topo.host_switch(h));
            }
        }
    }

    /// up*/down* routes never need in-transit buffers; ITB routes are
    /// always graph-minimal.
    #[test]
    fn scheme_level_invariants(topo in arb_topology()) {
        let dm = DistanceMatrix::compute(&topo);
        let ud = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
        for (_, _, alts) in ud.iter_pairs() {
            for t in alts {
                prop_assert_eq!(t.num_itbs(), 0);
            }
        }
        let rr = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        for (s, d, alts) in rr.iter_pairs() {
            for t in alts {
                prop_assert_eq!(t.total_links(), dm.get(s, d) as usize);
            }
        }
    }
}
