//! The route table's storage: every route of every switch pair as the
//! port bytes a source writes into its header, in flat vectors; the
//! borrowed views that read them and the builder that writes them.
//!
//! ```text
//! pair (s, d) ──pair_routes──▶ routes ──route_ports──▶ ports  u8
//! ```
//!
//! Each arrow is a CSR offset vector (`n + 1` entries of `u32`, item `i`
//! owning `off[i]..off[i + 1]` of the next level). A route's span is its
//! owned form ([`RouteRef::to_owned`]): one port byte per hop, and after
//! an in-transit segment its host's byte and an [`ITB_MARK`]. A
//! delivering segment's last byte addresses the destination host, which
//! differs per host pair: it is not stored.
//!
//! No switch or host id is stored: the topology the table is written for
//! determines them. A route starts at its pair's source switch, and its
//! bytes walked on that topology ([`RouteRef::walk`], a
//! [`PortWalk`](crate::PortWalk)) name every switch and link it crosses;
//! an in-transit host's byte names that host and leaves the walk at its
//! switch, where the next segment starts. [`RouteDb::from_templates`]
//! reads routes back by the walk's rule.
//!
//! So a table is three allocations however many routes it holds, cloning
//! it is three `memcpy`s, and a table appended in pair order has exactly
//! one representation — `==` on the vectors is equality of the routes. It
//! costs 4 bytes per switch pair and per route and 1 per port byte and
//! per mark.

use regnet_topology::{Port, PortTarget, SwitchId, Topology};

use crate::fnv::Fnv1a;
use crate::header::{hosts_reached, Header, Hop, PortWalk, ITB_MARK};
use crate::scheme::RoutingScheme;

/// The routing table of the whole network for one scheme: for every ordered
/// switch pair, the list of alternative routes.
///
/// Routes are stored per *switch* pair as templates; the header written
/// for a *host* pair adds its only host-specific byte, the final port.
/// [`alternatives`](RouteDb::alternatives) lends them out as views; a
/// route's owned form is its stored bytes ([`RouteRef::to_owned`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteDb {
    scheme: RoutingScheme,
    n_switches: usize,
    n_hosts: usize,
    /// Pair `s * n_switches + d` → its routes.
    pair_routes: Vec<u32>,
    /// Route → its entries of `ports`.
    route_ports: Vec<u32>,
    /// One byte per hop; after an in-transit segment, its host's port and
    /// a mark.
    ports: Vec<Port>,
}

/// What a [`RouteDb`] holds and what it costs to keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteFootprint {
    /// Routes over all switch pairs.
    pub routes: usize,
    /// Segments over all routes (routes + in-transit buffers).
    pub segments: usize,
    /// Heap bytes of the table's vectors.
    pub bytes: usize,
}

impl std::fmt::Display for RouteFootprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} routes, {} segments, {:.1} KiB",
            self.routes,
            self.segments,
            self.bytes as f64 / 1024.0
        )
    }
}

fn span(off: &[u32], i: usize) -> std::ops::Range<usize> {
    off[i] as usize..off[i + 1] as usize
}

impl RouteDb {
    /// Build a database over `topo` directly from per-switch-pair
    /// templates, bypassing route computation. `templates` is indexed
    /// `src.idx() * n_switches + dst.idx()`, every pair must have at least
    /// one alternative, and each is a route's owned form
    /// ([`RouteRef::to_owned`]).
    ///
    /// This deliberately performs **no legality checking**: tests use it to
    /// inject route sets with cyclic channel dependencies and verify that
    /// the simulator's wait-for-graph analyzer detects the resulting
    /// deadlock. Don't use it for real routing tables — `build` is the
    /// checked path. It does refuse, naming the pair, the segment and the
    /// byte, bytes that [`Header::walk`]'s rule cannot read from the pair's
    /// source switch: an empty in-transit segment, a byte that leads
    /// nowhere, an in-transit segment whose last byte does not reach a
    /// host, and a delivering byte that does not reach a switch; and,
    /// naming the pair, a route that ends on another switch than the
    /// pair's destination.
    pub fn from_templates(
        scheme: RoutingScheme,
        topo: &Topology,
        templates: Vec<Vec<Vec<Port>>>,
    ) -> RouteDb {
        assert!(
            templates.iter().all(|alts| !alts.is_empty()),
            "every pair needs at least one alternative"
        );
        RouteDb::from_templates_partial(scheme, topo, templates)
    }

    /// Like [`from_templates`](RouteDb::from_templates), but pairs are
    /// allowed to have *no* alternative at all — the shape a degraded
    /// network produces when some switch pairs are unreachable. Callers
    /// must check [`has_route`](RouteDb::has_route) before
    /// [`select`](RouteDb::select).
    pub(crate) fn from_templates_partial(
        scheme: RoutingScheme,
        topo: &Topology,
        templates: Vec<Vec<Vec<Port>>>,
    ) -> RouteDb {
        let n = topo.num_switches();
        assert_eq!(
            templates.len(),
            n * n,
            "one template list per ordered switch pair"
        );
        let mut b = RouteDbBuilder::new(scheme, topo);
        for (pair, alts) in templates.iter().enumerate() {
            let (src, dst) = (SwitchId((pair / n) as u32), SwitchId((pair % n) as u32));
            for bytes in alts {
                let (_, end) = hosts_reached(topo, src, bytes, true)
                    .unwrap_or_else(|why| panic!("{src}->{dst}: {why}"));
                assert!(end == dst, "{src}->{dst}: route ends at {end}, not {dst}");
                b.ports(bytes.iter().copied());
                b.end_route();
            }
            b.end_pair();
        }
        b.finish()
    }

    /// The table as owned routes, indexed like
    /// [`from_templates`](RouteDb::from_templates) takes them.
    pub fn to_templates(&self) -> Vec<Vec<Vec<Port>>> {
        self.iter_pairs()
            .map(|(_, _, alts)| alts.to_owned())
            .collect()
    }

    /// The scheme this database implements.
    pub fn scheme(&self) -> RoutingScheme {
        self.scheme
    }

    /// Number of hosts of the network the table was built for.
    pub fn num_hosts(&self) -> usize {
        self.n_hosts
    }

    /// Does the table hold at least one route for this ordered switch pair?
    /// Always true for databases built by [`build`](RouteDb::build); may be
    /// false for a table built on a partitioned network.
    pub fn has_route(&self, src: SwitchId, dst: SwitchId) -> bool {
        !self.alternatives(src, dst).is_empty()
    }

    /// Alternative routes for an ordered switch pair.
    pub fn alternatives(&self, src: SwitchId, dst: SwitchId) -> Alternatives<'_> {
        let routes = span(&self.pair_routes, src.idx() * self.n_switches + dst.idx());
        Alternatives {
            db: self,
            src,
            routes: (routes.start, routes.end),
        }
    }

    /// Iterate every (src switch, dst switch, alternatives) triple.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (SwitchId, SwitchId, Alternatives<'_>)> + '_ {
        let n = self.n_switches as u32;
        (0..n).flat_map(move |s| {
            (0..n).map(move |d| {
                let (s, d) = (SwitchId(s), SwitchId(d));
                (s, d, self.alternatives(s, d))
            })
        })
    }

    /// What the table holds and what it costs to keep.
    pub fn footprint(&self) -> RouteFootprint {
        use std::mem::size_of_val;
        let routes = self.route_ports.len() - 1;
        let marks = self.ports.iter().filter(|&&p| p == ITB_MARK).count();
        RouteFootprint {
            routes,
            segments: routes + marks,
            bytes: size_of_val(&self.pair_routes[..])
                + size_of_val(&self.route_ports[..])
                + size_of_val(&self.ports[..]),
        }
    }

    /// FNV-1a over every pair → alternative → segment (switch ids, port
    /// bytes, how it ends), the switches and in-transit hosts walked on
    /// `topo`, the topology the table was written for: two tables with the
    /// same fingerprint route every packet identically. Stable across
    /// versions; the regression suite pins the paper networks' tables with
    /// it.
    pub fn fingerprint(&self, topo: &Topology) -> u64 {
        let mut h = Fnv1a::new();
        let word = |h: &mut Fnv1a, w: u32| h.write(&w.to_le_bytes());
        for (_, _, alts) in self.iter_pairs() {
            word(&mut h, alts.len() as u32);
            for route in alts {
                let itbs = route.num_itbs();
                word(&mut h, itbs as u32 + 1);
                let (mut hops, mut at) = (route.walk(topo), route.src);
                for (si, seg) in route.segments().enumerate() {
                    // The segment's switches: where it starts, then one
                    // per link; an in-transit segment's last byte is its
                    // host's.
                    word(&mut h, (seg.len() - usize::from(si < itbs)) as u32 + 1);
                    word(&mut h, at.0);
                    let mut end = u32::MAX;
                    for hop in hops.by_ref().take(seg.len()) {
                        match hop.to {
                            PortTarget::Switch { to, .. } => {
                                word(&mut h, to.0);
                                at = to;
                            }
                            PortTarget::Host { host, .. } => end = host.0,
                        }
                    }
                    word(&mut h, seg.len() as u32);
                    seg.iter().for_each(|p| h.write(&[p.0]));
                    // How it ends: in its in-transit host, or delivered.
                    word(&mut h, end);
                }
            }
        }
        h.finish()
    }

    /// Route `r`'s bytes.
    fn route(&self, r: usize) -> &[Port] {
        &self.ports[span(&self.route_ports, r)]
    }
}

/// The alternative routes of one switch pair, borrowed from a [`RouteDb`].
#[derive(Debug, Clone, Copy)]
pub struct Alternatives<'a> {
    db: &'a RouteDb,
    /// The pair's source switch, where every route starts.
    src: SwitchId,
    /// First route and one past the last.
    routes: (usize, usize),
}

impl<'a> Alternatives<'a> {
    pub fn len(&self) -> usize {
        self.routes.1 - self.routes.0
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th alternative. Panics when out of range.
    pub fn get(&self, i: usize) -> RouteRef<'a> {
        assert!(i < self.len(), "alternative {i} of {}", self.len());
        RouteRef {
            src: self.src,
            bytes: self.db.route(self.routes.0 + i),
        }
    }

    pub fn iter(&self) -> Routes<'a> {
        self.into_iter()
    }

    /// The alternatives in owned form ([`RouteRef::to_owned`]).
    pub fn to_owned(&self) -> Vec<Vec<Port>> {
        self.iter().map(|r| r.to_owned()).collect()
    }
}

impl<'a> IntoIterator for Alternatives<'a> {
    type Item = RouteRef<'a>;
    type IntoIter = Routes<'a>;

    fn into_iter(self) -> Routes<'a> {
        Routes {
            db: self.db,
            src: self.src,
            routes: self.routes.0..self.routes.1,
        }
    }
}

/// Iterator over the routes of an [`Alternatives`].
#[derive(Debug, Clone)]
pub struct Routes<'a> {
    db: &'a RouteDb,
    src: SwitchId,
    routes: std::ops::Range<usize>,
}

impl<'a> Iterator for Routes<'a> {
    type Item = RouteRef<'a>;

    fn next(&mut self) -> Option<RouteRef<'a>> {
        let (db, src) = (self.db, self.src);
        self.routes.next().map(|r| RouteRef {
            src,
            bytes: db.route(r),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.routes.size_hint()
    }
}

impl ExactSizeIterator for Routes<'_> {}

/// One route of a [`RouteDb`], read in place: its stored bytes, from its
/// pair's source switch.
#[derive(Debug, Clone, Copy)]
pub struct RouteRef<'a> {
    /// The pair's source switch, where the first segment starts.
    src: SwitchId,
    bytes: &'a [Port],
}

impl<'a> RouteRef<'a> {
    /// The stored bytes, the route's owned form in place: one port byte
    /// per hop, and after an in-transit segment its host's byte and an
    /// ITB mark; the destination's port left out.
    pub fn bytes(&self) -> &'a [Port] {
        self.bytes
    }

    /// The port bytes of each segment, in travel order, as
    /// [`Header::segments`] splits them: an in-transit segment's last
    /// byte is its host's, the delivering segment's is not stored. Its
    /// switches and host are walked ([`walk`](RouteRef::walk)).
    pub fn segments(&self) -> impl Iterator<Item = &'a [Port]> + 'a {
        self.bytes.split(|&p| p == ITB_MARK)
    }

    /// The route walked on `topo`, the topology the table was written for:
    /// a [`Hop`] per stored port byte (the in-transit hosts' included, the
    /// destination's not stored), from the pair's source switch. Panics
    /// where a byte leads nowhere: `topo` is not the table's.
    pub fn walk(&self, topo: &'a Topology) -> impl Iterator<Item = Hop> + 'a {
        PortWalk::new(topo, self.src, self.bytes.iter().copied())
            .map(|hop| hop.unwrap_or_else(|end| panic!("{end}: not the table's topology")))
    }

    /// Number of in-transit buffers on this route: one per mark.
    pub fn num_itbs(&self) -> usize {
        self.bytes.iter().filter(|&&p| p == ITB_MARK).count()
    }

    /// Total switch-to-switch links traversed: a byte each, the in-transit
    /// hosts' bytes and the marks left out.
    pub fn total_links(&self) -> usize {
        self.bytes.len() - 2 * self.num_itbs()
    }

    /// The header a source writes for this route to the host on port
    /// `dst_port` of its last switch: the stored bytes, then `dst_port`.
    /// One allocation of the exact size; no switch is walked.
    pub fn header(&self, dst_port: Port) -> Header {
        let mut header = Vec::with_capacity(self.bytes.len() + 1);
        header.extend_from_slice(self.bytes);
        header.push(dst_port);
        Header::new(header)
    }

    /// The route in owned form: its [`bytes`](RouteRef::bytes), as
    /// [`walk`](RouteRef::walk) reads them and [`RouteDb::from_templates`]
    /// takes them.
    pub fn to_owned(&self) -> Vec<Port> {
        self.bytes.to_vec()
    }
}

/// Appends routes to a [`RouteDb`] in table order: the bytes of a route
/// in owned form, [`ports`](RouteDbBuilder::ports), then
/// [`end_route`](RouteDbBuilder::end_route); the routes of a pair
/// (possibly none), [`end_pair`](RouteDbBuilder::end_pair); pairs in
/// `src * n_switches + dst` order. A route is given a port byte per hop,
/// and after an in-transit segment its host's byte and an ITB mark. Its
/// switches and hosts are not given: they are where the bytes lead in the
/// topology the builder was made for.
#[derive(Debug, Clone)]
pub(crate) struct RouteDbBuilder {
    db: RouteDb,
}

impl RouteDbBuilder {
    /// A builder for a table over `topo`.
    pub(crate) fn new(scheme: RoutingScheme, topo: &Topology) -> RouteDbBuilder {
        let n_switches = topo.num_switches();
        let mut pair_routes = Vec::with_capacity(n_switches * n_switches + 1);
        pair_routes.push(0);
        RouteDbBuilder {
            db: RouteDb {
                scheme,
                n_switches,
                n_hosts: topo.num_hosts(),
                pair_routes,
                route_ports: vec![0],
                ports: Vec::new(),
            },
        }
    }

    /// Room for a table of `routes` routes and `bytes` bytes, marks
    /// included, reserved before it is written so that each vector is one
    /// allocation, not a chain of doublings that leaves freed blocks
    /// behind. An upper bound will do: [`finish`](Self::finish) gives the
    /// unused tail back.
    pub(crate) fn reserve(&mut self, [routes, bytes]: [usize; 2]) {
        self.db.route_ports.reserve_exact(routes);
        self.db.ports.reserve_exact(bytes);
    }

    /// The open route's next bytes.
    pub(crate) fn ports(&mut self, ports: impl IntoIterator<Item = Port>) {
        self.db.ports.extend(ports);
    }

    /// The bytes given since the last route make up the next route of the
    /// open pair.
    pub(crate) fn end_route(&mut self) {
        self.db.route_ports.push(self.db.ports.len() as u32);
    }

    /// Drop everything pushed since the last [`end_route`](Self::end_route).
    pub(crate) fn abort_route(&mut self) {
        let db = &mut self.db;
        let end = *db.route_ports.last().expect("offsets start at 0");
        db.ports.truncate(end as usize);
    }

    /// Routes the open pair has so far.
    pub(crate) fn routes_in_pair(&self) -> usize {
        let closed = *self.db.pair_routes.last().expect("offsets start at 0");
        self.db.route_ports.len() - 1 - closed as usize
    }

    /// Pairs closed so far.
    pub(crate) fn pairs(&self) -> usize {
        self.db.pair_routes.len() - 1
    }

    /// The routes of the `i`-th pair closed, a pair whose source switch is
    /// `src`.
    pub(crate) fn pair(&self, i: usize, src: SwitchId) -> Alternatives<'_> {
        let routes = span(&self.db.pair_routes, i);
        Alternatives {
            db: &self.db,
            src,
            routes: (routes.start, routes.end),
        }
    }

    /// Routes and bytes written so far, as [`reserve`](Self::reserve)
    /// takes them.
    pub(crate) fn size(&self) -> [usize; 2] {
        [self.db.route_ports.len() - 1, self.db.ports.len()]
    }

    /// Close the open pair.
    pub(crate) fn end_pair(&mut self) {
        self.db
            .pair_routes
            .push(self.db.route_ports.len() as u32 - 1);
    }

    /// The finished table. Panics unless every ordered pair was closed.
    pub(crate) fn finish(self) -> RouteDb {
        assert_eq!(
            self.db.pair_routes.len(),
            self.db.n_switches * self.db.n_switches + 1,
            "one (possibly empty) route list per ordered switch pair"
        );
        // Every offset pushed is at most the byte count or the route
        // count; empty routes can outnumber the bytes.
        let (bytes, routes) = (self.db.ports.len(), self.db.route_ports.len());
        assert!(
            u32::try_from(bytes.max(routes)).is_ok(),
            "route table too large for 32-bit offsets"
        );
        // Give back what an upper-bound `reserve` left unused: shrinking
        // reallocates in place, and the freed tails are open to the
        // allocations that follow instead of idling inside the table.
        let mut db = self.db;
        db.route_ports.shrink_to_fit();
        db.ports.shrink_to_fit();
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::RouteDbConfig;
    use crate::split::{split_minimal_path, try_split_minimal_path};
    use proptest::prelude::*;
    use regnet_routing::minimal::k_minimal_paths;
    use regnet_routing::{simple_routes, SimpleRoutesConfig, SwitchPath};
    use regnet_topology::{gen, DistanceMatrix, Orientation, TopologyBuilder};

    /// Two switches joined by two parallel links, two hosts on switch 0
    /// and one on switch 1.
    fn two_switches() -> Topology {
        let mut b = TopologyBuilder::new("two", 8);
        b.add_switches(2);
        for _ in 0..2 {
            b.connect(SwitchId(0), SwitchId(1)).unwrap();
        }
        for s in [0, 0, 1] {
            b.attach_host(SwitchId(s)).unwrap();
        }
        b.build().unwrap()
    }

    /// On [`two_switches`]: 0->1 has two alternatives (one through an
    /// in-transit host), 1->0 has none.
    fn sample(topo: &Topology) -> Vec<Vec<Vec<Port>>> {
        let links: Vec<Port> = topo.ports_to(SwitchId(0), SwitchId(1)).collect();
        let itb = topo.host_port(topo.hosts_of(SwitchId(0))[1]);
        vec![
            vec![vec![]],
            vec![vec![links[0]], vec![itb, ITB_MARK, links[1]]],
            vec![],
            vec![vec![]],
        ]
    }

    #[test]
    fn templates_round_trip_through_the_flat_store() {
        let topo = two_switches();
        let db = RouteDb::from_templates_partial(RoutingScheme::ItbRr, &topo, sample(&topo));
        assert_eq!(db.to_templates(), sample(&topo));
        let again = RouteDb::from_templates_partial(RoutingScheme::ItbRr, &topo, db.to_templates());
        assert_eq!(again, db);
        assert_eq!(again.fingerprint(&topo), db.fingerprint(&topo));
        assert!(!db.has_route(SwitchId(1), SwitchId(0)));
        let fp = db.footprint();
        assert_eq!((fp.routes, fp.segments), (4, 5));
    }

    #[test]
    fn views_read_what_was_stored() {
        let topo = two_switches();
        let db = RouteDb::from_templates_partial(RoutingScheme::ItbRr, &topo, sample(&topo));
        let alts = db.alternatives(SwitchId(0), SwitchId(1));
        assert_eq!(alts.len(), 2);
        let via_itb = alts.get(1);
        assert_eq!((via_itb.num_itbs(), via_itb.total_links()), (1, 1));
        let stored = &sample(&topo)[1][1];
        assert_eq!(via_itb.to_owned(), *stored);
        let (itb, hop) = (stored[0], stored[2]);
        assert_eq!(via_itb.bytes(), &stored[..]);
        let segments: Vec<&[Port]> = via_itb.segments().collect();
        assert_eq!(segments, [&[itb][..], &[hop]]);
        assert_eq!(
            via_itb.header(Port(9)).bytes(),
            [itb, ITB_MARK, hop, Port(9)],
            "a mark after the in-transit segment, the destination port last"
        );
        let direct = sample(&topo)[1][0][0];
        assert_eq!(alts.get(0).header(Port(9)).bytes(), [direct, Port(9)]);
        assert_eq!(alts.iter().len(), 2);
        assert_eq!(alts.into_iter().map(|r| r.num_itbs()).sum::<usize>(), 1);
    }

    #[test]
    fn aborted_route_leaves_no_trace() {
        let mut b = TopologyBuilder::new("one", 4);
        b.add_switches(1);
        let h = b.attach_host(SwitchId(0)).unwrap();
        let topo = b.build().unwrap();
        let mut b = RouteDbBuilder::new(RoutingScheme::ItbRr, &topo);
        b.ports([topo.host_port(h), ITB_MARK, Port(0)]);
        b.abort_route();
        assert_eq!(b.routes_in_pair(), 0);
        b.end_route();
        assert_eq!(b.routes_in_pair(), 1);
        b.end_pair();
        let db = b.finish();
        let only = RouteDb::from_templates(RoutingScheme::ItbRr, &topo, vec![vec![vec![]]]);
        assert_eq!(db, only);
    }

    #[test]
    fn from_templates_refuses_bytes_the_walk_cannot_read() {
        let topo = two_switches();
        let link = topo.port_to(SwitchId(0), SwitchId(1)).unwrap();
        let itb = topo.host_port(topo.hosts_of(SwitchId(0))[0]);
        let dst = topo.host_port(topo.hosts_of(SwitchId(1))[0]);
        // What `from_templates` panics with when route `0 -> 1`'s first
        // alternative is `bytes`.
        let refusal = |bytes: Vec<Port>| {
            let mut templates = sample(&topo);
            templates[1][0] = bytes;
            let refused = std::panic::catch_unwind(|| {
                RouteDb::from_templates_partial(RoutingScheme::ItbRr, &topo, templates)
            })
            .expect_err("refused");
            refused
                .downcast_ref::<String>()
                .expect("a formatted message")
                .clone()
        };
        let cases = [
            // A byte that leads nowhere.
            (
                vec![Port(7)],
                "segment 0 byte 0: p7 of s0 leads to no switch".into(),
            ),
            // An in-transit segment whose last byte reaches a switch.
            (
                vec![link, ITB_MARK, link],
                format!("segment 0 byte 0: {link} of s0 leads to no host"),
            ),
            // A delivering segment that is not one byte short: its last
            // byte reaches the destination host.
            (
                vec![link, dst],
                format!("segment 0 byte 1: {dst} of s1 leads to no switch"),
            ),
            // A leading mark, and two marks in a row.
            (vec![ITB_MARK, link], "segment 0 has no port byte".into()),
            (
                vec![itb, ITB_MARK, ITB_MARK, link],
                "segment 1 has no port byte".into(),
            ),
            // Bytes the walk reads, but they stop short of the pair's
            // destination switch.
            (vec![], "route ends at s0, not s1".into()),
        ];
        for (bytes, want) in cases {
            assert_eq!(
                refusal(bytes.clone()),
                format!("s0->s1: {want}"),
                "{bytes:?}"
            );
        }
    }

    /// Every route of `db`, a table of `scheme` over `topo`, against the
    /// paths it was split from: each pair's sampled minimal paths that
    /// split (for an ITB scheme), else its `simple_routes` path. A route's
    /// bytes are the splitter's for its path, and its walk visits the
    /// path's switches, ejecting at a host once per in-transit segment.
    fn assert_views_walk_the_splits(topo: &Topology, scheme: RoutingScheme, db: &RouteDb) {
        let cfg = RouteDbConfig::default();
        let orient = Orientation::compute(topo, cfg.root);
        let dm = DistanceMatrix::compute(topo);
        let legal = simple_routes(topo, &orient, &SimpleRoutesConfig::default());
        let picker = cfg.itb_picker;
        for (s, d, alts) in db.iter_pairs() {
            let mut want: Vec<(SwitchPath, Vec<Port>)> = Vec::new();
            if scheme.uses_itbs() {
                want = k_minimal_paths(topo, &dm, s, d, cfg.max_alternatives, cfg.seed)
                    .into_iter()
                    .filter_map(|p| {
                        let bytes = try_split_minimal_path(topo, &orient, &p, picker)?;
                        Some((p, bytes))
                    })
                    .collect();
            }
            if want.is_empty() {
                let path = SwitchPath::new(legal.get(s, d).to_vec());
                let bytes = split_minimal_path(topo, &orient, &path, picker);
                want.push((path, bytes));
            }
            assert_eq!(alts.len(), want.len(), "{scheme} {s}->{d}");
            for (route, (path, bytes)) in alts.iter().zip(&want) {
                assert_eq!(route.bytes(), &bytes[..], "{scheme} {s}->{d}");
                let (mut visited, mut ejections) = (vec![s], 0);
                for hop in route.walk(topo) {
                    assert_eq!(Some(&hop.at), visited.last(), "{scheme} {s}->{d}");
                    match hop.to {
                        PortTarget::Switch { to, .. } => visited.push(to),
                        PortTarget::Host { .. } => ejections += 1,
                    }
                }
                assert_eq!(visited, path.switches(), "{scheme} {s}->{d}");
                assert_eq!(ejections, route.num_itbs(), "{scheme} {s}->{d}");
                assert_eq!(route.total_links(), path.len_links());
            }
        }
    }

    #[test]
    fn paper_tables_walk_what_the_splitter_emits() {
        let topologies = [
            gen::torus_2d(8, 8, 8).unwrap(),
            gen::torus_2d_express(8, 8, 8).unwrap(),
            gen::cplant().unwrap(),
        ];
        for topo in &topologies {
            for scheme in [RoutingScheme::UpDown, RoutingScheme::ItbRr] {
                let db = RouteDb::build(topo, scheme, &RouteDbConfig::default());
                assert_views_walk_the_splits(topo, scheme, &db);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// On random multigraphs (parallel links, hostless switches, ITB
        /// fallbacks), UP/DOWN and ITB tables walk what the splitter
        /// emits, survive the owned round trip as equal vectors, and hold
        /// each written route as its owned bytes, in one span.
        #[test]
        fn layout_round_trips_on_multigraphs(n in 3usize..14, extra in 0usize..16, seed in any::<u64>()) {
            let topo = gen::irregular_multigraph(n, extra, seed).unwrap();
            for scheme in [RoutingScheme::UpDown, RoutingScheme::ItbRr] {
                let db = RouteDb::build(&topo, scheme, &RouteDbConfig::default());
                assert_views_walk_the_splits(&topo, scheme, &db);
                let templates = db.to_templates();
                let again = RouteDb::from_templates(scheme, &topo, templates.clone());
                prop_assert!(again == db, "{}: round trip", scheme);
                let mut r = 0;
                for bytes in templates.iter().flatten() {
                    prop_assert_eq!(again.route(r), &bytes[..]);
                    r += 1;
                }
                prop_assert_eq!(r, again.route_ports.len() - 1);
                prop_assert_eq!(again.to_templates(), templates);
            }
        }
    }
}
