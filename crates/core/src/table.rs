//! The route table's storage: every route of every switch pair in six
//! flat vectors, the borrowed views that read them and the builder that
//! writes them.
//!
//! ```text
//! pair (s, d) ──pair_routes──▶ routes ──route_segs──▶ segments ──seg_switches──▶ switches  u16
//!                                                     seg_end  u32               ports     u8
//! ```
//!
//! Each arrow is a CSR offset vector (`n + 1` entries of `u32`, item `i`
//! owning `off[i]..off[i + 1]` of the next level). `switches` and `ports`
//! are aligned one to one, entry `j` a switch and the port byte it sends
//! the packet out of, so one offset vector serves both. A delivering
//! segment's last port byte addresses the destination host, which differs
//! per host pair and is not stored: its entry holds `FILLER`, which the
//! views leave out. `seg_end` is the in-transit host's id, or `DELIVER`.
//!
//! So a table is six allocations however many routes it holds, cloning
//! it is six `memcpy`s, and a table appended in pair order has exactly
//! one representation — `==` on the vectors is equality of the routes. It
//! costs 4 bytes per switch pair and per route, 8 per segment and 3 per
//! switch a segment visits. Switch ids are 16-bit: a table covers at most
//! 65,536 switches.

use regnet_topology::{HostId, Port, SwitchId};

use crate::fnv::Fnv1a;
use crate::journey::{Journey, JourneyTemplate, Segment, SegmentEnd};
use crate::scheme::RoutingScheme;

/// Most switches a table can name in its 16-bit switch ids.
const MAX_SWITCHES: usize = 1 << 16;
/// `seg_end` of a delivering segment; any other value is an in-transit
/// host's id.
const DELIVER: u32 = u32::MAX;
/// The port entry of a delivering segment's last switch, whose real byte
/// is the destination host's port.
const FILLER: Port = Port(u8::MAX);

/// The routing table of the whole network for one scheme: for every ordered
/// switch pair, the list of alternative routes.
///
/// Routes are stored per *switch* pair as templates and materialised per
/// *host* pair on demand (the only host-specific byte is the final port).
/// [`alternatives`](RouteDb::alternatives) lends them out as views;
/// [`JourneyTemplate`] is the owned form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteDb {
    scheme: RoutingScheme,
    n_switches: usize,
    n_hosts: usize,
    /// Pair `s * n_switches + d` → its routes.
    pair_routes: Vec<u32>,
    /// Route → its segments.
    route_segs: Vec<u32>,
    /// Segment → its entries of `switches` and of `ports`.
    seg_switches: Vec<u32>,
    /// Segment → its in-transit host, or `DELIVER`.
    seg_end: Vec<u32>,
    switches: Vec<u16>,
    /// One per entry of `switches`; `FILLER` ends a delivering segment.
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
    /// Build a database directly from per-switch-pair templates, bypassing
    /// route computation. `templates` is indexed `src.idx() * n_switches +
    /// dst.idx()` and every pair must have at least one alternative.
    ///
    /// This deliberately performs **no legality checking**: tests use it to
    /// inject route sets with cyclic channel dependencies and verify that
    /// the simulator's wait-for-graph analyzer detects the resulting
    /// deadlock. Don't use it for real routing tables — `build` is the
    /// checked path. It does refuse what the layout cannot store: a switch
    /// id of `n_switches` or more, and a segment whose port bytes are not
    /// one per switch (in-transit) or one fewer (delivering).
    pub fn from_templates(
        scheme: RoutingScheme,
        n_switches: usize,
        n_hosts: usize,
        templates: Vec<Vec<JourneyTemplate>>,
    ) -> RouteDb {
        assert!(
            templates.iter().all(|alts| !alts.is_empty()),
            "every pair needs at least one alternative"
        );
        RouteDb::from_templates_partial(scheme, n_switches, n_hosts, templates)
    }

    /// Like [`from_templates`](RouteDb::from_templates), but pairs are
    /// allowed to have *no* alternative at all — the shape a degraded
    /// network produces when some switch pairs are unreachable. Callers
    /// must check [`has_route`](RouteDb::has_route) before
    /// [`select`](RouteDb::select).
    pub(crate) fn from_templates_partial(
        scheme: RoutingScheme,
        n_switches: usize,
        n_hosts: usize,
        templates: Vec<Vec<JourneyTemplate>>,
    ) -> RouteDb {
        assert_eq!(
            templates.len(),
            n_switches * n_switches,
            "one template list per ordered switch pair"
        );
        let mut b = RouteDbBuilder::new(scheme, n_switches, n_hosts);
        for alts in &templates {
            for t in alts {
                for seg in &t.segments {
                    let delivers = seg.end == SegmentEnd::Deliver;
                    assert!(
                        !seg.switches.is_empty()
                            && seg.ports.len() + usize::from(delivers) == seg.switches.len(),
                        "{} port bytes for {} switches: an in-transit segment has one per \
                         switch, a delivering one a byte fewer",
                        seg.ports.len(),
                        seg.switches.len()
                    );
                    assert!(
                        seg.switches.iter().all(|s| s.idx() < n_switches),
                        "switch id out of range in {:?}",
                        seg.switches
                    );
                    b.switches(seg.switches.iter().copied());
                    b.ports(seg.ports.iter().copied());
                    b.end_segment(seg.end);
                }
                b.end_route();
            }
            b.end_pair();
        }
        b.finish()
    }

    /// The table as owned templates, indexed like
    /// [`from_templates`](RouteDb::from_templates) takes them.
    pub fn to_templates(&self) -> Vec<Vec<JourneyTemplate>> {
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
        RouteFootprint {
            routes: self.route_segs.len() - 1,
            segments: self.seg_end.len(),
            bytes: size_of_val(&self.pair_routes[..])
                + size_of_val(&self.route_segs[..])
                + size_of_val(&self.seg_switches[..])
                + size_of_val(&self.seg_end[..])
                + size_of_val(&self.switches[..])
                + size_of_val(&self.ports[..]),
        }
    }

    /// FNV-1a over every pair → alternative → segment (switch ids, port
    /// bytes, how it ends): two tables with the same fingerprint route
    /// every packet identically. Stable across versions; the regression
    /// suite pins the paper networks' tables with it.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        let word = |h: &mut Fnv1a, w: u32| h.write(&w.to_le_bytes());
        for (_, _, alts) in self.iter_pairs() {
            word(&mut h, alts.len() as u32);
            for route in alts {
                word(&mut h, route.num_segments() as u32);
                for seg in route.segments() {
                    word(&mut h, seg.switches.len() as u32);
                    seg.switches.iter().for_each(|s| word(&mut h, s.0));
                    word(&mut h, seg.ports.len() as u32);
                    seg.ports.iter().for_each(|p| h.write(&[p.0]));
                    let end = match seg.end {
                        SegmentEnd::Deliver => u32::MAX,
                        SegmentEnd::Itb(host) => host.0,
                    };
                    word(&mut h, end);
                }
            }
        }
        h.finish()
    }
}

/// The alternative routes of one switch pair, borrowed from a [`RouteDb`].
#[derive(Debug, Clone, Copy)]
pub struct Alternatives<'a> {
    db: &'a RouteDb,
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
            db: self.db,
            route: self.routes.0 + i,
        }
    }

    pub fn iter(&self) -> Routes<'a> {
        self.into_iter()
    }

    /// The alternatives as owned templates.
    pub fn to_owned(&self) -> Vec<JourneyTemplate> {
        self.iter().map(|r| r.to_owned()).collect()
    }
}

impl<'a> IntoIterator for Alternatives<'a> {
    type Item = RouteRef<'a>;
    type IntoIter = Routes<'a>;

    fn into_iter(self) -> Routes<'a> {
        Routes {
            db: self.db,
            routes: self.routes.0..self.routes.1,
        }
    }
}

/// Iterator over the routes of an [`Alternatives`].
#[derive(Debug, Clone)]
pub struct Routes<'a> {
    db: &'a RouteDb,
    routes: std::ops::Range<usize>,
}

impl<'a> Iterator for Routes<'a> {
    type Item = RouteRef<'a>;

    fn next(&mut self) -> Option<RouteRef<'a>> {
        let db = self.db;
        self.routes.next().map(|route| RouteRef { db, route })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.routes.size_hint()
    }
}

impl ExactSizeIterator for Routes<'_> {}

/// One route of a [`RouteDb`]: a [`JourneyTemplate`] read in place.
#[derive(Debug, Clone, Copy)]
pub struct RouteRef<'a> {
    db: &'a RouteDb,
    route: usize,
}

/// One segment of a route, borrowed: the fields of a [`Segment`] read in
/// place. The final segment's `ports` is one byte short, as in a
/// [`JourneyTemplate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRef<'a> {
    pub switches: SegmentSwitches<'a>,
    pub ports: &'a [Port],
    pub end: SegmentEnd,
}

/// The switches of a [`SegmentRef`] in travel order, read from the
/// table's 16-bit ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentSwitches<'a>(&'a [u16]);

impl<'a> SegmentSwitches<'a> {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The `i`-th switch. Panics when out of range.
    pub fn get(&self, i: usize) -> SwitchId {
        SwitchId(u32::from(self.0[i]))
    }

    pub fn first(&self) -> Option<SwitchId> {
        self.0.first().map(|&s| SwitchId(u32::from(s)))
    }

    pub fn last(&self) -> Option<SwitchId> {
        self.0.last().map(|&s| SwitchId(u32::from(s)))
    }

    pub fn iter(&self) -> impl DoubleEndedIterator<Item = SwitchId> + ExactSizeIterator + 'a {
        self.0.iter().map(|&s| SwitchId(u32::from(s)))
    }

    pub fn contains(&self, s: SwitchId) -> bool {
        self.iter().any(|t| t == s)
    }

    pub fn to_vec(&self) -> Vec<SwitchId> {
        self.iter().collect()
    }
}

impl SegmentRef<'_> {
    /// Switch-to-switch links traversed by this segment.
    pub fn len_links(&self) -> usize {
        self.switches.len().saturating_sub(1)
    }

    /// The segment as an owned [`Segment`].
    pub fn to_owned(self) -> Segment {
        Segment {
            switches: self.switches.to_vec(),
            ports: self.ports.to_vec(),
            end: self.end,
        }
    }
}

impl<'a> RouteRef<'a> {
    pub fn num_segments(&self) -> usize {
        span(&self.db.route_segs, self.route).len()
    }

    /// The route's segments, in travel order.
    pub fn segments(&self) -> impl ExactSizeIterator<Item = SegmentRef<'a>> + 'a {
        let db = self.db;
        span(&db.route_segs, self.route).map(move |g| {
            let entries = span(&db.seg_switches, g);
            let (ports, end) = match db.seg_end[g] {
                DELIVER => (entries.start..entries.end - 1, SegmentEnd::Deliver),
                host => (entries.clone(), SegmentEnd::Itb(HostId(host))),
            };
            SegmentRef {
                switches: SegmentSwitches(&db.switches[entries]),
                ports: &db.ports[ports],
                end,
            }
        })
    }

    /// Number of in-transit buffers on this route.
    pub fn num_itbs(&self) -> usize {
        self.num_segments() - 1
    }

    /// Total switch-to-switch links traversed.
    pub fn total_links(&self) -> usize {
        self.segments().map(|s| s.len_links()).sum()
    }

    /// Materialise the route for a concrete host pair.
    ///
    /// `dst_port` is the destination host's port on the final switch.
    pub fn materialise(&self, src: HostId, dst: HostId, dst_port: Port) -> Journey {
        let mut segments: Vec<Segment> = self.segments().map(SegmentRef::to_owned).collect();
        let last = segments.last_mut().expect("route has segments");
        last.ports.push(dst_port);
        Journey { src, dst, segments }
    }

    /// The route as an owned template.
    pub fn to_owned(&self) -> JourneyTemplate {
        JourneyTemplate {
            segments: self.segments().map(SegmentRef::to_owned).collect(),
        }
    }
}

/// Appends routes to a [`RouteDb`] in table order: the switches and port
/// bytes of a segment, [`end_segment`](RouteDbBuilder::end_segment); the
/// segments of a route, [`end_route`](RouteDbBuilder::end_route); the
/// routes of a pair (possibly none), [`end_pair`](RouteDbBuilder::end_pair);
/// pairs in `src * n_switches + dst` order. A delivering segment is given
/// one port byte fewer than its switches; `end_segment` adds the filler.
#[derive(Debug)]
pub(crate) struct RouteDbBuilder {
    db: RouteDb,
}

impl RouteDbBuilder {
    /// A builder for a table over `n_switches` switches. Panics above
    /// 65,536: the table stores switch ids in 16 bits.
    pub(crate) fn new(scheme: RoutingScheme, n_switches: usize, n_hosts: usize) -> RouteDbBuilder {
        assert!(
            n_switches <= MAX_SWITCHES,
            "{n_switches} switches: a route table names at most {MAX_SWITCHES} in its 16-bit ids"
        );
        let mut pair_routes = Vec::with_capacity(n_switches * n_switches + 1);
        pair_routes.push(0);
        RouteDbBuilder {
            db: RouteDb {
                scheme,
                n_switches,
                n_hosts,
                pair_routes,
                route_segs: vec![0],
                seg_switches: vec![0],
                seg_end: Vec::new(),
                switches: Vec::new(),
                ports: Vec::new(),
            },
        }
    }

    /// Room for a table of `routes` routes, `segments` segments and
    /// `entries` switch entries (each with its port byte), reserved before
    /// it is written so that each vector is one allocation, not a chain of
    /// doublings that leaves freed blocks behind. An upper bound will do:
    /// [`finish`](Self::finish) gives the unused tail back.
    pub(crate) fn reserve(&mut self, [routes, segments, entries]: [usize; 3]) {
        let db = &mut self.db;
        db.route_segs.reserve_exact(routes);
        db.seg_switches.reserve_exact(segments);
        db.seg_end.reserve_exact(segments);
        db.switches.reserve_exact(entries);
        db.ports.reserve_exact(entries);
    }

    /// The open segment visits `switches` next.
    pub(crate) fn switches(&mut self, switches: impl IntoIterator<Item = SwitchId>) {
        let n = self.db.n_switches;
        self.db.switches.extend(switches.into_iter().map(|s| {
            debug_assert!(s.idx() < n, "{s} of {n} switches");
            s.0 as u16
        }));
    }

    /// The open segment's next output-port bytes.
    pub(crate) fn ports(&mut self, ports: impl IntoIterator<Item = Port>) {
        self.db.ports.extend(ports);
    }

    /// Close the open segment.
    pub(crate) fn end_segment(&mut self, end: SegmentEnd) {
        let db = &mut self.db;
        db.seg_end.push(match end {
            SegmentEnd::Deliver => {
                db.ports.push(FILLER);
                DELIVER
            }
            SegmentEnd::Itb(h) => {
                debug_assert_ne!(h.0, DELIVER, "host id reserved for delivery");
                h.0
            }
        });
        debug_assert_eq!(
            db.ports.len(),
            db.switches.len(),
            "one port byte per switch"
        );
        db.seg_switches.push(db.switches.len() as u32);
    }

    /// The segments closed since the last route make up the next route of
    /// the open pair.
    pub(crate) fn end_route(&mut self) {
        self.db.route_segs.push(self.db.seg_end.len() as u32);
    }

    /// Drop everything pushed since the last [`end_route`](Self::end_route).
    pub(crate) fn abort_route(&mut self) {
        let db = &mut self.db;
        let segs = *db.route_segs.last().expect("offsets start at 0") as usize;
        db.seg_end.truncate(segs);
        db.seg_switches.truncate(segs + 1);
        let entries = db.seg_switches[segs] as usize;
        db.switches.truncate(entries);
        db.ports.truncate(entries);
    }

    /// Routes the open pair has so far.
    pub(crate) fn routes_in_pair(&self) -> usize {
        let closed = *self.db.pair_routes.last().expect("offsets start at 0");
        self.db.route_segs.len() - 1 - closed as usize
    }

    /// Close the open pair.
    pub(crate) fn end_pair(&mut self) {
        self.db
            .pair_routes
            .push(self.db.route_segs.len() as u32 - 1);
    }

    /// The finished table. Panics unless every ordered pair was closed.
    pub(crate) fn finish(self) -> RouteDb {
        assert_eq!(
            self.db.pair_routes.len(),
            self.db.n_switches * self.db.n_switches + 1,
            "one (possibly empty) route list per ordered switch pair"
        );
        // Every offset pushed is at most this length.
        assert!(
            u32::try_from(self.db.switches.len()).is_ok(),
            "route table too large for 32-bit offsets"
        );
        // Give back what an upper-bound `reserve` left unused: shrinking
        // reallocates in place, and the freed tails are open to the
        // allocations that follow instead of idling inside the table.
        let mut db = self.db;
        db.route_segs.shrink_to_fit();
        db.seg_switches.shrink_to_fit();
        db.seg_end.shrink_to_fit();
        db.switches.shrink_to_fit();
        db.ports.shrink_to_fit();
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::RouteDbConfig;
    use proptest::prelude::*;
    use regnet_topology::gen;

    fn seg(switches: &[u32], ports: &[u8], end: SegmentEnd) -> Segment {
        Segment {
            switches: switches.iter().map(|&s| SwitchId(s)).collect(),
            ports: ports.iter().map(|&p| Port(p)).collect(),
            end,
        }
    }

    /// Two switches; 0->1 has two alternatives (one through an in-transit
    /// host), 1->0 has none.
    fn sample() -> Vec<Vec<JourneyTemplate>> {
        let trivial = |s| JourneyTemplate {
            segments: vec![seg(&[s], &[], SegmentEnd::Deliver)],
        };
        vec![
            vec![trivial(0)],
            vec![
                JourneyTemplate {
                    segments: vec![seg(&[0, 1], &[3], SegmentEnd::Deliver)],
                },
                JourneyTemplate {
                    segments: vec![
                        seg(&[0], &[7], SegmentEnd::Itb(HostId(5))),
                        seg(&[0, 1], &[4], SegmentEnd::Deliver),
                    ],
                },
            ],
            vec![],
            vec![trivial(1)],
        ]
    }

    #[test]
    fn templates_round_trip_through_the_flat_store() {
        let db = RouteDb::from_templates_partial(RoutingScheme::ItbRr, 2, 4, sample());
        assert_eq!(db.to_templates(), sample());
        let again = RouteDb::from_templates_partial(RoutingScheme::ItbRr, 2, 4, db.to_templates());
        assert_eq!(again, db);
        assert_eq!(again.fingerprint(), db.fingerprint());
        assert!(!db.has_route(SwitchId(1), SwitchId(0)));
        let fp = db.footprint();
        assert_eq!((fp.routes, fp.segments), (4, 5));
    }

    #[test]
    fn views_read_what_was_stored() {
        let db = RouteDb::from_templates_partial(RoutingScheme::ItbRr, 2, 4, sample());
        let alts = db.alternatives(SwitchId(0), SwitchId(1));
        assert_eq!(alts.len(), 2);
        let via_itb = alts.get(1);
        assert_eq!((via_itb.num_itbs(), via_itb.total_links()), (1, 1));
        assert_eq!(via_itb.to_owned(), sample()[1][1]);
        let j = via_itb.materialise(HostId(0), HostId(9), Port(8));
        assert_eq!(
            j.segments[1].ports,
            vec![Port(4), Port(8)],
            "destination port appended to the final segment only"
        );
        assert_eq!(j.segments[0].ports, vec![Port(7)]);
        assert_eq!(j, sample()[1][1].materialise(HostId(0), HostId(9), Port(8)));
        assert_eq!(alts.iter().len(), 2);
        assert_eq!(alts.into_iter().map(|r| r.num_itbs()).sum::<usize>(), 1);
    }

    #[test]
    fn aborted_route_leaves_no_trace() {
        let mut b = RouteDbBuilder::new(RoutingScheme::ItbRr, 1, 1);
        b.switches([SwitchId(0)]);
        b.ports([Port(1)]);
        b.end_segment(SegmentEnd::Itb(HostId(0)));
        b.switches([SwitchId(0)]);
        b.abort_route();
        assert_eq!(b.routes_in_pair(), 0);
        b.switches([SwitchId(0)]);
        b.end_segment(SegmentEnd::Deliver);
        b.end_route();
        assert_eq!(b.routes_in_pair(), 1);
        b.end_pair();
        let db = b.finish();
        let only = RouteDb::from_templates(
            RoutingScheme::ItbRr,
            1,
            1,
            vec![vec![JourneyTemplate {
                segments: vec![seg(&[0], &[], SegmentEnd::Deliver)],
            }]],
        );
        assert_eq!(db, only);
    }

    #[test]
    fn from_templates_refuses_a_segment_the_layout_cannot_hold() {
        // A delivering segment with a byte per switch (its last entry is
        // the filler's), and an in-transit one a byte short.
        for bad in [
            seg(&[0, 1], &[3, 4], SegmentEnd::Deliver),
            seg(&[0, 1], &[3], SegmentEnd::Itb(HostId(1))),
        ] {
            let mut templates = sample();
            templates[1][0].segments = vec![bad];
            let refused = std::panic::catch_unwind(|| {
                RouteDb::from_templates_partial(RoutingScheme::ItbRr, 2, 4, templates)
            })
            .expect_err("refused");
            let why = refused
                .downcast_ref::<String>()
                .expect("a formatted message");
            assert!(why.contains("port bytes for 2 switches"), "{why}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// On random multigraphs (parallel links, hostless switches, ITB
        /// fallbacks), UP/DOWN and ITB tables survive the owned round trip
        /// as equal vectors, the store holds each written segment as its
        /// switches aligned with its port bytes, a delivering one ending
        /// in the filler, and the views read back what was written.
        #[test]
        fn layout_round_trips_on_multigraphs(n in 3usize..14, extra in 0usize..16, seed in any::<u64>()) {
            let topo = gen::irregular_multigraph(n, extra, seed).unwrap();
            let n = topo.num_switches();
            for scheme in [RoutingScheme::UpDown, RoutingScheme::ItbRr] {
                let db = RouteDb::build(&topo, scheme, &RouteDbConfig::default());
                let templates = db.to_templates();
                let again = RouteDb::from_templates(scheme, n, topo.num_hosts(), templates.clone());
                prop_assert!(again == db, "{}: round trip", scheme);
                let written = templates.iter().flatten().flat_map(|t| &t.segments);
                let mut g = 0;
                for seg in written {
                    let entries = span(&again.seg_switches, g);
                    let switches: Vec<SwitchId> =
                        again.switches[entries.clone()].iter().map(|&s| SwitchId(s.into())).collect();
                    prop_assert_eq!(&switches, &seg.switches);
                    let mut ports = seg.ports.clone();
                    let end = match seg.end {
                        SegmentEnd::Deliver => {
                            ports.push(FILLER);
                            DELIVER
                        }
                        SegmentEnd::Itb(h) => h.0,
                    };
                    prop_assert_eq!(&again.ports[entries], &ports[..]);
                    prop_assert_eq!(again.seg_end[g], end);
                    g += 1;
                }
                prop_assert_eq!(g, again.seg_end.len());
                prop_assert_eq!(again.to_templates(), templates);
            }
        }
    }
}
