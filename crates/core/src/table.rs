//! The route table's storage: every route of every switch pair in a
//! handful of flat vectors, the borrowed views that read them and the
//! builder that writes them.
//!
//! ```text
//! pair (s, d) ──pair_routes──▶ routes ──route_segs──▶ segments ──seg_switches/seg_ports──▶ switches / ports
//!                                                     seg_end
//! ```
//!
//! Each arrow is a CSR offset vector (`n + 1` entries, item `i` owning
//! `off[i]..off[i + 1]` of the next level), so a table is seven
//! allocations however many routes it holds, cloning it is seven
//! `memcpy`s, and a table appended in pair order has exactly one
//! representation — `==` on the vectors is equality of the routes.

use regnet_topology::{HostId, Port, SwitchId};

use crate::fnv::Fnv1a;
use crate::journey::{Journey, JourneyTemplate, Segment, SegmentEnd};
use crate::scheme::RoutingScheme;

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
    /// Segment → its entries of `switches`.
    seg_switches: Vec<u32>,
    /// Segment → its entries of `ports`.
    seg_ports: Vec<u32>,
    /// Segment → how it ends.
    seg_end: Vec<SegmentEnd>,
    switches: Vec<SwitchId>,
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
    /// checked path.
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
                    b.db.switches.extend_from_slice(&seg.switches);
                    b.db.ports.extend_from_slice(&seg.ports);
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
                + size_of_val(&self.seg_ports[..])
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

/// One segment of a route, borrowed: the fields of a [`Segment`] as
/// slices. The final segment's `ports` is one byte short, as in a
/// [`JourneyTemplate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRef<'a> {
    pub switches: &'a [SwitchId],
    pub ports: &'a [Port],
    pub end: SegmentEnd,
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
        span(&db.route_segs, self.route).map(move |g| SegmentRef {
            switches: &db.switches[span(&db.seg_switches, g)],
            ports: &db.ports[span(&db.seg_ports, g)],
            end: db.seg_end[g],
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
/// pairs in `src * n_switches + dst` order.
#[derive(Debug)]
pub(crate) struct RouteDbBuilder {
    db: RouteDb,
}

impl RouteDbBuilder {
    pub(crate) fn new(scheme: RoutingScheme, n_switches: usize, n_hosts: usize) -> RouteDbBuilder {
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
                seg_ports: vec![0],
                seg_end: Vec::new(),
                switches: Vec::new(),
                ports: Vec::new(),
            },
        }
    }

    /// Room for a table of `routes` routes, `segments` segments,
    /// `switches` switch entries and `ports` port bytes, reserved before
    /// it is written so that each vector is one allocation, not a chain of
    /// doublings that leaves freed blocks behind. An upper bound will do:
    /// [`finish`](Self::finish) gives the unused tail back.
    pub(crate) fn reserve(&mut self, [routes, segments, switches, ports]: [usize; 4]) {
        let db = &mut self.db;
        db.route_segs.reserve_exact(routes);
        db.seg_switches.reserve_exact(segments);
        db.seg_ports.reserve_exact(segments);
        db.seg_end.reserve_exact(segments);
        db.switches.reserve_exact(switches);
        db.ports.reserve_exact(ports);
    }

    /// The open segment visits `switches` next.
    pub(crate) fn switches(&mut self, switches: impl IntoIterator<Item = SwitchId>) {
        self.db.switches.extend(switches);
    }

    /// The open segment's next output-port bytes.
    pub(crate) fn ports(&mut self, ports: impl IntoIterator<Item = Port>) {
        self.db.ports.extend(ports);
    }

    /// Close the open segment.
    pub(crate) fn end_segment(&mut self, end: SegmentEnd) {
        self.db.seg_switches.push(self.db.switches.len() as u32);
        self.db.seg_ports.push(self.db.ports.len() as u32);
        self.db.seg_end.push(end);
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
        db.seg_ports.truncate(segs + 1);
        db.switches.truncate(db.seg_switches[segs] as usize);
        db.ports.truncate(db.seg_ports[segs] as usize);
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
        // Every offset pushed is at most one of these two lengths.
        assert!(
            u32::try_from(self.db.switches.len().max(self.db.ports.len())).is_ok(),
            "route table too large for 32-bit offsets"
        );
        // Give back what an upper-bound `reserve` left unused: shrinking
        // reallocates in place, and the freed tails are open to the
        // allocations that follow instead of idling inside the table.
        let mut db = self.db;
        db.route_segs.shrink_to_fit();
        db.seg_switches.shrink_to_fit();
        db.seg_ports.shrink_to_fit();
        db.seg_end.shrink_to_fit();
        db.switches.shrink_to_fit();
        db.ports.shrink_to_fit();
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
