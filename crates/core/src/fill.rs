//! The one route writer: a table written a pair at a time, in any order.
//! A pair's routes are written on the first ask; [`RouteFill::complete`]
//! writes the rest in one pass and lays every pair out in pair order. The
//! mapper's rebuilds ask pair by pair, so a re-map pays for the pairs
//! traffic asks for; [`RouteDb::build`] completes a fill nothing asked.
//!
//! [`RouteDb::build`]: crate::RouteDb::build

use regnet_routing::minimal::{MinimalDag, PathSet};
use regnet_routing::{first_violation, simple_routes, PairPaths, SimpleRoutesConfig, SwitchPath};
use regnet_topology::{DistanceMatrix, HostId, Orientation, SwitchId, Topology};

use crate::header::Header;
use crate::relabel::Relabel;
use crate::scheme::{pick, RouteDbConfig, RoutingScheme, SrcSelector};
use crate::split::{no_itb_host, split_into};
use crate::table::{Alternatives, RouteDb, RouteDbBuilder};

/// A routing table whose pairs are written on first use. It holds what
/// every pair is made from — the orientation, the distance matrix (ITB
/// schemes) or the up\*/down\* routes (UP/DOWN, or an ITB scheme's legal
/// fallback once a pair needed it) — and the pairs written so far, in the
/// order they were asked for. No per-destination [`MinimalDag`] is kept
/// between asks; [`complete`](RouteFill::complete) builds each once for
/// its pass.
///
/// Each call takes the topology the routes are built on (`topo`) and the
/// [`Relabel`] they are written through (`map`); both must be the ones
/// given to [`new`](RouteFill::new). A pair's routes depend only on the
/// pair (its seeded walk over its destination's [`MinimalDag`]), the
/// orientation and `map`, so the order pairs are written in changes no
/// byte: [`complete`](RouteFill::complete) gives the same table whatever
/// was asked before.
#[derive(Debug, Clone)]
pub struct RouteFill {
    scheme: RoutingScheme,
    /// ITB schemes: what each pair's `MinimalDag` measures distance with.
    dm: Option<DistanceMatrix>,
    writer: PairWriter,
    /// Switches of the written topology.
    n: usize,
    /// Written pair `s * n + d` → 1 + its position among the pairs
    /// written; 0 = not written yet.
    slot: Vec<u32>,
    /// The pairs written, in the order they were asked for.
    table: RouteDbBuilder,
}

/// What writes one pair's routes: the routine every pair of every table
/// is written by.
#[derive(Debug, Clone)]
struct PairWriter {
    cfg: RouteDbConfig,
    orient: Orientation,
    /// UP/DOWN's routes, from the start; an ITB scheme's, once a pair
    /// needed the legal fallback.
    legal: Option<PairPaths>,
    /// Scratch for the minimal paths of the pair being written.
    paths: PathSet,
}

impl RouteFill {
    /// A table of `scheme` over `topo`, written through `map`, with no
    /// pair written yet: the orientation and the distance matrix or the
    /// up\*/down\* routes are computed here, once.
    pub fn new<R: Relabel>(
        topo: &Topology,
        scheme: RoutingScheme,
        cfg: &RouteDbConfig,
        map: &R,
    ) -> RouteFill {
        let orient = Orientation::compute(topo, cfg.root);
        let (dm, legal) = if scheme.uses_itbs() {
            (Some(DistanceMatrix::compute(topo)), None)
        } else {
            let routes = simple_routes(topo, &orient, &SimpleRoutesConfig::default());
            (None, Some(routes))
        };
        let n = map.written().num_switches();
        RouteFill {
            scheme,
            dm,
            writer: PairWriter {
                cfg: cfg.clone(),
                orient,
                legal,
                paths: PathSet::default(),
            },
            n,
            slot: vec![0; n * n],
            table: RouteDbBuilder::new(scheme, map.written()),
        }
    }

    /// The written pairs whose routes have been written, in pair order.
    pub fn filled(&self) -> impl Iterator<Item = (SwitchId, SwitchId)> + '_ {
        let n = self.n;
        let at = move |i: usize| (SwitchId((i / n) as u32), SwitchId((i % n) as u32));
        (0..self.slot.len()).filter(|&i| self.slot[i] != 0).map(at)
    }

    /// The alternatives of written pair `(s, d)`, written now if this is
    /// the first ask; none for a pair `map` leaves without routes.
    fn alternatives<R: Relabel>(
        &mut self,
        topo: &Topology,
        map: &R,
        s: SwitchId,
        d: SwitchId,
    ) -> Alternatives<'_> {
        let pair = s.idx() * self.n + d.idx();
        if self.slot[pair] == 0 {
            if let Some(built) = map.pair(s, d) {
                let mut dag = self
                    .dm
                    .as_ref()
                    .map(|dm| MinimalDag::new(topo, dm, built.1));
                let table = &mut self.table;
                self.writer
                    .write_pair(topo, map, table, built, dag.as_mut());
            }
            self.table.end_pair();
            self.slot[pair] = self.table.pairs() as u32;
        }
        self.table.pair(self.slot[pair] as usize - 1, s)
    }

    /// The header a packet from `src` to `dst` carries, as
    /// [`RouteDb::select_from`] writes it: the route the scheme's policy
    /// takes now from the pair's alternatives, written first if need be.
    /// `src` and `dst` are hosts of the written topology.
    pub fn select<R: Relabel>(
        &mut self,
        topo: &Topology,
        map: &R,
        src: HostId,
        dst: HostId,
        selector: &mut SrcSelector,
    ) -> Header {
        let (written, scheme) = (map.written(), self.scheme);
        let (s, d) = (written.host_switch(src), written.host_switch(dst));
        let alts = self.alternatives(topo, map, s, d);
        let route = alts.get(pick(scheme, src, dst, alts.len(), selector));
        route.header(written.host_port(dst))
    }

    /// The whole table, in one pass in pair order: every pair is written,
    /// each destination's [`MinimalDag`] built once for the pass. The
    /// pairs asked for before are written again, to the same bytes.
    pub fn complete<R: Relabel>(self, topo: &Topology, map: &R) -> RouteDb {
        let RouteFill {
            scheme,
            dm,
            mut writer,
            n,
            slot,
            table,
        } = self;
        // The pairs asked for so far are written again below, to the
        // same bytes: free their table before the new one is reserved.
        drop((slot, table));
        // Every written pair in table order, with the built pair it reads.
        let n = n as u32;
        let pairs = || (0..n).flat_map(|s| (0..n).map(move |d| map.pair(SwitchId(s), SwitchId(d))));
        let mut dags: Vec<MinimalDag> = dm
            .iter()
            .flat_map(|dm| topo.switches().map(move |d| MinimalDag::new(topo, dm, d)))
            .collect();
        // UP/DOWN: one single-segment route per pair. ITB: at most `k`
        // minimal routes of `links` hops per pair, each split at most
        // `links / 2` times (an in-transit buffer needs a down hop before
        // its up hop), a port byte per hop and per in-transit host and a
        // mark per cut. Only a pair with no usable minimal route (a
        // fallback) can exceed it.
        let k = writer.cfg.max_alternatives;
        let mut size = [0; 2];
        for (s, d) in pairs().flatten() {
            let [routes, bytes] = match &dm {
                None => {
                    let legal = writer.legal.as_ref().expect("UP/DOWN's routes");
                    [1, legal.get(s, d).len() - 1]
                }
                Some(dm) => {
                    let r = dags[d.idx()].count(s).min(k as u64) as usize;
                    let links = dm.get(s, d) as usize;
                    [r, r * (links + 2 * (links / 2))]
                }
            };
            size = [size[0] + routes, size[1] + bytes];
        }
        let mut table = RouteDbBuilder::new(scheme, map.written());
        table.reserve(size);
        for built in pairs() {
            if let Some(built) = built {
                // None for UP/DOWN, which has no DAGs.
                let dag = dags.get_mut(built.1.idx());
                writer.write_pair(topo, map, &mut table, built, dag);
            }
            table.end_pair();
        }
        table.finish()
    }
}

impl PairWriter {
    /// Append built pair `(s, d)`'s routes to `table`'s open pair. With
    /// `dag` (the DAG towards `d`), an ITB scheme's: up to
    /// `max_alternatives` minimal paths, each split, and the legal route
    /// if none splits. Without, UP/DOWN's one legal route.
    fn write_pair<R: Relabel>(
        &mut self,
        topo: &Topology,
        map: &R,
        table: &mut RouteDbBuilder,
        (s, d): (SwitchId, SwitchId),
        dag: Option<&mut MinimalDag<'_>>,
    ) {
        let (orient, picker) = (&self.orient, self.cfg.itb_picker);
        let mut add_route = |path: &[SwitchId]| {
            table.route(|span| split_into(topo, orient, path, picker, map, span))
        };
        if let Some(dag) = dag {
            // ITB-SP uses a single fixed path per pair, but we still
            // sample the same alternative set and hash-pick one so the
            // fixed choices are spread across the path space rather
            // than biased to low switch ids.
            let (k, seed) = (self.cfg.max_alternatives, self.cfg.seed);
            dag.k_paths(s, k, seed, &mut self.paths);
            let usable = self.paths.iter().filter(|p| add_route(p)).count();
            // The legal route is needed only when *every* minimal path of
            // a pair requires an in-transit buffer at a hostless switch
            // (possible on degraded or exotic topologies, never on the
            // paper's).
            if usable > 0 {
                return;
            }
        }
        let routes = self
            .legal
            .get_or_insert_with(|| simple_routes(topo, orient, &SimpleRoutesConfig::default()));
        let path = routes.get(s, d);
        // up*/down* routes never need an in-transit buffer, so they always
        // split — into exactly one segment.
        debug_assert!(
            first_violation(path, orient).is_none(),
            "{} must not need ITBs",
            SwitchPath::new(path.to_vec())
        );
        assert!(add_route(path), "{}", no_itb_host(path));
    }
}
