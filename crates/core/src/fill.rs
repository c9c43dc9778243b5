//! A route table written a pair at a time, in any order: a pair's routes
//! are written on the first ask, by the routine [`RouteDb::build_relabelled`]
//! writes every pair with. The mapper's rebuilds use it, so a re-map pays
//! for the pairs traffic asks for, not for all of them.
//!
//! [`RouteDb::build_relabelled`]: crate::RouteDb::build_relabelled

use regnet_routing::minimal::{MinimalDag, PathSet};
use regnet_routing::{simple_routes, PairPaths, SimpleRoutesConfig};
use regnet_topology::{DistanceMatrix, HostId, Orientation, SwitchId, Topology};

use crate::header::Header;
use crate::relabel::Relabel;
use crate::scheme::{pick, PairRouter, RouteDbConfig, RoutingScheme, SrcSelector};
use crate::table::{Alternatives, RouteDb, RouteDbBuilder};

/// A routing table whose pairs are written on first use. It holds what
/// every pair is made from — the orientation, the distance matrix (ITB
/// schemes) or the up\*/down\* routes (UP/DOWN, or an ITB scheme's legal
/// fallback once a pair needed it) — and the pairs written so far, in the
/// order they were asked for. No per-destination [`MinimalDag`] is kept
/// between pairs.
///
/// Each call takes the topology the routes are built on (`topo`) and the
/// [`Relabel`] they are written through (`map`); both must be the ones
/// given to [`new`](RouteFill::new). [`complete`](RouteFill::complete)
/// gives the [`RouteDb`] that [`RouteDb::build_relabelled`] would build,
/// byte for byte.
#[derive(Debug, Clone)]
pub struct RouteFill {
    scheme: RoutingScheme,
    cfg: RouteDbConfig,
    orient: Orientation,
    /// ITB schemes: what each pair's `MinimalDag` measures distance with.
    dm: Option<DistanceMatrix>,
    /// UP/DOWN's routes, from the start; an ITB scheme's, once a pair
    /// needed the legal fallback.
    legal: Option<PairPaths>,
    /// Scratch for the minimal paths of the pair being written.
    paths: PathSet,
    /// Switches of the written topology.
    n: usize,
    /// Written pair `s * n + d` → 1 + its position among the pairs
    /// written; 0 = not written yet.
    slot: Vec<u32>,
    /// The pairs written, in the order they were asked for.
    table: RouteDbBuilder,
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
            cfg: cfg.clone(),
            orient,
            dm,
            legal,
            paths: PathSet::default(),
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
                let router = PairRouter {
                    topo,
                    cfg: &self.cfg,
                    orient: &self.orient,
                    map,
                };
                let mut dag = self
                    .dm
                    .as_ref()
                    .map(|dm| MinimalDag::new(topo, dm, built.1));
                let minimal = dag.as_mut().map(|dag| (dag, &mut self.paths));
                router.write_pair(&mut self.table, built, minimal, &mut self.legal);
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

    /// The whole table: every pair not written yet is written, then all
    /// are laid out in pair order, as [`RouteDb::build_relabelled`] lays
    /// them out.
    pub fn complete<R: Relabel>(mut self, topo: &Topology, map: &R) -> RouteDb {
        let n = self.n;
        let ids = |i: usize| (SwitchId((i / n) as u32), SwitchId((i % n) as u32));
        for pair in 0..self.slot.len() {
            let (s, d) = ids(pair);
            self.alternatives(topo, map, s, d);
        }
        let mut out = RouteDbBuilder::new(self.scheme, map.written());
        out.reserve(self.table.size());
        for (pair, &slot) in self.slot.iter().enumerate() {
            for route in self.table.pair(slot as usize - 1, ids(pair).0) {
                out.ports(route.bytes().iter().copied());
                out.end_route();
            }
            out.end_pair();
        }
        out.finish()
    }
}
