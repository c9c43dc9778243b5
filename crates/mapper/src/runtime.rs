//! Runtime-callable reconfiguration: rebuild the routing tables for the
//! surviving component of a faulted network, written in **physical**
//! identifiers.
//!
//! [`discover`] renumbers the surviving network (as the real Myrinet mapper
//! does), which is the right model for static re-mapping — but a *running*
//! simulator keeps its physical switch/channel state and cannot renumber
//! mid-flight. [`rebuild_physical_routes`] bridges the two worlds: it runs
//! discovery and readies a table for the requested scheme on the
//! discovered topology (root = the seed's switch, exactly what the MCP's
//! re-mapping would elect), written straight in physical port bytes; no
//! table in discovered ids is made. A re-map does its per-network work
//! once — discovery, the orientation, the distance matrix (or UP/DOWN's
//! routes) and the table of live hops — and writes a switch pair's routes
//! the first time a packet asks for them ([`PhysicalRoutes::select`]),
//! by the routine [`RouteDb::build_relabelled`] writes every pair with;
//! [`PhysicalRoutes::db`] writes the rest and gives the whole table. A
//! pair's routes depend only on the pair, the orientation and the live
//! hops, so the order pairs are asked for changes no byte. Pairs that
//! ended up in different components simply have no route — the table is
//! *partial* (check [`PhysicalRoutes::has_route`]).

use std::cell::{OnceCell, RefCell};

use regnet_core::{
    Header, HopTable, Relabel, RouteDb, RouteDbConfig, RouteFill, RoutingScheme, SrcSelector,
};
use regnet_routing::{first_violation, SwitchPath};
use regnet_topology::{HostId, Orientation, Port, PortTarget, SwitchId, Topology};

use crate::discovery::{discover, DiscoveredNetwork, MapperError};
use crate::fault::FaultSet;

/// Routing tables rebuilt after a fault, expressed in physical ids, plus
/// everything needed to audit them.
///
/// A pair's routes are written on the first [`select`](Self::select)
/// that needs them, so a table holds the pairs traffic asked for; the
/// mutation is internal (a `RefCell`: one simulator, one thread).
/// [`db`](Self::db) completes it.
#[derive(Debug, Clone)]
pub struct PhysicalRoutes {
    /// Physical host id → still reachable from the seed's component.
    pub reachable_hosts: Vec<bool>,
    /// The discovery result the tables were built from (id maps included).
    pub discovered: DiscoveredNetwork,
    /// The pairs written so far; `None` once `table` holds them all.
    fill: RefCell<Option<Fill>>,
    /// The whole table, once [`db`](Self::db) was asked for it.
    table: OnceCell<RouteDb>,
}

/// A table being written pair by pair, and the live hops it is written
/// with.
#[derive(Debug, Clone)]
struct Fill {
    routes: RouteFill,
    live: HopTable,
}

impl PhysicalRoutes {
    /// Number of physical hosts that are no longer reachable.
    pub fn lost_hosts(&self) -> usize {
        self.reachable_hosts.iter().filter(|r| !**r).count()
    }

    /// Ordered host pairs (src ≠ dst) that can no longer communicate.
    pub fn unreachable_pairs(&self, physical: &Topology) -> u64 {
        let n = physical.num_hosts() as u64;
        let live = self.reachable_hosts.iter().filter(|r| **r).count() as u64;
        // Every pair involving a lost host, plus nothing else: within the
        // seed's component the rebuilt tables are complete.
        n * (n - 1) - live * (live - 1)
    }

    /// Does physical switch pair `(s, d)` have a route? Read off
    /// discovery, without writing the pair: both switches were mapped.
    pub fn has_route(&self, s: SwitchId, d: SwitchId) -> bool {
        let mapped = |x: SwitchId| self.discovered.switch_to_new[x.idx()].is_some();
        mapped(s) && mapped(d)
    }

    /// The header a packet from `src` to `dst` carries, as
    /// [`RouteDb::select_from`] draws it from the whole table; the pair's
    /// routes are written first if no packet asked for them yet.
    /// `physical` is the topology the routes were rebuilt for; the pair
    /// must [`has_route`](Self::has_route).
    pub fn select(
        &self,
        physical: &Topology,
        src: HostId,
        dst: HostId,
        selector: &mut SrcSelector,
    ) -> Header {
        if let Some(db) = self.table.get() {
            return db.select_from(physical, src, dst, selector);
        }
        let mut fill = self.fill.borrow_mut();
        let Fill { routes, live } = fill.as_mut().expect("a table or its fill");
        let map = ToPhysical::new(physical, &self.discovered, live);
        routes.select(&self.discovered.topo, &map, src, dst, selector)
    }

    /// The whole table in physical coordinates, every pair written.
    /// Partial: switch pairs separated by the faults have no
    /// alternatives. `physical` is the topology the routes were rebuilt
    /// for.
    pub fn db(&self, physical: &Topology) -> &RouteDb {
        self.table.get_or_init(|| {
            let Fill { routes, live } = self.fill.take().expect("a table or its fill");
            let map = ToPhysical::new(physical, &self.discovered, &live);
            routes.complete(&self.discovered.topo, &map)
        })
    }

    /// The physical switch pairs whose routes have been written so far,
    /// in pair order: every pair once [`db`](Self::db) was asked for.
    pub fn filled_pairs(&self) -> Vec<(SwitchId, SwitchId)> {
        match &*self.fill.borrow() {
            Some(fill) => fill.routes.filled().collect(),
            None => {
                let n = self.discovered.switch_to_new.len() as u32;
                let ids = (0..n).flat_map(|s| (0..n).map(move |d| (SwitchId(s), SwitchId(d))));
                ids.collect()
            }
        }
    }

    /// Audit the rebuilt tables: every route must traverse only live links
    /// and switches still in the map, with live, reachable in-transit
    /// hosts, and each segment, mapped back through
    /// `discovered.switch_to_new`, must be up\*/down\*-legal on the
    /// discovered topology (the scheme's deadlock-freedom invariant). It
    /// checks the whole physical table ([`db`](Self::db)), nothing else.
    /// Cheap enough to run after every reconfiguration in tests.
    pub fn verify(&self, physical: &Topology, faults: &FaultSet) -> Result<(), String> {
        // The up*/down* tree lives in discovered coordinates; its root is
        // the seed's switch = discovered switch 0.
        let d = &self.discovered;
        let orient = Orientation::compute(&d.topo, SwitchId(0));
        let link_alive: Vec<bool> = physical
            .links()
            .iter()
            .map(|l| faults.is_link_alive(physical, l.id))
            .collect();
        // One walk per route, read a segment at a time: its physical
        // switches, the first dead link it crosses and the in-transit host
        // its last byte reaches, then the switches' ids.
        let (mut walked, mut mapped) = (Vec::new(), Vec::new());
        for (ps, pd, alts) in self.db(physical).iter_pairs() {
            for t in alts {
                let (mut hops, mut at, itbs) = (t.walk(physical), ps, t.num_itbs());
                for (si, seg) in t.segments().enumerate() {
                    let (mut dead, mut itb) = (None, None);
                    walked.clear();
                    walked.push(at);
                    for hop in hops.by_ref().take(seg.len()) {
                        match hop.to {
                            PortTarget::Switch { to, link, .. } => {
                                let i = walked.len() - 1;
                                dead = dead.or((!link_alive[link.idx()]).then_some((i, hop.to)));
                                walked.push(to);
                                at = to;
                            }
                            PortTarget::Host { host, .. } => itb = Some(host),
                        }
                    }
                    // The delivering segment's last byte is not stored.
                    if seg.len() != walked.len() - usize::from(si == itbs) {
                        return Err(format!("{ps}->{pd}: segment {si} port count"));
                    }
                    mapped.clear();
                    for &s in &walked {
                        let lost = || format!("{ps}->{pd}: segment {si} visits lost switch {s}");
                        mapped.push(d.switch_to_new[s.idx()].ok_or_else(lost)?);
                    }
                    // Whether the walked hops are live is this audit's to check.
                    if let Some((i, hop)) = dead {
                        return Err(format!(
                            "{ps}->{pd}: segment {si} hop {i} does not cross a live link to {}: \
                             {hop:?}",
                            walked[i + 1]
                        ));
                    }
                    if first_violation(&mapped, &orient).is_some() {
                        let path = SwitchPath::new(walked.clone());
                        return Err(format!("{ps}->{pd}: illegal segment: {path}"));
                    }
                    match itb {
                        None if walked.last() != Some(&pd) => {
                            return Err(format!("{ps}->{pd}: route ends elsewhere"));
                        }
                        None => {}
                        Some(h) => {
                            if !faults.is_host_alive(physical, h) {
                                return Err(format!("{ps}->{pd}: dead in-transit host {h}"));
                            }
                            if !self.reachable_hosts[h.idx()] {
                                return Err(format!("{ps}->{pd}: unreachable in-transit host {h}"));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Re-map the network after `faults` and ready `scheme`'s routing tables
/// in **physical** coordinates (see the module docs): the per-network
/// work is done here, each pair's routes on first use. `cfg.root` is
/// ignored: the up\*/down\* root is the seed's switch, as a real
/// re-mapping from that vantage point would elect.
pub fn rebuild_physical_routes(
    physical: &Topology,
    faults: &FaultSet,
    seed: HostId,
    scheme: RoutingScheme,
    cfg: &RouteDbConfig,
) -> Result<PhysicalRoutes, MapperError> {
    let discovered = discover(physical, faults, seed)?;
    let mut db_cfg = cfg.clone();
    db_cfg.root = SwitchId(0);
    let live = HopTable::new(physical, |l| faults.is_link_alive(physical, l));
    let map = ToPhysical::new(physical, &discovered, &live);
    let routes = RouteFill::new(&discovered.topo, scheme, &db_cfg, &map);
    let reachable_hosts: Vec<bool> = discovered.host_to_new.iter().map(|h| h.is_some()).collect();
    Ok(PhysicalRoutes {
        reachable_hosts,
        discovered,
        fill: RefCell::new(Some(Fill { routes, live })),
        table: OnceCell::new(),
    })
}

/// The relabelling a rebuild writes through: routes built on the
/// discovered network, written for physical pairs in physical ids.
struct ToPhysical<'a> {
    physical: &'a Topology,
    d: &'a DiscoveredNetwork,
    /// The physical topology's live links. A hop leaves by the first port
    /// of `from`'s physical switch that reaches `to`'s (a dead parallel
    /// sibling is skipped; live parallel links are not spread over).
    live: &'a HopTable,
}

impl<'a> ToPhysical<'a> {
    fn new(physical: &'a Topology, d: &'a DiscoveredNetwork, live: &'a HopTable) -> Self {
        ToPhysical { physical, d, live }
    }
}

impl Relabel for ToPhysical<'_> {
    fn written(&self) -> &Topology {
        self.physical
    }
    fn pair(&self, s: SwitchId, d: SwitchId) -> Option<(SwitchId, SwitchId)> {
        Some((
            self.d.switch_to_new[s.idx()]?,
            self.d.switch_to_new[d.idx()]?,
        ))
    }
    fn hop(&self, from: SwitchId, to: SwitchId, _spread: usize) -> Port {
        let physical = |s: SwitchId| self.d.switch_from_new[s.idx()];
        self.live.hop(physical(from), physical(to), 0)
    }
    fn itb(&self, h: HostId) -> Port {
        self.physical.host_port(self.d.host_from_new[h.idx()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use regnet_core::{Hop, ITB_MARK};
    use regnet_topology::{gen, LinkId};

    /// The rebuild as it was before tables were written straight in
    /// physical ids: build a whole table on the discovered topology, then
    /// copy it route by route through the id maps, each hop taking the
    /// lowest live physical port. The oracle of the direct build.
    fn reference_rebuild(
        physical: &Topology,
        faults: &FaultSet,
        seed: HostId,
        scheme: RoutingScheme,
        cfg: &RouteDbConfig,
    ) -> Result<Vec<Vec<Vec<Port>>>, MapperError> {
        let d = discover(physical, faults, seed)?;
        let mut db_cfg = cfg.clone();
        db_cfg.root = SwitchId(0);
        let mapped_db = RouteDb::build(&d.topo, scheme, &db_cfg);
        let n = physical.num_switches();
        let mut live_port: Vec<Option<Port>> = vec![None; n * n];
        for from in physical.switches() {
            for (port, to, link) in physical.switch_neighbors(from) {
                let slot = &mut live_port[from.idx() * n + to.idx()];
                if slot.is_none() && faults.is_link_alive(physical, link) {
                    *slot = Some(port);
                }
            }
        }
        // A hop's physical port, or an in-transit host's and its mark.
        let translate = |hop: Hop| match hop.to {
            PortTarget::Switch { to, .. } => {
                let [from, to] = [hop.at, to].map(|s| d.switch_from_new[s.idx()]);
                vec![live_port[from.idx() * n + to.idx()].unwrap()]
            }
            PortTarget::Host { host, .. } => {
                vec![physical.host_port(d.host_from_new[host.idx()]), ITB_MARK]
            }
        };
        let mut tables = Vec::with_capacity(n * n);
        for ps in physical.switches() {
            for pd in physical.switches() {
                let alts = match (d.switch_to_new[ps.idx()], d.switch_to_new[pd.idx()]) {
                    (Some(ns), Some(nd)) => mapped_db
                        .alternatives(ns, nd)
                        .iter()
                        .map(|r| r.walk(&d.topo).flat_map(translate).collect())
                        .collect(),
                    _ => Vec::new(),
                };
                tables.push(alts);
            }
        }
        Ok(tables)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The direct physical build equals build-then-translate, on
        /// multigraphs (parallel links, hostless switches) under random
        /// link, switch and host faults, and passes `verify`. Before the
        /// table is completed, the host pairs of `asks` (repeats among
        /// them) select their routes in random order, writing their
        /// switch pairs first: the completed table is the same, and so is
        /// every header, drawn again from it with a fresh selector.
        /// `has_route`, answered from discovery, agrees with the
        /// completed table on every pair, partitioned networks included.
        #[test]
        fn direct_build_equals_build_then_translate(
            n in 4usize..14,
            extra in 0usize..14,
            tseed in 0u64..1000,
            dead_links in proptest::collection::vec(any::<u32>(), 0..4),
            dead_switches in proptest::collection::vec(any::<u32>(), 0..2),
            (dead_hosts, asks) in (
                proptest::collection::vec(any::<u32>(), 0..3),
                proptest::collection::vec(any::<u32>(), 0..40),
            ),
        ) {
            let physical = gen::irregular_multigraph(n, extra, tseed).unwrap();
            let mut faults = FaultSet::new();
            for l in dead_links {
                faults.kill_link(LinkId(l % physical.num_links() as u32));
            }
            for s in dead_switches {
                faults.kill_switch(SwitchId(s % n as u32));
            }
            for h in dead_hosts {
                faults.kill_host(HostId(h % physical.num_hosts() as u32));
            }
            let Some(seed) = physical.hosts().find(|&h| faults.is_host_alive(&physical, h)) else {
                return Ok(());
            };
            let cfg = RouteDbConfig::default();
            for scheme in RoutingScheme::all() {
                let want = reference_rebuild(&physical, &faults, seed, scheme, &cfg);
                match rebuild_physical_routes(&physical, &faults, seed, scheme, &cfg) {
                    Ok(pr) => {
                        let hosts = physical.num_hosts() as u32;
                        let switch = |h: u32| physical.host_switch(HostId(h));
                        let asked: Vec<(HostId, HostId)> = asks
                            .iter()
                            .map(|&a| (a % hosts, a / hosts % hosts))
                            .filter(|&(s, d)| pr.has_route(switch(s), switch(d)))
                            .map(|(s, d)| (HostId(s), HostId(d)))
                            .collect();
                        let mut sel = pr.clone().db(&physical).selector();
                        let headers: Vec<Header> = asked
                            .iter()
                            .map(|&(s, d)| pr.select(&physical, s, d, sel.src_mut(s)))
                            .collect();
                        let mut written: Vec<_> = asked.iter().map(|&(s, d)| (switch(s.0), switch(d.0))).collect();
                        written.sort_unstable();
                        written.dedup();
                        prop_assert_eq!(pr.filled_pairs(), written, "{}", scheme);
                        let db = pr.db(&physical);
                        prop_assert_eq!(Ok(db.to_templates()), want, "{}", scheme);
                        let mut again = db.selector();
                        for (&(s, d), header) in asked.iter().zip(&headers) {
                            prop_assert_eq!(&db.select(&physical, s, d, &mut again), header);
                        }
                        for (s, d, _) in db.iter_pairs() {
                            prop_assert_eq!(pr.has_route(s, d), db.has_route(s, d), "{}->{}", s, d);
                        }
                        prop_assert_eq!(pr.verify(&physical, &faults), Ok(()), "{}", scheme);
                    }
                    Err(e) => prop_assert_eq!(Err(e), want.map(|_| ()), "{}", scheme),
                }
            }
        }
    }

    /// `pr` with its table replaced by `templates`.
    fn with_table(
        pr: &PhysicalRoutes,
        physical: &Topology,
        templates: Vec<Vec<Vec<Port>>>,
    ) -> PhysicalRoutes {
        let db = RouteDb::from_templates(pr.db(physical).scheme(), physical, templates);
        PhysicalRoutes {
            reachable_hosts: pr.reachable_hosts.clone(),
            discovered: pr.discovered.clone(),
            fill: RefCell::new(None),
            table: OnceCell::from(db),
        }
    }

    #[test]
    fn verify_rejects_an_illegal_segment() {
        // Glue an ITB route's segments into one: every hop stays live, but
        // the segment now takes the down -> up turn the ITB was there for.
        let physical = gen::torus_2d(4, 4, 2).unwrap();
        let faults = FaultSet::new();
        let cfg = RouteDbConfig::default();
        let pr = rebuild_physical_routes(&physical, &faults, HostId(0), RoutingScheme::ItbRr, &cfg)
            .unwrap();
        let mut templates = pr.db(&physical).to_templates();
        let n = physical.num_switches();
        let one_itb = |t: &Vec<Port>| t.iter().filter(|&&p| p == ITB_MARK).count() == 1;
        let victim = templates
            .iter()
            .position(|alts| alts.iter().any(one_itb))
            .expect("the torus needs ITBs");
        let route = templates[victim].iter_mut().find(|t| one_itb(t)).unwrap();
        // Drop the in-transit host's byte and the mark after it.
        let mark = route.iter().position(|&p| p == ITB_MARK).unwrap();
        route.drain(mark - 1..=mark);
        let bad = with_table(&pr, &physical, templates);
        let (s, d) = (victim / n, victim % n);
        let err = bad.verify(&physical, &faults).unwrap_err();
        assert!(
            err.starts_with(&format!("s{s}->s{d}: illegal segment")),
            "{err}"
        );
    }

    /// The first route of `pr`'s table, in pair order, that ejects into
    /// an in-transit host: its pair's index, its alternative and the host.
    fn first_itb(pr: &PhysicalRoutes, physical: &Topology) -> (usize, usize, HostId) {
        let mut routes =
            pr.db(physical)
                .iter_pairs()
                .enumerate()
                .flat_map(|(pair, (_, _, alts))| {
                    alts.iter()
                        .enumerate()
                        .map(move |(alt, route)| (pair, alt, route))
                });
        routes
            .find_map(|(pair, alt, route)| {
                route.walk(physical).find_map(|hop| match hop.to {
                    PortTarget::Host { host, .. } => Some((pair, alt, host)),
                    PortTarget::Switch { .. } => None,
                })
            })
            .expect("the torus needs ITBs")
    }

    #[test]
    fn verify_rejects_a_dead_in_transit_host() {
        // The first route through an in-transit host, its host byte
        // pointed at the switch's other host, which the fault set kills.
        // No earlier route ejects anywhere, so its pair is the one named.
        let physical = gen::torus_2d(4, 4, 2).unwrap();
        let cfg = RouteDbConfig::default();
        let pr = rebuild_physical_routes(
            &physical,
            &FaultSet::new(),
            HostId(0),
            RoutingScheme::ItbRr,
            &cfg,
        )
        .unwrap();
        let (pair, alt, itb) = first_itb(&pr, &physical);
        let hosts = physical.hosts_of(physical.host_switch(itb));
        let other = *hosts.iter().find(|&&h| h != itb).unwrap();
        let mut templates = pr.db(&physical).to_templates();
        let route = &mut templates[pair][alt];
        let mark = route.iter().position(|&p| p == ITB_MARK).unwrap();
        assert_eq!(route[mark - 1], physical.host_port(itb));
        route[mark - 1] = physical.host_port(other);
        let faults = FaultSet::host(other);
        let err = with_table(&pr, &physical, templates)
            .verify(&physical, &faults)
            .unwrap_err();
        let n = physical.num_switches();
        let (s, d) = (pair / n, pair % n);
        assert_eq!(err, format!("s{s}->s{d}: dead in-transit host {other}"));
    }

    #[test]
    fn verify_rejects_an_unreachable_in_transit_host() {
        // The fault-free table checked as if the first in-transit host it
        // ejects into had been left out of the map.
        let physical = gen::torus_2d(4, 4, 2).unwrap();
        let cfg = RouteDbConfig::default();
        let faults = FaultSet::new();
        let pr = rebuild_physical_routes(&physical, &faults, HostId(0), RoutingScheme::ItbRr, &cfg)
            .unwrap();
        let (pair, _, itb) = first_itb(&pr, &physical);
        let mut reachable_hosts = pr.reachable_hosts.clone();
        reachable_hosts[itb.idx()] = false;
        let bad = PhysicalRoutes {
            reachable_hosts,
            ..pr
        };
        let n = physical.num_switches();
        let (s, d) = (pair / n, pair % n);
        assert_eq!(
            bad.verify(&physical, &faults),
            Err(format!("s{s}->s{d}: unreachable in-transit host {itb}"))
        );
    }

    #[test]
    fn verify_rejects_a_hop_over_a_dead_link() {
        // The fault-free table checked against a fault set with one link
        // dead: the direct route between its ends now crosses it.
        let physical = gen::torus_2d(4, 4, 2).unwrap();
        let cfg = RouteDbConfig::default();
        let l = physical
            .links()
            .iter()
            .find(|l| l.is_switch_link())
            .unwrap()
            .id;
        let (a, b) = physical.link(l).switch_ends().unwrap();
        let faults = FaultSet::link(l);
        let healthy = rebuild_physical_routes(
            &physical,
            &FaultSet::new(),
            HostId(0),
            RoutingScheme::UpDown,
            &cfg,
        )
        .unwrap();
        let pr =
            rebuild_physical_routes(&physical, &faults, HostId(0), RoutingScheme::UpDown, &cfg)
                .unwrap();
        // Only pair (a, b) gets the old route; the rest are the rebuilt ones.
        let mut templates = pr.db(&physical).to_templates();
        let n = physical.num_switches();
        let old = healthy.db(&physical).alternatives(a, b);
        let hops: Vec<Hop> = old.get(0).walk(&physical).collect();
        assert!(
            matches!(hops[..], [Hop { at, to: PortTarget::Switch { to, .. }, .. }] if at == a && to == b)
        );
        templates[a.idx() * n + b.idx()] = old.to_owned();
        let err = with_table(&pr, &physical, templates)
            .verify(&physical, &faults)
            .unwrap_err();
        assert!(
            err.starts_with(&format!(
                "{a}->{b}: segment 0 hop 0 does not cross a live link"
            )),
            "{err}"
        );
    }

    #[test]
    fn verify_rejects_a_route_through_a_lost_switch() {
        // The fault-free table checked against the map of a network that
        // lost a switch: the first pair whose routes visit it is named.
        let physical = gen::torus_2d(4, 4, 2).unwrap();
        let cfg = RouteDbConfig::default();
        let lost = SwitchId(5);
        let faults = FaultSet::switch(lost);
        let healthy = rebuild_physical_routes(
            &physical,
            &FaultSet::new(),
            HostId(0),
            RoutingScheme::ItbRr,
            &cfg,
        )
        .unwrap();
        let pr = rebuild_physical_routes(&physical, &faults, HostId(0), RoutingScheme::ItbRr, &cfg)
            .unwrap();
        let bad = with_table(&pr, &physical, healthy.db(&physical).to_templates());
        let (s, d, _) = healthy
            .db(&physical)
            .iter_pairs()
            .find(|(_, _, alts)| {
                alts.iter().any(|r| {
                    r.walk(&physical).any(|hop| {
                        hop.at == lost
                            || matches!(hop.to, PortTarget::Switch { to, .. } if to == lost)
                    })
                })
            })
            .unwrap();
        let err = bad.verify(&physical, &faults).unwrap_err();
        assert!(err.starts_with(&format!("{s}->{d}: segment ")), "{err}");
        assert!(
            err.ends_with(&format!("visits lost switch {lost}")),
            "{err}"
        );
    }

    #[test]
    fn fault_free_rebuild_covers_every_pair() {
        let physical = gen::torus_2d(4, 4, 2).unwrap();
        for scheme in RoutingScheme::all() {
            let pr = rebuild_physical_routes(
                &physical,
                &FaultSet::new(),
                HostId(0),
                scheme,
                &RouteDbConfig::default(),
            )
            .unwrap();
            for s in physical.switches() {
                for d in physical.switches() {
                    assert!(pr.has_route(s, d), "{scheme} {s}->{d}");
                }
            }
            assert!(pr.reachable_hosts.iter().all(|&r| r));
            assert_eq!(pr.unreachable_pairs(&physical), 0);
            pr.verify(&physical, &FaultSet::new()).unwrap();
        }
    }

    #[test]
    fn dead_link_rebuild_avoids_the_link_and_verifies() {
        let physical = gen::torus_2d(4, 4, 2).unwrap();
        let l = physical
            .links()
            .iter()
            .find(|l| l.is_switch_link())
            .unwrap()
            .id;
        let faults = FaultSet::link(l);
        for scheme in RoutingScheme::all() {
            let pr = rebuild_physical_routes(
                &physical,
                &faults,
                HostId(0),
                scheme,
                &RouteDbConfig::default(),
            )
            .unwrap();
            pr.verify(&physical, &faults).unwrap();
            assert_eq!(pr.lost_hosts(), 0);
            // No route may cross the dead link (a parallel live one may).
            for (_, _, alts) in pr.db(&physical).iter_pairs() {
                for t in alts {
                    for hop in t.walk(&physical) {
                        if let PortTarget::Switch { link, .. } = hop.to {
                            assert_ne!(link, l, "route crosses the dead link");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn translated_routes_write_headers_that_walk_through_live_hosts() {
        let physical = gen::torus_2d(4, 4, 2).unwrap();
        let faults = FaultSet::switch(SwitchId(5));
        let pr = rebuild_physical_routes(
            &physical,
            &faults,
            HostId(0),
            RoutingScheme::ItbRr,
            &RouteDbConfig::default(),
        )
        .unwrap();
        pr.verify(&physical, &faults).unwrap();
        let (mut sel, mut in_transit) = (pr.db(&physical).selector(), 0);
        for src in physical.hosts() {
            for dst in physical.hosts() {
                if src == dst || !pr.reachable_hosts[src.idx()] || !pr.reachable_hosts[dst.idx()] {
                    continue;
                }
                let header = pr.select(&physical, src, dst, sel.src_mut(src));
                let hosts = header.walk(&physical, src).unwrap();
                assert_eq!(hosts.last(), Some(&dst), "{src}->{dst}");
                for &h in &hosts[..hosts.len() - 1] {
                    in_transit += 1;
                    assert!(
                        faults.is_host_alive(&physical, h) && pr.reachable_hosts[h.idx()],
                        "{src}->{dst}: in-transit host {h} is dead or unreachable"
                    );
                }
            }
        }
        assert!(in_transit > 0, "no header went through an in-transit host");
        assert_eq!(pr.lost_hosts(), 2);
        assert!(pr.unreachable_pairs(&physical) > 0);
    }

    #[test]
    fn renumbered_root_follows_the_seed() {
        let physical = gen::torus_2d(4, 4, 2).unwrap();
        // Manage from a host on physical switch 10: the rebuilt up*/down*
        // tree is rooted there (discovered switch 0 = physical switch 10).
        let seed = physical.hosts_of(SwitchId(10))[0];
        let pr = rebuild_physical_routes(
            &physical,
            &FaultSet::new(),
            seed,
            RoutingScheme::UpDown,
            &RouteDbConfig::default(),
        )
        .unwrap();
        assert_eq!(pr.discovered.switch_from_new[0], SwitchId(10));
        pr.verify(&physical, &FaultSet::new()).unwrap();
    }

    #[test]
    fn parallel_link_fault_uses_the_sibling() {
        // 2-ary torus rows create parallel links; killing one of a parallel
        // pair must re-route over its sibling, not around the ring.
        let physical = gen::torus_2d(2, 2, 1).unwrap();
        let (mut para, mut seen) = (None, std::collections::HashMap::new());
        for link in physical.links() {
            if let Some((a, b)) = link.switch_ends() {
                let key = if a < b { (a, b) } else { (b, a) };
                if let Some(&first) = seen.get(&key) {
                    para = Some((first, link.id));
                    break;
                }
                seen.insert(key, link.id);
            }
        }
        let (dead, _alive): (LinkId, LinkId) = para.expect("2-ary torus has parallel links");
        let faults = FaultSet::link(dead);
        let pr = rebuild_physical_routes(
            &physical,
            &faults,
            HostId(0),
            RoutingScheme::UpDown,
            &RouteDbConfig::default(),
        )
        .unwrap();
        pr.verify(&physical, &faults).unwrap();
        assert_eq!(pr.lost_hosts(), 0);
    }
}
