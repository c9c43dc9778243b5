//! Runtime-callable reconfiguration: rebuild the routing tables for the
//! surviving component of a faulted network, written in **physical**
//! identifiers.
//!
//! [`discover`] renumbers the surviving network (as the real Myrinet mapper
//! does), which is the right model for static re-mapping — but a *running*
//! simulator keeps its physical switch/channel state and cannot renumber
//! mid-flight. [`rebuild_physical_routes`] bridges the two worlds: it runs
//! discovery and builds a fresh [`RouteDb`] for the requested scheme on the
//! discovered topology (root = the seed's switch, exactly what the MCP's
//! re-mapping would elect), writing every route straight in physical switch
//! ids, physical port bytes and physical in-transit host ids
//! ([`RouteDb::build_relabelled`]); no table in discovered ids is made.
//! Pairs that ended up in different components simply have no route — the
//! resulting table is *partial* (check [`RouteDb::has_route`]).

use regnet_core::{Relabel, RouteDb, RouteDbConfig, RoutingScheme, SegmentEnd};
use regnet_routing::{first_violation, SwitchPath};
use regnet_topology::{HostId, Orientation, Port, PortTarget, SwitchId, Topology};

use crate::discovery::{discover, DiscoveredNetwork, MapperError};
use crate::fault::FaultSet;

/// Routing tables rebuilt after a fault, expressed in physical ids, plus
/// everything needed to audit them.
#[derive(Debug, Clone)]
pub struct PhysicalRoutes {
    /// The rebuilt tables in **physical** coordinates. Partial: switch
    /// pairs separated by the faults have no alternatives; check
    /// [`RouteDb::has_route`] before selecting.
    pub db: RouteDb,
    /// Physical host id → still reachable from the seed's component.
    pub reachable_hosts: Vec<bool>,
    /// The discovery result the tables were built from (id maps included).
    pub discovered: DiscoveredNetwork,
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

    /// Audit the rebuilt tables: every route must traverse only live links
    /// and switches still in the map, with live, reachable in-transit
    /// hosts, and each segment, mapped back through
    /// `discovered.switch_to_new`, must be up\*/down\*-legal on the
    /// discovered topology (the scheme's deadlock-freedom invariant). It
    /// checks the physical table in use, nothing else. Cheap enough to run
    /// after every reconfiguration in tests.
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
        let mut mapped: Vec<SwitchId> = Vec::new();
        for (ps, pd, alts) in self.db.iter_pairs() {
            for t in alts {
                let mut entry_switch = Some(ps);
                for (si, seg) in t.segments().enumerate() {
                    let is_final = si == t.num_segments() - 1;
                    let expect_ports = seg.switches.len() - usize::from(is_final);
                    if seg.ports.len() != expect_ports {
                        return Err(format!("{ps}->{pd}: segment {si} port count"));
                    }
                    if seg.switches.first() != entry_switch.as_ref() {
                        return Err(format!("{ps}->{pd}: segment {si} entry switch"));
                    }
                    mapped.clear();
                    for &s in seg.switches {
                        let Some(ns) = d.switch_to_new[s.idx()] else {
                            return Err(format!("{ps}->{pd}: segment {si} visits lost switch {s}"));
                        };
                        mapped.push(ns);
                    }
                    for i in 0..seg.switches.len() - 1 {
                        match physical.port_target(seg.switches[i], seg.ports[i]) {
                            Some(PortTarget::Switch { to, link, .. })
                                if to == seg.switches[i + 1] && link_alive[link.idx()] => {}
                            other => {
                                return Err(format!(
                                    "{ps}->{pd}: segment {si} hop {i} does not cross a live \
                                     link to {}: {other:?}",
                                    seg.switches[i + 1]
                                ));
                            }
                        }
                    }
                    if first_violation(&mapped, &orient).is_some() {
                        let path = SwitchPath::new(seg.switches.to_vec());
                        return Err(format!("{ps}->{pd}: illegal segment: {path}"));
                    }
                    match seg.end {
                        SegmentEnd::Deliver if seg.switches.last() != Some(&pd) => {
                            return Err(format!("{ps}->{pd}: route ends elsewhere"));
                        }
                        SegmentEnd::Deliver => {}
                        SegmentEnd::Itb(h) => {
                            if !faults.is_host_alive(physical, h) {
                                return Err(format!("{ps}->{pd}: dead in-transit host {h}"));
                            }
                            if !self.reachable_hosts[h.idx()] {
                                return Err(format!("{ps}->{pd}: unreachable in-transit host {h}"));
                            }
                            if seg.ports.last() != Some(&physical.host_port(h)) {
                                return Err(format!("{ps}->{pd}: wrong port for ITB host {h}"));
                            }
                            entry_switch = Some(physical.host_switch(h));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Re-map the network after `faults` and rebuild `scheme`'s routing tables
/// in **physical** coordinates (see the module docs). `cfg.root` is
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
    let map = ToPhysical::new(physical, faults, &discovered);
    let db = RouteDb::build_relabelled(&discovered.topo, scheme, &db_cfg, &map);
    let reachable_hosts: Vec<bool> = discovered.host_to_new.iter().map(|h| h.is_some()).collect();
    Ok(PhysicalRoutes {
        db,
        reachable_hosts,
        discovered,
    })
}

/// The relabelling a rebuild writes through: routes built on the
/// discovered network, written for physical pairs in physical ids.
struct ToPhysical<'a> {
    physical: &'a Topology,
    d: &'a DiscoveredNetwork,
    /// Discovered `(from, to)` → the port every hop between them leaves
    /// by: the lowest-numbered port of `from`'s physical switch that
    /// reaches `to`'s over a live link (a dead parallel sibling is
    /// skipped; live parallel links are not spread over).
    hop: Vec<Option<Port>>,
}

impl<'a> ToPhysical<'a> {
    fn new(physical: &'a Topology, faults: &FaultSet, d: &'a DiscoveredNetwork) -> Self {
        let n = d.switch_from_new.len();
        let mut hop = vec![None; n * n];
        for (from, &pfrom) in d.switch_from_new.iter().enumerate() {
            for (port, pto, link) in physical.switch_neighbors(pfrom) {
                if let Some(to) = d.switch_to_new[pto.idx()] {
                    let slot = &mut hop[from * n + to.idx()];
                    if slot.is_none() && faults.is_link_alive(physical, link) {
                        *slot = Some(port);
                    }
                }
            }
        }
        ToPhysical { physical, d, hop }
    }
}

impl Relabel for ToPhysical<'_> {
    fn num_switches(&self) -> usize {
        self.physical.num_switches()
    }
    fn num_hosts(&self) -> usize {
        self.physical.num_hosts()
    }
    fn pair(&self, s: SwitchId, d: SwitchId) -> Option<(SwitchId, SwitchId)> {
        Some((
            self.d.switch_to_new[s.idx()]?,
            self.d.switch_to_new[d.idx()]?,
        ))
    }
    fn switch(&self, s: SwitchId) -> SwitchId {
        self.d.switch_from_new[s.idx()]
    }
    fn hop(&self, from: SwitchId, to: SwitchId, _spread: usize) -> Port {
        self.hop[from.idx() * self.d.switch_from_new.len() + to.idx()]
            .expect("discovered link lost its physical counterpart")
    }
    fn itb(&self, h: HostId) -> (HostId, Port) {
        let ph = self.d.host_from_new[h.idx()];
        (ph, self.physical.host_port(ph))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use regnet_core::{JourneyTemplate, Segment};
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
    ) -> Result<Vec<Vec<JourneyTemplate>>, MapperError> {
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
        let translate = |seg: regnet_core::SegmentRef<'_>| {
            let switches: Vec<SwitchId> = seg
                .switches
                .iter()
                .map(|s| d.switch_from_new[s.idx()])
                .collect();
            let mut ports: Vec<Port> = switches
                .windows(2)
                .map(|w| live_port[w[0].idx() * n + w[1].idx()].unwrap())
                .collect();
            let end = match seg.end {
                SegmentEnd::Deliver => SegmentEnd::Deliver,
                SegmentEnd::Itb(h) => {
                    let ph = d.host_from_new[h.idx()];
                    ports.push(physical.host_port(ph));
                    SegmentEnd::Itb(ph)
                }
            };
            Segment {
                switches,
                ports,
                end,
            }
        };
        let mut tables = Vec::with_capacity(n * n);
        for ps in physical.switches() {
            for pd in physical.switches() {
                let alts = match (d.switch_to_new[ps.idx()], d.switch_to_new[pd.idx()]) {
                    (Some(ns), Some(nd)) => mapped_db
                        .alternatives(ns, nd)
                        .iter()
                        .map(|r| JourneyTemplate {
                            segments: r.segments().map(translate).collect(),
                        })
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
        /// link, switch and host faults, and passes `verify`.
        #[test]
        fn direct_build_equals_build_then_translate(
            n in 4usize..14,
            extra in 0usize..14,
            tseed in 0u64..1000,
            dead_links in proptest::collection::vec(any::<u32>(), 0..4),
            dead_switches in proptest::collection::vec(any::<u32>(), 0..2),
            dead_hosts in proptest::collection::vec(any::<u32>(), 0..3),
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
                        prop_assert_eq!(Ok(pr.db.to_templates()), want, "{}", scheme);
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
        templates: Vec<Vec<JourneyTemplate>>,
    ) -> PhysicalRoutes {
        let (n, hosts) = (physical.num_switches(), physical.num_hosts());
        let db = RouteDb::from_templates(pr.db.scheme(), n, hosts, templates);
        PhysicalRoutes { db, ..pr.clone() }
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
        let mut templates = pr.db.to_templates();
        let n = physical.num_switches();
        let victim = templates
            .iter()
            .position(|alts| alts.iter().any(|t| t.num_itbs() == 1))
            .expect("the torus needs ITBs");
        let route = templates[victim]
            .iter_mut()
            .find(|t| t.num_itbs() == 1)
            .unwrap();
        let second = route.segments.pop().unwrap();
        let first = &mut route.segments[0];
        first.ports.pop();
        first.ports.extend(&second.ports);
        first.switches.extend(&second.switches[1..]);
        first.end = SegmentEnd::Deliver;
        let bad = with_table(&pr, &physical, templates);
        let (s, d) = (victim / n, victim % n);
        let err = bad.verify(&physical, &faults).unwrap_err();
        assert!(
            err.starts_with(&format!("s{s}->s{d}: illegal segment")),
            "{err}"
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
        let mut templates = pr.db.to_templates();
        let n = physical.num_switches();
        templates[a.idx() * n + b.idx()] = healthy.db.alternatives(a, b).to_owned();
        assert_eq!(
            templates[a.idx() * n + b.idx()][0].segments[0].switches,
            [a, b]
        );
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
        let bad = PhysicalRoutes {
            db: healthy.db.clone(),
            ..pr
        };
        let (s, d, _) = healthy
            .db
            .iter_pairs()
            .find(|(_, _, alts)| {
                alts.iter()
                    .any(|r| r.segments().any(|seg| seg.switches.contains(&lost)))
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
                    assert!(pr.db.has_route(s, d), "{scheme} {s}->{d}");
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
            // No route template may cross the dead link.
            let (a, b) = physical.link(l).switch_ends().unwrap();
            for (_, _, alts) in pr.db.iter_pairs() {
                for t in alts {
                    for seg in t.segments() {
                        for (i, w) in seg.switches.windows(2).enumerate() {
                            if w == [a, b] || w == [b, a] {
                                // A parallel live link is fine; the exact
                                // dead one is not.
                                let pt = physical.port_target(seg.switches[i], seg.ports[i]);
                                if let Some(PortTarget::Switch { link, .. }) = pt {
                                    assert_ne!(link, l, "route crosses the dead link");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn translated_routes_materialise_and_validate() {
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
        let mut sel = pr.db.selector();
        for src in physical.hosts() {
            for dst in physical.hosts() {
                if src == dst || !pr.reachable_hosts[src.idx()] || !pr.reachable_hosts[dst.idx()] {
                    continue;
                }
                let j = pr.db.select(&physical, src, dst, &mut sel);
                j.validate().unwrap();
                assert_eq!((j.src, j.dst), (src, dst));
            }
        }
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
