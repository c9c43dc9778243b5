//! Runtime-callable reconfiguration: rebuild the routing tables for the
//! surviving component of a faulted network and translate them back into
//! **physical** identifiers.
//!
//! [`discover`] renumbers the surviving network (as the real Myrinet mapper
//! does), which is the right model for static re-mapping — but a *running*
//! simulator keeps its physical switch/channel state and cannot renumber
//! mid-flight. [`rebuild_physical_routes`] bridges the two worlds: it runs
//! discovery, builds a fresh [`RouteDb`] for the requested scheme on the
//! discovered topology (root = the seed's switch, exactly what the MCP's
//! re-mapping would elect), and rewrites every route with physical switch
//! ids, physical port bytes and physical in-transit host ids. Pairs that
//! ended up in different components simply have no route — the resulting
//! table is *partial* (check [`RouteDb::has_route`]).

use regnet_core::{RouteDb, RouteDbBuilder, RouteDbConfig, RoutingScheme, SegmentEnd};
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
    /// The same tables in discovered coordinates (what `RouteDb::build`
    /// produced); kept for legality audits.
    pub mapped_db: RouteDb,
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

    /// Audit the rebuilt tables: every route must be up\*/down\*-legal on
    /// the discovered topology (the scheme's deadlock-freedom invariant)
    /// and its physical translation must traverse only live links, with
    /// live, reachable in-transit hosts. Cheap enough to run after every
    /// reconfiguration in tests.
    pub fn verify(&self, physical: &Topology, faults: &FaultSet) -> Result<(), String> {
        // Legality in discovered coordinates (where the up*/down* tree
        // lives; the root is the seed's switch = discovered switch 0).
        let mapped = &self.discovered.topo;
        let orient = Orientation::compute(mapped, SwitchId(0));
        for (s, d, alts) in self.mapped_db.iter_pairs() {
            for t in alts {
                for seg in t.segments() {
                    let path = || SwitchPath::new(seg.switches.to_vec());
                    let mut hops = seg.switches.windows(2);
                    if !hops.all(|w| mapped.port_to(w[0], w[1]).is_some()) {
                        return Err(format!("{s}->{d}: segment not connected: {}", path()));
                    }
                    if first_violation(seg.switches, &orient).is_some() {
                        return Err(format!("{s}->{d}: illegal segment: {}", path()));
                    }
                }
            }
        }
        // Physical translation: ports, links and in-transit hosts.
        let link_alive: Vec<bool> = physical
            .links()
            .iter()
            .map(|l| faults.is_link_alive(physical, l.id))
            .collect();
        for (ps, pd, alts) in self.db.iter_pairs() {
            for t in alts {
                let mut entry_switch: Option<SwitchId> = None;
                for (si, seg) in t.segments().enumerate() {
                    let is_final = si == t.num_segments() - 1;
                    let expect_ports = seg.switches.len() - usize::from(is_final);
                    if seg.ports.len() != expect_ports {
                        return Err(format!("{ps}->{pd}: segment {si} port count"));
                    }
                    if let Some(entry) = entry_switch {
                        if seg.switches.first() != Some(&entry) {
                            return Err(format!("{ps}->{pd}: segment {si} entry switch"));
                        }
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
                    match seg.end {
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
    let mapped_db = RouteDb::build(&discovered.topo, scheme, &db_cfg);

    // Which port each hop of a translated route leaves through: the
    // lowest-numbered port of `from` that reaches `to` over a live link
    // (parallel links: a dead sibling is skipped).
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

    let d = &discovered;
    // Every route of `mapped_db` is translated hop for hop, so its size
    // bounds the physical table's. Reserving it keeps each rebuild to one
    // allocation per vector: growth by doubling left freed blocks behind
    // that raised the heap's high-water mark mid-run.
    let mut table = RouteDbBuilder::new(scheme, n, physical.num_hosts());
    table.reserve_like(&mapped_db);
    for ps in physical.switches() {
        for pd in physical.switches() {
            if let (Some(ns), Some(nd)) = (d.switch_to_new[ps.idx()], d.switch_to_new[pd.idx()]) {
                for route in mapped_db.alternatives(ns, nd) {
                    for seg in route.segments() {
                        let mut from: Option<SwitchId> = None;
                        for s in seg.switches {
                            let to = d.switch_from_new[s.idx()];
                            if let Some(from) = from {
                                table.port(
                                    live_port[from.idx() * n + to.idx()]
                                        .expect("discovered link lost its physical counterpart"),
                                );
                            }
                            table.switch(to);
                            from = Some(to);
                        }
                        let end = match seg.end {
                            SegmentEnd::Deliver => SegmentEnd::Deliver,
                            SegmentEnd::Itb(h) => {
                                let ph = d.host_from_new[h.idx()];
                                table.port(physical.host_port(ph));
                                SegmentEnd::Itb(ph)
                            }
                        };
                        table.end_segment(end);
                    }
                    table.end_route();
                }
            }
            table.end_pair();
        }
    }
    let reachable_hosts: Vec<bool> = discovered.host_to_new.iter().map(|h| h.is_some()).collect();
    Ok(PhysicalRoutes {
        db: table.finish(),
        reachable_hosts,
        discovered,
        mapped_db,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use regnet_topology::{gen, LinkId};

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
