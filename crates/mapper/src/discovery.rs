//! BFS network exploration, as the Myrinet mapper performs it after a
//! topology change: probe outward from a seed host, enumerate the surviving
//! switches/links/hosts, and build a fresh (renumbered) topology.

use std::collections::VecDeque;

use regnet_topology::{HostId, LinkEnd, SwitchId, Topology, TopologyBuilder, TopologyError};

use crate::fault::FaultSet;

/// Errors during discovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapperError {
    /// The seed host (the one running the mapper) is itself dead.
    SeedDead(HostId),
    /// The surviving component contains no other host than the seed —
    /// there is no network left to route on.
    NothingReachable,
    /// Rebuilding the discovered component failed (should not happen for a
    /// component found by BFS).
    Rebuild(TopologyError),
}

impl std::fmt::Display for MapperError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapperError::SeedDead(h) => write!(f, "seed host {h} is dead"),
            MapperError::NothingReachable => write!(f, "no other live host is reachable"),
            MapperError::Rebuild(e) => write!(f, "failed to rebuild discovered topology: {e}"),
        }
    }
}

impl std::error::Error for MapperError {}

/// The result of a mapping run: the surviving network as a fresh
/// [`Topology`] with dense ids, plus the translations between physical and
/// discovered ids.
#[derive(Debug, Clone)]
pub struct DiscoveredNetwork {
    /// The surviving network. Switch/host/port numbering is the mapper's
    /// own (just as a real re-mapping renumbers routes); use the maps below
    /// to relate it to the physical network.
    pub topo: Topology,
    /// Physical switch id → discovered id (None if dead/unreachable).
    pub switch_to_new: Vec<Option<SwitchId>>,
    /// Physical host id → discovered id.
    pub host_to_new: Vec<Option<HostId>>,
    /// Discovered switch id → physical id.
    pub switch_from_new: Vec<SwitchId>,
    /// Discovered host id → physical id.
    pub host_from_new: Vec<HostId>,
}

impl DiscoveredNetwork {
    /// Hosts of the physical network that are no longer reachable.
    pub fn lost_hosts(&self) -> usize {
        self.host_to_new.iter().filter(|h| h.is_none()).count()
    }
}

/// Explore the network from `seed`'s switch, honouring `faults`, and build
/// the surviving topology.
///
/// Exploration order is deterministic (BFS by physical switch id), so two
/// mappers starting anywhere in the same component agree on the surviving
/// *set*; ids are assigned in BFS order from the seed.
pub fn discover(
    physical: &Topology,
    faults: &FaultSet,
    seed: HostId,
) -> Result<DiscoveredNetwork, MapperError> {
    if !faults.is_host_alive(physical, seed) {
        return Err(MapperError::SeedDead(seed));
    }
    let n_sw = physical.num_switches();

    // BFS over live switches through live links.
    let mut reached = vec![false; n_sw];
    let mut order: Vec<SwitchId> = Vec::new();
    let start = physical.host_switch(seed);
    let mut queue = VecDeque::new();
    reached[start.idx()] = true;
    queue.push_back(start);
    while let Some(s) = queue.pop_front() {
        order.push(s);
        let mut neighbours: Vec<(SwitchId, _)> = physical
            .switch_neighbors(s)
            .filter(|&(_, t, l)| faults.is_switch_alive(t) && faults.is_link_alive(physical, l))
            .map(|(_, t, l)| (t, l))
            .collect();
        neighbours.sort_unstable_by_key(|&(t, _)| t);
        for (t, _) in neighbours {
            if !reached[t.idx()] {
                reached[t.idx()] = true;
                queue.push_back(t);
            }
        }
    }

    // Assign new switch ids in BFS order.
    let mut switch_to_new = vec![None; n_sw];
    for (new, &old) in order.iter().enumerate() {
        switch_to_new[old.idx()] = Some(SwitchId(new as u32));
    }

    // Rebuild: switch links first (each once, in physical link order), then
    // hosts in physical host order.
    let mut b = TopologyBuilder::new(format!("{}-mapped", physical.name()), physical.max_ports());
    b.add_switches(order.len());
    for link in physical.links() {
        if !faults.is_link_alive(physical, link.id) {
            continue;
        }
        if let (LinkEnd::Switch { sw: a, .. }, LinkEnd::Switch { sw: bb, .. }) =
            (link.ends[0], link.ends[1])
        {
            if let (Some(na), Some(nb)) = (switch_to_new[a.idx()], switch_to_new[bb.idx()]) {
                b.connect(na, nb).map_err(MapperError::Rebuild)?;
            }
        }
    }
    let mut host_to_new = vec![None; physical.num_hosts()];
    let mut host_from_new = Vec::new();
    for h in physical.hosts() {
        if !faults.is_host_alive(physical, h) {
            continue;
        }
        if let Some(ns) = switch_to_new[physical.host_switch(h).idx()] {
            let nh = b.attach_host(ns).map_err(MapperError::Rebuild)?;
            host_to_new[h.idx()] = Some(nh);
            host_from_new.push(h);
        }
    }
    if host_from_new.len() < 2 {
        return Err(MapperError::NothingReachable);
    }
    let topo = b.build().map_err(MapperError::Rebuild)?;
    Ok(DiscoveredNetwork {
        topo,
        switch_to_new,
        host_to_new,
        switch_from_new: order,
        host_from_new,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use regnet_topology::{gen, LinkId};

    #[test]
    fn fault_free_discovery_preserves_everything() {
        let physical = gen::torus_2d(4, 4, 2).unwrap();
        let d = discover(&physical, &FaultSet::new(), HostId(0)).unwrap();
        assert_eq!(d.topo.num_switches(), 16);
        assert_eq!(d.topo.num_hosts(), 32);
        assert_eq!(d.topo.num_switch_links(), physical.num_switch_links());
        assert_eq!(d.lost_hosts(), 0);
        // Round-trip maps.
        for s in physical.switches() {
            let n = d.switch_to_new[s.idx()].unwrap();
            assert_eq!(d.switch_from_new[n.idx()], s);
        }
        for h in physical.hosts() {
            let n = d.host_to_new[h.idx()].unwrap();
            assert_eq!(d.host_from_new[n.idx()], h);
        }
    }

    #[test]
    fn discovery_renumbers_from_seed() {
        let physical = gen::torus_2d(4, 4, 2).unwrap();
        // Seed on physical switch 10: that switch becomes discovered s0.
        let seed = physical.hosts_of(SwitchId(10))[0];
        let d = discover(&physical, &FaultSet::new(), seed).unwrap();
        assert_eq!(d.switch_from_new[0], SwitchId(10));
        assert_eq!(d.switch_to_new[10], Some(SwitchId(0)));
    }

    #[test]
    fn dead_link_survives_with_fewer_links() {
        let physical = gen::torus_2d(4, 4, 2).unwrap();
        // Find a switch-switch link.
        let l = physical
            .links()
            .iter()
            .find(|l| l.is_switch_link())
            .unwrap()
            .id;
        let d = discover(&physical, &FaultSet::link(l), HostId(0)).unwrap();
        assert_eq!(d.topo.num_switch_links(), physical.num_switch_links() - 1);
        assert_eq!(d.lost_hosts(), 0);
    }

    #[test]
    fn dead_switch_loses_its_hosts() {
        let physical = gen::torus_2d(4, 4, 2).unwrap();
        let d = discover(&physical, &FaultSet::switch(SwitchId(5)), HostId(0)).unwrap();
        assert_eq!(d.topo.num_switches(), 15);
        assert_eq!(d.topo.num_hosts(), 30);
        assert_eq!(d.lost_hosts(), 2);
        assert!(d.switch_to_new[5].is_none());
    }

    #[test]
    fn partition_keeps_only_the_seed_side() {
        // A line of 3 switches: killing the middle one splits the network.
        let mut b = TopologyBuilder::new("line3", 4);
        b.add_switches(3);
        b.connect(SwitchId(0), SwitchId(1)).unwrap();
        b.connect(SwitchId(1), SwitchId(2)).unwrap();
        b.attach_hosts_everywhere(2).unwrap();
        let physical = b.build().unwrap();
        let d = discover(&physical, &FaultSet::switch(SwitchId(1)), HostId(0)).unwrap();
        assert_eq!(d.topo.num_switches(), 1);
        assert_eq!(d.topo.num_hosts(), 2);
        assert_eq!(d.lost_hosts(), 4); // middle switch's 2 + far side's 2
    }

    #[test]
    fn seed_dead_is_an_error() {
        let physical = gen::torus_2d(4, 4, 1).unwrap();
        let e = discover(&physical, &FaultSet::host(HostId(0)), HostId(0));
        assert_eq!(e.unwrap_err(), MapperError::SeedDead(HostId(0)));
        let e2 = discover(&physical, &FaultSet::switch(SwitchId(0)), HostId(0));
        assert_eq!(e2.unwrap_err(), MapperError::SeedDead(HostId(0)));
    }

    #[test]
    fn nothing_reachable_is_an_error() {
        // Two switches, one host each; kill the other host: only the seed
        // remains -> nothing to route to.
        let mut b = TopologyBuilder::new("pair", 4);
        b.add_switches(2);
        b.connect(SwitchId(0), SwitchId(1)).unwrap();
        b.attach_hosts_everywhere(1).unwrap();
        let physical = b.build().unwrap();
        let e = discover(&physical, &FaultSet::host(HostId(1)), HostId(0));
        assert_eq!(e.unwrap_err(), MapperError::NothingReachable);
    }

    #[test]
    fn multiple_faults_accumulate() {
        let physical = gen::torus_2d(4, 4, 2).unwrap();
        let mut f = FaultSet::new();
        f.kill_switch(SwitchId(3))
            .kill_host(HostId(20))
            .kill_link(LinkId(2));
        let d = discover(&physical, &f, HostId(0)).unwrap();
        assert_eq!(d.topo.num_switches(), 15);
        assert_eq!(d.topo.num_hosts(), 32 - 2 - 1);
    }
}
