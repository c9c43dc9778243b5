//! Fault sets: which links, switches and hosts are currently dead.

use std::collections::BTreeSet;

use regnet_topology::{HostId, LinkEnd, LinkId, SwitchId, Topology};

/// The set of failed network elements. A dead switch implicitly kills all
/// its links and the reachability of its hosts; a dead host kills its NIC
/// (and its link); a dead link kills just the cable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSet {
    dead_links: BTreeSet<LinkId>,
    dead_switches: BTreeSet<SwitchId>,
    dead_hosts: BTreeSet<HostId>,
}

impl FaultSet {
    pub fn new() -> FaultSet {
        FaultSet::default()
    }

    /// A fault set with a single dead link.
    pub fn link(l: LinkId) -> FaultSet {
        let mut f = FaultSet::new();
        f.kill_link(l);
        f
    }

    /// A fault set with a single dead switch.
    pub fn switch(s: SwitchId) -> FaultSet {
        let mut f = FaultSet::new();
        f.kill_switch(s);
        f
    }

    /// A fault set with a single dead host.
    pub fn host(h: HostId) -> FaultSet {
        let mut f = FaultSet::new();
        f.kill_host(h);
        f
    }

    pub fn kill_link(&mut self, l: LinkId) -> &mut Self {
        self.dead_links.insert(l);
        self
    }

    pub fn kill_switch(&mut self, s: SwitchId) -> &mut Self {
        self.dead_switches.insert(s);
        self
    }

    pub fn kill_host(&mut self, h: HostId) -> &mut Self {
        self.dead_hosts.insert(h);
        self
    }

    /// Undo [`kill_link`](FaultSet::kill_link) — the cable was repaired.
    pub fn revive_link(&mut self, l: LinkId) -> &mut Self {
        self.dead_links.remove(&l);
        self
    }

    /// Undo [`kill_switch`](FaultSet::kill_switch).
    pub fn revive_switch(&mut self, s: SwitchId) -> &mut Self {
        self.dead_switches.remove(&s);
        self
    }

    /// Undo [`kill_host`](FaultSet::kill_host).
    pub fn revive_host(&mut self, h: HostId) -> &mut Self {
        self.dead_hosts.remove(&h);
        self
    }

    pub fn is_switch_alive(&self, s: SwitchId) -> bool {
        !self.dead_switches.contains(&s)
    }

    pub fn is_host_alive(&self, topo: &Topology, h: HostId) -> bool {
        !self.dead_hosts.contains(&h)
            && self.is_switch_alive(topo.host_switch(h))
            && !self.dead_links.contains(&topo.host_link(h))
    }

    /// A link is usable iff the cable itself and both endpoints live.
    pub fn is_link_alive(&self, topo: &Topology, l: LinkId) -> bool {
        if self.dead_links.contains(&l) {
            return false;
        }
        topo.link(l).ends.iter().all(|end| match *end {
            LinkEnd::Switch { sw, .. } => self.is_switch_alive(sw),
            LinkEnd::Host { host } => !self.dead_hosts.contains(&host),
        })
    }

    pub fn is_empty(&self) -> bool {
        self.dead_links.is_empty() && self.dead_switches.is_empty() && self.dead_hosts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regnet_topology::gen;

    #[test]
    fn dead_switch_kills_its_links() {
        let topo = gen::torus_2d(4, 4, 1).unwrap();
        let f = FaultSet::switch(SwitchId(0));
        for link in topo.links() {
            let touches_s0 = link
                .ends
                .iter()
                .any(|e| matches!(*e, LinkEnd::Switch { sw, .. } if sw == SwitchId(0)));
            assert_eq!(f.is_link_alive(&topo, link.id), !touches_s0);
        }
        // Hosts on the dead switch are unreachable.
        assert!(!f.is_host_alive(&topo, topo.hosts_of(SwitchId(0))[0]));
        assert!(f.is_host_alive(&topo, topo.hosts_of(SwitchId(5))[0]));
    }

    #[test]
    fn dead_host_kills_only_its_link() {
        let topo = gen::torus_2d(4, 4, 2).unwrap();
        let h = topo.hosts_of(SwitchId(3))[0];
        let f = FaultSet::host(h);
        assert!(!f.is_host_alive(&topo, h));
        assert!(!f.is_link_alive(&topo, topo.host_link(h)));
        // Its sibling on the same switch is fine.
        let sibling = topo.hosts_of(SwitchId(3))[1];
        assert!(f.is_host_alive(&topo, sibling));
        assert!(f.is_switch_alive(SwitchId(3)));
    }

    #[test]
    fn dead_host_link_isolates_the_host() {
        let topo = gen::torus_2d(4, 4, 1).unwrap();
        let h = topo.hosts_of(SwitchId(7))[0];
        let f = FaultSet::link(topo.host_link(h));
        assert!(!f.is_host_alive(&topo, h));
    }
}
