//! The immutable network graph and its builder.

use crate::error::TopologyError;
use crate::ids::{HostId, LinkId, NodeId, Port, SwitchId};

/// What sits on the far side of a switch port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortTarget {
    /// Another switch, reached through `link`; `to_port` is the port on the
    /// remote switch.
    Switch {
        to: SwitchId,
        to_port: Port,
        link: LinkId,
    },
    /// A host NIC, attached through `link`.
    Host { host: HostId, link: LinkId },
}

/// One end of a physical link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkEnd {
    Switch { sw: SwitchId, port: Port },
    Host { host: HostId },
}

impl LinkEnd {
    /// The node at this end.
    pub fn node(&self) -> NodeId {
        match *self {
            LinkEnd::Switch { sw, .. } => NodeId::Switch(sw),
            LinkEnd::Host { host } => NodeId::Host(host),
        }
    }
}

/// A physical, bidirectional link (a cable): either switch↔switch or
/// switch↔host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    pub id: LinkId,
    pub ends: [LinkEnd; 2],
}

impl Link {
    /// `true` when both ends are switches.
    pub fn is_switch_link(&self) -> bool {
        matches!(
            (self.ends[0], self.ends[1]),
            (LinkEnd::Switch { .. }, LinkEnd::Switch { .. })
        )
    }

    /// For a switch link, the two switch ids.
    pub fn switch_ends(&self) -> Option<(SwitchId, SwitchId)> {
        match (self.ends[0], self.ends[1]) {
            (LinkEnd::Switch { sw: a, .. }, LinkEnd::Switch { sw: b, .. }) => Some((a, b)),
            _ => None,
        }
    }
}

#[derive(Debug, Clone)]
struct SwitchNode {
    ports: Vec<Option<PortTarget>>,
    /// Hosts attached to this switch, in attachment order.
    hosts: Vec<HostId>,
    /// The switch-facing ports as `(port, neighbour, link)` in port order —
    /// `ports` without the host and empty entries. Filled once by
    /// [`TopologyBuilder::build`]; what every graph walk iterates.
    neighbors: Vec<(Port, SwitchId, LinkId)>,
}

#[derive(Debug, Clone, Copy)]
struct HostNode {
    switch: SwitchId,
    /// Port on `switch` where this host is attached.
    port: Port,
    link: LinkId,
}

/// An immutable, validated network of switches, hosts and links.
///
/// Build one with a [generator](crate::gen) or with [`TopologyBuilder`].
#[derive(Debug, Clone)]
pub struct Topology {
    name: String,
    max_ports: u8,
    switches: Vec<SwitchNode>,
    hosts: Vec<HostNode>,
    links: Vec<Link>,
}

impl Topology {
    /// Human-readable topology name (e.g. `"torus-8x8"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of ports per switch.
    pub fn max_ports(&self) -> u8 {
        self.max_ports
    }

    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }

    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Total number of physical links, including host links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of switch↔switch links.
    pub fn num_switch_links(&self) -> usize {
        self.links.iter().filter(|l| l.is_switch_link()).count()
    }

    /// All switch ids.
    pub fn switches(&self) -> impl Iterator<Item = SwitchId> + '_ {
        (0..self.switches.len() as u32).map(SwitchId)
    }

    /// All host ids.
    pub fn hosts(&self) -> impl Iterator<Item = HostId> + '_ {
        (0..self.hosts.len() as u32).map(HostId)
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Link by id.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.idx()]
    }

    /// What is connected at `(sw, port)`, if anything.
    pub fn port_target(&self, sw: SwitchId, port: Port) -> Option<PortTarget> {
        self.switches[sw.idx()]
            .ports
            .get(port.idx())
            .copied()
            .flatten()
    }

    /// Iterate `(port, target)` over the occupied ports of a switch.
    pub fn ports_of(&self, sw: SwitchId) -> impl Iterator<Item = (Port, PortTarget)> + '_ {
        self.switches[sw.idx()]
            .ports
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|t| (Port(i as u8), t)))
    }

    /// Iterate the neighbouring switches of `sw` as `(port, neighbour, link)`.
    /// Parallel links appear once per link.
    pub fn switch_neighbors(
        &self,
        sw: SwitchId,
    ) -> impl Iterator<Item = (Port, SwitchId, LinkId)> + '_ {
        self.switches[sw.idx()].neighbors.iter().copied()
    }

    /// The hosts attached to a switch, in attachment order.
    pub fn hosts_of(&self, sw: SwitchId) -> &[HostId] {
        &self.switches[sw.idx()].hosts
    }

    /// The switch a host is attached to.
    pub fn host_switch(&self, h: HostId) -> SwitchId {
        self.hosts[h.idx()].switch
    }

    /// The port (on its switch) a host is attached to.
    pub fn host_port(&self, h: HostId) -> Port {
        self.hosts[h.idx()].port
    }

    /// The link connecting a host to its switch.
    pub fn host_link(&self, h: HostId) -> LinkId {
        self.hosts[h.idx()].link
    }

    /// All ports on `from` whose link leads to switch `to` (several with
    /// parallel links), in port order.
    pub fn ports_to(&self, from: SwitchId, to: SwitchId) -> impl Iterator<Item = Port> + '_ {
        self.switch_neighbors(from)
            .filter(move |&(_, n, _)| n == to)
            .map(|(p, _, _)| p)
    }

    /// First port on `from` leading to `to`, if adjacent.
    pub fn port_to(&self, from: SwitchId, to: SwitchId) -> Option<Port> {
        self.ports_to(from, to).next()
    }

    /// Number of occupied ports on a switch.
    pub fn occupied_ports(&self, sw: SwitchId) -> usize {
        self.switches[sw.idx()].ports.iter().flatten().count()
    }
}

/// Incremental builder for a [`Topology`].
///
/// ```
/// use regnet_topology::{TopologyBuilder, SwitchId};
///
/// let mut b = TopologyBuilder::new("tiny", 4);
/// b.add_switches(2);
/// b.connect(SwitchId(0), SwitchId(1)).unwrap();
/// b.attach_host(SwitchId(0)).unwrap();
/// b.attach_host(SwitchId(1)).unwrap();
/// let topo = b.build().unwrap();
/// assert_eq!(topo.num_hosts(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    name: String,
    max_ports: u8,
    switches: Vec<SwitchNode>,
    hosts: Vec<HostNode>,
    links: Vec<Link>,
}

impl TopologyBuilder {
    /// Start a new topology where every switch has `max_ports` ports.
    pub fn new(name: impl Into<String>, max_ports: u8) -> Self {
        TopologyBuilder {
            name: name.into(),
            max_ports,
            switches: Vec::new(),
            hosts: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Add `n` switches, returning the id of the first.
    pub fn add_switches(&mut self, n: usize) -> SwitchId {
        let first = self.switches.len() as u32;
        self.switches.extend((0..n).map(|_| SwitchNode {
            ports: vec![None; self.max_ports as usize],
            hosts: Vec::new(),
            neighbors: Vec::new(),
        }));
        SwitchId(first)
    }

    fn free_port(&self, sw: SwitchId) -> Result<Port, TopologyError> {
        let node = self
            .switches
            .get(sw.idx())
            .ok_or(TopologyError::UnknownSwitch(sw))?;
        node.ports
            .iter()
            .position(|p| p.is_none())
            .map(|i| Port(i as u8))
            .ok_or(TopologyError::NoFreePort(sw))
    }

    /// Connect two switches with a new link, assigning the lowest free port
    /// on each side. Parallel links are allowed (they occur in 2-ary tori).
    pub fn connect(&mut self, a: SwitchId, b: SwitchId) -> Result<LinkId, TopologyError> {
        if a == b {
            return Err(TopologyError::SelfLoop(a));
        }
        let pa = self.free_port(a)?;
        let pb = self.free_port(b)?;
        let link = LinkId(self.links.len() as u32);
        self.links.push(Link {
            id: link,
            ends: [
                LinkEnd::Switch { sw: a, port: pa },
                LinkEnd::Switch { sw: b, port: pb },
            ],
        });
        self.switches[a.idx()].ports[pa.idx()] = Some(PortTarget::Switch {
            to: b,
            to_port: pb,
            link,
        });
        self.switches[b.idx()].ports[pb.idx()] = Some(PortTarget::Switch {
            to: a,
            to_port: pa,
            link,
        });
        Ok(link)
    }

    /// Attach a new host to `sw` on its lowest free port.
    pub fn attach_host(&mut self, sw: SwitchId) -> Result<HostId, TopologyError> {
        let port = self.free_port(sw)?;
        let host = HostId(self.hosts.len() as u32);
        let link = LinkId(self.links.len() as u32);
        self.links.push(Link {
            id: link,
            ends: [LinkEnd::Switch { sw, port }, LinkEnd::Host { host }],
        });
        self.switches[sw.idx()].ports[port.idx()] = Some(PortTarget::Host { host, link });
        self.switches[sw.idx()].hosts.push(host);
        self.hosts.push(HostNode {
            switch: sw,
            port,
            link,
        });
        Ok(host)
    }

    /// Attach `n` hosts to every switch, in switch order. Host ids therefore
    /// follow the Myrinet convention `host = switch * n + k`.
    pub fn attach_hosts_everywhere(&mut self, n: usize) -> Result<(), TopologyError> {
        for s in 0..self.switches.len() as u32 {
            for _ in 0..n {
                self.attach_host(SwitchId(s))?;
            }
        }
        Ok(())
    }

    /// Validate and freeze the topology.
    pub fn build(self) -> Result<Topology, TopologyError> {
        if self.switches.is_empty() {
            return Err(TopologyError::Empty);
        }
        if self.hosts.is_empty() {
            return Err(TopologyError::NoHosts);
        }
        // Connectivity check over the switch graph.
        let n = self.switches.len();
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut reachable = 1;
        while let Some(s) = stack.pop() {
            for t in self.switches[s].ports.iter().flatten() {
                if let PortTarget::Switch { to, .. } = t {
                    if !seen[to.idx()] {
                        seen[to.idx()] = true;
                        reachable += 1;
                        stack.push(to.idx());
                    }
                }
            }
        }
        if reachable != n {
            return Err(TopologyError::Disconnected {
                reachable,
                total: n,
            });
        }
        let mut switches = self.switches;
        for node in &mut switches {
            node.neighbors = node
                .ports
                .iter()
                .enumerate()
                .filter_map(|(i, t)| match *t {
                    Some(PortTarget::Switch { to, link, .. }) => Some((Port(i as u8), to, link)),
                    _ => None,
                })
                .collect();
        }
        Ok(Topology {
            name: self.name,
            max_ports: self.max_ports,
            switches,
            hosts: self.hosts,
            links: self.links,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> Topology {
        let mut b = TopologyBuilder::new("line3", 4);
        b.add_switches(3);
        b.connect(SwitchId(0), SwitchId(1)).unwrap();
        b.connect(SwitchId(1), SwitchId(2)).unwrap();
        b.attach_hosts_everywhere(1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_assigns_ports_in_order() {
        let t = line3();
        // Switch 1 connects to 0 first (port 0) then 2 (port 1), host on port 2.
        assert_eq!(t.port_to(SwitchId(1), SwitchId(0)), Some(Port(0)));
        assert_eq!(t.port_to(SwitchId(1), SwitchId(2)), Some(Port(1)));
        assert_eq!(t.host_port(HostId(1)), Port(2));
        assert_eq!(t.host_switch(HostId(1)), SwitchId(1));
    }

    #[test]
    fn port_targets_are_symmetric() {
        let t = line3();
        match t.port_target(SwitchId(0), Port(0)) {
            Some(PortTarget::Switch { to, to_port, link }) => {
                assert_eq!(to, SwitchId(1));
                match t.port_target(to, to_port) {
                    Some(PortTarget::Switch {
                        to: back,
                        to_port: back_port,
                        link: l2,
                    }) => {
                        assert_eq!(back, SwitchId(0));
                        assert_eq!(back_port, Port(0));
                        assert_eq!(l2, link);
                    }
                    other => panic!("expected switch target, got {other:?}"),
                }
            }
            other => panic!("expected switch target, got {other:?}"),
        }
    }

    #[test]
    fn counts() {
        let t = line3();
        assert_eq!(t.num_switches(), 3);
        assert_eq!(t.num_hosts(), 3);
        assert_eq!(t.num_links(), 5);
        assert_eq!(t.num_switch_links(), 2);
        assert_eq!(t.occupied_ports(SwitchId(1)), 3);
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = TopologyBuilder::new("x", 4);
        b.add_switches(1);
        assert_eq!(
            b.connect(SwitchId(0), SwitchId(0)),
            Err(TopologyError::SelfLoop(SwitchId(0)))
        );
    }

    #[test]
    fn rejects_port_exhaustion() {
        let mut b = TopologyBuilder::new("x", 1);
        b.add_switches(3);
        b.connect(SwitchId(0), SwitchId(1)).unwrap();
        assert_eq!(
            b.connect(SwitchId(0), SwitchId(2)),
            Err(TopologyError::NoFreePort(SwitchId(0)))
        );
    }

    #[test]
    fn rejects_disconnected() {
        let mut b = TopologyBuilder::new("x", 4);
        b.add_switches(4);
        b.connect(SwitchId(0), SwitchId(1)).unwrap();
        b.connect(SwitchId(2), SwitchId(3)).unwrap();
        b.attach_hosts_everywhere(1).unwrap();
        assert!(matches!(
            b.build(),
            Err(TopologyError::Disconnected {
                reachable: 2,
                total: 4
            })
        ));
    }

    #[test]
    fn rejects_empty_and_hostless() {
        assert_eq!(
            TopologyBuilder::new("x", 4).build().unwrap_err(),
            TopologyError::Empty
        );
        let mut b = TopologyBuilder::new("x", 4);
        b.add_switches(1);
        assert_eq!(b.build().unwrap_err(), TopologyError::NoHosts);
    }

    #[test]
    fn parallel_links_supported() {
        let mut b = TopologyBuilder::new("dbl", 4);
        b.add_switches(2);
        b.connect(SwitchId(0), SwitchId(1)).unwrap();
        b.connect(SwitchId(0), SwitchId(1)).unwrap();
        b.attach_hosts_everywhere(1).unwrap();
        let t = b.build().unwrap();
        assert_eq!(t.ports_to(SwitchId(0), SwitchId(1)).count(), 2);
        assert_eq!(t.num_switch_links(), 2);
    }

    #[test]
    fn clone_preserves_structure() {
        let t = line3();
        let cloned = t.clone();
        assert_eq!(cloned.num_links(), t.num_links());
        assert_eq!(cloned.num_hosts(), t.num_hosts());
        assert_eq!(cloned.name(), t.name());
    }
}
