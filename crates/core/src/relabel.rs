//! Writing a table built on one topology in another's ids: the mapper
//! builds routes on the renumbered, discovered network and the simulator
//! needs them in physical ids. [`RouteDb::build_relabelled`] does both in
//! its one loop; [`RouteDb::build`] is the same loop under the identity.
//!
//! [`RouteDb::build_relabelled`]: crate::RouteDb::build_relabelled
//! [`RouteDb::build`]: crate::RouteDb::build

use regnet_topology::{HostId, Port, SwitchId, Topology};

use crate::journey::SegmentEnd;
use crate::split::SplitSink;
use crate::table::RouteDbBuilder;

/// How a table built on one topology (the *built* ids) is written out:
/// which built pair each written pair takes its routes from, and what
/// every switch, port byte and in-transit host becomes.
pub trait Relabel {
    /// Switches of the written table; its pairs are written in
    /// `src * num_switches + dst` order.
    fn num_switches(&self) -> usize;
    /// Hosts of the written table.
    fn num_hosts(&self) -> usize;
    /// The built pair whose routes written pair `(s, d)` gets; `None`
    /// leaves the pair without routes.
    fn pair(&self, s: SwitchId, d: SwitchId) -> Option<(SwitchId, SwitchId)>;
    /// A built switch's written id.
    fn switch(&self, s: SwitchId) -> SwitchId;
    /// The written port byte of a hop from built switch `from` to its
    /// neighbour `to`; `spread` picks among parallel links if the
    /// relabelling spreads over them.
    fn hop(&self, from: SwitchId, to: SwitchId, spread: usize) -> Port;
    /// A built in-transit host's written id, and the port byte its switch
    /// reaches it by.
    fn itb(&self, h: HostId) -> (HostId, Port);
}

/// The identity: the table in the built topology's own ids, each hop
/// spread over the parallel links from one `(from, to) → ports` table.
pub(crate) struct Unchanged<'a> {
    topo: &'a Topology,
    n: usize,
    /// Pair `from * n + to` → its entries of `ports`.
    off: Vec<u32>,
    /// The ports of `from` that lead to `to`, in `switch_neighbors` order.
    ports: Vec<Port>,
}

impl<'a> Unchanged<'a> {
    pub(crate) fn new(topo: &'a Topology) -> Unchanged<'a> {
        let n = topo.num_switches();
        let mut off = Vec::with_capacity(n * n + 1);
        off.push(0);
        let mut ports = Vec::new();
        let mut row: Vec<(SwitchId, Port)> = Vec::new();
        for from in topo.switches() {
            row.clear();
            row.extend(topo.switch_neighbors(from).map(|(p, to, _)| (to, p)));
            // Stable: parallel ports keep their neighbour-list order.
            row.sort_by_key(|&(to, _)| to);
            let mut next = row.iter().peekable();
            for to in topo.switches() {
                while let Some(&(_, p)) = next.next_if(|&&(t, _)| t == to) {
                    ports.push(p);
                }
                off.push(ports.len() as u32);
            }
        }
        Unchanged {
            topo,
            n,
            off,
            ports,
        }
    }
}

impl Relabel for Unchanged<'_> {
    fn num_switches(&self) -> usize {
        self.n
    }
    fn num_hosts(&self) -> usize {
        self.topo.num_hosts()
    }
    fn pair(&self, s: SwitchId, d: SwitchId) -> Option<(SwitchId, SwitchId)> {
        Some((s, d))
    }
    fn switch(&self, s: SwitchId) -> SwitchId {
        s
    }
    fn hop(&self, from: SwitchId, to: SwitchId, spread: usize) -> Port {
        let i = from.idx() * self.n + to.idx();
        let parallel = &self.ports[self.off[i] as usize..self.off[i + 1] as usize];
        debug_assert!(!parallel.is_empty(), "path not connected at {from}->{to}");
        parallel[spread % parallel.len()]
    }
    fn itb(&self, h: HostId) -> (HostId, Port) {
        (h, self.topo.host_port(h))
    }
}

/// A [`RouteDbBuilder`] written through a [`Relabel`].
pub(crate) struct Relabelled<'t, 'm, R> {
    pub(crate) table: &'t mut RouteDbBuilder,
    pub(crate) map: &'m R,
}

impl<R: Relabel> SplitSink for Relabelled<'_, '_, R> {
    fn start(&mut self, s: SwitchId) {
        self.table.switch(self.map.switch(s));
    }
    fn hop(&mut self, a: SwitchId, b: SwitchId, spread: usize) {
        self.table.port(self.map.hop(a, b, spread));
        self.table.switch(self.map.switch(b));
    }
    fn eject(&mut self, h: HostId) {
        let (h, port) = self.map.itb(h);
        self.table.port(port);
        self.table.end_segment(SegmentEnd::Itb(h));
    }
    fn deliver(&mut self) {
        self.table.end_segment(SegmentEnd::Deliver);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regnet_topology::gen;

    #[test]
    fn hop_ports_match_the_neighbour_scan() {
        // A 2-ary torus dimension doubles links: parallel ports in order.
        for topo in [
            gen::torus_2d(2, 4, 1).unwrap(),
            gen::irregular_multigraph(9, 12, 3).unwrap(),
        ] {
            let map = Unchanged::new(&topo);
            for a in topo.switches() {
                for b in topo.switches() {
                    let want: Vec<Port> = topo.ports_to(a, b).collect();
                    for spread in 0..want.len() * 2 {
                        assert_eq!(map.hop(a, b, spread), want[spread % want.len()]);
                    }
                }
            }
        }
    }
}
