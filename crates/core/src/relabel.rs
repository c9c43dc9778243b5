//! Writing a table built on one topology in another's ids: the mapper
//! builds routes on the renumbered, discovered network and the simulator
//! needs them in physical ids. [`RouteDb::build_relabelled`] does both in
//! its one loop; [`RouteDb::build`] is the same loop under the identity.
//!
//! [`RouteDb::build_relabelled`]: crate::RouteDb::build_relabelled
//! [`RouteDb::build`]: crate::RouteDb::build

use regnet_topology::{HostId, LinkId, Port, SwitchId, Topology};

use crate::header::ITB_MARK;
use crate::split::SplitSink;
use crate::table::RouteDbBuilder;

/// How a table built on one topology (the *built* ids) is written out:
/// which built pair each written pair takes its routes from, and what
/// every port byte becomes. No switch or host id is written: the table
/// stores port bytes and walks the written topology for its switches and
/// in-transit hosts, so a written byte must lead where the built one goes.
pub trait Relabel {
    /// The topology the table is written for: its switches, hosts and the
    /// links every written port byte leaves by. Its pairs are written in
    /// `src * num_switches + dst` order.
    fn written(&self) -> &Topology;
    /// The built pair whose routes written pair `(s, d)` gets; `None`
    /// leaves the pair without routes. The table walks the routes from
    /// the written `s`, so the built pair's source must be `s` in built
    /// ids.
    fn pair(&self, s: SwitchId, d: SwitchId) -> Option<(SwitchId, SwitchId)>;
    /// The written port byte of a hop from built switch `from` to its
    /// neighbour `to`; `spread` picks among parallel links if the
    /// relabelling spreads over them.
    fn hop(&self, from: SwitchId, to: SwitchId, spread: usize) -> Port;
    /// The written port byte by which a built in-transit host's switch
    /// reaches it.
    fn itb(&self, h: HostId) -> Port;
}

/// Each switch pair's port byte over a set of links, read per hop: what
/// [`Unchanged`] writes, and what the mapper's fill writes physical hops
/// from, over the live links. It owns its table and borrows no topology.
#[derive(Debug, Clone)]
pub struct HopTable {
    n: usize,
    /// Pair `from * n + to` → the port of the one link between them, or
    /// `FAN | i` when several are: they are `fans[i]`.
    hop: Vec<u32>,
    /// The ports of `from` that lead to `to`, in `switch_neighbors` order,
    /// one list per pair joined by parallel links.
    fans: Vec<Vec<Port>>,
}

/// Marks a [`HopTable`] entry that names a list of parallel ports;
/// `u32::MAX` (a list that does not exist) marks a pair with no link.
const FAN: u32 = 1 << 31;

impl HopTable {
    /// The hops over the switch links of `topo` that `live` keeps: a hop
    /// between switches no kept link joins panics.
    pub fn new(topo: &Topology, live: impl Fn(LinkId) -> bool) -> HopTable {
        let n = topo.num_switches();
        let mut hop = vec![u32::MAX; n * n];
        let mut fans: Vec<Vec<Port>> = Vec::new();
        for from in topo.switches() {
            let row = &mut hop[from.idx() * n..(from.idx() + 1) * n];
            for (p, to, _) in topo.switch_neighbors(from).filter(|&(.., l)| live(l)) {
                let h = &mut row[to.idx()];
                if *h == u32::MAX {
                    *h = u32::from(p.0);
                } else {
                    if *h & FAN == 0 {
                        fans.push(vec![Port(*h as u8)]);
                        *h = FAN | (fans.len() - 1) as u32;
                    }
                    fans[(*h & !FAN) as usize].push(p);
                }
            }
        }
        HopTable { n, hop, fans }
    }

    /// The port byte of a hop from `from` to its neighbour `to`; `spread`
    /// picks among parallel links.
    #[inline]
    pub fn hop(&self, from: SwitchId, to: SwitchId, spread: usize) -> Port {
        let h = self.hop[from.idx() * self.n + to.idx()];
        if h & FAN == 0 {
            return Port(h as u8);
        }
        let parallel = &self.fans[(h & !FAN) as usize];
        parallel[spread % parallel.len()]
    }
}

/// The identity: the table in the built topology's own ids, each hop's
/// port read from a [`HopTable`] over every link.
#[derive(Debug)]
pub struct Unchanged<'a> {
    topo: &'a Topology,
    hops: HopTable,
}

impl<'a> Unchanged<'a> {
    /// The identity over every link of `topo`.
    pub fn new(topo: &'a Topology) -> Unchanged<'a> {
        let hops = HopTable::new(topo, |_| true);
        Unchanged { topo, hops }
    }
}

impl Relabel for Unchanged<'_> {
    fn written(&self) -> &Topology {
        self.topo
    }
    fn pair(&self, s: SwitchId, d: SwitchId) -> Option<(SwitchId, SwitchId)> {
        Some((s, d))
    }
    #[inline]
    fn hop(&self, from: SwitchId, to: SwitchId, spread: usize) -> Port {
        self.hops.hop(from, to, spread)
    }
    fn itb(&self, h: HostId) -> Port {
        self.topo.host_port(h)
    }
}

/// A [`RouteDbBuilder`] written through a [`Relabel`]: each segment's port
/// bytes and an in-transit one's mark, its switches and host left to the
/// written topology.
pub(crate) struct Relabelled<'t, 'm, R> {
    pub(crate) table: &'t mut RouteDbBuilder,
    pub(crate) map: &'m R,
}

impl<R: Relabel> SplitSink for Relabelled<'_, '_, R> {
    // Left to the compiler, this fell out of line from `split_into`, and
    // the call per segment cost the ITB builds 1.5–4.5 % (minimum of 201
    // builds, 2-vCPU Xeon).
    #[inline]
    fn segment(&mut self, switches: &[SwitchId], spread: usize, itb: Option<HostId>) {
        let map = self.map;
        self.table.ports(
            switches
                .windows(2)
                .enumerate()
                .map(|(i, w)| map.hop(w[0], w[1], spread.wrapping_add(i))),
        );
        if let Some(h) = itb {
            self.table.ports([map.itb(h), ITB_MARK]);
        }
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
            // With the first of two parallel links dead, a hop table of
            // the live links gives its sibling's port, whatever the spread.
            let (a, b) = topo
                .switches()
                .flat_map(|a| topo.switches().map(move |b| (a, b)))
                .find(|&(a, b)| topo.ports_to(a, b).count() == 2)
                .expect("parallel links");
            let mut links = topo.switch_neighbors(a).filter(|&(_, to, _)| to == b);
            let (_, _, dead) = links.next().unwrap();
            let (sibling, _, _) = links.next().unwrap();
            let live = HopTable::new(&topo, |l| l != dead);
            for spread in 0..4 {
                assert_eq!(live.hop(a, b, spread), sibling);
            }
        }
    }
}
