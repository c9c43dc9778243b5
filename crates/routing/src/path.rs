//! Switch-level paths and their properties.

use regnet_topology::{DistanceMatrix, Orientation, SwitchId, Topology};

/// A path through the switch graph: the ordered list of switches traversed.
///
/// A path with a single switch (`[s]`) represents intra-switch traffic
/// (source and destination hosts attached to the same switch).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SwitchPath(Vec<SwitchId>);

impl SwitchPath {
    /// Wrap an ordered switch list. Panics (debug) on an empty list.
    pub fn new(switches: Vec<SwitchId>) -> SwitchPath {
        debug_assert!(!switches.is_empty(), "a path visits at least one switch");
        SwitchPath(switches)
    }

    /// The switches visited, in order.
    pub fn switches(&self) -> &[SwitchId] {
        &self.0
    }

    /// First switch (source side).
    pub fn src(&self) -> SwitchId {
        self.0[0]
    }

    /// Last switch (destination side).
    pub fn dst(&self) -> SwitchId {
        *self.0.last().unwrap()
    }

    /// Number of switch-to-switch links traversed.
    pub fn len_links(&self) -> usize {
        self.0.len() - 1
    }

    /// Consecutive `(from, to)` hops.
    pub(crate) fn hops(&self) -> impl Iterator<Item = (SwitchId, SwitchId)> + '_ {
        self.0.windows(2).map(|w| (w[0], w[1]))
    }

    /// Is every hop between adjacent switches?
    pub fn is_connected(&self, topo: &Topology) -> bool {
        self.hops().all(|(a, b)| topo.port_to(a, b).is_some())
    }

    /// Does the path satisfy the up\*/down\* rule (zero or more up moves
    /// followed by zero or more down moves)?
    pub fn is_legal(&self, orient: &Orientation) -> bool {
        self.first_violation(orient).is_none()
    }

    /// Is the path as short as any path between its endpoints?
    pub fn is_minimal(&self, dm: &DistanceMatrix) -> bool {
        self.len_links() == dm.get(self.src(), self.dst()) as usize
    }

    /// Index of the first hop that performs a forbidden down→up transition,
    /// if any. This is where an in-transit buffer must be inserted.
    pub fn first_violation(&self, orient: &Orientation) -> Option<usize> {
        first_violation(&self.0, orient)
    }
}

/// [`SwitchPath::first_violation`] for a borrowed switch sequence (a
/// segment read in place from a route table).
pub fn first_violation(switches: &[SwitchId], orient: &Orientation) -> Option<usize> {
    let mut seen_down = false;
    for (i, w) in switches.windows(2).enumerate() {
        if orient.is_up_move(w[0], w[1]) {
            if seen_down {
                return Some(i);
            }
        } else {
            seen_down = true;
        }
    }
    None
}

impl std::fmt::Display for SwitchPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for s in &self.0 {
            if !first {
                write!(f, "->")?;
            }
            write!(f, "{s}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring4() -> (Topology, Orientation) {
        let mut b = regnet_topology::TopologyBuilder::new("ring4", 4);
        b.add_switches(4);
        for i in 0..4u32 {
            b.connect(SwitchId(i), SwitchId((i + 1) % 4)).unwrap();
        }
        b.attach_hosts_everywhere(1).unwrap();
        let topo = b.build().unwrap();
        let orient = Orientation::compute(&topo, SwitchId(0));
        (topo, orient)
    }

    #[test]
    fn legality_on_ring() {
        let (_, orient) = ring4();
        // Levels: 0->0, 1->1, 2->2, 3->1.
        let up_up = SwitchPath::new(vec![SwitchId(2), SwitchId(1), SwitchId(0)]);
        assert!(up_up.is_legal(&orient));
        let up_down = SwitchPath::new(vec![SwitchId(2), SwitchId(1), SwitchId(0), SwitchId(3)]);
        assert!(up_down.is_legal(&orient));
        let down_up = SwitchPath::new(vec![SwitchId(1), SwitchId(2), SwitchId(3)]);
        // 1->2 is down (level 1->2); 2->3 is up (level 2->1): forbidden.
        assert!(!down_up.is_legal(&orient));
        assert_eq!(down_up.first_violation(&orient), Some(1));
        assert_eq!(up_down.first_violation(&orient), None);
    }

    #[test]
    fn single_switch_path_is_trivially_legal_and_minimal() {
        let (topo, orient) = ring4();
        let dm = DistanceMatrix::compute(&topo);
        let p = SwitchPath::new(vec![SwitchId(2)]);
        assert!(p.is_legal(&orient));
        assert!(p.is_minimal(&dm));
        assert_eq!(p.len_links(), 0);
        assert!(p.is_connected(&topo));
    }

    #[test]
    fn minimality() {
        let (topo, _) = ring4();
        let dm = DistanceMatrix::compute(&topo);
        let short = SwitchPath::new(vec![SwitchId(0), SwitchId(1)]);
        assert!(short.is_minimal(&dm));
        let long = SwitchPath::new(vec![SwitchId(0), SwitchId(3), SwitchId(2), SwitchId(1)]);
        assert!(!long.is_minimal(&dm));
        assert!(long.is_connected(&topo));
    }

    #[test]
    fn display() {
        let p = SwitchPath::new(vec![SwitchId(4), SwitchId(6), SwitchId(1)]);
        assert_eq!(p.to_string(), "s4->s6->s1");
    }
}
