//! Strongly-typed identifiers for the entities of a [`Topology`](crate::Topology).

/// Identifier of a switch. Switches are numbered densely from zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchId(pub u32);

/// Identifier of a host (workstation / NIC). Hosts are numbered densely from
/// zero across the whole network, in switch order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

/// Identifier of a physical (bidirectional) link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

/// A port index on a switch. Myrinet switches in the paper have 16 ports.
///
/// In a Myrinet source route, the header carries one `Port` byte per switch
/// traversed: the output port that switch must use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Port(pub u8);

/// Either endpoint type a link can attach to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeId {
    Switch(SwitchId),
    Host(HostId),
}

impl SwitchId {
    /// The switch id as a usable index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl HostId {
    /// The host id as a usable index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// The link id as a usable index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl Port {
    /// The port number as a usable index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for SwitchId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl std::fmt::Display for Port {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl std::fmt::Display for LinkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "l{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_order_and_index() {
        assert!(SwitchId(1) < SwitchId(2));
        assert_eq!(SwitchId(7).idx(), 7);
        assert_eq!(HostId(3).idx(), 3);
        assert_eq!(Port(15).idx(), 15);
        assert_eq!(LinkId(9).idx(), 9);
    }

    #[test]
    fn ids_display() {
        assert_eq!(SwitchId(4).to_string(), "s4");
        assert_eq!(HostId(4).to_string(), "h4");
        assert_eq!(Port(4).to_string(), "p4");
        assert_eq!(LinkId(4).to_string(), "l4");
    }
}
