//! Multi-segment source routes in owned form, the interchange type of
//! route tables: one segment under up\*/down\*, under the ITB mechanism
//! one more per in-transit host that ejects and re-injects the packet.

use regnet_topology::{HostId, Port, SwitchId};

/// How a segment ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentEnd {
    /// The packet is delivered: this is the final segment.
    Deliver,
    /// The packet is ejected into an in-transit buffer at this host and
    /// re-injected for the next segment.
    Itb(HostId),
}

/// One up\*/down\*-legal leg of a route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Switches traversed by this segment, in order. The first segment
    /// starts at the source host's switch; later segments start at the
    /// previous in-transit host's switch.
    pub switches: Vec<SwitchId>,
    /// Output-port bytes, one per switch in `switches`. The final byte
    /// addresses the segment's end host (in-transit host or destination);
    /// a template's delivering segment leaves it out.
    pub ports: Vec<Port>,
    /// How the segment ends.
    pub end: SegmentEnd,
}

impl Segment {
    /// Switch-to-switch links traversed by this segment.
    pub fn len_links(&self) -> usize {
        self.switches.len().saturating_sub(1)
    }
}

/// A route *template*: everything about a route except the destination
/// host's port byte, which the header written for a concrete destination
/// host ends with. Templates are shared by all host pairs that live on the
/// same ordered switch pair, which keeps the route database small
/// (switch-pair count, not host-pair count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JourneyTemplate {
    /// All segments; the final segment's `ports` is one byte *short* (the
    /// destination host's port is the header's last byte).
    pub segments: Vec<Segment>,
}

impl JourneyTemplate {
    /// Number of in-transit buffers in this template.
    pub fn num_itbs(&self) -> usize {
        self.segments.len() - 1
    }

    /// Total switch-to-switch links traversed.
    pub fn total_links(&self) -> usize {
        self.segments.iter().map(|s| s.len_links()).sum()
    }
}
