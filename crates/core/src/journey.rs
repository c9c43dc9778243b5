//! Multi-segment source routes ("journeys") and their wire format.
//!
//! A journey is the complete trip of a packet from its source host to its
//! destination host. Under plain up\*/down\* routing it has a single
//! segment; under the ITB mechanism it may have several, each ending at an
//! in-transit host that ejects and re-injects the packet.
//!
//! ## Wire format
//!
//! A Myrinet packet header is an ordered list of output-port bytes (one
//! consumed per switch) followed by a type byte. The ITB mechanism inserts
//! an *ITB mark* in front of each in-transit segment boundary, so the header
//! of a 2-segment journey looks like:
//!
//! ```text
//! [seg0 port bytes…][ITB mark][seg1 port bytes…][type] [payload…]
//! ```
//!
//! Every switch consumes one port byte; the in-transit host consumes the
//! ITB mark before re-injection. This module does the flit accounting that
//! the simulator relies on.

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

/// One up\*/down\*-legal leg of a journey.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Switches traversed by this segment, in order. The first segment
    /// starts at the source host's switch; later segments start at the
    /// previous in-transit host's switch.
    pub switches: Vec<SwitchId>,
    /// Output-port bytes, one per switch in `switches`. The final byte
    /// addresses the segment's end host (in-transit host or destination).
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

/// A fully materialised source route from one host to another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Journey {
    pub src: HostId,
    pub dst: HostId,
    pub segments: Vec<Segment>,
}

impl Journey {
    /// Number of in-transit buffer hops used.
    pub fn num_itbs(&self) -> usize {
        self.segments.len() - 1
    }

    /// Total switch-to-switch links traversed across all segments.
    pub fn total_links(&self) -> usize {
        self.segments.iter().map(|s| s.len_links()).sum()
    }

    /// Total header flits at injection time: every port byte, one ITB mark
    /// per in-transit segment boundary and the final type byte.
    pub fn header_flits_at_injection(&self) -> usize {
        self.header_flits_entering_segment(0)
    }

    /// Header flits still present when the packet starts segment `i`
    /// (after the in-transit host has stripped the ITB mark).
    pub fn header_flits_entering_segment(&self, i: usize) -> usize {
        let ports: usize = self.segments[i..].iter().map(|s| s.ports.len()).sum();
        let marks = self.segments.len() - 1 - i;
        ports + marks + 1 // + type byte
    }

    /// Total wire length (header + payload) when the packet starts
    /// segment `i`.
    pub fn wire_len_entering_segment(&self, i: usize, payload_flits: usize) -> usize {
        self.header_flits_entering_segment(i) + payload_flits
    }

    /// Wire length as received at the end host of segment `i`: the segment's
    /// own port bytes have been consumed by its switches.
    pub fn wire_len_at_segment_end(&self, i: usize, payload_flits: usize) -> usize {
        self.wire_len_entering_segment(i, payload_flits) - self.segments[i].ports.len()
    }

    /// Sanity-check structural invariants (used by tests and debug builds).
    pub fn validate(&self) -> Result<(), String> {
        if self.segments.is_empty() {
            return Err("journey has no segments".into());
        }
        for (i, seg) in self.segments.iter().enumerate() {
            if seg.switches.is_empty() {
                return Err(format!("segment {i} visits no switch"));
            }
            if seg.ports.len() != seg.switches.len() {
                return Err(format!(
                    "segment {i}: {} ports for {} switches",
                    seg.ports.len(),
                    seg.switches.len()
                ));
            }
            let is_last = i == self.segments.len() - 1;
            match (is_last, seg.end) {
                (true, SegmentEnd::Deliver) | (false, SegmentEnd::Itb(_)) => {}
                (true, SegmentEnd::Itb(_)) => {
                    return Err("final segment must deliver".into());
                }
                (false, SegmentEnd::Deliver) => {
                    return Err(format!("non-final segment {i} marked Deliver"));
                }
            }
        }
        Ok(())
    }
}

/// A journey *template*: everything about a route except the destination
/// host's port byte, which is appended when the route is materialised for a
/// concrete destination host. Templates are shared by all host pairs that
/// live on the same ordered switch pair, which keeps the route database
/// small (switch-pair count, not host-pair count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JourneyTemplate {
    /// All segments; the final segment's `ports` is one byte *short* (the
    /// destination host port is appended at materialisation).
    pub segments: Vec<Segment>,
}

impl JourneyTemplate {
    /// Materialise the template for a concrete host pair.
    ///
    /// `dst_port` is the destination host's port on the final switch.
    pub fn materialise(&self, src: HostId, dst: HostId, dst_port: Port) -> Journey {
        let mut segments = self.segments.clone();
        let last = segments.last_mut().expect("template has segments");
        last.ports.push(dst_port);
        Journey { src, dst, segments }
    }

    /// Number of in-transit buffers in this template.
    pub fn num_itbs(&self) -> usize {
        self.segments.len() - 1
    }

    /// Total switch-to-switch links traversed.
    pub fn total_links(&self) -> usize {
        self.segments.iter().map(|s| s.len_links()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_segment_journey() -> Journey {
        Journey {
            src: HostId(0),
            dst: HostId(9),
            segments: vec![
                Segment {
                    switches: vec![SwitchId(0), SwitchId(1), SwitchId(2)],
                    ports: vec![Port(1), Port(2), Port(9)],
                    end: SegmentEnd::Itb(HostId(4)),
                },
                Segment {
                    switches: vec![SwitchId(2), SwitchId(3)],
                    ports: vec![Port(0), Port(8)],
                    end: SegmentEnd::Deliver,
                },
            ],
        }
    }

    #[test]
    fn header_accounting() {
        let j = two_segment_journey();
        // 5 port bytes + 1 ITB mark + 1 type byte.
        assert_eq!(j.header_flits_at_injection(), 7);
        // After the ITB strips its mark: 2 port bytes + type.
        assert_eq!(j.header_flits_entering_segment(1), 3);
        // Entering the wire with a 512-flit payload:
        assert_eq!(j.wire_len_entering_segment(0, 512), 519);
        // Arriving at the ITB host: segment 0's three port bytes consumed.
        assert_eq!(j.wire_len_at_segment_end(0, 512), 516);
        // Arriving at the destination: header fully consumed except type.
        assert_eq!(j.wire_len_at_segment_end(1, 512), 513);
    }

    #[test]
    fn counts() {
        let j = two_segment_journey();
        assert_eq!(j.num_itbs(), 1);
        assert_eq!(j.total_links(), 3);
        assert_eq!(j.segments[0].end, SegmentEnd::Itb(HostId(4)));
        assert!(j.validate().is_ok());
    }

    #[test]
    fn single_segment_journey() {
        let j = Journey {
            src: HostId(0),
            dst: HostId(1),
            segments: vec![Segment {
                switches: vec![SwitchId(0)],
                ports: vec![Port(3)],
                end: SegmentEnd::Deliver,
            }],
        };
        assert_eq!(j.num_itbs(), 0);
        assert_eq!(j.total_links(), 0);
        assert_eq!(j.header_flits_at_injection(), 2); // port + type
        assert!(j.validate().is_ok());
    }

    #[test]
    fn validation_catches_malformed_journeys() {
        let mut j = two_segment_journey();
        j.segments[0].end = SegmentEnd::Deliver;
        assert!(j.validate().is_err());

        let mut j = two_segment_journey();
        j.segments[1].end = SegmentEnd::Itb(HostId(2));
        assert!(j.validate().is_err());

        let mut j = two_segment_journey();
        j.segments[0].ports.pop();
        assert!(j.validate().is_err());

        let j = Journey {
            src: HostId(0),
            dst: HostId(0),
            segments: vec![],
        };
        assert!(j.validate().is_err());
    }

    #[test]
    fn template_materialisation() {
        let t = JourneyTemplate {
            segments: vec![Segment {
                switches: vec![SwitchId(0), SwitchId(1)],
                ports: vec![Port(1)], // one short: dst port appended later
                end: SegmentEnd::Deliver,
            }],
        };
        let j = t.materialise(HostId(0), HostId(3), Port(7));
        assert_eq!(j.segments[0].ports, vec![Port(1), Port(7)]);
        assert!(j.validate().is_ok());
        assert_eq!(t.num_itbs(), 0);
        assert_eq!(t.total_links(), 1);
    }
}
