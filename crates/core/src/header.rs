//! The packet header a source writes: the wire format of a route.
//!
//! A Myrinet packet header is an ordered list of output-port bytes (one
//! consumed per switch) followed by a type byte. The ITB mechanism writes
//! an *ITB mark* after each in-transit segment, so the header of a
//! 2-segment route looks like:
//!
//! ```text
//! [seg0 port bytes…][ITB mark][seg1 port bytes…][type] [payload…]
//! ```
//!
//! A segment's last port byte addresses the host it ends at: the
//! in-transit host or the destination. Every switch consumes one port
//! byte; the in-transit host's NIC consumes the mark before re-injection.
//! The type byte is not stored: every header has one.

use regnet_topology::{HostId, Port, PortTarget, Topology};

/// The byte that ends an in-transit segment. No port byte can equal it:
/// a switch has at most 255 ports, numbered from 0.
pub const ITB_MARK: Port = Port(255);

/// The route bytes of one packet: port bytes and ITB marks, the type byte
/// left out. [`RouteDb::select`](crate::RouteDb::select) writes one per
/// message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header(Box<[Port]>);

impl Header {
    /// A header from its bytes, marks included.
    pub fn new(bytes: Vec<Port>) -> Header {
        Header(bytes.into_boxed_slice())
    }

    /// The port bytes and marks, in the order switches and NICs read them.
    pub fn bytes(&self) -> &[Port] {
        &self.0
    }

    /// In-transit buffers on the route: one per mark.
    pub fn num_itbs(&self) -> usize {
        self.0.iter().filter(|&&p| p == ITB_MARK).count()
    }

    /// The port bytes of each segment, in travel order.
    pub fn segments(&self) -> impl Iterator<Item = &[Port]> {
        self.0.split(|&p| p == ITB_MARK)
    }

    /// Flits that reach the next receiver once `pos` header bytes have
    /// been consumed: the bytes left, the type byte and the payload.
    #[inline]
    pub fn flits_from(&self, pos: usize, payload_flits: usize) -> usize {
        self.0.len() - pos + 1 + payload_flits
    }

    /// Header flits still present when the packet starts segment `i`
    /// (after the in-transit host has stripped the ITB mark): the bytes of
    /// segment `i` and of each later one, each followed by a mark or the
    /// type byte.
    pub fn header_flits_entering_segment(&self, i: usize) -> usize {
        self.segments().skip(i).map(|s| s.len() + 1).sum()
    }

    /// Wire length (header + payload) as received at the end host of
    /// segment `i`: the segment's own port bytes have been consumed.
    pub fn wire_len_at_segment_end(&self, i: usize, payload_flits: usize) -> usize {
        self.header_flits_entering_segment(i + 1) + 1 + payload_flits
    }

    /// The hosts the header takes a packet from `src` to, walked on
    /// `topo`: each in-transit host, then the destination. A segment's
    /// last byte must lead to a host, every other byte to a switch, and
    /// the segment after a mark starts at that host's switch. The
    /// simulator reads bytes only; tests check with this what they say.
    pub fn walk(&self, topo: &Topology, src: HostId) -> Result<Vec<HostId>, String> {
        let mut at = topo.host_switch(src);
        let mut hosts = Vec::new();
        for (si, seg) in self.segments().enumerate() {
            for (i, &p) in seg.iter().enumerate() {
                match (topo.port_target(at, p), i + 1 == seg.len()) {
                    (Some(PortTarget::Switch { to, .. }), false) => at = to,
                    (Some(PortTarget::Host { host, .. }), true) => {
                        hosts.push(host);
                        at = topo.host_switch(host);
                    }
                    (_, last) => {
                        let to = if last { "host" } else { "switch" };
                        return Err(format!(
                            "segment {si} byte {i}: {p} of {at} leads to no {to}"
                        ));
                    }
                }
            }
            if hosts.len() == si {
                return Err(format!("segment {si} has no port byte"));
            }
        }
        Ok(hosts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three port bytes to an in-transit host, then two to the
    /// destination.
    fn two_segments() -> Header {
        Header::new([1, 2, 9, 255, 0, 8].map(Port).to_vec())
    }

    #[test]
    fn header_accounting() {
        let h = two_segments();
        // 5 port bytes + 1 ITB mark + 1 type byte.
        assert_eq!(h.header_flits_entering_segment(0), 7);
        // After the ITB strips its mark: 2 port bytes + type.
        assert_eq!(h.header_flits_entering_segment(1), 3);
        // Entering the wire with a 512-flit payload:
        assert_eq!(h.flits_from(0, 512), 519);
        // Arriving at the ITB host: segment 0's three port bytes consumed.
        assert_eq!(h.wire_len_at_segment_end(0, 512), 516);
        // Arriving at the destination: header fully consumed except type.
        assert_eq!(h.wire_len_at_segment_end(1, 512), 513);
    }

    #[test]
    fn counts() {
        let h = two_segments();
        assert_eq!(h.num_itbs(), 1);
        let segs: Vec<&[Port]> = h.segments().collect();
        assert_eq!(
            segs,
            [&[Port(1), Port(2), Port(9)][..], &[Port(0), Port(8)]]
        );

        // One switch, straight to the destination: port + type.
        let h = Header::new(vec![Port(3)]);
        assert_eq!(h.num_itbs(), 0);
        assert_eq!(h.header_flits_entering_segment(0), 2);
    }

    #[test]
    fn the_cursor_counts_what_is_left_to_arrive() {
        let h = Header::new([1, 9, 255, 0, 8].map(Port).to_vec());
        // Header: 4 ports + 1 mark + 1 type = 6; wire = 70.
        assert_eq!(h.flits_from(0, 64), 70);
        // Each switch consumes one byte.
        assert_eq!(h.flits_from(1, 64), 69);
        // Arriving at the ITB host: 68 flits (mark + seg1 header + type +
        // payload), the next byte the mark.
        assert_eq!((h.flits_from(2, 64), h.bytes()[2]), (68, ITB_MARK));
        // The ITB strips the mark and the packet enters segment 1.
        assert_eq!(h.flits_from(3, 64), 67);
        assert_eq!(h.flits_from(3, 64), h.header_flits_entering_segment(1) + 64);
        // At the destination only the type byte and the payload are left.
        assert_eq!(h.flits_from(5, 64), h.wire_len_at_segment_end(1, 64));
    }
}
