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

use regnet_topology::{HostId, Port, PortTarget, SwitchId, Topology};

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
        hosts_reached(topo, topo.host_switch(src), &self.0, false).map(|(hosts, _)| hosts)
    }
}

/// The rule [`Header::walk`] and
/// [`RouteDb::from_templates`](crate::RouteDb::from_templates) read port
/// bytes by: `bytes`, marks included, walked on `topo` from switch
/// `start`. Every segment has a byte; its last byte leads to a host and
/// every other byte to a switch. Returns the hosts reached, in order, and
/// the switch the walk ends at. With `short`, the bytes are a route's as a
/// table stores them: the delivering segment is one byte short (the
/// destination's port is written per host pair), so it ends at a switch
/// and may have no byte.
pub(crate) fn hosts_reached(
    topo: &Topology,
    start: SwitchId,
    bytes: &[Port],
    short: bool,
) -> Result<(Vec<HostId>, SwitchId), String> {
    let mut hops = PortWalk::new(topo, start, bytes.iter().copied());
    let (mut hosts, marks) = (Vec::new(), bytes.iter().filter(|&&p| p == ITB_MARK).count());
    for (si, seg) in bytes.split(|&p| p == ITB_MARK).enumerate() {
        let to_host = !short || si < marks;
        if seg.is_empty() && to_host {
            return Err(format!("segment {si} has no port byte"));
        }
        for (i, hop) in hops.by_ref().take(seg.len()).enumerate() {
            let (at, p, to) = match hop {
                Ok(hop) => (hop.at, hop.port, Some(hop.to)),
                Err(end) => (end.at, end.port, None),
            };
            match (to, to_host && i + 1 == seg.len()) {
                (Some(PortTarget::Switch { .. }), false) => {}
                (Some(PortTarget::Host { host, .. }), true) => hosts.push(host),
                (_, last) => {
                    let to = if last { "host" } else { "switch" };
                    return Err(format!(
                        "segment {si} byte {i}: {p} of {at} leads to no {to}"
                    ));
                }
            }
        }
    }
    Ok((hosts, hops.at))
}

/// One port byte read on a walk: the switch that reads it, the byte, and
/// what the byte's port leads to. A [`PortTarget::Switch`] names its link,
/// so the directed channel `at → to` follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    pub at: SwitchId,
    pub port: Port,
    pub to: PortTarget,
}

/// A port byte that leads nowhere: byte `byte` of segment `seg` (counted
/// from 0, marks between segments), read at switch `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadEnd {
    pub seg: usize,
    pub byte: usize,
    pub at: SwitchId,
    pub port: Port,
}

impl std::fmt::Display for DeadEnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let DeadEnd { seg, byte, .. } = self;
        write!(
            f,
            "segment {seg} byte {byte}: {} of {} leads nowhere",
            self.port, self.at
        )
    }
}

/// Port bytes walked on a topology from a start switch: a [`Hop`] per
/// byte, or a [`DeadEnd`] where a byte leads nowhere (readers stop
/// there). A byte that reaches a host leaves the walk at that host's
/// switch, so the segment after an ITB mark starts where its in-transit
/// host is attached; the mark itself yields nothing. The one place outside
/// the simulator's switches that maps a port byte to where it leads.
#[derive(Debug, Clone)]
pub struct PortWalk<'t, I> {
    topo: &'t Topology,
    at: SwitchId,
    seg: usize,
    byte: usize,
    bytes: I,
}

impl<'t, I: Iterator<Item = Port>> PortWalk<'t, I> {
    /// Walk `bytes`, marks allowed, on `topo` from switch `start`.
    pub fn new(
        topo: &'t Topology,
        start: SwitchId,
        bytes: impl IntoIterator<IntoIter = I>,
    ) -> PortWalk<'t, I> {
        PortWalk {
            topo,
            at: start,
            seg: 0,
            byte: 0,
            bytes: bytes.into_iter(),
        }
    }
}

impl<I: Iterator<Item = Port>> Iterator for PortWalk<'_, I> {
    type Item = Result<Hop, DeadEnd>;

    fn next(&mut self) -> Option<Result<Hop, DeadEnd>> {
        let mut port = self.bytes.next()?;
        while port == ITB_MARK {
            (self.seg, self.byte) = (self.seg + 1, 0);
            port = self.bytes.next()?;
        }
        let (at, byte) = (self.at, self.byte);
        self.byte += 1;
        let Some(to) = self.topo.port_target(at, port) else {
            let seg = self.seg;
            return Some(Err(DeadEnd {
                seg,
                byte,
                at,
                port,
            }));
        };
        self.at = match to {
            PortTarget::Switch { to, .. } => to,
            PortTarget::Host { host, .. } => self.topo.host_switch(host),
        };
        Some(Ok(Hop { at, port, to }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regnet_topology::TopologyBuilder;

    /// Two switches joined by one link; two hosts on switch 0, one on
    /// switch 1. Returns the topology, the link's port on each switch and
    /// the hosts' ports.
    fn line() -> (Topology, [Port; 2], [Port; 3]) {
        let mut b = TopologyBuilder::new("line", 8);
        b.add_switches(2);
        b.connect(SwitchId(0), SwitchId(1)).unwrap();
        for s in [0, 0, 1] {
            b.attach_host(SwitchId(s)).unwrap();
        }
        let topo = b.build().unwrap();
        let link = [(0, 1), (1, 0)].map(|(a, b)| topo.port_to(SwitchId(a), SwitchId(b)).unwrap());
        let hosts = [0, 1, 2].map(|h| topo.host_port(HostId(h)));
        (topo, link, hosts)
    }

    #[test]
    fn the_walk_reads_each_byte_where_the_one_before_led() {
        let (topo, [out, back], [h0, h1, h2]) = line();
        // To host 1, then (after the mark, from host 1's switch) over the
        // link to host 2.
        let bytes = [h1, ITB_MARK, out, h2];
        let hops: Vec<Hop> = PortWalk::new(&topo, SwitchId(0), bytes)
            .map(Result::unwrap)
            .collect();
        let at_ports: Vec<(SwitchId, Port)> = hops.iter().map(|h| (h.at, h.port)).collect();
        assert_eq!(
            at_ports,
            [(SwitchId(0), h1), (SwitchId(0), out), (SwitchId(1), h2)]
        );
        assert!(matches!(
            hops[0].to,
            PortTarget::Host {
                host: HostId(1),
                ..
            }
        ));
        assert!(matches!(
            hops[1].to,
            PortTarget::Switch { to: SwitchId(1), to_port, .. } if to_port == back
        ));
        assert!(matches!(
            hops[2].to,
            PortTarget::Host {
                host: HostId(2),
                ..
            }
        ));
        // A port nothing is attached to is a dead end that names its
        // segment and byte; so is a mark where a port byte is due.
        let mut walk = PortWalk::new(&topo, SwitchId(1), [back, h0, ITB_MARK, Port(7)]);
        assert!(walk.next().unwrap().is_ok() && walk.next().unwrap().is_ok());
        let end = walk.next().unwrap().unwrap_err();
        let want = DeadEnd {
            seg: 1,
            byte: 0,
            at: SwitchId(0),
            port: Port(7),
        };
        assert_eq!(end, want);
        assert_eq!(end.to_string(), "segment 1 byte 0: p7 of s0 leads nowhere");
    }

    #[test]
    fn header_walk_names_the_byte_that_goes_astray() {
        let (topo, [out, _], [_, h1, h2]) = line();
        let walk = |bytes: &[Port]| Header::new(bytes.to_vec()).walk(&topo, HostId(0));
        assert_eq!(
            walk(&[h1, ITB_MARK, out, h2]),
            Ok(vec![HostId(1), HostId(2)])
        );
        let errors = [
            (&[out][..], "segment 0 byte 0: p0 of s0 leads to no host"),
            (&[h1, h2], "segment 0 byte 0: p2 of s0 leads to no switch"),
            (
                &[out, Port(7)],
                "segment 0 byte 1: p7 of s1 leads to no host",
            ),
            (
                &[h1, ITB_MARK, ITB_MARK, out, h2],
                "segment 1 has no port byte",
            ),
            (&[h1, ITB_MARK], "segment 1 has no port byte"),
        ];
        for (bytes, want) in errors {
            assert_eq!(walk(bytes), Err(want.to_string()), "{bytes:?}");
        }
    }

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
