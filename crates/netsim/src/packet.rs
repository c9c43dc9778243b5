//! Packet state and the packet arena.

use regnet_core::Journey;

/// Sentinel for "no packet".
pub(crate) const NO_PACKET: u32 = u32::MAX;

/// A message in flight. One message = one packet (the paper's messages are
/// single packets of 32–1024 bytes), so the packet carries the message's
/// timestamps.
#[derive(Debug, PartialEq)]
pub(crate) struct Packet {
    pub journey: Journey,
    /// Payload flits.
    pub payload: u32,
    /// Current segment of the journey.
    pub seg: u8,
    /// Port bytes of the current segment already consumed by switches.
    pub hop: u8,
    /// Cycle the generator created the message.
    pub gen_cycle: u64,
    /// Cycle the first flit of the first transmission entered the network
    /// at the source NIC (`u64::MAX` until then). A retransmission keeps
    /// it, so network latency counts from the first attempt.
    pub first_inject: u64,
    /// In-transit buffers visited so far (reset by a retransmission).
    pub itbs_used: u8,
    /// Flits reserved in the in-transit pool of the NIC currently holding
    /// this packet (0 when it overflowed to host memory).
    pub pool_reserved: u32,
    /// Source retransmissions performed for this packet so far.
    pub retries: u32,
}

impl Packet {
    /// Wire length (flits) of this packet at the start of its current
    /// segment.
    pub(crate) fn wire_len_current_segment(&self) -> u32 {
        self.journey
            .wire_len_entering_segment(self.seg as usize, self.payload as usize) as u32
    }

    /// Flits that will arrive at the receiver the packet is currently
    /// heading into, given `hop` port bytes of the segment were consumed.
    pub(crate) fn expected_at_next_receiver(&self) -> u32 {
        self.wire_len_current_segment() - self.hop as u32
    }

    /// The output port the current switch must use, advancing the cursor.
    pub(crate) fn consume_port_byte(&mut self) -> u8 {
        let seg = &self.journey.segments[self.seg as usize];
        let p = seg.ports[self.hop as usize];
        self.hop += 1;
        p.0
    }

    /// Is the packet on its final segment?
    pub(crate) fn on_final_segment(&self) -> bool {
        self.seg as usize == self.journey.segments.len() - 1
    }
}

/// The packets in flight, in a slab: stable u32 ids, O(1) alloc/free,
/// freed slots reused last-freed-first (so the order of removals decides
/// every later id).
#[derive(Debug, PartialEq)]
pub(crate) struct PacketArena {
    slots: Vec<Option<Packet>>,
    free: Vec<u32>,
    live: usize,
}

impl PacketArena {
    pub(crate) fn new() -> PacketArena {
        PacketArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    pub(crate) fn insert(&mut self, p: Packet) -> u32 {
        self.live += 1;
        if let Some(id) = self.free.pop() {
            self.slots[id as usize] = Some(p);
            id
        } else {
            self.slots.push(Some(p));
            (self.slots.len() - 1) as u32
        }
    }

    pub(crate) fn remove(&mut self, id: u32) -> Packet {
        let p = self.slots[id as usize].take().expect("double free");
        self.live -= 1;
        self.free.push(id);
        p
    }

    #[inline]
    pub(crate) fn get(&self, id: u32) -> &Packet {
        self.slots[id as usize].as_ref().expect("stale id")
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, id: u32) -> &mut Packet {
        self.slots[id as usize].as_mut().expect("stale id")
    }

    /// Entries currently alive.
    pub(crate) fn live(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regnet_core::{Segment, SegmentEnd};
    use regnet_topology::{HostId, Port, SwitchId};

    fn packet() -> Packet {
        Packet {
            journey: Journey {
                src: HostId(0),
                dst: HostId(9),
                segments: vec![
                    Segment {
                        switches: vec![SwitchId(0), SwitchId(1)],
                        ports: vec![Port(1), Port(9)],
                        end: SegmentEnd::Itb(HostId(4)),
                    },
                    Segment {
                        switches: vec![SwitchId(1), SwitchId(2)],
                        ports: vec![Port(0), Port(8)],
                        end: SegmentEnd::Deliver,
                    },
                ],
            },
            payload: 64,
            seg: 0,
            hop: 0,
            gen_cycle: 0,
            first_inject: u64::MAX,
            itbs_used: 0,
            pool_reserved: 0,
            retries: 0,
        }
    }

    #[test]
    fn wire_accounting_follows_hops() {
        let mut p = packet();
        // Header: 4 ports + 1 mark + 1 type = 6; wire = 70.
        assert_eq!(p.wire_len_current_segment(), 70);
        assert_eq!(p.expected_at_next_receiver(), 70);
        assert_eq!(p.consume_port_byte(), 1);
        assert_eq!(p.expected_at_next_receiver(), 69);
        assert_eq!(p.consume_port_byte(), 9);
        // Arriving at the ITB host: 68 flits (mark + seg1 header + type + payload).
        assert_eq!(p.expected_at_next_receiver(), 68);
        assert!(!p.on_final_segment());
        // The ITB strips the mark and the packet enters segment 1.
        p.seg = 1;
        p.hop = 0;
        assert_eq!(p.wire_len_current_segment(), 67);
        assert!(p.on_final_segment());
    }

    #[test]
    fn arena_reuses_slots() {
        let mut a = PacketArena::new();
        let id0 = a.insert(packet());
        let id1 = a.insert(packet());
        assert_eq!(a.live(), 2);
        assert_ne!(id0, id1);
        a.remove(id0);
        assert_eq!(a.live(), 1);
        let id2 = a.insert(packet());
        assert_eq!(id2, id0, "slot should be reused");
        assert_eq!(a.get(id2).payload, 64);
        a.get_mut(id1).payload = 100;
        assert_eq!(a.get(id1).payload, 100);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn arena_catches_double_free() {
        let mut a = PacketArena::new();
        let id = a.insert(packet());
        a.remove(id);
        a.remove(id);
    }
}
