//! Packet state and the packet arena.

use regnet_core::{Header, ITB_MARK};
use regnet_topology::HostId;

/// Sentinel for "no packet".
pub(crate) const NO_PACKET: u32 = u32::MAX;

/// A message in flight. One message = one packet (the paper's messages are
/// single packets of 32–1024 bytes), so the packet carries the message's
/// timestamps.
#[derive(Debug, PartialEq)]
pub(crate) struct Packet {
    pub src: HostId,
    pub dst: HostId,
    /// The route header its source wrote.
    pub header: Header,
    /// Header bytes consumed so far, by switches and in-transit NICs.
    pub pos: u32,
    /// Payload flits.
    pub payload: u32,
    /// Cycle the generator created the message.
    pub gen_cycle: u64,
    /// Cycle the first flit of the first transmission entered the network
    /// at the source NIC (`u64::MAX` until then). A retransmission keeps
    /// it, so network latency counts from the first attempt.
    pub first_inject: u64,
    /// Flits reserved in the in-transit pool of the NIC currently holding
    /// this packet (0 when it overflowed to host memory).
    pub pool_reserved: u32,
    /// Source retransmissions performed for this packet so far.
    pub retries: u32,
}

impl Packet {
    /// Flits that will arrive at the receiver the packet is currently
    /// heading into: the header bytes not yet consumed, the type byte and
    /// the payload.
    #[inline]
    pub(crate) fn expected_at_next_receiver(&self) -> u32 {
        self.header
            .flits_from(self.pos as usize, self.payload as usize) as u32
    }

    /// The output port the current switch must use, advancing the cursor.
    #[inline]
    pub(crate) fn consume_port_byte(&mut self) -> u8 {
        let p = self.header.bytes()[self.pos as usize];
        self.pos += 1;
        p.0
    }

    /// Is the next header byte an ITB mark, so that the NIC the packet
    /// arrives at ejects it into its pool?
    pub(crate) fn at_itb_mark(&self) -> bool {
        self.header.bytes().get(self.pos as usize) == Some(&ITB_MARK)
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
    use regnet_topology::Port;

    fn packet() -> Packet {
        Packet {
            src: HostId(0),
            dst: HostId(9),
            header: Header::new([1, 9, 255, 0, 8].map(Port).to_vec()),
            pos: 0,
            payload: 64,
            gen_cycle: 0,
            first_inject: u64::MAX,
            pool_reserved: 0,
            retries: 0,
        }
    }

    #[test]
    fn the_cursor_reads_the_header() {
        let mut p = packet();
        assert_eq!(p.expected_at_next_receiver(), 70);
        assert_eq!(p.consume_port_byte(), 1);
        assert_eq!(p.consume_port_byte(), 9);
        // Arriving at the ITB host, which strips the mark.
        assert!(p.at_itb_mark());
        assert_eq!(p.expected_at_next_receiver(), 68);
        p.pos += 1;
        assert!(!p.at_itb_mark());
        assert_eq!((p.consume_port_byte(), p.consume_port_byte()), (0, 8));
        // At the destination: the type byte and the payload.
        assert!(!p.at_itb_mark());
        assert_eq!(p.expected_at_next_receiver(), 65);
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
