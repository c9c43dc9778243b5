//! Simulation parameters. The Myrinet hardware figures of the paper's
//! sections 4.3–4.5 are constants; [`SimConfig`] holds the values an
//! experiment varies, with the paper's figures as defaults.

pub use regnet_traffic::CYCLE_NS;

/// Cable pipeline depth in flits. 10 m LAN cable at 4.92 ns/m ≈ 8 flit
/// times ("there will be a maximum of 8 flits on the link").
pub(crate) const LINK_DELAY_CYCLES: u32 = 8;
/// Slack buffer size per switch input, flits (Myrinet: 80 bytes).
pub(crate) const SLACK_BUFFER_FLITS: u16 = 80;
/// Send STOP when the input buffer fills beyond this (56 bytes).
pub(crate) const STOP_THRESHOLD: u16 = 56;
/// Send GO when the input buffer drains below this (40 bytes).
pub(crate) const GO_THRESHOLD: u16 = 40;
/// First-flit routing latency through a switch (150 ns = 24 cycles).
pub(crate) const SWITCH_ROUTING_CYCLES: u64 = 24;
/// Cycles to recognise an in-transit packet at the NIC (275 ns = 44
/// bytes received).
pub(crate) const ITB_DETECT_CYCLES: u64 = 44;
/// Cycles to program the re-injection DMA (200 ns = 32 further bytes).
pub(crate) const ITB_DMA_CYCLES: u64 = 32;
/// Extra delay when an in-transit packet overflows to host memory
/// ("considerably increasing the overhead"; 1 µs = 160 cycles).
pub(crate) const ITB_OVERFLOW_PENALTY_CYCLES: u64 = 160;
/// Cap on locally queued messages per host; beyond it, generation stalls
/// (only relevant beyond saturation; keeps overload runs bounded).
pub(crate) const SOURCE_QUEUE_CAP: usize = 512;
/// Per-packet retry budget; once exhausted the packet is dropped and
/// counted in `ReliabilityStats::dropped_packets`.
pub(crate) const MAX_RETRANSMITS: u32 = 16;

// Stop&go must order its thresholds inside the slack buffer, and after
// STOP is emitted up to 2 × link delay more flits may arrive (flits in
// flight plus flits sent while STOP crosses the cable): the margin above
// the STOP threshold must absorb them.
const _: () = assert!(GO_THRESHOLD < STOP_THRESHOLD && STOP_THRESHOLD < SLACK_BUFFER_FLITS);
const _: () = assert!((SLACK_BUFFER_FLITS - STOP_THRESHOLD) as u32 >= 2 * LINK_DELAY_CYCLES);

/// Largest accepted [`SimConfig::payload_flits`] (2^30, far above the
/// paper's 32–1024 bytes). It keeps every packet and wire length exact in
/// the simulator's 32-bit flit counts.
pub const MAX_PAYLOAD_FLITS: usize = 1 << 30;

/// The settable parameters of the simulated hardware.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Payload flits (= bytes) per message. The paper evaluates 32, 512 and
    /// 1024 and reports 512. A message is one packet. Every host generates
    /// at the same constant rate, with a random initial phase.
    pub payload_flits: usize,
    /// Capacity of the in-transit buffer pool per NIC, in flits (90 KB).
    pub itb_pool_flits: u32,
    /// Give re-injected packets priority over locally generated ones at the
    /// NIC output ("the in-transit host will re-inject packets as soon as
    /// possible").
    pub itb_priority: bool,
    /// Re-inject with cut-through (start before the tail has arrived); when
    /// false the NIC stores the whole packet first (ablation).
    pub itb_cut_through: bool,
    /// Abort if no flit moves for this many cycles while packets are in
    /// flight — a deadlock would be a simulator or routing bug.
    pub watchdog_cycles: u64,
    /// Send-timeout: cycles after a packet is lost to a fault before its
    /// source NIC retransmits it (the Myrinet control program's end-to-end
    /// recovery).
    pub retransmit_timeout_cycles: u64,
    /// Cycles between a fault and the re-mapped routing tables taking
    /// effect (discovery + route distribution; sources stall meanwhile).
    /// The default 16 000 cycles = 100 µs is optimistic but keeps the
    /// degradation visible at simulation timescales.
    pub reconfig_latency_cycles: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            payload_flits: 512,
            itb_pool_flits: 90 * 1024,
            itb_priority: true,
            itb_cut_through: true,
            watchdog_cycles: 2_000_000,
            retransmit_timeout_cycles: 4_096,
            reconfig_latency_cycles: 16_000,
        }
    }
}

impl SimConfig {
    /// Validate parameter consistency.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=MAX_PAYLOAD_FLITS).contains(&self.payload_flits) {
            return Err(format!("payload_flits must be in 1..={MAX_PAYLOAD_FLITS}"));
        }
        if self.retransmit_timeout_cycles == 0 {
            return Err("retransmit_timeout_cycles must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper() {
        let c = SimConfig::default();
        c.validate().unwrap();
        assert_eq!(c.payload_flits, 512);
        assert_eq!(c.itb_pool_flits, 92_160);
        // 150 ns at 6.25 ns/cycle.
        assert_eq!(SWITCH_ROUTING_CYCLES, 24);
        assert_eq!(SWITCH_ROUTING_CYCLES as f64 * CYCLE_NS, 150.0);
        // 275 ns and 200 ns.
        assert_eq!((ITB_DETECT_CYCLES, ITB_DMA_CYCLES), (44, 32));
        assert_eq!(ITB_DETECT_CYCLES as f64 * CYCLE_NS, 275.0);
        assert_eq!(ITB_DMA_CYCLES as f64 * CYCLE_NS, 200.0);
        assert_eq!(SLACK_BUFFER_FLITS, 80);
        assert_eq!((STOP_THRESHOLD, GO_THRESHOLD), (56, 40));
        assert_eq!(LINK_DELAY_CYCLES, 8);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let bad = [
            SimConfig {
                payload_flits: 0,
                ..SimConfig::default()
            },
            SimConfig {
                payload_flits: MAX_PAYLOAD_FLITS + 1,
                ..SimConfig::default()
            },
            // Stored as `payload as u32`, this ran 512-flit packets.
            SimConfig {
                payload_flits: (1 << 32) + 512,
                ..SimConfig::default()
            },
            SimConfig {
                retransmit_timeout_cycles: 0,
                ..SimConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?} should be rejected");
        }
        let largest = SimConfig {
            payload_flits: MAX_PAYLOAD_FLITS,
            ..SimConfig::default()
        };
        largest.validate().unwrap();
    }
}
