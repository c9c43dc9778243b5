//! Simulation parameters. Defaults are the Myrinet figures from the paper's
//! sections 4.3–4.5.

/// Nanoseconds per cycle: one flit per link per cycle at 160 MB/s with
/// one-byte flits.
pub const CYCLE_NS: f64 = 6.25;

/// All timing and sizing parameters of the simulated hardware.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Payload flits (= bytes) per message. The paper evaluates 32, 512 and
    /// 1024 and reports 512. A message is one packet. Every host generates
    /// at the same constant rate, with a random initial phase.
    pub payload_flits: usize,
    /// Cable pipeline depth in flits. 10 m LAN cable at 4.92 ns/m ≈ 8 flit
    /// times ("there will be a maximum of 8 flits on the link").
    pub link_delay_cycles: u32,
    /// Slack buffer size per switch input, flits (Myrinet: 80 bytes).
    pub slack_buffer_flits: u16,
    /// Send STOP when the input buffer fills beyond this (56 bytes).
    pub stop_threshold: u16,
    /// Send GO when the input buffer drains below this (40 bytes).
    pub go_threshold: u16,
    /// First-flit routing latency through a switch (150 ns = 24 cycles).
    pub switch_routing_cycles: u32,
    /// Cycles to recognise an in-transit packet at the NIC (275 ns = 44
    /// bytes received).
    pub itb_detect_cycles: u32,
    /// Cycles to program the re-injection DMA (200 ns = 32 further bytes).
    pub itb_dma_cycles: u32,
    /// Capacity of the in-transit buffer pool per NIC, in flits (90 KB).
    pub itb_pool_flits: u32,
    /// Extra delay when an in-transit packet overflows to host memory
    /// ("considerably increasing the overhead"; default 1 µs = 160 cycles).
    pub itb_overflow_penalty_cycles: u32,
    /// Give re-injected packets priority over locally generated ones at the
    /// NIC output ("the in-transit host will re-inject packets as soon as
    /// possible").
    pub itb_priority: bool,
    /// Re-inject with cut-through (start before the tail has arrived); when
    /// false the NIC stores the whole packet first (ablation).
    pub itb_cut_through: bool,
    /// Cap on locally queued messages per host; beyond it, generation stalls
    /// (only relevant beyond saturation; keeps overload runs bounded).
    pub source_queue_cap: usize,
    /// Abort if no flit moves for this many cycles while packets are in
    /// flight — a deadlock would be a simulator or routing bug.
    pub watchdog_cycles: u64,
    /// Send-timeout: cycles after a packet is lost to a fault before its
    /// source NIC retransmits it (the Myrinet control program's end-to-end
    /// recovery).
    pub retransmit_timeout_cycles: u64,
    /// Per-packet retry budget; once exhausted the packet is dropped and
    /// counted in `ReliabilityStats::dropped_packets`.
    pub max_retransmits: u32,
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
            link_delay_cycles: 8,
            slack_buffer_flits: 80,
            stop_threshold: 56,
            go_threshold: 40,
            switch_routing_cycles: 24,
            itb_detect_cycles: 44,
            itb_dma_cycles: 32,
            itb_pool_flits: 90 * 1024,
            itb_overflow_penalty_cycles: 160,
            itb_priority: true,
            itb_cut_through: true,
            source_queue_cap: 512,
            watchdog_cycles: 2_000_000,
            retransmit_timeout_cycles: 4_096,
            max_retransmits: 16,
            reconfig_latency_cycles: 16_000,
        }
    }
}

impl SimConfig {
    /// Validate parameter consistency (e.g. the stop margin must fit in the
    /// slack buffer given the round-trip flits in flight).
    pub fn validate(&self) -> Result<(), String> {
        if self.payload_flits == 0 {
            return Err("payload_flits must be positive".into());
        }
        if self.link_delay_cycles == 0 {
            return Err("link_delay_cycles must be positive".into());
        }
        if self.stop_threshold >= self.slack_buffer_flits {
            return Err("stop threshold must be below the slack buffer size".into());
        }
        if self.go_threshold >= self.stop_threshold {
            return Err("go threshold must be below the stop threshold".into());
        }
        if self.retransmit_timeout_cycles == 0 {
            return Err("retransmit_timeout_cycles must be positive".into());
        }
        // After STOP is emitted, up to 2*link_delay more flits may arrive
        // (flits in flight plus flits sent while STOP crosses the cable).
        let margin = self.slack_buffer_flits - self.stop_threshold;
        if (margin as u32) < 2 * self.link_delay_cycles {
            return Err(format!(
                "slack margin {margin} cannot absorb 2x link delay {}",
                self.link_delay_cycles
            ));
        }
        Ok(())
    }

    /// Convert cycles to nanoseconds.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 * CYCLE_NS
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
        // 150 ns at 6.25 ns/cycle.
        assert_eq!(c.switch_routing_cycles, 24);
        // 275 ns and 200 ns.
        assert_eq!(c.itb_detect_cycles, 44);
        assert_eq!(c.itb_dma_cycles, 32);
        assert_eq!(c.itb_pool_flits, 92_160);
        assert_eq!(c.slack_buffer_flits, 80);
        assert_eq!((c.stop_threshold, c.go_threshold), (56, 40));
    }

    #[test]
    fn validation_catches_bad_configs() {
        let bad = [
            SimConfig {
                stop_threshold: 90,
                ..SimConfig::default()
            },
            SimConfig {
                go_threshold: 60,
                ..SimConfig::default()
            },
            SimConfig {
                payload_flits: 0,
                ..SimConfig::default()
            },
            // 2*20 > 80-56: STOP cannot protect the slack buffer.
            SimConfig {
                link_delay_cycles: 20,
                ..SimConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?} should be rejected");
        }
    }

    #[test]
    fn cycle_conversion() {
        let c = SimConfig::default();
        assert_eq!(c.cycles_to_ns(24), 150.0);
        assert_eq!(c.cycles_to_ns(44), 275.0);
        assert_eq!(c.cycles_to_ns(32), 200.0);
    }
}
