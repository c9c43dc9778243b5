//! Conversions between the paper's load metric — flits/ns/switch — and the
//! simulator's per-host message interarrival time in cycles.
//!
//! The paper measures both offered and accepted traffic in
//! **flits/ns/switch**: payload flits crossing the network per nanosecond,
//! normalised by the switch count. One flit is one byte; one link cycle is
//! 6.25 ns (160 MB/s).

/// Duration of one flit time on a Myrinet link, in nanoseconds.
pub const CYCLE_NS: f64 = 6.25;

/// Mean cycles between message generations at one host for a target offered
/// load (flits/ns/switch). Every host generates at the same constant rate
/// (paper, section 4.2).
pub fn interarrival_cycles(
    load: f64,
    n_switches: usize,
    n_hosts: usize,
    payload_flits: usize,
) -> f64 {
    assert!(load > 0.0 && n_switches > 0 && n_hosts > 0 && payload_flits > 0);
    // load * S = network flits/ns; per host msgs/ns = load*S/(H*P);
    // interarrival ns = H*P/(load*S); cycles = ns / CYCLE_NS.
    (n_hosts * payload_flits) as f64 / (load * n_switches as f64) / CYCLE_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        // Offer 0.015 flits/ns/switch on the paper's torus (64 switches,
        // 512 hosts, 512-flit messages).
        let ia = interarrival_cycles(0.015, 64, 512, 512);
        // Per-host rate back to load:
        let msgs_per_cycle_per_host = 1.0 / ia;
        let flits_per_ns = msgs_per_cycle_per_host * 512.0 * 512.0 / CYCLE_NS;
        let load = flits_per_ns / 64.0;
        assert!((load - 0.015).abs() < 1e-12);
    }

    #[test]
    fn paper_magnitudes() {
        // At UP/DOWN saturation (0.015) each of 512 hosts sends one 512-flit
        // message roughly every 273k ns => ~43.7k cycles... check magnitude:
        let ia = interarrival_cycles(0.015, 64, 512, 512);
        // H*P/(L*S) = 512*512/(0.015*64) = 273066 ns = 43690 cycles.
        assert!((ia - 43690.0).abs() / 43690.0 < 1e-3, "{ia}");
    }
}
