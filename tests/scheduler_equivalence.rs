//! Scheduler equivalence suite: the default engine — active set plus time
//! skipping — must be bit-identical to the full-scan oracle: same
//! `RunStats`, same unified counters, same delivered-message trace
//! digest, same exported Chrome trace, on every paper topology × routing
//! scheme, with and without faults.
//!
//! The proof obligations live in the shared harness
//! (`tests/common/mod.rs`); this file only enumerates the matrix points.

mod common;

use common::*;
use regnet::prelude::*;

#[test]
fn torus_updown_schedulers_agree() {
    assert_equivalent(torus, RoutingScheme::UpDown);
}

#[test]
fn torus_itb_sp_schedulers_agree() {
    assert_equivalent(torus, RoutingScheme::ItbSp);
}

#[test]
fn torus_itb_rr_schedulers_agree() {
    assert_equivalent(torus, RoutingScheme::ItbRr);
}

#[test]
fn express_updown_schedulers_agree() {
    assert_equivalent(express, RoutingScheme::UpDown);
}

#[test]
fn express_itb_sp_schedulers_agree() {
    assert_equivalent(express, RoutingScheme::ItbSp);
}

#[test]
fn express_itb_rr_schedulers_agree() {
    assert_equivalent(express, RoutingScheme::ItbRr);
}

#[test]
fn cplant_updown_schedulers_agree() {
    assert_equivalent(cplant, RoutingScheme::UpDown);
}

#[test]
fn cplant_itb_sp_schedulers_agree() {
    assert_equivalent(cplant, RoutingScheme::ItbSp);
}

#[test]
fn cplant_itb_rr_schedulers_agree() {
    assert_equivalent(cplant, RoutingScheme::ItbRr);
}

/// The channel table has no channel-count limit: a 24×24 torus with 8
/// hosts per switch has 11,520 directed channels, so each row's occupancy
/// bits need more than the one summary word that covers 4,096 channels.
#[test]
fn torus_24x24_above_4096_channels_schedulers_agree() {
    let torus_24x24 = || gen::torus_2d(24, 24, 8).unwrap();
    let stats = assert_equivalent_over(torus_24x24, RoutingScheme::UpDown, (500, 1_500));
    assert_eq!(stats.channel_busy.len(), 11_520);
    // Flits crossed channels in the third summary word (8,192 and up).
    assert!(stats.channel_busy[8_192..].iter().any(|&b| b > 0));
}

/// The matrix above runs 64-flit packets below saturation, where STOP
/// fires a few hundred times per window at most. Past the Fig. 7a knee,
/// with the paper's 512-flit packets, most senders are held by STOP: the
/// engine lets them sleep until GO, and that must change nothing.
#[test]
fn saturated_torus_itb_rr_schedulers_agree() {
    let stats = assert_equivalent_at(
        torus,
        RoutingScheme::ItbRr,
        (&SimConfig::default(), 0.045),
        (10_000, 20_000),
    );
    let stops = stats.counters.as_ref().map_or(0, |c| c.ctl_stops);
    assert!(stops >= 1_000, "STOP must fire often: {stops}");
}

/// Faults exercise the phase-0 control path (purge GO symbols delivered
/// the same cycle), the deferred loss replay after NIC transmission, the
/// retransmission wake-ups and the time skip's fault/reconfiguration
/// time sources; engine and oracle must agree there too, on every paper
/// topology × routing scheme.
#[test]
fn faulted_torus_updown_schedulers_agree() {
    assert_equivalent_faulted(torus, RoutingScheme::UpDown);
}

#[test]
fn faulted_torus_itb_sp_schedulers_agree() {
    assert_equivalent_faulted(torus, RoutingScheme::ItbSp);
}

#[test]
fn faulted_torus_itb_rr_schedulers_agree() {
    assert_equivalent_faulted(torus, RoutingScheme::ItbRr);
}

#[test]
fn faulted_express_updown_schedulers_agree() {
    assert_equivalent_faulted(express, RoutingScheme::UpDown);
}

#[test]
fn faulted_express_itb_sp_schedulers_agree() {
    assert_equivalent_faulted(express, RoutingScheme::ItbSp);
}

#[test]
fn faulted_express_itb_rr_schedulers_agree() {
    assert_equivalent_faulted(express, RoutingScheme::ItbRr);
}

#[test]
fn faulted_cplant_updown_schedulers_agree() {
    assert_equivalent_faulted(cplant, RoutingScheme::UpDown);
}

#[test]
fn faulted_cplant_itb_sp_schedulers_agree() {
    assert_equivalent_faulted(cplant, RoutingScheme::ItbSp);
}

#[test]
fn faulted_cplant_itb_rr_schedulers_agree() {
    assert_equivalent_faulted(cplant, RoutingScheme::ItbRr);
}

/// With the default 100 µs mapper latency the 12k-cycle window ends
/// before reconfiguration completes, so the equivalence above never sees
/// a route-table swap. Shrink the latency so both the failure and the
/// repair reconfigure *inside* the window — the swap rebuilds the
/// effective `RouteDb` and re-runs path selection, all of which must
/// stay bit-identical between engine and oracle.
#[test]
fn faulted_reconfiguration_mid_run_schedulers_agree() {
    let rel = assert_equivalent_faulted_with(
        torus,
        RoutingScheme::ItbRr,
        SimConfig {
            payload_flits: 64,
            reconfig_latency_cycles: 2_000,
            ..SimConfig::default()
        },
    );
    assert!(
        rel.reconfigurations >= 1,
        "the window must contain a completed reconfiguration: {rel:?}"
    );
}

/// A stall that drains: the failure at cycle 4,000 starts a 20,000-cycle
/// re-map that outlasts the window, the worms in flight drain within it,
/// and from then on the engine's sources sleep with packets queued while
/// the skip jumps between generation events. The oracle visits every
/// frozen NIC every cycle; the results, the stall count included, must
/// not tell the two apart.
#[test]
fn faulted_stall_drains_schedulers_agree() {
    let rel = assert_equivalent_faulted_at(
        torus,
        RoutingScheme::ItbRr,
        (
            SimConfig {
                payload_flits: 64,
                reconfig_latency_cycles: 20_000,
                ..SimConfig::default()
            },
            0.005,
        ),
    );
    assert_eq!(
        rel.reconfigurations, 0,
        "the re-map must outlast the window"
    );
    assert_eq!(
        rel.reconfig_stall_cycles, 8_000,
        "stalled from the failure on"
    );
}

/// The full observability stack — event journal exported as a Chrome
/// trace — must come out byte-identical under engine and oracle.
#[test]
fn chrome_trace_export_schedulers_agree() {
    assert_equivalent_observed(|| gen::torus_2d(4, 4, 4).unwrap(), RoutingScheme::ItbRr);
}
