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

// ---- Steady runs. The engine streams a steady connection as one run and
// visits its switch or NIC only at the run's next event; the rows below
// put the events runs end at, and the readers that settle them, where the
// matrix above rarely does.

/// The lockstep bisector on the saturated torus: states equal every 1,000
/// cycles, while STOP keeps arriving in the middle of runs.
#[test]
fn lockstep_saturated_torus_itb_rr() {
    let point = (&SimConfig::default(), 0.045);
    let (_, counters) =
        assert_lockstep(&torus(), RoutingScheme::ItbRr, point, None, (8_000, 1_000));
    assert!(
        counters.ctl_stops > 100,
        "STOP must cut runs: {}",
        counters.ctl_stops
    );
}

/// The lockstep bisector on every cycle of the saturated torus's first
/// 3,000: a visit leaves the runs of the ports it has no work on
/// streaming, and the settled state must still equal the oracle's after
/// each one.
#[test]
fn lockstep_every_cycle_saturated_torus_itb_rr() {
    let point = (&SimConfig::default(), 0.045);
    let (_, counters) = assert_lockstep(&torus(), RoutingScheme::ItbRr, point, None, (3_000, 1));
    assert!(counters.flits_forwarded > 100_000, "{counters:?}");
}

/// The same with the journal and every trace recorder armed, as the
/// benchmark's `observed_torus` runs them, at a fifth of the length
/// `lockstep_saturated_torus_itb_rr` runs.
#[test]
fn lockstep_recorded_saturated_torus_itb_rr() {
    let point = (&SimConfig::default(), 0.045);
    let (_, counters) =
        assert_lockstep_recorded(&torus(), RoutingScheme::ItbRr, point, (4_000, 250));
    assert!(counters.ctl_stops > 0, "{counters:?}");
}

/// The lockstep bisector at the low load the time skip works on.
#[test]
fn lockstep_lowload_cplant_itb_sp() {
    let point = (&SimConfig::default(), 0.001);
    assert_lockstep(
        &cplant(),
        RoutingScheme::ItbSp,
        point,
        None,
        (40_000, 5_000),
    );
}

/// The lockstep bisector on the benchmark's faulted torus plan at a tenth
/// of its length: four links failed and repaired in turn, each under
/// steady runs, which end in the fault phase with their flits in flight
/// put back into slots; the victims' worms are truncated.
#[test]
fn lockstep_faulted_torus_plan() {
    let topo = torus();
    let links: Vec<LinkId> = topo
        .links()
        .iter()
        .filter(|l| l.is_switch_link())
        .map(|l| l.id)
        .collect();
    let total = 20_000;
    let mut plan = FaultPlan::new();
    for (k, i) in [3usize, 40, 77, 101].into_iter().enumerate() {
        let k = k as u64;
        plan.fail_link(total * (2 * k + 1) / 9, links[i]);
        plan.repair_link(total * (2 * k + 2) / 9, links[i]);
    }
    let config = SimConfig {
        reconfig_latency_cycles: 1_000,
        ..SimConfig::default()
    };
    let (rel, _) = assert_lockstep(
        &topo,
        RoutingScheme::ItbRr,
        (&config, 0.015),
        Some(&plan),
        (total, 1_000),
    );
    assert_eq!((rel.link_failures, rel.repairs), (4, 4), "{rel:?}");
    assert!(
        rel.worms_truncated > 0 && rel.reconfigurations == 8,
        "{rel:?}"
    );
}

/// A link, a switch and a host fail and come back while runs stream: a
/// purge that leaves a packet at the head of an input, or a repair that
/// lifts a STOP, lists the switch for the visit the oracle makes anyway.
/// The states must be equal after every one of the 9,000 cycles.
#[test]
fn lockstep_switch_and_host_faults() {
    let topo = torus();
    let link = topo
        .links()
        .iter()
        .filter(|l| l.is_switch_link())
        .nth(3)
        .unwrap()
        .id;
    let mut plan = FaultPlan::new();
    plan.fail_link(1_137, link);
    plan.fail_switch(2_500, SwitchId(2));
    plan.fail_host(3_100, HostId(6));
    plan.repair_link(4_000, link);
    plan.repair_switch(5_500, SwitchId(2));
    plan.repair_host(6_000, HostId(6));
    let config = SimConfig {
        payload_flits: 64,
        reconfig_latency_cycles: 2_000,
        retransmit_timeout_cycles: 800,
        ..SimConfig::default()
    };
    let (rel, _) = assert_lockstep(
        &topo,
        RoutingScheme::UpDown,
        (&config, 0.05),
        Some(&plan),
        (9_000, 1),
    );
    assert_eq!(
        (rel.switch_failures, rel.host_failures, rel.repairs),
        (1, 1, 3),
        "{rel:?}"
    );
    assert!(
        rel.worms_truncated > 0 && rel.retransmissions > 0,
        "{rel:?}"
    );
}

/// Sampling ticks every 97 cycles and a window opening at 2,003 and
/// closing at 11,004 land inside steady runs: the samples and the window
/// read settled state.
#[test]
fn samples_and_window_edges_inside_runs_schedulers_agree() {
    let stats = assert_equivalent_sampled(
        || gen::torus_2d(4, 4, 4).unwrap(),
        RoutingScheme::ItbRr,
        (&SimConfig::default(), 0.02),
        97,
        (2_003, 9_001),
    );
    assert!(stats.channel_busy.iter().any(|&b| b > 0));
}
