//! Boundary regressions for the default engine's time skipping, against
//! its tick-every-cycle twin, the `Scan` oracle: the watchdog must trip
//! at the *same cycle* even when the stall lies inside a span the run
//! loop would otherwise jump over, and `begin`/`end_measurement` (plus
//! `run_until_drained`) must land on identical cycles, with sampling
//! observers emitting identical series.

use regnet::prelude::*;

/// Build a deterministic quiet stall: one scheduled message, generation
/// frozen, and a fault that cuts the source's link mid-worm. Both the
/// retransmission timer and the reconfiguration completion are pushed
/// far beyond the watchdog horizon, so the truncated packet sits live in
/// a quiescent network — exactly the state the watchdog exists to catch
/// — and the panic must land on the same cycle under engine and oracle.
fn watchdog_panic(scheduler: Scheduler) -> String {
    let result = std::panic::catch_unwind(|| {
        let topo = gen::torus_2d(4, 4, 2).unwrap();
        let scheme = RoutingScheme::ItbRr;
        let db = RouteDb::build(&topo, scheme, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let cfg = SimConfig {
            payload_flits: 64,
            watchdog_cycles: 2_000,
            retransmit_timeout_cycles: 500_000,
            reconfig_latency_cycles: 300_000,
            ..SimConfig::default()
        };
        let src = HostId(0);
        let host_link = topo
            .links()
            .iter()
            .find(|l| {
                l.ends
                    .iter()
                    .any(|e| matches!(e, regnet::topology::LinkEnd::Host { host } if *host == src))
            })
            .expect("host link")
            .id;
        // Cut the worm while it is being clocked out. The loss handler
        // parks the packet on the (far-away) retransmission timer — the
        // host-ok refresh that would strand it only happens when the
        // (equally far-away) reconfiguration completes.
        let plan = FaultPlan::single_link(host_link, 120);
        let mut sim = Simulator::new(&topo, &db, &pattern, cfg, 0.001, 7);
        sim.set_scheduler(scheduler);
        sim.enable_faults(FaultOptions::with_plan(plan));
        sim.stop_generation();
        sim.schedule_message(src, HostId(12), 100);
        sim.run(400_000);
        unreachable!("the watchdog must have fired");
    });
    let err = result.expect_err("expected a watchdog panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is a string")
}

/// A stall inside a skippable span still trips the watchdog at the same
/// cycle (the panic message embeds the cycle and the live-packet count,
/// so string equality pins both).
#[test]
fn watchdog_fires_at_identical_cycle_across_schedulers() {
    let reference = watchdog_panic(Scheduler::Scan);
    assert!(
        reference.contains("watchdog: no flit moved"),
        "unexpected panic: {reference}"
    );
    let skipping = watchdog_panic(Scheduler::default());
    assert_eq!(
        reference, skipping,
        "watchdog panic diverged between the scan oracle and the default engine"
    );
}

fn low_load_run(scheduler: Scheduler) -> (RunStats, Option<TraceReport>, u64, u64) {
    let topo = gen::torus_2d(8, 8, 8).unwrap();
    let scheme = RoutingScheme::ItbRr;
    let db = RouteDb::build(&topo, scheme, &RouteDbConfig::default());
    let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
    let cfg = SimConfig {
        payload_flits: 64,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&topo, &db, &pattern, cfg, 0.0005, 11);
    sim.set_scheduler(scheduler);
    // Sampling observers are themselves time sources: the flush schedule
    // must be kept even across skipped spans.
    sim.enable_trace(TraceOptions {
        channel_util_interval: Some(1_000),
        itb_occupancy_interval: Some(700),
        goodput_interval: Some(1_300),
        digest: true,
        ..TraceOptions::default()
    });
    sim.run(5_000);
    let warmup_end = sim.cycle();
    sim.begin_measurement();
    sim.run(20_000);
    let stats = sim.end_measurement(20_000);
    (stats, sim.trace_report(), warmup_end, sim.cycle())
}

/// Measurement-window boundaries land on identical cycles and every
/// sampled time series (utilization, occupancy, goodput) is identical —
/// and the default engine really did skip.
#[test]
fn measurement_windows_and_series_identical_at_low_load() {
    let (s_a, t_a, w_a, e_a) = low_load_run(Scheduler::Scan);
    let (s_e, t_e, w_e, e_e) = low_load_run(Scheduler::default());
    assert_eq!((w_a, e_a), (5_000, 25_000), "run boundaries must be exact");
    assert_eq!((w_e, e_e), (5_000, 25_000), "run boundaries must be exact");
    assert_eq!(s_a, s_e, "RunStats diverged at low load");
    let (t_a, t_e) = (t_a.unwrap(), t_e.unwrap());
    assert_eq!(t_a, t_e, "observer report diverged at low load");

    // The comparison is only meaningful if skipping actually engaged.
    let topo = gen::torus_2d(8, 8, 8).unwrap();
    let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
    let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
    let cfg = SimConfig {
        payload_flits: 64,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&topo, &db, &pattern, cfg, 0.0005, 11);
    sim.run(25_000);
    assert!(
        sim.skipped_cycles() > 0,
        "low-load run never skipped a cycle"
    );
}

/// `run_until_drained` reports the same drain cycle: the not-drained
/// state persists across skipped spans, so the returned cycle must be
/// identical to the tick-every-cycle oracle's: `Scan` never skips, the
/// default engine does, same drain cycle.
#[test]
fn drain_cycle_identical_across_schedulers() {
    let drain = |scheduler: Scheduler| {
        let topo = gen::torus_2d(4, 4, 2).unwrap();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let cfg = SimConfig {
            payload_flits: 64,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&topo, &db, &pattern, cfg, 0.001, 3);
        sim.set_scheduler(scheduler);
        sim.stop_generation();
        sim.schedule_message(HostId(0), HostId(9), 2_000);
        sim.schedule_message(HostId(5), HostId(2), 6_000);
        let drained = sim.run_until_drained(50_000).expect("network must drain");
        (drained, sim.skipped_cycles())
    };
    let (d_scan, skipped_scan) = drain(Scheduler::Scan);
    let (d_default, skipped_default) = drain(Scheduler::default());
    assert_eq!(d_scan, d_default, "drain cycle diverged");
    assert_eq!(skipped_scan, 0);
    assert!(
        skipped_default > 0,
        "the gaps before cycle 2000 and between the messages must be skipped"
    );
}

/// A worm crossing an otherwise idle network is streamed, and the time
/// skip jumps every cycle in which only its run moves or its flits fly
/// down a cable: one 512-flit message from host 0 to host 399 across
/// CPLANT, scheduled at cycle 1,000, drains at 1,618 under every scheme,
/// the cycle the `Scan` oracle drains on, and is stepped on a handful of
/// those cycles (18; 74 while a full slot held the skip off, 619 while a
/// run did).
#[test]
fn a_lone_worm_is_jumped_not_stepped() {
    let topo = gen::cplant().unwrap();
    let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
    let cfg = SimConfig {
        payload_flits: 512,
        ..SimConfig::default()
    };
    for scheme in RoutingScheme::all() {
        let db = RouteDb::build(&topo, scheme, &RouteDbConfig::default());
        let drain = |scheduler: Scheduler| {
            let mut sim = Simulator::new(&topo, &db, &pattern, cfg.clone(), 0.001, 1);
            sim.set_scheduler(scheduler);
            sim.stop_generation();
            sim.schedule_message(HostId(0), HostId(399), 1_000);
            let drained = sim.run_until_drained(100_000).expect("network must drain");
            (drained, drained - sim.skipped_cycles())
        };
        let (d_scan, stepped_scan) = drain(Scheduler::Scan);
        let (d, stepped) = drain(Scheduler::default());
        assert_eq!(d, d_scan, "{scheme:?}: drain cycle diverged");
        assert_eq!(stepped_scan, d_scan, "the oracle steps every cycle");
        assert!(stepped <= 25, "{scheme:?}: {stepped} of {d} cycles stepped");
    }
}

/// The benchmark's nearly idle point (CPLANT, ITB-SP, 0.001 flits/ns per
/// switch, seed 8) spends most of its cycles with worms streaming and
/// flying across an empty network; the time skip jumps at least 98 % of
/// them (0.987; 0.946 while a full slot held the skip off).
#[test]
fn low_load_cplant_jumps_nine_cycles_in_ten() {
    let topo = gen::cplant().unwrap();
    let db = RouteDb::build(&topo, RoutingScheme::ItbSp, &RouteDbConfig::default());
    let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
    let mut sim = Simulator::new(&topo, &db, &pattern, SimConfig::default(), 0.001, 8);
    sim.run(400_000);
    let ratio = sim.skipped_cycles() as f64 / 400_000.0;
    assert!(ratio >= 0.98, "skipped {ratio:.3} of 400,000 cycles");
}
