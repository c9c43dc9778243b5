//! Scheduler equivalence suite: every cycle-loop driver — active set,
//! event-driven time skipping, shard-parallel — must be bit-identical to
//! the full-scan reference: same `RunStats`, same unified counters, same
//! delivered-message trace digest, same exported Chrome trace, on every
//! paper topology × routing scheme, with and without faults.
//!
//! The driver list and the proof obligations live in the shared harness
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

/// Faults exercise the phase-0 control path (purge GO symbols delivered
/// the same cycle), the deferred loss replay at the epoch barrier, the
/// retransmission wake-ups and — for the event-driven driver — the
/// fault/reconfiguration time sources; every scheduler must agree there
/// too, on every paper topology × routing scheme.
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
/// stay bit-identical across engines.
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

/// The full observability stack — event journal exported as a Chrome
/// trace — must come out byte-identical under every scheduler.
#[test]
fn chrome_trace_export_schedulers_agree() {
    assert_equivalent_observed(|| gen::torus_2d(4, 4, 4).unwrap(), RoutingScheme::ItbRr);
}

/// One measured run driven through `Simulator` directly, on the 8×8 torus
/// under ITB-RR with the harness's options: `install` selects the engine.
/// `faulted` arms the harness's fail-and-repair plan.
fn run_direct(
    faulted: bool,
    install: impl FnOnce(&mut Simulator),
) -> (RunStats, ReliabilityStats, Option<u64>, u64) {
    let topo = torus();
    let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
    let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
    let o = opts(Scheduler::Scan);
    let mut sim = Simulator::new(&topo, &db, &pattern, cfg(), 0.01, o.seed);
    install(&mut sim);
    sim.enable_trace(o.trace);
    sim.enable_counters();
    if faulted {
        let link = topo.links().iter().find(|l| l.is_switch_link()).unwrap().id;
        let mut plan = FaultPlan::single_link(link, 4_000);
        plan.repair_link(9_000, link);
        sim.enable_faults(FaultOptions::with_plan(plan));
    }
    sim.run(o.warmup_cycles);
    sim.begin_measurement();
    sim.run(o.measure_cycles);
    let stats = sim.end_measurement(o.measure_cycles);
    let trace = sim.trace_report().expect("digest observer was enabled");
    (stats, sim.reliability(), trace.digest, trace.digest_events)
}

/// Four shards on a pool forced to four executors — the default on a
/// small CI host collapses to one or two — which the run asserts it got.
fn run_forced(faulted: bool) -> (RunStats, ReliabilityStats, Option<u64>, u64) {
    run_direct(faulted, |sim| {
        // At least one executor, at most one per shard.
        assert_eq!(sim.set_parallel_with_executors(2, 16), 2);
        assert_eq!(sim.set_parallel_with_executors(4, 0), 1);
        assert_eq!(
            sim.set_parallel_with_executors(4, 4),
            4,
            "the pool must really have 4 executors"
        );
        assert_eq!(sim.scheduler(), Scheduler::Parallel { threads: 4 });
    })
}

/// Really use multiple OS executors and re-check bit-identity. The engine
/// buffers every cross-shard effect and folds it in a fixed order, so the
/// executor count must be invisible in the results.
#[test]
fn parallel_forced_multi_worker_agrees() {
    let scan = run_direct(false, |sim| sim.set_scheduler(reference()));
    assert!(scan.3 > 0, "expected deliveries during the window");
    assert_eq!(scan, run_forced(false), "diverged with forced workers");
}

/// The forced-multi-executor check again, but with the fault plan armed:
/// phase 0 mutates fault state with the workers parked, and the loss
/// replay folds shard-local `(At, packet)` pairs in component order, so a
/// real 4-executor pool must still match the reference bit for bit on a
/// faulted run.
#[test]
fn parallel_forced_multi_worker_faulted_agrees() {
    let scan = run_direct(true, |sim| sim.set_scheduler(reference()));
    assert!(
        scan.1.link_failures == 1 && scan.1.repairs == 1,
        "the plan must have fired: {:?}",
        scan.1
    );
    assert_eq!(scan, run_forced(true), "diverged with forced workers");
}
