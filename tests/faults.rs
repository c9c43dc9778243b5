//! Fault-injection integration tests: packet conservation under link,
//! switch and host failures, legality of reconfigured routing tables while
//! traffic is in flight, and equivalence of an empty fault plan with a
//! fault-free run.

use regnet::prelude::*;

fn cfg() -> SimConfig {
    SimConfig {
        payload_flits: 64,
        ..SimConfig::default()
    }
}

fn first_switch_link(topo: &Topology) -> LinkId {
    topo.links()
        .iter()
        .find(|l| l.is_switch_link())
        .expect("switch link")
        .id
}

/// The paper's 8x8 torus: with retransmission and online reconfiguration,
/// a single link failure loses nothing — every generated packet is
/// eventually delivered, under every routing scheme. While traffic is
/// still in flight, the rebuilt tables must pass the scheme's legality
/// audit (up*/down* segments on the discovered topology, live physical
/// translation).
#[test]
fn single_link_failure_zero_drops_all_schemes() {
    for scheme in RoutingScheme::all() {
        let topo = gen::torus_2d(8, 8, 8).unwrap();
        let db = RouteDb::build(&topo, scheme, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let mut sim = Simulator::new(&topo, &db, &pattern, cfg(), 0.02, 21);
        let plan = FaultPlan::single_link(first_switch_link(&topo), 5_000);
        sim.enable_faults(FaultOptions::with_plan(plan));
        sim.begin_measurement();

        // Past the fault (5k) and the reconfiguration latency (16k).
        sim.run(30_000);
        let rel = sim.reliability();
        assert_eq!(rel.link_failures, 1, "{scheme:?}: the fault must fire");
        assert_eq!(
            rel.reconfigurations, 1,
            "{scheme:?}: the rebuild must have been swapped in"
        );
        assert!(
            sim.packets_in_flight() > 0,
            "{scheme:?}: expected live traffic while auditing the tables"
        );
        let routes = sim
            .reconfigured_routes()
            .expect("reconfiguration installed new tables");
        routes
            .verify(&topo, sim.active_faults().unwrap())
            .unwrap_or_else(|e| panic!("{scheme:?}: illegal post-reconfig table: {e}"));
        assert_eq!(routes.lost_hosts(), 0, "a torus survives one link");

        sim.stop_generation();
        assert!(
            sim.run_until_drained(2_000_000).is_some(),
            "{scheme:?}: failed to drain:\n{}",
            sim.dump_state()
        );
        let stats = sim.end_measurement(30_000);
        let rel = sim.reliability();
        assert!(stats.generated > 100, "{scheme:?}: too little traffic");
        assert_eq!(
            stats.delivered, stats.generated,
            "{scheme:?}: lost messages under a single link failure"
        );
        assert_eq!(rel.dropped_packets, 0, "{scheme:?}: {rel:?}");
        assert_eq!(rel.unreachable_drops, 0, "{scheme:?}: {rel:?}");
        assert_eq!(rel.unreachable_pairs, 0, "{scheme:?}: {rel:?}");
    }
}

/// Killing a switch (with its hosts' access cut) and a host outright does
/// lose traffic — but every message is accounted for: delivered plus
/// dropped equals generated, and the drain still terminates.
#[test]
fn switch_and_host_faults_account_for_every_message() {
    let topo = gen::torus_2d(4, 4, 2).unwrap();
    let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
    let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
    let mut sim = Simulator::new(&topo, &db, &pattern, cfg(), 0.02, 33);
    let mut plan = FaultPlan::new();
    plan.fail_switch(4_000, SwitchId(5))
        .fail_host(6_000, HostId(1))
        .repair_switch(10_000, SwitchId(5));
    sim.enable_faults(FaultOptions::with_plan(plan));
    sim.begin_measurement();
    sim.run(20_000);
    sim.stop_generation();
    assert!(
        sim.run_until_drained(2_000_000).is_some(),
        "failed to drain:\n{}",
        sim.dump_state()
    );
    let stats = sim.end_measurement(20_000);
    let rel = sim.reliability();
    assert_eq!(rel.switch_failures, 1);
    assert_eq!(rel.host_failures, 1);
    assert_eq!(rel.repairs, 1);
    assert!(
        rel.dropped_messages > 0,
        "a dead switch plus a dead host must cost something: {rel:?}"
    );
    // A message is one packet: losing the packet loses the message.
    assert_eq!(rel.dropped_packets, rel.dropped_messages, "{rel:?}");
    assert_eq!(
        stats.delivered + rel.dropped_messages,
        stats.generated,
        "message accounting leak: {stats:?}\n{rel:?}"
    );
}

/// Retransmission without reconfiguration (the ablation): a failed link
/// that is repaired before the retry budget runs out still loses nothing,
/// even though the routing tables are never rebuilt.
#[test]
fn retransmission_alone_survives_a_transient_fault() {
    let topo = gen::torus_2d(4, 4, 2).unwrap();
    let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
    let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
    let mut sim = Simulator::new(&topo, &db, &pattern, cfg(), 0.02, 5);
    let l = first_switch_link(&topo);
    let mut plan = FaultPlan::single_link(l, 4_000);
    plan.repair_link(9_000, l);
    sim.enable_faults(FaultOptions {
        reconfigure: false,
        ..FaultOptions::with_plan(plan)
    });
    sim.begin_measurement();
    sim.run(20_000);
    sim.stop_generation();
    assert!(
        sim.run_until_drained(2_000_000).is_some(),
        "failed to drain:\n{}",
        sim.dump_state()
    );
    let stats = sim.end_measurement(20_000);
    let rel = sim.reliability();
    assert_eq!(rel.link_failures, 1);
    assert_eq!(rel.repairs, 1);
    assert_eq!(rel.reconfigurations, 0, "reconfiguration was disabled");
    assert_eq!(stats.delivered, stats.generated, "{rel:?}");
    assert_eq!(rel.dropped_packets, 0, "{rel:?}");
}

/// An empty fault plan is free: identical RunStats and trace digest to a
/// run with faults never enabled, and all-zero ReliabilityStats.
#[test]
fn empty_plan_matches_fault_free_run() {
    let opts = RunOptions {
        warmup_cycles: 2_000,
        measure_cycles: 10_000,
        seed: 17,
        trace: TraceOptions::digest_only(),
        ..RunOptions::default()
    };
    let exp = || {
        Experiment::new(
            gen::torus_2d(4, 4, 2).unwrap(),
            RoutingScheme::ItbRr,
            RouteDbConfig::default(),
            PatternSpec::Uniform,
            cfg(),
        )
        .unwrap()
    };
    let base = exp().run_observed(0.01, &opts);
    let faulted_opts = RunOptions {
        faults: Some(FaultOptions::with_plan(FaultPlan::new())),
        ..opts
    };
    let obs = exp().run_observed(0.01, &faulted_opts);
    assert_eq!(obs.stats, base.stats, "an empty plan changed the run");
    assert_eq!(obs.reliability, ReliabilityStats::default());
    assert_eq!(
        obs.trace.unwrap().digest,
        base.trace.unwrap().digest,
        "an empty plan changed the delivery stream"
    );
}

/// Every switch dies, so no host is usable: the rebuild finds no host to
/// map from and fails, and every ordered host pair is unreachable. The
/// count of usable pairs, `live * (live - 1)`, must not underflow at
/// `live == 0`.
#[test]
fn losing_every_host_leaves_every_pair_unreachable() {
    let topo = gen::torus_2d(2, 2, 1).unwrap();
    let mut plan = FaultPlan::new();
    for s in topo.switches() {
        plan.fail_switch(1_000, s);
    }
    let exp = Experiment::new(
        topo,
        RoutingScheme::UpDown,
        RouteDbConfig::default(),
        PatternSpec::Uniform,
        cfg(),
    )
    .unwrap();
    let opts = RunOptions {
        warmup_cycles: 2_000,
        measure_cycles: 20_000,
        faults: Some(FaultOptions::with_plan(plan)),
        ..RunOptions::default()
    };
    let rel = exp.run_observed(0.005, &opts).reliability;
    assert_eq!(
        (
            rel.switch_failures,
            rel.reconfig_failures,
            rel.unreachable_pairs
        ),
        (4, 1, 12),
        "{rel:?}"
    );
}
