//! Behavioural tests of the simulated hardware: arbitration fairness, flow
//! control under pressure, hotspot serialisation, link-class usage, and
//! one packet per message.

use regnet_core::{RouteDb, RouteDbConfig, RoutingScheme};
use regnet_netsim::{SimConfig, Simulator};
use regnet_topology::{gen, HostId, NodeId, SwitchId, TopologyBuilder};
use regnet_traffic::{Pattern, PatternSpec};

fn cfg64() -> SimConfig {
    SimConfig {
        payload_flits: 64,
        ..SimConfig::default()
    }
}

/// Two hosts on one switch hammer the single link towards another switch:
/// round-robin arbitration must share it almost exactly 50/50.
#[test]
fn output_arbitration_is_fair() {
    let mut b = TopologyBuilder::new("fair", 6);
    b.add_switches(2);
    b.connect(SwitchId(0), SwitchId(1)).unwrap();
    // Senders h0, h1 on switch 0; receivers h2, h3 on switch 1.
    b.attach_host(SwitchId(0)).unwrap();
    b.attach_host(SwitchId(0)).unwrap();
    b.attach_host(SwitchId(1)).unwrap();
    b.attach_host(SwitchId(1)).unwrap();
    let topo = b.build().unwrap();
    let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
    let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
    let mut sim = Simulator::new(&topo, &db, &pattern, cfg64(), 1e-9, 1);
    sim.stop_generation();
    // 60 messages from each sender, all crossing the shared link.
    for i in 0..60u64 {
        sim.schedule_message(HostId(0), HostId(2), i);
        sim.schedule_message(HostId(1), HostId(3), i);
    }
    sim.begin_measurement();
    let drained = sim.run_until_drained(2_000_000).expect("must drain");
    let stats = sim.end_measurement(drained);
    assert_eq!(stats.delivered, 120);
    // Fairness: total time ~= 120 serialized packets; if one input starved,
    // its last delivery would land much later. Measure via p99 vs mean.
    assert!(
        stats.p99_latency_ns < stats.avg_latency_ns * 2.3,
        "p99 {:.0} vs mean {:.0}: starvation suspected",
        stats.p99_latency_ns,
        stats.avg_latency_ns
    );
}

/// Flow control under maximal pressure: all hosts blast one destination;
/// slack buffers must never overflow (debug assertions check occupancy) and
/// throughput must pin at the destination link rate.
#[test]
fn hotspot_serialises_at_link_rate() {
    let topo = gen::torus_2d(4, 4, 2).unwrap();
    let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
    let hotspot = HostId(21);
    let pattern = Pattern::resolve(
        PatternSpec::Hotspot {
            fraction: 1.0,
            host: hotspot,
        },
        &topo,
    )
    .unwrap();
    let mut sim = Simulator::new(&topo, &db, &pattern, cfg64(), 0.5, 3);
    sim.run(20_000);
    sim.begin_measurement();
    sim.run(100_000);
    let stats = sim.end_measurement(100_000);
    // Deliveries decompose into (a) traffic *into* the hotspot, capped by
    // its reception link (1 flit/cycle incl. headers ≈ 95.5k payload per
    // 100k cycles at 64/67 efficiency) and (b) the hotspot's own outgoing
    // uniform traffic, capped the same way by its injection link. Total
    // must stay under ~2 links' worth and reasonably close to it (both
    // links saturated).
    assert!(
        stats.delivered_payload_flits < 196_000,
        "more than two link-capacities delivered: {}",
        stats.delivered_payload_flits
    );
    assert!(
        stats.delivered_payload_flits > 150_000,
        "hotspot links underutilised: {}",
        stats.delivered_payload_flits
    );
}

/// Express channels (the distance-2 links) actually carry traffic under
/// ITB-RR on the express torus.
#[test]
fn express_channels_carry_traffic() {
    let topo = gen::torus_2d_express(4, 4, 2).unwrap();
    let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
    let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
    let mut sim = Simulator::new(&topo, &db, &pattern, cfg64(), 0.02, 5);
    let descs = sim.channel_descriptors();
    sim.run(10_000);
    sim.begin_measurement();
    sim.run(50_000);
    let stats = sim.end_measurement(50_000);
    let mut express_busy = 0u64;
    let mut ring_busy = 0u64;
    for (d, &busy) in descs.iter().zip(&stats.channel_busy) {
        if let (NodeId::Switch(a), NodeId::Switch(b)) = (d.from, d.to) {
            let (ra, ca) = ((a.0 / 4) as i32, (a.0 % 4) as i32);
            let (rb, cb) = ((b.0 / 4) as i32, (b.0 % 4) as i32);
            let dr = (ra - rb).rem_euclid(4).min((rb - ra).rem_euclid(4));
            let dc = (ca - cb).rem_euclid(4).min((cb - ca).rem_euclid(4));
            if dr + dc == 2 {
                express_busy += busy;
            } else {
                ring_busy += busy;
            }
        }
    }
    assert!(express_busy > 0, "express channels never used");
    assert!(ring_busy > 0, "ring channels never used");
}

/// Latency decomposition sanity on an uncontended two-switch path, with
/// the paper's exact constants: cable 8 cycles, routing 24 cycles, wire
/// length = payload + header.
#[test]
fn zero_load_latency_decomposition() {
    let mut b = TopologyBuilder::new("line2", 4);
    b.add_switches(2);
    b.connect(SwitchId(0), SwitchId(1)).unwrap();
    b.attach_hosts_everywhere(1).unwrap();
    let topo = b.build().unwrap();
    let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
    let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
    let mut sim = Simulator::new(&topo, &db, &pattern, cfg64(), 1e-9, 1);
    sim.stop_generation();
    sim.schedule_message(HostId(0), HostId(1), 0);
    sim.begin_measurement();
    let drained = sim.run_until_drained(100_000).unwrap();
    let stats = sim.end_measurement(drained.max(1));
    assert_eq!(stats.delivered, 1);
    // Wire: 2 port bytes + type + 64 payload = 67 flits.
    // Path: 3 cables (h0->s0, s0->s1, s1->h1) at 8 cycles each,
    // 2 routing delays at 24 cycles, tail = 67 flits minus the 2 consumed
    // header bytes stream behind the head: latency ~= 24 + 8 + 24 + 8 + 65
    // (+ the first cable + 1-cycle phase offsets).
    let lat_cycles = stats.avg_latency_ns / 6.25;
    assert!(
        (130.0..150.0).contains(&lat_cycles),
        "unexpected uncontended latency: {lat_cycles} cycles"
    );
}

/// The same journey with a 1024-byte payload costs exactly 960 more cycles
/// (one cycle per extra payload flit) — pipelining means nothing else
/// changes.
#[test]
fn payload_scales_latency_linearly() {
    let run = |payload: usize| {
        let mut b = TopologyBuilder::new("line2", 4);
        b.add_switches(2);
        b.connect(SwitchId(0), SwitchId(1)).unwrap();
        b.attach_hosts_everywhere(1).unwrap();
        let topo = b.build().unwrap();
        let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let cfg = SimConfig {
            payload_flits: payload,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&topo, &db, &pattern, cfg, 1e-9, 1);
        sim.stop_generation();
        sim.schedule_message(HostId(0), HostId(1), 0);
        sim.begin_measurement();
        let drained = sim.run_until_drained(100_000).unwrap();
        let stats = sim.end_measurement(drained.max(1));
        stats.avg_latency_ns / 6.25
    };
    let l64 = run(64);
    let l1024 = run(1024);
    assert_eq!((l1024 - l64).round() as i64, 960);
}

/// A message is one packet: on a counted, drained run every delivered
/// message is exactly one delivered packet.
#[test]
fn every_message_is_one_packet() {
    let topo = gen::torus_2d(4, 4, 2).unwrap();
    let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
    let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
    let cfg = SimConfig {
        payload_flits: 256,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&topo, &db, &pattern, cfg, 0.008, 11);
    sim.enable_counters();
    sim.begin_measurement();
    sim.run(40_000);
    sim.stop_generation();
    let drained = sim.run_until_drained(2_000_000).expect("must drain");
    let stats = sim.end_measurement(drained);
    let c = stats.counters.expect("counting was on");
    assert!(c.messages_delivered > 20, "{c:?}");
    assert_eq!(c.packets_delivered, c.messages_delivered);
    assert_eq!(c.messages_delivered, stats.delivered);
    assert_eq!(stats.delivered_payload_flits, stats.delivered * 256);
}

/// Scheduled messages respect their release cycles.
#[test]
fn scheduled_release_times() {
    let topo = gen::torus_2d(4, 4, 1).unwrap();
    let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
    let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
    let mut sim = Simulator::new(&topo, &db, &pattern, cfg64(), 1e-9, 1);
    sim.stop_generation();
    sim.schedule_message(HostId(0), HostId(5), 10_000);
    sim.begin_measurement();
    // Nothing may happen before cycle 10_000.
    sim.run(9_999);
    assert_eq!(sim.packets_in_flight(), 0);
    let drained = sim.run_until_drained(100_000).unwrap();
    assert!(drained > 10_000);
    let stats = sim.end_measurement(drained);
    assert_eq!(stats.delivered, 1);
}

/// The generation-vs-injection latency split: total latency includes the
/// source queue, network latency does not.
#[test]
fn total_latency_includes_source_queueing() {
    let topo = gen::torus_2d(4, 4, 1).unwrap();
    let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
    let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
    let mut sim = Simulator::new(&topo, &db, &pattern, cfg64(), 1e-9, 1);
    sim.stop_generation();
    // Ten messages from one host released simultaneously: the 2nd..10th
    // wait in the source queue.
    for _ in 0..10 {
        sim.schedule_message(HostId(0), HostId(15), 0);
    }
    sim.begin_measurement();
    let drained = sim.run_until_drained(1_000_000).unwrap();
    let stats = sim.end_measurement(drained);
    assert_eq!(stats.delivered, 10);
    assert!(
        stats.avg_total_latency_ns > stats.avg_latency_ns * 2.0,
        "total {:.0} should far exceed network {:.0} under source queueing",
        stats.avg_total_latency_ns,
        stats.avg_latency_ns
    );
}
