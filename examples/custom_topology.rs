//! Custom topology: the ITB mechanism is not tied to the paper's three
//! networks — wire up your own switches and it works the same. This
//! example builds a small "two rooms joined by a thin corridor" network,
//! where up*/down* routing funnels everything through the corridor's root
//! side, and measures what in-transit buffers buy.
//!
//! Run with: `cargo run --release --example custom_topology`

use regnet::prelude::*;

fn two_rooms() -> Topology {
    let mut b = TopologyBuilder::new("two-rooms", 8);
    // Room A: switches 0..4 fully meshed; room B: switches 4..8 fully
    // meshed; two corridor links join them.
    b.add_switches(8);
    for room in [0u32, 4] {
        for i in room..room + 4 {
            for j in i + 1..room + 4 {
                b.connect(SwitchId(i), SwitchId(j)).unwrap();
            }
        }
    }
    b.connect(SwitchId(1), SwitchId(5)).unwrap();
    b.connect(SwitchId(3), SwitchId(7)).unwrap();
    b.attach_hosts_everywhere(3).unwrap();
    b.build().unwrap()
}

fn main() {
    let topo = two_rooms();
    println!(
        "{}: {} switches / {} hosts / {} links",
        topo.name(),
        topo.num_switches(),
        topo.num_hosts(),
        topo.num_links()
    );

    // Route analysis first: how restrictive is up*/down* here?
    let db_ud = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
    let db_itb = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
    let stats_ud = regnet::core::analysis::RouteStats::compute(&topo, &db_ud);
    let stats_itb = regnet::core::analysis::RouteStats::compute(&topo, &db_itb);
    println!(
        "UP/DOWN: {:.0}% minimal routes, avg {:.2} links",
        stats_ud.minimal_fraction * 100.0,
        stats_ud.avg_distance
    );
    println!(
        "ITB-RR : {:.0}% minimal routes, avg {:.2} links, {:.2} ITBs/route",
        stats_itb.minimal_fraction * 100.0,
        stats_itb.avg_distance,
        stats_itb.avg_itbs
    );

    // Then simulate.
    let cfg = SimConfig {
        payload_flits: 256,
        ..SimConfig::default()
    };
    let opts = RunOptions {
        warmup_cycles: 20_000,
        measure_cycles: 60_000,
        seed: 11,
        ..RunOptions::default()
    };
    println!("\nsaturation throughput (flits/ns/switch):");
    for scheme in RoutingScheme::all() {
        let exp = Experiment::new(
            topo.clone(),
            scheme,
            RouteDbConfig::default(),
            PatternSpec::Uniform,
            cfg.clone(),
        )
        .unwrap();
        // No campaign cell can name a hand-built topology, so drive the
        // saturation search with single points here.
        let mut search = SaturationSearch::new(0.005);
        while let Some(load) = search.next_load() {
            search.record(load, exp.run_point(load, &opts).accepted);
        }
        println!(
            "  {:8} {:.4}",
            scheme.label(),
            search.saturation().throughput
        );
    }
}
