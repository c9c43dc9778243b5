//! Property-based tests of the simulator: on random topologies, random
//! loads and random packet sizes, the network must deliver every generated
//! message (no loss, no deadlock), never exceed capacity, and respect
//! basic latency sanity bounds.

use proptest::prelude::*;

use regnet::prelude::*;

fn arb_setup() -> impl Strategy<Value = (Topology, RoutingScheme, usize, f64, u64)> {
    (
        (4usize..12, 2usize..4, 1usize..3, 0u64..1000),
        0u8..3,
        prop::sample::select(vec![32usize, 64, 128]),
        0.002f64..0.05,
        any::<u64>(),
    )
        .prop_map(|((n, deg, hosts, tseed), scheme, payload, load, seed)| {
            (
                gen::irregular_random(n, deg, hosts, tseed).expect("topology"),
                RoutingScheme::all()[scheme as usize],
                payload,
                load,
                seed,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: run, stop generation, drain; generated == delivered.
    #[test]
    fn random_networks_conserve_messages((topo, scheme, payload, load, seed) in arb_setup()) {
        let db = RouteDb::build(&topo, scheme, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let cfg = SimConfig { payload_flits: payload, ..SimConfig::default() };
        let mut sim = Simulator::new(&topo, &db, &pattern, cfg, load, seed);
        sim.begin_measurement();
        // After every step, the port summaries the switch kernel iterates
        // must equal what the port state says.
        for _ in 0..25_000 {
            sim.step();
            sim.check_invariants();
        }
        sim.stop_generation();
        let mut guard = 0;
        while sim.packets_in_flight() > 0 {
            sim.step();
            sim.check_invariants();
            guard += 1;
            prop_assert!(guard < 2_000_000, "drain failed:\n{}", sim.dump_state());
        }
        let stats = sim.end_measurement(25_000);
        prop_assert_eq!(stats.delivered, stats.generated);
    }

    /// Accepted traffic can never exceed offered traffic (up to the
    /// granularity of message boundaries) nor the bisection-ish capacity.
    #[test]
    fn accepted_bounded_by_offered((topo, scheme, payload, load, seed) in arb_setup()) {
        let db = RouteDb::build(&topo, scheme, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let cfg = SimConfig { payload_flits: payload, ..SimConfig::default() };
        let mut sim = Simulator::new(&topo, &db, &pattern, cfg, load, seed);
        sim.run(10_000);
        sim.begin_measurement();
        sim.run(40_000);
        let stats = sim.end_measurement(40_000);
        let accepted = stats.accepted_flits_per_ns_per_switch(topo.num_switches());
        // 10% slack for message-boundary effects over a finite window.
        prop_assert!(
            accepted <= load * 1.10 + 1e-4,
            "accepted {accepted} exceeds offered {load}"
        );
    }

    /// Latency sanity: mean network latency is at least the time to clock
    /// the packet's own flits out of the NIC, and positive whenever
    /// anything was delivered.
    #[test]
    fn latency_floor_holds((topo, scheme, payload, _load, seed) in arb_setup()) {
        let db = RouteDb::build(&topo, scheme, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let cfg = SimConfig { payload_flits: payload, ..SimConfig::default() };
        // Low fixed load for a clean zero-load estimate.
        let mut sim = Simulator::new(&topo, &db, &pattern, cfg, 0.003, seed);
        sim.run(5_000);
        sim.begin_measurement();
        sim.run(60_000);
        let stats = sim.end_measurement(60_000);
        if stats.delivered > 0 {
            // Tail cannot arrive before the payload has been clocked out:
            // payload flits * 6.25 ns each.
            let floor = payload as f64 * 6.25;
            prop_assert!(
                stats.avg_latency_ns >= floor,
                "latency {} below serialization floor {}",
                stats.avg_latency_ns,
                floor
            );
            prop_assert!(stats.p99_latency_ns >= stats.avg_latency_ns * 0.5);
        }
    }
}
