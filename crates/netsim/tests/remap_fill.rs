//! A re-map writes a switch pair's routes the first time a packet asks
//! for them: the installed tables hold exactly the pairs the messages
//! sent since asked for, and a pair asked for again is not written twice.

use regnet_core::{RouteDb, RouteDbConfig, RoutingScheme};
use regnet_netsim::{FaultOptions, FaultPlan, SimConfig, Simulator};
use regnet_topology::{gen, HostId, SwitchId};
use regnet_traffic::{Pattern, PatternSpec};

#[test]
fn installed_tables_fill_only_the_pairs_messages_ask_for() {
    // 16 switches, two hosts each: host h sits on switch h / 2.
    let topo = gen::torus_2d(4, 4, 2).unwrap();
    let n = topo.num_switches();
    let link = topo.links().iter().find(|l| l.is_switch_link()).unwrap().id;
    // Six messages over four switch pairs: 0->4 three times (from both
    // hosts of switch 0), one each way between switches 2 and 15, and one
    // between the two hosts of switch 6.
    let messages = [(0, 9), (1, 9), (0, 8), (5, 30), (30, 5), (12, 13)];
    for scheme in [RoutingScheme::UpDown, RoutingScheme::ItbRr] {
        let db = RouteDb::build(&topo, scheme, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let cfg = SimConfig {
            payload_flits: 64,
            reconfig_latency_cycles: 400,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&topo, &db, &pattern, cfg, 0.01, 11);
        sim.stop_generation();
        let mut plan = FaultPlan::new();
        plan.fail_link(100, link);
        sim.enable_faults(FaultOptions::with_plan(plan));
        sim.run(1_000);
        assert_eq!(sim.reliability().reconfigurations, 1, "{scheme}");
        let installed = sim.reconfigured_routes().unwrap();
        assert_eq!(installed.filled_pairs(), [], "{scheme}: nothing asked yet");

        for (k, &(src, dst)) in messages.iter().enumerate() {
            sim.schedule_message(HostId(src), HostId(dst), 1_100 + k as u64);
        }
        assert!(sim.run_until_drained(100_000).is_some(), "{scheme}");
        assert_eq!(sim.reliability().dropped_messages, 0, "{scheme}");
        let mut asked: Vec<(SwitchId, SwitchId)> = messages
            .iter()
            .map(|&(s, d)| (topo.host_switch(HostId(s)), topo.host_switch(HostId(d))))
            .collect();
        asked.sort_unstable();
        asked.dedup();
        assert_eq!(asked.len(), 4);
        let installed = sim.reconfigured_routes().unwrap();
        assert_eq!(installed.filled_pairs(), asked, "{scheme}");
        assert!(asked.len() < n * n);
    }
}
