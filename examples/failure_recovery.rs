//! Failure recovery: the Myrinet maintenance loop in action. A link dies,
//! then a switch (including the up*/down* root!), and after each event the
//! mapper re-explores the surviving network, rebuilds the routing tables
//! and traffic keeps flowing — the same fault machinery every faulted run
//! in the repository uses (`paper faults`, `probe --fail-link`).
//!
//! Run with: `cargo run --release --example failure_recovery`

use regnet::prelude::*;

fn measure(exp: &Experiment, plan: &FaultPlan, label: &str) {
    let opts = RunOptions {
        warmup_cycles: 15_000,
        measure_cycles: 60_000,
        seed: 17,
        faults: Some(FaultOptions {
            // Manage from a host that survives everything we break below.
            seed_host: HostId(60),
            ..FaultOptions::with_plan(plan.clone())
        }),
        ..RunOptions::default()
    };
    let obs = exp.run_observed(0.01, &opts);
    let (stats, rel) = (obs.stats, obs.reliability);
    println!(
        "{label:<28} accepted {:.4} fl/ns/sw  latency {:>6.0} ns  itbs {:.2}  \
         rebuilds {}  dropped {}  lost pairs {}",
        stats.accepted_flits_per_ns_per_switch(exp.topology().num_switches()),
        stats.avg_latency_ns,
        stats.avg_itbs_per_msg,
        rel.reconfigurations,
        rel.dropped_packets,
        rel.unreachable_pairs,
    );
}

fn main() {
    let physical = gen::torus_2d(4, 4, 4).unwrap();
    let link = physical
        .links()
        .iter()
        .find(|l| l.is_switch_link())
        .unwrap()
        .id;
    let exp = Experiment::new(
        physical,
        RoutingScheme::ItbRr,
        RouteDbConfig::default(),
        PatternSpec::Uniform,
        SimConfig {
            payload_flits: 256,
            // Short windows: let the re-mapping finish well inside warmup.
            reconfig_latency_cycles: 2_000,
            ..SimConfig::default()
        },
    )
    .unwrap();

    // Faults accumulate; each fires at cycle 0, so the measurement window
    // sees the reconfigured steady state.
    let mut plan = FaultPlan::new();
    measure(&exp, &plan, "healthy network");

    // A cable dies.
    plan.fail_link(0, link);
    println!("  -> link {link:?} down");
    measure(&exp, &plan, "after link failure");

    // The root switch of the up*/down* tree dies: a whole new spanning
    // tree, a whole new set of in-transit buffer placements.
    plan.fail_switch(0, SwitchId(0));
    println!("  -> switch s0 (the up*/down* root!) down");
    measure(&exp, &plan, "after root switch failure");

    // And one more arbitrary switch.
    plan.fail_switch(0, SwitchId(9));
    println!("  -> switch s9 down");
    measure(&exp, &plan, "after second switch failure");

    println!("\nevery reconfiguration rebuilt minimal ITB routes on the survivors;");
    println!("traffic never deadlocks because ejection at in-transit hosts still");
    println!("breaks every cyclic channel dependency on the degraded graph.");
}
