//! Development diagnostic: run the paper torus under ITB-SP at low load,
//! dump where live packets are parked and classify any suspected stall via
//! the wait-for-graph analyzer (deadlock cycle vs starvation vs active).
//! `--fail-link <id>@<cycle>` (repeatable) injects link failures to inspect
//! the post-fault state; `--events <path>` dumps the event journal as
//! Chrome trace JSON (Perfetto-loadable) for timeline inspection;
//! `--metrics <path>` dumps the run as Prometheus text exposition (the
//! whole 200k-cycle run becomes the measurement window).

use regnet_bench::{
    describe_route_table, parse_diagnose_args, route_table_gauges, save_chrome_trace,
};
use regnet_core::{RouteDb, RouteDbConfig, RoutingScheme};
use regnet_netsim::experiment::RunObservation;
use regnet_netsim::{EventOptions, FaultOptions, SimConfig, Simulator};
use regnet_topology::gen;
use regnet_traffic::{Pattern, PatternSpec};

const USAGE: &str = "usage: diagnose [--events P] [--metrics P] [--fail-link ID@CYCLE]...\n  \
     --events     Chrome trace JSON of the event journal\n  \
     --metrics    Prometheus exposition of the whole run\n  \
     --fail-link  fail link ID at CYCLE (repeatable)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_diagnose_args(&args).unwrap_or_else(|e| {
        eprintln!("diagnose: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let (events_path, metrics_path, fault_plan) = (args.events, args.metrics, args.faults);
    let topo = gen::torus_2d(8, 8, 8).unwrap();
    let t0 = std::time::Instant::now();
    let db = RouteDb::build(&topo, RoutingScheme::ItbSp, &RouteDbConfig::default());
    println!("{}", describe_route_table(&db, t0.elapsed()));
    let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
    let mut sim = Simulator::new(&topo, &db, &pattern, SimConfig::default(), 0.001, 1);
    sim.enable_counters();
    if events_path.is_some() {
        sim.enable_events(EventOptions::default());
    }
    let faulted = fault_plan.is_some();
    if let Some(plan) = fault_plan {
        sim.enable_faults(FaultOptions::with_plan(plan));
    }
    if metrics_path.is_some() {
        // Counters are freshly zeroed, so starting the window up front
        // leaves the diagnostic output unchanged.
        sim.begin_measurement();
    }
    sim.run(200_000);
    println!("{}", sim.dump_state());
    if faulted {
        println!("{:#?}", sim.reliability());
    }
    println!("{}", sim.analyze_stall().summary);
    if let Some(snap) = sim.counter_snapshot() {
        println!("{}", snap.to_table());
    }
    if let (Some(path), Some(journal)) = (&events_path, sim.journal()) {
        save_chrome_trace(path, journal);
    }
    if let Some(path) = &metrics_path {
        let obs = RunObservation {
            stats: sim.end_measurement(200_000),
            reliability: sim.reliability(),
            trace: sim.trace_report(),
            profile: sim.profile_report(),
            spans: sim.span_report(),
            journal: None,
        };
        let mut reg = obs.metrics_registry();
        route_table_gauges(&mut reg, &db);
        match std::fs::write(path, reg.to_prometheus()) {
            Ok(()) => println!("metrics exposition -> {path}"),
            Err(e) => eprintln!("diagnose: cannot write {path}: {e}"),
        }
    }
}
