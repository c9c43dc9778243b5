//! Development diagnostic: run the paper torus under ITB-SP at low load,
//! dump where live packets are parked and classify any suspected stall via
//! the wait-for-graph analyzer (deadlock cycle vs starvation vs active).
//! `--fail-link <id>@<cycle>` (repeatable) injects link failures to inspect
//! the post-fault state; `--events <path>` dumps the event journal as
//! Chrome trace JSON (Perfetto-loadable) for timeline inspection;
//! `--metrics <path>` dumps the run as Prometheus text exposition (the
//! whole 200k-cycle run becomes the measurement window).

use regnet_bench::{
    describe_route_table, experiment, parse_diagnose_args, route_table_gauges, save_chrome_trace,
    Topo,
};
use regnet_core::RoutingScheme;
use regnet_netsim::{EventOptions, FaultOptions, RunOptions};
use regnet_traffic::PatternSpec;

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
    let (events_path, metrics_path) = (args.events, args.metrics);
    let t0 = std::time::Instant::now();
    let exp = experiment(
        Topo::Torus.build(),
        RoutingScheme::ItbSp,
        PatternSpec::Uniform,
    );
    println!("{}", describe_route_table(exp.route_db(), t0.elapsed()));
    let opts = RunOptions {
        counters: true,
        events: events_path.is_some().then(EventOptions::default),
        faults: args.faults.map(FaultOptions::with_plan),
        ..RunOptions::default()
    };
    let mut sim = exp.make_sim(0.001, &opts);
    if metrics_path.is_some() {
        // Counters are freshly zeroed, so starting the window up front
        // leaves the diagnostic output unchanged.
        sim.begin_measurement();
    }
    sim.run(200_000);
    println!("{}", sim.dump_state());
    if opts.faults.is_some() {
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
        let obs = sim.end_observation(200_000);
        let mut reg = obs.metrics_registry();
        route_table_gauges(&mut reg, exp.route_db());
        match std::fs::write(path, reg.to_prometheus()) {
            Ok(()) => println!("metrics exposition -> {path}"),
            Err(e) => eprintln!("diagnose: cannot write {path}: {e}"),
        }
    }
}
