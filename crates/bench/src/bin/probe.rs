//! Quick calibration probe: one point per scheme on the paper torus, timed.
//! Not part of the paper reproduction; used to sanity-check performance and
//! saturation behaviour while developing. Runs with the lifetime/digest
//! trace observers and the unified counters on, finishes each point with a
//! wait-for-graph stall classification, and — with `--events <path>` —
//! dumps each scheme's event journal as Chrome trace JSON
//! (`<stem>.<scheme>.json`, Perfetto-loadable). `--metrics <path>` dumps
//! each scheme's run as Prometheus text exposition, `--flame <path>` runs
//! with the self-profiler on and writes collapsed stacks
//! (`flamegraph.pl`/inferno-compatible), both with the same per-scheme
//! file suffixing as `--events`.

use regnet_bench::{
    describe_route_table, parse_probe_args, route_table_gauges, save_chrome_trace, Mode,
};
use regnet_campaign::{cell, TopoSpec};
use regnet_core::RoutingScheme;
use regnet_netsim::{EventOptions, FaultOptions, RunOptions, TraceOptions};
use regnet_traffic::PatternSpec;

/// `path` with the scheme tag spliced in before the extension.
fn scheme_path(path: &str, scheme: RoutingScheme) -> String {
    let tag = scheme.label().to_lowercase().replace('/', "-");
    match path.rsplit_once('.') {
        Some((stem, ext)) => format!("{stem}.{tag}.{ext}"),
        None => format!("{path}.{tag}.json"),
    }
}

const USAGE: &str = "usage: probe [--load L] [--events P] [--metrics P] [--flame P] \
                     [--fail-link ID@CYCLE]...\n  \
     --load       offered load, flits/ns/switch (default 0.015)\n  \
     --events     Chrome trace JSON of each scheme's event journal\n  \
     --metrics    Prometheus exposition of each scheme's run\n  \
     --flame      self-profile each run; collapsed stacks to P\n  \
     --fail-link  fail link ID at CYCLE (repeatable)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_probe_args(&args).unwrap_or_else(|e| {
        eprintln!("probe: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let offered = args.load;
    let (events_path, metrics_path, flame_path) = (args.events, args.metrics, args.flame);
    let quick = Mode::Quick.defaults(1);
    let cell = |scheme| quick.cell(TopoSpec::Torus, scheme, PatternSpec::Uniform, offered);
    let opts = RunOptions {
        trace: TraceOptions {
            packet_lifetimes: true,
            ..TraceOptions::digest_only()
        },
        counters: true,
        events: events_path.is_some().then(EventOptions::default),
        profile: flame_path.is_some(),
        faults: args.faults.map(FaultOptions::with_plan),
        ..cell::run_options(&cell(RoutingScheme::UpDown))
    };
    for scheme in [
        RoutingScheme::UpDown,
        RoutingScheme::ItbSp,
        RoutingScheme::ItbRr,
    ] {
        let t0 = std::time::Instant::now();
        let exp = cell::build_experiment(&cell(scheme)).expect("a paper cell");
        let table_build = t0.elapsed();
        let mut sim = exp.make_sim(offered, &opts);
        let build = t0.elapsed();
        let t1 = std::time::Instant::now();
        sim.run(opts.warmup_cycles);
        sim.begin_measurement();
        sim.run(opts.measure_cycles);
        let obs = sim.end_observation(opts.measure_cycles);
        let run = t1.elapsed();
        let stats = &obs.stats;
        println!(
            "{:8} offered {:.4} accepted {:.4} lat {:8.0} ns itbs {:.3} delivered {:6} [build {:?} run {:?}]",
            scheme.label(),
            offered,
            stats.accepted_flits_per_ns_per_switch(exp.topology().num_switches()),
            stats.avg_latency_ns,
            stats.avg_itbs_per_msg,
            stats.delivered,
            build,
            run
        );
        println!("         {}", describe_route_table(&exp, table_build));
        if let Some(report) = &obs.trace {
            if let Some(l) = &report.lifetime {
                println!(
                    "         lifetime p50 {} p99 {} max {} cycles over {} packets",
                    l.p50_cycles, l.p99_cycles, l.max_cycles, l.count
                );
            }
            if let Some(d) = report.digest {
                println!(
                    "         trace digest {d:016x} ({} delivery events)",
                    report.digest_events
                );
            }
        }
        if opts.faults.is_some() {
            let rel = &obs.reliability;
            println!(
                "         faults: {} link fail(s), {} truncated, {} retransmitted, \
                 {} dropped, {} reconfig(s)",
                rel.link_failures,
                rel.worms_truncated,
                rel.retransmissions,
                rel.dropped_packets,
                rel.reconfigurations
            );
        }
        let stall = sim.analyze_stall();
        println!(
            "         stall check: {}",
            stall.summary.lines().next().unwrap_or("")
        );
        if let Some(snap) = &stats.counters {
            for line in snap.to_table().lines() {
                println!("         {line}");
            }
        }
        if let (Some(path), Some(journal)) = (&events_path, &obs.journal) {
            save_chrome_trace(&scheme_path(path, scheme), journal);
        }
        if let Some(path) = &metrics_path {
            let out = scheme_path(path, scheme);
            let mut reg = obs.metrics_registry();
            route_table_gauges(&mut reg, exp.route_db());
            match std::fs::write(&out, reg.to_prometheus()) {
                Ok(()) => println!("         metrics exposition -> {out}"),
                Err(e) => eprintln!("probe: cannot write {out}: {e}"),
            }
        }
        if let (Some(path), Some(profile)) = (&flame_path, &obs.profile) {
            let out = scheme_path(path, scheme);
            match std::fs::write(&out, profile.to_collapsed()) {
                Ok(()) => println!("         collapsed stacks -> {out}"),
                Err(e) => eprintln!("probe: cannot write {out}: {e}"),
            }
            for line in profile.to_table().lines() {
                println!("         {line}");
            }
        }
    }
}
