//! Dependability experiment: how gracefully each routing scheme degrades
//! under live link failures with NIC retransmission and online
//! reconfiguration enabled.
//!
//! Two outputs, both under `target/experiments/`:
//!
//! * `fault_throughput_vs_failed_links` — accepted traffic at a fixed
//!   offered load as a function of the number of failed links (the curve's
//!   "offered" column is k, the failure count), one curve per scheme.
//! * `fault_goodput_dip` — delivered-payload goodput over time through a
//!   fail/repair cycle on one link, one series per scheme: the dip, the
//!   reconfiguration stall and the recovery.
//!
//! Modes: default = quick (reduced windows), `--full` = longer windows,
//! `--smoke` = tiny topology and windows for CI (seconds).
//! `--topo torus|express|cplant` picks the paper topology (default torus);
//! output file names carry the topology.

use regnet_bench::{
    parse_fault_sweep_args, save_curves, save_time_series, threads, FaultSweepArgs, Mode,
};
use regnet_campaign::{Progress, StatusBoard};
use regnet_core::{RouteDbConfig, RoutingScheme};
use regnet_metrics::{Curve, CurvePoint, TimeSeries};
use regnet_netsim::experiment::{par_map, Experiment, RunOptions};
use regnet_netsim::{FaultOptions, FaultPlan, SimConfig, TraceOptions, CYCLE_NS};
use regnet_topology::{gen, LinkId, Topology};
use regnet_traffic::PatternSpec;

struct Params {
    topo: Topology,
    /// Suffix for output file names.
    topo_name: String,
    offered: f64,
    warmup: u64,
    measure: u64,
    /// Failure counts for the throughput-vs-failed-links sweep.
    ks: Vec<usize>,
    /// Goodput sampling interval, cycles.
    interval: u64,
    cfg: SimConfig,
}

const USAGE: &str = "usage: fault_sweep [--smoke|--full] [--topo torus|express|cplant]\n  \
     --smoke      4x4 torus and tiny windows for CI (ignores --topo and --full)\n  \
     --full       longer windows (default: quick)\n  \
     --topo       the paper topology to sweep (default torus)";

fn params(args: FaultSweepArgs) -> Params {
    let FaultSweepArgs { topo, smoke, mode } = args;
    if smoke {
        return Params {
            topo: gen::torus_2d(4, 4, 2).expect("torus"),
            topo_name: "smoke".to_string(),
            offered: 0.01,
            warmup: 4_000,
            measure: 12_000,
            ks: vec![0, 1, 2],
            interval: 1_000,
            // The smoke windows are far shorter than the default 100 µs
            // mapper latency; scale it down so reconfiguration completes.
            cfg: SimConfig {
                reconfig_latency_cycles: 2_000,
                ..SimConfig::default()
            },
        };
    }
    let (warmup, measure, ks, interval) = match mode {
        Mode::Full => (100_000, 300_000, vec![0, 1, 2, 4, 8, 16], 5_000),
        Mode::Quick => (40_000, 100_000, vec![0, 1, 2, 4, 8], 2_500),
    };
    Params {
        topo: topo.build(),
        topo_name: topo.tag().to_string(),
        offered: 0.01,
        warmup,
        measure,
        ks,
        interval,
        cfg: SimConfig::default(),
    }
}

/// `k` switch links spread evenly across the topology (deterministic).
fn spaced_switch_links(topo: &Topology, k: usize) -> Vec<LinkId> {
    let links: Vec<LinkId> = topo
        .links()
        .iter()
        .filter(|l| l.is_switch_link())
        .map(|l| l.id)
        .collect();
    assert!(k <= links.len(), "cannot fail {k} of {} links", links.len());
    (0..k).map(|i| links[i * links.len() / k.max(1)]).collect()
}

fn experiment(p: &Params, scheme: RoutingScheme) -> Experiment {
    Experiment::new(
        p.topo.clone(),
        scheme,
        RouteDbConfig::default(),
        PatternSpec::Uniform,
        p.cfg.clone(),
    )
    .expect("experiment construction")
}

/// Accepted traffic vs number of failed links. Links fail at cycle 0, so
/// the measurement window sees the reconfigured steady state.
fn throughput_vs_failed_links(p: &Params, board: &mut StatusBoard) {
    let mut curves = Vec::new();
    let schemes = [
        RoutingScheme::UpDown,
        RoutingScheme::ItbSp,
        RoutingScheme::ItbRr,
    ];
    let mut progress = Progress::start("fault-sweep", schemes.len());
    for scheme in schemes {
        let item = format!("throughput/{}", scheme.label());
        board.started(0, &item);
        let exp = experiment(p, scheme);
        let results = par_map(p.ks.len(), threads(), |i| {
            let k = p.ks[i];
            let mut plan = FaultPlan::new();
            for l in spaced_switch_links(exp.topology(), k) {
                plan.fail_link(0, l);
            }
            let opts = RunOptions {
                warmup_cycles: p.warmup,
                measure_cycles: p.measure,
                seed: 1,
                faults: Some(FaultOptions::with_plan(plan)),
                ..RunOptions::default()
            };
            exp.run_observed(p.offered, &opts)
        });
        let mut curve = Curve::new(format!("{} vs failed links", scheme.label()));
        for (&k, obs) in p.ks.iter().zip(&results) {
            let (stats, rel) = (&obs.stats, &obs.reliability);
            let accepted = stats.accepted_flits_per_ns_per_switch(exp.topology().num_switches());
            println!(
                "{:8} k={:2} accepted {:.4} lat {:8.0} ns delivered {:6} dropped {:4} \
                 reconfigs {} lost-pairs {}",
                scheme.label(),
                k,
                accepted,
                stats.avg_latency_ns,
                stats.delivered,
                rel.dropped_packets,
                rel.reconfigurations,
                rel.unreachable_pairs,
            );
            curve.push(CurvePoint {
                offered: k as f64, // the x axis of this figure is k
                accepted,
                avg_latency_ns: stats.avg_latency_ns,
                p99_latency_ns: stats.p99_latency_ns,
                avg_total_latency_ns: stats.avg_total_latency_ns,
                avg_itbs_per_msg: stats.avg_itbs_per_msg,
                delivered: stats.delivered,
            });
        }
        curves.push(curve);
        board.done(0, &item);
        progress.step(&format!(
            "{} across {} failure counts",
            scheme.label(),
            p.ks.len()
        ));
    }
    progress.finish("");
    save_curves(
        &format!("fault_throughput_vs_failed_links_{}", p.topo_name),
        &curves,
    );
}

/// Goodput over time through one fail/repair cycle on a single link.
fn goodput_dip(p: &Params, board: &mut StatusBoard) {
    let total = p.warmup + p.measure;
    let fail_at = p.warmup + p.measure / 4;
    let repair_at = p.warmup + (3 * p.measure) / 4;
    let mut ts = TimeSeries::new(
        format!("goodput through a link fail/repair ({fail_at}/{repair_at})"),
        p.interval,
    );
    let schemes = [
        RoutingScheme::UpDown,
        RoutingScheme::ItbSp,
        RoutingScheme::ItbRr,
    ];
    let mut progress = Progress::start("goodput-dip", schemes.len());
    for scheme in schemes {
        let item = format!("goodput/{}", scheme.label());
        board.started(0, &item);
        let exp = experiment(p, scheme);
        let link = spaced_switch_links(exp.topology(), 1)[0];
        let mut plan = FaultPlan::single_link(link, fail_at);
        plan.repair_link(repair_at, link);
        let opts = RunOptions {
            warmup_cycles: p.warmup,
            measure_cycles: p.measure,
            seed: 1,
            trace: TraceOptions {
                goodput_interval: Some(p.interval),
                ..TraceOptions::default()
            },
            faults: Some(FaultOptions::with_plan(plan)),
            ..RunOptions::default()
        };
        let obs = exp.run_observed(p.offered, &opts);
        let rel = obs.reliability;
        let g = obs
            .trace
            .and_then(|r| r.goodput)
            .expect("goodput observer was enabled");
        // Payload flits per bucket -> flits/ns, comparable across intervals.
        let per_ns: Vec<f64> = g
            .samples
            .iter()
            .map(|&s| s as f64 / (g.interval as f64 * CYCLE_NS))
            .collect();
        println!(
            "{:8} {} samples over {} cycles; truncated {} retransmitted {} dropped {}",
            scheme.label(),
            per_ns.len(),
            total,
            rel.worms_truncated,
            rel.retransmissions,
            rel.dropped_packets,
        );
        ts.push(scheme.label(), per_ns);
        board.done(0, &item);
        progress.step(scheme.label());
    }
    progress.finish("");
    save_time_series(&format!("fault_goodput_dip_{}", p.topo_name), &ts);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let p = params(parse_fault_sweep_args(&args).unwrap_or_else(|e| {
        eprintln!("fault_sweep: {e}\n{USAGE}");
        std::process::exit(2);
    }));
    Progress::announce(
        "fault-sweep",
        &format!(
            "offered {:.4}, warmup {}, measure {}, ks {:?}",
            p.offered, p.warmup, p.measure, p.ks
        ),
    );
    // Live status file beside the curve outputs (3 schemes × 2 figures).
    let _ = std::fs::create_dir_all("target/experiments");
    let status_path = format!("target/experiments/fault_sweep_status_{}.json", p.topo_name);
    let mut board = StatusBoard::new(&status_path, "fault_sweep", 6, 1);
    throughput_vs_failed_links(&p, &mut board);
    goodput_dip(&p, &mut board);
    board.finish("done");
    Progress::announce("fault-sweep", &format!("status under {status_path}"));
}
