//! Per-layer metrics of the traced run. Layers are the crates; every
//! number is taken from outside, by timing calls to a crate's public
//! functions or reading its public reports (`ProfileReport`,
//! `CounterSnapshot`, `ReliabilityStats`).
//!
//! A traced run emits every name in [`NAMES`]. A layer a workload never
//! enters reports 0 for it: `mapper.*` and `netsim.faults.*` on the
//! fault-free workloads, `campaign.*`, `metrics.cell_roundtrip_us` and
//! `accuracy.*` on the four single-point workloads.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use regnet_campaign::{
    export_campaign, run_plan, what_if, CampaignSpec, CellResult, ResultStore, RunPlan,
    RunnerOptions, WhatIfQuery,
};
use regnet_core::analysis::RouteStats;
use regnet_core::{try_split_minimal_path, ItbHostPicker, RouteDb, RouteDbConfig, RoutingScheme};
use regnet_mapper::{rebuild_physical_routes, FaultSet};
use regnet_metrics::JsonValue;
use regnet_netsim::{
    EventOptions, Experiment, FaultTarget, RunOptions, Scheduler, SimConfig, Simulator,
    TraceOptions, PHASE_NAMES,
};
use regnet_routing::{minimal, simple_routes, LegalDistances, SimpleRoutesConfig};
use regnet_topology::{DistanceMatrix, HostId, Orientation};
use regnet_traffic::Pattern;

use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{
    all_recorders, build_point, build_topology, campaign_text, point_input, run_body, CampaignBody,
    PointBody, PointInput, CAMPAIGN, TORUS_UPPER_LOAD,
};

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. The
/// four `bench.*` rows and nothing else are filled in by the parent.
pub const NAMES: [(&str, &str); 78] = [
    ("topology.gen_us", "us"),
    ("topology.orient_us", "us"),
    ("topology.distance_us", "us"),
    ("routing.simple_routes_ms", "ms"),
    ("routing.kmin_paths_ms", "ms"),
    ("routing.legal_dist_ms", "ms"),
    ("core.routedb_build_ms.updown", "ms"),
    ("core.routedb_build_ms.itb-sp", "ms"),
    ("core.routedb_build_ms.itb-rr", "ms"),
    ("core.split_us_per_path", "us"),
    ("core.itbs_per_route", "count"),
    ("traffic.resolve_us", "us"),
    ("traffic.dest_draw_ns", "ns"),
    ("netsim.sim_new_ms", "ms"),
    ("netsim.ns_per_cycle", "ns"),
    ("netsim.mcycles_per_s", "Mcycles/s"),
    ("netsim.events_per_cycle", "count"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.phase.faults_pct", "%"),
    ("netsim.phase.control_pct", "%"),
    ("netsim.phase.arrivals_pct", "%"),
    ("netsim.phase.switches_pct", "%"),
    ("netsim.phase.nic_tx_pct", "%"),
    ("netsim.phase.generation_pct", "%"),
    ("netsim.phase.observers_pct", "%"),
    ("netsim.sched.scan_mcycles_per_s", "Mcycles/s"),
    ("netsim.sched.active-set_mcycles_per_s", "Mcycles/s"),
    ("netsim.sched.event_mcycles_per_s", "Mcycles/s"),
    ("netsim.sched.parallel-2_mcycles_per_s", "Mcycles/s"),
    ("netsim.skip_ratio", "ratio"),
    ("netsim.observer_overhead_pct.counters", "%"),
    ("netsim.observer_overhead_pct.journal", "%"),
    ("netsim.observer_overhead_pct.digest", "%"),
    ("netsim.observer_overhead_pct.lifetimes", "%"),
    ("netsim.observer_overhead_pct.channel_util", "%"),
    ("netsim.observer_overhead_pct.itb_occupancy", "%"),
    ("netsim.observer_overhead_pct.goodput", "%"),
    ("netsim.observer_overhead_pct.metrics", "%"),
    ("netsim.observer_overhead_pct.profiler", "%"),
    ("netsim.observer_overhead_pct.all", "%"),
    ("netsim.delivered", "count"),
    ("netsim.generated", "count"),
    ("netsim.accepted", "flits/ns/switch"),
    ("netsim.avg_latency_ns", "ns"),
    ("netsim.itb_ejections", "count"),
    ("netsim.worms_blocked", "count"),
    ("netsim.ctl_stops", "count"),
    ("netsim.max_pool_flits", "count"),
    ("netsim.faults.reconfigurations", "count"),
    ("netsim.faults.retransmissions", "count"),
    ("netsim.faults.worms_truncated", "count"),
    ("netsim.faults.dropped_packets", "count"),
    ("netsim.faults.reconfig_stall_cycles", "count"),
    ("mapper.rebuild_ms", "ms"),
    ("mapper.verify_ms", "ms"),
    ("metrics.json_parse_mb_s", "MB/s"),
    ("metrics.cell_roundtrip_us", "us"),
    ("metrics.prom_render_us", "us"),
    ("metrics.chrome_json_ms", "ms"),
    ("campaign.cells", "count"),
    ("campaign.parse_expand_us", "us"),
    ("campaign.build_experiment_ms_total", "ms"),
    ("campaign.build_share_pct", "%"),
    ("campaign.cell_ms_p50", "ms"),
    ("campaign.cell_ms_max", "ms"),
    ("campaign.store_save_us", "us"),
    ("campaign.store_load_all_ms", "ms"),
    ("campaign.export_ms_last", "ms"),
    ("campaign.export_ms_total", "ms"),
    ("campaign.resume_noop_ms", "ms"),
    ("campaign.whatif_cold_s", "s"),
    ("campaign.whatif_warm_ms", "ms"),
    ("campaign.whatif_probes", "count"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.rep_spread_pct", "%"),
    ("bench.proc_spread_pct", "%"),
    ("bench.setup_cold_ms", "ms"),
    ("accuracy.torus_rr_over_ud_accepted", "ratio"),
];

pub type Metrics = BTreeMap<String, f64>;

/// Median host seconds of `reps` calls of `f`, each inside a span.
fn timed<T>(
    rec: &mut Recorder,
    layer: &'static str,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            rec.span(layer, name, |_| std::hint::black_box(f()));
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// The single point the layer probes of a workload run on: its own input
/// without recorders or faults — or, for the campaign, its torus ITB-RR
/// cell at the upper ladder point, at the campaign's own windows.
fn probe_input(name: &str, seed: u64, scale: u64) -> PointInput {
    let own = point_input(name, seed, scale).unwrap_or_else(|| {
        let torus = point_input("sat_torus", seed, scale).expect("sat_torus is a point workload");
        PointInput {
            offered: TORUS_UPPER_LOAD,
            opts: RunOptions {
                warmup_cycles: 6000 / scale,
                measure_cycles: 15000 / scale,
                ..torus.opts
            },
            ..torus
        }
    });
    PointInput {
        opts: RunOptions {
            warmup_cycles: own.opts.warmup_cycles,
            measure_cycles: own.opts.measure_cycles,
            seed: own.opts.seed,
            ..RunOptions::default()
        },
        ..own
    }
}

/// Topology, routing, core, traffic and simulator construction, timed on
/// the workload's topology and scheme.
fn static_layers(probe: &PointInput, scale: u64, rec: &mut Recorder, m: &mut Metrics) {
    // `--smoke` checks names, not values: one repetition will do there.
    let reps = |n: usize| if scale == 1 { n } else { 1 };
    let topo = build_topology(probe.topo);
    let cfg = RouteDbConfig::default();
    let mut put = |name: &str, value: f64| m.insert(name.to_string(), value);

    let s = timed(rec, "topology", "gen", reps(9), || {
        build_topology(probe.topo)
    });
    put("topology.gen_us", s * 1e6);
    let s = timed(rec, "topology", "Orientation::compute", reps(9), || {
        Orientation::compute(&topo, cfg.root)
    });
    put("topology.orient_us", s * 1e6);
    let s = timed(rec, "topology", "DistanceMatrix::compute", reps(9), || {
        DistanceMatrix::compute(&topo)
    });
    put("topology.distance_us", s * 1e6);

    let orient = Orientation::compute(&topo, cfg.root);
    let dm = DistanceMatrix::compute(&topo);
    let s = timed(rec, "routing", "simple_routes", reps(3), || {
        simple_routes(&topo, &orient, &SimpleRoutesConfig::default())
    });
    put("routing.simple_routes_ms", s * 1e3);
    let all_paths = || {
        let mut paths = Vec::new();
        for s in topo.switches() {
            for d in topo.switches() {
                paths.extend(minimal::k_minimal_paths(
                    &topo,
                    &dm,
                    s,
                    d,
                    cfg.max_alternatives,
                    cfg.seed,
                ));
            }
        }
        paths
    };
    let s = timed(
        rec,
        "routing",
        "k_minimal_paths.all_pairs",
        reps(3),
        &all_paths,
    );
    put("routing.kmin_paths_ms", s * 1e3);
    let s = timed(
        rec,
        "routing",
        "LegalDistances::all_destinations",
        reps(5),
        || LegalDistances::all_destinations(&topo, &orient),
    );
    put("routing.legal_dist_ms", s * 1e3);

    for (scheme, name) in [
        (RoutingScheme::UpDown, "core.routedb_build_ms.updown"),
        (RoutingScheme::ItbSp, "core.routedb_build_ms.itb-sp"),
        (RoutingScheme::ItbRr, "core.routedb_build_ms.itb-rr"),
    ] {
        let s = timed(rec, "core", "RouteDb::build", reps(5), || {
            RouteDb::build(&topo, scheme, &cfg)
        });
        put(name, s * 1e3);
    }
    let paths = all_paths();
    let s = timed(rec, "core", "try_split_minimal_path.all", reps(5), || {
        paths
            .iter()
            .filter_map(|p| try_split_minimal_path(&topo, &orient, p, ItbHostPicker::Spread))
            .count()
    });
    put("core.split_us_per_path", s * 1e6 / paths.len() as f64);
    let db = RouteDb::build(&topo, probe.scheme, &cfg);
    put(
        "core.itbs_per_route",
        RouteStats::compute(&topo, &db).avg_itbs,
    );

    let s = timed(rec, "traffic", "Pattern::resolve", reps(9), || {
        Pattern::resolve(probe.pattern, &topo)
    });
    put("traffic.resolve_us", s * 1e6);
    let pattern = Pattern::resolve(probe.pattern, &topo).expect("pattern fits");
    const DRAWS: u32 = 1_000_000;
    let n_hosts = topo.num_hosts() as u32;
    let s = timed(rec, "traffic", "Pattern::dest.1M", 1, || {
        let mut rng = SmallRng::seed_from_u64(probe.opts.seed);
        (0..DRAWS)
            .filter_map(|i| pattern.dest(HostId(i % n_hosts), &topo, &mut rng))
            .count()
    });
    put("traffic.dest_draw_ns", s * 1e9 / DRAWS as f64);

    let s = timed(rec, "netsim", "Simulator::new", reps(9), || {
        let mut sim = Simulator::new(
            &topo,
            &db,
            &pattern,
            SimConfig::default(),
            probe.offered,
            probe.opts.seed,
        );
        sim.set_scheduler(probe.opts.scheduler);
        sim.cycle()
    });
    put("netsim.sim_new_ms", s * 1e3);
}

/// The cycle loop as the workload's body ran it, plus the per-phase
/// shares and event counts of the same run with every recorder armed.
fn cycle_loop(
    exp: &Experiment,
    input: &PointInput,
    body: &PointBody,
    profiled: &PointBody,
    m: &mut Metrics,
) {
    let mut put = |name: &str, value: f64| m.insert(name.to_string(), value);
    // The whole body (warm-up included) over the cycles it simulated:
    // `run_observed` is one call, so its window is not timed apart.
    let cycles = (input.opts.warmup_cycles + input.opts.measure_cycles) as f64;
    let ns_per_cycle = body.wall_s * 1e9 / cycles;
    put("netsim.ns_per_cycle", ns_per_cycle);
    put("netsim.mcycles_per_s", cycles / body.wall_s / 1e6);
    let stats = &body.obs.stats;
    put("netsim.delivered", stats.delivered as f64);
    put("netsim.generated", stats.generated as f64);
    put(
        "netsim.accepted",
        stats.accepted_flits_per_ns_per_switch(exp.topology().num_switches()),
    );
    put("netsim.avg_latency_ns", stats.avg_latency_ns);
    put("netsim.max_pool_flits", stats.max_pool_flits as f64);
    let rel = &body.obs.reliability;
    put(
        "netsim.faults.reconfigurations",
        rel.reconfigurations as f64,
    );
    put("netsim.faults.retransmissions", rel.retransmissions as f64);
    put("netsim.faults.worms_truncated", rel.worms_truncated as f64);
    put("netsim.faults.dropped_packets", rel.dropped_packets as f64);
    put(
        "netsim.faults.reconfig_stall_cycles",
        rel.reconfig_stall_cycles as f64,
    );

    let profile = profiled.obs.profile.as_ref().expect("profiler was armed");
    for (phase, name) in profile.phases.iter().zip(PHASE_NAMES) {
        put(&format!("netsim.phase.{name}_pct"), phase.fraction * 100.0);
    }
    let counters = profiled
        .obs
        .stats
        .counters
        .as_ref()
        .expect("counters were armed");
    // Counts cover the measurement window and do not depend on which
    // recorders ran; the unobserved body's time per cycle divides by them
    // (its cheaper warm-up cycles included: read it as a trend).
    let events_per_cycle = counters.total_events() as f64 / stats.window_cycles as f64;
    put("netsim.events_per_cycle", events_per_cycle);
    put("netsim.ns_per_event", ns_per_cycle / events_per_cycle);
    put("netsim.itb_ejections", counters.itb_ejections as f64);
    put("netsim.worms_blocked", counters.worms_blocked as f64);
    put("netsim.ctl_stops", counters.ctl_stops as f64);
}

/// The metrics crate's renderers and reader, fed by the fully observed run.
fn metrics_layer(profiled: &PointBody, rec: &mut Recorder, m: &mut Metrics) {
    let journal = profiled.obs.journal.as_ref().expect("journal was armed");
    let started = Instant::now();
    let text = rec.span("metrics", "ChromeTrace::to_json", |_| {
        journal.to_chrome().to_json()
    });
    m.insert(
        "metrics.chrome_json_ms".into(),
        started.elapsed().as_secs_f64() * 1e3,
    );
    let s = timed(rec, "metrics", "JsonValue::parse", 3, || {
        JsonValue::parse(&text).is_ok()
    });
    m.insert(
        "metrics.json_parse_mb_s".into(),
        text.len() as f64 / 1e6 / s,
    );
    let s = timed(rec, "metrics", "MetricsRegistry::to_prometheus", 9, || {
        profiled.obs.metrics_registry().to_prometheus()
    });
    m.insert("metrics.prom_render_us".into(), s * 1e6);
}

/// The four cycle-loop drivers on the plain probe point, driven through
/// `Simulator` itself so that `skipped_cycles` can be read. At CPLANT's
/// low load `Scan` is ~30× slower than the default driver, and a steady
/// rate needs no longer a run than the saturated workloads' quarter
/// windows give it, so the probe is capped at 100k cycles.
fn scheduler_probes(
    exp: &Experiment,
    probe: &PointInput,
    scale: u64,
    rec: &mut Recorder,
    m: &mut Metrics,
) {
    let cycles = (probe.opts.warmup_cycles + probe.opts.measure_cycles).min(100_000 / scale);
    let pattern = Pattern::resolve(probe.pattern, exp.topology()).expect("pattern fits");
    for (label, scheduler) in [
        ("scan", Scheduler::Scan),
        ("active-set", Scheduler::ActiveSet),
        ("event", Scheduler::EventDriven),
        ("parallel-2", Scheduler::Parallel { threads: 2 }),
    ] {
        let mut sim = Simulator::new(
            exp.topology(),
            exp.route_db(),
            &pattern,
            exp.sim_config().clone(),
            probe.offered,
            probe.opts.seed,
        );
        sim.set_scheduler(scheduler);
        let started = Instant::now();
        rec.span("netsim", "Simulator::run", |_| sim.run(cycles));
        let s = started.elapsed().as_secs_f64();
        m.insert(
            format!("netsim.sched.{label}_mcycles_per_s"),
            cycles as f64 / s / 1e6,
        );
        if scheduler == Scheduler::EventDriven {
            m.insert(
                "netsim.skip_ratio".into(),
                sim.skipped_cycles() as f64 / cycles as f64,
            );
        }
    }
}

/// Each recorder alone against the plain probe point. Plain and observed
/// runs alternate, and each observed run is held against the mean of the
/// plain runs either side of it, so the host's slow drift cancels.
fn observer_probes(exp: &Experiment, probe: &PointInput, rec: &mut Recorder, m: &mut Metrics) {
    let plain = &probe.opts;
    let trace = |t: TraceOptions| RunOptions {
        trace: t,
        ..plain.clone()
    };
    let recorders: [(&str, RunOptions); 10] = [
        (
            "counters",
            RunOptions {
                counters: true,
                ..plain.clone()
            },
        ),
        (
            "journal",
            RunOptions {
                events: Some(EventOptions::default()),
                ..plain.clone()
            },
        ),
        ("digest", trace(TraceOptions::digest_only())),
        (
            "lifetimes",
            trace(TraceOptions {
                packet_lifetimes: true,
                ..TraceOptions::default()
            }),
        ),
        (
            "channel_util",
            trace(TraceOptions {
                channel_util_interval: Some(1000),
                ..TraceOptions::default()
            }),
        ),
        (
            "itb_occupancy",
            trace(TraceOptions {
                itb_occupancy_interval: Some(1000),
                ..TraceOptions::default()
            }),
        ),
        (
            "goodput",
            trace(TraceOptions {
                goodput_interval: Some(1000),
                ..TraceOptions::default()
            }),
        ),
        (
            "metrics",
            trace(TraceOptions {
                metrics_interval: Some(1000),
                ..TraceOptions::default()
            }),
        ),
        (
            "profiler",
            RunOptions {
                profile: true,
                ..plain.clone()
            },
        ),
        ("all", all_recorders(plain.clone())),
    ];
    let mut before = run_body(exp, probe, rec).wall_s;
    for (label, opts) in recorders {
        let input = PointInput {
            opts,
            ..probe.clone()
        };
        let observed = run_body(exp, &input, rec).wall_s;
        let after = run_body(exp, probe, rec).wall_s;
        m.insert(
            format!("netsim.observer_overhead_pct.{label}"),
            (observed / ((before + after) / 2.0) - 1.0) * 100.0,
        );
        before = after;
    }
}

/// One reconfiguration as the faulted run performs it: re-map around the
/// plan's first failed link and audit the result.
fn mapper_layer(input: &PointInput, rec: &mut Recorder, m: &mut Metrics) {
    let Some(faults) = &input.opts.faults else {
        return;
    };
    let topo = build_topology(input.topo);
    let mut dead = FaultSet::new();
    if let Some(FaultTarget::Link(l)) = faults.plan.events.first().map(|e| e.target) {
        dead.kill_link(l);
    }
    let rebuild = || {
        rebuild_physical_routes(&topo, &dead, faults.seed_host, input.scheme, &faults.db_cfg)
            .expect("a single dead torus link leaves the seed host's switch reachable")
    };
    let s = timed(rec, "mapper", "rebuild_physical_routes", 5, &rebuild);
    m.insert("mapper.rebuild_ms".into(), s * 1e3);
    let routes = rebuild();
    let s = timed(rec, "mapper", "PhysicalRoutes::verify", 3, || {
        routes.verify(&topo, &dead).is_ok()
    });
    m.insert("mapper.verify_ms".into(), s * 1e3);
}

/// The traced campaign body and what it ran on.
pub struct CampaignRun<'a> {
    pub plan: &'a RunPlan,
    pub store: &'a ResultStore,
    pub body: &'a CampaignBody,
    /// Where probe stores may be created (and are left for the child to
    /// remove).
    pub scratch: &'a Path,
}

/// What the traced campaign body showed, plus probes of the store, the
/// resume path and `--what-if` on scratch stores.
fn campaign_layer(
    seed: u64,
    scale: u64,
    run: &CampaignRun<'_>,
    rec: &mut Recorder,
    m: &mut Metrics,
) -> Result<(), String> {
    let CampaignRun {
        plan,
        store,
        body,
        scratch: out,
    } = *run;
    let mut put = |name: &str, value: f64| m.insert(name.to_string(), value);
    let text = campaign_text(seed, scale);
    put("campaign.cells", plan.len() as f64);
    let s = timed(rec, "campaign", "from_json_str+expand", 9, || {
        CampaignSpec::from_json_str(&text).and_then(|spec| spec.expand())
    });
    put("campaign.parse_expand_us", s * 1e6);
    let build_s = timed(rec, "campaign", "build_experiment.all", 1, || {
        plan.cells
            .iter()
            .filter_map(|c| regnet_campaign::cell::build_experiment(&c.spec).ok())
            .count()
    });
    put("campaign.build_experiment_ms_total", build_s * 1e3);
    put("campaign.build_share_pct", build_s / body.wall_s * 100.0);

    let cell_ms: Vec<f64> = body.results.values().map(|r| r.wall_ms as f64).collect();
    put("campaign.cell_ms_p50", median(&cell_ms));
    put(
        "campaign.cell_ms_max",
        cell_ms.iter().copied().fold(0.0, f64::max),
    );
    put(
        "campaign.export_ms_last",
        body.export_ms.last().copied().unwrap_or(0.0),
    );
    put("campaign.export_ms_total", body.export_ms.iter().sum());

    let results: Vec<&CellResult> = body.results.values().collect();
    let scratch = ResultStore::open(out.join("probe.store"))?;
    let mut next = results.iter().cycle();
    let s = timed(rec, "campaign", "ResultStore::save", results.len(), || {
        scratch.save(next.next().expect("the campaign landed cells"))
    });
    put("campaign.store_save_us", s * 1e6);
    let s = timed(rec, "campaign", "ResultStore::load_all", 3, || {
        store.load_all().map(|all| all.len())
    });
    put("campaign.store_load_all_ms", s * 1e3);
    let mut next = results.iter().cycle();
    let s = timed(
        rec,
        "metrics",
        "CellResult.json_roundtrip",
        results.len(),
        || {
            let cell = next.next().expect("the campaign landed cells");
            CellResult::from_json_str(&cell.to_json_string()).is_ok()
        },
    );
    put("metrics.cell_roundtrip_us", s * 1e6);

    // Re-running a finished campaign: every cell skipped, curves
    // re-exported once — what `campaign` does on a fully resumed store.
    let s = timed(rec, "campaign", "run_plan.resume_noop", 3, || {
        let opts = RunnerOptions {
            threads: 1,
            stop_after: None,
        };
        let outcome = run_plan(plan, store, &opts, |_| {});
        export_campaign(plan, &body.results, store.root()).is_ok() && outcome.is_ok()
    });
    put("campaign.resume_noop_ms", s * 1e3);

    let ud = plan
        .cells
        .iter()
        .find(|c| {
            c.key
                .starts_with("topo=torus;scheme=UP/DOWN;pattern=uniform")
        })
        .ok_or("the campaign has no torus UP/DOWN uniform cell")?;
    let query = WhatIfQuery::new(ud.spec.clone());
    let whatif_store = ResultStore::open(out.join("probe.whatif"))?;
    let started = Instant::now();
    let cold = rec.span("campaign", "what_if.cold", |_| {
        what_if(&query, &whatif_store, |_, _, _| {})
    })?;
    put("campaign.whatif_cold_s", started.elapsed().as_secs_f64());
    put("campaign.whatif_probes", cold.probes.len() as f64);
    let s = timed(rec, "campaign", "what_if.warm", 3, || {
        what_if(&query, &whatif_store, |_, _, _| {}).map(|r| r.cached)
    });
    put("campaign.whatif_warm_ms", s * 1e3);

    let upper = |scheme: &str| {
        let prefix = format!("topo=torus;scheme={scheme};pattern=uniform;load={TORUS_UPPER_LOAD};");
        plan.cells
            .iter()
            .find(|c| c.key.starts_with(&prefix))
            .and_then(|c| body.results.get(&c.hash))
            .map(|r| r.accepted)
    };
    let ratio = match (upper("ITB-RR"), upper("UP/DOWN")) {
        (Some(rr), Some(ud)) if ud > 0.0 => rr / ud,
        _ => return Err("the torus ladder's upper cells did not land".into()),
    };
    put("accuracy.torus_rr_over_ud_accepted", ratio);
    Ok(())
}

/// What the traced child hands over: the body it just ran under spans.
pub enum TracedBody<'a> {
    Point(Box<PointBody>),
    Campaign(CampaignRun<'a>),
}

/// Every per-layer metric of `name` except the parent's `bench.*` rows.
pub fn layer_metrics(
    name: &str,
    seed: u64,
    scale: u64,
    traced: TracedBody<'_>,
    rec: &mut Recorder,
) -> Result<Metrics, String> {
    let mut m: Metrics = NAMES
        .iter()
        .filter(|(n, _)| !n.starts_with("bench."))
        .map(|(n, _)| (n.to_string(), 0.0))
        .collect();
    let probe = probe_input(name, seed, scale);
    static_layers(&probe, scale, rec, &mut m);
    // Every probe run below shares one experiment: same topology and scheme.
    let exp = build_point(&probe, rec);

    // The workload's own input with every recorder armed (and its faults,
    // if any). `observed_torus` is that run already.
    let own = point_input(name, seed, scale).unwrap_or_else(|| probe.clone());
    let body = match traced {
        TracedBody::Point(body) => *body,
        TracedBody::Campaign(run) => {
            campaign_layer(seed, scale, &run, rec, &mut m)?;
            run_body(&exp, &probe, rec)
        }
    };
    let armed_again = if body.obs.profile.is_some() && body.obs.journal.is_some() {
        None
    } else {
        let all_armed = PointInput {
            opts: all_recorders(own.opts.clone()),
            ..own.clone()
        };
        Some(run_body(&exp, &all_armed, rec))
    };
    let profiled = armed_again.as_ref().unwrap_or(&body);
    cycle_loop(&exp, &own, &body, profiled, &mut m);
    metrics_layer(profiled, rec, &mut m);
    mapper_layer(&own, rec, &mut m);

    // Probes that cost a full extra run each use quarter-length windows
    // (the campaign's cell windows are a tenth already).
    let short = if name == CAMPAIGN {
        probe
    } else {
        probe_input(name, seed, scale * 4)
    };
    scheduler_probes(&exp, &short, scale, rec, &mut m);
    observer_probes(&exp, &short, rec, &mut m);
    Ok(m)
}
