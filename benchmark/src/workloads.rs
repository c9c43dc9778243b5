//! The five workloads: how their inputs are generated from the seed, and
//! the timed set-up and body of each.
//!
//! Every workload is fixed work — a cycle count or a cell list — on one
//! simulation thread (`Scheduler::default()`, campaign `threads = 1`).
//! Why each exists is recorded in `BENCHMARK.json` and `README.md`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use regnet_campaign::{
    cell::build_experiment, export_campaign, run_plan, CampaignSpec, CellResult, ResultStore,
    RunPlan, RunnerEvent, RunnerOptions, StatusBoard, TopoSpec,
};
use regnet_core::{RouteDbConfig, RoutingScheme};
use regnet_netsim::{
    EventOptions, Experiment, FaultOptions, FaultPlan, RunObservation, RunOptions, SimConfig,
    TraceOptions,
};
use regnet_topology::{LinkId, Topology};
use regnet_traffic::{random_hotspots, PatternSpec};

use crate::spans::Recorder;

pub const WORKLOADS: [&str; 5] = [
    "sat_torus",
    "lowload_cplant",
    "observed_torus",
    "faulted_torus",
    "campaign_ladder",
];

pub const CAMPAIGN: &str = "campaign_ladder";

/// The seed the committed golden files were taken with.
pub const DEFAULT_SEED: u64 = 8;

/// The campaign file as committed: valid for the `campaign` binary as it
/// stands, and the template the seeded input is generated from.
const CAMPAIGN_TEMPLATE: &str = include_str!("../workloads/campaign_ladder.json");

/// Upper point (6 of 8) of the torus Fig. 7 ladder, as the campaign file
/// spells it.
pub const TORUS_UPPER_LOAD: f64 = 0.020758044553791728;

pub fn build_topology(topo: TopoSpec) -> Topology {
    topo.build().expect("the paper topologies always build")
}

/// Generated input of a single-point workload: what `Experiment::new`
/// and `Experiment::run_observed` take.
#[derive(Debug, Clone)]
pub struct PointInput {
    pub topo: TopoSpec,
    pub scheme: RoutingScheme,
    pub pattern: PatternSpec,
    /// Offered load, flits/ns/switch.
    pub offered: f64,
    pub opts: RunOptions,
}

/// `opts` with everything `observed_torus` switches on: what
/// `probe --flame`, `diagnose` and `bench_report`'s traced cells run.
pub fn all_recorders(opts: RunOptions) -> RunOptions {
    RunOptions {
        counters: true,
        events: Some(EventOptions::default()),
        trace: TraceOptions::full(1000),
        profile: true,
        ..opts
    }
}

/// Input of `name` for `seed`, with every cycle count divided by `scale`
/// (1 = the benchmark's size, 4 = per-layer probes, 20 = `--smoke`).
/// `None` for the campaign workload, whose input is a campaign file.
pub fn point_input(name: &str, seed: u64, scale: u64) -> Option<PointInput> {
    let torus_rr = |offered: f64, total: u64| PointInput {
        topo: TopoSpec::Torus,
        scheme: RoutingScheme::ItbRr,
        pattern: PatternSpec::Uniform,
        offered,
        opts: RunOptions {
            warmup_cycles: total / 5 / scale,
            measure_cycles: total * 4 / 5 / scale,
            seed,
            ..RunOptions::default()
        },
    };
    Some(match name {
        // Top of the Fig. 7a ladder, past the knee.
        "sat_torus" => torus_rr(0.045, 100_000),
        "observed_torus" => {
            let plain = torus_rr(0.045, 100_000);
            PointInput {
                opts: all_recorders(plain.opts.clone()),
                ..plain
            }
        }
        "lowload_cplant" => PointInput {
            topo: TopoSpec::Cplant,
            scheme: RoutingScheme::ItbSp,
            ..torus_rr(0.001, 2_000_000)
        },
        "faulted_torus" => {
            let plain = torus_rr(0.015, 200_000);
            PointInput {
                opts: RunOptions {
                    // As `fault_sweep` runs: digest + goodput series.
                    trace: TraceOptions {
                        digest: true,
                        goodput_interval: Some(1000),
                        ..TraceOptions::default()
                    },
                    faults: Some(FaultOptions::with_plan(fault_plan(seed, 200_000 / scale))),
                    ..plain.opts.clone()
                },
                ..plain
            }
        }
        _ => return None,
    })
}

/// Four distinct switch↔switch links drawn from the seed, failed and
/// repaired in turn at ninths of the run: eight reconfigurations.
fn fault_plan(seed: u64, total_cycles: u64) -> FaultPlan {
    let topo = build_topology(TopoSpec::Torus);
    let mut links: Vec<LinkId> = topo
        .links()
        .iter()
        .filter(|l| l.is_switch_link())
        .map(|l| l.id)
        .collect();
    links.shuffle(&mut SmallRng::seed_from_u64(seed));
    let mut plan = FaultPlan::new();
    for (k, &link) in links.iter().take(4).enumerate() {
        let k = k as u64;
        plan.fail_link(total_cycles * (2 * k + 1) / 9, link);
        plan.repair_link(total_cycles * (2 * k + 2) / 9, link);
    }
    plan
}

/// The set-up stage of a point workload, as `probe`, `fault_sweep` and
/// the campaign's `build_experiment` perform it: generate the topology,
/// then `Experiment::new` (route tables + the resolved traffic pattern).
pub fn build_point(input: &PointInput, rec: &mut Recorder) -> Experiment {
    let topo = rec.span("topology", "gen", |_| build_topology(input.topo));
    rec.span("netsim", "Experiment::new", |_| {
        Experiment::new(
            topo,
            input.scheme,
            RouteDbConfig::default(),
            input.pattern,
            SimConfig::default(),
        )
        .expect("the workload patterns fit their topology")
    })
}

/// What one point body produced, beyond its timing.
pub struct PointBody {
    pub wall_s: f64,
    pub obs: RunObservation,
}

/// The body of a point workload: `Experiment::run_observed`, the entry
/// point every `run_*` method projects from — simulator construction,
/// arming, warm-up, the measurement window and collecting the results.
pub fn run_body(exp: &Experiment, input: &PointInput, rec: &mut Recorder) -> PointBody {
    let started = Instant::now();
    let obs = rec.span("netsim", "Experiment::run_observed", |_| {
        exp.run_observed(input.offered, &input.opts)
    });
    PointBody {
        wall_s: started.elapsed().as_secs_f64(),
        obs,
    }
}

/// Time the set-up stage of a point workload and, if `with_body`, the
/// body after it.
pub fn run_point(
    input: &PointInput,
    with_body: bool,
    rec: &mut Recorder,
) -> (f64, Option<PointBody>) {
    let started = Instant::now();
    let exp = build_point(input, rec);
    let setup_s = started.elapsed().as_secs_f64();
    let body = with_body.then(|| run_body(&exp, input, rec));
    (setup_s, body)
}

/// The campaign file for `seed`: the committed template with its seed,
/// its seeded hotspot host and (for `scale > 1`) its windows rewritten.
pub fn campaign_text(seed: u64, scale: u64) -> String {
    let hotspot = |seed: u64| {
        let torus = build_topology(TopoSpec::Torus);
        random_hotspots(&torus, 1, &mut SmallRng::seed_from_u64(seed))[0].0
    };
    let mut text = CAMPAIGN_TEMPLATE.to_string();
    for (from, to) in [
        (
            format!("\"seed\": {DEFAULT_SEED}"),
            format!("\"seed\": {seed}"),
        ),
        (
            format!("hotspot:0.1@{}", hotspot(DEFAULT_SEED)),
            format!("hotspot:0.1@{}", hotspot(seed)),
        ),
        (
            "\"warmup_cycles\": 6000".to_string(),
            format!("\"warmup_cycles\": {}", 6000 / scale),
        ),
        (
            "\"measure_cycles\": 15000".to_string(),
            format!("\"measure_cycles\": {}", 15000 / scale),
        ),
    ] {
        assert_eq!(
            text.matches(&from).count(),
            1,
            "campaign template must spell {from:?} exactly once"
        );
        text = text.replace(&from, &to);
    }
    text
}

/// Set-up stage of the campaign workload: parse, expand, open the store
/// and build every planned cell's experiment (topology + route tables +
/// pattern), as the runner will again per cell.
pub fn campaign_setup(
    text: &str,
    out: &Path,
    rec: &mut Recorder,
) -> Result<(f64, RunPlan, ResultStore), String> {
    let started = Instant::now();
    let spec = rec.span("campaign", "CampaignSpec::from_json_str", |_| {
        CampaignSpec::from_json_str(text)
    })?;
    let plan = rec.span("campaign", "CampaignSpec::expand", |_| spec.expand())?;
    let store = rec.span("campaign", "ResultStore::open", |_| ResultStore::open(out))?;
    rec.span("campaign", "build_experiment.all", |_| {
        plan.cells
            .iter()
            .try_for_each(|cell| build_experiment(&cell.spec).map(drop))
    })?;
    Ok((started.elapsed().as_secs_f64(), plan, store))
}

pub struct CampaignBody {
    pub wall_s: f64,
    /// Landed cells by config hash.
    pub results: BTreeMap<String, CellResult>,
    /// Host milliseconds of each `export_campaign`, in landing order.
    pub export_ms: Vec<f64>,
    /// Cells that errored, and export errors.
    pub errors: Vec<String>,
}

/// Body of the campaign workload: the `campaign` binary's loop through
/// the library — `run_plan` on one worker, the status board republished
/// on every event, every curve re-exported after every landed cell.
/// Timed from `run_plan` start to the last export written.
pub fn campaign_body(plan: &RunPlan, store: &ResultStore, rec: &mut Recorder) -> CampaignBody {
    let out_dir: PathBuf = store.root().to_path_buf();
    let mut results = BTreeMap::new();
    let mut export_ms = Vec::new();
    let mut errors = Vec::new();
    let started = Instant::now();
    rec.enter("campaign", "run_plan");
    let mut board = StatusBoard::new(out_dir.join("status.json"), "benchmark", plan.len(), 1);
    let opts = RunnerOptions {
        threads: 1,
        stop_after: None,
    };
    let outcome = run_plan(plan, store, &opts, |ev| match ev {
        RunnerEvent::Started { worker, cell } => board.started(worker, &cell.key),
        RunnerEvent::Done(done) => {
            board.done(done.worker, &done.cell.key);
            results.insert(done.result.hash.clone(), done.result.clone());
            let t = Instant::now();
            let exported = rec.span("campaign", "export_campaign", |_| {
                export_campaign(plan, &results, &out_dir)
            });
            export_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if let Err(e) = exported {
                errors.push(e);
            }
        }
        RunnerEvent::Failed {
            worker,
            cell,
            error,
        } => {
            board.failed(worker, &cell.key, error);
            errors.push(error.to_string());
        }
    });
    board.finish(if outcome.is_ok() { "done" } else { "failed" });
    rec.exit();
    let wall_s = started.elapsed().as_secs_f64();
    if let Err(e) = outcome {
        // `run_plan` folds cell errors (already collected) into its own.
        if errors.is_empty() {
            errors.push(e);
        }
    }
    CampaignBody {
        wall_s,
        results,
        export_ms,
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_campaign_is_the_committed_file() {
        assert_eq!(campaign_text(DEFAULT_SEED, 1), CAMPAIGN_TEMPLATE);
    }

    #[test]
    fn seed_and_scale_rewrite_the_campaign() {
        let text = campaign_text(DEFAULT_SEED + 1, 20);
        let plan = CampaignSpec::from_json_str(&text)
            .unwrap()
            .expand()
            .unwrap();
        assert_eq!(plan.len(), 21);
        for cell in &plan.cells {
            assert_eq!(cell.spec.seed, DEFAULT_SEED + 1);
            assert_eq!(cell.spec.warmup_cycles, 300);
            assert_eq!(cell.spec.measure_cycles, 750);
        }
    }

    #[test]
    fn fault_plan_fails_and_repairs_four_distinct_links_in_turn() {
        let plan = fault_plan(3, 200_000);
        assert_eq!(plan.len(), 8);
        let cycles: Vec<u64> = plan.events.iter().map(|e| e.cycle).collect();
        assert!(cycles.windows(2).all(|w| w[0] < w[1]), "{cycles:?}");
        let mut failed: Vec<_> = plan
            .events
            .iter()
            .filter(|e| e.fail)
            .map(|e| format!("{:?}", e.target))
            .collect();
        failed.sort();
        failed.dedup();
        assert_eq!(failed.len(), 4);
        assert_ne!(
            format!("{:?}", fault_plan(4, 200_000).events),
            format!("{:?}", plan.events)
        );
    }
}
