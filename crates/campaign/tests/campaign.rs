//! End-to-end campaign orchestrator tests: hash stability across file
//! spellings, interrupted-then-resumed campaigns converging to the
//! uninterrupted result, and campaign cells reproducing exactly what a
//! directly-driven `Experiment` produces.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use regnet_campaign::{run_plan, CampaignSpec, CellSpec, ResultStore, RunnerOptions, TopoSpec};
use regnet_core::{RouteDbConfig, RoutingScheme};
use regnet_netsim::{Experiment, RunOptions, SimConfig, TraceOptions};
use regnet_traffic::PatternSpec;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("regnet-campaign-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A small 6-cell campaign used by the resume tests.
fn small_campaign() -> &'static str {
    r#"{
        "schema": "regnet-campaign-v1",
        "name": "it-small",
        "defaults": {"warmup_cycles": 2000, "measure_cycles": 10000,
                     "payload_flits": 64, "seed": 9},
        "sweeps": [
            {"group": "torus", "topos": ["torus:4x4:2"],
             "schemes": ["UP/DOWN", "ITB-RR"], "patterns": ["uniform"],
             "loads": [0.004, 0.008, 0.012]}
        ]
    }"#
}

/// Satellite: identical cell specs hash identically no matter how the
/// campaign file spells them — field order inside objects, axis order
/// across sweeps, numeric spellings (0.008 vs 8e-3) are all irrelevant;
/// only the resolved cell matters.
#[test]
fn hashes_are_stable_across_json_field_orderings() {
    let a = CampaignSpec::from_json_str(
        r#"{
            "name": "order-a",
            "defaults": {"warmup_cycles": 2000, "measure_cycles": 10000,
                         "payload_flits": 64, "seed": 3},
            "sweeps": [
                {"group": "g", "topos": ["torus:4x4:2"], "schemes": ["ITB-RR", "UP/DOWN"],
                 "patterns": ["uniform"], "loads": [0.004, 0.008]}
            ]
        }"#,
    )
    .unwrap()
    .expand()
    .unwrap();
    // Same cells: every object's fields reordered, scheme axis reversed,
    // loads reversed and respelled, defaults pushed into the sweep.
    let b = CampaignSpec::from_json_str(
        r#"{
            "sweeps": [
                {"loads": [8e-3, 4.0e-3], "patterns": ["uniform"],
                 "schemes": ["up_down", "itb-rr"], "topos": ["torus:4x4:2"],
                 "group": "g",
                 "seed": 3, "payload_flits": 64,
                 "measure_cycles": 10000, "warmup_cycles": 2000}
            ],
            "name": "order-b"
        }"#,
    )
    .unwrap()
    .expand()
    .unwrap();
    let ha: BTreeSet<&str> = a.cells.iter().map(|c| c.hash.as_str()).collect();
    let hb: BTreeSet<&str> = b.cells.iter().map(|c| c.hash.as_str()).collect();
    assert_eq!(a.len(), 4);
    assert_eq!(ha, hb, "file spelling leaked into the config hashes");
    // And the hashes really separate distinct cells.
    assert_eq!(ha.len(), 4);
}

/// Satellite: a campaign killed halfway (queue dropped after N cells) and
/// restarted converges to the same results directory as an uninterrupted
/// run, cell for cell.
#[test]
fn interrupted_campaign_resumes_to_identical_results() {
    let plan = CampaignSpec::from_json_str(small_campaign())
        .unwrap()
        .expand()
        .unwrap();
    assert_eq!(plan.len(), 6);

    // Reference: one uninterrupted run.
    let ref_dir = temp_dir("ref");
    let ref_store = ResultStore::open(&ref_dir).unwrap();
    let out = run_plan(&plan, &ref_store, &RunnerOptions::default(), |_| {}).unwrap();
    assert!(out.complete());

    // Interrupted: 2 workers, queue dropped after 3 cells, then restart.
    let res_dir = temp_dir("res");
    let res_store = ResultStore::open(&res_dir).unwrap();
    let first = run_plan(
        &plan,
        &res_store,
        &RunnerOptions {
            threads: 2,
            stop_after: Some(3),
        },
        |_| {},
    )
    .unwrap();
    assert_eq!(first.ran, 3);
    assert!(!first.complete());
    assert_eq!(res_store.len(), 3, "interrupted run checkpointed 3 cells");
    let second = run_plan(
        &plan,
        &res_store,
        &RunnerOptions {
            threads: 2,
            stop_after: None,
        },
        |_| {},
    )
    .unwrap();
    assert_eq!(
        second.skipped, 3,
        "restart must skip the checkpointed cells"
    );
    assert_eq!(second.ran, 3);
    assert!(second.complete());

    let reference = ref_store.load_all().unwrap();
    let merged = res_store.load_all().unwrap();
    assert_eq!(
        reference.keys().collect::<Vec<_>>(),
        merged.keys().collect::<Vec<_>>()
    );
    for (hash, r) in &reference {
        assert!(
            r.same_results(&merged[hash]),
            "cell {hash} differs between the uninterrupted and resumed runs"
        );
    }
    let _ = fs::remove_dir_all(&ref_dir);
    let _ = fs::remove_dir_all(&res_dir);
}

/// Acceptance: a campaign cell produces exactly what the fig binaries'
/// directly-driven `Experiment` produces for the same configuration —
/// same stats, same digest — even when the direct run enables observers
/// the campaign doesn't (fig08 traces channel utilization; observers
/// never perturb results). The cell here is fig08's UP/DOWN point at
/// offered 0.015 on the paper torus, with windows shortened identically
/// on both sides to keep the test fast.
#[test]
fn campaign_cell_matches_direct_experiment() {
    let spec = CellSpec {
        topo: TopoSpec::Torus,
        scheme: RoutingScheme::UpDown,
        pattern: PatternSpec::Uniform,
        load: 0.015,
        seed: 8,
        warmup_cycles: 5_000,
        measure_cycles: 20_000,
        payload_flits: SimConfig::default().payload_flits,
        goodput_interval: None,
        reconfig_latency_cycles: None,
        faults: None,
    };
    let cell = regnet_campaign::run_cell(&spec).unwrap();

    // The direct path, as crates/bench/src/experiments.rs drives fig08:
    // same topology constructor, same config, same seed and windows, plus
    // the channel-utilization trace the fig binary turns on.
    let exp = Experiment::new(
        regnet_topology::gen::torus_2d(8, 8, 8).unwrap(),
        RoutingScheme::UpDown,
        RouteDbConfig::default(),
        PatternSpec::Uniform,
        SimConfig::default(),
    )
    .unwrap();
    let opts = RunOptions {
        warmup_cycles: 5_000,
        measure_cycles: 20_000,
        seed: 8,
        trace: TraceOptions {
            digest: true,
            channel_util_interval: Some(5_000),
            ..TraceOptions::default()
        },
        ..RunOptions::default()
    };
    let obs = exp.run_observed(0.015, &opts);
    let n_switches = exp.topology().num_switches();

    assert_eq!(
        cell.accepted,
        obs.stats.accepted_flits_per_ns_per_switch(n_switches),
        "accepted traffic diverged between campaign and direct runs"
    );
    assert_eq!(cell.avg_latency_ns, obs.stats.avg_latency_ns);
    assert_eq!(cell.p99_latency_ns, obs.stats.p99_latency_ns);
    assert_eq!(cell.avg_itbs_per_msg, obs.stats.avg_itbs_per_msg);
    assert_eq!(cell.delivered, obs.stats.delivered);
    assert_eq!(cell.generated, obs.stats.generated);
    let trace = obs.trace.expect("digest observer was enabled");
    assert_eq!(
        cell.digest,
        trace.digest.map(|d| format!("{d:016x}")),
        "trace digest diverged between campaign and direct runs"
    );
    assert_eq!(cell.digest_events, trace.digest_events);
    assert!(cell.delivered > 0, "the cell must carry real traffic");
}

/// The committed paper campaign expands to the fig08/09/11 grids: right
/// cell count, no duplicates, and the exact loads the fig binaries use.
#[test]
fn paper_figs_campaign_expands_to_the_fig_grids() {
    let text = fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../campaigns/paper_figs.json"
    ))
    .expect("campaigns/paper_figs.json is committed");
    let plan = CampaignSpec::from_json_str(&text)
        .unwrap()
        .expand()
        .unwrap();
    assert!(!plan.is_empty());
    // Every hash unique by construction; spot-check the fig08 anchor cells.
    let keys: Vec<&str> = plan.cells.iter().map(|c| c.key.as_str()).collect();
    for needle in [
        "topo=torus;scheme=UP/DOWN;pattern=uniform;load=0.015;seed=8",
        "topo=torus;scheme=ITB-RR;pattern=uniform;load=0.015;seed=8",
        "topo=torus;scheme=ITB-RR;pattern=uniform;load=0.03;seed=8",
        "topo=express;scheme=UP/DOWN;pattern=uniform;load=0.066;seed=8",
        "topo=express;scheme=ITB-RR;pattern=uniform;load=0.066;seed=8",
    ] {
        assert!(
            keys.iter().any(|k| k.starts_with(needle)),
            "paper campaign is missing the fig cell {needle:?}"
        );
    }
    // fig11's hotspot sweep rides along.
    assert!(
        keys.iter()
            .any(|k| k.contains("pattern=hotspot:") && k.contains("load=0.0123")),
        "paper campaign is missing fig11's hotspot cell"
    );
}
