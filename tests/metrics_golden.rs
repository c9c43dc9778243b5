//! Golden-file regression test for the Prometheus text exposition.
//!
//! A tiny seeded run on the 2×2 torus under ITB-SP is projected through
//! [`RunObservation::metrics_registry`] and compared byte-for-byte
//! against the committed golden file
//! (`tests/golden/metrics_tiny_torus.prom`). The registry only carries
//! values the simulation determined (no wall clock), so the exposition is
//! a pure function of the seed: any byte drift means either the simulator
//! or the exposition encoding changed — both worth a deliberate re-bless.
//!
//! Regenerate with: `REGNET_BLESS=1 cargo test --test metrics_golden`.

use regnet::prelude::*;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/metrics_tiny_torus.prom"
);

/// One fixed tiny run with every metrics-relevant observer on.
fn tiny_observed_run() -> RunObservation {
    let topo = gen::torus_2d(2, 2, 2).unwrap();
    let exp = Experiment::new(
        topo,
        RoutingScheme::ItbSp,
        RouteDbConfig::default(),
        PatternSpec::Uniform,
        SimConfig {
            payload_flits: 16,
            ..SimConfig::default()
        },
    )
    .unwrap();
    exp.run_observed(
        0.02,
        &RunOptions {
            warmup_cycles: 0,
            measure_cycles: 2_000,
            seed: 7,
            counters: true,
            trace: TraceOptions {
                digest: true,
                packet_lifetimes: true,
                itb_occupancy_interval: Some(250),
                metrics_interval: Some(250),
                ..TraceOptions::default()
            },
            ..RunOptions::default()
        },
    )
}

fn exposition() -> String {
    let obs = tiny_observed_run();
    assert!(obs.stats.delivered > 0, "the tiny run must deliver traffic");
    let reg = obs.metrics_registry();
    assert!(!reg.is_empty());
    reg.to_prometheus()
}

#[test]
fn prometheus_exposition_matches_golden_file() {
    let text = exposition();
    if std::env::var_os("REGNET_BLESS").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden")).unwrap();
        std::fs::write(GOLDEN, &text).unwrap();
        eprintln!("blessed {GOLDEN} ({} bytes)", text.len());
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing; run REGNET_BLESS=1 cargo test --test metrics_golden");
    assert_eq!(
        text, golden,
        "Prometheus exposition drifted from the golden file; if the \
         change is intentional re-bless with REGNET_BLESS=1"
    );
}

#[test]
fn exposition_is_well_formed_and_carries_the_counters() {
    let text = exposition();
    let mut families = std::collections::BTreeSet::new();
    for line in text.lines() {
        assert!(!line.is_empty(), "no blank lines in the exposition");
        if let Some(rest) = line.strip_prefix("# ") {
            assert!(
                rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                "unknown comment line {line:?}"
            );
            if let Some(t) = rest.strip_prefix("TYPE ") {
                let mut parts = t.split(' ');
                families.insert(parts.next().unwrap().to_string());
                assert!(
                    ["counter", "gauge", "summary"]
                        .contains(&parts.next().expect("TYPE has a kind")),
                    "bad TYPE in {line:?}"
                );
            }
        } else {
            // Sample line: name{labels} value — value must parse as f64.
            let value = line.rsplit(' ').next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable sample value in {line:?}"
            );
        }
    }
    for required in [
        "regnet_events_total",
        "regnet_run_window_cycles",
        "regnet_reliability_total",
        "regnet_digest_events_total",
        "regnet_itb_pool_peak_flits",
        "regnet_packet_lifetime_cycles",
    ] {
        assert!(families.contains(required), "missing family {required}");
    }
    // All 19 event counters must be present as labelled points.
    let events = text
        .lines()
        .filter(|l| l.starts_with("regnet_events_total{"))
        .count();
    assert_eq!(events, CounterSnapshot::NAMES.len());
}

/// The sampler rides the telemetry ticks, so its series — not just the
/// end-of-run stats — must be identical under the engine and its oracle.
#[test]
fn metrics_series_is_scheduler_invariant() {
    let run = |scheduler| {
        let topo = gen::torus_2d(2, 2, 2).unwrap();
        let exp = Experiment::new(
            topo,
            RoutingScheme::ItbSp,
            RouteDbConfig::default(),
            PatternSpec::Uniform,
            SimConfig {
                payload_flits: 16,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let obs = exp.run_observed(
            0.02,
            &RunOptions {
                warmup_cycles: 0,
                measure_cycles: 2_000,
                seed: 7,
                counters: true,
                scheduler,
                trace: TraceOptions {
                    metrics_interval: Some(100),
                    ..TraceOptions::default()
                },
                ..RunOptions::default()
            },
        );
        obs.trace.expect("trace on").metrics.expect("sampler on")
    };
    let reference = run(Scheduler::ActiveSet);
    assert!(!reference.samples.is_empty());
    assert_eq!(
        reference,
        run(Scheduler::Scan),
        "metrics series diverged under the scan oracle"
    );
}
