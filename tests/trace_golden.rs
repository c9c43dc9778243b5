//! Golden-file regression test for the Chrome `trace_event` exporter.
//!
//! A tiny seeded run on the 2×2 torus under ITB-SP is exported as Chrome
//! trace JSON and compared byte-for-byte against the committed golden file
//! (`tests/golden/trace_tiny_torus.json`). The export is a pure function
//! of the run, and the run is a pure function of the seed, so any byte
//! drift means either the simulator's event stream or the exporter's
//! encoding changed — both worth a deliberate re-bless.
//!
//! Regenerate with: `REGNET_BLESS=1 cargo test --test trace_golden`.
//!
//! A second test validates the trace against the `trace_event` schema with
//! the in-repo JSON parser (no external tooling): every event carries
//! `name`/`ph`/`ts`/`pid`/`tid`, phases are from the known set, and the
//! packet-journey flows (`s`/`t`/`f`) are present — including the `t` flow
//! steps that mark ITB hops.

use regnet::metrics::JsonValue;
use regnet::prelude::*;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/trace_tiny_torus.json"
);

/// One fixed tiny run: everything about it (topology, scheme, load, seed,
/// windows) is part of the golden file's identity.
fn tiny_traced_run() -> RunObservation {
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
            events: Some(EventOptions::default()),
            ..RunOptions::default()
        },
    )
}

fn trace_json() -> String {
    let obs = tiny_traced_run();
    let journal = obs.journal.expect("journal was enabled");
    assert!(!journal.is_empty(), "the tiny run must record events");
    assert_eq!(
        journal.evicted(),
        0,
        "the golden run must fit in the ring buffer"
    );
    journal.to_chrome().to_json()
}

#[test]
fn chrome_trace_matches_golden_file() {
    let json = trace_json();
    if std::env::var_os("REGNET_BLESS").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden")).unwrap();
        std::fs::write(GOLDEN, &json).unwrap();
        eprintln!("blessed {GOLDEN} ({} bytes)", json.len());
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing; run REGNET_BLESS=1 cargo test --test trace_golden");
    assert_eq!(
        json, golden,
        "Chrome trace drifted from the golden file; if the change is \
         intentional re-bless with REGNET_BLESS=1"
    );
}

#[test]
fn chrome_trace_is_valid_trace_event_json() {
    let json = trace_json();
    let root = JsonValue::parse(&json).expect("exporter must emit valid JSON");
    let events = root
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut phases_seen = std::collections::BTreeSet::new();
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .expect("every event has ph");
        assert!(
            ["M", "i", "X", "b", "e", "s", "t", "f"].contains(&ph),
            "unknown phase {ph:?}"
        );
        assert!(ev.get("name").and_then(|v| v.as_str()).is_some());
        assert!(ev.get("pid").and_then(|v| v.as_f64()).is_some());
        assert!(ev.get("tid").and_then(|v| v.as_f64()).is_some());
        if ph != "M" {
            let ts = ev.get("ts").and_then(|v| v.as_f64()).expect("ts");
            assert!(ts >= 0.0);
        }
        if ["b", "e", "s", "t", "f"].contains(&ph) {
            assert!(
                ev.get("id").and_then(|v| v.as_str()).is_some(),
                "journey events need a correlation id"
            );
        }
        phases_seen.insert(ph.to_string());
    }
    // The journey layer must actually be exercised: flow start/step/finish
    // (the `t` steps are the ITB hops) and the async journey spans.
    for required in ["M", "i", "s", "t", "f", "b", "e"] {
        assert!(
            phases_seen.contains(required),
            "expected at least one {required:?} event, saw {phases_seen:?}"
        );
    }
    // Timestamps are monotone per track? Not guaranteed by the format —
    // but instants within one thread are emitted in simulation order.
    let counters = tiny_traced_run().stats.counters.expect("counters enabled");
    assert!(
        counters.itb_ejections > 0,
        "the golden scenario must route through ITBs: {counters:?}"
    );
}
