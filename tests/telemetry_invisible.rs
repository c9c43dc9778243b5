//! Telemetry must be invisible: on every paper topology × scheme, a run
//! with the full flight-recorder stack on (counters, metrics sampler,
//! occupancy + lifetime probes, digest, self-profiler) produces the same
//! `RunStats` as a bare run with no observers at all, and the same
//! delivered-message digest as a digest-only run — on the scan oracle and
//! on the engine users run, whose time skip credits the profiler and
//! whose sampled child spans branch on the cycle.

mod common;

use common::{cfg, contenders, opts, reference};
use regnet::prelude::*;

fn assert_telemetry_invisible(build: fn() -> Topology, scheme: RoutingScheme) {
    for scheduler in std::iter::once(reference()).chain(contenders()) {
        assert_invisible_on(build, scheme, scheduler);
    }
}

fn assert_invisible_on(build: fn() -> Topology, scheme: RoutingScheme, scheduler: Scheduler) {
    let run = |trace: TraceOptions, counters: bool, profile: bool| {
        let exp = Experiment::new(
            build(),
            scheme,
            RouteDbConfig::default(),
            PatternSpec::Uniform,
            cfg(),
        )
        .unwrap();
        let obs = exp.run_observed(
            0.01,
            &RunOptions {
                trace,
                counters,
                profile,
                ..opts(scheduler)
            },
        );
        if profile {
            assert!(obs.profile.as_ref().is_some_and(|p| p.sampled_cycles > 0));
        }
        let mut stats = obs.stats;
        stats.counters = None;
        (stats, obs.trace.and_then(|t| t.digest))
    };
    let (bare, no_digest) = run(TraceOptions::default(), false, false);
    assert_eq!(no_digest, None);
    let (minimal, digest) = run(TraceOptions::digest_only(), false, false);
    let full = TraceOptions {
        digest: true,
        packet_lifetimes: true,
        itb_occupancy_interval: Some(500),
        metrics_interval: Some(250),
        goodput_interval: Some(1_000),
        channel_util_interval: Some(1_000),
    };
    let (observed, observed_digest) = run(full, true, true);
    assert_eq!(bare, minimal, "the digest observer perturbed {scheduler:?}");
    assert_eq!(
        bare, observed,
        "the flight recorder perturbed {scheduler:?}"
    );
    assert!(digest.is_some());
    assert_eq!(
        digest, observed_digest,
        "telemetry changed the digest on {scheduler:?}"
    );
}

#[test]
fn torus_up_down() {
    assert_telemetry_invisible(common::torus, RoutingScheme::UpDown);
}

#[test]
fn torus_itb_sp() {
    assert_telemetry_invisible(common::torus, RoutingScheme::ItbSp);
}

#[test]
fn torus_itb_rr() {
    assert_telemetry_invisible(common::torus, RoutingScheme::ItbRr);
}

#[test]
fn express_up_down() {
    assert_telemetry_invisible(common::express, RoutingScheme::UpDown);
}

#[test]
fn express_itb_sp() {
    assert_telemetry_invisible(common::express, RoutingScheme::ItbSp);
}

#[test]
fn express_itb_rr() {
    assert_telemetry_invisible(common::express, RoutingScheme::ItbRr);
}

#[test]
fn cplant_up_down() {
    assert_telemetry_invisible(common::cplant, RoutingScheme::UpDown);
}

#[test]
fn cplant_itb_sp() {
    assert_telemetry_invisible(common::cplant, RoutingScheme::ItbSp);
}

#[test]
fn cplant_itb_rr() {
    assert_telemetry_invisible(common::cplant, RoutingScheme::ItbRr);
}
