//! Determinism regression suite: a run is a pure function of
//! (topology, routing scheme, pattern, config, seed, fault plan).
//! Re-running with the same seed must reproduce the measurement statistics
//! *and* the trace digest — a stable hash folded over every
//! delivered-message event in order, so it catches reorderings that happen
//! to leave the aggregate statistics unchanged. With a fault plan the
//! ReliabilityStats must reproduce too.

use regnet::prelude::*;

/// Cycle loop under test: the default engine, or — CI runs the whole
/// suite a second time with `REGNET_SCHEDULER=scan` — its oracle.
fn scheduler() -> Scheduler {
    match std::env::var("REGNET_SCHEDULER").as_deref() {
        Err(_) => Scheduler::default(),
        Ok("scan") => Scheduler::Scan,
        Ok(v) => panic!("REGNET_SCHEDULER={v:?}: the only accepted value is \"scan\""),
    }
}

fn opts(seed: u64) -> RunOptions {
    RunOptions {
        warmup_cycles: 2_000,
        measure_cycles: 10_000,
        seed,
        trace: TraceOptions::digest_only(),
        scheduler: scheduler(),
        ..RunOptions::default()
    }
}

fn run_once(topo: Topology, scheme: RoutingScheme, seed: u64) -> (RunStats, u64, u64) {
    let cfg = SimConfig {
        payload_flits: 64,
        ..SimConfig::default()
    };
    let exp = Experiment::new(
        topo,
        scheme,
        RouteDbConfig::default(),
        PatternSpec::Uniform,
        cfg,
    )
    .unwrap();
    let obs = exp.run_observed(0.01, &opts(seed));
    let trace = obs.trace.expect("digest observer was enabled");
    (
        obs.stats,
        trace.digest.expect("digest recorded"),
        trace.digest_events,
    )
}

/// What a seed-42 row must reproduce, literally: `(digest, digest_events,
/// delivered, generated)`. Re-running only shows that a run repeats
/// itself, and the engine-vs-oracle suites diff two loops that share the
/// kernel and the sink; these literals pin the results across commits, so
/// a refactor that moves one changed the model.
type Pin = (u64, u64, u64, u64);

fn assert_deterministic(build: fn() -> Topology, scheme: RoutingScheme, pin: Pin) {
    let (s1, d1, n1) = run_once(build(), scheme, 42);
    let (s2, d2, n2) = run_once(build(), scheme, 42);
    assert_eq!(
        s1,
        s2,
        "RunStats diverged across identical runs ({} {:?})",
        build().name(),
        scheme
    );
    assert_eq!(
        (d1, n1),
        (d2, n2),
        "trace digest diverged across identical runs ({} {:?})",
        build().name(),
        scheme
    );
    assert!(n1 > 0, "expected deliveries during the window");
    let got = (d1, n1, s1.delivered, s1.generated);
    assert_eq!(got, pin, "{} {scheme:?} moved off its pin", build().name());
}

fn torus() -> Topology {
    gen::torus_2d(8, 8, 8).unwrap()
}

fn express() -> Topology {
    gen::torus_2d_express(8, 8, 8).unwrap()
}

fn cplant() -> Topology {
    gen::cplant().unwrap()
}

#[test]
fn torus_updown_is_deterministic() {
    assert_deterministic(
        torus,
        RoutingScheme::UpDown,
        (0x9dac07dadcdf2b10, 728, 612, 614),
    );
}

#[test]
fn torus_itb_sp_is_deterministic() {
    assert_deterministic(
        torus,
        RoutingScheme::ItbSp,
        (0xf36c5d20edddbb28, 726, 612, 614),
    );
}

#[test]
fn torus_itb_rr_is_deterministic() {
    assert_deterministic(
        torus,
        RoutingScheme::ItbRr,
        (0x47f1147abf1476d2, 727, 611, 614),
    );
}

#[test]
fn express_updown_is_deterministic() {
    assert_deterministic(
        express,
        RoutingScheme::UpDown,
        (0x365b215f416d9cc1, 731, 608, 614),
    );
}

#[test]
fn express_itb_sp_is_deterministic() {
    assert_deterministic(
        express,
        RoutingScheme::ItbSp,
        (0x3783b04c22974680, 729, 607, 614),
    );
}

#[test]
fn express_itb_rr_is_deterministic() {
    assert_deterministic(
        express,
        RoutingScheme::ItbRr,
        (0x63aa53ecf786111f, 729, 608, 614),
    );
}

#[test]
fn cplant_updown_is_deterministic() {
    assert_deterministic(
        cplant,
        RoutingScheme::UpDown,
        (0x56437d1d022d49d2, 577, 479, 481),
    );
}

#[test]
fn cplant_itb_sp_is_deterministic() {
    assert_deterministic(
        cplant,
        RoutingScheme::ItbSp,
        (0x9c8f623a68823252, 576, 480, 481),
    );
}

#[test]
fn cplant_itb_rr_is_deterministic() {
    assert_deterministic(
        cplant,
        RoutingScheme::ItbRr,
        (0x6225ee389395397d, 578, 481, 481),
    );
}

/// The digest must actually depend on the traffic: different seeds produce
/// different delivery streams, so a digest collision here would mean the
/// observer is hashing nothing.
#[test]
fn different_seeds_give_different_digests() {
    let (_, d1, _) = run_once(torus(), RoutingScheme::ItbRr, 1);
    let (_, d2, _) = run_once(torus(), RoutingScheme::ItbRr, 2);
    assert_ne!(d1, d2);
}

// ---- The observability layer must reproduce too. ----

/// Counter snapshots are pure event counts, so two same-seed runs must
/// produce identical snapshots — and the Chrome trace export, a pure
/// function of the journal, must be byte-identical.
#[test]
fn counters_and_event_journal_are_deterministic() {
    let run = || {
        let exp = Experiment::new(
            gen::torus_2d(4, 4, 4).unwrap(),
            RoutingScheme::ItbRr,
            RouteDbConfig::default(),
            PatternSpec::Uniform,
            SimConfig {
                payload_flits: 64,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let obs = exp.run_observed(
            0.01,
            &RunOptions {
                counters: true,
                events: Some(EventOptions::default()),
                ..opts(42)
            },
        );
        let snap = obs.stats.counters.clone().expect("counters enabled");
        let trace = obs.journal.expect("journal enabled").to_chrome().to_json();
        (obs.stats, snap, trace)
    };
    let (s1, c1, t1) = run();
    let (s2, c2, t2) = run();
    assert_eq!(s1, s2, "RunStats diverged with observers enabled");
    assert_eq!(c1, c2, "counter snapshots diverged across identical runs");
    assert_eq!(t1, t2, "Chrome trace export diverged across identical runs");
    assert!(
        c1.total_events() > 0,
        "the run must count something: {c1:?}"
    );
    assert!(
        c1.messages_delivered > 0 && c1.flits_forwarded > c1.messages_delivered,
        "counters must reflect real traffic: {c1:?}"
    );
    assert_eq!(
        c1.messages_delivered, s1.delivered,
        "counter and measurement views of deliveries must agree"
    );
}

/// Enabling the observability layer must not perturb the simulation: the
/// RunStats of an observed run equals the RunStats of a bare run
/// (modulo the snapshot field itself).
#[test]
fn observers_do_not_perturb_the_simulation() {
    let run = |observed: bool| {
        let exp = Experiment::new(
            gen::torus_2d(4, 4, 4).unwrap(),
            RoutingScheme::ItbSp,
            RouteDbConfig::default(),
            PatternSpec::Uniform,
            SimConfig {
                payload_flits: 64,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let mut o = opts(42);
        if observed {
            o.counters = true;
            o.events = Some(EventOptions::default());
            o.profile = true;
            // The cycle-domain metrics sampler and occupancy probe ride
            // the same telemetry ticks; they must be invisible too.
            o.trace.metrics_interval = Some(500);
            o.trace.itb_occupancy_interval = Some(750);
            o.trace.packet_lifetimes = true;
        }
        let mut stats = exp.run_observed(0.01, &o).stats;
        stats.counters = None;
        stats
    };
    assert_eq!(
        run(false),
        run(true),
        "observers changed simulation behaviour"
    );
}

// ---- Faults are part of the run's identity. ----

fn faulted_plan(topo: &Topology) -> FaultPlan {
    let l = topo
        .links()
        .iter()
        .find(|l| l.is_switch_link())
        .expect("switch link")
        .id;
    let mut plan = FaultPlan::single_link(l, 4_000);
    plan.repair_link(9_000, l);
    plan
}

/// What [`faulted_plan`] does to every scheme's run: the cable fails and
/// is repaired with no worm on it, and the rebuild the failure schedules
/// (16k cycles later) never lands in the 12k-cycle run, so sources stall
/// from cycle 4,000 to the end.
fn link_outage() -> ReliabilityStats {
    ReliabilityStats {
        link_failures: 1,
        repairs: 1,
        reconfig_stall_cycles: 8_000,
        ..ReliabilityStats::default()
    }
}

fn run_faulted(
    topo: Topology,
    scheme: RoutingScheme,
    seed: u64,
) -> (RunStats, ReliabilityStats, u64, u64) {
    let plan = faulted_plan(&topo);
    let cfg = SimConfig {
        payload_flits: 64,
        ..SimConfig::default()
    };
    let exp = Experiment::new(
        topo,
        scheme,
        RouteDbConfig::default(),
        PatternSpec::Uniform,
        cfg,
    )
    .unwrap();
    let run_opts = RunOptions {
        faults: Some(FaultOptions::with_plan(plan)),
        ..opts(seed)
    };
    let obs = exp.run_observed(0.01, &run_opts);
    let trace = obs.trace.expect("digest observer was enabled");
    (
        obs.stats,
        obs.reliability,
        trace.digest.expect("digest recorded"),
        trace.digest_events,
    )
}

/// A faulted row pins its [`Pin`] and its whole `ReliabilityStats` too.
fn assert_faulted_deterministic(
    build: fn() -> Topology,
    scheme: RoutingScheme,
    pin: Pin,
    rel: ReliabilityStats,
) {
    let (s1, r1, d1, n1) = run_faulted(build(), scheme, 42);
    let (s2, r2, d2, n2) = run_faulted(build(), scheme, 42);
    assert_eq!(s1, s2, "RunStats diverged under faults ({scheme:?})");
    assert_eq!(
        r1, r2,
        "ReliabilityStats diverged under faults ({scheme:?})"
    );
    assert_eq!(
        (d1, n1),
        (d2, n2),
        "trace digest diverged under faults ({scheme:?})"
    );
    assert!(
        r1.link_failures == 1 && r1.repairs == 1,
        "the plan must have fired: {r1:?}"
    );
    assert!(n1 > 0, "expected deliveries during the window");
    let got = (d1, n1, s1.delivered, s1.generated);
    assert_eq!(got, pin, "faulted {scheme:?} moved off its pin");
    assert_eq!(r1, rel, "faulted {scheme:?} reliability moved off its pin");
}

#[test]
fn faulted_torus_updown_is_deterministic() {
    assert_faulted_deterministic(
        torus,
        RoutingScheme::UpDown,
        (0x486f9390ad0f1010, 243, 127, 614),
        link_outage(),
    );
}

#[test]
fn faulted_torus_itb_sp_is_deterministic() {
    assert_faulted_deterministic(
        torus,
        RoutingScheme::ItbSp,
        (0xf0f7183255f75847, 237, 123, 614),
        link_outage(),
    );
}

#[test]
fn faulted_torus_itb_rr_is_deterministic() {
    assert_faulted_deterministic(
        torus,
        RoutingScheme::ItbRr,
        (0x595c67134613901d, 237, 121, 614),
        link_outage(),
    );
}

// ---- The campaign work queue must not be a new source of nondeterminism. ----

/// A campaign fanned across 4 workers produces exactly the per-cell
/// results (RunStats-derived fields *and* trace digests) of the same
/// campaign run single-threaded: the work queue only changes completion
/// order, never results. The `campaign` binary maps `REGNET_THREADS` to
/// this worker count (via `threads_from`, covered below), so this is the
/// in-process equivalent of running the binary under `REGNET_THREADS=1`
/// vs `=4`.
#[test]
fn campaign_cells_are_thread_count_invariant() {
    use regnet_campaign::{run_plan, CampaignSpec, ResultStore, RunnerOptions};

    let spec = CampaignSpec::from_json_str(
        r#"{
            "name": "determinism",
            "defaults": {"warmup_cycles": 2000, "measure_cycles": 10000,
                         "payload_flits": 64, "seed": 42},
            "sweeps": [
                {"group": "d", "topos": ["torus:4x4:2", "express:4x4:2"],
                 "schemes": ["UP/DOWN", "ITB-RR"], "patterns": ["uniform"],
                 "loads": [0.004, 0.01]}
            ]
        }"#,
    )
    .unwrap();
    let plan = spec.expand().unwrap();
    let run_with = |threads: usize, tag: &str| {
        let dir =
            std::env::temp_dir().join(format!("regnet-det-campaign-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let opts = RunnerOptions {
            threads,
            ..Default::default()
        };
        run_plan(&plan, &store, &opts, |_| {}).unwrap();
        let all = store.load_all().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        all
    };
    let serial = run_with(1, "t1");
    let pooled = run_with(4, "t4");
    assert_eq!(serial.len(), plan.len());
    assert_eq!(serial.len(), pooled.len());
    for (hash, a) in &serial {
        let b = &pooled[hash];
        assert!(
            a.same_results(b),
            "cell {hash} diverged across worker counts"
        );
        assert!(
            a.digest.is_some() && a.digest == b.digest,
            "cell {hash} digest diverged across worker counts"
        );
    }
}

/// `REGNET_THREADS` maps to the worker count the campaign runner gets.
#[test]
fn regnet_threads_override_parses() {
    use regnet_netsim::threads::threads_from;
    assert_eq!(threads_from(Some("1")), 1);
    assert_eq!(threads_from(Some("4")), 4);
}

/// An MTBF-drawn plan is deterministic end to end as well: plan generation
/// and plan execution both reproduce.
#[test]
fn faulted_mtbf_plan_is_deterministic() {
    let run = || {
        let topo = cplant();
        let links: Vec<LinkId> = topo
            .links()
            .iter()
            .filter(|l| l.is_switch_link())
            .map(|l| l.id)
            .take(8)
            .collect();
        let plan = FaultPlan::mtbf_links(&links, 12_000, 20_000.0, 4_000.0, 7);
        // A short reconfiguration outage keeps traffic flowing between the
        // densely-packed MTBF faults, so the digest covers real deliveries.
        let cfg = SimConfig {
            payload_flits: 64,
            reconfig_latency_cycles: 1_000,
            ..SimConfig::default()
        };
        let exp = Experiment::new(
            topo,
            RoutingScheme::ItbRr,
            RouteDbConfig::default(),
            PatternSpec::Uniform,
            cfg,
        )
        .unwrap();
        let run_opts = RunOptions {
            faults: Some(FaultOptions::with_plan(plan)),
            ..opts(11)
        };
        let obs = exp.run_observed(0.01, &run_opts);
        (obs.stats, obs.reliability, obs.trace.unwrap())
    };
    let (s1, r1, t1) = run();
    let (s2, r2, t2) = run();
    assert_eq!(s1, s2);
    assert_eq!(r1, r2);
    assert!(r1.link_failures > 0, "the MTBF plan must fire: {r1:?}");
    assert!(
        t1.digest_events > 0,
        "expected deliveries during the window"
    );
    assert_eq!(
        (t1.digest, t1.digest_events),
        (t2.digest, t2.digest_events),
        "digest diverged under an MTBF plan"
    );
    // Pinned like the rows above; this is the one row that truncates a
    // worm and retransmits it.
    let got = (t1.digest.unwrap(), t1.digest_events);
    assert_eq!(
        (got, s1.delivered, s1.generated),
        ((0x996d8165d93c242a, 563), 493, 478)
    );
    let pinned = ReliabilityStats {
        link_failures: 4,
        repairs: 3,
        worms_truncated: 1,
        retransmissions: 1,
        reconfigurations: 5,
        reconfig_stall_cycles: 5_387,
        ..ReliabilityStats::default()
    };
    assert_eq!(r1, pinned);
}
