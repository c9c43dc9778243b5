//! Shared engine-vs-oracle equivalence harness.
//!
//! The simulator has one engine (the active set with its time skip) and
//! one oracle (the scan loop). Every equivalence suite — the topology ×
//! scheme matrix, the faulted runs, the Chrome-trace export — runs
//! [`contenders`] against [`reference`], so the whole proof obligation
//! (same `RunStats`, same unified counters, same delivered-message
//! digest, same Chrome trace, with and without faults) sits in one place.
//!
//! The scan loop stays in the tree precisely so these suites have a
//! ground truth to diff against; see `DESIGN.md` §6.

#![allow(dead_code)]

use regnet::prelude::*;

/// The ground-truth driver every contender is diffed against.
pub(crate) fn reference() -> Scheduler {
    Scheduler::Scan
}

/// What is diffed against the reference: the default engine, time skip
/// included (`DESIGN.md` §6).
pub(crate) fn contenders() -> Vec<Scheduler> {
    vec![Scheduler::default()]
}

pub(crate) fn opts(scheduler: Scheduler) -> RunOptions {
    RunOptions {
        warmup_cycles: 2_000,
        measure_cycles: 10_000,
        seed: 42,
        trace: TraceOptions::digest_only(),
        counters: true,
        scheduler,
        ..RunOptions::default()
    }
}

pub(crate) fn cfg() -> SimConfig {
    SimConfig {
        payload_flits: 64,
        ..SimConfig::default()
    }
}

pub(crate) fn torus() -> Topology {
    gen::torus_2d(8, 8, 8).unwrap()
}

pub(crate) fn express() -> Topology {
    gen::torus_2d_express(8, 8, 8).unwrap()
}

pub(crate) fn cplant() -> Topology {
    gen::cplant().unwrap()
}

/// One measured run of `config` at `load` over `(warmup, measure)`
/// cycles: stats plus the delivered-message trace digest.
pub(crate) fn run_once(
    build: fn() -> Topology,
    scheme: RoutingScheme,
    scheduler: Scheduler,
    (config, load): (&SimConfig, f64),
    (warmup_cycles, measure_cycles): (u64, u64),
) -> (RunStats, u64, u64) {
    let exp = Experiment::new(
        build(),
        scheme,
        RouteDbConfig::default(),
        PatternSpec::Uniform,
        config.clone(),
    )
    .unwrap();
    let run_opts = RunOptions {
        warmup_cycles,
        measure_cycles,
        ..opts(scheduler)
    };
    let obs = exp.run_observed(load, &run_opts);
    let trace = obs.trace.expect("digest observer was enabled");
    (
        obs.stats,
        trace.digest.expect("digest recorded"),
        trace.digest_events,
    )
}

/// The core obligation: every contender must be bit-identical to the
/// scan reference on this topology × scheme point.
pub(crate) fn assert_equivalent(build: fn() -> Topology, scheme: RoutingScheme) {
    assert_equivalent_over(build, scheme, (2_000, 10_000));
}

/// [`assert_equivalent`] over a `(warmup, measure)` window of the caller's
/// choosing, so that large networks stay quick in a debug build. Returns
/// the reference's stats.
pub(crate) fn assert_equivalent_over(
    build: fn() -> Topology,
    scheme: RoutingScheme,
    window: (u64, u64),
) -> RunStats {
    assert_equivalent_at(build, scheme, (&cfg(), 0.01), window)
}

/// [`assert_equivalent_over`] for a `(config, load)` point of the caller's
/// choosing.
pub(crate) fn assert_equivalent_at(
    build: fn() -> Topology,
    scheme: RoutingScheme,
    point: (&SimConfig, f64),
    window: (u64, u64),
) -> RunStats {
    let (s_scan, d_scan, n_scan) = run_once(build, scheme, reference(), point, window);
    let name = build().name().to_string();
    for sched in contenders() {
        let (s_other, d_other, n_other) = run_once(build, scheme, sched, point, window);
        assert_eq!(
            s_scan.counters, s_other.counters,
            "counter snapshots diverged between schedulers ({name} {scheme:?} {sched:?})"
        );
        assert_eq!(
            s_scan, s_other,
            "RunStats diverged between schedulers ({name} {scheme:?} {sched:?})"
        );
        assert_eq!(
            (d_scan, n_scan),
            (d_other, n_other),
            "trace digest diverged between schedulers ({name} {scheme:?} {sched:?})"
        );
    }
    assert!(n_scan > 0, "expected deliveries during the window");
    assert!(
        s_scan
            .counters
            .as_ref()
            .is_some_and(|c| c.total_events() > 0),
        "the equivalence must cover real traffic"
    );
    s_scan
}

/// Faulted-run obligation: a single link fails and is repaired, and
/// every contender must agree on `RunStats`, the unified counter
/// snapshot, `ReliabilityStats` and the delivered-message digest, bit
/// for bit.
pub(crate) fn assert_equivalent_faulted(build: fn() -> Topology, scheme: RoutingScheme) {
    assert_equivalent_faulted_with(build, scheme, cfg());
}

/// [`assert_equivalent_faulted`] with a caller-supplied `SimConfig`, so
/// suites can e.g. shrink `reconfig_latency_cycles` to force a full
/// reconfiguration inside the measurement window.
pub(crate) fn assert_equivalent_faulted_with(
    build: fn() -> Topology,
    scheme: RoutingScheme,
    config: SimConfig,
) -> ReliabilityStats {
    assert_equivalent_faulted_at(build, scheme, (config, 0.01))
}

/// [`assert_equivalent_faulted_with`] at a load of the caller's choosing.
pub(crate) fn assert_equivalent_faulted_at(
    build: fn() -> Topology,
    scheme: RoutingScheme,
    (config, load): (SimConfig, f64),
) -> ReliabilityStats {
    let run = |scheduler: Scheduler| {
        let topo = build();
        let link = topo
            .links()
            .iter()
            .find(|l| l.is_switch_link())
            .expect("switch link")
            .id;
        let mut plan = FaultPlan::single_link(link, 4_000);
        plan.repair_link(9_000, link);
        let exp = Experiment::new(
            topo,
            scheme,
            RouteDbConfig::default(),
            PatternSpec::Uniform,
            config.clone(),
        )
        .unwrap();
        let run_opts = RunOptions {
            faults: Some(FaultOptions::with_plan(plan)),
            ..opts(scheduler)
        };
        let obs = exp.run_observed(load, &run_opts);
        (obs.stats, obs.reliability, obs.trace)
    };
    let (s_scan, r_scan, t_scan) = run(reference());
    let t_scan = t_scan.unwrap();
    for sched in contenders() {
        let (s_other, r_other, t_other) = run(sched);
        assert_eq!(
            s_scan.counters, s_other.counters,
            "counter snapshots diverged under faults ({sched:?})"
        );
        assert_eq!(
            s_scan, s_other,
            "RunStats diverged under faults ({sched:?})"
        );
        assert_eq!(
            r_scan, r_other,
            "ReliabilityStats diverged under faults ({sched:?})"
        );
        let t_other = t_other.unwrap();
        assert_eq!(
            (t_scan.digest, t_scan.digest_events),
            (t_other.digest, t_other.digest_events),
            "trace digest diverged under faults ({sched:?})"
        );
    }
    assert!(
        r_scan.link_failures == 1 && r_scan.repairs == 1,
        "the plan must have fired: {r_scan:?}"
    );
    assert!(
        s_scan
            .counters
            .as_ref()
            .is_some_and(|c| c.total_events() > 0),
        "the faulted equivalence must cover real traffic"
    );
    r_scan
}

/// Full-observer obligation: the event journal exported as a Chrome
/// trace must come out byte-identical under every contender.
pub(crate) fn assert_equivalent_observed(build: fn() -> Topology, scheme: RoutingScheme) {
    let run = |scheduler: Scheduler| {
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
                events: Some(EventOptions::default()),
                ..opts(scheduler)
            },
        );
        (
            obs.stats,
            obs.journal.expect("journal enabled").to_chrome().to_json(),
        )
    };
    let (s_scan, t_scan) = run(reference());
    for sched in contenders() {
        let (s_other, t_other) = run(sched);
        assert_eq!(
            s_scan, s_other,
            "RunStats diverged with observers on ({sched:?})"
        );
        assert_eq!(t_scan, t_other, "Chrome trace export diverged ({sched:?})");
    }
    assert!(!t_scan.is_empty());
}

/// Lockstep obligation, with a bisector: the engine and the scan oracle
/// run side by side from the same start, and their settled states are
/// compared field for field ([`Simulator::same_state`]) every `every`
/// cycles over `cycles`. Each check settles the engine's runs and `run`
/// stops at each checkpoint, so a pair checked often is not the engine
/// production runs: after the checkpoints, a fresh pair run unchecked to
/// `cycles` is compared too. On a mismatch the bisector replays fresh
/// unchecked pairs from cycle 0, halving the span down to one cycle; the
/// panic names that cycle and prints the lines of the two settled
/// `dump_state`s that differ, then both dumps. Returns the engine's
/// reliability stats and counters.
pub(crate) fn assert_lockstep(
    topo: &Topology,
    scheme: RoutingScheme,
    point: (&SimConfig, f64),
    plan: Option<&FaultPlan>,
    span: (u64, u64),
) -> (ReliabilityStats, CounterSnapshot) {
    lockstep(topo, scheme, point, plan, span, false)
}

/// [`assert_lockstep`] with the event journal and every trace recorder
/// armed, sampling every 1,000 cycles: the recorders settle runs at their
/// ticks, and what they recorded must be equal at the end too.
pub(crate) fn assert_lockstep_recorded(
    topo: &Topology,
    scheme: RoutingScheme,
    point: (&SimConfig, f64),
    span: (u64, u64),
) -> (ReliabilityStats, CounterSnapshot) {
    lockstep(topo, scheme, point, None, span, true)
}

fn lockstep(
    topo: &Topology,
    scheme: RoutingScheme,
    (config, load): (&SimConfig, f64),
    plan: Option<&FaultPlan>,
    (cycles, every): (u64, u64),
    recorders: bool,
) -> (ReliabilityStats, CounterSnapshot) {
    let db = RouteDb::build(topo, scheme, &RouteDbConfig::default());
    let pattern = Pattern::resolve(PatternSpec::Uniform, topo).unwrap();
    let start = |scheduler: Scheduler| {
        let mut sim = Simulator::new(topo, &db, &pattern, config.clone(), load, 8);
        sim.set_scheduler(scheduler);
        if let Some(plan) = plan {
            sim.enable_faults(FaultOptions::with_plan(plan.clone()));
        }
        sim.enable_counters();
        if recorders {
            sim.enable_events(EventOptions::default());
            sim.enable_trace(TraceOptions::full(1000));
        }
        sim
    };
    // Both loops after `n` cycles, fresh from the start and unchecked on
    // the way.
    let pair_at = |n: u64| {
        let (mut engine, mut oracle) = (start(Scheduler::default()), start(reference()));
        engine.run(n);
        oracle.run(n);
        (engine, oracle)
    };
    // The states differ after `hi` cycles: name the first cycle a fresh
    // pair diverges in and panic.
    let diverged = |hi: u64| -> ! {
        let (mut e, mut o) = pair_at(hi);
        assert!(
            !e.same_state(&mut o),
            "{} {scheme:?}: engine and oracle differ after {hi} cycles only when \
             checked every {every} cycles on the way",
            topo.name()
        );
        let (mut lo, mut hi) = (0, hi);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let (mut e, mut o) = pair_at(mid);
            if e.same_state(&mut o) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let (mut e, mut o) = pair_at(hi);
        let (e, o) = (e.dump_state(), o.dump_state());
        let only = |a: &str, b: &str| -> Vec<String> {
            let theirs: Vec<&str> = b.lines().collect();
            let lines = a.lines().filter(|l| !theirs.contains(l));
            lines.map(str::to_string).collect()
        };
        panic!(
            "{} {scheme:?}: engine and oracle diverge in cycle {lo}\n\
             engine only:\n{}\noracle only:\n{}\n--- engine\n{e}--- oracle\n{o}",
            topo.name(),
            only(&e, &o).join("\n"),
            only(&o, &e).join("\n"),
        );
    };
    let (mut engine, mut oracle) = (start(Scheduler::default()), start(reference()));
    let mut equal = 0;
    while equal < cycles {
        let n = every.min(cycles - equal);
        engine.run(n);
        oracle.run(n);
        if !engine.same_state(&mut oracle) {
            diverged(equal + n);
        }
        equal += n;
    }
    let (mut e, mut o) = pair_at(cycles);
    if !e.same_state(&mut o) {
        diverged(cycles);
    }
    if recorders {
        let chrome = |sim: &Simulator| sim.journal().expect("journal armed").to_chrome().to_json();
        assert_eq!(chrome(&engine), chrome(&oracle), "journals diverged");
        assert_eq!(
            engine.trace_report(),
            oracle.trace_report(),
            "recorders diverged"
        );
    }
    let counters = engine.counter_snapshot().expect("counters enabled");
    assert!(
        counters.flits_forwarded > 0,
        "the lockstep must cover real traffic"
    );
    (engine.reliability(), counters)
}

/// Sampling-observer obligation: every observer armed with series sampled
/// every `interval` cycles, over a `(warmup, measure)` window; with
/// 512-flit worms an odd interval and window put samples and both window
/// edges inside steady runs. Every contender's stats and whole trace
/// report (digest, utilization, occupancy, goodput and metrics series)
/// must equal the reference's. Returns the reference's stats.
pub(crate) fn assert_equivalent_sampled(
    build: fn() -> Topology,
    scheme: RoutingScheme,
    (config, load): (&SimConfig, f64),
    interval: u64,
    (warmup_cycles, measure_cycles): (u64, u64),
) -> RunStats {
    let run = |scheduler: Scheduler| {
        let exp = Experiment::new(
            build(),
            scheme,
            RouteDbConfig::default(),
            PatternSpec::Uniform,
            config.clone(),
        )
        .unwrap();
        let obs = exp.run_observed(
            load,
            &RunOptions {
                warmup_cycles,
                measure_cycles,
                trace: TraceOptions::full(interval),
                ..opts(scheduler)
            },
        );
        (obs.stats, obs.trace.expect("observers enabled"))
    };
    let (s_scan, t_scan) = run(reference());
    for sched in contenders() {
        let (s_other, t_other) = run(sched);
        assert_eq!(
            s_scan, s_other,
            "RunStats diverged with sampling on ({sched:?})"
        );
        assert_eq!(t_scan, t_other, "trace report diverged ({sched:?})");
    }
    assert!(
        s_scan.delivered > 0,
        "expected deliveries during the window"
    );
    s_scan
}
