//! Property tests for the default engine's time skipping: on random small
//! topologies × routing schemes × loads × fault plans, the skip target
//! must never overshoot. The proof runs the default engine with the skip
//! log armed, then steps its tick-every-cycle twin, the `Scan` oracle,
//! through every cycle the engine jumped:
//!
//! * a span with no work deferred must be idle by the raw-state predicate
//!   `Simulator::cycle_has_pending_work` (independent of the engine's
//!   bookkeeping) on every cycle;
//! * a span the log marks busy — a steady run streamed across it, a
//!   switch held a packet, waiting for a wake-up such as its routing
//!   delay, or a flit or stop/go symbol was on a cable, landing at the
//!   jump's end or later — has what that predicate counts as work, so there the twin
//!   must record no journal event and move no counter but the two a run
//!   moves (`flits_forwarded`, `flits_injected`), and a second engine,
//!   stopped at both ends of the jump, must hold the twin's settled state,
//!   field for field (`Simulator::same_state`).
//!
//! All runs end in bit-identical results. Each family must have jumped a
//! span with a slot full in at least one case, and the lone-flit family,
//! under every scheme, a span whose only deferred work was a full slot.

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use regnet::prelude::*;

const RUN_CYCLES: u64 = 20_000;

/// Topology, scheme, payload, load, seed, and whether to inject a fault.
type Setup = (Topology, RoutingScheme, usize, f64, u64, bool);

fn arb_setup() -> impl Strategy<Value = Setup> {
    (
        (4usize..10, 2usize..4, 1usize..3, 0u64..500),
        0u8..3,
        prop::sample::select(vec![32usize, 64]),
        // Skewed low so most cases have real idle spans to jump, with a
        // busier tail to exercise the "never skip when work exists" side.
        prop::sample::select(vec![0.0003f64, 0.001, 0.003, 0.01]),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(
            |((n, deg, hosts, tseed), scheme, payload, load, seed, faulty)| {
                (
                    gen::irregular_random(n, deg, hosts, tseed).expect("topology"),
                    RoutingScheme::all()[scheme as usize],
                    payload,
                    load,
                    seed,
                    faulty,
                )
            },
        )
}

/// A single fail+repair plan on the first switch link, when one exists.
fn plan_for(topo: &Topology, faulty: bool) -> Option<FaultPlan> {
    if !faulty {
        return None;
    }
    let link = topo.links().iter().find(|l| l.is_switch_link())?.id;
    let mut plan = FaultPlan::single_link(link, 3_000);
    plan.repair_link(8_000, link);
    Some(plan)
}

/// The twin's counters, but the two a run moves, and its journal's event
/// count, after checking that `engine`, run up to the twin's cycle, holds
/// the twin's settled state.
fn meet(
    engine: &mut Simulator<'_>,
    twin: &mut Simulator<'_>,
) -> Result<(CounterSnapshot, u64), TestCaseError> {
    let c = twin.cycle();
    engine.run(c - engine.cycle());
    prop_assert_eq!(engine.cycle(), c);
    prop_assert!(
        engine.same_state(twin),
        "engine and twin differ at cycle {}",
        c
    );
    let mut counters = twin.counter_snapshot().expect("counters armed");
    counters.flits_forwarded = 0;
    counters.flits_injected = 0;
    Ok((counters, twin.journal().expect("journal armed").recorded()))
}

/// What one case jumped, besides the spans every case has.
struct Jumped {
    /// Skipped cycles inside a reconfiguration stall.
    in_stall: u64,
    /// Jumps that started with a flit or symbol in a slot of the engine's
    /// channel table.
    over_slots: u64,
    /// Of those, the jumps that deferred nothing else: no run streaming,
    /// no switch holding a packet.
    slot_only: u64,
}

/// One case: the engine's skip log is well-formed, every span it skipped
/// holds on the scan twin (module docs), and all runs end bit-identical.
fn check_case(
    (topo, scheme, payload, load, seed, faulty): Setup,
    reconfig_latency_cycles: u64,
) -> Result<Jumped, TestCaseError> {
    let db = RouteDb::build(&topo, scheme, &RouteDbConfig::default());
    let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
    let mk_cfg = || SimConfig {
        payload_flits: payload,
        reconfig_latency_cycles,
        ..SimConfig::default()
    };
    let plan = plan_for(&topo, faulty);
    // Every run has counters and journal armed, the skip log on the
    // engines, and measures from cycle 0.
    let armed = |scheduler: Scheduler| {
        let mut sim = Simulator::new(&topo, &db, &pattern, mk_cfg(), load, seed);
        sim.set_scheduler(scheduler);
        if let Some(p) = plan.clone() {
            sim.enable_faults(FaultOptions::with_plan(p));
        }
        sim.enable_counters();
        sim.enable_events(EventOptions::default());
        if scheduler != Scheduler::Scan {
            sim.enable_skip_log();
        }
        sim.begin_measurement();
        sim
    };

    let mut ev = armed(Scheduler::default());
    ev.run(RUN_CYCLES);
    let s_ev = ev.end_measurement(RUN_CYCLES);

    // The log is well-formed: strictly forward, disjoint, in order,
    // clamped to the run limit, and sums to the skip counter.
    let log = ev.skip_log().to_vec();
    let mut prev_to = 0u64;
    let mut total = 0u64;
    for &(from, to, _) in &log {
        prop_assert!(from < to, "degenerate jump ({from}, {to})");
        prop_assert!(from >= prev_to, "jumps out of order at ({from}, {to})");
        prop_assert!(to <= RUN_CYCLES, "jump overshot the run limit");
        prev_to = to;
        total += to - from;
    }
    prop_assert_eq!(total, ev.skipped_cycles());

    // Step the oracle, which never skips, through every cycle, checking
    // each one the engine jumped; a second engine meets it at both ends
    // of every busy jump. A cycle whose step ticks the stall counter lies
    // inside a reconfiguration stall.
    let mut tw = armed(Scheduler::Scan);
    let mut lockstep = armed(Scheduler::default());
    let mut li = 0usize;
    let mut in_stall = 0u64;
    let (mut over_slots, mut slot_only) = (0u64, 0u64);
    let mut at_jump = None;
    while tw.cycle() < RUN_CYCLES {
        let c = tw.cycle();
        while li < log.len() && c >= log[li].1 {
            li += 1;
        }
        let span = log.get(li).copied().filter(|&(from, _, _)| from <= c);
        match span {
            Some((_, _, false)) => prop_assert!(
                !tw.cycle_has_pending_work(),
                "cycle {} was skipped (span {:?}) but had pending work",
                c,
                log[li]
            ),
            Some((from, _, true)) if from == c => {
                at_jump = Some(meet(&mut lockstep, &mut tw)?);
                if lockstep.slots_full() > 0 {
                    over_slots += 1;
                    slot_only += u64::from(lockstep.runs_and_held_switches() == 0);
                }
            }
            _ => {}
        }
        let stalled = tw.reliability().reconfig_stall_cycles;
        tw.step();
        if span.is_some() && tw.reliability().reconfig_stall_cycles > stalled {
            in_stall += 1;
        }
        if let Some((from, to, true)) = span.filter(|&(_, to, _)| to == tw.cycle()) {
            let (counters, events) = at_jump.take().expect("met at the jump's start");
            let (counters_after, events_after) = meet(&mut lockstep, &mut tw)?;
            prop_assert_eq!(events_after, events, "events in span ({}, {})", from, to);
            prop_assert_eq!(
                counters_after,
                counters,
                "counted in span ({}, {})",
                from,
                to
            );
        }
    }
    let s_tw = tw.end_measurement(RUN_CYCLES);
    prop_assert_eq!(
        &s_ev,
        &s_tw,
        "RunStats diverged from the tick-every-cycle twin"
    );
    prop_assert_eq!(ev.reliability(), tw.reliability());
    prop_assert_eq!(tw.skipped_cycles(), 0, "the oracle must never skip");
    // Stopping at the jumps' ends moved no jump and changed no result.
    lockstep.run(RUN_CYCLES - lockstep.cycle());
    prop_assert_eq!(lockstep.skip_log(), &log[..]);
    prop_assert_eq!(lockstep.end_measurement(RUN_CYCLES), s_ev);
    Ok(Jumped {
        in_stall,
        over_slots,
        slot_only,
    })
}

/// The random family: 16 cases of `arb_setup`, at least one of which
/// jumped a span with a slot full (a flit or a stop/go symbol crossing a
/// cable while nothing was listed).
#[test]
fn skipped_spans_never_overshoot() {
    let mut rng = TestRng::for_test("proptest_timeskip::skipped_spans_never_overshoot");
    let (cases, mut slot_cases) = (16, 0);
    for case in 0..cases {
        let setup = arb_setup().generate(&mut rng);
        match check_case(setup, SimConfig::default().reconfig_latency_cycles) {
            Ok(jumped) => slot_cases += usize::from(jumped.over_slots > 0),
            Err(e) => panic!("[case {}/{cases}] {e}", case + 1),
        }
    }
    assert!(slot_cases > 0, "no case jumped a span with a slot full");
}

/// The faulted family: a latency of 3,000–8,000 cycles lets the re-map
/// after the failure at cycle 3,000 and the one after the repair at 8,000
/// complete inside the run and the network drain before it ends, so the
/// engine's sources sleep through the stalls and the skip jumps them. The
/// oracle check above then covers skips inside a stall and the completion
/// wake; at least one case must have jumped inside one, and at least one
/// a span with a slot full.
#[test]
fn skips_inside_reconfiguration_stalls_never_overshoot() {
    let strategy = (arb_setup(), 3_000u64..8_001);
    let mut rng = TestRng::for_test("skips_inside_reconfiguration_stalls_never_overshoot");
    let (cases, mut stalled_cases, mut slot_cases) = (12, 0, 0);
    for case in 0..cases {
        let ((topo, scheme, payload, load, seed, _), latency) = strategy.generate(&mut rng);
        let setup = (topo, scheme, payload, load, seed, true);
        match check_case(setup, latency) {
            Ok(jumped) => {
                stalled_cases += usize::from(jumped.in_stall > 0);
                slot_cases += usize::from(jumped.over_slots > 0);
            }
            Err(e) => panic!("[case {}/{cases}, latency {latency}] {e}", case + 1),
        }
    }
    assert!(
        stalled_cases > 0,
        "no case jumped inside a reconfiguration stall"
    );
    assert!(slot_cases > 0, "no case jumped a span with a slot full");
}

/// The lone-flit family: one-flit payloads at a low load on small fixed
/// networks, so a worm's last flits cross their final cable with no run
/// streaming, no switch holding a packet and nothing listed. A jump over
/// such a span defers nothing but the full slot, so only the skip log's
/// slot term marks it busy; logged idle, the raw predicate would find the
/// slot's work on the twin. Every scheme must make such a jump (about a
/// hundred each at this load; at 0.001 the two ITB schemes' worms
/// overlap and they make none).
#[test]
fn jumps_over_a_lone_flit_in_flight_are_checked() {
    for (case, scheme) in RoutingScheme::all().into_iter().enumerate() {
        let topo = gen::irregular_random(5, 2, 1, case as u64).expect("topology");
        let setup = (topo, scheme, 1, 0.0003, 7 + case as u64, false);
        match check_case(setup, SimConfig::default().reconfig_latency_cycles) {
            Ok(jumped) => assert!(
                jumped.slot_only > 0,
                "[{scheme}] no jump deferred only a full slot ({} over slots)",
                jumped.over_slots
            ),
            Err(e) => panic!("[{scheme}] {e}"),
        }
    }
}
