//! Engine self-profiler: wall-clock time per simulation phase, with
//! optional child spans below each phase.
//!
//! Answers "where does the engine spend its time" — routing and
//! arbitration vs channel bookkeeping vs generation vs observer overhead —
//! without an external profiler. Disabled (the default), `Simulator::step`
//! makes no timing calls at all.
//!
//! Enabled, it times one clock regime: a hashed one-in-`SPAN_SAMPLE` (64)
//! sample of stepped cycles. On a sampled cycle each phase ends in a lap
//! (`Instant::now()`), and the child spans inside the phases
//! (`routing`/`crossbar` per switch, `trace`) are timed too; every other
//! stepped cycle reads no clock. The `faults` laps run only when a fault
//! plan is armed, so a fault-free run bills it exactly 0 ns. At report
//! time every phase and child is scaled by one factor, stepped ÷ sampled
//! cycles. On cycles costing tens of ns a sampled cycle's shares still
//! carry one clock read per lap, so there the cheapest phases read high.
//!
//! One report, [`ProfileReport`]: a span per phase with its share of the
//! run (what `benchmark/` reports as `netsim.phase.*`), each holding its
//! scaled child spans, so the tree says where *inside* the switch phase a
//! run spends its time. [`ProfileReport::to_collapsed`] exports it as
//! collapsed stacks (`inferno`/`flamegraph.pl`-compatible).
//!
//! Wall-clock figures are host-machine noise, so they are kept strictly
//! out of `RunStats` (which must be bit-identical across same-seed runs);
//! collect them separately with `Simulator::profile_report`.

use std::collections::BTreeMap;

/// The per-cycle phases the profiler distinguishes, in execution order.
pub const PHASE_NAMES: [&str; 7] = [
    "faults",     // fault events, loss handling, reconfiguration
    "control",    // stop/go symbol arrivals
    "arrivals",   // data-flit arrivals into switches and NICs
    "switches",   // route lookup, arbitration, crossbar transfer
    "nic_tx",     // NIC transmission
    "generation", // message generation
    "observers",  // watchdog + trace/journal per-cycle work
];

pub(crate) const N_PHASES: usize = PHASE_NAMES.len();

/// One stepped cycle in `SPAN_SAMPLE`, on average, has its phases and
/// child spans timed.
pub(crate) const SPAN_SAMPLE: u64 = 64;

/// Is `cycle` timed, its phases and child spans? A stateless hash of the
/// cycle index: deterministic, never a draw from the simulation RNG, and
/// blind to time skips. Unlike a fixed stride it does not alias with the trace
/// intervals: a cycle ≡ 0 (mod 64) is never the cycle ≡ 999 (mod 1000) on
/// which a `full(1000)` trace flushes, so a strided `trace` child would
/// never time a flush.
#[inline]
pub(crate) fn times_children(cycle: u64) -> bool {
    splitmix64(cycle).is_multiple_of(SPAN_SAMPLE)
}

/// The SplitMix64 finaliser: a bijective mix of every input bit.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Phase {
    Faults = 0,
    Control = 1,
    Arrivals = 2,
    Switches = 3,
    NicTx = 4,
    Generation = 5,
    Observers = 6,
}

/// Nanoseconds per phase and per child span `(phase, label)`, summed
/// over the sampled cycles only, and the cycle counts that scale them
/// to the whole run.
#[derive(Debug, Default)]
pub(crate) struct Profiler {
    ns: [u64; N_PHASES],
    children: BTreeMap<(u8, &'static str), u64>,
    /// Every re-map of the run, timed exactly.
    remaps: RemapTimes,
    stepped_cycles: u64,
    /// Cycles the run loop jumped over (no phase ran, nothing was timed),
    /// and the jumps that did it.
    pub skipped_cycles: u64,
    pub skip_jumps: u64,
    sampled_cycles: u64,
}

impl Profiler {
    pub(crate) fn new() -> Profiler {
        Profiler::default()
    }

    #[inline]
    pub(crate) fn add(&mut self, phase: Phase, ns: u64) {
        self.ns[phase as usize] += ns;
    }

    /// Accumulate a child span under `phase`.
    #[inline]
    pub(crate) fn add_child(&mut self, phase: Phase, label: &'static str, ns: u64) {
        *self.children.entry((phase as u8, label)).or_insert(0) += ns;
    }

    /// Count a re-map that took `ns`: a swap-back of the replaced tables
    /// (`swap`) or a rebuild.
    pub(crate) fn add_remap(&mut self, swap: bool, ns: u64) {
        let r = &mut self.remaps;
        let (count, total) = match swap {
            true => (&mut r.swaps, &mut r.swap_ns),
            false => (&mut r.rebuilds, &mut r.rebuild_ns),
        };
        *count += 1;
        *total += ns;
    }

    /// Count a stepped cycle; `sampled`: its phases and children were
    /// timed.
    #[inline]
    pub(crate) fn end_cycle(&mut self, sampled: bool) {
        self.stepped_cycles += 1;
        self.sampled_cycles += u64::from(sampled);
    }

    /// Build the report: every sampled phase and child is scaled by
    /// stepped ÷ sampled cycles (floor), one factor for every span. A
    /// child's interval nests inside its phase's on the same cycle and
    /// each interval floors to whole ns, so the children never sum past
    /// their phase, and `self_ns + Σ child.ns == ns` holds *exactly* at
    /// every phase. A run with no sampled cycle reports zeros.
    pub(crate) fn report(&self) -> ProfileReport {
        let scale = |ns: u64| match self.sampled_cycles {
            0 => 0,
            n => (ns as u128 * self.stepped_cycles as u128 / n as u128) as u64,
        };
        let scaled: Vec<u64> = self.ns.iter().map(|&ns| scale(ns)).collect();
        let total_ns: u64 = scaled.iter().sum();
        let span = |name: &str, ns: u64, self_ns: u64, children| PhaseProfile {
            name: name.to_string(),
            ns,
            fraction: if total_ns > 0 {
                ns as f64 / total_ns as f64
            } else {
                0.0
            },
            self_ns,
            children,
        };
        let mut phases = Vec::with_capacity(N_PHASES);
        for (p, (&phase_name, &phase_ns)) in PHASE_NAMES.iter().zip(&scaled).enumerate() {
            // BTreeMap order: labels alphabetical — deterministic.
            let leaves = self.children.iter().filter(|&(&(ph, _), _)| ph == p as u8);
            debug_assert!(
                leaves.clone().map(|(_, &ns)| ns).sum::<u64>() <= self.ns[p],
                "{phase_name}: child spans past their phase"
            );
            let children: Vec<PhaseProfile> = leaves
                .map(|(&(_, label), &ns)| span(label, scale(ns), scale(ns), Vec::new()))
                .collect();
            let self_ns = phase_ns - children.iter().map(|c| c.ns).sum::<u64>();
            phases.push(span(phase_name, phase_ns, self_ns, children));
        }
        ProfileReport {
            cycles: self.stepped_cycles + self.skipped_cycles,
            stepped_cycles: self.stepped_cycles,
            skip_jumps: self.skip_jumps,
            sampled_cycles: self.sampled_cycles,
            total_ns,
            phases,
            remaps: self.remaps,
            engine: EngineCounts::default(),
        }
    }
}

/// Wall time attributed to one phase, or to one child span inside it.
/// Invariant (enforced at construction): `self_ns + Σ children.ns == ns`.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseProfile {
    pub name: String,
    /// Wall time including the children, ns.
    pub ns: u64,
    /// Share of the total profiled time, in `[0, 1]`.
    pub fraction: f64,
    /// Wall time not attributed to any child, ns.
    pub self_ns: u64,
    /// The phase's child spans scaled to it, labels in alphabetical
    /// order; a child has none.
    pub children: Vec<PhaseProfile>,
}

/// The re-maps of a profiled run, each timed from end to end rather than
/// sampled: a re-map runs on a handful of cycles of a run, so the
/// one-in-64 sample of the `faults` phase bills it 64 times over or not
/// at all. Rebuilds ran the mapper (a failed attempt counts as one);
/// swap-backs reinstalled the tables the last re-map replaced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemapTimes {
    pub rebuilds: u64,
    pub rebuild_ns: u64,
    pub swaps: u64,
    pub swap_ns: u64,
}

impl RemapTimes {
    /// The line [`ProfileReport::to_table`] prints below the spans.
    fn to_table(self) -> String {
        format!(
            "re-maps (each timed): {} rebuilds in {:.3} ms, {} swap-backs in {:.3} ms\n",
            self.rebuilds,
            self.rebuild_ns as f64 / 1e6,
            self.swaps,
            self.swap_ns as f64 / 1e6,
        )
    }
}

/// Exact counts of the engine's work, next to the sampled spans: plain
/// increments in its wake state, counted on every stepped cycle from the
/// first and never scaled. All zero under the `Scan` oracle, which keeps
/// no wake state and streams no run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounts {
    /// Visits of the switch phase and of the NIC phase.
    pub switch_visits: u64,
    pub nic_visits: u64,
    /// Steady runs started, and ended before their sender's next visit
    /// could resume them.
    pub runs_opened: u64,
    pub runs_closed: u64,
    /// Runs out of a visited switch settled and suspended for the visit,
    /// and runs it left streaming through it.
    pub runs_suspended: u64,
    pub runs_left_streaming: u64,
    /// Wake-up calendar entries pushed, and switch entries popped after a
    /// later visit had replaced them.
    pub calendar_pushes: u64,
    pub stale_pops: u64,
}

impl EngineCounts {
    /// `n` per switch visit (0 without one).
    fn per_switch_visit(&self, n: u64) -> f64 {
        n as f64 / self.switch_visits.max(1) as f64
    }

    /// The lines [`ProfileReport::to_table`] prints below the spans.
    fn to_table(self) -> String {
        format!(
            "engine counts: {} switch visits, {} NIC visits\n  \
             runs: {} opened, {} closed, {} suspended by a switch visit, \
             {} left streaming through one\n  \
             per switch visit: {:.3} runs suspended, {:.3} left streaming\n  \
             calendar: {} pushes, {} stale pops\n",
            self.switch_visits,
            self.nic_visits,
            self.runs_opened,
            self.runs_closed,
            self.runs_suspended,
            self.runs_left_streaming,
            self.per_switch_visit(self.runs_suspended),
            self.per_switch_visit(self.runs_left_streaming),
            self.calendar_pushes,
            self.stale_pops,
        )
    }
}

/// Everything the profiler measured: one span per phase, in execution
/// order, each with its child spans, and the engine's exact counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Cycles simulated while profiling, idle spans the run loop jumped
    /// over included.
    pub cycles: u64,
    /// The cycles of `cycles` the phases ran on, and the jumps (an exact
    /// count) over the rest.
    pub stepped_cycles: u64,
    pub skip_jumps: u64,
    /// Stepped cycles whose phases and child spans were timed (about one
    /// in 64); every span is scaled from these to all stepped cycles.
    pub sampled_cycles: u64,
    /// Total profiled wall time of the stepped cycles, ns (== Σ phase
    /// `ns`).
    pub total_ns: u64,
    /// Per-phase breakdown, in execution order.
    pub phases: Vec<PhaseProfile>,
    /// Every re-map, timed exactly; also inside `faults` on a sampled
    /// cycle.
    pub remaps: RemapTimes,
    /// What the engine did on those cycles, counted exactly.
    pub engine: EngineCounts,
}

impl ProfileReport {
    /// Collapsed-stack export: one `frame;frame;frame <self_ns>` line per
    /// span with non-zero self time, rooted at `engine`. Feed to
    /// `inferno-flamegraph` / `flamegraph.pl` for an SVG.
    pub fn to_collapsed(&self) -> String {
        fn walk(out: &mut String, prefix: &str, node: &PhaseProfile) {
            let stack = format!("{prefix};{}", node.name);
            if node.self_ns > 0 {
                out.push_str(&stack);
                out.push(' ');
                out.push_str(&node.self_ns.to_string());
                out.push('\n');
            }
            for c in &node.children {
                walk(out, &stack, c);
            }
        }
        let mut out = String::new();
        for phase in &self.phases {
            walk(&mut out, "engine", phase);
        }
        out
    }

    /// Indented tree table for terminal output.
    pub fn to_table(&self) -> String {
        fn walk(out: &mut String, node: &PhaseProfile, depth: usize) {
            out.push_str(&format!(
                "  {:indent$}{:<width$} {:>6.2}%  {:>12} ns\n",
                "",
                node.name,
                node.fraction * 100.0,
                node.ns,
                indent = depth * 2,
                width = 24usize.saturating_sub(depth * 2),
            ));
            for c in &node.children {
                walk(out, c, depth + 1);
            }
        }
        let (stepped, jumps) = (self.stepped_cycles, self.skip_jumps);
        let mut out = format!(
            "span profile: {} cycles ({stepped} stepped, {} skipped in {jumps} jumps) \
             in {:.3} s\n  (children timed on {} of {stepped} stepped cycles)\n",
            self.cycles,
            self.cycles - stepped,
            self.total_ns as f64 / 1e9,
            self.sampled_cycles,
        );
        for phase in &self.phases {
            walk(&mut out, phase, 0);
        }
        out.push_str(&self.remaps.to_table());
        out.push_str(&self.engine.to_table());
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn assert_node_invariant(n: &PhaseProfile) {
        let child_sum: u64 = n.children.iter().map(|c| c.ns).sum();
        assert_eq!(
            n.self_ns + child_sum,
            n.ns,
            "span invariant violated at {:?}",
            n.name
        );
        for c in &n.children {
            assert_node_invariant(c);
        }
    }

    /// A profiler that stepped `stepped` cycles and timed `sampled` of
    /// them.
    fn stepped(stepped: u64, sampled: u64) -> Profiler {
        let mut p = Profiler::new();
        for c in 0..stepped {
            p.end_cycle(c < sampled);
        }
        p
    }

    #[test]
    fn report_fractions_sum_to_one() {
        let mut p = stepped(10, 1);
        p.add(Phase::Switches, 600);
        p.add(Phase::Arrivals, 300);
        p.add(Phase::Observers, 100);
        let r = p.report();
        assert_eq!(r.total_ns, 10_000);
        assert_eq!(r.phases.len(), PHASE_NAMES.len());
        let sum: f64 = r.phases.iter().map(|x| x.fraction).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(r.phases[3].name, "switches");
        assert!((r.phases[3].fraction - 0.6).abs() < 1e-12);
        assert!(r.to_table().contains("span profile: 10 cycles"));
        assert!(r.to_table().contains("switches"));
    }

    #[test]
    fn empty_profiler_reports_zeros() {
        let r = Profiler::new().report();
        assert_eq!(r.total_ns, 0);
        assert_eq!(r.sampled_cycles, 0);
        assert!(r.phases.iter().all(|p| p.fraction == 0.0));
        // Stepped cycles with none sampled: nothing to scale from.
        let mut p = stepped(63, 0);
        (p.skipped_cycles, p.skip_jumps) = (100, 2);
        let r = p.report();
        assert_eq!((r.cycles, r.total_ns), (163, 0));
        assert_eq!((r.stepped_cycles, r.skip_jumps), (63, 2));
        let head = "span profile: 163 cycles (63 stepped, 100 skipped in 2 jumps)";
        assert!(r.to_table().starts_with(head), "{}", r.to_table());
        assert!(r.to_table().contains("timed on 0 of 63 stepped cycles"));
        assert!(r.phases.iter().all(|p| p.ns == 0 && p.fraction == 0.0));
    }

    #[test]
    fn sampled_cycles_are_one_in_64_and_alias_with_no_interval() {
        // Hits on the last cycle of every period P — where a `full(P)`
        // trace flushes — must be ~1/P of all hits.
        fn alias_free(hits: &[u64]) -> bool {
            [2u64, 8, 64, 100, 1000, 1024].iter().all(|&p| {
                let on_last = hits.iter().filter(|&&c| c % p == p - 1).count() as f64;
                let want = hits.len() as f64 / p as f64;
                (on_last - want).abs() <= 0.25 * want
            })
        }
        let n = 1_000_000u64;
        let hits: Vec<u64> = (0..n).filter(|&c| times_children(c)).collect();
        let want = (n / SPAN_SAMPLE) as f64;
        assert!(
            (hits.len() as f64 - want).abs() <= 0.1 * want,
            "{} of {n} cycles sampled",
            hits.len()
        );
        assert!(alias_free(&hits));
        let strided: Vec<u64> = (0..n).filter(|c| c.is_multiple_of(SPAN_SAMPLE)).collect();
        assert!(!alias_free(&strided), "a fixed stride aliases");
    }

    #[test]
    fn every_span_scales_by_stepped_over_sampled_cycles() {
        // (stepped, sampled, switch phase, routing, crossbar), timed on
        // the sample → (phase, self, routing, crossbar) in the report.
        // Each is floor(ns · stepped / sampled); self takes the rest.
        for (steps, sampled, timed, want) in [
            (1, 1, (1000, 600, 300), (1000, 100, 600, 300)),
            (4, 1, (250, 150, 75), (1000, 100, 600, 300)),
            (64, 1, (300, 150, 0), (19_200, 9_600, 9_600, 0)),
            (10, 3, (100, 50, 49), (333, 4, 166, 163)),
            (7, 7, (90, 45, 45), (90, 0, 45, 45)),
        ] {
            let mut p = stepped(steps, sampled);
            p.add(Phase::Switches, timed.0);
            p.add_child(Phase::Switches, "routing", timed.1);
            p.add_child(Phase::Switches, "crossbar", timed.2);
            p.add(Phase::Observers, 50);
            let r = p.report();
            let observers = r.phases[Phase::Observers as usize].ns;
            assert_eq!(observers, 50 * steps / sampled);
            assert_eq!(r.total_ns, want.0 + observers);
            for (phase, name) in r.phases.iter().zip(PHASE_NAMES) {
                assert_eq!(phase.name, name);
                assert_node_invariant(phase);
            }
            let sw = &r.phases[Phase::Switches as usize];
            // BTreeMap label order: crossbar before routing.
            assert_eq!(sw.children[0].name, "crossbar");
            assert_eq!(sw.children[1].name, "routing");
            let got = (sw.ns, sw.self_ns, sw.children[1].ns, sw.children[0].ns);
            assert_eq!(got, want, "{sampled} of {steps} cycles");
            let line = format!("children timed on {sampled} of {steps} stepped cycles");
            assert!(r.to_table().contains(&line));
        }
    }

    #[test]
    fn collapsed_stacks_cover_the_total() {
        let mut p = stepped(1, 1);
        p.add(Phase::Switches, 1000);
        p.add_child(Phase::Switches, "routing", 700);
        p.add_child(Phase::Switches, "crossbar", 100);
        p.add(Phase::Generation, 50);
        let r = p.report();
        let collapsed = r.to_collapsed();
        // Phases in execution order, each followed by its children in
        // label order; spans without self time are left out.
        assert_eq!(
            collapsed,
            "engine;switches 200\n\
             engine;switches;crossbar 100\n\
             engine;switches;routing 700\n\
             engine;generation 50\n"
        );
        // Every line's value is a self time; they sum to the grand total.
        let sum: u64 = collapsed
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(sum, r.total_ns);
        assert!(r.to_table().contains("crossbar"));
    }
}
