//! Engine self-profiler: wall-clock time per simulation phase, with
//! optional child spans below each phase.
//!
//! Answers "where does the engine spend its time" — routing and
//! arbitration vs channel bookkeeping vs generation vs observer overhead —
//! without an external profiler. When enabled, `Simulator::step` ends
//! each phase with a lap (`Instant::now()`); disabled (the default), the
//! same phase sequence makes no timing calls at all.
//!
//! The seven phase laps run on every stepped cycle. The child spans
//! below them (`routing`/`crossbar` per switch, `trace`) cost a clock
//! read per switch, and timed on every cycle they more than doubled the
//! run and landed inside the very phase they measured. They are timed on
//! a hashed one-in-`SPAN_SAMPLE` (64) sample of cycles and scaled to the
//! phase totals at report time.
//!
//! Two views of the same data:
//!
//! * [`ProfileReport`] — the flat per-phase table (what `benchmark/`
//!   reports as `netsim.phase.*`).
//! * [`SpanReport`] — the hierarchical tree *phase → component bucket*
//!   with a collapsed-stack export ([`SpanReport::to_collapsed`],
//!   `inferno`/`flamegraph.pl`-compatible), which says where *inside* the
//!   switch phase a run spends its time.
//!
//! Wall-clock figures are host-machine noise, so they are kept strictly
//! out of `RunStats` (which must be bit-identical across same-seed runs);
//! collect them separately with `Simulator::profile_report` /
//! `Simulator::span_report`.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

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

/// One cycle in `SPAN_SAMPLE`, on average, has its child spans timed.
pub(crate) const SPAN_SAMPLE: u64 = 64;

/// Are `cycle`'s child spans timed? A stateless hash of the cycle index:
/// deterministic, never a draw from the simulation RNG, and blind to time
/// skips. Unlike a fixed stride it does not alias with the trace
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

/// Accumulated nanoseconds per phase, plus child-span buckets keyed by
/// `(phase, label)`. The flat array stays authoritative: child
/// spans are timed independently inside the phase, on sampled cycles
/// only, and reconciled against the phase total at report time.
#[derive(Debug, Default)]
pub(crate) struct Profiler {
    pub ns: [u64; N_PHASES],
    pub cycles: u64,
    children: BTreeMap<(u8, &'static str), u64>,
    /// Per phase, the ns of the cycles whose children were timed: the
    /// base the sampled children scale from.
    child_base: [u64; N_PHASES],
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

    /// Close a cycle whose children were timed: the phase time it added
    /// since `before` (the `ns` of when it began) joins the child base.
    pub(crate) fn end_sample(&mut self, before: [u64; N_PHASES]) {
        for (base, (&now, then)) in self.child_base.iter_mut().zip(self.ns.iter().zip(before)) {
            *base += now - then;
        }
        self.sampled_cycles += 1;
    }

    pub(crate) fn report(&self) -> ProfileReport {
        let total_ns: u64 = self.ns.iter().sum();
        ProfileReport {
            cycles: self.cycles,
            total_ns,
            phases: PHASE_NAMES
                .iter()
                .zip(self.ns)
                .map(|(&name, ns)| PhaseProfile {
                    name: name.to_string(),
                    ns,
                    fraction: if total_ns > 0 {
                        ns as f64 / total_ns as f64
                    } else {
                        0.0
                    },
                })
                .collect(),
        }
    }

    /// Build the hierarchical view. Per phase the sampled children are
    /// scaled by `phase_ns / child_base`, from the cycles they were timed
    /// on to the whole phase (floor division). Children and phases are
    /// timed by separate `Instant` pairs, so clock granularity can push
    /// the child sum a hair past its base — in that case the children are
    /// scaled to exactly the phase total instead (remainder to the largest
    /// child). Either way `self + Σ child.total == total` holds *exactly*
    /// at every node and phase totals equal [`ProfileReport`]'s. A phase
    /// without a base (no cycle sampled yet, or children fed by hand)
    /// counts as timed throughout.
    pub(crate) fn span_report(&self) -> SpanReport {
        let mut roots = Vec::with_capacity(N_PHASES);
        for (p, &phase_name) in PHASE_NAMES.iter().enumerate() {
            let phase_ns = self.ns[p];
            // BTreeMap order: labels alphabetical — deterministic.
            let mut leaves: Vec<(&'static str, u64)> = self
                .children
                .iter()
                .filter(|&(&(ph, _), _)| ph == p as u8)
                .map(|(&(_, label), &ns)| (label, ns))
                .collect();
            let sum: u64 = leaves.iter().map(|&(_, ns)| ns).sum();
            let base = match self.child_base[p] {
                0 => phase_ns,
                b => b,
            };
            // At least 1: a zero base and sum mean all-zero children.
            let denom = base.max(sum).max(1);
            let mut scaled_sum = 0u64;
            for l in &mut leaves {
                l.1 = ((l.1 as u128 * phase_ns as u128) / denom as u128) as u64;
                scaled_sum += l.1;
            }
            let self_ns = if sum < base {
                phase_ns - scaled_sum
            } else {
                if let Some(largest) = leaves.iter_mut().max_by_key(|l| l.1) {
                    largest.1 += phase_ns - scaled_sum;
                }
                0
            };
            let children = leaves
                .iter()
                .map(|&(label, ns)| SpanNode::leaf(label, ns))
                .collect();
            roots.push(SpanNode {
                name: phase_name.to_string(),
                total_ns: phase_ns,
                self_ns,
                children,
            });
        }
        SpanReport {
            cycles: self.cycles,
            sampled_cycles: self.sampled_cycles,
            total_ns: self.ns.iter().sum(),
            roots,
        }
    }
}

/// Wall time attributed to one phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseProfile {
    pub name: String,
    pub ns: u64,
    /// Share of the total profiled time, in `[0, 1]`.
    pub fraction: f64,
}

/// Everything the profiler measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Cycles simulated while profiling, idle spans the run loop jumped
    /// over included.
    pub cycles: u64,
    /// Total profiled wall time, ns.
    pub total_ns: u64,
    /// Per-phase breakdown, in execution order.
    pub phases: Vec<PhaseProfile>,
}

impl ProfileReport {
    /// Simulated cycles per wall-clock second.
    pub fn cycles_per_sec(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.cycles as f64 / (self.total_ns as f64 / 1e9)
    }

    /// Compact percentage table for terminal output.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "profiled {} cycles in {:.3} s ({:.0} cycles/s)\n",
            self.cycles,
            self.total_ns as f64 / 1e9,
            self.cycles_per_sec()
        );
        for p in &self.phases {
            out.push_str(&format!(
                "  {:<11} {:>6.2}%  {:>12} ns\n",
                p.name,
                p.fraction * 100.0,
                p.ns
            ));
        }
        out
    }
}

/// One node of the span tree. Invariant (enforced at construction):
/// `self_ns + Σ children.total_ns == total_ns`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanNode {
    pub name: String,
    /// Wall time of this span including its children, ns.
    pub total_ns: u64,
    /// Wall time not attributed to any child, ns.
    pub self_ns: u64,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn leaf(name: &str, ns: u64) -> SpanNode {
        SpanNode {
            name: name.to_string(),
            total_ns: ns,
            self_ns: ns,
            children: Vec::new(),
        }
    }
}

/// The hierarchical profile: one root span per phase, in execution order;
/// phase totals equal the flat [`ProfileReport`] exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanReport {
    /// Cycles simulated while profiling, idle spans the run loop jumped
    /// over included.
    pub cycles: u64,
    /// Stepped cycles whose child spans were timed (about one in 64);
    /// the children are scaled from these to their whole phase.
    pub sampled_cycles: u64,
    /// Total profiled wall time, ns (== Σ root totals).
    pub total_ns: u64,
    pub roots: Vec<SpanNode>,
}

impl SpanReport {
    /// Collapsed-stack export: one `frame;frame;frame <self_ns>` line per
    /// span with non-zero self time, rooted at `engine`. Feed to
    /// `inferno-flamegraph` / `flamegraph.pl` for an SVG.
    pub fn to_collapsed(&self) -> String {
        fn walk(out: &mut String, prefix: &str, node: &SpanNode) {
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
        for root in &self.roots {
            walk(&mut out, "engine", root);
        }
        out
    }

    /// Indented tree table for terminal output.
    pub fn to_table(&self) -> String {
        fn walk(out: &mut String, node: &SpanNode, depth: usize, grand_total: u64) {
            let pct = if grand_total > 0 {
                node.total_ns as f64 / grand_total as f64 * 100.0
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {:indent$}{:<width$} {:>6.2}%  {:>12} ns\n",
                "",
                node.name,
                pct,
                node.total_ns,
                indent = depth * 2,
                width = 24usize.saturating_sub(depth * 2),
            ));
            for c in &node.children {
                walk(out, c, depth + 1, grand_total);
            }
        }
        let mut out = format!(
            "span profile: {} cycles in {:.3} s\n  (children timed on {} of {} cycles)\n",
            self.cycles,
            self.total_ns as f64 / 1e9,
            self.sampled_cycles,
            self.cycles
        );
        for root in &self.roots {
            walk(&mut out, root, 0, self.total_ns);
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn assert_node_invariant(n: &SpanNode) {
        let child_sum: u64 = n.children.iter().map(|c| c.total_ns).sum();
        assert_eq!(
            n.self_ns + child_sum,
            n.total_ns,
            "span invariant violated at {:?}",
            n.name
        );
        for c in &n.children {
            assert_node_invariant(c);
        }
    }

    #[test]
    fn report_fractions_sum_to_one() {
        let mut p = Profiler::new();
        p.add(Phase::Switches, 600);
        p.add(Phase::Arrivals, 300);
        p.add(Phase::Observers, 100);
        p.cycles = 10;
        let r = p.report();
        assert_eq!(r.total_ns, 1000);
        assert_eq!(r.phases.len(), PHASE_NAMES.len());
        let sum: f64 = r.phases.iter().map(|x| x.fraction).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(r.phases[3].name, "switches");
        assert!((r.phases[3].fraction - 0.6).abs() < 1e-12);
        assert!(r.cycles_per_sec() > 0.0);
        assert!(r.to_table().contains("switches"));
    }

    #[test]
    fn empty_profiler_reports_zeros() {
        let r = Profiler::new().report();
        assert_eq!(r.total_ns, 0);
        assert_eq!(r.cycles_per_sec(), 0.0);
        assert!(r.phases.iter().all(|p| p.fraction == 0.0));
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
    fn span_tree_reconciles_with_flat_phases() {
        // (child base, routing, crossbar) → (self, routing, crossbar) of a
        // 1000 ns switch phase. Base 0: children fed by hand, timed
        // throughout; base < phase: timed on a sample, scaled up.
        for (base, timed, want) in [
            (0, (600, 300), (100, 600, 300)),
            (1000, (600, 300), (100, 600, 300)),
            (250, (150, 75), (100, 600, 300)),
            (300, (100, 100), (334, 333, 333)),
        ] {
            let mut p = Profiler::new();
            p.cycles = 5;
            p.add(Phase::Switches, 1000);
            p.child_base[Phase::Switches as usize] = base;
            p.add_child(Phase::Switches, "routing", timed.0);
            p.add_child(Phase::Switches, "crossbar", timed.1);
            p.add(Phase::Observers, 50);
            let spans = p.span_report();
            let flat = p.report();
            assert_eq!(spans.total_ns, flat.total_ns);
            for (root, phase) in spans.roots.iter().zip(&flat.phases) {
                assert_eq!(root.name, phase.name);
                assert_eq!(root.total_ns, phase.ns);
                assert_node_invariant(root);
            }
            // Unattributed phase time shows up as self time.
            let sw = &spans.roots[Phase::Switches as usize];
            assert_eq!(sw.children.len(), 2);
            // BTreeMap label order: crossbar before routing.
            assert_eq!(sw.children[0].name, "crossbar");
            assert_eq!(sw.children[1].name, "routing");
            let got = (sw.self_ns, sw.children[1].total_ns, sw.children[0].total_ns);
            assert_eq!(got, want, "child base {base}");
        }
    }

    #[test]
    fn end_sample_credits_the_cycles_phase_time() {
        let mut p = Profiler::new();
        p.add(Phase::Switches, 700);
        let before = p.ns;
        p.add(Phase::Switches, 300);
        p.add(Phase::Observers, 40);
        p.add_child(Phase::Switches, "routing", 150);
        p.end_sample(before);
        p.cycles = 64;
        assert_eq!(p.child_base[Phase::Switches as usize], 300);
        assert_eq!(p.child_base[Phase::Observers as usize], 40);
        let spans = p.span_report();
        assert_eq!(spans.sampled_cycles, 1);
        let sw = &spans.roots[Phase::Switches as usize];
        assert_eq!((sw.self_ns, sw.children[0].total_ns), (500, 500));
        assert!(spans
            .to_table()
            .contains("children timed on 1 of 64 cycles"));
    }

    #[test]
    fn overshooting_children_are_scaled_to_fit_exactly() {
        let mut p = Profiler::new();
        p.add(Phase::Arrivals, 1000);
        // Children sum to 1003 > 1000 (separate Instant pairs drift).
        p.add_child(Phase::Arrivals, "control", 500);
        p.add_child(Phase::Arrivals, "arrivals", 200);
        p.add_child(Phase::Arrivals, "purge", 303);
        let spans = p.span_report();
        let arr = &spans.roots[Phase::Arrivals as usize];
        assert_eq!(arr.total_ns, 1000);
        assert_eq!(arr.self_ns, 0);
        let child_sum: u64 = arr.children.iter().map(|c| c.total_ns).sum();
        assert_eq!(child_sum, 1000, "scaled children must sum exactly");
        assert_node_invariant(arr);
        assert_eq!(arr.children.len(), 3);
    }

    #[test]
    fn collapsed_stacks_cover_the_total() {
        let mut p = Profiler::new();
        p.add(Phase::Switches, 1000);
        p.add_child(Phase::Switches, "routing", 700);
        p.add_child(Phase::Switches, "crossbar", 100);
        p.add(Phase::Generation, 50);
        let spans = p.span_report();
        let collapsed = spans.to_collapsed();
        assert!(collapsed.contains("engine;switches 200\n"));
        assert!(collapsed.contains("engine;switches;routing 700\n"));
        assert!(collapsed.contains("engine;switches;crossbar 100\n"));
        assert!(collapsed.contains("engine;generation 50\n"));
        // Every line's value is a self time; they sum to the grand total.
        let sum: u64 = collapsed
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(sum, spans.total_ns);
        assert!(spans.to_table().contains("crossbar"));
    }
}
