//! Latency-vs-accepted-traffic curves, the paper's main presentation format.

use serde::Serialize;

/// One simulated point of a latency/throughput curve.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CurvePoint {
    /// Offered load, flits/ns/switch.
    pub offered: f64,
    /// Accepted traffic, flits/ns/switch (paper footnote 5).
    pub accepted: f64,
    /// Average message latency in nanoseconds (injection at the source host
    /// to delivery at the destination host — paper footnote 4).
    pub avg_latency_ns: f64,
    /// 99th-percentile latency in nanoseconds.
    pub p99_latency_ns: f64,
    /// Average latency including the source queue (generation to delivery).
    pub avg_total_latency_ns: f64,
    /// Average in-transit buffers used per delivered message.
    pub avg_itbs_per_msg: f64,
    /// Messages delivered during the measurement window.
    pub delivered: u64,
}

/// A full latency/throughput curve for one (topology, scheme, pattern)
/// combination.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Curve {
    pub label: String,
    pub points: Vec<CurvePoint>,
}

impl Curve {
    pub fn new(label: impl Into<String>) -> Curve {
        Curve {
            label: label.into(),
            points: Vec::new(),
        }
    }

    pub fn push(&mut self, p: CurvePoint) {
        self.points.push(p);
    }

    /// Build a curve from points collected in arbitrary order (e.g. as
    /// campaign cells land from a worker pool), sorted by offered load so
    /// the result is independent of completion order.
    pub fn from_points(label: impl Into<String>, points: Vec<CurvePoint>) -> Curve {
        let mut c = Curve {
            label: label.into(),
            points,
        };
        c.sort_by_offered();
        c
    }

    /// Sort the points by offered load (stable, total order — NaNs sort
    /// last, though no simulator path produces them).
    pub(crate) fn sort_by_offered(&mut self) {
        self.points.sort_by(|a, b| a.offered.total_cmp(&b.offered));
    }

    /// Network throughput as the paper reports it: the highest accepted
    /// traffic observed across the sweep (accepted traffic plateaus at the
    /// saturation point).
    pub fn throughput(&self) -> f64 {
        self.points.iter().map(|p| p.accepted).fold(0.0, f64::max)
    }

    /// The first offered load at which the network no longer accepts the
    /// offered traffic (see [`SATURATION_RATIO`]). Returns `None` while the
    /// network keeps up everywhere in the sweep.
    pub fn saturation_offered(&self) -> Option<f64> {
        self.points
            .iter()
            .find(|p| saturated(p.offered, p.accepted))
            .map(|p| p.offered)
    }

    /// Zero-load latency estimate: the average latency of the lowest
    /// offered-load point.
    pub fn zero_load_latency_ns(&self) -> Option<f64> {
        self.points
            .iter()
            .min_by(|a, b| a.offered.total_cmp(&b.offered))
            .map(|p| p.avg_latency_ns)
    }

    /// Render as a fixed-width table like the paper's plots' underlying data.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.label));
        out.push_str(
            "offered(fl/ns/sw)  accepted(fl/ns/sw)  avg_lat(ns)    p99_lat(ns)    itbs/msg\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:<18.5} {:<19.5} {:<14.1} {:<14.1} {:.3}\n",
                p.offered, p.accepted, p.avg_latency_ns, p.p99_latency_ns, p.avg_itbs_per_msg
            ));
        }
        out
    }
}

/// A point is saturated when the network accepts less than this share of
/// its offered load. This is the only definition of "saturated" in the
/// workspace: curve summaries and the saturation search both use it.
pub const SATURATION_RATIO: f64 = 0.92;

fn saturated(offered: f64, accepted: f64) -> bool {
    accepted < offered * SATURATION_RATIO
}

/// The search for a network's saturation load, as a state machine over
/// offered load that never runs anything itself. Its caller asks
/// [`next_load`](Self::next_load) what to simulate and reports the
/// accepted traffic back with [`record`](Self::record) until `next_load`
/// says `None`; [`saturation`](Self::saturation) then holds the answer.
///
/// The first probe is at `start`. From there the search climbs by
/// `growth` until a probe saturates, or, if `start` already saturated,
/// descends by `growth` until one does not. It then bisects that bracket
/// on its geometric midpoint until `hi / lo - 1 <= rel_tol`. At most
/// `max_probes` loads are probed in all.
#[derive(Debug, Clone, PartialEq)]
pub struct SaturationSearch {
    /// First offered load probed, flits/ns/switch.
    pub start: f64,
    /// Bracket expansion and shrink factor (> 1).
    pub growth: f64,
    /// Stop once `hi / lo - 1 <= rel_tol`.
    pub rel_tol: f64,
    /// Hard cap on probes, bracketing and bisection together.
    pub max_probes: usize,
    probes: usize,
    lo: f64,
    hi: Option<f64>,
    throughput: f64,
}

/// What a [`SaturationSearch`] found: saturation lies in `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Saturation {
    /// Highest probed load that was not saturated (0 if every probe was).
    pub lo: f64,
    /// Lowest probed load that was saturated (`None` if no probe was).
    pub hi: Option<f64>,
    /// Highest accepted traffic of any probe: the paper's "throughput".
    pub throughput: f64,
    /// True when the bracket closed to `rel_tol`; false when the probe
    /// budget ran out first, and `lo` and `hi` are then still probed.
    pub converged: bool,
}

impl Saturation {
    /// Point estimate of the saturation load: the geometric midpoint of
    /// `[lo, hi]`, or `hi` when every probe saturated. `None` when none
    /// did.
    pub fn estimate(&self) -> Option<f64> {
        let hi = self.hi?;
        Some(if self.lo > 0.0 {
            (self.lo * hi).sqrt()
        } else {
            hi
        })
    }
}

impl SaturationSearch {
    /// A search from `start` that doubles or halves to a bracket and
    /// bisects it to 5 %, in at most 24 probes.
    pub fn new(start: f64) -> SaturationSearch {
        SaturationSearch {
            start,
            growth: 2.0,
            rel_tol: 0.05,
            max_probes: 24,
            probes: 0,
            lo: 0.0,
            hi: None,
            throughput: 0.0,
        }
    }

    /// Refuse parameters the search cannot finish with, naming the field.
    /// An infinite load would be simulated and checkpointed as `null`.
    pub fn check(&self) -> Result<(), String> {
        if !(self.start.is_finite() && self.start > 0.0) {
            return Err(format!(
                "start load {} must be positive and finite",
                self.start
            ));
        }
        if !(self.growth.is_finite() && self.growth > 1.0) {
            return Err(format!("growth {} must be finite and > 1", self.growth));
        }
        if !(self.rel_tol.is_finite() && self.rel_tol > 0.0) {
            return Err(format!(
                "rel_tol {} must be positive and finite",
                self.rel_tol
            ));
        }
        if self.max_probes == 0 {
            return Err("max_probes must be at least 1".into());
        }
        Ok(())
    }

    /// The offered load to probe next; `None` once the search is over,
    /// which includes a step that would leave the positive finite loads.
    pub fn next_load(&self) -> Option<f64> {
        if self.probes == 0 {
            return Some(self.start);
        }
        if self.probes >= self.max_probes {
            return None;
        }
        let next = match self.hi {
            None => self.lo * self.growth,
            Some(hi) if self.lo <= 0.0 => hi / self.growth,
            Some(hi) if self.closed(hi) => return None,
            Some(hi) => (self.lo * hi).sqrt(),
        };
        (next.is_finite() && next > 0.0).then_some(next)
    }

    /// Record that the probe at `load`, the last [`next_load`](Self::next_load),
    /// accepted `accepted`; returns whether it saturated.
    pub fn record(&mut self, load: f64, accepted: f64) -> bool {
        debug_assert_eq!(Some(load), self.next_load(), "probe out of turn");
        self.probes += 1;
        self.throughput = self.throughput.max(accepted);
        let saturated = saturated(load, accepted);
        if saturated {
            self.hi = Some(load);
        } else {
            self.lo = load;
        }
        saturated
    }

    /// The bracket so far; the answer once `next_load` is `None`.
    pub fn saturation(&self) -> Saturation {
        Saturation {
            lo: self.lo,
            hi: self.hi,
            throughput: self.throughput,
            converged: self.lo > 0.0 && self.hi.is_some_and(|hi| self.closed(hi)),
        }
    }

    fn closed(&self, hi: f64) -> bool {
        hi / self.lo - 1.0 <= self.rel_tol
    }
}

/// One named series of a [`TimeSeries`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct NamedSeries {
    pub name: String,
    pub values: Vec<f64>,
}

/// A set of equally-sampled time series sharing one clock: sample `i` of
/// every series covers cycles `[i*interval_cycles, (i+1)*interval_cycles)`.
/// Produced from simulator telemetry (e.g. per-link utilization over time)
/// and exported by [`export::write_time_series`](crate::export::write_time_series).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TimeSeries {
    pub label: String,
    /// Sampling interval, cycles.
    pub interval_cycles: u64,
    pub series: Vec<NamedSeries>,
}

impl TimeSeries {
    pub fn new(label: impl Into<String>, interval_cycles: u64) -> TimeSeries {
        TimeSeries {
            label: label.into(),
            interval_cycles,
            series: Vec::new(),
        }
    }

    pub fn push(&mut self, name: impl Into<String>, values: Vec<f64>) {
        self.series.push(NamedSeries {
            name: name.into(),
            values,
        });
    }

    /// Length of the longest series (number of samples).
    pub fn samples(&self) -> usize {
        self.series
            .iter()
            .map(|s| s.values.len())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(offered: f64, accepted: f64, lat: f64) -> CurvePoint {
        CurvePoint {
            offered,
            accepted,
            avg_latency_ns: lat,
            p99_latency_ns: lat * 2.0,
            avg_total_latency_ns: lat * 1.1,
            avg_itbs_per_msg: 0.4,
            delivered: 1000,
        }
    }

    fn sample_curve() -> Curve {
        let mut c = Curve::new("ITB-RR torus uniform");
        c.push(point(0.005, 0.005, 4000.0));
        c.push(point(0.010, 0.010, 4500.0));
        c.push(point(0.020, 0.0199, 6000.0));
        c.push(point(0.030, 0.0290, 12000.0));
        c.push(point(0.040, 0.0310, 60000.0));
        c
    }

    #[test]
    fn throughput_is_max_accepted() {
        let c = sample_curve();
        assert_eq!(c.throughput(), 0.0310);
    }

    #[test]
    fn saturation_detection() {
        let mut c = sample_curve();
        // 0.040 is the first point where accepted (0.0310) falls below
        // 92% of offered (0.0368); 0.0290 at 0.030 is above its 0.0276.
        assert_eq!(c.saturation_offered(), Some(0.040));
        c.points.pop();
        assert_eq!(c.saturation_offered(), None);
    }

    /// A synthetic network that accepts everything up to `knee`
    /// flits/ns/switch and nothing beyond it.
    fn run(search: &mut SaturationSearch, knee: f64) -> Vec<f64> {
        let mut probed = Vec::new();
        while let Some(load) = search.next_load() {
            search.record(load, load.min(knee));
            probed.push(load);
        }
        probed
    }

    #[test]
    fn search_converges_on_the_knee() {
        let mut search = SaturationSearch::new(0.004);
        let probed = run(&mut search, 0.013);
        let s = search.saturation();
        assert!(s.converged);
        let hi = s.hi.expect("a saturated probe");
        // Saturated means accepted < 0.92 × offered: above 0.013 / 0.92.
        let knee = 0.013 / SATURATION_RATIO;
        assert!(s.lo <= knee && knee < hi, "{s:?}");
        assert!(hi / s.lo - 1.0 <= 0.05);
        assert_eq!(s.throughput, 0.013);
        assert_eq!(&probed[..3], [0.004, 0.008, 0.016]);
        assert!(probed.contains(&s.lo) && probed.contains(&hi));
        let est = s.estimate().unwrap();
        assert!(s.lo < est && est < hi);
    }

    #[test]
    fn search_that_saturates_everywhere_has_no_lower_bound() {
        let mut search = SaturationSearch {
            max_probes: 4,
            ..SaturationSearch::new(0.004)
        };
        let probed = run(&mut search, 0.0);
        assert_eq!(probed, [0.004, 0.002, 0.001, 0.0005]);
        let s = search.saturation();
        assert_eq!((s.lo, s.hi, s.converged), (0.0, Some(0.0005), false));
        assert_eq!(s.estimate(), Some(0.0005));
    }

    #[test]
    fn search_that_never_saturates_has_no_upper_bound() {
        let mut search = SaturationSearch {
            max_probes: 5,
            ..SaturationSearch::new(0.004)
        };
        let probed = run(&mut search, f64::INFINITY);
        assert_eq!(probed, [0.004, 0.008, 0.016, 0.032, 0.064]);
        let s = search.saturation();
        assert_eq!((s.lo, s.hi, s.converged), (0.064, None, false));
        assert_eq!(s.estimate(), None);
        assert_eq!(s.throughput, 0.064);
        // A finite but huge step ends the search before an infinite load.
        let mut search = SaturationSearch {
            growth: 1e300,
            ..SaturationSearch::new(0.004)
        };
        assert_eq!(run(&mut search, f64::INFINITY), [0.004, 0.004 * 1e300]);
        assert_eq!(search.saturation().hi, None);
    }

    #[test]
    fn search_out_of_budget_mid_bisection_keeps_probed_bounds() {
        let mut search = SaturationSearch {
            rel_tol: 1e-9,
            max_probes: 6,
            ..SaturationSearch::new(0.004)
        };
        let probed = run(&mut search, 0.013);
        assert_eq!(probed.len(), 6);
        let s = search.saturation();
        assert!(!s.converged);
        let hi = s.hi.expect("bracketed by the third probe");
        assert!(0.0 < s.lo && s.lo < hi);
        assert!(probed.contains(&s.lo) && probed.contains(&hi));
    }

    #[test]
    fn search_refuses_what_it_cannot_finish_by_name() {
        let base = SaturationSearch::new(0.004);
        assert_eq!(base.check(), Ok(()));
        for (field, search) in [
            ("start", SaturationSearch::new(f64::INFINITY)),
            ("start", SaturationSearch::new(0.0)),
            ("start", SaturationSearch::new(f64::NAN)),
            (
                "growth",
                SaturationSearch {
                    growth: f64::INFINITY,
                    ..base.clone()
                },
            ),
            (
                "growth",
                SaturationSearch {
                    growth: 1.0,
                    ..base.clone()
                },
            ),
            (
                "rel_tol",
                SaturationSearch {
                    rel_tol: f64::NAN,
                    ..base.clone()
                },
            ),
            (
                "rel_tol",
                SaturationSearch {
                    rel_tol: 0.0,
                    ..base.clone()
                },
            ),
            (
                "max_probes",
                SaturationSearch {
                    max_probes: 0,
                    ..base.clone()
                },
            ),
        ] {
            let err = search.check().unwrap_err();
            assert!(err.starts_with(field), "{field}: {err}");
        }
    }

    #[test]
    fn zero_load_latency() {
        let c = sample_curve();
        assert_eq!(c.zero_load_latency_ns(), Some(4000.0));
        assert_eq!(Curve::new("empty").zero_load_latency_ns(), None);
    }

    #[test]
    fn table_rendering() {
        let c = sample_curve();
        let t = c.to_table();
        assert!(t.contains("ITB-RR torus uniform"));
        assert!(t.lines().count() >= 7);
        assert!(t.contains("0.00500"));
    }

    #[test]
    fn from_points_sorts_by_offered() {
        let pts = vec![
            point(0.030, 0.0290, 12000.0),
            point(0.005, 0.005, 4000.0),
            point(0.020, 0.0199, 6000.0),
        ];
        let c = Curve::from_points("shuffled", pts);
        let loads: Vec<f64> = c.points.iter().map(|p| p.offered).collect();
        assert_eq!(loads, vec![0.005, 0.020, 0.030]);
        assert_eq!(c.zero_load_latency_ns(), Some(4000.0));
    }

    #[test]
    fn empty_curve() {
        let c = Curve::new("x");
        assert_eq!(c.throughput(), 0.0);
        assert_eq!(c.saturation_offered(), None);
    }
}
