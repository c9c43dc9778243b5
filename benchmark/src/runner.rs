//! The parent side of one measurement: spawn fresh children one after
//! another, check what they computed, and fold their timings into the
//! three end-to-end metrics (and, for a traced run, the per-layer ones).

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use regnet_metrics::JsonValue;

use crate::golden;
use crate::layers::Metrics;
use crate::stats::{lower_quartile, median, range_pct};
use crate::workloads::CAMPAIGN;

/// How much one run of a workload measures. Fixed work: nothing here is
/// derived from a time budget.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    pub scale: u64,
    /// Fresh processes per single-point workload, and for the campaign
    /// (whose child takes twice as long).
    pub point_children: usize,
    pub campaign_children: usize,
    /// Body timings per child for the single-point workloads (the
    /// campaign body, ≈ 7.5 s, is timed once per child).
    pub point_reps: usize,
    /// Set-up timings per child before its first body: of a single point
    /// (≈ 30 ms each) and of the campaign (21 experiments, ≈ 0.3 s each).
    pub point_setup_reps: usize,
    pub campaign_setup_reps: usize,
    /// One more child with the span recorder on and the layer probes.
    pub traced: bool,
    pub out: PathBuf,
}

impl Plan {
    /// The benchmark's size: 3 children × 2 bodies and 9 set-ups per child
    /// (campaign: 2 children × 1 body, 4 set-ups). The campaign's child
    /// takes twice as long as the others', so it is the one cut to two:
    /// the pipeline's hour has to hold 114 runs even in a spell when the
    /// host runs everything 1.4× slower.
    pub fn full(seed: u64, traced: bool, out: &Path) -> Plan {
        Plan {
            seed,
            scale: 1,
            point_children: 3,
            campaign_children: 2,
            point_reps: 2,
            point_setup_reps: 9,
            campaign_setup_reps: 4,
            traced,
            out: out.to_path_buf(),
        }
    }

    pub fn children(&self, workload: &str) -> usize {
        if workload == CAMPAIGN {
            self.campaign_children
        } else {
            self.point_children
        }
    }

    pub fn body_reps(&self, workload: &str) -> usize {
        if workload == CAMPAIGN {
            1
        } else {
            self.point_reps
        }
    }

    pub fn setup_reps(&self, workload: &str) -> usize {
        if workload == CAMPAIGN {
            self.campaign_setup_reps
        } else {
            self.point_setup_reps
        }
    }
}

/// One child's report, parsed.
struct ChildReport {
    wall_s: Vec<f64>,
    setup_s: Vec<f64>,
    peak_rss_kb: f64,
    ops_attempted: u64,
    ops_failed: u64,
    reps: Vec<Vec<JsonValue>>,
    errors: Vec<String>,
    layers: Option<Metrics>,
    span_self_ns: Vec<(String, f64, f64)>,
}

fn numbers(v: &JsonValue, key: &str) -> Result<Vec<f64>, String> {
    v.get(key)
        .and_then(|a| a.as_array())
        .ok_or_else(|| format!("child report has no {key:?} array"))?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| format!("{key:?} holds a non-number"))
        })
        .collect()
}

fn number(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(|x| x.as_f64())
        .ok_or_else(|| format!("child report has no number {key:?}"))
}

/// What a child is started for: timings, the traced body and the layer
/// probes, or the golden file.
#[derive(Clone, Copy, PartialEq)]
enum ChildMode {
    Timed,
    Traced,
    Bless,
}

fn spawn_child(workload: &str, plan: &Plan, mode: ChildMode) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let (setup_reps, body_reps) = match mode {
        ChildMode::Timed => (plan.setup_reps(workload), plan.body_reps(workload)),
        ChildMode::Traced | ChildMode::Bless => (0, 1),
    };
    let flag = |on: bool| if on { "1" } else { "0" };
    let output = Command::new(exe)
        .args(["--child", workload])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--scale", &plan.scale.to_string()])
        .args(["--setup-reps", &setup_reps.to_string()])
        .args(["--body-reps", &body_reps.to_string()])
        .args(["--trace", flag(mode == ChildMode::Traced)])
        .args(["--bless-child", flag(mode == ChildMode::Bless)])
        .arg("--out")
        .arg(&plan.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child for {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("child for {workload} ended with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("child for {workload} printed nothing"))?;
    let v = JsonValue::parse(line).map_err(|e| format!("child report is not JSON: {e}"))?;
    let reps = v
        .get("reps")
        .and_then(|r| r.as_array())
        .ok_or("child report has no \"reps\"")?
        .iter()
        .map(|ops| {
            ops.as_array()
                .map(<[JsonValue]>::to_vec)
                .unwrap_or_default()
        })
        .collect();
    let errors = v
        .get("errors")
        .and_then(|e| e.as_array())
        .map(|e| {
            e.iter()
                .filter_map(|s| s.as_str().map(String::from))
                .collect()
        })
        .unwrap_or_default();
    let layers = v.get("layers").and_then(|l| l.as_object()).map(|members| {
        members
            .iter()
            .map(|(k, x)| (k.clone(), x.as_f64().unwrap_or(f64::NAN)))
            .collect()
    });
    let span_self_ns = v
        .get("span_self_ns")
        .and_then(|s| s.as_array())
        .map(|rows| {
            rows.iter()
                .filter_map(|r| {
                    let r = r.as_array()?;
                    Some((r[0].as_str()?.to_string(), r[1].as_f64()?, r[2].as_f64()?))
                })
                .collect()
        })
        .unwrap_or_default();
    Ok(ChildReport {
        wall_s: numbers(&v, "wall_s")?,
        setup_s: numbers(&v, "setup_s")?,
        peak_rss_kb: number(&v, "peak_rss_kb")?,
        ops_attempted: number(&v, "ops_attempted")? as u64,
        ops_failed: number(&v, "ops_failed")? as u64,
        reps,
        errors,
        layers,
        span_self_ns,
    })
}

/// One workload's run: metric values, the samples behind them, and what
/// the correctness check found.
pub struct WorkloadResult {
    pub name: String,
    pub wall_s: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub wall_samples: Vec<f64>,
    pub setup_samples: Vec<f64>,
    pub rss_samples: Vec<f64>,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub errors: Vec<String>,
    pub layers: Option<Metrics>,
    pub span_self_ns: Vec<(String, f64, f64)>,
}

impl WorkloadResult {
    /// Name, unit, value and the samples the value was taken from.
    pub fn end_to_end(&self) -> [(&'static str, &'static str, f64, &[f64]); 3] {
        [
            ("wall_s", "s", self.wall_s, &self.wall_samples),
            ("setup_s", "s", self.setup_s, &self.setup_samples),
            ("peak_rss_mb", "MB", self.peak_rss_mb, &self.rss_samples),
        ]
    }
}

/// Run `workload` as `plan` says. `Err` only when no timing could be
/// taken at all; failed operations are counted in the result.
pub fn run_workload(workload: &str, plan: &Plan) -> Result<WorkloadResult, String> {
    let mut sets = run_interleaved(workload, plan, 1)?;
    Ok(sets.remove(0))
}

/// `sets` runs of `workload` at once, their children taking turns
/// (A B A B A B for two), so that every set sees the same minutes of the
/// host: what still differs between them is what a run cannot resolve,
/// not how far the host drifted from one run to the next.
pub fn run_interleaved(
    workload: &str,
    plan: &Plan,
    sets: usize,
) -> Result<Vec<WorkloadResult>, String> {
    let mut children: Vec<Vec<ChildReport>> = (0..sets).map(|_| Vec::new()).collect();
    for _ in 0..plan.children(workload) {
        for set in &mut children {
            set.push(spawn_child(workload, plan, ChildMode::Timed)?);
        }
    }
    children
        .into_iter()
        .map(|set| fold(workload, plan, set))
        .collect()
}

/// Write the golden file of `workload` from one body at the default seed.
pub fn bless(workload: &str, plan: &Plan) -> Result<(), String> {
    let child = spawn_child(workload, plan, ChildMode::Bless)?;
    match child.errors.first() {
        None => Ok(()),
        Some(e) => Err(format!("{workload}: {e}")),
    }
}

/// The three end-to-end metrics of one run from its children's reports,
/// after the correctness check; for a traced plan, one more child.
fn fold(workload: &str, plan: &Plan, children: Vec<ChildReport>) -> Result<WorkloadResult, String> {
    let mut errors: Vec<String> = children.iter().flat_map(|c| c.errors.clone()).collect();
    let wall_samples: Vec<f64> = children.iter().flat_map(|c| c.wall_s.clone()).collect();
    let setup_samples: Vec<f64> = children.iter().flat_map(|c| c.setup_s.clone()).collect();
    let rss_samples: Vec<f64> = children.iter().map(|c| c.peak_rss_kb / 1024.0).collect();
    if wall_samples.is_empty() || setup_samples.is_empty() {
        return Err(format!("{workload}: no body completed: {errors:?}"));
    }
    let reps: Vec<&Vec<JsonValue>> = children.iter().flat_map(|c| &c.reps).collect();
    let mismatched = golden::check(workload, plan.seed, plan.scale, &reps, &mut errors);
    let ops_attempted: u64 = children.iter().map(|c| c.ops_attempted).sum();
    let ops_failed: u64 = children.iter().map(|c| c.ops_failed).sum::<u64>() + mismatched;

    let mut layers = None;
    let mut span_self_ns = Vec::new();
    if plan.traced {
        let traced = spawn_child(workload, plan, ChildMode::Traced)?;
        errors.extend(traced.errors);
        if let (Some(mut m), Some(&traced_wall)) = (traced.layers, traced.wall_s.first()) {
            let per_child: Vec<f64> = children.iter().map(|c| median(&c.wall_s)).collect();
            let within: Vec<f64> = children.iter().map(|c| range_pct(&c.wall_s)).collect();
            m.insert(
                "bench.trace_overhead_pct".into(),
                (traced_wall / median(&wall_samples) - 1.0) * 100.0,
            );
            m.insert("bench.rep_spread_pct".into(), median(&within));
            m.insert("bench.proc_spread_pct".into(), range_pct(&per_child));
            // The first set-up of each process, which the lower quartile drops.
            let cold: Vec<f64> = children
                .iter()
                .filter_map(|c| c.setup_s.first().copied())
                .collect();
            m.insert("bench.setup_cold_ms".into(), median(&cold) * 1e3);
            layers = Some(m);
        } else {
            errors.push(format!(
                "{workload}: the traced child took no layer metrics"
            ));
        }
        span_self_ns = traced.span_self_ns;
    }

    Ok(WorkloadResult {
        name: workload.to_string(),
        // Time is only ever added to by the host: the low side repeats.
        wall_s: lower_quartile(&wall_samples),
        setup_s: lower_quartile(&setup_samples),
        peak_rss_mb: median(&rss_samples),
        wall_samples,
        setup_samples,
        rss_samples,
        ops_attempted,
        ops_failed,
        errors,
        layers,
        span_self_ns,
    })
}
