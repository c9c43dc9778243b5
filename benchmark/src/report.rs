//! Results files: what host produced them, every metric with its unit
//! and samples, and the comparison of two such files against the bounds
//! `BENCHMARK.json` fixes.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use regnet_metrics::JsonValue;
use serde::Serialize;

use crate::layers::NAMES;
use crate::runner::{Plan, WorkloadResult};

pub const SCHEMA: &str = "regnet-benchmark-v1";

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and how a results file was taken (ROADMAP 1(a)): numbers from
/// hosts with different core counts are not comparable.
#[derive(Serialize)]
struct Manifest {
    nproc: usize,
    cpu_model: String,
    git_rev: String,
    rustc: String,
    seed: u64,
    scale: u64,
    children_point: usize,
    children_campaign: usize,
    body_reps_point: usize,
    body_reps_campaign: usize,
    setup_reps_point: usize,
    setup_reps_campaign: usize,
    traced: bool,
}

fn manifest(plan: &Plan) -> Manifest {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // Only ask git about this checkout, never about a directory above it.
    let git_rev = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    Manifest {
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_model,
        git_rev,
        rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        seed: plan.seed,
        scale: plan.scale,
        children_point: plan.point_children,
        children_campaign: plan.campaign_children,
        body_reps_point: plan.point_reps,
        body_reps_campaign: 1,
        setup_reps_point: plan.point_setup_reps,
        setup_reps_campaign: plan.campaign_setup_reps,
        traced: plan.traced,
    }
}

/// A metric as the results file and the pipeline's line spell it.
#[derive(Serialize)]
struct Metric {
    value: f64,
    unit: String,
}

/// An end-to-end metric with the samples its value was taken from.
#[derive(Serialize)]
struct SampledMetric {
    value: f64,
    unit: String,
    samples: Vec<f64>,
}

#[derive(Serialize)]
struct WorkloadEntry {
    wall_s: SampledMetric,
    setup_s: SampledMetric,
    peak_rss_mb: SampledMetric,
    ops_attempted: u64,
    ops_failed: u64,
    per_layer: Option<BTreeMap<String, Metric>>,
}

#[derive(Serialize)]
struct ResultsFile {
    schema: String,
    manifest: Manifest,
    workloads: BTreeMap<String, WorkloadEntry>,
}

/// The traced run's per-layer rows, every declared name present.
fn per_layer(r: &WorkloadResult) -> Option<BTreeMap<String, Metric>> {
    let layers = r.layers.as_ref()?;
    let rows = NAMES.iter().map(|(name, unit)| {
        let metric = Metric {
            value: layers.get(*name).copied().unwrap_or(f64::NAN),
            unit: unit.to_string(),
        };
        (name.to_string(), metric)
    });
    Some(rows.collect())
}

/// A results file for one run of every workload.
pub fn results_json(plan: &Plan, results: &[WorkloadResult]) -> String {
    let workloads = results.iter().map(|r| {
        let [wall_s, setup_s, peak_rss_mb] =
            r.end_to_end()
                .map(|(_, unit, value, samples)| SampledMetric {
                    value,
                    unit: unit.to_string(),
                    samples: samples.to_vec(),
                });
        let entry = WorkloadEntry {
            wall_s,
            setup_s,
            peak_rss_mb,
            ops_attempted: r.ops_attempted,
            ops_failed: r.ops_failed,
            per_layer: per_layer(r),
        };
        (r.name.clone(), entry)
    });
    let file = ResultsFile {
        schema: SCHEMA.to_string(),
        manifest: manifest(plan),
        workloads: workloads.collect(),
    };
    let text = serde_json::to_string_pretty(&file).expect("results are plain data");
    format!("{text}\n")
}

/// The human-readable report of one workload: every metric by name with
/// its unit.
pub fn print_workload(r: &WorkloadResult) {
    println!("== {}", r.name);
    for (name, unit, value, samples) in r.end_to_end() {
        // The few body and RSS samples are worth seeing whole; of the
        // many set-up timings, the extremes.
        let all = samples.len() <= 8;
        let shown: Vec<f64> = if all {
            samples.to_vec()
        } else {
            let min = samples.iter().copied().fold(f64::MAX, f64::min);
            let max = samples.iter().copied().fold(f64::MIN, f64::max);
            vec![min, max]
        };
        let shown: Vec<String> = shown.iter().map(|v| format!("{v:.4}")).collect();
        let how = if unit == "s" { "lower quartile" } else { "median" };
        println!(
            "  {name:<40} {value:>14.6} {unit:<4} {how} of {}: {}",
            samples.len(),
            shown.join(if all { " " } else { " .. " })
        );
    }
    println!("  {:<40} {:>14}", "ops_attempted", r.ops_attempted);
    println!("  {:<40} {:>14}", "ops_failed", r.ops_failed);
    if let Some(layers) = &r.layers {
        for (name, unit) in NAMES {
            let value = layers.get(name).copied().unwrap_or(f64::NAN);
            let note = if name == "accuracy.torus_rr_over_ud_accepted" && value > 0.0 {
                "  (paper Fig. 7a: 0.032/0.015 = 2.13; tenth windows, indicative)"
            } else {
                ""
            };
            println!("  {name:<40} {value:>14.4} {unit}{note}");
        }
        println!("  self time by span (traced body and probes):");
        for (name, ns, calls) in r.span_self_ns.iter().take(12) {
            println!("    {name:<44} {:>10.2} ms  {calls:>5} calls", ns / 1e6);
        }
    }
    for e in &r.errors {
        println!("  ! {e}");
    }
}

fn benchmark_json() -> Result<JsonValue, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    JsonValue::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
}

/// The end-to-end metrics and their bounds, as `BENCHMARK.json` lists them.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    benchmark_json()?
        .get("end_to_end")
        .and_then(|m| m.as_array())
        .ok_or("BENCHMARK.json has no \"end_to_end\" array")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(|n| n.as_str());
            let bound = m.get("bound").and_then(|b| b.as_f64());
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "BENCHMARK.json: end_to_end entries need name and bound".to_string())
        })
        .collect()
}

fn load_results(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema").and_then(|s| s.as_str()) {
        Some(SCHEMA) => Ok(doc),
        other => Err(format!("{path}: schema {other:?}, expected {SCHEMA:?}")),
    }
}

/// Print, for every workload × end-to-end metric, both files' values,
/// their relative difference and the bound. Returns how many pairs are
/// outside it: in either direction when `same_tree` (two sets of one
/// commit must agree), otherwise only where `b` is worse than `a`.
pub fn compare(a_path: &str, b_path: &str, same_tree: bool) -> Result<usize, String> {
    let (a, b) = (load_results(a_path)?, load_results(b_path)?);
    let cores = |doc: &JsonValue| {
        let nproc = doc.get("manifest").and_then(|m| m.get("nproc")?.as_f64());
        nproc.map_or("an unknown number of".to_string(), |n| n.to_string())
    };
    if cores(&a) != cores(&b) {
        return Err(format!(
            "refusing to compare: {a_path} was taken on {} cores, {b_path} on {}",
            cores(&a),
            cores(&b)
        ));
    }
    let bounds = bounds()?;
    let workloads = a
        .get("workloads")
        .and_then(|w| w.as_object())
        .ok_or_else(|| format!("{a_path}: no \"workloads\""))?;
    println!(
        "{:<18} {:<12} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    let mut outside = 0;
    for (workload, _) in workloads {
        for (name, bound) in &bounds {
            let value = |doc: &JsonValue| {
                doc.get("workloads")?
                    .get(workload)?
                    .get(name)?
                    .get("value")?
                    .as_f64()
            };
            let (Some(va), Some(vb)) = (value(&a), value(&b)) else {
                return Err(format!(
                    "{workload}/{name} is missing from one of the files"
                ));
            };
            // Every end-to-end metric is lower-is-better.
            let diff = vb / va - 1.0;
            let bad = if same_tree {
                diff.abs() > *bound
            } else {
                diff > *bound
            };
            outside += bad as usize;
            println!(
                "{workload:<18} {name:<12} {va:>12.5} {vb:>12.5} {:>+8.2}% {:>6.1}%{}",
                diff * 100.0,
                bound * 100.0,
                if bad { "  OUTSIDE" } else { "" }
            );
        }
    }
    Ok(outside)
}

/// The last line the benchmark pipeline reads: one JSON object.
pub fn pipeline_line(r: &WorkloadResult, traced: bool) -> String {
    #[derive(Serialize)]
    struct Line {
        correct: bool,
        attempted: u64,
        failed: u64,
        metrics: BTreeMap<String, Metric>,
    }
    let metrics = if traced {
        per_layer(r).unwrap_or_default()
    } else {
        r.end_to_end()
            .into_iter()
            .map(|(name, unit, value, _)| {
                let unit = unit.to_string();
                (name.to_string(), Metric { value, unit })
            })
            .collect()
    };
    let line = Line {
        correct: r.ops_failed == 0 && r.errors.is_empty(),
        attempted: r.ops_attempted,
        failed: r.ops_failed,
        metrics,
    };
    serde_json::to_string(&line).expect("the line is plain data")
}

/// Names as `[A-Za-z0-9_.-]+`, the pipeline's alphabet.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// The `--smoke` self-test: what was emitted is exactly what
/// `BENCHMARK.json` lists — workloads, end-to-end and per-layer metrics —
/// every name is well-formed and every unit present and matching.
pub fn check_against_benchmark_json(results: &[WorkloadResult]) -> Result<(), String> {
    let doc = benchmark_json()?;
    let listed = |key: &str, field: &str| -> Result<Vec<String>, String> {
        doc.get(key)
            .and_then(|a| a.as_array())
            .ok_or_else(|| format!("BENCHMARK.json has no {key:?} array"))?
            .iter()
            .map(|m| {
                m.get(field)
                    .and_then(|n| n.as_str())
                    .map(String::from)
                    .ok_or_else(|| format!("BENCHMARK.json: a {key} entry has no {field:?}"))
            })
            .collect()
    };
    let emitted_workloads: Vec<String> = results.iter().map(|r| r.name.clone()).collect();
    if listed("workloads", "name")? != emitted_workloads {
        return Err(format!(
            "workloads emitted {emitted_workloads:?} are not those BENCHMARK.json lists"
        ));
    }
    for r in results {
        let e2e: Vec<(String, String)> = r
            .end_to_end()
            .iter()
            .map(|(n, u, _, _)| (n.to_string(), u.to_string()))
            .collect();
        let layers = r
            .layers
            .as_ref()
            .ok_or_else(|| format!("{}: no per-layer metrics emitted", r.name))?;
        let per_layer: Vec<(String, String)> = NAMES
            .iter()
            .filter(|(n, _)| layers.contains_key(*n))
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        if per_layer.len() != layers.len() {
            return Err(format!(
                "{}: a per-layer metric has no declared unit",
                r.name
            ));
        }
        for (key, emitted) in [("end_to_end", e2e), ("per_layer", per_layer)] {
            let names = listed(key, "name")?;
            let units = listed(key, "unit")?;
            let want: Vec<(String, String)> = names.into_iter().zip(units).collect();
            if want != emitted {
                let odd: Vec<_> = want
                    .iter()
                    .filter(|w| !emitted.contains(w))
                    .chain(emitted.iter().filter(|e| !want.contains(e)))
                    .collect();
                return Err(format!(
                    "{}: {key} metrics differ from BENCHMARK.json (order matters): {odd:?}",
                    r.name
                ));
            }
            for (name, unit) in &emitted {
                if !valid_name(name) || unit.is_empty() {
                    return Err(format!(
                        "{}: bad metric name or unit: {name:?} {unit:?}",
                        r.name
                    ));
                }
            }
        }
        if let Some((name, _)) = layers.iter().find(|(_, v)| !v.is_finite()) {
            return Err(format!("{}: {name} is not a finite number", r.name));
        }
    }
    Ok(())
}

/// Write `text` to `path`, creating the directory.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_metric_is_well_formed() {
        for (name, unit) in NAMES {
            assert!(valid_name(name) && name.len() <= 64, "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
        }
        assert!(!valid_name("no spaces") && !valid_name(""));
    }
}
