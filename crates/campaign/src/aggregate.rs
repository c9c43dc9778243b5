//! Aggregation: turn the store's per-cell checkpoints into derived
//! artifacts — latency-vs-load curves per group, a saturation summary,
//! and goodput-dip time series — exported through `regnet_metrics` as
//! `.dat`/`.gp`/JSON.
//!
//! Aggregation is a pure function of (plan, store contents): cells are
//! grouped by their *family* (canonical key minus the load axis) inside
//! each declared group, families are ordered by key and points by load,
//! so the exported artifacts are byte-identical no matter which worker
//! finished which cell first — and identical between an uninterrupted
//! run and a killed-then-resumed one. Re-exporting on every completed
//! cell is how the campaign binary "streams" curves as they land.

use std::collections::BTreeMap;
use std::path::Path;

use regnet_metrics::{
    write_figure, write_time_series, Curve, CurvePoint, TimeSeries, SATURATION_RATIO,
};
use serde::Serialize;

use crate::cell::CellResult;
use crate::spec::{pattern_key, RunPlan};

/// Curves of one declared group.
#[derive(Debug, Clone)]
pub struct GroupCurves {
    pub group: String,
    pub curves: Vec<Curve>,
}

/// One line of the saturation summary table.
#[derive(Debug, Clone, Serialize)]
pub struct SaturationRow {
    pub group: String,
    pub label: String,
    /// Highest accepted traffic seen across the family's loads.
    pub throughput: f64,
    /// First offered load that saturated ([`SATURATION_RATIO`]), if any.
    pub saturation_offered: Option<f64>,
    pub zero_load_latency_ns: Option<f64>,
    /// Points aggregated so far (grows as the campaign streams).
    pub points: usize,
}

/// Everything derived from the results landed so far.
#[derive(Debug, Clone)]
pub struct Aggregates {
    pub groups: Vec<GroupCurves>,
    pub summary: Vec<SaturationRow>,
    /// Goodput time series per cell that recorded one, keyed by hash.
    pub goodput: Vec<(String, TimeSeries)>,
    pub cells_done: usize,
    pub cells_total: usize,
}

/// Compute the aggregates for every result present in `results` (partial
/// campaigns are fine — that is the streaming case).
pub fn aggregate(plan: &RunPlan, results: &BTreeMap<String, CellResult>) -> Aggregates {
    // group → family key → (display label, points).
    let mut groups: BTreeMap<&str, BTreeMap<String, (String, Vec<CurvePoint>)>> = BTreeMap::new();
    // How many distinct seeds a group spans (labels mention them only
    // when they actually distinguish cells).
    let mut group_seeds: BTreeMap<&str, std::collections::BTreeSet<u64>> = BTreeMap::new();
    let mut done = 0usize;
    for cell in &plan.cells {
        if !results.contains_key(&cell.hash) {
            continue;
        }
        done += 1;
        for group in &cell.groups {
            group_seeds.entry(group).or_default().insert(cell.spec.seed);
        }
    }
    for cell in &plan.cells {
        let Some(result) = results.get(&cell.hash) else {
            continue;
        };
        let spec = &cell.spec;
        // Family: every identity field except the load axis.
        let family: String = spec
            .canonical_key()
            .split(';')
            .filter(|f| !f.starts_with("load="))
            .collect::<Vec<_>>()
            .join(";");
        for group in &cell.groups {
            let many_seeds = group_seeds.get(group.as_str()).is_some_and(|s| s.len() > 1);
            let mut label = format!(
                "{} {} {}",
                spec.topo.key(),
                spec.scheme.label(),
                pattern_key(&spec.pattern)
            );
            if many_seeds {
                label.push_str(&format!(" seed={}", spec.seed));
            }
            if let Some(f) = &spec.faults {
                label.push_str(&format!(" +{}", f.label));
            }
            groups
                .entry(group)
                .or_default()
                .entry(family.clone())
                .or_insert_with(|| (label, Vec::new()))
                .1
                .push(result.curve_point());
        }
    }

    let mut out_groups = Vec::new();
    let mut summary = Vec::new();
    for (group, families) in groups {
        let mut curves = Vec::new();
        for (_family, (label, points)) in families {
            let curve = Curve::from_points(label, points);
            summary.push(SaturationRow {
                group: group.to_string(),
                label: curve.label.clone(),
                throughput: curve.throughput(),
                saturation_offered: curve.saturation_offered(),
                zero_load_latency_ns: curve.zero_load_latency_ns(),
                points: curve.points.len(),
            });
            curves.push(curve);
        }
        out_groups.push(GroupCurves {
            group: group.to_string(),
            curves,
        });
    }

    // Goodput-dip series, ordered by hash (BTreeMap iteration).
    let mut goodput = Vec::new();
    for cell in &plan.cells {
        let Some(result) = results.get(&cell.hash) else {
            continue;
        };
        if let Some(g) = &result.goodput {
            let mut ts = TimeSeries::new(
                format!("goodput {} ({})", cell.hash, result.key),
                g.interval,
            );
            ts.push(
                "goodput_flits_per_cycle",
                g.samples
                    .iter()
                    .map(|&s| s as f64 / g.interval as f64)
                    .collect(),
            );
            goodput.push((cell.hash.clone(), ts));
        }
    }

    Aggregates {
        groups: out_groups,
        summary,
        goodput,
        cells_done: done,
        cells_total: plan.cells.len(),
    }
}

/// File-system-safe spelling of a group name.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

// The vendored serde derive does not support generic/lifetime-carrying
// types, so the summary document owns its data (it is tiny).
#[derive(Serialize)]
struct SummaryDoc {
    campaign: String,
    cells_done: usize,
    cells_total: usize,
    saturation_ratio: f64,
    rows: Vec<SaturationRow>,
}

/// Export the aggregates under `out`: `curves/<group>.{dat,gp}`,
/// `curves/summary.json` and `goodput/goodput_<hash>.{json,dat,gp}`.
/// Called after every landed cell by the campaign binary, so partially
/// complete artifacts are always on disk and always consistent.
pub fn export_campaign(
    plan: &RunPlan,
    results: &BTreeMap<String, CellResult>,
    out: &Path,
) -> Result<Aggregates, String> {
    let agg = aggregate(plan, results);
    let curves_dir = out.join("curves");
    for g in &agg.groups {
        let name = sanitize(&g.group);
        write_figure(
            &curves_dir,
            &name,
            &format!("{} — {}", plan.name, g.group),
            &g.curves,
        )
        .map_err(|e| format!("cannot export curves for group {:?}: {e}", g.group))?;
    }
    std::fs::create_dir_all(&curves_dir)
        .map_err(|e| format!("cannot create {}: {e}", curves_dir.display()))?;
    let doc = SummaryDoc {
        campaign: plan.name.clone(),
        cells_done: agg.cells_done,
        cells_total: agg.cells_total,
        saturation_ratio: SATURATION_RATIO,
        rows: agg.summary.clone(),
    };
    let json = serde_json::to_string_pretty(&doc).expect("summary serialization is infallible");
    let summary_path = curves_dir.join("summary.json");
    std::fs::write(&summary_path, json + "\n")
        .map_err(|e| format!("cannot write {}: {e}", summary_path.display()))?;
    for (hash, ts) in &agg.goodput {
        write_time_series(&out.join("goodput"), &format!("goodput_{hash}"), ts)
            .map_err(|e| format!("cannot export goodput for cell {hash}: {e}"))?;
    }
    Ok(agg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;
    use regnet_netsim::{GoodputSeries, ReliabilityStats};

    fn fake(hash: &str, offered: f64, lat: f64) -> CellResult {
        CellResult {
            key: format!("k-{hash}"),
            hash: hash.to_string(),
            offered,
            accepted: offered * 0.99,
            avg_latency_ns: lat,
            p99_latency_ns: lat * 2.0,
            avg_total_latency_ns: lat * 1.1,
            avg_itbs_per_msg: 0.1,
            delivered: 100,
            generated: 101,
            delivered_payload_flits: 6400,
            window_cycles: 10_000,
            util_mean: 0.2,
            util_max: 0.4,
            digest: Some("0123456789abcdef".into()),
            digest_events: 100,
            reliability: ReliabilityStats::default(),
            goodput: Some(GoodputSeries {
                interval: 1000,
                samples: vec![640, 640, 320],
            }),
            wall_ms: 1,
            peak_rss_kb: 0,
        }
    }

    fn plan() -> RunPlan {
        CampaignSpec::from_json_str(
            r#"{
                "name": "agg-test",
                "sweeps": [
                    {"group": "curves", "topos": ["torus"], "schemes": ["ITB-RR", "UP/DOWN"],
                     "patterns": ["uniform"], "loads": [0.01, 0.02, 0.03]}
                ]
            }"#,
        )
        .unwrap()
        .expand()
        .unwrap()
    }

    #[test]
    fn aggregation_is_order_independent_and_sorted() {
        let plan = plan();
        // Results landing in two different completion orders.
        let mut fwd = BTreeMap::new();
        let mut rev = BTreeMap::new();
        for (i, cell) in plan.cells.iter().enumerate() {
            let r = fake(&cell.hash, cell.spec.load, 1000.0 + i as f64);
            fwd.insert(cell.hash.clone(), r);
        }
        for cell in plan.cells.iter().rev() {
            rev.insert(cell.hash.clone(), fwd[&cell.hash].clone());
        }
        let a = aggregate(&plan, &fwd);
        let b = aggregate(&plan, &rev);
        assert_eq!(a.cells_done, 6);
        assert_eq!(a.groups.len(), 1);
        // Two families (one per scheme), three load points each, sorted.
        assert_eq!(a.groups[0].curves.len(), 2);
        for (ca, cb) in a.groups[0].curves.iter().zip(&b.groups[0].curves) {
            assert_eq!(ca.label, cb.label);
            assert_eq!(ca.points, cb.points);
            let loads: Vec<f64> = ca.points.iter().map(|p| p.offered).collect();
            assert_eq!(loads, vec![0.01, 0.02, 0.03]);
        }
        assert_eq!(a.summary.len(), 2);
    }

    #[test]
    fn partial_results_stream() {
        let plan = plan();
        let mut partial = BTreeMap::new();
        let first = &plan.cells[0];
        partial.insert(
            first.hash.clone(),
            fake(&first.hash, first.spec.load, 900.0),
        );
        let agg = aggregate(&plan, &partial);
        assert_eq!(agg.cells_done, 1);
        assert_eq!(agg.cells_total, 6);
        assert_eq!(agg.groups[0].curves.len(), 1);
        assert_eq!(agg.summary[0].points, 1);
    }

    #[test]
    fn export_writes_expected_files() {
        let plan = plan();
        let mut results = BTreeMap::new();
        for cell in &plan.cells {
            results.insert(cell.hash.clone(), fake(&cell.hash, cell.spec.load, 1000.0));
        }
        let dir = std::env::temp_dir().join(format!("regnet-agg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let agg = export_campaign(&plan, &results, &dir).unwrap();
        assert_eq!(agg.cells_done, 6);
        assert!(dir.join("curves/curves.gp").exists());
        assert!(dir.join("curves/curves_0.dat").exists());
        assert!(dir.join("curves/summary.json").exists());
        let goodput_files = std::fs::read_dir(dir.join("goodput")).unwrap().count();
        assert_eq!(goodput_files, 6 * 3, "json+dat+gp per goodput cell");
        // The summary parses back with our own reader.
        let text = std::fs::read_to_string(dir.join("curves/summary.json")).unwrap();
        let doc = regnet_metrics::JsonValue::parse(&text).unwrap();
        assert_eq!(doc.get("cells_done").and_then(|v| v.as_f64()), Some(6.0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
