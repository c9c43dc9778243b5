//! The correctness check. The simulator is bit-deterministic, so every
//! body of a workload must produce the same operations — `delivered`,
//! `generated`, the FNV digests and the dependability counters — and on
//! the default seed those are pinned in `benchmark/golden/<workload>.json`.

use std::path::PathBuf;

use regnet_metrics::JsonValue;
use regnet_netsim::ReliabilityStats;
use serde::Serialize;

use crate::workloads::DEFAULT_SEED;

/// What one operation produced — one per point body, one per campaign
/// cell — field by field, so that a renamed or added field of the
/// simulator's own structs changes nothing here.
#[derive(Clone, Serialize)]
pub struct Op {
    pub id: String,
    pub delivered: u64,
    pub generated: u64,
    pub delivered_payload_flits: u64,
    pub avg_latency_ns: f64,
    /// FNV-1a over `RunStats::channel_busy` (point bodies only).
    pub channel_busy_fnv: Option<String>,
    /// The simulator's own run digest, where the workload arms it.
    pub digest: Option<String>,
    pub reliability: ReliabilityStats,
}

#[derive(Serialize)]
struct GoldenFile {
    workload: String,
    seed: u64,
    ops: Vec<Op>,
}

pub fn path(workload: &str) -> PathBuf {
    PathBuf::from(format!("benchmark/golden/{workload}.json"))
}

/// Write `ops` as the golden file of `workload` (`--bless`).
pub fn write(workload: &str, ops: &[Op]) -> Result<(), String> {
    let file = GoldenFile {
        workload: workload.to_string(),
        seed: DEFAULT_SEED,
        ops: ops.to_vec(),
    };
    let text = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    crate::report::write_file(&path(workload), &format!("{text}\n"))
}

fn load(workload: &str) -> Result<Vec<JsonValue>, String> {
    let path = path(workload);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read golden file {}: {e}", path.display()))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("ops")
        .and_then(|o| o.as_array())
        .map(<[JsonValue]>::to_vec)
        .ok_or_else(|| format!("{}: no \"ops\" array", path.display()))
}

fn field(op: &JsonValue, key: &str) -> f64 {
    op.get(key).and_then(|v| v.as_f64()).unwrap_or(f64::NAN)
}

/// Compare every repetition's operations with the reference — the golden
/// file on the default seed at full size, otherwise the first repetition —
/// and return how many operations failed. Messages go to `errors`.
pub fn check(
    workload: &str,
    seed: u64,
    scale: u64,
    reps: &[&Vec<JsonValue>],
    errors: &mut Vec<String>,
) -> u64 {
    let pinned = seed == DEFAULT_SEED && scale == 1;
    let reference = if pinned {
        match load(workload) {
            Ok(ops) => ops,
            Err(e) => {
                errors.push(e);
                return reps.iter().map(|r| r.len() as u64).sum();
            }
        }
    } else {
        reps.first().map(|r| r.to_vec()).unwrap_or_default()
    };
    let mut failed = 0;
    for (i, rep) in reps.iter().enumerate() {
        for (j, op) in rep.iter().enumerate() {
            let id = op.get("id").and_then(|v| v.as_str()).unwrap_or("?");
            let mut fail = |why: String| {
                failed += 1;
                errors.push(format!("{workload} repetition {i} op {id}: {why}"));
            };
            if reference.get(j) != Some(op) {
                let what = if pinned {
                    "differs from the golden file"
                } else {
                    "differs from the first repetition"
                };
                fail(what.to_string());
            } else if !pinned && scale == 1 {
                // No pinned values for this seed: at least the run must
                // have carried traffic and lost none of it. (At `--smoke`
                // size the faulted run is all reconfiguration stall.)
                let dropped = op
                    .get("reliability")
                    .map_or(f64::NAN, |r| field(r, "dropped_packets"));
                if field(op, "delivered") < 1.0 {
                    fail("nothing was delivered".into());
                } else if dropped != 0.0 {
                    fail(format!("{dropped} packets dropped"));
                }
            }
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(delivered: u64, dropped: u64) -> JsonValue {
        let text = format!(
            "{{\"id\": \"body\", \"delivered\": {delivered}, \"reliability\": {{\"dropped_packets\": {dropped}}}}}"
        );
        JsonValue::parse(&text).unwrap()
    }

    #[test]
    fn unpinned_seed_checks_repetitions_against_each_other() {
        let (a, b) = (vec![op(10, 0)], vec![op(11, 0)]);
        let mut errors = Vec::new();
        assert_eq!(check("w", DEFAULT_SEED + 1, 1, &[&a, &a], &mut errors), 0);
        assert_eq!(check("w", DEFAULT_SEED + 1, 1, &[&a, &b], &mut errors), 1);
        assert!(errors[0].contains("differs from the first repetition"));
    }

    #[test]
    fn unpinned_seed_wants_traffic_and_no_drops() {
        let mut errors = Vec::new();
        let (idle, lossy) = (vec![op(0, 0)], vec![op(10, 2)]);
        assert_eq!(check("w", DEFAULT_SEED + 1, 1, &[&idle], &mut errors), 1);
        assert_eq!(check("w", DEFAULT_SEED + 1, 1, &[&lossy], &mut errors), 1);
        // At `--smoke` size only the repetitions' agreement is checked.
        assert_eq!(check("w", DEFAULT_SEED + 1, 20, &[&idle], &mut errors), 0);
    }

    #[test]
    fn golden_file_holds_the_ops_as_the_child_reports_them() {
        let ops = vec![Op {
            id: "body".into(),
            delivered: 10,
            generated: 11,
            delivered_payload_flits: 5120,
            avg_latency_ns: 1234.5678901234567,
            channel_busy_fnv: Some("00ff".into()),
            digest: None,
            reliability: ReliabilityStats::default(),
        }];
        let reported = JsonValue::parse(&serde_json::to_string(&ops).unwrap()).unwrap();
        let file = GoldenFile {
            workload: "w".into(),
            seed: DEFAULT_SEED,
            ops,
        };
        let doc = JsonValue::parse(&serde_json::to_string_pretty(&file).unwrap()).unwrap();
        assert_eq!(doc.get("ops"), Some(&reported));
    }
}
