//! One workload in one fresh process. The parent re-executes the
//! benchmark binary with `--child`, so every timing below is taken in a
//! process that ran nothing else and whose peak RSS belongs to this
//! workload alone. The report goes to the parent as one JSON line.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use regnet_campaign::{fnv1a64, CellResult};
use serde::Serialize;

use crate::golden::{self, Op};
use crate::layers::{layer_metrics, CampaignRun, Metrics, TracedBody};
use crate::spans::Recorder;
use crate::workloads::{
    campaign_body, campaign_setup, campaign_text, point_input, run_point, PointBody, CAMPAIGN,
};

pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    /// Divisor of every cycle count (1 except under `--smoke`).
    pub scale: u64,
    /// Set-up timings taken before the first body.
    pub setup_reps: usize,
    pub body_reps: usize,
    /// Record spans around the one body and take the per-layer metrics.
    pub traced: bool,
    /// Write the first body's operations to the workload's golden file.
    pub bless: bool,
    /// The benchmark's output directory.
    pub out: PathBuf,
}

fn point_op(body: &PointBody) -> Op {
    let stats = &body.obs.stats;
    let busy: Vec<u8> = stats
        .channel_busy
        .iter()
        .flat_map(|b| b.to_le_bytes())
        .collect();
    Op {
        id: "body".to_string(),
        delivered: stats.delivered,
        generated: stats.generated,
        delivered_payload_flits: stats.delivered_payload_flits,
        avg_latency_ns: stats.avg_latency_ns,
        // The per-channel busy cycles pin where the traffic went, with no
        // recorder armed.
        channel_busy_fnv: Some(format!("{:016x}", fnv1a64(&busy))),
        digest: body
            .obs
            .trace
            .as_ref()
            .and_then(|t| t.digest)
            .map(|d| format!("{d:016x}")),
        reliability: body.obs.reliability.clone(),
    }
}

fn cell_op(cell: &CellResult) -> Op {
    Op {
        id: cell.key.clone(),
        delivered: cell.delivered,
        generated: cell.generated,
        delivered_payload_flits: cell.delivered_payload_flits,
        avg_latency_ns: cell.avg_latency_ns,
        channel_busy_fnv: None,
        digest: cell.digest.clone(),
        reliability: cell.reliability.clone(),
    }
}

/// What the child prints for its parent (`runner::ChildReport` reads it).
#[derive(Default, Serialize)]
struct Report {
    workload: String,
    wall_s: Vec<f64>,
    setup_s: Vec<f64>,
    peak_rss_kb: u64,
    ops_attempted: usize,
    ops_failed: usize,
    /// Per body repetition, its operations.
    reps: Vec<Vec<Op>>,
    errors: Vec<String>,
    layers: Option<Metrics>,
    /// `(layer.name, self ns, calls)`, largest first.
    span_self_ns: Vec<(String, u64, usize)>,
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

fn run_point_workload(args: &ChildArgs, rec: &mut Recorder, report: &mut Report) {
    let input = point_input(&args.workload, args.seed, args.scale)
        .unwrap_or_else(|| panic!("unknown workload {:?}", args.workload));
    for _ in 0..args.setup_reps {
        report.setup_s.push(run_point(&input, false, rec).0);
    }
    let mut last = None;
    for _ in 0..args.body_reps {
        report.ops_attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| run_point(&input, true, rec))) {
            Ok((setup_s, Some(body))) => {
                report.setup_s.push(setup_s);
                report.wall_s.push(body.wall_s);
                report.reps.push(vec![point_op(&body)]);
                last = Some(body);
            }
            Ok((_, None)) => unreachable!("the body was requested"),
            Err(payload) => {
                report.ops_failed += 1;
                report.errors.push(panic_text(payload));
            }
        }
    }
    if let (true, Some(body)) = (args.traced, last) {
        let traced = TracedBody::Point(Box::new(body));
        match layer_metrics(&args.workload, args.seed, args.scale, traced, rec) {
            Ok(m) => report.layers = Some(m),
            Err(e) => report.errors.push(e),
        }
    }
}

fn run_campaign_workload(
    args: &ChildArgs,
    scratch: &Path,
    rec: &mut Recorder,
    report: &mut Report,
) {
    let text = campaign_text(args.seed, args.scale);
    for i in 0..args.setup_reps {
        match campaign_setup(&text, &scratch.join(format!("setup.{i}")), rec) {
            Ok((setup_s, _, _)) => report.setup_s.push(setup_s),
            Err(e) => report.errors.push(e),
        }
    }
    for i in 0..args.body_reps {
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let (setup_s, plan, store) =
                campaign_setup(&text, &scratch.join(format!("body.{i}")), rec)?;
            let body = campaign_body(&plan, &store, rec);
            Ok::<_, String>((setup_s, plan, store, body))
        }));
        let (setup_s, plan, store, body) = match ran {
            Ok(Ok(done)) => done,
            Ok(Err(e)) => {
                report.errors.push(e);
                continue;
            }
            Err(payload) => {
                report.errors.push(panic_text(payload));
                continue;
            }
        };
        // One operation per planned cell; a cell that did not land failed.
        report.ops_attempted += plan.len();
        report.ops_failed += plan.len() - body.results.len();
        report.errors.extend(body.errors.iter().cloned());
        report.setup_s.push(setup_s);
        report.wall_s.push(body.wall_s);
        report.reps.push(
            plan.cells
                .iter()
                .filter_map(|c| body.results.get(&c.hash))
                .map(cell_op)
                .collect(),
        );
        if args.traced && i + 1 == args.body_reps {
            let traced = TracedBody::Campaign(CampaignRun {
                plan: &plan,
                store: &store,
                body: &body,
                scratch,
            });
            match layer_metrics(&args.workload, args.seed, args.scale, traced, rec) {
                Ok(m) => report.layers = Some(m),
                Err(e) => report.errors.push(e),
            }
        }
    }
}

/// Run the workload and print the report. Returns the process exit code.
pub fn run(args: &ChildArgs) -> i32 {
    let mut rec = Recorder::new(args.traced);
    let mut report = Report {
        workload: args.workload.clone(),
        ..Report::default()
    };
    // Campaign stores and probe stores of this child, removed at the end.
    let scratch = args.out.join(format!("child.{}", std::process::id()));
    // Bodies catch their own panics, so that the other repetitions still
    // run; whatever panics outside one (input generation, a set-up
    // repetition, a layer probe) ends the child's work here.
    let outside = catch_unwind(AssertUnwindSafe(|| {
        if args.workload == CAMPAIGN {
            run_campaign_workload(args, &scratch, &mut rec, &mut report);
        } else {
            run_point_workload(args, &mut rec, &mut report);
        }
    }));
    if let Err(payload) = outside {
        report.errors.push(panic_text(payload));
    }
    if report.wall_s.is_empty() && report.ops_failed == 0 {
        // No body could even start: that is one failed operation, so the
        // parent never divides a failure by zero attempts.
        report.ops_attempted += 1;
        report.ops_failed += 1;
    }
    let _ = std::fs::remove_dir_all(&scratch);
    // Read last, so the high-water mark covers everything this child ran.
    report.peak_rss_kb = regnet_metrics::peak_rss_kb().unwrap_or(0);

    if args.bless {
        match report.reps.first() {
            Some(ops) => {
                if let Err(e) = golden::write(&args.workload, ops) {
                    report.errors.push(e);
                }
            }
            None => report.errors.push("no body to bless".to_string()),
        }
    }
    if args.traced {
        let path = args.out.join(format!("trace.{}.json", args.workload));
        if let Err(e) = std::fs::create_dir_all(&args.out)
            .and_then(|_| std::fs::write(&path, rec.to_json(&args.workload)))
        {
            report
                .errors
                .push(format!("cannot write {}: {e}", path.display()));
        }
        report.span_self_ns = rec.self_time_by_name();
    }
    println!(
        "{}",
        serde_json::to_string(&report).expect("the report is plain data")
    );
    0
}
