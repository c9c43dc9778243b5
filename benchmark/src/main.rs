//! The repo's benchmark: host time of the simulator on five fixed-work
//! workloads. See `README.md` beside this package for what is measured
//! and why; `BENCHMARK.json` at the repo root lists every name printed.
//!
//! Modes are listed by `run.sh --help` ([`USAGE`]).
//!
//! Run from the repo root (`run.sh` changes there): paths are relative.

mod child;
mod golden;
mod layers;
mod report;
mod runner;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use runner::{run_interleaved, run_workload, Plan, WorkloadResult};
use workloads::{DEFAULT_SEED, WORKLOADS};

const OUT: &str = "benchmark/out";

const USAGE: &str = "\
run.sh                                  all workloads, results.json
run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
                                        one workload; last line is the
                                        pipeline's JSON object
run.sh --trace                          all workloads, plus the traced
                                        child and per-layer metrics
run.sh --smoke                          1/20 size self-test of the names
run.sh --agree                          two interleaved sets of this tree
run.sh --compare A.json B.json          two saved results files
run.sh --bless                          rewrite benchmark/golden/";

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    /// The value after `name`, if `name` is present and followed by one.
    fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} {v:?} is not a valid number")),
        }
    }

    /// `--trace`, `--trace 1` and `--trace 0` (the pipeline's spelling).
    fn traced(&self) -> bool {
        self.flag("--trace") && self.value("--trace") != Some("0")
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    if args.flag("--help") {
        println!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(workload) = args.value("--child") {
        let child = child::ChildArgs {
            workload: workload.to_string(),
            seed: args.number("--seed", DEFAULT_SEED)?,
            scale: args.number("--scale", 1)?,
            setup_reps: args.number("--setup-reps", 0)?,
            body_reps: args.number("--body-reps", 1)?,
            traced: args.traced(),
            bless: args.value("--bless-child") == Some("1"),
            out: PathBuf::from(args.value("--out").unwrap_or(OUT)),
        };
        return Ok(ExitCode::from(child::run(&child) as u8));
    }
    if args.flag("--compare") {
        let i = args.0.iter().position(|a| a == "--compare").unwrap_or(0);
        let (Some(a), Some(b)) = (args.0.get(i + 1), args.0.get(i + 2)) else {
            return Err("--compare needs two results files".into());
        };
        let outside = report::compare(a, b, false)?;
        return Ok(verdict(outside));
    }
    let out = Path::new(OUT);
    let seed = args.number("--seed", DEFAULT_SEED)?;
    if args.flag("--smoke") {
        return smoke(seed, out);
    }
    if args.flag("--bless") {
        return bless(out);
    }
    if args.flag("--agree") {
        return agree(seed, out);
    }
    // Work is fixed, so the time budget the pipeline passes selects
    // nothing; it is checked for form only.
    let _seconds: f64 = args.number("--seconds", 0.0)?;
    let plan = Plan::full(seed, args.traced(), out);
    if let Some(workload) = args.value("--workload") {
        if !WORKLOADS.contains(&workload) {
            return Err(format!(
                "unknown workload {workload:?}; one of {WORKLOADS:?}"
            ));
        }
        let result = run_workload(workload, &plan)?;
        report::print_workload(&result);
        println!("{}", report::pipeline_line(&result, plan.traced));
        return Ok(ExitCode::SUCCESS);
    }
    let results = run_all(&plan)?;
    let path = out.join("results.json");
    let text = report::results_json(&plan, &results);
    report::write_file(&path, &text)?;
    println!("results written to {}", path.display());
    Ok(verdict(failed_ops(&results)))
}

/// One run of all five workloads, printed as it goes.
fn run_all(plan: &Plan) -> Result<Vec<WorkloadResult>, String> {
    let mut results = Vec::new();
    for workload in WORKLOADS {
        let result = run_workload(workload, plan)?;
        report::print_workload(&result);
        results.push(result);
    }
    Ok(results)
}

fn failed_ops(results: &[WorkloadResult]) -> usize {
    results
        .iter()
        .map(|r| r.ops_failed as usize + r.errors.len())
        .sum()
}

fn verdict(problems: usize) -> ExitCode {
    if problems == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: {problems} failed operation(s) or pair(s) outside their bound");
        ExitCode::FAILURE
    }
}

fn smoke(seed: u64, out: &Path) -> Result<ExitCode, String> {
    let plan = Plan {
        seed,
        scale: 20,
        point_children: 1,
        campaign_children: 1,
        point_reps: 1,
        // Each body comes after a set-up of its own; that one will do.
        point_setup_reps: 0,
        campaign_setup_reps: 0,
        traced: true,
        out: out.to_path_buf(),
    };
    let results = run_all(&plan)?;
    report::check_against_benchmark_json(&results)?;
    println!("smoke: names and units match BENCHMARK.json");
    Ok(verdict(failed_ops(&results)))
}

fn bless(out: &Path) -> Result<ExitCode, String> {
    let plan = Plan::full(DEFAULT_SEED, false, out);
    for workload in WORKLOADS {
        runner::bless(workload, &plan)?;
        println!("wrote {}", golden::path(workload).display());
    }
    Ok(ExitCode::SUCCESS)
}

/// Two sets of the same tree, interleaved child by child, compared
/// against the bounds of `BENCHMARK.json`.
fn agree(seed: u64, out: &Path) -> Result<ExitCode, String> {
    let plan = Plan::full(seed, false, out);
    let mut sets = [Vec::new(), Vec::new()];
    for workload in WORKLOADS {
        let pair = run_interleaved(workload, &plan, 2)?;
        for (set, result) in sets.iter_mut().zip(pair) {
            report::print_workload(&result);
            set.push(result);
        }
    }
    let mut paths = Vec::new();
    for (i, set) in sets.iter().enumerate() {
        let path = out.join(format!("results.agree{}.json", i + 1));
        report::write_file(&path, &report::results_json(&plan, set))?;
        paths.push(path.display().to_string());
    }
    let outside = report::compare(&paths[0], &paths[1], true)?;
    let failed: usize = sets.iter().map(|set| failed_ops(set)).sum();
    Ok(verdict(outside + failed))
}
