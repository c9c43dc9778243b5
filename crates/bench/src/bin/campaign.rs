//! Campaign orchestrator CLI: fan a declarative grid of simulation cells
//! across a worker pool with checkpoint/resume and streamed curve exports.
//!
//! ```text
//! campaign <file.json> [--out DIR] [--threads N] [--stop-after N]
//!                      [--fresh] [--quiet]
//! campaign <file.json> --dry-run              print the plan and exit
//! campaign --what-if "topo=torus,scheme=ITB-RR,pattern=uniform[,start=0.004,...]"
//! campaign --watch <out>/status.json          live terminal dashboard
//! campaign --check-status <out>/status.json   validate and exit
//! ```
//!
//! While running, the campaign republishes `<out>/status.json` after
//! every worker event (atomic tmp+rename): totals, per-worker state, ETA
//! and the last errors. Point `--watch` at it from another terminal.
//!
//! Every finished cell is checkpointed under `<out>/cells/<hash>.json`;
//! re-running the same campaign file skips everything already landed, so
//! an interrupted campaign (Ctrl-C, `--stop-after`, power loss) resumes
//! where it left off. After each landed cell the derived artifacts —
//! latency-vs-load curves per group, the saturation summary, goodput
//! time series — are re-exported, so partial results are always on disk.

use std::process::ExitCode;

use regnet_bench::{parse_campaign_args, run_with_status, CampaignArgs};
use regnet_campaign::{
    export_campaign, parse_pattern, parse_scheme, render_status, run_plan, validate_status_json,
    what_if, CampaignSpec, CellDefaults, FaultSpec, ResultStore, RunPlan, RunnerEvent,
    RunnerOptions, TopoSpec, WhatIfQuery,
};

fn usage() -> &'static str {
    "usage: campaign <file.json> [options]\n\
     \n\
     options:\n\
       --out DIR        results directory (default target/campaigns/<name>,\n\
                        target/campaigns/what-if under --what-if)\n\
       --threads N      worker threads (default REGNET_THREADS or all cores)\n\
       --stop-after N   run at most N pending cells, then exit (resumable)\n\
       --fresh          discard existing checkpoints before running\n\
       --dry-run        print the expanded cell plan and exit\n\
       --quiet          suppress per-cell progress lines\n\
       --watch PATH     render a running campaign's status.json as a live\n\
                        dashboard (exits when the campaign does)\n\
       --check-status PATH  validate a status.json and exit non-zero if\n\
                        it is missing, torn or inconsistent\n\
       --what-if SPEC   bisect for the saturation load of one scenario\n\
                        (no campaign file):\n\
                        SPEC is comma-separated key=value with keys\n\
                        topo, scheme, pattern (required) and seed, warmup,\n\
                        measure, payload, fault, start, growth, tol, probes"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let args = match parse_campaign_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("campaign: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("campaign: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: CampaignArgs) -> Result<(), String> {
    if let Some(path) = &args.check_status {
        return check_status(path);
    }
    if let Some(path) = &args.watch {
        return watch_status(path);
    }
    let quiet = args.quiet;
    if let Some(query) = &args.what_if {
        let out = args.out.as_deref().unwrap_or("target/campaigns/what-if");
        return run_what_if(query, out, quiet);
    }

    let file = args.file.expect("the argument parser demands a file");
    let text = std::fs::read_to_string(&file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let spec = CampaignSpec::from_json_str(&text).map_err(|e| format!("{file}: {e}"))?;
    let plan = spec.expand()?;

    let out = args
        .out
        .unwrap_or_else(|| format!("target/campaigns/{}", spec.name));
    let threads = args.threads.unwrap_or_else(regnet_netsim::threads::threads);

    if args.dry_run {
        println!("campaign {:?}: {} cells", plan.name, plan.len());
        for cell in &plan.cells {
            println!("{}  {}", cell.hash, cell.key);
        }
        return Ok(());
    }

    let store = ResultStore::open(&out)?;
    if args.fresh {
        store.clear()?;
        if !quiet {
            eprintln!("[campaign] cleared checkpoints under {out}");
        }
    }

    run_campaign(&plan, &store, threads, args.stop_after, quiet)
}

/// Run (or resume) `plan` against `store`, streaming curve exports after
/// every landed cell.
fn run_campaign(
    plan: &RunPlan,
    store: &ResultStore,
    threads: usize,
    stop_after: Option<usize>,
    quiet: bool,
) -> Result<(), String> {
    // Load only results that belong to this plan (the store may hold
    // cells from what-if probes or an older campaign revision), each
    // checked against its planned key.
    let mut results = std::collections::BTreeMap::new();
    for c in plan.cells.iter().filter(|c| store.contains(&c.hash)) {
        results.insert(c.hash.clone(), store.load(&c.hash, &c.key)?);
    }
    let resumed = results.len();
    if !quiet {
        eprintln!(
            "[campaign] {:?}: {} cells, {} already checkpointed, {} threads, results under {}",
            plan.name,
            plan.len(),
            resumed,
            threads,
            store.root().display()
        );
    }

    let out_dir = store.root().to_path_buf();
    let echo = (!quiet).then_some("campaign");
    let opts = RunnerOptions {
        threads,
        stop_after,
    };
    let mut export_err: Option<String> = None;
    let outcome = run_with_status(store, "campaign", echo, threads, Some(plan), |board| {
        run_plan(plan, store, &opts, |ev| {
            board.record(&ev);
            if let RunnerEvent::Done(done) = ev {
                results.insert(done.result.hash.clone(), done.result.clone());
                if export_err.is_none() {
                    if let Err(e) = export_campaign(plan, &results, &out_dir) {
                        export_err = Some(e);
                    }
                }
            }
        })
    })?;
    if let Some(e) = export_err {
        return Err(e);
    }

    // A fully resumed campaign runs zero cells but should still leave
    // fresh aggregate artifacts behind.
    if outcome.ran == 0 && !results.is_empty() {
        export_campaign(plan, &results, &out_dir)?;
    }

    if quiet {
        return Ok(());
    }
    if outcome.complete() {
        eprintln!(
            "[campaign] campaign complete ({} ran, {} resumed); curves under {}",
            outcome.ran,
            outcome.skipped,
            out_dir.join("curves").display()
        );
    } else {
        eprintln!(
            "[campaign] stopped early: {} cells still pending; re-run to resume",
            outcome.remaining
        );
    }
    Ok(())
}

/// `--check-status`: parse + validate a status file (the CI gate).
fn check_status(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let snap = validate_status_json(&text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: valid ({} {}, {}/{} done, {} failed, {} pending)",
        snap.tool, snap.state, snap.done, snap.total, snap.failed, snap.pending
    );
    Ok(())
}

/// `--watch`: poll a status file and redraw it as a dashboard until the
/// run it describes leaves the `"running"` state.
fn watch_status(path: &str) -> Result<(), String> {
    let mut waiting_printed = false;
    loop {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                // A torn read is impossible (writers rename); a parse
                // error here is a real protocol violation.
                let snap = validate_status_json(&text).map_err(|e| format!("{path}: {e}"))?;
                // Clear screen + home, then one full redraw.
                print!("\x1b[2J\x1b[H{}", render_status(&snap));
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
                if snap.state != "running" {
                    return Ok(());
                }
            }
            Err(_) if !waiting_printed => {
                eprintln!("waiting for {path} ...");
                waiting_printed = true;
            }
            Err(_) => {}
        }
        std::thread::sleep(std::time::Duration::from_millis(500));
    }
}

/// `--what-if`: bisect for the saturation load of a single scenario,
/// caching every probe through the same result store.
fn run_what_if(spec_str: &str, out: &str, quiet: bool) -> Result<(), String> {
    let query = parse_what_if(spec_str)?;
    let store = ResultStore::open(out)?;
    if !quiet {
        eprintln!(
            "[what-if] bisecting saturation of {} (probes cached under {})",
            query.cell.canonical_key(),
            store.root().display()
        );
    }
    let result = what_if(&query, &store, |load, saturated, cached| {
        if !quiet {
            eprintln!(
                "[what-if] probe load {load:.6}: {}{}",
                if saturated { "saturated" } else { "ok" },
                if cached { " (cached)" } else { "" }
            );
        }
    })?;
    let s = &result.saturation;
    match (s.hi, s.estimate()) {
        (Some(hi), Some(estimate)) => println!(
            "saturation load in [{:.6}, {hi:.6}], estimate {estimate:.6} \
             (throughput {:.5} flits/ns/switch)",
            s.lo, s.throughput
        ),
        _ => println!(
            "saturation load above {:.6} (throughput {:.5} flits/ns/switch)",
            s.lo, s.throughput
        ),
    }
    println!(
        "probes: {} simulated, {} from cache{}",
        result.ran,
        result.cached,
        if s.converged {
            ""
        } else {
            " — probe budget exhausted before convergence"
        }
    );
    Ok(())
}

/// Parse the `--what-if` scenario string (`topo=...,scheme=...,...`).
fn parse_what_if(s: &str) -> Result<WhatIfQuery, String> {
    let mut fields: Vec<(&str, &str)> = Vec::new();
    for part in s.split(',').filter(|p| !p.trim().is_empty()) {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| format!("what-if field {part:?} is not key=value"))?;
        let (k, v) = (k.trim(), v.trim());
        if fields.iter().any(|&(seen, _)| seen == k) {
            return Err(format!("what-if field {k:?} appears twice"));
        }
        fields.push((k, v));
    }
    let required = |key: &str| match fields.iter().find(|&&(k, _)| k == key) {
        Some(&(_, v)) => Ok(v),
        None => Err(format!("what-if needs {key}=...")),
    };
    let topo = TopoSpec::parse(required("topo")?)?;
    let scheme = parse_scheme(required("scheme")?)?;
    let pattern = parse_pattern(required("pattern")?)?;
    let mut query = WhatIfQuery::new(CellDefaults::default().cell(topo, scheme, pattern, 0.0));
    let (cell, search) = (&mut query.cell, &mut query.search);
    for (k, v) in fields {
        match k {
            "topo" | "scheme" | "pattern" => {}
            "seed" => cell.seed = parse_num(k, v)?,
            "warmup" => cell.warmup_cycles = parse_num(k, v)?,
            "measure" => cell.measure_cycles = parse_num(k, v)?,
            "payload" => cell.payload_flits = parse_num(k, v)?,
            "fault" => cell.faults = Some(FaultSpec::parse("what-if", v)?),
            "start" => search.start = parse_num(k, v)?,
            "growth" => search.growth = parse_num(k, v)?,
            "tol" => search.rel_tol = parse_num(k, v)?,
            "probes" => search.max_probes = parse_num(k, v)?,
            other => return Err(format!("unknown what-if field {other:?}")),
        }
    }
    Ok(query)
}

fn parse_num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String> {
    v.parse::<T>()
        .map_err(|_| format!("what-if {key}={v:?} is not a valid number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `campaigns/smoke.json`, which CI interrupts and resumes, is the
    /// campaign `campaign --smoke` used to embed, cell for cell.
    #[test]
    fn smoke_campaign_cells_are_pinned() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../campaigns/smoke.json");
        let text = std::fs::read_to_string(path).expect("campaigns/smoke.json is committed");
        let plan = CampaignSpec::from_json_str(&text)
            .unwrap()
            .expand()
            .unwrap();
        let hashes: Vec<&str> = plan.cells.iter().map(|c| c.hash.as_str()).collect();
        assert_eq!(plan.name, "smoke");
        assert_eq!(
            hashes,
            [
                "061a627c179845d3",
                "a8a50ed63492c9f7",
                "9003c27ca4941599",
                "fbcba80031abda8d",
                "ed40cd6cc03a1def",
                "fcde3924f6cd5714",
                "0c090cb2734d6763",
                "b5cecd42e7d94268",
            ]
        );
    }

    /// `payload=` reaches the same pre-run check as a campaign file's
    /// `payload_flits`: 0 and past the simulator's bound are refused by
    /// key before any probe runs.
    #[test]
    fn what_if_refuses_an_out_of_range_payload_by_key() {
        let dir =
            std::env::temp_dir().join(format!("regnet-whatif-payload-{}", std::process::id()));
        for payload in ["0", "1073741825", "4294967808"] {
            let spec = format!("topo=torus:4x4:2,scheme=ITB-RR,pattern=uniform,payload={payload}");
            let err = run_what_if(&spec, dir.to_str().unwrap(), true).unwrap_err();
            assert!(err.contains("\"payload_flits\""), "{payload}: {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A field given twice is refused by name, whichever it is, rather
    /// than one of its values silently winning.
    #[test]
    fn what_if_refuses_a_repeated_field() {
        let base = "topo=torus:2x2:1,scheme=UP/DOWN,pattern=uniform";
        for (extra, key) in [
            ("topo=torus:3x3:1", "topo"),
            ("seed=1,seed=2", "seed"),
            ("tol=0.2,tol=0.1", "tol"),
        ] {
            let err = parse_what_if(&format!("{base},{extra}")).unwrap_err();
            assert_eq!(err, format!("what-if field {key:?} appears twice"));
        }
        assert!(parse_what_if(base).is_ok());
    }

    /// `topo=` and `fault=` reach the same pre-run check as a campaign
    /// file's `"topos"` and `"faults"`: a switch past the port bound and a
    /// fault on an element the topology lacks are refused by key, naming
    /// the port count or the event, before any probe runs.
    #[test]
    fn what_if_refuses_a_cell_the_simulator_cannot_run_by_key() {
        let dir = std::env::temp_dir().join(format!("regnet-whatif-topo-{}", std::process::id()));
        let base = "scheme=ITB-RR,pattern=uniform,topo=torus:3x3";
        for (tail, needle) in [
            (
                ":61",
                r#""topos" entry "torus:3x3:61" has 65 ports per switch"#,
            ),
            (
                ":2,fault=fail_host:500@50",
                r#""faults" entry "fail_host:500@50": cannot fail host 500"#,
            ),
            (
                ":2,fault=fail_link:9999@50",
                r#""faults" entry "fail_link:9999@50": cannot fail link 9999"#,
            ),
            (
                ":2,fault=fail_switch:77@50",
                r#""faults" entry "fail_switch:77@50": cannot fail switch 77"#,
            ),
        ] {
            let err =
                run_what_if(&format!("{base}{tail}"), dir.to_str().unwrap(), true).unwrap_err();
            assert!(err.contains(needle), "{tail}: {err}");
        }
        assert_eq!(ResultStore::open(&dir).unwrap().len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
