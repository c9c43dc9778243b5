//! Engine bench pipeline with perf-regression guard.
//!
//! Runs a fixed matrix — the paper's three topologies × three routing
//! schemes, each with observers off (`plain`) and on (`traced`: counters +
//! event journal + per-phase profiler) — plus a scheduler-comparison
//! column (scan vs active-set vs — at the near-idle load, where time
//! skipping pays — the event-driven driver, ITB-RR, at a near-idle and a
//! saturated load) and two thread-scaling columns (the shard-parallel
//! engine at 1/2/4 threads, saturated torus ITB-RR — once fault-free and
//! once with a live link fail/repair plan armed, since the parallel
//! engine runs fault plans natively) and writes a [`BenchReport`]
//! as JSON. The event-driven low-load cells are gated: the run fails if
//! the event driver does not at least match the active set's cycles/sec
//! there (the expected ratio is far above 1x — at load 0.0005 the mean
//! inter-message gap is on the order of thousands of idle cycles, all
//! jumped in O(1)).
//! `BENCH_netsim.json` at the repository root is the committed baseline;
//! CI reruns the matrix and `--check`s against it.
//!
//! ```text
//! bench_report [--smoke | --full] [--out <path>] [--check <baseline>]
//!              [--threshold <frac>]
//! ```
//!
//! * `--smoke` (default): scaled-down topologies, short windows — about a
//!   minute.
//! * `--full`: the paper-size topologies — minutes.
//! * `--out <path>`: where to write the report (default `BENCH_netsim.json`).
//! * `--check <baseline>`: after measuring, compare against a previous
//!   report; exit 1 if any matrix cell got more than `--threshold`
//!   (default 0.15) slower after machine-speed calibration.
//!
//! Noise strategy: timing on a shared runner is noisy and the noise is
//! one-sided (contention only slows things down), so every cell is timed
//! over several measurement windows spread across interleaved *rounds* of
//! the whole matrix — a sustained contention stretch then degrades one
//! round of every cell instead of every window of one cell — and the
//! fastest window wins. Machine speed is calibrated with a pure CPU
//! kernel that shares no code with the simulator: a genuine engine
//! regression moves every cell but not the calibration scalar, while a
//! slower machine moves both and cancels out of the normalized ratio.

use std::process::ExitCode;
use std::time::Instant;

use regnet_bench::report::{
    check_against, peak_rss_kb, BenchCell, BenchReport, BENCH_SCHEMA, DEFAULT_THRESHOLD,
};
use regnet_bench::{parse_flag_value, Topo};
use regnet_campaign::{Progress, StatusBoard};
use regnet_core::{RouteDb, RouteDbConfig, RoutingScheme};
use regnet_netsim::{EventOptions, FaultOptions, FaultPlan, Scheduler, SimConfig, Simulator};
use regnet_topology::Topology;
use regnet_traffic::{Pattern, PatternSpec};

const SCHEMES: [RoutingScheme; 3] = [
    RoutingScheme::UpDown,
    RoutingScheme::ItbSp,
    RoutingScheme::ItbRr,
];
const TOPOS: [(Topo, &str); 3] = [
    (Topo::Torus, "torus"),
    (Topo::Express, "express"),
    (Topo::Cplant, "cplant"),
];
const LOAD: f64 = 0.01;
/// The scheduler-comparison loads: near-idle (where active-set scheduling
/// pays off — few components have work per cycle) and saturation (where
/// everything is busy and the active set must not cost anything).
const LOW_LOAD: f64 = 0.0005;
const SAT_LOAD: f64 = 0.05;
const SEED: u64 = 1;

struct MatrixParams {
    mode: &'static str,
    warmup: u64,
    measure: u64,
    /// Interleaved rounds over the whole matrix; per cell the fastest
    /// round's window is reported.
    rounds: u32,
}

/// Everything rebuilt once per (topology, scheme): route-db construction
/// dominates setup cost, so it stays out of the round loop.
struct CellSetup {
    topo_key: &'static str,
    scheme: RoutingScheme,
    topo: Topology,
    db: RouteDb,
    pattern: Pattern,
}

/// One timed measurement window on a fresh simulator. With `faulted`, a
/// switch link fails a quarter into the window and is repaired at three
/// quarters, so the cell times the fault machinery (per-cycle fault
/// phase, deferred-loss replay, retransmissions) in steady operation.
/// Returns `(wall_ns, counter_events, phases)`.
fn time_window(
    s: &CellSetup,
    traced: bool,
    p: &MatrixParams,
    scheduler: Scheduler,
    load: f64,
    faulted: bool,
) -> (u64, u64, Vec<regnet_netsim::PhaseProfile>) {
    let mut sim = Simulator::new(&s.topo, &s.db, &s.pattern, SimConfig::default(), load, SEED);
    sim.set_scheduler(scheduler);
    if traced {
        sim.enable_counters();
        sim.enable_events(EventOptions::default());
        sim.enable_profiler();
    }
    if faulted {
        let link = s
            .topo
            .links()
            .iter()
            .find(|l| l.is_switch_link())
            .expect("switch link")
            .id;
        let mut plan = FaultPlan::single_link(link, p.warmup + p.measure / 4);
        plan.repair_link(p.warmup + (3 * p.measure) / 4, link);
        sim.enable_faults(FaultOptions::with_plan(plan));
    }
    sim.run(p.warmup);
    sim.begin_measurement();
    let t0 = Instant::now();
    sim.run(p.measure);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let stats = sim.end_measurement(p.measure);
    let events = stats
        .counters
        .as_ref()
        .map(|c| c.total_events())
        .unwrap_or(0);
    let phases = sim.profile_report().map(|r| r.phases).unwrap_or_default();
    (wall_ns, events, phases)
}

/// Pure-CPU calibration kernel: a xorshift-fed pointer-chase over a small
/// working set, deliberately independent of the simulator so that engine
/// regressions do NOT move this scalar. Returns steps/second.
fn calibration_window() -> f64 {
    const STEPS: u64 = 4_000_000;
    let mut table = [0u64; 4096];
    let mut x: u64 = 0x9e3779b97f4a7c15;
    for slot in table.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *slot = x;
    }
    let t0 = Instant::now();
    let mut acc: u64 = 0;
    let mut idx: usize = 0;
    for _ in 0..STEPS {
        let v = table[idx];
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(v);
        idx = (v ^ acc) as usize & (table.len() - 1);
    }
    let dt = t0.elapsed().as_secs_f64();
    std::hint::black_box(acc);
    STEPS as f64 / dt
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let p = if full {
        MatrixParams {
            mode: "full",
            warmup: 60_000,
            measure: 150_000,
            rounds: 1,
        }
    } else {
        MatrixParams {
            mode: "smoke",
            warmup: 5_000,
            measure: 20_000,
            rounds: 3,
        }
    };
    let out_path = parse_flag_value(&args, "--out").unwrap_or_else(|| "BENCH_netsim.json".into());
    let baseline_path = parse_flag_value(&args, "--check");
    let threshold: f64 = parse_flag_value(&args, "--threshold")
        .map(|s| s.parse().expect("--threshold must be a number"))
        .unwrap_or(DEFAULT_THRESHOLD);

    Progress::announce("bench", "building topologies and route databases");
    let mut setups = Vec::new();
    for (topo_kind, topo_key) in TOPOS {
        let topo = if full {
            topo_kind.build()
        } else {
            topo_kind.build_small()
        };
        for scheme in SCHEMES {
            let db = RouteDb::build(&topo, scheme, &RouteDbConfig::default());
            let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).expect("pattern");
            setups.push(CellSetup {
                topo_key,
                scheme,
                topo: topo.clone(),
                db,
                pattern,
            });
        }
    }

    // Scheduler-comparison jobs: ITB-RR (the paper's headline scheme) on
    // every topology, scan vs active-set at the lowest-load point and at
    // saturation, plus the event-driven driver at the lowest-load point
    // (its design regime; at saturation it degenerates to the active set
    // with one never-taken branch). (setup index, load, scheduler,
    // fault-armed), scan first per group.
    let mut cmp_jobs: Vec<(usize, f64, Scheduler, bool)> = setups
        .iter()
        .enumerate()
        .filter(|(_, s)| s.scheme == RoutingScheme::ItbRr)
        .flat_map(|(i, _)| {
            [LOW_LOAD, SAT_LOAD].into_iter().flat_map(move |load| {
                let scheds: &[Scheduler] = if load == LOW_LOAD {
                    &[
                        Scheduler::Scan,
                        Scheduler::ActiveSet,
                        Scheduler::EventDriven,
                    ]
                } else {
                    &[Scheduler::Scan, Scheduler::ActiveSet]
                };
                scheds.iter().map(move |&sched| (i, load, sched, false))
            })
        })
        .collect();
    // Thread-scaling jobs: the shard-parallel engine on the saturated
    // torus (every shard busy every cycle — its design regime).
    let torus_itb_rr = setups
        .iter()
        .position(|s| s.topo_key == "torus" && s.scheme == RoutingScheme::ItbRr)
        .expect("torus/itb-rr is in the matrix");
    // Scheduler-comparison groups come first, then the fault-free
    // thread-scaling column, then the fault-armed one (the boundaries
    // feed the summary printing below; fault-free cells must precede
    // their faulted twins so pre-v5 baselines match the right rows).
    let n_schedcmp = cmp_jobs.len();
    for threads in [1usize, 2, 4] {
        cmp_jobs.push((
            torus_itb_rr,
            SAT_LOAD,
            Scheduler::Parallel { threads },
            false,
        ));
    }
    let n_threadscale = 3usize;
    // Fault-armed thread-scaling: the same saturated torus with a live
    // link fail/repair plan — the parallel engine runs fault plans
    // natively (no active-set downgrade), so its speedup must survive
    // with the fault phase and deferred-loss replay in the loop.
    cmp_jobs.push((torus_itb_rr, SAT_LOAD, Scheduler::ActiveSet, true));
    for threads in [1usize, 2, 4] {
        cmp_jobs.push((
            torus_itb_rr,
            SAT_LOAD,
            Scheduler::Parallel { threads },
            true,
        ));
    }
    let cmp_jobs = cmp_jobs;

    // best[cell_index] = (wall_ns, events, phases); calibration keeps its
    // own best across rounds.
    let n_matrix = setups.len() * 2;
    let n_cells = n_matrix + cmp_jobs.len();
    let mut best: Vec<Option<(u64, u64, Vec<regnet_netsim::PhaseProfile>)>> = vec![None; n_cells];
    let mut calibration = f64::NEG_INFINITY;
    let rounds = p.rounds.max(1) as usize;
    let mut rounds_progress = Progress::start("bench", rounds);
    // Live status beside the report: one item per timing round.
    let status_path = std::path::Path::new(&out_path).with_extension("status.json");
    let mut board = StatusBoard::new(&status_path, "bench_report", rounds, 1);
    for round in 0..rounds {
        let item = format!("round {}/{rounds}", round + 1);
        board.started(0, &item);
        calibration = calibration.max(calibration_window());
        for (i, setup) in setups.iter().enumerate() {
            for (j, traced) in [false, true].into_iter().enumerate() {
                let (wall_ns, events, phases) =
                    time_window(setup, traced, &p, Scheduler::default(), LOAD, false);
                let slot = &mut best[i * 2 + j];
                if slot.as_ref().is_none_or(|(w, _, _)| wall_ns < *w) {
                    *slot = Some((wall_ns, events, phases));
                }
            }
        }
        for (k, &(i, load, sched, faulted)) in cmp_jobs.iter().enumerate() {
            let (wall_ns, events, phases) =
                time_window(&setups[i], false, &p, sched, load, faulted);
            let slot = &mut best[n_matrix + k];
            if slot.as_ref().is_none_or(|(w, _, _)| wall_ns < *w) {
                *slot = Some((wall_ns, events, phases));
            }
        }
        board.done(0, &item);
        rounds_progress.step("round complete");
    }
    rounds_progress.finish("");
    board.finish("done");

    let mut cells = Vec::with_capacity(n_cells);
    for (i, s) in setups.iter().enumerate() {
        for (j, traced) in [false, true].into_iter().enumerate() {
            let (wall_ns, events, phases) = best[i * 2 + j].take().expect("every cell ran");
            let wall_s = wall_ns as f64 / 1e9;
            cells.push(BenchCell {
                topo: s.topo_key.to_string(),
                scheme: s.scheme.label().to_string(),
                traced,
                scheduler: Scheduler::default().label().to_string(),
                load: LOAD,
                threads: None,
                faulted: false,
                cycles: p.measure,
                wall_ns,
                cycles_per_sec: p.measure as f64 / wall_s,
                events_per_sec: events as f64 / wall_s,
                phases,
            });
        }
    }
    for (k, &(i, load, sched, faulted)) in cmp_jobs.iter().enumerate() {
        let (wall_ns, events, phases) = best[n_matrix + k].take().expect("every cell ran");
        let wall_s = wall_ns as f64 / 1e9;
        cells.push(BenchCell {
            topo: setups[i].topo_key.to_string(),
            scheme: setups[i].scheme.label().to_string(),
            traced: false,
            scheduler: sched.label().to_string(),
            load,
            threads: sched.parallel_threads(),
            faulted,
            cycles: p.measure,
            wall_ns,
            cycles_per_sec: p.measure as f64 / wall_s,
            events_per_sec: events as f64 / wall_s,
            phases,
        });
    }
    let report = BenchReport {
        schema: BENCH_SCHEMA.to_string(),
        mode: p.mode.to_string(),
        calibration_cycles_per_sec: calibration,
        peak_rss_kb: peak_rss_kb().unwrap_or(0),
        cells,
    };
    print!("{}", report.to_table());

    // Observer overhead summary: traced vs plain, per matrix cell.
    for pair in report.cells[..n_matrix].chunks(2) {
        if let [plain, traced] = pair {
            println!(
                "  overhead {:<22} {:>6.1}%  ({} journal+counter events/s)",
                format!("{}/{}", plain.topo, plain.scheme),
                (plain.cycles_per_sec / traced.cycles_per_sec - 1.0) * 100.0,
                traced.events_per_sec as u64
            );
        }
    }

    // Scheduler summary: each contender's speedup over the scan reference
    // at its comparison points (cmp_jobs emits scan first per group).
    let sched_cells = &report.cells[n_matrix..n_matrix + n_schedcmp];
    println!("  scheduler vs scan (itb-rr):");
    for scan in sched_cells.iter().filter(|c| c.scheduler == "scan") {
        for other in sched_cells
            .iter()
            .filter(|c| c.topo == scan.topo && c.load == scan.load && c.scheduler != "scan")
        {
            println!(
                "    {:<8} load {:<7} {:<10} {:>+8.1}%  ({:.0} -> {:.0} cycles/s)",
                scan.topo,
                scan.load,
                other.scheduler,
                (other.cycles_per_sec / scan.cycles_per_sec - 1.0) * 100.0,
                scan.cycles_per_sec,
                other.cycles_per_sec
            );
        }
    }

    // The event-driven driver exists to win at low load: it must at
    // least match the active set's cycles/sec there (the expected ratio
    // is far above 1x; see DESIGN.md §4g and EXPERIMENTS.md).
    let mut event_ok = true;
    println!("  event-driven vs active-set (itb-rr, low load):");
    for ev in sched_cells
        .iter()
        .filter(|c| c.scheduler == "event" && c.load == LOW_LOAD)
    {
        let active = sched_cells
            .iter()
            .find(|c| c.topo == ev.topo && c.load == ev.load && c.scheduler == "active-set")
            .expect("active-set low-load counterpart");
        let ratio = ev.cycles_per_sec / active.cycles_per_sec;
        println!(
            "    {:<8} {:>6.2}x  ({:.0} -> {:.0} cycles/s)",
            ev.topo, ratio, active.cycles_per_sec, ev.cycles_per_sec
        );
        if ratio < 1.0 {
            eprintln!(
                "FAIL: event-driven low-load throughput {ratio:.2}x < 1.0x of active-set ({})",
                ev.topo
            );
            event_ok = false;
        }
    }
    if !event_ok {
        return ExitCode::FAILURE;
    }

    // Thread-scaling summary: the parallel engine against the saturated
    // torus active-set baseline measured just above.
    let sat_active = report.cells[n_matrix..n_matrix + n_schedcmp]
        .iter()
        .find(|c| c.topo == "torus" && c.scheduler == "active-set" && c.load == SAT_LOAD)
        .expect("saturated torus active-set cell")
        .cycles_per_sec;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("  parallel engine vs active-set (torus itb-rr, saturated, {cores} core(s)):");
    // The ratios are printed, not gated: the committed baselines measure
    // the two barriers per cycle as overhead (EXPERIMENTS.md), so a
    // speedup floor would fail for a reason no change caused. Regressions
    // of these cells are caught by `--check` like any other.
    let threadscale = n_matrix + n_schedcmp;
    for c in &report.cells[threadscale..threadscale + n_threadscale] {
        println!(
            "    threads {:<2} {:>6.2}x  ({:.0} cycles/s)",
            c.threads.unwrap_or(0),
            c.cycles_per_sec / sat_active,
            c.cycles_per_sec
        );
    }

    // Fault-armed thread-scaling: the faulted active-set cell leads its
    // column, then the faulted parallel cells (the parallel engine runs
    // fault plans natively).
    let faulted_col = &report.cells[threadscale + n_threadscale..];
    let sat_active_faulted = faulted_col
        .iter()
        .find(|c| c.scheduler == "active-set" && c.faulted)
        .expect("faulted saturated torus active-set cell")
        .cycles_per_sec;
    println!("  parallel engine vs active-set (torus itb-rr, saturated, fault-armed):");
    for c in faulted_col.iter().filter(|c| c.scheduler == "parallel") {
        println!(
            "    threads {:<2} {:>6.2}x  ({:.0} cycles/s)",
            c.threads.unwrap_or(0),
            c.cycles_per_sec / sat_active_faulted,
            c.cycles_per_sec
        );
    }

    match std::fs::write(&out_path, report.to_json()) {
        Ok(()) => println!("[saved {out_path}]"),
        Err(e) => {
            eprintln!("could not save {out_path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    if let Some(base_path) = baseline_path {
        let base = match std::fs::read_to_string(&base_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("could not read baseline {base_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match check_against(&report, &base, threshold) {
            Ok(lines) => {
                let mut failed = false;
                for l in &lines {
                    println!(
                        "  check {:<30} {:>6.1}% of baseline{}",
                        l.key,
                        l.ratio * 100.0,
                        if l.regressed {
                            "  ** REGRESSION **"
                        } else {
                            ""
                        }
                    );
                    failed |= l.regressed;
                }
                if lines.is_empty() {
                    eprintln!("warning: no comparable cells in baseline {base_path}");
                }
                if failed {
                    eprintln!(
                        "FAIL: at least one cell regressed more than {:.0}% \
                         (calibrated against machine speed)",
                        threshold * 100.0
                    );
                    return ExitCode::FAILURE;
                }
                println!(
                    "check passed: no cell slower than {:.0}% of baseline",
                    (1.0 - threshold) * 100.0
                );
            }
            Err(e) => {
                eprintln!("could not check against {base_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
