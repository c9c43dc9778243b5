//! Parallel cycle engine: run the same saturated 8×8-torus ITB-RR point
//! under the sequential active-set scheduler and the shard-parallel
//! engine, check the results are bit-identical, and report the wall-clock
//! ratio.
//!
//! Run with: `cargo run --release --example parallel_speedup`
//!
//! The shard count is fixed by `Scheduler::Parallel { threads }` and is
//! part of the simulation configuration only in the sense that it picks
//! the partition — the results are bit-identical to the sequential
//! engines at every thread count. The live OS thread count is one per
//! shard, capped by the host's cores, so the speedup you see depends on
//! the machine; the determinism never does.

use std::time::Instant;

use regnet::prelude::*;

fn run(scheduler: Scheduler) -> (RunStats, f64) {
    let exp = Experiment::new(
        gen::torus_2d(8, 8, 8).expect("topology"),
        RoutingScheme::ItbRr,
        RouteDbConfig::default(),
        PatternSpec::Uniform,
        SimConfig::default(),
    )
    .expect("experiment");
    let opts = RunOptions {
        warmup_cycles: 30_000,
        measure_cycles: 120_000,
        seed: 7,
        scheduler,
        ..RunOptions::default()
    };
    // A load past the ITB-RR saturation point, so every shard has work
    // every cycle — the regime the parallel engine is built for.
    let start = Instant::now();
    let stats = exp.run_stats(0.12, &opts);
    (stats, start.elapsed().as_secs_f64())
}

fn main() {
    let threads = 4;
    println!("8x8 torus / ITB-RR / saturated (0.12 flits/ns/switch)\n");

    let (seq, t_seq) = run(Scheduler::ActiveSet);
    println!("active-set: {t_seq:8.2} s  ({} delivered)", seq.delivered);

    let (par, t_par) = run(Scheduler::Parallel { threads });
    println!(
        "parallel-{threads}: {t_par:8.2} s  ({} delivered)",
        par.delivered
    );

    assert_eq!(
        seq, par,
        "the parallel engine must be bit-identical to the active set"
    );
    println!("\nRunStats identical across engines — determinism holds.");

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "wall-clock ratio: {:.2}x on {cores} available core(s)",
        t_seq / t_par
    );
    if cores == 1 {
        println!("(single-core host: the ratio measures engine overhead, not speedup)");
    }
}
