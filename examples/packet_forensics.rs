//! Packet forensics: replay one packet's journey from the event journal.
//!
//! Drives the paper torus well past saturation, freezes it mid-flight,
//! asks the journal which packets are currently blocked, and prints the
//! most recently blocked packet's full life as a human-readable timeline —
//! injection, per-switch routing, the block itself and (for ITB schemes)
//! any in-transit-buffer hops. This is the terminal-only sibling of the
//! Chrome trace export: `probe --events trace.json` produces the same
//! story for every packet at once, Perfetto-rendered.
//!
//! Run with: `cargo run --release --example packet_forensics`

use regnet::core::{RouteDb, RouteDbConfig};
use regnet::prelude::*;
use regnet::traffic::Pattern;

fn main() {
    let topo = gen::torus_2d(8, 8, 8).expect("topology");
    let db = RouteDb::build(&topo, RoutingScheme::ItbSp, &RouteDbConfig::default());
    let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).expect("pattern");
    // Offered load far beyond saturation: plenty of worms end the run
    // parked behind busy outputs, which is exactly what we want to dissect.
    let mut sim = Simulator::new(&topo, &db, &pattern, SimConfig::default(), 0.1, 11);
    sim.enable_counters();
    sim.enable_events(EventOptions { capacity: 1 << 18 });
    sim.run(30_000);

    let journal = sim.journal().expect("journal enabled");
    println!(
        "journal: {} events retained ({} recorded, {} evicted)\n",
        journal.len(),
        journal.recorded(),
        journal.evicted()
    );

    let blocked = journal.blocked_packets();
    println!("{} packets are blocked right now", blocked.len());
    let Some(&pid) = blocked.first() else {
        println!("nothing to dissect — raise the load or run longer");
        return;
    };

    println!("\n--- forensics for packet {pid} (most recently blocked) ---");
    for event in journal.journey(pid) {
        println!("  {}", event.describe());
    }

    println!("\nhow the whole run looked:");
    let snapshot = sim.counter_snapshot().expect("counters enabled");
    for line in snapshot.to_table().lines() {
        println!("  {line}");
    }
    println!(
        "\nread the timeline bottom-up: the last line says which output the\n\
         worm is parked behind; every earlier line is a hop it already won.\n\
         For the full picture load `probe --events trace.json` into Perfetto."
    );
}
