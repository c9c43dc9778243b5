//! Route anatomy: a walk through the paper's Figures 1–3.
//!
//! Shows a minimal path that up*/down* routing forbids, the detour the
//! legal routing must take, and how the in-transit buffer mechanism splits
//! the minimal path into legal segments through an intermediate host.
//!
//! Run with: `cargo run --example route_anatomy`

use regnet::core::analysis::RouteStats;
use regnet::core::{PortWalk, ITB_MARK};
use regnet::prelude::*;
use regnet::routing::minimal;
use regnet::topology::PortTarget;

fn main() {
    // An 8-switch ring: small enough to trace by hand, cyclic enough that
    // up*/down* must forbid minimal paths somewhere.
    let mut b = TopologyBuilder::new("ring8", 4);
    b.add_switches(8);
    for i in 0..8u32 {
        b.connect(SwitchId(i), SwitchId((i + 1) % 8)).unwrap();
    }
    b.attach_hosts_everywhere(2).unwrap();
    let topo = b.build().unwrap();

    let tree = SpanningTree::bfs(&topo, SwitchId(0));
    let orient = Orientation::from_tree(&topo, &tree);
    println!("ring of 8 switches, BFS tree rooted at s0");
    println!(
        "tree levels: {:?}",
        topo.switches().map(|s| tree.level(s)).collect::<Vec<_>>()
    );

    // The far side of the ring: minimal path s3 -> s4 -> s5 crosses the
    // point diametrically opposite the root, where levels peak, so it must
    // contain a down -> up transition.
    let dm = DistanceMatrix::compute(&topo);
    let path = &minimal::k_minimal_paths(&topo, &dm, SwitchId(3), SwitchId(5), 1, 0)[0];
    println!(
        "\nminimal path {path}: legal under up*/down*? {}",
        path.is_legal(&orient)
    );
    if let Some(hop) = path.first_violation(&orient) {
        let sw = path.switches()[hop];
        println!("forbidden down->up transition at hop {hop} (switch {sw})");
    }

    // What the original routing must do instead: the shortest legal path.
    let legal = LegalDistances::to_dest(&topo, &orient, SwitchId(5));
    println!(
        "shortest legal distance s3 -> s5: {} links (minimal would be {})",
        legal.from(SwitchId(3)),
        dm.get(SwitchId(3), SwitchId(5))
    );

    // The ITB mechanism keeps the minimal path by splitting it. The split
    // is port bytes; walking them from the path's first switch names the
    // switches of each segment and the host it ejects into.
    let bytes = split_minimal_path(&topo, &orient, path, ItbHostPicker::Spread);
    let mut segments = vec![(vec![path.src()], None)];
    for hop in PortWalk::new(&topo, path.src(), bytes) {
        match hop.expect("the split's bytes lead somewhere").to {
            PortTarget::Switch { to, .. } => segments.last_mut().unwrap().0.push(to),
            PortTarget::Host { host, .. } => {
                segments.last_mut().unwrap().1 = Some(host);
                segments.push((vec![topo.host_switch(host)], None));
            }
        }
    }
    println!("\nITB split into {} segment(s):", segments.len());
    for (i, (switches, end)) in segments.iter().enumerate() {
        let switches: Vec<String> = switches.iter().map(|s| s.to_string()).collect();
        match end {
            Some(h) => println!(
                "  segment {i}: {} -> eject into in-transit buffer at {h}",
                switches.join("->")
            ),
            None => {
                println!("  segment {i}: {} -> deliver", switches.join("->"))
            }
        }
    }

    // The header the ITB-SP table writes for a concrete host pair: one
    // port byte per switch, an ITB mark after each in-transit segment, and
    // the type byte every header ends with.
    let src = topo.hosts_of(SwitchId(3))[0];
    let dst = topo.hosts_of(SwitchId(5))[1];
    let db = RouteDb::build(&topo, RoutingScheme::ItbSp, &RouteDbConfig::default());
    let header = db.select(&topo, src, dst, &mut db.selector());
    let bytes: Vec<String> = header
        .bytes()
        .iter()
        .map(|&p| match p {
            ITB_MARK => "ITB".to_string(),
            p => p.0.to_string(),
        })
        .collect();
    let ejects: Vec<String> = header
        .walk(&topo, src)
        .unwrap()
        .iter()
        .map(|h| h.to_string())
        .collect();
    println!(
        "\nheader {src} -> {dst}: [{} type] = {} flits at injection \
         ({} port bytes + {} ITB mark(s) + 1 type byte), ejected at {}",
        bytes.join(" "),
        header.header_flits_entering_segment(0),
        header.bytes().len() - header.num_itbs(),
        header.num_itbs(),
        ejects.join(" then ")
    );

    // Finally: the same analysis over the whole paper-scale torus.
    let torus = gen::torus_2d(8, 8, 8).unwrap();
    for scheme in RoutingScheme::all() {
        let db = RouteDb::build(&torus, scheme, &RouteDbConfig::default());
        let stats = RouteStats::compute(&torus, &db);
        println!(
            "\n8x8 torus / {}: {:.0}% minimal routes, avg distance {:.2} links, {:.2} ITBs/route",
            scheme.label(),
            stats.minimal_fraction * 100.0,
            stats.avg_distance,
            stats.avg_itbs
        );
    }
    println!("(paper section 4.7.1: 80% minimal / 4.57 avg for UP/DOWN; 100% / 4.06 for ITB)");
}
