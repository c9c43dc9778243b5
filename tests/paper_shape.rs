//! Integration tests asserting the *shape* of the paper's headline results
//! at reduced scale (shorter messages and windows so the suite stays
//! fast). The full-scale numbers live in EXPERIMENTS.md and are produced
//! by the `regnet-bench` binaries.

use std::sync::OnceLock;

use regnet::prelude::*;
use regnet_campaign::{what_if_all, CellSpec, ResultStore, TopoSpec, WhatIfQuery};

fn cfg64() -> SimConfig {
    SimConfig {
        payload_flits: 64,
        ..SimConfig::default()
    }
}

fn opts(seed: u64) -> RunOptions {
    RunOptions {
        warmup_cycles: 15_000,
        measure_cycles: 50_000,
        seed,
        ..RunOptions::default()
    }
}

const TORUS: TopoSpec = TopoSpec::TorusCustom {
    rows: 8,
    cols: 8,
    hosts: 2,
};
const EXPRESS: TopoSpec = TopoSpec::ExpressCustom {
    rows: 8,
    cols: 8,
    hosts: 2,
};
const HOTSPOT: PatternSpec = PatternSpec::Hotspot {
    fraction: 0.10,
    host: HostId(77),
};

/// Every saturation search the tests below compare. Several tests share
/// one, so they all run once, together, on the campaign pool.
const SEARCHES: [(TopoSpec, RoutingScheme, PatternSpec); 8] = [
    (TORUS, RoutingScheme::UpDown, PatternSpec::Uniform),
    (TORUS, RoutingScheme::ItbRr, PatternSpec::Uniform),
    (EXPRESS, RoutingScheme::UpDown, PatternSpec::Uniform),
    (EXPRESS, RoutingScheme::ItbRr, PatternSpec::Uniform),
    (
        TORUS,
        RoutingScheme::UpDown,
        PatternSpec::Local { max_switch_dist: 3 },
    ),
    (
        TORUS,
        RoutingScheme::ItbRr,
        PatternSpec::Local { max_switch_dist: 3 },
    ),
    (TORUS, RoutingScheme::UpDown, HOTSPOT),
    (TORUS, RoutingScheme::ItbRr, HOTSPOT),
];

/// The saturation throughput (highest accepted traffic) of one of
/// [`SEARCHES`], with 64-flit messages and [`opts`]`(17)`'s windows. The
/// searches stop at a 10 % bracket: every bound below holds with a wider
/// margin than that, and each halving of the tolerance costs one more
/// probe next to the knee, the most expensive kind.
fn throughput(topo: TopoSpec, scheme: RoutingScheme, pattern: PatternSpec) -> f64 {
    static FOUND: OnceLock<Vec<f64>> = OnceLock::new();
    let found = FOUND.get_or_init(|| {
        let (o, cfg) = (opts(17), cfg64());
        let queries: Vec<WhatIfQuery> = SEARCHES
            .iter()
            .map(|&(topo, scheme, pattern)| {
                let mut query = WhatIfQuery::new(CellSpec {
                    topo,
                    scheme,
                    pattern,
                    load: 0.0,
                    seed: o.seed,
                    warmup_cycles: o.warmup_cycles,
                    measure_cycles: o.measure_cycles,
                    payload_flits: cfg.payload_flits,
                    goodput_interval: None,
                    reconfig_latency_cycles: None,
                    faults: None,
                });
                query.search.rel_tol = 0.1;
                query
            })
            .collect();
        let dir = std::env::temp_dir().join(format!("regnet-paper-shape-{}", std::process::id()));
        let store = ResultStore::open(&dir).unwrap();
        store.clear().unwrap();
        let threads = regnet::netsim::threads::threads();
        let found = what_if_all(&queries, &store, threads, |_| {}).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        found.iter().map(|r| r.saturation.throughput).collect()
    });
    let i = SEARCHES
        .iter()
        .position(|s| *s == (topo, scheme, pattern))
        .expect("a listed search");
    found[i]
}

/// Figure 7a's shape: on a 2-D torus under uniform traffic, the ITB
/// schemes clearly outperform UP/DOWN (the paper reports a factor ~2 at
/// full scale).
#[test]
fn torus_uniform_itb_beats_updown() {
    let t_ud = throughput(TORUS, RoutingScheme::UpDown, PatternSpec::Uniform);
    let t_rr = throughput(TORUS, RoutingScheme::ItbRr, PatternSpec::Uniform);
    assert!(
        t_rr > t_ud * 1.5,
        "ITB-RR {t_rr:.4} should beat UP/DOWN {t_ud:.4} by >1.5x"
    );
}

/// Figure 7b's shape: express channels lift UP/DOWN more than ITB (more
/// alternative paths to the root), so the ITB gain narrows — but ITB
/// still wins.
#[test]
fn express_narrows_but_keeps_itb_gain() {
    let plain_ud = throughput(TORUS, RoutingScheme::UpDown, PatternSpec::Uniform);
    let exp_ud = throughput(EXPRESS, RoutingScheme::UpDown, PatternSpec::Uniform);
    let exp_rr = throughput(EXPRESS, RoutingScheme::ItbRr, PatternSpec::Uniform);
    // Express channels help UP/DOWN a lot (paper: x4.6 at full scale).
    assert!(
        exp_ud > plain_ud * 2.0,
        "express UP/DOWN {exp_ud:.4} should be >2x plain {plain_ud:.4}"
    );
    // ITB still ahead, but by less than on the plain torus.
    assert!(
        exp_rr > exp_ud,
        "ITB-RR {exp_rr:.4} should still beat UP/DOWN {exp_ud:.4} with express channels"
    );
}

/// Figure 12's shape: under local traffic the ITB advantage (mostly)
/// evaporates, and ITB never hurts.
#[test]
fn local_traffic_gains_are_small() {
    let pattern = PatternSpec::Local { max_switch_dist: 3 };
    let t_ud = throughput(TORUS, RoutingScheme::UpDown, pattern);
    let t_rr = throughput(TORUS, RoutingScheme::ItbRr, pattern);
    assert!(
        t_rr > t_ud * 0.9,
        "ITB-RR {t_rr:.4} must not lose to UP/DOWN {t_ud:.4} under local traffic"
    );
    // And local traffic saturates far above uniform traffic for UP/DOWN.
    let t_ud_uniform = throughput(TORUS, RoutingScheme::UpDown, PatternSpec::Uniform);
    assert!(
        t_ud > t_ud_uniform * 2.0,
        "local UP/DOWN {t_ud:.4} should be far above uniform {t_ud_uniform:.4}"
    );
}

/// Table 1's shape: a 10% hotspot drags everyone down and compresses the
/// ITB advantage relative to uniform traffic.
#[test]
fn hotspot_compresses_itb_gain() {
    let hs_ud = throughput(TORUS, RoutingScheme::UpDown, HOTSPOT);
    let hs_rr = throughput(TORUS, RoutingScheme::ItbRr, HOTSPOT);
    let un_ud = throughput(TORUS, RoutingScheme::UpDown, PatternSpec::Uniform);
    let un_rr = throughput(TORUS, RoutingScheme::ItbRr, PatternSpec::Uniform);
    // ITB still >= UP/DOWN under the hotspot...
    assert!(
        hs_rr >= hs_ud * 0.95,
        "hotspot: RR {hs_rr:.4} vs UD {hs_ud:.4}"
    );
    // ...but the gain factor shrinks versus uniform traffic.
    let gain_uniform = un_rr / un_ud;
    let gain_hotspot = hs_rr / hs_ud.max(1e-9);
    assert!(
        gain_hotspot < gain_uniform,
        "hotspot gain {gain_hotspot:.2} should be below uniform gain {gain_uniform:.2}"
    );
}

/// Section 4.7.1: latency ordering near zero load — ITB journeys pay a
/// small latency premium for their in-transit hops.
#[test]
fn itb_pays_small_zero_load_latency_premium() {
    let mk = |scheme| {
        Experiment::new(
            gen::torus_2d(8, 8, 2).unwrap(),
            scheme,
            RouteDbConfig::default(),
            PatternSpec::Uniform,
            cfg64(),
        )
        .unwrap()
        .run_point(0.002, &opts(3))
    };
    let ud = mk(RoutingScheme::UpDown);
    let rr = mk(RoutingScheme::ItbRr);
    assert!(ud.avg_latency_ns > 0.0 && rr.avg_latency_ns > 0.0);
    // The premium exists but is bounded (paper: a few hundred ns on ~5 µs).
    assert!(
        rr.avg_latency_ns < ud.avg_latency_ns * 1.5,
        "ITB zero-load latency {:.0} vs UP/DOWN {:.0}",
        rr.avg_latency_ns,
        ud.avg_latency_ns
    );
    assert!(rr.avg_itbs_per_msg > 0.1, "expected in-transit hops in use");
    assert_eq!(ud.avg_itbs_per_msg, 0.0);
}
