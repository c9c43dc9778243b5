//! Microbenchmarks of the simulation engine and routing machinery —
//! cycles/second of the simulator itself, route-table construction, and
//! the hot routing primitives.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use regnet_core::{RouteDb, RouteDbConfig, RoutingScheme};
use regnet_mapper::{rebuild_physical_routes, FaultSet};
use regnet_netsim::{SimConfig, Simulator, TraceOptions};
use regnet_routing::minimal::{self, MinimalDag, PathSet};
use regnet_routing::LegalDistances;
use regnet_topology::{gen, DistanceMatrix, HostId, Orientation, SwitchId};
use regnet_traffic::{Pattern, PatternSpec};

fn sim_cycles(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_cycles");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    const CYCLES: u64 = 10_000;
    group.throughput(Throughput::Elements(CYCLES));
    // `loaded_traced` is `loaded` with every observer on: the gap between
    // the two is the telemetry overhead (disabled runs pay one branch per
    // hook and must stay within noise of `loaded`).
    for (name, offered, traced) in [
        ("idle", 1e-6, false),
        ("loaded", 0.012, false),
        ("loaded_traced", 0.012, true),
    ] {
        let topo = gen::torus_2d(4, 4, 4).unwrap();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let pattern = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        group.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut sim = Simulator::new(
                        &topo,
                        &db,
                        &pattern,
                        SimConfig {
                            payload_flits: 64,
                            ..SimConfig::default()
                        },
                        offered,
                        3,
                    );
                    if traced {
                        sim.enable_trace(TraceOptions::full(1_000));
                    }
                    sim.run(2_000); // fill
                    sim
                },
                |mut sim| {
                    sim.run(CYCLES);
                    black_box(sim.cycle())
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn route_db_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("route_db_build");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(3));
    let small = gen::torus_2d(4, 4, 4).unwrap();
    let paper = gen::torus_2d(8, 8, 8).unwrap();
    for scheme in [RoutingScheme::UpDown, RoutingScheme::ItbRr] {
        group.bench_function(format!("torus4x4_{}", scheme.label()), |b| {
            b.iter(|| {
                black_box(RouteDb::build(
                    black_box(&small),
                    scheme,
                    &RouteDbConfig::default(),
                ))
            })
        });
    }
    group.bench_function("torus8x8_ITB-RR", |b| {
        b.iter(|| {
            black_box(RouteDb::build(
                black_box(&paper),
                RoutingScheme::ItbRr,
                &RouteDbConfig::default(),
            ))
        })
    });
    // What a running simulator pays per fault: discovery, the build above
    // on the re-mapped network, and the translation back to physical ids.
    let dead = paper
        .links()
        .iter()
        .find(|l| l.is_switch_link())
        .unwrap()
        .id;
    let faults = FaultSet::link(dead);
    group.bench_function("torus8x8_ITB-RR_rebuild_physical_routes", |b| {
        b.iter(|| {
            black_box(rebuild_physical_routes(
                black_box(&paper),
                &faults,
                HostId(0),
                RoutingScheme::ItbRr,
                &RouteDbConfig::default(),
            ))
        })
    });
    group.finish();
}

fn routing_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing_primitives");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    let topo = gen::torus_2d(8, 8, 8).unwrap();
    let orient = Orientation::compute(&topo, SwitchId(0));
    let dm = DistanceMatrix::compute(&topo);
    group.bench_function("legal_distances_one_dest", |b| {
        b.iter(|| {
            black_box(LegalDistances::to_dest(
                &topo,
                &orient,
                black_box(SwitchId(36)),
            ))
        })
    });
    // One pair through the convenience wrapper (a fresh DAG and owned
    // paths per call) ...
    group.bench_function("k_minimal_paths_10", |b| {
        b.iter(|| {
            black_box(minimal::k_minimal_paths(
                &topo,
                &dm,
                black_box(SwitchId(0)),
                black_box(SwitchId(36)),
                10,
                7,
            ))
        })
    });
    // ... and as `RouteDb::build` asks: one DAG per destination, queried
    // for every source into a reused `PathSet`.
    group.bench_function("minimal_dag_all_sources_10", |b| {
        let mut paths = PathSet::default();
        b.iter(|| {
            let mut dag = MinimalDag::new(&topo, &dm, black_box(SwitchId(36)));
            let mut found = 0;
            for s in topo.switches() {
                dag.k_paths(s, 10, 7, &mut paths);
                found += paths.len();
            }
            black_box(found)
        })
    });
    group.bench_function("distance_matrix", |b| {
        b.iter(|| black_box(DistanceMatrix::compute(black_box(&topo))))
    });
    group.finish();
}

fn pattern_draws(c: &mut Criterion) {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut group = c.benchmark_group("pattern_draws");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.throughput(Throughput::Elements(1000));
    let topo = gen::torus_2d(8, 8, 8).unwrap();
    for spec in [
        PatternSpec::Uniform,
        PatternSpec::BitReversal,
        PatternSpec::Local { max_switch_dist: 3 },
    ] {
        let p = Pattern::resolve(spec, &topo).unwrap();
        group.bench_function(spec.label(), |b| {
            let mut rng = SmallRng::seed_from_u64(1);
            b.iter(|| {
                let mut acc = 0u32;
                for i in 0..1000u32 {
                    if let Some(d) = p.dest(regnet_topology::HostId(i % 512), &topo, &mut rng) {
                        acc = acc.wrapping_add(d.0);
                    }
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    sim_cycles,
    route_db_build,
    routing_primitives,
    pattern_draws
);
criterion_main!(benches);
