//! # regnet
//!
//! A production-quality reproduction of *"Improving the Performance of
//! Regular Networks with Source Routing"* (J. Flich, P. López,
//! M. P. Malumbres, J. Duato — ICPP 2000): the **in-transit buffer (ITB)**
//! mechanism for minimal source routing on regular networks, together with
//! everything needed to evaluate it — topology generators, up\*/down\*
//! routing, a cycle-accurate Myrinet-style network simulator, traffic
//! patterns and measurement tooling.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`topology`] | `regnet-topology` | switch/host/link graphs, torus / express-torus / CPLANT / mesh / hypercube / irregular generators, spanning trees, up/down orientation |
//! | [`routing`] | `regnet-routing` | up\*/down\* legal paths, `simple_routes` emulation, minimal-path enumeration |
//! | [`core`] | `regnet-core` | the ITB mechanism: journey splitting, route databases, path-selection policies, route analysis |
//! | [`traffic`] | `regnet-traffic` | uniform / bit-reversal / hotspot / local patterns, offered-load conversion |
//! | [`mapper`] | `regnet-mapper` | fault sets, network discovery, and the re-map + route-rebuild step every faulted run takes |
//! | [`netsim`] | `regnet-netsim` | the flit-level simulator (pipelined links, stop&go, cut-through switches, ITB NICs), fault plans and the experiment driver |
//! | [`metrics`] | `regnet-metrics` | latency statistics, curves, saturation detection and search, link-utilization summaries, exporters |
//! | — | `regnet-campaign` | declarative, resumable experiment campaigns (not re-exported; used by `regnet-bench`) |
//!
//! ## Quickstart
//!
//! ```
//! use regnet::prelude::*;
//!
//! // The paper's 2-D torus, scaled down for a doc test.
//! let topo = regnet::topology::gen::torus_2d(4, 4, 2).unwrap();
//!
//! // Compare the original Myrinet routing with in-transit buffers.
//! let exp = Experiment::new(
//!     topo,
//!     RoutingScheme::ItbRr,
//!     RouteDbConfig::default(),
//!     PatternSpec::Uniform,
//!     SimConfig { payload_flits: 64, ..SimConfig::default() },
//! )
//! .unwrap();
//!
//! let point = exp.run_point(
//!     0.005,
//!     &RunOptions {
//!         warmup_cycles: 5_000,
//!         measure_cycles: 20_000,
//!         seed: 7,
//!         ..RunOptions::default()
//!     },
//! );
//! assert!(point.delivered > 0);
//! ```
//!
//! The `regnet-bench` crate regenerates every table and figure of the
//! paper; see `DESIGN.md` and `EXPERIMENTS.md` at the repository root.

pub use regnet_core as core;
pub use regnet_mapper as mapper;
pub use regnet_metrics as metrics;
pub use regnet_netsim as netsim;
pub use regnet_routing as routing;
pub use regnet_topology as topology;
pub use regnet_traffic as traffic;

/// The types needed by typical experiments, in one import.
pub mod prelude {
    pub use regnet_core::{
        split_minimal_path, ItbHostPicker, Journey, JourneyTemplate, RouteDb, RouteDbConfig,
        RoutingScheme, SegmentEnd,
    };
    pub use regnet_mapper::FaultSet;
    pub use regnet_metrics::SaturationSearch;
    pub use regnet_netsim::{
        CounterSnapshot, EventOptions, Experiment, FaultOptions, FaultPlan, ReliabilityStats,
        RunObservation, RunOptions, RunStats, Scheduler, SimConfig, Simulator, StallClass,
        TraceOptions, TraceReport,
    };
    pub use regnet_routing::{LegalDistances, SwitchPath};
    pub use regnet_topology::{
        gen, DistanceMatrix, HostId, LinkId, Orientation, SpanningTree, SwitchId, Topology,
        TopologyBuilder,
    };
    pub use regnet_traffic::{Pattern, PatternSpec};
}
