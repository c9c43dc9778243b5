//! Cycle-accurate simulator of Myrinet-style source-routed networks.
//!
//! The simulator reproduces the network model of the paper's section 4 at
//! flit granularity, one cycle = one flit time = 6.25 ns (160 MB/s links,
//! one-byte flits):
//!
//! * **Links** are pipelined: a 10 m LAN cable holds up to 8 flits in
//!   flight.
//! * **Flow control** is Myrinet's hardware stop&go: each switch input has
//!   an 80-byte slack buffer that emits STOP when it fills beyond 56 bytes
//!   and GO when it drains below 40; control flits cross the cable in the
//!   reverse direction with the same latency.
//! * **Switches** are input-buffered cut-through: the routing control unit
//!   consumes the first header flit, takes 150 ns, and requests the output
//!   port; each output arbitrates among requesting inputs in demand-slotted
//!   round-robin; the crossbar is non-blocking.
//! * **NICs** hold the whole packet before first injection, obey stop&go,
//!   and implement the **in-transit buffer** mechanism: an arriving packet
//!   flagged for this host is ejected unconditionally (this breaks the
//!   deadlock cycle), recognised after 44 bytes (275 ns), its re-injection
//!   DMA programmed after 32 further bytes (200 ns), and re-injected —
//!   cut-through — as soon as the output channel is free. The 90 KB ITB
//!   pool overflows to host memory at a 1 µs penalty.
//!
//! [`Experiment`] is the high-level API used by the examples and the
//! paper-reproduction harness: run one offered-load point. Sweeps and
//! saturation searches are grids of such points, run by
//! `regnet-campaign`.
//!
//! The modules are private and every name is exported from the crate
//! root, except [`threads`], which callers name by path.
//!
//! # Quickstart
//!
//! ```
//! use regnet_topology::gen;
//! use regnet_core::{RouteDbConfig, RoutingScheme};
//! use regnet_traffic::PatternSpec;
//! use regnet_netsim::{Experiment, RunOptions, SimConfig};
//!
//! let topo = gen::torus_2d(4, 4, 2).unwrap();
//! let exp = Experiment::new(
//!     topo,
//!     RoutingScheme::ItbRr,
//!     RouteDbConfig::default(),
//!     PatternSpec::Uniform,
//!     SimConfig { payload_flits: 64, ..SimConfig::default() },
//! ).unwrap();
//! let point = exp.run_point(
//!     0.01,
//!     &RunOptions { warmup_cycles: 5_000, measure_cycles: 20_000, seed: 1, ..RunOptions::default() },
//! );
//! assert!(point.delivered > 0);
//! assert!(point.avg_latency_ns > 0.0);
//! ```

mod channel;
mod config;
mod counters;
mod events;
mod experiment;
mod faultplan;
mod kernel;
mod nic;
mod packet;
mod profiler;
mod sched;
mod sim;
mod switch;
pub mod threads;
mod trace;
mod wfg;

pub use config::{SimConfig, CYCLE_NS, MAX_PAYLOAD_FLITS, MAX_SWITCH_PORTS};
pub use counters::CounterSnapshot;
pub use events::{BlockCause, Event, EventJournal, EventKind, EventOptions};
pub use experiment::{Experiment, RunObservation, RunOptions};
pub use faultplan::{FaultEvent, FaultOptions, FaultPlan, FaultTarget, ReliabilityStats};
pub use profiler::{PhaseProfile, ProfileReport, PHASE_NAMES};
pub use sched::Scheduler;
pub use sim::{ChannelDesc, RunStats, Simulator};
pub use trace::{
    ChannelUtilSeries, GoodputSeries, LatencySummary, MetricsSample, MetricsSeries,
    OccupancySeries, TraceOptions, TraceReport,
};
pub use wfg::{StallClass, StallReport};
