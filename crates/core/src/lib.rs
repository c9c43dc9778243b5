//! The in-transit buffer (ITB) mechanism — the primary contribution of
//! *"Improving the Performance of Regular Networks with Source Routing"*
//! (Flich, López, Malumbres, Duato — ICPP 2000).
//!
//! up\*/down\* routing is deadlock-free because it forbids "down"→"up" link
//! transitions, but that restriction outlaws many minimal paths and drags
//! most traffic past the root switch. The ITB mechanism removes the
//! restriction: route every packet along a *minimal* path, and wherever that
//! path would need a forbidden transition, address the packet to a host
//! attached to the switch at the transition point. That host ejects the
//! packet completely from the network (cutting the cyclic channel
//! dependency — this is what keeps the scheme deadlock-free) and re-injects
//! it as soon as possible. Each resulting sub-path is a valid up\*/down\*
//! path.
//!
//! This crate provides:
//!
//! * [`Journey`] / [`JourneyTemplate`] — multi-segment source routes with
//!   in-transit hosts and their wire-format accounting,
//! * [`split_minimal_path`] — the placement algorithm that turns any minimal
//!   path into a legal journey,
//! * [`RouteDb`] — per-pair route tables for the three schemes evaluated in
//!   the paper ([`RoutingScheme::UpDown`], [`RoutingScheme::ItbSp`],
//!   [`RoutingScheme::ItbRr`]), built in the topology's own ids or, through
//!   a [`Relabel`], in another's (the mapper's rebuilds),
//! * [`analysis`] — route-level statistics (fraction of minimal paths,
//!   average distance, average ITBs per route) matching section 4.7 of the
//!   paper.
//!
//! # Example
//!
//! ```
//! use regnet_topology::{gen, DistanceMatrix, HostId};
//! use regnet_core::{RouteDb, RoutingScheme, RouteDbConfig};
//!
//! let topo = gen::torus_2d(4, 4, 2).unwrap();
//! let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
//! let mut selector = db.selector();
//! let journey = db.select(&topo, HostId(0), HostId(21), &mut selector);
//! // Every ITB journey is minimal in switch hops:
//! let dm = DistanceMatrix::compute(&topo);
//! let src_sw = topo.host_switch(HostId(0));
//! let dst_sw = topo.host_switch(HostId(21));
//! assert_eq!(journey.total_links(), dm.get(src_sw, dst_sw) as usize);
//! ```

pub mod analysis;
mod journey;
mod relabel;
mod scheme;
mod split;
mod table;

pub use journey::{Journey, JourneyTemplate, Segment, SegmentEnd};
pub use relabel::Relabel;
pub use scheme::{PathSelector, RouteDbConfig, RoutingScheme, SrcSelector};
pub use split::{split_minimal_path, try_split_minimal_path, ItbHostPicker};
pub use table::{Alternatives, RouteDb, RouteFootprint, RouteRef, Routes, SegmentRef};
