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
//! * [`Header`] — the port bytes and ITB marks a source writes into a
//!   packet, and [`PortWalk`], which walks port bytes on a topology, a
//!   [`Hop`] (switch, byte, where it leads) per byte: the one reader of a
//!   route's bytes,
//! * [`split_minimal_path`] — the placement algorithm that turns any minimal
//!   path into a legal route, in a route's owned form: its port bytes, an
//!   ITB mark after each in-transit segment's ([`RouteRef::to_owned`]),
//! * [`RouteDb`] — per-pair route tables for the three schemes evaluated in
//!   the paper ([`RoutingScheme::UpDown`], [`RoutingScheme::ItbSp`],
//!   [`RoutingScheme::ItbRr`]), each route stored as its owned bytes in
//!   one span ([`RouteRef::bytes`]), all written by one writer,
//!   [`RouteFill`]: [`RouteDb::build`] completes one in the topology's own
//!   ids ([`Unchanged`]), the mapper's rebuilds fill one a pair at a time
//!   through a [`Relabel`] into another's. Every hop's port byte, in a
//!   table or a one-path split, is read from a [`HopTable`],
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
//! let (src, dst) = (HostId(0), HostId(21));
//! let route = db.choose_from(&topo, src, dst, db.selector().src_mut(src));
//! // Every ITB route is minimal in switch hops:
//! let dm = DistanceMatrix::compute(&topo);
//! let (src_sw, dst_sw) = (topo.host_switch(src), topo.host_switch(dst));
//! assert_eq!(route.total_links(), dm.get(src_sw, dst_sw) as usize);
//! // Its header has an ITB mark per in-transit buffer:
//! assert_eq!(route.header(topo.host_port(dst)).num_itbs(), route.num_itbs());
//! ```

pub mod analysis;
mod fill;
mod fnv;
mod header;
mod relabel;
mod scheme;
mod split;
mod table;

pub use fill::RouteFill;
pub use fnv::Fnv1a;
pub use header::{DeadEnd, Header, Hop, PortWalk, ITB_MARK};
pub use relabel::{HopTable, Relabel, Unchanged};
pub use scheme::{PathSelector, RouteDbConfig, RoutingScheme, SrcSelector};
pub use split::{split_minimal_path, try_split_minimal_path, ItbHostPicker};
pub use table::{Alternatives, RouteDb, RouteFootprint, RouteRef, Routes};
