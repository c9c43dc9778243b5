//! Network management for source-routed networks — the functions the paper
//! attributes to the Myrinet Control Program (section 2): "each network
//! adapter checks for changes in the network topology (shutdown of hosts,
//! link/switch failures, start-up of new hosts, etc.), in order to maintain
//! the routing tables".
//!
//! * [`FaultSet`] — the set of failed links, switches and hosts.
//! * [`discover`] — BFS exploration of the surviving network from a seed
//!   host, producing a fresh, renumbered [`Topology`](regnet_topology::Topology) plus the id maps
//!   between the physical and the discovered network (the real Myrinet
//!   mapper also renumbers after re-mapping).
//! * [`rebuild_physical_routes`] — the maintenance step a running network
//!   takes after every fault: re-map and rebuild the routing tables for any
//!   [`RoutingScheme`](regnet_core::RoutingScheme), written straight in
//!   physical ids, as [`PhysicalRoutes`]. The simulator's fault machinery
//!   (`regnet_netsim::FaultPlan`) calls it on every reconfiguration that
//!   does not return to the fault set of the tables it last replaced.
//!
//! # Example
//!
//! ```
//! use regnet_topology::{gen, HostId, LinkId};
//! use regnet_core::{RouteDbConfig, RoutingScheme};
//! use regnet_mapper::{rebuild_physical_routes, FaultSet};
//!
//! let physical = gen::torus_2d(4, 4, 2).unwrap();
//! // A cable dies; the mapper re-explores from host 0 and rebuilds the routes.
//! let faults = FaultSet::link(LinkId(0));
//! let routes = rebuild_physical_routes(
//!     &physical,
//!     &faults,
//!     HostId(0),
//!     RoutingScheme::ItbRr,
//!     &RouteDbConfig::default(),
//! )
//! .unwrap();
//! assert_eq!(routes.lost_hosts(), 0);
//! routes.verify(&physical, &faults).unwrap();
//! ```

mod discovery;
mod fault;
mod runtime;

pub use discovery::{discover, DiscoveredNetwork, MapperError};
pub use fault::FaultSet;
pub use runtime::{rebuild_physical_routes, PhysicalRoutes};
