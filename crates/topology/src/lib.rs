//! Topology substrate for `regnet`.
//!
//! This crate models networks of *switches* and *hosts* interconnected by
//! *links*, in the style of Myrinet clusters: every switch has a fixed number
//! of ports, hosts hang off switch ports through their network interface
//! card, and switch-to-switch links carry the traffic between them.
//!
//! It provides:
//!
//! * [`Topology`] — an immutable, validated network graph, built through
//!   [`TopologyBuilder`].
//! * Generators for the regular topologies evaluated in the paper
//!   (ICPP 2000, Flich et al.): the 8×8 [2-D torus](gen::torus_2d), the
//!   [2-D torus with express channels](gen::torus_2d_express) and the Sandia
//!   [CPLANT](gen::cplant) network — plus meshes, hypercubes and random
//!   irregular networks used by tests and extensions.
//! * [`SpanningTree`] — the breadth-first spanning tree that underlies
//!   up\*/down\* routing.
//! * [`Orientation`] — the Autonet "up"/"down" direction assignment for
//!   every link.
//! * [`DistanceMatrix`] — all-pairs shortest switch distances.
//!
//! # Example
//!
//! ```
//! use regnet_topology::{gen, SpanningTree, Orientation, SwitchId};
//!
//! let topo = gen::torus_2d(8, 8, 8).unwrap();
//! assert_eq!(topo.num_switches(), 64);
//! assert_eq!(topo.num_hosts(), 512);
//!
//! let tree = SpanningTree::bfs(&topo, SwitchId(0));
//! let orient = Orientation::from_tree(&topo, &tree);
//! // Moving towards the root is an "up" move.
//! assert!(orient.is_up_move(SwitchId(1), SwitchId(0)));
//! ```

mod distance;
mod error;
mod graph;
mod ids;
mod orientation;
mod tree;

pub mod gen;

pub use distance::DistanceMatrix;
pub use error::TopologyError;
pub use graph::{Link, LinkEnd, PortTarget, Topology, TopologyBuilder};
pub use ids::{HostId, LinkId, NodeId, Port, SwitchId};
pub use orientation::Orientation;
pub use tree::SpanningTree;
