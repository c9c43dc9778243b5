//! up\*/down\* source routing for `regnet`.
//!
//! This crate implements the baseline routing machinery of the paper:
//!
//! * [`SwitchPath`] — a path through the switch graph, with legality
//!   ([`SwitchPath::is_legal`]) and minimality checks and conversion to
//!   Myrinet port sequences.
//! * [`LegalDistances`] — shortest *legal* up\*/down\* distances to a
//!   destination, computed by BFS over the `(switch, phase)` product graph.
//! * [`simple_routes`] — an emulation of Myricom's `simple_routes` program:
//!   one up\*/down\* path per source-destination pair, selected among the
//!   shortest legal paths while balancing accumulated link weights (the
//!   paper's description of the GM route selection).
//! * [`minimal`] — enumeration and counting of graph-minimal paths, used by
//!   the in-transit buffer mechanism in `regnet-core`.
//!
//! # Example: a forbidden minimal path (as in the paper's Figure 1)
//!
//! ```
//! use regnet_topology::{TopologyBuilder, SwitchId, Orientation};
//! use regnet_routing::{LegalDistances, SwitchPath};
//!
//! // A ring of 4 switches: the minimal path 2 -> 3 is forbidden because it
//! // would need a down -> up transition; the legal route detours.
//! let mut b = TopologyBuilder::new("ring4", 4);
//! b.add_switches(4);
//! for i in 0..4u32 {
//!     b.connect(SwitchId(i), SwitchId((i + 1) % 4)).unwrap();
//! }
//! b.attach_hosts_everywhere(1).unwrap();
//! let topo = b.build().unwrap();
//! let orient = Orientation::compute(&topo, SwitchId(0));
//!
//! // Ring levels from root 0: [0, 1, 2, 1].
//! let legal = LegalDistances::to_dest(&topo, &orient, SwitchId(1));
//! // 2 -> 1 is a direct up move: distance 1.
//! assert_eq!(legal.from(SwitchId(2)), 1);
//! // 3 -> 2 -> 1? 3->2 is down (level 1 -> 2), 2->1 is up: forbidden.
//! // The legal path is 3 -> 0 -> 1 (up then down): distance 2. Both are
//! // minimal here; on larger networks the legal path is often longer.
//! let bad = SwitchPath::new(vec![SwitchId(3), SwitchId(2), SwitchId(1)]);
//! assert!(!bad.is_legal(&orient));
//! let good = SwitchPath::new(vec![SwitchId(3), SwitchId(0), SwitchId(1)]);
//! assert!(good.is_legal(&orient));
//! ```

mod legal;
pub mod minimal;
mod path;
mod simple;

pub use legal::{LegalDistances, Phase};
pub use path::{first_violation, SwitchPath};
pub use simple::{simple_routes, PairPaths, SimpleRoutesConfig};
