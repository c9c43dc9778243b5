//! Route databases for the three routing schemes evaluated in the paper.

use regnet_routing::minimal::{MinimalDag, PathSet};
use regnet_routing::{simple_routes, SimpleRoutesConfig, SwitchPath};
use regnet_topology::{DistanceMatrix, HostId, Orientation, SwitchId, Topology};

use crate::journey::Journey;
use crate::relabel::{Relabel, Relabelled, Unchanged};
use crate::split::{no_itb_host, split_into, ItbHostPicker};
use crate::table::{RouteDb, RouteDbBuilder};

/// The routing schemes compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingScheme {
    /// Original Myrinet routing: one balanced up\*/down\* path per pair
    /// (the `simple_routes` selection). Called **UP/DOWN** in the paper.
    UpDown,
    /// In-transit buffers with the *single path* selection policy: each pair
    /// always uses the same minimal path. **ITB-SP**.
    ItbSp,
    /// In-transit buffers with *round-robin* selection over up to
    /// [`RouteDbConfig::max_alternatives`] minimal paths. **ITB-RR**.
    ItbRr,
    /// In-transit buffers with seeded *random* selection among the
    /// alternatives — an extension in the direction of the paper's future
    /// work on "new route selection algorithms" at the source host.
    /// **ITB-RND**; not part of the paper's evaluation.
    ItbRandom,
}

impl RoutingScheme {
    /// The label used in the paper's plots.
    pub fn label(self) -> &'static str {
        match self {
            RoutingScheme::UpDown => "UP/DOWN",
            RoutingScheme::ItbSp => "ITB-SP",
            RoutingScheme::ItbRr => "ITB-RR",
            RoutingScheme::ItbRandom => "ITB-RND",
        }
    }

    /// Does this scheme use in-transit buffers?
    pub fn uses_itbs(self) -> bool {
        !matches!(self, RoutingScheme::UpDown)
    }

    /// The three schemes of the paper's evaluation, in presentation order.
    pub fn all() -> [RoutingScheme; 3] {
        [
            RoutingScheme::UpDown,
            RoutingScheme::ItbSp,
            RoutingScheme::ItbRr,
        ]
    }

    /// The paper's schemes plus this library's extensions.
    pub fn extended() -> [RoutingScheme; 4] {
        [
            RoutingScheme::UpDown,
            RoutingScheme::ItbSp,
            RoutingScheme::ItbRr,
            RoutingScheme::ItbRandom,
        ]
    }
}

impl std::fmt::Display for RoutingScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Configuration for building a [`RouteDb`].
#[derive(Debug, Clone)]
pub struct RouteDbConfig {
    /// Maximum alternative routes per source-destination pair (paper: 10,
    /// "to avoid using a huge table that may result in a long look-up
    /// delay").
    pub max_alternatives: usize,
    /// Root switch of the up\*/down\* spanning tree. The paper's torus
    /// plots identify the root as "the top leftmost switch", i.e. switch 0.
    pub root: SwitchId,
    /// How in-transit hosts are chosen at a transition switch.
    pub itb_picker: ItbHostPicker,
    /// Seed for the minimal-path sampling.
    pub seed: u64,
}

impl Default for RouteDbConfig {
    fn default() -> Self {
        RouteDbConfig {
            max_alternatives: 10,
            root: SwitchId(0),
            itb_picker: ItbHostPicker::Spread,
            seed: 0xC0FFEE,
        }
    }
}

/// Path-selection state owned by one *source* host.
///
/// Selection state is grouped by source: every selection a host makes
/// reads and writes only its own `SrcSelector`, so the simulator's kernel
/// can borrow one source's state without the whole [`PathSelector`].
#[derive(Debug, Clone)]
pub struct SrcSelector {
    /// ITB-RR: one round-robin counter per destination.
    rr: Vec<u8>,
    /// ITB-RND: this source's seeded stream.
    rng: rand::rngs::SmallRng,
}

impl SrcSelector {
    fn new(src: usize, n_hosts: usize) -> SrcSelector {
        // Stagger the starting alternative per pair. If every pair started
        // at index 0, sparse traffic (few messages per pair) would collapse
        // round-robin into "everyone picks the first alternative", which is
        // lexicographically correlated across pairs and unbalances links.
        let rr = (0..n_hosts)
            .map(|d| (fxhash((src * n_hosts + d) as u64, 0x5157) & 0xFF) as u8)
            .collect();
        SrcSelector {
            rr,
            rng: rand::SeedableRng::seed_from_u64(fxhash(0x5E1EC7, src as u64)),
        }
    }

    fn next(&mut self, dst: HostId, n_alts: usize) -> usize {
        let slot = &mut self.rr[dst.idx()];
        let pick = *slot as usize % n_alts;
        *slot = slot.wrapping_add(1);
        pick
    }
}

/// Per-pair round-robin state for the ITB-RR policy.
///
/// The paper round-robins "from all the alternative minimal paths" per
/// source-destination pair; we keep one counter per ordered *host* pair,
/// grouped per source host (see [`SrcSelector`]).
#[derive(Debug, Clone)]
pub struct PathSelector {
    per_src: Vec<SrcSelector>,
}

impl PathSelector {
    fn new(n_hosts: usize) -> PathSelector {
        PathSelector {
            per_src: (0..n_hosts).map(|s| SrcSelector::new(s, n_hosts)).collect(),
        }
    }

    /// The selection state of one source host.
    pub fn src_mut(&mut self, src: HostId) -> &mut SrcSelector {
        &mut self.per_src[src.idx()]
    }
}

impl RouteDb {
    /// Compute the routing tables for `scheme` over `topo`.
    pub fn build(topo: &Topology, scheme: RoutingScheme, cfg: &RouteDbConfig) -> RouteDb {
        RouteDb::build_relabelled(topo, scheme, cfg, &Unchanged::new(topo))
    }

    /// Compute the routing tables for `scheme` over `topo` and write them
    /// through `map`: every written pair gets the routes of the built pair
    /// `map` names, in `map`'s ids (see [`Relabel`]). No table in `topo`'s
    /// own ids is made on the way.
    pub fn build_relabelled<R: Relabel>(
        topo: &Topology,
        scheme: RoutingScheme,
        cfg: &RouteDbConfig,
        map: &R,
    ) -> RouteDb {
        let orient = Orientation::compute(topo, cfg.root);
        let n = map.num_switches() as u32;
        let mut table = RouteDbBuilder::new(scheme, n as usize, map.num_hosts());
        // The next route of the open pair: `path`, split — unless it needs
        // an in-transit buffer at a hostless switch.
        let add_route = |table: &mut RouteDbBuilder, path: &[SwitchId]| {
            let mut sink = Relabelled { table, map };
            let usable = split_into(topo, &orient, path, cfg.itb_picker, &mut sink);
            if usable {
                table.end_route();
            } else {
                table.abort_route();
            }
            usable
        };
        // up*/down* routes never need one, so they always split — into
        // exactly one segment.
        let legal_route = |table: &mut RouteDbBuilder, path: &SwitchPath| {
            debug_assert!(path.is_legal(&orient), "{path} must not need ITBs");
            let usable = add_route(table, path.switches());
            assert!(usable, "{}", no_itb_host(path.switches()));
        };
        // Every written pair in table order, with the built pair it reads.
        let pairs = || (0..n).flat_map(|s| (0..n).map(move |d| map.pair(SwitchId(s), SwitchId(d))));

        match scheme {
            RoutingScheme::UpDown => {
                let routes = simple_routes(topo, &orient, &SimpleRoutesConfig::default());
                // One single-segment route per pair.
                let mut size = [0; 4];
                for (s, d) in pairs().flatten() {
                    let links = routes.get(s, d).len_links();
                    add(&mut size, [1, 1, links + 1, links]);
                }
                table.reserve(size);
                for pair in pairs() {
                    if let Some((s, d)) = pair {
                        legal_route(&mut table, routes.get(s, d));
                    }
                    table.end_pair();
                }
            }
            RoutingScheme::ItbSp | RoutingScheme::ItbRr | RoutingScheme::ItbRandom => {
                let dm = DistanceMatrix::compute(topo);
                // ITB-SP uses a single fixed path per pair, but we still
                // sample the same alternative set and hash-pick one so the
                // fixed choices are spread across the path space rather
                // than biased to low switch ids.
                let k = cfg.max_alternatives;
                let mut dags: Vec<MinimalDag> = topo
                    .switches()
                    .map(|d| MinimalDag::new(topo, &dm, d))
                    .collect();
                let mut paths = PathSet::default();
                // Legal fallback routes, computed lazily: only needed when
                // *every* minimal path of a pair requires an in-transit
                // buffer at a hostless switch (possible on degraded or
                // exotic topologies, never on the paper's).
                let mut fallback: Option<regnet_routing::PairPaths> = None;
                // At most `k` minimal routes of `links` hops per pair, each
                // split at most `links / 2` times (an in-transit buffer
                // needs a down hop before its up hop). Only a pair with no
                // usable minimal route (a fallback) can exceed it.
                let mut size = [0; 4];
                for (s, d) in pairs().flatten() {
                    let r = dags[d.idx()].count(s).min(k as u64) as usize;
                    let links = dm.get(s, d) as usize;
                    let segs = 1 + links / 2;
                    add(
                        &mut size,
                        [r, r * segs, r * (links + segs), r * (links + segs - 1)],
                    );
                }
                table.reserve(size);
                for pair in pairs() {
                    if let Some((s, d)) = pair {
                        dags[d.idx()].k_paths(s, k, cfg.seed, &mut paths);
                        for p in paths.iter() {
                            add_route(&mut table, p);
                        }
                        if table.routes_in_pair() == 0 {
                            let routes = fallback.get_or_insert_with(|| {
                                simple_routes(topo, &orient, &SimpleRoutesConfig::default())
                            });
                            legal_route(&mut table, routes.get(s, d));
                        }
                    }
                    table.end_pair();
                }
            }
        }
        table.finish()
    }

    /// Fresh per-pair selection state (one per simulation run).
    pub fn selector(&self) -> PathSelector {
        PathSelector::new(self.num_hosts())
    }

    /// Materialise the route a packet from `src` to `dst` should take now,
    /// according to the scheme's path-selection policy.
    pub fn select(
        &self,
        topo: &Topology,
        src: HostId,
        dst: HostId,
        selector: &mut PathSelector,
    ) -> Journey {
        self.select_from(topo, src, dst, selector.src_mut(src))
    }

    /// [`select`](RouteDb::select), given only the source host's own
    /// selection state. This is the form the simulator's kernel calls
    /// (its sink lends one `SrcSelector` at a time).
    pub fn select_from(
        &self,
        topo: &Topology,
        src: HostId,
        dst: HostId,
        selector: &mut SrcSelector,
    ) -> Journey {
        let (ss, ds) = (topo.host_switch(src), topo.host_switch(dst));
        let alts = self.alternatives(ss, ds);
        let idx = match self.scheme() {
            RoutingScheme::UpDown => 0,
            // Fixed per pair, but spread across pairs.
            RoutingScheme::ItbSp => (fxhash(src.0 as u64, dst.0 as u64) as usize) % alts.len(),
            RoutingScheme::ItbRr => selector.next(dst, alts.len()),
            RoutingScheme::ItbRandom => rand::Rng::gen_range(&mut selector.rng, 0..alts.len()),
        };
        alts.get(idx).materialise(src, dst, topo.host_port(dst))
    }
}

fn add(size: &mut [usize; 4], more: [usize; 4]) {
    size.iter_mut().zip(more).for_each(|(a, b)| *a += b);
}

#[inline]
fn fxhash(a: u64, b: u64) -> u64 {
    let mut h = a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b;
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regnet_topology::gen;

    fn torus() -> Topology {
        gen::torus_2d(4, 4, 2).unwrap()
    }

    #[test]
    fn updown_db_has_single_alternative() {
        let topo = torus();
        let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
        for (_, _, alts) in db.iter_pairs() {
            assert_eq!(alts.len(), 1);
            assert_eq!(alts.get(0).num_itbs(), 0);
        }
    }

    #[test]
    fn itb_rr_has_multiple_alternatives_and_cycles() {
        let topo = torus();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        // Pair (0,0)->(2,2): switch 0 to switch 10: six lattice paths.
        let alts = db.alternatives(SwitchId(0), SwitchId(10));
        assert!(alts.len() > 1);

        let mut sel = db.selector();
        let (src, dst) = (HostId(0), HostId(21)); // hosts on switches 0 and 10
        let picks: Vec<Journey> = (0..alts.len())
            .map(|_| db.select(&topo, src, dst, &mut sel))
            .collect();
        // Round robin must visit every alternative once before repeating.
        let again = db.select(&topo, src, dst, &mut sel);
        assert_eq!(again, picks[0]);
        let distinct: std::collections::HashSet<_> =
            picks.iter().map(|j| format!("{j:?}")).collect();
        assert_eq!(distinct.len(), picks.len());
    }

    #[test]
    fn itb_sp_is_fixed_per_pair() {
        let topo = torus();
        let db = RouteDb::build(&topo, RoutingScheme::ItbSp, &RouteDbConfig::default());
        let mut sel = db.selector();
        let a = db.select(&topo, HostId(0), HostId(21), &mut sel);
        let b = db.select(&topo, HostId(0), HostId(21), &mut sel);
        assert_eq!(a, b);
        // Different pairs may pick different alternatives (spread).
        let db_alts = db.alternatives(SwitchId(0), SwitchId(10)).len();
        assert!(db_alts > 1);
    }

    #[test]
    fn itb_journeys_are_minimal() {
        let topo = torus();
        let dm = DistanceMatrix::compute(&topo);
        for scheme in [RoutingScheme::ItbSp, RoutingScheme::ItbRr] {
            let db = RouteDb::build(&topo, scheme, &RouteDbConfig::default());
            for (s, d, alts) in db.iter_pairs() {
                for t in alts {
                    assert_eq!(t.total_links(), dm.get(s, d) as usize, "{scheme} {s}->{d}");
                }
            }
        }
    }

    #[test]
    fn updown_journeys_may_be_longer() {
        let topo = gen::torus_2d(8, 8, 1).unwrap();
        let dm = DistanceMatrix::compute(&topo);
        let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
        let longer = db
            .iter_pairs()
            .filter(|(s, d, alts)| alts.get(0).total_links() > dm.get(*s, *d) as usize)
            .count();
        assert!(
            longer > 0,
            "up*/down* should have non-minimal routes on a torus"
        );
    }

    #[test]
    fn same_switch_traffic() {
        let topo = torus();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let mut sel = db.selector();
        // Hosts 0 and 1 both live on switch 0.
        let j = db.select(&topo, HostId(0), HostId(1), &mut sel);
        j.validate().unwrap();
        assert_eq!(j.total_links(), 0);
        assert_eq!(j.num_itbs(), 0);
        assert_eq!(j.segments[0].ports, vec![topo.host_port(HostId(1))]);
        assert_eq!(j.segments[0].switches, vec![topo.host_switch(HostId(0))]);
    }

    #[test]
    fn materialised_journeys_validate() {
        let topo = torus();
        for scheme in RoutingScheme::all() {
            let db = RouteDb::build(&topo, scheme, &RouteDbConfig::default());
            let mut sel = db.selector();
            for src in topo.hosts().take(8) {
                for dst in topo.hosts() {
                    if src != dst {
                        let j = db.select(&topo, src, dst, &mut sel);
                        j.validate().unwrap_or_else(|e| panic!("{scheme}: {e}"));
                        assert_eq!(j.src, src);
                        assert_eq!(j.dst, dst);
                    }
                }
            }
        }
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(RoutingScheme::UpDown.label(), "UP/DOWN");
        assert_eq!(RoutingScheme::ItbSp.to_string(), "ITB-SP");
        assert!(RoutingScheme::ItbRr.uses_itbs());
        assert!(!RoutingScheme::UpDown.uses_itbs());
        assert_eq!(RoutingScheme::all().len(), 3);
    }

    #[test]
    fn itb_random_selects_valid_journeys_deterministically() {
        let topo = torus();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRandom, &RouteDbConfig::default());
        let dm = DistanceMatrix::compute(&topo);
        let run = || {
            let mut sel = db.selector();
            (0..20)
                .map(|i| {
                    let j = db.select(&topo, HostId(i % 8), HostId(21), &mut sel);
                    j.validate().unwrap();
                    assert_eq!(
                        j.total_links(),
                        dm.get(topo.host_switch(HostId(i % 8)), SwitchId(10)) as usize
                    );
                    j
                })
                .collect::<Vec<_>>()
        };
        // Seeded: two fresh selectors draw the same sequence.
        assert_eq!(run(), run());
        // And it actually varies across draws for a multi-alternative pair.
        let mut sel = db.selector();
        let picks: std::collections::HashSet<String> = (0..20)
            .map(|_| format!("{:?}", db.select(&topo, HostId(0), HostId(21), &mut sel)))
            .collect();
        assert!(picks.len() > 1, "random policy never varied");
    }

    #[test]
    fn hostless_transition_switch_falls_back_to_legal_path() {
        // Ring of 6 rooted at 0: levels [0,1,2,3,2,1]. The only minimal
        // path 2->3->4 needs an in-transit buffer at switch 3 — which has
        // no hosts here, so the pair must fall back to the legal detour
        // 2->1->0->5->4 (4 links, 0 ITBs).
        let mut b = regnet_topology::TopologyBuilder::new("ring6-gap", 4);
        b.add_switches(6);
        for i in 0..6u32 {
            b.connect(SwitchId(i), SwitchId((i + 1) % 6)).unwrap();
        }
        for i in [0u32, 1, 2, 4, 5] {
            b.attach_host(SwitchId(i)).unwrap();
        }
        let topo = b.build().unwrap();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRr, &RouteDbConfig::default());
        let alts = db.alternatives(SwitchId(2), SwitchId(4));
        assert_eq!(alts.len(), 1, "only the fallback should remain");
        assert_eq!(alts.get(0).num_itbs(), 0);
        assert_eq!(alts.get(0).total_links(), 4, "legal detour around the gap");
        // The reverse direction 4->3->2 has the same problem, same cure.
        let rev = db.alternatives(SwitchId(4), SwitchId(2));
        assert_eq!(rev.get(0).num_itbs(), 0);
        assert_eq!(rev.get(0).total_links(), 4);
        // Materialised journeys still validate.
        let mut sel = db.selector();
        let (src, dst) = (topo.hosts_of(SwitchId(2))[0], topo.hosts_of(SwitchId(4))[0]);
        let j = db.select(&topo, src, dst, &mut sel);
        j.validate().unwrap();
        assert_eq!(j.total_links(), 4);
    }

    #[test]
    fn extended_includes_random() {
        assert_eq!(RoutingScheme::extended().len(), 4);
        assert_eq!(RoutingScheme::ItbRandom.label(), "ITB-RND");
        assert!(RoutingScheme::ItbRandom.uses_itbs());
    }
}
