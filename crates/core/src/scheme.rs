//! The routing schemes evaluated in the paper, the configuration a table
//! is built with, and how a source picks one of a pair's alternatives.
//! [`RouteDb::build`] writes the table through [`RouteFill`], the one
//! route writer.

use regnet_topology::{HostId, SwitchId, Topology};

use crate::fill::RouteFill;
use crate::header::Header;
use crate::relabel::Unchanged;
use crate::split::ItbHostPicker;
use crate::table::{RouteDb, RouteRef};

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
#[derive(Debug, Clone, PartialEq)]
pub struct SrcSelector {
    /// This source's host id.
    src: u32,
    /// Hosts of the network: the length of `rr` once allocated.
    n_hosts: u32,
    /// ITB-RR: picks made so far per destination (mod 256), allocated on
    /// the source's first round-robin pick, so the other schemes keep
    /// nothing per pair.
    rr: Vec<u8>,
    /// ITB-RND: this source's seeded stream.
    rng: rand::rngs::SmallRng,
}

impl SrcSelector {
    fn new(src: usize, n_hosts: usize) -> SrcSelector {
        SrcSelector {
            src: src as u32,
            n_hosts: n_hosts as u32,
            rr: Vec::new(),
            rng: rand::SeedableRng::seed_from_u64(fxhash(0x5E1EC7, src as u64)),
        }
    }

    fn next(&mut self, dst: HostId, n_alts: usize) -> usize {
        if self.rr.is_empty() {
            self.rr = vec![0; self.n_hosts as usize];
        }
        let count = &mut self.rr[dst.idx()];
        // Stagger the starting alternative per pair. If every pair started
        // at index 0, sparse traffic (few messages per pair) would collapse
        // round-robin into "everyone picks the first alternative", which is
        // lexicographically correlated across pairs and unbalances links.
        let pair = u64::from(self.src) * u64::from(self.n_hosts) + u64::from(dst.0);
        let stagger = fxhash(pair, 0x5157) as u8;
        let pick = stagger.wrapping_add(*count) as usize % n_alts;
        *count = count.wrapping_add(1);
        pick
    }
}

/// Per-pair round-robin state for the ITB-RR policy.
///
/// The paper round-robins "from all the alternative minimal paths" per
/// source-destination pair; we keep one counter per ordered *host* pair,
/// grouped per source host (see [`SrcSelector`]).
#[derive(Debug, Clone, PartialEq)]
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
    /// Compute the routing tables for `scheme` over `topo`: a
    /// [`RouteFill`] nothing asked yet, completed, under the identity.
    pub fn build(topo: &Topology, scheme: RoutingScheme, cfg: &RouteDbConfig) -> RouteDb {
        let map = Unchanged::new(topo);
        RouteFill::new(topo, scheme, cfg, &map).complete(topo, &map)
    }

    /// Fresh per-pair selection state (one per simulation run).
    pub fn selector(&self) -> PathSelector {
        PathSelector::new(self.num_hosts())
    }

    /// The header a packet from `src` to `dst` carries: the route the
    /// scheme's path-selection policy takes now, written for `dst`.
    pub fn select(
        &self,
        topo: &Topology,
        src: HostId,
        dst: HostId,
        selector: &mut PathSelector,
    ) -> Header {
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
    ) -> Header {
        self.choose_from(topo, src, dst, selector)
            .header(topo.host_port(dst))
    }

    /// The route [`select_from`](RouteDb::select_from) writes the header
    /// of, drawn the same way.
    pub fn choose_from(
        &self,
        topo: &Topology,
        src: HostId,
        dst: HostId,
        selector: &mut SrcSelector,
    ) -> RouteRef<'_> {
        let (ss, ds) = (topo.host_switch(src), topo.host_switch(dst));
        let alts = self.alternatives(ss, ds);
        alts.get(pick(self.scheme(), src, dst, alts.len(), selector))
    }
}

/// The alternative `scheme`'s path-selection policy takes now for a
/// message from `src` to `dst`, of the `n_alts` its switch pair has.
pub(crate) fn pick(
    scheme: RoutingScheme,
    src: HostId,
    dst: HostId,
    n_alts: usize,
    selector: &mut SrcSelector,
) -> usize {
    match scheme {
        RoutingScheme::UpDown => 0,
        // Fixed per pair, but spread across pairs.
        RoutingScheme::ItbSp => (fxhash(src.0 as u64, dst.0 as u64) as usize) % n_alts,
        RoutingScheme::ItbRr => selector.next(dst, n_alts),
        RoutingScheme::ItbRandom => rand::Rng::gen_range(&mut selector.rng, 0..n_alts),
    }
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
    use regnet_topology::{gen, DistanceMatrix};

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
        let picks: Vec<Header> = (0..alts.len())
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
        let h = db.select(&topo, HostId(0), HostId(1), &mut sel);
        assert_eq!(h.bytes(), [topo.host_port(HostId(1))]);
        assert_eq!(h.walk(&topo, HostId(0)), Ok(vec![HostId(1)]));
    }

    #[test]
    fn selected_headers_walk_to_their_destination() {
        let topo = torus();
        for scheme in RoutingScheme::all() {
            let db = RouteDb::build(&topo, scheme, &RouteDbConfig::default());
            let mut sel = db.selector();
            for src in topo.hosts().take(8) {
                for dst in topo.hosts() {
                    if src != dst {
                        let h = db.select(&topo, src, dst, &mut sel);
                        let hosts = h
                            .walk(&topo, src)
                            .unwrap_or_else(|e| panic!("{scheme}: {e}"));
                        assert_eq!(hosts.last(), Some(&dst));
                        assert_eq!(hosts.len(), h.num_itbs() + 1);
                    }
                }
            }
        }
    }

    #[test]
    fn round_robin_counts_from_the_pair_stagger() {
        // The eager form: one counter per ordered host pair, starting at
        // the pair's stagger, made for every pair up front.
        let n_hosts = 7;
        let mut sel = PathSelector::new(n_hosts);
        assert!(sel.per_src.iter().all(|s| s.rr.is_empty()));
        for src in 0..n_hosts {
            for dst in 0..n_hosts {
                let mut slot = (fxhash((src * n_hosts + dst) as u64, 0x5157) & 0xFF) as u8;
                for n_alts in [1, 3, 10, 7] {
                    for _ in 0..300 {
                        let want = slot as usize % n_alts;
                        slot = slot.wrapping_add(1);
                        let got = sel
                            .src_mut(HostId(src as u32))
                            .next(HostId(dst as u32), n_alts);
                        assert_eq!(got, want, "{src}->{dst} of {n_alts}");
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
    fn itb_random_selects_valid_routes_deterministically() {
        let topo = torus();
        let db = RouteDb::build(&topo, RoutingScheme::ItbRandom, &RouteDbConfig::default());
        let dm = DistanceMatrix::compute(&topo);
        let run = || {
            let mut sel = db.selector();
            (0..20)
                .map(|i| {
                    let (src, dst) = (HostId(i % 8), HostId(21));
                    let route = db.choose_from(&topo, src, dst, sel.src_mut(src));
                    assert_eq!(
                        route.total_links(),
                        dm.get(topo.host_switch(src), SwitchId(10)) as usize
                    );
                    let h = route.header(topo.host_port(dst));
                    assert_eq!(h.walk(&topo, src).unwrap().last(), Some(&dst));
                    h
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
        // Its header walks the detour: four links, then the destination.
        let mut sel = db.selector();
        let (src, dst) = (topo.hosts_of(SwitchId(2))[0], topo.hosts_of(SwitchId(4))[0]);
        let h = db.select(&topo, src, dst, &mut sel);
        assert_eq!(h.walk(&topo, src), Ok(vec![dst]));
        assert_eq!(h.bytes().len(), 5);
    }

    #[test]
    fn extended_includes_random() {
        assert_eq!(RoutingScheme::extended().len(), 4);
        assert_eq!(RoutingScheme::ItbRandom.label(), "ITB-RND");
        assert!(RoutingScheme::ItbRandom.uses_itbs());
    }
}
