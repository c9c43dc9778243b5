//! Emulation of Myricom's `simple_routes` route selection.
//!
//! The paper (section 4.5) describes the GM `simple_routes` program as:
//! "computes the entire set of up\*/down\* paths and then selects the final
//! set of up\*/down\* paths (one path for every source-destination pair)
//! trying to balance traffic among all the links. This is done by using
//! weighted links."
//!
//! We reproduce that behaviour: for every ordered switch pair we walk a
//! shortest *legal* path hop by hop, always choosing the next hop (among
//! those on some shortest legal path) whose directed channel has accumulated
//! the least weight, then charging the chosen channels. Ties break on the
//! lower switch id and lower link id, which keeps the whole computation
//! deterministic.

use regnet_topology::{LinkId, Orientation, SwitchId, Topology};

use crate::legal::{LegalDistances, Phase};

/// Options for the [`simple_routes`] computation.
#[derive(Debug, Clone)]
pub struct SimpleRoutesConfig {
    /// Weight added to each directed channel a selected route crosses.
    pub weight_increment: u32,
}

impl Default for SimpleRoutesConfig {
    fn default() -> Self {
        SimpleRoutesConfig {
            weight_increment: 1,
        }
    }
}

/// One selected path per ordered switch pair, indexed `[src][dst]` and
/// stored back to back: pair `i = src * n + dst` visits
/// `switches[off[i]..off[i + 1]]`.
#[derive(Debug, Clone)]
pub struct PairPaths {
    n: usize,
    off: Vec<u32>,
    switches: Vec<SwitchId>,
}

impl PairPaths {
    /// The switches the selected path from `src` to `dst` visits. For
    /// `src == dst` this is the trivial single-switch path.
    pub fn get(&self, src: SwitchId, dst: SwitchId) -> &[SwitchId] {
        let i = src.idx() * self.n + dst.idx();
        &self.switches[self.off[i] as usize..self.off[i + 1] as usize]
    }

    /// Iterate over all ordered distinct pairs with their paths.
    pub fn iter(&self) -> impl Iterator<Item = (SwitchId, SwitchId, &[SwitchId])> + '_ {
        let ids = move || (0..self.n as u32).map(SwitchId);
        ids()
            .flat_map(move |s| ids().map(move |d| (s, d)))
            .filter(|(s, d)| s != d)
            .map(|(s, d)| (s, d, self.get(s, d)))
    }
}

/// A neighbour-list entry as the route walk reads it.
#[derive(Debug, Clone, Copy)]
struct Hop {
    to: SwitchId,
    link: LinkId,
    /// Is the move onto `to` an up move?
    up: bool,
    /// The directed channel's weight slot: two per link, the second for
    /// travel from the higher-id end.
    slot: u32,
}

/// Compute one balanced up\*/down\* route per ordered switch pair.
///
/// Routes are selected among the *shortest legal* paths; like the real
/// `simple_routes`, the result is deterministic and attempts to even out the
/// per-channel route counts.
pub fn simple_routes(topo: &Topology, orient: &Orientation, cfg: &SimpleRoutesConfig) -> PairPaths {
    let n = topo.num_switches();
    let legal_all = LegalDistances::all_destinations(topo, orient);
    // Every switch's neighbour list, in `switch_neighbors` order.
    let mut hop_off = Vec::with_capacity(n + 1);
    hop_off.push(0);
    let mut hops = Vec::new();
    for from in topo.switches() {
        hops.extend(topo.switch_neighbors(from).map(|(_, to, link)| Hop {
            to,
            link,
            up: orient.is_up_move(from, to),
            slot: link.0 * 2 + u32::from(from > to),
        }));
        hop_off.push(hops.len());
    }
    let mut weights = vec![0u32; topo.num_links() * 2];
    // The slots of the route being walked: charged once it is chosen.
    let mut chosen: Vec<u32> = Vec::new();
    let mut off = Vec::with_capacity(n * n + 1);
    off.push(0);
    // A pair's path is its legal distance in hops, plus one switch.
    let mut switches = Vec::with_capacity(
        legal_all
            .iter()
            .map(|legal| {
                topo.switches()
                    .map(|s| legal.from(s) as usize + 1)
                    .sum::<usize>()
            })
            .sum(),
    );

    for s in 0..n as u32 {
        for d in 0..n as u32 {
            let (src, dst) = (SwitchId(s), SwitchId(d));
            let legal = &legal_all[dst.idx()];
            let mut cur = src;
            let mut phase = Phase::Up;
            switches.push(src);
            while cur != dst {
                let remaining = legal.from_state(cur, phase);
                debug_assert!(remaining > 0 && remaining != u16::MAX);
                // Candidate next hops: neighbours reachable by a legal move
                // that lie on some shortest legal path.
                let mut best: Option<&Hop> = None;
                for h in &hops[hop_off[cur.idx()]..hop_off[cur.idx() + 1]] {
                    if phase == Phase::Down && h.up {
                        continue; // down -> up forbidden
                    }
                    let next_phase = if h.up { Phase::Up } else { Phase::Down };
                    if legal.from_state(h.to, next_phase) != remaining - 1 {
                        continue;
                    }
                    let key = |h: &Hop| (weights[h.slot as usize], h.to, h.link);
                    if best.is_none_or(|b| key(h) < key(b)) {
                        best = Some(h);
                    }
                }
                let h = best.expect("legal distance > 0 implies a legal next hop exists");
                chosen.push(h.slot);
                if !h.up {
                    phase = Phase::Down;
                }
                cur = h.to;
                switches.push(cur);
            }
            for slot in chosen.drain(..) {
                weights[slot as usize] += cfg.weight_increment;
            }
            off.push(switches.len() as u32);
        }
    }

    debug_assert_eq!(switches.len(), switches.capacity(), "reserved exactly");
    PairPaths { n, off, switches }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use regnet_mapper::{discover, FaultSet};
    use regnet_topology::{gen, DistanceMatrix, HostId};

    use crate::path::SwitchPath;

    // The per-pair implementation `simple_routes` replaced, kept verbatim
    // (but for its name and the bare path vector it returns, indexed
    // `src * n + dst`) as the oracle: every tie-break and every weight
    // charge is what the UP/DOWN tables were built with, so
    // `simple_routes` must reproduce it path for path.

    /// Directed-channel weight table: two slots per link (one per direction).
    struct Weights {
        w: Vec<u32>,
    }

    impl Weights {
        fn new(topo: &Topology) -> Weights {
            Weights {
                w: vec![0; topo.num_links() * 2],
            }
        }

        fn slot(link: LinkId, from: SwitchId, to: SwitchId) -> usize {
            // Direction bit: travelling from the lower-id switch end or not.
            link.idx() * 2 + usize::from(from > to)
        }

        fn get(&self, link: LinkId, from: SwitchId, to: SwitchId) -> u32 {
            self.w[Self::slot(link, from, to)]
        }

        fn add(&mut self, link: LinkId, from: SwitchId, to: SwitchId, inc: u32) {
            self.w[Self::slot(link, from, to)] += inc;
        }
    }

    pub(super) fn reference_simple_routes(
        topo: &Topology,
        orient: &Orientation,
        cfg: &SimpleRoutesConfig,
    ) -> Vec<SwitchPath> {
        let n = topo.num_switches();
        let legal_all = LegalDistances::all_destinations(topo, orient);
        let mut weights = Weights::new(topo);
        let mut paths = Vec::with_capacity(n * n);

        for s in 0..n as u32 {
            for d in 0..n as u32 {
                let (src, dst) = (SwitchId(s), SwitchId(d));
                if src == dst {
                    paths.push(SwitchPath::new(vec![src]));
                    continue;
                }
                let legal = &legal_all[dst.idx()];
                let mut cur = src;
                let mut phase = Phase::Up;
                let mut walk = vec![src];
                let mut chosen_links: Vec<(LinkId, SwitchId, SwitchId)> = Vec::new();
                while cur != dst {
                    let remaining = legal.from_state(cur, phase);
                    debug_assert!(remaining > 0 && remaining != u16::MAX);
                    // Candidate next hops: neighbours reachable by a legal move
                    // that lie on some shortest legal path.
                    let mut best: Option<(u32, SwitchId, LinkId)> = None;
                    for (_, t, link) in topo.switch_neighbors(cur) {
                        let up = orient.is_up_move(cur, t);
                        if phase == Phase::Down && up {
                            continue; // down -> up forbidden
                        }
                        let next_phase = if up { Phase::Up } else { Phase::Down };
                        if legal.from_state(t, next_phase) != remaining - 1 {
                            continue;
                        }
                        let w = weights.get(link, cur, t);
                        let cand = (w, t, link);
                        best = Some(match best {
                            None => cand,
                            Some(b) => {
                                if (cand.0, cand.1, cand.2) < (b.0, b.1, b.2) {
                                    cand
                                } else {
                                    b
                                }
                            }
                        });
                    }
                    let (_, t, link) =
                        best.expect("legal distance > 0 implies a legal next hop exists");
                    chosen_links.push((link, cur, t));
                    if !orient.is_up_move(cur, t) {
                        phase = Phase::Down;
                    }
                    cur = t;
                    walk.push(t);
                }
                for (link, from, to) in chosen_links {
                    weights.add(link, from, to, cfg.weight_increment);
                }
                paths.push(SwitchPath::new(walk));
            }
        }

        paths
    }

    fn is_minimal(p: &[SwitchId], dm: &DistanceMatrix) -> bool {
        SwitchPath::new(p.to_vec()).is_minimal(dm)
    }

    /// Every path `simple_routes` selects on `topo`, for each of its
    /// switches as the up*/down* root, equals the oracle's.
    fn assert_matches_oracle(topo: &Topology) -> Result<(), TestCaseError> {
        let n = topo.num_switches();
        for root in [SwitchId(0), SwitchId(n as u32 / 2)] {
            let orient = Orientation::compute(topo, root);
            for inc in [1, 0] {
                let cfg = SimpleRoutesConfig {
                    weight_increment: inc,
                };
                let got = simple_routes(topo, &orient, &cfg);
                let want = reference_simple_routes(topo, &orient, &cfg);
                for s in topo.switches() {
                    for d in topo.switches() {
                        prop_assert_eq!(
                            got.get(s, d),
                            want[s.idx() * n + d.idx()].switches(),
                            "root {} increment {}: {}->{}",
                            root,
                            inc,
                            s,
                            d
                        );
                    }
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Irregular networks with parallel links (the tie-break falls to
        /// the link id) and hostless switches.
        #[test]
        fn simple_routes_match_oracle_on_irregular_multigraphs(
            n in 3usize..14,
            extra in 0usize..16,
            seed in any::<u64>(),
        ) {
            let topo = gen::irregular_multigraph(n, extra, seed).unwrap();
            assert_matches_oracle(&topo)?;
        }

        /// Re-mapped networks: renumbered in BFS order from the seed host
        /// (so port order is not id order) and missing the failed links.
        #[test]
        fn simple_routes_match_oracle_on_discovered_topologies(
            n in 4usize..16,
            deg in 2usize..5,
            dead in proptest::collection::vec(any::<u32>(), 0..4),
            seed in any::<u64>(),
        ) {
            let physical = gen::irregular_random(n, deg, 1, seed).unwrap();
            let mut faults = FaultSet::new();
            for pick in dead {
                let link = &physical.links()[pick as usize % physical.num_links()];
                if link.is_switch_link() {
                    faults.kill_link(link.id);
                }
            }
            if let Ok(d) = discover(&physical, &faults, HostId(0)) {
                assert_matches_oracle(&d.topo)?;
            }
        }
    }

    #[test]
    fn paper_topologies_match_oracle() {
        for topo in [
            gen::torus_2d(8, 8, 8).unwrap(),
            gen::torus_2d_express(8, 8, 8).unwrap(),
            gen::cplant().unwrap(),
        ] {
            assert_matches_oracle(&topo).unwrap();
        }
    }

    fn routes_for(topo: &Topology) -> (PairPaths, Orientation) {
        let orient = Orientation::compute(topo, SwitchId(0));
        let routes = simple_routes(topo, &orient, &SimpleRoutesConfig::default());
        (routes, orient)
    }

    #[test]
    fn all_routes_are_legal_and_connected() {
        let topo = gen::torus_2d(4, 4, 1).unwrap();
        let (routes, orient) = routes_for(&topo);
        for (s, d, p) in routes.iter() {
            let p = SwitchPath::new(p.to_vec());
            assert_eq!(p.src(), s);
            assert_eq!(p.dst(), d);
            assert!(p.is_connected(&topo), "{p} not connected");
            assert!(p.is_legal(&orient), "{p} not legal");
        }
    }

    #[test]
    fn routes_are_shortest_legal() {
        let topo = gen::torus_2d(4, 4, 1).unwrap();
        let (routes, orient) = routes_for(&topo);
        for d in topo.switches() {
            let legal = LegalDistances::to_dest(&topo, &orient, d);
            for s in topo.switches() {
                if s != d {
                    assert_eq!(
                        routes.get(s, d).len() - 1,
                        legal.from(s) as usize,
                        "{s}->{d}"
                    );
                }
            }
        }
    }

    #[test]
    fn torus_minimal_fraction_matches_paper() {
        // Paper: "80% of the paths computed by the original Myrinet routing
        // algorithm are minimal paths" on the 8x8 torus.
        let topo = gen::torus_2d(8, 8, 1).unwrap();
        let (routes, _) = routes_for(&topo);
        let dm = DistanceMatrix::compute(&topo);
        let total = 64 * 63;
        let minimal = routes.iter().filter(|(_, _, p)| is_minimal(p, &dm)).count();
        let frac = minimal as f64 / total as f64;
        assert!(
            (0.72..=0.88).contains(&frac),
            "minimal fraction {frac}, paper says ~0.80"
        );
    }

    #[test]
    fn torus_average_distance_matches_paper() {
        // Paper: average up*/down* distance 4.57 links vs 4.06 minimal on
        // the 8x8 torus (host pairs; switch pairs differ only through the
        // same-switch pairs, which contribute zero either way).
        let topo = gen::torus_2d(8, 8, 1).unwrap();
        let (routes, _) = routes_for(&topo);
        let lens: Vec<usize> = routes.iter().map(|(_, _, p)| p.len() - 1).collect();
        let avg = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
        assert!(
            (4.3..=4.9).contains(&avg),
            "avg up*/down* distance {avg}, paper says 4.57"
        );
        let dm = DistanceMatrix::compute(&topo);
        assert!((dm.average() - 4.06).abs() < 0.1, "{}", dm.average());
    }

    #[test]
    fn cplant_routes_are_all_minimal() {
        // Paper: "UP/DOWN always uses minimal paths in this topology".
        // Our reconstruction should be at least overwhelmingly minimal.
        let topo = gen::cplant().unwrap();
        let (routes, _) = routes_for(&topo);
        let dm = DistanceMatrix::compute(&topo);
        let total = routes.iter().count();
        let minimal = routes.iter().filter(|(_, _, p)| is_minimal(p, &dm)).count();
        let frac = minimal as f64 / total as f64;
        assert!(frac > 0.9, "cplant minimal fraction {frac}");
    }

    #[test]
    fn deterministic() {
        let topo = gen::torus_2d(4, 4, 1).unwrap();
        let (a, _) = routes_for(&topo);
        let (b, _) = routes_for(&topo);
        for (s, d, p) in a.iter() {
            assert_eq!(p, b.get(s, d));
        }
    }

    #[test]
    fn balancing_beats_naive_first_choice() {
        // With weights disabled (increment 0) the walk always takes the
        // lowest-id candidate; with balancing on, the maximum number of
        // routes crossing any single directed channel must not increase.
        let topo = gen::torus_2d(8, 8, 1).unwrap();
        let orient = Orientation::compute(&topo, SwitchId(0));
        let max_chan_load = |routes: &PairPaths| -> usize {
            let mut load = std::collections::HashMap::new();
            for (_, _, p) in routes.iter() {
                for hop in p.windows(2) {
                    *load.entry((hop[0], hop[1])).or_insert(0usize) += 1;
                }
            }
            load.values().copied().max().unwrap()
        };
        let balanced = simple_routes(&topo, &orient, &SimpleRoutesConfig::default());
        let naive = simple_routes(
            &topo,
            &orient,
            &SimpleRoutesConfig {
                weight_increment: 0,
            },
        );
        assert!(max_chan_load(&balanced) <= max_chan_load(&naive));
    }
}
