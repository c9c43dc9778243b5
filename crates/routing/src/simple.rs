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
use crate::path::SwitchPath;

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

/// One selected path per ordered switch pair, indexed `[src][dst]`.
#[derive(Debug, Clone)]
pub struct PairPaths {
    n: usize,
    paths: Vec<SwitchPath>,
}

impl PairPaths {
    /// The selected path from `src` to `dst`. For `src == dst` this is the
    /// trivial single-switch path.
    pub fn get(&self, src: SwitchId, dst: SwitchId) -> &SwitchPath {
        &self.paths[src.idx() * self.n + dst.idx()]
    }

    /// Iterate over all ordered distinct pairs with their paths.
    pub fn iter(&self) -> impl Iterator<Item = (SwitchId, SwitchId, &SwitchPath)> + '_ {
        (0..self.n).flat_map(move |s| {
            (0..self.n).filter_map(move |d| {
                if s == d {
                    None
                } else {
                    Some((
                        SwitchId(s as u32),
                        SwitchId(d as u32),
                        &self.paths[s * self.n + d],
                    ))
                }
            })
        })
    }
}

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

/// Compute one balanced up\*/down\* route per ordered switch pair.
///
/// Routes are selected among the *shortest legal* paths; like the real
/// `simple_routes`, the result is deterministic and attempts to even out the
/// per-channel route counts.
pub fn simple_routes(topo: &Topology, orient: &Orientation, cfg: &SimpleRoutesConfig) -> PairPaths {
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

    PairPaths { n, paths }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regnet_topology::{gen, DistanceMatrix};

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
                        routes.get(s, d).len_links(),
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
        let minimal = routes.iter().filter(|(_, _, p)| p.is_minimal(&dm)).count();
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
        let lens: Vec<usize> = routes.iter().map(|(_, _, p)| p.len_links()).collect();
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
        let minimal = routes.iter().filter(|(_, _, p)| p.is_minimal(&dm)).count();
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
                for (a, b) in p.hops() {
                    *load.entry((a, b)).or_insert(0usize) += 1;
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
