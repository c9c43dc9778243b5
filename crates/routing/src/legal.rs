//! Shortest *legal* up\*/down\* distances via BFS on the (switch, phase)
//! product graph.

use std::collections::VecDeque;

use regnet_topology::{Orientation, SwitchId, Topology};

/// The routing phase of a packet under the up\*/down\* rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// The packet may still take "up" links (it has not taken a "down" link
    /// yet).
    Up,
    /// The packet has taken a "down" link; only "down" links remain legal.
    Down,
}

/// Shortest legal up\*/down\* distance from every `(switch, phase)` state to
/// one destination switch.
///
/// Built by a backward BFS over the product graph with states
/// `(switch, phase)` and the forward transitions
///
/// * `(s, Up) → (t, Up)`   when `s→t` is an up move,
/// * `(s, Up) → (t, Down)` when `s→t` is a down move,
/// * `(s, Down) → (t, Down)` when `s→t` is a down move.
///
/// The distance of a fresh packet at `s` is [`LegalDistances::from`]`(s)`,
/// i.e. the `Up`-phase distance.
#[derive(Debug, Clone)]
pub struct LegalDistances {
    dest: SwitchId,
    /// `dist[2*s + 0]` = distance from `(s, Up)`, `dist[2*s + 1]` from
    /// `(s, Down)`.
    dist: Vec<u16>,
}

impl LegalDistances {
    /// Backward BFS from `dest`.
    pub fn to_dest(topo: &Topology, orient: &Orientation, dest: SwitchId) -> LegalDistances {
        LegalDistances::bfs(topo, orient, dest, &mut VecDeque::new())
    }

    /// [`to_dest`](LegalDistances::to_dest) with the caller's (empty)
    /// BFS queue.
    fn bfs(
        topo: &Topology,
        orient: &Orientation,
        dest: SwitchId,
        queue: &mut VecDeque<(SwitchId, Phase)>,
    ) -> LegalDistances {
        let n = topo.num_switches();
        let mut dist = vec![u16::MAX; 2 * n];
        dist[2 * dest.idx()] = 0;
        dist[2 * dest.idx() + 1] = 0;
        queue.push_back((dest, Phase::Up));
        queue.push_back((dest, Phase::Down));
        while let Some((t, ph_t)) = queue.pop_front() {
            let d = dist[2 * t.idx() + (ph_t == Phase::Down) as usize];
            for (_, s, _) in topo.switch_neighbors(t) {
                let up_move = orient.is_up_move(s, t);
                // Which predecessor states (s, ph_s) transition into (t, ph_t)?
                let preds: &[Phase] = match (up_move, ph_t) {
                    (true, Phase::Up) => &[Phase::Up],
                    (true, Phase::Down) => &[],
                    (false, Phase::Down) => &[Phase::Up, Phase::Down],
                    (false, Phase::Up) => &[],
                };
                for &ph_s in preds {
                    let slot = 2 * s.idx() + (ph_s == Phase::Down) as usize;
                    if dist[slot] == u16::MAX {
                        dist[slot] = d + 1;
                        queue.push_back((s, ph_s));
                    }
                }
            }
        }
        LegalDistances { dest, dist }
    }

    /// The destination these distances lead to.
    pub fn dest(&self) -> SwitchId {
        self.dest
    }

    /// Shortest legal distance from `s` for a fresh packet (phase `Up`).
    #[inline]
    pub fn from(&self, s: SwitchId) -> u16 {
        self.dist[2 * s.idx()]
    }

    /// Shortest legal distance from the state `(s, phase)`.
    #[inline]
    pub fn from_state(&self, s: SwitchId, phase: Phase) -> u16 {
        self.dist[2 * s.idx() + (phase == Phase::Down) as usize]
    }

    /// Compute legal distances for every destination. Returns one entry per
    /// switch, indexed by destination id.
    pub fn all_destinations(topo: &Topology, orient: &Orientation) -> Vec<LegalDistances> {
        let mut queue = VecDeque::with_capacity(2 * topo.num_switches());
        topo.switches()
            .map(|d| LegalDistances::bfs(topo, orient, d, &mut queue))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regnet_topology::{gen, DistanceMatrix};

    #[test]
    fn every_pair_is_reachable_legally() {
        // up*/down* is connected: the tree alone provides a legal route
        // (up to the common ancestor, then down).
        for topo in [
            gen::torus_2d(4, 4, 1).unwrap(),
            gen::torus_2d_express(4, 4, 1).unwrap(),
            gen::cplant().unwrap(),
        ] {
            let orient = Orientation::compute(&topo, SwitchId(0));
            for d in topo.switches() {
                let legal = LegalDistances::to_dest(&topo, &orient, d);
                for s in topo.switches() {
                    assert_ne!(legal.from(s), u16::MAX, "{s} cannot reach {d}");
                }
            }
        }
    }

    #[test]
    fn legal_distance_bounds() {
        let topo = gen::torus_2d(8, 8, 1).unwrap();
        let orient = Orientation::compute(&topo, SwitchId(0));
        let dm = DistanceMatrix::compute(&topo);
        let mut some_pair_longer = false;
        for d in topo.switches() {
            let legal = LegalDistances::to_dest(&topo, &orient, d);
            for s in topo.switches() {
                // Legal distance can never beat the graph distance...
                assert!(legal.from(s) >= dm.get(s, d));
                // ...and never exceeds the tree route (level(s) + level(d)).
                assert!(legal.from(s) as u32 <= orient.level(s) + orient.level(d));
                if legal.from(s) > dm.get(s, d) {
                    some_pair_longer = true;
                }
                // Down-phase is at least as constrained as up-phase.
                assert!(legal.from_state(s, Phase::Down) >= legal.from_state(s, Phase::Up));
            }
        }
        // The paper: ~20% of torus pairs have no minimal legal path.
        assert!(some_pair_longer, "expected some forbidden minimal paths");
    }

    #[test]
    fn dest_distance_is_zero() {
        let topo = gen::torus_2d(4, 4, 1).unwrap();
        let orient = Orientation::compute(&topo, SwitchId(0));
        let legal = LegalDistances::to_dest(&topo, &orient, SwitchId(9));
        assert_eq!(legal.from(SwitchId(9)), 0);
        assert_eq!(legal.from_state(SwitchId(9), Phase::Down), 0);
        assert_eq!(legal.dest(), SwitchId(9));
    }

    #[test]
    fn forbidden_fraction_on_paper_torus() {
        // Paper (section 4.7.1): on the 8x8 torus, 80% of up*/down* pairs
        // have a minimal legal path available. Check our machinery sees a
        // comparable forbidden fraction (the exact number depends on which
        // paths simple_routes picks; here we measure availability).
        let topo = gen::torus_2d(8, 8, 1).unwrap();
        let orient = Orientation::compute(&topo, SwitchId(0));
        let dm = DistanceMatrix::compute(&topo);
        let mut minimal_ok = 0usize;
        let mut total = 0usize;
        for d in topo.switches() {
            let legal = LegalDistances::to_dest(&topo, &orient, d);
            for s in topo.switches() {
                if s == d {
                    continue;
                }
                total += 1;
                if legal.from(s) == dm.get(s, d) {
                    minimal_ok += 1;
                }
            }
        }
        let frac = minimal_ok as f64 / total as f64;
        assert!(
            (0.70..=0.92).contains(&frac),
            "minimal-legal fraction {frac} out of expected band"
        );
    }
}
