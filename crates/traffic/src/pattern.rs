//! Message destination distributions.

use rand::Rng;

use regnet_topology::{DistanceMatrix, HostId, Topology};

/// Declarative description of a traffic pattern (section 4.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PatternSpec {
    /// Every other host is equally likely ("the most widely used pattern").
    Uniform,
    /// Destination is the bit-reversed source id. Requires a power-of-two
    /// host count; hosts whose reversed id equals themselves stay silent
    /// (a self-send never enters the network).
    BitReversal,
    /// With probability `fraction`, the destination is `host`; otherwise
    /// uniform. The paper draws 10 random hotspot locations per topology.
    Hotspot { fraction: f64, host: HostId },
    /// Destination is uniform among hosts at most `max_switch_dist` switch
    /// links away (the paper studies 3 and 4).
    Local { max_switch_dist: u16 },
}

impl PatternSpec {
    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            PatternSpec::Uniform => "uniform".into(),
            PatternSpec::BitReversal => "bit-reversal".into(),
            PatternSpec::Hotspot { fraction, host } => {
                format!("hotspot-{:.0}%-at-{host}", fraction * 100.0)
            }
            PatternSpec::Local { max_switch_dist } => format!("local-{max_switch_dist}"),
        }
    }
}

/// A pattern resolved against a concrete topology: precomputes whatever
/// lookup tables the distribution needs and then draws destinations in O(1)
/// (O(candidates) for local).
#[derive(Debug, Clone)]
pub struct Pattern {
    spec: PatternSpec,
    n_hosts: u32,
    /// For `BitReversal`: dest per source (u32::MAX = silent host).
    fixed: Option<Vec<u32>>,
    /// For `Local`: candidate hosts per source switch (may include the
    /// source host; `dest` redraws).
    local: Option<Vec<Vec<u32>>>,
}

impl Pattern {
    /// Resolve `spec` over `topo`. Fails when the pattern's preconditions do
    /// not hold (e.g. bit-reversal on a non-power-of-two host count).
    pub fn resolve(spec: PatternSpec, topo: &Topology) -> Result<Pattern, String> {
        let n = topo.num_hosts() as u32;
        let mut fixed = None;
        let mut local = None;
        match spec {
            PatternSpec::Uniform => {}
            PatternSpec::BitReversal => {
                if !n.is_power_of_two() {
                    return Err(format!(
                        "bit-reversal needs a power-of-two host count, got {n}"
                    ));
                }
                let bits = n.trailing_zeros();
                fixed = Some(
                    (0..n)
                        .map(|src| {
                            let rev = src.reverse_bits() >> (32 - bits);
                            if rev == src {
                                u32::MAX
                            } else {
                                rev
                            }
                        })
                        .collect(),
                );
            }
            PatternSpec::Hotspot { fraction, host } => {
                if !(0.0..=1.0).contains(&fraction) {
                    return Err(format!("hotspot fraction {fraction} out of [0,1]"));
                }
                if host.idx() >= n as usize {
                    return Err(format!("hotspot host {host} does not exist"));
                }
            }
            PatternSpec::Local { max_switch_dist } => {
                let dm = DistanceMatrix::compute(topo);
                let mut per_switch = Vec::with_capacity(topo.num_switches());
                for s in topo.switches() {
                    let mut cands = Vec::new();
                    for t in dm.within(s, max_switch_dist) {
                        cands.extend(topo.hosts_of(t).iter().map(|h| h.0));
                    }
                    cands.sort_unstable();
                    per_switch.push(cands);
                }
                local = Some(per_switch);
            }
        }
        Ok(Pattern {
            spec,
            n_hosts: n,
            fixed,
            local,
        })
    }

    /// The spec this pattern was resolved from.
    pub fn spec(&self) -> PatternSpec {
        self.spec
    }

    /// Draw the destination for a message from `src`.
    ///
    /// Returns `None` when the host does not generate traffic under this
    /// pattern (bit-reversal hosts that map to themselves).
    pub fn dest(&self, src: HostId, topo: &Topology, rng: &mut impl Rng) -> Option<HostId> {
        match self.spec {
            PatternSpec::Uniform => Some(self.uniform_other(src, rng)),
            PatternSpec::BitReversal => {
                let d = self.fixed.as_ref().expect("resolved")[src.idx()];
                if d == u32::MAX {
                    None
                } else {
                    Some(HostId(d))
                }
            }
            PatternSpec::Hotspot { fraction, host } => {
                if src != host && rng.gen::<f64>() < fraction {
                    Some(host)
                } else {
                    Some(self.uniform_other(src, rng))
                }
            }
            PatternSpec::Local { .. } => {
                let sw = topo.host_switch(src);
                let cands = &self.local.as_ref().expect("resolved")[sw.idx()];
                debug_assert!(cands.len() > 1);
                loop {
                    let d = cands[rng.gen_range(0..cands.len())];
                    if d != src.0 {
                        return Some(HostId(d));
                    }
                }
            }
        }
    }

    fn uniform_other(&self, src: HostId, rng: &mut impl Rng) -> HostId {
        // Uniform over all hosts except the source.
        let d = rng.gen_range(0..self.n_hosts - 1);
        HostId(if d >= src.0 { d + 1 } else { d })
    }

    /// Do all hosts generate under this pattern? (False for permutations
    /// with fixed points.)
    pub fn host_generates(&self, src: HostId) -> bool {
        match &self.fixed {
            Some(f) => f[src.idx()] != u32::MAX,
            None => true,
        }
    }
}

/// Draw `count` distinct random hotspot hosts, as the paper does ("the
/// selected hotspot location is chosen randomly; 10 different simulations
/// are performed using 10 different hotspot locations").
pub fn random_hotspots(topo: &Topology, count: usize, rng: &mut impl Rng) -> Vec<HostId> {
    use rand::seq::SliceRandom;
    let mut hosts: Vec<HostId> = topo.hosts().collect();
    hosts.shuffle(rng);
    hosts.truncate(count);
    hosts
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use regnet_topology::gen;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn uniform_never_self_and_covers_all() {
        let topo = gen::torus_2d(4, 4, 2).unwrap();
        let p = Pattern::resolve(PatternSpec::Uniform, &topo).unwrap();
        let mut rng = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5000 {
            let d = p.dest(HostId(5), &topo, &mut rng).unwrap();
            assert_ne!(d, HostId(5));
            seen.insert(d);
        }
        assert_eq!(seen.len(), topo.num_hosts() - 1);
    }

    #[test]
    fn bit_reversal_is_a_permutation_with_silent_palindromes() {
        let topo = gen::torus_2d(8, 8, 8).unwrap(); // 512 hosts
        let p = Pattern::resolve(PatternSpec::BitReversal, &topo).unwrap();
        let mut rng = rng();
        // 9-bit palindromes: 2^5 = 32 silent hosts.
        let silent = topo.hosts().filter(|&h| !p.host_generates(h)).count();
        assert_eq!(silent, 32);
        let mut dests = std::collections::HashSet::new();
        for src in topo.hosts() {
            match p.dest(src, &topo, &mut rng) {
                Some(d) => {
                    assert_ne!(d, src);
                    assert!(dests.insert(d), "duplicate destination {d}");
                    // Involution: reversing twice returns to the source.
                    assert_eq!(p.dest(d, &topo, &mut rng), Some(src));
                }
                None => assert!(!p.host_generates(src)),
            }
        }
    }

    #[test]
    fn bit_reversal_rejects_non_power_of_two() {
        let topo = gen::cplant().unwrap(); // 400 hosts
        assert!(Pattern::resolve(PatternSpec::BitReversal, &topo).is_err());
    }

    #[test]
    fn hotspot_frequency() {
        let topo = gen::torus_2d(4, 4, 2).unwrap();
        let hs = HostId(9);
        let p = Pattern::resolve(
            PatternSpec::Hotspot {
                fraction: 0.10,
                host: hs,
            },
            &topo,
        )
        .unwrap();
        let mut rng = rng();
        let n = 40_000;
        let mut hits = 0;
        for _ in 0..n {
            if p.dest(HostId(0), &topo, &mut rng).unwrap() == hs {
                hits += 1;
            }
        }
        // ~10% to the hotspot plus ~1/31 of the remaining uniform share.
        let frac = hits as f64 / n as f64;
        let expected = 0.10 + 0.90 / 31.0;
        assert!(
            (frac - expected).abs() < 0.01,
            "hotspot frequency {frac}, expected ~{expected}"
        );
    }

    #[test]
    fn hotspot_host_does_not_target_itself() {
        let topo = gen::torus_2d(4, 4, 2).unwrap();
        let hs = HostId(9);
        let p = Pattern::resolve(
            PatternSpec::Hotspot {
                fraction: 0.5,
                host: hs,
            },
            &topo,
        )
        .unwrap();
        let mut rng = rng();
        for _ in 0..1000 {
            assert_ne!(p.dest(hs, &topo, &mut rng).unwrap(), hs);
        }
    }

    #[test]
    fn hotspot_validation() {
        let topo = gen::torus_2d(4, 4, 1).unwrap();
        assert!(Pattern::resolve(
            PatternSpec::Hotspot {
                fraction: 1.5,
                host: HostId(0)
            },
            &topo
        )
        .is_err());
        assert!(Pattern::resolve(
            PatternSpec::Hotspot {
                fraction: 0.1,
                host: HostId(999)
            },
            &topo
        )
        .is_err());
    }

    #[test]
    fn local_respects_radius() {
        let topo = gen::torus_2d(8, 8, 2).unwrap();
        let dm = DistanceMatrix::compute(&topo);
        let p = Pattern::resolve(PatternSpec::Local { max_switch_dist: 3 }, &topo).unwrap();
        let mut rng = rng();
        for _ in 0..2000 {
            let src = HostId(rng.gen_range(0..topo.num_hosts() as u32));
            let d = p.dest(src, &topo, &mut rng).unwrap();
            assert_ne!(d, src);
            let dist = dm.get(topo.host_switch(src), topo.host_switch(d));
            assert!(dist <= 3, "dest {dist} switches away");
        }
    }

    #[test]
    fn random_hotspots_distinct_and_seeded() {
        let topo = gen::torus_2d(8, 8, 8).unwrap();
        let mut r1 = SmallRng::seed_from_u64(99);
        let a = random_hotspots(&topo, 10, &mut r1);
        let mut r2 = SmallRng::seed_from_u64(99);
        let b = random_hotspots(&topo, 10, &mut r2);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        let set: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn labels() {
        assert_eq!(PatternSpec::Uniform.label(), "uniform");
        assert_eq!(
            PatternSpec::Hotspot {
                fraction: 0.05,
                host: HostId(3)
            }
            .label(),
            "hotspot-5%-at-h3"
        );
        assert_eq!(PatternSpec::Local { max_switch_dist: 3 }.label(), "local-3");
    }
}
