//! Enumeration and counting of graph-minimal paths.
//!
//! The in-transit buffer mechanism routes every packet on a *minimal* path;
//! the round-robin policy additionally wants several alternative minimal
//! paths per pair (the paper caps the routing table at 10 alternatives).
//!
//! Both questions are answered by [`MinimalDag`], the shortest-path DAG
//! towards one destination. A route table asks it once per source;
//! [`k_minimal_paths`] is the one-pair convenience over it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use regnet_topology::{DistanceMatrix, SwitchId, Topology};

use crate::path::SwitchPath;

/// The minimal-path DAG towards one destination switch: from any switch,
/// the neighbours one link closer to `dst`, and how many distinct minimal
/// paths lead on from there.
///
/// The path count of a switch is the sum over its next hops, i.e. a
/// property of the *destination*; it is memoised here so that every source
/// asking about the same destination shares the work. Queries allocate
/// nothing but what the caller's [`PathSet`] grows to.
#[derive(Debug, Clone)]
pub struct MinimalDag<'a> {
    topo: &'a Topology,
    dm: &'a DistanceMatrix,
    dst: SwitchId,
    /// Minimal paths from each switch to `dst` (each of several parallel
    /// links making a path of its own), saturating at `u64::MAX`. 0 = not
    /// computed yet: every switch of a connected network has a path.
    counts: Vec<u64>,
}

/// Equal-length switch paths stored back to back: what
/// [`MinimalDag::k_paths`] fills. Reuse one across queries to keep them
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct PathSet {
    /// Switches per path (distance + 1).
    stride: usize,
    /// The paths found, `stride` switches each, in discovery order.
    switches: Vec<SwitchId>,
    /// Which paths are handed out, and in which order: indices of
    /// `stride`-sized chunks of `switches`.
    order: Vec<u32>,
    /// The path being extended.
    walk: Vec<SwitchId>,
    /// DFS candidates, one sorted run per level of `walk`.
    candidates: Vec<SwitchId>,
}

impl PathSet {
    /// Number of paths.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The paths, each as the switches it visits, in lexicographic order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[SwitchId]> + '_ {
        self.order
            .iter()
            .map(|&i| chunk(&self.switches, self.stride, i))
    }

    /// Paths found so far (before ordering).
    fn found(&self) -> usize {
        self.switches.len() / self.stride
    }
}

/// The `i`-th `stride`-sized chunk of `switches`.
fn chunk(switches: &[SwitchId], stride: usize, i: u32) -> &[SwitchId] {
    &switches[i as usize * stride..(i as usize + 1) * stride]
}

impl<'a> MinimalDag<'a> {
    /// The DAG of minimal paths towards `dst`.
    pub fn new(topo: &'a Topology, dm: &'a DistanceMatrix, dst: SwitchId) -> MinimalDag<'a> {
        let mut counts = vec![0u64; topo.num_switches()];
        counts[dst.idx()] = 1;
        MinimalDag {
            topo,
            dm,
            dst,
            counts,
        }
    }

    /// The neighbours of `s` one link closer to the destination, in
    /// `switch_neighbors` (port) order, once per parallel link.
    fn next_hops(&self, s: SwitchId) -> impl Iterator<Item = SwitchId> + 'a {
        let (dm, dst) = (self.dm, self.dst);
        let ds = dm.get(s, dst);
        self.topo
            .switch_neighbors(s)
            .filter(move |&(_, t, _)| dm.get(t, dst) + 1 == ds)
            .map(|(_, t, _)| t)
    }

    /// Number of distinct minimal paths from `src` to the destination.
    /// Saturates at `u64::MAX`.
    pub fn count(&mut self, src: SwitchId) -> u64 {
        if self.counts[src.idx()] == 0 {
            let mut total = 0u64;
            for t in self.next_hops(src) {
                total = total.saturating_add(self.count(t));
            }
            self.counts[src.idx()] = total;
        }
        self.counts[src.idx()]
    }

    /// Fill `out` with up to `k` distinct minimal paths from `src` to the
    /// destination.
    ///
    /// Pairs with few minimal paths (at most `4k`) yield the
    /// lexicographically first `k`; the others are sampled by seeded
    /// randomised walks over the DAG, which yields a diverse sample (walks
    /// that share long prefixes are no more likely than the DAG structure
    /// dictates). The result is deterministic for a given `seed`, sorted
    /// for stability, and is the full set when fewer than `k` minimal
    /// paths exist.
    pub fn k_paths(&mut self, src: SwitchId, k: usize, seed: u64, out: &mut PathSet) {
        let dst = self.dst;
        out.stride = self.dm.get(src, dst) as usize + 1;
        out.switches.clear();
        out.walk.clear();
        out.walk.push(src);
        let total = self.count(src);
        let want = (total.min(k as u64)) as usize;

        out.switches.reserve(want * out.stride);
        out.walk.reserve(out.stride);
        if total <= k as u64 * 4 {
            // Few enough paths: take the first `k` of the exhaustive
            // enumeration. The DFS visits next hops in ascending order, so
            // it emits paths in lexicographic order and can stop there.
            self.dfs(out, k);
        } else {
            // Sample by randomised walks until `want` distinct paths are found.
            let mut rng = SmallRng::seed_from_u64(seed ^ ((src.0 as u64) << 32) ^ dst.0 as u64);
            let mut tries = 0;
            let max_tries = 200 * k;
            while out.found() < want && tries < max_tries {
                tries += 1;
                out.walk.truncate(1);
                let mut cur = src;
                while cur != dst {
                    let choices = self.next_hops(cur).count();
                    cur = self
                        .next_hops(cur)
                        .nth(rng.gen_range(0..choices))
                        .expect("drawn below the count");
                    out.walk.push(cur);
                }
                if !out.switches.chunks_exact(out.stride).any(|p| p == out.walk) {
                    out.switches.extend_from_slice(&out.walk);
                }
            }
        }
        // Both branches find each path once, so sorting needs no dedup.
        out.order.clear();
        out.order.extend(0..out.found() as u32);
        let (stride, switches) = (out.stride, &out.switches);
        out.order
            .sort_unstable_by_key(|&i| chunk(switches, stride, i));
        out.order.truncate(k);
    }

    /// Append the minimal paths that extend `out.walk`, in lexicographic
    /// order (next hops are visited in ascending switch order), until `out`
    /// holds `cap` paths.
    fn dfs(&self, out: &mut PathSet, cap: usize) {
        if out.found() >= cap {
            return;
        }
        let cur = *out.walk.last().expect("the walk starts at the source");
        if cur == self.dst {
            out.switches.extend_from_slice(&out.walk);
            return;
        }
        let base = out.candidates.len();
        out.candidates.extend(self.next_hops(cur));
        out.candidates[base..].sort_unstable();
        for i in base..out.candidates.len() {
            let t = out.candidates[i];
            // Parallel links lead to the same switch path: take it once.
            if i > base && out.candidates[i - 1] == t {
                continue;
            }
            out.walk.push(t);
            self.dfs(out, cap);
            out.walk.pop();
        }
        out.candidates.truncate(base);
    }
}

/// Enumerate up to `k` distinct minimal paths from `src` to `dst`: one
/// [`MinimalDag::k_paths`] query, as owned paths.
pub fn k_minimal_paths(
    topo: &Topology,
    dm: &DistanceMatrix,
    src: SwitchId,
    dst: SwitchId,
    k: usize,
    seed: u64,
) -> Vec<SwitchPath> {
    let mut paths = PathSet::default();
    MinimalDag::new(topo, dm, dst).k_paths(src, k, seed, &mut paths);
    paths.iter().map(|p| SwitchPath::new(p.to_vec())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use regnet_mapper::{discover, FaultSet};
    use regnet_topology::{gen, HostId, TopologyBuilder};

    // The per-pair implementations `MinimalDag` replaced, kept verbatim as
    // oracles: every RNG draw, the `total <= 4k` DFS/walk split, the
    // `200 * k` try budget and the final sort/dedup/truncate are what the
    // route tables were built with, so `MinimalDag` must reproduce them
    // path for path.

    pub(super) fn reference_count_minimal_paths(
        topo: &Topology,
        dm: &DistanceMatrix,
        src: SwitchId,
        dst: SwitchId,
    ) -> u64 {
        if src == dst {
            return 1;
        }
        let d = dm.get(src, dst);
        // counts[s] = number of minimal paths from s to dst, filled in by
        // increasing distance from dst.
        let mut order: Vec<SwitchId> = topo.switches().filter(|&s| dm.get(s, dst) <= d).collect();
        order.sort_unstable_by_key(|&s| dm.get(s, dst));
        let mut counts = vec![0u64; topo.num_switches()];
        counts[dst.idx()] = 1;
        for &s in order.iter().skip(1) {
            let ds = dm.get(s, dst);
            let mut total: u64 = 0;
            for (_, t, _) in topo.switch_neighbors(s) {
                if dm.get(t, dst) + 1 == ds {
                    total = total.saturating_add(counts[t.idx()]);
                }
            }
            counts[s.idx()] = total;
        }
        counts[src.idx()]
    }

    pub(super) fn reference_k_minimal_paths(
        topo: &Topology,
        dm: &DistanceMatrix,
        src: SwitchId,
        dst: SwitchId,
        k: usize,
        seed: u64,
    ) -> Vec<SwitchPath> {
        if k == 0 {
            return Vec::new();
        }
        if src == dst {
            return vec![SwitchPath::new(vec![src])];
        }
        let total = reference_count_minimal_paths(topo, dm, src, dst);
        let want = (total.min(k as u64)) as usize;

        let mut found: Vec<Vec<SwitchId>> = Vec::with_capacity(want);
        if total <= k as u64 * 4 {
            // Few enough paths: enumerate exhaustively by DFS, then subsample.
            let mut stack = vec![src];
            dfs_all(topo, dm, dst, &mut stack, &mut found, k * 4);
        } else {
            // Sample by randomised walks until `want` distinct paths are found.
            let mut rng = SmallRng::seed_from_u64(seed ^ ((src.0 as u64) << 32) ^ dst.0 as u64);
            let mut tries = 0;
            let max_tries = 200 * k;
            while found.len() < want && tries < max_tries {
                tries += 1;
                let mut walk = vec![src];
                let mut cur = src;
                while cur != dst {
                    let dc = dm.get(cur, dst);
                    let nexts: Vec<SwitchId> = topo
                        .switch_neighbors(cur)
                        .filter(|&(_, t, _)| dm.get(t, dst) + 1 == dc)
                        .map(|(_, t, _)| t)
                        .collect();
                    cur = nexts[rng.gen_range(0..nexts.len())];
                    walk.push(cur);
                }
                if !found.contains(&walk) {
                    found.push(walk);
                }
            }
        }
        found.sort_unstable();
        found.dedup();
        found.truncate(k);
        found.into_iter().map(SwitchPath::new).collect()
    }

    fn dfs_all(
        topo: &Topology,
        dm: &DistanceMatrix,
        dst: SwitchId,
        stack: &mut Vec<SwitchId>,
        out: &mut Vec<Vec<SwitchId>>,
        cap: usize,
    ) {
        if out.len() >= cap {
            return;
        }
        let cur = *stack.last().unwrap();
        if cur == dst {
            out.push(stack.clone());
            return;
        }
        let dc = dm.get(cur, dst);
        let mut nexts: Vec<SwitchId> = topo
            .switch_neighbors(cur)
            .filter(|&(_, t, _)| dm.get(t, dst) + 1 == dc)
            .map(|(_, t, _)| t)
            .collect();
        nexts.sort_unstable();
        nexts.dedup();
        for t in nexts {
            stack.push(t);
            dfs_all(topo, dm, dst, stack, out, cap);
            stack.pop();
        }
    }

    #[test]
    fn counts_on_torus() {
        let topo = gen::torus_2d(8, 8, 1).unwrap();
        let dm = DistanceMatrix::compute(&topo);
        // Straight line: exactly one minimal path.
        assert_eq!(
            MinimalDag::new(&topo, &dm, SwitchId(3)).count(SwitchId(0)),
            1
        );
        // (0,0) -> (2,2): C(4,2) = 6 lattice paths.
        assert_eq!(
            MinimalDag::new(&topo, &dm, SwitchId(18)).count(SwitchId(0)),
            6
        );
        // Same switch: one (empty) path.
        assert_eq!(
            MinimalDag::new(&topo, &dm, SwitchId(5)).count(SwitchId(5)),
            1
        );
    }

    #[test]
    fn enumeration_is_minimal_and_distinct() {
        let topo = gen::torus_2d(8, 8, 1).unwrap();
        let dm = DistanceMatrix::compute(&topo);
        let paths = k_minimal_paths(&topo, &dm, SwitchId(0), SwitchId(18), 10, 7);
        assert_eq!(paths.len(), 6); // only 6 exist
        for p in &paths {
            assert!(p.is_connected(&topo));
            assert!(p.is_minimal(&dm));
            assert_eq!(p.src(), SwitchId(0));
            assert_eq!(p.dst(), SwitchId(18));
        }
        let mut dedup = paths.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), paths.len());
    }

    #[test]
    fn caps_at_k() {
        let topo = gen::torus_2d(8, 8, 1).unwrap();
        let dm = DistanceMatrix::compute(&topo);
        // (0,0) -> (4,4) wraps either way: lots of minimal paths.
        let n = MinimalDag::new(&topo, &dm, SwitchId(36)).count(SwitchId(0));
        assert!(n > 10, "{n}");
        let paths = k_minimal_paths(&topo, &dm, SwitchId(0), SwitchId(36), 10, 3);
        assert_eq!(paths.len(), 10);
        for p in &paths {
            assert!(p.is_minimal(&dm));
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let topo = gen::torus_2d(8, 8, 1).unwrap();
        let dm = DistanceMatrix::compute(&topo);
        let a = k_minimal_paths(&topo, &dm, SwitchId(0), SwitchId(36), 10, 3);
        let b = k_minimal_paths(&topo, &dm, SwitchId(0), SwitchId(36), 10, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn same_switch_pair() {
        let topo = gen::torus_2d(4, 4, 1).unwrap();
        let dm = DistanceMatrix::compute(&topo);
        let p = k_minimal_paths(&topo, &dm, SwitchId(2), SwitchId(2), 10, 0);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].len_links(), 0);
    }

    #[test]
    fn express_torus_counts_consistent() {
        let topo = gen::torus_2d_express(8, 8, 1).unwrap();
        let dm = DistanceMatrix::compute(&topo);
        for (s, d) in [(0u32, 36u32), (0, 9), (3, 60)] {
            let n = MinimalDag::new(&topo, &dm, SwitchId(d)).count(SwitchId(s));
            let paths = k_minimal_paths(&topo, &dm, SwitchId(s), SwitchId(d), 64, 5);
            if n <= 64 {
                assert_eq!(paths.len() as u64, n, "{s}->{d}");
            } else {
                assert_eq!(paths.len(), 64);
            }
        }
    }

    /// Every count and every `k_paths` answer on `topo` equals the oracle's.
    fn assert_matches_oracle(topo: &Topology, seed: u64) -> Result<(), TestCaseError> {
        let dm = DistanceMatrix::compute(topo);
        let mut paths = PathSet::default();
        for d in topo.switches() {
            let mut dag = MinimalDag::new(topo, &dm, d);
            for s in topo.switches() {
                prop_assert_eq!(
                    dag.count(s),
                    reference_count_minimal_paths(topo, &dm, s, d),
                    "count {}->{}",
                    s,
                    d
                );
                for k in [1usize, 2, 10, 64] {
                    dag.k_paths(s, k, seed, &mut paths);
                    let got: Vec<SwitchPath> =
                        paths.iter().map(|p| SwitchPath::new(p.to_vec())).collect();
                    prop_assert_eq!(
                        got,
                        reference_k_minimal_paths(topo, &dm, s, d, k, seed),
                        "{}->{} k={}",
                        s,
                        d,
                        k
                    );
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Irregular networks with parallel links (walks index the
        /// repeated next hops, the DFS must not) and hostless switches.
        #[test]
        fn dag_matches_oracle_on_irregular_multigraphs(
            n in 3usize..14,
            extra in 0usize..16,
            seed in any::<u64>(),
        ) {
            let topo = gen::irregular_multigraph(n, extra, seed).unwrap();
            assert_matches_oracle(&topo, seed)?;
        }

        /// Re-mapped networks: renumbered in BFS order from the seed host
        /// (so port order is not id order) and missing the failed links.
        #[test]
        fn dag_matches_oracle_on_discovered_topologies(
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
                assert_matches_oracle(&d.topo, seed)?;
            }
        }
    }

    /// 65 doubled links in a row: 2^65 link-distinct minimal paths, all
    /// along the one switch path. The count saturates, and the sampler
    /// spends its whole try budget finding that single path again.
    #[test]
    fn saturating_count_and_single_switch_path() {
        let mut b = TopologyBuilder::new("doubled-chain", 8);
        b.add_switches(66);
        for i in 0..65u32 {
            b.connect(SwitchId(i), SwitchId(i + 1)).unwrap();
            b.connect(SwitchId(i), SwitchId(i + 1)).unwrap();
        }
        b.attach_host(SwitchId(0)).unwrap();
        b.attach_host(SwitchId(65)).unwrap();
        let topo = b.build().unwrap();
        let dm = DistanceMatrix::compute(&topo);
        let (src, dst) = (SwitchId(0), SwitchId(65));
        assert_eq!(MinimalDag::new(&topo, &dm, dst).count(src), u64::MAX);
        assert_eq!(
            reference_count_minimal_paths(&topo, &dm, src, dst),
            u64::MAX
        );
        assert_eq!(MinimalDag::new(&topo, &dm, dst).count(SwitchId(2)), 1 << 63);
        let paths = k_minimal_paths(&topo, &dm, src, dst, 2, 9);
        assert_eq!(paths, reference_k_minimal_paths(&topo, &dm, src, dst, 2, 9));
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn zero_paths_requested() {
        let topo = gen::torus_2d(4, 4, 1).unwrap();
        let dm = DistanceMatrix::compute(&topo);
        assert!(k_minimal_paths(&topo, &dm, SwitchId(0), SwitchId(5), 0, 1).is_empty());
        assert!(k_minimal_paths(&topo, &dm, SwitchId(3), SwitchId(3), 0, 1).is_empty());
    }
}
