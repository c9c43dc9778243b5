//! Generators for the topologies evaluated in the paper, plus a few extras
//! used by tests and extensions.
//!
//! All generators attach hosts in switch order so that host ids follow the
//! convention `host = switch * hosts_per_switch + k`.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::error::TopologyError;
use crate::graph::{Topology, TopologyBuilder};
use crate::ids::SwitchId;

/// Default number of ports of a Myrinet switch in the paper.
pub const MYRINET_PORTS: u8 = 16;

fn torus_builder(
    name: String,
    rows: usize,
    cols: usize,
    hosts_per_switch: usize,
    express: bool,
) -> Result<Topology, TopologyError> {
    if rows < 2 || cols < 2 {
        return Err(TopologyError::BadParameters(format!(
            "torus needs rows, cols >= 2 (got {rows}x{cols})"
        )));
    }
    let switch_degree = 4 + if express { 4 } else { 0 };
    let ports_needed = switch_degree + hosts_per_switch;
    let max_ports = ports_needed.max(MYRINET_PORTS as usize);
    if max_ports > u8::MAX as usize {
        return Err(TopologyError::BadParameters(
            "too many ports per switch".into(),
        ));
    }
    let mut b = TopologyBuilder::new(name, max_ports as u8);
    b.add_switches(rows * cols);
    let id = |r: usize, c: usize| SwitchId((r * cols + c) as u32);
    // +1 neighbours in each dimension: every switch owns its "east" and
    // "south" link, so each torus link is created exactly once.
    for r in 0..rows {
        for c in 0..cols {
            b.connect(id(r, c), id(r, (c + 1) % cols))?;
            b.connect(id(r, c), id((r + 1) % rows, c))?;
        }
    }
    if express {
        // Express channels [Dally'91]: links to the second-order neighbour in
        // each dimension. For 4-ary rings +2 == -2, which yields parallel
        // express links — physically two cables, as in a doubled channel.
        for r in 0..rows {
            for c in 0..cols {
                b.connect(id(r, c), id(r, (c + 2) % cols))?;
                b.connect(id(r, c), id((r + 2) % rows, c))?;
            }
        }
    }
    b.attach_hosts_everywhere(hosts_per_switch)?;
    b.build()
}

/// The paper's 2-D torus: `rows × cols` switches, 4 inter-switch links each,
/// `hosts_per_switch` hosts per switch. The evaluated instance is
/// `torus_2d(8, 8, 8)`: 64 switches, 512 hosts, 4 ports left open.
pub fn torus_2d(
    rows: usize,
    cols: usize,
    hosts_per_switch: usize,
) -> Result<Topology, TopologyError> {
    torus_builder(
        format!("torus-{rows}x{cols}"),
        rows,
        cols,
        hosts_per_switch,
        false,
    )
}

/// The paper's 2-D torus with express channels: the torus plus links to the
/// second-order neighbours (two hops away in each dimension). The evaluated
/// instance is `torus_2d_express(8, 8, 8)`: all 16 ports used.
pub fn torus_2d_express(
    rows: usize,
    cols: usize,
    hosts_per_switch: usize,
) -> Result<Topology, TopologyError> {
    torus_builder(
        format!("torus-express-{rows}x{cols}"),
        rows,
        cols,
        hosts_per_switch,
        true,
    )
}

/// A 2-D mesh (no wraparound). Not in the paper's evaluation; used by tests
/// and as an extension topology.
pub fn mesh_2d(
    rows: usize,
    cols: usize,
    hosts_per_switch: usize,
) -> Result<Topology, TopologyError> {
    if rows < 1 || cols < 1 || rows * cols < 2 {
        return Err(TopologyError::BadParameters(format!(
            "mesh needs at least 2 switches (got {rows}x{cols})"
        )));
    }
    let ports_needed = 4 + hosts_per_switch;
    let mut b = TopologyBuilder::new(
        format!("mesh-{rows}x{cols}"),
        ports_needed.max(MYRINET_PORTS as usize) as u8,
    );
    b.add_switches(rows * cols);
    let id = |r: usize, c: usize| SwitchId((r * cols + c) as u32);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.connect(id(r, c), id(r, c + 1))?;
            }
            if r + 1 < rows {
                b.connect(id(r, c), id(r + 1, c))?;
            }
        }
    }
    b.attach_hosts_everywhere(hosts_per_switch)?;
    b.build()
}

/// A binary hypercube of dimension `dim` (2^dim switches).
pub fn hypercube(dim: u32, hosts_per_switch: usize) -> Result<Topology, TopologyError> {
    if dim == 0 || dim > 10 {
        return Err(TopologyError::BadParameters(format!(
            "hypercube dimension must be in 1..=10 (got {dim})"
        )));
    }
    let n = 1usize << dim;
    let ports_needed = dim as usize + hosts_per_switch;
    let mut b = TopologyBuilder::new(
        format!("hypercube-{dim}"),
        ports_needed.max(MYRINET_PORTS as usize) as u8,
    );
    b.add_switches(n);
    for s in 0..n {
        for d in 0..dim {
            let t = s ^ (1 << d);
            if t > s {
                b.connect(SwitchId(s as u32), SwitchId(t as u32))?;
            }
        }
    }
    b.attach_hosts_everywhere(hosts_per_switch)?;
    b.build()
}

/// The Sandia CPLANT network, reconstructed from the paper's prose:
///
/// * 50 16-port switches, 8 hosts each (400 hosts total);
/// * 48 switches in 6 groups of 8; each group is a 3-hypercube plus one
///   link from every switch to the farthest switch in the group (the
///   bit-complement), using 4 intra-group ports;
/// * the 6 groups form an incomplete hypercube (vertices 0–5 of a 3-cube)
///   that "also contains connections between farthest nodes" (we add the
///   complement pairs 2↔5 and 3↔4); switch *i* of a group links to switch
///   *i* of each adjacent group;
/// * the remaining 2 switches form an additional group; we attach the first
///   to switch 0 of every group and the second to switch 7 of every group,
///   and link the two together — the paper only says the result "is not
///   completely regular".
pub fn cplant() -> Result<Topology, TopologyError> {
    const GROUPS: u32 = 6;
    const GROUP_SIZE: u32 = 8;
    let mut b = TopologyBuilder::new("cplant", MYRINET_PORTS);
    b.add_switches((GROUPS * GROUP_SIZE) as usize + 2);
    let id = |g: u32, i: u32| SwitchId(g * GROUP_SIZE + i);
    let extra_a = SwitchId(GROUPS * GROUP_SIZE);
    let extra_b = SwitchId(GROUPS * GROUP_SIZE + 1);

    // Intra-group 3-cube + complement link.
    for g in 0..GROUPS {
        for i in 0..GROUP_SIZE {
            for d in 0..3 {
                let j = i ^ (1 << d);
                if j > i {
                    b.connect(id(g, i), id(g, j))?;
                }
            }
            let j = i ^ 0b111;
            if j > i {
                b.connect(id(g, i), id(g, j))?;
            }
        }
    }

    // Inter-group fabric: incomplete 3-cube on groups 0..6 plus the
    // complement pairs that exist within 0..6.
    let mut group_edges: Vec<(u32, u32)> = Vec::new();
    for a in 0..GROUPS {
        for d in 0..3 {
            let c = a ^ (1 << d);
            if c > a && c < GROUPS {
                group_edges.push((a, c));
            }
        }
        let c = a ^ 0b111;
        if c > a && c < GROUPS {
            group_edges.push((a, c));
        }
    }
    for (ga, gb) in group_edges {
        for i in 0..GROUP_SIZE {
            b.connect(id(ga, i), id(gb, i))?;
        }
    }

    // The additional 2-switch group.
    for g in 0..GROUPS {
        b.connect(extra_a, id(g, 0))?;
        b.connect(extra_b, id(g, 7))?;
    }
    b.connect(extra_a, extra_b)?;

    b.attach_hosts_everywhere(8)?;
    b.build()
}

/// A random connected irregular network, as used in the authors' companion
/// papers on irregular topologies. Each switch gets close to `degree`
/// switch-to-switch links. Deterministic for a given `seed`.
pub fn irregular_random(
    n_switches: usize,
    degree: usize,
    hosts_per_switch: usize,
    seed: u64,
) -> Result<Topology, TopologyError> {
    if n_switches < 2 {
        return Err(TopologyError::BadParameters(
            "need at least 2 switches".into(),
        ));
    }
    if degree < 1 {
        return Err(TopologyError::BadParameters("degree must be >= 1".into()));
    }
    let ports_needed = degree + hosts_per_switch;
    let mut b = TopologyBuilder::new(
        format!("irregular-{n_switches}-d{degree}-s{seed}"),
        ports_needed.max(MYRINET_PORTS as usize) as u8,
    );
    b.add_switches(n_switches);
    let mut rng = SmallRng::seed_from_u64(seed);

    // Random spanning tree first (guarantees connectivity): attach each new
    // switch to a random earlier one.
    let mut deg = vec![0usize; n_switches];
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for s in 1..n_switches {
        let t = rng.gen_range(0..s);
        edges.push((t as u32, s as u32));
        deg[s] += 1;
        deg[t] += 1;
    }
    // Then add random extra links until most switches reach `degree`.
    let mut attempts = 0;
    let max_attempts = n_switches * degree * 20;
    while attempts < max_attempts {
        attempts += 1;
        let mut candidates: Vec<usize> = (0..n_switches).filter(|&s| deg[s] < degree).collect();
        if candidates.len() < 2 {
            break;
        }
        candidates.shuffle(&mut rng);
        let (a, bq) = (candidates[0], candidates[1]);
        let (lo, hi) = (a.min(bq) as u32, a.max(bq) as u32);
        if edges.contains(&(lo, hi)) {
            continue;
        }
        edges.push((lo, hi));
        deg[a] += 1;
        deg[bq] += 1;
    }
    for (a, bq) in edges {
        b.connect(SwitchId(a), SwitchId(bq))?;
    }
    b.attach_hosts_everywhere(hosts_per_switch)?;
    b.build()
}

/// A random connected network of the shapes a degraded, re-mapped network
/// takes: a random spanning tree plus `extra_links` random links that may
/// double existing ones (parallel links), with hosts on only some of the
/// switches (always on switches 0 and 1). Deterministic for a given `seed`.
pub fn irregular_multigraph(
    n_switches: usize,
    extra_links: usize,
    seed: u64,
) -> Result<Topology, TopologyError> {
    if n_switches < 2 {
        return Err(TopologyError::BadParameters(
            "need at least 2 switches".into(),
        ));
    }
    let mut b = TopologyBuilder::new(
        format!("multigraph-{n_switches}-x{extra_links}-s{seed}"),
        (n_switches + extra_links).clamp(MYRINET_PORTS as usize, u8::MAX as usize) as u8,
    );
    b.add_switches(n_switches);
    let mut rng = SmallRng::seed_from_u64(seed);
    for s in 1..n_switches {
        b.connect(SwitchId(rng.gen_range(0..s) as u32), SwitchId(s as u32))?;
    }
    for _ in 0..extra_links {
        let a = rng.gen_range(0..n_switches) as u32;
        let c = rng.gen_range(0..n_switches) as u32;
        if a != c {
            b.connect(SwitchId(a), SwitchId(c))?;
        }
    }
    for s in 0..n_switches {
        if s < 2 || rng.gen_bool(0.6) {
            b.attach_host(SwitchId(s as u32))?;
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::HostId;

    #[test]
    fn paper_torus_dimensions() {
        let t = torus_2d(8, 8, 8).unwrap();
        assert_eq!(t.num_switches(), 64);
        assert_eq!(t.num_hosts(), 512);
        // 64 switches x 4 links / 2 ends = 128 switch links.
        assert_eq!(t.num_switch_links(), 128);
        // 8 hosts + 4 links = 12 occupied ports, 4 left open (paper).
        for s in t.switches() {
            assert_eq!(t.occupied_ports(s), 12);
        }
    }

    #[test]
    fn paper_express_torus_dimensions() {
        let t = torus_2d_express(8, 8, 8).unwrap();
        assert_eq!(t.num_switches(), 64);
        assert_eq!(t.num_hosts(), 512);
        // Twice the links of the plain torus (paper: "the number of links in
        // the network is doubled").
        assert_eq!(t.num_switch_links(), 256);
        // All 16 ports used (paper).
        for s in t.switches() {
            assert_eq!(t.occupied_ports(s), 16);
        }
    }

    #[test]
    fn torus_neighbour_structure() {
        let t = torus_2d(4, 4, 1).unwrap();
        // Switch 0 neighbours: 1 (east), 4 (south), 3 (west wrap), 12 (north wrap).
        let mut n: Vec<u32> = t
            .switch_neighbors(SwitchId(0))
            .map(|(_, s, _)| s.0)
            .collect();
        n.sort_unstable();
        assert_eq!(n, vec![1, 3, 4, 12]);
    }

    #[test]
    fn express_second_order_neighbours() {
        let t = torus_2d_express(8, 8, 1).unwrap();
        let mut n: Vec<u32> = t
            .switch_neighbors(SwitchId(0))
            .map(|(_, s, _)| s.0)
            .collect();
        n.sort_unstable();
        // 1,7 (ring ±1), 8,56 (col ±1), 2,6 (ring ±2), 16,48 (col ±2)
        assert_eq!(n, vec![1, 2, 6, 7, 8, 16, 48, 56]);
    }

    #[test]
    fn cplant_dimensions() {
        let t = cplant().unwrap();
        assert_eq!(t.num_switches(), 50);
        assert_eq!(t.num_hosts(), 400);
        // Every switch within a 16-port budget.
        for s in t.switches() {
            assert!(t.occupied_ports(s) <= 16, "switch {s} over budget");
        }
        // Group switches: 4 intra + >=3 inter + 8 hosts.
        for g in 0..6u32 {
            for i in 0..8u32 {
                let occ = t.occupied_ports(SwitchId(g * 8 + i));
                assert!(occ >= 15, "group switch under-connected: {occ}");
            }
        }
    }

    #[test]
    fn cplant_link_census() {
        // Exact wiring of our reconstruction (documented in DESIGN.md):
        // per group, a 3-cube (12 links) plus 4 complement links; 9 group
        // edges with 8 parallel switch links each; the extra pair of
        // switches adds 6 + 6 + 1 links.
        let t = cplant().unwrap();
        let expected = 6 * (12 + 4) + 9 * 8 + 13;
        assert_eq!(t.num_switch_links(), expected);
        // Inter-group degree of every group switch is exactly 3, so
        // switches 0 and 7 of each group (which also serve the extra pair)
        // fill all 16 ports.
        for g in 0..6u32 {
            assert_eq!(t.occupied_ports(SwitchId(g * 8)), 16);
            assert_eq!(t.occupied_ports(SwitchId(g * 8 + 7)), 16);
        }
    }

    #[test]
    fn mesh_has_no_wrap() {
        let t = mesh_2d(3, 3, 1).unwrap();
        let n: Vec<u32> = t
            .switch_neighbors(SwitchId(0))
            .map(|(_, s, _)| s.0)
            .collect();
        assert_eq!(n.len(), 2); // corner switch: east + south only
        assert_eq!(t.num_switch_links(), 12);
    }

    #[test]
    fn hypercube_structure() {
        let t = hypercube(3, 2).unwrap();
        assert_eq!(t.num_switches(), 8);
        assert_eq!(t.num_switch_links(), 12);
        assert_eq!(t.num_hosts(), 16);
    }

    #[test]
    fn host_id_convention() {
        let t = torus_2d(4, 4, 8).unwrap();
        // host = switch * hosts_per_switch + k
        assert_eq!(t.host_switch(HostId(0)), SwitchId(0));
        assert_eq!(t.host_switch(HostId(7)), SwitchId(0));
        assert_eq!(t.host_switch(HostId(8)), SwitchId(1));
        assert_eq!(t.host_switch(HostId(127)), SwitchId(15));
    }

    #[test]
    fn irregular_is_deterministic_and_connected() {
        let a = irregular_random(16, 4, 2, 42).unwrap();
        let b = irregular_random(16, 4, 2, 42).unwrap();
        assert_eq!(a.num_links(), b.num_links());
        let c = irregular_random(16, 4, 2, 43).unwrap();
        // Different seeds should (almost surely) wire differently.
        let edges = |t: &Topology| -> Vec<(u32, u32)> {
            t.links()
                .iter()
                .filter_map(|l| l.switch_ends())
                .map(|(a, b)| (a.0, b.0))
                .collect()
        };
        assert_eq!(edges(&a), edges(&b));
        assert_ne!(edges(&a), edges(&c));
    }

    #[test]
    fn generators_reject_bad_parameters() {
        assert!(torus_2d(1, 8, 8).is_err());
        assert!(hypercube(0, 1).is_err());
        assert!(hypercube(11, 1).is_err());
        assert!(irregular_random(1, 3, 1, 0).is_err());
        assert!(irregular_random(8, 0, 1, 0).is_err());
        assert!(mesh_2d(1, 1, 1).is_err());
    }

    #[test]
    fn multigraph_has_parallel_links_and_hostless_switches() {
        let (mut parallel, mut hostless) = (false, false);
        for seed in 0..20 {
            let t = irregular_multigraph(8, 10, seed).unwrap();
            assert!(t.num_hosts() >= 2);
            for a in t.switches() {
                hostless |= t.hosts_of(a).is_empty();
                for (_, b, _) in t.switch_neighbors(a) {
                    parallel |= t.ports_to(a, b).count() > 1;
                }
            }
        }
        assert!(parallel && hostless);
    }

    #[test]
    fn two_ary_torus_has_parallel_links() {
        let t = torus_2d(2, 2, 1).unwrap();
        // Each ring of size 2 produces a doubled link.
        assert_eq!(t.ports_to(SwitchId(0), SwitchId(1)).count(), 2);
    }
}
