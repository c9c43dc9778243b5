//! Property-based tests of the shard partitioner behind the parallel
//! cycle engine: on random irregular topologies and arbitrary requested
//! shard counts, the plan must cover every component exactly once, keep
//! the shards balanced, and only ever put the pipelined (delay ≥ 1)
//! switch↔switch links across a shard boundary — the lookahead the
//! engine's two-region barrier design depends on (`DESIGN.md` §6).

use proptest::prelude::*;

use regnet::netsim::ShardPlan;
use regnet::prelude::*;
use regnet::topology::LinkEnd;

fn arb_setup() -> impl Strategy<Value = (Topology, usize)> {
    ((4usize..24, 2usize..4, 1usize..3, 0u64..1000), 1usize..9).prop_map(
        |((n, deg, hosts, tseed), shards)| {
            (
                gen::irregular_random(n, deg, hosts, tseed).expect("topology"),
                shards,
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every switch and every NIC lands in exactly one shard, and every
    /// shard is non-empty.
    #[test]
    fn every_component_in_exactly_one_shard((topo, shards) in arb_setup()) {
        let plan = ShardPlan::new(&topo, shards);
        prop_assert!(plan.n_shards() >= 1);
        prop_assert!(plan.n_shards() <= shards);
        prop_assert!(plan.n_shards() <= topo.num_switches());
        let mut seen = vec![0usize; plan.n_shards()];
        for sw in 0..topo.num_switches() {
            let s = plan.switch_shard(sw);
            prop_assert!(s < plan.n_shards(), "switch {sw} in out-of-range shard {s}");
            seen[s] += 1;
        }
        prop_assert!(seen.iter().all(|&c| c > 0), "empty shard: {seen:?}");
        prop_assert_eq!(seen.iter().sum::<usize>(), topo.num_switches());
        prop_assert_eq!(&seen, &plan.switch_counts());
        for h in topo.hosts() {
            let s = plan.nic_shard(h.idx());
            prop_assert!(s < plan.n_shards());
            // NICs follow their host switch, so NIC↔switch channels are
            // intra-shard by construction.
            prop_assert_eq!(s, plan.switch_shard(topo.host_switch(h).idx()));
        }
    }

    /// Shard switch counts are balanced within a factor of two (contiguous
    /// BFS blocks differ by at most one switch).
    #[test]
    fn shards_balanced_within_factor_two((topo, shards) in arb_setup()) {
        let plan = ShardPlan::new(&topo, shards);
        let counts = plan.switch_counts();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        prop_assert!(max - min <= 1, "blocks must differ by at most one: {counts:?}");
        prop_assert!(max <= 2 * min, "balance factor exceeded: {counts:?}");
    }

    /// Every channel that can cross a shard boundary is a switch↔switch
    /// link, and every channel in the simulator carries at least one cycle
    /// of delay — the conservative lookahead that lets one shard read
    /// another's previous-cycle output without synchronization.
    #[test]
    fn cross_shard_channels_have_lookahead((topo, shards) in arb_setup()) {
        let plan = ShardPlan::new(&topo, shards);
        let cfg = SimConfig::default();
        prop_assert!(cfg.link_delay_cycles >= 1, "channels must be pipelined");
        for link in topo.links() {
            let shard_of = |end: &LinkEnd| match *end {
                LinkEnd::Switch { sw, .. } => plan.switch_shard(sw.idx()),
                LinkEnd::Host { host } => plan.nic_shard(host.idx()),
            };
            let (a, b) = (shard_of(&link.ends[0]), shard_of(&link.ends[1]));
            if a != b {
                prop_assert!(
                    link.is_switch_link(),
                    "only switch links may cross shards, link {:?} does not",
                    link.id
                );
            }
        }
    }
}
