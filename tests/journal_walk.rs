//! The simulator against the port-byte walk: a message sent alone on an
//! empty network must arrive at exactly the switches and input ports its
//! header, walked on the topology ([`PortWalk`]), leads to, be ejected at
//! exactly the in-transit hosts the walk reaches, and be delivered at its
//! destination. The kernel reads header bytes one switch at a time and
//! never consults the walk, so the two are independent readings of the
//! same bytes.

use proptest::prelude::*;

use regnet::core::{Hop, PortWalk};
use regnet::netsim::EventKind;
use regnet::prelude::*;
use regnet::topology::{Port, PortTarget};
use regnet::traffic::{Pattern, PatternSpec};

/// What the journal says happened to a packet, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Arrive(SwitchId, Port),
    Eject(HostId),
    Deliver(HostId),
}

/// The steps a packet with `header` takes from `src`, read off the walk:
/// it enters its first switch through `src`'s link; each switch hop
/// arrives at the far end's port; an in-transit host ejects it and
/// re-injects through its own link; the last host delivers it.
fn walked_steps(topo: &Topology, src: HostId, header: &Header) -> Vec<Step> {
    let enter = |h: HostId| Step::Arrive(topo.host_switch(h), topo.host_port(h));
    let bytes = header.bytes().iter().copied();
    let hops: Vec<Hop> = PortWalk::new(topo, topo.host_switch(src), bytes)
        .collect::<Result<_, _>>()
        .unwrap_or_else(|end| panic!("{src}: {end}"));
    let mut steps = vec![enter(src)];
    for (i, hop) in hops.iter().enumerate() {
        match hop.to {
            PortTarget::Switch { to, to_port, .. } => steps.push(Step::Arrive(to, to_port)),
            PortTarget::Host { host, .. } if i + 1 == hops.len() => steps.push(Step::Deliver(host)),
            PortTarget::Host { host, .. } => steps.extend([Step::Eject(host), enter(host)]),
        }
    }
    steps
}

/// Send each of `pairs` alone on an empty network (the next only once the
/// last has drained) and check its journal entries against the walk of
/// the header a fresh selector, drawing in the same message order, writes.
/// Returns how many in-transit ejections the messages took.
fn journal_follows_the_walk(
    topo: &Topology,
    scheme: RoutingScheme,
    pairs: &[(HostId, HostId)],
) -> usize {
    let db = RouteDb::build(topo, scheme, &RouteDbConfig::default());
    let pattern = Pattern::resolve(PatternSpec::Uniform, topo).unwrap();
    let cfg = SimConfig {
        payload_flits: 16,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo, &db, &pattern, cfg, 1e-9, 1);
    sim.stop_generation();
    // Far more room than the messages' entries: nothing is evicted.
    let capacity = 64 * pairs.len() * topo.num_switches();
    sim.enable_events(EventOptions { capacity });
    let (mut selector, mut ejects) = (db.selector(), 0);
    for &(src, dst) in pairs {
        let header = db.select(topo, src, dst, &mut selector);
        let seen = sim.journal().unwrap().len();
        sim.schedule_message(src, dst, sim.cycle());
        sim.run_until_drained(1_000_000)
            .expect("a lone message drains");
        let journal = sim.journal().unwrap();
        let got: Vec<Step> = journal
            .events()
            .skip(seen)
            .filter_map(|e| match e.kind {
                EventKind::SwitchArrival { sw, port } => {
                    Some(Step::Arrive(SwitchId(sw), Port(port)))
                }
                EventKind::ItbEject { host, .. } => Some(Step::Eject(HostId(host))),
                EventKind::Deliver { dst } => Some(Step::Deliver(HostId(dst))),
                _ => None,
            })
            .collect();
        let want = walked_steps(topo, src, &header);
        assert_eq!(got, want, "{} {scheme} {src}->{dst}", topo.name());
        assert_eq!(want.last(), Some(&Step::Deliver(dst)));
        ejects += want.iter().filter(|s| matches!(s, Step::Eject(_))).count();
    }
    assert_eq!(sim.journal().unwrap().evicted(), 0);
    ejects
}

/// A fixed sample of `n` ordered host pairs, no host to itself.
fn sample_pairs(topo: &Topology, n: usize) -> Vec<(HostId, HostId)> {
    let h = topo.num_hosts();
    (0..n)
        .map(|i| {
            (
                HostId((i * 37 % h) as u32),
                HostId(((i * 61 + 11) % h) as u32),
            )
        })
        .filter(|(s, d)| s != d)
        .collect()
}

const SCHEMES: [RoutingScheme; 3] = [
    RoutingScheme::UpDown,
    RoutingScheme::ItbSp,
    RoutingScheme::ItbRr,
];

#[test]
fn journal_follows_the_walk_on_the_paper_topologies() {
    for topo in [
        gen::torus_2d(8, 8, 8).unwrap(),
        gen::torus_2d_express(8, 8, 8).unwrap(),
        gen::cplant().unwrap(),
    ] {
        let pairs = sample_pairs(&topo, 48);
        for scheme in SCHEMES {
            let ejects = journal_follows_the_walk(&topo, scheme, &pairs);
            assert_eq!(ejects > 0, scheme.uses_itbs(), "{} {scheme}", topo.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The same on random multigraphs: parallel links, hostless switches.
    #[test]
    fn journal_follows_the_walk_on_multigraphs(
        n in 3usize..10,
        extra in 0usize..10,
        seed in any::<u64>(),
        pick in 0usize..3,
    ) {
        let topo = gen::irregular_multigraph(n, extra, seed).unwrap();
        journal_follows_the_walk(&topo, SCHEMES[pick], &sample_pairs(&topo, 16));
    }
}
