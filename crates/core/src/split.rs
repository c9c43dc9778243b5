//! Splitting a minimal path into up\*/down\*-legal segments with in-transit
//! hosts at the forbidden transitions — the heart of the ITB mechanism.

use regnet_routing::SwitchPath;
use regnet_topology::{HostId, Orientation, Port, SwitchId, Topology};

use crate::header::ITB_MARK;

/// Strategy for picking which of a switch's hosts serves as the in-transit
/// host. The paper attaches 8 hosts per switch; spreading in-transit load
/// over them avoids overloading a single NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItbHostPicker {
    /// Always the first host of the switch.
    First,
    /// Deterministic hash of (source switch, destination switch, segment
    /// index), spreading in-transit load across the switch's hosts.
    Spread,
}

impl ItbHostPicker {
    fn pick(self, topo: &Topology, sw: SwitchId, key: u64) -> Option<HostId> {
        let hosts = topo.hosts_of(sw);
        if hosts.is_empty() {
            return None;
        }
        Some(match self {
            ItbHostPicker::First => hosts[0],
            ItbHostPicker::Spread => {
                // Fibonacci hash of the key.
                let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
                // `h` has 32 bits: the narrow division gives the same host.
                hosts[(h as u32 % hosts.len() as u32) as usize]
            }
        })
    }
}

/// Split a (typically minimal) path into up\*/down\*-legal segments.
///
/// Walk the path tracking the up\*/down\* phase; on each forbidden down→up
/// transition, end the current segment at an in-transit host attached to the
/// current switch and start a new segment there (phase resets to "up",
/// because a freshly injected packet has taken no link yet).
///
/// Returns the route in owned form ([`RouteRef::to_owned`]): each
/// segment's port bytes, an in-transit one's ending with its host's port
/// byte and an ITB mark. The final segment is one port byte short (the
/// destination host's port ends the header written for a host pair).
///
/// [`RouteRef::to_owned`]: crate::RouteRef::to_owned
///
/// Panics if a switch at a transition point has no hosts (the mechanism
/// needs a NIC to buffer in); in the paper's topologies every switch has 8.
/// Use [`try_split_minimal_path`] when hostless switches are possible
/// (e.g. on degraded networks after failures).
pub fn split_minimal_path(
    topo: &Topology,
    orient: &Orientation,
    path: &SwitchPath,
    picker: ItbHostPicker,
) -> Vec<Port> {
    try_split_minimal_path(topo, orient, path, picker)
        .unwrap_or_else(|| panic!("{}", no_itb_host(path.switches())))
}

/// Like [`split_minimal_path`], but returns `None` when the path needs an
/// in-transit buffer at a switch that has no hosts attached (the packet
/// cannot be ejected there, so the path is unusable under the ITB
/// mechanism).
pub fn try_split_minimal_path(
    topo: &Topology,
    orient: &Orientation,
    path: &SwitchPath,
    picker: ItbHostPicker,
) -> Option<Vec<Port>> {
    let mut template = TemplateSink {
        topo,
        bytes: Vec::new(),
    };
    split_into(topo, orient, path.switches(), picker, &mut template).then_some(template.bytes)
}

/// Where [`split_into`] writes a route, segment by segment. The sink picks
/// each hop's port byte: a table build reads it from a per-build
/// `(from, to) → ports` table (and may relabel every id, see
/// [`Relabel`](crate::Relabel)), a route's owned bytes for one-path
/// callers scan the topology.
pub(crate) trait SplitSink {
    /// A segment visits `switches`, its hop `i` (from `switches[i]`)
    /// taking parallel link `spread + i` modulo the links between its
    /// ends, and ends in `itb`, an in-transit host at its last switch, or
    /// with `None` at the destination switch one port byte short (the
    /// destination host's ends the header written for a host pair).
    fn segment(&mut self, switches: &[SwitchId], spread: usize, itb: Option<HostId>);
}

struct TemplateSink<'a> {
    topo: &'a Topology,
    bytes: Vec<Port>,
}

impl SplitSink for TemplateSink<'_> {
    fn segment(&mut self, switches: &[SwitchId], spread: usize, itb: Option<HostId>) {
        // One port byte per hop, then the in-transit host's and a mark.
        self.bytes
            .extend(switches.windows(2).enumerate().map(|(i, w)| {
                let parallel = self.topo.ports_to(w[0], w[1]).count();
                debug_assert!(parallel > 0, "path not connected at {}->{}", w[0], w[1]);
                let port = self
                    .topo
                    .ports_to(w[0], w[1])
                    .nth(spread.wrapping_add(i) % parallel);
                port.expect("taken modulo the count")
            }));
        if let Some(h) = itb {
            self.bytes.extend([self.topo.host_port(h), ITB_MARK]);
        }
    }
}

/// The splitter itself: write the split of the path visiting `switches`
/// into `route`. Returns `false` when the path needs an in-transit buffer
/// at a hostless switch; what was written so far is the caller's to
/// discard.
pub(crate) fn split_into(
    topo: &Topology,
    orient: &Orientation,
    switches: &[SwitchId],
    picker: ItbHostPicker,
    route: &mut impl SplitSink,
) -> bool {
    let (src_sw, dst_sw) = (switches[0], switches[switches.len() - 1]);
    // Hop `i` spreads across parallel links by `spread + i`.
    let spread = pair_key(src_sw, dst_sw) as usize;
    // The open segment starts at `switches[start]`.
    let mut start = 0;
    let mut seen_down = false;
    for (hop_idx, w) in switches.windows(2).enumerate() {
        let (a, b) = (w[0], w[1]);
        let up = orient.is_up_move(a, b);
        if seen_down && up {
            // Forbidden transition: eject at `a` into an in-transit host.
            let key = pair_key(src_sw, dst_sw) ^ (hop_idx as u64) << 1;
            let Some(itb_host) = picker.pick(topo, a, key) else {
                return false;
            };
            debug_assert_eq!(topo.host_switch(itb_host), a);
            let segment = &switches[start..=hop_idx];
            route.segment(segment, spread.wrapping_add(start), Some(itb_host));
            start = hop_idx;
            seen_down = false;
        }
        seen_down |= !up;
    }
    route.segment(&switches[start..], spread.wrapping_add(start), None);
    true
}

pub(crate) fn no_itb_host(switches: &[SwitchId]) -> String {
    format!(
        "in-transit buffer needs a host at a transition switch of {}, but it has none",
        SwitchPath::new(switches.to_vec())
    )
}

fn pair_key(a: SwitchId, b: SwitchId) -> u64 {
    ((a.0 as u64) << 32) | b.0 as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{Header, PortWalk};
    use regnet_topology::{gen, DistanceMatrix, PortTarget, TopologyBuilder};

    /// The segments of `path`'s split: each one's switches, walked on
    /// `topo` from the path's first switch, and the in-transit host it
    /// ends in, if any.
    fn segments(
        topo: &Topology,
        path: &SwitchPath,
        bytes: &[Port],
    ) -> Vec<(SwitchPath, Option<HostId>)> {
        let mut segs = vec![(vec![path.src()], None)];
        for hop in PortWalk::new(topo, path.src(), bytes.iter().copied()) {
            match hop.expect("a port byte of the split").to {
                PortTarget::Switch { to, .. } => segs.last_mut().unwrap().0.push(to),
                PortTarget::Host { host, .. } => {
                    segs.last_mut().unwrap().1 = Some(host);
                    segs.push((vec![topo.host_switch(host)], None));
                }
            }
        }
        segs.into_iter()
            .map(|(s, end)| (SwitchPath::new(s), end))
            .collect()
    }

    /// Split `path`: every segment must itself be a legal up*/down* path,
    /// an in-transit one ending where its host is attached, and the
    /// segments must cross the path's links and no more.
    fn split_legally(
        topo: &Topology,
        orient: &Orientation,
        path: &SwitchPath,
        picker: ItbHostPicker,
    ) -> Vec<(SwitchPath, Option<HostId>)> {
        let bytes = split_minimal_path(topo, orient, path, picker);
        let segs = segments(topo, path, &bytes);
        for (p, end) in &segs {
            assert!(p.is_legal(orient), "segment {p} not legal");
            if let Some(h) = *end {
                assert_eq!(topo.host_switch(h), p.dst());
            }
        }
        let links: usize = segs.iter().map(|(p, _)| p.len_links()).sum();
        assert_eq!(links, path.len_links());
        assert_eq!(
            bytes.iter().filter(|&&p| p == ITB_MARK).count(),
            segs.len() - 1
        );
        segs
    }

    fn ring4() -> (Topology, Orientation) {
        let mut b = TopologyBuilder::new("ring4", 4);
        b.add_switches(4);
        for i in 0..4u32 {
            b.connect(SwitchId(i), SwitchId((i + 1) % 4)).unwrap();
        }
        b.attach_hosts_everywhere(2).unwrap();
        let topo = b.build().unwrap();
        let orient = Orientation::compute(&topo, SwitchId(0));
        (topo, orient)
    }

    #[test]
    fn no_split_for_legal_path() {
        let (topo, orient) = ring4();
        // 2 -> 1 -> 0 is all-up: no ITB needed.
        let p = SwitchPath::new(vec![SwitchId(2), SwitchId(1), SwitchId(0)]);
        let segs = split_legally(&topo, &orient, &p, ItbHostPicker::First);
        assert_eq!(segs, [(p.clone(), None)]);
        // Ports: 2->1, 1->0; destination port appended later.
        let bytes = split_minimal_path(&topo, &orient, &p, ItbHostPicker::First);
        assert_eq!(bytes.len(), 2);
    }

    #[test]
    fn split_at_forbidden_transition() {
        let (topo, orient) = ring4();
        // Levels: [0,1,2,1]. Path 1 -> 2 -> 3: 1->2 down, 2->3 up: forbidden
        // at hop 1, so an ITB is placed at switch 2.
        let p = SwitchPath::new(vec![SwitchId(1), SwitchId(2), SwitchId(3)]);
        let segs = split_legally(&topo, &orient, &p, ItbHostPicker::First);
        let itb = topo.hosts_of(SwitchId(2))[0];
        let halves = [[1, 2], [2, 3]].map(|s| SwitchPath::new(s.map(SwitchId).to_vec()));
        let [first, second] = halves;
        assert_eq!(segs, [(first, Some(itb)), (second, None)]);
        // Segment 0: 1->2 plus the ITB host port (complete) and a mark;
        // segment 1: 2->3 only (destination port appended later).
        let hop = |a, b| topo.port_to(SwitchId(a), SwitchId(b)).unwrap();
        assert_eq!(
            split_minimal_path(&topo, &orient, &p, ItbHostPicker::First),
            [hop(1, 2), topo.host_port(itb), ITB_MARK, hop(2, 3)]
        );
    }

    #[test]
    fn all_minimal_paths_split_into_legal_segments_on_paper_torus() {
        let topo = gen::torus_2d(8, 8, 8).unwrap();
        let orient = Orientation::compute(&topo, SwitchId(0));
        let dm = DistanceMatrix::compute(&topo);
        let mut total_itbs = 0usize;
        let mut pairs = 0usize;
        for s in topo.switches() {
            for d in topo.switches() {
                if s == d {
                    continue;
                }
                let paths = regnet_routing::minimal::k_minimal_paths(&topo, &dm, s, d, 2, 11);
                for p in paths {
                    assert_eq!(p.len_links(), dm.get(s, d) as usize);
                    let segs = split_legally(&topo, &orient, &p, ItbHostPicker::Spread);
                    total_itbs += segs.len() - 1;
                    pairs += 1;
                }
            }
        }
        // Paper: 0.43-0.54 ITBs per message on average under uniform
        // traffic. The per-path average over all pairs is in the same band.
        let avg = total_itbs as f64 / pairs as f64;
        assert!(
            (0.2..=0.9).contains(&avg),
            "avg ITBs per minimal path = {avg}"
        );
    }

    #[test]
    fn spread_picker_uses_multiple_hosts() {
        let topo = gen::torus_2d(8, 8, 8).unwrap();
        let orient = Orientation::compute(&topo, SwitchId(0));
        let dm = DistanceMatrix::compute(&topo);
        let mut used = std::collections::HashSet::new();
        for s in topo.switches() {
            for d in topo.switches() {
                if s == d {
                    continue;
                }
                for p in regnet_routing::minimal::k_minimal_paths(&topo, &dm, s, d, 2, 3) {
                    for (_, end) in split_legally(&topo, &orient, &p, ItbHostPicker::Spread) {
                        if let Some(h) = end {
                            used.insert((topo.host_switch(h), h));
                        }
                    }
                }
            }
        }
        // Group by switch: at least one switch should use >1 distinct host.
        let mut per_switch = std::collections::HashMap::new();
        for (sw, h) in used {
            per_switch.entry(sw).or_insert_with(Vec::new).push(h);
        }
        assert!(
            per_switch.values().any(|v| v.len() > 1),
            "Spread picker never varied the in-transit host"
        );
    }

    #[test]
    fn split_route_writes_a_well_formed_header() {
        let (topo, orient) = ring4();
        let p = SwitchPath::new(vec![SwitchId(1), SwitchId(2), SwitchId(3)]);
        let bytes = split_minimal_path(&topo, &orient, &p, ItbHostPicker::First);
        let itb = topo.hosts_of(SwitchId(2))[0];
        let (src, dst) = (topo.hosts_of(SwitchId(1))[0], topo.hosts_of(SwitchId(3))[1]);
        let header = Header::new([&bytes[..], &[topo.host_port(dst)]].concat());
        assert_eq!(header.walk(&topo, src), Ok(vec![itb, dst]));
        // seg0 = [1->2, itb host port], seg1 = [2->3, dst port], plus
        // 1 mark + 1 type = 6.
        assert_eq!(header.header_flits_entering_segment(0), 6);
    }
}
