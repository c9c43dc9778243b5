//! Splitting a minimal path into up\*/down\*-legal segments with in-transit
//! hosts at the forbidden transitions — the heart of the ITB mechanism.

use regnet_routing::SwitchPath;
use regnet_topology::{HostId, Orientation, SwitchId, Topology};

use crate::journey::{JourneyTemplate, Segment, SegmentEnd};

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
/// The returned template's final segment is one port byte short (the
/// destination host's port ends the header written for a host pair); in-transit
/// segments are complete, ending with the in-transit host's port byte.
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
) -> JourneyTemplate {
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
) -> Option<JourneyTemplate> {
    let mut template = TemplateSink {
        topo,
        segments: Vec::new(),
    };
    split_into(topo, orient, path.switches(), picker, &mut template).then_some(JourneyTemplate {
        segments: template.segments,
    })
}

/// Where [`split_into`] writes a route, segment by segment. The sink picks
/// each hop's port byte: a table build reads it from a per-build
/// `(from, to) → ports` table (and may relabel every id, see
/// [`Relabel`](crate::Relabel)), an owned [`JourneyTemplate`] for
/// one-path callers scans the topology.
pub(crate) trait SplitSink {
    /// A segment visits `switches`, its hop `i` (from `switches[i]`)
    /// taking parallel link `spread + i` modulo the links between its
    /// ends, and ends as `end`: in an in-transit host at its last switch,
    /// or at the destination switch one port byte short (the destination
    /// host's ends the header written for a host pair).
    fn segment(&mut self, switches: &[SwitchId], spread: usize, end: SegmentEnd);
}

struct TemplateSink<'a> {
    topo: &'a Topology,
    segments: Vec<Segment>,
}

impl SplitSink for TemplateSink<'_> {
    fn segment(&mut self, switches: &[SwitchId], spread: usize, end: SegmentEnd) {
        // One port byte per hop, and the in-transit host's.
        let mut ports = Vec::with_capacity(switches.len());
        ports.extend(switches.windows(2).enumerate().map(|(i, w)| {
            let parallel = self.topo.ports_to(w[0], w[1]).count();
            debug_assert!(parallel > 0, "path not connected at {}->{}", w[0], w[1]);
            let port = self
                .topo
                .ports_to(w[0], w[1])
                .nth(spread.wrapping_add(i) % parallel);
            port.expect("taken modulo the count")
        }));
        if let SegmentEnd::Itb(h) = end {
            ports.push(self.topo.host_port(h));
        }
        self.segments.push(Segment {
            switches: switches.to_vec(),
            ports,
            end,
        });
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
            route.segment(
                segment,
                spread.wrapping_add(start),
                SegmentEnd::Itb(itb_host),
            );
            start = hop_idx;
            seen_down = false;
        }
        seen_down |= !up;
    }
    route.segment(
        &switches[start..],
        spread.wrapping_add(start),
        SegmentEnd::Deliver,
    );
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
    use crate::header::{Header, ITB_MARK};
    use regnet_topology::{gen, DistanceMatrix, TopologyBuilder};

    /// Every segment of a split must itself be a legal up*/down* path.
    fn assert_segments_legal(t: &JourneyTemplate, orient: &Orientation) {
        for seg in &t.segments {
            let p = SwitchPath::new(seg.switches.clone());
            assert!(p.is_legal(orient), "segment {p} not legal");
        }
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
        let t = split_minimal_path(&topo, &orient, &p, ItbHostPicker::First);
        assert_eq!(t.num_itbs(), 0);
        assert_eq!(t.segments[0].switches.len(), 3);
        // Ports: 2->1, 1->0; destination port appended later.
        assert_eq!(t.segments[0].ports.len(), 2);
        assert_segments_legal(&t, &orient);
    }

    #[test]
    fn split_at_forbidden_transition() {
        let (topo, orient) = ring4();
        // Levels: [0,1,2,1]. Path 1 -> 2 -> 3: 1->2 down, 2->3 up: forbidden
        // at hop 1, so an ITB is placed at switch 2.
        let p = SwitchPath::new(vec![SwitchId(1), SwitchId(2), SwitchId(3)]);
        let t = split_minimal_path(&topo, &orient, &p, ItbHostPicker::First);
        assert_eq!(t.num_itbs(), 1);
        match t.segments[0].end {
            SegmentEnd::Itb(h) => assert_eq!(topo.host_switch(h), SwitchId(2)),
            SegmentEnd::Deliver => panic!("expected ITB end"),
        }
        assert_eq!(t.segments[0].switches, vec![SwitchId(1), SwitchId(2)]);
        assert_eq!(t.segments[1].switches, vec![SwitchId(2), SwitchId(3)]);
        // Segment 0 ports: 1->2 plus the ITB host port (complete).
        assert_eq!(t.segments[0].ports.len(), 2);
        // Segment 1 ports: 2->3 only (destination port appended later).
        assert_eq!(t.segments[1].ports.len(), 1);
        assert_segments_legal(&t, &orient);
        assert_eq!(t.total_links(), 2);
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
                    let t = split_minimal_path(&topo, &orient, &p, ItbHostPicker::Spread);
                    assert_segments_legal(&t, &orient);
                    assert_eq!(t.total_links(), dm.get(s, d) as usize);
                    total_itbs += t.num_itbs();
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
                    let t = split_minimal_path(&topo, &orient, &p, ItbHostPicker::Spread);
                    for seg in &t.segments {
                        if let SegmentEnd::Itb(h) = seg.end {
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
        let t = split_minimal_path(&topo, &orient, &p, ItbHostPicker::First);
        assert_eq!(t.num_itbs(), 1);
        let SegmentEnd::Itb(itb) = t.segments[0].end else {
            panic!("the first segment ends in transit")
        };
        let (src, dst) = (topo.hosts_of(SwitchId(1))[0], topo.hosts_of(SwitchId(3))[1]);
        let header = Header::new(
            [
                &t.segments[0].ports[..],
                &[ITB_MARK],
                &t.segments[1].ports,
                &[topo.host_port(dst)],
            ]
            .concat(),
        );
        assert_eq!(header.walk(&topo, src), Ok(vec![itb, dst]));
        // seg0 = [1->2, itb host port], seg1 = [2->3, dst port], plus
        // 1 mark + 1 type = 6.
        assert_eq!(header.header_flits_entering_segment(0), 6);
    }
}
