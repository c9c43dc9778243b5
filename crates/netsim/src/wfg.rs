//! Wait-for-graph stall analysis.
//!
//! When the watchdog suspects a stall (no flit movement for a long time
//! with packets still live), a bare panic says nothing about *why*. This
//! module builds the channel wait-for graph and classifies the situation:
//!
//! - **nodes** are directed channels (the simulator's channel indices);
//! - there is an **edge** `in_chan → out_chan` whenever the packet at the
//!   head of a switch input buffer (fed by `in_chan`) has been routed and
//!   is requesting — or granted but unable to stream towards — the output
//!   port driving `out_chan`.
//!
//! A switch↔switch channel is simultaneously the *output* channel of one
//! switch and the *input* channel of the next, so edges chain naturally
//! across switches. Each input buffer head waits for at most one output,
//! which makes the graph functional (out-degree ≤ 1): every weakly
//! connected component contains at most one cycle, found by walking
//! successors. Channels that sink into a NIC never have outgoing edges —
//! NICs eject unconditionally (that is the in-transit-buffer guarantee
//! breaking cyclic dependencies), so a dependency chain ending at a host
//! always drains.
//!
//! A cycle alone is *not* proof of deadlock: under heavy load the stop&go
//! back-pressure routinely forms transient cyclic waits that resolve as
//! buffers drain. Classification therefore also requires quiescence — no
//! flit moved anywhere for longer than the worst-case forward-progress
//! bound (`quiescence_threshold`) — before reporting [`StallClass::Deadlock`].

use regnet_topology::NodeId;

use crate::sim::ChannelDesc;
use crate::switch::{HeadState, SwitchState};

/// One wait-for dependency: the head packet of the input buffer fed by
/// `from_chan` needs the output port driving `to_chan`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitEdge {
    pub sw: u32,
    pub in_port: u8,
    pub out_port: u8,
    pub from_chan: u32,
    pub to_chan: u32,
    /// Head already holds the crossbar connection (true) or is still
    /// arbitrating for it (false).
    pub granted: bool,
    /// The output port is currently held in STOP by its downstream
    /// receiver.
    pub out_stopped: bool,
}

/// What a stalled (or not) network looks like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StallClass {
    /// No live packets: nothing to diagnose.
    Idle,
    /// Flits moved recently; any wait cycles are transient back-pressure.
    Active,
    /// Quiescent with a cyclic channel dependency: a true deadlock. The
    /// channels forming the cycle, in dependency order.
    Deadlock { cycle: Vec<u32> },
    /// Quiescent with live packets but *no* cyclic dependency: progress is
    /// blocked on something that never wakes up (livelock/starvation —
    /// e.g. a packet parked forever behind flow control that never
    /// releases, or an event the engine failed to schedule).
    Starvation,
}

/// Full stall diagnosis, produced by `Simulator::analyze_stall`.
#[derive(Debug, Clone, PartialEq)]
pub struct StallReport {
    pub class: StallClass,
    pub live_packets: usize,
    /// Cycles since the last flit movement.
    pub quiescent_cycles: u64,
    /// Quiescence bound used for classification.
    pub threshold: u64,
    /// Every wait-for dependency present at analysis time.
    pub edges: Vec<WaitEdge>,
    /// Human-readable rendering (channel endpoints resolved to node names).
    pub summary: String,
}

impl StallReport {
    /// Is this a confirmed cyclic-dependency deadlock?
    pub fn is_deadlock(&self) -> bool {
        matches!(self.class, StallClass::Deadlock { .. })
    }
}

/// Collect the wait-for edges from the current switch state.
pub(crate) fn build_wait_edges(switches: &[SwitchState]) -> Vec<WaitEdge> {
    let mut edges = Vec::new();
    for (s, sw) in switches.iter().enumerate() {
        for &p in &sw.active_ports {
            let inp = sw.inp[p as usize].as_ref().unwrap();
            let granted = match inp.head() {
                HeadState::Requesting => false,
                HeadState::Granted => true,
                HeadState::Idle | HeadState::Routing { .. } => continue,
            };
            let out = inp.head_out() as usize;
            let Some(outp) = sw.outp.get(out).and_then(|o| o.as_ref()) else {
                // A corrupt route requested a nonexistent port; nothing to
                // wait for, and the arbitration loop will never grant it.
                continue;
            };
            edges.push(WaitEdge {
                sw: s as u32,
                in_port: p,
                out_port: out as u8,
                from_chan: inp.in_chan,
                to_chan: outp.out_chan,
                granted,
                out_stopped: sw.is_stopped(out),
            });
        }
    }
    edges
}

/// Find a cycle in the (functional) wait-for graph; returns the channel
/// indices along the cycle in dependency order.
pub(crate) fn find_cycle(edges: &[WaitEdge]) -> Option<Vec<u32>> {
    use std::collections::HashMap;
    let succ: HashMap<u32, u32> = edges.iter().map(|e| (e.from_chan, e.to_chan)).collect();
    // 0 = unvisited, 1 = on current walk, 2 = finished.
    let mut color: HashMap<u32, u8> = HashMap::new();
    let mut starts: Vec<u32> = succ.keys().copied().collect();
    starts.sort_unstable(); // deterministic reporting
    for &start in &starts {
        if color.get(&start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut path = Vec::new();
        let mut node = start;
        loop {
            match color.get(&node).copied().unwrap_or(0) {
                1 => {
                    // Found a node already on this walk: the cycle is the
                    // path suffix starting at it.
                    let pos = path.iter().position(|&n| n == node).unwrap();
                    return Some(path[pos..].to_vec());
                }
                2 => break, // joins an already-cleared component
                _ => {}
            }
            color.insert(node, 1);
            path.push(node);
            match succ.get(&node) {
                Some(&next) => node = next,
                None => break, // chain drains (e.g. into a NIC)
            }
        }
        for n in path {
            color.insert(n, 2);
        }
    }
    None
}

fn node_name(n: NodeId) -> String {
    match n {
        NodeId::Switch(s) => format!("S{}", s.0),
        NodeId::Host(h) => format!("H{}", h.0),
    }
}

fn chan_name(c: u32, descs: &[ChannelDesc]) -> String {
    match descs.get(c as usize) {
        Some(d) => format!("{}->{}", node_name(d.from), node_name(d.to)),
        None => format!("ch{c}"),
    }
}

/// Build, classify and render the wait-for graph.
pub(crate) fn analyze(
    switches: &[SwitchState],
    live_packets: usize,
    cycle: u64,
    last_activity: u64,
    threshold: u64,
    descs: &[ChannelDesc],
) -> StallReport {
    use std::fmt::Write as _;
    let edges = build_wait_edges(switches);
    let quiescent_cycles = cycle.saturating_sub(last_activity);
    let class = if live_packets == 0 {
        StallClass::Idle
    } else if quiescent_cycles <= threshold {
        StallClass::Active
    } else if let Some(cyc) = find_cycle(&edges) {
        StallClass::Deadlock { cycle: cyc }
    } else {
        StallClass::Starvation
    };

    let mut summary = String::new();
    match &class {
        StallClass::Idle => {
            let _ = write!(summary, "idle: no live packets");
        }
        StallClass::Active => {
            let _ = write!(
                summary,
                "active: {live_packets} live packets, last flit {quiescent_cycles} \
                 cycles ago (threshold {threshold}); {} wait edges",
                edges.len()
            );
        }
        StallClass::Deadlock { cycle: cyc } => {
            let _ = write!(
                summary,
                "DEADLOCK: cyclic channel dependency among {} channels \
                 ({live_packets} live packets, quiescent {quiescent_cycles} cycles):\n  ",
                cyc.len()
            );
            for &c in cyc {
                let _ = write!(summary, "{} => ", chan_name(c, descs));
            }
            let _ = write!(summary, "{}", chan_name(cyc[0], descs));
        }
        StallClass::Starvation => {
            let _ = write!(
                summary,
                "starvation/livelock: {live_packets} live packets quiescent for \
                 {quiescent_cycles} cycles with no cyclic dependency; \
                 {} wait edges",
                edges.len()
            );
            let stopped = edges.iter().filter(|e| e.out_stopped).count();
            if stopped > 0 {
                let _ = write!(summary, " ({stopped} behind STOPped outputs)");
            }
        }
    }
    if !edges.is_empty() && !matches!(class, StallClass::Active) {
        let _ = write!(summary, "\nwait-for edges:");
        for e in &edges {
            let _ = write!(
                summary,
                "\n  sw{} p{}->p{}: {} waits for {}{}{}",
                e.sw,
                e.in_port,
                e.out_port,
                chan_name(e.from_chan, descs),
                chan_name(e.to_chan, descs),
                if e.granted { " [granted]" } else { "" },
                if e.out_stopped { " [stopped]" } else { "" },
            );
        }
    }

    StallReport {
        class,
        live_packets,
        quiescent_cycles,
        threshold,
        edges,
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(from: u32, to: u32) -> WaitEdge {
        WaitEdge {
            sw: 0,
            in_port: 0,
            out_port: 1,
            from_chan: from,
            to_chan: to,
            granted: false,
            out_stopped: false,
        }
    }

    #[test]
    fn no_cycle_in_a_chain() {
        let edges = vec![edge(0, 1), edge(1, 2), edge(2, 3)];
        assert_eq!(find_cycle(&edges), None);
    }

    #[test]
    fn finds_simple_cycle() {
        let edges = vec![edge(0, 1), edge(1, 2), edge(2, 0)];
        let cyc = find_cycle(&edges).unwrap();
        assert_eq!(cyc.len(), 3);
        // Dependency order: each element's successor is the next element.
        for w in cyc.windows(2) {
            assert!(edges
                .iter()
                .any(|e| e.from_chan == w[0] && e.to_chan == w[1]));
        }
    }

    #[test]
    fn finds_cycle_reached_through_a_tail() {
        // 5 -> 0 -> 1 -> 2 -> 0: the cycle excludes the tail node.
        let edges = vec![edge(5, 0), edge(0, 1), edge(1, 2), edge(2, 0)];
        let cyc = find_cycle(&edges).unwrap();
        assert_eq!(cyc.len(), 3);
        assert!(!cyc.contains(&5));
    }

    #[test]
    fn disjoint_components_cleared_independently() {
        let edges = vec![edge(0, 1), edge(1, 2), edge(10, 11), edge(11, 10)];
        let cyc = find_cycle(&edges).unwrap();
        assert_eq!(cyc.len(), 2);
        assert!(cyc.contains(&10) && cyc.contains(&11));
    }

    #[test]
    fn classification_thresholds() {
        // No switches needed: empty edge set exercises the class logic.
        let r = analyze(&[], 0, 1000, 900, 50, &[]);
        assert_eq!(r.class, StallClass::Idle);
        let r = analyze(&[], 3, 1000, 990, 50, &[]);
        assert_eq!(r.class, StallClass::Active);
        let r = analyze(&[], 3, 1000, 100, 50, &[]);
        assert_eq!(r.class, StallClass::Starvation);
        assert!(r.summary.contains("starvation"));
    }
}
