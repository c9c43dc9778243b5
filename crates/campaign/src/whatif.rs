//! Targeted "what-if" queries: *given this topology, scheme, pattern and
//! fault plan, what is the saturation load?* — answered by a geometric
//! bracket-and-bisect search over offered load instead of running a full
//! grid.
//!
//! Every probe is an ordinary campaign cell run through the same
//! [`ResultStore`], so probes are checkpointed, deduplicated against any
//! grid cells that already landed, and a repeated query answers entirely
//! from cache (zero cells run).

use crate::cell::{run_cell, CellResult};
use crate::spec::{check_windows, CellSpec};
use crate::store::ResultStore;

/// A saturation-point query. The `cell` is the template: its `load`
/// field is ignored (the search sets it per probe); everything else —
/// topology, scheme, pattern, seed, window, faults — defines
/// the scenario being asked about.
#[derive(Debug, Clone)]
pub struct WhatIfQuery {
    pub cell: CellSpec,
    /// First offered load probed (flits/ns/switch).
    pub start: f64,
    /// Bracket expansion/shrink factor (> 1).
    pub growth: f64,
    /// A probe is saturated when accepted < ratio × offered (same 0.92
    /// convention as the aggregate summary).
    pub ratio: f64,
    /// Stop once `hi/lo - 1 <= rel_tol`.
    pub rel_tol: f64,
    /// Hard cap on probes (bracketing + bisection combined).
    pub max_probes: usize,
}

impl WhatIfQuery {
    pub fn new(cell: CellSpec) -> WhatIfQuery {
        WhatIfQuery {
            cell,
            start: 0.004,
            growth: 2.0,
            ratio: crate::aggregate::SATURATION_RATIO,
            rel_tol: 0.05,
            max_probes: 24,
        }
    }
}

/// The bisection's answer: saturation lies in `[lo, hi]`.
#[derive(Debug)]
pub struct WhatIfResult {
    /// Highest probed load that was *not* saturated (0.0 if even the
    /// smallest probe saturated).
    pub lo: f64,
    /// Lowest probed load that *was* saturated.
    pub hi: f64,
    /// Best throughput (accepted traffic) seen across the probes.
    pub throughput: f64,
    /// Every probe, in execution order.
    pub probes: Vec<CellResult>,
    /// Probes actually simulated by this query.
    pub ran: usize,
    /// Probes answered from the store.
    pub cached: usize,
    /// True when the bracket converged to `rel_tol` (false = probe
    /// budget exhausted first; `[lo, hi]` is still a valid bracket).
    pub converged: bool,
}

impl WhatIfResult {
    /// Point estimate: geometric midpoint of the bracket.
    pub fn saturation_load(&self) -> f64 {
        if self.lo <= 0.0 {
            return self.hi;
        }
        (self.lo * self.hi).sqrt()
    }
}

/// Run the query. Probes go through `store` (read *and* write), so a
/// second identical query runs zero cells; `on_probe` fires after each
/// probe with (load, saturated?, from-cache?).
pub fn what_if(
    query: &WhatIfQuery,
    store: &ResultStore,
    mut on_probe: impl FnMut(f64, bool, bool),
) -> Result<WhatIfResult, String> {
    if query.growth.is_nan() || query.growth <= 1.0 {
        return Err(format!("what-if growth {} must be > 1", query.growth));
    }
    if query.start.is_nan() || query.start <= 0.0 {
        return Err(format!(
            "what-if start load {} must be positive",
            query.start
        ));
    }
    check_windows(query.cell.measure_cycles, query.cell.goodput_interval)
        .map_err(|e| format!("what-if: {e}"))?;
    let mut ran = 0usize;
    let mut cached = 0usize;
    let mut probes: Vec<CellResult> = Vec::new();
    let mut throughput = 0.0f64;

    let mut probe = |load: f64,
                     ran: &mut usize,
                     cached: &mut usize,
                     probes: &mut Vec<CellResult>,
                     throughput: &mut f64|
     -> Result<bool, String> {
        let spec = CellSpec {
            load,
            ..query.cell.clone()
        };
        let hash = spec.hash_hex();
        let (result, from_cache) = if store.contains(&hash) {
            (store.load(&hash)?, true)
        } else {
            let r = run_cell(&spec)?;
            store.save(&r)?;
            (r, false)
        };
        if from_cache {
            *cached += 1;
        } else {
            *ran += 1;
        }
        let saturated = result.accepted < load * query.ratio;
        *throughput = throughput.max(result.accepted);
        on_probe(load, saturated, from_cache);
        probes.push(result);
        Ok(saturated)
    };

    // Phase 1: bracket. Expand upward from `start` until a saturated
    // load appears; if `start` itself is saturated, shrink downward
    // until an unsaturated load appears (or give up at lo = 0).
    let mut lo;
    let mut hi;
    let budget = query.max_probes;
    if probe(
        query.start,
        &mut ran,
        &mut cached,
        &mut probes,
        &mut throughput,
    )? {
        hi = query.start;
        lo = 0.0;
        let mut load = query.start / query.growth;
        while probes.len() < budget {
            if probe(load, &mut ran, &mut cached, &mut probes, &mut throughput)? {
                hi = load;
                load /= query.growth;
            } else {
                lo = load;
                break;
            }
        }
    } else {
        lo = query.start;
        hi = f64::INFINITY;
        let mut load = query.start * query.growth;
        while probes.len() < budget {
            if probe(load, &mut ran, &mut cached, &mut probes, &mut throughput)? {
                hi = load;
                break;
            } else {
                lo = load;
                load *= query.growth;
            }
        }
    }
    if !hi.is_finite() || lo <= 0.0 {
        // No bracket inside the budget; report what we know.
        return Ok(WhatIfResult {
            lo,
            hi: if hi.is_finite() {
                hi
            } else {
                lo * query.growth
            },
            throughput,
            probes,
            ran,
            cached,
            converged: false,
        });
    }

    // Phase 2: bisect the bracket on the geometric midpoint.
    let mut converged = hi / lo - 1.0 <= query.rel_tol;
    while !converged && probes.len() < budget {
        let mid = (lo * hi).sqrt();
        if probe(mid, &mut ran, &mut cached, &mut probes, &mut throughput)? {
            hi = mid;
        } else {
            lo = mid;
        }
        converged = hi / lo - 1.0 <= query.rel_tol;
    }

    Ok(WhatIfResult {
        lo,
        hi,
        throughput,
        probes,
        ran,
        cached,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopoSpec;
    use regnet_core::RoutingScheme;
    use regnet_traffic::PatternSpec;

    fn template() -> CellSpec {
        CellSpec {
            topo: TopoSpec::TorusCustom {
                rows: 4,
                cols: 4,
                hosts: 2,
            },
            scheme: RoutingScheme::UpDown,
            pattern: PatternSpec::Uniform,
            load: 0.0, // ignored by the search
            seed: 3,
            warmup_cycles: 3_000,
            measure_cycles: 15_000,
            payload_flits: 64,
            goodput_interval: None,
            reconfig_latency_cycles: None,
            faults: None,
        }
    }

    #[test]
    fn bisection_converges_and_second_query_is_all_cache() {
        let dir = std::env::temp_dir().join(format!("regnet-whatif-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let query = WhatIfQuery {
            start: 0.004,
            rel_tol: 0.25,
            ..WhatIfQuery::new(template())
        };
        let first = what_if(&query, &store, |_, _, _| {}).unwrap();
        assert!(first.ran > 0);
        assert_eq!(first.cached, 0);
        assert!(first.hi > first.lo, "bracket must be ordered");
        assert!(first.lo > 0.0, "a 4x4 torus accepts 0.004 easily");
        assert!(first.converged, "0.25 tolerance should converge in budget");
        let sat = first.saturation_load();
        assert!(sat >= first.lo && sat <= first.hi);
        assert!(first.throughput > 0.0);
        // Re-ask: every probe must come from the store.
        let second = what_if(&query, &store, |_, _, from_cache| {
            assert!(from_cache, "second query must not simulate anything")
        })
        .unwrap();
        assert_eq!(second.ran, 0);
        assert_eq!(second.cached, first.ran + first.cached);
        assert_eq!(second.lo, first.lo);
        assert_eq!(second.hi, first.hi);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_bad_parameters() {
        let dir = std::env::temp_dir().join(format!("regnet-whatif2-{}", std::process::id()));
        let store = ResultStore::open(&dir).unwrap();
        let mut q = WhatIfQuery::new(template());
        q.growth = 0.9;
        assert!(what_if(&q, &store, |_, _, _| {}).is_err());
        let mut q = WhatIfQuery::new(template());
        q.start = 0.0;
        assert!(what_if(&q, &store, |_, _, _| {}).is_err());
        // A zero window or goodput interval is refused before any probe
        // runs, so nothing lands in the store.
        for (key, cell) in [
            (
                "measure_cycles",
                CellSpec {
                    measure_cycles: 0,
                    ..template()
                },
            ),
            (
                "goodput_interval",
                CellSpec {
                    goodput_interval: Some(0),
                    ..template()
                },
            ),
        ] {
            let err = what_if(&WhatIfQuery::new(cell), &store, |_, _, _| {
                panic!("{key}: a probe ran")
            })
            .unwrap_err();
            assert!(err.contains(key), "{key}: {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
