//! Targeted "what-if" queries: *given this topology, scheme, pattern and
//! fault plan, what is the saturation load?* — answered by a
//! [`SaturationSearch`] (a geometric bracket, then bisection) over offered
//! load instead of running a full grid.
//!
//! Every probe is an ordinary campaign cell run through the same
//! [`ResultStore`], so probes are checkpointed, deduplicated against any
//! grid cells that already landed, and a repeated query answers entirely
//! from cache (zero cells run). [`what_if_all`] advances many searches in
//! lockstep: each round's uncached probes are one plan on [`run_plan`]'s
//! worker pool.

use std::collections::HashMap;

use regnet_metrics::{Saturation, SaturationSearch};

use crate::cell::CellResult;
use crate::runner::{run_plan, RunnerEvent, RunnerOptions};
use crate::spec::{check_cell_values, CellSpec, PlannedCell, RunPlan};
use crate::store::ResultStore;

/// A saturation-point query. The `cell` is the template: its `load`
/// field is ignored (the search sets it per probe); everything else —
/// topology, scheme, pattern, seed, window, faults — defines
/// the scenario being asked about.
#[derive(Debug, Clone)]
pub struct WhatIfQuery {
    pub cell: CellSpec,
    /// Where the search starts, how it steps and when it stops.
    pub search: SaturationSearch,
}

impl WhatIfQuery {
    pub fn new(cell: CellSpec) -> WhatIfQuery {
        WhatIfQuery {
            cell,
            search: SaturationSearch::new(0.004),
        }
    }
}

/// The search's answer and the probes it took to get there.
#[derive(Debug)]
pub struct WhatIfResult {
    pub saturation: Saturation,
    /// Every probe, in execution order.
    pub probes: Vec<CellResult>,
    /// Probes actually simulated by this query.
    pub ran: usize,
    /// Probes answered from the store.
    pub cached: usize,
}

/// What [`what_if_all`] tells its caller, on the calling thread.
pub enum WhatIfEvent<'a> {
    /// A round is about to simulate `cells` probes.
    Round { cells: usize },
    /// The worker pool's events for those probes.
    Cell(RunnerEvent<'a>),
    /// A query recorded its probe at `load`.
    Probe {
        load: f64,
        saturated: bool,
        cached: bool,
    },
}

/// Run every query's search to its end, in lockstep rounds: each round
/// takes every unfinished search's next load, runs the ones the store
/// lacks as one plan on `threads` workers, then records all of them.
/// Parameters and windows are checked before any probe runs.
pub fn what_if_all(
    queries: &[WhatIfQuery],
    store: &ResultStore,
    threads: usize,
    mut on_event: impl FnMut(WhatIfEvent<'_>),
) -> Result<Vec<WhatIfResult>, String> {
    let mut built = Vec::new();
    for q in queries {
        q.search.check().map_err(|e| format!("what-if: {e}"))?;
        check_cell_values(&q.cell, &mut built).map_err(|e| format!("what-if: {e}"))?;
    }
    let mut searches: Vec<SaturationSearch> = queries.iter().map(|q| q.search.clone()).collect();
    let mut results: Vec<WhatIfResult> = searches
        .iter()
        .map(|s| WhatIfResult {
            saturation: s.saturation(),
            probes: Vec::new(),
            ran: 0,
            cached: 0,
        })
        .collect();
    let opts = RunnerOptions {
        threads,
        stop_after: None,
    };
    loop {
        let round: Vec<(usize, PlannedCell)> = searches
            .iter()
            .zip(queries)
            .enumerate()
            .filter_map(|(i, (s, q))| {
                let spec = CellSpec {
                    load: s.next_load()?,
                    ..q.cell.clone()
                };
                let cell = PlannedCell {
                    hash: spec.hash_hex(),
                    key: spec.canonical_key(),
                    spec,
                    groups: Vec::new(),
                };
                Some((i, cell))
            })
            .collect();
        if round.is_empty() {
            break;
        }
        let mut plan = RunPlan {
            name: "what-if".into(),
            cells: Vec::new(),
        };
        for (_, cell) in &round {
            if !store.contains(&cell.hash) && plan.cells.iter().all(|c| c.hash != cell.hash) {
                plan.cells.push(cell.clone());
            }
        }
        on_event(WhatIfEvent::Round { cells: plan.len() });
        let mut fresh: HashMap<String, CellResult> = HashMap::new();
        run_plan(&plan, store, &opts, |ev| {
            if let RunnerEvent::Done(done) = &ev {
                fresh.insert(done.result.hash.clone(), done.result.clone());
            }
            on_event(WhatIfEvent::Cell(ev));
        })?;
        for (i, cell) in round {
            // The first probe of a cell ran it; any other reads the store.
            let (result, cached) = match fresh.remove(&cell.hash) {
                Some(r) => (r, false),
                None => (store.load(&cell.hash)?, true),
            };
            let load = cell.spec.load;
            let saturated = searches[i].record(load, result.accepted);
            let r = &mut results[i];
            if cached {
                r.cached += 1;
            } else {
                r.ran += 1;
            }
            r.probes.push(result);
            on_event(WhatIfEvent::Probe {
                load,
                saturated,
                cached,
            });
        }
    }
    for (r, s) in results.iter_mut().zip(&searches) {
        r.saturation = s.saturation();
    }
    Ok(results)
}

/// Run one query. Probes go through `store` (read *and* write), so a
/// second identical query runs zero cells; `on_probe` fires after each
/// probe with (load, saturated?, from-cache?).
pub fn what_if(
    query: &WhatIfQuery,
    store: &ResultStore,
    mut on_probe: impl FnMut(f64, bool, bool),
) -> Result<WhatIfResult, String> {
    let mut results = what_if_all(std::slice::from_ref(query), store, 1, |ev| {
        if let WhatIfEvent::Probe {
            load,
            saturated,
            cached,
        } = ev
        {
            on_probe(load, saturated, cached);
        }
    })?;
    Ok(results.pop().expect("one query, one result"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FaultSpec, TopoSpec};
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
        let mut query = WhatIfQuery::new(template());
        query.search.start = 0.004;
        query.search.rel_tol = 0.25;
        let first = what_if(&query, &store, |_, _, _| {}).unwrap();
        let s = first.saturation;
        assert!(first.ran > 0);
        assert_eq!(first.cached, 0);
        assert!(s.hi.unwrap() > s.lo, "bracket must be ordered");
        assert!(s.lo > 0.0, "a 4x4 torus accepts 0.004 easily");
        assert!(s.converged, "0.25 tolerance should converge in budget");
        let sat = s.estimate().unwrap();
        assert!(sat >= s.lo && sat <= s.hi.unwrap());
        assert!(s.throughput > 0.0);
        // Re-ask: every probe must come from the store.
        let second = what_if(&query, &store, |_, _, from_cache| {
            assert!(from_cache, "second query must not simulate anything")
        })
        .unwrap();
        assert_eq!(second.ran, 0);
        assert_eq!(second.cached, first.ran + first.cached);
        assert_eq!(second.saturation.lo, s.lo);
        assert_eq!(second.saturation.hi, s.hi);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_bad_parameters() {
        let dir = std::env::temp_dir().join(format!("regnet-whatif2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let mut q = WhatIfQuery::new(template());
        q.search.growth = 0.9;
        assert!(what_if(&q, &store, |_, _, _| {}).is_err());
        let mut q = WhatIfQuery::new(template());
        q.search.start = 0.0;
        assert!(what_if(&q, &store, |_, _, _| {}).is_err());
        // A zero window or goodput interval, an over-bound payload, a
        // switch past the port bound, a fault on a host the topology lacks,
        // an infinite load or step, a tolerance the bracket can never meet
        // and an empty budget are refused before any probe runs, so
        // nothing lands in the store.
        let search = |edit: fn(&mut SaturationSearch)| {
            let mut q = WhatIfQuery::new(template());
            edit(&mut q.search);
            q
        };
        for (key, query) in [
            (
                "measure_cycles",
                WhatIfQuery::new(CellSpec {
                    measure_cycles: 0,
                    ..template()
                }),
            ),
            (
                "goodput_interval",
                WhatIfQuery::new(CellSpec {
                    goodput_interval: Some(0),
                    ..template()
                }),
            ),
            (
                "payload_flits",
                WhatIfQuery::new(CellSpec {
                    payload_flits: regnet_netsim::MAX_PAYLOAD_FLITS + 1,
                    ..template()
                }),
            ),
            (
                "\"topos\" entry \"torus:3x3:61\" has 65 ports",
                WhatIfQuery::new(CellSpec {
                    topo: TopoSpec::TorusCustom {
                        rows: 3,
                        cols: 3,
                        hosts: 61,
                    },
                    ..template()
                }),
            ),
            (
                "\"faults\" entry \"fail_host:500@50\": cannot fail host 500",
                WhatIfQuery::new(CellSpec {
                    faults: Some(FaultSpec::parse("x", "fail_host:500@50").unwrap()),
                    ..template()
                }),
            ),
            ("start", search(|s| s.start = f64::INFINITY)),
            ("growth", search(|s| s.growth = f64::INFINITY)),
            ("rel_tol", search(|s| s.rel_tol = f64::NAN)),
            ("max_probes", search(|s| s.max_probes = 0)),
        ] {
            let err = what_if(&query, &store, |_, _, _| panic!("{key}: a probe ran")).unwrap_err();
            assert!(err.contains(key), "{key}: {err}");
        }
        assert_eq!(store.len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
