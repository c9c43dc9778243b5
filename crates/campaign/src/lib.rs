//! Campaign orchestrator: thousands of simulator runs as the unit of work.
//!
//! The paper's figures are *sweeps* — topology × scheme × load × seed
//! (× fault plan). This crate turns such a sweep into a first-class
//! artifact:
//!
//! * [`spec`] — a declarative JSON campaign file parsed into a
//!   [`CampaignSpec`], expanded into deduplicated [`CellSpec`] cells
//!   keyed by a deterministic FNV-1a config hash.
//! * [`cell`] — runs one cell through [`regnet_netsim::Experiment`] and
//!   captures a serializable [`CellResult`] (RunStats + reliability +
//!   run digest + utilization + goodput series).
//! * [`store`] — a checkpointing [`ResultStore`]: one JSON file per cell
//!   named by its config hash, written atomically (tmp + rename), so an
//!   interrupted campaign resumes by skipping already-hashed cells.
//! * [`runner`] — the work-queue that fans pending cells across a
//!   `std::thread::scope` worker pool sized by
//!   [`regnet_netsim::threads`], streaming completions back in
//!   completion order while keeping aggregation deterministic. It is the
//!   workspace's only worker pool: `paper` runs its load ladders, fault
//!   sweep and saturation searches through it too.
//! * [`aggregate`] — derived curves (latency-vs-load per group,
//!   saturation summary, goodput-dip time series) exported through
//!   `regnet_metrics` as `.dat`/`.gp`/JSON.
//! * [`whatif`] — the workspace's one saturation search ("what's the
//!   saturation load for this topology+scheme+fault?"): many
//!   [`regnet_metrics::SaturationSearch`]es advanced in lockstep, every
//!   probe a cell cached through the same store and run on the same
//!   pool. `campaign --what-if` asks one query; `paper`'s tables,
//!   `msgsize` and `irregular` ask theirs all at once.
//! * [`progress`] — the shared stderr progress/ETA printer of the
//!   `campaign` and `paper` binaries.
//! * [`status`] — the live `status.json` protocol: an atomically
//!   republished snapshot of counts, per-worker state, ETA and recent
//!   errors, rendered by `campaign --watch` and validated in CI.
//!
//! Determinism contract: a cell's results depend only on its spec (the
//! simulator is bit-deterministic for a given seed), so the store keyed
//! by config hash is invariant to worker count and completion order, and
//! a killed-then-resumed campaign converges to the same results directory
//! as an uninterrupted one.

pub mod aggregate;
pub mod cell;
pub mod progress;
pub mod runner;
pub mod spec;
pub mod status;
pub mod store;
pub mod whatif;

pub use aggregate::{export_campaign, Aggregates};
pub use cell::{run_cell, CellResult};
pub use progress::Progress;
pub use runner::{run_plan, CellDone, RunOutcome, RunnerEvent, RunnerOptions};
pub use spec::{
    fnv1a64, parse_pattern, parse_scheme, pattern_key, CampaignSpec, CellDefaults, CellSpec,
    FaultKind, FaultSpec, FaultSpecEvent, PlannedCell, RunPlan, Sweep, TopoSpec, CAMPAIGN_SCHEMA,
};
pub use status::{
    render_status, validate_status_json, StatusBoard, StatusSnapshot, StatusWriter, WorkerStatus,
    STATUS_SCHEMA,
};
pub use store::ResultStore;
pub use whatif::{what_if, what_if_all, WhatIfEvent, WhatIfQuery, WhatIfResult};
