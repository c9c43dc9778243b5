//! Live status files: a machine-readable `status.json` that long-running
//! tools republish as work lands.
//!
//! A campaign, or a `paper` figure run as campaign cells, can take
//! hours. A [`StatusBoard`] follows the worker pool and keeps its state
//! in a JSON snapshot — counts, per-worker state, ETA, recent
//! completions, last errors — written with the store's atomic tmp+rename
//! discipline, so a reader never observes a torn file. `campaign --watch`
//! renders the snapshot as a terminal dashboard ([`render_status`]) and
//! CI validates it mid-run and after completion
//! ([`validate_status_json`]). A board can also echo its progress to
//! stderr for a human tail ([`StatusBoard::echo`]), from the same counts.
//!
//! Wall-clock only lives here (`elapsed_secs`, `eta_secs`, timestamps):
//! the status file is presentation, never an input to results.

use std::path::PathBuf;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use regnet_metrics::JsonValue;
use serde::Serialize;

use crate::runner::RunnerEvent;
use crate::store::write_atomically;

/// Schema tag every status file carries.
pub(crate) const STATUS_SCHEMA: &str = "regnet-status-v1";

/// How many recent completions / errors a snapshot keeps.
const RECENT_CAP: usize = 8;

/// One worker's instantaneous state.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkerStatus {
    /// Worker index, 0-based.
    pub worker: u64,
    /// `"idle"` or `"running"`.
    pub state: String,
    /// Canonical key of the cell being run (`None` when idle).
    pub cell: Option<String>,
}

/// The whole status file, as written and as parsed back.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StatusSnapshot {
    /// Always `"regnet-status-v1"`.
    pub schema: String,
    /// Which binary is publishing (`"campaign"` or `"paper"`).
    pub tool: String,
    /// `"running"`, `"done"`, `"failed"` or `"stopped"` (`--stop-after`).
    pub state: String,
    /// Items the invocation set out to land (already-checkpointed cells
    /// of a resumed campaign count as landed, not as work).
    pub total: u64,
    /// Items landed so far.
    pub done: u64,
    /// Items that errored.
    pub failed: u64,
    /// Items not yet landed (includes the ones currently running).
    pub pending: u64,
    /// Extrapolated seconds remaining; `None` until the first item lands
    /// (the `--:--` phase) and once nothing is pending.
    pub eta_secs: Option<f64>,
    /// Wall seconds since the invocation started.
    pub elapsed_secs: f64,
    /// Unix milliseconds when the invocation started / last published.
    pub started_unix_ms: u64,
    pub updated_unix_ms: u64,
    pub workers: Vec<WorkerStatus>,
    /// Most recent completions, oldest first, capped.
    pub recent: Vec<String>,
    /// Most recent errors, oldest first, capped.
    pub last_errors: Vec<String>,
}

impl StatusSnapshot {
    /// Serialize for publishing.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self).expect("StatusSnapshot serialization is infallible")
    }

    /// Parse a status file (strict about the fields the dashboard needs).
    pub fn from_json_str(text: &str) -> Result<StatusSnapshot, String> {
        let v = JsonValue::parse(text).map_err(|e| format!("bad status file: {e}"))?;
        let s = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(|x| x.as_str())
                .map(String::from)
                .ok_or_else(|| format!("status file missing string {k:?}"))
        };
        let u = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("status file {k:?} is missing or not an integer in 0..2^53"))
        };
        let f = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(|x| x.as_f64())
                .ok_or_else(|| format!("status file missing number {k:?}"))
        };
        let eta_secs = match v.get("eta_secs") {
            None | Some(JsonValue::Null) => None,
            Some(x) => Some(x.as_f64().ok_or("status file eta_secs must be a number")?),
        };
        let workers = v
            .get("workers")
            .and_then(|x| x.as_array())
            .ok_or("status file missing workers array")?
            .iter()
            .map(|w| {
                let cell = match w.get("cell") {
                    None | Some(JsonValue::Null) => None,
                    Some(c) => Some(
                        c.as_str()
                            .ok_or("worker cell must be a string")?
                            .to_string(),
                    ),
                };
                Ok(WorkerStatus {
                    worker: w
                        .get("worker")
                        .and_then(|x| x.as_u64())
                        .ok_or("worker index is missing or not an integer in 0..2^53")?,
                    state: w
                        .get("state")
                        .and_then(|x| x.as_str())
                        .ok_or("worker entry missing state")?
                        .to_string(),
                    cell,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let strings = |k: &str| -> Result<Vec<String>, String> {
            v.get(k)
                .and_then(|x| x.as_array())
                .ok_or_else(|| format!("status file missing array {k:?}"))?
                .iter()
                .map(|x| {
                    x.as_str()
                        .map(String::from)
                        .ok_or_else(|| format!("{k} entries must be strings"))
                })
                .collect()
        };
        Ok(StatusSnapshot {
            schema: s("schema")?,
            tool: s("tool")?,
            state: s("state")?,
            total: u("total")?,
            done: u("done")?,
            failed: u("failed")?,
            pending: u("pending")?,
            eta_secs,
            elapsed_secs: f("elapsed_secs")?,
            started_unix_ms: u("started_unix_ms")?,
            updated_unix_ms: u("updated_unix_ms")?,
            workers,
            recent: strings("recent")?,
            last_errors: strings("last_errors")?,
        })
    }
}

/// Parse a status file and check its invariants (the CI gate).
pub fn validate_status_json(text: &str) -> Result<StatusSnapshot, String> {
    let snap = StatusSnapshot::from_json_str(text)?;
    if snap.schema != STATUS_SCHEMA {
        return Err(format!(
            "status schema {:?}, expected {STATUS_SCHEMA:?}",
            snap.schema
        ));
    }
    if !matches!(
        snap.state.as_str(),
        "running" | "done" | "failed" | "stopped"
    ) {
        return Err(format!("unknown status state {:?}", snap.state));
    }
    if snap.done + snap.failed + snap.pending != snap.total {
        return Err(format!(
            "status counts do not add up: {} done + {} failed + {} pending != {} total",
            snap.done, snap.failed, snap.pending, snap.total
        ));
    }
    if snap.state == "done" && snap.pending != 0 {
        return Err(format!(
            "state \"done\" with {} cells pending",
            snap.pending
        ));
    }
    for w in &snap.workers {
        match w.state.as_str() {
            "running" if w.cell.is_none() => {
                return Err(format!("worker {} running with no cell", w.worker));
            }
            "running" | "idle" => {}
            other => return Err(format!("unknown worker state {other:?}")),
        }
    }
    Ok(snap)
}

/// Render a duration compactly (`850ms`, `12.3s`, `4m07s`).
fn fmt_duration(secs: f64) -> String {
    if secs < 1.0 {
        format!("{:.0}ms", secs * 1000.0)
    } else if secs < 120.0 {
        format!("{secs:.1}s")
    } else {
        let m = (secs / 60.0).floor();
        format!("{m:.0}m{:02.0}s", secs - m * 60.0)
    }
}

/// The `, ETA …` field of a running snapshot: the estimate, or a
/// `--:--` placeholder while work is pending but nothing has landed.
fn eta_field(s: &StatusSnapshot) -> String {
    match (s.state.as_str(), s.eta_secs) {
        ("running", Some(e)) => format!(", ETA {}", fmt_duration(e)),
        ("running", None) if s.pending > 0 => ", ETA --:--".to_string(),
        _ => String::new(),
    }
}

/// A board's stderr echo line for snapshot `s`: the opening line before
/// anything landed, `[label] done/total (elapsed, ETA …) detail` after
/// each landed item, and the closing line once the run left "running".
fn echo_line(label: &str, s: &StatusSnapshot, detail: &str) -> String {
    let elapsed = fmt_duration(s.elapsed_secs);
    if s.state != "running" {
        format!("[{label}] done: {}/{} in {elapsed}", s.done, s.total)
    } else if s.done == 0 {
        format!("[{label}] 0/{} (ETA --:--)", s.total)
    } else {
        let eta = eta_field(s);
        format!(
            "[{label}] {}/{} ({elapsed} elapsed{eta}) {detail}",
            s.done, s.total
        )
    }
}

/// Render a snapshot as the `--watch` terminal dashboard.
pub fn render_status(s: &StatusSnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!("[{}] {}\n", s.tool, s.state));
    out.push_str(&format!(
        "  {}/{} done, {} failed, {} pending ({} elapsed{})\n",
        s.done,
        s.total,
        s.failed,
        s.pending,
        fmt_duration(s.elapsed_secs),
        eta_field(s)
    ));
    if !s.workers.is_empty() {
        out.push_str("  workers:\n");
        for w in &s.workers {
            match &w.cell {
                Some(cell) => out.push_str(&format!("    w{} {} {cell}\n", w.worker, w.state)),
                None => out.push_str(&format!("    w{} {}\n", w.worker, w.state)),
            }
        }
    }
    if !s.recent.is_empty() {
        out.push_str("  recent:\n");
        for r in &s.recent {
            out.push_str(&format!("    {r}\n"));
        }
    }
    if !s.last_errors.is_empty() {
        out.push_str("  errors:\n");
        for e in &s.last_errors {
            out.push_str(&format!("    {e}\n"));
        }
    }
    out
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Tracks one invocation's live state and republishes on every change;
/// the one follower of a pool run.
///
/// Publish errors are remembered (and printed once to stderr) rather than
/// propagated: a broken status file must never kill a campaign.
pub struct StatusBoard {
    path: PathBuf,
    snap: StatusSnapshot,
    started: Instant,
    publish_failed: bool,
    /// Label of the stderr echo; `None` keeps the board silent.
    echo: Option<String>,
}

impl StatusBoard {
    /// Start a silent board for `tool` over `total` work items with
    /// `workers` worker slots, and publish the initial "running" snapshot.
    pub fn new(path: impl Into<PathBuf>, tool: &str, total: usize, workers: usize) -> StatusBoard {
        let now = unix_ms();
        let mut board = StatusBoard {
            path: path.into(),
            snap: StatusSnapshot {
                schema: STATUS_SCHEMA.to_string(),
                tool: tool.to_string(),
                state: "running".to_string(),
                total: total as u64,
                done: 0,
                failed: 0,
                pending: total as u64,
                eta_secs: None,
                elapsed_secs: 0.0,
                started_unix_ms: now,
                updated_unix_ms: now,
                workers: (0..workers)
                    .map(|w| WorkerStatus {
                        worker: w as u64,
                        state: "idle".to_string(),
                        cell: None,
                    })
                    .collect(),
                recent: Vec::new(),
                last_errors: Vec::new(),
            },
            started: Instant::now(),
            publish_failed: false,
            echo: None,
        };
        board.publish();
        board
    }

    /// Echo progress to stderr under `label`: an opening line if work is
    /// already known, one line per landed cell naming its hash, accepted
    /// traffic and mean latency, and a closing line on [`finish`](Self::finish).
    pub fn echo(mut self, label: impl Into<String>) -> StatusBoard {
        let label = label.into();
        if self.snap.total > 0 {
            eprintln!("{}", echo_line(&label, &self.snap, ""));
        }
        self.echo = Some(label);
        self
    }

    /// Follow the worker pool: a cell started, landed or failed.
    pub fn record(&mut self, ev: &RunnerEvent<'_>) {
        match ev {
            RunnerEvent::Started { worker, cell } => self.started(*worker, &cell.key),
            RunnerEvent::Done(done) => {
                self.done(done.worker, &done.cell.key);
                if let Some(label) = &self.echo {
                    let r = done.result;
                    let detail = format!(
                        "{} accepted {:.5} avg {:.0}ns",
                        r.hash, r.accepted, r.avg_latency_ns
                    );
                    eprintln!("{}", echo_line(label, &self.snap, &detail));
                }
            }
            RunnerEvent::Failed {
                worker,
                cell,
                error,
            } => self.failed(*worker, &cell.key, error),
        }
    }

    /// `items` more joined the invocation's work (a search's next round).
    pub fn add(&mut self, items: usize) {
        self.snap.total += items as u64;
        self.snap.pending += items as u64;
        self.publish();
    }

    /// A worker began an item.
    pub fn started(&mut self, worker: usize, item: &str) {
        self.set_worker(worker, "running", Some(item.to_string()));
        self.publish();
    }

    /// A worker landed an item.
    pub fn done(&mut self, worker: usize, item: &str) {
        self.snap.done += 1;
        self.snap.pending = self.snap.pending.saturating_sub(1);
        push_capped(&mut self.snap.recent, item.to_string());
        self.set_worker(worker, "idle", None);
        self.publish();
    }

    /// A worker's item errored.
    pub fn failed(&mut self, worker: usize, item: &str, error: &str) {
        self.snap.failed += 1;
        self.snap.pending = self.snap.pending.saturating_sub(1);
        push_capped(&mut self.snap.last_errors, format!("{item}: {error}"));
        self.set_worker(worker, "idle", None);
        self.publish();
    }

    /// Final snapshot: `"done"`, `"failed"` or `"stopped"`. Remaining
    /// pending work stays in the counts (that is what "stopped" means);
    /// all workers go idle.
    pub fn finish(&mut self, state: &str) {
        self.snap.state = state.to_string();
        for w in &mut self.snap.workers {
            w.state = "idle".to_string();
            w.cell = None;
        }
        self.publish();
        if let Some(label) = &self.echo {
            eprintln!("{}", echo_line(label, &self.snap, ""));
        }
    }

    fn set_worker(&mut self, worker: usize, state: &str, cell: Option<String>) {
        if let Some(w) = self.snap.workers.get_mut(worker) {
            w.state = state.to_string();
            w.cell = cell;
        }
    }

    fn publish(&mut self) {
        self.snap.elapsed_secs = self.started.elapsed().as_secs_f64();
        self.snap.updated_unix_ms = unix_ms();
        self.snap.eta_secs = if self.snap.done > 0 && self.snap.pending > 0 {
            Some(self.snap.elapsed_secs / self.snap.done as f64 * self.snap.pending as f64)
        } else {
            None
        };
        if let Err(e) = write_atomically(&self.path, &self.snap.to_json_string()) {
            if !self.publish_failed {
                eprintln!("warning: {e} (status updates disabled)");
                self.publish_failed = true;
            }
        }
    }
}

fn push_capped(v: &mut Vec<String>, item: String) {
    v.push(item);
    if v.len() > RECENT_CAP {
        v.remove(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::Path;

    fn temp_status(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("regnet-status-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("status.json")
    }

    fn read(path: &Path) -> StatusSnapshot {
        validate_status_json(&fs::read_to_string(path).unwrap()).unwrap()
    }

    #[test]
    fn board_publishes_valid_snapshots_through_a_run() {
        let path = temp_status("run");
        let mut board = StatusBoard::new(&path, "campaign", 3, 2);
        let s = read(&path);
        assert_eq!(s.state, "running");
        assert_eq!((s.total, s.done, s.pending), (3, 0, 3));
        assert_eq!(s.eta_secs, None, "no ETA before the first item lands");
        assert_eq!(s.workers.len(), 2);

        board.started(0, "cell-a");
        let s = read(&path);
        assert_eq!(s.workers[0].state, "running");
        assert_eq!(s.workers[0].cell.as_deref(), Some("cell-a"));

        board.done(0, "cell-a");
        let s = read(&path);
        assert_eq!((s.done, s.pending), (1, 2));
        assert!(s.eta_secs.is_some(), "ETA appears once one item landed");
        assert_eq!(s.recent, vec!["cell-a"]);
        assert_eq!(s.workers[0].state, "idle");

        board.started(1, "cell-b");
        board.failed(1, "cell-b", "boom");
        let s = read(&path);
        assert_eq!((s.done, s.failed, s.pending), (1, 1, 1));
        assert_eq!(s.last_errors, vec!["cell-b: boom"]);

        board.started(0, "cell-c");
        board.done(0, "cell-c");
        let s = read(&path);
        assert_eq!(s.pending, 0);
        assert_eq!(s.eta_secs, None, "no ETA once nothing is pending");
        board.finish("done");
        let s = read(&path);
        assert_eq!(s.state, "done");
        assert_eq!((s.done, s.failed, s.pending), (2, 1, 0));
        assert_eq!(s.eta_secs, None);
        assert!(s.workers.iter().all(|w| w.state == "idle"));
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    /// The echo's three kinds of line, from fixed snapshots.
    #[test]
    fn echo_lines_follow_the_board() {
        let path = temp_status("echo");
        let board = StatusBoard::new(&path, "paper", 4, 1);
        let mut s = board.snap.clone();
        assert_eq!(echo_line("fig07", &s, ""), "[fig07] 0/4 (ETA --:--)");
        s.done = 1;
        s.pending = 3;
        s.elapsed_secs = 0.25;
        s.eta_secs = Some(0.75);
        assert_eq!(
            echo_line("fig07", &s, "2269ecc28a2a79b5 accepted 0.00981 avg 3912ns"),
            "[fig07] 1/4 (250ms elapsed, ETA 750ms) 2269ecc28a2a79b5 accepted 0.00981 avg 3912ns"
        );
        s.done = 4;
        s.pending = 0;
        s.elapsed_secs = 12.34;
        s.eta_secs = None;
        assert_eq!(echo_line("fig07", &s, "d"), "[fig07] 4/4 (12.3s elapsed) d");
        s.state = "done".to_string();
        assert_eq!(echo_line("fig07", &s, ""), "[fig07] done: 4/4 in 12.3s");
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(0.25), "250ms");
        assert_eq!(fmt_duration(12.34), "12.3s");
        assert_eq!(fmt_duration(247.0), "4m07s");
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let path = temp_status("rt");
        let mut board = StatusBoard::new(&path, "paper", 2, 1);
        board.started(0, "k=1");
        board.done(0, "k=1");
        let text = fs::read_to_string(&path).unwrap();
        let back = StatusSnapshot::from_json_str(&text).unwrap();
        assert_eq!(&back, &board.snap);
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn validation_rejects_broken_files() {
        assert!(validate_status_json("not json").is_err());
        assert!(validate_status_json("{}").is_err());
        let path = temp_status("bad");
        let board = StatusBoard::new(&path, "t", 1, 1);
        let good = board.snap.to_json_string();
        // Wrong schema tag.
        let bad = good.replace(STATUS_SCHEMA, "regnet-status-v0");
        assert!(validate_status_json(&bad).is_err());
        // Counts that do not add up.
        let bad = good.replace("\"total\": 1", "\"total\": 5");
        assert!(validate_status_json(&bad).is_err());
        // Unknown run state.
        let bad = good.replace("\"running\"", "\"jogging\"");
        assert!(validate_status_json(&bad).is_err());
        // Counts and worker indices that are not exact non-negative
        // integers: loaded as 0, 1 or u64::MAX they would add up.
        for (from, to) in [
            ("\"total\": 1", "\"total\": 1.5"),
            ("\"pending\": 1", "\"pending\": -1"),
            ("\"done\": 0", "\"done\": 1e300"),
            ("\"worker\": 0", "\"worker\": -2"),
            ("\"worker\": 0", "\"worker\": 0.5"),
        ] {
            assert!(good.contains(from), "{from}");
            let bad = good.replace(from, to);
            assert!(validate_status_json(&bad).is_err(), "{to}");
        }
        assert!(validate_status_json(&good).is_ok());
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn stopped_runs_keep_their_pending_count() {
        let path = temp_status("stop");
        let mut board = StatusBoard::new(&path, "campaign", 4, 1);
        board.started(0, "a");
        board.done(0, "a");
        board.finish("stopped");
        let s = read(&path);
        assert_eq!(s.state, "stopped");
        assert_eq!((s.done, s.pending), (1, 3));
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    /// A search's board learns its work round by round and must add up
    /// after every round.
    #[test]
    fn work_added_per_round_keeps_the_counts_consistent() {
        let path = temp_status("add");
        let mut board = StatusBoard::new(&path, "paper", 0, 2);
        for round in 1..=2 {
            board.add(2);
            assert_eq!(read(&path).pending, 2);
            board.done(0, "a");
            board.done(1, "b");
            assert_eq!(
                (read(&path).done, read(&path).total),
                (2 * round, 2 * round)
            );
        }
        board.finish("done");
        assert_eq!(read(&path).state, "done");
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn recent_and_error_lists_are_capped() {
        let path = temp_status("cap");
        let mut board = StatusBoard::new(&path, "t", 32, 1);
        for i in 0..12 {
            board.done(0, &format!("cell-{i}"));
        }
        let s = read(&path);
        assert_eq!(s.recent.len(), RECENT_CAP);
        assert_eq!(s.recent[0], "cell-4", "oldest entries dropped first");
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn dashboard_renders_every_section() {
        let path = temp_status("render");
        let mut board = StatusBoard::new(&path, "campaign", 3, 2);
        board.started(0, "torus:8x8:2/ITB-RR");
        board.started(1, "torus:8x8:2/UP-DOWN");
        board.done(1, "torus:8x8:2/UP-DOWN");
        board.failed(1, "mesh:4x4:2/ITB-SP", "no such cell");
        let text = render_status(&board.snap);
        assert!(text.contains("[campaign] running"));
        assert!(text.contains("1/3 done, 1 failed, 1 pending"));
        assert!(text.contains("w0 running torus:8x8:2/ITB-RR"));
        assert!(text.contains("w1 idle"));
        assert!(text.contains("torus:8x8:2/UP-DOWN"));
        assert!(text.contains("mesh:4x4:2/ITB-SP: no such cell"));
        let _ = fs::remove_dir_all(path.parent().unwrap());
    }
}
