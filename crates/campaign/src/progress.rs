//! One shared stderr progress printer for every long-running binary
//! (`campaign`, `paper`), replacing their
//! hand-rolled status lines: `[label] done/total (elapsed, ETA) detail`,
//! with the ETA extrapolated from completed-item wall times.

use std::time::Instant;

use crate::runner::RunnerEvent;

/// Incremental progress over a known number of items.
pub struct Progress {
    label: String,
    total: usize,
    done: usize,
    started: Instant,
    /// Suppress output (tests, `--quiet`).
    quiet: bool,
}

/// Render a duration compactly (`850ms`, `12.3s`, `4m07s`).
pub fn fmt_duration(secs: f64) -> String {
    if secs < 1.0 {
        format!("{:.0}ms", secs * 1000.0)
    } else if secs < 120.0 {
        format!("{secs:.1}s")
    } else {
        let m = (secs / 60.0).floor();
        format!("{m:.0}m{:02.0}s", secs - m * 60.0)
    }
}

impl Progress {
    /// Start a progress report over `total` items.
    pub fn start(label: impl Into<String>, total: usize) -> Progress {
        let p = Progress {
            label: label.into(),
            total,
            done: 0,
            started: Instant::now(),
            quiet: false,
        };
        if total > 0 {
            eprintln!("[{}] 0/{} (ETA --:--)", p.label, p.total);
        }
        p
    }

    /// A silent progress tracker (still computes ETA for callers).
    pub fn start_quiet(label: impl Into<String>, total: usize) -> Progress {
        Progress {
            label: label.into(),
            total,
            done: 0,
            started: Instant::now(),
            quiet: true,
        }
    }

    /// One-off status line in the same style (phase announcements).
    pub fn announce(label: &str, msg: &str) {
        eprintln!("[{label}] {msg}");
    }

    /// `items` more joined the work (a search's next round).
    pub fn add(&mut self, items: usize) {
        self.total += items;
    }

    /// Follow the worker pool: step on every landed cell, naming its hash,
    /// accepted traffic and mean latency.
    pub fn record(&mut self, ev: &RunnerEvent<'_>) {
        if let RunnerEvent::Done(done) = ev {
            let r = done.result;
            let line = format!(
                "{} accepted {:.5} avg {:.0}ns",
                r.hash, r.accepted, r.avg_latency_ns
            );
            self.step(&line);
        }
    }

    /// Record one finished item and print the updated line.
    pub fn step(&mut self, detail: &str) {
        self.done += 1;
        if self.quiet {
            return;
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        let mut line = format!(
            "[{}] {}/{} ({} elapsed",
            self.label,
            self.done,
            self.total,
            fmt_duration(elapsed)
        );
        match self.eta_secs() {
            Some(eta) => line.push_str(&format!(", ETA {}", fmt_duration(eta))),
            // No estimate yet (nothing landed) but work remains: show a
            // placeholder instead of silently dropping the field.
            None if self.done < self.total => line.push_str(", ETA --:--"),
            None => {}
        }
        line.push(')');
        if !detail.is_empty() {
            line.push(' ');
            line.push_str(detail);
        }
        eprintln!("{line}");
    }

    /// Items completed so far.
    pub fn done(&self) -> usize {
        self.done
    }

    /// Estimated seconds remaining, extrapolated from the mean wall time
    /// of completed items. `None` until at least one item finished or
    /// after everything is done.
    pub fn eta_secs(&self) -> Option<f64> {
        if self.done == 0 || self.done >= self.total {
            return None;
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        Some(elapsed / self.done as f64 * (self.total - self.done) as f64)
    }

    /// Final line with the total wall time.
    pub fn finish(&self, msg: &str) {
        if self.quiet {
            return;
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        if msg.is_empty() {
            eprintln!(
                "[{}] done: {}/{} in {}",
                self.label,
                self.done,
                self.total,
                fmt_duration(elapsed)
            );
        } else {
            eprintln!(
                "[{}] done: {}/{} in {} — {msg}",
                self.label,
                self.done,
                self.total,
                fmt_duration(elapsed)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eta_extrapolates_from_completed_items() {
        let mut p = Progress::start_quiet("t", 4);
        assert_eq!(p.eta_secs(), None, "no ETA before the first item");
        p.step("");
        let eta = p.eta_secs().expect("ETA after one item");
        // 1 of 4 done: remaining ≈ 3 × elapsed-per-item ≥ 0.
        assert!(eta >= 0.0);
        p.step("");
        p.step("");
        p.step("");
        assert_eq!(p.done(), 4);
        assert_eq!(p.eta_secs(), None, "no ETA once everything finished");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(0.25), "250ms");
        assert_eq!(fmt_duration(12.34), "12.3s");
        assert_eq!(fmt_duration(247.0), "4m07s");
    }
}
