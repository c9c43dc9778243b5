//! Shared experiment harness for the `paper` runner and the development
//! binaries: topology construction by name, command-line parsing, standard
//! sweep parameters, result formatting, and JSON output.

mod experiments;

use std::io::Write;
use std::path::Path;

pub use experiments::Output;
use experiments::{Figure, Request, FIGURES};
use regnet_campaign::TopoSpec;
use regnet_core::{RouteDbConfig, RoutingScheme};
use regnet_metrics::Curve;
use regnet_netsim::{Experiment, RunOptions};
use regnet_netsim::{FaultPlan, SimConfig};
use regnet_topology::{LinkId, Topology};
use regnet_traffic::PatternSpec;

/// The three topologies of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topo {
    /// 8×8 2-D torus, 512 hosts (Figure 4).
    Torus,
    /// 8×8 2-D torus with express channels (Figure 5).
    Express,
    /// CPLANT, 50 switches / 400 hosts (Figure 6).
    Cplant,
}

impl Topo {
    pub(crate) const ALL: [Topo; 3] = [Topo::Torus, Topo::Express, Topo::Cplant];

    /// The campaign spelling of this topology, which is what builds it.
    pub(crate) fn spec(self) -> TopoSpec {
        match self {
            Topo::Torus => TopoSpec::Torus,
            Topo::Express => TopoSpec::Express,
            Topo::Cplant => TopoSpec::Cplant,
        }
    }

    pub fn build(self) -> Topology {
        self.spec().build().expect("a paper topology")
    }

    /// The name `--topo` takes and output file names carry.
    pub(crate) fn tag(self) -> &'static str {
        match self {
            Topo::Torus => "torus",
            Topo::Express => "express",
            Topo::Cplant => "cplant",
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Topo::Torus => "2-D Torus",
            Topo::Express => "2-D Torus with express channels",
            Topo::Cplant => "CPLANT",
        }
    }
}

/// Fidelity of a harness run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Reduced warmup/window and fewer sweep points: minutes, same shape.
    Quick,
    /// Paper-fidelity windows: slower, tighter statistics.
    Full,
}

impl Mode {
    pub fn run_options(self, seed: u64) -> RunOptions {
        match self {
            Mode::Quick => RunOptions {
                warmup_cycles: 60_000,
                measure_cycles: 150_000,
                seed,
                ..RunOptions::default()
            },
            Mode::Full => RunOptions {
                warmup_cycles: 200_000,
                measure_cycles: 500_000,
                seed,
                ..RunOptions::default()
            },
        }
    }
}

/// Build the standard experiment for a (topology, scheme, pattern) cell
/// with paper-default hardware parameters.
pub fn experiment(topo: Topology, scheme: RoutingScheme, pattern: PatternSpec) -> Experiment {
    Experiment::new(
        topo,
        scheme,
        RouteDbConfig::default(),
        pattern,
        SimConfig::default(),
    )
    .expect("experiment construction")
}

/// A parsed `probe` or `diagnose` command line. Every flag takes a value.
#[derive(Debug, PartialEq)]
pub struct DevArgs {
    /// `probe --load`, flits/ns/switch: 0.015 (UP/DOWN's saturation point
    /// on the torus) when absent. `diagnose` runs at a fixed 0.001.
    pub load: f64,
    /// `--events <path>`: Chrome trace JSON of the event journal.
    pub events: Option<String>,
    /// `--metrics <path>`: Prometheus text exposition.
    pub metrics: Option<String>,
    /// `probe --flame <path>`: collapsed stacks of the self-profiler.
    pub flame: Option<String>,
    /// Every `--fail-link <id>@<cycle>`, each a link of the paper torus
    /// both binaries run; `None` when there is none.
    pub faults: Option<FaultPlan>,
}

/// Parse `probe`'s arguments (without the program name), as strictly as
/// [`parse_paper_args`]: `probe 0.03` must not run the default load.
pub fn parse_probe_args(args: &[String]) -> Result<DevArgs, String> {
    parse_dev_args(
        args,
        &["--load", "--events", "--metrics", "--flame", "--fail-link"],
    )
}

/// Parse `diagnose`'s arguments (without the program name), as strictly
/// as [`parse_paper_args`].
pub fn parse_diagnose_args(args: &[String]) -> Result<DevArgs, String> {
    parse_dev_args(args, &["--events", "--metrics", "--fail-link"])
}

/// Parse `args` against the flags a binary `takes`.
fn parse_dev_args(args: &[String], takes: &[&str]) -> Result<DevArgs, String> {
    let mut parsed = DevArgs {
        load: 0.015,
        events: None,
        metrics: None,
        flame: None,
        faults: None,
    };
    let mut plan = FaultPlan::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !takes.contains(&arg.as_str()) {
            return Err(if arg.starts_with('-') {
                format!("unknown flag {arg:?}")
            } else {
                format!("unexpected argument {arg:?}")
            });
        }
        let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
        match arg.as_str() {
            "--load" => {
                let load = value
                    .parse::<f64>()
                    .ok()
                    .filter(|l| *l > 0.0 && l.is_finite());
                parsed.load = load.ok_or_else(|| {
                    format!("bad --load {value:?}: expected a positive number of flits/ns/switch")
                })?;
            }
            "--events" => parsed.events = Some(value.clone()),
            "--metrics" => parsed.metrics = Some(value.clone()),
            "--flame" => parsed.flame = Some(value.clone()),
            _ => {
                let bad = || format!("bad --fail-link {value:?}: expected <id>@<cycle>");
                let (id, cycle) = value.split_once('@').ok_or_else(bad)?;
                let id = id.parse::<u32>().map_err(|_| bad())?;
                let cycle = cycle.parse::<u64>().map_err(|_| bad())?;
                plan.fail_link(cycle, LinkId(id));
            }
        }
    }
    plan.check(&Topo::Torus.build())
        .map_err(|e| format!("bad --fail-link: {e}"))?;
    parsed.faults = (!plan.is_empty()).then_some(plan);
    Ok(parsed)
}

/// A parsed `paper` command line.
#[derive(Debug)]
pub struct PaperArgs {
    /// The subcommand; `None` is `all`.
    pub figure: Option<&'static Figure>,
    pub topo: Option<Topo>,
    pub radius4: bool,
    pub smoke: bool,
    pub mode: Mode,
}

impl PaperArgs {
    /// The figures to run, in order.
    pub fn figures(&self) -> &'static [Figure] {
        self.figure.map_or(FIGURES, std::slice::from_ref)
    }

    /// What `figure` is asked to do: the `--topo` panel, or all of its.
    pub fn request(&self, figure: &Figure) -> Request {
        Request {
            mode: self.mode,
            topos: self.topo.map_or(figure.topos.to_vec(), |t| vec![t]),
            radius4: self.radius4,
            smoke: self.smoke,
        }
    }
}

pub fn paper_usage() -> String {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    format!(
        "usage: paper <{}|all> [--topo torus|express|cplant] [--radius4] [--full|--smoke]\n  \
         --topo     one panel of fig07/fig10/fig12/faults (fig10: torus|express)\n  \
         --radius4  fig12 only: also the 4-switch-radius variant\n  \
         --full     paper-fidelity windows (default: quick)\n  \
         --smoke    faults only: a 4x4 torus and tiny windows, for CI",
        names.join("|")
    )
}

/// Parse `paper`'s arguments (without the program name). Anything a
/// subcommand would ignore is an error, so a typo cannot silently run the
/// default.
pub fn parse_paper_args(args: &[String]) -> Result<PaperArgs, String> {
    let (sub, flags) = args.split_first().ok_or("missing subcommand")?;
    let figure = match sub.as_str() {
        "all" => None,
        name => Some(
            FIGURES
                .iter()
                .find(|f| f.name == name)
                .ok_or_else(|| format!("unknown subcommand {name:?}"))?,
        ),
    };
    let panels = figure.map_or(&[][..], |f| f.topos);
    let mut parsed = PaperArgs {
        figure,
        topo: None,
        radius4: false,
        smoke: false,
        mode: Mode::Quick,
    };
    let mut flags = flags.iter();
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--full" => parsed.mode = Mode::Full,
            "--radius4" if sub == "fig12" => parsed.radius4 = true,
            "--smoke" if sub == "faults" => parsed.smoke = true,
            "--topo" if !panels.is_empty() => {
                parsed.topo = Some(topo_among(panels, flags.next(), sub)?);
            }
            other => return Err(format!("{sub} does not take {other:?}")),
        }
    }
    if parsed.smoke && (parsed.topo.is_some() || parsed.mode == Mode::Full) {
        return Err("--smoke runs its own 4x4 torus and windows: no --topo or --full".into());
    }
    Ok(parsed)
}

/// The `--topo` value among the `panels` that `who` takes.
fn topo_among(panels: &[Topo], value: Option<&String>, who: &str) -> Result<Topo, String> {
    let value = value.ok_or("--topo needs a value")?;
    panels
        .iter()
        .copied()
        .find(|t| t.tag() == value)
        .ok_or_else(|| {
            let tags: Vec<&str> = panels.iter().map(|t| t.tag()).collect();
            format!("bad --topo {value:?}: {who} takes {}", tags.join("|"))
        })
}

/// A parsed `campaign` command line.
#[derive(Debug, Default, PartialEq)]
pub struct CampaignArgs {
    /// The campaign file; `None` under `--smoke`, `--watch` and
    /// `--check-status`, which need none.
    pub file: Option<String>,
    pub out: Option<String>,
    pub threads: Option<usize>,
    pub stop_after: Option<usize>,
    pub what_if: Option<String>,
    pub watch: Option<String>,
    pub check_status: Option<String>,
    pub fresh: bool,
    pub dry_run: bool,
    pub quiet: bool,
    pub smoke: bool,
}

/// Parse `campaign`'s arguments (without the program name), as strictly as
/// [`parse_paper_args`]: a misspelt `--stop-after` must not run the whole
/// campaign.
pub fn parse_campaign_args(args: &[String]) -> Result<CampaignArgs, String> {
    let mut parsed = CampaignArgs::default();
    let given = args.len();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--out" => parsed.out = Some(value()?.clone()),
            "--what-if" => parsed.what_if = Some(value()?.clone()),
            "--watch" => parsed.watch = Some(value()?.clone()),
            "--check-status" => parsed.check_status = Some(value()?.clone()),
            "--threads" => {
                let v = value()?;
                let n = v.parse::<usize>().ok().filter(|&n| n >= 1);
                let n = n.ok_or_else(|| format!("--threads {v:?} is not a positive integer"))?;
                parsed.threads = Some(n);
            }
            "--stop-after" => {
                let v = value()?;
                let n = v.parse::<usize>();
                let n = n.map_err(|_| format!("--stop-after {v:?} is not an integer"))?;
                parsed.stop_after = Some(n);
            }
            "--fresh" => parsed.fresh = true,
            "--dry-run" => parsed.dry_run = true,
            "--quiet" => parsed.quiet = true,
            "--smoke" => parsed.smoke = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            file if parsed.file.is_none() => parsed.file = Some(file.to_string()),
            extra => return Err(format!("unexpected argument {extra:?}")),
        }
    }
    let reads_status = parsed.watch.is_some() || parsed.check_status.is_some();
    if reads_status && given > 2 {
        return Err("--watch and --check-status take their path and nothing else".to_string());
    }
    // What a run would do with them; a what-if query and a dry run do
    // not run the plan (a single query always runs on one worker).
    let run_flags = [
        (parsed.dry_run, "--dry-run"),
        (parsed.fresh, "--fresh"),
        (parsed.stop_after.is_some(), "--stop-after"),
        (parsed.threads.is_some(), "--threads"),
    ];
    for (mode, name, ignored) in [
        (parsed.what_if.is_some(), "--what-if", &run_flags[..]),
        (parsed.dry_run, "--dry-run", &run_flags[1..]),
    ] {
        if let Some((_, flag)) = ignored.iter().find(|(set, _)| mode && *set) {
            return Err(format!("{name} does not take {flag}"));
        }
    }
    if parsed.smoke && parsed.file.is_some() {
        return Err("--smoke runs the built-in campaign: no campaign file".to_string());
    }
    if !parsed.smoke && !reads_status && parsed.file.is_none() {
        return Err("no campaign file given".to_string());
    }
    Ok(parsed)
}

/// Dump an event journal as Chrome `trace_event` JSON to `path` (load it
/// in Perfetto / `chrome://tracing`); prints the path and event count.
pub fn save_chrome_trace(path: &str, journal: &regnet_netsim::EventJournal) {
    let trace = journal.to_chrome();
    match std::fs::write(path, trace.to_json()) {
        Ok(()) => println!(
            "[saved {path}: {} trace events from {} journal entries ({} evicted)]",
            trace.len(),
            journal.len(),
            journal.evicted()
        ),
        Err(e) => eprintln!("could not save {path}: {e}"),
    }
}

/// Geometric load ladder between `lo` and `hi` (inclusive), `n` points.
pub(crate) fn load_ladder(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2 && hi > lo && lo > 0.0);
    let ratio = (hi / lo).powf(1.0 / (n - 1) as f64);
    (0..n).map(|i| lo * ratio.powi(i as i32)).collect()
}

/// Write curves to `target/experiments/<name>.json` (machine-readable) and
/// as gnuplot-ready `.dat` files plus a `<name>.gp` script; prints the
/// paths.
pub(crate) fn save_curves(name: &str, curves: &[Curve]) {
    let dir = Path::new("target/experiments");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let json = serde_json::to_string_pretty(curves).expect("serialize curves");
            let _ = f.write_all(json.as_bytes());
            println!("[saved {}]", path.display());
        }
        Err(e) => eprintln!("could not save {}: {e}", path.display()),
    }
    match regnet_metrics::write_figure(dir, name, name, curves) {
        Ok(script) => println!("[saved {} + data]", script.display()),
        Err(e) => eprintln!("could not export plot files for {name}: {e}"),
    }
}

/// What a route table holds and cost to build, as `probe`/`diagnose`
/// print it.
pub fn describe_route_table(db: &regnet_core::RouteDb, built_in: std::time::Duration) -> String {
    format!(
        "route table: {} (built in {built_in:?}, fingerprint {:016x})",
        db.footprint(),
        db.fingerprint()
    )
}

/// Say what a route table costs, next to whatever else a run exports:
/// `regnet_routedb_{routes,bytes}` gauges from
/// [`RouteDb::footprint`](regnet_core::RouteDb::footprint).
pub fn route_table_gauges(reg: &mut regnet_metrics::MetricsRegistry, db: &regnet_core::RouteDb) {
    let fp = db.footprint();
    reg.gauge(
        "regnet_routedb_routes",
        "Routes in the routing table, over all ordered switch pairs",
        fp.routes as f64,
    );
    reg.gauge(
        "regnet_routedb_bytes",
        "Heap bytes held by the routing table",
        fp.bytes as f64,
    );
}

/// Write a telemetry time series (e.g. per-link utilization over time) to
/// `target/experiments/<name>.{json,dat,gp}`; prints the path.
pub(crate) fn save_time_series(name: &str, ts: &regnet_metrics::TimeSeries) {
    let dir = Path::new("target/experiments");
    match regnet_metrics::write_time_series(dir, name, ts) {
        Ok(json) => println!("[saved {} + data]", json.display()),
        Err(e) => eprintln!("could not export time series {name}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn topo_sizes() {
        assert_eq!(Topo::Torus.build().num_hosts(), 512);
        assert_eq!(Topo::Cplant.build().num_hosts(), 400);
    }

    #[test]
    fn paper_args_accepted() {
        let a = parse_paper_args(&strings(&["fig08"])).unwrap();
        assert_eq!(a.figure.unwrap().name, "fig08");
        assert_eq!((a.topo, a.radius4, a.mode), (None, false, Mode::Quick));
        assert_eq!(a.figures().len(), 1);
        assert!(a.request(&a.figures()[0]).topos.is_empty());

        let a = parse_paper_args(&strings(&[
            "fig12",
            "--full",
            "--topo",
            "cplant",
            "--radius4",
        ]))
        .unwrap();
        assert_eq!(
            a.request(a.figure.unwrap()),
            Request {
                mode: Mode::Full,
                topos: vec![Topo::Cplant],
                radius4: true,
                smoke: false,
            }
        );

        // Without --topo a panelled figure runs every panel it has.
        let a = parse_paper_args(&strings(&["fig10"])).unwrap();
        assert_eq!(
            a.request(a.figure.unwrap()).topos,
            [Topo::Torus, Topo::Express]
        );

        let a = parse_paper_args(&strings(&["all", "--full"])).unwrap();
        assert!(a.figure.is_none());
        assert_eq!(a.mode, Mode::Full);
        assert_eq!(a.figures().len(), FIGURES.len());
    }

    #[test]
    fn paper_args_rejected() {
        for (args, needle) in [
            (&[][..], "missing subcommand"),
            (&["bogus"], "unknown subcommand"),
            (&["--full"], "unknown subcommand"),
            (&["fig07_uniform"], "unknown subcommand"),
            (&["fig08", "--ful"], "--ful"),
            (&["fig08", "extra"], "extra"),
            (&["fig07", "--topo"], "needs a value"),
            (&["fig07", "--topo", "mesh"], "torus|express|cplant"),
            (&["fig07", "--topo", "all"], "torus|express|cplant"),
            (&["fig10", "--topo", "cplant"], "fig10 takes torus|express"),
            (&["fig08", "--topo", "torus"], "--topo"),
            (&["all", "--topo", "torus"], "--topo"),
            (&["fig07", "--radius4"], "--radius4"),
            (&["all", "--radius4"], "--radius4"),
        ] {
            let err = parse_paper_args(&strings(args)).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
        // --smoke is the fault sweep's CI mode and nothing else's.
        for (args, needle) in [
            (&["fig07", "--smoke"][..], "fig07 does not take \"--smoke\""),
            (&["all", "--smoke"], "all does not take \"--smoke\""),
            (
                &["faults", "--radius4"],
                "faults does not take \"--radius4\"",
            ),
            (&["faults", "--smok"], "--smok"),
            (&["faults", "--smoke", "--full"], "no --topo or --full"),
            (
                &["faults", "--topo", "cplant", "--smoke"],
                "no --topo or --full",
            ),
            (&["faults", "--topo", "mesh"], "torus|express|cplant"),
        ] {
            let err = parse_paper_args(&strings(args)).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
        let a = parse_paper_args(&strings(&["faults", "--smoke"])).unwrap();
        assert_eq!((a.smoke, a.mode, a.topo), (true, Mode::Quick, None));
        assert!(!parse_paper_args(&strings(&["faults"])).unwrap().smoke);
        // So is campaign: a typo'd flag must not run the whole campaign.
        for (args, needle) in [
            (&[][..], "no campaign file given"),
            (&["--dry-run"], "no campaign file given"),
            (
                &["--smoke", "--dry-run", "--stop-afer", "4"],
                "unknown flag \"--stop-afer\"",
            ),
            (&["c.json", "-q"], "unknown flag \"-q\""),
            (&["c.json", "--stop-after"], "--stop-after needs a value"),
            (&["c.json", "--stop-after", "soon"], "not an integer"),
            (&["c.json", "--threads", "0"], "not a positive integer"),
            (&["c.json", "--out"], "--out needs a value"),
            (&["--check-status"], "--check-status needs a value"),
            (&["c.json", "d.json"], "unexpected argument \"d.json\""),
            // Flags the mode they are given to would silently ignore.
            (&["--check-status", "s.json", "--quiet"], "nothing else"),
            (&["--watch", "s.json", "c.json"], "nothing else"),
            (
                &["--check-status", "s.json", "--watch", "t.json"],
                "nothing else",
            ),
            (
                &["c.json", "--what-if", "topo=torus", "--dry-run"],
                "--what-if does not take --dry-run",
            ),
            (
                &["c.json", "--what-if", "topo=torus", "--fresh"],
                "--what-if does not take --fresh",
            ),
            (
                &["--smoke", "--what-if", "topo=torus", "--stop-after", "2"],
                "--what-if does not take --stop-after",
            ),
            (
                &["--smoke", "--what-if", "topo=torus", "--threads", "2"],
                "--what-if does not take --threads",
            ),
            (
                &["--smoke", "--dry-run", "--fresh"],
                "--dry-run does not take --fresh",
            ),
            (
                &["c.json", "--dry-run", "--stop-after", "4"],
                "--dry-run does not take --stop-after",
            ),
            (
                &["c.json", "--dry-run", "--threads", "2"],
                "--dry-run does not take --threads",
            ),
            (&["--smoke", "c.json"], "--smoke runs the built-in campaign"),
        ] {
            let err = parse_campaign_args(&strings(args)).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
        for (args, want) in [
            (
                &["c.json", "--threads", "2", "--stop-after", "4", "--fresh"][..],
                CampaignArgs {
                    file: Some("c.json".into()),
                    threads: Some(2),
                    stop_after: Some(4),
                    fresh: true,
                    ..CampaignArgs::default()
                },
            ),
            (
                &["--quiet", "--out", "d", "c.json", "--what-if", "topo=torus"],
                CampaignArgs {
                    file: Some("c.json".into()),
                    out: Some("d".into()),
                    what_if: Some("topo=torus".into()),
                    quiet: true,
                    ..CampaignArgs::default()
                },
            ),
            (
                &["--smoke", "--dry-run"],
                CampaignArgs {
                    smoke: true,
                    dry_run: true,
                    ..CampaignArgs::default()
                },
            ),
            (
                &["--check-status", "s.json"],
                CampaignArgs {
                    check_status: Some("s.json".into()),
                    ..CampaignArgs::default()
                },
            ),
        ] {
            assert_eq!(parse_campaign_args(&strings(args)), Ok(want), "{args:?}");
        }
    }

    #[test]
    fn probe_and_diagnose_args() {
        // Neither runs a default when it was given something it ignores.
        for (args, needle) in [
            (&["0.03"][..], "unexpected argument \"0.03\""),
            (&["--lod", "0.03"], "unknown flag \"--lod\""),
            (&["--load"], "--load needs a value"),
            (&["--flame"], "--flame needs a value"),
            (
                &["--events", "t.json", "extra"],
                "unexpected argument \"extra\"",
            ),
            (&["--fail-link"], "--fail-link needs a value"),
            (&["--fail-link", "3"], "<id>@<cycle>"),
            (&["--fail-link", "x@5000"], "<id>@<cycle>"),
            (&["--fail-link", "3@soon"], "<id>@<cycle>"),
            (&["--fail-link", "-3@5000"], "<id>@<cycle>"),
            // The paper torus has 640 links, 0..=639.
            (
                &["--fail-link", "640@100"],
                "cannot fail link 640 at cycle 100: the topology has 640 links",
            ),
            (
                &["--fail-link", "3@50", "--fail-link", "99999@100"],
                "link 99999",
            ),
        ] {
            let err = parse_probe_args(&strings(args)).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
        for bad in ["garbage", "0", "-0.01", "nan", "inf", ""] {
            let err = parse_probe_args(&strings(&["--load", bad])).unwrap_err();
            assert!(err.contains("bad --load"), "{bad:?}: {err}");
        }
        for (args, needle) in [
            (&["--bogus"][..], "unknown flag \"--bogus\""),
            (&["--load", "0.03"], "unknown flag \"--load\""),
            (&["--flame", "p.folded"], "unknown flag \"--flame\""),
            (&["--metrics"], "--metrics needs a value"),
            (&["run"], "unexpected argument \"run\""),
            (&["--fail-link", "99999@100"], "link 99999"),
        ] {
            let err = parse_diagnose_args(&strings(args)).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }

        let defaults = DevArgs {
            load: 0.015,
            events: None,
            metrics: None,
            flame: None,
            faults: None,
        };
        assert_eq!(parse_probe_args(&[]), Ok(defaults));
        let mut plan = FaultPlan::new();
        plan.fail_link(5_000, LinkId(639));
        plan.fail_link(9_000, LinkId(7));
        let args = [
            "--fail-link",
            "639@5000",
            "--load",
            "0.03",
            "--flame",
            "p.folded",
            "--fail-link",
            "7@9000",
        ];
        let want = DevArgs {
            load: 0.03,
            events: None,
            metrics: None,
            flame: Some("p.folded".into()),
            faults: Some(plan),
        };
        assert_eq!(parse_probe_args(&strings(&args)), Ok(want));
        let args = [
            "--events",
            "t.json",
            "--metrics",
            "m.prom",
            "--fail-link",
            "3@5000",
        ];
        let diagnose = parse_diagnose_args(&strings(&args)).unwrap();
        assert_eq!(diagnose.events.as_deref(), Some("t.json"));
        assert_eq!(diagnose.metrics.as_deref(), Some("m.prom"));
        assert_eq!(diagnose.faults.map(|p| p.len()), Some(1));
    }

    #[test]
    fn usage_names_every_subcommand() {
        let usage = paper_usage();
        for f in FIGURES {
            assert!(usage.contains(f.name), "{}", f.name);
        }
    }

    #[test]
    fn ladder_monotone() {
        let l = load_ladder(0.002, 0.04, 10);
        assert_eq!(l.len(), 10);
        assert!(l.windows(2).all(|w| w[1] > w[0]));
        assert!((l[0] - 0.002).abs() < 1e-12);
        assert!((l[9] - 0.04).abs() < 1e-9);
    }
}
