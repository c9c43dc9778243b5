//! One entry per table and figure of the paper's evaluation section.
//!
//! [`FIGURES`] is the `paper` binary's subcommand table. Each entry runs
//! its experiment, prints the paper's presentation of it and saves the
//! curves and series under `target/experiments/`. Quick mode keeps the
//! same workloads and sweep shapes with shorter measurement windows.
//!
//! Everything that simulates more than one point runs as campaign cells
//! on `regnet_campaign`'s worker pool, checkpointed under
//! `target/experiments/cells/` with a live `target/experiments/status.json`:
//! the load ladders (figures 7, 10, 12) and the fault sweep as one plan
//! per subcommand, the saturation searches (tables, `msgsize`,
//! `irregular`) as `what_if_all` rounds. Single points (the utilization
//! maps, `ablation`) call [`Experiment`] directly.

use rand::SeedableRng;
use regnet_campaign::{
    cell, run_plan, what_if_all, CampaignSpec, CellDefaults, CellResult, CellSpec, FaultSpec,
    ResultStore, RunnerOptions, StatusBoard, Sweep, TopoSpec, WhatIfEvent, WhatIfQuery,
};
use regnet_core::{ItbHostPicker, RouteDb, RouteDbConfig, RoutingScheme};
use regnet_metrics::{Curve, CurvePoint, SaturationSearch, TimeSeries, UtilizationSummary};
use regnet_netsim::threads::threads;
use regnet_netsim::{
    ChannelDesc, ChannelUtilSeries, Experiment, FaultPlan, RunOptions, SimConfig, CYCLE_NS,
};
use regnet_topology::{gen, HostId, LinkId, NodeId, SwitchId, Topology};
use regnet_traffic::{random_hotspots, PatternSpec};

use crate::{load_ladder, save_curves, save_time_series, Mode, Topo};

/// Where a figure's output goes: its text to stdout and to the report
/// `paper all` saves, its cells to the store under `target/experiments/`.
#[derive(Default)]
pub struct Output {
    pub report: String,
    /// Opened, and emptied, by the first figure that runs cells, so no
    /// checkpoint outlives the invocation that computed it.
    store: Option<ResultStore>,
}

impl Output {
    pub fn put(&mut self, text: impl AsRef<str>) {
        print!("{}", text.as_ref());
        self.report.push_str(text.as_ref());
    }

    fn store(&mut self) -> &ResultStore {
        self.store.get_or_insert_with(|| {
            let store = ResultStore::open("target/experiments").expect("open the cell store");
            store.clear().expect("empty the cell store");
            store
        })
    }

    /// Run every cell of `sweeps` on the campaign runner with [`threads`]
    /// workers, publishing `status.json` as cells land, and return each
    /// sweep's results in its own cell order (scheme, then load, then
    /// fault plan).
    fn run_sweeps(&mut self, label: &str, sweeps: &[Sweep]) -> Vec<Vec<CellResult>> {
        let plan = |sweeps: &[Sweep]| {
            let spec = CampaignSpec {
                name: label.to_string(),
                defaults: CellDefaults::default(),
                sweeps: sweeps.to_vec(),
            };
            spec.expand().expect("paper's sweeps expand")
        };
        let store = self.store();
        let all = plan(sweeps);
        let pending = all
            .cells
            .iter()
            .filter(|c| !store.contains(&c.hash))
            .count();
        let workers = threads().clamp(1, pending.max(1));
        let mut board = status_board(store, label, pending, workers);
        let opts = RunnerOptions {
            threads: workers,
            stop_after: None,
        };
        let outcome = run_plan(&all, store, &opts, |ev| board.record(&ev));
        finish(board, label, outcome);
        let load = |hash: &str| store.load(hash).expect("a cell this plan ran");
        let results = |s: &Sweep| {
            plan(std::slice::from_ref(s))
                .cells
                .iter()
                .map(|c| load(&c.hash))
                .collect()
        };
        sweeps.iter().map(results).collect()
    }

    /// Run every query's saturation search to its end with [`threads`]
    /// workers, publishing `status.json` as probes land, and return what
    /// each found as the paper reports it: the highest accepted traffic.
    fn run_searches(&mut self, label: &str, queries: &[WhatIfQuery]) -> Vec<f64> {
        let store = self.store();
        let workers = threads();
        let mut board = status_board(store, label, 0, workers);
        let outcome = what_if_all(queries, store, workers, |ev| match ev {
            WhatIfEvent::Round { cells } => board.add(cells),
            WhatIfEvent::Cell(ev) => board.record(&ev),
            WhatIfEvent::Probe { .. } => {}
        });
        let found = finish(board, label, outcome);
        found.iter().map(|r| r.saturation.throughput).collect()
    }
}

/// One `paper` plan's `status.json`, echoed to stderr under `label`.
fn status_board(store: &ResultStore, label: &str, pending: usize, workers: usize) -> StatusBoard {
    let status = store.root().join("status.json");
    StatusBoard::new(status, "paper", pending, workers).echo(label)
}

/// Publish the plan's final state; a failed plan ends the figure.
fn finish<T>(mut board: StatusBoard, label: &str, outcome: Result<T, String>) -> T {
    board.finish(if outcome.is_ok() { "done" } else { "failed" });
    outcome.unwrap_or_else(|e| panic!("{label}: {e}"))
}

/// What a [`Figure`] is asked to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub mode: Mode,
    /// One panel per topology, for the figures that have panels.
    pub topos: Vec<Topo>,
    /// Figure 12 only: also run the 4-switch-radius variant.
    pub radius4: bool,
    /// The fault sweep only: its 4x4 CI grid instead of the panels.
    pub smoke: bool,
}

/// One `paper` subcommand.
#[derive(Debug)]
pub struct Figure {
    pub name: &'static str,
    /// Stems of the files it writes, `target/experiments/<stem>_*`.
    pub stems: &'static [&'static str],
    /// The `--topo` values it accepts, which are also its default panels;
    /// empty for a figure defined on one topology.
    pub topos: &'static [Topo],
    pub run: fn(&Request, &mut Output),
}

/// Every subcommand, in the order `paper all` runs them.
pub(crate) const FIGURES: &[Figure] = &[
    Figure {
        name: "routes",
        stems: &[],
        topos: &[],
        run: run_routes,
    },
    Figure {
        name: "fig07",
        stems: &["fig07"],
        topos: &Topo::ALL,
        run: run_fig07,
    },
    Figure {
        name: "fig10",
        stems: &["fig10"],
        // CPLANT's 400 hosts are not a power of two, as the paper notes.
        topos: &[Topo::Torus, Topo::Express],
        run: run_fig10,
    },
    Figure {
        name: "fig12",
        stems: &["fig12", "fig12r4"],
        topos: &Topo::ALL,
        run: run_fig12,
    },
    Figure {
        name: "fig08",
        stems: &["fig08"],
        topos: &[],
        run: run_fig08,
    },
    Figure {
        name: "fig09",
        stems: &["fig09"],
        topos: &[],
        run: run_fig09,
    },
    Figure {
        name: "fig11",
        stems: &["fig11"],
        topos: &[],
        run: run_fig11,
    },
    Figure {
        name: "table1",
        stems: &[],
        topos: &[],
        run: |req, out| TABLE1.emit(req, out),
    },
    Figure {
        name: "table2",
        stems: &[],
        topos: &[],
        run: |req, out| TABLE2.emit(req, out),
    },
    Figure {
        name: "table3",
        stems: &[],
        topos: &[],
        run: |req, out| TABLE3.emit(req, out),
    },
    Figure {
        name: "msgsize",
        stems: &[],
        topos: &[],
        run: run_msgsize,
    },
    Figure {
        name: "irregular",
        stems: &[],
        topos: &[],
        run: run_irregular,
    },
    Figure {
        name: "ablation",
        stems: &[],
        topos: &[],
        run: run_ablation,
    },
    Figure {
        name: "faults",
        stems: &["fault_throughput_vs_failed_links", "fault_goodput_dip"],
        topos: &Topo::ALL,
        run: run_faults,
    },
];

/// A hotspot-throughput table (Tables 1–3 of the paper).
#[derive(Debug)]
pub(crate) struct TableResult {
    pub name: String,
    /// Column labels after the first ("Hotspot") column.
    pub header: Vec<String>,
    /// One row per hotspot location: (label, one value per column).
    pub rows: Vec<(String, Vec<f64>)>,
}

impl TableResult {
    /// Column averages (the paper's "Avg" row).
    pub(crate) fn averages(&self) -> Vec<f64> {
        let cols = self.header.len();
        let mut sums = vec![0.0; cols];
        for (_, vals) in &self.rows {
            for (s, v) in sums.iter_mut().zip(vals) {
                *s += v;
            }
        }
        let n = self.rows.len().max(1) as f64;
        sums.iter().map(|s| s / n).collect()
    }

    pub(crate) fn render(&self) -> String {
        let mut out = format!("== {} ==\nHotspot  ", self.name);
        for h in &self.header {
            out.push_str(&format!("{h:>10}"));
        }
        out.push('\n');
        for (label, vals) in &self.rows {
            out.push_str(&format!("{label:<9}"));
            for v in vals {
                out.push_str(&format!("{v:>10.4}"));
            }
            out.push('\n');
        }
        out.push_str("Avg      ");
        for v in self.averages() {
            out.push_str(&format!("{v:>10.4}"));
        }
        out.push('\n');
        out
    }
}

/// A link-utilization experiment (Figures 8, 9, 11): labelled snapshots.
#[derive(Debug)]
pub(crate) struct UtilSnapshot {
    pub label: String,
    pub offered: f64,
    pub summary: UtilizationSummary,
    pub descs: Vec<ChannelDesc>,
    /// Per-link utilization over time (fractions per sampling interval),
    /// recorded by the `channel_util_interval` trace observer.
    pub util_series: Option<TimeSeries>,
}

#[derive(Debug)]
pub(crate) struct UtilReport {
    pub name: String,
    pub snapshots: Vec<UtilSnapshot>,
}

impl UtilReport {
    pub(crate) fn render(&self) -> String {
        let mut out = format!("== {} ==\n", self.name);
        for s in &self.snapshots {
            out.push_str(&format!(
                "\n-- {} @ {:.4} flits/ns/switch --\n",
                s.label, s.offered
            ));
            out.push_str(&format!(
                "links: {}  util min {:.1}% max {:.1}% mean {:.1}%  imbalance (cv) {:.2}\n",
                s.summary.per_channel.len(),
                s.summary.min() * 100.0,
                s.summary.max() * 100.0,
                s.summary.mean() * 100.0,
                s.summary.imbalance()
            ));
            out.push_str(&format!(
                "fraction of links under 10%: {:.0}%  under 12%: {:.0}%  under 30%: {:.0}%\n",
                s.summary.fraction_below(0.10) * 100.0,
                s.summary.fraction_below(0.12) * 100.0,
                s.summary.fraction_below(0.30) * 100.0
            ));
            out.push_str(&s.summary.to_histogram_table());
        }
        out
    }
}

/// Offered-load ladder for a (topology, pattern family) cell, bracketing
/// every scheme's saturation point.
fn ladder_for(topo: Topo, pattern: &PatternSpec, mode: Mode) -> Vec<f64> {
    let n = match mode {
        Mode::Quick => 8,
        Mode::Full => 12,
    };
    let (lo, hi) = match (topo, pattern) {
        (Topo::Torus, PatternSpec::Local { .. }) => (0.01, 0.22),
        (Topo::Express, PatternSpec::Local { .. }) => (0.01, 0.30),
        (Topo::Cplant, PatternSpec::Local { .. }) => (0.01, 0.25),
        (Topo::Torus, _) => (0.003, 0.045),
        (Topo::Express, _) => (0.008, 0.16),
        (Topo::Cplant, _) => (0.006, 0.13),
    };
    load_ladder(lo, hi, n)
}

/// One curve family of a latency-vs-traffic figure (7, 10, 12): a load
/// ladder per routing scheme on each requested topology.
struct Ladder {
    /// Files go to `target/experiments/<stem>_<topo>.*`.
    stem: &'static str,
    /// The panel is titled `<figure> (<topology>) — <traffic>`.
    figure: &'static str,
    traffic: &'static str,
    pattern: PatternSpec,
    seed: u64,
}

impl Ladder {
    /// The panel's cells: every scheme of [`RoutingScheme::all`] at every
    /// load of [`ladder_for`], with `mode`'s windows.
    fn cells(&self, topo: Topo, mode: Mode) -> Sweep {
        let opts = mode.run_options(self.seed);
        Sweep {
            group: format!("{}_{}", self.stem, topo.tag()),
            topos: vec![topo.spec()],
            schemes: RoutingScheme::all().to_vec(),
            patterns: vec![self.pattern],
            loads: ladder_for(topo, &self.pattern, mode),
            seeds: vec![self.seed],
            faults: vec![None],
            defaults: CellDefaults {
                warmup_cycles: opts.warmup_cycles,
                measure_cycles: opts.measure_cycles,
                seed: self.seed,
                ..CellDefaults::default()
            },
        }
    }
}

/// **Figure 7** — uniform traffic, latency vs accepted traffic.
/// 7a: 2-D torus; 7b: torus + express channels; 7c: CPLANT.
const FIG07: Ladder = Ladder {
    stem: "fig07",
    figure: "Figure 7",
    traffic: "uniform",
    pattern: PatternSpec::Uniform,
    seed: 7,
};

/// **Figure 10** — bit-reversal traffic (torus and express only; CPLANT's
/// 400 hosts are not a power of two, as the paper notes).
const FIG10: Ladder = Ladder {
    stem: "fig10",
    figure: "Figure 10",
    traffic: "bit-reversal",
    pattern: PatternSpec::BitReversal,
    seed: 10,
};

/// **Figure 12** — local traffic (destinations at most 3 switches away).
const FIG12: Ladder = Ladder {
    stem: "fig12",
    figure: "Figure 12",
    traffic: "local(3)",
    pattern: PatternSpec::Local { max_switch_dist: 3 },
    seed: 12,
};

/// The paper also studies local traffic with 4-switch radius (section 4.2).
const FIG12_RADIUS4: Ladder = Ladder {
    stem: "fig12r4",
    figure: "Figure 12 variant",
    traffic: "local(4)",
    pattern: PatternSpec::Local { max_switch_dist: 4 },
    seed: 13,
};

/// Run `ladders` on every requested topology as one plan, then print each
/// panel and save its curves as `<stem>_<topo>`, topology by topology.
fn run_ladders(req: &Request, out: &mut Output, ladders: &[&Ladder]) {
    let panels: Vec<(Topo, &Ladder)> = req
        .topos
        .iter()
        .flat_map(|&topo| ladders.iter().map(move |&l| (topo, l)))
        .collect();
    let sweeps: Vec<Sweep> = panels.iter().map(|&(t, l)| l.cells(t, req.mode)).collect();
    let results = out.run_sweeps(ladders[0].stem, &sweeps);
    for ((topo, ladder), cells) in panels.into_iter().zip(results) {
        let name = topo.build().name().to_string();
        let schemes = RoutingScheme::all();
        let per_scheme = cells.chunks(cells.len() / schemes.len());
        let curves: Vec<Curve> = schemes
            .into_iter()
            .zip(per_scheme)
            .map(|(scheme, cells)| {
                let label = format!("{name} / {} / {}", scheme.label(), ladder.pattern.label());
                Curve::from_points(label, cells.iter().map(CellResult::curve_point).collect())
            })
            .collect();
        let title = format!("{} ({}) — {}", ladder.figure, topo.label(), ladder.traffic);
        out.put(render_panel(&title, &curves));
        save_curves(&format!("{}_{}", ladder.stem, topo.tag()), &curves);
    }
}

/// A latency-vs-traffic panel as text: one table per scheme's curve.
fn render_panel(title: &str, curves: &[Curve]) -> String {
    let mut out = format!("== {title} ==\n");
    for c in curves {
        out.push_str(&c.to_table());
        out.push_str(&format!(
            "  -> throughput (max accepted): {:.4} flits/ns/switch\n\n",
            c.throughput()
        ));
    }
    out
}

fn run_fig07(req: &Request, out: &mut Output) {
    run_ladders(req, out, &[&FIG07]);
}

fn run_fig10(req: &Request, out: &mut Output) {
    run_ladders(req, out, &[&FIG10]);
}

fn run_fig12(req: &Request, out: &mut Output) {
    let ladders: &[&Ladder] = if req.radius4 {
        &[&FIG12, &FIG12_RADIUS4]
    } else {
        &[&FIG12]
    };
    run_ladders(req, out, ladders);
}

/// Sampling interval (cycles) for the utilization time series of the
/// figure-8/9/11 runs.
fn util_trace_interval(mode: Mode) -> u64 {
    match mode {
        Mode::Quick => 5_000,
        Mode::Full => 20_000,
    }
}

fn desc_label(d: &ChannelDesc) -> String {
    let node = |n: &NodeId| match n {
        NodeId::Switch(s) => s.to_string(),
        NodeId::Host(h) => h.to_string(),
    };
    format!("{}->{}", node(&d.from), node(&d.to))
}

/// Convert raw busy-cycle buckets from the trace observer into a
/// utilization-fraction [`TimeSeries`], one named series per channel.
fn util_time_series(label: &str, descs: &[ChannelDesc], s: &ChannelUtilSeries) -> TimeSeries {
    let mut ts = TimeSeries::new(label, s.interval);
    for (d, row) in descs.iter().zip(&s.busy) {
        let values = row
            .iter()
            .map(|&b| f64::from(b) / s.interval as f64)
            .collect();
        ts.push(desc_label(d), values);
    }
    ts
}

/// The campaign cell behind one utilization snapshot: paper-default
/// hardware, seed 8 and `mode`'s windows (`campaigns/paper_figs.json`
/// holds the quick-mode ones).
fn util_cell(
    topo: Topo,
    scheme: RoutingScheme,
    pattern: PatternSpec,
    load: f64,
    mode: Mode,
) -> CellSpec {
    let opts = mode.run_options(8);
    CellSpec {
        topo: topo.spec(),
        scheme,
        pattern,
        load,
        seed: opts.seed,
        warmup_cycles: opts.warmup_cycles,
        measure_cycles: opts.measure_cycles,
        payload_flits: SimConfig::default().payload_flits,
        goodput_interval: None,
        reconfig_latency_cycles: None,
        faults: None,
    }
}

/// Run `cell` as the campaign does, with the channel-utilization
/// observer armed on top.
fn util_snapshot(cell: &CellSpec, mode: Mode) -> UtilSnapshot {
    let exp = cell::build_experiment(cell).expect("a paper cell");
    let mut opts = cell::run_options(cell);
    opts.trace.channel_util_interval = Some(util_trace_interval(mode));
    let obs = exp.run_observed(cell.load, &opts);
    let (summary, descs, series) = exp.link_utilization(&obs);
    let label = format!("{} {}", cell.scheme.label(), cell.pattern.label());
    let offered = cell.load;
    let util_series = series.map(|s| util_time_series(&format!("{label} @ {offered}"), &descs, &s));
    UtilSnapshot {
        label,
        offered,
        summary,
        descs,
        util_series,
    }
}

fn util_report(name: String, cells: &[CellSpec], mode: Mode) -> UtilReport {
    UtilReport {
        name,
        snapshots: cells.iter().map(|c| util_snapshot(c, mode)).collect(),
    }
}

/// Print a link-utilization figure on the 8×8 torus: the histograms, then
/// per snapshot its `lead_in`, the per-switch grid (the paper's greyscale
/// maps as text) and the `<stem>_util_<i>` time series.
fn emit_util_report(
    report: &UtilReport,
    stem: &str,
    lead_in: fn(&UtilSnapshot) -> String,
    out: &mut Output,
) {
    out.put(report.render());
    for (i, snap) in report.snapshots.iter().enumerate() {
        out.put(lead_in(snap));
        out.put(format!("{}\n", switch_grid_map(snap, 8, 64)));
        if let Some(ts) = &snap.util_series {
            save_time_series(&format!("{stem}_util_{i}"), ts);
        }
    }
}

/// **Figure 8** — link utilization in the 2-D torus under uniform traffic:
/// UP/DOWN at its saturation point (0.015), ITB-RR at the same load, and
/// ITB-RR near its own saturation (0.03).
fn fig08_cells(mode: Mode) -> Vec<CellSpec> {
    let cell = |scheme, load| util_cell(Topo::Torus, scheme, PatternSpec::Uniform, load, mode);
    vec![
        cell(RoutingScheme::UpDown, 0.015),
        cell(RoutingScheme::ItbRr, 0.015),
        cell(RoutingScheme::ItbRr, 0.03),
    ]
}

fn run_fig08(req: &Request, out: &mut Output) {
    let name = "Figure 8 — link utilization, 2-D torus, uniform".into();
    let report = util_report(name, &fig08_cells(req.mode), req.mode);
    emit_util_report(&report, "fig08", |_| "\n".into(), out);
}

/// **Figure 9** — link utilization in the torus with express channels at
/// UP/DOWN's saturation point (0.066).
fn fig09_cells(mode: Mode) -> Vec<CellSpec> {
    let cell = |scheme| util_cell(Topo::Express, scheme, PatternSpec::Uniform, 0.066, mode);
    vec![cell(RoutingScheme::UpDown), cell(RoutingScheme::ItbRr)]
}

/// Mean utilization of the express channels (which connect switches two
/// hops apart in a torus dimension) and of the ordinary torus links; the
/// paper reads express ≈25 %, local links ≈10 % under ITB-RR.
fn express_split(snap: &UtilSnapshot) -> String {
    let (mut ex, mut nex) = (Vec::new(), Vec::new());
    for (d, &u) in snap.descs.iter().zip(&snap.summary.per_channel) {
        if let (NodeId::Switch(SwitchId(a)), NodeId::Switch(SwitchId(b))) = (d.from, d.to) {
            let (ra, ca) = ((a / 8) as i32, (a % 8) as i32);
            let (rb, cb) = ((b / 8) as i32, (b % 8) as i32);
            let dr = (ra - rb).rem_euclid(8).min((rb - ra).rem_euclid(8));
            let dc = (ca - cb).rem_euclid(8).min((cb - ca).rem_euclid(8));
            if dr + dc == 2 {
                ex.push(u);
            } else {
                nex.push(u);
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    format!(
        "\n{}: express channels mean {:.1}%  ordinary links mean {:.1}%\n",
        snap.label,
        mean(&ex) * 100.0,
        mean(&nex) * 100.0
    )
}

fn run_fig09(req: &Request, out: &mut Output) {
    let name = "Figure 9 — link utilization, torus+express, uniform".into();
    let report = util_report(name, &fig09_cells(req.mode), req.mode);
    emit_util_report(&report, "fig09", express_split, out);
}

/// **Figure 11** — link utilization in the torus with 10% hotspot traffic
/// at UP/DOWN's saturation point (~0.0123).
fn fig11_cells(hotspot: HostId, mode: Mode) -> Vec<CellSpec> {
    let pattern = PatternSpec::Hotspot {
        fraction: 0.10,
        host: hotspot,
    };
    let cell = |scheme| util_cell(Topo::Torus, scheme, pattern, 0.0123, mode);
    vec![cell(RoutingScheme::UpDown), cell(RoutingScheme::ItbRr)]
}

fn fig11_hotspot(topo: &Topology) -> HostId {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(1111);
    random_hotspots(topo, 1, &mut rng)[0]
}

fn run_fig11(req: &Request, out: &mut Output) {
    let topo = Topo::Torus.build();
    let hotspot = fig11_hotspot(&topo);
    let name = format!(
        "Figure 11 — link utilization, 2-D torus, 10% hotspot at {hotspot} (switch {})",
        topo.host_switch(hotspot)
    );
    let report = util_report(name, &fig11_cells(hotspot, req.mode), req.mode);
    emit_util_report(&report, "fig11", |_| "\n".into(), out);
    out.put("(root switch is s0, top-left of the grid)\n");
}

/// One saturation search per scheme of [`RoutingScheme::all`] on `topo`
/// under `pattern`, from `start`, with paper-default hardware and half of
/// `mode`'s windows: a search needs less precision per point than a
/// latency curve.
fn throughput_searches(
    topo: TopoSpec,
    pattern: PatternSpec,
    start: f64,
    seed: u64,
    mode: Mode,
) -> Vec<WhatIfQuery> {
    let opts = mode.run_options(seed);
    let query = |scheme| WhatIfQuery {
        cell: CellSpec {
            topo,
            scheme,
            pattern,
            load: 0.0,
            seed,
            warmup_cycles: opts.warmup_cycles / 2,
            measure_cycles: opts.measure_cycles / 2,
            payload_flits: SimConfig::default().payload_flits,
            goodput_interval: None,
            reconfig_latency_cycles: None,
            faults: None,
        },
        search: SaturationSearch::new(start),
    };
    RoutingScheme::all().into_iter().map(query).collect()
}

/// A hotspot-throughput table (Tables 1–3 of the paper): every scheme's
/// saturation throughput at each hotspot fraction, over random hotspot
/// locations.
struct HotspotTable {
    name: &'static str,
    topo: Topo,
    /// Hotspot fractions, one block of scheme columns each, with the
    /// block's label.
    fractions: &'static [(f64, &'static str)],
    /// First offered load of every search.
    start: f64,
    /// The paper's ITB throughput factors over UP/DOWN.
    paper: &'static str,
}

impl HotspotTable {
    /// Search every entry, then print the table and, per hotspot
    /// fraction, the ITB schemes' throughput factor over UP/DOWN next to
    /// the paper's.
    fn emit(&self, req: &Request, out: &mut Output) {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xB07);
        let count = match req.mode {
            Mode::Quick => 3,
            Mode::Full => 10,
        };
        let hotspots = random_hotspots(&self.topo.build(), count, &mut rng);
        let mut header = Vec::new();
        for &(f, _) in self.fractions {
            for scheme in RoutingScheme::all() {
                header.push(format!("{}% {}", (f * 100.0).round(), scheme.label()));
            }
        }
        let mut queries = Vec::new();
        for &host in &hotspots {
            for &(fraction, _) in self.fractions {
                let pattern = PatternSpec::Hotspot { fraction, host };
                let topo = self.topo.spec();
                queries.extend(throughput_searches(topo, pattern, self.start, 21, req.mode));
            }
        }
        let found = out.run_searches(self.name, &queries);
        let rows = hotspots.iter().zip(found.chunks(header.len())).enumerate();
        let t = TableResult {
            name: self.name.into(),
            header,
            rows: rows
                .map(|(i, (hs, row))| (format!("{} ({hs})", i + 1), row.to_vec()))
                .collect(),
        };
        out.put(t.render());
        let avg = t.averages();
        let factors = |b: usize| {
            let ud = avg[b * 3];
            format!(
                "ITB-SP x{:.2}  ITB-RR x{:.2}",
                avg[b * 3 + 1] / ud,
                avg[b * 3 + 2] / ud
            )
        };
        let paper = self.paper;
        if let [_] = self.fractions {
            out.put(format!(
                "\nthroughput factors vs UP/DOWN: {}   (paper: {paper})\n",
                factors(0)
            ));
        } else {
            out.put("\nthroughput factors vs UP/DOWN:\n");
            for (b, (_, label)) in self.fractions.iter().enumerate() {
                out.put(format!("  {label}: {}   (paper: {paper})\n", factors(b)));
            }
        }
    }
}

/// **Table 1** — throughput under hotspot traffic in the 2-D torus, for
/// 5% and 10% hotspot load, over several random hotspot locations.
const TABLE1: HotspotTable = HotspotTable {
    name: "Table 1 — hotspot throughput, 2-D torus",
    topo: Topo::Torus,
    fractions: &[(0.05, "5% hotspot"), (0.10, "10% hotspot")],
    start: 0.004,
    paper: "x2.13 / x2.19 at 5%, x1.40 / x1.48 at 10%",
};

/// **Table 2** — hotspot throughput in the torus with express channels,
/// 3% and 5% hotspot load.
const TABLE2: HotspotTable = HotspotTable {
    name: "Table 2 — hotspot throughput, torus+express",
    topo: Topo::Express,
    fractions: &[(0.03, "3% hotspot"), (0.05, "5% hotspot")],
    start: 0.01,
    paper: "x1.13 / x1.12 at 3%, x1.08 / x1.07 at 5%",
};

/// **Table 3** — hotspot throughput in CPLANT, 5% hotspot load.
const TABLE3: HotspotTable = HotspotTable {
    name: "Table 3 — hotspot throughput, CPLANT",
    topo: Topo::Cplant,
    fractions: &[(0.05, "5% hotspot")],
    start: 0.008,
    paper: "x1.24 / x1.32",
};

/// Route-level statistics quoted in section 4.7.1 of the paper.
#[derive(Debug)]
pub(crate) struct RouteStatsReport {
    pub rows: Vec<(String, regnet_core::analysis::RouteStats)>,
}

impl RouteStatsReport {
    pub(crate) fn render(&self) -> String {
        let mut out = String::from(
            "topology/scheme              minimal%   avg-dist   avg-itbs   max-itbs   alts\n",
        );
        for (label, s) in &self.rows {
            out.push_str(&format!(
                "{label:<28} {:>7.1}%   {:>8.3}   {:>8.3}   {:>8}   {:>4.1}\n",
                s.minimal_fraction * 100.0,
                s.avg_distance,
                s.avg_itbs,
                s.max_itbs,
                s.avg_alternatives
            ));
        }
        out
    }
}

/// Compute route statistics for every (topology, scheme) cell.
pub(crate) fn route_stats() -> RouteStatsReport {
    let mut rows = Vec::new();
    for topo in [Topo::Torus, Topo::Express, Topo::Cplant] {
        let t = topo.build();
        for scheme in RoutingScheme::all() {
            let db = RouteDb::build(&t, scheme, &RouteDbConfig::default());
            let stats = regnet_core::analysis::RouteStats::compute(&t, &db);
            rows.push((format!("{} / {}", t.name(), scheme.label()), stats));
        }
    }
    RouteStatsReport { rows }
}

fn run_routes(_: &Request, out: &mut Output) {
    out.put(route_stats().render());
    out.put(
        "\npaper reference points:\n  \
         torus UP/DOWN: 80% minimal, avg distance 4.57; minimal avg 4.06\n  \
         express UP/DOWN: 94% minimal; CPLANT UP/DOWN: 100% minimal\n  \
         ITB torus: 0.43 (SP) / 0.54 (RR) in-transit buffers per message\n",
    );
}

/// The paper's message-size claim (section 4.2): "for message length, 32,
/// 512, and 1024-byte messages have been considered ... the obtained
/// results are qualitatively similar". The UP/DOWN vs ITB ordering and
/// rough factor must hold at every size.
fn run_msgsize(req: &Request, out: &mut Output) {
    out.put("saturation throughput (flits/ns/switch), 2-D torus, uniform traffic\n\n");
    out.put("msg bytes   UP/DOWN    ITB-SP    ITB-RR    ITB-RR/UD\n");
    let sizes = [32usize, 512, 1024];
    let mut queries = Vec::new();
    for payload in sizes {
        let uniform = PatternSpec::Uniform;
        for mut q in throughput_searches(TopoSpec::Torus, uniform, 0.004, 31, req.mode) {
            q.cell.payload_flits = payload;
            queries.push(q);
        }
    }
    let found = out.run_searches("msgsize", &queries);
    for (payload, row) in sizes.iter().zip(found.chunks(3)) {
        out.put(format!(
            "{payload:>9}   {:.4}    {:.4}    {:.4}    x{:.2}\n",
            row[0],
            row[1],
            row[2],
            row[2] / row[0]
        ));
    }
    out.put("\npaper: results qualitatively similar across sizes; ITB ~2x UP/DOWN.\n");
}

/// Extension: the ITB mechanism on *irregular* networks (the setting of
/// the authors' companion papers [5, 6], which this paper generalises
/// from). The up*/down* restriction bites harder as a random connected
/// network grows, so the ITB gain should widen.
fn run_irregular(req: &Request, out: &mut Output) {
    out.put("irregular networks, uniform traffic, 512-byte messages, 4 hosts/switch\n\n");
    out.put(format!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>12}\n",
        "switches", "UP/DOWN", "ITB-SP", "ITB-RR", "RR gain", "minimal% UD"
    ));
    let topos = [8, 16, 24, 32].map(|switches| TopoSpec::Irregular {
        switches,
        degree: 4,
        hosts: 4,
        seed: 2026,
    });
    let queries: Vec<WhatIfQuery> = topos
        .iter()
        .flat_map(|&topo| throughput_searches(topo, PatternSpec::Uniform, 0.004, 41, req.mode))
        .collect();
    let found = out.run_searches("irregular", &queries);
    for (spec, row) in topos.iter().zip(found.chunks(3)) {
        // Route-level restriction: how many UP/DOWN routes are minimal?
        let topo = spec.build().expect("an irregular topology");
        let db = RouteDb::build(&topo, RoutingScheme::UpDown, &RouteDbConfig::default());
        let stats = regnet_core::analysis::RouteStats::compute(&topo, &db);
        out.put(format!(
            "{:>8} {:>10.4} {:>10.4} {:>10.4} {:>11.2}x {:>11.1}%\n",
            topo.num_switches(),
            row[0],
            row[1],
            row[2],
            row[2] / row[0],
            stats.minimal_fraction * 100.0
        ));
    }
    out.put("\ncompanion-paper trend: the ITB gain grows with network size as\n");
    out.put("up*/down* forbids an increasing share of minimal paths.\n");
}

/// The design choices called out in DESIGN.md §14, one ITB-RR point each
/// on a 4×4 torus (4 hosts per switch, 64-flit messages, offered 0.012):
/// re-injection priority, cut-through vs store-and-forward re-injection,
/// the alternative-route cap, the in-transit pool size, the spanning-tree
/// root, the in-transit host picker and — with the seeded-random ITB-RND
/// extension — the path-selection policy.
pub(crate) fn ablations() -> Vec<(String, CurvePoint)> {
    let sim = SimConfig {
        payload_flits: 64,
        ..SimConfig::default()
    };
    let db = RouteDbConfig::default();
    let rr = RoutingScheme::ItbRr;
    let mut cells = Vec::new();
    let mut cell = |name: String, scheme: RoutingScheme, sim: &SimConfig, db: &RouteDbConfig| {
        cells.push((name, scheme, sim.clone(), db.clone()));
    };
    for (name, itb_priority) in [("priority", true), ("fifo", false)] {
        let sim = SimConfig {
            itb_priority,
            ..sim.clone()
        };
        cell(format!("ablation_itb_priority/{name}"), rr, &sim, &db);
    }
    for (name, itb_cut_through) in [("cut_through", true), ("store_and_forward", false)] {
        let sim = SimConfig {
            itb_cut_through,
            ..sim.clone()
        };
        cell(format!("ablation_reinjection/{name}"), rr, &sim, &db);
    }
    for max_alternatives in [1usize, 2, 4, 10, 32] {
        let db = RouteDbConfig {
            max_alternatives,
            ..db.clone()
        };
        let name = format!("ablation_route_cap/cap_{max_alternatives}");
        cell(name, rr, &sim, &db);
    }
    // 90 KB is the paper's pool; 2 KB exercises the host-memory overflow.
    for (name, itb_pool_flits) in [
        ("pool_2kb", 2 * 1024),
        ("pool_90kb", 90 * 1024),
        ("pool_1mb", 1024 * 1024),
    ] {
        let sim = SimConfig {
            itb_pool_flits,
            ..sim.clone()
        };
        cell(format!("ablation_itb_pool/{name}"), rr, &sim, &db);
    }
    for (name, root) in [("corner_s0", SwitchId(0)), ("centre_s5", SwitchId(5))] {
        let db = RouteDbConfig { root, ..db.clone() };
        cell(format!("ablation_root/{name}"), rr, &sim, &db);
    }
    for (name, itb_picker) in [
        ("first", ItbHostPicker::First),
        ("spread", ItbHostPicker::Spread),
    ] {
        let db = RouteDbConfig {
            itb_picker,
            ..db.clone()
        };
        cell(format!("ablation_itb_picker/{name}"), rr, &sim, &db);
    }
    for scheme in RoutingScheme::extended() {
        if scheme != RoutingScheme::UpDown {
            let name = format!("ablation_policy/{}", scheme.label());
            cell(name, scheme, &sim, &db);
        }
    }
    let opts = RunOptions {
        warmup_cycles: 3_000,
        measure_cycles: 12_000,
        seed: 2,
        ..RunOptions::default()
    };
    let topo = gen::torus_2d(4, 4, 4).expect("torus");
    cells
        .into_iter()
        .map(|(name, scheme, sim, db)| {
            let exp = Experiment::new(topo.clone(), scheme, db, PatternSpec::Uniform, sim)
                .expect("experiment");
            (name, exp.run_point(0.012, &opts))
        })
        .collect()
}

fn run_ablation(_: &Request, out: &mut Output) {
    for (name, p) in ablations() {
        out.put(format!(
            "[{name}] accepted {:.4} latency {:.0} ns itbs {:.2}\n",
            p.accepted, p.avg_latency_ns, p.avg_itbs_per_msg
        ));
    }
}

/// The fault sweep on one topology, every scheme of
/// [`RoutingScheme::all`] at offered 0.01 with NIC retransmission and
/// online reconfiguration: accepted traffic against the number of links
/// failed at cycle 0 (so the window sees the reconfigured steady state),
/// and goodput over time through one link's fail/repair cycle.
struct FaultGrid {
    topo: TopoSpec,
    /// Files go to `target/experiments/fault_*_<tag>.*`.
    tag: &'static str,
    /// Numbers of simultaneously failed links.
    ks: Vec<usize>,
    /// Goodput sampling interval, cycles.
    interval: u64,
    /// Windows, seed and reconfiguration latency of every cell.
    defaults: CellDefaults,
}

impl FaultGrid {
    fn new(topo: Topo, mode: Mode) -> FaultGrid {
        let (warmup_cycles, measure_cycles, ks, interval) = match mode {
            Mode::Full => (100_000, 300_000, vec![0, 1, 2, 4, 8, 16], 5_000),
            Mode::Quick => (40_000, 100_000, vec![0, 1, 2, 4, 8], 2_500),
        };
        FaultGrid {
            topo: topo.spec(),
            tag: topo.tag(),
            ks,
            interval,
            defaults: CellDefaults {
                warmup_cycles,
                measure_cycles,
                seed: 1,
                ..CellDefaults::default()
            },
        }
    }

    /// `--smoke`: a 4×4 torus and windows short enough for CI. They are
    /// far shorter than the default 100 µs mapper latency, so that is
    /// scaled down for reconfiguration to complete inside them.
    fn smoke() -> FaultGrid {
        FaultGrid {
            topo: TopoSpec::parse("torus:4x4:2").expect("a topology"),
            tag: "smoke",
            ks: vec![0, 1, 2],
            interval: 1_000,
            defaults: CellDefaults {
                warmup_cycles: 4_000,
                measure_cycles: 12_000,
                seed: 1,
                reconfig_latency_cycles: Some(2_000),
                ..CellDefaults::default()
            },
        }
    }

    /// The cycles the goodput cells' link fails and comes back at.
    fn fail_repair(&self) -> (u64, u64) {
        let (warmup, measure) = (self.defaults.warmup_cycles, self.defaults.measure_cycles);
        (warmup + measure / 4, warmup + 3 * measure / 4)
    }

    /// The throughput cells (scheme × k) and the goodput cells (scheme).
    fn cells(&self) -> [Sweep; 2] {
        let topo = self.topo.build().expect("a fault-sweep topology");
        // k = 0 is the fault-free cell, with no fault plan at all.
        let failed = self.ks.iter().map(|&k| {
            let mut plan = FaultPlan::new();
            for l in spaced_switch_links(&topo, k) {
                plan.fail_link(0, l);
            }
            (k > 0).then(|| FaultSpec::new(format!("{k} failed"), plan))
        });
        let link = spaced_switch_links(&topo, 1)[0];
        let (fail_at, repair_at) = self.fail_repair();
        let mut plan = FaultPlan::new();
        plan.fail_link(fail_at, link).repair_link(repair_at, link);
        let cycle = FaultSpec::new("fail/repair", plan);
        let sweep = |faults: Vec<Option<FaultSpec>>, goodput_interval| Sweep {
            group: format!("faults_{}", self.tag),
            topos: vec![self.topo],
            schemes: RoutingScheme::all().to_vec(),
            patterns: vec![PatternSpec::Uniform],
            loads: vec![0.01],
            seeds: vec![self.defaults.seed],
            faults,
            defaults: CellDefaults {
                goodput_interval,
                ..self.defaults.clone()
            },
        };
        [
            sweep(failed.collect(), None),
            sweep(vec![Some(cycle)], Some(self.interval)),
        ]
    }

    /// Print both figures and save them as
    /// `fault_{throughput_vs_failed_links,goodput_dip}_<tag>`.
    fn emit(&self, throughput: &[CellResult], goodput: &[CellResult], out: &mut Output) {
        let schemes = RoutingScheme::all();
        let mut curves = Vec::new();
        for (scheme, cells) in schemes.iter().zip(throughput.chunks(self.ks.len())) {
            let mut points = Vec::new();
            for (&k, r) in self.ks.iter().zip(cells) {
                let rel = &r.reliability;
                out.put(format!(
                    "{:8} k={:2} accepted {:.4} lat {:8.0} ns delivered {:6} dropped {:4} \
                     reconfigs {} lost-pairs {}\n",
                    scheme.label(),
                    k,
                    r.accepted,
                    r.avg_latency_ns,
                    r.delivered,
                    rel.dropped_packets,
                    rel.reconfigurations,
                    rel.unreachable_pairs,
                ));
                let offered = k as f64; // the x axis of this figure is k
                points.push(CurvePoint {
                    offered,
                    ..r.curve_point()
                });
            }
            let label = format!("{} vs failed links", scheme.label());
            curves.push(Curve::from_points(label, points));
        }
        save_curves(
            &format!("fault_throughput_vs_failed_links_{}", self.tag),
            &curves,
        );

        let (fail_at, repair_at) = self.fail_repair();
        let title = format!("goodput through a link fail/repair ({fail_at}/{repair_at})");
        let mut ts = TimeSeries::new(title, self.interval);
        let total = self.defaults.warmup_cycles + self.defaults.measure_cycles;
        for (scheme, r) in schemes.iter().zip(goodput) {
            let g = r.goodput.as_ref().expect("goodput cells record a series");
            // Payload flits per bucket -> flits/ns, comparable across intervals.
            let per_ns: Vec<f64> = g
                .samples
                .iter()
                .map(|&s| s as f64 / (g.interval as f64 * CYCLE_NS))
                .collect();
            let rel = &r.reliability;
            out.put(format!(
                "{:8} {} samples over {total} cycles; truncated {} retransmitted {} dropped {}\n",
                scheme.label(),
                per_ns.len(),
                rel.worms_truncated,
                rel.retransmissions,
                rel.dropped_packets,
            ));
            ts.push(scheme.label(), per_ns);
        }
        save_time_series(&format!("fault_goodput_dip_{}", self.tag), &ts);
    }
}

/// `k` switch links spread evenly across the topology (deterministic).
fn spaced_switch_links(topo: &Topology, k: usize) -> Vec<LinkId> {
    let links: Vec<LinkId> = topo
        .links()
        .iter()
        .filter(|l| l.is_switch_link())
        .map(|l| l.id)
        .collect();
    assert!(k <= links.len(), "cannot fail {k} of {} links", links.len());
    (0..k).map(|i| links[i * links.len() / k.max(1)]).collect()
}

/// **Fault sweep** (an extension): every requested panel, or the
/// `--smoke` grid, as one plan.
fn run_faults(req: &Request, out: &mut Output) {
    let grids: Vec<FaultGrid> = if req.smoke {
        vec![FaultGrid::smoke()]
    } else {
        req.topos
            .iter()
            .map(|&t| FaultGrid::new(t, req.mode))
            .collect()
    };
    let sweeps: Vec<Sweep> = grids.iter().flat_map(FaultGrid::cells).collect();
    let results = out.run_sweeps("faults", &sweeps);
    for (grid, cells) in grids.iter().zip(results.chunks(2)) {
        grid.emit(&cells[0], &cells[1], out);
    }
}

/// Render an 8×8 per-switch utilization map (average utilization of the
/// switch-link channels leaving each switch) for torus-shaped topologies —
/// the textual analogue of the paper's greyscale link maps.
pub(crate) fn switch_grid_map(snapshot: &UtilSnapshot, cols: usize, n_switches: usize) -> String {
    let mut sum = vec![0.0f64; n_switches];
    let mut cnt = vec![0usize; n_switches];
    for (d, &u) in snapshot.descs.iter().zip(&snapshot.summary.per_channel) {
        if let NodeId::Switch(SwitchId(s)) = d.from {
            sum[s as usize] += u;
            cnt[s as usize] += 1;
        }
    }
    let mut out = format!(
        "{} @ {:.4} (mean outgoing util %)\n",
        snapshot.label, snapshot.offered
    );
    for s in 0..n_switches {
        let u = if cnt[s] > 0 {
            sum[s] / cnt[s] as f64
        } else {
            0.0
        };
        out.push_str(&format!("{:>5.1}", u * 100.0));
        if (s + 1) % cols == 0 {
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use regnet_campaign::fnv1a64;

    #[test]
    fn ladders_bracket_paper_saturation_points() {
        // The ladder must span each scheme's expected knee.
        let l = ladder_for(Topo::Torus, &PatternSpec::Uniform, Mode::Quick);
        assert!(*l.first().unwrap() < 0.01);
        assert!(*l.last().unwrap() > 0.035);
        let l = ladder_for(Topo::Express, &PatternSpec::Uniform, Mode::Quick);
        assert!(*l.last().unwrap() > 0.12);
        let l = ladder_for(
            Topo::Torus,
            &PatternSpec::Local { max_switch_dist: 3 },
            Mode::Quick,
        );
        assert!(*l.last().unwrap() > 0.13);
    }

    #[test]
    fn every_figure_is_one_subcommand() {
        for (i, a) in FIGURES.iter().enumerate() {
            assert_ne!(a.name, "all", "reserved for the whole table");
            for b in &FIGURES[i + 1..] {
                assert_ne!(a.name, b.name);
                assert_ne!(
                    a.run as usize, b.run as usize,
                    "{} and {} run the same body",
                    a.name, b.name
                );
                // Both write `target/experiments/<stem>_*`.
                for stem in a.stems {
                    assert!(
                        !b.stems.contains(stem),
                        "{} and {} both write {stem}_*",
                        a.name,
                        b.name
                    );
                }
            }
        }
    }

    /// `campaigns/paper_figs.json` says its fig07 groups are the quick
    /// fig07 panels cell for cell; hold it to that, hash for hash.
    #[test]
    fn paper_figs_campaign_is_the_quick_figures() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../campaigns/paper_figs.json"
        ))
        .expect("campaigns/paper_figs.json is committed");
        let spec = CampaignSpec::from_json_str(&text).unwrap();
        let plan = spec.expand().unwrap();
        let group = |name: &str| -> Vec<&str> {
            let cells = plan
                .cells
                .iter()
                .filter(|c| c.groups.iter().any(|g| g == name));
            cells.map(|c| c.hash.as_str()).collect()
        };
        for topo in Topo::ALL {
            let paper = CampaignSpec {
                name: "fig07".into(),
                defaults: CellDefaults::default(),
                sweeps: vec![FIG07.cells(topo, Mode::Quick)],
            }
            .expand()
            .unwrap();
            let paper: Vec<&str> = paper.cells.iter().map(|c| c.hash.as_str()).collect();
            assert_eq!(paper.len(), 24);
            assert_eq!(paper, group(&format!("fig07 {} uniform", topo.tag())));
        }
        let hashes = |cells: Vec<CellSpec>| -> Vec<String> {
            let hash = |c: &CellSpec| format!("{:016x}", fnv1a64(c.canonical_key().as_bytes()));
            cells.iter().map(hash).collect()
        };
        let hotspot = fig11_hotspot(&Topo::Torus.build());
        for (name, cells) in [
            ("fig08 torus util", fig08_cells(Mode::Quick)),
            ("fig09 express util", fig09_cells(Mode::Quick)),
            ("fig11 torus hotspot", fig11_cells(hotspot, Mode::Quick)),
        ] {
            assert_eq!(hashes(cells), group(name), "{name}");
        }
        assert_eq!(group("fig08 torus util").len(), 3);
        assert_eq!(group("fig09 express util").len(), 2);
        assert_eq!(group("fig11 torus hotspot").len(), 2);
    }

    #[test]
    fn table_render_has_average_row() {
        let t = TableResult {
            name: "t".into(),
            header: vec!["a".into(), "b".into()],
            rows: vec![("1".into(), vec![1.0, 2.0]), ("2".into(), vec![3.0, 4.0])],
        };
        assert_eq!(t.averages(), vec![2.0, 3.0]);
        let r = t.render();
        assert!(r.contains("Avg"));
        assert!(r.contains("2.0000"));
    }

    #[test]
    fn util_report_and_grid_render() {
        use regnet_metrics::UtilizationSummary;
        use regnet_topology::{HostId, NodeId, SwitchId};
        let snap = UtilSnapshot {
            label: "UP/DOWN uniform".into(),
            offered: 0.015,
            summary: UtilizationSummary::from_busy_cycles(&[50, 10, 0], 100),
            descs: vec![
                ChannelDesc {
                    from: NodeId::Switch(SwitchId(0)),
                    to: NodeId::Switch(SwitchId(1)),
                    switch_link: true,
                },
                ChannelDesc {
                    from: NodeId::Switch(SwitchId(1)),
                    to: NodeId::Switch(SwitchId(0)),
                    switch_link: true,
                },
                ChannelDesc {
                    from: NodeId::Host(HostId(0)),
                    to: NodeId::Switch(SwitchId(0)),
                    switch_link: false,
                },
            ],
            util_series: None,
        };
        let report = UtilReport {
            name: "Figure X".into(),
            snapshots: vec![snap],
        };
        let text = report.render();
        assert!(text.contains("Figure X"));
        assert!(
            text.contains("\nfraction of links under 10%: 33%  under 12%: 67%  under 30%: 67%\n")
        );
        assert!(text.contains("max 50.0%"));
        let grid = switch_grid_map(&report.snapshots[0], 2, 2);
        // Switch 0 has one outgoing switch channel at 50%; switch 1 at 10%.
        assert!(grid.contains("50.0"));
        assert!(grid.contains("10.0"));
    }

    #[test]
    fn route_stats_report_renders() {
        // Only checks the formatting path; the statistics themselves are
        // asserted in regnet-core's tests.
        let report = RouteStatsReport {
            rows: vec![(
                "x".into(),
                regnet_core::analysis::RouteStats {
                    minimal_fraction: 0.8,
                    avg_distance: 4.5,
                    avg_itbs: 0.4,
                    max_itbs: 2,
                    avg_alternatives: 5.0,
                },
            )],
        };
        assert!(report.render().contains("80.0%"));
    }
}
