//! Declarative campaign specifications.
//!
//! A campaign file is a JSON document describing a *grid* of simulation
//! cells — topology × scheme × pattern × load × seed × fault-plan — plus
//! per-campaign defaults. [`CampaignSpec::from_json_str`] parses it with
//! the workspace's own JSON reader ([`regnet_metrics::JsonValue`]), and
//! [`CampaignSpec::expand`] flattens every sweep into deduplicated
//! [`CellSpec`]s keyed by a deterministic config hash (see
//! [`CellSpec::canonical_key`]). The hash is what makes dedup and
//! checkpoint/resume correct: the same cell always hashes the same, no
//! matter how the JSON was ordered or which sweep produced it.

use regnet_core::{Fnv1a, RoutingScheme};
use regnet_metrics::JsonValue;
use regnet_netsim::{
    FaultEvent, FaultPlan, FaultTarget, SimConfig, MAX_PAYLOAD_FLITS, MAX_SWITCH_PORTS,
};
use regnet_topology::{gen, HostId, LinkId, SwitchId, Topology};
use regnet_traffic::PatternSpec;

/// Current campaign-file schema identifier.
pub(crate) const CAMPAIGN_SCHEMA: &str = "regnet-campaign-v1";

/// Topology selector: the paper's three named topologies, a parametric
/// torus / express torus for scaled campaigns, or a seeded random
/// irregular network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoSpec {
    /// 8×8 2-D torus, 8 hosts/switch (the paper's Figure 4).
    Torus,
    /// 8×8 2-D torus with express channels (Figure 5).
    Express,
    /// CPLANT, 50 switches / 400 hosts (Figure 6).
    Cplant,
    /// `torus:<rows>x<cols>:<hosts-per-switch>`.
    TorusCustom { rows: u32, cols: u32, hosts: u32 },
    /// `express:<rows>x<cols>:<hosts-per-switch>`.
    ExpressCustom { rows: u32, cols: u32, hosts: u32 },
    /// `irregular:<switches>:<degree>:<hosts-per-switch>:<seed>`, built by
    /// [`gen::irregular_random`].
    Irregular {
        switches: u32,
        degree: u32,
        hosts: u32,
        seed: u64,
    },
}

impl TopoSpec {
    /// Parse the campaign-file spelling.
    pub fn parse(s: &str) -> Result<TopoSpec, String> {
        let s = s.trim();
        match s {
            "torus" => return Ok(TopoSpec::Torus),
            "express" => return Ok(TopoSpec::Express),
            "cplant" => return Ok(TopoSpec::Cplant),
            _ => {}
        }
        let (kind, rest) = s.split_once(':').ok_or_else(|| {
            format!(
                "unknown topology {s:?} \
                 (torus|express|cplant|torus:RxC:H|express:RxC:H|irregular:N:D:H:SEED)"
            )
        })?;
        let parse_u32 = |v: &str, what: &str| {
            v.trim()
                .parse::<u32>()
                .map_err(|_| format!("bad {what} {v:?} in topology {s:?}"))
        };
        if kind == "irregular" {
            let fields: Vec<&str> = rest.split(':').collect();
            let [switches, degree, hosts, seed] = fields[..] else {
                return Err(format!(
                    "bad topology {s:?}: expected irregular:<switches>:<degree>:<hosts>:<seed>"
                ));
            };
            return Ok(TopoSpec::Irregular {
                switches: parse_u32(switches, "switches")?,
                degree: parse_u32(degree, "degree")?,
                hosts: parse_u32(hosts, "hosts-per-switch")?,
                seed: seed
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| format!("bad seed {seed:?} in topology {s:?}"))?,
            });
        }
        let (grid, hosts) = rest
            .split_once(':')
            .ok_or_else(|| format!("bad topology {s:?}: expected {kind}:<rows>x<cols>:<hosts>"))?;
        let (r, c) = grid
            .split_once('x')
            .ok_or_else(|| format!("bad topology grid {grid:?}: expected <rows>x<cols>"))?;
        let rows = parse_u32(r, "rows")?;
        let cols = parse_u32(c, "cols")?;
        let hosts = parse_u32(hosts, "hosts-per-switch")?;
        match kind {
            "torus" => Ok(TopoSpec::TorusCustom { rows, cols, hosts }),
            "express" => Ok(TopoSpec::ExpressCustom { rows, cols, hosts }),
            other => Err(format!("unknown topology family {other:?} in {s:?}")),
        }
    }

    /// Canonical spelling (stable; feeds the config hash).
    pub fn key(&self) -> String {
        match self {
            TopoSpec::Torus => "torus".into(),
            TopoSpec::Express => "express".into(),
            TopoSpec::Cplant => "cplant".into(),
            TopoSpec::TorusCustom { rows, cols, hosts } => format!("torus:{rows}x{cols}:{hosts}"),
            TopoSpec::ExpressCustom { rows, cols, hosts } => {
                format!("express:{rows}x{cols}:{hosts}")
            }
            TopoSpec::Irregular {
                switches,
                degree,
                hosts,
                seed,
            } => format!("irregular:{switches}:{degree}:{hosts}:{seed}"),
        }
    }

    /// Build the topology.
    pub fn build(&self) -> Result<Topology, String> {
        let built = match *self {
            TopoSpec::Torus => gen::torus_2d(8, 8, 8),
            TopoSpec::Express => gen::torus_2d_express(8, 8, 8),
            TopoSpec::Cplant => gen::cplant(),
            TopoSpec::TorusCustom { rows, cols, hosts } => {
                gen::torus_2d(rows as usize, cols as usize, hosts as usize)
            }
            TopoSpec::ExpressCustom { rows, cols, hosts } => {
                gen::torus_2d_express(rows as usize, cols as usize, hosts as usize)
            }
            TopoSpec::Irregular {
                switches,
                degree,
                hosts,
                seed,
            } => gen::irregular_random(switches as usize, degree as usize, hosts as usize, seed),
        };
        built.map_err(|e| format!("cannot build topology {}: {e}", self.key()))
    }
}

/// Parse a routing scheme from its paper label or a relaxed spelling
/// (`UP/DOWN`, `up-down`, `itb-rr`, `ITB_RR`, …).
pub fn parse_scheme(s: &str) -> Result<RoutingScheme, String> {
    let norm: String = s
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase();
    match norm.as_str() {
        "updown" | "ud" => Ok(RoutingScheme::UpDown),
        "itbsp" => Ok(RoutingScheme::ItbSp),
        "itbrr" => Ok(RoutingScheme::ItbRr),
        "itbrnd" | "itbrandom" => Ok(RoutingScheme::ItbRandom),
        _ => Err(format!(
            "unknown routing scheme {s:?} (UP/DOWN|ITB-SP|ITB-RR|ITB-RND)"
        )),
    }
}

/// Parse a traffic pattern: `uniform`, `bit-reversal`,
/// `local:<max-switch-dist>`, `hotspot:<fraction>@<host>`.
pub fn parse_pattern(s: &str) -> Result<PatternSpec, String> {
    let s = s.trim();
    match s {
        "uniform" => return Ok(PatternSpec::Uniform),
        "bit-reversal" | "bitreversal" | "bitrev" => return Ok(PatternSpec::BitReversal),
        _ => {}
    }
    if let Some(d) = s.strip_prefix("local:") {
        let max_switch_dist = d
            .trim()
            .parse::<u16>()
            .map_err(|_| format!("bad local radius in pattern {s:?}"))?;
        return Ok(PatternSpec::Local { max_switch_dist });
    }
    if let Some(rest) = s.strip_prefix("hotspot:") {
        let (frac, host) = rest
            .split_once('@')
            .ok_or_else(|| format!("bad pattern {s:?}: expected hotspot:<fraction>@<host>"))?;
        let fraction = frac
            .trim()
            .parse::<f64>()
            .map_err(|_| format!("bad hotspot fraction in pattern {s:?}"))?;
        if !(0.0..=1.0).contains(&fraction) {
            return Err(format!("hotspot fraction {fraction} out of [0,1] in {s:?}"));
        }
        let host = host
            .trim()
            .trim_start_matches(['H', 'h'])
            .parse::<u32>()
            .map_err(|_| format!("bad hotspot host in pattern {s:?}"))?;
        return Ok(PatternSpec::Hotspot {
            fraction,
            host: HostId(host),
        });
    }
    Err(format!(
        "unknown pattern {s:?} (uniform|bit-reversal|local:<d>|hotspot:<f>@<host>)"
    ))
}

/// Canonical spelling of a pattern (stable; feeds the config hash).
pub(crate) fn pattern_key(p: &PatternSpec) -> String {
    match p {
        PatternSpec::Uniform => "uniform".into(),
        PatternSpec::BitReversal => "bit-reversal".into(),
        PatternSpec::Local { max_switch_dist } => format!("local:{max_switch_dist}"),
        PatternSpec::Hotspot { fraction, host } => format!("hotspot:{fraction}@{}", host.0),
    }
}

/// The six fault actions, in canonical order: a plan's events on one
/// cycle sort by their row here, and each is spelt `<name>:<id>@<cycle>`
/// in a key and `{"cycle": <cycle>, "<name>": <id>}` in a campaign file.
const FAULT_ACTIONS: [&str; 6] = [
    "fail_link",
    "repair_link",
    "fail_switch",
    "repair_switch",
    "fail_host",
    "repair_host",
];

/// An event's row in [`FAULT_ACTIONS`] and the id it acts on.
fn fault_action(e: &FaultEvent) -> (usize, u32) {
    let (row, id) = match e.target {
        FaultTarget::Link(l) => (0, l.0),
        FaultTarget::Switch(s) => (2, s.0),
        FaultTarget::Host(h) => (4, h.0),
    };
    (row + usize::from(!e.fail), id)
}

/// The event of [`FAULT_ACTIONS`] row `row` on element `id` at `cycle`.
fn fault_event(row: usize, id: u32, cycle: u64) -> FaultEvent {
    let target = match row / 2 {
        0 => FaultTarget::Link(LinkId(id)),
        1 => FaultTarget::Switch(SwitchId(id)),
        _ => FaultTarget::Host(HostId(id)),
    };
    FaultEvent {
        cycle,
        target,
        fail: row.is_multiple_of(2),
    }
}

/// A named, scripted fault plan for a cell. The label is presentation
/// only; the config hash covers the (canonically ordered) events, so two
/// labels over the same events are the same cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    pub label: String,
    /// The plan, its events in canonical order: by cycle, then fail_link
    /// < repair_link < fail_switch < repair_switch < fail_host <
    /// repair_host, then id.
    pub plan: FaultPlan,
}

impl FaultSpec {
    pub fn new(label: impl Into<String>, mut plan: FaultPlan) -> FaultSpec {
        plan.events.sort_by_key(|e| {
            let (row, id) = fault_action(e);
            (e.cycle, row, id)
        });
        FaultSpec {
            label: label.into(),
            plan,
        }
    }

    /// Canonical spelling: `fail_link:3@0+repair_link:3@4000`.
    pub fn key(&self) -> String {
        self.plan
            .events
            .iter()
            .map(|e| {
                let (row, id) = fault_action(e);
                format!("{}:{id}@{}", FAULT_ACTIONS[row], e.cycle)
            })
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Parse the canonical spelling (used by `--what-if fault=` queries).
    pub fn parse(label: &str, s: &str) -> Result<FaultSpec, String> {
        let mut plan = FaultPlan::new();
        for part in s.split('+').filter(|p| !p.trim().is_empty()) {
            let bad = || format!("bad fault event {part:?}: expected <kind>:<id>@<cycle>");
            let (kind, rest) = part.trim().split_once(':').ok_or_else(bad)?;
            let row = FAULT_ACTIONS
                .iter()
                .position(|&name| name == kind)
                .ok_or_else(|| format!("unknown fault kind {kind:?} in {part:?}"))?;
            let (id, cycle) = rest.split_once('@').ok_or_else(bad)?;
            let id = id
                .trim()
                .parse::<u32>()
                .map_err(|_| format!("bad id in fault event {part:?}"))?;
            let cycle = cycle
                .trim()
                .parse::<u64>()
                .map_err(|_| format!("bad cycle in fault event {part:?}"))?;
            plan.push(fault_event(row, id, cycle));
        }
        if plan.is_empty() {
            return Err(format!("fault spec {s:?} has no events"));
        }
        Ok(FaultSpec::new(label, plan))
    }
}

/// One fully specified simulation cell: everything that determines the
/// run's results, and nothing that doesn't.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    pub topo: TopoSpec,
    pub scheme: RoutingScheme,
    pub pattern: PatternSpec,
    /// Offered load, flits/ns/switch.
    pub load: f64,
    pub seed: u64,
    pub warmup_cycles: u64,
    pub measure_cycles: u64,
    pub payload_flits: usize,
    /// Goodput time-series sampling interval; observers do not perturb
    /// results, but a cached cell without the series cannot serve a
    /// campaign that wants it, so it is part of the key.
    pub goodput_interval: Option<u64>,
    /// Override of [`SimConfig::reconfig_latency_cycles`] (smoke campaigns
    /// shrink it so reconfiguration completes inside tiny windows).
    pub reconfig_latency_cycles: Option<u64>,
    pub faults: Option<FaultSpec>,
}

impl CellSpec {
    /// Canonical key: a fixed-order rendering of every result-relevant
    /// field. Floats use Rust's shortest-roundtrip formatting, which is
    /// injective over distinct values, so distinct loads always produce
    /// distinct keys. Field order in the *JSON file* is irrelevant by
    /// construction — parsing goes through the struct.
    ///
    /// The `sched=active-set` segment is a constant: the engine stopped
    /// being selectable, but the key format is pinned by the committed
    /// goldens and by every existing result store, whose cell hashes are
    /// taken over this exact text.
    pub fn canonical_key(&self) -> String {
        format!(
            "topo={};scheme={};pattern={};load={};seed={};warmup={};measure={};payload={};sched=active-set;goodput={};reconfig={};faults={}",
            self.topo.key(),
            self.scheme.label(),
            pattern_key(&self.pattern),
            self.load,
            self.seed,
            self.warmup_cycles,
            self.measure_cycles,
            self.payload_flits,
            self.goodput_interval.map_or("off".into(), |i| i.to_string()),
            self.reconfig_latency_cycles
                .map_or("default".into(), |i| i.to_string()),
            self.faults.as_ref().map_or("none".into(), |f| f.key()),
        )
    }

    /// FNV-1a 64 over the canonical key — the cell's identity for dedup,
    /// checkpoint file names and resume.
    pub(crate) fn config_hash(&self) -> u64 {
        fnv1a64(self.canonical_key().as_bytes())
    }

    /// The config hash as the 16-hex-digit spelling used for file names.
    pub(crate) fn hash_hex(&self) -> String {
        format!("{:016x}", self.config_hash())
    }
}

/// Refuse a cell the simulator cannot run, naming the key, before any
/// cell runs. A zero window makes a cell's `accepted` 0/0, a NaN its
/// checkpoint cannot be read back from; a zero interval samples every
/// cycle and divides by zero on export; a payload past
/// [`MAX_PAYLOAD_FLITS`] would not fit the simulator's 32-bit flit counts.
/// A topology that does not build or has switches of more than
/// [`MAX_SWITCH_PORTS`] ports, and a fault event naming an element the
/// topology lacks, would fail the cell mid-plan. `built` holds the
/// topologies checked so far, so each distinct one is built once.
pub(crate) fn check_cell_values(
    cell: &CellSpec,
    built: &mut Vec<(TopoSpec, Topology)>,
) -> Result<(), String> {
    if cell.measure_cycles == 0 {
        return Err("\"measure_cycles\" must be positive".into());
    }
    if cell.goodput_interval == Some(0) {
        return Err("\"goodput_interval\" must be positive".into());
    }
    if !(1..=MAX_PAYLOAD_FLITS).contains(&cell.payload_flits) {
        return Err(format!(
            "\"payload_flits\" {} must be in 1..={MAX_PAYLOAD_FLITS}",
            cell.payload_flits
        ));
    }
    let i = match built.iter().position(|(t, _)| *t == cell.topo) {
        Some(i) => i,
        None => {
            let topo = cell.topo.build().map_err(|e| format!("\"topos\": {e}"))?;
            built.push((cell.topo, topo));
            built.len() - 1
        }
    };
    let topo = &built[i].1;
    if topo.max_ports() as usize > MAX_SWITCH_PORTS {
        return Err(format!(
            "\"topos\" entry {:?} has {} ports per switch: the simulator takes at most \
             {MAX_SWITCH_PORTS}",
            cell.topo.key(),
            topo.max_ports()
        ));
    }
    if let Some(f) = &cell.faults {
        f.plan
            .check(topo)
            .map_err(|e| format!("\"faults\" entry {:?}: {e}", f.key()))?;
    }
    Ok(())
}

/// FNV-1a 64 of `bytes` ([`Fnv1a`], the hash the trace digest folds).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Campaign-wide cell defaults; every sweep may override any of them.
#[derive(Debug, Clone)]
pub struct CellDefaults {
    pub warmup_cycles: u64,
    pub measure_cycles: u64,
    pub seed: u64,
    pub payload_flits: usize,
    pub goodput_interval: Option<u64>,
    pub reconfig_latency_cycles: Option<u64>,
}

impl Default for CellDefaults {
    fn default() -> Self {
        CellDefaults {
            warmup_cycles: 60_000,
            measure_cycles: 150_000,
            seed: 1,
            payload_flits: SimConfig::default().payload_flits,
            goodput_interval: None,
            reconfig_latency_cycles: None,
        }
    }
}

impl CellDefaults {
    /// The fault-free cell of `topo` × `scheme` × `pattern` at `load`
    /// under these defaults: the one place a [`CellSpec`] is built.
    pub fn cell(
        &self,
        topo: TopoSpec,
        scheme: RoutingScheme,
        pattern: PatternSpec,
        load: f64,
    ) -> CellSpec {
        CellSpec {
            topo,
            scheme,
            pattern,
            load,
            seed: self.seed,
            warmup_cycles: self.warmup_cycles,
            measure_cycles: self.measure_cycles,
            payload_flits: self.payload_flits,
            goodput_interval: self.goodput_interval,
            reconfig_latency_cycles: self.reconfig_latency_cycles,
            faults: None,
        }
    }
}

/// One sweep: the cross product of its axes, with optional overrides of
/// the campaign defaults.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Aggregation group: cells of one group land in one curve family.
    pub group: String,
    pub topos: Vec<TopoSpec>,
    pub schemes: Vec<RoutingScheme>,
    pub patterns: Vec<PatternSpec>,
    pub loads: Vec<f64>,
    pub seeds: Vec<u64>,
    /// Fault plans; `None` entries are fault-free cells. Defaults to one
    /// fault-free entry.
    pub faults: Vec<Option<FaultSpec>>,
    pub defaults: CellDefaults,
}

/// A parsed campaign file.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    pub name: String,
    pub defaults: CellDefaults,
    pub sweeps: Vec<Sweep>,
}

/// One deduplicated cell of the expanded plan, with every group that
/// produced it (overlapping sweeps merge here).
#[derive(Debug, Clone)]
pub struct PlannedCell {
    pub spec: CellSpec,
    pub hash: String,
    pub key: String,
    pub groups: Vec<String>,
}

/// The expanded, deduplicated campaign: the work-queue's input.
#[derive(Debug, Clone)]
pub struct RunPlan {
    pub name: String,
    /// Cells in first-occurrence order of the campaign file.
    pub cells: Vec<PlannedCell>,
}

impl RunPlan {
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

impl CampaignSpec {
    /// Parse a campaign file.
    pub fn from_json_str(text: &str) -> Result<CampaignSpec, String> {
        let doc = JsonValue::parse(text).map_err(|e| format!("campaign file is not JSON: {e}"))?;
        check_keys(
            &doc,
            &["schema", "name", "defaults", "sweeps"],
            "campaign file",
        )?;
        if let Some(schema) = doc.get("schema").and_then(|v| v.as_str()) {
            if schema != CAMPAIGN_SCHEMA {
                return Err(format!(
                    "unsupported campaign schema {schema:?} (this build reads {CAMPAIGN_SCHEMA:?})"
                ));
            }
        }
        let name = doc
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or("campaign file needs a string \"name\"")?
            .to_string();
        let defaults_json = doc.get("defaults");
        if let Some(d) = defaults_json {
            check_keys(d, &DEFAULTS_KEYS, "defaults")?;
        }
        let defaults = parse_defaults(defaults_json, &CellDefaults::default())?;
        let sweeps_json = doc
            .get("sweeps")
            .and_then(|v| v.as_array())
            .ok_or("campaign file needs a \"sweeps\" array")?;
        if sweeps_json.is_empty() {
            return Err("campaign file has no sweeps".into());
        }
        let mut sweeps = Vec::new();
        for (i, s) in sweeps_json.iter().enumerate() {
            sweeps.push(parse_sweep(s, &defaults, i)?);
        }
        Ok(CampaignSpec {
            name,
            defaults,
            sweeps,
        })
    }

    /// Expand every sweep into its cell grid and deduplicate by config
    /// hash (first occurrence wins the position; group memberships merge).
    pub fn expand(&self) -> Result<RunPlan, String> {
        let mut order: Vec<String> = Vec::new();
        let mut by_hash: std::collections::HashMap<String, PlannedCell> =
            std::collections::HashMap::new();
        let mut built = Vec::new();
        for sweep in &self.sweeps {
            for topo in &sweep.topos {
                for scheme in &sweep.schemes {
                    for pattern in &sweep.patterns {
                        for &load in &sweep.loads {
                            // An infinite load checkpoints `"offered": null`,
                            // which no later run of the store can read back.
                            if !(load.is_finite() && load > 0.0) {
                                return Err(format!(
                                    "sweep {:?}: \"loads\" entry {load} must be positive and finite",
                                    sweep.group
                                ));
                            }
                            for &seed in &sweep.seeds {
                                for fault in &sweep.faults {
                                    let mut spec =
                                        sweep.defaults.cell(*topo, *scheme, *pattern, load);
                                    spec.seed = seed;
                                    spec.faults = fault.clone();
                                    let hash = spec.hash_hex();
                                    match by_hash.entry(hash.clone()) {
                                        std::collections::hash_map::Entry::Occupied(mut e) => {
                                            let cell = e.get_mut();
                                            if !cell.groups.contains(&sweep.group) {
                                                cell.groups.push(sweep.group.clone());
                                            }
                                        }
                                        std::collections::hash_map::Entry::Vacant(e) => {
                                            check_cell_values(&spec, &mut built).map_err(
                                                |err| format!("sweep {:?}: {err}", sweep.group),
                                            )?;
                                            let key = spec.canonical_key();
                                            e.insert(PlannedCell {
                                                spec,
                                                hash: hash.clone(),
                                                key,
                                                groups: vec![sweep.group.clone()],
                                            });
                                            order.push(hash);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        let cells = order
            .into_iter()
            .map(|h| by_hash.remove(&h).expect("ordered hash is in the map"))
            .collect();
        Ok(RunPlan {
            name: self.name.clone(),
            cells,
        })
    }
}

fn get_u64(obj: &JsonValue, key: &str, what: &str) -> Result<Option<u64>, String> {
    obj.get(key)
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| format!("{what}: {key:?} must be an integer in 0..2^53"))
        })
        .transpose()
}

/// The keys a `"defaults"` object may hold; a sweep may hold them too.
const DEFAULTS_KEYS: [&str; 6] = [
    "warmup_cycles",
    "measure_cycles",
    "seed",
    "payload_flits",
    "goodput_interval",
    "reconfig_latency_cycles",
];

/// The keys of a sweep besides [`DEFAULTS_KEYS`].
const SWEEP_KEYS: [&str; 7] = [
    "group", "topos", "schemes", "patterns", "loads", "seeds", "faults",
];

/// Refuse every member of `obj` that is neither in `known` nor a
/// `"_comment"`, and every member that appears twice: the parsers below
/// only look up the keys they know, and only their first spelling, so a
/// misspelt, retired or repeated key would otherwise run something other
/// than what the file says.
fn check_keys(obj: &JsonValue, known: &[&str], what: &str) -> Result<(), String> {
    let members = obj
        .as_object()
        .ok_or_else(|| format!("{what}: must be a JSON object"))?;
    for (i, (key, _)) in members.iter().enumerate() {
        if members[..i].iter().any(|(k, _)| k == key) {
            return Err(format!("{what}: key {key:?} appears twice"));
        }
        if key == "scheduler" || key == "schedulers" {
            return Err(format!(
                "{what}: {key:?}: the engine is no longer selectable; delete the key"
            ));
        }
        if key != "_comment" && !known.contains(&key.as_str()) {
            return Err(format!(
                "{what}: unknown key {key:?} (known: {})",
                known.join(", ")
            ));
        }
    }
    Ok(())
}

fn parse_defaults(v: Option<&JsonValue>, base: &CellDefaults) -> Result<CellDefaults, String> {
    let mut d = base.clone();
    let Some(v) = v else { return Ok(d) };
    let what = "defaults";
    if let Some(w) = get_u64(v, "warmup_cycles", what)? {
        d.warmup_cycles = w;
    }
    if let Some(m) = get_u64(v, "measure_cycles", what)? {
        d.measure_cycles = m;
    }
    if let Some(s) = get_u64(v, "seed", what)? {
        d.seed = s;
    }
    if let Some(p) = get_u64(v, "payload_flits", what)? {
        d.payload_flits = p as usize;
    }
    if let Some(g) = get_u64(v, "goodput_interval", what)? {
        d.goodput_interval = Some(g);
    }
    if let Some(r) = get_u64(v, "reconfig_latency_cycles", what)? {
        d.reconfig_latency_cycles = Some(r);
    }
    Ok(d)
}

fn string_list<'a>(v: &'a JsonValue, key: &str, what: &str) -> Result<Vec<&'a str>, String> {
    let arr = v
        .get(key)
        .and_then(|a| a.as_array())
        .ok_or_else(|| format!("{what}: needs a {key:?} array"))?;
    arr.iter()
        .map(|s| {
            s.as_str()
                .ok_or_else(|| format!("{what}: {key:?} entries must be strings"))
        })
        .collect()
}

fn parse_sweep(v: &JsonValue, campaign: &CellDefaults, index: usize) -> Result<Sweep, String> {
    let group = v
        .get("group")
        .and_then(|g| g.as_str())
        .map(String::from)
        .unwrap_or_else(|| format!("sweep{index}"));
    let what = format!("sweep {group:?}");
    check_keys(v, &[&DEFAULTS_KEYS[..], &SWEEP_KEYS[..]].concat(), &what)?;
    let defaults = parse_defaults(Some(v), campaign).map_err(|e| format!("{what}: {e}"))?;

    let topos = string_list(v, "topos", &what)?
        .into_iter()
        .map(TopoSpec::parse)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("{what}: {e}"))?;
    let schemes = string_list(v, "schemes", &what)?
        .into_iter()
        .map(parse_scheme)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("{what}: {e}"))?;
    let patterns = string_list(v, "patterns", &what)?
        .into_iter()
        .map(parse_pattern)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("{what}: {e}"))?;
    let loads = v
        .get("loads")
        .and_then(|a| a.as_array())
        .ok_or_else(|| format!("{what}: needs a \"loads\" array"))?
        .iter()
        .map(|l| {
            l.as_f64()
                .ok_or_else(|| format!("{what}: loads must be numbers"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let seeds = match v.get("seeds") {
        None => vec![defaults.seed],
        Some(arr) => arr
            .as_array()
            .ok_or_else(|| format!("{what}: \"seeds\" must be an array"))?
            .iter()
            .map(|s| {
                s.as_u64()
                    .ok_or_else(|| format!("{what}: seeds must be integers in 0..2^53"))
            })
            .collect::<Result<Vec<_>, _>>()?,
    };
    let faults = match v.get("faults") {
        None => vec![None],
        Some(arr) => {
            let arr = arr
                .as_array()
                .ok_or_else(|| format!("{what}: \"faults\" must be an array"))?;
            let mut out = Vec::new();
            for f in arr {
                out.push(parse_fault(f, &what)?);
            }
            if out.is_empty() {
                vec![None]
            } else {
                out
            }
        }
    };
    for axis in [
        ("topos", topos.is_empty()),
        ("schemes", schemes.is_empty()),
        ("patterns", patterns.is_empty()),
        ("loads", loads.is_empty()),
        ("seeds", seeds.is_empty()),
    ] {
        if axis.1 {
            return Err(format!("{what}: axis {:?} is empty", axis.0));
        }
    }
    Ok(Sweep {
        group,
        topos,
        schemes,
        patterns,
        loads,
        seeds,
        faults,
        defaults,
    })
}

fn parse_fault(v: &JsonValue, what: &str) -> Result<Option<FaultSpec>, String> {
    if let Some(s) = v.as_str() {
        // String form: "none" or the canonical "+"-joined event list.
        if s == "none" {
            return Ok(None);
        }
        return FaultSpec::parse(s, s).map(Some);
    }
    check_keys(v, &["label", "events"], &format!("{what}: fault object"))?;
    let label = v
        .get("label")
        .and_then(|l| l.as_str())
        .unwrap_or("fault")
        .to_string();
    let events_json = v
        .get("events")
        .and_then(|e| e.as_array())
        .ok_or_else(|| format!("{what}: fault objects need an \"events\" array"))?;
    let keys = [&["cycle"][..], &FAULT_ACTIONS[..]].concat();
    let event_what = format!("{what}: fault event");
    let mut plan = FaultPlan::new();
    for e in events_json {
        check_keys(e, &keys, &event_what)?;
        let cycle = get_u64(e, "cycle", what)?
            .ok_or_else(|| format!("{what}: fault events need a \"cycle\""))?;
        let mut found = Vec::new();
        for (row, name) in FAULT_ACTIONS.iter().enumerate() {
            if let Some(id) = get_u64(e, name, what)? {
                let id = u32::try_from(id)
                    .map_err(|_| format!("{event_what}: {name:?} id {id} is past 2^32 - 1"))?;
                found.push(fault_event(row, id, cycle));
            }
        }
        match found[..] {
            [event] => plan.push(event),
            _ => {
                return Err(format!(
                    "{event_what}: needs exactly one of {}, has {}",
                    FAULT_ACTIONS.join("/"),
                    found.len()
                ))
            }
        };
    }
    if plan.is_empty() {
        return Err(format!("{what}: fault {label:?} has no events"));
    }
    Ok(Some(FaultSpec::new(label, plan)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> CellSpec {
        CellSpec {
            topo: TopoSpec::Torus,
            scheme: RoutingScheme::ItbRr,
            pattern: PatternSpec::Uniform,
            load: 0.015,
            seed: 8,
            warmup_cycles: 60_000,
            measure_cycles: 150_000,
            payload_flits: 512,
            goodput_interval: None,
            reconfig_latency_cycles: None,
            faults: None,
        }
    }

    #[test]
    fn topo_parse_roundtrip() {
        for s in [
            "torus",
            "express",
            "cplant",
            "torus:4x4:2",
            "express:6x6:3",
            "irregular:8:4:4:2026",
        ] {
            let t = TopoSpec::parse(s).unwrap();
            assert_eq!(t.key(), s);
        }
        assert!(TopoSpec::parse("mesh").is_err());
        assert!(TopoSpec::parse("torus:4y4:2").is_err());
        assert!(TopoSpec::parse("torus:4x4").is_err());
        assert!(TopoSpec::parse("irregular:8:4:4").is_err());
        assert!(TopoSpec::parse("irregular:8:4:4:-1").is_err());
        // The spelling builds exactly what the generator builds.
        let built = TopoSpec::parse("irregular:16:4:4:2026").unwrap().build();
        let direct = gen::irregular_random(16, 4, 4, 2026).unwrap();
        assert_eq!(built.unwrap().links(), direct.links());
    }

    #[test]
    fn scheme_and_pattern_parse() {
        assert_eq!(parse_scheme("UP/DOWN").unwrap(), RoutingScheme::UpDown);
        assert_eq!(parse_scheme("itb-rr").unwrap(), RoutingScheme::ItbRr);
        assert_eq!(parse_scheme("ITB_SP").unwrap(), RoutingScheme::ItbSp);
        assert!(parse_scheme("dimension-order").is_err());
        assert_eq!(parse_pattern("uniform").unwrap(), PatternSpec::Uniform);
        assert_eq!(
            parse_pattern("local:3").unwrap(),
            PatternSpec::Local { max_switch_dist: 3 }
        );
        let h = parse_pattern("hotspot:0.1@37").unwrap();
        assert_eq!(
            h,
            PatternSpec::Hotspot {
                fraction: 0.1,
                host: HostId(37)
            }
        );
        assert_eq!(pattern_key(&h), "hotspot:0.1@37");
        assert!(parse_pattern("hotspot:2.0@1").is_err());
        for unknown in ["nearest", "transpose", "complement"] {
            let err = parse_pattern(unknown).unwrap_err();
            assert!(
                err.contains(&format!("unknown pattern {unknown:?}")),
                "{err}"
            );
        }
    }

    #[test]
    fn fault_spec_canonical_order_and_roundtrip() {
        let mut plan = FaultPlan::new();
        plan.repair_link(100, LinkId(3)).fail_link(0, LinkId(3));
        let a = FaultSpec::new("x", plan);
        assert_eq!(a.key(), "fail_link:3@0+repair_link:3@100");
        let b = FaultSpec::parse("y", &a.key()).unwrap();
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.key(), b.key());
        assert_eq!(b.plan.len(), 2);
        assert!(FaultSpec::parse("z", "melt_link:3@0").is_err());
    }

    #[test]
    fn hash_ignores_fault_label_but_not_events() {
        let mut a = cell();
        let mut b = cell();
        a.faults = Some(FaultSpec::parse("first", "fail_link:3@0").unwrap());
        b.faults = Some(FaultSpec::parse("second", "fail_link:3@0").unwrap());
        assert_eq!(a.config_hash(), b.config_hash());
        b.faults = Some(FaultSpec::parse("second", "fail_link:4@0").unwrap());
        assert_ne!(a.config_hash(), b.config_hash());
    }

    #[test]
    fn hash_distinguishes_every_field() {
        let base = cell();
        let mut seen = std::collections::HashSet::new();
        seen.insert(base.config_hash());
        let variants = [
            CellSpec {
                topo: TopoSpec::Express,
                ..base.clone()
            },
            CellSpec {
                scheme: RoutingScheme::UpDown,
                ..base.clone()
            },
            CellSpec {
                pattern: PatternSpec::BitReversal,
                ..base.clone()
            },
            CellSpec {
                load: 0.0151,
                ..base.clone()
            },
            CellSpec {
                seed: 9,
                ..base.clone()
            },
            CellSpec {
                warmup_cycles: 60_001,
                ..base.clone()
            },
            CellSpec {
                measure_cycles: 150_001,
                ..base.clone()
            },
            CellSpec {
                payload_flits: 32,
                ..base.clone()
            },
            CellSpec {
                goodput_interval: Some(1000),
                ..base.clone()
            },
            CellSpec {
                reconfig_latency_cycles: Some(2000),
                ..base.clone()
            },
        ];
        for v in variants {
            assert!(
                seen.insert(v.config_hash()),
                "hash collision for {}",
                v.canonical_key()
            );
        }
    }

    /// The key text and its hash are the identity of every checkpoint in
    /// every existing result store and of the benchmark's campaign golden:
    /// neither may move, engine field or no engine field.
    #[test]
    fn canonical_key_and_hash_are_pinned() {
        let c = cell();
        assert_eq!(
            c.canonical_key(),
            "topo=torus;scheme=ITB-RR;pattern=uniform;load=0.015;seed=8;warmup=60000;\
             measure=150000;payload=512;sched=active-set;goodput=off;reconfig=default;\
             faults=none"
        );
        assert_eq!(c.hash_hex(), "0ac12bd81c1036cf");
    }

    /// A faulted cell's identity: kinds mixed on one cycle and given out
    /// of order sort by cycle, then action, then id.
    #[test]
    fn faulted_key_and_hash_are_pinned() {
        let mut plan = FaultPlan::new();
        plan.repair_link(0, LinkId(3))
            .fail_host(0, HostId(2))
            .fail_link(0, LinkId(5))
            .fail_switch(0, SwitchId(1))
            .fail_link(100, LinkId(3));
        let parsed = FaultSpec::parse(
            "parsed",
            "repair_link:3@0+fail_host:2@0+fail_link:5@0+fail_switch:1@0+fail_link:3@100",
        )
        .unwrap();
        let built = FaultSpec::new("built", plan);
        assert_eq!(parsed.plan, built.plan);
        let mut c = cell();
        c.faults = Some(built);
        assert_eq!(
            c.canonical_key(),
            "topo=torus;scheme=ITB-RR;pattern=uniform;load=0.015;seed=8;warmup=60000;\
             measure=150000;payload=512;sched=active-set;goodput=off;reconfig=default;\
             faults=fail_link:5@0+repair_link:3@0+fail_switch:1@0+fail_host:2@0+fail_link:3@100"
        );
        assert_eq!(c.hash_hex(), "dfcf9922ddb8c56c");
    }

    /// A campaign file may spell one plan as a string or as an object
    /// (both as EXPERIMENTS.md writes them); they are one cell.
    #[test]
    fn fault_string_and_object_forms_are_one_cell() {
        let spec = CampaignSpec::from_json_str(
            r#"{"name": "x", "sweeps": [
                {"topos": ["torus"], "schemes": ["ITB-RR"], "patterns": ["uniform"],
                 "loads": [0.01],
                 "faults": ["fail_link:3@0+repair_link:3@100",
                            {"label": "one-link",
                             "events": [{"cycle": 0, "fail_link": 3},
                                        {"cycle": 100, "repair_link": 3}]}]}
            ]}"#,
        )
        .unwrap();
        let faults = &spec.sweeps[0].faults;
        let (string, object) = (faults[0].as_ref().unwrap(), faults[1].as_ref().unwrap());
        assert_eq!(string.plan, object.plan);
        assert_eq!(object.label, "one-link");
        let plan = spec.expand().unwrap();
        assert_eq!(plan.len(), 1);
        assert!(plan.cells[0]
            .key
            .ends_with(";faults=fail_link:3@0+repair_link:3@100"));
    }

    #[test]
    fn fnv_reference_vector() {
        // FNV-1a 64 of the empty string and of "a" (published constants).
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn expand_dedups_across_sweeps() {
        let spec = CampaignSpec::from_json_str(
            r#"{
                "schema": "regnet-campaign-v1",
                "name": "t",
                "defaults": {"warmup_cycles": 100, "measure_cycles": 200, "seed": 3},
                "sweeps": [
                    {"group": "a", "topos": ["torus:4x4:2"], "schemes": ["ITB-RR", "UP/DOWN"],
                     "patterns": ["uniform"], "loads": [0.01, 0.02]},
                    {"group": "b", "topos": ["torus:4x4:2"], "schemes": ["ITB-RR"],
                     "patterns": ["uniform"], "loads": [0.02, 0.03]}
                ]
            }"#,
        )
        .unwrap();
        let plan = spec.expand().unwrap();
        // a: 2 schemes × 2 loads = 4; b adds ITB-RR@0.03 only (0.02 dedups).
        assert_eq!(plan.len(), 5);
        let shared = plan
            .cells
            .iter()
            .find(|c| c.spec.load == 0.02 && c.spec.scheme == RoutingScheme::ItbRr)
            .unwrap();
        assert_eq!(shared.groups, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn parse_rejects_bad_files() {
        assert!(CampaignSpec::from_json_str("{").is_err());
        assert!(CampaignSpec::from_json_str(r#"{"name": "x"}"#).is_err());
        assert!(CampaignSpec::from_json_str(r#"{"name": "x", "sweeps": []}"#).is_err());
        let bad_scheme = r#"{"name": "x", "sweeps": [
            {"topos": ["torus"], "schemes": ["XY"], "patterns": ["uniform"], "loads": [0.01]}
        ]}"#;
        assert!(CampaignSpec::from_json_str(bad_scheme).is_err());
        // A file written against the old grammar fails here, naming the string.
        let old_pattern = bad_scheme
            .replace("XY", "ITB-RR")
            .replace("uniform", "transpose");
        let err = CampaignSpec::from_json_str(&old_pattern).unwrap_err();
        assert!(err.contains(r#"unknown pattern "transpose""#), "{err}");
        let bad_schema = r#"{"schema": "regnet-campaign-v9", "name": "x", "sweeps": [
            {"topos": ["torus"], "schemes": ["ITB-RR"], "patterns": ["uniform"], "loads": [0.01]}
        ]}"#;
        assert!(CampaignSpec::from_json_str(bad_schema).is_err());
        let zero_load = r#"{"name": "x", "sweeps": [
            {"topos": ["torus"], "schemes": ["ITB-RR"], "patterns": ["uniform"], "loads": [0.0]}
        ]}"#;
        assert!(CampaignSpec::from_json_str(zero_load)
            .unwrap()
            .expand()
            .is_err());
        // An infinite load would checkpoint `"offered": null` and poison
        // every later run of the store.
        let err = CampaignSpec::from_json_str(&zero_load.replace("[0.0]", "[0.01, 1e999]"))
            .unwrap()
            .expand()
            .unwrap_err();
        assert!(err.contains("\"loads\" entry inf"), "{err}");
        // A fault object is held to its keys like the rest of the file, an
        // event names exactly one action, and an id must fit the u32 the
        // string form parses.
        for (faults, expect) in [
            (
                r#"{"label": "x", "event": [{"cycle": 0, "fail_link": 3}]}"#,
                r#"fault object: unknown key "event""#,
            ),
            (
                r#"{"events": [{"cycle": 0, "fail_lnk": 3}]}"#,
                r#"fault event: unknown key "fail_lnk""#,
            ),
            (
                r#"{"label": "a", "label": "b", "events": [{"cycle": 0, "fail_link": 3}]}"#,
                r#"fault object: key "label" appears twice"#,
            ),
            (
                r#"{"events": [{"cycle": 0, "fail_link": 3, "cycle": 9}]}"#,
                r#"fault event: key "cycle" appears twice"#,
            ),
            (
                r#"{"events": [{"cycle": 0, "fail_link": 3, "repair_link": 3}]}"#,
                "needs exactly one of fail_link/",
            ),
            (
                r#"{"events": [{"cycle": 0}]}"#,
                "needs exactly one of fail_link/",
            ),
            (
                r#"{"events": [{"cycle": 0, "fail_link": 4294967299}]}"#,
                r#""fail_link" id 4294967299 is past 2^32 - 1"#,
            ),
        ] {
            let text = zero_load.replace("[0.0]", &format!("[0.01], \"faults\": [{faults}]"));
            let err = CampaignSpec::from_json_str(&text).unwrap_err();
            assert!(err.contains(expect), "{expect:?} not in {err:?}");
        }
        let max_id = r#"{"events": [{"cycle": 0, "fail_link": 4294967295}]}"#;
        let text = zero_load.replace("[0.0]", &format!("[0.01], \"faults\": [{max_id}]"));
        let faults = &CampaignSpec::from_json_str(&text).unwrap().sweeps[0].faults;
        assert_eq!(
            faults[0].as_ref().unwrap().plan.events[0].target,
            FaultTarget::Link(LinkId(u32::MAX))
        );
        // A zero window would checkpoint a NaN `accepted`; a zero goodput
        // interval divides by zero on export. Both are refused by name,
        // from the campaign defaults or from a sweep.
        for key in ["measure_cycles", "goodput_interval"] {
            let in_sweep = zero_load.replace("[0.0]", &format!("[0.01], \"{key}\": 0"));
            let in_defaults = in_sweep.replace(&format!(", \"{key}\": 0"), "").replace(
                "\"sweeps\"",
                &format!("\"defaults\": {{\"{key}\": 0}}, \"sweeps\""),
            );
            for text in [in_sweep, in_defaults] {
                let err = CampaignSpec::from_json_str(&text)
                    .unwrap()
                    .expand()
                    .unwrap_err();
                assert!(err.contains(&format!("{key:?} must be positive")), "{err}");
            }
        }
        // A payload of 0 or past the simulator's bound is refused by name
        // too; 2^32 + 512 used to run 512-flit packets.
        for payload in [0, MAX_PAYLOAD_FLITS + 1, (1 << 32) + 512] {
            let text = zero_load.replace("[0.0]", &format!("[0.01], \"payload_flits\": {payload}"));
            let err = CampaignSpec::from_json_str(&text)
                .unwrap()
                .expand()
                .unwrap_err();
            assert!(
                err.contains(&format!("\"payload_flits\" {payload} must be in")),
                "{err}"
            );
        }
        // A switch past the simulator's port bound, and a fault event
        // naming a link, switch or host the topology lacks, would fail
        // their cell mid-plan: refused by key, naming the port count or
        // the event. torus:3x3:2 has 36 links, 9 switches and 18 hosts;
        // torus:3x3:61 has 4 + 61 ports per switch.
        for (topos, loads_and_faults, expect) in [
            (
                r#"["torus:3x3:2", "torus:3x3:61"]"#,
                "[0.01]",
                r#""topos" entry "torus:3x3:61" has 65 ports per switch"#,
            ),
            (
                r#"["torus:3x3:2"]"#,
                r#"[0.01], "faults": ["fail_link:35@50", "fail_link:9999@50"]"#,
                r#""faults" entry "fail_link:9999@50": cannot fail link 9999 at cycle 50: the topology has 36 links"#,
            ),
            (
                r#"["torus:3x3:2"]"#,
                r#"[0.01], "faults": ["fail_switch:77@50"]"#,
                r#""faults" entry "fail_switch:77@50": cannot fail switch 77"#,
            ),
            (
                r#"["torus:3x3:2"]"#,
                r#"[0.01], "faults": [{"events": [{"cycle": 50, "fail_host": 500}]}]"#,
                r#""faults" entry "fail_host:500@50": cannot fail host 500 at cycle 50: the topology has 18 hosts"#,
            ),
        ] {
            let text = zero_load
                .replace(r#"["torus"]"#, topos)
                .replace("[0.0]", loads_and_faults);
            let err = CampaignSpec::from_json_str(&text)
                .unwrap()
                .expand()
                .unwrap_err();
            assert!(err.contains(expect), "{expect:?} not in {err:?}");
        }
        // Integral, but past 2^53: it would run u64::MAX cycles.
        for key in [r#""measure_cycles": 1e300"#, r#""seeds": [1e300]"#] {
            let huge = zero_load.replace("[0.0]", &format!("[0.01], {key}"));
            let err = CampaignSpec::from_json_str(&huge).unwrap_err();
            assert!(err.contains("0..2^53"), "{key}: {err}");
        }
    }

    /// A key the parsers would never look up is refused, at each of the
    /// three levels, with the key and the place named.
    #[test]
    fn unknown_and_retired_keys_are_refused() {
        // `extra` goes into the top level (0), `defaults` (1) or the sweep (2).
        let file = |level: usize, extra: &str| {
            let at = |l: usize| if l == level { extra } else { "" };
            format!(
                r#"{{"name": "x"{}, "defaults": {{"seed": 3{}}}, "sweeps": [
                    {{"group": "g", "topos": ["torus"], "schemes": ["ITB-RR"],
                      "patterns": ["uniform"], "loads": [0.01]{}}}
                ]}}"#,
                at(0),
                at(1),
                at(2)
            )
        };
        for level in 0..3 {
            assert!(CampaignSpec::from_json_str(&file(level, "")).is_ok());
            let comment = r#", "_comment": ["free text"]"#;
            assert!(CampaignSpec::from_json_str(&file(level, comment)).is_ok());
        }
        let gone = "the engine is no longer selectable; delete the key";
        for (level, extra, expect) in [
            (0, r#""sweep": []"#, r#"campaign file: unknown key "sweep""#),
            (0, r#""scheduler": "scan""#, gone),
            (1, r#""warmup": 100"#, r#"defaults: unknown key "warmup""#),
            (1, r#""seeds": [1, 2]"#, r#"defaults: unknown key "seeds""#),
            (
                1,
                r#""scheduler": "scan""#,
                r#"defaults: "scheduler": the engine"#,
            ),
            (2, r#""load": [0.02]"#, r#"sweep "g": unknown key "load""#),
            (
                2,
                r#""scheduler": "event""#,
                r#"sweep "g": "scheduler": the engine"#,
            ),
            (2, r#""schedulers": ["scan"]"#, gone),
            (
                0,
                r#""name": "y""#,
                r#"campaign file: key "name" appears twice"#,
            ),
            (1, r#""seed": 5"#, r#"defaults: key "seed" appears twice"#),
            (
                2,
                r#""loads": [0.02, 0.03]"#,
                r#"sweep "g": key "loads" appears twice"#,
            ),
            (
                2,
                r#""_comment": "a", "_comment": "b""#,
                r#"key "_comment" appears twice"#,
            ),
        ] {
            let text = file(level, &format!(", {extra}"));
            let err = CampaignSpec::from_json_str(&text).unwrap_err();
            assert!(err.contains(expect), "{expect:?} not in {err:?}");
        }
        let not_objects = r#"{"name": "x", "defaults": 3, "sweeps": [1]}"#;
        let err = CampaignSpec::from_json_str(not_objects).unwrap_err();
        assert!(err.contains("defaults: must be a JSON object"), "{err}");
    }

    #[test]
    fn sweep_overrides_campaign_defaults() {
        let spec = CampaignSpec::from_json_str(
            r#"{
                "name": "t",
                "defaults": {"warmup_cycles": 100, "measure_cycles": 200, "payload_flits": 64},
                "sweeps": [
                    {"group": "a", "topos": ["torus"], "schemes": ["ITB-RR"],
                     "patterns": ["uniform"], "loads": [0.01],
                     "measure_cycles": 999}
                ]
            }"#,
        )
        .unwrap();
        let plan = spec.expand().unwrap();
        assert_eq!(plan.cells[0].spec.warmup_cycles, 100);
        assert_eq!(plan.cells[0].spec.measure_cycles, 999);
        assert_eq!(plan.cells[0].spec.payload_flits, 64);
    }
}
