//! Documents that cannot lie: every repository path, `--example <name>`,
//! `--bin <name>` and `paper <subcommand>` that README.md, DESIGN.md or
//! EXPERIMENTS.md puts in back-ticks or in a fenced block must resolve
//! against the working tree, `examples/`, `crates/bench/src/bin/` and the
//! `FIGURES` table of `crates/bench/src/experiments.rs`, and every `--flag`
//! written after a bench binary's name must be one that binary parses.
//!
//! The perf ledger, `BENCH_history.json`, must hold entries that say
//! where they were measured and cover every benchmark workload, and every
//! `[perf_opt]` change CHANGES.md lists since the ledger began must have
//! one. README.md's route-table size must be the torus ITB table's pinned
//! bytes. No first-party crate may hold more non-test lines than DESIGN.md
//! §3's code-size table gives it.
//!
//! Text only — nothing is built or simulated. What counts as a path: a
//! word with a `/` whose first component is a top-level entry or a crate
//! directory (`netsim/src/kernel.rs` is read as under `crates/`), or a
//! bare `*.rs` / `*.md` name, which must be some file's name. Words with
//! placeholders or globs (`<topo>`, `*`, `{a,b}`) and anything under a
//! `.gitignore`d directory (`target/experiments/…`) are not the tree's to
//! answer for.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use regnet_metrics::JsonValue;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

fn dir_names(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect()
}

/// Names of all files below `dir`, `skip`ped directories aside.
fn file_names_below(dir: &Path, skip: &[PathBuf], out: &mut BTreeSet<String>) {
    for name in dir_names(dir) {
        let path = dir.join(&name);
        if !path.is_dir() {
            out.insert(name);
        } else if !skip.contains(&path) {
            file_names_below(&path, skip, out);
        }
    }
}

/// The words of every back-ticked span and fenced block, each with its
/// line, one `Vec` per span. Splitting on back-ticks puts both at the odd
/// pieces: a fence's three ticks flip the parity like one.
fn code_words(doc: &str) -> Vec<Vec<(usize, &str)>> {
    assert!(
        doc.matches('`').count().is_multiple_of(2),
        "unbalanced back-ticks"
    );
    let trim: &[char] = &['(', ')', ',', ';', '.', '"', '\'', '#', '[', ']'];
    let mut line = 1;
    let mut spans = Vec::new();
    for (i, piece) in doc.split('`').enumerate() {
        if i % 2 == 1 {
            let lines = piece.split('\n').enumerate();
            let words = lines.flat_map(|(k, l)| l.split_whitespace().map(move |w| (line + k, w)));
            // `file.rs:34` and `tests/x.rs::test_name` name the file.
            let files = words.map(|(n, w)| (n, w.split(':').next().unwrap().trim_matches(trim)));
            spans.push(files.collect());
        }
        line += piece.matches('\n').count();
    }
    spans
}

/// The `name: "…"` entries of `const FIGURES`, plus `all`.
fn paper_subcommands() -> BTreeSet<String> {
    let src = read("crates/bench/src/experiments.rs");
    let table = src
        .split_once("const FIGURES: ")
        .and_then(|(_, rest)| rest.split_once("\n];"))
        .expect("FIGURES table")
        .0;
    let names = table.split("name: \"").skip(1);
    let mut names: BTreeSet<String> = names
        .map(|s| s.split('"').next().unwrap().to_string())
        .collect();
    assert!(names.contains("fig07"), "FIGURES parsed as {names:?}");
    names.insert("all".into());
    names
}

/// The bench binaries, each with the argument parsers it calls in
/// `crates/bench/src/lib.rs`.
const BINARIES: [(&str, &[&str]); 4] = [
    ("paper", &["parse_paper_args"]),
    ("campaign", &["parse_campaign_args"]),
    ("probe", &["parse_probe_args"]),
    ("diagnose", &["parse_diagnose_args"]),
];

/// The text a binary's flags are spelled in: its own source plus the
/// bodies of its parsers.
fn flag_tables() -> Vec<(&'static str, String)> {
    let lib = read("crates/bench/src/lib.rs");
    let tables = BINARIES.iter().map(|&(bin, parsers)| {
        let mut table = read(&format!("crates/bench/src/bin/{bin}.rs"));
        for parser in parsers {
            let body = lib
                .split_once(&format!("pub fn {parser}("))
                .and_then(|(_, rest)| rest.split_once("\n}\n"))
                .unwrap_or_else(|| panic!("no {parser} in crates/bench/src/lib.rs"));
            table.push_str(body.0);
        }
        (bin, table)
    });
    tables.collect()
}

/// The `--flags` of the command that starts at `words[at]`: the words up
/// to the end of its line, continuation lines (`\`) included.
fn flags_after<'a>(words: &[(usize, &'a str)], at: usize) -> Vec<&'a str> {
    let mut line = words[at].0;
    let mut flags = Vec::new();
    for pair in words[at..].windows(2) {
        let ((_, prev), (n, word)) = (pair[0], pair[1]);
        if n != line && prev != "\\" {
            break;
        }
        line = n;
        if word.len() > 2 && word.starts_with("--") {
            flags.push(word);
        }
    }
    flags
}

#[test]
fn documents_name_only_what_exists() {
    let ignored = read(".gitignore");
    let ignored = ignored
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty());
    let mut ignored: Vec<PathBuf> = ignored.map(|l| root().join(l.trim_matches('/'))).collect();
    ignored.push(root().join(".git"));
    let top = dir_names(root());
    let crates = dir_names(&root().join("crates"));
    let mut files = BTreeSet::new();
    file_names_below(root(), &ignored, &mut files);
    let subcommands = paper_subcommands();
    let flag_tables = flag_tables();

    let (mut checked, mut lies) = (0, Vec::new());
    for doc in DOCS {
        for words in code_words(&read(doc)) {
            for (i, &(line, word)) in words.iter().enumerate() {
                let next = |k: usize| words.get(i + k).map_or("", |w| w.1);
                let mut check = |ok: bool, what: String| {
                    checked += 1;
                    if !ok {
                        lies.push(format!("{doc}:{line}: {what}"));
                    }
                };
                if word == "--example" || word == "--bin" {
                    let dir = if word == "--bin" {
                        "crates/bench/src/bin"
                    } else {
                        "examples"
                    };
                    let path = format!("{dir}/{}.rs", next(1));
                    check(root().join(&path).is_file(), format!("no {path}"));
                } else if word == "paper" || word.ends_with("/paper") {
                    let sub = if next(1) == "--" { next(2) } else { next(1) };
                    if sub.starts_with(|c: char| c.is_ascii_lowercase()) {
                        let known = subcommands.contains(sub);
                        check(known, format!("`paper` has no subcommand {sub:?}"));
                    }
                }
                let binary = word.rsplit('/').next().unwrap();
                if let Some((_, table)) = flag_tables.iter().find(|(bin, _)| *bin == binary) {
                    for flag in flags_after(&words, i) {
                        let known = table.contains(&format!("\"{flag}\""));
                        check(known, format!("`{binary}` takes no {flag}"));
                    }
                }
                if word.contains(['<', '>', '*', '{', '}', '$', '…']) {
                    continue;
                }
                if let Some((first, _)) = word.split_once('/') {
                    let path = if top.contains(first) {
                        root().join(word)
                    } else if crates.contains(first) {
                        root().join("crates").join(word)
                    } else {
                        continue;
                    };
                    if !ignored.iter().any(|ig| path.starts_with(ig)) {
                        check(path.exists(), format!("no {word}"));
                    }
                } else if word.ends_with(".rs") {
                    check(files.contains(word), format!("no file named {word}"));
                } else if word.ends_with(".md") {
                    check(top.contains(word), format!("no {word}"));
                }
            }
        }
    }
    assert!(
        checked > 100,
        "only {checked} references found: is the scan broken?"
    );
    assert!(
        lies.is_empty(),
        "{} stale references:\n{}",
        lies.len(),
        lies.join("\n")
    );
}

/// What a ledger entry's manifest must name: the host, both revisions and
/// how the pairs were run.
const MANIFEST: [&str; 8] = [
    "nproc",
    "cpu",
    "rustc",
    "parent_rev",
    "change_rev",
    "seeds",
    "seconds",
    "pairs",
];

fn parse(rel: &str) -> JsonValue {
    JsonValue::parse(&read(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The ledger's entries; each names the CHANGES.md entry (`- PR N`) it
/// measured as `"pr": N`.
fn ledger() -> Vec<JsonValue> {
    let history = parse("BENCH_history.json");
    let entries = history.get("entries").and_then(JsonValue::as_array);
    let entries = entries.expect("BENCH_history.json has no \"entries\" list");
    assert!(!entries.is_empty(), "BENCH_history.json has no entry");
    entries.to_vec()
}

/// The number of the first CHANGES.md entry whose `[perf_opt]` line must
/// have a ledger entry: the ledger's first entry measured it.
const LEDGER_FROM_PR: u64 = 52;

/// Every entry of `BENCH_history.json` has a manifest and reports each
/// workload `BENCHMARK.json` lists on each of its end-to-end metrics: the
/// parent's and the change's median with quartiles, their ratio, the
/// pairs run (at least the manifest's `pairs`) and the pairs the change
/// won.
#[test]
fn bench_history_entries_have_a_manifest_and_every_workload() {
    let bench = parse("BENCHMARK.json");
    let names = |key: &str| -> Vec<String> {
        let list = bench.get(key).and_then(JsonValue::as_array);
        let list = list.unwrap_or_else(|| panic!("BENCHMARK.json has no {key:?} list"));
        let name = |v: &JsonValue| {
            v.get("name")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
        };
        list.iter()
            .map(|v| name(v).expect("a named entry"))
            .collect()
    };
    let (workloads, metrics) = (names("workloads"), names("end_to_end"));
    assert_eq!(workloads.len(), 5, "{workloads:?}");
    for (i, entry) in ledger().iter().enumerate() {
        let at = |what: String| format!("BENCH_history.json entry {i}: {what}");
        let pr = entry.get("pr").and_then(JsonValue::as_u64);
        assert!(pr.is_some(), "{}", at("no PR number".into()));
        let manifest = entry.get("manifest").and_then(JsonValue::as_object);
        let manifest = manifest.unwrap_or_else(|| panic!("{}", at("no manifest".into())));
        for key in MANIFEST {
            let named = manifest.iter().any(|(k, _)| k == key);
            assert!(named, "{}", at(format!("the manifest names no {key:?}")));
        }
        let pairs = entry.get("manifest").and_then(|m| m.get("pairs"));
        let pairs = pairs.and_then(JsonValue::as_u64).filter(|&n| n > 0);
        let pairs = pairs.unwrap_or_else(|| panic!("{}", at("no pair count".into())));
        let rows = entry.get("workloads");
        for w in &workloads {
            let row = rows.and_then(|r| r.get(w));
            let row = row.unwrap_or_else(|| panic!("{}", at(format!("no workload {w:?}"))));
            for m in &metrics {
                let cell = row.get(m);
                let cell = cell.unwrap_or_else(|| panic!("{}", at(format!("{w}: no {m:?}"))));
                for side in ["parent", "change"] {
                    for q in ["median", "q1", "q3"] {
                        let v = cell.get(side).and_then(|s| s.get(q));
                        let ok = v.and_then(JsonValue::as_f64).is_some();
                        assert!(ok, "{}", at(format!("{w} {m}: no {side} {q}")));
                    }
                }
                let ratio = cell.get("ratio").and_then(JsonValue::as_f64);
                assert!(ratio.is_some(), "{}", at(format!("{w} {m}: no ratio")));
                let ran = cell.get("pairs").and_then(JsonValue::as_u64);
                let won = cell.get("won").and_then(JsonValue::as_u64);
                let ok = matches!((won, ran), (Some(won), Some(ran)) if won <= ran && ran >= pairs);
                let what = format!("{w} {m}: won {won:?} of {ran:?} pairs, at least {pairs} run");
                assert!(ok, "{}", at(what));
            }
        }
    }
}

/// Every `- PR N [perf_opt]` line of CHANGES.md with `N` from
/// `LEDGER_FROM_PR` on has a ledger entry whose `"pr"` is `N`: a speed or
/// memory claim counts only as a measured row.
#[test]
fn perf_changes_have_a_ledger_entry() {
    let measured: BTreeSet<u64> = ledger()
        .iter()
        .filter_map(|e| e.get("pr").and_then(JsonValue::as_u64))
        .collect();
    let claimed: BTreeSet<u64> = read("CHANGES.md")
        .lines()
        .filter_map(|line| {
            let (n, rest) = line.strip_prefix("- PR ")?.split_once(' ')?;
            rest.starts_with("[perf_opt]").then(|| n.parse().ok())?
        })
        .filter(|&n| n >= LEDGER_FROM_PR)
        .collect();
    assert!(
        claimed.contains(&LEDGER_FROM_PR),
        "CHANGES.md lists no PR {LEDGER_FROM_PR} [perf_opt] line"
    );
    let missing: Vec<_> = claimed.difference(&measured).collect();
    assert!(
        missing.is_empty(),
        "[perf_opt] PRs with no BENCH_history.json entry: {missing:?}"
    );
}

/// The paper torus ITB table's heap bytes as `paper_tables_are_pinned`
/// pins them: the third figure of the second `[routes, segments, bytes]`
/// of its `"torus"` row.
fn pinned_torus_itb_bytes() -> u64 {
    let pins = read("crates/core/tests/paper_topologies.rs");
    let row = pins
        .split_once("\"torus\",")
        .expect("a \"torus\" pin row")
        .1;
    let row = row
        .split_once("\"express\",")
        .expect("the \"express\" row after it")
        .0;
    let pins = row
        .split('[')
        .filter_map(|t| t.split_once(']'))
        .map(|t| t.0);
    let numbers = |t: &&str| t.chars().all(|c| c.is_ascii_digit() || ", _".contains(c));
    let itb = pins
        .filter(numbers)
        .nth(1)
        .expect("two [routes, segments, bytes] pins");
    let bytes = itb.rsplit(',').next().unwrap().trim().replace('_', "");
    bytes.parse().unwrap_or_else(|e| panic!("{itb:?}: {e}"))
}

/// README.md's routing paragraph gives the torus ITB table's size as
/// "N B for the paper torus's": N must be the pinned bytes, so a layout
/// change that moves the pin fails here until the text follows.
#[test]
fn readme_quotes_the_pinned_route_table_bytes() {
    let readme = read("README.md").replace('\n', " ");
    let (before, _) = readme
        .split_once(" B for the paper torus's")
        .expect("README.md gives the torus ITB table's bytes");
    let figure = before.rsplit(['(', ' ']).next().unwrap();
    let quoted: u64 = figure
        .replace(',', "")
        .parse()
        .unwrap_or_else(|e| panic!("{figure:?}: {e}"));
    assert_eq!(
        quoted,
        pinned_torus_itb_bytes(),
        "README.md quotes {figure} B for the torus ITB table"
    );
}

/// DESIGN.md §4 gives the same table's size as "The paper torus's ITB
/// table is … in N B": N must be the pinned bytes too.
#[test]
fn design_quotes_the_pinned_route_table_bytes() {
    let design = read("DESIGN.md");
    let design = design.split_whitespace().collect::<Vec<_>>().join(" ");
    let (_, sentence) = design
        .split_once("The paper torus's ITB table is ")
        .expect("DESIGN.md gives the torus ITB table's bytes");
    let (before, _) = sentence.split_once(" B").expect("… in N B");
    let figure = before.rsplit(' ').next().unwrap();
    let quoted: u64 = figure
        .replace(',', "")
        .parse()
        .unwrap_or_else(|e| panic!("{figure:?}: {e}"));
    assert_eq!(
        quoted,
        pinned_torus_itb_bytes(),
        "DESIGN.md quotes {figure} B for the torus ITB table"
    );
}

/// Non-test lines of the `.rs` files below `dir`: each file's lines
/// before its first `#[cfg(test)]` line, all of a file with none.
fn non_test_lines(dir: &Path) -> usize {
    let mut total = 0;
    for name in dir_names(dir) {
        let path = dir.join(&name);
        if path.is_dir() {
            total += non_test_lines(&path);
        } else if name.ends_with(".rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            total += text
                .lines()
                .take_while(|l| l.trim() != "#[cfg(test)]")
                .count();
        }
    }
    total
}

/// DESIGN.md §3's code-size table has a row for every first-party crate
/// (`crates/*/src` and the root `src`), and no crate holds more non-test
/// lines than its row.
#[test]
fn crates_stay_within_their_recorded_size() {
    let design = read("DESIGN.md");
    let rows: Vec<(String, usize)> = design
        .lines()
        .skip_while(|l| !l.starts_with("| crate sources | non-test lines |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|row| {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let cap = cells[2].replace(',', "");
            let cap = cap.parse().unwrap_or_else(|e| panic!("{row}: {e}"));
            (cells[1].trim_matches('`').to_string(), cap)
        })
        .collect();
    let mut crates: Vec<String> = dir_names(&root().join("crates"))
        .into_iter()
        .map(|c| format!("crates/{c}/src"))
        .chain(["src".to_string()])
        .collect();
    let mut named: Vec<String> = rows.iter().map(|(dir, _)| dir.clone()).collect();
    crates.sort();
    named.sort();
    assert_eq!(named, crates, "one DESIGN.md §3 code-size row per crate");
    let over: Vec<String> = rows
        .iter()
        .filter_map(|(dir, cap)| {
            let lines = non_test_lines(&root().join(dir));
            (lines > *cap).then(|| format!("{dir}: {lines} lines, {cap} allowed"))
        })
        .collect();
    assert!(over.is_empty(), "crates over DESIGN.md §3's size: {over:?}");
}
