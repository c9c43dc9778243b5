//! Documents that cannot lie: every repository path, `--example <name>`,
//! `--bin <name>` and `paper <subcommand>` that README.md, DESIGN.md or
//! EXPERIMENTS.md puts in back-ticks or in a fenced block must resolve
//! against the working tree, `examples/`, `crates/bench/src/bin/` and the
//! `FIGURES` table of `crates/bench/src/experiments.rs`, and every `--flag`
//! written after a bench binary's name must be one that binary parses.
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
