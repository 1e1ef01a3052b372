//! EXPERIMENTS.md cites tests as evidence for the paper's claims. A
//! citation that names a deleted or renamed test is evidence for
//! nothing, so every backticked test path in it must resolve:
//!
//! * `tests/x.rs` (or `crates/c/tests/x.rs`): the file exists;
//! * `tests/x.rs::name`: that file defines `fn name(`;
//! * `module::tests::name`: some `module.rs` (or `module/mod.rs`) under
//!   `src/` or `crates/` defines `fn name(`.
//!
//! Its Figure 8, 9, 13 and 15 tables quote `results/`, so every cell
//! must equal the CSV value it rounds.

use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The backticked spans of `markdown` outside fenced code blocks.
fn code_spans(markdown: &str) -> Vec<String> {
    let mut in_fence = false;
    let mut prose = String::new();
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
        } else if !in_fence {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_owned)
        .collect()
}

fn defines(file: &Path, name: &str) -> bool {
    fs::read_to_string(file).is_ok_and(|src| src.contains(&format!("fn {name}(")))
}

/// Checks every test citation in `markdown` against the tree at `root`;
/// returns how many were checked and the ones that do not resolve.
fn unresolved_citations(root: &Path, markdown: &str) -> (usize, Vec<String>) {
    let mut sources = Vec::new();
    rust_files(&root.join("src"), &mut sources);
    rust_files(&root.join("crates"), &mut sources);
    let in_module = |module: &str, name: &str| {
        sources.iter().any(|f| {
            let stem = f.file_stem().and_then(|s| s.to_str());
            let parent = f.parent().and_then(|p| p.file_name()?.to_str());
            let named = stem == Some(module) || (stem == Some("mod") && parent == Some(module));
            named && defines(f, name)
        })
    };
    let (mut checked, mut missing) = (0, Vec::new());
    for span in code_spans(markdown) {
        if span.contains(char::is_whitespace) {
            continue;
        }
        let resolves = if let Some((file, name)) = span.split_once(".rs::") {
            defines(&root.join(format!("{file}.rs")), name)
        } else if let Some((path, name)) = span.rsplit_once("::tests::") {
            in_module(path.rsplit("::").next().unwrap_or(path), name)
        } else if span.ends_with(".rs") && span.contains("tests/") {
            root.join(&span).is_file()
        } else {
            continue;
        };
        checked += 1;
        if !resolves {
            missing.push(span);
        }
    }
    (checked, missing)
}

#[test]
fn every_test_experiments_md_cites_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = fs::read_to_string(root.join("EXPERIMENTS.md")).expect("read EXPERIMENTS.md");
    let (checked, missing) = unresolved_citations(root, &doc);
    assert!(checked >= 5, "only {checked} test citations found");
    assert!(
        missing.is_empty(),
        "EXPERIMENTS.md cites tests that do not exist: {missing:?}"
    );
}

#[test]
fn a_citation_of_a_missing_test_is_caught() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = "`router::tests::no_such_test`, `tests/no_such_file.rs`, \
               `tests/silent_noisy.rs::no_such_test` and the real \
               `tests/silent_noisy.rs::noisy_reuse_reannounces`\n\
               ```\n`router::tests::inside_a_fence_is_ignored`\n```\n";
    let (checked, missing) = unresolved_citations(root, doc);
    assert_eq!(checked, 4);
    assert_eq!(
        missing,
        [
            "router::tests::no_such_test",
            "tests/no_such_file.rs",
            "tests/silent_noisy.rs::no_such_test",
        ]
    );
}

/// Each cell is its `results/` value rounded half away from zero, in
/// the CSV column whose label holds all of its column's words (`Full
/// Damping (mesh)`). On a mismatch, fix the doc, never the CSV.
#[test]
fn experiments_md_tables_quote_results() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = fs::read_to_string(root.join("EXPERIMENTS.md")).expect("read EXPERIMENTS.md");
    let mut cells = 0;
    for fig in [8, 9, 13, 15] {
        let csv = fs::read_to_string(root.join(format!("results/fig{fig}.csv"))).expect("a CSV");
        // A quoted label's commas are followed by a space; separators' are not.
        let csv: Vec<Vec<_>> = (csv.lines())
            .map(|line| {
                line.replace(", ", " ")
                    .split(',')
                    .map(str::to_lowercase)
                    .collect()
            })
            .collect();
        let table: Vec<Vec<&str>> = (doc.lines())
            .skip_while(|line| !line.starts_with(&format!("## Figure {fig} ")))
            .skip_while(|line| !line.starts_with('|'))
            .take_while(|line| line.starts_with('|'))
            .filter(|line| !line.starts_with("|---"))
            .map(|line| line.trim_matches('|').split('|').map(str::trim).collect())
            .collect();
        for (c, label) in table[0].iter().enumerate().skip(1) {
            let label = label.to_lowercase();
            let words: Vec<_> = label.split(|c: char| !c.is_alphanumeric()).collect();
            let holds = |j: &usize| words.iter().all(|w| csv[0][*j].contains(w));
            let [col] = (1..csv[0].len()).filter(holds).collect::<Vec<_>>()[..] else {
                panic!("Figure {fig}: `{label}` does not name exactly one CSV column");
            };
            for row in &table[1..] {
                let csv_row = csv.iter().find(|r| r[0] == row[0]).expect("the doc's n");
                let value: f64 = csv_row[col].parse().expect("a numeric CSV cell");
                let (n, quoted) = (row[0], row[c].trim_matches('*'));
                let msg = format!("Figure {fig}, n = {n}, {label}: {quoted} quotes {value}");
                assert_eq!(quoted.parse(), Ok(value.round()), "{msg}");
                cells += 1;
            }
        }
    }
    assert!(cells >= 70, "only {cells} table cells found");
}
