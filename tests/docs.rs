//! The documents name only what the code has. Each test reads README.md,
//! DESIGN.md or EXPERIMENTS.md and fails when one of them names a path, a
//! module, a registry entry, a lint, a flag or a cited heading that does
//! not exist. The `paper` and `check` flags are checked beside those
//! binaries, in `crates/experiments/tests/check.rs`.

#[path = "docs/markdown.rs"]
mod markdown;

use markdown::{flags, flags_after, headings};
use simt_analyze::LintKind;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(name: &str) -> String {
    std::fs::read_to_string(root().join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Every token of `text` that starts with `prefix` and continues in path
/// characters, with a trailing `.` or `/` dropped.
fn paths(text: &str, prefix: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (at, _) in text.match_indices(prefix) {
        if text[..at].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_') {
            continue;
        }
        let end = text[at..]
            .find(|c: char| !(c.is_ascii_alphanumeric() || "-_./".contains(c)))
            .map_or(text.len(), |n| at + n);
        out.insert(text[at..end].trim_end_matches(['.', '/']).to_string());
    }
    out
}

/// The directories under `crates/`.
fn crate_dirs() -> BTreeSet<String> {
    std::fs::read_dir(root().join("crates"))
        .expect("crates/")
        .map(|e| e.expect("dir entry"))
        .filter(|e| e.path().is_dir())
        .map(|e| format!("crates/{}", e.file_name().to_string_lossy()))
        .collect()
}

/// The backticked tokens of `cell`.
fn ticked(cell: &str) -> Vec<&str> {
    cell.split('`').skip(1).step_by(2).collect()
}

#[test]
fn crate_paths_in_design_and_readme_exist() {
    for doc in ["DESIGN.md", "README.md"] {
        for path in paths(&read(doc), "crates/") {
            assert!(
                root().join(&path).exists(),
                "{doc} names `{path}`, which does not exist"
            );
        }
    }
}

/// DESIGN.md's "Workspace inventory" rows: (directory, key modules). The
/// first backticked token of a row is its directory (`.` for the root
/// package); the last cell lists its modules.
fn inventory() -> Vec<(String, Vec<String>)> {
    read("DESIGN.md")
        .lines()
        .skip_while(|l| *l != "## Workspace inventory")
        .skip_while(|l| !l.starts_with('|'))
        .skip(2) // the header and the separator
        .take_while(|l| l.starts_with('|'))
        .map(|line| {
            let cells: Vec<&str> = line.trim_matches('|').split('|').collect();
            let dir = ticked(cells[0])
                .first()
                .expect("a row opens with its directory")
                .to_string();
            let modules = ticked(cells[cells.len() - 1]);
            (dir, modules.into_iter().map(str::to_string).collect())
        })
        .collect()
}

#[test]
fn every_inventory_module_is_a_file() {
    let rows = inventory();
    assert!(rows.len() > 1, "no inventory rows found");
    for (dir, modules) in rows {
        assert!(
            !modules.is_empty(),
            "inventory row `{dir}` lists no modules"
        );
        let src = root().join(&dir).join("src");
        for m in modules {
            let found = [
                format!("{m}.rs"),
                format!("{m}/mod.rs"),
                format!("bin/{m}.rs"),
            ]
            .iter()
            .any(|f| src.join(f).is_file());
            assert!(
                found,
                "inventory module `{m}` of `{dir}` is no file under {}",
                src.display()
            );
        }
    }
}

#[test]
fn every_crate_has_an_inventory_row_and_a_readme_tree_line() {
    let crates = crate_dirs();
    let rows: BTreeSet<String> = inventory()
        .into_iter()
        .map(|(dir, _)| dir)
        .filter(|d| d.starts_with("crates/"))
        .collect();
    assert_eq!(
        rows, crates,
        "DESIGN.md's inventory rows against the directories under crates/"
    );

    // README's architecture tree: a fenced block whose crate lines are
    // indented by exactly two spaces under `crates/`.
    let readme = read("README.md");
    let tree = readme
        .split_once("## Architecture")
        .and_then(|(_, s)| s.split("```").nth(1))
        .expect("README.md has an architecture tree");
    let listed: BTreeSet<String> = tree
        .lines()
        .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
        .filter_map(|l| l.split_whitespace().next())
        .map(|name| format!("crates/{name}"))
        .collect();
    assert_eq!(
        listed, crates,
        "README.md's architecture tree against the directories under crates/"
    );
}

#[test]
fn experiments_headings_name_exactly_the_registry_entries() {
    let experiments = read("EXPERIMENTS.md");
    let (mut figures, mut gates) = (BTreeSet::new(), BTreeSet::new());
    for heading in headings(&experiments) {
        for token in ticked(heading) {
            if let Some(gate) = token.strip_prefix("check ") {
                gates.insert(gate.to_string());
            } else if token
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            {
                figures.insert(token.to_string());
            }
        }
    }
    let registry: BTreeSet<String> = experiments::paper::FIGURES
        .iter()
        .map(|(name, _)| name.to_string())
        .collect();
    assert_eq!(
        figures, registry,
        "`paper` entries in EXPERIMENTS.md headings against paper::FIGURES"
    );
    let registry: BTreeSet<String> = experiments::check::GATES
        .iter()
        .map(|(name, _)| name.to_string())
        .collect();
    assert_eq!(
        gates, registry,
        "`check` gates in EXPERIMENTS.md headings against check::GATES"
    );
}

/// Every lint kind. The match is exhaustive, so a new kind stops this file
/// compiling until it is chained in here, and then README's table must
/// list it.
fn lint_kinds() -> Vec<LintKind> {
    use LintKind::*;
    let next = |k: &LintKind| match k {
        UndefinedRead => Some(UnreachableBlock),
        UnreachableBlock => Some(InfiniteLoop),
        InfiniteLoop => Some(DivergentBarrier),
        DivergentBarrier => Some(BadTarget),
        BadTarget => Some(SibMismatch),
        SibMismatch => Some(RaceUnlocked),
        RaceUnlocked => Some(RaceCrossPhase),
        RaceCrossPhase => Some(RaceDivergentBarrier),
        RaceDivergentBarrier => Some(MissingRelease),
        MissingRelease => Some(LockCycle),
        LockCycle => Some(SimtDeadlock),
        SimtDeadlock => None,
    };
    std::iter::successors(Some(UndefinedRead), next).collect()
}

#[test]
fn readme_lint_table_lists_every_lint_kind() {
    let readme = read("README.md");
    // The rows under the `| lint | severity | fires when |` header.
    let table: BTreeSet<&str> = readme
        .lines()
        .skip_while(|l| !l.starts_with("| lint |"))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .filter_map(|l| ticked(l).first().copied())
        .collect();
    let kinds: BTreeSet<&str> = lint_kinds().into_iter().map(LintKind::name).collect();
    assert_eq!(
        table, kinds,
        "README.md's lint table against LintKind::name()"
    );
}

#[test]
fn bows_run_flags_in_the_docs_are_in_its_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_bows-run"))
        .output()
        .expect("spawn bows-run");
    assert_eq!(
        out.status.code(),
        Some(2),
        "bows-run without arguments prints usage and exits 2"
    );
    let usage = flags(&String::from_utf8_lossy(&out.stderr));
    assert!(usage.contains("--ctas"), "no usage on stderr: {usage:?}");
    for doc in ["README.md", "EXPERIMENTS.md"] {
        let written = flags_after(&read(doc), "bows-run");
        let unknown: Vec<&String> = written.difference(&usage).collect();
        assert!(
            unknown.is_empty(),
            "{doc} writes bows-run with {unknown:?}, which its usage lacks"
        );
    }
}

/// Every file that may cite a heading of DESIGN.md or EXPERIMENTS.md.
fn citing_files() -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() && entry.file_name() != "target" {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        walk(&root().join(dir), &mut files);
    }
    for doc in [
        ".github/workflows/ci.yml",
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "ROADMAP.md",
    ] {
        files.push(root().join(doc));
    }
    files
}

#[test]
fn cited_headings_exist() {
    let bodies = ["DESIGN.md", "EXPERIMENTS.md"].map(|doc| (doc, read(doc)));
    let docs = bodies.iter().map(|(doc, body)| (*doc, headings(body)));
    let docs: Vec<(&str, Vec<&str>)> = docs.collect();
    let mut cited = 0;
    for file in citing_files() {
        let text =
            std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        for (doc, have) in &docs {
            for (at, _) in text.match_indices(doc) {
                // `DOC`, an optional "`", then "'s", "," or "§" and a
                // space before the quoted heading.
                let rest = text[at + doc.len()..].trim_start_matches('`');
                if rest.starts_with('"') {
                    continue; // a string holding the file name
                }
                let rest = rest
                    .trim_start_matches("'s")
                    .trim_start_matches(',')
                    .trim_start()
                    .trim_start_matches('§')
                    .trim_start();
                let Some(quoted) = rest.strip_prefix('"') else {
                    continue;
                };
                let quoted = quoted.split('"').next().unwrap_or("");
                let heading = quoted.split_whitespace().collect::<Vec<_>>().join(" ");
                cited += 1;
                assert!(
                    have.iter().any(|h| h.starts_with(heading.as_str())),
                    "{} cites {doc} \"{heading}\", which is no heading there",
                    file.display()
                );
            }
        }
    }
    assert!(cited > 0, "no citation found: the scan is broken");
}

#[test]
fn results_files_experiments_cites_exist() {
    for path in paths(&read("EXPERIMENTS.md"), "results/") {
        assert!(
            root().join(&path).exists(),
            "EXPERIMENTS.md cites `{path}`, which does not exist"
        );
    }
}

#[test]
fn flags_after_reads_code_and_skips_prose() {
    let md = "Run `tool --a x` or see the tool --b docs.\n\
              A `tool\n--c` span may wrap; `other --d` is not it.\n\
              \n\
              ```sh\n\
              target/release/tool --e \\\n    --f-g 1\n\
              tool-x --h\n\
              ```\n";
    let got: Vec<String> = flags_after(md, "tool").into_iter().collect();
    assert_eq!(got, ["--a", "--c", "--e", "--f-g"]);
}
