//! `paper`: regenerate the paper's figures and tables.
//!
//! ```sh
//! paper fig9                       # one figure, to stdout
//! paper --scale small --out results   # every entry, to results/<name>.txt
//! ```
//!
//! Entries are the names of [`experiments::paper::FIGURES`]; they render in
//! that order whatever order they are named in, all of them when none is.
//! One process shares the runs several figures read (`experiments::paper`).

use experiments::paper::{Paper, FIGURES};
use experiments::Opts;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let names: Vec<&str> = FIGURES.iter().map(|&(name, _)| name).collect();
    let usage = format!(
        "usage: paper [--scale tiny|small|full] [--csv] [--jobs <n>] [--out DIR] [NAME...]\n\
         names: {} (all when none is given)\n\
         --out writes DIR/<name>.txt instead of stdout",
        names.join(" ")
    );
    let mut out: Option<PathBuf> = None;
    let mut wanted: Vec<String> = Vec::new();
    let opts = Opts::parse_with(&usage, |arg, rest| {
        if arg == "--out" {
            out = Some(rest.next().ok_or("--out requires a directory")?.into());
        } else if names.contains(&arg) {
            wanted.push(arg.to_string());
        } else {
            return Err(format!("unknown flag or figure `{arg}`"));
        }
        Ok(())
    });
    if let Some(dir) = &out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let mut paper = Paper::new(opts);
    for &(name, render) in FIGURES {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == name) {
            continue;
        }
        let start = Instant::now();
        let text = render(&mut paper);
        let Some(dir) = &out else {
            print!("{text}");
            continue;
        };
        let path = dir.join(format!("{name}.txt"));
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("{name}: {:.1}s", start.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}
