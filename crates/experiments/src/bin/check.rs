//! `check`: run the repository's gates — the paper's checkable claims and
//! the simulator's and service's correctness drills.
//!
//! ```sh
//! check oracle --scale tiny                  # one gate, report to stdout
//! check --out results oracle differ fuzz     # reports to results/<gate>.txt
//! ```
//!
//! Gates are the names of [`experiments::check::GATES`]; they run in that
//! order whatever order they are named in, all of them when none is. Each
//! gate's verdict and time go to stderr. Exits 0 when every named gate
//! passed, 1 when any failed (the rest still run), 2 on a usage error.

use experiments::check::{fuzz_window, run_all, Check, Gate, GATES};
use experiments::{usage_error, Opts};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let names: Vec<&str> = GATES.iter().map(|&(name, _)| name).collect();
    let usage = format!(
        "usage: check [--scale tiny|small|full] [--csv] [--jobs <n>] [--out DIR] [--seed N]\n\
         \x20            [--matrix small|full] [--emit DIR] [GATE...]\n\
         gates: {} (all when none is given)\n\
         --out writes DIR/<gate>.txt instead of stdout; --seed is the first seed of fuzz\n\
         and snap_fuzz and the drill seed of crash_drill, serve and serve_chaos; --matrix\n\
         is differ's configuration matrix; --emit writes fuzz's shrunk divergences to DIR",
        names.join(" ")
    );
    let mut out: Option<PathBuf> = None;
    let mut seed: Option<u64> = None;
    let mut full_matrix = false;
    let mut emit: Option<PathBuf> = None;
    let mut wanted: Vec<String> = Vec::new();
    let opts = Opts::parse_with(&usage, |arg, rest| {
        let mut value = |of: &str| rest.next().ok_or(format!("{arg} requires {of}"));
        match arg {
            "--out" => out = Some(value("a directory")?.into()),
            "--emit" => emit = Some(value("a directory")?.into()),
            "--seed" => {
                let v = value("a number")?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("invalid --seed value `{v}`"))?,
                );
            }
            "--matrix" => {
                full_matrix = match value("small|full")?.as_str() {
                    "small" => false,
                    "full" => true,
                    other => return Err(format!("unknown matrix `{other}` (small|full)")),
                }
            }
            name if names.contains(&name) => wanted.push(name.to_string()),
            other => return Err(format!("unknown flag or gate `{other}`")),
        }
        Ok(())
    });
    let window = fuzz_window(opts.scale);
    if let Some(s) = seed.filter(|s| s.checked_add(window).is_none()) {
        usage_error(
            &usage,
            &format!("--seed {s}: a window of {window} seeds overflows u64"),
        );
    }
    if let Some(dir) = &out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let mut check = Check::new(opts);
    check.seed = seed;
    check.full_matrix = full_matrix;
    check.emit = emit;
    let gates: Vec<(&str, Gate)> = GATES
        .iter()
        .copied()
        .filter(|(name, _)| wanted.is_empty() || wanted.iter().any(|w| w == name))
        .collect();
    let mut start = Instant::now();
    let mut written = true;
    let passed = run_all(&mut check, &gates, |name, verdict| {
        let secs = start.elapsed().as_secs_f64();
        match &out {
            None => print!("{}", verdict.report),
            Some(dir) => {
                let path = dir.join(format!("{name}.txt"));
                if let Err(e) = std::fs::write(&path, &verdict.report) {
                    eprintln!("cannot write {}: {e}", path.display());
                    written = false;
                }
            }
        }
        let status = if verdict.pass { "PASS" } else { "FAIL" };
        eprintln!("{name}: {status} in {secs:.1}s");
        start = Instant::now();
    });
    if passed && written {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
