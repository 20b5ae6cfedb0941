//! The `paper` registry at tiny scale: an entry renders the same text alone
//! and in a full run, the shared Fermi sync grid simulates each of its
//! cells once, and the binary refuses a malformed invocation.

use experiments::paper::{Paper, Render, FIGURES};
use experiments::Opts;
use std::process::Command;
use workloads::Scale;

fn tiny() -> Paper {
    Paper::new(Opts::at_scale(Scale::Tiny))
}

fn entry(name: &str) -> Render {
    FIGURES.iter().find(|f| f.0 == name).expect("registered").1
}

/// `text` without what differs between two runs on one host: Figure 1's
/// `cpu_ms` column (the second of its seven-column table) is wall-clock.
fn repeatable(name: &str, text: &str) -> String {
    if name != "fig1" {
        return text.to_string();
    }
    text.lines()
        .map(|line| {
            let mut cells: Vec<&str> = line.split_whitespace().collect();
            if cells.len() == 7 {
                cells.remove(1);
            }
            cells.join(" ") + "\n"
        })
        .collect()
}

#[test]
fn an_entry_renders_the_same_alone_and_in_a_full_run() {
    let mut full = tiny();
    for &(name, render) in FIGURES {
        let in_full = render(&mut full);
        let alone = render(&mut tiny());
        assert_eq!(
            repeatable(name, &alone),
            repeatable(name, &in_full),
            "{name}"
        );
        assert!(in_full.ends_with('\n'), "{name}");
    }
    // fig2 + fig9 + fig10..13 + stalls asked for 24 + 48 + 4 x 56 + 16 = 368
    // cells; 8 kernels x 11 distinct schedulers were simulated.
    assert_eq!(full.fermi_sync.simulated(), 88);
}

#[test]
fn figures_of_one_sweep_simulate_it_once() {
    let mut paper = tiny();
    let fig10 = entry("fig10")(&mut paper);
    assert_eq!(
        paper.fermi_sync.simulated(),
        56,
        "8 kernels x 7 delay configs"
    );
    let fig11 = entry("fig11")(&mut paper);
    assert_eq!(paper.fermi_sync.simulated(), 56, "fig11 reads fig10's runs");
    assert_ne!(fig10, fig11);
}

#[test]
fn malformed_invocations_exit_2_with_usage() {
    let cases: [&[&str]; 4] = [
        &["nosuchfig"],
        &["--scale", "bogus"],
        &["--profile"],
        &["--engine", "cycle"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_paper"))
            .args(args)
            .output()
            .expect("spawn paper");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: paper"), "{args:?}: {stderr}");
    }
}
