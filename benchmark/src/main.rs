//! Whole-stack benchmark of bows-sim: three simulator workloads and one
//! service workload, end-to-end metrics untraced and per-layer metrics
//! from a traced run. See `benchmark/README.md`.

mod agree;
mod harness;
mod host;
mod layers;
mod metrics;
mod serve;
mod sim;
mod span;
mod stats;

use harness::Opts;
use metrics::{Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;

const USAGE: &str =
    "usage: bows-benchmark --workload <dense_sync|dense_alu|sparse_latency|serve_mix> \
     [--seed <n>] [--seconds <n>] [--trace <0|1>] [--smoke] [--out <dir>]";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if !(opts.seconds >= 0.0 && opts.seconds <= 60.0) {
                    return Err("--seconds: must be in 0..=60".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: expected 0 or 1".into()),
                }
            }
            "--smoke" => opts.smoke = true,
            "--out" => opts.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload: expected one of {WORKLOADS:?}"));
    }
    if opts.smoke {
        opts.seconds = 0.0;
    }
    Ok(opts)
}

fn run(opts: &Opts) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    match opts.workload.as_str() {
        "serve_mix" => serve::run(opts),
        _ => sim::run(opts),
    }
}

/// Print an integer-valued count without a fraction, anything else with
/// six decimals.
fn human(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

fn compare_main(args: &[String]) -> ! {
    let [a, b, bench] = args else {
        eprintln!("usage: bows-benchmark compare <dir-a> <dir-b> <BENCHMARK.json>");
        std::process::exit(2);
    };
    match agree::compare(a.as_ref(), b.as_ref(), bench.as_ref()) {
        Ok(true) => std::process::exit(0),
        Ok(false) => {
            eprintln!("error: the two sets are further apart than the benchmark's bounds");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        compare_main(&args[1..]);
    }
    let opts = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let (defs, require_all) = if opts.trace {
        (PER_LAYER, false)
    } else {
        (END_TO_END, true)
    };
    let report = run(&opts).and_then(|out| out.rows(defs, require_all).map(|rows| (out, rows)));
    let (out, rows) = report.unwrap_or_else(|e| {
        eprintln!("error: {}: {e}", opts.workload);
        std::process::exit(1);
    });
    let stamp = host::fingerprint(&opts, out.passes);
    let result = out.result_json(&rows);
    println!("# {}", stamp.render());
    for (d, v) in &rows {
        println!(
            "{:<14} {:<30} {:>18} {:<9} ({} is better)",
            opts.workload,
            d.name,
            human(*v),
            d.unit,
            d.better.as_str()
        );
    }
    let file = opts.out_dir.join(format!(
        "result-{}{}.json",
        opts.workload,
        if opts.trace { "-traced" } else { "" }
    ));
    let record = simt_serve::json::Json::Obj(vec![
        ("fingerprint".into(), stamp),
        ("result".into(), result.clone()),
    ]);
    if let Err(e) = std::fs::write(&file, record.render()) {
        eprintln!("error: {}: {e}", file.display());
        std::process::exit(1);
    }
    println!("{}", result.render());
    if !out.correct {
        eprintln!("error: {}: outputs are not correct", opts.workload);
        std::process::exit(1);
    }
}
