//! `bows-benchmark compare <dir-a> <dir-b> <BENCHMARK.json>`: hold two
//! sets of untraced results from the same tree against the benchmark's
//! own bounds (`agree.sh` produces the sets).

use crate::metrics::{END_TO_END, SIMULATED_TIME, WORKLOADS};
use crate::stats;
use simt_serve::json::Json;
use std::path::Path;

fn number(j: &Json, what: &str) -> Result<f64, String> {
    match j {
        Json::UInt(n) => Ok(*n as f64),
        Json::Int(n) => Ok(*n as f64),
        Json::Num(n) => Ok(*n),
        _ => Err(format!("{what}: expected a number")),
    }
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The median of `metric` over a set's runs of `workload`
/// (`result-<workload>.<i>.json`).
fn value(dir: &Path, workload: &str, metric: &str) -> Result<f64, String> {
    let prefix = format!("result-{workload}.");
    let mut values = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with(&prefix) {
            let j = read_json(&path)?;
            let v = j.get("result")?.get("metrics")?.get(metric)?.get("value")?;
            values.push(number(v, metric)?);
        }
    }
    stats::median(&values).map_err(|e| format!("{}: {workload}: {e}", dir.display()))
}

/// Set-up lasts tens of milliseconds: two readings this close agree,
/// whatever share of one another that is.
const SETUP_FLOOR_S: f64 = 0.1;

/// How far apart two readings are, as a share of the smaller.
pub fn spread(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().min(b.abs())
}

/// Print the table; `Ok(false)` when some pair is further apart than its
/// bound.
///
/// # Errors
///
/// A missing or malformed result or benchmark file.
pub fn compare(a: &Path, b: &Path, benchmark: &Path) -> Result<bool, String> {
    let bench = read_json(benchmark)?;
    let bounds = bench.get("end_to_end")?.as_array("end_to_end")?;
    let mut agree = true;
    println!(
        "{:<15} {:<20} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "set a", "set b", "spread", "bound"
    );
    for workload in WORKLOADS {
        for d in END_TO_END {
            let bound = bounds
                .iter()
                .find(|m| m.get("name").and_then(|n| n.as_str("name")) == Ok(d.name))
                .ok_or(format!("BENCHMARK.json has no `{}`", d.name))?;
            let bound = number(bound.get("bound")?, "bound")?;
            let (va, vb) = (value(a, workload, d.name)?, value(b, workload, d.name)?);
            let s = spread(va, vb);
            // Simulated time repeats exactly, whatever the bound allows a
            // later change.
            let ok = if SIMULATED_TIME.contains(&d.name) {
                va == vb
            } else {
                s <= bound || (d.name == "setup_s" && (va - vb).abs() <= SETUP_FLOOR_S)
            };
            agree &= ok;
            println!(
                "{workload:<15} {:<20} {va:>14.4} {vb:>14.4} {:>7.2}% {:>6.0}%{}",
                d.name,
                s * 100.0,
                bound * 100.0,
                if ok { "" } else { "  <-- apart" }
            );
        }
    }
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_is_relative_to_the_smaller_reading() {
        assert_eq!(spread(10.0, 10.0), 0.0);
        assert!((spread(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((spread(11.0, 10.0) - 0.1).abs() < 1e-12);
    }
}
