//! The `BENCH_<label>.json` tracked-performance report.
//!
//! A report records, per figure group, the wall time of a tiny-scale run
//! and the simulated-cycles-per-second throughput, as JSON parsed and
//! rendered by the service's [`Json`] type (one group per line, so
//! committed reports diff cleanly).
//!
//! Comparison semantics (see [`BenchReport::check_against`]): simulated
//! cycle counts are deterministic, so any cycle drift against the baseline
//! is a hard failure — it means simulator behavior changed, not the
//! machine. Wall time varies with hardware and load, so timing drift only
//! produces warnings.

use simt_serve::json::{json_string, Json};
use std::fmt::Write as _;

/// One figure group's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupResult {
    /// Group name (e.g. `fig9_bows_vs_baseline`).
    pub name: String,
    /// Wall-clock milliseconds for the whole group.
    pub wall_ms: f64,
    /// Total simulated cycles across the group's runs (deterministic).
    pub cycles: u64,
    /// Simulated cycles per wall-clock second.
    pub cycles_per_sec: f64,
}

/// A full `BENCH_<label>.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Report label (`baseline` for the committed reference).
    pub label: String,
    /// Problem scale the groups ran at (`tiny` for tracked reports).
    pub scale: String,
    /// Harness worker threads used.
    pub jobs: usize,
    /// Per-group measurements, in a fixed group order.
    pub groups: Vec<GroupResult>,
}

/// Wall-time slowdown (current / baseline) above which a warning fires.
pub const WALL_WARN_RATIO: f64 = 1.25;
/// Groups faster than this are pure noise; no wall-time warning below it.
pub const WALL_WARN_FLOOR_MS: f64 = 50.0;

impl BenchReport {
    /// The canonical file name for this report.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.label)
    }

    /// Render as JSON, one group per line. Wall time keeps microsecond
    /// and throughput tenth-of-a-cycle resolution.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"label\": {},", json_string(&self.label));
        let _ = writeln!(s, "  \"scale\": {},", json_string(&self.scale));
        let _ = writeln!(s, "  \"jobs\": {},", self.jobs);
        s.push_str("  \"groups\": [\n");
        for (i, g) in self.groups.iter().enumerate() {
            let group = Json::Obj(vec![
                ("name".to_string(), Json::Str(g.name.clone())),
                ("wall_ms".to_string(), Json::Num((g.wall_ms * 1e3).round() / 1e3)),
                ("cycles".to_string(), Json::UInt(g.cycles)),
                ("cycles_per_sec".to_string(), Json::Num((g.cycles_per_sec * 10.0).round() / 10.0)),
            ]);
            let _ = write!(s, "    {}", group.render());
            s.push_str(if i + 1 < self.groups.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parse a report previously written by [`BenchReport::to_json`] (or
    /// any JSON document with the same shape).
    ///
    /// # Errors
    ///
    /// Returns a message describing the first syntax or schema problem.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let v = Json::parse(text)?;
        let mut groups = Vec::new();
        for g in v.get("groups")?.as_array("groups")? {
            groups.push(GroupResult {
                name: g.get("name")?.as_str("name")?.to_string(),
                wall_ms: number(g.get("wall_ms")?, "wall_ms")?,
                cycles: g.get("cycles")?.as_u64("cycles")?,
                cycles_per_sec: number(g.get("cycles_per_sec")?, "cycles_per_sec")?,
            });
        }
        Ok(BenchReport {
            label: v.get("label")?.as_str("label")?.to_string(),
            scale: v.get("scale")?.as_str("scale")?.to_string(),
            jobs: v.get("jobs")?.as_u64("jobs")? as usize,
            groups,
        })
    }

    /// Compare this (current) report against a committed baseline.
    ///
    /// Returns `(failures, warnings)`: failures are scale mismatches,
    /// missing/extra groups, and *any* difference in simulated cycles;
    /// warnings are wall-time regressions beyond [`WALL_WARN_RATIO`] on
    /// groups slower than [`WALL_WARN_FLOOR_MS`].
    pub fn check_against(&self, baseline: &BenchReport) -> (Vec<String>, Vec<String>) {
        self.check_with(baseline, WALL_WARN_RATIO, false)
    }

    /// [`BenchReport::check_against`] with wall time as a *gate*: any group
    /// slower than [`WALL_WARN_FLOOR_MS`] whose wall-time ratio exceeds
    /// `tolerance` is a failure, not a warning. For CI jobs that must catch
    /// hot-path performance regressions, at the cost of sensitivity to
    /// runner load (pick `tolerance` with headroom; 1.25 is the default
    /// warning threshold).
    pub fn check_wall(&self, baseline: &BenchReport, tolerance: f64) -> (Vec<String>, Vec<String>) {
        self.check_with(baseline, tolerance, true)
    }

    fn check_with(
        &self,
        baseline: &BenchReport,
        wall_ratio: f64,
        wall_fails: bool,
    ) -> (Vec<String>, Vec<String>) {
        let mut failures = Vec::new();
        let mut warnings = Vec::new();
        if self.scale != baseline.scale {
            failures.push(format!(
                "scale mismatch: current `{}` vs baseline `{}`",
                self.scale, baseline.scale
            ));
        }
        for b in &baseline.groups {
            match self.groups.iter().find(|g| g.name == b.name) {
                None => failures.push(format!("group `{}` missing from current run", b.name)),
                Some(g) => {
                    if g.cycles != b.cycles {
                        failures.push(format!(
                            "group `{}`: simulated cycles changed {} -> {} \
                             (simulation is deterministic; investigate before re-baselining)",
                            b.name, b.cycles, g.cycles
                        ));
                    }
                    let ratio = g.wall_ms / b.wall_ms.max(1e-9);
                    if g.wall_ms > WALL_WARN_FLOOR_MS && ratio > wall_ratio {
                        let msg = format!(
                            "group `{}`: wall time {:.1}ms vs baseline {:.1}ms ({ratio:.1}x, \
                             tolerance {wall_ratio:.2}x)",
                            b.name, g.wall_ms, b.wall_ms
                        );
                        if wall_fails {
                            failures.push(msg);
                        } else {
                            warnings.push(msg);
                        }
                    }
                }
            }
        }
        for g in &self.groups {
            if !baseline.groups.iter().any(|b| b.name == g.name) {
                failures.push(format!(
                    "group `{}` absent from baseline (re-baseline to track it)",
                    g.name
                ));
            }
        }
        (failures, warnings)
    }

    /// Per-group wall-time deltas against a baseline, one line per group
    /// present in both reports. Always produced (speedups included), so
    /// CI output shows what the run cost even when nothing regressed;
    /// regressions beyond [`WALL_WARN_RATIO`] additionally warn via
    /// [`BenchReport::check_against`].
    pub fn wall_deltas(&self, baseline: &BenchReport) -> Vec<String> {
        let mut out = Vec::new();
        for b in &baseline.groups {
            let Some(g) = self.groups.iter().find(|g| g.name == b.name) else {
                continue;
            };
            let ratio = g.wall_ms / b.wall_ms.max(1e-9);
            out.push(format!(
                "group `{}`: wall {:.1}ms vs baseline {:.1}ms ({:+.1}%), \
                 {:.0} vs {:.0} cycles/sec",
                b.name,
                g.wall_ms,
                b.wall_ms,
                (ratio - 1.0) * 100.0,
                g.cycles_per_sec,
                b.cycles_per_sec,
            ));
        }
        out
    }
}

/// Any JSON number as `f64` (integers included: `60` is a valid wall time).
fn number(v: &Json, what: &str) -> Result<f64, String> {
    match v {
        Json::Num(n) => Ok(*n),
        Json::UInt(n) => Ok(*n as f64),
        Json::Int(n) => Ok(*n as f64),
        _ => Err(format!("{what}: expected number")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            label: "baseline".into(),
            scale: "tiny".into(),
            jobs: 2,
            groups: vec![
                GroupResult {
                    name: "fig9".into(),
                    wall_ms: 123.456,
                    cycles: 1_000_000,
                    cycles_per_sec: 8_100_000.0,
                },
                GroupResult {
                    name: "table1".into(),
                    wall_ms: 60.0,
                    cycles: 42,
                    cycles_per_sec: 700.0,
                },
            ],
        }
    }

    #[test]
    fn json_roundtrip() {
        let r = sample();
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn check_flags_cycle_drift_and_missing_groups() {
        let base = sample();
        let mut cur = sample();
        cur.groups[0].cycles += 1;
        cur.groups.remove(1);
        let (failures, warnings) = cur.check_against(&base);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains("cycles changed"));
        assert!(failures[1].contains("missing"));
        assert!(warnings.is_empty());
    }

    #[test]
    fn check_warns_on_large_wall_regression_only() {
        let base = sample();
        let mut cur = sample();
        cur.groups[0].wall_ms *= 10.0; // above floor: warns
        cur.groups[1].wall_ms = 40.0; // below floor even after blowup: silent
        let (failures, warnings) = cur.check_against(&base);
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(warnings.len(), 1, "{warnings:?}");
    }

    #[test]
    fn check_wall_promotes_regressions_to_failures() {
        let base = sample();
        let mut cur = sample();
        cur.groups[0].wall_ms *= 2.0;
        let (failures, warnings) = cur.check_wall(&base, 1.5);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("tolerance 1.50x"));
        assert!(warnings.is_empty());
        let (failures, warnings) = cur.check_wall(&base, 3.0);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(warnings.is_empty(), "within tolerance is silent: {warnings:?}");
    }

    /// The committed reference parses, so `bench_report --check` keeps
    /// working against a file written before the format moved here.
    #[test]
    fn committed_report_parses() {
        let r = BenchReport::from_json(include_str!("../../../BENCH_hotpath.json")).unwrap();
        assert_eq!((r.label.as_str(), r.scale.as_str(), r.groups.len()), ("hotpath", "tiny", 5));
        assert_eq!(BenchReport::from_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(BenchReport::from_json("{").is_err());
        assert!(BenchReport::from_json("{}").is_err());
        assert!(BenchReport::from_json("[1,2]").is_err());
    }
}
