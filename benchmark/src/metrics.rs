//! The benchmark's vocabulary: every workload and metric name, with unit
//! and direction. `BENCHMARK.json` at the repository root repeats this
//! table for the driver; `tests/contract.rs` holds the two together.

use simt_serve::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

pub const WORKLOADS: [&str; 4] = ["dense_sync", "dense_alu", "sparse_latency", "serve_mix"];

/// What a user of the stack sees. Every workload reports every one of
/// these (a *job* is one simulation cell, or one HTTP request), none
/// is ever 0, and each has a regression bound in `BENCHMARK.json`.
/// Measured with tracing and `GpuConfig::profile` off.
pub const END_TO_END: &[MetricDef] = &[
    m("wall_s", "s", Lower),
    m("setup_s", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("sim_mcycles_per_s", "Mcycle/s", Higher),
    m("sim_minstr_per_s", "Minstr/s", Higher),
    m("jobs_per_s", "1/s", Higher),
    m("job_p50_ms", "ms", Lower),
    m("job_tail_ms", "ms", Lower),
    m("bows_speedup_gmean", "ratio", Higher),
];

/// End-to-end metrics in simulated time: two runs of one tree must read
/// exactly the same.
pub const SIMULATED_TIME: [&str; 1] = ["bows_speedup_gmean"];

/// Single layers, from the traced run; the prefix is the crate. A layer a
/// workload never enters reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    m("isa.assemble_us", "us", Lower),
    m("isa.decode_us", "us", Lower),
    m("analyze.lint_us", "us", Lower),
    m("workloads.prepare_s", "s", Lower),
    m("workloads.verify_s", "s", Lower),
    m("core.run_s", "s", Lower),
    m("core.gpu_new_s", "s", Lower),
    m("core.ns_per_cycle", "ns", Lower),
    m("core.ns_per_winst", "ns", Lower),
    m("core.fetch_share", "ratio", Lower),
    m("core.issue_share", "ratio", Lower),
    m("core.execute_share", "ratio", Lower),
    m("core.mem_cycle_share", "ratio", Lower),
    m("core.merge_share", "ratio", Lower),
    m("core.skip_horizon_share", "ratio", Lower),
    m("core.other_share", "ratio", Lower),
    m("core.sim_cycles", "count", Lower),
    m("core.sim_winst", "count", Lower),
    m("core.stats_fingerprint", "count", Lower),
    m("core.ipc", "ratio", Higher),
    m("core.stall_data_share", "ratio", Lower),
    m("core.stall_arbitration_share", "ratio", Lower),
    m("core.skip_speedup", "ratio", Higher),
    m("core.smthreads2_speedup", "ratio", Higher),
    m("mem.ns_per_transaction", "ns", Lower),
    m("mem.l1_hit_rate", "ratio", Higher),
    m("mem.l2_hit_rate", "ratio", Higher),
    m("mem.atomic_tx", "count", Lower),
    m("mem.dram_reads", "count", Lower),
    m("mem.lock_fail_ratio", "ratio", Lower),
    m("bows.backed_off_fraction", "ratio", Higher),
    m("bows.stall_backoff_share", "ratio", Higher),
    m("bows.sib_inst", "count", Lower),
    m("bows.confirmed_sibs", "count", Higher),
    m("bows.host_overhead_ratio", "ratio", Lower),
    m("bows.ddos_false_detections", "count", Lower),
    m("bows.syncfree_slowdown", "ratio", Lower),
    m("bows.paper_fig9_error", "ratio", Lower),
    m("snap.save_ms", "ms", Lower),
    m("snap.bytes", "count", Lower),
    m("snap.restore_ms", "ms", Lower),
    m("snap.overhead_pct", "%", Lower),
    m("grid.jobs2_speedup", "ratio", Higher),
    m("serve.parse_us", "us", Lower),
    m("serve.key_us", "us", Lower),
    m("serve.run_request_ms", "ms", Lower),
    m("serve.store_append_us", "us", Lower),
    m("serve.store_open_ms", "ms", Lower),
    m("serve.service_reopen_ms", "ms", Lower),
    m("serve.submit_cold_ms", "ms", Lower),
    m("serve.submit_warm_us", "us", Lower),
    m("serve.queue_overhead_ms", "ms", Lower),
    m("serve.http_overhead_ms", "ms", Lower),
    m("serve.cold_req_per_s", "1/s", Higher),
    m("serve.cold_mean_ms", "ms", Lower),
    m("serve.cold_p50_ms", "ms", Lower),
    m("serve.cold_p90_ms", "ms", Lower),
    m("serve.cold_p99_ms", "ms", Lower),
    m("serve.warm_p50_ms", "ms", Lower),
    m("serve.warm_p90_ms", "ms", Lower),
    m("serve.warm_p99_ms", "ms", Lower),
    m("serve.warm_req_per_s", "1/s", Higher),
    m("serve.cache_hit_ratio", "ratio", Higher),
    m("serve.sheds", "count", Lower),
    m("serve.retries", "count", Lower),
    m("trace.overhead_pct", "%", Lower),
    m("trace.gap_pct", "%", Lower),
    m("trace.spans", "count", Lower),
    m("harness.tail_quantile", "ratio", Higher),
    m("harness.failed_ratio", "ratio", Lower),
];

/// The values one run measured, by metric name.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "metric `{name}` set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// A finished run: what the last stdout line reports.
#[derive(Debug)]
pub struct Outcome {
    /// Timed passes the metrics are taken over.
    pub passes: usize,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// Pair every metric of `defs` with its measured value.
    ///
    /// # Errors
    ///
    /// A name the run set that `defs` lacks, a non-finite value, or — when
    /// `require_all` — a metric the run did not set. Otherwise an unset
    /// metric reads 0 (a layer the workload never entered).
    pub fn rows(
        &self,
        defs: &'static [MetricDef],
        require_all: bool,
    ) -> Result<Vec<(&'static MetricDef, f64)>, String> {
        for (name, v) in &self.metrics.0 {
            if !defs.iter().any(|d| d.name == *name) {
                return Err(format!("metric `{name}` is not in the table for this mode"));
            }
            if !v.is_finite() {
                return Err(format!("metric `{name}` is not finite"));
            }
        }
        defs.iter()
            .map(|d| match self.metrics.get(d.name) {
                Some(v) => Ok((d, v)),
                None if require_all => Err(format!("metric `{}` was not measured", d.name)),
                None => Ok((d, 0.0)),
            })
            .collect()
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self, rows: &[(&'static MetricDef, f64)]) -> Json {
        let metrics = rows
            .iter()
            .map(|(d, v)| {
                (
                    d.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(*v)),
                        ("unit".into(), Json::Str(d.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::UInt(self.attempted)),
            ("failed".into(), Json::UInt(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name))
        {
            assert!(name_ok(name), "bad name `{name}`");
            assert!(seen.insert(name), "name `{name}` used twice");
        }
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit `{}`",
                d.unit
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn result_line_roundtrips_through_the_service_parser() {
        let mut metrics = Metrics::default();
        for (i, d) in END_TO_END.iter().enumerate() {
            metrics.set(d.name, 1.25 + i as f64 / 7.0);
        }
        let out = Outcome {
            passes: 2,
            correct: true,
            attempted: 32,
            failed: 0,
            metrics,
        };
        let rows = out.rows(END_TO_END, true).unwrap();
        let line = out.result_json(&rows).render();
        assert!(!line.contains('\n'));
        let j = Json::parse(&line).unwrap();
        let Json::Obj(top) = &j else { panic!("object") };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("attempted").unwrap().as_u64("a").unwrap(), 32);
        let Json::Obj(ms) = j.get("metrics").unwrap() else {
            panic!("metrics")
        };
        assert_eq!(ms.len(), END_TO_END.len());
        let (name, v) = &ms[0];
        assert_eq!(name, "wall_s");
        assert_eq!(v.get("value").unwrap(), &Json::Num(1.25));
        assert_eq!(v.get("unit").unwrap().as_str("u").unwrap(), "s");
        // Re-rendering the parsed document gives the same bytes.
        assert_eq!(j.render(), line);
    }

    #[test]
    fn rows_reject_strays_and_gaps() {
        let mut metrics = Metrics::default();
        metrics.set("wall_s", 1.0);
        let out = Outcome {
            passes: 2,
            correct: true,
            attempted: 1,
            failed: 0,
            metrics,
        };
        assert!(
            out.rows(END_TO_END, true).is_err(),
            "unset end-to-end metric"
        );
        assert!(out.rows(PER_LAYER, false).is_err(), "stray name");
        let mut metrics = Metrics::default();
        metrics.set("core.run_s", f64::NAN);
        let out = Outcome {
            passes: 2,
            correct: true,
            attempted: 1,
            failed: 0,
            metrics,
        };
        assert!(out.rows(PER_LAYER, false).is_err(), "non-finite value");
    }
}
