//! Host facts stamped on every result, and the process's peak memory.

use crate::harness::Opts;
use simt_serve::json::Json;

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let kb: f64 = proc_field("/proc/self/status", "VmHWM")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Where and how a result was taken. `run.sh` supplies what a process
/// cannot see about itself (`BENCH_RUSTC`, `BENCH_GIT_COMMIT`).
pub fn fingerprint(opts: &Opts, passes: usize) -> Json {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    Json::Obj(vec![
        ("workload".into(), Json::Str(opts.workload.clone())),
        ("seed".into(), Json::UInt(opts.seed)),
        ("passes".into(), Json::UInt(passes as u64)),
        ("traced".into(), Json::Bool(opts.trace)),
        ("smoke".into(), Json::Bool(opts.smoke)),
        (
            "nproc".into(),
            Json::UInt(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        (
            "cpu".into(),
            Json::Str(
                proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("rustc".into(), Json::Str(env("BENCH_RUSTC"))),
        ("git_commit".into(), Json::Str(env("BENCH_GIT_COMMIT"))),
    ])
}
