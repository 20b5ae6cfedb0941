//! `loadgen` — closed-loop load generator and SLO harness for `bows-serve`.
//!
//! Drives a seeded, deterministic request mix (vector kernels, spin-lock
//! kernels, guaranteed-hang kernels, assembler errors, malformed JSON)
//! through the HTTP front end in three phases — warmup, a burst sized to
//! exceed the shedding threshold, cooldown — and then asserts SLOs:
//!
//! * **zero wrong results**: every 200 body is byte-identical to the body
//!   [`simt_serve::run_request`] computes locally for the same request;
//! * **zero unstructured failures**: every non-200 body parses as JSON
//!   with an `error.kind`, and every shed carries `Retry-After`;
//! * **bounded error rate**: terminal 500/504 responses (supervision
//!   budget exhausted under chaos) stay under a ceiling;
//! * **fast sheds**: p99 latency of 429/503 responses stays under a bound
//!   — load shedding that queues first is not load shedding.
//!
//! `--self-host` boots a [`Service`] + [`HttpServer`] in-process (the CI
//! smoke path); `--addr` targets a running `bows-serve`. `--chaos` arms
//! worker panics, worker slowness (past the attempt deadline, forcing
//! reaps), and cache corruption. Exit status is non-zero on any SLO
//! violation, so this binary *is* the acceptance test.

use simt_serve::chaos::splitmix64;
use simt_serve::http::client::{self, HttpResponse};
use simt_serve::json::{json_string, Json};
use simt_serve::{
    install_quiet_panic_hook, run_request, AdmissionConfig, HttpServer, PoolConfig, RunOutcome,
    ServeConfig, Service, ServiceChaos, SimRequest,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

const VEC_KERNEL: &str = "\
.kernel inc
.regs 8
.params 1
    ld.param r1, [0]
    mov r2, %gtid
    shl r2, r2, 2
    add r1, r1, r2
    ld.global r3, [r1]
    add r3, r3, 1
    st.global [r1], r3
    exit
";

const LOCK_KERNEL: &str = "\
.kernel spinlock_counter
.regs 10
.params 2
    ld.param r1, [0]
    ld.param r2, [4]
    mov r9, 0
SPIN:
    atom.global.cas r3, [r1], 0, 1 !acquire !sync
    setp.eq.s32 p1, r3, 0
@!p1 bra TEST
    ld.global.volatile r4, [r2]
    add r4, r4, 1
    st.global [r2], r4
    membar
    atom.global.exch r5, [r1], 0 !release !sync
    mov r9, 1
TEST:
    setp.eq.s32 p2, r9, 0 !sync
@p2 bra SPIN !sib !sync
    exit
";

/// Spins until `[param0] == 1`; the buffer holds 0, so it never exits. The
/// watchdog (or the cycle budget) turns this into a deterministic
/// structured 422 — never a hung worker.
const HANG_KERNEL: &str = "\
.kernel waits_forever
.regs 6
.params 1
    ld.param r1, [0]
SPIN:
    ld.global.volatile r2, [r1]
    setp.eq.s32 p1, r2, 1 !sync
@!p1 bra SPIN !sib !sync
    exit
";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// A 200 whose body the local oracle predicts.
    Ok,
    /// A deterministic 422 whose body the local oracle predicts.
    SimErr,
    /// A 400 (malformed JSON / failed validation).
    BadRequest,
}

struct Item {
    body: String,
    expect: Expect,
    /// Cache key, for `Expect::Ok` / `Expect::SimErr` items.
    key: Option<u64>,
}

fn vec_item(fill: u32, ctas: usize, engine: &str, bows: &str, tenant: &str, prio: u64) -> String {
    format!(
        "{{\"kernel\":{},\"ctas\":{ctas},\"tpc\":32,\"params\":[{{\"buf\":128,\"fill\":{fill}}}],\
         \"engine\":\"{engine}\",{bows}\"dumps\":[[0,8]],\"tenant\":\"{tenant}\",\"priority\":{prio}}}",
        json_string(VEC_KERNEL)
    )
}

fn build_mix(seed: u64, n: usize) -> Vec<Item> {
    let tenants = ["acme", "blue", "cern"];
    let engines = ["cycle", "skip"];
    let bows = ["", "\"bows\":\"adaptive\",", "\"bows\":24,"];
    (0..n as u64)
        .map(|i| {
            let r = splitmix64(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let tenant = tenants[(r >> 32) as usize % tenants.len()];
            let prio = (r >> 40) % 3;
            let (body, expect) = match r % 100 {
                0..=54 => (
                    // Few distinct variants, so the burst hits the cache.
                    vec_item(
                        1 + (r >> 8) as u32 % 4,
                        1 + (r >> 12) as usize % 2,
                        engines[(r >> 16) as usize % 2],
                        bows[(r >> 20) as usize % 3],
                        tenant,
                        prio,
                    ),
                    Expect::Ok,
                ),
                55..=69 => (
                    format!(
                        "{{\"kernel\":{},\"ctas\":2,\"tpc\":32,\
                         \"params\":[{{\"buf\":1}},{{\"buf\":1}}],\"bows\":\"adaptive\",\
                         \"dumps\":[[1,1]],\"tenant\":\"{tenant}\",\"priority\":{prio}}}",
                        json_string(LOCK_KERNEL)
                    ),
                    Expect::Ok,
                ),
                70..=79 => (
                    format!(
                        "{{\"kernel\":{},\"tpc\":32,\"params\":[{{\"buf\":1}}],\
                         \"timeout_cycles\":120000,\"tenant\":\"{tenant}\",\"priority\":{prio}}}",
                        json_string(HANG_KERNEL)
                    ),
                    Expect::SimErr,
                ),
                80..=89 => (
                    format!(
                        "{{\"kernel\":\"this is not assembly\",\
                         \"tenant\":\"{tenant}\",\"priority\":{prio}}}"
                    ),
                    Expect::SimErr,
                ),
                _ => ("{\"kernel\": 42,".to_string(), Expect::BadRequest),
            };
            let key = (expect != Expect::BadRequest)
                .then(|| SimRequest::from_json(&body).expect("generated body must parse"))
                .map(|r| r.cache_key());
            Item { body, expect, key }
        })
        .collect()
}

/// Compute the expected body for every unique cache key in the mix, by
/// running the same execution function the service workers run — locally,
/// chaos-free. This is the wrong-result oracle.
fn build_oracle(items: &[Item]) -> HashMap<u64, (Expect, String)> {
    let mut oracle = HashMap::new();
    for item in items {
        let Some(key) = item.key else { continue };
        if oracle.contains_key(&key) {
            continue;
        }
        let req = SimRequest::from_json(&item.body).expect("oracle body must parse");
        let expected = match run_request(&req, None) {
            RunOutcome::Ok(body) => (Expect::Ok, body),
            RunOutcome::SimError(body) => (Expect::SimErr, body),
            RunOutcome::Cancelled => unreachable!("oracle runs carry no cancel token"),
        };
        assert_eq!(expected.0, item.expect, "mix template mis-labeled");
        oracle.insert(key, expected);
    }
    oracle
}

#[derive(Default)]
struct Tally {
    ok: u64,
    ok_hits: u64,
    sim_errors: u64,
    bad_requests: u64,
    sheds: u64,
    terminals: u64,
    wrong_results: Vec<String>,
    unstructured: Vec<String>,
    transport_failures: Vec<String>,
    ok_ms: Vec<u64>,
    shed_ms: Vec<u64>,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.ok += other.ok;
        self.ok_hits += other.ok_hits;
        self.sim_errors += other.sim_errors;
        self.bad_requests += other.bad_requests;
        self.sheds += other.sheds;
        self.terminals += other.terminals;
        self.wrong_results.extend(other.wrong_results);
        self.unstructured.extend(other.unstructured);
        self.transport_failures.extend(other.transport_failures);
        self.ok_ms.extend(other.ok_ms);
        self.shed_ms.extend(other.shed_ms);
    }
}

fn has_error_kind(body: &str) -> bool {
    Json::parse(body)
        .ok()
        .and_then(|j| j.get("error").ok().cloned())
        .and_then(|e| e.get("kind").ok().cloned())
        .is_some()
}

fn record(
    tally: &mut Tally,
    item: &Item,
    resp: &HttpResponse,
    ms: u64,
    oracle: &HashMap<u64, (Expect, String)>,
) {
    match resp.status {
        200 => {
            tally.ok += 1;
            tally.ok_ms.push(ms);
            if resp.x_cache.as_deref() == Some("HIT") {
                tally.ok_hits += 1;
            }
            match item.key.and_then(|k| oracle.get(&k)) {
                Some((Expect::Ok, expected)) if *expected == resp.body => {}
                _ => tally.wrong_results.push(format!(
                    "200 body mismatch (or unexpected 200) for {}...",
                    &item.body[..item.body.len().min(60)]
                )),
            }
        }
        422 => {
            tally.sim_errors += 1;
            tally.ok_ms.push(ms);
            match item.key.and_then(|k| oracle.get(&k)) {
                Some((Expect::SimErr, expected)) if *expected == resp.body => {}
                _ => tally.wrong_results.push(format!(
                    "422 body mismatch (or unexpected 422) for {}...",
                    &item.body[..item.body.len().min(60)]
                )),
            }
        }
        400 => {
            tally.bad_requests += 1;
            if item.expect != Expect::BadRequest {
                tally
                    .wrong_results
                    .push(format!("unexpected 400: {}", resp.body));
            }
        }
        429 | 503 => {
            tally.sheds += 1;
            tally.shed_ms.push(ms);
            if resp.retry_after.is_none() {
                tally
                    .unstructured
                    .push(format!("{} shed without Retry-After", resp.status));
            }
            if !has_error_kind(&resp.body) {
                tally
                    .unstructured
                    .push(format!("{} shed body not structured: {}", resp.status, resp.body));
            }
        }
        500 | 504 => {
            tally.terminals += 1;
            if !has_error_kind(&resp.body) {
                tally.unstructured.push(format!(
                    "{} terminal body not structured: {}",
                    resp.status, resp.body
                ));
            }
        }
        s => tally
            .unstructured
            .push(format!("unexpected status {s}: {}", resp.body)),
    }
}

fn p99(ms: &mut [u64]) -> u64 {
    if ms.is_empty() {
        return 0;
    }
    ms.sort_unstable();
    ms[(ms.len() - 1) * 99 / 100]
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen (--self-host | --addr HOST:PORT) [--seed N] [--requests N]\n\
         \x20    [--threads N] [--chaos] [--workers N]\n\
         \x20    [--slo-shed-p99-ms N] [--slo-ok-p99-ms N] [--slo-error-pct N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut self_host = false;
    let mut addr_arg: Option<String> = None;
    let mut seed = 42u64;
    let mut requests = 120usize;
    let mut threads = 12usize;
    let mut chaos_on = false;
    let mut workers = 2usize;
    let mut slo_shed_p99_ms = 1_000u64;
    let mut slo_ok_p99_ms = 20_000u64;
    let mut slo_error_pct = 2.0f64;
    let mut args = std::env::args().skip(1);
    let next = |args: &mut dyn Iterator<Item = String>| args.next().unwrap_or_else(|| usage());
    while let Some(a) = args.next() {
        match a.as_str() {
            "--self-host" => self_host = true,
            "--addr" => addr_arg = Some(next(&mut args)),
            "--seed" => seed = next(&mut args).parse().unwrap_or_else(|_| usage()),
            "--requests" => requests = next(&mut args).parse().unwrap_or_else(|_| usage()),
            "--threads" => threads = next(&mut args).parse().unwrap_or_else(|_| usage()),
            "--chaos" => chaos_on = true,
            "--workers" => workers = next(&mut args).parse().unwrap_or_else(|_| usage()),
            "--slo-shed-p99-ms" => {
                slo_shed_p99_ms = next(&mut args).parse().unwrap_or_else(|_| usage());
            }
            "--slo-ok-p99-ms" => {
                slo_ok_p99_ms = next(&mut args).parse().unwrap_or_else(|_| usage());
            }
            "--slo-error-pct" => {
                slo_error_pct = next(&mut args).parse().unwrap_or_else(|_| usage());
            }
            _ => usage(),
        }
    }
    if self_host == addr_arg.is_some() {
        usage();
    }

    // Self-hosted service: deliberately small, so the default burst is
    // comfortably above the shedding threshold.
    let hosted = if self_host {
        let chaos = if chaos_on {
            install_quiet_panic_hook();
            ServiceChaos {
                seed,
                worker_panic_ppm: 150_000,
                worker_slow_ppm: 30_000,
                slow_ms: 1_500, // past deadline + grace: forces reaps
                cache_corrupt_ppm: 100_000,
                store_torn_ppm: 0,
                store_short_ppm: 0,
                store_flip_ppm: 0,
            }
        } else {
            ServiceChaos::off()
        };
        let cfg = ServeConfig {
            workers,
            admission: AdmissionConfig {
                queue_cap: 6,
                tenant_quota: 2,
                ..AdmissionConfig::default()
            },
            pool: PoolConfig {
                max_retries: 3,
                backoff_base_ms: 5,
                backoff_cap_ms: 50,
                attempt_deadline_ms: 1_000,
                reap_grace_ms: 200,
                checkpoint_every_cycles: 0,
            },
            cache_entries: 64,
            chaos,
            state_dir: None,
        };
        let service = Arc::new(Service::start(cfg));
        let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&service)).expect("bind");
        Some((service, server))
    } else {
        None
    };
    let addr = hosted
        .as_ref()
        .map_or_else(|| addr_arg.clone().unwrap(), |(_, s)| s.addr().to_string());

    eprintln!("loadgen: target {addr}, seed {seed}, {requests} requests x {threads} threads, chaos {chaos_on}");
    let items = Arc::new(build_mix(seed, requests));
    eprintln!("loadgen: computing expected bodies locally (oracle)...");
    let oracle = Arc::new(build_oracle(&items));
    eprintln!("loadgen: oracle holds {} unique results", oracle.len());

    let mut tally = Tally::default();

    // Warmup: one sequential pass over each unique key, so the burst sees
    // a warm cache. Low concurrency means these should not shed.
    {
        let mut seen = std::collections::HashSet::new();
        for item in items.iter() {
            let Some(key) = item.key else { continue };
            if !seen.insert(key) {
                continue;
            }
            let t0 = Instant::now();
            match client::post(&addr, "/simulate", &item.body) {
                Ok(resp) => record(
                    &mut tally,
                    item,
                    &resp,
                    t0.elapsed().as_millis() as u64,
                    &oracle,
                ),
                Err(e) => tally.transport_failures.push(format!("warmup: {e}")),
            }
        }
    }
    let warm_ok = tally.ok;
    eprintln!("loadgen: warmup done ({warm_ok} ok)");

    // Burst: `threads` closed-loop clients race through the whole mix.
    let cursor = Arc::new(AtomicUsize::new(0));
    let (tx, rx) = mpsc::channel::<Tally>();
    let burst_handles: Vec<_> = (0..threads)
        .map(|_| {
            let items = Arc::clone(&items);
            let oracle = Arc::clone(&oracle);
            let cursor = Arc::clone(&cursor);
            let addr = addr.clone();
            let tx = tx.clone();
            std::thread::spawn(move || {
                let mut local = Tally::default();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let item = &items[i];
                    let t0 = Instant::now();
                    match client::post(&addr, "/simulate", &item.body) {
                        Ok(resp) => record(
                            &mut local,
                            item,
                            &resp,
                            t0.elapsed().as_millis() as u64,
                            &oracle,
                        ),
                        Err(e) => local.transport_failures.push(format!("burst: {e}")),
                    }
                }
                let _ = tx.send(local);
            })
        })
        .collect();
    drop(tx);
    while let Ok(local) = rx.recv() {
        tally.absorb(local);
    }
    for h in burst_handles {
        let _ = h.join();
    }
    eprintln!(
        "loadgen: burst done (ok {}, sim_err {}, shed {}, terminal {})",
        tally.ok, tally.sim_errors, tally.sheds, tally.terminals
    );

    // Cooldown: the service must serve cleanly again once load drops.
    let mut cooldown_failures = 0u64;
    for item in items.iter().filter(|i| i.expect == Expect::Ok).take(5) {
        let t0 = Instant::now();
        match client::post(&addr, "/simulate", &item.body) {
            Ok(resp) => {
                if resp.status != 200 {
                    cooldown_failures += 1;
                }
                record(
                    &mut tally,
                    item,
                    &resp,
                    t0.elapsed().as_millis() as u64,
                    &oracle,
                );
            }
            Err(e) => tally.transport_failures.push(format!("cooldown: {e}")),
        }
    }

    // Self-host epilogue: exercise graceful drain end-to-end.
    let mut drain_failures: Vec<String> = Vec::new();
    if let Some((service, server)) = hosted {
        match client::post(&addr, "/admin/drain", "") {
            Ok(r) if r.status == 200 => {}
            Ok(r) => drain_failures.push(format!("drain returned {}", r.status)),
            Err(e) => drain_failures.push(format!("drain: {e}")),
        }
        match client::get(&addr, "/healthz") {
            Ok(r) if r.status == 503 => {}
            Ok(r) => drain_failures.push(format!("healthz while draining returned {}", r.status)),
            Err(e) => drain_failures.push(format!("healthz: {e}")),
        }
        if let Some(item) = items.iter().find(|i| i.expect == Expect::Ok) {
            match client::post(&addr, "/simulate", &item.body) {
                // A cached result may still serve during drain; new work
                // must be refused.
                Ok(r) if r.status == 503 || (r.status == 200 && r.x_cache.as_deref() == Some("HIT")) => {}
                Ok(r) => drain_failures.push(format!("simulate while draining returned {}", r.status)),
                Err(e) => drain_failures.push(format!("simulate while draining: {e}")),
            }
        }
        if let Ok(stats) = client::get(&addr, "/stats") {
            eprintln!("loadgen: final service stats: {}", stats.body);
            if chaos_on {
                // A chaos drill that injected nothing proves nothing:
                // require at least one fault to have actually fired.
                let injected = Json::parse(&stats.body).ok().is_some_and(|j| {
                    ["worker_panics_caught", "worker_timeouts", "workers_reaped",
                     "cache_corruptions_detected"]
                    .iter()
                    .filter_map(|k| j.get(k).ok().and_then(|v| v.as_u64(k).ok()))
                    .sum::<u64>()
                        > 0
                });
                if !injected {
                    drain_failures.push("chaos drill injected no faults".into());
                }
            }
        }
        server.stop();
        drop(service);
    }

    // SLO evaluation.
    let total = (tally.ok
        + tally.sim_errors
        + tally.bad_requests
        + tally.sheds
        + tally.terminals) as f64;
    let error_pct = if total > 0.0 {
        100.0 * tally.terminals as f64 / total
    } else {
        0.0
    };
    let ok_p99 = p99(&mut tally.ok_ms);
    let shed_p99 = p99(&mut tally.shed_ms);
    let mut violations: Vec<String> = Vec::new();
    if !tally.wrong_results.is_empty() {
        violations.push(format!(
            "{} wrong-result responses, e.g.: {}",
            tally.wrong_results.len(),
            tally.wrong_results[0]
        ));
    }
    if !tally.unstructured.is_empty() {
        violations.push(format!(
            "{} unstructured failures, e.g.: {}",
            tally.unstructured.len(),
            tally.unstructured[0]
        ));
    }
    if !tally.transport_failures.is_empty() {
        violations.push(format!(
            "{} transport failures, e.g.: {}",
            tally.transport_failures.len(),
            tally.transport_failures[0]
        ));
    }
    if error_pct > slo_error_pct {
        violations.push(format!(
            "terminal error rate {error_pct:.2}% exceeds {slo_error_pct}%"
        ));
    }
    if shed_p99 > slo_shed_p99_ms {
        violations.push(format!("shed p99 {shed_p99}ms exceeds {slo_shed_p99_ms}ms"));
    }
    if ok_p99 > slo_ok_p99_ms {
        violations.push(format!("ok p99 {ok_p99}ms exceeds {slo_ok_p99_ms}ms"));
    }
    if self_host && threads >= 8 && tally.sheds == 0 {
        violations.push("burst above threshold produced zero sheds".into());
    }
    if tally.ok_hits == 0 && warm_ok > 0 {
        violations.push("no cache hit observed after warmup".into());
    }
    if cooldown_failures > 0 {
        violations.push(format!("{cooldown_failures} cooldown requests not 200"));
    }
    violations.extend(drain_failures);

    let report = Json::Obj(vec![
        ("seed".into(), Json::UInt(seed)),
        ("requests_sent".into(), Json::UInt(total as u64)),
        ("ok".into(), Json::UInt(tally.ok)),
        ("ok_cache_hits".into(), Json::UInt(tally.ok_hits)),
        ("sim_errors".into(), Json::UInt(tally.sim_errors)),
        ("bad_requests".into(), Json::UInt(tally.bad_requests)),
        ("sheds".into(), Json::UInt(tally.sheds)),
        ("terminal_errors".into(), Json::UInt(tally.terminals)),
        ("wrong_results".into(), Json::UInt(tally.wrong_results.len() as u64)),
        ("ok_p99_ms".into(), Json::UInt(ok_p99)),
        ("shed_p99_ms".into(), Json::UInt(shed_p99)),
        ("error_pct".into(), Json::Num(error_pct)),
        (
            "slo_violations".into(),
            Json::Arr(violations.iter().map(|v| Json::Str(v.clone())).collect()),
        ),
        ("pass".into(), Json::Bool(violations.is_empty())),
    ]);
    println!("{}", report.render());
    if violations.is_empty() {
        eprintln!("loadgen: all SLOs met");
    } else {
        eprintln!("loadgen: SLO VIOLATIONS:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
}
