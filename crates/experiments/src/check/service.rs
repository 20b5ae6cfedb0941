//! The service drills. `crash_drill` SIGKILLs a real `bows-serve` process
//! mid-load and checks that nothing committed is lost; `serve` and
//! `serve_chaos` boot the service in-process and hold a closed-loop burst
//! to its SLOs, the second with service faults injected. Every drill
//! judges each body it gets against [`run_request`] on the same request,
//! computed locally, and submits the drill kernels of [`super`].

use super::{Check, Verdict, HANG_KERNEL, LOCK_KERNEL, VEC_KERNEL};
use crate::grid;
use simt_serve::chaos::splitmix64;
use simt_serve::http::client::{self, HttpResponse};
use simt_serve::json::{json_string, Json};
use simt_serve::{
    install_quiet_panic_hook, run_request, AdmissionConfig, HttpServer, PoolConfig, RunOutcome,
    ServeConfig, Service, ServiceChaos, SimRequest,
};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Distinct requests the kill drill submits.
const DRILL_REQUESTS: usize = 12;

/// A `bows-serve` child. Dropping it SIGKILLs and reaps the process and
/// joins the thread draining its stderr, so a drill that panics leaves no
/// server behind.
struct Server {
    child: Child,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// The kill drill's state. Dropping it removes the state directory.
struct Drill {
    seed: u64,
    serve_bin: PathBuf,
    state_dir: PathBuf,
    /// (request JSON, oracle body) per distinct request.
    corpus: Vec<(String, String)>,
    violations: Vec<String>,
    kills: u32,
}

impl Drop for Drill {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

/// The kill drill's requests and their oracle bodies: vector increments,
/// and every 4th a contended spin lock under adaptive BOWS — long enough
/// to be mid-run when the SIGKILL lands.
fn drill_corpus() -> Vec<(String, String)> {
    let ids: Vec<usize> = (0..DRILL_REQUESTS).collect();
    grid::parallel_map(&ids, |_, &i| {
        let body = if i % 4 == 3 {
            format!(
                "{{\"kernel\":{},\"ctas\":2,\"tpc\":32,\"bows\":\"adaptive\",\
                 \"params\":[{{\"buf\":1,\"fill\":0}},{{\"buf\":{},\"fill\":0}}],\
                 \"dumps\":[[1,1]]}}",
                json_string(LOCK_KERNEL),
                1 + i / 4
            )
        } else {
            format!(
                "{{\"kernel\":{},\"tpc\":32,\"params\":[{{\"buf\":32,\"fill\":{}}}],\
                 \"dumps\":[[0,4]]}}",
                json_string(VEC_KERNEL),
                i + 1
            )
        };
        let req = SimRequest::from_json(&body).expect("drill request parses");
        match run_request(&req, None) {
            RunOutcome::Ok(oracle) => (body, oracle),
            other => panic!("oracle run failed for request {i}: {other:?}"),
        }
    })
}

fn wait_healthy(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if client::get(addr, "/healthz").map(|r| r.status) == Ok(200) {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("server at {addr} never became healthy");
}

/// `body`'s top-level `field`, if `body` is JSON and the field a number.
fn json_u64(body: &str, field: &str) -> Option<u64> {
    Json::parse(body).ok()?.get(field).ok()?.as_u64(field).ok()
}

impl Drill {
    fn check(&mut self, ok: bool, what: String) {
        if !ok {
            eprintln!("VIOLATION: {what}");
            self.violations.push(what);
        }
    }

    /// Starts `bows-serve` with the `chaos` flags on an OS-assigned port
    /// over the drill's state directory and waits until it is healthy. Its
    /// stderr keeps draining on a background thread, so the child never
    /// blocks on a full pipe.
    fn spawn(&self, chaos: &str) -> Server {
        let child = Command::new(&self.serve_bin)
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--state-dir"])
            .arg(&self.state_dir)
            .args(chaos.split_whitespace())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot spawn {}: {e}", self.serve_bin.display()));
        let mut server = Server {
            child,
            addr: String::new(),
            drain: None,
        };
        let stderr = server.child.stderr.take().expect("piped stderr");
        let mut lines = BufReader::new(stderr).lines();
        server.addr = lines
            .by_ref()
            .map_while(Result::ok)
            .find_map(|line| {
                let rest = line.strip_prefix("bows-serve listening on ")?;
                rest.split_whitespace().next().map(str::to_string)
            })
            .expect("server never reported its address");
        server.drain = Some(std::thread::spawn(move || lines.for_each(drop)));
        wait_healthy(&server.addr);
        server
    }

    /// Posts corpus request `i`; a transport error is a violation.
    fn post(&mut self, addr: &str, i: usize, what: String) -> Option<HttpResponse> {
        let resp = client::post(addr, "/simulate", &self.corpus[i].0);
        resp.map_err(|e| self.check(false, format!("{what}: {e}")))
            .ok()
    }

    /// `resp` is a 200 carrying request `i`'s oracle body.
    fn serves(&self, i: usize, resp: &HttpResponse) -> bool {
        resp.status == 200 && resp.body == self.corpus[i].1
    }

    /// One kill-restart round: submit the corpus in a seeded order,
    /// SIGKILL after a seeded number of responses (leaving one request
    /// deliberately in flight), restart, then verify nothing responded-to
    /// was lost and nothing served is wrong.
    fn round(&mut self, round: u64, chaos: &str) {
        let n = self.corpus.len();
        let mut order: Vec<usize> = (0..n).collect();
        // Seeded Fisher–Yates: the drill replays exactly per seed.
        for i in (1..n).rev() {
            let j = (splitmix64(self.seed ^ (round << 32) ^ i as u64) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let kill_after = 1 + (splitmix64(self.seed ^ round ^ 0xdead) % (n as u64 - 1)) as usize;

        let server = self.spawn(chaos);
        let mut responded: Vec<usize> = Vec::new();
        for &i in &order[..kill_after] {
            // Transport failure against a live server is a drill bug, not a
            // durability finding.
            let what = format!("round {round}: transport error pre-kill");
            let Some(resp) = self.post(&server.addr, i, what) else {
                continue;
            };
            let status = resp.status;
            self.check(
                status == 200,
                format!("round {round}: request {i} returned {status}"),
            );
            self.check(
                resp.body == self.corpus[i].1,
                format!("round {round}: WRONG BODY for request {i} pre-kill"),
            );
            responded.push(i);
        }
        // Leave one request in flight so the SIGKILL lands mid-simulation,
        // then kill without ceremony. The in-flight client must see a
        // transport error — never a wrong body.
        let (flight_body, flight_oracle) = self.corpus[order[kill_after % n]].clone();
        let addr = server.addr.clone();
        let flight = std::thread::spawn(move || {
            client::post(&addr, "/simulate", &flight_body)
                .map(|r| (r.status, r.body == flight_oracle))
        });
        let pause = splitmix64(self.seed ^ round ^ 0xbeef) % 20;
        std::thread::sleep(Duration::from_millis(pause));
        drop(server);
        self.kills += 1;
        if let Ok(Ok((status, body_matches))) = flight.join() {
            self.check(
                status != 200 || body_matches,
                format!("round {round}: WRONG BODY on the in-flight request"),
            );
        }

        // Restart on the same state dir: everything responded-to must be
        // a warm hit with the oracle's exact bytes. Under store chaos a
        // response may ride a faulted append, so only the no-chaos rounds
        // may demand the hit; correct bytes are demanded always.
        let server = self.spawn(chaos);
        let recovered = client::get(&server.addr, "/stats")
            .ok()
            .and_then(|r| json_u64(&r.body, "store_recovered_entries"))
            .unwrap_or(0);
        if chaos.is_empty() {
            self.check(
                recovered >= responded.len() as u64,
                format!(
                    "round {round}: only {recovered} entries recovered after kill, \
                     {} were committed (responses received)",
                    responded.len()
                ),
            );
        }
        for &i in &responded {
            let what = format!("round {round}: post-restart error");
            let Some(resp) = self.post(&server.addr, i, what) else {
                continue;
            };
            let right = self.serves(i, &resp);
            self.check(
                right,
                format!("round {round}: request {i} wrong after restart"),
            );
            if chaos.is_empty() {
                self.check(
                    resp.x_cache.as_deref() == Some("HIT"),
                    format!(
                        "round {round}: COMMITTED ENTRY LOST — request {i} \
                         re-simulated after restart (X-Cache {:?})",
                        resp.x_cache
                    ),
                );
            }
        }
        // The rest of the corpus must also serve correctly (cold or warm).
        for &i in &order {
            if let Some(resp) = self.post(&server.addr, i, format!("round {round}: sweep error")) {
                let right = self.serves(i, &resp);
                self.check(
                    right,
                    format!("round {round}: request {i} wrong on full sweep"),
                );
            }
        }
        drop(server);
        self.kills += 1;
    }
}

/// Kill-drill recovery for the durable service: SIGKILL a real
/// `bows-serve` mid-load at seeded points, restart it on the same state
/// directory, and hold two invariants over real HTTP. Zero wrong bodies:
/// every 200 is byte-identical to the local oracle, before and after every
/// crash. Zero committed-entry loss: a result whose response was received
/// was fsynced first, so after the restart it is a cache hit with the same
/// bytes. A final round arms torn, short and bit-flipped appends and
/// demands correct bodies still. `bows-serve` must sit next to the `check`
/// binary, as `cargo build -p experiments -p simt-serve` leaves it.
pub(super) fn crash_drill(c: &mut Check) -> Verdict {
    let seed = c.seed.unwrap_or(1);
    let serve_bin = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("bows-serve")))
        .filter(|p| p.exists())
        .expect("bows-serve not found next to check (cargo build -p simt-serve)");
    let state_dir =
        std::env::temp_dir().join(format!("bows-crash-drill-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    eprintln!(
        "crash drill: seed {seed}, {DRILL_REQUESTS} requests, state dir {}",
        state_dir.display()
    );
    let mut drill = Drill {
        seed,
        serve_bin,
        state_dir,
        corpus: drill_corpus(),
        violations: Vec::new(),
        kills: 0,
    };
    // Two clean kill-restart rounds at seed-dependent points, then one
    // round with every persistence fault armed at a high rate.
    drill.round(0, "");
    drill.round(1, "");
    let store_faults = "--chaos-store-torn-ppm 300000 --chaos-store-short-ppm 300000 \
                        --chaos-store-flip-ppm 300000";
    drill.round(2, &format!("--chaos-seed 9 {store_faults}"));
    let pass = drill.violations.is_empty();
    let report = format!(
        "{{\"drill\":\"crash\",\"seed\":{seed},\"requests\":{DRILL_REQUESTS},\"kills\":{},\
         \"violations\":{},\"passed\":{pass}}}\n",
        drill.kills,
        drill.violations.len()
    );
    Verdict { report, pass }
}

/// Requests in the serve mix.
const MIX: usize = 120;
/// Closed-loop clients racing through the burst.
const CLIENTS: usize = 12;
/// Queued plus in-flight requests per tenant.
const TENANT_QUOTA: usize = 2;
/// Cold requests one tenant offers at the same moment as the burst opens:
/// well past its quota, so the quota must shed some of them.
const FLOOD: usize = 4 * TENANT_QUOTA;
/// The p99 latency bound on a shed: shedding that queues first is not
/// shedding.
const SHED_P99_MS: u64 = 1_000;
/// The p99 latency bound on an answered request.
const OK_P99_MS: u64 = 20_000;
/// The ceiling on terminal (500/504) responses, in percent of all.
const ERROR_PCT: f64 = 2.0;

/// What a request of the serve mix must get back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A 200 whose body the oracle predicts.
    Ok,
    /// A deterministic 422 whose body the oracle predicts.
    SimErr,
    /// A 400 (malformed JSON or failed validation).
    BadRequest,
}

/// One request of the serve mix.
pub struct Item {
    /// The request JSON.
    pub body: String,
    /// What it must get back.
    pub expect: Expect,
    /// Its cache key, unless it is a [`Expect::BadRequest`].
    pub key: Option<u64>,
}

impl Item {
    /// `body`, expected to get `expect`, with its cache key.
    fn new(body: String, expect: Expect) -> Item {
        let key = (expect != Expect::BadRequest)
            .then(|| SimRequest::from_json(&body).expect("generated body must parse"))
            .map(|r| r.cache_key());
        Item { body, expect, key }
    }
}

/// The expected status class and body per cache key.
pub type Oracle = HashMap<u64, (Expect, String)>;

/// The seeded serve mix: vector kernels in a few variants (so the burst
/// hits the cache), spin locks, guaranteed hangs, assembler errors and
/// malformed JSON, spread over three tenants and priorities.
fn build_mix(seed: u64) -> Vec<Item> {
    let tenants = ["acme", "blue", "cern"];
    let bows = ["", "\"bows\":\"adaptive\",", "\"bows\":24,"];
    (0..MIX as u64)
        .map(|i| {
            let r = splitmix64(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let tenant = tenants[(r >> 32) as usize % tenants.len()];
            let prio = (r >> 40) % 3;
            let tail = format!("\"tenant\":\"{tenant}\",\"priority\":{prio}}}");
            let (body, expect) = match r % 100 {
                0..=54 => (
                    format!(
                        "{{\"kernel\":{},\"ctas\":{},\"tpc\":32,\
                         \"params\":[{{\"buf\":128,\"fill\":{}}}],{}\
                         \"dumps\":[[0,8]],{tail}",
                        json_string(VEC_KERNEL),
                        1 + (r >> 12) as usize % 2,
                        1 + (r >> 8) as u32 % 4,
                        bows[(r >> 20) as usize % 3],
                    ),
                    Expect::Ok,
                ),
                55..=69 => (
                    format!(
                        "{{\"kernel\":{},\"ctas\":2,\"tpc\":32,\
                         \"params\":[{{\"buf\":1}},{{\"buf\":1}}],\"bows\":\"adaptive\",\
                         \"dumps\":[[1,1]],{tail}",
                        json_string(LOCK_KERNEL)
                    ),
                    Expect::Ok,
                ),
                70..=79 => (
                    format!(
                        "{{\"kernel\":{},\"tpc\":32,\"params\":[{{\"buf\":1}}],\
                         \"timeout_cycles\":120000,{tail}",
                        json_string(HANG_KERNEL)
                    ),
                    Expect::SimErr,
                ),
                80..=89 => (
                    format!("{{\"kernel\":\"this is not assembly\",{tail}"),
                    Expect::SimErr,
                ),
                _ => ("{\"kernel\": 42,".to_string(), Expect::BadRequest),
            };
            Item::new(body, expect)
        })
        .collect()
}

/// The flood the burst opens with: [`FLOOD`] spin-lock requests from one
/// tenant, distinct from each other and from the mix, so none is cached and
/// at most `tenant_quota` of them can be admitted at once.
fn build_flood() -> Vec<Item> {
    (1..=FLOOD)
        .map(|fill| {
            let body = format!(
                "{{\"kernel\":{},\"ctas\":2,\"tpc\":32,\
                 \"params\":[{{\"buf\":1}},{{\"buf\":1,\"fill\":{fill}}}],\
                 \"dumps\":[[1,1]],\"tenant\":\"flood\"}}",
                json_string(LOCK_KERNEL)
            );
            Item::new(body, Expect::Ok)
        })
        .collect()
}

/// The expected body of every distinct request in `items`, from the same
/// execution function the service workers run — locally, chaos-free.
fn build_oracle<'a>(items: impl IntoIterator<Item = &'a Item>) -> Oracle {
    let mut seen = HashSet::new();
    let unique: Vec<&Item> = items
        .into_iter()
        .filter(|item| item.key.is_some_and(|k| seen.insert(k)))
        .collect();
    let expected = grid::parallel_map(&unique, |_, item| {
        let req = SimRequest::from_json(&item.body).expect("oracle body must parse");
        let expected = match run_request(&req, None) {
            RunOutcome::Ok(body) => (Expect::Ok, body),
            RunOutcome::SimError(body) => (Expect::SimErr, body),
            RunOutcome::Cancelled => unreachable!("oracle runs carry no deadline"),
        };
        assert_eq!(expected.0, item.expect, "mix template mis-labeled");
        expected
    });
    unique
        .iter()
        .filter_map(|item| item.key)
        .zip(expected)
        .collect()
}

/// The responses a serve run saw, by class.
#[derive(Default)]
pub struct Tally {
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

fn has_error_kind(body: &str) -> bool {
    Json::parse(body)
        .ok()
        .and_then(|j| j.get("error").ok().cloned())
        .and_then(|e| e.get("kind").ok().cloned())
        .is_some()
}

/// Posts `item` and times the answer.
fn post(addr: &str, item: &Item) -> (Result<HttpResponse, String>, u64) {
    let t0 = Instant::now();
    let resp = client::post(addr, "/simulate", &item.body);
    (resp, t0.elapsed().as_millis() as u64)
}

impl Tally {
    /// Judges `resp` to `item`, answered in `ms`, against the oracle.
    pub fn record(&mut self, item: &Item, resp: &HttpResponse, ms: u64, oracle: &Oracle) {
        let head = &item.body[..item.body.len().min(60)];
        let predicted = item.key.and_then(|k| oracle.get(&k));
        match resp.status {
            200 | 422 => {
                let class = if resp.status == 200 {
                    self.ok += 1;
                    if resp.x_cache.as_deref() == Some("HIT") {
                        self.ok_hits += 1;
                    }
                    Expect::Ok
                } else {
                    self.sim_errors += 1;
                    Expect::SimErr
                };
                self.ok_ms.push(ms);
                if predicted != Some(&(class, resp.body.clone())) {
                    self.wrong_results.push(format!(
                        "{} body mismatch (or unexpected {}) for {head}...",
                        resp.status, resp.status
                    ));
                }
            }
            400 => {
                self.bad_requests += 1;
                if item.expect != Expect::BadRequest {
                    self.wrong_results
                        .push(format!("unexpected 400: {}", resp.body));
                }
            }
            429 | 503 => {
                self.sheds += 1;
                self.shed_ms.push(ms);
                if resp.retry_after.is_none() {
                    self.unstructured
                        .push(format!("{} shed without Retry-After", resp.status));
                }
                if !has_error_kind(&resp.body) {
                    self.unstructured.push(format!(
                        "{} shed body not structured: {}",
                        resp.status, resp.body
                    ));
                }
            }
            500 | 504 => {
                self.terminals += 1;
                if !has_error_kind(&resp.body) {
                    self.unstructured.push(format!(
                        "{} terminal body not structured: {}",
                        resp.status, resp.body
                    ));
                }
            }
            s => self
                .unstructured
                .push(format!("unexpected status {s}: {}", resp.body)),
        }
    }

    /// Records what [`post`] got for `item` and returns its status; a
    /// transport failure is recorded against `phase`.
    fn note(
        &mut self,
        item: &Item,
        (resp, ms): (Result<HttpResponse, String>, u64),
        oracle: &Oracle,
        phase: &str,
    ) -> Option<u16> {
        match resp {
            Ok(resp) => {
                self.record(item, &resp, ms, oracle);
                Some(resp.status)
            }
            Err(e) => {
                self.transport_failures.push(format!("{phase}: {e}"));
                None
            }
        }
    }
}

fn p99(ms: &mut [u64]) -> u64 {
    if ms.is_empty() {
        return 0;
    }
    ms.sort_unstable();
    ms[(ms.len() - 1) * 99 / 100]
}

/// A chaos run injected something: `/stats` counts a caught panic, a
/// timeout or a detected cache corruption.
fn faults_injected(stats: &str) -> bool {
    [
        "worker_panics_caught",
        "worker_timeouts",
        "cache_corruptions_detected",
    ]
    .iter()
    .filter_map(|k| json_u64(stats, k))
    .sum::<u64>()
        > 0
}

/// What one serve run observed, judged by [`ServeRun::verdict`].
#[derive(Default)]
pub struct ServeRun {
    /// Every response of the warmup, burst and cooldown.
    pub tally: Tally,
    /// 200s of the warmup.
    pub warm_ok: u64,
    /// Cooldown requests answered with anything but 200.
    pub cooldown_failures: u64,
    /// What went wrong while draining.
    pub drain_failures: Vec<String>,
    /// The final `/stats` body, if it was fetched.
    pub stats: Option<String>,
}

impl ServeRun {
    /// Holds the run to the SLOs — no wrong body, no unstructured failure,
    /// bounded terminal error rate and latencies, sheds under the burst, a
    /// warm cache, a clean cooldown and drain, and under chaos at least one
    /// injected fault — and reports it as one JSON line.
    pub fn verdict(mut self, seed: u64, chaos: bool) -> Verdict {
        let t = &mut self.tally;
        let total = t.ok + t.sim_errors + t.bad_requests + t.sheds + t.terminals;
        let error_pct = if total > 0 {
            100.0 * t.terminals as f64 / total as f64
        } else {
            0.0
        };
        let ok_p99 = p99(&mut t.ok_ms);
        let shed_p99 = p99(&mut t.shed_ms);
        let mut violations: Vec<String> = Vec::new();
        for (what, list) in [
            ("wrong-result responses", &t.wrong_results),
            ("unstructured failures", &t.unstructured),
            ("transport failures", &t.transport_failures),
        ] {
            if let Some(first) = list.first() {
                violations.push(format!("{} {what}, e.g.: {first}", list.len()));
            }
        }
        if error_pct > ERROR_PCT {
            violations.push(format!(
                "terminal error rate {error_pct:.2}% exceeds {ERROR_PCT}%"
            ));
        }
        if shed_p99 > SHED_P99_MS {
            violations.push(format!("shed p99 {shed_p99}ms exceeds {SHED_P99_MS}ms"));
        }
        if ok_p99 > OK_P99_MS {
            violations.push(format!("ok p99 {ok_p99}ms exceeds {OK_P99_MS}ms"));
        }
        if t.sheds == 0 {
            violations.push("burst above threshold produced zero sheds".into());
        }
        if t.ok_hits == 0 && self.warm_ok > 0 {
            violations.push("no cache hit observed after warmup".into());
        }
        if self.cooldown_failures > 0 {
            violations.push(format!(
                "{} cooldown requests not 200",
                self.cooldown_failures
            ));
        }
        violations.append(&mut self.drain_failures);
        // A chaos drill that injected nothing proves nothing.
        if chaos && !self.stats.as_deref().is_some_and(faults_injected) {
            violations.push("chaos drill injected no faults".into());
        }
        for v in &violations {
            eprintln!("SLO VIOLATION: {v}");
        }
        let t = &self.tally;
        let report = Json::Obj(vec![
            ("seed".into(), Json::UInt(seed)),
            ("requests_sent".into(), Json::UInt(total)),
            ("ok".into(), Json::UInt(t.ok)),
            ("ok_cache_hits".into(), Json::UInt(t.ok_hits)),
            ("sim_errors".into(), Json::UInt(t.sim_errors)),
            ("bad_requests".into(), Json::UInt(t.bad_requests)),
            ("sheds".into(), Json::UInt(t.sheds)),
            ("terminal_errors".into(), Json::UInt(t.terminals)),
            (
                "wrong_results".into(),
                Json::UInt(t.wrong_results.len() as u64),
            ),
            ("ok_p99_ms".into(), Json::UInt(ok_p99)),
            ("shed_p99_ms".into(), Json::UInt(shed_p99)),
            ("error_pct".into(), Json::Num(error_pct)),
            (
                "slo_violations".into(),
                Json::Arr(violations.iter().cloned().map(Json::Str).collect()),
            ),
            ("pass".into(), Json::Bool(violations.is_empty())),
        ]);
        Verdict {
            report: report.render() + "\n",
            pass: violations.is_empty(),
        }
    }
}

/// The clean closed-loop SLO drill.
pub(super) fn serve(c: &mut Check) -> Verdict {
    drive(c, false)
}

/// The SLO drill with worker panics, worker slowness past the attempt
/// deadline (forcing timeouts) and cache corruption injected.
pub(super) fn serve_chaos(c: &mut Check) -> Verdict {
    drive(c, true)
}

/// Boots the service in-process and drives the seeded mix through its
/// HTTP front end: a warmup pass over each distinct request, a burst of
/// [`CLIENTS`] closed-loop clients opened by a one-tenant [`FLOOD`] of cold
/// requests past the tenant quota, a cooldown, and a graceful drain.
fn drive(c: &Check, chaos_on: bool) -> Verdict {
    let seed = c.seed.unwrap_or(42);
    let chaos = if chaos_on {
        install_quiet_panic_hook();
        ServiceChaos {
            seed,
            worker_panic_ppm: 150_000,
            worker_slow_ppm: 30_000,
            slow_ms: 1_500, // past the deadline: forces timeouts
            cache_corrupt_ppm: 100_000,
            store_torn_ppm: 0,
            store_short_ppm: 0,
            store_flip_ppm: 0,
        }
    } else {
        ServiceChaos::off()
    };
    // Deliberately small, so the burst is comfortably above the shedding
    // threshold.
    let cfg = ServeConfig {
        workers: 2,
        admission: AdmissionConfig {
            queue_cap: 6,
            tenant_quota: TENANT_QUOTA,
            ..AdmissionConfig::default()
        },
        pool: PoolConfig {
            max_retries: 3,
            attempt_deadline_ms: 1_000,
        },
        cache_entries: 64,
        chaos,
        state_dir: None,
    };
    let service = Arc::new(Service::start(cfg));
    let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    let addr = server.addr().to_string();
    eprintln!(
        "serve: {addr}, seed {seed}, {MIX} requests x {CLIENTS} clients + {FLOOD} flood, \
         chaos {chaos_on}"
    );
    let items = build_mix(seed);
    let flood = build_flood();
    let oracle = build_oracle(items.iter().chain(&flood));
    let mut run = ServeRun::default();

    // Warmup: one sequential pass over each distinct request, so the burst
    // sees a warm cache. Low concurrency means these should not shed.
    let mut seen = HashSet::new();
    for item in items
        .iter()
        .filter(|i| i.key.is_some_and(|k| seen.insert(k)))
    {
        run.tally.note(item, post(&addr, item), &oracle, "warmup");
    }
    run.warm_ok = run.tally.ok;

    // Burst: the clients race through the whole mix. Every 200 of the mix
    // is a cache hit by now and never reaches admission, so the flood —
    // cold requests from one tenant, released at once — is what meets the
    // tenant quota.
    let cursor = AtomicUsize::new(0);
    let tally = Mutex::new(std::mem::take(&mut run.tally));
    let release = Barrier::new(FLOOD);
    std::thread::scope(|s| {
        for item in &flood {
            let (release, tally, oracle, addr) = (&release, &tally, &oracle, &addr);
            s.spawn(move || {
                release.wait();
                let answer = post(addr, item);
                let mut tally = tally.lock().expect("no client panics holding the tally");
                tally.note(item, answer, oracle, "flood");
            });
        }
        for _ in 0..CLIENTS {
            s.spawn(|| {
                while let Some(item) = items.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    let answer = post(&addr, item);
                    let mut tally = tally.lock().expect("no client panics holding the tally");
                    tally.note(item, answer, &oracle, "burst");
                }
            });
        }
    });
    run.tally = tally.into_inner().expect("burst tally");

    // Cooldown: the service must serve cleanly again once load drops.
    for item in items.iter().filter(|i| i.expect == Expect::Ok).take(5) {
        let status = run.tally.note(item, post(&addr, item), &oracle, "cooldown");
        if status.is_some_and(|s| s != 200) {
            run.cooldown_failures += 1;
        }
    }

    // Graceful drain: health turns 503 and new work is refused, though a
    // cached result may still serve.
    let failures = &mut run.drain_failures;
    match client::post(&addr, "/admin/drain", "") {
        Ok(r) if r.status == 200 => {}
        Ok(r) => failures.push(format!("drain returned {}", r.status)),
        Err(e) => failures.push(format!("drain: {e}")),
    }
    match client::get(&addr, "/healthz") {
        Ok(r) if r.status == 503 => {}
        Ok(r) => failures.push(format!("healthz while draining returned {}", r.status)),
        Err(e) => failures.push(format!("healthz: {e}")),
    }
    if let Some(item) = items.iter().find(|i| i.expect == Expect::Ok) {
        match client::post(&addr, "/simulate", &item.body) {
            Ok(r)
                if r.status == 503 || (r.status == 200 && r.x_cache.as_deref() == Some("HIT")) => {}
            Ok(r) => failures.push(format!("simulate while draining returned {}", r.status)),
            Err(e) => failures.push(format!("simulate while draining: {e}")),
        }
    }
    run.stats = client::get(&addr, "/stats").ok().map(|r| r.body);
    if let Some(stats) = &run.stats {
        eprintln!("serve: final service stats: {stats}");
    }
    server.stop();
    drop(service);
    run.verdict(seed, chaos_on)
}
