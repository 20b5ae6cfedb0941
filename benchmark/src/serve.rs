//! The service workload, `serve_mix`: an in-process `Service` (2 workers,
//! default pool so in-flight checkpointing is on, a state directory so
//! every cold reply waits for its fsync) behind `HttpServer` on loopback,
//! driven closed-loop by 2 clients, one connection per request.
//!
//! One pass is: *cold* — every generated request once, all unique, so each
//! is simulated; *warm* — the same bodies again, every one a cache hit;
//! then drain, reopen on the same state directory and replay a few, which
//! must hit without simulating. A *job* is one request of the pass.

use crate::harness::{timed_passes, Opts, AGREE};
use crate::metrics::{Metrics, Outcome};
use crate::sim::shuffle;
use crate::span::Tracer;
use crate::{host, layers, stats};
use simt_serve::chaos::splitmix64;
use simt_serve::http::client;
use simt_serve::json::{json_string, Json};
use simt_serve::store::DurableStore;
use simt_serve::{
    run_request, AdmissionConfig, HttpServer, PoolConfig, RunOutcome, ServeConfig, Service,
    ServiceChaos, SimRequest,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;

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

/// Requests per phase of a pass.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    cold: usize,
    warm: usize,
    replay: usize,
}

impl Sizes {
    fn of(opts: &Opts) -> Sizes {
        if opts.smoke {
            Sizes {
                cold: 60,
                warm: 200,
                replay: 10,
            }
        } else {
            Sizes {
                cold: 600,
                warm: 2000,
                replay: 100,
            }
        }
    }
}

/// One generated request. Lock requests come in pairs that differ only in
/// `bows`, so the paper's speed-up can be read off the replies.
struct Req {
    body: String,
    /// `Some((pair, bows))` for a spin-lock request.
    pair: Option<(usize, bool)>,
}

fn inc_body(ctas: usize, nonce: u32) -> String {
    format!(
        "{{\"kernel\":{},\"gpu\":\"gtx480\",\"ctas\":{ctas},\"tpc\":64,\
         \"params\":[{{\"buf\":{},\"fill\":{nonce}}}],\"dumps\":[[0,4]]}}",
        json_string(VEC_KERNEL),
        ctas * 64
    )
}

fn lock_body(ctas: usize, bows: bool, nonce: u32) -> String {
    format!(
        "{{\"kernel\":{},\"ctas\":{ctas},\"tpc\":64,{}\
         \"params\":[{{\"buf\":1}},{{\"buf\":1,\"fill\":{nonce}}}],\"dumps\":[[1,1]]}}",
        json_string(LOCK_KERNEL),
        if bows { "\"bows\":\"adaptive\"," } else { "" }
    )
}

/// The request set: a fifth vector `inc` on the GTX480 preset, the rest
/// spin-lock counters at 2–5 CTAs × 64 threads with BOWS off and adaptive.
/// The mix is the same for every seed; the seed draws the nonces that
/// make each body unique (an initial buffer value, which no timing depends
/// on) and the order requests are sent in.
fn requests(seed: u64, n: usize, warmup: bool) -> Vec<Req> {
    // Warm-up nonces sit above every measured one, so no measured request
    // can find its body cached.
    let base = (splitmix64(seed) & 0x3fff_ffff) as u32 | u32::from(warmup) << 30;
    let incs = n / 5;
    let pairs_per_ctas = (n - incs) / 8;
    let mut reqs = Vec::with_capacity(n);
    for i in 0..incs {
        reqs.push(Req {
            body: inc_body(1 + i % 4, base + i as u32),
            pair: None,
        });
    }
    for (c, ctas) in (2..=5).enumerate() {
        for j in 0..pairs_per_ctas {
            let pair = c * pairs_per_ctas + j;
            let nonce = base + (incs + pair) as u32;
            for bows in [false, true] {
                reqs.push(Req {
                    body: lock_body(ctas, bows, nonce),
                    pair: Some((pair, bows)),
                });
            }
        }
    }
    shuffle(&mut reqs, seed);
    reqs
}

struct Server {
    service: Arc<Service>,
    http: HttpServer,
    addr: String,
}

fn service_config(state_dir: &Path) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        // Caps far above anything two closed-loop clients can queue:
        // nothing is shed, so every request is a measurement.
        admission: AdmissionConfig {
            queue_cap: 4096,
            tenant_quota: 4096,
            max_queue_wait_ms: u64::MAX,
            workers: WORKERS,
        },
        pool: PoolConfig::default(),
        cache_entries: 4096,
        chaos: ServiceChaos::off(),
        state_dir: Some(state_dir.to_path_buf()),
    }
}

impl Server {
    fn start(state_dir: &Path) -> Result<Server, String> {
        let service = Arc::new(Service::start(service_config(state_dir)));
        let http = HttpServer::serve("127.0.0.1:0", Arc::clone(&service))
            .map_err(|e| format!("bind: {e}"))?;
        let addr = http.addr().to_string();
        Ok(Server {
            service,
            http,
            addr,
        })
    }

    /// Stop accepting, wait for the handler threads to let go of the
    /// service, drain it. Returns the service's counters as they stood.
    fn stop(self) -> Result<Json, String> {
        let stats = self.service.stats_json();
        self.http.stop();
        let mut service = self.service;
        let deadline = Instant::now() + Duration::from_secs(10);
        let service = loop {
            match Arc::try_unwrap(service) {
                Ok(s) => break s,
                Err(shared) if Instant::now() < deadline => {
                    service = shared;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => return Err("a connection handler never finished".into()),
            }
        };
        if !service.drain(Duration::from_secs(10)) {
            return Err("service did not drain".into());
        }
        Ok(stats)
    }
}

struct Reply {
    latency_ms: f64,
    ok: bool,
    hit: bool,
    body: String,
}

/// Send `bodies` closed-loop from [`CLIENTS`] threads, each taking the
/// next unsent request when its previous one has been answered in full.
fn drive(
    addr: &str,
    bodies: &[&str],
    span: &'static str,
    t: &mut Tracer,
) -> Result<Vec<Reply>, String> {
    let next = AtomicUsize::new(0);
    let mut forks: Vec<Tracer> = (0..CLIENTS).map(|_| t.fork()).collect();
    let mut replies: Vec<Option<Reply>> = Vec::new();
    replies.resize_with(bodies.len(), || None);
    let results: Vec<Result<Vec<(usize, Reply)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = forks
            .iter_mut()
            .map(|fork| {
                let next = &next;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(body) = bodies.get(i) else {
                            return Ok(mine);
                        };
                        let t0 = Instant::now();
                        let r =
                            fork.span(span, i as u64, |_| client::post(addr, "/simulate", body))?;
                        mine.push((
                            i,
                            Reply {
                                latency_ms: t0.elapsed().as_secs_f64() * 1e3,
                                ok: r.status == 200,
                                hit: r.x_cache.as_deref() == Some("HIT"),
                                body: r.body,
                            },
                        ));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    for fork in forks {
        t.absorb(fork);
    }
    for r in results {
        for (i, reply) in r? {
            replies[i] = Some(reply);
        }
    }
    Ok(replies
        .into_iter()
        .map(|r| r.expect("every request was sent"))
        .collect())
}

/// A started server with its request set: the product of one set-up.
struct Ready {
    reqs: Vec<Req>,
    server: Server,
    state_dir: PathBuf,
}

impl Ready {
    /// Shut down a set-up no pass will use.
    fn discard(self) -> Result<(), String> {
        self.server.stop()?;
        let _ = std::fs::remove_dir_all(&self.state_dir);
        Ok(())
    }
}

/// Generate the requests, start service and front end on a fresh state
/// directory, and send a few warm-up requests (other nonces) through it.
fn setup(opts: &Opts, sizes: Sizes, serial: &mut usize) -> Result<Ready, String> {
    *serial += 1;
    let state_dir = opts
        .out_dir
        .join(format!("tmp-serve-{}-{serial}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let reqs = requests(opts.seed, sizes.cold, false);
    let server = Server::start(&state_dir)?;
    let warmup = requests(opts.seed, 10, true);
    let bodies: Vec<&str> = warmup.iter().map(|r| r.body.as_str()).collect();
    let replies = drive(&server.addr, &bodies, "http.post", &mut Tracer::new(false))?;
    if replies.iter().any(|r| !r.ok) {
        return Err("a warm-up request failed".into());
    }
    Ok(Ready {
        reqs,
        server,
        state_dir,
    })
}

struct Pass {
    wall_s: f64,
    cold_s: f64,
    warm_s: f64,
    /// `Service::start` on the populated state directory, ms.
    reopen_ms: f64,
    cold_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    replay_ms: Vec<f64>,
    /// Cold reply bodies, request order.
    cold_bodies: Vec<String>,
    /// Requests answered wrongly: not 200, wrong cache disposition, or a
    /// warm/replayed body that differs from the cold one.
    failed: u64,
    /// Service counters at the end of the warm phase.
    stats: Json,
}

fn run_pass(ready: Ready, sizes: Sizes, t: &mut Tracer) -> Result<Pass, String> {
    let Ready {
        reqs,
        server,
        state_dir,
    } = ready;
    let bodies: Vec<&str> = reqs.iter().map(|r| r.body.as_str()).collect();
    let t0 = Instant::now();
    let pass = t.span("pass", 0, |t| {
        let mut failed = 0;
        let c0 = Instant::now();
        let cold = t.span("serve.cold", 0, |t| {
            drive(&server.addr, &bodies, "http.post", t)
        })?;
        let cold_s = c0.elapsed().as_secs_f64();
        failed += cold.iter().filter(|r| !r.ok || r.hit).count() as u64;

        let warm_ids: Vec<usize> = (0..sizes.warm).map(|i| i % bodies.len()).collect();
        let warm_bodies: Vec<&str> = warm_ids.iter().map(|&i| bodies[i]).collect();
        let w0 = Instant::now();
        let warm = t.span("serve.warm", 0, |t| {
            drive(&server.addr, &warm_bodies, "http.post", t)
        })?;
        let warm_s = w0.elapsed().as_secs_f64();
        let wrong = |r: &Reply, i: usize| !r.ok || !r.hit || r.body != cold[i].body;
        failed += warm
            .iter()
            .zip(&warm_ids)
            .filter(|(r, &i)| wrong(r, i))
            .count() as u64;

        let (stats, reopen_ms, replay_ms) = t.span("serve.reopen", 0, |t| {
            let stats = server.stop()?;
            let r0 = Instant::now();
            let reopened = Server::start(&state_dir)?;
            let reopen_ms = r0.elapsed().as_secs_f64() * 1e3;
            let replay = drive(&reopened.addr, &bodies[..sizes.replay], "http.post", t)?;
            failed += replay
                .iter()
                .enumerate()
                .filter(|&(i, r)| wrong(r, i))
                .count() as u64;
            reopened.stop()?;
            let replay_ms: Vec<f64> = replay.iter().map(|r| r.latency_ms).collect();
            Ok::<_, String>((stats, reopen_ms, replay_ms))
        })?;
        Ok::<_, String>(Pass {
            wall_s: 0.0,
            cold_s,
            warm_s,
            reopen_ms,
            cold_ms: cold.iter().map(|r| r.latency_ms).collect(),
            warm_ms: warm.iter().map(|r| r.latency_ms).collect(),
            replay_ms,
            cold_bodies: cold.into_iter().map(|r| r.body).collect(),
            failed,
            stats,
        })
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&state_dir);
    Ok(Pass { wall_s, ..pass? })
}

/// What the replies say was simulated, read back out of the bodies.
#[derive(Default)]
struct Simulated {
    /// Cycles, issued and spin-branch instructions; the replies carry no
    /// stall counters.
    sim: simt_core::SimStats,
    confirmed_sibs: u64,
    mem: simt_mem::MemStats,
    /// cycles(bows off) ÷ cycles(bows adaptive), per request pair.
    speedups: Vec<f64>,
}

fn simulated(reqs: &[Req], bodies: &[String]) -> Result<Simulated, String> {
    let mut s = Simulated::default();
    let mut pairs: std::collections::BTreeMap<usize, [u64; 2]> = Default::default();
    for (req, body) in reqs.iter().zip(bodies) {
        let j = Json::parse(body)?;
        let u = |j: &Json, k: &str| j.get(k)?.as_u64(k);
        let cycles = u(&j, "cycles")?;
        let (sim, mem) = (j.get("sim")?, j.get("mem")?);
        s.sim.cycles += cycles;
        s.sim.issued_inst += u(sim, "issued_inst")?;
        s.sim.sib_inst += u(sim, "sib_inst")?;
        s.confirmed_sibs += j.get("confirmed_sibs")?.as_array("confirmed_sibs")?.len() as u64;
        s.mem.add(&simt_mem::MemStats {
            l1_accesses: u(mem, "l1_accesses")?,
            l1_hits: u(mem, "l1_hits")?,
            l2_accesses: u(mem, "l2_accesses")?,
            l2_hits: u(mem, "l2_hits")?,
            dram_reads: u(mem, "dram_reads")?,
            atomic_transactions: u(mem, "atomic_transactions")?,
            total_transactions: u(mem, "total_transactions")?,
            lock_success: u(mem, "lock_success")?,
            lock_intra_fail: u(mem, "lock_intra_fail")?,
            lock_inter_fail: u(mem, "lock_inter_fail")?,
            ..Default::default()
        });
        if let Some((pair, bows)) = req.pair {
            pairs.entry(pair).or_default()[usize::from(bows)] = cycles;
        }
    }
    s.speedups = pairs
        .values()
        .map(|&[off, on]| off as f64 / on as f64)
        .collect();
    Ok(s)
}

/// `f` over `items` from [`CLIENTS`] threads at once, as the HTTP phases
/// call the service: the mean latency of one call, and the results.
fn concurrent<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&T) -> Result<R, String> + Sync,
) -> Result<(f64, Vec<R>), String> {
    let timed = experiments::grid::parallel_map_with(CLIENTS, items, |_, item| {
        let t0 = Instant::now();
        f(item).map(|r| (t0.elapsed().as_secs_f64(), r))
    });
    let timed: Vec<(f64, R)> = timed.into_iter().collect::<Result<_, _>>()?;
    let mean_s = timed.iter().map(|(s, _)| s).sum::<f64>() / timed.len().max(1) as f64;
    Ok((mean_s, timed.into_iter().map(|(_, r)| r).collect()))
}

fn parse_all(reqs: &[Req]) -> Result<Vec<SimRequest>, String> {
    reqs.iter()
        .map(|r| SimRequest::from_json(&r.body))
        .collect()
}

/// The body `run_request` computes locally for every request: the oracle
/// the service's replies are held to. Built after the timed phases.
/// Also returns the mean time of one `run_request`.
fn oracle(parsed: &[SimRequest]) -> Result<(f64, Vec<String>), String> {
    concurrent(parsed, |r| match run_request(r, None) {
        RunOutcome::Ok(body) => Ok(body),
        other => Err(format!("the oracle could not run a request: {other:?}")),
    })
}

fn count_mismatches(expected: &[String], passes: &[Pass]) -> u64 {
    passes
        .iter()
        .map(|p| {
            p.cold_bodies
                .iter()
                .zip(expected)
                .filter(|(got, want)| got != want)
                .count() as u64
        })
        .sum()
}

fn counter(stats: &Json, key: &str) -> Result<f64, String> {
    Ok(stats.get(key)?.as_u64(key)? as f64)
}

/// Run `serve_mix` to its [`Outcome`].
///
/// # Errors
///
/// Anything that stops the run before it can report: a transport error,
/// a service that will not drain, an unparsable reply.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let sizes = Sizes::of(opts);
    let per_pass = (sizes.cold + sizes.warm + sizes.replay) as u64;
    let mut serial = 0;
    if opts.trace {
        return run_traced(opts, sizes, per_pass, &mut serial);
    }
    let (setup_s, mut passes) = timed_passes(
        opts,
        2,
        || setup(opts, sizes, &mut serial),
        Ready::discard,
        |ready| run_pass(ready, sizes, &mut Tracer::new(false)),
    )?;
    // The pass time is the best pass's (interference on this shared host
    // only adds time; see `sim::settle`), latency percentiles pool every
    // pass. Two passes that disagree leave it open which was disturbed:
    // a third decides.
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    if let [a, b] = walls[..] {
        if a.max(b) > a.min(b) * (1.0 + AGREE) {
            eprintln!("note: serve_mix: noisy host, running a third pass");
            passes.push(run_pass(
                setup(opts, sizes, &mut serial)?,
                sizes,
                &mut Tracer::new(false),
            )?);
        }
    }
    let peak_rss_mb = host::peak_rss_mb().ok_or("cannot read VmHWM")?;

    let reqs = requests(opts.seed, sizes.cold, false);
    let (_, expected) = oracle(&parse_all(&reqs)?)?;
    let failed =
        passes.iter().map(|p| p.failed).sum::<u64>() + count_mismatches(&expected, &passes);
    if failed > 0 {
        eprintln!("INCORRECT: {failed} replies were wrong");
    }
    let sim = simulated(&reqs, &expected)?;

    // A job is any request of the pass: four fifths are cache hits, so the
    // median is a hit and the tail a simulation.
    let wall_s = passes
        .iter()
        .map(|p| p.wall_s)
        .fold(f64::INFINITY, f64::min);
    let job_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cold_ms.iter().chain(&p.warm_ms).chain(&p.replay_ms))
        .copied()
        .collect();
    let mut m = Metrics::default();
    m.set("wall_s", wall_s);
    m.set("setup_s", setup_s);
    m.set("peak_rss_mb", peak_rss_mb);
    m.set("sim_mcycles_per_s", sim.sim.cycles as f64 / wall_s / 1e6);
    m.set(
        "sim_minstr_per_s",
        sim.sim.issued_inst as f64 / wall_s / 1e6,
    );
    m.set("jobs_per_s", per_pass as f64 / wall_s);
    m.set("job_p50_ms", stats::median(&job_ms)?);
    m.set("job_tail_ms", stats::tail(&job_ms, 0.9)?.0);
    m.set("bows_speedup_gmean", stats::gmean(&sim.speedups)?);
    Ok(Outcome {
        passes: passes.len(),
        correct: failed == 0,
        attempted: per_pass * passes.len() as u64,
        failed,
        metrics: m,
    })
}

/// Mean host time of `f` over `items`, with the results.
fn mean_over<T, R>(
    items: &[T],
    mut f: impl FnMut(&T) -> Result<R, String>,
) -> Result<(f64, Vec<R>), String> {
    let mut out = Vec::with_capacity(items.len());
    let t0 = Instant::now();
    for item in items {
        out.push(f(item)?);
    }
    Ok((t0.elapsed().as_secs_f64() / items.len().max(1) as f64, out))
}

/// The per-layer run: a plain pass for reference, a traced pass, then each
/// public call of the request path timed alone over the cold set.
fn run_traced(
    opts: &Opts,
    sizes: Sizes,
    per_pass: u64,
    serial: &mut usize,
) -> Result<Outcome, String> {
    let plain = run_pass(setup(opts, sizes, serial)?, sizes, &mut Tracer::new(false))?;
    let mut t = Tracer::new(true);
    let traced = run_pass(setup(opts, sizes, serial)?, sizes, &mut t)?;
    let reqs = requests(opts.seed, sizes.cold, false);
    let mut m = Metrics::default();

    let parsed = t.span("layers.parse", 0, |_| {
        mean_over(&reqs, |r| SimRequest::from_json(&r.body))
    })?;
    let (parse_s, parsed) = parsed;
    let (key_s, keys) = t.span("layers.key", 0, |_| {
        mean_over(&parsed, |r| Ok((r.cache_key(), r.canonical())))
    })?;

    // `run_request` alone, which is also the oracle for both passes.
    let (run_s, expected) = t.span("layers.run_request", 0, |_| oracle(&parsed))?;
    let passes = [plain, traced];
    let failed =
        passes.iter().map(|p| p.failed).sum::<u64>() + count_mismatches(&expected, &passes);
    if failed > 0 {
        eprintln!("INCORRECT: {failed} replies were wrong");
    }
    let [plain, traced] = passes;

    // The durable store alone: append (fsync included), then reopen.
    let store_dir = opts
        .out_dir
        .join(format!("tmp-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = t.span("layers.store", 0, |_| {
        let (mut store, _) = DurableStore::open(&store_dir)?;
        let entries: Vec<_> = keys.iter().zip(&expected).collect();
        let (append_s, _) = mean_over(&entries, |((key, canon), body)| {
            store.append(*key, canon, body)
        })?;
        drop(store);
        let t0 = Instant::now();
        let (_, replayed) = DurableStore::open(&store_dir)?;
        let open_s = t0.elapsed().as_secs_f64();
        if replayed.len() != entries.len() {
            return Err(format!(
                "store replayed {} of {} entries",
                replayed.len(),
                entries.len()
            ));
        }
        Ok((append_s, open_s))
    });
    let _ = std::fs::remove_dir_all(&store_dir);
    let (append_s, open_s) = store?;

    // `Service::submit` without the HTTP front end, cold then warm.
    let svc_dir = opts
        .out_dir
        .join(format!("tmp-submit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&svc_dir);
    let submits = t.span("layers.submit", 0, |_| {
        let svc = Service::start(service_config(&svc_dir));
        let submit = |want_hit: bool| {
            concurrent(&parsed, |r| {
                let resp = svc.submit(r.clone());
                if resp.status == 200 && resp.cached == want_hit {
                    Ok(())
                } else {
                    Err(format!(
                        "submit: status {} cached {}",
                        resp.status, resp.cached
                    ))
                }
            })
        };
        let (cold_s, _) = submit(false)?;
        let (warm_s, _) = submit(true)?;
        if !svc.drain(Duration::from_secs(10)) {
            return Err("service did not drain".to_string());
        }
        Ok((cold_s, warm_s))
    });
    let _ = std::fs::remove_dir_all(&svc_dir);
    let (submit_cold_s, submit_warm_s) = submits?;

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let cold_mean_ms = mean(&plain.cold_ms);
    let http_overhead_ms = mean(&plain.warm_ms) - submit_warm_s * 1e3;
    m.set("serve.parse_us", parse_s * 1e6);
    m.set("serve.key_us", key_s * 1e6);
    m.set("serve.run_request_ms", run_s * 1e3);
    m.set("serve.store_append_us", append_s * 1e6);
    m.set("serve.store_open_ms", open_s * 1e3);
    m.set("serve.service_reopen_ms", plain.reopen_ms);
    m.set("serve.submit_cold_ms", submit_cold_s * 1e3);
    m.set("serve.submit_warm_us", submit_warm_s * 1e6);
    m.set(
        "serve.queue_overhead_ms",
        (submit_cold_s - run_s - append_s) * 1e3,
    );
    m.set("serve.http_overhead_ms", http_overhead_ms);
    m.set("serve.cold_mean_ms", cold_mean_ms);
    m.set("serve.cold_req_per_s", sizes.cold as f64 / plain.cold_s);
    m.set("serve.cold_p50_ms", stats::median(&plain.cold_ms)?);
    m.set("serve.cold_p90_ms", stats::tail(&plain.cold_ms, 0.9)?.0);
    m.set("serve.cold_p99_ms", stats::tail(&plain.cold_ms, 0.99)?.0);
    m.set("serve.warm_p50_ms", stats::median(&plain.warm_ms)?);
    m.set("serve.warm_p90_ms", stats::tail(&plain.warm_ms, 0.9)?.0);
    m.set("serve.warm_p99_ms", stats::tail(&plain.warm_ms, 0.99)?.0);
    m.set("serve.warm_req_per_s", sizes.warm as f64 / plain.warm_s);
    let (hits, misses) = (
        counter(&plain.stats, "cache_hits")?,
        counter(&plain.stats, "cache_misses")?,
    );
    m.set("serve.cache_hit_ratio", hits / (hits + misses));
    m.set(
        "serve.sheds",
        counter(&plain.stats, "shed_quota")? + counter(&plain.stats, "shed_overload")?,
    );
    m.set("serve.retries", counter(&plain.stats, "retries")?);

    // The layers below the service, as far as the replies show them.
    let sim = simulated(&reqs, &expected)?;
    let fnv = simt_snap::fnv1a(expected.concat().as_bytes());
    m.set("core.sim_cycles", sim.sim.cycles as f64);
    m.set("core.sim_winst", sim.sim.issued_inst as f64);
    m.set("core.stats_fingerprint", (fnv & 0xffff_ffff_ffff) as f64);
    layers::simulated_counters(&mut m, &sim.sim, &sim.mem, sim.confirmed_sibs);
    let kernels = [VEC_KERNEL, LOCK_KERNEL]
        .iter()
        .map(|text| simt_isa::asm::assemble(text).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    layers::isa_and_lint(&mut m, &kernels, &mut t)?;

    // A cold request's mean latency, put back together from the layers.
    let composed_ms = (parse_s + submit_cold_s) * 1e3 + http_overhead_ms;
    m.set(
        "trace.gap_pct",
        (cold_mean_ms - composed_ms) / cold_mean_ms * 100.0,
    );
    m.set(
        "trace.overhead_pct",
        (traced.wall_s / plain.wall_s - 1.0) * 100.0,
    );
    m.set("trace.spans", t.spans().len() as f64);
    let jobs = plain.cold_ms.len() + plain.warm_ms.len() + plain.replay_ms.len();
    m.set(
        "harness.tail_quantile",
        stats::tail(&vec![0.0; jobs], 0.9)?.1,
    );
    m.set(
        "harness.failed_ratio",
        failed as f64 / (2 * per_pass) as f64,
    );
    layers::write_trace(opts, &t)?;
    Ok(Outcome {
        passes: 2,
        correct: failed == 0,
        attempted: 2 * per_pass,
        failed,
        metrics: m,
    })
}
