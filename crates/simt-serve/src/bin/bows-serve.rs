//! `bows-serve` — the simulation service over HTTP.
//!
//! ```sh
//! bows-serve --addr 127.0.0.1:8080 --workers 4 --cache-entries 256
//! ```
//!
//! POST a JSON simulation request to `/simulate`; see `crates/simt-serve`
//! docs for the schema. `--chaos-seed` and the `--chaos-store-*` flags arm
//! fault injection on the persistence path (torn, short and bit-flipped log
//! appends) for crash drills — simulated-hardware chaos stays per-request
//! (`chaos_seed` in the body).

use simt_serve::{HttpServer, ServeConfig, Service, ServiceChaos};
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: bows-serve [--addr HOST:PORT] [--workers N]\n\
         \x20    [--queue-cap N] [--tenant-quota N] [--max-queue-wait-ms N]\n\
         \x20    [--cache-entries N] [--max-retries N] [--attempt-deadline-ms N]\n\
         \x20    [--state-dir DIR] [--chaos-seed N] [--chaos-store-torn-ppm N]\n\
         \x20    [--chaos-store-short-ppm N] [--chaos-store-flip-ppm N]\n\
         \n\
         --attempt-deadline-ms N cancels an attempt that runs longer than\n\
         N ms; its retry resumes from the cycle the attempt stopped at.\n\
         --state-dir DIR persists the result cache to an fsync'd append\n\
         log under DIR and replays it on restart (crash-safe: a torn tail\n\
         is truncated, committed entries survive SIGKILL).\n\
         --chaos-store-* arm fault injection on the persistence path.\n\
         \n\
         Routes: POST /simulate, GET /healthz, GET /stats, POST /admin/drain."
    );
    std::process::exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:8080".to_string();
    let mut cfg = ServeConfig::default();
    let mut chaos = ServiceChaos::off();
    let mut args = std::env::args().skip(1);
    let next = |args: &mut dyn Iterator<Item = String>, what: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("missing value for {what}");
            usage()
        })
    };
    macro_rules! num {
        ($args:expr, $flag:expr) => {
            next($args, $flag).parse().unwrap_or_else(|_| usage())
        };
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => addr = next(&mut args, "--addr"),
            "--workers" => cfg.workers = num!(&mut args, "--workers"),
            "--queue-cap" => cfg.admission.queue_cap = num!(&mut args, "--queue-cap"),
            "--tenant-quota" => cfg.admission.tenant_quota = num!(&mut args, "--tenant-quota"),
            "--max-queue-wait-ms" => {
                cfg.admission.max_queue_wait_ms = num!(&mut args, "--max-queue-wait-ms");
            }
            "--cache-entries" => cfg.cache_entries = num!(&mut args, "--cache-entries"),
            "--max-retries" => cfg.pool.max_retries = num!(&mut args, "--max-retries"),
            "--attempt-deadline-ms" => {
                cfg.pool.attempt_deadline_ms = num!(&mut args, "--attempt-deadline-ms");
            }
            "--state-dir" => {
                cfg.state_dir = Some(std::path::PathBuf::from(next(&mut args, "--state-dir")));
            }
            "--chaos-seed" => chaos.seed = num!(&mut args, "--chaos-seed"),
            "--chaos-store-torn-ppm" => {
                chaos.store_torn_ppm = num!(&mut args, "--chaos-store-torn-ppm");
            }
            "--chaos-store-short-ppm" => {
                chaos.store_short_ppm = num!(&mut args, "--chaos-store-short-ppm");
            }
            "--chaos-store-flip-ppm" => {
                chaos.store_flip_ppm = num!(&mut args, "--chaos-store-flip-ppm");
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    cfg.chaos = chaos;
    if chaos.enabled() {
        eprintln!(
            "service chaos armed: seed {} store torn {}ppm short {}ppm flip {}ppm",
            chaos.seed, chaos.store_torn_ppm, chaos.store_short_ppm, chaos.store_flip_ppm
        );
    }
    let (nworkers, ncache) = (cfg.workers, cfg.cache_entries);
    let service = Arc::new(Service::start(cfg));
    let server = match HttpServer::serve(&addr, Arc::clone(&service)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "bows-serve listening on {} ({} workers, {}-entry cache)",
        server.addr(),
        nworkers,
        ncache
    );
    // Serve until killed. A drain (POST /admin/drain) flips /healthz to
    // 503 so an orchestrator can stop routing, then terminate us.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
