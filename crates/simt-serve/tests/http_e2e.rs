//! End-to-end HTTP test: boot the real server on an ephemeral port and
//! exercise every route and status code through the real client.

use simt_serve::http::client;
use simt_serve::{HttpServer, Json, ServeConfig, Service};
use std::sync::Arc;

const GOOD_BODY: &str = r#"{"kernel":".kernel t\n.regs 8\n.params 1\n    ld.param r1, [0]\n    mov r2, %gtid\n    shl r2, r2, 2\n    add r1, r1, r2\n    ld.global r3, [r1]\n    add r3, r3, 1\n    st.global [r1], r3\n    exit\n","tpc":32,"params":[{"buf":32,"fill":7}],"dumps":[[0,4]]}"#;

#[test]
fn full_http_round_trip() {
    let service = Arc::new(Service::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }));
    let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let addr = server.addr().to_string();

    // Liveness.
    let health = client::get(&addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body.contains("ok"));

    // Cold simulate: 200, MISS, well-formed body with the expected dump.
    let cold = client::post(&addr, "/simulate", GOOD_BODY).unwrap();
    assert_eq!(cold.status, 200, "body: {}", cold.body);
    assert_eq!(cold.x_cache.as_deref(), Some("MISS"));
    let parsed = Json::parse(&cold.body).unwrap();
    let dump = parsed.get("dumps").unwrap().get("0").unwrap();
    assert_eq!(
        dump.as_array("dump").unwrap(),
        &vec![Json::UInt(8); 4],
        "fill 7 incremented once"
    );

    // Warm simulate: byte-identical, HIT.
    let warm = client::post(&addr, "/simulate", GOOD_BODY).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.x_cache.as_deref(), Some("HIT"));
    assert_eq!(warm.body, cold.body);

    // Malformed JSON and invalid requests: 400 with a structured error.
    // The last one used to pass validation, simulate, and panic the worker
    // reading 4096 words out of a 1-word buffer.
    for bad in [
        "{not json",
        "{}",
        r#"{"kernel":"x","gpu":"h100"}"#,
        r#"{"kernel":"x","params":[{"buf":1}],"dumps":[[0,4096]]}"#,
    ] {
        let resp = client::post(&addr, "/simulate", bad).unwrap();
        assert_eq!(resp.status, 400, "for {bad}");
        let e = Json::parse(&resp.body).unwrap();
        assert!(e.get("error").unwrap().get("kind").is_ok());
    }

    // A kernel the assembler rejects: structured 422.
    let resp = client::post(&addr, "/simulate", r#"{"kernel":"garbage here"}"#).unwrap();
    assert_eq!(resp.status, 422);
    assert!(resp.body.contains("asm_error"), "body: {}", resp.body);

    // Unknown route and wrong method.
    assert_eq!(client::get(&addr, "/nope").unwrap().status, 404);
    assert_eq!(client::get(&addr, "/simulate").unwrap().status, 405);
    assert_eq!(client::post(&addr, "/healthz", "").unwrap().status, 405);

    // Stats reflect the traffic.
    let stats = client::get(&addr, "/stats").unwrap();
    assert_eq!(stats.status, 200);
    let s = Json::parse(&stats.body).unwrap();
    assert!(s.get("requests").unwrap().as_u64("requests").unwrap() >= 2);
    assert_eq!(s.get("cache_hits").unwrap().as_u64("hits").unwrap(), 1);

    // Drain: health flips, new work is refused with Retry-After, but a
    // cached result may still serve.
    assert_eq!(client::post(&addr, "/admin/drain", "").unwrap().status, 200);
    assert_eq!(client::get(&addr, "/healthz").unwrap().status, 503);
    let refused = client::post(
        &addr,
        "/simulate",
        r#"{"kernel":".kernel t\n.regs 4\n    mov r1, 2\n    exit\n","tpc":32}"#,
    )
    .unwrap();
    assert_eq!(refused.status, 503);
    assert!(
        refused.retry_after.is_some(),
        "sheds must carry Retry-After"
    );
    assert!(refused.body.contains("draining"));
    let still_cached = client::post(&addr, "/simulate", GOOD_BODY).unwrap();
    assert_eq!(still_cached.status, 200);
    assert_eq!(still_cached.x_cache.as_deref(), Some("HIT"));

    server.stop();
}

#[test]
fn hostile_inputs_are_refused_without_killing_the_service() {
    use std::io::{Read, Write};

    let service = Arc::new(Service::start(ServeConfig::default()));
    let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let addr = server.addr().to_string();

    // A JSON nesting bomb inside the body cap: must be a 400 from the
    // parser's depth limit, not a parser-recursion stack overflow (which
    // would abort the whole process).
    let bomb = "[".repeat(600_000);
    let resp = client::post(&addr, "/simulate", &bomb).unwrap();
    assert_eq!(resp.status, 400, "body: {}", resp.body);
    assert!(resp.body.contains("nesting"), "body: {}", resp.body);

    // An endless header line (no terminator): the bounded reader must cut
    // it off at the header cap instead of buffering it forever. The
    // server may reset the connection while we still hold unread junk, so
    // tolerate a transport error — the service surviving is the contract.
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let _ = raw.write_all(b"GET /healthz HTTP/1.1\r\nX-Junk: ");
    let _ = raw.write_all(&vec![b'a'; 64 * 1024]);
    let _ = raw.flush();
    let mut out = String::new();
    let _ = raw.read_to_string(&mut out);
    if !out.is_empty() {
        assert!(out.starts_with("HTTP/1.1 400"), "got: {out:?}");
    }
    drop(raw);

    // The service survived both attacks.
    assert_eq!(client::get(&addr, "/healthz").unwrap().status, 200);
    server.stop();
}

/// The pre-admission lint: a kernel the static analyzer proves racy or
/// deadlocking is refused with a structured 422 carrying the full
/// diagnostic list and its machine-readable witness, before any worker
/// or queue slot is spent. Clean fixtures pass through untouched.
#[test]
fn racy_kernels_are_rejected_with_a_structured_422() {
    let service = Arc::new(Service::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }));
    let server = HttpServer::serve("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let addr = server.addr().to_string();

    let mut rejected = 0u64;
    for f in workloads::racy::RACY_FIXTURES.iter().filter(|f| f.is_bad()) {
        let body = Json::Obj(vec![
            ("kernel".into(), Json::Str(f.source.into())),
            ("tpc".into(), Json::UInt(32)),
        ])
        .render();
        let resp = client::post(&addr, "/simulate", &body).unwrap();
        assert_eq!(resp.status, 422, "{}: body {}", f.name, resp.body);
        let parsed = Json::parse(&resp.body).unwrap();
        let err = parsed.get("error").unwrap();
        assert_eq!(
            err.get("kind").unwrap().as_str("kind").unwrap(),
            "lint_rejected",
            "{}",
            f.name
        );
        let diags = err
            .get("diagnostics")
            .unwrap()
            .as_array("diagnostics")
            .unwrap();
        let mut names: Vec<&str> = diags
            .iter()
            .map(|d| d.get("lint").unwrap().as_str("lint").unwrap())
            .collect();
        names.sort_unstable();
        assert_eq!(names, f.expected_lints, "{}: exact diagnostic set", f.name);
        // Every race/deadlock-class diagnostic carries a machine-readable
        // witness (pre-existing structural lints like divergent-barrier
        // don't have one).
        let witnessed = [
            "data-race",
            "cross-phase-race",
            "divergent-barrier-race",
            "missing-release",
            "lock-cycle",
            "simt-deadlock",
        ];
        for d in diags {
            let lint = d.get("lint").unwrap().as_str("lint").unwrap();
            if witnessed.contains(&lint) {
                assert!(
                    d.get("witness").is_ok(),
                    "{}: {lint} diagnostic lacks a witness\nbody: {}",
                    f.name,
                    resp.body
                );
            }
        }
        rejected += 1;
    }

    // The rejections are counted, and none of them reached a worker.
    let stats = client::get(&addr, "/stats").unwrap();
    let s = Json::parse(&stats.body).unwrap();
    assert_eq!(
        s.get("lint_rejections")
            .unwrap()
            .as_u64("lint_rejections")
            .unwrap(),
        rejected
    );
    assert_eq!(s.get("admitted").unwrap().as_u64("admitted").unwrap(), 0);

    server.stop();
}

/// Worker panics, slowness and cache corruption are armed in-process (the
/// `serve_chaos` drill sets `ServiceChaos` itself); `bows-serve` has no
/// flags for them, so each is refused as an unknown flag. The address
/// cannot be bound, so a flag that parsed would exit 1, not serve forever.
#[test]
fn bows_serve_refuses_the_service_chaos_flags() {
    for flag in [
        "--chaos-panic-ppm",
        "--chaos-slow-ppm",
        "--chaos-slow-ms",
        "--chaos-corrupt-ppm",
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_bows-serve"))
            .args(["--addr", "127.0.0.1:no-port", flag, "1000"])
            .output()
            .expect("spawn bows-serve");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: bows-serve"), "{flag}: {stderr}");
    }
}
