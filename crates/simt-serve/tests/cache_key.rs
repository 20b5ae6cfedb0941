//! Cache-key soundness: the content-addressed result cache must never
//! serve bytes that differ from a cold simulation of the same request, and
//! requests that can produce different results must never share a key.
//!
//! The engine is not part of a request. The two engines are bit-identical
//! by construction (the event-horizon fast-forward invariant), so a body
//! that still names one is the same request as a body that does not: an
//! `"engine"` member is ignored like any other unknown member.

use simt_serve::{ServeConfig, Service, ServiceChaos, SimRequest};
use std::time::Duration;

const KERNEL: &str = ".kernel inc\n.regs 8\n.params 1\n    ld.param r1, [0]\n    mov r2, %gtid\n    shl r2, r2, 2\n    add r1, r1, r2\n    ld.global r3, [r1]\n    add r3, r3, 1\n    st.global [r1], r3\n    exit\n";

/// The request body, with `extra` members spliced in before the dumps.
fn body(extra: &str) -> String {
    format!(
        "{{\"kernel\":{},\"ctas\":2,\"tpc\":32,\"params\":[{{\"buf\":64,\"fill\":3}}],\
         {extra}\"dumps\":[[0,8]]}}",
        simt_serve::json::json_string(KERNEL)
    )
}

fn request(chaos_seed: Option<u64>) -> SimRequest {
    let chaos = chaos_seed.map_or(String::new(), |s| format!("\"chaos_seed\":{s},"));
    SimRequest::from_json(&body(&chaos)).unwrap()
}

fn quiet_service() -> Service {
    Service::start(ServeConfig {
        workers: 2,
        chaos: ServiceChaos::off(),
        ..ServeConfig::default()
    })
}

/// A body naming an engine parses to the request without it: same key, and
/// its second submit is a hit with the cold bytes.
#[test]
fn an_engine_member_changes_nothing() {
    let plain = request(None);
    let named = SimRequest::from_json(&body("\"engine\":\"cycle\",")).unwrap();
    assert_eq!(named, plain);
    assert_eq!(named.cache_key(), plain.cache_key());

    let svc = quiet_service();
    let cold = svc.submit(named.clone());
    assert_eq!(cold.status, 200);
    assert!(!cold.cached);
    let warm = svc.submit(named);
    assert!(warm.cached, "second submit must hit the cache");
    assert_eq!(cold.body, warm.body, "cache served different bytes");
    assert!(svc.drain(Duration::from_secs(10)));
}

/// Differing memory-chaos seeds are differing simulations: distinct keys,
/// and a warm cache for one seed never answers for another.
#[test]
fn chaos_seeds_never_collide() {
    let s1 = request(Some(1));
    let s2 = request(Some(2));
    let clean = request(None);
    assert_ne!(s1.cache_key(), s2.cache_key());
    assert_ne!(s1.cache_key(), clean.cache_key());

    let svc = quiet_service();
    let r1 = svc.submit(s1.clone());
    let r2 = svc.submit(s2);
    assert_eq!(r1.status, 200);
    assert_eq!(r2.status, 200);
    assert!(!r2.cached);
    // Same seed replays bit-exactly — and therefore hits.
    let replay = svc.submit(s1);
    assert!(replay.cached);
    assert_eq!(replay.body, r1.body);
    assert!(svc.drain(Duration::from_secs(10)));
}
