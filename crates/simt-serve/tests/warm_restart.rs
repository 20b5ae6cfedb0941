//! Warm-restart e2e: a `Service` started on a `--state-dir` that a
//! previous instance populated must serve the old results as cache hits —
//! byte-identical bodies, no re-simulation — and report them in
//! `persisted_entries`. The determinism of the simulator makes this
//! checkable to the byte: any divergence between the pre-restart body and
//! the post-restart hit is a durability bug, not noise.

use simt_serve::{ServeConfig, Service, SimRequest};
use std::path::{Path, PathBuf};
use std::time::Duration;

const VEC_KERNEL_REQ: &str = r#"{"kernel":".kernel inc\n.regs 8\n.params 1\n    ld.param r1, [0]\n    mov r2, %gtid\n    shl r2, r2, 2\n    add r1, r1, r2\n    ld.global r3, [r1]\n    add r3, r3, 1\n    st.global [r1], r3\n    exit\n","tpc":32,"params":[{"buf":32,"fill":5}],"dumps":[[0,4]]}"#;

const HIST_KERNEL_REQ: &str = r#"{"kernel":".kernel hist\n.regs 8\n.params 1\n    ld.param r1, [0]\n    mov r2, %gtid\n    and r2, r2, 3\n    shl r2, r2, 2\n    add r1, r1, r2\n    atom.global.add r3, [r1], 1\n    exit\n","tpc":32,"params":[{"buf":4,"fill":0}],"dumps":[[0,4]]}"#;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bows-warm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn cfg(dir: &Path) -> ServeConfig {
    ServeConfig {
        workers: 2,
        state_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    }
}

#[test]
fn restart_on_same_state_dir_serves_committed_results_as_hits() {
    let dir = tmp_dir("e2e");
    let reqs: Vec<SimRequest> = [VEC_KERNEL_REQ, HIST_KERNEL_REQ]
        .iter()
        .map(|j| SimRequest::from_json(j).unwrap())
        .collect();

    // Generation 1: populate the cache cold, capture the bodies.
    let svc = Service::start(cfg(&dir));
    let cold: Vec<String> = reqs
        .iter()
        .map(|r| {
            let resp = svc.submit(r.clone());
            assert_eq!(resp.status, 200, "body: {}", resp.body);
            assert!(!resp.cached);
            resp.body
        })
        .collect();
    let stats = svc.stats_json().render();
    assert!(
        stats.contains("\"persisted_entries\":2"),
        "gen-1 stats must count both committed entries: {stats}"
    );
    assert!(svc.drain(Duration::from_secs(10)));

    // Generation 2: a fresh Service on the same state dir. Every request
    // must hit — the bodies crossed the restart through the log, not
    // through re-simulation.
    let svc2 = Service::start(cfg(&dir));
    for (req, cold_body) in reqs.iter().zip(&cold) {
        let warm = svc2.submit(req.clone());
        assert_eq!(warm.status, 200);
        assert!(warm.cached, "restarted service must serve a warm hit");
        assert_eq!(
            &warm.body, cold_body,
            "warm body must be byte-identical to the pre-restart body"
        );
    }
    let stats = svc2.stats_json().render();
    assert!(
        stats.contains("\"store_recovered_entries\":2"),
        "gen-2 must report the recovered log entries: {stats}"
    );
    assert!(
        stats.contains("\"persisted_entries\":2"),
        "gen-2 index must carry the recovered keys: {stats}"
    );
    assert!(svc2.drain(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_state_dir_parent_degrades_to_in_memory() {
    // An unopenable store (path under a file, not a dir) must not stop the
    // service: it warns and runs in-memory.
    let dir = tmp_dir("deg");
    std::fs::create_dir_all(&dir).unwrap();
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let svc = Service::start(cfg(&blocker.join("sub")));
    let req = SimRequest::from_json(VEC_KERNEL_REQ).unwrap();
    let resp = svc.submit(req);
    assert_eq!(
        resp.status, 200,
        "service must still simulate: {}",
        resp.body
    );
    let stats = svc.stats_json().render();
    assert!(stats.contains("\"persisted_entries\":0"), "stats: {stats}");
    assert!(svc.drain(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(&dir);
}
