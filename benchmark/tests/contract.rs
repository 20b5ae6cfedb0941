//! `BENCHMARK.json` and the benchmark must name the same things: a smoke
//! run of every workload prints exactly the metrics the file declares,
//! with the declared units, and passes its own correctness gate.

use simt_serve::json::Json;
use std::path::PathBuf;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json")).expect("valid JSON")
}

/// `(name, unit)` of every entry of a metric list.
fn declared(bench: &Json, list: &str) -> Vec<(String, String)> {
    bench
        .get(list)
        .unwrap()
        .as_array(list)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).unwrap().as_str(k).unwrap().to_string();
            assert!(["lower", "higher"].contains(&field("better").as_str()));
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke(workload: &str, trace: bool) -> Json {
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("tmp-contract-{}", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_bows-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--smoke",
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("benchmark binary runs");
    let _ = std::fs::remove_dir_all(&out);
    assert!(
        run.status.success(),
        "{workload} trace={trace}: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8(run.stdout).expect("UTF-8 output");
    Json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

#[test]
fn smoke_runs_print_exactly_the_declared_metrics() {
    let bench = benchmark_json();
    let workloads: Vec<String> = bench
        .get("workloads")
        .unwrap()
        .as_array("workloads")
        .unwrap()
        .iter()
        .map(|w| w.get("name").unwrap().as_str("name").unwrap().to_string())
        .collect();
    assert_eq!(
        workloads,
        ["dense_sync", "dense_alu", "sparse_latency", "serve_mix"]
    );
    for workload in &workloads {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = smoke(workload, trace);
            let Json::Obj(top) = &result else {
                panic!("result is an object")
            };
            let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct").unwrap(),
                &Json::Bool(true),
                "{workload}"
            );
            assert_eq!(result.get("failed").unwrap(), &Json::UInt(0), "{workload}");
            assert!(
                result
                    .get("attempted")
                    .unwrap()
                    .as_u64("attempted")
                    .unwrap()
                    >= 1
            );
            let Json::Obj(metrics) = result.get("metrics").unwrap() else {
                panic!("metrics")
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    (
                        name.clone(),
                        m.get("unit").unwrap().as_str("unit").unwrap().to_string(),
                    )
                })
                .collect();
            assert_eq!(printed, declared(&bench, list), "{workload} trace={trace}");
            if !trace {
                for (name, m) in metrics {
                    assert_ne!(
                        m.get("value").unwrap(),
                        &Json::UInt(0),
                        "{workload}: {name} is 0"
                    );
                }
            }
        }
    }
}
