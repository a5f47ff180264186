//! Drives the `rodentbench` binary at `--quick` size (1/50 of the rows) and
//! holds it to `BENCHMARK.json`: every declared metric is emitted and nothing
//! else, one seed gives one op sequence and one set of counts, another seed
//! gives another sequence.

use rodentbench::json::Json;
use rodentbench::workloads::WORKLOADS;
use std::collections::BTreeSet;
use std::process::Command;

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn benchmark() -> Json {
    let text = std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json at the repo root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(section: &str) -> BTreeSet<String> {
    benchmark()
        .get(section)
        .expect("section present")
        .items()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

struct Run {
    result: Json,
    op_hash: String,
}

impl Run {
    fn metric(&self, name: &str) -> f64 {
        self.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("metric {name} emitted"))
    }

    fn names(&self) -> BTreeSet<String> {
        self.result
            .get("metrics")
            .expect("metrics object")
            .members()
            .iter()
            .map(|(name, _)| name.clone())
            .collect()
    }
}

fn quick(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_rodentbench"))
        .args(["--workload", workload, "--quick", "--seconds", "1"])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env_remove("RODENTSTORE_MMAP")
        .env_remove("RODENTSTORE_BENCH_SMOKE")
        .output()
        .expect("rodentbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} exited with {:?}\n{stderr}",
        out.status.code()
    );
    let result = Json::parse(stdout.lines().last().expect("a result line")).expect("result parses");
    let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{stderr}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{stderr}"
    );
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let op_hash = stderr
        .split_whitespace()
        .find_map(|word| word.strip_prefix("op_hash="))
        .expect("op_hash on the context line")
        .to_string();
    Run { result, op_hash }
}

#[test]
fn benchmark_json_meets_the_contract() {
    let spec = benchmark();
    let keys: Vec<&str> = spec.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let name_ok = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let workloads = spec.get("workloads").unwrap().items();
    assert!((2..=8).contains(&workloads.len()));
    let mut names = BTreeSet::new();
    for (w, ours) in workloads.iter().zip(&WORKLOADS) {
        let name = w.get("name").and_then(Json::as_str).unwrap();
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert_eq!(name, ours.name);
        assert_eq!(
            why, ours.why,
            "BENCHMARK.json and workloads.rs give the same reason"
        );
        assert!(why.len() <= 200 && !why.contains('\n'));
        assert!(name_ok(name) && names.insert(name.to_string()));
    }
    let end_to_end = spec.get("end_to_end").unwrap().items();
    assert!((1..=16).contains(&end_to_end.len()));
    for m in end_to_end {
        let name = m.get("name").and_then(Json::as_str).unwrap();
        assert!(name_ok(name) && names.insert(name.to_string()), "{name}");
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
        assert!(matches!(
            m.get("better").and_then(Json::as_str),
            Some("lower" | "higher")
        ));
    }
    let setup = end_to_end
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        .expect("setup_s declared");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    let per_layer = spec.get("per_layer").unwrap().items();
    assert!((1..=128).contains(&per_layer.len()));
    for m in per_layer {
        let name = m.get("name").and_then(Json::as_str).unwrap();
        assert!(name_ok(name) && names.insert(name.to_string()), "{name}");
        assert!(
            m.get("bound").is_none(),
            "{name}: per-layer metrics carry no bound"
        );
    }
    // Units agree with what the runner emits.
    for (section, ours) in [
        ("end_to_end", &rodentbench::metrics::END_TO_END[..]),
        ("per_layer", &rodentbench::metrics::PER_LAYER[..]),
    ] {
        let theirs: Vec<(String, String)> = spec
            .get(section)
            .unwrap()
            .items()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect();
        let ours: Vec<(String, String)> = ours
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(theirs, ours, "{section}");
    }
    assert!(std::fs::metadata(BENCHMARK_JSON).unwrap().len() <= 64 * 1024);
}

#[test]
fn every_workload_emits_exactly_the_declared_end_to_end_metrics() {
    let want = declared("end_to_end");
    for w in &WORKLOADS {
        let run = quick(w.name, 7, false);
        assert_eq!(run.names(), want, "{}", w.name);
        for name in &want {
            assert!(
                run.metric(name) > 0.0,
                "{}: {name} must never read 0",
                w.name
            );
        }
    }
}

#[test]
fn every_workload_emits_exactly_the_declared_per_layer_metrics_and_a_span_file() {
    let want = declared("per_layer");
    for w in &WORKLOADS {
        let run = quick(w.name, 7, true);
        assert_eq!(run.names(), want, "{}", w.name);
        let spans = format!("target/rodentbench/trace-{}.json", w.name);
        let parsed = Json::parse(&std::fs::read_to_string(&spans).expect("span file written"))
            .expect("span file parses");
        assert!(!parsed.items().is_empty(), "{spans} holds spans");
        let first = &parsed.items()[0];
        for key in ["name", "start_ns", "end_ns", "parent", "op_id"] {
            assert!(first.get(key).is_some(), "span has `{key}`");
        }
        assert!(run.metric("trace.overhead_ratio") > 0.0);
    }
}

#[test]
fn one_seed_one_sequence_and_one_set_of_counts() {
    for w in &WORKLOADS {
        let (a, b, other) = (
            quick(w.name, 11, false),
            quick(w.name, 11, false),
            quick(w.name, 12, false),
        );
        assert_eq!(a.op_hash, b.op_hash, "{}: same seed, same ops", w.name);
        assert_ne!(
            a.op_hash, other.op_hash,
            "{}: another seed, other ops",
            w.name
        );
        // Where the layout is declared, the bytes on disk are a pure function
        // of the seed. (The adaptive loop's layout depends on the questions
        // asked, which differ from cycle to cycle, and the number of cycles
        // a run makes depends on the machine.)
        if w.name != "cartel_adaptive" {
            assert_eq!(a.metric("space_amp"), b.metric("space_amp"), "{}", w.name);
        }
    }
    // So are the layers' counts.
    for name in ["cartel_spatial", "telemetry_ingest", "telemetry_scan"] {
        let (a, b) = (quick(name, 11, true), quick(name, 11, true));
        for metric in [
            "layout.scan.pages_per_query.n1",
            "layout.scan.pages_per_query.n2",
            "layout.scan.pages_per_query.n3",
            "layout.scan.pages_per_query.n4",
            "layout.lsm.spills",
            "storage.wal.bytes_per_user_byte",
            "storage.pager.file_bytes",
        ] {
            assert_eq!(a.metric(metric), b.metric(metric), "{name}: {metric}");
        }
    }
}

#[test]
fn refuses_environment_switches_and_unknown_workloads() {
    let run = |args: &[&str], env: Option<&str>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_rodentbench"));
        cmd.args(args)
            .env_remove("RODENTSTORE_MMAP")
            .env_remove("RODENTSTORE_BENCH_SMOKE");
        if let Some(var) = env {
            cmd.env(var, "1");
        }
        let out = cmd.output().expect("rodentbench runs");
        (out.status.code(), String::from_utf8(out.stdout).unwrap())
    };
    let base = [
        "--workload",
        "cartel_spatial",
        "--quick",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ];
    for var in ["RODENTSTORE_MMAP", "RODENTSTORE_BENCH_SMOKE"] {
        let (code, stdout) = run(&base, Some(var));
        assert_eq!(code, Some(2), "{var} must be refused");
        assert!(stdout.is_empty(), "no result line on refusal");
    }
    let (code, stdout) = run(
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        None,
    );
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty());
    let (code, _) = run(&[], None);
    assert_eq!(code, Some(2));
}
