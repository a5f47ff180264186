//! Criterion bench for the streaming scan engine: rows/sec for a full scan,
//! a projected scan, and a selective predicate scan over the N1 (raw rows)
//! and N4 (z-curve + delta column blocks) figure-2 designs.
//!
//! Each benchmark also prints a `throughput:` line (rows/sec derived from one
//! untimed run) so the perf trajectory can be recorded in CHANGES.md without
//! post-processing criterion output.
//!
//! Set `RODENTSTORE_BENCH_SMOKE=1` to run in smoke mode (tiny dataset, one
//! timed iteration) — CI uses this to keep the bench binary from bit-rotting.
//!
//! Also measures the cost of the observability layer itself: interleaved
//! `Database` scans with metrics recording enabled vs disabled, asserted to
//! stay within 5% of each other, with the reported numbers taken from the
//! metrics registry. Writes `BENCH_scan_hot_path.json` at the workspace root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rodentstore::{Condition, Database, ScanRequest, Value};
use rodentstore_algebra::{DataType, Field, Schema};
use rodentstore_bench::{build_designs, Figure2Config};
use std::path::PathBuf;
use std::time::Instant;

fn smoke_mode() -> bool {
    std::env::var("RODENTSTORE_BENCH_SMOKE").is_ok_and(|v| v != "0")
}

fn config() -> Figure2Config {
    if smoke_mode() {
        Figure2Config {
            observations: 2_000,
            queries: 4,
            ..Figure2Config::small()
        }
    } else {
        Figure2Config::small()
    }
}

/// The three scan shapes measured against every design. Each design exposes
/// at least `lat` and `lon`; N1 additionally stores `t` and `id`, which is
/// exactly what makes its projected scan interesting (the wide fields must
/// be skipped, not decoded).
fn requests(queries: &[rodentstore_workload::SpatialQuery]) -> Vec<(&'static str, ScanRequest)> {
    vec![
        ("full", ScanRequest::all()),
        ("projected", ScanRequest::all().fields(["lat"])),
        (
            "selective",
            ScanRequest::all().predicate(queries[0].to_condition()),
        ),
    ]
}

fn bench_scan_hot_path(c: &mut Criterion) {
    let config = config();
    let designs = build_designs(&config);
    let mut group = c.benchmark_group("scan_hot_path");
    group.sample_size(if smoke_mode() { 1 } else { 10 });

    for design in &designs.layouts {
        let label = &design.label;
        if !(label.starts_with("N1") || label.starts_with("N4")) {
            continue;
        }
        let short = if label.starts_with("N1") { "N1" } else { "N4" };
        for (shape, request) in requests(&designs.queries) {
            // One untimed run for the throughput line.
            let start = Instant::now();
            let rows = design.access.scan(&request).expect("scan").len();
            let elapsed = start.elapsed().as_secs_f64();
            println!(
                "scan_hot_path/{short}/{shape}: {rows} rows out, {:.0} rows/sec (single run)",
                rows as f64 / elapsed.max(1e-9)
            );
            group.bench_with_input(
                BenchmarkId::new(shape, short),
                &request,
                |b, request| b.iter(|| design.access.scan(request).expect("scan").len()),
            );
        }
    }
    group.finish();
}

/// The observability layer must be invisible on the scan hot path: recording
/// is relaxed atomics only, so enabling metrics may cost at most 5% over the
/// same scans with recording disabled.
///
/// Interleaved A/B trials (alternating which side runs first within each
/// pair) cancel clock drift and cache-warming bias; the medians are compared
/// with a small absolute floor so micro-jitter on very fast scans cannot
/// produce a spurious failure. All reported numbers come from the metrics
/// registry itself, not from ad-hoc bench-local counters.
fn bench_metrics_overhead(_c: &mut Criterion) {
    let rows_total = if smoke_mode() { 4_000usize } else { 20_000usize };
    let trials = if smoke_mode() { 41usize } else { 81usize };

    let db = Database::in_memory();
    db.create_table(Schema::new(
        "Obs",
        vec![
            Field::new("x", DataType::Float),
            Field::new("y", DataType::Float),
            Field::new("tag", DataType::Int),
        ],
    ))
    .expect("create table");
    let rows: Vec<Vec<Value>> = (0..rows_total as i64)
        .map(|i| {
            vec![
                Value::Float((i % 1_000) as f64),
                Value::Float((i * 37 % 500) as f64),
                Value::Int(i % 16),
            ]
        })
        .collect();
    db.insert("Obs", rows).expect("insert");
    db.apply_layout_text("Obs", "vertical[x|y,tag](Obs)").expect("layout");
    let request = ScanRequest::all().predicate(Condition::range("x", 100.0, 600.0));

    // Warm both sides before timing anything.
    for _ in 0..4 {
        db.set_metrics_enabled(true);
        db.scan("Obs", &request).expect("scan");
        db.set_metrics_enabled(false);
        db.scan("Obs", &request).expect("scan");
    }

    let timed = |db: &Database, enabled: bool| {
        db.set_metrics_enabled(enabled);
        let start = Instant::now();
        let n = db.scan("Obs", &request).expect("scan").len();
        (start.elapsed().as_secs_f64(), n)
    };
    let mut enabled_secs = Vec::with_capacity(trials);
    let mut disabled_secs = Vec::with_capacity(trials);
    for i in 0..trials {
        if i % 2 == 0 {
            enabled_secs.push(timed(&db, true).0);
            disabled_secs.push(timed(&db, false).0);
        } else {
            disabled_secs.push(timed(&db, false).0);
            enabled_secs.push(timed(&db, true).0);
        }
    }
    db.set_metrics_enabled(true);
    let median = |samples: &mut Vec<f64>| {
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        samples[samples.len() / 2]
    };
    let enabled_med = median(&mut enabled_secs);
    let disabled_med = median(&mut disabled_secs);
    let ratio = enabled_med / disabled_med.max(1e-12);
    println!(
        "scan_hot_path/metrics_overhead: enabled {:.1}us vs disabled {:.1}us → {:.3}× ({} trials)",
        enabled_med * 1e6,
        disabled_med * 1e6,
        ratio,
        trials
    );
    assert!(
        enabled_med <= disabled_med * 1.05 + 20e-6,
        "metrics recording must cost ≤5% on the scan hot path, got {ratio:.3}× \
         (enabled {enabled_med:.9}s vs disabled {disabled_med:.9}s)"
    );

    // Report from the registry: the enabled-side scans were recorded there.
    let metrics = db.metrics();
    let scan_count = metrics.counter("scan.count").unwrap_or(0);
    let scan_rows = metrics.counter("scan.rows").unwrap_or(0);
    let scan_pages = metrics.counter("scan.pages").unwrap_or(0);
    let scan_micros = metrics
        .histogram("scan.micros")
        .expect("scan.micros recorded");
    assert!(scan_count > 0, "enabled scans must reach the registry");

    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root
        .canonicalize()
        .unwrap_or(root)
        .join("BENCH_scan_hot_path.json");
    let json = format!(
        "{{\n  \"mode\": \"{}\",\n  \"rows\": {rows_total},\n  \"trials\": {trials},\n  \
         \"enabled_median_us\": {:.2},\n  \"disabled_median_us\": {:.2},\n  \
         \"overhead_ratio\": {ratio:.4},\n  \"asserted_maximum_ratio\": 1.05,\n  \
         \"metrics\": {{\n    \"scan.count\": {scan_count},\n    \"scan.rows\": {scan_rows},\n    \
         \"scan.pages\": {scan_pages},\n    \"scan.micros\": {{\"count\": {}, \"p50\": {}, \
         \"p99\": {}, \"max\": {}}}\n  }}\n}}\n",
        if smoke_mode() { "smoke" } else { "full" },
        enabled_med * 1e6,
        disabled_med * 1e6,
        scan_micros.count,
        scan_micros.p50,
        scan_micros.p99,
        scan_micros.max,
    );
    std::fs::write(&path, json).expect("write BENCH_scan_hot_path.json");
    println!("scan_hot_path/json → {}", path.display());
}

criterion_group!(benches, bench_scan_hot_path, bench_metrics_overhead);
criterion_main!(benches);
