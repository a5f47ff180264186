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
//! Also runs an interleaved A/B of the zero-copy frame read path against the
//! forced-copy fallback (`Database::set_copy_reads`) on an N1-projected full
//! scan, asserting the frame path is at least 1.3x faster; the same A/B for
//! the column-chunk source against the owned fallback over copied pages on a
//! projected scan of delta-compressed column groups; and measures the
//! cost of the observability layer itself: interleaved `Database` scans with
//! metrics recording enabled vs disabled, asserted to stay within 5% of each
//! other, with the reported numbers taken from the metrics registry. Writes
//! `BENCH_scan_hot_path.json` at the workspace root.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rodentstore::{Condition, Database, ScanRequest, Value};
use rodentstore_algebra::comprehension::{CmpOp, ElemExpr};
use rodentstore_algebra::{DataType, Field, Schema};
use rodentstore_bench::{build_designs, Figure2Config};
use rodentstore_workload::telemetry::{generate_telemetry, telemetry_schema, TelemetryConfig};
use rodentstore_workload::{generate_traces, traces_schema, CartelConfig};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

/// Results of the column-source A/B, relayed into the JSON like
/// [`FRAME_RESULT`]: `(borrowed_us, owned_us, speedup)`.
static COLUMN_RESULT: OnceLock<(f64, f64, f64)> = OnceLock::new();

/// Interleaved A/B of one scan under two configurations: warms both sides,
/// then times `trials` pairs (alternating which side goes first, result drop
/// outside the timed window) and returns the two median seconds.
fn interleaved(
    trials: usize,
    rows: usize,
    mut scan: impl FnMut(bool) -> Vec<Vec<Value>>,
) -> (f64, f64) {
    let mut run = |side: bool| {
        let start = Instant::now();
        let out = scan(side);
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(out.len(), rows);
        secs
    };
    for _ in 0..3 {
        run(false);
        run(true);
    }
    let (mut a, mut b) = (Vec::with_capacity(trials), Vec::with_capacity(trials));
    for i in 0..trials {
        if i % 2 == 0 {
            a.push(run(false));
            b.push(run(true));
        } else {
            b.push(run(true));
            a.push(run(false));
        }
    }
    let median = |samples: &mut Vec<f64>| {
        samples.sort_by(|x, y| x.partial_cmp(y).unwrap());
        samples[samples.len() / 2]
    };
    (median(&mut a), median(&mut b))
}

/// Results of the frame-vs-copy A/B, relayed into the JSON written by
/// [`bench_metrics_overhead`] (criterion runs groups in declaration order):
/// `(frame_us, copy_us, speedup, frame_hits, frame_copies)`.
static FRAME_RESULT: OnceLock<(f64, f64, f64, u64, u64)> = OnceLock::new();

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

/// The zero-copy acceptance gate: an interleaved A/B of the shared-frame
/// read path against the legacy copy-out path (toggled in place with
/// [`Database::set_copy_reads`]) on an N1-projected full-table scan. The
/// frame path decodes borrowed field references straight out of shared page
/// frames and materializes rows directly into the result vector; the copy
/// path is the pre-existing copy-out + decode-owned pipeline, kept as the
/// fallback. The frame path must deliver at least 1.3× the copy path's
/// throughput, and the two sides must agree row-for-row.
fn bench_frame_path(_c: &mut Criterion) {
    let observations = if smoke_mode() { 20_000usize } else { 100_000usize };
    let trials = if smoke_mode() { 21usize } else { 41usize };

    let db = Database::in_memory();
    db.create_table(traces_schema()).expect("create table");
    db.insert(
        "Traces",
        generate_traces(&CartelConfig {
            observations,
            vehicles: (observations / 500).max(10),
            ..CartelConfig::default()
        }),
    )
    .expect("insert");
    // Without an applied layout the scan serves from canonical in-memory
    // rows and reads zero pages — the A/B would measure nothing.
    db.apply_layout_text("Traces", "Traces").expect("layout");
    let request = ScanRequest::all().fields(["lat"]);

    // Both sides must produce identical rows before any timing matters.
    db.set_copy_reads(false);
    let frame_rows = db.scan("Traces", &request).expect("scan");
    db.set_copy_reads(true);
    let copy_rows = db.scan("Traces", &request).expect("scan");
    assert_eq!(frame_rows, copy_rows, "frame and copy paths must agree");
    assert_eq!(frame_rows.len(), observations);
    drop((frame_rows, copy_rows));

    let (frame_med, copy_med) = interleaved(trials, observations, |copy| {
        db.set_copy_reads(copy);
        db.scan("Traces", &request).expect("scan")
    });
    db.set_copy_reads(false);
    let speedup = copy_med / frame_med.max(1e-12);

    // Registry-sourced frame accounting: every page read this bench did was
    // either a shared frame or a forced copy.
    let metrics = db.metrics();
    let frame_hits = metrics.counter("scan.frame_hits").unwrap_or(0);
    let frame_copies = metrics.counter("scan.frame_copies").unwrap_or(0);
    assert!(frame_hits > 0, "the frame side must serve shared frames");
    assert!(frame_copies > 0, "the copy side must be forced to copy");

    println!(
        "scan_hot_path/frame_path: frame {:.1}us vs copy {:.1}us → {speedup:.2}× \
         ({observations} rows, {trials} trials, {frame_hits} frame hits, \
         {frame_copies} copies)",
        frame_med * 1e6,
        copy_med * 1e6,
    );
    assert!(
        speedup >= 1.3,
        "the shared-frame path must be ≥1.3× the copy path on N1-projected \
         scans, got {speedup:.3}× (frame {frame_med:.9}s vs copy {copy_med:.9}s)"
    );
    let _ = FRAME_RESULT.set((
        frame_med * 1e6,
        copy_med * 1e6,
        speedup,
        frame_hits,
        frame_copies,
    ));
}

/// The column-chunk source gate: a projected full scan of delta-compressed
/// column groups through the borrowed column source (blocks decoded from
/// shared frames into reused typed vectors, rows materialized straight into
/// the result) against the owned fallback over copied pages — what a
/// predicate with no borrowed form gets: every chunk row becomes an owned
/// record, is buffered, filtered by the owned evaluator and handed up one at
/// a time. The predicate here (`ts <= ts`) is always true, so both sides
/// return the same rows. Both sides decode blocks through the same column
/// reader and allocate the same `Record` per row, so the gap is the
/// buffering, the owned evaluator and the page copies alone: the borrowed
/// source must be at least 1.5× faster (it measures 1.9–2.3×).
fn bench_column_source(_c: &mut Criterion) {
    let readings = if smoke_mode() { 20_000usize } else { 100_000usize };
    let trials = if smoke_mode() { 21usize } else { 41usize };

    let db = Database::in_memory();
    db.create_table(telemetry_schema()).expect("create table");
    db.insert("Telemetry", generate_telemetry(&TelemetryConfig::with_readings(readings)))
        .expect("insert");
    db.apply_layout_text(
        "Telemetry",
        "delta[ts,seq](vertical[ts,value|sensor,status,seq](Telemetry))",
    )
    .expect("layout");
    let borrowed = ScanRequest::all().fields(["ts", "value"]);
    let owned = borrowed.clone().predicate(Condition::Cmp {
        left: ElemExpr::field("ts"),
        op: CmpOp::Le,
        right: ElemExpr::field("ts"),
    });
    assert_eq!(
        db.scan("Telemetry", &borrowed).expect("scan"),
        db.scan("Telemetry", &owned).expect("scan"),
        "both sides must agree"
    );

    let (borrowed_med, owned_med) = interleaved(trials, readings, |fallback| {
        db.set_copy_reads(fallback);
        let request = if fallback { &owned } else { &borrowed };
        db.scan("Telemetry", request).expect("scan")
    });
    db.set_copy_reads(false);
    let speedup = owned_med / borrowed_med.max(1e-12);
    println!(
        "scan_hot_path/column_source: borrowed {:.1}us vs owned+copy {:.1}us → {speedup:.2}× \
         ({readings} rows, {trials} trials)",
        borrowed_med * 1e6,
        owned_med * 1e6,
    );
    assert!(
        speedup >= 1.5,
        "the borrowed column source must be ≥1.5× the owned fallback over copied pages on a \
         projected scan, got {speedup:.3}× (borrowed {borrowed_med:.9}s vs owned {owned_med:.9}s)"
    );
    let _ = COLUMN_RESULT.set((borrowed_med * 1e6, owned_med * 1e6, speedup));
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
    let (frame_us, copy_us, speedup, frame_hits, frame_copies) = FRAME_RESULT
        .get()
        .copied()
        .expect("bench_frame_path runs first in this group");
    let (borrowed_us, owned_us, column_speedup) = COLUMN_RESULT
        .get()
        .copied()
        .expect("bench_column_source runs before this in the group");
    let json = format!(
        "{{\n  \"mode\": \"{}\",\n  \"rows\": {rows_total},\n  \"trials\": {trials},\n  \
         \"enabled_median_us\": {:.2},\n  \"disabled_median_us\": {:.2},\n  \
         \"overhead_ratio\": {ratio:.4},\n  \"asserted_maximum_ratio\": 1.05,\n  \
         \"frame_path\": {{\n    \"frame_median_us\": {frame_us:.2},\n    \
         \"copy_median_us\": {copy_us:.2},\n    \"speedup\": {speedup:.4},\n    \
         \"asserted_minimum_speedup\": 1.3,\n    \"scan.frame_hits\": {frame_hits},\n    \
         \"scan.frame_copies\": {frame_copies}\n  }},\n  \
         \"column_source\": {{\n    \"borrowed_median_us\": {borrowed_us:.2},\n    \
         \"owned_copy_median_us\": {owned_us:.2},\n    \"speedup\": {column_speedup:.4},\n    \
         \"asserted_minimum_speedup\": 1.5\n  }},\n  \
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

criterion_group!(
    benches,
    bench_scan_hot_path,
    bench_frame_path,
    bench_column_source,
    bench_metrics_overhead
);
criterion_main!(benches);
