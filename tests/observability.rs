//! Conservation and contract tests for the engine observability layer.
//!
//! The central property: the `scan.pages` / `scan.rows` counters the
//! registry accumulates are *the same numbers* the pager's `IoStats` and
//! the returned row sets report — whichever access path (canonical rows,
//! streaming layout scan, index probe, levelled-tier merge, pending-buffer
//! merge) served the query. And `explain` must predict with the cost
//! model's own `estimate_scan_pages` number, so its output is checkable
//! against both `scan_pages` and the post-hoc calibration metrics. The same
//! counters prove aggregate pushdown (same pages, no rows), and a timed A/B
//! bounds the cost of recording them.

use proptest::prelude::*;
use rodentstore::{
    metric_names, AccessPath, AdaptivePolicy, Condition, Database, EventKind, ReorgStrategy,
    ScanRequest, Value,
};
use rodentstore_algebra::{DataType, Field, Schema};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn points_schema() -> Schema {
    Schema::new(
        "Points",
        vec![
            Field::new("x", DataType::Float),
            Field::new("y", DataType::Float),
            Field::new("tag", DataType::Int),
        ],
    )
}

fn points(n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| {
            vec![
                Value::Float(i as f64),
                Value::Float((i * 7 % 100) as f64),
                Value::Int((i % 10) as i64),
            ]
        })
        .collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rodentstore-observability-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Counter delta between two snapshots (absent counters read as 0).
fn delta(
    before: &rodentstore::MetricsSnapshot,
    after: &rodentstore::MetricsSnapshot,
    name: &str,
) -> u64 {
    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
}

/// Counter delta of a catalogued counter. The snapshot holds every
/// catalogued instrument from creation, so a misspelt or renamed name fails
/// here instead of reading 0.
fn catalogued_delta(
    before: &rodentstore::MetricsSnapshot,
    after: &rodentstore::MetricsSnapshot,
    name: &str,
) -> u64 {
    let read = |m: &rodentstore::MetricsSnapshot| {
        m.counter(name)
            .unwrap_or_else(|| panic!("{name} registered"))
    };
    read(after) - read(before)
}

/// Every access path must report the same pages into `scan.pages` that the
/// pager's I/O accounting observed, and the same rows into `scan.rows`
/// that the caller received. Layouts *without* a declared index cover the
/// strict equality case (the calibration probe after the scan reads no
/// pages); the index layout is asserted separately below.
#[test]
fn scan_counters_conserve_io_across_access_paths() {
    let layouts: [Option<&str>; 6] = [
        None, // canonical rows
        Some("Points"),
        Some("vertical[x|y,tag](Points)"),
        Some("lsm[x](Points)"),
        Some("index[x](Points)"),
        Some("index[x,y](Points)"),
    ];
    for layout in layouts {
        let db = Database::in_memory();
        db.set_lsm_params(16, 2);
        db.create_table(points_schema()).unwrap();
        db.insert("Points", points(200)).unwrap();
        if let Some(expr) = layout {
            db.apply_layout_text("Points", expr).unwrap();
        }
        let requests = [
            ScanRequest::all(),
            ScanRequest::all().predicate(Condition::range("x", 20.0, 90.0)),
        ];
        for request in &requests {
            let before = db.metrics();
            let rows = db.scan("Points", request).unwrap();
            let after = db.metrics();
            assert_eq!(delta(&before, &after, "scan.count"), 1, "{layout:?}");
            assert_eq!(
                delta(&before, &after, "scan.rows"),
                rows.len() as u64,
                "scan.rows must equal the returned row count ({layout:?})"
            );
            assert_eq!(
                delta(&before, &after, "scan.pages"),
                delta(&before, &after, "io.pages_read"),
                "scan.pages must equal the pager's observed delta ({layout:?})"
            );
            let explain = db.explain("Points", request).unwrap();
            assert_eq!(
                explain.predicted_pages,
                db.scan_pages("Points", request).unwrap(),
                "explain must predict with the cost model's estimate ({layout:?})"
            );
        }
    }
}

/// Index layouts: a probe walks the tree once and its plan keeps the count,
/// so calibrating the prediction reads no page: `scan.pages` equals the raw
/// pager delta, a second, identical scan reproduces it, and the prediction
/// is exact.
#[test]
fn index_probe_scans_attribute_only_their_own_pages() {
    let db = Database::in_memory();
    db.create_table(points_schema()).unwrap();
    db.insert("Points", points(400)).unwrap();
    db.apply_layout_text("Points", "index[x](Points)").unwrap();
    let request = ScanRequest::all().predicate(Condition::range("x", 50.0, 80.0));
    let explain = db.explain("Points", &request).unwrap();
    assert_eq!(explain.access_path, AccessPath::IndexProbe);
    let before = db.metrics();
    let rows = db.scan("Points", &request).unwrap();
    let mid = db.metrics();
    db.scan("Points", &request).unwrap();
    let after = db.metrics();
    assert!(!rows.is_empty());
    let first = delta(&before, &mid, "scan.pages");
    let second = delta(&mid, &after, "scan.pages");
    assert!(first > 0, "an index probe reads tree + heap pages");
    assert_eq!(first, second, "identical scans read identical pages");
    assert_eq!(first, delta(&before, &mid, "io.pages_read"));
    // Calibration folded one sample per scan, with the prediction matching
    // the estimate the explain reported.
    assert_eq!(delta(&before, &after, "scan.count"), 2);
    let metrics = db.metrics();
    assert_eq!(metrics.counter("calibration.Points.samples"), Some(2));
    assert!(metrics.counter("calibration.Points.predicted_pages").unwrap() > 0);
    assert_eq!(
        metrics.counter("calibration.Points.predicted_pages"),
        metrics.counter("calibration.Points.actual_pages")
    );
}

/// Per-operation attribution is *exact* under concurrency: scans run under a
/// thread-local `OpStatsScope`, so the `calibration.<table>.actual_pages`
/// total a table accumulates counts only the pages its own scans read, even
/// while neighbour threads hammer a different table on the same pager. A
/// global-counter diff around each scan would be polluted by the neighbours;
/// the scoped attribution must reproduce the solo per-scan page count to the
/// page, times the number of scans.
#[test]
fn calibration_attribution_is_exact_under_concurrent_neighbours() {
    let db = Database::in_memory();
    db.create_table(points_schema()).unwrap();
    db.insert("Points", points(400)).unwrap();
    db.apply_layout_text("Points", "vertical[x|y,tag](Points)")
        .unwrap();
    db.create_table(Schema::new(
        "Noise",
        vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Float),
        ],
    ))
    .unwrap();
    db.insert(
        "Noise",
        (0..600i64)
            .map(|i| vec![Value::Int(i), Value::Float(i as f64)])
            .collect(),
    )
    .unwrap();
    db.apply_layout_text("Noise", "Noise").unwrap();

    // Solo baseline: pages one projected scan of Points attributes to itself.
    let request = ScanRequest::all().fields(["x"]);
    let before = db.metrics();
    db.scan("Points", &request).unwrap();
    let after = db.metrics();
    let solo_pages = delta(&before, &after, "calibration.Points.actual_pages");
    assert!(solo_pages > 0, "the projected scan reads layout pages");

    // Each noise thread performs a fixed amount of work and is joined inside
    // the measurement window, so the window provably contains neighbour I/O.
    const SCANS: u64 = 16;
    let before = db.metrics();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                s.spawn(|| {
                    for _ in 0..24 {
                        let rows = db.scan("Noise", &ScanRequest::all()).unwrap();
                        assert_eq!(rows.len(), 600);
                    }
                })
            })
            .collect();
        for _ in 0..SCANS {
            let rows = db.scan("Points", &request).unwrap();
            assert_eq!(rows.len(), 400);
        }
        for handle in handles {
            handle.join().unwrap();
        }
    });
    let after = db.metrics();
    assert_eq!(
        delta(&before, &after, "calibration.Points.samples"),
        SCANS,
        "one calibration sample per scan of Points"
    );
    assert_eq!(
        delta(&before, &after, "calibration.Points.actual_pages"),
        SCANS * solo_pages,
        "scoped attribution must reproduce the solo page count exactly \
         despite concurrent Noise scans on the same pager"
    );
    // The neighbours really were running: the pager-wide delta over the
    // same window exceeds what Points alone accounts for.
    assert!(
        delta(&before, &after, "io.pages_read") > SCANS * solo_pages,
        "the noise threads must actually pollute the global counters"
    );
}

/// Chunk fences and late materialization are visible from the registry
/// alone. A full projected scan of the telemetry column groups walks every
/// chunk and prunes none; a 1 % `ts` window reads only the chunks whose `ts`
/// fence meets the window — exactly the pages the cost model predicts and
/// the pager observes — and of those decodes the `value` block of only the
/// ones holding a match. A window no fence can narrow reads every page, yet
/// still skips the `value` block of almost every chunk. Column-block pages
/// are counted as frames like row pages.
#[test]
fn selective_windows_read_only_the_chunks_their_fences_admit() {
    use rodentstore_workload::telemetry::{generate_telemetry, telemetry_schema, TelemetryConfig};
    let rows = generate_telemetry(&TelemetryConfig::with_readings(40_000));
    let max_ts = rows.last().unwrap()[0].as_i64().unwrap();
    let db = Database::in_memory();
    db.create_table(telemetry_schema()).unwrap();
    db.insert("Telemetry", rows).unwrap();
    db.apply_layout_text(
        "Telemetry",
        "delta[ts,seq](vertical[ts,value|sensor,status,seq](Telemetry))",
    )
    .unwrap();

    let projected = ScanRequest::all().fields(["ts", "value"]);
    let before = db.metrics();
    assert_eq!(db.scan("Telemetry", &projected).unwrap().len(), 40_000);
    let full = db.metrics();
    let chunks = delta(&before, &full, "scan.chunks");
    assert!(chunks > 20, "40 000 rows span many chunks, got {chunks}");
    assert_eq!(delta(&before, &full, "scan.blocks_skipped"), 0);
    assert_eq!(
        delta(&before, &full, "scan.chunks_pruned"),
        0,
        "a full scan prunes nothing"
    );
    let full_pages = delta(&before, &full, "scan.pages");
    assert_eq!(
        delta(&before, &full, "scan.frame_hits") + delta(&before, &full, "scan.frame_copies"),
        full_pages,
        "every column-block page is served as a frame"
    );

    let lo = max_ts / 2;
    let window = projected
        .clone()
        .predicate(Condition::range("ts", lo, lo + max_ts / 100));
    let predicted = db.explain("Telemetry", &window).unwrap().predicted_pages;
    let hits = db.scan("Telemetry", &window).unwrap().len();
    assert!(hits > 0 && hits < 800, "a 1 % window, got {hits} rows");
    let after = db.metrics();
    let pages = delta(&full, &after, "scan.pages");
    assert_eq!(pages, delta(&full, &after, "io.pages_read"));
    assert_eq!(
        pages, predicted,
        "the estimate counts the pages of the admitted chunks"
    );
    assert!(
        pages * 10 < full_pages,
        "{pages} of {full_pages} pages read"
    );
    let walked = delta(&full, &after, "scan.chunks");
    assert!(delta(&full, &after, "scan.chunks_pruned") > 0);
    assert_eq!(delta(&full, &after, "scan.chunks_pruned") + walked, chunks);
    // One `value` block per walked chunk; a chunk the window only grazes
    // decodes its `ts` block, finds no match, and skips its `value` block.
    assert!(walked > 0 && delta(&full, &after, "scan.blocks_skipped") < walked);

    // The same window behind an `Or` implies no range, so no fence narrows
    // it: the scan walks every chunk and reads every page the full scan
    // reads, and late materialization alone keeps it from decoding the
    // `value` block of almost every chunk.
    let unfenced = projected.predicate(Condition::Or(vec![Condition::range(
        "ts",
        lo,
        lo + max_ts / 100,
    )]));
    assert_eq!(db.scan("Telemetry", &unfenced).unwrap().len(), hits);
    let last = db.metrics();
    assert_eq!(delta(&after, &last, "scan.pages"), full_pages, "same pages as the full scan");
    assert_eq!(delta(&after, &last, "scan.chunks"), chunks);
    assert_eq!(delta(&after, &last, "scan.chunks_pruned"), 0);
    let skipped = delta(&after, &last, "scan.blocks_skipped");
    assert!(
        skipped * 10 > chunks * 9 && skipped < chunks,
        "{skipped} of {chunks} value blocks skipped"
    );
}

/// Windowed aggregates push down into every layout of an append-heavy
/// stream — eager rows, the levelled tier, delta-compressed column groups:
/// the aggregate equals an engine-free fold of the readings, reads exactly
/// the pages of the projected scan it replaces, materialises no row and
/// folds every reading. The tier absorbs the stream without a re-render, and
/// the compressed groups read fewer pages than the rows.
#[test]
fn windowed_aggregates_read_the_projected_pages_and_materialise_nothing() {
    use rodentstore::{WindowAccumulator, WindowedAggregate};
    use rodentstore_workload::telemetry::{generate_telemetry, telemetry_schema, TelemetryConfig};
    const READINGS: usize = 20_000;
    let rows = generate_telemetry(&TelemetryConfig::with_readings(READINGS));
    let spec = WindowedAggregate::new("ts", 512.0, "value");
    let mut fold = WindowAccumulator::new(&spec);
    for row in &rows {
        let (Value::Int(ts), Value::Float(value)) = (&row[0], &row[2]) else {
            panic!("telemetry rows are (ts, sensor, value, ..)");
        };
        fold.fold(*ts as f64, *value);
    }
    let reference = fold.finish();

    let projected = ScanRequest::all().fields(["ts", "value"]);
    let mut scan_pages = Vec::new();
    for layout in [
        "Telemetry",
        "lsm[ts](Telemetry)",
        "delta[ts,seq](vertical[ts,value|sensor,status,seq](Telemetry))",
    ] {
        let db = Database::with_page_size(4096);
        db.create_table(telemetry_schema()).unwrap();
        // Declared before the stream arrives, then appended in batches.
        db.apply_layout_text("Telemetry", layout).unwrap();
        for batch in rows.chunks(1_000) {
            db.insert("Telemetry", batch.to_vec()).unwrap();
        }
        if layout.starts_with("lsm") {
            assert_eq!(
                db.layout_stats("Telemetry").unwrap().full_renders,
                1,
                "the tier must absorb the stream without re-rendering"
            );
        } else {
            db.apply_layout_text("Telemetry", layout).unwrap();
        }

        let before = db.metrics();
        assert_eq!(db.scan("Telemetry", &projected).unwrap().len(), READINGS);
        let scanned = db.metrics();
        let windows = db.scan_aggregate("Telemetry", &spec, None).unwrap();
        let aggregated = db.metrics();
        assert_eq!(
            windows, reference,
            "{layout}: buckets diverge from the reference fold"
        );
        let pages = catalogued_delta(&before, &scanned, "scan.pages");
        assert_eq!(
            catalogued_delta(&scanned, &aggregated, "scan.pages"),
            pages,
            "{layout}: the aggregate must read exactly the projected scan's pages"
        );
        assert_eq!(
            catalogued_delta(&scanned, &aggregated, "scan.rows"),
            0,
            "{layout}: the aggregate must materialise no row"
        );
        assert_eq!(
            catalogued_delta(&scanned, &aggregated, "scan.agg_rows_folded"),
            READINGS as u64,
            "{layout}: every reading folds into a bucket"
        );
        scan_pages.push(pages);
    }
    assert!(
        scan_pages[2] < scan_pages[0],
        "compressed column groups must read fewer pages than eager rows: {scan_pages:?}"
    );
}

/// Recording metrics is relaxed atomics only, so it may cost at most 5 % of
/// a scan. No count measures an instrument's own cost, so this stays timed:
/// 41 adjacent enabled/disabled pairs, alternating which side runs first,
/// cancel clock drift and cache bias, and the median of the per-pair ratios
/// is judged, with a 20 µs floor against jitter on fast scans.
#[test]
fn metrics_recording_costs_at_most_five_percent_of_a_scan() {
    const TRIALS: usize = 41;
    let db = Database::in_memory();
    db.create_table(points_schema()).unwrap();
    let rows = (0..4_000i64)
        .map(|i| {
            vec![
                Value::Float((i % 1_000) as f64),
                Value::Float((i * 37 % 500) as f64),
                Value::Int(i % 16),
            ]
        })
        .collect();
    db.insert("Points", rows).unwrap();
    db.apply_layout_text("Points", "vertical[x|y,tag](Points)")
        .unwrap();
    let request = ScanRequest::all().predicate(Condition::range("x", 100.0, 600.0));
    let timed = |enabled: bool| {
        db.set_metrics_enabled(enabled);
        let start = Instant::now();
        db.scan("Points", &request).unwrap();
        start.elapsed()
    };
    for _ in 0..4 {
        timed(true);
        timed(false);
    }
    // Each trial is one adjacent enabled/disabled pair, so a slow phase of
    // the machine inflates both halves of a pair alike; the median pair
    // decides. A pair's ratio charges the 20 µs allowance to the enabled
    // run first.
    let slack = Duration::from_micros(20);
    let mut ratios: Vec<f64> = (0..TRIALS)
        .map(|trial| {
            let (enabled, disabled) = if trial % 2 == 0 {
                let enabled = timed(true);
                (enabled, timed(false))
            } else {
                let disabled = timed(false);
                (timed(true), disabled)
            };
            enabled.saturating_sub(slack).as_secs_f64() / disabled.as_secs_f64()
        })
        .collect();
    db.set_metrics_enabled(true);
    ratios.sort_unstable_by(f64::total_cmp);
    let ratio = ratios[TRIALS / 2];
    assert!(
        ratio <= 1.05,
        "metrics recording must cost ≤ 5 % + 20 µs of a scan: median pair ratio {ratio:.3}"
    );
    let scans = db
        .metrics()
        .counter("scan.count")
        .expect("scan.count registered");
    assert!(scans > 0, "enabled scans must reach the registry");
}

/// `explain` mirrors the dispatch the scan actually performs.
#[test]
fn explain_reports_the_dispatched_access_path() {
    let db = Database::in_memory();
    db.set_lsm_params(16, 2);
    db.create_table(points_schema()).unwrap();
    db.insert("Points", points(200)).unwrap();

    // No layout: canonical rows, zero predicted pages.
    let all = ScanRequest::all();
    let explain = db.explain("Points", &all).unwrap();
    assert_eq!(explain.access_path, AccessPath::Canonical);
    assert_eq!(explain.predicted_pages, 0);
    assert_eq!(explain.layout_expr, None);

    // Plain row layout streams.
    db.apply_layout_text("Points", "Points").unwrap();
    let explain = db.explain("Points", &all).unwrap();
    assert_eq!(explain.access_path, AccessPath::Streaming);
    assert!(explain.predicted_pages > 0);
    assert_eq!(explain.layout_expr.as_deref(), Some("Points"));

    // Vertical partitions stream too: their column groups advance together.
    db.apply_layout_text("Points", "vertical[x|y,tag](Points)")
        .unwrap();
    let explain = db.explain("Points", &all).unwrap();
    assert_eq!(explain.access_path, AccessPath::Streaming);

    // A request referencing a field the layout projected away falls back
    // to the canonical rows.
    db.apply_layout_text("Points", "project[x,y](Points)").unwrap();
    let tagged = ScanRequest::all().predicate(Condition::range("tag", 0.0, 5.0));
    let explain = db.explain("Points", &tagged).unwrap();
    assert_eq!(explain.access_path, AccessPath::Canonical);

    // The levelled tier: runs outside the predicate's key range are pruned.
    db.apply_layout_text("Points", "lsm[x](Points)").unwrap();
    db.insert("Points", points(200)).unwrap();
    let explain = db.explain("Points", &all).unwrap();
    assert!(explain.lsm_runs_total > 0, "small cap must have spilled");
    assert_eq!(explain.lsm_runs_pruned, 0, "full scans prune nothing");
    let far = ScanRequest::all().predicate(Condition::range("x", 10_000.0, 20_000.0));
    let explain = db.explain("Points", &far).unwrap();
    assert_eq!(
        explain.lsm_runs_pruned, explain.lsm_runs_total,
        "a range beyond every run's keys prunes them all"
    );

    // Pending rows under the new-data-only strategy are reported.
    let db = Database::in_memory();
    db.create_table(points_schema()).unwrap();
    db.insert("Points", points(50)).unwrap();
    db.apply_layout(
        "Points",
        rodentstore::parse("Points").unwrap(),
        ReorgStrategy::NewDataOnly,
    )
    .unwrap();
    db.insert("Points", points(7)).unwrap();
    let explain = db.explain("Points", &all).unwrap();
    assert_eq!(explain.pending_rows, 7);
    let json = explain.to_json();
    assert!(json.contains("\"access_path\":\"streaming\""));
    assert!(json.contains("\"pending_rows\":7"));
}

/// Spills, merges, and adaptation checks leave structured events behind.
#[test]
fn lsm_and_adaptation_events_are_traced() {
    let db = Database::in_memory();
    db.set_lsm_params(8, 2);
    db.create_table(points_schema()).unwrap();
    db.apply_layout_text("Points", "lsm[x](Points)").unwrap();
    db.insert("Points", points(128)).unwrap();
    let events = db.events();
    let spills = events
        .iter()
        .filter(|e| matches!(&e.kind, EventKind::LsmSpill { table, .. } if table == "Points"))
        .count();
    assert!(spills > 0, "inserts past the memtable cap must spill");
    assert!(
        events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::LsmMerge { .. })),
        "fanout 2 with 16 spills must compact"
    );
    let metrics = db.metrics();
    assert_eq!(metrics.counter("lsm.spills"), Some(spills as u64));
    assert!(metrics.histogram("lsm.absorb_micros").unwrap().count > 0);
    // The amortization invariant: no absorb ran more merges than spills.
    let absorbs = metrics.histogram("lsm.absorb.merges").unwrap();
    assert!(absorbs.max <= 16, "one merge per spill at most");

    // An explicit adaptation check with too little traffic still traces.
    db.set_adaptive_policy(AdaptivePolicy {
        min_queries: 4,
        ..AdaptivePolicy::default()
    });
    db.maybe_adapt("Points").unwrap();
    for _ in 0..8 {
        db.scan(
            "Points",
            &ScanRequest::all().predicate(Condition::range("x", 0.0, 10.0)),
        )
        .unwrap();
    }
    db.maybe_adapt("Points").unwrap();
    let events = db.events();
    let outcomes: Vec<&str> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::AdaptDecision { outcome, .. } => Some(outcome.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(outcomes.first(), Some(&"insufficient_data"));
    let last = events
        .iter()
        .rev()
        .find_map(|e| match &e.kind {
            EventKind::AdaptDecision {
                outcome,
                alternatives,
                current_expr,
                ..
            } => Some((outcome.clone(), alternatives.len(), current_expr.clone())),
            _ => None,
        })
        .expect("the completed check must trace");
    assert!(last.0 == "adapted" || last.0 == "kept_current");
    assert!(last.1 > 0, "a completed check lists costed alternatives");
    assert_eq!(last.2, "lsm[x](Points)");
    assert_eq!(db.metrics().counter("adapt.checks"), Some(2));
}

/// Durable databases: checkpoints report phase timings and the WAL
/// truncation they performed; commits and fsyncs feed the WAL histograms.
#[test]
fn checkpoint_and_wal_instrumentation() {
    let dir = scratch_dir("checkpoint");
    let db = Database::create(&dir).unwrap();
    db.create_table(points_schema()).unwrap();
    db.insert("Points", points(64)).unwrap();
    db.checkpoint().unwrap();
    let metrics = db.metrics();
    assert_eq!(metrics.counter("checkpoint.count"), Some(1));
    assert!(metrics.histogram("wal.commit_micros").unwrap().count > 0);
    assert!(metrics.histogram("checkpoint.micros").unwrap().count == 1);
    let events = db.events();
    let checkpoint = events
        .iter()
        .find_map(|e| match &e.kind {
            EventKind::Checkpoint { phases, micros, .. } => Some((phases.clone(), *micros)),
            _ => None,
        })
        .expect("checkpoint event");
    let names: Vec<&str> = checkpoint.0.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "reap_retired",
            "flush_tails",
            "pager_sync",
            "write_manifest",
            "release_quarantine",
            "wal_truncate",
            "shrink_data_file"
        ]
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::WalTruncate { bytes_before, bytes_after }
                if bytes_after <= bytes_before)),
        "the checkpoint truncated the WAL"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Disabling recording freezes every counter but keeps queries (and
/// `explain`) fully functional; re-enabling resumes from the same values.
#[test]
fn disabling_metrics_freezes_counters() {
    let db = Database::in_memory();
    db.create_table(points_schema()).unwrap();
    db.insert("Points", points(50)).unwrap();
    db.scan("Points", &ScanRequest::all()).unwrap();
    let frozen = db.metrics();
    db.set_metrics_enabled(false);
    assert!(!db.metrics_enabled());
    db.insert("Points", points(10)).unwrap();
    let rows = db.scan("Points", &ScanRequest::all()).unwrap();
    assert_eq!(rows.len(), 60);
    db.explain("Points", &ScanRequest::all()).unwrap();
    let still = db.metrics();
    assert_eq!(frozen.counter("scan.count"), still.counter("scan.count"));
    assert_eq!(frozen.counter("insert.rows"), still.counter("insert.rows"));
    db.set_metrics_enabled(true);
    db.scan("Points", &ScanRequest::all()).unwrap();
    assert_eq!(
        db.metrics().counter("scan.count"),
        frozen.counter("scan.count").map(|c| c + 1)
    );
}

/// Every durable insert records one sample into each `insert.phase.*`
/// histogram, and the phases — disjoint, floor-rounded sub-intervals of the
/// insert — sum to no more than `insert.micros`.
#[test]
fn insert_phases_split_every_durable_insert() {
    const PHASES: [&str; 5] = [
        "insert.phase.reap_micros",
        "insert.phase.wal_append_micros",
        "insert.phase.absorb_micros",
        "insert.phase.publish_micros",
        "insert.phase.commit_micros",
    ];
    let dir = scratch_dir("insert-phases");
    let db = Database::create(&dir).unwrap();
    db.create_table(points_schema()).unwrap();
    db.insert("Points", points(500)).unwrap();
    db.apply_layout_text("Points", "delta[x,y](zorder(grid[x,y;50,25](Points)))")
        .unwrap();
    let summary = |m: &rodentstore::MetricsSnapshot, name: &str| {
        *m.histogram(name)
            .unwrap_or_else(|| panic!("{name} registered"))
    };
    let before = db.metrics();
    let inserts = 6u64;
    for i in 0..inserts as usize {
        db.insert("Points", points(40 + i)).unwrap();
    }
    let after = db.metrics();
    let total = summary(&after, "insert.micros").sum - summary(&before, "insert.micros").sum;
    let mut phases = 0;
    for name in PHASES {
        let (a, b) = (summary(&after, name), summary(&before, name));
        assert_eq!(a.count - b.count, inserts, "{name}: one sample per insert");
        phases += a.sum - b.sum;
    }
    assert!(
        phases <= total,
        "phase sums {phases} µs exceed the inserts' {total} µs"
    );
    assert_eq!(
        summary(&after, "insert.micros").count - summary(&before, "insert.micros").count,
        inserts
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The registered instrument set is exactly the documented catalog, and
/// the JSON dump carries the reserved injected prefixes.
#[test]
fn metric_catalog_is_stable_and_json_complete() {
    let db = Database::in_memory();
    db.create_table(points_schema()).unwrap();
    db.insert("Points", points(10)).unwrap();
    db.scan("Points", &ScanRequest::all()).unwrap();
    let metrics = db.metrics();
    for name in metric_names() {
        assert!(
            metrics.counter(name).is_some()
                || metrics.gauge(name).is_some()
                || metrics.histogram(name).is_some(),
            "catalog name {name} missing from the snapshot"
        );
    }
    let json = metrics.to_json();
    assert!(json.contains("\"io.pages_read\""));
    assert!(json.contains("\"scan.count\":1"));
    assert!(json.contains("\"insert.rows\":10"));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Property form of the conservation law over random data, layouts,
    /// and predicates: `scan.rows` equals the returned rows, `scan.pages`
    /// equals the pager delta (non-index layouts), and `explain` predicts
    /// exactly `scan_pages`.
    #[test]
    fn conservation_holds_for_random_requests(
        rows in proptest::collection::vec((0.0f64..500.0, 0.0f64..100.0, 0i64..8), 1..150),
        layout_pick in 0usize..4,
        lo in 0.0f64..400.0,
        width in 1.0f64..200.0,
    ) {
        let db = Database::in_memory();
        db.set_lsm_params(16, 2);
        db.create_table(points_schema()).unwrap();
        let records: Vec<Vec<Value>> = rows
            .iter()
            .map(|(x, y, t)| vec![Value::Float(*x), Value::Float(*y), Value::Int(*t)])
            .collect();
        db.insert("Points", records).unwrap();
        let layout = ["Points", "vertical[x|y,tag](Points)", "lsm[x](Points)", "orderby[x](Points)"][layout_pick];
        db.apply_layout_text("Points", layout).unwrap();
        let request = ScanRequest::all().predicate(Condition::range("x", lo, lo + width));
        let before = db.metrics();
        let returned = db.scan("Points", &request).unwrap();
        let after = db.metrics();
        prop_assert_eq!(delta(&before, &after, "scan.rows"), returned.len() as u64);
        prop_assert_eq!(
            delta(&before, &after, "scan.pages"),
            delta(&before, &after, "io.pages_read")
        );
        let explain = db.explain("Points", &request).unwrap();
        prop_assert_eq!(explain.predicted_pages, db.scan_pages("Points", &request).unwrap());
        let expected = rows.iter().filter(|(x, _, _)| (lo..=lo + width).contains(x)).count();
        prop_assert_eq!(returned.len(), expected);
    }
}
