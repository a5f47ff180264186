//! The allocation budget of the cursor read path, as an assertion.
//!
//! "No allocation on the hot path, a unit of work is constant": over column
//! chunks a fold allocates per *chunk* (a scratch vector or two), never per
//! row; a selective window allocates for the chunks it walks plus one
//! `Record` per surviving row; a projected scan allocates the `Record` it
//! returns per row and nothing else; and over the sealed runs of an lsm tier
//! a fold allocates per *run* (one cursor each), never per row. This binary
//! installs its own counting allocator and holds the four to a per-row
//! budget, and a positional get of one field — a one-row scan — to a
//! constant one. A file-backed store adds one allocation per page read — the
//! buffer the page is copied into — and nothing else. Over a grid of many
//! cells, a scan compiles its read plan once and a cell it opens costs its
//! page list: a fold and a box query are held to a per-cell budget.
//! Writes hold every row once: a render clones each base row once, an eager
//! insert clones its batch once, and an insert whose rows stay pending moves
//! the batch in without cloning a row.
//!
//! It is one `#[test]` on purpose: the counter is process-wide, and a second
//! test running beside it would be counted too.

use rodentstore::{
    parse, Condition, Database, DurabilityOptions, ReorgStrategy, ScanRequest, SyncPolicy,
    WindowedAggregate,
};
use rodentstore_workload::telemetry::{generate_telemetry, telemetry_schema, TelemetryConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain statistic and
// never influences which pointer is returned or how it is freed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with the
        // same layout, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are exactly `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with counting on; returns its result and the allocations made
/// meanwhile (growing a vector counts as one).
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

#[test]
fn column_chunk_reads_stay_within_their_allocation_budget() {
    const ROWS: usize = 50_000;
    let rows = generate_telemetry(&TelemetryConfig::with_readings(ROWS));
    let max_ts = rows.last().unwrap()[0].as_i64().unwrap();
    let db = Database::in_memory();
    db.create_table(telemetry_schema()).unwrap();
    db.insert("Telemetry", rows).unwrap();
    db.apply_layout_text(
        "Telemetry",
        "delta[ts](vertical[ts,value|sensor,status,seq](Telemetry))",
    )
    .unwrap();

    let spec = WindowedAggregate::new("ts", 1_000.0, "value");
    let projected = ScanRequest::all().fields(["ts", "value"]);
    let lo = max_ts / 2;
    let window = projected
        .clone()
        .predicate(Condition::range("ts", lo, lo + max_ts / 100));
    // One untimed pass: lazy set-up (profiles, first render) is not the
    // steady state the budget describes.
    db.scan_aggregate("Telemetry", &spec, None).unwrap();
    db.scan("Telemetry", &window).unwrap();

    let (buckets, fold_allocs) = counted(|| db.scan_aggregate("Telemetry", &spec, None).unwrap());
    assert!(buckets.iter().map(|b| b.count).sum::<u64>() == ROWS as u64);
    let per_row = fold_allocs as f64 / ROWS as f64;
    assert!(per_row <= 0.02, "fold: {fold_allocs} allocations, {per_row:.4} per row");

    let (hits, allocs) = counted(|| db.scan("Telemetry", &window).unwrap());
    assert!(!hits.is_empty() && hits.len() < ROWS / 50, "a 1 % window, got {}", hits.len());
    let per_row = allocs as f64 / ROWS as f64;
    assert!(per_row <= 0.05, "window: {allocs} allocations, {per_row:.4} per table row");

    let (all, allocs) = counted(|| db.scan("Telemetry", &projected).unwrap());
    assert_eq!(all.len(), ROWS);
    let per_row = allocs as f64 / ROWS as f64;
    assert!(per_row <= 1.1, "projected scan: {allocs} allocations, {per_row:.4} per returned row");

    // A positional get is a scan of one row: its plan, one cursor and the
    // blocks of one chunk. The budget is the 25 allocations a dedicated
    // positional reader made, plus 16 for sharing the scan's set-up.
    let catalog = db.catalog();
    let layout = catalog.get("Telemetry").unwrap().access.as_ref().unwrap().layout();
    let value = vec!["value".to_string()];
    layout.get_element(ROWS / 2, Some(&value)).unwrap();
    let (got, allocs) = counted(|| layout.get_element(ROWS / 3, Some(&value)).unwrap());
    assert_eq!(got, vec![all[ROWS / 3][1].clone()]);
    assert!(allocs <= 25 + 16, "get of one field: {allocs} allocations");
    drop(catalog);

    // The same fold over a file-backed database: each page read is copied
    // once, into the one buffer its frame shares.
    let dir = std::env::temp_dir().join(format!("rodentstore-alloc-budget-{}", std::process::id()));
    let options = DurabilityOptions {
        sync: SyncPolicy::Never,
        ..DurabilityOptions::default()
    };
    let file_backed = Database::create_with(&dir, options).unwrap();
    file_backed.create_table(telemetry_schema()).unwrap();
    file_backed
        .insert("Telemetry", generate_telemetry(&TelemetryConfig::with_readings(ROWS)))
        .unwrap();
    file_backed
        .apply_layout_text(
            "Telemetry",
            "delta[ts](vertical[ts,value|sensor,status,seq](Telemetry))",
        )
        .unwrap();
    file_backed.scan_aggregate("Telemetry", &spec, None).unwrap();
    let before = file_backed.io_snapshot();
    let (buckets, allocs) =
        counted(|| file_backed.scan_aggregate("Telemetry", &spec, None).unwrap());
    let io = file_backed.io_snapshot().since(&before);
    assert!(buckets.iter().map(|b| b.count).sum::<u64>() == ROWS as u64);
    assert!(io.pages_read > 0 && io.frame_copies == io.pages_read);
    assert!(
        allocs <= fold_allocs + io.pages_read,
        "file-backed fold: {allocs} allocations, in memory {fold_allocs}, {} pages read",
        io.pages_read
    );
    drop(file_backed);
    let _ = std::fs::remove_dir_all(&dir);

    // The same rows arriving in 1 000-row batches into `lsm[ts]`: every one
    // of them sits in a sealed run (the memtable spills at exactly 1 000).
    let rows = generate_telemetry(&TelemetryConfig::with_readings(ROWS));
    let db = Database::in_memory();
    db.set_lsm_params(1_000, 4);
    db.create_table(telemetry_schema()).unwrap();
    db.apply_layout_text("Telemetry", "lsm[ts](Telemetry)")
        .unwrap();
    for batch in rows.chunks(1_000) {
        db.insert("Telemetry", batch.to_vec()).unwrap();
    }
    let catalog = db.catalog();
    let access = catalog.get("Telemetry").unwrap().access.as_ref().unwrap();
    let lsm = access.layout().lsm.as_ref();
    assert_eq!(lsm.map(|t| (t.memtable.len(), t.rows())), Some((0, ROWS)));
    drop(catalog);
    db.scan_aggregate("Telemetry", &spec, None).unwrap();

    let (buckets, allocs) = counted(|| db.scan_aggregate("Telemetry", &spec, None).unwrap());
    assert!(buckets.iter().map(|b| b.count).sum::<u64>() == ROWS as u64);
    let per_row = allocs as f64 / ROWS as f64;
    assert!(
        per_row <= 0.02,
        "lsm fold: {allocs} allocations, {per_row:.4} per row"
    );

    many_cell_grid_reads_stay_within_their_allocation_budget();
    writes_stay_within_their_allocation_budget();
}

/// A telemetry row clones into two allocations (the row and its `sensor`
/// string), so the budgets below sit under one clone of the rows too many:
/// a render of 50 000 rows into `lsm[ts]` clones each row once while it
/// materializes them, an eager 1 000-row insert clones its batch once while
/// the tier absorbs it, and a 1 000-row insert under the new-data-only
/// strategy moves its batch into the canonical rows without cloning a row.
fn writes_stay_within_their_allocation_budget() {
    const ROWS: usize = 50_000;
    const BATCH: usize = 1_000;
    const LSM: &str = "lsm[ts](Telemetry)";
    let loaded = || {
        let mut rows = generate_telemetry(&TelemetryConfig::with_readings(ROWS + BATCH));
        let batch = rows.split_off(ROWS);
        let db = Database::in_memory();
        db.create_table(telemetry_schema()).unwrap();
        db.insert("Telemetry", rows).unwrap();
        (db, batch)
    };

    let (db, batch) = loaded();
    let ((), render) = counted(|| db.apply_layout_text("Telemetry", LSM).unwrap());
    assert!(render <= 200_000, "render of {ROWS} rows: {render} allocations");
    let ((), insert) = counted(|| db.insert("Telemetry", batch).unwrap());
    assert_eq!(db.catalog().get("Telemetry").unwrap().pending.len(), 0);
    assert!(insert <= 7_000, "eager {BATCH}-row insert: {insert} allocations");
    // The tier's memtable is one sorted vector: a buffered row costs its
    // clone and nothing per key, and a spill encodes into one reused buffer.
    assert!(insert <= 2_600, "eager {BATCH}-row lsm insert: {insert} allocations");

    let (db, batch) = loaded();
    db.apply_layout("Telemetry", parse(LSM).unwrap(), ReorgStrategy::NewDataOnly)
        .unwrap();
    let ((), insert) = counted(|| db.insert("Telemetry", batch).unwrap());
    assert_eq!(db.catalog().get("Telemetry").unwrap().pending.len(), BATCH);
    assert!(insert <= 64, "new-data-only {BATCH}-row insert: {insert} allocations");
}

/// Over a delta-compressed, Z-ordered grid of 625 cells, a scan compiles
/// its read plan once and every cell it opens resets the plan's cursor: a
/// cell costs its page list (at most two allocations) and nothing else, so
/// a fold allocates a constant plus two per cell at most, and a box query
/// one `Record` per row besides. A predicate the cells cannot prune — an
/// arithmetic comparison, or one field against another — is evaluated
/// inside each cell's loop too: it allocates nothing per row scanned.
fn many_cell_grid_reads_stay_within_their_allocation_budget() {
    use rodentstore::Value;
    use rodentstore_algebra::comprehension::{CmpOp, ElemExpr};
    use rodentstore_algebra::{DataType, Field, Schema};

    const ROWS: usize = 20_000;
    /// Set-up a scan pays once, however many cells it opens.
    const PER_SCAN: usize = 64;
    let schema = Schema::new(
        "Points",
        vec![
            Field::new("x", DataType::Float),
            Field::new("y", DataType::Float),
            Field::new("tag", DataType::Int),
        ],
    );
    let rows: Vec<Vec<Value>> = (0..ROWS)
        .map(|i| {
            vec![
                Value::Float((i * 7_919 % 1_000) as f64 + 0.5),
                Value::Float((i * 104_729 % 997) as f64 + 0.25),
                Value::Int((i % 20) as i64),
            ]
        })
        .collect();
    let db = Database::in_memory();
    db.create_table(schema).unwrap();
    db.insert("Points", rows).unwrap();
    db.apply_layout_text("Points", "delta[x,y](zorder(grid[x,y;40,40](Points)))")
        .unwrap();
    let spec = WindowedAggregate::new("x", 100.0, "y");
    let boxed = ScanRequest::all().predicate(
        Condition::range("x", 400.0, 500.0).and(Condition::range("y", 300.0, 400.0)),
    );
    db.scan_aggregate("Points", &spec, None).unwrap();
    db.scan("Points", &boxed).unwrap();
    // The layout's own reads: what a scan allocates per cell, without the
    // database's per-query bookkeeping around it.
    let catalog = db.catalog();
    let layout = catalog.get("Points").unwrap().access.as_ref().unwrap().layout();
    let cells = layout.objects.len();
    let boxed = boxed.predicate.as_ref();
    let opened = layout.objects_to_read(None, boxed).len();
    assert!(cells >= 400, "{cells} cells");
    assert!(opened >= 9 && opened < cells / 10, "a 1 % box opens {opened} cells");

    let (buckets, allocs) = counted(|| layout.scan_aggregate(&spec, None).unwrap());
    assert!(buckets.rows_folded() == ROWS as u64);
    assert!(
        allocs as usize <= 2 * cells + PER_SCAN,
        "grid fold: {allocs} allocations over {cells} cells"
    );

    let (hits, allocs) = counted(|| layout.scan(None, boxed).unwrap());
    assert!(!hits.is_empty());
    assert!(
        allocs as usize <= hits.len() + 2 * opened + PER_SCAN,
        "grid box: {allocs} allocations for {} rows over {opened} cells",
        hits.len()
    );

    let field = |name: &str| ElemExpr::Field(name.into());
    let unprunable = [
        Condition::Cmp {
            left: ElemExpr::Sub(Box::new(field("x")), Box::new(field("y"))),
            op: CmpOp::Ge,
            right: ElemExpr::Literal(Value::Float(900.0)),
        },
        Condition::Cmp {
            left: field("x"),
            op: CmpOp::Le,
            right: field("tag"),
        },
    ];
    for pred in &unprunable {
        let (hits, allocs) = counted(|| layout.scan(None, Some(pred)).unwrap());
        assert!(!hits.is_empty() && hits.len() < ROWS / 20, "{pred:?}: {} rows", hits.len());
        assert!(
            allocs as usize <= hits.len() + 2 * cells + PER_SCAN,
            "grid scan {pred:?}: {allocs} allocations for {} rows over {cells} cells",
            hits.len()
        );
        let (buckets, allocs) = counted(|| layout.scan_aggregate(&spec, Some(pred)).unwrap());
        assert!(buckets.rows_folded() == hits.len() as u64);
        assert!(
            allocs as usize <= 2 * cells + PER_SCAN,
            "grid fold {pred:?}: {allocs} allocations over {cells} cells"
        );
    }
}
