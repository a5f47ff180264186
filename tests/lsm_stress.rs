//! Sustained-write stress for the levelled `lsm[...]` tier: a writer floods
//! inserts (every batch spills runs and churns compaction levels) while
//! readers pin snapshots and hold them across the churn. Invariants:
//!
//! - a pinned snapshot re-scans byte-identically no matter how many levels
//!   compaction rewrote underneath it — vacated run extents must not be
//!   reused while any pinned generation can still read them;
//! - the retired set (including parked run extents) stays bounded during
//!   the flood and drains once pins are released;
//! - the flood never triggers a full re-render — absorbing is the point —
//!   and writes at most a fifth of the pages that re-rendering the same
//!   shape after every batch writes;
//! - on the durable variant, the tier survives checkpoint-under-churn,
//!   ends within 4× of the pages of loading its rows once, and reopens
//!   byte-identically.

use rodentstore::{
    Condition, Database, DurabilityOptions, LayoutExpr, ReorgStrategy, ScanRequest, SyncPolicy,
    Value,
};
use rodentstore_algebra::{DataType, Field, Schema};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn events_schema() -> Schema {
    Schema::new(
        "Events",
        vec![
            Field::new("batch", DataType::Int),
            Field::new("k", DataType::Int),
            Field::new("payload", DataType::String),
        ],
    )
}

fn batch_rows(batch: i64, rows: usize) -> Vec<Vec<Value>> {
    (0..rows as i64)
        .map(|i| {
            vec![
                Value::Int(batch),
                Value::Int(batch * 1_000 + i),
                Value::Str(format!("b{batch}-r{i}")),
            ]
        })
        .collect()
}

fn batch_counts(rows: &[Vec<Value>]) -> BTreeMap<i64, usize> {
    let mut counts = BTreeMap::new();
    for row in rows {
        *counts.entry(row[0].as_i64().unwrap()).or_default() += 1;
    }
    counts
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rodentstore-lsm-stress-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn pinned_snapshots_survive_compaction_churn_and_retired_extents_drain() {
    const INITIAL: usize = 50;
    const BATCH: usize = 20;
    const BATCHES: i64 = 50;
    let db = Arc::new(Database::with_page_size(1024));
    // Cap 8 / fanout 2: every batch spills at least two runs and cascades,
    // so levels churn constantly under the readers.
    db.set_lsm_params(8, 2);
    db.create_table(events_schema()).unwrap();
    db.insert("Events", batch_rows(0, INITIAL)).unwrap();
    db.apply_layout(
        "Events",
        LayoutExpr::table("Events").lsm(["k"]),
        ReorgStrategy::Eager,
    )
    .unwrap();

    let committed = Arc::new(AtomicUsize::new(0));
    let readers: Vec<_> = (0..3)
        .map(|r| {
            let db = Arc::clone(&db);
            let committed = Arc::clone(&committed);
            std::thread::spawn(move || {
                let mut pins = 0usize;
                while committed.load(Ordering::SeqCst) < BATCHES as usize || pins < 4 {
                    // Pin a snapshot and hold it across concurrent spills
                    // and compactions: every re-scan must be byte-identical.
                    let snap = db.snapshot("Events").unwrap();
                    let first = snap.scan(&ScanRequest::all()).unwrap();
                    for _ in 0..6 {
                        std::thread::yield_now();
                        assert_eq!(
                            snap.scan(&ScanRequest::all()).unwrap(),
                            first,
                            "pinned snapshot changed under compaction churn"
                        );
                    }
                    // Batch-prefix atomicity through the live read path,
                    // with and without key-range pushdown through the
                    // tier's run pruning.
                    let floor = committed.load(Ordering::SeqCst) as i64;
                    let rows = db.scan("Events", &ScanRequest::all()).unwrap();
                    let counts = batch_counts(&rows);
                    let max_batch = *counts.keys().max().unwrap();
                    assert_eq!(counts[&0], INITIAL, "initial load torn");
                    for b in 1..=max_batch {
                        assert_eq!(counts.get(&b), Some(&BATCH), "batch {b} torn");
                    }
                    assert!(max_batch >= floor, "missed committed batches");
                    if r == 0 && floor > 0 {
                        let probe = db
                            .scan(
                                "Events",
                                &ScanRequest::all().predicate(Condition::range(
                                    "k",
                                    (floor * 1_000) as f64,
                                    (floor * 1_000 + BATCH as i64 - 1) as f64,
                                )),
                            )
                            .unwrap();
                        assert_eq!(probe.len(), BATCH, "pruned probe tore batch {floor}");
                    }
                    pins += 1;
                }
                pins
            })
        })
        .collect();

    // The writer floods on the main thread and watches the retired set
    // (superseded states/renderings plus parked run extents) as it goes.
    let mut max_retired = 0usize;
    for b in 1..=BATCHES {
        db.insert("Events", batch_rows(b, BATCH)).unwrap();
        committed.store(b as usize, Ordering::SeqCst);
        max_retired = max_retired.max(db.retired_snapshots());
    }
    for reader in readers {
        assert!(reader.join().unwrap() >= 4);
    }

    // Bounded: deferral stays proportional to the writes raced — each batch
    // retires at most the superseded state, its rendering, and a few
    // compaction notes. Superlinear growth means tokens never drain.
    assert!(
        max_retired <= BATCHES as usize * 8 + 16,
        "retired set grew superlinearly: {max_retired} after {BATCHES} batches"
    );

    // Drained: with every pin released, a few more writes reap the backlog
    // down to what they themselves just retired.
    for b in 0..3 {
        db.insert("Events", batch_rows(900 + b, 1)).unwrap();
    }
    let after = db.retired_snapshots();
    assert!(
        after <= 8,
        "retired run extents must drain once pins are released; still {after}"
    );

    // Quiesced: totals add up, re-scans are byte-identical, and the whole
    // flood never re-rendered the base.
    let total = INITIAL + BATCHES as usize * BATCH + 3;
    let first = db.scan("Events", &ScanRequest::all()).unwrap();
    assert_eq!(first.len(), total);
    assert_eq!(db.scan("Events", &ScanRequest::all()).unwrap(), first);
    assert_eq!(db.layout_stats("Events").unwrap().full_renders, 1);
}

fn kv_schema() -> Schema {
    Schema::new(
        "Events",
        vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
        ],
    )
}

fn kv_rows(start: usize, rows: usize) -> Vec<Vec<Value>> {
    (start as i64..(start + rows) as i64)
        // Interleaved keys: spilled runs overlap, so compaction merges.
        .map(|k| {
            vec![
                Value::Int((k * 7919) % 1_000_003),
                Value::Float(k as f64 * 0.5),
            ]
        })
        .collect()
}

fn sorted_contents(db: &Database) -> Vec<String> {
    let mut rows: Vec<String> = db
        .scan("Events", &ScanRequest::all())
        .unwrap()
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    rows.sort();
    rows
}

fn pages_written(db: &Database, op: impl FnOnce()) -> u64 {
    let before = db.io_snapshot().pages_written;
    op();
    db.io_snapshot().pages_written - before
}

/// The same flood kept current two ways: eagerly re-rendering
/// `vertical[k|v]` after every batch (O(table) per batch), or declaring
/// `lsm[k](vertical[k|v])` once and only inserting (O(batch) per absorb).
/// The tier returns the same contents, never re-renders, absorbs each batch
/// once, merges at most once per spill, writes at most a fifth of the
/// rebuild's pages, and no single absorb writes as much as one re-render.
#[test]
fn flood_absorbs_into_the_tier_for_a_fraction_of_the_rebuild_pages() {
    const INITIAL: usize = 800;
    const BATCHES: usize = 16;
    const BATCH: usize = 50;

    let rebuild = Database::with_page_size(1024);
    rebuild.create_table(kv_schema()).unwrap();
    rebuild.insert("Events", kv_rows(0, INITIAL)).unwrap();
    rebuild
        .apply_layout_text("Events", "vertical[k|v](Events)")
        .unwrap();
    let (mut rebuild_pages, mut smallest_rerender) = (0, u64::MAX);
    for b in 0..BATCHES {
        rebuild_pages += pages_written(&rebuild, || {
            rebuild
                .insert("Events", kv_rows(INITIAL + b * BATCH, BATCH))
                .unwrap();
        });
        let rerender = pages_written(&rebuild, || {
            rebuild
                .apply_layout_text("Events", "vertical[k|v](Events)")
                .unwrap();
        });
        rebuild_pages += rerender;
        smallest_rerender = smallest_rerender.min(rerender);
    }

    let lsm = Database::with_page_size(1024);
    lsm.create_table(kv_schema()).unwrap();
    lsm.insert("Events", kv_rows(0, INITIAL)).unwrap();
    lsm.apply_layout_text("Events", "lsm[k](vertical[k|v](Events))")
        .unwrap();
    let (mut flood_pages, mut largest_absorb) = (0, 0);
    for b in 0..BATCHES {
        let absorb = pages_written(&lsm, || {
            lsm.insert("Events", kv_rows(INITIAL + b * BATCH, BATCH))
                .unwrap();
        });
        flood_pages += absorb;
        largest_absorb = largest_absorb.max(absorb);
    }

    assert_eq!(sorted_contents(&lsm), sorted_contents(&rebuild));
    assert!(
        flood_pages * 5 <= rebuild_pages,
        "the tier wrote {flood_pages} pages, the per-batch rebuild {rebuild_pages}"
    );
    assert!(
        largest_absorb < smallest_rerender,
        "the largest absorb wrote {largest_absorb} pages, one re-render {smallest_rerender}"
    );
    let stats = lsm.layout_stats("Events").unwrap();
    assert_eq!(
        stats.full_renders, 1,
        "the flood must never re-render the tier"
    );
    assert_eq!(stats.incremental_appends, BATCHES as u64);
    let metrics = lsm.metrics();
    let absorbs = metrics
        .histogram("lsm.absorb_micros")
        .expect("lsm.absorb_micros registered");
    assert_eq!(absorbs.count, BATCHES as u64, "one absorb per batch");
    let spills = metrics
        .counter("lsm.spills")
        .expect("lsm.spills registered");
    let merges = metrics
        .counter("lsm.merges")
        .expect("lsm.merges registered");
    assert!(spills > 0, "the flood must overflow the memtable");
    assert!(
        merges <= spills,
        "compaction runs at most one level merge per spill: {merges} merges, {spills} spills"
    );
}

/// A durable flood under checkpoint churn: pinned snapshots re-scan
/// identically, the checkpoints truncate the WAL, compaction leaves no
/// garbage behind — the file ends within 4× of loading the same rows once —
/// and the tier reopens byte-identically.
#[test]
fn checkpoint_under_churn_reclaims_extents_and_reopens_identically() {
    const BATCH: usize = 25;
    const BATCHES: i64 = 24;
    let options = DurabilityOptions {
        page_size: 1024,
        sync: SyncPolicy::GroupCommit(8),
    };
    let declare_tier = |db: &Database| {
        db.apply_layout(
            "Events",
            LayoutExpr::table("Events").lsm(["k"]),
            ReorgStrategy::Eager,
        )
        .unwrap();
    };
    let dir = scratch_dir("churn");
    let (expected, flooded_pages) = {
        let db = Arc::new(Database::create_with(&dir, options).unwrap());
        db.set_lsm_params(8, 2);
        db.create_table(events_schema()).unwrap();
        db.insert("Events", batch_rows(0, 40)).unwrap();
        declare_tier(&db);

        let committed = Arc::new(AtomicUsize::new(0));
        let reader = {
            let db = Arc::clone(&db);
            let committed = Arc::clone(&committed);
            std::thread::spawn(move || {
                while committed.load(Ordering::SeqCst) < BATCHES as usize {
                    let snap = db.snapshot("Events").unwrap();
                    let first = snap.scan(&ScanRequest::all()).unwrap();
                    std::thread::yield_now();
                    assert_eq!(
                        snap.scan(&ScanRequest::all()).unwrap(),
                        first,
                        "pinned snapshot changed under checkpoint churn"
                    );
                }
            })
        };
        for b in 1..=BATCHES {
            db.insert("Events", batch_rows(b, BATCH)).unwrap();
            committed.store(b as usize, Ordering::SeqCst);
            if b % 6 == 0 {
                db.checkpoint().unwrap();
            }
        }
        reader.join().unwrap();

        // Quiesce and checkpoint twice: the first parks and frees whatever
        // the drained tokens allow, the second reuses the freed tail — the
        // file must not keep growing with compaction garbage.
        let peak = db.pager().page_count();
        db.checkpoint().unwrap();
        db.checkpoint().unwrap();
        let flooded_pages = db.pager().page_count();
        assert!(flooded_pages <= peak, "checkpoint must never grow the file");
        assert_eq!(db.layout_stats("Events").unwrap().full_renders, 1);
        let metrics = db.metrics();
        let checkpoints = metrics
            .counter("checkpoint.count")
            .expect("checkpoint.count registered");
        let truncations = metrics
            .counter("wal.truncations")
            .expect("wal.truncations registered");
        assert!(
            checkpoints >= 2 && truncations >= 1,
            "the flood must checkpoint and truncate the WAL: \
             {checkpoints} checkpoints, {truncations} truncations"
        );
        (
            db.scan("Events", &ScanRequest::all()).unwrap(),
            flooded_pages,
        )
    };

    let db = Database::open(&dir).unwrap();
    assert_eq!(
        db.scan("Events", &ScanRequest::all()).unwrap(),
        expected,
        "reopened tier must scan byte-identically"
    );
    assert_eq!(db.layout_stats("Events").unwrap().full_renders, 1);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);

    // The same rows loaded once and rendered once bound the flooded file.
    let fresh = scratch_dir("churn-fresh");
    let fresh_pages = {
        let db = Database::create_with(&fresh, options).unwrap();
        db.set_lsm_params(8, 2);
        db.create_table(events_schema()).unwrap();
        db.insert("Events", expected.clone()).unwrap();
        declare_tier(&db);
        db.checkpoint().unwrap();
        db.pager().page_count()
    };
    let _ = std::fs::remove_dir_all(&fresh);
    assert!(
        flooded_pages <= fresh_pages * 4,
        "flood, compaction and checkpoints accreted garbage: \
         {flooded_pages} pages against {fresh_pages} for one load"
    );
}
