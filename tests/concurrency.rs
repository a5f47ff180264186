//! Multi-threaded correctness tests: one `Arc<Database>` shared across
//! reader, writer, and adaptation threads.
//!
//! The heart of this suite is a linearizability-style stress test: a writer
//! appends numbered batches while readers scan and an adaptation thread
//! races layout changes, and every scan must observe an exact *batch
//! prefix* of the insert history — never a torn batch, never a gap, never a
//! row from a batch whose predecessor is missing. It runs once per
//! [`ReorgStrategy`], since each strategy moves rows between the rendered
//! layout and the pending buffer differently.
//!
//! The restart tests cover the durable state added in this PR: the
//! persisted adaptive policy and cost parameters, and the free-page list.
//! Beside them, multi-producer commits are counted sharing fsyncs, and
//! snapshot pins are timed staying flat while another table re-renders.

use rodentstore::{
    AdaptivePolicy, AdvisorOptions, CostParams, DataType, Database, Field, LayoutExpr,
    ReorgStrategy, ScanRequest, Schema, SyncPolicy, Value,
};
use rodentstore_optimizer::CostModel;
use rodentstore_storage::Wal;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rodentstore-concurrency-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn points_schema() -> Schema {
    Schema::new(
        "Points",
        vec![
            Field::new("batch", DataType::Int),
            Field::new("x", DataType::Float),
            Field::new("y", DataType::Float),
            Field::new("tag", DataType::String),
        ],
    )
}

fn batch_rows(batch: i64, rows: usize) -> Vec<Vec<Value>> {
    (0..rows)
        .map(|i| {
            vec![
                Value::Int(batch),
                Value::Float((batch * 97 + i as i64) as f64 * 0.25),
                Value::Float((batch * 31 + i as i64) as f64 * 0.5),
                Value::Str(format!("b{batch}-r{i}")),
            ]
        })
        .collect()
}

/// `Arc<Database>` must be shareable across threads — the whole point of
/// the `&self` read path. Compile-time check.
#[test]
fn database_handle_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<rodentstore::TableSnapshot>();
}

/// The stress test: readers vs. one writer vs. an adaptation thread, for
/// every reorganization strategy. Every scan must see an exact batch
/// prefix: batch 0 (the initial load) complete, then batches 1..k complete
/// for some k, and nothing else.
#[test]
fn scans_observe_batch_prefixes_under_concurrent_insert_and_adaptation() {
    const INITIAL: usize = 400;
    const BATCH: usize = 25;
    const BATCHES: i64 = 24;
    const READERS: usize = 3;
    for strategy in [
        ReorgStrategy::Eager,
        ReorgStrategy::Lazy,
        ReorgStrategy::NewDataOnly,
    ] {
        let db = Arc::new(Database::with_page_size(1024));
        db.create_table(points_schema()).unwrap();
        db.insert("Points", batch_rows(0, INITIAL)).unwrap();
        db.apply_layout(
            "Points",
            rodentstore::LayoutExpr::table("Points").columns(["batch", "x", "y", "tag"]),
            strategy,
        )
        .unwrap();

        // The writer bumps this *after* each insert returns; a scan started
        // afterwards must include at least that many batches.
        let committed = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));

        let writer = {
            let db = Arc::clone(&db);
            let committed = Arc::clone(&committed);
            std::thread::spawn(move || {
                for b in 1..=BATCHES {
                    db.insert("Points", batch_rows(b, BATCH)).unwrap();
                    committed.store(b as usize, Ordering::SeqCst);
                    std::thread::yield_now();
                }
            })
        };

        let adapter = {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Race explicit layout re-declarations (the same machinery
                // `maybe_adapt` applies through) against readers + writer.
                let exprs = [
                    "columns(Points)",
                    "project[batch,x,y,tag](Points)",
                    "orderby[batch](Points)",
                    "vertical[batch,x|y,tag](Points)",
                ];
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let expr = rodentstore::parse(exprs[i % exprs.len()]).unwrap();
                    db.apply_layout("Points", expr, strategy).unwrap();
                    i += 1;
                    std::thread::yield_now();
                }
            })
        };

        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let db = Arc::clone(&db);
                let committed = Arc::clone(&committed);
                let writer_done = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut scans = 0usize;
                    while !writer_done.load(Ordering::Relaxed) || scans < 5 {
                        let floor = committed.load(Ordering::SeqCst);
                        let request = if r % 2 == 0 {
                            ScanRequest::all()
                        } else {
                            ScanRequest::all().fields(["batch", "tag"])
                        };
                        let rows = db.scan("Points", &request).unwrap();
                        // Batch-prefix invariant: per-batch counts must be
                        // complete, contiguous from 0, and cover at least
                        // the batches committed before the scan began.
                        // (`batch` is position 0 in both request shapes.)
                        let mut counts: BTreeMap<i64, usize> = BTreeMap::new();
                        for row in &rows {
                            *counts.entry(row[0].as_i64().unwrap()).or_default() += 1;
                        }
                        let max_batch = *counts.keys().max().unwrap();
                        assert_eq!(counts[&0], INITIAL, "initial load torn ({strategy})");
                        for b in 1..=max_batch {
                            assert_eq!(
                                counts.get(&b),
                                Some(&BATCH),
                                "batch {b} torn or missing at max {max_batch} ({strategy})"
                            );
                        }
                        assert!(
                            max_batch >= floor as i64,
                            "scan missed batches committed before it began: \
                             saw {max_batch}, floor {floor} ({strategy})"
                        );
                        scans += 1;
                    }
                    scans
                })
            })
            .collect();

        writer.join().unwrap();
        stop.store(true, Ordering::SeqCst);
        for reader in readers {
            assert!(reader.join().unwrap() >= 5);
        }
        adapter.join().unwrap();

        // Quiesced end state: everything adds up exactly.
        let rows = db.scan("Points", &ScanRequest::all()).unwrap();
        assert_eq!(rows.len(), INITIAL + (BATCHES as usize) * BATCH);
        // Positional access agrees with the stored representation.
        let last = db
            .get_element("Points", rows.len() - 1, None)
            .unwrap();
        assert_eq!(last.len(), 4);
    }
}

/// Auto-adaptation triggered *from reader threads* must stay correct and
/// race-free: many readers crossing the check threshold together, one
/// advisor run at a time, scans correct throughout.
#[test]
fn auto_adaptation_from_concurrent_readers_is_safe() {
    let db = Arc::new(Database::with_page_size(1024));
    db.set_adaptive_policy(AdaptivePolicy {
        auto: true,
        check_every: 8,
        min_queries: 8,
        hysteresis: 0.1,
        advisor: AdvisorOptions {
            cost_model: CostModel {
                sample_size: 400,
                page_size: 1024,
                cost_params: CostParams {
                    seek_ms: 1.0,
                    transfer_mb_per_s: 2.0,
                },
            },
            anneal_iterations: 1,
            seed: 3,
        },
        ..AdaptivePolicy::default()
    });
    db.create_table(points_schema()).unwrap();
    db.insert("Points", batch_rows(0, 600)).unwrap();

    let handles: Vec<_> = (0..4)
        .map(|_| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for _ in 0..40 {
                    let rows = db
                        .scan("Points", &ScanRequest::all().fields(["x"]))
                        .unwrap();
                    assert_eq!(rows.len(), 600);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // The projection-heavy traffic must have driven at least one adaptation.
    assert!(
        db.layout_stats("Points").unwrap().adaptations >= 1,
        "auto mode must adapt under concurrent reader traffic"
    );
    assert_eq!(db.scan("Points", &ScanRequest::all()).unwrap().len(), 600);
}

/// A pinned snapshot (and its streaming cursor) survives layout swaps and
/// inserts underneath it, and the superseded layout's pages are reclaimed
/// only after the pin drops.
#[test]
fn pinned_snapshots_survive_layout_swaps_and_defer_page_reclamation() {
    let db = Database::with_page_size(1024);
    db.create_table(points_schema()).unwrap();
    db.insert("Points", batch_rows(0, 500)).unwrap();
    db.apply_layout_text("Points", "columns(Points)").unwrap();

    let snapshot = db.snapshot("Points").unwrap();
    let before = snapshot.scan(&ScanRequest::all()).unwrap();
    assert_eq!(before.len(), 500);

    // Swap the layout and insert more rows while the snapshot is pinned.
    db.apply_layout_text("Points", "orderby[x](project[batch,x,y,tag](Points))")
        .unwrap();
    db.insert("Points", batch_rows(1, 50)).unwrap();
    assert_eq!(
        db.pager().free_page_count(),
        0,
        "pinned layout's pages must not be reclaimed"
    );

    // The pinned snapshot still reads the old, 500-row state — via scan,
    // streaming cursor, and positional access.
    assert_eq!(snapshot.scan(&ScanRequest::all()).unwrap(), before);
    let mut cursor = snapshot.open_cursor(&ScanRequest::all()).unwrap();
    let mut streamed = 0usize;
    while cursor.try_next().unwrap().is_some() {
        streamed += 1;
    }
    assert_eq!(streamed, 500);
    assert_eq!(snapshot.get_element(0, None).unwrap(), before[0]);

    // Fresh reads see the new state.
    assert_eq!(db.scan("Points", &ScanRequest::all()).unwrap().len(), 550);

    // Dropping the pin lets the next writer reclaim the old extent.
    drop(cursor);
    drop(snapshot);
    db.insert("Points", batch_rows(2, 1)).unwrap();
    assert!(
        db.pager().free_page_count() > 0,
        "superseded layout's pages must reach the free list after the pin drops"
    );
}

fn events_schema() -> Schema {
    Schema::new(
        "Events",
        vec![
            Field::new("seq", DataType::Int),
            Field::new("weight", DataType::Float),
        ],
    )
}

/// Median latency of `samples` consecutive snapshot pins on `table`.
fn median_pin_latency(db: &Database, table: &str, samples: usize) -> Duration {
    let mut latencies: Vec<Duration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            let snapshot = db.snapshot(table).unwrap();
            let elapsed = start.elapsed();
            drop(snapshot);
            elapsed
        })
        .collect();
    latencies.sort_unstable();
    latencies[samples / 2]
}

/// Scans per second that `readers` threads sustain over projected scans of
/// `Points` while a writer keeps inserting into `Events`.
fn read_throughput(db: &Database, readers: usize, scans_each: usize) -> f64 {
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(readers);
    let elapsed = std::thread::scope(|s| {
        s.spawn(|| {
            let mut seq = 0i64;
            while !stop.load(Ordering::Relaxed) {
                let batch = (seq..seq + 16)
                    .map(|i| vec![Value::Int(i), Value::Float(i as f64)])
                    .collect();
                db.insert("Events", batch).unwrap();
                seq += 16;
                std::thread::yield_now();
            }
        });
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    let start = Instant::now();
                    for _ in 0..scans_each {
                        db.scan("Points", &ScanRequest::all().fields(["x"]))
                            .unwrap();
                    }
                    start.elapsed()
                })
            })
            .collect();
        // Each reader times its own scans: one clock started here could
        // start after a reader released first had already finished.
        let slowest = handles.into_iter().map(|h| h.join().unwrap()).max();
        stop.store(true, Ordering::Relaxed);
        slowest.unwrap_or_default()
    });
    (readers * scans_each) as f64 / elapsed.as_secs_f64()
}

/// A snapshot pin is two atomic loads and takes no lock, so re-rendering
/// one table in a tight loop must not move the median pin latency on
/// another. No work count can say "takes no lock", so this stays timed,
/// with a generous bound: a pin that waited on a render would take
/// milliseconds. On hosts with ≥ 4 cores, eight readers beside a writer
/// must also deliver ≥ 3× the scan throughput of one; smaller hosts have no
/// parallelism to measure.
#[test]
fn snapshot_pins_and_reads_never_wait_on_another_table() {
    const PIN_SAMPLES: usize = 5_000;
    let db = Database::with_page_size(1024);
    db.create_table(points_schema()).unwrap();
    db.insert("Points", batch_rows(0, 2_000)).unwrap();
    db.apply_layout_text("Points", "columns(Points)").unwrap();
    db.create_table(events_schema()).unwrap();

    let quiet = median_pin_latency(&db, "Events", PIN_SAMPLES);
    let renders = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let busy = std::thread::scope(|s| {
        s.spawn(|| {
            for layout in ["rows(Points)", "columns(Points)"].iter().cycle() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                db.apply_layout_text("Points", layout).unwrap();
                renders.fetch_add(1, Ordering::Relaxed);
            }
        });
        // Measure once re-renders are under way.
        while renders.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        let busy = median_pin_latency(&db, "Events", PIN_SAMPLES);
        stop.store(true, Ordering::Relaxed);
        busy
    });
    let bound = (quiet * 20).max(Duration::from_micros(50));
    assert!(
        busy <= bound,
        "re-rendering Points moved the median pin on Events: \
         quiet {quiet:?} → busy {busy:?} (bound {bound:?})"
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 4 {
        let one = read_throughput(&db, 1, 20);
        let eight = read_throughput(&db, 8, 20);
        assert!(
            eight >= one * 3.0,
            "8 readers must deliver ≥ 3× one reader's scans, got {:.2}× on {cores} cores",
            eight / one
        );
    }
}

/// Eight producers commit one-op transactions straight into the WAL.
/// `GroupCommit(64)` batches fsyncs across producers; `GroupDurable` makes
/// every commit durable before it returns, yet committers arriving while an
/// fsync is in flight park on the next one and share it.
#[test]
fn multi_producer_commits_share_fsyncs() {
    const PRODUCERS: usize = 8;
    const COMMITS_EACH: usize = 50;
    const COMMITS: u64 = (PRODUCERS * COMMITS_EACH) as u64;
    let fsyncs = |policy: SyncPolicy, tag: &str| {
        let dir = scratch_dir(tag);
        let wal = Wal::create(dir.join("wal.rodent"), policy).unwrap();
        let before = wal.sync_count();
        let barrier = Barrier::new(PRODUCERS);
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let (wal, barrier) = (&wal, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for c in 0..COMMITS_EACH {
                        let tx = wal.begin().unwrap();
                        wal.log_op(tx, format!("p{p}-c{c}").as_bytes()).unwrap();
                        wal.commit(tx).unwrap();
                    }
                });
            }
        });
        let fsyncs = wal.sync_count() - before;
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
        fsyncs
    };
    let grouped = fsyncs(SyncPolicy::GroupCommit(64), "mp-group-commit");
    assert!(
        grouped * 5 <= COMMITS,
        "GroupCommit(64) × {PRODUCERS} producers: {grouped} fsyncs for {COMMITS} commits"
    );
    let durable = fsyncs(SyncPolicy::GroupDurable, "mp-group-durable");
    assert!(
        COMMITS as f64 >= 1.5 * durable as f64,
        "GroupDurable × {PRODUCERS} producers must share fsyncs: \
         {durable} fsyncs for {COMMITS} commits"
    );
}

/// Freed pages are actually *reused*: re-declaring layouts over and over
/// must not grow the page file linearly with the number of declarations.
#[test]
fn superseded_render_pages_are_reused_not_leaked() {
    let db = Database::with_page_size(1024);
    db.create_table(points_schema()).unwrap();
    db.insert("Points", batch_rows(0, 800)).unwrap();
    db.apply_layout_text("Points", "columns(Points)").unwrap();
    let after_first = db.pager().page_count();
    for _ in 0..6 {
        db.apply_layout_text("Points", "rows(Points)").unwrap();
        db.apply_layout_text("Points", "columns(Points)").unwrap();
    }
    let final_pages = db.pager().page_count();
    assert!(
        final_pages <= after_first * 3,
        "12 re-renders grew the file {after_first} → {final_pages} pages: free list not reused"
    );

    // Dropped tables are reclaimed the same way.
    let before_drop = db.pager().page_count();
    db.drop_table("Points").unwrap();
    db.create_table(points_schema()).unwrap();
    db.insert("Points", batch_rows(0, 800)).unwrap();
    db.apply_layout_text("Points", "columns(Points)").unwrap();
    assert!(
        db.pager().page_count() <= before_drop + 8,
        "recreating a dropped table must reuse its freed pages"
    );
}

/// The restart test for the state this PR persists: adaptive policy, cost
/// parameters, and the free-page list all round-trip through a checkpoint.
#[test]
fn restart_restores_policy_cost_params_and_free_list() {
    let dir = scratch_dir("policy-freelist");
    let custom_policy = AdaptivePolicy {
        auto: true,
        check_every: 23,
        min_queries: 7,
        hysteresis: 0.31,
        strategy: ReorgStrategy::Lazy,
        advisor: AdvisorOptions {
            cost_model: CostModel {
                sample_size: 1_234,
                page_size: 1024,
                cost_params: CostParams {
                    seek_ms: 3.5,
                    transfer_mb_per_s: 44.0,
                },
            },
            anneal_iterations: 5,
            seed: 77,
        },
    };
    let custom_cost = CostParams {
        seek_ms: 9.25,
        transfer_mb_per_s: 17.0,
    };
    let (free_before, pages_before) = {
        let db = Database::create_with(
            &dir,
            rodentstore::DurabilityOptions {
                page_size: 1024,
                sync: SyncPolicy::GroupDurable,
            },
        )
        .unwrap();
        db.set_adaptive_policy(custom_policy.clone());
        db.set_cost_params(custom_cost);
        db.create_table(points_schema()).unwrap();
        db.insert("Points", batch_rows(0, 700)).unwrap();
        // Two declarations: the first render's pages land on the free list.
        db.apply_layout_text("Points", "columns(Points)").unwrap();
        db.apply_layout_text("Points", "project[batch,x](Points)").unwrap();
        db.checkpoint().unwrap();
        let free = db.pager().free_list();
        assert!(!free.is_empty(), "superseded render must free pages");
        (free, db.pager().page_count())
    };

    let db = Database::open(&dir).unwrap();
    // Policy and cost params came back exactly, not as defaults.
    let policy = db.adaptive_policy();
    assert!(policy.auto);
    assert_eq!(policy.check_every, custom_policy.check_every);
    assert_eq!(policy.min_queries, custom_policy.min_queries);
    assert_eq!(policy.hysteresis, custom_policy.hysteresis);
    assert_eq!(policy.strategy, ReorgStrategy::Lazy);
    assert_eq!(
        policy.advisor.cost_model.sample_size,
        custom_policy.advisor.cost_model.sample_size
    );
    assert_eq!(
        policy.advisor.cost_model.cost_params.seek_ms,
        custom_policy.advisor.cost_model.cost_params.seek_ms
    );
    assert_eq!(policy.advisor.anneal_iterations, 5);
    assert_eq!(policy.advisor.seed, 77);

    // The free list survived the restart and is reused by the next render.
    assert_eq!(db.pager().free_list(), free_before);
    db.apply_layout_text("Points", "columns(Points)").unwrap();
    assert!(
        db.pager().page_count() <= pages_before + 4,
        "the reopened database must render into the restored free pages"
    );
    assert_eq!(db.scan("Points", &ScanRequest::all()).unwrap().len(), 700);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pages still referenced by the last on-disk manifest must never be
/// reused before the next checkpoint. A fold layout forces an *unlogged*
/// rebuild on insert (scans/absorbs are not WAL ops): the checkpointed
/// extent is retired and, without quarantine, the rebuild itself would
/// reallocate and overwrite it — then a crash would reattach the manifest
/// extent over foreign bytes.
#[test]
fn checkpointed_extents_survive_unlogged_rebuilds_until_next_checkpoint() {
    let dir = scratch_dir("quarantine");
    let fold_schema = Schema::new(
        "Readings",
        vec![
            Field::new("sensor", DataType::Int),
            Field::new("v", DataType::Float),
        ],
    );
    let rows = |lo: i64, n: i64| -> Vec<Vec<Value>> {
        (lo..lo + n)
            .map(|i| vec![Value::Int(i % 10), Value::Float(i as f64)])
            .collect()
    };
    {
        let db = Database::create_with(
            &dir,
            rodentstore::DurabilityOptions {
                page_size: 1024,
                sync: SyncPolicy::GroupDurable,
            },
        )
        .unwrap();
        db.create_table(fold_schema).unwrap();
        db.insert("Readings", rows(0, 300)).unwrap();
        // fold groups cannot absorb appends → every insert rebuilds.
        db.apply_layout_text("Readings", "fold[sensor|v](Readings)").unwrap();
        db.checkpoint().unwrap();
        // Unlogged rebuild: the checkpointed extent is retired; two more
        // inserts give the reaper every chance to recycle it.
        db.insert("Readings", rows(300, 50)).unwrap();
        db.insert("Readings", rows(350, 50)).unwrap();
        assert_eq!(
            db.pager().free_page_count(),
            0,
            "manifest-referenced pages must stay quarantined until the next checkpoint"
        );
        // Crash without checkpoint.
    }
    let db = Database::open(&dir).unwrap();
    let recovered = db.scan("Readings", &ScanRequest::all()).unwrap();
    assert_eq!(recovered.len(), 400, "reattached extent must be intact");
    // A checkpoint on the reopened database releases the quarantine: the
    // next rebuild can then reuse pages without growing the file much.
    db.checkpoint().unwrap();
    assert!(
        db.pager().free_page_count() > 0,
        "checkpoint must release quarantined pages to the free list"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent durable inserts from many threads: every row lands, every
/// commit is durable (GroupDurable), and a reopen recovers them all.
#[test]
fn concurrent_durable_inserts_all_recover() {
    let dir = scratch_dir("mp-inserts");
    const THREADS: i64 = 4;
    const PER_THREAD: i64 = 20;
    {
        let db = Arc::new(
            Database::create_with(
                &dir,
                rodentstore::DurabilityOptions {
                    page_size: 1024,
                    sync: SyncPolicy::GroupDurable,
                },
            )
            .unwrap(),
        );
        db.create_table(points_schema()).unwrap();
        db.apply_layout_text("Points", "columns(Points)").unwrap();
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        db.insert("Points", batch_rows(t * PER_THREAD + i, 2)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            db.row_count("Points").unwrap(),
            (THREADS * PER_THREAD * 2) as usize
        );
        // No checkpoint: recovery must come from the WAL alone.
    }
    let db = Database::open(&dir).unwrap();
    let rows = db.scan("Points", &ScanRequest::all()).unwrap();
    assert_eq!(rows.len(), (THREADS * PER_THREAD * 2) as usize);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Epoch-based reclamation under long-lived pins: readers hold snapshots
/// across many concurrent layout swaps and inserts, and every re-scan of a
/// held snapshot must be identical to its first — superseded renderings
/// must never be reused (and their pages never overwritten) while a live
/// pin can still reach them. The retired set may grow while pins defer
/// reclamation, but it must stay bounded by the writes outstanding and
/// drain back down once the pins are released.
#[test]
fn epoch_reclamation_defers_under_pins_then_drains() {
    const SWAPS: usize = 24;
    let db = Arc::new(Database::with_page_size(1024));
    db.create_table(points_schema()).unwrap();
    db.insert("Points", batch_rows(0, 400)).unwrap();
    db.apply_layout_text("Points", "columns(Points)").unwrap();

    let stop = Arc::new(AtomicBool::new(false));

    // Readers: pin a snapshot, hold it across concurrent swaps while
    // repeatedly re-scanning it, drop it, repeat.
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut pins = 0usize;
                while !stop.load(Ordering::Relaxed) || pins < 4 {
                    let snap = db.snapshot("Points").unwrap();
                    let first = snap.scan(&ScanRequest::all()).unwrap();
                    for _ in 0..8 {
                        std::thread::yield_now();
                        assert_eq!(
                            snap.scan(&ScanRequest::all()).unwrap(),
                            first,
                            "pinned snapshot changed under concurrent swaps"
                        );
                    }
                    assert_eq!(snap.get_element(0, None).unwrap(), first[0]);
                    pins += 1;
                }
                pins
            })
        })
        .collect();

    // Writer: race layout swaps and inserts against the held pins, and
    // watch the retired set as it goes.
    let exprs = [
        "columns(Points)",
        "rows(Points)",
        "orderby[batch](Points)",
        "project[batch,x,y,tag](Points)",
    ];
    let mut max_retired = 0usize;
    for i in 0..SWAPS {
        db.apply_layout_text("Points", exprs[i % exprs.len()]).unwrap();
        db.insert("Points", batch_rows(100 + i as i64, 5)).unwrap();
        max_retired = max_retired.max(db.retired_snapshots());
    }
    stop.store(true, Ordering::SeqCst);
    for reader in readers {
        assert!(reader.join().unwrap() >= 4);
    }

    // Bounded: deferral is proportional to the writes raced, never more.
    // Each swap/insert retires at most a handful of entries (the superseded
    // state, its rendering, the vacated pages).
    assert!(
        max_retired <= SWAPS * 6 + 8,
        "retired set grew superlinearly: {max_retired} entries after {SWAPS} swaps"
    );

    // Drained: with every pin released, the next writes' reap empties the
    // backlog down to what those writes themselves just retired.
    db.insert("Points", batch_rows(900, 1)).unwrap();
    db.insert("Points", batch_rows(901, 1)).unwrap();
    let after = db.retired_snapshots();
    assert!(
        after <= 4,
        "retired set must drain once pins are released; still {after} entries"
    );
    // And the quiesced contents add up exactly.
    let rows = db.scan("Points", &ScanRequest::all()).unwrap();
    assert_eq!(rows.len(), 400 + SWAPS * 5 + 2);
}

/// The per-table registry round-trips through a checkpoint: several tables
/// with distinct layouts, strategies, stats, and workload profiles all come
/// back exactly on `Database::open`.
#[test]
fn per_table_registry_round_trips_through_checkpoint_and_open() {
    let dir = scratch_dir("registry-roundtrip");
    let readings_schema = Schema::new(
        "Readings",
        vec![
            Field::new("sensor", DataType::Int),
            Field::new("v", DataType::Float),
        ],
    );
    let (points_stats, points_profile, readings_rows) = {
        let db = Database::create_with(
            &dir,
            rodentstore::DurabilityOptions {
                page_size: 1024,
                sync: SyncPolicy::GroupDurable,
            },
        )
        .unwrap();
        // Table 1: ordered projection, lazy reorganization, profiled scans.
        db.create_table(points_schema()).unwrap();
        db.insert("Points", batch_rows(0, 300)).unwrap();
        db.apply_layout(
            "Points",
            rodentstore::parse("orderby[x](project[batch,x,y,tag](Points))").unwrap(),
            ReorgStrategy::Lazy,
        )
        .unwrap();
        for _ in 0..6 {
            db.scan("Points", &ScanRequest::all().fields(["x"])).unwrap();
        }
        // Table 2: fold layout, eager strategy, rebuilt once by an insert.
        db.create_table(readings_schema.clone()).unwrap();
        db.insert(
            "Readings",
            (0..120_i64)
                .map(|i| vec![Value::Int(i % 7), Value::Float(i as f64)])
                .collect(),
        )
        .unwrap();
        db.apply_layout_text("Readings", "fold[sensor|v](Readings)").unwrap();
        db.insert(
            "Readings",
            vec![vec![Value::Int(3), Value::Float(999.0)]],
        )
        .unwrap();
        // Table 3: canonical rows only, no layout declared.
        db.create_table(Schema::new(
            "Tags",
            vec![Field::new("name", DataType::String)],
        ))
        .unwrap();
        db.insert("Tags", vec![vec![Value::Str("a".into())], vec![Value::Str("b".into())]])
            .unwrap();
        db.checkpoint().unwrap();
        (
            db.layout_stats("Points").unwrap(),
            db.workload_profile("Points").unwrap(),
            db.scan("Readings", &ScanRequest::all()).unwrap(),
        )
    };

    let db = Database::open(&dir).unwrap();
    let view = db.catalog();
    let mut names = view.table_names();
    names.sort();
    assert_eq!(names, ["Points", "Readings", "Tags"]);

    // Per-table layout expressions, strategies, and schemas came back.
    let points = view.get("Points").unwrap();
    assert_eq!(
        points.layout_expr.as_ref().map(|e| e.to_string()),
        Some("orderby[x](project[batch,x,y,tag](Points))".to_string())
    );
    assert_eq!(points.strategy, ReorgStrategy::Lazy);
    assert_eq!(points.schema.to_string(), points_schema().to_string());
    let readings = view.get("Readings").unwrap();
    assert_eq!(
        readings.layout_expr.as_ref().map(|e| e.to_string()),
        Some("fold[sensor|v](Readings)".to_string())
    );
    assert_eq!(readings.strategy, ReorgStrategy::Eager);
    assert!(view.get("Tags").unwrap().layout_expr.is_none());

    // Stats and the workload profile are the checkpointed values, not
    // defaults: the lazy re-render and the profiled scans survived.
    let stats = db.layout_stats("Points").unwrap();
    assert_eq!(stats, points_stats);
    let profile = db.workload_profile("Points").unwrap();
    assert_eq!(profile.queries_observed, points_profile.queries_observed);

    // And the contents themselves.
    assert_eq!(db.scan("Readings", &ScanRequest::all()).unwrap(), readings_rows);
    assert_eq!(db.scan("Points", &ScanRequest::all()).unwrap().len(), 300);
    assert_eq!(db.scan("Tags", &ScanRequest::all()).unwrap().len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a prejoined table's rendering captures its joined base
/// tables *outside* their writer mutexes, so a base-table publish used to
/// leave the dependent's rendering silently stale — current-looking but
/// missing rows that became joinable — until the dependent's own next
/// write. The dependency flag must heal it on the very next access.
#[test]
fn prejoin_rendering_heals_after_joined_base_publishes() {
    for strategy in [ReorgStrategy::Eager, ReorgStrategy::Lazy] {
        let db = Database::with_page_size(1024);
        db.create_table(Schema::new(
            "Customers",
            vec![
                Field::new("cid", DataType::Int),
                Field::new("name", DataType::String),
            ],
        ))
        .unwrap();
        db.create_table(Schema::new(
            "Orders",
            vec![
                Field::new("oid", DataType::Int),
                Field::new("cid", DataType::Int),
            ],
        ))
        .unwrap();
        db.insert(
            "Customers",
            vec![vec![Value::Int(1), Value::Str("ada".into())]],
        )
        .unwrap();
        db.insert(
            "Orders",
            vec![
                vec![Value::Int(10), Value::Int(1)],
                vec![Value::Int(20), Value::Int(2)],
            ],
        )
        .unwrap();
        db.apply_layout(
            "Orders",
            LayoutExpr::table("Orders").prejoin(LayoutExpr::table("Customers"), "cid"),
            strategy,
        )
        .unwrap();

        // Inner join: order 20 references a customer that does not exist
        // yet, so only order 10 denormalizes.
        let rows = db.scan("Orders", &ScanRequest::all()).unwrap();
        assert_eq!(rows.len(), 1, "{strategy:?}");
        assert_eq!(rows[0][0], Value::Int(10));

        // Publish the missing customer. This touches only Customers —
        // Orders' rendering still *looks* current (it has a rendering and
        // no pending rows), and before the dependency flag the newly
        // joinable order stayed invisible indefinitely.
        db.insert(
            "Customers",
            vec![vec![Value::Int(2), Value::Str("bob".into())]],
        )
        .unwrap();
        let rows = db.scan("Orders", &ScanRequest::all()).unwrap();
        assert_eq!(
            rows.len(),
            2,
            "{strategy:?}: rendering did not heal after the joined base published"
        );
        for r in &rows {
            // Joined shape: [oid, cid, Customers.cid, name] — the join
            // attribute must agree on both sides and the name must be the
            // matched customer's, never a stale or torn capture.
            assert_eq!(r[1], r[2], "{strategy:?}: join attribute mismatch");
        }
        let bob = rows.iter().find(|r| r[0] == Value::Int(20)).unwrap();
        assert_eq!(bob[3], Value::Str("bob".into()), "{strategy:?}");

        // The flag clears: the healing render is one render, not a
        // re-render on every subsequent access.
        let renders = db.layout_stats("Orders").unwrap().full_renders;
        db.scan("Orders", &ScanRequest::all()).unwrap();
        assert_eq!(
            db.layout_stats("Orders").unwrap().full_renders,
            renders,
            "{strategy:?}: dependency flag must clear after the heal"
        );
    }
}

/// The racing variant: one thread publishes Customers batches while
/// another publishes Orders batches into a prejoined layout, with readers
/// scanning throughout. Every scanned row must be internally consistent
/// (join attribute equal on both sides, name belonging to that customer,
/// no duplicated orders), and once all writers quiesce — with the *last*
/// customers published after the last Orders write, the exact window the
/// dependency flag covers — the scan must denormalize every order.
#[test]
fn prejoined_scans_stay_consistent_under_racing_base_inserts() {
    const CIDS: i64 = 40;
    const ORDER_BATCHES: i64 = 40;
    const ORDERS_PER_BATCH: i64 = 5;
    let db = Arc::new(Database::with_page_size(1024));
    db.create_table(Schema::new(
        "Customers",
        vec![
            Field::new("cid", DataType::Int),
            Field::new("name", DataType::String),
        ],
    ))
    .unwrap();
    db.create_table(Schema::new(
        "Orders",
        vec![
            Field::new("oid", DataType::Int),
            Field::new("cid", DataType::Int),
        ],
    ))
    .unwrap();
    db.apply_layout(
        "Orders",
        LayoutExpr::table("Orders").prejoin(LayoutExpr::table("Customers"), "cid"),
        ReorgStrategy::Eager,
    )
    .unwrap();

    let customer_batch = |cids: std::ops::Range<i64>| -> Vec<Vec<Value>> {
        cids.map(|c| vec![Value::Int(c), Value::Str(format!("name-{c}"))])
            .collect()
    };

    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let db = Arc::clone(&db);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut scans = 0usize;
                while !done.load(Ordering::SeqCst) || scans < 5 {
                    let rows = db.scan("Orders", &ScanRequest::all()).unwrap();
                    let mut seen = std::collections::BTreeSet::new();
                    for r in &rows {
                        assert_eq!(r[1], r[2], "torn join: attribute mismatch");
                        let cid = r[1].as_i64().unwrap();
                        assert_eq!(
                            r[3],
                            Value::Str(format!("name-{cid}")),
                            "torn join: wrong customer captured"
                        );
                        assert!(
                            seen.insert(r[0].as_i64().unwrap()),
                            "order denormalized twice"
                        );
                    }
                    scans += 1;
                }
                scans
            })
        })
        .collect();

    // First half of the customers race the orders; the second half lands
    // only after the orders writer has quiesced.
    let customers_writer = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            for start in (0..CIDS / 2).step_by(4) {
                db.insert("Customers", customer_batch(start..start + 4))
                    .unwrap();
                std::thread::yield_now();
            }
        })
    };
    let orders_writer = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            let mut oid = 0i64;
            for _ in 0..ORDER_BATCHES {
                let batch: Vec<Vec<Value>> = (0..ORDERS_PER_BATCH)
                    .map(|_| {
                        let row = vec![Value::Int(oid), Value::Int(oid % CIDS)];
                        oid += 1;
                        row
                    })
                    .collect();
                db.insert("Orders", batch).unwrap();
                std::thread::yield_now();
            }
        })
    };
    customers_writer.join().unwrap();
    orders_writer.join().unwrap();
    // The stale window under test: these publishes touch only Customers,
    // after Orders' final (current-looking) rendering.
    db.insert("Customers", customer_batch(CIDS / 2..CIDS)).unwrap();
    done.store(true, Ordering::SeqCst);
    for reader in readers {
        assert!(reader.join().unwrap() >= 5);
    }

    let rows = db.scan("Orders", &ScanRequest::all()).unwrap();
    assert_eq!(
        rows.len(),
        (ORDER_BATCHES * ORDERS_PER_BATCH) as usize,
        "orders referencing late-published customers must denormalize"
    );
    let oids: std::collections::BTreeSet<i64> =
        rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    assert_eq!(oids.len(), rows.len());
    for r in &rows {
        assert_eq!(r[1], r[2]);
        let cid = r[1].as_i64().unwrap();
        assert_eq!(r[3], Value::Str(format!("name-{cid}")));
    }
}
