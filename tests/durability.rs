//! End-to-end durability and crash-recovery tests.
//!
//! The heart of this suite is an exhaustive crash-point sweep: a database
//! performs a checkpoint and then a run of committed transactions, and the
//! test simulates a kill at **every byte truncation point** of the WAL tail.
//! For each cut it reopens the database and asserts that the reopened scan
//! is exactly the canonical rows of the transactions whose commit record
//! fully survived the cut — committed transactions win, torn tails lose,
//! nothing in between.

use rodentstore::{
    AdaptOutcome, AdaptivePolicy, AdvisorOptions, CostParams, DataType, Database,
    DurabilityOptions, Field, LayoutExpr, ReorgStrategy, RodentError, ScanRequest, Schema,
    SyncPolicy, Value,
};
use rodentstore_optimizer::CostModel;
use rodentstore_storage::StorageError;
use rodentstore_workload::{generate_traces, traces_schema, CartelConfig};
use std::path::{Path, PathBuf};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rodentstore-durability-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_db(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for file in ["data.rodent", "wal.rodent", "manifest.rodent"] {
        std::fs::copy(from.join(file), to.join(file)).unwrap();
    }
}

fn small_policy() -> AdaptivePolicy {
    AdaptivePolicy {
        auto: false,
        min_queries: 8,
        hysteresis: 0.1,
        advisor: AdvisorOptions {
            cost_model: CostModel {
                sample_size: 1_000,
                page_size: 1024,
                cost_params: CostParams {
                    seek_ms: 1.0,
                    transfer_mb_per_s: 2.0,
                },
            },
            anneal_iterations: 2,
            seed: 11,
        },
        ..AdaptivePolicy::default()
    }
}

#[test]
fn create_checkpoint_reopen_round_trips_rows_and_layout() {
    let dir = scratch_dir("roundtrip");
    let expected = {
        let db = Database::create_with(
            &dir,
            DurabilityOptions {
                page_size: 1024,
                sync: SyncPolicy::GroupCommit(8),
                ..DurabilityOptions::default()
            },
        )
        .unwrap();
        db.create_table(traces_schema()).unwrap();
        db.insert(
            "Traces",
            generate_traces(&CartelConfig {
                observations: 600,
                vehicles: 6,
                ..CartelConfig::default()
            }),
        )
        .unwrap();
        db.apply_layout(
            "Traces",
            LayoutExpr::table("Traces").project(["lat", "lon"]),
            ReorgStrategy::Eager,
        )
        .unwrap();
        db.checkpoint().unwrap();
        db.scan("Traces", &ScanRequest::all()).unwrap()
    }; // drop = process exit; checkpointed state must be self-contained

    let db = Database::open(&dir).unwrap();
    assert!(db.is_durable());
    assert_eq!(db.row_count("Traces").unwrap(), 600);
    assert_eq!(db.scan("Traces", &ScanRequest::all()).unwrap(), expected);
    // The layout came back from the manifest, not from a re-render.
    let stats = db.layout_stats("Traces").unwrap();
    assert_eq!(stats.full_renders, 1, "open must not re-render");
    // The reopened database keeps working: insert absorbs incrementally.
    db.insert(
        "Traces",
        vec![vec![
            Value::Timestamp(99_999),
            Value::Float(1.0),
            Value::Float(2.0),
            Value::Str("car-post-open".into()),
        ]],
    )
    .unwrap();
    assert_eq!(db.row_count("Traces").unwrap(), 601);
    let stats = db.layout_stats("Traces").unwrap();
    assert_eq!(stats.full_renders, 1);
    assert_eq!(stats.incremental_appends, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_replay_recovers_unchekpointed_mutations() {
    let dir = scratch_dir("replay");
    {
        let db = Database::create_with(
            &dir,
            DurabilityOptions {
                page_size: 1024,
                sync: SyncPolicy::EveryCommit,
                ..DurabilityOptions::default()
            },
        )
        .unwrap();
        db.create_table(traces_schema()).unwrap();
        db.insert(
            "Traces",
            generate_traces(&CartelConfig {
                observations: 200,
                vehicles: 4,
                ..CartelConfig::default()
            }),
        )
        .unwrap();
        db.apply_layout_text("Traces", "project[t,lat](Traces)").unwrap();
        // No checkpoint: everything must come back from the log alone.
    }
    let db = Database::open(&dir).unwrap();
    assert_eq!(db.row_count("Traces").unwrap(), 200);
    let rows = db
        .scan("Traces", &ScanRequest::all().fields(["lat"]))
        .unwrap();
    assert_eq!(rows.len(), 200);
    assert_eq!(
        db.catalog().get("Traces").unwrap().layout_expr.as_ref().unwrap().to_string(),
        "project[t,lat](Traces)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The crash-point sweep. Every committed transaction records the WAL file
/// length right after its commit returned; a simulated kill at byte `cut`
/// must recover exactly the transactions whose recorded length is `<= cut`.
#[test]
fn kill_at_every_wal_byte_truncation_point_recovers_committed_prefix() {
    let dir = scratch_dir("crashpoints");
    let schema = rodentstore::Schema::new(
        "Ledger",
        vec![
            rodentstore::Field::new("id", rodentstore::DataType::Int),
            rodentstore::Field::new("amount", rodentstore::DataType::Float),
        ],
    );
    // Commit boundaries: (WAL file length after the commit, rows so far).
    let mut boundaries: Vec<(u64, usize)> = Vec::new();
    let base_rows = 40usize;
    {
        let db = Database::create_with(
            &dir,
            DurabilityOptions {
                page_size: 1024,
                sync: SyncPolicy::EveryCommit,
                ..DurabilityOptions::default()
            },
        )
        .unwrap();
        db.create_table(schema.clone()).unwrap();
        let base: Vec<Vec<Value>> = (0..base_rows as i64)
            .map(|i| vec![Value::Int(i), Value::Float(i as f64 / 2.0)])
            .collect();
        db.insert("Ledger", base).unwrap();
        // A rendered layout, so replayed inserts exercise the append path.
        db.apply_layout("Ledger", LayoutExpr::table("Ledger"), ReorgStrategy::Eager)
            .unwrap();
        db.checkpoint().unwrap();
        let header = std::fs::metadata(dir.join("wal.rodent")).unwrap().len();
        boundaries.push((header, base_rows));
        for tx in 0..12i64 {
            let rows: Vec<Vec<Value>> = (0..3)
                .map(|j| {
                    vec![
                        Value::Int(1_000 + tx * 3 + j),
                        Value::Float((tx * 3 + j) as f64),
                    ]
                })
                .collect();
            db.insert("Ledger", rows).unwrap();
            let len = std::fs::metadata(dir.join("wal.rodent")).unwrap().len();
            boundaries.push((len, base_rows + ((tx as usize) + 1) * 3));
        }
    }
    let pristine_wal = std::fs::read(dir.join("wal.rodent")).unwrap();
    let checkpoint_len = boundaries[0].0;
    let crash = scratch_dir("crashpoints-cut");

    for cut in checkpoint_len..=pristine_wal.len() as u64 {
        copy_db(&dir, &crash);
        std::fs::write(crash.join("wal.rodent"), &pristine_wal[..cut as usize]).unwrap();
        let db = Database::open(&crash)
            .unwrap_or_else(|e| panic!("open failed at cut {cut}: {e}"));
        let expected_rows = boundaries
            .iter()
            .filter(|(len, _)| *len <= cut)
            .map(|(_, rows)| *rows)
            .max()
            .expect("checkpoint boundary always qualifies");
        assert_eq!(
            db.row_count("Ledger").unwrap(),
            expected_rows,
            "wrong recovered row count at cut {cut}"
        );
        let rows = db.scan("Ledger", &ScanRequest::all()).unwrap();
        assert_eq!(rows.len(), expected_rows, "scan mismatch at cut {cut}");
        // Scans must equal the canonical rows: ids are dense 0..base then
        // 1000+k in commit order, so the recovered prefix is exactly the
        // committed transactions.
        for (i, row) in rows.iter().enumerate() {
            let expected_id = if i < base_rows {
                i as i64
            } else {
                1_000 + (i - base_rows) as i64
            };
            assert_eq!(
                row[0],
                Value::Int(expected_id),
                "row {i} wrong at cut {cut}"
            );
        }
        // The recovered database accepts new writes.
        if cut == pristine_wal.len() as u64 || cut == checkpoint_len {
            db.insert(
                "Ledger",
                vec![vec![Value::Int(9_999_999), Value::Float(0.0)]],
            )
            .unwrap();
            assert_eq!(db.row_count("Ledger").unwrap(), expected_rows + 1);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash);
}

#[test]
fn adapted_layout_and_profile_survive_restart_without_rerender() {
    let dir = scratch_dir("adapted");
    let (expr_before, stats_before, observed_before, templates_before, rows_before) = {
        let db = Database::create_with(
            &dir,
            DurabilityOptions {
                page_size: 1024,
                sync: SyncPolicy::GroupCommit(16),
                ..DurabilityOptions::default()
            },
        )
        .unwrap();
        db.set_adaptive_policy(small_policy());
        db.create_table(traces_schema()).unwrap();
        db.insert(
            "Traces",
            generate_traces(&CartelConfig {
                observations: 1_500,
                vehicles: 10,
                ..CartelConfig::default()
            }),
        )
        .unwrap();
        // A projection-heavy workload drives the advisor off the row layout.
        for _ in 0..12 {
            db.scan("Traces", &ScanRequest::all().fields(["lat"])).unwrap();
        }
        let outcome = db.maybe_adapt("Traces").unwrap();
        assert!(
            matches!(outcome, AdaptOutcome::Adapted { .. }),
            "expected adaptation, got {outcome:?}"
        );
        db.checkpoint().unwrap();
        let expr = {
            let catalog = db.catalog();
            catalog.get("Traces").unwrap().layout_expr.clone().unwrap()
        };
        (
            expr,
            db.layout_stats("Traces").unwrap(),
            db.workload_profile("Traces").unwrap().queries_observed,
            db.workload_profile("Traces").unwrap().templates().len(),
            db.scan("Traces", &ScanRequest::all().fields(["lat"])).unwrap(),
        )
    };
    assert!(stats_before.adaptations >= 1);

    let db = Database::open(&dir).unwrap();
    // Zero writes during open: the layout was reattached, not re-rendered.
    assert_eq!(db.io_snapshot().pages_written, 0, "open must not write pages");
    {
        let catalog = db.catalog();
        let entry = catalog.get("Traces").unwrap();
        assert_eq!(entry.layout_expr.as_ref().unwrap(), &expr_before);
        assert!(entry.access.is_some(), "rendered layout reattached from manifest");
    }
    assert_eq!(db.layout_stats("Traces").unwrap(), stats_before);

    // The workload profile resumed where it left off.
    let profile = db.workload_profile("Traces").unwrap();
    assert_eq!(profile.queries_observed, observed_before);
    assert_eq!(profile.templates().len(), templates_before);
    assert!(profile
        .templates()
        .iter()
        .any(|t| t.fingerprint.starts_with("lat|")));

    // Scans serve from the restored representation byte-for-byte...
    let rows = db.scan("Traces", &ScanRequest::all().fields(["lat"])).unwrap();
    assert_eq!(rows, rows_before);
    // ...without a single full re-render.
    assert_eq!(
        db.layout_stats("Traces").unwrap().full_renders,
        stats_before.full_renders,
        "scanning after open must not re-render"
    );
    // Auto-adaptation resumes from the restored profile: the same workload
    // keeps the current (already adapted) design.
    db.set_adaptive_policy(small_policy());
    for _ in 0..4 {
        db.scan("Traces", &ScanRequest::all().fields(["lat"])).unwrap();
    }
    assert!(matches!(
        db.maybe_adapt("Traces").unwrap(),
        AdaptOutcome::KeptCurrent { .. }
    ));
    assert_eq!(
        db.workload_profile("Traces").unwrap().queries_observed,
        observed_before + 5
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pending_buffer_and_strategy_survive_restart() {
    let dir = scratch_dir("pending");
    let expected = {
        let db = Database::create_with(
            &dir,
            DurabilityOptions {
                page_size: 1024,
                sync: SyncPolicy::EveryCommit,
                ..DurabilityOptions::default()
            },
        )
        .unwrap();
        db.create_table(traces_schema()).unwrap();
        db.insert(
            "Traces",
            generate_traces(&CartelConfig {
                observations: 300,
                vehicles: 4,
                ..CartelConfig::default()
            }),
        )
        .unwrap();
        db.apply_layout(
            "Traces",
            LayoutExpr::table("Traces").project(["t", "lat"]),
            ReorgStrategy::NewDataOnly,
        )
        .unwrap();
        db.insert(
            "Traces",
            vec![vec![
                Value::Timestamp(-5),
                Value::Float(42.0),
                Value::Float(-71.0),
                Value::Str("car-early".into()),
            ]],
        )
        .unwrap();
        db.checkpoint().unwrap();
        db.scan("Traces", &ScanRequest::all().order(["t"])).unwrap()
    };
    let db = Database::open(&dir).unwrap();
    {
        let catalog = db.catalog();
        let entry = catalog.get("Traces").unwrap();
        assert_eq!(entry.strategy, ReorgStrategy::NewDataOnly);
        assert_eq!(entry.pending.len(), 1, "pending buffer restored");
    }
    let rows = db.scan("Traces", &ScanRequest::all().order(["t"])).unwrap();
    assert_eq!(rows, expected);
    assert_eq!(rows[0][0], Value::Timestamp(-5), "merge still order-aware");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drop_table_and_multiple_tables_replay_correctly() {
    let dir = scratch_dir("multi");
    {
        let db = Database::create_with(
            &dir,
            DurabilityOptions {
                page_size: 1024,
                sync: SyncPolicy::EveryCommit,
                ..DurabilityOptions::default()
            },
        )
        .unwrap();
        let mk = |name: &str| {
            rodentstore::Schema::new(
                name,
                vec![rodentstore::Field::new("x", rodentstore::DataType::Int)],
            )
        };
        db.create_table(mk("A")).unwrap();
        db.create_table(mk("B")).unwrap();
        db.insert("A", vec![vec![Value::Int(1)]]).unwrap();
        db.insert("B", vec![vec![Value::Int(2)]]).unwrap();
        db.checkpoint().unwrap();
        db.drop_table("A").unwrap();
        db.create_table(mk("C")).unwrap();
        db.insert("C", vec![vec![Value::Int(3)]]).unwrap();
        // crash without checkpoint
    }
    let db = Database::open(&dir).unwrap();
    assert_eq!(db.catalog().table_names(), vec!["B", "C"]);
    assert_eq!(db.scan("C", &ScanRequest::all()).unwrap(), vec![vec![Value::Int(3)]]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_mutations_do_not_poison_recovery() {
    // A mutation can fail *after* its op record hit the WAL (here: a record
    // too large for the page size fails during eager rendering, past schema
    // validation). The op must be recorded as aborted, not committed —
    // otherwise every future `open` would replay it, re-fail, and the
    // database would be unrecoverable forever.
    let dir = scratch_dir("poison");
    {
        let db = Database::create_with(
            &dir,
            DurabilityOptions {
                page_size: 1024,
                sync: SyncPolicy::EveryCommit,
                ..DurabilityOptions::default()
            },
        )
        .unwrap();
        db.create_table(Schema::new(
            "Notes",
            vec![
                Field::new("id", DataType::Int),
                Field::new("body", DataType::String),
            ],
        ))
        .unwrap();
        db.insert("Notes", vec![vec![Value::Int(1), Value::Str("ok".into())]])
            .unwrap();
        db.apply_layout("Notes", LayoutExpr::table("Notes"), ReorgStrategy::Eager)
            .unwrap();
        // 5000-byte string: passes schema validation, fails in the heap.
        let err = db.insert(
            "Notes",
            vec![vec![Value::Int(2), Value::Str("x".repeat(5_000))]],
        );
        assert!(err.is_err(), "oversized record must fail the insert");
        // The database keeps working in-process after the failure.
        db.insert("Notes", vec![vec![Value::Int(3), Value::Str("fine".into())]])
            .unwrap();
    }
    let db = Database::open(&dir).unwrap_or_else(|e| {
        panic!("a failed mutation must not make the database unopenable: {e}")
    });
    let rows = db.scan("Notes", &ScanRequest::all().fields(["id"])).unwrap();
    let ids: Vec<&Value> = rows.iter().map(|r| &r[0]).collect();
    assert_eq!(ids, vec![&Value::Int(1), &Value::Int(3)]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_apply_layout_keeps_the_previous_layout_live_and_recovered() {
    let dir = scratch_dir("badlayout");
    {
        let db = Database::create_with(
            &dir,
            DurabilityOptions {
                page_size: 1024,
                sync: SyncPolicy::EveryCommit,
                ..DurabilityOptions::default()
            },
        )
        .unwrap();
        db.create_table(traces_schema()).unwrap();
        db.insert(
            "Traces",
            generate_traces(&CartelConfig {
                observations: 400,
                vehicles: 2, // 200 rows/vehicle: folded groups exceed a page
                ..CartelConfig::default()
            }),
        )
        .unwrap();
        db.apply_layout(
            "Traces",
            LayoutExpr::table("Traces").project(["lat", "lon"]),
            ReorgStrategy::Eager,
        )
        .unwrap();
        // A fold whose groups cannot fit a 1 KiB page fails to render.
        let err = db.apply_layout(
            "Traces",
            LayoutExpr::table("Traces").fold(["id"], ["t", "lat", "lon"]),
            ReorgStrategy::Eager,
        );
        assert!(err.is_err(), "oversized fold groups must fail the render");
        // The previous layout stays live, not a half-applied broken one.
        let catalog = db.catalog();
        let entry = catalog.get("Traces").unwrap();
        assert_eq!(
            entry.layout_expr.as_ref().unwrap().to_string(),
            "project[lat,lon](Traces)"
        );
        assert!(entry.access.is_some(), "previous rendering still attached");
        drop(catalog);
        assert_eq!(db.scan("Traces", &ScanRequest::all()).unwrap().len(), 400);
    }
    // Recovery agrees with what the caller observed: the failed op was
    // logged as aborted, so replay restores the working layout.
    let db = Database::open(&dir).unwrap();
    assert_eq!(
        db.catalog()
            .get("Traces")
            .unwrap()
            .layout_expr
            .as_ref()
            .unwrap()
            .to_string(),
        "project[lat,lon](Traces)"
    );
    assert_eq!(db.scan("Traces", &ScanRequest::all()).unwrap().len(), 400);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recreating_over_an_existing_database_resets_it() {
    let dir = scratch_dir("recreate");
    {
        let db = Database::create(&dir).unwrap();
        db.create_table(Schema::new(
            "Old",
            vec![Field::new("x", DataType::Int)],
        ))
        .unwrap();
        db.insert("Old", vec![vec![Value::Int(1)]]).unwrap();
        db.checkpoint().unwrap();
    }
    {
        let db = Database::create(&dir).unwrap();
        assert!(db.catalog().table_names().is_empty(), "create resets the dir");
        db.create_table(Schema::new(
            "New",
            vec![Field::new("y", DataType::Int)],
        ))
        .unwrap();
        db.insert("New", vec![vec![Value::Int(2)]]).unwrap();
    }
    let db = Database::open(&dir).unwrap();
    assert_eq!(db.catalog().table_names(), vec!["New"]);
    assert_eq!(db.scan("New", &ScanRequest::all()).unwrap(), vec![vec![Value::Int(2)]]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The crash sweep for *indexed* tables. The checkpointed manifest carries
/// the B-tree's page extents, but post-checkpoint inserts mutate tree nodes
/// in place — so the persisted tree is trustworthy only at the checkpoint
/// boundary itself. At every byte truncation point of the WAL tail the
/// reopened database must either reattach the checkpointed index (no replay)
/// or rebuild it from the recovered heaps (any replay), and an index-assisted
/// scan must return exactly the canonical committed rows either way.
#[test]
fn kill_at_every_wal_byte_recovers_indexed_scans() {
    use rodentstore::Condition;
    let dir = scratch_dir("crashpoints-index");
    let schema = rodentstore::Schema::new(
        "Ledger",
        vec![
            rodentstore::Field::new("id", rodentstore::DataType::Int),
            rodentstore::Field::new("amount", rodentstore::DataType::Float),
        ],
    );
    let mut boundaries: Vec<(u64, usize)> = Vec::new();
    let base_rows = 40usize;
    let checkpoint_pages;
    {
        let db = Database::create_with(
            &dir,
            DurabilityOptions {
                page_size: 1024,
                sync: SyncPolicy::EveryCommit,
                ..DurabilityOptions::default()
            },
        )
        .unwrap();
        db.create_table(schema.clone()).unwrap();
        let base: Vec<Vec<Value>> = (0..base_rows as i64)
            .map(|i| vec![Value::Int(i), Value::Float(i as f64 / 2.0)])
            .collect();
        db.insert("Ledger", base).unwrap();
        // Declare the index *before* the checkpoint so the manifest persists
        // its page extents, then keep inserting so replayed appends exercise
        // the post-crash rebuild path.
        db.apply_layout(
            "Ledger",
            LayoutExpr::table("Ledger").index(["id"]),
            ReorgStrategy::Eager,
        )
        .unwrap();
        db.checkpoint().unwrap();
        checkpoint_pages = db.pager().page_count();
        let header = std::fs::metadata(dir.join("wal.rodent")).unwrap().len();
        boundaries.push((header, base_rows));
        for tx in 0..10i64 {
            let rows: Vec<Vec<Value>> = (0..3)
                .map(|j| {
                    vec![
                        Value::Int(1_000 + tx * 3 + j),
                        Value::Float((tx * 3 + j) as f64),
                    ]
                })
                .collect();
            db.insert("Ledger", rows).unwrap();
            let len = std::fs::metadata(dir.join("wal.rodent")).unwrap().len();
            boundaries.push((len, base_rows + ((tx as usize) + 1) * 3));
        }
    }
    let pristine_wal = std::fs::read(dir.join("wal.rodent")).unwrap();
    let checkpoint_len = boundaries[0].0;
    let crash = scratch_dir("crashpoints-index-cut");

    for cut in checkpoint_len..=pristine_wal.len() as u64 {
        copy_db(&dir, &crash);
        std::fs::write(crash.join("wal.rodent"), &pristine_wal[..cut as usize]).unwrap();
        let db = Database::open(&crash)
            .unwrap_or_else(|e| panic!("open failed at cut {cut}: {e}"));
        let expected_rows = boundaries
            .iter()
            .filter(|(len, _)| *len <= cut)
            .map(|(_, rows)| *rows)
            .max()
            .expect("checkpoint boundary always qualifies");

        // The recovered table carries a live index — reattached from the
        // manifest when no WAL ops replayed, rebuilt from the heaps
        // otherwise.
        db.ensure_rendered("Ledger").unwrap();
        let snapshot = db.snapshot("Ledger").unwrap();
        let layout = snapshot.layout().expect("declared layout must render");
        assert!(
            layout.index.is_some(),
            "no live index after recovery at cut {cut}"
        );
        if cut == checkpoint_len {
            // Clean boundary: the checkpointed tree is reattached verbatim,
            // never rebuilt into fresh pages.
            assert_eq!(
                db.pager().page_count(),
                checkpoint_pages,
                "attach-at-checkpoint must not allocate pages"
            );
        }
        drop(snapshot);

        // Index-assisted scans equal the canonical committed rows.
        let replayed = db
            .scan(
                "Ledger",
                &ScanRequest::all().predicate(Condition::range("id", 1_000.0, 1e12)),
            )
            .unwrap_or_else(|e| panic!("indexed scan failed at cut {cut}: {e}"));
        assert_eq!(replayed.len(), expected_rows - base_rows, "at cut {cut}");
        for (i, row) in replayed.iter().enumerate() {
            assert_eq!(row[0], Value::Int(1_000 + i as i64), "row {i} at cut {cut}");
        }
        let point = db
            .scan(
                "Ledger",
                &ScanRequest::all().predicate(Condition::range("id", 7.0, 7.0)),
            )
            .unwrap();
        assert_eq!(point, vec![vec![Value::Int(7), Value::Float(3.5)]]);
        assert_eq!(db.row_count("Ledger").unwrap(), expected_rows);

        // The recovered database keeps maintaining the index on new writes.
        if cut == checkpoint_len || cut == pristine_wal.len() as u64 {
            db.insert(
                "Ledger",
                vec![vec![Value::Int(5_000_000), Value::Float(0.5)]],
            )
            .unwrap();
            let probed = db
                .scan(
                    "Ledger",
                    &ScanRequest::all()
                        .predicate(Condition::range("id", 5_000_000.0, 5_000_000.0)),
                )
                .unwrap();
            assert_eq!(probed.len(), 1, "post-recovery append missing from index");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash);
}

#[test]
fn foreign_or_corrupt_files_are_typed_errors() {
    let dir = scratch_dir("foreign");
    {
        let db = Database::create(&dir).unwrap();
        db.create_table(rodentstore::Schema::new(
            "T",
            vec![rodentstore::Field::new("x", rodentstore::DataType::Int)],
        ))
        .unwrap();
        db.checkpoint().unwrap();
    }
    // A corrupted manifest byte is detected by the CRC.
    let manifest_path = dir.join("manifest.rodent");
    let pristine = std::fs::read(&manifest_path).unwrap();
    let mut corrupt = pristine.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x55;
    std::fs::write(&manifest_path, &corrupt).unwrap();
    assert!(Database::open(&dir).is_err(), "corrupt manifest must not open");
    // A manifest of the previous format version (canonical rows inline) is
    // rejected by version, not misread.
    let v4_body = 4u32.to_le_bytes();
    let mut v4 = b"RDNTMAN1".to_vec();
    v4.extend_from_slice(&(v4_body.len() as u32).to_le_bytes());
    v4.extend_from_slice(&rodentstore_storage::crc32(&v4_body).to_le_bytes());
    v4.extend_from_slice(&v4_body);
    std::fs::write(&manifest_path, &v4).unwrap();
    assert!(matches!(
        Database::open(&dir),
        Err(RodentError::Storage(StorageError::UnsupportedVersion {
            found: 4,
            supported: 5
        }))
    ));
    std::fs::write(&manifest_path, &pristine).unwrap();
    // A byte flipped inside a canonical page is caught by the extent's
    // checksum. The table has no layout, so every data page is canonical;
    // record payloads fill a page from its back.
    {
        let db = Database::open(&dir).unwrap();
        let rows = (0..2_000i64).map(|i| vec![Value::Int(i)]).collect();
        db.insert("T", rows).unwrap();
        db.checkpoint().unwrap();
    }
    let data_path = dir.join("data.rodent");
    let pristine_data = std::fs::read(&data_path).unwrap();
    let page_size = DurabilityOptions::default().page_size;
    let mut flipped = pristine_data.clone();
    flipped[2 * page_size - 1] ^= 0x01; // last byte of page 0 (after the superblock)
    std::fs::write(&data_path, &flipped).unwrap();
    assert!(matches!(
        Database::open(&dir),
        Err(RodentError::Storage(StorageError::Corrupted(_)))
    ));
    std::fs::write(&data_path, &pristine_data).unwrap();
    assert_eq!(Database::open(&dir).unwrap().row_count("T").unwrap(), 2_000);
    // A data file that is not a RodentStore file is rejected by the
    // superblock check.
    std::fs::write(&data_path, b"junk that is no page file").unwrap();
    assert!(Database::open(&dir).is_err(), "foreign data file must not open");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The crash sweep for tables carrying a levelled `lsm[...]` tier. The
/// checkpointed manifest records every sealed run's page extent, sequence,
/// level, and key bounds plus the memtable rows — runs are immutable, so at
/// the checkpoint boundary the reopened database must reattach the whole
/// tier verbatim: zero page writes, zero page allocation, zero re-renders,
/// identical run topology. At every later byte truncation point, replayed
/// inserts re-absorb through the tier (spilling and compacting exactly as
/// the live path did — mid-spill and mid-compaction kills included) and the
/// scan must return the canonical committed rows in tier order.
#[test]
fn kill_at_every_wal_byte_recovers_lsm_tier() {
    let dir = scratch_dir("crashpoints-lsm");
    let schema = rodentstore::Schema::new(
        "Ledger",
        vec![
            rodentstore::Field::new("id", rodentstore::DataType::Int),
            rodentstore::Field::new("amount", rodentstore::DataType::Float),
        ],
    );
    let mut boundaries: Vec<(u64, Vec<i64>)> = Vec::new();
    let checkpoint_pages;
    let checkpoint_runs: Vec<(u32, u64, usize)>;
    let checkpoint_memtable;
    {
        let db = Database::create_with(
            &dir,
            DurabilityOptions {
                page_size: 1024,
                sync: SyncPolicy::EveryCommit,
                ..DurabilityOptions::default()
            },
        )
        .unwrap();
        // Tiny tier parameters so a handful of rows exercises multi-level
        // shapes: cap 4 spills every fourth row, fanout 2 cascades L0→L1→L2.
        db.set_lsm_params(4, 2);
        db.create_table(schema.clone()).unwrap();
        let base: Vec<Vec<Value>> = (0..40i64)
            .map(|i| vec![Value::Int(i), Value::Float(i as f64 / 2.0)])
            .collect();
        db.insert("Ledger", base).unwrap();
        db.apply_layout(
            "Ledger",
            LayoutExpr::table("Ledger").lsm(["id"]),
            ReorgStrategy::Eager,
        )
        .unwrap();
        // Pre-checkpoint tier activity: 24 rows through cap 4 / fanout 2 is
        // six spills and three cascading compactions, so the manifest below
        // must describe a genuinely levelled tier, not just a memtable.
        for batch in 0..3i64 {
            let rows: Vec<Vec<Value>> = (0..8)
                .map(|j| {
                    let id = 100 + batch * 8 + j;
                    vec![Value::Int(id), Value::Float(id as f64)]
                })
                .collect();
            db.insert("Ledger", rows).unwrap();
        }
        db.checkpoint().unwrap();
        checkpoint_pages = db.pager().page_count();
        {
            let snapshot = db.snapshot("Ledger").unwrap();
            let lsm = snapshot.layout().unwrap().lsm.as_ref().unwrap();
            checkpoint_runs = lsm
                .runs
                .iter()
                .map(|r| (r.level, r.seq, r.row_count))
                .collect();
            checkpoint_memtable = lsm.memtable.len();
            assert!(
                lsm.runs.iter().any(|r| r.level >= 2),
                "precondition: the checkpointed tier must be multi-level, got {:?}",
                checkpoint_runs
            );
        }
        assert_eq!(db.layout_stats("Ledger").unwrap().full_renders, 1);
        let committed: Vec<i64> = (0..40).chain(100..124).collect();
        let header = std::fs::metadata(dir.join("wal.rodent")).unwrap().len();
        boundaries.push((header, committed.clone()));
        let mut ids = committed;
        for tx in 0..10i64 {
            let rows: Vec<Vec<Value>> = (0..3)
                .map(|j| {
                    let id = 1_000 + tx * 3 + j;
                    vec![Value::Int(id), Value::Float(id as f64)]
                })
                .collect();
            ids.extend((0..3).map(|j| 1_000 + tx * 3 + j));
            db.insert("Ledger", rows).unwrap();
            let len = std::fs::metadata(dir.join("wal.rodent")).unwrap().len();
            boundaries.push((len, ids.clone()));
        }
    }
    let pristine_wal = std::fs::read(dir.join("wal.rodent")).unwrap();
    let checkpoint_len = boundaries[0].0;
    let crash = scratch_dir("crashpoints-lsm-cut");

    for cut in checkpoint_len..=pristine_wal.len() as u64 {
        copy_db(&dir, &crash);
        std::fs::write(crash.join("wal.rodent"), &pristine_wal[..cut as usize]).unwrap();
        let db = Database::open(&crash)
            .unwrap_or_else(|e| panic!("open failed at cut {cut}: {e}"));
        let expected_ids = boundaries
            .iter()
            .filter(|(len, _)| *len <= cut)
            .map(|(_, ids)| ids)
            .max_by_key(|ids| ids.len())
            .expect("checkpoint boundary always qualifies");

        if cut == checkpoint_len {
            // Clean boundary: the tier reattached from run metadata alone.
            assert_eq!(
                db.io_snapshot().pages_written,
                0,
                "attach-at-checkpoint must not write pages"
            );
            assert_eq!(
                db.pager().page_count(),
                checkpoint_pages,
                "attach-at-checkpoint must not allocate pages"
            );
            let snapshot = db.snapshot("Ledger").unwrap();
            let lsm = snapshot.layout().unwrap().lsm.as_ref().unwrap();
            let runs: Vec<(u32, u64, usize)> = lsm
                .runs
                .iter()
                .map(|r| (r.level, r.seq, r.row_count))
                .collect();
            assert_eq!(runs, checkpoint_runs, "run topology must survive verbatim");
            assert_eq!(lsm.memtable.len(), checkpoint_memtable);
        }
        // Replay absorbs through the tier; it must never re-render the base.
        assert_eq!(
            db.layout_stats("Ledger").unwrap().full_renders,
            1,
            "recovery re-rendered the layout at cut {cut}"
        );

        // Monotonic inserts make the tier's scan order (base, then runs
        // deepest-first, then memtable) globally ascending, so the exact
        // expected sequence is just the committed ids in insert order.
        let rows = db.scan("Ledger", &ScanRequest::all()).unwrap();
        let got: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(&got, expected_ids, "scan mismatch at cut {cut}");

        // Key-range pushdown through run pruning still answers exactly.
        let probed = db
            .scan(
                "Ledger",
                &ScanRequest::all()
                    .predicate(rodentstore::Condition::range("id", 100.0, 200.0)),
            )
            .unwrap();
        assert_eq!(probed.len(), 24, "pruned probe wrong at cut {cut}");

        // The recovered tier keeps absorbing (spills included) on both
        // boundary cuts.
        if cut == checkpoint_len || cut == pristine_wal.len() as u64 {
            let rows: Vec<Vec<Value>> = (0..6)
                .map(|j| vec![Value::Int(5_000 + j), Value::Float(0.5)])
                .collect();
            db.insert("Ledger", rows).unwrap();
            assert_eq!(
                db.row_count("Ledger").unwrap(),
                expected_ids.len() + 6,
                "post-recovery absorb failed at cut {cut}"
            );
            assert_eq!(db.layout_stats("Ledger").unwrap().full_renders, 1);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash);
}

/// Memory-mapped reads must be invisible to recovery: at a spread of WAL
/// truncation points (commit boundaries and torn mid-record tails alike),
/// opening the crashed image with `mmap_reads` enabled must replay to
/// byte-identical scan results as the copy-read fallback, attribute its page
/// accesses to zero-copy frames rather than copies, and keep accepting
/// writes and checkpoints while mapped.
#[test]
fn mmap_open_replays_byte_identically_to_copy_reads() {
    let dir = scratch_dir("mmap-sweep");
    let checkpoint_len = {
        let db = Database::create_with(
            &dir,
            DurabilityOptions {
                page_size: 1024,
                sync: SyncPolicy::EveryCommit,
                mmap_reads: false,
            },
        )
        .unwrap();
        db.create_table(traces_schema()).unwrap();
        db.insert(
            "Traces",
            generate_traces(&CartelConfig {
                observations: 300,
                vehicles: 5,
                ..CartelConfig::default()
            }),
        )
        .unwrap();
        // A rendered layout so replayed inserts land in pages and reopened
        // scans actually read them (canonical rows would read none).
        db.apply_layout_text("Traces", "vertical[lat,lon|t,id](Traces)").unwrap();
        db.checkpoint().unwrap();
        let checkpoint_len = std::fs::metadata(dir.join("wal.rodent")).unwrap().len();
        for tx in 0..10i64 {
            db.insert(
                "Traces",
                vec![vec![
                    Value::Timestamp(100_000 + tx),
                    Value::Float(tx as f64),
                    Value::Float(-(tx as f64)),
                    Value::Str(format!("car-tail-{tx}")),
                ]],
            )
            .unwrap();
        }
        checkpoint_len
    };
    let pristine_wal = std::fs::read(dir.join("wal.rodent")).unwrap();
    let mapped_dir = scratch_dir("mmap-sweep-mapped");
    let copied_dir = scratch_dir("mmap-sweep-copied");

    let wal_len = pristine_wal.len() as u64;
    let request = ScanRequest::all();
    let projected = ScanRequest::all().fields(["lat", "t"]);
    for i in 0..=8u64 {
        let cut = checkpoint_len + (wal_len - checkpoint_len) * i / 8;
        copy_db(&dir, &mapped_dir);
        copy_db(&dir, &copied_dir);
        std::fs::write(mapped_dir.join("wal.rodent"), &pristine_wal[..cut as usize]).unwrap();
        std::fs::write(copied_dir.join("wal.rodent"), &pristine_wal[..cut as usize]).unwrap();
        let mapped = Database::open_with(
            &mapped_dir,
            DurabilityOptions {
                mmap_reads: true,
                ..DurabilityOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("mmap open failed at cut {cut}: {e}"));
        let copied = Database::open_with(
            &copied_dir,
            DurabilityOptions {
                mmap_reads: false,
                ..DurabilityOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("copy open failed at cut {cut}: {e}"));

        assert_eq!(
            mapped.row_count("Traces").unwrap(),
            copied.row_count("Traces").unwrap(),
            "row counts diverge at cut {cut}"
        );
        let before_mapped = mapped.metrics();
        let before_copied = copied.metrics();
        assert_eq!(
            mapped.scan("Traces", &request).unwrap(),
            copied.scan("Traces", &request).unwrap(),
            "full scans diverge at cut {cut}"
        );
        assert_eq!(
            mapped.scan("Traces", &projected).unwrap(),
            copied.scan("Traces", &projected).unwrap(),
            "projected scans diverge at cut {cut}"
        );
        let after_mapped = mapped.metrics();
        let after_copied = copied.metrics();
        let hits = |b: &rodentstore::MetricsSnapshot, a: &rodentstore::MetricsSnapshot, n: &str| {
            a.counter(n).unwrap_or(0) - b.counter(n).unwrap_or(0)
        };
        // Same pages either way; the mapped store serves them as zero-copy
        // frames, the fallback copies every one of them.
        assert_eq!(
            hits(&before_mapped, &after_mapped, "scan.pages"),
            hits(&before_copied, &after_copied, "scan.pages"),
            "page counts diverge at cut {cut}"
        );
        assert!(
            hits(&before_mapped, &after_mapped, "scan.frame_hits") > 0,
            "mapped reads must be served as frames at cut {cut}"
        );
        assert_eq!(
            hits(&before_mapped, &after_mapped, "scan.frame_copies"),
            0,
            "mapped reads must not copy at cut {cut}"
        );
        assert_eq!(
            hits(&before_copied, &after_copied, "scan.frame_hits"),
            0,
            "fallback reads must not map at cut {cut}"
        );
        assert!(
            hits(&before_copied, &after_copied, "scan.frame_copies") > 0,
            "fallback reads must copy at cut {cut}"
        );

        // The mapped database keeps working: a write, a checkpoint (which
        // rewrites and remaps the data file), and a re-scan.
        if cut == checkpoint_len || cut == wal_len {
            let count = mapped.row_count("Traces").unwrap();
            mapped
                .insert(
                    "Traces",
                    vec![vec![
                        Value::Timestamp(999_999),
                        Value::Float(1.0),
                        Value::Float(2.0),
                        Value::Str("car-post-map".into()),
                    ]],
                )
                .unwrap();
            mapped.checkpoint().unwrap();
            assert_eq!(
                mapped.scan("Traces", &request).unwrap().len(),
                count + 1,
                "post-checkpoint scan wrong at cut {cut}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&mapped_dir);
    let _ = std::fs::remove_dir_all(&copied_dir);
}

fn ledger_schema() -> Schema {
    Schema::new(
        "Ledger",
        vec![
            Field::new("id", DataType::Int),
            Field::new("amount", DataType::Float),
        ],
    )
}

fn ledger_rows(ids: std::ops::Range<i64>) -> Vec<Vec<Value>> {
    ids.map(|i| vec![Value::Int(i), Value::Float(i as f64 / 2.0)])
        .collect()
}

fn small_pages() -> DurabilityOptions {
    DurabilityOptions {
        page_size: 1024,
        sync: SyncPolicy::EveryCommit,
        ..DurabilityOptions::default()
    }
}

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by_key(|row| format!("{row:?}"));
    rows
}

/// The one crash window the WAL-byte sweeps cannot reach: a kill between a
/// checkpoint's `pager.sync` and its manifest rename leaves the *new* data
/// file under the *old* manifest and the *old* WAL. `build` creates `table`,
/// checkpoints at least once and leaves acknowledged work in the WAL; it
/// returns every acknowledged row. The next checkpoint must not have touched
/// a page the old manifest references — the reopened image holds exactly the
/// acknowledged rows, and keeps working. Returns whether the crashing
/// checkpoint shrank the data file.
fn reopens_after_crash_between_sync_and_manifest_rename(
    tag: &str,
    table: &str,
    build: impl FnOnce(&Database) -> Vec<Vec<Value>>,
) -> bool {
    let dir = scratch_dir(tag);
    let crash = scratch_dir(&format!("{tag}-crash"));
    let mut shrank = false;
    let acknowledged = {
        let db = Database::create_with(&dir, small_pages()).unwrap();
        let acknowledged = build(&db);
        copy_db(&dir, &crash);
        db.checkpoint().unwrap();
        // The checkpoint ran to its end, so it may have cut free pages off
        // the file — after the rename, which the crash precedes. Up to the
        // rename a page the old manifest references is never written, so
        // past the new end the crashed file still holds the old bytes.
        let mut data = std::fs::read(dir.join("data.rodent")).unwrap();
        let old_data = std::fs::read(crash.join("data.rodent")).unwrap();
        if old_data.len() > data.len() {
            shrank = true;
            data.extend_from_slice(&old_data[data.len()..]);
        }
        std::fs::write(crash.join("data.rodent"), data).unwrap();
        acknowledged
    };
    // Canonical rows come back in insertion order; the declared layout
    // (possibly lossy) serves as many.
    let check = |db: &Database| {
        assert_eq!(
            db.catalog().get(table).unwrap().records.to_vec(),
            acknowledged,
            "{tag}"
        );
        let scanned = db.scan(table, &ScanRequest::all()).unwrap();
        assert_eq!(scanned.len(), acknowledged.len(), "{tag}");
    };
    {
        let db = Database::open(&crash).unwrap_or_else(|e| panic!("{tag}: open failed: {e}"));
        check(&db);
        // The recovered database checkpoints (persisting the replayed rows)
        // and reopens to the same rows.
        db.checkpoint().unwrap();
    }
    check(&Database::open(&crash).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crash);
    shrank
}

#[test]
fn crash_between_sync_and_manifest_rename_keeps_acknowledged_rows() {
    // A plain table: every data page is canonical.
    reopens_after_crash_between_sync_and_manifest_rename("window-plain", "Ledger", |db| {
        db.create_table(ledger_schema()).unwrap();
        db.insert("Ledger", ledger_rows(0..300)).unwrap();
        db.checkpoint().unwrap();
        for batch in 0..5 {
            db.insert("Ledger", ledger_rows(300 + batch * 40..340 + batch * 40))
                .unwrap();
        }
        ledger_rows(0..500)
    });
    // A levelled tier: spills and merges between the two checkpoints.
    reopens_after_crash_between_sync_and_manifest_rename("window-lsm", "Ledger", |db| {
        db.set_lsm_params(4, 2);
        db.create_table(ledger_schema()).unwrap();
        db.insert("Ledger", ledger_rows(0..40)).unwrap();
        db.apply_layout(
            "Ledger",
            LayoutExpr::table("Ledger").lsm(["id"]),
            ReorgStrategy::Eager,
        )
        .unwrap();
        db.insert("Ledger", ledger_rows(40..70)).unwrap();
        db.checkpoint().unwrap();
        for batch in 0..6 {
            db.insert("Ledger", ledger_rows(70 + batch * 5..75 + batch * 5))
                .unwrap();
        }
        ledger_rows(0..100)
    });
    // An N4-style lossy layout under `NewDataOnly`: `t` and `id` exist only
    // in the canonical rows, and rows are pending at both checkpoints.
    reopens_after_crash_between_sync_and_manifest_rename("window-lossy", "Traces", |db| {
        let rows = generate_traces(&CartelConfig {
            observations: 900,
            vehicles: 6,
            ..CartelConfig::default()
        });
        db.create_table(traces_schema()).unwrap();
        db.insert("Traces", rows[..600].to_vec()).unwrap();
        db.apply_layout(
            "Traces",
            LayoutExpr::table("Traces")
                .order_by(["t"])
                .group_by(["id"])
                .project(["lat", "lon"])
                .grid([("lat", 0.012), ("lon", 0.015)])
                .zorder()
                .delta(["lat", "lon"]),
            ReorgStrategy::NewDataOnly,
        )
        .unwrap();
        db.insert("Traces", rows[600..700].to_vec()).unwrap();
        db.checkpoint().unwrap();
        assert_eq!(db.catalog().get("Traces").unwrap().pending.len(), 100);
        db.insert("Traces", rows[700..].to_vec()).unwrap();
        rows
    });
    // The vacuum at work inside the window: re-layouts have left the
    // canonical extent at the end of the file with free pages below it, so
    // the crashing checkpoint copies canonical pages down into pages the old
    // manifest lists as free (and, past the rename, cuts the vacated ones).
    let shrank =
        reopens_after_crash_between_sync_and_manifest_rename("window-vacuum", "Ledger", |db| {
            db.create_table(ledger_schema()).unwrap();
            db.insert("Ledger", ledger_rows(0..4_000)).unwrap();
            for layout in [
                LayoutExpr::table("Ledger"),
                LayoutExpr::table("Ledger").project(["id"]),
                LayoutExpr::table("Ledger").project(["amount"]),
            ] {
                db.apply_layout("Ledger", layout, ReorgStrategy::Eager)
                    .unwrap();
                db.checkpoint().unwrap();
            }
            assert!(
                db.pager().free_page_count() > 20,
                "precondition: free pages below"
            );
            db.insert("Ledger", ledger_rows(4_000..4_100)).unwrap();
            ledger_rows(0..4_100)
        });
    assert!(
        shrank,
        "the crashing checkpoint was meant to move canonical pages"
    );
}

/// Checkpoint cost follows what changed, not the table: the manifest holds
/// page ids instead of rows, an idle checkpoint writes no page, and a small
/// insert into a large table writes a handful.
#[test]
fn checkpoints_are_proportional_to_what_changed() {
    let measure = |rows: i64| {
        let dir = scratch_dir(&format!("proportional-{rows}"));
        let db = Database::create_with(&dir, small_pages()).unwrap();
        db.create_table(ledger_schema()).unwrap();
        db.insert("Ledger", ledger_rows(0..rows)).unwrap();
        db.checkpoint().unwrap();
        let manifest = std::fs::metadata(dir.join("manifest.rodent"))
            .unwrap()
            .len();
        (dir, db, manifest)
    };
    let (small_dir, small_db, small_manifest) = measure(2_000);
    let (dir, db, manifest) = measure(20_000);
    let pages = db.pager().page_count();
    assert!(pages > 5 * small_db.pager().page_count());
    assert!(
        manifest - small_manifest <= 8 * pages,
        "manifest grew {small_manifest} -> {manifest} B over {pages} pages: more than a page id each"
    );

    // No intervening write: nothing to persist, nothing to flush.
    let before = db.io_snapshot();
    db.checkpoint().unwrap();
    assert_eq!(db.io_snapshot().since(&before).pages_written, 0);
    assert_eq!(
        db.metrics().counter("checkpoint.rows_persisted"),
        Some(20_000)
    );

    // 100 rows into 20 000: the relocated tail plus the pages the new rows
    // fill — O(1), where the table holds hundreds.
    db.insert("Ledger", ledger_rows(20_000..20_100)).unwrap();
    let before = db.io_snapshot();
    db.checkpoint().unwrap();
    let written = db.io_snapshot().since(&before).pages_written;
    assert!(
        (1..=4).contains(&written),
        "wrote {written} of {pages} pages"
    );
    let metrics = db.metrics();
    assert_eq!(metrics.counter("checkpoint.rows_persisted"), Some(20_100));
    assert_eq!(
        metrics.gauge("checkpoint.manifest_bytes"),
        Some(
            std::fs::metadata(dir.join("manifest.rodent"))
                .unwrap()
                .len()
        )
    );
    // No layout: every page is canonical, or the tail the insert vacated.
    assert_eq!(
        metrics.gauge("canonical.pages"),
        Some(db.pager().page_count() - db.pager().free_page_count() as u64)
    );
    drop(db);
    assert_eq!(
        Database::open(&dir).unwrap().row_count("Ledger").unwrap(),
        20_100
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&small_dir);
}

/// Canonical pages live as long as their table; they must not pin the free
/// pages a retired rendering leaves below them. The first (row-major)
/// rendering sits below the canonical extent; once re-layouts have retired it
/// and rendered into its pages, checkpoints move the canonical extent down
/// and the data file shrinks to about what is live.
#[test]
fn canonical_pages_do_not_pin_the_data_file() {
    let dir = scratch_dir("vacuum");
    let db = Database::create_with(&dir, small_pages()).unwrap();
    db.create_table(ledger_schema()).unwrap();
    db.insert("Ledger", ledger_rows(0..5_000)).unwrap();
    db.apply_layout("Ledger", LayoutExpr::table("Ledger"), ReorgStrategy::Eager)
        .unwrap();
    db.checkpoint().unwrap();
    let canonical = db.metrics().gauge("canonical.pages").unwrap();
    let with_first_rendering = db.pager().page_count();
    assert!(with_first_rendering > 2 * canonical - canonical / 4);
    // Each narrow rendering lands past the canonical extent or in the pages
    // the checkpoint before it released.
    for field in ["id", "amount"] {
        db.apply_layout(
            "Ledger",
            LayoutExpr::table("Ledger").project([field]),
            ReorgStrategy::Eager,
        )
        .unwrap();
        db.checkpoint().unwrap();
    }
    db.checkpoint().unwrap();
    let pages = db.pager().page_count();
    let live = pages - db.pager().free_page_count() as u64;
    assert!(
        pages < with_first_rendering && pages <= live + live / 10,
        "{pages} pages in the file, {live} live, {with_first_rendering} before the re-layout"
    );
    let expected = sorted(db.scan("Ledger", &ScanRequest::all()).unwrap());
    drop(db);
    let db = Database::open(&dir).unwrap();
    assert_eq!(
        sorted(db.scan("Ledger", &ScanRequest::all()).unwrap()),
        expected
    );
    assert_eq!(db.row_count("Ledger").unwrap(), 5_000);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A table without a layout may hold a row wider than a page; the canonical
/// extent cuts its bytes across pages.
#[test]
fn rows_wider_than_a_page_checkpoint_and_reopen() {
    let dir = scratch_dir("wide-rows");
    let rows: Vec<Vec<Value>> = (0..6i64)
        .map(|i| vec![Value::Int(i), Value::Str("w".repeat(700 * i as usize))])
        .collect();
    {
        let db = Database::create_with(&dir, small_pages()).unwrap();
        db.create_table(Schema::new(
            "Notes",
            vec![
                Field::new("id", DataType::Int),
                Field::new("body", DataType::String),
            ],
        ))
        .unwrap();
        db.insert("Notes", rows[..4].to_vec()).unwrap();
        db.checkpoint().unwrap();
        db.insert("Notes", rows[4..].to_vec()).unwrap();
        db.checkpoint().unwrap();
    }
    let db = Database::open(&dir).unwrap();
    assert_eq!(db.scan("Notes", &ScanRequest::all()).unwrap(), rows);
    let _ = std::fs::remove_dir_all(&dir);
}
