//! An lsm run is the inner layout over its rows: under a columnar inner
//! layout, a run has column groups, codecs and chunk fences, so a narrow
//! key window reads a few chunks of one run instead of every page of every
//! run whose key bounds meet it.

use rodentstore::{Condition, Database, ScanRequest, Value};
use rodentstore::{WindowAccumulator, WindowedAggregate};
use rodentstore_workload::telemetry::telemetry_schema;

const ROWS: i64 = 40_000;
const BATCH: usize = 500;

/// `Telemetry(ts, sensor, value, status, seq)` readings in arrival order:
/// `ts` ascends, and `value` holds whole numbers, which every codec stores
/// exactly, so a fold over the stored rows and one over these rows agree to
/// the bit.
fn readings() -> Vec<Vec<Value>> {
    (0..ROWS)
        .map(|i| {
            vec![
                Value::Int(i * 3),
                Value::Str(format!("sensor-{}", i % 16)),
                Value::Float(((i * 7) % 1_000) as f64),
                Value::Int(i % 4),
                Value::Int(i),
            ]
        })
        .collect()
}

#[test]
fn a_columnar_tier_reads_a_tenth_of_the_pages_of_a_row_tier_for_a_key_window() {
    let rows = readings();
    let schema = telemetry_schema();
    // The middle 1 % of the `ts` span.
    let span = (ROWS * 3) as f64;
    let pred = Condition::range(
        "ts",
        Value::Int((span * 0.40) as i64),
        Value::Int((span * 0.41) as i64),
    );
    let spec = WindowedAggregate::new("ts", 512.0, "value");
    let mut reference = WindowAccumulator::new(&spec);
    for row in rows.iter().filter(|row| pred.eval(&schema, row).unwrap()) {
        reference.fold_values(&row[0], &row[2]);
    }
    let reference = reference.finish();
    assert!(!reference.is_empty());

    let mut pages = Vec::new();
    // Each tier with the objects a run of its inner layout holds.
    for (text, objects) in [
        (
            "lsm[ts](delta[ts,value](vertical[ts,value|sensor,status,seq](Telemetry)))",
            2,
        ),
        ("lsm[ts](Telemetry)", 1),
    ] {
        let db = Database::with_page_size(4096);
        db.set_lsm_params(1_000, 4);
        db.create_table(schema.clone()).unwrap();
        db.apply_layout_text("Telemetry", text).unwrap();
        for batch in rows.chunks(BATCH) {
            db.insert("Telemetry", batch.to_vec()).unwrap();
        }
        let spills = db.metrics().counter("lsm.spills").unwrap_or(0);
        assert!(spills >= 8, "{text}: {spills} spills");
        {
            let catalog = db.catalog();
            let layout = catalog
                .get("Telemetry")
                .unwrap()
                .access
                .as_ref()
                .unwrap()
                .layout();
            let lsm = layout.lsm.as_ref().unwrap();
            assert!(lsm.runs.len() > 1, "{text}: {lsm:?}");
            assert!(
                lsm.runs.iter().all(|run| run.objects.len() == objects),
                "{text}"
            );
        }

        let before = db.io_snapshot();
        let windows = db.scan_aggregate("Telemetry", &spec, Some(&pred)).unwrap();
        pages.push(db.io_snapshot().since(&before).pages_read);
        assert_eq!(windows, reference, "{text}");

        // Every row is still there, in the tier's scan order: ascending `ts`.
        let all = db.scan("Telemetry", &ScanRequest::all()).unwrap();
        assert_eq!(all, rows, "{text}");
    }
    let (columnar, row) = (pages[0], pages[1]);
    assert!(
        columnar > 0 && columnar * 10 <= row,
        "the columnar tier read {columnar} pages, the row tier {row}"
    );
}

/// `Points(x, y, tag)` rows with whole-number coordinates.
fn points(n: i64) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| {
            vec![
                Value::Float(((i * 37) % 200 - 100) as f64),
                Value::Float(((i * 53) % 200 - 100) as f64),
                Value::Int((i * 11) % 20),
            ]
        })
        .collect()
}

fn sorted(rows: &[Vec<Value>]) -> Vec<String> {
    let mut shown: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    shown.sort();
    shown
}

/// Every inner shape spills runs of its own shape — grid cells, folded
/// groups, an index, partitions, column groups — that scan, filter and
/// position like the inserted rows, and reattach from a checkpoint.
#[test]
fn every_inner_shape_spills_runs_of_its_shape_that_survive_a_reopen() {
    let schema = rodentstore::Schema::new(
        "Points",
        vec![
            rodentstore::Field::new("x", rodentstore::DataType::Float),
            rodentstore::Field::new("y", rodentstore::DataType::Float),
            rodentstore::Field::new("tag", rodentstore::DataType::Int),
        ],
    );
    let names = schema.field_names();
    let rows = points(300);
    let pred = Condition::range("tag", Value::Int(5), Value::Int(9));
    let want = sorted(&rows);
    let want_filtered = sorted(
        &rows
            .iter()
            .filter(|r| pred.eval(&schema, r).unwrap())
            .cloned()
            .collect::<Vec<_>>(),
    );
    for (text, objects_per_run) in [
        ("lsm[tag](delta[tag](vertical[x,y|tag](Points)))", Some(2)),
        ("lsm[tag](pax[16](Points))", Some(1)),
        ("lsm[tag](zorder(grid[x,y;50,50](Points)))", None),
        ("lsm[tag](fold[tag|x,y](Points))", Some(1)),
        ("lsm[x](index[x](Points))", Some(1)),
        ("lsm[tag](partition[tag](Points))", None),
    ] {
        let dir = std::env::temp_dir().join(format!(
            "rodentstore-lsm-runs-{}-{}",
            std::process::id(),
            text.len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let check = |db: &Database, when: &str| {
            let catalog = db.catalog();
            let layout = catalog
                .get("Points")
                .unwrap()
                .access
                .as_ref()
                .unwrap()
                .layout();
            let lsm = layout.lsm.as_ref().unwrap();
            assert!(lsm.runs.len() > 1, "{text} {when}: {lsm:?}");
            for run in &lsm.runs {
                assert!(run.lsm.is_none(), "{text} {when}: a run holds no tier");
                match objects_per_run {
                    Some(n) => assert_eq!(run.objects.len(), n, "{text} {when}"),
                    None => assert!(run.objects.len() > 1, "{text} {when}: cells or parts"),
                }
                assert_eq!(run.index.is_some(), text.contains("index"), "{text} {when}");
            }
            // A fold stores its key first; read the fields in table order.
            let fields = Some(&names[..]);
            let all = layout.scan(fields, None).unwrap();
            assert_eq!(sorted(&all), want, "{text} {when}");
            let filtered = layout.scan(fields, Some(&pred)).unwrap();
            assert_eq!(sorted(&filtered), want_filtered, "{text} {when}");
            for i in (0..all.len()).step_by(17) {
                assert_eq!(
                    layout.get_element(i, fields).unwrap(),
                    all[i],
                    "{text} {when}"
                );
            }
        };
        {
            let db = Database::create(&dir).unwrap();
            db.set_lsm_params(40, 3);
            db.create_table(schema.clone()).unwrap();
            db.apply_layout_text("Points", text).unwrap();
            for batch in rows.chunks(25) {
                db.insert("Points", batch.to_vec()).unwrap();
            }
            check(&db, "live");
            db.checkpoint().unwrap();
        }
        let db = Database::open(&dir).unwrap();
        check(&db, "reopened");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
