//! Property tests for the adaptation loop's correctness guarantee: whatever
//! reorganization strategy carries a layout change, and whether pending rows
//! are buffered, absorbed incrementally, or rebuilt, scans must return
//! exactly the canonical logical contents — before, during, and after an
//! adaptation. Beside them, in pages: the closed loop converges near the
//! best hand-declared layout after a workload shift, and an eager insert
//! appends instead of re-rendering.

use proptest::prelude::*;
use rodentstore::{
    AdaptivePolicy, AdvisorOptions, Condition, CostParams, Database, ReorgStrategy, ScanRequest,
    Value,
};
use rodentstore_algebra::{DataType, Field, LayoutExpr, Schema};
use rodentstore_optimizer::CostModel;
use rodentstore_workload::{generate_traces, traces_schema, CartelConfig};

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

fn record_strategy() -> impl Strategy<Value = Vec<Value>> {
    (-100.0f64..100.0, -100.0f64..100.0, 0i64..10)
        .prop_map(|(x, y, tag)| vec![Value::Float(x), Value::Float(y), Value::Int(tag)])
}

/// Layouts that keep every field, so scans over all phases are comparable.
/// The set deliberately spans the incremental-append paths (rows, pax, grid
/// cells, horizontal partitions, vertical groups, orderby).
fn layout_strategy() -> impl Strategy<Value = LayoutExpr> {
    prop_oneof![
        Just(LayoutExpr::table("Points")),
        Just(LayoutExpr::table("Points").pax_with(64)),
        Just(LayoutExpr::table("Points").order_by(["x"])),
        Just(LayoutExpr::table("Points").vertical([vec!["x", "y"], vec!["tag"]])),
        (2.0f64..60.0).prop_map(|stride| {
            LayoutExpr::table("Points")
                .grid([("x", stride), ("y", stride)])
                .zorder()
        }),
        Just(LayoutExpr::table("Points").partition(
            rodentstore_algebra::expr::PartitionBy::Field("tag".into())
        )),
    ]
}

fn reorg_strategy() -> impl Strategy<Value = ReorgStrategy> {
    prop_oneof![
        Just(ReorgStrategy::Eager),
        Just(ReorgStrategy::NewDataOnly),
        Just(ReorgStrategy::Lazy),
    ]
}

/// Canonical reference: the inserted records, formatted for multiset
/// comparison (floats at 1e-5, tolerating grid/delta quantization).
fn reference(records: &[Vec<Value>]) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Float(f) => format!("{f:.5}"),
                    other => other.to_string(),
                })
                .collect()
        })
        .collect();
    out.sort();
    out
}

fn observed(db: &Database, request: &ScanRequest) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = db
        .scan("Points", request)
        .unwrap()
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Float(f) => format!("{f:.5}"),
                    other => other.to_string(),
                })
                .collect()
        })
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For every reorganization strategy: scans before an adaptation, during
    /// it (pending rows buffered / not yet absorbed), and after it match the
    /// canonical contents — and ordered scans stay globally ordered even
    /// while pending rows are merged in from the row buffer.
    #[test]
    fn scans_match_canonical_before_during_and_after_adaptation(
        batch1 in proptest::collection::vec(record_strategy(), 1..80),
        batch2 in proptest::collection::vec(record_strategy(), 1..40),
        batch3 in proptest::collection::vec(record_strategy(), 1..40),
        layout_a in layout_strategy(),
        layout_b in layout_strategy(),
        strategy in reorg_strategy(),
    ) {
        let db = Database::with_page_size(512);
        db.create_table(points_schema()).unwrap();
        db.insert("Points", batch1.clone()).unwrap();

        // Before: an initial design, eagerly rendered, plus inserts absorbed
        // into it (incrementally where the shape allows).
        db.apply_layout("Points", layout_a, ReorgStrategy::Eager).unwrap();
        db.insert("Points", batch2.clone()).unwrap();
        let mut all: Vec<Vec<Value>> = batch1;
        all.extend(batch2);
        prop_assert_eq!(observed(&db, &ScanRequest::all()), reference(&all));

        // The adaptation: a new design arrives under the strategy being
        // tested. Reads must stay correct mid-transition.
        db.apply_layout("Points", layout_b, strategy).unwrap();
        prop_assert_eq!(observed(&db, &ScanRequest::all()), reference(&all));

        // During: more rows arrive. Under new-data-only they stay in the row
        // buffer; under lazy they are pending until the next access; under
        // eager they are absorbed at once.
        db.insert("Points", batch3.clone()).unwrap();
        all.extend(batch3);
        if strategy == ReorgStrategy::NewDataOnly {
            prop_assert!(!db.catalog().get("Points").unwrap().pending.is_empty());
        }
        prop_assert_eq!(observed(&db, &ScanRequest::all()), reference(&all));

        // Ordered scan during the transition: the pending-row merge must
        // preserve the requested global order.
        let ordered = db
            .scan("Points", &ScanRequest::all().order(["x"]))
            .unwrap();
        prop_assert_eq!(ordered.len(), all.len());
        prop_assert!(
            ordered.windows(2).all(|w| w[0][0].compare(&w[1][0]) != std::cmp::Ordering::Greater),
            "ordered scan must be globally sorted during the transition"
        );

        // After: force full absorption (another access) and re-check.
        prop_assert_eq!(observed(&db, &ScanRequest::all()), reference(&all));
    }
}

const TRACES: usize = 2_000;

fn traces_db() -> Database {
    let db = Database::with_page_size(1024);
    db.create_table(traces_schema()).unwrap();
    db.insert(
        "Traces",
        generate_traces(&CartelConfig {
            observations: TRACES,
            vehicles: 10,
            ..CartelConfig::default()
        }),
    )
    .unwrap();
    db
}

/// Average pages per scan of `request` over `queries` scans.
fn pages_per_query(db: &Database, request: &ScanRequest, queries: u64) -> f64 {
    let before = db.io_snapshot().pages_read;
    for _ in 0..queries {
        db.scan("Traces", request).unwrap();
    }
    (db.io_snapshot().pages_read - before) as f64 / queries as f64
}

/// The closed loop under a workload shift: full-width scans, then narrow
/// `lat` projections, with auto-adaptation on and no `advise` or
/// `apply_layout` call in the driver. The layout the loop converges to reads
/// within 1.2× (+1 page) of the best hand-declared layout for the new phase.
#[test]
fn auto_layout_after_a_workload_shift_matches_the_best_hand_layout() {
    let db = traces_db();
    db.set_adaptive_policy(AdaptivePolicy {
        auto: true,
        check_every: 4,
        min_queries: 4,
        hysteresis: 0.1,
        strategy: ReorgStrategy::Eager,
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
            seed: 7,
        },
    });
    for _ in 0..12 {
        db.scan("Traces", &ScanRequest::all()).unwrap();
    }
    let adaptations = db.layout_stats("Traces").unwrap().adaptations;
    // Long enough for the first phase to decay out of the profile.
    let shifted = ScanRequest::all().fields(["lat"]);
    for _ in 0..128 {
        db.scan("Traces", &shifted).unwrap();
    }
    assert!(
        db.layout_stats("Traces").unwrap().adaptations > adaptations,
        "the loop must re-declare the layout for the shifted workload"
    );
    let auto = pages_per_query(&db, &shifted, 8);

    let (best, best_layout) = [
        "project[lat](Traces)",
        "vertical[lat|t,lon,id](Traces)",
        "columns(Traces)",
    ]
    .into_iter()
    .map(|layout| {
        let hand = traces_db();
        hand.apply_layout_text("Traces", layout).unwrap();
        (pages_per_query(&hand, &shifted, 8), layout)
    })
    .min_by(|a, b| a.0.total_cmp(&b.0))
    .unwrap();
    assert!(
        auto <= best * 1.2 + 1.0,
        "the converged layout reads {auto:.1} pages/query, {best_layout} {best:.1}"
    );
}

/// An eager insert into a rendered row layout appends to its tail: no full
/// re-render, one incremental append, and under a fifth of the layout's
/// pages written.
#[test]
fn eager_insert_appends_without_rerendering() {
    let db = traces_db();
    db.apply_layout("Traces", LayoutExpr::table("Traces"), ReorgStrategy::Eager)
        .unwrap();
    let layout_pages = db
        .snapshot("Traces")
        .unwrap()
        .layout()
        .expect("eager layouts render")
        .total_pages() as u64;
    let before = db.layout_stats("Traces").unwrap();
    let extra = generate_traces(&CartelConfig {
        observations: TRACES / 30,
        vehicles: 20,
        seed: 0xF00D,
        ..CartelConfig::default()
    });
    let written = db.io_snapshot().pages_written;
    db.insert("Traces", extra).unwrap();
    let written = db.io_snapshot().pages_written - written;
    let after = db.layout_stats("Traces").unwrap();
    assert_eq!(after.full_renders, before.full_renders, "no full re-render");
    assert_eq!(after.incremental_appends, before.incremental_appends + 1);
    assert!(
        written * 5 < layout_pages,
        "the append wrote {written} pages of a {layout_pages}-page layout"
    );
    assert_eq!(db.row_count("Traces").unwrap(), TRACES + TRACES / 30);
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rodentstore-adaptivity-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `per_cell` rows in each cell `(cx, cy)` of a unit grid, at the cell's
/// center.
fn cell_rows(cells: &[(f64, f64)], per_cell: usize) -> Vec<Vec<Value>> {
    cells
        .iter()
        .flat_map(|&(cx, cy)| {
            (0..per_cell).map(move |i| {
                vec![
                    Value::Float(cx + 0.5),
                    Value::Float(cy + 0.5),
                    Value::Int(i as i64),
                ]
            })
        })
        .collect()
}

const CELL_GRID: &str = "zorder(grid[x,y;1,1](Points))";

/// An eager insert into a gridded layout costs the cells its rows land in,
/// not the cells the layout has: it reads and relocates only their tails,
/// while a reader pinned before it keeps scanning the old generation — also
/// across a checkpoint — and reclaiming that generation frees only the
/// relocated tails.
#[test]
fn gridded_insert_forks_only_the_cells_it_writes() {
    let dir = scratch_dir("grid-fork");
    let db = Database::create(&dir).unwrap();
    db.create_table(points_schema()).unwrap();
    let lattice: Vec<(f64, f64)> = (0..20)
        .flat_map(|x| (0..20).map(move |y| (x as f64, y as f64)))
        .collect();
    db.insert("Points", cell_rows(&lattice, 5)).unwrap();
    db.apply_layout_text("Points", CELL_GRID).unwrap();
    db.checkpoint().unwrap();
    let pin = db.snapshot("Points").unwrap();
    let cells = pin.layout().unwrap().objects.len();
    assert_eq!(cells, 400);
    let pinned = pin.scan(&ScanRequest::all()).unwrap();

    let touched = [(1.0, 1.0), (5.0, 7.0), (10.0, 3.0), (19.0, 19.0)];
    let c = touched.len() as u64;
    let renders = db.layout_stats("Points").unwrap().full_renders;
    let io = db.io_snapshot();
    db.insert("Points", cell_rows(&touched, 3)).unwrap();
    let io = db.io_snapshot().since(&io);
    assert_eq!(db.layout_stats("Points").unwrap().full_renders, renders);
    assert!(
        io.pages_read <= c,
        "an insert into {c} of {cells} cells read {} pages",
        io.pages_read
    );
    assert!(
        io.pages_written <= 2 * c,
        "an insert into {c} cells wrote {} pages",
        io.pages_written
    );
    let live = db.snapshot("Points").unwrap();
    assert_eq!(
        live.layout().unwrap().objects.len(),
        cells,
        "no cell created"
    );
    assert_eq!(live.scan(&ScanRequest::all()).unwrap().len(), 2_012);

    assert_eq!(pin.scan(&ScanRequest::all()).unwrap(), pinned);
    db.checkpoint().unwrap();
    assert_eq!(pin.scan(&ScanRequest::all()).unwrap(), pinned);

    let reclaimed = |db: &Database| db.metrics().counter("epoch.reclaimed_pages").unwrap();
    let before = reclaimed(&db);
    drop((pin, live));
    db.checkpoint().unwrap();
    assert_eq!(
        reclaimed(&db) - before,
        c,
        "the superseded generation owned only the {c} relocated tails"
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cells an append creates below the lattice origin (where the stored cell
/// coordinate clamps to 0) and above it are found again by later appends,
/// before and after a reopen, instead of being created twice.
#[test]
fn appended_cells_below_and_above_the_origin_are_found_again() {
    let dir = scratch_dir("grid-outside");
    let outside = [(-3.0, -2.0), (25.0, 30.0)];
    let objects = |db: &Database| {
        db.snapshot("Points")
            .unwrap()
            .layout()
            .unwrap()
            .objects
            .len()
    };
    let in_cell = |db: &Database, (cx, cy): (f64, f64)| {
        let window = Condition::range("x", cx, cx + 0.9).and(Condition::range("y", cy, cy + 0.9));
        db.scan("Points", &ScanRequest::all().predicate(window))
            .unwrap()
            .len()
    };
    let cells = {
        let db = Database::create(&dir).unwrap();
        db.create_table(points_schema()).unwrap();
        let lattice: Vec<(f64, f64)> = (0..4)
            .flat_map(|x| (0..4).map(move |y| (x as f64, y as f64)))
            .collect();
        db.insert("Points", cell_rows(&lattice, 2)).unwrap();
        db.apply_layout_text("Points", CELL_GRID).unwrap();
        let rendered = objects(&db);
        db.insert("Points", cell_rows(&outside, 1)).unwrap();
        assert_eq!(objects(&db), rendered + 2, "one new cell on each side");
        db.insert("Points", cell_rows(&outside, 1)).unwrap();
        assert_eq!(objects(&db), rendered + 2, "both new cells found again");
        assert_eq!(
            in_cell(&db, (0.0, 0.0)),
            2,
            "the origin cell keeps its rows"
        );
        db.checkpoint().unwrap();
        rendered + 2
    };
    let db = Database::open(&dir).unwrap();
    db.insert("Points", cell_rows(&outside, 1)).unwrap();
    assert_eq!(objects(&db), cells, "found again after a reopen");
    for cell in outside {
        assert_eq!(in_cell(&db, cell), 3, "cell {cell:?}");
    }
    assert_eq!(in_cell(&db, (0.0, 0.0)), 2);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
