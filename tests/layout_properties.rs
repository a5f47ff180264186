//! Property-based integration tests: whatever layout the storage algebra
//! declares, the logical contents of the table must not change, and textual
//! expressions must round-trip through the parser.

use proptest::prelude::*;
use rodentstore::{Database, DurabilityOptions, ReorgStrategy, ScanRequest, SyncPolicy, Value};
use rodentstore_algebra::comprehension::{CmpOp, Condition, ElemExpr};
use rodentstore_algebra::{parse, DataType, Field, LayoutExpr, Schema};
use rodentstore_layout::{render, MemTableProvider, PhysicalLayout, RenderOptions};
use rodentstore_storage::pager::{FileStore, Pager};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A fresh path under the temp directory, unique to this process and call.
fn scratch_path(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "rodentstore-layout-props-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

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
    (
        -100.0f64..100.0,
        -100.0f64..100.0,
        0i64..20,
    )
        .prop_map(|(x, y, tag)| vec![Value::Float(x), Value::Float(y), Value::Int(tag)])
}

fn layout_strategy() -> impl Strategy<Value = LayoutExpr> {
    prop_oneof![
        Just(LayoutExpr::table("Points")),
        Just(LayoutExpr::table("Points").columns(["x", "y", "tag"])),
        Just(LayoutExpr::table("Points").pax_with(64)),
        Just(LayoutExpr::table("Points").order_by(["tag"])),
        Just(LayoutExpr::table("Points").vertical([vec!["x", "y"], vec!["tag"]])),
        (0.5f64..50.0).prop_map(|stride| {
            LayoutExpr::table("Points")
                .project(["x", "y"])
                .grid([("x", stride), ("y", stride)])
                .zorder()
        }),
        Just(
            LayoutExpr::table("Points")
                .order_by(["tag"])
                .compress(["tag"], rodentstore_algebra::expr::CodecSpec::Rle)
        ),
        Just(LayoutExpr::table("Points").lsm(["tag"])),
        Just(
            LayoutExpr::table("Points")
                .vertical([vec!["x"], vec!["y", "tag"]])
                .lsm(["tag"])
        ),
        Just(LayoutExpr::table("Points").grid([("x", 20.0), ("y", 20.0)]).zorder()),
        Just(LayoutExpr::table("Points").fold(["tag"], ["x", "y"])),
    ]
}

/// Comparisons with no field-against-literal form, over `x` and `y`: an
/// arithmetic one, one with the literal on the left, and one through
/// `bin(...)`.
fn computed_comparison_strategy() -> impl Strategy<Value = Condition> {
    let (x, y) = (|| ElemExpr::field("x"), || ElemExpr::field("y"));
    prop_oneof![
        (-200.0f64..200.0).prop_map(move |v| Condition::Cmp {
            left: ElemExpr::Sub(Box::new(x()), Box::new(y())),
            op: CmpOp::Ge,
            right: ElemExpr::lit(v),
        }),
        (-120.0f64..120.0).prop_map(move |v| Condition::Cmp {
            left: ElemExpr::lit(v),
            op: CmpOp::Le,
            right: x(),
        }),
        (-100i64..100).prop_map(move |v| Condition::Cmp {
            left: ElemExpr::Bin(Box::new(y())),
            op: CmpOp::Lt,
            right: ElemExpr::lit(v),
        }),
    ]
}

/// Layout shapes that retain every field of `Points`, as algebra text —
/// covering the plain heap, PAX, sort orders, column groups, compression,
/// the `index[...]` probe path, the levelled `lsm[...]` tier, and folded
/// groups.
fn full_field_layout_text() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("Points"),
        Just("pax[64](Points)"),
        Just("orderby[tag](Points)"),
        Just("vertical[x,y|tag](Points)"),
        Just("index[x](Points)"),
        Just("lsm[tag](Points)"),
        Just("lsm[tag](vertical[x|y,tag](Points))"),
        Just("rle[tag](orderby[tag](Points))"),
        Just("fold[tag|x,y](Points)"),
    ]
}

/// Like [`record_strategy`], but one value in six is a NaN, an infinity or
/// a `Null` (which column blocks store as a zero sentinel) — for the tests
/// whose reference is the engine's own full decode.
fn special_record_strategy() -> impl Strategy<Value = Vec<Value>> {
    let float = || {
        (-100.0f64..100.0, 0u8..18).prop_map(|(v, special)| match special {
            0 => Value::Float(f64::NAN),
            1 => Value::Float(f64::INFINITY),
            2 => Value::Null,
            _ => Value::Float(v),
        })
    };
    let tag = (0i64..20, 0u8..10).prop_map(|(v, special)| match special {
        0 => Value::Null,
        _ => Value::Int(v),
    });
    (float(), float(), tag).prop_map(|(x, y, tag)| vec![x, y, tag])
}

/// Column-block and vertically partitioned layouts of `Points`, as algebra
/// text: every layout whose objects are read through the column-chunk
/// source, over all six codecs, with small chunks so every table spans
/// several (and, for `chunk[..]` under a group, chunks of unequal counts),
/// and two grids of many column-block cells, whose scans share one read
/// plan across every cell they open.
fn columnar_layout_text() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("pax[8](Points)"),
        Just("columns(Points)"),
        Just("chunk[5](vertical[x,y|tag](Points))"),
        Just("chunk[7](vertical[x|y,tag](Points))"),
        Just("chunk[9](delta[x,tag](vertical[x,tag|y](Points)))"),
        Just("chunk[6](rle[tag,y](vertical[x,y|tag](Points)))"),
        Just("dict[tag](pax[8](Points))"),
        Just("chunk[11](bitpack[tag](vertical[x|y|tag](Points)))"),
        Just("chunk[4](for[tag](vertical[x,y|tag](Points)))"),
        Just("chunk[10](rle[x](delta[y](for[tag](Points))))"),
        Just("chunk[5](delta[x,tag](grid[tag;3](Points)))"),
        Just("delta[x,y](zorder(grid[x,y;20,20](Points)))"),
    ]
}

/// Predicates for the column-chunk source: ranges on any of the three
/// fields (so, against a random projection and partition, on a projected
/// field, on one that is not, and on one living in another object; with
/// bounds of the field's own type and, for `tag`, of another), a
/// disjunction (prunes nothing), a negation, a field-against-field
/// comparison, and the computed comparisons — each run row by row on the
/// chunk's columns.
fn columnar_predicate_strategy() -> impl Strategy<Value = Condition> {
    let range = |field: &'static str| {
        (-120.0f64..120.0, 0.0f64..100.0)
            .prop_map(move |(lo, w)| Condition::range(field, lo, lo + w))
    };
    let tags = || (0i64..20, 0i64..8).prop_map(|(lo, w)| Condition::range("tag", lo, lo + w));
    prop_oneof![
        Just(Condition::True),
        range("x"),
        range("y"),
        tags(),
        range("tag"),
        (range("y"), tags()).prop_map(|(a, b)| a.and(b)),
        (range("x"), tags()).prop_map(|(a, b)| Condition::Or(vec![a, b])),
        range("x").prop_map(|c| Condition::Not(Box::new(c))),
        Just(Condition::Cmp {
            left: ElemExpr::field("x"),
            op: CmpOp::Le,
            right: ElemExpr::field("y"),
        }),
        computed_comparison_strategy(),
    ]
}

/// Projections of `Points` by position: any length up to four, so empty
/// and duplicate projections are drawn as often as plain ones.
fn projection_strategy() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(0usize..3, 0..5)
        .prop_map(|picks| picks.into_iter().map(|i| ["x", "y", "tag"][i].to_string()).collect())
}

/// Rows rendered for comparison: `NaN != NaN`, so compare the debug form.
fn shown(rows: &[Vec<Value>]) -> Vec<String> {
    rows.iter().map(|r| format!("{r:?}")).collect()
}

/// Predicates over the fields every generated layout retains (`x`, `y`):
/// ranges and their combinations, comparisons, and a range on `x` beside a
/// computed comparison (an `index[x]` probe's residual).
fn predicate_strategy() -> impl Strategy<Value = Condition> {
    let range = |field: &'static str| {
        (-120.0f64..120.0, 0.0f64..100.0)
            .prop_map(move |(lo, w)| Condition::range(field, lo, lo + w))
    };
    prop_oneof![
        Just(Condition::True),
        range("x"),
        range("y"),
        (range("x"), range("y")).prop_map(|(a, b)| a.and(b)),
        (range("x"), range("x")).prop_map(|(a, b)| Condition::Or(vec![a, b])),
        range("y").prop_map(|c| Condition::Not(Box::new(c))),
        (-120.0f64..120.0).prop_map(|v| Condition::Cmp {
            left: ElemExpr::field("x"),
            op: CmpOp::Le,
            right: ElemExpr::lit(v),
        }),
        computed_comparison_strategy(),
        (range("x"), computed_comparison_strategy()).prop_map(|(a, b)| a.and(b)),
    ]
}

/// `Fenced(k, v, g)`: the relation the chunk-fence property test loads.
fn fenced_schema() -> Schema {
    Schema::new(
        "Fenced",
        vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Float),
            Field::new("g", DataType::Int),
        ],
    )
}

/// `n` rows of `Fenced` from `seed`: `k` steps by 3 in ascending (`order`
/// 0), descending (1) or shuffled (2) order, starting just below 2^53 when
/// `big` so the keys cross the range `f64` holds exactly; `v` follows the
/// row position with noise, one in seventeen a NaN; `k` and `v` are `Null`
/// now and then; `g` is small and random (a grid dimension, so never
/// `Null`).
fn fenced_rows(seed: u64, n: usize, order: u8, big: bool) -> Vec<Vec<Value>> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let base: i64 = if big { (1 << 53) - 40 } else { -50 };
    let mut keys: Vec<i64> = (0..n as i64).map(|i| base + 3 * i).collect();
    match order {
        0 => {}
        1 => keys.reverse(),
        _ => {
            for i in (1..keys.len()).rev() {
                keys.swap(i, next() as usize % (i + 1));
            }
        }
    }
    keys.into_iter()
        .enumerate()
        .map(|(i, k)| {
            let r = next();
            let k = if r % 13 == 0 {
                Value::Null
            } else {
                Value::Int(k)
            };
            let v = match r % 17 {
                0 => Value::Float(f64::NAN),
                1 => Value::Null,
                _ => Value::Float(i as f64 * 0.5 + (r % 7) as f64),
            };
            vec![k, v, Value::Int((r % 40) as i64 - 10)]
        })
        .collect()
}

/// One comparison of a chunk-fence predicate: a field, an operator (0 is a
/// range, then `=`, `<`, `<=`, `>`, `>=`, `!=`), and bounds drawn from the
/// stored values — at a chunk's first row (`edge` 0), at its last (1), or
/// anywhere (2) — optionally as a literal of the other numeric type.
type FenceAtom = (usize, u8, (usize, u8), (usize, u8), bool);

fn fence_atom_strategy() -> impl Strategy<Value = FenceAtom> {
    (
        0usize..3,
        0u8..7,
        (0usize..10_000, 0u8..3),
        (0usize..10_000, 0u8..3),
        (0u8..4).prop_map(|c| c == 0),
    )
}

/// Builds a predicate of `shape` over `atoms`, with bounds taken from
/// `rows` as stored (`Null` read back as zero) in chunks of `chunk` rows.
fn fence_predicate(shape: u8, atoms: &[FenceAtom], rows: &[Vec<Value>], chunk: usize) -> Condition {
    let fields = ["k", "v", "g"];
    let bound = |field: usize, (at, edge): (usize, u8), cross: bool| {
        let n = rows.len();
        let pos = match edge {
            2 => at % n,
            _ => ((at % (n / chunk + 1)) * chunk + usize::from(edge == 1) * (chunk - 1)).min(n - 1),
        };
        match (&rows[pos][field], cross) {
            (Value::Int(x), true) => Value::Float(*x as f64),
            (Value::Float(x), true) if x.is_finite() => Value::Int(*x as i64),
            (value, _) => value.clone(),
        }
    };
    let atom = |&(field, op, lo, hi, cross): &FenceAtom| {
        let name = fields[field];
        let lo = bound(field, lo, cross);
        let op = match op {
            0 => {
                let hi = bound(field, hi, cross);
                let (lo, hi) = if lo.compare(&hi).is_le() {
                    (lo, hi)
                } else {
                    (hi, lo)
                };
                return Condition::range(name, lo, hi);
            }
            1 => CmpOp::Eq,
            2 => CmpOp::Lt,
            3 => CmpOp::Le,
            4 => CmpOp::Gt,
            5 => CmpOp::Ge,
            _ => CmpOp::Ne,
        };
        Condition::Cmp {
            left: ElemExpr::field(name),
            op,
            right: ElemExpr::Literal(lo),
        }
    };
    let all: Vec<Condition> = atoms.iter().map(atom).collect();
    match shape {
        0 => all[0].clone(),
        1 => Condition::And(all),
        2 => Condition::Or(all),
        3 => Condition::Not(Box::new(all[0].clone())),
        4 => Condition::And(vec![all[0].clone(), Condition::Or(all[1..].to_vec())]),
        _ => Condition::And(vec![
            all[0].clone(),
            Condition::Not(Box::new(all[all.len() - 1].clone())),
        ]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Scanning through any generated layout returns exactly the logical
    /// tuples that were inserted (projected to the layout's fields), as a
    /// multiset.
    #[test]
    fn layouts_preserve_logical_contents(
        records in proptest::collection::vec(record_strategy(), 1..200),
        layout in layout_strategy(),
    ) {
        let db = Database::with_page_size(512);
        db.create_table(points_schema()).unwrap();
        db.insert("Points", records.clone()).unwrap();
        db.apply_layout("Points", layout.clone(), rodentstore::ReorgStrategy::Eager).unwrap();

        // Only compare the fields the layout exposes (a projection drops some).
        let derived = rodentstore_algebra::validate::check(&layout, &points_schema()).unwrap();
        let fields: Vec<String> = derived.fields().to_vec();
        let schema = points_schema();
        let mut expected: Vec<Vec<String>> = records
            .iter()
            .map(|r| {
                schema
                    .extract(r, &fields)
                    .unwrap()
                    .iter()
                    .map(|v| match v {
                        // Grid + delta layouts quantize floats; compare at 1e-5.
                        Value::Float(f) => format!("{:.5}", f),
                        other => other.to_string(),
                    })
                    .collect()
            })
            .collect();
        let mut actual: Vec<Vec<String>> = db
            .scan("Points", &ScanRequest::all().fields(fields.clone()))
            .unwrap()
            .iter()
            .map(|r| {
                r.iter()
                    .map(|v| match v {
                        Value::Float(f) => format!("{:.5}", f),
                        other => other.to_string(),
                    })
                    .collect()
            })
            .collect();
        expected.sort();
        actual.sort();
        prop_assert_eq!(actual, expected);
    }

    /// Predicate pushdown never changes results: filtering through the layout
    /// equals filtering the full scan in memory.
    #[test]
    fn predicate_scans_match_post_filtering(
        records in proptest::collection::vec(record_strategy(), 1..150),
        lo in -100.0f64..0.0,
        width in 1.0f64..80.0,
    ) {
        let db = Database::with_page_size(512);
        db.create_table(points_schema()).unwrap();
        db.insert("Points", records).unwrap();
        db.apply_layout_text(
            "Points",
            "zorder(grid[x,y;10,10](Points))",
        ).unwrap();

        let hi = lo + width;
        let pred = rodentstore::Condition::range("x", lo, hi);
        let filtered = db
            .scan("Points", &ScanRequest::all().predicate(pred))
            .unwrap();
        let all = db.scan("Points", &ScanRequest::all()).unwrap();
        let expected = all
            .iter()
            .filter(|r| {
                let x = r[0].as_f64().unwrap();
                x >= lo && x <= hi
            })
            .count();
        prop_assert_eq!(filtered.len(), expected);
    }

    /// The streaming read path is a drop-in for the eager one: for every
    /// generated layout and random projection/predicate, `ScanIter` yields
    /// exactly the rows — and the order — that decoding everything and
    /// filtering/projecting in memory produces, and `get_element(i)` equals
    /// `scan()[i]`.
    #[test]
    fn scan_iter_matches_eager_reference(
        records in proptest::collection::vec(record_strategy(), 1..150),
        layout in layout_strategy(),
        field_mask in 1u8..16,
        predicate in predicate_strategy(),
    ) {
        // A levelled layout is built through a database with a tiny memtable
        // and most rows arriving after the layout, so they sit in spilled
        // runs (several levels deep) and a few in the memtable.
        let (db, catalog, owned);
        let rendered: &PhysicalLayout = if matches!(layout, LayoutExpr::Lsm { .. }) {
            db = Database::with_page_size(512);
            db.set_lsm_params(4, 2);
            db.create_table(points_schema()).unwrap();
            let (early, late) = records.split_at(records.len() / 3);
            if !early.is_empty() {
                db.insert("Points", early.to_vec()).unwrap();
            }
            db.apply_layout("Points", layout.clone(), ReorgStrategy::Eager).unwrap();
            for batch in late.chunks(7) {
                db.insert("Points", batch.to_vec()).unwrap();
            }
            catalog = db.catalog();
            catalog.get("Points").unwrap().access.as_ref().unwrap().layout()
        } else {
            let provider = MemTableProvider::single(points_schema(), records);
            let pager = Arc::new(Pager::in_memory_with_page_size(512));
            owned = render(&layout, &provider, pager, RenderOptions::default()).unwrap();
            &owned
        };

        // Reference result: decode every field of every row, then filter with
        // the interpreted `Condition::eval` and project by schema position.
        let full = rendered.scan(None, None).unwrap();
        let schema = &rendered.schema;
        let mut fields: Vec<String> = schema
            .field_names()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| field_mask & (1 << (i % 3)) != 0)
            .map(|(_, f)| f)
            .collect();
        if fields.is_empty() {
            fields = schema.field_names();
        }
        if field_mask & 8 != 0 {
            fields.reverse();
        }
        let indices = schema.indices_of(&fields).unwrap();
        let mut expected: Vec<Vec<Value>> = Vec::new();
        for row in &full {
            if predicate.eval(schema, row).unwrap() {
                expected.push(indices.iter().map(|&i| row[i].clone()).collect());
            }
        }

        // Streaming result, decoded on demand.
        let streamed: Vec<Vec<Value>> = rendered
            .scan_iter(Some(&fields), Some(&predicate))
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        prop_assert_eq!(&streamed, &expected, "layout {}", layout);

        // Positional access decodes only the containing row/block but must
        // agree with the full scan everywhere.
        let step = (full.len() / 7).max(1);
        for i in (0..full.len()).step_by(step) {
            prop_assert_eq!(&rendered.get_element(i, None).unwrap(), &full[i]);
            prop_assert_eq!(
                rendered.get_element(i, Some(&fields)).unwrap(),
                indices.iter().map(|&j| full[i][j].clone()).collect::<Vec<_>>()
            );
        }
        prop_assert!(rendered.get_element(full.len(), None).is_err());
    }

    /// One cursor, two byte sources: for every lossless layout shape
    /// (`index[...]` probes and both `lsm[...]` shapes included, with half the
    /// rows arriving after the layout so appends land and lsm runs spill), a
    /// projected + filtered scan and a windowed-aggregate pushdown return what
    /// filtering and folding the inserted records returns — in memory, where
    /// frames share the store's buffers, and on a file-backed database,
    /// where every frame is a copy.
    #[test]
    fn every_layout_matches_the_inserted_records_on_shared_and_copied_frames(
        records in proptest::collection::vec(record_strategy(), 1..150),
        layout in full_field_layout_text(),
        predicate in predicate_strategy(),
        width in 1.0f64..8.0,
    ) {
        use rodentstore::{WindowAccumulator, WindowedAggregate};

        // The engine-free reference: the inserted records themselves.
        let schema = points_schema();
        let spec = WindowedAggregate::new("tag", width, "x");
        let mut fold = WindowAccumulator::new(&spec);
        let mut expected: Vec<String> = Vec::new();
        for row in records.iter().filter(|row| predicate.eval(&schema, row).unwrap()) {
            expected.push(format!("{:?}", [&row[0], &row[2]]));
            fold.fold_values(&row[2], &row[0]);
        }
        expected.sort();
        let reference_windows = fold.finish();

        let dir = scratch_path("copied-frames");
        let options = DurabilityOptions { page_size: 512, sync: SyncPolicy::Never };
        let file_backed = Database::create_with(&dir, options).unwrap();
        let mut answers = Vec::new();
        for (db, copied) in [(Database::with_page_size(512), false), (file_backed, true)] {
            db.set_lsm_params(8, 2);
            db.create_table(points_schema()).unwrap();
            let (early, late) = records.split_at(records.len().div_ceil(2));
            db.insert("Points", early.to_vec()).unwrap();
            db.apply_layout_text("Points", layout).unwrap();
            for batch in late.chunks(10) {
                db.insert("Points", batch.to_vec()).unwrap();
            }
            let request = ScanRequest::all().fields(["x", "tag"]).predicate(predicate.clone());
            let before = db.io_snapshot();
            let rows = db.scan("Points", &request).unwrap();
            let windows = db.scan_aggregate("Points", &spec, Some(&predicate)).unwrap();
            let io = db.io_snapshot().since(&before);
            if copied {
                // Chunk fences may rule out every page of a window that
                // matches nothing.
                prop_assert!(io.frame_copies > 0 || rows.is_empty(), "layout {}", layout);
                prop_assert_eq!(io.frame_copies, io.pages_read, "layout {}", layout);
            }

            // Index probes and lsm tiers emit rows in storage order, not
            // insertion order: compare as a multiset.
            let mut got: Vec<String> = rows.iter().map(|r| format!("{:?}", [&r[0], &r[1]])).collect();
            got.sort();
            prop_assert_eq!(&got, &expected, "layout {}", layout);
            // Float sums may differ in the last ulp when the access path folds
            // in a different row order than the reference; everything else is
            // exact.
            prop_assert_eq!(windows.len(), reference_windows.len(), "layout {}", layout);
            for (w, r) in windows.iter().zip(&reference_windows) {
                prop_assert_eq!(w.bucket_start, r.bucket_start, "layout {}", layout);
                prop_assert_eq!(w.count, r.count, "layout {}", layout);
                prop_assert_eq!(w.min, r.min, "layout {}", layout);
                prop_assert_eq!(w.max, r.max, "layout {}", layout);
                prop_assert!(
                    (w.sum - r.sum).abs() <= 1e-9 * w.sum.abs().max(1.0),
                    "bucket sum diverges on layout {}: {} vs {}", layout, w.sum, r.sum
                );
            }
            answers.push((rows, windows));
        }
        // Same code, two byte sources: the same rows in the same order.
        prop_assert_eq!(&answers[0], &answers[1], "layout {}", layout);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The column-chunk row source is a drop-in for the owned decode: over
    /// every column-block and vertical layout, codec, projection (empty and
    /// duplicate ones too) and predicate shape, `scan`, `scan_iter` with a
    /// `rewind`, `scan_aggregate` and `get_element` return what filtering,
    /// projecting and folding the full decode in memory returns — same rows,
    /// same order, same bits — over a memory store's shared frames and over a
    /// file store's copied ones.
    #[test]
    fn column_chunk_source_matches_owned_reference(
        records in proptest::collection::vec(special_record_strategy(), 1..150),
        layout in columnar_layout_text(),
        fields in projection_strategy(),
        predicate in columnar_predicate_strategy(),
        width in 1.0f64..8.0,
    ) {
        use rodentstore::{WindowAccumulator, WindowedAggregate};

        let provider = MemTableProvider::single(points_schema(), records.clone());
        let path = scratch_path("column-chunks");
        let file = Pager::with_store(Arc::new(FileStore::create(&path, 512).unwrap()));
        for pager in [Pager::in_memory_with_page_size(512), file] {
            let rendered = render(
                &parse(layout).unwrap(),
                &provider,
                Arc::new(pager),
                RenderOptions::default(),
            )
            .unwrap();
            let schema = points_schema();

            // The full decode is itself pinned to what was inserted wherever the
            // codecs are lossless: row count, order, and the integer column
            // (`Null` is stored as the zero sentinel). A grid stores its rows
            // cell by cell, so there the order is the grid's own and the
            // integer column is pinned as a multiset.
            let full = rendered.scan(None, None).unwrap();
            prop_assert_eq!(full.len(), records.len());
            let mut stored: Vec<Option<i64>> = full.iter().map(|row| row[2].as_i64()).collect();
            let mut inserted: Vec<Option<i64>> =
                records.iter().map(|row| Some(row[2].as_i64().unwrap_or(0))).collect();
            if rendered.is_gridded() {
                stored.sort_unstable();
                inserted.sort_unstable();
            }
            prop_assert_eq!(stored, inserted, "layout {}", layout);

            let indices = schema.indices_of(&fields).unwrap();
            let project = |row: &Vec<Value>| indices.iter().map(|&i| row[i].clone()).collect::<Vec<_>>();
            let spec = WindowedAggregate::new("tag", width, "x");
            let mut fold = WindowAccumulator::new(&spec);
            let mut expected: Vec<Vec<Value>> = Vec::new();
            for row in &full {
                if predicate.eval(&schema, row).unwrap() {
                    expected.push(project(row));
                    fold.fold_values(&row[2], &row[0]);
                }
            }

            let scanned = rendered.scan(Some(&fields), Some(&predicate)).unwrap();
            prop_assert_eq!(shown(&scanned), shown(&expected), "scan, layout {}", layout);

            let mut iter = rendered.scan_iter(Some(&fields), Some(&predicate)).unwrap();
            for _ in 0..expected.len() / 3 {
                iter.next().unwrap().unwrap();
            }
            iter.rewind().unwrap();
            let replayed: Vec<Vec<Value>> = iter.collect::<Result<_, _>>().unwrap();
            prop_assert_eq!(shown(&replayed), shown(&expected), "rewound iterator, layout {}", layout);

            let windows = rendered.scan_aggregate(&spec, Some(&predicate)).unwrap();
            prop_assert_eq!(windows.rows_folded(), fold.rows_folded(), "layout {}", layout);
            prop_assert_eq!(
                format!("{:?}", windows.finish()),
                format!("{:?}", fold.finish()),
                "aggregate, layout {}", layout
            );

            let step = (full.len() / 7).max(1);
            for i in (0..full.len()).step_by(step) {
                let element = rendered.get_element(i, Some(&fields)).unwrap();
                prop_assert_eq!(shown(&[element]), shown(&[project(&full[i])]), "layout {}", layout);
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A windowed fold keyed on a float column — negative, NaN and infinite
    /// bucket values, and a width so small that keys saturate — reads the
    /// column chunks' typed lanes and must still fold, bit for bit, what
    /// `Condition::eval` keeps of the full decode.
    #[test]
    fn column_folds_key_negative_and_nan_buckets_like_the_row_fold(
        records in proptest::collection::vec(special_record_strategy(), 1..150),
        layout in columnar_layout_text(),
        predicate in columnar_predicate_strategy(),
        width in prop_oneof![0.5f64..8.0, Just(1e-300)],
    ) {
        use rodentstore::{WindowAccumulator, WindowedAggregate};

        let mut records = records;
        let mid = records.len() / 2;
        records.splice(mid..mid, [
            vec![Value::Float(f64::NAN), Value::Float(1.5), Value::Int(1)],
            vec![Value::Float(-0.5), Value::Float(-2.0), Value::Int(2)],
            vec![Value::Float(f64::NEG_INFINITY), Value::Float(4.0), Value::Int(3)],
            vec![Value::Float(-37.25), Value::Float(f64::NAN), Value::Int(4)],
        ]);
        let provider = MemTableProvider::single(points_schema(), records);
        let rendered = render(
            &parse(layout).unwrap(),
            &provider,
            Arc::new(Pager::in_memory_with_page_size(512)),
            RenderOptions::default(),
        )
        .unwrap();
        let schema = points_schema();
        let spec = WindowedAggregate::new("x", width, "y");
        let mut fold = WindowAccumulator::new(&spec);
        for row in rendered.scan(None, None).unwrap() {
            if predicate.eval(&schema, &row).unwrap() {
                fold.fold_values(&row[0], &row[1]);
            }
        }
        let windows = rendered.scan_aggregate(&spec, Some(&predicate)).unwrap();
        prop_assert_eq!(windows.rows_folded(), fold.rows_folded(), "layout {}", layout);
        prop_assert_eq!(
            format!("{:?}", windows.finish()),
            format!("{:?}", fold.finish()),
            "aggregate, layout {}", layout
        );
    }

    /// Two column groups of one partition need not agree on where their
    /// chunks end: with a page this small, the group holding a wide string
    /// is split down to a row or two per chunk while its sibling keeps tens.
    /// The cursors still advance by row position, so every projection and
    /// predicate sees whole rows, in order.
    #[test]
    fn vertical_groups_with_unequal_chunks_stay_aligned(
        rows in proptest::collection::vec((0i64..50, 0usize..4, -10.0f64..10.0), 1..60),
        fields in proptest::collection::vec(0usize..3, 0..4),
        lo in 0i64..50,
        width in 0i64..25,
        on_label in 0u8..2,
    ) {
        let schema = Schema::new(
            "Notes",
            vec![
                Field::new("k", DataType::Int),
                Field::new("label", DataType::String),
                Field::new("v", DataType::Float),
            ],
        );
        let records: Vec<Vec<Value>> = rows
            .iter()
            .map(|&(k, wide, v)| {
                let label = format!("{k:0>width$}", width = 1 + wide * 90);
                vec![Value::Int(k), Value::Str(label), Value::Float(v)]
            })
            .collect();
        let provider = MemTableProvider::single(schema.clone(), records.clone());
        let pager = Arc::new(Pager::in_memory_with_page_size(512));
        let rendered = render(
            &parse("vertical[k,v|label](Notes)").unwrap(),
            &provider,
            pager,
            RenderOptions::default(),
        )
        .unwrap();
        prop_assert_eq!(&rendered.scan(None, None).unwrap(), &records);

        let fields: Vec<String> =
            fields.into_iter().map(|i| ["k", "label", "v"][i].to_string()).collect();
        let predicate = if on_label == 1 {
            Condition::range("label", format!("{lo:0>91}"), format!("{:0>91}", lo + width))
        } else {
            Condition::range("k", lo, lo + width)
        };
        let indices = schema.indices_of(&fields).unwrap();
        let expected: Vec<Vec<Value>> = records
            .iter()
            .filter(|row| predicate.eval(&schema, row).unwrap())
            .map(|row| indices.iter().map(|&i| row[i].clone()).collect())
            .collect();
        prop_assert_eq!(&rendered.scan(Some(&fields), Some(&predicate)).unwrap(), &expected);
        for (i, row) in records.iter().enumerate().step_by(5) {
            prop_assert_eq!(&rendered.get_element(i, None).unwrap(), row);
        }
    }

    /// Rows that arrive after the render land in fresh chunks past a
    /// protected tail (the published rendering is forked, never rewritten),
    /// and rows that arrive under new-data-only stay pending: a scan stitches
    /// rendered chunks, appended chunks and the pending buffer into one
    /// answer, in arrival order.
    #[test]
    fn appended_chunks_and_pending_rows_merge_in_order(
        batch1 in proptest::collection::vec(record_strategy(), 1..80),
        batch2 in proptest::collection::vec(record_strategy(), 1..40),
        batch3 in proptest::collection::vec(record_strategy(), 1..40),
        layout in prop_oneof![
            Just("chunk[7](vertical[x,y|tag](Points))"),
            Just("chunk[5](rle[tag](vertical[x|y,tag](Points)))"),
            Just("pax[8](Points)"),
        ],
        fields in projection_strategy(),
        predicate in columnar_predicate_strategy(),
    ) {
        let db = Database::with_page_size(512);
        db.create_table(points_schema()).unwrap();
        db.insert("Points", batch1.clone()).unwrap();
        db.apply_layout("Points", parse(layout).unwrap(), rodentstore::ReorgStrategy::Eager).unwrap();
        db.insert("Points", batch2.clone()).unwrap();
        db.apply_layout("Points", parse(layout).unwrap(), rodentstore::ReorgStrategy::NewDataOnly).unwrap();
        db.insert("Points", batch3.clone()).unwrap();
        prop_assert!(!db.catalog().get("Points").unwrap().pending.is_empty());

        use rodentstore::{WindowAccumulator, WindowedAggregate};

        let schema = points_schema();
        let indices = schema.indices_of(&fields).unwrap();
        let project = |row: &Vec<Value>| -> Vec<Value> {
            indices.iter().map(|&i| row[i].clone()).collect()
        };
        let inserted: Vec<&Vec<Value>> = batch1.iter().chain(&batch2).chain(&batch3).collect();
        let spec = WindowedAggregate::new("tag", 3.0, "x");
        let mut fold = WindowAccumulator::new(&spec);
        let mut expected: Vec<Vec<Value>> = Vec::new();
        for row in inserted.iter().filter(|row| predicate.eval(&schema, row).unwrap()) {
            expected.push(project(row));
            fold.fold_values(&row[2], &row[0]);
        }
        let request = ScanRequest::all().fields(fields.clone()).predicate(predicate.clone());
        prop_assert_eq!(&db.scan("Points", &request).unwrap(), &expected, "layout {}", layout);

        // The fold reads the layout, then the pending rows, in arrival order:
        // the sums match the reference bit for bit.
        let windows = db.scan_aggregate("Points", &spec, Some(&predicate)).unwrap();
        prop_assert_eq!(
            format!("{:?}", windows),
            format!("{:?}", fold.finish()),
            "aggregate, layout {}", layout
        );

        // Positions run through the layout's rows into the pending ones.
        for (i, row) in inserted.iter().enumerate() {
            prop_assert_eq!(
                &db.get_element("Points", i, Some(&fields)).unwrap(),
                &project(row),
                "element {}, layout {}", i, layout
            );
        }
        prop_assert!(db.get_element("Points", inserted.len(), Some(&fields)).is_err());

        // An order over a projected key sorts layout and pending rows as one
        // stable sort of the arrival order.
        if let Some(key) = fields.first() {
            let mut sorted = expected.clone();
            sorted.sort_by(|a, b| a[0].compare(&b[0]));
            let ordered = request.clone().order([key.clone()]);
            prop_assert_eq!(&db.scan("Points", &ordered).unwrap(), &sorted, "layout {}", layout);
        }
    }

    /// Chunk fences only ever skip chunks that cannot match. Over a fenced
    /// `delta[...]` object, a vertical partition with predicate fields in
    /// both groups, and a gridded `delta` layout (whose cells keep no
    /// directory), with ascending, descending and shuffled keys, keys past
    /// 2^53, `Null`s, NaNs, and batches appended out of order after the
    /// layout, every scan returns what filtering the inserted rows with
    /// `Condition::eval` returns — in the same order (as a multiset for the
    /// grid) — reads exactly the pages `explain` predicts, and `get_element`
    /// agrees with the scan; in memory and on a file store.
    #[test]
    fn chunk_fences_never_hide_a_matching_row(
        seed in 0u64..1_000_000,
        n in 1usize..160,
        order in 0u8..3,
        big in (0u8..3).prop_map(|b| b == 0),
        layout in 0usize..4,
        shape in 0u8..6,
        atoms in proptest::collection::vec(fence_atom_strategy(), 2..4),
        fields in proptest::collection::vec(0usize..3, 0..4),
    ) {
        let (text, chunk) = [
            ("chunk[8](delta[k](Fenced))", 8),
            ("chunk[6](delta[k,g](vertical[k|v,g](Fenced)))", 6),
            ("chunk[5](vertical[k,v|g](Fenced))", 5),
            ("chunk[7](delta[k](grid[g;8](Fenced)))", 7),
        ][layout];
        let gridded = layout == 3;
        let records = fenced_rows(seed, n, order, big);
        // Batches after the first arrive in reverse: the inserted order is
        // the reference order.
        let (early, late) = records.split_at(n.div_ceil(2));
        let mut inserted: Vec<Vec<Value>> = early.to_vec();
        let batches: Vec<&[Vec<Value>]> = late.chunks(9).rev().collect();
        for batch in &batches {
            inserted.extend_from_slice(batch);
        }
        // Column blocks read a `Null` back as the zero of its field's type.
        let stored: Vec<Vec<Value>> = inserted
            .iter()
            .map(|row| {
                vec![
                    if row[0].is_null() { Value::Int(0) } else { row[0].clone() },
                    if row[1].is_null() { Value::Float(0.0) } else { row[1].clone() },
                    row[2].clone(),
                ]
            })
            .collect();
        let schema = fenced_schema();
        let predicate = fence_predicate(shape, &atoms, &stored, chunk);
        let fields: Vec<String> =
            fields.into_iter().map(|i| ["k", "v", "g"][i].to_string()).collect();
        let indices = schema.indices_of(&fields).unwrap();
        let mut expected: Vec<String> = stored
            .iter()
            .filter(|row| predicate.eval(&schema, row).unwrap())
            .map(|row| format!("{:?}", indices.iter().map(|&i| &row[i]).collect::<Vec<_>>()))
            .collect();

        let dir = scratch_path("fences");
        let options = DurabilityOptions { page_size: 512, sync: SyncPolicy::Never };
        for db in [Database::with_page_size(512), Database::create_with(&dir, options).unwrap()] {
            db.create_table(fenced_schema()).unwrap();
            db.insert("Fenced", early.to_vec()).unwrap();
            db.apply_layout_text("Fenced", text).unwrap();
            for batch in &batches {
                db.insert("Fenced", batch.to_vec()).unwrap();
            }
            let request = ScanRequest::all().fields(fields.clone()).predicate(predicate.clone());
            let predicted = db.explain("Fenced", &request).unwrap().predicted_pages;
            let before = db.metrics();
            let rows = db.scan("Fenced", &request).unwrap();
            let after = db.metrics();
            let delta =
                |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
            let mut got: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
            if gridded {
                got.sort();
                expected.sort();
            }
            prop_assert_eq!(&got, &expected, "layout {} predicate {:?}", text, predicate);
            prop_assert_eq!(delta("scan.pages"), delta("io.pages_read"), "layout {}", text);
            prop_assert_eq!(delta("scan.pages"), predicted, "layout {} {:?}", text, predicate);

            let snapshot = db.snapshot("Fenced").unwrap();
            let rendered = snapshot.layout().unwrap();
            let fenced = rendered.objects.iter().all(|o| o.chunks.is_some() != gridded);
            prop_assert!(fenced, "layout {}", text);
            if gridded {
                prop_assert_eq!(delta("scan.chunks_pruned"), 0);
            }
            let full = rendered.scan(None, None).unwrap();
            if !gridded {
                prop_assert_eq!(shown(&full), shown(&stored), "layout {}", text);
            }
            for i in (0..full.len()).step_by((full.len() / 5).max(1)) {
                let element = rendered.get_element(i, None).unwrap();
                prop_assert_eq!(shown(&[element]), shown(&full[i..=i]), "layout {}", text);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every generated layout expression round-trips through its textual form.
    #[test]
    fn textual_syntax_round_trips(layout in layout_strategy()) {
        let text = layout.to_string();
        let reparsed = parse(&text).unwrap();
        prop_assert_eq!(reparsed.to_string(), text);
    }
}

/// A row whose gridded value is NaN, infinite or `Null` has no lattice
/// coordinate. It lives in a cell unbounded along that dimension, which a
/// box query always reads, so a box far from the grid's origin cell still
/// returns it whenever the predicate keeps it (a NaN lies inside every
/// range; a column block reads a `Null` back as 0.0).
#[test]
fn grid_rows_without_a_lattice_coordinate_survive_box_pruning() {
    let mut records: Vec<Vec<Value>> = (0..400)
        .map(|i| {
            let (x, y) = ((i % 20) as f64 * 10.0 + 0.5, (i / 20) as f64 * 10.0 + 0.5);
            vec![Value::Float(x), Value::Float(y), Value::Int(i % 20)]
        })
        .collect();
    let specials = [
        Value::Float(f64::NAN),
        Value::Float(f64::INFINITY),
        Value::Float(f64::NEG_INFINITY),
        Value::Float(1e300),
        Value::Null,
    ];
    for (i, special) in specials.iter().enumerate() {
        let near = Value::Float(150.5);
        let tag = Value::Int(100 + i as i64);
        records.push(vec![special.clone(), near.clone(), tag.clone()]);
        records.push(vec![near, special.clone(), tag]);
    }
    let boxed = Condition::range("x", 140.0, 160.0).and(Condition::range("y", 140.0, 160.0));
    let provider = MemTableProvider::single(points_schema(), records.clone());
    for layout in [
        "grid[x,y;20,20](Points)",
        "zorder(grid[x,y;20,20](Points))",
        "delta[x,y](zorder(grid[x,y;20,20](Points)))",
    ] {
        let rendered = render(
            &parse(layout).unwrap(),
            &provider,
            Arc::new(Pager::in_memory_with_page_size(512)),
            RenderOptions::default(),
        )
        .unwrap();
        let full = rendered.scan(None, None).unwrap();
        assert_eq!(full.len(), records.len(), "layout {layout}");
        let schema = points_schema();
        let mut expected: Vec<String> = full
            .iter()
            .filter(|row| boxed.eval(&schema, row).unwrap())
            .map(|row| format!("{row:?}"))
            .collect();
        let mut got: Vec<String> = rendered
            .scan(None, Some(&boxed))
            .unwrap()
            .iter()
            .map(|row| format!("{row:?}"))
            .collect();
        expected.sort();
        got.sort();
        // Every layout's full decode keeps the special floats, bit for bit.
        for special in specials.iter().filter_map(Value::as_f64) {
            let bits = special.to_bits();
            let same = |v: &&Value| matches!(v, Value::Float(f) if f.to_bits() == bits);
            let kept = full.iter().flat_map(|row| &row[..2]).filter(same).count();
            assert_eq!(kept, 2, "layout {layout}: {special}");
        }
        assert_eq!(got, expected, "layout {layout}");
        // The box reads a handful of lattice cells and the unbounded ones,
        // not the whole grid.
        let read = rendered.objects_to_read(None, Some(&boxed)).len();
        assert!(read < rendered.objects.len() / 4, "layout {layout}: {read} cells read");
    }
}

/// An ordered scan sorts by the values' total order: NaN after every
/// number, the numbers ascending, and no panic from the sort, at every
/// table size.
#[test]
fn ordered_scans_put_nan_after_every_number() {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for rows in [20usize, 57, 300, 1_000, 3_000] {
        let records: Vec<Vec<Value>> = (0..rows)
            .map(|i| {
                let r = next();
                let x = if i % 7 == 3 { f64::NAN } else { (r >> 11) as f64 / 1e12 };
                vec![Value::Float(x), Value::Float(i as f64), Value::Int(i as i64)]
            })
            .collect();
        let db = Database::in_memory();
        db.create_table(points_schema()).unwrap();
        db.insert("Points", records).unwrap();
        let sorted = db
            .scan("Points", &ScanRequest::all().order(["x"]))
            .unwrap();
        assert_eq!(sorted.len(), rows);
        let xs: Vec<f64> = sorted.iter().map(|r| r[0].as_f64().unwrap()).collect();
        let numbers = xs.iter().take_while(|x| !x.is_nan()).count();
        assert!(xs[numbers..].iter().all(|x| x.is_nan()), "{rows} rows: NaN before a number");
        assert!(numbers < rows, "{rows} rows hold a NaN");
        assert!(
            xs[..numbers].windows(2).all(|w| w[0] <= w[1]),
            "{rows} rows: numbers out of order"
        );
    }
}
