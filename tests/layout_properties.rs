//! Property-based integration tests: whatever layout the storage algebra
//! declares, the logical contents of the table must not change, and textual
//! expressions must round-trip through the parser.

use proptest::prelude::*;
use rodentstore::{Database, ScanRequest, Value};
use rodentstore_algebra::comprehension::{CmpOp, Condition, ElemExpr};
use rodentstore_algebra::{parse, DataType, Field, LayoutExpr, Schema};
use rodentstore_layout::{render, MemTableProvider, RenderOptions};
use rodentstore_storage::pager::Pager;
use std::sync::Arc;

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
    ]
}

/// Layout shapes that retain every field of `Points`, as algebra text —
/// covering the plain heap, PAX, sort orders, column groups, compression,
/// the `index[...]` probe path, and the levelled `lsm[...]` tier.
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
/// several (and, for `chunk[..]` under a group, chunks of unequal counts).
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
    ]
}

/// Predicates for the column-chunk source: ranges on any of the three
/// fields (so, against a random projection and partition, on a projected
/// field, on one that is not, and on one living in another object; with
/// bounds of the field's own type and, for `tag`, of another), a
/// disjunction (borrowed, but prunes nothing), a negation, and a
/// field-against-field comparison, which has no borrowed form and takes the
/// owned fallback.
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

/// Predicates over the fields every generated layout retains (`x`, `y`).
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
    ]
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
        let provider = MemTableProvider::single(points_schema(), records);
        let pager = Arc::new(Pager::in_memory_with_page_size(512));
        let rendered = render(&layout, &provider, pager, RenderOptions::default()).unwrap();

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

    /// The zero-copy read path is invisible to results: for every layout
    /// shape (including `index[...]` probes and the levelled `lsm[...]`
    /// tier), a projected + filtered scan and a windowed-aggregate pushdown
    /// on the borrowed-frame path return exactly what the forced-copy
    /// fallback returns, and both match an owned decode-everything reference
    /// computed from the full scan in memory.
    #[test]
    fn borrowed_frame_path_matches_forced_copy_reference(
        records in proptest::collection::vec(record_strategy(), 1..150),
        layout in full_field_layout_text(),
        predicate in predicate_strategy(),
        width in 1.0f64..8.0,
    ) {
        use rodentstore::{WindowAccumulator, WindowedAggregate};

        let db = Database::with_page_size(512);
        db.create_table(points_schema()).unwrap();
        db.insert("Points", records).unwrap();
        db.apply_layout_text("Points", layout).unwrap();

        // Owned decode-everything reference, read through the copy fallback.
        db.set_copy_reads(true);
        let full = db.scan("Points", &ScanRequest::all()).unwrap();
        let schema = points_schema();
        let spec = WindowedAggregate::new("tag", width, "x");
        let mut acc = WindowAccumulator::new(&spec);
        let mut expected: Vec<String> = Vec::new();
        for row in &full {
            if predicate.eval(&schema, row).unwrap() {
                expected.push(format!("{:?}", [&row[0], &row[2]]));
                acc.fold(row[2].as_f64().unwrap(), row[0].as_f64().unwrap());
            }
        }
        let reference_windows = acc.finish();
        let request = ScanRequest::all().fields(["x", "tag"]).predicate(predicate);
        let copied = db.scan("Points", &request).unwrap();
        let copied_windows = db.scan_aggregate("Points", &spec, Some(&request.predicate.clone().unwrap())).unwrap();

        // The borrowed-frame path must be byte-for-byte the same answer.
        db.set_copy_reads(false);
        let borrowed = db.scan("Points", &request).unwrap();
        let borrowed_windows = db.scan_aggregate("Points", &spec, Some(&request.predicate.clone().unwrap())).unwrap();
        prop_assert_eq!(&borrowed, &copied, "scan rows diverge on layout {}", layout);
        prop_assert_eq!(&borrowed_windows, &copied_windows, "aggregate diverges on layout {}", layout);

        // Both match the in-memory reference as a multiset (index probes may
        // emit rows in key order rather than heap order).
        let mut got: Vec<String> = borrowed.iter().map(|r| format!("{:?}", [&r[0], &r[1]])).collect();
        got.sort();
        expected.sort();
        prop_assert_eq!(got, expected, "layout {}", layout);
        // Float sums may differ in the last ulp when the access path folds in
        // a different row order than the reference; everything else is exact.
        prop_assert_eq!(borrowed_windows.len(), reference_windows.len(), "layout {}", layout);
        for (b, r) in borrowed_windows.iter().zip(&reference_windows) {
            prop_assert_eq!(b.bucket_start, r.bucket_start, "layout {}", layout);
            prop_assert_eq!(b.count, r.count, "layout {}", layout);
            prop_assert_eq!(b.min, r.min, "layout {}", layout);
            prop_assert_eq!(b.max, r.max, "layout {}", layout);
            prop_assert!(
                (b.sum - r.sum).abs() <= 1e-9 * b.sum.abs().max(1.0),
                "bucket sum diverges on layout {}: {} vs {}", layout, b.sum, r.sum
            );
        }
    }

    /// The column-chunk row source is a drop-in for the owned decode: over
    /// every column-block and vertical layout, codec, projection (empty and
    /// duplicate ones too) and predicate shape, `scan`, `scan_iter` with a
    /// `rewind`, `scan_aggregate` and `get_element` return what filtering,
    /// projecting and folding the full decode in memory returns — same rows,
    /// same order, same bits — on shared frames and on forced copies.
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
        let pager = Arc::new(Pager::in_memory_with_page_size(512));
        let rendered = render(
            &parse(layout).unwrap(),
            &provider,
            Arc::clone(&pager),
            RenderOptions::default(),
        )
        .unwrap();
        let schema = points_schema();

        // The full decode is itself pinned to what was inserted wherever the
        // codecs are lossless: row count, order, and the integer column
        // (`Null` is stored as the zero sentinel).
        let full = rendered.scan(None, None).unwrap();
        prop_assert_eq!(full.len(), records.len());
        for (got, want) in full.iter().zip(&records) {
            prop_assert_eq!(got[2].as_i64(), Some(want[2].as_i64().unwrap_or(0)), "layout {}", layout);
        }

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

        for copy in [false, true] {
            pager.set_force_copy(copy);
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

        let schema = points_schema();
        let indices = schema.indices_of(&fields).unwrap();
        let expected: Vec<Vec<Value>> = batch1
            .iter()
            .chain(&batch2)
            .chain(&batch3)
            .filter(|row| predicate.eval(&schema, row).unwrap())
            .map(|row| indices.iter().map(|&i| row[i].clone()).collect())
            .collect();
        let request = ScanRequest::all().fields(fields).predicate(predicate);
        prop_assert_eq!(&db.scan("Points", &request).unwrap(), &expected, "layout {}", layout);
    }

    /// Every generated layout expression round-trips through its textual form.
    #[test]
    fn textual_syntax_round_trips(layout in layout_strategy()) {
        let text = layout.to_string();
        let reparsed = parse(&text).unwrap();
        prop_assert_eq!(reparsed.to_string(), text);
    }
}
