//! Incremental appends into an already-rendered layout.
//!
//! Re-rendering a whole table because a handful of rows arrived defeats the
//! point of an adaptive system: under live traffic, inserts must be absorbed
//! into the existing representation. [`append_records`] runs the *record
//! pipeline* (selection, projection, …) over just the new rows and writes
//! them through the renderer's own placement routine, so a grid cell,
//! partition, column group or single object is written the same way whether
//! its rows arrive in one render or in many appends. Grid cells and
//! partitions are found through an index of the layout's objects by cell
//! coordinate or label, so an append never visits the objects it does not
//! write — and on a fork ([`PhysicalLayout::fork_for_append`]) it forks only
//! the objects it writes.
//!
//! A levelled `lsm[...]` tier absorbs the new rows into its memtable
//! instead, leaving the base objects untouched.
//!
//! Shapes whose invariants cannot be maintained row-at-a-time — `fold`
//! (groups are single heap records), `prejoin` (needs the other table),
//! `limit`, explicit comprehensions, and vertical groups combined with
//! gridding/partitioning — report [`AppendOutcome::NeedsRebuild`] so the
//! caller can fall back to a full re-render.
//!
//! Appending unsorted rows invalidates any `orderby` claim the layout made,
//! so a successful append clears [`PhysicalLayout::order_list`]; scans that
//! request that order simply re-sort until the next full render restores the
//! native ordering.

use crate::pipeline::{self, TableProvider};
use crate::plan::PhysicalLayout;
use crate::render::place;
use crate::Result;
use rodentstore_algebra::expr::TransformKind;

/// What [`append_records`] did with the new rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppendOutcome {
    /// The rows were absorbed into the existing representation.
    Appended {
        /// Number of stored objects written to (existing plus newly created).
        objects_touched: usize,
        /// Number of pipelined rows appended (post-selection).
        rows_appended: usize,
    },
    /// The layout's shape cannot absorb rows incrementally; the caller must
    /// re-render from the canonical records. The string names the transform
    /// that forced the rebuild.
    NeedsRebuild(String),
}

fn needs(reason: &str) -> Result<AppendOutcome> {
    Ok(AppendOutcome::NeedsRebuild(reason.to_string()))
}

/// Why new rows cannot be written into `layout` without a full re-render,
/// or `None` when they can: the one rebuild rule, which [`append_records`]
/// acts on and [`estimate_append_pages`] prices. A levelled tier absorbs
/// rows whatever the base shape (fold, vertical+grid, …); only transforms
/// whose output cannot be computed from the new rows alone defeat it.
fn rebuild_reason(layout: &PhysicalLayout) -> Option<&'static str> {
    let whole_input = [
        (TransformKind::Prejoin, "prejoin"),
        (TransformKind::Limit, "limit"),
        (TransformKind::Comprehension, "comprehension"),
    ];
    if let Some((_, reason)) = whole_input
        .iter()
        .find(|(k, _)| layout.expr.contains_kind(*k))
    {
        return Some(reason);
    }
    let d = &layout.derived;
    if layout.lsm.is_some() {
        None
    } else if d.folded.is_some() {
        Some("fold")
    } else if !d.groups.is_empty() && (d.grid.is_some() || d.partitioned) {
        // Vertical groups combined with gridding/partitioning multiply the
        // object bookkeeping; only the pure shapes absorb rows in place.
        Some("vertical partition combined with grid/partition")
    } else {
        None
    }
}

/// Estimated pages written to absorb one batch of new rows — the write side
/// of the cost model, pricing the [`append_records`] rebuild rule so the
/// advisor and the executor can never disagree about what a shape pays
/// per insert. Shapes that reject incremental appends re-render the whole
/// layout (every page); a levelled tier absorbs a batch for a couple of
/// amortized run pages; in-place shapes touch roughly one tail page per
/// stored object.
pub fn estimate_append_pages(layout: &PhysicalLayout) -> usize {
    if rebuild_reason(layout).is_some() {
        layout.total_pages().max(1)
    } else if layout.lsm.is_some() {
        // Memtable absorb plus the amortized share of spills and compaction.
        2
    } else {
        layout.objects.len().max(1)
    }
}

/// Appends the rows supplied by `provider` (the *new* canonical rows of the
/// layout's base table, under the base table's name) into the rendered
/// representation, without touching the rows already stored.
pub fn append_records<P: TableProvider + ?Sized>(
    layout: &mut PhysicalLayout,
    provider: &P,
) -> Result<AppendOutcome> {
    if let Some(reason) = rebuild_reason(layout) {
        return needs(reason);
    }
    // Run the tuple-level pipeline over just the new rows: selection drops
    // non-qualifying tuples, projection reshapes them into the layout schema.
    let expr = layout.expr.clone();
    let (schema, new_rows) = pipeline::materialize(&expr, provider)?;
    if schema.field_names() != layout.schema.field_names() {
        return needs("schema drift");
    }
    let rows_appended = new_rows.len();
    let objects_touched = if rows_appended == 0 {
        0
    } else if layout.lsm.is_some() {
        // The tier spills into runs and compacts as thresholds are
        // crossed; the objects it reports are the runs it added. It is
        // taken out of the layout while it absorbs, since each run it seals
        // is built from the layout's own description.
        let mut lsm = layout.lsm.take().expect("checked above");
        let runs_before = lsm.runs.len();
        let absorbed = lsm.absorb(layout, new_rows);
        let added = lsm.runs.len().saturating_sub(runs_before);
        layout.lsm = Some(lsm);
        absorbed?;
        added
    } else {
        let Some(touched) = place(layout, new_rows)? else {
            return needs("unrecognized multi-object shape");
        };
        layout.rebuild_index()?;
        // Appended rows are not sorted into place; drop native-order claims
        // so ordered scans re-sort instead of returning wrongly ordered
        // results.
        layout.derived.orderings.clear();
        touched
    };
    layout.row_count += rows_appended;
    Ok(AppendOutcome::Appended {
        objects_touched,
        rows_appended,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::{render, RenderOptions};
    use crate::MemTableProvider;
    use rodentstore_algebra::comprehension::Condition;
    use rodentstore_algebra::schema::{Field, Schema};
    use rodentstore_algebra::types::DataType;
    use rodentstore_algebra::value::{Record, Value};
    use rodentstore_algebra::LayoutExpr;
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

    fn points(n: usize, offset: f64) -> Vec<Record> {
        (0..n)
            .map(|i| {
                vec![
                    Value::Float(offset + (i % 17) as f64),
                    Value::Float(offset + (i % 13) as f64),
                    Value::Int((i % 5) as i64),
                ]
            })
            .collect()
    }

    /// Renders `expr` over `initial`, appends `extra`, and checks the result
    /// equals rendering `expr` over the concatenation (as a multiset).
    fn check_append_matches_rerender(expr: LayoutExpr, initial: Vec<Record>, extra: Vec<Record>) {
        let pager = Arc::new(Pager::in_memory_with_page_size(1024));
        let provider = MemTableProvider::single(points_schema(), initial.clone());
        let mut layout = render(&expr, &provider, pager, RenderOptions::default()).unwrap();

        let extra_provider = MemTableProvider::single(points_schema(), extra.clone());
        let outcome = append_records(&mut layout, &extra_provider).unwrap();
        assert!(
            matches!(outcome, AppendOutcome::Appended { .. }),
            "expected append for {expr}, got {outcome:?}"
        );

        let mut all = initial;
        all.extend(extra);
        let reference = render(
            &expr,
            &MemTableProvider::single(points_schema(), all),
            Arc::new(Pager::in_memory_with_page_size(1024)),
            RenderOptions::default(),
        )
        .unwrap();

        assert_eq!(layout.row_count, reference.row_count, "{expr}");
        let fmt = |rows: Vec<Record>| {
            let mut out: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
            out.sort();
            out
        };
        assert_eq!(
            fmt(layout.scan(None, None).unwrap()),
            fmt(reference.scan(None, None).unwrap()),
            "{expr}"
        );
    }

    #[test]
    fn append_to_row_layout() {
        check_append_matches_rerender(LayoutExpr::table("Points"), points(200, 0.0), points(40, 3.0));
    }

    #[test]
    fn append_to_pax_layout() {
        check_append_matches_rerender(
            LayoutExpr::table("Points").pax_with(64),
            points(150, 0.0),
            points(30, 1.0),
        );
    }

    #[test]
    fn append_to_projected_layout_reshapes_rows() {
        check_append_matches_rerender(
            LayoutExpr::table("Points").project(["x", "y"]),
            points(120, 0.0),
            points(25, 2.0),
        );
    }

    #[test]
    fn append_to_grid_extends_and_creates_cells() {
        let expr = LayoutExpr::table("Points")
            .project(["x", "y"])
            .grid([("x", 4.0), ("y", 4.0)])
            .zorder();
        let pager = Arc::new(Pager::in_memory_with_page_size(1024));
        let provider = MemTableProvider::single(points_schema(), points(200, 0.0));
        let mut layout = render(&expr, &provider, pager, RenderOptions::default()).unwrap();
        let cells_before = layout.objects.len();

        // Rows far outside the original bounding box force new cells.
        let extra = MemTableProvider::single(points_schema(), points(50, 100.0));
        append_records(&mut layout, &extra).unwrap();
        assert!(layout.objects.len() > cells_before, "new cells created");
        assert_eq!(layout.row_count, 250);

        // Pruning still works across old and new cells.
        let pred = Condition::range("x", 100.0, 120.0);
        let far = layout.scan(None, Some(&pred)).unwrap();
        assert_eq!(far.len(), 50);
        let pruned = layout.estimate_scan_pages(None, Some(&pred));
        assert!(pruned < layout.total_pages() as u64);

        // And the full contents match a from-scratch render.
        check_append_matches_rerender(expr, points(200, 0.0), points(50, 100.0));
    }

    #[test]
    fn grid_scans_probe_the_cells_a_linear_pass_would_pick() {
        let expr = LayoutExpr::table("Points")
            .grid([("x", 0.7), ("y", 1.3)])
            .zorder();
        let pager = Arc::new(Pager::in_memory_with_page_size(1024));
        let provider = MemTableProvider::single(points_schema(), points(300, 0.1));
        let mut layout = render(&expr, &provider, pager, RenderOptions::default()).unwrap();
        // Cells below the origin (clamped coordinates) and far above it.
        for offset in [-9.3, 40.0] {
            let extra = MemTableProvider::single(points_schema(), points(40, offset));
            append_records(&mut layout, &extra).unwrap();
        }
        assert!(layout.objects.len() > 200, "{} cells", layout.objects.len());
        let linear = |pred: &Condition| {
            let ranges = crate::plan::extract_ranges(pred);
            (0..layout.objects.len())
                .filter(|&i| layout.objects[i].cell.as_ref().unwrap().intersects(&ranges))
                .collect::<Vec<_>>()
        };
        // Query bounds on the cells' own edges, where rounding decides.
        let mut edges: Vec<f64> = layout
            .objects
            .iter()
            .flat_map(|o| {
                let dims = &o.cell.as_ref().unwrap().dims;
                [dims[0].1, dims[0].2, dims[1].1, dims[1].2]
            })
            .collect();
        edges.sort_by(f64::total_cmp);
        edges.dedup();
        let edges: Vec<f64> = edges.iter().step_by(3).copied().collect();
        let mut probed = 0;
        for &lo in &edges {
            for &hi in edges.iter().filter(|&&hi| hi >= lo).take(12) {
                for pred in [
                    Condition::range("x", lo, hi).and(Condition::range("y", lo, hi)),
                    Condition::range("x", lo, lo).and(Condition::range("y", hi, hi)),
                    Condition::range("x", lo, hi),
                ] {
                    let got = layout.objects_to_read(None, Some(&pred));
                    assert_eq!(got, linear(&pred), "{pred:?}");
                    let ranges = crate::plan::extract_ranges(&pred);
                    probed +=
                        usize::from(!got.is_empty() && layout.cells_meeting(&ranges).is_some());
                }
            }
        }
        assert!(probed > 100, "{probed} non-empty probes");
    }

    #[test]
    fn append_to_partitioned_layout_routes_by_label() {
        check_append_matches_rerender(
            LayoutExpr::table("Points")
                .partition(rodentstore_algebra::expr::PartitionBy::Field("tag".into())),
            points(100, 0.0),
            points(20, 1.0),
        );
    }

    #[test]
    fn append_applies_selection() {
        let expr = LayoutExpr::table("Points").select(Condition::range("x", 0.0, 8.0));
        let pager = Arc::new(Pager::in_memory_with_page_size(1024));
        let provider = MemTableProvider::single(points_schema(), points(100, 0.0));
        let mut layout = render(&expr, &provider, pager, RenderOptions::default()).unwrap();
        let before = layout.row_count;
        // Every extra row has x ≥ 50, so selection filters all of them out.
        let extra = MemTableProvider::single(points_schema(), points(30, 50.0));
        let outcome = append_records(&mut layout, &extra).unwrap();
        assert_eq!(
            outcome,
            AppendOutcome::Appended {
                objects_touched: 0,
                rows_appended: 0
            }
        );
        assert_eq!(layout.row_count, before);
    }

    #[test]
    fn append_clears_stale_order_claims() {
        let expr = LayoutExpr::table("Points").order_by(["x"]);
        let pager = Arc::new(Pager::in_memory_with_page_size(1024));
        let provider = MemTableProvider::single(points_schema(), points(80, 0.0));
        let mut layout = render(&expr, &provider, pager, RenderOptions::default()).unwrap();
        assert!(!layout.order_list().is_empty());
        let extra = MemTableProvider::single(points_schema(), points(10, -5.0));
        append_records(&mut layout, &extra).unwrap();
        assert!(
            layout.order_list().is_empty(),
            "appending unsorted rows must drop native-order claims"
        );
    }

    #[test]
    fn vertical_partitions_append_in_place() {
        let expr = LayoutExpr::table("Points").vertical([vec!["x", "y"], vec!["tag"]]);
        let pager = Arc::new(Pager::in_memory_with_page_size(1024));
        let provider = MemTableProvider::single(points_schema(), points(60, 0.0));
        let mut layout = render(&expr, &provider, pager, RenderOptions::default()).unwrap();
        let extra_rows = points(7, 100.0);
        let extra = MemTableProvider::single(points_schema(), extra_rows.clone());
        let outcome = append_records(&mut layout, &extra).unwrap();
        assert_eq!(
            outcome,
            AppendOutcome::Appended {
                objects_touched: 2,
                rows_appended: 7,
            }
        );
        assert_eq!(layout.row_count, 67);
        // Every object carries the same (grown) row set, and scans stitch
        // the appended rows back whole.
        for obj in &layout.objects {
            assert_eq!(obj.row_count, 67);
        }
        let rows = layout.scan(None, None).unwrap();
        assert_eq!(rows.len(), 67);
        assert_eq!(rows[60], extra_rows[0]);
        assert_eq!(rows[66], extra_rows[6]);
    }

    #[test]
    fn unfriendly_shapes_request_rebuild() {
        let cases = vec![
            LayoutExpr::table("Points")
                .vertical([vec!["x", "y"], vec!["tag"]])
                .partition(rodentstore_algebra::expr::PartitionBy::Field("tag".into())),
            LayoutExpr::table("Points").fold(["tag"], ["x", "y"]),
            LayoutExpr::table("Points").limit(10),
        ];
        for expr in cases {
            let pager = Arc::new(Pager::in_memory_with_page_size(1024));
            let provider = MemTableProvider::single(points_schema(), points(50, 0.0));
            let mut layout = render(&expr, &provider, pager, RenderOptions::default()).unwrap();
            let extra = MemTableProvider::single(points_schema(), points(5, 0.0));
            let outcome = append_records(&mut layout, &extra).unwrap();
            assert!(
                matches!(outcome, AppendOutcome::NeedsRebuild(_)),
                "expected rebuild for {expr}, got {outcome:?}"
            );
        }
    }
}
