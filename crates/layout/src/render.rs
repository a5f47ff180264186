//! The layout renderer: from algebra expression to stored objects.
//!
//! `render` is the concrete implementation of the paper's *algebra
//! interpreter* (Section 4.2): it validates the expression, materializes the
//! record pipeline, chooses a structural strategy, and writes heap-file
//! objects through the pager:
//!
//! * **grid** (`grid`, optionally `zorder`) — one object per cell, cells
//!   written in space-filling-curve order so spatially adjacent cells are
//!   adjacent on disk;
//! * **vertical partition / column-major** — one object per column group,
//!   encoded as column blocks (with any requested compression);
//! * **PAX** — a single object whose heap records are per-attribute
//!   mini-pages;
//! * **fold** — one heap record per key group with the nested values
//!   attached;
//! * **horizontal partition** — one full-width object per partition;
//! * **row-major** (the default canonical representation) — a single object
//!   with one heap record per tuple.

use crate::pipeline::{self, TableProvider};
use crate::plan::{CellBounds, ObjectEncoding, PhysicalLayout, StoredObject};
use crate::rowcodec::encode_record;
use crate::{LayoutError, Result};
pub use crate::pipeline::MemTableProvider;
use rodentstore_algebra::expr::{CodecSpec, GridDim, LayoutExpr, PartitionBy};
use rodentstore_algebra::validate::{check_with, DerivedLayout};
use rodentstore_algebra::value::{Record, Value};
use rodentstore_compress::CodecKind;
use rodentstore_sfc::{order_cells, Curve};
use rodentstore_storage::heap::HeapFile;
use rodentstore_storage::pager::Pager;
use std::collections::HashMap;
use std::sync::Arc;

/// Options controlling how the renderer writes objects.
#[derive(Debug, Clone)]
pub struct RenderOptions {
    /// Name for the layout; defaults to `<table>__<expression kind>`.
    pub name: Option<String>,
    /// Rows per column block for column-block encodings.
    pub block_rows: usize,
    /// Space-filling curve used when the expression requests `zorder`.
    pub curve: Curve,
    /// Memtable spill threshold (rows) for freshly rendered `lsm` tiers.
    /// Tests shrink it to exercise multi-level shapes with few rows;
    /// reattached tiers keep whatever was persisted.
    pub lsm_memtable_cap: usize,
    /// Runs per level before a freshly rendered `lsm` tier compacts it.
    pub lsm_fanout: usize,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            name: None,
            block_rows: 1024,
            curve: Curve::ZOrder,
            lsm_memtable_cap: crate::lsm::DEFAULT_MEMTABLE_CAP,
            lsm_fanout: crate::lsm::DEFAULT_FANOUT,
        }
    }
}

fn codec_kind(spec: CodecSpec) -> CodecKind {
    match spec {
        CodecSpec::Delta => CodecKind::Delta,
        CodecSpec::Rle => CodecKind::Rle,
        CodecSpec::Dictionary => CodecKind::Dictionary,
        CodecSpec::BitPack => CodecKind::BitPack,
        CodecSpec::FrameOfReference => CodecKind::FrameOfReference,
    }
}

pub(crate) fn codec_map(derived: &DerivedLayout) -> HashMap<String, CodecKind> {
    derived
        .codecs
        .iter()
        .map(|(field, spec)| (field.clone(), codec_kind(*spec)))
        .collect()
}

fn find_partition(expr: &LayoutExpr) -> Option<&PartitionBy> {
    if let LayoutExpr::Partition { by, .. } = expr {
        return Some(by);
    }
    for child in expr.children() {
        if let Some(p) = find_partition(child) {
            return Some(p);
        }
    }
    None
}

/// Buckets rows by the label of their horizontal partition under the
/// expression's partitioning rule: labels in first-seen order, rows in
/// arrival order within a label. A render and an append both route rows
/// this way.
pub(crate) fn partition_rows(
    expr: &LayoutExpr,
    schema: &rodentstore_algebra::Schema,
    rows: impl IntoIterator<Item = Record>,
) -> Result<Vec<(String, Vec<Record>)>> {
    let by = find_partition(expr).ok_or_else(|| {
        LayoutError::Unsupported("partitioned layout without a partition transform".into())
    })?;
    let mut buckets: Vec<(String, Vec<Record>)> = Vec::new();
    for r in rows {
        let label = match by {
            PartitionBy::Field(field) => r[schema.index_of(field)?].to_string(),
            PartitionBy::Stride(field, stride) => {
                let v = r[schema.index_of(field)?].as_f64().unwrap_or(0.0);
                format!("{}", (v / stride).floor() as i64)
            }
            PartitionBy::Predicate(cond) if cond.eval(schema, &r)? => "match".to_string(),
            PartitionBy::Predicate(_) => "rest".to_string(),
        };
        match buckets.iter_mut().find(|(l, _)| *l == label) {
            Some((_, bucket)) => bucket.push(r),
            None => buckets.push((label, vec![r])),
        }
    }
    Ok(buckets)
}

/// Renders a storage-algebra expression into a [`PhysicalLayout`], writing
/// all pages through `pager`.
pub fn render<P: TableProvider + ?Sized>(
    expr: &LayoutExpr,
    provider: &P,
    pager: Arc<Pager>,
    options: RenderOptions,
) -> Result<PhysicalLayout> {
    let derived = check_with(expr, &pipeline::ProviderSchemas(provider))?;
    let (_, records) = pipeline::materialize(expr, provider)?;
    let schema = derived.schema.clone();
    let name = options.name.clone().unwrap_or_else(|| {
        format!(
            "{}__{:?}",
            expr.base_tables().join("_"),
            expr.kind()
        )
        .to_lowercase()
    });
    let codecs = codec_map(&derived);
    let block_rows = derived.chunk.unwrap_or(options.block_rows).max(1);
    let row_count = records.len();

    let mut objects: Vec<StoredObject> = Vec::new();

    if let Some(dims) = derived.grid.clone() {
        objects = render_grid(
            &name, &records, &schema, &derived, &dims, &codecs, block_rows, &options, &pager,
        )?;
    } else if !derived.groups.is_empty() {
        // Vertical partitioning / full column decomposition.
        for (g, group) in derived.groups.iter().enumerate() {
            let indices: Vec<usize> = group
                .iter()
                .map(|f| schema.index_of(f).map_err(LayoutError::Algebra))
                .collect::<Result<_>>()?;
            let group_rows: Vec<Record> = records
                .iter()
                .map(|r| indices.iter().map(|&i| r[i].clone()).collect())
                .collect();
            let mut obj = StoredObject::new(
                format!("{name}/group{g}[{}]", group.join(",")),
                group.clone(),
                HeapFile::create(format!("{name}.g{g}"), Arc::clone(&pager)),
                ObjectEncoding::ColumnBlocks { block_rows },
                codecs.clone(),
                None,
            );
            obj.write_rows(&group_rows)?;
            objects.push(obj);
        }
    } else if let Some(pax) = &derived.pax {
        let mut obj = StoredObject::new(
            format!("{name}/pax"),
            schema.field_names(),
            HeapFile::create(format!("{name}.pax"), Arc::clone(&pager)),
            ObjectEncoding::ColumnBlocks {
                block_rows: pax.records_per_page,
            },
            codecs.clone(),
            None,
        );
        obj.write_rows(&records)?;
        objects.push(obj);
    } else if let Some((key, values)) = derived.folded.clone() {
        objects.push(render_folded(
            &name, &records, &schema, &key, &values, &pager,
        )?);
    } else if derived.partitioned {
        objects = render_partitions(&name, expr, &records, &schema, &pager)?;
    } else if !codecs.is_empty() {
        // Compression without an explicit structural transform: store the
        // whole relation as column blocks so the codecs have a columnar
        // substrate to work on.
        let mut obj = StoredObject::new(
            format!("{name}/compressed"),
            schema.field_names(),
            HeapFile::create(format!("{name}.cb"), Arc::clone(&pager)),
            ObjectEncoding::ColumnBlocks { block_rows },
            codecs.clone(),
            None,
        );
        obj.write_rows(&records)?;
        objects.push(obj);
    } else {
        // Canonical row-major representation.
        let mut obj = StoredObject::new(
            format!("{name}/rows"),
            schema.field_names(),
            HeapFile::create(format!("{name}.rows"), Arc::clone(&pager)),
            ObjectEncoding::Rows,
            HashMap::new(),
            None,
        );
        obj.write_rows(&records)?;
        objects.push(obj);
    }

    let mut layout = PhysicalLayout::new(
        name,
        expr.clone(),
        schema,
        derived,
        objects,
        row_count,
        pager,
    );
    if let Some(fields) = layout.derived.index.clone() {
        layout.index = Some(crate::index::build_index(&layout, &fields)?);
    }
    if let Some(key) = layout.derived.lsm.clone() {
        // A render absorbs every known tuple into the base, so the tier
        // starts empty; appends fill it from here on.
        layout.lsm = Some(crate::lsm::LsmState::with_params(
            key,
            options.lsm_memtable_cap,
            options.lsm_fanout,
        ));
    }
    Ok(layout)
}

/// Grid strategy: bucket tuples into cells, order the cells along the
/// requested curve (or a deterministic hash order when no `zorder` was
/// requested, mirroring the paper's hash-table cell directory), and write one
/// object per cell.
#[allow(clippy::too_many_arguments)]
fn render_grid(
    name: &str,
    records: &[Record],
    schema: &rodentstore_algebra::Schema,
    derived: &DerivedLayout,
    dims: &[GridDim],
    codecs: &HashMap<String, CodecKind>,
    block_rows: usize,
    options: &RenderOptions,
    pager: &Arc<Pager>,
) -> Result<Vec<StoredObject>> {
    let dim_indices: Vec<usize> = dims
        .iter()
        .map(|d| schema.index_of(&d.field).map_err(LayoutError::Algebra))
        .collect::<Result<_>>()?;

    // Per-dimension origin = minimum value, so cell coordinates are dense.
    let mut origins = vec![f64::INFINITY; dims.len()];
    for r in records {
        for (d, &idx) in dim_indices.iter().enumerate() {
            if let Some(v) = r[idx].as_f64() {
                origins[d] = origins[d].min(v);
            }
        }
    }
    for origin in &mut origins {
        if !origin.is_finite() {
            *origin = 0.0;
        }
    }

    // Bucket records into cells.
    let mut cells: HashMap<Vec<u32>, Vec<Record>> = HashMap::new();
    for r in records {
        let mut coords = Vec::with_capacity(dims.len());
        for (d, &idx) in dim_indices.iter().enumerate() {
            let v = r[idx].as_f64().unwrap_or(origins[d]);
            let c = ((v - origins[d]) / dims[d].stride).floor().max(0.0) as u32;
            coords.push(c);
        }
        cells.entry(coords).or_default().push(r.clone());
    }

    // Choose the cell storage order.
    let mut coords: Vec<Vec<u32>> = cells.keys().cloned().collect();
    coords.sort(); // deterministic base order
    let order: Vec<usize> = if derived.zordered {
        order_cells(&coords, options.curve)
    } else {
        // No zorder: the paper's N3 tracks cells with a hash table, i.e. an
        // essentially arbitrary order. Use a deterministic pseudo-random
        // permutation so benchmarks are reproducible.
        let mut idx: Vec<usize> = (0..coords.len()).collect();
        idx.sort_by_key(|&i| {
            coords[i]
                .iter()
                .fold(0u64, |acc, &c| acc.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(c as u64))
        });
        idx
    };

    let encoding = if codecs.is_empty() {
        ObjectEncoding::Rows
    } else {
        ObjectEncoding::ColumnBlocks { block_rows }
    };

    let mut objects = Vec::with_capacity(coords.len());
    for &ci in &order {
        let coord = &coords[ci];
        let cell_records = &cells[coord];
        let bounds = CellBounds {
            dims: dims
                .iter()
                .zip(coord.iter())
                .enumerate()
                .map(|(d, (dim, &c))| {
                    let lo = origins[d] + c as f64 * dim.stride;
                    (dim.field.clone(), lo, lo + dim.stride)
                })
                .collect(),
            coords: coord.clone(),
        };
        let mut obj = StoredObject::new(
            format!("{name}/cell{coord:?}"),
            schema.field_names(),
            HeapFile::create(format!("{name}.cell{coord:?}"), Arc::clone(pager)),
            encoding.clone(),
            codecs.clone(),
            Some(bounds),
        );
        obj.write_rows(cell_records)?;
        objects.push(obj);
    }
    Ok(objects)
}

/// Fold strategy: one heap record per key group, with the nested values
/// stored as a list alongside the key — `[Area, [[Zip, Addr], …]]`.
fn render_folded(
    name: &str,
    records: &[Record],
    schema: &rodentstore_algebra::Schema,
    key: &[String],
    values: &[String],
    pager: &Arc<Pager>,
) -> Result<StoredObject> {
    let key_indices: Vec<usize> = key
        .iter()
        .map(|f| schema.index_of(f).map_err(LayoutError::Algebra))
        .collect::<Result<_>>()?;
    let value_indices: Vec<usize> = values
        .iter()
        .map(|f| schema.index_of(f).map_err(LayoutError::Algebra))
        .collect::<Result<_>>()?;

    let heap = HeapFile::create(format!("{name}.fold"), Arc::clone(pager));
    // Records arrive grouped by key (the pipeline sorts on the fold key).
    let mut current_key: Option<Vec<Value>> = None;
    let mut nested: Vec<Value> = Vec::new();
    let flush = |key_vals: &Vec<Value>, nested: &mut Vec<Value>| -> Result<()> {
        let mut folded: Record = key_vals.clone();
        folded.push(Value::List(std::mem::take(nested)));
        heap.append(&encode_record(&folded))?;
        Ok(())
    };
    for r in records {
        let key_vals: Vec<Value> = key_indices.iter().map(|&i| r[i].clone()).collect();
        let value_vals: Vec<Value> = value_indices.iter().map(|&i| r[i].clone()).collect();
        match &current_key {
            Some(k) if *k == key_vals => nested.push(Value::List(value_vals)),
            Some(k) => {
                let prev = k.clone();
                flush(&prev, &mut nested)?;
                nested.push(Value::List(value_vals));
                current_key = Some(key_vals);
            }
            None => {
                nested.push(Value::List(value_vals));
                current_key = Some(key_vals);
            }
        }
    }
    if let Some(k) = &current_key {
        flush(k, &mut nested)?;
    }
    heap.flush()?;

    let mut obj = StoredObject::new(
        format!("{name}/folded"),
        schema.field_names(),
        heap,
        ObjectEncoding::Folded {
            key_fields: key.len(),
        },
        HashMap::new(),
        None,
    );
    obj.row_count = records.len();
    Ok(obj)
}

/// Horizontal partitioning: one full-width row object per partition.
fn render_partitions(
    name: &str,
    expr: &LayoutExpr,
    records: &[Record],
    schema: &rodentstore_algebra::Schema,
    pager: &Arc<Pager>,
) -> Result<Vec<StoredObject>> {
    let buckets = partition_rows(expr, schema, records.iter().cloned())?;
    let mut objects = Vec::with_capacity(buckets.len());
    for (p, (label, rows)) in buckets.iter().enumerate() {
        let mut obj = StoredObject::new(
            format!("{name}/part{p}={label}"),
            schema.field_names(),
            HeapFile::create(format!("{name}.p{p}"), Arc::clone(pager)),
            ObjectEncoding::Rows,
            HashMap::new(),
            None,
        );
        obj.write_rows(rows)?;
        objects.push(obj);
    }
    Ok(objects)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodentstore_algebra::comprehension::Condition;
    use rodentstore_algebra::schema::{Field, Schema};
    use rodentstore_algebra::types::DataType;

    fn traces_schema() -> Schema {
        Schema::new(
            "Traces",
            vec![
                Field::new("t", DataType::Timestamp),
                Field::new("lat", DataType::Float),
                Field::new("lon", DataType::Float),
                Field::new("id", DataType::String),
            ],
        )
    }

    /// A deterministic synthetic trace: `n` observations of `cars` cars doing
    /// small random-ish walks in a 1°×1° box.
    fn traces_provider(n: usize, cars: usize) -> MemTableProvider {
        let mut records = Vec::with_capacity(n);
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut positions: Vec<(f64, f64)> = (0..cars)
            .map(|i| (42.0 + (i as f64 * 0.137) % 1.0, -71.0 + (i as f64 * 0.211) % 1.0))
            .collect();
        for i in 0..n {
            let car = i % cars;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let dx = ((state >> 20) % 1000) as f64 / 1_000_000.0 - 0.0005;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let dy = ((state >> 20) % 1000) as f64 / 1_000_000.0 - 0.0005;
            positions[car].0 = (positions[car].0 + dx).clamp(42.0, 43.0);
            positions[car].1 = (positions[car].1 + dy).clamp(-71.0, -70.0);
            records.push(vec![
                Value::Timestamp(i as i64),
                Value::Float(positions[car].0),
                Value::Float(positions[car].1),
                Value::Str(format!("car-{car}")),
            ]);
        }
        MemTableProvider::single(traces_schema(), records)
    }

    fn pager() -> Arc<Pager> {
        Arc::new(Pager::in_memory_with_page_size(4096))
    }

    fn spatial_query() -> Condition {
        Condition::range("lat", 42.40, 42.45).and(Condition::range("lon", -70.60, -70.55))
    }

    #[test]
    fn row_layout_round_trips_all_records() {
        let provider = traces_provider(500, 5);
        let expr = LayoutExpr::table("Traces");
        let layout = render(&expr, &provider, pager(), RenderOptions::default()).unwrap();
        assert_eq!(layout.row_count, 500);
        let rows = layout.scan(None, None).unwrap();
        assert_eq!(rows.len(), 500);
        assert_eq!(rows[0].len(), 4);
        // getElement matches scan order.
        assert_eq!(layout.get_element(42, None).unwrap(), rows[42]);
    }

    #[test]
    fn column_layout_reads_fewer_pages_for_projections() {
        let provider = traces_provider(2000, 10);
        let p_row = pager();
        let row = render(&LayoutExpr::table("Traces"), &provider, Arc::clone(&p_row), RenderOptions::default()).unwrap();
        let p_col = pager();
        let col = render(
            &LayoutExpr::table("Traces").columns(["t", "lat", "lon", "id"]),
            &provider,
            Arc::clone(&p_col),
            RenderOptions::default(),
        )
        .unwrap();
        let wanted = vec!["lat".to_string()];
        let row_pages = row.estimate_scan_pages(Some(&wanted), None);
        let col_pages = col.estimate_scan_pages(Some(&wanted), None);
        assert!(
            col_pages * 2 < row_pages,
            "column projection should read far fewer pages ({col_pages} vs {row_pages})"
        );
        // And the data still round-trips.
        let lats = col.scan(Some(&wanted), None).unwrap();
        assert_eq!(lats.len(), 2000);
        assert!(lats.iter().all(|r| r.len() == 1));
    }

    #[test]
    fn grid_layout_prunes_cells_for_spatial_queries() {
        let provider = traces_provider(5000, 20);
        let p_row = pager();
        let row = render(
            &LayoutExpr::table("Traces").project(["lat", "lon"]),
            &provider,
            Arc::clone(&p_row),
            RenderOptions::default(),
        )
        .unwrap();
        let p_grid = pager();
        let grid_expr = LayoutExpr::table("Traces")
            .project(["lat", "lon"])
            .grid([("lat", 0.05), ("lon", 0.05)]);
        let grid = render(&grid_expr, &provider, Arc::clone(&p_grid), RenderOptions::default()).unwrap();
        assert!(grid.is_gridded());

        let query = spatial_query();
        let full = row.estimate_scan_pages(None, Some(&query));
        let pruned = grid.estimate_scan_pages(None, Some(&query));
        assert!(
            pruned < full,
            "grid should prune pages ({pruned} vs {full})"
        );

        // Both layouts return the same matching tuples (as multisets).
        let mut a = row.scan(None, Some(&query)).unwrap();
        let mut b = grid.scan(None, Some(&query)).unwrap();
        a.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
        b.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
        assert_eq!(a, b);
    }

    #[test]
    fn zorder_reduces_seeks_for_spatial_queries() {
        let provider = traces_provider(5000, 20);
        let base = LayoutExpr::table("Traces")
            .project(["lat", "lon"])
            .grid([("lat", 0.02), ("lon", 0.02)]);

        let p_plain = pager();
        let plain = render(&base.clone(), &provider, Arc::clone(&p_plain), RenderOptions::default()).unwrap();
        let p_z = pager();
        let zordered = render(&base.zorder(), &provider, Arc::clone(&p_z), RenderOptions::default()).unwrap();

        let query = Condition::range("lat", 42.3, 42.6).and(Condition::range("lon", -70.7, -70.4));
        p_plain.stats().reset();
        plain.scan(None, Some(&query)).unwrap();
        let seeks_plain = p_plain.stats().snapshot().seeks;
        p_z.stats().reset();
        zordered.scan(None, Some(&query)).unwrap();
        let seeks_z = p_z.stats().snapshot().seeks;
        assert!(
            seeks_z <= seeks_plain,
            "z-order should not need more seeks ({seeks_z} vs {seeks_plain})"
        );
    }

    #[test]
    fn delta_compression_shrinks_grid_cells() {
        let provider = traces_provider(4000, 8);
        let base = LayoutExpr::table("Traces")
            .order_by(["t"])
            .group_by(["id"])
            .project(["lat", "lon"])
            .grid([("lat", 0.05), ("lon", 0.05)])
            .zorder();
        let p_plain = pager();
        let plain = render(&base.clone(), &provider, Arc::clone(&p_plain), RenderOptions::default()).unwrap();
        let p_delta = pager();
        let delta = render(&base.delta(["lat", "lon"]), &provider, Arc::clone(&p_delta), RenderOptions::default()).unwrap();
        assert!(
            delta.total_pages() < plain.total_pages(),
            "delta ({}) should use fewer pages than plain ({})",
            delta.total_pages(),
            plain.total_pages()
        );
        // Values still round-trip within quantization error.
        let a = plain.scan(None, None).unwrap();
        let b = delta.scan(None, None).unwrap();
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn pax_layout_round_trips() {
        let provider = traces_provider(1000, 4);
        let layout = render(
            &LayoutExpr::table("Traces").pax_with(128),
            &provider,
            pager(),
            RenderOptions::default(),
        )
        .unwrap();
        let rows = layout.scan(None, None).unwrap();
        assert_eq!(rows.len(), 1000);
        assert_eq!(rows[0].len(), 4);
    }

    #[test]
    fn folded_layout_unnests_on_read() {
        let schema = Schema::new(
            "T",
            vec![
                Field::new("Zip", DataType::Int),
                Field::new("Area", DataType::Int),
                Field::new("Addr", DataType::String),
            ],
        );
        let records = vec![
            vec![Value::Int(2139), Value::Int(617), Value::Str("Vassar".into())],
            vec![Value::Int(10001), Value::Int(212), Value::Str("5th".into())],
            vec![Value::Int(2115), Value::Int(617), Value::Str("Fenway".into())],
        ];
        let provider = MemTableProvider::single(schema, records);
        let layout = render(
            &LayoutExpr::table("T").fold(["Area"], ["Zip", "Addr"]),
            &provider,
            pager(),
            RenderOptions::default(),
        )
        .unwrap();
        let rows = layout.scan(None, None).unwrap();
        assert_eq!(rows.len(), 3);
        // Folded layout groups by Area; unnested rows come back grouped.
        let areas: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(areas, vec![212, 617, 617]);
        // Fewer heap records than rows (one per group).
        assert_eq!(layout.objects[0].heap.record_count(), 2);
    }

    #[test]
    fn horizontal_partition_by_field() {
        let provider = traces_provider(600, 3);
        let layout = render(
            &LayoutExpr::table("Traces").partition(PartitionBy::Field("id".into())),
            &provider,
            pager(),
            RenderOptions::default(),
        )
        .unwrap();
        assert_eq!(layout.objects.len(), 3);
        assert_eq!(layout.scan(None, None).unwrap().len(), 600);
        assert!(!layout.is_vertically_partitioned());
    }

    #[test]
    fn predicates_on_non_grid_fields_still_filter_correctly() {
        let provider = traces_provider(1000, 5);
        let layout = render(
            &LayoutExpr::table("Traces").grid([("lat", 0.1), ("lon", 0.1)]),
            &provider,
            pager(),
            RenderOptions::default(),
        )
        .unwrap();
        let pred = Condition::eq("id", "car-2");
        let rows = layout.scan(Some(&["id".to_string()]), Some(&pred)).unwrap();
        assert_eq!(rows.len(), 200);
        assert!(rows.iter().all(|r| r[0].as_str() == Some("car-2")));
    }
}
