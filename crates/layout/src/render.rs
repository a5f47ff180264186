//! The layout renderer: from algebra expression to stored objects.
//!
//! `render` is the concrete implementation of the paper's *algebra
//! interpreter* (Section 4.2): it validates the expression, materializes the
//! record pipeline, builds the empty layout the derived shape calls for, and
//! places the rows into it through `place` — the routine
//! [`crate::append_records`] runs for new rows too, so each shape has one
//! writer:
//!
//! * **grid** (`grid`, optionally `zorder`) — one object per cell, created
//!   when a row first reaches it; the cells one placement writes follow the
//!   layout's cell order (the Z curve under `zorder`), so spatially adjacent
//!   cells are adjacent on disk;
//! * **vertical partition / column-major** — one object per column group,
//!   encoded as column blocks (with any requested compression), every
//!   object holding every row in the same order;
//! * **PAX** — a single object whose heap records are per-attribute
//!   mini-pages;
//! * **fold** — one heap record per key group with the nested values
//!   attached, written whole by the renderer;
//! * **horizontal partition** — one full-width row object per partition,
//!   created when a row first reaches it;
//! * **row-major** (the default canonical representation) — a single object
//!   with one heap record per tuple.

pub use crate::pipeline::MemTableProvider;
use crate::pipeline::{self, TableProvider};
use crate::plan::{
    lattice_origin, CellBounds, ObjectEncoding, PhysicalLayout, StoredObject, Target,
};
use crate::rowcodec::encode_record;
use crate::scan::CompiledPredicate;
use crate::{LayoutError, Result};
use rodentstore_algebra::expr::{CodecSpec, LayoutExpr, PartitionBy};
use rodentstore_algebra::validate::{check_with, DerivedLayout};
use rodentstore_algebra::value::{Record, Value};
use rodentstore_compress::CodecKind;
use rodentstore_sfc::morton_n;
use rodentstore_storage::heap::{HeapFile, RecordId};
use rodentstore_storage::pager::Pager;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Rows per column block when the expression declares no `chunk`.
const DEFAULT_BLOCK_ROWS: usize = 1024;

/// Options controlling how the renderer writes objects.
#[derive(Debug, Clone)]
pub struct RenderOptions {
    /// Name for the layout; defaults to `<table>__<expression kind>`.
    pub name: Option<String>,
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

fn codec_map(derived: &DerivedLayout) -> HashMap<String, CodecKind> {
    derived
        .codecs
        .iter()
        .map(|(field, spec)| (field.clone(), codec_kind(*spec)))
        .collect()
}

/// Column blocks of the declared `chunk` size, else [`DEFAULT_BLOCK_ROWS`].
fn column_blocks(derived: &DerivedLayout) -> ObjectEncoding {
    ObjectEncoding::ColumnBlocks {
        block_rows: derived.chunk.unwrap_or(DEFAULT_BLOCK_ROWS).max(1),
    }
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

/// Which writer a derived layout's rows go through. The precedence between
/// the structural transforms lives here alone: the empty layout [`render`]
/// builds and [`place`] both follow it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// One object per grid cell.
    Cells,
    /// One column-block object per vertical group.
    Groups,
    /// One PAX, compressed or row object.
    Single,
    /// One heap record per `fold` key group.
    Folded,
    /// One row object per horizontal partition.
    Partitions,
}

impl Shape {
    fn of(derived: &DerivedLayout) -> Shape {
        if derived.grid.is_some() {
            Shape::Cells
        } else if !derived.groups.is_empty() {
            Shape::Groups
        } else if derived.pax.is_some() {
            Shape::Single
        } else if derived.folded.is_some() {
            Shape::Folded
        } else if derived.partitioned {
            Shape::Partitions
        } else {
            Shape::Single
        }
    }
}

/// The objects of `derived`'s layout before any row arrives: one per
/// vertical group, or the one PAX, compressed or row object. Grids and
/// partitions start with none ([`place`] creates each cell and partition
/// when a row first reaches it), and a fold is written whole by
/// [`render_folded`].
fn empty_objects(name: &str, derived: &DerivedLayout, pager: &Arc<Pager>) -> Vec<StoredObject> {
    let codecs = codec_map(derived);
    let object = |suffix: String, file: String, fields: Vec<String>, encoding| {
        StoredObject::new(
            format!("{name}/{suffix}"),
            fields,
            HeapFile::create(format!("{name}.{file}"), Arc::clone(pager)),
            encoding,
            codecs.clone(),
            None,
        )
    };
    let fields = derived.schema.field_names();
    match Shape::of(derived) {
        Shape::Cells | Shape::Partitions | Shape::Folded => Vec::new(),
        Shape::Groups => derived
            .groups
            .iter()
            .enumerate()
            .map(|(g, group)| {
                let suffix = format!("group{g}[{}]", group.join(","));
                object(
                    suffix,
                    format!("g{g}"),
                    group.clone(),
                    column_blocks(derived),
                )
            })
            .collect(),
        Shape::Single => vec![match &derived.pax {
            Some(pax) => object(
                "pax".into(),
                "pax".into(),
                fields,
                ObjectEncoding::ColumnBlocks {
                    block_rows: pax.records_per_page,
                },
            ),
            None if !codecs.is_empty() => object(
                "compressed".into(),
                "cb".into(),
                fields,
                column_blocks(derived),
            ),
            None => object("rows".into(), "rows".into(), fields, ObjectEncoding::Rows),
        }],
    }
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
    let name = options.name.clone().unwrap_or_else(|| {
        format!("{}__{:?}", expr.base_tables().join("_"), expr.kind()).to_lowercase()
    });
    let mut layout = build(name, expr.clone(), derived, records, pager)?;
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

/// Builds the layout `derived` describes over `records`, which have
/// already been through the record pipeline: the empty objects of its
/// shape, the rows placed into them (or folded), and the declared index.
/// It carries no lsm tier; [`render`] attaches one, and an lsm run is
/// exactly such a layout over its rows.
pub(crate) fn build(
    name: String,
    expr: LayoutExpr,
    derived: DerivedLayout,
    records: Vec<Record>,
    pager: Arc<Pager>,
) -> Result<PhysicalLayout> {
    let shape = Shape::of(&derived);
    let mut objects = empty_objects(&name, &derived, &pager);
    if let (Shape::Folded, Some((key, values))) = (shape, &derived.folded) {
        objects.push(render_folded(
            &name,
            &records,
            &derived.schema,
            key,
            values,
            &pager,
        )?);
    }
    let schema = derived.schema.clone();
    let row_count = records.len();
    let mut layout = PhysicalLayout::new(name, expr, schema, derived, objects, row_count, pager);
    if shape != Shape::Folded {
        place(&mut layout, records)?.ok_or_else(|| {
            LayoutError::Corrupted(format!("`{}` objects do not fit its shape", layout.name))
        })?;
    }
    if let Some(fields) = layout.derived.index.clone() {
        layout.index = Some(crate::index::build_index(&layout, &fields)?);
    }
    Ok(layout)
}

/// Where placed rows landed: `(object index, record id, row)`, for
/// row-encoded objects (column blocks are not slot-addressable). The rows
/// are moved in, so an append maintains the declared index without
/// re-reading the heap.
pub(crate) type Placed = Vec<(usize, RecordId, Record)>;

/// Where `rows` landed in object `obj`: nothing unless the layout holds an
/// index to maintain, the one reader of [`Placed`].
fn landed(layout: &PhysicalLayout, obj: usize, ids: Vec<RecordId>, rows: Vec<Record>) -> Placed {
    if layout.index.is_none() {
        return Placed::new();
    }
    ids.into_iter().zip(rows).map(|(rid, row)| (obj, rid, row)).collect()
}

/// Writes materialized rows into `layout`'s objects: the one writer of
/// every shape but fold, which [`render`] runs over an empty layout and
/// [`crate::append_records`] over a rendered one.
///
/// * **cells** — rows are bucketed by lattice coordinate, on the lattice
///   the layout's cells sit on (or, before any cell exists, the one whose
///   origin is the rows' per-dimension minimum); cells the rows reach first
///   are created lattice-aligned, rows below the origin getting negative
///   coordinates with exact bounds;
/// * **partitions** — rows are routed by the partitioning rule, creating an
///   object for each unseen label;
/// * **groups** — every row is projected onto each group and appended to
///   *all* objects, keeping the equal-row-set invariant vertical reads
///   depend on;
/// * **single object** — rows become new heap records or column blocks at
///   the end of the object.
///
/// Returns how many objects were written and where row-encoded rows
/// landed, or `None` when the objects do not fit the shape.
pub(crate) fn place(
    layout: &mut PhysicalLayout,
    rows: Vec<Record>,
) -> Result<Option<(usize, Placed)>> {
    Ok(Some(match Shape::of(&layout.derived) {
        Shape::Cells => place_cells(layout, rows)?,
        Shape::Partitions => place_partitions(layout, rows)?,
        Shape::Groups => (place_groups(layout, &rows)?, Placed::new()),
        Shape::Single
            if layout.objects.len() == 1
                && layout.objects[0].fields == layout.schema.field_names() =>
        {
            let ids = layout.object_mut(0)?.write_rows(&rows)?;
            (1, landed(layout, 0, ids, rows))
        }
        Shape::Single | Shape::Folded => return Ok(None),
    }))
}

/// Groups rows by `key` through a hash index of the keys seen: keys in
/// first-seen order, rows in arrival order within a key.
fn bucket<K: Hash + Eq + Clone>(
    rows: Vec<Record>,
    mut key: impl FnMut(&Record) -> Result<K>,
) -> Result<Vec<(K, Vec<Record>)>> {
    let mut seen: HashMap<K, usize> = HashMap::new();
    let mut buckets: Vec<(K, Vec<Record>)> = Vec::new();
    for r in rows {
        let k = key(&r)?;
        match seen.get(&k) {
            Some(&b) => buckets[b].1.push(r),
            None => {
                seen.insert(k.clone(), buckets.len());
                buckets.push((k, vec![r]));
            }
        }
    }
    Ok(buckets)
}

/// Writes each bucket into the object its key names in the layout's object
/// index, first creating the object with `create` when there is none.
fn place_buckets<K>(
    layout: &mut PhysicalLayout,
    buckets: Vec<(K, Vec<Record>)>,
    target: impl Fn(&K) -> Target,
    create: impl Fn(&PhysicalLayout, &K) -> StoredObject,
) -> Result<(usize, Placed)> {
    let touched = buckets.len();
    let mut placed = Placed::new();
    for (key, rows) in buckets {
        let target = target(&key);
        let i = match layout.targets.get(&target) {
            Some(&i) => i,
            None => {
                let obj = create(layout, &key);
                layout.objects.push(Arc::new(obj));
                let i = layout.objects.len() - 1;
                Arc::make_mut(&mut layout.targets).insert(target, i);
                i
            }
        };
        let ids = layout.object_mut(i)?.write_rows(&rows)?;
        placed.extend(landed(layout, i, ids, rows));
    }
    Ok((touched, placed))
}

/// A cell's rank in the layout's cell order: its position on the Z curve
/// under `zorder`, else a deterministic hash of its coordinates — the
/// paper's N3 tracks cells in a hash table, so their order is arbitrary,
/// but benchmarks must be reproducible.
fn cell_rank(coords: &[u32], zordered: bool) -> u64 {
    if zordered {
        morton_n(coords)
    } else {
        coords.iter().fold(0u64, |acc, &c| {
            acc.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(c as u64)
        })
    }
}

/// Grid placement (see [`place`]). The cells are written in the layout's
/// cell order over this batch, their coordinates shifted by the batch's
/// minimum so cells below the origin order too; a render's origin is the
/// data minimum, so there the shift is zero. A row whose gridded value has
/// no lattice coordinate — NaN, infinite, non-numeric, or too far out for
/// an exact one — goes to the cell unbounded along that dimension.
fn place_cells(layout: &mut PhysicalLayout, rows: Vec<Record>) -> Result<(usize, Placed)> {
    let dims = layout.derived.grid.clone().unwrap_or_default();
    let at: Vec<usize> = dims
        .iter()
        .map(|d| layout.schema.index_of(&d.field))
        .collect::<std::result::Result<_, _>>()?;
    let origins: Vec<f64> = lattice_origin(&layout.objects, &dims)
        .into_iter()
        .zip(&at)
        .map(|(origin, &i)| {
            origin.unwrap_or_else(|| {
                let lo = rows
                    .iter()
                    .filter_map(|r| r[i].as_f64().filter(|v| v.is_finite()))
                    .fold(f64::INFINITY, f64::min);
                if lo.is_finite() {
                    lo
                } else {
                    0.0
                }
            })
        })
        .collect();
    /// Beyond this a coordinate is no longer an exact `f64` integer.
    const MAX_COORD: f64 = (1u64 << 53) as f64;
    let mut cells = bucket(rows, |r| {
        Ok(at
            .iter()
            .zip(&dims)
            .zip(&origins)
            .map(|((&i, dim), &o)| {
                let c = ((r[i].as_f64()? - o) / dim.stride).floor();
                (c.abs() <= MAX_COORD).then_some(c as i64)
            })
            .collect::<Vec<Option<i64>>>())
    })?;
    let low: Vec<i64> = (0..dims.len())
        .map(|d| cells.iter().filter_map(|(c, _)| c[d]).min().unwrap_or(0))
        .collect();
    // Coordinates break rank ties, as a sorted base order.
    cells.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let zordered = layout.derived.zordered;
    cells.sort_by_cached_key(|(c, _)| {
        let shifted: Vec<u32> = c
            .iter()
            .zip(&low)
            .map(|(c, low)| c.map_or(u32::MAX, |c| c.abs_diff(*low).min(u32::MAX.into()) as u32))
            .collect();
        cell_rank(&shifted, zordered)
    });
    let codecs = codec_map(&layout.derived);
    let encoding = if codecs.is_empty() {
        ObjectEncoding::Rows
    } else {
        column_blocks(&layout.derived)
    };
    place_buckets(
        layout,
        cells,
        |coords| Target::Cell(coords.clone()),
        |layout, coords| {
            let bounds = CellBounds {
                dims: dims
                    .iter()
                    .zip(coords)
                    .zip(&origins)
                    .map(|((dim, &c), &o)| match c {
                        Some(c) => {
                            let lo = o + c as f64 * dim.stride;
                            (dim.field.clone(), lo, lo + dim.stride)
                        }
                        None => (dim.field.clone(), f64::NEG_INFINITY, f64::INFINITY),
                    })
                    .collect(),
                coords: coords
                    .iter()
                    .map(|&c| c.map_or(0, |c| c.clamp(0, u32::MAX as i64) as u32))
                    .collect(),
            };
            // `[3, -1]`, with `*` along an unbounded dimension.
            let label = coords
                .iter()
                .map(|c| c.map_or_else(|| "*".to_string(), |c| c.to_string()))
                .collect::<Vec<_>>()
                .join(", ");
            StoredObject::new(
                format!("{}/cell[{label}]", layout.name),
                layout.schema.field_names(),
                HeapFile::create(
                    format!("{}.cell[{label}]", layout.name),
                    Arc::clone(layout.pager()),
                ),
                encoding.clone(),
                codecs.clone(),
                Some(bounds),
            )
        },
    )
}

/// A partitioning rule resolved against a schema: the label of a row.
type LabelOf = Box<dyn Fn(&Record) -> Result<String>>;

/// Partition placement (see [`place`]): labels by the partitioning rule,
/// its field or predicate resolved once against the layout's schema.
fn place_partitions(layout: &mut PhysicalLayout, rows: Vec<Record>) -> Result<(usize, Placed)> {
    let by = find_partition(&layout.expr).ok_or_else(|| {
        LayoutError::Unsupported("partitioned layout without a partition transform".into())
    })?;
    let schema = &layout.schema;
    let label: LabelOf = match by {
        PartitionBy::Field(field) => {
            let i = schema.index_of(field)?;
            Box::new(move |r| Ok(r[i].to_string()))
        }
        PartitionBy::Stride(field, stride) => {
            let (i, stride) = (schema.index_of(field)?, *stride);
            Box::new(move |r| {
                let v = r[i].as_f64().unwrap_or(0.0);
                Ok(format!("{}", (v / stride).floor() as i64))
            })
        }
        PartitionBy::Predicate(cond) => {
            let pred = CompiledPredicate::compile(cond, &schema.field_names(), schema.name())?;
            Box::new(move |r| Ok(if pred.matches(r)? { "match" } else { "rest" }.to_string()))
        }
    };
    let partitions = bucket(rows, label)?;
    place_buckets(
        layout,
        partitions,
        |label| Target::Label(label.clone()),
        |layout, label| {
            let p = layout.objects.len();
            StoredObject::new(
                format!("{}/part{p}={label}", layout.name),
                layout.schema.field_names(),
                HeapFile::create(format!("{}.p{p}", layout.name), Arc::clone(layout.pager())),
                ObjectEncoding::Rows,
                HashMap::new(),
                None,
            )
        },
    )
}

/// Vertical placement (see [`place`]); returns the objects written.
fn place_groups(layout: &mut PhysicalLayout, rows: &[Record]) -> Result<usize> {
    let positions: Vec<Vec<usize>> = layout
        .objects
        .iter()
        .map(|obj| layout.schema.indices_of(&obj.fields))
        .collect::<std::result::Result<_, _>>()?;
    for (i, at) in positions.into_iter().enumerate() {
        let projected: Vec<Record> = rows
            .iter()
            .map(|r| at.iter().map(|&p| r[p].clone()).collect())
            .collect();
        layout.object_mut(i)?.write_rows(&projected)?;
    }
    Ok(layout.objects.len())
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
    let key_indices = schema.indices_of(key)?;
    let value_indices = schema.indices_of(values)?;

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
