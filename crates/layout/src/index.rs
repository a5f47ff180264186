//! Declared secondary indexes attached to a physical layout.
//!
//! The `index[...]` operator of the layout algebra renders a persistent
//! B+Tree (one field) or R-tree (two fields, packed along the Hilbert curve)
//! next to the base layout's stored objects, in the same pager. The tree maps
//! keys to *packed record positions* — `(object, page ordinal, slot)` in one
//! `u64` — so sorting probe results ascending recovers exact storage order,
//! and the scan engine fetches each heap page holding a match exactly once.
//!
//! Probes are a conservative pre-filter: the full scan predicate is always
//! re-applied to the fetched rows, so the index only has to guarantee it
//! returns a *superset* of the matching positions. Values that cannot be
//! keyed faithfully (NULLs, NaNs, type drift) are kept out of the tree and
//! listed as outliers that every probe includes unconditionally.

use crate::plan::{ObjectEncoding, PhysicalLayout};
use crate::rowcodec::decode_fields_borrowed;
use crate::{LayoutError, Result};
use rodentstore_algebra::types::DataType;
use rodentstore_algebra::value::Value;
use rodentstore_index::bounds::Rect;
use rodentstore_index::btree::BTree;
use rodentstore_index::rtree::RTree;
use rodentstore_index::IndexError;
use rodentstore_storage::page::PageId;
use std::collections::HashMap;
use std::sync::Arc;

const PAGE_BITS: u32 = 28;
const SLOT_BITS: u32 = 20;
const OBJ_BITS: u32 = 64 - PAGE_BITS - SLOT_BITS;

/// Packs a record position into the `u64` index payload. The components are
/// ordered object-major, so `u64` order equals storage order.
pub fn pack_pos(obj: usize, page: usize, slot: usize) -> Result<u64> {
    if obj >= 1 << OBJ_BITS || page >= 1 << PAGE_BITS || slot >= 1 << SLOT_BITS {
        return Err(LayoutError::Unsupported(format!(
            "record position (object {obj}, page {page}, slot {slot}) \
             exceeds the packed index position encoding"
        )));
    }
    Ok(((obj as u64) << (PAGE_BITS + SLOT_BITS)) | ((page as u64) << SLOT_BITS) | slot as u64)
}

/// Splits a packed position into `(object index, page ordinal, slot)`.
pub fn unpack_pos(pos: u64) -> (usize, usize, usize) {
    (
        (pos >> (PAGE_BITS + SLOT_BITS)) as usize,
        ((pos >> SLOT_BITS) & ((1u64 << PAGE_BITS) - 1)) as usize,
        (pos & ((1u64 << SLOT_BITS) - 1)) as usize,
    )
}

/// Order-preserving map from `f64` to `i64`: for comparable floats `a < b`
/// implies `float_key(a) < float_key(b)`. `-0.0` maps just below `+0.0` and
/// the infinities bound all finite keys.
pub fn float_key(v: f64) -> i64 {
    let u = v.to_bits();
    let flipped = if u >> 63 == 1 { !u } else { u | (1u64 << 63) };
    (flipped ^ (1u64 << 63)) as i64
}

/// How an indexed field's values map to B+Tree keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyKind {
    /// `i64`-valued fields (Int, Timestamp): the value is the key.
    Int,
    /// Float fields: keyed through [`float_key`].
    Float,
}

/// Key kind of a schema data type; errors on non-numeric types (the
/// validator rejects those up front, so this is a backstop).
pub fn key_kind(ty: &DataType) -> Result<KeyKind> {
    match ty.unwrap_named() {
        DataType::Float => Ok(KeyKind::Float),
        DataType::Int | DataType::Timestamp => Ok(KeyKind::Int),
        other => Err(LayoutError::Unsupported(format!(
            "cannot index values of type {other}"
        ))),
    }
}

/// Maps a stored value to its key; `None` marks an outlier that the tree
/// cannot order faithfully (NULL, NaN, or a variant that drifted from the
/// declared type).
fn key_of(v: &Value, kind: KeyKind) -> Option<i64> {
    match (kind, v) {
        (KeyKind::Int, Value::Int(i)) => Some(*i),
        (KeyKind::Int, Value::Timestamp(t)) => Some(*t),
        (KeyKind::Float, Value::Float(f)) if !f.is_nan() => Some(float_key(*f)),
        _ => None,
    }
}

/// Maps a stored value to an R-tree coordinate; `None` marks an outlier.
fn coord_of(v: &Value) -> Option<f64> {
    match v.as_f64() {
        Some(f) if !f.is_nan() => Some(f),
        _ => None,
    }
}

/// Lower probe key for a query bound. An unbounded side maps to `i64::MIN`
/// so outlier-free NULL handling stays conservative; `0.0` maps through
/// `-0.0` so stored negative zeros are not skipped.
fn lo_key(lo: f64, kind: KeyKind) -> i64 {
    if lo == f64::NEG_INFINITY {
        return i64::MIN;
    }
    match kind {
        KeyKind::Int => lo.ceil() as i64, // saturating cast
        KeyKind::Float => float_key(if lo == 0.0 { -0.0 } else { lo }),
    }
}

/// Upper probe key for a query bound (see [`lo_key`]).
fn hi_key(hi: f64, kind: KeyKind) -> i64 {
    if hi == f64::INFINITY {
        return i64::MAX;
    }
    match kind {
        KeyKind::Int => hi.floor() as i64, // saturating cast
        KeyKind::Float => float_key(if hi == 0.0 { 0.0 } else { hi }),
    }
}

fn index_err(e: IndexError) -> LayoutError {
    match e {
        IndexError::Storage(s) => LayoutError::Storage(s),
        other => LayoutError::Unsupported(other.to_string()),
    }
}

/// Which tree structure backs a declared index.
pub enum IndexKind {
    /// Single-field B+Tree.
    BTree(BTree),
    /// Two-field R-tree over point coordinates.
    RTree(RTree),
}

/// A persistent secondary index rendered next to a layout's stored objects.
pub struct StoredIndex {
    /// Indexed field names (one ⇒ B-tree, two ⇒ R-tree).
    pub fields: Vec<String>,
    /// Key kind per indexed field.
    pub key_kinds: Vec<KeyKind>,
    /// The backing tree.
    pub kind: IndexKind,
    /// Packed positions of rows whose indexed values cannot be keyed;
    /// every probe includes them, and the residual predicate decides.
    pub outliers: Vec<u64>,
    /// The pages of the trees this one replaced (see
    /// [`PhysicalLayout::rebuild_index`]), until their owner drains them: a
    /// reader of an earlier generation or the on-disk manifest may still
    /// reference them.
    relocated: std::sync::Mutex<Vec<PageId>>,
}

impl std::fmt::Debug for StoredIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoredIndex")
            .field("fields", &self.fields)
            .field("kind", &self.kind_name())
            .field("len", &self.len())
            .field("outliers", &self.outliers.len())
            .finish()
    }
}

impl StoredIndex {
    /// Reattaches a persisted index from its manifest description. `kind` is
    /// the tag produced by [`StoredIndex::kind_name`]; the tree pages must
    /// already live in `pager` (reloaded from the page file at open time).
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        pager: Arc<rodentstore_storage::pager::Pager>,
        kind: &str,
        fields: Vec<String>,
        key_kinds: Vec<KeyKind>,
        root: PageId,
        len: u64,
        height: usize,
        outliers: Vec<u64>,
    ) -> Result<StoredIndex> {
        let kind = match kind {
            "btree" => IndexKind::BTree(BTree::from_parts(pager, root, len, height)?),
            "rtree" => IndexKind::RTree(RTree::from_parts(pager, root, len, height)?),
            other => {
                return Err(LayoutError::Corrupted(format!(
                    "unknown index kind `{other}` in manifest"
                )));
            }
        };
        Ok(StoredIndex {
            fields,
            key_kinds,
            kind,
            outliers,
            relocated: std::sync::Mutex::new(Vec::new()),
        })
    }

    /// Drains the pages of the trees this one replaced since the last call.
    /// The caller owns their reclamation (quarantine until no reader and no
    /// manifest references them).
    pub fn take_relocated(&self) -> Vec<PageId> {
        std::mem::take(&mut *self.relocated.lock().unwrap())
    }

    /// `"btree"` or `"rtree"` (used in manifests and diagnostics).
    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            IndexKind::BTree(_) => "btree",
            IndexKind::RTree(_) => "rtree",
        }
    }

    /// Number of keyed entries (excludes outliers).
    pub fn len(&self) -> u64 {
        match &self.kind {
            IndexKind::BTree(t) => t.len(),
            IndexKind::RTree(t) => t.len(),
        }
    }

    /// Whether the index holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0 && self.outliers.is_empty()
    }

    /// Height of the backing tree.
    pub fn height(&self) -> usize {
        match &self.kind {
            IndexKind::BTree(t) => t.height(),
            IndexKind::RTree(t) => t.height(),
        }
    }

    /// Root page id of the backing tree (persisted in manifests).
    pub fn root(&self) -> PageId {
        match &self.kind {
            IndexKind::BTree(t) => t.root(),
            IndexKind::RTree(t) => t.root(),
        }
    }

    /// Every page the backing tree occupies.
    pub fn page_ids(&self) -> Result<Vec<PageId>> {
        match &self.kind {
            IndexKind::BTree(t) => t.page_ids().map_err(index_err),
            IndexKind::RTree(t) => t.page_ids().map_err(index_err),
        }
    }

    /// Whether a probe can narrow the given per-field ranges: the B-tree
    /// needs a finite bound on its field, the R-tree a finite bound on at
    /// least one of its two fields.
    pub fn covers(&self, ranges: &HashMap<String, (f64, f64)>) -> bool {
        let bounded = |f: &String| {
            ranges
                .get(f)
                .is_some_and(|(lo, hi)| lo.is_finite() || hi.is_finite())
        };
        match self.kind {
            IndexKind::BTree(_) => bounded(&self.fields[0]),
            IndexKind::RTree(_) => self.fields.iter().any(bounded),
        }
    }

    /// Probes the index for the packed positions of rows that *may* satisfy
    /// the per-field ranges (a superset; the caller applies the residual
    /// predicate), sorted ascending, i.e. in storage order, and the number
    /// of tree node pages the probe read.
    pub fn probe(&self, ranges: &HashMap<String, (f64, f64)>) -> Result<(Vec<u64>, usize)> {
        let unbounded = (f64::NEG_INFINITY, f64::INFINITY);
        let (mut out, nodes) = match &self.kind {
            IndexKind::BTree(tree) => {
                let (lo, hi) = ranges.get(&self.fields[0]).copied().unwrap_or(unbounded);
                let (hits, nodes) = tree
                    .range(lo_key(lo, self.key_kinds[0]), hi_key(hi, self.key_kinds[0]))
                    .map_err(index_err)?;
                (hits.into_iter().map(|(_, pos)| pos).collect(), nodes)
            }
            IndexKind::RTree(tree) => {
                let (lx, hx) = ranges.get(&self.fields[0]).copied().unwrap_or(unbounded);
                let (ly, hy) = ranges.get(&self.fields[1]).copied().unwrap_or(unbounded);
                // Raw rect, not `Rect::new`: an empty range (lo > hi) must
                // stay empty instead of being corner-normalized away.
                tree.query(&Rect {
                    min_x: lx,
                    min_y: ly,
                    max_x: hx,
                    max_y: hy,
                })
                .map_err(index_err)?
            }
        };
        out.extend_from_slice(&self.outliers);
        out.sort_unstable();
        Ok((out, nodes))
    }
}

/// Builds the declared index over an already-rendered layout by walking its
/// heap files in storage order, carrying `relocated`, the pages of the trees
/// it replaces. Only row-encoded objects can be addressed by `(page, slot)`;
/// other encodings are rejected with a clear message.
pub(crate) fn build_index(
    layout: &PhysicalLayout,
    fields: &[String],
    relocated: Vec<PageId>,
) -> Result<StoredIndex> {
    for obj in &layout.objects {
        if obj.encoding != ObjectEncoding::Rows {
            return Err(LayoutError::Unsupported(format!(
                "index[{}] requires row-encoded objects, but `{}` uses {:?}; \
                 drop column/pax/compressed transforms under the index",
                fields.join(","),
                obj.name,
                obj.encoding
            )));
        }
        if obj.fields != layout.schema.field_names() {
            return Err(LayoutError::Unsupported(format!(
                "index[{}] requires full-width objects, but `{}` stores a field subset",
                fields.join(","),
                obj.name
            )));
        }
    }
    let key_kinds: Vec<KeyKind> = fields
        .iter()
        .map(|f| {
            let fd = layout.schema.field(f).map_err(LayoutError::Algebra)?;
            key_kind(&fd.ty)
        })
        .collect::<Result<_>>()?;
    let field_positions: Vec<usize> = layout
        .schema
        .indices_of(fields)
        .map_err(LayoutError::Algebra)?;
    // Borrowed refs up to the last indexed field, so a field's ref sits at
    // its schema position (skipping a field costs about what borrowing it
    // does).
    let prefix: Vec<usize> = (0..=field_positions.iter().max().copied().unwrap_or(0)).collect();

    // Walk every object's records in storage order, decoding the indexed
    // values straight out of the page frames alongside their packed
    // positions.
    let mut keyed: Vec<(Vec<Value>, u64)> = Vec::with_capacity(layout.row_count);
    let mut outliers = Vec::new();
    for (obj_idx, obj) in layout.objects.iter().enumerate() {
        obj.heap.scan(|rid, payload| {
            let mut refs = Vec::with_capacity(prefix.len());
            decode_fields_borrowed(payload, &prefix, &mut refs)?;
            // Sized exactly: one of these stays resident per row until the
            // tree is loaded.
            let mut values = Vec::with_capacity(field_positions.len());
            for &p in &field_positions {
                values.push(refs[p].to_value()?);
            }
            keyed.push((values, pack_pos(obj_idx, rid.page_index, rid.slot)?));
            Ok::<_, LayoutError>(())
        })?;
    }

    let pager = Arc::clone(layout.pager());
    let kind = match fields.len() {
        1 => {
            let mut entries: Vec<(i64, u64)> = Vec::with_capacity(keyed.len());
            for (values, pos) in &keyed {
                match key_of(&values[0], key_kinds[0]) {
                    Some(key) => entries.push((key, *pos)),
                    None => outliers.push(*pos),
                }
            }
            entries.sort_unstable();
            IndexKind::BTree(BTree::bulk_load(pager, &entries).map_err(index_err)?)
        }
        2 => {
            let mut items: Vec<(Rect, u64)> = Vec::with_capacity(keyed.len());
            for (values, pos) in &keyed {
                match (coord_of(&values[0]), coord_of(&values[1])) {
                    (Some(x), Some(y)) => items.push((Rect::point(x, y), *pos)),
                    _ => outliers.push(*pos),
                }
            }
            IndexKind::RTree(RTree::bulk_load_hilbert(pager, &items).map_err(index_err)?)
        }
        n => {
            return Err(LayoutError::Unsupported(format!(
                "index over {n} fields (expected 1 or 2)"
            )));
        }
    };
    Ok(StoredIndex {
        fields: fields.to_vec(),
        key_kinds,
        kind,
        outliers,
        relocated: std::sync::Mutex::new(relocated),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::append::append_records;
    use crate::render::{render, RenderOptions};
    use crate::MemTableProvider;
    use rodentstore_algebra::comprehension::Condition;
    use rodentstore_algebra::schema::{Field, Schema};
    use rodentstore_algebra::value::Record;
    use rodentstore_algebra::LayoutExpr;
    use rodentstore_storage::pager::Pager;

    fn schema() -> Schema {
        Schema::new(
            "T",
            vec![
                Field::new("id", DataType::Int),
                Field::new("x", DataType::Float),
                Field::new("y", DataType::Float),
            ],
        )
    }

    fn rows(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| {
                vec![
                    Value::Int(i as i64),
                    Value::Float((i * 37 % 101) as f64),
                    Value::Float((i * 53 % 97) as f64),
                ]
            })
            .collect()
    }

    /// Debug-formats and sorts rows so multisets compare exactly even in the
    /// presence of NaN (where `Value`'s `PartialEq` says `NaN != NaN`).
    fn sorted(v: Vec<Record>) -> Vec<String> {
        let mut out: Vec<String> = v.iter().map(|r| format!("{r:?}")).collect();
        out.sort();
        out
    }

    #[test]
    fn btree_index_scan_matches_streaming_scan() {
        let expr = LayoutExpr::table("T").index(["id"]);
        let provider = MemTableProvider::single(schema(), rows(500));
        let pager = Arc::new(Pager::in_memory_with_page_size(1024));
        let layout = render(&expr, &provider, pager, RenderOptions::default()).unwrap();
        assert!(layout.index.is_some());

        let pred = Condition::range("id", 100i64, 129i64);
        let mut iter = layout.scan_iter(None, Some(&pred)).unwrap();
        assert!(iter.uses_index());
        let indexed: Vec<Record> = iter.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(indexed.len(), 30);

        let plain = render(
            &LayoutExpr::table("T"),
            &provider,
            Arc::new(Pager::in_memory_with_page_size(1024)),
            RenderOptions::default(),
        )
        .unwrap();
        assert_eq!(indexed, plain.scan(None, Some(&pred)).unwrap());

        // The estimate reflects the narrowed read set.
        let streamed = plain.estimate_scan_pages(None, Some(&pred));
        let via_index = layout.estimate_scan_pages(None, Some(&pred));
        assert!(via_index < streamed, "{via_index} !< {streamed}");

        // Rewind replays the same rows.
        iter.rewind().unwrap();
        assert_eq!(iter.map(|r| r.unwrap()).collect::<Vec<_>>(), indexed);
    }

    #[test]
    fn rtree_index_scan_matches_streaming_scan() {
        let expr = LayoutExpr::table("T").index(["x", "y"]);
        let provider = MemTableProvider::single(schema(), rows(400));
        let pager = Arc::new(Pager::in_memory_with_page_size(1024));
        let layout = render(&expr, &provider, pager, RenderOptions::default()).unwrap();

        let pred = Condition::range("x", 10.0, 30.0).and(Condition::range("y", 20.0, 60.0));
        let iter = layout.scan_iter(None, Some(&pred)).unwrap();
        assert!(iter.uses_index());
        let indexed: Vec<Record> = iter.map(|r| r.unwrap()).collect();

        let plain = render(
            &LayoutExpr::table("T"),
            &provider,
            Arc::new(Pager::in_memory_with_page_size(1024)),
            RenderOptions::default(),
        )
        .unwrap();
        assert_eq!(indexed, plain.scan(None, Some(&pred)).unwrap());
        assert!(!indexed.is_empty());
    }

    #[test]
    fn appends_maintain_the_index() {
        let expr = LayoutExpr::table("T").index(["id"]);
        let provider = MemTableProvider::single(schema(), rows(200));
        let pager = Arc::new(Pager::in_memory_with_page_size(1024));
        let mut layout = render(&expr, &provider, pager, RenderOptions::default()).unwrap();
        let mut old_tree = layout.index.as_ref().unwrap().page_ids().unwrap();

        let extra: Vec<Record> = (200..260)
            .map(|i| vec![Value::Int(i), Value::Float(1.0), Value::Null])
            .collect();
        append_records(
            &mut layout,
            &MemTableProvider::single(schema(), extra),
        )
        .unwrap();
        // The append rebuilt the tree into fresh pages and left the old
        // tree's pages, unwritten, to whoever drains the layout.
        let index = layout.index.as_ref().unwrap();
        assert_eq!(index.len(), 260);
        let new_tree = index.page_ids().unwrap();
        assert!(new_tree.iter().all(|p| !old_tree.contains(p)));
        let mut vacated = layout.take_relocated();
        vacated.sort_unstable();
        old_tree.sort_unstable();
        assert_eq!(vacated, old_tree);

        let pred = Condition::range("id", 190i64, 219i64);
        let iter = layout.scan_iter(None, Some(&pred)).unwrap();
        assert!(iter.uses_index());
        let got: Vec<Record> = iter.map(|r| r.unwrap()).collect();
        assert_eq!(got.len(), 30);
        assert!(got.iter().all(|r| {
            let id = r[0].as_i64().unwrap();
            (190..220).contains(&id)
        }));
    }

    #[test]
    fn nulls_and_nans_survive_indexed_predicates() {
        // NaN compares Equal to everything and NULL sorts below everything in
        // `Value::compare`, so both must reach the residual predicate via the
        // outlier list rather than being silently dropped by the tree probe.
        let mut data = rows(50);
        data.push(vec![Value::Int(100), Value::Float(f64::NAN), Value::Null]);
        data.push(vec![Value::Null, Value::Float(2.0), Value::Float(3.0)]);
        let provider = MemTableProvider::single(schema(), data);

        for fields in [vec!["id"], vec!["x", "y"]] {
            let expr = LayoutExpr::table("T").index(fields);
            let layout = render(
                &expr,
                &provider,
                Arc::new(Pager::in_memory_with_page_size(1024)),
                RenderOptions::default(),
            )
            .unwrap();
            // Exactly one row per index is unkeyable: the NULL id for the
            // B-tree, the NaN x for the R-tree.
            assert_eq!(layout.index.as_ref().unwrap().outliers.len(), 1);
            let plain = render(
                &LayoutExpr::table("T"),
                &provider,
                Arc::new(Pager::in_memory_with_page_size(1024)),
                RenderOptions::default(),
            )
            .unwrap();
            for pred in [
                Condition::range("id", 0i64, 10i64),
                Condition::eq("id", 100i64),
                Condition::range("x", 0.0, 5.0),
                Condition::range("x", 1.0, 3.0).and(Condition::range("y", 0.0, 5.0)),
            ] {
                assert_eq!(
                    sorted(layout.scan(None, Some(&pred)).unwrap()),
                    sorted(plain.scan(None, Some(&pred)).unwrap()),
                    "{pred:?}"
                );
            }
        }
    }

    #[test]
    fn index_rejects_block_encoded_objects() {
        let expr = LayoutExpr::table("T")
            .columns(["id", "x", "y"])
            .index(["id"]);
        let provider = MemTableProvider::single(schema(), rows(10));
        let err = render(
            &expr,
            &provider,
            Arc::new(Pager::in_memory_with_page_size(1024)),
            RenderOptions::default(),
        );
        assert!(err.is_err(), "column-block layouts are not slot-addressable");
    }

    #[test]
    fn packed_positions_order_like_storage() {
        let a = pack_pos(0, 0, 5).unwrap();
        let b = pack_pos(0, 1, 0).unwrap();
        let c = pack_pos(1, 0, 0).unwrap();
        assert!(a < b && b < c);
        assert_eq!(unpack_pos(a), (0, 0, 5));
        assert_eq!(unpack_pos(c), (1, 0, 0));
        assert!(pack_pos(1 << 16, 0, 0).is_err());
        assert!(pack_pos(0, 1 << 28, 0).is_err());
        assert!(pack_pos(0, 0, 1 << 20).is_err());
    }

    #[test]
    fn float_key_preserves_order() {
        let samples = [
            f64::NEG_INFINITY,
            -1.0e300,
            -2.5,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            2.5,
            1.0e300,
            f64::INFINITY,
        ];
        for w in samples.windows(2) {
            assert!(
                float_key(w[0]) <= float_key(w[1]),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
        assert!(float_key(-0.0) < float_key(0.0));
    }

    #[test]
    fn bounds_include_negative_zero_and_unbounded_sides() {
        // A query lower bound of 0.0 must reach stored -0.0 (they compare
        // equal), and unbounded sides must include outlier-free NULL keys.
        assert!(lo_key(0.0, KeyKind::Float) <= float_key(-0.0));
        assert!(hi_key(0.0, KeyKind::Float) >= float_key(0.0));
        assert_eq!(lo_key(f64::NEG_INFINITY, KeyKind::Int), i64::MIN);
        assert_eq!(hi_key(f64::INFINITY, KeyKind::Float), i64::MAX);
        assert_eq!(lo_key(4.5, KeyKind::Int), 5);
        assert_eq!(hi_key(4.5, KeyKind::Int), 4);
    }

    #[test]
    fn nulls_and_nans_become_outliers() {
        assert_eq!(key_of(&Value::Null, KeyKind::Int), None);
        assert_eq!(key_of(&Value::Float(f64::NAN), KeyKind::Float), None);
        assert_eq!(key_of(&Value::Int(7), KeyKind::Int), Some(7));
        assert_eq!(coord_of(&Value::Null), None);
        assert_eq!(coord_of(&Value::Int(3)), Some(3.0));
    }
}
