//! Physical layouts: stored objects and their read paths.
//!
//! Rendering a storage-algebra expression produces a [`PhysicalLayout`]: a
//! set of [`StoredObject`]s (heap files holding rows or compressed column
//! blocks, optionally tagged with grid-cell bounds) plus the derived
//! description of the layout's properties. The read paths implemented here —
//! scans with projection/predicates, element access, and page estimation —
//! are what the access-method API in `rodentstore_exec` exposes to a query
//! processor.

use crate::rowcodec::{
    column_field, decode_record, decode_record_subset, encode_record, values_to_column,
};
use crate::index::StoredIndex;
use crate::lsm::LsmState;
use crate::scan::ScanIter;
use crate::{LayoutError, Result};
use rodentstore_algebra::comprehension::{CmpOp, Condition, ElemExpr};
use rodentstore_algebra::expr::{LayoutExpr, SortKey};
use rodentstore_algebra::schema::Schema;
use rodentstore_algebra::types::DataType;
use rodentstore_algebra::validate::DerivedLayout;
use rodentstore_algebra::value::{Record, Value};
use rodentstore_compress::{CodecKind, ColumnCodec, ColumnData};
use rodentstore_storage::frame::PageFrame;
use rodentstore_storage::heap::{HeapFile, RecordId};
use rodentstore_storage::page::PageId;
use rodentstore_storage::pager::Pager;
use rodentstore_storage::slotted::SlottedReader;
use std::collections::HashMap;
use std::sync::Arc;

/// How records are serialized inside a stored object.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjectEncoding {
    /// One heap record per tuple (row-oriented).
    Rows,
    /// Column blocks: for every chunk of `block_rows` tuples, one heap record
    /// per field (in the object's field order), each an encoded column block.
    ColumnBlocks {
        /// Number of tuples per block.
        block_rows: usize,
    },
    /// Folded groups (the `fold` transform): one heap record per group,
    /// holding the key values followed by a list of the nested value rows.
    /// Reads unnest each inner row by merging it with its key, as described
    /// in Section 4.1 of the paper.
    Folded {
        /// Number of leading key fields in each folded record.
        key_fields: usize,
    },
}

/// The value interval a grid cell covers along each gridded dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct CellBounds {
    /// `(field, inclusive lower bound, exclusive upper bound)` per dimension.
    pub dims: Vec<(String, f64, f64)>,
    /// Integer cell coordinates along each dimension (used for curve
    /// ordering and diagnostics).
    pub coords: Vec<u32>,
}

impl CellBounds {
    /// Whether the cell can contain tuples satisfying the given per-field
    /// ranges (missing fields are unconstrained).
    pub fn intersects(&self, ranges: &HashMap<String, (f64, f64)>) -> bool {
        for (field, lo, hi) in &self.dims {
            if let Some((qlo, qhi)) = ranges.get(field) {
                if *hi <= *qlo || *lo > *qhi {
                    return false;
                }
            }
        }
        true
    }
}

/// A stored object: one heap file holding a subset of the layout's fields.
pub struct StoredObject {
    /// Object name (for catalogs and diagnostics).
    pub name: String,
    /// Names of the fields stored in this object, in storage order.
    pub fields: Vec<String>,
    /// The heap file holding the data.
    pub heap: HeapFile,
    /// Row or column-block encoding.
    pub encoding: ObjectEncoding,
    /// Per-field compression codec (column-block encoding only).
    pub codecs: HashMap<String, CodecKind>,
    /// Grid-cell bounds when this object is one cell of a gridded layout.
    pub cell: Option<CellBounds>,
    /// Number of tuples stored.
    pub row_count: usize,
    /// Sort order of tuples within the object, if any.
    pub ordering: Vec<SortKey>,
}

impl std::fmt::Debug for StoredObject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoredObject")
            .field("name", &self.name)
            .field("fields", &self.fields)
            .field("rows", &self.row_count)
            .field("pages", &self.heap.page_count())
            .field("encoding", &self.encoding)
            .finish()
    }
}

/// Splits a decoded folded record into its key prefix and nested entries,
/// enforcing the `keys ++ [nested list]` shape shared by every folded reader.
pub(crate) fn split_folded<'r>(
    folded: &'r Record,
    key_fields: usize,
    object_name: &str,
) -> Result<(&'r [Value], &'r [Value])> {
    if folded.len() != key_fields + 1 {
        return Err(LayoutError::Corrupted(format!(
            "folded record in `{object_name}` has arity {}, expected {}",
            folded.len(),
            key_fields + 1
        )));
    }
    let nested = folded[key_fields]
        .as_list()
        .ok_or_else(|| LayoutError::Corrupted("folded record without nested list".into()))?;
    Ok((&folded[..key_fields], nested))
}

/// Unnests one entry of a folded group into a full row (`key ++ values`).
pub(crate) fn stitch_folded_row(key: &[Value], entry: &Value) -> Result<Record> {
    let values = entry
        .as_list()
        .ok_or_else(|| LayoutError::Corrupted("nested fold entry is not a list".into()))?;
    let mut row = key.to_vec();
    row.extend(values.iter().cloned());
    Ok(row)
}

impl StoredObject {
    /// Number of pages the object occupies.
    pub fn page_count(&self) -> usize {
        self.heap.page_count()
    }

    /// Reads the single tuple at `index` (in object storage order), decoding
    /// only the positions marked in `needed` (row encodings) or the blocks of
    /// needed fields (column encodings). Earlier pages are still fetched to
    /// locate the row, but their records are never decoded.
    pub fn read_row_at(
        &self,
        index: usize,
        templates: &[Value],
        needed: &[bool],
    ) -> Result<Record> {
        if index >= self.row_count {
            return Err(LayoutError::Unsupported(format!(
                "element {index} out of range ({} rows in `{}`)",
                self.row_count, self.name
            )));
        }
        match &self.encoding {
            ObjectEncoding::Rows => {
                let mut remaining = index;
                for page_id in self.heap.page_ids()? {
                    let frame = self.heap.pager().read_frame(page_id)?;
                    let reader =
                        rodentstore_storage::slotted::SlottedReader::over(frame.data(), frame.id());
                    let slots = reader.slot_count();
                    if remaining < slots {
                        return decode_record_subset(reader.get(remaining)?, needed);
                    }
                    remaining -= slots;
                }
                Err(LayoutError::Corrupted(format!(
                    "row {index} beyond the stored pages of `{}`",
                    self.name
                )))
            }
            ObjectEncoding::Folded { key_fields } => {
                let key_fields = *key_fields;
                let mut remaining = index;
                for page_id in self.heap.page_ids()? {
                    let frame = self.heap.pager().read_frame(page_id)?;
                    let reader =
                        rodentstore_storage::slotted::SlottedReader::over(frame.data(), frame.id());
                    for slot in 0..reader.slot_count() {
                        let folded = decode_record(reader.get(slot)?)?;
                        let (key, nested) = split_folded(&folded, key_fields, &self.name)?;
                        if remaining < nested.len() {
                            return stitch_folded_row(key, &nested[remaining]);
                        }
                        remaining -= nested.len();
                    }
                }
                Err(LayoutError::Corrupted(format!(
                    "row {index} beyond the folded groups of `{}`",
                    self.name
                )))
            }
            ObjectEncoding::ColumnBlocks { .. } => self.read_block_row_at(index, templates, needed),
        }
    }

    /// Positional access within a column-block object: walks the chunks by
    /// their block-header row counts and decodes only the needed blocks of
    /// the containing chunk.
    fn read_block_row_at(
        &self,
        index: usize,
        templates: &[Value],
        needed: &[bool],
    ) -> Result<Record> {
        let mut reader = ChunkReader::new(self, needed)?;
        while reader.next_chunk()? {
            if index < reader.end() {
                let at = index - reader.start;
                let mut row = vec![Value::Null; self.fields.len()];
                for (f, value) in row.iter_mut().enumerate() {
                    if needed.get(f).copied().unwrap_or(false) {
                        reader.decode(f)?;
                        let template = templates.get(f).unwrap_or(&Value::Null);
                        *value = column_field(reader.col(f), template, at).to_value()?;
                    }
                }
                return Ok(row);
            }
        }
        Err(LayoutError::Corrupted(format!(
            "row {index} beyond the stored blocks of `{}`",
            self.name
        )))
    }

    /// Writes tuples (already restricted to this object's fields, in object
    /// field order) into the heap file. For row-encoded objects the returned
    /// vector names where each tuple landed (empty for block encodings, whose
    /// records are not slot-addressable).
    pub fn write_rows(&mut self, rows: &[Record]) -> Result<Vec<RecordId>> {
        let mut placed = Vec::new();
        match &self.encoding {
            ObjectEncoding::Folded { .. } => {
                return Err(LayoutError::Unsupported(
                    "folded objects are written by the renderer, not row-by-row".into(),
                ));
            }
            ObjectEncoding::Rows => {
                placed.reserve(rows.len());
                for row in rows {
                    placed.push(self.heap.append(&encode_record(row))?);
                }
            }
            ObjectEncoding::ColumnBlocks { block_rows } => {
                let block_rows = (*block_rows).max(1);
                let max_block = rodentstore_storage::slotted::max_record_len(
                    self.heap.pager().page_size(),
                );
                for chunk in rows.chunks(block_rows) {
                    self.write_column_chunk(chunk, max_block)?;
                }
            }
        }
        self.row_count += rows.len();
        self.heap.flush()?;
        Ok(placed)
    }

    /// Encodes one chunk of rows as per-field column blocks. Chunks whose
    /// encoded blocks would not fit in a page are split recursively so the
    /// chosen block size never violates the page capacity.
    fn write_column_chunk(&self, chunk: &[Record], max_block: usize) -> Result<()> {
        let mut blocks = Vec::with_capacity(self.fields.len());
        for (f, field) in self.fields.iter().enumerate() {
            let values: Vec<Value> = chunk.iter().map(|r| r[f].clone()).collect();
            let column = values_to_column(&values);
            let codec = self
                .codecs
                .get(field)
                .copied()
                .unwrap_or(CodecKind::Plain)
                .build();
            blocks.push(codec.encode(&column)?);
        }
        if blocks.iter().any(|b| b.len() > max_block) && chunk.len() > 1 {
            let mid = chunk.len() / 2;
            self.write_column_chunk(&chunk[..mid], max_block)?;
            self.write_column_chunk(&chunk[mid..], max_block)?;
            return Ok(());
        }
        for block in blocks {
            self.heap.append(&block)?;
        }
        Ok(())
    }
}

/// Streams the chunks of one column-block object — the one decoder every
/// column-block read path (scans, folds, positional access) goes through.
///
/// A chunk is one encoded block per field, in field order, and may straddle
/// pages; the reader walks the object's pages in order (every page is read
/// exactly once, whether or not anything on it is decoded), learns a chunk's
/// row count from a block header, and decodes a field's block only when
/// [`ChunkReader::decode`] asks for it — straight from the page frame into a
/// typed buffer it reuses for the next chunk.
pub(crate) struct ChunkReader<'a> {
    obj: &'a StoredObject,
    codecs: Vec<Box<dyn ColumnCodec>>,
    needed: Vec<bool>,
    pages: Vec<PageId>,
    next_page: usize,
    /// Frames holding the current chunk's blocks; `slot` is the next unread
    /// slot of the last one.
    frames: Vec<PageFrame>,
    slot: usize,
    /// `(frame, slot)` of each field's block in the current chunk; empty
    /// before the first chunk and after the last.
    blocks: Vec<(usize, usize)>,
    cols: Vec<ColumnData>,
    decoded: Vec<bool>,
    chunk: usize,
    /// Object row position of the current chunk's first row.
    pub(crate) start: usize,
    len: usize,
}

/// The block in slot `slot` of `frames[frame]`.
fn block_at(frames: &[PageFrame], (frame, slot): (usize, usize)) -> Result<&[u8]> {
    let frame = &frames[frame];
    Ok(SlottedReader::over(frame.data(), frame.id()).get(slot)?)
}

impl<'a> ChunkReader<'a> {
    /// Opens a reader that will decode (at most) the fields marked `needed`.
    pub(crate) fn new(obj: &'a StoredObject, needed: &[bool]) -> Result<ChunkReader<'a>> {
        let ncols = obj.fields.len();
        let codec = |f: &String| obj.codecs.get(f).copied().unwrap_or(CodecKind::Plain).build();
        Ok(ChunkReader {
            obj,
            codecs: obj.fields.iter().map(codec).collect(),
            needed: (0..ncols).map(|f| needed.get(f).copied().unwrap_or(false)).collect(),
            pages: obj.heap.page_ids()?,
            next_page: 0,
            frames: Vec::new(),
            slot: 0,
            blocks: Vec::with_capacity(ncols),
            cols: (0..ncols).map(|_| ColumnData::Ints(Vec::new())).collect(),
            decoded: vec![false; ncols],
            chunk: 0,
            start: 0,
            len: 0,
        })
    }

    /// Object row position one past the current chunk's last row.
    pub(crate) fn end(&self) -> usize {
        self.start + self.len
    }

    /// Moves to the next chunk; `false` once the object is exhausted. The
    /// chunk's row count comes from the header of its first needed block, so
    /// a chunk nobody decodes costs a header read.
    pub(crate) fn next_chunk(&mut self) -> Result<bool> {
        if !self.blocks.is_empty() {
            let skipped = self.needed.iter().zip(&self.decoded).filter(|(n, d)| **n && !**d);
            self.obj.heap.pager().record_chunk(skipped.count() as u64);
            self.chunk += 1;
            self.blocks.clear();
        }
        self.start += self.len;
        self.len = 0;
        // Only the last frame can still hold unread blocks.
        self.frames.drain(..self.frames.len().saturating_sub(1));
        let ncols = self.obj.fields.len();
        while self.blocks.len() < ncols {
            let unread = self.frames.last().is_some_and(|frame| {
                self.slot < SlottedReader::over(frame.data(), frame.id()).slot_count()
            });
            if unread {
                self.blocks.push((self.frames.len() - 1, self.slot));
                self.slot += 1;
                continue;
            }
            let Some(&page_id) = self.pages.get(self.next_page) else {
                let trailing = std::mem::take(&mut self.blocks).len();
                if trailing == 0 && self.start == self.obj.row_count {
                    return Ok(false);
                }
                return Err(LayoutError::Corrupted(format!(
                    "object `{}` ends after {} rows and {trailing} trailing blocks; it should \
                     hold {} rows in chunks of {ncols} blocks",
                    self.obj.name, self.start, self.obj.row_count
                )));
            };
            self.next_page += 1;
            self.frames.push(self.obj.heap.pager().read_frame(page_id)?);
            self.slot = 0;
        }
        if ncols == 0 {
            return Ok(false);
        }
        self.decoded.fill(false);
        let probe = self.needed.iter().position(|&n| n).unwrap_or(0);
        self.len = self.codecs[probe].count(block_at(&self.frames, self.blocks[probe])?)?;
        Ok(true)
    }

    /// Decodes field `f` of the current chunk (once; later calls are free).
    /// A block whose row count disagrees with the chunk's is corruption.
    pub(crate) fn decode(&mut self, f: usize) -> Result<()> {
        if !self.decoded[f] {
            let block = block_at(&self.frames, self.blocks[f])?;
            self.codecs[f].decode_into(block, &mut self.cols[f])?;
            if self.cols[f].len() != self.len {
                return Err(LayoutError::Corrupted(format!(
                    "chunk {} of object `{}` is ragged: field `{}` holds {} rows, the chunk {}",
                    self.chunk,
                    self.obj.name,
                    self.obj.fields[f],
                    self.cols[f].len(),
                    self.len
                )));
            }
            self.decoded[f] = true;
        }
        Ok(())
    }

    /// Field `f` of the current chunk; meaningful only after
    /// [`ChunkReader::decode`] succeeded for it.
    pub(crate) fn col(&self, f: usize) -> &ColumnData {
        &self.cols[f]
    }
}

/// A fully rendered physical layout.
pub struct PhysicalLayout {
    /// Name of the layout (usually the table name plus a layout suffix).
    pub name: String,
    /// The algebra expression that produced the layout.
    pub expr: LayoutExpr,
    /// Output logical schema exposed to readers.
    pub schema: Schema,
    /// Physical properties derived during validation.
    pub derived: DerivedLayout,
    /// The stored objects, in storage order.
    pub objects: Vec<StoredObject>,
    /// Total number of logical tuples.
    pub row_count: usize,
    /// Secondary index declared with the `index[...]` operator, if any.
    pub index: Option<StoredIndex>,
    /// Levelled write tier declared with the `lsm[...]` operator, if any.
    /// Holds the rows appended after the bulk render; `row_count` above
    /// counts them, so `base_row_count()` is what the objects hold.
    pub lsm: Option<LsmState>,
    pager: Arc<Pager>,
}

impl std::fmt::Debug for PhysicalLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysicalLayout")
            .field("name", &self.name)
            .field("rows", &self.row_count)
            .field("objects", &self.objects.len())
            .field("pages", &self.total_pages())
            .field("index", &self.index)
            .finish()
    }
}

impl PhysicalLayout {
    /// Assembles a layout from its parts (used by the renderer).
    pub fn new(
        name: String,
        expr: LayoutExpr,
        schema: Schema,
        derived: DerivedLayout,
        objects: Vec<StoredObject>,
        row_count: usize,
        pager: Arc<Pager>,
    ) -> PhysicalLayout {
        PhysicalLayout {
            name,
            expr,
            schema,
            derived,
            objects,
            row_count,
            index: None,
            lsm: None,
            pager,
        }
    }

    /// Number of tuples held by the stored objects alone, excluding the
    /// levelled tier's runs and memtable. Equal to `row_count` for layouts
    /// without an `lsm[...]` tier.
    pub fn base_row_count(&self) -> usize {
        self.row_count - self.lsm.as_ref().map(LsmState::rows).unwrap_or(0)
    }

    /// The pager holding this layout's pages.
    pub fn pager(&self) -> &Arc<Pager> {
        &self.pager
    }

    /// Clones this layout into an independently appendable handle that
    /// *shares* the current sealed pages.
    ///
    /// The fork is how appends proceed while readers may still hold the
    /// original: its heap files reference the same page ids, but the tails
    /// and the index tree are adopted *protected*, so the fork's first
    /// append relocates them onto fresh pages instead of rewriting a page a
    /// concurrent reader of the original could be scanning. After the fork
    /// is published in the original's place, the pages it vacated (drained
    /// via [`PhysicalLayout::take_relocated`] on the fork) plus the
    /// original's private pages are exactly what the original still owns.
    ///
    /// Dirty tails are flushed first so the fork can re-read them through
    /// the pager; the original is left logically untouched.
    pub fn fork_for_append(&self) -> Result<PhysicalLayout> {
        let mut objects = Vec::with_capacity(self.objects.len());
        for o in &self.objects {
            o.heap.flush()?;
            let heap = HeapFile::from_pages_with_tail(
                o.heap.name().to_string(),
                Arc::clone(&self.pager),
                o.heap.extent(),
                o.heap.record_count(),
                o.heap.tail_valid_slots(),
            )?;
            objects.push(StoredObject {
                name: o.name.clone(),
                fields: o.fields.clone(),
                heap,
                encoding: o.encoding.clone(),
                codecs: o.codecs.clone(),
                cell: o.cell.clone(),
                row_count: o.row_count,
                ordering: o.ordering.clone(),
            });
        }
        let index = match &self.index {
            Some(idx) => {
                idx.protect();
                Some(StoredIndex::from_parts(
                    Arc::clone(&self.pager),
                    idx.kind_name(),
                    idx.fields.clone(),
                    idx.key_kinds.clone(),
                    idx.root(),
                    idx.len(),
                    idx.height(),
                    idx.outliers.clone(),
                )?)
            }
            None => None,
        };
        let mut fork = PhysicalLayout::new(
            self.name.clone(),
            self.expr.clone(),
            self.schema.clone(),
            self.derived.clone(),
            objects,
            self.row_count,
            Arc::clone(&self.pager),
        );
        fork.index = index;
        fork.lsm = self.lsm.as_ref().map(|l| l.fork(&self.pager));
        Ok(fork)
    }

    /// Drains the relocation notes of every object heap and of the index
    /// tree: the pages this layout stopped referencing since the last drain.
    pub fn take_relocated(&self) -> Vec<rodentstore_storage::page::PageId> {
        let mut pages = Vec::new();
        for o in &self.objects {
            pages.extend(o.heap.take_relocated());
        }
        if let Some(idx) = &self.index {
            pages.extend(idx.take_relocated());
        }
        if let Some(lsm) = &self.lsm {
            pages.extend(lsm.take_relocated());
        }
        pages
    }

    /// Drains the levelled tier's relocation notes wholesale, shared tokens
    /// included (see [`LsmState::take_relocation_notes`]). Empty for layouts
    /// without a tier.
    pub fn take_lsm_relocation_notes(
        &self,
    ) -> Vec<(std::sync::Arc<()>, Vec<rodentstore_storage::page::PageId>)> {
        self.lsm
            .as_ref()
            .map(LsmState::take_relocation_notes)
            .unwrap_or_default()
    }

    /// Drains the levelled tier's structural-work journal (spills, merges,
    /// absorb timings) for the engine's observability layer. Empty for
    /// layouts without a tier.
    pub fn take_lsm_activity(&self) -> Vec<crate::lsm::LsmActivity> {
        self.lsm
            .as_ref()
            .map(LsmState::take_activity)
            .unwrap_or_default()
    }

    /// Every page currently referenced by this layout: object heap extents
    /// (tails included) plus the index tree.
    pub fn extent_pages(&self) -> Result<Vec<rodentstore_storage::page::PageId>> {
        let mut pages = Vec::new();
        for o in &self.objects {
            pages.extend(o.heap.extent());
        }
        if let Some(idx) = &self.index {
            pages.extend(idx.page_ids()?);
        }
        if let Some(lsm) = &self.lsm {
            pages.extend(lsm.extent_pages());
        }
        Ok(pages)
    }

    /// (Re)builds the declared index from the stored objects; a no-op when
    /// the expression declares none. Recovery paths that reattach objects
    /// without a usable index manifest call this to restore pushdown.
    pub fn rebuild_index(&mut self) -> Result<()> {
        if let Some(fields) = self.derived.index.clone() {
            self.index = Some(crate::index::build_index(self, &fields)?);
        }
        Ok(())
    }

    /// Total number of pages across all objects and levelled-tier runs.
    pub fn total_pages(&self) -> usize {
        self.objects.iter().map(StoredObject::page_count).sum::<usize>()
            + self.lsm.as_ref().map(LsmState::total_pages).unwrap_or(0)
    }

    /// Whether the layout is gridded (objects are cells with bounds).
    pub fn is_gridded(&self) -> bool {
        self.objects.iter().any(|o| o.cell.is_some())
    }

    /// Whether the layout splits fields across multiple objects (as opposed
    /// to horizontal partitions, where every object carries the full schema).
    pub fn is_vertically_partitioned(&self) -> bool {
        !self.is_gridded()
            && self.objects.len() > 1
            && self
                .objects
                .iter()
                .any(|o| o.fields.len() != self.schema.arity())
    }

    /// Sort orders this layout can deliver without re-sorting
    /// (the `order_list` access method of the paper).
    pub fn order_list(&self) -> Vec<Vec<SortKey>> {
        self.derived.orderings.clone()
    }

    pub(crate) fn templates_for(&self, fields: &[String]) -> Vec<Value> {
        fields
            .iter()
            .map(|f| match self.schema.field(f) {
                Ok(fd) => template_value(&fd.ty),
                Err(_) => Value::Int(0),
            })
            .collect()
    }

    /// Indices of the objects a scan with the given predicate must read.
    /// Grid layouts prune cells outside the predicate's ranges; vertically
    /// partitioned layouts prune objects holding none of the needed fields.
    pub fn objects_to_read(
        &self,
        fields: Option<&[String]>,
        predicate: Option<&Condition>,
    ) -> Vec<usize> {
        let ranges = predicate.map(extract_ranges).unwrap_or_default();
        let mut needed_fields: Option<Vec<String>> = fields.map(|f| f.to_vec());
        if let (Some(needed), Some(pred)) = (&mut needed_fields, predicate) {
            for f in pred.referenced_fields() {
                if !needed.contains(&f) {
                    needed.push(f);
                }
            }
        }
        self.objects
            .iter()
            .enumerate()
            .filter(|(_, obj)| {
                if let Some(cell) = &obj.cell {
                    if !cell.intersects(&ranges) {
                        return false;
                    }
                }
                if let Some(needed) = &needed_fields {
                    if self.objects.len() > 1 && obj.cell.is_none() {
                        return obj.fields.iter().any(|f| needed.contains(f));
                    }
                }
                true
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Estimated number of pages a scan would read, without performing it.
    /// When the declared index covers the predicate, the estimate probes it
    /// and counts the tree pages plus the distinct heap pages holding
    /// candidate rows — the number the indexed scan path actually reads.
    pub fn estimate_scan_pages(
        &self,
        fields: Option<&[String]>,
        predicate: Option<&Condition>,
    ) -> u64 {
        // Levelled-tier runs are merged into every scan: non-pruned run pages
        // are read on top of whatever the base costs (the memtable is
        // in-memory and costs no pages).
        let lsm_pages = match (&self.lsm, predicate) {
            (Some(lsm), pred) => {
                let ranges = pred.map(extract_ranges).unwrap_or_default();
                lsm.runs
                    .iter()
                    .filter(|r| r.may_match(&lsm.key, &ranges))
                    .map(|r| r.heap.page_count() as u64)
                    .sum()
            }
            (None, _) => 0u64,
        };
        if let (Some(pred), Some(idx)) = (predicate, &self.index) {
            let ranges = extract_ranges(pred);
            if idx.covers(&ranges) {
                if let Ok(pages) = self.index_scan_pages(idx, &ranges) {
                    return pages + lsm_pages;
                }
            }
        }
        self.objects_to_read(fields, predicate)
            .iter()
            .map(|&i| self.objects[i].page_count() as u64)
            .sum::<u64>()
            + lsm_pages
    }

    fn index_scan_pages(
        &self,
        idx: &StoredIndex,
        ranges: &HashMap<String, (f64, f64)>,
    ) -> Result<u64> {
        let node_pages = idx.probe_node_pages(ranges)? as u64;
        let positions = idx.probe(ranges)?;
        let mut heap_pages = 0u64;
        let mut last: Option<(usize, usize)> = None;
        for pos in positions {
            let (obj, page, _) = crate::index::unpack_pos(pos);
            if last != Some((obj, page)) {
                heap_pages += 1;
                last = Some((obj, page));
            }
        }
        Ok(node_pages + heap_pages)
    }

    /// Opens a lazy, decode-on-demand scan over the layout: records are
    /// yielded in storage order, already filtered by `predicate` and
    /// projected to `fields`, decoding pages and column blocks only as the
    /// iterator advances. See [`ScanIter`].
    pub fn scan_iter(
        &self,
        fields: Option<&[String]>,
        predicate: Option<&Condition>,
    ) -> Result<ScanIter<'_>> {
        ScanIter::new(self, fields, predicate)
    }

    /// Scans the layout, optionally projecting to `fields` and filtering with
    /// `predicate`. Results are returned in storage order. Cursors whose
    /// rows are already final (the borrowed pushdown path) write them
    /// straight into the result — see [`ScanIter::collect_rows`].
    pub fn scan(
        &self,
        fields: Option<&[String]>,
        predicate: Option<&Condition>,
    ) -> Result<Vec<Record>> {
        self.scan_iter(fields, predicate)?.collect_rows()
    }

    /// Folds the rows matching `predicate` into fixed-width buckets without
    /// materializing a result set: the scan projects only the bucket and
    /// value fields, and on the borrowed path (row pages and column chunks
    /// alike) the fold runs inside the cursor's loop, so no output `Record`
    /// is ever allocated.
    pub fn scan_aggregate(
        &self,
        spec: &crate::aggregate::WindowedAggregate,
        predicate: Option<&Condition>,
    ) -> Result<crate::aggregate::WindowAccumulator> {
        spec.validate()?;
        let mut fields = vec![spec.bucket_field.clone()];
        if spec.value_field != spec.bucket_field {
            fields.push(spec.value_field.clone());
        }
        let mut iter = self.scan_iter(Some(&fields), predicate)?;
        iter.fold_windowed(spec)
    }

    /// Returns the tuple at `position` (in storage order), optionally
    /// projected — the `getElement` access method. Only the containing
    /// row/block of each relevant object is decoded; vertically partitioned
    /// layouts no longer stitch the whole relation to serve one element.
    pub fn get_element(
        &self,
        position: usize,
        fields: Option<&[String]>,
    ) -> Result<Record> {
        if position >= self.row_count {
            return Err(LayoutError::Unsupported(format!(
                "element {position} out of range ({} rows)",
                self.row_count
            )));
        }
        let out_fields: Vec<String> = match fields {
            Some(f) => f.to_vec(),
            None => self.schema.field_names(),
        };
        let out_indices = self.schema.indices_of(&out_fields).map_err(LayoutError::Algebra)?;

        // Positions past the stored base fall into the levelled tier, which
        // serves them in its scan order (runs, then memtable).
        if position >= self.base_row_count() {
            if let Some(lsm) = &self.lsm {
                let row = lsm.row_at(position - self.base_row_count())?.ok_or_else(|| {
                    LayoutError::Corrupted(format!(
                        "lsm tier of `{}` does not cover element {position}",
                        self.name
                    ))
                })?;
                return Ok(out_indices.iter().map(|&i| row[i].clone()).collect());
            }
        }

        if self.is_vertically_partitioned() {
            // Fetch the element of every object holding a requested field and
            // stitch just that one row.
            let mut full = vec![Value::Null; self.schema.arity()];
            for obj in &self.objects {
                let needed: Vec<bool> = obj
                    .fields
                    .iter()
                    .map(|f| out_fields.iter().any(|o| o == f))
                    .collect();
                if !needed.iter().any(|&b| b) {
                    continue;
                }
                if obj.row_count != self.base_row_count() {
                    return Err(LayoutError::Corrupted(format!(
                        "object `{}` has {} rows, layout has {}",
                        obj.name,
                        obj.row_count,
                        self.base_row_count()
                    )));
                }
                let templates = self.templates_for(&obj.fields);
                let mut row = obj.read_row_at(position, &templates, &needed)?;
                for (j, f) in obj.fields.iter().enumerate() {
                    if needed[j] {
                        let idx = self.schema.index_of(f).map_err(LayoutError::Algebra)?;
                        full[idx] = std::mem::replace(&mut row[j], Value::Null);
                    }
                }
            }
            return Ok(out_indices.iter().map(|&i| full[i].clone()).collect());
        }

        // Locate the object containing the position; objects hold full
        // tuples in the layout schema's field order.
        let needed: Vec<bool> = self
            .schema
            .field_names()
            .iter()
            .map(|f| out_fields.iter().any(|o| o == f))
            .collect();
        let mut remaining = position;
        for obj in &self.objects {
            if remaining < obj.row_count {
                let templates = self.templates_for(&obj.fields);
                let row = obj.read_row_at(remaining, &templates, &needed)?;
                return Ok(out_indices.iter().map(|&i| row[i].clone()).collect());
            }
            remaining -= obj.row_count;
        }
        Err(LayoutError::Corrupted(
            "row counts of objects do not cover the layout".into(),
        ))
    }
}

/// A template value of the right variant for a data type, used to restore
/// value variants when decoding column blocks.
pub fn template_value(ty: &DataType) -> Value {
    match ty.unwrap_named() {
        DataType::Float => Value::Float(0.0),
        DataType::Bool => Value::Bool(false),
        DataType::String => Value::Str(String::new()),
        DataType::Timestamp => Value::Timestamp(0),
        _ => Value::Int(0),
    }
}

/// Extracts per-field numeric ranges from a predicate: `Range` conditions and
/// comparison conditions against literals, combined under top-level `And`s.
/// Disjunctions contribute nothing (conservative — no pruning).
pub fn extract_ranges(predicate: &Condition) -> HashMap<String, (f64, f64)> {
    let mut ranges: HashMap<String, (f64, f64)> = HashMap::new();
    collect_ranges(predicate, &mut ranges);
    ranges
}

fn tighten(ranges: &mut HashMap<String, (f64, f64)>, field: &str, lo: f64, hi: f64) {
    let entry = ranges
        .entry(field.to_string())
        .or_insert((f64::NEG_INFINITY, f64::INFINITY));
    entry.0 = entry.0.max(lo);
    entry.1 = entry.1.min(hi);
}

fn collect_ranges(cond: &Condition, ranges: &mut HashMap<String, (f64, f64)>) {
    match cond {
        Condition::Range { field, lo, hi } => {
            if let (Some(lo), Some(hi)) = (lo.as_f64(), hi.as_f64()) {
                tighten(ranges, field, lo, hi);
            }
        }
        Condition::Cmp { left, op, right } => {
            if let (ElemExpr::Field(field), ElemExpr::Literal(lit)) = (left, right) {
                if let Some(v) = lit.as_f64() {
                    match op {
                        CmpOp::Eq => tighten(ranges, field, v, v),
                        CmpOp::Le | CmpOp::Lt => tighten(ranges, field, f64::NEG_INFINITY, v),
                        CmpOp::Ge | CmpOp::Gt => tighten(ranges, field, v, f64::INFINITY),
                        CmpOp::Ne => {}
                    }
                }
            }
        }
        Condition::And(items) => {
            for c in items {
                collect_ranges(c, ranges);
            }
        }
        Condition::True | Condition::Or(_) | Condition::Not(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_extraction_from_conjunctions() {
        let pred = Condition::range("lat", 42.0, 42.5)
            .and(Condition::range("lon", -71.2, -71.0))
            .and(Condition::eq("id", 7i64));
        let ranges = extract_ranges(&pred);
        assert_eq!(ranges["lat"], (42.0, 42.5));
        assert_eq!(ranges["lon"], (-71.2, -71.0));
        assert_eq!(ranges["id"], (7.0, 7.0));
    }

    #[test]
    fn disjunctions_do_not_prune() {
        let pred = Condition::Or(vec![
            Condition::range("lat", 0.0, 1.0),
            Condition::range("lat", 5.0, 6.0),
        ]);
        assert!(extract_ranges(&pred).is_empty());
    }

    #[test]
    fn repeated_constraints_tighten() {
        let pred = Condition::range("x", 0.0, 10.0).and(Condition::range("x", 5.0, 20.0));
        assert_eq!(extract_ranges(&pred)["x"], (5.0, 10.0));
    }

    #[test]
    fn cell_bounds_intersection() {
        let cell = CellBounds {
            dims: vec![
                ("lat".into(), 42.0, 42.1),
                ("lon".into(), -71.1, -71.0),
            ],
            coords: vec![3, 4],
        };
        let mut ranges = HashMap::new();
        ranges.insert("lat".to_string(), (42.05, 42.2));
        assert!(cell.intersects(&ranges));
        ranges.insert("lon".to_string(), (-70.5, -70.0));
        assert!(!cell.intersects(&ranges));
        // Unconstrained dimensions never prune.
        assert!(cell.intersects(&HashMap::new()));
    }

    #[test]
    fn template_values_match_types() {
        assert_eq!(template_value(&DataType::Float), Value::Float(0.0));
        assert_eq!(template_value(&DataType::Timestamp), Value::Timestamp(0));
        assert_eq!(template_value(&DataType::String), Value::Str(String::new()));
        assert_eq!(
            template_value(&DataType::named("x", DataType::Bool)),
            Value::Bool(false)
        );
    }
}
