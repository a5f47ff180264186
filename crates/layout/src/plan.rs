//! Physical layouts: stored objects and their read paths.
//!
//! Rendering a storage-algebra expression produces a [`PhysicalLayout`]: a
//! set of [`StoredObject`]s (heap files holding rows or compressed column
//! blocks, optionally tagged with grid-cell bounds) plus the derived
//! description of the layout's properties. The read paths implemented here —
//! scans with projection/predicates, element access, and page estimation —
//! are what the access-method API in `rodentstore_exec` exposes to a query
//! processor.

use crate::directory::{fence_of, intersect, ChunkDirectory, ChunkEntry, Fence};
use crate::index::StoredIndex;
use crate::lsm::LsmState;
use crate::rowcodec::{encode_record_into, values_to_column};
use crate::scan::{ScanIter, ScanPlan};
use crate::{LayoutError, Result};
use rodentstore_algebra::comprehension::{CmpOp, Condition, ElemExpr};
use rodentstore_algebra::expr::{GridDim, LayoutExpr, SortKey};
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
    /// A dimension bounded by `(-inf, inf)` is *unbounded*: the cell holds
    /// the rows no lattice cell can place along it — a NaN, infinite or
    /// non-numeric gridded value — and no range prunes it there.
    pub dims: Vec<(String, f64, f64)>,
    /// Integer cell coordinates along each dimension (used for curve
    /// ordering and diagnostics).
    pub coords: Vec<u32>,
}

impl CellBounds {
    /// Whether the cell can contain tuples satisfying the given per-field
    /// ranges (missing fields and unbounded dimensions are unconstrained).
    pub fn intersects(&self, ranges: &HashMap<String, (f64, f64)>) -> bool {
        for (field, lo, hi) in &self.dims {
            if let Some((qlo, qhi)) = ranges.get(field) {
                if lo.is_finite() && (*hi <= *qlo || *lo > *qhi) {
                    return false;
                }
            }
        }
        true
    }
}

/// What the layout's object index is keyed by: the signed lattice
/// coordinate of a grid cell, `None` along a dimension the cell leaves
/// unbounded, or the label of a horizontal partition. Appends route rows
/// through it, and range scans find grid cells by it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Target {
    Cell(Vec<Option<i64>>),
    Label(String),
}

/// Indexes a layout's objects by [`Target`]; the first object holding a key
/// wins. A grid cell's key is recomputed from its bounds, not taken from
/// [`CellBounds::coords`], which clamps every cell below the origin to 0.
fn object_targets(
    derived: &DerivedLayout,
    objects: &[Arc<StoredObject>],
) -> HashMap<Target, usize> {
    let lattice = derived
        .grid
        .as_deref()
        .map(|dims| (dims, lattice_origin(objects, dims)));
    let mut targets = HashMap::new();
    for (i, obj) in objects.iter().enumerate() {
        let key = match (&lattice, &obj.cell) {
            (Some((dims, origins)), Some(cell)) if cell.dims.len() == dims.len() => Target::Cell(
                dims.iter()
                    .enumerate()
                    .map(|(d, dim)| {
                        let lo = cell.dims[d].1;
                        let origin = origins[d].filter(|_| lo.is_finite())?;
                        Some(((lo - origin) / dim.stride).round() as i64)
                    })
                    .collect(),
            ),
            _ => match obj.name.split_once('=') {
                // Partition objects are named `{layout}/part{p}={label}`.
                Some((_, label)) if derived.partitioned => Target::Label(label.to_string()),
                _ => continue,
            },
        };
        targets.entry(key).or_insert(i);
    }
    targets
}

/// The grid's lattice origin along each dimension, recovered from the
/// first cell bounded along it as `lo − coord·stride`; `None` along a
/// dimension no cell bounds. A cell whose coordinate was clamped to 0
/// shifts it by whole strides, so it is a lattice point either way.
pub(crate) fn lattice_origin(objects: &[Arc<StoredObject>], dims: &[GridDim]) -> Vec<Option<f64>> {
    (0..dims.len())
        .map(|d| {
            objects.iter().find_map(|o| {
                let cell = o.cell.as_ref().filter(|c| {
                    c.dims.len() == dims.len() && c.coords.len() == dims.len()
                })?;
                let lo = cell.dims[d].1;
                lo.is_finite()
                    .then(|| lo - f64::from(cell.coords[d]) * dims[d].stride)
            })
        })
        .collect()
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
    /// Where each chunk starts and which values it holds — kept by every
    /// column-block object outside a grid (see [`has_chunk_directory`]),
    /// `None` for every other object.
    pub chunks: Option<ChunkDirectory>,
}

/// Whether objects of this encoding and cell keep a [`ChunkDirectory`]:
/// column blocks outside a grid, in the base or in an lsm run. A grid
/// cell's bounds already fence it, and row pages and folded groups have no
/// chunks.
pub fn has_chunk_directory(encoding: &ObjectEncoding, cell: Option<&CellBounds>) -> bool {
    matches!(encoding, ObjectEncoding::ColumnBlocks { .. }) && cell.is_none()
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
    /// An empty object, ready for [`StoredObject::write_rows`]; it keeps a
    /// chunk directory when [`has_chunk_directory`] says so.
    pub fn new(
        name: String,
        fields: Vec<String>,
        heap: HeapFile,
        encoding: ObjectEncoding,
        codecs: HashMap<String, CodecKind>,
        cell: Option<CellBounds>,
    ) -> StoredObject {
        let chunks = has_chunk_directory(&encoding, cell.as_ref())
            .then(|| ChunkDirectory::new(fields.len()));
        StoredObject {
            name,
            fields,
            heap,
            encoding,
            codecs,
            cell,
            row_count: 0,
            chunks,
        }
    }

    /// A writable copy of this object over the same pages. The dirty tail
    /// is flushed first so the copy can re-read it through the pager, and
    /// the copy adopts it *protected*: its first append relocates the tail
    /// onto a fresh page instead of rewriting one a reader of the original
    /// could be scanning.
    fn fork(&self) -> Result<StoredObject> {
        self.heap.flush()?;
        let heap = HeapFile::from_pages_with_tail(
            self.heap.name().to_string(),
            Arc::clone(self.heap.pager()),
            self.heap.extent(),
            self.heap.record_count(),
            self.heap.tail_valid_slots(),
        )?;
        Ok(StoredObject {
            name: self.name.clone(),
            fields: self.fields.clone(),
            heap,
            encoding: self.encoding.clone(),
            codecs: self.codecs.clone(),
            cell: self.cell.clone(),
            row_count: self.row_count,
            chunks: self.chunks.clone(),
        })
    }

    /// Number of pages the object occupies.
    pub fn page_count(&self) -> usize {
        self.heap.page_count()
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
                let mut encoded = Vec::new();
                for row in rows {
                    encoded.clear();
                    encode_record_into(row, &mut encoded);
                    placed.push(self.heap.append(&encoded)?);
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
    /// chosen block size never violates the page capacity. Every chunk
    /// written extends the directory, if the object keeps one.
    fn write_column_chunk(&mut self, chunk: &[Record], max_block: usize) -> Result<()> {
        let mut columns = Vec::with_capacity(self.fields.len());
        let mut blocks = Vec::with_capacity(self.fields.len());
        for (f, field) in self.fields.iter().enumerate() {
            let values: Vec<Value> = chunk.iter().map(|r| r[f].clone()).collect();
            let column = values_to_column(&values);
            let codec = self.codecs.get(field).copied().unwrap_or(CodecKind::Plain);
            blocks.push(codec.build().encode(&column)?);
            columns.push((codec, column));
        }
        if blocks.iter().any(|b| b.len() > max_block) && chunk.len() > 1 {
            let mid = chunk.len() / 2;
            self.write_column_chunk(&chunk[..mid], max_block)?;
            self.write_column_chunk(&chunk[mid..], max_block)?;
            return Ok(());
        }
        let mut first = None;
        for block in &blocks {
            let at = self.heap.append(block)?;
            first.get_or_insert(at);
        }
        if let (Some(dir), Some(first)) = (&mut self.chunks, first) {
            let fences = columns
                .iter()
                .zip(&blocks)
                .map(|((codec, column), block)| chunk_fence(*codec, column, block))
                .collect::<Result<Vec<_>>>()?;
            let entry = ChunkEntry {
                rows: chunk.len(),
                first,
            };
            dir.push(entry, fences);
        }
        Ok(())
    }
}

/// The fence of a column block encoded by `codec` from `column`. A fence
/// must describe what a reader decodes. Every codec gives back the column it
/// was handed except `delta` over floats, which rounds to its 10⁻⁶ quantum,
/// so only that block is decoded to fence it.
fn chunk_fence(codec: CodecKind, column: &ColumnData, block: &[u8]) -> Result<Fence> {
    Ok(match (codec, column) {
        (CodecKind::Delta, ColumnData::Floats(_)) => fence_of(&codec.build().decode(block)?),
        _ => fence_of(column),
    })
}

/// Streams the chunks of one column-block object for a scan cursor — the
/// one decoder of column blocks; scans, folds and positional gets (a
/// one-row scan) all read through it.
///
/// A chunk is one encoded block per field, in field order, and may straddle
/// pages; the reader moves from chunk to chunk in storage order, reading
/// each page it needs once — a page one chunk ends on and the next begins on
/// is not read twice — or [`ChunkReader::seek`]s forward, jumping through
/// the object's chunk directory over the chunks in between without reading
/// their pages. It learns a chunk's row count from a block header (checked
/// against the directory) and decodes a field's block only when
/// [`ChunkReader::decode`] asks for it — straight from the page frame into a
/// typed buffer it reuses for the next chunk, and, after a
/// [`ChunkReader::reset`], for the next object of the same shape.
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
    /// Chunks [`ChunkReader::seek`] jumped over without reading them, not
    /// yet taken by [`ChunkReader::take_jumped`].
    jumped: usize,
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
    /// A reader for objects storing `obj`'s fields with its codecs, which
    /// will decode (at most) the fields marked `needed`. It reads nothing
    /// until [`ChunkReader::reset`] points it at an object.
    pub(crate) fn new(obj: &'a StoredObject, needed: &[bool]) -> ChunkReader<'a> {
        let ncols = obj.fields.len();
        let codec = |f: &String| obj.codecs.get(f).copied().unwrap_or(CodecKind::Plain).build();
        ChunkReader {
            obj,
            codecs: obj.fields.iter().map(codec).collect(),
            needed: (0..ncols).map(|f| needed.get(f).copied().unwrap_or(false)).collect(),
            pages: Vec::new(),
            next_page: 0,
            frames: Vec::new(),
            slot: 0,
            blocks: Vec::with_capacity(ncols),
            cols: (0..ncols).map(|_| ColumnData::Ints(Vec::new())).collect(),
            decoded: vec![false; ncols],
            chunk: 0,
            jumped: 0,
            start: 0,
            len: 0,
        }
    }

    /// Points the reader at the first chunk of `obj`, which stores the
    /// fields of the object it was made for with the same codecs. Only the
    /// page list is fetched; codecs, frame list and column buffers are kept.
    pub(crate) fn reset(&mut self, obj: &'a StoredObject) -> Result<()> {
        debug_assert_eq!(obj.fields, self.obj.fields);
        self.pages = obj.heap.page_ids()?;
        self.obj = obj;
        self.next_page = 0;
        self.frames.clear();
        self.slot = 0;
        self.blocks.clear();
        self.chunk = 0;
        self.jumped = 0;
        self.start = 0;
        self.len = 0;
        Ok(())
    }

    /// Takes the count of chunks jumped over since the last call.
    pub(crate) fn take_jumped(&mut self) -> usize {
        std::mem::take(&mut self.jumped)
    }

    /// Object row position one past the current chunk's last row.
    pub(crate) fn end(&self) -> usize {
        self.start + self.len
    }

    /// Moves to the chunk holding object row `row`, at or after the current
    /// one: nothing to do when the current chunk holds it, the next chunk
    /// when `row` is where the current one ends, a jump through the
    /// directory otherwise (an object without one — a grid cell — walks).
    /// `false` when the object ends before `row`.
    pub(crate) fn seek(&mut self, row: usize) -> Result<bool> {
        if (self.start..self.end()).contains(&row) {
            return Ok(true);
        }
        if row > self.end() {
            let next = self.chunk + usize::from(!self.blocks.is_empty());
            let target = self.obj.chunks.as_ref().and_then(|dir| dir.chunk_of(row));
            if let Some(c) = target.filter(|&c| c != next) {
                return self.jump(c);
            }
        }
        while self.end() <= row {
            if !self.next_chunk()? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Moves to the next chunk; `false` once the object is exhausted.
    pub(crate) fn next_chunk(&mut self) -> Result<bool> {
        self.finish();
        self.load()
    }

    /// Leaves the object: finishes the current chunk, and the directory
    /// chunks the reader never reached count as jumped over. Closing twice
    /// counts nothing more.
    pub(crate) fn close(&mut self) {
        self.finish();
        if let Some(dir) = &self.obj.chunks {
            self.jumped += dir.len().saturating_sub(self.chunk);
            self.chunk = self.chunk.max(dir.len());
        }
    }

    /// Leaves the current chunk, accounting for the blocks it never had to
    /// decode.
    fn finish(&mut self) {
        if !self.blocks.is_empty() {
            let skipped = self.needed.iter().zip(&self.decoded).filter(|(n, d)| **n && !**d);
            self.obj.heap.pager().record_chunk(skipped.count() as u64);
            self.chunk += 1;
            self.blocks.clear();
        }
        self.start += self.len;
        self.len = 0;
    }

    /// Moves to chunk `c` of the directory, reading its first page unless
    /// the reader already holds it; the chunks in between count as jumped.
    fn jump(&mut self, c: usize) -> Result<bool> {
        self.finish();
        let dir = self
            .obj
            .chunks
            .as_ref()
            .expect("only objects with a directory jump");
        let ChunkEntry { first, .. } = dir.entries()[c];
        self.start = dir.start(c);
        self.jumped += c.saturating_sub(self.chunk);
        self.chunk = c;
        if self.frames.is_empty() || self.next_page != first.page_index + 1 {
            let &page_id = self.pages.get(first.page_index).ok_or_else(|| {
                LayoutError::Corrupted(format!(
                    "chunk {c} of `{}` starts on page ordinal {} of {}",
                    self.obj.name,
                    first.page_index,
                    self.pages.len()
                ))
            })?;
            self.frames.clear();
            self.frames.push(self.obj.heap.pager().read_frame(page_id)?);
            self.next_page = first.page_index + 1;
        }
        self.slot = first.slot;
        self.load()
    }

    /// Gathers the blocks of the chunk starting at the reader's position;
    /// `false` once the object is exhausted. The chunk's row count comes from
    /// the header of its first needed block, so a chunk nobody decodes costs
    /// a header read.
    fn load(&mut self) -> Result<bool> {
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
                let trailing = self.blocks.len();
                self.blocks.clear();
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
        if let Some(dir) = &self.obj.chunks {
            let (frame, slot) = self.blocks[0];
            let page_index = self.next_page - self.frames.len() + frame;
            let found = ChunkEntry {
                rows: self.len,
                first: RecordId { page_index, slot },
            };
            if dir.entries().get(self.chunk) != Some(&found) {
                return Err(LayoutError::Corrupted(format!(
                    "chunk {} of object `{}` ({found:?}) disagrees with its directory ({:?})",
                    self.chunk,
                    self.obj.name,
                    dir.entries().get(self.chunk)
                )));
            }
        }
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
    /// The stored objects, in storage order. A fork shares every object
    /// with the layout it was forked from until it writes that object (see
    /// [`PhysicalLayout::fork_for_append`]).
    pub objects: Vec<Arc<StoredObject>>,
    /// Total number of logical tuples.
    pub row_count: usize,
    /// Secondary index declared with the `index[...]` operator, if any.
    pub index: Option<StoredIndex>,
    /// Levelled write tier declared with the `lsm[...]` operator, if any.
    /// Holds the rows appended after the bulk render; `row_count` above
    /// counts them, so `base_row_count()` is what the objects hold.
    pub lsm: Option<LsmState>,
    /// The object index: which object each grid cell coordinate or
    /// partition label names. Forks share it; an append that creates an
    /// object clones it.
    pub(crate) targets: Arc<HashMap<Target, usize>>,
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
        let objects: Vec<Arc<StoredObject>> = objects.into_iter().map(Arc::new).collect();
        let targets = Arc::new(object_targets(&derived, &objects));
        PhysicalLayout {
            name,
            expr,
            schema,
            derived,
            objects,
            row_count,
            index: None,
            lsm: None,
            targets,
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
    /// *shares* every stored object and the current sealed pages.
    ///
    /// The fork is how appends proceed while readers may still hold the
    /// original. It holds the original's objects themselves, and the first
    /// write to one forks that object alone; the index tree is adopted
    /// *protected*. So the fork's appends relocate
    /// tails and tree onto fresh pages instead of rewriting a page a
    /// concurrent reader of the original could be scanning, and an append
    /// costs the objects it writes, not the objects the layout has. After
    /// the fork is published in the original's place, the pages it vacated
    /// (drained via [`PhysicalLayout::take_relocated`] on the fork) plus the
    /// objects the original then holds alone are exactly what the original
    /// still owns.
    pub fn fork_for_append(&self) -> Result<PhysicalLayout> {
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
        Ok(PhysicalLayout {
            name: self.name.clone(),
            expr: self.expr.clone(),
            schema: self.schema.clone(),
            derived: self.derived.clone(),
            objects: self.objects.clone(),
            row_count: self.row_count,
            index,
            lsm: self.lsm.as_ref().map(LsmState::fork),
            targets: Arc::clone(&self.targets),
            pager: Arc::clone(&self.pager),
        })
    }

    /// Object `i`, writable. An object this layout shares — with the
    /// generation it was forked from, which readers may still be scanning —
    /// is forked first ([`StoredObject::fork`]); from then on the layout
    /// holds the only copy and writes reach it directly.
    pub(crate) fn object_mut(&mut self, i: usize) -> Result<&mut StoredObject> {
        if Arc::get_mut(&mut self.objects[i]).is_none() {
            self.objects[i] = Arc::new(self.objects[i].fork()?);
        }
        Ok(Arc::get_mut(&mut self.objects[i]).expect("a forked object is held once"))
    }

    /// Drains the relocation notes of the objects this layout holds alone
    /// and of the index tree: the pages this layout stopped referencing
    /// since the last drain. An object shared with another generation has
    /// never been written since it was shared, so it holds no notes.
    pub fn take_relocated(&self) -> Vec<rodentstore_storage::page::PageId> {
        let mut pages = Vec::new();
        for o in self.objects.iter().filter(|o| Arc::strong_count(o) == 1) {
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

    /// Drains the levelled tier's merged-away runs wholesale, shared ones
    /// included (see [`LsmState::take_relocation_notes`]). Empty for layouts
    /// without a tier.
    pub fn take_lsm_relocation_notes(&self) -> Vec<Arc<crate::lsm::LsmRun>> {
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
        self.objects.iter().map(|o| o.page_count()).sum::<usize>()
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

    pub(crate) fn templates_for<S: AsRef<str>>(&self, fields: &[S]) -> Vec<Value> {
        fields
            .iter()
            .map(|f| match self.schema.field(f.as_ref()) {
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
        self.objects_meeting(fields, predicate, &ranges)
    }

    /// [`PhysicalLayout::objects_to_read`], with the predicate's ranges
    /// already extracted.
    pub(crate) fn objects_meeting(
        &self,
        fields: Option<&[String]>,
        predicate: Option<&Condition>,
        ranges: &HashMap<String, (f64, f64)>,
    ) -> Vec<usize> {
        let mut needed_fields: Option<Vec<String>> = fields.map(|f| f.to_vec());
        if let (Some(needed), Some(pred)) = (&mut needed_fields, predicate) {
            for f in pred.referenced_fields() {
                if !needed.contains(&f) {
                    needed.push(f);
                }
            }
        }
        let vertical = self.is_vertically_partitioned();
        let read = |&i: &usize| {
            let obj = &self.objects[i];
            if let Some(cell) = &obj.cell {
                if !cell.intersects(ranges) {
                    return false;
                }
            }
            match &needed_fields {
                Some(needed) if vertical => obj.fields.iter().any(|f| needed.contains(f)),
                _ => true,
            }
        };
        match self.cells_meeting(ranges) {
            Some(cells) => cells.into_iter().filter(read).collect(),
            None => (0..self.objects.len()).filter(read).collect(),
        }
    }

    /// The grid cells that can meet `ranges`, in storage order, found by
    /// probing the object index at every lattice coordinate the ranges span,
    /// padded by one cell each way against rounding, and at the unbounded
    /// coordinate of every dimension. `None` — every object is a candidate —
    /// unless every object is an indexed cell, every gridded dimension is
    /// bounded, and the box spans no more coordinates than the layout has
    /// objects.
    pub(crate) fn cells_meeting(&self, ranges: &HashMap<String, (f64, f64)>) -> Option<Vec<usize>> {
        let dims = self.derived.grid.as_deref().filter(|d| !d.is_empty())?;
        if self.targets.len() != self.objects.len() {
            return None;
        }
        let origins = lattice_origin(&self.objects, dims);
        let mut spans = Vec::with_capacity(dims.len());
        let mut probes = 1f64;
        for (dim, origin) in dims.iter().zip(&origins) {
            let origin = (*origin)?;
            let &(lo, hi) = ranges.get(&dim.field)?;
            let at = |v: f64| ((v - origin) / dim.stride).floor();
            let (first, last) = (at(lo) - 1.0, at(hi) + 1.0);
            if !(first.is_finite() && last.is_finite()) {
                return None;
            }
            probes *= (last - first + 1.0).max(0.0) + 1.0;
            spans.push((first as i64, last as i64));
        }
        if probes > self.objects.len() as f64 {
            return None;
        }
        let mut cells = Vec::with_capacity(probes as usize);
        // Along each dimension the probe visits the spanned coordinates,
        // then the unbounded one (`None`): a NaN lies inside every range,
        // even an empty one.
        let start = |&(first, last): &(i64, i64)| (first <= last).then_some(first);
        let mut key = Target::Cell(spans.iter().map(start).collect());
        loop {
            if let Some(&i) = self.targets.get(&key) {
                cells.push(i);
            }
            let Target::Cell(coords) = &mut key else {
                unreachable!("the probe key is a cell coordinate")
            };
            // Step to the next coordinate, the first dimension fastest.
            let mut d = 0;
            loop {
                match coords[d] {
                    Some(c) if c < spans[d].1 => coords[d] = Some(c + 1),
                    Some(_) => coords[d] = None,
                    None => {
                        coords[d] = start(&spans[d]);
                        d += 1;
                        if d == coords.len() {
                            cells.sort_unstable();
                            return Some(cells);
                        }
                        continue;
                    }
                }
                break;
            }
        }
    }

    /// The objects a streaming scan reads, in read order, and whether one
    /// cursor reads them together rather than one cursor each: the selected
    /// column groups of a vertical partition go together — any one of them
    /// when the scan needs no field, since it still yields one (empty) row
    /// per tuple — and every other selected object goes on its own.
    pub(crate) fn cursor_objects(
        &self,
        fields: Option<&[String]>,
        predicate: Option<&Condition>,
        ranges: &HashMap<String, (f64, f64)>,
    ) -> (Vec<usize>, bool) {
        let selected = self.objects_meeting(fields, predicate, ranges);
        match self.is_vertically_partitioned() {
            true if selected.is_empty() => (vec![0], true),
            vertical => (selected, vertical),
        }
    }

    /// Estimated number of pages a scan would read, without performing it:
    /// the pages of the read plan the scan would build (see
    /// [`ScanPlan::predicted_pages`]). When the declared index covers the
    /// predicate, that is the tree pages plus the distinct heap pages
    /// holding candidate rows — the number the indexed scan path actually
    /// reads — unless probing the index fails, in which case the streaming
    /// plan is counted.
    pub fn estimate_scan_pages(
        &self,
        fields: Option<&[String]>,
        predicate: Option<&Condition>,
    ) -> u64 {
        ScanPlan::new(self, fields, predicate, true)
            .and_then(|plan| plan.predicted_pages())
            .or_else(|_| ScanPlan::new(self, fields, predicate, false)?.predicted_pages())
            .unwrap_or(0)
    }

    /// The rows a cursor over `group` — one object, or the column groups of
    /// a vertical partition read together — must deliver under a predicate
    /// implying `ranges`: per member with a chunk directory, the rows of the
    /// chunks whose fences meet the ranges on its `Int`, `Timestamp` and
    /// `Float` fields, intersected across members. `None` when no fence
    /// constrains the ranges — the cursor reads everything.
    ///
    /// A fence only rules chunks out; which rows match is still decided row
    /// by row, so the ranges may hold rows the predicate rejects.
    pub(crate) fn fenced_rows(
        &self,
        group: &[usize],
        ranges: &HashMap<String, (f64, f64)>,
    ) -> Option<Vec<(usize, usize)>> {
        let mut rows: Option<Vec<(usize, usize)>> = None;
        for obj in group.iter().map(|&i| &self.objects[i]) {
            let Some(dir) = &obj.chunks else {
                continue;
            };
            let bounds: Vec<(usize, f64, f64)> = obj
                .fields
                .iter()
                .enumerate()
                .filter_map(|(f, name)| {
                    let &(lo, hi) = ranges.get(name)?;
                    let numeric = matches!(
                        self.schema.field(name).ok()?.ty.unwrap_named(),
                        DataType::Int | DataType::Timestamp | DataType::Float
                    );
                    numeric.then_some((f, lo, hi))
                })
                .collect();
            if bounds.is_empty() {
                continue;
            }
            let here = dir.surviving(&bounds);
            rows = Some(match rows {
                Some(before) => intersect(&before, &here),
                None => here,
            });
        }
        rows
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
    /// projected — the `getElement` access method. It is a scan of one row:
    /// the unpredicated scan plan of `fields` finds the source holding the
    /// position by its row count, and that source's cursor decodes the one
    /// row (see [`ScanPlan`]).
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
        for f in &out_fields {
            self.schema.index_of(f).map_err(LayoutError::Algebra)?;
        }
        ScanPlan::new(self, fields, None, false)?.element(position, &out_fields)
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

    #[test]
    fn fences_from_the_encoder_input_match_the_decoded_blocks() {
        let columns = [
            vec![
                Value::Int(7),
                Value::Null,
                Value::Int(-3),
                Value::Int(1 << 40),
            ],
            vec![Value::Timestamp(1_000), Value::Null, Value::Timestamp(-5)],
            vec![Value::Bool(true), Value::Null, Value::Bool(false)],
            vec![
                Value::Float(1.5),
                Value::Null,
                Value::Float(-0.0),
                Value::Float(0.0),
                Value::Float(-2.123_456_789),
            ],
            vec![Value::Float(0.5), Value::Float(f64::NAN), Value::Null],
            vec![Value::Null, Value::Null],
            vec![Value::Str("b".into()), Value::Null, Value::Str("a".into())],
        ];
        let mut checked = 0;
        for values in &columns {
            let column = values_to_column(values);
            for codec in CodecKind::all() {
                // Codecs that do not take this column type are never chosen
                // for it.
                let Ok(block) = codec.build().encode(&column) else {
                    continue;
                };
                let decoded = codec.build().decode(&block).unwrap();
                assert_eq!(
                    chunk_fence(codec, &column, &block).unwrap(),
                    fence_of(&decoded),
                    "{codec} over {values:?}"
                );
                checked += 1;
            }
        }
        assert!(checked >= 15, "{checked} codec/column pairs");
        // The one exception is real: delta rounds this float.
        let column = values_to_column(&columns[3]);
        let block = CodecKind::Delta.build().encode(&column).unwrap();
        let decoded = CodecKind::Delta.build().decode(&block).unwrap();
        assert_ne!(fence_of(&column), fence_of(&decoded));
    }

    /// A 20 000-row telemetry table under
    /// `delta[ts](vertical[ts,value|sensor,status,seq](…))` on 4 KiB pages.
    fn telemetry_layout() -> PhysicalLayout {
        use rodentstore_algebra::schema::Field;
        let schema = Schema::new(
            "Telemetry",
            vec![
                Field::new("ts", DataType::Int),
                Field::new("sensor", DataType::String),
                Field::new("value", DataType::Float),
                Field::new("status", DataType::Int),
                Field::new("seq", DataType::Int),
            ],
        );
        let rows: Vec<Record> = (0..20_000i64)
            .map(|i| {
                vec![
                    Value::Int(i * 3),
                    Value::Str(format!("sensor-{:04}", i % 16)),
                    Value::Float((i % 97) as f64 * 0.5),
                    Value::Int(i % 5),
                    Value::Int(i / 16),
                ]
            })
            .collect();
        let expr = rodentstore_algebra::parse(
            "delta[ts](vertical[ts,value|sensor,status,seq](Telemetry))",
        )
        .unwrap();
        let provider = crate::MemTableProvider::single(schema, rows);
        let pager = Arc::new(Pager::in_memory_with_page_size(4096));
        crate::render(&expr, &provider, pager, crate::RenderOptions::default()).unwrap()
    }

    #[test]
    fn get_element_reads_only_the_pages_of_the_rows_chunk() {
        let layout = telemetry_layout();
        let full = layout.scan(None, None).unwrap();
        for i in [0usize, 10_000, 19_999] {
            // The pages the blocks of row `i`'s chunk lie on, per object, from
            // a walk over the heap's records (one block per field per chunk).
            let mut want = 0usize;
            for obj in &layout.objects {
                let dir = obj.chunks.as_ref().expect("column groups keep a directory");
                let c = dir.chunk_of(i).unwrap();
                let mut pages = Vec::new();
                obj.heap
                    .scan(|rid, _| {
                        pages.push(rid.page_index);
                        Ok::<_, LayoutError>(())
                    })
                    .unwrap();
                let blocks = &pages[c * obj.fields.len()..(c + 1) * obj.fields.len()];
                want += blocks[blocks.len() - 1] - blocks[0] + 1;
                assert!(
                    dir.len() > 20 && obj.page_count() > 20,
                    "{obj:?} spans many chunks"
                );
            }
            let before = layout.pager().stats().snapshot();
            assert_eq!(layout.get_element(i, None).unwrap(), full[i], "row {i}");
            let io = layout.pager().stats().snapshot().since(&before);
            assert_eq!(
                io.pages_read as usize, want,
                "row {i} reads its chunk's pages only"
            );
        }
    }

    #[test]
    fn windows_read_the_pages_the_estimate_predicts() {
        let layout = telemetry_layout();
        let fields = vec!["ts".to_string(), "value".to_string()];
        let full_pages = layout.estimate_scan_pages(Some(&fields), None);
        for (lo, hi) in [(0i64, 0i64), (29_997, 30_300), (59_000, 59_997), (-5, -1)] {
            let pred = Condition::range("ts", lo, hi);
            let predicted = layout.estimate_scan_pages(Some(&fields), Some(&pred));
            let before = layout.pager().stats().snapshot();
            let rows = layout.scan(Some(&fields), Some(&pred)).unwrap();
            let io = layout.pager().stats().snapshot().since(&before);
            let want = (lo.max(0)..=hi).filter(|ts| ts % 3 == 0).count();
            assert_eq!(rows.len(), want, "window [{lo}, {hi}]");
            assert_eq!(io.pages_read, predicted, "window [{lo}, {hi}]");
            assert!(
                predicted * 20 < full_pages,
                "window [{lo}, {hi}]: {predicted} pages"
            );
        }
        // A scan needing no field still reads one column group.
        let none: Vec<String> = Vec::new();
        let predicted = layout.estimate_scan_pages(Some(&none), None);
        let before = layout.pager().stats().snapshot();
        assert_eq!(layout.scan(Some(&none), None).unwrap().len(), 20_000);
        let io = layout.pager().stats().snapshot().since(&before);
        assert!(predicted > 0);
        assert_eq!(io.pages_read, predicted);
    }

    #[test]
    fn chunks_count_as_pruned_when_the_scan_passes_them() {
        let layout = telemetry_layout();
        let group = &layout.objects[0];
        assert_eq!(group.fields, ["ts", "value"]);
        let dir = group.chunks.as_ref().unwrap();
        let fields = vec!["ts".to_string(), "value".to_string()];
        // Row 10 000 holds ts 30 000; the chunks before it cannot match.
        let pred = Condition::range("ts", 30_000i64, 30_300i64);
        let skipped = dir.chunk_of(10_000).unwrap();
        assert!(skipped > 0 && skipped + 2 < dir.len());

        // Stopped after its first row, the scan has passed only the chunks
        // before the window.
        let before = layout.pager().stats().snapshot();
        let mut iter = layout.scan_iter(Some(&fields), Some(&pred)).unwrap();
        let first = iter.next().unwrap().unwrap();
        assert_eq!(first[0], Value::Int(30_000));
        drop(iter);
        let io = layout.pager().stats().snapshot().since(&before);
        assert_eq!(io.chunks_pruned as usize, skipped);

        // Run to the end, it passes the rest too: every chunk is walked or
        // pruned, once.
        let before = layout.pager().stats().snapshot();
        assert_eq!(layout.scan(Some(&fields), Some(&pred)).unwrap().len(), 101);
        let io = layout.pager().stats().snapshot().since(&before);
        assert!(io.chunks_pruned as usize > skipped);
        assert_eq!((io.chunks + io.chunks_pruned) as usize, dir.len());
    }
}
