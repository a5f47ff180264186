//! Durability: the manifest format and the logical WAL operations.
//!
//! RodentStore's persistence design leans on the paper's central idea — the
//! physical representation is *declared*, not hand-built — so making a
//! database durable is cheap: persist the algebra text, the canonical rows,
//! and the page extents of the rendered objects, and everything else can be
//! re-derived. Three files live in a database directory:
//!
//! * **`data.rodent`** — the page file ([`rodentstore_storage::FileStore`]
//!   with a validated superblock). Layout renderers and incremental appends
//!   write pages here through the shared pager, and so does each table's
//!   canonical store (`catalog::CanonicalStore`): an append-only extent of the
//!   canonical rows, to which a checkpoint adds only the rows it has not
//!   persisted yet.
//! * **`wal.rodent`** — the write-ahead log. Every catalog mutation
//!   (`create_table`, `drop_table`, `insert`, `apply_layout`, adaptation) is
//!   encoded as a *logical* operation and committed to the log **before**
//!   any page is touched. Replay re-executes the ops; because the ops are
//!   declarative, replay re-derives pages instead of needing page images.
//! * **`manifest.rodent`** — a checkpoint of the whole catalog, metadata
//!   only: schemas, declared layout expression text, each table's canonical
//!   extent (page ids, row count, checksum) and pending-row count, the
//!   per-table [`crate::monitor::WorkloadProfile`] snapshot,
//!   layout statistics, and — for rendered layouts — each stored object's
//!   metadata and page extent, so `open` reattaches the rendered
//!   representation with **zero re-rendering**. Its size follows the page
//!   count, not the row count.
//!
//! [`Database::checkpoint`](crate::Database::checkpoint) appends the new
//! canonical rows, flushes dirty heap tails, syncs the page file,
//! atomically rewrites the manifest (write-temp + rename), and truncates
//! the WAL. `open` loads the manifest, discards any data pages past the
//! checkpoint, decodes the canonical extents, and replays the WAL tail:
//! committed transactions win, torn or corrupt tails are detected by
//! checksum and discarded.
//!
//! All encodings here are little-endian, length-prefixed, and guarded by a
//! CRC32 over the manifest body; records and values reuse the layout
//! crate's self-describing row codec.

use crate::catalog::{CanonicalExtent, CatalogView, LayoutStats};
use crate::database::AdaptivePolicy;
use crate::monitor::{QueryTemplate, WorkloadProfile};
use crate::reorg::ReorgStrategy;
use crate::{Result, RodentError};
use rodentstore_algebra::comprehension::{CmpOp, Condition, ElemExpr};
use rodentstore_algebra::expr::{SortKey, SortOrder};
use rodentstore_algebra::schema::{Field, Schema};
use rodentstore_algebra::types::DataType;
use rodentstore_algebra::value::{Record, Value};
use rodentstore_exec::{CostParams, ScanRequest};
use rodentstore_layout::rowcodec::{decode_record, encode_record};
use rodentstore_layout::{
    has_chunk_directory, CellBounds, ChunkDirectory, ChunkEntry, CodecKind, KeyKind, LsmState,
    ObjectEncoding,
};
use rodentstore_optimizer::{AdvisorOptions, CostModel};
use rodentstore_storage::heap::RecordId;
use rodentstore_storage::wal::SyncPolicy;
use rodentstore_storage::{crc32, PageId, StorageError, DEFAULT_PAGE_SIZE};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Name of the page file inside a database directory.
pub const DATA_FILE: &str = "data.rodent";
/// Name of the write-ahead log inside a database directory.
pub const WAL_FILE: &str = "wal.rodent";
/// Name of the manifest inside a database directory.
pub const MANIFEST_FILE: &str = "manifest.rodent";

const MANIFEST_MAGIC: &[u8; 8] = b"RDNTMAN1";
/// Version 2 added the free-page list, the persisted adaptive policy and
/// cost parameters, and per-object tail slot counts. Version 3 added the
/// declared-index description (kind, fields, root, page extent, outliers)
/// so indexes reattach from pages instead of rebuilding. Version 4 added
/// the levelled-tier (`lsm`) description — per-run level/seq/extent/bounds
/// plus the memtable rows — and the profile's decayed insert weight, so a
/// write-optimized table reattaches its runs without re-rendering and the
/// adaptation loop remembers the write pressure across restarts. Version 5
/// made the manifest metadata only: the canonical and pending rows left it
/// for each table's canonical page extent, which it describes by page ids,
/// row and record counts, tail slot count and checksum, plus a pending-row
/// count. Version 6 added each column-block object's chunk directory (per
/// chunk: row count, first block's page ordinal and slot, a fence per
/// field), checked against the object when it is decoded. Version 7 dropped
/// the per-object sort order, which nothing read: the layout-level
/// orderings above the objects are what `open` restores.
const MANIFEST_VERSION: u32 = 7;

/// Sentinel in the object encoding for "no open tail page".
const NO_TAIL: u32 = u32::MAX;

/// Configuration of a durable database.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityOptions {
    /// Page size of the data file.
    pub page_size: usize,
    /// When commits are `fsync`ed (see [`SyncPolicy`]). The default is
    /// durable group commit ([`SyncPolicy::GroupDurable`]): every commit is
    /// durable before it returns, and concurrent committers share one
    /// `fsync` through a leader/follower protocol — so the strongest
    /// guarantee costs roughly one sync per *batch*, not per commit. Pass
    /// an explicit policy (e.g. [`SyncPolicy::GroupCommit`]) to trade
    /// durability of the last few commits for latency.
    pub sync: SyncPolicy,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            page_size: DEFAULT_PAGE_SIZE,
            sync: SyncPolicy::GroupDurable,
        }
    }
}

/// Handle to the on-disk pieces of a durable database (held by
/// [`crate::Database`] when created via `create`/`open`).
pub(crate) struct Durability {
    /// Database directory.
    pub dir: PathBuf,
}

/// Paths of the three database files under `dir`.
pub(crate) fn db_paths(dir: &Path) -> (PathBuf, PathBuf, PathBuf) {
    (
        dir.join(DATA_FILE),
        dir.join(WAL_FILE),
        dir.join(MANIFEST_FILE),
    )
}

fn corrupt(msg: impl Into<String>) -> RodentError {
    RodentError::Storage(StorageError::Corrupted(msg.into()))
}

// ---------------------------------------------------------------------------
// Binary encoding helpers
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }
    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| corrupt("truncated durable encoding"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn bool(&mut self) -> Result<bool> {
        Ok(self.u8()? != 0)
    }
    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(b);
        Ok(u64::from_le_bytes(buf))
    }
    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }
    fn str(&mut self) -> Result<String> {
        String::from_utf8(self.bytes()?.to_vec())
            .map_err(|_| corrupt("invalid utf8 in durable encoding"))
    }
    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// Codecs for the algebra/exec types the manifest and WAL ops carry
// ---------------------------------------------------------------------------

fn enc_value(e: &mut Enc, v: &Value) {
    e.bytes(&encode_record(&vec![v.clone()]));
}

fn dec_value(d: &mut Dec) -> Result<Value> {
    let record = decode_record(d.bytes()?)?;
    record
        .into_iter()
        .next()
        .ok_or_else(|| corrupt("empty value encoding"))
}

fn enc_rec(e: &mut Enc, r: &Record) {
    e.bytes(&encode_record(r));
}

fn dec_rec(d: &mut Dec) -> Result<Record> {
    decode_record(d.bytes()?).map_err(RodentError::from)
}

fn enc_records(e: &mut Enc, records: &[Record]) {
    e.u32(records.len() as u32);
    for r in records {
        enc_rec(e, r);
    }
}

fn dec_records(d: &mut Dec) -> Result<Vec<Record>> {
    let n = d.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(dec_rec(d)?);
    }
    Ok(out)
}

fn enc_datatype(e: &mut Enc, ty: &DataType) {
    match ty {
        DataType::Int => e.u8(1),
        DataType::Float => e.u8(2),
        DataType::Bool => e.u8(3),
        DataType::String => e.u8(4),
        DataType::Timestamp => e.u8(5),
        DataType::Named(name, inner) => {
            e.u8(6);
            e.str(name);
            enc_datatype(e, inner);
        }
        DataType::List(items) => {
            e.u8(7);
            e.u32(items.len() as u32);
            for item in items {
                enc_datatype(e, item);
            }
        }
    }
}

fn dec_datatype(d: &mut Dec) -> Result<DataType> {
    match d.u8()? {
        1 => Ok(DataType::Int),
        2 => Ok(DataType::Float),
        3 => Ok(DataType::Bool),
        4 => Ok(DataType::String),
        5 => Ok(DataType::Timestamp),
        6 => {
            let name = d.str()?;
            Ok(DataType::Named(name, Box::new(dec_datatype(d)?)))
        }
        7 => {
            let n = d.u32()? as usize;
            let mut items = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                items.push(dec_datatype(d)?);
            }
            Ok(DataType::List(items))
        }
        other => Err(corrupt(format!("unknown data-type tag {other}"))),
    }
}

fn enc_schema(e: &mut Enc, schema: &Schema) {
    e.str(schema.name());
    e.u32(schema.arity() as u32);
    for field in schema.fields() {
        e.str(&field.name);
        enc_datatype(e, &field.ty);
    }
}

fn dec_schema(d: &mut Dec) -> Result<Schema> {
    let name = d.str()?;
    let n = d.u32()? as usize;
    let mut fields = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let fname = d.str()?;
        fields.push(Field::new(fname, dec_datatype(d)?));
    }
    Schema::try_new(name, fields).map_err(RodentError::Algebra)
}

fn enc_elem(e: &mut Enc, expr: &ElemExpr) {
    match expr {
        ElemExpr::Literal(v) => {
            e.u8(0);
            enc_value(e, v);
        }
        ElemExpr::Field(name) => {
            e.u8(1);
            e.str(name);
        }
        ElemExpr::Pos => e.u8(2),
        ElemExpr::Count => e.u8(3),
        ElemExpr::Bin(inner) => {
            e.u8(4);
            enc_elem(e, inner);
        }
        ElemExpr::Interleave(items) => {
            e.u8(5);
            e.u32(items.len() as u32);
            for item in items {
                enc_elem(e, item);
            }
        }
        ElemExpr::Sub(a, b) => {
            e.u8(6);
            enc_elem(e, a);
            enc_elem(e, b);
        }
        ElemExpr::Add(a, b) => {
            e.u8(7);
            enc_elem(e, a);
            enc_elem(e, b);
        }
    }
}

fn dec_elem(d: &mut Dec) -> Result<ElemExpr> {
    match d.u8()? {
        0 => Ok(ElemExpr::Literal(dec_value(d)?)),
        1 => Ok(ElemExpr::Field(d.str()?)),
        2 => Ok(ElemExpr::Pos),
        3 => Ok(ElemExpr::Count),
        4 => Ok(ElemExpr::Bin(Box::new(dec_elem(d)?))),
        5 => {
            let n = d.u32()? as usize;
            let mut items = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                items.push(dec_elem(d)?);
            }
            Ok(ElemExpr::Interleave(items))
        }
        6 => Ok(ElemExpr::Sub(Box::new(dec_elem(d)?), Box::new(dec_elem(d)?))),
        7 => Ok(ElemExpr::Add(Box::new(dec_elem(d)?), Box::new(dec_elem(d)?))),
        other => Err(corrupt(format!("unknown element-expression tag {other}"))),
    }
}

fn cmp_op_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn dec_cmp_op(tag: u8) -> Result<CmpOp> {
    Ok(match tag {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        other => return Err(corrupt(format!("unknown comparison-operator tag {other}"))),
    })
}

fn enc_condition(e: &mut Enc, cond: &Condition) {
    match cond {
        Condition::True => e.u8(0),
        Condition::Cmp { left, op, right } => {
            e.u8(1);
            enc_elem(e, left);
            e.u8(cmp_op_tag(*op));
            enc_elem(e, right);
        }
        Condition::Range { field, lo, hi } => {
            e.u8(2);
            e.str(field);
            enc_value(e, lo);
            enc_value(e, hi);
        }
        Condition::And(items) => {
            e.u8(3);
            e.u32(items.len() as u32);
            for item in items {
                enc_condition(e, item);
            }
        }
        Condition::Or(items) => {
            e.u8(4);
            e.u32(items.len() as u32);
            for item in items {
                enc_condition(e, item);
            }
        }
        Condition::Not(inner) => {
            e.u8(5);
            enc_condition(e, inner);
        }
    }
}

fn dec_condition(d: &mut Dec) -> Result<Condition> {
    match d.u8()? {
        0 => Ok(Condition::True),
        1 => {
            let left = dec_elem(d)?;
            let op = dec_cmp_op(d.u8()?)?;
            let right = dec_elem(d)?;
            Ok(Condition::Cmp { left, op, right })
        }
        2 => Ok(Condition::Range {
            field: d.str()?,
            lo: dec_value(d)?,
            hi: dec_value(d)?,
        }),
        3 => {
            let n = d.u32()? as usize;
            let mut items = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                items.push(dec_condition(d)?);
            }
            Ok(Condition::And(items))
        }
        4 => {
            let n = d.u32()? as usize;
            let mut items = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                items.push(dec_condition(d)?);
            }
            Ok(Condition::Or(items))
        }
        5 => Ok(Condition::Not(Box::new(dec_condition(d)?))),
        other => Err(corrupt(format!("unknown condition tag {other}"))),
    }
}

fn enc_sort_key(e: &mut Enc, key: &SortKey) {
    e.str(&key.field);
    e.u8(match key.order {
        SortOrder::Asc => 0,
        SortOrder::Desc => 1,
    });
}

fn dec_sort_key(d: &mut Dec) -> Result<SortKey> {
    let field = d.str()?;
    let order = match d.u8()? {
        0 => SortOrder::Asc,
        1 => SortOrder::Desc,
        other => return Err(corrupt(format!("unknown sort-order tag {other}"))),
    };
    Ok(SortKey { field, order })
}

fn enc_sort_keys(e: &mut Enc, keys: &[SortKey]) {
    e.u32(keys.len() as u32);
    for key in keys {
        enc_sort_key(e, key);
    }
}

fn dec_sort_keys(d: &mut Dec) -> Result<Vec<SortKey>> {
    let n = d.u32()? as usize;
    let mut keys = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        keys.push(dec_sort_key(d)?);
    }
    Ok(keys)
}

fn enc_scan_request(e: &mut Enc, request: &ScanRequest) {
    match &request.fields {
        None => e.bool(false),
        Some(fields) => {
            e.bool(true);
            e.u32(fields.len() as u32);
            for f in fields {
                e.str(f);
            }
        }
    }
    match &request.predicate {
        None => e.bool(false),
        Some(pred) => {
            e.bool(true);
            enc_condition(e, pred);
        }
    }
    match &request.order {
        None => e.bool(false),
        Some(keys) => {
            e.bool(true);
            enc_sort_keys(e, keys);
        }
    }
}

fn dec_scan_request(d: &mut Dec) -> Result<ScanRequest> {
    let fields = if d.bool()? {
        let n = d.u32()? as usize;
        let mut fields = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            fields.push(d.str()?);
        }
        Some(fields)
    } else {
        None
    };
    let predicate = if d.bool()? { Some(dec_condition(d)?) } else { None };
    let order = if d.bool()? { Some(dec_sort_keys(d)?) } else { None };
    Ok(ScanRequest {
        fields,
        predicate,
        order,
    })
}

fn strategy_tag(strategy: ReorgStrategy) -> u8 {
    match strategy {
        ReorgStrategy::Eager => 0,
        ReorgStrategy::NewDataOnly => 1,
        ReorgStrategy::Lazy => 2,
    }
}

fn dec_strategy(tag: u8) -> Result<ReorgStrategy> {
    Ok(match tag {
        0 => ReorgStrategy::Eager,
        1 => ReorgStrategy::NewDataOnly,
        2 => ReorgStrategy::Lazy,
        other => return Err(corrupt(format!("unknown reorg-strategy tag {other}"))),
    })
}

fn codec_tag(codec: CodecKind) -> u8 {
    match codec {
        CodecKind::Plain => 0,
        CodecKind::Delta => 1,
        CodecKind::Rle => 2,
        CodecKind::Dictionary => 3,
        CodecKind::BitPack => 4,
        CodecKind::FrameOfReference => 5,
    }
}

fn dec_codec(tag: u8) -> Result<CodecKind> {
    Ok(match tag {
        0 => CodecKind::Plain,
        1 => CodecKind::Delta,
        2 => CodecKind::Rle,
        3 => CodecKind::Dictionary,
        4 => CodecKind::BitPack,
        5 => CodecKind::FrameOfReference,
        other => return Err(corrupt(format!("unknown codec tag {other}"))),
    })
}

// ---------------------------------------------------------------------------
// Logical WAL operations
// ---------------------------------------------------------------------------

/// A logical catalog mutation, logged to the WAL before it is applied.
/// Replay re-executes the op through the normal (unlogged) mutation paths,
/// so recovered state is derived by exactly the code that produced it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum DurableOp {
    /// `create_table`.
    CreateTable(Schema),
    /// `drop_table`.
    DropTable(String),
    /// `insert` of canonical rows.
    Insert {
        /// Target table.
        table: String,
        /// The inserted rows.
        rows: Vec<Record>,
    },
    /// `apply_layout` (and adaptation, which is an `apply_layout` with
    /// `adapted` set so replay maintains the adaptation counter).
    ApplyLayout {
        /// Target table.
        table: String,
        /// The declared expression, as algebra text (displays round-trip
        /// through the parser).
        expr: String,
        /// Reorganization strategy.
        strategy: ReorgStrategy,
        /// Whether the self-adaptation loop declared this layout.
        adapted: bool,
    },
}

const OP_CREATE_TABLE: u8 = 1;
const OP_DROP_TABLE: u8 = 2;
const OP_INSERT: u8 = 3;
const OP_APPLY_LAYOUT: u8 = 4;

/// Encodes a `create_table` op without building a [`DurableOp`].
pub(crate) fn encode_create_table(schema: &Schema) -> Vec<u8> {
    let mut e = Enc::default();
    e.u8(OP_CREATE_TABLE);
    enc_schema(&mut e, schema);
    e.buf
}

/// Encodes a `drop_table` op.
pub(crate) fn encode_drop_table(table: &str) -> Vec<u8> {
    let mut e = Enc::default();
    e.u8(OP_DROP_TABLE);
    e.str(table);
    e.buf
}

/// Encodes an `insert` op from borrowed rows (the hot logging path — the
/// rows are not cloned).
pub(crate) fn encode_insert(table: &str, rows: &[Record]) -> Vec<u8> {
    let mut e = Enc::default();
    e.u8(OP_INSERT);
    e.str(table);
    enc_records(&mut e, rows);
    e.buf
}

/// Encodes an `apply_layout` op (with `adapted` marking layouts declared by
/// the self-adaptation loop).
pub(crate) fn encode_apply_layout(
    table: &str,
    expr: &str,
    strategy: ReorgStrategy,
    adapted: bool,
) -> Vec<u8> {
    let mut e = Enc::default();
    e.u8(OP_APPLY_LAYOUT);
    e.str(table);
    e.str(expr);
    e.u8(strategy_tag(strategy));
    e.bool(adapted);
    e.buf
}

impl DurableOp {
    /// Serializes the op into the payload of a
    /// [`rodentstore_storage::LogRecord::Op`]. The live logging paths use
    /// the borrowed `encode_*` functions above; this owned variant keeps
    /// round-trip tests honest.
    #[cfg(test)]
    pub fn encode(&self) -> Vec<u8> {
        match self {
            DurableOp::CreateTable(schema) => encode_create_table(schema),
            DurableOp::DropTable(table) => encode_drop_table(table),
            DurableOp::Insert { table, rows } => encode_insert(table, rows),
            DurableOp::ApplyLayout {
                table,
                expr,
                strategy,
                adapted,
            } => encode_apply_layout(table, expr, *strategy, *adapted),
        }
    }

    /// Decodes an op encoded with [`DurableOp::encode`].
    pub fn decode(bytes: &[u8]) -> Result<DurableOp> {
        let mut d = Dec::new(bytes);
        let op = match d.u8()? {
            OP_CREATE_TABLE => DurableOp::CreateTable(dec_schema(&mut d)?),
            OP_DROP_TABLE => DurableOp::DropTable(d.str()?),
            OP_INSERT => DurableOp::Insert {
                table: d.str()?,
                rows: dec_records(&mut d)?,
            },
            OP_APPLY_LAYOUT => DurableOp::ApplyLayout {
                table: d.str()?,
                expr: d.str()?,
                strategy: dec_strategy(d.u8()?)?,
                adapted: d.bool()?,
            },
            other => return Err(corrupt(format!("unknown durable-op tag {other}"))),
        };
        if !d.done() {
            return Err(corrupt("trailing bytes after durable op"));
        }
        Ok(op)
    }
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// Everything a checkpoint persists besides the catalog itself.
pub(crate) struct ManifestContext {
    pub page_size: usize,
    pub page_count: u64,
    pub replay_from_lsn: u64,
    /// Pages free for reuse at checkpoint time — the live free list plus
    /// the extents of retired-but-still-pinned layouts (pins cannot survive
    /// a restart).
    pub free_pages: Vec<PageId>,
    /// The self-adaptation policy, so a reopened database resumes adapting
    /// with the same knobs instead of silently reverting to defaults.
    pub policy: AdaptivePolicy,
    /// The disk-model parameters used for cost estimates.
    pub cost_params: CostParams,
}

/// Decoded manifest contents (pure data; [`crate::Database::open`] turns it
/// back into a live catalog).
pub(crate) struct ManifestData {
    pub page_size: usize,
    pub page_count: u64,
    /// Replay WAL records with `lsn >= replay_from_lsn`; earlier records
    /// are already reflected in this manifest (guards against a crash
    /// between manifest rename and WAL truncation).
    pub replay_from_lsn: u64,
    pub free_pages: Vec<PageId>,
    pub policy: AdaptivePolicy,
    pub cost_params: CostParams,
    pub tables: Vec<TableManifest>,
}

/// One table's persisted state.
pub(crate) struct TableManifest {
    pub schema: Schema,
    pub strategy: ReorgStrategy,
    pub layout_expr: Option<String>,
    /// Where the canonical rows live in the page file.
    pub canonical: CanonicalExtent,
    /// How many of the canonical rows — by invariant the last ones — were
    /// still pending (inserted since the layout was last rendered).
    pub pending_count: u64,
    pub profile: ProfileManifest,
    pub stats: LayoutStats,
    pub rendered: Option<RenderedManifest>,
}

/// Snapshot of a workload profile.
pub(crate) struct ProfileManifest {
    pub decay: f64,
    pub max_templates: u64,
    pub queries_observed: u64,
    pub queries_since_check: u64,
    pub write_weight: f64,
    pub templates: Vec<QueryTemplate>,
}

impl ProfileManifest {
    pub fn into_profile(self) -> WorkloadProfile {
        WorkloadProfile::from_parts(
            self.decay,
            self.max_templates as usize,
            self.queries_observed,
            self.queries_since_check,
            self.write_weight,
            self.templates,
        )
    }
}

/// A rendered layout's persisted description: enough to reattach the stored
/// objects without re-rendering. The expression itself lives in
/// [`TableManifest::layout_expr`]; physical properties are re-derived from
/// it at open time, with the persisted orderings overriding the derived
/// ones (incremental appends clear order claims, and that must survive a
/// restart).
pub(crate) struct RenderedManifest {
    pub name: String,
    pub row_count: u64,
    pub orderings: Vec<Vec<SortKey>>,
    pub objects: Vec<ObjectManifest>,
    pub index: Option<IndexManifest>,
    pub lsm: Option<LsmManifest>,
}

/// A levelled tier's persisted description: the tuning knobs, the sealed
/// runs (reattached from their page extents without re-rendering — runs are
/// immutable once sealed, so the extent alone reproduces them byte for
/// byte), and the memtable rows. The merge key is re-derived from the
/// layout expression at open time, like every other physical property.
pub(crate) struct LsmManifest {
    pub memtable_cap: u64,
    pub fanout: u64,
    pub next_seq: u64,
    pub runs: Vec<LsmRunManifest>,
    pub memtable: Vec<Record>,
}

/// One sealed run's persisted metadata and page extent.
pub(crate) struct LsmRunManifest {
    pub level: u32,
    pub seq: u64,
    pub row_count: u64,
    pub pages: Vec<PageId>,
    pub heap_records: u64,
    pub key_bounds: Option<Vec<(f64, f64)>>,
}

/// A declared index's persisted description: everything
/// [`rodentstore_layout::StoredIndex::from_parts`] needs to reattach the
/// tree from its pages, plus the page extent for free-space accounting.
pub(crate) struct IndexManifest {
    /// `"btree"` or `"rtree"` (the [`StoredIndex::kind_name`] tag).
    pub kind: String,
    pub fields: Vec<String>,
    pub key_kinds: Vec<KeyKind>,
    pub root: PageId,
    pub len: u64,
    pub height: u64,
    pub pages: Vec<PageId>,
    pub outliers: Vec<u64>,
}

/// One stored object's persisted metadata and page extent.
pub(crate) struct ObjectManifest {
    pub name: String,
    pub fields: Vec<String>,
    pub encoding: ObjectEncoding,
    pub codecs: Vec<(String, CodecKind)>,
    pub cell: Option<CellBounds>,
    pub row_count: u64,
    pub pages: Vec<PageId>,
    pub heap_records: u64,
    /// Valid slot count of the open tail page at checkpoint time (`None`
    /// when every page was sealed). Lets `open` refill the page and cut
    /// orphaned post-checkpoint slots.
    pub tail_valid_slots: Option<u32>,
    /// The chunk directory of a column-block object outside a grid, checked
    /// against the fields, rows and pages above.
    pub chunks: Option<ChunkDirectory>,
}

fn enc_policy(e: &mut Enc, policy: &AdaptivePolicy, cost_params: CostParams) {
    e.bool(policy.auto);
    e.u64(policy.check_every);
    e.u64(policy.min_queries);
    e.f64(policy.hysteresis);
    e.u8(strategy_tag(policy.strategy));
    e.u64(policy.advisor.cost_model.sample_size as u64);
    e.u64(policy.advisor.cost_model.page_size as u64);
    e.f64(policy.advisor.cost_model.cost_params.seek_ms);
    e.f64(policy.advisor.cost_model.cost_params.transfer_mb_per_s);
    e.u64(policy.advisor.anneal_iterations as u64);
    e.u64(policy.advisor.seed);
    e.f64(cost_params.seek_ms);
    e.f64(cost_params.transfer_mb_per_s);
}

fn dec_policy(d: &mut Dec) -> Result<(AdaptivePolicy, CostParams)> {
    let auto = d.bool()?;
    let check_every = d.u64()?;
    let min_queries = d.u64()?;
    let hysteresis = d.f64()?;
    let strategy = dec_strategy(d.u8()?)?;
    let sample_size = d.u64()? as usize;
    let page_size = d.u64()? as usize;
    let advisor_seek_ms = d.f64()?;
    let advisor_transfer = d.f64()?;
    let anneal_iterations = d.u64()? as usize;
    let seed = d.u64()?;
    let policy = AdaptivePolicy {
        auto,
        check_every,
        min_queries,
        hysteresis,
        strategy,
        advisor: AdvisorOptions {
            cost_model: CostModel {
                sample_size,
                page_size,
                cost_params: CostParams {
                    seek_ms: advisor_seek_ms,
                    transfer_mb_per_s: advisor_transfer,
                },
            },
            anneal_iterations,
            seed,
        },
    };
    let cost_params = CostParams {
        seek_ms: d.f64()?,
        transfer_mb_per_s: d.f64()?,
    };
    Ok((policy, cost_params))
}

fn enc_object_encoding(e: &mut Enc, encoding: &ObjectEncoding) {
    match encoding {
        ObjectEncoding::Rows => {
            e.u8(0);
            e.u32(0);
        }
        ObjectEncoding::ColumnBlocks { block_rows } => {
            e.u8(1);
            e.u32(*block_rows as u32);
        }
        ObjectEncoding::Folded { key_fields } => {
            e.u8(2);
            e.u32(*key_fields as u32);
        }
    }
}

fn dec_object_encoding(d: &mut Dec) -> Result<ObjectEncoding> {
    let tag = d.u8()?;
    let param = d.u32()? as usize;
    Ok(match tag {
        0 => ObjectEncoding::Rows,
        1 => ObjectEncoding::ColumnBlocks { block_rows: param },
        2 => ObjectEncoding::Folded { key_fields: param },
        other => return Err(corrupt(format!("unknown object-encoding tag {other}"))),
    })
}

fn enc_cell(e: &mut Enc, cell: &CellBounds) {
    e.u32(cell.dims.len() as u32);
    for (field, lo, hi) in &cell.dims {
        e.str(field);
        e.f64(*lo);
        e.f64(*hi);
    }
    e.u32(cell.coords.len() as u32);
    for c in &cell.coords {
        e.u32(*c);
    }
}

fn dec_cell(d: &mut Dec) -> Result<CellBounds> {
    let ndims = d.u32()? as usize;
    let mut dims = Vec::with_capacity(ndims.min(1 << 8));
    for _ in 0..ndims {
        let field = d.str()?;
        let lo = d.f64()?;
        let hi = d.f64()?;
        dims.push((field, lo, hi));
    }
    let ncoords = d.u32()? as usize;
    let mut coords = Vec::with_capacity(ncoords.min(1 << 8));
    for _ in 0..ncoords {
        coords.push(d.u32()?);
    }
    Ok(CellBounds { dims, coords })
}

fn enc_canonical(e: &mut Enc, canonical: &CanonicalExtent) {
    e.u32(canonical.pages.len() as u32);
    for page in &canonical.pages {
        e.u64(*page);
    }
    e.u64(canonical.row_count);
    e.u64(canonical.heap_records);
    e.u32(canonical.tail_valid_slots.unwrap_or(NO_TAIL));
    e.u32(canonical.crc);
}

fn dec_canonical(d: &mut Dec) -> Result<CanonicalExtent> {
    let npages = d.u32()? as usize;
    let mut pages = Vec::with_capacity(npages.min(1 << 20));
    for _ in 0..npages {
        pages.push(d.u64()?);
    }
    let row_count = d.u64()?;
    let heap_records = d.u64()?;
    let tail_slots = d.u32()?;
    Ok(CanonicalExtent {
        pages,
        row_count,
        heap_records,
        tail_valid_slots: (tail_slots != NO_TAIL).then_some(tail_slots),
        crc: d.u32()?,
    })
}

fn enc_object(e: &mut Enc, object: &ObjectManifest) {
    e.str(&object.name);
    e.u32(object.fields.len() as u32);
    for f in &object.fields {
        e.str(f);
    }
    enc_object_encoding(e, &object.encoding);
    e.u32(object.codecs.len() as u32);
    for (field, codec) in &object.codecs {
        e.str(field);
        e.u8(codec_tag(*codec));
    }
    match &object.cell {
        None => e.bool(false),
        Some(cell) => {
            e.bool(true);
            enc_cell(e, cell);
        }
    }
    e.u64(object.row_count);
    e.u32(object.pages.len() as u32);
    for page in &object.pages {
        e.u64(*page);
    }
    e.u64(object.heap_records);
    e.u32(object.tail_valid_slots.unwrap_or(NO_TAIL));
    match &object.chunks {
        None => e.bool(false),
        Some(dir) => {
            e.bool(true);
            e.u32(dir.len() as u32);
            for (c, entry) in dir.entries().iter().enumerate() {
                e.u32(entry.rows as u32);
                e.u32(entry.first.page_index as u32);
                e.u32(entry.first.slot as u32);
                for fence in dir.fences(c) {
                    match fence {
                        None => e.bool(false),
                        Some((lo, hi)) => {
                            e.bool(true);
                            e.f64(*lo);
                            e.f64(*hi);
                        }
                    }
                }
            }
        }
    }
}

/// Decodes a chunk directory and checks it against the object it belongs
/// to; one that disagrees is corruption, never a reader's guess.
fn dec_chunks(
    d: &mut Dec,
    name: &str,
    fields: usize,
    row_count: u64,
    pages: usize,
) -> Result<ChunkDirectory> {
    let nchunks = d.u32()? as usize;
    let mut entries = Vec::with_capacity(nchunks.min(1 << 16));
    let mut fences = Vec::new();
    for _ in 0..nchunks {
        let rows = d.u32()? as usize;
        let page_index = d.u32()? as usize;
        let slot = d.u32()? as usize;
        entries.push(ChunkEntry {
            rows,
            first: RecordId { page_index, slot },
        });
        for _ in 0..fields {
            fences.push(if d.bool()? {
                Some((d.f64()?, d.f64()?))
            } else {
                None
            });
        }
    }
    let row_count = usize::try_from(row_count)
        .map_err(|_| corrupt(format!("object `{name}` claims {row_count} rows")))?;
    ChunkDirectory::from_parts(fields, entries, fences, row_count, pages)
        .map_err(|e| corrupt(format!("object `{name}`: {e}")))
}

fn dec_object(d: &mut Dec) -> Result<ObjectManifest> {
    let name = d.str()?;
    let nfields = d.u32()? as usize;
    let mut fields = Vec::with_capacity(nfields.min(1 << 16));
    for _ in 0..nfields {
        fields.push(d.str()?);
    }
    let encoding = dec_object_encoding(d)?;
    let ncodecs = d.u32()? as usize;
    let mut codecs = Vec::with_capacity(ncodecs.min(1 << 16));
    for _ in 0..ncodecs {
        let field = d.str()?;
        codecs.push((field, dec_codec(d.u8()?)?));
    }
    let cell = if d.bool()? { Some(dec_cell(d)?) } else { None };
    let row_count = d.u64()?;
    let npages = d.u32()? as usize;
    let mut pages = Vec::with_capacity(npages.min(1 << 20));
    for _ in 0..npages {
        pages.push(d.u64()?);
    }
    let heap_records = d.u64()?;
    let tail_slots = d.u32()?;
    let chunks = if d.bool()? {
        Some(dec_chunks(d, &name, fields.len(), row_count, pages.len())?)
    } else {
        None
    };
    if chunks.is_some() != has_chunk_directory(&encoding, cell.as_ref()) {
        return Err(corrupt(format!(
            "object `{name}` ({encoding:?}, cell {}) {} a chunk directory",
            cell.is_some(),
            if chunks.is_some() { "carries" } else { "lacks" }
        )));
    }
    Ok(ObjectManifest {
        name,
        fields,
        encoding,
        codecs,
        cell,
        row_count,
        pages,
        heap_records,
        tail_valid_slots: (tail_slots != NO_TAIL).then_some(tail_slots),
        chunks,
    })
}

fn enc_index(e: &mut Enc, index: &IndexManifest) {
    e.str(&index.kind);
    e.u32(index.fields.len() as u32);
    for f in &index.fields {
        e.str(f);
    }
    e.u32(index.key_kinds.len() as u32);
    for k in &index.key_kinds {
        e.u8(match k {
            KeyKind::Int => 0,
            KeyKind::Float => 1,
        });
    }
    e.u64(index.root);
    e.u64(index.len);
    e.u64(index.height);
    e.u32(index.pages.len() as u32);
    for p in &index.pages {
        e.u64(*p);
    }
    e.u32(index.outliers.len() as u32);
    for o in &index.outliers {
        e.u64(*o);
    }
}

fn dec_index(d: &mut Dec) -> Result<IndexManifest> {
    let kind = d.str()?;
    let nfields = d.u32()? as usize;
    let mut fields = Vec::with_capacity(nfields.min(1 << 8));
    for _ in 0..nfields {
        fields.push(d.str()?);
    }
    let nkinds = d.u32()? as usize;
    let mut key_kinds = Vec::with_capacity(nkinds.min(1 << 8));
    for _ in 0..nkinds {
        key_kinds.push(match d.u8()? {
            0 => KeyKind::Int,
            1 => KeyKind::Float,
            other => return Err(corrupt(format!("unknown index key-kind tag {other}"))),
        });
    }
    let root = d.u64()?;
    let len = d.u64()?;
    let height = d.u64()?;
    let npages = d.u32()? as usize;
    let mut pages = Vec::with_capacity(npages.min(1 << 20));
    for _ in 0..npages {
        pages.push(d.u64()?);
    }
    let noutliers = d.u32()? as usize;
    let mut outliers = Vec::with_capacity(noutliers.min(1 << 20));
    for _ in 0..noutliers {
        outliers.push(d.u64()?);
    }
    Ok(IndexManifest {
        kind,
        fields,
        key_kinds,
        root,
        len,
        height,
        pages,
        outliers,
    })
}

/// Writes a live tier in the [`LsmManifest`] format [`dec_lsm`] reads.
fn enc_lsm(e: &mut Enc, lsm: &LsmState) -> Result<()> {
    e.u64(lsm.memtable_cap as u64);
    e.u64(lsm.fanout as u64);
    e.u64(lsm.next_seq);
    e.u32(lsm.runs.len() as u32);
    for run in &lsm.runs {
        e.u32(run.level);
        e.u64(run.seq);
        e.u64(run.row_count as u64);
        let pages = run.heap.page_ids().map_err(RodentError::Storage)?;
        e.u32(pages.len() as u32);
        for p in &pages {
            e.u64(*p);
        }
        e.u64(run.heap.record_count());
        match &run.key_bounds {
            None => e.bool(false),
            Some(bounds) => {
                e.bool(true);
                e.u32(bounds.len() as u32);
                for (lo, hi) in bounds {
                    e.f64(*lo);
                    e.f64(*hi);
                }
            }
        }
    }
    enc_records(e, lsm.memtable.rows());
    Ok(())
}

fn dec_lsm(d: &mut Dec) -> Result<LsmManifest> {
    let memtable_cap = d.u64()?;
    let fanout = d.u64()?;
    let next_seq = d.u64()?;
    let nruns = d.u32()? as usize;
    let mut runs = Vec::with_capacity(nruns.min(1 << 16));
    for _ in 0..nruns {
        let level = d.u32()?;
        let seq = d.u64()?;
        let row_count = d.u64()?;
        let npages = d.u32()? as usize;
        let mut pages = Vec::with_capacity(npages.min(1 << 20));
        for _ in 0..npages {
            pages.push(d.u64()?);
        }
        let heap_records = d.u64()?;
        let key_bounds = if d.bool()? {
            let nbounds = d.u32()? as usize;
            let mut bounds = Vec::with_capacity(nbounds.min(1 << 8));
            for _ in 0..nbounds {
                let lo = d.f64()?;
                let hi = d.f64()?;
                bounds.push((lo, hi));
            }
            Some(bounds)
        } else {
            None
        };
        runs.push(LsmRunManifest {
            level,
            seq,
            row_count,
            pages,
            heap_records,
            key_bounds,
        });
    }
    let memtable = dec_records(d)?;
    Ok(LsmManifest {
        memtable_cap,
        fanout,
        next_seq,
        runs,
        memtable,
    })
}

/// Serializes the whole catalog (plus the file geometry) into manifest
/// bytes. Every table's canonical store must already hold all of its rows
/// and every rendered layout's heap tails must already be flushed —
/// [`crate::Database::checkpoint`] does both before calling this.
pub(crate) fn encode_manifest(catalog: &CatalogView, ctx: &ManifestContext) -> Result<Vec<u8>> {
    let mut e = Enc::default();
    e.u32(MANIFEST_VERSION);
    e.u64(ctx.page_size as u64);
    e.u64(ctx.page_count);
    e.u64(ctx.replay_from_lsn);
    e.u32(ctx.free_pages.len() as u32);
    for page in &ctx.free_pages {
        e.u64(*page);
    }
    enc_policy(&mut e, &ctx.policy, ctx.cost_params);
    e.u32(catalog.entries().len() as u32);
    for (_, slot, entry) in catalog.entries() {
        enc_schema(&mut e, &entry.schema);
        e.u8(strategy_tag(entry.strategy));
        match &entry.layout_expr {
            None => e.bool(false),
            Some(expr) => {
                e.bool(true);
                e.str(&expr.to_string());
            }
        }
        let canonical = slot
            .canonical
            .lock()
            .as_ref()
            .map(|store| store.extent())
            .unwrap_or_default();
        if canonical.row_count != entry.records.len() as u64 {
            // A manifest that described fewer rows than the table holds
            // would lose the difference once the WAL is truncated.
            return Err(RodentError::Invalid(format!(
                "manifest cut of `{}`: {} canonical rows persisted, the table holds {}",
                entry.schema.name(),
                canonical.row_count,
                entry.records.len()
            )));
        }
        enc_canonical(&mut e, &canonical);
        e.u64(entry.pending.len() as u64);
        // Workload profile snapshot (lives on the slot, not the published
        // state; the mutex is leaf-level and held only for the copy-out).
        let profile = slot.profile.lock();
        e.f64(profile.decay());
        e.u64(profile.max_templates() as u64);
        e.u64(profile.queries_observed);
        e.u64(profile.queries_since_check);
        e.f64(profile.write_weight());
        let templates = profile.templates();
        e.u32(templates.len() as u32);
        for t in templates {
            e.str(&t.fingerprint);
            e.f64(t.weight);
            e.u64(t.hits);
            enc_scan_request(&mut e, &t.request);
        }
        drop(profile);
        // Layout statistics.
        e.u64(entry.stats.full_renders);
        e.u64(entry.stats.incremental_appends);
        e.u64(entry.stats.adaptations);
        // Rendered layout, if any.
        match &entry.access {
            None => e.bool(false),
            Some(access) => {
                let layout = access.layout();
                e.bool(true);
                e.str(&layout.name);
                e.u64(layout.row_count as u64);
                let orderings = layout.order_list();
                e.u32(orderings.len() as u32);
                for keys in &orderings {
                    enc_sort_keys(&mut e, keys);
                }
                e.u32(layout.objects.len() as u32);
                for obj in &layout.objects {
                    let pages = obj.heap.page_ids().map_err(RodentError::Storage)?;
                    let mut codecs: Vec<(String, CodecKind)> = obj
                        .codecs
                        .iter()
                        .map(|(field, codec)| (field.clone(), *codec))
                        .collect();
                    codecs.sort_by(|a, b| a.0.cmp(&b.0));
                    enc_object(
                        &mut e,
                        &ObjectManifest {
                            name: obj.name.clone(),
                            fields: obj.fields.clone(),
                            encoding: obj.encoding.clone(),
                            codecs,
                            cell: obj.cell.clone(),
                            row_count: obj.row_count as u64,
                            pages,
                            heap_records: obj.heap.record_count(),
                            tail_valid_slots: obj.heap.tail_valid_slots(),
                            chunks: obj.chunks.clone(),
                        },
                    );
                }
                match &layout.index {
                    None => e.bool(false),
                    Some(idx) => {
                        e.bool(true);
                        let pages = idx
                            .page_ids()
                            .map_err(|err| corrupt(err.to_string()))?;
                        enc_index(
                            &mut e,
                            &IndexManifest {
                                kind: idx.kind_name().to_string(),
                                fields: idx.fields.clone(),
                                key_kinds: idx.key_kinds.clone(),
                                root: idx.root(),
                                len: idx.len(),
                                height: idx.height() as u64,
                                pages,
                                outliers: idx.outliers.clone(),
                            },
                        );
                    }
                }
                match &layout.lsm {
                    None => e.bool(false),
                    Some(lsm) => {
                        e.bool(true);
                        enc_lsm(&mut e, lsm)?;
                    }
                }
            }
        }
    }
    // Frame: magic + body length + CRC + body.
    let body = e.buf;
    let mut framed = Vec::with_capacity(body.len() + 16);
    framed.extend_from_slice(MANIFEST_MAGIC);
    framed.extend_from_slice(&(body.len() as u32).to_le_bytes());
    framed.extend_from_slice(&crc32(&body).to_le_bytes());
    framed.extend_from_slice(&body);
    Ok(framed)
}

/// Decodes manifest bytes, validating magic, version, and checksum.
pub(crate) fn decode_manifest(bytes: &[u8]) -> Result<ManifestData> {
    if bytes.len() < 16 || &bytes[..8] != MANIFEST_MAGIC {
        return Err(RodentError::Storage(StorageError::NotRodentStore {
            path: "manifest".to_string(),
        }));
    }
    let len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
    let crc = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
    let body = bytes
        .get(16..16 + len)
        .ok_or_else(|| corrupt("manifest body shorter than its header claims"))?;
    if crc32(body) != crc {
        return Err(corrupt("manifest checksum mismatch"));
    }
    let mut d = Dec::new(body);
    let version = d.u32()?;
    if version != MANIFEST_VERSION {
        return Err(RodentError::Storage(StorageError::UnsupportedVersion {
            found: version,
            supported: MANIFEST_VERSION,
        }));
    }
    let page_size = d.u64()? as usize;
    let page_count = d.u64()?;
    let replay_from_lsn = d.u64()?;
    let nfree = d.u32()? as usize;
    let mut free_pages = Vec::with_capacity(nfree.min(1 << 20));
    for _ in 0..nfree {
        free_pages.push(d.u64()?);
    }
    let (policy, cost_params) = dec_policy(&mut d)?;
    let ntables = d.u32()? as usize;
    let mut tables = Vec::with_capacity(ntables.min(1 << 16));
    for _ in 0..ntables {
        let schema = dec_schema(&mut d)?;
        let strategy = dec_strategy(d.u8()?)?;
        let layout_expr = if d.bool()? { Some(d.str()?) } else { None };
        let canonical = dec_canonical(&mut d)?;
        let pending_count = d.u64()?;
        let decay = d.f64()?;
        let max_templates = d.u64()?;
        let queries_observed = d.u64()?;
        let queries_since_check = d.u64()?;
        let write_weight = d.f64()?;
        let ntemplates = d.u32()? as usize;
        let mut templates = Vec::with_capacity(ntemplates.min(1 << 12));
        for _ in 0..ntemplates {
            let fingerprint = d.str()?;
            let weight = d.f64()?;
            let hits = d.u64()?;
            let request = dec_scan_request(&mut d)?;
            templates.push(QueryTemplate {
                fingerprint,
                request,
                weight,
                hits,
            });
        }
        let stats = LayoutStats {
            full_renders: d.u64()?,
            incremental_appends: d.u64()?,
            adaptations: d.u64()?,
        };
        let rendered = if d.bool()? {
            let name = d.str()?;
            let row_count = d.u64()?;
            let norderings = d.u32()? as usize;
            let mut orderings = Vec::with_capacity(norderings.min(1 << 8));
            for _ in 0..norderings {
                orderings.push(dec_sort_keys(&mut d)?);
            }
            let nobjects = d.u32()? as usize;
            let mut objects = Vec::with_capacity(nobjects.min(1 << 16));
            for _ in 0..nobjects {
                objects.push(dec_object(&mut d)?);
            }
            let index = if d.bool()? {
                Some(dec_index(&mut d)?)
            } else {
                None
            };
            let lsm = if d.bool()? {
                Some(dec_lsm(&mut d)?)
            } else {
                None
            };
            Some(RenderedManifest {
                name,
                row_count,
                orderings,
                objects,
                index,
                lsm,
            })
        } else {
            None
        };
        tables.push(TableManifest {
            schema,
            strategy,
            layout_expr,
            canonical,
            pending_count,
            profile: ProfileManifest {
                decay,
                max_templates,
                queries_observed,
                queries_since_check,
                write_weight,
                templates,
            },
            stats,
            rendered,
        });
    }
    if !d.done() {
        return Err(corrupt("trailing bytes after manifest body"));
    }
    Ok(ManifestData {
        page_size,
        page_count,
        replay_from_lsn,
        free_pages,
        policy,
        cost_params,
        tables,
    })
}

/// Atomically replaces the manifest: write to a temp file, sync it, rename
/// over the real one, and sync the directory so the rename itself is
/// durable.
pub(crate) fn write_manifest_file(dir: &Path, bytes: &[u8]) -> Result<()> {
    let target = dir.join(MANIFEST_FILE);
    let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
    {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)
            .map_err(io_err)?;
        file.write_all(bytes).map_err(io_err)?;
        file.sync_data().map_err(io_err)?;
    }
    std::fs::rename(&tmp, &target).map_err(io_err)?;
    if let Ok(dir_handle) = File::open(dir) {
        let _ = dir_handle.sync_all();
    }
    Ok(())
}

/// Reads the manifest file of a database directory.
pub(crate) fn read_manifest_file(dir: &Path) -> Result<Vec<u8>> {
    let mut file = File::open(dir.join(MANIFEST_FILE)).map_err(io_err)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).map_err(io_err)?;
    Ok(bytes)
}

fn io_err(e: std::io::Error) -> RodentError {
    RodentError::Storage(StorageError::Io(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodentstore_algebra::comprehension::Condition;

    #[test]
    fn durable_ops_round_trip() {
        let schema = Schema::new(
            "T",
            vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Named("lbl".into(), Box::new(DataType::Float))),
                Field::new("c", DataType::List(vec![DataType::Int, DataType::String])),
            ],
        );
        let ops = vec![
            DurableOp::CreateTable(schema),
            DurableOp::DropTable("T".into()),
            DurableOp::Insert {
                table: "T".into(),
                rows: vec![
                    vec![Value::Int(1), Value::Float(2.5), Value::Str("x".into())],
                    vec![Value::Null, Value::Timestamp(7), Value::Bool(true)],
                ],
            },
            DurableOp::ApplyLayout {
                table: "T".into(),
                expr: "project[a,b](T)".into(),
                strategy: ReorgStrategy::NewDataOnly,
                adapted: true,
            },
        ];
        for op in ops {
            let bytes = op.encode();
            assert_eq!(DurableOp::decode(&bytes).unwrap(), op);
        }
    }

    #[test]
    fn scan_requests_round_trip() {
        let requests = vec![
            ScanRequest::all(),
            ScanRequest::all().fields(["a", "b"]).order(["a"]),
            ScanRequest::all().predicate(
                Condition::range("x", 1.5, 9.5)
                    .and(Condition::eq("tag", "hot"))
                    .and(Condition::Not(Box::new(Condition::Or(vec![
                        Condition::True,
                        Condition::Cmp {
                            left: ElemExpr::Bin(Box::new(ElemExpr::field("y"))),
                            op: CmpOp::Ge,
                            right: ElemExpr::Add(
                                Box::new(ElemExpr::Pos),
                                Box::new(ElemExpr::Literal(Value::Int(3))),
                            ),
                        },
                    ])))),
            ),
        ];
        for request in requests {
            let mut e = Enc::default();
            enc_scan_request(&mut e, &request);
            let mut d = Dec::new(&e.buf);
            let back = dec_scan_request(&mut d).unwrap();
            assert!(d.done());
            assert_eq!(format!("{back:?}"), format!("{request:?}"));
        }
    }

    #[test]
    fn corrupt_ops_are_rejected() {
        let op = DurableOp::Insert {
            table: "T".into(),
            rows: vec![vec![Value::Int(1)]],
        };
        let bytes = op.encode();
        assert!(DurableOp::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(DurableOp::decode(&trailing).is_err());
        assert!(DurableOp::decode(&[99]).is_err());
    }

    #[test]
    fn manifest_frame_detects_corruption() {
        let catalog = CatalogView::empty();
        let ctx = ManifestContext {
            page_size: 4096,
            page_count: 0,
            replay_from_lsn: 0,
            free_pages: vec![3, 7],
            policy: AdaptivePolicy {
                auto: true,
                check_every: 11,
                min_queries: 5,
                hysteresis: 0.25,
                strategy: ReorgStrategy::Lazy,
                ..AdaptivePolicy::default()
            },
            cost_params: CostParams {
                seek_ms: 2.5,
                transfer_mb_per_s: 99.0,
            },
        };
        let bytes = encode_manifest(&catalog, &ctx).unwrap();
        let manifest = decode_manifest(&bytes).unwrap();
        assert_eq!(manifest.page_size, 4096);
        assert!(manifest.tables.is_empty());
        // The v2 fields round-trip.
        assert_eq!(manifest.free_pages, vec![3, 7]);
        assert!(manifest.policy.auto);
        assert_eq!(manifest.policy.check_every, 11);
        assert_eq!(manifest.policy.min_queries, 5);
        assert_eq!(manifest.policy.hysteresis, 0.25);
        assert_eq!(manifest.policy.strategy, ReorgStrategy::Lazy);
        assert_eq!(manifest.cost_params.seek_ms, 2.5);
        assert_eq!(manifest.cost_params.transfer_mb_per_s, 99.0);

        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        assert!(decode_manifest(&flipped).is_err());
        assert!(decode_manifest(b"RDNTMAN1").is_err());
        assert!(decode_manifest(b"not a manifest at all").is_err());
    }
}
