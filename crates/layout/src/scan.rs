//! The streaming scan engine: decode-on-demand iteration over physical
//! layouts, with predicates compiled to positional form.
//!
//! The eager read path ([`PhysicalLayout::scan`]) used to materialize, fully
//! decode, and clone every tuple of every selected object before the first
//! predicate was evaluated — throwing away at the CPU layer much of the I/O
//! win the layout algebra buys. This module replaces it:
//!
//! * [`CompiledPredicate`] resolves field names to record positions **once
//!   per scan** instead of once per row per reference
//!   (`Condition::eval` walks the schema by name on every call);
//! * [`ScanIter`] yields records lazily, object by object and page by page,
//!   decoding only the fields a scan actually needs — projected-out fields
//!   are skipped over byte-wise (the self-describing row encoding carries
//!   lengths) and unneeded column blocks are never run through their codec;
//! * one borrowed loop serves row pages and column chunks alike: a row is a
//!   slice of [`FieldRef`]s — decoded out of a page frame, or read off the
//!   typed vectors of a decoded chunk — the predicate runs on the refs, and
//!   only survivors are folded or materialized (for column chunks the
//!   predicate's columns are decoded first and the rest only if a row
//!   survived);
//! * [`PhysicalLayout::scan`] is now a thin `collect()` over the iterator,
//!   and `rodentstore_exec::Cursor` wraps the iterator directly so
//!   native-order scans never materialize the full result set.

use crate::aggregate::{WindowAccumulator, WindowedAggregate};
use crate::index::unpack_pos;
use crate::plan::{
    extract_ranges, split_folded, stitch_folded_row, ChunkReader, ObjectEncoding, PhysicalLayout,
    StoredObject,
};
use crate::rowcodec::{
    column_field, decode_fields_borrowed, decode_record, decode_record_projected, FieldRef,
    FixedRowPlan,
};
use crate::{LayoutError, Result};
use rodentstore_algebra::comprehension::{interleave_bits, CmpOp, Condition, ElemExpr};
use rodentstore_algebra::value::{Record, Value};
use rodentstore_algebra::AlgebraError;
use rodentstore_compress::ColumnData;
use rodentstore_storage::page::PageId;
use rodentstore_storage::slotted::SlottedReader;
use std::cmp::Ordering;
use std::collections::VecDeque;

/// An element expression with field references resolved to positions.
#[derive(Debug, Clone)]
enum CompiledExpr {
    Literal(Value),
    Field(usize),
    Pos,
    Count,
    Bin(Box<CompiledExpr>),
    Interleave(Vec<CompiledExpr>),
    Sub(Box<CompiledExpr>, Box<CompiledExpr>),
    Add(Box<CompiledExpr>, Box<CompiledExpr>),
}

impl CompiledExpr {
    fn compile(expr: &ElemExpr, fields: &[String], within: &str) -> Result<CompiledExpr> {
        Ok(match expr {
            ElemExpr::Literal(v) => CompiledExpr::Literal(v.clone()),
            ElemExpr::Field(name) => CompiledExpr::Field(resolve(name, fields, within)?),
            ElemExpr::Pos => CompiledExpr::Pos,
            ElemExpr::Count => CompiledExpr::Count,
            ElemExpr::Bin(inner) => {
                CompiledExpr::Bin(Box::new(CompiledExpr::compile(inner, fields, within)?))
            }
            ElemExpr::Interleave(items) => CompiledExpr::Interleave(
                items
                    .iter()
                    .map(|e| CompiledExpr::compile(e, fields, within))
                    .collect::<Result<_>>()?,
            ),
            ElemExpr::Sub(a, b) => CompiledExpr::Sub(
                Box::new(CompiledExpr::compile(a, fields, within)?),
                Box::new(CompiledExpr::compile(b, fields, within)?),
            ),
            ElemExpr::Add(a, b) => CompiledExpr::Add(
                Box::new(CompiledExpr::compile(a, fields, within)?),
                Box::new(CompiledExpr::compile(b, fields, within)?),
            ),
        })
    }

    fn eval(&self, record: &Record, pos: usize, count: usize) -> Result<Value> {
        match self {
            CompiledExpr::Literal(v) => Ok(v.clone()),
            CompiledExpr::Field(idx) => Ok(record[*idx].clone()),
            CompiledExpr::Pos => Ok(Value::Int(pos as i64)),
            CompiledExpr::Count => Ok(Value::Int(count as i64)),
            CompiledExpr::Bin(inner) => {
                let v = inner.eval(record, pos, count)?;
                let i = v.as_i64().ok_or_else(|| type_mismatch("bin()", &v))?;
                Ok(Value::Int(i))
            }
            CompiledExpr::Interleave(items) => {
                let mut parts = Vec::with_capacity(items.len());
                for item in items {
                    let v = item.eval(record, pos, count)?;
                    let i = v.as_i64().ok_or_else(|| type_mismatch("interleave()", &v))?;
                    parts.push(i.unsigned_abs() as u32);
                }
                Ok(Value::Int(interleave_bits(&parts) as i64))
            }
            CompiledExpr::Sub(a, b) => {
                let av = a.eval(record, pos, count)?;
                let bv = b.eval(record, pos, count)?;
                av.sub(&bv).map_err(LayoutError::Algebra)
            }
            CompiledExpr::Add(a, b) => {
                let av = a.eval(record, pos, count)?;
                let bv = b.eval(record, pos, count)?;
                av.add(&bv).map_err(LayoutError::Algebra)
            }
        }
    }
}

fn type_mismatch(what: &str, found: &Value) -> LayoutError {
    LayoutError::Algebra(AlgebraError::TypeMismatch {
        expected: format!("integer for {what}"),
        found: found.data_type().to_string(),
    })
}

fn resolve(field: &str, fields: &[String], within: &str) -> Result<usize> {
    fields
        .iter()
        .position(|f| f == field)
        .ok_or_else(|| {
            LayoutError::Algebra(AlgebraError::UnknownField {
                field: field.to_string(),
                within: within.to_string(),
            })
        })
}

/// A [`Condition`] with every field reference resolved to a record position,
/// so evaluating it per row costs no name lookups. Semantics match
/// [`Condition::eval_at`] exactly.
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    node: CompiledCond,
}

#[derive(Debug, Clone)]
enum CompiledCond {
    True,
    Cmp {
        left: CompiledExpr,
        op: CmpOp,
        right: CompiledExpr,
    },
    Range {
        index: usize,
        lo: Value,
        hi: Value,
    },
    And(Vec<CompiledCond>),
    Or(Vec<CompiledCond>),
    Not(Box<CompiledCond>),
}

impl CompiledPredicate {
    /// Compiles a condition against an ordered field list (`within` names the
    /// schema or object for error messages). Fails on unknown fields.
    pub fn compile(cond: &Condition, fields: &[String], within: &str) -> Result<CompiledPredicate> {
        Ok(CompiledPredicate {
            node: Self::compile_node(cond, fields, within)?,
        })
    }

    fn compile_node(cond: &Condition, fields: &[String], within: &str) -> Result<CompiledCond> {
        Ok(match cond {
            Condition::True => CompiledCond::True,
            Condition::Cmp { left, op, right } => CompiledCond::Cmp {
                left: CompiledExpr::compile(left, fields, within)?,
                op: *op,
                right: CompiledExpr::compile(right, fields, within)?,
            },
            Condition::Range { field, lo, hi } => CompiledCond::Range {
                index: resolve(field, fields, within)?,
                lo: lo.clone(),
                hi: hi.clone(),
            },
            Condition::And(items) => CompiledCond::And(
                items
                    .iter()
                    .map(|c| Self::compile_node(c, fields, within))
                    .collect::<Result<_>>()?,
            ),
            Condition::Or(items) => CompiledCond::Or(
                items
                    .iter()
                    .map(|c| Self::compile_node(c, fields, within))
                    .collect::<Result<_>>()?,
            ),
            Condition::Not(inner) => {
                CompiledCond::Not(Box::new(Self::compile_node(inner, fields, within)?))
            }
        })
    }

    /// Evaluates the predicate against a record (positional context zero,
    /// matching [`Condition::eval`]).
    pub fn matches(&self, record: &Record) -> Result<bool> {
        self.matches_at(record, 0, 0)
    }

    /// Evaluates with positional context (for `pos()` / `count()`).
    pub fn matches_at(&self, record: &Record, pos: usize, count: usize) -> Result<bool> {
        Self::eval_node(&self.node, record, pos, count)
    }

    fn eval_node(node: &CompiledCond, record: &Record, pos: usize, count: usize) -> Result<bool> {
        match node {
            CompiledCond::True => Ok(true),
            CompiledCond::Cmp { left, op, right } => {
                let l = left.eval(record, pos, count)?;
                let r = right.eval(record, pos, count)?;
                Ok(op.matches(l.compare(&r)))
            }
            CompiledCond::Range { index, lo, hi } => {
                let v = &record[*index];
                Ok(v.compare(lo) != std::cmp::Ordering::Less
                    && v.compare(hi) != std::cmp::Ordering::Greater)
            }
            CompiledCond::And(items) => {
                for c in items {
                    if !Self::eval_node(c, record, pos, count)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            CompiledCond::Or(items) => {
                for c in items {
                    if Self::eval_node(c, record, pos, count)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            CompiledCond::Not(inner) => Ok(!Self::eval_node(inner, record, pos, count)?),
        }
    }
}

/// A predicate restricted to the shapes that can be evaluated against
/// borrowed [`FieldRef`]s without materializing a single owned [`Value`]:
/// comparisons of a field against a literal, ranges, and boolean combinators.
/// Anything else (arithmetic, `pos()`/`count()`, field-vs-field comparisons)
/// falls back to the owned [`CompiledPredicate`] above the cursor.
///
/// Semantics match [`CompiledPredicate::matches`] exactly:
/// [`FieldRef::compare_value`] mirrors [`Value::compare`], and `Value::compare`
/// is antisymmetric, so literal-on-the-left comparisons are evaluated by
/// reversing the field-vs-literal ordering.
#[derive(Debug, Clone)]
enum BorrowedPred {
    True,
    Cmp {
        index: usize,
        op: CmpOp,
        literal: Value,
        /// The literal was the *left* operand; reverse the ordering.
        flipped: bool,
    },
    Range {
        index: usize,
        lo: Value,
        hi: Value,
    },
    And(Vec<BorrowedPred>),
    Or(Vec<BorrowedPred>),
    Not(Box<BorrowedPred>),
}

impl BorrowedPred {
    /// Compiles a positional predicate into borrowed form, or `None` when any
    /// node needs owned evaluation.
    fn compile(node: &CompiledCond) -> Option<BorrowedPred> {
        match node {
            CompiledCond::True => Some(BorrowedPred::True),
            CompiledCond::Cmp { left, op, right } => match (left, right) {
                (CompiledExpr::Field(i), CompiledExpr::Literal(v)) => Some(BorrowedPred::Cmp {
                    index: *i,
                    op: *op,
                    literal: v.clone(),
                    flipped: false,
                }),
                (CompiledExpr::Literal(v), CompiledExpr::Field(i)) => Some(BorrowedPred::Cmp {
                    index: *i,
                    op: *op,
                    literal: v.clone(),
                    flipped: true,
                }),
                _ => None,
            },
            CompiledCond::Range { index, lo, hi } => Some(BorrowedPred::Range {
                index: *index,
                lo: lo.clone(),
                hi: hi.clone(),
            }),
            CompiledCond::And(items) => items
                .iter()
                .map(BorrowedPred::compile)
                .collect::<Option<Vec<_>>>()
                .map(BorrowedPred::And),
            CompiledCond::Or(items) => items
                .iter()
                .map(BorrowedPred::compile)
                .collect::<Option<Vec<_>>>()
                .map(BorrowedPred::Or),
            CompiledCond::Not(inner) => {
                BorrowedPred::compile(inner).map(|p| BorrowedPred::Not(Box::new(p)))
            }
        }
    }

    /// The top-level conjuncts: a row matches iff it matches every one.
    fn conjuncts(&self) -> &[BorrowedPred] {
        match self {
            BorrowedPred::And(items) => items,
            other => std::slice::from_ref(other),
        }
    }

    fn matches(&self, row: &[FieldRef<'_>]) -> Result<bool> {
        match self {
            BorrowedPred::True => Ok(true),
            BorrowedPred::Cmp {
                index,
                op,
                literal,
                flipped,
            } => {
                let ord = row[*index].compare_value(literal)?;
                let ord = if *flipped { ord.reverse() } else { ord };
                Ok(op.matches(ord))
            }
            BorrowedPred::Range { index, lo, hi } => {
                let v = &row[*index];
                Ok(v.compare_value(lo)? != Ordering::Less
                    && v.compare_value(hi)? != Ordering::Greater)
            }
            BorrowedPred::And(items) => {
                for p in items {
                    if !p.matches(row)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            BorrowedPred::Or(items) => {
                for p in items {
                    if p.matches(row)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            BorrowedPred::Not(inner) => Ok(!inner.matches(row)?),
        }
    }
}

/// One compact position over a range of chunk rows: the decoded column, the
/// field's template, and the column index of the range's first row.
type View<'r> = (&'r ColumnData, &'r Value, usize);

/// Drops from `sel` (row offsets into the view) the rows of a typed column
/// that fall outside `[lo, hi]` — when the column (by its `template`) and both
/// bounds are of one numeric type, so the comparison is the one
/// [`Value::compare`] would make (a NaN is "equal" to everything there and
/// passes here too). Any other pairing leaves `sel` as it is.
fn narrow_to_range((col, template, at): View<'_>, lo: &Value, hi: &Value, sel: &mut Vec<u32>) {
    use Value::{Float, Int, Timestamp};
    match (col, template, lo, hi) {
        (ColumnData::Ints(v), Int(_), Int(lo), Int(hi))
        | (ColumnData::Ints(v), Timestamp(_), Timestamp(lo), Timestamp(hi)) => {
            sel.retain(|&i| (*lo..=*hi).contains(&v[at + i as usize]));
        }
        (ColumnData::Floats(v), _, Float(lo), Float(hi)) => sel.retain(|&i| {
            let x = &v[at + i as usize];
            x.partial_cmp(lo) != Some(Ordering::Less)
                && x.partial_cmp(hi) != Some(Ordering::Greater)
        }),
        _ => {}
    }
}

/// A windowed-aggregate fold running inside a cursor's borrowed decode loop:
/// matching rows feed the accumulator as [`FieldRef`]s and are never
/// materialized into the row buffer.
struct CursorFold {
    /// Index of the bucket field within the decoded compact refs.
    bucket: usize,
    /// Index of the value field within the decoded compact refs.
    value: usize,
    acc: WindowAccumulator,
}

/// Materializes the projection `out` (indices into `refs`; all of them when
/// `None`) of one borrowed row — the only place the borrowed loop allocates.
#[inline]
fn materialize(refs: &[FieldRef<'_>], out: Option<&[usize]>) -> Result<Record> {
    match out {
        Some(out) => {
            let mut row = Vec::with_capacity(out.len());
            for &i in out {
                row.push(refs[i].to_value()?);
            }
            Ok(row)
        }
        None => {
            let mut row = Vec::with_capacity(refs.len());
            for r in refs {
                row.push(r.to_value()?);
            }
            Ok(row)
        }
    }
}

/// Streams the decoded rows of one stored object — or, for a vertical
/// partition, of the objects a scan needs, advancing together.
///
/// The hot loop is the same whatever the encoding: a row is presented as
/// borrowed [`FieldRef`]s, the pushed-down predicate runs on the refs, and a
/// survivor is folded or materialized. What differs is where the refs come
/// from — the records of a row page ([`ObjectCursor::step_rows`]) or the
/// typed columns of a decoded chunk ([`ObjectCursor::step_columns`]).
///
/// Rows come out *compact*: only the object positions listed in
/// [`ObjectCursor::compact`] are present (ascending object order), with no
/// NULL padding for skipped fields — the projection and predicate above are
/// compiled against these compact positions, so the hot loop never touches a
/// value it did not need to decode.
struct ObjectCursor<'a> {
    obj: &'a StoredObject,
    pages: Vec<PageId>,
    next_page: usize,
    buf: VecDeque<Record>,
    /// Ascending object positions present in each yielded row, and the
    /// template value of each.
    compact: Vec<usize>,
    templates: Vec<Value>,
    /// Column-block encodings: one chunk reader per object of the group, and
    /// the `(reader, field)` behind each compact position.
    readers: Vec<ChunkReader<'a>>,
    slots: Vec<(usize, usize)>,
    /// Row position the readers have delivered up to, and the rows of the
    /// current range that survived the predicate.
    row: usize,
    sel: Vec<u32>,
    /// The borrowed loop is active: rows are decoded as [`FieldRef`]s straight
    /// out of page frames (always for column blocks — under forced-copy reads
    /// the frames are copies; for row pages unless reads are forced to copy).
    borrowed: bool,
    /// Predicate pushed down into the borrowed loop (evaluated on borrowed
    /// refs before anything is materialized), and the compact positions it
    /// reads — the columns a chunk decodes first.
    borrowed_pred: Option<BorrowedPred>,
    pred_cols: Vec<usize>,
    /// Projection pushed down into the borrowed loop: indices into the
    /// compact refs. When set, rows in `buf` are final output rows.
    out: Option<Vec<usize>>,
    /// Rows in `buf` are already filtered and projected; the state above the
    /// cursor must pass them through untouched.
    finished: bool,
    /// When set, matching rows are folded here instead of entering `buf`.
    fold: Option<CursorFold>,
    /// Fixed-offset decode plan compiled from the object's schema templates;
    /// records matching the expected shape skip the generic varint walk.
    fast: Option<FixedRowPlan>,
    /// Reusable staging vector for the row-at-a-time borrowed refill (the
    /// bulk drain writes past it, straight into the caller's output).
    scratch: Vec<Record>,
}

impl<'a> ObjectCursor<'a> {
    /// Opens a cursor over `objs` — one object, or the column-block objects
    /// of a vertical partition — reading the positions marked in `needed`
    /// (which, like `templates`, runs over the objects' fields concatenated).
    fn new(objs: &[&'a StoredObject], needed: &[bool], templates: Vec<Value>) -> Result<Self> {
        let obj = objs[0];
        let columnar = matches!(obj.encoding, ObjectEncoding::ColumnBlocks { .. });
        let borrowed = columnar
            || (matches!(obj.encoding, ObjectEncoding::Rows) && !obj.heap.pager().force_copy());
        let compact: Vec<usize> = match obj.encoding {
            // Folded groups are decoded whole anyway; keep every field.
            ObjectEncoding::Folded { .. } => (0..obj.fields.len()).collect(),
            _ => needed
                .iter()
                .enumerate()
                .filter(|(_, &b)| b)
                .map(|(i, _)| i)
                .collect(),
        };
        let mut readers = Vec::new();
        let mut slots = Vec::new();
        if columnar {
            let mut base = 0usize;
            for (r, o) in objs.iter().enumerate() {
                if !matches!(o.encoding, ObjectEncoding::ColumnBlocks { .. }) {
                    return Err(LayoutError::Corrupted(format!(
                        "object `{}` of a vertical partition is not column-encoded",
                        o.name
                    )));
                }
                let end = base + o.fields.len();
                readers.push(ChunkReader::new(o, &needed[base..end])?);
                let here = compact.iter().filter(|&&p| (base..end).contains(&p));
                slots.extend(here.map(|&p| (r, p - base)));
                base = end;
            }
        }
        let fast = if borrowed && !columnar {
            FixedRowPlan::compile(&templates, &compact)
        } else {
            None
        };
        Ok(ObjectCursor {
            pages: if columnar { Vec::new() } else { obj.heap.page_ids()? },
            obj,
            next_page: 0,
            buf: VecDeque::new(),
            templates: compact.iter().map(|&p| templates[p].clone()).collect(),
            compact,
            readers,
            slots,
            row: 0,
            sel: Vec::new(),
            borrowed,
            borrowed_pred: None,
            pred_cols: Vec::new(),
            out: None,
            finished: false,
            fold: None,
            fast,
            scratch: Vec::new(),
        })
    }

    /// Takes the accumulator of a completed in-cursor fold, if one ran.
    fn take_fold(&mut self) -> Option<WindowAccumulator> {
        self.fold.take().map(|f| f.acc)
    }

    fn next_row(&mut self) -> Result<Option<Record>> {
        loop {
            if let Some(row) = self.buf.pop_front() {
                return Ok(Some(row));
            }
            if !self.refill()? {
                return Ok(None);
            }
        }
    }

    /// Decodes the next page (or column-chunk range) into `buf`. Returns
    /// `false` when the object is exhausted.
    fn refill(&mut self) -> Result<bool> {
        if self.borrowed {
            let mut rows = std::mem::take(&mut self.scratch);
            rows.clear();
            let res = self.step_into(&mut rows);
            self.buf.extend(rows.drain(..));
            self.scratch = rows;
            return res;
        }
        let Some(&page_id) = self.pages.get(self.next_page) else {
            return Ok(false);
        };
        self.next_page += 1;
        match &self.obj.encoding {
            ObjectEncoding::Rows => {
                // Forced-copy mode: the legacy eager path — copy the page out
                // of the store and decode every record into owned values
                // before filtering. Kept as the A/B baseline and as the
                // fallback when frames are unavailable.
                let page = self.obj.heap.pager().read(page_id)?;
                let reader = SlottedReader::new(&page);
                for slot in 0..reader.slot_count() {
                    self.buf
                        .push_back(decode_record_projected(reader.get(slot)?, &self.compact)?);
                }
            }
            ObjectEncoding::Folded { key_fields } => {
                let key_fields = *key_fields;
                let frame = self.obj.heap.pager().read_frame(page_id)?;
                let reader = SlottedReader::over(frame.data(), frame.id());
                for slot in 0..reader.slot_count() {
                    let folded = decode_record(reader.get(slot)?)?;
                    let (key, nested) = split_folded(&folded, key_fields, &self.obj.name)?;
                    for inner in nested {
                        self.buf.push_back(stitch_folded_row(key, inner)?);
                    }
                }
            }
            ObjectEncoding::ColumnBlocks { .. } => unreachable!("column blocks are borrowed"),
        }
        Ok(true)
    }

    /// Bulk-drains a finished (already filtered and projected) cursor: rows
    /// buffered by earlier `next_row` calls first, then every remaining page
    /// or chunk decoded straight into `out` — the row buffer is bypassed.
    fn drain_finished_into(&mut self, out: &mut Vec<Record>) -> Result<()> {
        debug_assert!(self.finished && self.borrowed);
        out.extend(self.buf.drain(..));
        while self.step_into(out)? {}
        Ok(())
    }

    /// One step of the borrowed loop — a row page or a column-chunk range —
    /// with survivors written to `sink` (or folded). `false` once exhausted.
    fn step_into(&mut self, sink: &mut Vec<Record>) -> Result<bool> {
        if !self.readers.is_empty() {
            return self.step_columns(sink);
        }
        let Some(&page_id) = self.pages.get(self.next_page) else {
            return Ok(false);
        };
        self.next_page += 1;
        self.step_rows(page_id, sink).map(|()| true)
    }

    /// The row-page source: decodes each record of one shared page frame
    /// into borrowed [`FieldRef`]s — through the fixed-offset plan when the
    /// record matches the compiled shape, the generic varint walk otherwise.
    fn step_rows(&mut self, page_id: PageId, sink: &mut Vec<Record>) -> Result<()> {
        let frame = self.obj.heap.pager().read_frame(page_id)?;
        let reader = SlottedReader::over(frame.data(), frame.id());
        let plan = self.fast.as_ref();
        let out = self.out.as_deref();
        // No predicate, no fold: every record materializes — the full-scan
        // hot path the frame-vs-copy A/B measures. With a plan, wanted
        // fields decode straight to owned values at their fixed offsets in
        // output order, with no borrowed intermediate at all.
        let straight: Option<Vec<u32>> = match plan {
            Some(plan) if self.borrowed_pred.is_none() && self.fold.is_none() => {
                sink.reserve(reader.slot_count());
                Some(match out {
                    Some(out) => out.iter().map(|&i| plan.offsets()[i]).collect(),
                    None => plan.offsets().to_vec(),
                })
            }
            _ => None,
        };
        let mut refs: Vec<FieldRef<'_>> = Vec::with_capacity(self.compact.len());
        for slot in 0..reader.slot_count() {
            let bytes = reader.get(slot)?;
            if let (Some(plan), Some(offsets)) = (plan, &straight) {
                if let Some(row) = plan.decode_owned(bytes, offsets)? {
                    sink.push(row);
                    continue;
                }
            }
            let fast = match plan {
                Some(p) => p.decode_borrowed(bytes, &mut refs)?,
                None => false,
            };
            if !fast {
                decode_fields_borrowed(bytes, &self.compact, &mut refs)?;
            }
            if let Some(pred) = &self.borrowed_pred {
                if !pred.matches(&refs)? {
                    continue;
                }
            }
            // A survivor feeds the aggregate (no allocation at all) or
            // materializes the projection (strings and lists allocate only
            // now).
            match &mut self.fold {
                Some(fold) => fold.acc.fold_refs(&refs[fold.bucket], &refs[fold.value]),
                None => sink.push(materialize(&refs, out)?),
            }
        }
        Ok(())
    }

    /// The column-chunk source, with late materialization: the readers move
    /// to the next range of rows every one of them holds decoded or
    /// decodable (chunk boundaries may differ between the objects of a
    /// partition), the predicate's columns are decoded and evaluated first,
    /// and the remaining columns are decoded only if a row survived — so a
    /// selective window pays for one column, not for the projection.
    fn step_columns(&mut self, sink: &mut Vec<Record>) -> Result<bool> {
        let mut live = 0usize;
        for reader in &mut self.readers {
            while reader.end() == self.row && reader.next_chunk()? {}
            live += usize::from(reader.end() > self.row);
        }
        if live == 0 {
            return Ok(false);
        }
        if live < self.readers.len() {
            return Err(LayoutError::Corrupted(format!(
                "objects of the partition around `{}` disagree on the row count: {live} of {} \
                 continue past row {}",
                self.obj.name,
                self.readers.len(),
                self.row
            )));
        }
        let end = self.readers.iter().map(ChunkReader::end).min().unwrap_or(self.row);
        let (row, n) = (self.row, end - self.row);
        self.row = end;
        let ObjectCursor {
            readers,
            slots,
            sel,
            templates,
            borrowed_pred,
            pred_cols,
            out,
            fold,
            ..
        } = self;
        fn view<'r>(
            readers: &'r [ChunkReader<'_>],
            templates: &'r [Value],
            (r, f): (usize, usize),
            (c, row): (usize, usize),
        ) -> View<'r> {
            (readers[r].col(f), &templates[c], row - readers[r].start)
        }
        sel.clear();
        sel.extend(0..n as u32);
        if let Some(pred) = borrowed_pred {
            for &c in pred_cols.iter() {
                readers[slots[c].0].decode(slots[c].1)?;
            }
            let views: Vec<(usize, View<'_>)> = pred_cols
                .iter()
                .map(|&c| (c, view(readers, templates, slots[c], (c, row))))
                .collect();
            // Conjuncts that are a range over a numeric column of their
            // bounds' own type thin the candidates on the typed vector; the
            // predicate proper then runs on what is left, so the pre-pass
            // only has to be conservative, never exact.
            for conjunct in pred.conjuncts() {
                if let BorrowedPred::Range { index, lo, hi } = conjunct {
                    if let Some(&(_, view)) = views.iter().find(|(c, _)| c == index) {
                        narrow_to_range(view, lo, hi, sel);
                    }
                }
            }
            let mut refs = vec![FieldRef::Null; templates.len()];
            let mut kept = 0usize;
            for k in 0..sel.len() {
                let i = sel[k];
                for &(c, (col, template, at)) in &views {
                    refs[c] = column_field(col, template, at + i as usize);
                }
                if pred.matches(&refs)? {
                    sel[kept] = i;
                    kept += 1;
                }
            }
            sel.truncate(kept);
        }
        if sel.is_empty() {
            return Ok(true);
        }
        for &(r, f) in slots.iter() {
            readers[r].decode(f)?;
        }
        let views = |c: usize| view(readers, templates, slots[c], (c, row));
        match fold {
            // Fold on columns: the accumulator is fed straight from the typed
            // vectors, in storage order (float sums stay bit-identical to the
            // row path); no row is assembled.
            Some(fold) => {
                let ((b, b_t, b_at), (v, v_t, v_at)) = (views(fold.bucket), views(fold.value));
                for &i in sel.iter() {
                    let i = i as usize;
                    let bucket = column_field(b, b_t, b_at + i);
                    fold.acc.fold_refs(&bucket, &column_field(v, v_t, v_at + i));
                }
            }
            // Survivors materialize straight from the columns, in output
            // order — the `Record` is the only allocation.
            None => {
                let views: Vec<View<'_>> = match out {
                    Some(out) => out.iter().map(|&c| views(c)).collect(),
                    None => (0..templates.len()).map(views).collect(),
                };
                sink.reserve(sel.len());
                for &i in sel.iter() {
                    let mut record = Vec::with_capacity(views.len());
                    for &(col, template, at) in &views {
                        record.push(column_field(col, template, at + i as usize).to_value()?);
                    }
                    sink.push(record);
                }
            }
        }
        Ok(true)
    }
}

/// Per-object scan state: a decoding cursor plus the predicate and
/// projection compiled against this object's field order.
struct ObjectState<'a> {
    cursor: ObjectCursor<'a>,
    predicate: Option<CompiledPredicate>,
    out_positions: Vec<usize>,
    /// `out_positions` is exactly `0..arity` — yield rows unchanged.
    identity: bool,
    /// `out_positions` repeats a position — fall back to cloning.
    has_dup: bool,
}

/// Index-assisted scan state: the probe's packed positions, grouped into
/// `(object, page ordinal, ascending slots)` batches in storage order, so
/// every heap page holding a candidate row is read exactly once and rows
/// still come out in storage order (matching the streamed path).
struct IndexedScan {
    batches: Vec<(usize, usize, Vec<usize>)>,
    next_batch: usize,
    buf: VecDeque<Record>,
    /// Decode state for the object of the current batch.
    state: Option<(usize, IndexedObjState)>,
}

/// Per-object decode state for the indexed path: like [`ObjectState`] but
/// page-addressed instead of cursor-driven.
struct IndexedObjState {
    pages: Vec<PageId>,
    compact: Vec<usize>,
    predicate: Option<CompiledPredicate>,
    out_positions: Vec<usize>,
    identity: bool,
    has_dup: bool,
}

/// Groups sorted packed positions into per-`(object, page)` slot batches.
fn group_positions(positions: &[u64]) -> Vec<(usize, usize, Vec<usize>)> {
    let mut batches: Vec<(usize, usize, Vec<usize>)> = Vec::new();
    for &pos in positions {
        let (obj, page, slot) = unpack_pos(pos);
        match batches.last_mut() {
            Some((o, p, slots)) if *o == obj && *p == page => {
                // Duplicate positions can arise when a probe's outliers
                // overlap tree results; decode each slot once.
                if slots.last() != Some(&slot) {
                    slots.push(slot);
                }
            }
            _ => batches.push((obj, page, vec![slot])),
        }
    }
    batches
}

/// A lazy scan over a [`PhysicalLayout`]: yields already-filtered,
/// already-projected records in storage order, decoding pages on demand.
///
/// Every layout streams. A vertically partitioned layout is read by one
/// cursor over the objects the scan needs, their column chunks advancing in
/// lock-step by row position — nothing is stitched or buffered up front, and
/// a scan that needs a single object reads it like any other.
pub struct ScanIter<'a> {
    layout: &'a PhysicalLayout,
    selected: Vec<usize>,
    /// The selected objects are the column groups of one vertical partition
    /// (read together) rather than horizontal pieces (read one by one).
    vertical: bool,
    out_fields: Vec<String>,
    predicate: Option<Condition>,
    /// Streaming state: the cursor being drained and its ordinal.
    obj_cursor: usize,
    current: Option<ObjectState<'a>>,
    /// Index-assisted state (set when the declared index covers the
    /// predicate); replaces the streamed path entirely.
    indexed: Option<IndexedScan>,
    /// Levelled-tier state: once the base path is exhausted, the scan
    /// continues through the non-pruned runs (deepest level first) and then
    /// the memtable. Rows there are full-width, so the predicate and
    /// projection are compiled once against the layout schema.
    lsm_runs: Vec<usize>,
    lsm_cursor: usize,
    lsm_buf: VecDeque<Record>,
    /// Memtable rows the scan may yield, pre-selected by pushing the
    /// predicate's first-key range into the ordered memtable.
    lsm_mem: Vec<&'a Record>,
    lsm_mem_pos: usize,
    lsm_pred: Option<CompiledPredicate>,
    lsm_out: Vec<usize>,
    lsm_has_dup: bool,
    /// Set while [`ScanIter::fold_windowed`] drives the scan: newly opened
    /// cursors that fully absorb the predicate and projection fold in place
    /// instead of yielding rows.
    fold_spec: Option<FoldSpec>,
    /// Accumulators harvested from exhausted in-cursor folds.
    fold_acc: Option<WindowAccumulator>,
    done: bool,
}

/// Where the bucket and value fields of an active windowed fold live in the
/// scan's output projection, plus the aggregate spec itself (needed to seed
/// per-cursor accumulators).
struct FoldSpec {
    bucket_pos: usize,
    value_pos: usize,
    spec: WindowedAggregate,
}

impl<'a> ScanIter<'a> {
    pub(crate) fn new(
        layout: &'a PhysicalLayout,
        fields: Option<&[String]>,
        predicate: Option<&Condition>,
    ) -> Result<ScanIter<'a>> {
        let out_fields: Vec<String> = match fields {
            Some(f) => f.to_vec(),
            None => layout.schema.field_names(),
        };
        // Validate the projection (and implicitly the output arity) up front.
        layout
            .schema
            .indices_of(&out_fields)
            .map_err(LayoutError::Algebra)?;
        let mut selected = layout.objects_to_read(fields, predicate);
        let vertical = layout.is_vertically_partitioned();
        if vertical && selected.is_empty() && !layout.objects.is_empty() {
            // A zero-width projection still yields one (empty) row per tuple;
            // any column group knows how many there are.
            selected.push(0);
        }
        let mut iter = ScanIter {
            layout,
            selected,
            vertical,
            out_fields,
            predicate: predicate.cloned(),
            obj_cursor: 0,
            current: None,
            indexed: None,
            lsm_runs: Vec::new(),
            lsm_cursor: 0,
            lsm_buf: VecDeque::new(),
            lsm_mem: Vec::new(),
            lsm_mem_pos: 0,
            lsm_pred: None,
            lsm_out: Vec::new(),
            lsm_has_dup: false,
            fold_spec: None,
            fold_acc: None,
            done: false,
        };
        if let Some(lsm) = &layout.lsm {
            let ranges = predicate.map(extract_ranges).unwrap_or_default();
            iter.lsm_runs = lsm
                .runs
                .iter()
                .enumerate()
                .filter(|(_, r)| r.may_match(&lsm.key, &ranges))
                .map(|(i, _)| i)
                .collect();
            let first_key_range = lsm.key.first().and_then(|f| ranges.get(f)).copied();
            iter.lsm_mem = lsm.memtable.select(first_key_range);
            let schema_fields = layout.schema.field_names();
            iter.lsm_out = iter
                .out_fields
                .iter()
                .map(|f| resolve(f, &schema_fields, layout.schema.name()))
                .collect::<Result<_>>()?;
            iter.lsm_has_dup = has_duplicates(&iter.lsm_out);
            iter.lsm_pred = predicate
                .map(|p| CompiledPredicate::compile(p, &schema_fields, layout.schema.name()))
                .transpose()?;
        }
        if let (false, Some(pred), Some(idx)) = (vertical, predicate, layout.index.as_ref()) {
            let ranges = extract_ranges(pred);
            if idx.covers(&ranges) {
                let positions = idx.probe(&ranges)?;
                iter.indexed = Some(IndexedScan {
                    batches: group_positions(&positions),
                    next_batch: 0,
                    buf: VecDeque::new(),
                    state: None,
                });
            }
        }
        Ok(iter)
    }

    /// Whether this scan resolves the predicate through the declared index
    /// instead of streaming every selected object.
    pub fn uses_index(&self) -> bool {
        self.indexed.is_some()
    }

    /// Restarts the scan from the first record.
    pub fn rewind(&mut self) -> Result<()> {
        self.obj_cursor = 0;
        self.current = None;
        self.lsm_cursor = 0;
        self.lsm_buf.clear();
        self.lsm_mem_pos = 0;
        self.fold_acc = None;
        self.done = false;
        if let Some(indexed) = &mut self.indexed {
            indexed.next_batch = 0;
            indexed.buf.clear();
            indexed.state = None;
        }
        Ok(())
    }

    /// The objects the `n`-th cursor of the streamed path reads: all the
    /// selected column groups of a vertical partition at once, otherwise one
    /// selected object per cursor.
    fn group(&self, n: usize) -> Option<&[usize]> {
        if self.vertical {
            (n == 0 && !self.selected.is_empty()).then_some(&self.selected[..])
        } else {
            self.selected.get(n..n + 1)
        }
    }

    fn open_group(&self, group: &[usize]) -> Result<ObjectState<'a>> {
        let layout = self.layout;
        let objs: Vec<&'a StoredObject> = group.iter().map(|&i| &layout.objects[i]).collect();
        let name = &objs[0].name;
        // A group reads as one object holding its members' fields in order.
        let fields: Vec<String> = objs.iter().flat_map(|o| o.fields.iter().cloned()).collect();
        // Everything the scan touches — output fields plus predicate fields —
        // must be decoded; nothing else is.
        let pred_fields = self.predicate.as_ref().map(Condition::referenced_fields);
        let mut needed = vec![false; fields.len()];
        for f in self.out_fields.iter().chain(pred_fields.iter().flatten()) {
            needed[resolve(f, &fields, name)?] = true;
        }
        let templates = layout.templates_for(&fields);
        let mut cursor = ObjectCursor::new(&objs, &needed, templates)?;
        // The cursor yields compact rows; rebind names to compact positions.
        let compact_names: Vec<String> = cursor
            .compact
            .iter()
            .map(|&p| fields[p].clone())
            .collect();
        let out_positions: Vec<usize> = self
            .out_fields
            .iter()
            .map(|f| resolve(f, &compact_names, name))
            .collect::<Result<_>>()?;
        let predicate = self
            .predicate
            .as_ref()
            .map(|p| CompiledPredicate::compile(p, &compact_names, name))
            .transpose()?;
        let identity = out_positions.len() == compact_names.len()
            && out_positions.iter().enumerate().all(|(i, &p)| i == p);
        let has_dup = has_duplicates(&out_positions);
        if cursor.borrowed {
            // Push the predicate and projection down into the borrowed loop
            // when the predicate (if any) compiles to borrowed form, so rows
            // that fail the filter never materialize a single value.
            let pushed = match &predicate {
                None => Some(None),
                Some(p) => BorrowedPred::compile(&p.node).map(Some),
            };
            if let Some(pred) = pushed {
                if pred.is_some() {
                    cursor.pred_cols = pred_fields
                        .iter()
                        .flatten()
                        .map(|f| resolve(f, &compact_names, name))
                        .collect::<Result<_>>()?;
                }
                cursor.borrowed_pred = pred;
                cursor.finished = true;
                if let Some(fs) = &self.fold_spec {
                    // Aggregate pushdown: fold inside the loop instead of
                    // materializing projected rows.
                    cursor.fold = Some(CursorFold {
                        bucket: out_positions[fs.bucket_pos],
                        value: out_positions[fs.value_pos],
                        acc: WindowAccumulator::new(&fs.spec),
                    });
                } else {
                    cursor.out = Some(out_positions.clone());
                }
            }
        }
        Ok(ObjectState {
            cursor,
            predicate,
            out_positions,
            identity,
            has_dup,
        })
    }

    /// Like [`ScanIter::open_group`] but for the page-addressed indexed
    /// path: no cursor, just the decode/projection state plus the object's
    /// page list so ordinals from packed positions resolve to page ids.
    fn indexed_obj_state(&self, obj_index: usize) -> Result<IndexedObjState> {
        let obj = &self.layout.objects[obj_index];
        let mut needed = vec![false; obj.fields.len()];
        for f in &self.out_fields {
            needed[resolve(f, &obj.fields, &obj.name)?] = true;
        }
        if let Some(pred) = &self.predicate {
            for f in pred.referenced_fields() {
                needed[resolve(&f, &obj.fields, &obj.name)?] = true;
            }
        }
        let compact: Vec<usize> = needed
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
            .collect();
        let compact_names: Vec<String> =
            compact.iter().map(|&p| obj.fields[p].clone()).collect();
        let out_positions: Vec<usize> = self
            .out_fields
            .iter()
            .map(|f| resolve(f, &compact_names, &obj.name))
            .collect::<Result<_>>()?;
        let predicate = self
            .predicate
            .as_ref()
            .map(|p| CompiledPredicate::compile(p, &compact_names, &obj.name))
            .transpose()?;
        let identity = out_positions.len() == compact_names.len()
            && out_positions.iter().enumerate().all(|(i, &p)| i == p);
        let has_dup = has_duplicates(&out_positions);
        Ok(IndexedObjState {
            pages: obj.heap.page_ids()?,
            compact,
            predicate,
            out_positions,
            identity,
            has_dup,
        })
    }

    fn next_indexed(&mut self) -> Result<Option<Record>> {
        loop {
            {
                let indexed = self.indexed.as_mut().expect("indexed path active");
                if let Some(row) = indexed.buf.pop_front() {
                    return Ok(Some(row));
                }
                if indexed.next_batch >= indexed.batches.len() {
                    return Ok(None);
                }
            }
            self.decode_next_batch()?;
        }
    }

    /// Reads the heap page of the next `(object, page, slots)` batch and
    /// decodes its candidate slots into the indexed buffer, applying the
    /// residual predicate (probes are a superset) and the projection.
    fn decode_next_batch(&mut self) -> Result<()> {
        let (obj_idx, need_state) = {
            let indexed = self.indexed.as_ref().expect("indexed path active");
            let (obj_idx, _, _) = indexed.batches[indexed.next_batch];
            let need_state = !matches!(&indexed.state, Some((o, _)) if *o == obj_idx);
            (obj_idx, need_state)
        };
        if need_state {
            let state = self.indexed_obj_state(obj_idx)?;
            self.indexed.as_mut().expect("indexed path active").state = Some((obj_idx, state));
        }
        let layout = self.layout;
        let indexed = self.indexed.as_mut().expect("indexed path active");
        let (_, st) = indexed.state.as_ref().expect("state installed above");
        let (_, page_ord, slots) = &indexed.batches[indexed.next_batch];
        let &page_id = st.pages.get(*page_ord).ok_or_else(|| {
            LayoutError::Corrupted(format!(
                "index references page ordinal {page_ord} beyond object {obj_idx}"
            ))
        })?;
        let frame = layout.objects[obj_idx].heap.pager().read_frame(page_id)?;
        let reader = SlottedReader::over(frame.data(), frame.id());
        let mut decoded = Vec::with_capacity(slots.len());
        for &slot in slots {
            let mut row = decode_record_projected(reader.get(slot)?, &st.compact)?;
            if let Some(pred) = &st.predicate {
                if !pred.matches(&row)? {
                    continue;
                }
            }
            decoded.push(if st.identity {
                row
            } else {
                project_row(&mut row, &st.out_positions, st.has_dup)
            });
        }
        indexed.buf.extend(decoded);
        indexed.next_batch += 1;
        Ok(())
    }

    fn next_streamed(&mut self) -> Result<Option<Record>> {
        loop {
            if self.current.is_none() {
                let Some(group) = self.group(self.obj_cursor) else {
                    return Ok(None);
                };
                self.current = Some(self.open_group(group)?);
            }
            let state = self.current.as_mut().expect("object state opened above");
            match state.cursor.next_row()? {
                None => {
                    // Harvest the accumulator of an in-cursor fold before the
                    // state is dropped; `fold_windowed` merges it at the end.
                    if let Some(harvest) = state.cursor.take_fold() {
                        match &mut self.fold_acc {
                            Some(acc) => acc.absorb(harvest),
                            None => self.fold_acc = Some(harvest),
                        }
                    }
                    self.current = None;
                    self.obj_cursor += 1;
                }
                Some(mut row) => {
                    if state.cursor.finished {
                        // The cursor already filtered and projected.
                        return Ok(Some(row));
                    }
                    if let Some(pred) = &state.predicate {
                        if !pred.matches(&row)? {
                            continue;
                        }
                    }
                    if state.identity {
                        return Ok(Some(row));
                    }
                    return Ok(Some(project_row(&mut row, &state.out_positions, state.has_dup)));
                }
            }
        }
    }

    /// Collects every remaining row. Result-equivalent to
    /// `collect::<Result<Vec<_>>>()`, but cursors that already filtered and
    /// projected their rows inside the borrowed loop (the pushdown path) are
    /// emptied a page or chunk at a time instead of pumping the row-at-a-time
    /// iterator protocol — the streaming machinery runs once per page, not
    /// once per row.
    pub fn collect_rows(mut self) -> Result<Vec<Record>> {
        if self.done || self.indexed.is_some() {
            return self.collect();
        }
        let mut out = Vec::new();
        self.drain_streamed_into(&mut out)?;
        while let Some(row) = self.next_lsm()? {
            out.push(row);
        }
        Ok(out)
    }

    /// Drains the streamed (non-indexed) path into `out`. Finished cursors —
    /// the borrowed pushdown path, whose loop already filtered, projected,
    /// and materialized — decode every page or chunk straight into `out`.
    /// Anything else (forced-copy row cursors, predicates that did not
    /// compile to borrowed form) streams through the same row-at-a-time
    /// protocol the iterator uses.
    fn drain_streamed_into(&mut self, out: &mut Vec<Record>) -> Result<()> {
        loop {
            if self.current.is_none() {
                let Some(group) = self.group(self.obj_cursor) else {
                    return Ok(());
                };
                self.current = Some(self.open_group(group)?);
            }
            let state = self.current.as_mut().expect("object state opened above");
            if state.cursor.finished {
                state.cursor.drain_finished_into(out)?;
                if let Some(harvest) = state.cursor.take_fold() {
                    match &mut self.fold_acc {
                        Some(acc) => acc.absorb(harvest),
                        None => self.fold_acc = Some(harvest),
                    }
                }
                self.current = None;
                self.obj_cursor += 1;
                continue;
            }
            // The current cursor needs the outer filter/project; let the
            // row-at-a-time machinery run it (it re-enters this loop's fast
            // path once the next finished cursor opens).
            match self.next_streamed()? {
                Some(row) => out.push(row),
                None => return Ok(()),
            }
        }
    }

    /// Exhausts the scan, folding every matching row into fixed-width
    /// buckets. The bucket and value fields must be part of the scan's
    /// projection. On the borrowed path — row pages and column chunks,
    /// vertical partitions included — the fold runs inside the cursor's loop
    /// (`ObjectCursor::step_into`) and no output row is ever allocated; every
    /// other path (forced-copy row pages, predicates with no borrowed form,
    /// index probes, levelled runs, memtables) folds the rows it would have
    /// yielded. Terminal: the iterator is left exhausted.
    pub fn fold_windowed(&mut self, spec: &WindowedAggregate) -> Result<WindowAccumulator> {
        spec.validate()?;
        let position = |field: &str| {
            self.out_fields
                .iter()
                .position(|f| f == field)
                .ok_or_else(|| {
                    LayoutError::Unsupported(format!(
                        "windowed aggregate field `{field}` is not in the scan projection"
                    ))
                })
        };
        let fs = FoldSpec {
            bucket_pos: position(&spec.bucket_field)?,
            value_pos: position(&spec.value_field)?,
            spec: spec.clone(),
        };
        let (bucket_pos, value_pos) = (fs.bucket_pos, fs.value_pos);
        self.fold_spec = Some(fs);
        let mut acc = WindowAccumulator::new(spec);
        loop {
            match self.next() {
                Some(Ok(row)) => acc.fold_values(&row[bucket_pos], &row[value_pos]),
                Some(Err(e)) => {
                    self.fold_spec = None;
                    return Err(e);
                }
                None => break,
            }
        }
        self.fold_spec = None;
        if let Some(harvest) = self.fold_acc.take() {
            acc.absorb(harvest);
        }
        Ok(acc)
    }

    /// Continues the scan through the levelled tier after the base objects
    /// are exhausted: non-pruned runs in scan order (deepest level first,
    /// oldest first within a level, each internally key-sorted), then the
    /// memtable in key order (already narrowed to the predicate's first-key
    /// range by the ordered memtable).
    fn next_lsm(&mut self) -> Result<Option<Record>> {
        let Some(lsm) = &self.layout.lsm else {
            return Ok(None);
        };
        loop {
            if let Some(mut row) = self.lsm_buf.pop_front() {
                return Ok(Some(project_row(&mut row, &self.lsm_out, self.lsm_has_dup)));
            }
            if let Some(&run_idx) = self.lsm_runs.get(self.lsm_cursor) {
                self.lsm_cursor += 1;
                for row in lsm.runs[run_idx].read_rows()? {
                    if let Some(pred) = &self.lsm_pred {
                        if !pred.matches(&row)? {
                            continue;
                        }
                    }
                    self.lsm_buf.push_back(row);
                }
                continue;
            }
            while let Some(&row) = self.lsm_mem.get(self.lsm_mem_pos) {
                self.lsm_mem_pos += 1;
                if let Some(pred) = &self.lsm_pred {
                    if !pred.matches(row)? {
                        continue;
                    }
                }
                let mut row = row.clone();
                return Ok(Some(project_row(&mut row, &self.lsm_out, self.lsm_has_dup)));
            }
            return Ok(None);
        }
    }
}

fn has_duplicates(positions: &[usize]) -> bool {
    positions
        .iter()
        .enumerate()
        .any(|(i, p)| positions[..i].contains(p))
}

/// Extracts the output values from a full-width row, moving values out when
/// positions are unique and cloning when the projection repeats a field.
fn project_row(row: &mut Record, positions: &[usize], has_dup: bool) -> Record {
    if has_dup {
        positions.iter().map(|&i| row[i].clone()).collect()
    } else {
        positions
            .iter()
            .map(|&i| std::mem::replace(&mut row[i], Value::Null))
            .collect()
    }
}

impl Iterator for ScanIter<'_> {
    type Item = Result<Record>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let stepped = if self.indexed.is_some() {
            self.next_indexed()
        } else {
            self.next_streamed()
        };
        match stepped {
            Ok(Some(row)) => return Some(Ok(row)),
            Ok(None) => {}
            Err(e) => {
                // An error ends the stream; further calls yield None.
                self.done = true;
                return Some(Err(e));
            }
        }
        // Base exhausted; the levelled tier (if any) continues the scan.
        match self.next_lsm() {
            Ok(Some(row)) => Some(Ok(row)),
            Ok(None) => None,
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{render, MemTableProvider, RenderOptions};
    use rodentstore_algebra::schema::{Field, Schema};
    use rodentstore_algebra::types::DataType;
    use rodentstore_algebra::LayoutExpr;
    use rodentstore_storage::pager::Pager;
    use std::sync::Arc;

    fn schema() -> Schema {
        Schema::new(
            "T",
            vec![
                Field::new("a", DataType::Int),
                Field::new("name", DataType::String),
                Field::new("v", DataType::Float),
            ],
        )
    }

    fn records(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| {
                vec![
                    Value::Int(i as i64),
                    Value::Str(format!("row-{i}")),
                    Value::Float(i as f64 * 0.25),
                ]
            })
            .collect()
    }

    fn rendered(expr: LayoutExpr, n: usize) -> PhysicalLayout {
        let provider = MemTableProvider::single(schema(), records(n));
        let pager = Arc::new(Pager::in_memory_with_page_size(512));
        render(&expr, &provider, pager, RenderOptions::default()).unwrap()
    }

    #[test]
    fn compiled_predicate_matches_interpreted_eval() {
        let s = schema();
        let fields = s.field_names();
        let rows = records(40);
        let preds = vec![
            Condition::True,
            Condition::range("a", 5i64, 20i64),
            Condition::eq("name", "row-7"),
            Condition::range("v", 1.0, 4.0).and(Condition::range("a", 0i64, 30i64)),
            Condition::Or(vec![
                Condition::eq("a", 3i64),
                Condition::Not(Box::new(Condition::range("a", 0i64, 35i64))),
            ]),
        ];
        for pred in preds {
            let compiled = CompiledPredicate::compile(&pred, &fields, "T").unwrap();
            for row in &rows {
                assert_eq!(
                    compiled.matches(row).unwrap(),
                    pred.eval(&s, row).unwrap(),
                    "{pred:?} on {row:?}"
                );
            }
        }
    }

    #[test]
    fn compiling_unknown_fields_fails() {
        let fields = schema().field_names();
        assert!(CompiledPredicate::compile(&Condition::eq("nope", 1i64), &fields, "T").is_err());
    }

    #[test]
    fn scan_iter_streams_rows_lazily_and_rewinds() {
        let layout = rendered(LayoutExpr::table("T"), 200);
        let mut iter = layout.scan_iter(None, None).unwrap();
        let first: Record = iter.next().unwrap().unwrap();
        assert_eq!(first[0], Value::Int(0));
        // Consume a few more, then rewind and verify replay from the top.
        for _ in 0..10 {
            iter.next().unwrap().unwrap();
        }
        iter.rewind().unwrap();
        let replayed: Vec<Record> = iter.map(|r| r.unwrap()).collect();
        assert_eq!(replayed.len(), 200);
        assert_eq!(replayed[0], first);
    }

    #[test]
    fn projection_skips_decoding_but_preserves_values() {
        for expr in [
            LayoutExpr::table("T"),
            LayoutExpr::table("T").columns(["a", "name", "v"]),
            LayoutExpr::table("T").vertical([vec!["a", "v"], vec!["name"]]),
        ] {
            let layout = rendered(expr, 120);
            let fields = vec!["v".to_string(), "a".to_string()];
            let rows: Vec<Record> = layout
                .scan_iter(Some(&fields), None)
                .unwrap()
                .map(|r| r.unwrap())
                .collect();
            assert_eq!(rows.len(), 120);
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(row[0], Value::Float(i as f64 * 0.25));
                assert_eq!(row[1], Value::Int(i as i64));
            }
        }
    }

    #[test]
    fn duplicate_projection_fields_are_cloned_not_nulled() {
        let layout = rendered(LayoutExpr::table("T"), 10);
        let fields = vec!["a".to_string(), "a".to_string()];
        let rows = layout.scan(Some(&fields), None).unwrap();
        assert_eq!(rows[3], vec![Value::Int(3), Value::Int(3)]);
    }

    #[test]
    fn predicate_streaming_matches_post_filtering() {
        let layout = rendered(LayoutExpr::table("T"), 150);
        let pred = Condition::range("a", 30i64, 59i64);
        let rows = layout.scan(None, Some(&pred)).unwrap();
        assert_eq!(rows.len(), 30);
        assert!(rows.iter().all(|r| {
            let a = r[0].as_i64().unwrap();
            (30..60).contains(&a) && r[1].as_str() == Some(&format!("row-{a}"))
        }));
    }

    #[test]
    fn borrowed_and_forced_copy_paths_agree() {
        let provider = MemTableProvider::single(schema(), records(150));
        let pager = Arc::new(Pager::in_memory_with_page_size(512));
        let layout = render(
            &LayoutExpr::table("T"),
            &provider,
            Arc::clone(&pager),
            RenderOptions::default(),
        )
        .unwrap();
        let fields = vec!["name".to_string(), "a".to_string()];
        let preds = [
            None,
            Some(Condition::range("a", 10i64, 120i64)),
            Some(Condition::eq("name", "row-42")),
            Some(Condition::Or(vec![
                Condition::eq("a", 3i64),
                Condition::Not(Box::new(Condition::range("v", 0.0, 30.0))),
            ])),
        ];
        for pred in &preds {
            assert!(!pager.force_copy());
            let borrowed = layout.scan(Some(&fields), pred.as_ref()).unwrap();
            pager.set_force_copy(true);
            let copied = layout.scan(Some(&fields), pred.as_ref()).unwrap();
            pager.set_force_copy(false);
            assert_eq!(borrowed, copied, "{pred:?}");
            assert!(!borrowed.is_empty());
        }
    }

    #[test]
    fn non_borrowable_predicates_fall_back_to_owned_eval() {
        // `pos()` needs positional context, so the predicate cannot be pushed
        // into the borrowed loop; the scan must still produce correct rows.
        let layout = rendered(LayoutExpr::table("T"), 50);
        let pred = Condition::Cmp {
            left: ElemExpr::Field("a".into()),
            op: CmpOp::Eq,
            right: ElemExpr::Pos,
        };
        let rows = layout.scan(None, Some(&pred)).unwrap();
        // Every row satisfies a == pos()... except pos() is evaluated with
        // context zero in scans, so only the row with a == 0 survives.
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(0));
    }

    #[test]
    fn fold_windowed_matches_reference_fold_across_encodings() {
        use crate::aggregate::WindowedAggregate;
        for expr in [
            LayoutExpr::table("T"),
            LayoutExpr::table("T").columns(["a", "name", "v"]),
            LayoutExpr::table("T").vertical([vec!["a", "v"], vec!["name"]]),
        ] {
            let layout = rendered(expr, 120);
            let spec = WindowedAggregate::new("a", 16.0, "v");
            let pred = Condition::range("a", 8i64, 99i64);
            for pred in [None, Some(&pred)] {
                let got = layout.scan_aggregate(&spec, pred).unwrap();
                // Reference: fold the rows an ordinary scan yields.
                let fields = vec!["a".to_string(), "v".to_string()];
                let rows = layout.scan(Some(&fields), pred).unwrap();
                let mut want = WindowAccumulator::new(&spec);
                for row in &rows {
                    want.fold_values(&row[0], &row[1]);
                }
                assert_eq!(got.rows_folded(), want.rows_folded());
                assert_eq!(got.rows_folded(), rows.len() as u64);
                assert_eq!(got.finish(), want.finish());
            }
        }
    }

    #[test]
    fn fold_windowed_with_bucket_equal_to_value() {
        let layout = rendered(LayoutExpr::table("T"), 40);
        let spec = WindowedAggregate::new("a", 10.0, "a");
        let acc = layout.scan_aggregate(&spec, None).unwrap();
        assert_eq!(acc.rows_folded(), 40);
        let rows = acc.finish();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].count, 10);
        assert_eq!(rows[0].sum, 45.0); // 0 + 1 + ... + 9
        assert_eq!(rows[3].min, 30.0);
        assert_eq!(rows[3].max, 39.0);
    }

    /// Replaces block `nth` (in heap order) of `obj` with `block`, which must
    /// not be longer than the block it replaces.
    fn overwrite_block(pager: &Pager, obj: &StoredObject, nth: usize, block: &[u8]) {
        use rodentstore_storage::slotted::SlottedPage;
        let mut seen = 0usize;
        for page_id in obj.heap.page_ids().unwrap() {
            let mut page = pager.read(page_id).unwrap();
            let mut records: Vec<Vec<u8>> =
                SlottedReader::new(&page).records().map(<[u8]>::to_vec).collect();
            if nth < seen + records.len() {
                records[nth - seen] = block.to_vec();
                let mut slotted = SlottedPage::open(&mut page);
                slotted.truncate_slots(0).unwrap();
                for record in &records {
                    slotted.insert(record).unwrap();
                }
                pager.write(&page).unwrap();
                return;
            }
            seen += records.len();
        }
        panic!("object has only {seen} blocks");
    }

    #[test]
    fn ragged_chunks_are_corruption_not_nulls() {
        use rodentstore_compress::{ColumnCodec, ColumnData, PlainCodec};
        let provider = MemTableProvider::single(schema(), records(100));
        let pager = Arc::new(Pager::in_memory_with_page_size(512));
        let layout = render(
            &LayoutExpr::table("T").pax_with(16),
            &provider,
            Arc::clone(&pager),
            RenderOptions::default(),
        )
        .unwrap();
        let obj = &layout.objects[0];
        // Chunk 0 is blocks 0..3 (a, name, v): give `v` one row where the
        // chunk holds sixteen.
        let short = PlainCodec.encode(&ColumnData::Floats(vec![0.5])).unwrap();
        overwrite_block(&pager, obj, 2, &short);
        let ragged = |result: Result<Vec<Record>>| match result {
            Err(LayoutError::Corrupted(msg)) => {
                assert!(msg.contains(&obj.name) && msg.contains("chunk 0"), "{msg}");
            }
            other => panic!("expected corruption, got {other:?}"),
        };
        ragged(layout.scan(None, None));
        ragged(layout.scan(Some(&["v".to_string()]), Some(&Condition::range("a", 0i64, 5i64))));
        ragged(layout.get_element(3, None).map(|row| vec![row]));
        let spec = WindowedAggregate::new("a", 8.0, "v");
        assert!(matches!(
            layout.scan_aggregate(&spec, None),
            Err(LayoutError::Corrupted(_))
        ));
        // Blocks nobody needs are not decoded, so the damage stays unseen...
        let a_only = vec!["a".to_string()];
        assert_eq!(layout.scan(Some(&a_only), None).unwrap().len(), 100);
        // ...unless the short block is the one the row count is taken from:
        // then the object comes up short of its catalog row count.
        assert!(matches!(
            layout.scan(Some(&["v".to_string()]), None),
            Err(LayoutError::Corrupted(_))
        ));
    }

    #[test]
    fn vertical_objects_with_different_chunk_splits_advance_in_lock_step() {
        // 300-byte names overflow a 512-byte page at any chunk size above
        // one, so the `name` group splits down to single-row chunks while
        // the `a, v` group keeps wide ones.
        let rows: Vec<Record> = (0..40)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Str(format!("{i:0>300}")),
                    Value::Float(i as f64 * 0.5),
                ]
            })
            .collect();
        let provider = MemTableProvider::single(schema(), rows.clone());
        let pager = Arc::new(Pager::in_memory_with_page_size(512));
        let layout = render(
            &LayoutExpr::table("T").vertical([vec!["a", "v"], vec!["name"]]),
            &provider,
            Arc::clone(&pager),
            RenderOptions::default(),
        )
        .unwrap();
        assert!(layout.objects[1].heap.record_count() > 2 * layout.objects[0].heap.record_count());
        assert_eq!(layout.scan(None, None).unwrap(), rows);
        // A predicate in one group, the projection in the other: only the
        // chunks of `name` holding a survivor are decoded.
        let before = pager.stats().snapshot();
        let pred = Condition::range("a", 10i64, 12i64);
        let got = layout.scan(Some(&["name".to_string()]), Some(&pred)).unwrap();
        let want: Vec<Record> = rows[10..=12].iter().map(|r| vec![r[1].clone()]).collect();
        assert_eq!(got, want);
        let io = pager.stats().snapshot().since(&before);
        assert_eq!(io.blocks_skipped, 40 - 3, "one single-row `name` chunk per filtered-out row");
        assert_eq!(
            io.pages_read as usize,
            layout.objects.iter().map(StoredObject::page_count).sum::<usize>(),
            "skipping a decode never skips a page"
        );
        for i in [0usize, 17, 39] {
            assert_eq!(layout.get_element(i, None).unwrap(), rows[i]);
        }
    }

    #[test]
    fn fold_on_columns_matches_the_row_fold_bit_for_bit() {
        let spec = WindowedAggregate::new("a", 16.0, "v");
        let pred = Condition::range("a", 8i64, 99i64);
        let rows = rendered(LayoutExpr::table("T"), 120);
        for expr in [
            LayoutExpr::table("T").pax_with(32),
            LayoutExpr::table("T").vertical([vec!["a"], vec!["name", "v"]]),
        ] {
            let columns = rendered(expr, 120);
            for pred in [None, Some(&pred)] {
                let want = rows.scan_aggregate(&spec, pred).unwrap();
                let got = columns.scan_aggregate(&spec, pred).unwrap();
                assert_eq!(got.rows_folded(), want.rows_folded());
                assert_eq!(got.finish(), want.finish());
            }
        }
    }

    #[test]
    fn get_element_matches_streamed_scan_for_all_encodings() {
        for expr in [
            LayoutExpr::table("T"),
            LayoutExpr::table("T").columns(["a", "name", "v"]),
            LayoutExpr::table("T").vertical([vec!["a"], vec!["name", "v"]]),
        ] {
            let layout = rendered(expr, 90);
            let rows = layout.scan(None, None).unwrap();
            for i in [0usize, 1, 44, 89] {
                assert_eq!(layout.get_element(i, None).unwrap(), rows[i]);
            }
            let narrow = vec!["name".to_string()];
            assert_eq!(
                layout.get_element(44, Some(&narrow)).unwrap(),
                vec![rows[44][1].clone()]
            );
        }
    }
}
