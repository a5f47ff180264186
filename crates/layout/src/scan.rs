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
//!   (`Condition::eval` walks the schema by name on every call); its one
//!   tree and one evaluation function read owned records and borrowed refs
//!   alike, so every predicate runs wherever the rows are;
//! * [`ScanIter`] yields records lazily, object by object and page by page,
//!   decoding only the fields a scan actually needs — projected-out fields
//!   are skipped over byte-wise (the self-describing row encoding carries
//!   lengths) and unneeded column blocks are never run through their codec;
//! * one borrowed loop serves every stored source alike — row pages (all
//!   their slots, or only the slots an index probe names) and column chunks
//!   (all of them, or only those whose fences meet the predicate's ranges),
//!   whether they belong to the base or to a sealed run of an `lsm[...]`
//!   tier, which is the inner layout over its rows: a row is a slice of
//!   [`FieldRef`]s — decoded out of a page frame, or read off the typed
//!   vectors of a decoded chunk — the predicate runs on the refs, and only
//!   survivors are folded or materialized (for column chunks the predicate's
//!   columns are decoded first and the rest only if a row survived); folded
//!   groups, stitched into owned rows, are filtered, projected and folded in
//!   the same cursor, so every row a cursor yields is final;
//! * [`RowTail`] is the one in-memory row source: the lsm memtable after a
//!   scan's last cursor, and the core crate's pending rows and canonical
//!   rows, filter, project and fold through it;
//! * positional access ([`PhysicalLayout::get_element`]) is a scan of one
//!   row: the unpredicated plan's row counts name the source holding the
//!   position, and only that source's cursor opens, restricted to the row.
//!   Every source takes row ranges — column chunks jump to them, row pages
//!   and folded groups are read up to the range's end (to count their rows)
//!   and decode only the rows inside it — and a memtable row is a one-row
//!   [`RowTail`];
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
    column_field, decode_fields_borrowed, decode_record, FieldRef, FixedRowPlan, Lane,
};
use crate::{LayoutError, Result};
use rodentstore_algebra::comprehension::{interleave_bits, CmpOp, Condition, ElemExpr};
use rodentstore_algebra::value::{Record, Value};
use rodentstore_algebra::AlgebraError;
use rodentstore_compress::ColumnData;
use rodentstore_storage::page::PageId;
use rodentstore_storage::slotted::SlottedReader;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{HashMap, VecDeque};
use std::ops::Range;

/// An element expression with field references resolved to positions.
/// Scans evaluate `pos()` and `count()` as 0, as [`Condition::eval`] does,
/// so they compile to that literal.
#[derive(Debug, Clone)]
enum CompiledExpr {
    Literal(Value),
    Field(usize),
    Bin(Box<CompiledExpr>),
    Interleave(Vec<CompiledExpr>),
    Sub(Box<CompiledExpr>, Box<CompiledExpr>),
    Add(Box<CompiledExpr>, Box<CompiledExpr>),
}

impl CompiledExpr {
    fn compile<S: AsRef<str>>(expr: &ElemExpr, fields: &[S], within: &str) -> Result<CompiledExpr> {
        let compile = |e: &ElemExpr| CompiledExpr::compile(e, fields, within).map(Box::new);
        Ok(match expr {
            ElemExpr::Literal(v) => CompiledExpr::Literal(v.clone()),
            ElemExpr::Field(name) => CompiledExpr::Field(resolve(name, fields, within)?),
            ElemExpr::Pos | ElemExpr::Count => CompiledExpr::Literal(Value::Int(0)),
            ElemExpr::Bin(inner) => CompiledExpr::Bin(compile(inner)?),
            ElemExpr::Interleave(items) => CompiledExpr::Interleave(
                items
                    .iter()
                    .map(|e| CompiledExpr::compile(e, fields, within))
                    .collect::<Result<_>>()?,
            ),
            ElemExpr::Sub(a, b) => CompiledExpr::Sub(compile(a)?, compile(b)?),
            ElemExpr::Add(a, b) => CompiledExpr::Add(compile(a)?, compile(b)?),
        })
    }

    /// The expression's value on `row`: a literal or a field of an owned
    /// record is borrowed; a field of borrowed refs and every computed value
    /// is owned.
    fn eval<'s, R: Row + ?Sized>(&'s self, row: &'s R) -> Result<Cow<'s, Value>> {
        let int = |e: &CompiledExpr, what: &str| {
            let v = e.eval(row)?;
            v.as_i64().ok_or_else(|| type_mismatch(what, &v))
        };
        Ok(match self {
            CompiledExpr::Literal(v) => Cow::Borrowed(v),
            CompiledExpr::Field(i) => row.value(*i)?,
            CompiledExpr::Bin(inner) => Cow::Owned(Value::Int(int(inner, "bin()")?)),
            CompiledExpr::Interleave(items) => {
                let parts = items
                    .iter()
                    .map(|e| int(e, "interleave()").map(|i| i.unsigned_abs() as u32))
                    .collect::<Result<Vec<_>>>()?;
                Cow::Owned(Value::Int(interleave_bits(&parts) as i64))
            }
            CompiledExpr::Sub(a, b) => Cow::Owned(a.eval(row)?.sub(&*b.eval(row)?)?),
            CompiledExpr::Add(a, b) => Cow::Owned(a.eval(row)?.add(&*b.eval(row)?)?),
        })
    }
}

fn type_mismatch(what: &str, found: &Value) -> LayoutError {
    LayoutError::Algebra(AlgebraError::TypeMismatch {
        expected: format!("integer for {what}"),
        found: found.data_type().to_string(),
    })
}

fn resolve<S: AsRef<str>>(field: &str, fields: &[S], within: &str) -> Result<usize> {
    fields
        .iter()
        .position(|f| f.as_ref() == field)
        .ok_or_else(|| {
            LayoutError::Algebra(AlgebraError::UnknownField {
                field: field.to_string(),
                within: within.to_string(),
            })
        })
}

/// A row a compiled predicate reads in place: an owned record, or the
/// borrowed [`FieldRef`]s a cursor decoded out of a page frame or a chunk.
trait Row {
    /// Field `i` against `v`, under the order of [`Value::compare`].
    fn compare(&self, i: usize, v: &Value) -> Result<Ordering>;
    /// Field `i` as a value: borrowed where the row holds one.
    fn value(&self, i: usize) -> Result<Cow<'_, Value>>;
}

impl Row for [Value] {
    fn compare(&self, i: usize, v: &Value) -> Result<Ordering> {
        Ok(self[i].compare(v))
    }

    fn value(&self, i: usize) -> Result<Cow<'_, Value>> {
        Ok(Cow::Borrowed(&self[i]))
    }
}

/// [`FieldRef::compare_value`] mirrors `Value::compare`; a ref is
/// materialized only as an operand of arithmetic, `bin`, `interleave`, or
/// a comparison of two fields.
impl Row for [FieldRef<'_>] {
    fn compare(&self, i: usize, v: &Value) -> Result<Ordering> {
        self[i].compare_value(v)
    }

    fn value(&self, i: usize) -> Result<Cow<'_, Value>> {
        self[i].to_value().map(Cow::Owned)
    }
}

/// A [`Condition`] with every field reference resolved to a record position,
/// so evaluating it per row costs no name lookups. One tree serves every row
/// source — owned records and borrowed refs alike — with the semantics of
/// [`Condition::eval`] exactly.
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
    pub fn compile<S: AsRef<str>>(
        cond: &Condition,
        fields: &[S],
        within: &str,
    ) -> Result<CompiledPredicate> {
        Ok(CompiledPredicate {
            node: CompiledCond::compile(cond, fields, within)?,
        })
    }

    /// Evaluates the predicate against a record, as [`Condition::eval`].
    pub fn matches(&self, record: &Record) -> Result<bool> {
        self.node.test(record.as_slice())
    }
}

impl CompiledCond {
    fn compile<S: AsRef<str>>(
        cond: &Condition,
        fields: &[S],
        within: &str,
    ) -> Result<CompiledCond> {
        let all = |items: &[Condition]| {
            items
                .iter()
                .map(|c| CompiledCond::compile(c, fields, within))
                .collect::<Result<_>>()
        };
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
            Condition::And(items) => CompiledCond::And(all(items)?),
            Condition::Or(items) => CompiledCond::Or(all(items)?),
            Condition::Not(inner) => {
                CompiledCond::Not(Box::new(CompiledCond::compile(inner, fields, within)?))
            }
        })
    }

    /// The top-level conjuncts: a row matches iff it matches every one.
    fn conjuncts(&self) -> &[CompiledCond] {
        match self {
            CompiledCond::And(items) => items,
            other => std::slice::from_ref(other),
        }
    }

    /// Whether `row` matches. A comparison with a field on either side
    /// compares that field in place (`Value::compare` is antisymmetric, so
    /// a field on the right reverses the ordering).
    fn test<R: Row + ?Sized>(&self, row: &R) -> Result<bool> {
        match self {
            CompiledCond::True => Ok(true),
            CompiledCond::Cmp { left, op, right } => {
                let ord = match (left, right) {
                    (CompiledExpr::Field(i), other) => row.compare(*i, &*other.eval(row)?)?,
                    (other, CompiledExpr::Field(i)) => {
                        row.compare(*i, &*other.eval(row)?)?.reverse()
                    }
                    (l, r) => l.eval(row)?.compare(&*r.eval(row)?),
                };
                Ok(op.matches(ord))
            }
            CompiledCond::Range { index, lo, hi } => Ok(row.compare(*index, lo)? != Ordering::Less
                && row.compare(*index, hi)? != Ordering::Greater),
            CompiledCond::And(items) => {
                for c in items {
                    if !c.test(row)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            CompiledCond::Or(items) => {
                for c in items {
                    if c.test(row)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            CompiledCond::Not(inner) => Ok(!inner.test(row)?),
        }
    }
}

/// One compact position over a range of chunk rows: the decoded column, the
/// field's template, and the column index of the range's first row.
type View<'r> = (&'r ColumnData, &'r Value, usize);

/// The [`View`] of compact position `c`, read through `(reader, field)`
/// slot `(r, f)`, over the range starting at object row `row`.
fn column_view<'r>(
    readers: &'r [ChunkReader<'_>],
    templates: &'r [Value],
    (r, f): (usize, usize),
    (c, row): (usize, usize),
) -> View<'r> {
    (readers[r].col(f), &templates[c], row - readers[r].start)
}

/// Drops from `sel` (row offsets into the view) the rows of a typed column
/// that fall outside `[lo, hi]` — when the column (by its `template`) and both
/// bounds are of one numeric type, so the comparison is exactly the one
/// [`FieldRef::compare_value`] would make on the row's ref (a NaN is "equal"
/// to everything there and passes here too), and returns `true`: the range
/// is decided. Any other pairing leaves `sel` as it is and returns `false`.
fn narrow_to_range(
    (col, template, at): View<'_>,
    lo: &Value,
    hi: &Value,
    sel: &mut Vec<u32>,
) -> bool {
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
        _ => return false,
    }
    true
}

/// A windowed-aggregate fold running inside a cursor's decode loop:
/// matching rows feed the accumulator and are never materialized into the
/// row buffer.
struct CursorFold {
    /// Index of the bucket field within the compact row.
    bucket: usize,
    /// Index of the value field within the compact row.
    value: usize,
    acc: WindowAccumulator,
}

/// Materializes the projection `out` (indices into `refs`) of one borrowed
/// row — the only place the borrowed loop allocates.
#[inline]
fn materialize(refs: &[FieldRef<'_>], out: &[usize]) -> Result<Record> {
    let mut row = Vec::with_capacity(out.len());
    for &i in out {
        row.push(refs[i].to_value()?);
    }
    Ok(row)
}

/// Empties a scratch vector and hands its buffer back typed for another
/// lifetime of its items: collecting a `vec::IntoIter` into a vector of a
/// same-layout type reuses the buffer, so a cursor keeps its vectors of
/// borrowed refs and views from step to step without allocating.
fn recycle<T, U>(mut scratch: Vec<T>) -> Vec<U> {
    scratch.clear();
    scratch.into_iter().map(|_| unreachable!()).collect()
}

/// How a row-page cursor with no predicate in its loop decodes a record
/// straight to its output row.
enum Straight {
    /// The fixed-offset plan's offsets of the output fields, in output
    /// order.
    Offsets(Vec<u32>),
    /// Every field in record order, as the owned record decoder yields it:
    /// a full scan of records whose variable-width fields rule out a plan.
    Whole,
}

/// What one cursor reads: objects of one layout — the base, or an lsm run,
/// which is the inner layout over its rows — named by their indices in it:
/// one object, or the column groups of a vertical partition read together.
#[derive(Clone, Copy)]
struct Source<'a, 'g> {
    layout: &'a PhysicalLayout,
    group: &'g [usize],
}

impl<'a: 'g, 'g> Source<'a, 'g> {
    /// The objects the cursor reads, in order.
    fn objects(self) -> impl Iterator<Item = &'a StoredObject> + Clone + 'g {
        let layout = self.layout;
        self.group.iter().map(move |&i| &*layout.objects[i])
    }

    /// The group's first object: the cursor reads its heap's pages, errors
    /// name it, and its row count is the source's.
    fn head(self) -> &'a StoredObject {
        &self.layout.objects[self.group[0]]
    }
}

/// The rows of one unit a row cursor reads — a page's slots, or a folded
/// group's nested rows, covering rows `[base, end)` of the source — that
/// lie in `ranges[*from..]`, as offsets from `base`: one window per range
/// meeting the unit. `*from` moves past every range that ends by `end`.
fn windows<'r>(
    ranges: &'r [(usize, usize)],
    from: &mut usize,
    base: usize,
    end: usize,
) -> impl Iterator<Item = Range<usize>> + 'r {
    let first = *from;
    let last = first + ranges[first..].iter().take_while(|&&(lo, _)| lo < end).count();
    // The last range meeting the unit stays current if it goes on past it.
    *from = if last > first && ranges[last - 1].1 > end {
        last - 1
    } else {
        last
    };
    ranges[first..last]
        .iter()
        .map(move |&(lo, hi)| lo.max(base) - base..hi.min(end).max(base) - base)
}

/// Streams the decoded rows of one stored object — or, for a vertical
/// partition, of the objects a scan needs, advancing together — of the
/// base or of an lsm run alike.
///
/// The hot loop is the same whatever the source: a row is presented as
/// borrowed [`FieldRef`]s, the predicate runs on the refs, and a survivor is
/// folded or materialized. What differs is where the refs come from — the
/// records of a row page ([`ObjectCursor::step_rows`]; every slot, or only
/// those an index probe picked) or the typed columns of a decoded chunk
/// ([`ObjectCursor::step_columns`]). Folded groups alone are decoded into
/// owned rows ([`ObjectCursor::step_folded`]), which the same compiled
/// predicate filters in place. Every row a cursor yields is final: filtered
/// and projected.
///
/// The cursor decodes only the object positions listed in
/// [`ObjectCursor::compact`] (ascending object order), with no NULL padding
/// for skipped fields — the projection and predicate are compiled against
/// these compact positions, so the hot loop never touches a value it did not
/// need to decode.
///
/// Everything but the object being read is compiled once, for the shape of
/// the objects (their fields, encoding and codecs): moving on to the next
/// object of that shape is an [`ObjectCursor::reset`], which keeps the
/// decode buffers, the frame list and the scratch vectors.
struct ObjectCursor<'a> {
    /// The source's first object: the cursor reads its heap's pages, errors
    /// name it, and its row count is the source's.
    head: &'a StoredObject,
    pages: Vec<PageId>,
    /// The ascending slots to visit on each page of `pages` when an index
    /// probe restricts the cursor; empty when every slot is read.
    picked: Vec<Vec<usize>>,
    next_page: usize,
    buf: VecDeque<Record>,
    /// Column-block encodings: one chunk reader per object of the group.
    readers: Vec<ChunkReader<'a>>,
    /// Row position the cursor has read up to (for an index probe, the
    /// count of picked slots), and the rows of the current column range
    /// that survived the predicate.
    row: usize,
    sel: Vec<u32>,
    /// The ascending `[start, end)` row ranges the cursor delivers — the
    /// whole source, unless chunk fences or a positional get narrowed them
    /// — and the one being delivered.
    ranges: Vec<(usize, usize)>,
    range: usize,
    /// When set, matching rows are folded here instead of entering `buf`.
    fold: Option<CursorFold>,

    /// Key-field count of a folded-group object: the one source whose rows
    /// are decoded into owned records instead of borrowed refs.
    folded: Option<usize>,
    /// Ascending object positions present in each yielded row, and the
    /// template value of each.
    compact: Vec<usize>,
    templates: Vec<Value>,
    /// The `(reader, field)` behind each compact position.
    slots: Vec<(usize, usize)>,
    /// The predicate, evaluated on each row before anything is
    /// materialized, and the compact positions it reads — the columns a
    /// chunk decodes first.
    pred: Option<CompiledCond>,
    pred_cols: Vec<usize>,
    /// The projection: the compact position of each output field.
    out: Vec<usize>,
    /// Fixed-offset decode plan compiled from the object's schema templates;
    /// records matching the expected shape skip the generic varint walk.
    fast: Option<FixedRowPlan>,
    /// With no predicate in the loop: how a record not folded decodes
    /// straight to its output row.
    straight: Option<Straight>,

    /// Reusable staging vector for the row-at-a-time refill (the bulk drain
    /// writes past it, straight into the caller's output).
    scratch: Vec<Record>,
    /// Scratch for the borrowed refs of a row, the column views of a chunk
    /// step, and the conjuncts a chunk step still checks per row.
    refs: Vec<FieldRef<'static>>,
    views: Vec<View<'static>>,
    residual: Vec<usize>,
}

impl<'a> ObjectCursor<'a> {
    /// Compiles a cursor for objects shaped like `source`'s — one object,
    /// or the column-block objects of a vertical partition — reading the
    /// positions marked in `needed` (which, like `templates`, runs over the
    /// objects' fields concatenated), and points it at `source`. It yields
    /// every compact position of every row until a predicate and
    /// projection are set.
    fn new(source: Source<'a, '_>, needed: &[bool], templates: Vec<Value>) -> Result<Self> {
        let encoding = &source.head().encoding;
        let columnar = matches!(encoding, ObjectEncoding::ColumnBlocks { .. });
        let folded = match encoding {
            ObjectEncoding::Folded { key_fields } => Some(*key_fields),
            _ => None,
        };
        let compact: Vec<usize> = match folded {
            // Folded groups are decoded whole anyway; keep every field.
            Some(_) => (0..needed.len()).collect(),
            None => needed
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
            for (r, o) in source.objects().enumerate() {
                if !matches!(o.encoding, ObjectEncoding::ColumnBlocks { .. }) {
                    return Err(LayoutError::Corrupted(format!(
                        "object `{}` of a vertical partition is not column-encoded",
                        o.name
                    )));
                }
                let end = base + o.fields.len();
                readers.push(ChunkReader::new(o, &needed[base..end]));
                let here = compact.iter().filter(|&&p| (base..end).contains(&p));
                slots.extend(here.map(|&p| (r, p - base)));
                base = end;
            }
        }
        let fast = if columnar || folded.is_some() {
            None
        } else {
            FixedRowPlan::compile(&templates, &compact)
        };
        let out = (0..compact.len()).collect();
        let mut cursor = ObjectCursor {
            head: source.head(),
            pages: Vec::new(),
            picked: Vec::new(),
            next_page: 0,
            buf: VecDeque::new(),
            readers,
            row: 0,
            sel: Vec::new(),
            ranges: Vec::new(),
            range: 0,
            fold: None,
            folded,
            templates: compact.iter().map(|&p| templates[p].clone()).collect(),
            compact,
            slots,
            pred: None,
            pred_cols: Vec::new(),
            out,
            fast,
            straight: None,
            scratch: Vec::new(),
            refs: Vec::new(),
            views: Vec::new(),
            residual: Vec::new(),
        };
        cursor.reset(source)?;
        Ok(cursor)
    }

    /// Points the cursor at the first row of `source`, an object group of
    /// the shape it was compiled for: fetches its page lists and clears the
    /// position, keeping every buffer.
    fn reset(&mut self, source: Source<'a, '_>) -> Result<()> {
        let head = source.head();
        let (name, total) = (head.name.as_str(), head.row_count);
        let members = source.objects();
        if let Some(o) = members.clone().find(|o| o.row_count != total) {
            return Err(LayoutError::Corrupted(format!(
                "object `{}` of the partition around `{name}` holds {} rows, its siblings \
                 {total}",
                o.name, o.row_count
            )));
        }
        for (reader, obj) in self.readers.iter_mut().zip(members) {
            reader.reset(obj)?;
        }
        self.head = head;
        self.pages.clear();
        if self.readers.is_empty() {
            self.pages = head.heap.page_ids()?;
        }
        self.picked.clear();
        self.next_page = 0;
        self.buf.clear();
        self.row = 0;
        self.ranges.clear();
        self.ranges.push((0, total));
        self.range = 0;
        Ok(())
    }

    /// Restricts a row-page cursor to an index probe's `(page ordinal,
    /// ascending slots)` batches: only those pages are read, and only those
    /// slots decoded — its rows are the picked slots, every one delivered.
    fn pick(&mut self, batches: &[(usize, Vec<usize>)]) -> Result<()> {
        let pages = std::mem::take(&mut self.pages);
        self.ranges.clear();
        self.ranges.push((0, batches.iter().map(|(_, slots)| slots.len()).sum()));
        for (ordinal, slots) in batches {
            let &page = pages.get(*ordinal).ok_or_else(|| {
                LayoutError::Corrupted(format!(
                    "index references page ordinal {ordinal} beyond object `{}`",
                    self.head.name
                ))
            })?;
            self.pages.push(page);
            self.picked.push(slots.clone());
        }
        Ok(())
    }

    /// Restricts the cursor to ascending row ranges: those chunk fences let
    /// through (see [`PhysicalLayout::fenced_rows`]), or the one row of a
    /// positional get. Column chunks outside them are never read, and count
    /// as pruned as the readers pass them; a row page or folded group is
    /// still read to count its rows, but only the rows inside a range are
    /// decoded, and no page after the last range is read.
    fn restrict(&mut self, rows: &[(usize, usize)]) {
        self.ranges.clear();
        self.ranges.extend_from_slice(rows);
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
        let mut rows = std::mem::take(&mut self.scratch);
        rows.clear();
        let res = self.step_into(&mut rows);
        self.buf.extend(rows.drain(..));
        self.scratch = rows;
        res
    }

    /// Bulk-drains the cursor: rows buffered by earlier `next_row` calls
    /// first, then every remaining page or chunk decoded straight into `out`
    /// — the row buffer is bypassed.
    fn drain_into(&mut self, out: &mut Vec<Record>) -> Result<()> {
        out.extend(self.buf.drain(..));
        while self.step_into(out)? {}
        Ok(())
    }

    /// One step of the loop — a row page or a column-chunk range — with
    /// survivors written to `sink` (or folded). `false` once exhausted.
    fn step_into(&mut self, sink: &mut Vec<Record>) -> Result<bool> {
        if !self.readers.is_empty() {
            return self.step_columns(sink);
        }
        while self.ranges.get(self.range).is_some_and(|&(_, hi)| hi <= self.row) {
            self.range += 1;
        }
        if self.range == self.ranges.len() || self.next_page == self.pages.len() {
            return Ok(false);
        }
        self.next_page += 1;
        let ix = self.next_page - 1;
        match self.folded {
            Some(key_fields) => self.step_folded(ix, key_fields, sink),
            None => self.step_rows(ix, sink),
        }
        .map(|()| true)
    }

    /// The folded-group source: every record of the `ix`-th page is split
    /// into its key and nested rows; each nested row inside the cursor's
    /// ranges is stitched into an owned row that the predicate tests in
    /// place, and a survivor is folded or projected.
    fn step_folded(&mut self, ix: usize, key_fields: usize, sink: &mut Vec<Record>) -> Result<()> {
        let frame = self.head.heap.pager().read_frame(self.pages[ix])?;
        let reader = SlottedReader::over(frame.data(), frame.id());
        for slot in 0..reader.slot_count() {
            if self.range == self.ranges.len() {
                break;
            }
            let folded = decode_record(reader.get(slot)?)?;
            let (key, nested) = split_folded(&folded, key_fields, &self.head.name)?;
            let base = self.row;
            self.row += nested.len();
            for window in windows(&self.ranges, &mut self.range, base, self.row) {
                for inner in &nested[window] {
                    let row = stitch_folded_row(key, inner)?;
                    if let Some(pred) = &self.pred {
                        if !pred.test(row.as_slice())? {
                            continue;
                        }
                    }
                    match &mut self.fold {
                        Some(fold) => fold.acc.fold_values(&row[fold.bucket], &row[fold.value]),
                        None => sink.push(self.out.iter().map(|&i| row[i].clone()).collect()),
                    }
                }
            }
        }
        Ok(())
    }

    /// The row-page source: decodes each record of the `ix`-th page's shared
    /// frame that lies inside the cursor's ranges (or the records of the
    /// slots picked on it) into borrowed [`FieldRef`]s — through the
    /// fixed-offset plan when the record matches the compiled shape, the
    /// generic varint walk otherwise.
    fn step_rows(&mut self, ix: usize, sink: &mut Vec<Record>) -> Result<()> {
        let frame = self.head.heap.pager().read_frame(self.pages[ix])?;
        let reader = SlottedReader::over(frame.data(), frame.id());
        let picked = self.picked.get(ix).map(Vec::as_slice);
        let count = picked.map_or(reader.slot_count(), <[usize]>::len);
        let base = self.row;
        self.row += count;
        let plan = self.fast.as_ref();
        // No predicate, no fold: every record materializes — the full-scan
        // hot path. With a plan, wanted fields decode straight to owned
        // values at their fixed offsets in output order, with no borrowed
        // intermediate at all.
        let straight = match (&self.straight, &self.fold) {
            (Some(straight), None) => {
                sink.reserve(count);
                Some(straight)
            }
            _ => None,
        };
        let mut refs: Vec<FieldRef<'_>> = recycle(std::mem::take(&mut self.refs));
        // The window is the whole page on a full scan.
        for window in windows(&self.ranges, &mut self.range, base, self.row) {
            for k in window {
                let bytes = reader.get(picked.map_or(k, |slots| slots[k]))?;
                let row = match (straight, plan) {
                    (Some(Straight::Offsets(offsets)), Some(plan)) => {
                        plan.decode_owned(bytes, offsets)?
                    }
                    // A record of another arity takes the generic walk.
                    (Some(Straight::Whole), _) => Some(decode_record(bytes)?)
                        .filter(|row| row.len() == self.compact.len()),
                    _ => None,
                };
                if let Some(row) = row {
                    sink.push(row);
                    continue;
                }
                let fast = match plan {
                    Some(p) => p.decode_borrowed(bytes, &mut refs)?,
                    None => false,
                };
                if !fast {
                    decode_fields_borrowed(bytes, &self.compact, &mut refs)?;
                }
                if let Some(pred) = &self.pred {
                    if !pred.test(refs.as_slice())? {
                        continue;
                    }
                }
                // A survivor feeds the aggregate (no allocation at all) or
                // materializes the projection (strings and lists allocate
                // only now).
                match &mut self.fold {
                    Some(fold) => fold.acc.fold_refs(&refs[fold.bucket], &refs[fold.value]),
                    None => sink.push(materialize(&refs, &self.out)?),
                }
            }
        }
        self.refs = recycle(refs);
        Ok(())
    }

    /// The column-chunk source, with late materialization: the readers move
    /// to the next range of rows every one of them holds decoded or
    /// decodable (chunk boundaries may differ between the objects of a
    /// partition) — jumping over the rows between two of the cursor's
    /// ranges — the predicate's columns are decoded and evaluated first,
    /// and the remaining columns are decoded only if a row survived — so a
    /// selective window pays for one column, not for the projection (see
    /// [`ObjectCursor::filter_range`]).
    fn step_columns(&mut self, sink: &mut Vec<Record>) -> Result<bool> {
        let (hi, skips) = loop {
            match self.ranges.get(self.range) {
                Some(&(lo, hi)) if self.row < hi => {
                    let skips = self.row < lo;
                    self.row = self.row.max(lo);
                    break (hi, skips);
                }
                Some(_) => self.range += 1,
                None => return self.close_columns(),
            }
        };
        let mut live = 0usize;
        for reader in &mut self.readers {
            live += usize::from(reader.seek(self.row)?);
        }
        if skips {
            self.record_jumps();
        }
        if live < self.readers.len() {
            return Err(LayoutError::Corrupted(format!(
                "objects of the partition around `{}` disagree on the row count: {live} of {} \
                 hold row {}",
                self.head.name,
                self.readers.len(),
                self.row
            )));
        }
        let end = self
            .readers
            .iter()
            .map(ChunkReader::end)
            .min()
            .unwrap_or(self.row)
            .min(hi);
        let (row, n) = (self.row, end - self.row);
        self.row = end;
        self.sel.clear();
        self.sel.extend(0..n as u32);
        if self.pred.is_some() {
            self.filter_range(row)?;
        }
        if self.sel.is_empty() {
            return Ok(true);
        }
        let ObjectCursor {
            readers,
            slots,
            sel,
            templates,
            out,
            fold,
            views,
            ..
        } = self;
        for &(r, f) in slots.iter() {
            readers[r].decode(f)?;
        }
        let column = |c: usize| column_view(readers, templates, slots[c], (c, row));
        match fold {
            // Fold on columns: the accumulator is fed straight from the typed
            // vectors, one lane per column and one loop per chunk, in storage
            // order (float sums stay bit-identical to the row path); no row
            // is assembled.
            Some(fold) => {
                let lane = |c: usize| {
                    let (col, template, at) = column(c);
                    Lane::of(col, template, at..at + n)
                };
                fold.acc
                    .fold_lanes(lane(fold.bucket), lane(fold.value), sel);
            }
            // Survivors materialize straight from the columns, in output
            // order — the `Record` is the only allocation.
            None => {
                let mut cols: Vec<View<'_>> = recycle(std::mem::take(views));
                cols.extend(out.iter().map(|&c| column(c)));
                sink.reserve(sel.len());
                for &i in sel.iter() {
                    let mut record = Vec::with_capacity(cols.len());
                    for &(col, template, at) in &cols {
                        record.push(column_field(col, template, at + i as usize).to_value()?);
                    }
                    sink.push(record);
                }
                *views = recycle(cols);
            }
        }
        Ok(true)
    }

    /// Narrows `sel`, the rows of the range starting at object row `row`, to
    /// those the predicate keeps. The predicate's columns are decoded; each
    /// top-level range conjunct that [`narrow_to_range`] decides on its
    /// typed column is done, and only the conjuncts left over run row by
    /// row, on borrowed refs.
    fn filter_range(&mut self, row: usize) -> Result<()> {
        let ObjectCursor {
            readers,
            slots,
            sel,
            templates,
            pred: Some(pred),
            pred_cols,
            refs,
            views,
            residual,
            ..
        } = self
        else {
            return Ok(());
        };
        for &c in pred_cols.iter() {
            readers[slots[c].0].decode(slots[c].1)?;
        }
        let conjuncts = pred.conjuncts();
        residual.clear();
        for (j, conjunct) in conjuncts.iter().enumerate() {
            let decided = match conjunct {
                CompiledCond::True => true,
                CompiledCond::Range { index, lo, hi } => {
                    let column = column_view(readers, templates, slots[*index], (*index, row));
                    narrow_to_range(column, lo, hi, sel)
                }
                _ => false,
            };
            if !decided {
                residual.push(j);
            }
        }
        if residual.is_empty() || sel.is_empty() {
            return Ok(());
        }
        let mut cols: Vec<View<'_>> = recycle(std::mem::take(views));
        cols.extend(
            pred_cols
                .iter()
                .map(|&c| column_view(readers, templates, slots[c], (c, row))),
        );
        let mut row_refs: Vec<FieldRef<'_>> = recycle(std::mem::take(refs));
        row_refs.resize(templates.len(), FieldRef::Null);
        let mut kept = 0usize;
        'rows: for k in 0..sel.len() {
            let i = sel[k] as usize;
            for (&c, &(col, template, at)) in pred_cols.iter().zip(&cols) {
                row_refs[c] = column_field(col, template, at + i);
            }
            for &j in residual.iter() {
                if !conjuncts[j].test(row_refs.as_slice())? {
                    continue 'rows;
                }
            }
            sel[kept] = i as u32;
            kept += 1;
        }
        sel.truncate(kept);
        *refs = recycle(row_refs);
        *views = recycle(cols);
        Ok(())
    }

    /// Ends the column-chunk source once its last range is delivered: the
    /// readers account for the chunk they stand on and count the chunks
    /// after the last range as pruned, and a cursor that read to the group's
    /// last row makes sure no object holds a chunk past it.
    fn close_columns(&mut self) -> Result<bool> {
        for reader in &mut self.readers {
            if self.row == self.head.row_count && reader.seek(self.row)? {
                return Err(LayoutError::Corrupted(format!(
                    "object `{}` holds rows past its row count {}",
                    self.head.name, self.head.row_count
                )));
            }
            reader.close();
        }
        self.record_jumps();
        Ok(false)
    }

    /// Counts the chunks the readers jumped over — fenced out — as pruned.
    /// Readers jump only onto the start of a range, so the loop calls this
    /// when it enters one past a gap, and once at the end.
    #[cold]
    fn record_jumps(&mut self) {
        let pruned: usize = self.readers.iter_mut().map(ChunkReader::take_jumped).sum();
        if pruned > 0 {
            self.head.heap.pager().record_pruned(pruned as u64);
        }
    }
}

/// One read plan, compiled once per scan for each distinct object shape:
/// the cursor, with the positions it decodes and the predicate and
/// projection compiled against its compact field order. Every cell of a
/// grid shares one, and so does every source of that shape in an lsm run.
struct ObjectState<'a> {
    /// The objects the plan was compiled for.
    shape: Vec<&'a StoredObject>,
    cursor: ObjectCursor<'a>,
}

/// Whether a read plan compiled for `b` reads `a` too: the same fields,
/// encoding and codecs.
fn same_shape(a: &StoredObject, b: &StoredObject) -> bool {
    std::ptr::eq(a, b) || (a.fields == b.fields && a.encoding == b.encoding && a.codecs == b.codecs)
}

impl<'a> ObjectState<'a> {
    /// Whether the plan reads `source`.
    fn fits(&self, source: Source<'_, '_>) -> bool {
        source.group.len() == self.shape.len()
            && source
                .objects()
                .zip(&self.shape)
                .all(|(obj, shape)| same_shape(obj, shape))
    }

    /// Compiles the read plan of `source`'s shape for a scan yielding
    /// `out_fields` of the rows matching `predicate`, with its cursor
    /// pointed at `source`.
    fn compile(
        source: Source<'a, '_>,
        out_fields: &[String],
        predicate: Option<&Condition>,
    ) -> Result<ObjectState<'a>> {
        let shape: Vec<&'a StoredObject> = source.objects().collect();
        // A group reads as one object holding its members' fields in order.
        let fields: Vec<&str> = shape
            .iter()
            .flat_map(|o| o.fields.iter().map(String::as_str))
            .collect();
        let name = source.head().name.as_str();
        // Everything the scan touches — output fields plus predicate fields —
        // must be decoded; nothing else is.
        let pred_fields = predicate.map(Condition::referenced_fields);
        let mut needed = vec![false; fields.len()];
        for f in out_fields.iter().chain(pred_fields.iter().flatten()) {
            needed[resolve(f, &fields, name)?] = true;
        }
        let templates = source.layout.templates_for(&fields);
        let mut cursor = ObjectCursor::new(source, &needed, templates)?;
        // The cursor decodes compact rows; rebind names to compact positions.
        let compact_names: Vec<&str> = cursor.compact.iter().map(|&p| fields[p]).collect();
        let compact = |f: &String| resolve(f, &compact_names, name);
        cursor.out = out_fields.iter().map(compact).collect::<Result<_>>()?;
        if let Some(p) = predicate {
            cursor.pred = Some(CompiledCond::compile(p, &compact_names, name)?);
            cursor.pred_cols = pred_fields
                .iter()
                .flatten()
                .map(compact)
                .collect::<Result<_>>()?;
        } else {
            // No predicate: the fixed-offset plan decodes each record
            // straight to its output row, and so does the owned record
            // decoder when the row is the whole record in order.
            let whole = cursor.out.iter().copied().eq(0..fields.len());
            cursor.straight = match &cursor.fast {
                Some(plan) => Some(Straight::Offsets(
                    cursor.out.iter().map(|&i| plan.offsets()[i]).collect(),
                )),
                None if whole && cursor.readers.is_empty() && cursor.folded.is_none() => {
                    Some(Straight::Whole)
                }
                None => None,
            };
        }
        Ok(ObjectState { shape, cursor })
    }
}

/// An index probe's candidates in one object: `(page ordinal, ascending
/// slots)` batches, in storage order.
type Batches = Vec<(usize, Vec<usize>)>;

/// Groups sorted packed positions into per-object [`Batches`] in storage
/// order, so every heap page holding a candidate row is read exactly once
/// and rows still come out in storage order (matching the unrestricted
/// scan).
fn group_positions(positions: &[u64]) -> Vec<(usize, Batches)> {
    let mut grouped: Vec<(usize, Batches)> = Vec::new();
    for &pos in positions {
        let (obj, page, slot) = unpack_pos(pos);
        match grouped.last_mut() {
            Some((o, pages)) if *o == obj => match pages.last_mut() {
                // Duplicate positions can arise when a probe's outliers
                // overlap tree results; decode each slot once.
                Some((p, slots)) if *p == page => {
                    if slots.last() != Some(&slot) {
                        slots.push(slot);
                    }
                }
                _ => pages.push((page, vec![slot])),
            },
            _ => grouped.push((obj, vec![(page, vec![slot])])),
        }
    }
    grouped
}

/// The one in-memory row source: rows held in memory — an lsm memtable, a
/// table's pending buffer or its canonical rows — filtered by a predicate
/// compiled once and projected through positions resolved once.
///
/// The tail borrows its rows: a row is cloned only when it survives the
/// filter and is yielded, and a fold reads the surviving rows in place. It
/// yields rows ([`Iterator`]; a tail over one row projects that row) or
/// folds them ([`RowTail::fold_into`]).
pub struct RowTail<I> {
    rows: I,
    predicate: Option<CompiledPredicate>,
    /// Output positions within a row.
    out: Vec<usize>,
}

impl<'a, I: Iterator<Item = &'a Record>> RowTail<I> {
    /// A tail over `rows`, each holding `fields` in order (`within` names
    /// them in errors), that yields the `out_fields` of every row matching
    /// `predicate`. Fails on a field `fields` does not hold.
    pub fn new(
        rows: I,
        fields: &[String],
        within: &str,
        out_fields: &[String],
        predicate: Option<&Condition>,
    ) -> Result<RowTail<I>> {
        Ok(RowTail {
            rows,
            predicate: predicate
                .map(|p| CompiledPredicate::compile(p, fields, within))
                .transpose()?,
            out: out_fields
                .iter()
                .map(|f| resolve(f, fields, within))
                .collect::<Result<_>>()?,
        })
    }

    /// The next row matching the predicate, unprojected.
    fn next_match(&mut self) -> Result<Option<&'a Record>> {
        for row in self.rows.by_ref() {
            match &self.predicate {
                Some(pred) if !pred.matches(row)? => {}
                _ => return Ok(Some(row)),
            }
        }
        Ok(None)
    }

    /// Projects `row` to the tail's output fields.
    fn project(&self, row: &Record) -> Record {
        self.out.iter().map(|&i| row[i].clone()).collect()
    }

    /// Folds every remaining matching row into `acc`, in row order; `bucket`
    /// and `value` are positions in the output fields.
    pub fn fold_into(
        &mut self,
        acc: &mut WindowAccumulator,
        bucket: usize,
        value: usize,
    ) -> Result<()> {
        let (bucket, value) = (self.out[bucket], self.out[value]);
        while let Some(row) = self.next_match()? {
            acc.fold_values(&row[bucket], &row[value]);
        }
        Ok(())
    }
}

impl<'a, I: Iterator<Item = &'a Record>> Iterator for RowTail<I> {
    type Item = Result<Record>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_match()
            .map(|row| row.map(|row| self.project(row)))
            .transpose()
    }
}

/// What a scan reads, decided once before its first page: the base, then
/// each lsm run the key bounds do not prune, in the tier's scan order
/// (deepest level first, oldest first within a level) — every one planned
/// the same way, as one part. The predicate's ranges are extracted once,
/// here, for all of them; [`ScanPlan::predicted_pages`] counts what the
/// plan reads.
pub struct ScanPlan<'a> {
    layout: &'a PhysicalLayout,
    predicate: Option<Condition>,
    ranges: HashMap<String, (f64, f64)>,
    /// The base's part first, then one per unpruned run.
    parts: Vec<Part<'a>>,
}

/// What a scan reads of one layout — the base or an lsm run: its objects
/// and the cursors that read them (see [`PhysicalLayout::cursor_objects`]) —
/// under an index probe, each object holding a candidate row on its own,
/// restricted to the pages and slots holding candidates — and the rows each
/// cursor's chunk fences let through.
struct Part<'a> {
    layout: &'a PhysicalLayout,
    /// Objects in read order, and whether one cursor reads them all (a
    /// vertical partition) instead of one cursor each.
    objects: Vec<usize>,
    together: bool,
    /// Per cursor, the row ranges its chunk fences let through (`None` or
    /// missing: every row).
    fences: Vec<Option<Vec<(usize, usize)>>>,
    /// Set when the declared index covers the predicate: per cursor, the
    /// batches it is restricted to.
    probe: Option<Vec<Batches>>,
}

impl<'a> Part<'a> {
    /// Plans the read of `layout`'s objects for a scan of `fields` under
    /// `predicate`, whose ranges are `ranges`, probing the declared index
    /// when `use_index` is set and the index covers the predicate.
    fn new(
        layout: &'a PhysicalLayout,
        fields: Option<&[String]>,
        predicate: Option<&Condition>,
        ranges: &HashMap<String, (f64, f64)>,
        use_index: bool,
    ) -> Result<Part<'a>> {
        let mut probe = None;
        let (objects, together) = match (&layout.index, predicate) {
            (Some(idx), Some(_)) if use_index && idx.covers(ranges) => {
                let (objects, batches) = group_positions(&idx.probe(ranges)?).into_iter().unzip();
                probe = Some(batches);
                (objects, false)
            }
            _ => layout.cursor_objects(fields, predicate, ranges),
        };
        if let Some(&obj) = objects.iter().find(|&&o| o >= layout.objects.len()) {
            return Err(LayoutError::Corrupted(format!(
                "index references object {obj} beyond the {} of `{}`",
                layout.objects.len(),
                layout.name
            )));
        }
        let mut part = Part {
            layout,
            objects,
            together,
            fences: Vec::new(),
            probe,
        };
        // Only objects with a chunk directory are fenced, and only by ranges.
        let fenced = part
            .objects
            .iter()
            .any(|&i| layout.objects[i].chunks.is_some());
        if fenced && !ranges.is_empty() {
            part.fences = (0..part.cursors())
                .map(|n| layout.fenced_rows(part.group(n), ranges))
                .collect();
        }
        Ok(part)
    }

    /// How many cursors read the part.
    fn cursors(&self) -> usize {
        if self.together {
            1
        } else {
            self.objects.len()
        }
    }

    /// The objects the `n`-th cursor reads.
    fn group(&self, n: usize) -> &[usize] {
        if self.together {
            &self.objects
        } else {
            std::slice::from_ref(&self.objects[n])
        }
    }

    /// The pages the part reads: under an index probe, the tree pages the
    /// probe visits (counted again here, which reads them) plus one per
    /// candidate heap page; otherwise each cursor's pages, only those of the
    /// chunks its fences let through for an object with a chunk directory.
    fn predicted_pages(&self, ranges: &HashMap<String, (f64, f64)>) -> Result<u64> {
        let layout = self.layout;
        Ok(match (&self.probe, &layout.index) {
            (Some(batches), Some(idx)) => {
                let heap_pages: usize = batches.iter().map(Vec::len).sum();
                (idx.probe_node_pages(ranges)? + heap_pages) as u64
            }
            _ => (0..self.cursors())
                .map(|n| {
                    let fence = self.fences.get(n).and_then(Option::as_deref);
                    self.group(n)
                        .iter()
                        .map(|&i| {
                            let obj = &layout.objects[i];
                            let all = obj.page_count();
                            match (fence, &obj.chunks) {
                                (Some(rows), Some(dir)) => dir.pages_read(rows, all),
                                _ => all as u64,
                            }
                        })
                        .sum::<u64>()
                })
                .sum(),
        })
    }
}

impl<'a> ScanPlan<'a> {
    /// Plans a scan of `fields` (all when `None`) under `predicate`, probing
    /// each declared index when `use_index` is set and the index covers the
    /// predicate.
    pub(crate) fn new(
        layout: &'a PhysicalLayout,
        fields: Option<&[String]>,
        predicate: Option<&Condition>,
        use_index: bool,
    ) -> Result<ScanPlan<'a>> {
        let ranges = predicate.map(extract_ranges).unwrap_or_default();
        let mut parts = vec![Part::new(layout, fields, predicate, &ranges, use_index)?];
        if let Some(lsm) = &layout.lsm {
            for run in lsm.runs.iter().filter(|r| r.may_match(&lsm.key, &ranges)) {
                parts.push(Part::new(&run.layout, fields, predicate, &ranges, use_index)?);
            }
        }
        Ok(ScanPlan {
            layout,
            predicate: predicate.cloned(),
            ranges,
            parts,
        })
    }

    /// The part holding the scan's `n`-th cursor, the cursor's ordinal
    /// within it, and what it reads. `None` past the last.
    fn cursor_at(&self, mut n: usize) -> Option<(&Part<'a>, usize, Source<'a, '_>)> {
        for part in &self.parts {
            if n < part.cursors() {
                let group = part.group(n);
                return Some((part, n, Source { layout: part.layout, group }));
            }
            n -= part.cursors();
        }
        None
    }

    /// The pages the plan reads — what
    /// [`PhysicalLayout::estimate_scan_pages`] reports: the pages of every
    /// part (the base and each unpruned run); the memtable is in memory.
    pub fn predicted_pages(&self) -> Result<u64> {
        self.parts
            .iter()
            .map(|part| part.predicted_pages(&self.ranges))
            .sum()
    }

    /// The row at `position` of an unpredicated plan's scan, projected to
    /// `out_fields` — [`PhysicalLayout::get_element`]. The sources' row
    /// counts, added up in scan order, name the one source holding it; only
    /// that source's cursor opens, restricted to the row, and the scan
    /// drains that one row. A position in the memtable is a one-row
    /// [`RowTail`].
    pub(crate) fn element(&self, position: usize, out_fields: &[String]) -> Result<Record> {
        debug_assert!(self.predicate.is_none());
        let layout = self.layout;
        let mut local = position;
        let mut n = 0;
        while let Some((_, _, source)) = self.cursor_at(n) {
            let head = source.head();
            let rows = head.row_count;
            if local < rows {
                let mut state = ObjectState::compile(source, out_fields, None)?;
                state.cursor.restrict(&[(local, local + 1)]);
                let mut row = Vec::with_capacity(1);
                state.cursor.drain_into(&mut row)?;
                return row.pop().ok_or_else(|| {
                    LayoutError::Corrupted(format!(
                        "`{}` holds fewer than the {rows} rows it counts: no row {local}",
                        head.name
                    ))
                });
            }
            local -= rows;
            n += 1;
        }
        let memtable = layout.lsm.as_ref().map_or(&[][..], |lsm| lsm.memtable.rows());
        if let Some(row) = memtable.get(local) {
            let fields = layout.schema.field_names();
            let within = layout.schema.name();
            let mut tail = RowTail::new(std::iter::once(row), &fields, within, out_fields, None)?;
            if let Some(row) = tail.next() {
                return row;
            }
        }
        Err(LayoutError::Corrupted(format!(
            "row counts of the sources of `{}` do not cover element {position}",
            layout.name
        )))
    }
}

/// A lazy scan over a [`PhysicalLayout`]: yields already-filtered,
/// already-projected records in storage order, decoding pages on demand.
///
/// Every source streams through one cursor loop, one source at a time, in
/// the order its [`ScanPlan`] lists them: the selected objects of the base,
/// then those of each non-pruned run of an `lsm[...]` tier (a vertically
/// partitioned layout is one cursor over the objects the scan needs, their
/// column chunks advancing in lock-step by row position; an index probe
/// restricts each object's cursor to the pages and slots holding
/// candidates). The tier's memtable is read last, as a [`RowTail`]. A read
/// plan is compiled once per distinct object shape, and every later source
/// of that shape — in the base or in a run — resets its cursor instead of
/// compiling another.
pub struct ScanIter<'a> {
    plan: ScanPlan<'a>,
    out_fields: Vec<String>,
    /// The read plans compiled so far, one per object shape (see
    /// [`ObjectState`]).
    states: Vec<ObjectState<'a>>,
    /// Ordinal of the cursor being drained (see [`ScanIter::open_cursor`])
    /// and the plan whose cursor reads it.
    obj_cursor: usize,
    current: Option<usize>,
    /// The tier's memtable, read after the last cursor (see
    /// [`ScanIter::memtable_tail`]).
    tail: Option<RowTail<std::slice::Iter<'a, Record>>>,
    /// Set while [`ScanIter::fold_windowed`] drives the scan: every cursor
    /// opened folds its matching rows in place instead of yielding them.
    fold: Option<Fold>,
    done: bool,
}

/// An active windowed fold: where its bucket and value fields live in the
/// scan's output projection, and the scan's one accumulator — lent to each
/// cursor as it opens and taken back when it closes, so rows fold in scan
/// order (float sums match a fold of the scanned rows bit for bit).
struct Fold {
    bucket_pos: usize,
    value_pos: usize,
    acc: Option<WindowAccumulator>,
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
        for f in &out_fields {
            layout.schema.index_of(f).map_err(LayoutError::Algebra)?;
        }
        let mut iter = ScanIter {
            plan: ScanPlan::new(layout, fields, predicate, true)?,
            out_fields,
            states: Vec::new(),
            obj_cursor: 0,
            current: None,
            tail: None,
            fold: None,
            done: false,
        };
        iter.tail = iter.memtable_tail()?;
        Ok(iter)
    }

    /// The lsm memtable as the scan's in-memory tail (`None` without a
    /// tier): its rows, narrowed to the predicate's first-key range by the
    /// sorted memtable, filtered and projected by a [`RowTail`].
    fn memtable_tail(&self) -> Result<Option<RowTail<std::slice::Iter<'a, Record>>>> {
        let layout = self.plan.layout;
        let Some(lsm) = &layout.lsm else {
            return Ok(None);
        };
        let rows = match lsm.key.first() {
            Some(first) => {
                let range = self.plan.ranges.get(first).copied();
                lsm.memtable.select(layout.schema.index_of(first)?, range)
            }
            None => lsm.memtable.rows(),
        };
        RowTail::new(
            rows.iter(),
            &layout.schema.field_names(),
            layout.schema.name(),
            &self.out_fields,
            self.plan.predicate.as_ref(),
        )
        .map(Some)
    }

    /// Sealed lsm runs the predicate's key range proves irrelevant: the scan
    /// skips them without reading a page.
    pub fn lsm_runs_pruned(&self) -> usize {
        self.plan
            .layout
            .lsm
            .as_ref()
            .map_or(0, |lsm| lsm.runs.len() + 1 - self.plan.parts.len())
    }

    /// Whether this scan resolves the predicate through the declared index
    /// instead of streaming every selected object.
    pub fn uses_index(&self) -> bool {
        self.plan.parts.iter().any(|part| part.probe.is_some())
    }

    /// Restarts the scan from the first record.
    pub fn rewind(&mut self) -> Result<()> {
        self.obj_cursor = 0;
        self.current = None;
        self.tail = self.memtable_tail()?;
        self.done = false;
        Ok(())
    }

    /// Opens the `n`-th cursor of the scan (see [`ScanPlan`]): resets the
    /// cursor of the read plan compiled for the source's shape, compiling
    /// the plan on the shape's first source. Returns the plan's index in
    /// `states`; `None` once every cursor has been opened.
    fn open_cursor(&mut self, n: usize) -> Result<Option<usize>> {
        let ScanIter {
            plan,
            out_fields,
            states,
            fold,
            ..
        } = self;
        let Some((part, k, source)) = plan.cursor_at(n) else {
            return Ok(None);
        };
        let i = match states.iter().position(|s| s.fits(source)) {
            Some(i) => {
                states[i].cursor.reset(source)?;
                i
            }
            None => {
                let state = ObjectState::compile(source, out_fields, plan.predicate.as_ref())?;
                states.push(state);
                states.len() - 1
            }
        };
        let state = &mut states[i];
        if let Some(batches) = part.probe.as_ref().and_then(|probe| probe.get(k)) {
            state.cursor.pick(batches)?;
        }
        if let Some(rows) = part.fences.get(k).and_then(Option::as_deref) {
            state.cursor.restrict(rows);
        }
        // Aggregate pushdown: fold inside the loop instead of materializing
        // projected rows.
        let lent = fold
            .as_mut()
            .and_then(|f| Some((f.bucket_pos, f.value_pos, f.acc.take()?)));
        if let Some((bucket, value, acc)) = lent {
            let cursor = &mut state.cursor;
            cursor.fold = Some(CursorFold {
                bucket: cursor.out[bucket],
                value: cursor.out[value],
                acc,
            });
        }
        Ok(Some(i))
    }

    /// The plan whose cursor is open, opening the next cursor when none is;
    /// `None` once every cursor has been drained.
    fn cursor(&mut self) -> Result<Option<usize>> {
        if self.current.is_none() {
            self.current = self.open_cursor(self.obj_cursor)?;
        }
        Ok(self.current)
    }

    /// Closes the exhausted current cursor, taking back the accumulator of
    /// an in-cursor fold.
    fn close_cursor(&mut self) {
        let lent = self
            .current
            .take()
            .and_then(|i| self.states[i].cursor.take_fold());
        if let (Some(fold), Some(acc)) = (&mut self.fold, lent) {
            fold.acc = Some(acc);
        }
        self.obj_cursor += 1;
    }

    fn next_streamed(&mut self) -> Result<Option<Record>> {
        while let Some(i) = self.cursor()? {
            if let Some(row) = self.states[i].cursor.next_row()? {
                return Ok(Some(row));
            }
            self.close_cursor();
        }
        Ok(None)
    }

    /// Drains every remaining cursor into `out`, a page or chunk at a time.
    fn drain_cursors(&mut self, out: &mut Vec<Record>) -> Result<()> {
        while let Some(i) = self.cursor()? {
            self.states[i].cursor.drain_into(out)?;
            self.close_cursor();
        }
        Ok(())
    }

    /// Collects every remaining row. Result-equivalent to
    /// `collect::<Result<Vec<_>>>()`, but each cursor is emptied a page or
    /// chunk at a time instead of pumping the row-at-a-time iterator
    /// protocol — the streaming machinery runs once per page, not once per
    /// row.
    pub fn collect_rows(self) -> Result<Vec<Record>> {
        self.collect_planned().map(|(rows, _)| rows)
    }

    /// [`ScanIter::collect_rows`], handing back the scan's plan too — to
    /// count the pages it predicted once the scan is done, without planning
    /// the scan again.
    pub fn collect_planned(mut self) -> Result<(Vec<Record>, ScanPlan<'a>)> {
        let mut out = Vec::new();
        if !self.done {
            self.drain_cursors(&mut out)?;
            for row in self.tail.into_iter().flatten() {
                out.push(row?);
            }
        }
        Ok((out, self.plan))
    }

    /// Folds every matching row of the scan into fixed-width buckets, from
    /// its first row (the scan is rewound). The bucket and value fields must
    /// be part of the scan's projection. The fold runs inside each cursor's
    /// loop — row pages, index-picked slots, column chunks and folded
    /// groups, of the base and of lsm runs alike, vertical partitions
    /// included — and no output row
    /// is ever allocated; the memtable folds its matching rows in place,
    /// last. Terminal: the iterator is left exhausted.
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
        let (bucket_pos, value_pos) = (position(&spec.bucket_field)?, position(&spec.value_field)?);
        // Every cursor must be opened with the fold lent to it.
        self.rewind()?;
        self.fold = Some(Fold {
            bucket_pos,
            value_pos,
            acc: Some(WindowAccumulator::new(spec)),
        });
        let drained = self.drain_cursors(&mut Vec::new());
        self.done = true;
        let acc = self.fold.take().and_then(|f| f.acc);
        drained?;
        let mut acc = acc.expect("a folding cursor hands the accumulator back when it closes");
        if let Some(tail) = &mut self.tail {
            tail.fold_into(&mut acc, bucket_pos, value_pos)?;
        }
        Ok(acc)
    }
}

impl Iterator for ScanIter<'_> {
    type Item = Result<Record>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let stepped = match self.next_streamed() {
            // Every cursor is drained; the memtable continues the scan.
            Ok(None) => self.tail.as_mut().and_then(Iterator::next).transpose(),
            other => other,
        };
        match stepped {
            Ok(row) => row.map(Ok),
            Err(e) => {
                // An error ends the stream; further calls yield None.
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
        use crate::rowcodec::encode_record;
        let s = schema();
        let fields = s.field_names();
        let mut rows = records(40);
        // NaN, `Null`, mixed `Int`/`Float` and strings.
        rows.extend([
            vec![Value::Null, Value::Str("row-7".into()), Value::Float(f64::NAN)],
            vec![Value::Float(2.5), Value::Null, Value::Int(3)],
            vec![Value::Int(-3), Value::Str(String::new()), Value::Float(f64::INFINITY)],
            vec![Value::Int(9), Value::Str("row-9".into()), Value::Null],
        ]);
        let field = |f: &str| ElemExpr::Field(f.into());
        let cmp = |left, op, right| Condition::Cmp { left, op, right };
        let sub = |a, b| ElemExpr::Sub(Box::new(a), Box::new(b));
        let add = |a, b| ElemExpr::Add(Box::new(a), Box::new(b));
        let bin = |e| ElemExpr::Bin(Box::new(e));
        let ill_typed = cmp(bin(field("name")), CmpOp::Eq, ElemExpr::lit(3i64));
        let preds = vec![
            Condition::True,
            Condition::range("a", 5i64, 20i64),
            Condition::eq("name", "row-7"),
            Condition::range("v", 1.0, 4.0).and(Condition::range("a", 0i64, 30i64)),
            Condition::Or(vec![
                Condition::eq("a", 3i64),
                Condition::Not(Box::new(Condition::range("a", 0i64, 35i64))),
            ]),
            cmp(sub(field("a"), field("v")), CmpOp::Ge, ElemExpr::lit(2i64)),
            cmp(add(field("v"), ElemExpr::lit(1.5)), CmpOp::Lt, field("a")),
            cmp(ElemExpr::lit(5.5), CmpOp::Le, field("a")),
            cmp(ElemExpr::lit("row-3"), CmpOp::Gt, field("name")),
            cmp(field("a"), CmpOp::Le, field("v")),
            cmp(bin(field("v")), CmpOp::Eq, field("a")),
            cmp(
                ElemExpr::Interleave(vec![field("a"), ElemExpr::lit(1i64)]),
                CmpOp::Gt,
                ElemExpr::lit(40i64),
            ),
            cmp(ElemExpr::Pos, CmpOp::Eq, field("a")),
            Condition::range("a", 2.0, 9i64).and(ill_typed.clone()),
            Condition::Or(vec![
                Condition::eq("a", 9i64),
                Condition::range("name", "row-", "row-2"),
            ]),
        ];
        // The same predicate on the refs decoded from the row's bytes.
        let on_refs = |compiled: &CompiledPredicate, row: &Record| {
            let bytes = encode_record(row);
            let mut refs = Vec::new();
            decode_fields_borrowed(&bytes, &[0, 1, 2], &mut refs)?;
            compiled.node.test(refs.as_slice())
        };
        for pred in preds.iter().chain([&ill_typed]) {
            let compiled = CompiledPredicate::compile(pred, &fields, "T").unwrap();
            for row in &rows {
                let want = pred.eval(&s, row).ok();
                assert_eq!(compiled.matches(row).ok(), want, "{pred:?} on {row:?}");
                let got = on_refs(&compiled, row).ok();
                assert_eq!(got, want, "{pred:?} on the refs of {row:?}");
            }
        }
        // A lone ill-typed conjunct is an error on every row.
        let compiled = CompiledPredicate::compile(&ill_typed, &fields, "T").unwrap();
        for row in &rows {
            assert!(compiled.matches(row).is_err(), "{row:?}");
            assert!(on_refs(&compiled, row).is_err(), "{row:?}");
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
    fn shared_and_copied_frames_agree() {
        // One cursor, two byte sources: the memory store shares its page
        // buffers, a file store copies every frame.
        use rodentstore_storage::pager::FileStore;
        let path = std::env::temp_dir().join(format!(
            "rodentstore-scan-test-{}-frames.db",
            std::process::id()
        ));
        let provider = MemTableProvider::single(schema(), records(150));
        let expr = LayoutExpr::table("T");
        let memory = Arc::new(Pager::in_memory_with_page_size(512));
        let file = Arc::new(Pager::with_store(Arc::new(
            FileStore::create(&path, 512).unwrap(),
        )));
        let layouts: Vec<PhysicalLayout> = [memory, Arc::clone(&file)]
            .into_iter()
            .map(|pager| render(&expr, &provider, pager, RenderOptions::default()).unwrap())
            .collect();
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
            let shared = layouts[0].scan(Some(&fields), pred.as_ref()).unwrap();
            let before = file.stats().snapshot();
            let copied = layouts[1].scan(Some(&fields), pred.as_ref()).unwrap();
            let io = file.stats().snapshot().since(&before);
            assert_eq!(shared, copied, "{pred:?}");
            assert!(!shared.is_empty());
            assert_eq!((io.frame_hits, io.frame_copies), (0, io.pages_read));
            assert!(io.pages_read > 0);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_borrowable_predicates_fall_back_to_owned_eval() {
        // `pos()` has no positional context in a scan; the predicate runs in
        // the cursor like any other and must still produce correct rows.
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
            let mut page = pager.read_frame(page_id).unwrap().to_page();
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
            layout.objects.iter().map(|o| o.page_count()).sum::<usize>(),
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

        // Every lane of the column kernel, as bucket and as value: ints,
        // timestamps, bools, plain floats, delta-quantized floats, a delta
        // block stored raw for its NaN and infinities, and a string (which
        // folds nothing) — with no predicate, an exact typed range decided
        // on its column, and a residual computed comparison.
        let lanes = ["i", "t", "b", "f", "q", "r", "s"];
        let schema = Schema::new(
            "L",
            vec![
                Field::new("i", DataType::Int),
                Field::new("t", DataType::Timestamp),
                Field::new("b", DataType::Bool),
                Field::new("f", DataType::Float),
                Field::new("q", DataType::Float),
                Field::new("r", DataType::Float),
                Field::new("s", DataType::String),
            ],
        );
        let lane_rows: Vec<Record> = (0..150i64)
            .map(|k| {
                let raw = match k % 17 {
                    3 => f64::NAN,
                    5 => f64::INFINITY,
                    11 => f64::NEG_INFINITY,
                    _ => k as f64 * -0.5,
                };
                vec![
                    Value::Int(k * 7 % 50 - 20),
                    Value::Timestamp(1_000 + k * 3),
                    Value::Bool(k % 3 == 0),
                    Value::Float(k as f64 * 0.37 - 10.0),
                    // Quarters survive the codec's 10^-6 quantization exactly.
                    Value::Float(k as f64 * 0.25 - 5.0),
                    Value::Float(raw),
                    Value::Str(format!("s{k}")),
                ]
            })
            .collect();
        let render_lanes = |expr: LayoutExpr| {
            let provider = MemTableProvider::single(schema.clone(), lane_rows.clone());
            let pager = Arc::new(Pager::in_memory_with_page_size(512));
            render(&expr, &provider, pager, RenderOptions::default()).unwrap()
        };
        let rows = render_lanes(LayoutExpr::table("L"));
        let field = |f: &str| ElemExpr::Field(f.into());
        let preds = [
            None,
            Some(Condition::range("i", -10i64, 15i64)),
            Some(Condition::Cmp {
                left: ElemExpr::Sub(Box::new(field("i")), Box::new(field("f"))),
                op: CmpOp::Ge,
                right: ElemExpr::lit(-3i64),
            }),
        ];
        let bits = |acc: &WindowAccumulator| -> Vec<_> {
            acc.finish()
                .iter()
                .map(|w| {
                    let bits = [w.bucket_start, w.sum, w.min, w.max].map(f64::to_bits);
                    (w.count, bits)
                })
                .collect()
        };
        for expr in [
            LayoutExpr::table("L").pax_with(16).delta(["q", "r"]),
            LayoutExpr::table("L")
                .vertical([vec!["i", "t", "b"], vec!["f", "q", "r", "s"]])
                .delta(["q", "r"]),
        ] {
            let columns = render_lanes(expr);
            for obj in &columns.objects {
                assert!(matches!(obj.encoding, ObjectEncoding::ColumnBlocks { .. }));
                for f in obj.fields.iter().filter(|f| *f == "q" || *f == "r") {
                    assert_eq!(obj.codecs[f], rodentstore_compress::CodecKind::Delta);
                }
            }
            // Quantization cannot carry a NaN: `r`'s blocks are stored raw.
            let raw = columns.scan(Some(&["r".to_string()]), None).unwrap();
            let nan = |row: &Record| matches!(row[0], Value::Float(x) if x.is_nan());
            assert!(raw.iter().any(nan));
            for bucket in lanes {
                for value in lanes {
                    let spec = WindowedAggregate::new(bucket, 4.0, value);
                    for pred in &preds {
                        let want = rows.scan_aggregate(&spec, pred.as_ref()).unwrap();
                        let got = columns.scan_aggregate(&spec, pred.as_ref()).unwrap();
                        let case = format!("{bucket} by {value} under {pred:?}");
                        assert_eq!(got.rows_folded(), want.rows_folded(), "{case}");
                        assert_eq!(bits(&got), bits(&want), "{case}");
                        let numeric = |f: &str| f != "s";
                        let folds = want.rows_folded() > 0;
                        assert_eq!(folds, numeric(bucket) && numeric(value), "{case}");
                    }
                }
            }
        }
    }

    /// Every stored shape: `get_element(i)` is row `i` of the full scan —
    /// all fields, a reordered projection, and no field at all — and one
    /// past the last row is an error.
    #[test]
    fn get_element_matches_streamed_scan_for_all_encodings() {
        // `a` repeats every seven rows, so folds, grid cells and partitions
        // hold several rows each.
        let rows: Vec<Record> = (0..90i64)
            .map(|i| {
                vec![
                    Value::Int(i % 7),
                    Value::Str(format!("row-{i}")),
                    Value::Float(i as f64 * 0.25),
                ]
            })
            .collect();
        let shapes = [
            "T",
            "columns(T)",
            "vertical[a|name,v](T)",
            "fold[a|name,v](T)",
            "grid[v;4](T)",
            "chunk[5](delta[v](grid[a;3](T)))",
            "zorder(grid[a,v;2,5](T))",
            "partition[a](T)",
            "index[v](T)",
        ];
        let mut layouts: Vec<(&str, PhysicalLayout)> = shapes
            .iter()
            .map(|&text| {
                let provider = MemTableProvider::single(schema(), rows.clone());
                let pager = Arc::new(Pager::in_memory_with_page_size(512));
                let expr = rodentstore_algebra::parse(text).unwrap();
                let layout = render(&expr, &provider, pager, RenderOptions::default()).unwrap();
                (text, layout)
            })
            .collect();
        layouts.push(("lsm[a](T), several runs and a memtable", lsm_layout()));
        let shape = |text: &str| &layouts.iter().find(|(t, _)| *t == text).unwrap().1;
        // The shapes are what they claim to be.
        let folded = shape("fold[a|name,v](T)");
        assert!(matches!(folded.objects[0].encoding, ObjectEncoding::Folded { .. }));
        let cells = shape("chunk[5](delta[v](grid[a;3](T)))");
        assert!(cells.objects.len() > 1);
        for obj in &cells.objects {
            assert!(matches!(obj.encoding, ObjectEncoding::ColumnBlocks { .. }));
            assert!(obj.cell.is_some() && obj.chunks.is_none(), "{obj:?}");
        }
        let parts = shape("partition[a](T)");
        assert!(parts.objects.len() > 1 && !parts.is_gridded());
        assert!(!parts.is_vertically_partitioned());
        assert!(shape("index[v](T)").index.is_some());

        let narrow = vec!["v".to_string(), "name".to_string()];
        let none: Vec<String> = Vec::new();
        for (text, layout) in &layouts {
            let all = layout.scan(None, None).unwrap();
            assert_eq!(all.len(), layout.row_count, "{text}");
            let empty_rows = layout.scan(Some(&none), None).unwrap();
            assert_eq!(empty_rows.len(), all.len(), "{text}: one empty row per row");
            for (i, row) in all.iter().enumerate() {
                let case = format!("{text}, row {i}");
                assert_eq!(&layout.get_element(i, None).unwrap(), row, "{case}");
                let projected = layout.get_element(i, Some(&narrow)).unwrap();
                assert_eq!(projected, vec![row[2].clone(), row[1].clone()], "{case}");
                let empty = layout.get_element(i, Some(&none)).unwrap();
                assert!(empty.is_empty(), "{case}");
            }
            assert!(
                matches!(layout.get_element(all.len(), None), Err(LayoutError::Unsupported(_))),
                "{text}"
            );
        }
    }

    /// A get in a row-encoded object reads the pages up to its row's own and
    /// none after, and decodes only the fields it projects.
    #[test]
    fn row_page_get_reads_the_pages_up_to_its_own() {
        let provider = MemTableProvider::single(schema(), records(120));
        let pager = Arc::new(Pager::in_memory_with_page_size(256));
        let expr = LayoutExpr::table("T");
        let layout = render(
            &expr,
            &provider,
            Arc::clone(&pager),
            RenderOptions::default(),
        )
        .unwrap();
        let obj = &layout.objects[0];
        assert!(obj.page_count() > 4, "rows must spill over several pages");
        let mut page_of = Vec::new();
        obj.heap
            .scan(|rid, _| {
                page_of.push(rid.page_index);
                Ok::<_, LayoutError>(())
            })
            .unwrap();
        let name = vec!["name".to_string()];
        for i in [0usize, 1, 57, 119] {
            assert_eq!(layout.get_element(i, None).unwrap(), records(120)[i]);
            let before = pager.stats().snapshot();
            let got = layout.get_element(i, Some(&name)).unwrap();
            let io = pager.stats().snapshot().since(&before);
            assert_eq!(got, vec![Value::Str(format!("row-{i}"))]);
            assert_eq!(
                io.pages_read as usize,
                page_of[i] + 1,
                "row {i} reads the pages up to its own, none after"
            );
        }
    }

    /// A row count beyond the records a row-encoded heap holds is
    /// corruption, not an out-of-range position.
    #[test]
    fn row_page_get_past_the_last_record_is_corruption() {
        let mut layout = rendered(LayoutExpr::table("T"), 30);
        let past = layout.row_count;
        Arc::get_mut(&mut layout.objects[0]).unwrap().row_count += 1;
        layout.row_count += 1;
        match layout.get_element(past, None) {
            Err(LayoutError::Corrupted(msg)) => {
                assert!(msg.contains(&layout.name), "{msg}");
            }
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    /// A layout of 90 rows whose `a` repeats every fifteen rows, rendered
    /// from `text` on 256-byte pages.
    fn repeating(text: &str) -> (Arc<Pager>, PhysicalLayout) {
        let rows: Vec<Record> = (0..90i64)
            .map(|i| {
                vec![
                    Value::Int(i % 15),
                    Value::Str(format!("row-{i}")),
                    Value::Float(i as f64 * 0.25),
                ]
            })
            .collect();
        let provider = MemTableProvider::single(schema(), rows);
        let pager = Arc::new(Pager::in_memory_with_page_size(256));
        let expr = rodentstore_algebra::parse(text).unwrap();
        let layout = render(&expr, &provider, Arc::clone(&pager), RenderOptions::default());
        (pager, layout.unwrap())
    }

    /// The page ordinal holding each row of a row-encoded or folded object,
    /// in scan order.
    fn page_of_rows(obj: &StoredObject) -> Vec<usize> {
        let mut page_of = Vec::with_capacity(obj.row_count);
        obj.heap
            .scan(|rid, bytes| {
                let rows = match obj.encoding {
                    ObjectEncoding::Folded { key_fields } => {
                        let folded = decode_record(bytes)?;
                        split_folded(&folded, key_fields, &obj.name)?.1.len()
                    }
                    _ => 1,
                };
                page_of.extend(std::iter::repeat(rid.page_index).take(rows));
                Ok::<_, LayoutError>(())
            })
            .unwrap();
        assert_eq!(page_of.len(), obj.row_count, "{}", obj.name);
        page_of
    }

    /// A row-page or folded-group cursor restricted to several row ranges
    /// yields exactly the rows inside them, in order, and reads no page
    /// after the one holding the last row of the last range.
    #[test]
    fn restricted_row_and_folded_cursors_yield_only_their_ranges() {
        for text in ["T", "fold[a|name,v](T)"] {
            let (pager, layout) = repeating(text);
            let obj = &layout.objects[0];
            assert!(obj.page_count() > 3, "{text}: rows must spill over pages");
            let page_of = page_of_rows(obj);
            let all = layout.scan(None, None).unwrap();
            let fields = layout.schema.field_names();
            let n = all.len();
            for ranges in [
                vec![(0, 1)],
                vec![(2, 5), (40, 43)],
                vec![(10, 11), (11, 12), (60, 61)],
                vec![(n - 3, n)],
            ] {
                let case = format!("{text}, ranges {ranges:?}");
                let mut state =
                    ObjectState::compile(Source { layout: &layout, group: &[0] }, &fields, None)
                        .unwrap();
                state.cursor.restrict(&ranges);
                let before = pager.stats().snapshot();
                let mut got = Vec::new();
                state.cursor.drain_into(&mut got).unwrap();
                let io = pager.stats().snapshot().since(&before);
                let want: Vec<Record> = ranges
                    .iter()
                    .flat_map(|&(lo, hi)| all[lo..hi].iter().cloned())
                    .collect();
                assert_eq!(got, want, "{case}");
                let last = ranges.last().unwrap().1 - 1;
                assert_eq!(io.pages_read as usize, page_of[last] + 1, "{case}");
            }
        }
    }

    /// A get in a folded object reads the pages up to its group's own and
    /// none after, with or without a projection.
    #[test]
    fn folded_get_reads_the_pages_up_to_its_group() {
        let (pager, layout) = repeating("fold[a|name,v](T)");
        let obj = &layout.objects[0];
        assert!(matches!(obj.encoding, ObjectEncoding::Folded { .. }));
        assert!(obj.page_count() > 3, "groups must spill over pages");
        let page_of = page_of_rows(obj);
        let all = layout.scan(None, None).unwrap();
        let name = vec!["name".to_string()];
        for i in [0usize, 1, 44, all.len() - 1] {
            for (fields, want) in [
                (None, all[i].clone()),
                (Some(name.as_slice()), vec![all[i][1].clone()]),
            ] {
                let before = pager.stats().snapshot();
                let got = layout.get_element(i, fields).unwrap();
                let io = pager.stats().snapshot().since(&before);
                assert_eq!(got, want, "row {i}");
                assert_eq!(io.pages_read as usize, page_of[i] + 1, "row {i}");
            }
        }
    }

    /// A get in a sealed lsm run reads that run's pages only — its first row
    /// one page, its last row every page of the run — and none of the base.
    #[test]
    fn run_get_reads_the_pages_of_its_run_only() {
        let options = RenderOptions {
            lsm_memtable_cap: 64,
            lsm_fanout: 8,
            ..RenderOptions::default()
        };
        let pager = Arc::new(Pager::in_memory_with_page_size(512));
        let provider = MemTableProvider::single(schema(), records(40));
        let expr = LayoutExpr::table("T").lsm(["a"]);
        let mut layout = render(&expr, &provider, Arc::clone(&pager), options).unwrap();
        for batch in 0..4i64 {
            let rows: Vec<Record> = (0..64)
                .map(|i| {
                    let a = 1000 + batch * 64 + i;
                    vec![
                        Value::Int(a),
                        Value::Str(format!("late-{a}")),
                        Value::Float(a as f64 * 0.5),
                    ]
                })
                .collect();
            crate::append::append_records(&mut layout, &MemTableProvider::single(schema(), rows))
                .unwrap();
        }
        let lsm = layout.lsm.as_ref().unwrap();
        assert_eq!(lsm.runs.len(), 4, "fanout 8 leaves four level-0 runs");
        let all = layout.scan(None, None).unwrap();
        let a_only = vec!["a".to_string()];
        let mut start = layout.base_row_count();
        for run in &lsm.runs {
            assert!(run.total_pages() > 1);
            let last = start + run.row_count - 1;
            for (p, pages) in [(start, 1), (last, run.total_pages())] {
                let before = pager.stats().snapshot();
                let got = layout.get_element(p, Some(&a_only)).unwrap();
                let io = pager.stats().snapshot().since(&before);
                assert_eq!(got, vec![all[p][0].clone()], "row {p}");
                assert_eq!(io.pages_read as usize, pages, "row {p}");
            }
            start += run.row_count;
        }
    }

    #[test]
    fn group_positions_batches_each_page_once_in_storage_order() {
        use crate::index::pack_pos;
        let positions: Vec<u64> = [(0, 0, 1), (0, 0, 3), (0, 0, 3), (0, 2, 0), (1, 1, 4)]
            .iter()
            .map(|&(obj, page, slot)| pack_pos(obj, page, slot).unwrap())
            .collect();
        assert_eq!(
            group_positions(&positions),
            vec![
                (0, vec![(0, vec![1, 3]), (2, vec![0])]),
                (1, vec![(1, vec![4])]),
            ]
        );
        assert!(group_positions(&[]).is_empty());
    }

    #[test]
    fn picked_slots_are_the_only_rows_read_and_bad_ordinals_are_corruption() {
        let layout = rendered(LayoutExpr::table("T"), 150);
        let obj = &layout.objects[0];
        assert!(obj.page_count() > 3);
        let templates = layout.templates_for(&obj.fields);
        let open = || {
            let needed = [true; 3];
            let source = Source { layout: &layout, group: &[0] };
            ObjectCursor::new(source, &needed, templates.clone())
                .unwrap()
        };
        let picks = [(1usize, vec![0usize, 2]), (3, vec![1])];
        let mut want = Vec::new();
        obj.heap
            .scan(|rid, payload| {
                if picks
                    .iter()
                    .any(|(page, slots)| *page == rid.page_index && slots.contains(&rid.slot))
                {
                    want.push(decode_record(payload)?);
                }
                Ok::<_, LayoutError>(())
            })
            .unwrap();
        let mut cursor = open();
        cursor.pick(&picks).unwrap();
        let before = layout.pager().stats().snapshot();
        let mut got = Vec::new();
        while let Some(row) = cursor.next_row().unwrap() {
            got.push(row);
        }
        let io = layout.pager().stats().snapshot().since(&before);
        assert_eq!(got, want);
        assert_eq!(io.pages_read, 2, "one read per picked page");
        match open().pick(&[(0, vec![0]), (obj.page_count(), vec![0])]) {
            Err(LayoutError::Corrupted(msg)) => assert!(msg.contains(&obj.name), "{msg}"),
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn index_probe_reads_the_tree_and_the_candidate_pages_only() {
        let layout = rendered(LayoutExpr::table("T").index(["a"]), 300);
        let pager = Arc::clone(layout.pager());
        let pred = Condition::range("a", 100i64, 109i64);
        let mut candidate_pages = std::collections::BTreeSet::new();
        layout.objects[0]
            .heap
            .scan(|rid, payload| {
                if (100..110).contains(&decode_record(payload)?[0].as_i64().unwrap_or(-1)) {
                    candidate_pages.insert(rid.page_index);
                }
                Ok::<_, LayoutError>(())
            })
            .unwrap();
        let index = layout.index.as_ref().unwrap();
        let before = pager.stats().snapshot();
        index.probe(&extract_ranges(&pred)).unwrap();
        let probe_pages = pager.stats().snapshot().since(&before).pages_read;

        let before = pager.stats().snapshot();
        let iter = layout.scan_iter(Some(&["name".to_string()]), Some(&pred)).unwrap();
        assert!(iter.uses_index());
        let got = iter.collect_rows().unwrap();
        let io = pager.stats().snapshot().since(&before);
        let want: Vec<Record> = (100..110).map(|i| vec![Value::Str(format!("row-{i}"))]).collect();
        assert_eq!(got, want);
        assert_eq!(io.pages_read, probe_pages + candidate_pages.len() as u64);
        assert!(candidate_pages.len() < layout.objects[0].page_count());
    }

    #[test]
    fn fold_over_an_index_probe_matches_the_fold_of_the_probed_rows() {
        let indexed = rendered(LayoutExpr::table("T").index(["a"]), 300);
        let plain = rendered(LayoutExpr::table("T"), 300);
        let spec = WindowedAggregate::new("a", 8.0, "v");
        let pred = Condition::range("a", 50i64, 149i64).and(Condition::range("v", 20.0, 30.0));
        assert!(indexed.scan_iter(None, Some(&pred)).unwrap().uses_index());
        let got = indexed.scan_aggregate(&spec, Some(&pred)).unwrap();
        let fields = vec!["a".to_string(), "v".to_string()];
        let rows = plain.scan(Some(&fields), Some(&pred)).unwrap();
        assert_eq!(rows.len(), 41, "v in [20, 30] is a in [80, 120]");
        let mut want = WindowAccumulator::new(&spec);
        for row in &rows {
            want.fold_values(&row[0], &row[1]);
        }
        assert_eq!(got.rows_folded(), want.rows_folded());
        assert_eq!(got.finish(), want.finish());
    }

    /// A `lsm[a]` layout: 40 base rows, then 90 appended in batches of 10
    /// with keys out of arrival order, spilled at 16 rows and merged two
    /// runs a level — several runs on more than one level, plus a memtable.
    fn lsm_layout() -> PhysicalLayout {
        let provider = MemTableProvider::single(schema(), records(40));
        let options = RenderOptions {
            lsm_memtable_cap: 16,
            lsm_fanout: 2,
            ..RenderOptions::default()
        };
        let pager = Arc::new(Pager::in_memory_with_page_size(512));
        let expr = LayoutExpr::table("T").lsm(["a"]);
        let mut layout = render(&expr, &provider, pager, options).unwrap();
        for batch in 0..9usize {
            let rows: Vec<Record> = (0..10)
                .map(|i| {
                    let a = 1000 + (batch * 10 + i) * 37 % 90;
                    vec![
                        Value::Int(a as i64),
                        Value::Str(format!("late-{a}")),
                        Value::Float(a as f64 * 0.5),
                    ]
                })
                .collect();
            crate::append::append_records(&mut layout, &MemTableProvider::single(schema(), rows))
                .unwrap();
        }
        let lsm = layout.lsm.as_ref().unwrap();
        assert!(lsm.runs.len() >= 2 && !lsm.memtable.is_empty(), "{lsm:?}");
        assert!(lsm.runs.iter().any(|r| r.level > 0), "{lsm:?}");
        layout
    }

    #[test]
    fn lsm_scans_read_base_then_unpruned_runs_in_tier_order_then_the_memtable() {
        let layout = lsm_layout();
        let lsm = layout.lsm.as_ref().unwrap();
        let mut want = records(40);
        for run in &lsm.runs {
            for bytes in run.objects[0].heap.read_all().unwrap() {
                want.push(decode_record(&bytes).unwrap());
            }
        }
        want.extend(lsm.memtable.rows().iter().cloned());
        assert_eq!(want.len(), 130);
        assert_eq!(layout.scan(None, None).unwrap(), want);

        let pred = Condition::range("a", 1010i64, 1029i64);
        let fields = vec!["v".to_string(), "a".to_string()];
        let filtered: Vec<Record> = want
            .iter()
            .filter(|r| (1010..=1029).contains(&r[0].as_i64().unwrap()))
            .map(|r| vec![r[2].clone(), r[0].clone()])
            .collect();
        assert_eq!(filtered.len(), 20);
        let ranges = extract_ranges(&pred);
        let run_pages: usize = lsm
            .runs
            .iter()
            .filter(|r| r.may_match(&lsm.key, &ranges))
            .map(|r| r.total_pages())
            .sum();
        let before = layout.pager().stats().snapshot();
        assert_eq!(layout.scan(Some(&fields), Some(&pred)).unwrap(), filtered);
        let io = layout.pager().stats().snapshot().since(&before);
        assert_eq!(
            io.pages_read as usize,
            layout.objects[0].page_count() + run_pages,
            "pruned runs are never opened"
        );
    }

    #[test]
    fn fold_over_lsm_runs_matches_the_fold_of_the_scanned_rows_bit_for_bit() {
        let layout = lsm_layout();
        let spec = WindowedAggregate::new("a", 25.0, "v");
        let fields = vec!["a".to_string(), "v".to_string()];
        let pred = Condition::range("a", 30i64, 1060i64);
        for pred in [None, Some(&pred)] {
            let got = layout.scan_aggregate(&spec, pred).unwrap();
            let rows = layout.scan(Some(&fields), pred).unwrap();
            let mut want = WindowAccumulator::new(&spec);
            for row in &rows {
                want.fold_values(&row[0], &row[1]);
            }
            assert_eq!(got.rows_folded(), rows.len() as u64);
            assert_eq!(got.finish(), want.finish());
        }
    }
}
