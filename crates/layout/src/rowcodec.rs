//! Serialization of records and column blocks.
//!
//! Heap-file objects store either whole rows (one heap record per tuple) or
//! column blocks (one heap record per encoded block of a single field). This
//! module provides both encodings:
//!
//! * [`encode_record`] / [`decode_record`] — self-describing row encoding
//!   (per-value type tags, varint lengths), decoded whole into owned values;
//! * [`decode_fields_borrowed`] / [`FixedRowPlan`] — the read path's decoder:
//!   only the wanted fields, as [`FieldRef`]s borrowed from the page bytes;
//! * [`values_to_column`] / `column_field` — conversion between algebra
//!   [`Value`]s and the typed [`ColumnData`] the compression codecs operate
//!   on; reads borrow each element back as a [`FieldRef`].

use crate::{LayoutError, Result};
use rodentstore_algebra::value::{Record, Value};
use rodentstore_compress::ColumnData;
use std::ops::Range;

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_TS: u8 = 5;
const TAG_LIST: u8 = 6;

fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(input: &[u8], pos: &mut usize) -> Result<u64> {
    let mut result = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *input
            .get(*pos)
            .ok_or_else(|| LayoutError::Corrupted("truncated varint".into()))?;
        *pos += 1;
        result |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(result);
        }
        shift += 7;
        if shift >= 64 {
            return Err(LayoutError::Corrupted("varint overflow".into()));
        }
    }
}

fn encode_value(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Int(v) => {
            out.push(TAG_INT);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Value::Float(v) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Value::Bool(v) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*v));
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            write_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Timestamp(v) => {
            out.push(TAG_TS);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Value::List(items) => {
            out.push(TAG_LIST);
            write_varint(out, items.len() as u64);
            for item in items {
                encode_value(item, out);
            }
        }
    }
}

fn decode_value(input: &[u8], pos: &mut usize) -> Result<Value> {
    let tag = *input
        .get(*pos)
        .ok_or_else(|| LayoutError::Corrupted("truncated value".into()))?;
    *pos += 1;
    let read_i64 = |input: &[u8], pos: &mut usize| -> Result<i64> {
        let bytes = input
            .get(*pos..*pos + 8)
            .ok_or_else(|| LayoutError::Corrupted("truncated 8-byte value".into()))?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(bytes);
        *pos += 8;
        Ok(i64::from_le_bytes(buf))
    };
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_INT => Ok(Value::Int(read_i64(input, pos)?)),
        TAG_TS => Ok(Value::Timestamp(read_i64(input, pos)?)),
        TAG_FLOAT => {
            let bits = read_i64(input, pos)? as u64;
            Ok(Value::Float(f64::from_bits(bits)))
        }
        TAG_BOOL => {
            let b = *input
                .get(*pos)
                .ok_or_else(|| LayoutError::Corrupted("truncated bool".into()))?;
            *pos += 1;
            Ok(Value::Bool(b != 0))
        }
        TAG_STR => {
            let len = read_varint(input, pos)? as usize;
            let end = pos
                .checked_add(len)
                .ok_or_else(|| LayoutError::Corrupted("string length overflows".into()))?;
            let bytes = input
                .get(*pos..end)
                .ok_or_else(|| LayoutError::Corrupted("truncated string".into()))?;
            *pos = end;
            Ok(Value::Str(String::from_utf8(bytes.to_vec()).map_err(
                |_| LayoutError::Corrupted("invalid utf8".into()),
            )?))
        }
        TAG_LIST => {
            let len = read_varint(input, pos)? as usize;
            // Every value takes at least one byte: bound the allocation by
            // what the input could hold, not by what a corrupt length claims.
            let mut items = Vec::with_capacity(len.min(input.len().saturating_sub(*pos)));
            for _ in 0..len {
                items.push(decode_value(input, pos)?);
            }
            Ok(Value::List(items))
        }
        other => Err(LayoutError::Corrupted(format!("unknown value tag {other}"))),
    }
}

/// Serializes a record into a self-describing byte payload.
pub fn encode_record(record: &Record) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 * record.len());
    encode_record_into(record, &mut out);
    out
}

/// Appends a record's [`encode_record`] bytes to `out` (for writers that
/// pack many records into one buffer).
pub fn encode_record_into(record: &Record, out: &mut Vec<u8>) {
    write_varint(out, record.len() as u64);
    for value in record {
        encode_value(value, out);
    }
}

/// Deserializes a record encoded with [`encode_record`].
pub fn decode_record(bytes: &[u8]) -> Result<Record> {
    decode_record_prefix(bytes).map(|(record, _)| record)
}

/// Deserializes the record at the front of `bytes` and reports how many
/// bytes it occupied — the encoding is self-delimiting, so records stored
/// back to back need no framing between them.
pub fn decode_record_prefix(bytes: &[u8]) -> Result<(Record, usize)> {
    let mut pos = 0usize;
    let len = read_varint(bytes, &mut pos)? as usize;
    let mut record = Vec::with_capacity(len.min(bytes.len()));
    for _ in 0..len {
        record.push(decode_value(bytes, &mut pos)?);
    }
    Ok((record, pos))
}

/// Advances `pos` past one encoded value without materializing it. The
/// self-describing encoding carries explicit lengths, so skipping a value —
/// including a string or nested list — never allocates.
fn skip_value(input: &[u8], pos: &mut usize) -> Result<()> {
    let tag = *input
        .get(*pos)
        .ok_or_else(|| LayoutError::Corrupted("truncated value".into()))?;
    *pos += 1;
    let advance = |pos: &mut usize, n: usize| -> Result<()> {
        let end = pos
            .checked_add(n)
            .ok_or_else(|| LayoutError::Corrupted("value length overflows".into()))?;
        if input.len() < end {
            return Err(LayoutError::Corrupted("truncated value payload".into()));
        }
        *pos = end;
        Ok(())
    };
    match tag {
        TAG_NULL => Ok(()),
        TAG_INT | TAG_FLOAT | TAG_TS => advance(pos, 8),
        TAG_BOOL => advance(pos, 1),
        TAG_STR => {
            let len = read_varint(input, pos)? as usize;
            advance(pos, len)
        }
        TAG_LIST => {
            let len = read_varint(input, pos)? as usize;
            for _ in 0..len {
                skip_value(input, pos)?;
            }
            Ok(())
        }
        other => Err(LayoutError::Corrupted(format!("unknown value tag {other}"))),
    }
}

/// A field value borrowed straight out of an encoded record payload.
///
/// This is the zero-copy counterpart of [`Value`]: scalars are decoded
/// in-place (a register copy, never a heap allocation) and variable-length
/// values borrow the underlying page bytes — a string is a `&str` into the
/// frame, a list is its raw encoded span. Owned [`Value`]s are materialized
/// only for rows that survive predicate + projection and escape the scan
/// (see [`FieldRef::to_value`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldRef<'a> {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// String borrowed from the encoded payload.
    Str(&'a str),
    /// Timestamp (epoch integer).
    Timestamp(i64),
    /// A list value as its raw encoded span (tag byte included); decoded
    /// only on materialization.
    List(&'a [u8]),
}

impl<'a> FieldRef<'a> {
    /// Materializes an owned [`Value`]. The only allocating conversions are
    /// `Str` (copies the string) and `List` (decodes the span).
    pub fn to_value(&self) -> Result<Value> {
        Ok(match self {
            FieldRef::Null => Value::Null,
            FieldRef::Int(v) => Value::Int(*v),
            FieldRef::Float(v) => Value::Float(*v),
            FieldRef::Bool(b) => Value::Bool(*b),
            FieldRef::Timestamp(v) => Value::Timestamp(*v),
            FieldRef::Str(s) => Value::Str((*s).to_string()),
            FieldRef::List(bytes) => {
                let mut pos = 0usize;
                decode_value(bytes, &mut pos)?
            }
        })
    }

    /// Numeric interpretation, mirroring [`Value::as_f64`] exactly.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            FieldRef::Int(v) => Some(*v as f64),
            FieldRef::Float(v) => Some(*v),
            FieldRef::Timestamp(v) => Some(*v as f64),
            FieldRef::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Compares this borrowed field with an owned value under exactly the
    /// total order of [`Value::compare`] (verified by a property test
    /// against the owned reference). Same-typed scalars and strings — what a
    /// pushed-down range or comparison almost always pairs — are decided
    /// inline; every other pairing defers to `Value::compare` through a
    /// stand-in. Only the `List` case allocates (it decodes the span).
    #[inline]
    pub fn compare_value(&self, other: &Value) -> Result<std::cmp::Ordering> {
        use std::cmp::Ordering;
        Ok(match (self, other) {
            (FieldRef::Int(a), Value::Int(b)) => a.cmp(b),
            (FieldRef::Timestamp(a), Value::Timestamp(b)) => a.cmp(b),
            (FieldRef::Float(a), Value::Float(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (FieldRef::Str(a), Value::Str(b)) => (*a).cmp(b.as_str()),
            (FieldRef::Null, _) => Value::Null.compare(other),
            (FieldRef::Int(v), _) => Value::Int(*v).compare(other),
            (FieldRef::Float(v), _) => Value::Float(*v).compare(other),
            (FieldRef::Bool(b), _) => Value::Bool(*b).compare(other),
            (FieldRef::Timestamp(v), _) => Value::Timestamp(*v).compare(other),
            // Only Str-vs-Str inspects string contents; every other pairing
            // in `Value::compare` is decided by null rules or type rank, so
            // an empty stand-in is exact.
            (FieldRef::Str(_), _) => Value::Str(String::new()).compare(other),
            (FieldRef::List(_), _) => self.to_value()?.compare(other),
        })
    }
}

/// Decodes exactly the fields at `positions` (strictly ascending) as
/// borrowed [`FieldRef`]s, reusing `out` as scratch (cleared on entry; no
/// allocation once its capacity has grown). Fields before an unwanted
/// position are skipped byte-wise, without allocating; positions at or past
/// the record's arity yield [`FieldRef::Null`]. Decoding stops after the last
/// wanted position — trailing fields are not walked.
pub fn decode_fields_borrowed<'a>(
    bytes: &'a [u8],
    positions: &[usize],
    out: &mut Vec<FieldRef<'a>>,
) -> Result<()> {
    debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
    out.clear();
    let mut pos = 0usize;
    let len = read_varint(bytes, &mut pos)? as usize;
    let mut wanted = positions.iter().copied().peekable();
    for i in 0..len {
        match wanted.peek() {
            None => break,
            Some(&p) if p == i => {
                out.push(decode_field(bytes, &mut pos)?);
                wanted.next();
            }
            Some(_) => skip_value(bytes, &mut pos)?,
        }
    }
    for _ in wanted {
        out.push(FieldRef::Null);
    }
    Ok(())
}

/// A compiled fixed-offset decoder for the records of one stored object.
///
/// Rows of a row-encoded object overwhelmingly share one shape: the arity of
/// the object and, per field, the tag its schema type encodes to. When every
/// field before the last wanted position is a fixed-width scalar
/// (int/float/timestamp: 1 tag + 8 payload bytes; bool: 1 + 1), each wanted
/// field sits at a statically known byte offset. The plan verifies the shape
/// with a handful of byte compares and decodes the wanted fields straight
/// from their offsets — no varint walk, no skip chain. Records that deviate
/// (a NULL, a type the template did not predict) fail the byte checks and
/// fall back to the generic walk, so the fast path is an optimization, never
/// a semantic change.
#[derive(Debug, Clone)]
pub struct FixedRowPlan {
    /// The record's arity as its (single-byte) varint encoding.
    arity_byte: u8,
    /// `(tag offset, expected tag)` for every field strictly before the last
    /// wanted position — a deviation anywhere there shifts later offsets.
    checks: Vec<(u32, u8)>,
    /// Tag-byte offset of each wanted field, parallel to the positions the
    /// plan was compiled for.
    offsets: Vec<u32>,
    /// Every check and offset above is readable once the record has at least
    /// this many bytes (payloads past the last tag are bounds-checked by the
    /// field decoder itself).
    min_len: usize,
}

impl FixedRowPlan {
    /// Compiles a plan for decoding `positions` (strictly ascending) out of
    /// records whose fields have the types of `templates`. Returns `None`
    /// when the shape does not admit static offsets: arity ≥ 128 (multi-byte
    /// count varint), no wanted positions, a wanted position at or past the
    /// arity, or a variable-width field (string, list, untyped template)
    /// anywhere before the last wanted position.
    pub fn compile(templates: &[Value], positions: &[usize]) -> Option<FixedRowPlan> {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        let arity = templates.len();
        let &last = positions.last()?;
        if arity >= 128 || last >= arity {
            return None;
        }
        let mut checks = Vec::with_capacity(last);
        let mut offsets = Vec::with_capacity(positions.len());
        let mut next_wanted = 0usize;
        let mut offset = 1usize; // past the count byte
        for (i, template) in templates.iter().enumerate().take(last + 1) {
            if positions.get(next_wanted) == Some(&i) {
                offsets.push(offset as u32);
                next_wanted += 1;
            }
            if i == last {
                // The last wanted field self-describes (its decoder checks
                // its own tag and bounds); nothing depends on its width.
                break;
            }
            let (tag, width) = match template {
                Value::Int(_) => (TAG_INT, 9),
                Value::Float(_) => (TAG_FLOAT, 9),
                Value::Timestamp(_) => (TAG_TS, 9),
                Value::Bool(_) => (TAG_BOOL, 2),
                _ => return None,
            };
            checks.push((offset as u32, tag));
            offset += width;
        }
        Some(FixedRowPlan {
            arity_byte: arity as u8,
            checks,
            offsets,
            min_len: offset + 1,
        })
    }

    /// Byte offsets of the wanted fields' tag bytes, parallel to the
    /// positions the plan was compiled for. Callers that materialize in a
    /// different output order index this to build their own offset list for
    /// [`FixedRowPlan::decode_owned`].
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Verifies the compiled shape: arity byte plus the expected tag at
    /// every checked offset. `false` sends the record to the generic walk.
    #[inline]
    fn shape_matches(&self, bytes: &[u8]) -> bool {
        if bytes.len() < self.min_len || bytes[0] != self.arity_byte {
            return false;
        }
        self.checks
            .iter()
            .all(|&(off, tag)| bytes[off as usize] == tag)
    }

    /// Attempts a fixed-offset decode straight to owned values, reading the
    /// fields at `offsets` (a subset or permutation of
    /// [`FixedRowPlan::offsets`]) in that order — the single-pass
    /// materialization for rows that skip predicate evaluation entirely.
    /// Returns `None` when the record does not have the compiled shape.
    #[inline]
    pub fn decode_owned(&self, bytes: &[u8], offsets: &[u32]) -> Result<Option<Record>> {
        if !self.shape_matches(bytes) {
            return Ok(None);
        }
        let mut row = Vec::with_capacity(offsets.len());
        for &off in offsets {
            let mut pos = off as usize;
            row.push(decode_value(bytes, &mut pos)?);
        }
        Ok(Some(row))
    }

    /// Attempts the fixed-offset decode of one record into `out` (cleared
    /// first on success). Returns `false` when the record does not have the
    /// compiled shape; the caller then runs [`decode_fields_borrowed`].
    #[inline]
    pub fn decode_borrowed<'a>(
        &self,
        bytes: &'a [u8],
        out: &mut Vec<FieldRef<'a>>,
    ) -> Result<bool> {
        if !self.shape_matches(bytes) {
            return Ok(false);
        }
        out.clear();
        for &off in &self.offsets {
            let mut pos = off as usize;
            out.push(decode_field(bytes, &mut pos)?);
        }
        Ok(true)
    }
}

/// Decodes one value as a borrowed [`FieldRef`], advancing `pos` past it.
fn decode_field<'a>(input: &'a [u8], pos: &mut usize) -> Result<FieldRef<'a>> {
    let start = *pos;
    let tag = *input
        .get(*pos)
        .ok_or_else(|| LayoutError::Corrupted("truncated value".into()))?;
    *pos += 1;
    let read_8 = |pos: &mut usize| -> Result<[u8; 8]> {
        let bytes = input
            .get(*pos..*pos + 8)
            .ok_or_else(|| LayoutError::Corrupted("truncated 8-byte value".into()))?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(bytes);
        *pos += 8;
        Ok(buf)
    };
    match tag {
        TAG_NULL => Ok(FieldRef::Null),
        TAG_INT => Ok(FieldRef::Int(i64::from_le_bytes(read_8(pos)?))),
        TAG_TS => Ok(FieldRef::Timestamp(i64::from_le_bytes(read_8(pos)?))),
        TAG_FLOAT => Ok(FieldRef::Float(f64::from_bits(u64::from_le_bytes(
            read_8(pos)?,
        )))),
        TAG_BOOL => {
            let b = *input
                .get(*pos)
                .ok_or_else(|| LayoutError::Corrupted("truncated bool".into()))?;
            *pos += 1;
            Ok(FieldRef::Bool(b != 0))
        }
        TAG_STR => {
            let len = read_varint(input, pos)? as usize;
            let end = pos
                .checked_add(len)
                .ok_or_else(|| LayoutError::Corrupted("string length overflows".into()))?;
            let bytes = input
                .get(*pos..end)
                .ok_or_else(|| LayoutError::Corrupted("truncated string".into()))?;
            *pos = end;
            Ok(FieldRef::Str(std::str::from_utf8(bytes).map_err(|_| {
                LayoutError::Corrupted("invalid utf8".into())
            })?))
        }
        TAG_LIST => {
            // Borrow the whole encoded span (tag included); decoded lazily
            // by `to_value` when the row materializes.
            *pos = start;
            skip_value(input, pos)?;
            Ok(FieldRef::List(&input[start..*pos]))
        }
        other => Err(LayoutError::Corrupted(format!("unknown value tag {other}"))),
    }
}

/// Converts a slice of same-typed values into a [`ColumnData`] the
/// compression codecs understand. The column type is inferred from the first
/// non-null value; nulls become zero / empty-string sentinels (the layout
/// engine records nullability separately if it matters).
pub fn values_to_column(values: &[Value]) -> ColumnData {
    let first = values.iter().find(|v| !v.is_null());
    match first {
        Some(Value::Float(_)) => ColumnData::Floats(
            values
                .iter()
                .map(|v| v.as_f64().unwrap_or(0.0))
                .collect(),
        ),
        Some(Value::Str(_)) => ColumnData::Strings(
            values
                .iter()
                .map(|v| v.as_str().unwrap_or("").to_string())
                .collect(),
        ),
        // Ints, timestamps, bools, and all-null columns become integers.
        _ => ColumnData::Ints(values.iter().map(|v| v.as_i64().unwrap_or(0)).collect()),
    }
}

/// Presents element `i` of a decoded [`ColumnData`] as a borrowed
/// [`FieldRef`], using a template value to restore the original value
/// variant (timestamp vs int, etc.) — how a column chunk's rows enter the
/// same borrowed loop as row pages. Panics if `i` is out of bounds; readers
/// check a chunk's column lengths once, when they decode it.
#[inline]
pub(crate) fn column_field<'a>(column: &'a ColumnData, template: &Value, i: usize) -> FieldRef<'a> {
    match column {
        ColumnData::Floats(vs) => FieldRef::Float(vs[i]),
        ColumnData::Strings(vs) => FieldRef::Str(&vs[i]),
        ColumnData::Ints(vs) => match template {
            Value::Timestamp(_) => FieldRef::Timestamp(vs[i]),
            Value::Bool(_) => FieldRef::Bool(vs[i] != 0),
            Value::Float(_) => FieldRef::Float(vs[i] as f64),
            _ => FieldRef::Int(vs[i]),
        },
    }
}

/// A range of a decoded [`ColumnData`] read as numbers: each element's
/// [`FieldRef::as_f64`] through [`column_field`], decided once per range
/// instead of once per element. Integers carry ints, timestamps and
/// integer-coded floats alike; a string column has no numeric reading.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Lane<'a> {
    /// A float column.
    Floats(&'a [f64]),
    /// An integer column read as `i64 as f64`.
    Ints(&'a [i64]),
    /// An integer-coded bool column: nonzero is 1.0, zero 0.0.
    Bools(&'a [i64]),
    /// A string column.
    Text,
}

impl<'a> Lane<'a> {
    /// The lane of elements `range` of `column`, restored by `template` as
    /// [`column_field`] does. Panics if `range` is out of bounds.
    pub(crate) fn of(column: &'a ColumnData, template: &Value, range: Range<usize>) -> Lane<'a> {
        match column {
            ColumnData::Floats(vs) => Lane::Floats(&vs[range]),
            ColumnData::Ints(vs) if matches!(template, Value::Bool(_)) => Lane::Bools(&vs[range]),
            ColumnData::Ints(vs) => Lane::Ints(&vs[range]),
            ColumnData::Strings(_) => Lane::Text,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trip_all_types() {
        let record: Record = vec![
            Value::Int(-42),
            Value::Float(3.25),
            Value::Bool(true),
            Value::Str("boston".into()),
            Value::Timestamp(1_700_000_000),
            Value::Null,
            Value::List(vec![Value::Int(1), Value::Str("x".into())]),
        ];
        let bytes = encode_record(&record);
        assert_eq!(decode_record(&bytes).unwrap(), record);
    }

    #[test]
    fn empty_record_and_empty_string() {
        assert_eq!(decode_record(&encode_record(&vec![])).unwrap(), vec![]);
        let r = vec![Value::Str(String::new())];
        assert_eq!(decode_record(&encode_record(&r)).unwrap(), r);
    }

    #[test]
    fn back_to_back_records_decode_without_framing() {
        let records = vec![
            vec![Value::Int(1), Value::Str("abc".into())],
            vec![],
            vec![
                Value::List(vec![Value::Float(2.5), Value::Null]),
                Value::Bool(true),
            ],
        ];
        let mut stream = Vec::new();
        for record in &records {
            encode_record_into(record, &mut stream);
        }
        let mut at = 0;
        for expected in &records {
            let (record, used) = decode_record_prefix(&stream[at..]).unwrap();
            assert_eq!(&record, expected);
            at += used;
        }
        assert_eq!(at, stream.len());
    }

    #[test]
    fn corrupted_records_are_rejected() {
        let bytes = encode_record(&vec![Value::Int(1), Value::Str("abc".into())]);
        assert!(decode_record(&bytes[..bytes.len() - 2]).is_err());
        assert!(decode_record(&[7, 99]).is_err());
        // A corrupt arity or list length near u64::MAX is an error, not an
        // allocation of that many values.
        let huge = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        assert!(decode_record(&huge).is_err());
        let mut list = vec![1, TAG_LIST];
        list.extend_from_slice(&huge);
        assert!(decode_record(&list).is_err());
    }

    fn column_values(column: &ColumnData, template: &Value) -> Vec<Value> {
        (0..column.len())
            .map(|i| column_field(column, template, i).to_value().unwrap())
            .collect()
    }

    #[test]
    fn column_conversion_round_trips() {
        let floats = vec![Value::Float(1.5), Value::Float(-2.0)];
        let col = values_to_column(&floats);
        assert_eq!(col, ColumnData::Floats(vec![1.5, -2.0]));
        assert_eq!(column_values(&col, &Value::Float(0.0)), floats);

        let ts = vec![Value::Timestamp(10), Value::Timestamp(20)];
        let col = values_to_column(&ts);
        assert_eq!(col, ColumnData::Ints(vec![10, 20]));
        assert_eq!(column_values(&col, &Value::Timestamp(0)), ts);

        let strs = vec![Value::Str("a".into()), Value::Str("b".into())];
        let col = values_to_column(&strs);
        assert_eq!(column_values(&col, &Value::Str(String::new())), strs);
    }

    #[test]
    fn nulls_become_sentinels_in_columns() {
        let vals = vec![Value::Null, Value::Int(5)];
        assert_eq!(values_to_column(&vals), ColumnData::Ints(vec![0, 5]));
    }

    /// Owned values of the borrowed decode of `positions`.
    fn borrowed(bytes: &[u8], positions: &[usize]) -> Result<Record> {
        let mut refs = Vec::new();
        decode_fields_borrowed(bytes, positions, &mut refs)?;
        refs.iter().map(FieldRef::to_value).collect()
    }

    #[test]
    fn borrowed_decode_skips_unwanted_fields() {
        let record: Record = vec![
            Value::Int(7),
            Value::Str("borrowed".into()),
            Value::Float(2.5),
            Value::List(vec![Value::Str("nested".into()), Value::Null]),
            Value::Bool(true),
            Value::Timestamp(99),
            Value::Null,
        ];
        let bytes = encode_record(&record);
        let all: Vec<usize> = (0..record.len()).collect();
        assert_eq!(borrowed(&bytes, &all).unwrap(), record);
        let picked = [1, 3, 5, 6];
        let want: Record = picked.iter().map(|&p| record[p].clone()).collect();
        assert_eq!(borrowed(&bytes, &picked).unwrap(), want);
        // Positions past the arity pad NULL.
        assert_eq!(
            borrowed(&bytes, &[0, 9]).unwrap(),
            vec![Value::Int(7), Value::Null]
        );
        let mut refs = Vec::new();
        decode_fields_borrowed(&bytes, &picked, &mut refs).unwrap();
        assert!(matches!(refs[0], FieldRef::Str("borrowed")));
        // Scratch reuse: a second decode into the same vec works.
        decode_fields_borrowed(&bytes, &[0], &mut refs).unwrap();
        assert_eq!(refs.as_slice(), &[FieldRef::Int(7)]);
    }

    #[test]
    fn borrowed_decode_rejects_truncated_and_short_records() {
        let record: Record = vec![
            Value::Int(7),
            Value::Str("skipped".into()),
            Value::Float(2.5),
        ];
        let bytes = encode_record(&record);
        // A truncated payload is an error even where it is only skipped over.
        let cut = &bytes[..bytes.len() - 1];
        assert!(borrowed(cut, &[2]).is_err());
        assert!(
            borrowed(&bytes[..12], &[0, 2]).is_err(),
            "truncated inside a skipped string"
        );
        // A record whose arity claims more fields than its bytes hold.
        let mut short = bytes.clone();
        short[0] = 4;
        assert!(borrowed(&short, &[3]).is_err());
    }

    #[test]
    fn absurd_skip_lengths_are_rejected_not_wrapped() {
        // A record claiming one string whose length varint decodes to
        // u64::MAX-ish: decoding or skipping it must report corruption, not
        // overflow `pos`.
        let mut absurd = vec![1, TAG_STR];
        absurd.extend_from_slice(&[0xFF; 9]);
        absurd.push(0x7F);
        assert!(borrowed(&absurd, &[0]).is_err());
        absurd[0] = 2;
        assert!(
            borrowed(&absurd, &[1]).is_err(),
            "skipping the string fails too"
        );
        // The same for a list whose item count is absurd.
        let mut list = vec![2, TAG_LIST];
        list.extend_from_slice(&[0xFF; 9]);
        list.push(0x7F);
        assert!(borrowed(&list, &[0]).is_err());
        assert!(borrowed(&list, &[1]).is_err());
    }

    #[test]
    fn subset_decoding_skips_unneeded_fields() {
        let record: Record = vec![
            Value::Int(7),
            Value::Str("skipped".into()),
            Value::Float(2.5),
            Value::List(vec![Value::Str("nested".into()), Value::Null]),
            Value::Bool(true),
        ];
        let bytes = encode_record(&record);
        assert_eq!(
            borrowed(&bytes, &[0, 2, 4]).unwrap(),
            vec![Value::Int(7), Value::Float(2.5), Value::Bool(true)]
        );
        // Decoding stops after the last wanted position: bytes past it are
        // never walked, so a record cut inside its tail still yields the
        // wanted prefix...
        let int_and_string = 1 + 9 + 1 + 1 + "skipped".len();
        let prefix = &bytes[..int_and_string];
        assert_eq!(
            borrowed(prefix, &[1]).unwrap(),
            vec![Value::Str("skipped".into())]
        );
        // ...while a wanted field behind the cut is corruption.
        assert!(borrowed(prefix, &[2]).is_err());
        // Every position decodes to exactly what the full decoder returns.
        let all: Vec<usize> = (0..record.len()).collect();
        assert_eq!(borrowed(&bytes, &all).unwrap(), decode_record(&bytes).unwrap());
    }

    #[test]
    fn borrowed_compare_matches_owned_compare() {
        let fields: Record = vec![
            Value::Null,
            Value::Int(-3),
            Value::Float(2.5),
            Value::Bool(true),
            Value::Str("mouse".into()),
            Value::Timestamp(42),
            Value::List(vec![Value::Int(1)]),
        ];
        let bytes = encode_record(&fields);
        let positions: Vec<usize> = (0..fields.len()).collect();
        let mut refs = Vec::new();
        decode_fields_borrowed(&bytes, &positions, &mut refs).unwrap();
        let literals: Vec<Value> = fields
            .iter()
            .cloned()
            .chain([
                Value::Int(0),
                Value::Float(-1.0),
                Value::Str("rat".into()),
                Value::Bool(false),
                Value::Timestamp(1),
                Value::List(vec![]),
            ])
            .collect();
        for (r, v) in refs.iter().zip(fields.iter()) {
            for lit in &literals {
                assert_eq!(
                    r.compare_value(lit).unwrap(),
                    v.compare(lit),
                    "FieldRef({v:?}) vs {lit:?}"
                );
            }
        }
    }

    #[test]
    fn fixed_plan_decodes_matching_shapes_and_rejects_deviants() {
        let templates = vec![
            Value::Timestamp(0),
            Value::Float(0.0),
            Value::Float(0.0),
            Value::Str(String::new()),
        ];
        let record: Record = vec![
            Value::Timestamp(77),
            Value::Float(1.5),
            Value::Float(-2.0),
            Value::Str("v-12".into()),
        ];
        let bytes = encode_record(&record);
        let mut refs = Vec::new();

        let plan = FixedRowPlan::compile(&templates, &[1]).unwrap();
        assert!(plan.decode_borrowed(&bytes, &mut refs).unwrap());
        assert_eq!(refs.as_slice(), &[FieldRef::Float(1.5)]);

        // A NULL where the plan expects a timestamp shifts every offset: the
        // plan must refuse so the generic walk decodes the record instead.
        let deviant = encode_record(&vec![
            Value::Null,
            Value::Float(1.5),
            Value::Float(-2.0),
            Value::Str("v-12".into()),
        ]);
        assert!(!plan.decode_borrowed(&deviant, &mut refs).unwrap());
        decode_fields_borrowed(&deviant, &[1], &mut refs).unwrap();
        assert_eq!(refs.as_slice(), &[FieldRef::Float(1.5)]);

        // Wrong arity is rejected on the count byte.
        let short = encode_record(&vec![Value::Timestamp(0), Value::Float(0.0)]);
        assert!(!plan.decode_borrowed(&short, &mut refs).unwrap());

        // A trailing wanted string decodes through its varint length.
        let plan = FixedRowPlan::compile(&templates, &[0, 3]).unwrap();
        assert!(plan.decode_borrowed(&bytes, &mut refs).unwrap());
        assert_eq!(
            refs.as_slice(),
            &[FieldRef::Timestamp(77), FieldRef::Str("v-12")]
        );

        // A NULL at the last wanted position is fine — it self-describes.
        let null_tail = encode_record(&vec![
            Value::Timestamp(77),
            Value::Float(1.5),
            Value::Float(-2.0),
            Value::Null,
        ]);
        assert!(plan.decode_borrowed(&null_tail, &mut refs).unwrap());
        assert_eq!(refs.as_slice(), &[FieldRef::Timestamp(77), FieldRef::Null]);
    }

    #[test]
    fn fixed_plan_compile_rejects_unsupported_shapes() {
        let templates = vec![Value::Str(String::new()), Value::Int(0)];
        // A variable-width field before the last wanted position...
        assert!(FixedRowPlan::compile(&templates, &[1]).is_none());
        // ...but a wanted prefix ending before it compiles fine.
        assert!(FixedRowPlan::compile(&templates, &[0]).is_some());
        // Past-arity positions pad NULL in the generic path only.
        assert!(FixedRowPlan::compile(&templates, &[5]).is_none());
        assert!(FixedRowPlan::compile(&templates, &[]).is_none());
        // Arity ≥ 128 needs a multi-byte count varint.
        let wide = vec![Value::Int(0); 130];
        assert!(FixedRowPlan::compile(&wide, &[0]).is_none());
    }

    #[test]
    fn record_encoding_is_compact_for_numbers() {
        let record: Record = vec![Value::Int(1), Value::Float(2.0), Value::Timestamp(3)];
        let bytes = encode_record(&record);
        // 1 count byte + 3 × (1 tag + 8 payload)
        assert_eq!(bytes.len(), 1 + 3 * 9);
    }
}
