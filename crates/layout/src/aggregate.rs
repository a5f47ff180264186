//! Windowed-aggregate pushdown.
//!
//! A [`WindowedAggregate`] asks for `count/sum/min/max` of a scalar field
//! grouped by fixed-width buckets of another scalar field (typically a time
//! column) — the telemetry staple `GROUP BY time_bucket(ts)`. The fold runs
//! *inside* the scan iterator ([`crate::ScanIter::fold_windowed`]), so
//! aggregation reads exactly the pages a raw scan would read while
//! materializing zero result rows: on the borrowed-frame row path the per-row
//! values never even become owned [`Value`]s.
//!
//! Rows whose bucket or value field has no numeric interpretation
//! ([`Value::as_f64`] returns `None` — strings, lists, nulls) are ignored by
//! the fold; the accumulator's [`WindowAccumulator::rows_folded`] counts only
//! contributing rows and feeds the `scan.agg_rows_folded` metric.
//!
//! Column chunks fold without a per-row [`FieldRef`]: each of the two
//! columns is read once per chunk as a typed `Lane` — floats, integers
//! (ints, timestamps, integer-coded floats) or bools as 0/1; a string lane
//! folds nothing — and [`WindowAccumulator::fold_pairs`] runs one
//! monomorphic loop per lane pairing, keeping the current bucket's
//! accumulator in locals until the key changes. Every path performs the same
//! float operations in the same row order, so sums agree bit for bit.
//!
//! The bucket key is `floor(bucket / width)` as an `i64`, computed by
//! `bucket_key` from a truncating conversion and one compare instead of
//! `f64::floor`: without SSE4.1 that is a call into libm on every row.

use crate::rowcodec::{FieldRef, Lane};
use crate::{LayoutError, Result};
use rodentstore_algebra::value::Value;
use std::collections::BTreeMap;

/// A request to fold a scan into fixed-width buckets: group rows by
/// `floor(bucket_field / bucket_width)` and aggregate `value_field` within
/// each bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedAggregate {
    /// Field whose numeric value selects the bucket (e.g. a timestamp).
    pub bucket_field: String,
    /// Bucket width in the bucket field's units; must be positive and finite.
    pub bucket_width: f64,
    /// Field aggregated within each bucket.
    pub value_field: String,
}

impl WindowedAggregate {
    /// Builds a windowed-aggregate request.
    pub fn new(
        bucket_field: impl Into<String>,
        bucket_width: f64,
        value_field: impl Into<String>,
    ) -> WindowedAggregate {
        WindowedAggregate {
            bucket_field: bucket_field.into(),
            bucket_width,
            value_field: value_field.into(),
        }
    }

    /// Rejects non-positive or non-finite bucket widths.
    pub fn validate(&self) -> Result<()> {
        if !(self.bucket_width.is_finite() && self.bucket_width > 0.0) {
            return Err(LayoutError::Unsupported(format!(
                "windowed aggregate requires a positive finite bucket width, got {}",
                self.bucket_width
            )));
        }
        Ok(())
    }
}

/// One output bucket of a windowed aggregate, sorted ascending by
/// `bucket_start`.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRow {
    /// Inclusive lower edge of the bucket (`bucket_index * bucket_width`).
    pub bucket_start: f64,
    /// Rows folded into this bucket.
    pub count: u64,
    /// Sum of the value field.
    pub sum: f64,
    /// Minimum of the value field.
    pub min: f64,
    /// Maximum of the value field.
    pub max: f64,
}

#[derive(Debug, Clone, Copy)]
struct Acc {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Acc {
    fn of(value: f64) -> Acc {
        Acc {
            count: 1,
            sum: value,
            min: value,
            max: value,
        }
    }

    #[inline]
    fn add(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }
}

/// `q.floor() as i64` for every `f64` — NaN is 0, and values past the `i64`
/// range saturate — without calling `floor`: the conversion truncates toward
/// zero (saturating), and only a truncation that rounded a negative value up
/// needs one step down.
#[inline]
fn bucket_key(q: f64) -> i64 {
    let k = q as i64;
    if (k as f64) > q {
        k.saturating_sub(1)
    } else {
        k
    }
}

/// 1.0 for a true bool lane element, 0.0 for false, as [`Value::as_f64`].
fn bool_f64(x: i64) -> f64 {
    if x != 0 {
        1.0
    } else {
        0.0
    }
}

/// Streaming accumulator for a windowed aggregate. Buckets are indexed by a
/// `BTreeMap`, so [`WindowAccumulator::finish`] emits them already sorted;
/// the accumulators themselves sit in a vector so the bucket of the previous
/// row is reachable without a lookup — a run of rows in one bucket (the norm
/// when the bucket field is the storage order) costs no map access at all.
#[derive(Debug)]
pub struct WindowAccumulator {
    width: f64,
    index: BTreeMap<i64, usize>,
    accs: Vec<Acc>,
    /// Key and slot of the most recently folded bucket.
    last: Option<(i64, usize)>,
    rows_folded: u64,
}

impl WindowAccumulator {
    /// Creates an empty accumulator for `spec` (which must be validated).
    pub fn new(spec: &WindowedAggregate) -> WindowAccumulator {
        WindowAccumulator {
            width: spec.bucket_width,
            index: BTreeMap::new(),
            accs: Vec::new(),
            last: None,
            rows_folded: 0,
        }
    }

    /// The accumulator slot of bucket `key`, created from `seed` if new.
    fn slot(&mut self, key: i64, seed: Acc) -> (usize, bool) {
        let next = self.accs.len();
        let slot = *self.index.entry(key).or_insert(next);
        if slot == next {
            self.accs.push(seed);
        }
        (slot, slot == next)
    }

    /// Folds one `(bucket, value)` pair of raw numerics.
    #[inline]
    pub fn fold(&mut self, bucket: f64, value: f64) {
        self.fold_pairs([(bucket, value)]);
    }

    /// Folds `(bucket, value)` pairs in order. The current bucket's
    /// accumulator stays in locals and is written back only when the key
    /// changes, so a run of rows in one bucket touches neither the map nor
    /// the vector.
    #[inline]
    pub fn fold_pairs(&mut self, pairs: impl IntoIterator<Item = (f64, f64)>) {
        let width = self.width;
        let mut pairs = pairs.into_iter();
        let (mut key, mut slot) = match self.last {
            Some(last) => last,
            None => {
                let Some((bucket, value)) = pairs.next() else {
                    return;
                };
                let key = bucket_key(bucket / width);
                self.rows_folded += 1;
                (key, self.slot(key, Acc::of(value)).0)
            }
        };
        let mut acc = self.accs[slot];
        let mut folded = 0u64;
        for (bucket, value) in pairs {
            let k = bucket_key(bucket / width);
            folded += 1;
            if k != key {
                self.accs[slot] = acc;
                let (s, fresh) = self.slot(k, Acc::of(value));
                (key, slot, acc) = (k, s, self.accs[s]);
                if fresh {
                    continue;
                }
            }
            acc.add(value);
        }
        self.accs[slot] = acc;
        self.last = Some((key, slot));
        self.rows_folded += folded;
    }

    /// Folds rows `sel` (offsets into both lanes, ascending) of a column
    /// chunk's bucket and value lanes. A `sel` as long as the lanes is the
    /// whole range, folded straight over the slices.
    pub(crate) fn fold_lanes(&mut self, bucket: Lane<'_>, value: Lane<'_>, sel: &[u32]) {
        match bucket {
            Lane::Floats(b) => self.fold_bucket_lane(b, |x| x, value, sel),
            Lane::Ints(b) => self.fold_bucket_lane(b, |x| x as f64, value, sel),
            Lane::Bools(b) => self.fold_bucket_lane(b, bool_f64, value, sel),
            Lane::Text => {}
        }
    }

    fn fold_bucket_lane<B: Copy>(
        &mut self,
        b: &[B],
        fb: impl Fn(B) -> f64,
        value: Lane<'_>,
        sel: &[u32],
    ) {
        match value {
            Lane::Floats(v) => self.fold_slices(b, fb, v, |x| x, sel),
            Lane::Ints(v) => self.fold_slices(b, fb, v, |x| x as f64, sel),
            Lane::Bools(v) => self.fold_slices(b, fb, v, bool_f64, sel),
            Lane::Text => {}
        }
    }

    /// The kernel: one loop per lane pairing.
    fn fold_slices<B: Copy, V: Copy>(
        &mut self,
        b: &[B],
        fb: impl Fn(B) -> f64,
        v: &[V],
        fv: impl Fn(V) -> f64,
        sel: &[u32],
    ) {
        if sel.len() == b.len() {
            self.fold_pairs(b.iter().zip(v).map(|(&b, &v)| (fb(b), fv(v))));
        } else {
            self.fold_pairs(sel.iter().map(|&i| (fb(b[i as usize]), fv(v[i as usize]))));
        }
    }

    /// Folds one row given as owned values; non-numeric pairs are ignored.
    pub fn fold_values(&mut self, bucket: &Value, value: &Value) {
        if let (Some(b), Some(v)) = (bucket.as_f64(), value.as_f64()) {
            self.fold(b, v);
        }
    }

    /// Folds one row given as borrowed field references; non-numeric pairs
    /// are ignored. This is the zero-materialization path: no owned `Value`
    /// is ever constructed.
    pub fn fold_refs(&mut self, bucket: &FieldRef<'_>, value: &FieldRef<'_>) {
        if let (Some(b), Some(v)) = (bucket.as_f64(), value.as_f64()) {
            self.fold(b, v);
        }
    }

    /// Rows that contributed to a bucket so far.
    pub fn rows_folded(&self) -> u64 {
        self.rows_folded
    }

    /// Emits the buckets sorted ascending by their lower edge.
    pub fn finish(&self) -> Vec<WindowRow> {
        self.index
            .iter()
            .map(|(key, &slot)| {
                let acc = self.accs[slot];
                WindowRow {
                    bucket_start: *key as f64 * self.width,
                    count: acc.count,
                    sum: acc.sum,
                    min: acc.min,
                    max: acc.max,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WindowedAggregate {
        WindowedAggregate::new("ts", 10.0, "value")
    }

    #[test]
    fn buckets_fold_and_sort() {
        let mut acc = WindowAccumulator::new(&spec());
        acc.fold(25.0, 2.0);
        acc.fold(3.0, -1.0);
        acc.fold(27.5, 4.0);
        acc.fold(-0.5, 9.0); // negative bucket edge: floor(-0.05) = -1
        let rows = acc.finish();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].bucket_start, -10.0);
        assert_eq!(rows[1].bucket_start, 0.0);
        assert_eq!(rows[2].bucket_start, 20.0);
        assert_eq!(rows[2].count, 2);
        assert_eq!(rows[2].sum, 6.0);
        assert_eq!(rows[2].min, 2.0);
        assert_eq!(rows[2].max, 4.0);
        assert_eq!(acc.rows_folded(), 4);
    }

    #[test]
    fn non_numeric_rows_are_ignored() {
        let mut acc = WindowAccumulator::new(&spec());
        acc.fold_values(&Value::Int(5), &Value::Str("nope".into()));
        acc.fold_values(&Value::Null, &Value::Float(1.0));
        acc.fold_values(&Value::Int(5), &Value::Bool(true));
        assert_eq!(acc.rows_folded(), 1);
        assert_eq!(acc.finish()[0].sum, 1.0);
    }

    #[test]
    fn borrowed_and_owned_folds_agree() {
        let mut owned = WindowAccumulator::new(&spec());
        let mut borrowed = WindowAccumulator::new(&spec());
        owned.fold_values(&Value::Timestamp(15), &Value::Float(2.5));
        borrowed.fold_refs(&FieldRef::Timestamp(15), &FieldRef::Float(2.5));
        assert_eq!(owned.finish(), borrowed.finish());
    }

    /// The libm-free key is `floor` on every class of `f64`: signed zeros,
    /// halves, subnormals, the edges of exact integers (2^52, 2^53) and of
    /// `i64` (2^63) and past them, infinities and NaN — then on a seeded
    /// sweep of `bucket / width` quotients, raw bit patterns included.
    #[test]
    fn bucket_key_equals_floor_on_every_class_of_value() {
        let floor = |q: f64| q.floor() as i64;
        let step = |x: f64, by: i64| f64::from_bits((x.to_bits() as i64 + by) as u64);
        let mut qs = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            -1.5,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            step(f64::MIN_POSITIVE, -1),
            -step(f64::MIN_POSITIVE, -1),
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for e in [52, 53, 62, 63, 64, 100, 1000] {
            let edge = 2f64.powi(e);
            for q in [step(edge, -1), edge, step(edge, 1)] {
                qs.extend([q, -q, q + 0.5, -q - 0.5]);
            }
        }
        for &q in &qs {
            assert_eq!(bucket_key(q), floor(q), "q = {q:e}");
        }
        // splitmix64, seeded: no dependency, same stream on every run.
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..100_000 {
            let (b, w) = match next() % 3 {
                // Any bit pattern over any positive finite width.
                0 => (f64::from_bits(next()), f64::from_bits(next() >> 2)),
                // Timestamps-and-windows scale, both signs.
                1 => (
                    (next() as i64 >> 20) as f64 * 0.001,
                    (next() % 100_000 + 1) as f64 * 0.01,
                ),
                _ => (f64::from_bits(next()), (next() % 1000 + 1) as f64),
            };
            if !(w.is_finite() && w > 0.0) {
                continue;
            }
            let q = b / w;
            assert_eq!(bucket_key(q), floor(q), "{b:e} / {w:e}");
            let mut acc = WindowAccumulator::new(&WindowedAggregate::new("b", w, "v"));
            acc.fold(b, 1.0);
            assert_eq!(acc.finish()[0].bucket_start, floor(q) as f64 * w);
        }
    }

    #[test]
    fn invalid_widths_are_rejected() {
        assert!(WindowedAggregate::new("t", 0.0, "v").validate().is_err());
        assert!(WindowedAggregate::new("t", -1.0, "v").validate().is_err());
        assert!(WindowedAggregate::new("t", f64::NAN, "v").validate().is_err());
        assert!(spec().validate().is_ok());
    }
}
