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

use crate::rowcodec::FieldRef;
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
    fn merge(&mut self, o: Acc) {
        self.count += o.count;
        self.sum += o.sum;
        self.min = self.min.min(o.min);
        self.max = self.max.max(o.max);
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
        let key = (bucket / self.width).floor() as i64;
        self.rows_folded += 1;
        let one = Acc {
            count: 1,
            sum: value,
            min: value,
            max: value,
        };
        let slot = match self.last {
            Some((k, slot)) if k == key => slot,
            _ => {
                let (slot, fresh) = self.slot(key, one);
                self.last = Some((key, slot));
                if fresh {
                    return;
                }
                slot
            }
        };
        self.accs[slot].merge(one);
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

    /// Merges another accumulator (built from the same spec) into this one.
    /// Used to combine per-object partial folds from the in-cursor fast path.
    pub fn absorb(&mut self, other: WindowAccumulator) {
        self.rows_folded += other.rows_folded;
        for (key, slot) in other.index {
            let o = other.accs[slot];
            let (slot, fresh) = self.slot(key, o);
            if !fresh {
                self.accs[slot].merge(o);
            }
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

    #[test]
    fn invalid_widths_are_rejected() {
        assert!(WindowedAggregate::new("t", 0.0, "v").validate().is_err());
        assert!(WindowedAggregate::new("t", -1.0, "v").validate().is_err());
        assert!(WindowedAggregate::new("t", f64::NAN, "v").validate().is_err());
        assert!(spec().validate().is_ok());
    }
}
