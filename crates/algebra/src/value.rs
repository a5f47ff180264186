//! Runtime values and records.
//!
//! A [`Value`] is a single element manipulated by the storage algebra; a
//! [`Record`] is an ordered collection of values conforming to a
//! [`crate::Schema`]. Values form a total order ([`Ord`]: numeric types
//! promote to `f64` for mixed comparisons, `Null` sorts first, NaN after
//! every number) so they can be used as sort and grouping keys throughout
//! the system; predicates compare with [`Value::compare`], under which NaN
//! lies inside every range.

use crate::types::DataType;
use crate::{AlgebraError, Result};
use std::cmp::Ordering;
use std::fmt;

/// A single storage-algebra value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent value. Sorts before every other value.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit floating point.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// UTF-8 string.
    Str(String),
    /// Timestamp in microseconds since the Unix epoch.
    Timestamp(i64),
    /// A nested list of values (the runtime counterpart of the `[τ…]` type).
    List(Vec<Value>),
}

impl Value {
    /// Returns the [`DataType`] this value naturally carries.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::String,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Bool(_) => DataType::Bool,
            Value::Str(_) => DataType::String,
            Value::Timestamp(_) => DataType::Timestamp,
            Value::List(items) => DataType::List(items.iter().map(Value::data_type).collect()),
        }
    }

    /// Returns `true` if the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interprets the value as `f64` where possible (numeric promotion).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Timestamp(v) => Some(*v as f64),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Interprets the value as `i64` where possible. Floats are truncated.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Float(v) => Some(*v as i64),
            Value::Timestamp(v) => Some(*v),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Interprets the value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Interprets the value as a nested list.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// Approximate serialized size in bytes; used by the cost model and by
    /// dense-packing heuristics in the layout renderers.
    pub fn estimated_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) | Value::Float(_) | Value::Timestamp(_) => 8,
            Value::Bool(_) => 1,
            Value::Str(s) => 4 + s.len(),
            Value::List(items) => 4 + items.iter().map(Value::estimated_size).sum::<usize>(),
        }
    }

    /// The predicate comparison. `Null` sorts first; numeric types are
    /// mutually comparable; otherwise values are ordered by a fixed type rank
    /// and then by their natural ordering. A NaN compares equal to every
    /// number, so it lies inside every range; sorting uses [`Ord`], which
    /// puts NaN after every number instead.
    pub fn compare(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (List(a), List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let ord = x.compare(y);
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                a.len().cmp(&b.len())
            }
            // Mixed numerics promote to f64.
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
                _ => a.type_rank().cmp(&b.type_rank()),
            },
        }
    }

    /// Arithmetic subtraction used by the `delta` transform. Errors if either
    /// operand is not numeric.
    pub fn sub(&self, other: &Value) -> Result<Value> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a - b)),
            (Value::Timestamp(a), Value::Timestamp(b)) => Ok(Value::Int(a - b)),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => Ok(Value::Float(a - b)),
                _ => Err(AlgebraError::TypeMismatch {
                    expected: "numeric".into(),
                    found: format!("{} - {}", self.data_type(), other.data_type()),
                }),
            },
        }
    }

    /// Arithmetic addition, the inverse of [`Value::sub`]; used to reverse
    /// delta compression.
    pub fn add(&self, other: &Value) -> Result<Value> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a + b)),
            (Value::Timestamp(a), Value::Int(b)) => Ok(Value::Timestamp(a + b)),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => Ok(Value::Float(a + b)),
                _ => Err(AlgebraError::TypeMismatch {
                    expected: "numeric".into(),
                    found: format!("{} + {}", self.data_type(), other.data_type()),
                }),
            },
        }
    }

    fn is_nan(&self) -> bool {
        matches!(self, Value::Float(v) if v.is_nan())
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Timestamp(_) => 4,
            Value::Str(_) => 5,
            Value::List(_) => 6,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The sort order: [`Value::compare`], except that a NaN sorts after every
/// number and equal to another NaN, so the order is total.
impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::List(a), Value::List(b)) => a.cmp(b),
            _ => match (self.is_nan(), other.is_nan()) {
                (true, true) => Ordering::Equal,
                (true, false) if other.as_f64().is_some() => Ordering::Greater,
                (false, true) if self.as_f64().is_some() => Ordering::Less,
                _ => self.compare(other),
            },
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "\"{v}\""),
            Value::Timestamp(v) => write!(f, "@{v}"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::List(v)
    }
}

/// A record (tuple): an ordered list of values conforming to a schema.
pub type Record = Vec<Value>;

/// Builds a record from anything convertible into values.
///
/// ```
/// use rodentstore_algebra::value::record;
/// let r = record([1i64.into(), "boston".into()]);
/// assert_eq!(r.len(), 2);
/// ```
pub fn record(values: impl IntoIterator<Item = Value>) -> Record {
    values.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sorts_first() {
        let mut vals = [Value::Int(3), Value::Null, Value::Int(-1)];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Int(-1));
    }

    #[test]
    fn mixed_numeric_comparison_promotes() {
        assert_eq!(Value::Int(2).compare(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Float(3.0).compare(&Value::Int(3)), Ordering::Equal);
        assert_eq!(
            Value::Timestamp(10).compare(&Value::Int(5)),
            Ordering::Greater
        );
    }

    #[test]
    fn nan_sorts_after_every_number_but_matches_every_range() {
        let nan = Value::Float(f64::NAN);
        let mut vals = [
            Value::Float(2.5),
            nan.clone(),
            Value::Int(7),
            Value::Null,
            nan.clone(),
            Value::Float(f64::INFINITY),
            Value::Int(-1),
            Value::Str("a".into()),
        ];
        vals.sort();
        let shown: Vec<String> = vals.iter().map(Value::to_string).collect();
        assert_eq!(shown, ["null", "-1", "2.5", "7", "inf", "NaN", "NaN", "\"a\""]);
        assert_eq!(nan.cmp(&Value::Float(f64::NAN)), Ordering::Equal);
        assert_eq!(
            Value::List(vec![nan.clone()]).cmp(&Value::List(vec![Value::Int(1)])),
            Ordering::Greater
        );
        // Predicates keep the old rule: NaN is inside every range.
        assert_eq!(nan.compare(&Value::Int(1)), Ordering::Equal);
    }

    #[test]
    fn list_comparison_is_lexicographic() {
        let a = Value::List(vec![Value::Int(1), Value::Int(2)]);
        let b = Value::List(vec![Value::Int(1), Value::Int(3)]);
        let c = Value::List(vec![Value::Int(1)]);
        assert_eq!(a.compare(&b), Ordering::Less);
        assert_eq!(a.compare(&c), Ordering::Greater);
    }

    #[test]
    fn arithmetic_for_delta_round_trips() {
        let a = Value::Float(42.33);
        let b = Value::Float(42.30);
        let d = a.sub(&b).unwrap();
        let back = b.add(&d).unwrap();
        assert!((back.as_f64().unwrap() - 42.33).abs() < 1e-9);

        let x = Value::Int(100);
        let y = Value::Int(93);
        assert_eq!(x.sub(&y).unwrap(), Value::Int(7));
        assert_eq!(y.add(&Value::Int(7)).unwrap(), Value::Int(100));
    }

    #[test]
    fn arithmetic_rejects_strings() {
        let err = Value::Str("a".into()).sub(&Value::Int(1)).unwrap_err();
        assert!(matches!(err, AlgebraError::TypeMismatch { .. }));
    }

    #[test]
    fn estimated_sizes() {
        assert_eq!(Value::Int(7).estimated_size(), 8);
        assert_eq!(Value::Str("abcd".into()).estimated_size(), 8);
        let nested = Value::List(vec![Value::Int(1), Value::Bool(true)]);
        assert_eq!(nested.estimated_size(), 4 + 8 + 1);
    }

    #[test]
    fn display_nested() {
        let v = Value::List(vec![Value::Int(1), Value::Str("x".into())]);
        assert_eq!(v.to_string(), "[1, \"x\"]");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
        assert_eq!(
            Value::from(vec![Value::Int(1)]),
            Value::List(vec![Value::Int(1)])
        );
    }
}
