//! List comprehensions and the small expression language used inside them.
//!
//! The storage algebra defines nestings through list comprehensions of the
//! generic form `e(v) | \v ← N, C` where `\v ← N` is a *generator* binding a
//! variable to successive elements of an existing nesting, `C` is a set of
//! *conditions* and *clauses* (`limit`, `orderby`, `groupby`, `partitionby`),
//! and `e` describes the elements of the resulting nesting.
//!
//! The same expression language ([`ElemExpr`]) and condition language
//! ([`Condition`]) are reused by `select` predicates throughout the system,
//! so evaluation helpers over records are provided here.

use crate::expr::{sort_by_positions, SortKey, SortOrder};
use crate::schema::Schema;
use crate::value::{Record, Value};
use crate::{AlgebraError, Result};
use std::cmp::Ordering;
use std::fmt;

/// Comparison operators usable in conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Applies the operator to an ordering result.
    pub fn matches(&self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Element expressions: the right-hand side of comprehension heads and the
/// operands of conditions.
#[derive(Debug, Clone, PartialEq)]
pub enum ElemExpr {
    /// A literal value.
    Literal(Value),
    /// A field of the record bound by the (single, implicit) generator
    /// variable, e.g. `r.Zip`.
    Field(String),
    /// The position of the current element within its nesting, `pos()`.
    Pos,
    /// The number of elements in the input nesting, `count()`.
    Count,
    /// Binary representation of a numeric expression, `bin(e)` — evaluates
    /// to the integer value itself; the bit view is taken by `interleave`.
    Bin(Box<ElemExpr>),
    /// Bit interleaving of two or more expressions (used to express
    /// z-ordering), `interleave(a, b, …)`.
    Interleave(Vec<ElemExpr>),
    /// Subtraction, used by the delta transform definition.
    Sub(Box<ElemExpr>, Box<ElemExpr>),
    /// Addition.
    Add(Box<ElemExpr>, Box<ElemExpr>),
}

impl ElemExpr {
    /// Shorthand for a field reference.
    pub fn field(name: impl Into<String>) -> ElemExpr {
        ElemExpr::Field(name.into())
    }

    /// Shorthand for a literal.
    pub fn lit(value: impl Into<Value>) -> ElemExpr {
        ElemExpr::Literal(value.into())
    }

    /// All field names referenced by this expression.
    pub fn referenced_fields(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_fields(&mut out);
        out
    }

    fn collect_fields(&self, out: &mut Vec<String>) {
        match self {
            ElemExpr::Field(name) => {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
            ElemExpr::Bin(inner) => inner.collect_fields(out),
            ElemExpr::Interleave(items) => {
                for item in items {
                    item.collect_fields(out);
                }
            }
            ElemExpr::Sub(a, b) | ElemExpr::Add(a, b) => {
                a.collect_fields(out);
                b.collect_fields(out);
            }
            ElemExpr::Literal(_) | ElemExpr::Pos | ElemExpr::Count => {}
        }
    }

    /// Evaluates the expression against a record. `pos` is the index of the
    /// record within its nesting and `count` the total number of records.
    pub fn eval(
        &self,
        schema: &Schema,
        record: &Record,
        pos: usize,
        count: usize,
    ) -> Result<Value> {
        match self {
            ElemExpr::Literal(v) => Ok(v.clone()),
            ElemExpr::Field(name) => {
                let idx = schema.index_of(name)?;
                Ok(record[idx].clone())
            }
            ElemExpr::Pos => Ok(Value::Int(pos as i64)),
            ElemExpr::Count => Ok(Value::Int(count as i64)),
            ElemExpr::Bin(inner) => {
                let v = inner.eval(schema, record, pos, count)?;
                let i = v.as_i64().ok_or_else(|| AlgebraError::TypeMismatch {
                    expected: "integer for bin()".into(),
                    found: v.data_type().to_string(),
                })?;
                Ok(Value::Int(i))
            }
            ElemExpr::Interleave(items) => {
                let mut parts = Vec::with_capacity(items.len());
                for item in items {
                    let v = item.eval(schema, record, pos, count)?;
                    let i = v.as_i64().ok_or_else(|| AlgebraError::TypeMismatch {
                        expected: "integer for interleave()".into(),
                        found: v.data_type().to_string(),
                    })?;
                    parts.push(i.unsigned_abs() as u32);
                }
                Ok(Value::Int(interleave_bits(&parts) as i64))
            }
            ElemExpr::Sub(a, b) => {
                let av = a.eval(schema, record, pos, count)?;
                let bv = b.eval(schema, record, pos, count)?;
                av.sub(&bv)
            }
            ElemExpr::Add(a, b) => {
                let av = a.eval(schema, record, pos, count)?;
                let bv = b.eval(schema, record, pos, count)?;
                av.add(&bv)
            }
        }
    }
}

/// Interleaves the bits of several non-negative integers, producing a Morton
/// (Z-order) code. Bit `k` of input `i` lands at position `k * n + i` of the
/// output, matching the paper's `interleave(bin(pos(r)), bin(pos(r')))`.
pub fn interleave_bits(parts: &[u32]) -> u64 {
    let n = parts.len();
    if n == 0 {
        return 0;
    }
    let mut out: u64 = 0;
    let bits_per_part = (64 / n).min(32);
    for bit in 0..bits_per_part {
        for (i, &p) in parts.iter().enumerate() {
            let b = ((p >> bit) & 1) as u64;
            out |= b << (bit * n + i);
        }
    }
    out
}

/// A boolean condition over a record.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// Always true.
    True,
    /// A comparison between two element expressions.
    Cmp {
        /// Left operand.
        left: ElemExpr,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        right: ElemExpr,
    },
    /// A closed numeric range over a field (`lo <= field <= hi`). This is the
    /// common spatial/temporal predicate shape and is recognized specially by
    /// the access methods so they can prune grid cells and index ranges.
    Range {
        /// Field being constrained.
        field: String,
        /// Inclusive lower bound.
        lo: Value,
        /// Inclusive upper bound.
        hi: Value,
    },
    /// Conjunction.
    And(Vec<Condition>),
    /// Disjunction.
    Or(Vec<Condition>),
    /// Negation.
    Not(Box<Condition>),
}

impl Condition {
    /// Equality on a field: `field = value`.
    pub fn eq(field: impl Into<String>, value: impl Into<Value>) -> Condition {
        Condition::Cmp {
            left: ElemExpr::field(field),
            op: CmpOp::Eq,
            right: ElemExpr::lit(value),
        }
    }

    /// Closed range on a field.
    pub fn range(
        field: impl Into<String>,
        lo: impl Into<Value>,
        hi: impl Into<Value>,
    ) -> Condition {
        Condition::Range {
            field: field.into(),
            lo: lo.into(),
            hi: hi.into(),
        }
    }

    /// Conjunction of two conditions.
    pub fn and(self, other: Condition) -> Condition {
        match (self, other) {
            (Condition::And(mut a), Condition::And(b)) => {
                a.extend(b);
                Condition::And(a)
            }
            (Condition::And(mut a), b) => {
                a.push(b);
                Condition::And(a)
            }
            (a, Condition::And(mut b)) => {
                b.insert(0, a);
                Condition::And(b)
            }
            (a, b) => Condition::And(vec![a, b]),
        }
    }

    /// Evaluates the condition against a record.
    pub fn eval(&self, schema: &Schema, record: &Record) -> Result<bool> {
        self.eval_at(schema, record, 0, 0)
    }

    /// Evaluates with positional context (for conditions using `pos()` /
    /// `count()`).
    pub fn eval_at(
        &self,
        schema: &Schema,
        record: &Record,
        pos: usize,
        count: usize,
    ) -> Result<bool> {
        match self {
            Condition::True => Ok(true),
            Condition::Cmp { left, op, right } => {
                let l = left.eval(schema, record, pos, count)?;
                let r = right.eval(schema, record, pos, count)?;
                Ok(op.matches(l.compare(&r)))
            }
            Condition::Range { field, lo, hi } => {
                let idx = schema.index_of(field)?;
                let v = &record[idx];
                Ok(v.compare(lo) != Ordering::Less && v.compare(hi) != Ordering::Greater)
            }
            Condition::And(items) => {
                for c in items {
                    if !c.eval_at(schema, record, pos, count)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Condition::Or(items) => {
                for c in items {
                    if c.eval_at(schema, record, pos, count)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Condition::Not(inner) => Ok(!inner.eval_at(schema, record, pos, count)?),
        }
    }

    /// All field names referenced by the condition.
    pub fn referenced_fields(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_fields(&mut out);
        out
    }

    fn collect_fields(&self, out: &mut Vec<String>) {
        match self {
            Condition::True => {}
            Condition::Cmp { left, right, .. } => {
                for f in left
                    .referenced_fields()
                    .into_iter()
                    .chain(right.referenced_fields())
                {
                    if !out.contains(&f) {
                        out.push(f);
                    }
                }
            }
            Condition::Range { field, .. } => {
                if !out.contains(field) {
                    out.push(field.clone());
                }
            }
            Condition::And(items) | Condition::Or(items) => {
                for c in items {
                    c.collect_fields(out);
                }
            }
            Condition::Not(inner) => inner.collect_fields(out),
        }
    }
}

/// Non-boolean clauses usable inside a comprehension.
#[derive(Debug, Clone, PartialEq)]
pub enum Clause {
    /// `limit n` — keep only the first `n` elements.
    Limit(usize),
    /// `orderby keys` — reorder elements.
    OrderBy(Vec<SortKey>),
    /// `groupby keys` — regroup elements with equal keys into sub-nestings.
    GroupBy(Vec<String>),
    /// `partitionby field stride` — partition numeric values into buckets of
    /// the given stride.
    PartitionBy(String, f64),
}

/// A generator `\v ← source` binding a variable to successive elements.
#[derive(Debug, Clone, PartialEq)]
pub struct Generator {
    /// Variable name (without the leading backslash).
    pub var: String,
    /// Source nesting: either a base table or a previously bound variable.
    pub source: GeneratorSource,
}

/// Where a generator draws its elements from.
#[derive(Debug, Clone, PartialEq)]
pub enum GeneratorSource {
    /// A base table (canonical row-major nesting).
    Table(String),
    /// A variable bound by an enclosing generator (nested iteration).
    Var(String),
}

/// A list comprehension `[head | generators, conditions, clauses]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Comprehension {
    /// Head expressions: one output element per record, containing these
    /// components (a single-element head produces atoms, a multi-element
    /// head produces row nestings).
    pub head: Vec<ElemExpr>,
    /// Generators, outermost first.
    pub generators: Vec<Generator>,
    /// Boolean conditions.
    pub conditions: Vec<Condition>,
    /// Ordering/grouping/limit clauses, applied in order.
    pub clauses: Vec<Clause>,
}

impl Comprehension {
    /// Creates a comprehension over a single table generator with the given
    /// head fields — the common `[[r.A, r.B] | \r ← T]` shape.
    pub fn over_table<I, S>(table: impl Into<String>, head_fields: I) -> Comprehension
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Comprehension {
            head: head_fields
                .into_iter()
                .map(|f| ElemExpr::field(f))
                .collect(),
            generators: vec![Generator {
                var: "r".into(),
                source: GeneratorSource::Table(table.into()),
            }],
            conditions: Vec::new(),
            clauses: Vec::new(),
        }
    }

    /// Adds a boolean condition.
    pub fn filter(mut self, cond: Condition) -> Comprehension {
        self.conditions.push(cond);
        self
    }

    /// Adds an `orderby` clause (ascending).
    pub fn order_by<I, S>(mut self, fields: I) -> Comprehension
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.clauses.push(Clause::OrderBy(
            fields.into_iter().map(|f| SortKey::asc(f)).collect(),
        ));
        self
    }

    /// Adds a `limit` clause.
    pub fn limit(mut self, n: usize) -> Comprehension {
        self.clauses.push(Clause::Limit(n));
        self
    }

    /// Base tables referenced by the generators.
    pub fn base_tables(&self) -> Vec<String> {
        self.generators
            .iter()
            .filter_map(|g| match &g.source {
                GeneratorSource::Table(t) => Some(t.clone()),
                GeneratorSource::Var(_) => None,
            })
            .collect()
    }

    /// All fields referenced by head, conditions, and clauses.
    pub fn referenced_fields(&self) -> Vec<String> {
        let mut out = Vec::new();
        for h in &self.head {
            for f in h.referenced_fields() {
                if !out.contains(&f) {
                    out.push(f);
                }
            }
        }
        for c in &self.conditions {
            for f in c.referenced_fields() {
                if !out.contains(&f) {
                    out.push(f);
                }
            }
        }
        for clause in &self.clauses {
            let fields: Vec<String> = match clause {
                Clause::OrderBy(keys) => keys.iter().map(|k| k.field.clone()).collect(),
                Clause::GroupBy(keys) => keys.clone(),
                Clause::PartitionBy(f, _) => vec![f.clone()],
                Clause::Limit(_) => Vec::new(),
            };
            for f in fields {
                if !out.contains(&f) {
                    out.push(f);
                }
            }
        }
        out
    }

    /// Evaluates the comprehension over a set of records of the given schema,
    /// producing output records. Grouping clauses are not applied here (the
    /// layout interpreter handles grouping structurally); ordering, filtering
    /// and limiting are.
    pub fn eval_records(&self, schema: &Schema, records: &[Record]) -> Result<Vec<Record>> {
        let count = records.len();
        let mut out: Vec<Record> = Vec::new();
        // The record each output row came from: order keys name fields of
        // the *input* schema, the head's output being positional.
        let mut sources: Vec<&Record> = Vec::new();
        'rec: for (pos, record) in records.iter().enumerate() {
            for cond in &self.conditions {
                if !cond.eval_at(schema, record, pos, count)? {
                    continue 'rec;
                }
            }
            let mut row = Vec::with_capacity(self.head.len());
            for h in &self.head {
                row.push(h.eval(schema, record, pos, count)?);
            }
            out.push(row);
            sources.push(record);
        }

        for clause in &self.clauses {
            match clause {
                Clause::OrderBy(keys) => {
                    // Sort each row's key values, tagged with the row's
                    // ordinal, then permute the rows to match.
                    let idx: Vec<usize> = keys
                        .iter()
                        .map(|k| schema.index_of(&k.field))
                        .collect::<Result<_>>()?;
                    let mut keyed: Vec<Record> = sources
                        .iter()
                        .enumerate()
                        .map(|(n, r)| {
                            idx.iter()
                                .map(|&i| r[i].clone())
                                .chain([Value::Int(n as i64)])
                                .collect()
                        })
                        .collect();
                    let positions: Vec<(usize, SortOrder)> =
                        keys.iter().enumerate().map(|(i, k)| (i, k.order)).collect();
                    sort_by_positions(&mut keyed, &positions);
                    let order: Vec<usize> = keyed
                        .iter()
                        .map(|k| k[idx.len()].as_i64().unwrap_or_default() as usize)
                        .collect();
                    out = order.iter().map(|&n| std::mem::take(&mut out[n])).collect();
                    sources = order.iter().map(|&n| sources[n]).collect();
                }
                Clause::Limit(n) => {
                    out.truncate(*n);
                    sources.truncate(*n);
                }
                Clause::GroupBy(_) | Clause::PartitionBy(_, _) => {
                    // Structural clauses: handled by the interpreter.
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::types::DataType;

    fn zip_schema() -> Schema {
        Schema::new(
            "T",
            vec![
                Field::new("Zip", DataType::Int),
                Field::new("Area", DataType::Int),
                Field::new("Addr", DataType::String),
            ],
        )
    }

    fn zip_records() -> Vec<Record> {
        vec![
            vec![Value::Int(2139), Value::Int(617), Value::Str("32 Vassar".into())],
            vec![Value::Int(2142), Value::Int(617), Value::Str("1 Broadway".into())],
            vec![Value::Int(10001), Value::Int(212), Value::Str("5th Ave".into())],
            vec![Value::Int(2115), Value::Int(617), Value::Str("Fenway".into())],
        ]
    }

    #[test]
    fn paper_nz_comprehension() {
        // Nz = [r.Zip | \r ← T, r.Area = 617, orderby r.Zip ASC]
        let c = Comprehension::over_table("T", ["Zip"])
            .filter(Condition::eq("Area", 617i64))
            .order_by(["Zip"]);
        let out = c.eval_records(&zip_schema(), &zip_records()).unwrap();
        assert_eq!(
            out,
            vec![
                vec![Value::Int(2115)],
                vec![Value::Int(2139)],
                vec![Value::Int(2142)],
            ]
        );
    }

    #[test]
    fn limit_clause_truncates() {
        let c = Comprehension::over_table("T", ["Zip"]).limit(2);
        let out = c.eval_records(&zip_schema(), &zip_records()).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn condition_range_and_combinators() {
        let schema = zip_schema();
        let rec = &zip_records()[0];
        assert!(Condition::range("Zip", 2000i64, 3000i64)
            .eval(&schema, rec)
            .unwrap());
        assert!(!Condition::range("Zip", 3000i64, 4000i64)
            .eval(&schema, rec)
            .unwrap());
        let c = Condition::eq("Area", 617i64).and(Condition::range("Zip", 0i64, 2140i64));
        assert!(c.eval(&schema, rec).unwrap());
        let n = Condition::Not(Box::new(Condition::eq("Area", 617i64)));
        assert!(!n.eval(&schema, rec).unwrap());
    }

    #[test]
    fn referenced_fields_collected() {
        let c = Comprehension::over_table("T", ["Zip", "Addr"])
            .filter(Condition::eq("Area", 617i64))
            .order_by(["Zip"]);
        assert_eq!(c.referenced_fields(), vec!["Zip", "Addr", "Area"]);
        assert_eq!(c.base_tables(), vec!["T"]);
    }

    #[test]
    fn interleave_bits_is_morton() {
        // x = 0b11, y = 0b01 → interleaved (x bit k at position 2k, y at 2k+1)
        // bit0: x=1 → pos0, y=1 → pos1; bit1: x=1 → pos2, y=0 → pos3
        assert_eq!(interleave_bits(&[0b11, 0b01]), 0b0111);
        assert_eq!(interleave_bits(&[]), 0);
        assert_eq!(interleave_bits(&[5]), 5);
    }

    #[test]
    fn elem_expr_eval_pos_count_and_arith() {
        let schema = zip_schema();
        let rec = &zip_records()[1];
        let e = ElemExpr::Sub(
            Box::new(ElemExpr::field("Zip")),
            Box::new(ElemExpr::lit(2000i64)),
        );
        assert_eq!(e.eval(&schema, rec, 0, 4).unwrap(), Value::Int(142));
        assert_eq!(
            ElemExpr::Pos.eval(&schema, rec, 3, 4).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            ElemExpr::Count.eval(&schema, rec, 3, 4).unwrap(),
            Value::Int(4)
        );
    }

    #[test]
    fn cmp_op_semantics() {
        assert!(CmpOp::Le.matches(Ordering::Equal));
        assert!(CmpOp::Le.matches(Ordering::Less));
        assert!(!CmpOp::Lt.matches(Ordering::Equal));
        assert!(CmpOp::Ne.matches(Ordering::Greater));
        assert!(CmpOp::Ge.matches(Ordering::Greater));
    }
}
