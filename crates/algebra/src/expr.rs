//! The storage-algebra expression AST.
//!
//! A [`LayoutExpr`] describes a physical layout as a transformation of the
//! canonical row-major representation of a logical table. Expressions are
//! built either with the fluent builder methods on [`LayoutExpr`], with the
//! textual [`crate::parse`] front end, or programmatically by a database
//! design tool such as the `rodentstore_optimizer` crate.
//!
//! The operators follow the paper's Section 3.5 taxonomy:
//!
//! * **Data co-location & isolation** — [`LayoutExpr::Project`],
//!   [`LayoutExpr::Append`], [`LayoutExpr::Select`],
//!   [`LayoutExpr::Partition`], [`LayoutExpr::VerticalPartition`],
//!   [`LayoutExpr::RowMajor`], [`LayoutExpr::ColumnMajor`],
//!   [`LayoutExpr::Pax`].
//! * **Data reduction** — [`LayoutExpr::Fold`], [`LayoutExpr::Unfold`],
//!   [`LayoutExpr::Prejoin`], [`LayoutExpr::Compress`] (delta, RLE,
//!   dictionary, bit-packing, frame-of-reference).
//! * **Data reordering** — [`LayoutExpr::OrderBy`], [`LayoutExpr::GroupBy`],
//!   [`LayoutExpr::ZOrder`].
//! * **Arrays** — [`LayoutExpr::Grid`], [`LayoutExpr::Transpose`],
//!   [`LayoutExpr::Chunk`].
//! * **List comprehensions** — [`LayoutExpr::Comprehension`].

use crate::comprehension::{Comprehension, Condition};
use crate::schema::Field;
use crate::value::Record;
use std::fmt;

/// Ascending or descending sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SortOrder {
    /// Ascending (the default).
    Asc,
    /// Descending.
    Desc,
}

impl fmt::Display for SortOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SortOrder::Asc => write!(f, "asc"),
            SortOrder::Desc => write!(f, "desc"),
        }
    }
}

/// A single sort key: field name plus direction.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// Field to sort on.
    pub field: String,
    /// Sort direction.
    pub order: SortOrder,
}

impl SortKey {
    /// Ascending sort key.
    pub fn asc(field: impl Into<String>) -> SortKey {
        SortKey {
            field: field.into(),
            order: SortOrder::Asc,
        }
    }

    /// Descending sort key.
    pub fn desc(field: impl Into<String>) -> SortKey {
        SortKey {
            field: field.into(),
            order: SortOrder::Desc,
        }
    }
}

/// Stable-sorts records by `(position, direction)` keys, comparing values
/// by their total order ([`Ord`], which puts NaN after every number): the
/// one record comparator of the engine. Rows
/// that tie on every key keep their relative order, so sorting two runs
/// that are each already in key order, appended one after the other, is
/// their merge with the first run winning ties.
pub fn sort_by_positions(records: &mut [Record], keys: &[(usize, SortOrder)]) {
    records.sort_by(|a, b| {
        keys.iter()
            .map(|&(pos, order)| match order {
                SortOrder::Asc => a[pos].cmp(&b[pos]),
                SortOrder::Desc => a[pos].cmp(&b[pos]).reverse(),
            })
            .find(|ord| ord.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
}

/// A gridding dimension: `grid[A1,…,An],[stride1,…,striden](N)` repartitions
/// tuples along `n` discretized dimensions; each dimension is an attribute
/// plus the width of one cell along that attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct GridDim {
    /// Attribute being discretized.
    pub field: String,
    /// Cell width along this attribute (in attribute units).
    pub stride: f64,
}

impl GridDim {
    /// Creates a grid dimension.
    pub fn new(field: impl Into<String>, stride: f64) -> GridDim {
        GridDim {
            field: field.into(),
            stride,
        }
    }
}

/// Compression schemes the algebra can request on a set of fields. The
/// corresponding codecs live in the `rodentstore_compress` crate; here we
/// only name them declaratively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecSpec {
    /// Delta compression `∆(N)`: store differences between subsequent
    /// elements. Ideal for time series and slowly varying coordinates.
    Delta,
    /// Run-length encoding.
    Rle,
    /// Dictionary encoding for low-cardinality columns.
    Dictionary,
    /// Bit-packing of small integers.
    BitPack,
    /// Frame-of-reference encoding (offsets from a per-block base).
    FrameOfReference,
}

impl fmt::Display for CodecSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecSpec::Delta => write!(f, "delta"),
            CodecSpec::Rle => write!(f, "rle"),
            CodecSpec::Dictionary => write!(f, "dict"),
            CodecSpec::BitPack => write!(f, "bitpack"),
            CodecSpec::FrameOfReference => write!(f, "for"),
        }
    }
}

/// Parameters for the PAX layout (partition attributes across mini-pages
/// within a page).
#[derive(Debug, Clone, PartialEq)]
pub struct PaxSpec {
    /// Number of records grouped into one PAX page before being split into
    /// per-attribute mini-pages.
    pub records_per_page: usize,
}

impl Default for PaxSpec {
    fn default() -> Self {
        PaxSpec {
            records_per_page: 256,
        }
    }
}

/// How a horizontal `partition` subdivides the first-level entries.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionBy {
    /// Tuples satisfying the condition go to the first partition, the rest to
    /// the second (isolation of hot/frequently-updated subsets).
    Predicate(Condition),
    /// One partition per distinct value of the field.
    Field(String),
    /// Discretize a numeric field with the given stride; one partition per
    /// bucket (a one-dimensional `grid`).
    Stride(String, f64),
}

/// The storage-algebra expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum LayoutExpr {
    /// Reference to a logical table in its canonical row-major order.
    Table(String),
    /// `project[Ai,…,Aj](N)` — isolate a subset of attributes.
    Project {
        /// Input expression.
        input: Box<LayoutExpr>,
        /// Attributes to keep, in output order.
        fields: Vec<String>,
    },
    /// `append([e1,…,em], N)` — attach additional (constant or derived)
    /// fields to every tuple; the reciprocal of `project`.
    Append {
        /// Input expression.
        input: Box<LayoutExpr>,
        /// New fields with their declared types.
        fields: Vec<Field>,
    },
    /// `select_C(N)` — keep only tuples satisfying the condition.
    Select {
        /// Input expression.
        input: Box<LayoutExpr>,
        /// Filter condition.
        predicate: Condition,
    },
    /// `partition_C(N)` — horizontal partitioning of first-level entries.
    Partition {
        /// Input expression.
        input: Box<LayoutExpr>,
        /// Partitioning rule.
        by: PartitionBy,
    },
    /// Vertical partitioning into column groups. Each group becomes a
    /// separately stored object; `[[a],[b],[c]]` is the full decomposition
    /// storage model (one column per object).
    VerticalPartition {
        /// Input expression.
        input: Box<LayoutExpr>,
        /// Column groups (each inner vector is stored together).
        groups: Vec<Vec<String>>,
    },
    /// Explicit row-major representation `[[r.A, r.B, …] | \r ← N]`.
    RowMajor {
        /// Input expression.
        input: Box<LayoutExpr>,
    },
    /// Explicit column-major representation
    /// `[[r.A | \r ← N], [r.B | \r ← N], …]`.
    ColumnMajor {
        /// Input expression.
        input: Box<LayoutExpr>,
    },
    /// PAX: group records into pages, store each attribute in a mini-page.
    Pax {
        /// Input expression.
        input: Box<LayoutExpr>,
        /// PAX parameters.
        spec: PaxSpec,
    },
    /// `fold_{B,A}(N)` — for each value of the key attributes `A`, nest the
    /// co-occurring values of attributes `B`.
    Fold {
        /// Input expression.
        input: Box<LayoutExpr>,
        /// Key attributes `A`.
        key: Vec<String>,
        /// Nested attributes `B`.
        values: Vec<String>,
    },
    /// `unfold(N)` — reverse of `fold`.
    Unfold {
        /// Input expression.
        input: Box<LayoutExpr>,
    },
    /// `prejoin_joinatt(N1, N2)` — denormalize two tables on a join
    /// attribute so they can be stored together (typically followed by
    /// `fold` to remove the introduced redundancy).
    Prejoin {
        /// Left input.
        left: Box<LayoutExpr>,
        /// Right input.
        right: Box<LayoutExpr>,
        /// Join attribute (must exist in both schemas).
        join_attr: String,
    },
    /// Apply a compression scheme to a set of fields. `∆(N)` is
    /// `Compress { codec: Delta, .. }`.
    Compress {
        /// Input expression.
        input: Box<LayoutExpr>,
        /// Fields to compress (empty = all fields).
        fields: Vec<String>,
        /// Compression scheme.
        codec: CodecSpec,
    },
    /// `orderby` clause — reorder tuples by the sort keys.
    OrderBy {
        /// Input expression.
        input: Box<LayoutExpr>,
        /// Sort keys, major first.
        keys: Vec<SortKey>,
    },
    /// `groupby` clause — regroup tuples into sub-nestings by key equality.
    GroupBy {
        /// Input expression.
        input: Box<LayoutExpr>,
        /// Grouping keys.
        keys: Vec<String>,
    },
    /// `limit` clause — keep only the first `n` entries.
    Limit {
        /// Input expression.
        input: Box<LayoutExpr>,
        /// Maximum number of first-level entries to keep.
        n: usize,
    },
    /// `grid[A1,…,An],[s1,…,sn](N)` — create an n-dimensional array by
    /// repartitioning tuples along discretized dimensions.
    Grid {
        /// Input expression.
        input: Box<LayoutExpr>,
        /// Grid dimensions.
        dims: Vec<GridDim>,
    },
    /// `zorder(N)` — rearrange first- and second-order entries along a
    /// Z-order (Morton) space-filling curve. With `fields` empty the
    /// transform orders the cells of an underlying `grid` by their cell
    /// coordinates; otherwise it interleaves the binary representation of
    /// the named attributes directly.
    ZOrder {
        /// Input expression.
        input: Box<LayoutExpr>,
        /// Attributes to interleave (empty = underlying grid cell indices).
        fields: Vec<String>,
    },
    /// `transpose(N)` — matrix transposition of a two-level nesting.
    Transpose {
        /// Input expression.
        input: Box<LayoutExpr>,
    },
    /// Chunk a (possibly multidimensional) nesting into fixed-size chunks for
    /// storage, as in array chunking.
    Chunk {
        /// Input expression.
        input: Box<LayoutExpr>,
        /// Records (or cells) per chunk.
        size: usize,
    },
    /// `index[A1,…,An](N)` — declare a persistent secondary index over the
    /// named attributes, rendered alongside the base layout. One attribute
    /// yields a B-tree; two attributes yield an R-tree whose leaves are
    /// packed along a space-filling curve. The index changes no tuple and no
    /// storage order — it only adds an access path the scan planner can push
    /// point and range predicates through.
    Index {
        /// Input expression.
        input: Box<LayoutExpr>,
        /// Attributes to index (1 = B-tree, 2 = R-tree).
        fields: Vec<String>,
    },
    /// `lsm[A1,…,An](N)` — a write-optimized levelled tier over the inner
    /// layout. Appended tuples land in an in-memory memtable, spill into
    /// sorted immutable runs (keyed on the named attributes), and are merged
    /// into deeper levels by incremental compaction; the inner expression
    /// still governs how the bulk-rendered base is stored. Scans read the
    /// base, then the runs (deepest level first), then the memtable.
    Lsm {
        /// Input expression (governs the bulk-rendered base).
        input: Box<LayoutExpr>,
        /// Attributes runs are sorted on.
        key: Vec<String>,
    },
    /// An explicit list comprehension.
    Comprehension(Comprehension),
}

/// Discriminant describing what kind of transform a node is; used by the
/// optimizer and by diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum TransformKind {
    Table,
    Project,
    Append,
    Select,
    Partition,
    VerticalPartition,
    RowMajor,
    ColumnMajor,
    Pax,
    Fold,
    Unfold,
    Prejoin,
    Compress,
    OrderBy,
    GroupBy,
    Limit,
    Grid,
    ZOrder,
    Transpose,
    Chunk,
    Index,
    Lsm,
    Comprehension,
}

impl LayoutExpr {
    /// Base table reference.
    pub fn table(name: impl Into<String>) -> LayoutExpr {
        LayoutExpr::Table(name.into())
    }

    /// `project[fields](self)`.
    pub fn project<I, S>(self, fields: I) -> LayoutExpr
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        LayoutExpr::Project {
            input: Box::new(self),
            fields: fields.into_iter().map(Into::into).collect(),
        }
    }

    /// `append(fields, self)`.
    pub fn append(self, fields: Vec<Field>) -> LayoutExpr {
        LayoutExpr::Append {
            input: Box::new(self),
            fields,
        }
    }

    /// `select_predicate(self)`.
    pub fn select(self, predicate: Condition) -> LayoutExpr {
        LayoutExpr::Select {
            input: Box::new(self),
            predicate,
        }
    }

    /// Horizontal partition.
    pub fn partition(self, by: PartitionBy) -> LayoutExpr {
        LayoutExpr::Partition {
            input: Box::new(self),
            by,
        }
    }

    /// Vertical partition into explicit column groups.
    pub fn vertical<I, G, S>(self, groups: I) -> LayoutExpr
    where
        I: IntoIterator<Item = G>,
        G: IntoIterator<Item = S>,
        S: Into<String>,
    {
        LayoutExpr::VerticalPartition {
            input: Box::new(self),
            groups: groups
                .into_iter()
                .map(|g| g.into_iter().map(Into::into).collect())
                .collect(),
        }
    }

    /// Full column decomposition (DSM): one group per field of the schema.
    /// Field names must be supplied because the expression does not know its
    /// schema until validation.
    pub fn columns<I, S>(self, fields: I) -> LayoutExpr
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let groups: Vec<Vec<String>> = fields
            .into_iter()
            .map(|f| vec![f.into()])
            .collect();
        LayoutExpr::VerticalPartition {
            input: Box::new(self),
            groups,
        }
    }

    /// Explicit row-major layout.
    pub fn rows(self) -> LayoutExpr {
        LayoutExpr::RowMajor {
            input: Box::new(self),
        }
    }

    /// Explicit column-major layout.
    pub fn column_major(self) -> LayoutExpr {
        LayoutExpr::ColumnMajor {
            input: Box::new(self),
        }
    }

    /// PAX layout with the default mini-page grouping.
    pub fn pax(self) -> LayoutExpr {
        LayoutExpr::Pax {
            input: Box::new(self),
            spec: PaxSpec::default(),
        }
    }

    /// PAX layout with an explicit records-per-page grouping.
    pub fn pax_with(self, records_per_page: usize) -> LayoutExpr {
        LayoutExpr::Pax {
            input: Box::new(self),
            spec: PaxSpec { records_per_page },
        }
    }

    /// `fold_{values,key}(self)`.
    pub fn fold<I, J, S, T>(self, key: I, values: J) -> LayoutExpr
    where
        I: IntoIterator<Item = S>,
        J: IntoIterator<Item = T>,
        S: Into<String>,
        T: Into<String>,
    {
        LayoutExpr::Fold {
            input: Box::new(self),
            key: key.into_iter().map(Into::into).collect(),
            values: values.into_iter().map(Into::into).collect(),
        }
    }

    /// `unfold(self)`.
    pub fn unfold(self) -> LayoutExpr {
        LayoutExpr::Unfold {
            input: Box::new(self),
        }
    }

    /// `prejoin_join_attr(self, right)`.
    pub fn prejoin(self, right: LayoutExpr, join_attr: impl Into<String>) -> LayoutExpr {
        LayoutExpr::Prejoin {
            left: Box::new(self),
            right: Box::new(right),
            join_attr: join_attr.into(),
        }
    }

    /// Delta-compress the given fields (`∆`).
    pub fn delta<I, S>(self, fields: I) -> LayoutExpr
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.compress(fields, CodecSpec::Delta)
    }

    /// Apply an arbitrary compression scheme to the given fields.
    pub fn compress<I, S>(self, fields: I, codec: CodecSpec) -> LayoutExpr
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        LayoutExpr::Compress {
            input: Box::new(self),
            fields: fields.into_iter().map(Into::into).collect(),
            codec,
        }
    }

    /// `orderby` with ascending keys.
    pub fn order_by<I, S>(self, fields: I) -> LayoutExpr
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        LayoutExpr::OrderBy {
            input: Box::new(self),
            keys: fields.into_iter().map(|f| SortKey::asc(f)).collect(),
        }
    }

    /// `orderby` with explicit sort keys.
    pub fn order_by_keys(self, keys: Vec<SortKey>) -> LayoutExpr {
        LayoutExpr::OrderBy {
            input: Box::new(self),
            keys,
        }
    }

    /// `groupby` clause.
    pub fn group_by<I, S>(self, fields: I) -> LayoutExpr
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        LayoutExpr::GroupBy {
            input: Box::new(self),
            keys: fields.into_iter().map(Into::into).collect(),
        }
    }

    /// `limit n`.
    pub fn limit(self, n: usize) -> LayoutExpr {
        LayoutExpr::Limit {
            input: Box::new(self),
            n,
        }
    }

    /// `grid[dims](self)` with `(field, stride)` pairs.
    pub fn grid<I, S>(self, dims: I) -> LayoutExpr
    where
        I: IntoIterator<Item = (S, f64)>,
        S: Into<String>,
    {
        LayoutExpr::Grid {
            input: Box::new(self),
            dims: dims
                .into_iter()
                .map(|(f, s)| GridDim::new(f, s))
                .collect(),
        }
    }

    /// `zorder(self)` over the underlying grid cells.
    pub fn zorder(self) -> LayoutExpr {
        LayoutExpr::ZOrder {
            input: Box::new(self),
            fields: Vec::new(),
        }
    }

    /// `zorder` interleaving the named attributes directly.
    pub fn zorder_on<I, S>(self, fields: I) -> LayoutExpr
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        LayoutExpr::ZOrder {
            input: Box::new(self),
            fields: fields.into_iter().map(Into::into).collect(),
        }
    }

    /// `transpose(self)`.
    pub fn transpose(self) -> LayoutExpr {
        LayoutExpr::Transpose {
            input: Box::new(self),
        }
    }

    /// Chunk into fixed-size pieces.
    pub fn chunk(self, size: usize) -> LayoutExpr {
        LayoutExpr::Chunk {
            input: Box::new(self),
            size,
        }
    }

    /// `index[fields](self)` — declare a secondary index over the fields.
    pub fn index<I, S>(self, fields: I) -> LayoutExpr
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        LayoutExpr::Index {
            input: Box::new(self),
            fields: fields.into_iter().map(Into::into).collect(),
        }
    }

    /// `lsm[key](self)` — wrap in a write-optimized levelled tier whose runs
    /// are sorted on `key`.
    pub fn lsm<I, S>(self, key: I) -> LayoutExpr
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        LayoutExpr::Lsm {
            input: Box::new(self),
            key: key.into_iter().map(Into::into).collect(),
        }
    }

    /// The discriminant of this node.
    pub fn kind(&self) -> TransformKind {
        match self {
            LayoutExpr::Table(_) => TransformKind::Table,
            LayoutExpr::Project { .. } => TransformKind::Project,
            LayoutExpr::Append { .. } => TransformKind::Append,
            LayoutExpr::Select { .. } => TransformKind::Select,
            LayoutExpr::Partition { .. } => TransformKind::Partition,
            LayoutExpr::VerticalPartition { .. } => TransformKind::VerticalPartition,
            LayoutExpr::RowMajor { .. } => TransformKind::RowMajor,
            LayoutExpr::ColumnMajor { .. } => TransformKind::ColumnMajor,
            LayoutExpr::Pax { .. } => TransformKind::Pax,
            LayoutExpr::Fold { .. } => TransformKind::Fold,
            LayoutExpr::Unfold { .. } => TransformKind::Unfold,
            LayoutExpr::Prejoin { .. } => TransformKind::Prejoin,
            LayoutExpr::Compress { .. } => TransformKind::Compress,
            LayoutExpr::OrderBy { .. } => TransformKind::OrderBy,
            LayoutExpr::GroupBy { .. } => TransformKind::GroupBy,
            LayoutExpr::Limit { .. } => TransformKind::Limit,
            LayoutExpr::Grid { .. } => TransformKind::Grid,
            LayoutExpr::ZOrder { .. } => TransformKind::ZOrder,
            LayoutExpr::Transpose { .. } => TransformKind::Transpose,
            LayoutExpr::Chunk { .. } => TransformKind::Chunk,
            LayoutExpr::Index { .. } => TransformKind::Index,
            LayoutExpr::Lsm { .. } => TransformKind::Lsm,
            LayoutExpr::Comprehension(_) => TransformKind::Comprehension,
        }
    }

    /// Direct child expressions of this node.
    pub fn children(&self) -> Vec<&LayoutExpr> {
        match self {
            LayoutExpr::Table(_) | LayoutExpr::Comprehension(_) => Vec::new(),
            LayoutExpr::Prejoin { left, right, .. } => vec![left, right],
            LayoutExpr::Project { input, .. }
            | LayoutExpr::Append { input, .. }
            | LayoutExpr::Select { input, .. }
            | LayoutExpr::Partition { input, .. }
            | LayoutExpr::VerticalPartition { input, .. }
            | LayoutExpr::RowMajor { input }
            | LayoutExpr::ColumnMajor { input }
            | LayoutExpr::Pax { input, .. }
            | LayoutExpr::Fold { input, .. }
            | LayoutExpr::Unfold { input }
            | LayoutExpr::Compress { input, .. }
            | LayoutExpr::OrderBy { input, .. }
            | LayoutExpr::GroupBy { input, .. }
            | LayoutExpr::Limit { input, .. }
            | LayoutExpr::Grid { input, .. }
            | LayoutExpr::ZOrder { input, .. }
            | LayoutExpr::Transpose { input }
            | LayoutExpr::Chunk { input, .. }
            | LayoutExpr::Index { input, .. }
            | LayoutExpr::Lsm { input, .. } => vec![input],
        }
    }

    /// The single input expression, if this node has exactly one child.
    pub fn input(&self) -> Option<&LayoutExpr> {
        let children = self.children();
        if children.len() == 1 {
            Some(children[0])
        } else {
            None
        }
    }

    /// All base table names referenced anywhere in the expression.
    pub fn base_tables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_tables(&mut out);
        out
    }

    fn collect_tables(&self, out: &mut Vec<String>) {
        match self {
            LayoutExpr::Table(name) => {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
            LayoutExpr::Comprehension(c) => {
                for t in c.base_tables() {
                    if !out.contains(&t) {
                        out.push(t);
                    }
                }
            }
            _ => {
                for child in self.children() {
                    child.collect_tables(out);
                }
            }
        }
    }

    /// Number of nodes in the expression tree (used as a complexity measure
    /// by the design optimizer).
    pub fn node_count(&self) -> usize {
        1 + self.children().iter().map(|c| c.node_count()).sum::<usize>()
    }

    /// Depth of the expression tree.
    pub fn depth(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.depth())
            .max()
            .unwrap_or(0)
    }

    /// Returns `true` if any node in the tree satisfies the predicate.
    pub fn any(&self, pred: &dyn Fn(&LayoutExpr) -> bool) -> bool {
        if pred(self) {
            return true;
        }
        self.children().iter().any(|c| c.any(pred))
    }

    /// Returns `true` if the expression contains a node of the given kind.
    pub fn contains_kind(&self, kind: TransformKind) -> bool {
        self.any(&|e| e.kind() == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's introductory example: `zorder(grid[y, z](N))` over sales
    /// records.
    fn sales_expr() -> LayoutExpr {
        LayoutExpr::table("Sales")
            .grid([("year", 1.0), ("zipcode", 100.0)])
            .zorder()
    }

    #[test]
    fn builder_produces_expected_tree() {
        let e = sales_expr();
        assert_eq!(e.kind(), TransformKind::ZOrder);
        let grid = e.input().unwrap();
        assert_eq!(grid.kind(), TransformKind::Grid);
        match grid {
            LayoutExpr::Grid { dims, .. } => {
                assert_eq!(dims.len(), 2);
                assert_eq!(dims[0].field, "year");
                assert_eq!(dims[1].stride, 100.0);
            }
            _ => panic!("expected grid"),
        }
        assert_eq!(grid.input().unwrap().kind(), TransformKind::Table);
    }

    #[test]
    fn case_study_n4_structure() {
        // N4 = delta(zorder(grid(project(orderby/groupby(Traces)))))
        let n4 = LayoutExpr::table("Traces")
            .order_by(["t"])
            .group_by(["id"])
            .project(["lat", "lon"])
            .grid([("lat", 0.002), ("lon", 0.002)])
            .zorder()
            .delta(["lat", "lon"]);
        assert_eq!(n4.node_count(), 7);
        assert_eq!(n4.depth(), 7);
        assert!(n4.contains_kind(TransformKind::Grid));
        assert!(n4.contains_kind(TransformKind::Compress));
        assert!(!n4.contains_kind(TransformKind::Fold));
        assert_eq!(n4.base_tables(), vec!["Traces"]);
    }

    #[test]
    fn prejoin_has_two_children() {
        let e = LayoutExpr::table("Orders").prejoin(LayoutExpr::table("Customers"), "cid");
        assert_eq!(e.children().len(), 2);
        assert_eq!(e.input(), None);
        assert_eq!(e.base_tables(), vec!["Orders", "Customers"]);
    }

    #[test]
    fn columns_builder_creates_singleton_groups() {
        let e = LayoutExpr::table("T").columns(["a", "b", "c"]);
        match &e {
            LayoutExpr::VerticalPartition { groups, .. } => {
                assert_eq!(groups.len(), 3);
                assert!(groups.iter().all(|g| g.len() == 1));
            }
            _ => panic!("expected vertical partition"),
        }
    }

    #[test]
    fn duplicate_table_references_deduplicated() {
        let e = LayoutExpr::table("T").prejoin(LayoutExpr::table("T"), "k");
        assert_eq!(e.base_tables(), vec!["T"]);
    }

    #[test]
    fn sort_key_constructors() {
        assert_eq!(SortKey::asc("a").order, SortOrder::Asc);
        assert_eq!(SortKey::desc("a").order, SortOrder::Desc);
    }
}
