//! The record pipeline: evaluating the tuple-level part of an expression.
//!
//! Before anything is written to disk, the interpreter has to decide *which*
//! tuples the layout contains and *in what order* — selections, projections,
//! orderings, groupings, prejoins, folds, and explicit comprehensions. This
//! module materializes that record stream; [`crate::render()`] then applies the
//! structural strategy (rows / columns / PAX / grid cells) to write it out.

use crate::scan::CompiledPredicate;
use crate::{LayoutError, Result};
use rodentstore_algebra::expr::{sort_by_positions, LayoutExpr, SortKey};
use rodentstore_algebra::schema::Schema;
use rodentstore_algebra::validate::SchemaProvider;
use rodentstore_algebra::value::{Record, Value};
use std::collections::HashMap;

/// Supplies the canonical (row-major) contents of base tables.
pub trait TableProvider {
    /// Schema of a base table.
    fn schema(&self, table: &str) -> Option<Schema>;
    /// Records of a base table in their canonical order.
    fn records(&self, table: &str) -> Option<Vec<Record>>;
}

/// A simple in-memory [`TableProvider`].
#[derive(Debug, Default, Clone)]
pub struct MemTableProvider {
    tables: HashMap<String, (Schema, Vec<Record>)>,
}

impl MemTableProvider {
    /// Creates an empty provider.
    pub fn new() -> MemTableProvider {
        MemTableProvider::default()
    }

    /// Registers a table.
    pub fn add(&mut self, schema: Schema, records: Vec<Record>) -> &mut Self {
        self.tables
            .insert(schema.name().to_string(), (schema, records));
        self
    }

    /// Convenience constructor for a single table.
    pub fn single(schema: Schema, records: Vec<Record>) -> MemTableProvider {
        let mut p = MemTableProvider::new();
        p.add(schema, records);
        p
    }
}

impl TableProvider for MemTableProvider {
    fn schema(&self, table: &str) -> Option<Schema> {
        self.tables.get(table).map(|(s, _)| s.clone())
    }

    fn records(&self, table: &str) -> Option<Vec<Record>> {
        self.tables.get(table).map(|(_, r)| r.clone())
    }
}

/// Adapter so a [`TableProvider`] can be used wherever the algebra expects a
/// [`SchemaProvider`] (validation).
pub struct ProviderSchemas<'a, P: TableProvider + ?Sized>(pub &'a P);

impl<'a, P: TableProvider + ?Sized> SchemaProvider for ProviderSchemas<'a, P> {
    fn schema_for(&self, table: &str) -> Option<Schema> {
        self.0.schema(table)
    }
}

/// Sorts records by the given keys (stable).
pub fn sort_records(schema: &Schema, records: &mut [Record], keys: &[SortKey]) -> Result<()> {
    let positions = keys
        .iter()
        .map(|k| Ok((schema.index_of(&k.field)?, k.order)))
        .collect::<Result<Vec<_>>>()?;
    sort_by_positions(records, &positions);
    Ok(())
}

/// Materializes the record stream of an expression: the output schema plus
/// the tuples in their final storage order. Structural transforms (grid,
/// zorder, vertical partitioning, PAX, compression, chunking) pass records
/// through unchanged — they only affect how [`crate::render()`] writes them.
pub fn materialize<P: TableProvider + ?Sized>(
    expr: &LayoutExpr,
    provider: &P,
) -> Result<(Schema, Vec<Record>)> {
    match expr {
        LayoutExpr::Table(name) => {
            let schema = provider
                .schema(name)
                .ok_or_else(|| LayoutError::MissingTable(name.clone()))?;
            let records = provider
                .records(name)
                .ok_or_else(|| LayoutError::MissingTable(name.clone()))?;
            Ok((schema, records))
        }
        LayoutExpr::Project { input, fields } => {
            let (schema, records) = materialize(input, provider)?;
            let indices = schema.indices_of(fields)?;
            let out_schema = schema.project(fields)?;
            let out = records
                .into_iter()
                .map(|r| indices.iter().map(|&i| r[i].clone()).collect())
                .collect();
            Ok((out_schema, out))
        }
        LayoutExpr::Append { input, fields } => {
            let (schema, records) = materialize(input, provider)?;
            let out_schema = schema.append(fields)?;
            let out = records
                .into_iter()
                .map(|mut r| {
                    r.extend(std::iter::repeat(Value::Null).take(fields.len()));
                    r
                })
                .collect();
            Ok((out_schema, out))
        }
        LayoutExpr::Select { input, predicate } => {
            let (schema, records) = materialize(input, provider)?;
            let predicate =
                CompiledPredicate::compile(predicate, &schema.field_names(), schema.name())?;
            let mut out = Vec::with_capacity(records.len());
            for r in records {
                if predicate.matches(&r)? {
                    out.push(r);
                }
            }
            Ok((schema, out))
        }
        LayoutExpr::OrderBy { input, keys } => {
            let (schema, mut records) = materialize(input, provider)?;
            sort_records(&schema, &mut records, keys)?;
            Ok((schema, records))
        }
        LayoutExpr::GroupBy { input, keys } | LayoutExpr::Fold { input, key: keys, .. } => {
            // Grouping (and folding, which groups by its key fields) makes
            // records with equal keys contiguous via a stable sort.
            let (schema, mut records) = materialize(input, provider)?;
            let sort_keys: Vec<SortKey> = keys.iter().map(|k| SortKey::asc(k.clone())).collect();
            sort_records(&schema, &mut records, &sort_keys)?;
            if let LayoutExpr::Fold { key, values, .. } = expr {
                // Reorder columns to key ++ values, matching the validated schema.
                let mut wanted: Vec<String> = key.clone();
                wanted.extend(values.clone());
                let indices = schema.indices_of(&wanted)?;
                let out_schema = schema.project(&wanted)?;
                let out = records
                    .into_iter()
                    .map(|r| indices.iter().map(|&i| r[i].clone()).collect())
                    .collect();
                return Ok((out_schema, out));
            }
            Ok((schema, records))
        }
        LayoutExpr::Limit { input, n } => {
            let (schema, mut records) = materialize(input, provider)?;
            records.truncate(*n);
            Ok((schema, records))
        }
        LayoutExpr::Prejoin {
            left,
            right,
            join_attr,
        } => {
            let (ls, lrecs) = materialize(left, provider)?;
            let (rs, rrecs) = materialize(right, provider)?;
            let l_idx = ls.index_of(join_attr)?;
            let r_idx = rs.index_of(join_attr)?;
            let out_schema = ls.prejoin(&rs)?;
            // Hash join: build on the right side, probe with the left.
            let mut build: HashMap<String, Vec<&Record>> = HashMap::new();
            for r in &rrecs {
                build.entry(r[r_idx].to_string()).or_default().push(r);
            }
            let mut out = Vec::new();
            for l in &lrecs {
                if let Some(matches) = build.get(&l[l_idx].to_string()) {
                    for r in matches {
                        let mut joined = l.clone();
                        joined.extend(r.iter().cloned());
                        out.push(joined);
                    }
                }
            }
            Ok((out_schema, out))
        }
        LayoutExpr::Unfold { input } => {
            // `unfold(fold(N))` — records were never physically nested in the
            // pipeline, so unfold is the identity on the record stream.
            materialize(input, provider)
        }
        LayoutExpr::Comprehension(c) => {
            let tables = c.base_tables();
            let table = tables
                .first()
                .ok_or_else(|| LayoutError::Unsupported("comprehension without a table".into()))?;
            let schema = provider
                .schema(table)
                .ok_or_else(|| LayoutError::MissingTable(table.clone()))?;
            let records = provider
                .records(table)
                .ok_or_else(|| LayoutError::MissingTable(table.clone()))?;
            let out = c
                .eval_records(&schema, &records)
                .map_err(LayoutError::Algebra)?;
            let derived = rodentstore_algebra::validate::check_with(
                &LayoutExpr::Comprehension(c.clone()),
                &ProviderSchemas(provider),
            )
            .map_err(LayoutError::Algebra)?;
            Ok((derived.schema, out))
        }
        // Structural transforms: records pass through unchanged.
        LayoutExpr::Partition { input, .. }
        | LayoutExpr::VerticalPartition { input, .. }
        | LayoutExpr::RowMajor { input }
        | LayoutExpr::ColumnMajor { input }
        | LayoutExpr::Pax { input, .. }
        | LayoutExpr::Compress { input, .. }
        | LayoutExpr::Grid { input, .. }
        | LayoutExpr::ZOrder { input, .. }
        | LayoutExpr::Transpose { input }
        | LayoutExpr::Chunk { input, .. }
        | LayoutExpr::Index { input, .. }
        | LayoutExpr::Lsm { input, .. } => materialize(input, provider),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodentstore_algebra::comprehension::Condition;
    use rodentstore_algebra::schema::Field;
    use rodentstore_algebra::types::DataType;
    use rodentstore_algebra::Comprehension;

    fn zip_provider() -> MemTableProvider {
        let schema = Schema::new(
            "T",
            vec![
                Field::new("Zip", DataType::Int),
                Field::new("Area", DataType::Int),
                Field::new("Addr", DataType::String),
            ],
        );
        let records = vec![
            vec![Value::Int(2139), Value::Int(617), Value::Str("Vassar".into())],
            vec![Value::Int(10001), Value::Int(212), Value::Str("5th Ave".into())],
            vec![Value::Int(2115), Value::Int(617), Value::Str("Fenway".into())],
            vec![Value::Int(2142), Value::Int(617), Value::Str("Broadway".into())],
        ];
        MemTableProvider::single(schema, records)
    }

    #[test]
    fn project_select_orderby_pipeline() {
        let expr = LayoutExpr::table("T")
            .select(Condition::eq("Area", 617i64))
            .order_by(["Zip"])
            .project(["Zip"]);
        let (schema, records) = materialize(&expr, &zip_provider()).unwrap();
        assert_eq!(schema.field_names(), vec!["Zip"]);
        assert_eq!(
            records,
            vec![
                vec![Value::Int(2115)],
                vec![Value::Int(2139)],
                vec![Value::Int(2142)]
            ]
        );
    }

    #[test]
    fn structural_transforms_do_not_change_records() {
        let base = LayoutExpr::table("T");
        let (_, plain) = materialize(&base, &zip_provider()).unwrap();
        let structural = LayoutExpr::table("T")
            .grid([("Zip", 1000.0), ("Area", 100.0)])
            .zorder()
            .delta(["Zip"]);
        let (_, same) = materialize(&structural, &zip_provider()).unwrap();
        assert_eq!(plain, same);
    }

    #[test]
    fn fold_reorders_columns_and_groups_keys() {
        let expr = LayoutExpr::table("T").fold(["Area"], ["Zip", "Addr"]);
        let (schema, records) = materialize(&expr, &zip_provider()).unwrap();
        assert_eq!(schema.field_names(), vec!["Area", "Zip", "Addr"]);
        // Records are sorted by the fold key so groups are contiguous.
        let areas: Vec<i64> = records.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(areas, vec![212, 617, 617, 617]);
    }

    #[test]
    fn prejoin_denormalizes() {
        let mut provider = zip_provider();
        provider.add(
            Schema::new(
                "Areas",
                vec![
                    Field::new("Area", DataType::Int),
                    Field::new("City", DataType::String),
                ],
            ),
            vec![
                vec![Value::Int(617), Value::Str("Boston".into())],
                vec![Value::Int(212), Value::Str("NYC".into())],
            ],
        );
        let expr = LayoutExpr::table("T").prejoin(LayoutExpr::table("Areas"), "Area");
        let (schema, records) = materialize(&expr, &provider).unwrap();
        assert_eq!(schema.arity(), 5);
        assert_eq!(records.len(), 4);
        let city_idx = schema.index_of("City").unwrap();
        for r in &records {
            let area = r[1].as_i64().unwrap();
            let city = r[city_idx].as_str().unwrap();
            assert_eq!(city == "Boston", area == 617);
        }
    }

    #[test]
    fn limit_and_append() {
        let expr = LayoutExpr::table("T")
            .append(vec![Field::new("note", DataType::String)])
            .limit(2);
        let (schema, records) = materialize(&expr, &zip_provider()).unwrap();
        assert_eq!(schema.arity(), 4);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0][3], Value::Null);
    }

    #[test]
    fn comprehension_pipeline() {
        let c = Comprehension::over_table("T", ["Zip"])
            .filter(Condition::eq("Area", 617i64))
            .order_by(["Zip"]);
        let (schema, records) =
            materialize(&LayoutExpr::Comprehension(c), &zip_provider()).unwrap();
        assert_eq!(schema.field_names(), vec!["Zip"]);
        assert_eq!(records.len(), 3);
    }

    #[test]
    fn missing_table_is_reported() {
        let expr = LayoutExpr::table("Nope");
        assert!(matches!(
            materialize(&expr, &zip_provider()),
            Err(LayoutError::MissingTable(_))
        ));
    }

    #[test]
    fn unfold_is_identity_on_records() {
        let folded = LayoutExpr::table("T").fold(["Area"], ["Zip", "Addr"]);
        let unfolded = LayoutExpr::table("T").fold(["Area"], ["Zip", "Addr"]).unfold();
        let (_, a) = materialize(&folded, &zip_provider()).unwrap();
        let (_, b) = materialize(&unfolded, &zip_provider()).unwrap();
        assert_eq!(a, b);
    }
}
