//! The access-method API over a physical layout.

use crate::cursor::Cursor;
use crate::{ExecError, Result};
use rodentstore_algebra::comprehension::Condition;
use rodentstore_algebra::expr::{sort_by_positions, SortKey, SortOrder};
use rodentstore_algebra::value::Record;
use rodentstore_layout::{PhysicalLayout, ScanPlan};

/// Parameters of the simple disk model used to convert pages and seeks into
/// milliseconds, following Section 5 of the paper ("count bytes of I/O as
/// well as disk seeks", ignoring CPU costs).
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// Cost of one random seek, in milliseconds.
    pub seek_ms: f64,
    /// Sequential transfer bandwidth, in MB/s.
    pub transfer_mb_per_s: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            seek_ms: 8.0,
            transfer_mb_per_s: 120.0,
        }
    }
}

/// A scan request: optional projection, predicate, and requested order.
#[derive(Debug, Clone, Default)]
pub struct ScanRequest {
    /// Fields to return (`None` = all fields).
    pub fields: Option<Vec<String>>,
    /// Filter predicate.
    pub predicate: Option<Condition>,
    /// Requested output order.
    pub order: Option<Vec<SortKey>>,
}

impl ScanRequest {
    /// A full-table scan.
    pub fn all() -> ScanRequest {
        ScanRequest::default()
    }

    /// Restricts the scan to the given fields.
    pub fn fields<I, S>(mut self, fields: I) -> ScanRequest
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.fields = Some(fields.into_iter().map(Into::into).collect());
        self
    }

    /// Adds a predicate.
    pub fn predicate(mut self, predicate: Condition) -> ScanRequest {
        self.predicate = Some(predicate);
        self
    }

    /// Requests an output order.
    pub fn order<I, S>(mut self, fields: I) -> ScanRequest
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.order = Some(fields.into_iter().map(|f| SortKey::asc(f)).collect());
        self
    }
}

/// The access methods exposed over one stored table (one physical layout).
/// The cost methods take the disk model from their caller, so a change of
/// the model reaches every table at once.
pub struct AccessMethods {
    layout: PhysicalLayout,
}

impl std::fmt::Debug for AccessMethods {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessMethods")
            .field("layout", &self.layout)
            .finish()
    }
}

impl AccessMethods {
    /// Wraps a rendered layout.
    pub fn new(layout: PhysicalLayout) -> AccessMethods {
        AccessMethods { layout }
    }

    /// The underlying physical layout.
    pub fn layout(&self) -> &PhysicalLayout {
        &self.layout
    }

    fn validate_fields(&self, fields: &Option<Vec<String>>) -> Result<()> {
        if let Some(fields) = fields {
            for f in fields {
                self.layout
                    .schema
                    .index_of(f)
                    .map_err(|_| ExecError::InvalidRequest(format!("unknown field `{f}`")))?;
            }
        }
        Ok(())
    }

    /// `scan(table, [fieldlist, predicate, order])`: scans the relation with
    /// optional projection, predicate, and sort order. If the layout is
    /// already efficient for the requested order (it appears in
    /// [`AccessMethods::order_list`]), no re-sort is performed; otherwise the
    /// result is sorted before being returned. Order keys must be part of
    /// the projected fields, native order or not.
    pub fn scan(&self, request: &ScanRequest) -> Result<Vec<Record>> {
        self.scan_planned(request).map(|(rows, _)| rows)
    }

    /// [`AccessMethods::scan`], handing back the read plan the scan ran too:
    /// its [`ScanPlan::predicted_pages`] is what
    /// [`AccessMethods::scan_pages`] estimates for the request, without
    /// planning the scan again.
    pub fn scan_planned(&self, request: &ScanRequest) -> Result<(Vec<Record>, ScanPlan<'_>)> {
        let resort = self.resort_keys(request)?;
        let (mut rows, plan) = self
            .layout
            .scan_iter(request.fields.as_deref(), request.predicate.as_ref())?
            .collect_planned()?;
        if let Some(keys) = resort {
            sort_by_positions(&mut rows, &keys);
        }
        Ok((rows, plan))
    }

    /// Validates a request's projection and order keys, returning the keys'
    /// output positions when the layout cannot deliver the order natively
    /// (the result must then be re-sorted).
    fn resort_keys(&self, request: &ScanRequest) -> Result<Option<Vec<(usize, SortOrder)>>> {
        self.validate_fields(&request.fields)?;
        let Some(order) = &request.order else {
            return Ok(None);
        };
        let fields = request
            .fields
            .clone()
            .unwrap_or_else(|| self.layout.schema.field_names());
        let keys = order_positions(&fields, order)?;
        Ok((!self.order_is_native(order)).then_some(keys))
    }

    /// Opens a cursor over a scan (the `next(table, [order])` access method).
    ///
    /// When the layout can deliver the requested order natively (or no order
    /// was requested), the cursor *streams*: tuples are decoded from pages on
    /// demand and the result set is never materialized — vertically
    /// partitioned layouts included. Only a non-native sort forces
    /// materialization (the cursor then knows its length).
    pub fn open_cursor(&self, request: &ScanRequest) -> Result<Cursor<'_>> {
        if self.resort_keys(request)?.is_some() {
            return Ok(Cursor::new(self.scan(request)?));
        }
        let iter = self
            .layout
            .scan_iter(request.fields.as_deref(), request.predicate.as_ref())?;
        Ok(Cursor::streaming(iter))
    }

    /// `scanAggregate(table, spec, [predicate])`: folds the matching rows
    /// into fixed-width buckets (`count/sum/min/max` grouped by
    /// `floor(bucket_field / bucket_width)`) without materializing a result
    /// set. Reads exactly the pages a projected scan of the bucket and value
    /// fields would read; buckets come out sorted ascending by their lower
    /// edge, so no re-sort is ever needed.
    pub fn scan_aggregate(
        &self,
        spec: &rodentstore_layout::WindowedAggregate,
        predicate: Option<&Condition>,
    ) -> Result<rodentstore_layout::WindowAccumulator> {
        for f in [&spec.bucket_field, &spec.value_field] {
            self.layout
                .schema
                .index_of(f)
                .map_err(|_| ExecError::InvalidRequest(format!("unknown field `{f}`")))?;
        }
        Ok(self.layout.scan_aggregate(spec, predicate)?)
    }

    /// `getElement(table, [fieldlist,] index)`: the tuple at `index` in the
    /// layout's storage order.
    pub fn get_element(&self, index: usize, fields: Option<&[String]>) -> Result<Record> {
        Ok(self.layout.get_element(index, fields)?)
    }

    /// Appends freshly inserted canonical rows (supplied by `provider` under
    /// the base table's name) into the rendered layout without re-rendering
    /// it. Returns [`rodentstore_layout::AppendOutcome::NeedsRebuild`] when
    /// the layout's shape (fold, vertical partition, prejoin, …) cannot absorb rows
    /// incrementally; the caller then falls back to a full render.
    pub fn append_rows<P: rodentstore_layout::TableProvider + ?Sized>(
        &mut self,
        provider: &P,
    ) -> Result<rodentstore_layout::AppendOutcome> {
        Ok(rodentstore_layout::append_records(&mut self.layout, provider)?)
    }

    /// Estimated cost of a scan under the disk model `cost`, in
    /// milliseconds.
    pub fn scan_cost(&self, request: &ScanRequest, cost: &CostParams) -> Result<f64> {
        self.validate_fields(&request.fields)?;
        let pages = self
            .layout
            .estimate_scan_pages(request.fields.as_deref(), request.predicate.as_ref());
        let page_size = self.layout.pager().page_size();
        // Objects are written to disk in storage order, so objects that are
        // adjacent in that order are physically contiguous. Charge one seek
        // per contiguous *run* of selected objects plus sequential transfer —
        // this is what rewards z-ordered cell layouts, whose selected cells
        // cluster into few runs.
        let selected = self
            .layout
            .objects_to_read(request.fields.as_deref(), request.predicate.as_ref());
        let mut runs = 0usize;
        for (i, &obj) in selected.iter().enumerate() {
            if i == 0 || obj != selected[i - 1] + 1 {
                runs += 1;
            }
        }
        let bytes = pages as f64 * page_size as f64;
        let transfer_ms = bytes / (cost.transfer_mb_per_s * 1024.0 * 1024.0) * 1000.0;
        let mut ms = runs as f64 * cost.seek_ms + transfer_ms;
        // A requested order the layout cannot deliver natively implies an
        // extra in-memory sort; charge a CPU-ish surcharge proportional to
        // the data volume so the optimizer prefers native orders.
        if let Some(order) = &request.order {
            if !self.order_is_native(order) {
                ms += transfer_ms * 0.2;
            }
        }
        Ok(ms)
    }

    /// Estimated number of pages a scan would read.
    pub fn scan_pages(&self, request: &ScanRequest) -> u64 {
        self.layout
            .estimate_scan_pages(request.fields.as_deref(), request.predicate.as_ref())
    }

    /// Estimated cost of a `getElement` call under the disk model `cost`,
    /// in milliseconds.
    pub fn get_element_cost(&self, _index: usize, cost: &CostParams) -> f64 {
        // Positional access touches one object; approximate with one seek
        // plus one page transfer.
        let page_size = self.layout.pager().page_size() as f64;
        cost.seek_ms + page_size / (cost.transfer_mb_per_s * 1024.0 * 1024.0) * 1000.0
    }

    /// `order_list(table)`: sort orders the current storage organization is
    /// efficient for.
    pub fn order_list(&self) -> Vec<Vec<SortKey>> {
        self.layout.order_list()
    }

    fn order_is_native(&self, order: &[SortKey]) -> bool {
        self.order_list().iter().any(|native| {
            native.len() >= order.len()
                && native
                    .iter()
                    .zip(order.iter())
                    .all(|(a, b)| a.field == b.field && a.order == b.order)
        })
    }
}

/// Resolves order keys to positions in `fields` (the shape of the rows to
/// sort). An order key must be part of the projection.
fn order_positions(fields: &[String], order: &[SortKey]) -> Result<Vec<(usize, SortOrder)>> {
    order
        .iter()
        .map(|key| {
            let pos = fields.iter().position(|f| *f == key.field).ok_or_else(|| {
                ExecError::InvalidRequest(format!(
                    "order key `{}` must be part of the projected fields",
                    key.field
                ))
            })?;
            Ok((pos, key.order))
        })
        .collect()
}

/// Stable-sorts `rows`, each holding `fields` in order, by `order`: rows
/// that tie keep their relative order. Fails, sorting nothing, when an order
/// key is not one of `fields` — the rule [`AccessMethods::scan`] applies.
pub fn sort_rows(fields: &[String], rows: &mut [Record], order: &[SortKey]) -> Result<()> {
    sort_by_positions(rows, &order_positions(fields, order)?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodentstore_algebra::schema::{Field, Schema};
    use rodentstore_algebra::types::DataType;
    use rodentstore_algebra::value::Value;
    use rodentstore_algebra::LayoutExpr;
    use rodentstore_layout::{render, MemTableProvider, RenderOptions};
    use rodentstore_storage::pager::Pager;
    use std::sync::Arc;

    fn provider() -> MemTableProvider {
        let schema = Schema::new(
            "Readings",
            vec![
                Field::new("t", DataType::Int),
                Field::new("sensor", DataType::String),
                Field::new("value", DataType::Float),
            ],
        );
        let records = (0..300)
            .map(|i| {
                vec![
                    Value::Int(299 - i),
                    Value::Str(format!("s{}", i % 3)),
                    Value::Float(i as f64 * 0.5),
                ]
            })
            .collect();
        MemTableProvider::single(schema, records)
    }

    fn methods(expr: LayoutExpr) -> AccessMethods {
        let pager = Arc::new(Pager::in_memory_with_page_size(1024));
        let layout = render(&expr, &provider(), pager, RenderOptions::default()).unwrap();
        AccessMethods::new(layout)
    }

    #[test]
    fn scan_with_projection_predicate_and_sort() {
        let am = methods(LayoutExpr::table("Readings"));
        let request = ScanRequest::all()
            .fields(["t", "sensor"])
            .predicate(Condition::eq("sensor", "s1"))
            .order(["t"]);
        let rows = am.scan(&request).unwrap();
        assert_eq!(rows.len(), 100);
        assert!(rows.iter().all(|r| r[1].as_str() == Some("s1")));
        assert!(rows.windows(2).all(|w| w[0][0] <= w[1][0]));
    }

    #[test]
    fn native_order_is_not_resorted_but_is_usable() {
        let am = methods(LayoutExpr::table("Readings").order_by(["t"]));
        assert_eq!(am.order_list().len(), 1);
        let rows = am.scan(&ScanRequest::all().order(["t"])).unwrap();
        assert!(rows.windows(2).all(|w| w[0][0] <= w[1][0]));
    }

    #[test]
    fn cursor_iterates_in_order() {
        let am = methods(LayoutExpr::table("Readings"));
        let mut cursor = am.open_cursor(&ScanRequest::all().fields(["t"])).unwrap();
        let mut count = 0;
        while cursor.next().is_some() {
            count += 1;
        }
        assert_eq!(count, 300);
        assert!(cursor.next().is_none());
        assert!(cursor.take_error().is_none());
    }

    #[test]
    fn native_order_cursors_stream_without_materializing() {
        let am = methods(LayoutExpr::table("Readings"));
        // No order requested: streaming.
        let mut cursor = am.open_cursor(&ScanRequest::all()).unwrap();
        assert!(cursor.is_streaming());
        assert_eq!(cursor.len(), None, "streaming cursors have unknown length");
        assert_eq!(cursor.try_next().unwrap().unwrap().len(), 3);
        cursor.rewind().unwrap();
        assert_eq!(cursor.collect_rows().unwrap().len(), 300);

        // A non-native order forces the one remaining materialization point.
        let sorted = am
            .open_cursor(&ScanRequest::all().fields(["t"]).order(["t"]))
            .unwrap();
        assert!(!sorted.is_streaming());
        assert_eq!(sorted.len(), Some(300));
        assert_eq!(sorted.is_empty(), Some(false));

        // Streaming respects projection and predicates.
        let request = ScanRequest::all()
            .fields(["t", "sensor"])
            .predicate(Condition::eq("sensor", "s1"));
        let mut filtered = am.open_cursor(&request).unwrap();
        assert!(filtered.is_streaming());
        let rows = filtered.collect_rows().unwrap();
        assert_eq!(rows, am.scan(&request).unwrap());

        // Vertically partitioned layouts stream as well: their column
        // groups advance in lock-step, nothing is stitched up front.
        let vertical = methods(
            LayoutExpr::table("Readings").vertical([vec!["t"], vec!["sensor", "value"]]),
        );
        let mut v = vertical.open_cursor(&ScanRequest::all()).unwrap();
        assert!(v.is_streaming());
        assert_eq!(v.len(), None);
        assert_eq!(v.collect_rows().unwrap(), vertical.scan(&ScanRequest::all()).unwrap());
    }

    #[test]
    fn get_element_matches_scan() {
        let am = methods(LayoutExpr::table("Readings"));
        let rows = am.scan(&ScanRequest::all()).unwrap();
        assert_eq!(am.get_element(7, None).unwrap(), rows[7]);
        assert!(am.get_element(10_000, None).is_err());
    }

    #[test]
    fn scan_cost_reflects_projection_savings_on_column_layouts() {
        let am = methods(LayoutExpr::table("Readings").columns(["t", "sensor", "value"]));
        let cost = CostParams::default();
        let full = am.scan_cost(&ScanRequest::all(), &cost).unwrap();
        let narrow = am.scan_cost(&ScanRequest::all().fields(["t"]), &cost).unwrap();
        assert!(narrow < full, "narrow {narrow} vs full {full}");
        assert!(am.scan_pages(&ScanRequest::all().fields(["t"])) < am.scan_pages(&ScanRequest::all()));
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let am = methods(LayoutExpr::table("Readings"));
        assert!(am.scan(&ScanRequest::all().fields(["nope"])).is_err());
        let cost = CostParams::default();
        assert!(am.scan_cost(&ScanRequest::all().fields(["nope"]), &cost).is_err());
    }

    #[test]
    fn get_element_cost_is_positive_and_small() {
        let am = methods(LayoutExpr::table("Readings"));
        let c = am.get_element_cost(5, &CostParams::default());
        assert!(c > 0.0 && c < 100.0);
    }

    #[test]
    fn scan_aggregate_folds_without_materializing() {
        use rodentstore_layout::WindowedAggregate;
        let am = methods(LayoutExpr::table("Readings"));
        let spec = WindowedAggregate::new("t", 100.0, "value");
        let acc = am.scan_aggregate(&spec, None).unwrap();
        assert_eq!(acc.rows_folded(), 300);
        let buckets = acc.finish();
        assert_eq!(buckets.len(), 3);
        assert!(buckets.windows(2).all(|w| w[0].bucket_start < w[1].bucket_start));
        assert_eq!(buckets.iter().map(|b| b.count).sum::<u64>(), 300);
        // Against a predicate, matches the fold of an ordinary scan.
        let pred = Condition::eq("sensor", "s1");
        let filtered = am.scan_aggregate(&spec, Some(&pred)).unwrap();
        let rows = am
            .scan(&ScanRequest::all().fields(["t", "value"]).predicate(pred))
            .unwrap();
        assert_eq!(filtered.rows_folded(), rows.len() as u64);
        // Unknown fields are rejected up front.
        assert!(am
            .scan_aggregate(&WindowedAggregate::new("nope", 1.0, "value"), None)
            .is_err());
    }
}
