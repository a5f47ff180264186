//! Reads: pinned snapshots and everything served from them — scans,
//! windowed folds, cursors, positional access, cost estimates and
//! `explain`.

use super::*;
use crate::monitor::WorkloadProfile;
use rodentstore_algebra::comprehension::Condition;
use rodentstore_algebra::expr::SortKey;
use rodentstore_algebra::schema::Schema;
use rodentstore_algebra::value::Record;
use rodentstore_exec::{Cursor, ScanRequest, WindowAccumulator, WindowRow, WindowedAggregate};
use rodentstore_layout::{PhysicalLayout, RowTail, ScanPlan};
use rodentstore_obs::JsonWriter;
use rodentstore_storage::stats::OpStatsScope;
use std::time::Instant;

/// A pinned, immutable view of one table at a point in time: the canonical
/// rows, the pending range, and the rendered layout as they were when the
/// snapshot was taken. Produced by [`Database::snapshot`] with **no lock**
/// — pinning is an epoch pin plus atomic loads — and concurrent layout
/// swaps, inserts, or checkpoints never affect it: the pinned state is
/// immutable, and the epoch scheme keeps its pages alive until the snapshot
/// is dropped. This is what keeps scans consistent (and scalable) while the
/// system adapts underneath them.
pub struct TableSnapshot {
    state: Arc<TableState>,
    cost_params: CostParams,
}

impl Database {
    /// Pins a consistent snapshot of a table — rendering the declared
    /// layout or absorbing pending rows first if needed. The pin itself is
    /// lock-free (an epoch pin plus atomic loads); queries served from it
    /// never block on (and are never corrupted by) concurrent inserts,
    /// layout swaps, adaptation, or checkpoints.
    pub fn snapshot(&self, table: &str) -> Result<TableSnapshot> {
        Ok(self.pin_rendered(table)?.1)
    }

    /// [`Database::snapshot`], handing back the table's slot too, so a
    /// query resolves it once.
    fn pin_rendered(&self, table: &str) -> Result<(Arc<TableSlot>, TableSnapshot)> {
        let slot = self.slot(table)?;
        self.render_slot(table, &slot)?;
        let snapshot = TableSnapshot {
            state: self.pin_state(&slot),
            cost_params: self.config_snapshot().cost_params,
        };
        Ok((slot, snapshot))
    }

    /// Records a read into the table's profile (see [`Database::profile`])
    /// unless `request` references a field the table does not have: such a
    /// read errors anyway, and a poisoned template would make every later
    /// advisor run fail on the unknown field.
    fn profile_read(
        &self,
        slot: &TableSlot,
        snapshot: &TableSnapshot,
        request: &ScanRequest,
        record: impl FnOnce(&mut WorkloadProfile),
    ) -> bool {
        let known = references_only(snapshot.schema(), request);
        self.profile(slot, |profile| {
            if known {
                record(profile);
            }
        })
    }

    /// Scans a table. Tables without a declared layout are scanned from their
    /// canonical row-major representation; tables with a layout use the
    /// rendered objects (rendering lazily if necessary). Under the
    /// new-data-only strategy, rows inserted after the layout was declared
    /// are appended from the row buffer, and a requested sort order sorts
    /// the combined result, so it is globally ordered.
    ///
    /// Every scan is recorded into the table's live workload profile; in
    /// auto-adapt mode, every [`AdaptivePolicy::check_every`]-th query also
    /// runs the adaptation check after serving the scan.
    pub fn scan(&self, table: &str, request: &ScanRequest) -> Result<Vec<Record>> {
        let (slot, snapshot) = self.pin_rendered(table)?;
        let check_due = self.profile_read(&slot, &snapshot, request, |p| p.record_scan(request));
        let ((rows, plan), op) = self.instrumented_scan(|| snapshot.scan_planned(request))?;
        if let Some(op) = op {
            self.obs.ins.scan_rows.add(rows.len() as u64);
            // The prediction of the plan the scan ran — 0 when memory served
            // it. The plan kept the tree pages its index probe read, so
            // predicting reads no page.
            let predicted = plan.as_ref().map_or(0, ScanPlan::predicted_pages);
            slot.predicted_pages_total.fetch_add(predicted, Ordering::Relaxed);
            slot.actual_pages_total.fetch_add(op.pages_read, Ordering::Relaxed);
            slot.calibration_samples.fetch_add(1, Ordering::Relaxed);
        }
        drop(plan);
        drop(snapshot); // release the pin before adaptation may re-render
        if check_due {
            self.auto_adapt_check(table)?;
        }
        Ok(rows)
    }
    /// Runs one read of a scan or an aggregate. When recording, the read
    /// runs under a per-operation I/O scope — the pager mirrors this
    /// thread's reads into the scope, so `scan.pages` (the paper's headline
    /// metric) counts exactly the pages *this* read did, whatever concurrent
    /// readers sharing the pager do — and its counts feed the `scan.*`
    /// instruments. Returns the scope's counts when recording.
    fn instrumented_scan<T>(
        &self,
        read: impl FnOnce() -> Result<T>,
    ) -> Result<(T, Option<IoSnapshot>)> {
        let recording = self
            .obs
            .enabled()
            .then(|| (Instant::now(), OpStatsScope::enter()));
        let out = read()?;
        let Some((started, scope)) = recording else {
            return Ok((out, None));
        };
        let op = scope.stats().snapshot();
        drop(scope);
        let ins = &self.obs.ins;
        ins.scan_count.incr();
        ins.scan_pages.add(op.pages_read);
        ins.scan_frame_hits.add(op.frame_hits);
        ins.scan_frame_copies.add(op.frame_copies);
        ins.scan_chunks.add(op.chunks);
        ins.scan_chunks_pruned.add(op.chunks_pruned);
        ins.scan_blocks_skipped.add(op.blocks_skipped);
        ins.scan_micros.record(started.elapsed().as_micros() as u64);
        Ok((out, Some(op)))
    }

    /// Folds a table's rows into fixed-width buckets (`count/sum/min/max`
    /// grouped by `floor(bucket_field / bucket_width)`) without materializing
    /// a result set. The fold is pushed into the scan: it reads exactly the
    /// pages a projected scan of the two fields would read, and on the
    /// borrowed-frame row path no output row is ever allocated. Pending rows
    /// not yet absorbed into the layout are folded from the snapshot's row
    /// buffers, so the result always reflects the full table.
    ///
    /// Folded rows are recorded under `scan.agg_rows_folded` (not
    /// `scan.rows`, which counts materialized rows only); the query feeds
    /// the workload profile and adaptation loop exactly like a projected
    /// scan of the bucket and value fields.
    pub fn scan_aggregate(
        &self,
        table: &str,
        spec: &WindowedAggregate,
        predicate: Option<&Condition>,
    ) -> Result<Vec<WindowRow>> {
        let (slot, snapshot) = self.pin_rendered(table)?;
        // Profile the query as the projected scan it replaces.
        let request = aggregate_request(spec, predicate);
        let check_due = self.profile_read(&slot, &snapshot, &request, |p| p.record_scan(&request));
        let (acc, op) = self.instrumented_scan(|| snapshot.scan_aggregate(spec, predicate))?;
        if op.is_some() {
            self.obs.ins.scan_agg_rows_folded.add(acc.rows_folded());
        }
        drop(snapshot);
        if check_due {
            self.auto_adapt_check(table)?;
        }
        Ok(acc.finish())
    }

    /// Opens a (materialized) cursor over a scan. The facade merges freshly
    /// inserted pending rows into layout scans, so the merged result is
    /// materialized here; use [`TableSnapshot::open_cursor`] on a pinned
    /// snapshot for a streaming cursor.
    pub fn open_cursor(&self, table: &str, request: &ScanRequest) -> Result<Cursor<'static>> {
        // Profiling (and the auto-adapt hook) happens inside `scan`.
        Ok(Cursor::new(self.scan(table, request)?))
    }

    /// Returns the element at `index` of the table's stored representation
    /// (layout storage order first, then any pending row buffer).
    pub fn get_element(
        &self,
        table: &str,
        index: usize,
        fields: Option<&[String]>,
    ) -> Result<Record> {
        let (slot, snapshot) = self.pin_rendered(table)?;
        let check_due = self.profile_read(&slot, &snapshot, &fields_request(fields), |p| {
            p.record_get_element(fields)
        });
        let element = snapshot.get_element(index, fields)?;
        if self.obs.enabled() {
            self.obs.ins.get_element_count.incr();
        }
        drop(snapshot);
        if check_due {
            self.auto_adapt_check(table)?;
        }
        Ok(element)
    }

    /// Estimated cost of a scan in milliseconds (the `scan_cost` access
    /// method). Tables without a rendered layout — or requests the layout
    /// cannot serve (fields it projected away) — report a cost proportional
    /// to their canonical size.
    pub fn scan_cost(&self, table: &str, request: &ScanRequest) -> Result<f64> {
        self.snapshot(table)?.scan_cost(request)
    }

    /// Estimated number of pages a scan would read (0 when the scan would be
    /// served from the in-memory canonical rows).
    pub fn scan_pages(&self, table: &str, request: &ScanRequest) -> Result<u64> {
        self.snapshot(table)?.scan_pages(request)
    }

    /// Explains how a scan would be served *without running it*: the chosen
    /// access path, the predicted page count (the same
    /// `estimate_scan_pages` number the cost model uses — compare with the
    /// `calibration.<table>.*` metrics for how honest it is), and how much
    /// auxiliary merging (levelled-tier runs, memtable rows, pending buffer
    /// rows) the scan would fold in.
    pub fn explain(&self, table: &str, request: &ScanRequest) -> Result<Explain> {
        let snapshot = self.snapshot(table)?;
        let mut explain = Explain {
            table: table.to_string(),
            layout_expr: snapshot.state.layout_expr.as_ref().map(|e| e.to_string()),
            access_path: AccessPath::Canonical,
            predicted_pages: 0,
            lsm_runs_total: 0,
            lsm_runs_pruned: 0,
            lsm_memtable_rows: 0,
            pending_rows: snapshot.state.pending.len() as u64,
        };
        let Some(access) = snapshot.serving(request) else {
            return Ok(explain);
        };
        let layout = access.layout();
        let fields = request.fields.as_deref();
        let predicate = request.predicate.as_ref();
        // Mirror the scan dispatch exactly: opening the iterator is what
        // decides between the streaming and probing paths, and which lsm
        // runs the predicate prunes.
        let iter = layout.scan_iter(fields, predicate)?;
        explain.access_path = if iter.uses_index() {
            AccessPath::IndexProbe
        } else {
            AccessPath::Streaming
        };
        explain.lsm_runs_pruned = iter.lsm_runs_pruned() as u64;
        drop(iter);
        if let Some(lsm) = &layout.lsm {
            explain.lsm_runs_total = lsm.runs.len() as u64;
            explain.lsm_memtable_rows = lsm.memtable.len() as u64;
        }
        explain.predicted_pages = layout.estimate_scan_pages(fields, predicate);
        Ok(explain)
    }

    /// The sort orders the table's current organization is efficient for.
    pub fn order_list(&self, table: &str) -> Result<Vec<Vec<SortKey>>> {
        let snapshot = self.snapshot(table)?;
        Ok(snapshot.state.access.as_ref().map(|a| a.order_list()).unwrap_or_default())
    }
}

impl TableSnapshot {
    /// The table's logical schema.
    pub fn schema(&self) -> &Schema {
        &self.state.schema
    }

    /// Number of logical rows visible to this snapshot.
    pub fn row_count(&self) -> usize {
        self.state.records.len()
    }

    /// The pinned rendered layout, if the table had one when the snapshot
    /// was taken.
    pub fn layout(&self) -> Option<&PhysicalLayout> {
        self.state.access.as_deref().map(AccessMethods::layout)
    }

    /// A [`RowTail`] over rows in the canonical schema's shape — the
    /// pending buffer or the canonical rows — yielding `out_fields` of the
    /// rows matching `predicate`.
    fn tail<'s, I: Iterator<Item = &'s Record>>(
        &self,
        rows: I,
        out_fields: &[String],
        predicate: Option<&Condition>,
    ) -> Result<RowTail<I>> {
        let schema = &self.state.schema;
        Ok(RowTail::new(
            rows,
            &schema.field_names(),
            schema.name(),
            out_fields,
            predicate,
        )?)
    }

    /// Scans the snapshot. Tables without a declared layout are scanned
    /// from their canonical rows; tables with a layout use the pinned
    /// rendered objects, with any pending rows appended after the layout's
    /// rows in the layout's output shape. In-memory rows (canonical or
    /// pending) are filtered and projected by one [`RowTail`], and a
    /// requested order sorts the whole result once, stably — so on ties
    /// layout rows come before pending rows. No database lock is held.
    pub fn scan(&self, request: &ScanRequest) -> Result<Vec<Record>> {
        self.scan_planned(request).map(|(rows, _)| rows)
    }

    /// The pinned rendering, when it can serve `request`: a layout can only
    /// serve requests over the fields it kept. A query referencing a field
    /// the (possibly auto-adapted) layout projected away falls back to the
    /// canonical rows — and, having been recorded in the profile, steers
    /// the next adaptation back toward a layout that covers it.
    fn serving(&self, request: &ScanRequest) -> Option<&AccessMethods> {
        let access = self.state.access.as_deref()?;
        references_only(&access.layout().schema, request).then_some(access)
    }

    /// [`TableSnapshot::scan`], handing back the read plan of the layout
    /// scan that served it too (`None` when memory served it), whose
    /// predicted pages are what [`TableSnapshot::scan_pages`] estimates.
    fn scan_planned(&self, request: &ScanRequest) -> Result<(Vec<Record>, Option<ScanPlan<'_>>)> {
        let state = &self.state;
        let (mut rows, plan, shape, in_memory) = match self.serving(request) {
            Some(access) => {
                let (rows, plan) = access.scan_planned(request)?;
                if state.pending.is_empty() {
                    return Ok((rows, Some(plan)));
                }
                let pending = state.records.iter_from(state.pending.start);
                (rows, Some(plan), &access.layout().schema, pending)
            }
            None => (Vec::new(), None, &state.schema, state.records.iter_from(0)),
        };
        let out_fields = request
            .fields
            .clone()
            .unwrap_or_else(|| shape.field_names());
        for row in self.tail(in_memory, &out_fields, request.predicate.as_ref())? {
            rows.push(row?);
        }
        if let Some(order) = &request.order {
            rodentstore_exec::sort_rows(&out_fields, &mut rows, order)?;
        }
        Ok((rows, plan))
    }

    /// Folds the snapshot's rows into fixed-width buckets without
    /// materializing a result set. Dispatch mirrors [`TableSnapshot::scan`]:
    /// a layout that serves the (bucket, value) projection folds inside its
    /// scan (zero rows materialized on the borrowed row path) and pending
    /// rows fold after it; everything else folds from the canonical rows.
    /// In-memory rows fold in place through a [`RowTail`].
    pub fn scan_aggregate(
        &self,
        spec: &WindowedAggregate,
        predicate: Option<&Condition>,
    ) -> Result<WindowAccumulator> {
        spec.validate()?;
        let rows = &self.state.records;
        let (mut acc, in_memory) = match self.serving(&aggregate_request(spec, predicate)) {
            Some(access) => (
                access.scan_aggregate(spec, predicate)?,
                rows.iter_from(self.state.pending.start),
            ),
            None => (WindowAccumulator::new(spec), rows.iter_from(0)),
        };
        let fields = [spec.bucket_field.clone(), spec.value_field.clone()];
        self.tail(in_memory, &fields, predicate)?
            .fold_into(&mut acc, 0, 1)?;
        Ok(acc)
    }

    /// Opens a cursor over the snapshot. When the pinned layout can serve
    /// the request natively and no pending rows need merging, the cursor
    /// *streams* — tuples decode from pages on demand, borrowing from the
    /// snapshot (not from the database, so concurrent writers are never
    /// blocked). Otherwise the merged result is materialized.
    pub fn open_cursor(&self, request: &ScanRequest) -> Result<Cursor<'_>> {
        match self.serving(request) {
            Some(access) if self.state.pending.is_empty() => Ok(access.open_cursor(request)?),
            _ => Ok(Cursor::new(self.scan(request)?)),
        }
    }

    /// Returns the element at `index` of the snapshot's stored
    /// representation (layout storage order first, then any pending row
    /// buffer).
    pub fn get_element(&self, index: usize, fields: Option<&[String]>) -> Result<Record> {
        let state = &self.state;
        // Fields the layout projected away are served from the canonical
        // rows (in canonical order — a storage order over fields the layout
        // does not store is not meaningful).
        let (shape, in_memory) = match self.serving(&fields_request(fields)) {
            Some(access) => {
                // Pending rows (new-data-only buffer) extend the storage
                // order past the rendered representation, projected to the
                // layout's exposed fields so the record shape does not
                // change at the layout/pending boundary.
                let layout_rows = access.layout().row_count;
                match index.checked_sub(layout_rows) {
                    Some(i) if i < state.pending.len() => (
                        &access.layout().schema,
                        state.records.iter_from(state.pending.start + i),
                    ),
                    _ => return Ok(access.get_element(index, fields)?),
                }
            }
            None => (&state.schema, state.records.iter_from(index)),
        };
        let out_fields = fields.map_or_else(|| shape.field_names(), <[String]>::to_vec);
        self.tail(in_memory.take(1), &out_fields, None)?
            .next()
            .transpose()?
            .ok_or_else(|| RodentError::Invalid(format!("element {index} out of range")))
    }

    /// Estimated cost of a scan over this snapshot, in milliseconds.
    pub fn scan_cost(&self, request: &ScanRequest) -> Result<f64> {
        if let Some(access) = self.serving(request) {
            return Ok(access.scan_cost(request, &self.cost_params)?);
        }
        let bytes =
            self.state.records.len() as f64 * self.state.schema.estimated_record_width() as f64;
        Ok(self.cost_params.seek_ms
            + bytes / (self.cost_params.transfer_mb_per_s * 1024.0 * 1024.0) * 1000.0)
    }

    /// Estimated number of pages a scan over this snapshot would read.
    pub fn scan_pages(&self, request: &ScanRequest) -> Result<u64> {
        Ok(self.serving(request).map_or(0, |access| access.scan_pages(request)))
    }
}

/// The access path [`Database::explain`] predicts a scan would take —
/// mirroring the dispatch [`TableSnapshot::scan`] actually performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Served from the in-memory canonical rows: no rendered layout, or the
    /// layout projected away a field the request references.
    Canonical,
    /// Streamed from the rendered layout's pages in storage order,
    /// decoding on demand.
    Streaming,
    /// The declared index covers the predicate: tree probe plus targeted
    /// heap page reads.
    IndexProbe,
}

impl AccessPath {
    /// Stable machine-readable name (the JSON `"access_path"` field).
    pub fn name(&self) -> &'static str {
        match self {
            AccessPath::Canonical => "canonical",
            AccessPath::Streaming => "streaming",
            AccessPath::IndexProbe => "index_probe",
        }
    }
}

/// What [`Database::explain`] reports about a prospective scan.
#[derive(Debug, Clone, PartialEq)]
pub struct Explain {
    /// Table the request targets.
    pub table: String,
    /// The declared layout expression, if any.
    pub layout_expr: Option<String>,
    /// The predicted access path.
    pub access_path: AccessPath,
    /// Pages the cost model predicts the scan reads
    /// (`estimate_scan_pages`; 0 for canonical scans, which touch no
    /// pages). Compare against the `calibration.<table>.*` metrics.
    pub predicted_pages: u64,
    /// Sealed levelled-tier runs in the pinned state.
    pub lsm_runs_total: u64,
    /// Runs the predicate's key range proves irrelevant (skipped without
    /// reading a page).
    pub lsm_runs_pruned: u64,
    /// Rows buffered in the tier's in-memory memtable.
    pub lsm_memtable_rows: u64,
    /// Rows in the new-data-only pending buffer the scan would merge in.
    pub pending_rows: u64,
}

impl Explain {
    /// Serializes the explanation as one JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.str_field("table", &self.table);
        match &self.layout_expr {
            Some(expr) => w.str_field("layout_expr", expr),
            None => w.raw_field("layout_expr", "null"),
        };
        w.str_field("access_path", self.access_path.name())
            .u64_field("predicted_pages", self.predicted_pages)
            .u64_field("lsm_runs_total", self.lsm_runs_total)
            .u64_field("lsm_runs_pruned", self.lsm_runs_pruned)
            .u64_field("lsm_memtable_rows", self.lsm_memtable_rows)
            .u64_field("pending_rows", self.pending_rows);
        w.finish()
    }
}

/// Whether every field `request` references — projected, in its
/// predicate, or an order key — is a field of `schema`.
fn references_only(schema: &Schema, request: &ScanRequest) -> bool {
    let known = |field: &String| schema.index_of(field).is_ok();
    request.fields.iter().flatten().all(known)
        && request
            .predicate
            .as_ref()
            .map_or(true, |p| p.referenced_fields().iter().all(known))
        && request.order.iter().flatten().all(|k| known(&k.field))
}

/// The projected scan a windowed fold replaces: its bucket and value
/// fields, filtered by `predicate`.
fn aggregate_request(spec: &WindowedAggregate, predicate: Option<&Condition>) -> ScanRequest {
    ScanRequest {
        predicate: predicate.cloned(),
        ..ScanRequest::all().fields([&spec.bucket_field, &spec.value_field])
    }
}

/// The request positional access serves: `fields`, or every field.
fn fields_request(fields: Option<&[String]>) -> ScanRequest {
    ScanRequest {
        fields: fields.map(<[String]>::to_vec),
        ..ScanRequest::all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::tests::small_db;
    use crate::reorg::ReorgStrategy;
    use rodentstore_algebra::expr::LayoutExpr;
    use rodentstore_algebra::value::Value;
    use rodentstore_workload::{generate_traces, traces_schema, CartelConfig};

    #[test]
    fn set_cost_params_reaches_rendered_tables() {
        let db = small_db();
        db.apply_layout_text("Traces", "columns(Traces)").unwrap();
        let request = ScanRequest::all();
        db.scan("Traces", &request).unwrap();
        let before = db.scan_cost("Traces", &request).unwrap();
        let slow = CostParams {
            seek_ms: 800.0,
            transfer_mb_per_s: 1.2,
        };
        db.set_cost_params(slow);
        let after = db.scan_cost("Traces", &request).unwrap();
        assert!(after > before * 50.0, "{before} ms before, {after} ms after");
    }

    #[test]
    fn scan_without_layout_uses_canonical_rows() {
        let db = small_db();
        let rows = db.scan("Traces", &ScanRequest::all()).unwrap();
        assert_eq!(rows.len(), 1_500);
        let narrow = db
            .scan("Traces", &ScanRequest::all().fields(["lat"]))
            .unwrap();
        assert!(narrow.iter().all(|r| r.len() == 1));
    }

    #[test]
    fn new_data_only_strategy_merges_pending_rows() {
        let db = small_db();
        db.apply_layout(
            "Traces",
            LayoutExpr::table("Traces").project(["lat", "lon"]),
            ReorgStrategy::NewDataOnly,
        )
        .unwrap();
        let before = db.scan("Traces", &ScanRequest::all()).unwrap().len();
        db.insert(
            "Traces",
            vec![vec![
                Value::Timestamp(10_000),
                Value::Float(42.31),
                Value::Float(-71.06),
                Value::Str("car-new".into()),
            ]],
        )
        .unwrap();
        let after = db.scan("Traces", &ScanRequest::all()).unwrap().len();
        assert_eq!(after, before + 1);
        // The pending row is still buffered, not folded into the layout.
        assert_eq!(db.catalog().get("Traces").unwrap().pending.len(), 1);
    }

    #[test]
    fn get_element_and_order_list() {
        let db = small_db();
        db.apply_layout(
            "Traces",
            LayoutExpr::table("Traces").order_by(["t"]),
            ReorgStrategy::Eager,
        )
        .unwrap();
        let first = db.get_element("Traces", 0, None).unwrap();
        assert_eq!(first.len(), 4);
        let orders = db.order_list("Traces").unwrap();
        assert_eq!(orders.len(), 1);
        assert_eq!(orders[0][0].field, "t");
    }

    #[test]
    fn new_data_only_merges_pending_rows_order_aware() {
        let db = small_db();
        db.apply_layout(
            "Traces",
            LayoutExpr::table("Traces").project(["t", "lat"]),
            ReorgStrategy::NewDataOnly,
        )
        .unwrap();
        // A pending row whose timestamp sorts *before* every layout row.
        db.insert(
            "Traces",
            vec![vec![
                Value::Timestamp(-5),
                Value::Float(42.0),
                Value::Float(-71.0),
                Value::Str("car-early".into()),
            ]],
        )
        .unwrap();
        let rows = db
            .scan("Traces", &ScanRequest::all().fields(["t", "lat"]).order(["t"]))
            .unwrap();
        assert_eq!(rows.len(), 1_501);
        assert_eq!(rows[0][0], Value::Timestamp(-5), "pending row merged into place");
        assert!(
            rows.windows(2).all(|w| w[0][0] <= w[1][0]),
            "merged result must be globally ordered"
        );
    }

    #[test]
    fn ordered_scan_over_projection_layout_merges_pending_in_layout_shape() {
        let db = small_db();
        // The layout exposes only [lat, lon]; order key positions must be
        // resolved against that shape, not the 4-field canonical schema.
        db.apply_layout(
            "Traces",
            LayoutExpr::table("Traces").project(["lat", "lon"]),
            ReorgStrategy::NewDataOnly,
        )
        .unwrap();
        db.insert(
            "Traces",
            vec![vec![
                Value::Timestamp(10_004),
                Value::Float(-90.0), // sorts before every generated lat
                Value::Float(0.0),
                Value::Str("car-south".into()),
            ]],
        )
        .unwrap();
        let rows = db
            .scan("Traces", &ScanRequest::all().order(["lat"]))
            .unwrap();
        assert_eq!(rows.len(), 1_501);
        assert!(rows.iter().all(|r| r.len() == 2), "uniform layout shape");
        assert_eq!(rows[0][0], Value::Float(-90.0), "pending row merged first");
        assert!(rows.windows(2).all(|w| w[0][0] <= w[1][0]));
    }

    #[test]
    fn order_keys_outside_the_projection_are_rejected_on_every_path() {
        let db = Database::with_page_size(2048);
        db.create_table(traces_schema()).unwrap();
        let rows = generate_traces(&CartelConfig {
            observations: 300,
            vehicles: 5,
            ..CartelConfig::default()
        });
        db.insert("Traces", rows.clone()).unwrap();
        let request = ScanRequest::all().fields(["lat"]).order(["t"]);
        let rejected = |db: &Database, path: &str| match db.scan("Traces", &request) {
            Err(RodentError::Exec(rodentstore_exec::ExecError::InvalidRequest(msg))) => {
                assert_eq!(msg, "order key `t` must be part of the projected fields", "{path}")
            }
            other => panic!("{path}: expected the order-key error, got {other:?}"),
        };
        rejected(&db, "canonical");
        db.apply_layout_text("Traces", "Traces").unwrap();
        rejected(&db, "layout");
        db.apply_layout(
            "Traces",
            LayoutExpr::table("Traces"),
            ReorgStrategy::NewDataOnly,
        )
        .unwrap();
        db.insert("Traces", rows[..5].to_vec()).unwrap();
        assert_eq!(db.explain("Traces", &request).unwrap().pending_rows, 5);
        rejected(&db, "pending");
        // With the key projected, every path sorts.
        let ordered = db
            .scan("Traces", &ScanRequest::all().fields(["t", "lat"]).order(["t"]))
            .unwrap();
        assert_eq!(ordered.len(), 305);
        assert!(ordered.windows(2).all(|w| w[0][0] <= w[1][0]));
    }

    #[test]
    fn get_element_reaches_pending_rows() {
        let db = small_db();
        db.apply_layout(
            "Traces",
            LayoutExpr::table("Traces").project(["lat", "lon"]),
            ReorgStrategy::NewDataOnly,
        )
        .unwrap();
        db.insert(
            "Traces",
            vec![vec![
                Value::Timestamp(10_003),
                Value::Float(1.5),
                Value::Float(2.5),
                Value::Str("car-pending".into()),
            ]],
        )
        .unwrap();
        // Index 1500 is past the rendered layout (1500 rows) → pending row,
        // shaped like the layout's output ([lat, lon]) — the record shape
        // must not change at the layout/pending boundary.
        let row = db.get_element("Traces", 1_500, None).unwrap();
        assert_eq!(row, vec![Value::Float(1.5), Value::Float(2.5)]);
        assert_eq!(row.len(), db.get_element("Traces", 0, None).unwrap().len());
        let narrow = db
            .get_element("Traces", 1_500, Some(&["lon".to_string()]))
            .unwrap();
        assert_eq!(narrow, vec![Value::Float(2.5)]);
        assert!(db.get_element("Traces", 1_501, None).is_err());
    }

    #[test]
    fn dropped_fields_are_served_from_canonical_rows() {
        let db = small_db();
        // The layout keeps only lat/lon; t and id are projected away.
        db.apply_layout(
            "Traces",
            LayoutExpr::table("Traces").project(["lat", "lon"]),
            ReorgStrategy::Eager,
        )
        .unwrap();
        let ts = db
            .scan("Traces", &ScanRequest::all().fields(["t"]))
            .unwrap();
        assert_eq!(ts.len(), 1_500, "dropped field served from canonical rows");
        let filtered = db
            .scan(
                "Traces",
                &ScanRequest::all()
                    .fields(["lat"])
                    .predicate(Condition::eq("id", "car-00001")),
            )
            .unwrap();
        assert!(!filtered.is_empty(), "predicate on dropped field still works");
        assert_eq!(db.scan_pages("Traces", &ScanRequest::all().fields(["t"])).unwrap(), 0);
        assert!(db.scan_cost("Traces", &ScanRequest::all().fields(["t"])).unwrap() > 0.0);
        let elem = db
            .get_element("Traces", 3, Some(&["t".to_string(), "id".to_string()]))
            .unwrap();
        assert_eq!(elem.len(), 2);
        // Truly unknown fields still error.
        assert!(db.scan("Traces", &ScanRequest::all().fields(["nope"])).is_err());
    }
}
