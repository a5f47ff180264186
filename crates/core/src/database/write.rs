//! Writes: creating and dropping tables, inserting rows, and rolling back
//! an insert whose commit failed.

use super::*;
use crate::durability;
use crate::monitor::WorkloadProfile;
use crate::reorg::ReorgStrategy;
use rodentstore_algebra::schema::Schema;
use rodentstore_algebra::value::Record;
use std::time::Instant;

impl Database {
    /// Creates a table from its logical schema.
    pub fn create_table(&self, schema: Schema) -> Result<()> {
        let _fence = self.mutation_fence();
        let _structural = self.registry.structural.lock();
        self.reap_retired();
        let mut entries = {
            let guard = self.epochs.pin();
            let map = self.registry.load(&guard);
            if map.get(schema.name()).is_some() {
                return Err(RodentError::TableExists(schema.name().to_string()));
            }
            map.entries.clone()
        };
        // Commit before applying: the map publication cannot fail after the
        // existence pre-check, so a commit-record failure leaves nothing
        // applied (and a crash after the commit is healed by replay).
        self.log_op_committed(|| durability::encode_create_table(&schema))?;
        entries.push((
            schema.name().to_string(),
            Arc::new(TableSlot::new(schema)),
        ));
        self.publish_map(TableMap { entries }, Vec::new());
        Ok(())
    }

    /// Drops a table. Its rendered pages are returned to the pager's free
    /// list for reuse once no in-flight reader pins them; its canonical
    /// pages, which no reader touches, once the next checkpoint's manifest
    /// stops referencing them.
    pub fn drop_table(&self, table: &str) -> Result<()> {
        let _fence = self.mutation_fence();
        let _structural = self.registry.structural.lock();
        self.reap_retired();
        let slot = self.slot(table)?;
        // Hold the slot's writer mutex across the drop: a concurrent insert
        // on this table either publishes (and WAL-logs) before our drop
        // record, or blocks here and fails the currency re-check after the
        // map swap — its rows can never apply to a slot whose drop is
        // already logged ahead of them.
        let _w = slot.writer.lock();
        // Commit-before-apply, as in `create_table`: the drop is infallible
        // after the existence pre-check.
        self.log_op_committed(|| durability::encode_drop_table(table))?;
        let mut state = (*self.pin_state(&slot)).clone();
        let entries = {
            let guard = self.epochs.pin();
            self.registry
                .load(&guard)
                .entries
                .iter()
                .filter(|(name, _)| name != table)
                .cloned()
                .collect()
        };
        // The dropped state stays reachable through the retired map until
        // old pins drain; its rendering's pages follow the same clock.
        let retire = RetiredAccess::whole_chain(&mut state);
        self.publish_map(TableMap { entries }, retire.into_iter().collect());
        // The on-disk manifest may still reference the canonical extent
        // (live, and when this drop is replayed from the WAL), so it
        // quarantines rather than frees.
        let canonical = slot.canonical.lock().take();
        if let Some(store) = canonical {
            self.quarantine(store.into_pages());
        }
        Ok(())
    }

    /// Inserts records into a table. If a layout is declared with the eager
    /// strategy, the rows are absorbed into the rendered representation
    /// immediately — *incrementally* where the layout shape allows (new heap
    /// records, column blocks, grid cells, or per-group vertical rows
    /// appended to a private fork of the rendering), falling back to a full
    /// re-render only for shapes that cannot take appends (fold, prejoin,
    /// limit). The lazy strategy defers the same absorption to the next
    /// access; with the new-data-only strategy the records are kept in a
    /// separate row-oriented buffer that scans merge in.
    ///
    /// Absorption and re-rendering happen *aside*, on state no reader can
    /// see, and land as one atomic publication — concurrent scans of this
    /// table keep streaming from the previous rendering throughout.
    ///
    /// On a durable database the rows are committed to the WAL *before*
    /// anything is published (write-ahead logging); how quickly the commit
    /// reaches the disk platter is governed by the
    /// [`rodentstore_storage::SyncPolicy`] chosen at create/open time.
    pub fn insert(&self, table: &str, records: Vec<Record>) -> Result<()> {
        let inserted = records.len();
        let started = self.obs.enabled().then(Instant::now);
        let mut laps = Laps(started);
        let ins = &self.obs.ins;
        // Durable inserts hold the commit fence (shared side) from before
        // the rows apply until the commit resolves, so a checkpoint can
        // never persist rows whose commit might still fail and roll back.
        // Uncontended except while a checkpoint runs.
        let _fence = self.mutation_fence();
        let slot = self.slot(table)?;
        let (tx, records_before, queue) = {
            let _w = self.lock_writer(table, &slot)?;
            laps.mark();
            self.reap_retired();
            laps.lap(&ins.insert_phase_reap_micros);
            let state = self.pin_state(&slot);
            for r in &records {
                state.schema.validate_record(r)?;
            }
            let records_before = state.records.len();
            laps.mark();
            let tx = self.log_op_begin(|| durability::encode_insert(table, &records))?;
            laps.lap(&ins.insert_phase_wal_append_micros);
            if let Err(e) = self.insert_applied(&slot, &state, table, records, &mut laps) {
                self.log_op_abort(tx);
                return Err(e);
            }
            // Durable inserts resolve in apply order (see `CommitQueue`):
            // take the ticket while still holding the writer mutex, so
            // ticket order ≡ row-position order.
            let queue = tx.map(|_| {
                let queue = Arc::clone(&slot.commit_queue);
                let (ticket, removed_at_apply) = queue.take_ticket();
                (queue, ticket, removed_at_apply)
            });
            (tx, records_before, queue)
        };
        // Commit *outside* the writer mutex: under durable policies the
        // commit can fsync (and, with `SyncPolicy::GroupDurable`, park on a
        // shared fsync with other committers) — later writers of this table
        // must not queue behind the disk, and readers never waited in the
        // first place. WAL replay order still matches application order
        // because op records are appended while the writer mutex is held.
        laps.mark();
        let commit_result = self.log_op_commit(tx);
        if let Some((queue, ticket, removed_at_apply)) = queue {
            // Resolve in apply order: every earlier insert has confirmed or
            // rolled back by now, and `removed_since` rows — all positioned
            // before ours — are gone, shifting our rows down by exactly
            // that much.
            let removed_since = queue.await_turn(ticket, removed_at_apply);
            match &commit_result {
                Ok(()) => queue.finish(ticket, 0),
                Err(_) => {
                    // The commit's sync failed — but its *record* may have
                    // reached the log before the failure, and could still
                    // become durable. Compensate with an abort record
                    // (aborts void a transaction even after a commit
                    // record), then roll the live state back to match what
                    // recovery will now replay.
                    self.log_op_abort(tx);
                    let start = records_before.saturating_sub(removed_since as usize);
                    self.rollback_insert(table, &slot, start, inserted, &queue, ticket);
                }
            }
        }
        laps.lap(&ins.insert_phase_commit_micros);
        commit_result?;
        // Inserts feed the profile the way queries do: the decayed write
        // weight is what lets the advisor propose — and later retire — the
        // levelled tier, and a write flood must be able to trip the
        // auto-adaptation check without a single read in between. Replay
        // re-records too (reconstructing the post-checkpoint in-memory
        // weight) but never re-runs the advisor: the adaptations it decided
        // are already in the log as `ApplyLayout` ops.
        let check_due = self.profile(&slot, WorkloadProfile::record_insert);
        if let Some(started) = started {
            self.obs.ins.insert_batches.incr();
            self.obs.ins.insert_rows.add(inserted as u64);
            self.obs
                .ins
                .insert_micros
                .record(started.elapsed().as_micros() as u64);
        }
        if check_due && !self.replaying.load(Ordering::SeqCst) {
            // The check may re-declare the layout, which takes the commit
            // fence itself — release ours first (read-reacquisition would
            // deadlock behind a waiting checkpoint).
            drop(_fence);
            self.auto_adapt_check(table)?;
        }
        Ok(())
    }

    /// The apply half of [`Database::insert`]: validation and WAL logging
    /// already happened (or are skipped — recovery replay trusts the log).
    /// The caller holds the table's writer mutex. The successor state —
    /// rows, pending range, and (for the eager strategy) the absorbed or
    /// re-rendered layout — is built entirely aside and published once; if
    /// any step fails, nothing is published and the table is untouched.
    /// `laps` times the build as `absorb` and the publication as `publish`.
    fn insert_applied(
        &self,
        slot: &TableSlot,
        state: &Arc<TableState>,
        table: &str,
        records: Vec<Record>,
        laps: &mut Laps,
    ) -> Result<()> {
        laps.mark();
        let mut next = (**state).clone();
        let has_layout = next.access.is_some() || next.layout_expr.is_some();
        let mut retire = Vec::new();
        next.records.push_rows(records);
        if has_layout {
            next.pending.end = next.records.len();
            if next.strategy == ReorgStrategy::Eager {
                self.render_or_absorb(table, &mut next, &mut retire)?;
            }
        } else {
            next.clear_pending();
        }
        laps.lap(&self.obs.ins.insert_phase_absorb_micros);
        self.publish_state(slot, next, retire);
        // Any table whose layout joins this one rendered from our *previous*
        // rows; flag it so its next access rebuilds (see
        // `mark_dependents_dirty`).
        self.mark_dependents_dirty(table);
        laps.lap(&self.obs.ins.insert_phase_publish_micros);
        Ok(())
    }

    /// Removes the `count` rows starting at `start` from a table's live
    /// state after their commit record failed to land, then finishes the
    /// caller's [`crate::catalog::CommitQueue`] ticket. The caller owns the
    /// resolution turn, so `start` (already adjusted for earlier rollbacks)
    /// is exact; the finish happens *while the writer mutex is still held*,
    /// so a racing insert taking its ticket under that mutex sees the row
    /// removal and the queue's `removed` counter move together — never one
    /// without the other. The rendering is discarded only when it already
    /// absorbed the doomed rows (pending rows are a suffix of the canonical
    /// rows — rows still pending were never rendered).
    fn rollback_insert(
        &self,
        table: &str,
        slot: &Arc<TableSlot>,
        start: usize,
        count: usize,
        queue: &Arc<crate::catalog::CommitQueue>,
        ticket: u64,
    ) {
        let _w = slot.writer.lock();
        let removed = 'remove: {
            // Same name is not enough: the table may have been dropped (and
            // recreated) while our commit was in flight, and the new slot's
            // rows are not ours to drain — slot identity tells them apart.
            if !self.slot_is_current(table, slot)
                || !Arc::ptr_eq(&slot.commit_queue, queue)
            {
                break 'remove 0; // our table is gone; rows went with it
            }
            let state = self.pin_state(slot);
            let len = state.records.len();
            if start + count > len {
                // Unreachable while resolution order holds; never panic on
                // the error path (the commit failure is already reported).
                debug_assert!(false, "rollback window [{start}, +{count}) exceeds {len} rows");
                break 'remove 0;
            }
            let persisted = slot
                .canonical
                .lock()
                .as_ref()
                .map_or(0, |store| store.rows_on_pages());
            if start < persisted {
                // Unreachable while checkpoints hold the commit fence: only
                // resolved rows reach the canonical store. Removing one here
                // would leave the store ahead of the table, so leave the
                // rows — recovery would return them too.
                debug_assert!(false, "rolling back row {start} of {persisted} persisted");
                break 'remove 0;
            }
            let mut next = (*state).clone();
            next.records.remove_range(start..start + count);
            // Pending rows past the doomed ones shift down with them.
            let shift = (start + count)
                .min(state.pending.start)
                .saturating_sub(start);
            next.pending = state.pending.start - shift..next.records.len();
            // Rows still pending were never rendered. A rendering that
            // absorbed the doomed rows is discarded: the next access
            // re-renders from the canonical rows, which now match exactly
            // what recovery would replay.
            let mut retire = Vec::new();
            if start < state.pending.start {
                retire.extend(RetiredAccess::whole_chain(&mut next));
            }
            self.publish_state(slot, next, retire);
            self.mark_dependents_dirty(table);
            count as u64
        };
        queue.finish(ticket, removed);
    }

    /// Flags every table whose declared layout reads `table` as a joined
    /// base (prejoin is the only multi-table operator) as having stale
    /// joined inputs. Prejoins capture their base tables *outside* those
    /// tables' writer mutexes, so a base-table publish that races a
    /// dependent's render would otherwise leave the dependent trailing by
    /// one batch until its own next write; the flag makes the dependent's
    /// next access — and the publish-time re-validation in
    /// `render_or_absorb` — rebuild from fresh captures instead.
    fn mark_dependents_dirty(&self, table: &str) {
        let guard = self.epochs.pin();
        let map = self.registry.load(&guard);
        for (name, slot) in map.entries.iter() {
            if name == table {
                continue;
            }
            let state = slot.load(&guard);
            let depends = state
                .layout_expr
                .as_ref()
                .is_some_and(|e| e.base_tables().iter().any(|t| t == table));
            if depends {
                slot.deps_dirty.store(true, Ordering::SeqCst);
            }
        }
    }
}

/// Consecutive phases of one operation, timed only when metrics are on (the
/// mark is `None` otherwise): [`Laps::lap`] records the microseconds since
/// the last mark, floor-rounded, and moves the mark.
struct Laps(Option<Instant>);

impl Laps {
    /// Starts the next phase now (time since the last mark goes nowhere).
    fn mark(&mut self) {
        if let Some(mark) = &mut self.0 {
            *mark = Instant::now();
        }
    }

    /// Ends the current phase into `phase` and starts the next.
    fn lap(&mut self, phase: &rodentstore_obs::Histogram) {
        if let Some(mark) = &mut self.0 {
            let now = Instant::now();
            phase.record(now.duration_since(*mark).as_micros() as u64);
            *mark = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::tests::small_db;
    use rodentstore_algebra::expr::LayoutExpr;
    use rodentstore_algebra::schema::Field;
    use rodentstore_algebra::types::DataType;
    use rodentstore_algebra::value::Value;
    use rodentstore_exec::ScanRequest;
    use rodentstore_workload::{generate_traces, traces_schema, CartelConfig};

    /// Rolls back the `count` rows at `start` the way a failed durable
    /// commit does: under the turn of a ticket taken from the table's commit
    /// queue while its writer mutex is held.
    fn roll_back(db: &Database, table: &str, start: usize, count: usize) {
        let slot = db.slot(table).unwrap();
        let queue = Arc::clone(&slot.commit_queue);
        let (ticket, removed_at_apply) = {
            let _w = slot.writer.lock();
            queue.take_ticket()
        };
        assert_eq!(queue.await_turn(ticket, removed_at_apply), 0);
        db.rollback_insert(table, &slot, start, count, &queue, ticket);
    }

    #[test]
    fn rollback_removes_a_middle_batch_whether_pending_or_absorbed() {
        let rows = generate_traces(&CartelConfig {
            observations: 400,
            vehicles: 5,
            ..CartelConfig::default()
        });
        let batches: Vec<Vec<Record>> = rows.chunks(100).map(<[Record]>::to_vec).collect();
        for strategy in [ReorgStrategy::NewDataOnly, ReorgStrategy::Eager] {
            // One batch rendered, three inserted after it: new-data-only
            // keeps those pending, eager absorbs each into the rendering.
            let db = Database::with_page_size(2048);
            db.create_table(traces_schema()).unwrap();
            db.insert("Traces", batches[0].clone()).unwrap();
            db.apply_layout("Traces", LayoutExpr::table("Traces"), strategy)
                .unwrap();
            db.ensure_rendered("Traces").unwrap();
            for batch in &batches[1..] {
                db.insert("Traces", batch.clone()).unwrap();
            }
            let pending = |db: &Database| db.catalog().get("Traces").unwrap().pending.len();
            let rendered = db.layout_stats("Traces").unwrap().full_renders;
            let eager = strategy == ReorgStrategy::Eager;
            assert_eq!(pending(&db), if eager { 0 } else { 300 });

            roll_back(&db, "Traces", 200, 100);
            let survivors: Vec<Record> =
                [0, 1, 3].iter().flat_map(|&b| batches[b].clone()).collect();
            assert_eq!(db.row_count("Traces").unwrap(), survivors.len());
            assert_eq!(pending(&db), if eager { 0 } else { 200 });
            // The eager rendering held the doomed rows: it is gone, and the
            // next access renders the surviving rows afresh.
            assert_eq!(db.catalog().get("Traces").unwrap().access.is_none(), eager);
            assert_eq!(db.scan("Traces", &ScanRequest::all()).unwrap(), survivors);
            let renders = db.layout_stats("Traces").unwrap().full_renders - rendered;
            assert_eq!(renders, u64::from(eager));
            for (at, row) in survivors.iter().enumerate() {
                let element = db.get_element("Traces", at, None).unwrap();
                assert_eq!(&element, row, "{strategy:?} row {at}");
            }
        }
    }

    #[test]
    fn eager_strategy_absorbs_inserts() {
        let db = small_db();
        db.apply_layout(
            "Traces",
            LayoutExpr::table("Traces").project(["lat", "lon"]),
            ReorgStrategy::Eager,
        )
        .unwrap();
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
        assert!(db.catalog().get("Traces").unwrap().pending.is_empty());
        assert_eq!(db.scan("Traces", &ScanRequest::all()).unwrap().len(), 1_501);
    }

    #[test]
    fn schema_violations_and_unknown_tables_are_rejected() {
        let db = small_db();
        assert!(db.insert("Traces", vec![vec![Value::Int(1)]]).is_err());
        assert!(db.scan("Nope", &ScanRequest::all()).is_err());
        assert!(db
            .apply_layout_text("Traces", "project[altitude](Traces)")
            .is_err());
    }

    #[test]
    fn eager_inserts_are_absorbed_incrementally() {
        let db = small_db();
        db.apply_layout(
            "Traces",
            LayoutExpr::table("Traces").project(["lat", "lon"]),
            ReorgStrategy::Eager,
        )
        .unwrap();
        let after_apply = db.layout_stats("Traces").unwrap();
        assert_eq!(after_apply.full_renders, 1);

        let written_before = db.io_snapshot().pages_written;
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
        let stats = db.layout_stats("Traces").unwrap();
        assert_eq!(stats.full_renders, 1, "no full re-render on insert");
        assert_eq!(stats.incremental_appends, 1);
        // An incremental append of one row touches a handful of pages, not
        // the whole layout.
        let written = db.io_snapshot().pages_written - written_before;
        assert!(written <= 4, "append wrote {written} pages");
        assert_eq!(db.scan("Traces", &ScanRequest::all()).unwrap().len(), 1_501);
        assert!(db.catalog().get("Traces").unwrap().pending.is_empty());
    }

    #[test]
    fn failed_partial_append_invalidates_instead_of_corrupting() {
        // A vertical append writes object-by-object; if one group fails
        // (here: a string too large for the page) after another succeeded,
        // the per-object row sets diverge. The absorb path must discard the
        // rendering rather than leave positionally misaligned objects.
        let db = Database::with_page_size(1024);
        db.create_table(Schema::new(
            "Docs",
            vec![
                Field::new("x", DataType::Float),
                Field::new("body", DataType::String),
            ],
        ))
        .unwrap();
        let rows: Vec<Record> = (0..50)
            .map(|i| vec![Value::Float(i as f64), Value::Str(format!("doc-{i}"))])
            .collect();
        db.insert("Docs", rows).unwrap();
        db.apply_layout(
            "Docs",
            LayoutExpr::table("Docs").vertical([vec!["x"], vec!["body"]]),
            ReorgStrategy::Lazy,
        )
        .unwrap();
        assert_eq!(db.scan("Docs", &ScanRequest::all()).unwrap().len(), 50);
        // Passes schema validation, fails in the `body` object's heap.
        db.insert(
            "Docs",
            vec![vec![Value::Float(99.0), Value::Str("y".repeat(5_000))]],
        )
        .unwrap();
        let err = db.scan("Docs", &ScanRequest::all());
        assert!(err.is_err(), "absorbing the oversized row must fail");
        assert!(
            db.catalog().get("Docs").unwrap().access.is_none(),
            "the partially appended rendering must be discarded"
        );
        // Declaring a layout that can hold the data recovers the table with
        // every row intact and aligned.
        db.apply_layout(
            "Docs",
            LayoutExpr::table("Docs").project(["x"]),
            ReorgStrategy::Eager,
        )
        .unwrap();
        let rows = db.scan("Docs", &ScanRequest::all()).unwrap();
        assert_eq!(rows.len(), 51);
        assert_eq!(rows[50], vec![Value::Float(99.0)]);
    }

    #[test]
    fn appendless_shapes_still_rebuild_on_insert() {
        let db = small_db();
        // Fold groups are single heap records; inserts must re-render.
        // (Folding only `t` keeps each group under the 2 KiB test pages.)
        db.apply_layout(
            "Traces",
            LayoutExpr::table("Traces").fold(["id"], ["t"]),
            ReorgStrategy::Eager,
        )
        .unwrap();
        db.insert(
            "Traces",
            vec![vec![
                Value::Timestamp(10_002),
                Value::Float(42.33),
                Value::Float(-71.08),
                Value::Str("car-new".into()),
            ]],
        )
        .unwrap();
        let stats = db.layout_stats("Traces").unwrap();
        assert_eq!(stats.full_renders, 2, "folded layouts fall back to rebuild");
        assert_eq!(stats.incremental_appends, 0);
        assert_eq!(db.scan("Traces", &ScanRequest::all()).unwrap().len(), 1_501);
    }
}
