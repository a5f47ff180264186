//! Layouts and adaptation: declaring a layout, rendering it or absorbing
//! pending rows into it, the design advisor, and the closed loop that
//! profiles the workload and re-declares the layout when it pays.

use super::*;
use crate::catalog::PinnedRows;
use crate::durability;
use crate::monitor::WorkloadProfile;
use crate::reorg::ReorgStrategy;
use rodentstore_algebra::expr::LayoutExpr;
use rodentstore_algebra::{parse, validate};
use rodentstore_layout::{render, AppendOutcome, LsmActivity};
use rodentstore_obs::CostedAlternative;
use rodentstore_optimizer::{advise_sampled, AdvisorOptions, Recommendation, Workload};
use std::time::Instant;

/// Configuration of the closed-loop self-adaptation machinery.
///
/// The loop is: every query is recorded into the table's
/// [`crate::monitor::WorkloadProfile`]; every `check_every` queries (in auto
/// mode) — or whenever [`Database::maybe_adapt`] is called — the profile is
/// fed to the storage design advisor, the recommended design is costed
/// against the *current* design on the same data sample, and the layout is
/// re-declared only when the predicted improvement clears the `hysteresis`
/// threshold. The transition itself goes through the ordinary
/// [`ReorgStrategy`] machinery, so reads stay correct mid-transition.
#[derive(Debug, Clone)]
pub struct AdaptivePolicy {
    /// Run the adaptation check automatically from inside
    /// `scan`/`open_cursor`/`get_element` every `check_every` queries.
    /// When `false`, the profile is still maintained but adaptation only
    /// happens on explicit [`Database::maybe_adapt`] calls.
    pub auto: bool,
    /// Auto mode: queries between adaptation checks.
    pub check_every: u64,
    /// Minimum queries observed on a table before the advisor is consulted
    /// at all (prevents adapting to the first few requests).
    pub min_queries: u64,
    /// Required relative improvement before a new layout is applied: adapt
    /// only if `best_cost < current_cost × (1 − hysteresis)`. Damps
    /// oscillation between near-equal designs.
    pub hysteresis: f64,
    /// Reorganization strategy used for adaptation-driven layout changes.
    pub strategy: ReorgStrategy,
    /// Advisor configuration (cost model, annealing budget, seed).
    pub advisor: AdvisorOptions,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            auto: false,
            check_every: 64,
            min_queries: 16,
            hysteresis: 0.15,
            strategy: ReorgStrategy::Eager,
            advisor: AdvisorOptions::default(),
        }
    }
}

/// What an adaptation check decided.
#[derive(Debug, Clone)]
pub enum AdaptOutcome {
    /// Too little traffic observed to trust the profile.
    InsufficientData {
        /// Queries observed so far.
        queries_observed: u64,
    },
    /// The advisor's best design did not beat the current one by more than
    /// the hysteresis threshold (or *was* the current design).
    KeptCurrent {
        /// Predicted workload cost of the current design, in ms
        /// (`f64::INFINITY` when the current design could not be costed).
        current_ms: f64,
        /// Predicted workload cost of the advisor's best design, in ms.
        best_ms: f64,
    },
    /// A better design was found and applied.
    Adapted {
        /// The newly declared layout expression.
        expr: LayoutExpr,
        /// Predicted workload cost of the previous design, in ms.
        from_ms: f64,
        /// Predicted workload cost of the new design, in ms.
        to_ms: f64,
    },
}

impl Database {
    /// Declares the physical layout of a table using the textual algebra
    /// syntax, with the eager reorganization strategy.
    pub fn apply_layout_text(&self, table: &str, expr: &str) -> Result<()> {
        let expr = parse(expr)?;
        self.apply_layout(table, expr, ReorgStrategy::Eager)
    }

    /// Declares the physical layout of a table. The render happens aside,
    /// under the table's writer mutex only — scans of this table keep
    /// streaming from the previous rendering until the new one is published
    /// in a single atomic swap, and scans of *other* tables are entirely
    /// unaffected. The superseded rendering's pages are reclaimed once the
    /// last reader pinned to it drains.
    pub fn apply_layout(
        &self,
        table: &str,
        expr: LayoutExpr,
        strategy: ReorgStrategy,
    ) -> Result<()> {
        self.apply_layout_inner(table, expr, strategy, false, None)
            .map(|_| ())
    }

    /// The full layout-change path: validate, log, render aside, commit,
    /// publish — shared by [`Database::apply_layout`], adaptation, and
    /// recovery replay.
    ///
    /// With `expected` set (the adaptation path), the change only applies
    /// if the table's declared expression still equals `expected` when the
    /// writer mutex is taken; returns `Ok(false)` if another layout change
    /// won the race (the caller's cost comparison was computed against a
    /// stale baseline).
    ///
    /// Publication is strictly *after* the WAL commit resolves, and the
    /// commit itself runs without any reader-visible structure touched — a
    /// reader never observes a layout whose durability is still undecided,
    /// so there is no restore path: on any failure (render error, commit
    /// error) nothing was published and the table is exactly as before.
    pub(super) fn apply_layout_inner(
        &self,
        table: &str,
        expr: LayoutExpr,
        strategy: ReorgStrategy,
        adapted: bool,
        expected: Option<&LayoutExpr>,
    ) -> Result<bool> {
        let _fence = self.mutation_fence();
        // Validate against the whole catalog so prejoins across tables work
        // — and so invalid expressions are rejected *before* they are
        // logged.
        validate::check_with(&expr, &self.catalog().schemas())?;
        let slot = self.slot(table)?;
        let _w = self.lock_writer(table, &slot)?;
        self.reap_retired();
        let state = self.pin_state(&slot);
        if let Some(expected) = expected {
            let current = state
                .layout_expr
                .clone()
                .unwrap_or_else(|| LayoutExpr::table(table));
            if &current != expected {
                return Ok(false);
            }
        }
        let mut next = (*state).clone();
        let mut retire: Vec<_> = RetiredAccess::whole_chain(&mut next).into_iter().collect();
        next.layout_expr = Some(expr);
        next.strategy = strategy;
        next.clear_pending();
        if adapted {
            next.stats.adaptations += 1;
        }
        let tx = self.log_op_begin(|| {
            durability::encode_apply_layout(
                table,
                &next.layout_expr.as_ref().expect("just set").to_string(),
                strategy,
                adapted,
            )
        })?;
        if strategy.renders_immediately() {
            if let Err(e) = self.render_or_absorb(table, &mut next, &mut retire) {
                self.log_op_abort(tx);
                return Err(e); // nothing published; old rendering stays live
            }
        }
        if let Err(e) = self.log_op_commit(tx) {
            // The commit record may have landed before its sync failed; a
            // compensating abort keeps replay from resurrecting the layout
            // change we are abandoning. The new rendering was never
            // published, so discarding is just returning its pages.
            self.log_op_abort(tx);
            if let Some(new_access) = next.access.take() {
                self.quarantine(owned_pages(&new_access));
            }
            return Err(e);
        }
        self.publish_state(&slot, next, retire);
        Ok(true)
    }

    /// Renders the declared layout of `table` if it is not already rendered,
    /// or absorbs pending inserts into the existing rendering (no-op for
    /// tables without a declared layout).
    ///
    /// Absorption is incremental whenever the layout shape allows it: the
    /// pending rows are pipelined (selection, projection, …) and appended to
    /// a private *fork* of the stored objects — new heap records for row
    /// layouts, new column blocks for columnar ones, routed into (possibly
    /// new) cells for grids, projected onto every field group for vertical
    /// partitions — which is then swapped in atomically. Only shapes whose
    /// invariants cannot be maintained row-at-a-time (fold, prejoin, limit)
    /// fall back to a full re-render. Because the work happens on the fork,
    /// it proceeds under *any* concurrent read load: readers pinned to the
    /// published rendering never block it and are never blocked by it.
    pub fn ensure_rendered(&self, table: &str) -> Result<()> {
        self.render_slot(table, &self.slot(table)?)
    }

    /// [`Database::ensure_rendered`] on the table's resolved slot.
    pub(super) fn render_slot(&self, table: &str, slot: &Arc<TableSlot>) -> Result<()> {
        // Fast path — lock-free.
        if rendering_is_current(slot, &self.pin_state(slot)) {
            return Ok(());
        }
        // Slow path: this is a write (it publishes a new rendering and
        // retires pages), so it runs under the commit fence like every
        // durable mutation — a checkpoint's manifest cut must not interleave
        // with the retirement it produces.
        let _fence = self.mutation_fence();
        let _w = self.lock_writer(table, slot)?;
        self.reap_retired();
        let state = self.pin_state(slot);
        // Re-check under the mutex: another thread may have rendered or
        // absorbed while we waited.
        if rendering_is_current(slot, &state) {
            return Ok(());
        }
        let mut next = (*state).clone();
        let mut retire = Vec::new();
        let result = self.render_or_absorb(table, &mut next, &mut retire);
        // Publish even when absorption failed: `render_or_absorb` then left
        // `next` with the rendering discarded (`access: None`), which is
        // the contract — a failed partial append must invalidate, and the
        // canonical rows remain the consistent source of truth.
        self.publish_state(slot, next, retire);
        result
    }

    /// The build half of rendering/absorption: mutates the *aside* state
    /// `next` (never anything published) and records superseded renderings
    /// in `retire` for the caller's publication. The caller holds the
    /// table's writer mutex.
    ///
    /// On an absorption error the fork is discarded, `next.access` is set
    /// to `None` (the old rendering joins `retire` — a failed partial
    /// append invalidates rather than risk serving misaligned objects), and
    /// the error is returned; whether anything is published is the caller's
    /// decision.
    pub(super) fn render_or_absorb(
        &self,
        table: &str,
        next: &mut TableState,
        retire: &mut Vec<RetiredAccess>,
    ) -> Result<()> {
        let slot = self.slot(table)?;
        if rendering_is_current(&slot, next) {
            return Ok(());
        }
        let absorbs = next.strategy.absorbs_new_data_on_access();
        // A joined base table published rows after this table's rendering
        // captured them (see `mark_dependents_dirty`): the rendering is
        // stale no matter how current it looks — skip the absorb fast path
        // and fall through to the full render, which retires it whole and
        // rebuilds from fresh captures.
        let stale_deps = slot.deps_dirty.load(Ordering::SeqCst);
        if let Some(access) = next.access.clone().filter(|_| !stale_deps) {
            // Incremental absorption on a fork: the fork shares the
            // published rendering's objects and forks only those it writes
            // (never mutating their pages — a forked object's tail is
            // adopted protected, so its first append relocates it) and
            // appends into fresh pages.
            let forked_layout = access.layout().fork_for_append()?;
            let mut forked = AccessMethods::new(forked_layout);
            let provider = PinnedRows {
                tables: vec![(&*next, next.pending.clone())],
            };
            match forked.append_rows(&provider) {
                Ok(AppendOutcome::Appended { .. }) => {
                    // Pages the fork vacated (the relocated tail, index
                    // pages it rebuilt away from) still back the published
                    // rendering for pinned readers: they are owned by the
                    // *old* rendering's shared retirement, reclaimed when
                    // its last pin drains. The chain token is shared — the
                    // fork and the original are generations of one page
                    // chain.
                    let vacated = forked.layout().take_relocated();
                    // Runs merged away by tier compaction are shared with
                    // every older generation and take the parking route
                    // instead of the per-generation one.
                    self.park_lsm_notes(forked.layout().take_lsm_relocation_notes());
                    self.record_lsm_activity(table, forked.layout().take_lsm_activity());
                    next.access = Some(Arc::new(forked));
                    next.clear_pending();
                    next.stats.incremental_appends += 1;
                    retire.push(RetiredAccess {
                        access,
                        chain: Arc::clone(&next.chain),
                        pages: vacated,
                        whole_chain: false,
                    });
                    return Ok(());
                }
                // Fall through to the full render below.
                Ok(AppendOutcome::NeedsRebuild(_)) => self.discard_fork(&forked, &access),
                Err(e) => {
                    // A failed append may have grown some of the fork's
                    // objects and not others, which would misalign the
                    // positional stitch of every later read. Discard the
                    // fork *and* retire the old rendering: callers either
                    // publish the invalidated state (lazy absorption — the
                    // next access rebuilds from the canonical rows) or
                    // publish nothing at all (eager insert — the doomed
                    // rows never land).
                    self.discard_fork(&forked, &access);
                    retire.extend(RetiredAccess::whole_chain(next));
                    return Err(e.into());
                }
            }
        }
        // Full render, built aside from the canonical rows.
        let expr = next.layout_expr.clone().expect("checked above");
        let config = self.config_snapshot();
        // A provider holding only the tables the expression actually
        // references (prejoin may need more than one; everything else needs
        // exactly one — unrelated tables are never copied). Under the
        // new-data-only strategy, rows inserted after the layout was
        // declared stay in the row buffer and are excluded. Other tables
        // are read at their currently published states — *outside* their
        // writer mutexes, so an insert into a joined table can publish
        // between our capture and our publication, and the rendering would
        // trail it by one batch until this table's own next write.
        // Re-validate at publish: after rendering, re-pin every joined
        // table and re-render from fresh captures if any moved. The retries
        // are bounded — a joined table that outruns them has set
        // `deps_dirty` (its publish precedes the mark), so the next access
        // heals the rendering anyway.
        let referenced = expr.base_tables();
        let joins_others = referenced.iter().any(|n| n != table);
        let mut attempts = 0;
        let layout = loop {
            if joins_others {
                slot.deps_dirty.store(false, Ordering::SeqCst);
            }
            let view = self.catalog();
            let mut provider = PinnedRows::default();
            let mut captured: Vec<(String, Arc<TableState>)> = Vec::new();
            for (name, _, state) in view.entries().iter() {
                if !referenced.contains(name) {
                    continue;
                }
                if name == table {
                    let rendered = if absorbs {
                        next.records.len()
                    } else {
                        next.pending.start
                    };
                    provider.tables.push((&*next, 0..rendered));
                } else {
                    provider.tables.push((state, 0..state.records.len()));
                    captured.push((name.clone(), Arc::clone(state)));
                }
            }
            let layout = render(
                &expr,
                &provider,
                Arc::clone(&self.pager),
                RenderOptions {
                    name: Some(format!("{table}__layout")),
                    ..config.render_options
                },
            )?;
            if !joins_others {
                break layout;
            }
            let fresh = self.catalog();
            let moved = captured.iter().any(|(name, seen)| {
                fresh
                    .entries()
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .map_or(true, |(_, _, cur)| !Arc::ptr_eq(seen, cur))
            });
            attempts += 1;
            if !moved || attempts >= 3 {
                break layout;
            }
            // Never published: quarantine the stale rendering's pages and
            // capture again.
            self.quarantine(layout.extent_pages().unwrap_or_default());
        };
        retire.extend(RetiredAccess::whole_chain(next));
        next.access = Some(Arc::new(AccessMethods::new(layout)));
        next.stats.full_renders += 1;
        if absorbs {
            next.clear_pending();
        }
        Ok(())
    }

    /// Discards a never-published fork: quarantines the pages it allocated
    /// (anything outside the original's extent) and drops its relocation
    /// notes — the pages *those* name were vacated from the shared extent
    /// and still back the published rendering.
    fn discard_fork(&self, fork: &AccessMethods, original: &AccessMethods) {
        let shared: std::collections::HashSet<PageId> = original
            .layout()
            .extent_pages()
            .unwrap_or_default()
            .into_iter()
            .collect();
        let fresh: Vec<PageId> = fork
            .layout()
            .extent_pages()
            .unwrap_or_default()
            .into_iter()
            .filter(|p| !shared.contains(p))
            .collect();
        let _ = fork.layout().take_relocated();
        self.quarantine(fresh);
    }

    /// Runs the storage design advisor for a table and workload, returning
    /// the recommendation without applying it.
    pub fn recommend_layout(
        &self,
        table: &str,
        workload: &Workload,
        options: &AdvisorOptions,
    ) -> Result<Recommendation> {
        // Pin the schema and rows, then run the (expensive) advisor search
        // with no lock held and nobody blocked on us.
        let slot = self.slot(table)?;
        let state = self.pin_state(&slot);
        let sample = options
            .cost_model
            .sample_rows(state.records.len(), state.records.iter());
        let (recommendation, _) = advise_sampled(&state.schema, sample, workload, options, None)?;
        Ok(recommendation)
    }

    /// Runs the advisor and applies the recommended layout eagerly.
    pub fn auto_tune(
        &self,
        table: &str,
        workload: &Workload,
        options: &AdvisorOptions,
    ) -> Result<Recommendation> {
        let recommendation = self.recommend_layout(table, workload, options)?;
        self.apply_layout(table, recommendation.best.expr.clone(), ReorgStrategy::Eager)?;
        Ok(recommendation)
    }

    /// Runs one adaptation check against the table's *live* workload profile
    /// — no user-built [`Workload`] needed. The advisor's best design and the
    /// currently declared design are costed over the same data sample; the
    /// layout is re-declared (via [`AdaptivePolicy::strategy`]) only when the
    /// predicted improvement clears [`AdaptivePolicy::hysteresis`].
    ///
    /// In auto mode this runs by itself every [`AdaptivePolicy::check_every`]
    /// queries; calling it explicitly is always allowed. The advisor search
    /// runs against a pinned state with no lock held — concurrent scans
    /// *and writes* proceed while the annealing runs; only the final
    /// re-render takes this table's writer mutex.
    pub fn maybe_adapt(&self, table: &str) -> Result<AdaptOutcome> {
        let policy = self.config_snapshot().adaptive.clone();
        let slot = self.slot(table)?;
        let recording = self.obs.enabled();
        if recording {
            self.obs.ins.adapt_checks.incr();
        }
        let (workload, observed) = {
            let mut profile = slot.profile.lock();
            profile.end_check_window();
            (profile.to_workload(), profile.queries_observed)
        };
        if observed < policy.min_queries || workload.is_empty() {
            if recording {
                // Even no-op checks leave a trace: an operator asking "why
                // has this table never adapted?" reads the answer here.
                self.obs.events.push(EventKind::AdaptDecision {
                    table: table.to_string(),
                    outcome: "insufficient_data".into(),
                    current_expr: String::new(),
                    best_expr: String::new(),
                    current_ms: 0.0,
                    best_ms: 0.0,
                    hysteresis: policy.hysteresis,
                    alternatives: Vec::new(),
                });
            }
            return Ok(AdaptOutcome::InsufficientData {
                queries_observed: observed,
            });
        }
        let state = self.pin_state(&slot);
        let current_expr = state
            .layout_expr
            .clone()
            .unwrap_or_else(|| LayoutExpr::table(table));
        let advise_started = Instant::now();
        let model = &policy.advisor.cost_model;
        let sample = model.sample_rows(state.records.len(), state.records.iter());
        let (recommendation, baseline) = advise_sampled(
            &state.schema,
            sample,
            &workload,
            &policy.advisor,
            Some(&current_expr),
        )?;
        drop(state);
        if recording {
            self.obs
                .ins
                .adapt_advise_micros
                .record(advise_started.elapsed().as_micros() as u64);
        }
        // Captured before `best` moves out of the recommendation: the top
        // explored designs (best first, capped) become the decision trace's
        // costed alternatives.
        let alternatives: Vec<CostedAlternative> = if recording {
            recommendation
                .explored
                .iter()
                .take(8)
                .map(|d| CostedAlternative {
                    expr: d.expr.to_string(),
                    total_ms: d.total_ms,
                })
                .collect()
        } else {
            Vec::new()
        };
        let best = recommendation.best;
        let current_ms = baseline.map(|c| c.total_ms).unwrap_or(f64::INFINITY);
        let improves = best.total_ms < current_ms * (1.0 - policy.hysteresis);
        let decision = |outcome: &str| {
            self.obs.events.push(EventKind::AdaptDecision {
                table: table.to_string(),
                outcome: outcome.into(),
                current_expr: current_expr.to_string(),
                best_expr: best.expr.to_string(),
                current_ms,
                best_ms: best.total_ms,
                hysteresis: policy.hysteresis,
                alternatives: alternatives.clone(),
            });
        };
        if best.expr == current_expr || !improves {
            if recording {
                decision("kept_current");
            }
            return Ok(AdaptOutcome::KeptCurrent {
                current_ms,
                best_ms: best.total_ms,
            });
        }
        // Adaptation is logged as an `apply_layout` with the `adapted` flag
        // set, so replay after a crash maintains the adaptation counter.
        // `expected` guards the race: if another thread re-declared the
        // layout while the advisor ran, our recommendation was costed
        // against a stale baseline — keep what is there and let the next
        // check window re-evaluate.
        if self.apply_layout_inner(
            table,
            best.expr.clone(),
            policy.strategy,
            true,
            Some(&current_expr),
        )? {
            if recording {
                self.obs.ins.adapt_adaptations.incr();
                decision("adapted");
            }
            Ok(AdaptOutcome::Adapted {
                expr: best.expr,
                from_ms: current_ms,
                to_ms: best.total_ms,
            })
        } else {
            if recording {
                decision("kept_current");
            }
            Ok(AdaptOutcome::KeptCurrent {
                current_ms,
                best_ms: best.total_ms,
            })
        }
    }

    /// Records one operation into `slot`'s live workload profile with
    /// `record`, and says whether auto mode's adaptation check is due: the
    /// caller runs [`Database::auto_adapt_check`] once the operation is
    /// served and its pin released.
    pub(super) fn profile(
        &self,
        slot: &TableSlot,
        record: impl FnOnce(&mut WorkloadProfile),
    ) -> bool {
        let adaptive = &self.config_snapshot().adaptive;
        let mut profile = slot.profile.lock();
        record(&mut profile);
        adaptive.auto && profile.queries_since_check >= adaptive.check_every
    }

    /// Auto-mode wrapper around [`Database::maybe_adapt`]: an adaptation
    /// check the advisor cannot complete (empty candidate set, a template it
    /// cannot cost, …) must not fail the user's query, so optimizer errors
    /// are swallowed here; catalog and rendering errors still surface. At
    /// most one check runs per table at a time — when many reader threads
    /// cross the `check_every` threshold together, one runs the advisor and
    /// the rest skip.
    pub(super) fn auto_adapt_check(&self, table: &str) -> Result<()> {
        let Ok(slot) = self.slot(table) else {
            return Ok(()); // dropped meanwhile
        };
        if slot.adapting.swap(true, Ordering::SeqCst) {
            return Ok(()); // another thread's check is in flight
        }
        let result = self.maybe_adapt(table);
        slot.adapting.store(false, Ordering::SeqCst);
        match result {
            Ok(_) | Err(RodentError::Optimizer(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Folds a levelled tier's drained structural-work journal into the
    /// metrics registry and event ring: absorb timings become the
    /// tail-latency histograms, spills and merges become counters plus
    /// structured events.
    fn record_lsm_activity(&self, table: &str, activity: Vec<LsmActivity>) {
        if !self.obs.enabled() || activity.is_empty() {
            return;
        }
        let ins = &self.obs.ins;
        for entry in activity {
            match entry {
                LsmActivity::Absorb { micros, merges, .. } => {
                    ins.lsm_absorb_micros.record(micros);
                    ins.lsm_absorb_merges.record(merges);
                }
                LsmActivity::Spill { level, rows, pages } => {
                    ins.lsm_spills.incr();
                    ins.lsm_spill_rows.add(rows);
                    ins.lsm_spill_pages.add(pages);
                    self.obs.events.push(EventKind::LsmSpill {
                        table: table.to_string(),
                        level,
                        rows,
                        pages,
                    });
                }
                LsmActivity::Merge {
                    level,
                    runs_merged,
                    rows,
                    pages_written,
                    pages_freed,
                } => {
                    ins.lsm_merges.incr();
                    ins.lsm_pages_written.add(pages_written);
                    ins.lsm_pages_freed.add(pages_freed);
                    ins.lsm_compaction_levels.record(u64::from(level));
                    self.obs.events.push(EventKind::LsmMerge {
                        table: table.to_string(),
                        level,
                        runs_merged,
                        rows,
                        pages_written,
                        pages_freed,
                    });
                }
            }
        }
    }
}

/// Whether `state` needs no render or absorption: it declares no layout,
/// or its rendering exists, holds every row its strategy absorbs, and was
/// rendered from joined tables that have not moved since.
fn rendering_is_current(slot: &TableSlot, state: &TableState) -> bool {
    state.layout_expr.is_none()
        || (state.access.is_some()
            && (state.pending.is_empty() || !state.strategy.absorbs_new_data_on_access())
            && !slot.deps_dirty.load(Ordering::SeqCst))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::tests::small_db;
    use rodentstore_algebra::comprehension::Condition;
    use rodentstore_algebra::schema::{Field, Schema};
    use rodentstore_algebra::types::DataType;
    use rodentstore_algebra::value::{Record, Value};
    use rodentstore_exec::ScanRequest;
    use rodentstore_workload::{generate_traces, traces_schema, CartelConfig};

    #[test]
    fn textual_layout_changes_the_physical_representation() {
        let db = small_db();
        // Center the query box on a point the table actually contains, so
        // the test does not depend on the exact random stream.
        let (lat0, lon0) = {
            let rows = db.scan("Traces", &ScanRequest::all()).unwrap();
            (rows[750][1].as_f64().unwrap(), rows[750][2].as_f64().unwrap())
        };
        let (lat_lo, lat_hi) = (lat0 - 0.02, lat0 + 0.02);
        let (lon_lo, lon_hi) = (lon0 - 0.025, lon0 + 0.025);
        db.apply_layout_text(
            "Traces",
            "zorder(grid[lat,lon;0.02,0.02](project[lat,lon](Traces)))",
        )
        .unwrap();
        let pred =
            Condition::range("lat", lat_lo, lat_hi).and(Condition::range("lon", lon_lo, lon_hi));
        let rows = db
            .scan("Traces", &ScanRequest::all().predicate(pred.clone()))
            .unwrap();
        assert!(!rows.is_empty());
        assert!(rows
            .iter()
            .all(|r| (lat_lo..=lat_hi).contains(&r[0].as_f64().unwrap())));
        // Pruned scans should touch fewer pages than the whole layout.
        let total = db.scan_pages("Traces", &ScanRequest::all()).unwrap();
        let pruned = db
            .scan_pages("Traces", &ScanRequest::all().predicate(pred))
            .unwrap();
        assert!(pruned < total);
    }

    #[test]
    fn lazy_layouts_render_on_first_access() {
        let db = small_db();
        db.apply_layout(
            "Traces",
            LayoutExpr::table("Traces").columns(["t", "lat", "lon", "id"]),
            ReorgStrategy::Lazy,
        )
        .unwrap();
        // Nothing rendered yet.
        assert!(db.catalog().get("Traces").unwrap().access.is_none());
        db.scan("Traces", &ScanRequest::all().fields(["lat"])).unwrap();
        assert!(db.catalog().get("Traces").unwrap().access.is_some());
    }

    #[test]
    fn zorder_grid_declared_before_its_rows_lays_them_out_as_a_render_does() {
        let schema = Schema::new(
            "P",
            vec![
                Field::new("x", DataType::Float),
                Field::new("y", DataType::Float),
            ],
        );
        // 400 points on a 20×20 lattice, arriving row by row: first-seen
        // cell order is row-major, not the Z curve.
        let rows: Vec<Record> = (0..400)
            .map(|i| vec![Value::Float((i % 20) as f64), Value::Float((i / 20) as f64)])
            .collect();
        let expr = LayoutExpr::table("P")
            .grid([("x", 2.0), ("y", 2.0)])
            .zorder();
        let cells = |db: &Database| {
            let snap = db.snapshot("P").unwrap();
            let layout = snap.layout().expect("rendered");
            let cells: Vec<(Vec<u32>, usize)> = layout
                .objects
                .iter()
                .map(|o| (o.cell.as_ref().unwrap().coords.clone(), o.row_count))
                .collect();
            (cells, layout.total_pages())
        };

        let declared_first = Database::with_page_size(1024);
        declared_first.create_table(schema.clone()).unwrap();
        declared_first
            .apply_layout("P", expr.clone(), ReorgStrategy::Eager)
            .unwrap();
        declared_first.insert("P", rows.clone()).unwrap();
        let stats = declared_first.layout_stats("P").unwrap();
        assert_eq!((stats.full_renders, stats.incremental_appends), (1, 1));

        let loaded_first = Database::with_page_size(1024);
        loaded_first.create_table(schema).unwrap();
        loaded_first.insert("P", rows).unwrap();
        loaded_first
            .apply_layout("P", expr, ReorgStrategy::Eager)
            .unwrap();

        let (got, want) = (cells(&declared_first), cells(&loaded_first));
        assert_eq!(want.0.len(), 100);
        assert_eq!(
            want.0[..4].iter().map(|c| c.0.clone()).collect::<Vec<_>>(),
            [vec![0, 0], vec![1, 0], vec![0, 1], vec![1, 1]]
        );
        assert_eq!(got, want);
    }

    #[test]
    fn lazy_inserts_absorb_incrementally_on_next_access() {
        let db = small_db();
        db.apply_layout(
            "Traces",
            LayoutExpr::table("Traces").project(["lat", "lon"]),
            ReorgStrategy::Lazy,
        )
        .unwrap();
        db.scan("Traces", &ScanRequest::all()).unwrap(); // first render
        assert_eq!(db.layout_stats("Traces").unwrap().full_renders, 1);
        db.insert(
            "Traces",
            vec![vec![
                Value::Timestamp(10_001),
                Value::Float(42.32),
                Value::Float(-71.07),
                Value::Str("car-new".into()),
            ]],
        )
        .unwrap();
        // Pending until the next access; then absorbed without a re-render.
        assert_eq!(db.catalog().get("Traces").unwrap().pending.len(), 1);
        assert_eq!(db.scan("Traces", &ScanRequest::all()).unwrap().len(), 1_501);
        let stats = db.layout_stats("Traces").unwrap();
        assert_eq!(stats.full_renders, 1);
        assert_eq!(stats.incremental_appends, 1);
    }

    #[test]
    fn vertical_partitions_absorb_inserts_incrementally() {
        let db = small_db();
        db.apply_layout(
            "Traces",
            LayoutExpr::table("Traces").vertical([vec!["lat", "lon"], vec!["t", "id"]]),
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
        assert_eq!(stats.full_renders, 1, "vertical appends in place now");
        assert_eq!(stats.incremental_appends, 1);
        let rows = db.scan("Traces", &ScanRequest::all()).unwrap();
        assert_eq!(rows.len(), 1_501);
        // The appended row is stitched back whole across both objects.
        let last = db.get_element("Traces", 1_500, None).unwrap();
        assert_eq!(last[0], Value::Timestamp(10_002));
        assert_eq!(last[3], Value::Str("car-new".into()));
    }

    #[test]
    fn unknown_field_requests_do_not_poison_auto_adaptation() {
        let db = small_db();
        db.set_adaptive_policy(AdaptivePolicy {
            auto: true,
            check_every: 4,
            min_queries: 4,
            advisor: AdvisorOptions {
                cost_model: rodentstore_optimizer::CostModel {
                    sample_size: 500,
                    page_size: 1024,
                    cost_params: CostParams {
                        seek_ms: 1.0,
                        transfer_mb_per_s: 2.0,
                    },
                },
                anneal_iterations: 1,
                seed: 5,
            },
            ..AdaptivePolicy::default()
        });
        // A bad request errors, but must not be recorded as a template.
        assert!(db.scan("Traces", &ScanRequest::all().fields(["nope"])).is_err());
        assert!(db
            .get_element("Traces", 0, Some(&["nope".to_string()]))
            .is_err());
        // Valid queries keep working straight through the adaptation checks.
        for _ in 0..12 {
            db.scan("Traces", &ScanRequest::all().fields(["lat"])).unwrap();
        }
        assert!(db
            .workload_profile("Traces")
            .unwrap()
            .templates()
            .iter()
            .all(|t| !t.fingerprint.contains("nope")));
    }

    #[test]
    fn maybe_adapt_waits_for_data_then_adapts_beyond_hysteresis() {
        let db = Database::with_page_size(1024);
        db.create_table(traces_schema()).unwrap();
        db.insert(
            "Traces",
            generate_traces(&CartelConfig {
                observations: 3_000,
                vehicles: 15,
                ..CartelConfig::default()
            }),
        )
        .unwrap();
        db.set_adaptive_policy(AdaptivePolicy {
            auto: false,
            min_queries: 8,
            hysteresis: 0.1,
            advisor: AdvisorOptions {
                cost_model: rodentstore_optimizer::CostModel {
                    sample_size: 2_000,
                    page_size: 1024,
                    cost_params: CostParams {
                        seek_ms: 1.0,
                        transfer_mb_per_s: 2.0,
                    },
                },
                anneal_iterations: 2,
                seed: 11,
            },
            ..AdaptivePolicy::default()
        });

        // Not enough traffic yet.
        db.scan("Traces", &ScanRequest::all().fields(["lat"])).unwrap();
        assert!(matches!(
            db.maybe_adapt("Traces").unwrap(),
            AdaptOutcome::InsufficientData { .. }
        ));

        // A projection-heavy workload: the advisor should move the table off
        // the canonical row layout.
        for _ in 0..12 {
            db.scan("Traces", &ScanRequest::all().fields(["lat"])).unwrap();
        }
        let outcome = db.maybe_adapt("Traces").unwrap();
        assert!(
            matches!(outcome, AdaptOutcome::Adapted { .. }),
            "expected adaptation, got {outcome:?}"
        );
        assert!(db.catalog().get("Traces").unwrap().layout_expr.is_some());
        assert_eq!(db.layout_stats("Traces").unwrap().adaptations, 1);

        // Same workload again: the system must *not* flap.
        for _ in 0..12 {
            db.scan("Traces", &ScanRequest::all().fields(["lat"])).unwrap();
        }
        assert!(matches!(
            db.maybe_adapt("Traces").unwrap(),
            AdaptOutcome::KeptCurrent { .. }
        ));
        assert_eq!(db.layout_stats("Traces").unwrap().adaptations, 1);
    }

    #[test]
    fn auto_mode_adapts_without_manual_calls() {
        let db = Database::with_page_size(1024);
        db.create_table(traces_schema()).unwrap();
        db.insert(
            "Traces",
            generate_traces(&CartelConfig {
                observations: 3_000,
                vehicles: 15,
                ..CartelConfig::default()
            }),
        )
        .unwrap();
        db.set_adaptive_policy(AdaptivePolicy {
            auto: true,
            check_every: 10,
            min_queries: 10,
            hysteresis: 0.1,
            advisor: AdvisorOptions {
                cost_model: rodentstore_optimizer::CostModel {
                    sample_size: 2_000,
                    page_size: 1024,
                    cost_params: CostParams {
                        seek_ms: 1.0,
                        transfer_mb_per_s: 2.0,
                    },
                },
                anneal_iterations: 2,
                seed: 11,
            },
            ..AdaptivePolicy::default()
        });
        for _ in 0..25 {
            db.scan("Traces", &ScanRequest::all().fields(["lat"])).unwrap();
        }
        assert!(
            db.layout_stats("Traces").unwrap().adaptations >= 1,
            "auto mode must have adapted the layout"
        );
        assert!(db.catalog().get("Traces").unwrap().layout_expr.is_some());
        // Queries still answer correctly through the adapted layout.
        let rows = db.scan("Traces", &ScanRequest::all().fields(["lat"])).unwrap();
        assert_eq!(rows.len(), 3_000);
    }

    #[test]
    fn auto_tune_applies_a_recommendation() {
        let db = Database::with_page_size(1024);
        db.create_table(Schema::new(
            "Points",
            vec![
                Field::new("x", DataType::Float),
                Field::new("y", DataType::Float),
                Field::new("tag", DataType::String),
            ],
        ))
        .unwrap();
        let records: Vec<Record> = (0..800)
            .map(|i| {
                vec![
                    Value::Float((i % 40) as f64),
                    Value::Float((i / 40) as f64),
                    Value::Str(format!("tag{}", i % 5)),
                ]
            })
            .collect();
        db.insert("Points", records).unwrap();
        let workload = Workload::new().query(
            ScanRequest::all()
                .fields(["x", "y"])
                .predicate(Condition::range("x", 3.0, 6.0).and(Condition::range("y", 3.0, 6.0))),
        );
        let options = AdvisorOptions {
            cost_model: rodentstore_optimizer::CostModel {
                sample_size: 800,
                page_size: 512,
                cost_params: CostParams {
                    seek_ms: 0.5,
                    transfer_mb_per_s: 2.0,
                },
            },
            anneal_iterations: 2,
            seed: 3,
        };
        let rec = db.auto_tune("Points", &workload, &options).unwrap();
        assert!(db.catalog().get("Points").unwrap().layout_expr.is_some());
        assert!(rec.explored.len() > 3);
        // The tuned table still answers queries correctly.
        let rows = db
            .scan(
                "Points",
                &ScanRequest::all()
                    .fields(["x", "y"])
                    .predicate(Condition::range("x", 3.0, 6.0)),
            )
            .unwrap();
        assert!(rows.iter().all(|r| (3.0..=6.0).contains(&r[0].as_f64().unwrap())));
    }
}

