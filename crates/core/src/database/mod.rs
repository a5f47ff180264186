//! The RodentStore database façade, split along its lifecycle:
//!
//! - this module: [`Database`], its configuration cell, state and map
//!   publication, and the epoch-tagged retirement, quarantine and reaping
//!   of what publication supersedes;
//! - `open`: create, open, WAL replay and reattaching rendered layouts;
//! - `write`: create/drop table, insert and the rollback of a failed commit;
//! - `read`: snapshots, scans, folds, cursors, `get_element`, cost
//!   estimates and `explain`;
//! - `adapt`: declaring layouts, rendering and absorbing, the advisor and
//!   the closed adaptation loop;
//! - `checkpoint`: the manifest cut and the canonical-page vacuum.
//!
//! `TableState::records`, the canonical rows every table keeps in memory,
//! is read by `Database::open_with` (rows decoded from the canonical
//! extent), `Database::checkpoint` (persisted to it), `Database::insert`,
//! `Database::insert_applied` and `Database::rollback_insert`,
//! `Database::render_or_absorb` (the render and absorb providers, the
//! prejoin captures among them), `Database::recommend_layout` and
//! `Database::maybe_adapt` (the advisor's sample), and `TableSnapshot`'s
//! `row_count`, `scan_planned`, `scan_aggregate`, `get_element` and
//! `scan_cost` (the canonical fallback and the pending rows).

mod adapt;
mod checkpoint;
mod open;
mod read;
mod write;

pub use adapt::{AdaptOutcome, AdaptivePolicy};
pub use read::{AccessPath, Explain, TableSnapshot};

use crate::catalog::{CatalogView, Registry, TableMap, TableSlot, TableState};
use crate::durability::Durability;
use crate::observe::EngineObs;
use crate::{Result, RodentError};
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard};
use rodentstore_exec::{AccessMethods, CostParams};
use rodentstore_layout::{LsmRun, RenderOptions};
use rodentstore_obs::{Event, EventKind, MetricsSnapshot};
use rodentstore_storage::pager::Pager;
use rodentstore_storage::stats::IoSnapshot;
use rodentstore_storage::wal::Wal;
use rodentstore_storage::PageId;
use rodentstore_sync::{AtomicArc, EpochRegistry};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Runtime configuration knobs (cost model, render options, adaptation
/// policy). Published through an [`AtomicArc`] like everything else on the
/// read path, so queries pick up the current parameters without locking;
/// setters serialize on a dedicated mutex.
#[derive(Clone, Default)]
struct Config {
    cost_params: CostParams,
    render_options: RenderOptions,
    adaptive: AdaptivePolicy,
}

/// A superseded rendering on its way to page reclamation. Built by the
/// writer that replaced it (while still holding the table's writer mutex)
/// and retired at the epoch at which the replacement was published.
struct RetiredAccess {
    access: Arc<AccessMethods>,
    /// The chain token of the [`TableState`] that owned `access` (see
    /// [`TableState::chain`]). Incrementally forked renderings share sealed
    /// pages, so a *fully* retired rendering's extent may still be read
    /// through pins on other generations of the same chain.
    chain: Arc<()>,
    /// The pages this retirement owns: for `whole_chain` retirements the
    /// rendering's entire extent (heaps and index tree); for shared
    /// retirements only the pages its successor fork vacated (the relocated
    /// tail and index pages — generation-exclusive, shared with nobody).
    pages: Vec<PageId>,
    whole_chain: bool,
}

impl RetiredAccess {
    /// Takes `next`'s rendering, if any, for a whole-chain retirement of its
    /// entire extent, and moves `next` onto a fresh chain.
    fn whole_chain(next: &mut TableState) -> Option<RetiredAccess> {
        let chain = std::mem::replace(&mut next.chain, Arc::new(()));
        let access = next.access.take()?;
        Some(RetiredAccess {
            pages: owned_pages(&access),
            chain,
            access,
            whole_chain: true,
        })
    }
}

/// Garbage: anything a writer unlinked from the published structures but
/// that a reader pinned *before* the swap may still hold. Kept in
/// [`Database::retired`] with the epoch of the swap, and dropped (and, for
/// renderings, its pages reclaimed) once every epoch pin taken before the
/// swap has been released — see [`Database::reap_retired`].
enum Retired {
    /// A superseded table state, table map or configuration. Holding a
    /// state keeps its `records` chunks and its `access` alive for late
    /// readers.
    Value { _value: Arc<dyn Send + Sync> },
    /// A superseded rendering with the pages it owns.
    Access(RetiredAccess),
}


/// A RodentStore database: a registry of per-table slots, a shared pager,
/// and the machinery to declare and change physical layouts.
///
/// # Concurrency model
///
/// `Database` is `Send + Sync`: wrap it in an [`Arc`] and share it across
/// threads. Every entry point takes `&self`. The read path (`scan`,
/// `open_cursor`, `get_element`, `scan_cost`, `scan_pages`) acquires **no
/// lock at all**: pinning a [`TableSnapshot`] is an epoch pin (two atomic
/// operations) plus three atomic pointer loads — the table map, the table's
/// published [`TableState`], and the current `Config` (see
/// `rodentstore_sync`). The query is then served entirely from the pinned
/// immutable state, so reads scale linearly across cores and are never
/// stalled by writers, checkpoint fsyncs, or re-renders of *any* table —
/// including their own (a reader pinned to the previous state keeps it).
///
/// Writers build the replacement `TableState` aside, swap it in with one
/// atomic store while holding that table's short writer mutex, and retire
/// the superseded state through the epoch scheme: each retirement is tagged
/// with the publication epoch, and its memory (and, for renderings, its
/// pages) is reclaimed only once every reader pin older than that epoch has
/// been released. Per-table writer mutexes mean a re-render or absorption of
/// table A never delays a write — let alone a read — on table B.
///
/// Lock hierarchy (outer to inner); readers take none of these:
///
/// 1. `commit_fence` (`RwLock`) — *read* side held by every durable
///    mutation (`write`: insert, create/drop; `adapt`: layout change, lazy
///    render) from before it applies until its WAL commit resolves; *write*
///    side held by `checkpoint`, making the manifest a consistent cut of
///    states, retirement list, and commit outcomes.
/// 2. `registry.structural` (`Mutex`) — serializes `create_table` /
///    `drop_table` (`write`: map publication).
/// 3. per-table `TableSlot::writer` (`Mutex`) — serializes state
///    publication for one table (held across build + swap by `write` and
///    `adapt`; `drop_table` takes it too, so a concurrent insert cannot
///    apply to a dropped slot after its drop was logged).
/// 4. leaf mutexes — `TableSlot::profile` (`adapt`), and in this module the
///    `retired` list, `pending_free`, `parked_runs` and config writes; then
///    storage-level locks (WAL state, heap files, pager).
///
/// The expensive half of adaptation — the advisor search — runs with no
/// lock held; only the final re-render holds the affected table's writer
/// mutex, and even then readers of that table proceed against the pinned
/// previous state.
pub struct Database {
    registry: Registry,
    /// Epoch clock + reader slots backing all lock-free publication.
    epochs: EpochRegistry,
    pager: Arc<Pager>,
    wal: Wal,
    config: AtomicArc<Config>,
    /// Serializes read-modify-write config updates (readers load `config`
    /// lock-free).
    config_write: Mutex<()>,
    durability: Option<Durability>,
    /// Superseded states, maps, configs, and renderings, each with the
    /// publication epoch that unlinked it, whose reclamation waits for old
    /// reader pins to drain. Reaped opportunistically by every write path.
    retired: Mutex<Vec<(u64, Retired)>>,
    /// Durable databases only: pages freed since the last checkpoint. They
    /// must not be reallocated until the *next* checkpoint writes a
    /// manifest that no longer references them — a crash before that would
    /// make `open` reattach manifest extents whose pages were reused and
    /// overwritten. In-memory databases bypass this (no recovery to
    /// protect) and free straight to the pager.
    pending_free: Mutex<Vec<PageId>>,
    /// Runs merged away by levelled-tier compaction, parked until this is
    /// the last pointer to each. A run is shared by every published
    /// generation since it was sealed, so it cannot ride a single
    /// generation's retirement — a reader decoding any older generation
    /// still reaches it. Each reap quarantines the extents of the runs whose
    /// last other holder dropped.
    parked_runs: Mutex<Vec<Arc<LsmRun>>>,
    /// Fences durable mutation windows against checkpoints. A durable
    /// mutation holds the *read* side from before it applies until its
    /// commit resolves (acknowledged or rolled back); a checkpoint holds
    /// the *write* side, so it never cuts a manifest while an applied-but-
    /// unresolved insert is in flight, and the retirement list it folds
    /// into the manifest's free list is consistent with the states it
    /// encodes. Also serializes checkpoints.
    commit_fence: RwLock<()>,
    /// True while [`Database::open`] replays the WAL tail: mutations must
    /// not be re-logged, but the database already counts as durable (so
    /// freed pages are quarantined, not reused — the manifest being
    /// replayed against may still reference them).
    replaying: std::sync::atomic::AtomicBool,
    /// Metrics registry, event ring, and pre-resolved instrument handles.
    obs: EngineObs,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.catalog().table_names())
            .field("pages", &self.pager.page_count())
            .finish()
    }
}

impl Database {
    /// Whether this database is file-backed (created via
    /// [`Database::create`]/[`Database::open`]).
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Looks up a table's slot (lock-free).
    fn slot(&self, table: &str) -> Result<Arc<TableSlot>> {
        let guard = self.epochs.pin();
        self.registry
            .load(&guard)
            .get(table)
            .map(Arc::clone)
            .ok_or_else(|| RodentError::UnknownTable(table.to_string()))
    }

    /// Whether `slot` is still the one registered under `table`. Writers
    /// that looked a slot up before taking its writer mutex re-check with
    /// this: a concurrent `drop_table` (or drop + recreate) detaches the
    /// slot, and applying to a detached slot would silently lose the write
    /// (or, on rollback, free another incarnation's pages).
    fn slot_is_current(&self, table: &str, slot: &Arc<TableSlot>) -> bool {
        let guard = self.epochs.pin();
        self.registry
            .load(&guard)
            .get(table)
            .is_some_and(|current| Arc::ptr_eq(current, slot))
    }

    /// Takes `slot`'s writer mutex, failing if a concurrent drop detached
    /// the slot from `table` before the mutex was ours.
    fn lock_writer<'s>(&self, table: &str, slot: &'s Arc<TableSlot>) -> Result<MutexGuard<'s, ()>> {
        let writer = slot.writer.lock();
        if !self.slot_is_current(table, slot) {
            return Err(RodentError::UnknownTable(table.to_string()));
        }
        Ok(writer)
    }

    /// Pins a table's current published state (lock-free).
    fn pin_state(&self, slot: &TableSlot) -> Arc<TableState> {
        let guard = self.epochs.pin();
        slot.load(&guard)
    }

    /// The current configuration (lock-free).
    fn config_snapshot(&self) -> Arc<Config> {
        let guard = self.epochs.pin();
        self.config.load(&guard)
    }

    /// Read-modify-write of the configuration: serialized by `config_write`,
    /// published atomically, superseded value retired through the epochs.
    fn update_config(&self, mutate: impl FnOnce(&mut Config)) {
        let _w = self.config_write.lock();
        let mut config = (*self.config_snapshot()).clone();
        mutate(&mut config);
        self.retire(self.config.swap(Arc::new(config)), Vec::new());
    }

    /// Publishes `state` as `slot`'s current state (caller holds the slot's
    /// writer mutex), retiring the superseded state — and any renderings the
    /// writer replaced — at the publication epoch.
    fn publish_state(&self, slot: &TableSlot, state: TableState, retire: Vec<RetiredAccess>) {
        self.retire(slot.state.swap(Arc::new(state)), retire);
    }

    /// Publishes a new table map (create/drop; caller holds `structural`),
    /// retiring the superseded map — and a dropped table's rendering, which
    /// stays reachable through it — at the publication epoch.
    fn publish_map(&self, map: TableMap, retire: Vec<RetiredAccess>) {
        self.retire(self.registry.publish(map), retire);
    }

    /// Retires `superseded`, which the caller's swap just unlinked, and the
    /// renderings in `accesses` at a fresh publication epoch.
    fn retire(&self, superseded: Arc<dyn Send + Sync>, accesses: Vec<RetiredAccess>) {
        let epoch = self.epochs.advance();
        let mut retired = self.retired.lock();
        retired.push((epoch, Retired::Value { _value: superseded }));
        retired.extend(accesses.into_iter().map(|r| (epoch, Retired::Access(r))));
    }

    /// The commit fence's shared side, which a durable mutation holds from
    /// before it applies until its commit resolves (`None` in memory).
    fn mutation_fence(&self) -> Option<RwLockReadGuard<'_, ()>> {
        self.durability.is_some().then(|| self.commit_fence.read())
    }

    /// Hands freed pages toward reuse. In-memory databases free straight to
    /// the pager; durable databases quarantine them until the next
    /// checkpoint, because the last on-disk manifest may still reference
    /// them as live extents — reusing such a page before a new manifest
    /// lands would make crash recovery reattach a layout over overwritten
    /// bytes.
    fn quarantine(&self, pages: Vec<PageId>) {
        if self.durability.is_some() {
            self.pending_free.lock().extend(pages);
        } else {
            self.pager.free_pages(pages);
        }
    }

    /// Reclaims retired values whose epoch has passed every live reader
    /// pin. Called opportunistically from every write path; cheap when the
    /// list is empty.
    ///
    /// Order matters: superseded states/maps/configs drop first (releasing
    /// their references on renderings and chain tokens), then shared
    /// retirements (releasing chain tokens), then whole-chain retirements —
    /// so one pass reclaims as much as the refcounts allow. A whole-chain
    /// retirement additionally waits for its chain token to be unique:
    /// incrementally forked generations share sealed pages, and a pin on
    /// *any* generation (or a not-yet-reclaimed shared retirement of the
    /// chain) may still read pages owned by the chain's terminal
    /// retirement.
    fn reap_retired(&self) {
        let min_active = self.epochs.min_active();
        let mut reclaimed = Vec::new();
        let mut notes = Vec::new();
        let mut accesses_reclaimed = 0u64;
        {
            let mut retired = self.retired.lock();
            retired.retain(|(epoch, r)| matches!(r, Retired::Access(_)) || *epoch >= min_active);
            for reap_whole_chain in [false, true] {
                retired.retain(|(epoch, r)| {
                    let Retired::Access(RetiredAccess {
                        access,
                        chain,
                        pages,
                        whole_chain,
                    }) = r
                    else {
                        return true;
                    };
                    if *whole_chain != reap_whole_chain {
                        return true;
                    }
                    if *epoch >= min_active || Arc::strong_count(access) != 1 {
                        return true; // an old pin (or late holder) remains
                    }
                    if *whole_chain && Arc::strong_count(chain) != 1 {
                        return true; // another chain generation is reachable
                    }
                    reclaimed.extend(pages.iter().copied());
                    reclaimed.extend(access.layout().take_relocated());
                    notes.extend(access.layout().take_lsm_relocation_notes());
                    accesses_reclaimed += 1;
                    false
                });
            }
        }
        self.park_lsm_notes(notes);
        // Parked runs: free the ones every generation that shared them has
        // dropped.
        reclaimed.extend(self.unpark_lsm_runs());
        if !reclaimed.is_empty() {
            if self.obs.enabled() {
                let pages = reclaimed.len() as u64;
                let bytes = pages * self.pager.page_size() as u64;
                self.obs.ins.epoch_reaps.incr();
                self.obs.ins.epoch_reclaimed_pages.add(pages);
                self.obs.ins.epoch_retired_bytes.add(bytes);
                self.obs.events.push(EventKind::EpochReclaim {
                    accesses: accesses_reclaimed,
                    pages,
                    bytes,
                });
            }
            self.quarantine(reclaimed);
        }
    }

    /// Parks runs merged away by compaction until no generation holds them
    /// (see the `parked_runs` field).
    fn park_lsm_notes(&self, runs: Vec<Arc<LsmRun>>) {
        if !runs.is_empty() {
            self.parked_runs.lock().extend(runs);
        }
    }

    /// Unparks the runs the parking lot holds the last pointer to, and
    /// returns their extents.
    fn unpark_lsm_runs(&self) -> Vec<PageId> {
        let mut freed = Vec::new();
        self.parked_runs.lock().retain(|run| {
            let held = Arc::strong_count(run) > 1;
            if !held {
                freed.extend(run.heap.extent());
            }
            held
        });
        freed
    }

    /// Number of retired-but-unreclaimed values (states, maps, configs, and
    /// renderings, and parked compacted runs) currently deferred behind
    /// reader pins. Diagnostic: tests assert it stays bounded and drains
    /// once pins are released.
    pub fn retired_snapshots(&self) -> usize {
        self.retired.lock().len() + self.parked_runs.lock().len()
    }

    /// Writes a mutation's op record to the WAL (no-op for in-memory
    /// databases — the payload closure is never even evaluated, so the
    /// default mode pays no serialization cost). Called *before* the
    /// mutation touches any published state or page — the write-ahead rule.
    /// The transaction is left open; pass the returned id to
    /// [`Database::log_op_commit`] / [`Database::log_op_abort`] with the
    /// mutation's outcome, so an op whose apply step fails is recorded as
    /// aborted and recovery replay skips it instead of re-failing on it
    /// forever.
    fn log_op_begin(
        &self,
        payload: impl FnOnce() -> Vec<u8>,
    ) -> Result<Option<rodentstore_storage::TxId>> {
        if self.durability.is_none() || self.replaying.load(Ordering::SeqCst) {
            return Ok(None);
        }
        let tx = self.wal.begin().map_err(RodentError::Storage)?;
        self.wal.log_op(tx, &payload()).map_err(RodentError::Storage)?;
        Ok(Some(tx))
    }

    /// Commits the transaction opened by [`Database::log_op_begin`].
    /// Durability is acknowledged at commit time per the configured
    /// [`rodentstore_storage::SyncPolicy`]; a crash (or write failure)
    /// before the commit record lands makes the op invisible to replay, so
    /// callers whose mutation already applied must roll it back on error —
    /// otherwise live state would diverge from both the reported error and
    /// the recovered state.
    fn log_op_commit(&self, tx: Option<rodentstore_storage::TxId>) -> Result<()> {
        if let Some(tx) = tx {
            self.wal.commit(tx).map_err(RodentError::Storage)?;
        }
        Ok(())
    }

    /// Marks the transaction aborted after its mutation failed (or, as a
    /// *compensation*, after its commit record's sync failed — aborts void
    /// a transaction even when a commit record exists). Best effort: if the
    /// abort record cannot be written, the op simply stays uncommitted,
    /// which replay treats identically in the no-commit case. The sync
    /// pushes the abort toward disk so a commit record that landed before
    /// its own failed sync is voided durably, not just in the page cache —
    /// if that sync fails too, the storage is already failing and the
    /// narrow commit-persists-abort-doesn't window is irreducible.
    fn log_op_abort(&self, tx: Option<rodentstore_storage::TxId>) {
        if let Some(tx) = tx {
            let _ = self.wal.abort(tx);
            let _ = self.wal.sync();
        }
    }

    /// Logs and commits an op before it applies, for mutations that cannot
    /// fail once their pre-checks pass (create and drop). A failed commit
    /// is compensated with an abort, so a commit record that landed before
    /// its sync failed cannot replay a change the caller was told failed.
    fn log_op_committed(&self, payload: impl FnOnce() -> Vec<u8>) -> Result<()> {
        let tx = self.log_op_begin(payload)?;
        self.log_op_commit(tx).map_err(|e| {
            self.log_op_abort(tx);
            e
        })
    }

    /// Overrides the disk-model parameters used for cost estimates.
    pub fn set_cost_params(&self, cost_params: CostParams) {
        self.update_config(|c| c.cost_params = cost_params);
    }

    /// Overrides the memtable spill threshold and level fanout used when
    /// rendering *new* `lsm` tiers (tests shrink them to exercise
    /// multi-level shapes with few rows). Already-rendered tiers keep the
    /// parameters they were created — or reattached — with.
    pub fn set_lsm_params(&self, memtable_cap: usize, fanout: usize) {
        self.update_config(|c| {
            c.render_options.lsm_memtable_cap = memtable_cap;
            c.render_options.lsm_fanout = fanout;
        });
    }

    /// Replaces the self-adaptation policy.
    pub fn set_adaptive_policy(&self, policy: AdaptivePolicy) {
        self.update_config(|c| c.adaptive = policy);
    }

    /// The current self-adaptation policy.
    pub fn adaptive_policy(&self) -> AdaptivePolicy {
        self.config_snapshot().adaptive.clone()
    }

    /// Switches automatic adaptation on or off (keeping the rest of the
    /// policy unchanged). With auto mode on, every `check_every`-th query
    /// against a table runs the advisor over that table's live workload
    /// profile and re-declares the layout when the predicted improvement
    /// clears the hysteresis threshold — no manual `advise`/`apply_layout`
    /// calls needed.
    pub fn set_auto_adapt(&self, auto: bool) {
        self.update_config(|c| c.adaptive.auto = auto);
    }

    /// The shared pager (for I/O statistics, page counts, …).
    pub fn pager(&self) -> &Arc<Pager> {
        &self.pager
    }

    /// Snapshot of the I/O statistics.
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.pager.stats().snapshot()
    }

    /// A consistent, materialized view of the catalog (every table's
    /// published state at the time of the call). Taken lock-free; holding
    /// it blocks nobody — but it is a *snapshot*, so state published after
    /// the call is not visible through it.
    pub fn catalog(&self) -> CatalogView {
        let guard = self.epochs.pin();
        let map = self.registry.load(&guard);
        CatalogView::capture(&map, &guard)
    }

    /// The write-ahead log (substrate for transactional page writes).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Number of logical rows in a table.
    pub fn row_count(&self, table: &str) -> Result<usize> {
        let slot = self.slot(table)?;
        Ok(self.pin_state(&slot).row_count())
    }

    /// A point-in-time snapshot of every engine metric: the registered
    /// counters and histograms (see [`crate::observe::metric_names`] for the
    /// stable catalog), the pager's I/O statistics under `io.*`, and each
    /// table's predicted-vs-actual scan-page calibration under
    /// `calibration.<table>.*` (only for tables with at least one
    /// instrumented scan). Serialize with [`MetricsSnapshot::to_json`].
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.obs.registry.snapshot();
        let io = self.pager.stats().snapshot();
        snap.set_counter("io.pages_read", io.pages_read);
        snap.set_counter("io.pages_written", io.pages_written);
        snap.set_counter("io.seeks", io.seeks);
        snap.set_counter("io.bytes_read", io.bytes_read);
        snap.set_counter("io.bytes_written", io.bytes_written);
        snap.set_counter("io.frame_hits", io.frame_hits);
        snap.set_counter("io.frame_copies", io.frame_copies);
        for (name, slot, _) in self.catalog().entries().iter() {
            let samples = slot.calibration_samples.load(Ordering::Relaxed);
            if samples == 0 {
                continue;
            }
            snap.set_counter(
                &format!("calibration.{name}.predicted_pages"),
                slot.predicted_pages_total.load(Ordering::Relaxed),
            );
            snap.set_counter(
                &format!("calibration.{name}.actual_pages"),
                slot.actual_pages_total.load(Ordering::Relaxed),
            );
            snap.set_counter(&format!("calibration.{name}.samples"), samples);
        }
        snap
    }

    /// Drains the engine's decision-trace event ring: adaptation decisions
    /// (with their costed alternatives), lsm spills and merges, checkpoint
    /// phase timings, WAL truncations, and epoch reclamation batches, oldest
    /// first. Each [`Event`] serializes itself with [`Event::to_json`];
    /// [`Database::events_json`] dumps the whole drain at once.
    pub fn events(&self) -> Vec<Event> {
        self.obs.events.drain()
    }

    /// Drains the event ring and dumps it as one JSON array.
    pub fn events_json(&self) -> String {
        let events = self.events();
        let mut out = String::from("[");
        for (i, event) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&event.to_json());
        }
        out.push(']');
        out
    }

    /// Events discarded because the ring filled before a drain (monotone).
    pub fn events_dropped(&self) -> u64 {
        self.obs.events.dropped()
    }

    /// Whether metric/event recording is currently on (the default).
    pub fn metrics_enabled(&self) -> bool {
        self.obs.enabled()
    }

    /// Turns metric and event recording on or off. Off reduces every
    /// instrumentation site to one relaxed atomic load — the configuration
    /// the `scan_hot_path` bench compares against to bound the overhead.
    /// Already-recorded values are kept.
    pub fn set_metrics_enabled(&self, enabled: bool) {
        self.obs.set_enabled(enabled);
    }

    /// A point-in-time copy of the live workload profile captured for a
    /// table.
    pub fn workload_profile(&self, table: &str) -> Result<crate::monitor::WorkloadProfile> {
        Ok(self.slot(table)?.profile.lock().clone())
    }

    /// Render/append/adaptation counters for a table.
    pub fn layout_stats(&self, table: &str) -> Result<crate::catalog::LayoutStats> {
        let slot = self.slot(table)?;
        Ok(self.pin_state(&slot).stats)
    }
}

/// Every page a rendering's extent owns: heap pages plus index tree pages.
/// (Relocation notes are drained separately at reclamation time.)
fn owned_pages(access: &AccessMethods) -> Vec<PageId> {
    access.layout().extent_pages().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodentstore_workload::{generate_traces, traces_schema, CartelConfig};

    pub(super) fn small_db() -> Database {
        let db = Database::with_page_size(2048);
        db.create_table(traces_schema()).unwrap();
        db.insert(
            "Traces",
            generate_traces(&CartelConfig {
                observations: 1_500,
                vehicles: 10,
                ..CartelConfig::default()
            }),
        )
        .unwrap();
        db
    }
}
