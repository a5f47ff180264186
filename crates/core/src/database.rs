//! The RodentStore database façade.

use crate::catalog::{
    CanonicalStore, CatalogView, PinnedRows, Registry, Rows, TableMap, TableSlot, TableState,
};
use crate::durability::{self, Durability, DurabilityOptions, DurableOp, ManifestContext};
use crate::observe::EngineObs;
use crate::reorg::ReorgStrategy;
use crate::{Result, RodentError};
use parking_lot::{Mutex, RwLock};
use rodentstore_algebra::comprehension::Condition;
use rodentstore_algebra::expr::LayoutExpr;
use rodentstore_algebra::parse;
use rodentstore_algebra::schema::Schema;
use rodentstore_algebra::validate;
use rodentstore_algebra::value::Record;
use rodentstore_exec::{
    AccessMethods, CostParams, Cursor, ScanRequest, WindowAccumulator, WindowRow,
    WindowedAggregate,
};
use rodentstore_layout::{
    render, AppendOutcome, LsmActivity, LsmRun, LsmState, PhysicalLayout,
    RenderOptions, RowTail, ScanPlan, StoredIndex, StoredObject,
};
use rodentstore_optimizer::{advise_sampled, AdvisorOptions, Recommendation, Workload};
use rodentstore_storage::heap::HeapFile;
use rodentstore_storage::pager::{FileStore, PageStore, Pager};
use rodentstore_obs::{CostedAlternative, Event, EventKind, JsonWriter, MetricsSnapshot};
use rodentstore_storage::stats::{IoSnapshot, OpStatsScope};
use rodentstore_storage::wal::{Wal, WalInstruments};
use rodentstore_storage::PageId;
use rodentstore_sync::{AtomicArc, EpochRegistry};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
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
/// and pushed onto [`Database::retired`] together with the epoch at which
/// the replacement was published.
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

/// Epoch-tagged garbage: anything a writer unlinked from the published
/// structures but that a reader pinned *before* the swap may still hold.
/// Dropped (and, for renderings, its pages reclaimed) once every epoch pin
/// taken before the swap has been released — see [`Database::reap_retired`].
enum Retired {
    /// A superseded table state. Holding it keeps its `records` chunks and
    /// its `access` alive for late readers.
    State {
        _state: Arc<TableState>,
        epoch: u64,
    },
    /// A superseded table map (from `create_table`/`drop_table`).
    Map {
        _map: Arc<TableMap>,
        epoch: u64,
    },
    /// A superseded configuration value.
    Config {
        _config: Arc<Config>,
        epoch: u64,
    },
    /// A superseded rendering with the pages it owns (see [`RetiredAccess`]).
    Access {
        access: Arc<AccessMethods>,
        chain: Arc<()>,
        pages: Vec<PageId>,
        epoch: u64,
        whole_chain: bool,
    },
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
///    mutation (insert, layout change, create/drop, lazy render) from
///    before it applies until its WAL commit resolves; *write* side held by
///    `checkpoint`, making the manifest a consistent cut of states,
///    retirement list, and commit outcomes.
/// 2. `registry.structural` (`Mutex`) — serializes `create_table` /
///    `drop_table` (map publication).
/// 3. per-table `TableSlot::writer` (`Mutex`) — serializes state
///    publication for one table (held across build + swap; `drop_table`
///    takes it too, so a concurrent insert cannot apply to a dropped slot
///    after its drop was logged).
/// 4. leaf mutexes — `TableSlot::profile`, the `retired` list,
///    `pending_free`, config writes, and storage-level locks (WAL state,
///    heap files, pager).
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
    /// Epoch-tagged superseded states, maps, configs, and renderings whose
    /// reclamation waits for old reader pins to drain. Replaces the old
    /// graveyard; reaped opportunistically by every write path.
    retired: Mutex<Vec<Retired>>,
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
    /// Creates an in-memory database with the default (16 KiB) page size.
    pub fn in_memory() -> Database {
        Database::with_pager(Arc::new(Pager::in_memory()))
    }

    /// Creates an in-memory database with an explicit page size.
    pub fn with_page_size(page_size: usize) -> Database {
        Database::with_pager(Arc::new(Pager::in_memory_with_page_size(page_size)))
    }

    /// Creates a database over an arbitrary pager (e.g. file-backed).
    pub fn with_pager(pager: Arc<Pager>) -> Database {
        let db = Database {
            registry: Registry::new(),
            epochs: EpochRegistry::new(),
            pager,
            wal: Wal::new(),
            config: AtomicArc::new(Arc::new(Config::default())),
            config_write: Mutex::new(()),
            durability: None,
            retired: Mutex::new(Vec::new()),
            pending_free: Mutex::new(Vec::new()),
            parked_runs: Mutex::new(Vec::new()),
            commit_fence: RwLock::new(()),
            replaying: std::sync::atomic::AtomicBool::new(false),
            obs: EngineObs::new(),
        };
        db.install_wal_instruments();
        db
    }

    /// Hands the WAL the engine's commit/fsync histograms. Called once per
    /// WAL instance — the constructors that replace `self.wal` (durable
    /// create/open) re-install after the swap.
    fn install_wal_instruments(&self) {
        self.wal.set_instruments(WalInstruments {
            commit_micros: Arc::clone(&self.obs.ins.wal_commit_micros),
            fsync_micros: Arc::clone(&self.obs.ins.wal_fsync_micros),
        });
    }

    /// Creates (or resets) a durable database in directory `dir` with the
    /// default [`DurabilityOptions`] (16 KiB pages, durable group commit).
    /// Three files are created: `data.rodent` (pages, with a validated
    /// superblock), `wal.rodent` (the write-ahead log), and
    /// `manifest.rodent` (the catalog checkpoint). Every mutation is logged
    /// through the WAL before pages are touched; call
    /// [`Database::checkpoint`] to bound the log, and [`Database::open`] to
    /// come back after a restart or crash.
    pub fn create(dir: impl AsRef<Path>) -> Result<Database> {
        Database::create_with(dir, DurabilityOptions::default())
    }

    /// [`Database::create`] with explicit page size and sync policy.
    pub fn create_with(dir: impl AsRef<Path>, options: DurabilityOptions) -> Result<Database> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| RodentError::Storage(rodentstore_storage::StorageError::Io(e)))?;
        let (data_path, wal_path, manifest_path) = durability::db_paths(&dir);
        // Resetting an existing database: remove its manifest *before*
        // truncating the data/WAL files. A crash mid-create then leaves a
        // directory that cleanly fails to open (no manifest), never an old
        // manifest pointing page extents into an emptied data file.
        if manifest_path.exists() {
            std::fs::remove_file(&manifest_path)
                .map_err(|e| RodentError::Storage(rodentstore_storage::StorageError::Io(e)))?;
        }
        let store = Arc::new(FileStore::create(&data_path, options.page_size)?);
        let pager = Arc::new(Pager::with_store(
            Arc::clone(&store) as Arc<dyn PageStore>
        ));
        let mut db = Database::with_pager(pager);
        db.wal = Wal::create(&wal_path, options.sync).map_err(RodentError::Storage)?;
        db.install_wal_instruments();
        // An initial (empty) manifest makes the directory openable even if
        // the process dies before the first checkpoint.
        let config = db.config_snapshot();
        let manifest = durability::encode_manifest(
            &db.catalog(),
            &ManifestContext {
                page_size: options.page_size,
                page_count: 0,
                replay_from_lsn: 0,
                free_pages: Vec::new(),
                policy: config.adaptive.clone(),
                cost_params: config.cost_params,
            },
        )?;
        durability::write_manifest_file(&dir, &manifest)?;
        db.durability = Some(Durability { dir });
        Ok(db)
    }

    /// Opens a durable database directory: validates the data file's
    /// superblock against the manifest, reattaches every rendered layout
    /// from its persisted page extents (**no re-rendering**), restores each
    /// table's workload profile and layout statistics, discards data pages
    /// written after the last checkpoint, and replays the WAL tail —
    /// committed transactions win, torn or corrupt tails are discarded.
    pub fn open(dir: impl AsRef<Path>) -> Result<Database> {
        Database::open_with(dir, DurabilityOptions::default())
    }

    /// [`Database::open`] with an explicit sync policy for future commits
    /// (the page size always comes from the manifest).
    pub fn open_with(dir: impl AsRef<Path>, options: DurabilityOptions) -> Result<Database> {
        let dir = dir.as_ref().to_path_buf();
        let (data_path, wal_path, _) = durability::db_paths(&dir);
        let manifest = durability::decode_manifest(&durability::read_manifest_file(&dir)?)?;
        let store = Arc::new(FileStore::open_expecting(&data_path, manifest.page_size)?);
        // Pages written after the checkpoint are not described by the
        // manifest; drop them — the WAL replay below re-derives their
        // contents from the logged logical operations.
        store
            .truncate(manifest.page_count)
            .map_err(RodentError::Storage)?;
        let pager = Arc::new(Pager::with_store(
            Arc::clone(&store) as Arc<dyn PageStore>
        ));
        // The checkpointed free list becomes usable again the moment the
        // data file is truncated back to the checkpoint: pages retired
        // before the checkpoint are dead (or were pinned by readers that no
        // longer exist), so WAL replay below may re-render into them.
        pager.restore_free_list(manifest.free_pages.iter().copied());
        let mut db = Database::with_pager(Arc::clone(&pager));
        // Single-owner phase throughout `open`: no concurrent readers can
        // exist before the database is returned, so superseded values are
        // dropped directly instead of routed through the epoch scheme.
        drop(db.config.swap(Arc::new(Config {
            cost_params: manifest.cost_params,
            adaptive: manifest.policy.clone(),
            render_options: RenderOptions::default(),
        })));
        let cost_params = manifest.cost_params;

        let mut orphaned_index_pages: Vec<PageId> = Vec::new();
        {
            // Pass 1: every table's schema, rows (decoded from the
            // canonical extent), profile, and counters.
            let mut entries: Vec<(String, Arc<TableSlot>)> = Vec::new();
            let mut rendered = Vec::new();
            for table in manifest.tables {
                let name = table.schema.name().to_string();
                if entries.iter().any(|(n, _)| n == &name) {
                    return Err(RodentError::TableExists(name));
                }
                // The canonical rows come back from their page extent; the
                // pending rows are, by invariant, the last of them.
                let (canonical, records) =
                    CanonicalStore::reattach(&name, Arc::clone(&pager), table.canonical)?;
                let pending_start = usize::try_from(table.pending_count)
                    .ok()
                    .and_then(|pending| records.len().checked_sub(pending))
                    .ok_or_else(|| {
                        RodentError::Storage(rodentstore_storage::StorageError::Corrupted(format!(
                            "manifest claims {} pending rows of `{name}`'s {}",
                            table.pending_count,
                            records.len()
                        )))
                    })?;
                let mut state = TableState::new(table.schema);
                state.strategy = table.strategy;
                state.pending = pending_start..records.len();
                state.records = Rows::from_vec(records);
                state.stats = table.stats;
                if let Some(expr_text) = table.layout_expr {
                    state.layout_expr = Some(parse(&expr_text)?);
                }
                let slot = TableSlot::with_state(state, table.profile.into_profile());
                *slot.canonical.lock() = Some(canonical);
                entries.push((name.clone(), Arc::new(slot)));
                if let Some(r) = table.rendered {
                    rendered.push((name, r));
                }
            }
            drop(db.registry.publish(TableMap { entries }));

            // Pass 2: reattach rendered layouts (after *all* schemas exist,
            // so multi-table expressions like prejoin validate).
            let view = db.catalog();
            let schemas = view.schemas();
            for (name, r) in rendered {
                let expr = view.get(&name)?.layout_expr.clone().ok_or_else(|| {
                    RodentError::Invalid(format!(
                        "manifest has a rendered layout for `{name}` but no expression"
                    ))
                })?;
                let derived = validate::check_with(&expr, &schemas)?;
                let layout = reattach(r, expr, derived, &pager, &mut orphaned_index_pages)?;
                let slot = db.slot(&name)?;
                let cur = db.pin_state(&slot);
                let mut next = (*cur).clone();
                next.access = Some(Arc::new(AccessMethods::with_cost_params(
                    layout,
                    cost_params,
                )));
                next.chain = Arc::new(());
                drop(slot.state.swap(Arc::new(next)));
            }
        }

        // Replay the WAL tail past the checkpoint. The `replaying` flag
        // suppresses re-logging, while `durability` is already set so that
        // pages freed by replayed layout swaps are *quarantined* — the
        // manifest we just reattached from still references them, and a
        // crash during or after replay (before the next checkpoint) must
        // find them intact.
        db.wal = Wal::open(&wal_path, options.sync).map_err(RodentError::Storage)?;
        db.install_wal_instruments();
        db.durability = Some(Durability { dir });
        // Manifest tree pages that could not be reattached: the on-disk
        // manifest still references them until the next checkpoint, so they
        // quarantine rather than free.
        db.quarantine(std::mem::take(&mut orphaned_index_pages));
        db.replaying.store(true, Ordering::SeqCst);
        for (lsn, _tx, payload) in db.wal.committed_ops().map_err(RodentError::Storage)? {
            if lsn < manifest.replay_from_lsn {
                continue;
            }
            let op = DurableOp::decode(&payload)?;
            db.apply_op(op)?;
        }
        db.replaying.store(false, Ordering::SeqCst);

        // Fallback: anything still indexless but declared indexed (the
        // manifest disagreed with the declared layout above) rebuilds from
        // the recovered stored objects. The rebuild happens on a fork — the
        // recovered rendering may be shared with states superseded during
        // replay — and publishes through the normal retirement route.
        db.reap_retired();
        let view = db.catalog();
        for (_, slot, state) in view.entries().iter() {
            let Some(access) = state.access.clone() else {
                continue;
            };
            if access.layout().derived.index.is_none() || access.layout().index.is_some() {
                continue;
            }
            let mut forked_layout = access.layout().fork_for_append()?;
            forked_layout.rebuild_index()?;
            let vacated = forked_layout.take_relocated();
            let forked = AccessMethods::with_cost_params(forked_layout, cost_params);
            let _w = slot.writer.lock();
            let cur = db.pin_state(slot);
            let mut next = (*cur).clone();
            let chain = Arc::clone(&next.chain);
            next.access = Some(Arc::new(forked));
            db.publish_state(
                slot,
                next,
                vec![RetiredAccess {
                    access,
                    chain,
                    pages: vacated,
                    whole_chain: false,
                }],
            );
        }
        drop(view);
        Ok(db)
    }

    /// Whether this database is file-backed (created via
    /// [`Database::create`]/[`Database::open`]).
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Checkpoints a durable database: appends the canonical rows added
    /// since the last checkpoint to each table's canonical store, flushes
    /// every rendered object's tail page, syncs the data file, atomically
    /// rewrites the manifest (catalog, canonical and layout page extents,
    /// workload profiles, the free-page list, and the adaptive policy / cost
    /// parameters — metadata only), and truncates the WAL. The cost follows
    /// what changed plus O(pages) of metadata, not the table sizes. After a
    /// checkpoint, [`Database::open`] needs no replay and no re-rendering.
    /// Errors on in-memory databases.
    ///
    /// Holds the commit fence's **write** side for the duration: every
    /// durable mutation holds the read side across its apply-and-commit
    /// window, so the captured [`CatalogView`] is a consistent cut
    /// *including* commit outcomes, and the retirement list folded into the
    /// manifest's free list cannot gain entries that the captured states
    /// still reference. Readers take no lock and are never stalled behind
    /// the checkpoint's fsyncs.
    pub fn checkpoint(&self) -> Result<()> {
        let dir = match &self.durability {
            Some(d) => d.dir.clone(),
            None => {
                return Err(RodentError::Invalid(
                    "checkpoint requires a durable database (Database::create/open)".into(),
                ))
            }
        };
        let _fence = self.commit_fence.write();
        // Phase timings feed the `checkpoint` event; a few `Instant` reads
        // are noise next to the fsyncs they bracket.
        let cp_started = Instant::now();
        let mut phases: Vec<(String, u64)> = Vec::new();
        let mut phase_started = Instant::now();
        let mark = |phases: &mut Vec<(String, u64)>, started: &mut Instant, name: &str| {
            phases.push((name.to_string(), started.elapsed().as_micros() as u64));
            *started = Instant::now();
        };
        self.reap_retired();
        mark(&mut phases, &mut phase_started, "reap_retired");
        let mut notes = Vec::new();
        let view = self.catalog();
        // Persist the canonical rows the stores do not hold yet. The fence
        // is held, so every row in `records` is resolved: nothing appended
        // here can still roll back. A store's vacated tail quarantines at
        // once — a checkpoint that fails later must not lose track of it.
        let mut rows_persisted = 0u64;
        let mut canonical_pages = 0u64;
        for (name, slot, state) in view.entries().iter() {
            let mut canonical = slot.canonical.lock();
            let store = canonical
                .get_or_insert_with(|| CanonicalStore::create(name, Arc::clone(&self.pager)));
            let persisted = store.persist(&state.records);
            self.pending_free.lock().extend(store.take_relocated());
            rows_persisted += persisted?;
            canonical_pages += store.page_count() as u64;
        }
        self.compact_canonical_tail(&view)?;
        // Write out partially filled heap tails so every page extent is
        // complete (tails stay open: later appends keep refilling them, and
        // the manifest records their valid slot counts), then *protect*
        // each tail: once the manifest references it, it is never
        // rewritten in place — the next append relocates it. Pages already
        // superseded by earlier relocations join the quarantine *before*
        // the snapshot below, so a checkpoint that fails later cannot lose
        // track of them — they simply wait for the next attempt.
        {
            let mut pending = self.pending_free.lock();
            for (_, _, state) in view.entries().iter() {
                if let Some(access) = &state.access {
                    for obj in &access.layout().objects {
                        obj.heap.flush().map_err(RodentError::Storage)?;
                        obj.heap.protect_tail();
                        pending.extend(obj.heap.take_relocated());
                    }
                    // Index trees get the same treatment at whole-tree
                    // granularity: the manifest below references the current
                    // pages, so the next maintenance rebuilds into fresh ones
                    // and the vacated pages quarantine here next time.
                    if let Some(idx) = &access.layout().index {
                        pending.extend(idx.take_relocated());
                        idx.protect();
                    }
                    // Sealed lsm runs carry no refillable tails and were
                    // flushed when sealed; runs merged away by tier
                    // compaction join the parking lot and are swept below
                    // once no generation can still read them.
                    if let Some(lsm) = &access.layout().lsm {
                        notes.extend(lsm.take_relocation_notes());
                    }
                }
            }
            // Relocation notes of retired-but-pinned renderings are dead
            // too (pins read sealed pages, never relocation bookkeeping);
            // same quarantine route.
            for retired in self.retired.lock().iter() {
                if let Retired::Access { access, .. } = retired {
                    pending.extend(access.layout().take_relocated());
                    notes.extend(access.layout().take_lsm_relocation_notes());
                }
            }
        }
        self.park_lsm_notes(notes);
        // Sweep the parking lot: extents of runs no generation holds any more
        // join this checkpoint's quarantine (and thus this manifest's free
        // list).
        let freed = self.unpark_lsm_runs();
        self.pending_free.lock().extend(freed);
        mark(&mut phases, &mut phase_started, "flush_tails");
        self.pager.sync().map_err(RodentError::Storage)?;
        mark(&mut phases, &mut phase_started, "pager_sync");
        let replay_from = self.wal.next_lsn();
        // The manifest's free list: pages free right now, plus everything
        // quarantined since the last checkpoint (this manifest is the one
        // that stops referencing them), plus the pages owned by retired
        // renderings still pinned by in-flight readers — pins cannot
        // survive a restart, so after recovery those pages are genuinely
        // free (and do not leak across restarts).
        let quarantined = self.pending_free.lock().clone();
        let mut free_pages = self.pager.free_list();
        free_pages.extend(quarantined.iter().copied());
        for retired in self.retired.lock().iter() {
            if let Retired::Access { pages, .. } = retired {
                free_pages.extend(pages.iter().copied());
            }
        }
        // Parked compaction extents are likewise only held back by
        // in-process readers; after a restart nothing references them.
        for run in self.parked_runs.lock().iter() {
            free_pages.extend(run.heap.extent());
        }
        free_pages.sort_unstable();
        free_pages.dedup();
        let config = self.config_snapshot();
        let manifest = durability::encode_manifest(
            &view,
            &ManifestContext {
                page_size: self.pager.page_size(),
                page_count: self.pager.page_count(),
                replay_from_lsn: replay_from,
                free_pages,
                policy: config.adaptive.clone(),
                cost_params: config.cost_params,
            },
        )?;
        durability::write_manifest_file(&dir, &manifest)?;
        let manifest_bytes = manifest.len() as u64;
        mark(&mut phases, &mut phase_started, "write_manifest");
        // The manifest on disk no longer references the quarantined pages:
        // they are now safe to reallocate. `quarantine` only appends and
        // checkpoints are serialized, so the snapshot taken above is
        // exactly the current prefix of the list — pages quarantined
        // *during* the manifest write stay behind for the next checkpoint.
        let pages_freed = quarantined.len() as u64;
        self.pending_free.lock().drain(..quarantined.len());
        self.pager.free_pages(quarantined);
        mark(&mut phases, &mut phase_started, "release_quarantine");
        if let Some(last) = self.wal.last_lsn() {
            let bytes_before = self.wal.bytes_len().map_err(RodentError::Storage)?;
            self.wal.truncate(last).map_err(RodentError::Storage)?;
            if self.obs.enabled() {
                let bytes_after = self.wal.bytes_len().map_err(RodentError::Storage)?;
                self.obs.ins.wal_truncations.incr();
                self.obs
                    .ins
                    .wal_truncated_bytes
                    .add(bytes_before.saturating_sub(bytes_after));
                self.obs.events.push(EventKind::WalTruncate {
                    bytes_before,
                    bytes_after,
                });
            }
        }
        mark(&mut phases, &mut phase_started, "wal_truncate");
        // The copying vacuum's payoff: compaction and retirement leave free
        // pages behind, and when a contiguous run of them forms the file's
        // tail, the data file can actually shrink. Safe only *now*: the
        // manifest just written lists these pages as free, so a crash after
        // the truncate recovers by extending the file back with zeroed
        // pages nothing references.
        let mut free = self.pager.free_list();
        free.sort_unstable();
        let mut keep = self.pager.page_count();
        while keep > 0 && free.last() == Some(&(keep - 1)) {
            free.pop();
            keep -= 1;
        }
        if keep < self.pager.page_count() {
            self.pager
                .truncate_pages(keep)
                .map_err(RodentError::Storage)?;
        }
        mark(&mut phases, &mut phase_started, "shrink_data_file");
        if self.obs.enabled() {
            self.obs.ins.checkpoint_count.incr();
            self.obs.ins.checkpoint_pages_freed.add(pages_freed);
            self.obs.ins.checkpoint_rows_persisted.add(rows_persisted);
            self.obs.ins.checkpoint_manifest_bytes.set(manifest_bytes);
            self.obs.ins.canonical_pages.set(canonical_pages);
            self.obs
                .ins
                .checkpoint_micros
                .record(cp_started.elapsed().as_micros() as u64);
            self.obs.events.push(EventKind::Checkpoint {
                micros: cp_started.elapsed().as_micros() as u64,
                pages_freed,
                phases,
            });
        }
        Ok(())
    }

    /// The copying vacuum for canonical pages (checkpoint only, after the
    /// stores are persisted and flushed). A rendering's pages leave the file
    /// when the rendering is retired, but canonical pages live as long as
    /// their table, and one sitting at the end of the file pins every free
    /// page below it. Walking back from the end of the file: free pages are
    /// skipped (the shrink phase will cut them), a canonical page is copied
    /// to the lowest free page below it, and the first page that is neither
    /// ends the walk — so a page moves only when that lets the file shrink.
    ///
    /// Copies land on pages the on-disk manifest lists as free, and the
    /// vacated pages quarantine: the old manifest stays valid until this
    /// checkpoint's manifest, which references the copies, replaces it.
    fn compact_canonical_tail(&self, view: &CatalogView) -> Result<()> {
        let free: std::collections::HashSet<PageId> = self.pager.free_list().into_iter().collect();
        let last_live = (0..self.pager.page_count())
            .rev()
            .find(|page| !free.contains(page));
        let (Some(&lowest_free), Some(last_live)) = (free.iter().min(), last_live) else {
            return Ok(());
        };
        let mut stores: Vec<_> = view
            .entries()
            .iter()
            .map(|(_, slot, _)| slot.canonical.lock())
            .collect();
        let extents: Vec<Vec<PageId>> = stores
            .iter()
            .map(|store| store.as_ref().map_or_else(Vec::new, |store| store.pages()))
            .collect();
        // The common case: the file ends on a rendered page, nothing to do.
        if lowest_free > last_live || !extents.iter().flatten().any(|&page| page == last_live) {
            return Ok(());
        }
        // Which store holds each canonical page that could move, and where.
        let mut holder = std::collections::HashMap::new();
        for (s, extent) in extents.iter().enumerate() {
            for (at, &page) in extent.iter().enumerate() {
                if page > lowest_free {
                    holder.insert(page, (s, at));
                }
            }
        }
        let mut moved: Vec<Vec<(usize, PageId)>> = vec![Vec::new(); stores.len()];
        let mut failed = None;
        for page in (0..=last_live).rev() {
            if free.contains(&page) {
                continue;
            }
            let Some(&(s, at)) = holder.get(&page) else {
                break;
            };
            let Some(mut copy) = self.pager.allocate_below(page) else {
                break;
            };
            let written = self.pager.read_frame(page).and_then(|original| {
                copy.data.copy_from_slice(original.data());
                self.pager.write(&copy)
            });
            if let Err(e) = written {
                // Nothing references the copy yet: hand the page back, keep
                // the moves already made.
                self.pager.free_pages([copy.id]);
                failed = Some(RodentError::Storage(e));
                break;
            }
            moved[s].push((at, copy.id));
        }
        for (store, moved) in stores.iter_mut().zip(&moved) {
            if let (Some(store), false) = (store.as_mut(), moved.is_empty()) {
                let vacated = store.rehome(moved)?;
                self.pending_free.lock().extend(vacated);
            }
        }
        failed.map_or(Ok(()), Err)
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
        let old = self.config.swap(Arc::new(config));
        let epoch = self.epochs.advance();
        self.retired.lock().push(Retired::Config {
            _config: old,
            epoch,
        });
    }

    /// Publishes `state` as `slot`'s current state (caller holds the slot's
    /// writer mutex), retiring the superseded state — and any renderings the
    /// writer replaced — at the publication epoch.
    fn publish_state(&self, slot: &TableSlot, state: TableState, retire: Vec<RetiredAccess>) {
        let old = slot.state.swap(Arc::new(state));
        let epoch = self.epochs.advance();
        let mut retired = self.retired.lock();
        retired.push(Retired::State {
            _state: old,
            epoch,
        });
        for r in retire {
            retired.push(Retired::Access {
                access: r.access,
                chain: r.chain,
                pages: r.pages,
                epoch,
                whole_chain: r.whole_chain,
            });
        }
    }

    /// Publishes a new table map (create/drop; caller holds `structural`),
    /// retiring the superseded map.
    fn publish_map(&self, map: TableMap) {
        let old = self.registry.publish(map);
        let epoch = self.epochs.advance();
        self.retired.lock().push(Retired::Map { _map: old, epoch });
    }

    /// Retires renderings outside a state publication (drop_table: the
    /// state itself stays reachable through the retired map).
    fn retire_accesses(&self, retire: Vec<RetiredAccess>) {
        if retire.is_empty() {
            return;
        }
        let epoch = self.epochs.advance();
        let mut retired = self.retired.lock();
        for r in retire {
            retired.push(Retired::Access {
                access: r.access,
                chain: r.chain,
                pages: r.pages,
                epoch,
                whole_chain: r.whole_chain,
            });
        }
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
            retired.retain(|r| match r {
                Retired::State { epoch, .. }
                | Retired::Map { epoch, .. }
                | Retired::Config { epoch, .. } => *epoch >= min_active,
                Retired::Access { .. } => true,
            });
            for reap_whole_chain in [false, true] {
                retired.retain(|r| {
                    let Retired::Access {
                        access,
                        chain,
                        pages,
                        epoch,
                        whole_chain,
                    } = r
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

    /// Re-executes a logged operation during recovery — through the same
    /// public mutation paths normal operation uses (the `replaying` flag
    /// suppresses re-logging inside them).
    fn apply_op(&self, op: DurableOp) -> Result<()> {
        match op {
            DurableOp::CreateTable(schema) => self.create_table(schema),
            DurableOp::DropTable(table) => self.drop_table(&table),
            DurableOp::Insert { table, rows } => self.insert(&table, rows),
            DurableOp::ApplyLayout {
                table,
                expr,
                strategy,
                adapted,
            } => {
                let parsed = parse(&expr)?;
                self.apply_layout_inner(&table, parsed, strategy, adapted, None)
                    .map(|_| ())
            }
        }
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
}

impl Database {
    /// Creates a table from its logical schema.
    pub fn create_table(&self, schema: Schema) -> Result<()> {
        let _fence = self
            .durability
            .is_some()
            .then(|| self.commit_fence.read());
        let _structural = self.registry.structural.lock();
        self.reap_retired();
        let entries = {
            let guard = self.epochs.pin();
            let map = self.registry.load(&guard);
            if map.get(schema.name()).is_some() {
                return Err(RodentError::TableExists(schema.name().to_string()));
            }
            map.entries.clone()
        };
        // Commit before applying: the map publication cannot fail after the
        // existence pre-check, so a commit-record failure leaves nothing
        // applied (and a crash after the commit is healed by replay). A
        // failed commit is compensated with an abort so a commit record
        // that landed before its sync failed cannot replay a table the
        // caller was told does not exist.
        let tx = self.log_op_begin(|| durability::encode_create_table(&schema))?;
        if let Err(e) = self.log_op_commit(tx) {
            self.log_op_abort(tx);
            return Err(e);
        }
        let mut entries = entries;
        entries.push((
            schema.name().to_string(),
            Arc::new(TableSlot::new(schema)),
        ));
        self.publish_map(TableMap { entries });
        Ok(())
    }

    /// Drops a table. Its rendered pages are returned to the pager's free
    /// list for reuse once no in-flight reader pins them; its canonical
    /// pages, which no reader touches, once the next checkpoint's manifest
    /// stops referencing them.
    pub fn drop_table(&self, table: &str) -> Result<()> {
        let _fence = self
            .durability
            .is_some()
            .then(|| self.commit_fence.read());
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
        // after the existence pre-check (and a failed commit is compensated
        // with an abort, as there).
        let tx = self.log_op_begin(|| durability::encode_drop_table(table))?;
        if let Err(e) = self.log_op_commit(tx) {
            self.log_op_abort(tx);
            return Err(e);
        }
        let state = self.pin_state(&slot);
        let mut retire = Vec::new();
        if let Some(access) = state.access.clone() {
            retire.push(RetiredAccess {
                pages: owned_pages(&access),
                chain: Arc::clone(&state.chain),
                access,
                whole_chain: true,
            });
        }
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
        self.publish_map(TableMap { entries });
        // The dropped state stays reachable through the retired map until
        // old pins drain; its rendering's pages follow the same clock.
        self.retire_accesses(retire);
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
        let _fence = self
            .durability
            .is_some()
            .then(|| self.commit_fence.read());
        let slot = self.slot(table)?;
        let (tx, records_before, queue) = {
            let _w = slot.writer.lock();
            if !self.slot_is_current(table, &slot) {
                return Err(RodentError::UnknownTable(table.to_string()));
            }
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
        let config = self.config_snapshot();
        let run_check = {
            let mut profile = slot.profile.lock();
            profile.record_insert();
            config.adaptive.auto && profile.queries_since_check >= config.adaptive.check_every
        };
        if let Some(started) = started {
            self.obs.ins.insert_batches.incr();
            self.obs.ins.insert_rows.add(inserted as u64);
            self.obs
                .ins
                .insert_micros
                .record(started.elapsed().as_micros() as u64);
        }
        if run_check && !self.replaying.load(Ordering::SeqCst) {
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
            let mut retire = Vec::new();
            // Rows still pending were never rendered. A rendering that
            // absorbed the doomed rows is discarded: the next access
            // re-renders from the canonical rows, which now match exactly
            // what recovery would replay.
            let absorbed = if start < state.pending.start {
                next.access.take()
            } else {
                None
            };
            if let Some(access) = absorbed {
                retire.push(RetiredAccess {
                    pages: owned_pages(&access),
                    chain: std::mem::replace(&mut next.chain, Arc::new(())),
                    access,
                    whole_chain: true,
                });
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

    /// Number of logical rows in a table.
    pub fn row_count(&self, table: &str) -> Result<usize> {
        let slot = self.slot(table)?;
        Ok(self.pin_state(&slot).row_count())
    }

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
    fn apply_layout_inner(
        &self,
        table: &str,
        expr: LayoutExpr,
        strategy: ReorgStrategy,
        adapted: bool,
        expected: Option<&LayoutExpr>,
    ) -> Result<bool> {
        let _fence = self
            .durability
            .is_some()
            .then(|| self.commit_fence.read());
        // Validate against the whole catalog so prejoins across tables work
        // — and so invalid expressions are rejected *before* they are
        // logged.
        validate::check_with(&expr, &self.catalog().schemas())?;
        let slot = self.slot(table)?;
        let _w = slot.writer.lock();
        if !self.slot_is_current(table, &slot) {
            return Err(RodentError::UnknownTable(table.to_string()));
        }
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
        let mut retire = Vec::new();
        if let Some(old) = next.access.take() {
            retire.push(RetiredAccess {
                pages: owned_pages(&old),
                chain: std::mem::replace(&mut next.chain, Arc::new(())),
                access: old,
                whole_chain: true,
            });
        }
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
        let slot = self.slot(table)?;
        // Fast path — lock-free: nothing to do for tables without a
        // declared layout, or whose rendering is current.
        {
            let state = self.pin_state(&slot);
            if state.layout_expr.is_none() {
                return Ok(());
            }
            if state.access.is_some()
                && (state.pending.is_empty() || !state.strategy.absorbs_new_data_on_access())
                && !slot.deps_dirty.load(Ordering::SeqCst)
            {
                return Ok(());
            }
        }
        // Slow path: this is a write (it publishes a new rendering and
        // retires pages), so it runs under the commit fence like every
        // durable mutation — a checkpoint's manifest cut must not interleave
        // with the retirement it produces.
        let _fence = self
            .durability
            .is_some()
            .then(|| self.commit_fence.read());
        let _w = slot.writer.lock();
        if !self.slot_is_current(table, &slot) {
            return Err(RodentError::UnknownTable(table.to_string()));
        }
        self.reap_retired();
        let state = self.pin_state(&slot);
        // Re-check under the mutex: another thread may have rendered or
        // absorbed while we waited.
        if state.layout_expr.is_none()
            || (state.access.is_some()
                && (state.pending.is_empty() || !state.strategy.absorbs_new_data_on_access())
                && !slot.deps_dirty.load(Ordering::SeqCst))
        {
            return Ok(());
        }
        let mut next = (*state).clone();
        let mut retire = Vec::new();
        let result = self.render_or_absorb(table, &mut next, &mut retire);
        // Publish even when absorption failed: `render_or_absorb` then left
        // `next` with the rendering discarded (`access: None`), which is
        // the contract — a failed partial append must invalidate, and the
        // canonical rows remain the consistent source of truth.
        self.publish_state(&slot, next, retire);
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
    fn render_or_absorb(
        &self,
        table: &str,
        next: &mut TableState,
        retire: &mut Vec<RetiredAccess>,
    ) -> Result<()> {
        if next.layout_expr.is_none() {
            return Ok(());
        }
        let absorbs = next.strategy.absorbs_new_data_on_access();
        let slot = self.slot(table)?;
        // A joined base table published rows after this table's rendering
        // captured them (see `mark_dependents_dirty`): the rendering is
        // stale no matter how current it looks — skip the absorb fast path
        // and fall through to the full render, which retires it whole and
        // rebuilds from fresh captures.
        let stale_deps = slot.deps_dirty.load(Ordering::SeqCst);
        if let Some(access) = next.access.clone().filter(|_| !stale_deps) {
            if !absorbs || next.pending.is_empty() {
                return Ok(()); // rendering is current
            }
            // Incremental absorption on a fork: the fork shares the
            // published rendering's objects and forks only those it writes
            // (never mutating their pages — a forked object's tail is
            // adopted protected, so its first append relocates it) and
            // appends into fresh pages.
            let cost_params = self.config_snapshot().cost_params;
            let forked_layout = access.layout().fork_for_append()?;
            let mut forked = AccessMethods::with_cost_params(forked_layout, cost_params);
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
                Ok(AppendOutcome::NeedsRebuild(_)) => {
                    self.discard_fork(&forked, &access);
                    next.access = Some(access);
                    // Fall through to the full render below.
                }
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
                    next.access = None;
                    retire.push(RetiredAccess {
                        pages: owned_pages(&access),
                        chain: std::mem::replace(&mut next.chain, Arc::new(())),
                        access,
                        whole_chain: true,
                    });
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
        if let Some(old) = next.access.take() {
            retire.push(RetiredAccess {
                pages: owned_pages(&old),
                chain: std::mem::replace(&mut next.chain, Arc::new(())),
                access: old,
                whole_chain: true,
            });
        } else {
            next.chain = Arc::new(());
        }
        next.access = Some(Arc::new(AccessMethods::with_cost_params(
            layout,
            config.cost_params,
        )));
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

    /// Pins a consistent snapshot of a table — rendering the declared
    /// layout or absorbing pending rows first if needed. The pin itself is
    /// lock-free (an epoch pin plus atomic loads); queries served from it
    /// never block on (and are never corrupted by) concurrent inserts,
    /// layout swaps, adaptation, or checkpoints.
    pub fn snapshot(&self, table: &str) -> Result<TableSnapshot> {
        self.ensure_rendered(table)?;
        let slot = self.slot(table)?;
        Ok(TableSnapshot {
            state: self.pin_state(&slot),
            cost_params: self.config_snapshot().cost_params,
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
        let run_check = self.observe(table, request)?;
        let snapshot = self.snapshot(table)?;
        let ((rows, plan), op) = self.instrumented_scan(|| snapshot.scan_planned(request))?;
        if let Some(op) = op {
            self.obs.ins.scan_rows.add(rows.len() as u64);
            // The prediction of the plan the scan ran — 0 when memory served
            // it — counted after the scan's I/O scope closed, so the tree
            // pages an index probe's count re-reads are not charged to it.
            let predicted = match &plan {
                Some(plan) => plan
                    .predicted_pages()
                    .ok()
                    .or_else(|| snapshot.scan_pages(request).ok()),
                None => Some(0),
            };
            if let (Some(predicted), Ok(slot)) = (predicted, self.slot(table)) {
                slot.predicted_pages_total.fetch_add(predicted, Ordering::Relaxed);
                slot.actual_pages_total.fetch_add(op.pages_read, Ordering::Relaxed);
                slot.calibration_samples.fetch_add(1, Ordering::Relaxed);
            }
        }
        drop(plan);
        drop(snapshot); // release the pin before adaptation may re-render
        if run_check {
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
        // Profile the query as the projected scan it replaces.
        let mut request = ScanRequest::all().fields([&spec.bucket_field, &spec.value_field]);
        request.predicate = predicate.cloned();
        let run_check = self.observe(table, &request)?;
        let snapshot = self.snapshot(table)?;
        let (acc, op) = self.instrumented_scan(|| snapshot.scan_aggregate(spec, predicate))?;
        if op.is_some() {
            self.obs.ins.scan_agg_rows_folded.add(acc.rows_folded());
        }
        drop(snapshot);
        if run_check {
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
        let slot = self.slot(table)?;
        let run_check = {
            let config = self.config_snapshot();
            let state = self.pin_state(&slot);
            let mut profile = slot.profile.lock();
            // Unknown fields error below and must not poison the profile.
            if fields.map_or(true, |fields| {
                fields.iter().all(|f| state.schema.index_of(f).is_ok())
            }) {
                profile.record_get_element(fields);
            }
            config.adaptive.auto && profile.queries_since_check >= config.adaptive.check_every
        };
        let snapshot = self.snapshot(table)?;
        let element = snapshot.get_element(index, fields)?;
        if self.obs.enabled() {
            self.obs.ins.get_element_count.incr();
        }
        drop(snapshot);
        if run_check {
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

    /// Explains how a scan would be served *without running it*: the chosen
    /// access path, the predicted page count (the same
    /// `estimate_scan_pages` number the cost model uses — compare with the
    /// `calibration.<table>.*` metrics for how honest it is), and how much
    /// auxiliary merging (levelled-tier runs, memtable rows, pending buffer
    /// rows) the scan would fold in.
    pub fn explain(&self, table: &str, request: &ScanRequest) -> Result<Explain> {
        let snapshot = self.snapshot(table)?;
        let state = &snapshot.state;
        let layout_expr = state.layout_expr.as_ref().map(|e| e.to_string());
        let pending_rows = state.pending.len() as u64;
        match &state.access {
            Some(access) if layout_serves(access, request) => {
                let layout = access.layout();
                let fields = request.fields.as_deref();
                let predicate = request.predicate.as_ref();
                // Mirror the scan dispatch exactly: opening the iterator is
                // what decides between the streaming and probing paths, and
                // which lsm runs the predicate prunes.
                let iter = layout.scan_iter(fields, predicate)?;
                let access_path = if iter.uses_index() {
                    AccessPath::IndexProbe
                } else {
                    AccessPath::Streaming
                };
                let lsm_runs_pruned = iter.lsm_runs_pruned() as u64;
                drop(iter);
                let (lsm_runs_total, lsm_memtable_rows) = layout
                    .lsm
                    .as_ref()
                    .map_or((0, 0), |lsm| (lsm.runs.len() as u64, lsm.memtable.len() as u64));
                Ok(Explain {
                    table: table.to_string(),
                    layout_expr,
                    access_path,
                    predicted_pages: layout.estimate_scan_pages(fields, predicate),
                    lsm_runs_total,
                    lsm_runs_pruned,
                    lsm_memtable_rows,
                    pending_rows,
                })
            }
            _ => Ok(Explain {
                table: table.to_string(),
                layout_expr,
                access_path: AccessPath::Canonical,
                predicted_pages: 0,
                lsm_runs_total: 0,
                lsm_runs_pruned: 0,
                lsm_memtable_rows: 0,
                pending_rows,
            }),
        }
    }

    /// The sort orders the table's current organization is efficient for.
    pub fn order_list(&self, table: &str) -> Result<Vec<Vec<rodentstore_algebra::expr::SortKey>>> {
        self.ensure_rendered(table)?;
        let slot = self.slot(table)?;
        Ok(self
            .pin_state(&slot)
            .access
            .as_ref()
            .map(|a| a.order_list())
            .unwrap_or_default())
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
        let alternatives: Vec<CostedAlternative> = if recording { {
                recommendation
                    .explored
                    .iter()
                    .take(8)
                    .map(|d| CostedAlternative {
                        expr: d.expr.to_string(),
                        total_ms: d.total_ms,
                    })
                    .collect()
            } } else { Default::default() };
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

    /// Records a scan into the profile, returning whether the auto-adapt
    /// check should run after the query is served. Requests referencing
    /// fields the table does not have are *not* recorded — they error on the
    /// query path anyway, and a poisoned template would make every later
    /// advisor run fail on the unknown field.
    fn observe(&self, table: &str, request: &ScanRequest) -> Result<bool> {
        let config = self.config_snapshot();
        let slot = self.slot(table)?;
        let state = self.pin_state(&slot);
        let known = |f: &String| state.schema.index_of(f).is_ok();
        let valid = request.fields.iter().flatten().all(known)
            && request
                .predicate
                .as_ref()
                .map_or(true, |p| p.referenced_fields().iter().all(known))
            && request
                .order
                .iter()
                .flatten()
                .all(|k| known(&k.field));
        let mut profile = slot.profile.lock();
        if valid {
            profile.record_scan(request);
        }
        Ok(config.adaptive.auto && profile.queries_since_check >= config.adaptive.check_every)
    }

    /// Auto-mode wrapper around [`Database::maybe_adapt`]: an adaptation
    /// check the advisor cannot complete (empty candidate set, a template it
    /// cannot cost, …) must not fail the user's query, so optimizer errors
    /// are swallowed here; catalog and rendering errors still surface. At
    /// most one check runs per table at a time — when many reader threads
    /// cross the `check_every` threshold together, one runs the advisor and
    /// the rest skip.
    fn auto_adapt_check(&self, table: &str) -> Result<()> {
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

    /// [`TableSnapshot::scan`], handing back the read plan of the layout
    /// scan that served it too (`None` when memory served it), whose
    /// predicted pages are what [`TableSnapshot::scan_pages`] estimates.
    fn scan_planned(&self, request: &ScanRequest) -> Result<(Vec<Record>, Option<ScanPlan<'_>>)> {
        let state = &self.state;
        let (mut rows, plan, shape, in_memory) = match &state.access {
            // A layout can only serve requests over the fields it kept; a
            // query referencing a field the (possibly auto-adapted) layout
            // projected away falls back to the canonical rows — and, having
            // been recorded in the profile, steers the next adaptation back
            // toward a layout that covers it.
            Some(access) if layout_serves(access, request) => {
                let (rows, plan) = access.scan_planned(request)?;
                if state.pending.is_empty() {
                    return Ok((rows, Some(plan)));
                }
                let pending = state.records.iter_from(state.pending.start);
                (rows, Some(plan), &access.layout().schema, pending)
            }
            _ => (Vec::new(), None, &state.schema, state.records.iter_from(0)),
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
        let fields = [spec.bucket_field.clone(), spec.value_field.clone()];
        let mut request = ScanRequest::all().fields(fields.clone());
        request.predicate = predicate.cloned();
        let (mut acc, in_memory) = match &self.state.access {
            Some(access) if layout_serves(access, &request) => (
                access.scan_aggregate(spec, predicate)?,
                self.state.records.iter_from(self.state.pending.start),
            ),
            _ => (
                WindowAccumulator::new(spec),
                self.state.records.iter_from(0),
            ),
        };
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
        match &self.state.access {
            Some(access) if layout_serves(access, request) && self.state.pending.is_empty() => {
                Ok(access.open_cursor(request)?)
            }
            _ => Ok(Cursor::new(self.scan(request)?)),
        }
    }

    /// Returns the element at `index` of the snapshot's stored
    /// representation (layout storage order first, then any pending row
    /// buffer).
    pub fn get_element(&self, index: usize, fields: Option<&[String]>) -> Result<Record> {
        let state = &self.state;
        let (shape, in_memory) = match &state.access {
            // Fields the layout projected away are served from the canonical
            // rows (in canonical order — a storage order over fields the
            // layout does not store is not meaningful).
            Some(access)
                if fields.map_or(true, |fields| {
                    fields
                        .iter()
                        .all(|f| access.layout().schema.index_of(f).is_ok())
                }) =>
            {
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
            _ => (&state.schema, state.records.iter_from(index)),
        };
        let out_fields = fields.map_or_else(|| shape.field_names(), <[String]>::to_vec);
        self.tail(in_memory.take(1), &out_fields, None)?
            .next()
            .transpose()?
            .ok_or_else(|| RodentError::Invalid(format!("element {index} out of range")))
    }

    /// Estimated cost of a scan over this snapshot, in milliseconds.
    pub fn scan_cost(&self, request: &ScanRequest) -> Result<f64> {
        match &self.state.access {
            Some(access) if layout_serves(access, request) => Ok(access.scan_cost(request)?),
            _ => {
                let bytes = self.state.records.len() as f64
                    * self.state.schema.estimated_record_width() as f64;
                Ok(self.cost_params.seek_ms
                    + bytes / (self.cost_params.transfer_mb_per_s * 1024.0 * 1024.0) * 1000.0)
            }
        }
    }

    /// Estimated number of pages a scan over this snapshot would read.
    pub fn scan_pages(&self, request: &ScanRequest) -> Result<u64> {
        match &self.state.access {
            Some(access) if layout_serves(access, request) => Ok(access.scan_pages(request)),
            _ => Ok(0),
        }
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

/// Every page a rendering's extent owns: heap pages plus index tree pages.
/// (Relocation notes are drained separately at reclamation time.)
fn owned_pages(access: &AccessMethods) -> Vec<PageId> {
    access.layout().extent_pages().unwrap_or_default()
}

/// Whether the rendered layout can serve every field the request references
/// (projection, predicate, and order keys). A layout that projected a field
/// away cannot — such requests fall back to the canonical rows.
fn layout_serves(access: &AccessMethods, request: &ScanRequest) -> bool {
    let schema = &access.layout().schema;
    if let Some(fields) = &request.fields {
        if !fields.iter().all(|f| schema.index_of(f).is_ok()) {
            return false;
        }
    }
    if let Some(pred) = &request.predicate {
        if !pred
            .referenced_fields()
            .iter()
            .all(|f| schema.index_of(f).is_ok())
        {
            return false;
        }
    }
    if let Some(order) = &request.order {
        if !order.iter().all(|k| schema.index_of(&k.field).is_ok()) {
            return false;
        }
    }
    true
}

/// Reattaches a rendered layout — a table's base or one of its lsm runs —
/// from its manifest record, over `expr` with the properties `derived`
/// re-derived from it: each object over its recorded pages, the declared
/// index, and the tier with every run reattached the same way. Nothing is
/// re-rendered, and a sealed object or run allocates and writes no page.
/// Pages of an index or tier the declared layout no longer has are added
/// to `orphaned`.
fn reattach(
    r: durability::RenderedManifest,
    expr: LayoutExpr,
    mut derived: validate::DerivedLayout,
    pager: &Arc<Pager>,
    orphaned: &mut Vec<PageId>,
) -> Result<PhysicalLayout> {
    // Incremental appends clear native-order claims; restore what was
    // actually true at checkpoint time, not what the expression would
    // promise after a fresh render.
    derived.orderings = r.orderings;
    let schema = derived.schema.clone();
    let objects: Vec<StoredObject> = r
        .objects
        .into_iter()
        .map(|o| {
            // Reopen each object's last page as a refillable tail; orphan
            // slots from discarded post-checkpoint appends are cut before
            // replay re-applies them. A sealed object has no tail.
            let heap = HeapFile::from_pages_with_tail(
                o.name.clone(),
                Arc::clone(pager),
                o.pages,
                o.heap_records,
                o.tail_valid_slots,
            )
            .map_err(RodentError::Storage)?;
            Ok(StoredObject {
                heap,
                name: o.name,
                fields: o.fields,
                encoding: o.encoding,
                codecs: o.codecs.into_iter().collect(),
                cell: o.cell,
                row_count: o.row_count as usize,
                chunks: o.chunks,
            })
        })
        .collect::<Result<_>>()?;
    let mut layout = PhysicalLayout::new(
        r.name,
        expr,
        schema,
        derived,
        objects,
        r.row_count as usize,
        Arc::clone(pager),
    );
    // Reattach the declared index. The checkpointed tree content is
    // trustworthy because post-checkpoint maintenance never mutates
    // manifest-referenced tree pages in place — it rebuilds into fresh ones
    // (see `StoredIndex::protect`), and those fresh pages were truncated
    // away. `from_parts` reattaches protected, so replayed appends relocate
    // the tree before touching it. If the manifest disagrees with the
    // declared layout, its pages are quarantined and the fallback after
    // replay rebuilds a base's index from the recovered heaps.
    if let Some(im) = r.index {
        if layout.derived.index.as_deref() == Some(&im.fields[..]) {
            layout.index = Some(StoredIndex::from_parts(
                Arc::clone(pager),
                &im.kind,
                im.fields,
                im.key_kinds,
                im.root,
                im.len,
                im.height as usize,
                im.outliers,
            )?);
        } else {
            orphaned.extend(im.pages);
        }
    }
    // Reattach the levelled tier. Runs are immutable once sealed, so each
    // reattaches as a base does, over the inner layout's properties —
    // whether the crash hit mid-spill or mid-compaction (the manifest
    // describes whichever generation last checkpointed; later spills
    // replay from the WAL). If the declared layout no longer carries a
    // tier, the run pages quarantine like orphaned index pages.
    if let Some(lm) = r.lsm {
        let Some(key) = layout.derived.lsm.clone() else {
            // A run record holds no tier, so its objects and index are all.
            for run in lm.runs.into_iter().map(|run| run.layout) {
                orphaned.extend(run.objects.into_iter().flat_map(|o| o.pages));
                orphaned.extend(run.index.into_iter().flat_map(|im| im.pages));
            }
            return Ok(layout);
        };
        let mut inner = layout.derived.clone();
        inner.lsm = None;
        let runs = lm
            .runs
            .into_iter()
            .map(|run| {
                let expr = layout.expr.clone();
                let inner = reattach(run.layout, expr, inner.clone(), pager, orphaned)?;
                Ok(LsmRun::new(inner, run.level, run.seq, run.key_bounds)?)
            })
            .collect::<Result<_>>()?;
        layout.lsm = Some(LsmState::restore(
            key,
            lm.memtable_cap as usize,
            lm.fanout as usize,
            lm.next_seq,
            &layout.schema,
            lm.memtable,
            runs,
        )?);
    }
    Ok(layout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodentstore_algebra::comprehension::Condition;
    use rodentstore_algebra::schema::Field;
    use rodentstore_algebra::types::DataType;
    use rodentstore_algebra::value::Value;
    use rodentstore_workload::{generate_traces, traces_schema, CartelConfig};

    fn small_db() -> Database {
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
