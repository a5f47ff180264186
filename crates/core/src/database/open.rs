//! Creating and opening a database: the durable constructors, WAL replay
//! and reattaching rendered layouts from their manifest records.

use super::*;
use crate::catalog::{CanonicalStore, Rows};
use crate::durability::{self, DurabilityOptions, DurableOp, ManifestContext};
use rodentstore_algebra::expr::LayoutExpr;
use rodentstore_algebra::{parse, validate};
use rodentstore_layout::{LsmState, PhysicalLayout, StoredIndex, StoredObject};
use rodentstore_storage::heap::HeapFile;
use rodentstore_storage::pager::{FileStore, PageStore};
use rodentstore_storage::wal::WalInstruments;
use std::path::Path;

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
                next.access = Some(Arc::new(AccessMethods::new(layout)));
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
            let forked = AccessMethods::new(forked_layout);
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
    // trustworthy because no tree is ever written after it is built: each
    // append rebuilds the index into fresh pages (see
    // `PhysicalLayout::rebuild_index`), and those fresh pages were
    // truncated away. Replayed appends rebuild the same way. If the
    // manifest disagrees with the declared layout, its pages are
    // quarantined and the fallback after replay rebuilds a base's index
    // from the recovered heaps.
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
