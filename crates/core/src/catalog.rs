//! The catalog: schemas, layout expressions, and canonical data per table.
//!
//! Since the lock-free-read refactor the catalog is a *registry of
//! per-table slots*. Each [`TableSlot`] publishes an immutable
//! [`TableState`] through an [`AtomicArc`]; readers pin a consistent view
//! with two atomic operations (an epoch pin plus a pointer load — see
//! `rodentstore_sync`) and **never** take a lock. Writers build a new
//! `TableState` aside, swap it in under the slot's short writer mutex, and
//! retire the superseded state through the database's epoch scheme.
//!
//! The registry's table map is itself published the same way, so a
//! `create`/`drop` of one table never blocks a pin on another, and a
//! re-render of table A cannot delay a reader of table B.
//!
//! Mutable per-table side state that is *not* part of the snapshot — the
//! live [`WorkloadProfile`], the adaptation in-flight flag, the durable
//! commit queue, and the `CanonicalStore` a durable table's rows are
//! checkpointed into — lives on the slot, sharded per table.

use crate::monitor::WorkloadProfile;
use crate::reorg::ReorgStrategy;
use crate::{Result, RodentError};
use parking_lot::Mutex;
use rodentstore_algebra::expr::LayoutExpr;
use rodentstore_algebra::schema::Schema;
use rodentstore_algebra::value::Record;
use rodentstore_exec::AccessMethods;
use rodentstore_layout::rowcodec::{decode_record_prefix, encode_record_into};
use rodentstore_storage::slotted::max_record_len;
use rodentstore_storage::{crc32, crc32_extend, HeapFile, PageId, Pager, StorageError};
use rodentstore_sync::{AtomicArc, EpochGuard};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

/// Orders the *resolution* of a table's durable inserts by their apply
/// order.
///
/// An insert applies its rows (and takes a ticket) under the table's writer
/// mutex, then commits to the WAL with the mutex released — so commits can
/// share fsyncs. Resolutions, however, must happen in apply order: a failed
/// commit rolls its rows back *positionally*, and that position is only
/// meaningful if every earlier insert has already resolved (its rows either
/// confirmed in place, or removed — in which case they sat wholly *before*
/// ours, and the `removed` counter tells us how far our start shifted).
/// Out-of-order rollbacks could otherwise delete a neighbor's committed
/// rows or leave doomed rows behind.
pub struct CommitQueue {
    state: StdMutex<CommitQueueState>,
    resolved: Condvar,
}

struct CommitQueueState {
    /// Next ticket to hand out (under the writer mutex, at apply).
    next_ticket: u64,
    /// The ticket whose turn it is to resolve.
    resolve_next: u64,
    /// Total rows removed by rollbacks on this table (monotone).
    removed: u64,
}

impl Default for CommitQueue {
    fn default() -> Self {
        CommitQueue {
            state: StdMutex::new(CommitQueueState {
                next_ticket: 0,
                resolve_next: 0,
                removed: 0,
            }),
            resolved: Condvar::new(),
        }
    }
}

impl CommitQueue {
    /// Takes the next ticket (call while holding the writer mutex, right
    /// after the insert applied). Returns the ticket and the rows removed by
    /// rollbacks so far.
    pub fn take_ticket(&self) -> (u64, u64) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        (ticket, state.removed)
    }

    /// Blocks until it is `ticket`'s turn to resolve. Returns the number of
    /// rows removed by rollbacks since the paired [`CommitQueue::take_ticket`]
    /// — all of them positioned before this insert's rows.
    pub fn await_turn(&self, ticket: u64, removed_at_apply: u64) -> u64 {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while state.resolve_next != ticket {
            state = self
                .resolved
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        state.removed - removed_at_apply
    }

    /// Completes `ticket`'s resolution (`removed_rows` > 0 when it rolled
    /// back), releasing the next ticket in line.
    pub fn finish(&self, ticket: u64, removed_rows: u64) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert_eq!(state.resolve_next, ticket);
        state.resolve_next = ticket + 1;
        state.removed += removed_rows;
        self.resolved.notify_all();
    }
}

/// Counters tracking how a table's physical representation has been
/// maintained — the observability hooks of the adaptivity loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayoutStats {
    /// Full renders of the layout (every canonical row rewritten).
    pub full_renders: u64,
    /// Incremental absorptions of pending rows into the existing
    /// representation (no full rewrite).
    pub incremental_appends: u64,
    /// Layout changes applied by the self-adaptation loop
    /// ([`crate::Database::maybe_adapt`]).
    pub adaptations: u64,
}

/// An immutable store of canonical rows, organized as a short list of
/// shared chunks.
///
/// A published [`TableState`] (and every snapshot pinning it) holds the row
/// store by value, so a plain `Vec` would force each insert to deep-copy
/// every row already present — O(n²) across a workload of small durable
/// commits. Chunking makes the clone O(chunks): an insert clones the chunk
/// *list*, pushes its rows as a fresh chunk, and merges trailing chunks
/// only while the newest is at least half its predecessor's size (the
/// binary-counter discipline), so each row is re-copied O(log n) times over
/// the table's lifetime and the chunk count stays O(log n).
#[derive(Clone, Default)]
pub struct Rows {
    chunks: Vec<Arc<Vec<Record>>>,
    len: usize,
}

impl Rows {
    /// An empty row store.
    pub fn new() -> Rows {
        Rows::default()
    }

    /// Wraps an already materialized batch as a single chunk.
    pub fn from_vec(rows: Vec<Record>) -> Rows {
        let len = rows.len();
        let chunks = if rows.is_empty() {
            Vec::new()
        } else {
            vec![Arc::new(rows)]
        };
        Rows { chunks, len }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the rows in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.iter_from(0)
    }

    /// Iterates the rows from position `start` on, skipping whole chunks
    /// before it (so reading a short suffix of a large store is cheap).
    pub fn iter_from(&self, mut start: usize) -> impl Iterator<Item = &Record> {
        self.chunks.iter().flat_map(move |c| {
            let skip = start.min(c.len());
            start -= skip;
            c[skip..].iter()
        })
    }

    /// The `i`-th row in insertion order.
    pub fn get(&self, mut i: usize) -> Option<&Record> {
        for chunk in &self.chunks {
            if i < chunk.len() {
                return chunk.get(i);
            }
            i -= chunk.len();
        }
        None
    }

    /// Materializes the rows as one contiguous vector (for the renderer and
    /// the layout advisor, whose APIs take slices).
    pub fn to_vec(&self) -> Vec<Record> {
        let mut out = Vec::with_capacity(self.len);
        for chunk in &self.chunks {
            out.extend(chunk.iter().cloned());
        }
        out
    }

    /// Appends a batch of rows as a new chunk, then restores the geometric
    /// size invariant by merging trailing chunks.
    pub fn push_rows(&mut self, rows: Vec<Record>) {
        if rows.is_empty() {
            return;
        }
        self.len += rows.len();
        self.chunks.push(Arc::new(rows));
        while self.chunks.len() >= 2 {
            let last = self.chunks[self.chunks.len() - 1].len();
            let prev = self.chunks[self.chunks.len() - 2].len();
            if prev > 2 * last {
                break;
            }
            let last = self.chunks.pop().expect("len checked");
            let prev = self.chunks.pop().expect("len checked");
            let mut merged = Vec::with_capacity(prev.len() + last.len());
            merged.extend(prev.iter().cloned());
            merged.extend(last.iter().cloned());
            self.chunks.push(Arc::new(merged));
        }
    }

    /// Drops all rows.
    pub fn clear(&mut self) {
        self.chunks.clear();
        self.len = 0;
    }

    /// Removes `range` (rollback path — rare, so a simple rebuild).
    pub fn remove_range(&mut self, range: std::ops::Range<usize>) {
        let mut rows = self.to_vec();
        rows.drain(range);
        *self = Rows::from_vec(rows);
    }
}

impl std::fmt::Debug for Rows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rows")
            .field("len", &self.len)
            .field("chunks", &self.chunks.len())
            .finish()
    }
}

impl FromIterator<Record> for Rows {
    fn from_iter<T: IntoIterator<Item = Record>>(iter: T) -> Rows {
        Rows::from_vec(iter.into_iter().collect())
    }
}

/// Where a durable table's canonical rows live in `data.rodent`: what the
/// manifest records of a [`CanonicalStore`] and what `open` reattaches it
/// from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct CanonicalExtent {
    /// Page ids in file order (the open tail, if any, last).
    pub pages: Vec<PageId>,
    /// Rows stored.
    pub row_count: u64,
    /// Heap records the rows' bytes are cut into.
    pub heap_records: u64,
    /// Valid slot count of the open tail page (`None`: every page sealed).
    pub tail_valid_slots: Option<u32>,
    /// Running CRC-32 of the rows' encoded bytes, in row order.
    pub crc: u32,
}

/// A durable table's canonical rows on pages: an append-only extent of
/// slotted pages in the shared page file — one [`HeapFile`], the format an
/// `ObjectEncoding::Rows` object uses — holding the rows' `rowcodec`
/// encodings back to back. The encoding is self-delimiting, so the bytes are
/// one stream, cut into heap records wherever a page fills: pages are packed
/// to the byte and a row of any size fits. A checkpoint appends only the
/// rows added since the previous one, and the manifest describes the table
/// by reference (a [`CanonicalExtent`]) instead of re-serialising its rows.
///
/// Only `checkpoint`, `open` and `drop_table` touch the store; no reader
/// does. Its pages follow the crash rules of rendered tails: a page the
/// on-disk manifest references is never rewritten in place — the tail is
/// protected after every checkpoint and the next append relocates it.
pub(crate) struct CanonicalStore {
    heap: HeapFile,
    /// Running CRC-32 of every byte appended (see [`CanonicalExtent`]).
    crc: u32,
    /// Rows whose every byte is in `heap`.
    rows: u64,
    /// Leading bytes of the next row already in `heap`: nonzero only after
    /// an append failed with part of a row on pages, so that the next
    /// attempt continues mid-row instead of appending those bytes twice.
    partial: usize,
}

fn corrupt(what: String) -> RodentError {
    RodentError::Storage(StorageError::Corrupted(what))
}

impl CanonicalStore {
    /// An empty store for `table` (allocates nothing until the first row).
    pub(crate) fn create(table: &str, pager: Arc<Pager>) -> CanonicalStore {
        CanonicalStore {
            heap: HeapFile::create(format!("{table}.canonical"), pager),
            crc: 0,
            rows: 0,
            partial: 0,
        }
    }

    /// Reattaches a checkpointed store and decodes its rows. The checksum
    /// the manifest recorded is verified before a byte is decoded, the row
    /// count after. The reattached tail is protected, so nothing is written.
    pub(crate) fn reattach(
        table: &str,
        pager: Arc<Pager>,
        extent: CanonicalExtent,
    ) -> Result<(CanonicalStore, Vec<Record>)> {
        let corrupt = |what: String| corrupt(format!("canonical rows of `{table}`: {what}"));
        let mut stream = Vec::with_capacity(extent.pages.len() * pager.page_size());
        let heap = HeapFile::from_pages_with_tail(
            format!("{table}.canonical"),
            pager,
            extent.pages,
            extent.heap_records,
            extent.tail_valid_slots,
        )
        .map_err(RodentError::Storage)?;
        heap.scan(|_, bytes| {
            stream.extend_from_slice(bytes);
            Ok(())
        })
        .map_err(RodentError::Storage)?;
        if crc32(&stream) != extent.crc {
            return Err(corrupt("checksum mismatch".into()));
        }
        let mut rows = Vec::with_capacity((extent.row_count as usize).min(1 << 20));
        let mut at = 0;
        while at < stream.len() {
            let (row, used) =
                decode_record_prefix(&stream[at..]).map_err(|e| corrupt(e.to_string()))?;
            rows.push(row);
            at += used;
        }
        if rows.len() as u64 != extent.row_count {
            return Err(corrupt(format!(
                "{} rows on pages, the manifest recorded {}",
                rows.len(),
                extent.row_count
            )));
        }
        let store = CanonicalStore {
            heap,
            crc: extent.crc,
            rows: extent.row_count,
            partial: 0,
        };
        Ok((store, rows))
    }

    /// Appends the rows of `rows` the store does not hold yet — those past
    /// its own row count, so an attempt that failed part-way resumes where
    /// it stopped and never appends a byte twice — then flushes and protects
    /// the tail. Returns the number of rows that became complete.
    pub(crate) fn persist(&mut self, rows: &Rows) -> Result<u64> {
        let before = self.rows;
        if self.rows_on_pages() > rows.len() {
            return Err(corrupt(format!(
                "`{}` holds {} rows, its table only {}",
                self.heap.name(),
                self.rows_on_pages(),
                rows.len()
            )));
        }
        let page_room = max_record_len(self.heap.pager().page_size());
        // Encoded bytes not yet in the heap, and where each buffered row
        // ends in them.
        let mut buf = Vec::new();
        let mut ends = VecDeque::new();
        let mut skip = self.partial;
        for row in rows.iter_from(self.rows as usize) {
            let row_start = buf.len();
            encode_record_into(row, &mut buf);
            if skip > 0 {
                // The heap already holds this row's first `skip` bytes.
                if buf.len() - row_start < skip {
                    return Err(corrupt(format!(
                        "`{}` holds {skip} bytes of a {}-byte row",
                        self.heap.name(),
                        buf.len() - row_start
                    )));
                }
                buf.drain(row_start..row_start + skip);
                skip = 0;
            }
            ends.push_back(buf.len());
            // Cut a record off the front whenever the buffer can fill the
            // tail page (or, with the tail full, a whole fresh one).
            loop {
                let room = match self.heap.tail_room() {
                    0 => page_room,
                    room => room,
                };
                if buf.len() < room {
                    break;
                }
                self.append(&mut buf, &mut ends, room)?;
            }
        }
        if !buf.is_empty() {
            let rest = buf.len();
            self.append(&mut buf, &mut ends, rest)?;
        }
        self.heap.flush().map_err(RodentError::Storage)?;
        self.heap.protect_tail();
        Ok(self.rows - before)
    }

    /// Appends the first `n` buffered bytes as one heap record and accounts
    /// for the rows they complete.
    fn append(&mut self, buf: &mut Vec<u8>, ends: &mut VecDeque<usize>, n: usize) -> Result<()> {
        self.heap.append(&buf[..n]).map_err(RodentError::Storage)?;
        self.crc = crc32_extend(self.crc, &buf[..n]);
        // Bytes past the last completed row belong to the next one.
        self.partial += n;
        while let Some(end) = ends.front().copied().filter(|&end| end <= n) {
            ends.pop_front();
            self.rows += 1;
            self.partial = n - end;
        }
        buf.drain(..n);
        ends.iter_mut().for_each(|end| *end -= n);
        Ok(())
    }

    /// Rows with at least one byte on pages: the rows stored in full, plus
    /// one while a failed append left a row half-written.
    pub(crate) fn rows_on_pages(&self) -> usize {
        self.rows as usize + usize::from(self.partial > 0)
    }

    /// Page ids in file order.
    pub(crate) fn pages(&self) -> Vec<PageId> {
        self.heap.extent()
    }

    /// Pages used.
    pub(crate) fn page_count(&self) -> usize {
        self.heap.page_count()
    }

    /// The store's description for the manifest (call after a successful
    /// [`CanonicalStore::persist`], which leaves every row complete and the
    /// tail flushed).
    pub(crate) fn extent(&self) -> CanonicalExtent {
        debug_assert_eq!(self.partial, 0, "describing a half-written row");
        CanonicalExtent {
            pages: self.heap.extent(),
            row_count: self.rows,
            heap_records: self.heap.record_count(),
            tail_valid_slots: self.heap.tail_valid_slots(),
            crc: self.crc,
        }
    }

    /// Drains the protected tail pages superseded by relocation (the
    /// caller quarantines them).
    pub(crate) fn take_relocated(&self) -> Vec<PageId> {
        self.heap.take_relocated()
    }

    /// Adopts copies the checkpoint's vacuum made of some of the store's
    /// pages: `moved` pairs a position in [`CanonicalStore::pages`] with the
    /// id of the page now holding those bytes. Returns the vacated ids (the
    /// caller quarantines them). Call on a flushed store.
    pub(crate) fn rehome(&mut self, moved: &[(usize, PageId)]) -> Result<Vec<PageId>> {
        let mut pages = self.heap.extent();
        let mut vacated = self.heap.take_relocated();
        vacated.extend(
            moved
                .iter()
                .map(|&(at, copy)| std::mem::replace(&mut pages[at], copy)),
        );
        self.heap = HeapFile::from_pages_with_tail(
            self.heap.name().to_string(),
            Arc::clone(self.heap.pager()),
            pages,
            self.heap.record_count(),
            self.heap.tail_valid_slots(),
        )
        .map_err(RodentError::Storage)?;
        Ok(vacated)
    }

    /// Every page of a dropped table's store, for quarantine.
    pub(crate) fn into_pages(self) -> Vec<PageId> {
        let mut pages = self.heap.extent();
        pages.extend(self.heap.take_relocated());
        pages
    }
}

/// The published, immutable state of one table. Readers pin it with an
/// atomic load and use it for as long as they like; writers clone it, edit
/// the clone, and publish the result wholesale.
#[derive(Clone)]
pub struct TableState {
    /// Logical schema.
    pub schema: Schema,
    /// Canonical row-major contents (the input to layout rendering).
    pub records: Rows,
    /// The currently declared layout expression, if any.
    pub layout_expr: Option<LayoutExpr>,
    /// The rendered layout (absent until rendered — lazily or eagerly).
    /// Once published here it is logically immutable: appends fork it (see
    /// `PhysicalLayout::fork_for_append`) rather than mutating shared pages.
    pub access: Option<Arc<AccessMethods>>,
    /// Reorganization strategy used when the layout changes.
    pub strategy: ReorgStrategy,
    /// Records inserted since the layout was last rendered (used by the
    /// new-data-only strategy and to detect staleness). Invariant: always a
    /// suffix of `records`.
    pub pending: Rows,
    /// Render/append/adaptation counters.
    pub stats: LayoutStats,
    /// Identity of the chain of incrementally forked renderings this state's
    /// `access` belongs to. Forked successors share the token; a full render
    /// starts a fresh one. Page reclamation of a fully retired rendering
    /// waits until the whole chain is unreachable, because chain members
    /// share sealed pages (see `Database`'s retirement scheme).
    pub(crate) chain: Arc<()>,
}

impl std::fmt::Debug for TableState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableState")
            .field("schema", &self.schema.to_string())
            .field("rows", &self.records.len())
            .field("pending", &self.pending.len())
            .field(
                "layout",
                &self.layout_expr.as_ref().map(|e| e.to_string()),
            )
            .finish()
    }
}

impl TableState {
    /// Creates an empty state for a schema.
    pub fn new(schema: Schema) -> TableState {
        TableState {
            schema,
            records: Rows::new(),
            layout_expr: None,
            access: None,
            strategy: ReorgStrategy::Eager,
            pending: Rows::new(),
            stats: LayoutStats::default(),
            chain: Arc::new(()),
        }
    }

    /// Total number of rows (rendered plus pending).
    pub fn row_count(&self) -> usize {
        self.records.len()
    }
}

/// One table's slot in the registry: the published state plus the mutable
/// side state writers and the monitor need.
pub struct TableSlot {
    /// The published state. Readers load it under an epoch pin; writers
    /// swap it while holding `writer` and retire the superseded `Arc`.
    pub(crate) state: AtomicArc<TableState>,
    /// Serializes state publication for this table (held across build +
    /// swap + WAL record; never taken by readers).
    pub(crate) writer: Mutex<()>,
    /// Decaying profile of the live query traffic against this table,
    /// behind its own mutex so lock-free reads can still record traffic
    /// (mutex-sharded per table; never held across a query).
    pub(crate) profile: Mutex<WorkloadProfile>,
    /// Whether an adaptation check is currently in flight for this table
    /// (auto mode runs at most one at a time; concurrent triggers skip).
    pub(crate) adapting: AtomicBool,
    /// Set when another table this one's layout joins (prejoin reads its
    /// base tables outside their writer mutexes) published rows after this
    /// table's rendering captured them: the rendering is stale and the next
    /// access must rebuild it from fresh captures.
    pub(crate) deps_dirty: AtomicBool,
    /// Apply-order resolution of durable insert commits (see [`CommitQueue`]).
    pub(crate) commit_queue: Arc<CommitQueue>,
    /// Durable tables: where checkpoints persist the canonical rows (`None`
    /// until the first checkpoint, and always on in-memory databases). A
    /// leaf mutex — checkpoints, `open` and `drop_table` exclude one another
    /// through the commit fence already.
    pub(crate) canonical: Mutex<Option<CanonicalStore>>,
    /// Predicted-vs-actual scan-page calibration totals (relaxed; folded
    /// into [`crate::Database::metrics`] as `calibration.<table>.*`). Sum of
    /// `estimate_scan_pages` predictions across instrumented scans.
    pub(crate) predicted_pages_total: AtomicU64,
    /// Sum of the pager I/O deltas those same scans actually incurred.
    pub(crate) actual_pages_total: AtomicU64,
    /// Number of scans folded into the two totals.
    pub(crate) calibration_samples: AtomicU64,
}

impl TableSlot {
    pub(crate) fn new(schema: Schema) -> TableSlot {
        TableSlot::with_state(TableState::new(schema), WorkloadProfile::default())
    }

    pub(crate) fn with_state(state: TableState, profile: WorkloadProfile) -> TableSlot {
        TableSlot {
            state: AtomicArc::new(Arc::new(state)),
            writer: Mutex::new(()),
            profile: Mutex::new(profile),
            adapting: AtomicBool::new(false),
            deps_dirty: AtomicBool::new(false),
            commit_queue: Arc::new(CommitQueue::default()),
            canonical: Mutex::new(None),
            predicted_pages_total: AtomicU64::new(0),
            actual_pages_total: AtomicU64::new(0),
            calibration_samples: AtomicU64::new(0),
        }
    }

    /// Pins the current published state.
    pub(crate) fn load(&self, guard: &EpochGuard<'_>) -> Arc<TableState> {
        self.state.load(guard)
    }
}

impl std::fmt::Debug for TableSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableSlot").finish_non_exhaustive()
    }
}

/// An immutable name → slot map, published wholesale on create/drop.
#[derive(Default)]
pub(crate) struct TableMap {
    /// Entries in creation order (schema listings preserve it).
    pub(crate) entries: Vec<(String, Arc<TableSlot>)>,
}

impl TableMap {
    pub(crate) fn get(&self, table: &str) -> Option<&Arc<TableSlot>> {
        self.entries
            .iter()
            .find(|(name, _)| name == table)
            .map(|(_, slot)| slot)
    }
}

/// The per-table slot registry. The map is published through an
/// [`AtomicArc`] so lookups are lock-free; `structural` serializes
/// create/drop (which also take the affected slot's writer mutex).
pub(crate) struct Registry {
    map: AtomicArc<TableMap>,
    pub(crate) structural: Mutex<()>,
}

impl Registry {
    pub(crate) fn new() -> Registry {
        Registry {
            map: AtomicArc::new(Arc::new(TableMap::default())),
            structural: Mutex::new(()),
        }
    }

    /// Pins the current table map.
    pub(crate) fn load(&self, guard: &EpochGuard<'_>) -> Arc<TableMap> {
        self.map.load(guard)
    }

    /// Publishes a new map, returning the superseded one. Callers hold
    /// `structural` (or are in a single-owner phase such as open) and must
    /// retire the returned map through the epoch scheme if readers exist.
    pub(crate) fn publish(&self, map: TableMap) -> Arc<TableMap> {
        self.map.swap(Arc::new(map))
    }
}

/// A consistent, materialized view of the catalog: every table's name, slot,
/// and the state it published at view time.
///
/// This is what [`crate::Database::catalog`] returns — an owned value, not a
/// lock guard. It is a *snapshot*: state published after the view was taken
/// is not visible through it, and holding it blocks nobody.
pub struct CatalogView {
    entries: Vec<(String, Arc<TableSlot>, Arc<TableState>)>,
}

impl CatalogView {
    /// An empty view (no tables) — for encoding a blank manifest in tests.
    #[cfg(test)]
    pub(crate) fn empty() -> CatalogView {
        CatalogView {
            entries: Vec::new(),
        }
    }

    pub(crate) fn capture(map: &TableMap, guard: &EpochGuard<'_>) -> CatalogView {
        CatalogView {
            entries: map
                .entries
                .iter()
                .map(|(name, slot)| (name.clone(), Arc::clone(slot), slot.load(guard)))
                .collect(),
        }
    }

    /// The state of one table.
    pub fn get(&self, table: &str) -> Result<&TableState> {
        self.entries
            .iter()
            .find(|(name, _, _)| name == table)
            .map(|(_, _, state)| state.as_ref())
            .ok_or_else(|| RodentError::UnknownTable(table.to_string()))
    }

    /// Names of all tables, in creation order.
    pub fn table_names(&self) -> Vec<String> {
        self.entries
            .iter()
            .map(|(name, _, _)| name.clone())
            .collect()
    }

    /// All schemas (used to validate multi-table expressions like `prejoin`).
    pub fn schemas(&self) -> Vec<Schema> {
        self.entries
            .iter()
            .map(|(_, _, state)| state.schema.clone())
            .collect()
    }

    /// The captured `(name, slot, state)` triples, in creation order.
    pub(crate) fn entries(&self) -> &[(String, Arc<TableSlot>, Arc<TableState>)] {
        &self.entries
    }
}

impl std::fmt::Debug for CatalogView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(
                self.entries
                    .iter()
                    .map(|(name, _, state)| (name, state)),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodentstore_algebra::schema::Field;
    use rodentstore_algebra::types::DataType;
    use rodentstore_algebra::Value;
    use rodentstore_sync::EpochRegistry;

    fn schema(name: &str) -> Schema {
        Schema::new(name, vec![Field::new("x", DataType::Int)])
    }

    fn row(x: i64) -> Record {
        vec![Value::Int(x)]
    }

    #[test]
    fn rows_push_preserves_order_and_len() {
        let mut rows = Rows::new();
        for batch in 0..50 {
            rows.push_rows((0..7).map(|i| row(batch * 7 + i)).collect());
        }
        assert_eq!(rows.len(), 350);
        let flat: Vec<i64> = rows
            .iter()
            .map(|r| match r[0] {
                Value::Int(x) => x,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(flat, (0..350).collect::<Vec<i64>>());
        assert_eq!(rows.get(349), Some(&row(349)));
        assert_eq!(rows.get(350), None);
        assert_eq!(rows.to_vec().len(), 350);
    }

    #[test]
    fn rows_iter_from_skips_a_prefix_across_chunks() {
        let mut rows = Rows::new();
        for batch in 0..9 {
            rows.push_rows((0..5).map(|i| row(batch * 5 + i)).collect());
        }
        for start in [0, 1, 5, 22, 44, 45, 60] {
            let expected: Vec<Record> = (start as i64..45).map(row).collect();
            assert_eq!(rows.iter_from(start).cloned().collect::<Vec<_>>(), expected);
        }
    }

    /// A row of `width` payload bytes (wider than a test page when asked).
    fn wide_row(x: i64, width: usize) -> Record {
        vec![Value::Int(x), Value::Str("r".repeat(width))]
    }

    fn reattached(store: &CanonicalStore, pager: &Arc<Pager>) -> Result<Vec<Record>> {
        CanonicalStore::reattach("T", Arc::clone(pager), store.extent()).map(|(_, rows)| rows)
    }

    #[test]
    fn canonical_store_persists_only_new_rows_packed_to_the_byte() {
        let pager = Arc::new(Pager::in_memory_with_page_size(256));
        let mut store = CanonicalStore::create("T", Arc::clone(&pager));
        let mut rows = Rows::new();
        assert_eq!(store.persist(&rows).unwrap(), 0);
        assert_eq!(reattached(&store, &pager).unwrap(), Vec::<Record>::new());

        rows.push_rows((0..50).map(|i| wide_row(i, 20)).collect());
        assert_eq!(store.persist(&rows).unwrap(), 50);
        assert_eq!(reattached(&store, &pager).unwrap(), rows.to_vec());

        // A later batch — with a row wider than three pages — appends only
        // itself; a persist with nothing new writes nothing.
        rows.push_rows(vec![wide_row(50, 3), wide_row(51, 800), wide_row(52, 0)]);
        let written = pager.stats().snapshot().pages_written;
        assert_eq!(store.persist(&rows).unwrap(), 3);
        assert!(pager.stats().snapshot().pages_written - written <= 6);
        assert_eq!(reattached(&store, &pager).unwrap(), rows.to_vec());
        let written = pager.stats().snapshot().pages_written;
        assert_eq!(store.persist(&rows).unwrap(), 0);
        assert_eq!(pager.stats().snapshot().pages_written, written);

        // Rows straddle records and pages, so pages fill to the byte.
        let mut bytes = Vec::new();
        rows.iter().for_each(|r| encode_record_into(r, &mut bytes));
        assert!(store.page_count() <= bytes.len() / max_record_len(256) + 2);
    }

    /// A page store whose writes start failing after a set number.
    struct FlakyStore {
        inner: rodentstore_storage::MemStore,
        writes_left: AtomicU64,
    }

    impl rodentstore_storage::PageStore for FlakyStore {
        fn page_size(&self) -> usize {
            self.inner.page_size()
        }
        fn page_count(&self) -> u64 {
            self.inner.page_count()
        }
        fn allocate(&self) -> rodentstore_storage::Result<PageId> {
            self.inner.allocate()
        }
        fn read(&self, id: PageId) -> rodentstore_storage::Result<Vec<u8>> {
            self.inner.read(id)
        }
        fn write(&self, id: PageId, data: &[u8]) -> rodentstore_storage::Result<()> {
            let left = self.writes_left.load(std::sync::atomic::Ordering::SeqCst);
            if left == 0 {
                return Err(StorageError::Io(std::io::Error::other(
                    "injected write failure",
                )));
            }
            self.writes_left
                .store(left - 1, std::sync::atomic::Ordering::SeqCst);
            self.inner.write(id, data)
        }
        fn truncate(&self, page_count: u64) -> rodentstore_storage::Result<()> {
            self.inner.truncate(page_count)
        }
    }

    #[test]
    fn failed_persist_resumes_where_it_stopped_even_mid_row() {
        let mut rows = Rows::new();
        rows.push_rows((0..12).map(|i| wide_row(i, 30)).collect());
        rows.push_rows(vec![wide_row(12, 700), wide_row(13, 5)]);
        // Fail the k-th page write of the persist, for every k until one
        // succeeds outright; then heal the store and persist again.
        for fail_at in 0.. {
            let flaky = Arc::new(FlakyStore {
                inner: rodentstore_storage::MemStore::new(256),
                writes_left: AtomicU64::new(fail_at),
            });
            let pager = Arc::new(Pager::with_store(
                Arc::clone(&flaky) as Arc<dyn rodentstore_storage::PageStore>
            ));
            let mut store = CanonicalStore::create("T", Arc::clone(&pager));
            let first = store.persist(&rows);
            flaky
                .writes_left
                .store(u64::MAX, std::sync::atomic::Ordering::SeqCst);
            store.persist(&rows).unwrap();
            assert_eq!(
                reattached(&store, &pager).unwrap(),
                rows.to_vec(),
                "every row once, in order (first write failure at {fail_at})"
            );
            if first.is_ok() {
                break;
            }
        }
    }

    #[test]
    fn a_flipped_canonical_byte_is_corruption_not_rows() {
        let pager = Arc::new(Pager::in_memory_with_page_size(256));
        let mut store = CanonicalStore::create("T", Arc::clone(&pager));
        let rows = Rows::from_vec((0..40).map(|i| wide_row(i, 10)).collect());
        store.persist(&rows).unwrap();
        let extent = store.extent();
        let mut page = pager.read(extent.pages[1]).unwrap();
        let last = page.data.len() - 1; // record payloads fill pages from the back
        page.data[last] ^= 0x40;
        pager.write(&page).unwrap();
        let reopened = CanonicalStore::reattach("T", Arc::clone(&pager), extent.clone());
        assert!(matches!(
            reopened,
            Err(RodentError::Storage(StorageError::Corrupted(_)))
        ));
        // So is a manifest that disagrees with the pages about the row count.
        page.data[last] ^= 0x40;
        pager.write(&page).unwrap();
        let miscounted = CanonicalExtent {
            row_count: 39,
            ..extent
        };
        assert!(matches!(
            CanonicalStore::reattach("T", Arc::clone(&pager), miscounted),
            Err(RodentError::Storage(StorageError::Corrupted(_)))
        ));
    }

    #[test]
    fn rows_chunk_count_stays_logarithmic() {
        let mut rows = Rows::new();
        for i in 0..4096 {
            rows.push_rows(vec![row(i)]);
        }
        // Binary-counter merging: chunk count is O(log n), not O(n).
        assert!(
            rows.chunks.len() <= 16,
            "expected O(log n) chunks, got {}",
            rows.chunks.len()
        );
        assert_eq!(rows.len(), 4096);
    }

    #[test]
    fn rows_clone_shares_chunks_with_snapshots() {
        let mut rows = Rows::from_vec((0..100).map(row).collect());
        let snapshot = rows.clone();
        rows.push_rows(vec![row(100)]);
        assert_eq!(snapshot.len(), 100, "snapshot is immutable");
        assert_eq!(rows.len(), 101);
        // The 100-row chunk is shared, not deep-copied.
        assert!(Arc::ptr_eq(&snapshot.chunks[0], &rows.chunks[0]));
    }

    #[test]
    fn rows_remove_range_rolls_back_a_middle_batch() {
        let mut rows = Rows::from_vec((0..10).map(row).collect());
        rows.remove_range(3..6);
        assert_eq!(rows.len(), 7);
        let flat: Vec<Record> = rows.iter().cloned().collect();
        assert_eq!(flat[2], row(2));
        assert_eq!(flat[3], row(6));
    }

    #[test]
    fn registry_publishes_and_views_capture_consistently() {
        let epochs = EpochRegistry::new();
        let registry = Registry::new();
        let mut map = TableMap::default();
        map.entries
            .push(("A".into(), Arc::new(TableSlot::new(schema("A")))));
        map.entries
            .push(("B".into(), Arc::new(TableSlot::new(schema("B")))));
        drop(registry.publish(map)); // no readers yet: direct drop is fine

        let g = epochs.pin();
        let map = registry.load(&g);
        let view = CatalogView::capture(&map, &g);
        drop(g);
        assert_eq!(view.table_names(), vec!["A", "B"]);
        assert_eq!(view.schemas().len(), 2);
        assert!(view.get("A").is_ok());
        assert!(matches!(
            view.get("C"),
            Err(RodentError::UnknownTable(_))
        ));

        // A state published after the view was captured is not visible
        // through it.
        let slot = Arc::clone(map.get("A").unwrap());
        let g = epochs.pin();
        let cur = slot.load(&g);
        let mut next = (*cur).clone();
        next.records.push_rows(vec![row(1)]);
        drop(g);
        let old = slot.state.swap(Arc::new(next));
        let _retired = (old, epochs.advance()); // single-threaded test: held, then dropped
        assert_eq!(view.get("A").unwrap().records.len(), 0);
        let g = epochs.pin();
        assert_eq!(slot.load(&g).records.len(), 1);
    }
}
