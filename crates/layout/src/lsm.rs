//! The levelled write-optimized tier behind the `lsm[...]` operator.
//!
//! An [`LsmState`] rides on a [`crate::plan::PhysicalLayout`]: appended
//! tuples land in an in-memory *memtable* — one vector of rows kept in the
//! tier's key order, so a spill drains its front and a key range is a
//! sub-slice — spill into immutable key-sorted *runs* once the memtable
//! fills, and are merged into deeper levels by incremental compaction. The
//! inner expression still governs how the bulk-rendered base is stored; the
//! tier only owns rows appended after the render, and its runs are
//! full-width row-encoded heaps whatever the inner shape.
//!
//! Runs are never rewritten once sealed — a spill writes a fresh heap file,
//! flushes it, and re-opens it with every page sealed — so crash recovery
//! can reattach them from manifest metadata without re-rendering a byte,
//! and every generation of the tier shares a run by [`Arc`]. Compaction is
//! amortized: each absorb performs **at most one** level merge (the
//! shallowest overflowing level), so the worst-case work per appended
//! batch is bounded by a single merge instead of a full cascade. A merge
//! parks each merged-away run; its extent is free once the parked pointer
//! is the last one, the rule every stored object follows.
//!
//! Everything the tier does is additionally journaled as [`LsmActivity`]
//! records, drained by the engine into its observability registry and
//! event ring.

use crate::rowcodec::{decode_record, encode_record_into};
use crate::{LayoutError, Result};
use rodentstore_algebra::expr::{sort_by_positions, SortOrder};
use rodentstore_algebra::schema::Schema;
use rodentstore_algebra::value::Record;
use rodentstore_storage::heap::HeapFile;
use rodentstore_storage::page::PageId;
use rodentstore_storage::pager::Pager;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Instant;

/// Rows the memtable absorbs before spilling into a level-0 run.
pub const DEFAULT_MEMTABLE_CAP: usize = 256;
/// Runs a level may accumulate before compaction merges it into the next.
pub const DEFAULT_FANOUT: usize = 4;

/// One thing the tier did, recorded for the engine's observability layer.
/// Drained (not polled) via [`LsmState::take_activity`], mirroring how
/// relocation notes travel.
#[derive(Debug, Clone, PartialEq)]
pub enum LsmActivity {
    /// One `absorb` call completed: its wall-clock cost and how much
    /// structural work it triggered.
    Absorb {
        /// Wall-clock duration of the whole absorb, in microseconds.
        micros: u64,
        /// Rows appended by this absorb.
        rows: u64,
        /// Level-0 runs sealed.
        spills: u64,
        /// Level merges performed (at most one per spill by construction).
        merges: u64,
    },
    /// The memtable spilled a sealed level-0 run.
    Spill {
        /// Level the run was sealed on (always 0 for spills).
        level: u32,
        /// Rows in the sealed run.
        rows: u64,
        /// Pages the run occupies.
        pages: u64,
    },
    /// Compaction merged one level's runs into a run one level deeper.
    Merge {
        /// The level that was merged (the new run lives on `level + 1`).
        level: u32,
        /// Runs merged away.
        runs_merged: u64,
        /// Rows in the merged run.
        rows: u64,
        /// Pages the new run occupies.
        pages_written: u64,
        /// Pages vacated (freed once no generation holds the runs).
        pages_freed: u64,
    },
}

/// The tier's in-memory write buffer: one vector of rows in the tier's key
/// order, arrival order among equal keys. A spill takes the front of it
/// and a numeric range on the first key field is a sub-slice.
#[derive(Clone)]
pub struct Memtable {
    rows: Vec<Record>,
    /// Every first-key value seen so far maps to a non-NaN `f64`, so a
    /// numeric range on the first key field can seek the rows directly.
    /// Conservative: once false it stays false, even across drains.
    numeric: bool,
}

impl Default for Memtable {
    fn default() -> Memtable {
        Memtable::new()
    }
}

impl Memtable {
    /// An empty memtable.
    pub fn new() -> Memtable {
        Memtable {
            rows: Vec::new(),
            numeric: true,
        }
    }

    /// Number of buffered rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the memtable holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Buffers `rows`, keeping the memtable sorted on the `key` positions
    /// (stable, so equal keys keep arrival order).
    pub fn absorb(&mut self, rows: Vec<Record>, key: &[(usize, SortOrder)]) {
        if let (true, Some(&(first, _))) = (self.numeric, key.first()) {
            self.numeric = rows
                .iter()
                .all(|r| r[first].as_f64().is_some_and(|f| !f.is_nan()));
        }
        self.rows.extend(rows);
        sort_by_positions(&mut self.rows, key);
    }

    /// The rows in key order (arrival order within equal keys).
    pub fn rows(&self) -> &[Record] {
        &self.rows
    }

    /// Removes and returns the first `n` rows in key order — already
    /// sorted, so a spill seals them as they are.
    pub fn drain_first(&mut self, n: usize) -> Vec<Record> {
        self.rows.drain(..n.min(self.rows.len())).collect()
    }

    /// The rows whose *first* key value, at position `first`, falls in the
    /// inclusive numeric range, found by binary search while every
    /// first-key value is numeric. Every row when the range is absent or
    /// the keys are not uniformly numeric (the caller still applies its
    /// full predicate either way).
    pub fn select(&self, first: usize, range: Option<(f64, f64)>) -> &[Record] {
        match range {
            Some((lo, hi)) if self.numeric => {
                let key = |r: &Record| r[first].as_f64().unwrap_or(f64::NAN);
                let start = self.rows.partition_point(|r| key(r) < lo);
                // Not `<= hi`: a NaN bound keeps every row, as the predicate does.
                let end = self
                    .rows
                    .partition_point(|r| key(r).partial_cmp(&hi) != Some(Ordering::Greater));
                &self.rows[start..end.max(start)]
            }
            _ => &self.rows,
        }
    }
}

impl std::fmt::Debug for Memtable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memtable")
            .field("rows", &self.rows.len())
            .field("numeric", &self.numeric)
            .finish()
    }
}

/// One immutable sorted run of the levelled tier, shared by [`Arc`] by
/// every generation of the tier that holds it.
pub struct LsmRun {
    /// Sealed heap file holding the run's rows (row-encoded, full width):
    /// scans read it with the same cursor as any row-encoded object.
    pub heap: HeapFile,
    /// Level the run lives on (0 = freshest spills).
    pub level: u32,
    /// Monotonic sequence number (creation order across all runs).
    pub seq: u64,
    /// Number of rows in the run.
    pub row_count: usize,
    /// Inclusive `(min, max)` of each key field over the run's rows, when
    /// every key value maps to `f64`; `None` disables pruning for the run.
    pub key_bounds: Option<Vec<(f64, f64)>>,
}

impl std::fmt::Debug for LsmRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsmRun")
            .field("level", &self.level)
            .field("seq", &self.seq)
            .field("rows", &self.row_count)
            .field("pages", &self.heap.page_count())
            .finish()
    }
}

impl LsmRun {
    /// Whether the run may hold rows satisfying the per-field ranges
    /// (conservative: unknown bounds or unconstrained fields never prune).
    pub fn may_match(&self, key: &[String], ranges: &HashMap<String, (f64, f64)>) -> bool {
        let Some(bounds) = &self.key_bounds else {
            return true;
        };
        for (field, (lo, hi)) in key.iter().zip(bounds) {
            if let Some((qlo, qhi)) = ranges.get(field) {
                if *hi < *qlo || *lo > *qhi {
                    return false;
                }
            }
        }
        true
    }
}

/// The mutable state of a layout's levelled tier.
pub struct LsmState {
    /// Key fields runs are sorted on.
    pub key: Vec<String>,
    /// Rows absorbed since the last spill, ordered by the tier's key.
    pub memtable: Memtable,
    /// Sealed runs, kept in scan order: deepest level first, then by
    /// ascending sequence number (oldest data first).
    pub runs: Vec<Arc<LsmRun>>,
    /// Memtable spill threshold, in rows.
    pub memtable_cap: usize,
    /// Runs per level before compaction merges the level.
    pub fanout: usize,
    /// Next run sequence number.
    pub next_seq: u64,
    /// Runs merged away since the last drain. Older generations may still
    /// hold them, and a run's extent is reusable only once the pointer
    /// parked here is its last.
    relocated: Mutex<Vec<Arc<LsmRun>>>,
    /// Structural work performed since the last drain, for the engine's
    /// metrics registry and event ring.
    activity: Mutex<Vec<LsmActivity>>,
}

impl std::fmt::Debug for LsmState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsmState")
            .field("key", &self.key)
            .field("memtable_rows", &self.memtable.len())
            .field("runs", &self.runs)
            .finish()
    }
}

impl LsmState {
    /// Fresh tier with the given spill and fanout parameters (the render
    /// options default them to [`DEFAULT_MEMTABLE_CAP`] and
    /// [`DEFAULT_FANOUT`]; tests shrink them to exercise multi-level shapes
    /// with few rows).
    pub fn with_params(key: Vec<String>, memtable_cap: usize, fanout: usize) -> LsmState {
        LsmState {
            key,
            memtable: Memtable::new(),
            runs: Vec::new(),
            memtable_cap: memtable_cap.max(1),
            fanout: fanout.max(2),
            next_seq: 0,
            relocated: Mutex::new(Vec::new()),
            activity: Mutex::new(Vec::new()),
        }
    }

    /// Reattaches a tier from persisted metadata: the caller re-opens each
    /// run's sealed heap over its recorded extent (no page allocation, no
    /// re-rendering) and this puts them back in scan order. Memtable rows
    /// were persisted in key order, which the stable sort keeps.
    pub fn restore(
        key: Vec<String>,
        memtable_cap: usize,
        fanout: usize,
        next_seq: u64,
        schema: &Schema,
        memtable_rows: Vec<Record>,
        runs: Vec<LsmRun>,
    ) -> Result<LsmState> {
        let mut state = LsmState::with_params(key, memtable_cap, fanout);
        state.next_seq = next_seq;
        state
            .memtable
            .absorb(memtable_rows, &state.key_positions(schema)?);
        state.runs = runs.into_iter().map(Arc::new).collect();
        state.order_runs();
        Ok(state)
    }

    /// Total rows held by the tier (runs plus memtable).
    pub fn rows(&self) -> usize {
        self.runs.iter().map(|r| r.row_count).sum::<usize>() + self.memtable.len()
    }

    /// Total pages the runs occupy (the memtable holds none).
    pub fn total_pages(&self) -> usize {
        self.runs.iter().map(|r| r.heap.page_count()).sum()
    }

    /// Every page currently referenced by a run.
    pub fn extent_pages(&self) -> Vec<PageId> {
        self.runs.iter().flat_map(|r| r.heap.extent()).collect()
    }

    /// Drains the extents of merged-away runs that are already safe to
    /// reuse: those no forked generation (and thus no pinned reader) still
    /// holds. Runs another generation still holds stay parked for a later
    /// drain.
    pub fn take_relocated(&self) -> Vec<PageId> {
        let mut pages = Vec::new();
        self.relocated.lock().unwrap().retain(|run| {
            let held = Arc::strong_count(run) > 1;
            if !held {
                pages.extend(run.heap.extent());
            }
            held
        });
        pages
    }

    /// Drains *every* merged-away run, shared ones included. Callers that
    /// outlive this tier (the database's central parking lot) take the runs
    /// wholesale and free each extent once they hold the last pointer.
    pub fn take_relocation_notes(&self) -> Vec<Arc<LsmRun>> {
        std::mem::take(&mut *self.relocated.lock().unwrap())
    }

    /// Drains the structural-work journal accumulated since the last drain.
    pub fn take_activity(&self) -> Vec<LsmActivity> {
        std::mem::take(&mut *self.activity.lock().unwrap())
    }

    fn record(&self, activity: LsmActivity) {
        self.activity.lock().unwrap().push(activity);
    }

    /// Schema positions of the tier's key fields, each ascending: the sort
    /// key of the memtable and of every run.
    fn key_positions(&self, schema: &Schema) -> Result<Vec<(usize, SortOrder)>> {
        self.key
            .iter()
            .map(|f| Ok((schema.index_of(f)?, SortOrder::Asc)))
            .collect()
    }

    /// Restores the scan-order invariant after runs were added or merged.
    fn order_runs(&mut self) {
        self.runs
            .sort_by(|a, b| b.level.cmp(&a.level).then(a.seq.cmp(&b.seq)));
    }

    /// Absorbs appended rows: into the sorted memtable, spilling level-0
    /// runs at capacity. Each spill triggers **at most one** level merge
    /// (the shallowest overflowing level), so the structural work riding on
    /// any single absorb is bounded — deeper levels drain over subsequent
    /// absorbs instead of cascading into one stall.
    pub fn absorb(
        &mut self,
        pager: &Arc<Pager>,
        layout_name: &str,
        schema: &Schema,
        rows: Vec<Record>,
    ) -> Result<()> {
        let started = Instant::now();
        let absorbed = rows.len() as u64;
        let key = self.key_positions(schema)?;
        self.memtable.absorb(rows, &key);
        let mut spills = 0u64;
        let mut merges = 0u64;
        while self.memtable.len() >= self.memtable_cap {
            let spill = self.memtable.drain_first(self.memtable_cap);
            let (rows_sealed, pages) = self.seal_run(pager, layout_name, &key, spill, 0)?;
            spills += 1;
            self.record(LsmActivity::Spill {
                level: 0,
                rows: rows_sealed,
                pages,
            });
            if self.compact_one(pager, layout_name, schema)? {
                merges += 1;
            }
        }
        self.record(LsmActivity::Absorb {
            micros: started.elapsed().as_micros() as u64,
            rows: absorbed,
            spills,
            merges,
        });
        Ok(())
    }

    /// Seals `rows`, already in key order, as a fresh immutable run on
    /// `level`. The heap is flushed and re-opened with every page sealed, so
    /// the run can never be appended to again. Returns `(rows, pages)`
    /// sealed.
    fn seal_run(
        &mut self,
        pager: &Arc<Pager>,
        layout_name: &str,
        key: &[(usize, SortOrder)],
        rows: Vec<Record>,
        level: u32,
    ) -> Result<(u64, u64)> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let name = format!("{layout_name}.run{seq}");
        let heap = HeapFile::create(name.clone(), Arc::clone(pager));
        let mut encoded = Vec::new();
        for row in &rows {
            encoded.clear();
            encode_record_into(row, &mut encoded);
            heap.append(&encoded)?;
        }
        heap.flush()?;
        let sealed = HeapFile::from_pages(name, Arc::clone(pager), heap.extent(), rows.len() as u64);
        let pages = sealed.page_count() as u64;
        let row_count = rows.len();
        self.runs.push(Arc::new(LsmRun {
            heap: sealed,
            level,
            seq,
            row_count,
            key_bounds: bounds_of(key, &rows),
        }));
        self.order_runs();
        Ok((row_count as u64, pages))
    }

    /// Merges the *shallowest* level holding at least `fanout` runs into a
    /// single run on the next level — one merge, no cascade. Returns whether
    /// a merge happened. Merged-away runs are parked for
    /// [`LsmState::take_relocated`].
    pub fn compact_one(
        &mut self,
        pager: &Arc<Pager>,
        layout_name: &str,
        schema: &Schema,
    ) -> Result<bool> {
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for r in &self.runs {
            *counts.entry(r.level).or_insert(0) += 1;
        }
        let Some(&level) = counts
            .iter()
            .filter(|(_, &n)| n >= self.fanout)
            .map(|(l, _)| l)
            .min()
        else {
            return Ok(false);
        };
        self.merge_level(pager, layout_name, schema, level)?;
        Ok(true)
    }

    /// Fully compacts the tier: merges overflowing levels until none
    /// remains. The incremental write path never calls this (it amortizes
    /// via [`LsmState::compact_one`]); it exists for quiescing — tests,
    /// shutdown, and explicit maintenance.
    pub fn compact(
        &mut self,
        pager: &Arc<Pager>,
        layout_name: &str,
        schema: &Schema,
    ) -> Result<()> {
        while self.compact_one(pager, layout_name, schema)? {}
        Ok(())
    }

    /// Merges all runs of `level` into one run on `level + 1`.
    fn merge_level(
        &mut self,
        pager: &Arc<Pager>,
        layout_name: &str,
        schema: &Schema,
        level: u32,
    ) -> Result<()> {
        let (mut merged, keep): (Vec<_>, Vec<_>) =
            self.runs.drain(..).partition(|run| run.level == level);
        self.runs = keep;
        // Oldest first, so the stable sort preserves arrival order among
        // equal keys: concatenated sorted runs, sorted, are their merge.
        merged.sort_by_key(|r| r.seq);
        let mut rows = Vec::with_capacity(merged.iter().map(|r| r.row_count).sum());
        for run in &merged {
            run.heap.scan(|_, payload| {
                rows.push(decode_record(payload)?);
                Ok::<_, LayoutError>(())
            })?;
        }
        let key = self.key_positions(schema)?;
        sort_by_positions(&mut rows, &key);
        let pages_freed: u64 = merged.iter().map(|r| r.heap.page_count() as u64).sum();
        let runs_merged = merged.len() as u64;
        let (rows_sealed, pages_written) = self.seal_run(pager, layout_name, &key, rows, level + 1)?;
        self.relocated.lock().unwrap().extend(merged);
        self.record(LsmActivity::Merge {
            level,
            runs_merged,
            rows: rows_sealed,
            pages_written,
            pages_freed,
        });
        Ok(())
    }

    /// Clones the tier for an append fork: the runs are shared, the
    /// memtable is cloned, and merged-away runs and activity stay with the
    /// original.
    pub fn fork(&self) -> LsmState {
        LsmState {
            key: self.key.clone(),
            memtable: self.memtable.clone(),
            runs: self.runs.clone(),
            memtable_cap: self.memtable_cap,
            fanout: self.fanout,
            next_seq: self.next_seq,
            relocated: Mutex::new(Vec::new()),
            activity: Mutex::new(Vec::new()),
        }
    }
}

/// Per-key-field `(min, max)` over `rows`, or `None` when any key value
/// has no numeric interpretation.
fn bounds_of(key: &[(usize, SortOrder)], rows: &[Record]) -> Option<Vec<(f64, f64)>> {
    let mut bounds = vec![(f64::INFINITY, f64::NEG_INFINITY); key.len()];
    for row in rows {
        for (b, &(p, _)) in bounds.iter_mut().zip(key) {
            let v = row[p].as_f64().filter(|v| !v.is_nan())?;
            *b = (b.0.min(v), b.1.max(v));
        }
    }
    Some(bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodentstore_algebra::schema::{Field, Schema};
    use rodentstore_algebra::types::DataType;
    use rodentstore_algebra::value::Value;

    fn schema() -> Schema {
        Schema::new(
            "T",
            vec![
                Field::new("id", DataType::Int),
                Field::new("x", DataType::Float),
            ],
        )
    }

    fn row(id: i64) -> Record {
        vec![Value::Int(id), Value::Float(id as f64 / 2.0)]
    }

    #[test]
    fn spill_and_cascading_compaction() {
        let pager = Arc::new(Pager::in_memory_with_page_size(512));
        let mut lsm = LsmState::with_params(vec!["id".into()], 4, 2);
        let schema = schema();
        for i in 0..32 {
            lsm.absorb(&pager, "t", &schema, vec![row(31 - i)]).unwrap();
        }
        assert_eq!(lsm.rows(), 32);
        // With cap 4 and fanout 2 the tier must have merged past level 0.
        assert!(lsm.runs.iter().any(|r| r.level >= 1), "{:?}", lsm.runs);
        // Every run is internally key-sorted.
        for run in &lsm.runs {
            let rows = run.heap.read_all().unwrap();
            let ids: Vec<i64> = rows
                .iter()
                .map(|bytes| decode_record(bytes).unwrap()[0].as_i64().unwrap())
                .collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(ids, sorted);
        }
        // Compaction vacated the merged runs' extents.
        assert!(!lsm.take_relocated().is_empty());
        assert!(lsm.take_relocated().is_empty(), "drain is a take");
        // Scan order: deepest level first, seq ascending within a level.
        let levels: Vec<u32> = lsm.runs.iter().map(|r| r.level).collect();
        let mut expected = levels.clone();
        expected.sort_by(|a, b| b.cmp(a));
        assert_eq!(levels, expected);
    }

    #[test]
    fn key_bounds_prune_disjoint_ranges() {
        let pager = Arc::new(Pager::in_memory_with_page_size(512));
        let mut lsm = LsmState::with_params(vec!["id".into()], 4, 4);
        let schema = schema();
        lsm.absorb(&pager, "t", &schema, (0..4).map(row).collect())
            .unwrap();
        lsm.absorb(&pager, "t", &schema, (100..104).map(row).collect())
            .unwrap();
        assert_eq!(lsm.runs.len(), 2);
        let key = vec!["id".to_string()];
        let mut ranges = HashMap::new();
        ranges.insert("id".to_string(), (50.0, 60.0));
        assert!(lsm.runs.iter().all(|r| !r.may_match(&key, &ranges)));
        ranges.insert("id".to_string(), (2.0, 3.0));
        assert_eq!(
            lsm.runs.iter().filter(|r| r.may_match(&key, &ranges)).count(),
            1
        );
        // Unconstrained fields never prune.
        assert!(lsm.runs.iter().all(|r| r.may_match(&key, &HashMap::new())));
    }

    #[test]
    fn fork_shares_sealed_pages_and_clones_memtable() {
        let pager = Arc::new(Pager::in_memory_with_page_size(512));
        let mut lsm = LsmState::with_params(vec!["id".into()], 4, 4);
        let schema = schema();
        lsm.absorb(&pager, "t", &schema, (0..6).map(row).collect())
            .unwrap();
        let before = pager.page_count();
        let mut fork = lsm.fork();
        assert_eq!(pager.page_count(), before, "fork allocates no pages");
        assert_eq!(fork.rows(), lsm.rows());
        assert!(fork.runs.iter().zip(&lsm.runs).all(|(a, b)| Arc::ptr_eq(a, b)));
        fork.absorb(&pager, "t", &schema, vec![row(99)]).unwrap();
        assert_eq!(fork.rows(), lsm.rows() + 1);
        assert_eq!(lsm.memtable.len(), 2, "original untouched");
    }

    #[test]
    fn merged_run_extent_frees_after_the_last_generation_holding_it() {
        let pager = Arc::new(Pager::in_memory_with_page_size(512));
        let mut lsm = LsmState::with_params(vec!["id".into()], 4, 2);
        let schema = schema();
        lsm.absorb(&pager, "t", &schema, (0..4).map(row).collect())
            .unwrap();
        let old = lsm.fork();
        let older = lsm.fork();
        let first = Arc::clone(&lsm.runs[0]);
        // The second spill merges level 0, parking the first run.
        lsm.absorb(&pager, "t", &schema, (4..8).map(row).collect())
            .unwrap();
        assert!(lsm.runs.iter().all(|r| r.level == 1 && !Arc::ptr_eq(r, &first)));
        let extent = first.heap.extent();
        drop(first);
        // The second run was never forked: its extent frees at once.
        let freed = lsm.take_relocated();
        assert!(!freed.is_empty() && freed.iter().all(|p| !extent.contains(p)));
        assert!(lsm.take_relocated().is_empty(), "two older generations hold the run");
        drop(older);
        assert!(lsm.take_relocated().is_empty(), "one older generation holds the run");
        drop(old);
        let freed = lsm.take_relocated();
        assert!(extent.iter().all(|p| freed.contains(p)), "{freed:?} lacks {extent:?}");
        assert!(lsm.take_relocated().is_empty(), "drain is a take");
    }

    #[test]
    fn memtable_drains_in_key_order_and_splits_groups() {
        let mut mem = Memtable::new();
        let rows = [5i64, 1, 5, 3, 1]
            .iter()
            .enumerate()
            .map(|(i, id)| vec![Value::Int(*id), Value::Int(i as i64)])
            .collect();
        mem.absorb(rows, &[(0, SortOrder::Asc)]);
        assert_eq!(mem.len(), 5);
        // First three in key order: both 1s (arrival order), then one 3.
        let first = mem.drain_first(3);
        let keys: Vec<i64> = first.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(keys, vec![1, 1, 3]);
        // Arrival order within the equal-key group: row 1 before row 4.
        assert_eq!(first[0][1], Value::Int(1));
        assert_eq!(first[1][1], Value::Int(4));
        assert_eq!(mem.len(), 2);
        let rest = mem.drain_first(10);
        let keys: Vec<i64> = rest.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(keys, vec![5, 5]);
        assert!(mem.is_empty());
    }

    #[test]
    fn memtable_select_seeks_numeric_first_key() {
        let key = [(0, SortOrder::Asc)];
        let firsts = |rows: &[Record]| rows.iter().map(|r| r[0].to_string()).collect::<Vec<_>>();
        let mut mem = Memtable::new();
        mem.absorb([10i64, 2, 7, 4, 9].map(|id| vec![Value::Int(id)]).to_vec(), &key);
        assert_eq!(firsts(mem.select(0, Some((4.0, 9.0)))), ["4", "7", "9"]);
        assert!(mem.select(0, Some((11.0, 20.0))).is_empty());
        // No range: everything, in key order.
        assert_eq!(mem.select(0, None).len(), 5);
        // Floats among the ints still seek, compared by value.
        let floats = [4.5, 9.0, -1.0].map(|v| vec![Value::Float(v)]).to_vec();
        mem.absorb(floats, &key);
        assert_eq!(firsts(mem.select(0, Some((4.0, 9.0)))), ["4", "4.5", "7", "9", "9"]);
        assert_eq!(firsts(mem.select(0, Some((-2.0, 2.0)))), ["-1", "2"]);
        // A NaN first key lies inside every range, so it disables seeking;
        // it sorts after every number.
        mem.absorb(vec![vec![Value::Float(f64::NAN)]], &key);
        let all = mem.select(0, Some((4.0, 9.0)));
        assert_eq!(all.len(), 9, "falls back to every row");
        assert_eq!(firsts(&all[7..]), ["10", "NaN"]);
        // A non-numeric key disables seeking too.
        let mut mem = Memtable::new();
        mem.absorb(vec![vec![Value::Int(5)], vec![Value::Str("z".into())]], &key);
        assert_eq!(mem.select(0, Some((4.0, 9.0))).len(), 2, "falls back to every row");
    }

    #[test]
    fn nan_keys_seal_sorted_runs() {
        let pager = Arc::new(Pager::in_memory_with_page_size(512));
        let mut lsm = LsmState::with_params(vec!["x".into()], 7, 2);
        let schema = schema();
        for i in 0..60i64 {
            let x = if i % 7 == 3 { f64::NAN } else { ((i * 37) % 23) as f64 };
            lsm.absorb(&pager, "t", &schema, vec![vec![Value::Int(i), Value::Float(x)]])
                .unwrap();
        }
        assert!(lsm.runs.iter().any(|r| r.level >= 1), "{:?}", lsm.runs);
        // Each run holds its numbers ascending, then its NaNs.
        for run in &lsm.runs {
            let xs: Vec<f64> = decoded(run).iter().map(|r| r[1].as_f64().unwrap()).collect();
            let numbers = xs.iter().take_while(|x| !x.is_nan()).count();
            assert!(xs[numbers..].iter().all(|x| x.is_nan()), "{xs:?}");
            assert!(xs[..numbers].windows(2).all(|w| w[0] <= w[1]), "{xs:?}");
        }
    }

    #[test]
    fn absorb_runs_at_most_one_merge_and_journals_activity() {
        let pager = Arc::new(Pager::in_memory_with_page_size(512));
        let mut lsm = LsmState::with_params(vec!["id".into()], 4, 2);
        let schema = schema();
        for i in 0..32 {
            lsm.absorb(&pager, "t", &schema, vec![row(i)]).unwrap();
        }
        let activity = lsm.take_activity();
        assert!(lsm.take_activity().is_empty(), "drain is a take");
        let mut absorbs = 0;
        let mut spills = 0;
        let mut merges = 0;
        for a in &activity {
            match a {
                LsmActivity::Absorb {
                    spills: s,
                    merges: m,
                    ..
                } => {
                    absorbs += 1;
                    assert!(
                        *m <= *s,
                        "at most one merge per spill, got {m} merges for {s} spills"
                    );
                }
                LsmActivity::Spill { level, rows, pages } => {
                    spills += 1;
                    assert_eq!(*level, 0);
                    assert_eq!(*rows, 4);
                    assert!(*pages > 0);
                }
                LsmActivity::Merge {
                    runs_merged,
                    pages_freed,
                    ..
                } => {
                    merges += 1;
                    assert!(*runs_merged >= 2);
                    assert!(*pages_freed > 0);
                }
            }
        }
        assert_eq!(absorbs, 32, "one absorb record per call");
        assert_eq!(spills, 8, "32 rows at cap 4");
        assert!(merges >= 4, "fanout 2 forces regular merges, saw {merges}");
    }

    fn decoded(run: &LsmRun) -> Vec<Record> {
        let rows: Vec<Record> = run
            .heap
            .read_all()
            .unwrap()
            .iter()
            .map(|bytes| decode_record(bytes).unwrap())
            .collect();
        assert_eq!(rows.len(), run.row_count);
        rows
    }

    #[test]
    fn merges_keep_arrival_order_among_equal_keys() {
        let pager = Arc::new(Pager::in_memory_with_page_size(512));
        let mut lsm = LsmState::with_params(vec!["id".into()], 4, 2);
        let schema = schema();
        // Three keys arriving over and over; `x` records the arrival order.
        for i in 0..48i64 {
            let row = vec![Value::Int(i % 3), Value::Float(i as f64)];
            lsm.absorb(&pager, "t", &schema, vec![row]).unwrap();
        }
        lsm.compact(&pager, "t", &schema).unwrap();
        assert!(lsm.runs.iter().any(|r| r.level >= 2), "{:?}", lsm.runs);
        let mut total = 0;
        for run in &lsm.runs {
            let rows = decoded(run);
            total += rows.len();
            for pair in rows.windows(2) {
                let key = |r: &Record| (r[0].as_i64().unwrap(), r[1].as_f64().unwrap());
                let ((ka, xa), (kb, xb)) = (key(&pair[0]), key(&pair[1]));
                assert!(ka < kb || (ka == kb && xa < xb), "{pair:?}");
            }
        }
        assert_eq!(total, 48);
    }
}
