//! The levelled write-optimized tier behind the `lsm[...]` operator.
//!
//! An [`LsmState`] rides on a [`crate::plan::PhysicalLayout`]: appended
//! tuples land in an in-memory *memtable* — an ordered map keyed by the
//! tier's sort key, so a spill is an O(n) walk instead of a sort and point
//! lookups can push a key range straight into the memtable — spill into
//! immutable key-sorted *runs* once the memtable fills, and are merged into
//! deeper levels by incremental compaction. The inner expression still
//! governs how the bulk-rendered base is stored; the tier only owns rows
//! appended after the render.
//!
//! Runs are never rewritten once sealed — a spill writes a fresh heap file,
//! flushes it, and re-opens it with every page sealed — so crash recovery
//! can reattach them from manifest metadata without re-rendering a byte.
//! Compaction is amortized: each absorb performs **at most one** level
//! merge (the shallowest overflowing level), so the worst-case work per
//! appended batch is bounded by a single merge instead of a full cascade.
//! Merges park the vacated extents in a relocation note; the checkpoint
//! quarantine turns that into the copying vacuum the free list has been
//! waiting for.
//!
//! Everything the tier does is additionally journaled as [`LsmActivity`]
//! records, drained by the engine into its observability registry and
//! event ring.

use crate::pipeline::sort_records;
use crate::plan::read_heap_row;
use crate::rowcodec::{decode_record, encode_record};
use crate::{LayoutError, Result};
use rodentstore_algebra::expr::SortKey;
use rodentstore_algebra::schema::Schema;
use rodentstore_algebra::value::{Record, Value};
use rodentstore_storage::heap::HeapFile;
use rodentstore_storage::page::PageId;
use rodentstore_storage::pager::Pager;
use std::collections::{BTreeMap, HashMap};
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
        /// Pages vacated (parked as relocation notes).
        pages_freed: u64,
    },
}

/// The tier's in-memory write buffer: rows grouped by their sort key in an
/// ordered map. Keeping the map sorted makes a spill a linear walk (no
/// per-spill sort) and lets point/range reads seek directly to the keys
/// they need instead of filtering the whole buffer.
///
/// Rows with equal keys keep arrival order within their group, which is
/// exactly what the stable per-spill sort used to guarantee.
#[derive(Clone)]
pub struct Memtable {
    entries: BTreeMap<Vec<Value>, Vec<Record>>,
    len: usize,
    /// Every first-key value seen so far maps to a non-NaN `f64`, so a
    /// numeric range on the first key field can seek the map directly.
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
            entries: BTreeMap::new(),
            len: 0,
            numeric: true,
        }
    }

    /// Number of buffered rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the memtable holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Buffers `row` under its extracted sort `key`.
    pub fn insert(&mut self, key: Vec<Value>, row: Record) {
        if self.numeric {
            self.numeric = key
                .first()
                .map_or(true, |v| v.as_f64().is_some_and(|f| !f.is_nan()));
        }
        self.entries.entry(key).or_default().push(row);
        self.len += 1;
    }

    /// Rows in key order (arrival order within equal keys).
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.entries.values().flatten()
    }

    /// Clones every row out, in key order (manifest serialization).
    pub fn rows(&self) -> Vec<Record> {
        self.iter().cloned().collect()
    }

    /// The `idx`-th row in key order.
    pub fn get(&self, idx: usize) -> Option<&Record> {
        self.iter().nth(idx)
    }

    /// Removes and returns the first `n` rows in key order — already
    /// sorted, so a spill can seal them without sorting. A key group that
    /// straddles the cut is split, its remainder staying buffered.
    pub fn drain_first(&mut self, n: usize) -> Vec<Record> {
        let mut out = Vec::with_capacity(n.min(self.len));
        while out.len() < n {
            let Some((key, mut rows)) = self.entries.pop_first() else {
                break;
            };
            let remaining = n - out.len();
            if rows.len() <= remaining {
                out.extend(rows);
            } else {
                let rest = rows.split_off(remaining);
                out.extend(rows);
                self.entries.insert(key, rest);
                break;
            }
        }
        self.len -= out.len();
        out
    }

    /// Rows whose *first* key value falls in the inclusive numeric range,
    /// found by seeking the ordered map when every first-key value is
    /// numeric. Falls back to every row when the range is absent or the
    /// keys are not uniformly numeric (the caller still applies its full
    /// predicate either way).
    pub fn select(&self, range: Option<(f64, f64)>) -> Vec<&Record> {
        match range {
            Some((lo, hi)) if self.numeric => self
                .entries
                .range(vec![Value::Float(lo)]..)
                .take_while(|(k, _)| {
                    k.first().and_then(|v| v.as_f64()).is_some_and(|v| v <= hi)
                })
                .flat_map(|(_, rows)| rows.iter())
                .collect(),
            _ => self.iter().collect(),
        }
    }
}

impl std::fmt::Debug for Memtable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memtable")
            .field("rows", &self.len)
            .field("keys", &self.entries.len())
            .field("numeric", &self.numeric)
            .finish()
    }
}

/// One immutable sorted run of the levelled tier.
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
    /// Lifetime token, cloned by every fork that shares the run's sealed
    /// pages. A run's extent is reclaimable only once its token is unique:
    /// sealed pages are shared across *every* published generation since the
    /// run was created, so a per-generation retirement guard is not enough —
    /// a reader holding any older generation still decodes these pages.
    pub token: Arc<()>,
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
    pub runs: Vec<LsmRun>,
    /// Memtable spill threshold, in rows.
    pub memtable_cap: usize,
    /// Runs per level before compaction merges the level.
    pub fanout: usize,
    /// Next run sequence number.
    pub next_seq: u64,
    /// Extents vacated by compaction since the last drain, each tagged with
    /// the vacated run's lifetime token.
    relocated: Mutex<Vec<(Arc<()>, Vec<PageId>)>>,
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
    /// Fresh tier with default spill and fanout parameters.
    pub fn new(key: Vec<String>) -> LsmState {
        LsmState::with_params(key, DEFAULT_MEMTABLE_CAP, DEFAULT_FANOUT)
    }

    /// Fresh tier with explicit parameters (tests shrink them to exercise
    /// multi-level shapes with few rows).
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
    /// were persisted in key order and re-keying them here preserves the
    /// within-key arrival order.
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
        let positions = state.key_positions(schema)?;
        for row in memtable_rows {
            let key = positions.iter().map(|&p| row[p].clone()).collect();
            state.memtable.insert(key, row);
        }
        state.runs = runs;
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

    /// The row at `idx` in the tier's scan order: runs deepest level first
    /// (oldest first within a level), each in key order, then the memtable
    /// in key order — decoding, from a run, only the positions marked in
    /// `needed` of the one record (a memtable row is cloned whole).
    pub fn row_at(&self, mut idx: usize, needed: &[bool]) -> Result<Option<Record>> {
        for run in &self.runs {
            if idx < run.row_count {
                return read_heap_row(&run.heap, idx, needed).map(Some);
            }
            idx -= run.row_count;
        }
        Ok(self.memtable.get(idx).cloned())
    }

    /// Drains the vacated extents that are already safe to reuse: those
    /// whose run token is unique, meaning no forked generation (and thus no
    /// pinned reader) can still reach the run's pages. Notes whose token is
    /// still shared stay parked for a later drain.
    pub fn take_relocated(&self) -> Vec<PageId> {
        let mut relocated = self.relocated.lock().unwrap();
        let mut pages = Vec::new();
        relocated.retain_mut(|(token, extent)| {
            if Arc::strong_count(token) == 1 {
                pages.append(extent);
                false
            } else {
                true
            }
        });
        pages
    }

    /// Drains *every* relocation note, shared tokens included. Callers that
    /// outlive this tier (the database's central parking lot) take the notes
    /// wholesale and re-check token uniqueness themselves on each reap.
    pub fn take_relocation_notes(&self) -> Vec<(Arc<()>, Vec<PageId>)> {
        std::mem::take(&mut *self.relocated.lock().unwrap())
    }

    /// Drains the structural-work journal accumulated since the last drain.
    pub fn take_activity(&self) -> Vec<LsmActivity> {
        std::mem::take(&mut *self.activity.lock().unwrap())
    }

    fn record(&self, activity: LsmActivity) {
        self.activity.lock().unwrap().push(activity);
    }

    fn sort_keys(&self) -> Vec<SortKey> {
        self.key.iter().map(|f| SortKey::asc(f.clone())).collect()
    }

    /// Schema positions of the tier's key fields.
    fn key_positions(&self, schema: &Schema) -> Result<Vec<usize>> {
        self.key
            .iter()
            .map(|f| schema.index_of(f).map_err(crate::LayoutError::Algebra))
            .collect()
    }

    /// Restores the scan-order invariant after runs were added or merged.
    fn order_runs(&mut self) {
        self.runs
            .sort_by(|a, b| b.level.cmp(&a.level).then(a.seq.cmp(&b.seq)));
    }

    /// Absorbs appended rows: into the ordered memtable, spilling level-0
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
        let positions = self.key_positions(schema)?;
        for row in rows {
            let key = positions.iter().map(|&p| row[p].clone()).collect();
            self.memtable.insert(key, row);
        }
        let mut spills = 0u64;
        let mut merges = 0u64;
        while self.memtable.len() >= self.memtable_cap {
            let spill = self.memtable.drain_first(self.memtable_cap);
            let (rows_sealed, pages) = self.seal_run(pager, layout_name, schema, spill, 0, true)?;
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

    /// Seals `rows` as a fresh immutable run on `level`, sorting them by
    /// the key first unless the caller guarantees they already are
    /// (memtable drains are; merge inputs rely on the sort as the merge).
    /// The heap is flushed and re-opened with every page sealed, so the run
    /// can never be appended to again. Returns `(rows, pages)` sealed.
    fn seal_run(
        &mut self,
        pager: &Arc<Pager>,
        layout_name: &str,
        schema: &Schema,
        mut rows: Vec<Record>,
        level: u32,
        presorted: bool,
    ) -> Result<(u64, u64)> {
        if !presorted {
            sort_records(schema, &mut rows, &self.sort_keys())?;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let name = format!("{layout_name}.run{seq}");
        let heap = HeapFile::create(name.clone(), Arc::clone(pager));
        for row in &rows {
            heap.append(&encode_record(row))?;
        }
        heap.flush()?;
        let sealed = HeapFile::from_pages(name, Arc::clone(pager), heap.extent(), rows.len() as u64);
        let pages = sealed.page_count() as u64;
        let key_bounds = self.bounds_of(schema, &rows)?;
        let row_count = rows.len();
        self.runs.push(LsmRun {
            heap: sealed,
            level,
            seq,
            row_count,
            key_bounds,
            token: Arc::new(()),
        });
        self.order_runs();
        Ok((row_count as u64, pages))
    }

    /// Per-key-field `(min, max)` over `rows`, or `None` when any key value
    /// has no numeric interpretation.
    fn bounds_of(&self, schema: &Schema, rows: &[Record]) -> Result<Option<Vec<(f64, f64)>>> {
        if rows.is_empty() {
            return Ok(Some(vec![(f64::INFINITY, f64::NEG_INFINITY); self.key.len()]));
        }
        let positions = self.key_positions(schema)?;
        let mut bounds = vec![(f64::INFINITY, f64::NEG_INFINITY); self.key.len()];
        for row in rows {
            for (k, &p) in positions.iter().enumerate() {
                match row[p].as_f64() {
                    Some(v) if !v.is_nan() => {
                        bounds[k].0 = bounds[k].0.min(v);
                        bounds[k].1 = bounds[k].1.max(v);
                    }
                    _ => return Ok(None),
                }
            }
        }
        Ok(Some(bounds))
    }

    /// Merges the *shallowest* level holding at least `fanout` runs into a
    /// single run on the next level — one merge, no cascade. Returns whether
    /// a merge happened. Vacated run extents are parked for
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
        let mut merged: Vec<LsmRun> = Vec::new();
        let mut keep: Vec<LsmRun> = Vec::new();
        for run in self.runs.drain(..) {
            if run.level == level {
                merged.push(run);
            } else {
                keep.push(run);
            }
        }
        self.runs = keep;
        // Oldest first, so the stable merge sort preserves arrival order
        // among equal keys.
        merged.sort_by_key(|r| r.seq);
        let mut rows = Vec::with_capacity(merged.iter().map(|r| r.row_count).sum());
        for run in &merged {
            run.heap.scan(|_, payload| {
                rows.push(decode_record(payload)?);
                Ok::<_, LayoutError>(())
            })?;
        }
        let pages_freed: u64 = merged.iter().map(|r| r.heap.extent().len() as u64).sum();
        let runs_merged = merged.len() as u64;
        let (rows_sealed, pages_written) =
            self.seal_run(pager, layout_name, schema, rows, level + 1, false)?;
        let mut relocated = self.relocated.lock().unwrap();
        for run in merged {
            relocated.push((Arc::clone(&run.token), run.heap.extent()));
        }
        drop(relocated);
        self.record(LsmActivity::Merge {
            level,
            runs_merged,
            rows: rows_sealed,
            pages_written,
            pages_freed,
        });
        Ok(())
    }

    /// Clones the tier for an append fork: run heaps are reattached over the
    /// same sealed pages (no copying), the memtable is cloned, and pending
    /// relocation notes and activity stay with the original.
    pub fn fork(&self, pager: &Arc<Pager>) -> LsmState {
        let runs = self
            .runs
            .iter()
            .map(|r| LsmRun {
                heap: HeapFile::from_pages(
                    r.heap.name().to_string(),
                    Arc::clone(pager),
                    r.heap.extent(),
                    r.row_count as u64,
                ),
                level: r.level,
                seq: r.seq,
                row_count: r.row_count,
                key_bounds: r.key_bounds.clone(),
                token: Arc::clone(&r.token),
            })
            .collect();
        LsmState {
            key: self.key.clone(),
            memtable: self.memtable.clone(),
            runs,
            memtable_cap: self.memtable_cap,
            fanout: self.fanout,
            next_seq: self.next_seq,
            relocated: Mutex::new(Vec::new()),
            activity: Mutex::new(Vec::new()),
        }
    }
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
        let mut fork = lsm.fork(&pager);
        assert_eq!(pager.page_count(), before, "fork allocates no pages");
        assert_eq!(fork.rows(), lsm.rows());
        fork.absorb(&pager, "t", &schema, vec![row(99)]).unwrap();
        assert_eq!(fork.rows(), lsm.rows() + 1);
        assert_eq!(lsm.memtable.len(), 2, "original untouched");
    }

    #[test]
    fn memtable_drains_in_key_order_and_splits_groups() {
        let mut mem = Memtable::new();
        for (i, id) in [5i64, 1, 5, 3, 1].iter().enumerate() {
            mem.insert(vec![Value::Int(*id)], vec![Value::Int(*id), Value::Int(i as i64)]);
        }
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
        let mut mem = Memtable::new();
        for id in [10i64, 2, 7, 4, 9] {
            mem.insert(vec![Value::Int(id)], vec![Value::Int(id)]);
        }
        let hits = mem.select(Some((4.0, 9.0)));
        let keys: Vec<i64> = hits.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(keys, vec![4, 7, 9]);
        // No range: everything, in key order.
        assert_eq!(mem.select(None).len(), 5);
        // A non-numeric key disables seeking but not correctness.
        mem.insert(vec![Value::Str("z".into())], vec![Value::Str("z".into())]);
        assert_eq!(mem.select(Some((4.0, 9.0))).len(), 6, "falls back to full walk");
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
    fn row_at_follows_scan_order_and_decodes_only_needed_fields() {
        let pager = Arc::new(Pager::in_memory_with_page_size(512));
        let mut lsm = LsmState::with_params(vec!["id".into()], 8, 2);
        let schema = schema();
        for batch in 0..9i64 {
            let rows = (0..5).map(|i| row((batch * 7 + i * 13) % 50)).collect();
            lsm.absorb(&pager, "t", &schema, rows).unwrap();
        }
        assert!(lsm.runs.len() >= 2 && !lsm.memtable.is_empty(), "{lsm:?}");
        let in_runs: Vec<Record> = lsm.runs.iter().flat_map(decoded).collect();
        let want: Vec<Record> = in_runs.iter().chain(lsm.memtable.iter()).cloned().collect();
        assert_eq!(want.len(), lsm.rows());
        for (i, expected) in want.iter().enumerate() {
            assert_eq!(lsm.row_at(i, &[true, true]).unwrap().as_ref(), Some(expected));
        }
        // A run row decodes only the needed positions; a memtable row is
        // cloned whole.
        for (i, expected) in in_runs.iter().enumerate() {
            assert_eq!(
                lsm.row_at(i, &[false, true]).unwrap(),
                Some(vec![Value::Null, expected[1].clone()])
            );
        }
        assert_eq!(lsm.row_at(want.len(), &[true, true]).unwrap(), None);
    }

    #[test]
    fn row_at_reads_pages_of_the_containing_run_only() {
        let pager = Arc::new(Pager::in_memory_with_page_size(512));
        let mut lsm = LsmState::with_params(vec!["id".into()], 64, 8);
        let schema = schema();
        for batch in 0..4i64 {
            let rows = (0..64).map(|i| row(batch * 64 + i)).collect();
            lsm.absorb(&pager, "t", &schema, rows).unwrap();
        }
        assert_eq!(lsm.runs.len(), 4, "fanout 8 leaves four level-0 runs");
        let mut start = 0usize;
        for run in &lsm.runs {
            assert!(run.heap.page_count() > 1);
            let last = start + run.row_count - 1;
            for (idx, pages) in [(start, 1), (last, run.heap.page_count())] {
                let before = pager.stats().snapshot();
                let got = lsm.row_at(idx, &[true, false]).unwrap().unwrap();
                let io = pager.stats().snapshot().since(&before);
                assert_eq!(got, vec![Value::Int(idx as i64), Value::Null]);
                assert_eq!(io.pages_read as usize, pages, "row {idx}");
            }
            start += run.row_count;
        }
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
