//! Checkpoints: the manifest cut that bounds the WAL, and the copying
//! vacuum that lets the data file shrink past canonical pages.

use super::*;
use crate::catalog::CanonicalStore;
use crate::durability::{self, ManifestContext};
use std::time::Instant;

impl Database {
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
                    // An index tree is never written once built: every
                    // append rebuilds it into fresh pages, and the pages of
                    // the trees it replaced quarantine here.
                    if let Some(idx) = &access.layout().index {
                        pending.extend(idx.take_relocated());
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
                if let (_, Retired::Access(RetiredAccess { access, .. })) = retired {
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
            if let (_, Retired::Access(RetiredAccess { pages, .. })) = retired {
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
}
