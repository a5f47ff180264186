//! Heap files: append-oriented collections of slotted pages.
//!
//! A [`HeapFile`] is the basic *object* produced by the layout renderers: an
//! ordered sequence of pages holding variable-length records. Rows, columns,
//! PAX mini-page groups, grid cells, and compressed blocks are all ultimately
//! written into heap files; the order of records within the file is exactly
//! the physical representation `φ(N)` chosen by the algebra interpreter.

//! The tail page — the page currently being filled — is kept *open* across
//! flushes: [`HeapFile::flush`] writes it back when it has unwritten records
//! but does not seal it, so appends after a flush (or a checkpoint, or a
//! restart via [`HeapFile::from_pages_with_tail`]) continue filling the same
//! page instead of opening a fresh one. A page is sealed only when a record
//! no longer fits.

use crate::page::{Page, PageId};
use crate::pager::Pager;
use crate::slotted::{max_record_len, SlottedPage, SlottedReader};
use crate::{Result, StorageError};
use parking_lot::Mutex;
use std::sync::Arc;

/// Location of a record inside a heap file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    /// Index of the page *within the heap file* (not the global page id).
    pub page_index: usize,
    /// Slot within the page.
    pub slot: usize,
}

/// An append-oriented record file spread over pages of a shared [`Pager`].
pub struct HeapFile {
    name: String,
    pager: Arc<Pager>,
    state: Mutex<HeapState>,
}

struct HeapState {
    /// Global page ids of *sealed* pages, in file order. The open tail (if
    /// any) logically follows them at index `pages.len()`.
    pages: Vec<PageId>,
    /// The currently open tail page being filled, if any. Kept open across
    /// flushes; sealed only when a record no longer fits.
    tail: Option<Page>,
    /// Whether the tail holds records not yet written through the pager.
    tail_dirty: bool,
    /// Whether a durable checkpoint manifest references the tail page. A
    /// protected page is never rewritten in place — a torn rewrite would
    /// corrupt records the manifest promises are durable. The next append
    /// *relocates* the tail: its contents are copied to a freshly
    /// allocated page and the protected page goes to `relocated`,
    /// untouched, until the next checkpoint stops referencing it.
    tail_protected: bool,
    /// Protected pages superseded by relocation; drained by the next
    /// checkpoint (via [`HeapFile::take_relocated`]) into the free list.
    relocated: Vec<PageId>,
    /// Number of records appended so far.
    record_count: u64,
}

impl HeapState {
    /// Copies a protected tail onto a fresh page so the protected page is
    /// never rewritten. No-op for unprotected tails.
    fn unprotect_tail(&mut self, pager: &Pager) -> Result<()> {
        if !self.tail_protected {
            return Ok(());
        }
        if let Some(old) = &self.tail {
            // Allocate before touching the state: a failed allocation must
            // leave the protected tail (and its records) in place.
            let mut fresh = pager.allocate()?;
            fresh.data.copy_from_slice(&old.data);
            self.relocated.push(old.id);
            self.tail = Some(fresh);
            self.tail_dirty = true;
        }
        self.tail_protected = false;
        Ok(())
    }
}

impl std::fmt::Debug for HeapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("HeapFile")
            .field("name", &self.name)
            .field("pages", &state.pages.len())
            .field("records", &state.record_count)
            .finish()
    }
}

impl HeapFile {
    /// Creates an empty heap file.
    pub fn create(name: impl Into<String>, pager: Arc<Pager>) -> HeapFile {
        HeapFile {
            name: name.into(),
            pager,
            state: Mutex::new(HeapState {
                pages: Vec::new(),
                tail: None,
                tail_dirty: false,
                tail_protected: false,
                relocated: Vec::new(),
                record_count: 0,
            }),
        }
    }

    /// Reattaches a heap file to pages that already exist in the pager —
    /// the recovery path: a checkpoint manifest records each object's page
    /// extent and record count, and reopening rebuilds the heap around them
    /// without rewriting a byte. All pages are treated as sealed; the next
    /// append opens a fresh tail page after them. Prefer
    /// [`HeapFile::from_pages_with_tail`] when the valid slot count of the
    /// last page is known — it refills that page instead.
    pub fn from_pages(
        name: impl Into<String>,
        pager: Arc<Pager>,
        pages: Vec<PageId>,
        record_count: u64,
    ) -> HeapFile {
        HeapFile {
            name: name.into(),
            pager,
            state: Mutex::new(HeapState {
                pages,
                tail: None,
                tail_dirty: false,
                tail_protected: false,
                relocated: Vec::new(),
                record_count,
            }),
        }
    }

    /// Reattaches a heap file and *reopens its last page as the tail* so
    /// later appends refill the remaining space instead of always opening a
    /// fresh page. `tail_valid_slots` is the number of records the last page
    /// held at checkpoint time (from the manifest); any slots beyond it are
    /// orphans of discarded post-checkpoint appends — they are cut here,
    /// *before* WAL replay re-applies their transactions, so replayed rows
    /// land exactly once. Pass `None` to treat every page as sealed (the
    /// [`HeapFile::from_pages`] behavior).
    ///
    /// The manifest still references the reattached page, so it is adopted
    /// *protected*: it is never rewritten in place (a torn rewrite would
    /// corrupt manifest-covered records). An orphan cut relocates the valid
    /// contents onto a fresh page immediately; otherwise the first append
    /// does. The protected original stays intact until the next checkpoint
    /// collects it via [`HeapFile::take_relocated`].
    pub fn from_pages_with_tail(
        name: impl Into<String>,
        pager: Arc<Pager>,
        mut pages: Vec<PageId>,
        record_count: u64,
        tail_valid_slots: Option<u32>,
    ) -> Result<HeapFile> {
        let mut state = HeapState {
            pages: Vec::new(),
            tail: None,
            tail_dirty: false,
            tail_protected: false,
            relocated: Vec::new(),
            record_count,
        };
        if let Some(valid) = tail_valid_slots {
            if let Some(&last) = pages.last() {
                let page = pager.read_frame(last)?.to_page();
                let orphans = SlottedReader::new(&page).slot_count() > valid as usize;
                pages.pop();
                state.tail = Some(page);
                state.tail_protected = true;
                if orphans {
                    // Cut on a relocated copy — the manifest-covered page
                    // itself is left byte-for-byte intact on disk.
                    state.unprotect_tail(&pager)?;
                    let tail = state.tail.as_mut().expect("relocated above");
                    SlottedPage::open(tail).truncate_slots(valid as usize)?;
                }
            }
        }
        state.pages = pages;
        Ok(HeapFile {
            name: name.into(),
            pager,
            state: Mutex::new(state),
        })
    }

    /// Marks the open tail page as referenced by a durable checkpoint
    /// manifest: from now on it is never rewritten in place — the next
    /// append relocates it (see [`HeapFile::from_pages_with_tail`]). Called
    /// by `Database::checkpoint` after flushing, right before the manifest
    /// that references the page is written.
    pub fn protect_tail(&self) {
        let mut state = self.state.lock();
        if state.tail.is_some() {
            debug_assert!(!state.tail_dirty, "protecting an unflushed tail");
            state.tail_protected = true;
        }
    }

    /// Drains the protected pages superseded by tail relocations. The
    /// caller (a checkpoint, whose new manifest no longer references them)
    /// owns returning them to the free list.
    pub fn take_relocated(&self) -> Vec<PageId> {
        std::mem::take(&mut self.state.lock().relocated)
    }

    /// Name of the heap file (used in catalogs and diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of records stored.
    pub fn record_count(&self) -> u64 {
        self.state.lock().record_count
    }

    /// Number of pages used.
    pub fn page_count(&self) -> usize {
        let state = self.state.lock();
        state.pages.len() + usize::from(state.tail.is_some())
    }

    /// The pager backing this file.
    pub fn pager(&self) -> &Arc<Pager> {
        &self.pager
    }

    /// Appends a record, returning its id. Records larger than a page are
    /// rejected.
    pub fn append(&self, record: &[u8]) -> Result<RecordId> {
        let page_size = self.pager.page_size();
        if record.len() > max_record_len(page_size) {
            return Err(StorageError::RecordTooLarge {
                len: record.len(),
                max: max_record_len(page_size),
            });
        }
        let mut state = self.state.lock();
        // A manifest-covered tail is relocated (copied to a fresh page)
        // before the first write lands on it.
        state.unprotect_tail(&self.pager)?;
        // Open a tail page if needed.
        if state.tail.is_none() {
            let mut page = self.pager.allocate()?;
            SlottedPage::init(&mut page)?;
            state.tail = Some(page);
            state.tail_dirty = true;
        }
        // If the record does not fit, seal the current tail and start a new one.
        let needs_new_page = {
            let tail = state.tail.as_mut().expect("tail ensured above");
            !SlottedPage::open(tail).fits(record.len())
        };
        if needs_new_page {
            // Write before sealing: a failed write must leave the tail (and
            // the records `record_count` already counts) in place.
            self.pager
                .write(state.tail.as_ref().expect("tail present"))?;
            let sealed = state.tail.take().expect("tail present");
            state.tail_dirty = false;
            state.pages.push(sealed.id);
            let mut page = self.pager.allocate()?;
            SlottedPage::init(&mut page)?;
            state.tail = Some(page);
        }
        let page_index = state.pages.len();
        let tail = state.tail.as_mut().expect("tail ensured above");
        let slot = SlottedPage::open(tail).insert(record)?;
        state.tail_dirty = true;
        state.record_count += 1;
        Ok(RecordId { page_index, slot })
    }

    /// Flushes the partially filled tail page (if it holds unwritten
    /// records) so the file is fully persisted. Called automatically by
    /// scans. The tail stays *open*: later appends keep filling it.
    pub fn flush(&self) -> Result<()> {
        let mut state = self.state.lock();
        if state.tail_dirty {
            // Protected tails are relocated before any write reaches them
            // (see `unprotect_tail`), so a dirty tail is never protected.
            debug_assert!(!state.tail_protected);
            if let Some(tail) = &state.tail {
                self.pager.write(tail)?;
            }
            state.tail_dirty = false;
        }
        Ok(())
    }

    /// Flushes the tail and closes it: every page is sealed, as
    /// [`HeapFile::from_pages`] leaves them, and the file holds no page in
    /// memory. Only a later append would open a fresh tail.
    pub fn seal(&self) -> Result<()> {
        self.flush()?;
        let mut state = self.state.lock();
        if let Some(tail) = state.tail.take() {
            state.pages.push(tail.id);
        }
        Ok(())
    }

    /// Page ids of the file in file order, *without* flushing — the raw
    /// extent, for reclaiming a dead heap's pages.
    pub fn extent(&self) -> Vec<PageId> {
        let state = self.state.lock();
        let tail = state.tail.as_ref().map(|tail| tail.id);
        let mut ids = Vec::with_capacity(state.pages.len() + usize::from(tail.is_some()));
        ids.extend_from_slice(&state.pages);
        ids.extend(tail);
        ids
    }

    /// Number of records currently in the open tail page (`None` when every
    /// page is sealed). Persisted by checkpoints so a reopened heap can
    /// refill the page and recovery can cut orphaned post-checkpoint slots.
    pub fn tail_valid_slots(&self) -> Option<u32> {
        let state = self.state.lock();
        state
            .tail
            .as_ref()
            .map(|tail| SlottedReader::new(tail).slot_count() as u32)
    }

    /// Largest record that still fits the open tail page (0 when there is
    /// none, or it is full): a record this size or smaller lands on the
    /// tail, a larger one seals it and opens a fresh page. Lets a writer
    /// that can cut its payload anywhere fill pages exactly.
    pub fn tail_room(&self) -> usize {
        let mut state = self.state.lock();
        state
            .tail
            .as_mut()
            .map_or(0, |tail| SlottedPage::open(tail).free_space())
    }

    /// Global page ids of the file, in file order (flushes first; the open
    /// tail, if any, is the last entry).
    pub fn page_ids(&self) -> Result<Vec<PageId>> {
        self.flush()?;
        Ok(self.extent())
    }

    /// Scans every record in file order, invoking `visit` with the record id
    /// and the payload, borrowed from the page frame. Pages are read strictly
    /// sequentially, which the I/O statistics reward with at most one seek.
    /// `visit` may fail with any error a storage error converts into, so a
    /// caller decodes payloads in place instead of copying them out.
    pub fn scan<E: From<StorageError>>(
        &self,
        mut visit: impl FnMut(RecordId, &[u8]) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        self.flush()?;
        let pages = self.extent();
        for (page_index, page_id) in pages.iter().enumerate() {
            let frame = self.pager.read_frame(*page_id)?;
            let reader = SlottedReader::over(frame.data(), frame.id());
            for slot in 0..reader.slot_count() {
                let payload = reader.get(slot)?;
                visit(RecordId { page_index, slot }, payload)?;
            }
        }
        Ok(())
    }

    /// Collects every record into memory (convenience for tests and small
    /// objects).
    pub fn read_all(&self) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        self.scan(|_, payload| {
            out.push(payload.to_vec());
            Ok::<_, StorageError>(())
        })?;
        Ok(out)
    }

    /// Scans only the pages whose *file-order indices* are listed, still in
    /// ascending order. Used by layouts that can prune pages (e.g. grid cells
    /// outside a query rectangle).
    pub fn scan_pages(
        &self,
        page_indices: &[usize],
        mut visit: impl FnMut(RecordId, &[u8]) -> Result<()>,
    ) -> Result<()> {
        self.flush()?;
        let pages = self.extent();
        for &page_index in page_indices {
            let Some(&page_id) = pages.get(page_index) else {
                return Err(StorageError::PageNotFound(page_index as PageId));
            };
            let frame = self.pager.read_frame(page_id)?;
            let reader = SlottedReader::over(frame.data(), frame.id());
            for slot in 0..reader.slot_count() {
                let payload = reader.get(slot)?;
                visit(RecordId { page_index, slot }, payload)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_pager() -> Arc<Pager> {
        Arc::new(Pager::in_memory_with_page_size(128))
    }

    #[test]
    fn append_and_scan_preserve_order() {
        let heap = HeapFile::create("t", small_pager());
        let payloads: Vec<Vec<u8>> = (0..50u8).map(|i| vec![i; 10]).collect();
        for p in &payloads {
            heap.append(p).unwrap();
        }
        assert_eq!(heap.record_count(), 50);
        let all = heap.read_all().unwrap();
        assert_eq!(all, payloads);
        assert!(heap.page_count() > 1, "records must spill over pages");
    }

    #[test]
    fn append_returns_the_record_id_a_scan_reports() {
        let heap = HeapFile::create("t", small_pager());
        let ids: Vec<RecordId> = (0..20u8)
            .map(|i| heap.append(&[i; 16]).unwrap())
            .collect();
        let mut scanned = Vec::new();
        heap.scan(|rid, payload| {
            scanned.push((rid, payload.to_vec()));
            Ok::<_, StorageError>(())
        })
        .unwrap();
        let want: Vec<(RecordId, Vec<u8>)> =
            ids.into_iter().zip((0..20u8).map(|i| vec![i; 16])).collect();
        assert_eq!(scanned, want);
    }

    #[test]
    fn oversized_record_rejected() {
        let heap = HeapFile::create("t", small_pager());
        let too_big = vec![0u8; 200];
        assert!(matches!(
            heap.append(&too_big),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn sequential_scan_costs_one_seek() {
        let pager = small_pager();
        let heap = HeapFile::create("t", Arc::clone(&pager));
        for i in 0..200u8 {
            heap.append(&[i; 20]).unwrap();
        }
        heap.flush().unwrap();
        pager.stats().reset();
        heap.scan(|_, _| Ok::<_, StorageError>(())).unwrap();
        let snap = pager.stats().snapshot();
        assert!(snap.pages_read > 1);
        assert_eq!(snap.seeks, 1, "file pages are contiguous, so one seek");
    }

    #[test]
    fn scan_stops_at_the_first_visitor_error_and_returns_it() {
        #[derive(Debug, PartialEq)]
        enum VisitError {
            Storage(String),
            Rejected(u8),
        }
        impl From<StorageError> for VisitError {
            fn from(e: StorageError) -> Self {
                VisitError::Storage(e.to_string())
            }
        }
        let heap = HeapFile::create("t", small_pager());
        for i in 0..60u8 {
            heap.append(&[i; 10]).unwrap();
        }
        assert!(heap.page_count() > 2);
        let mut seen = Vec::new();
        let err = heap
            .scan(|rid, payload| {
                if payload[0] == 37 {
                    return Err(VisitError::Rejected(payload[0]));
                }
                seen.push(rid);
                Ok(())
            })
            .unwrap_err();
        assert_eq!(err, VisitError::Rejected(37));
        assert_eq!(seen.len(), 37, "no record after the failing one is visited");
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "file order");
    }

    #[test]
    fn scan_pages_prunes() {
        let pager = small_pager();
        let heap = HeapFile::create("t", Arc::clone(&pager));
        for i in 0..100u8 {
            heap.append(&[i; 20]).unwrap();
        }
        let total_pages = heap.page_ids().unwrap().len();
        assert!(total_pages >= 4);
        pager.stats().reset();
        let mut seen = 0usize;
        heap.scan_pages(&[0, 1], |_, _| {
            seen += 1;
            Ok(())
        })
        .unwrap();
        assert!(seen > 0);
        assert_eq!(pager.stats().snapshot().pages_read, 2);
    }

    #[test]
    fn two_heaps_share_a_pager_without_interference() {
        let pager = small_pager();
        let a = HeapFile::create("a", Arc::clone(&pager));
        let b = HeapFile::create("b", Arc::clone(&pager));
        for i in 0..30u8 {
            a.append(&[i; 12]).unwrap();
            b.append(&[100 + i; 12]).unwrap();
        }
        let a_records = a.read_all().unwrap();
        let b_records = b.read_all().unwrap();
        assert_eq!(a_records.len(), 30);
        assert!(a_records.iter().all(|r| r[0] < 100));
        assert!(b_records.iter().all(|r| r[0] >= 100));
    }

    #[test]
    fn tail_room_sized_records_fill_pages_exactly() {
        let pager = small_pager();
        let heap = HeapFile::create("t", Arc::clone(&pager));
        assert_eq!(heap.tail_room(), 0, "no tail yet");
        heap.append(&[1u8; 30]).unwrap();
        let room = heap.tail_room();
        assert!(room > 0 && room < max_record_len(128));
        heap.append(&vec![2u8; room]).unwrap();
        assert_eq!(
            heap.page_count(),
            1,
            "a tail_room-sized record stays on the tail"
        );
        assert_eq!(heap.tail_room(), 0, "and fills it");
        heap.append(&[3u8; 1]).unwrap();
        assert_eq!(heap.page_count(), 2);
    }

    #[test]
    fn flush_keeps_the_tail_open_for_refill() {
        let pager = small_pager();
        let heap = HeapFile::create("t", Arc::clone(&pager));
        heap.append(&[1u8; 20]).unwrap();
        heap.flush().unwrap();
        let pages_after_flush = heap.page_count();
        // A post-flush append refills the same page instead of opening a
        // fresh one (the record fits in the remaining space).
        heap.append(&[2u8; 20]).unwrap();
        heap.flush().unwrap();
        assert_eq!(heap.page_count(), pages_after_flush);
        assert_eq!(heap.read_all().unwrap().len(), 2);
        // Flushing twice without new records writes nothing extra.
        let written = pager.stats().snapshot().pages_written;
        heap.flush().unwrap();
        assert_eq!(pager.stats().snapshot().pages_written, written);
    }

    #[test]
    fn reattached_heap_refills_its_partial_tail_and_cuts_orphans() {
        let pager = small_pager();
        let (pages, records, tail_slots) = {
            let heap = HeapFile::create("t", Arc::clone(&pager));
            for i in 0..7u8 {
                heap.append(&[i; 20]).unwrap();
            }
            heap.flush().unwrap();
            (
                heap.page_ids().unwrap(),
                heap.record_count(),
                heap.tail_valid_slots().unwrap(),
            )
        };
        // Simulate discarded post-checkpoint appends: orphan slots beyond
        // `tail_slots` written straight into the tail page.
        let tail_id = *pages.last().unwrap();
        let mut page = pager.read_frame(tail_id).unwrap().to_page();
        SlottedPage::open(&mut page).insert(b"orphan").unwrap();
        pager.write(&page).unwrap();

        let before_reattach = pager.read_frame(tail_id).unwrap().data().to_vec();
        let heap = HeapFile::from_pages_with_tail(
            "t",
            Arc::clone(&pager),
            pages.clone(),
            records,
            Some(tail_slots),
        )
        .unwrap();
        // The orphan is gone; the manifest-covered page itself was never
        // rewritten (the cut happened on a relocated copy) — a torn write
        // can no longer corrupt checkpoint-covered records.
        assert_eq!(heap.read_all().unwrap().len(), 7);
        assert_eq!(
            pager.read_frame(tail_id).unwrap().data(),
            before_reattach,
            "protected page must stay byte-for-byte intact"
        );
        assert_eq!(heap.take_relocated(), vec![tail_id]);
        // Appends refill the (relocated) tail without growing the file.
        let page_count_before = heap.page_count();
        heap.append(&[42u8; 20]).unwrap();
        assert_eq!(heap.page_count(), page_count_before, "tail was refilled");
        let all = heap.read_all().unwrap();
        assert_eq!(all.len(), 8);
        assert_eq!(all[7], vec![42u8; 20]);
        let extent = heap.page_ids().unwrap();
        assert_eq!(extent.len(), pages.len(), "no extra pages beyond the relocation");
        assert_eq!(extent[..pages.len() - 1], pages[..pages.len() - 1]);
        assert_ne!(*extent.last().unwrap(), tail_id, "tail relocated off the protected page");

        // A clean reattach (no orphans: the manifest's slot count matches
        // the page — here that includes the extra slot, since the
        // protected page was deliberately left untouched) relocates
        // lazily: the first append moves off the protected page, which is
        // then reported for reclamation.
        let clean = HeapFile::from_pages_with_tail(
            "t2",
            Arc::clone(&pager),
            pages.clone(),
            records + 1,
            Some(tail_slots + 1),
        )
        .unwrap();
        assert!(clean.take_relocated().is_empty(), "no orphans → no eager relocation");
        clean.append(&[7u8; 20]).unwrap();
        assert_eq!(clean.take_relocated(), vec![tail_id]);
        assert_eq!(clean.read_all().unwrap().len(), 9);

        // Sealed reattach (no tail info) keeps the old always-fresh-page
        // behavior.
        let sealed = HeapFile::from_pages("t3", Arc::clone(&pager), pages, records);
        sealed.append(&[9u8; 20]).unwrap();
        assert_eq!(sealed.page_count(), page_count_before + 1);
    }

    #[test]
    fn empty_heap_scans_cleanly() {
        let heap = HeapFile::create("empty", small_pager());
        assert_eq!(heap.read_all().unwrap().len(), 0);
        assert_eq!(heap.record_count(), 0);
    }
}
