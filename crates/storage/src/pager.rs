//! The pager: page allocation, reads, and writes over a backing store.
//!
//! A [`Pager`] owns a [`PageStore`] (in-memory or file-backed), allocates
//! pages sequentially, and funnels every access through a shared
//! [`IoStats`] so that higher layers can report pages read and seeks. A read
//! or write is *sequential* when it touches the page immediately following
//! the previously accessed page; anything else counts as a seek, mirroring
//! the simple disk model the paper's cost discussion assumes.
//!
//! File-backed stores start with a *superblock*: one page-sized block
//! holding a magic string, the on-disk format version, and the page size,
//! all guarded by a CRC32. [`FileStore::open`] validates the superblock
//! before touching any data page, so opening a foreign file or reopening
//! with the wrong page size is a typed error instead of garbage reads.

use crate::checksum::crc32;
use crate::frame::PageFrame;
use crate::mmap::Mapping;
use crate::page::{Page, PageId, DEFAULT_PAGE_SIZE};
use crate::stats::{self, IoStats};
use crate::{Result, StorageError};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A backing store able to persist fixed-size pages.
pub trait PageStore: Send + Sync {
    /// Page size in bytes.
    fn page_size(&self) -> usize;
    /// Number of allocated pages.
    fn page_count(&self) -> u64;
    /// Allocates a new zeroed page and returns its id.
    fn allocate(&self) -> Result<PageId>;
    /// Reads the raw contents of a page.
    fn read(&self, id: PageId) -> Result<Vec<u8>>;
    /// Reads a page as a shared immutable [`PageFrame`]. Stores with a
    /// shareable representation (the memory store's `Arc` buffers, the file
    /// store's mmap window) serve the bytes zero-copy; the default
    /// implementation falls back to [`PageStore::read`] and marks the frame
    /// as copied.
    fn read_frame(&self, id: PageId) -> Result<PageFrame> {
        Ok(PageFrame::copied(id, self.read(id)?))
    }
    /// Writes the raw contents of a page.
    fn write(&self, id: PageId, data: &[u8]) -> Result<()>;
    /// Forces written pages to durable storage. No-op for stores without a
    /// durability boundary (e.g. in-memory).
    fn sync(&self) -> Result<()> {
        Ok(())
    }
    /// Discards every page with id `>= page_count`, shrinking the store.
    /// Used on recovery to drop pages written after the last checkpoint.
    fn truncate(&self, page_count: u64) -> Result<()>;
}

/// An in-memory page store. This is the default backing store for tests and
/// benchmarks: the paper's headline metric is pages touched, not wall-clock
/// disk time, so an accounting store is sufficient (and deterministic).
#[derive(Debug)]
pub struct MemStore {
    page_size: usize,
    /// Pages are shared immutable buffers so [`MemStore::read_frame`] is an
    /// `Arc` clone. Writes replace the buffer (copy-on-write) instead of
    /// mutating it, so outstanding frames never change underneath a reader.
    pages: Mutex<Vec<Arc<[u8]>>>,
}

impl MemStore {
    /// Creates an empty in-memory store with the given page size.
    pub fn new(page_size: usize) -> MemStore {
        MemStore {
            page_size,
            pages: Mutex::new(Vec::new()),
        }
    }
}

impl PageStore for MemStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn page_count(&self) -> u64 {
        self.pages.lock().len() as u64
    }

    fn allocate(&self) -> Result<PageId> {
        let mut pages = self.pages.lock();
        pages.push(vec![0u8; self.page_size].into());
        Ok((pages.len() - 1) as PageId)
    }

    fn read(&self, id: PageId) -> Result<Vec<u8>> {
        let pages = self.pages.lock();
        pages
            .get(id as usize)
            .map(|p| p.to_vec())
            .ok_or(StorageError::PageNotFound(id))
    }

    fn read_frame(&self, id: PageId) -> Result<PageFrame> {
        let pages = self.pages.lock();
        pages
            .get(id as usize)
            .map(|p| PageFrame::shared(id, Arc::clone(p)))
            .ok_or(StorageError::PageNotFound(id))
    }

    fn write(&self, id: PageId, data: &[u8]) -> Result<()> {
        if data.len() != self.page_size {
            return Err(StorageError::InvalidPageSize {
                expected: self.page_size,
                found: data.len(),
            });
        }
        let mut pages = self.pages.lock();
        let slot = pages
            .get_mut(id as usize)
            .ok_or(StorageError::PageNotFound(id))?;
        *slot = data.to_vec().into();
        Ok(())
    }

    fn truncate(&self, page_count: u64) -> Result<()> {
        let mut pages = self.pages.lock();
        if (page_count as usize) < pages.len() {
            pages.truncate(page_count as usize);
        }
        Ok(())
    }
}

/// Magic string identifying a RodentStore data file.
pub const SUPERBLOCK_MAGIC: &[u8; 8] = b"RDNTSTR1";
/// Current on-disk format version.
pub const FORMAT_VERSION: u32 = 1;
/// Bytes of the superblock that carry information (magic + version +
/// page size + CRC); the rest of the first page-sized block is reserved.
const SUPERBLOCK_LEN: usize = 20;
/// Smallest page size able to hold the superblock.
pub const MIN_PAGE_SIZE: usize = 64;

fn superblock_bytes(page_size: usize) -> [u8; SUPERBLOCK_LEN] {
    let mut block = [0u8; SUPERBLOCK_LEN];
    block[..8].copy_from_slice(SUPERBLOCK_MAGIC);
    block[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    block[12..16].copy_from_slice(&(page_size as u32).to_le_bytes());
    let crc = crc32(&block[..16]);
    block[16..20].copy_from_slice(&crc.to_le_bytes());
    block
}

/// A file-backed page store: a superblock followed by concatenated pages.
/// Data page `id` lives at byte offset `(id + 1) * page_size` — the first
/// page-sized block is the superblock.
#[derive(Debug)]
pub struct FileStore {
    page_size: usize,
    file: Mutex<File>,
    path: PathBuf,
    page_count: AtomicU64,
    /// Serve [`FileStore::read_frame`] out of an mmap window when possible.
    /// Off by default; enabled by [`FileStore::set_mmap_reads`] (the engine
    /// wires it to `DurabilityOptions::mmap_reads`). Any mapping failure
    /// silently falls back to the copying read path.
    mmap_reads: bool,
    /// Cached read-only mapping of the data file. Grows lazily as the file
    /// grows; invalidated on truncate. Frames clone the `Arc`, so a remap
    /// never pulls bytes out from under an outstanding frame.
    map: Mutex<Option<Arc<Mapping>>>,
}

impl FileStore {
    /// Creates (or truncates) a file-backed store at `path`, writing and
    /// syncing the superblock.
    pub fn create(path: impl AsRef<Path>, page_size: usize) -> Result<FileStore> {
        if page_size < MIN_PAGE_SIZE {
            return Err(StorageError::InvalidPageSize {
                expected: MIN_PAGE_SIZE,
                found: page_size,
            });
        }
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(&path)
            .map_err(StorageError::from)?;
        let mut block = vec![0u8; page_size];
        block[..SUPERBLOCK_LEN].copy_from_slice(&superblock_bytes(page_size));
        file.write_all(&block).map_err(StorageError::from)?;
        file.sync_data().map_err(StorageError::from)?;
        Ok(FileStore {
            page_size,
            file: Mutex::new(file),
            path,
            page_count: AtomicU64::new(0),
            mmap_reads: false,
            map: Mutex::new(None),
        })
    }

    /// Opens an existing store, validating the superblock and reading the
    /// page size from it. Returns [`StorageError::NotRodentStore`] for a
    /// file without the magic, [`StorageError::UnsupportedVersion`] for a
    /// newer format, and [`StorageError::Corrupted`] for a damaged
    /// superblock. The page count is inferred from the file size; a torn
    /// trailing partial page is ignored.
    pub fn open(path: impl AsRef<Path>) -> Result<FileStore> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(StorageError::from)?;
        let mut block = [0u8; SUPERBLOCK_LEN];
        file.read_exact(&mut block).map_err(|_| StorageError::NotRodentStore {
            path: path.display().to_string(),
        })?;
        if &block[..8] != SUPERBLOCK_MAGIC {
            return Err(StorageError::NotRodentStore {
                path: path.display().to_string(),
            });
        }
        let version = u32::from_le_bytes([block[8], block[9], block[10], block[11]]);
        if version != FORMAT_VERSION {
            return Err(StorageError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let mut crc = [0u8; 4];
        crc.copy_from_slice(&block[16..20]);
        if crc32(&block[..16]) != u32::from_le_bytes(crc) {
            return Err(StorageError::Corrupted(format!(
                "superblock checksum mismatch in `{}`",
                path.display()
            )));
        }
        let page_size = u32::from_le_bytes([block[12], block[13], block[14], block[15]]) as usize;
        if page_size < MIN_PAGE_SIZE {
            return Err(StorageError::Corrupted(format!(
                "superblock of `{}` declares page size {page_size}",
                path.display()
            )));
        }
        let len = file.metadata().map_err(StorageError::from)?.len();
        let page_count = (len / page_size as u64).saturating_sub(1);
        Ok(FileStore {
            page_size,
            file: Mutex::new(file),
            path,
            page_count: AtomicU64::new(page_count),
            mmap_reads: false,
            map: Mutex::new(None),
        })
    }

    /// Opens an existing store and additionally checks that its page size
    /// matches `expected_page_size`, returning
    /// [`StorageError::InvalidPageSize`] on mismatch.
    pub fn open_expecting(
        path: impl AsRef<Path>,
        expected_page_size: usize,
    ) -> Result<FileStore> {
        let store = FileStore::open(path)?;
        if store.page_size != expected_page_size {
            return Err(StorageError::InvalidPageSize {
                expected: expected_page_size,
                found: store.page_size,
            });
        }
        Ok(store)
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Enables or disables the mmap-backed frame path. Call before sharing
    /// the store; when off (the default) or when mapping fails, frames are
    /// served by the copying fallback.
    pub fn set_mmap_reads(&mut self, enabled: bool) {
        self.mmap_reads = enabled;
    }

    /// Whether the mmap-backed frame path is enabled.
    pub fn mmap_reads(&self) -> bool {
        self.mmap_reads
    }

    fn offset_of(&self, id: PageId) -> u64 {
        (id + 1) * self.page_size as u64
    }

    /// Tries to serve page `id` out of the cached mapping, remapping when
    /// the file has grown past the mapped window. Returns `Ok(None)` when
    /// the platform or filesystem refuses to map — the caller copies.
    ///
    /// Lock discipline: never holds `map` while taking `file` (truncate
    /// nests the other way around).
    fn mapped_frame(&self, id: PageId) -> Result<Option<PageFrame>> {
        let need = (self.offset_of(id) as usize) + self.page_size;
        let cached = self.map.lock().clone();
        let map = match cached {
            Some(m) if m.len() >= need => m,
            _ => {
                let mapping = {
                    let file = self.file.lock();
                    let len = file.metadata().map_err(StorageError::from)?.len() as usize;
                    if len < need {
                        // A torn trailing page (or a concurrent truncate);
                        // let the copying path produce the proper error.
                        return Ok(None);
                    }
                    match Mapping::of_file(&file, len) {
                        Ok(m) => m,
                        Err(_) => return Ok(None),
                    }
                };
                let m = Arc::new(mapping);
                *self.map.lock() = Some(Arc::clone(&m));
                m
            }
        };
        let offset = self.offset_of(id) as usize;
        Ok(Some(PageFrame::mapped(id, map, offset, self.page_size)))
    }
}

impl PageStore for FileStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn page_count(&self) -> u64 {
        self.page_count.load(Ordering::SeqCst)
    }

    fn allocate(&self) -> Result<PageId> {
        let id = self.page_count.fetch_add(1, Ordering::SeqCst);
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(self.offset_of(id)))
            .map_err(StorageError::from)?;
        file.write_all(&vec![0u8; self.page_size])
            .map_err(StorageError::from)?;
        Ok(id)
    }

    fn read(&self, id: PageId) -> Result<Vec<u8>> {
        if id >= self.page_count() {
            return Err(StorageError::PageNotFound(id));
        }
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(self.offset_of(id)))
            .map_err(StorageError::from)?;
        let mut buf = vec![0u8; self.page_size];
        file.read_exact(&mut buf).map_err(StorageError::from)?;
        Ok(buf)
    }

    fn read_frame(&self, id: PageId) -> Result<PageFrame> {
        if id >= self.page_count() {
            return Err(StorageError::PageNotFound(id));
        }
        if self.mmap_reads {
            if let Some(frame) = self.mapped_frame(id)? {
                return Ok(frame);
            }
        }
        Ok(PageFrame::copied(id, self.read(id)?))
    }

    fn write(&self, id: PageId, data: &[u8]) -> Result<()> {
        if id >= self.page_count() {
            return Err(StorageError::PageNotFound(id));
        }
        if data.len() != self.page_size {
            return Err(StorageError::InvalidPageSize {
                expected: self.page_size,
                found: data.len(),
            });
        }
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(self.offset_of(id)))
            .map_err(StorageError::from)?;
        file.write_all(data).map_err(StorageError::from)?;
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.file.lock().sync_data().map_err(StorageError::from)
    }

    fn truncate(&self, page_count: u64) -> Result<()> {
        let file = self.file.lock();
        let current = self.page_count.load(Ordering::SeqCst);
        if page_count >= current {
            return Ok(());
        }
        file.set_len((page_count + 1) * self.page_size as u64)
            .map_err(StorageError::from)?;
        self.page_count.store(page_count, Ordering::SeqCst);
        // Drop the cached mapping: its window may extend past the new file
        // end. Outstanding frames keep their own `Arc<Mapping>` alive, and
        // every page they can reference survives the truncation (only
        // quarantined, reader-free pages are ever cut), so their byte ranges
        // stay within the file.
        *self.map.lock() = None;
        Ok(())
    }
}

/// The pager: sequential page allocation plus instrumented reads/writes.
///
/// Pages freed by `drop_table` or superseded layout renders are kept on a
/// **free list** and handed back out by [`Pager::allocate`] before the
/// backing store is grown, so re-rendering a table does not leak its old
/// extent. A reused page's on-store contents are stale until the caller
/// writes it — exactly like a freshly allocated page, whose in-memory image
/// is zeroed but whose store bytes are unspecified until written.
pub struct Pager {
    store: Arc<dyn PageStore>,
    stats: Arc<IoStats>,
    last_read: AtomicU64,
    last_write: AtomicU64,
    free: Mutex<std::collections::BTreeSet<PageId>>,
    /// When set, [`Pager::read_frame`] copies page bytes even from stores
    /// that could share them — the legacy read path kept as a runtime
    /// fallback and as the baseline side of frame-vs-copy A/B benchmarks.
    force_copy: AtomicBool,
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pager")
            .field("page_size", &self.page_size())
            .field("page_count", &self.page_count())
            .finish()
    }
}

impl Pager {
    /// Creates a pager over an in-memory store with the default page size.
    pub fn in_memory() -> Pager {
        Pager::with_store(Arc::new(MemStore::new(DEFAULT_PAGE_SIZE)))
    }

    /// Creates a pager over an in-memory store with a custom page size.
    pub fn in_memory_with_page_size(page_size: usize) -> Pager {
        Pager::with_store(Arc::new(MemStore::new(page_size)))
    }

    /// Creates a pager over an arbitrary backing store.
    pub fn with_store(store: Arc<dyn PageStore>) -> Pager {
        Pager {
            store,
            stats: IoStats::new_shared(),
            last_read: AtomicU64::new(u64::MAX),
            last_write: AtomicU64::new(u64::MAX),
            free: Mutex::new(std::collections::BTreeSet::new()),
            force_copy: AtomicBool::new(false),
        }
    }

    /// Forces [`Pager::read_frame`] onto the copying path (`true`) or
    /// restores zero-copy frames (`false`, the default).
    pub fn set_force_copy(&self, on: bool) {
        self.force_copy.store(on, Ordering::Relaxed);
    }

    /// Whether frame reads are currently forced onto the copying path.
    pub fn force_copy(&self) -> bool {
        self.force_copy.load(Ordering::Relaxed)
    }

    /// The shared I/O statistics of this pager.
    pub fn stats(&self) -> Arc<IoStats> {
        Arc::clone(&self.stats)
    }

    /// Page size of the backing store.
    pub fn page_size(&self) -> usize {
        self.store.page_size()
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> u64 {
        self.store.page_count()
    }

    /// Forces the backing store to durable storage (no-op in memory).
    pub fn sync(&self) -> Result<()> {
        self.store.sync()
    }

    /// Shrinks the backing store to `page_count` pages, discarding the rest
    /// (free-list entries beyond the new end are dropped too).
    pub fn truncate_pages(&self, page_count: u64) -> Result<()> {
        self.store.truncate(page_count)?;
        self.free.lock().retain(|&id| id < page_count);
        Ok(())
    }

    /// Allocates a zeroed page, reusing a freed page when one is available
    /// and growing the backing store otherwise.
    pub fn allocate(&self) -> Result<Page> {
        if let Some(id) = self.free.lock().pop_first() {
            return Ok(Page::zeroed(id, self.page_size()));
        }
        let id = self.store.allocate()?;
        Ok(Page::zeroed(id, self.page_size()))
    }

    /// Takes the lowest free page if its id is below `limit`; never grows
    /// the backing store. For compaction: a page is only worth moving to a
    /// lower id.
    pub fn allocate_below(&self, limit: PageId) -> Option<Page> {
        let mut free = self.free.lock();
        let id = free.first().copied().filter(|&id| id < limit)?;
        free.remove(&id);
        Some(Page::zeroed(id, self.page_size()))
    }

    /// Returns pages to the free list for reuse by later [`Pager::allocate`]
    /// calls. The caller asserts nothing references them anymore; ids beyond
    /// the current store size are ignored.
    pub fn free_pages(&self, ids: impl IntoIterator<Item = PageId>) {
        let count = self.store.page_count();
        let mut free = self.free.lock();
        for id in ids {
            if id < count {
                free.insert(id);
            }
        }
    }

    /// Number of pages currently on the free list.
    pub fn free_page_count(&self) -> usize {
        self.free.lock().len()
    }

    /// Snapshot of the free list, ascending (persisted by checkpoints).
    pub fn free_list(&self) -> Vec<PageId> {
        self.free.lock().iter().copied().collect()
    }

    /// Replaces the free list wholesale (the recovery path: the checkpoint
    /// manifest is authoritative for which pages were free).
    pub fn restore_free_list(&self, ids: impl IntoIterator<Item = PageId>) {
        let count = self.store.page_count();
        let mut free = self.free.lock();
        free.clear();
        free.extend(ids.into_iter().filter(|&id| id < count));
    }

    /// Reads a page, recording the access in the I/O statistics. The bytes
    /// are always copied out of the store; prefer [`Pager::read_frame`] on
    /// read-only paths.
    pub fn read(&self, id: PageId) -> Result<Page> {
        let data = self.store.read(id)?;
        self.record_read_at(id, data.len(), true);
        Ok(Page { id, data })
    }

    /// Reads a page as a shared immutable [`PageFrame`], recording the
    /// access in the I/O statistics exactly like [`Pager::read`] (same page,
    /// byte, and seek accounting — the two paths are indistinguishable to
    /// pages-per-query measurements). Zero-copy unless the store cannot
    /// share its bytes or [`Pager::set_force_copy`] is on.
    pub fn read_frame(&self, id: PageId) -> Result<PageFrame> {
        let frame = if self.force_copy.load(Ordering::Relaxed) {
            PageFrame::copied(id, self.store.read(id)?)
        } else {
            self.store.read_frame(id)?
        };
        self.record_read_at(id, frame.len(), frame.is_copied());
        Ok(frame)
    }

    fn record_read_at(&self, id: PageId, bytes: usize, copied: bool) {
        let prev = self.last_read.swap(id, Ordering::Relaxed);
        let sequential = prev != u64::MAX && id == prev.wrapping_add(1);
        self.stats.record_read(bytes, sequential);
        self.stats.record_frame(copied);
        stats::with_op_stats(|op| {
            op.record_read(bytes, sequential);
            op.record_frame(copied);
        });
    }

    /// Records that a reader finished with one column chunk stored on this
    /// pager's pages, having skipped the decode of `skipped` needed blocks —
    /// attributed to the shared and per-operation statistics like a read.
    pub fn record_chunk(&self, skipped: u64) {
        self.stats.record_chunk(skipped);
        stats::with_op_stats(|op| op.record_chunk(skipped));
    }

    /// Writes a page back, recording the access in the I/O statistics.
    pub fn write(&self, page: &Page) -> Result<()> {
        self.write_raw(page.id, &page.data)
    }

    /// Writes raw page bytes back (the frame-based buffer pool's write-back
    /// path, which has no `Page` to hand), with the same accounting as
    /// [`Pager::write`].
    pub fn write_raw(&self, id: PageId, data: &[u8]) -> Result<()> {
        self.store.write(id, data)?;
        let prev = self.last_write.swap(id, Ordering::Relaxed);
        let sequential = prev != u64::MAX && id == prev.wrapping_add(1);
        self.stats.record_write(data.len(), sequential);
        stats::with_op_stats(|op| op.record_write(data.len(), sequential));
        Ok(())
    }

    /// Convenience: allocate a page, fill it with `init`, and write it out.
    pub fn allocate_with(&self, init: impl FnOnce(&mut Page) -> Result<()>) -> Result<PageId> {
        let mut page = self.allocate()?;
        init(&mut page)?;
        self.write(&page)?;
        Ok(page.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memstore_allocate_read_write() {
        let pager = Pager::in_memory_with_page_size(128);
        let mut p = pager.allocate().unwrap();
        p.write_bytes(0, b"rodent").unwrap();
        pager.write(&p).unwrap();
        let back = pager.read(p.id).unwrap();
        assert_eq!(back.read_bytes(0, 6).unwrap(), b"rodent");
        assert_eq!(pager.page_count(), 1);
    }

    #[test]
    fn sequential_reads_do_not_count_as_seeks() {
        let pager = Pager::in_memory_with_page_size(64);
        for _ in 0..4 {
            let p = pager.allocate().unwrap();
            pager.write(&p).unwrap();
        }
        pager.stats().reset();
        // Read 0,1,2,3 sequentially: first read seeks, rest do not.
        for id in 0..4 {
            pager.read(id).unwrap();
        }
        let snap = pager.stats().snapshot();
        assert_eq!(snap.pages_read, 4);
        assert_eq!(snap.seeks, 1);

        // Random order causes seeks.
        pager.stats().reset();
        for id in [3u64, 0, 2] {
            pager.read(id).unwrap();
        }
        assert_eq!(pager.stats().snapshot().seeks, 3);
    }

    #[test]
    fn missing_page_is_an_error() {
        let pager = Pager::in_memory_with_page_size(64);
        assert!(matches!(
            pager.read(42),
            Err(StorageError::PageNotFound(42))
        ));
    }

    #[test]
    fn wrong_page_size_rejected() {
        let store = MemStore::new(64);
        let id = store.allocate().unwrap();
        assert!(matches!(
            store.write(id, &[0u8; 65]),
            Err(StorageError::InvalidPageSize { .. })
        ));
    }

    fn temp_store_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "rodentstore-pager-test-{}-{tag}.db",
            std::process::id()
        ))
    }

    #[test]
    fn file_store_round_trip() {
        let path = temp_store_path("roundtrip");
        {
            let store = FileStore::create(&path, 256).unwrap();
            let pager = Pager::with_store(Arc::new(store));
            let mut p = pager.allocate().unwrap();
            p.write_bytes(0, b"persisted").unwrap();
            pager.write(&p).unwrap();
            let q = pager.allocate().unwrap();
            pager.write(&q).unwrap();
        }
        {
            // The page size is recovered from the superblock.
            let store = FileStore::open(&path).unwrap();
            assert_eq!(store.page_size(), 256);
            assert_eq!(store.page_count(), 2);
            let pager = Pager::with_store(Arc::new(store));
            let p = pager.read(0).unwrap();
            assert_eq!(p.read_bytes(0, 9).unwrap(), b"persisted");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_files_are_rejected_with_a_typed_error() {
        let path = temp_store_path("foreign");
        std::fs::write(&path, b"definitely not a rodentstore data file").unwrap();
        assert!(matches!(
            FileStore::open(&path),
            Err(StorageError::NotRodentStore { .. })
        ));
        // Too short for a superblock entirely.
        std::fs::write(&path, b"hi").unwrap();
        assert!(matches!(
            FileStore::open(&path),
            Err(StorageError::NotRodentStore { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn page_size_mismatch_is_a_typed_error() {
        let path = temp_store_path("mismatch");
        {
            FileStore::create(&path, 256).unwrap();
        }
        assert!(matches!(
            FileStore::open_expecting(&path, 512),
            Err(StorageError::InvalidPageSize {
                expected: 512,
                found: 256,
            })
        ));
        assert!(FileStore::open_expecting(&path, 256).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_superblock_is_detected() {
        let path = temp_store_path("corrupt-super");
        {
            let store = FileStore::create(&path, 128).unwrap();
            store.allocate().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[13] ^= 0xFF; // flip a bit inside the page-size field
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileStore::open(&path),
            Err(StorageError::Corrupted(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn future_format_versions_are_rejected() {
        let path = temp_store_path("version");
        {
            FileStore::create(&path, 128).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let crc = crc32(&bytes[..16]);
        bytes[16..20].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileStore::open(&path),
            Err(StorageError::UnsupportedVersion {
                found: 99,
                supported: FORMAT_VERSION,
            })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncate_discards_tail_pages() {
        let path = temp_store_path("truncate");
        let store = Arc::new(FileStore::create(&path, 128).unwrap());
        let pager = Pager::with_store(Arc::clone(&store) as Arc<dyn PageStore>);
        for i in 0..5u8 {
            let mut p = pager.allocate().unwrap();
            p.write_bytes(0, &[i; 4]).unwrap();
            pager.write(&p).unwrap();
        }
        pager.truncate_pages(2).unwrap();
        assert_eq!(pager.page_count(), 2);
        assert!(pager.read(2).is_err());
        assert_eq!(pager.read(1).unwrap().read_bytes(0, 4).unwrap(), &[1u8; 4]);
        // New allocations reuse the truncated range.
        let p = pager.allocate().unwrap();
        assert_eq!(p.id, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tiny_page_sizes_are_rejected() {
        let path = temp_store_path("tiny");
        assert!(matches!(
            FileStore::create(&path, 16),
            Err(StorageError::InvalidPageSize { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn freed_pages_are_reused_before_growing_the_store() {
        let pager = Pager::in_memory_with_page_size(64);
        let ids: Vec<PageId> = (0..5).map(|_| pager.allocate().unwrap().id).collect();
        assert_eq!(pager.page_count(), 5);
        pager.free_pages([ids[1], ids[3]]);
        assert_eq!(pager.free_page_count(), 2);
        assert_eq!(pager.free_list(), vec![1, 3]);
        // Lowest freed id first, then the other, then the store grows.
        assert_eq!(pager.allocate().unwrap().id, 1);
        assert_eq!(pager.allocate().unwrap().id, 3);
        assert_eq!(pager.allocate().unwrap().id, 5);
        assert_eq!(pager.page_count(), 6);
        assert_eq!(pager.free_page_count(), 0);
        // `allocate_below` only hands out a free page under the limit and
        // never grows the store.
        pager.free_pages([2, 4]);
        assert!(pager.allocate_below(2).is_none());
        assert_eq!(pager.allocate_below(3).map(|p| p.id), Some(2));
        assert!(
            pager.allocate_below(4).is_none(),
            "4 is free but not below 4"
        );
        assert_eq!(pager.page_count(), 6);
    }

    #[test]
    fn free_list_survives_restore_and_respects_truncation() {
        let pager = Pager::in_memory_with_page_size(64);
        for _ in 0..6 {
            pager.allocate().unwrap();
        }
        pager.restore_free_list([2, 4, 5, 99]); // 99 is out of range → dropped
        assert_eq!(pager.free_list(), vec![2, 4, 5]);
        pager.truncate_pages(5).unwrap(); // drops page 5 and its free entry
        assert_eq!(pager.free_list(), vec![2, 4]);
        // Out-of-range ids handed to free_pages are ignored as well.
        pager.free_pages([77]);
        assert_eq!(pager.free_page_count(), 2);
    }

    #[test]
    fn read_frame_matches_read_and_counts_identically() {
        let pager = Pager::in_memory_with_page_size(64);
        for i in 0..4u8 {
            let mut p = pager.allocate().unwrap();
            p.write_bytes(0, &[i; 8]).unwrap();
            pager.write(&p).unwrap();
        }
        pager.stats().reset();
        for id in 0..4 {
            let frame = pager.read_frame(id).unwrap();
            assert_eq!(frame.id(), id);
            assert!(!frame.is_copied(), "memory store shares its buffers");
            assert_eq!(frame.data(), pager.read(id).unwrap().data.as_slice());
        }
        let snap = pager.stats().snapshot();
        // 4 frame reads + 4 legacy reads, interleaved pairwise on the same
        // page: every re-read of the same id is a seek, ids advance by one
        // after a repeat (also a seek) — identical to 8 legacy reads in the
        // same order.
        assert_eq!(snap.pages_read, 8);
        assert_eq!(snap.frame_hits, 4);
        assert_eq!(snap.frame_copies, 4);
    }

    #[test]
    fn force_copy_falls_back_to_copied_frames() {
        let pager = Pager::in_memory_with_page_size(64);
        let p = pager.allocate().unwrap();
        pager.write(&p).unwrap();
        assert!(!pager.read_frame(p.id).unwrap().is_copied());
        pager.set_force_copy(true);
        assert!(pager.force_copy());
        assert!(pager.read_frame(p.id).unwrap().is_copied());
        pager.set_force_copy(false);
        assert!(!pager.read_frame(p.id).unwrap().is_copied());
    }

    #[test]
    fn mem_store_frames_are_stable_across_writes() {
        let pager = Pager::in_memory_with_page_size(64);
        let mut p = pager.allocate().unwrap();
        p.write_bytes(0, b"before").unwrap();
        pager.write(&p).unwrap();
        let frame = pager.read_frame(p.id).unwrap();
        p.write_bytes(0, b"after!").unwrap();
        pager.write(&p).unwrap();
        // Copy-on-write: the old frame still sees the old bytes.
        assert_eq!(frame.data()[..6], *b"before");
        assert_eq!(pager.read_frame(p.id).unwrap().data()[..6], *b"after!");
    }

    #[test]
    fn file_store_mmap_frames_round_trip() {
        let path = temp_store_path("mmap-frames");
        let mut store = FileStore::create(&path, 128).unwrap();
        store.set_mmap_reads(true);
        assert!(store.mmap_reads());
        let pager = Pager::with_store(Arc::new(store));
        let mut ids = Vec::new();
        for i in 0..3u8 {
            let mut p = pager.allocate().unwrap();
            p.write_bytes(0, &[i; 16]).unwrap();
            pager.write(&p).unwrap();
            ids.push(p.id);
        }
        for (i, &id) in ids.iter().enumerate() {
            let frame = pager.read_frame(id).unwrap();
            assert_eq!(frame.len(), 128);
            assert_eq!(&frame.data()[..16], &[i as u8; 16]);
            if crate::mmap::mmap_supported() {
                assert!(!frame.is_copied(), "mmap path serves zero-copy frames");
            }
            assert_eq!(frame.data(), pager.read(id).unwrap().data.as_slice());
        }
        // Growth past the mapped window remaps transparently.
        let mut extra = pager.allocate().unwrap();
        extra.write_bytes(0, b"grown").unwrap();
        pager.write(&extra).unwrap();
        assert_eq!(&pager.read_frame(extra.id).unwrap().data()[..5], b"grown");
        // Frames taken before a truncate stay readable; truncated pages
        // are refused.
        let held = pager.read_frame(ids[0]).unwrap();
        pager.truncate_pages(2).unwrap();
        assert_eq!(&held.data()[..16], &[0u8; 16]);
        assert!(pager.read_frame(3).is_err());
        assert_eq!(&pager.read_frame(1).unwrap().data()[..16], &[1u8; 16]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn op_scope_sees_only_this_pagers_thread_io() {
        let pager = Pager::in_memory_with_page_size(64);
        for _ in 0..3 {
            let p = pager.allocate().unwrap();
            pager.write(&p).unwrap();
        }
        let before = pager.stats().snapshot();
        let scope = crate::stats::OpStatsScope::enter();
        pager.read(0).unwrap();
        pager.read_frame(1).unwrap();
        let op = scope.stats().snapshot();
        drop(scope);
        pager.read(2).unwrap();
        assert_eq!(op.pages_read, 2);
        assert_eq!(op.frame_hits, 1);
        assert_eq!(op.frame_copies, 1);
        let delta = pager.stats().snapshot().since(&before);
        assert_eq!(delta.pages_read, 3, "global counters keep everything");
    }

    #[test]
    fn allocate_with_initializer() {
        let pager = Pager::in_memory_with_page_size(64);
        let id = pager
            .allocate_with(|p| p.write_bytes(0, b"init"))
            .unwrap();
        assert_eq!(pager.read(id).unwrap().read_bytes(0, 4).unwrap(), b"init");
    }
}
