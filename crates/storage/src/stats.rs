//! I/O accounting.
//!
//! Every page read, page write, and seek performed by the storage backend is
//! counted in an [`IoStats`] instance. The counters are the substrate for
//! two user-visible features of RodentStore:
//!
//! * the access-method cost functions (`scan_cost`, `get_element_cost`)
//!   exposed to the query optimizer, which the paper specifies should "count
//!   bytes of I/O as well as disk seeks"; and
//! * the evaluation harness reproducing the paper's Figure 2, whose headline
//!   metric is *pages read per query*.
//!
//! Counters are atomic so a single `IoStats` can be shared (via `Arc`)
//! between the pager, per-operation scopes, and measurement code without locking.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Atomic I/O counters shared across the storage stack.
#[derive(Debug, Default)]
pub struct IoStats {
    pages_read: AtomicU64,
    pages_written: AtomicU64,
    seeks: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    frame_hits: AtomicU64,
    frame_copies: AtomicU64,
    chunks: AtomicU64,
    blocks_skipped: AtomicU64,
    chunks_pruned: AtomicU64,
}

/// A point-in-time copy of the counters; two snapshots can be subtracted to
/// measure the cost of an individual operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Number of pages fetched from the backing store.
    pub pages_read: u64,
    /// Number of pages written to the backing store.
    pub pages_written: u64,
    /// Number of non-sequential page accesses (disk seeks).
    pub seeks: u64,
    /// Bytes fetched from the backing store.
    pub bytes_read: u64,
    /// Bytes written to the backing store.
    pub bytes_written: u64,
    /// Page accesses served as shared frames without copying the bytes.
    pub frame_hits: u64,
    /// Page accesses that copied the page bytes out of the store.
    pub frame_copies: u64,
    /// Column chunks a reader walked past (decoded or not).
    pub chunks: u64,
    /// Needed column blocks of those chunks that were never decoded because
    /// no row of the chunk survived the predicate.
    pub blocks_skipped: u64,
    /// Column chunks a scan passed over without reading them because their
    /// fences rule out every row its predicate asks for; counted as the scan
    /// passes them, so a scan stopped early counts none beyond where it
    /// stopped.
    pub chunks_pruned: u64,
}

impl IoSnapshot {
    /// Counter-wise difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            pages_read: self.pages_read.saturating_sub(earlier.pages_read),
            pages_written: self.pages_written.saturating_sub(earlier.pages_written),
            seeks: self.seeks.saturating_sub(earlier.seeks),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            frame_hits: self.frame_hits.saturating_sub(earlier.frame_hits),
            frame_copies: self.frame_copies.saturating_sub(earlier.frame_copies),
            chunks: self.chunks.saturating_sub(earlier.chunks),
            blocks_skipped: self.blocks_skipped.saturating_sub(earlier.blocks_skipped),
            chunks_pruned: self.chunks_pruned.saturating_sub(earlier.chunks_pruned),
        }
    }

    /// Estimated elapsed time in milliseconds under a simple disk model:
    /// each seek costs `seek_ms` and each byte transfers at
    /// `transfer_mb_per_s`.
    pub fn estimated_millis(&self, seek_ms: f64, transfer_mb_per_s: f64) -> f64 {
        let transfer_bytes = (self.bytes_read + self.bytes_written) as f64;
        let transfer_ms = transfer_bytes / (transfer_mb_per_s * 1024.0 * 1024.0) * 1000.0;
        self.seeks as f64 * seek_ms + transfer_ms
    }
}

impl IoStats {
    /// Creates a fresh, zeroed counter set behind an `Arc`.
    pub fn new_shared() -> Arc<IoStats> {
        Arc::new(IoStats::default())
    }

    /// Records a page read of `bytes` bytes; `sequential` indicates whether
    /// the access directly follows the previously read page.
    pub fn record_read(&self, bytes: usize, sequential: bool) {
        self.pages_read.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
        if !sequential {
            self.seeks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a page write of `bytes` bytes.
    pub fn record_write(&self, bytes: usize, sequential: bool) {
        self.pages_written.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes as u64, Ordering::Relaxed);
        if !sequential {
            self.seeks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a page access served as a frame; `copied` distinguishes a
    /// page copied out of the store from a zero-copy shared frame.
    pub fn record_frame(&self, copied: bool) {
        if copied {
            self.frame_copies.fetch_add(1, Ordering::Relaxed);
        } else {
            self.frame_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one column chunk a reader finished with, `skipped` of whose
    /// needed blocks it never had to decode.
    pub fn record_chunk(&self, skipped: u64) {
        self.chunks.fetch_add(1, Ordering::Relaxed);
        self.blocks_skipped.fetch_add(skipped, Ordering::Relaxed);
    }

    /// Records `pruned` column chunks a scan skipped by their fences.
    pub fn record_pruned(&self, pruned: u64) {
        self.chunks_pruned.fetch_add(pruned, Ordering::Relaxed);
    }

    /// Takes a snapshot of the current counter values.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            pages_read: self.pages_read.load(Ordering::Relaxed),
            pages_written: self.pages_written.load(Ordering::Relaxed),
            seeks: self.seeks.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            frame_hits: self.frame_hits.load(Ordering::Relaxed),
            frame_copies: self.frame_copies.load(Ordering::Relaxed),
            chunks: self.chunks.load(Ordering::Relaxed),
            blocks_skipped: self.blocks_skipped.load(Ordering::Relaxed),
            chunks_pruned: self.chunks_pruned.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.pages_read.store(0, Ordering::Relaxed);
        self.pages_written.store(0, Ordering::Relaxed);
        self.seeks.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.frame_hits.store(0, Ordering::Relaxed);
        self.frame_copies.store(0, Ordering::Relaxed);
        self.chunks.store(0, Ordering::Relaxed);
        self.blocks_skipped.store(0, Ordering::Relaxed);
        self.chunks_pruned.store(0, Ordering::Relaxed);
    }

    /// Total pages read so far.
    pub fn pages_read(&self) -> u64 {
        self.pages_read.load(Ordering::Relaxed)
    }

    /// Total pages written so far.
    pub fn pages_written(&self) -> u64 {
        self.pages_written.load(Ordering::Relaxed)
    }

    /// Total seeks so far.
    pub fn seeks(&self) -> u64 {
        self.seeks.load(Ordering::Relaxed)
    }
}

thread_local! {
    /// Stack of per-operation counter sets for the current thread. The pager
    /// mirrors every access into each entry, so a scope sees exactly the I/O
    /// performed by its own thread while it is alive.
    static OP_STACK: RefCell<Vec<Arc<IoStats>>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard attributing this thread's I/O to a private counter set.
///
/// While the guard is alive, every page access the current thread performs
/// through a [`crate::pager::Pager`] is recorded into [`OpStatsScope::stats`]
/// *in addition to* the pager's shared counters. Concurrent threads never
/// bleed into the scope, which makes per-scan attribution (the
/// `calibration.<table>.*` metrics) exact under load — unlike diffing the
/// pager's global counters around the operation.
///
/// Scopes nest: an inner scope's I/O is also visible to enclosing scopes.
/// One caveat carries over from the global counters: *seek* detection
/// compares against the pager's process-wide last-read page, so the scope's
/// `seeks` count is exact only when no other thread interleaves reads on the
/// same pager. Page and byte counts are always exact.
pub struct OpStatsScope {
    stats: Arc<IoStats>,
    // Dropping on a different thread would pop the wrong thread's stack;
    // keep the guard thread-local by construction.
    _not_send: PhantomData<*const ()>,
}

impl OpStatsScope {
    /// Pushes a fresh, zeroed counter set for the current thread.
    pub fn enter() -> OpStatsScope {
        let stats = IoStats::new_shared();
        OP_STACK.with(|stack| stack.borrow_mut().push(Arc::clone(&stats)));
        OpStatsScope {
            stats,
            _not_send: PhantomData,
        }
    }

    /// The counters accumulated by this scope so far.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }
}

impl Drop for OpStatsScope {
    fn drop(&mut self) {
        OP_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|s| Arc::ptr_eq(s, &self.stats)) {
                stack.remove(pos);
            }
        });
    }
}

/// Applies `record` to every active per-operation scope on this thread.
/// Called by the pager next to each update of its shared counters.
pub(crate) fn with_op_stats(record: impl Fn(&IoStats)) {
    OP_STACK.with(|stack| {
        for stats in stack.borrow().iter() {
            record(stats);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_writes_and_seeks_are_counted() {
        let stats = IoStats::default();
        stats.record_read(4096, true);
        stats.record_read(4096, false);
        stats.record_write(4096, false);
        let s = stats.snapshot();
        assert_eq!(s.pages_read, 2);
        assert_eq!(s.pages_written, 1);
        assert_eq!(s.seeks, 2);
        assert_eq!(s.bytes_read, 8192);
        assert_eq!(s.bytes_written, 4096);
    }

    #[test]
    fn snapshot_difference() {
        let stats = IoStats::default();
        stats.record_read(100, false);
        let before = stats.snapshot();
        stats.record_read(100, true);
        stats.record_read(100, true);
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.pages_read, 2);
        assert_eq!(delta.seeks, 0);
    }

    #[test]
    fn reset_zeroes_counters() {
        let stats = IoStats::default();
        stats.record_read(10, false);
        stats.record_frame(true);
        stats.reset();
        assert_eq!(stats.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn estimated_millis_uses_seeks_and_bytes() {
        let snap = IoSnapshot {
            pages_read: 10,
            seeks: 5,
            bytes_read: 10 * 1024 * 1024,
            ..Default::default()
        };
        // 5 seeks * 10ms + 10MB at 100MB/s = 50ms + 100ms
        let ms = snap.estimated_millis(10.0, 100.0);
        assert!((ms - 150.0).abs() < 1e-6);
    }

    #[test]
    fn frame_counters_split_hits_and_copies() {
        let stats = IoStats::default();
        stats.record_frame(false);
        stats.record_frame(false);
        stats.record_frame(true);
        let s = stats.snapshot();
        assert_eq!(s.frame_hits, 2);
        assert_eq!(s.frame_copies, 1);
    }

    #[test]
    fn op_scopes_nest_and_stay_thread_local() {
        let outer = OpStatsScope::enter();
        with_op_stats(|s| s.record_read(10, false));
        {
            let inner = OpStatsScope::enter();
            with_op_stats(|s| s.record_read(10, true));
            assert_eq!(inner.stats().snapshot().pages_read, 1);
        }
        with_op_stats(|s| s.record_read(10, true));
        assert_eq!(outer.stats().snapshot().pages_read, 3);

        // A scope on another thread never sees this thread's I/O.
        let handle = std::thread::spawn(|| {
            let scope = OpStatsScope::enter();
            with_op_stats(|s| s.record_read(7, false));
            scope.stats().snapshot().pages_read
        });
        with_op_stats(|s| s.record_read(10, true));
        assert_eq!(handle.join().unwrap(), 1);
        assert_eq!(outer.stats().snapshot().pages_read, 4);
    }
}
