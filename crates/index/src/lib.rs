//! # Index structures for RodentStore
//!
//! The paper scopes index innovation out of RodentStore ("RodentStore will
//! include both B+Trees as well as a variety of geo-spatial indices, but we
//! don't anticipate innovating in this regard"), yet the system — and the
//! case-study evaluation — needs them:
//!
//! * [`BTree`] — a page-backed B+Tree used for key and ordering lookups.
//! * [`RTree`] — a page-backed R-Tree; the paper's Figure 2 uses a secondary
//!   R-Tree over trajectories as the conventional baseline that the
//!   grid/z-order/delta layouts are compared against.
//!
//! Both indexes store one node per page of a shared
//! [`rodentstore_storage::Pager`], so index probes show up in the same I/O
//! statistics (pages read, seeks) as table scans, and the cost model can
//! compare access paths uniformly. A tree is bulk-loaded once and never
//! modified: new rows mean a new tree. Each probe walks the tree once and
//! reports the node pages it read next to what it found, and every walk is
//! bounded by the tree's height and the pager's size, so a damaged page
//! that links back into the tree is an error, not a walk without end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod btree;
pub mod rtree;

pub use bounds::Rect;
pub use btree::BTree;
pub use rtree::RTree;

use rodentstore_storage::pager::Pager;
use rodentstore_storage::StorageError;
use std::fmt;

/// Errors produced by the index structures.
#[derive(Debug)]
pub enum IndexError {
    /// The pager's page size is too small to hold a node.
    PageTooSmall {
        /// Configured page size.
        page_size: usize,
        /// Minimum page size required.
        minimum: usize,
    },
    /// An underlying storage error.
    Storage(StorageError),
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::PageTooSmall { page_size, minimum } => write!(
                f,
                "page size {page_size} is too small for an index node (minimum {minimum})"
            ),
            IndexError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for IndexError {
    fn from(e: StorageError) -> Self {
        IndexError::Storage(e)
    }
}

/// Result alias for index operations.
pub type Result<T> = std::result::Result<T, IndexError>;

/// The type byte (byte 0) of a leaf node page; writers mark internal nodes
/// with [`TYPE_INTERNAL`], and a reader takes any other value as internal.
const TYPE_LEAF: u8 = 0;
const TYPE_INTERNAL: u8 = 1;

/// Whether the index node whose page bytes are `data` is a leaf, and its
/// entries: the entry count is the little-endian `u32` at bytes 1..5, and
/// `count` entries of `entry` bytes each follow from `header` on. A count
/// larger than the page holds is `Corrupted`, caught before anything is
/// allocated for it, and so is an internal node without entries: no writer
/// makes one, and a descent would index past its end.
fn node_entries(
    data: &[u8],
    header: usize,
    entry: usize,
) -> Result<(bool, std::slice::ChunksExact<'_, u8>)> {
    let is_leaf = data.first() == Some(&TYPE_LEAF);
    let count = data
        .get(1..5)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize);
    count
        .filter(|&count| is_leaf || count > 0)
        .and_then(|count| data.get(header..)?.get(..count.checked_mul(entry)?))
        .map(|entries| (is_leaf, entries.chunks_exact(entry)))
        .ok_or_else(|| {
            let msg = format!(
                "index node of {} bytes (leaf: {is_leaf}) claims {count:?} entries",
                data.len()
            );
            StorageError::Corrupted(msg).into()
        })
}

/// The bound on one walk of a tree: no node below the tree's recorded
/// height, and no more node visits than the pager has pages. A well-formed
/// tree never reaches either; a damaged page whose child or next link points
/// back into the tree reaches one of them, and the walk fails as `Corrupted`
/// instead of looping.
struct Walk {
    height: usize,
    pages: u64,
    /// Nodes visited so far: the node pages the walk read.
    visited: usize,
}

impl Walk {
    fn new(pager: &Pager, height: usize) -> Walk {
        Walk {
            height,
            pages: pager.page_count(),
            visited: 0,
        }
    }

    /// Charges the visit of a node at `depth` (the root is at depth 1),
    /// before its page is read.
    fn visit(&mut self, depth: usize) -> Result<()> {
        self.visited += 1;
        if depth > self.height || self.visited as u64 > self.pages {
            let msg = format!(
                "index walk reached depth {depth} of a tree of height {} after {} \
                 node visits in a pager of {} pages: a node links back into the tree",
                self.height, self.visited, self.pages
            );
            return Err(StorageError::Corrupted(msg).into());
        }
        Ok(())
    }
}

/// The little-endian `u64` at byte `at` of `bytes`, which the caller has
/// bounds-checked (a [`node_entries`] entry or a node header).
fn le_u64(bytes: &[u8], at: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(buf)
}

/// Feeds `check` every truncation of the node page `page`, then `flips`
/// copies of it with one seeded bit flipped each (a rewritten entry count
/// among them): what a damaged file can hand a node decoder.
#[cfg(test)]
fn for_each_damaged(page: &[u8], flips: usize, mut check: impl FnMut(&[u8])) {
    for len in 0..page.len() {
        check(&page[..len]);
    }
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..flips {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        // Half the flips land in the header, where the count lives.
        let span = if state & 1 == 0 { 16.min(page.len()) } else { page.len() };
        let bit = (state >> 1) as usize % (span * 8);
        let mut damaged = page.to_vec();
        damaged[bit / 8] ^= 1 << (bit % 8);
        check(&damaged);
    }
}

/// Runs `walk` on a thread of its own and returns its result, failing the
/// calling test if the walk has not finished within a few seconds: a walk
/// that loops fails its test instead of hanging the suite.
#[cfg(test)]
fn finishes<T: Send + 'static>(walk: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(walk()));
    rx.recv_timeout(std::time::Duration::from_secs(5))
        .expect("the walk finishes instead of looping")
}
