//! # RodentStore storage backend
//!
//! Page-based storage substrate for RodentStore: fixed-size [`page::Page`]s,
//! slotted-page record organization, a [`pager::Pager`] with pluggable
//! in-memory or file backing, a validated superblock, and full I/O
//! accounting, shared read-only [`frame::PageFrame`]s, append-oriented
//! [`heap::HeapFile`]s, and a file-backed, checksummed, redo-only
//! [`wal::Wal`] with group commit.
//!
//! Everything above this crate (layout renderers, indexes, access methods)
//! expresses its work in pages so that the system's headline metric — pages
//! read per query, as reported in the paper's Figure 2 — falls directly out
//! of [`stats::IoStats`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod frame;
pub mod heap;
pub mod page;
pub mod pager;
pub mod slotted;
pub mod stats;
pub mod wal;

pub use checksum::{crc32, crc32_extend};
pub use frame::PageFrame;
pub use heap::{HeapFile, RecordId};
pub use page::{Page, PageId, DEFAULT_PAGE_SIZE};
pub use pager::{FileStore, MemStore, PageStore, Pager};
pub use slotted::{SlottedPage, SlottedReader};
pub use stats::{IoSnapshot, IoStats, OpStatsScope};
pub use wal::{LogRecord, Lsn, SyncPolicy, TxId, Wal, WalInstruments};

use std::fmt;

/// Errors produced by the storage backend.
#[derive(Debug)]
pub enum StorageError {
    /// A page id was not found in the backing store.
    PageNotFound(PageId),
    /// A slot was not found within a page.
    SlotNotFound {
        /// Page that was inspected.
        page: PageId,
        /// Missing slot index.
        slot: usize,
    },
    /// A read or write fell outside the page bounds.
    OutOfBounds {
        /// Requested offset.
        offset: usize,
        /// Requested length.
        len: usize,
        /// Size of the page.
        page_size: usize,
    },
    /// A page had no room for the requested insert.
    PageFull {
        /// Bytes needed.
        needed: usize,
        /// Bytes available.
        available: usize,
    },
    /// A record exceeds the maximum size a page can hold.
    RecordTooLarge {
        /// Record length.
        len: usize,
        /// Maximum supported length.
        max: usize,
    },
    /// A page buffer of the wrong size was handed to the store.
    InvalidPageSize {
        /// Expected page size.
        expected: usize,
        /// Size of the buffer provided.
        found: usize,
    },
    /// A file that is not a RodentStore data or log file (bad magic).
    NotRodentStore {
        /// Path of the offending file.
        path: String,
    },
    /// An on-disk format version this build does not understand.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// An underlying filesystem error.
    Io(std::io::Error),
    /// A corrupted or inconsistent on-disk structure was encountered.
    Corrupted(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::PageNotFound(id) => write!(f, "page {id} not found"),
            StorageError::SlotNotFound { page, slot } => {
                write!(f, "slot {slot} not found in page {page}")
            }
            StorageError::OutOfBounds {
                offset,
                len,
                page_size,
            } => write!(
                f,
                "access of {len} bytes at offset {offset} exceeds page size {page_size}"
            ),
            StorageError::PageFull { needed, available } => {
                write!(f, "page full: needed {needed} bytes, {available} available")
            }
            StorageError::RecordTooLarge { len, max } => {
                write!(f, "record of {len} bytes exceeds page capacity {max}")
            }
            StorageError::InvalidPageSize { expected, found } => {
                write!(f, "expected a {expected}-byte page buffer, got {found}")
            }
            StorageError::NotRodentStore { path } => {
                write!(f, "`{path}` is not a RodentStore file (bad magic)")
            }
            StorageError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "on-disk format version {found} is newer than the supported version {supported}"
                )
            }
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::Corrupted(msg) => write!(f, "corrupted storage: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;
