//! # RodentStore layout engine — the algebra interpreter
//!
//! This crate is the bridge between the declarative storage algebra
//! (`rodentstore_algebra`) and the page-based storage backend
//! (`rodentstore_storage`). Its job is the one Section 4.2 of the paper
//! assigns to the *algebra interpreter*: translate storage-algebra
//! expressions into on-disk structures, and provide the read paths over
//! those structures.
//!
//! The flow is:
//!
//! 1. [`render::render`] validates an expression against the logical schema,
//!    runs the *record pipeline* (selection, projection, ordering, grouping,
//!    folding, prejoining — the transforms that decide which tuples exist and
//!    in what order), and then places the tuples into the empty layout the
//!    *structural strategy* calls for (rows, column groups, PAX mini-pages,
//!    grid cells ordered along a space-filling curve), writing
//!    [`plan::StoredObject`]s into heap files. [`append::append_records`]
//!    places new rows through the same routine.
//! 2. The resulting [`plan::PhysicalLayout`] exposes scans with projection
//!    and predicates, element access, and page-count estimation. Grid
//!    layouts prune cells whose bounds do not intersect range predicates;
//!    vertically partitioned layouts read only the objects containing
//!    requested fields — the two effects behind the orders-of-magnitude
//!    improvements in the paper's Figure 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod append;
pub mod directory;
pub mod index;
pub mod lsm;
pub mod pipeline;
pub mod plan;
pub mod render;
pub mod rowcodec;
pub mod scan;

pub use aggregate::{WindowAccumulator, WindowRow, WindowedAggregate};
pub use append::{append_records, estimate_append_pages, AppendOutcome};
pub use directory::{ChunkDirectory, ChunkEntry, Fence};
pub use index::{IndexKind, KeyKind, StoredIndex};
pub use lsm::{LsmActivity, LsmRun, LsmState, Memtable};
pub use pipeline::{MemTableProvider, TableProvider};
pub use plan::{
    extract_ranges, has_chunk_directory, CellBounds, ObjectEncoding, PhysicalLayout, StoredObject,
};
pub use rodentstore_compress::CodecKind;
pub use render::{render, RenderOptions};
pub use rowcodec::FieldRef;
pub use scan::{CompiledPredicate, RowTail, ScanIter, ScanPlan};

use rodentstore_algebra::AlgebraError;
use rodentstore_compress::CompressError;
use rodentstore_storage::StorageError;
use std::fmt;

/// Errors produced while rendering or reading physical layouts.
#[derive(Debug)]
pub enum LayoutError {
    /// The storage-algebra expression failed validation or evaluation.
    Algebra(AlgebraError),
    /// The storage backend failed.
    Storage(StorageError),
    /// A compression codec failed.
    Compress(CompressError),
    /// A base table required by the expression was not supplied.
    MissingTable(String),
    /// The layout cannot satisfy the requested operation
    /// (e.g. `get_element` beyond the end of the relation).
    Unsupported(String),
    /// Decoded data did not match the expected shape.
    Corrupted(String),
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::Algebra(e) => write!(f, "algebra error: {e}"),
            LayoutError::Storage(e) => write!(f, "storage error: {e}"),
            LayoutError::Compress(e) => write!(f, "compression error: {e}"),
            LayoutError::MissingTable(t) => write!(f, "no data supplied for table `{t}`"),
            LayoutError::Unsupported(msg) => write!(f, "unsupported operation: {msg}"),
            LayoutError::Corrupted(msg) => write!(f, "corrupted layout: {msg}"),
        }
    }
}

impl std::error::Error for LayoutError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LayoutError::Algebra(e) => Some(e),
            LayoutError::Storage(e) => Some(e),
            LayoutError::Compress(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AlgebraError> for LayoutError {
    fn from(e: AlgebraError) -> Self {
        LayoutError::Algebra(e)
    }
}

impl From<StorageError> for LayoutError {
    fn from(e: StorageError) -> Self {
        LayoutError::Storage(e)
    }
}

impl From<CompressError> for LayoutError {
    fn from(e: CompressError) -> Self {
        LayoutError::Compress(e)
    }
}

impl From<rodentstore_index::IndexError> for LayoutError {
    fn from(e: rodentstore_index::IndexError) -> Self {
        match e {
            rodentstore_index::IndexError::Storage(s) => LayoutError::Storage(s),
            other => LayoutError::Unsupported(other.to_string()),
        }
    }
}

/// Result alias for layout operations.
pub type Result<T> = std::result::Result<T, LayoutError>;
