//! # RodentStore — an adaptive, declarative storage system
//!
//! RodentStore is a storage system in which the physical representation of a
//! logical table is described declaratively with a *storage algebra*:
//! expressions such as `zorder(grid[lat,lon; 0.002,0.002](project[lat,lon](Traces)))`
//! tell the system how to group tuples into rows, columns, arrays and grid
//! cells, in which order to place them on disk, and which compression schemes
//! to apply. An algebra interpreter renders expressions into page-based
//! storage; a small access-method API (`scan`, `get_element`, `next`,
//! `scan_cost`, `get_element_cost`, `order_list`) exposes the data to any
//! front end; and a cost-based design advisor recommends layouts for a given
//! workload.
//!
//! This crate is the user-facing façade tying the subsystems together:
//!
//! * [`Database`] — create tables, load data, apply or change layouts
//!   (eagerly, lazily, or only for new data), and run queries; in-memory
//!   ([`Database::in_memory`]) or durable ([`Database::create`] /
//!   [`Database::open`], with write-ahead logging, checkpoints, and crash
//!   recovery);
//! * [`CatalogView`] — a lock-free, point-in-time view of the table/layout
//!   metadata (per-table [`TableState`]s published through atomic snapshot
//!   swaps — see [`catalog`]);
//! * [`durability`] — the on-disk manifest and logical WAL operations;
//! * [`reorg`] — the reorganization strategies of Section 5 of the paper.
//!
//! ```
//! use rodentstore::{Database, ScanRequest, Condition};
//! use rodentstore_workload::{generate_traces, traces_schema, CartelConfig};
//!
//! let mut db = Database::in_memory();
//! db.create_table(traces_schema()).unwrap();
//! db.insert("Traces", generate_traces(&CartelConfig {
//!     observations: 2_000, vehicles: 10, ..CartelConfig::default()
//! })).unwrap();
//!
//! // Declare the case-study layout N3: grid the coordinates.
//! db.apply_layout_text("Traces", "grid[lat,lon;0.02,0.02](project[lat,lon](Traces))")
//!     .unwrap();
//!
//! let rows = db.scan("Traces", &ScanRequest::all()
//!     .predicate(Condition::range("lat", 42.30, 42.35))).unwrap();
//! assert!(rows.iter().all(|r| (42.30..=42.35).contains(&r[0].as_f64().unwrap())));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod database;
pub mod durability;
pub mod monitor;
pub mod observe;
pub mod reorg;

#[doc = include_str!("../../../docs/LAYOUT_ALGEBRA.md")]
/// (Operator reference, doc-tested — the module exists to carry the
/// documentation; see `docs/LAYOUT_ALGEBRA.md` in the repository.)
pub mod layout_algebra {}

pub use catalog::{CatalogView, LayoutStats, Rows, TableState};
pub use database::{
    AccessPath, AdaptOutcome, AdaptivePolicy, Database, Explain, TableSnapshot,
};
pub use durability::DurabilityOptions;
pub use monitor::{QueryTemplate, WorkloadProfile};
pub use observe::metric_names;
pub use reorg::ReorgStrategy;

// Re-export the pieces users need to drive the system without importing
// every sub-crate explicitly.
pub use rodentstore_algebra::{parse, Condition, DataType, Field, LayoutExpr, Schema, Value};
pub use rodentstore_exec::{
    AccessMethods, CostParams, Cursor, ScanRequest, WindowAccumulator, WindowRow,
    WindowedAggregate,
};
pub use rodentstore_layout::{PhysicalLayout, RenderOptions};
pub use rodentstore_obs::{
    CostedAlternative, Event, EventKind, HistogramSummary, MetricsSnapshot,
};
pub use rodentstore_optimizer::{advise, AdvisorOptions, Recommendation, Workload};
pub use rodentstore_storage::{IoSnapshot, IoStats, SyncPolicy};

use std::fmt;

/// Errors surfaced by the RodentStore façade.
#[derive(Debug)]
pub enum RodentError {
    /// Algebra parsing or validation failed.
    Algebra(rodentstore_algebra::AlgebraError),
    /// Rendering or reading a layout failed.
    Layout(rodentstore_layout::LayoutError),
    /// The access-method layer rejected a request.
    Exec(rodentstore_exec::ExecError),
    /// The design advisor failed.
    Optimizer(rodentstore_optimizer::OptimizerError),
    /// The storage backend (pages, WAL, manifest I/O) failed.
    Storage(rodentstore_storage::StorageError),
    /// A table was not found in the catalog.
    UnknownTable(String),
    /// A table with the same name already exists.
    TableExists(String),
    /// The operation is invalid in the current state.
    Invalid(String),
}

impl fmt::Display for RodentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RodentError::Algebra(e) => write!(f, "{e}"),
            RodentError::Layout(e) => write!(f, "{e}"),
            RodentError::Exec(e) => write!(f, "{e}"),
            RodentError::Optimizer(e) => write!(f, "{e}"),
            RodentError::Storage(e) => write!(f, "{e}"),
            RodentError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            RodentError::TableExists(t) => write!(f, "table `{t}` already exists"),
            RodentError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for RodentError {}

impl From<rodentstore_algebra::AlgebraError> for RodentError {
    fn from(e: rodentstore_algebra::AlgebraError) -> Self {
        RodentError::Algebra(e)
    }
}
// A storage failure surfaces as `RodentError::Storage` whichever layer it
// passed through, so a caller matches one variant for an I/O error.
impl From<rodentstore_layout::LayoutError> for RodentError {
    fn from(e: rodentstore_layout::LayoutError) -> Self {
        match e {
            rodentstore_layout::LayoutError::Storage(e) => RodentError::Storage(e),
            e => RodentError::Layout(e),
        }
    }
}
impl From<rodentstore_exec::ExecError> for RodentError {
    fn from(e: rodentstore_exec::ExecError) -> Self {
        match e {
            rodentstore_exec::ExecError::Layout(rodentstore_layout::LayoutError::Storage(e)) => {
                RodentError::Storage(e)
            }
            e => RodentError::Exec(e),
        }
    }
}
impl From<rodentstore_optimizer::OptimizerError> for RodentError {
    fn from(e: rodentstore_optimizer::OptimizerError) -> Self {
        RodentError::Optimizer(e)
    }
}
impl From<rodentstore_storage::StorageError> for RodentError {
    fn from(e: rodentstore_storage::StorageError) -> Self {
        RodentError::Storage(e)
    }
}

/// Result alias for RodentStore operations.
pub type Result<T> = std::result::Result<T, RodentError>;
