//! # RodentStore access methods
//!
//! The storage-system API the paper describes in Section 4.1: a thin layer
//! that lets a query processor iterate through the tuples of a table and ask
//! for cost estimates, regardless of the physical layout the storage algebra
//! chose.
//!
//! * [`AccessMethods::scan`] — scan with optional projection, range
//!   predicate, and sort order;
//! * [`AccessMethods::get_element`] / [`Cursor::next`] — positional access
//!   and iteration;
//! * [`AccessMethods::scan_cost`] / [`AccessMethods::get_element_cost`] —
//!   estimated cost in milliseconds, derived from pages and seeks under a
//!   configurable disk model;
//! * [`AccessMethods::order_list`] — the sort orders the current storage
//!   organization is "efficient" for.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cursor;

pub use api::{sort_rows, AccessMethods, CostParams, ScanRequest};
pub use cursor::Cursor;
pub use rodentstore_layout::{WindowAccumulator, WindowRow, WindowedAggregate};

use rodentstore_layout::LayoutError;
use std::fmt;

/// Errors produced by the access-method layer.
#[derive(Debug)]
pub enum ExecError {
    /// The underlying layout failed.
    Layout(LayoutError),
    /// The request referenced an unknown field or was otherwise invalid.
    InvalidRequest(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Layout(e) => write!(f, "layout error: {e}"),
            ExecError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Layout(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LayoutError> for ExecError {
    fn from(e: LayoutError) -> Self {
        ExecError::Layout(e)
    }
}

/// Result alias for access-method operations.
pub type Result<T> = std::result::Result<T, ExecError>;
