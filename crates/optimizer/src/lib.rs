//! # RodentStore storage design optimizer
//!
//! Section 5 of the paper sketches a *storage design optimizer*: given a
//! relational schema and a workload of queries, recommend the storage-algebra
//! expression that minimizes the workload's cost. This crate implements that
//! tool:
//!
//! * [`workload`] — a declarative description of the query workload
//!   (projections, predicates, orderings, weights);
//! * [`cost_model`] — costs a candidate expression by rendering it over a
//!   sample of the data and summing the access-method cost estimates
//!   (bytes of I/O plus seeks, exactly the model the paper proposes);
//! * [`candidates`] — enumerates candidate expressions: row/column
//!   decompositions, co-access column groups, griddings of range-queried
//!   numeric attributes (with and without `zorder`), orderings, and delta
//!   compression;
//! * [`search`] — greedy enumeration plus a simulated-annealing refinement of
//!   grid strides, since exhaustive enumeration is exponential
//!   (`2^n` column groupings, `O(2^n)` griddings).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod candidates;
pub mod cost_model;
pub mod search;
pub mod workload;

pub use candidates::enumerate_candidates;
pub use cost_model::{CostModel, DesignCost};
pub use search::{advise, advise_sampled, AdvisorOptions, Recommendation};
pub use workload::{Workload, WorkloadQuery};

use rodentstore_exec::ExecError;
use rodentstore_layout::LayoutError;
use std::fmt;

/// Errors produced by the design optimizer.
#[derive(Debug)]
pub enum OptimizerError {
    /// Rendering or scanning a candidate layout failed.
    Layout(LayoutError),
    /// The access-method layer rejected a workload query.
    Exec(ExecError),
    /// The workload or schema was unusable (e.g. no queries).
    InvalidInput(String),
}

impl fmt::Display for OptimizerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizerError::Layout(e) => write!(f, "layout error: {e}"),
            OptimizerError::Exec(e) => write!(f, "exec error: {e}"),
            OptimizerError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
        }
    }
}

impl std::error::Error for OptimizerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OptimizerError::Layout(e) => Some(e),
            OptimizerError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LayoutError> for OptimizerError {
    fn from(e: LayoutError) -> Self {
        OptimizerError::Layout(e)
    }
}

impl From<ExecError> for OptimizerError {
    fn from(e: ExecError) -> Self {
        OptimizerError::Exec(e)
    }
}

/// Result alias for optimizer operations.
pub type Result<T> = std::result::Result<T, OptimizerError>;
