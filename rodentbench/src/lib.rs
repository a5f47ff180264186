//! `rodentbench`: one seeded runner over RodentStore, four workloads, named
//! end-to-end and per-layer metrics. See `README.md` in this directory.

#![warn(missing_docs)]

pub mod alloc;
pub mod compare;
pub mod data;
pub mod json;
pub mod metrics;
pub mod runner;
pub mod scratch;
pub mod stats;
pub mod trace;
pub mod workloads;
