//! Zero-dependency observability substrate for the RodentStore engine.
//!
//! Two pieces, both designed so recording on a hot path costs only relaxed
//! atomic operations:
//!
//! * a [`Registry`] of named instruments — monotonic [`Counter`]s,
//!   last-value [`Gauge`]s and log-bucketed latency [`Histogram`]s — whose
//!   dotted names
//!   (`scan.pages`, `wal.fsync_micros`, …) form a stable contract between
//!   the live engine, the benches, and external consumers (see
//!   `docs/OBSERVABILITY.md` at the workspace root). A point-in-time
//!   [`MetricsSnapshot`] is cheap to take and serializes itself as JSON
//!   with no external crates; and
//! * a bounded [`EventRing`] of structured [`Event`]s — adaptation
//!   decisions with their costed alternatives, lsm spills and merges,
//!   checkpoint phase timings, WAL truncations, epoch reclamation batches
//!   — that callers drain and dump as JSON.
//!
//! The crate sits at the bottom of the workspace graph (it depends on
//! nothing, not even the vendored shims) so every layer — storage, layout,
//! core — can feed it without cycles.

mod events;
mod json;
mod metrics;

pub use events::{CostedAlternative, Event, EventKind, EventRing, DEFAULT_EVENT_CAPACITY};
pub use json::JsonWriter;
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary, MetricsSnapshot, Registry};
