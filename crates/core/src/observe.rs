//! Engine-side observability: the database's metrics registry, event ring,
//! and the pre-resolved instrument handles every hot path records through.
//!
//! The instruments live in `rodentstore_obs`; this module owns the *names*.
//! Every dotted metric name the engine emits is declared here (and listed by
//! [`metric_names`]), forming the stable contract documented in
//! `docs/OBSERVABILITY.md`. Handles are resolved once at database
//! construction, so recording on a hot path is a relaxed atomic bump — the
//! registry's registration lock is never touched again.
//!
//! Recording is gated on one relaxed [`AtomicBool`]
//! ([`EngineObs::enabled`]): disabling observability reduces every
//! instrumentation site to a single relaxed load, which is how the
//! `scan_hot_path` bench measures the overhead of the metrics themselves.

use rodentstore_obs::{Counter, EventRing, Gauge, Histogram, Registry as MetricsRegistry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Every instrument the engine records into, resolved once at construction.
///
/// Grouped by subsystem; the dotted names are the public contract.
#[derive(Debug, Clone)]
pub struct Instruments {
    // Scans.
    /// `scan.count` — scans served (all access paths).
    pub scan_count: Arc<Counter>,
    /// `scan.rows` — rows returned by scans.
    pub scan_rows: Arc<Counter>,
    /// `scan.pages` — pages read on behalf of scans (pager I/O delta).
    pub scan_pages: Arc<Counter>,
    /// `scan.micros` — end-to-end scan latency.
    pub scan_micros: Arc<Histogram>,
    /// `scan.frame_hits` — pages served to scans as shared frames (no copy),
    /// row pages and column-block pages alike.
    pub scan_frame_hits: Arc<Counter>,
    /// `scan.frame_copies` — pages scans had to copy out of the store
    /// (forced-copy mode, or a file store without an mmap window).
    pub scan_frame_copies: Arc<Counter>,
    /// `scan.chunks` — column chunks scans walked (decoded or not).
    pub scan_chunks: Arc<Counter>,
    /// `scan.blocks_skipped` — needed column blocks scans never decoded
    /// because no row of their chunk survived the predicate (late
    /// materialization at work).
    pub scan_blocks_skipped: Arc<Counter>,
    /// `scan.agg_rows_folded` — rows folded by windowed-aggregate scans
    /// (these rows are never materialized, so they do not count toward
    /// `scan.rows`).
    pub scan_agg_rows_folded: Arc<Counter>,
    /// `get_element.count` — positional element reads.
    pub get_element_count: Arc<Counter>,

    // Inserts.
    /// `insert.batches` — insert calls.
    pub insert_batches: Arc<Counter>,
    /// `insert.rows` — rows inserted.
    pub insert_rows: Arc<Counter>,
    /// `insert.micros` — end-to-end insert latency (including WAL commit).
    pub insert_micros: Arc<Histogram>,

    // The write-optimized tier.
    /// `lsm.spills` — level-0 runs sealed from the memtable.
    pub lsm_spills: Arc<Counter>,
    /// `lsm.spill.rows` — rows sealed into level-0 runs.
    pub lsm_spill_rows: Arc<Counter>,
    /// `lsm.spill.pages` — pages written by spills.
    pub lsm_spill_pages: Arc<Counter>,
    /// `lsm.merges` — level merges performed by compaction.
    pub lsm_merges: Arc<Counter>,
    /// `lsm.pages_written` — pages written by compaction merges.
    pub lsm_pages_written: Arc<Counter>,
    /// `lsm.pages_freed` — pages vacated by compaction merges.
    pub lsm_pages_freed: Arc<Counter>,
    /// `lsm.absorb_micros` — latency of one absorb call (the satellite
    /// tail-latency proof: amortized compaction caps its p99).
    pub lsm_absorb_micros: Arc<Histogram>,
    /// `lsm.absorb.merges` — level merges run by a single absorb (the
    /// amortization invariant: max ≤ spills per absorb).
    pub lsm_absorb_merges: Arc<Histogram>,
    /// `lsm.compaction.levels` — the level index of each merge.
    pub lsm_compaction_levels: Arc<Histogram>,

    // The adaptive loop.
    /// `adapt.checks` — advisor check windows evaluated.
    pub adapt_checks: Arc<Counter>,
    /// `adapt.adaptations` — checks that re-declared the layout.
    pub adapt_adaptations: Arc<Counter>,
    /// `adapt.advise_micros` — advisor wall-clock per check.
    pub adapt_advise_micros: Arc<Histogram>,

    // Durability.
    /// `checkpoint.count` — checkpoints completed.
    pub checkpoint_count: Arc<Counter>,
    /// `checkpoint.pages_freed` — pages returned to the free list.
    pub checkpoint_pages_freed: Arc<Counter>,
    /// `checkpoint.micros` — checkpoint wall-clock.
    pub checkpoint_micros: Arc<Histogram>,
    /// `checkpoint.rows_persisted` — canonical rows appended to the tables'
    /// canonical stores (the rows added since the previous checkpoint).
    pub checkpoint_rows_persisted: Arc<Counter>,
    /// `checkpoint.manifest_bytes` — size of the last manifest written.
    pub checkpoint_manifest_bytes: Arc<Gauge>,
    /// `canonical.pages` — pages held by all canonical stores at the last
    /// checkpoint.
    pub canonical_pages: Arc<Gauge>,
    /// `wal.truncations` — WAL truncations after checkpoints.
    pub wal_truncations: Arc<Counter>,
    /// `wal.truncated_bytes` — log bytes dropped by truncations.
    pub wal_truncated_bytes: Arc<Counter>,
    /// `wal.commit_micros` — WAL commit latency (installed into the WAL).
    pub wal_commit_micros: Arc<Histogram>,
    /// `wal.fsync_micros` — fsync latency (installed into the WAL).
    pub wal_fsync_micros: Arc<Histogram>,

    // Epoch-based reclamation.
    /// `epoch.reaps` — reclamation sweeps that freed something.
    pub epoch_reaps: Arc<Counter>,
    /// `epoch.reclaimed_pages` — pages reclaimed from retired renderings.
    pub epoch_reclaimed_pages: Arc<Counter>,
    /// `epoch.retired_bytes` — bytes those pages represent.
    pub epoch_retired_bytes: Arc<Counter>,
}

impl Instruments {
    /// Resolves every handle against `registry` (registering the names on
    /// first use).
    fn resolve(registry: &MetricsRegistry) -> Instruments {
        Instruments {
            scan_count: registry.counter("scan.count"),
            scan_rows: registry.counter("scan.rows"),
            scan_pages: registry.counter("scan.pages"),
            scan_micros: registry.histogram("scan.micros"),
            scan_frame_hits: registry.counter("scan.frame_hits"),
            scan_frame_copies: registry.counter("scan.frame_copies"),
            scan_chunks: registry.counter("scan.chunks"),
            scan_blocks_skipped: registry.counter("scan.blocks_skipped"),
            scan_agg_rows_folded: registry.counter("scan.agg_rows_folded"),
            get_element_count: registry.counter("get_element.count"),
            insert_batches: registry.counter("insert.batches"),
            insert_rows: registry.counter("insert.rows"),
            insert_micros: registry.histogram("insert.micros"),
            lsm_spills: registry.counter("lsm.spills"),
            lsm_spill_rows: registry.counter("lsm.spill.rows"),
            lsm_spill_pages: registry.counter("lsm.spill.pages"),
            lsm_merges: registry.counter("lsm.merges"),
            lsm_pages_written: registry.counter("lsm.pages_written"),
            lsm_pages_freed: registry.counter("lsm.pages_freed"),
            lsm_absorb_micros: registry.histogram("lsm.absorb_micros"),
            lsm_absorb_merges: registry.histogram("lsm.absorb.merges"),
            lsm_compaction_levels: registry.histogram("lsm.compaction.levels"),
            adapt_checks: registry.counter("adapt.checks"),
            adapt_adaptations: registry.counter("adapt.adaptations"),
            adapt_advise_micros: registry.histogram("adapt.advise_micros"),
            checkpoint_count: registry.counter("checkpoint.count"),
            checkpoint_pages_freed: registry.counter("checkpoint.pages_freed"),
            checkpoint_micros: registry.histogram("checkpoint.micros"),
            checkpoint_rows_persisted: registry.counter("checkpoint.rows_persisted"),
            checkpoint_manifest_bytes: registry.gauge("checkpoint.manifest_bytes"),
            canonical_pages: registry.gauge("canonical.pages"),
            wal_truncations: registry.counter("wal.truncations"),
            wal_truncated_bytes: registry.counter("wal.truncated_bytes"),
            wal_commit_micros: registry.histogram("wal.commit_micros"),
            wal_fsync_micros: registry.histogram("wal.fsync_micros"),
            epoch_reaps: registry.counter("epoch.reaps"),
            epoch_reclaimed_pages: registry.counter("epoch.reclaimed_pages"),
            epoch_retired_bytes: registry.counter("epoch.retired_bytes"),
        }
    }
}

/// The stable metric-name catalog: every counter, gauge and histogram the
/// engine registers, in name order. Benches and CI validate their emitted
/// `BENCH_*.json` metric sections against this list; changing a name is a
/// breaking change to `docs/OBSERVABILITY.md`.
pub fn metric_names() -> &'static [&'static str] {
    &[
        "adapt.adaptations",
        "adapt.advise_micros",
        "adapt.checks",
        "canonical.pages",
        "checkpoint.count",
        "checkpoint.manifest_bytes",
        "checkpoint.micros",
        "checkpoint.pages_freed",
        "checkpoint.rows_persisted",
        "epoch.reaps",
        "epoch.reclaimed_pages",
        "epoch.retired_bytes",
        "get_element.count",
        "insert.batches",
        "insert.micros",
        "insert.rows",
        "lsm.absorb.merges",
        "lsm.absorb_micros",
        "lsm.compaction.levels",
        "lsm.merges",
        "lsm.pages_freed",
        "lsm.pages_written",
        "lsm.spill.pages",
        "lsm.spill.rows",
        "lsm.spills",
        "scan.agg_rows_folded",
        "scan.blocks_skipped",
        "scan.chunks",
        "scan.count",
        "scan.frame_copies",
        "scan.frame_hits",
        "scan.micros",
        "scan.pages",
        "scan.rows",
        "wal.commit_micros",
        "wal.fsync_micros",
        "wal.truncated_bytes",
        "wal.truncations",
    ]
}

/// The engine's observability state: one registry, one event ring, one
/// enable flag, and the resolved instrument handles. One per [`Database`],
/// shared by reference with every instrumentation site.
///
/// [`Database`]: crate::Database
#[derive(Debug)]
pub struct EngineObs {
    /// The metrics registry backing [`Database::metrics`].
    ///
    /// [`Database::metrics`]: crate::Database::metrics
    pub registry: Arc<MetricsRegistry>,
    /// The decision-trace ring backing [`Database::events`].
    ///
    /// [`Database::events`]: crate::Database::events
    pub events: Arc<EventRing>,
    enabled: AtomicBool,
    /// The pre-resolved handles.
    pub ins: Instruments,
}

impl EngineObs {
    /// A fresh observability state with every instrument registered and
    /// recording enabled.
    pub fn new() -> EngineObs {
        let registry = Arc::new(MetricsRegistry::new());
        let ins = Instruments::resolve(&registry);
        EngineObs {
            registry,
            events: Arc::new(EventRing::default()),
            enabled: AtomicBool::new(true),
            ins,
        }
    }

    /// Whether instrumentation sites should record (one relaxed load).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enables or disables recording. Disabling does not clear anything —
    /// counters keep their values and the ring keeps its events.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }
}

impl Default for EngineObs {
    fn default() -> EngineObs {
        EngineObs::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_registered_instruments() {
        // Resolving the instruments must register exactly the catalog.
        let obs = EngineObs::new();
        let snap = obs.registry.snapshot();
        let registered: Vec<&str> = snap
            .counters()
            .map(|(name, _)| name)
            .chain(snap.gauges().map(|(name, _)| name))
            .chain(snap.histograms().map(|(name, _)| name))
            .collect();
        let mut sorted = registered.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, metric_names(), "catalog out of sync");
    }

    #[test]
    fn enable_flag_round_trips() {
        let obs = EngineObs::new();
        assert!(obs.enabled());
        obs.set_enabled(false);
        assert!(!obs.enabled());
    }
}
