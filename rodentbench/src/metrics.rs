//! The metric names the runner emits, with their units. `BENCHMARK.json`
//! declares the same names (plus direction and bound); a test keeps the two
//! in step.

/// End-to-end metrics: what a user of the store sees. Emitted by every
/// workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("insert_p50_us", "us"),
    ("ingest_rows_per_s", "1/s"),
    ("scan_rows_per_s", "1/s"),
    ("aggregate_p50_ms", "ms"),
    ("checkpoint_ms", "ms"),
    ("reopen_ms", "ms"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MB"),
    ("mixed_ops_per_s", "1/s"),
];

/// The end-to-end metrics for which higher is better (rates); the rest are
/// times, sizes and ratios for which lower is.
pub const HIGHER_IS_BETTER: [&str; 3] = ["ingest_rows_per_s", "scan_rows_per_s", "mixed_ops_per_s"];

/// Per-layer metrics (layer = crate). Emitted by every workload with
/// `--trace 1`; a layer that is idle in a workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 70] = [
    // storage
    ("storage.pager.read_frame_ns_per_page", "ns"),
    ("storage.pager.pages_read_per_op", "count"),
    ("storage.pager.bytes_written_per_user_byte", "ratio"),
    ("storage.pager.file_bytes", "B"),
    ("storage.pager.free_pages", "count"),
    ("storage.wal.commit_p50_us", "us"),
    ("storage.wal.fsync_p50_us", "us"),
    ("storage.wal.fsyncs_per_commit", "ratio"),
    ("storage.wal.bytes_per_user_byte", "ratio"),
    ("storage.wal.direct_commit_us", "us"),
    ("storage.wal.truncations", "count"),
    // layout
    ("layout.render.rows_per_s", "1/s"),
    ("layout.scan.self_ns_per_row", "ns"),
    ("layout.scan.rows_per_s", "1/s"),
    ("layout.aggregate.self_ns_per_row", "ns"),
    ("layout.query.self_us", "us"),
    ("layout.get_element.p50_us", "us"),
    ("layout.scan.pages_per_query.n1", "count"),
    ("layout.scan.pages_per_query.n2", "count"),
    ("layout.scan.pages_per_query.n3", "count"),
    ("layout.scan.pages_per_query.n4", "count"),
    ("layout.scan.rows_returned_per_page_read", "ratio"),
    ("layout.scan.frame_hits", "count"),
    ("layout.scan.frame_copies", "count"),
    ("layout.scan.allocs_per_row", "count"),
    ("layout.scan.alloc_bytes_per_row", "B"),
    ("layout.lsm.absorb_p50_us", "us"),
    ("layout.lsm.absorb_p99_us", "us"),
    ("layout.lsm.spills", "count"),
    ("layout.lsm.merges", "count"),
    ("layout.lsm.pages_written", "count"),
    ("layout.lsm.pages_freed", "count"),
    ("layout.lsm.scan_self_ns_per_row", "ns"),
    // exec
    ("exec.scan.self_us", "us"),
    ("exec.aggregate.self_us", "us"),
    ("exec.query.self_us", "us"),
    ("exec.cursor.first_row_us", "us"),
    ("exec.scan_pages.predicted_over_actual", "ratio"),
    // index
    ("index.rtree.pages_per_query", "count"),
    ("index.rtree.query_p50_us", "us"),
    // optimizer
    ("optimizer.advise.p50_ms", "ms"),
    ("optimizer.advise.calls", "count"),
    ("optimizer.advise.engine_ms_total", "ms"),
    // algebra
    ("algebra.parse_validate_us", "us"),
    // core
    ("core.scan.self_us", "us"),
    ("core.aggregate.self_us", "us"),
    ("core.query.self_us", "us"),
    ("core.insert.self_us", "us"),
    ("core.query.p95_us", "us"),
    ("core.insert.p95_us", "us"),
    ("core.checkpoint.phase.reap_retired_ms", "ms"),
    ("core.checkpoint.phase.flush_tails_ms", "ms"),
    ("core.checkpoint.phase.pager_sync_ms", "ms"),
    ("core.checkpoint.phase.write_manifest_ms", "ms"),
    ("core.checkpoint.phase.release_quarantine_ms", "ms"),
    ("core.checkpoint.phase.wal_truncate_ms", "ms"),
    ("core.checkpoint.phase.shrink_data_file_ms", "ms"),
    ("core.checkpoint.manifest_bytes", "B"),
    ("core.open.replayed_commits", "count"),
    ("core.adapt.checks", "count"),
    ("core.adapt.adaptations", "count"),
    ("core.adapt.converged_after_ops", "count"),
    ("core.adapt.rerender_ms_total", "ms"),
    ("core.pending_rows_at_end", "count"),
    ("core.epoch.reclaimed_pages", "count"),
    ("core.epoch.retired_bytes", "B"),
    ("core.resident_bytes_per_row", "B"),
    ("core.relayout_ms", "ms"),
    // harness
    ("trace.overhead_ratio", "ratio"),
    ("trace.ladder_gap_ratio", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The seven phases of the engine's `checkpoint` event, in execution
    /// order; each has its `core.checkpoint.phase.<p>_ms` metric.
    const CHECKPOINT_PHASES: [&str; 7] = [
        "reap_retired",
        "flush_tails",
        "pager_sync",
        "write_manifest",
        "release_quarantine",
        "wal_truncate",
        "shrink_data_file",
    ];

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for phase in CHECKPOINT_PHASES {
            assert!(seen.contains(format!("core.checkpoint.phase.{phase}_ms").as_str()));
        }
    }
}
