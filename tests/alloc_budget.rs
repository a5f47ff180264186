//! The allocation budget of the column-chunk read path, as an assertion.
//!
//! "No allocation on the hot path, a unit of work is constant": over column
//! chunks a fold allocates per *chunk* (a scratch vector or two), never per
//! row; a selective window allocates for the chunks it walks plus one
//! `Record` per surviving row; a projected scan allocates the `Record` it
//! returns per row and nothing else. This binary installs its own counting
//! allocator and holds the three to a per-row budget.
//!
//! It is one `#[test]` on purpose: the counter is process-wide, and a second
//! test running beside it would be counted too.

use rodentstore::{Condition, Database, ScanRequest, WindowedAggregate};
use rodentstore_workload::telemetry::{generate_telemetry, telemetry_schema, TelemetryConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain statistic and
// never influences which pointer is returned or how it is freed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with the
        // same layout, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are exactly `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with counting on; returns its result and the allocations made
/// meanwhile (growing a vector counts as one).
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

#[test]
fn column_chunk_reads_stay_within_their_allocation_budget() {
    const ROWS: usize = 50_000;
    let rows = generate_telemetry(&TelemetryConfig::with_readings(ROWS));
    let max_ts = rows.last().unwrap()[0].as_i64().unwrap();
    let db = Database::in_memory();
    db.create_table(telemetry_schema()).unwrap();
    db.insert("Telemetry", rows).unwrap();
    db.apply_layout_text(
        "Telemetry",
        "delta[ts](vertical[ts,value|sensor,status,seq](Telemetry))",
    )
    .unwrap();

    let spec = WindowedAggregate::new("ts", 1_000.0, "value");
    let projected = ScanRequest::all().fields(["ts", "value"]);
    let lo = max_ts / 2;
    let window = projected
        .clone()
        .predicate(Condition::range("ts", lo, lo + max_ts / 100));
    // One untimed pass: lazy set-up (profiles, first render) is not the
    // steady state the budget describes.
    db.scan_aggregate("Telemetry", &spec, None).unwrap();
    db.scan("Telemetry", &window).unwrap();

    let (buckets, allocs) = counted(|| db.scan_aggregate("Telemetry", &spec, None).unwrap());
    assert!(buckets.iter().map(|b| b.count).sum::<u64>() == ROWS as u64);
    let per_row = allocs as f64 / ROWS as f64;
    assert!(per_row <= 0.02, "fold: {allocs} allocations, {per_row:.4} per row");

    let (hits, allocs) = counted(|| db.scan("Telemetry", &window).unwrap());
    assert!(!hits.is_empty() && hits.len() < ROWS / 50, "a 1 % window, got {}", hits.len());
    let per_row = allocs as f64 / ROWS as f64;
    assert!(per_row <= 0.05, "window: {allocs} allocations, {per_row:.4} per table row");

    let (all, allocs) = counted(|| db.scan("Telemetry", &projected).unwrap());
    assert_eq!(all.len(), ROWS);
    let per_row = allocs as f64 / ROWS as f64;
    assert!(per_row <= 1.1, "projected scan: {allocs} allocations, {per_row:.4} per returned row");
}
