//! Pins the paper's Figure 2 at `Figure2Config::small()` (30 000 observations,
//! the 200 boxes), so `cargo test` guards the figure's exact pages/query
//! without the 200 000-row build. The full-size pin — 9524 / 5406 / 104.0 / 25.9 —
//! is checked inside `rodentbench --workload cartel_spatial --trace 1` at the
//! default seed.

use rodentstore_bench::{run_figure2, Figure2Config};

#[test]
fn small_figure2_pages_per_query_are_pinned() {
    let results = run_figure2(&Figure2Config::small());
    let got: Vec<(&str, f64)> = results
        .iter()
        .map(|r| (r.label.as_str(), r.pages_per_query))
        .collect();
    assert_eq!(got, GOLDEN, "Figure 2 (small) moved");
}

/// Pages/query per design, as measured at the commit that added this test.
const GOLDEN: [(&str, f64); 5] = [
    ("N1 (raw + scan)", 1429.0),
    ("N2 (raw + drop column)", 811.0),
    ("N3 (grid)", 36.13),
    ("N4 (zcurve + delta)", 6.855),
    ("rtree", 45.325),
];
