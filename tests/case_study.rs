//! End-to-end integration test of the paper's case study through the public
//! `Database` API: the layouts N1–N4 all answer the same spatial queries with
//! the same results, while reading progressively fewer pages; and the
//! introductory sales grid prunes a slice query.

use rodentstore::{Condition, Database, ReorgStrategy, ScanRequest};
use rodentstore_algebra::LayoutExpr;
use rodentstore_workload::{figure2_queries, generate_traces, traces_schema, CartelConfig};

fn cartel() -> (CartelConfig, Vec<Vec<rodentstore::Value>>) {
    let config = CartelConfig {
        observations: 12_000,
        vehicles: 30,
        ..CartelConfig::default()
    };
    let records = generate_traces(&config);
    (config, records)
}

fn db_with_layout(records: &[Vec<rodentstore::Value>], layout: &str) -> Database {
    let db = Database::with_page_size(1024);
    db.create_table(traces_schema()).unwrap();
    db.insert("Traces", records.to_vec()).unwrap();
    db.apply_layout_text("Traces", layout).unwrap();
    db
}

#[test]
fn all_case_study_layouts_agree_and_grid_reads_fewer_pages() {
    let (config, records) = cartel();
    let queries: Vec<_> = figure2_queries(&config.bbox, 5).into_iter().take(5).collect();

    let layouts = [
        "rows(Traces)",
        "project[lat,lon](groupby[id](orderby[t](Traces)))",
        "grid[lat,lon;0.012,0.015](project[lat,lon](groupby[id](orderby[t](Traces))))",
        "delta[lat,lon](zorder(grid[lat,lon;0.012,0.015](project[lat,lon](groupby[id](orderby[t](Traces))))))",
    ];

    let mut total_pages = Vec::new();
    let mut match_counts: Vec<Vec<usize>> = Vec::new();
    for layout in layouts {
        let db = db_with_layout(&records, layout);
        let mut pages = 0u64;
        let mut counts = Vec::new();
        for q in &queries {
            let request = ScanRequest::all()
                .fields(["lat", "lon"])
                .predicate(q.to_condition());
            pages += db.scan_pages("Traces", &request).unwrap();
            counts.push(db.scan("Traces", &request).unwrap().len());
        }
        total_pages.push(pages);
        match_counts.push(counts);
    }

    // Every layout returns the same number of matching points per query.
    // (N4 quantizes coordinates to 1e-6 degrees, far below the query size, so
    // counts are identical.)
    for counts in &match_counts {
        assert_eq!(counts, &match_counts[0]);
    }
    // N1 (full rows, no pruning) reads the most; dropping columns helps;
    // gridding helps by a large factor; delta helps further or at least never
    // hurts.
    assert!(total_pages[0] > total_pages[1], "{total_pages:?}");
    assert!(total_pages[1] > total_pages[2] * 5, "{total_pages:?}");
    assert!(total_pages[3] <= total_pages[2], "{total_pages:?}");
}

/// The paper's introductory example, `zorder(grid[year, zipcode](Sales))`:
/// a year × zipcode slice returns the same rows as over the row layout and
/// reads fewer pages, because the grid prunes the cells outside the slice.
#[test]
fn gridded_sales_slice_reads_fewer_pages_than_rows() {
    use rodentstore_workload::{generate_sales, sales_schema, SalesConfig};
    let db = Database::with_page_size(2048);
    db.create_table(sales_schema()).unwrap();
    db.insert(
        "Sales",
        generate_sales(&SalesConfig {
            rows: 30_000,
            ..SalesConfig::default()
        }),
    )
    .unwrap();
    let slice = ScanRequest::all().predicate(
        Condition::range("year", 2004i64, 2005i64)
            .and(Condition::range("zipcode", 2000i64, 2100i64)),
    );
    let mut pages = Vec::new();
    let mut matches = Vec::new();
    for layout in ["Sales", "zorder(grid[year,zipcode;1,50](Sales))"] {
        db.apply_layout_text("Sales", layout).unwrap();
        pages.push(db.scan_pages("Sales", &slice).unwrap());
        matches.push(db.scan("Sales", &slice).unwrap().len());
    }
    assert!(matches[0] > 0, "the slice must match rows");
    assert_eq!(matches[1], matches[0], "the grid changed the slice's rows");
    assert!(
        pages[1] < pages[0],
        "grid pages {} vs rows {}",
        pages[1],
        pages[0]
    );
}

#[test]
fn layout_changes_are_transparent_to_queries() {
    let (_, records) = cartel();
    let db = db_with_layout(&records, "rows(Traces)");
    let request = ScanRequest::all().fields(["id", "lat"]).order(["id"]);
    let before = db.scan("Traces", &request).unwrap();

    for layout in [
        "columns(Traces)",
        "pax[256](Traces)",
        "orderby[t](Traces)",
        "partition[id](Traces)",
    ] {
        db.apply_layout_text("Traces", layout).unwrap();
        let mut after = db.scan("Traces", &request).unwrap();
        let mut expected = before.clone();
        // Storage order may differ between layouts; compare as sorted sets.
        after.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        expected.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        assert_eq!(after, expected, "layout {layout} changed query results");
    }
}

#[test]
fn lazy_and_new_data_only_strategies_work_through_the_api() {
    let (_, records) = cartel();
    let db = Database::with_page_size(1024);
    db.create_table(traces_schema()).unwrap();
    db.insert("Traces", records.clone()).unwrap();

    db.apply_layout(
        "Traces",
        LayoutExpr::table("Traces").project(["lat", "lon"]),
        ReorgStrategy::Lazy,
    )
    .unwrap();
    assert!(db.catalog().get("Traces").unwrap().access.is_none());
    assert_eq!(
        db.scan("Traces", &ScanRequest::all()).unwrap().len(),
        records.len()
    );

    db.apply_layout(
        "Traces",
        LayoutExpr::table("Traces").project(["lat", "lon"]),
        ReorgStrategy::NewDataOnly,
    )
    .unwrap();
    db.insert("Traces", records[..50].to_vec()).unwrap();
    assert_eq!(
        db.scan("Traces", &ScanRequest::all()).unwrap().len(),
        records.len() + 50
    );
}
