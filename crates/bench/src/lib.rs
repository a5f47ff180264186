//! Shared harness for reproducing the paper's evaluation.
//!
//! The only quantitative result in the paper is Figure 2: the average number
//! of pages read per spatial query on CarTel GPS traces, for five physical
//! designs — `N1` (raw row scan), `N2` (drop columns + order/group), `N3`
//! (grid), `N4` (z-curve + delta), and a conventional secondary R-tree.
//! This crate builds those five designs over the synthetic CarTel workload
//! and measures pages/query for each; the `figure2` binary prints the series.
//! Wall-clock time is measured by `rodentbench`, which renders its N1–N3
//! designs through [`build_designs`].

#![forbid(unsafe_code)]

use rodentstore_algebra::LayoutExpr;
use rodentstore_exec::{AccessMethods, ScanRequest};
use rodentstore_index::{Rect, RTree};
use rodentstore_layout::{render, MemTableProvider, RenderOptions};
use rodentstore_storage::heap::HeapFile;
use rodentstore_storage::pager::Pager;
use rodentstore_workload::{
    figure2_queries, generate_traces, traces_schema, CartelConfig, SpatialQuery,
};
use std::sync::Arc;

/// Configuration of a Figure-2 run.
#[derive(Debug, Clone)]
pub struct Figure2Config {
    /// Number of observations in the synthetic CarTel relation.
    pub observations: usize,
    /// Number of spatial queries (the paper uses 200).
    pub queries: usize,
    /// Page size in bytes (the paper uses ~1 KB pages).
    pub page_size: usize,
    /// Grid cell side as a fraction of the query side (the paper's cells are
    /// roughly a quarter of the query side).
    pub cell_fraction_of_query: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Figure2Config {
    fn default() -> Self {
        Figure2Config {
            observations: 200_000,
            queries: 200,
            page_size: 1024,
            cell_fraction_of_query: 0.25,
            seed: 0xF162,
        }
    }
}

impl Figure2Config {
    /// A configuration small enough for unit tests and the Figure-2 golden
    /// pin.
    /// With only a few tens of thousands of points, cells are sized like the
    /// queries themselves so each cell still spans several pages (the regime
    /// the paper's 10M-observation dataset is in).
    pub fn small() -> Figure2Config {
        Figure2Config {
            observations: 30_000,
            queries: 20,
            cell_fraction_of_query: 1.0,
            ..Figure2Config::default()
        }
    }
}

/// Result for one physical design.
#[derive(Debug, Clone)]
pub struct DesignResult {
    /// Short label matching the paper ("N1 (raw + scan)", …).
    pub label: String,
    /// Average pages read per query.
    pub pages_per_query: f64,
    /// Average disk seeks per query.
    pub seeks_per_query: f64,
    /// Total pages occupied by the design.
    pub layout_pages: usize,
}

/// One rendered layout-based design, ready to be queried.
pub struct LayoutDesign {
    /// Display label.
    pub label: String,
    /// Access methods over the rendered layout.
    pub access: AccessMethods,
    /// The pager holding the design (for I/O statistics).
    pub pager: Arc<Pager>,
}

/// The full set of Figure-2 designs.
pub struct Figure2Designs {
    /// N1–N4 expressed as storage-algebra layouts.
    pub layouts: Vec<LayoutDesign>,
    /// The secondary R-tree baseline.
    pub rtree: RTreeDesign,
    /// The query workload.
    pub queries: Vec<SpatialQuery>,
}

/// Builds the trace data, the query workload, and all five designs.
pub fn build_designs(config: &Figure2Config) -> Figure2Designs {
    let cartel = CartelConfig {
        observations: config.observations,
        vehicles: (config.observations / 500).clamp(10, 5_000),
        seed: config.seed,
        ..CartelConfig::default()
    };
    let records = generate_traces(&cartel);
    let schema = traces_schema();
    let provider = MemTableProvider::single(schema, records.clone());
    let bbox = cartel.bbox;
    let queries = figure2_queries(&bbox, config.seed);

    // Grid cell size: a fraction of the query side (the paper's ~400 m cells
    // versus ~1.6 km query sides).
    let query_side_lat = bbox.lat_span() * 0.1; // sqrt(1%) of the area
    let query_side_lon = bbox.lon_span() * 0.1;
    let cell_lat = query_side_lat * config.cell_fraction_of_query;
    let cell_lon = query_side_lon * config.cell_fraction_of_query;

    let exprs: Vec<(&str, LayoutExpr)> = vec![
        ("N1 (raw + scan)", LayoutExpr::table("Traces")),
        (
            "N2 (raw + drop column)",
            LayoutExpr::table("Traces")
                .order_by(["t"])
                .group_by(["id"])
                .project(["lat", "lon"]),
        ),
        (
            "N3 (grid)",
            LayoutExpr::table("Traces")
                .order_by(["t"])
                .group_by(["id"])
                .project(["lat", "lon"])
                .grid([("lat", cell_lat), ("lon", cell_lon)]),
        ),
        (
            "N4 (zcurve + delta)",
            LayoutExpr::table("Traces")
                .order_by(["t"])
                .group_by(["id"])
                .project(["lat", "lon"])
                .grid([("lat", cell_lat), ("lon", cell_lon)])
                .zorder()
                .delta(["lat", "lon"]),
        ),
    ];

    let layouts = exprs
        .into_iter()
        .map(|(label, expr)| {
            let pager = Arc::new(Pager::in_memory_with_page_size(config.page_size));
            let layout = render(&expr, &provider, Arc::clone(&pager), RenderOptions::default())
                .expect("rendering a Figure-2 layout");
            LayoutDesign {
                label: label.to_string(),
                access: AccessMethods::new(layout),
                pager,
            }
        })
        .collect();

    let rtree = RTreeDesign::build(&records, config.page_size);

    Figure2Designs {
        layouts,
        rtree,
        queries,
    }
}

/// Measures the average pages/query for every design.
pub fn run_figure2(config: &Figure2Config) -> Vec<DesignResult> {
    let designs = build_designs(config);
    let mut results = Vec::new();
    for design in &designs.layouts {
        results.push(measure_layout(design, &designs.queries));
    }
    results.push(designs.rtree.measure(&designs.queries));
    results
}

/// Runs the spatial queries against one layout design and averages the I/O.
pub fn measure_layout(design: &LayoutDesign, queries: &[SpatialQuery]) -> DesignResult {
    let stats = design.pager.stats();
    stats.reset();
    for q in queries {
        let request = ScanRequest::all().predicate(q.to_condition());
        design
            .access
            .scan(&request)
            .expect("figure-2 query over a layout design");
    }
    let snap = stats.snapshot();
    DesignResult {
        label: design.label.clone(),
        pages_per_query: snap.pages_read as f64 / queries.len() as f64,
        seeks_per_query: snap.seeks as f64 / queries.len() as f64,
        layout_pages: design.access.layout().total_pages(),
    }
}

/// The conventional baseline of the paper's case study: trajectory segments
/// stored in a heap file with a *secondary R-tree* over their bounding boxes.
/// Dense traces produce many overlapping boxes, so most queries visit a large
/// fraction of the index and fetch many segment pages with random I/O.
pub struct RTreeDesign {
    pager: Arc<Pager>,
    rtree: RTree,
    heap: HeapFile,
    /// Pages (heap file page indices) that store each segment.
    segment_pages: Vec<Vec<usize>>,
}

impl RTreeDesign {
    /// Number of consecutive observations grouped under one bounding box.
    /// The paper indexes whole trajectories; with the generator's ~500
    /// observations per vehicle this groups a vehicle's full trace into one
    /// or two coarse, heavily overlapping boxes — the regime in which the
    /// paper finds the secondary R-tree sub-optimal.
    const SEGMENT_LEN: usize = 1024;

    /// Builds the heap of trajectory segments and the R-tree over their MBRs.
    pub fn build(records: &[Vec<rodentstore_algebra::Value>], page_size: usize) -> RTreeDesign {
        use rodentstore_layout::rowcodec::encode_record;
        use std::collections::HashMap;

        let pager = Arc::new(Pager::in_memory_with_page_size(page_size));
        let heap = HeapFile::create("trajectory-segments", Arc::clone(&pager));

        // Group observations per vehicle, preserving time order.
        let mut per_vehicle: HashMap<String, Vec<&Vec<rodentstore_algebra::Value>>> =
            HashMap::new();
        for r in records {
            per_vehicle
                .entry(r[3].as_str().unwrap_or("?").to_string())
                .or_default()
                .push(r);
        }
        let mut vehicles: Vec<_> = per_vehicle.into_iter().collect();
        vehicles.sort_by(|a, b| a.0.cmp(&b.0));

        let mut entries: Vec<(Rect, u64)> = Vec::new();
        let mut segment_pages: Vec<Vec<usize>> = Vec::new();
        for (_, observations) in vehicles {
            for segment in observations.chunks(Self::SEGMENT_LEN) {
                let mut mbr = Rect::empty();
                let mut pages = Vec::new();
                for obs in segment {
                    let lat = obs[1].as_f64().unwrap_or(0.0);
                    let lon = obs[2].as_f64().unwrap_or(0.0);
                    mbr = mbr.union(&Rect::point(lon, lat));
                    let rid = heap
                        .append(&encode_record(&vec![
                            obs[1].clone(),
                            obs[2].clone(),
                        ]))
                        .expect("segment append");
                    if !pages.contains(&rid.page_index) {
                        pages.push(rid.page_index);
                    }
                }
                let segment_id = segment_pages.len() as u64;
                segment_pages.push(pages);
                entries.push((mbr, segment_id));
            }
        }
        heap.flush().expect("flush segments");
        let rtree = RTree::bulk_load(Arc::clone(&pager), &entries).expect("bulk load rtree");
        RTreeDesign {
            pager,
            rtree,
            heap,
            segment_pages,
        }
    }

    /// Runs the queries: probe the R-tree, then fetch every page of every
    /// matching segment (each a random I/O), mirroring how a secondary index
    /// over coarse trajectory objects behaves.
    pub fn measure(&self, queries: &[SpatialQuery]) -> DesignResult {
        let stats = self.pager.stats();
        stats.reset();
        for q in queries {
            let rect = Rect::new(q.min_lon, q.min_lat, q.max_lon, q.max_lat);
            let (segments, _) = self.rtree.query(&rect).expect("rtree query");
            let mut pages: Vec<usize> = segments
                .iter()
                .flat_map(|&s| self.segment_pages[s as usize].iter().copied())
                .collect();
            pages.sort_unstable();
            pages.dedup();
            self.heap
                .scan_pages(&pages, |_, _| Ok(()))
                .expect("segment page fetch");
        }
        let snap = stats.snapshot();
        DesignResult {
            label: "rtree".to_string(),
            pages_per_query: snap.pages_read as f64 / queries.len() as f64,
            seeks_per_query: snap.seeks as f64 / queries.len() as f64,
            layout_pages: self.pager.page_count() as usize,
        }
    }
}

/// Formats the results as the table printed by the `figure2` binary and
/// recorded in EXPERIMENTS.md.
pub fn format_results(config: &Figure2Config, results: &[DesignResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 2 reproduction — {} observations, {} queries (1% area each), {}-byte pages\n",
        config.observations, config.queries, config.page_size
    ));
    out.push_str(&format!(
        "{:<26} {:>16} {:>16} {:>14}\n",
        "design", "pages/query", "seeks/query", "layout pages"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<26} {:>16.1} {:>16.1} {:>14}\n",
            r.label, r.pages_per_query, r.seeks_per_query, r.layout_pages
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_shape_holds_at_small_scale() {
        let config = Figure2Config::small();
        let results = run_figure2(&config);
        assert_eq!(results.len(), 5);
        let pages: std::collections::HashMap<&str, f64> = results
            .iter()
            .map(|r| (r.label.as_str(), r.pages_per_query))
            .collect();
        let n1 = pages["N1 (raw + scan)"];
        let n2 = pages["N2 (raw + drop column)"];
        let n3 = pages["N3 (grid)"];
        let n4 = pages["N4 (zcurve + delta)"];
        let rtree = pages["rtree"];
        // The orderings reported in the paper.
        assert!(n1 > n2, "N1 ({n1}) > N2 ({n2})");
        assert!(n2 > n3, "N2 ({n2}) > N3 ({n3})");
        assert!(n3 > n4, "N3 ({n3}) > N4 ({n4})");
        assert!(rtree > n3, "rtree ({rtree}) > N3 ({n3})");
        assert!(rtree < n1, "rtree ({rtree}) < N1 ({n1})");
        // Gridding buys a large factor versus N2 even at this tiny scale
        // (the full-scale run in EXPERIMENTS.md shows the two orders of
        // magnitude the paper reports).
        assert!(n2 / n3 > 5.0, "N2/N3 = {}", n2 / n3);
        // The exact small-scale figures. Seeks follow the storage order of
        // the grid cells, so this also pins the order a render writes them.
        let exact: Vec<(&str, f64, f64, usize)> = results
            .iter()
            .map(|r| (r.label.as_str(), r.pages_per_query, r.seeks_per_query, r.layout_pages))
            .collect();
        assert_eq!(
            exact,
            vec![
                ("N1 (raw + scan)", 1429.0, 1.0, 1429),
                ("N2 (raw + drop column)", 811.0, 1.0, 811),
                ("N3 (grid)", 36.13, 1.855, 865),
                ("N4 (zcurve + delta)", 6.855, 2.23, 172),
                ("rtree", 45.325, 5.3, 816),
            ]
        );
    }

    #[test]
    fn format_results_is_one_row_per_design() {
        let config = Figure2Config::small();
        let results = run_figure2(&config);
        let text = format_results(&config, &results);
        assert_eq!(text.lines().count(), 2 + results.len());
        assert!(text.contains("N4 (zcurve + delta)"));
    }
}
