//! Costing candidate designs.
//!
//! The paper's optimizer "uses a cost model to estimate the cost of running
//! the supplied workload against a series of candidate physical designs",
//! counting bytes of I/O and disk seeks and ignoring CPU. RodentStore's cost
//! model does this by *rendering each candidate over a sample of the data*
//! and asking the access-method layer for its scan-cost estimates — the same
//! `scan_cost` functions a query optimizer would use at runtime, so the
//! advisor and the executor can never disagree about what is cheap.

use crate::workload::Workload;
use crate::{OptimizerError, Result};
use rodentstore_algebra::expr::{LayoutExpr, TransformKind};
use rodentstore_algebra::schema::Schema;
use rodentstore_algebra::value::Record;
use rodentstore_exec::{AccessMethods, CostParams};
use rodentstore_layout::{estimate_append_pages, render, MemTableProvider, RenderOptions};
use rodentstore_storage::pager::Pager;
use std::sync::Arc;

/// Steady-state read amplification of a levelled (`lsm`) tier. A freshly
/// rendered tier is empty (its scan cost equals the inner layout's), but a
/// live one carries runs that every scan must merge; charging the long-run
/// surcharge up front keeps read-heavy profiles from flapping into an lsm
/// design — and, symmetrically, pushes an installed tier back out once the
/// write pressure fades (the 25% surcharge comfortably clears the
/// adaptation loop's 15% hysteresis band).
pub const LSM_READ_AMPLIFICATION: f64 = 1.25;

/// The cost of one candidate design on the workload.
#[derive(Debug, Clone)]
pub struct DesignCost {
    /// The candidate expression.
    pub expr: LayoutExpr,
    /// Estimated workload cost in milliseconds (weighted sum over queries).
    pub total_ms: f64,
    /// Estimated pages read across the workload.
    pub total_pages: u64,
    /// Number of pages the rendered layout occupies (storage footprint).
    pub layout_pages: usize,
}

/// Cost model configuration.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Maximum number of records sampled from the table when rendering
    /// candidates (keeps enumeration cheap on large tables).
    pub sample_size: usize,
    /// Page size used for the scratch renderings.
    pub page_size: usize,
    /// Disk model parameters.
    pub cost_params: CostParams,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            sample_size: 20_000,
            page_size: 4096,
            cost_params: CostParams::default(),
        }
    }
}

impl CostModel {
    /// Draws a deterministic sample of the records (stride sampling keeps the
    /// value distributions and orderings representative).
    pub fn sample(&self, records: &[Record]) -> Vec<Record> {
        self.sample_rows(records.len(), records)
    }

    /// Draws the sample [`CostModel::sample`] draws, from `len` rows read in
    /// order — so a row store that is not one slice is sampled in place,
    /// cloning only the rows the sample keeps.
    pub fn sample_rows<'a>(
        &self,
        len: usize,
        rows: impl IntoIterator<Item = &'a Record>,
    ) -> Vec<Record> {
        let stride = (len / self.sample_size.max(1)).max(1);
        let mut sample = Vec::with_capacity(len.min(self.sample_size));
        sample.extend(
            rows.into_iter()
                .step_by(stride)
                .take(self.sample_size)
                .cloned(),
        );
        sample
    }

    /// Renders `expr` over the sampled data and sums the workload's estimated
    /// scan costs. Convenience wrapper that samples on every call; candidate
    /// loops should wrap one sample in a provider and use
    /// [`CostModel::cost_with_provider`] instead.
    pub fn cost(
        &self,
        expr: &LayoutExpr,
        schema: &Schema,
        records: &[Record],
        workload: &Workload,
    ) -> Result<DesignCost> {
        let provider = MemTableProvider::single(schema.clone(), self.sample(records));
        self.cost_with_provider(expr, &provider, workload)
    }

    /// Renders `expr` over an already-sampled provider and sums the
    /// workload's estimated scan costs.
    pub fn cost_with_provider(
        &self,
        expr: &LayoutExpr,
        provider: &MemTableProvider,
        workload: &Workload,
    ) -> Result<DesignCost> {
        if workload.queries.is_empty() {
            return Err(OptimizerError::InvalidInput(
                "workload contains no queries".into(),
            ));
        }
        let pager = Arc::new(Pager::in_memory_with_page_size(self.page_size));
        let layout = render(expr, provider, pager, RenderOptions::default())?;
        let layout_pages = layout.total_pages();
        let append_pages = estimate_append_pages(&layout);
        let methods = AccessMethods::new(layout);

        let mut total_ms = 0.0;
        let mut total_pages = 0u64;
        for q in &workload.queries {
            total_ms += methods.scan_cost(&q.request, &self.cost_params)? * q.weight;
            total_pages += methods.scan_pages(&q.request);
        }
        if expr.contains_kind(TransformKind::Lsm) {
            total_ms *= LSM_READ_AMPLIFICATION;
        }
        // Charge the writes: each insert batch costs one seek plus the pages
        // the shape must (re)write to absorb it — a full re-render for
        // append-hostile shapes, a couple of amortized run pages for a
        // levelled tier. Write cost goes into `total_ms` only; `total_pages`
        // stays the read-side page count the paper's figures report.
        if workload.write_weight > 0.0 {
            let page_ms = (self.page_size as f64 / (1024.0 * 1024.0))
                / self.cost_params.transfer_mb_per_s.max(1e-9)
                * 1000.0;
            total_ms += workload.write_weight
                * (self.cost_params.seek_ms + append_pages as f64 * page_ms);
        }
        Ok(DesignCost {
            expr: expr.clone(),
            total_ms,
            total_pages,
            layout_pages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodentstore_algebra::comprehension::Condition;
    use rodentstore_exec::ScanRequest;
    use rodentstore_workload::{generate_traces, traces_schema, CartelConfig};

    fn small_traces() -> (Schema, Vec<Record>) {
        let config = CartelConfig {
            observations: 4_000,
            vehicles: 20,
            ..CartelConfig::default()
        };
        (traces_schema(), generate_traces(&config))
    }

    fn spatial_workload() -> Workload {
        Workload::new()
            .query(
                ScanRequest::all()
                    .fields(["lat", "lon"])
                    .predicate(Condition::range("lat", 42.30, 42.33).and(Condition::range(
                        "lon", -71.10, -71.06,
                    ))),
            )
            .query(
                ScanRequest::all()
                    .fields(["lat", "lon"])
                    .predicate(Condition::range("lat", 42.25, 42.28).and(Condition::range(
                        "lon", -71.20, -71.16,
                    ))),
            )
    }

    /// Disk-model parameters that keep the sampled-down dataset in the same
    /// I/O-bound regime as the paper's 200 MB table: transfer dominates and
    /// seeks are cheap relative to scanning everything.
    fn io_bound_model() -> CostModel {
        CostModel {
            page_size: 1024,
            cost_params: CostParams {
                seek_ms: 1.0,
                transfer_mb_per_s: 2.0,
            },
            ..CostModel::default()
        }
    }

    #[test]
    fn gridded_design_costs_less_than_row_scan_for_spatial_workload() {
        let (schema, records) = small_traces();
        let model = io_bound_model();
        let workload = spatial_workload();

        let row = model
            .cost(&LayoutExpr::table("Traces"), &schema, &records, &workload)
            .unwrap();
        let grid = model
            .cost(
                &LayoutExpr::table("Traces")
                    .project(["lat", "lon"])
                    .grid([("lat", 0.01), ("lon", 0.01)])
                    .zorder(),
                &schema,
                &records,
                &workload,
            )
            .unwrap();
        assert!(
            grid.total_pages < row.total_pages,
            "grid {} vs row {}",
            grid.total_pages,
            row.total_pages
        );
        assert!(grid.total_ms < row.total_ms);
    }

    #[test]
    fn indexed_design_costs_fewer_pages_than_row_scan_for_selective_workload() {
        let (schema, records) = small_traces();
        let model = io_bound_model();
        let workload = spatial_workload();

        let row = model
            .cost(&LayoutExpr::table("Traces"), &schema, &records, &workload)
            .unwrap();
        let indexed = model
            .cost(
                &LayoutExpr::table("Traces").index(["lat", "lon"]),
                &schema,
                &records,
                &workload,
            )
            .unwrap();
        assert!(
            indexed.total_pages < row.total_pages,
            "indexed {} vs row {}",
            indexed.total_pages,
            row.total_pages
        );
    }

    #[test]
    fn write_weight_penalizes_rebuild_shapes_and_favors_lsm_tiers() {
        let (schema, records) = small_traces();
        let model = io_bound_model();
        let reads = spatial_workload();
        let writes = spatial_workload().with_write_weight(200.0);

        // Vertical groups combined with gridding re-render on every batch;
        // wrapping the shape in a levelled tier absorbs the batches, so
        // under write pressure the tier must win.
        let rebuild = LayoutExpr::table("Traces")
            .vertical([vec!["lat", "lon"], vec!["t", "id"]])
            .grid([("lat", 0.05)]);
        let tiered = rebuild.clone().lsm(["lat"]);
        let rebuild_cost = model.cost(&rebuild, &schema, &records, &writes).unwrap();
        let tier_cost = model.cost(&tiered, &schema, &records, &writes).unwrap();
        assert!(
            tier_cost.total_ms < rebuild_cost.total_ms,
            "tier {} vs rebuild {}",
            tier_cost.total_ms,
            rebuild_cost.total_ms
        );

        // Under a read-only workload the tier pays its steady-state merge
        // surcharge and loses — that is what retires it.
        let rebuild_reads = model.cost(&rebuild, &schema, &records, &reads).unwrap();
        let tier_reads = model.cost(&tiered, &schema, &records, &reads).unwrap();
        assert!(tier_reads.total_ms > rebuild_reads.total_ms * 1.2);
        // The read-side page counts (the paper's figures) are untouched by
        // write costing.
        assert_eq!(rebuild_cost.total_pages, rebuild_reads.total_pages);
    }

    #[test]
    fn empty_workload_is_rejected() {
        let (schema, records) = small_traces();
        let model = CostModel::default();
        assert!(matches!(
            model.cost(&LayoutExpr::table("Traces"), &schema, &records, &Workload::new()),
            Err(OptimizerError::InvalidInput(_))
        ));
    }

    #[test]
    fn shared_provider_costs_match_per_call_sampling() {
        let (schema, records) = small_traces();
        let model = io_bound_model();
        let workload = spatial_workload();
        let provider = MemTableProvider::single(schema.clone(), model.sample(&records));
        for expr in [
            LayoutExpr::table("Traces"),
            LayoutExpr::table("Traces").project(["lat", "lon"]),
        ] {
            let fresh = model.cost(&expr, &schema, &records, &workload).unwrap();
            let shared = model.cost_with_provider(&expr, &provider, &workload).unwrap();
            assert_eq!(fresh.total_pages, shared.total_pages);
            assert!((fresh.total_ms - shared.total_ms).abs() < 1e-9);
            assert_eq!(fresh.layout_pages, shared.layout_pages);
        }
    }

    #[test]
    fn sampling_caps_the_record_count() {
        let (_, records) = small_traces();
        let model = CostModel {
            sample_size: 100,
            ..CostModel::default()
        };
        let sample = model.sample(&records);
        assert!(sample.len() <= 101);
        assert!(!sample.is_empty());
        // Small inputs are passed through untouched.
        assert_eq!(model.sample(&records[..50]).len(), 50);
    }
}
