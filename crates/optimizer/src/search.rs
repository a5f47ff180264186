//! Design search: greedy enumeration plus simulated-annealing refinement.
//!
//! Exhaustive enumeration of designs is exponential, so — following the
//! paper's Section 5 — the advisor first costs a heuristic candidate set
//! (greedy enumeration) and then refines the continuous parameters of the
//! winner (grid strides) with a simulated-annealing loop.

use crate::candidates::enumerate_candidates;
use crate::cost_model::{CostModel, DesignCost};
use rodentstore_layout::MemTableProvider;
use crate::workload::Workload;
use crate::{OptimizerError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rodentstore_algebra::expr::{GridDim, LayoutExpr};
use rodentstore_algebra::rewrite::simplify;
use rodentstore_algebra::schema::Schema;
use rodentstore_algebra::value::Record;

/// Options controlling the advisor.
#[derive(Debug, Clone)]
pub struct AdvisorOptions {
    /// Cost model configuration.
    pub cost_model: CostModel,
    /// Number of simulated-annealing iterations refining grid strides
    /// (0 disables the refinement).
    pub anneal_iterations: usize,
    /// RNG seed for the annealing schedule.
    pub seed: u64,
}

impl Default for AdvisorOptions {
    fn default() -> Self {
        AdvisorOptions {
            cost_model: CostModel::default(),
            anneal_iterations: 12,
            seed: 0xA0D3,
        }
    }
}

/// The advisor's output: the recommended design plus every candidate costed
/// along the way (useful for explanation and for the benchmarks).
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// The winning design.
    pub best: DesignCost,
    /// Every explored candidate with its cost, sorted from best to worst.
    pub explored: Vec<DesignCost>,
}

/// Recommends a storage design for `schema` under `workload`.
pub fn advise(
    schema: &Schema,
    records: &[Record],
    workload: &Workload,
    options: &AdvisorOptions,
) -> Result<Recommendation> {
    let sample = options.cost_model.sample(records);
    let (recommendation, _) = advise_sampled(schema, sample, workload, options, None)?;
    Ok(recommendation)
}

/// Like [`advise`], over a sample the caller drew with
/// [`CostModel::sample_rows`] — every candidate rendering (greedy
/// enumeration and annealing alike) shares it. With a `baseline` — the
/// design currently in place — it also costs that design against the same
/// sample, so the caller can compare "what we have" with "what the advisor
/// wants" without sampling skew. This is the primitive behind the
/// self-adaptation loop's hysteresis check.
///
/// The baseline cost is `None` when there is no baseline, or it cannot be
/// rendered over a single-table sample (e.g. a prejoin whose other table is
/// absent).
pub fn advise_sampled(
    schema: &Schema,
    sample: Vec<Record>,
    workload: &Workload,
    options: &AdvisorOptions,
    baseline: Option<&LayoutExpr>,
) -> Result<(Recommendation, Option<DesignCost>)> {
    if workload.queries.is_empty() {
        return Err(OptimizerError::InvalidInput(
            "cannot advise on an empty workload".into(),
        ));
    }
    let model = &options.cost_model;
    let provider = &MemTableProvider::single(schema.clone(), sample);
    let baseline_cost = baseline.and_then(|baseline| {
        model
            .cost_with_provider(&simplify(baseline), provider, workload)
            .ok()
    });
    let candidates = enumerate_candidates(schema, workload);
    let mut explored: Vec<DesignCost> = Vec::with_capacity(candidates.len());
    for candidate in candidates {
        let candidate = simplify(&candidate);
        explored.push(model.cost_with_provider(&candidate, provider, workload)?);
    }
    explored.sort_by(|a, b| a.total_ms.partial_cmp(&b.total_ms).unwrap_or(std::cmp::Ordering::Equal));
    let mut best = explored
        .first()
        .cloned()
        .ok_or_else(|| OptimizerError::InvalidInput("no candidates produced".into()))?;

    // Refine grid strides with simulated annealing when the winner is gridded.
    if options.anneal_iterations > 0 && extract_grid(&best.expr).is_some() {
        let refined = anneal_grid_strides(
            &best,
            provider,
            workload,
            model,
            options.anneal_iterations,
            options.seed,
        )?;
        if refined.total_ms < best.total_ms {
            explored.insert(0, refined.clone());
            best = refined;
        }
    }

    Ok((Recommendation { best, explored }, baseline_cost))
}

fn extract_grid(expr: &LayoutExpr) -> Option<Vec<GridDim>> {
    if let LayoutExpr::Grid { dims, .. } = expr {
        return Some(dims.clone());
    }
    for child in expr.children() {
        if let Some(dims) = extract_grid(child) {
            return Some(dims);
        }
    }
    None
}

fn scale_grid(expr: &LayoutExpr, factor: f64) -> LayoutExpr {
    use LayoutExpr::*;
    match expr {
        Grid { input, dims } => Grid {
            input: Box::new(scale_grid(input, factor)),
            dims: dims
                .iter()
                .map(|d| GridDim::new(d.field.clone(), (d.stride * factor).max(1e-9)))
                .collect(),
        },
        Project { input, fields } => Project {
            input: Box::new(scale_grid(input, factor)),
            fields: fields.clone(),
        },
        ZOrder { input, fields } => ZOrder {
            input: Box::new(scale_grid(input, factor)),
            fields: fields.clone(),
        },
        Compress {
            input,
            fields,
            codec,
        } => Compress {
            input: Box::new(scale_grid(input, factor)),
            fields: fields.clone(),
            codec: *codec,
        },
        OrderBy { input, keys } => OrderBy {
            input: Box::new(scale_grid(input, factor)),
            keys: keys.clone(),
        },
        GroupBy { input, keys } => GroupBy {
            input: Box::new(scale_grid(input, factor)),
            keys: keys.clone(),
        },
        other => other.clone(),
    }
}

/// Simulated annealing over a single continuous parameter: a multiplicative
/// scale applied to every grid stride of the current best design. Renders
/// against the advise-call-wide sampled provider, never re-sampling.
fn anneal_grid_strides(
    start: &DesignCost,
    provider: &MemTableProvider,
    workload: &Workload,
    model: &CostModel,
    iterations: usize,
    seed: u64,
) -> Result<DesignCost> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = start.clone();
    let mut best = start.clone();
    let mut scale = 1.0f64;
    let mut temperature = 1.0f64;
    for _ in 0..iterations {
        let proposal_scale = scale * rng.gen_range(0.5..2.0);
        let candidate_expr = scale_grid(&start.expr, proposal_scale);
        let candidate = model.cost_with_provider(&candidate_expr, provider, workload)?;
        let accept = candidate.total_ms < current.total_ms || {
            let delta = (candidate.total_ms - current.total_ms) / current.total_ms.max(1e-9);
            rng.gen_bool((-delta / temperature.max(1e-3)).exp().clamp(0.0, 1.0))
        };
        if accept {
            current = candidate.clone();
            scale = proposal_scale;
        }
        if candidate.total_ms < best.total_ms {
            best = candidate;
        }
        temperature *= 0.8;
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodentstore_algebra::comprehension::Condition;
    use rodentstore_algebra::expr::TransformKind;
    use rodentstore_exec::ScanRequest;
    use rodentstore_workload::{generate_traces, traces_schema, CartelConfig};

    fn traces() -> (Schema, Vec<Record>) {
        let config = CartelConfig {
            observations: 3_000,
            vehicles: 15,
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
                        "lon", -71.12, -71.08,
                    ))),
            )
            .query(
                ScanRequest::all()
                    .fields(["lat", "lon"])
                    .predicate(Condition::range("lat", 42.38, 42.41).and(Condition::range(
                        "lon", -71.02, -70.98,
                    ))),
            )
    }

    fn fast_options() -> AdvisorOptions {
        AdvisorOptions {
            cost_model: CostModel {
                sample_size: 2_000,
                page_size: 1024,
                cost_params: rodentstore_exec::CostParams {
                    // Keep the sampled data in the I/O-bound regime of the
                    // paper's full-scale dataset: transfer dominates seeks.
                    seek_ms: 1.0,
                    transfer_mb_per_s: 2.0,
                },
            },
            anneal_iterations: 4,
            seed: 7,
        }
    }

    #[test]
    fn advisor_prefers_gridded_layouts_for_spatial_workloads() {
        let (schema, records) = traces();
        let rec = advise(&schema, &records, &spatial_workload(), &fast_options()).unwrap();
        assert!(
            rec.best.expr.contains_kind(TransformKind::Grid),
            "expected a gridded recommendation, got {}",
            rec.best.expr
        );
        // The baseline row layout must be among the explored candidates and
        // must not beat the winner.
        let row = rec
            .explored
            .iter()
            .find(|d| d.expr == rodentstore_algebra::LayoutExpr::table("Traces"))
            .expect("row baseline explored");
        assert!(rec.best.total_ms <= row.total_ms);
    }

    #[test]
    fn advisor_prefers_projection_or_columns_for_narrow_scans() {
        let (schema, records) = traces();
        let workload = Workload::new().query(ScanRequest::all().fields(["lat"]));
        let rec = advise(&schema, &records, &workload, &fast_options()).unwrap();
        assert!(
            rec.best.expr.contains_kind(TransformKind::Project)
                || rec.best.expr.contains_kind(TransformKind::VerticalPartition),
            "got {}",
            rec.best.expr
        );
    }

    #[test]
    fn explored_candidates_are_sorted_by_cost() {
        let (schema, records) = traces();
        let rec = advise(&schema, &records, &spatial_workload(), &fast_options()).unwrap();
        assert!(rec
            .explored
            .windows(2)
            .all(|w| w[0].total_ms <= w[1].total_ms + 1e-9));
        assert!(rec.explored.len() >= 5);
    }

    #[test]
    fn empty_workload_is_rejected() {
        let (schema, records) = traces();
        assert!(advise(&schema, &records, &Workload::new(), &fast_options()).is_err());
        assert!(advise_sampled(
            &schema,
            records.clone(),
            &Workload::new(),
            &fast_options(),
            Some(&LayoutExpr::table("Traces")),
        )
        .is_err());
    }

    #[test]
    fn baseline_is_costed_on_the_same_sample() {
        let (schema, records) = traces();
        let baseline = rodentstore_algebra::LayoutExpr::table("Traces");
        let (rec, cost) = advise_sampled(
            &schema,
            records.clone(),
            &spatial_workload(),
            &fast_options(),
            Some(&baseline),
        )
        .unwrap();
        let cost = cost.expect("row baseline renders over the sample");
        // The baseline (the plain row layout) is also enumerated as a
        // candidate; both costings must agree because they share the sample.
        let explored = rec
            .explored
            .iter()
            .find(|d| d.expr == baseline)
            .expect("row baseline among candidates");
        assert!((explored.total_ms - cost.total_ms).abs() < 1e-9);
        assert_eq!(explored.total_pages, cost.total_pages);

        // An un-renderable baseline (prejoin with a missing table) yields no
        // cost instead of an error.
        let prejoin = LayoutExpr::table("Traces").prejoin(LayoutExpr::table("Missing"), "id");
        let (_, none) = advise_sampled(
            &schema,
            records.clone(),
            &spatial_workload(),
            &fast_options(),
            Some(&prejoin),
        )
        .unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn grid_scaling_rewrites_strides_everywhere() {
        let expr = rodentstore_algebra::LayoutExpr::table("Traces")
            .project(["lat", "lon"])
            .grid([("lat", 0.1), ("lon", 0.2)])
            .zorder();
        let scaled = scale_grid(&expr, 0.5);
        let dims = extract_grid(&scaled).unwrap();
        assert!((dims[0].stride - 0.05).abs() < 1e-12);
        assert!((dims[1].stride - 0.1).abs() < 1e-12);
        assert!(extract_grid(&rodentstore_algebra::LayoutExpr::table("T")).is_none());
    }
}
