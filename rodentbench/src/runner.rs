//! The runner: repeats whole cycles of a workload's fixed work until
//! `--seconds` have been measured, checks every result, and folds the samples
//! into the named metrics.
//!
//! One **cycle** = set-up (generate the data from the seed, create a durable
//! database in a scratch directory, load, declare the layout) → the
//! workload's fixed op sequence, each op timed around the engine call and
//! checked against the engine-free reference → drop without a final
//! checkpoint and reopen. Every cycle of a run loads the same data and runs
//! the same schedule of op kinds; only the query parameters differ from
//! cycle to cycle (cycle `k` of seed `s` always asks the same questions).
//! Each cycle yields one reading of every end-to-end metric, and the run
//! reports the good-side quartile of those readings (see `best_quartile`).

use crate::alloc::counted;
use crate::data::{Family, SplitMix};
use crate::metrics::{END_TO_END, HIGHER_IS_BETTER, PER_LAYER};
use crate::scratch::{dir_bytes, peak_rss_bytes, rss_bytes, Scratch};
use crate::stats::{median, quantile};
use crate::trace::{run_ladder, LadderRequest, LadderSamples, Tracer};
use crate::workloads::{adaptive_policy, LayoutPlan, OpKind, Relation, Workload};
use rodentstore::{
    advise, parse, Database, DurabilityOptions, EventKind, MetricsSnapshot, ReorgStrategy,
    SyncPolicy,
};
use rodentstore_algebra::validate;
use rodentstore_bench::{build_designs, Figure2Config};
use rodentstore_layout::{render, MemTableProvider, RenderOptions};
use rodentstore_storage::pager::Pager;
use rodentstore_storage::wal::Wal;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Fewest cycles a run makes, so every metric is a quartile of at least
/// three readings.
pub const MIN_CYCLES: usize = 3;
/// Most cycles a run makes, however fast the machine.
pub const MAX_CYCLES: usize = 16;
/// Rows per insert call of the initial bulk load.
const LOAD_CHUNK: usize = 50_000;
/// Times the database is dropped and reopened at the end of a cycle.
const REOPENS: usize = 3;
/// The tail percentile of `core.query.p95_us` / `core.insert.p95_us`: the
/// highest round percentile with at least ten samples beyond it in a run of
/// every workload (`telemetry_scan` makes 38 queries a cycle).
const TAIL: f64 = 0.95;
/// In a traced cycle every `LADDER_EVERY`-th query and element lookup is
/// laddered (every scan and aggregate is).
const LADDER_EVERY: u64 = 8;
/// Queries averaged at each end of a cycle for the adaptation check.
const ADAPT_WINDOW: usize = 64;
/// Seed and size at which the Figure-2 pin applies.
const FIGURE2_SEED: u64 = 0xF162;
/// Pages the 200 Figure-2 boxes read in total on N1–N4 at the pin: per query
/// 9524 / 5406 / 103.995 / 25.875, which the repository's `figure2` table
/// prints as 9524.0 / 5406.0 / 104.0 / 25.9.
const FIGURE2_TOTAL_PAGES: [u64; 4] = [1_904_800, 1_081_200, 20_799, 5_175];

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of the generators.
    pub seed: u64,
    /// Seconds of op-loop time to measure (whole cycles; at least
    /// [`MIN_CYCLES`]).
    pub seconds: f64,
    /// Emit per-layer metrics from traced cycles instead of end-to-end ones.
    pub trace: bool,
    /// 1/50-size smoke run.
    pub quick: bool,
}

/// One emitted metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of a run.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Ops attempted (reopens included).
    pub attempted: u64,
    /// Ops whose result was wrong or that returned an error.
    pub failed: u64,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: Vec<Metric>,
    /// Hash of the op sequences (kinds and parameters) of the first
    /// [`MIN_CYCLES`] cycles, which every run makes.
    pub op_hash: u64,
    /// Cycles run.
    pub cycles: usize,
    /// Where the span file was written, in a traced run.
    pub trace_file: Option<PathBuf>,
    /// Each cycle's own reading of every end-to-end metric (`--trace 0`),
    /// kept in the `--append` record so run-to-run noise can be told from
    /// cycle-to-cycle noise.
    pub per_cycle: Vec<(&'static str, Vec<f64>)>,
}

/// Everything one cycle measured.
#[derive(Default)]
struct CycleReport {
    traced: bool,
    setup_s: f64,
    relayout_s: f64,
    resident_bytes_per_row: f64,
    /// Seconds per op, by kind.
    durations: BTreeMap<OpKind, Vec<f64>>,
    /// Rows per second of each full scan.
    scan_rates: Vec<f64>,
    /// Wall seconds of the op loop (harness checks included).
    wall_s: f64,
    attempted: u64,
    failed: u64,
    rows_acked: u64,
    reopen_s: Vec<f64>,
    space_amp: f64,
    op_hash: u64,
    /// Pages each selective query read, in op order.
    query_pages: Vec<u64>,
    query_rows: u64,
    adaptations: u64,
    last_adaptation_op: u64,
    rerender_s: f64,
    /// Per-layer readings of this cycle.
    layers: BTreeMap<&'static str, f64>,
}

impl CycleReport {
    fn seconds(&self, kind: OpKind) -> &[f64] {
        self.durations.get(&kind).map_or(&[], Vec::as_slice)
    }

    /// This cycle's reading of an end-to-end metric; the run reports the
    /// [`best_quartile`] over its cycles.
    fn end_to_end(&self, name: &str) -> f64 {
        match name {
            "setup_s" => self.setup_s,
            "query_p50_us" => median(self.seconds(OpKind::Query)) * 1e6,
            "insert_p50_us" => median(self.seconds(OpKind::Insert)) * 1e6,
            "ingest_rows_per_s" => {
                self.rows_acked as f64 / self.seconds(OpKind::Insert).iter().sum::<f64>()
            }
            "scan_rows_per_s" => median(&self.scan_rates),
            "aggregate_p50_ms" => median(self.seconds(OpKind::Aggregate)) * 1e3,
            "checkpoint_ms" => median(self.seconds(OpKind::Checkpoint)) * 1e3,
            "reopen_ms" => median(&self.reopen_s) * 1e3,
            "space_amp" => self.space_amp,
            "mixed_ops_per_s" => {
                let ops: usize = self.durations.values().map(Vec::len).sum();
                ops as f64 / self.durations.values().flatten().sum::<f64>()
            }
            other => unreachable!("undeclared end-to-end metric {other}"),
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("rodentbench: check failed: {what}");
        }
    }
}

/// Runs the workload and returns its outcome. `Err` is a harness or set-up
/// failure (nothing to report); failed *checks* come back in the outcome.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let scratch = Scratch::create(cfg.workload.name).map_err(|e| format!("scratch dir: {e}"))?;
    let mut tracer = cfg.trace.then(Tracer::new);
    let mut reports: Vec<CycleReport> = Vec::new();
    let mut measured = 0.0;
    // A traced run alternates plain and traced cycles so the overhead ratio
    // compares like with like; it needs two of each.
    let min_cycles = if cfg.trace { 4 } else { MIN_CYCLES };
    while reports.len() < min_cycles || (measured < cfg.seconds && reports.len() < MAX_CYCLES) {
        let index = reports.len();
        let traced = cfg.trace && index % 2 == 1;
        let cycle_tracer = if traced { tracer.as_mut() } else { None };
        let report = Cycle::run(cfg, &scratch, index, cycle_tracer)?;
        measured += report.wall_s;
        reports.push(report);
    }

    let trace_file = match &tracer {
        Some(tracer) => {
            let path = Path::new(crate::scratch::SCRATCH_ROOT)
                .join(format!("trace-{}.json", cfg.workload.name));
            tracer
                .write(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            Some(path)
        }
        None => None,
    };

    let attempted = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let metrics = if cfg.trace {
        per_layer_metrics(&reports)
    } else {
        end_to_end_metrics(&reports)
    };
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        op_hash: reports
            .iter()
            .take(MIN_CYCLES)
            .fold(0, |h, r| crate::data::mix(h ^ r.op_hash)),
        cycles: reports.len(),
        trace_file,
        per_cycle: END_TO_END
            .iter()
            .filter(|(name, _)| !cfg.trace && *name != "peak_rss_mb")
            .map(|&(name, _)| (name, reports.iter().map(|r| r.end_to_end(name)).collect()))
            .collect(),
    })
}

/// A run's reading of an end-to-end metric from its cycles' readings: the
/// quartile on the metric's good side (first for times, third for rates).
/// Every cycle does the same work, and on a shared machine interference only
/// ever slows a cycle down, in phases that last seconds: the good quartile
/// is steady from run to run where the median follows the phases.
fn best_quartile(name: &str, per_cycle: &[f64]) -> f64 {
    let p = if HIGHER_IS_BETTER.contains(&name) {
        0.75
    } else {
        0.25
    };
    quantile(per_cycle, p)
}

fn end_to_end_metrics(reports: &[CycleReport]) -> Vec<Metric> {
    END_TO_END
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: if name == "peak_rss_mb" {
                peak_rss_bytes().unwrap_or(0) as f64 / (1 << 20) as f64
            } else {
                best_quartile(
                    name,
                    &reports
                        .iter()
                        .map(|r| r.end_to_end(name))
                        .collect::<Vec<_>>(),
                )
            },
            unit,
        })
        .collect()
}

fn per_layer_metrics(reports: &[CycleReport]) -> Vec<Metric> {
    let traced: Vec<&CycleReport> = reports.iter().filter(|r| r.traced).collect();
    let plain: Vec<&CycleReport> = reports.iter().filter(|r| !r.traced).collect();
    let wall = |set: &[&CycleReport]| median(&set.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = if name == "trace.overhead_ratio" {
                wall(&traced) / wall(&plain)
            } else if name == "core.resident_bytes_per_row" {
                // Only the first load of a process grows the heap from
                // nothing; later cycles reuse what earlier ones freed.
                reports[0].resident_bytes_per_row
            } else {
                // Cycles that took the reading (the Figure-2 designs are
                // built once per run); 0 when the layer was idle throughout.
                median(
                    &traced
                        .iter()
                        .filter_map(|r| r.layers.get(name).copied())
                        .collect::<Vec<_>>(),
                )
            };
            Metric { name, value, unit }
        })
        .collect()
}

/// One cycle in flight.
struct Cycle<'a> {
    cfg: &'a RunConfig,
    index: usize,
    dir: PathBuf,
    db: Database,
    family: Box<dyn Family>,
    rng: SplitMix,
    report: CycleReport,
    tracer: Option<&'a mut Tracer>,
    ladder: LadderSamples,
    /// `(allocations, bytes)` per row of each laddered full scan.
    scan_allocs: Vec<(f64, f64)>,
    cursor_first_row_s: Vec<f64>,
    checkpoint_phase_s: BTreeMap<String, Vec<f64>>,
    /// Engine advisor time seen so far (`adapt.advise_micros` sum).
    advise_us_seen: u64,
    /// Full renders seen so far (set-up's included).
    full_renders_seen: u64,
}

impl<'a> Cycle<'a> {
    fn run(
        cfg: &'a RunConfig,
        scratch: &Scratch,
        index: usize,
        tracer: Option<&'a mut Tracer>,
    ) -> Result<CycleReport, String> {
        let mut cycle = Cycle::set_up(cfg, scratch, index, tracer)?;
        // Once per run: in the first cycle whose readings are reported.
        if index == usize::from(cfg.trace) {
            cycle.figure2_pass();
        }
        cycle.op_loop();
        if cycle.report.traced {
            cycle.read_layers()?;
        }
        cycle.adaptation_check();
        cycle.reopen()
    }

    /// Set-up, timed: generate, create, load, declare.
    fn set_up(
        cfg: &'a RunConfig,
        scratch: &Scratch,
        index: usize,
        tracer: Option<&'a mut Tracer>,
    ) -> Result<Cycle<'a>, String> {
        let w = cfg.workload;
        let dir = scratch
            .fresh("db")
            .map_err(|e| format!("scratch dir: {e}"))?;
        let err = |e: rodentstore::RodentError| format!("{}: set-up: {e}", w.name);
        let started = Instant::now();
        let mut family = w.generate(cfg.seed, cfg.quick);
        let rss_generated = rss_bytes().unwrap_or(0);
        let db = Database::create_with(
            &dir,
            DurabilityOptions {
                page_size: w.page_size(),
                ..DurabilityOptions::default()
            },
        )
        .map_err(err)?;
        let table = family.table();
        db.create_table(family.schema()).map_err(err)?;
        let declare_first = matches!(w.layout, LayoutPlan::DeclareFirst(_));
        if declare_first {
            db.apply_layout(table, w.declared_layout(), ReorgStrategy::Eager)
                .map_err(err)?;
        }
        for chunk in family.initial_rows().chunks(LOAD_CHUNK) {
            db.insert(table, chunk.to_vec()).map_err(err)?;
        }
        let mut relayout_s = 0.0;
        if !declare_first {
            let relayout = Instant::now();
            db.apply_layout(table, w.declared_layout(), ReorgStrategy::Eager)
                .map_err(err)?;
            relayout_s = relayout.elapsed().as_secs_f64();
        }
        if w.layout == LayoutPlan::Adaptive {
            db.set_adaptive_policy(adaptive_policy());
        }
        let setup_s = started.elapsed().as_secs_f64();
        let rss_loaded = rss_bytes().unwrap_or(0);
        family.build_reference();

        let loaded = family.initial_rows().len();
        let report = CycleReport {
            traced: tracer.is_some(),
            setup_s,
            relayout_s,
            resident_bytes_per_row: if loaded == 0 {
                0.0
            } else {
                rss_loaded.saturating_sub(rss_generated) as f64 / loaded as f64
            },
            ..CycleReport::default()
        };
        Ok(Cycle {
            cfg,
            index,
            dir,
            db,
            family,
            // Request parameters come from their own stream, so they do not
            // depend on how the data generators consume theirs — and from a
            // different one each cycle: the data repeats, the questions asked
            // of it do not, so a run samples more of the query space (and
            // more than one trajectory of the adaptive loop).
            rng: SplitMix(crate::data::mix(cfg.seed ^ 0x5EED_0B5E) ^ index as u64),
            report,
            tracer,
            ladder: LadderSamples::default(),
            scan_allocs: Vec::new(),
            cursor_first_row_s: Vec::new(),
            checkpoint_phase_s: BTreeMap::new(),
            advise_us_seen: 0,
            full_renders_seen: 1,
        })
    }

    fn table(&self) -> &'static str {
        self.family.table()
    }

    /// The paper's query set against the freshly declared N4, untimed: every
    /// box is checked against the reference, and at the default seed and
    /// size the page count must hit the Figure-2 pin. A traced run also
    /// builds N1–N3 and the R-tree baseline and checks them the same way.
    fn figure2_pass(&mut self) {
        let w = self.cfg.workload;
        if w.relation != Relation::Cartel {
            return;
        }
        let cases = self.family.figure2_cases();
        let pinned = self.cfg.seed == FIGURE2_SEED
            && self.family.initial_rows().len() == Figure2Config::default().observations;
        if w.layout == LayoutPlan::RelayoutN4 {
            let before = self.db.io_snapshot();
            for case in &cases {
                self.report.attempted += 1;
                match self.db.scan(self.table(), &case.request) {
                    Ok(rows) if case.expect.accepts(self.family.digest(&rows)) => {}
                    Ok(rows) => self.report.fail(format!(
                        "figure-2 box on N4 returned {} rows, expected {}",
                        rows.len(),
                        case.expect.sure.rows
                    )),
                    Err(e) => self.report.fail(format!("figure-2 box on N4: {e}")),
                }
            }
            let pages = self.db.io_snapshot().since(&before).pages_read;
            self.report.layers.insert(
                "layout.scan.pages_per_query.n4",
                pages as f64 / cases.len() as f64,
            );
            if pinned && pages != FIGURE2_TOTAL_PAGES[3] {
                self.report.fail(format!(
                    "figure-2 pin: N4 read {pages} pages over 200 boxes, expected {}",
                    FIGURE2_TOTAL_PAGES[3]
                ));
            }
        }
        if !self.cfg.trace {
            return;
        }

        // The four layout designs and the R-tree, rendered in memory by the
        // repository's Figure-2 harness from the same seed and sizes.
        let designs = build_designs(&Figure2Config {
            observations: self.family.initial_rows().len(),
            page_size: w.page_size(),
            seed: self.cfg.seed,
            ..Figure2Config::default()
        });
        let mut total_pages = Vec::new();
        for design in &designs.layouts {
            let stats = design.pager.stats();
            let before = stats.snapshot();
            for case in &cases {
                self.report.attempted += 1;
                match design.access.scan(&case.request) {
                    Ok(rows) if case.expect.accepts(self.family.digest(&rows)) => {}
                    Ok(rows) => self.report.fail(format!(
                        "{}: box returned {} rows, expected {}",
                        design.label,
                        rows.len(),
                        case.expect.sure.rows
                    )),
                    Err(e) => self.report.fail(format!("{}: {e}", design.label)),
                }
            }
            total_pages.push(stats.snapshot().since(&before).pages_read);
        }
        let pages_per_query: Vec<f64> = total_pages
            .iter()
            .map(|&pages| pages as f64 / cases.len() as f64)
            .collect();
        for (name, pages) in [
            "layout.scan.pages_per_query.n1",
            "layout.scan.pages_per_query.n2",
            "layout.scan.pages_per_query.n3",
        ]
        .into_iter()
        .zip(&pages_per_query)
        {
            self.report.layers.insert(name, *pages);
        }
        // The adaptive workload has no declared N4; report the harness's.
        self.report
            .layers
            .entry("layout.scan.pages_per_query.n4")
            .or_insert(pages_per_query[3]);
        if !pages_per_query.windows(2).all(|p| p[0] > p[1]) {
            self.report.fail(format!(
                "figure-2 order N1>N2>N3>N4 broken: {pages_per_query:?}"
            ));
        }
        if pinned && total_pages[..] != FIGURE2_TOTAL_PAGES {
            self.report.fail(format!(
                "figure-2 pin: N1-N4 read {total_pages:?} pages over 200 boxes, expected {FIGURE2_TOTAL_PAGES:?}"
            ));
        }
        let rtree_s: Vec<f64> = designs
            .queries
            .iter()
            .map(|q| {
                let started = Instant::now();
                std::hint::black_box(designs.rtree.measure(std::slice::from_ref(q)));
                started.elapsed().as_secs_f64()
            })
            .collect();
        self.report.layers.insert(
            "index.rtree.pages_per_query",
            designs.rtree.measure(&designs.queries).pages_per_query,
        );
        self.report
            .layers
            .insert("index.rtree.query_p50_us", median(&rtree_s) * 1e6);
    }

    fn op_loop(&mut self) {
        let w = self.cfg.workload;
        let started = Instant::now();
        let mut hash = 0u64;
        for i in 0..w.ops {
            let kind = w.kind_of(i);
            let op_id = (self.index * w.ops + i) as u64;
            let param = match kind {
                OpKind::Query => self.query(op_id),
                OpKind::Scan => self.scan(op_id),
                OpKind::Aggregate => self.aggregate(op_id),
                OpKind::Get => self.get(op_id),
                OpKind::Insert => self.insert(op_id),
                OpKind::Checkpoint => self.checkpoint(op_id),
            };
            hash = crate::data::mix(hash ^ crate::data::mix(kind as u64 ^ (param << 3)));
            self.report.attempted += 1;
            self.watch_adaptation(i as u64);
        }
        self.report.wall_s = started.elapsed().as_secs_f64();
        self.report.op_hash = hash;
    }

    /// Times `f`, files the duration under `kind`, and opens the op's root
    /// span in a traced cycle. Returns `f`'s result, the seconds, the span.
    fn timed<T>(
        &mut self,
        kind: OpKind,
        op_id: u64,
        f: impl FnOnce(&Database) -> T,
    ) -> (T, f64, Option<usize>) {
        let start = Instant::now();
        let out = f(&self.db);
        let end = Instant::now();
        let secs = (end - start).as_secs_f64();
        self.report.durations.entry(kind).or_default().push(secs);
        let span = self
            .tracer
            .as_deref_mut()
            .map(|t| t.record("core", kind.name(), None, op_id, start, end));
        (out, secs, span)
    }

    /// Runs the lower rungs for the op just served, if this cycle is traced.
    fn ladder(
        &mut self,
        kind: OpKind,
        request: &LadderRequest<'_>,
        span: Option<usize>,
        op_id: u64,
        core_s: f64,
    ) {
        let (Some(tracer), Some(root)) = (self.tracer.as_deref_mut(), span) else {
            return;
        };
        let Ok(Some(access)) = self
            .db
            .catalog()
            .get(self.family.table())
            .map(|state| state.access.clone())
        else {
            return;
        };
        if let LadderRequest::Scan(request) = request {
            if kind == OpKind::Query {
                let ((), _, secs) =
                    tracer.timed("exec", "cursor_first_row", Some(root), op_id, || {
                        if let Ok(mut cursor) = access.open_cursor(request) {
                            std::hint::black_box(cursor.next());
                        }
                    });
                self.cursor_first_row_s.push(secs);
            } else {
                // A full scan: count what the layout allocates per row.
                let (rows, allocs, bytes) = counted(|| {
                    access
                        .layout()
                        .scan(request.fields.as_deref(), None)
                        .map_or(0, |rows| rows.len())
                });
                if rows > 0 {
                    self.scan_allocs
                        .push((allocs as f64 / rows as f64, bytes as f64 / rows as f64));
                }
            }
        }
        if let Some(rungs) = run_ladder(tracer, &access, request, kind, root, op_id, core_s) {
            self.ladder.push(kind, rungs);
        }
    }

    fn query(&mut self, op_id: u64) -> u64 {
        let case = self.family.next_query(&mut self.rng);
        let table = self.table();
        let before = self.db.io_snapshot();
        let (result, secs, span) =
            self.timed(OpKind::Query, op_id, |db| db.scan(table, &case.request));
        self.report
            .query_pages
            .push(self.db.io_snapshot().since(&before).pages_read);
        match result {
            Ok(rows) if case.expect.accepts(self.family.digest(&rows)) => {
                self.report.query_rows += rows.len() as u64;
            }
            Ok(rows) => self.report.fail(format!(
                "query {op_id} returned {} rows, expected {}",
                rows.len(),
                case.expect.sure.rows
            )),
            Err(e) => self.report.fail(format!("query {op_id}: {e}")),
        }
        if (self.report.seconds(OpKind::Query).len() as u64).is_multiple_of(LADDER_EVERY) {
            self.ladder(
                OpKind::Query,
                &LadderRequest::Scan(&case.request),
                span,
                op_id,
                secs,
            );
        }
        case.param_hash
    }

    fn scan(&mut self, op_id: u64) -> u64 {
        let request = self.family.scan_request();
        let expect = self.family.scan_expect();
        let table = self.table();
        let (result, secs, span) = self.timed(OpKind::Scan, op_id, |db| db.scan(table, &request));
        match result {
            Ok(rows) if expect.accepts(self.family.digest(&rows)) => {
                self.report.scan_rates.push(rows.len() as f64 / secs);
            }
            Ok(rows) => self.report.fail(format!(
                "scan {op_id} returned {} rows, expected {}",
                rows.len(),
                expect.sure.rows
            )),
            Err(e) => self.report.fail(format!("scan {op_id}: {e}")),
        }
        self.ladder(
            OpKind::Scan,
            &LadderRequest::Scan(&request),
            span,
            op_id,
            secs,
        );
        0
    }

    fn aggregate(&mut self, op_id: u64) -> u64 {
        let spec = self.family.aggregate_spec();
        let table = self.table();
        let (result, secs, span) = self.timed(OpKind::Aggregate, op_id, |db| {
            db.scan_aggregate(table, &spec, None)
        });
        match result {
            Ok(windows) if self.family.aggregate_matches(&windows) => {}
            Ok(windows) => self.report.fail(format!(
                "aggregate {op_id}: {} buckets diverge from the reference fold",
                windows.len()
            )),
            Err(e) => self.report.fail(format!("aggregate {op_id}: {e}")),
        }
        self.ladder(
            OpKind::Aggregate,
            &LadderRequest::Aggregate(&spec),
            span,
            op_id,
            secs,
        );
        0
    }

    fn get(&mut self, op_id: u64) -> u64 {
        let index = self.rng.below(self.family.visible_rows().max(1) as u64) as usize;
        let table = self.table();
        let (result, secs, span) =
            self.timed(OpKind::Get, op_id, |db| db.get_element(table, index, None));
        match result {
            Ok(row) if self.family.contains(&row) => {}
            Ok(_) => self
                .report
                .fail(format!("get {op_id}: element {index} is not a visible row")),
            Err(e) => self.report.fail(format!("get {op_id}: {e}")),
        }
        if (self.report.seconds(OpKind::Get).len() as u64).is_multiple_of(LADDER_EVERY) {
            self.ladder(OpKind::Get, &LadderRequest::Get(index), span, op_id, secs);
        }
        index as u64
    }

    fn insert(&mut self, op_id: u64) -> u64 {
        let Some(batch) = self.family.next_batch() else {
            self.report
                .fail(format!("insert {op_id}: generated stream exhausted"));
            return 0;
        };
        let rows = batch.len() as u64;
        let table = self.table();
        let (result, _, _) = self.timed(OpKind::Insert, op_id, |db| db.insert(table, batch));
        match result {
            Ok(()) => self.report.rows_acked += rows,
            Err(e) => self.report.fail(format!("insert {op_id}: {e}")),
        }
        rows
    }

    fn checkpoint(&mut self, op_id: u64) -> u64 {
        let (result, _, _) = self.timed(OpKind::Checkpoint, op_id, Database::checkpoint);
        if let Err(e) = result {
            self.report.fail(format!("checkpoint {op_id}: {e}"));
        }
        // Space after the checkpoint: everything in the database directory
        // over the bytes the user handed in. The last one of the cycle stays.
        match dir_bytes(&self.dir) {
            Ok(bytes) => {
                self.report.space_amp = bytes as f64 / self.family.user_bytes().max(1) as f64;
            }
            Err(e) => self
                .report
                .fail(format!("checkpoint {op_id}: sizing the directory: {e}")),
        }
        self.drain_events();
        0
    }

    /// Drains the engine's event ring (it holds 1024 events; spills would
    /// push checkpoint events out), keeping the checkpoint phase timings.
    fn drain_events(&mut self) {
        for event in self.db.events() {
            if let EventKind::Checkpoint { phases, .. } = event.kind {
                for (phase, micros) in phases {
                    self.checkpoint_phase_s
                        .entry(phase)
                        .or_default()
                        .push(micros as f64 / 1e6);
                }
            }
        }
    }

    /// Notes adaptations as they happen: the op index of the last one, and
    /// the time the ops that carried a full re-render spent beyond the
    /// advisor search (under the new-data-only strategy the render lands on
    /// the first access after the adaptation, not on the adapting op).
    fn watch_adaptation(&mut self, op: u64) {
        if self.cfg.workload.layout != LayoutPlan::Adaptive {
            return;
        }
        let advise_us = self
            .db
            .metrics()
            .histogram("adapt.advise_micros")
            .map_or(0, |h| h.sum);
        let stats = self.db.layout_stats(self.table()).unwrap_or_default();
        if stats.adaptations > self.report.adaptations {
            self.report.adaptations = stats.adaptations;
            self.report.last_adaptation_op = op;
        }
        if stats.full_renders > self.full_renders_seen {
            let op_s = self
                .report
                .seconds(self.cfg.workload.kind_of(op as usize))
                .last()
                .copied()
                .unwrap_or(0.0);
            let advise_s = (advise_us - self.advise_us_seen) as f64 / 1e6;
            self.report.rerender_s += (op_s - advise_s).max(0.0);
        }
        self.full_renders_seen = stats.full_renders;
        self.advise_us_seen = advise_us;
    }

    /// The adaptive workload must adapt, and adapting must pay: the last
    /// queries of the cycle read fewer pages than the first.
    fn adaptation_check(&mut self) {
        if self.cfg.workload.layout != LayoutPlan::Adaptive {
            return;
        }
        self.report.attempted += 1;
        let pages = &self.report.query_pages;
        let window = ADAPT_WINDOW.min(pages.len() / 2).max(1);
        let mean = |p: &[u64]| p.iter().sum::<u64>() as f64 / p.len().max(1) as f64;
        let (first, last) = (mean(&pages[..window]), mean(&pages[pages.len() - window..]));
        if self.report.adaptations == 0 {
            self.report.fail("the adaptive loop never adapted".into());
        } else if last >= first && first > 0.0 {
            self.report.fail(format!(
                "adaptation did not pay: last {window} queries read {last:.1} pages/query, first {window} read {first:.1}"
            ));
        }
    }

    /// Reads this cycle's per-layer metrics: registry and I/O counters,
    /// files, ladder medians, and the direct layer probes.
    fn read_layers(&mut self) -> Result<(), String> {
        self.drain_events();
        let table = self.table();
        let m: MetricsSnapshot = self.db.metrics();
        let counter = |name: &str| m.counter(name).unwrap_or(0) as f64;
        let user_bytes = self.family.user_bytes().max(1) as f64;
        let queries = self.report.query_pages.len().max(1) as f64;
        let query_pages: u64 = self.report.query_pages.iter().sum();
        let state = self
            .db
            .catalog()
            .get(table)
            .map_err(|e| e.to_string())?
            .clone();
        let commits = m
            .histogram("wal.commit_micros")
            .map_or(0, |h| h.count)
            .max(1) as f64;
        let wal_bytes =
            counter("wal.truncated_bytes") + self.db.wal().bytes_len().unwrap_or(0) as f64;

        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut put = |name: &'static str, value: f64| {
            layers.insert(name, value);
        };
        let (frame_s, frame_pages) = self.ladder.read_frame_totals();
        put(
            "storage.pager.read_frame_ns_per_page",
            if frame_pages == 0 {
                0.0
            } else {
                frame_s * 1e9 / frame_pages as f64
            },
        );
        put(
            "storage.pager.pages_read_per_op",
            query_pages as f64 / queries,
        );
        put(
            "storage.pager.bytes_written_per_user_byte",
            counter("io.bytes_written") / user_bytes,
        );
        put(
            "storage.pager.file_bytes",
            std::fs::metadata(self.dir.join("data.rodent")).map_or(0.0, |f| f.len() as f64),
        );
        put(
            "storage.pager.free_pages",
            self.db.pager().free_page_count() as f64,
        );
        let p50 = |name: &str| m.histogram(name).map_or(0.0, |h| h.p50 as f64);
        put("storage.wal.commit_p50_us", p50("wal.commit_micros"));
        put("storage.wal.fsync_p50_us", p50("wal.fsync_micros"));
        put(
            "storage.wal.fsyncs_per_commit",
            self.db.wal().sync_count() as f64 / commits,
        );
        put("storage.wal.bytes_per_user_byte", wal_bytes / user_bytes);
        put("storage.wal.truncations", counter("wal.truncations"));

        put(
            "layout.scan.rows_returned_per_page_read",
            self.report.query_rows as f64 / (query_pages.max(1)) as f64,
        );
        put("layout.scan.frame_hits", counter("scan.frame_hits"));
        put("layout.scan.frame_copies", counter("scan.frame_copies"));
        put("layout.lsm.absorb_p50_us", p50("lsm.absorb_micros"));
        put(
            "layout.lsm.absorb_p99_us",
            m.histogram("lsm.absorb_micros")
                .map_or(0.0, |h| h.p99 as f64),
        );
        put("layout.lsm.spills", counter("lsm.spills"));
        put("layout.lsm.merges", counter("lsm.merges"));
        put("layout.lsm.pages_written", counter("lsm.pages_written"));
        put("layout.lsm.pages_freed", counter("lsm.pages_freed"));
        put(
            "exec.scan_pages.predicted_over_actual",
            counter(&format!("calibration.{table}.predicted_pages"))
                / counter(&format!("calibration.{table}.actual_pages")).max(1.0),
        );
        put(
            "optimizer.advise.calls",
            m.histogram("adapt.advise_micros")
                .map_or(0.0, |h| h.count as f64),
        );
        put(
            "optimizer.advise.engine_ms_total",
            m.histogram("adapt.advise_micros")
                .map_or(0.0, |h| h.sum as f64 / 1e3),
        );
        put("core.adapt.checks", counter("adapt.checks"));
        put("core.adapt.adaptations", counter("adapt.adaptations"));
        put(
            "core.epoch.reclaimed_pages",
            counter("epoch.reclaimed_pages"),
        );
        put("core.epoch.retired_bytes", counter("epoch.retired_bytes"));
        put("core.pending_rows_at_end", state.pending.len() as f64);
        put(
            "core.checkpoint.manifest_bytes",
            std::fs::metadata(self.dir.join("manifest.rodent")).map_or(0.0, |f| f.len() as f64),
        );
        put(
            "core.open.replayed_commits",
            self.db
                .wal()
                .committed_ops()
                .map_or(0.0, |ops| ops.len() as f64),
        );
        put(
            "core.adapt.converged_after_ops",
            self.report.last_adaptation_op as f64,
        );
        put("core.adapt.rerender_ms_total", self.report.rerender_s * 1e3);
        put("core.relayout_ms", self.report.relayout_s * 1e3);
        for (name, _) in &PER_LAYER {
            let phase = name
                .strip_prefix("core.checkpoint.phase.")
                .and_then(|rest| rest.strip_suffix("_ms"));
            if let Some(phase) = phase {
                let samples = self.checkpoint_phase_s.get(phase);
                put(name, median(samples.map_or(&[], Vec::as_slice)) * 1e3);
            }
        }

        // The ladder: a layer's self time is its rung minus the rung below.
        let visible = self.family.visible_rows().max(1) as f64;
        let scan = self.ladder.self_times(OpKind::Scan);
        let aggregate = self.ladder.self_times(OpKind::Aggregate);
        let query = self.ladder.self_times(OpKind::Query);
        put("core.scan.self_us", scan[0] * 1e6);
        put("exec.scan.self_us", scan[1] * 1e6);
        put("layout.scan.self_ns_per_row", scan[2] * 1e9 / visible);
        put(
            "layout.lsm.scan_self_ns_per_row",
            if state
                .access
                .as_ref()
                .is_some_and(|a| a.layout().lsm.is_some())
            {
                scan[2] * 1e9 / visible
            } else {
                0.0
            },
        );
        put(
            "layout.scan.rows_per_s",
            self.ladder
                .medians(OpKind::Scan)
                .map_or(
                    0.0,
                    |(rungs, rows, _)| if rungs[2] > 0.0 { rows / rungs[2] } else { 0.0 },
                ),
        );
        put("core.aggregate.self_us", aggregate[0] * 1e6);
        put("exec.aggregate.self_us", aggregate[1] * 1e6);
        put(
            "layout.aggregate.self_ns_per_row",
            aggregate[2] * 1e9 / visible,
        );
        put("core.query.self_us", query[0] * 1e6);
        put("exec.query.self_us", query[1] * 1e6);
        put("layout.query.self_us", query[2] * 1e6);
        put(
            "layout.get_element.p50_us",
            self.ladder
                .medians(OpKind::Get)
                .map_or(0.0, |(rungs, _, _)| rungs[2] * 1e6),
        );
        put("trace.ladder_gap_ratio", self.ladder.gap_ratio());
        let allocs: Vec<f64> = self.scan_allocs.iter().map(|a| a.0).collect();
        let alloc_bytes: Vec<f64> = self.scan_allocs.iter().map(|a| a.1).collect();
        put("layout.scan.allocs_per_row", median(&allocs));
        put("layout.scan.alloc_bytes_per_row", median(&alloc_bytes));
        put(
            "exec.cursor.first_row_us",
            median(&self.cursor_first_row_s) * 1e6,
        );
        for (name, kind) in [
            ("core.query.p95_us", OpKind::Query),
            ("core.insert.p95_us", OpKind::Insert),
        ] {
            put(name, quantile(self.report.seconds(kind), TAIL) * 1e6);
        }
        let insert_p50 = median(self.report.seconds(OpKind::Insert)) * 1e6;
        put(
            "core.insert.self_us",
            (insert_p50 - p50("wal.commit_micros") - p50("lsm.absorb_micros")).max(0.0),
        );

        // Direct probes: each layer's public entry point on the same data.
        let schema = self.family.schema();
        let expr = state
            .layout_expr
            .clone()
            .unwrap_or_else(|| rodentstore::LayoutExpr::table(table));
        let text = expr.to_string();
        let parse_s: Vec<f64> = (0..50)
            .map(|_| {
                let started = Instant::now();
                let parsed = parse(&text).and_then(|e| validate::check(&e, &schema).map(|_| e));
                std::hint::black_box(parsed.is_ok());
                started.elapsed().as_secs_f64()
            })
            .collect();
        put("algebra.parse_validate_us", median(&parse_s) * 1e6);

        let rows = self.family.visible().to_vec();
        let provider = MemTableProvider::single(schema.clone(), rows.clone());
        let started = Instant::now();
        let rendered = render(
            &expr,
            &provider,
            Arc::new(Pager::in_memory_with_page_size(
                self.cfg.workload.page_size(),
            )),
            RenderOptions::default(),
        );
        let render_s = started.elapsed().as_secs_f64();
        put(
            "layout.render.rows_per_s",
            if rendered.is_ok() {
                rows.len() as f64 / render_s
            } else {
                0.0
            },
        );
        drop(rendered);

        let workload = self
            .db
            .workload_profile(table)
            .map_err(|e| e.to_string())?
            .to_workload();
        let options = adaptive_policy().advisor;
        let advise_s: Vec<f64> = (0..3)
            .filter_map(|_| {
                let started = Instant::now();
                advise(&schema, &rows, &workload, &options).ok()?;
                Some(started.elapsed().as_secs_f64())
            })
            .collect();
        put("optimizer.advise.p50_ms", median(&advise_s) * 1e3);

        // One durable commit of a batch-sized payload on a log of its own.
        let payload =
            vec![0xA5u8; (user_bytes / visible) as usize * self.cfg.workload.batch(self.cfg.quick)];
        let wal_path = self.dir.join("probe.wal");
        let wal = Wal::create(&wal_path, SyncPolicy::GroupDurable).map_err(|e| e.to_string())?;
        let commit_s: Vec<f64> = (0..50)
            .filter_map(|_| {
                let started = Instant::now();
                let tx = wal.begin().ok()?;
                wal.log_op(tx, &payload).ok()?;
                wal.commit(tx).ok()?;
                Some(started.elapsed().as_secs_f64())
            })
            .collect();
        drop(wal);
        let _ = std::fs::remove_file(&wal_path);
        put("storage.wal.direct_commit_us", median(&commit_s) * 1e6);
        self.report.layers.extend(layers);
        Ok(())
    }

    /// Drops the database with rows still in the WAL, reopens it, and checks
    /// that every acknowledged row — and nothing else — came back.
    fn reopen(self) -> Result<CycleReport, String> {
        let table = self.table();
        let dir = self.dir.clone();
        let Cycle {
            db,
            family,
            mut report,
            ..
        } = self;
        drop(db);
        for round in 0..REOPENS {
            report.attempted += 1;
            let started = Instant::now();
            let reopened = Database::open(&dir);
            report.reopen_s.push(started.elapsed().as_secs_f64());
            let db = match reopened {
                Ok(db) => db,
                Err(e) => {
                    report.fail(format!("reopen {round}: {e}"));
                    continue;
                }
            };
            match db.row_count(table) {
                Ok(rows) if rows == family.visible_rows() => {}
                Ok(rows) => report.fail(format!(
                    "reopen {round}: {rows} rows, {} were acknowledged",
                    family.visible_rows()
                )),
                Err(e) => report.fail(format!("reopen {round}: {e}")),
            }
            if round + 1 == REOPENS {
                // Auto-adaptation is persisted with the policy; this is a
                // check, not traffic, so keep it out of the loop.
                db.set_auto_adapt(false);
                match db.scan(table, &family.scan_request()) {
                    Ok(rows) if family.scan_expect().accepts(family.digest(&rows)) => {}
                    Ok(rows) => report.fail(format!(
                        "reopen: scan returned {} rows that do not match the reference",
                        rows.len()
                    )),
                    Err(e) => report.fail(format!("reopen: scan: {e}")),
                }
            }
        }
        Ok(report)
    }
}
