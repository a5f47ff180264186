//! The four workloads: which data, which layout, which mix of operations.
//!
//! Every workload speaks the same op vocabulary — selective query, full
//! projected scan, windowed aggregate, element lookup, insert batch,
//! checkpoint, and a final drop-and-reopen — so every end-to-end metric is
//! defined on every workload. What differs is the relation, the physical
//! layout the ops run against, and the mix. Sizes are fixed here: a run
//! repeats whole cycles of this fixed work until `--seconds` have been
//! measured, so the work per cycle never depends on how fast the machine is.

use crate::data::{Cartel, Family, Telemetry};
use rodentstore::{AdaptivePolicy, AdvisorOptions, CostParams, LayoutExpr, ReorgStrategy};
use rodentstore_optimizer::CostModel;

/// One operation of the shared vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Selective query: a 1 %-area box (CarTel) or a 1 %-of-`ts` window
    /// (telemetry), projected to two fields.
    Query,
    /// Full scan projected to two fields.
    Scan,
    /// Full windowed aggregate, pushed into the scan.
    Aggregate,
    /// `get_element` at a random position.
    Get,
    /// One durable insert batch.
    Insert,
    /// `Database::checkpoint`.
    Checkpoint,
}

impl OpKind {
    /// Lower-case name used in span names.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Query => "query",
            OpKind::Scan => "scan",
            OpKind::Aggregate => "aggregate",
            OpKind::Get => "get",
            OpKind::Insert => "insert",
            OpKind::Checkpoint => "checkpoint",
        }
    }
}

/// Op `i` of a cycle is `kind` when `i % every == phase` (first matching rule
/// wins; otherwise the workload's base kind).
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// The op this rule schedules.
    pub kind: OpKind,
    /// Period, in ops.
    pub every: usize,
    /// Offset within the period.
    pub phase: usize,
}

const fn rule(kind: OpKind, every: usize, phase: usize) -> Rule {
    Rule { kind, every, phase }
}

/// Which relation a workload runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `Traces(t, lat, lon, id)`, 1 KB pages (the paper's case study).
    Cartel,
    /// `Telemetry(ts, sensor, value, status, seq)`, 4 KB pages.
    Telemetry,
}

/// How the table's physical layout comes about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutPlan {
    /// Declared before the initial load (the way an ingest pipeline would).
    DeclareFirst(&'static str),
    /// Rows are loaded raw, then the layout is declared eagerly — one full
    /// re-layout of the loaded table inside set-up.
    Relayout(&'static str),
    /// The paper's N4 design, declared eagerly after the raw load.
    RelayoutN4,
    /// Rows are loaded raw and rendered row-major (the paper's N1); from
    /// there the engine's closed adaptive loop owns the layout.
    Adaptive,
}

/// A workload definition.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// One line on why the workload exists (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// The relation.
    pub relation: Relation,
    /// How the layout comes about.
    pub layout: LayoutPlan,
    /// Rows loaded during set-up.
    pub initial_rows: usize,
    /// Rows per insert batch.
    pub batch_rows: usize,
    /// Ops per cycle.
    pub ops: usize,
    /// The kind of every op no rule claims.
    pub base: OpKind,
    /// The schedule of the other kinds.
    pub rules: &'static [Rule],
    /// Telemetry only: queries ask for the newest window, not a random one.
    pub recent_queries: bool,
}

/// Page size of the CarTel workloads (the paper's ~1 KB pages).
pub const CARTEL_PAGE: usize = 1024;
/// Page size of the telemetry workloads.
pub const TELEMETRY_PAGE: usize = 4096;
/// The scan-side layout of the telemetry relation.
pub const COMPRESSED_COLUMNS: &str =
    "delta[ts,seq](vertical[ts,value|sensor,status,seq](Telemetry))";
/// The ingest-side layout of the telemetry relation.
pub const LSM_TIER: &str = "lsm[ts](Telemetry)";
/// `--quick` divides the initial row count and the batch size by this; the
/// op schedule stays as it is, so a quick run exercises every code path of a
/// full one.
pub const QUICK_DIV: usize = 50;

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cartel_spatial",
        why: "paper's case study: 1%-area boxes on N4 (grid+zorder+delta); pruning and cell decode do the work, writes are a trickle",
        relation: Relation::Cartel,
        layout: LayoutPlan::RelayoutN4,
        initial_rows: 200_000,
        batch_rows: 100,
        ops: 2_000,
        base: OpKind::Query,
        rules: &[
            rule(OpKind::Checkpoint, 500, 450),
            rule(OpKind::Insert, 25, 0),
            rule(OpKind::Scan, 250, 1),
            rule(OpKind::Aggregate, 250, 126),
        ],
        recent_queries: false,
    },
    Workload {
        name: "telemetry_ingest",
        why: "write-heavy: 1000-row durable batches into lsm[ts]; WAL commit, absorb/spill/merge and checkpoints do the work, reads run over the lsm path",
        relation: Relation::Telemetry,
        layout: LayoutPlan::DeclareFirst(LSM_TIER),
        initial_rows: 0,
        batch_rows: 1_000,
        ops: 320,
        base: OpKind::Insert,
        rules: &[
            rule(OpKind::Checkpoint, 80, 72),
            rule(OpKind::Scan, 80, 73),
            rule(OpKind::Aggregate, 80, 74),
            rule(OpKind::Query, 4, 3),
        ],
        recent_queries: true,
    },
    Workload {
        name: "telemetry_scan",
        why: "read-heavy analytic: scans, aggregates and range windows over delta-compressed column groups; page read, frame and codec decode do the work",
        relation: Relation::Telemetry,
        layout: LayoutPlan::Relayout(COMPRESSED_COLUMNS),
        initial_rows: 200_000,
        batch_rows: 1_000,
        ops: 120,
        base: OpKind::Query,
        rules: &[
            rule(OpKind::Checkpoint, 60, 52),
            rule(OpKind::Scan, 12, 1),
            rule(OpKind::Aggregate, 12, 7),
            rule(OpKind::Insert, 3, 0),
            rule(OpKind::Get, 6, 2),
        ],
        recent_queries: false,
    },
    Workload {
        name: "cartel_adaptive",
        why: "reads beside writes with the adaptive loop closed: advise, re-layout, pending rows and epoch reclamation sit on the critical path",
        relation: Relation::Cartel,
        layout: LayoutPlan::Adaptive,
        initial_rows: 50_000,
        batch_rows: 100,
        ops: 960,
        base: OpKind::Query,
        rules: &[
            rule(OpKind::Checkpoint, 60, 50),
            rule(OpKind::Insert, 8, 0),
            rule(OpKind::Scan, 120, 1),
            rule(OpKind::Aggregate, 120, 61),
        ],
        recent_queries: false,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Page size of the workload's database.
    pub fn page_size(&self) -> usize {
        match self.relation {
            Relation::Cartel => CARTEL_PAGE,
            Relation::Telemetry => TELEMETRY_PAGE,
        }
    }

    /// Rows loaded in set-up, after `--quick` scaling.
    pub fn initial(&self, quick: bool) -> usize {
        if quick {
            self.initial_rows / QUICK_DIV
        } else {
            self.initial_rows
        }
    }

    /// Rows per insert batch, after `--quick` scaling.
    pub fn batch(&self, quick: bool) -> usize {
        if quick {
            (self.batch_rows / QUICK_DIV).max(1)
        } else {
            self.batch_rows
        }
    }

    /// The kind of op `i` of a cycle.
    pub fn kind_of(&self, i: usize) -> OpKind {
        self.rules
            .iter()
            .find(|r| i % r.every == r.phase)
            .map_or(self.base, |r| r.kind)
    }

    /// Insert batches one cycle consumes.
    pub fn inserts_per_cycle(&self) -> usize {
        (0..self.ops)
            .filter(|&i| self.kind_of(i) == OpKind::Insert)
            .count()
    }

    /// Generates the workload's data from `seed`.
    pub fn generate(&self, seed: u64, quick: bool) -> Box<dyn Family> {
        let (initial, batch) = (self.initial(quick), self.batch(quick));
        let stream = self.inserts_per_cycle() * batch;
        match self.relation {
            Relation::Cartel => Box::new(Cartel::generate(seed, initial, stream, batch)),
            Relation::Telemetry => Box::new(Telemetry::generate(
                seed,
                initial,
                stream,
                batch,
                self.recent_queries,
            )),
        }
    }

    /// The layout expression set-up declares.
    pub fn declared_layout(&self) -> LayoutExpr {
        match self.layout {
            LayoutPlan::DeclareFirst(text) | LayoutPlan::Relayout(text) => {
                rodentstore::parse(text).expect("workload layouts are valid algebra")
            }
            LayoutPlan::RelayoutN4 => Cartel::n4_layout(),
            LayoutPlan::Adaptive => LayoutExpr::table("Traces"),
        }
    }
}

/// The adaptive policy `cartel_adaptive` runs under — fixed here, not read
/// from the environment. Cadence, hysteresis and annealing budget are the
/// engine's defaults. The advisor's cost model is the I/O-bound disk model
/// the repository's own CarTel adaptivity tests use (1 KB pages, 1 ms seeks,
/// 2 MB/s, a 4 000-row sample). Adaptations are applied new-data-only:
/// inserts go to the pending buffer and the first read after an adaptation
/// pays the re-layout. Under the eager strategy an insert into
/// `index[lat,lon](Traces)` — a design the advisor keeps wandering through —
/// rebuilds the tree (~0.4 s per batch at 200 000 rows), which made insert
/// latency bimodal from seed to seed.
pub fn adaptive_policy() -> AdaptivePolicy {
    AdaptivePolicy {
        auto: true,
        advisor: AdvisorOptions {
            cost_model: CostModel {
                sample_size: 4_000,
                page_size: CARTEL_PAGE,
                cost_params: CostParams {
                    seek_ms: 1.0,
                    transfer_mb_per_s: 2.0,
                },
            },
            ..AdvisorOptions::default()
        },
        strategy: ReorgStrategy::NewDataOnly,
        ..AdaptivePolicy::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn every_workload_schedules_every_measured_kind() {
        for w in &WORKLOADS {
            {
                let ops = w.ops;
                let mut counts: HashMap<OpKind, usize> = HashMap::new();
                for i in 0..ops {
                    *counts.entry(w.kind_of(i)).or_default() += 1;
                }
                for kind in [
                    OpKind::Query,
                    OpKind::Scan,
                    OpKind::Aggregate,
                    OpKind::Insert,
                    OpKind::Checkpoint,
                ] {
                    assert!(
                        counts.get(&kind).copied().unwrap_or(0) >= 1,
                        "{} schedules no {kind:?}",
                        w.name
                    );
                }
                // Rows must be left in the WAL after the last checkpoint, so
                // the reopen replays at least one commit.
                let last_checkpoint = (0..ops)
                    .rev()
                    .find(|&i| w.kind_of(i) == OpKind::Checkpoint)
                    .unwrap();
                assert!(
                    (last_checkpoint..ops).any(|i| w.kind_of(i) == OpKind::Insert),
                    "{} ends on a checkpoint",
                    w.name
                );
            }
        }
    }

    #[test]
    fn names_are_unique_and_found() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).unwrap().name, w.name);
        }
        assert!(find("nope").is_none());
    }
}
