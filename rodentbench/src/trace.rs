//! Tracing from outside the engine: an in-memory span buffer and the layer
//! ladder.
//!
//! The engine has no spans of its own yet, so a traced cycle decomposes an
//! operation by *re-executing the same request one layer down* on the same
//! pinned state, right after the real call:
//!
//! ```text
//! core     Database::{scan, scan_aggregate, get_element}      (the op itself)
//! exec     AccessMethods::{scan, scan_aggregate, get_element}
//! layout   PhysicalLayout::{scan, scan_aggregate, get_element}
//! storage  Pager::read_frame over the pages the layout rung read
//! ```
//!
//! A layer's self time is its rung minus the rung below. Parent links in the
//! span file give this ladder, not wall-clock nesting: the rungs of one op
//! run one after another and share its `op_id`.

use crate::json::Json;
use crate::stats::median;
use crate::workloads::OpKind;
use rodentstore::{AccessMethods, Condition, ScanRequest, WindowedAggregate};
use rodentstore_algebra::value::Record;
use rodentstore_layout::{extract_ranges, PhysicalLayout};
use rodentstore_storage::PageId;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the span belongs to (`core`, `exec`, `layout`, `storage`,
    /// or `probe` for direct layer probes outside any op).
    pub layer: &'static str,
    /// What ran (`query`, `scan`, `read_frame`, …).
    pub what: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span one rung up, if any.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one operation.
    pub op_id: u64,
}

/// The span buffer of a run: filled in memory, written once at exit.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty buffer; span times count from now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span measured by the caller; returns its index.
    pub fn record(
        &mut self,
        layer: &'static str,
        what: &'static str,
        parent: Option<usize>,
        op_id: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            layer,
            what,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
            parent,
            op_id,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a new span; returns its result, the span's index and
    /// its duration in seconds.
    pub fn timed<T>(
        &mut self,
        layer: &'static str,
        what: &'static str,
        parent: Option<usize>,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.record(layer, what, parent, op_id, start, end);
        (out, id, (end - start).as_secs_f64())
    }

    /// Writes the buffer as one JSON array of
    /// `{name, start_ns, end_ns, parent, op_id}` objects.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(format!("{}.{}", s.layer, s.what))),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op_id".into(), Json::Num(s.op_id as f64)),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, Json::Arr(spans).render() + "\n")
    }
}

/// What a laddered op asks of each layer.
pub enum LadderRequest<'a> {
    /// A scan (selective or full).
    Scan(&'a ScanRequest),
    /// A windowed aggregate over the whole table.
    Aggregate(&'a WindowedAggregate),
    /// An element lookup.
    Get(usize),
}

/// Seconds spent on each rung for one op, plus what the layout rung moved.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rungs {
    /// `Database`-level time (the op itself).
    pub core_s: f64,
    /// `AccessMethods`-level time.
    pub exec_s: f64,
    /// `PhysicalLayout`-level time.
    pub layout_s: f64,
    /// `Pager::read_frame` time over the pages the layout rung read.
    pub storage_s: f64,
    /// Rows the layout rung returned (or folded).
    pub rows: u64,
    /// Pages the layout rung read.
    pub pages: u64,
}

/// What a rung produced: a result set (kept until its timer stopped) or a
/// count of rows folded.
enum Served {
    Rows(Vec<Record>),
    Count(u64),
}

impl Served {
    fn count(&self) -> u64 {
        match self {
            Served::Rows(rows) => rows.len() as u64,
            Served::Count(n) => *n,
        }
    }
}

/// Runs the three lower rungs of the ladder for one op against `access`, the
/// rendering the op itself was served from, recording one span per rung under
/// `root`. `None` when the rendering cannot serve the request (the engine
/// then answers from its canonical rows and there is nothing below `core`).
pub fn run_ladder(
    tracer: &mut Tracer,
    access: &AccessMethods,
    request: &LadderRequest<'_>,
    kind: OpKind,
    root: usize,
    op_id: u64,
    core_s: f64,
) -> Option<Rungs> {
    let layout = access.layout();
    let what = kind.name();
    let stats = layout.pager().stats();
    let needed: Vec<String> = match request {
        LadderRequest::Scan(r) => r
            .fields
            .iter()
            .flatten()
            .cloned()
            .chain(r.predicate.iter().flat_map(Condition::referenced_fields))
            .collect(),
        LadderRequest::Aggregate(spec) => {
            vec![spec.bucket_field.clone(), spec.value_field.clone()]
        }
        LadderRequest::Get(_) => Vec::new(),
    };
    if !needed.iter().all(|f| layout.schema.index_of(f).is_ok()) {
        return None;
    }

    // Each rung hands its result out of the timed closure, as the op itself
    // does: freeing a large result set is the caller's time, not the rung's.
    let (served, exec_span, exec_s) =
        tracer.timed("exec", what, Some(root), op_id, || match request {
            LadderRequest::Scan(r) => access.scan(r).map(Served::Rows).ok(),
            LadderRequest::Aggregate(spec) => access
                .scan_aggregate(spec, None)
                .map(|acc| Served::Count(acc.rows_folded()))
                .ok(),
            LadderRequest::Get(i) => access.get_element(*i, None).map(|_| Served::Count(1)).ok(),
        });
    served?;

    let before = stats.snapshot();
    let (served, layout_span, layout_s) =
        tracer.timed("layout", what, Some(exec_span), op_id, || match request {
            LadderRequest::Scan(r) => layout
                .scan(r.fields.as_deref(), r.predicate.as_ref())
                .map(Served::Rows)
                .ok(),
            LadderRequest::Aggregate(spec) => layout
                .scan_aggregate(spec, None)
                .map(|acc| Served::Count(acc.rows_folded()))
                .ok(),
            LadderRequest::Get(i) => layout.get_element(*i, None).map(|_| Served::Count(1)).ok(),
        });
    let rows = served?.count();
    let pages = stats.snapshot().since(&before).pages_read;

    let touched = touched_pages(layout, request, pages as usize);
    let pager = layout.pager();
    let ((), _, storage_s) =
        tracer.timed("storage", "read_frame", Some(layout_span), op_id, || {
            for &id in &touched {
                std::hint::black_box(pager.read_frame(id).ok());
            }
        });

    Some(Rungs {
        core_s,
        exec_s,
        layout_s,
        storage_s,
        rows,
        pages,
    })
}

/// The pages a request makes the layout read: the extents of the objects and
/// lsm runs its projection and predicate select. When that list and the
/// count the pager reported disagree (index probes and element lookups read
/// a subset), the first `want` pages of the list stand in — `read_frame`
/// costs the same whichever page of the file it serves.
fn touched_pages(layout: &PhysicalLayout, request: &LadderRequest<'_>, want: usize) -> Vec<PageId> {
    let (fields, predicate): (Option<Vec<String>>, Option<&Condition>) = match request {
        LadderRequest::Scan(r) => (r.fields.clone(), r.predicate.as_ref()),
        LadderRequest::Aggregate(spec) => (
            Some(vec![spec.bucket_field.clone(), spec.value_field.clone()]),
            None,
        ),
        LadderRequest::Get(_) => (None, None),
    };
    let mut pages: Vec<PageId> = layout
        .objects_to_read(fields.as_deref(), predicate)
        .into_iter()
        .flat_map(|i| layout.objects[i].heap.extent())
        .collect();
    if let Some(lsm) = &layout.lsm {
        let ranges = predicate.map(extract_ranges).unwrap_or_default();
        for run in lsm.runs.iter().filter(|r| r.may_match(&lsm.key, &ranges)) {
            pages.extend(run.heap.extent());
        }
    }
    if pages.len() != want {
        if pages.is_empty() {
            pages = layout.extent_pages().unwrap_or_default();
        }
        if !pages.is_empty() {
            pages = pages.iter().copied().cycle().take(want).collect();
        }
    }
    pages
}

/// Ladder samples of one cycle, grouped by op kind.
#[derive(Debug, Default)]
pub struct LadderSamples {
    by_kind: BTreeMap<OpKind, Vec<Rungs>>,
}

impl LadderSamples {
    /// Adds one op's rungs.
    pub fn push(&mut self, kind: OpKind, rungs: Rungs) {
        self.by_kind.entry(kind).or_default().push(rungs);
    }

    /// Median seconds per rung for `kind`, outermost first, with the median
    /// rows and pages of the layout rung. `None` without samples.
    pub fn medians(&self, kind: OpKind) -> Option<([f64; 4], f64, f64)> {
        let samples = self.by_kind.get(&kind).filter(|s| !s.is_empty())?;
        let col = |f: fn(&Rungs) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
        Some((
            [
                col(|r| r.core_s),
                col(|r| r.exec_s),
                col(|r| r.layout_s),
                col(|r| r.storage_s),
            ],
            col(|r| r.rows as f64),
            col(|r| r.pages as f64),
        ))
    }

    /// Self seconds per layer for `kind` (rung minus the rung below, floored
    /// at zero), outermost first; zeros without samples.
    pub fn self_times(&self, kind: OpKind) -> [f64; 4] {
        match self.medians(kind) {
            Some((m, _, _)) => [
                (m[0] - m[1]).max(0.0),
                (m[1] - m[2]).max(0.0),
                (m[2] - m[3]).max(0.0),
                m[3],
            ],
            None => [0.0; 4],
        }
    }

    /// Largest relative gap, over the laddered kinds, between the sum of the
    /// self times and the `Database`-level time (0 when every rung nests).
    pub fn gap_ratio(&self) -> f64 {
        self.by_kind
            .keys()
            .filter_map(|&kind| {
                let (m, _, _) = self.medians(kind)?;
                let sum: f64 = self.self_times(kind).iter().sum();
                (m[0] > 0.0).then(|| (sum - m[0]).abs() / m[0])
            })
            .fold(0.0, f64::max)
    }

    /// Total `read_frame` seconds and pages over every laddered op.
    pub fn read_frame_totals(&self) -> (f64, u64) {
        self.by_kind
            .values()
            .flatten()
            .fold((0.0, 0), |(s, p), r| (s + r.storage_s, p + r.pages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_telescope_to_the_core_time() {
        let mut samples = LadderSamples::default();
        for k in 0..5 {
            let jitter = k as f64 * 1e-6;
            samples.push(
                OpKind::Scan,
                Rungs {
                    core_s: 10e-3 + jitter,
                    exec_s: 9e-3 + jitter,
                    layout_s: 8e-3 + jitter,
                    storage_s: 1e-3,
                    rows: 100,
                    pages: 7,
                },
            );
        }
        let selfs = samples.self_times(OpKind::Scan);
        let (medians, rows, pages) = samples.medians(OpKind::Scan).unwrap();
        assert!((selfs.iter().sum::<f64>() - medians[0]).abs() < 1e-12);
        assert_eq!((rows, pages), (100.0, 7.0));
        assert!(samples.gap_ratio() < 1e-9);
        assert_eq!(samples.self_times(OpKind::Get), [0.0; 4]);
        assert_eq!(samples.read_frame_totals().1, 35);
    }

    #[test]
    fn span_file_is_a_json_array() {
        let mut tracer = Tracer::new();
        let ((), root, _) = tracer.timed("core", "query", None, 7, || ());
        tracer.timed("exec", "query", Some(root), 7, || ());
        let dir = Path::new(crate::scratch::SCRATCH_ROOT)
            .join(format!("span-test-{}", std::process::id()));
        let path = dir.join("trace.json");
        tracer.write(&path).unwrap();
        let parsed = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(parsed.items().len(), 2);
        assert_eq!(
            parsed.items()[1].get("parent").and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(
            parsed.items()[0].get("name").and_then(Json::as_str),
            Some("core.query")
        );
    }
}
