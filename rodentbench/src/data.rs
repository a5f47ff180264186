//! The two data families the workloads draw from, each with an engine-free
//! reference that says what every operation must return.
//!
//! A family owns the generated rows (the initial load plus the stream later
//! inserts take from), hands out the requests of the shared op vocabulary
//! (selective query, full projected scan, windowed aggregate, element
//! lookup, insert batch) and keeps a reference model of the rows made
//! visible so far. Results are compared as order-independent digests — a row
//! count plus a wrapping sum of per-row hashes — because every layout returns
//! rows in its own storage order.
//!
//! The engine's `delta` codec stores floats to 10⁻⁶ (its documented
//! quantization), so a delta-compressed layout returns coordinates rounded
//! to micro-degrees and evaluates predicates on the rounded values. The
//! CarTel reference therefore hashes coordinates as micro-degree integers
//! (the same under either representation) and treats points within 10⁻⁶ of a
//! query edge or an aggregate bucket edge as free to fall on either side.

use rodentstore::{
    Condition, LayoutExpr, ScanRequest, Schema, Value, WindowRow, WindowedAggregate,
};
use rodentstore_algebra::value::Record;
use rodentstore_layout::rowcodec::encode_record;
use rodentstore_workload::{
    generate_telemetry, generate_traces, random_square_queries, telemetry_schema, traces_schema,
    BoundingBox, CartelConfig, SpatialQuery, TelemetryConfig,
};
use std::collections::BTreeMap;

/// SplitMix64: the harness's own generator for request parameters, so the op
/// sequence depends only on `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// The SplitMix64 finalizer, also used as the row hash's mixing step.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pair_hash(a: u64, b: u64) -> u64 {
    mix(mix(a) ^ b)
}

/// Order-independent digest of a result set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    /// Rows in the set.
    pub rows: u64,
    /// Wrapping sum of the rows' hashes.
    pub sum: u64,
}

impl Digest {
    fn add(&mut self, row_hash: u64) {
        self.rows += 1;
        self.sum = self.sum.wrapping_add(row_hash);
    }
}

/// What a result set must be: every `sure` row, plus any subset of the
/// `maybe` rows (hashes of rows on a quantization edge).
#[derive(Debug, Clone, Default)]
pub struct Expect {
    /// Digest of the rows that must be present.
    pub sure: Digest,
    /// Hashes of the rows that may be present.
    pub maybe: Vec<u64>,
}

impl Expect {
    fn exactly(sure: Digest) -> Expect {
        Expect {
            sure,
            maybe: Vec::new(),
        }
    }

    /// Whether `got` is `sure` plus some subset of `maybe`.
    pub fn accepts(&self, got: Digest) -> bool {
        let Some(extra) = got.rows.checked_sub(self.sure.rows) else {
            return false;
        };
        let want = got.sum.wrapping_sub(self.sure.sum);
        if extra as usize > self.maybe.len() {
            return false;
        }
        // A handful of edge rows at most: try every subset of the right size.
        let n = self.maybe.len().min(20);
        (0u32..1 << n).any(|mask| {
            mask.count_ones() as u64 == extra
                && (0..n)
                    .filter(|i| mask >> i & 1 == 1)
                    .fold(0u64, |s, i| s.wrapping_add(self.maybe[i]))
                    == want
        })
    }
}

/// Engine-free fold of a windowed aggregate, kept current as rows become
/// visible. `eps` is how far the engine may have moved a bucket or value
/// field by quantization (0 for integer fields).
#[derive(Debug, Clone)]
struct AggRef {
    width: f64,
    eps: f64,
    /// `(count, sum, min, max)` per bucket index.
    buckets: BTreeMap<i64, (u64, f64, f64, f64)>,
    /// Rows within `eps` of an edge of the bucket, per bucket index.
    edge_rows: BTreeMap<i64, u64>,
}

impl AggRef {
    fn new(width: f64, eps: f64) -> AggRef {
        AggRef {
            width,
            eps,
            buckets: BTreeMap::new(),
            edge_rows: BTreeMap::new(),
        }
    }

    fn key(&self, bucket: f64) -> i64 {
        (bucket / self.width).floor() as i64
    }

    fn fold(&mut self, bucket: f64, value: f64) {
        let key = self.key(bucket);
        let b = self
            .buckets
            .entry(key)
            .or_insert((0, 0.0, f64::INFINITY, f64::NEG_INFINITY));
        b.0 += 1;
        b.1 += value;
        b.2 = b.2.min(value);
        b.3 = b.3.max(value);
        if self.eps > 0.0 {
            let (lo, hi) = (self.key(bucket - self.eps), self.key(bucket + self.eps));
            if lo != hi {
                *self.edge_rows.entry(lo).or_default() += 1;
                *self.edge_rows.entry(hi).or_default() += 1;
            }
        }
    }

    /// Every bucket's count must match up to the rows on its edges; minima
    /// and maxima to `eps`; sums to `eps` per row plus a relative 1e-9 (a
    /// layout folds rows in its own storage order).
    fn matches(&self, got: &[WindowRow]) -> bool {
        let got: BTreeMap<i64, &WindowRow> = got
            .iter()
            .map(|g| ((g.bucket_start / self.width).round() as i64, g))
            .collect();
        let total: u64 = got.values().map(|g| g.count).sum();
        let want_total: u64 = self.buckets.values().map(|b| b.0).sum();
        if total != want_total {
            return false;
        }
        let keys: std::collections::BTreeSet<i64> =
            got.keys().chain(self.buckets.keys()).copied().collect();
        keys.into_iter().all(|key| {
            let slack = self.edge_rows.get(&key).copied().unwrap_or(0);
            let want = self.buckets.get(&key);
            let (got_count, want_count) = (
                got.get(&key).map_or(0, |g| g.count),
                want.map_or(0, |w| w.0),
            );
            if got_count.abs_diff(want_count) > slack {
                return false;
            }
            let (Some(g), Some(w)) = (got.get(&key), want) else {
                return true;
            };
            if slack > 0 {
                // An edge row may be this bucket's extreme; the count check
                // above is all that can be said.
                return true;
            }
            (g.min - w.2).abs() <= self.eps
                && (g.max - w.3).abs() <= self.eps
                && (g.sum - w.1).abs() <= self.eps * w.0 as f64 + 1e-9 * w.1.abs().max(1.0)
        })
    }
}

/// One selective query: the request to send and what it must return.
pub struct QueryCase {
    /// The request (projection plus range predicate).
    pub request: ScanRequest,
    /// What the engine must return.
    pub expect: Expect,
    /// Folded into the op-sequence hash.
    pub param_hash: u64,
}

/// A family's generated rows — the initial load followed by the stream that
/// inserts take from — and how many of them the engine has been handed.
pub struct Stream {
    rows: Vec<Record>,
    initial: usize,
    batch: usize,
    visible: usize,
    user_bytes: u64,
}

impl Stream {
    fn new(rows: Vec<Record>, initial: usize, batch: usize) -> Stream {
        Stream {
            rows,
            initial,
            batch,
            visible: 0,
            user_bytes: 0,
        }
    }

    /// Makes rows `visible..to` visible; `None` past the end of the stream.
    fn advance(&mut self, to: usize) -> Option<std::ops::Range<usize>> {
        let range = self.visible..to;
        self.user_bytes += encoded_len(self.rows.get(range.clone())?);
        self.visible = to;
        Some(range)
    }
}

/// A data family: generated rows, the requests over them, and the reference.
pub trait Family {
    /// Table name.
    fn table(&self) -> &'static str;
    /// Logical schema.
    fn schema(&self) -> Schema;
    /// The generated rows.
    fn stream(&self) -> &Stream;
    /// The generated rows, to advance them.
    fn stream_mut(&mut self) -> &mut Stream;
    /// Folds rows that just became visible into the reference.
    fn admit(&mut self, range: std::ops::Range<usize>);
    /// The next selective query.
    fn next_query(&mut self, rng: &mut SplitMix) -> QueryCase;
    /// The full projected scan.
    fn scan_request(&self) -> ScanRequest;
    /// What the full projected scan must return.
    fn scan_expect(&self) -> Expect;
    /// Digest of rows a query or scan returned (two projected fields).
    fn digest(&self, rows: &[Record]) -> Digest;
    /// The windowed aggregate.
    fn aggregate_spec(&self) -> WindowedAggregate;
    /// Whether `got` equals the reference fold of the visible rows.
    fn aggregate_matches(&self, got: &[WindowRow]) -> bool;
    /// Whether `row` (as returned by an element lookup) is a visible row.
    fn contains(&self, row: &Record) -> bool;
    /// The paper's Figure-2 query set over the visible rows (CarTel only).
    fn figure2_cases(&self) -> Vec<QueryCase> {
        Vec::new()
    }

    /// Rows loaded during set-up.
    fn initial_rows(&self) -> &[Record] {
        let stream = self.stream();
        &stream.rows[..stream.initial]
    }
    /// Builds the reference over the initial rows (untimed harness work).
    fn build_reference(&mut self) {
        let initial = self.stream().initial;
        if let Some(range) = self.stream_mut().advance(initial) {
            self.admit(range);
        }
    }
    /// The next insert batch; its rows become visible in the reference.
    /// `None` once the generated stream is exhausted.
    fn next_batch(&mut self) -> Option<Vec<Record>> {
        let stream = self.stream_mut();
        let range = stream.advance(stream.visible + stream.batch)?;
        let batch = self.stream().rows[range.clone()].to_vec();
        self.admit(range);
        Some(batch)
    }
    /// Rows visible so far.
    fn visible_rows(&self) -> usize {
        self.stream().visible
    }
    /// `Σ encode_record(row).len()` over the visible rows.
    fn user_bytes(&self) -> u64 {
        self.stream().user_bytes
    }
    /// All visible rows, in insertion order (for direct layer probes).
    fn visible(&self) -> &[Record] {
        let stream = self.stream();
        &stream.rows[..stream.visible]
    }
}

fn encoded_len(rows: &[Record]) -> u64 {
    rows.iter().map(|r| encode_record(r).len() as u64).sum()
}

// ---------------------------------------------------------------- CarTel --

/// Side of the reference's bucketing grid (cells per axis).
const POINT_GRID: usize = 64;
/// Distinct query boxes per run; the first 200 are the Figure-2 set.
const CARTEL_BOXES: usize = 1_000;
/// Longitude stripe width of the CarTel aggregate (30 stripes over Boston).
const CARTEL_STRIPE: f64 = 0.01;
/// The `delta` codec's float quantization step, and the scale it stores.
const QUANTUM: f64 = 1e-6;
const DELTA_SCALE: f64 = 1e6;

/// A coordinate as the micro-degree integer the codec stores it as (the same
/// expression), which its decoded form `k / scale` rounds back to.
fn micro(v: f64) -> u64 {
    (v * DELTA_SCALE).round() as i64 as u64
}

fn point_hash(lat: f64, lon: f64) -> u64 {
    pair_hash(micro(lat), micro(lon))
}

/// `Traces(t, lat, lon, id)`: the paper's case-study relation. Queries are
/// 1 %-area boxes projecting `lat, lon`; the aggregate is an observation
/// histogram by longitude stripe.
pub struct Cartel {
    stream: Stream,
    bbox: BoundingBox,
    boxes: Vec<SpatialQuery>,
    cells: Vec<Vec<(f64, f64)>>,
    total: Digest,
    agg: AggRef,
}

impl Cartel {
    /// Generates `initial + stream` observations and the query boxes from
    /// `seed`. With `seed == Figure2Config::default().seed` and 200 000
    /// initial rows the first 200 000 observations and the first 200 boxes
    /// are exactly the Figure-2 inputs (both generators are sequential).
    pub fn generate(seed: u64, initial: usize, stream: usize, batch: usize) -> Cartel {
        let config = CartelConfig {
            observations: initial + stream,
            vehicles: (initial / 500).clamp(10, 5_000),
            seed,
            ..CartelConfig::default()
        };
        Cartel {
            stream: Stream::new(generate_traces(&config), initial, batch),
            bbox: config.bbox,
            boxes: random_square_queries(&config.bbox, 0.01, CARTEL_BOXES, seed),
            cells: vec![Vec::new(); POINT_GRID * POINT_GRID],
            total: Digest::default(),
            agg: AggRef::new(CARTEL_STRIPE, QUANTUM),
        }
    }

    fn case(&self, pick: usize) -> QueryCase {
        let q = &self.boxes[pick];
        QueryCase {
            request: ScanRequest::all()
                .fields(["lat", "lon"])
                .predicate(q.to_condition()),
            expect: self.box_expect(q),
            param_hash: pick as u64,
        }
    }

    /// What a box must return over the visible rows: the points inside by
    /// more than the quantum for sure, those within it of an edge maybe.
    fn box_expect(&self, q: &SpatialQuery) -> Expect {
        let inside = |lat: f64, lon: f64, pad: f64| {
            lat >= q.min_lat - pad
                && lat <= q.max_lat + pad
                && lon >= q.min_lon - pad
                && lon <= q.max_lon + pad
        };
        let mut expect = Expect::default();
        for i in self.axis(q.min_lat - QUANTUM, true)..=self.axis(q.max_lat + QUANTUM, true) {
            for j in self.axis(q.min_lon - QUANTUM, false)..=self.axis(q.max_lon + QUANTUM, false) {
                for &(lat, lon) in &self.cells[i * POINT_GRID + j] {
                    if inside(lat, lon, -QUANTUM) {
                        expect.sure.add(point_hash(lat, lon));
                    } else if inside(lat, lon, QUANTUM) {
                        expect.maybe.push(point_hash(lat, lon));
                    }
                }
            }
        }
        expect
    }

    /// The paper's N4 design over this family's bounding box: grid cells a
    /// quarter of the query side, z-ordered, delta-compressed.
    pub fn n4_layout() -> LayoutExpr {
        let bbox = BoundingBox::boston();
        let (cell_lat, cell_lon) = (bbox.lat_span() * 0.1 * 0.25, bbox.lon_span() * 0.1 * 0.25);
        LayoutExpr::table("Traces")
            .order_by(["t"])
            .group_by(["id"])
            .project(["lat", "lon"])
            .grid([("lat", cell_lat), ("lon", cell_lon)])
            .zorder()
            .delta(["lat", "lon"])
    }

    fn axis(&self, x: f64, lat: bool) -> usize {
        let (min, span) = if lat {
            (self.bbox.min_lat, self.bbox.lat_span())
        } else {
            (self.bbox.min_lon, self.bbox.lon_span())
        };
        (((x - min) / span * POINT_GRID as f64).floor().max(0.0) as usize).min(POINT_GRID - 1)
    }

    /// `(lat, lon)` of a full `Traces` row or of a `lat, lon` projection.
    fn lat_lon(row: &Record) -> Option<(f64, f64)> {
        match row.as_slice() {
            [Value::Float(lat), Value::Float(lon)] => Some((*lat, *lon)),
            [_, Value::Float(lat), Value::Float(lon), _] => Some((*lat, *lon)),
            _ => None,
        }
    }
}

impl Family for Cartel {
    fn table(&self) -> &'static str {
        "Traces"
    }

    fn schema(&self) -> Schema {
        traces_schema()
    }

    fn stream(&self) -> &Stream {
        &self.stream
    }

    fn stream_mut(&mut self) -> &mut Stream {
        &mut self.stream
    }

    fn admit(&mut self, range: std::ops::Range<usize>) {
        for k in range {
            let (lat, lon) =
                Cartel::lat_lon(&self.stream.rows[k]).expect("Traces rows are (t, lat, lon, id)");
            let cell = self.axis(lat, true) * POINT_GRID + self.axis(lon, false);
            self.cells[cell].push((lat, lon));
            self.total.add(point_hash(lat, lon));
            self.agg.fold(lon, lat);
        }
    }

    fn next_query(&mut self, rng: &mut SplitMix) -> QueryCase {
        self.case(rng.below(self.boxes.len() as u64) as usize)
    }

    fn scan_request(&self) -> ScanRequest {
        ScanRequest::all().fields(["lat", "lon"])
    }

    fn scan_expect(&self) -> Expect {
        Expect::exactly(self.total)
    }

    fn digest(&self, rows: &[Record]) -> Digest {
        let mut d = Digest::default();
        for row in rows {
            // A malformed row hashes to a value no reference row has.
            d.add(Cartel::lat_lon(row).map_or(u64::MAX, |(lat, lon)| point_hash(lat, lon)));
        }
        d
    }

    fn aggregate_spec(&self) -> WindowedAggregate {
        WindowedAggregate::new("lon", CARTEL_STRIPE, "lat")
    }

    fn aggregate_matches(&self, got: &[WindowRow]) -> bool {
        self.agg.matches(got)
    }

    fn contains(&self, row: &Record) -> bool {
        // Element lookups return the layout's fields: (lat, lon) under a
        // projecting layout, the full row otherwise.
        let Some((lat, lon)) = Cartel::lat_lon(row) else {
            return false;
        };
        let want = point_hash(lat, lon);
        let near =
            |x: f64, is_lat: bool| self.axis(x - QUANTUM, is_lat)..=self.axis(x + QUANTUM, is_lat);
        near(lat, true).any(|i| {
            near(lon, false).any(|j| {
                self.cells[i * POINT_GRID + j]
                    .iter()
                    .any(|&(a, b)| point_hash(a, b) == want)
            })
        })
    }

    fn figure2_cases(&self) -> Vec<QueryCase> {
        (0..200.min(self.boxes.len()))
            .map(|k| self.case(k))
            .collect()
    }
}

// ------------------------------------------------------------- Telemetry --

/// Bucket width of the telemetry aggregate, in `ts` ticks.
const TELEMETRY_BUCKET: f64 = 512.0;

/// `Telemetry(ts, sensor, value, status, seq)`: an append-only sensor
/// stream. Queries are windows covering 1 % of the visible `ts` span,
/// projecting `ts, value`; the aggregate is `value` per 512-tick bucket.
/// No workload delta-compresses `value`, so everything compares exactly.
pub struct Telemetry {
    stream: Stream,
    /// Favour the newest window instead of a uniformly random one.
    recent: bool,
    ts: Vec<i64>,
    /// `prefix[i]` = wrapping sum of the `(ts, value)` hashes of rows `0..i`.
    prefix: Vec<u64>,
    agg: AggRef,
}

impl Telemetry {
    /// Generates `initial + stream` readings from `seed`.
    pub fn generate(
        seed: u64,
        initial: usize,
        stream: usize,
        batch: usize,
        recent: bool,
    ) -> Telemetry {
        let total = initial + stream;
        let config = TelemetryConfig {
            readings: total,
            seed,
            ..TelemetryConfig::with_readings(total)
        };
        Telemetry {
            stream: Stream::new(generate_telemetry(&config), initial, batch),
            recent,
            ts: Vec::new(),
            prefix: vec![0],
            agg: AggRef::new(TELEMETRY_BUCKET, 0.0),
        }
    }

    /// `(ts, value)` of a full `Telemetry` row or of a `ts, value` projection.
    fn ts_value(row: &Record) -> Option<(i64, f64)> {
        match row.as_slice() {
            [Value::Int(ts), Value::Float(value)] => Some((*ts, *value)),
            [Value::Int(ts), _, Value::Float(value), _, _] => Some((*ts, *value)),
            _ => None,
        }
    }

    fn range_digest(&self, lo: i64, hi: i64) -> Digest {
        let from = self.ts.partition_point(|&t| t < lo);
        let to = self.ts.partition_point(|&t| t <= hi);
        Digest {
            rows: (to - from) as u64,
            sum: self.prefix[to].wrapping_sub(self.prefix[from]),
        }
    }
}

impl Family for Telemetry {
    fn table(&self) -> &'static str {
        "Telemetry"
    }

    fn schema(&self) -> Schema {
        telemetry_schema()
    }

    fn stream(&self) -> &Stream {
        &self.stream
    }

    fn stream_mut(&mut self) -> &mut Stream {
        &mut self.stream
    }

    fn admit(&mut self, range: std::ops::Range<usize>) {
        for k in range {
            let (ts, value) = Telemetry::ts_value(&self.stream.rows[k])
                .expect("Telemetry rows are (ts, sensor, value, status, seq)");
            self.ts.push(ts);
            let last = *self.prefix.last().expect("prefix starts with 0");
            self.prefix
                .push(last.wrapping_add(pair_hash(ts as u64, value.to_bits())));
            self.agg.fold(ts as f64, value);
        }
    }

    fn next_query(&mut self, rng: &mut SplitMix) -> QueryCase {
        let (min, max) = match (self.ts.first(), self.ts.last()) {
            (Some(&min), Some(&max)) => (min, max),
            _ => (0, 0),
        };
        let width = ((max - min) / 100).max(1);
        let draw = rng.below((max - min - width).max(1) as u64) as i64;
        let lo = if self.recent { max - width } else { min + draw };
        let hi = lo + width;
        QueryCase {
            request: ScanRequest::all()
                .fields(["ts", "value"])
                .predicate(Condition::range("ts", Value::Int(lo), Value::Int(hi))),
            expect: Expect::exactly(self.range_digest(lo, hi)),
            param_hash: lo as u64,
        }
    }

    fn scan_request(&self) -> ScanRequest {
        ScanRequest::all().fields(["ts", "value"])
    }

    fn scan_expect(&self) -> Expect {
        Expect::exactly(Digest {
            rows: self.stream.visible as u64,
            sum: self.prefix[self.stream.visible],
        })
    }

    fn digest(&self, rows: &[Record]) -> Digest {
        let mut d = Digest::default();
        for row in rows {
            // A malformed row hashes to a value no reference row has.
            d.add(Telemetry::ts_value(row).map_or(u64::MAX, |(ts, value)| {
                pair_hash(ts as u64, value.to_bits())
            }));
        }
        d
    }

    fn aggregate_spec(&self) -> WindowedAggregate {
        WindowedAggregate::new("ts", TELEMETRY_BUCKET, "value")
    }

    fn aggregate_matches(&self, got: &[WindowRow]) -> bool {
        self.agg.matches(got)
    }

    fn contains(&self, row: &Record) -> bool {
        let Some(Value::Int(ts)) = row.first() else {
            return false;
        };
        // `ts` is strictly increasing, so it identifies the row.
        self.ts
            .binary_search(ts)
            .is_ok_and(|k| self.stream.rows[k] == *row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn project(rows: &[Record], fields: [usize; 2]) -> Vec<Record> {
        rows.iter()
            .map(|r| vec![r[fields[0]].clone(), r[fields[1]].clone()])
            .collect()
    }

    #[test]
    fn cartel_reference_agrees_with_a_brute_force_filter() {
        let mut family = Cartel::generate(7, 4_000, 400, 100);
        family.build_reference();
        family.next_batch().unwrap();
        assert_eq!(family.visible_rows(), 4_100);
        let q = family.boxes[3];
        let brute: Vec<Record> = family
            .visible()
            .iter()
            .filter(|r| {
                let (lat, lon) = Cartel::lat_lon(r).unwrap();
                lat >= q.min_lat && lat <= q.max_lat && lon >= q.min_lon && lon <= q.max_lon
            })
            .cloned()
            .collect();
        let brute = project(&brute, [1, 2]);
        assert!(!brute.is_empty());
        assert!(family.box_expect(&q).accepts(family.digest(&brute)));
        // One row short is not accepted.
        assert!(!family.box_expect(&q).accepts(family.digest(&brute[1..])));
        let all = project(family.visible(), [1, 2]);
        assert!(family.scan_expect().accepts(family.digest(&all)));
        assert!(family.contains(&all[17]));
    }

    #[test]
    fn quantized_coordinates_digest_like_exact_ones() {
        let mut family = Cartel::generate(7, 1_000, 0, 100);
        family.build_reference();
        let exact = project(family.visible(), [1, 2]);
        let quantized: Vec<Record> = exact
            .iter()
            .map(|r| {
                r.iter()
                    .map(|v| match v {
                        Value::Float(f) => Value::Float((f * 1e6).round() / 1e6),
                        other => other.clone(),
                    })
                    .collect()
            })
            .collect();
        assert_ne!(exact, quantized);
        assert_eq!(family.digest(&exact), family.digest(&quantized));
    }

    #[test]
    fn edge_rows_may_fall_on_either_side() {
        let expect = Expect {
            sure: Digest { rows: 2, sum: 30 },
            maybe: vec![5, 7],
        };
        assert!(expect.accepts(Digest { rows: 2, sum: 30 }));
        assert!(expect.accepts(Digest { rows: 3, sum: 37 }));
        assert!(expect.accepts(Digest { rows: 4, sum: 42 }));
        assert!(!expect.accepts(Digest { rows: 3, sum: 36 }));
        assert!(!expect.accepts(Digest { rows: 1, sum: 30 }));
        assert!(!expect.accepts(Digest { rows: 5, sum: 42 }));
    }

    #[test]
    fn telemetry_reference_agrees_with_a_brute_force_filter() {
        let mut family = Telemetry::generate(7, 3_000, 2_000, 1_000, false);
        family.build_reference();
        family.next_batch().unwrap();
        let mut rng = SplitMix(1);
        let case = family.next_query(&mut rng);
        let Some(Condition::Range { lo, hi, .. }) = case.request.predicate.clone() else {
            panic!("telemetry queries are ts ranges");
        };
        let (lo, hi) = (lo.as_i64().unwrap(), hi.as_i64().unwrap());
        let brute: Vec<Record> = family
            .visible()
            .iter()
            .filter(|r| (lo..=hi).contains(&r[0].as_i64().unwrap()))
            .cloned()
            .collect();
        assert!(!brute.is_empty());
        assert!(case.expect.accepts(family.digest(&project(&brute, [0, 2]))));
        assert!(family.contains(&family.visible()[3_500].clone()));
        assert!(family.next_batch().is_some());
        assert!(family.next_batch().is_none(), "stream exhausted");
    }

    #[test]
    fn aggregate_reference_compares_buckets() {
        let mut agg = AggRef::new(10.0, 0.0);
        for (b, v) in [(1.0, 2.0), (3.0, 4.0), (25.0, 1.0)] {
            agg.fold(b, v);
        }
        let good = vec![
            WindowRow {
                bucket_start: 0.0,
                count: 2,
                sum: 6.0,
                min: 2.0,
                max: 4.0,
            },
            WindowRow {
                bucket_start: 20.0,
                count: 1,
                sum: 1.0,
                min: 1.0,
                max: 1.0,
            },
        ];
        assert!(agg.matches(&good));
        let mut bad = good.clone();
        bad[1].count = 2;
        assert!(!agg.matches(&bad));
        let mut bad = good.clone();
        bad[0].max = 4.5;
        assert!(!agg.matches(&bad));
    }

    #[test]
    fn aggregate_reference_lets_edge_rows_switch_buckets() {
        let mut agg = AggRef::new(10.0, 0.001);
        for (b, v) in [(1.0, 2.0), (9.9995, 4.0), (25.0, 1.0)] {
            agg.fold(b, v);
        }
        // The engine rounded 9.9995 up into the next bucket.
        let moved = vec![
            WindowRow {
                bucket_start: 0.0,
                count: 1,
                sum: 2.0,
                min: 2.0,
                max: 2.0,
            },
            WindowRow {
                bucket_start: 10.0,
                count: 1,
                sum: 4.0,
                min: 4.0,
                max: 4.0,
            },
            WindowRow {
                bucket_start: 20.0,
                count: 1,
                sum: 1.0,
                min: 1.0,
                max: 1.0,
            },
        ];
        assert!(agg.matches(&moved));
        // Losing a row is still caught.
        assert!(!agg.matches(&moved[1..]));
    }
}
