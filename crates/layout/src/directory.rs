//! Chunk directories: where each chunk of a column-block object starts, and
//! which values it can hold.
//!
//! A column-block object outside a grid keeps one [`ChunkEntry`] per chunk,
//! in storage order — the chunk's row count and the heap position of its
//! first block — plus, per field, a [`Fence`]: the `(min, max)` of the values
//! a reader decodes from the chunk. A scan intersects the fences with the
//! ranges its predicate implies and reads only the chunks that can hold a
//! match; a positional read jumps straight to the chunk holding its row.
//!
//! Grid cells carry no directory: a cell's bounds already fence it, and
//! leaving cells alone keeps the paper's N1–N4 page counts exactly where
//! they were. Neither do row pages, folded groups or lsm runs.

use crate::{LayoutError, Result};
use rodentstore_compress::ColumnData;
use rodentstore_storage::heap::RecordId;

/// The closed interval `(min, max)` of the values one chunk of one field
/// decodes to, as `f64` — `i64` values round monotonically, so the interval
/// stays conservative for integers past 2^53. `None` when nothing is known:
/// a string block, or a float block holding a NaN (which every range
/// matches).
pub type Fence = Option<(f64, f64)>;

/// One chunk of a column-block object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Rows the chunk holds.
    pub rows: usize,
    /// Where the chunk's first block lies: its page ordinal within the
    /// object and its slot on that page.
    pub first: RecordId,
}

/// The chunk directory of one column-block object: an entry per chunk in
/// storage order and a fence per chunk and field.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChunkDirectory {
    fields: usize,
    entries: Vec<ChunkEntry>,
    /// `fields` fences per entry, entry after entry.
    fences: Vec<Fence>,
    /// Object row position one past each chunk's last row.
    ends: Vec<usize>,
}

impl ChunkDirectory {
    /// An empty directory for an object of `fields` fields.
    pub(crate) fn new(fields: usize) -> ChunkDirectory {
        ChunkDirectory {
            fields,
            ..ChunkDirectory::default()
        }
    }

    /// Rebuilds a directory read from outside the program — a checkpoint
    /// manifest — checking it against the object it describes, which holds
    /// `row_count` rows of `fields` fields on `page_count` pages: every chunk
    /// holds a row, the row counts sum to `row_count`, first blocks lie on
    /// the object's pages in strictly ascending order, and every fence is an
    /// ordered pair of numbers. Anything else is [`LayoutError::Corrupted`].
    pub fn from_parts(
        fields: usize,
        entries: Vec<ChunkEntry>,
        fences: Vec<Fence>,
        row_count: usize,
        page_count: usize,
    ) -> Result<ChunkDirectory> {
        let corrupt =
            |what: String| Err(LayoutError::Corrupted(format!("chunk directory: {what}")));
        if entries.len().checked_mul(fields) != Some(fences.len()) {
            return corrupt(format!(
                "{} fences for {} chunks of {fields} fields",
                fences.len(),
                entries.len()
            ));
        }
        let mut ends = Vec::with_capacity(entries.len());
        let mut rows = 0usize;
        let mut previous: Option<RecordId> = None;
        for (c, entry) in entries.iter().enumerate() {
            rows = match rows.checked_add(entry.rows) {
                Some(rows) if entry.rows > 0 => rows,
                _ => return corrupt(format!("chunk {c} holds {} rows", entry.rows)),
            };
            ends.push(rows);
            if entry.first.page_index >= page_count {
                return corrupt(format!(
                    "chunk {c} starts on page ordinal {} of {page_count}",
                    entry.first.page_index
                ));
            }
            if previous.is_some_and(|p| p >= entry.first) {
                return corrupt(format!("chunk {c} does not start after chunk {}", c - 1));
            }
            previous = Some(entry.first);
        }
        if rows != row_count {
            return corrupt(format!("chunks hold {rows} rows, the object {row_count}"));
        }
        if let Some((i, _)) = fences
            .iter()
            .enumerate()
            .find(|(_, f)| f.is_some_and(|(lo, hi)| lo.is_nan() || hi.is_nan() || lo > hi))
        {
            return corrupt(format!(
                "fence {} of chunk {} is not an interval",
                i % fields,
                i / fields
            ));
        }
        Ok(ChunkDirectory {
            fields,
            entries,
            fences,
            ends,
        })
    }

    /// The chunks, in storage order.
    pub fn entries(&self) -> &[ChunkEntry] {
        &self.entries
    }

    /// The fences of chunk `chunk`, one per field of the object.
    pub fn fences(&self, chunk: usize) -> &[Fence] {
        &self.fences[chunk * self.fields..(chunk + 1) * self.fields]
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the object holds no chunk.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records a chunk written after the last one.
    pub(crate) fn push(&mut self, entry: ChunkEntry, fences: impl IntoIterator<Item = Fence>) {
        let before = self.fences.len();
        self.fences.extend(fences);
        debug_assert_eq!(
            self.fences.len() - before,
            self.fields,
            "one fence per field"
        );
        self.ends
            .push(self.ends.last().copied().unwrap_or(0) + entry.rows);
        self.entries.push(entry);
    }

    /// Object row position of chunk `chunk`'s first row.
    pub(crate) fn start(&self, chunk: usize) -> usize {
        chunk.checked_sub(1).map_or(0, |c| self.ends[c])
    }

    /// The chunk holding object row `row`; `None` past the last chunk.
    pub(crate) fn chunk_of(&self, row: usize) -> Option<usize> {
        let c = self.ends.partition_point(|&end| end <= row);
        (c < self.entries.len()).then_some(c)
    }

    /// The rows of the chunks no fence rules out, as ascending, disjoint,
    /// merged `[start, end)` ranges. `bounds` holds `(field, lo, hi)`
    /// triples; a chunk is ruled out when, for one of them, its fence lies
    /// entirely below `lo` or above `hi`.
    pub(crate) fn surviving(&self, bounds: &[(usize, f64, f64)]) -> Vec<(usize, usize)> {
        let mut rows: Vec<(usize, usize)> = Vec::new();
        for c in 0..self.entries.len() {
            let fences = self.fences(c);
            let open = bounds.iter().all(|&(f, lo, hi)| match fences[f] {
                Some((min, max)) => max >= lo && min <= hi,
                None => true,
            });
            if !open {
                continue;
            }
            let (start, end) = (self.start(c), self.ends[c]);
            match rows.last_mut() {
                Some(last) if last.1 == start => last.1 = end,
                _ => rows.push((start, end)),
            }
        }
        rows
    }

    /// The chunks a reader delivering the row ranges `rows` (ascending,
    /// disjoint) visits: every chunk overlapping one, ascending, once each.
    fn visited(&self, rows: &[(usize, usize)]) -> Vec<usize> {
        let mut chunks: Vec<usize> = Vec::new();
        for &(lo, hi) in rows.iter().filter(|(lo, hi)| lo < hi) {
            let Some(first) = self.chunk_of(lo) else {
                break;
            };
            let last = self.chunk_of(hi - 1).unwrap_or(self.entries.len() - 1);
            let from = chunks.last().map_or(first, |&c| first.max(c + 1));
            chunks.extend(from..=last);
        }
        chunks
    }

    /// Pages a reader delivering `rows` reads from an object of
    /// `page_count` pages: every page from the one holding a visited
    /// chunk's first block to the one holding its last, a page that one
    /// chunk ends on and the next visited one starts on counted once.
    pub(crate) fn pages_read(&self, rows: &[(usize, usize)], page_count: usize) -> u64 {
        let mut pages = 0u64;
        let mut held: Option<usize> = None;
        for c in self.visited(rows) {
            let first = self.entries[c].first.page_index;
            // A chunk ends on the page before the next chunk's when the next
            // one opens its page, on that page otherwise; the last chunk ends
            // on the object's last page.
            let last = match self.entries.get(c + 1) {
                Some(next) if next.first.slot == 0 => next.first.page_index.saturating_sub(1),
                Some(next) => next.first.page_index,
                None => page_count.saturating_sub(1),
            }
            .max(first);
            pages += (last - first + 1) as u64 - u64::from(held == Some(first));
            held = Some(last);
        }
        pages
    }
}

/// Intersects two ascending lists of disjoint `[start, end)` row ranges.
pub(crate) fn intersect(a: &[(usize, usize)], b: &[(usize, usize)]) -> Vec<(usize, usize)> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        let (lo, hi) = (a[i].0.max(b[j].0), a[i].1.min(b[j].1));
        if lo < hi {
            out.push((lo, hi));
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// The fence of a decoded column (see [`Fence`]).
pub(crate) fn fence_of(column: &ColumnData) -> Fence {
    match column {
        ColumnData::Ints(v) => Some((*v.iter().min()? as f64, *v.iter().max()? as f64)),
        ColumnData::Floats(v) if !v.is_empty() && !v.iter().any(|x| x.is_nan()) => {
            let first = (f64::INFINITY, f64::NEG_INFINITY);
            Some(v.iter().fold(first, |(lo, hi), &x| (lo.min(x), hi.max(x))))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(rows: usize, page_index: usize, slot: usize) -> ChunkEntry {
        ChunkEntry {
            rows,
            first: RecordId { page_index, slot },
        }
    }

    /// Four chunks of one field: `[0,10) [10,20) [20,25) [25,40)`, the second
    /// and third sharing page 1, the fourth opening page 2.
    fn directory() -> ChunkDirectory {
        ChunkDirectory::from_parts(
            1,
            vec![
                entry(10, 0, 0),
                entry(10, 1, 0),
                entry(5, 1, 1),
                entry(15, 2, 0),
            ],
            vec![
                Some((0.0, 9.0)),
                Some((10.0, 19.0)),
                None,
                Some((25.0, 39.0)),
            ],
            40,
            4,
        )
        .unwrap()
    }

    #[test]
    fn fences_prune_chunks_and_keep_unfenced_ones() {
        let dir = directory();
        assert_eq!(dir.surviving(&[(0, 12.0, 13.0)]), vec![(10, 25)]);
        assert_eq!(
            dir.surviving(&[(0, 9.0, 9.0)]),
            vec![(0, 10), (20, 25)],
            "a bound on a chunk's edge keeps it"
        );
        assert_eq!(dir.surviving(&[(0, 50.0, 60.0)]), vec![(20, 25)]);
        assert_eq!(dir.surviving(&[]), vec![(0, 40)]);
        assert_eq!(dir.chunk_of(0), Some(0));
        assert_eq!(dir.chunk_of(24), Some(2));
        assert_eq!(dir.chunk_of(25), Some(3));
        assert_eq!(dir.chunk_of(40), None);
        assert_eq!(dir.start(3), 25);
    }

    #[test]
    fn pages_read_count_a_shared_page_once() {
        let dir = directory();
        assert_eq!(dir.pages_read(&[(0, 40)], 4), 4);
        // Chunk 1 ends on page 1, where chunk 2 starts: one read.
        assert_eq!(dir.pages_read(&[(12, 13), (21, 22)], 4), 1);
        // Chunk 0 is page 0 alone; chunk 3 spans pages 2 and 3.
        assert_eq!(dir.pages_read(&[(0, 1), (30, 31)], 4), 3);
        assert_eq!(dir.visited(&[(5, 12), (11, 30)]), vec![0, 1, 2, 3]);
        assert_eq!(dir.pages_read(&[], 4), 0);
    }

    #[test]
    fn range_lists_intersect() {
        assert_eq!(
            intersect(&[(0, 10), (20, 30)], &[(5, 25)]),
            vec![(5, 10), (20, 25)]
        );
        assert!(intersect(&[(0, 10)], &[(10, 20)]).is_empty());
    }

    #[test]
    fn fences_cover_what_a_reader_decodes() {
        assert_eq!(
            fence_of(&ColumnData::Ints(vec![3, -2, 7])),
            Some((-2.0, 7.0))
        );
        assert_eq!(
            fence_of(&ColumnData::Floats(vec![0.5, -1.5])),
            Some((-1.5, 0.5))
        );
        assert_eq!(fence_of(&ColumnData::Floats(vec![0.5, f64::NAN])), None);
        assert_eq!(fence_of(&ColumnData::Strings(vec!["a".into()])), None);
        assert_eq!(fence_of(&ColumnData::Ints(Vec::new())), None);
    }

    #[test]
    fn directories_that_disagree_with_their_object_are_corruption() {
        let ok = || {
            (
                vec![entry(10, 0, 0), entry(10, 0, 1)],
                vec![Some((0.0, 1.0)), None],
            )
        };
        let check = |entries: Vec<ChunkEntry>, fences: Vec<Fence>, rows: usize| {
            match ChunkDirectory::from_parts(1, entries, fences, rows, 2) {
                Err(LayoutError::Corrupted(msg)) => msg,
                other => panic!("expected corruption, got {other:?}"),
            }
        };
        let (entries, fences) = ok();
        assert!(ChunkDirectory::from_parts(1, entries.clone(), fences.clone(), 20, 2).is_ok());
        assert!(check(entries.clone(), fences.clone(), 21).contains("20 rows"));
        let mut past = entries.clone();
        past[1].first.page_index = 2;
        assert!(check(past, fences.clone(), 20).contains("page ordinal 2"));
        let mut backwards = entries.clone();
        backwards[1].first = backwards[0].first;
        assert!(check(backwards, fences.clone(), 20).contains("does not start after"));
        let mut empty = entries.clone();
        empty[0].rows = 0;
        assert!(check(empty, fences.clone(), 10).contains("holds 0 rows"));
        assert!(
            check(entries.clone(), vec![Some((2.0, 1.0)), None], 20).contains("not an interval")
        );
        assert!(
            check(entries.clone(), vec![Some((f64::NAN, 1.0)), None], 20)
                .contains("not an interval")
        );
        assert!(check(entries, vec![None], 20).contains("1 fences"));
    }
}
