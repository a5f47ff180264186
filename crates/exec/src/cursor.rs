//! Cursors: the `next()` access method.

use crate::{ExecError, Result};
use rodentstore_algebra::value::Record;
use rodentstore_layout::ScanIter;

/// A forward cursor over the tuples of a scan.
///
/// Cursors come in two flavors:
///
/// * **Streaming** ([`Cursor::streaming`]) wraps a lazy
///   [`ScanIter`], so tuples are decoded from pages on demand and the full
///   result set is never materialized. This is what
///   [`crate::AccessMethods::open_cursor`] produces whenever the layout can
///   deliver the requested order natively.
/// * **Materialized** ([`Cursor::new`]) owns an already-computed row set —
///   the only remaining materialization point, used when a requested sort
///   order is not native to the layout.
///
/// `next()` hands out tuples one at a time; the paper notes that emitting
/// blocks of nested or run-length-compressed tuples is an interesting
/// extension, which would slot in here.
pub struct Cursor<'a> {
    source: Source<'a>,
    /// Most recently streamed tuple (backs the borrowed `next()` API).
    current: Option<Record>,
    /// First error hit while streaming, if any (the stream ends there).
    error: Option<ExecError>,
}

// `Streaming` dwarfs `Materialized`, but it is also the hot variant —
// boxing it would put a pointer chase on every `next()` — and cursors are
// created per query, not per row, so the footprint is irrelevant.
#[allow(clippy::large_enum_variant)]
enum Source<'a> {
    Materialized { rows: Vec<Record>, position: usize },
    Streaming(ScanIter<'a>),
}

impl std::fmt::Debug for Cursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.source {
            Source::Materialized { rows, position } => f
                .debug_struct("Cursor")
                .field("mode", &"materialized")
                .field("rows", &rows.len())
                .field("position", position)
                .finish(),
            Source::Streaming(_) => f
                .debug_struct("Cursor")
                .field("mode", &"streaming")
                .finish(),
        }
    }
}

impl<'a> Cursor<'a> {
    /// Creates a cursor over materialized rows.
    pub fn new(rows: Vec<Record>) -> Cursor<'static> {
        Cursor {
            source: Source::Materialized { rows, position: 0 },
            current: None,
            error: None,
        }
    }

    /// Creates a streaming cursor over a lazy layout scan.
    pub fn streaming(iter: ScanIter<'a>) -> Cursor<'a> {
        Cursor {
            source: Source::Streaming(iter),
            current: None,
            error: None,
        }
    }

    /// Whether this cursor streams tuples lazily from the layout (as opposed
    /// to holding a materialized row set built eagerly for a non-native sort).
    pub fn is_streaming(&self) -> bool {
        matches!(self.source, Source::Streaming(_))
    }

    /// Returns the next tuple, or `None` when exhausted. A decoding error
    /// ends the stream; the error is retrievable via [`Cursor::take_error`]
    /// (or use [`Cursor::try_next`] to observe it directly).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<&Record> {
        match &mut self.source {
            Source::Materialized { rows, position } => {
                let row = rows.get(*position);
                if row.is_some() {
                    *position += 1;
                }
                row
            }
            Source::Streaming(iter) => {
                match iter.next() {
                    Some(Ok(row)) => self.current = Some(row),
                    Some(Err(e)) => {
                        self.error = Some(e.into());
                        self.current = None;
                    }
                    None => self.current = None,
                }
                self.current.as_ref()
            }
        }
    }

    /// Fallible owned variant of [`Cursor::next`]: `Ok(None)` on exhaustion,
    /// `Err` if the underlying stream failed to decode.
    pub fn try_next(&mut self) -> Result<Option<Record>> {
        match &mut self.source {
            Source::Materialized { rows, position } => {
                let row = rows.get(*position).cloned();
                if row.is_some() {
                    *position += 1;
                }
                Ok(row)
            }
            Source::Streaming(iter) => match iter.next() {
                Some(Ok(row)) => Ok(Some(row)),
                Some(Err(e)) => Err(e.into()),
                None => Ok(None),
            },
        }
    }

    /// The first streaming error encountered, if any.
    pub fn take_error(&mut self) -> Option<ExecError> {
        self.error.take()
    }

    /// Resets the cursor to the first tuple. Streaming cursors restart the
    /// underlying scan.
    pub fn rewind(&mut self) -> Result<()> {
        self.current = None;
        self.error = None;
        match &mut self.source {
            Source::Materialized { position, .. } => {
                *position = 0;
                Ok(())
            }
            Source::Streaming(iter) => Ok(iter.rewind()?),
        }
    }

    /// Number of tuples remaining, when known without consuming the cursor
    /// (`None` for streaming cursors — counting would require the scan).
    pub fn remaining(&self) -> Option<usize> {
        match &self.source {
            Source::Materialized { rows, position } => {
                Some(rows.len().saturating_sub(*position))
            }
            Source::Streaming(_) => None,
        }
    }

    /// Total number of tuples, when known without consuming the cursor.
    pub fn len(&self) -> Option<usize> {
        match &self.source {
            Source::Materialized { rows, .. } => Some(rows.len()),
            Source::Streaming(_) => None,
        }
    }

    /// Whether the cursor holds no tuples at all — `None` when that is
    /// unknowable without consuming the stream.
    pub fn is_empty(&self) -> Option<bool> {
        self.len().map(|n| n == 0)
    }

    /// Drains the rest of the cursor into a vector (the thin-`collect`
    /// equivalent of an eager scan).
    pub fn collect_rows(&mut self) -> Result<Vec<Record>> {
        let mut out = Vec::new();
        while let Some(row) = self.try_next()? {
            out.push(row);
        }
        Ok(out)
    }
}

impl Iterator for Cursor<'_> {
    type Item = Result<Record>;

    /// Yields `Result`s so a mid-stream decode error is visible to the
    /// consumer instead of silently truncating the iteration (the cursor is
    /// often moved into `collect()`, where `take_error` would be
    /// unreachable). An error ends the iteration.
    fn next(&mut self) -> Option<Self::Item> {
        self.try_next().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rodentstore_algebra::value::Value;

    fn rows(n: usize) -> Vec<Record> {
        (0..n).map(|i| vec![Value::Int(i as i64)]).collect()
    }

    #[test]
    fn next_and_rewind() {
        let mut c = Cursor::new(rows(3));
        assert_eq!(c.remaining(), Some(3));
        assert_eq!(c.next().unwrap()[0], Value::Int(0));
        assert_eq!(c.next().unwrap()[0], Value::Int(1));
        c.rewind().unwrap();
        assert_eq!(c.next().unwrap()[0], Value::Int(0));
        assert_eq!(c.remaining(), Some(2));
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut c = Cursor::new(rows(1));
        assert!(c.next().is_some());
        assert!(c.next().is_none());
        assert!(c.next().is_none());
        assert_eq!(c.remaining(), Some(0));
    }

    #[test]
    fn iterator_interface() {
        let c = Cursor::new(rows(5));
        let collected: Vec<Record> = c.collect::<Result<_>>().unwrap();
        assert_eq!(collected.len(), 5);
        assert_eq!(Cursor::new(vec![]).is_empty(), Some(true));
        assert_eq!(Cursor::new(rows(2)).is_empty(), Some(false));
        assert_eq!(Cursor::new(rows(2)).len(), Some(2));
    }

    #[test]
    fn try_next_drains_materialized_rows() {
        let mut c = Cursor::new(rows(2));
        assert!(c.try_next().unwrap().is_some());
        assert_eq!(c.collect_rows().unwrap().len(), 1);
        assert!(c.try_next().unwrap().is_none());
    }
}
