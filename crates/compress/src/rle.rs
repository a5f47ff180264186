//! Run-length encoding.
//!
//! Sorted or grouped data (the output of `orderby`/`groupby`/`fold`
//! transforms) often contains long runs of identical values; RLE stores each
//! run once together with its length.

use crate::plain::{TAG_FLOATS, TAG_INTS, TAG_STRINGS};
#[cfg(test)]
use crate::plain::PlainCodec;
use crate::varint::{read_signed_varint, read_varint, write_signed_varint, write_varint};
use crate::{ColumnCodec, ColumnData, CompressError, Result};

/// Run-length codec for all column types.
#[derive(Debug, Default, Clone, Copy)]
pub struct RleCodec;

/// Appends a run of `count` copies of `value`. A run length read from a
/// damaged block may claim more values than memory holds: that is an
/// error, not a panic.
fn push_run<T: Clone>(values: &mut Vec<T>, value: T, count: u64) -> Result<()> {
    usize::try_from(count)
        .ok()
        .and_then(|count| values.try_reserve(count).ok())
        .ok_or_else(|| CompressError::Corrupted(format!("run of {count} values")))?;
    values.extend(std::iter::repeat(value).take(count as usize));
    Ok(())
}

fn encode_runs<T: PartialEq + Clone>(values: &[T]) -> Vec<(T, u64)> {
    let mut runs: Vec<(T, u64)> = Vec::new();
    for v in values {
        match runs.last_mut() {
            Some((current, count)) if current == v => *count += 1,
            _ => runs.push((v.clone(), 1)),
        }
    }
    runs
}

impl ColumnCodec for RleCodec {
    fn name(&self) -> &'static str {
        "rle"
    }

    fn encode(&self, column: &ColumnData) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        match column {
            ColumnData::Ints(values) => {
                out.push(TAG_INTS);
                let runs = encode_runs(values);
                write_varint(&mut out, runs.len() as u64);
                for (value, count) in runs {
                    write_signed_varint(&mut out, value);
                    write_varint(&mut out, count);
                }
            }
            ColumnData::Floats(values) => {
                out.push(TAG_FLOATS);
                let runs = encode_runs(values);
                write_varint(&mut out, runs.len() as u64);
                for (value, count) in runs {
                    out.extend_from_slice(&value.to_le_bytes());
                    write_varint(&mut out, count);
                }
            }
            ColumnData::Strings(values) => {
                out.push(TAG_STRINGS);
                let runs = encode_runs(values);
                write_varint(&mut out, runs.len() as u64);
                for (value, count) in runs {
                    write_varint(&mut out, value.len() as u64);
                    out.extend_from_slice(value.as_bytes());
                    write_varint(&mut out, count);
                }
            }
        }
        Ok(out)
    }

    fn decode(&self, block: &[u8]) -> Result<ColumnData> {
        let tag = *block
            .first()
            .ok_or_else(|| CompressError::Corrupted("empty block".into()))?;
        let mut pos = 1usize;
        let run_count = read_varint(block, &mut pos)? as usize;
        match tag {
            TAG_INTS => {
                let mut values = Vec::new();
                for _ in 0..run_count {
                    let value = read_signed_varint(block, &mut pos)?;
                    let count = read_varint(block, &mut pos)?;
                    push_run(&mut values, value, count)?;
                }
                Ok(ColumnData::Ints(values))
            }
            TAG_FLOATS => {
                let mut values = Vec::new();
                for _ in 0..run_count {
                    let bytes = block
                        .get(pos..pos + 8)
                        .ok_or_else(|| CompressError::Corrupted("truncated float".into()))?;
                    let mut buf = [0u8; 8];
                    buf.copy_from_slice(bytes);
                    pos += 8;
                    let value = f64::from_le_bytes(buf);
                    let count = read_varint(block, &mut pos)?;
                    push_run(&mut values, value, count)?;
                }
                Ok(ColumnData::Floats(values))
            }
            TAG_STRINGS => {
                let mut values = Vec::new();
                for _ in 0..run_count {
                    let len = read_varint(block, &mut pos)? as usize;
                    let bytes = pos
                        .checked_add(len)
                        .and_then(|end| block.get(pos..end))
                        .ok_or_else(|| CompressError::Corrupted("truncated string".into()))?;
                    let value = String::from_utf8(bytes.to_vec())
                        .map_err(|_| CompressError::Corrupted("invalid utf8".into()))?;
                    pos += len;
                    let count = read_varint(block, &mut pos)?;
                    push_run(&mut values, value, count)?;
                }
                Ok(ColumnData::Strings(values))
            }
            other => Err(CompressError::Corrupted(format!("unknown tag {other}"))),
        }
    }

    /// The header holds the *run* count, so the element count is a walk over
    /// the run lengths — values are skipped, never materialized.
    fn count(&self, block: &[u8]) -> Result<usize> {
        let tag = *block
            .first()
            .ok_or_else(|| CompressError::Corrupted("empty block".into()))?;
        let mut pos = 1usize;
        let run_count = read_varint(block, &mut pos)?;
        let mut total = 0usize;
        for _ in 0..run_count {
            let skip = match tag {
                TAG_INTS => read_varint(block, &mut pos).map(|_| 0)?,
                TAG_FLOATS => 8,
                TAG_STRINGS => read_varint(block, &mut pos)? as usize,
                other => return Err(CompressError::Corrupted(format!("unknown tag {other}"))),
            };
            pos = pos
                .checked_add(skip)
                .filter(|&end| end <= block.len())
                .ok_or_else(|| CompressError::Corrupted("truncated run".into()))?;
            let run = read_varint(block, &mut pos)? as usize;
            total = total
                .checked_add(run)
                .ok_or_else(|| CompressError::Corrupted("run lengths overflow".into()))?;
        }
        Ok(total)
    }
}

/// Convenience: returns the number of runs RLE would produce — used by the
/// design optimizer to decide whether RLE is worthwhile for a column.
pub fn run_count(column: &ColumnData) -> usize {
    match column {
        ColumnData::Ints(v) => encode_runs(v).len(),
        ColumnData::Floats(v) => encode_runs(v).len(),
        ColumnData::Strings(v) => encode_runs(v).len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compression_ratio;

    #[test]
    fn a_run_longer_than_memory_is_an_error() {
        let block = RleCodec.encode(&ColumnData::Ints(vec![5, 5, 5])).unwrap();
        // The last byte is the run length, 3; claim 2^62 values instead.
        let mut bad = block[..block.len() - 1].to_vec();
        write_varint(&mut bad, 1 << 62);
        assert!(matches!(RleCodec.decode(&bad), Err(CompressError::Corrupted(_))));
    }

    #[test]
    fn long_runs_compress_dramatically() {
        let column = ColumnData::Ints(
            std::iter::repeat(617)
                .take(5000)
                .chain(std::iter::repeat(212).take(5000))
                .collect(),
        );
        let ratio = compression_ratio(&RleCodec, &column).unwrap();
        assert!(ratio > 1000.0, "ratio {ratio}");
        let block = RleCodec.encode(&column).unwrap();
        assert_eq!(RleCodec.decode(&block).unwrap(), column);
    }

    #[test]
    fn unique_values_round_trip_without_loss() {
        let column = ColumnData::Strings((0..100).map(|i| format!("s{i}")).collect());
        let block = RleCodec.encode(&column).unwrap();
        assert_eq!(RleCodec.decode(&block).unwrap(), column);
        // Worse than plain is fine, correctness is what matters here.
        let plain = PlainCodec.encode(&column).unwrap();
        assert!(block.len() >= plain.len() - 100);
    }

    #[test]
    fn float_runs() {
        let column = ColumnData::Floats(vec![1.5; 100]);
        let block = RleCodec.encode(&column).unwrap();
        assert!(block.len() < 20);
        assert_eq!(RleCodec.decode(&block).unwrap(), column);
    }

    #[test]
    fn run_count_reports_distinct_runs() {
        assert_eq!(run_count(&ColumnData::Ints(vec![1, 1, 2, 2, 2, 1])), 3);
        assert_eq!(run_count(&ColumnData::Ints(vec![])), 0);
        assert_eq!(
            run_count(&ColumnData::Strings(vec!["a".into(), "a".into(), "b".into()])),
            2
        );
    }
}
