//! Frame-of-reference encoding.
//!
//! Each block stores the minimum value once and every element as a
//! non-negative offset from it, bit-packed to the minimal width. Clustered
//! values — timestamps within a trajectory, coordinates within a grid cell —
//! compress to a few bits per element even when their absolute magnitude is
//! large.

use crate::bitpack::{pack_bits, unpack_bits};
use crate::plain::TAG_INTS;
use crate::varint::{read_signed_varint, read_varint, write_signed_varint, write_varint};
use crate::{header_count, ColumnCodec, ColumnData, CompressError, Result};

/// Frame-of-reference + bit-packing codec for integer columns.
#[derive(Debug, Default, Clone, Copy)]
pub struct ForCodec;

impl ColumnCodec for ForCodec {
    fn name(&self) -> &'static str {
        "for"
    }

    fn encode(&self, column: &ColumnData) -> Result<Vec<u8>> {
        let values = match column {
            ColumnData::Ints(v) => v,
            _ => {
                return Err(CompressError::UnsupportedType {
                    codec: self.name(),
                    column: column.type_name(),
                })
            }
        };
        let mut out = Vec::new();
        out.push(TAG_INTS);
        write_varint(&mut out, values.len() as u64);
        if values.is_empty() {
            return Ok(out);
        }
        let min = *values.iter().min().expect("non-empty");
        write_signed_varint(&mut out, min);
        let offsets: Vec<u64> = values.iter().map(|&v| (v as i128 - min as i128) as u64).collect();
        let max_offset = offsets.iter().copied().max().unwrap_or(0);
        let width = (64 - max_offset.leading_zeros()).max(1);
        out.push(width as u8);
        pack_bits(&offsets, width, &mut out);
        Ok(out)
    }

    fn decode(&self, block: &[u8]) -> Result<ColumnData> {
        let tag = *block
            .first()
            .ok_or_else(|| CompressError::Corrupted("empty block".into()))?;
        if tag != TAG_INTS {
            return Err(CompressError::Corrupted(format!("unexpected tag {tag}")));
        }
        let mut pos = 1usize;
        let count = read_varint(block, &mut pos)? as usize;
        if count == 0 {
            return Ok(ColumnData::Ints(Vec::new()));
        }
        let min = read_signed_varint(block, &mut pos)?;
        let width = *block
            .get(pos)
            .ok_or_else(|| CompressError::Corrupted("missing width".into()))? as u32;
        pos += 1;
        if width == 0 || width > 64 {
            return Err(CompressError::Corrupted(format!("invalid width {width}")));
        }
        let offsets = unpack_bits(block, width, count, &mut pos)?;
        Ok(ColumnData::Ints(
            offsets
                .into_iter()
                .map(|o| (min as i128 + o as i128) as i64)
                .collect(),
        ))
    }

    fn count(&self, block: &[u8]) -> Result<usize> {
        header_count(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustered_timestamps_compress_well() {
        // Timestamps within one hour, microsecond resolution but clustered.
        let base = 1_700_000_000_000_000i64;
        let column = ColumnData::Ints((0..10_000).map(|i| base + i * 250).collect());
        let block = ForCodec.encode(&column).unwrap();
        assert!(block.len() < 10_000 * 4, "got {}", block.len());
        assert_eq!(ForCodec.decode(&block).unwrap(), column);
    }

    #[test]
    fn negative_values_round_trip() {
        let column = ColumnData::Ints(vec![-100, -50, -75, -100, -1]);
        let block = ForCodec.encode(&column).unwrap();
        assert_eq!(ForCodec.decode(&block).unwrap(), column);
    }

    #[test]
    fn constant_column_is_tiny() {
        let column = ColumnData::Ints(vec![42; 1000]);
        let block = ForCodec.encode(&column).unwrap();
        assert!(block.len() < 150);
        assert_eq!(ForCodec.decode(&block).unwrap(), column);
    }

    #[test]
    fn empty_and_single_element() {
        for column in [ColumnData::Ints(vec![]), ColumnData::Ints(vec![7])] {
            let block = ForCodec.encode(&column).unwrap();
            assert_eq!(ForCodec.decode(&block).unwrap(), column);
        }
    }

    #[test]
    fn unsupported_types_rejected() {
        assert!(ForCodec.encode(&ColumnData::Floats(vec![1.0])).is_err());
    }

    #[test]
    fn wide_range_falls_back_to_wide_width() {
        let column = ColumnData::Ints(vec![i64::MIN, i64::MAX]);
        let block = ForCodec.encode(&column).unwrap();
        assert_eq!(ForCodec.decode(&block).unwrap(), column);
    }
}
