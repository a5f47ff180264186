//! Bit-packing of integer columns.
//!
//! Every value in the block is stored with the minimal fixed number of bits
//! needed for the largest magnitude present. Negative values are zigzag
//! mapped first. Efficient for small-domain columns such as grid cell
//! indices, months, or quantized sensor readings.

use crate::plain::TAG_INTS;
use crate::varint::{read_varint, write_varint, zigzag_decode, zigzag_encode};
use crate::{header_count, ColumnCodec, ColumnData, CompressError, Result};

/// Fixed-width bit-packing codec for integer columns.
#[derive(Debug, Default, Clone, Copy)]
pub struct BitPackCodec;

/// Packs `values` (already non-negative) using `width` bits each. A 128-bit
/// accumulator is used so widths up to 64 bits never overflow.
pub(crate) fn pack_bits(values: &[u64], width: u32, out: &mut Vec<u8>) {
    let mut acc: u128 = 0;
    let mut acc_bits: u32 = 0;
    for &v in values {
        acc |= u128::from(v) << acc_bits;
        acc_bits += width;
        while acc_bits >= 8 {
            out.push((acc & 0xFF) as u8);
            acc >>= 8;
            acc_bits -= 8;
        }
    }
    if acc_bits > 0 {
        out.push((acc & 0xFF) as u8);
    }
}

/// Unpacks `count` values of `width` bits each.
pub(crate) fn unpack_bits(
    bytes: &[u8],
    width: u32,
    count: usize,
    pos: &mut usize,
) -> Result<Vec<u64>> {
    let bits = count.checked_mul(width as usize);
    let room = bytes.len().saturating_sub(*pos).saturating_mul(8);
    if bits.map_or(true, |bits| bits > room) {
        return Err(CompressError::Corrupted(format!(
            "bitpack block holds {room} bits, not {count} values of {width}"
        )));
    }
    let mut values = Vec::with_capacity(count);
    let mut acc: u128 = 0;
    let mut acc_bits: u32 = 0;
    let mask: u128 = (1u128 << width) - 1;
    for _ in 0..count {
        while acc_bits < width {
            let byte = *bytes
                .get(*pos)
                .ok_or_else(|| CompressError::Corrupted("truncated bitpack block".into()))?;
            *pos += 1;
            acc |= u128::from(byte) << acc_bits;
            acc_bits += 8;
        }
        values.push((acc & mask) as u64);
        acc >>= width;
        acc_bits -= width;
    }
    Ok(values)
}

impl ColumnCodec for BitPackCodec {
    fn name(&self) -> &'static str {
        "bitpack"
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
        let zigzagged: Vec<u64> = values.iter().map(|&v| zigzag_encode(v)).collect();
        let max = zigzagged.iter().copied().max().unwrap_or(0);
        let width = (64 - max.leading_zeros()).max(1);
        let mut out = Vec::new();
        out.push(TAG_INTS);
        write_varint(&mut out, values.len() as u64);
        out.push(width as u8);
        pack_bits(&zigzagged, width, &mut out);
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
        let width = *block
            .get(pos)
            .ok_or_else(|| CompressError::Corrupted("missing width".into()))?
            as u32;
        pos += 1;
        if width == 0 || width > 64 {
            return Err(CompressError::Corrupted(format!("invalid width {width}")));
        }
        let packed = unpack_bits(block, width, count, &mut pos)?;
        Ok(ColumnData::Ints(
            packed.into_iter().map(zigzag_decode).collect(),
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
    fn small_domain_uses_few_bits() {
        // Months 0..12 need 5 bits zigzagged (values up to 22).
        let column = ColumnData::Ints((0..12_000).map(|i| i % 12).collect());
        let block = BitPackCodec.encode(&column).unwrap();
        // ~5 bits/value ≈ 7.5 KB versus 96 KB plain.
        assert!(block.len() < 9_000, "got {}", block.len());
        assert_eq!(BitPackCodec.decode(&block).unwrap(), column);
    }

    #[test]
    fn negative_values_and_extremes() {
        let column = ColumnData::Ints(vec![i64::MIN, -1, 0, 1, i64::MAX]);
        let block = BitPackCodec.encode(&column).unwrap();
        assert_eq!(BitPackCodec.decode(&block).unwrap(), column);
    }

    #[test]
    fn all_zeros_still_round_trips() {
        let column = ColumnData::Ints(vec![0; 100]);
        let block = BitPackCodec.encode(&column).unwrap();
        assert!(block.len() < 30);
        assert_eq!(BitPackCodec.decode(&block).unwrap(), column);
    }

    #[test]
    fn pack_unpack_primitives() {
        let values = vec![1u64, 2, 3, 7, 0, 5];
        let mut buf = Vec::new();
        pack_bits(&values, 3, &mut buf);
        let mut pos = 0;
        assert_eq!(unpack_bits(&buf, 3, values.len(), &mut pos).unwrap(), values);
    }

    #[test]
    fn unsupported_types_rejected() {
        assert!(BitPackCodec.encode(&ColumnData::Floats(vec![1.0])).is_err());
        assert!(BitPackCodec
            .encode(&ColumnData::Strings(vec!["a".into()]))
            .is_err());
    }

    #[test]
    fn truncated_block_detected() {
        let column = ColumnData::Ints(vec![1000; 50]);
        let block = BitPackCodec.encode(&column).unwrap();
        assert!(BitPackCodec.decode(&block[..block.len() - 5]).is_err());
    }
}
