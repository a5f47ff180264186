//! Delta compression — the paper's `∆(N)` transform.
//!
//! Stores the first value verbatim and every subsequent value as the
//! difference from its predecessor. Time series and slowly varying
//! coordinates (such as consecutive GPS fixes of a moving car) produce tiny
//! deltas that the varint layer encodes in one or two bytes.
//!
//! Floats are quantized to a configurable scale (default 10⁻⁶, i.e.
//! micro-degrees for latitude/longitude) before delta encoding; decoding
//! reverses the quantization, so values round-trip to within `1/scale`. A
//! float block holding a value quantization cannot carry — a NaN, an
//! infinity, or one whose `v × scale` leaves the range an `i64` holds — is
//! stored unquantized instead, bit for bit.

use crate::plain::{TAG_FLOATS, TAG_INTS};
use crate::varint::{
    read_signed_varint, read_varint, write_signed_varint, write_varint, zigzag_decode,
};
use crate::{check_count, header_count, ColumnCodec, ColumnData, CompressError, Result};

/// The tag of an unquantized float block, which only this codec writes.
const TAG_RAW_FLOATS: u8 = 3;

/// Delta + varint codec for numeric columns.
#[derive(Debug, Clone, Copy)]
pub struct DeltaCodec {
    /// Quantization scale applied to floats before delta encoding: a value
    /// `v` is stored as `round(v * scale)`.
    pub float_scale: f64,
}

impl Default for DeltaCodec {
    fn default() -> Self {
        DeltaCodec {
            float_scale: 1_000_000.0,
        }
    }
}

impl DeltaCodec {
    /// Creates a delta codec with an explicit float quantization scale.
    pub fn with_scale(float_scale: f64) -> DeltaCodec {
        DeltaCodec { float_scale }
    }

    fn encode_ints(values: &[i64], out: &mut Vec<u8>) {
        let mut prev = 0i64;
        for (i, &v) in values.iter().enumerate() {
            if i == 0 {
                write_signed_varint(out, v);
            } else {
                write_signed_varint(out, v.wrapping_sub(prev));
            }
            prev = v;
        }
    }

    /// Decodes `count` deltas from `block`, appending each reconstructed
    /// value to `out` through `map`. Every value takes at least one byte,
    /// which bounds `count` (and the reservation) by the bytes that remain.
    /// A one-byte varint — the common delta — is read inline; longer ones
    /// go through [`read_signed_varint`].
    fn decode_ints<T>(
        block: &[u8],
        pos: &mut usize,
        count: usize,
        out: &mut Vec<T>,
        map: impl Fn(i64) -> T,
    ) -> Result<()> {
        if count > block.len().saturating_sub(*pos) {
            return Err(CompressError::Corrupted("truncated delta block".into()));
        }
        out.reserve(count);
        let mut prev = 0i64;
        for i in 0..count {
            let d = match block.get(*pos) {
                Some(&byte) if byte < 0x80 => {
                    *pos += 1;
                    zigzag_decode(u64::from(byte))
                }
                _ => read_signed_varint(block, pos)?,
            };
            let v = if i == 0 { d } else { prev.wrapping_add(d) };
            out.push(map(v));
            prev = v;
        }
        Ok(())
    }
}

impl ColumnCodec for DeltaCodec {
    fn name(&self) -> &'static str {
        "delta"
    }

    fn encode(&self, column: &ColumnData) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        match column {
            ColumnData::Ints(values) => {
                out.push(TAG_INTS);
                write_varint(&mut out, values.len() as u64);
                Self::encode_ints(values, &mut out);
                Ok(out)
            }
            ColumnData::Floats(values) => {
                // `i64::MIN` is -2^63 exactly; `q` within (-2^63, 2^63)
                // converts without saturating.
                let limit = -(i64::MIN as f64);
                let quantized: Option<Vec<i64>> = values
                    .iter()
                    .map(|v| {
                        let q = (v * self.float_scale).round();
                        (q.abs() < limit).then_some(q as i64)
                    })
                    .collect();
                let Some(quantized) = quantized else {
                    out.push(TAG_RAW_FLOATS);
                    write_varint(&mut out, values.len() as u64);
                    for v in values {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                    return Ok(out);
                };
                out.push(TAG_FLOATS);
                write_varint(&mut out, values.len() as u64);
                // Store the scale so decoding is self-contained.
                out.extend_from_slice(&self.float_scale.to_le_bytes());
                Self::encode_ints(&quantized, &mut out);
                Ok(out)
            }
            ColumnData::Strings(_) => Err(CompressError::UnsupportedType {
                codec: self.name(),
                column: column.type_name(),
            }),
        }
    }

    fn decode(&self, block: &[u8]) -> Result<ColumnData> {
        let mut out = ColumnData::Ints(Vec::new());
        self.decode_into(block, usize::MAX, &mut out)?;
        Ok(out)
    }

    fn decode_into(&self, block: &[u8], max_values: usize, out: &mut ColumnData) -> Result<()> {
        let tag = *block
            .first()
            .ok_or_else(|| CompressError::Corrupted("empty block".into()))?;
        let mut pos = 1usize;
        let count = read_varint(block, &mut pos)? as usize;
        check_count(count, max_values)?;
        match tag {
            TAG_INTS => {
                Self::decode_ints(block, &mut pos, count, out.ints_mut(), |v| v)
            }
            TAG_FLOATS => {
                let scale_bytes = block
                    .get(pos..pos + 8)
                    .ok_or_else(|| CompressError::Corrupted("missing scale".into()))?;
                let mut buf = [0u8; 8];
                buf.copy_from_slice(scale_bytes);
                let scale = f64::from_le_bytes(buf);
                pos += 8;
                Self::decode_ints(block, &mut pos, count, out.floats_mut(), |q| q as f64 / scale)
            }
            TAG_RAW_FLOATS => {
                let payload = count
                    .checked_mul(8)
                    .and_then(|len| block.get(pos..pos.checked_add(len)?))
                    .ok_or_else(|| CompressError::Corrupted("truncated float block".into()))?;
                let word = |b: &[u8]| f64::from_le_bytes(b.try_into().expect("chunks_exact(8)"));
                out.floats_mut().extend(payload.chunks_exact(8).map(word));
                Ok(())
            }
            other => Err(CompressError::Corrupted(format!("unknown tag {other}"))),
        }
    }

    fn count(&self, block: &[u8]) -> Result<usize> {
        header_count(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_ints_compress_well() {
        let codec = DeltaCodec::default();
        let column = ColumnData::Ints((0..10_000i64).map(|i| 5_000_000 + i).collect());
        let block = codec.encode(&column).unwrap();
        assert!(block.len() < 3 * 10_000, "got {} bytes", block.len());
        assert_eq!(codec.decode(&block).unwrap(), column);
    }

    #[test]
    fn gps_like_floats_round_trip_within_quantization() {
        let codec = DeltaCodec::default();
        // Simulate a car moving in tiny lat increments around Boston.
        let values: Vec<f64> = (0..5000).map(|i| 42.3601 + i as f64 * 1e-5).collect();
        let column = ColumnData::Floats(values.clone());
        let block = codec.encode(&column).unwrap();
        assert!(
            block.len() < values.len() * 2 + 32,
            "expected ~1-2 bytes/value, got {}",
            block.len()
        );
        match codec.decode(&block).unwrap() {
            ColumnData::Floats(decoded) => {
                for (a, b) in decoded.iter().zip(&values) {
                    assert!((a - b).abs() < 1e-6);
                }
            }
            _ => panic!("expected floats"),
        }
    }

    #[test]
    fn negative_and_alternating_values() {
        let codec = DeltaCodec::default();
        let column = ColumnData::Ints(vec![5, -5, 5, -5, 0, i64::MAX / 2, i64::MIN / 2]);
        let block = codec.encode(&column).unwrap();
        assert_eq!(codec.decode(&block).unwrap(), column);
    }

    #[test]
    fn strings_are_unsupported() {
        let codec = DeltaCodec::default();
        let err = codec
            .encode(&ColumnData::Strings(vec!["x".into()]))
            .unwrap_err();
        assert!(matches!(err, CompressError::UnsupportedType { .. }));
    }

    #[test]
    fn custom_scale_controls_precision() {
        let coarse = DeltaCodec::with_scale(100.0);
        let column = ColumnData::Floats(vec![1.234_567, 1.239_999]);
        let block = coarse.encode(&column).unwrap();
        match coarse.decode(&block).unwrap() {
            ColumnData::Floats(vals) => {
                assert!((vals[0] - 1.23).abs() < 0.01);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn non_finite_and_huge_floats_round_trip_bit_for_bit() {
        let codec = DeltaCodec::default();
        let values = vec![1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -0.25];
        for column in [values.clone(), vec![1e300], vec![f64::NAN]] {
            let block = codec.encode(&ColumnData::Floats(column.clone())).unwrap();
            assert_eq!(codec.count(&block).unwrap(), column.len());
            match codec.decode(&block).unwrap() {
                ColumnData::Floats(decoded) => {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&decoded), bits(&column));
                }
                other => panic!("expected floats, got {other:?}"),
            }
            assert!(codec.decode(&block[..block.len() - 1]).is_err());
        }
        // A block of quantizable floats keeps its quantized form.
        let block = codec.encode(&ColumnData::Floats(vec![0.5, 2.0])).unwrap();
        assert_eq!(block[0], TAG_FLOATS);
    }

    #[test]
    fn empty_column() {
        let codec = DeltaCodec::default();
        let block = codec.encode(&ColumnData::Ints(vec![])).unwrap();
        assert_eq!(codec.decode(&block).unwrap(), ColumnData::Ints(vec![]));
    }
}
