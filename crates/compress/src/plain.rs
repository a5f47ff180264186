//! Plain (uncompressed) column serialization.
//!
//! Used as the baseline codec and as the fallback when no compression is
//! requested by the storage algebra. The block format is shared with the
//! other codecs: a type tag, a varint element count, and the raw payload.

use crate::varint::{read_varint, write_varint};
use crate::{header_count, ColumnCodec, ColumnData, CompressError, Result};

pub(crate) const TAG_INTS: u8 = 0;
pub(crate) const TAG_FLOATS: u8 = 1;
pub(crate) const TAG_STRINGS: u8 = 2;

/// No-op codec: values are stored with fixed-width / length-prefixed
/// serialization.
#[derive(Debug, Default, Clone, Copy)]
pub struct PlainCodec;

impl ColumnCodec for PlainCodec {
    fn name(&self) -> &'static str {
        "plain"
    }

    fn encode(&self, column: &ColumnData) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(column.uncompressed_size() + 8);
        match column {
            ColumnData::Ints(values) => {
                out.push(TAG_INTS);
                write_varint(&mut out, values.len() as u64);
                for v in values {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            ColumnData::Floats(values) => {
                out.push(TAG_FLOATS);
                write_varint(&mut out, values.len() as u64);
                for v in values {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            ColumnData::Strings(values) => {
                out.push(TAG_STRINGS);
                write_varint(&mut out, values.len() as u64);
                for s in values {
                    write_varint(&mut out, s.len() as u64);
                    out.extend_from_slice(s.as_bytes());
                }
            }
        }
        Ok(out)
    }

    fn decode(&self, block: &[u8]) -> Result<ColumnData> {
        let mut out = ColumnData::Ints(Vec::new());
        self.decode_into(block, &mut out)?;
        Ok(out)
    }

    fn decode_into(&self, block: &[u8], out: &mut ColumnData) -> Result<()> {
        let tag = *block
            .first()
            .ok_or_else(|| CompressError::Corrupted("empty block".into()))?;
        let mut pos = 1usize;
        let count = read_varint(block, &mut pos)? as usize;
        // Fixed-width payloads are bounds-checked once, so the value loop is
        // a straight copy (and a corrupt count never sizes an allocation).
        let fixed = |what: &str| {
            count
                .checked_mul(8)
                .and_then(|len| block.get(pos..pos.checked_add(len)?))
                .ok_or_else(|| CompressError::Corrupted(format!("truncated {what}")))
        };
        let word = |bytes: &[u8]| -> [u8; 8] { bytes.try_into().expect("chunks_exact(8)") };
        match tag {
            TAG_INTS => {
                let payload = fixed("int")?;
                let values = out.ints_mut();
                values.extend(payload.chunks_exact(8).map(|b| i64::from_le_bytes(word(b))));
            }
            TAG_FLOATS => {
                let payload = fixed("float")?;
                let values = out.floats_mut();
                values.extend(payload.chunks_exact(8).map(|b| f64::from_le_bytes(word(b))));
            }
            TAG_STRINGS => {
                // Every string takes at least its length byte.
                if count > block.len() - pos {
                    return Err(CompressError::Corrupted("truncated string".into()));
                }
                let values = out.strings_mut();
                values.truncate(count);
                for i in 0..count {
                    let len = read_varint(block, &mut pos)? as usize;
                    let bytes = pos
                        .checked_add(len)
                        .and_then(|end| block.get(pos..end))
                        .ok_or_else(|| CompressError::Corrupted("truncated string".into()))?;
                    let text = std::str::from_utf8(bytes)
                        .map_err(|_| CompressError::Corrupted("invalid utf8".into()))?;
                    match values.get_mut(i) {
                        Some(slot) => {
                            slot.clear();
                            slot.push_str(text);
                        }
                        None => values.push(text.to_string()),
                    }
                    pos += len;
                }
            }
            other => return Err(CompressError::Corrupted(format!("unknown tag {other}"))),
        }
        Ok(())
    }

    fn count(&self, block: &[u8]) -> Result<usize> {
        header_count(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_all_types() {
        let codec = PlainCodec;
        for column in [
            ColumnData::Ints(vec![1, -5, i64::MAX]),
            ColumnData::Floats(vec![1.5, -2.25, f64::MAX]),
            ColumnData::Strings(vec!["a".into(), String::new(), "long string".into()]),
        ] {
            let block = codec.encode(&column).unwrap();
            assert_eq!(codec.decode(&block).unwrap(), column);
        }
    }

    #[test]
    fn corrupted_blocks_are_rejected() {
        let codec = PlainCodec;
        assert!(codec.decode(&[]).is_err());
        assert!(codec.decode(&[9, 0]).is_err());
        // Claim 2 ints but only provide bytes for one.
        let mut block = codec.encode(&ColumnData::Ints(vec![1])).unwrap();
        block[1] = 2;
        assert!(codec.decode(&block).is_err());
    }

    #[test]
    fn plain_size_matches_estimate() {
        let codec = PlainCodec;
        let column = ColumnData::Ints(vec![0; 100]);
        let block = codec.encode(&column).unwrap();
        // 1 tag + 1 varint + 800 payload
        assert_eq!(block.len(), 802);
    }
}
