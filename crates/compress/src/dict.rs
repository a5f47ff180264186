//! Dictionary encoding.
//!
//! Low-cardinality columns (vehicle identifiers, zip codes, product codes)
//! are stored as a dictionary of distinct values plus a vector of small
//! integer codes referencing it.

use crate::plain::{TAG_INTS, TAG_STRINGS};
#[cfg(test)]
use crate::plain::PlainCodec;
use crate::varint::{read_signed_varint, read_varint, write_signed_varint, write_varint};
use crate::{ColumnCodec, ColumnData, CompressError, Result};
use std::collections::HashMap;

/// Dictionary codec for string and integer columns.
#[derive(Debug, Default, Clone, Copy)]
pub struct DictionaryCodec;

impl ColumnCodec for DictionaryCodec {
    fn name(&self) -> &'static str {
        "dict"
    }

    fn encode(&self, column: &ColumnData) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        match column {
            ColumnData::Strings(values) => {
                out.push(TAG_STRINGS);
                let mut dictionary: Vec<&String> = Vec::new();
                let mut index: HashMap<&String, u64> = HashMap::new();
                let mut codes = Vec::with_capacity(values.len());
                for v in values {
                    let code = *index.entry(v).or_insert_with(|| {
                        dictionary.push(v);
                        (dictionary.len() - 1) as u64
                    });
                    codes.push(code);
                }
                write_varint(&mut out, dictionary.len() as u64);
                for entry in &dictionary {
                    write_varint(&mut out, entry.len() as u64);
                    out.extend_from_slice(entry.as_bytes());
                }
                write_varint(&mut out, codes.len() as u64);
                for code in codes {
                    write_varint(&mut out, code);
                }
                Ok(out)
            }
            ColumnData::Ints(values) => {
                out.push(TAG_INTS);
                let mut dictionary: Vec<i64> = Vec::new();
                let mut index: HashMap<i64, u64> = HashMap::new();
                let mut codes = Vec::with_capacity(values.len());
                for &v in values {
                    let code = *index.entry(v).or_insert_with(|| {
                        dictionary.push(v);
                        (dictionary.len() - 1) as u64
                    });
                    codes.push(code);
                }
                write_varint(&mut out, dictionary.len() as u64);
                for entry in &dictionary {
                    write_signed_varint(&mut out, *entry);
                }
                write_varint(&mut out, codes.len() as u64);
                for code in codes {
                    write_varint(&mut out, code);
                }
                Ok(out)
            }
            ColumnData::Floats(_) => Err(CompressError::UnsupportedType {
                codec: self.name(),
                column: column.type_name(),
            }),
        }
    }

    fn decode(&self, block: &[u8]) -> Result<ColumnData> {
        let tag = *block
            .first()
            .ok_or_else(|| CompressError::Corrupted("empty block".into()))?;
        let mut pos = 1usize;
        match tag {
            TAG_STRINGS => {
                let dict_len = read_varint(block, &mut pos)? as usize;
                let mut dictionary = Vec::with_capacity(dict_len.min(block.len()));
                for _ in 0..dict_len {
                    let len = read_varint(block, &mut pos)? as usize;
                    let bytes = pos
                        .checked_add(len)
                        .and_then(|end| block.get(pos..end))
                        .ok_or_else(|| CompressError::Corrupted("truncated dict entry".into()))?;
                    dictionary.push(
                        String::from_utf8(bytes.to_vec())
                            .map_err(|_| CompressError::Corrupted("invalid utf8".into()))?,
                    );
                    pos += len;
                }
                let count = read_varint(block, &mut pos)? as usize;
                let mut values = Vec::with_capacity(count.min(block.len()));
                for _ in 0..count {
                    let code = read_varint(block, &mut pos)? as usize;
                    let value = dictionary
                        .get(code)
                        .ok_or_else(|| CompressError::Corrupted("dict code out of range".into()))?;
                    values.push(value.clone());
                }
                Ok(ColumnData::Strings(values))
            }
            TAG_INTS => {
                let dict_len = read_varint(block, &mut pos)? as usize;
                let mut dictionary = Vec::with_capacity(dict_len.min(block.len()));
                for _ in 0..dict_len {
                    dictionary.push(read_signed_varint(block, &mut pos)?);
                }
                let count = read_varint(block, &mut pos)? as usize;
                let mut values = Vec::with_capacity(count.min(block.len()));
                for _ in 0..count {
                    let code = read_varint(block, &mut pos)? as usize;
                    let value = dictionary
                        .get(code)
                        .ok_or_else(|| CompressError::Corrupted("dict code out of range".into()))?;
                    values.push(*value);
                }
                Ok(ColumnData::Ints(values))
            }
            other => Err(CompressError::Corrupted(format!("unknown tag {other}"))),
        }
    }

    /// The element count follows the dictionary, so counting skips over the
    /// entries without materializing them.
    fn count(&self, block: &[u8]) -> Result<usize> {
        let tag = *block
            .first()
            .ok_or_else(|| CompressError::Corrupted("empty block".into()))?;
        let mut pos = 1usize;
        let dict_len = read_varint(block, &mut pos)?;
        for _ in 0..dict_len {
            let entry = read_varint(block, &mut pos)?;
            match tag {
                TAG_INTS => {}
                TAG_STRINGS => {
                    pos = pos
                        .checked_add(entry as usize)
                        .filter(|&end| end <= block.len())
                        .ok_or_else(|| CompressError::Corrupted("truncated dict entry".into()))?;
                }
                other => return Err(CompressError::Corrupted(format!("unknown tag {other}"))),
            }
        }
        Ok(read_varint(block, &mut pos)? as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_cardinality_strings_compress_well() {
        let values: Vec<String> = (0..10_000).map(|i| format!("taxi-{}", i % 12)).collect();
        let column = ColumnData::Strings(values);
        let dict_block = DictionaryCodec.encode(&column).unwrap();
        let plain_block = PlainCodec.encode(&column).unwrap();
        assert!(dict_block.len() * 4 < plain_block.len());
        assert_eq!(DictionaryCodec.decode(&dict_block).unwrap(), column);
    }

    #[test]
    fn integer_dictionary_round_trip() {
        let column = ColumnData::Ints(vec![617, 617, 212, 617, 415, 212]);
        let block = DictionaryCodec.encode(&column).unwrap();
        assert_eq!(DictionaryCodec.decode(&block).unwrap(), column);
    }

    #[test]
    fn floats_unsupported() {
        assert!(matches!(
            DictionaryCodec.encode(&ColumnData::Floats(vec![1.0])),
            Err(CompressError::UnsupportedType { .. })
        ));
    }

    #[test]
    fn preserves_first_occurrence_order_and_empty_input() {
        let column = ColumnData::Strings(vec![]);
        let block = DictionaryCodec.encode(&column).unwrap();
        assert_eq!(DictionaryCodec.decode(&block).unwrap(), column);

        let column = ColumnData::Strings(vec!["b".into(), "a".into(), "b".into()]);
        let block = DictionaryCodec.encode(&column).unwrap();
        assert_eq!(DictionaryCodec.decode(&block).unwrap(), column);
    }

    #[test]
    fn corrupted_code_detected() {
        let column = ColumnData::Strings(vec!["a".into(), "b".into()]);
        let mut block = DictionaryCodec.encode(&column).unwrap();
        // Overwrite the last code with an out-of-range value.
        let last = block.len() - 1;
        block[last] = 99;
        assert!(DictionaryCodec.decode(&block).is_err());
    }
}
