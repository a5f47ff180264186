//! # Compression codecs for RodentStore
//!
//! The storage algebra's *data reduction* dimension lets an administrator
//! request compression on individual fields (`∆(N)` for delta compression,
//! plus RLE, dictionary, bit-packing and frame-of-reference). This crate
//! implements the codecs; the layout interpreter maps an algebraic
//! `CodecSpec` onto one of the [`ColumnCodec`] implementations here and
//! stores the encoded blocks in heap-file objects.
//!
//! All codecs operate on [`ColumnData`] — a typed column vector — and encode
//! to a self-describing byte block (type tag + element count + payload), so
//! a block can always be decoded without external metadata.
//!
//! ```
//! use rodentstore_compress::{ColumnData, CodecKind};
//!
//! let column = ColumnData::Ints((0..1000).map(|i| 1_000_000 + i).collect());
//! let codec = CodecKind::Delta.build();
//! let block = codec.encode(&column).unwrap();
//! assert!(block.len() < 1000 * 8 / 2, "delta+varint beats raw 8-byte ints");
//! assert_eq!(codec.decode(&block).unwrap(), column);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitpack;
pub mod delta;
pub mod dict;
pub mod forpack;
pub mod plain;
pub mod rle;
pub mod varint;

pub use bitpack::BitPackCodec;
pub use delta::DeltaCodec;
pub use dict::DictionaryCodec;
pub use forpack::ForCodec;
pub use plain::PlainCodec;
pub use rle::RleCodec;

use std::fmt;

/// Errors produced while encoding or decoding column blocks.
#[derive(Debug, Clone, PartialEq)]
pub enum CompressError {
    /// The codec does not support the given column type.
    UnsupportedType {
        /// Codec name.
        codec: &'static str,
        /// Column type name.
        column: &'static str,
    },
    /// The encoded block is truncated or malformed.
    Corrupted(String),
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::UnsupportedType { codec, column } => {
                write!(f, "codec `{codec}` does not support {column} columns")
            }
            CompressError::Corrupted(msg) => write!(f, "corrupted block: {msg}"),
        }
    }
}

impl std::error::Error for CompressError {}

/// Result alias for codec operations.
pub type Result<T> = std::result::Result<T, CompressError>;

/// A typed column of values, the unit codecs operate on.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit integers (also used for timestamps).
    Ints(Vec<i64>),
    /// 64-bit floats.
    Floats(Vec<f64>),
    /// UTF-8 strings.
    Strings(Vec<String>),
}

impl ColumnData {
    /// Number of values in the column.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Ints(v) => v.len(),
            ColumnData::Floats(v) => v.len(),
            ColumnData::Strings(v) => v.len(),
        }
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Name of the column type (for error messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            ColumnData::Ints(_) => "int",
            ColumnData::Floats(_) => "float",
            ColumnData::Strings(_) => "string",
        }
    }

    /// Turns `self` into an empty integer column and hands out its vector,
    /// keeping the allocation when it already was one — how
    /// [`ColumnCodec::decode_into`] implementations reuse a caller's buffer.
    pub fn ints_mut(&mut self) -> &mut Vec<i64> {
        if !matches!(self, ColumnData::Ints(_)) {
            *self = ColumnData::Ints(Vec::new());
        }
        match self {
            ColumnData::Ints(v) => {
                v.clear();
                v
            }
            _ => unreachable!("set to Ints above"),
        }
    }

    /// Float counterpart of [`ColumnData::ints_mut`].
    pub fn floats_mut(&mut self) -> &mut Vec<f64> {
        if !matches!(self, ColumnData::Floats(_)) {
            *self = ColumnData::Floats(Vec::new());
        }
        match self {
            ColumnData::Floats(v) => {
                v.clear();
                v
            }
            _ => unreachable!("set to Floats above"),
        }
    }

    /// String counterpart of [`ColumnData::ints_mut`]; the strings are *not*
    /// cleared, so a decoder can overwrite them in place and keep their
    /// allocations too.
    pub fn strings_mut(&mut self) -> &mut Vec<String> {
        if !matches!(self, ColumnData::Strings(_)) {
            *self = ColumnData::Strings(Vec::new());
        }
        match self {
            ColumnData::Strings(v) => v,
            _ => unreachable!("set to Strings above"),
        }
    }

    /// Uncompressed size of the column under a plain 8-byte / length-prefixed
    /// encoding; the baseline compression ratios are computed against.
    pub fn uncompressed_size(&self) -> usize {
        match self {
            ColumnData::Ints(v) => v.len() * 8,
            ColumnData::Floats(v) => v.len() * 8,
            ColumnData::Strings(v) => v.iter().map(|s| 4 + s.len()).sum(),
        }
    }
}

/// A column compression codec.
pub trait ColumnCodec: Send + Sync {
    /// Short name of the codec (used in catalogs and diagnostics).
    fn name(&self) -> &'static str;
    /// Encodes a column into a self-describing block.
    fn encode(&self, column: &ColumnData) -> Result<Vec<u8>>;
    /// Decodes a block produced by [`ColumnCodec::encode`].
    fn decode(&self, block: &[u8]) -> Result<ColumnData>;
    /// Decodes a block into `out`, reusing its allocation where the codec
    /// can (a scan decodes thousands of same-typed blocks into one buffer).
    /// `out` holds exactly the block's values afterwards, whatever it held
    /// before.
    fn decode_into(&self, block: &[u8], out: &mut ColumnData) -> Result<()> {
        *out = self.decode(block)?;
        Ok(())
    }
    /// Number of values in a block, without decoding them where the block
    /// header says so. Always equals `decode(block)?.len()` for a block
    /// `decode` accepts.
    fn count(&self, block: &[u8]) -> Result<usize> {
        Ok(self.decode(block)?.len())
    }
}

/// Reads the element count of a block whose header is `tag, varint count`
/// (plain, delta, bit-packing and frame-of-reference blocks).
pub(crate) fn header_count(block: &[u8]) -> Result<usize> {
    if block.is_empty() {
        return Err(CompressError::Corrupted("empty block".into()));
    }
    let mut pos = 1usize;
    Ok(varint::read_varint(block, &mut pos)? as usize)
}

/// The codecs RodentStore ships, mirroring the algebra's `CodecSpec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecKind {
    /// No compression, plain serialization.
    Plain,
    /// Delta encoding (differences between successive values) + varint.
    Delta,
    /// Run-length encoding.
    Rle,
    /// Dictionary encoding.
    Dictionary,
    /// Bit-packing to the minimal fixed width.
    BitPack,
    /// Frame-of-reference (offsets from the block minimum) + bit-packing.
    FrameOfReference,
}

impl CodecKind {
    /// Instantiates the codec.
    pub fn build(self) -> Box<dyn ColumnCodec> {
        match self {
            CodecKind::Plain => Box::new(PlainCodec),
            CodecKind::Delta => Box::new(DeltaCodec::default()),
            CodecKind::Rle => Box::new(RleCodec),
            CodecKind::Dictionary => Box::new(DictionaryCodec),
            CodecKind::BitPack => Box::new(BitPackCodec),
            CodecKind::FrameOfReference => Box::new(ForCodec),
        }
    }

    /// All codec kinds (useful for exhaustive tests and benches).
    pub fn all() -> [CodecKind; 6] {
        [
            CodecKind::Plain,
            CodecKind::Delta,
            CodecKind::Rle,
            CodecKind::Dictionary,
            CodecKind::BitPack,
            CodecKind::FrameOfReference,
        ]
    }
}

impl fmt::Display for CodecKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CodecKind::Plain => "plain",
            CodecKind::Delta => "delta",
            CodecKind::Rle => "rle",
            CodecKind::Dictionary => "dict",
            CodecKind::BitPack => "bitpack",
            CodecKind::FrameOfReference => "for",
        };
        write!(f, "{name}")
    }
}

/// Compression ratio achieved by a codec on a column
/// (`uncompressed / compressed`, higher is better).
pub fn compression_ratio(codec: &dyn ColumnCodec, column: &ColumnData) -> Result<f64> {
    let encoded = codec.encode(column)?;
    if encoded.is_empty() {
        return Ok(1.0);
    }
    Ok(column.uncompressed_size() as f64 / encoded.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_columns() -> Vec<ColumnData> {
        vec![
            ColumnData::Ints((0..500).map(|i| i * 3 + 7).collect()),
            ColumnData::Floats((0..500).map(|i| 42.0 + i as f64 * 0.001).collect()),
            ColumnData::Strings(
                (0..200)
                    .map(|i| format!("vehicle-{}", i % 8))
                    .collect(),
            ),
        ]
    }

    #[test]
    fn every_codec_round_trips_supported_columns() {
        for kind in CodecKind::all() {
            let codec = kind.build();
            for column in sample_columns() {
                match codec.encode(&column) {
                    Ok(block) => {
                        let decoded = codec.decode(&block).unwrap();
                        match (&decoded, &column) {
                            (ColumnData::Floats(a), ColumnData::Floats(b)) => {
                                assert_eq!(a.len(), b.len());
                                for (x, y) in a.iter().zip(b) {
                                    assert!(
                                        (x - y).abs() < 1e-6,
                                        "{kind}: {x} vs {y}"
                                    );
                                }
                            }
                            _ => assert_eq!(&decoded, &column, "{kind}"),
                        }
                    }
                    Err(CompressError::UnsupportedType { .. }) => {
                        // Acceptable: not every codec supports every type.
                    }
                    Err(other) => panic!("{kind}: unexpected error {other}"),
                }
            }
        }
    }

    #[test]
    fn empty_columns_round_trip() {
        for kind in CodecKind::all() {
            let codec = kind.build();
            let column = ColumnData::Ints(Vec::new());
            if let Ok(block) = codec.encode(&column) {
                assert_eq!(codec.decode(&block).unwrap().len(), 0, "{kind}");
            }
        }
    }

    #[test]
    fn count_and_decode_into_agree_with_decode() {
        let mut columns = sample_columns();
        columns.extend([
            ColumnData::Ints(Vec::new()),
            ColumnData::Floats(Vec::new()),
            ColumnData::Strings(Vec::new()),
            ColumnData::Ints(vec![7, 7, 7, -3, -3, 9]),
            ColumnData::Strings(vec!["a".into(), "a".into(), String::new(), "long run".into()]),
        ]);
        // A buffer of the wrong type and the wrong length: `decode_into`
        // must replace its contents, not append to them.
        let mut reused = ColumnData::Strings(vec!["stale".into(); 3]);
        for kind in CodecKind::all() {
            let codec = kind.build();
            for column in &columns {
                let Ok(block) = codec.encode(column) else {
                    continue; // not every codec supports every type
                };
                let decoded = codec.decode(&block).unwrap();
                assert_eq!(codec.count(&block).unwrap(), decoded.len(), "{kind}");
                codec.decode_into(&block, &mut reused).unwrap();
                assert_eq!(reused, decoded, "{kind}");
                // A header cut short is corruption, never a count.
                for cut in 0..block.len().min(2) {
                    assert!(
                        matches!(codec.count(&block[..cut]), Err(CompressError::Corrupted(_))),
                        "{kind}: {cut}-byte header"
                    );
                }
            }
        }
    }

    /// Decoders read bytes from disk, so a damaged block must be an error
    /// or a column of exactly the count its header declares — never a
    /// panic. Seeded mutations of blocks of every codec, over each column
    /// type the codec takes: every truncation, every continuation bit
    /// flipped, rewritten counts and random bit flips.
    #[test]
    fn mutated_blocks_of_every_codec_error_or_decode_their_header_count() {
        use crate::varint::write_varint;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let jumpy: Vec<i64> = (0..300i64)
            .map(|i| match i % 37 {
                0 => i64::MAX - i,
                1 => -(1 << 40) + i,
                _ => 1_700_000_000 + i * 3 - (i % 5) * 70,
            })
            .collect();
        let runs: Vec<i64> = (0..200i64).map(|i| (i / 9) % 5 - 2).collect();
        let small: Vec<i64> = (0..300i64).map(|i| 1_000 + (i * 7) % 50).collect();
        let cases = [
            (
                "delta ints",
                CodecKind::Delta,
                ColumnData::Ints(jumpy.clone()),
            ),
            (
                "delta quantized floats",
                CodecKind::Delta,
                ColumnData::Floats((0..300).map(|i| 20.0 + i as f64 * 0.125).collect()),
            ),
            (
                "delta raw floats",
                CodecKind::Delta,
                ColumnData::Floats(vec![1.5, f64::NAN, f64::INFINITY, -0.25, 1e300]),
            ),
            ("plain ints", CodecKind::Plain, ColumnData::Ints(jumpy.clone())),
            (
                "plain floats",
                CodecKind::Plain,
                ColumnData::Floats((0..40).map(|i| i as f64 / 3.0).collect()),
            ),
            (
                "plain strings",
                CodecKind::Plain,
                ColumnData::Strings((0..40).map(|i| "é".repeat(i % 4) + "-row").collect()),
            ),
            ("rle ints", CodecKind::Rle, ColumnData::Ints(runs.clone())),
            (
                "rle floats",
                CodecKind::Rle,
                ColumnData::Floats(runs.iter().map(|&v| v as f64 / 4.0).collect()),
            ),
            (
                "rle strings",
                CodecKind::Rle,
                ColumnData::Strings(runs.iter().map(|v| format!("s{v}")).collect()),
            ),
            ("dictionary ints", CodecKind::Dictionary, ColumnData::Ints(runs.clone())),
            (
                "dictionary strings",
                CodecKind::Dictionary,
                ColumnData::Strings((0..120).map(|i| "ü".repeat(i % 3) + &(i % 7).to_string()).collect()),
            ),
            ("bitpack ints", CodecKind::BitPack, ColumnData::Ints(small.clone())),
            ("bitpack wide ints", CodecKind::BitPack, ColumnData::Ints(jumpy.clone())),
            ("for ints", CodecKind::FrameOfReference, ColumnData::Ints(small)),
            ("for wide ints", CodecKind::FrameOfReference, ColumnData::Ints(jumpy)),
        ];
        // splitmix64, seeded: no dependency, same stream on every run.
        let mut state = 0xb10c_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut out = ColumnData::Strings(vec!["stale".into()]);
        let mut decoded = 0usize;
        for (what, kind, column) in &cases {
            let codec = kind.build();
            let block = &codec.encode(column).unwrap();
            let mut check = |bytes: &[u8], mutation: &str| {
                let result = catch_unwind(AssertUnwindSafe(|| codec.decode_into(bytes, &mut out)));
                match result {
                    Ok(Ok(())) => {
                        decoded += 1;
                        let count = codec.count(bytes).ok();
                        assert_eq!(Some(out.len()), count, "{what}, {mutation}");
                    }
                    Ok(Err(_)) => {}
                    Err(_) => panic!("{what}: decode panicked on {mutation}"),
                }
            };
            check(block, "no mutation");
            for cut in 0..block.len() {
                check(&block[..cut], &format!("truncation to {cut} bytes"));
            }
            for at in 0..block.len() {
                let mut bytes = block.to_vec();
                bytes[at] ^= 0x80;
                check(&bytes, &format!("continuation bit of byte {at} flipped"));
            }
            let count = header_count(block).unwrap() as u64;
            let mut header_end = 1;
            crate::varint::read_varint(block, &mut header_end).unwrap();
            let forgeries = [count.saturating_sub(1), count + 1, count * 2];
            for forged in [0, 1, u64::MAX >> 1, u64::MAX].into_iter().chain(forgeries) {
                let mut bytes = vec![block[0]];
                write_varint(&mut bytes, forged);
                bytes.extend_from_slice(&block[header_end..]);
                check(&bytes, &format!("count {count} rewritten as {forged}"));
            }
            for _ in 0..2_000 {
                let mut bytes = block.to_vec();
                for _ in 0..=next() % 3 {
                    let at = (next() % bytes.len() as u64) as usize;
                    bytes[at] ^= 1 << (next() % 8);
                }
                check(&bytes, "random bit flips");
            }
        }
        assert!(decoded > cases.len(), "some mutations still decode");
    }

    #[test]
    fn compression_ratio_favours_delta_on_sequential_ints() {
        let column = ColumnData::Ints((0..10_000).collect());
        let plain = compression_ratio(&PlainCodec, &column).unwrap();
        let delta = compression_ratio(&DeltaCodec::default(), &column).unwrap();
        assert!(plain <= 1.1);
        assert!(delta > 3.0, "delta ratio was {delta}");
    }

    #[test]
    fn column_metadata() {
        let c = ColumnData::Strings(vec!["ab".into(), "cde".into()]);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(c.type_name(), "string");
        assert_eq!(c.uncompressed_size(), 4 + 2 + 4 + 3);
    }
}
