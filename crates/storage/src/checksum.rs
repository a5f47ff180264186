//! CRC32 checksums for on-disk structures.
//!
//! Every durable artifact RodentStore writes — WAL records, the superblock,
//! the manifest — carries a CRC32 (IEEE/ISO-HDLC polynomial, the same one
//! zlib and Ethernet use) so that torn writes and bit rot are *detected*
//! rather than silently decoded into garbage. The implementation is
//! table-driven, eight bytes per step ("slicing-by-8") — `open` checksums
//! every canonical row of every table, so throughput matters; the tables
//! are built at compile time so there is no runtime initialization.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Computes the CRC32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_extend(0, data)
}

/// Continues a running CRC32 over more bytes:
/// `crc32_extend(crc32(a), b) == crc32(a ++ b)`, starting from 0 for the
/// empty prefix. Lets an append-only structure keep one checksum of
/// everything appended so far without re-reading it.
pub fn crc32_extend(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32/ISO-HDLC check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn extending_equals_hashing_the_concatenation() {
        let whole = b"The quick brown fox jumps over the lazy dog";
        for split in [0, 1, 9, whole.len()] {
            let (a, b) = whole.split_at(split);
            assert_eq!(crc32_extend(crc32(a), b), crc32(whole));
        }
    }

    #[test]
    fn word_steps_agree_with_byte_steps_at_every_length_and_offset() {
        let data: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..9 {
            for end in start..data.len() {
                let bytewise = data[start..end]
                    .iter()
                    .fold(0, |crc, byte| crc32_extend(crc, std::slice::from_ref(byte)));
                assert_eq!(crc32(&data[start..end]), bytewise, "{start}..{end}");
            }
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"rodentstore");
        let mut flipped = b"rodentstore".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(base, crc32(&flipped));
    }
}
