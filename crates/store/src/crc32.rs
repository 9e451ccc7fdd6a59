//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`, reflected), the checksum
//! guarding every v2 chunk payload and the v2 footer.
//!
//! The tables are built at compile time, so the hot path has no lazy
//! initialization. The main loop is slicing-by-8: it folds eight bytes per
//! step through eight 256-entry tables, and the classic one-lookup-per-byte
//! loop finishes the tail. Both compute the same function, so the
//! checksums are the ones the byte-at-a-time loop always produced. The
//! polynomial and bit order match zlib's `crc32()`, which makes externally
//! produced checksums (e.g. `python -c "import zlib; ..."`) directly
//! comparable when debugging a damaged store.

/// Slicing-by-8 tables for the reflected IEEE polynomial. `TABLES[0]` is
/// the classic byte table; `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
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

/// CRC-32 of `bytes` (IEEE, reflected, init and final XOR `0xFFFF_FFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinpoint_tensor::rng::Rng64;

    /// The definition, one bit at a time and with no tables.
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    fn random_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = Rng64::seed_from_u64(seed);
        (0..n).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // standard check value for "123456789" under CRC-32/IEEE
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn matches_the_bitwise_definition_at_every_length_and_alignment() {
        let buf = random_bytes(80, 7);
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), bitwise(s), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn matches_the_bitwise_definition_on_a_mebibyte() {
        let buf = random_bytes(1 << 20, 11);
        assert_eq!(crc32(&buf), bitwise(&buf));
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base = b"the quick brown fox jumps over the lazy dog".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "byte {byte} bit {bit}");
            }
        }
    }
}
