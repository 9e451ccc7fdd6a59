//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`, reflected), the checksum
//! guarding every v2 chunk payload and the v2 footer.
//!
//! Two implementations compute the one function:
//!
//! * **Carry-less multiplication** on x86_64 CPUs with PCLMULQDQ and
//!   SSE4.1, detected at run time. Four 128-bit lanes each fold 16 bytes
//!   per step, 64 bytes per step in all, by multiplying the lane's halves
//!   with `x^n mod P` constants; the lanes are then folded into one, the
//!   remaining 16-byte blocks folded into that, and a Barrett reduction
//!   takes the 128-bit remainder down to the 32-bit CRC. This is the method
//!   of Intel's "Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ Instruction" (reflected variant). The constants are derived
//!   from the polynomial at compile time. All of the module's `unsafe` is
//!   in this kernel.
//! * **Slicing-by-8 tables**, built at compile time: eight bytes per step
//!   through eight 256-entry tables, and the classic one-lookup-per-byte
//!   loop for the tail. They serve other CPUs, inputs shorter than one
//!   64-byte fold step, the kernel's tail of fewer than 16 bytes, and the
//!   tests as the reference the kernel is checked against.
//!
//! The polynomial and bit order match zlib's `crc32()`, which makes
//! externally produced checksums (e.g. `python -c "import zlib; ..."`)
//! directly comparable when debugging a damaged store.

/// The reflected IEEE polynomial, without its `x^32` term.
const POLY: u32 = 0xEDB8_8320;

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
                (crc >> 1) ^ POLY
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
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::FOLD_BYTES && clmul::available() {
        // SAFETY: `available` has just seen the CPU support every target
        // feature `fold` is compiled with
        let (state, tail) = unsafe { clmul::fold(!0, bytes) };
        return !update_tables(state, tail);
    }
    !update_tables(!0, bytes)
}

/// Advances the raw CRC register `crc` (not inverted) over `bytes`,
/// slicing-by-8.
fn update_tables(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
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
    crc
}

/// The carry-less-multiplication kernel.
///
/// A 128-bit register loaded little-endian from 16 message bytes holds
/// the polynomial whose `x^127` coefficient is the first message bit
/// (bit 0 of byte 0), as reflected CRCs read bits. Its low 64-bit half
/// `L` is the high-degree half. `PCLMULQDQ` of `L` with `K(n)` (below)
/// gives a register holding `L * x^64 * x^(n - 32)`, and of the high half
/// `H` a register holding `H * x^(n - 32)`, each at most 96 bits wide. So
/// moving a lane `D` bits further along the message, `X * x^D`, costs two
/// multiplications: `L` by `K(D + 32)` and `H` by `K(D - 32)`.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::POLY;
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Bytes one step of the four-lane loop folds, and the shortest input
    /// the kernel takes.
    pub(super) const FOLD_BYTES: usize = 64;

    /// `K(n)`: `x^n mod P`, reflected into 32 bits and shifted left by one,
    /// the 33-bit form a reflected `PCLMULQDQ` operand takes.
    const fn k(n: u32) -> i64 {
        // x^0 is the top bit of a reflected register; multiplying by x is
        // a right shift, reduced by P when x^31's coefficient falls out
        let mut r: u32 = 1 << 31;
        let mut i = 0;
        while i < n {
            r = if r & 1 != 0 { (r >> 1) ^ POLY } else { r >> 1 };
            i += 1;
        }
        (r as i64) << 1
    }

    /// `P` with its `x^32` term, reflected into 33 bits.
    const P: i64 = (((POLY as u64) << 1) | 1) as i64;

    /// `K(D + 32)` and `K(D - 32)` for the four-lane step (`D` = 512).
    const BY_4: (i64, i64) = (k(4 * 128 + 32), k(4 * 128 - 32));

    /// `K(D + 32)` and `K(D - 32)` for a one-block step (`D` = 128).
    const BY_1: (i64, i64) = (k(128 + 32), k(128 - 32));

    /// Barrett's `mu = floor(x^64 / P)`, reflected into 33 bits.
    const MU: i64 = {
        let p = 0x1_04C1_1DB7u128; // P, not reflected
        let mut rem = 1u128 << 64;
        let mut q = 0u64;
        let mut bit = 64;
        while bit >= 32 {
            if rem & (1 << bit) != 0 {
                rem ^= p << (bit - 32);
                q |= 1 << (bit - 32);
            }
            bit -= 1;
        }
        (q.reverse_bits() >> 31) as i64
    };

    /// Whether this CPU runs [`fold`].
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// 16 message bytes as a register.
    #[inline]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: reads the 16 bytes `block` borrows, and SSE2 (part of
        // every x86_64 CPU) allows unaligned loads
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `acc * x^D + next`, with `k` holding `K(D + 32)` in its low half
    /// and `K(D - 32)` in its high half.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advances the raw CRC register `crc` over every whole 16-byte block
    /// of `bytes`, returning the register and the tail of fewer than 16
    /// bytes left for the tables.
    ///
    /// # Safety
    ///
    /// Calling it from code not compiled with these target features is
    /// sound only on a CPU that has them: check [`available`] first.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than [`FOLD_BYTES`].
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(crc: u32, bytes: &[u8]) -> (u32, &[u8]) {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let (first, rest) = blocks.split_first_chunk::<4>().expect("64 bytes or more");
        let mut lanes = [0, 1, 2, 3].map(|i| load(&first[i]));
        // the register's initial value enters as the first four bytes
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));

        let by_4 = _mm_set_epi64x(BY_4.1, BY_4.0);
        let (quads, singles) = rest.as_chunks::<4>();
        for quad in quads {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = fold_into(*lane, load(block), by_4);
            }
        }
        let by_1 = _mm_set_epi64x(BY_1.1, BY_1.0);
        let mut acc = lanes[0];
        for &lane in &lanes[1..] {
            acc = fold_into(acc, lane, by_1);
        }
        for block in singles {
            acc = fold_into(acc, load(block), by_1);
        }

        // 128 -> 96 bits: L * K(96) + H * x^64 holds X * x^64
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(acc, by_1),
            _mm_srli_si128::<8>(acc),
        );
        // 96 -> 64 bits: the top 32 times K(64), plus the rest times x^32,
        // holds X * x^96, so its low half R is congruent to X * x^32 mod P
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(
                _mm_and_si128(x, low32),
                _mm_set_epi64x(0, const { k(64) }),
            ),
            _mm_srli_si128::<4>(x),
        );
        // Barrett: T1 = (R's top 32) * mu, T2 = (T1's top 32) * P, and
        // R - T2 leaves the remainder in the register's second word
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pmu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
        (crc, tail)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn derived_constants_are_the_published_ones() {
            // Intel's white paper and Linux's crc32-pclmul list these
            assert_eq!(BY_4, (0x1_5444_2BD4, 0x1_C6E4_1596));
            assert_eq!(BY_1, (0x1_7519_97D0, 0x0_CCAA_009E));
            assert_eq!(k(64), 0x1_63CD_6124);
            assert_eq!(P, 0x1_DB71_0641);
            assert_eq!(MU, 0x1_F701_1641);
        }
    }
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
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// The table path alone.
    fn tables(bytes: &[u8]) -> u32 {
        !update_tables(!0, bytes)
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
        // zlib.crc32(bytes(range(256)) * 4)
        let ramp: Vec<u8> = (0..1024).map(|i| i as u8).collect();
        assert_eq!(crc32(&ramp), 0xB70B_4C26);
    }

    #[test]
    fn kernel_tables_and_definition_agree_at_every_length_and_offset() {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("pclmulqdq") {
            assert!(clmul::available(), "a PCLMULQDQ host must take the kernel");
        }
        let buf = random_bytes(1100 + 16, 7);
        for start in 0..16 {
            for len in 0..=1100 {
                let s = &buf[start..start + len];
                let want = tables(s);
                assert_eq!(crc32(s), want, "start {start}, len {len}");
                assert_eq!(want, bitwise(s), "tables: start {start}, len {len}");
            }
        }
        // a chunk-sized payload, and a mebibyte
        for (len, seed) in [(37_695, 13), (1 << 20, 11)] {
            let buf = random_bytes(len, seed);
            assert_eq!(crc32(&buf), tables(&buf), "len {len}");
        }
        let mib = random_bytes(1 << 20, 11);
        assert_eq!(tables(&mib), bitwise(&mib));
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        // long enough that the kernel checks it too
        let base: Vec<u8> = b"the quick brown fox jumps over the lazy dog"
            .iter()
            .copied()
            .cycle()
            .take(100)
            .collect();
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
