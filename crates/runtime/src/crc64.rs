//! CRC-64/XZ (ECMA-182 polynomial, reflected) for checkpoint integrity.
//!
//! Chosen over a fletcher/adler-style sum because CRC-64 detects *every*
//! error burst shorter than 64 bits — in particular any single corrupted
//! byte anywhere in a checkpoint payload, which is exactly the property
//! the crash-consistency tests assert. The tables are built at compile
//! time. The hot path is slicing-by-8: eight bytes are folded per step
//! with eight independent lookups, one per table, and the last
//! `len % 8` bytes take the bytewise step of table 0.

/// Reflected form of the ECMA-182 polynomial `0x42F0E1EBA9EA3693`.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// `TABLES[0]` is the bytewise table; `TABLES[k][i]` is the CRC update for
/// byte `i` followed by `k` zero bytes, so one 8-byte step is the XOR of
/// one lookup per table.
const fn build_tables() -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
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

static TABLES: [[u64; 256]; 8] = build_tables();

/// CRC-64/XZ of `data` (init `!0`, xorout `!0`, reflected in/out).
pub fn crc64(data: &[u8]) -> u64 {
    let t = &TABLES;
    let mut crc = !0u64;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let word = crc ^ u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
        crc = t[7][(word & 0xFF) as usize]
            ^ t[6][((word >> 8) & 0xFF) as usize]
            ^ t[5][((word >> 16) & 0xFF) as usize]
            ^ t[4][((word >> 24) & 0xFF) as usize]
            ^ t[3][((word >> 32) & 0xFF) as usize]
            ^ t[2][((word >> 40) & 0xFF) as usize]
            ^ t[1][((word >> 48) & 0xFF) as usize]
            ^ t[0][(word >> 56) as usize];
    }
    for &byte in chunks.remainder() {
        crc = t[0][((crc ^ byte as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plain one-lookup-per-byte definition, kept as the reference the
    /// sliced loop is checked against.
    fn crc64_bytewise(data: &[u8]) -> u64 {
        let mut crc = !0u64;
        for &byte in data {
            crc = TABLES[0][((crc ^ byte as u64) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn matches_the_crc64_xz_check_value() {
        // The catalogue check value for CRC-64/XZ over "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64_bytewise(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn empty_input_hashes_to_zero() {
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn sliced_loop_matches_bytewise_at_every_length_and_alignment() {
        // xorshift64 so the bytes are fixed without a dependency.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..308)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=300 {
                let s = &bytes[start..start + len];
                assert_eq!(crc64(s), crc64_bytewise(s), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn every_single_byte_change_is_detected() {
        let base = b"CONVSTENCIL-CKPT payload with some digits 0123456789";
        let reference = crc64(base);
        for pos in 0..base.len() {
            for flip in 1..=255u8 {
                let mut copy = base.to_vec();
                copy[pos] ^= flip;
                assert_ne!(
                    crc64(&copy),
                    reference,
                    "single-byte corruption at {pos} (xor {flip:#x}) went undetected"
                );
            }
        }
    }
}
