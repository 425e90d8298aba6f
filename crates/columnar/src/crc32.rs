//! CRC-32 (IEEE 802.3 polynomial, reflected) implemented in-crate.
//!
//! The build environment is offline, so rather than pulling in a checksum
//! crate we carry a table-driven implementation: slicing-by-8, which folds
//! eight input bytes per step through eight 256-entry tables (8 KiB,
//! computed at compile time) and finishes the tail bytewise. Every table
//! footer, chunk decode, save, WAL record and open-time sweep pays for this
//! checksum, so it runs about four times faster than the classic
//! one-byte-per-step loop while producing the same value. This is the same
//! polynomial Parquet uses for its optional page-level CRC field, which the
//! table footers emulate (see DESIGN.md, "Fault tolerance").

/// Reflected IEEE polynomial.
const POLY: u32 = 0xedb8_8320;

/// `TABLES[k][b]` is the CRC register after feeding byte `b` followed by
/// `k` zero bytes into a zero register; `TABLES[0]` is the classic bytewise
/// table.
const TABLES: [[u32; 256]; 8] = {
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
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
};

/// Computes the CRC-32 checksum of `data`.
///
/// Matches the standard zlib/`crc32fast` output: initial value `!0`, final
/// XOR `!0`, reflected input and output.
pub fn crc32(data: &[u8]) -> u32 {
    update(0xffff_ffff, data) ^ 0xffff_ffff
}

/// Streaming update: feed a raw (pre-final-XOR) state through more bytes,
/// eight at a time, then the remainder one at a time.
fn update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-byte-per-step loop the sliced kernel must agree with.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        crc ^ 0xffff_ffff
    }

    /// Deterministic pseudo-random bytes (xorshift64).
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xe8b7_be43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn sliced_kernel_matches_bytewise_reference() {
        let buf = noise(96);
        for start in 0..8 {
            for len in 0..=80 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), bytewise(data), "start {start} len {len}");
            }
        }
        let big = noise(1 << 20);
        assert_eq!(crc32(&big), bytewise(&big));
    }

    #[test]
    fn detects_single_byte_changes() {
        let base = b"hello columnar world".to_vec();
        let c0 = crc32(&base);
        for i in 0..base.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut m = base.clone();
                m[i] ^= flip;
                assert_ne!(crc32(&m), c0, "flip {flip:#x} at {i} undetected");
            }
        }
    }
}
