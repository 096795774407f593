//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) for the durability layer.
//!
//! The snapshot container and the write-ahead log both checksum their
//! payloads so corruption is *detected* rather than surfacing as a panic or
//! a silently-wrong index. The whole implementation is dependency-free by
//! design (the container image bans new crates).
//!
//! The checksum runs slicing-by-8: eight 256-entry tables, generated at
//! compile time, fold eight input bytes per step with eight independent
//! lookups instead of eight dependent ones, so snapshot save and load
//! checksum at memory speed rather than one byte per table round trip.
//! Tail bytes (fewer than eight) take the classic one-table step. The
//! values are the standard zlib/IEEE CRC-32 and identical to the bytewise
//! algorithm, so snapshot and WAL bytes are unchanged.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[t][i]` is the CRC of
/// byte `i` followed by `t` zero bytes, which lets one step consume eight
/// bytes at once.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// CRC-32 of `bytes` (standard init `!0`, final xor `!0` — matches zlib).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The bytewise reference: one table lookup per input byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn known_vectors() {
        // Standard zlib/IEEE test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn slicing_by_8_matches_bytewise_reference() {
        let mut rng = StdRng::seed_from_u64(0x5EED_C320);
        let buf: Vec<u8> = (0..72).map(|_| rng.gen()).collect();
        // Every length 0..=64 at every start offset 0..8, so each tail
        // length and each alignment of the eight-byte steps is covered.
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &buf[offset..offset + len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "offset {offset} len {len}");
            }
        }
        let big: Vec<u8> = (0..1 << 20).map(|_| rng.gen()).collect();
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = b"dkindex snapshot payload".to_vec();
        let reference = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut copy = data.clone();
                copy[i] ^= 1 << bit;
                assert_ne!(crc32(&copy), reference, "flip at byte {i} bit {bit}");
            }
        }
    }
}
