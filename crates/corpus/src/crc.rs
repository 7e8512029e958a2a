//! CRC-32 (IEEE 802.3) and CRC-32C (Castagnoli), three ways.
//!
//! The corpus keeps three independent implementations of each polynomial —
//! bitwise, byte-table, and slicing-by-8 — because cross-checking
//! *diverse implementations of the same function* is one of the cheapest
//! CEE detectors: a defective unit rarely corrupts two differently-shaped
//! computations identically. The screening crate exploits this.

use std::sync::OnceLock;

/// The reflected IEEE 802.3 polynomial.
pub const POLY_CRC32: u32 = 0xedb8_8320;
/// The reflected Castagnoli polynomial (used by iSCSI, ext4, etc.).
pub const POLY_CRC32C: u32 = 0x82f6_3b78;

/// Bitwise CRC over `data` with the given reflected polynomial.
pub fn crc_bitwise(poly: u32, data: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ poly
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

fn make_table(poly: u32) -> [u32; 256] {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 { (c >> 1) ^ poly } else { c >> 1 };
        }
        *slot = c;
    }
    table
}

/// A table-driven CRC engine for one polynomial.
#[derive(Debug, Clone)]
pub struct CrcTable {
    /// Slicing tables: `t[0]` is the classic byte table.
    t: Box<[[u32; 256]; 8]>,
    poly: u32,
}

impl CrcTable {
    /// Builds tables for a reflected polynomial.
    pub fn new(poly: u32) -> CrcTable {
        let t0 = make_table(poly);
        let mut t = Box::new([[0u32; 256]; 8]);
        t[0] = t0;
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            }
        }
        CrcTable { t, poly }
    }

    /// The polynomial this engine was built for.
    pub fn poly(&self) -> u32 {
        self.poly
    }

    /// Byte-at-a-time table CRC.
    pub fn crc_table(&self, data: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in data {
            crc = (crc >> 8) ^ self.t[0][((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }

    /// Slicing-by-8 CRC: processes eight bytes per step.
    pub fn crc_slice8(&self, data: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = self.t[7][(lo & 0xff) as usize]
                ^ self.t[6][((lo >> 8) & 0xff) as usize]
                ^ self.t[5][((lo >> 16) & 0xff) as usize]
                ^ self.t[4][(lo >> 24) as usize]
                ^ self.t[3][(hi & 0xff) as usize]
                ^ self.t[2][((hi >> 8) & 0xff) as usize]
                ^ self.t[1][((hi >> 16) & 0xff) as usize]
                ^ self.t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ self.t[0][((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }
}

/// CRC-32 (IEEE) of `data`: slicing-by-8 over tables built on first use.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: OnceLock<CrcTable> = OnceLock::new();
    TABLE
        .get_or_init(|| CrcTable::new(POLY_CRC32))
        .crc_slice8(data)
}

/// CRC-32C (Castagnoli) of `data`, like [`crc32`].
pub fn crc32c(data: &[u8]) -> u32 {
    static TABLE: OnceLock<CrcTable> = OnceLock::new();
    TABLE
        .get_or_init(|| CrcTable::new(POLY_CRC32C))
        .crc_slice8(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHECK: &[u8] = b"123456789";

    #[test]
    fn crc32_check_value() {
        // The canonical "check" value from the CRC catalogues.
        assert_eq!(crc32(CHECK), 0xcbf4_3926);
    }

    #[test]
    fn crc32c_check_value() {
        assert_eq!(crc32c(CHECK), 0xe306_9283);
    }

    #[test]
    fn three_implementations_agree() {
        let table = CrcTable::new(POLY_CRC32);
        let tablec = CrcTable::new(POLY_CRC32C);
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let data: Vec<u8> = (0..n).map(|i| (i * 31 + 7) as u8).collect();
            let bw = crc_bitwise(POLY_CRC32, &data);
            assert_eq!(table.crc_table(&data), bw, "table mismatch at n={n}");
            assert_eq!(table.crc_slice8(&data), bw, "slice8 mismatch at n={n}");
            let bwc = crc_bitwise(POLY_CRC32C, &data);
            assert_eq!(tablec.crc_table(&data), bwc);
            assert_eq!(tablec.crc_slice8(&data), bwc);
        }
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(&[]), 0);
        let table = CrcTable::new(POLY_CRC32);
        assert_eq!(table.crc_slice8(&[]), 0);
    }

    #[test]
    fn single_bit_sensitivity() {
        // A CRC must catch any single-bit flip — that's its job as a CEE
        // detector for copies.
        let data: Vec<u8> = (0..64).collect();
        let base = crc32(&data);
        for byte in 0..64 {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base);
            }
        }
    }

    #[test]
    fn crc_matches_simcpu_instruction() {
        // The simulated `crc32b` instruction and the corpus library agree.
        let data = b"mercurial cores";
        let mut crc = 0xffff_ffffu32;
        for &b in data {
            crc = mercurial_simcpu::exec::crc32_step(crc, b);
        }
        assert_eq!(!crc, crc32(data));
    }
}
