//! Software AES-128/192/256, implemented from FIPS-197.
//!
//! This is the corpus's "cryptography" library — deliberately independent
//! of the round primitives inside `mercurial-simcpu`, so the two
//! implementations cross-check each other. §7 of the paper singles out
//! encryption as a function "where one CEE could have a large blast
//! radius" (a corrupted key or block can render data permanently
//! inaccessible); the self-checking wrapper in `mercurial-mitigation`
//! builds on this module.
//!
//! The implementation favors clarity over speed: byte-oriented state, the
//! S-box computed from the field inverse and affine map rather than
//! transcribed, and no lookup-table trickery.

use std::sync::OnceLock;

/// AES key sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySize {
    /// 128-bit key, 10 rounds.
    Aes128,
    /// 192-bit key, 12 rounds.
    Aes192,
    /// 256-bit key, 14 rounds.
    Aes256,
}

impl KeySize {
    /// Key length in bytes.
    pub fn key_len(self) -> usize {
        match self {
            KeySize::Aes128 => 16,
            KeySize::Aes192 => 24,
            KeySize::Aes256 => 32,
        }
    }

    /// Number of rounds.
    pub fn rounds(self) -> usize {
        match self {
            KeySize::Aes128 => 10,
            KeySize::Aes192 => 12,
            KeySize::Aes256 => 14,
        }
    }

    fn nk(self) -> usize {
        self.key_len() / 4
    }
}

fn xtime(a: u8) -> u8 {
    (a << 1) ^ if a & 0x80 != 0 { 0x1b } else { 0 }
}

fn gmul(a: u8, b: u8) -> u8 {
    let mut acc = 0;
    let mut a = a;
    let mut b = b;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    acc
}

fn sboxes() -> &'static ([u8; 256], [u8; 256]) {
    static T: OnceLock<([u8; 256], [u8; 256])> = OnceLock::new();
    T.get_or_init(|| {
        // Build the S-box as affine(inverse(x)); the inverse by brute
        // force pairing (the field is tiny).
        let mut inv = [0u8; 256];
        for a in 1..=255u8 {
            for b in 1..=255u8 {
                if gmul(a, b) == 1 {
                    inv[a as usize] = b;
                    break;
                }
            }
        }
        let mut sbox = [0u8; 256];
        for i in 0..256 {
            let x = inv[i];
            let mut y = 0u8;
            for bit in 0..8 {
                let v = ((x >> bit)
                    ^ (x >> ((bit + 4) % 8))
                    ^ (x >> ((bit + 5) % 8))
                    ^ (x >> ((bit + 6) % 8))
                    ^ (x >> ((bit + 7) % 8))
                    ^ (0x63 >> bit))
                    & 1;
                y |= v << bit;
            }
            sbox[i] = y;
        }
        let mut isbox = [0u8; 256];
        for (i, &s) in sbox.iter().enumerate() {
            isbox[s as usize] = i as u8;
        }
        (sbox, isbox)
    })
}

/// An expanded AES key ready for block operations.
///
/// # Examples
///
/// ```
/// use mercurial_corpus::aes::{Aes, KeySize};
///
/// let key = [0u8; 16];
/// let aes = Aes::new(KeySize::Aes128, &key).unwrap();
/// let block = *b"attack at dawn!!";
/// let ct = aes.encrypt_block(block);
/// assert_eq!(aes.decrypt_block(ct), block);
/// ```
#[derive(Debug, Clone)]
pub struct Aes {
    /// One key per round plus the initial whitening key.
    round_keys: Vec<[u8; 16]>,
}

/// Errors from AES construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AesError {
    /// Key length does not match the requested key size.
    BadKeyLength {
        /// Expected byte length.
        expected: usize,
        /// Provided byte length.
        got: usize,
    },
}

impl std::fmt::Display for AesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AesError::BadKeyLength { expected, got } => {
                write!(f, "bad key length: expected {expected} bytes, got {got}")
            }
        }
    }
}

impl std::error::Error for AesError {}

impl Aes {
    /// Expands a key.
    ///
    /// # Errors
    ///
    /// Returns [`AesError::BadKeyLength`] if `key` is not exactly
    /// [`KeySize::key_len`] bytes.
    pub fn new(size: KeySize, key: &[u8]) -> Result<Aes, AesError> {
        if key.len() != size.key_len() {
            return Err(AesError::BadKeyLength {
                expected: size.key_len(),
                got: key.len(),
            });
        }
        let nk = size.nk();
        let nr = size.rounds();
        let sbox = &sboxes().0;
        let mut w = vec![[0u8; 4]; 4 * (nr + 1)];
        for (i, chunk) in key.chunks(4).enumerate() {
            w[i].copy_from_slice(chunk);
        }
        let mut rcon = 1u8;
        for i in nk..4 * (nr + 1) {
            let mut t = w[i - 1];
            if i % nk == 0 {
                t.rotate_left(1);
                for v in t.iter_mut() {
                    *v = sbox[*v as usize];
                }
                t[0] ^= rcon;
                rcon = xtime(rcon);
            } else if nk > 6 && i % nk == 4 {
                for v in t.iter_mut() {
                    *v = sbox[*v as usize];
                }
            }
            for j in 0..4 {
                w[i][j] = w[i - nk][j] ^ t[j];
            }
        }
        let round_keys = (0..=nr)
            .map(|r| {
                let mut k = [0u8; 16];
                for c in 0..4 {
                    k[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
                }
                k
            })
            .collect();
        Ok(Aes { round_keys })
    }

    fn add_round_key(state: &mut [u8; 16], key: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(key) {
            *s ^= k;
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        let sbox = &sboxes().0;
        for s in state.iter_mut() {
            *s = sbox[*s as usize];
        }
    }

    fn inv_sub_bytes(state: &mut [u8; 16]) {
        let isbox = &sboxes().1;
        for s in state.iter_mut() {
            *s = isbox[*s as usize];
        }
    }

    fn shift_rows(state: &mut [u8; 16]) {
        let src = *state;
        for r in 0..4 {
            for c in 0..4 {
                state[r + 4 * c] = src[r + 4 * ((c + r) % 4)];
            }
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        let src = *state;
        for r in 0..4 {
            for c in 0..4 {
                state[r + 4 * ((c + r) % 4)] = src[r + 4 * c];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = gmul(col[0], 2) ^ gmul(col[1], 3) ^ col[2] ^ col[3];
            state[4 * c + 1] = col[0] ^ gmul(col[1], 2) ^ gmul(col[2], 3) ^ col[3];
            state[4 * c + 2] = col[0] ^ col[1] ^ gmul(col[2], 2) ^ gmul(col[3], 3);
            state[4 * c + 3] = gmul(col[0], 3) ^ col[1] ^ col[2] ^ gmul(col[3], 2);
        }
    }

    fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
            state[4 * c + 1] =
                gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
            state[4 * c + 2] =
                gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
            state[4 * c + 3] =
                gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
        }
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        let nr = self.round_keys.len() - 1;
        let mut state = block;
        Aes::add_round_key(&mut state, &self.round_keys[0]);
        for r in 1..nr {
            Aes::sub_bytes(&mut state);
            Aes::shift_rows(&mut state);
            Aes::mix_columns(&mut state);
            Aes::add_round_key(&mut state, &self.round_keys[r]);
        }
        Aes::sub_bytes(&mut state);
        Aes::shift_rows(&mut state);
        Aes::add_round_key(&mut state, &self.round_keys[nr]);
        state
    }

    /// Decrypts one 16-byte block.
    pub fn decrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        let nr = self.round_keys.len() - 1;
        let mut state = block;
        Aes::add_round_key(&mut state, &self.round_keys[nr]);
        Aes::inv_shift_rows(&mut state);
        Aes::inv_sub_bytes(&mut state);
        for r in (1..nr).rev() {
            Aes::add_round_key(&mut state, &self.round_keys[r]);
            Aes::inv_mix_columns(&mut state);
            Aes::inv_shift_rows(&mut state);
            Aes::inv_sub_bytes(&mut state);
        }
        Aes::add_round_key(&mut state, &self.round_keys[0]);
        state
    }

    /// Encrypts or decrypts a byte stream in CTR mode (symmetric).
    ///
    /// `nonce` fills the upper 8 bytes of the counter block; the lower 8
    /// are a big-endian block counter.
    pub fn ctr_xor(&self, nonce: u64, data: &mut [u8]) {
        for (i, chunk) in data.chunks_mut(16).enumerate() {
            let mut ctr_block = [0u8; 16];
            ctr_block[..8].copy_from_slice(&nonce.to_be_bytes());
            ctr_block[8..].copy_from_slice(&(i as u64).to_be_bytes());
            let pad = self.encrypt_block(ctr_block);
            for (b, p) in chunk.iter_mut().zip(pad.iter()) {
                *b ^= p;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips197_c1_aes128() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let pt: [u8; 16] = core::array::from_fn(|i| (i * 0x11) as u8);
        let aes = Aes::new(KeySize::Aes128, &key).unwrap();
        let ct = aes.encrypt_block(pt);
        assert_eq!(
            ct,
            [
                0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
                0xc5, 0x5a
            ]
        );
        assert_eq!(aes.decrypt_block(ct), pt);
    }

    #[test]
    fn fips197_c2_aes192() {
        let key: [u8; 24] = core::array::from_fn(|i| i as u8);
        let pt: [u8; 16] = core::array::from_fn(|i| (i * 0x11) as u8);
        let aes = Aes::new(KeySize::Aes192, &key).unwrap();
        let ct = aes.encrypt_block(pt);
        assert_eq!(
            ct,
            [
                0xdd, 0xa9, 0x7c, 0xa4, 0x86, 0x4c, 0xdf, 0xe0, 0x6e, 0xaf, 0x70, 0xa0, 0xec, 0x0d,
                0x71, 0x91
            ]
        );
        assert_eq!(aes.decrypt_block(ct), pt);
    }

    #[test]
    fn fips197_c3_aes256() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let pt: [u8; 16] = core::array::from_fn(|i| (i * 0x11) as u8);
        let aes = Aes::new(KeySize::Aes256, &key).unwrap();
        let ct = aes.encrypt_block(pt);
        assert_eq!(
            ct,
            [
                0x8e, 0xa2, 0xb7, 0xca, 0x51, 0x67, 0x45, 0xbf, 0xea, 0xfc, 0x49, 0x90, 0x4b, 0x49,
                0x60, 0x89
            ]
        );
        assert_eq!(aes.decrypt_block(ct), pt);
    }

    #[test]
    fn bad_key_length_rejected() {
        assert_eq!(
            Aes::new(KeySize::Aes128, &[0u8; 17]).unwrap_err(),
            AesError::BadKeyLength {
                expected: 16,
                got: 17
            }
        );
    }

    #[test]
    fn ctr_mode_roundtrips_odd_lengths() {
        let aes = Aes::new(KeySize::Aes128, &[7u8; 16]).unwrap();
        let mut data: Vec<u8> = (0..100u8).collect();
        let orig = data.clone();
        aes.ctr_xor(0xdead_beef, &mut data);
        assert_ne!(data, orig);
        aes.ctr_xor(0xdead_beef, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn ctr_nonce_separates_streams() {
        let aes = Aes::new(KeySize::Aes128, &[7u8; 16]).unwrap();
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        aes.ctr_xor(1, &mut a);
        aes.ctr_xor(2, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn agrees_with_simcpu_reference() {
        // Two independent implementations must agree on random blocks —
        // this is itself an example of CEE-style cross-checking.
        use mercurial_fault::CounterRng;
        let mut rng = CounterRng::new(1234);
        for _ in 0..20 {
            let mut key = [0u8; 16];
            let mut block = [0u8; 16];
            rng.fill_bytes(&mut key);
            rng.fill_bytes(&mut block);
            let ours = Aes::new(KeySize::Aes128, &key)
                .unwrap()
                .encrypt_block(block);
            let theirs = mercurial_simcpu::crypto::aes128_encrypt_block(key, block);
            assert_eq!(ours, theirs);
        }
    }
}
