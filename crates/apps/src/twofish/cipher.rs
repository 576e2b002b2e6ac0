//! The 16-round Feistel network.

use super::key::KeySchedule;

/// A keyed Twofish instance.
///
/// Holds the "full keying" g tables alongside the schedule, so the g
/// function is four lookups and three XORs — the same optimisation fast
/// software implementations (and the guest program) use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Twofish {
    ks: KeySchedule,
    gtab: Box<[[u32; 256]; 4]>,
}

impl Twofish {
    /// Expand `key` (128-bit).
    pub fn new(key: &[u8; 16]) -> Self {
        let ks = KeySchedule::new(key);
        let gtab = ks.g_tables();
        Self { ks, gtab }
    }

    #[inline]
    fn g(&self, x: u32) -> u32 {
        let b = x.to_le_bytes();
        self.gtab[0][b[0] as usize]
            ^ self.gtab[1][b[1] as usize]
            ^ self.gtab[2][b[2] as usize]
            ^ self.gtab[3][b[3] as usize]
    }

    /// Access the key schedule (the guest program embeds its subkeys and
    /// the custom instruction bakes in the S words).
    pub fn key_schedule(&self) -> &KeySchedule {
        &self.ks
    }

    fn load(block: &[u8; 16]) -> [u32; 4] {
        let mut w = [0u32; 4];
        for (i, c) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        }
        w
    }

    fn store(w: [u32; 4]) -> [u8; 16] {
        let mut out = [0u8; 16];
        for (i, v) in w.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Encrypt one 16-byte block.
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        Self::store(self.encrypt_words(Self::load(block)))
    }

    /// Encrypt one block held as four little-endian words, the form the
    /// block circuit latches and the guest program stores.
    pub fn encrypt_words(&self, w: [u32; 4]) -> [u32; 4] {
        let k = &self.ks.k;
        // Input whitening.
        let mut r = [w[0] ^ k[0], w[1] ^ k[1], w[2] ^ k[2], w[3] ^ k[3]];
        for round in 0..16 {
            let t0 = self.g(r[0]);
            let t1 = self.g(r[1].rotate_left(8));
            let f0 = t0.wrapping_add(t1).wrapping_add(k[2 * round + 8]);
            let f1 = t0.wrapping_add(t1.wrapping_mul(2)).wrapping_add(k[2 * round + 9]);
            let new2 = (r[2] ^ f0).rotate_right(1);
            let new3 = r[3].rotate_left(1) ^ f1;
            r = [new2, new3, r[0], r[1]];
        }
        // Undo the last swap, output whitening.
        [r[2] ^ k[4], r[3] ^ k[5], r[0] ^ k[6], r[1] ^ k[7]]
    }

    /// Decrypt one 16-byte block.
    pub fn decrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let w = Self::load(block);
        let k = &self.ks.k;
        let mut r = [w[0] ^ k[4], w[1] ^ k[5], w[2] ^ k[6], w[3] ^ k[7]];
        for round in (0..16).rev() {
            let t0 = self.g(r[0]);
            let t1 = self.g(r[1].rotate_left(8));
            let f0 = t0.wrapping_add(t1).wrapping_add(k[2 * round + 8]);
            let f1 = t0.wrapping_add(t1.wrapping_mul(2)).wrapping_add(k[2 * round + 9]);
            let old2 = r[2].rotate_left(1) ^ f0;
            let old3 = (r[3] ^ f1).rotate_right(1);
            r = [old2, old3, r[0], r[1]];
        }
        let out = [r[2] ^ k[0], r[3] ^ k[1], r[0] ^ k[2], r[1] ^ k[3]];
        Self::store(out)
    }

    /// ECB-encrypt a buffer.
    ///
    /// # Panics
    ///
    /// Panics unless `data.len()` is a multiple of 16.
    pub fn encrypt_ecb(&self, data: &[u8]) -> Vec<u8> {
        assert!(data.len().is_multiple_of(16), "ECB needs a multiple of 16 bytes");
        data.chunks_exact(16)
            .flat_map(|b| self.encrypt_block(b.try_into().expect("chunk of 16")))
            .collect()
    }

    /// ECB-decrypt a buffer.
    ///
    /// # Panics
    ///
    /// Panics unless `data.len()` is a multiple of 16.
    pub fn decrypt_ecb(&self, data: &[u8]) -> Vec<u8> {
        assert!(data.len().is_multiple_of(16), "ECB needs a multiple of 16 bytes");
        data.chunks_exact(16)
            .flat_map(|b| self.decrypt_block(b.try_into().expect("chunk of 16")))
            .collect()
    }
}
