//! Twofish (Schneier et al., 1998) — complete 128-bit-key
//! implementation, built from the specification.
//!
//! The cipher is one of the paper's three workloads. In the accelerated
//! guest program the whole block encryption (whitening, 16 Feistel
//! rounds over the key-dependent g function, whitening) is one custom
//! instruction, [`BlockCircuit`], with the key schedule baked into the
//! configuration like a key-specialised bitstream and the block fed
//! through a five-invocation phase protocol. The software guest and the
//! circuit's software alternative run the same rounds from embedded g
//! tables.

mod block_circuit;
mod cipher;
mod key;
mod mds;
mod qbox;

pub use block_circuit::{BlockCircuit, ENCRYPT_LATENCY};
pub use cipher::Twofish;
pub use key::{KeySchedule, RHO};
pub use mds::{mds_column, rs_reduce, GF_MDS, GF_RS};
pub use qbox::{q0, q1};

#[cfg(test)]
mod tests {
    use super::*;

    /// The published 128-bit-key known-answer test:
    /// all-zero key, all-zero plaintext.
    #[test]
    fn kat_zero_key_zero_plaintext() {
        let tf = Twofish::new(&[0u8; 16]);
        let ct = tf.encrypt_block(&[0u8; 16]);
        assert_eq!(
            ct,
            [
                0x9F, 0x58, 0x9F, 0x5C, 0xF6, 0x12, 0x2C, 0x32, 0xB6, 0xBF, 0xEC, 0x2F, 0x2A,
                0xE8, 0xC3, 0x5A
            ]
        );
    }

    /// Second step of the published iterative KAT (`ecb_ival.txt`):
    /// the zero key encrypting the previous ciphertext.
    #[test]
    fn kat_iterative_second_step() {
        let ct1: [u8; 16] = [
            0x9F, 0x58, 0x9F, 0x5C, 0xF6, 0x12, 0x2C, 0x32, 0xB6, 0xBF, 0xEC, 0x2F, 0x2A, 0xE8,
            0xC3, 0x5A,
        ];
        let tf = Twofish::new(&[0u8; 16]);
        let ct2 = tf.encrypt_block(&ct1);
        // Published vector: CT=D491DB16E7B1C39E86CB086B789F5419.
        assert_eq!(
            ct2,
            [
                0xD4, 0x91, 0xDB, 0x16, 0xE7, 0xB1, 0xC3, 0x9E, 0x86, 0xCB, 0x08, 0x6B, 0x78,
                0x9F, 0x54, 0x19
            ]
        );
    }

    #[test]
    fn decrypt_inverts_encrypt() {
        let tf = Twofish::new(b"0123456789abcdef");
        for i in 0..32u8 {
            let mut pt = [0u8; 16];
            for (j, b) in pt.iter_mut().enumerate() {
                *b = i.wrapping_mul(31).wrapping_add(j as u8);
            }
            let ct = tf.encrypt_block(&pt);
            assert_ne!(ct, pt);
            assert_eq!(tf.decrypt_block(&ct), pt);
        }
    }

    #[test]
    fn avalanche_on_key_and_plaintext() {
        let tf_a = Twofish::new(&[0u8; 16]);
        let mut key_b = [0u8; 16];
        key_b[0] = 1;
        let tf_b = Twofish::new(&key_b);
        let pt = [0u8; 16];
        let (ca, cb) = (tf_a.encrypt_block(&pt), tf_b.encrypt_block(&pt));
        let diff: u32 = ca.iter().zip(&cb).map(|(x, y)| (x ^ y).count_ones()).sum();
        assert!(diff > 30, "key avalanche too weak: {diff} bits");

        let mut pt2 = pt;
        pt2[15] ^= 0x80;
        let cc = tf_a.encrypt_block(&pt2);
        let diff: u32 = ca.iter().zip(&cc).map(|(x, y)| (x ^ y).count_ones()).sum();
        assert!(diff > 30, "plaintext avalanche too weak: {diff} bits");
    }

    #[test]
    fn ecb_stream_roundtrip() {
        let tf = Twofish::new(b"yellow submarine");
        let data: Vec<u8> = (0..160u8).collect();
        let ct = tf.encrypt_ecb(&data);
        assert_eq!(tf.decrypt_ecb(&ct), data);
    }

    #[test]
    #[should_panic(expected = "multiple of 16")]
    fn ecb_rejects_partial_blocks() {
        let tf = Twofish::new(&[0u8; 16]);
        let _ = tf.encrypt_ecb(&[0u8; 17]);
    }
}
