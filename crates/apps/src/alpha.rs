//! Alpha-blending workload: reference implementation and circuits.
//!
//! Pixels are RGBA8888 words (R in bits 7:0 … A in bits 31:24). The
//! custom instruction blends one whole pixel: `op_a` is the source pixel
//! (its A channel is the blend factor), `op_b` the destination pixel; the
//! result keeps the destination's alpha. The 6-cycle latency models three
//! sequential channel blends on the shared-multiplier datapath of the
//! gate-level channel circuit
//! ([`proteus_fabric::library::alpha_blend_channel`], 2 cycles per
//! channel), which tests prove arithmetic-equivalent per channel.

use proteus_fabric::library::alpha_blend_ref;
use proteus_rfu::behavioral::FixedLatency;
use proteus_rfu::PfuCircuit;

/// Cycles per pixel-blend custom instruction (3 channels × 2 cycles).
pub const BLEND_LATENCY: u32 = 6;

/// Blend a whole RGBA pixel: each colour channel of `src` over `dst`
/// using `src`'s alpha; the result's alpha is `dst`'s.
pub fn blend_pixel(src: u32, dst: u32) -> u32 {
    let alpha = (src >> 24 & 0xFF) as u8;
    let mut out = dst & 0xFF00_0000;
    for shift in [0u32, 8, 16] {
        let s = (src >> shift & 0xFF) as u8;
        let d = (dst >> shift & 0xFF) as u8;
        out |= u32::from(alpha_blend_ref(s, d, alpha)) << shift;
    }
    out
}

/// Blend `src` over `dst` in place, `passes` times.
///
/// Each pixel stops at the first pass that leaves it unchanged: a fixed
/// point of [`blend_pixel`] stays one, so the result equals `passes`
/// plain blends. Every colour channel's map is monotone in the
/// destination, so repeated blends move it one way until it stops, and
/// every pixel is fixed within 255 passes.
///
/// # Panics
///
/// Panics if the buffers differ in length.
pub fn blend_image(src: &[u32], dst: &mut [u32], passes: u32) {
    assert_eq!(src.len(), dst.len(), "image size mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        for _ in 0..passes {
            let next = blend_pixel(s, *d);
            if next == *d {
                break;
            }
            *d = next;
        }
    }
}

/// The hardware implementation of the pixel-blend custom instruction.
pub fn blend_circuit() -> Box<dyn PfuCircuit> {
    Box::new(FixedLatency::new("alpha_pixel", BLEND_LATENCY, 16, blend_pixel))
}

/// Deterministic pseudo-random pixel data (xorshift32), shared between
/// the host reference and the guest program generator.
pub fn test_pixels(n: usize, mut seed: u32) -> Vec<u32> {
    (0..n)
        .map(|_| {
            seed ^= seed << 13;
            seed ^= seed >> 17;
            seed ^= seed << 5;
            seed
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn endpoints() {
        let src_opaque = 0xFF00_00FF; // alpha 255, red 255
        let dst = 0x8800_FF00; // green
        let out = blend_pixel(src_opaque, dst);
        assert_eq!(out & 0xFF, 0xFF, "opaque source wins on red");
        assert_eq!(out >> 8 & 0xFF, 0, "opaque source wins on green");
        assert_eq!(out >> 24, 0x88, "destination alpha preserved");

        let src_clear = 0x0000_00FF;
        let out = blend_pixel(src_clear, dst);
        assert_eq!(out, dst, "transparent source leaves destination");
    }

    #[test]
    fn circuit_matches_reference() {
        let mut c = blend_circuit();
        for (&s, &d) in test_pixels(16, 1).iter().zip(&test_pixels(16, 2)) {
            let mut init = true;
            let out = loop {
                let o = c.clock(s, d, init);
                init = false;
                if o.done {
                    break o.result;
                }
            };
            assert_eq!(out, blend_pixel(s, d));
        }
    }

    /// `passes` plain blends of one pixel: the referee of `blend_image`.
    fn naive(src: u32, mut dst: u32, passes: u32) -> u32 {
        for _ in 0..passes {
            dst = blend_pixel(src, dst);
        }
        dst
    }

    #[test]
    fn blend_image_in_place() {
        let src = test_pixels(64, 7);
        let dst0 = test_pixels(64, 9);
        for passes in [0, 1, 2, 3, 40] {
            let mut dst = dst0.clone();
            blend_image(&src, &mut dst, passes);
            let expect: Vec<u32> = src.iter().zip(&dst0).map(|(&s, &d)| naive(s, d, passes)).collect();
            assert_eq!(dst, expect, "{passes} passes");
        }
    }

    #[test]
    fn slowest_pixel_needs_255_passes() {
        // Source channels 0 at alpha 1 over destination 255: every pass
        // lowers each channel by one.
        let (src, dst0) = (0x0100_0000, 0x00FF_FFFF);
        assert_eq!(naive(src, dst0, 254), 0x0001_0101);
        assert_eq!(naive(src, dst0, 255), 0);
        for passes in [254, 255, 256, 300] {
            let mut dst = [dst0];
            blend_image(&[src], &mut dst, passes);
            assert_eq!(dst[0], naive(src, dst0, passes), "{passes} passes");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn blend_image_matches_repeated_blends(
            src in any::<u32>(),
            dst in any::<u32>(),
            passes in 0u32..=600,
        ) {
            let mut out = [dst];
            blend_image(&[src], &mut out, passes);
            prop_assert_eq!(out[0], naive(src, dst, passes));
        }
    }

    #[test]
    fn test_pixels_deterministic() {
        assert_eq!(test_pixels(10, 42), test_pixels(10, 42));
        assert_ne!(test_pixels(10, 42), test_pixels(10, 43));
    }
}
