//! Software IEEE 754 binary16 ("half", FP16).
//!
//! Tensor cores consume FP16 operands; this type models that precision
//! without external crates. Conversion follows round-to-nearest-even,
//! including subnormal and infinity handling, so quantization effects in the
//! simulated pipeline match real hardware inputs.

/// IEEE binary16 value stored as its bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct F16(pub u16);

impl F16 {
    pub const ZERO: F16 = F16(0);
    pub const ONE: F16 = F16(0x3C00);
    pub const INFINITY: F16 = F16(0x7C00);
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// Largest finite f16 (65504).
    pub const MAX: F16 = F16(0x7BFF);

    /// Convert from f32 with round-to-nearest-even.
    pub fn from_f32(v: f32) -> Self {
        let bits = v.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let man = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf / NaN
            let payload = if man != 0 { 0x0200 } else { 0 };
            return F16(sign | 0x7C00 | payload);
        }

        // Unbiased exponent.
        let e = exp - 127;
        if e > 15 {
            return F16(sign | 0x7C00); // overflow -> inf
        }
        if e >= -14 {
            // Normal range: 10-bit mantissa, round-to-nearest-even on the
            // 13 dropped bits.
            let mant = man >> 13;
            let rest = man & 0x1FFF;
            let mut h = sign | (((e + 15) as u16) << 10) | mant as u16;
            if rest > 0x1000 || (rest == 0x1000 && (mant & 1) == 1) {
                h = h.wrapping_add(1); // may carry into exponent: correct
            }
            return F16(h);
        }
        if e >= -25 {
            // Subnormal: shift in the implicit leading 1.
            let shift = (-14 - e) as u32; // 1..=11
            let full = 0x0080_0000 | man; // 24-bit significand
            let drop = 13 + shift;
            let mant = full >> drop;
            let rest = full & ((1 << drop) - 1);
            let half = 1u32 << (drop - 1);
            let mut h = sign | mant as u16;
            if rest > half || (rest == half && (mant & 1) == 1) {
                h = h.wrapping_add(1);
            }
            return F16(h);
        }
        F16(sign) // underflow to signed zero
    }

    /// Convert to f32 (exact).
    pub fn to_f32(self) -> f32 {
        let h = self.0 as u32;
        let sign = (h & 0x8000) << 16;
        let exp = (h >> 10) & 0x1F;
        let man = h & 0x03FF;
        let bits = if exp == 0 {
            if man == 0 {
                sign
            } else {
                // Subnormal: normalize.
                let mut e = -1i32;
                let mut m = man;
                while m & 0x0400 == 0 {
                    m <<= 1;
                    e -= 1;
                }
                m &= 0x03FF;
                sign | (((114 + e) as u32) << 23) | (m << 13)
            }
        } else if exp == 0x1F {
            sign | 0x7F80_0000 | (man << 13)
        } else {
            sign | ((exp + 112) << 23) | (man << 13)
        };
        f32::from_bits(bits)
    }

    /// Round-trip quantization: the f32 value nearest-representable in f16,
    /// bit for bit `Self::from_f32(v).to_f32()`.
    ///
    /// In the f16 normal range (magnitudes `2^-14 ..< 65520`, f32 bits
    /// `0x3880_0000..0x477F_F000`) the round trip is round-to-nearest-even
    /// of the f32 significand to 11 bits, done directly on the bit pattern;
    /// a carry out of the significand bumps the exponent, as it should.
    /// Subnormals, overflow, infinities and NaN take the full conversion.
    #[inline]
    pub fn quantize(v: f32) -> f32 {
        let bits = v.to_bits();
        if (0x3880_0000..0x477F_F000).contains(&(bits & 0x7FFF_FFFF)) {
            return f32::from_bits((bits + 0x0FFF + ((bits >> 13) & 1)) & !0x1FFF);
        }
        Self::from_f32(v).to_f32()
    }

    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }
}

/// Quantize a slice in place (models staging f32 data through f16
/// storage), bit for bit [`F16::quantize`] per element. Returns whether any
/// result is non-finite (±∞ or NaN).
///
/// Works in 64-element chunks. A chunk whose magnitudes all lie in the f16
/// normal range (or are zero) rounds branch-free on the bit pattern — the
/// same round-to-nearest-even [`F16::quantize`] takes there, which also
/// maps ±0 to itself and can only produce finite values. A chunk holding
/// anything else (f16 subnormals, overflow, ±∞, NaN) reruns element by
/// element through [`F16::quantize`], so one stray value costs one slow
/// chunk, not a slow slice.
pub fn quantize_slice(values: &mut [f32]) -> bool {
    let mut non_finite = false;
    for chunk in values.chunks_mut(64) {
        let fast = chunk.iter().fold(true, |fast, v| {
            let mag = v.to_bits() & 0x7FFF_FFFF;
            fast & ((0x3880_0000..0x477F_F000).contains(&mag) | (mag == 0))
        });
        if fast {
            for v in chunk.iter_mut() {
                let bits = v.to_bits();
                *v = f32::from_bits((bits + 0x0FFF + ((bits >> 13) & 1)) & !0x1FFF);
            }
        } else {
            for v in chunk.iter_mut() {
                *v = F16::quantize(*v);
                non_finite |= !v.is_finite();
            }
        }
    }
    non_finite
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_bit_patterns() {
        assert_eq!(F16::from_f32(0.0).0, 0x0000);
        assert_eq!(F16::from_f32(-0.0).0, 0x8000);
        assert_eq!(F16::from_f32(1.0).0, 0x3C00);
        assert_eq!(F16::from_f32(-2.0).0, 0xC000);
        assert_eq!(F16::from_f32(0.5).0, 0x3800);
        assert_eq!(F16::from_f32(65504.0).0, 0x7BFF);
        assert_eq!(F16::from_f32(1.5).0, 0x3E00);
        assert_eq!(F16::from_f32(0.099975586).0, 0x2E66);
    }

    #[test]
    fn exact_values_roundtrip() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 1024.0, -65504.0, 0.25] {
            assert_eq!(F16::quantize(v), v, "{v}");
        }
    }

    #[test]
    fn overflow_to_infinity() {
        assert_eq!(F16::from_f32(1e6), F16::INFINITY);
        assert_eq!(F16::from_f32(-1e6), F16::NEG_INFINITY);
        assert_eq!(F16::from_f32(65520.0), F16::INFINITY); // above MAX rounds up
    }

    #[test]
    fn subnormals() {
        // Smallest positive subnormal: 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(tiny).0, 0x0001);
        assert_eq!(F16(0x0001).to_f32(), tiny);
        // Largest subnormal: (1023/1024) * 2^-14.
        let big_sub = (1023.0 / 1024.0) * 2.0f32.powi(-14);
        assert_eq!(F16::from_f32(big_sub).0, 0x03FF);
        // Underflow to zero.
        assert_eq!(F16::from_f32(2.0f32.powi(-26)).0, 0x0000);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly between 1.0 and 1+2^-10 -> rounds to even (1.0).
        let v = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(v).0, 0x3C00);
        // 1 + 3*2^-11 is between 1+2^-10 and 1+2^-9 -> rounds to even (1+2^-9).
        let v = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(v).0, 0x3C02);
    }

    #[test]
    fn nan_propagates() {
        let n = F16::from_f32(f32::NAN);
        assert!(n.is_nan());
        assert!(n.to_f32().is_nan());
    }

    #[test]
    fn quantization_error_bounded() {
        // Relative error of f16 quantization is at most 2^-11 for normals.
        let mut x = 0.001f32;
        while x < 60000.0 {
            let q = F16::quantize(x);
            assert!(((q - x) / x).abs() <= 2.0f32.powi(-11), "{x} -> {q}");
            x *= 1.7;
        }
    }

    #[test]
    fn roundtrip_all_finite_f16() {
        // Every finite f16 must roundtrip exactly through f32.
        for bits in 0..=0xFFFFu16 {
            let h = F16(bits);
            if h.is_nan() {
                continue;
            }
            let back = F16::from_f32(h.to_f32());
            assert_eq!(back.0, bits, "bits {bits:#06x}");
        }
    }

    /// `F16::quantize` against the conversion round trip, bit for bit.
    fn assert_quantize_exact(bits: u32) {
        let v = f32::from_bits(bits);
        let want = F16::from_f32(v).to_f32().to_bits();
        assert_eq!(F16::quantize(v).to_bits(), want, "f32 bits {bits:#010x}");
    }

    #[test]
    fn quantize_matches_the_round_trip_on_every_exponent_tie_and_edge() {
        for sign in [0, 0x8000_0000u32] {
            for exp in 0..=0xFFu32 {
                let base = sign | exp << 23;
                // Strided mantissa sweep.
                for man in (0..0x80_0000u32).step_by(0x3FD) {
                    assert_quantize_exact(base | man);
                }
                // Every rounding tie (dropped 13 bits exactly half), both
                // parities of the kept bits, and its two neighbours.
                for kept in 0..0x400u32 {
                    for low in [0x0FFF, 0x1000, 0x1001, 0x1FFF] {
                        assert_quantize_exact(base | kept << 13 | low);
                    }
                }
            }
        }
        for v in [
            2.0f32.powi(-14),
            65504.0,
            65520.0,
            2.0f32.powi(-24),
            2.0f32.powi(-25),
            (1023.0 / 1024.0) * 2.0f32.powi(-14),
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NAN,
        ] {
            for bits in [v.to_bits(), (-v).to_bits()] {
                for b in bits.saturating_sub(2)..=bits.saturating_add(2) {
                    assert_quantize_exact(b);
                }
            }
        }
    }

    /// Every one of the 2^32 f32 bit patterns: too slow for the default run.
    #[test]
    #[ignore = "exhaustive; run with --release -- --ignored"]
    fn quantize_matches_the_round_trip_on_every_f32() {
        for bits in 0..=u32::MAX {
            assert_quantize_exact(bits);
        }
    }

    #[test]
    fn quantize_slice_matches_per_element_quantize_and_flags_non_finite() {
        let specials = [
            1.0f32,
            -0.1,
            0.0,
            -0.0,
            2.0f32.powi(-20),  // f16 subnormal
            -2.0f32.powi(-26), // underflows to -0
            65519.0,
            65520.0, // rounds to +inf
            -65520.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1e-40, // f32 subnormal
        ];
        let mut state = 0x9E37_79B9_u32;
        let mut normal = || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            f32::from_bits(0x3880_0000 + state % (0x477F_F000 - 0x3880_0000))
                * if state & 1 == 0 { 1.0 } else { -1.0 }
        };
        // One clean chunk, then chunks holding one special each at varying
        // positions, then a ragged tail.
        for (len, special_at) in [
            (64usize, None),
            (200, Some(70)),
            (130, Some(129)),
            (77, Some(3)),
        ] {
            for &special in &specials {
                let mut values: Vec<f32> = (0..len).map(|_| normal()).collect();
                values[64..].iter_mut().step_by(7).for_each(|v| *v = 0.0);
                if let Some(at) = special_at {
                    values[at] = special;
                }
                let want: Vec<u32> = values.iter().map(|&v| F16::quantize(v).to_bits()).collect();
                let want_flag = values.iter().any(|&v| !F16::quantize(v).is_finite());
                let flag = quantize_slice(&mut values);
                let got: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    got, want,
                    "len {len}, special {special:e} at {special_at:?}"
                );
                assert_eq!(
                    flag, want_flag,
                    "len {len}, special {special:e} at {special_at:?}"
                );
            }
        }
    }

    #[test]
    fn quantize_slice_in_place() {
        let mut v = vec![1.0f32, 0.1, std::f32::consts::PI];
        quantize_slice(&mut v);
        assert_eq!(v[0], 1.0);
        assert!((v[1] - 0.1).abs() < 1e-4);
        assert!((v[2] - std::f32::consts::PI).abs() < 2e-3);
    }
}
