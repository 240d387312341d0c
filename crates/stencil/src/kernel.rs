//! Stencil kernels: the table of weighted contributions applied at each point.
//!
//! Coefficients are always stored in `f64` (the compile-time/AOT side of every
//! system works at full precision; executors convert to their compute type).
//! A 2D kernel is a dense `(2r+1) × (2r+1)` row-major table — star kernels
//! simply have zeros off-axis, which is exactly how the transformation
//! pipeline treats them (paper §4.2: SPIDER applies the box strategy to every
//! shape).

use crate::shape::{Dim, StencilShape};

/// A stencil kernel: shape descriptor plus dense coefficient table.
///
/// Equality and hashing compare the coefficient *bit patterns* (plus the
/// shape), so kernels behave as well-defined map keys: `k1 == k2` implies
/// `hash(k1) == hash(k2)`, `Eq` is total, and two kernels compare equal
/// exactly when a compiled plan for one is valid for the other. The only
/// divergence from numeric `f64` comparison is that `-0.0 != 0.0` and
/// `NaN == NaN` under this definition — both irrelevant for real stencils
/// and exactly what a content-addressed plan cache wants.
#[derive(Debug, Clone)]
pub struct StencilKernel {
    shape: StencilShape,
    /// Row-major `(2r+1) x (2r+1)` for 2D; length `2r+1` for 1D.
    coeffs: Vec<f64>,
}

impl PartialEq for StencilKernel {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape
            && self.coeffs.len() == other.coeffs.len()
            && self
                .coeffs
                .iter()
                .zip(&other.coeffs)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

impl Eq for StencilKernel {}

impl std::hash::Hash for StencilKernel {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.shape.hash(state);
        for c in &self.coeffs {
            c.to_bits().hash(state);
        }
    }
}

impl StencilKernel {
    /// Build a 1D kernel from its `2r+1` coefficients.
    pub fn d1(radius: usize, coeffs: &[f64]) -> Self {
        assert_eq!(
            coeffs.len(),
            2 * radius + 1,
            "1D kernel needs 2r+1 coefficients"
        );
        Self {
            shape: StencilShape::d1(radius),
            coeffs: coeffs.to_vec(),
        }
    }

    /// Build a Box-2D kernel from its `(2r+1)^2` row-major coefficients.
    pub fn box_2d(radius: usize, coeffs: &[f64]) -> Self {
        let d = 2 * radius + 1;
        assert_eq!(
            coeffs.len(),
            d * d,
            "Box-2D kernel needs (2r+1)^2 coefficients"
        );
        Self {
            shape: StencilShape::box_2d(radius),
            coeffs: coeffs.to_vec(),
        }
    }

    /// Build a Star-2D kernel from per-axis coefficients.
    ///
    /// `vertical` and `horizontal` each hold `2r+1` values; the two must agree
    /// on the center value (index `r`), which is stored once.
    pub fn star_2d(radius: usize, vertical: &[f64], horizontal: &[f64]) -> Self {
        let d = 2 * radius + 1;
        assert_eq!(vertical.len(), d, "vertical axis needs 2r+1 coefficients");
        assert_eq!(
            horizontal.len(),
            d,
            "horizontal axis needs 2r+1 coefficients"
        );
        assert!(
            (vertical[radius] - horizontal[radius]).abs() < 1e-12,
            "axes must agree on the center coefficient"
        );
        let mut coeffs = vec![0.0; d * d];
        for (i, &v) in vertical.iter().enumerate() {
            coeffs[i * d + radius] = v;
        }
        for (j, &h) in horizontal.iter().enumerate() {
            coeffs[radius * d + j] = h;
        }
        Self {
            shape: StencilShape::star_2d(radius),
            coeffs,
        }
    }

    /// Build a 2D kernel from a function of the relative offset `(di, dj)`.
    /// Offsets outside the shape are forced to zero.
    pub fn from_fn_2d(shape: StencilShape, mut f: impl FnMut(isize, isize) -> f64) -> Self {
        assert_eq!(shape.dim, Dim::D2);
        let r = shape.radius as isize;
        let d = shape.diameter();
        let mut coeffs = vec![0.0; d * d];
        for di in -r..=r {
            for dj in -r..=r {
                if shape.contains(di, dj) {
                    coeffs[((di + r) as usize) * d + (dj + r) as usize] = f(di, dj);
                }
            }
        }
        Self { shape, coeffs }
    }

    // ----- standard kernels used by the examples and benchmarks -----

    /// 2D heat-equation (diffusion) kernel: star, `u += alpha * laplacian(u)`.
    pub fn heat_2d(alpha: f64) -> Self {
        Self::star_2d(
            1,
            &[alpha, 1.0 - 4.0 * alpha, alpha],
            &[alpha, 1.0 - 4.0 * alpha, alpha],
        )
    }

    /// Classic 5-point Jacobi averaging kernel.
    pub fn jacobi_2d() -> Self {
        Self::star_2d(1, &[0.25, 0.0, 0.25], &[0.25, 0.0, 0.25])
    }

    /// Normalized Gaussian-like box blur of the given radius (symmetric,
    /// separable — exercises LoRAStencil's preferred regime).
    pub fn gaussian_2d(radius: usize) -> Self {
        let d = 2 * radius + 1;
        // Binomial weights approximate a Gaussian and are exactly separable:
        // binom[k] = C(d-1, k).
        let mut binom = vec![1.0f64; d];
        for k in 1..d {
            binom[k] = binom[k - 1] * ((d - k) as f64) / (k as f64);
        }
        let sum: f64 = binom.iter().sum();
        let norm: Vec<f64> = binom.iter().map(|b| b / sum).collect();
        let mut coeffs = vec![0.0; d * d];
        for i in 0..d {
            for j in 0..d {
                coeffs[i * d + j] = norm[i] * norm[j];
            }
        }
        Self {
            shape: StencilShape::box_2d(radius),
            coeffs,
        }
    }

    /// Second-order-accurate 1D wave/advection-style kernel of radius `r`
    /// with alternating-sign taps (asymmetric for r>=1 — exercises the
    /// general, non-symmetric path that LoRAStencil cannot handle).
    pub fn wave_1d(radius: usize) -> Self {
        let d = 2 * radius + 1;
        let mut c = vec![0.0f64; d];
        for (k, slot) in c.iter_mut().enumerate() {
            let off = k as isize - radius as isize;
            *slot = if off == 0 {
                1.0
            } else {
                // Decaying, sign-alternating, asymmetric taps.
                0.5 / (off as f64) * if off > 0 { 1.0 } else { 0.8 }
            };
        }
        Self::d1(radius, &c)
    }

    /// Deterministic pseudo-random kernel for property tests: every in-shape
    /// coefficient non-zero, values in `[-1, 1]`.
    pub fn random(shape: StencilShape, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let v = state.wrapping_mul(0x2545F4914F6CDD1D);
            ((v >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        match shape.dim {
            Dim::D1 => {
                let c: Vec<f64> = (0..shape.diameter())
                    .map(|_| {
                        let v = next();
                        if v.abs() < 1e-3 {
                            0.1
                        } else {
                            v
                        }
                    })
                    .collect();
                Self { shape, coeffs: c }
            }
            Dim::D2 => Self::from_fn_2d(shape, |_, _| {
                let v = next();
                if v.abs() < 1e-3 {
                    0.1
                } else {
                    v
                }
            }),
        }
    }

    // ----- accessors -----

    pub fn shape(&self) -> StencilShape {
        self.shape
    }

    pub fn radius(&self) -> usize {
        self.shape.radius
    }

    pub fn diameter(&self) -> usize {
        self.shape.diameter()
    }

    /// Raw dense coefficient table.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Coefficient at relative offset `(di, dj)`; zero outside the table.
    pub fn at(&self, di: isize, dj: isize) -> f64 {
        let r = self.shape.radius as isize;
        if di.abs() > r || dj.abs() > r {
            return 0.0;
        }
        match self.shape.dim {
            Dim::D1 => {
                if di != 0 {
                    0.0
                } else {
                    self.coeffs[(dj + r) as usize]
                }
            }
            Dim::D2 => self.coeffs[((di + r) as usize) * self.diameter() + (dj + r) as usize],
        }
    }

    /// The `m`-th kernel row (`m ∈ 0..2r+1`), the unit of the paper's
    /// row-decomposition (§3.1.1). For 1D kernels only `m == r`... no:
    /// a 1D kernel is a single row, returned for `m == 0`.
    pub fn row(&self, m: usize) -> &[f64] {
        let d = self.diameter();
        match self.shape.dim {
            Dim::D1 => {
                assert_eq!(m, 0, "1D kernels have a single row");
                &self.coeffs
            }
            Dim::D2 => {
                assert!(m < d);
                &self.coeffs[m * d..(m + 1) * d]
            }
        }
    }

    /// Number of decomposition rows: 1 for 1D, `2r+1` for 2D.
    pub fn num_rows(&self) -> usize {
        match self.shape.dim {
            Dim::D1 => 1,
            Dim::D2 => self.diameter(),
        }
    }

    /// True if the kernel equals its transpose and each row is palindromic —
    /// the "symmetric kernel" assumption LoRAStencil requires (paper §2.2).
    pub fn is_symmetric(&self) -> bool {
        let d = self.diameter();
        match self.shape.dim {
            Dim::D1 => (0..d).all(|j| (self.coeffs[j] - self.coeffs[d - 1 - j]).abs() < 1e-12),
            Dim::D2 => {
                for i in 0..d {
                    for j in 0..d {
                        let v = self.coeffs[i * d + j];
                        if (v - self.coeffs[j * d + i]).abs() > 1e-12 {
                            return false;
                        }
                        if (v - self.coeffs[(d - 1 - i) * d + (d - 1 - j)]).abs() > 1e-12 {
                            return false;
                        }
                    }
                }
                true
            }
        }
    }

    /// Sum of all coefficients (useful for conservation checks in examples).
    pub fn coeff_sum(&self) -> f64 {
        self.coeffs.iter().sum()
    }

    /// Stable 64-bit content fingerprint of the kernel: shape kind,
    /// dimensionality, radius and every coefficient bit pattern.
    ///
    /// FNV-1a over a fixed byte serialization — independent of platform,
    /// process, `Hasher` implementation and compiler version, so it is safe
    /// to persist (plan-cache keys, bench baselines) across runs. Two
    /// kernels share a fingerprint exactly when they are `==` (up to the
    /// 2^-64 collision probability of any 64-bit content hash).
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::fnv::Fnv1a::new();
        h.byte(match self.shape.kind {
            crate::shape::ShapeKind::Star => 1,
            crate::shape::ShapeKind::Box => 2,
        });
        h.byte(self.shape.dim.rank() as u8);
        h.word(self.shape.radius as u64);
        for c in &self.coeffs {
            h.word(c.to_bits());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d1_roundtrip() {
        let k = StencilKernel::d1(2, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(k.at(0, -2), 1.0);
        assert_eq!(k.at(0, 0), 3.0);
        assert_eq!(k.at(0, 2), 5.0);
        assert_eq!(k.at(0, 3), 0.0);
        assert_eq!(k.at(1, 0), 0.0);
        assert_eq!(k.num_rows(), 1);
        assert_eq!(k.row(0), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn box_2d_indexing() {
        let k = StencilKernel::box_2d(1, &[1., 2., 3., 4., 5., 6., 7., 8., 9.]);
        assert_eq!(k.at(-1, -1), 1.0);
        assert_eq!(k.at(0, 0), 5.0);
        assert_eq!(k.at(1, 1), 9.0);
        assert_eq!(k.row(0), &[1., 2., 3.]);
        assert_eq!(k.row(2), &[7., 8., 9.]);
        assert_eq!(k.num_rows(), 3);
    }

    #[test]
    fn star_2d_off_axis_zero() {
        let k = StencilKernel::star_2d(2, &[1., 2., 5., 2., 1.], &[3., 4., 5., 4., 3.]);
        assert_eq!(k.at(0, 0), 5.0);
        assert_eq!(k.at(-2, 0), 1.0);
        assert_eq!(k.at(0, 2), 3.0);
        assert_eq!(k.at(1, 1), 0.0);
        assert_eq!(k.at(2, 1), 0.0);
    }

    #[test]
    fn heat_kernel_conserves_mass() {
        let k = StencilKernel::heat_2d(0.1);
        assert!((k.coeff_sum() - 1.0).abs() < 1e-12);
        assert!(k.is_symmetric());
    }

    #[test]
    fn gaussian_is_symmetric_and_normalized() {
        for r in 1..=3 {
            let k = StencilKernel::gaussian_2d(r);
            assert!(k.is_symmetric(), "gaussian r={r} should be symmetric");
            assert!((k.coeff_sum() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn wave_kernel_is_asymmetric() {
        let k = StencilKernel::wave_1d(2);
        assert!(!k.is_symmetric());
    }

    #[test]
    fn random_kernel_fills_shape() {
        let k = StencilKernel::random(StencilShape::box_2d(2), 7);
        for (di, dj) in StencilShape::box_2d(2).offsets() {
            assert!(k.at(di, dj) != 0.0, "({di},{dj}) should be non-zero");
        }
        // Deterministic for a fixed seed.
        let k2 = StencilKernel::random(StencilShape::box_2d(2), 7);
        assert_eq!(k.coeffs(), k2.coeffs());
    }

    #[test]
    fn random_star_keeps_off_axis_zero() {
        let k = StencilKernel::random(StencilShape::star_2d(3), 11);
        assert_eq!(k.at(1, 1), 0.0);
        assert!(k.at(0, 3) != 0.0);
        assert!(k.at(-3, 0) != 0.0);
    }

    #[test]
    #[should_panic(expected = "coefficients")]
    fn wrong_coeff_count_panics() {
        StencilKernel::d1(2, &[1.0, 2.0]);
    }

    #[test]
    fn fingerprint_is_stable_and_content_addressed() {
        let a = StencilKernel::gaussian_2d(2);
        let b = StencilKernel::gaussian_2d(2);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Different coefficients, same shape.
        let c = StencilKernel::random(StencilShape::box_2d(2), 3);
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Same coefficient table, different shape kind (star stores zeros
        // off-axis; a box with identical zeros must still differ).
        let star = StencilKernel::star_2d(1, &[1., 2., 1.], &[3., 2., 3.]);
        let boxed = StencilKernel::box_2d(1, star.coeffs());
        assert_ne!(star.fingerprint(), boxed.fingerprint());
        assert_ne!(star, boxed);
    }

    #[test]
    fn fingerprint_golden_value_pins_serialization() {
        // Guards against accidental format changes: this value may only
        // change with a deliberate cache-format bump.
        let k = StencilKernel::d1(1, &[1.0, 2.0, 3.0]);
        assert_eq!(k.fingerprint(), 0x8a8ce25b43a1fa18);
    }

    #[test]
    fn hash_is_consistent_with_eq() {
        use std::collections::HashMap;
        let mut m: HashMap<StencilKernel, u32> = HashMap::new();
        m.insert(StencilKernel::jacobi_2d(), 1);
        m.insert(StencilKernel::heat_2d(0.1), 2);
        assert_eq!(m[&StencilKernel::jacobi_2d()], 1);
        assert_eq!(m[&StencilKernel::heat_2d(0.1)], 2);
        assert!(!m.contains_key(&StencilKernel::heat_2d(0.2)));
    }
}
