//! 3D stencil substrate — an extension beyond the paper's 1D/2D evaluation.
//!
//! The paper's background (§2.2) defines stencils for d ∈ {1, 2, 3} but
//! evaluates only 1D and 2D. This module supplies the 3D problem domain
//! (grids, kernels, reference executor) that `spider-core::exec3d` builds
//! on by decomposing a 3D kernel into `2r+1` 2D plane slices.

use crate::grid::Grid2D;
use crate::scalar::Scalar;
use crate::shape::StencilShape;
use crate::StencilKernel;
use rayon::prelude::*;

/// A 3D grid with a halo shell, stored plane-major (`[z][x][y]`).
#[derive(Debug, Clone, PartialEq)]
pub struct Grid3D<T: Scalar = f64> {
    planes: usize,
    rows: usize,
    cols: usize,
    halo: usize,
    data: Vec<T>,
}

impl<T: Scalar> Grid3D<T> {
    pub fn zeros(planes: usize, rows: usize, cols: usize, halo: usize) -> Self {
        assert!(planes > 0 && rows > 0 && cols > 0);
        let (pp, pr, pc) = (planes + 2 * halo, rows + 2 * halo, cols + 2 * halo);
        Self {
            planes,
            rows,
            cols,
            halo,
            data: vec![T::ZERO; pp * pr * pc],
        }
    }

    pub fn from_fn(
        planes: usize,
        rows: usize,
        cols: usize,
        halo: usize,
        mut f: impl FnMut(usize, usize, usize) -> T,
    ) -> Self {
        let mut g = Self::zeros(planes, rows, cols, halo);
        for z in 0..planes {
            for i in 0..rows {
                for j in 0..cols {
                    g.set(z, i, j, f(z, i, j));
                }
            }
        }
        g
    }

    /// Deterministic pseudo-random grid in `[0, 1)`.
    pub fn random(planes: usize, rows: usize, cols: usize, halo: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        Self::from_fn(planes, rows, cols, halo, |_, _, _| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let v = state.wrapping_mul(0x2545F4914F6CDD1D);
            T::from_f64((v >> 11) as f64 / (1u64 << 53) as f64)
        })
    }

    pub fn planes(&self) -> usize {
        self.planes
    }
    pub fn rows(&self) -> usize {
        self.rows
    }
    pub fn cols(&self) -> usize {
        self.cols
    }
    pub fn halo(&self) -> usize {
        self.halo
    }
    pub fn points(&self) -> usize {
        self.planes * self.rows * self.cols
    }

    #[inline]
    fn idx(&self, z: isize, i: isize, j: isize) -> usize {
        let h = self.halo as isize;
        let pr = (self.rows + 2 * self.halo) as isize;
        let pc = (self.cols + 2 * self.halo) as isize;
        (((z + h) * pr + (i + h)) * pc + (j + h)) as usize
    }

    #[inline]
    pub fn get(&self, z: usize, i: usize, j: usize) -> T {
        self.data[self.idx(z as isize, i as isize, j as isize)]
    }

    #[inline]
    pub fn set(&mut self, z: usize, i: usize, j: usize, v: T) {
        let idx = self.idx(z as isize, i as isize, j as isize);
        self.data[idx] = v;
    }

    /// Signed access reaching into the halo shell.
    #[inline]
    pub fn get_ext(&self, z: isize, i: isize, j: isize) -> T {
        self.data[self.idx(z, i, j)]
    }

    /// Extract plane `z` (signed; may reach the halo) as a 2D grid with the
    /// same halo.
    pub fn plane_ext(&self, z: isize) -> Grid2D<T> {
        let mut out = Grid2D::zeros(self.rows, self.cols, self.halo);
        let h = self.halo as isize;
        for i in -h..(self.rows as isize + h) {
            for j in -h..(self.cols as isize + h) {
                out.set_ext(i, j, self.get_ext(z, i, j));
            }
        }
        out
    }

    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(
            (self.planes, self.rows, self.cols),
            (other.planes, other.rows, other.cols)
        );
        let mut worst = 0.0f64;
        for z in 0..self.planes {
            for i in 0..self.rows {
                for j in 0..self.cols {
                    worst =
                        worst.max((self.get(z, i, j).to_f64() - other.get(z, i, j).to_f64()).abs());
                }
            }
        }
        worst
    }

    pub fn convert<U: Scalar>(&self) -> Grid3D<U> {
        Grid3D {
            planes: self.planes,
            rows: self.rows,
            cols: self.cols,
            halo: self.halo,
            data: self.data.iter().map(|&v| U::from_f64(v.to_f64())).collect(),
        }
    }

    /// The full padded storage (halo shell included), plane-major — the
    /// slice serving-side checksums and bit-identity comparisons run over,
    /// mirroring [`Grid2D::padded`].
    pub fn padded(&self) -> &[T] {
        &self.data
    }

    /// Mutable padded storage, plane-major (halo shell included).
    pub fn padded_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

/// A 3D stencil kernel: dense `(2r+1)³` coefficient cube (`[dz][dx][dy]`).
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel3D {
    radius: usize,
    coeffs: Vec<f64>,
}

impl Kernel3D {
    pub fn from_fn(radius: usize, mut f: impl FnMut(isize, isize, isize) -> f64) -> Self {
        assert!(radius >= 1);
        let d = 2 * radius + 1;
        let r = radius as isize;
        let mut coeffs = vec![0.0; d * d * d];
        for dz in -r..=r {
            for dx in -r..=r {
                for dy in -r..=r {
                    coeffs[(((dz + r) as usize * d) + (dx + r) as usize) * d + (dy + r) as usize] =
                        f(dz, dx, dy);
                }
            }
        }
        Self { radius, coeffs }
    }

    /// Box-3D kernel with deterministic pseudo-random coefficients.
    pub fn random_box(radius: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        Self::from_fn(radius, |_, _, _| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 40) as f64 / (1u64 << 24) as f64 - 0.5
        })
    }

    /// 7-point (r=1) star Laplacian-style kernel.
    pub fn star_7point(center: f64, neighbor: f64) -> Self {
        Self::from_fn(1, |dz, dx, dy| {
            match (dz == 0) as u8 + (dx == 0) as u8 + (dy == 0) as u8 {
                3 => center,
                2 => neighbor,
                _ => 0.0,
            }
        })
    }

    /// Rebuild a kernel from its radius and dense coefficient cube (the
    /// inverse of [`Self::coeffs`]) — the deserialization entry point.
    pub fn from_coeffs(radius: usize, coeffs: Vec<f64>) -> Self {
        assert!(radius >= 1);
        let d = 2 * radius + 1;
        assert_eq!(coeffs.len(), d * d * d, "coefficient cube size mismatch");
        Self { radius, coeffs }
    }

    pub fn radius(&self) -> usize {
        self.radius
    }

    pub fn diameter(&self) -> usize {
        2 * self.radius + 1
    }

    /// The dense `(2r+1)³` coefficient cube, `[dz][dx][dy]`-major.
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Stable 64-bit content fingerprint: dimensionality tag, radius and
    /// every coefficient bit pattern through FNV-1a — the 3D counterpart of
    /// [`StencilKernel::fingerprint`], safe to persist across processes.
    /// Two kernels share a fingerprint exactly when they are `==` (modulo
    /// the usual 2^-64 collision odds of a 64-bit content hash).
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::fnv::Fnv1a::new();
        // Dense 3D cubes have no ShapeKind; tag the dimensionality so a 3D
        // kernel can never alias a planar kernel's fingerprint space.
        h.byte(3);
        h.word(self.radius as u64);
        for c in &self.coeffs {
            h.word(c.to_bits());
        }
        h.finish()
    }

    /// Shape label for scenario strings, e.g. `Box-3D2R`.
    pub fn name(&self) -> String {
        format!("Box-3D{}R", self.radius)
    }

    pub fn at(&self, dz: isize, dx: isize, dy: isize) -> f64 {
        let r = self.radius as isize;
        if dz.abs() > r || dx.abs() > r || dy.abs() > r {
            return 0.0;
        }
        let d = self.diameter();
        self.coeffs[(((dz + r) as usize * d) + (dx + r) as usize) * d + (dy + r) as usize]
    }

    /// The `dz`-th plane slice as a 2D kernel (the unit of the 3D
    /// decomposition). Returns `None` if the slice is all zeros.
    pub fn slice(&self, dz: isize) -> Option<StencilKernel> {
        let k = StencilKernel::from_fn_2d(StencilShape::box_2d(self.radius), |dx, dy| {
            self.at(dz, dx, dy)
        });
        if k.coeffs().iter().all(|&c| c == 0.0) {
            None
        } else {
            Some(k)
        }
    }
}

/// One naive 3D sweep (`dst = stencil(src)`, zero halo) — the 3D oracle.
pub fn step_3d<T: Scalar>(kernel: &Kernel3D, src: &Grid3D<T>, dst: &mut Grid3D<T>) {
    assert!(src.halo() >= kernel.radius());
    let r = kernel.radius() as isize;
    for z in 0..src.planes() {
        for i in 0..src.rows() {
            for j in 0..src.cols() {
                let mut acc = T::ZERO;
                for dz in -r..=r {
                    for dx in -r..=r {
                        for dy in -r..=r {
                            let c = kernel.at(dz, dx, dy);
                            if c != 0.0 {
                                acc += T::from_f64(c)
                                    * src.get_ext(
                                        z as isize + dz,
                                        i as isize + dx,
                                        j as isize + dy,
                                    );
                            }
                        }
                    }
                }
                dst.set(z, i, j, acc);
            }
        }
    }
}

/// Rayon-parallel 3D sweep (planes in parallel).
pub fn step_3d_parallel(kernel: &Kernel3D, src: &Grid3D<f64>, dst: &mut Grid3D<f64>) {
    assert!(src.halo() >= kernel.radius());
    let r = kernel.radius() as isize;
    let (planes, rows, cols) = (src.planes(), src.rows(), src.cols());
    let results: Vec<Vec<f64>> = (0..planes)
        .into_par_iter()
        .map(|z| {
            let mut plane = vec![0.0f64; rows * cols];
            for i in 0..rows {
                for j in 0..cols {
                    let mut acc = 0.0;
                    for dz in -r..=r {
                        for dx in -r..=r {
                            for dy in -r..=r {
                                let c = kernel.at(dz, dx, dy);
                                if c != 0.0 {
                                    acc += c * src.get_ext(
                                        z as isize + dz,
                                        i as isize + dx,
                                        j as isize + dy,
                                    );
                                }
                            }
                        }
                    }
                    plane[i * cols + j] = acc;
                }
            }
            plane
        })
        .collect();
    for (z, plane) in results.into_iter().enumerate() {
        for i in 0..rows {
            for j in 0..cols {
                dst.set(z, i, j, plane[i * cols + j]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid3d_indexing_and_halo() {
        let mut g = Grid3D::<f64>::zeros(3, 4, 5, 1);
        g.set(0, 0, 0, 1.0);
        g.set(2, 3, 4, 2.0);
        assert_eq!(g.get(0, 0, 0), 1.0);
        assert_eq!(g.get(2, 3, 4), 2.0);
        assert_eq!(g.get_ext(-1, -1, -1), 0.0);
        assert_eq!(g.get_ext(3, 4, 5), 0.0);
        assert_eq!(g.points(), 60);
    }

    #[test]
    fn plane_extraction_matches() {
        let g = Grid3D::<f64>::random(3, 6, 7, 1, 5);
        let p = g.plane_ext(1);
        for i in 0..6 {
            for j in 0..7 {
                assert_eq!(p.get(i, j), g.get(1, i, j));
            }
        }
        // Halo plane is all zeros for a fresh random grid.
        let hp = g.plane_ext(-1);
        assert_eq!(hp.get(0, 0), 0.0);
    }

    #[test]
    fn kernel3d_slices_reassemble() {
        let k = Kernel3D::random_box(1, 7);
        let r = 1isize;
        for dz in -r..=r {
            let s = k.slice(dz).expect("random slices are non-zero");
            for dx in -r..=r {
                for dy in -r..=r {
                    assert_eq!(s.at(dx, dy), k.at(dz, dx, dy));
                }
            }
        }
    }

    #[test]
    fn star_7point_structure() {
        let k = Kernel3D::star_7point(-6.0, 1.0);
        assert_eq!(k.at(0, 0, 0), -6.0);
        assert_eq!(k.at(1, 0, 0), 1.0);
        assert_eq!(k.at(0, -1, 0), 1.0);
        assert_eq!(k.at(1, 1, 0), 0.0);
        // Off-center slices have only the center tap.
        let s = k.slice(1).unwrap();
        assert_eq!(s.at(0, 0), 1.0);
        assert_eq!(s.at(1, 0), 0.0);
    }

    #[test]
    fn kernel3d_fingerprint_tracks_content() {
        let a = Kernel3D::random_box(2, 5);
        let b = Kernel3D::from_coeffs(a.radius(), a.coeffs().to_vec());
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint(), "equal kernels, equal fp");
        let c = Kernel3D::random_box(2, 6);
        assert_ne!(a.fingerprint(), c.fingerprint(), "coefficients must bind");
        let d = Kernel3D::random_box(1, 5);
        assert_ne!(a.fingerprint(), d.fingerprint(), "radius must bind");
        assert_eq!(a.name(), "Box-3D2R");
    }

    #[test]
    fn grid3d_padded_covers_halo_shell() {
        let g = Grid3D::<f32>::random(2, 3, 4, 1, 3);
        let (pp, pr, pc) = (2 + 2, 3 + 2, 4 + 2);
        assert_eq!(g.padded().len(), pp * pr * pc);
        // Interior values are reachable through the padded slice.
        let h = g.halo();
        let idx = (h * pr + h) * pc + h;
        assert_eq!(g.padded()[idx], g.get(0, 0, 0));
    }

    #[test]
    fn step_3d_identity_kernel() {
        let k = Kernel3D::from_fn(1, |dz, dx, dy| {
            if dz == 0 && dx == 0 && dy == 0 {
                1.0
            } else {
                0.0
            }
        });
        let src = Grid3D::<f64>::random(4, 4, 4, 1, 9);
        let mut dst = Grid3D::<f64>::zeros(4, 4, 4, 1);
        step_3d(&k, &src, &mut dst);
        assert_eq!(src.max_abs_diff(&dst), 0.0);
    }

    #[test]
    fn parallel_matches_scalar_3d() {
        let k = Kernel3D::random_box(2, 3);
        let src = Grid3D::<f64>::random(8, 9, 10, 2, 4);
        let mut a = Grid3D::<f64>::zeros(8, 9, 10, 2);
        let mut b = a.clone();
        step_3d(&k, &src, &mut a);
        step_3d_parallel(&k, &src, &mut b);
        assert!(a.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn laplacian_of_constant_field_is_zero() {
        let k = Kernel3D::star_7point(-6.0, 1.0);
        let src = Grid3D::<f64>::from_fn(5, 5, 5, 1, |_, _, _| 1.0);
        let mut dst = Grid3D::<f64>::zeros(5, 5, 5, 1);
        step_3d(&k, &src, &mut dst);
        // Interior points see a perfect cancellation.
        assert_eq!(dst.get(2, 2, 2), 0.0);
        // Boundary points leak through the zero halo.
        assert!(dst.get(0, 2, 2) != 0.0);
    }
}
