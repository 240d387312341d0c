//! Halo-padded grids (the paper's *stencil input*).
//!
//! Interior points are the updated domain; the surrounding halo ring of width
//! `halo >= radius` holds neighbor values (the paper's HALO region). Storage
//! is row-major over the padded extent so executors can index neighbors
//! without bounds branching.

use crate::scalar::Scalar;

/// 1D grid with halo padding on both ends.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid1D<T: Scalar = f64> {
    len: usize,
    halo: usize,
    data: Vec<T>,
}

impl<T: Scalar> Grid1D<T> {
    /// Zero-initialized grid of `len` interior points with `halo` padding.
    pub fn zeros(len: usize, halo: usize) -> Self {
        assert!(len > 0, "grid must have at least one interior point");
        Self {
            len,
            halo,
            data: vec![T::ZERO; len + 2 * halo],
        }
    }

    /// Grid filled from a function of the interior index.
    pub fn from_fn(len: usize, halo: usize, mut f: impl FnMut(usize) -> T) -> Self {
        let mut g = Self::zeros(len, halo);
        for i in 0..len {
            g.set(i, f(i));
        }
        g
    }

    /// Deterministic pseudo-random grid in `[0, 1)` (xorshift; halo zero).
    pub fn random(len: usize, halo: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        Self::from_fn(len, halo, |_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let v = state.wrapping_mul(0x2545F4914F6CDD1D);
            T::from_f64((v >> 11) as f64 / (1u64 << 53) as f64)
        })
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Interior value at `i ∈ 0..len`.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        self.data[i + self.halo]
    }

    #[inline]
    pub fn set(&mut self, i: usize, v: T) {
        self.data[i + self.halo] = v;
    }

    /// Value at a *signed* interior coordinate that may reach into the halo.
    #[inline]
    pub fn get_ext(&self, i: isize) -> T {
        let idx = i + self.halo as isize;
        debug_assert!(idx >= 0 && (idx as usize) < self.data.len());
        self.data[idx as usize]
    }

    /// Full padded storage (halo included).
    pub fn padded(&self) -> &[T] {
        &self.data
    }

    pub fn padded_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Build a grid around an existing padded buffer (must be exactly
    /// `len + 2*halo` elements). The zero-copy counterpart of
    /// [`Self::into_padded_vec`] — together they let executors recycle
    /// grid storage through a buffer pool instead of cloning.
    pub fn from_padded_vec(len: usize, halo: usize, data: Vec<T>) -> Self {
        assert!(len > 0, "grid must have at least one interior point");
        assert_eq!(data.len(), len + 2 * halo, "padded buffer size mismatch");
        Self { len, halo, data }
    }

    /// Take the padded storage out of the grid (e.g. to return it to a
    /// buffer pool).
    pub fn into_padded_vec(self) -> Vec<T> {
        self.data
    }

    /// Interior slice.
    pub fn interior(&self) -> &[T] {
        &self.data[self.halo..self.halo + self.len]
    }

    /// Max |a - b| over the interior (halo excluded).
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.len, other.len);
        self.interior()
            .iter()
            .zip(other.interior())
            .map(|(&a, &b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }

    /// Convert every element to another scalar type.
    pub fn convert<U: Scalar>(&self) -> Grid1D<U> {
        Grid1D {
            len: self.len,
            halo: self.halo,
            data: self.data.iter().map(|&v| U::from_f64(v.to_f64())).collect(),
        }
    }
}

/// 2D grid with a halo ring.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid2D<T: Scalar = f64> {
    rows: usize,
    cols: usize,
    halo: usize,
    /// Padded row-major storage: `(rows + 2h) x (cols + 2h)`.
    data: Vec<T>,
}

impl<T: Scalar> Grid2D<T> {
    pub fn zeros(rows: usize, cols: usize, halo: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid must be non-empty");
        Self {
            rows,
            cols,
            halo,
            data: vec![T::ZERO; (rows + 2 * halo) * (cols + 2 * halo)],
        }
    }

    pub fn from_fn(
        rows: usize,
        cols: usize,
        halo: usize,
        mut f: impl FnMut(usize, usize) -> T,
    ) -> Self {
        let mut g = Self::zeros(rows, cols, halo);
        for i in 0..rows {
            for j in 0..cols {
                g.set(i, j, f(i, j));
            }
        }
        g
    }

    /// Deterministic pseudo-random grid in `[0, 1)`.
    pub fn random(rows: usize, cols: usize, halo: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        Self::from_fn(rows, cols, halo, |_, _| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let v = state.wrapping_mul(0x2545F4914F6CDD1D);
            T::from_f64((v >> 11) as f64 / (1u64 << 53) as f64)
        })
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

    /// Width of the padded storage (`cols + 2*halo`).
    #[inline]
    pub fn stride(&self) -> usize {
        self.cols + 2 * self.halo
    }

    /// Index into padded storage for interior coordinate `(i, j)`.
    #[inline]
    pub fn idx(&self, i: usize, j: usize) -> usize {
        (i + self.halo) * self.stride() + (j + self.halo)
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        self.data[self.idx(i, j)]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        let idx = self.idx(i, j);
        self.data[idx] = v;
    }

    /// Value at signed interior coordinates that may reach into the halo.
    #[inline]
    pub fn get_ext(&self, i: isize, j: isize) -> T {
        let row = i + self.halo as isize;
        let col = j + self.halo as isize;
        debug_assert!(row >= 0 && col >= 0);
        debug_assert!((row as usize) < self.rows + 2 * self.halo);
        debug_assert!((col as usize) < self.cols + 2 * self.halo);
        self.data[row as usize * self.stride() + col as usize]
    }

    #[inline]
    pub fn set_ext(&mut self, i: isize, j: isize, v: T) {
        let row = (i + self.halo as isize) as usize;
        let col = (j + self.halo as isize) as usize;
        let s = self.stride();
        self.data[row * s + col] = v;
    }

    pub fn padded(&self) -> &[T] {
        &self.data
    }

    pub fn padded_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Build a grid around an existing padded buffer (must be exactly
    /// `(rows + 2*halo) × (cols + 2*halo)` elements). The zero-copy
    /// counterpart of [`Self::into_padded_vec`] — together they let
    /// executors recycle grid storage through a buffer pool instead of
    /// cloning.
    pub fn from_padded_vec(rows: usize, cols: usize, halo: usize, data: Vec<T>) -> Self {
        assert!(rows > 0 && cols > 0, "grid must be non-empty");
        assert_eq!(
            data.len(),
            (rows + 2 * halo) * (cols + 2 * halo),
            "padded buffer size mismatch"
        );
        Self {
            rows,
            cols,
            halo,
            data,
        }
    }

    /// Take the padded storage out of the grid (e.g. to return it to a
    /// buffer pool).
    pub fn into_padded_vec(self) -> Vec<T> {
        self.data
    }

    /// One padded row (halo included) at padded-row index `pi`.
    pub fn padded_row(&self, pi: usize) -> &[T] {
        let s = self.stride();
        &self.data[pi * s..(pi + 1) * s]
    }

    /// Mutable padded row (halo included) at padded-row index `pi`, for
    /// bulk row writes instead of per-element `set` calls.
    pub fn padded_row_mut(&mut self, pi: usize) -> &mut [T] {
        let s = self.stride();
        &mut self.data[pi * s..(pi + 1) * s]
    }

    /// Max |a - b| over the interior.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let mut worst = 0.0f64;
        for i in 0..self.rows {
            for j in 0..self.cols {
                let d = (self.get(i, j).to_f64() - other.get(i, j).to_f64()).abs();
                worst = worst.max(d);
            }
        }
        worst
    }

    /// Sum over the interior in f64 (conservation checks).
    pub fn interior_sum(&self) -> f64 {
        let mut acc = 0.0;
        for i in 0..self.rows {
            for j in 0..self.cols {
                acc += self.get(i, j).to_f64();
            }
        }
        acc
    }

    pub fn convert<U: Scalar>(&self) -> Grid2D<U> {
        Grid2D {
            rows: self.rows,
            cols: self.cols,
            halo: self.halo,
            data: self.data.iter().map(|&v| U::from_f64(v.to_f64())).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid1d_basic() {
        let mut g = Grid1D::<f64>::zeros(10, 2);
        g.set(0, 1.5);
        g.set(9, 2.5);
        assert_eq!(g.get(0), 1.5);
        assert_eq!(g.get(9), 2.5);
        assert_eq!(g.padded().len(), 14);
        // Halo starts zeroed.
        assert_eq!(g.get_ext(-1), 0.0);
        assert_eq!(g.get_ext(10), 0.0);
    }

    #[test]
    fn grid1d_random_deterministic() {
        let a = Grid1D::<f32>::random(100, 1, 3);
        let b = Grid1D::<f32>::random(100, 1, 3);
        assert_eq!(a, b);
        let c = Grid1D::<f32>::random(100, 1, 4);
        assert!(a.max_abs_diff(&c) > 0.0);
        assert!(a.interior().iter().all(|&v| (0.0..1.0).contains(&v)));
    }

    #[test]
    fn grid2d_indexing() {
        let mut g = Grid2D::<f64>::zeros(4, 6, 2);
        g.set(0, 0, 1.0);
        g.set(3, 5, 2.0);
        assert_eq!(g.get(0, 0), 1.0);
        assert_eq!(g.get(3, 5), 2.0);
        assert_eq!(g.stride(), 10);
        assert_eq!(g.padded().len(), 8 * 10);
        assert_eq!(g.get_ext(-2, -2), 0.0);
        assert_eq!(g.get_ext(5, 7), 0.0);
    }

    #[test]
    fn grid2d_ext_matches_interior() {
        let g = Grid2D::<f64>::random(5, 5, 1, 9);
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(g.get(i, j), g.get_ext(i as isize, j as isize));
            }
        }
    }

    #[test]
    fn max_abs_diff_ignores_halo() {
        let mut a = Grid2D::<f64>::zeros(3, 3, 1);
        let b = Grid2D::<f64>::zeros(3, 3, 1);
        a.set_ext(-1, -1, 100.0); // halo-only difference
        assert_eq!(a.max_abs_diff(&b), 0.0);
        a.set(1, 1, 0.5);
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }

    #[test]
    fn convert_roundtrip() {
        let a = Grid2D::<f64>::random(8, 8, 1, 5);
        let b: Grid2D<f32> = a.convert();
        let c: Grid2D<f64> = b.convert();
        assert!(a.max_abs_diff(&c) < 1e-6);
    }

    #[test]
    fn padded_vec_roundtrip_preserves_layout() {
        let g = Grid2D::<f32>::random(6, 9, 2, 11);
        let copy = g.clone();
        let data = g.into_padded_vec();
        let back = Grid2D::from_padded_vec(6, 9, 2, data);
        assert_eq!(back, copy);
        let g1 = Grid1D::<f32>::random(17, 3, 12);
        let copy1 = g1.clone();
        let back1 = Grid1D::from_padded_vec(17, 3, g1.into_padded_vec());
        assert_eq!(back1, copy1);
    }

    #[test]
    #[should_panic(expected = "padded buffer size mismatch")]
    fn from_padded_vec_rejects_wrong_size() {
        let _ = Grid2D::<f32>::from_padded_vec(4, 4, 1, vec![0.0; 10]);
    }

    #[test]
    fn padded_row_mut_writes_through() {
        let mut g = Grid2D::<f64>::zeros(3, 4, 1);
        let s = g.stride();
        g.padded_row_mut(2)[1..5].copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(g.get(1, 0), 1.0);
        assert_eq!(g.get(1, 3), 4.0);
        assert_eq!(g.padded_row(2).len(), s);
    }

    #[test]
    fn interior_sum() {
        let g = Grid2D::<f64>::from_fn(3, 3, 1, |i, j| (i * 3 + j) as f64);
        assert_eq!(g.interior_sum(), 36.0);
    }
}
