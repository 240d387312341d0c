//! Halo-padded grids (the paper's *stencil input*).
//!
//! Interior points are the updated domain; the surrounding halo ring of width
//! `halo >= radius` holds neighbor values (the paper's HALO region). Storage
//! is row-major over the padded extent so executors can index neighbors
//! without bounds branching.

use crate::scalar::Scalar;

/// One step of the xorshift64 generator behind every `random` grid.
#[inline(always)]
const fn xorshift(mut state: u64) -> u64 {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    state
}

/// `x` times a 64×64 matrix over GF(2) stored by columns: the xor of the
/// columns of `x`'s set bits.
const fn gf2_apply(columns: &[u64; 64], mut x: u64) -> u64 {
    let mut acc = 0;
    while x != 0 {
        acc ^= columns[x.trailing_zeros() as usize];
        x &= x - 1;
    }
    acc
}

/// Lanes [`fill_random`] advances together.
const LANES: usize = 4;

/// Values one lane writes per round (a power of two). A round's lanes write
/// adjacent blocks, so its writes stay within `LANES · BLOCK` consecutive
/// values (16 KiB of f32): four write streams a quarter of the grid apart
/// measured slower than one stream on memory not yet in cache.
const BLOCK: usize = 1024;

/// The state `BLOCK` xorshift steps ahead, as a matrix over GF(2) by
/// columns: column `b` is where the state with only bit `b` set lands.
/// Each step is linear over GF(2), so the one-step matrix is squared up at
/// compile time.
static BLOCK_JUMP: [u64; 64] = {
    let mut jump = [0u64; 64];
    let mut b = 0;
    while b < 64 {
        jump[b] = xorshift(1 << b);
        b += 1;
    }
    let mut squarings = 0;
    while squarings < BLOCK.trailing_zeros() {
        let half = jump;
        let mut b = 0;
        while b < 64 {
            jump[b] = gf2_apply(&half, half[b]);
            b += 1;
        }
        squarings += 1;
    }
    jump
};

/// The stream value of `state` (the state after its step), in `[0, 1)`.
#[inline(always)]
fn unit<T: Scalar>(state: u64) -> T {
    let v = state.wrapping_mul(0x2545F4914F6CDD1D);
    T::from_f64((v >> 11) as i64 as f64 * (1.0 / (1u64 << 53) as f64))
}

/// Write `count` values of one xorshift stream in `[0, 1)` into `data`:
/// value `k` lands in interior row `k / cols`, at `row_start(row) + k % cols`.
///
/// The stream is cut into blocks of [`BLOCK`] values. Each round, lane `j`
/// jumps [`BLOCK`] values past lane `j - 1` and the lanes advance
/// interleaved through `LANES` adjacent blocks, so their steps overlap
/// instead of waiting on one serial chain; the last lane ends where the
/// next round begins. The tail shorter than a round takes one lane. Each
/// cell gets the value the serial walk would give it, bit for bit.
fn fill_random<T: Scalar>(
    data: &mut [T],
    count: usize,
    cols: usize,
    row_start: impl Fn(usize) -> usize,
    seed: u64,
) {
    // Where value `k` lands: its row, its cell, and the cells left in the row.
    let at = |k: usize| (k / cols, row_start(k / cols) + k % cols, cols - k % cols);
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut k = 0;
    while k + LANES * BLOCK <= count {
        let mut lanes = [state; LANES];
        for j in 1..LANES {
            lanes[j] = gf2_apply(&BLOCK_JUMP, lanes[j - 1]);
        }
        let mut pos: [_; LANES] = std::array::from_fn(|j| at(k + j * BLOCK));
        let mut done = 0;
        while done < BLOCK {
            // Steps until the first lane reaches the end of its row.
            let run = pos.iter().fold(BLOCK - done, |run, p| run.min(p.2));
            let cells: [usize; LANES] = std::array::from_fn(|j| pos[j].1);
            for i in 0..run {
                for (lane, &cell) in lanes.iter_mut().zip(&cells) {
                    *lane = xorshift(*lane);
                    data[cell + i] = unit(*lane);
                }
            }
            for (row, cell, left) in &mut pos {
                *left -= run;
                *cell = match *left {
                    0 => {
                        *row += 1;
                        *left = cols;
                        row_start(*row)
                    }
                    _ => *cell + run,
                };
            }
            done += run;
        }
        state = lanes[LANES - 1];
        k += LANES * BLOCK;
    }
    let (mut row, mut cell, mut left) = at(k);
    while k < count {
        let run = left.min(count - k);
        for out in &mut data[cell..cell + run] {
            state = xorshift(state);
            *out = unit(state);
        }
        k += run;
        row += 1;
        cell = row_start(row);
        left = cols;
    }
}

/// A random grid's padded storage, built in `buf` whatever it holds:
/// resized to `len`, the `count / cols` interior rows, row `r` starting at
/// `row_start(r)`, filled with the stream of `seed` by [`fill_random`], and
/// every other cell (the halo) zeroed. Zeroing only the halo lets a
/// recycled buffer skip a whole pass; a fresh zeroed buffer pays it twice
/// over its halo alone.
pub(crate) fn random_storage<T: Scalar>(
    mut buf: Vec<T>,
    len: usize,
    count: usize,
    cols: usize,
    row_start: impl Fn(usize) -> usize,
    seed: u64,
) -> Vec<T> {
    buf.resize(len, T::ZERO);
    let mut end = 0;
    for r in 0..count / cols {
        let start = row_start(r);
        buf[end..start].fill(T::ZERO);
        end = start + cols;
    }
    buf[end..].fill(T::ZERO);
    fill_random(&mut buf, count, cols, row_start, seed);
    buf
}

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

    /// Deterministic pseudo-random grid in `[0, 1)`, halo zero: one
    /// xorshift stream in index order, generated by lanes jumped ahead
    /// along it (values unchanged by the split).
    pub fn random(len: usize, halo: usize, seed: u64) -> Self {
        Self::random_in(vec![T::ZERO; len + 2 * halo], len, halo, seed)
    }

    /// [`Self::random`] built in `buf`, whatever it holds (a pooled buffer
    /// is resized, its halo zeroed and its interior overwritten): the same
    /// grid, bit for bit, without an allocation.
    pub fn random_in(buf: Vec<T>, len: usize, halo: usize, seed: u64) -> Self {
        assert!(len > 0, "grid must have at least one interior point");
        let data = random_storage(buf, len + 2 * halo, len, len, |_| halo, seed);
        Self { len, halo, data }
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

    /// Deterministic pseudo-random grid in `[0, 1)`, halo zero: one
    /// xorshift stream in row-major order, generated by lanes jumped ahead
    /// along it (values unchanged by the split).
    pub fn random(rows: usize, cols: usize, halo: usize, seed: u64) -> Self {
        let len = (rows + 2 * halo) * (cols + 2 * halo);
        Self::random_in(vec![T::ZERO; len], rows, cols, halo, seed)
    }

    /// [`Self::random`] built in `buf`, whatever it holds (see
    /// [`Grid1D::random_in`]).
    pub fn random_in(buf: Vec<T>, rows: usize, cols: usize, halo: usize, seed: u64) -> Self {
        assert!(rows > 0 && cols > 0, "grid must be non-empty");
        let stride = cols + 2 * halo;
        let row_start = |i: usize| (i + halo) * stride + halo;
        let data = random_storage(
            buf,
            (rows + 2 * halo) * stride,
            rows * cols,
            cols,
            row_start,
            seed,
        );
        Self {
            rows,
            cols,
            halo,
            data,
        }
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

    use crate::dim3::Grid3D;
    use crate::fnv::Fnv1a;

    /// The one-lane walk `fill_random` must reproduce: one xorshift chain,
    /// one value per call, in interior order.
    fn serial<T: Scalar>(seed: u64) -> impl FnMut() -> T {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let v = state.wrapping_mul(0x2545F4914F6CDD1D);
            T::from_f64((v >> 11) as f64 / (1u64 << 53) as f64)
        }
    }

    /// Bit patterns (widening f32 to f64 is exact, so equal patterns mean
    /// equal bits in either type).
    fn bits<T: Scalar>(values: &[T]) -> Vec<u64> {
        values.iter().map(|v| v.to_f64().to_bits()).collect()
    }

    const SEEDS: [u64; 4] = [0, 1, 0xC0FFEE, u64::MAX];

    fn random_1d_matches_serial<T: Scalar>(len: usize, halo: usize, seed: u64) {
        let mut next = serial::<T>(seed);
        let want = Grid1D::from_fn(len, halo, |_| next());
        let got = Grid1D::<T>::random(len, halo, seed);
        assert_eq!(
            bits(got.padded()),
            bits(want.padded()),
            "{len} h{halo} seed {seed:#x}"
        );
    }

    fn random_2d_matches_serial<T: Scalar>(rows: usize, cols: usize, halo: usize, seed: u64) {
        let mut next = serial::<T>(seed);
        let want = Grid2D::from_fn(rows, cols, halo, |_, _| next());
        let got = Grid2D::<T>::random(rows, cols, halo, seed);
        let what = format!("{rows}x{cols} h{halo} seed {seed:#x}");
        assert_eq!(bits(got.padded()), bits(want.padded()), "{what}");
    }

    fn random_3d_matches_serial<T: Scalar>(extent: (usize, usize, usize), halo: usize, seed: u64) {
        let (planes, rows, cols) = extent;
        let mut next = serial::<T>(seed);
        let want = Grid3D::from_fn(planes, rows, cols, halo, |_, _, _| next());
        let got = Grid3D::<T>::random(planes, rows, cols, halo, seed);
        let what = format!("{planes}x{rows}x{cols} h{halo} seed {seed:#x}");
        assert_eq!(bits(got.padded()), bits(want.padded()), "{what}");
    }

    /// Every padded value of `random` against the serial walk, halo
    /// included (the reference's halo is zero): every small extent (one
    /// lane), and extents of one to three lane rounds with rows, planes and
    /// the tail ending inside and on the edge of a block.
    #[test]
    fn random_grids_equal_the_serial_walk() {
        let round = LANES * BLOCK;
        for seed in SEEDS {
            for halo in 0..=3 {
                let lens = [
                    round - 1,
                    round,
                    round + 1,
                    round + 7,
                    2 * round,
                    3 * round + BLOCK + 5,
                ];
                for len in (1..=300).chain(lens) {
                    random_1d_matches_serial::<f32>(len, halo, seed);
                    random_1d_matches_serial::<f64>(len, halo, seed);
                }
                for (rows, cols) in [
                    (64, 64),
                    (65, 63),
                    (67, 129),
                    (100, 81),
                    (1, 9000),
                    (9000, 1),
                ] {
                    random_2d_matches_serial::<f32>(rows, cols, halo, seed);
                    random_2d_matches_serial::<f64>(rows, cols, halo, seed);
                }
                for extent in [(4, 32, 32), (3, 33, 45), (5, 40, 41)] {
                    random_3d_matches_serial::<f32>(extent, halo, seed);
                    random_3d_matches_serial::<f64>(extent, halo, seed);
                }
                for rows in 1..=40 {
                    for cols in 1..=40 {
                        random_2d_matches_serial::<f32>(rows, cols, halo, seed);
                        random_2d_matches_serial::<f64>(rows, cols, halo, seed);
                    }
                }
                for planes in 1..=4 {
                    for rows in 1..=9 {
                        for cols in 1..=9 {
                            random_3d_matches_serial::<f32>((planes, rows, cols), halo, seed);
                            random_3d_matches_serial::<f64>((planes, rows, cols), halo, seed);
                        }
                    }
                }
            }
        }
    }

    /// A grid built in a recycled buffer, stale values and any length, is
    /// the freshly allocated one bit for bit, halo included.
    #[test]
    fn random_in_a_stale_buffer_equals_random() {
        let stale = |len: usize| vec![f32::NAN; len];
        for halo in 0..=2 {
            for (len, extra) in [(1, 0), (300, 7), (5000, 0)] {
                let want = Grid1D::<f32>::random(len, halo, 3);
                let got = Grid1D::random_in(stale(len + 2 * halo + extra), len, halo, 3);
                assert_eq!(bits(got.padded()), bits(want.padded()));
            }
            let want = Grid2D::<f32>::random(37, 53, halo, 5);
            let got = Grid2D::random_in(stale(17), 37, 53, halo, 5);
            assert_eq!(bits(got.padded()), bits(want.padded()));
            let want = Grid3D::<f32>::random(3, 9, 11, halo, 6);
            let got = Grid3D::random_in(stale(10_000), 3, 9, 11, halo, 6);
            assert_eq!(bits(got.padded()), bits(want.padded()));
        }
    }

    /// Every 1D length up to four lane rounds, so every tail length and
    /// every round count up to four is checked.
    #[test]
    #[ignore = "exhaustive; run with --release -- --ignored"]
    fn random_1d_equals_the_serial_walk_at_every_length() {
        for seed in [7, u64::MAX] {
            for len in 1..=16_384 {
                random_1d_matches_serial::<f32>(len, 2, seed);
            }
        }
    }

    /// FNV-1a over the bit patterns of a grid's padded values.
    fn hash(bits: impl Iterator<Item = u64>) -> u64 {
        let mut h = Fnv1a::new();
        bits.for_each(|b| {
            h.word(b);
        });
        h.finish()
    }

    /// The materialized stream is pinned: these hashes were recorded from
    /// the serial generator, and served inputs must never drift from them.
    #[test]
    fn random_grids_keep_their_golden_hashes() {
        let f32_hash = |values: &[f32]| hash(values.iter().map(|v| v.to_bits() as u64));
        assert_eq!(
            f32_hash(Grid1D::<f32>::random(1001, 3, 7).padded()),
            0xa9dc3fc275526dbb
        );
        assert_eq!(
            f32_hash(Grid2D::<f32>::random(37, 53, 2, 0xC0FFEE).padded()),
            0x2bb58093b7fb6170
        );
        assert_eq!(
            f32_hash(Grid3D::<f32>::random(3, 5, 7, 1, 9).padded()),
            0x89b2edaf1a948395
        );
        let f64_grid = Grid2D::<f64>::random(9, 11, 1, u64::MAX);
        assert_eq!(
            hash(f64_grid.padded().iter().map(|v| v.to_bits())),
            0x3779545d656fa985
        );
    }
}
