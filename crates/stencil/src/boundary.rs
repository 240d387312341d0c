//! Boundary conditions: how the halo ring is refilled between timesteps.

use crate::grid::{Grid1D, Grid2D};
use crate::scalar::Scalar;

/// Halo fill policy applied before each stencil sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundaryCondition {
    /// Halo is zero (the paper's benchmarks update interior points only and
    /// treat out-of-domain neighbors as zero).
    #[default]
    DirichletZero,
    /// Halo wraps around the domain.
    Periodic,
    /// Halo mirrors the interior (reflect-101 style, edge not duplicated).
    Reflect,
}

impl BoundaryCondition {
    /// The interior index a halo index `i` (outside `0..n`) takes its value
    /// from, or `None` for a zero.
    fn source(self, i: isize, n: isize) -> Option<isize> {
        match self {
            BoundaryCondition::DirichletZero => (0..n).contains(&i).then_some(i),
            BoundaryCondition::Periodic => Some(i.rem_euclid(n)),
            BoundaryCondition::Reflect => {
                let mut v = i;
                // reflect-101: -1 -> 1, n -> n-2
                while v < 0 || v >= n {
                    if v < 0 {
                        v = -v;
                    }
                    if v >= n {
                        v = 2 * n - 2 - v;
                    }
                }
                Some(v)
            }
        }
    }

    /// Refill the halo of a 1D grid in place.
    pub fn apply_1d<T: Scalar>(self, grid: &mut Grid1D<T>) {
        let h = grid.halo() as isize;
        let n = grid.len() as isize;
        for i in (-h..0).chain(n..n + h) {
            let v = match self.source(i, n) {
                Some(s) => grid.get(s as usize),
                None => T::ZERO,
            };
            grid.set_ext_1d(i, v);
        }
    }

    /// Refill the halo of a 2D grid in place, corners included, visiting
    /// only halo cells. A halo cell `(i, j)` takes the value at
    /// `(source(i), source(j))`, or zero if either has none. The two axes
    /// map independently, so the side columns of the interior rows are
    /// filled first, and then each top and bottom halo row is a copy of its
    /// source row across the whole padded width (side columns included) or
    /// all zeros.
    pub fn apply_2d<T: Scalar>(self, grid: &mut Grid2D<T>) {
        let h = grid.halo() as isize;
        let rows = grid.rows() as isize;
        let cols = grid.cols() as isize;
        for i in 0..rows {
            for j in (-h..0).chain(cols..cols + h) {
                let v = match self.source(j, cols) {
                    Some(sj) => grid.get(i as usize, sj as usize),
                    None => T::ZERO,
                };
                grid.set_ext(i, j, v);
            }
        }
        let stride = grid.stride();
        let row_start = |i: isize| (i + h) as usize * stride;
        for i in (-h..0).chain(rows..rows + h) {
            let at = row_start(i);
            match self.source(i, rows) {
                Some(si) => grid
                    .padded_mut()
                    .copy_within(row_start(si)..row_start(si) + stride, at),
                None => grid.padded_mut()[at..at + stride].fill(T::ZERO),
            }
        }
    }
}

impl<T: Scalar> Grid1D<T> {
    /// Helper mirroring [`Grid2D::set_ext`] for signed 1D coordinates.
    pub fn set_ext_1d(&mut self, i: isize, v: T) {
        let idx = (i + self.halo() as isize) as usize;
        self.padded_mut()[idx] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirichlet_zeroes_halo_2d() {
        let mut g = Grid2D::<f64>::from_fn(3, 3, 1, |i, j| (i * 3 + j + 1) as f64);
        g.set_ext(-1, 0, 99.0);
        BoundaryCondition::DirichletZero.apply_2d(&mut g);
        assert_eq!(g.get_ext(-1, 0), 0.0);
        assert_eq!(g.get_ext(3, 3), 0.0);
        assert_eq!(g.get(1, 1), 5.0); // interior untouched
    }

    #[test]
    fn periodic_wraps_2d() {
        let mut g = Grid2D::<f64>::from_fn(3, 3, 1, |i, j| (i * 3 + j) as f64);
        BoundaryCondition::Periodic.apply_2d(&mut g);
        assert_eq!(g.get_ext(-1, 0), g.get(2, 0));
        assert_eq!(g.get_ext(3, 1), g.get(0, 1));
        assert_eq!(g.get_ext(0, -1), g.get(0, 2));
        assert_eq!(g.get_ext(-1, -1), g.get(2, 2)); // corner
    }

    #[test]
    fn reflect_mirrors_2d() {
        let mut g = Grid2D::<f64>::from_fn(4, 4, 2, |i, j| (i * 4 + j) as f64);
        BoundaryCondition::Reflect.apply_2d(&mut g);
        // reflect-101: index -1 mirrors to 1, -2 to 2.
        assert_eq!(g.get_ext(-1, 0), g.get(1, 0));
        assert_eq!(g.get_ext(-2, 3), g.get(2, 3));
        assert_eq!(g.get_ext(4, 0), g.get(2, 0));
        assert_eq!(g.get_ext(0, 5), g.get(0, 1));
    }

    /// The full-scan refill `apply_2d` replaced: every padded cell outside
    /// the interior, rows then columns.
    fn full_scan_apply_2d<T: Scalar>(bc: BoundaryCondition, grid: &mut Grid2D<T>) {
        let rows = grid.rows() as isize;
        let cols = grid.cols() as isize;
        let hh = grid.halo() as isize;
        for i in -hh..rows + hh {
            for j in -hh..cols + hh {
                let inside = (0..rows).contains(&i) && (0..cols).contains(&j);
                if inside {
                    continue;
                }
                let v = match (bc.source(i, rows), bc.source(j, cols)) {
                    (Some(si), Some(sj)) => grid.get(si as usize, sj as usize),
                    _ => T::ZERO,
                };
                grid.set_ext(i, j, v);
            }
        }
    }

    #[test]
    fn halo_only_refill_matches_the_full_scan() {
        for bc in [
            BoundaryCondition::DirichletZero,
            BoundaryCondition::Periodic,
            BoundaryCondition::Reflect,
        ] {
            for (rows, cols, halo) in [(5, 7, 2), (3, 9, 3), (17, 11, 4), (2, 3, 2), (9, 2, 5)] {
                let mut fast =
                    Grid2D::<f64>::from_fn(rows, cols, halo, |i, j| (i * cols + j) as f64 + 0.5);
                for (k, v) in fast.padded_mut().iter_mut().enumerate() {
                    if *v == 0.0 {
                        *v = -(k as f64); // stale halo values to overwrite
                    }
                }
                let mut oracle = fast.clone();
                bc.apply_2d(&mut fast);
                full_scan_apply_2d(bc, &mut oracle);
                assert_eq!(
                    fast.padded(),
                    oracle.padded(),
                    "{bc:?} {rows}x{cols} h{halo}"
                );
            }
        }
    }

    #[test]
    fn periodic_wraps_1d() {
        let mut g = Grid1D::<f64>::from_fn(5, 2, |i| i as f64);
        BoundaryCondition::Periodic.apply_1d(&mut g);
        assert_eq!(g.get_ext(-1), 4.0);
        assert_eq!(g.get_ext(-2), 3.0);
        assert_eq!(g.get_ext(5), 0.0);
        assert_eq!(g.get_ext(6), 1.0);
    }

    #[test]
    fn dirichlet_1d() {
        let mut g = Grid1D::<f64>::from_fn(4, 1, |i| (i + 1) as f64);
        g.set_ext_1d(-1, 7.0);
        BoundaryCondition::DirichletZero.apply_1d(&mut g);
        assert_eq!(g.get_ext(-1), 0.0);
        assert_eq!(g.get_ext(4), 0.0);
    }
}
