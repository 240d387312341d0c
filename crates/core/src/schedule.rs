//! The exact-order tap schedule: the host's functional form of a plan.
//!
//! The emulated `mma.sp` chain of [`crate::exec`] produces output column
//! `y` of a tile as a sequence of FMAs into an f32 accumulator that starts
//! at +0: plan units in order, then K-slices 0 and 1, then slots 0..7 (for
//! [`crate::exec::ExecMode::DenseTc`], window positions 0..31 of the
//! unswapped banded matrix). Which coefficient a slot carries, and which
//! input cell it multiplies, depend only on the column's residue
//! `q = y mod 16`: tile column bases are multiples of [`M_TILE`]
//! (`TilingConfig::validate` forces `warp_y` and `block_1d` to multiples of
//! 16), so the tuned block decomposition does not change the chain.
//!
//! Most slots multiply a structural zero of the banded tile or the 2:4
//! format. On finite input they are no-ops: the accumulator starts at +0,
//! an FMA whose exact result is 0 rounds to +0, and products of FP16 values
//! are at least 2⁻⁴⁸ in magnitude, so the accumulator is never −0 and
//! adding ±0 leaves every bit unchanged. A schedule therefore keeps only
//! the non-zero taps, in the chain's order, and the executor runs them as
//! contiguous vector FMAs. Input holding ±∞ or NaN is the one case where
//! the zero slots matter (0·∞ is NaN); the executor sends such sweeps to
//! the emulated path.
//!
//! The (at most `2r+1`) distinct residue chains are merged greedily into one
//! supersequence of [`TapStep`]s; a residue that skips a step carries a zero
//! coefficient for it. Schedules are pure arithmetic over the plan's units
//! and gather tables, so they are derived when a plan is built or loaded and
//! never stored.
//!
//! `run_span` is the one kernel the 1D, 2D and 3D sweeps run the
//! schedule through. It applies each step to four 16-wide chunks of
//! outputs before the next step, so four independent accumulator chains
//! keep the FMA units busy; each output still receives its FMAs in step
//! order, so blocking changes no bit.

use crate::plan::{PlanUnit, UnitGather};
use crate::M_TILE;

/// One schedule step: every output column `y` adds
/// `coeff[y % 16] · src[x + dx][y + dcol]` to its accumulator (in 1D,
/// `src[y + dcol]`; `dx` is 0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TapStep {
    /// Input row offset (the unit's `dx`).
    pub dx: isize,
    /// Input column offset relative to the output column.
    pub dcol: isize,
    /// Coefficient per output-column residue; zero where that residue's
    /// chain does not visit this step.
    pub coeff: [f32; M_TILE],
}

/// The tap schedule of one (plan, compute order): steps in the order the
/// emulated MMA chain applies them to every output column.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TapSchedule {
    steps: Vec<TapStep>,
}

/// One chain link: `(dx, dcol, coefficient)`.
type Tap = (isize, isize, f32);

/// The most taps one residue's chain can hold: a unit's band is
/// `2·radius + 1` wide.
fn max_taps(units: &[PlanUnit]) -> usize {
    units.iter().map(|u| 2 * u.radius + 1).sum()
}

impl TapSchedule {
    /// The schedule of the sparse arms (`SparseTc`, `SparseTcOptimized`):
    /// slot `s` of K-slice `k` applies `values[q][s]` to window row
    /// `4·(s/2) + (meta[q][s] & 3)` of the swapped gather.
    pub(crate) fn sparse(units: &[PlanUnit], gathers: &[UnitGather]) -> Self {
        Self::merge(max_taps(units), |q, chain| {
            for (unit, gather) in units.iter().zip(gathers) {
                for (slice, offs) in unit.sparse.slices.iter().zip(&gather.swapped) {
                    for (s, (&v, &meta)) in slice.values[q].iter().zip(&slice.meta[q]).enumerate() {
                        if v != 0.0 {
                            let row = 4 * (s / 2) + (meta & 3) as usize;
                            chain.push((unit.dx, offs[row] - q as isize, v));
                        }
                    }
                }
            }
        })
    }

    /// The schedule of `DenseTc`: window positions 0..31 of the
    /// unswapped banded matrix, ascending, against the dense gather.
    pub(crate) fn dense(units: &[PlanUnit], gathers: &[UnitGather]) -> Self {
        Self::merge(max_taps(units), |q, chain| {
            for (unit, gather) in units.iter().zip(gathers) {
                let offs = gather.dense.iter().flatten();
                for (&v, &off) in unit.sparse.banded[q].iter().zip(offs) {
                    if v != 0.0 {
                        chain.push((unit.dx, off - q as isize, v));
                    }
                }
            }
        })
    }

    /// Build each residue's chain (at most `capacity` taps) with
    /// `chain_of(q, &mut chain)`, then merge the distinct chains: walk
    /// each chain with a cursor into the merged steps, reuse the next step
    /// with a matching `(dx, dcol)` that this residue has not used yet, and
    /// insert the tap at the cursor when none follows. Every residue's taps
    /// keep their order, because the cursor only moves forward and an
    /// insertion lands after every tap already placed for the residues
    /// being merged.
    fn merge(capacity: usize, chain_of: impl Fn(usize, &mut Vec<Tap>)) -> Self {
        let mut taps: Vec<Tap> = Vec::with_capacity(M_TILE * capacity);
        let mut bounds = [0usize; M_TILE + 1];
        for q in 0..M_TILE {
            chain_of(q, &mut taps);
            bounds[q + 1] = taps.len();
        }
        let chain = |q: usize| &taps[bounds[q]..bounds[q + 1]];
        let same_keys = |a: &[Tap], b: &[Tap]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x.0, x.1) == (y.0, y.1))
        };
        let mut steps: Vec<TapStep> = Vec::with_capacity(2 * capacity);
        let mut merged = 0u32;
        for q in 0..M_TILE {
            if merged & 1 << q != 0 {
                continue;
            }
            // Residues whose chains visit the same keys in the same order
            // merge as one.
            let group = (q..M_TILE)
                .filter(|&p| merged & 1 << p == 0 && same_keys(chain(p), chain(q)))
                .fold(0u32, |group, p| group | 1 << p);
            merged |= group;
            let mut cursor = 0;
            for (j, &(dx, dcol, _)) in chain(q).iter().enumerate() {
                let at = match steps[cursor..]
                    .iter()
                    .position(|s| (s.dx, s.dcol) == (dx, dcol) && s.coeff[q] == 0.0)
                {
                    Some(i) => cursor + i,
                    None => {
                        let coeff = [0.0; M_TILE];
                        steps.insert(cursor, TapStep { dx, dcol, coeff });
                        cursor
                    }
                };
                let mut members = group;
                while members != 0 {
                    let p = members.trailing_zeros() as usize;
                    members &= members - 1;
                    steps[at].coeff[p] = taps[bounds[p] + j].2;
                }
                cursor = at + 1;
            }
        }
        Self { steps }
    }

    /// The steps, in application order.
    pub fn steps(&self) -> &[TapStep] {
        &self.steps
    }
}

/// 16-wide chunks one pass of [`run_span`] carries through every step.
const BLOCK_CHUNKS: usize = 4;

/// Run `steps` over one span of outputs: `out[y]` becomes
/// `F16::quantize(Σ_s coeff_s[y % 16] · src[starts[s] + y])`, with the
/// FMAs in step order, for `y` in `0..out.len()`. `starts[s]` is the
/// storage index step `s` reads for output 0, so the span must begin at a
/// multiple of 16 in output columns. Returns whether any output is
/// non-finite.
///
/// Each pass applies a step to four 16-wide chunks (64 outputs) before the
/// next step, so the four accumulator chains are independent and their
/// FMAs overlap instead of each waiting on the one before (one chunk per
/// pass measured 1.5–2× slower on x86-64 with FMA). Leftover whole chunks
/// and the tail take one chunk per pass. Every output receives the same
/// FMAs in the same order either way.
pub(crate) fn run_span(steps: &[TapStep], starts: &[usize], src: &[f32], out: &mut [f32]) -> bool {
    debug_assert_eq!(steps.len(), starts.len());
    let mut blocks = out.chunks_exact_mut(BLOCK_CHUNKS * M_TILE);
    let mut y = 0;
    for block in &mut blocks {
        run_chunks::<BLOCK_CHUNKS>(steps, starts, &src[y..], block);
        y += block.len();
    }
    let mut chunks = blocks.into_remainder().chunks_exact_mut(M_TILE);
    for chunk in &mut chunks {
        run_chunks::<1>(steps, starts, &src[y..], chunk);
        y += M_TILE;
    }
    let tail = chunks.into_remainder();
    if !tail.is_empty() {
        let w = tail.len();
        let mut acc = [0.0f32; M_TILE];
        for (step, &start) in steps.iter().zip(starts) {
            let mut lanes = [0.0f32; M_TILE];
            lanes[..w].copy_from_slice(&src[start + y..start + y + w]);
            acc = std::array::from_fn(|l| step.coeff[l].mul_add(lanes[l], acc[l]));
        }
        tail.copy_from_slice(&acc[..w]);
    }
    spider_gpu_sim::half::quantize_slice(out)
}

/// One pass of [`run_span`]: every step over the `C` 16-wide chunks of
/// `out`, whose output 0 reads `src[starts[s]]` at step `s`.
#[inline(always)]
fn run_chunks<const C: usize>(steps: &[TapStep], starts: &[usize], src: &[f32], out: &mut [f32]) {
    let mut acc = [[0.0f32; M_TILE]; C];
    for (step, &start) in steps.iter().zip(starts) {
        let (lanes, _) = src[start..start + C * M_TILE].as_chunks::<M_TILE>();
        for (acc, lanes) in acc.iter_mut().zip(lanes) {
            *acc = std::array::from_fn(|l| step.coeff[l].mul_add(lanes[l], acc[l]));
        }
    }
    for (chunk, acc) in out.chunks_exact_mut(M_TILE).zip(&acc) {
        chunk.copy_from_slice(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecMode, SpiderExecutor};
    use crate::exec3d::{Spider3DExecutor, Spider3DPlan};
    use crate::plan::SpiderPlan;
    use crate::swap::SwapParity;
    use spider_gpu_sim::GpuDevice;
    use spider_stencil::dim3::{Grid3D, Kernel3D};
    use spider_stencil::shape::StencilShape;
    use spider_stencil::{Grid1D, Grid2D, StencilKernel};

    fn sparse_of(plan: &SpiderPlan) -> &TapSchedule {
        plan.tap_schedule(ExecMode::SparseTcOptimized)
    }

    /// Non-zero coefficients across all steps and residues.
    fn taps(schedule: &TapSchedule) -> usize {
        schedule
            .steps()
            .iter()
            .map(|s| s.coeff.iter().filter(|&&c| c != 0.0).count())
            .sum()
    }

    #[test]
    fn step_counts_stay_near_the_tap_counts() {
        let heat = StencilKernel::heat_2d(0.1);
        assert_eq!(
            taps(sparse_of(&SpiderPlan::compile(&heat).unwrap())),
            5 * 16
        );
        for r in 1..=7 {
            for shape in [
                StencilShape::box_2d(r),
                StencilShape::star_2d(r),
                StencilShape::d1(r),
            ] {
                let kernel = StencilKernel::random(shape, r as u64);
                let plan = SpiderPlan::compile(&kernel).unwrap();
                let points = shape.num_points();
                for mode in [ExecMode::SparseTcOptimized, ExecMode::DenseTc] {
                    let s = plan.tap_schedule(mode);
                    assert_eq!(taps(s), points * M_TILE, "{} {mode:?}", shape.name());
                    assert!(
                        s.steps().len() * 100 <= points * 194,
                        "{} {mode:?}: {} steps for {points} taps",
                        shape.name(),
                        s.steps().len()
                    );
                }
            }
        }
    }

    #[test]
    fn every_residue_reads_each_tap_of_the_stencil_once() {
        for parity in [SwapParity::Even, SwapParity::Odd] {
            let kernel = StencilKernel::random(StencilShape::box_2d(2), 5);
            let plan = SpiderPlan::compile_with_parity(&kernel, parity).unwrap();
            let r = 2isize;
            for mode in [ExecMode::SparseTc, ExecMode::DenseTc] {
                for q in 0..M_TILE {
                    let mut seen: Vec<(isize, isize, f32)> = plan
                        .tap_schedule(mode)
                        .steps()
                        .iter()
                        .filter(|s| s.coeff[q] != 0.0)
                        .map(|s| (s.dx, s.dcol, s.coeff[q]))
                        .collect();
                    seen.sort_by_key(|&(dx, dcol, _)| (dx, dcol));
                    let want: Vec<(isize, isize, f32)> = (-r..=r)
                        .flat_map(|dx| (-r..=r).map(move |dy| (dx, dy)))
                        .map(|(dx, dy)| {
                            let c = spider_gpu_sim::half::F16::quantize(kernel.at(dx, dy) as f32);
                            (dx, dy, c)
                        })
                        .filter(|&(_, _, c)| c != 0.0)
                        .collect();
                    assert_eq!(seen, want, "{parity:?} {mode:?} residue {q}");
                }
            }
        }
    }

    #[test]
    fn merged_steps_keep_each_residue_chain_in_order() {
        let kernel = StencilKernel::random(StencilShape::star_2d(3), 9);
        let plan = SpiderPlan::compile(&kernel).unwrap();
        let schedule = TapSchedule::sparse(plan.units(), plan.gathers());
        let mut chain = Vec::new();
        for q in 0..M_TILE {
            chain.clear();
            for (unit, gather) in plan.units().iter().zip(plan.gathers()) {
                for (slice, offs) in unit.sparse.slices.iter().zip(&gather.swapped) {
                    for s in 0..8 {
                        let v = slice.values[q][s];
                        if v != 0.0 {
                            let row = 4 * (s / 2) + (slice.meta[q][s] & 3) as usize;
                            chain.push((unit.dx, offs[row] - q as isize, v));
                        }
                    }
                }
            }
            let got: Vec<(isize, isize, f32)> = schedule
                .steps()
                .iter()
                .filter(|s| s.coeff[q] != 0.0)
                .map(|s| (s.dx, s.dcol, s.coeff[q]))
                .collect();
            assert_eq!(got, chain, "residue {q}");
        }
    }

    #[test]
    fn heat_merges_three_chains_into_seven_steps() {
        let plan = SpiderPlan::compile(&StencilKernel::heat_2d(0.1)).unwrap();
        assert_eq!(sparse_of(&plan).steps().len(), 7);
    }

    #[test]
    fn run_span_applies_steps_in_order_and_flags_non_finite_outputs() {
        let steps = [
            TapStep {
                dx: 0,
                dcol: 0,
                coeff: [1.0; M_TILE],
            },
            TapStep {
                dx: 0,
                dcol: 1,
                coeff: std::array::from_fn(|l| if l % 2 == 0 { 0.5 } else { 0.0 }),
            },
        ];
        // 37 outputs: two whole 16-wide chunks and a 5-wide tail.
        let src: Vec<f32> = (0..40).map(|i| i as f32).collect();
        let mut out = vec![0.0f32; 37];
        assert!(!run_span(&steps, &[0, 1], &src, &mut out));
        for (y, &v) in out.iter().enumerate() {
            let y = y as f32;
            let want = if y % 2.0 == 0.0 {
                0.5f32.mul_add(y + 1.0, y)
            } else {
                y
            };
            assert_eq!(v, want, "output {y}");
        }
        let huge = vec![6e4f32; 40];
        assert!(run_span(&steps, &[0, 1], &huge, &mut out));
    }

    /// Widths that end inside the first block, on its edge, past it with
    /// whole chunks left over, and in a tail after several blocks: every
    /// output equals its own scalar FMA chain in step order, bit for bit.
    #[test]
    fn run_span_blocks_chunks_and_tail_keep_each_output_chain() {
        let steps: Vec<TapStep> = (0..5)
            .map(|s| TapStep {
                dx: 0,
                dcol: s,
                coeff: std::array::from_fn(|l| match (s as usize + l) % 4 {
                    0 => 0.0,
                    k => 0.3 * k as f32 - 0.7 / (1 + s) as f32,
                }),
            })
            .collect();
        let starts = [3, 0, 7, 1, 4];
        let src: Vec<f32> = (0..220)
            .map(|i| ((i * 37 % 101) as f32).sqrt() - 4.5)
            .collect();
        let quantize = spider_gpu_sim::half::F16::quantize;
        for width in [16, 37, 63, 64, 65, 100, 131, 200] {
            let mut out = vec![0.0f32; width];
            assert!(!run_span(&steps, &starts, &src, &mut out), "width {width}");
            for (y, &got) in out.iter().enumerate() {
                let acc = steps.iter().zip(starts).fold(0.0f32, |acc, (step, start)| {
                    step.coeff[y % M_TILE].mul_add(src[start + y], acc)
                });
                assert_eq!(
                    got.to_bits(),
                    quantize(acc).to_bits(),
                    "width {width} output {y}"
                );
            }
        }
        // A value past FP16 range reaching one output through the first
        // step (whose coefficient is non-zero there) raises the flag, in a
        // block, in a leftover chunk and in the tail alike.
        for (width, y) in [(64, 10), (100, 70), (100, 99), (200, 130), (200, 197)] {
            assert_ne!(steps[0].coeff[y % M_TILE], 0.0);
            let mut poisoned = src.clone();
            poisoned[starts[0] + y] = 1e9;
            let mut out = vec![0.0f32; width];
            assert!(
                run_span(&steps, &starts, &poisoned, &mut out),
                "width {width} output {y}"
            );
            assert!(!out[y].is_finite());
        }
    }

    const MODES: [ExecMode; 3] = [
        ExecMode::DenseTc,
        ExecMode::SparseTc,
        ExecMode::SparseTcOptimized,
    ];

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The schedule against the emulated MMA on every native radius of box,
    /// star and 1D kernels, both swap parities and all three modes, on odd
    /// extents, outputs and counters bit for bit; then volumes (box r1–r3,
    /// the 7-point star and a kernel with one off-centre slice) on odd
    /// extents, outputs and reports bit for bit. Too slow for the default
    /// run (tests/core_exec_properties.rs samples the same space).
    #[test]
    #[ignore = "exhaustive; run with --release -- --ignored"]
    fn schedule_matches_emulation_exhaustively() {
        let dev = GpuDevice::a100();
        for r in 1..=7usize {
            for parity in [SwapParity::Even, SwapParity::Odd] {
                for (i, shape) in [StencilShape::box_2d(r), StencilShape::star_2d(r)]
                    .into_iter()
                    .enumerate()
                {
                    let kernel = StencilKernel::random(shape, (10 * r + i) as u64);
                    let plan = SpiderPlan::compile_with_parity(&kernel, parity).unwrap();
                    for (rows, cols) in [(5, 7), (37, 53), (9, 131), (67, 81)] {
                        let grid = Grid2D::<f32>::random(rows, cols, r, (rows * cols) as u64);
                        for mode in MODES {
                            let exec = SpiderExecutor::new(&dev, mode);
                            let (mut fast, mut reference) = (grid.clone(), grid.clone());
                            let a = exec.run_2d(&plan, &mut fast, 2).unwrap();
                            let b = exec.run_2d_emulated(&plan, &mut reference, 2).unwrap();
                            let what =
                                format!("{} {parity:?} {mode:?} {rows}x{cols}", shape.name());
                            assert_eq!(bits(fast.padded()), bits(reference.padded()), "{what}");
                            assert_eq!(a.counters, b.counters, "{what}");
                        }
                    }
                }
                let kernel = StencilKernel::random(StencilShape::d1(r), 100 + r as u64);
                let plan = SpiderPlan::compile_with_parity(&kernel, parity).unwrap();
                for n in [13, 97, 2049, 4111] {
                    let grid = Grid1D::<f32>::random(n, r, n as u64);
                    for mode in MODES {
                        let exec = SpiderExecutor::new(&dev, mode);
                        let (mut fast, mut reference) = (grid.clone(), grid.clone());
                        let a = exec.run_1d(&plan, &mut fast, 2).unwrap();
                        let b = exec.run_1d_emulated(&plan, &mut reference, 2).unwrap();
                        let what = format!("1D r{r} {parity:?} {mode:?} n{n}");
                        assert_eq!(bits(fast.padded()), bits(reference.padded()), "{what}");
                        assert_eq!(a.counters, b.counters, "{what}");
                    }
                }
            }
        }
        let upper = Kernel3D::random_box(1, 60);
        let one_slice = Kernel3D::from_fn(1, |dz, dx, dy| match dz {
            1 => upper.at(dz, dx, dy),
            _ => 0.0,
        });
        let mut volumes: Vec<Kernel3D> = (1..=3)
            .map(|r| Kernel3D::random_box(r, 60 + r as u64))
            .collect();
        volumes.extend([Kernel3D::star_7point(-6.0, 1.0), one_slice]);
        for kernel in &volumes {
            let plan = Spider3DPlan::compile(kernel).unwrap();
            for (planes, rows, cols) in [(3, 5, 7), (4, 9, 13), (2, 17, 33)] {
                let r = kernel.radius();
                let grid =
                    Grid3D::<f32>::random(planes, rows, cols, r, (planes * rows * cols) as u64);
                for mode in MODES {
                    let exec = Spider3DExecutor::new(&dev, mode);
                    let (mut fast, mut reference) = (grid.clone(), grid.clone());
                    let a = exec.run(&plan, &mut fast, 2).unwrap();
                    let b = exec.run_emulated(&plan, &mut reference, 2).unwrap();
                    let what = format!(
                        "3D r{r} {} slices {mode:?} {planes}x{rows}x{cols}",
                        plan.slices().len()
                    );
                    assert_eq!(bits(fast.padded()), bits(reference.padded()), "{what}");
                    assert_eq!(a, b, "{what}");
                }
            }
        }
    }
}
