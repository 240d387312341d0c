//! The ahead-of-time transformation product: a [`SpiderPlan`].
//!
//! Compiling a plan is the paper's entire offline pipeline — row
//! decomposition, banded-matrix construction, strided swapping, 2:4
//! compression and packing metadata. Its cost is `O(1)` in the grid size
//! (it touches only the `(2r+1)²` kernel coefficients), the property §4.2
//! contrasts against DRStencil's hour-long tuning, FlashFFTStencil's
//! `O(L² log L)` transforms and LoRAStencil's `O(L³)` decomposition.

use crate::encode::Sparse24Kernel;
use crate::exec::ExecMode;
use crate::kernel_matrix;
use crate::row_swap::RowSwapStrategy;
use crate::schedule::TapSchedule;
use crate::swap::{swap_perm, SwapParity};
use crate::sync::{LockRank, OrderedMutex};
use crate::tiling::TilingConfig;
use crate::{K_PAD, M_TILE};
use spider_gpu_sim::counters::PerfCounters;
use spider_gpu_sim::half::F16;
use spider_stencil::{Dim, StencilKernel};
use std::sync::OnceLock;

/// One compiled decomposition unit: a kernel-row chunk as a 2:4 operand pair
/// plus the input-window offsets that position its partial contribution.
#[derive(Debug, Clone)]
pub struct PlanUnit {
    /// Compiled, swapped, compressed kernel-row chunk.
    pub sparse: Sparse24Kernel,
    /// Input grid-row offset relative to the output row (`m − r`; 0 in 1D).
    pub dx: isize,
    /// Input grid-column offset (non-zero only for wide-row splits).
    pub dy: isize,
    /// Effective radius of this unit's band (`≤ MAX_NATIVE_RADIUS`).
    pub radius: usize,
}

/// Plan-time gather tables for one [`PlanUnit`]: for each of the unit's two
/// MMA K-slices, the signed input-window offset every B-fragment row reads,
/// with the strided-swap row permutation already folded in.
///
/// The tap schedules ([`TapSchedule`]) are derived from these tables, and
/// the emulated reference path reads the same cells through its guarded
/// sampler. Computed once at compile time, so the plan cache amortizes the
/// work across every sweep of every request that shares the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitGather {
    /// Signed column offset (relative to the output tile's first column) for
    /// window row `dy` of K-slice `k`, swapped order: `swapped[k][dy] =
    /// unit.dy − unit.radius + perm[16k + dy]`.
    pub swapped: [[isize; M_TILE]; 2],
    /// Same, fragment (unswapped) order — the dense-TC ablation arm:
    /// `dense[k][dy] = unit.dy − unit.radius + 16k + dy`.
    pub dense: [[isize; M_TILE]; 2],
}

impl UnitGather {
    fn compile(perm: &[usize; K_PAD], dy: isize, radius: usize) -> Self {
        let base = dy - radius as isize;
        Self {
            swapped: std::array::from_fn(|k| {
                std::array::from_fn(|row| base + perm[16 * k + row] as isize)
            }),
            dense: std::array::from_fn(|k| {
                std::array::from_fn(|row| base + (16 * k + row) as isize)
            }),
        }
    }
}

/// The ahead-of-time compilation product for one stencil kernel.
#[derive(Debug, Clone)]
pub struct SpiderPlan {
    kernel: StencilKernel,
    units: Vec<PlanUnit>,
    parity: SwapParity,
    /// Strided-swap permutation over the 32-row input window (precomputed;
    /// `perm[j] = swap_perm(j, M_TILE, parity)`).
    perm: [usize; K_PAD],
    /// Per-unit gather-offset tables, parallel to `units`.
    gathers: Vec<UnitGather>,
    /// The sparse arms' tap schedule, derived with the gather tables.
    schedule: TapSchedule,
    /// The `DenseTc` arm's tap schedule, derived on first use (serving
    /// never runs that arm).
    dense_schedule: OnceLock<TapSchedule>,
    /// One sweep's counters per charge key, derived on first use.
    charges: ChargeMemo,
}

/// The extent one charged sweep covers: a line of `n` outputs or a
/// `rows × cols` plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Extent {
    Line(usize),
    Plane(usize, usize),
}

/// Everything one sweep's counters depend on besides the plan: never grid
/// data, so one charge serves every sweep of every request that shares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChargeKey {
    pub(crate) extent: Extent,
    pub(crate) tiling: TilingConfig,
    pub(crate) mode: ExecMode,
    pub(crate) row_swap: RowSwapStrategy,
}

/// Charge keys one plan memoizes; beyond it the least recently used entry
/// goes. A tune dry-runs at most five tilings of one scenario (on an
/// extent that is the served one for grids under its cap), so a served
/// entry outlives two other scenarios' tunes between its uses.
const CHARGE_MEMO_ENTRIES: usize = 16;

/// A plan's swept counters: `(key, counters, last use)` rows, at most
/// [`CHARGE_MEMO_ENTRIES`], plus the closed-form charges it has paid.
#[derive(Debug)]
struct ChargeMemo(OrderedMutex<ChargeTable>);

#[derive(Debug, Default)]
struct ChargeTable {
    rows: Vec<(ChargeKey, PerfCounters, u64)>,
    /// Lookups so far, the use stamp of the latest.
    uses: u64,
    /// Lookups that charged in closed form.
    misses: u64,
}

impl ChargeMemo {
    fn new() -> Self {
        Self(OrderedMutex::new(
            LockRank::PlanCharges,
            "plan.charges",
            ChargeTable::default(),
        ))
    }
}

/// A clone starts with an empty memo: it charges the same counters again.
impl Clone for ChargeMemo {
    fn clone(&self) -> Self {
        Self::new()
    }
}

/// Errors surfaced during plan compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A swapped kernel-row chunk failed 2:4 validation (cannot happen for
    /// band widths within the native radius — kept for API honesty).
    NotTwoFour(String),
    /// Kernel has no non-zero coefficients.
    EmptyKernel,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NotTwoFour(e) => write!(f, "2:4 violation: {e}"),
            PlanError::EmptyKernel => write!(f, "kernel has no non-zero coefficients"),
        }
    }
}

impl std::error::Error for PlanError {}

impl SpiderPlan {
    /// Compile with the default (paper §3.2) even swap parity.
    pub fn compile(kernel: &StencilKernel) -> Result<Self, PlanError> {
        Self::compile_with_parity(kernel, SwapParity::Even)
    }

    /// Compile with an explicit swap parity.
    pub fn compile_with_parity(
        kernel: &StencilKernel,
        parity: SwapParity,
    ) -> Result<Self, PlanError> {
        let r = kernel.radius();
        let mut units = Vec::new();
        for m in 0..kernel.num_rows() {
            let row = kernel.row(m);
            if row.iter().all(|&c| c == 0.0) {
                continue; // star kernels: fully-zero rows need no GEMM
            }
            // Model FP16 storage of the coefficients.
            let row_f16: Vec<f32> = row.iter().map(|&c| F16::quantize(c as f32)).collect();
            let dx = match kernel.shape().dim {
                Dim::D1 => 0isize,
                Dim::D2 => m as isize - r as isize,
            };
            for (chunk, dy) in kernel_matrix::split_wide_row(&row_f16) {
                let sparse = Sparse24Kernel::compile(&chunk, parity)
                    .map_err(|e| PlanError::NotTwoFour(e.to_string()))?;
                units.push(PlanUnit {
                    radius: sparse.radius,
                    sparse,
                    dx,
                    dy,
                });
            }
        }
        if units.is_empty() {
            return Err(PlanError::EmptyKernel);
        }
        let perm: [usize; K_PAD] = std::array::from_fn(|j| swap_perm(j, M_TILE, parity));
        let gathers: Vec<UnitGather> = units
            .iter()
            .map(|u| UnitGather::compile(&perm, u.dy, u.radius))
            .collect();
        let schedule = TapSchedule::sparse(&units, &gathers);
        Ok(Self {
            kernel: kernel.clone(),
            units,
            parity,
            perm,
            gathers,
            schedule,
            dense_schedule: OnceLock::new(),
            charges: ChargeMemo::new(),
        })
    }

    pub fn kernel(&self) -> &StencilKernel {
        &self.kernel
    }

    pub fn units(&self) -> &[PlanUnit] {
        &self.units
    }

    pub fn parity(&self) -> SwapParity {
        self.parity
    }

    /// The precomputed strided-swap permutation over the 32-row window
    /// (`perm[j] = swap_perm(j, M_TILE, parity)`).
    pub fn perm(&self) -> &[usize; K_PAD] {
        &self.perm
    }

    /// Per-unit gather-offset tables, parallel to [`Self::units`].
    pub fn gathers(&self) -> &[UnitGather] {
        &self.gathers
    }

    /// The exact-order tap schedule the host runs for `mode` (see
    /// [`crate::schedule`]). The `DenseTc` order is derived on first use.
    pub fn tap_schedule(&self, mode: ExecMode) -> &TapSchedule {
        if mode == ExecMode::DenseTc {
            self.dense_schedule
                .get_or_init(|| TapSchedule::dense(&self.units, &self.gathers))
        } else {
            &self.schedule
        }
    }

    /// One sweep's counters under `key`: memoized, or derived by `charge`
    /// outside the memo's lock and kept, evicting the least recently used
    /// entry beyond [`CHARGE_MEMO_ENTRIES`]. `charge` must be the closed
    /// form of `key`, so a racing sweep that charges it too keeps the same
    /// value.
    pub(crate) fn charged(
        &self,
        key: ChargeKey,
        charge: impl FnOnce() -> PerfCounters,
    ) -> PerfCounters {
        let mut memo = self.charges.0.lock();
        memo.uses += 1;
        let used = memo.uses;
        if let Some(row) = memo.rows.iter_mut().find(|row| row.0 == key) {
            row.2 = used;
            return row.1;
        }
        drop(memo);
        let counters = charge();
        let mut memo = self.charges.0.lock();
        memo.misses += 1;
        if memo.rows.iter().all(|row| row.0 != key) {
            if memo.rows.len() == CHARGE_MEMO_ENTRIES {
                let coldest = (0..memo.rows.len()).min_by_key(|&i| memo.rows[i].2);
                memo.rows
                    .swap_remove(coldest.expect("a full memo has rows")); // guard: CHARGE_MEMO_ENTRIES > 0
            }
            memo.rows.push((key, counters, used));
        }
        counters
    }

    /// How many sweeps' counters this plan derived in closed form, rather
    /// than finding them memoized: a warm request adds none.
    pub fn charge_misses(&self) -> u64 {
        self.charges.0.lock().misses
    }

    /// Stable content fingerprint of the compiled plan: the source kernel's
    /// [`StencilKernel::fingerprint`] folded with the swap parity.
    ///
    /// Because compilation is deterministic (see the `compile_is_deterministic`
    /// test), two plans with equal fingerprints are interchangeable — the
    /// contract `spider-runtime`'s plan cache is built on.
    pub fn fingerprint(&self) -> u64 {
        let parity_tag: u64 = match self.parity {
            SwapParity::Even => 0x45,
            SwapParity::Odd => 0x4f,
        };
        // One extra FNV-1a step over the kernel fingerprint.
        (self.kernel.fingerprint() ^ parity_tag).wrapping_mul(0x100000001b3)
    }

    /// Stencil radius of the source kernel.
    pub fn radius(&self) -> usize {
        self.kernel.radius()
    }

    /// Total `mma.sp` K-slices per MMA tile (two per unit — §3.2's "twice").
    pub fn slices(&self) -> usize {
        self.units.len() * 2
    }

    /// Compressed parameter bytes (values + metadata) the plan ships to the
    /// device — the "Parameter Memory Access" unit of the paper's Table 2.
    pub fn parameter_bytes(&self) -> usize {
        self.units
            .iter()
            .map(|u| u.sparse.value_bytes() + u.sparse.metadata_bytes())
            .sum()
    }

    /// Parameter bytes without 2:4 compression (the dense-TC ablation arm).
    pub fn parameter_bytes_dense(&self) -> usize {
        self.units.iter().map(|u| u.sparse.dense_bytes()).sum()
    }

    pub fn is_1d(&self) -> bool {
        self.kernel.shape().dim == Dim::D1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MAX_NATIVE_RADIUS;
    use spider_stencil::shape::StencilShape;

    #[test]
    fn box_2d_plan_has_one_unit_per_row() {
        for r in 1..=3 {
            let k = StencilKernel::random(StencilShape::box_2d(r), 1);
            let p = SpiderPlan::compile(&k).unwrap();
            assert_eq!(p.units().len(), 2 * r + 1);
            assert_eq!(p.slices(), 2 * (2 * r + 1));
            for (m, u) in p.units().iter().enumerate() {
                assert_eq!(u.dx, m as isize - r as isize);
                assert_eq!(u.dy, 0);
                assert_eq!(u.radius, r);
            }
        }
    }

    #[test]
    fn star_2d_plan_keeps_all_rows() {
        // Star rows still have their center tap, so every row compiles
        // (zero off-axis taps make the band mostly zeros — still 2:4).
        let k = StencilKernel::random(StencilShape::star_2d(2), 2);
        let p = SpiderPlan::compile(&k).unwrap();
        assert_eq!(p.units().len(), 5);
    }

    #[test]
    fn d1_plan_is_single_unit() {
        let k = StencilKernel::random(StencilShape::d1(2), 3);
        let p = SpiderPlan::compile(&k).unwrap();
        assert_eq!(p.units().len(), 1);
        assert_eq!(p.units()[0].dx, 0);
        assert!(p.is_1d());
    }

    #[test]
    fn zero_rows_are_skipped() {
        // Custom kernel with an all-zero top row.
        let mut coeffs = vec![0.0; 9];
        coeffs[4] = 1.0;
        coeffs[7] = 0.5;
        let k = StencilKernel::box_2d(1, &coeffs);
        let p = SpiderPlan::compile(&k).unwrap();
        assert_eq!(p.units().len(), 2, "rows 1 and 2 only");
        assert_eq!(p.units()[0].dx, 0);
        assert_eq!(p.units()[1].dx, 1);
    }

    #[test]
    fn empty_kernel_rejected() {
        let k = StencilKernel::box_2d(1, &[0.0; 9]);
        assert!(matches!(
            SpiderPlan::compile(&k),
            Err(PlanError::EmptyKernel)
        ));
    }

    #[test]
    fn wide_radius_splits_into_chunks() {
        let k = StencilKernel::random(StencilShape::d1(10), 4); // r=10 > 7
        let p = SpiderPlan::compile(&k).unwrap();
        assert!(p.units().len() >= 2);
        for u in p.units() {
            assert!(u.radius <= MAX_NATIVE_RADIUS);
        }
        // Chunks cover distinct column offsets.
        let mut dys: Vec<isize> = p.units().iter().map(|u| u.dy).collect();
        dys.dedup();
        assert_eq!(dys.len(), p.units().len());
    }

    #[test]
    fn parameter_bytes_reflect_compression() {
        let k = StencilKernel::random(StencilShape::box_2d(3), 5);
        let p = SpiderPlan::compile(&k).unwrap();
        let compressed = p.parameter_bytes();
        let dense = p.parameter_bytes_dense();
        // values halve; metadata adds 1/16 of dense.
        assert_eq!(compressed, dense / 2 + dense / 16);
    }

    #[test]
    fn gather_tables_match_on_the_fly_derivation() {
        use crate::swap::swap_perm;
        for (shape, seed) in [
            (StencilShape::box_2d(3), 11u64),
            (StencilShape::star_2d(2), 12),
            (StencilShape::d1(9), 13), // wide-row split: non-zero unit.dy
        ] {
            let k = StencilKernel::random(shape, seed);
            let p = SpiderPlan::compile(&k).unwrap();
            assert_eq!(p.gathers().len(), p.units().len());
            for j in 0..K_PAD {
                assert_eq!(p.perm()[j], swap_perm(j, M_TILE, p.parity()));
            }
            for (u, g) in p.units().iter().zip(p.gathers()) {
                let base = u.dy - u.radius as isize;
                for kk in 0..2 {
                    for row in 0..M_TILE {
                        let sw = base + p.perm()[16 * kk + row] as isize;
                        let de = base + (16 * kk + row) as isize;
                        assert_eq!(g.swapped[kk][row], sw);
                        assert_eq!(g.dense[kk][row], de);
                    }
                }
            }
        }
    }

    #[test]
    fn compile_is_deterministic() {
        let k = StencilKernel::random(StencilShape::box_2d(2), 9);
        let a = SpiderPlan::compile(&k).unwrap();
        let b = SpiderPlan::compile(&k).unwrap();
        assert_eq!(a.units().len(), b.units().len());
        for (ua, ub) in a.units().iter().zip(b.units()) {
            assert_eq!(ua.sparse, ub.sparse);
        }
    }
}
