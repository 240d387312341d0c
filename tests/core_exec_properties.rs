//! Property tests for the execution core.
//!
//! The host computes a sweep from the plan's exact-order tap schedule: the
//! emulated `mma.sp` chain's non-zero FMAs, in the chain's order. The
//! emulated MMA path (per-tile B-fragment gathers through a bounds-checked
//! sampler, every slot of every MMA) is the reference, reachable through
//! `run_2d_emulated`, `run_1d_emulated` and `Spider3DExecutor::run_emulated`.
//! The contract is *bit-identity*: the schedule must reproduce every output
//! bit (halo included) AND every performance counter of the emulation on
//! any shape — odd extents, extents smaller than one tile, radii rivaling
//! the block size, wide-radius splits, both swap parities, all three modes
//! and 3D volumes. Non-finite input (where a zero slot times ∞ is NaN)
//! must take the emulated path, so it is bit-identical too. Plus the
//! coalesced batch path and the steady-state no-allocation property of the
//! buffer pool.

use proptest::prelude::*;
use spider::core::exec::{BatchFeedback, ExecConfig, ExecMode, SpiderExecutor};
use spider::core::exec3d::{Spider3DExecutor, Spider3DPlan};
use spider::core::plan::SpiderPlan;
use spider::core::tiling::TilingConfig;
use spider::core::{RowSwapStrategy, SwapParity};
use spider::gpu_sim::timing::KernelReport;
use spider::prelude::*;
use spider::stencil::dim3::{Grid3D, Kernel3D};
use spider::stencil::fnv::Fnv1a;

const MODES: [ExecMode; 3] = [
    ExecMode::DenseTc,
    ExecMode::SparseTc,
    ExecMode::SparseTcOptimized,
];

fn exec_with(dev: &GpuDevice, mode: ExecMode, tiling: TilingConfig) -> SpiderExecutor<'_> {
    SpiderExecutor::with_config(
        dev,
        mode,
        ExecConfig {
            tiling,
            ..ExecConfig::default()
        },
    )
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Run the same 2D problem through the schedule and the emulated reference
/// and require identical padded storage (every bit, halo included) and
/// identical counters.
fn assert_2d_matches_emulation(
    mode: ExecMode,
    tiling: TilingConfig,
    plan: &SpiderPlan,
    grid: &Grid2D<f32>,
    steps: usize,
) {
    let dev = GpuDevice::a100();
    let exec = exec_with(&dev, mode, tiling);
    let mut fast = grid.clone();
    let mut reference = grid.clone();
    let rf = exec.run_2d(plan, &mut fast, steps).unwrap();
    let rg = exec.run_2d_emulated(plan, &mut reference, steps).unwrap();
    let what = format!(
        "{mode:?} {:?} {}x{} r{} s{steps}",
        plan.parity(),
        grid.rows(),
        grid.cols(),
        plan.radius()
    );
    assert_eq!(
        bits(fast.padded()),
        bits(reference.padded()),
        "{what}: outputs diverged"
    );
    assert_eq!(rf.counters, rg.counters, "{what}: counters diverged");
}

#[allow(clippy::too_many_arguments)]
fn assert_2d_paths_identical(
    mode: ExecMode,
    tiling: TilingConfig,
    rows: usize,
    cols: usize,
    radius: usize,
    kernel: &StencilKernel,
    steps: usize,
    seed: u64,
) {
    let plan = SpiderPlan::compile(kernel).unwrap();
    let grid = Grid2D::<f32>::random(rows, cols, radius, seed);
    assert_2d_matches_emulation(mode, tiling, &plan, &grid, steps);
}

fn assert_1d_matches_emulation(
    mode: ExecMode,
    plan: &SpiderPlan,
    grid: &Grid1D<f32>,
    steps: usize,
) {
    let dev = GpuDevice::a100();
    let exec = SpiderExecutor::new(&dev, mode);
    let mut fast = grid.clone();
    let mut reference = grid.clone();
    let rf = exec.run_1d(plan, &mut fast, steps).unwrap();
    let rg = exec.run_1d_emulated(plan, &mut reference, steps).unwrap();
    let what = format!(
        "{mode:?} {:?} n{} r{}",
        plan.parity(),
        grid.len(),
        plan.radius()
    );
    assert_eq!(bits(fast.padded()), bits(reference.padded()), "{what}");
    assert_eq!(rf.counters, rg.counters, "{what}");
}

fn assert_3d_matches_emulation(plan: &Spider3DPlan, grid: &Grid3D<f32>, steps: usize) {
    let dev = GpuDevice::a100();
    let exec = Spider3DExecutor::new(&dev, ExecMode::SparseTcOptimized);
    let mut fast = grid.clone();
    let mut reference = grid.clone();
    let rf = exec.run(plan, &mut fast, steps).unwrap();
    let rg = exec.run_emulated(plan, &mut reference, steps).unwrap();
    assert_eq!(bits(fast.padded()), bits(reference.padded()), "3D diverged");
    assert_eq!(rf.counters, rg.counters);
    assert_eq!(rf.time_s(), rg.time_s());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized shapes and extents, including odd extents and grids
    /// smaller than one block tile, across all three executor arms.
    #[test]
    fn fast_and_guarded_2d_paths_are_bit_identical(
        radius in 1usize..=3,
        star in any::<bool>(),
        rows in 3usize..80,
        cols in 3usize..90,
        steps in 1usize..=3,
        mode_pick in 0usize..3,
        seed in 0u64..500,
    ) {
        let shape = if star { StencilShape::star_2d(radius) } else { StencilShape::box_2d(radius) };
        let mode = MODES[mode_pick];
        let kernel = StencilKernel::random(shape, seed);
        assert_2d_paths_identical(
            mode, TilingConfig::default(), rows, cols, radius, &kernel, steps, seed + 1,
        );
    }

    /// 1D: odd lengths, lengths below one chunk, and wide radii that split
    /// into multiple plan units (`split_wide_row`).
    #[test]
    fn fast_and_guarded_1d_paths_are_bit_identical(
        radius in 1usize..=9,
        n in 3usize..5000,
        steps in 1usize..=2,
        seed in 0u64..500,
    ) {
        let kernel = StencilKernel::random(StencilShape::d1(radius), seed);
        let plan = SpiderPlan::compile(&kernel).unwrap();
        let grid = Grid1D::<f32>::random(n, radius, seed + 1);
        assert_1d_matches_emulation(ExecMode::SparseTcOptimized, &plan, &grid, steps);
    }
}

/// The default tiling, a small one and a wide one (block and 1D chunk
/// sizes all differ), for the counter memo's keys.
const TILINGS: [TilingConfig; 3] = [
    TilingConfig {
        block_x: 32,
        block_y: 64,
        warp_x: 16,
        warp_y: 32,
        block_1d: 2048,
    },
    TilingConfig {
        block_x: 8,
        block_y: 16,
        warp_x: 8,
        warp_y: 16,
        block_1d: 512,
    },
    TilingConfig {
        block_x: 16,
        block_y: 128,
        warp_x: 16,
        warp_y: 64,
        block_1d: 4096,
    },
];

/// A 2D, a 1D and a 3D plan of one radius.
fn plans(radius: usize, seed: u64) -> (SpiderPlan, SpiderPlan, Spider3DPlan) {
    let plane = StencilKernel::random(StencilShape::box_2d(radius), seed);
    let line = StencilKernel::random(StencilShape::d1(radius), seed);
    let volume = Kernel3D::random_box(radius.min(2), seed);
    (
        SpiderPlan::compile(&plane).unwrap(),
        SpiderPlan::compile(&line).unwrap(),
        Spider3DPlan::compile(&volume).unwrap(),
    )
}

/// Closed-form charges a plan triple has paid, its 3D slices included.
fn charge_misses((plane, line, volume): &(SpiderPlan, SpiderPlan, Spider3DPlan)) -> u64 {
    let slices: u64 = volume.slices().iter().map(|(_, p)| p.charge_misses()).sum();
    plane.charge_misses() + line.charge_misses() + slices
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Counters are memoized per (plan, extent, tiling, mode, row-swap).
    /// A plan that has charged more keys than its memo holds (so the least
    /// recently used went) reports for a key it charges again exactly what
    /// a freshly compiled plan charges in closed form, and pays no charge
    /// for the repeat: 1D, 2D and 3D plans, every mode, row-swap strategy
    /// and tiling, runs and estimates (one over the measure cap), on
    /// extents that are not block multiples.
    #[test]
    fn memoized_counters_equal_a_fresh_charge(
        radius in 1usize..=3,
        rows in 3usize..100,
        cols in 3usize..150,
        n in 3usize..6000,
        planes in 1usize..4,
        seed in 0u64..500,
    ) {
        let dev = GpuDevice::a100();
        let warm = plans(radius, seed);
        let strategies = [
            RowSwapStrategy::Implicit,
            RowSwapStrategy::ExplicitCopy,
            RowSwapStrategy::None,
        ];
        for (mode, row_swap, tiling) in MODES.into_iter().flat_map(|m| {
            strategies
                .into_iter()
                .flat_map(move |s| TILINGS.into_iter().map(move |t| (m, s, t)))
        }) {
            let config = ExecConfig { tiling, row_swap, ..ExecConfig::default() };
            let exec = SpiderExecutor::with_config(&dev, mode, config);
            let exec_3d = Spider3DExecutor::with_config(&dev, mode, config);
            let charge = |(plane, line, volume): &(SpiderPlan, SpiderPlan, Spider3DPlan)| {
                let mut g2 = Grid2D::<f32>::random(rows, cols, radius, seed);
                let mut g1 = Grid1D::<f32>::random(n, radius, seed);
                let (r3, side) = (volume.radius(), rows.min(24));
                let mut g3 = Grid3D::<f32>::random(planes, side, cols.min(24), r3, seed);
                [
                    exec.run_2d(plane, &mut g2, 2).unwrap(),
                    exec.estimate_2d(plane, 7 * rows, 5 * cols),
                    exec.estimate_2d(plane, 1100 + rows, 1000 + cols),
                    exec.run_1d(line, &mut g1, 1).unwrap(),
                    exec.estimate_1d(line, 3 * n),
                    exec_3d.run(volume, &mut g3, 2).unwrap(),
                ]
            };
            let fresh = charge(&plans(radius, seed));
            let first = charge(&warm);
            let paid = charge_misses(&warm);
            let again = charge(&warm);
            prop_assert_eq!(charge_misses(&warm), paid, "{:?} {:?} {:?}", mode, row_swap, tiling);
            prop_assert_eq!(&first, &fresh);
            prop_assert_eq!(&again, &fresh);
        }
    }
}

/// Boundary-heavy corner cases, pinned deterministically: a grid smaller
/// than one MMA tile, and a radius that rivals the block extent (halo wider
/// than the interior the block owns).
#[test]
fn boundary_heavy_shapes_are_bit_identical() {
    // Tiny blocks so the radius reaches the block extent.
    let tiny_blocks = TilingConfig {
        block_x: 8,
        block_y: 16,
        warp_x: 8,
        warp_y: 16,
        ..TilingConfig::default()
    };
    tiny_blocks.validate().unwrap();
    for mode in MODES {
        // Extent smaller than one 16x8 MMA tile.
        let k1 = StencilKernel::random(StencilShape::box_2d(2), 7);
        assert_2d_paths_identical(mode, TilingConfig::default(), 5, 7, 2, &k1, 2, 21);
        // Radius 7 (the native maximum) against an 8x16 block: halo ≈ block.
        let k7 = StencilKernel::random(StencilShape::box_2d(7), 8);
        assert_2d_paths_identical(mode, tiny_blocks, 23, 29, 7, &k7, 1, 22);
        // Odd extents not divisible by anything convenient.
        let k3 = StencilKernel::random(StencilShape::star_2d(3), 9);
        assert_2d_paths_identical(mode, TilingConfig::default(), 33, 67, 3, &k3, 3, 23);
    }
}

/// The volume must come out bit-identical to the emulated plane sweeps.
#[test]
fn plane_sweeps_3d_are_bit_identical() {
    for (kernel, pz, rows, cols, steps) in [
        (
            Kernel3D::random_box(1, 31),
            5usize,
            17usize,
            23usize,
            2usize,
        ),
        (Kernel3D::random_box(2, 32), 6, 24, 11, 1),
        (Kernel3D::star_7point(-6.0, 1.0), 4, 9, 13, 2),
    ] {
        let plan = Spider3DPlan::compile(&kernel).unwrap();
        let grid = Grid3D::<f32>::random(pz, rows, cols, kernel.radius(), 33);
        assert_3d_matches_emulation(&plan, &grid, steps);
    }
}

/// Non-finite input: one +∞ interior cell (a zero slot times ∞ turns
/// neighbouring outputs into NaN under the MMA), and NaN in the halo.
#[test]
fn non_finite_inputs_take_the_emulated_path() {
    let kernel = StencilKernel::heat_2d(0.1);
    let plan = SpiderPlan::compile(&kernel).unwrap();
    let mut inf_cell = Grid2D::<f32>::random(40, 50, 1, 3);
    inf_cell.set(17, 20, f32::INFINITY);
    let mut nan_halo = Grid2D::<f32>::random(40, 50, 2, 4);
    nan_halo.set_ext(-2, 7, f32::NAN);
    for mode in MODES {
        // Dirichlet zeroes the halo before the first sweep, but the flag
        // is raised by the input quantize, which sees the NaN.
        for grid in [&inf_cell, &nan_halo] {
            assert_2d_matches_emulation(mode, TilingConfig::default(), &plan, grid, 2);
        }
    }
    // The emulation really does differ from a zero-skipping sum here.
    let dev = GpuDevice::a100();
    let mut g = inf_cell.clone();
    SpiderExecutor::new(&dev, ExecMode::SparseTcOptimized)
        .run_2d(&plan, &mut g, 1)
        .unwrap();
    let nan_cells = (0..40)
        .flat_map(|i| (0..50).map(move |j| (i, j)))
        .filter(|&(i, j)| g.get(i, j).is_nan())
        .count();
    assert!(nan_cells > 0, "0·∞ in padded slots yields NaN");

    let line = SpiderPlan::compile(&StencilKernel::random(StencilShape::d1(2), 5)).unwrap();
    let mut g1 = Grid1D::<f32>::random(300, 2, 6);
    g1.padded_mut()[0] = f32::NAN;
    g1.set(150, f32::NEG_INFINITY);
    for mode in MODES {
        assert_1d_matches_emulation(mode, &line, &g1, 2);
    }
}

/// A finite input that overflows FP16 in the second of three sweeps: the
/// first sweep runs the schedule, the store flags the overflow, and the
/// third sweep takes the emulated path.
#[test]
fn overflow_mid_run_switches_to_the_emulated_path() {
    let kernel = StencilKernel::box_2d(1, &[8.0; 9]);
    let plan = SpiderPlan::compile(&kernel).unwrap();
    let grid = Grid2D::<f32>::from_fn(35, 41, 1, |i, j| 50.0 + (i * 41 + j) as f32 * 0.01);
    let dev = GpuDevice::a100();
    let mut after_one = grid.clone();
    SpiderExecutor::new(&dev, ExecMode::SparseTcOptimized)
        .run_2d(&plan, &mut after_one, 1)
        .unwrap();
    assert!(after_one.padded().iter().all(|v| v.is_finite()));
    let mut after_two = grid.clone();
    SpiderExecutor::new(&dev, ExecMode::SparseTcOptimized)
        .run_2d(&plan, &mut after_two, 2)
        .unwrap();
    assert!(after_two.padded().iter().any(|v| v.is_infinite()));
    for mode in MODES {
        assert_2d_matches_emulation(mode, TilingConfig::default(), &plan, &grid, 3);
    }
}

/// Odd swap parity, the dense arm, and a 2D plan whose radius-9 rows split
/// into several units.
#[test]
fn odd_parity_dense_arm_and_split_plans_are_bit_identical() {
    let kernel = StencilKernel::random(StencilShape::box_2d(3), 41);
    let odd = SpiderPlan::compile_with_parity(&kernel, SwapParity::Odd).unwrap();
    let grid = Grid2D::<f32>::random(37, 45, 3, 42);
    for mode in MODES {
        assert_2d_matches_emulation(mode, TilingConfig::default(), &odd, &grid, 2);
    }
    let wide = StencilKernel::random(StencilShape::box_2d(9), 43);
    let split = SpiderPlan::compile(&wide).unwrap();
    assert!(split.units().len() > 19, "radius-9 rows split into chunks");
    let grid = Grid2D::<f32>::random(29, 51, 9, 44);
    for mode in MODES {
        assert_2d_matches_emulation(mode, TilingConfig::default(), &split, &grid, 1);
    }
}

/// A volume with a non-finite interior cell: the planes that read it take
/// the emulated path, every other plane the schedule.
#[test]
fn volume_with_a_non_finite_cell_is_bit_identical() {
    let kernel = Kernel3D::random_box(1, 51);
    let plan = Spider3DPlan::compile(&kernel).unwrap();
    let mut grid = Grid3D::<f32>::random(6, 20, 21, 1, 52);
    grid.set(2, 5, 9, f32::INFINITY);
    assert_3d_matches_emulation(&plan, &grid, 2);
    let mut halo_nan = Grid3D::<f32>::random(5, 18, 19, 2, 53);
    halo_nan.padded_mut()[3] = f32::NAN;
    assert_3d_matches_emulation(
        &Spider3DPlan::compile(&Kernel3D::random_box(2, 54)).unwrap(),
        &halo_nan,
        1,
    );
}

/// FNV-1a over the bit patterns of padded values, as the input
/// generator's golden test hashes them.
fn hash(values: &[f32]) -> u64 {
    let mut h = Fnv1a::new();
    for v in values {
        h.word(v.to_bits() as u64);
    }
    h.finish()
}

/// Outputs and reports pinned to values recorded before the 1D, 2D and 3D
/// sweeps shared one row engine: per case, the hash of the output's padded
/// storage and the bits of the report's `time_s`. The bit-identity tests
/// compare the schedule with the emulation inside one build; these hold
/// both to the recorded values. Identical in debug and release.
#[test]
fn outputs_and_reports_keep_their_golden_hashes() {
    let dev = GpuDevice::a100();
    let pin = |what: String, padded: &[f32], report: KernelReport, want: (u64, u64)| {
        assert_eq!((hash(padded), report.time_s().to_bits()), want, "{what}");
    };
    let run_2d = |mode, kernel: &StencilKernel, mut g: Grid2D<f32>, steps| {
        let plan = SpiderPlan::compile(kernel).unwrap();
        let report = SpiderExecutor::new(&dev, mode)
            .run_2d(&plan, &mut g, steps)
            .unwrap();
        (g, report)
    };
    let run_1d = |mode, kernel: &StencilKernel, mut g: Grid1D<f32>, steps| {
        let plan = SpiderPlan::compile(kernel).unwrap();
        let report = SpiderExecutor::new(&dev, mode)
            .run_1d(&plan, &mut g, steps)
            .unwrap();
        (g, report)
    };
    let run_3d = |mode, kernel: &Kernel3D, mut g: Grid3D<f32>, steps| {
        let plan = Spider3DPlan::compile(kernel).unwrap();
        let report = Spider3DExecutor::new(&dev, mode)
            .run(&plan, &mut g, steps)
            .unwrap();
        (g, report)
    };

    let box2 = StencilKernel::random(StencilShape::box_2d(2), 5);
    let line = StencilKernel::random(StencilShape::d1(3), 6);
    let wants_2d = [
        (0xd9fb5c1bee736df5, 0x3ee623bb752e8865),
        (0x47b85b00ee7fdad5, 0x3ee351b30c292a54),
        (0x47b85b00ee7fdad5, 0x3ee2ec9d63db9d29),
    ];
    let wants_1d = [
        (0x1a9a2337435f156b, 0x3ee1575fb5b7005d),
        (0x1a9a2337435f156b, 0x3ee1574bc3a622c4),
        (0x1a9a2337435f156b, 0x3ee1574bc3a622c4),
    ];
    for (i, mode) in MODES.into_iter().enumerate() {
        let (g, r) = run_2d(mode, &box2, Grid2D::random(37, 53, 2, 0xC0FFEE), 2);
        pin(format!("2D {mode:?}"), g.padded(), r, wants_2d[i]);
        let (g, r) = run_1d(mode, &line, Grid1D::random(1001, 3, 7), 2);
        pin(format!("1D {mode:?}"), g.padded(), r, wants_1d[i]);
    }

    let volumes = [
        (
            Kernel3D::random_box(1, 41),
            (4, 9, 13),
            [
                (0x82cb2c151cadf1d9, 0x3ee5865a064a5ce4),
                (0x82cb2c151cadf1d9, 0x3ee2ab4b1bf4eda6),
                (0x82cb2c151cadf1d9, 0x3ee249d1a76100f3),
            ],
        ),
        (
            Kernel3D::random_box(2, 42),
            (3, 11, 17),
            [
                (0x2f7d6e7e45321eff, 0x3ee8ed8788347064),
                (0x76539ad7063c0e3f, 0x3ee42b1956fb61a7),
                (0x76539ad7063c0e3f, 0x3ee38084caf8836e),
            ],
        ),
        (
            Kernel3D::star_7point(-6.0, 1.0),
            (6, 8, 19),
            [
                (0xb943b413334f4819, 0x3ee36fc3eaef16bf),
                (0xb943b413334f4819, 0x3ee1d99f2fdc11d5),
                (0xb943b413334f4819, 0x3ee1a8e275921b7c),
            ],
        ),
    ];
    for (kernel, (p, r, c), wants) in &volumes {
        for (mode, want) in MODES.into_iter().zip(wants) {
            let g = Grid3D::random(*p, *r, *c, kernel.radius(), 9);
            let (g, report) = run_3d(mode, kernel, g, 2);
            pin(
                format!("3D {p}x{r}x{c} {mode:?}"),
                g.padded(),
                report,
                *want,
            );
        }
    }

    let opt = ExecMode::SparseTcOptimized;
    let mut g = Grid3D::random(6, 20, 21, 1, 52);
    g.set(2, 5, 9, f32::INFINITY);
    let (g, r) = run_3d(opt, &Kernel3D::random_box(1, 51), g, 2);
    let want = (0xeab973a19ce9643f, 0x3ee2a227b9070f75);
    pin("3D non-finite".into(), g.padded(), r, want);

    // Sweeps large enough to split into jobs on a multi-core host.
    let (g, r) = run_2d(
        opt,
        &StencilKernel::heat_2d(0.1),
        Grid2D::random(600, 1000, 1, 80),
        1,
    );
    let want = (0x87bd8e13d6fe3c50, 0x3ed6d9d6b3d0756b);
    pin("2D split".into(), g.padded(), r, want);
    let (g, r) = run_1d(
        opt,
        &StencilKernel::wave_1d(2),
        Grid1D::random(1 << 19, 2, 81),
        1,
    );
    let want = (0xb06473cdadeba03e, 0x3ed5573be1d14fb2);
    pin("1D split".into(), g.padded(), r, want);
    let (g, r) = run_3d(
        opt,
        &Kernel3D::random_box(1, 9),
        Grid3D::random(8, 128, 128, 1, 10),
        1,
    );
    let want = (0x81772ebd9b93c204, 0x3ed53df2af599f11);
    pin("3D split".into(), g.padded(), r, want);
}

/// A volume whose kernel has one non-zero slice still sums its rows from
/// +0: each output here is a tiny sum that quantizes to ±0, and a −0 slice
/// output must come out as `+0 + (−0)`, which is +0.
#[test]
fn one_slice_volume_sums_from_positive_zero() {
    let kernel = Kernel3D::from_fn(1, |dz, dx, dy| match (dz, dx, dy) {
        (0, 0, 0) => -1e-3,
        (0, 0, 1) => 2e-3,
        _ => 0.0,
    });
    let plan = Spider3DPlan::compile(&kernel).unwrap();
    assert_eq!(plan.slices().len(), 1);
    let grid = Grid3D::<f32>::from_fn(3, 5, 20, 1, |_, _, _| 1e-5);
    let dev = GpuDevice::a100();
    let exec = Spider3DExecutor::new(&dev, ExecMode::SparseTcOptimized);
    let (mut fast, mut reference) = (grid.clone(), grid);
    exec.run(&plan, &mut fast, 1).unwrap();
    exec.run_emulated(&plan, &mut reference, 1).unwrap();
    assert!(
        fast.padded().iter().all(|v| v.to_bits() == 0),
        "every value is +0"
    );
    assert_eq!(bits(fast.padded()), bits(reference.padded()));
}

struct Collect(Vec<KernelReport>);

impl BatchFeedback for Collect {
    fn on_grid_done(&mut self, _index: usize, report: &KernelReport) {
        self.0.push(report.clone());
    }
}

/// The coalesced batch models one shared launch per step: per-member
/// counters match the solo runs bit for bit, while the members' summed
/// launch overhead equals a single solo launch (per step) and the batched
/// time beats running the members back to back.
#[test]
fn coalesced_batch_amortizes_launch_but_keeps_counters() {
    let dev = GpuDevice::a100();
    let kernel = StencilKernel::random(StencilShape::box_2d(2), 55);
    let plan = SpiderPlan::compile(&kernel).unwrap();
    let exec = SpiderExecutor::new(&dev, ExecMode::SparseTcOptimized);
    let steps = 2;
    let inputs: Vec<Grid2D<f32>> = (0..4)
        .map(|s| Grid2D::random(40 + s, 56, 2, 60 + s as u64))
        .collect();
    let mut solo = inputs.clone();
    let mut solo_reports = Vec::new();
    for g in &mut solo {
        solo_reports.push(exec.run_2d(&plan, g, steps).unwrap());
    }
    let mut grids = inputs;
    let mut fb = Collect(Vec::new());
    exec.run_2d_coalesced(&plan, &mut grids, steps, &mut fb)
        .unwrap();
    let launch_one = dev.specs().launch_overhead_s;
    let mut batched_launch_total = 0.0;
    for ((got, want), (bg, sg)) in fb.0.iter().zip(&solo_reports).zip(grids.iter().zip(&solo)) {
        assert_eq!(bg.padded(), sg.padded(), "grid data must be bit-identical");
        assert_eq!(got.counters, want.counters, "counters stay per-member");
        assert_eq!(got.points, want.points);
        assert!(
            got.time_s() < want.time_s(),
            "batching must not slow a member"
        );
        batched_launch_total += got.breakdown.launch_s;
    }
    // 4 members × 2 steps sharing one launch per step = 2 solo launches.
    assert!((batched_launch_total - steps as f64 * launch_one).abs() < 1e-12);
    let solo_total: f64 = solo_reports.iter().map(|r| r.time_s()).sum();
    let batched_total: f64 = fb.0.iter().map(|r| r.time_s()).sum();
    assert!(
        batched_total < solo_total,
        "batched {batched_total} vs solo {solo_total}"
    );
}

/// Steady-state no-allocation: after the first (warmup) run, every scratch
/// acquisition is a pool hit; the miss counter freezes. The grid overflows
/// FP16 on the fourth run, so the emulated fallback must not allocate
/// scratch either.
#[test]
fn pool_reaches_steady_state_after_warmup() {
    let dev = GpuDevice::a100();
    let kernel = StencilKernel::random(StencilShape::box_2d(2), 77);
    let plan = SpiderPlan::compile(&kernel).unwrap();
    let exec = SpiderExecutor::new(&dev, ExecMode::SparseTcOptimized);
    let mut grid = Grid2D::<f32>::random(96, 128, 2, 78);
    exec.run_2d(&plan, &mut grid, 2).unwrap(); // warmup populates the pool
    let warm = exec.pool().stats();
    assert!(warm.misses > 0, "warmup allocates the working set");
    for _ in 0..3 {
        exec.run_2d(&plan, &mut grid, 2).unwrap();
    }
    let steady = exec.pool().stats();
    assert_eq!(
        steady.misses, warm.misses,
        "steady-state runs must not allocate scratch"
    );
    assert!(steady.hits > warm.hits, "steady-state runs hit the pool");
}

/// The runtime shares one pool across executors, so buffer reuse survives
/// *across requests*: a second identical batch adds hits but no misses.
#[test]
fn runtime_pool_survives_across_requests() {
    let rt = SpiderRuntime::with_defaults(GpuDevice::a100());
    // Distinct steps ⇒ distinct exec keys ⇒ one subgroup per request, and
    // a batch's grids sweep one after another, so the pool's take/put
    // sequence is the same in both batches.
    let batch: Vec<StencilRequest> = (0..3)
        .map(|i| {
            StencilRequest::new_2d(i, StencilKernel::gaussian_2d(2), 96, 128)
                .with_seed(i)
                .with_steps(i as usize + 1)
        })
        .collect();
    let first = rt.run_batch(&batch);
    assert!(first.failures.is_empty());
    let warm = rt.pool_stats();
    let second = rt.run_batch(&batch);
    assert!(second.failures.is_empty());
    let steady = rt.pool_stats();
    assert_eq!(
        steady.misses, warm.misses,
        "second batch must be allocation-free"
    );
    assert!(steady.hits > warm.hits);
}
