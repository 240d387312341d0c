//! Serving-side request and grid descriptors.

use std::time::{Duration, Instant};

use spider_core::{BufferPool, ExecMode};
use spider_stencil::dim3::{Grid3D, Kernel3D};
use spider_stencil::{Grid1D, Grid2D, StencilKernel};

/// Scheduling priority of a request. Only the async scheduler consults it —
/// the blocking [`crate::SpiderRuntime::run_batch`] path executes everything
/// it is handed regardless.
///
/// The numeric levels double as the aging lattice: a queued request's
/// *effective* priority is its base level plus one per elapsed aging step,
/// capped at [`Priority::High`], so starved low-priority work eventually
/// competes at the top (ties broken oldest-first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    Low,
    #[default]
    Normal,
    High,
}

impl Priority {
    /// Numeric level (`Low` = 0 … `High` = 2) used by priority aging.
    pub fn level(self) -> u8 {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }

    /// The priority at numeric `level`, saturating at [`Priority::High`].
    pub fn from_level(level: u8) -> Self {
        match level {
            0 => Priority::Low,
            1 => Priority::Normal,
            _ => Priority::High,
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Priority::Low => write!(f, "low"),
            Priority::Normal => write!(f, "normal"),
            Priority::High => write!(f, "high"),
        }
    }
}

/// Identity of the tenant a request is submitted on behalf of.
///
/// Tenancy is a *scheduling* concept: the scheduler's weighted-fair
/// dispatcher, admission quotas and per-tenant counters key on it, but —
/// like [`Priority`] and [`Deadline`] — it never leaks into
/// [`StencilRequest::plan_key`] or [`StencilRequest::exec_key`], so two
/// tenants running the same kernel share one compiled plan.
///
/// `TenantId::default()` is [`TenantId::ANONYMOUS`] (id 0): traffic that
/// never mentions tenancy behaves exactly as before this type existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(u64);

impl TenantId {
    /// The implicit tenant of tenant-unaware callers (id 0).
    pub const ANONYMOUS: TenantId = TenantId(0);

    pub const fn new(id: u64) -> Self {
        Self(id)
    }

    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Whether this is the implicit anonymous tenant.
    pub fn is_anonymous(self) -> bool {
        self.0 == 0
    }

    /// Stable label for reports and telemetry exports (`tenant="…"`).
    pub fn label(self) -> String {
        if self.is_anonymous() {
            "anonymous".into()
        } else {
            format!("tenant-{}", self.0)
        }
    }
}

impl From<u64> for TenantId {
    fn from(id: u64) -> Self {
        Self(id)
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Absolute completion deadline for a request.
///
/// A request whose deadline has passed when the scheduler would dispatch it
/// (or when it is polled while still queued) completes as
/// [`crate::RequestStatus::Expired`] *without executing* — no plan compile,
/// no tuning, no simulated sweeps — and the drain report counts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// Deadline at an absolute instant.
    pub fn at(at: Instant) -> Self {
        Self { at }
    }

    /// Deadline `budget` from now (`Duration::ZERO` = already expired — the
    /// deterministic way to exercise the expiry path in tests and demos).
    pub fn within(budget: Duration) -> Self {
        Self {
            at: Instant::now() + budget,
        }
    }

    /// The absolute instant after which the request must not execute.
    pub fn instant(&self) -> Instant {
        self.at
    }

    /// Whether the deadline has passed as of `now`.
    pub fn is_expired_at(&self, now: Instant) -> bool {
        now >= self.at
    }
}

/// The grid a request sweeps over. Requests describe grids by extent + seed
/// rather than carrying data so a queue of millions stays cheap to hold;
/// materialization happens on the thread that executes the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GridSpec {
    /// A 1D line of `len` points.
    D1 { len: usize },
    /// A 2D `rows × cols` plane.
    D2 { rows: usize, cols: usize },
    /// A 3D `planes × rows × cols` volume, served as per-step waves of 2D
    /// plane sweeps (`spider_core::exec3d`).
    D3 {
        planes: usize,
        rows: usize,
        cols: usize,
    },
}

impl GridSpec {
    /// Stencil points updated per sweep.
    pub fn points(&self) -> u64 {
        match *self {
            GridSpec::D1 { len } => len as u64,
            GridSpec::D2 { rows, cols } => (rows * cols) as u64,
            GridSpec::D3 { planes, rows, cols } => (planes * rows * cols) as u64,
        }
    }

    /// Human-readable extent, e.g. `4096x2048`, `1048576` or `8x256x256`.
    pub fn extent_label(&self) -> String {
        match *self {
            GridSpec::D1 { len } => format!("{len}"),
            GridSpec::D2 { rows, cols } => format!("{rows}x{cols}"),
            GridSpec::D3 { planes, rows, cols } => format!("{planes}x{rows}x{cols}"),
        }
    }
}

/// The stencil a request applies: a planar (1D/2D) kernel served through
/// [`spider_core::plan::SpiderPlan`], or a volumetric (3D) kernel served
/// through [`spider_core::exec3d::Spider3DPlan`]'s plane decomposition.
/// Both carry stable content fingerprints, so either kind addresses the
/// plan cache and the cluster router the same way.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestKernel {
    Planar(StencilKernel),
    Volumetric(Kernel3D),
}

impl RequestKernel {
    /// Stable content fingerprint ([`StencilKernel::fingerprint`] /
    /// [`Kernel3D::fingerprint`] — the two spaces are tag-disjoint).
    pub fn fingerprint(&self) -> u64 {
        match self {
            RequestKernel::Planar(k) => k.fingerprint(),
            RequestKernel::Volumetric(k) => k.fingerprint(),
        }
    }

    /// Stencil radius.
    pub fn radius(&self) -> usize {
        match self {
            RequestKernel::Planar(k) => k.radius(),
            RequestKernel::Volumetric(k) => k.radius(),
        }
    }

    /// Grid dimensionality this kernel applies to (1, 2 or 3).
    pub fn dim_rank(&self) -> u8 {
        match self {
            RequestKernel::Planar(k) => k.shape().dim.rank() as u8,
            RequestKernel::Volumetric(_) => 3,
        }
    }

    /// Shape label for scenario strings, e.g. `Box-2D2R` or `Box-3D1R`.
    pub fn name(&self) -> String {
        match self {
            RequestKernel::Planar(k) => k.shape().name(),
            RequestKernel::Volumetric(k) => k.name(),
        }
    }

    /// The planar kernel, if this is a 1D/2D request.
    pub fn as_planar(&self) -> Option<&StencilKernel> {
        match self {
            RequestKernel::Planar(k) => Some(k),
            RequestKernel::Volumetric(_) => None,
        }
    }

    /// The volumetric kernel, if this is a 3D request.
    pub fn as_volumetric(&self) -> Option<&Kernel3D> {
        match self {
            RequestKernel::Planar(_) => None,
            RequestKernel::Volumetric(k) => Some(k),
        }
    }
}

impl From<StencilKernel> for RequestKernel {
    fn from(k: StencilKernel) -> Self {
        RequestKernel::Planar(k)
    }
}

impl From<Kernel3D> for RequestKernel {
    fn from(k: Kernel3D) -> Self {
        RequestKernel::Volumetric(k)
    }
}

/// One unit of serving work: apply `steps` sweeps of `kernel` to a grid.
///
/// Two requests with equal kernels and modes share a compiled plan (and a
/// tuned tiling when their grids match) — the property the batched scheduler
/// exploits by grouping on [`StencilRequest::plan_key`].
#[derive(Debug, Clone)]
pub struct StencilRequest {
    /// Caller-chosen identifier, echoed in the outcome.
    pub id: u64,
    pub kernel: RequestKernel,
    pub grid: GridSpec,
    /// Number of sweeps (≥ 1).
    pub steps: usize,
    /// Which executor arm to run (production serving uses the optimized arm;
    /// the ablation arms stay available for measurement traffic).
    pub mode: ExecMode,
    /// Seed for the deterministic initial grid contents.
    pub seed: u64,
    /// Scheduling priority (async scheduler only; see [`Priority`]).
    pub priority: Priority,
    /// Optional completion deadline (async scheduler only; see [`Deadline`]).
    pub deadline: Option<Deadline>,
    /// The tenant this request is billed to (serving layers only; see
    /// [`TenantId`]). Defaults to [`TenantId::ANONYMOUS`].
    pub tenant: TenantId,
    /// Device-loss retry attempt (0 = first life). Stamped by the cluster's
    /// recovery path when it re-routes an in-flight casualty, and carried
    /// onto lifecycle events so retried requests keep one chained timeline.
    /// Never part of [`StencilRequest::plan_key`] or
    /// [`StencilRequest::exec_key`] — a retry reuses its plan and tiling.
    pub attempt: u32,
}

impl StencilRequest {
    /// A request from its identity triple — id, kernel (planar or
    /// volumetric) and grid — with serving defaults for every optional
    /// knob, which the `with_*` methods set: one sweep, the optimized
    /// sparse arm, `seed = id`, normal priority, no deadline, anonymous
    /// tenant.
    ///
    /// ```
    /// # use spider_runtime::{GridSpec, StencilRequest, Priority, TenantId};
    /// # use spider_stencil::StencilKernel;
    /// let req = StencilRequest::new(7, StencilKernel::jacobi_2d(), GridSpec::D2 { rows: 64, cols: 64 })
    ///     .with_tenant(TenantId::new(3))
    ///     .with_priority(Priority::High)
    ///     .with_steps(2);
    /// assert_eq!(req.tenant, TenantId::new(3));
    /// ```
    pub fn new(id: u64, kernel: impl Into<RequestKernel>, grid: GridSpec) -> Self {
        Self {
            id,
            kernel: kernel.into(),
            grid,
            steps: 1,
            mode: ExecMode::SparseTcOptimized,
            seed: id,
            priority: Priority::Normal,
            deadline: None,
            tenant: TenantId::ANONYMOUS,
            attempt: 0,
        }
    }

    /// A 2D request with serving defaults: one sweep, optimized sparse arm.
    pub fn new_2d(id: u64, kernel: StencilKernel, rows: usize, cols: usize) -> Self {
        Self::new(id, kernel, GridSpec::D2 { rows, cols })
    }

    /// A 1D request with serving defaults.
    pub fn new_1d(id: u64, kernel: StencilKernel, len: usize) -> Self {
        Self::new(id, kernel, GridSpec::D1 { len })
    }

    /// A 3D (volumetric) request with serving defaults. Served through the
    /// plane decomposition: each sweep runs as one batched-launch wave of
    /// per-plane 2D stencils, all sharing one cached
    /// [`spider_core::exec3d::Spider3DPlan`].
    pub fn new_3d(id: u64, kernel: Kernel3D, planes: usize, rows: usize, cols: usize) -> Self {
        Self::new(id, kernel, GridSpec::D3 { planes, rows, cols })
    }

    pub fn with_steps(mut self, steps: usize) -> Self {
        assert!(steps >= 1, "a request must run at least one sweep");
        self.steps = steps;
        self
    }

    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    pub fn with_tenant(mut self, tenant: impl Into<TenantId>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// The plan-cache key this request resolves to: the kernel's content
    /// fingerprint, the execution-mode tag and the kernel's dimensionality
    /// folded through full multiply-then-xor FNV-1a rounds (the cache
    /// stores one entry per (coefficients, shape, mode, dimensionality) as
    /// the runtime's unit of reuse).
    ///
    /// Every input gets its own byte-wise FNV rounds. An earlier scheme
    /// XORed the mode tag into the fingerprint *before* a single multiply,
    /// which made any two kernels whose fingerprints differ by the XOR of
    /// two mode tags collide across modes — e.g. `f` in `DenseTc` (0xD1)
    /// and `f ^ 0x80` in `SparseTc` (0x51) mapped to one key and would have
    /// served each other's plans. The regression test below pins the fix.
    pub fn plan_key(&self) -> u64 {
        Self::mix_plan_key(
            self.kernel.fingerprint(),
            Self::mode_tag(self.mode),
            self.kernel.dim_rank() as u64,
        )
    }

    /// FNV-1a over the little-endian bytes of each input word in turn —
    /// full per-byte rounds, so no pair of inputs can cancel.
    fn mix_plan_key(fingerprint: u64, mode_tag: u64, dim_tag: u64) -> u64 {
        let mut h = spider_stencil::fnv::Fnv1a::new();
        for word in [fingerprint, mode_tag, dim_tag] {
            h.word(word);
        }
        h.finish()
    }

    /// Within a plan-key group, requests with equal exec keys (grid extent,
    /// mode, sweep count) share one tuned tiling and therefore one configured
    /// executor — the unit of coalescing in
    /// [`crate::SpiderRuntime::run_group`].
    pub fn exec_key(&self) -> (GridSpec, u64, usize) {
        (self.grid, Self::mode_tag(self.mode), self.steps)
    }

    fn mode_tag(mode: ExecMode) -> u64 {
        match mode {
            ExecMode::DenseTc => 0xD1,
            ExecMode::SparseTc => 0x51,
            ExecMode::SparseTcOptimized => 0x50,
        }
    }

    /// Scenario label for reports, e.g. `Box-2D2R@4096x2048` or
    /// `Box-3D1R@8x256x256`.
    pub fn scenario(&self) -> String {
        format!("{}@{}", self.kernel.name(), self.grid.extent_label())
    }

    /// Whether the request's grid dimensionality matches its kernel's.
    pub fn dims_consistent(&self) -> bool {
        let grid_rank = match self.grid {
            GridSpec::D1 { .. } => 1u8,
            GridSpec::D2 { .. } => 2,
            GridSpec::D3 { .. } => 3,
        };
        grid_rank == self.kernel.dim_rank()
    }

    /// Whether this is a 3D (volumetric) request.
    pub fn is_volumetric(&self) -> bool {
        matches!(self.grid, GridSpec::D3 { .. })
    }

    /// Materialize the deterministic input grid for a 1D request.
    pub fn materialize_1d(&self) -> Grid1D<f32> {
        self.materialize_1d_in(&BufferPool::new())
    }

    /// Materialize the deterministic input grid for a 2D request.
    pub fn materialize_2d(&self) -> Grid2D<f32> {
        self.materialize_2d_in(&BufferPool::new())
    }

    /// Materialize the deterministic input volume for a 3D request.
    pub fn materialize_3d(&self) -> Grid3D<f32> {
        self.materialize_3d_in(&BufferPool::new())
    }

    /// [`Self::materialize_1d`] in a buffer taken from `pool` (the same
    /// grid, bit for bit): the serving path, which returns the buffer once
    /// the output is checksummed.
    pub(crate) fn materialize_1d_in(&self, pool: &BufferPool) -> Grid1D<f32> {
        let h = self.kernel.radius();
        match self.grid {
            GridSpec::D1 { len } => {
                Grid1D::random_in(pool.take_any(len + 2 * h), len, h, self.seed)
            }
            _ => panic!("materialize_1d on a non-1D request"),
        }
    }

    /// [`Self::materialize_2d`] in a buffer taken from `pool`.
    pub(crate) fn materialize_2d_in(&self, pool: &BufferPool) -> Grid2D<f32> {
        let h = self.kernel.radius();
        match self.grid {
            GridSpec::D2 { rows, cols } => {
                let buf = pool.take_any((rows + 2 * h) * (cols + 2 * h));
                Grid2D::random_in(buf, rows, cols, h, self.seed)
            }
            _ => panic!("materialize_2d on a non-2D request"),
        }
    }

    /// [`Self::materialize_3d`] in a buffer taken from `pool`.
    pub(crate) fn materialize_3d_in(&self, pool: &BufferPool) -> Grid3D<f32> {
        let h = self.kernel.radius();
        match self.grid {
            GridSpec::D3 { planes, rows, cols } => {
                let buf = pool.take_any((planes + 2 * h) * (rows + 2 * h) * (cols + 2 * h));
                Grid3D::random_in(buf, planes, rows, cols, h, self.seed)
            }
            _ => panic!("materialize_3d on a non-3D request"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_stencil::StencilShape;

    #[test]
    fn plan_key_groups_by_kernel_and_mode() {
        let k = StencilKernel::gaussian_2d(1);
        let a = StencilRequest::new_2d(1, k.clone(), 256, 256);
        let b = StencilRequest::new_2d(2, k.clone(), 512, 128); // different grid
        assert_eq!(a.plan_key(), b.plan_key(), "grid must not affect the key");
        // Two tenants running one kernel share one plan and one executor.
        let tenanted = a.clone().with_tenant(42);
        assert_eq!(
            a.plan_key(),
            tenanted.plan_key(),
            "tenant must not affect the key"
        );
        assert_eq!(a.exec_key(), tenanted.exec_key());
        let c = StencilRequest::new_2d(3, k, 256, 256).with_mode(ExecMode::DenseTc);
        assert_ne!(a.plan_key(), c.plan_key(), "mode must affect the key");
        let d = StencilRequest::new_2d(
            4,
            StencilKernel::random(StencilShape::box_2d(1), 9),
            256,
            256,
        );
        assert_ne!(
            a.plan_key(),
            d.plan_key(),
            "coefficients must affect the key"
        );
    }

    #[test]
    fn materialization_is_deterministic() {
        let k = StencilKernel::jacobi_2d();
        let r = StencilRequest::new_2d(7, k, 64, 48).with_seed(123);
        let a = r.materialize_2d();
        let b = r.materialize_2d();
        assert_eq!(a.padded(), b.padded());
        assert_eq!(a.halo(), 1);
    }

    #[test]
    fn dims_consistency() {
        let k1 = StencilKernel::wave_1d(2);
        let k2 = StencilKernel::jacobi_2d();
        assert!(StencilRequest::new_1d(1, k1.clone(), 1000).dims_consistent());
        assert!(!StencilRequest::new_2d(2, k1.clone(), 32, 32).dims_consistent());
        assert!(StencilRequest::new_2d(3, k2, 32, 32).dims_consistent());
        let k3 = Kernel3D::random_box(1, 5);
        assert!(StencilRequest::new_3d(4, k3.clone(), 4, 32, 32).dims_consistent());
        // A volumetric kernel on a planar grid is inconsistent, and so is
        // a planar kernel on a volume.
        let mut wrong = StencilRequest::new_3d(5, k3, 4, 32, 32);
        wrong.grid = GridSpec::D2 { rows: 32, cols: 32 };
        assert!(!wrong.dims_consistent());
        let mut wrong2 = StencilRequest::new_1d(6, StencilKernel::wave_1d(1), 100);
        wrong2.grid = GridSpec::D3 {
            planes: 2,
            rows: 8,
            cols: 8,
        };
        assert!(!wrong2.dims_consistent());
    }

    #[test]
    fn volumetric_requests_are_first_class() {
        let k = Kernel3D::random_box(1, 9);
        let a = StencilRequest::new_3d(1, k.clone(), 6, 48, 64).with_seed(3);
        assert!(a.is_volumetric());
        assert_eq!(a.scenario(), "Box-3D1R@6x48x64");
        assert_eq!(a.grid.points(), 6 * 48 * 64);
        // Plan key is grid-independent but kernel/mode-bound, like 2D.
        let b = StencilRequest::new_3d(2, k.clone(), 3, 96, 32);
        assert_eq!(a.plan_key(), b.plan_key(), "grid must not affect the key");
        let c = StencilRequest::new_3d(3, k.clone(), 6, 48, 64).with_mode(ExecMode::DenseTc);
        assert_ne!(a.plan_key(), c.plan_key(), "mode must affect the key");
        let d = StencilRequest::new_3d(4, Kernel3D::random_box(1, 10), 6, 48, 64);
        assert_ne!(a.plan_key(), d.plan_key(), "coefficients must affect it");
        // Deterministic materialization.
        assert_eq!(a.materialize_3d().padded(), a.materialize_3d().padded());
        assert_eq!(a.materialize_3d().halo(), 1);
        // Exec keys split volumes from planes of equal extent products.
        let plane = StencilRequest::new_2d(5, StencilKernel::jacobi_2d(), 48, 64);
        assert_ne!(a.exec_key().0, plane.exec_key().0);
    }

    /// Regression for the pre-fix key mixing: `key = (f ^ mode_tag) * P`
    /// collides whenever two fingerprints differ by the XOR of two mode
    /// tags (DenseTc 0xD1 vs SparseTc 0x51 differ by 0x80). The fixed
    /// multiply-then-xor rounds must separate every such pair, and the
    /// dimensionality tag must separate planar from volumetric kernels
    /// even at equal fingerprints.
    #[test]
    fn plan_key_mixing_has_no_mode_xor_collisions() {
        let old_scheme = |f: u64, tag: u64| (f ^ tag).wrapping_mul(0x100000001b3u64);
        for f in [0u64, 1, 0xdead_beef, 0x1234_5678_9abc_def0, u64::MAX] {
            // The old scheme demonstrably collides on these pairs...
            assert_eq!(old_scheme(f, 0xD1), old_scheme(f ^ 0x80, 0x51));
            // ...the fixed mixing does not.
            assert_ne!(
                StencilRequest::mix_plan_key(f, 0xD1, 2),
                StencilRequest::mix_plan_key(f ^ 0x80, 0x51, 2),
                "mode-tag XOR collision survived for f = {f:#x}"
            );
            // Dimensionality separates keys at equal fingerprint + mode.
            assert_ne!(
                StencilRequest::mix_plan_key(f, 0x50, 2),
                StencilRequest::mix_plan_key(f, 0x50, 3),
                "dim tag ignored for f = {f:#x}"
            );
        }
    }

    #[test]
    fn priority_lattice_round_trips_and_orders() {
        assert!(Priority::High > Priority::Normal && Priority::Normal > Priority::Low);
        for p in [Priority::Low, Priority::Normal, Priority::High] {
            assert_eq!(Priority::from_level(p.level()), p);
        }
        // Aging saturates at High.
        assert_eq!(Priority::from_level(9), Priority::High);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn deadlines_expire_exactly_at_their_instant() {
        let now = Instant::now();
        let d = Deadline::at(now + Duration::from_secs(3600));
        assert!(!d.is_expired_at(now));
        assert!(d.is_expired_at(now + Duration::from_secs(3600)));
        assert!(Deadline::within(Duration::ZERO).is_expired_at(Instant::now()));
        // Priority/deadline must not leak into the plan identity.
        let k = StencilKernel::jacobi_2d();
        let plain = StencilRequest::new_2d(1, k.clone(), 64, 64);
        let urgent = StencilRequest::new_2d(1, k, 64, 64)
            .with_priority(Priority::High)
            .with_deadline(Deadline::within(Duration::from_secs(1)));
        assert_eq!(plain.plan_key(), urgent.plan_key());
        assert_eq!(plain.exec_key(), urgent.exec_key());
    }

    #[test]
    fn builder_matches_the_thin_constructors() {
        let plain = StencilRequest::new(1, StencilKernel::jacobi_2d(), GridSpec::D1 { len: 128 });
        let thin = StencilRequest::new_1d(1, StencilKernel::jacobi_2d(), 128);
        assert_eq!(plain.plan_key(), thin.plan_key());
        assert_eq!(plain.exec_key(), thin.exec_key());
        // `new`'s defaults are the serving defaults.
        assert_eq!(plain.steps, 1);
        assert_eq!(plain.mode, ExecMode::SparseTcOptimized);
        assert_eq!(plain.seed, 1);
        assert_eq!(plain.priority, Priority::Normal);
        assert!(plain.deadline.is_none());
        assert_eq!(plain.tenant, TenantId::ANONYMOUS);
    }

    #[test]
    fn tenant_ids_label_and_default_sanely() {
        assert_eq!(TenantId::default(), TenantId::ANONYMOUS);
        assert!(TenantId::ANONYMOUS.is_anonymous());
        assert_eq!(TenantId::ANONYMOUS.label(), "anonymous");
        let t = TenantId::new(12);
        assert!(!t.is_anonymous());
        assert_eq!(t.label(), "tenant-12");
        assert_eq!(t.as_u64(), 12);
        assert_eq!(TenantId::from(12u64), t);
        assert_eq!(format!("{t}"), "tenant-12");
    }

    #[test]
    fn exec_keys_split_on_grid_mode_and_steps() {
        let k = StencilKernel::gaussian_2d(1);
        let base = StencilRequest::new_2d(1, k.clone(), 128, 128);
        assert_eq!(
            base.exec_key(),
            StencilRequest::new_2d(2, k.clone(), 128, 128).exec_key()
        );
        assert_ne!(
            base.exec_key(),
            StencilRequest::new_2d(3, k.clone(), 128, 64).exec_key()
        );
        assert_ne!(
            base.exec_key(),
            StencilRequest::new_2d(4, k.clone(), 128, 128)
                .with_mode(ExecMode::DenseTc)
                .exec_key()
        );
        assert_ne!(
            base.exec_key(),
            StencilRequest::new_2d(5, k, 128, 128)
                .with_steps(3)
                .exec_key()
        );
    }

    #[test]
    fn scenario_labels() {
        let r = StencilRequest::new_2d(1, StencilKernel::gaussian_2d(2), 1024, 512);
        assert_eq!(r.scenario(), "Box-2D2R@1024x512");
        assert_eq!(r.grid.points(), 1024 * 512);
    }
}
