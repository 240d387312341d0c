//! Performance counters collected during functional simulation.
//!
//! Counters are plain integers, merged with `+` across simulated thread
//! blocks (rayon reduction), and consumed by [`crate::timing`]. The fields
//! mirror what the paper measures: MMA operation counts (its computation
//! workload), global-memory transactions (its memory access volume, Table 2),
//! shared-memory bank conflicts and instruction counts (its Table 3).

use std::ops::{Add, AddAssign};

/// Aggregate event counts for one simulated kernel execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Dense FP16 `mma.m16n8k16` issues.
    pub mma_dense_f16: u64,
    /// Sparse FP16 `mma.sp.m16n8k16` issues.
    pub mma_sparse_f16: u64,
    /// Dense FP64 tensor-core MMA issues (`dmma.m8n8k4`-equivalent MACs are
    /// tracked via [`Self::MACS_PER_DMMA`]).
    pub mma_dense_f64: u64,
    /// Scalar FP32 fused multiply-adds on CUDA cores.
    pub cuda_fma_f32: u64,
    /// Scalar FP64 fused multiply-adds on CUDA cores.
    pub cuda_fma_f64: u64,

    /// Useful bytes read from global memory.
    pub gmem_read_bytes: u64,
    /// Useful bytes written to global memory.
    pub gmem_write_bytes: u64,
    /// 32-byte sectors touched by reads (>= ceil(bytes/32); the gap is
    /// coalescing waste).
    pub gmem_read_sectors: u64,
    /// 32-byte sectors touched by writes.
    pub gmem_write_sectors: u64,

    /// Warp-level shared-memory read requests.
    pub smem_read_requests: u64,
    /// Warp-level shared-memory write requests.
    pub smem_write_requests: u64,
    /// Shared-memory waves actually serviced for reads (= requests when
    /// conflict-free; each extra wave is a bank conflict replay).
    pub smem_read_waves: u64,
    /// Shared-memory waves actually serviced for writes.
    pub smem_write_waves: u64,

    /// Dynamic instructions issued (memory + mma + address arithmetic), the
    /// paper's Table 3 "Instruction Counts" metric.
    pub instructions: u64,
}

impl PerfCounters {
    /// MACs performed by one `mma.m16n8k16`: 16·8·16.
    pub const MACS_PER_MMA_16816: u64 = 16 * 8 * 16;
    /// Effective MACs per FP64 DMMA issue we model (`m8n8k4`).
    pub const MACS_PER_DMMA: u64 = 8 * 8 * 4;

    pub fn new() -> Self {
        Self::default()
    }

    /// Record a warp global read of `bytes` useful bytes over `sectors`.
    pub fn gmem_read(&mut self, bytes: u64, sectors: u64) {
        self.gmem_read_bytes += bytes;
        self.gmem_read_sectors += sectors;
        self.instructions += 1;
    }

    /// Record a warp shared-memory read serviced in `waves` waves.
    pub fn smem_read(&mut self, waves: u64) {
        self.smem_read_requests += 1;
        self.smem_read_waves += waves;
        self.instructions += 1;
    }

    /// Record a warp shared-memory write serviced in `waves` waves.
    pub fn smem_write(&mut self, waves: u64) {
        self.smem_write_requests += 1;
        self.smem_write_waves += waves;
        self.instructions += 1;
    }

    /// Record one dense FP16 MMA issue.
    pub fn mma_dense(&mut self) {
        self.mma_dense_f16 += 1;
        self.instructions += 1;
    }

    /// Record one sparse FP16 MMA issue.
    pub fn mma_sparse(&mut self) {
        self.mma_sparse_f16 += 1;
        self.instructions += 1;
    }

    /// Record one dense FP64 tensor-core MMA issue.
    pub fn mma_dense_fp64(&mut self) {
        self.mma_dense_f64 += 1;
        self.instructions += 1;
    }

    /// Record `n` scalar FP32 FMAs (counted per warp by callers).
    pub fn fma_f32(&mut self, n: u64) {
        self.cuda_fma_f32 += n;
        self.instructions += n.div_ceil(32); // one warp instruction per 32 lanes
    }

    /// Record `n` generic non-memory, non-MMA instructions (address math…).
    pub fn alu(&mut self, n: u64) {
        self.instructions += n;
    }

    /// Total MACs routed through dense FP16 tensor cores.
    pub fn dense_tc_macs(&self) -> u64 {
        self.mma_dense_f16 * Self::MACS_PER_MMA_16816
    }

    /// Effective MACs routed through sparse tensor cores. One `mma.sp`
    /// performs the *useful* half of a 16x8x16 product, i.e. 1024 MACs of
    /// physical work standing in for 2048 dense MACs.
    pub fn sparse_tc_macs(&self) -> u64 {
        self.mma_sparse_f16 * Self::MACS_PER_MMA_16816 / 2
    }

    /// Total MACs routed through FP64 tensor cores.
    pub fn dense_tc_f64_macs(&self) -> u64 {
        self.mma_dense_f64 * Self::MACS_PER_DMMA
    }

    /// Total global traffic in transaction bytes (sectors x 32B).
    pub fn gmem_transaction_bytes(&self) -> u64 {
        (self.gmem_read_sectors + self.gmem_write_sectors) * 32
    }

    /// Read-coalescing efficiency: useful bytes / transferred bytes.
    pub fn gmem_read_efficiency(&self) -> f64 {
        if self.gmem_read_sectors == 0 {
            return 1.0;
        }
        self.gmem_read_bytes as f64 / (self.gmem_read_sectors * 32) as f64
    }

    /// Average shared-memory waves per request (1.0 = conflict-free).
    pub fn smem_conflict_factor(&self) -> f64 {
        let req = self.smem_read_requests + self.smem_write_requests;
        if req == 0 {
            return 1.0;
        }
        (self.smem_read_waves + self.smem_write_waves) as f64 / req as f64
    }
}

impl Add for PerfCounters {
    type Output = Self;

    fn add(self, rhs: Self) -> Self {
        Self {
            mma_dense_f16: self.mma_dense_f16 + rhs.mma_dense_f16,
            mma_sparse_f16: self.mma_sparse_f16 + rhs.mma_sparse_f16,
            mma_dense_f64: self.mma_dense_f64 + rhs.mma_dense_f64,
            cuda_fma_f32: self.cuda_fma_f32 + rhs.cuda_fma_f32,
            cuda_fma_f64: self.cuda_fma_f64 + rhs.cuda_fma_f64,
            gmem_read_bytes: self.gmem_read_bytes + rhs.gmem_read_bytes,
            gmem_write_bytes: self.gmem_write_bytes + rhs.gmem_write_bytes,
            gmem_read_sectors: self.gmem_read_sectors + rhs.gmem_read_sectors,
            gmem_write_sectors: self.gmem_write_sectors + rhs.gmem_write_sectors,
            smem_read_requests: self.smem_read_requests + rhs.smem_read_requests,
            smem_write_requests: self.smem_write_requests + rhs.smem_write_requests,
            smem_read_waves: self.smem_read_waves + rhs.smem_read_waves,
            smem_write_waves: self.smem_write_waves + rhs.smem_write_waves,
            instructions: self.instructions + rhs.instructions,
        }
    }
}

impl AddAssign for PerfCounters {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for PerfCounters {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| a + b)
    }
}

/// Scale per-point rates: multiply every counter by `num / den`, rounding to
/// nearest. Used to extrapolate counters measured on a reduced grid to the
/// paper's full problem sizes (rates per point are size-invariant up to halo
/// edge effects).
impl PerfCounters {
    pub fn scaled(&self, num: u64, den: u64) -> Self {
        let s = |v: u64| ((v as u128 * num as u128 + den as u128 / 2) / den as u128) as u64;
        Self {
            mma_dense_f16: s(self.mma_dense_f16),
            mma_sparse_f16: s(self.mma_sparse_f16),
            mma_dense_f64: s(self.mma_dense_f64),
            cuda_fma_f32: s(self.cuda_fma_f32),
            cuda_fma_f64: s(self.cuda_fma_f64),
            gmem_read_bytes: s(self.gmem_read_bytes),
            gmem_write_bytes: s(self.gmem_write_bytes),
            gmem_read_sectors: s(self.gmem_read_sectors),
            gmem_write_sectors: s(self.gmem_write_sectors),
            smem_read_requests: s(self.smem_read_requests),
            smem_write_requests: s(self.smem_write_requests),
            smem_read_waves: s(self.smem_read_waves),
            smem_write_waves: s(self.smem_write_waves),
            instructions: s(self.instructions),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_merges_fields() {
        let mut a = PerfCounters::new();
        a.mma_sparse();
        a.gmem_read(128, 4);
        let mut b = PerfCounters::new();
        b.mma_dense();
        b.gmem_read(64, 3);
        let c = a + b;
        assert_eq!(c.mma_sparse_f16, 1);
        assert_eq!(c.mma_dense_f16, 1);
        assert_eq!(c.gmem_read_bytes, 192);
        assert_eq!(c.gmem_read_sectors, 7);
        assert_eq!(c.instructions, 4);
    }

    #[test]
    fn sparse_macs_are_half_of_dense() {
        let mut c = PerfCounters::new();
        c.mma_dense();
        c.mma_sparse();
        assert_eq!(c.dense_tc_macs(), 2048);
        assert_eq!(c.sparse_tc_macs(), 1024);
    }

    #[test]
    fn coalescing_efficiency() {
        let mut c = PerfCounters::new();
        // 32 lanes x 4B contiguous = 128 useful bytes in 4 sectors: perfect.
        c.gmem_read(128, 4);
        assert_eq!(c.gmem_read_efficiency(), 1.0);
        // Strided: same bytes across 32 sectors.
        let mut d = PerfCounters::new();
        d.gmem_read(128, 32);
        assert!(d.gmem_read_efficiency() < 0.2);
    }

    #[test]
    fn conflict_factor() {
        let mut c = PerfCounters::new();
        c.smem_read(1);
        c.smem_read(3);
        assert_eq!(c.smem_conflict_factor(), 2.0);
    }

    #[test]
    fn scaled_extrapolates_linearly() {
        let mut c = PerfCounters::new();
        c.gmem_read(1000, 100);
        let big = c.scaled(16, 1);
        assert_eq!(big.gmem_read_bytes, 16_000);
        assert_eq!(big.gmem_read_sectors, 1600);
        let back = big.scaled(1, 16);
        assert_eq!(back.gmem_read_bytes, 1000);
    }

    #[test]
    fn sum_over_iterator() {
        let parts = vec![PerfCounters::new(); 5].into_iter().map(|mut p| {
            p.mma_sparse();
            p
        });
        let total: PerfCounters = parts.sum();
        assert_eq!(total.mma_sparse_f16, 5);
    }

    #[test]
    fn fma_counts_warp_instructions() {
        let mut c = PerfCounters::new();
        c.fma_f32(33);
        assert_eq!(c.cuda_fma_f32, 33);
        assert_eq!(c.instructions, 2); // ceil(33/32)
    }
}
