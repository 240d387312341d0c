//! Hardware constants for the simulated device.

/// Published device constants used by the timing model.
///
/// The defaults are the NVIDIA A100-80GB PCIe figures — the paper's
/// evaluation platform (§4.1): Ampere, 108 SMs @ 1.41 GHz, 1935 GB/s HBM2e,
/// 312 TFLOPS dense / 624 TFLOPS 2:4-sparse FP16 tensor core throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpecs {
    pub name: &'static str,
    pub sm_count: u32,
    pub clock_ghz: f64,
    /// Dense FP16 tensor-core throughput (FLOPs/s; one MAC = 2 FLOPs).
    pub dense_tc_fp16_flops: f64,
    /// 2:4-sparse FP16 tensor-core throughput (FLOPs/s).
    pub sparse_tc_fp16_flops: f64,
    /// FP64 tensor-core throughput (DMMA; ConvStencil's precision).
    pub dense_tc_fp64_flops: f64,
    /// CUDA-core FP32 FMA throughput (FLOPs/s).
    pub cuda_fp32_flops: f64,
    /// CUDA-core FP64 throughput (FLOPs/s).
    pub cuda_fp64_flops: f64,
    /// HBM bandwidth (bytes/s).
    pub hbm_bytes_per_s: f64,
    /// Shared-memory capacity per SM (bytes).
    pub smem_bytes_per_sm: u32,
    /// Shared-memory banks (4-byte wide each).
    pub smem_banks: u32,
    /// Kernel launch overhead (seconds) — the fixed cost whose diminishing
    /// share explains the paper's >plateau throughput creep (§4.3).
    pub launch_overhead_s: f64,
    /// Thread blocks per SM needed to reach peak throughput; below
    /// `sm_count * this`, the occupancy ramp derates all throughputs.
    pub blocks_per_sm_for_peak: u32,
    /// Achieved fraction of peak tensor-core throughput for kernels that
    /// interleave MMAs with memory traffic (stencil kernels never reach the
    /// back-to-back MMA issue rate of pure GEMMs; ~30% is typical for
    /// memory-interleaved mma pipelines).
    pub tc_utilization: f64,
}

impl GpuSpecs {
    /// The paper's platform: A100-80GB PCIe (Ampere GA100).
    pub fn a100_pcie_80gb() -> Self {
        Self {
            name: "NVIDIA A100-80GB PCIe (simulated)",
            sm_count: 108,
            clock_ghz: 1.41,
            dense_tc_fp16_flops: 312e12,
            sparse_tc_fp16_flops: 624e12,
            dense_tc_fp64_flops: 19.5e12,
            cuda_fp32_flops: 19.5e12,
            cuda_fp64_flops: 9.7e12,
            hbm_bytes_per_s: 1935e9,
            smem_bytes_per_sm: 164 * 1024,
            smem_banks: 32,
            launch_overhead_s: 4.0e-6,
            blocks_per_sm_for_peak: 2,
            tc_utilization: 0.30,
        }
    }

    /// Aggregate shared-memory bandwidth (bytes/s): each SM services one
    /// 32-lane × 4-byte wave per clock.
    pub fn smem_bytes_per_s(&self) -> f64 {
        self.smem_banks as f64 * 4.0 * self.sm_count as f64 * self.clock_ghz * 1e9
    }

    /// MAC throughput (MACs/s) for the given functional unit.
    pub fn macs_per_s(&self, unit: ComputeUnit) -> f64 {
        let flops = match unit {
            ComputeUnit::DenseTcF16 => self.dense_tc_fp16_flops,
            ComputeUnit::SparseTcF16 => self.sparse_tc_fp16_flops,
            ComputeUnit::DenseTcF64 => self.dense_tc_fp64_flops,
            ComputeUnit::CudaF32 => self.cuda_fp32_flops,
            ComputeUnit::CudaF64 => self.cuda_fp64_flops,
        };
        flops / 2.0
    }
}

/// The functional units whose throughput differs in the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComputeUnit {
    DenseTcF16,
    SparseTcF16,
    DenseTcF64,
    CudaF32,
    CudaF64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_constants() {
        let s = GpuSpecs::a100_pcie_80gb();
        assert_eq!(s.sm_count, 108);
        // Sparse TC is exactly 2x dense (the paper's §2.1 headline).
        assert_eq!(s.sparse_tc_fp16_flops / s.dense_tc_fp16_flops, 2.0);
        assert!(s.hbm_bytes_per_s > 1.9e12);
    }

    #[test]
    fn smem_bandwidth_order_of_magnitude() {
        let s = GpuSpecs::a100_pcie_80gb();
        let bw = s.smem_bytes_per_s();
        // ~19.5 TB/s for A100.
        assert!(bw > 15e12 && bw < 25e12, "smem bw {bw}");
    }

    #[test]
    fn macs_are_half_flops() {
        let s = GpuSpecs::a100_pcie_80gb();
        assert_eq!(s.macs_per_s(ComputeUnit::DenseTcF16), 156e12);
        assert_eq!(s.macs_per_s(ComputeUnit::SparseTcF16), 312e12);
    }
}
