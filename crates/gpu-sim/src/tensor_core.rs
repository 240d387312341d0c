//! Functional tensor-core MMA units.
//!
//! Operand conventions: `A[m][k]` (16×16), `B[k][n]` (16×8), accumulator
//! `D[m][n] = Σ_k A[m][k]·B[k][n] + C[m][n]` (16×8). Values are `f32`; real
//! hardware consumes FP16 inputs and accumulates FP32 — callers wanting
//! FP16-faithful numerics quantize operands through [`crate::half::F16`]
//! first (the executors do this when modeling FP16 methods).

use crate::counters::PerfCounters;
use crate::sparse::Sparse24Operand;

/// Dense A operand for `mma.m16n8k16`.
pub type DenseA = [[f32; 16]; 16];
/// B operand (`[k][n]`).
pub type MatB = [[f32; 8]; 16];
/// Accumulator (`[m][n]`).
pub type Acc = [[f32; 8]; 16];

/// Functional dense `mma.m16n8k16`: `acc += A·B`, one counter issue.
///
/// The MMA units loop (m, k, n): the inner loop is one 8-wide FMA of a
/// scalar A element into the accumulator row, and every `acc[m][n]` still
/// sees its FMAs in ascending-k order, so results are bit-identical to the
/// (m, n, k) dot-product order.
pub fn mma_m16n8k16(c: &mut PerfCounters, a: &DenseA, b: &MatB, acc: &mut Acc) {
    for (row, a_row) in acc.iter_mut().zip(a) {
        let mut r = *row;
        for (&a_mk, b_k) in a_row.iter().zip(b) {
            fma_row(&mut r, a_mk, b_k);
        }
        *row = r;
    }
    c.mma_dense();
}

/// `row[n] = a·b[n] + row[n]` for all eight columns. Callers pass a local
/// copy of the accumulator row, so it stays in a register across its FMAs.
#[inline(always)]
fn fma_row(row: &mut [f32; 8], a: f32, b: &[f32; 8]) {
    for (d, &bn) in row.iter_mut().zip(b) {
        *d = a.mul_add(bn, *d);
    }
}

/// Functional sparse `mma.sp.m16n8k16`: the A operand is 2:4-compressed;
/// the select stage (paper Fig 1) picks 2-of-4 B values per group via the
/// metadata before the MAC stage. `acc += decompress(A)·B`, half the MAC
/// work of the dense unit, one counter issue.
pub fn mma_sp_m16n8k16(c: &mut PerfCounters, a: &Sparse24Operand, b: &MatB, acc: &mut Acc) {
    mma_sp_k16(a, b, acc);
    c.mma_sparse();
}

/// The sparse MAC stage over one 16-deep K range: per row, each of the 8
/// slots (two per 4-group) selects its B row through the metadata and
/// FMAs it into the accumulator row, slots in order. Metadata is read as
/// the 2-bit field the hardware holds, which also keeps every B index
/// provably in range.
#[inline(always)]
fn mma_sp_k16(a: &Sparse24Operand, b: &MatB, acc: &mut Acc) {
    for ((row, values), meta) in acc.iter_mut().zip(&a.values).zip(&a.meta) {
        let mut r = *row;
        for (slot, (&v, &pos)) in values.iter().zip(meta).enumerate() {
            fma_row(&mut r, v, &b[4 * (slot / 2) + (pos & 3) as usize]);
        }
        *row = r;
    }
}

/// B operand for the wide-K sparse shape (`[k][n]`, 32×8).
pub type MatB32 = [[f32; 8]; 32];

/// Functional sparse `mma.sp.m16n8k32` — the second Ampere sparse FP16
/// shape: a 16×32 2:4 A operand (two compressed 16×16 halves) against a
/// 32×8 B, at the same doubled rate. Counts as two `mma.sp.m16n8k16`-
/// equivalents of work in the timing model.
pub fn mma_sp_m16n8k32(c: &mut PerfCounters, a: &[Sparse24Operand; 2], b: &MatB32, acc: &mut Acc) {
    for (half, op) in a.iter().enumerate() {
        let b_half: MatB = std::array::from_fn(|k| b[16 * half + k]);
        mma_sp_k16(op, &b_half, acc);
    }
    c.mma_sparse_f16 += 2;
    c.instructions += 1; // one wide instruction issues both halves
}

/// Functional FP64 tensor-core GEMM tile (`dmma`-class): `acc += A·B` for an
/// `8×8×4` tile, the shape ConvStencil's FP64 path is modeled with.
pub fn dmma_m8n8k4(
    c: &mut PerfCounters,
    a: &[[f64; 4]; 8],
    b: &[[f64; 8]; 4],
    acc: &mut [[f64; 8]; 8],
) {
    for m in 0..8 {
        for n in 0..8 {
            let mut sum = acc[m][n];
            for (k, bk) in b.iter().enumerate() {
                sum = a[m][k].mul_add(bk[n], sum);
            }
            acc[m][n] = sum;
        }
    }
    c.mma_dense_fp64();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_a() -> DenseA {
        let mut a = [[0.0; 16]; 16];
        for (m, row) in a.iter_mut().enumerate() {
            for (k, v) in row.iter_mut().enumerate() {
                *v = (m * 16 + k) as f32 * 0.01;
            }
        }
        a
    }

    fn seq_b() -> MatB {
        let mut b = [[0.0; 8]; 16];
        for (k, row) in b.iter_mut().enumerate() {
            for (n, v) in row.iter_mut().enumerate() {
                *v = ((k * 8 + n) % 13) as f32 * 0.1 - 0.5;
            }
        }
        b
    }

    fn reference_gemm(a: &DenseA, b: &MatB) -> Acc {
        let mut d = [[0.0; 8]; 16];
        for m in 0..16 {
            for n in 0..8 {
                for k in 0..16 {
                    d[m][n] += a[m][k] as f64 as f32 * b[k][n];
                }
            }
        }
        d
    }

    #[test]
    fn dense_mma_matches_reference() {
        let a = seq_a();
        let b = seq_b();
        let mut acc = [[0.0; 8]; 16];
        let mut c = PerfCounters::new();
        mma_m16n8k16(&mut c, &a, &b, &mut acc);
        let expect = reference_gemm(&a, &b);
        for m in 0..16 {
            for n in 0..8 {
                assert!((acc[m][n] - expect[m][n]).abs() < 1e-3, "({m},{n})");
            }
        }
        assert_eq!(c.mma_dense_f16, 1);
        assert_eq!(c.dense_tc_macs(), 2048);
    }

    #[test]
    fn dense_mma_accumulates() {
        let a = seq_a();
        let b = seq_b();
        let mut acc = [[1.0; 8]; 16];
        let mut c = PerfCounters::new();
        mma_m16n8k16(&mut c, &a, &b, &mut acc);
        let expect = reference_gemm(&a, &b);
        assert!((acc[0][0] - (expect[0][0] + 1.0)).abs() < 1e-4);
    }

    #[test]
    fn sparse_mma_equals_dense_on_24_pattern() {
        // Banded 2:4 matrix: two non-zeros per 4-group.
        let mut dense = [[0.0f32; 16]; 16];
        for (m, row) in dense.iter_mut().enumerate() {
            for g in 0..4 {
                row[4 * g + (m % 3) % 4] = (m + g) as f32 * 0.3 + 0.1;
                let second = ((m % 3) % 4 + 2) % 4;
                row[4 * g + second.max((m % 3 + 1) % 4)] = 0.7;
            }
        }
        // Repair any group that accidentally got <2 distinct positions: fine,
        // fewer non-zeros is still valid 2:4.
        let sp = Sparse24Operand::compress(&dense).expect("pattern is 2:4");
        let b = seq_b();

        let mut acc_sparse = [[0.0; 8]; 16];
        let mut acc_dense = [[0.0; 8]; 16];
        let mut c = PerfCounters::new();
        mma_sp_m16n8k16(&mut c, &sp, &b, &mut acc_sparse);
        mma_m16n8k16(&mut c, &dense, &b, &mut acc_dense);

        for m in 0..16 {
            for n in 0..8 {
                assert!(
                    (acc_sparse[m][n] - acc_dense[m][n]).abs() < 1e-4,
                    "({m},{n}): {} vs {}",
                    acc_sparse[m][n],
                    acc_dense[m][n]
                );
            }
        }
        assert_eq!(c.mma_sparse_f16, 1);
        assert_eq!(c.sparse_tc_macs(), 1024);
    }

    #[test]
    fn sparse_mma_respects_placeholders() {
        // Single non-zero per group exercises the placeholder metadata path.
        let mut dense = [[0.0f32; 16]; 16];
        for (m, row) in dense.iter_mut().enumerate() {
            for g in 0..4 {
                row[4 * g + 3] = (m + g + 1) as f32;
            }
        }
        let sp = Sparse24Operand::compress(&dense).unwrap();
        let b = seq_b();
        let mut acc_sparse = [[0.0; 8]; 16];
        let mut acc_dense = [[0.0; 8]; 16];
        let mut c = PerfCounters::new();
        mma_sp_m16n8k16(&mut c, &sp, &b, &mut acc_sparse);
        mma_m16n8k16(&mut c, &dense, &b, &mut acc_dense);
        for m in 0..16 {
            for n in 0..8 {
                assert!((acc_sparse[m][n] - acc_dense[m][n]).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn sparse_k32_equals_two_k16() {
        // One m16n8k32 must equal two k16 invocations over the K halves.
        let mut dense0 = [[0.0f32; 16]; 16];
        let mut dense1 = [[0.0f32; 16]; 16];
        for m in 0..16 {
            for g in 0..4 {
                dense0[m][4 * g + m % 4] = (m + g) as f32 * 0.2 + 0.1;
                dense1[m][4 * g + (m + 1) % 4] = (m * g) as f32 * 0.1 - 0.4;
            }
        }
        let a = [
            Sparse24Operand::compress(&dense0).unwrap(),
            Sparse24Operand::compress(&dense1).unwrap(),
        ];
        let mut b32 = [[0.0f32; 8]; 32];
        for (k, row) in b32.iter_mut().enumerate() {
            for (n, v) in row.iter_mut().enumerate() {
                *v = ((k * 3 + n) % 11) as f32 * 0.25 - 1.0;
            }
        }
        let mut c = PerfCounters::new();
        let mut wide = [[0.0f32; 8]; 16];
        mma_sp_m16n8k32(&mut c, &a, &b32, &mut wide);
        assert_eq!(c.mma_sparse_f16, 2);
        assert_eq!(c.instructions, 1);

        let mut narrow = [[0.0f32; 8]; 16];
        let mut c2 = PerfCounters::new();
        for half in 0..2 {
            let mut b = [[0.0f32; 8]; 16];
            for k in 0..16 {
                b[k] = b32[16 * half + k];
            }
            let op = if half == 0 { &a[0] } else { &a[1] };
            mma_sp_m16n8k16(&mut c2, op, &b, &mut narrow);
        }
        for m in 0..16 {
            for n in 0..8 {
                assert!((wide[m][n] - narrow[m][n]).abs() < 1e-4, "({m},{n})");
            }
        }
    }

    /// Dot-product (m, n, k) loop order: the bit-identity oracle for the
    /// units' (m, k, n) order.
    fn oracle_dense(a: &DenseA, b: &MatB, acc: &mut Acc) {
        for m in 0..16 {
            for n in 0..8 {
                let mut sum = acc[m][n];
                for k in 0..16 {
                    sum = a[m][k].mul_add(b[k][n], sum);
                }
                acc[m][n] = sum;
            }
        }
    }

    /// Dot-product order of the sparse units (`b` is 16 or 32 rows deep).
    fn oracle_sparse(ops: &[Sparse24Operand], b: &[[f32; 8]], acc: &mut Acc) {
        for (half, op) in ops.iter().enumerate() {
            for m in 0..16 {
                for n in 0..8 {
                    let mut sum = acc[m][n];
                    for g in 0..4 {
                        for slot in [2 * g, 2 * g + 1] {
                            let k = 16 * half + 4 * g + op.meta[m][slot] as usize;
                            sum = op.values[m][slot].mul_add(b[k][n], sum);
                        }
                    }
                    acc[m][n] = sum;
                }
            }
        }
    }

    /// Deterministic operands: values spread over magnitudes and signs (so
    /// FMA order shows in the low bits), 2:4 A matrices whose groups hold
    /// 0, 1 or 2 non-zeros (so placeholder metadata appears).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }

        fn value(&mut self) -> f32 {
            let mantissa = (self.next() % 2001) as f32 / 1000.0 - 1.0;
            mantissa * 2.0f32.powi((self.next() % 9) as i32 - 4)
        }

        fn sparse(&mut self) -> Sparse24Operand {
            let mut dense = [[0.0f32; 16]; 16];
            for row in &mut dense {
                for group in row.chunks_exact_mut(4) {
                    for _ in 0..self.next() % 3 {
                        group[(self.next() % 4) as usize] = self.value();
                    }
                }
            }
            Sparse24Operand::compress(&dense).expect("at most two non-zeros per group")
        }
    }

    #[test]
    fn units_are_bit_identical_to_the_dot_product_order() {
        let mut rng = Lcg(0x5EED);
        let mut placeholders = 0;
        for _ in 0..200 {
            let acc0: Acc = std::array::from_fn(|_| std::array::from_fn(|_| rng.value()));
            let b32: MatB32 = std::array::from_fn(|_| std::array::from_fn(|_| rng.value()));
            let b: MatB = std::array::from_fn(|k| b32[k]);
            let a: DenseA = std::array::from_fn(|_| std::array::from_fn(|_| rng.value()));
            let sp = [rng.sparse(), rng.sparse()];
            placeholders += sp
                .iter()
                .flat_map(|op| op.values.iter().flatten())
                .filter(|v| **v == 0.0)
                .count();
            let mut c = PerfCounters::new();

            let (mut got, mut want) = (acc0, acc0);
            mma_m16n8k16(&mut c, &a, &b, &mut got);
            oracle_dense(&a, &b, &mut want);
            assert_eq!(bits(&got), bits(&want), "dense");

            let (mut got, mut want) = (acc0, acc0);
            mma_sp_m16n8k16(&mut c, &sp[0], &b, &mut got);
            oracle_sparse(&sp[..1], &b, &mut want);
            assert_eq!(bits(&got), bits(&want), "sparse k16");

            let (mut got, mut want) = (acc0, acc0);
            mma_sp_m16n8k32(&mut c, &sp, &b32, &mut got);
            oracle_sparse(&sp, &b32, &mut want);
            assert_eq!(bits(&got), bits(&want), "sparse k32");
        }
        assert!(placeholders > 0, "operands exercise placeholder slots");
    }

    fn bits(acc: &Acc) -> Vec<u32> {
        acc.iter().flatten().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn dmma_matches_reference() {
        let mut a = [[0.0f64; 4]; 8];
        let mut b = [[0.0f64; 8]; 4];
        for m in 0..8 {
            for k in 0..4 {
                a[m][k] = (m * 4 + k) as f64 * 0.25;
            }
        }
        for k in 0..4 {
            for n in 0..8 {
                b[k][n] = 1.0 / (1.0 + (k * 8 + n) as f64);
            }
        }
        let mut acc = [[0.0f64; 8]; 8];
        let mut c = PerfCounters::new();
        dmma_m8n8k4(&mut c, &a, &b, &mut acc);
        let mut expect = 0.0;
        for k in 0..4 {
            expect += a[3][k] * b[k][5];
        }
        assert!((acc[3][5] - expect).abs() < 1e-12);
        assert_eq!(c.mma_dense_f64, 1);
        assert_eq!(c.dense_tc_f64_macs(), 256);
    }
}
