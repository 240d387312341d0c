//! Data packing for the compressed kernel operands (paper §3.3.2, Figs 8–9).
//!
//! The SpTC fragment layout scatters each thread's A-operand elements across
//! the value matrix; with several MMA invocations per kernel row (two K
//! slices × `2r+1` rows), a thread's registers gather from strided,
//! non-contiguous addresses (Fig 8a). SPIDER's packing stores each thread's
//! elements contiguously, ordered by MMA invocation (Fig 8b), so warps load
//! the whole operand set with wide, perfectly coalesced vector loads.
//!
//! Metadata packing (Fig 9) concatenates the 16-bit metadata halves of up to
//! four MMA invocations into single 32-bit registers and selects the active
//! slice per invocation with the hardware *sparsity selector*, quartering
//! both the metadata load count and the registers it occupies.
//!
//! This module computes the two layouts' *address patterns* and aggregate
//! load costs; the executor charges whichever mode is active (the `+CO`
//! ablation arm of the paper's Fig 12).

use spider_gpu_sim::counters::PerfCounters;
use spider_gpu_sim::fragment;
use spider_gpu_sim::mem::global::sectors_touched;

/// Kernel operands are tiny (a few KiB) and shared by every thread block, so
/// after the first block they are L2/L1-resident: their cost is the
/// register-fill transactions and instructions, not HBM sectors. One L1
/// transaction is charged per 32-byte sector the warp access touches.
fn cached_read(c: &mut PerfCounters, addrs: &[Option<u64>], elem_bytes: u64) {
    let waves = sectors_touched(addrs, elem_bytes).max(1);
    c.smem_read(waves);
}

/// Bytes of compressed values per MMA slice (16×8 FP16).
pub const VALUE_BYTES_PER_SLICE: u64 = 16 * 8 * 2;
/// Bytes of metadata per MMA slice (16 rows × 16 bits).
pub const META_BYTES_PER_SLICE: u64 = 16 * 2;

/// One warp access: a byte address per lane, all lanes active.
pub type WarpAddrs = [Option<u64>; fragment::WARP as usize];

/// A warp access whose lane `l` reads `addr(l)`.
fn warp(addr: impl Fn(u64) -> u64) -> WarpAddrs {
    std::array::from_fn(|lane| Some(addr(lane as u64)))
}

/// Per-lane global byte addresses for loading one slice's A-fragment values
/// in the *naive* (unpacked, fragment-order) layout of Fig 8(a).
///
/// The value matrix is stored row-major per slice; each lane needs elements
/// at `(group + 8·⌊i/2⌋, 2·tig + (i&1))`, fetched as two 4-byte loads (the
/// even/odd column pairs). Returns the two per-lane address arrays.
pub fn naive_value_addresses(slice_base: u64) -> [WarpAddrs; 2] {
    std::array::from_fn(|half| {
        warp(|lane| {
            let (row, col) = fragment::a_sparse(lane as u32, 2 * half as u32);
            slice_base + (row as u64 * 8 + col as u64) * 2
        })
    })
}

/// Per-lane global byte addresses for the *packed* layout of Fig 8(b): each
/// lane's four FP16 values for a slice are contiguous (one 8-byte load),
/// and consecutive slices follow each other lane-major.
pub fn packed_value_addresses(slice_base: u64) -> WarpAddrs {
    warp(|lane| slice_base + lane * 8)
}

/// Metadata registers each thread must hold for `slices` MMA invocations.
pub fn metadata_regs_per_thread(packed: bool, slices: usize) -> usize {
    if packed {
        // Fig 9: four invocations share one register via the sparsity selector.
        slices.div_ceil(4)
    } else {
        slices
    }
}

/// Cost of loading all kernel operands (values + metadata) for `slices` MMA
/// invocations by one warp. Returns the counter delta.
pub fn charge_operand_loads(c: &mut PerfCounters, slices: usize, packed: bool) {
    if packed {
        // One 8 B vector load per lane per slice (values), coalesced.
        for s in 0..slices as u64 {
            let addrs = packed_value_addresses(s * VALUE_BYTES_PER_SLICE);
            cached_read(c, &addrs, 8);
        }
        // Metadata: one 4 B load per lane per *four* slices.
        for g in 0..slices.div_ceil(4) as u64 {
            let addrs = warp(|lane| slices as u64 * VALUE_BYTES_PER_SLICE + g * 32 * 4 + lane * 4);
            cached_read(c, &addrs, 4);
        }
    } else {
        for s in 0..slices as u64 {
            for addrs in naive_value_addresses(s * VALUE_BYTES_PER_SLICE) {
                cached_read(c, &addrs, 4);
            }
            // Unpacked metadata: the natural layout follows the value
            // matrix's row order, scattering the 8 words a slice needs at
            // matrix-row stride — the non-contiguous per-thread access
            // Fig 9's first packing stage removes.
            let meta_base = slices as u64 * VALUE_BYTES_PER_SLICE + s * 8 * 16;
            let addrs = warp(|lane| meta_base + (lane % 8) * 16);
            cached_read(c, &addrs, 4);
        }
    }
}

/// Cost of loading *dense* (uncompressed) A operands for `slices` MMA
/// invocations by one warp — the `SPIDER w. TC` ablation arm. Each lane
/// holds 8 FP16 values per dense slice, fetched fragment-order as four
/// 4-byte loads; there is no metadata.
pub fn charge_operand_loads_dense(c: &mut PerfCounters, slices: usize) {
    for s in 0..slices as u64 {
        let base = s * 2 * VALUE_BYTES_PER_SLICE;
        for pair in 0..4u32 {
            let addrs = warp(|lane| {
                let (row, col) = fragment::a_dense(lane as u32, 2 * pair);
                base + (row as u64 * 16 + col as u64) * 2
            });
            cached_read(c, &addrs, 4);
        }
    }
}

/// Sector count for one slice's value loads under each layout (diagnostic
/// used in tests and the ablation notes).
pub fn value_sectors(packed: bool) -> u64 {
    if packed {
        sectors_touched(&packed_value_addresses(0), 8)
    } else {
        naive_value_addresses(0)
            .iter()
            .map(|a| sectors_touched(a, 4))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_addresses_are_contiguous() {
        let addrs = packed_value_addresses(0);
        for (lane, a) in addrs.iter().enumerate() {
            assert_eq!(a.unwrap(), lane as u64 * 8);
        }
        // 32 lanes × 8 B = 256 B = 8 sectors, perfectly dense.
        assert_eq!(sectors_touched(&addrs, 8), 8);
    }

    #[test]
    fn naive_addresses_cover_the_slice() {
        // The two half-loads together must touch each value pair once.
        let [a, b] = naive_value_addresses(0);
        let mut all: Vec<u64> = a.iter().chain(&b).map(|x| x.unwrap()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 64, "64 distinct 4-byte pairs of the 16x8 slice");
    }

    #[test]
    fn packed_never_worse_than_naive() {
        assert!(value_sectors(true) <= value_sectors(false));
    }

    #[test]
    fn packed_halves_instruction_count() {
        let slices = 14; // Box-2D3R: 7 rows × 2 slices
        let mut naive = PerfCounters::new();
        charge_operand_loads(&mut naive, slices, false);
        let mut packed = PerfCounters::new();
        charge_operand_loads(&mut packed, slices, true);
        assert!(
            packed.instructions * 2 <= naive.instructions,
            "packed {} vs naive {}",
            packed.instructions,
            naive.instructions
        );
        // Operand loads are cache-resident: neither layout touches HBM.
        assert_eq!(packed.gmem_read_bytes, 0);
        assert_eq!(naive.gmem_read_bytes, 0);
    }

    #[test]
    fn metadata_register_sharing() {
        assert_eq!(metadata_regs_per_thread(false, 14), 14);
        assert_eq!(metadata_regs_per_thread(true, 14), 4);
        assert_eq!(metadata_regs_per_thread(true, 4), 1);
        assert_eq!(metadata_regs_per_thread(true, 5), 2);
    }

    #[test]
    fn packed_reduces_metadata_traffic() {
        let mut naive = PerfCounters::new();
        charge_operand_loads(&mut naive, 8, false);
        let mut packed = PerfCounters::new();
        charge_operand_loads(&mut packed, 8, true);
        assert!(packed.smem_read_waves < naive.smem_read_waves);
        assert!(packed.smem_read_requests < naive.smem_read_requests);
    }
}
