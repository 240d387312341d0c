//! Global-memory coalescing model.
//!
//! DRAM traffic is counted in 32-byte sectors, the granularity real Ampere
//! hardware transfers between L2 and HBM. A warp access touching `n` distinct
//! sectors costs `n` transactions regardless of how many useful bytes it
//! moves — so strided or scattered access patterns pay for bytes they do not
//! use. This is precisely the waste the paper's data packing (§3.3.2)
//! eliminates, and what lets the simulator reproduce its effect.

use crate::counters::PerfCounters;
use crate::fragment::WARP;

/// Sector size in bytes (L2<->DRAM granularity on Ampere).
pub const SECTOR_BYTES: u64 = 32;

/// Number of distinct 32-byte sectors touched by per-lane byte addresses
/// of one warp (at most [`WARP`] lanes). `None` marks inactive
/// (predicated-off) lanes. Elements may straddle a sector boundary, in
/// which case both sectors are counted. Allocates nothing: the sectors are
/// sorted in a warp-sized array.
pub fn sectors_touched(addrs: &[Option<u64>], elem_bytes: u64) -> u64 {
    debug_assert!(elem_bytes > 0);
    assert!(
        addrs.len() <= WARP as usize,
        "a warp access has at most {WARP} lanes"
    );
    let mut sectors = [0u64; 2 * WARP as usize];
    let mut n = 0;
    for addr in addrs.iter().flatten() {
        let first = addr / SECTOR_BYTES;
        let last = (addr + elem_bytes - 1) / SECTOR_BYTES;
        sectors[n] = first;
        n += 1;
        if last != first {
            sectors[n] = last;
            n += 1;
        }
    }
    let sectors = &mut sectors[..n];
    sectors.sort_unstable();
    let repeats = sectors.windows(2).filter(|w| w[0] == w[1]).count();
    (n - repeats) as u64
}

/// Record a warp-wide global read at the given per-lane byte addresses.
pub fn record_read(c: &mut PerfCounters, addrs: &[Option<u64>], elem_bytes: u64) {
    let active = addrs.iter().flatten().count() as u64;
    c.gmem_read(active * elem_bytes, sectors_touched(addrs, elem_bytes));
}

/// Record a perfectly-coalesced bulk transfer of `count` elements (the common
/// fast path: consecutive lanes read consecutive addresses, vectorized). One
/// warp instruction is charged per 32 lanes.
pub fn record_bulk_read(c: &mut PerfCounters, base_addr: u64, count: u64, elem_bytes: u64) {
    if count == 0 {
        return;
    }
    let bytes = count * elem_bytes;
    let first = base_addr / SECTOR_BYTES;
    let last = (base_addr + bytes - 1) / SECTOR_BYTES;
    let warps = count.div_ceil(32);
    c.gmem_read_bytes += bytes;
    c.gmem_read_sectors += last - first + 1;
    c.instructions += warps;
}

/// Bulk counterpart for writes.
pub fn record_bulk_write(c: &mut PerfCounters, base_addr: u64, count: u64, elem_bytes: u64) {
    if count == 0 {
        return;
    }
    let bytes = count * elem_bytes;
    let first = base_addr / SECTOR_BYTES;
    let last = (base_addr + bytes - 1) / SECTOR_BYTES;
    let warps = count.div_ceil(32);
    c.gmem_write_bytes += bytes;
    c.gmem_write_sectors += last - first + 1;
    c.instructions += warps;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lanes(it: impl IntoIterator<Item = u64>) -> Vec<Option<u64>> {
        it.into_iter().map(Some).collect()
    }

    #[test]
    fn contiguous_f32_warp_is_four_sectors() {
        // 32 lanes x 4B starting at a sector boundary: 128B = 4 sectors.
        let addrs = lanes((0..32).map(|l| l * 4));
        assert_eq!(sectors_touched(&addrs, 4), 4);
    }

    #[test]
    fn contiguous_f16_warp_is_two_sectors() {
        let addrs = lanes((0..32).map(|l| l * 2));
        assert_eq!(sectors_touched(&addrs, 2), 2);
    }

    #[test]
    fn strided_access_pays_per_lane() {
        // Stride 128B: every lane hits its own sector.
        let addrs = lanes((0..32).map(|l| l * 128));
        assert_eq!(sectors_touched(&addrs, 4), 32);
    }

    #[test]
    fn misaligned_warp_spills_one_sector() {
        // Starting 4 bytes into a sector: 128B spanning 5 sectors.
        let addrs = lanes((0..32).map(|l| 4 + l * 4));
        assert_eq!(sectors_touched(&addrs, 4), 5);
    }

    #[test]
    fn element_straddling_sector_counts_both() {
        let addrs = lanes([30u64]); // 4B element crossing the 32B line
        assert_eq!(sectors_touched(&addrs, 4), 2);
    }

    #[test]
    fn inactive_lanes_cost_nothing() {
        let mut addrs = vec![None; 32];
        addrs[0] = Some(0);
        assert_eq!(sectors_touched(&addrs, 4), 1);
        let mut c = PerfCounters::new();
        record_read(&mut c, &addrs, 4);
        assert_eq!(c.gmem_read_bytes, 4);
        assert_eq!(c.gmem_read_sectors, 1);
    }

    #[test]
    fn broadcast_same_address_is_one_sector() {
        let addrs = vec![Some(64u64); 32];
        assert_eq!(sectors_touched(&addrs, 4), 1);
    }

    #[test]
    fn bulk_read_counts_span_and_warps() {
        let mut c = PerfCounters::new();
        record_bulk_read(&mut c, 0, 256, 4); // 1 KiB
        assert_eq!(c.gmem_read_bytes, 1024);
        assert_eq!(c.gmem_read_sectors, 32);
        assert_eq!(c.instructions, 8);
        assert_eq!(c.gmem_read_efficiency(), 1.0);
    }

    #[test]
    fn bulk_zero_count_is_noop() {
        let mut c = PerfCounters::new();
        record_bulk_read(&mut c, 0, 0, 4);
        record_bulk_write(&mut c, 0, 0, 4);
        assert_eq!(c, PerfCounters::new());
    }
}
