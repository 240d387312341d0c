//! Shared-memory model: 32 four-byte banks with conflict/broadcast analysis.
//!
//! A warp access is serviced in *waves*. Lanes hitting different words in the
//! same bank serialize into extra waves (bank conflicts); lanes reading the
//! same word broadcast within one wave. The paper's Table 3 argues SPIDER's
//! row swapping "prevent\[s\] the introduction of additional bank conflicts" —
//! this model is what lets the reproduction check that claim.

use crate::counters::PerfCounters;
use crate::fragment::WARP;

/// Number of banks (Ampere: 32 banks × 4 bytes).
pub const NUM_BANKS: usize = 32;
/// Bank word width in bytes.
pub const BANK_BYTES: u64 = 4;

/// Waves needed to service per-lane *byte* addresses of one warp (at most
/// [`WARP`] lanes) into shared memory: the most distinct words any one
/// bank serves. `None` marks inactive lanes. Returns at least 1 for any
/// active access and 0 for none. Allocates nothing: the words are sorted
/// in a warp-sized array.
pub fn waves_for(addrs: &[Option<u64>]) -> u64 {
    assert!(
        addrs.len() <= WARP as usize,
        "a warp access has at most {WARP} lanes"
    );
    let mut words = [0u64; WARP as usize];
    let mut n = 0;
    for addr in addrs.iter().flatten() {
        words[n] = addr / BANK_BYTES;
        n += 1;
    }
    let words = &mut words[..n];
    words.sort_unstable();
    let mut per_bank = [0u64; NUM_BANKS];
    for (i, &word) in words.iter().enumerate() {
        if i == 0 || words[i - 1] != word {
            per_bank[(word % NUM_BANKS as u64) as usize] += 1;
        }
    }
    per_bank.into_iter().max().unwrap_or(0)
}

/// A block-local shared-memory tile of `T` elements.
///
/// Element addresses are byte offsets (`index * elem_bytes`) for bank
/// analysis. Reads/writes are warp-wide: 32 optional per-lane element
/// indices.
#[derive(Debug, Clone)]
pub struct SharedTile<T: Copy + Default> {
    data: Vec<T>,
    elem_bytes: u64,
}

impl<T: Copy + Default> SharedTile<T> {
    /// Allocate a tile of `len` elements, checking the per-SM capacity.
    pub fn new(len: usize, elem_bytes: u64, smem_capacity_bytes: u32) -> Self {
        let bytes = len as u64 * elem_bytes;
        assert!(
            bytes <= smem_capacity_bytes as u64,
            "shared tile of {bytes} B exceeds the {smem_capacity_bytes} B per-SM capacity"
        );
        Self {
            data: vec![T::default(); len],
            elem_bytes,
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Warp-wide write: `lanes[l] = Some((index, value))` for active lanes.
    pub fn write_warp(&mut self, c: &mut PerfCounters, lanes: &[Option<(usize, T)>]) {
        let addrs: Vec<Option<u64>> = lanes
            .iter()
            .map(|o| o.map(|(i, _)| i as u64 * self.elem_bytes))
            .collect();
        let waves = waves_for(&addrs);
        if waves > 0 {
            c.smem_write(waves);
        }
        for &(i, v) in lanes.iter().flatten() {
            self.data[i] = v;
        }
    }

    /// Warp-wide read: returns the per-lane values for active lanes.
    pub fn read_warp(&self, c: &mut PerfCounters, lanes: &[Option<usize>]) -> Vec<Option<T>> {
        let addrs: Vec<Option<u64>> = lanes
            .iter()
            .map(|o| o.map(|i| i as u64 * self.elem_bytes))
            .collect();
        let waves = waves_for(&addrs);
        if waves > 0 {
            c.smem_read(waves);
        }
        lanes.iter().map(|o| o.map(|i| self.data[i])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(it: impl IntoIterator<Item = u64>) -> Vec<Option<u64>> {
        it.into_iter().map(Some).collect()
    }

    #[test]
    fn conflict_free_unit_stride() {
        // 32 lanes, consecutive 4B words: one word per bank.
        let addrs = idx((0..32).map(|l| l * 4));
        assert_eq!(waves_for(&addrs), 1);
    }

    #[test]
    fn two_way_conflict_stride_two() {
        // Stride of 2 words: lanes 0 and 16 share bank 0 with different words.
        let addrs = idx((0..32).map(|l| l * 8));
        assert_eq!(waves_for(&addrs), 2);
    }

    #[test]
    fn worst_case_stride_32() {
        // All lanes in bank 0, all distinct words: 32-way serialization.
        let addrs = idx((0..32).map(|l| l * 128));
        assert_eq!(waves_for(&addrs), 32);
    }

    #[test]
    fn broadcast_is_free() {
        let addrs = idx(std::iter::repeat_n(64, 32));
        assert_eq!(waves_for(&addrs), 1);
    }

    #[test]
    fn mixed_broadcast_and_distinct() {
        // 16 lanes read word 0, 16 read word 32 (same bank 0): 2 waves.
        let addrs = idx((0..32).map(|l| if l < 16 { 0 } else { 128 }));
        assert_eq!(waves_for(&addrs), 2);
    }

    #[test]
    fn f16_pairs_share_banks() {
        // Two consecutive f16 elements live in the same 4B word: 32 lanes of
        // consecutive f16s touch only 16 banks but with one word each -> 1 wave.
        let addrs: Vec<Option<u64>> = (0..32).map(|l| Some(l * 2)).collect();
        assert_eq!(waves_for(&addrs), 1);
    }

    #[test]
    fn inactive_warp_is_zero_waves() {
        let addrs = vec![None; 32];
        assert_eq!(waves_for(&addrs), 0);
    }

    #[test]
    fn tile_write_then_read_roundtrip() {
        let mut c = PerfCounters::new();
        let mut t = SharedTile::<f32>::new(1024, 4, 164 * 1024);
        let writes: Vec<Option<(usize, f32)>> = (0..32).map(|l| Some((l, l as f32))).collect();
        t.write_warp(&mut c, &writes);
        let reads: Vec<Option<usize>> = (0..32).map(Some).collect();
        let vals = t.read_warp(&mut c, &reads);
        for (l, v) in vals.iter().enumerate() {
            assert_eq!(v.unwrap(), l as f32);
        }
        assert_eq!(c.smem_write_requests, 1);
        assert_eq!(c.smem_read_requests, 1);
        assert_eq!(c.smem_read_waves, 1);
        assert_eq!(c.smem_conflict_factor(), 1.0);
    }

    #[test]
    fn tile_conflicting_read_counts_waves() {
        let mut c = PerfCounters::new();
        let t = SharedTile::<f32>::new(4096, 4, 164 * 1024);
        // Column access of a 32-wide row-major tile: classic 32-way conflict.
        let reads: Vec<Option<usize>> = (0..32).map(|l| Some(l * 32)).collect();
        t.read_warp(&mut c, &reads);
        assert_eq!(c.smem_read_waves, 32);
        assert_eq!(c.smem_conflict_factor(), 32.0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn capacity_enforced() {
        SharedTile::<f32>::new(100_000, 4, 164 * 1024);
    }
}
