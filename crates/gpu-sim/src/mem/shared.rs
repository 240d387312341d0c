//! Shared-memory model: 32 four-byte banks with conflict/broadcast analysis.
//!
//! A warp access is serviced in *waves*. Lanes hitting different words in the
//! same bank serialize into extra waves (bank conflicts); lanes reading the
//! same word broadcast within one wave. The paper's Table 3 argues SPIDER's
//! row swapping "prevent\[s\] the introduction of additional bank conflicts" —
//! this model is what lets the reproduction check that claim.

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
}
