//! Memory hierarchy models: global memory coalescing and shared-memory banks.

pub mod global;
pub mod shared;

#[cfg(test)]
mod tests {
    use super::global::{sectors_touched, SECTOR_BYTES};
    use super::shared::{waves_for, BANK_BYTES, NUM_BANKS};

    /// splitmix64: a seeded stream of test inputs.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    /// The reference counts: sort and dedup a `Vec`.
    fn distinct(mut v: Vec<u64>) -> Vec<u64> {
        v.sort_unstable();
        v.dedup();
        v
    }

    fn sectors_reference(addrs: &[Option<u64>], elem_bytes: u64) -> u64 {
        let ends = |a: &u64| [a / SECTOR_BYTES, (a + elem_bytes - 1) / SECTOR_BYTES];
        distinct(addrs.iter().flatten().flat_map(ends).collect()).len() as u64
    }

    fn waves_reference(addrs: &[Option<u64>]) -> u64 {
        let words = distinct(addrs.iter().flatten().map(|a| a / BANK_BYTES).collect());
        let banks = NUM_BANKS as u64;
        (0..banks)
            .map(|b| words.iter().filter(|&&w| w % banks == b).count() as u64)
            .max()
            .unwrap_or(0)
    }

    /// Random warp accesses: 1–32 lanes, a quarter of them inactive,
    /// 2/4/8-byte elements at unaligned addresses, either strided from a
    /// base or scattered over a small window so lanes collide.
    #[test]
    fn warp_arrays_count_what_a_sorted_vec_counts() {
        let mut rng = Rng(0x5EED);
        let mut straddles = 0;
        for _ in 0..20_000 {
            let lanes = 1 + rng.below(32);
            let elem_bytes = [2, 4, 8][rng.below(3) as usize];
            let base = rng.below(1 << 20);
            let stride = rng.below(160);
            let window = 1 + rng.below(512);
            let scattered = rng.below(2) == 0;
            let mut addrs = Vec::new();
            for lane in 0..lanes {
                let addr = match scattered {
                    true => base + rng.below(window),
                    false => base + lane * stride,
                };
                addrs.push((rng.below(4) != 0).then_some(addr));
            }
            straddles += addrs
                .iter()
                .flatten()
                .filter(|&a| a % SECTOR_BYTES + elem_bytes > SECTOR_BYTES)
                .count();
            assert_eq!(
                sectors_touched(&addrs, elem_bytes),
                sectors_reference(&addrs, elem_bytes),
                "{elem_bytes}-byte elements at {addrs:?}"
            );
            assert_eq!(waves_for(&addrs), waves_reference(&addrs), "{addrs:?}");
        }
        assert!(
            straddles > 1000,
            "only {straddles} elements straddled a sector"
        );
    }
}
