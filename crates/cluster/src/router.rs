//! Request → device assignment.
//!
//! The router is stateless: rendezvous (highest random weight) hashing of
//! a request's `plan_key` against every device's identity. Equal plan keys
//! always land on the same device, so each shard's plan cache and tuner
//! memo table see a *partition* of the key space instead of a copy of it —
//! per-device hit rates approach the single-device ideal no matter how many
//! shards serve, and adding or removing one device only remaps the keys
//! that hashed to it.

use spider_stencil::fnv::Fnv1a;

/// The assignment engine in front of the cluster's schedulers.
pub struct Router {
    /// Stable per-device rendezvous identities (name hash — names must be
    /// unique; see [`Router::new`]).
    identities: Vec<u64>,
}

/// One round of 64-bit mixing (splitmix64 finalizer) — turns the cheap FNV
/// identities into well-distributed rendezvous scores.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl Router {
    /// A router over `names` devices. Identities derive from the name
    /// *alone* — never the list position — so adding or removing any
    /// device (head, middle or tail) leaves every surviving device's
    /// identity, and therefore its key partition, untouched. That is the
    /// whole point of rendezvous hashing; hashing positions in would remap
    /// every device behind a removed one. Names must be unique (asserted),
    /// since two equal identities would always tie the same way.
    pub fn new(names: &[String]) -> Self {
        assert!(!names.is_empty(), "router needs at least one device");
        let identities: Vec<u64> = names
            .iter()
            .map(|name| Fnv1a::new().bytes(name.as_bytes()).finish())
            .collect();
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(a, b, "device names must be unique, got {a:?} twice");
            }
        }
        Self { identities }
    }

    /// Highest-random-weight choice for a plan key: the index, in `names`
    /// order, of the device that serves it.
    pub fn rendezvous(&self, plan_key: u64) -> usize {
        self.identities
            .iter()
            .enumerate()
            .max_by_key(|&(i, &id)| (mix(plan_key ^ id), i))
            .map(|(i, _)| i)
            .expect("non-empty device list") // guard: router is only consulted with a non-empty routable set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_runtime::StencilRequest;
    use spider_stencil::{StencilKernel, StencilShape};

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("dev{i}")).collect()
    }

    fn req(seed: u64) -> StencilRequest {
        StencilRequest::new_2d(
            seed,
            StencilKernel::random(StencilShape::box_2d(1), seed),
            64,
            64,
        )
    }

    #[test]
    fn affinity_is_deterministic_and_key_only() {
        let r = Router::new(&names(4));
        for seed in 0..32 {
            let a = r.rendezvous(req(seed).plan_key());
            // Same kernel, different id/grid: same device.
            let mut other = req(seed);
            other.id = 999;
            other.grid = spider_runtime::GridSpec::D2 {
                rows: 128,
                cols: 32,
            };
            assert_eq!(a, r.rendezvous(other.plan_key()));
        }
    }

    #[test]
    fn affinity_spreads_distinct_keys() {
        let r = Router::new(&names(4));
        let mut hit = [false; 4];
        for seed in 0..64 {
            hit[r.rendezvous(req(seed).plan_key())] = true;
        }
        assert!(hit.iter().all(|&h| h), "64 keys must reach all 4 devices");
    }

    #[test]
    fn rendezvous_removal_only_remaps_the_lost_device() {
        // The defining rendezvous property: dropping a device moves only
        // the keys that lived on it; every other key keeps its device.
        // Removing a *middle* device is the interesting case — it shifts
        // the indices of everything behind it, which must not matter.
        let all = names(4);
        let four = Router::new(&all);
        for removed in 0..4usize {
            let survivors: Vec<String> = all
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != removed)
                .map(|(_, n)| n.clone())
                .collect();
            let three = Router::new(&survivors);
            for seed in 0..128u64 {
                let k = req(seed).plan_key();
                let before = four.rendezvous(k);
                if before == removed {
                    continue; // the lost device's keys may go anywhere
                }
                let kept_name = &all[before];
                let after_name = &survivors[three.rendezvous(k)];
                assert_eq!(
                    kept_name, after_name,
                    "key {seed} moved needlessly when {removed} was dropped"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "device names must be unique")]
    fn duplicate_device_names_rejected() {
        let dup = vec!["dev0".to_string(), "dev0".to_string()];
        Router::new(&dup);
    }
}
