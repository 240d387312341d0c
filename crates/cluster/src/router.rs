//! Request → device assignment.
//!
//! The router is stateless per request (round-robin's counter aside): it
//! maps a request and a load snapshot to a device index. The interesting
//! policy is [`RoutingPolicy::FingerprintAffinity`]: rendezvous (highest
//! random weight) hashing of the request's `plan_key` against every
//! device's identity. Equal plan keys always land on the same device, so
//! each shard's plan cache and tuner memo table see a *partition* of the
//! key space instead of a copy of it — per-device hit rates approach the
//! single-device ideal no matter how many shards serve, and adding or
//! removing one device only remaps the keys that hashed to it.

use std::sync::atomic::{AtomicUsize, Ordering};

use spider_runtime::StencilRequest;
use spider_stencil::fnv::Fnv1a;

/// How the cluster assigns an incoming request to a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// Rendezvous-hash the request's plan key over the device identities:
    /// equal kernels (and modes) always serve on the same shard, maximizing
    /// per-device plan-cache and tuner-memo hit rates.
    #[default]
    FingerprintAffinity,
    /// Send the request to the device with the shallowest admission queue
    /// (ties: lowest index). Best latency under skewed load, worst cache
    /// locality.
    LeastLoaded,
    /// Rotate through the devices in submission order, ignoring both keys
    /// and load — the locality-free baseline.
    RoundRobin,
}

impl std::fmt::Display for RoutingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoutingPolicy::FingerprintAffinity => write!(f, "fingerprint-affinity"),
            RoutingPolicy::LeastLoaded => write!(f, "least-loaded"),
            RoutingPolicy::RoundRobin => write!(f, "round-robin"),
        }
    }
}

/// The assignment engine in front of the cluster's schedulers.
pub struct Router {
    policy: RoutingPolicy,
    /// Stable per-device rendezvous identities (name hash — names must be
    /// unique; see [`Router::new`]).
    identities: Vec<u64>,
    rr: AtomicUsize,
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
    pub fn new(policy: RoutingPolicy, names: &[String]) -> Self {
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
        Self {
            policy,
            identities,
            rr: AtomicUsize::new(0),
        }
    }

    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// Number of devices this router spreads over.
    pub fn devices(&self) -> usize {
        self.identities.len()
    }

    /// Pick the device for `req` given the current per-device queue depths
    /// (`loads` is only consulted by [`RoutingPolicy::LeastLoaded`]).
    pub fn route(&self, req: &StencilRequest, loads: &[usize]) -> usize {
        debug_assert_eq!(loads.len(), self.identities.len());
        match self.policy {
            RoutingPolicy::FingerprintAffinity => self.rendezvous(req.plan_key()),
            RoutingPolicy::LeastLoaded => loads
                .iter()
                .enumerate()
                .min_by_key(|&(i, &depth)| (depth, i))
                .map(|(i, _)| i)
                .expect("non-empty device list"), // guard: router is only consulted with a non-empty routable set
            RoutingPolicy::RoundRobin => {
                self.rr.fetch_add(1, Ordering::Relaxed) % self.identities.len()
            }
        }
    }

    /// Highest-random-weight choice for a plan key.
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
        let r = Router::new(RoutingPolicy::FingerprintAffinity, &names(4));
        for seed in 0..32 {
            let a = r.route(&req(seed), &[0; 4]);
            // Same kernel, different id/grid/load: same device.
            let mut other = req(seed);
            other.id = 999;
            other.grid = spider_runtime::GridSpec::D2 {
                rows: 128,
                cols: 32,
            };
            assert_eq!(a, r.route(&other, &[9, 9, 9, 9]));
        }
    }

    #[test]
    fn affinity_spreads_distinct_keys() {
        let r = Router::new(RoutingPolicy::FingerprintAffinity, &names(4));
        let mut hit = [false; 4];
        for seed in 0..64 {
            hit[r.route(&req(seed), &[0; 4])] = true;
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
        let four = Router::new(RoutingPolicy::FingerprintAffinity, &all);
        for removed in 0..4usize {
            let survivors: Vec<String> = all
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != removed)
                .map(|(_, n)| n.clone())
                .collect();
            let three = Router::new(RoutingPolicy::FingerprintAffinity, &survivors);
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
        Router::new(RoutingPolicy::FingerprintAffinity, &dup);
    }

    #[test]
    fn least_loaded_follows_depths() {
        let r = Router::new(RoutingPolicy::LeastLoaded, &names(3));
        assert_eq!(r.route(&req(1), &[5, 2, 7]), 1);
        assert_eq!(r.route(&req(2), &[0, 0, 0]), 0, "ties go to lowest index");
        assert_eq!(r.route(&req(3), &[1, 1, 0]), 2);
    }

    #[test]
    fn round_robin_rotates() {
        let r = Router::new(RoutingPolicy::RoundRobin, &names(3));
        let picks: Vec<usize> = (0..6).map(|i| r.route(&req(i), &[0; 3])).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }
}
