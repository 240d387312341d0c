//! Fleet-level aggregation of per-device drain reports.
//!
//! ## Clocks, and why the fields are named the way they are
//!
//! A [`spider_runtime::RuntimeReport`] aggregates outcomes that executed on
//! **one** simulated device, so its derived rates divide by that device's
//! clock (simulated busy time) or by the host wall clock of that one drain.
//! Merging several devices' reports must not sum those rates — the devices
//! run *concurrently*, so fleet throughput divides by a **makespan** (the
//! busiest device's clock), while the sum of per-device busy times is the
//! *serial equivalent* the makespan is compared against. [`ClusterReport`]
//! keeps the three explicitly apart:
//!
//! * `per-device` — each [`DeviceReport::report`]'s own rates, valid for
//!   that device alone (see
//!   [`spider_runtime::RuntimeReport::simulated_busy_s`]);
//! * `simulated_*` aggregates — divide by
//!   [`ClusterReport::simulated_makespan_s`], the parallel fleet clock;
//! * `wall_*` aggregates — divide by the host wall clock between the
//!   cluster's first submission and the end of the drain, which includes
//!   host-side scheduling and is the only rate that reflects this machine
//!   rather than the simulated fleet.
//!
//! Every derived rate is guarded the same way the runtime's are: zero
//! requests or zero clocks yield 0.0, never NaN, and
//! [`ClusterReport::rates_are_finite`] extends the per-device
//! [`spider_runtime::RuntimeReport::rates_are_finite`] checks to the
//! aggregates.

use spider_runtime::{CacheStats, RuntimeReport};

/// One device's slice of a [`ClusterReport`].
#[derive(Debug, Clone)]
pub struct DeviceReport {
    /// The device's [`crate::DeviceSpec::name`].
    pub name: String,
    /// The device's drain report — all rates inside are **per-device
    /// clock** (that device's simulated busy time / that drain's wall).
    pub report: RuntimeReport,
    /// Requests the router originally assigned to this device (before any
    /// work stealing moved them).
    pub routed: u64,
    /// Plan-cache counters.
    pub cache: CacheStats,
}

/// Aggregate of one [`crate::SpiderCluster::drain_all`].
///
/// Elasticity splits the fleet into two sections: [`Self::devices`] holds
/// the devices still serving, [`Self::departed`] the final report slices
/// of devices that left (gracefully or by failure). Every `total_*` and
/// `simulated_*` aggregate covers **both** — a removed device's served
/// work never vanishes from fleet totals.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    pub devices: Vec<DeviceReport>,
    /// Final report slices of devices that left the cluster, in slot
    /// (join) order. Their counters are cumulative up to departure and
    /// frozen after it.
    pub departed: Vec<DeviceReport>,
    /// Host wall clock from the cluster's **first submission ever** to the
    /// end of this drain — the cluster clock, not any single device's.
    /// Cumulative on purpose: the per-device drain reports (and therefore
    /// `total_completed`) accumulate across batches, so the rate's
    /// numerator and denominator must cover the same window. For a
    /// long-lived cluster this makes [`Self::wall_requests_per_sec`] a
    /// *lifetime average* including inter-batch idle time; measure one
    /// batch by using a fresh cluster (as the scaling bench does).
    pub wall_s: f64,
    /// Requests moved between devices by work-stealing rebalances.
    pub steals: u64,
    /// Rebalance passes that moved at least one request.
    pub rebalances: u64,
    /// Steal attempts whose resubmission was refused (the request stays
    /// cancelled on its original device).
    pub steal_failures: u64,
    /// Unstarted requests moved off departing/failed devices exactly-once.
    pub requeued: u64,
    /// In-flight device-loss casualties re-routed for their one retry.
    pub retried: u64,
    /// Requeues and retries that no survivor admitted (every queue full
    /// under a refusing backpressure policy); their tickets poll
    /// `Failed { reason: DeviceLost }`.
    pub unplaced: u64,
    /// Devices joined live via [`crate::SpiderCluster::add_device`].
    pub devices_added: u64,
    /// Devices drained out via [`crate::SpiderCluster::remove_device`].
    pub devices_removed: u64,
    /// Devices hard-killed via [`crate::SpiderCluster::fail_device`] or a
    /// fired [`crate::FaultPlan`] trigger.
    pub devices_failed: u64,
}

impl ClusterReport {
    /// Every device slice, serving and departed alike — the iterator all
    /// fleet totals run over.
    pub fn all_devices(&self) -> impl Iterator<Item = &DeviceReport> {
        self.devices.iter().chain(self.departed.iter())
    }

    /// Completed requests across the fleet (departed devices included).
    pub fn total_completed(&self) -> usize {
        self.all_devices().map(|d| d.report.outcomes.len()).sum()
    }

    /// Failed requests across the fleet (departed devices included).
    pub fn total_failed(&self) -> usize {
        self.all_devices().map(|d| d.report.failures.len()).sum()
    }

    /// Completed 3D (volumetric) requests across the fleet.
    pub fn total_volumetric(&self) -> usize {
        self.all_devices()
            .map(|d| d.report.volumetric_completed())
            .sum()
    }

    /// Stencil points updated by volumetric requests across the fleet.
    pub fn total_volumetric_points(&self) -> u64 {
        self.all_devices()
            .map(|d| d.report.volumetric_points())
            .sum()
    }

    /// Total stencil points updated across the fleet.
    pub fn total_points(&self) -> u64 {
        self.all_devices().map(|d| d.report.total_points()).sum()
    }

    /// Simulated fleet makespan: the busiest device's simulated busy time.
    /// Devices run concurrently, so this — not the sum of device clocks —
    /// is the denominator of every `simulated_*` aggregate rate.
    pub fn simulated_makespan_s(&self) -> f64 {
        self.all_devices()
            .map(|d| d.report.simulated_busy_s())
            .fold(0.0, f64::max)
    }

    /// Serial equivalent: the sum of every device's simulated busy time
    /// (what one device would have needed). `busy / makespan` is the
    /// fleet's parallel speedup.
    pub fn simulated_busy_s(&self) -> f64 {
        self.all_devices()
            .map(|d| d.report.simulated_busy_s())
            .sum()
    }

    /// Parallel speedup of the fleet over one serial device
    /// (`simulated_busy_s / simulated_makespan_s`; 0 when idle). Perfect
    /// sharding across N equal devices approaches N.
    pub fn parallel_speedup(&self) -> f64 {
        let makespan = self.simulated_makespan_s();
        if makespan <= 0.0 {
            return 0.0;
        }
        self.simulated_busy_s() / makespan
    }

    /// Aggregate simulated request throughput: completed requests over the
    /// fleet makespan. This is the device-scaling metric — with perfect
    /// sharding it grows linearly in the device count.
    pub fn simulated_requests_per_sec(&self) -> f64 {
        let makespan = self.simulated_makespan_s();
        if makespan <= 0.0 || self.total_completed() == 0 {
            return 0.0;
        }
        self.total_completed() as f64 / makespan
    }

    /// Aggregate simulated stencil throughput over the fleet makespan.
    pub fn simulated_gstencils_per_sec(&self) -> f64 {
        let makespan = self.simulated_makespan_s();
        if makespan <= 0.0 {
            return 0.0;
        }
        self.total_points() as f64 / makespan / 1e9
    }

    /// Aggregate **host wall-clock** request throughput (completed over the
    /// cluster clock). Machine-dependent; use the `simulated_*` rates for
    /// scaling claims.
    pub fn wall_requests_per_sec(&self) -> f64 {
        if self.wall_s <= 0.0 || self.total_completed() == 0 {
            return 0.0;
        }
        self.total_completed() as f64 / self.wall_s
    }

    /// Fleet-wide plan-cache hit rate (memory hits over lookups).
    pub fn fleet_hit_rate(&self) -> f64 {
        let (hits, lookups) = self.all_devices().fold((0u64, 0u64), |(h, l), d| {
            (h + d.cache.hits, l + d.cache.hits + d.cache.misses)
        });
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    }

    /// Whether every aggregate and every per-device rate is finite — the
    /// cluster-level extension of
    /// [`spider_runtime::RuntimeReport::rates_are_finite`].
    pub fn rates_are_finite(&self) -> bool {
        let aggregates = [
            self.simulated_makespan_s(),
            self.simulated_busy_s(),
            self.parallel_speedup(),
            self.simulated_requests_per_sec(),
            self.simulated_gstencils_per_sec(),
            self.wall_requests_per_sec(),
            self.fleet_hit_rate(),
        ];
        aggregates.iter().all(|r| r.is_finite())
            && self.all_devices().all(|d| d.report.rates_are_finite())
    }

    /// Render a per-device table plus the fleet aggregates.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:>7} {:>7} {:>6} {:>9} {:>11} {:>12}\n",
            "device", "routed", "done", "fail", "hit rate", "sim busy", "GStencil/s"
        ));
        for (d, gone) in self
            .devices
            .iter()
            .map(|d| (d, false))
            .chain(self.departed.iter().map(|d| (d, true)))
        {
            out.push_str(&format!(
                "{:<10} {:>7} {:>7} {:>6} {:>8.0}% {:>9.1}us {:>12.2}{}\n",
                d.name,
                d.routed,
                d.report.outcomes.len(),
                d.report.failures.len(),
                d.cache.hit_rate() * 100.0,
                d.report.simulated_busy_s() * 1e6,
                d.report.simulated_gstencils_per_sec(),
                if gone { "  (departed)" } else { "" },
            ));
        }
        out.push_str(&format!(
            "fleet: {} ok / {} failed on {} devices | makespan {:.1}us (busy {:.1}us, speedup {:.2}x) | {:.0} sim req/s | {:.2} sim GStencil/s | {:.1} wall req/s | hit rate {:.0}%\n",
            self.total_completed(),
            self.total_failed(),
            self.devices.len(),
            self.simulated_makespan_s() * 1e6,
            self.simulated_busy_s() * 1e6,
            self.parallel_speedup(),
            self.simulated_requests_per_sec(),
            self.simulated_gstencils_per_sec(),
            self.wall_requests_per_sec(),
            self.fleet_hit_rate() * 100.0,
        ));
        if self.total_volumetric() > 0 {
            out.push_str(&format!(
                "volumetric: {} of {} requests ({:.2} Mpoints) served through plane waves\n",
                self.total_volumetric(),
                self.total_completed(),
                self.total_volumetric_points() as f64 / 1e6,
            ));
        }
        if self.steals > 0 || self.rebalances > 0 || self.steal_failures > 0 {
            out.push_str(&format!(
                "rebalance: {} steals across {} passes ({} failed resubmissions)\n",
                self.steals, self.rebalances, self.steal_failures,
            ));
        }
        if self.devices_added > 0 || self.devices_removed > 0 || self.devices_failed > 0 {
            out.push_str(&format!(
                "elasticity: +{} added / -{} removed / {} failed | {} requeued, {} retried{}\n",
                self.devices_added,
                self.devices_removed,
                self.devices_failed,
                self.requeued,
                self.retried,
                match self.unplaced {
                    0 => String::new(),
                    n => format!(", {n} unplaced"),
                },
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_device(name: &str) -> DeviceReport {
        DeviceReport {
            name: name.into(),
            report: RuntimeReport {
                outcomes: Vec::new(),
                failures: Vec::new(),
                wall_s: 0.0,
                cache: CacheStats::default(),
                queue: None,
                tenants: Vec::new(),
                profile: Vec::new(),
            },
            routed: 0,
            cache: CacheStats::default(),
        }
    }

    /// The satellite regression: an idle fleet (zero requests, zero
    /// clocks) must produce finite rates everywhere — the cluster-level
    /// counterpart of the runtime's 0-request guards.
    #[test]
    fn idle_fleet_has_finite_rates() {
        let report = ClusterReport {
            devices: vec![empty_device("a"), empty_device("b")],
            departed: Vec::new(),
            wall_s: 0.0,
            steals: 0,
            rebalances: 0,
            steal_failures: 0,
            requeued: 0,
            retried: 0,
            unplaced: 0,
            devices_added: 0,
            devices_removed: 0,
            devices_failed: 0,
        };
        assert!(report.rates_are_finite());
        assert_eq!(report.simulated_requests_per_sec(), 0.0);
        assert_eq!(report.parallel_speedup(), 0.0);
        assert_eq!(report.wall_requests_per_sec(), 0.0);
        assert_eq!(report.fleet_hit_rate(), 0.0);
        let text = report.render();
        assert!(!text.contains("NaN"), "render leaked a NaN:\n{text}");
    }

    #[test]
    fn empty_device_list_is_finite_too() {
        let report = ClusterReport {
            devices: Vec::new(),
            departed: Vec::new(),
            wall_s: 0.1,
            steals: 0,
            rebalances: 0,
            steal_failures: 0,
            requeued: 0,
            retried: 0,
            unplaced: 0,
            devices_added: 0,
            devices_removed: 0,
            devices_failed: 0,
        };
        assert!(report.rates_are_finite());
        assert_eq!(report.simulated_makespan_s(), 0.0);
    }
}
