//! Per-device configuration: what one cluster shard is made of.

use spider_gpu_sim::GpuSpecs;
use spider_runtime::{RuntimeOptions, SchedulerOptions};

/// Everything needed to stand up one cluster device: the simulated
/// hardware constants plus the runtime and scheduler knobs of the serving
/// stack in front of it. Heterogeneous clusters are first-class — every
/// device carries its own spec, and tuner memos persist per spec
/// fingerprint so an A100 shard never inherits tilings measured for a
/// different device.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Display name, echoed in reports and hashed — alone — into the
    /// router's rendezvous identity (names must therefore be unique per
    /// cluster; the router asserts it).
    pub name: String,
    /// Simulated hardware constants.
    pub specs: GpuSpecs,
    /// Plan cache / tuner / worker knobs for the device's runtime.
    pub runtime: RuntimeOptions,
    /// Admission queue knobs for the device's async scheduler.
    pub scheduler: SchedulerOptions,
}

impl DeviceSpec {
    /// An A100 shard with the given name and serving defaults tuned for
    /// cluster membership: one worker lane per device (the cluster scales
    /// across devices, not inside them; the runtime's worker count sizes
    /// the scheduler's waves too) and a paused-start-free scheduler.
    pub fn a100(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            specs: GpuSpecs::a100_pcie_80gb(),
            runtime: RuntimeOptions {
                workers: 1,
                ..RuntimeOptions::default()
            },
            scheduler: SchedulerOptions::default(),
        }
    }

    /// Replace the runtime options.
    pub fn with_runtime_options(mut self, options: RuntimeOptions) -> Self {
        self.runtime = options;
        self
    }

    /// Replace the scheduler options.
    pub fn with_scheduler_options(mut self, options: SchedulerOptions) -> Self {
        self.scheduler = options;
        self
    }

    /// The device-spec fingerprint tuner memos are filed under in a
    /// [`spider_runtime::PlanStore`] (see
    /// [`spider_gpu_sim::GpuSpecs::fingerprint`]).
    pub fn spec_key(&self) -> u64 {
        self.specs.fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_spec_defaults_to_single_lane() {
        let s = DeviceSpec::a100("dev0");
        assert_eq!(s.name, "dev0");
        assert_eq!(s.runtime.workers, 1);
        assert_eq!(s.spec_key(), GpuSpecs::a100_pcie_80gb().fingerprint());
    }
}
