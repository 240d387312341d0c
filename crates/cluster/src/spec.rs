//! Per-device configuration: what one cluster shard is made of.

use spider_gpu_sim::GpuSpecs;
use spider_runtime::{RuntimeOptions, SchedulerOptions};

/// Everything needed to stand up one cluster device: the simulated
/// hardware constants plus the runtime and scheduler knobs of the serving
/// stack in front of it. Heterogeneous clusters are first-class — every
/// device carries its own spec, and each device's runtime tunes its own
/// tilings, so an A100 shard never inherits tilings measured for a
/// different device.
#[derive(Debug, Clone)]
pub struct DeviceSpec {
    /// Display name, echoed in reports and hashed — alone — into the
    /// router's rendezvous identity (names must therefore be unique per
    /// cluster; the router asserts it).
    pub name: String,
    /// Simulated hardware constants.
    pub specs: GpuSpecs,
    /// Plan cache / tuner / telemetry knobs for the device's runtime.
    pub runtime: RuntimeOptions,
    /// Admission queue knobs for the device's async scheduler.
    pub scheduler: SchedulerOptions,
}

impl DeviceSpec {
    /// An A100 shard with the given name and default runtime and
    /// scheduler options.
    pub fn a100(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            specs: GpuSpecs::a100_pcie_80gb(),
            runtime: RuntimeOptions::default(),
            scheduler: SchedulerOptions::default(),
        }
    }

    /// Replace the scheduler options.
    pub fn with_scheduler_options(mut self, options: SchedulerOptions) -> Self {
        self.scheduler = options;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_spec_carries_its_name() {
        let s = DeviceSpec::a100("dev0");
        assert_eq!(s.name, "dev0");
        assert_eq!(s.specs.name, GpuSpecs::a100_pcie_80gb().name);
    }
}
