//! Elasticity and failure tolerance: fault injection, recovery policy and
//! the autoscaler.
//!
//! Three small, composable pieces sit behind
//! [`crate::SpiderCluster`]'s membership machinery:
//!
//! * [`FaultPlan`] — deterministic fault injection. Arm it with
//!   [`crate::SpiderCluster::inject_faults`] and drive it with
//!   [`crate::SpiderCluster::fault_tick`]: a kill trigger hard-kills a
//!   named device once its scheduler has dispatched `after_waves` waves
//!   (mid-batch by construction), a hang trigger silently freezes one —
//!   no declaration, detected only by
//!   [`crate::SpiderCluster::health_tick`]'s missed-heartbeat monitor —
//!   and the `fail_submits` / `fail_steals` budgets inject refusals into
//!   the submit and placement paths so tests can prove callers
//!   survive them.
//! * [`RetryPolicy`] — what happens to in-flight casualties of a device
//!   loss. Queued work is requeued exactly-once unconditionally (it never
//!   started — nothing was lost but a queue position); *running* work
//!   died with the device and is re-routed to a survivor right away, at
//!   most `max_attempts` times. Retried requests re-route
//!   through the normal router and produce bit-identical outcomes —
//!   plans are content-addressed and devices simulate deterministically.
//! * [`ScalePolicy`] / [`AutoScaler`] — queue-signal-driven elasticity.
//!   `step()` is explicit and synchronous so a harness can drive the
//!   scale curve deterministically: scale up when the *delta-window* p99
//!   queue wait exceeds `p99_wait_hi`, scale down when the mean queue
//!   depth falls below `depth_lo`, with a cooldown between actions and
//!   hard min/max device bounds.

use std::time::Duration;

use spider_telemetry::{MetricsSnapshot, SnapshotSeries};

use crate::cluster::SpiderCluster;
use crate::spec::DeviceSpec;

/// Hard-kill trigger: fail `device` once it has dispatched `after_waves`
/// scheduler waves (0 = on the next [`SpiderCluster::fault_tick`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KillTrigger {
    /// Name of the device to kill.
    pub device: String,
    /// Dispatch-wave threshold on that device's scheduler: the kill fires
    /// at the first `fault_tick` at which `dispatch_waves >= after_waves`.
    pub after_waves: u64,
}

/// Deterministic fault-injection plan, armed on a cluster with
/// [`SpiderCluster::inject_faults`]. All triggers are evaluated by
/// explicit [`SpiderCluster::fault_tick`] calls — nothing fires from a
/// background thread, so tests and the example replay faults exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Hard-kill a device mid-batch (consumed when it fires).
    pub kill: Option<KillTrigger>,
    /// Silently *hang* a device mid-batch (consumed when it fires): once
    /// the target has dispatched `after_waves` waves, its dispatch pauses
    /// and its progress beat stops — with no kill declaration, no event
    /// and no recovery. The hang persists (even across
    /// [`SpiderCluster::resume_all`]) until
    /// [`SpiderCluster::health_tick`] notices the missed heartbeats and
    /// kills the device through the standard recovery path — the failure
    /// mode the watchtower exists to catch.
    pub hang: Option<KillTrigger>,
    /// Inject this many submit-path refusals: the next `fail_submits`
    /// cluster submits return [`spider_runtime::SubmitError::QueueFull`]
    /// without reaching any device.
    pub fail_submits: u32,
    /// Inject this many placement refusals: in any cross-device move (a
    /// steal, requeue, retry or rescue), the chunk's destination refuses
    /// and the request falls through to the next candidate.
    pub fail_steals: u32,
}

impl FaultPlan {
    /// A plan that kills `device` once it has dispatched `after_waves`
    /// waves.
    pub fn kill_after(device: impl Into<String>, after_waves: u64) -> Self {
        Self {
            kill: Some(KillTrigger {
                device: device.into(),
                after_waves,
            }),
            ..Self::default()
        }
    }

    /// A plan that silently hangs `device` once it has dispatched
    /// `after_waves` waves (see [`Self::hang`]).
    pub fn hang_after(device: impl Into<String>, after_waves: u64) -> Self {
        Self {
            hang: Some(KillTrigger {
                device: device.into(),
                after_waves,
            }),
            ..Self::default()
        }
    }

    /// Add `n` injected submit-path refusals.
    pub fn with_failed_submits(mut self, n: u32) -> Self {
        self.fail_submits = n;
        self
    }

    /// Add `n` injected placement refusals.
    pub fn with_failed_steals(mut self, n: u32) -> Self {
        self.fail_steals = n;
        self
    }

    /// Consume one submit-path fault, if any is budgeted.
    pub(crate) fn take_submit_fault(&mut self) -> bool {
        if self.fail_submits > 0 {
            self.fail_submits -= 1;
            true
        } else {
            false
        }
    }

    /// Consume one placement fault, if any is budgeted.
    pub(crate) fn take_steal_fault(&mut self) -> bool {
        if self.fail_steals > 0 {
            self.fail_steals -= 1;
            true
        } else {
            false
        }
    }
}

/// Bounded retry policy for in-flight casualties of a device loss.
///
/// Applies only to requests that were *running* when their device died
/// (surfaced as [`spider_runtime::FailureReason::DeviceLost`]); queued
/// work is requeued exactly-once without consuming an attempt, and
/// deterministic execution failures are never retried — rerunning the
/// same plan fails the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How many times one request may be re-routed after a device loss
    /// before it stays [`spider_runtime::RequestStatus::Failed`]
    /// (`0` = surface every casualty immediately).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 1 }
    }
}

/// What one device failure's recovery accomplished. Its counts add to the
/// cluster's `requeued`, `retried` and `unplaced` counters by exactly these
/// amounts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Unstarted (queued) requests moved to survivors exactly-once.
    pub requeued: usize,
    /// In-flight casualties re-routed under the [`RetryPolicy`].
    pub retried: usize,
    /// In-flight casualties left as `Failed { reason: DeviceLost }`
    /// (retry budget exhausted).
    pub abandoned: usize,
    /// Requeues and retries no survivor admitted (every queue full under a
    /// refusing backpressure policy): they too end `Failed { reason:
    /// DeviceLost }`, never silently cancelled.
    pub unplaced: usize,
}

/// One fired fault: which device died and what recovery did about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// The killed device's name.
    pub device: String,
    /// The recovery accounting (also reflected in the cluster's
    /// `spider_cluster_requeued_total` / `retried_total` counters).
    pub recovery: RecoveryReport,
}

/// Thresholds and bounds for the [`AutoScaler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalePolicy {
    /// Scale **up** when the p99 queue wait observed since the previous
    /// `step()` exceeds this.
    pub p99_wait_hi: Duration,
    /// Scale **down** when the mean queue depth per device falls below
    /// this.
    pub depth_lo: usize,
    /// `step()` calls to hold after any scale action before acting again
    /// — damping, so one burst does not thrash membership.
    pub cooldown: u32,
    /// Never drain below this many devices.
    pub min_devices: usize,
    /// Never grow beyond this many devices.
    pub max_devices: usize,
}

impl Default for ScalePolicy {
    fn default() -> Self {
        Self {
            p99_wait_hi: Duration::from_millis(2),
            depth_lo: 2,
            cooldown: 1,
            min_devices: 1,
            max_devices: 8,
        }
    }
}

/// What one [`AutoScaler::step`] decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScaleAction {
    /// Added the named device.
    ScaledUp(String),
    /// Drained and removed the named device.
    ScaledDown(String),
    /// No action (signals in band, cooling down, or at a bound).
    Hold,
}

/// Pluggable autoscaler over a [`SpiderCluster`]: drive [`Self::step`]
/// from a harness loop (or a timer) and it grows the fleet under queue
/// pressure and shrinks it when idle, cloning new devices from a
/// template spec.
///
/// `step()` holds no state inside the cluster — the scaler owns the
/// cooldown counter and the metric time-series it windows over — so a
/// deterministic harness gets a deterministic scale curve for a
/// deterministic load.
pub struct AutoScaler {
    policy: ScalePolicy,
    /// Spec template for scale-up; the template's `name` becomes the
    /// prefix of generated device names (`<name>-0`, `<name>-1`, ...).
    template: DeviceSpec,
    next_id: u64,
    cooldown_left: u32,
    /// Fleet metric time-series: one [`SpiderCluster::fleet_metrics`]
    /// snapshot per `step()`. The p99 trigger reads
    /// `spider_scheduler_wait_us` over the window since the previous step
    /// — delta semantics come from [`SnapshotSeries::window`], the same
    /// source the alert engine evaluates, not from hand-diffed cumulative
    /// histograms. Lifetime history never haunts a long quiet cluster.
    series: SnapshotSeries,
    last_tick: u64,
}

impl AutoScaler {
    pub fn new(policy: ScalePolicy, template: DeviceSpec) -> Self {
        // Seed the series with an empty snapshot so the first step's
        // window covers everything served before it — the behavior the
        // old cumulative diff (against a default histogram) had.
        let mut series = SnapshotSeries::new(8);
        let last_tick = series.record(MetricsSnapshot::default());
        Self {
            policy,
            template,
            next_id: 0,
            cooldown_left: 0,
            series,
            last_tick,
        }
    }

    pub fn policy(&self) -> &ScalePolicy {
        &self.policy
    }

    /// Evaluate the signals and take at most one membership action.
    pub fn step(&mut self, cluster: &SpiderCluster) -> ScaleAction {
        let since = self.last_tick;
        self.last_tick = self.series.record(cluster.fleet_metrics());
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return ScaleAction::Hold;
        }
        let devices = cluster.devices();
        let p99_wait_us = self
            .series
            .window(since)
            .map(|w| w.histogram("spider_scheduler_wait_us").p99())
            .unwrap_or(0.0);
        if p99_wait_us > self.policy.p99_wait_hi.as_micros() as f64
            && devices < self.policy.max_devices
        {
            let name = format!("{}-{}", self.template.name, self.next_id);
            self.next_id += 1;
            let mut spec = self.template.clone();
            spec.name = name.clone();
            return match cluster.add_device(spec) {
                Ok(()) => {
                    self.cooldown_left = self.policy.cooldown;
                    ScaleAction::ScaledUp(name)
                }
                Err(_) => ScaleAction::Hold,
            };
        }
        if devices > self.policy.min_devices {
            let depths = cluster.queue_depths();
            let mean = depths.iter().sum::<usize>() / devices.max(1);
            if mean < self.policy.depth_lo {
                // LIFO victim selection: drain the most recently added
                // device, so a 2→8 burst response unwinds back to the
                // original 2 in reverse order.
                if let Some(victim) = cluster.device_names().pop() {
                    return match cluster.remove_device(&victim) {
                        Ok(_) => {
                            self.cooldown_left = self.policy.cooldown;
                            ScaleAction::ScaledDown(victim)
                        }
                        Err(_) => ScaleAction::Hold,
                    };
                }
            }
        }
        ScaleAction::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_budgets_consume() {
        let mut p = FaultPlan::kill_after("dev0", 3)
            .with_failed_submits(2)
            .with_failed_steals(1);
        assert!(p.take_submit_fault());
        assert!(p.take_submit_fault());
        assert!(!p.take_submit_fault());
        assert!(p.take_steal_fault());
        assert!(!p.take_steal_fault());
        assert_eq!(p.kill.as_ref().unwrap().after_waves, 3);
    }

    #[test]
    fn hang_plan_names_its_victim() {
        let p = FaultPlan::hang_after("dev1", 2);
        let h = p.hang.as_ref().unwrap();
        assert_eq!(h.device, "dev1");
        assert_eq!(h.after_waves, 2);
        assert!(p.kill.is_none());
    }

    #[test]
    fn retry_policy_default_is_one_bounded_attempt() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_attempts, 1);
    }
}
