//! Failure tolerance: fault injection and recovery accounting.
//!
//! [`FaultPlan`] is deterministic fault injection. Arm it with
//! [`crate::SpiderCluster::inject_faults`] and drive it with
//! [`crate::SpiderCluster::fault_tick`]: a kill trigger hard-kills a named
//! device once its scheduler has dispatched `after_waves` waves (mid-batch
//! by construction), a hang trigger silently freezes one — no declaration,
//! detected only by [`crate::SpiderCluster::health_tick`]'s
//! missed-heartbeat monitor — and the `fail_submits` / `fail_steals`
//! budgets inject refusals into the submit and placement paths so tests
//! can prove callers survive them.
//!
//! What a device loss does to its work is fixed. Queued work is requeued
//! exactly-once (it never started — nothing was lost but a queue
//! position); *running* work died with the device and is re-routed to a
//! survivor once. A request whose retry dies too stays
//! `Failed { reason: DeviceLost }`. Retried requests produce bit-identical
//! outcomes — plans are content-addressed and devices simulate
//! deterministically. [`RecoveryReport`] counts each kind.

/// Hard-kill trigger: fail `device` once it has dispatched `after_waves`
/// scheduler waves (0 = on the next [`crate::SpiderCluster::fault_tick`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KillTrigger {
    /// Name of the device to kill.
    pub device: String,
    /// Dispatch-wave threshold on that device's scheduler: the kill fires
    /// at the first `fault_tick` at which `dispatch_waves >= after_waves`.
    pub after_waves: u64,
}

/// Deterministic fault-injection plan, armed on a cluster with
/// [`crate::SpiderCluster::inject_faults`]. All triggers are evaluated by
/// explicit [`crate::SpiderCluster::fault_tick`] calls — nothing fires from a
/// background thread, so tests and the example replay faults exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Hard-kill a device mid-batch (consumed when it fires).
    pub kill: Option<KillTrigger>,
    /// Silently *hang* a device mid-batch (consumed when it fires): once
    /// the target has dispatched `after_waves` waves, its dispatch pauses
    /// and its progress beat stops — with no kill declaration, no event
    /// and no recovery. The hang persists (even across
    /// [`crate::SpiderCluster::resume_all`]) until
    /// [`crate::SpiderCluster::health_tick`] notices the missed heartbeats and
    /// kills the device through the standard recovery path — the failure
    /// mode heartbeat detection exists to catch.
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

/// What one device failure's recovery accomplished. Its counts add to the
/// cluster's `requeued`, `retried` and `unplaced` counters by exactly these
/// amounts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Unstarted (queued) requests moved to survivors exactly-once.
    pub requeued: usize,
    /// In-flight casualties re-routed to a survivor for their one retry.
    pub retried: usize,
    /// In-flight casualties left as `Failed { reason: DeviceLost }`: their
    /// retry was the one that died.
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
}
