//! Heartbeat health detection: missed-beat shard classification
//! (`Healthy → Suspect → Dead`) for [`SpiderCluster::health_tick`].
//!
//! Shards stamp a monotone progress beat; each tick counts the consecutive
//! ticks a *busy* shard went beatless. The unit is ticks of the owner's
//! monitoring loop, not wall time: a shard is suspected after
//! [`SUSPECT_AFTER_TICKS`] beatless-while-busy ticks and declared dead
//! after [`DEAD_AFTER_TICKS`]. Space ticks further apart than the longest
//! healthy dispatch wave, or a slow-but-alive shard will look stalled.
//!
//! Nothing here runs unless the cluster calls `observe`/`tick`, so a
//! cluster that is never health-ticked changes nothing.
//!
//! [`SpiderCluster::health_tick`]: crate::SpiderCluster::health_tick

use std::collections::BTreeMap;

/// Consecutive beatless-while-busy ticks before a shard is `Suspect`.
pub const SUSPECT_AFTER_TICKS: u64 = 2;

/// Consecutive beatless-while-busy ticks before a shard is `Dead`.
pub const DEAD_AFTER_TICKS: u64 = 4;

/// Shard liveness classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Beating (or idle — an idle shard owes no beats).
    Healthy,
    /// Busy but beatless for at least [`SUSPECT_AFTER_TICKS`] consecutive
    /// ticks.
    Suspect,
    /// Busy but beatless for at least [`DEAD_AFTER_TICKS`] consecutive
    /// ticks. Sticky: the cluster recovers the shard and stops monitoring
    /// it.
    Dead,
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            HealthState::Healthy => "healthy",
            HealthState::Suspect => "suspect",
            HealthState::Dead => "dead",
        })
    }
}

/// One shard state change a health tick produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthTransition {
    pub shard: String,
    pub from: HealthState,
    pub to: HealthState,
    /// Consecutive beatless-while-busy ticks at the transition.
    pub missed: u64,
}

#[derive(Debug)]
struct ShardHealth {
    /// Last beat value a `tick` processed; `None` until the first tick —
    /// a newly observed shard has no baseline and owes no beat yet.
    beat: Option<u64>,
    /// Latest observation, consumed by the next `tick`.
    observed: Option<(u64, bool)>,
    missed: u64,
    state: HealthState,
}

/// Deterministic missed-heartbeat detector over named shards.
///
/// The protocol has two explicit steps, both driven by the owner (no
/// background threads):
///
/// 1. [`Self::observe`] each shard's current monotone progress beat and
///    whether it is *busy* (has outstanding work). Idle shards owe no
///    beats — a drained, quiet shard is healthy, not dead.
/// 2. [`Self::tick`] classifies every observed shard and returns the
///    state transitions. `Dead` is sticky; the owner kills/recovers the
///    shard and calls [`Self::forget`] (or keeps polling — a dead shard
///    produces no further transitions).
#[derive(Debug, Default)]
pub(crate) struct HealthMonitor {
    shards: BTreeMap<String, ShardHealth>,
}

impl HealthMonitor {
    /// Record a shard's current beat and busy flag (registers unknown
    /// shards as `Healthy`).
    pub(crate) fn observe(&mut self, shard: &str, beat: u64, busy: bool) {
        self.shards
            .entry(shard.to_string())
            .or_insert(ShardHealth {
                beat: None,
                observed: None,
                missed: 0,
                state: HealthState::Healthy,
            })
            .observed = Some((beat, busy));
    }

    /// Drop a shard from monitoring (it departed the fleet).
    pub(crate) fn forget(&mut self, shard: &str) {
        self.shards.remove(shard);
    }

    /// Every monitored shard's classification, name-sorted.
    pub(crate) fn states(&self) -> Vec<(String, HealthState)> {
        self.shards
            .iter()
            .map(|(n, s)| (n.clone(), s.state))
            .collect()
    }

    /// Classify every shard observed since the last tick and return the
    /// transitions.
    pub(crate) fn tick(&mut self) -> Vec<HealthTransition> {
        let mut out = Vec::new();
        for (name, shard) in self.shards.iter_mut() {
            let Some((beat, busy)) = shard.observed.take() else {
                continue; // not observed this round: no verdict without data
            };
            if shard.state == HealthState::Dead {
                continue; // sticky until forgotten
            }
            let advanced = shard.beat != Some(beat);
            shard.beat = Some(beat);
            if !busy || advanced {
                shard.missed = 0;
            } else {
                shard.missed += 1;
            }
            let next = if shard.missed >= DEAD_AFTER_TICKS {
                HealthState::Dead
            } else if shard.missed >= SUSPECT_AFTER_TICKS {
                HealthState::Suspect
            } else {
                HealthState::Healthy
            };
            if next != shard.state {
                out.push(HealthTransition {
                    shard: name.clone(),
                    from: shard.state,
                    to: next,
                    missed: shard.missed,
                });
                shard.state = next;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(hm: &HealthMonitor, shard: &str) -> Option<HealthState> {
        hm.states()
            .into_iter()
            .find(|(n, _)| n == shard)
            .map(|(_, s)| s)
    }

    /// Observe `shard` at `beat` and tick `n` times; the transitions of
    /// the last tick.
    fn stall(hm: &mut HealthMonitor, shard: &str, beat: u64, n: u64) -> Vec<HealthTransition> {
        let mut last = Vec::new();
        for _ in 0..n {
            hm.observe(shard, beat, true);
            last = hm.tick();
        }
        last
    }

    #[test]
    fn health_monitor_classifies_healthy_suspect_dead() {
        let mut hm = HealthMonitor::default();
        // Beating shard stays healthy.
        for beat in 0..3 {
            hm.observe("dev0", beat, true);
            assert!(hm.tick().is_empty());
        }
        assert_eq!(state(&hm, "dev0"), Some(HealthState::Healthy));
        // Beat stalls while busy: quiet below the suspect threshold.
        assert!(stall(&mut hm, "dev0", 2, SUSPECT_AFTER_TICKS - 1).is_empty());
        let t = stall(&mut hm, "dev0", 2, 1);
        assert_eq!(t.len(), 1);
        assert_eq!(
            (t[0].from, t[0].to, t[0].missed),
            (
                HealthState::Healthy,
                HealthState::Suspect,
                SUSPECT_AFTER_TICKS
            )
        );
        // Suspect holds until the dead threshold.
        let gap = DEAD_AFTER_TICKS - SUSPECT_AFTER_TICKS;
        assert!(stall(&mut hm, "dev0", 2, gap - 1).is_empty());
        let t = stall(&mut hm, "dev0", 2, 1);
        assert_eq!(t.len(), 1);
        assert_eq!(
            (t[0].from, t[0].to),
            (HealthState::Suspect, HealthState::Dead)
        );
        assert_eq!(t[0].missed, DEAD_AFTER_TICKS);
        // Dead is sticky — even a returning beat produces no transition.
        hm.observe("dev0", 50, true);
        assert!(hm.tick().is_empty());
        assert_eq!(state(&hm, "dev0"), Some(HealthState::Dead));
        hm.forget("dev0");
        assert_eq!(state(&hm, "dev0"), None);
    }

    #[test]
    fn idle_shards_owe_no_beats() {
        let mut hm = HealthMonitor::default();
        for _ in 0..2 * DEAD_AFTER_TICKS {
            hm.observe("quiet", 7, false); // same beat forever, but idle
            assert!(hm.tick().is_empty());
        }
        assert_eq!(state(&hm, "quiet"), Some(HealthState::Healthy));
        // A suspect shard that goes idle recovers. The first tick sets the
        // beat baseline.
        let t = stall(&mut hm, "busy", 1, SUSPECT_AFTER_TICKS + 1);
        assert_eq!(t[0].to, HealthState::Suspect);
        hm.observe("busy", 1, false);
        let t = hm.tick();
        assert_eq!(
            (t[0].from, t[0].to),
            (HealthState::Suspect, HealthState::Healthy)
        );
    }

    #[test]
    fn unobserved_shards_get_no_verdict() {
        let mut hm = HealthMonitor::default();
        hm.observe("dev0", 0, true);
        hm.tick();
        // No observe before the next ticks: no data, no verdict drift.
        for _ in 0..2 * DEAD_AFTER_TICKS {
            assert!(hm.tick().is_empty());
        }
        assert_eq!(state(&hm, "dev0"), Some(HealthState::Healthy));
    }
}
