//! Aggregated results of a batch run.

use std::sync::Arc;

use spider_core::tiling::TilingConfig;
use spider_gpu_sim::timing::KernelReport;
use spider_telemetry::{render_top_profiles, LogHistogram, MetricsSnapshot, PlanProfile};

use crate::cache::CacheStats;
use crate::request::TenantId;

/// What happened to one request.
///
/// The report and the scenario label are shared (`Arc`), so the copies a
/// scheduler hands out on every poll and drain stay small.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    pub id: u64,
    /// `shape@extent`, e.g. `Box-2D2R@4096x2048`.
    pub scenario: Arc<str>,
    /// Whether the plan lookup hit the cache.
    pub cache_hit: bool,
    /// Whether the tuner outcome was served from its memo table.
    pub tuner_memo_hit: bool,
    /// Whether the request executed through a shared (coalesced) executor
    /// alongside at least one other request with the same plan and exec key.
    pub coalesced: bool,
    /// Whether this was a 3D (volumetric) request served through the plane
    /// decomposition.
    pub volumetric: bool,
    /// The tiling the request executed with (for volumes: the plane tiling).
    pub tiling: TilingConfig,
    /// Simulated-GPU execution report (all sweeps merged).
    pub report: Arc<KernelReport>,
    /// [`crate::output_checksum`] of the output grid: a cheap determinism /
    /// plan-reuse witness (equal inputs + equal plans ⇒ equal checksums).
    pub checksum: u64,
}

/// Admission-queue counters attached to a scheduler drain report.
///
/// All counters are cumulative since the scheduler was constructed. Wait
/// times measure submission → dispatch (queueing delay only, not execution).
/// A scheduler keeps one row per tenant; its scheduler-wide row is the fold
/// of those rows.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueueStats {
    /// Tickets admitted to the queue (excludes rejected submissions).
    pub submitted: u64,
    /// Tickets that executed and produced an outcome.
    pub completed: u64,
    /// Tickets that executed and failed.
    pub failed: u64,
    /// Tickets evicted by the `ShedLowestPriority` backpressure policy.
    pub shed: u64,
    /// Tickets whose deadline passed before dispatch (never executed).
    pub expired: u64,
    /// Tickets cancelled via [`crate::SpiderScheduler::cancel`] while still
    /// queued (never executed). The cluster router's steal-and-requeue path
    /// shows up here on the device the work was stolen *from*.
    pub cancelled: u64,
    /// Submissions refused outright by the `Reject` backpressure policy.
    pub rejected: u64,
    /// Highest queued-request count observed.
    pub max_depth: usize,
    /// Dispatch waves the scheduler ran (one wave = one top-priority cohort).
    pub dispatch_waves: u64,
    /// Jobs those waves ran as, summed: a wave whose work pays for waking
    /// another core runs as up to one job per core, any other as one job
    /// on the dispatcher thread. `wave_jobs − dispatch_waves` is how many
    /// helper threads the waves started.
    pub wave_jobs: u64,
    /// Plan-key groups executed across all waves.
    pub coalesced_groups: u64,
    /// Work dispatched, in deficit-round-robin cost units (grid points ×
    /// sweeps). The denominator of weighted-fairness checks: under
    /// saturation, two tenants' `served_cost` rates track their configured
    /// weight ratio.
    pub served_cost: u64,
    /// Total queueing delay across dispatched tickets, seconds.
    pub total_wait_s: f64,
    /// Worst single-ticket queueing delay, seconds.
    pub max_wait_s: f64,
    /// Log-scale distribution of the per-ticket queueing delays behind the
    /// mean/max above, in microseconds.
    pub wait_hist: LogHistogram,
}

impl QueueStats {
    /// Mean queueing delay per dispatched ticket (0 when nothing was
    /// dispatched — a fully shed/expired queue must not divide by zero).
    pub fn mean_wait_s(&self) -> f64 {
        let dispatched = self.completed + self.failed;
        if dispatched == 0 {
            0.0
        } else {
            self.total_wait_s / dispatched as f64
        }
    }

    /// Estimated 99th-percentile queueing delay, seconds (0 when nothing
    /// was dispatched) — the tail the SLO gate watches.
    pub fn p99_wait_s(&self) -> f64 {
        self.wait_hist.p99() / 1e6
    }

    /// Fold one tenant row into this scheduler-wide row: counts and the
    /// wait total add, the worst wait is the larger of the two, and the
    /// histograms merge. `max_depth`, `dispatch_waves`, `wave_jobs` and
    /// `coalesced_groups` are not sums of rows and are left alone.
    pub(crate) fn add_row(&mut self, row: &QueueStats) {
        self.submitted += row.submitted;
        self.completed += row.completed;
        self.failed += row.failed;
        self.shed += row.shed;
        self.expired += row.expired;
        self.cancelled += row.cancelled;
        self.rejected += row.rejected;
        self.served_cost += row.served_cost;
        self.total_wait_s += row.total_wait_s;
        self.max_wait_s = self.max_wait_s.max(row.max_wait_s);
        self.wait_hist.merge(&row.wait_hist);
    }

    /// Write this row into `snap` as the `spider_scheduler_*` row metrics:
    /// the scheduler-wide row in a scheduler's export, a tenant's row in
    /// its labelled block.
    pub(crate) fn write_metrics(&self, snap: &mut MetricsSnapshot) {
        snap.counter("spider_scheduler_submitted_total", self.submitted);
        snap.counter("spider_scheduler_completed_total", self.completed);
        snap.counter("spider_scheduler_failed_total", self.failed);
        snap.counter("spider_scheduler_shed_total", self.shed);
        snap.counter("spider_scheduler_expired_total", self.expired);
        snap.counter("spider_scheduler_cancelled_total", self.cancelled);
        snap.counter("spider_scheduler_rejected_total", self.rejected);
        snap.counter("spider_scheduler_served_cost_total", self.served_cost);
        snap.histogram("spider_scheduler_wait_us", self.wait_hist);
    }
}

/// Aggregate of one [`crate::SpiderRuntime::run_batch`] call or one
/// [`crate::SpiderScheduler::drain`].
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Per-request outcomes, in submission order.
    pub outcomes: Vec<RequestOutcome>,
    /// Requests that failed, with their error strings (submission order).
    pub failures: Vec<(u64, String)>,
    /// Host wall-clock time for the whole batch.
    pub wall_s: f64,
    /// Plan-cache counters *after* this batch (cumulative for the runtime).
    pub cache: CacheStats,
    /// Admission-queue counters — `Some` only for scheduler drain reports
    /// (the blocking `run_batch` path has no queue).
    pub queue: Option<QueueStats>,
    /// Per-tenant admission-queue counters, sorted by tenant id — filled by
    /// scheduler drain reports (anonymous traffic appears under
    /// [`TenantId::ANONYMOUS`]); empty for the blocking `run_batch` path.
    /// [`Self::queue`] is the fold of these rows, so they sum to it by
    /// construction.
    pub tenants: Vec<(TenantId, QueueStats)>,
    /// Per-plan phase profiles (heaviest first), filled from the runtime's
    /// [`spider_telemetry::PhaseProfiler`] when telemetry is enabled; empty
    /// otherwise. Cumulative for the runtime, like [`Self::cache`].
    pub profile: Vec<PlanProfile>,
}

impl RuntimeReport {
    /// Completed requests per host wall-clock second.
    pub fn requests_per_sec(&self) -> f64 {
        if self.wall_s <= 0.0 || self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.len() as f64 / self.wall_s
    }

    /// Total stencil points updated (all sweeps of all requests).
    pub fn total_points(&self) -> u64 {
        self.outcomes.iter().map(|o| o.report.points).sum()
    }

    /// Completed 3D (volumetric) requests in this report.
    pub fn volumetric_completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.volumetric).count()
    }

    /// Stencil points updated by volumetric requests (all sweeps).
    pub fn volumetric_points(&self) -> u64 {
        self.outcomes
            .iter()
            .filter(|o| o.volumetric)
            .map(|o| o.report.points)
            .sum()
    }

    /// Total simulated device-busy time across this report's outcomes —
    /// **one device's clock**: the outcomes of a single runtime execute on
    /// its single simulated device, so their times add serially.
    ///
    /// This is the field to reach for when merging reports from *several*
    /// devices: summing whole-fleet busy time is meaningful (serial
    /// equivalent), but summing the derived per-device *rates* is not —
    /// devices run concurrently, so fleet-level rates must divide by a
    /// makespan, not by a sum of clocks. `spider-cluster`'s `ClusterReport`
    /// does exactly that and keeps the two labeled apart.
    pub fn simulated_busy_s(&self) -> f64 {
        // Folded from +0.0: an empty `f64` sum is -0.0, which would render
        // as `-0.0us`.
        self.outcomes
            .iter()
            .fold(0.0, |busy, o| busy + o.report.time_s())
    }

    /// Aggregate simulated throughput: total points over total simulated
    /// GPU time (the serving-side analogue of the paper's GStencils/s).
    ///
    /// **Per-device clock**: valid for the single device this report came
    /// from. Do not sum across devices — see [`Self::simulated_busy_s`].
    pub fn simulated_gstencils_per_sec(&self) -> f64 {
        let sim_s = self.simulated_busy_s();
        if sim_s <= 0.0 {
            return 0.0;
        }
        self.total_points() as f64 / sim_s / 1e9
    }

    /// Fraction of this batch's plan lookups that hit the cache.
    ///
    /// A batch that executed zero requests — every submission shed, expired
    /// or rejected — performed zero plan lookups; its hit rate is defined as
    /// 0 rather than the NaN a naive `0 / 0` would produce.
    pub fn batch_hit_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let hits = self.outcomes.iter().filter(|o| o.cache_hit).count();
        hits as f64 / self.outcomes.len() as f64
    }

    /// Whether every derived rate in this report is a finite number —
    /// the invariant the 0-request guards exist to uphold.
    pub fn rates_are_finite(&self) -> bool {
        let mut rates = vec![
            self.requests_per_sec(),
            self.simulated_gstencils_per_sec(),
            self.batch_hit_rate(),
            self.cache.hit_rate(),
        ];
        if let Some(q) = &self.queue {
            rates.push(q.mean_wait_s());
            rates.push(q.max_wait_s);
            rates.push(q.p99_wait_s());
        }
        for (_, q) in &self.tenants {
            rates.push(q.mean_wait_s());
            rates.push(q.p99_wait_s());
        }
        rates.iter().all(|r| r.is_finite())
    }

    /// Queue counters for one tenant, if it appeared in this report.
    pub fn tenant_queue(&self, tenant: TenantId) -> Option<&QueueStats> {
        self.tenants
            .iter()
            .find(|(t, _)| *t == tenant)
            .map(|(_, q)| q)
    }

    /// Render a summary table plus aggregate lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>6}  {:<22} {:>5} {:>12} {:>14}\n",
            "id", "scenario", "cache", "sim time", "GStencil/s"
        ));
        for o in &self.outcomes {
            out.push_str(&format!(
                "{:>6}  {:<22} {:>5} {:>10.3}us {:>14.2}\n",
                o.id,
                o.scenario,
                if o.cache_hit { "hit" } else { "miss" },
                o.report.time_s() * 1e6,
                o.report.gstencils_per_sec()
            ));
        }
        for (id, err) in &self.failures {
            out.push_str(&format!("{id:>6}  FAILED: {err}\n"));
        }
        if self.volumetric_completed() > 0 {
            out.push_str(&format!(
                "volumetric: {} of {} requests ({:.2} Mpoints)\n",
                self.volumetric_completed(),
                self.outcomes.len(),
                self.volumetric_points() as f64 / 1e6,
            ));
        }
        out.push_str(&format!(
            "batch: {} ok / {} failed | wall {:.3}s | {:.1} req/s | {:.2} simulated GStencil/s | batch hit rate {:.0}% | cache {}H/{}M/{}E\n",
            self.outcomes.len(),
            self.failures.len(),
            self.wall_s,
            self.requests_per_sec(),
            self.simulated_gstencils_per_sec(),
            self.batch_hit_rate() * 100.0,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
        ));
        if let Some(q) = &self.queue {
            out.push_str(&format!(
                "queue: {} submitted | {} shed | {} expired | {} cancelled | {} rejected | max depth {} | {} waves / {} groups | wait mean {:.3}ms max {:.3}ms\n",
                q.submitted,
                q.shed,
                q.expired,
                q.cancelled,
                q.rejected,
                q.max_depth,
                q.dispatch_waves,
                q.coalesced_groups,
                q.mean_wait_s() * 1e3,
                q.max_wait_s * 1e3,
            ));
            let waits = if q.wait_hist.count() == 0 {
                "(no dispatched requests)".into()
            } else {
                q.wait_hist.render_us()
            };
            out.push_str(&format!("queue wait histogram: {waits}\n"));
        }
        // Per-tenant breakdown — skipped when the only traffic was the
        // implicit anonymous tenant (the line would repeat the global row).
        let lone_anonymous = self.tenants.len() == 1 && self.tenants[0].0.is_anonymous();
        if !self.tenants.is_empty() && !lone_anonymous {
            for (tenant, q) in &self.tenants {
                out.push_str(&format!(
                    "tenant {:<12} {} submitted | {} done | {} shed | {} expired | {} rejected | {:.2} Mcost | wait mean {:.3}ms p99 {:.3}ms\n",
                    tenant.label(),
                    q.submitted,
                    q.completed,
                    q.shed,
                    q.expired,
                    q.rejected,
                    q.served_cost as f64 / 1e6,
                    q.mean_wait_s() * 1e3,
                    q.p99_wait_s() * 1e3,
                ));
            }
        }
        out.push_str(&render_top_profiles(&self.profile));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_waits_record_in_microseconds_and_read_in_seconds() {
        let mut q = QueueStats::default();
        assert_eq!(q.p99_wait_s(), 0.0, "no dispatch, no tail");
        let empty = RuntimeReport {
            outcomes: Vec::new(),
            failures: Vec::new(),
            wall_s: 0.0,
            cache: CacheStats::default(),
            queue: Some(q),
            tenants: Vec::new(),
            profile: Vec::new(),
        };
        assert!(
            empty
                .render()
                .contains("queue wait histogram: (no dispatched requests)\n"),
            "{}",
            empty.render()
        );
        for _ in 0..10 {
            q.wait_hist.record(100.0); // 100 µs: [64µs,128µs)
        }
        let p99 = q.p99_wait_s();
        assert!((64e-6..=128e-6).contains(&p99), "{p99}");
        let report = RuntimeReport {
            queue: Some(q),
            ..empty
        };
        assert!(
            report
                .render()
                .contains("queue wait histogram: [64\u{b5}s,128\u{b5}s):10\n"),
            "{}",
            report.render()
        );
    }

    /// Satellite regression: a batch where everything was shed/expired has
    /// zero outcomes, and no derived rate may be NaN (hit rate = 0/0 guard).
    #[test]
    fn fully_shed_report_has_finite_rates() {
        let report = RuntimeReport {
            outcomes: Vec::new(),
            failures: Vec::new(),
            wall_s: 0.01,
            cache: CacheStats::default(),
            queue: Some(QueueStats {
                submitted: 4,
                shed: 2,
                expired: 2,
                max_depth: 4,
                ..QueueStats::default()
            }),
            tenants: Vec::new(),
            profile: Vec::new(),
        };
        assert!(report.rates_are_finite());
        assert_eq!(report.batch_hit_rate(), 0.0);
        assert_eq!(report.requests_per_sec(), 0.0);
        assert_eq!(report.queue.unwrap().mean_wait_s(), 0.0);
        let text = report.render();
        assert!(!text.contains("NaN"), "render leaked a NaN:\n{text}");
        assert!(text.contains("2 expired"));
    }

    #[test]
    fn zero_wall_clock_report_has_finite_rates() {
        let report = RuntimeReport {
            outcomes: Vec::new(),
            failures: vec![(7, "boom".into())],
            wall_s: 0.0,
            cache: CacheStats::default(),
            queue: None,
            tenants: Vec::new(),
            profile: Vec::new(),
        };
        assert!(report.rates_are_finite());
    }
}
