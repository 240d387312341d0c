//! Per-plan_key phase profiling.
//!
//! Answers "which plan is burning the budget, and in which phase" — the
//! serving-layer analogue of the simulator's swap/pack/MMA/launch breakdown.
//! Each plan fingerprint accumulates wall time per lifecycle phase
//! (queue/resolve/tune/exec), simulated execution time and compile counts.
//! All but the label are a fold of the trace: `Telemetry::flush` folds in
//! each event it appends, under one lock per batch, so serving code
//! attributes a phase by closing its span and calls nothing here for it.
//! The same fold keeps two runtime-wide histograms: each done request's
//! simulated time, and each request's service time, which its batch
//! carries beside its events. Exports:
//!
//! * [`PhaseProfiler::top`] — the heaviest plans, for the `top plans`
//!   table in drain reports ([`render_top_profiles`]);
//! * [`PhaseProfiler::folded`] — folded-stack lines
//!   (`scenario;phase <µs>`) consumable by standard flamegraph tooling.

use spider_core::sync::{LockRank, OrderedMutex};
use std::collections::HashMap;

use crate::hist::LogHistogram;
use crate::trace::{Event, EventKind, Phase, ResolveSource, Terminal};

/// Accumulated per-plan phase totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStats {
    /// Requests that finished execution under this plan.
    pub requests: u64,
    /// Admission-queue residence, seconds (scheduler path only).
    pub queue_s: f64,
    /// Plan lookup / compile wall time, seconds.
    pub resolve_s: f64,
    /// Tiling-selection wall time, seconds.
    pub tune_s: f64,
    /// Execution wall time, seconds (host clock around the simulator).
    pub exec_wall_s: f64,
    /// Simulated GPU time, seconds.
    pub exec_sim_s: f64,
    /// Fresh compiles charged to this plan.
    pub compiles: u64,
}

impl PhaseStats {
    /// Total attributed wall time across all phases, seconds — the sort key
    /// for `top plans`.
    pub fn total_wall_s(&self) -> f64 {
        self.queue_s + self.resolve_s + self.tune_s + self.exec_wall_s
    }

    fn add_phase(&mut self, phase: Phase, secs: f64) {
        let secs = secs.max(0.0);
        match phase {
            Phase::Queue => self.queue_s += secs,
            Phase::Resolve => self.resolve_s += secs,
            Phase::Tune => self.tune_s += secs,
            Phase::Exec => self.exec_wall_s += secs,
        }
    }

    /// Add another plan's totals into this one (fleet aggregation).
    pub fn merge(&mut self, other: &Self) {
        self.requests += other.requests;
        self.queue_s += other.queue_s;
        self.resolve_s += other.resolve_s;
        self.tune_s += other.tune_s;
        self.exec_wall_s += other.exec_wall_s;
        self.exec_sim_s += other.exec_sim_s;
        self.compiles += other.compiles;
    }
}

/// One plan's profile: fingerprint, human label (the scenario of the first
/// request seen under the plan) and accumulated stats.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanProfile {
    pub plan_key: u64,
    pub label: String,
    pub stats: PhaseStats,
}

/// Thread-safe per-plan_key accumulator.
#[derive(Debug)]
pub struct PhaseProfiler {
    inner: OrderedMutex<Table>,
}

#[derive(Debug, Default)]
struct Table {
    plans: HashMap<u64, (String, PhaseStats)>,
    /// Each request's service time, µs.
    service_us: LogHistogram,
    /// Each done request's simulated execution time, µs.
    sim_exec_us: LogHistogram,
}

impl Default for PhaseProfiler {
    fn default() -> Self {
        Self {
            inner: OrderedMutex::new(LockRank::Profiler, "profiler.table", Table::default()),
        }
    }
}

/// Whether the profiler folds an event of this kind.
fn folds(kind: &EventKind) -> bool {
    matches!(
        kind,
        EventKind::SpanExit { .. }
            | EventKind::PlanResolve {
                source: ResolveSource::Compile
            }
            | EventKind::Complete {
                terminal: Terminal::Done
            }
    )
}

impl PhaseProfiler {
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensure the plan exists and label it (first label wins; labels are
    /// scenarios like `Box-2D2R@96x128`, identical for every request that
    /// shares a plan key). `label` is called only while the plan has no
    /// label, so a labelled plan formats nothing.
    pub fn touch(&self, plan_key: u64, label: impl FnOnce() -> String) {
        let mut table = self.inner.lock();
        let (l, _) = table.plans.entry(plan_key).or_default();
        if l.is_empty() {
            *l = label();
        }
    }

    /// Fold batches under one lock: a span exit adds its wall time to
    /// its plan's phase, a `PlanResolve { Compile }` counts a compile, and
    /// a `Complete { Done }` counts a request with its simulated time. The
    /// batch's service times add in. One row lookup per run of events that
    /// share a plan key (a serving group's are one run).
    pub(crate) fn fold<'e>(
        &self,
        parts: impl IntoIterator<Item = &'e [Event]>,
        service_us: impl IntoIterator<Item = &'e LogHistogram>,
    ) {
        let mut table = self.inner.lock();
        let Table {
            plans,
            service_us: service,
            sim_exec_us,
        } = &mut *table;
        service_us.into_iter().for_each(|h| service.merge(h));
        let runs = parts
            .into_iter()
            .flat_map(|events| events.chunk_by(|a, b| a.plan_key == b.plan_key));
        for run in runs {
            if !run.iter().any(|e| folds(&e.kind)) {
                continue;
            }
            let (_, stats) = plans.entry(run[0].plan_key).or_default();
            for e in run {
                match e.kind {
                    EventKind::SpanExit { phase, elapsed_s } => stats.add_phase(phase, elapsed_s),
                    EventKind::PlanResolve {
                        source: ResolveSource::Compile,
                    } => stats.compiles += 1,
                    EventKind::Complete {
                        terminal: Terminal::Done,
                    } => {
                        stats.requests += 1;
                        stats.exec_sim_s += e.sim_s.max(0.0);
                        sim_exec_us.record(e.sim_s * 1e6);
                    }
                    _ => {}
                }
            }
        }
    }

    /// Every request's service time so far, µs (the runtime's
    /// `spider_runtime_service_time_us`).
    pub fn service_us(&self) -> LogHistogram {
        self.inner.lock().service_us
    }

    /// Every done request's simulated execution time so far, µs (the
    /// runtime's `spider_runtime_sim_exec_us`).
    pub fn sim_exec_us(&self) -> LogHistogram {
        self.inner.lock().sim_exec_us
    }

    /// All profiles, heaviest (total wall time) first; ties break by plan
    /// key so the order is deterministic.
    pub fn snapshot(&self) -> Vec<PlanProfile> {
        let table = self.inner.lock();
        let mut out: Vec<PlanProfile> = table
            .plans
            .iter()
            .map(|(&plan_key, (label, stats))| PlanProfile {
                plan_key,
                label: label.clone(),
                stats: *stats,
            })
            .collect();
        drop(table);
        sort_profiles(&mut out);
        out
    }

    /// The `n` heaviest plans.
    pub fn top(&self, n: usize) -> Vec<PlanProfile> {
        let mut all = self.snapshot();
        all.truncate(n);
        all
    }

    /// Folded-stack export (`frame;frame count` per line, counts in whole
    /// microseconds) for flamegraph tooling. The root frame is the plan's
    /// scenario label (fingerprint when unlabeled), the leaf is the phase.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for p in self.snapshot() {
            let root = if p.label.is_empty() {
                format!("plan_{:#018x}", p.plan_key)
            } else {
                p.label.replace([';', ' '], "_")
            };
            for (phase, secs) in [
                ("queue", p.stats.queue_s),
                ("resolve", p.stats.resolve_s),
                ("tune", p.stats.tune_s),
                ("exec", p.stats.exec_wall_s),
            ] {
                let us = (secs * 1e6).round() as u64;
                if us > 0 {
                    out.push_str(&format!("{root};{phase} {us}\n"));
                }
            }
        }
        out
    }
}

/// Heaviest-first, plan-key tiebreak (shared by profiler and fleet merges).
pub fn sort_profiles(profiles: &mut [PlanProfile]) {
    profiles.sort_by(|a, b| {
        b.stats
            .total_wall_s()
            .partial_cmp(&a.stats.total_wall_s())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.plan_key.cmp(&b.plan_key))
    });
}

/// Merge per-device profile lists into one fleet list (stats add per plan
/// key; first non-empty label wins), heaviest first.
pub fn merge_profiles(lists: &[Vec<PlanProfile>]) -> Vec<PlanProfile> {
    let mut by_key: HashMap<u64, PlanProfile> = HashMap::new();
    for list in lists {
        for p in list {
            match by_key.entry(p.plan_key) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(p.clone());
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let merged = e.get_mut();
                    if merged.label.is_empty() {
                        merged.label = p.label.clone();
                    }
                    merged.stats.merge(&p.stats);
                }
            }
        }
    }
    let mut out: Vec<PlanProfile> = by_key.into_values().collect();
    sort_profiles(&mut out);
    out
}

/// Render a profile list as the `top plans` table (used by
/// `RuntimeReport::render` and the cluster's fleet view).
pub fn render_top_profiles(profiles: &[PlanProfile]) -> String {
    if profiles.is_empty() {
        return String::new();
    }
    let mut out = format!(
        "top plans by wall time:\n{:>18}  {:<22} {:>5} {:>10} {:>10} {:>10} {:>10} {:>11} {:>8}\n",
        "plan", "scenario", "reqs", "queue", "resolve", "tune", "exec", "sim", "compile"
    );
    for p in profiles {
        out.push_str(&format!(
            "{:#018x}  {:<22} {:>5} {:>8.3}ms {:>8.3}ms {:>8.3}ms {:>8.3}ms {:>9.3}\u{b5}s {:>8}\n",
            p.plan_key,
            p.label,
            p.stats.requests,
            p.stats.queue_s * 1e3,
            p.stats.resolve_s * 1e3,
            p.stats.tune_s * 1e3,
            p.stats.exec_wall_s * 1e3,
            p.stats.exec_sim_s * 1e6,
            p.stats.compiles,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Who;
    use crate::Telemetry;

    /// Events of `who` folded as one flushed batch would be.
    fn fold(prof: &PhaseProfiler, who: Who, kinds: &[(EventKind, f64)]) {
        let events: Vec<Event> = kinds
            .iter()
            .map(|&(kind, sim_s)| Event {
                seq: 0,
                request_id: who.request_id,
                plan_key: who.plan_key,
                wall_s: 0.0,
                sim_s,
                attempt: who.attempt,
                kind,
            })
            .collect();
        prof.fold([events.as_slice()], []);
    }

    fn exit(phase: Phase, elapsed_s: f64) -> (EventKind, f64) {
        (EventKind::SpanExit { phase, elapsed_s }, 0.0)
    }

    const DONE: EventKind = EventKind::Complete {
        terminal: Terminal::Done,
    };
    const COMPILE: EventKind = EventKind::PlanResolve {
        source: ResolveSource::Compile,
    };

    #[test]
    fn accumulates_phases_per_plan() {
        let prof = PhaseProfiler::new();
        prof.touch(1, || "Box-2D1R@64x64".into());
        // The first label wins: a labelled plan builds no other.
        prof.touch(1, || unreachable!("plan 1 is labelled"));
        let one = Who::new(9, 1, 0);
        fold(
            &prof,
            one,
            &[
                exit(Phase::Resolve, 0.002),
                (COMPILE, 0.0),
                exit(Phase::Exec, 0.010),
                (DONE, 50e-6),
            ],
        );
        fold(&prof, Who::new(9, 2, 0), &[exit(Phase::Exec, 0.001)]);

        let snap = prof.snapshot();
        assert_eq!(snap.len(), 2);
        // Plan 1 is heavier, so it sorts first.
        assert_eq!(snap[0].plan_key, 1);
        assert_eq!(snap[0].label, "Box-2D1R@64x64");
        let s = snap[0].stats;
        assert_eq!(s.requests, 1);
        assert_eq!(s.compiles, 1);
        assert!((s.resolve_s - 0.002).abs() < 1e-12);
        assert!((s.total_wall_s() - 0.012).abs() < 1e-12);
        assert!((s.exec_sim_s - 50e-6).abs() < 1e-12);
        assert_eq!(prof.sim_exec_us().count(), 1);
        // Unlabeled plan 2 still profiles.
        assert_eq!(snap[1].plan_key, 2);
        assert_eq!(snap[1].label, "");
        assert_eq!(prof.top(1).len(), 1);
    }

    #[test]
    fn events_that_fold_nothing_make_no_row() {
        let prof = PhaseProfiler::new();
        let cache_hit = EventKind::PlanResolve {
            source: ResolveSource::CacheHit,
        };
        fold(
            &prof,
            Who::new(1, 3, 0),
            &[(EventKind::Admit, 0.0), (cache_hit, 0.0)],
        );
        assert!(prof.snapshot().is_empty());
    }

    #[test]
    fn negative_durations_clamp_to_zero() {
        let prof = PhaseProfiler::new();
        fold(
            &prof,
            Who::new(1, 1, 0),
            &[exit(Phase::Queue, -1.0), (DONE, -1.0)],
        );
        let s = prof.snapshot()[0].stats;
        assert_eq!(s.queue_s, 0.0);
        assert_eq!(s.exec_sim_s, 0.0);
    }

    #[test]
    fn folded_stacks_emit_per_phase_lines() {
        let prof = PhaseProfiler::new();
        prof.touch(1, || "Star-2D1R@32x32".into());
        fold(
            &prof,
            Who::new(1, 1, 0),
            &[exit(Phase::Resolve, 150e-6), exit(Phase::Exec, 2.5e-3)],
        );
        let folded = prof.folded();
        assert!(folded.contains("Star-2D1R@32x32;resolve 150\n"), "{folded}");
        assert!(folded.contains("Star-2D1R@32x32;exec 2500\n"), "{folded}");
        // Zero-time phases are omitted.
        assert!(!folded.contains(";queue"), "{folded}");
    }

    #[test]
    fn merge_profiles_adds_per_key() {
        let a = vec![PlanProfile {
            plan_key: 1,
            label: String::new(),
            stats: PhaseStats {
                requests: 2,
                exec_wall_s: 0.5,
                ..PhaseStats::default()
            },
        }];
        let b = vec![
            PlanProfile {
                plan_key: 1,
                label: "Box-2D1R@64x64".into(),
                stats: PhaseStats {
                    requests: 3,
                    exec_wall_s: 0.25,
                    compiles: 1,
                    ..PhaseStats::default()
                },
            },
            PlanProfile {
                plan_key: 2,
                label: "Wave".into(),
                stats: PhaseStats::default(),
            },
        ];
        let merged = merge_profiles(&[a, b]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].plan_key, 1);
        assert_eq!(merged[0].label, "Box-2D1R@64x64");
        assert_eq!(merged[0].stats.requests, 5);
        assert!((merged[0].stats.exec_wall_s - 0.75).abs() < 1e-12);
        assert_eq!(merged[0].stats.compiles, 1);
    }

    #[test]
    fn render_top_is_empty_for_no_profiles() {
        assert_eq!(render_top_profiles(&PhaseProfiler::new().top(5)), "");
        let t = Telemetry::default();
        t.profiler().touch(0xdead, || "Box-2D1R@64x64".into());
        fold(
            t.profiler(),
            Who::new(1, 0xdead, 0),
            &[exit(Phase::Exec, 1e-3)],
        );
        let table = render_top_profiles(&t.profiler().top(5));
        assert!(table.contains("top plans by wall time:"), "{table}");
        assert!(table.contains("0x000000000000dead"), "{table}");
        assert!(table.contains("Box-2D1R@64x64"), "{table}");
    }
}
