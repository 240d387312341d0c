//! Seeded-bad fixture: metric names violating the naming scheme where an
//! export writes struct-owned values into a snapshot.
//! Linted by tests/guard_properties.rs; excluded from workspace scans.

fn export(snap: &mut MetricsSnapshot, q: &QueueStats) {
    snap.counter("scheduler_completed_total", q.completed); // BAD: missing spider_ prefix
    snap.counter("spider_scheduler_shed", q.shed); // BAD: no _total
    snap.histogram("spider_scheduler_wait", q.wait_hist.hist); // BAD: no _us

    snap.counter("spider_scheduler_submitted_total", q.submitted); // fine
    snap.gauge("spider_scheduler_max_depth", q.max_depth as f64); // fine
    snap.histogram("spider_scheduler_wait_us", q.wait_hist.hist); // fine
}
