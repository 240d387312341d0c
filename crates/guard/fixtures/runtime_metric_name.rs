//! Seeded-bad fixture: a metric name built at run time, which the naming
//! rule cannot check.
//! Linted by tests/guard_properties.rs; excluded from workspace scans.

fn export(snap: &mut MetricsSnapshot, rows: &[(TenantId, QueueStats)]) {
    for (tenant, row) in rows {
        let name = format!("spider_scheduler_{}_wait_us", tenant.label());
        snap.histogram(&name, row.wait_hist); // BAD: not a literal
    }
    snap.histogram("spider_scheduler_wait_us", rows[0].1.wait_hist); // fine
    let hist = rows[0].1.histogram(); // fine: no name, not a metric write
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_name_metrics_at_run_time() {
        let name = String::from("spider_scheduler_wait_us");
        let _ = snap().histogram_value(&name);
        snap().histogram(&name, LogHistogram::default()); // fine: test region
    }
}
