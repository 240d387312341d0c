//! Seeded fixture: a guard that a `let` only projects through is a
//! temporary, dropped at the `;`; a guard the `let` binds stays live.
//! Linted by tests/guard_properties.rs; excluded from workspace scans.

/// Clean: the guard is a temporary of a field projection.
fn projected(c: &Cluster, t: Ticket, req: Request) {
    let slot = c.lock().pending[&t.seq].device;
    c.devices[slot].submit(req); // fine: the guard died at the `;`
}

/// Clean: the guard is a temporary of a method call on its value.
fn method_value(c: &Cluster, req: Request) {
    let depth = c.lock().queue.len();
    c.submit(req); // fine: the guard died at the `;`
}

/// BAD: the guard is the binding.
fn held(c: &Cluster, req: Request) {
    let st = c.lock();
    c.submit(req); // BAD: `st` live here
    st.routed += 1;
}
