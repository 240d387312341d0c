//! Seeded-bad fixture: a lock guard its caller passes in as a parameter.
//! Linted by tests/guard_properties.rs; excluded from workspace scans.

struct Shared {
    state: OrderedMutex<State>,
}

/// BAD: a `&mut State` can only come from `Shared::state`'s guard, which
/// the caller holds for the whole call.
fn enqueue(st: &mut State, dev: &Device, req: Request) {
    st.queued += 1;
    dev.scheduler.submit(req); // BAD: the caller's guard is live
}

/// Clean: no lock in this file holds a `Config`.
fn forward(cfg: &Config, dev: &Device, req: Request) {
    cfg.check(&req);
    dev.scheduler.submit(req); // fine
}

/// Clean: the guard is scoped away before the call.
fn scoped(shared: &Shared, dev: &Device, req: Request) {
    {
        let mut st = shared.state.lock();
        st.queued += 1;
    }
    dev.scheduler.submit(req); // fine
}
