//! Seeded-bad fixture: lock guards held across plan-store calls.
//! Linted by tests/guard_properties.rs; excluded from workspace scans.

/// A warm start's memo import with the tuner lock held.
fn load_under_lock(tuner: &Tuner, store: &PlanStore, spec_key: u64) {
    let mut memo = tuner.memo.lock();
    let memos = store.load_memos(spec_key); // BAD: `memo` live here
    memo.import(memos);
}

/// A persist with the tuner lock held.
fn save_under_lock(tuner: &Tuner, store: &PlanStore, spec_key: u64) {
    let memo = tuner.memo.lock();
    let _ = store.save_memos(spec_key, &memo.export()); // BAD: `memo` live here
    memo.note_saved();
}

/// Clean shape: the guard's block ends before the store is touched.
fn clean(tuner: &Tuner, store: &PlanStore, spec_key: u64) {
    let memos = {
        let memo = tuner.memo.lock();
        memo.export()
    };
    let _ = store.save_memos(spec_key, &memos); // fine: no guard live
    let loaded = store.load_memos(spec_key); // fine
    tuner.import(loaded);
}
