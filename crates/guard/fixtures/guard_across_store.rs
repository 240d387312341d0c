//! Seeded-bad fixture: lock guards held across plan-store calls.
//! Linted by tests/guard_properties.rs; excluded from workspace scans.

/// A cache miss served from the store with the cache lock held.
fn load_under_lock(cache: &Cache, store: &PlanStore, key: u64) -> Option<CachedPlan> {
    let mut inner = cache.inner.lock();
    let (plan, _) = store.load_plan(key)?; // BAD: `inner` live here
    inner.insert(key, plan.clone());
    Some(plan)
}

/// A write-through with the cache lock held.
fn save_under_lock(cache: &Cache, store: &PlanStore, key: u64, plan: &CachedPlan) {
    let inner = cache.inner.lock();
    let _ = store.save_plan(key, plan); // BAD: `inner` live here
    inner.note_saved(key);
}

/// Clean shape: the guard's block ends before the store is touched.
fn clean(cache: &Cache, store: &PlanStore, key: u64) -> Option<CachedPlan> {
    let hit = {
        let inner = cache.inner.lock();
        inner.get(key)
    };
    if hit.is_some() {
        return hit;
    }
    let (plan, _) = store.load_plan(key)?; // fine: no guard live
    let _ = store.save_plan(key, &plan); // fine
    Some(plan)
}
