//! Cross-process plan persistence: the [`PlanStore`].
//!
//! The plan cache amortizes compilation within one process; a serving fleet
//! restarts, scales and reshards, and every restart used to start cold. The
//! store closes that gap: compiled [`SpiderPlan`]s persist to disk in the
//! versioned `spider-core` format ([`SpiderPlan::to_bytes`]), keyed by the
//! same [`crate::StencilRequest::plan_key`] the in-memory cache uses —
//! fingerprints are stable by construction, so a key computed in one
//! process addresses the same plan in every other.
//!
//! Tuner memos persist alongside, filed per device-spec fingerprint
//! ([`spider_gpu_sim::GpuSpecs::fingerprint`]): a tiling decision is only
//! transferable between devices whose timing constants are equal, so memos
//! recorded on one device warm-start exactly the devices that can reuse
//! them. This is the larger win in practice — a plan compiles in
//! microseconds, but a tuning decision costs several simulator dry-runs.
//!
//! ## Layout
//!
//! ```text
//! <dir>/plan-<plan_key:016x>.v1.spb     one serialized SpiderPlan each
//! <dir>/memos-<spec_key:016x>.v1.stm    all memos for one device spec
//! ```
//!
//! Writes are atomic (temp file + rename), so a crashed writer never leaves
//! a half-written artifact a later reader could trip over; a corrupt or
//! truncated file is treated as absent (and counted in [`StoreStats`]),
//! never as an error that takes serving down.

use spider_core::sync::{LockRank, OrderedMutex};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use spider_core::exec3d::Spider3DPlan;
use spider_core::plan::SpiderPlan;
use spider_core::tiling::TilingConfig;
use spider_telemetry::MetricsSnapshot;

use crate::cache::CachedPlan;
use crate::request::GridSpec;
use crate::tuner::TuneOutcome;

/// Magic prefix of a persisted memo file.
const MEMO_MAGIC: &[u8; 8] = b"SPDRMEMO";

/// Version of the memo file format. Version 2 widened the grid record to
/// three extents so `GridSpec::D3` scenarios persist; version-1 files are
/// rejected on load (the memos they held re-tune and re-persist — a few
/// dry-runs, never a correctness issue).
const MEMO_FORMAT_VERSION: u32 = 2;

/// Monotonic counters describing store traffic since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Plans served from disk (cache misses the store satisfied).
    pub plan_loads: u64,
    /// Total artifact bytes read by successful plan loads — the number the
    /// per-plan profiler attributes back to individual plan keys.
    pub plan_bytes_loaded: u64,
    /// Load attempts that found no file for the key.
    pub plan_absent: u64,
    /// Load attempts that found a file but rejected it (corrupt, truncated,
    /// wrong version) — the file is left in place for forensics.
    pub plan_rejected: u64,
    /// Plans written to disk.
    pub plan_saves: u64,
    /// Plan artifacts deleted by the [`StoreGcPolicy`] (oldest-mtime-first;
    /// an evicted plan degrades the next warm start to a compile, nothing
    /// else).
    pub plan_evictions: u64,
    /// Memo entries read back by [`PlanStore::load_memos`].
    pub memo_loads: u64,
    /// Memo entries written by [`PlanStore::save_memos`].
    pub memo_saves: u64,
}

impl StoreStats {
    /// Write these counts into `snap` as the `spider_plan_store_*`
    /// counters. A runtime writes its store's counts into its own export; a
    /// cluster writes its shared store's once, over the sum of its devices'.
    pub fn write_metrics(&self, snap: &mut MetricsSnapshot) {
        snap.counter("spider_plan_store_plan_loads_total", self.plan_loads);
        snap.counter("spider_plan_store_plan_absent_total", self.plan_absent);
        snap.counter("spider_plan_store_plan_rejected_total", self.plan_rejected);
        snap.counter("spider_plan_store_plan_saves_total", self.plan_saves);
        snap.counter(
            "spider_plan_store_plan_evictions_total",
            self.plan_evictions,
        );
        snap.counter(
            "spider_plan_store_plan_bytes_loaded_total",
            self.plan_bytes_loaded,
        );
        snap.counter("spider_plan_store_memo_loads_total", self.memo_loads);
        snap.counter("spider_plan_store_memo_saves_total", self.memo_saves);
    }
}

/// Retention bounds for the plan-artifact directory. A long-lived store
/// directory otherwise grows one file per plan key forever; the policy caps
/// it, evicting the oldest-modified artifacts first on every
/// [`PlanStore::save_plan`]. Either bound at `0` means "unbounded" on that
/// axis (the default). Memo files are exempt: there is one per device spec
/// and they are merged in place, so they cannot grow with the key space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreGcPolicy {
    /// Maximum plan artifacts kept on disk (`0` = unbounded).
    pub max_plans: usize,
    /// Maximum total bytes of plan artifacts (`0` = unbounded).
    pub max_bytes: u64,
}

impl StoreGcPolicy {
    /// Whether any bound is active.
    pub fn is_bounded(&self) -> bool {
        self.max_plans > 0 || self.max_bytes > 0
    }
}

/// One plan artifact's directory-listing record (the GC working set).
struct PlanFile {
    mtime: std::time::SystemTime,
    bytes: u64,
    path: PathBuf,
}

/// One persisted tuner memo: the scenario key plus the tuned outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PersistedMemo {
    /// The scenario's plan key ([`crate::StencilRequest::plan_key`]).
    pub plan_key: u64,
    /// The scenario's grid extent.
    pub grid: GridSpec,
    /// The tuned outcome (its `memoized` flag is not persisted — a loaded
    /// memo reports `memoized = true` on first use, because the dry-runs it
    /// stands for were already paid in a previous process).
    pub outcome: TuneOutcome,
}

/// Durable, shared plan + tuner-memo storage. Thread-safe: all methods take
/// `&self`, every write goes to a writer-unique temp file first (pid +
/// per-store counter), and the final rename makes concurrent writers of the
/// same key last-writer-wins rather than corrupting. Memo saves serialize
/// their read-merge-write cycle on a store-local lock; *cross-process*
/// concurrent memo saves remain last-merger-wins — a process can lose
/// another's *simultaneously* written memos (never corrupt them), and the
/// loss is self-healing: the scenarios re-tune and re-persist on the next
/// drain.
pub struct PlanStore {
    dir: PathBuf,
    gc: StoreGcPolicy,
    stats: OrderedMutex<StoreStats>,
    /// Serializes intra-process memo read-merge-write cycles.
    memo_write: OrderedMutex<()>,
    /// Serializes intra-process GC passes (save → enforce cycles).
    gc_lock: OrderedMutex<()>,
    /// Uniquifies temp-file names across threads of this process.
    tmp_counter: std::sync::atomic::AtomicU64,
}

impl PlanStore {
    /// Open (creating if necessary) an unbounded store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::open_with_gc(dir, StoreGcPolicy::default())
    }

    /// Open a store with a retention policy: every plan save is followed by
    /// an oldest-mtime-first eviction pass holding the directory within
    /// `policy`'s bounds (the just-written artifact is never the victim of
    /// its own save).
    pub fn open_with_gc(dir: impl AsRef<Path>, policy: StoreGcPolicy) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            gc: policy,
            stats: OrderedMutex::new(LockRank::StoreStats, "store.stats", StoreStats::default()),
            memo_write: OrderedMutex::new(LockRank::StoreMemoWrite, "store.memo_write", ()),
            gc_lock: OrderedMutex::new(LockRank::StoreGc, "store.gc", ()),
            tmp_counter: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> StoreStats {
        *self.stats.lock()
    }

    fn plan_path(&self, plan_key: u64) -> PathBuf {
        self.dir.join(format!("plan-{plan_key:016x}.v1.spb"))
    }

    fn memo_path(&self, spec_key: u64) -> PathBuf {
        self.dir.join(format!("memos-{spec_key:016x}.v1.stm"))
    }

    /// Number of plan files currently on disk.
    pub fn plans_on_disk(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter(|e| {
                        let name = e.file_name();
                        let name = name.to_string_lossy();
                        name.starts_with("plan-") && name.ends_with(".spb")
                    })
                    .count()
            })
            .unwrap_or(0)
    }

    /// Load the plan stored under `plan_key`, planar or volumetric by the
    /// artifact's magic, with the artifact's size in bytes (what the
    /// runtime's phase profiler attributes to the plan key). `None` when
    /// the store has no valid artifact for the key: corruption is counted,
    /// never propagated, so a bad file degrades to a compile, not an
    /// outage.
    pub fn load_plan(&self, plan_key: u64) -> Option<(CachedPlan, u64)> {
        let Ok(bytes) = std::fs::read(self.plan_path(plan_key)) else {
            self.stats.lock().plan_absent += 1;
            return None;
        };
        let plan = if bytes.starts_with(spider_core::serial::PLAN3D_MAGIC) {
            Spider3DPlan::from_bytes(&bytes)
                .ok()
                .map(|p| CachedPlan::Volumetric(Arc::new(p)))
        } else {
            SpiderPlan::from_bytes(&bytes)
                .ok()
                .map(|p| CachedPlan::Planar(Arc::new(p)))
        };
        let mut stats = self.stats.lock();
        let Some(plan) = plan else {
            stats.plan_rejected += 1;
            return None;
        };
        stats.plan_loads += 1;
        stats.plan_bytes_loaded += bytes.len() as u64;
        Some((plan, bytes.len() as u64))
    }

    /// Persist `plan` under `plan_key` (atomic replace), then enforce the
    /// retention policy — the write behind the runtime's compile
    /// write-through and [`crate::SpiderRuntime::persist`].
    pub fn save_plan(&self, plan_key: u64, plan: &CachedPlan) -> std::io::Result<()> {
        let bytes = match plan {
            CachedPlan::Planar(p) => p.to_bytes(),
            CachedPlan::Volumetric(p) => p.to_bytes(),
        };
        let path = self.plan_path(plan_key);
        self.write_atomic(&path, &bytes)?;
        self.stats.lock().plan_saves += 1;
        self.enforce_gc(&path);
        Ok(())
    }

    /// Total bytes of plan artifacts currently on disk.
    pub fn plan_bytes_on_disk(&self) -> u64 {
        self.plan_files().iter().map(|f| f.bytes).sum()
    }

    /// Snapshot every plan artifact's `(mtime, size, path)`, oldest first
    /// (mtime ties broken by file name so eviction order is total).
    fn plan_files(&self) -> Vec<PlanFile> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut files: Vec<PlanFile> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                if !(name.starts_with("plan-") && name.ends_with(".spb")) {
                    return None;
                }
                let meta = e.metadata().ok()?;
                Some(PlanFile {
                    mtime: meta.modified().ok()?,
                    bytes: meta.len(),
                    path: e.path(),
                })
            })
            .collect();
        files.sort_by(|a, b| (a.mtime, &a.path).cmp(&(b.mtime, &b.path)));
        files
    }

    /// Oldest-mtime-first eviction down to the policy bounds. `keep` (the
    /// artifact a save just wrote) is never evicted by its own save — with
    /// coarse filesystem timestamps it could otherwise tie with genuinely
    /// old files and lose. Eviction failures (a concurrently removed file)
    /// are ignored; the next save retries.
    fn enforce_gc(&self, keep: &Path) {
        if !self.gc.is_bounded() {
            return;
        }
        let _one_pass = self.gc_lock.lock();
        let files = self.plan_files();
        let mut count = files.len();
        let mut bytes: u64 = files.iter().map(|f| f.bytes).sum();
        for f in files {
            let over_count = self.gc.max_plans > 0 && count > self.gc.max_plans;
            let over_bytes = self.gc.max_bytes > 0 && bytes > self.gc.max_bytes;
            if !over_count && !over_bytes {
                break;
            }
            if f.path == keep {
                continue;
            }
            if std::fs::remove_file(&f.path).is_ok() {
                count -= 1;
                bytes = bytes.saturating_sub(f.bytes);
                self.stats.lock().plan_evictions += 1;
            }
        }
    }

    /// Persist a memo set for one device spec, **merging** with what is
    /// already on disk: entries for new `(plan_key, grid)` scenarios are
    /// added, entries for known scenarios are replaced by the incoming
    /// decision. Merging (rather than replacing the file) matters whenever
    /// several runtimes share a spec fingerprint — a cluster of identical
    /// devices, or successive processes that each saw only part of the
    /// workload — because each saver holds only the scenarios *it* tuned,
    /// and a plain overwrite would discard every other shard's work.
    ///
    /// In-process savers serialize on a store-local lock, so concurrent
    /// [`crate::SpiderRuntime::persist`] calls through one `PlanStore`
    /// handle merge cleanly. Concurrent savers in *different processes*
    /// race read-to-rename and the last merger wins — memos the loser
    /// wrote in that window are dropped (not corrupted) and come back the
    /// next time their runtime persists.
    pub fn save_memos(&self, spec_key: u64, memos: &[PersistedMemo]) -> std::io::Result<()> {
        let _serialize_savers = self.memo_write.lock();
        let mut merged = self.load_memos_silent(spec_key);
        for m in memos {
            match merged
                .iter_mut()
                .find(|e| e.plan_key == m.plan_key && e.grid == m.grid)
            {
                Some(existing) => *existing = *m,
                None => merged.push(*m),
            }
        }
        let memos = &merged[..];
        let mut out = Vec::with_capacity(16 + memos.len() * 96);
        out.extend_from_slice(MEMO_MAGIC);
        out.extend_from_slice(&MEMO_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(memos.len() as u64).to_le_bytes());
        for m in memos {
            out.extend_from_slice(&m.plan_key.to_le_bytes());
            // Grid record: dimensionality tag + three u64 extents (unused
            // extents zero) — the version-2 widening that fits `D3`.
            let (tag, a, b, c) = match m.grid {
                GridSpec::D1 { len } => (1u8, len, 0, 0),
                GridSpec::D2 { rows, cols } => (2, rows, cols, 0),
                GridSpec::D3 { planes, rows, cols } => (3, planes, rows, cols),
            };
            out.push(tag);
            for extent in [a, b, c] {
                out.extend_from_slice(&(extent as u64).to_le_bytes());
            }
            let t = m.outcome.tiling;
            for v in [t.block_x, t.block_y, t.warp_x, t.warp_y, t.block_1d] {
                out.extend_from_slice(&(v as u64).to_le_bytes());
            }
            out.extend_from_slice(&m.outcome.predicted_time_s.to_bits().to_le_bytes());
            out.extend_from_slice(&m.outcome.default_time_s.to_bits().to_le_bytes());
            out.extend_from_slice(&(m.outcome.candidates as u64).to_le_bytes());
            out.extend_from_slice(&(m.outcome.dry_runs as u64).to_le_bytes());
        }
        self.write_atomic(&self.memo_path(spec_key), &out)?;
        self.stats.lock().memo_saves += memos.len() as u64;
        Ok(())
    }

    /// Load every persisted memo for one device spec. A missing, corrupt or
    /// wrong-version file yields an empty set.
    pub fn load_memos(&self, spec_key: u64) -> Vec<PersistedMemo> {
        let memos = self.load_memos_silent(spec_key);
        self.stats.lock().memo_loads += memos.len() as u64;
        memos
    }

    /// [`Self::load_memos`] without touching the counters — the read side
    /// of the save-time merge must not inflate `memo_loads`.
    fn load_memos_silent(&self, spec_key: u64) -> Vec<PersistedMemo> {
        let Ok(bytes) = std::fs::read(self.memo_path(spec_key)) else {
            return Vec::new();
        };
        parse_memos(&bytes).unwrap_or_default()
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let file = path.file_name().expect("store paths have file names"); // guard: store paths are built with Path::join(file_name)
                                                                           // The temp name must be unique per *writer*, not just per process:
                                                                           // two threads saving the same key with a shared tmp path could
                                                                           // rename each other's half-written bytes into place.
        let nonce = self
            .tmp_counter
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{:x}-{nonce:x}",
            file.to_string_lossy(),
            std::process::id()
        ));
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, path)
    }
}

fn parse_memos(bytes: &[u8]) -> Option<Vec<PersistedMemo>> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
        let end = pos.checked_add(n)?;
        if end > bytes.len() {
            return None;
        }
        let out = &bytes[*pos..end];
        *pos = end;
        Some(out)
    };
    let u64_at = |pos: &mut usize| -> Option<u64> {
        take(pos, 8).map(|b| u64::from_le_bytes(b.try_into().unwrap())) // guard: take() returned exactly 8 bytes
    };
    if take(&mut pos, 8)? != MEMO_MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()); // guard: take() returned exactly 4 bytes
    if version != MEMO_FORMAT_VERSION {
        return None;
    }
    let count = u64_at(&mut pos)? as usize;
    if count > 1 << 24 {
        return None;
    }
    let mut memos = Vec::with_capacity(count);
    for _ in 0..count {
        let plan_key = u64_at(&mut pos)?;
        let tag = take(&mut pos, 1)?[0];
        let a = u64_at(&mut pos)? as usize;
        let b = u64_at(&mut pos)? as usize;
        let c = u64_at(&mut pos)? as usize;
        let grid = match tag {
            1 => GridSpec::D1 { len: a },
            2 => GridSpec::D2 { rows: a, cols: b },
            3 => GridSpec::D3 {
                planes: a,
                rows: b,
                cols: c,
            },
            _ => return None,
        };
        let mut dims = [0usize; 5];
        for d in &mut dims {
            *d = u64_at(&mut pos)? as usize;
        }
        let tiling = TilingConfig {
            block_x: dims[0],
            block_y: dims[1],
            warp_x: dims[2],
            warp_y: dims[3],
            block_1d: dims[4],
        };
        if tiling.validate().is_err() {
            return None;
        }
        let predicted_time_s = f64::from_bits(u64_at(&mut pos)?);
        let default_time_s = f64::from_bits(u64_at(&mut pos)?);
        let candidates = u64_at(&mut pos)? as usize;
        let dry_runs = u64_at(&mut pos)? as usize;
        memos.push(PersistedMemo {
            plan_key,
            grid,
            outcome: TuneOutcome {
                tiling,
                predicted_time_s,
                default_time_s,
                candidates,
                dry_runs,
                memoized: false,
            },
        });
    }
    if pos != bytes.len() {
        return None;
    }
    Some(memos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_stencil::StencilKernel;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "spider-store-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn planar(plan: &SpiderPlan) -> CachedPlan {
        CachedPlan::Planar(Arc::new(plan.clone()))
    }

    #[test]
    fn plan_roundtrip_through_disk() {
        let dir = tmp_dir("plan");
        let store = PlanStore::open(&dir).unwrap();
        let plan = SpiderPlan::compile(&StencilKernel::gaussian_2d(2)).unwrap();
        assert!(store.load_plan(42).is_none());
        store.save_plan(42, &planar(&plan)).unwrap();
        let (back, bytes) = store.load_plan(42).expect("saved plan loads");
        let back = back.planar().expect("planar artifact loads planar");
        assert_eq!(bytes, plan.to_bytes().len() as u64);
        assert_eq!(back.fingerprint(), plan.fingerprint());
        assert_eq!(back.units().len(), plan.units().len());
        assert_eq!(store.plans_on_disk(), 1);
        let stats = store.stats();
        assert_eq!(stats.plan_saves, 1);
        assert_eq!(stats.plan_loads, 1);
        assert_eq!(stats.plan_absent, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_plan_files_degrade_to_absent() {
        let dir = tmp_dir("corrupt");
        let store = PlanStore::open(&dir).unwrap();
        let plan = SpiderPlan::compile(&StencilKernel::jacobi_2d()).unwrap();
        store.save_plan(7, &planar(&plan)).unwrap();
        // Truncate the artifact in place.
        let path = dir.join(format!("plan-{:016x}.v1.spb", 7u64));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(store.load_plan(7).is_none());
        assert_eq!(store.stats().plan_rejected, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memo_roundtrip_and_version_guard() {
        let dir = tmp_dir("memo");
        let store = PlanStore::open(&dir).unwrap();
        let memos = vec![
            PersistedMemo {
                plan_key: 11,
                grid: GridSpec::D2 {
                    rows: 256,
                    cols: 192,
                },
                outcome: TuneOutcome {
                    tiling: TilingConfig::default(),
                    predicted_time_s: 1.5e-5,
                    default_time_s: 2.0e-5,
                    candidates: 40,
                    dry_runs: 3,
                    memoized: true, // not persisted
                },
            },
            PersistedMemo {
                plan_key: 12,
                grid: GridSpec::D1 { len: 1 << 18 },
                outcome: TuneOutcome {
                    tiling: TilingConfig {
                        block_1d: 4096,
                        ..TilingConfig::default()
                    },
                    predicted_time_s: 3.0e-6,
                    default_time_s: 3.0e-6,
                    candidates: 6,
                    dry_runs: 2,
                    memoized: false,
                },
            },
        ];
        assert!(store.load_memos(99).is_empty());
        store.save_memos(99, &memos).unwrap();
        let back = store.load_memos(99);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].plan_key, 11);
        assert_eq!(back[0].grid, memos[0].grid);
        assert_eq!(back[0].outcome.tiling, memos[0].outcome.tiling);
        assert!(!back[0].outcome.memoized, "memoized flag is not persisted");
        assert_eq!(back[1].outcome.predicted_time_s, 3.0e-6);
        // A flipped version byte rejects the whole file.
        let path = dir.join(format!("memos-{:016x}.v1.stm", 99u64));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = 0xEE;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load_memos(99).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn plan3d_roundtrip_through_disk_and_load_entry_dispatches() {
        use spider_stencil::dim3::Kernel3D;
        let dir = tmp_dir("plan3d");
        let store = PlanStore::open(&dir).unwrap();
        let p2 = SpiderPlan::compile(&StencilKernel::gaussian_2d(1)).unwrap();
        let p3 = Spider3DPlan::compile(&Kernel3D::random_box(1, 5)).unwrap();
        store.save_plan(1, &planar(&p2)).unwrap();
        store
            .save_plan(2, &CachedPlan::Volumetric(Arc::new(p3.clone())))
            .unwrap();
        assert_eq!(store.plans_on_disk(), 2);
        let (back, _) = store.load_plan(2).expect("3D plan loads");
        let back = back.volumetric().expect("3D artifact loads volumetric");
        assert_eq!(back.fingerprint(), p3.fingerprint());
        // The loader dispatches on the artifact magic.
        assert!(store.load_plan(1).unwrap().0.planar().is_some());
        assert!(store.load_plan(2).unwrap().0.volumetric().is_some());
        // Kind confusion — an artifact whose magic names the other kind —
        // degrades to absent, never panics or mis-serves.
        let path = |key: u64| dir.join(format!("plan-{key:016x}.v1.spb"));
        let mut as_planar = std::fs::read(path(2)).unwrap();
        as_planar[..8].copy_from_slice(spider_core::serial::PLAN_MAGIC);
        std::fs::write(path(3), as_planar).unwrap();
        let mut as_volume = std::fs::read(path(1)).unwrap();
        as_volume[..8].copy_from_slice(spider_core::serial::PLAN3D_MAGIC);
        std::fs::write(path(4), as_volume).unwrap();
        assert!(store.load_plan(3).is_none());
        assert!(store.load_plan(4).is_none());
        assert_eq!(store.stats().plan_rejected, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_policy_bounds_plan_count_oldest_first() {
        let dir = tmp_dir("gc-count");
        let store = PlanStore::open_with_gc(
            &dir,
            StoreGcPolicy {
                max_plans: 3,
                max_bytes: 0,
            },
        )
        .unwrap();
        let plan = planar(&SpiderPlan::compile(&StencilKernel::jacobi_2d()).unwrap());
        // Ascending keys: with tied mtimes the name tie-break equals save
        // order, so "oldest first" is deterministic here.
        for key in 0..6u64 {
            store.save_plan(key, &plan).unwrap();
            assert!(store.plans_on_disk() <= 3, "bound violated mid-stream");
        }
        assert_eq!(store.plans_on_disk(), 3);
        assert_eq!(store.stats().plan_evictions, 3);
        // The newest artifacts survive; the oldest were evicted.
        assert!(store.load_plan(5).is_some());
        assert!(store.load_plan(0).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_policy_bounds_plan_bytes_and_spares_the_fresh_write() {
        let dir = tmp_dir("gc-bytes");
        let plan = SpiderPlan::compile(&StencilKernel::jacobi_2d()).unwrap();
        let one = plan.to_bytes().len() as u64;
        let plan = planar(&plan);
        let store = PlanStore::open_with_gc(
            &dir,
            StoreGcPolicy {
                max_plans: 0,
                max_bytes: one * 2 + one / 2, // room for two artifacts
            },
        )
        .unwrap();
        for key in 0..5u64 {
            store.save_plan(key, &plan).unwrap();
        }
        assert!(store.plan_bytes_on_disk() <= one * 2 + one / 2);
        assert_eq!(store.plans_on_disk(), 2);
        assert!(store.stats().plan_evictions >= 3);
        // A policy tighter than a single artifact still keeps the fresh
        // write (the keep guard): the store never GCs itself to zero.
        let tight_dir = tmp_dir("gc-tight");
        let tight = PlanStore::open_with_gc(
            &tight_dir,
            StoreGcPolicy {
                max_plans: 0,
                max_bytes: 1,
            },
        )
        .unwrap();
        tight.save_plan(9, &plan).unwrap();
        assert_eq!(tight.plans_on_disk(), 1, "own write survives its save");
        assert!(tight.load_plan(9).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&tight_dir).unwrap();
    }

    #[test]
    fn d3_memos_roundtrip() {
        let dir = tmp_dir("memo3d");
        let store = PlanStore::open(&dir).unwrap();
        let memo = PersistedMemo {
            plan_key: 21,
            grid: GridSpec::D3 {
                planes: 8,
                rows: 128,
                cols: 192,
            },
            outcome: TuneOutcome {
                tiling: TilingConfig::default(),
                predicted_time_s: 2.0e-5,
                default_time_s: 2.5e-5,
                candidates: 12,
                dry_runs: 3,
                memoized: false,
            },
        };
        store.save_memos(7, std::slice::from_ref(&memo)).unwrap();
        let back = store.load_memos(7);
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].grid, memo.grid);
        assert_eq!(back[0].outcome.tiling, memo.outcome.tiling);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memo_saves_merge_across_savers() {
        // Two runtimes with the same spec fingerprint each persist only the
        // scenarios they tuned; the file must end up with the union.
        let dir = tmp_dir("merge");
        let store = PlanStore::open(&dir).unwrap();
        let memo = |plan_key: u64, rows: usize| PersistedMemo {
            plan_key,
            grid: GridSpec::D2 { rows, cols: 64 },
            outcome: TuneOutcome {
                tiling: TilingConfig::default(),
                predicted_time_s: rows as f64,
                default_time_s: 2.0 * rows as f64,
                candidates: 4,
                dry_runs: 2,
                memoized: false,
            },
        };
        store.save_memos(5, &[memo(1, 64), memo(2, 64)]).unwrap();
        store.save_memos(5, &[memo(3, 64)]).unwrap();
        let mut keys: Vec<u64> = store.load_memos(5).iter().map(|m| m.plan_key).collect();
        keys.sort();
        assert_eq!(
            keys,
            vec![1, 2, 3],
            "second save must not clobber the first"
        );
        // Same scenario saved again: the incoming decision replaces.
        store.save_memos(5, &[memo(2, 64)]).unwrap();
        assert_eq!(store.load_memos(5).len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn distinct_spec_keys_are_distinct_files() {
        let dir = tmp_dir("specs");
        let store = PlanStore::open(&dir).unwrap();
        let memo = PersistedMemo {
            plan_key: 1,
            grid: GridSpec::D1 { len: 1024 },
            outcome: TuneOutcome {
                tiling: TilingConfig::default(),
                predicted_time_s: 1.0,
                default_time_s: 1.0,
                candidates: 1,
                dry_runs: 1,
                memoized: false,
            },
        };
        store.save_memos(1, std::slice::from_ref(&memo)).unwrap();
        assert_eq!(store.load_memos(2).len(), 0);
        assert_eq!(store.load_memos(1).len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
