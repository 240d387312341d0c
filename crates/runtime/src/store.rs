//! Cross-process tuner-memo persistence: the [`PlanStore`].
//!
//! A serving fleet restarts, scales and reshards, and every restart used to
//! start cold. The store closes the gap that costs: tuner memos persist to
//! disk, filed per device-spec fingerprint
//! ([`spider_gpu_sim::GpuSpecs::fingerprint`]), keyed by the same
//! [`crate::StencilRequest::plan_key`] the in-memory plan cache uses —
//! fingerprints are stable by construction, so a key computed in one
//! process addresses the same scenario in every other. A tiling decision is
//! only transferable between devices whose timing constants are equal, so
//! memos recorded on one device warm-start exactly the devices that can
//! reuse them.
//!
//! Compiled plans are not persisted: a plan compiles in 10–100 µs, faster
//! than reading and decoding it back from disk, while an uncached tuning
//! decision costs several simulator dry-runs. A warm start therefore
//! compiles its plans and skips every dry-run.
//!
//! ## Layout
//!
//! ```text
//! <dir>/memos-<spec_key:016x>.v1.stm    all memos for one device spec
//! ```
//!
//! Writes are atomic (temp file + rename), so a crashed writer never leaves
//! a half-written file a later reader could trip over; a corrupt or
//! truncated file is treated as empty, never as an error that takes serving
//! down. Files other than memo files (plan artifacts an older release
//! wrote, for one) are left in place and never read.

use spider_core::sync::{LockRank, OrderedMutex};
use std::path::{Path, PathBuf};

use spider_core::tiling::TilingConfig;
use spider_telemetry::MetricsSnapshot;

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
        snap.counter("spider_plan_store_memo_loads_total", self.memo_loads);
        snap.counter("spider_plan_store_memo_saves_total", self.memo_saves);
    }
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

/// Durable, shared tuner-memo storage. Thread-safe: all methods take
/// `&self`, every write goes to a writer-unique temp file first (pid +
/// per-store counter), and the final rename makes concurrent writers of the
/// same file last-writer-wins rather than corrupting. Memo saves serialize
/// their read-merge-write cycle on a store-local lock; *cross-process*
/// concurrent memo saves remain last-merger-wins — a process can lose
/// another's *simultaneously* written memos (never corrupt them), and the
/// loss is self-healing: the scenarios re-tune and re-persist on the next
/// drain.
pub struct PlanStore {
    dir: PathBuf,
    stats: OrderedMutex<StoreStats>,
    /// Serializes intra-process memo read-merge-write cycles.
    memo_write: OrderedMutex<()>,
    /// Uniquifies temp-file names across threads of this process.
    tmp_counter: std::sync::atomic::AtomicU64,
}

impl PlanStore {
    /// Open (creating if necessary) a store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            stats: OrderedMutex::new(LockRank::StoreStats, "store.stats", StoreStats::default()),
            memo_write: OrderedMutex::new(LockRank::StoreMemoWrite, "store.memo_write", ()),
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

    fn memo_path(&self, spec_key: u64) -> PathBuf {
        self.dir.join(format!("memos-{spec_key:016x}.v1.stm"))
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

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "spider-store-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
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
