//! # spider-cluster
//!
//! Multi-device sharded serving for the SPIDER stack: the layer above
//! `spider-runtime` that turns one allocation-free simulated device into a
//! fleet of them behind a single front door.
//!
//! ```text
//!   StencilRequest stream
//!          │
//!          ▼
//!   ┌─── Router ───────────────────────────────────────────────┐
//!   │ fingerprint affinity (rendezvous hash of plan_key)       │
//!   └──┬──────────────┬──────────────┬──────────────┬──────────┘
//!      ▼              ▼              ▼              ▼
//!   device 0       device 1       device 2       device 3
//!   SpiderScheduler (async queue, priorities, deadlines, cancel)
//!   SpiderRuntime   (plan cache · autotuner · coalescing · pool)
//!      │              │              │              │
//!      └──────┬───────┴──────────────┴──────────────┘
//!             ▼
//!       work stealing
//!       (cancel → requeue on the least-loaded device)
//! ```
//!
//! Two ideas carry the design:
//!
//! 1. **Fingerprint affinity.** Plans are content-addressed and device-
//!    independent; tuner memos are per device spec. Rendezvous-hashing
//!    `plan_key → device` partitions the key space across shards, so each
//!    device's plan cache and memo table stay as hot as a single device's
//!    would — the cluster scales throughput without multiplying compiles.
//! 2. **Steal-and-requeue.** Affinity concentrates hot kernels; the cluster
//!    flattens the resulting skew by cancelling still-queued requests on an
//!    overloaded device ([`spider_runtime::SpiderScheduler::cancel`]
//!    guarantees no started work is touched) and resubmitting them to the
//!    least-loaded shard. A moved request executes exactly once.
//!
//! Execution inside each device is exactly the single-runtime path, so a
//! sharded cluster is bit-identical to one runtime serving the same
//! requests — steals, drains and retries included (property-tested).
//!
//! ## Elasticity and failure tolerance
//!
//! Membership is not fixed at construction: [`SpiderCluster::add_device`]
//! joins a device live, [`SpiderCluster::remove_device`] performs a
//! graceful drain (typed [`spider_runtime::SubmitError::DeviceDraining`]
//! refusals, queued
//! work stolen to survivors exactly-once in plan-key chunks, in-flight
//! waves waited out), and [`SpiderCluster::fail_device`] — or an armed
//! [`FaultPlan`] — hard-kills one mid-batch with exactly-once recovery:
//! unstarted work is requeued, in-flight casualties surface as
//! `Failed { reason: DeviceLost }` and re-route once; a retry that dies
//! too stays failed. Departed devices keep their cumulative counters in
//! the fleet reports' `departed` roll-up. A device that hangs without any
//! declaration is caught by [`SpiderCluster::health_tick`]: suspected after
//! [`SUSPECT_AFTER_TICKS`] ticks without a heartbeat while busy, declared
//! dead after [`DEAD_AFTER_TICKS`] and recovered through `fail_device`.
//! See the [`cluster`] module docs for the slot and locking model.
//!
//! ## Quickstart
//!
//! ```
//! use spider_cluster::{ClusterOptions, DeviceSpec, SpiderCluster};
//! use spider_runtime::StencilRequest;
//! use spider_stencil::StencilKernel;
//!
//! let cluster = SpiderCluster::new(
//!     (0..4).map(|i| DeviceSpec::a100(format!("dev{i}"))).collect(),
//!     ClusterOptions::default(),
//! );
//! let report = cluster
//!     .run_batch(
//!         &(0..16)
//!             .map(|i| StencilRequest::new_2d(i, StencilKernel::gaussian_2d(2), 96, 128))
//!             .collect::<Vec<_>>(),
//!     )
//!     .unwrap();
//! assert_eq!(report.total_completed(), 16);
//! assert!(report.rates_are_finite());
//! ```

pub mod cluster;
pub mod elastic;
mod health;
pub mod report;
pub mod router;
pub mod spec;

pub use cluster::{ClusterError, ClusterOptions, ClusterTicket, HealthReport, SpiderCluster};
pub use elastic::{FaultEvent, FaultPlan, KillTrigger, RecoveryReport};
pub use health::{HealthState, HealthTransition, DEAD_AFTER_TICKS, SUSPECT_AFTER_TICKS};
pub use report::{ClusterReport, DeviceReport};
pub use router::Router;
pub use spec::DeviceSpec;
