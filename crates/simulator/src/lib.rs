//! The NoPFS I/O performance simulator (paper Sec. 6).
//!
//! The simulator predicts the end-to-end execution time of a training
//! run under different data-loading policies, on an arbitrary dataset
//! and storage hierarchy described by the `nopfs-perfmodel` crate. As in
//! the paper, it does "not aim for a precise simulation of training, but
//! rather to capture the relative performance of different I/O
//! strategies": compute is modelled by the throughput `c`, I/O is
//! overlapped to the greatest extent each policy allows, and PFS
//! contention follows the measured `t(γ)` curve with `γ` tracked
//! iteration by iteration.
//!
//! Ten policies are implemented (Sec. 6's list):
//! [`PolicyId::Perfect`] (no-stall lower bound), [`PolicyId::Naive`],
//! [`PolicyId::StagingBuffer`] (PyTorch double-buffering / `tf.data`),
//! [`PolicyId::DeepIoOrdered`] and [`PolicyId::DeepIoOpportunistic`],
//! [`PolicyId::ParallelStaging`] (data sharding),
//! [`PolicyId::LbannDynamic`] and [`PolicyId::LbannPreloading`],
//! [`PolicyId::LocalityAware`] (Yang & Cong), and [`PolicyId::NoPfs`].
//!
//! Beyond the policy comparison (Fig. 8), the simulator powers the
//! environment/design-space evaluation of Fig. 9 via [`environment`],
//! and the multi-tenant interference study (Fig. 2's shared-PFS
//! contention across co-scheduled jobs) via [`cluster`]. Scenarios can
//! route the origin through an analytic object-store model with seeded
//! disturbances and the runtime's own client (the storage crate's
//! resilience core, on the model clock) via [`cloud`].
//!
//! Every entry point runs the same lockstep loop, the one job state of
//! [`engine`]: a solo [`run`] is a cluster of one job, [`run_cluster`]
//! schedules many jobs on one shared PFS, and [`run_elastic`] runs one
//! job state per membership under a [`nopfs_policy::FaultPlan`], an
//! epoch at a time, with clocks that run on across epochs — so a
//! fault-free elastic run is the solo run.

pub mod churn;
pub mod cloud;
pub mod cluster;
pub mod engine;
pub mod environment;
pub mod policies;
pub mod result;
pub mod scenario;

pub use churn::{churn_sweep, run_elastic, run_elastic_with_obs, ChurnRow, ElasticSimResult};
pub use cloud::{hardened_client, naive_client, CloudSpec};
pub use cluster::{run_cluster, SimTenant};
pub use engine::{run, run_with_obs};
pub use nopfs_policy::{Capabilities, PolicyId};
pub use result::{Breakdown, SimError, SimResult};
pub use scenario::{Scenario, StorageRegime};
