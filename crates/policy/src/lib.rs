//! The workspace policy layer: one registry of data-loading policies
//! and the decision core every harness executes.
//!
//! Three harnesses compare the paper's ten loader policies — the
//! threaded runtime (`nopfs_core` + `nopfs_baselines`), the
//! discrete-event simulator (`nopfs_simulator`, Sec. 6), and the
//! multi-tenant cluster (`nopfs_cluster`, Fig. 2). Before this crate
//! each of them re-derived every policy's decisions independently; now
//! the *what* of a policy lives here exactly once:
//!
//! - [`PolicyId`] — the one enum naming all ten policies (Table 1 /
//!   Fig. 8), with their [`Capabilities`] rows and figure labels.
//! - [`decision`] — harness-independent decision rules: NoPFS's
//!   fastest-source selection over an ordered tier list
//!   ([`decision::select_source_tiered`] with per-tier cost estimates
//!   from [`decision::tier_costs`] — the single code path behind both
//!   the runtime's staging fetches and the simulator's NoPFS policy)
//!   and the bulk-staging PFS share.
//! - [`core`] — the [`core::PolicyCore`] trait plus one implementation
//!   per baseline policy: sharding plans, first-touch ownership, epoch
//!   transforms, prestage lists, and dataset coverage. The simulator
//!   adapts a core into its event loop; the runtime drives real
//!   threads, caches, and sockets off the *same* object.
//!
//! Harness-specific *mechanisms* (ready-time estimates in the
//! simulator, the progress heuristic in the runtime) stay in their
//! harnesses; everything a policy decides — where a sample comes from,
//! which samples each worker may ever see, what is prestaged — comes
//! from here.

pub mod core;
pub mod decision;
pub mod fault;
pub mod id;

pub use crate::core::{build_core, transformed_streams, PolicyCore, Source};
pub use decision::{select_source, select_source_degraded, select_source_tiered, tier_costs};
pub use fault::{
    elastic_epoch_streams, elastic_global_stream, replan_core, Brownout, CloudFaults, FaultEvent,
    FaultPlan, ReadErrors,
};
pub use id::{Capabilities, PolicyId};

/// Why a policy cannot run a given configuration (e.g. the LBANN data
/// store with a dataset exceeding aggregate worker memory). Carried
/// unchanged through every harness's error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unsupported(pub String);

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "policy unsupported: {}", self.0)
    }
}

impl std::error::Error for Unsupported {}
