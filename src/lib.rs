//! NoPFS — a reproduction of "Clairvoyant Prefetching for Distributed
//! Machine Learning I/O" (Dryden, Böhringer, Ben-Nun, Hoefler; SC 2021).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! - [`core`] — the NoPFS middleware itself (paper Sec. 5).
//! - [`policy`] — the workspace policy layer: the [`policy::PolicyId`]
//!   registry plus the shared decision core every harness (runtime,
//!   simulator, cluster) executes.
//! - [`cluster`] — multi-tenant co-scheduling: K jobs contending on one
//!   shared PFS (the Sec. 1–2 / Fig. 2 interference scenario).
//! - [`clairvoyance`] — seeded access streams, frequency analysis,
//!   placement (Secs. 2–3).
//! - [`perfmodel`] — the storage-hierarchy performance model (Sec. 4).
//! - [`simulator`] — the I/O policy simulator (Sec. 6).
//! - [`baselines`] — the runtime loaders of Sec. 7's comparison points
//!   (PyTorch-like double buffering, DALI, the LBANN store, DeepIO, …)
//!   on one core-driven loader, plus the naive and no-I/O loaders,
//!   all built from a `PolicyId` by [`baselines::registry`].
//! - [`pfs`], [`net`], [`storage`] — the synthetic substrates standing
//!   in for GPFS/Lustre, MPI, and tiered node-local storage; the
//!   [`storage::DataSource`] trait and [`storage::TierStack`] compose
//!   every level (worker RAM → SSD → the PFS) behind one fetch API
//!   with per-tier statistics.
//! - [`datasets`] — synthetic datasets with the paper's published size
//!   distributions.
//! - [`train`] — the bulk-synchronous training loop and a tiny real
//!   model for end-to-end runs.
//! - [`util`] — deterministic PRNG, statistics, pacing, timing.
//!
//! At the repository root, [`README.md`](../../../README.md) has the
//! quickstart, [`DESIGN.md`](../../../DESIGN.md) the crate-by-crate
//! system inventory, and [`EXPERIMENTS.md`](../../../EXPERIMENTS.md)
//! the bench targets with paper-vs-measured results.

pub use nopfs_baselines as baselines;
pub use nopfs_clairvoyance as clairvoyance;
pub use nopfs_cluster as cluster;
pub use nopfs_core as core;
pub use nopfs_datasets as datasets;
pub use nopfs_net as net;
pub use nopfs_obs as obs;
pub use nopfs_perfmodel as perfmodel;
pub use nopfs_pfs as pfs;
pub use nopfs_policy as policy;
pub use nopfs_simulator as simulator;
pub use nopfs_storage as storage;
pub use nopfs_train as train;
pub use nopfs_util as util;
