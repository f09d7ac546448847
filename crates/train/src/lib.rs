//! Bulk-synchronous data-parallel training on top of any
//! [`DataLoader`](nopfs_baselines::DataLoader).
//!
//! Two levels of fidelity, matching what each experiment needs:
//!
//! - [`loop_runner`] — a *timed consumption loop*: compute is modelled
//!   as the throughput `c` (the paper's own model), gradients are
//!   emulated by fixed-size allreduces through the modelled
//!   interconnect, and per-epoch/per-batch times are recorded. This
//!   drives the epoch/batch-time reproductions (Figs. 10–15): the
//!   training loop's *timing structure* — bulk-synchronous steps that
//!   stall on the slowest worker — is real, while the arithmetic inside
//!   the "GPU" is replaced by its duration.
//! - [`job`] — one function per job, [`run_job`]: every rank of any of
//!   the ten policies runs the timed loop under any fault plan (NoPFS
//!   through `Job::run_with`, one launch per segment, its loop state
//!   kept across launches). The cluster's tenants and the runtime
//!   benches call it.
//! - [`model`] — a real (tiny) logistic-regression model trained with
//!   data-parallel SGD on a synthetic separable task whose features
//!   derive deterministically from sample labels. Accuracy genuinely
//!   improves over epochs, giving Fig. 16 its accuracy-vs-time curves
//!   without a GPU.

pub mod job;
pub mod loop_runner;
pub mod model;

pub use job::{admit, run_job, JobRun};
pub use loop_runner::{run_training_loop, RunMetrics, TrainLoopConfig};
pub use model::{LogisticModel, SyntheticTask};
