//! The NoPFS performance model (paper Sec. 4, Table 2).
//!
//! The model characterizes a training cluster by a handful of measurable
//! quantities — per-worker compute throughput `c`, preprocessing rate
//! `β`, interconnect bandwidth `b_c`, the PFS's reader-dependent
//! aggregate throughput `t(γ)`, and per-storage-class capacity `d_j` and
//! aggregate read/write throughput `r_j(p)`/`w_j(p)` — and from them
//! derives the time for every way a sample can reach the staging buffer.
//! NoPFS uses these times at runtime to pick fetch sources; the
//! simulator (the `nopfs-simulator` crate) uses them to predict
//! end-to-end behaviour of whole I/O policies.
//!
//! Modules:
//! - [`curve`] — throughput as a function of thread/client count, with
//!   linear interpolation between measured points and least-squares
//!   extrapolation beyond them (the paper's "inferred using linear
//!   regression").
//! - [`system`] — Table 2 as types: storage classes, staging buffer,
//!   whole-system specs, fetch-source time queries.
//! - [`equations`] — the model equations: `write_i`, the three `fetch`
//!   cases, `read_i`, `avail_i`, and the `t_{i,f}` consumption
//!   recurrence with stall accounting.
//! - [`presets`] — system configurations used in the paper: the Fig. 8
//!   small-cluster simulation setup (Lassen-derived benchmarks), and
//!   Piz-Daint- and Lassen-like hierarchies from Fig. 1.
//! - [`config`] — the "system-wide configuration file" of Sec. 5.2.2: a
//!   small INI-style format describing a [`system::SystemSpec`].

pub mod config;
pub mod curve;
pub mod equations;
pub mod presets;
pub mod system;

pub use curve::ThroughputCurve;
pub use equations::{consume_timeline, ConsumeTimeline};
pub use system::{Location, StagingSpec, StorageClass, SystemSpec};
