//! Table 2 as types: storage classes, the staging buffer, and whole
//! system specifications, with the per-source fetch-time queries that
//! drive both NoPFS's runtime decisions and the simulator.

use crate::curve::ThroughputCurve;
use nopfs_util::units::MB;

/// Where a sample is fetched from — the three cases of the model's
/// `fetch` equation plus the staging buffer itself (used by statistics;
/// a staging hit costs no fetch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Location {
    /// Already in the staging buffer.
    Staging,
    /// The worker's own storage class `j` (0 = fastest cache class).
    Local(u8),
    /// Another worker's storage class `j`, over the interconnect.
    Remote(u8),
    /// The parallel filesystem.
    Pfs,
}

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Location::Staging => write!(f, "staging"),
            Location::Local(j) => write!(f, "local[{j}]"),
            Location::Remote(j) => write!(f, "remote[{j}]"),
            Location::Pfs => write!(f, "PFS"),
        }
    }
}

/// One storage class `j` of a worker's hierarchy (Table 2: `d_j`,
/// `r_j(p)`, `w_j(p)`, `p_j`). Class 0 is the fastest *cache* class
/// (e.g. RAM); the staging buffer is described separately by
/// [`StagingSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct StorageClass {
    /// Human-readable name ("ram", "ssd", …).
    pub name: String,
    /// Capacity `d_j`, bytes.
    pub capacity: u64,
    /// Prefetcher threads `p_j` dedicated to this class.
    pub prefetch_threads: u32,
    /// Aggregate random-read throughput `r_j(p)`.
    pub read: ThroughputCurve,
    /// Aggregate random-write throughput `w_j(p)`.
    pub write: ThroughputCurve,
}

impl StorageClass {
    /// Per-thread read rate `r_j(p_j)/p_j` at the configured thread count.
    pub fn read_per_thread(&self) -> f64 {
        self.read
            .per_thread(f64::from(self.prefetch_threads.max(1)))
    }

    /// Per-thread write rate `w_j(p_j)/p_j` at the configured thread count.
    pub fn write_per_thread(&self) -> f64 {
        self.write
            .per_thread(f64::from(self.prefetch_threads.max(1)))
    }
}

/// The staging buffer (storage class 0 in the paper's numbering): the
/// small in-memory buffer shared with the training framework, always
/// served by at least one prefetch thread (`p_0 ≥ 1`).
#[derive(Debug, Clone, PartialEq)]
pub struct StagingSpec {
    /// Capacity, bytes.
    pub capacity: u64,
    /// Prefetch threads `p_0` filling the buffer.
    pub threads: u32,
    /// Aggregate read throughput `r_0(p)` (trainer consumption side).
    pub read: ThroughputCurve,
    /// Aggregate write throughput `w_0(p)` (prefetcher fill side).
    pub write: ThroughputCurve,
}

impl StagingSpec {
    /// Per-thread write rate `w_0(p_0)/p_0` — the denominator of the
    /// model's `write_i` equation.
    pub fn write_per_thread(&self) -> f64 {
        self.write.per_thread(f64::from(self.threads.max(1)))
    }
}

/// A whole training system: one entry per Table 2 row.
///
/// One `SystemSpec` describes one *worker's* view (the paper assumes
/// homogeneous workers; heterogeneous clusters can use one spec each).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    /// Descriptive name ("fig8-small-cluster", "lassen", …).
    pub name: String,
    /// Number of workers `N`.
    pub workers: usize,
    /// Compute throughput `c`, bytes/second of training-data consumption.
    pub compute: f64,
    /// Preprocessing rate `β`, bytes/second.
    pub preprocess: f64,
    /// Inter-worker network bandwidth `b_c`, bytes/second.
    pub interconnect: f64,
    /// PFS aggregate random-read throughput `t(γ)`.
    pub pfs_read: ThroughputCurve,
    /// The staging buffer.
    pub staging: StagingSpec,
    /// Local cache classes, fastest first.
    pub classes: Vec<StorageClass>,
}

impl SystemSpec {
    /// Validates internal consistency; called by the presets and the
    /// config parser.
    ///
    /// # Panics
    /// Panics on zero workers, non-positive rates, or `p_0 = 0`
    /// (the paper requires at least one staging prefetch thread).
    pub fn validate(&self) {
        assert!(self.workers > 0, "system needs at least one worker");
        assert!(
            self.compute > 0.0 && self.compute.is_finite(),
            "compute rate must be positive"
        );
        assert!(
            self.preprocess > 0.0 && self.preprocess.is_finite(),
            "preprocess rate must be positive"
        );
        assert!(
            self.interconnect > 0.0 && self.interconnect.is_finite(),
            "interconnect bandwidth must be positive"
        );
        assert!(self.staging.threads >= 1, "p_0 >= 1 (paper Sec. 4)");
    }

    /// Total local cache capacity `D = Σ d_j`, bytes (excludes staging).
    pub fn total_local_capacity(&self) -> u64 {
        self.classes.iter().map(|c| c.capacity).sum()
    }

    /// Capacities of the local classes, fastest first (for placement).
    pub fn class_capacities(&self) -> Vec<u64> {
        self.classes.iter().map(|c| c.capacity).collect()
    }

    /// Model `fetch` case 3: reading `size` bytes from local class `j`:
    /// `s / (r_j(p_j)/p_j)`.
    pub fn fetch_local(&self, class: u8, size: u64) -> f64 {
        size as f64 / self.classes[class as usize].read_per_thread()
    }

    /// Model `fetch` case 2: reading `size` bytes from a remote worker's
    /// class `j`: `s / min(b_c, r_j(p_j)/p_j)`.
    pub fn fetch_remote(&self, class: u8, size: u64) -> f64 {
        let per_thread = self.classes[class as usize].read_per_thread();
        size as f64 / self.interconnect.min(per_thread)
    }

    /// Model `fetch` case 1: reading `size` bytes from the PFS while
    /// `gamma` workers (including this one) read concurrently:
    /// `s / (t(γ)/γ)`.
    pub fn fetch_pfs(&self, size: u64, gamma: usize) -> f64 {
        let g = gamma.max(1) as f64;
        size as f64 / (self.pfs_read.at(g) / g)
    }

    /// Model `write_i`: preprocessing and storing `size` bytes into the
    /// staging buffer: `max(s/β, s/(w_0(p_0)/p_0))` (the two stages are
    /// pipelined, so the slower one dominates).
    pub fn write_time(&self, size: u64) -> f64 {
        let s = size as f64;
        (s / self.preprocess).max(s / self.staging.write_per_thread())
    }

    /// Origin look-ahead lanes per worker: how many concurrent origin
    /// streams each worker keeps on the samples no worker caches, whose
    /// bytes are `uncached_share` of the access stream.
    ///
    /// `clamp(⌈u·c ÷ (t(γ*)/γ*)⌉, 1, ⌈γ*/N⌉)`: as many streams as keep
    /// the uncached bytes arriving at the compute rate `c`, priced at
    /// the per-stream rate of the curve's knee `γ*`
    /// ([`ThroughputCurve::knee`]), and never more than the worker's
    /// share of `γ*` — past it the PFS has nothing more to give, and
    /// on a shared PFS the extra streams only slow other tenants. Zero
    /// when every sample is cached somewhere. The threaded runtime and
    /// the simulator both size their lanes with this one function.
    pub fn origin_lanes(&self, uncached_share: f64) -> usize {
        if uncached_share <= 0.0 {
            return 0;
        }
        let knee = self.pfs_read.knee();
        let per_stream = self.pfs_read.per_thread(knee as f64);
        let wanted = (uncached_share * self.compute / per_stream).ceil();
        // A float-to-int cast saturates, which the clamp then bounds.
        (wanted as usize).clamp(1, knee.div_ceil(self.workers))
    }

    /// Fetch time for `size` bytes from `location` (`γ` only matters for
    /// PFS). `Staging` costs zero fetch.
    pub fn fetch_time(&self, location: Location, size: u64, gamma: usize) -> f64 {
        match location {
            Location::Staging => 0.0,
            Location::Local(j) => self.fetch_local(j, size),
            Location::Remote(j) => self.fetch_remote(j, size),
            Location::Pfs => self.fetch_pfs(size, gamma),
        }
    }

    /// Model `read_i = fetch_i + write_i` for a sample of `size` bytes
    /// from `location`.
    pub fn read_time(&self, location: Location, size: u64, gamma: usize) -> f64 {
        self.fetch_time(location, size, gamma) + self.write_time(size)
    }

    /// The fastest source among the candidates, by modelled fetch time —
    /// the runtime's `argmin fetch` (Fig. 5). Ties favour earlier
    /// candidates, so list locations fastest-first by convention.
    pub fn fastest_source(
        &self,
        candidates: &[Location],
        size: u64,
        gamma: usize,
    ) -> Option<Location> {
        candidates
            .iter()
            .copied()
            .map(|loc| (loc, self.fetch_time(loc, size, gamma)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("fetch times are finite"))
            .map(|(loc, _)| loc)
    }

    /// Convenience: compute throughput expressed in samples/second for a
    /// given mean sample size.
    pub fn compute_samples_per_sec(&self, mean_sample_bytes: f64) -> f64 {
        self.compute / mean_sample_bytes
    }
}

/// Builder helpers for tests and presets.
impl SystemSpec {
    /// Returns a copy with different compute and preprocess rates (both
    /// in MB/s, the paper's unit) — the per-experiment knobs.
    pub fn with_compute_mbps(mut self, compute_mbps: f64, preprocess_mbps: f64) -> Self {
        self.compute = compute_mbps * MB;
        self.preprocess = preprocess_mbps * MB;
        self.validate();
        self
    }

    /// Returns a copy with a different worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self.validate();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use nopfs_util::units::{GB, MB};

    fn sys() -> SystemSpec {
        presets::fig8_small_cluster()
    }

    #[test]
    fn fig8_preset_matches_paper_numbers() {
        let s = sys();
        assert_eq!(s.workers, 4);
        assert!((s.compute - 64.0 * MB).abs() < 1.0);
        assert!((s.preprocess - 200.0 * MB).abs() < 1.0);
        assert!((s.interconnect - 24_000.0 * MB).abs() < 1.0);
        assert_eq!(s.staging.capacity, 5_000_000_000);
        assert_eq!(s.staging.threads, 8);
        assert_eq!(s.classes.len(), 2);
        assert_eq!(s.classes[0].capacity as f64, 120.0 * GB);
        assert_eq!(s.classes[1].capacity as f64, 900.0 * GB);
        assert_eq!(s.classes[0].prefetch_threads, 4);
        assert_eq!(s.classes[1].prefetch_threads, 2);
        s.validate();
    }

    #[test]
    fn local_fetch_uses_per_thread_rate() {
        let s = sys();
        // RAM: r_1(4) = 85 GB/s aggregate => 21.25 GB/s per thread.
        let t = s.fetch_local(0, 1_000_000_000);
        assert!((t - 1.0 / 21.25).abs() < 1e-6, "got {t}");
    }

    #[test]
    fn remote_fetch_capped_by_network() {
        let s = sys();
        // Remote RAM per-thread (21.25 GB/s) < b_c (24 GB/s): disk bound.
        let t_ram = s.fetch_remote(0, 1_000_000_000);
        assert!((t_ram - 1.0 / 21.25).abs() < 1e-6);
        // Remote SSD per-thread 2 GB/s: still disk bound; sanity only.
        let t_ssd = s.fetch_remote(1, 1_000_000_000);
        assert!((t_ssd - 0.5).abs() < 1e-6);
    }

    #[test]
    fn pfs_fetch_reflects_contention() {
        let s = sys();
        let size = 100 * 1_000_000u64; // 100 MB
                                       // 1 reader: 330 MB/s. 8 readers: 2870/8 = 358.75 MB/s per reader.
        let t1 = s.fetch_pfs(size, 1);
        let t8 = s.fetch_pfs(size, 8);
        assert!((t1 - 100.0 / 330.0).abs() < 1e-6);
        assert!((t8 - 100.0 / 358.75).abs() < 1e-6);
    }

    #[test]
    fn write_time_is_preprocess_bound() {
        let s = sys();
        // β = 200 MB/s, staging write per-thread is GB/s-scale: β wins.
        let t = s.write_time(200 * 1_000_000);
        assert!((t - 1.0).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn read_time_is_fetch_plus_write() {
        let s = sys();
        let size = 10 * 1_000_000u64;
        let r = s.read_time(Location::Pfs, size, 4);
        let expect = s.fetch_pfs(size, 4) + s.write_time(size);
        assert!((r - expect).abs() < 1e-12);
    }

    #[test]
    fn staging_hit_costs_no_fetch() {
        let s = sys();
        assert_eq!(s.fetch_time(Location::Staging, 1_000_000, 1), 0.0);
    }

    #[test]
    fn fastest_source_prefers_local_ram() {
        let s = sys();
        let got = s.fastest_source(
            &[Location::Local(0), Location::Remote(0), Location::Pfs],
            10_000_000,
            4,
        );
        assert_eq!(got, Some(Location::Local(0)));
    }

    #[test]
    fn fastest_source_prefers_remote_ram_over_local_ssd() {
        // The paper's counterintuitive observation: with a fast network,
        // remote RAM beats the local SSD.
        let s = sys();
        let got = s.fastest_source(&[Location::Local(1), Location::Remote(0)], 10_000_000, 4);
        assert_eq!(got, Some(Location::Remote(0)));
    }

    #[test]
    fn fastest_source_empty_is_none() {
        assert_eq!(sys().fastest_source(&[], 1, 1), None);
    }

    #[test]
    fn origin_lanes_follow_demand_up_to_the_knee() {
        // The ledger's contended PFS: t(γ) = 10 MB/s per stream up to
        // γ* = 4. Two workers at c = 64 MB/s with a fifth of the stream
        // uncached need 12.8 MB/s each: two streams, which is also each
        // worker's share of γ*.
        let mut s = sys().with_workers(2);
        s.pfs_read = presets::saturating_pfs_curve(40.0 * MB, 4.0);
        assert_eq!(s.pfs_read.knee(), 4);
        assert_eq!(s.origin_lanes(0.2), 2);
        assert_eq!(s.origin_lanes(0.05), 1, "one stream covers 3.2 MB/s");
        assert_eq!(s.origin_lanes(1.0), 2, "capped at the share of γ*");
        // The Lassen-like presets: one ~360 MB/s stream outruns compute.
        for preset in [presets::fig8_small_cluster(), presets::lassen_like()] {
            assert_eq!(preset.origin_lanes(0.2), 1, "{}", preset.name);
            assert_eq!(preset.origin_lanes(1.0), 1, "{}", preset.name);
        }
        // Full coverage: nothing to look ahead for.
        assert_eq!(s.origin_lanes(0.0), 0);
    }

    #[test]
    fn origin_lanes_never_pass_a_thrashing_curves_argmax() {
        // Aggregate throughput peaks at 8 readers and collapses beyond;
        // however starved compute is, the job keeps at most 8 streams.
        let curve = presets::thrashing_pfs_curve(64.0, 100.0 * MB);
        assert_eq!(curve.knee(), 8);
        for workers in [1, 2, 4, 8] {
            let mut s = sys().with_workers(workers);
            s.pfs_read = curve.clone();
            s.compute = 1e12;
            assert_eq!(s.origin_lanes(1.0) * workers, 8, "N = {workers}");
        }
        // More workers than γ*: one lane each is the floor.
        let mut s = sys().with_workers(32);
        s.pfs_read = curve;
        assert_eq!(s.origin_lanes(1.0), 1);
    }

    #[test]
    fn total_capacity_sums_classes() {
        let s = sys();
        assert_eq!(s.total_local_capacity() as f64, 1_020.0 * GB);
        assert_eq!(s.class_capacities().len(), 2);
    }

    #[test]
    fn builders_rescale() {
        let s = sys().with_compute_mbps(320.0, 1000.0).with_workers(8);
        assert!((s.compute - 320.0 * MB).abs() < 1.0);
        assert_eq!(s.workers, 8);
    }

    #[test]
    fn location_display() {
        assert_eq!(Location::Pfs.to_string(), "PFS");
        assert_eq!(Location::Local(0).to_string(), "local[0]");
        assert_eq!(Location::Remote(1).to_string(), "remote[1]");
        assert_eq!(Location::Staging.to_string(), "staging");
    }
}
