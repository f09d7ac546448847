//! Simulation scenarios: a system, a dataset (as a size vector), and the
//! training-run parameters.
//!
//! The paper organizes its study around four storage regimes (Sec. 6),
//! determined by how the dataset size `S` compares to the fastest class
//! `d_1`, a worker's total local storage `D`, and the cluster's aggregate
//! `N·D`; [`Scenario::regime`] classifies a scenario accordingly.

use crate::cloud::CloudSpec;
use nopfs_clairvoyance::sampler::ShuffleSpec;
use nopfs_obs::ObsCtx;
use nopfs_perfmodel::SystemSpec;

/// Which of the paper's four caching regimes a scenario falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageRegime {
    /// `S < d_1`: dataset fits in every worker's fastest class.
    FitsInFastestClass,
    /// `d_1 < S ≤ D`: fits in one worker's aggregate local storage.
    FitsInWorker,
    /// `D < S ≤ N·D`: fits only in the cluster's aggregate storage.
    FitsInCluster,
    /// `N·D < S`: exceeds even aggregate cluster storage.
    ExceedsCluster,
}

impl std::fmt::Display for StorageRegime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageRegime::FitsInFastestClass => write!(f, "S < d1"),
            StorageRegime::FitsInWorker => write!(f, "d1 < S < D"),
            StorageRegime::FitsInCluster => write!(f, "D < S < N*D"),
            StorageRegime::ExceedsCluster => write!(f, "N*D < S"),
        }
    }
}

/// A complete simulation input.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario label for reports ("ImageNet-1k", …).
    pub name: String,
    /// The modelled system (includes worker count `N`).
    pub system: SystemSpec,
    /// Per-sample sizes in bytes (`s_k`; length is `F`).
    pub sizes: Vec<u64>,
    /// Training epochs `E`.
    pub epochs: u64,
    /// Per-worker batch size `b`.
    pub batch_size: usize,
    /// Seed generating the SGD access stream.
    pub seed: u64,
    /// Drop the trailing partial global batch each epoch.
    pub drop_last: bool,
    /// When set, the origin is an object store priced by the analytic
    /// cloud model instead of the PFS curve (see [`crate::cloud`]).
    pub cloud: Option<CloudSpec>,
    /// Where a run counts its modelled fetches (`sim.fetch{loc=…}`) and
    /// emits its model-clock trace events.
    pub obs: ObsCtx,
}

impl Scenario {
    /// Validates and constructs a scenario.
    ///
    /// # Panics
    /// Panics on empty datasets, zero epochs, or a zero batch size; the
    /// underlying [`ShuffleSpec`] panics if `drop_last` would drop the
    /// entire dataset.
    pub fn new(
        name: impl Into<String>,
        system: SystemSpec,
        sizes: Vec<u64>,
        epochs: u64,
        batch_size: usize,
        seed: u64,
    ) -> Self {
        assert!(!sizes.is_empty(), "dataset must contain samples");
        assert!(epochs > 0, "at least one epoch");
        assert!(batch_size > 0, "batch size must be positive");
        system.validate();
        let s = Self {
            name: name.into(),
            system,
            sizes,
            epochs,
            batch_size,
            seed,
            drop_last: false,
            cloud: None,
            obs: ObsCtx::new(),
        };
        // Force the shuffle-spec invariants now rather than mid-run.
        let _ = s.shuffle_spec();
        s
    }

    /// Routes the origin through the analytic cloud model.
    #[must_use]
    pub fn with_cloud(mut self, cloud: CloudSpec) -> Self {
        self.cloud = Some(cloud);
        self
    }

    /// Replaces the observability context (default: [`ObsCtx::new`]).
    #[must_use]
    pub fn with_obs(mut self, obs: ObsCtx) -> Self {
        self.obs = obs;
        self
    }

    /// The shuffle spec generating every worker's access stream.
    pub fn shuffle_spec(&self) -> ShuffleSpec {
        ShuffleSpec::new(
            self.seed,
            self.sizes.len() as u64,
            self.system.workers,
            self.batch_size,
            self.drop_last,
        )
    }

    /// Number of samples `F`.
    pub fn num_samples(&self) -> u64 {
        self.sizes.len() as u64
    }

    /// Total dataset size `S`, bytes.
    pub fn total_bytes(&self) -> u64 {
        self.sizes.iter().sum()
    }

    /// Mean sample size, bytes.
    pub fn mean_sample_bytes(&self) -> f64 {
        self.total_bytes() as f64 / self.sizes.len() as f64
    }

    /// Which storage regime the scenario falls into (Sec. 6's cases 1–4).
    pub fn regime(&self) -> StorageRegime {
        let s = self.total_bytes();
        let d1 = self.system.classes.first().map_or(0, |c| c.capacity);
        let d = self.system.total_local_capacity();
        let nd = d.saturating_mul(self.system.workers as u64);
        if s <= d1 {
            StorageRegime::FitsInFastestClass
        } else if s <= d {
            StorageRegime::FitsInWorker
        } else if s <= nd {
            StorageRegime::FitsInCluster
        } else {
            StorageRegime::ExceedsCluster
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nopfs_perfmodel::presets::fig8_small_cluster;
    use nopfs_util::units::GB;

    fn scenario_with_total(total_gb: f64) -> Scenario {
        let n = 1000usize;
        let per = (total_gb * GB / n as f64) as u64;
        Scenario::new("test", fig8_small_cluster(), vec![per; n], 2, 8, 7)
    }

    #[test]
    fn regime_classification_matches_paper_cases() {
        // fig8 cluster: d1 = 120 GB, D = 1020 GB, N*D = 4080 GB.
        assert_eq!(
            scenario_with_total(40.0 / 1000.0).regime(),
            StorageRegime::FitsInFastestClass // MNIST-like
        );
        assert_eq!(
            scenario_with_total(135.0).regime(),
            StorageRegime::FitsInWorker // ImageNet-1k-like
        );
        assert_eq!(
            scenario_with_total(1_500.0).regime(),
            StorageRegime::FitsInCluster // ImageNet-22k-like
        );
        // CosmoFlow is 262,144 x 17 MB = 4.456 TB (the paper's "4 TB"),
        // which exceeds N*D = 4.08 TB.
        assert_eq!(
            scenario_with_total(4_456.0).regime(),
            StorageRegime::ExceedsCluster
        );
    }

    #[test]
    fn totals_and_means() {
        let s = Scenario::new("t", fig8_small_cluster(), vec![10, 20, 30], 1, 1, 0);
        assert_eq!(s.total_bytes(), 60);
        assert_eq!(s.num_samples(), 3);
        assert!((s.mean_sample_bytes() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn regime_display() {
        assert_eq!(StorageRegime::FitsInWorker.to_string(), "d1 < S < D");
        assert_eq!(StorageRegime::ExceedsCluster.to_string(), "N*D < S");
    }

    #[test]
    #[should_panic(expected = "must contain samples")]
    fn rejects_empty_dataset() {
        Scenario::new("x", fig8_small_cluster(), vec![], 1, 1, 0);
    }
}
