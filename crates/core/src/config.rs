//! Job configuration (the parameters of the paper's `Job` class plus
//! the system description driving the performance model).

use nopfs_clairvoyance::sampler::ShuffleSpec;
use nopfs_obs::ObsCtx;
use nopfs_perfmodel::SystemSpec;
use nopfs_util::timing::TimeScale;

/// Everything needed to launch a NoPFS job.
///
/// The paper's Python `Job` takes the dataset, batch size, epoch count,
/// and optionally the seed; the system description comes from the
/// "system-wide configuration file" (here a [`SystemSpec`], e.g. one of
/// the `nopfs_perfmodel::presets`). [`TimeScale`] maps model
/// time to wall time for scaled-down experiments; use
/// [`TimeScale::realtime`] to run the hierarchy at face value.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Seed of the PRNG generating the access stream. The paper: it
    /// "can either be specified manually by the caller or generated by
    /// the library" — [`JobConfig::with_random_seed`] does the latter.
    pub seed: u64,
    /// Number of training epochs.
    pub epochs: u64,
    /// Per-worker mini-batch size.
    pub batch_size: usize,
    /// Drop the trailing partial global batch each epoch.
    pub drop_last: bool,
    /// The modelled system: worker count, staging buffer, storage
    /// classes, interconnect, and PFS curve.
    pub system: SystemSpec,
    /// Model-to-wall time mapping for all paced substrates.
    pub scale: TimeScale,
    /// Observability context: the metrics registry every component of
    /// the job registers into (scoped per rank inside the runtime) and
    /// the tracer structured events land in. Defaults to an active
    /// registry with tracing off; see [`JobConfig::with_obs`].
    pub obs: ObsCtx,
}

impl JobConfig {
    /// A config with explicit seed.
    pub fn new(
        seed: u64,
        epochs: u64,
        batch_size: usize,
        system: SystemSpec,
        scale: TimeScale,
    ) -> Self {
        system.validate();
        assert!(epochs > 0, "at least one epoch");
        assert!(batch_size > 0, "batch size must be positive");
        Self {
            seed,
            epochs,
            batch_size,
            drop_last: false,
            system,
            scale,
            obs: ObsCtx::new(),
        }
    }

    /// A config with a seed drawn from the system entropy source —
    /// the "generated by the library" option. The chosen seed is stored
    /// in `self.seed` so it can be logged and reproduced.
    pub fn with_random_seed(
        epochs: u64,
        batch_size: usize,
        system: SystemSpec,
        scale: TimeScale,
    ) -> Self {
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9E37_79B9)
            ^ std::process::id() as u64;
        Self::new(seed, epochs, batch_size, system, scale)
    }

    /// Enables `drop_last`.
    pub fn drop_last(mut self, yes: bool) -> Self {
        self.drop_last = yes;
        self
    }

    /// Replaces the observability context — e.g. a tenant-scoped
    /// registry, or [`ObsCtx::traced`] to capture structured events.
    #[must_use]
    pub fn with_obs(mut self, obs: ObsCtx) -> Self {
        self.obs = obs;
        self
    }

    /// The shuffle spec for a dataset of `num_samples`.
    pub fn shuffle_spec(&self, num_samples: u64) -> ShuffleSpec {
        ShuffleSpec::new(
            self.seed,
            num_samples,
            self.system.workers,
            self.batch_size,
            self.drop_last,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nopfs_perfmodel::presets::fig8_small_cluster;

    #[test]
    fn config_builds_consistent_spec() {
        let c = JobConfig::new(7, 3, 16, fig8_small_cluster(), TimeScale::realtime());
        let spec = c.shuffle_spec(1000);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.num_workers, 4);
        assert_eq!(spec.batch_size, 16);
        assert!(!spec.drop_last);
        let spec2 = c.drop_last(true).shuffle_spec(1000);
        assert!(spec2.drop_last);
    }

    #[test]
    fn random_seed_is_recorded_and_reproducible() {
        let c = JobConfig::with_random_seed(1, 1, fig8_small_cluster(), TimeScale::realtime());
        // Reusing the recorded seed reproduces the stream.
        let spec_a = c.shuffle_spec(100);
        let spec_b = JobConfig::new(c.seed, 1, 1, fig8_small_cluster(), TimeScale::realtime())
            .shuffle_spec(100);
        assert_eq!(
            spec_a.epoch_shuffle(0).global_order(),
            spec_b.epoch_shuffle(0).global_order()
        );
    }

    #[test]
    #[should_panic(expected = "at least one epoch")]
    fn rejects_zero_epochs() {
        JobConfig::new(1, 0, 1, fig8_small_cluster(), TimeScale::realtime());
    }
}
