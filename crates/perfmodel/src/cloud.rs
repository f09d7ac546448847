//! The cloud origin's failure vocabulary, declared once.
//!
//! An object-store origin (arxiv 2108.06322) misbehaves in
//! characteristic ways: tail-latency spikes, explicit throttling (HTTP
//! 503 "slow down"), and brownout windows where both get worse at once.
//! [`CloudFaults`] names those disturbances, and every harness takes
//! this one type: a fault plan carries it (`nopfs_policy::FaultPlan`'s
//! `cloud` clause), the threaded runtime's object store realizes it on
//! the wall clock (`nopfs_storage::ObjectStoreBackend`, seeded per
//! rank), and the simulator prices it on the model clock
//! (`nopfs_simulator::CloudSpec`).
//!
//! The disturbances are *bounded by construction*: a throttle burst is
//! at most `throttle_burst` consecutive responses per sample, followed
//! by one guaranteed clean read, so a retry budget above the bound
//! (plus breaker settings that out-wait the longest brownout) keeps
//! every read eventually successful and the global sample stream
//! bit-identical to the fault-free run.

/// One scheduled brownout of the cloud origin: a window of degraded
/// service, in model seconds from the start of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Brownout {
    /// Window start, model seconds.
    pub start: f64,
    /// Window length, model seconds.
    pub duration: f64,
    /// Latency multiplier (and throughput divisor) inside the window
    /// (≥ 1).
    pub latency_factor: f64,
    /// Additional probability that a request inside the window is
    /// throttled.
    pub throttle_rate: f64,
}

impl Brownout {
    /// Whether model time `now` falls inside the window.
    pub fn contains(&self, now: f64) -> bool {
        now >= self.start && now < self.start + self.duration
    }
}

/// Cloud-origin disturbances: seeded tail-latency spikes, bounded
/// throttle bursts, and scheduled brownout windows.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudFaults {
    /// Probability a request draws a tail-latency spike.
    pub spike_rate: f64,
    /// Latency multiplier of a spiked request (≥ 1).
    pub spike_factor: f64,
    /// Baseline probability a fresh request opens a throttle burst.
    pub throttle_rate: f64,
    /// Maximum consecutive throttle responses per sample (≥ 1); one
    /// clean read is guaranteed after each burst. Keep below the retry
    /// budget.
    pub throttle_burst: u32,
    /// Server `retry_after` hint on throttles, model seconds.
    pub retry_after: f64,
    /// Scheduled brownout windows.
    pub brownouts: Vec<Brownout>,
    /// Seed of the spike/throttle pattern.
    pub seed: u64,
}

impl CloudFaults {
    /// A quiet cloud origin: no spikes, throttles, or brownouts.
    pub fn none(seed: u64) -> Self {
        Self {
            spike_rate: 0.0,
            spike_factor: 1.0,
            throttle_rate: 0.0,
            throttle_burst: 1,
            retry_after: 0.0,
            brownouts: Vec::new(),
            seed,
        }
    }

    /// Adds a brownout window (builder style).
    #[must_use]
    pub fn brownout(
        mut self,
        start: f64,
        duration: f64,
        latency_factor: f64,
        throttle_rate: f64,
    ) -> Self {
        self.brownouts.push(Brownout {
            start,
            duration,
            latency_factor,
            throttle_rate,
        });
        self
    }

    /// Latency factor and extra throttle probability at model time
    /// `now` (the strongest active brownout wins).
    pub fn brownout_at(&self, now: f64) -> (f64, f64) {
        let mut factor = 1.0f64;
        let mut throttle = 0.0f64;
        for w in self.brownouts.iter().filter(|w| w.contains(now)) {
            factor = factor.max(w.latency_factor);
            throttle = throttle.max(w.throttle_rate);
        }
        (factor, throttle)
    }

    /// Checks rates, factors, and windows.
    ///
    /// # Errors
    /// A description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        let rate = |name: &str, r: f64| {
            if (0.0..1.0).contains(&r) {
                Ok(())
            } else {
                Err(format!("cloud {name} {r} outside [0, 1)"))
            }
        };
        rate("spike_rate", self.spike_rate)?;
        rate("throttle_rate", self.throttle_rate)?;
        if self.spike_factor < 1.0 {
            return Err(format!("cloud spike_factor {} below 1", self.spike_factor));
        }
        if self.throttle_burst < 1 {
            return Err("cloud throttle_burst must be ≥ 1".into());
        }
        if self.retry_after < 0.0 {
            return Err(format!("cloud retry_after {} negative", self.retry_after));
        }
        for (i, w) in self.brownouts.iter().enumerate() {
            if w.start < 0.0 || w.duration < 0.0 {
                return Err(format!("brownout {i} has a negative start or duration"));
            }
            if w.latency_factor < 1.0 {
                return Err(format!("brownout {i} latency_factor below 1"));
            }
            rate(&format!("brownout {i} throttle_rate"), w.throttle_rate)?;
        }
        Ok(())
    }
}
