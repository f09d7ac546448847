//! Seeded fixtures: the dataset at rest on an in-memory `Pfs`, and the
//! access streams the loader is expected to deliver.
//!
//! The seed is the only input. It feeds `DatasetProfile::new(.., seed)`
//! (sizes, labels, payload bytes) and `JobConfig::seed` (the shuffles);
//! the loader sees the generated sizes, payloads and config, never the
//! seed's provenance.

use crate::workloads::Workload;
use bytes::Bytes;
use nopfs_clairvoyance::stream::AccessStream;
use nopfs_core::{JobConfig, SampleId};
use nopfs_datasets::DatasetProfile;
use nopfs_obs::ObsCtx;
use nopfs_pfs::Pfs;
use nopfs_util::rng::mix64;
use std::sync::Arc;
use std::time::Instant;

/// One workload's inputs, materialised.
pub struct Fixture {
    pub workload: Workload,
    pub seed: u64,
    pub profile: DatasetProfile,
    pub sizes: Arc<Vec<u64>>,
    /// Every sample's payload; the `Pfs` holds clones of the same
    /// buffers, so this costs no second copy.
    pub payloads: Vec<Bytes>,
    /// The dataset at rest, paced as the workload says.
    pub pfs: Pfs,
    /// What each rank must be handed, in order, over a whole round.
    expected: Vec<Vec<SampleId>>,
    /// Wall time of generating and storing the payloads.
    pub materialize_s: f64,
}

impl Fixture {
    pub fn new(workload: &Workload, seed: u64) -> Self {
        let t0 = Instant::now();
        let profile = DatasetProfile::new(
            workload.name,
            workload.samples,
            workload.mean_size,
            workload.std_size,
            1_000,
            seed,
        );
        let sizes = profile.sizes();
        let payloads: Vec<Bytes> = sizes
            .iter()
            .enumerate()
            .map(|(id, &size)| profile.sample_bytes(id as u64, size))
            .collect();
        let pfs = at_rest(workload, &payloads);
        Self {
            expected: expected_streams(workload, seed),
            workload: workload.clone(),
            seed,
            profile,
            sizes: Arc::new(sizes),
            payloads,
            pfs,
            materialize_s: t0.elapsed().as_secs_f64(),
        }
    }

    /// The same dataset under another workload description (other
    /// pacing, capacities, epochs): the payload buffers are shared, only
    /// the `Pfs` they rest on is rebuilt to the variant's pacing. The
    /// layer replays run on the unpaced variant.
    pub fn variant(&self, workload: Workload) -> Fixture {
        Fixture {
            pfs: at_rest(&workload, &self.payloads),
            expected: expected_streams(&workload, self.seed),
            workload,
            seed: self.seed,
            profile: self.profile.clone(),
            sizes: Arc::clone(&self.sizes),
            payloads: self.payloads.clone(),
            materialize_s: self.materialize_s,
        }
    }

    /// Samples each rank consumes per epoch (`drop_last` makes it the
    /// same on every rank).
    pub fn epoch_len(&self) -> u64 {
        self.job_config(None)
            .shuffle_spec(self.workload.samples)
            .worker_epoch_len(0)
    }

    /// The job configuration of one round of this workload.
    pub fn job_config(&self, obs: Option<ObsCtx>) -> JobConfig {
        let config = job_config(&self.workload, self.seed);
        match obs {
            Some(obs) => config.with_obs(obs),
            None => config,
        }
    }

    /// What rank `rank` must be handed, in order, over a whole round.
    pub fn expected_stream(&self, rank: usize) -> &[SampleId] {
        &self.expected[rank]
    }

    /// A digest of the generated dataset: every size, and the first and
    /// last words of every payload.
    pub fn digest(&self) -> u64 {
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("eight bytes"));
        self.payloads
            .iter()
            .zip(self.sizes.iter())
            .fold(self.seed, |acc, (data, &size)| {
                let head = word(&data[16..24]);
                let tail = word(&data[data.len() - 8..]);
                mix64(mix64(mix64(acc, size), head), tail)
            })
    }

    /// A digest of every rank's expected stream.
    pub fn stream_digest(&self) -> u64 {
        self.expected
            .iter()
            .flatten()
            .fold(self.seed, |acc, &id| mix64(acc, id))
    }
}

fn job_config(workload: &Workload, seed: u64) -> JobConfig {
    JobConfig::new(
        seed,
        workload.epochs,
        workload.batch,
        workload.system(),
        workload.scale(),
    )
    .drop_last(true)
}

/// Every rank's clairvoyant stream for one round of `workload`.
fn expected_streams(workload: &Workload, seed: u64) -> Vec<Vec<SampleId>> {
    let spec = job_config(workload, seed).shuffle_spec(workload.samples);
    (0..workload.ranks)
        .map(|rank| AccessStream::new(spec, rank, workload.epochs).materialize())
        .collect()
}

/// The dataset at rest on an in-memory `Pfs` paced as `workload` says.
/// The store takes clones of the payload handles, not of the bytes.
fn at_rest(workload: &Workload, payloads: &[Bytes]) -> Pfs {
    let pfs = Pfs::in_memory(workload.system().pfs_read, workload.scale());
    for (id, data) in payloads.iter().enumerate() {
        pfs.put(id as u64, data.clone());
    }
    pfs
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A workload small enough for unit tests.
    pub fn tiny(ranks: usize) -> Workload {
        Workload {
            name: "tiny",
            ranks,
            samples: 96,
            mean_size: 600.0,
            std_size: 50.0,
            batch: 4,
            ram: 40_000,
            ssd: 40_000,
            staging: 8_000,
            grad_elems: if ranks > 1 { 8 } else { 0 },
            realtime: false,
            pfs: None,
            one_cpu: false,
            epochs: 3,
            timed: 1..3,
            paused: 0..0,
            skip_rounds: 0,
        }
    }

    #[test]
    fn the_seed_alone_decides_the_fixture() {
        let w = tiny(2);
        let (a, b, c) = (
            Fixture::new(&w, 7),
            Fixture::new(&w, 7),
            Fixture::new(&w, 8),
        );
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.stream_digest(), b.stream_digest());
        assert_ne!(a.digest(), c.digest());
        assert_ne!(a.stream_digest(), c.stream_digest());
    }

    #[test]
    fn the_pfs_holds_what_the_profile_generates() {
        let f = Fixture::new(&tiny(1), 3);
        assert_eq!(f.pfs.len(), 96);
        let unpaced = f.variant(f.workload.unpaced()).pfs;
        for id in [0u64, 41, 95] {
            let data = f.pfs.read(id).unwrap();
            assert_eq!(data.len() as u64, f.sizes[id as usize]);
            assert_eq!(f.profile.decode(&data).unwrap().0, id);
            assert_eq!(unpaced.read(id).unwrap(), data);
        }
    }
}
