//! The four workloads, as data. Every size knob of the benchmark lives
//! in this file; the README's glossary says why each workload exists.

use nopfs_perfmodel::presets::{fig8_small_cluster, saturating_pfs_curve};
use nopfs_perfmodel::SystemSpec;
use nopfs_util::timing::TimeScale;
use nopfs_util::units::MB;
use std::ops::Range;

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;

/// A PFS whose `t(γ)` saturates at `peak` B/s with `clients` readers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaturatingPfs {
    pub peak: f64,
    pub clients: f64,
}

/// One workload: a dataset shape, a system, and which epochs of each
/// round are timed.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// Ranks `N`, each with one consumer thread.
    pub ranks: usize,
    /// Samples `F`.
    pub samples: u64,
    /// Sample size: mean and standard deviation, bytes.
    pub mean_size: f64,
    pub std_size: f64,
    /// Per-rank batch size.
    pub batch: usize,
    /// Per-worker RAM and SSD class capacities, bytes (0 = no class).
    pub ram: u64,
    pub ssd: u64,
    /// Staging (reorder stage) capacity, bytes.
    pub staging: u64,
    /// Elements of the per-batch gradient allreduce (0 = none).
    pub grad_elems: usize,
    /// Unpaced (`false`): `TimeScale::new(1e-6)` and a 10¹² B/s compute
    /// rate, so that every token bucket, `write_time`, `Endpoint::pace`
    /// and compute wait is below a nanosecond and wall time is the
    /// software's own cost. The modelled rates keep their order (RAM
    /// faster than a peer, a peer faster than the PFS), so source
    /// selection decides as it would on real hardware.
    /// Paced (`true`): real time, compute at 64 MB/s, preprocessing at
    /// 200 MB/s — the paper's regime.
    pub realtime: bool,
    /// The PFS curve; `None` keeps the preset's (Lassen-like) one.
    pub pfs: Option<SaturatingPfs>,
    /// Run the whole process on one CPU (see `probes::pin_to_one_cpu`).
    pub one_cpu: bool,
    /// Epochs `E` of each round's job. A round is one fresh
    /// `build_loaders` consumed to exhaustion.
    pub epochs: u64,
    /// The epochs of a round inside the timed region.
    pub timed: Range<u64>,
    /// Epochs right after the timed ones in which the consumer sleeps
    /// after each batch, so that the loader runs as far ahead as its
    /// reorder stage allows. A workload that has any takes
    /// `alloc_bytes_per_sample` from them instead of the timed region:
    /// how many tree nodes the stage allocates depends on how full it
    /// is, which in a closed loop is a race between two threads, and
    /// with a slow consumer it is always full. Empty: none.
    pub paused: Range<u64>,
    /// Leading rounds whose numbers are discarded (allocator and page
    /// cache warm-up where epoch 0 itself is what is timed).
    pub skip_rounds: usize,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        all().into_iter().find(|w| w.name == name)
    }

    pub fn scale(&self) -> TimeScale {
        if self.realtime {
            TimeScale::realtime()
        } else {
            TimeScale::new(1e-6)
        }
    }

    /// The modelled system the loader is configured with.
    pub fn system(&self) -> SystemSpec {
        let mut sys = fig8_small_cluster();
        sys.name = self.name.to_string();
        sys.workers = self.ranks;
        sys.staging.capacity = self.staging;
        sys.staging.threads = 1;
        sys.classes[0].capacity = self.ram;
        sys.classes[1].capacity = self.ssd;
        if let Some(pfs) = self.pfs {
            sys.pfs_read = saturating_pfs_curve(pfs.peak, pfs.clients);
        }
        if self.realtime {
            sys = sys.with_compute_mbps(64.0, 200.0);
        } else {
            sys.compute = 1e12;
        }
        sys.validate();
        sys
    }

    /// The same system with every modelled wait scaled away — what the
    /// single-threaded layer replays run on, so that they time the
    /// software and not a token bucket.
    pub fn unpaced(&self) -> Workload {
        Workload {
            realtime: false,
            ..self.clone()
        }
    }

    /// Every size knob on one line, for the header block.
    pub fn knobs(&self) -> String {
        format!(
            "N={} F={} size={}±{} B batch={} ram={} ssd={} staging={} grad_elems={} realtime={} pfs={:?} one_cpu={} E={} timed={:?} paused={:?} skip_rounds={}",
            self.ranks,
            self.samples,
            self.mean_size,
            self.std_size,
            self.batch,
            self.ram,
            self.ssd,
            self.staging,
            self.grad_elems,
            self.realtime,
            self.pfs,
            self.one_cpu,
            self.epochs,
            self.timed,
            self.paused,
            self.skip_rounds,
        )
    }
}

/// The four workloads, in the order the suite runs them.
pub fn all() -> Vec<Workload> {
    vec![
        // Every steady fetch is a local RAM hit; pfs and net idle.
        Workload {
            name: "ram_hit",
            ranks: 1,
            samples: 131_072,
            mean_size: (4 * KIB) as f64,
            std_size: 0.0,
            batch: 32,
            ram: 640 * MIB,
            ssd: 0,
            staging: 4 * MIB,
            grad_elems: 0,
            realtime: false,
            pfs: None,
            one_cpu: false,
            epochs: 10,
            timed: 1..9,
            paused: 9..10,
            skip_rounds: 0,
        },
        // Half the dataset fits each worker's RAM: the other half is
        // served by the peer. Six threads that mostly wait for each
        // other; pinned to one CPU so that the hypervisor's cross-CPU
        // wake-ups are not what is measured.
        Workload {
            name: "peer_remote",
            ranks: 2,
            samples: 8_192,
            mean_size: (64 * KIB) as f64,
            std_size: 0.0,
            batch: 16,
            ram: 8_192 * 64 * KIB / 2 + 4 * MIB,
            ssd: 0,
            staging: 16 * MIB,
            grad_elems: 256,
            realtime: false,
            pfs: None,
            one_cpu: true,
            epochs: 101,
            timed: 1..101,
            paused: 0..0,
            skip_rounds: 0,
        },
        // Epoch 0 of a fresh job: every sample read from the origin
        // and filled into RAM or SSD while the consumer reads it.
        Workload {
            name: "cold_fill",
            ranks: 1,
            samples: 32_768,
            mean_size: (16 * KIB) as f64,
            std_size: 0.0,
            batch: 32,
            ram: 256 * MIB,
            ssd: 320 * MIB,
            staging: 8 * MIB,
            grad_elems: 0,
            realtime: false,
            pfs: None,
            one_cpu: false,
            epochs: 2,
            timed: 0..1,
            paused: 0..0,
            skip_rounds: 2,
        },
        // The paper's regime: a contended t(γ) PFS hidden behind
        // compute by clairvoyant prefetching; aggregate cache is 0.8 of
        // the dataset.
        Workload {
            name: "paced_contended",
            ranks: 2,
            samples: 4_000,
            mean_size: 20_000.0,
            std_size: 5_000.0,
            batch: 8,
            ram: 16_000_000,
            ssd: 16_000_000,
            staging: 1_000_000,
            grad_elems: 256,
            realtime: true,
            pfs: Some(SaturatingPfs {
                peak: 40.0 * MB,
                clients: 4.0,
            }),
            one_cpu: false,
            epochs: 6,
            timed: 1..6,
            paused: 0..0,
            skip_rounds: 0,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_validates_and_times_epochs_it_runs() {
        for w in all() {
            w.system().validate();
            assert!(
                w.timed.start < w.timed.end && w.timed.end <= w.epochs,
                "{}",
                w.name
            );
            assert!(
                w.paused.is_empty() || (w.paused.start == w.timed.end && w.paused.end <= w.epochs),
                "{}",
                w.name
            );
            assert_eq!(Workload::by_name(w.name), Some(w));
        }
        assert_eq!(Workload::by_name("nope"), None);
    }

    #[test]
    fn the_unpaced_view_keeps_the_shape() {
        let paced = Workload::by_name("paced_contended").unwrap();
        let view = paced.unpaced();
        assert_eq!(view.system().pfs_read, paced.system().pfs_read);
        assert_eq!(view.system().classes[0].capacity, paced.ram);
        assert_eq!(view.scale(), TimeScale::new(1e-6));
    }
}
