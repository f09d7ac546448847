//! End-to-end training with a real (tiny) model: accuracy vs time.
//!
//! Mirrors the paper's Fig. 16 at example scale: a logistic-regression
//! model is trained data-parallel through NoPFS and through a
//! PyTorch-like loader on identical substrates. Both see exactly the
//! same sample order (full-dataset randomization from the same seed),
//! so accuracy per epoch is identical — but NoPFS finishes sooner.
//!
//! Run with: `cargo run --release --example training_accuracy`

use nopfs::baselines::{run_policy, DataLoader};
use nopfs::core::JobConfig;
use nopfs::datasets::DatasetProfile;
use nopfs::net::{cluster, Endpoint, NetConfig};
use nopfs::perfmodel::presets::{lassen_like, saturating_pfs_curve};
use nopfs::pfs::Pfs;
use nopfs::policy::PolicyId;
use nopfs::train::{LogisticModel, SyntheticTask};
use nopfs::util::timing::TimeScale;
use nopfs::util::units::MB;
use parking_lot::Mutex;
use std::sync::Arc;

const WORKERS: usize = 4;
const EPOCHS: u64 = 6;
const DIM: usize = 16;

fn train(
    name: &str,
    profile: &DatasetProfile,
    sizes: Arc<Vec<u64>>,
    policy: PolicyId,
) -> (f64, f64) {
    let scale = TimeScale::new(0.5);
    let mut system = lassen_like();
    system.workers = WORKERS;
    system.staging.threads = 2;
    system.staging.capacity = 512 * 1_024;
    system.classes[0].capacity = 8 * 1_000_000;
    system.classes[1].capacity = 16 * 1_000_000;
    system.pfs_read = saturating_pfs_curve(48.0 * MB, 8.0);
    let config = JobConfig::new(0xACC, EPOCHS, 8, system.clone(), scale);

    let task = SyntheticTask::new(DIM, 1.5, 1.0, 7);
    let eval: Vec<(Vec<f32>, f32)> = (500_000..500_300u64)
        .map(|id| {
            let label = profile.label_of(id);
            (task.features(id, label), task.label(label))
        })
        .collect();

    let endpoints: Mutex<Vec<Option<Endpoint<Vec<f32>>>>> = Mutex::new(
        cluster::<Vec<f32>>(WORKERS, NetConfig::new(system.interconnect, scale))
            .into_iter()
            .map(Some)
            .collect(),
    );
    let body = |loader: &mut dyn DataLoader| {
        let ep = endpoints.lock()[loader.rank()].take().expect("one take");
        let mut model = LogisticModel::new(DIM);
        let mut grad = vec![0.0f32; DIM + 1];
        let t0 = std::time::Instant::now();
        while let Some(batch) = loader.next_batch() {
            let bytes: u64 = batch.iter().map(|(_, d)| d.len() as u64).sum();
            let examples: Vec<(Vec<f32>, f32)> = batch
                .iter()
                .map(|(id, _)| {
                    let label = profile.label_of(*id);
                    (task.features(*id, label), task.label(label))
                })
                .collect();
            model.gradient(&examples, &mut grad);
            scale.wait(bytes as f64 / (24.0 * MB)); // the "GPU"
            ep.allreduce_sum(&mut grad).expect("allreduce");
            for g in grad.iter_mut() {
                *g /= WORKERS as f32;
            }
            model.apply(&grad, 0.5);
        }
        (scale.to_model(t0.elapsed()), model.accuracy(&eval))
    };

    let pfs = Pfs::in_memory(system.pfs_read.clone(), scale);
    profile.materialize(&pfs);
    let results = run_policy(policy, config, sizes, &pfs, body)
        .expect("both loaders run any configuration")
        .per_worker;
    let time = results.iter().map(|r| r.0).fold(0.0, f64::max);
    let acc = results[0].1;
    println!(
        "{name:<14} trained {EPOCHS} epochs in {time:>7.3}s -> accuracy {:.1}%",
        acc * 100.0
    );
    (time, acc)
}

fn main() {
    let profile = DatasetProfile::new("accuracy-demo", 800, 24_000.0, 0.0, 2, 0xACE);
    let sizes = Arc::new(profile.sizes());
    println!(
        "training a logistic model data-parallel on {WORKERS} workers, \
         {} samples, {EPOCHS} epochs",
        profile.num_samples
    );
    println!();
    let (pt_time, pt_acc) = train(
        "PyTorch-like",
        &profile,
        Arc::clone(&sizes),
        PolicyId::StagingBuffer,
    );
    let (np_time, np_acc) = train("NoPFS", &profile, Arc::clone(&sizes), PolicyId::NoPfs);
    println!();
    println!(
        "same accuracy ({:.1}% vs {:.1}% — same randomization), {:.2}x \
         end-to-end speedup from I/O alone (paper Fig. 16: 1.42x).",
        pt_acc * 100.0,
        np_acc * 100.0,
        pt_time / np_time
    );
}
