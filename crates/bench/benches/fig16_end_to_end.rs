//! Fig. 16: end-to-end training — accuracy versus time and epochs.
//!
//! The paper trains ResNet-50/ImageNet-1k to 76.5% top-1 with both
//! loaders: the accuracy-vs-epoch curves coincide (both do full-dataset
//! randomization) while NoPFS's accuracy-vs-*time* curve is compressed
//! 1.42×. Here a real (tiny) logistic-regression model is trained
//! data-parallel through each loader on a synthetic separable task; the
//! gradients genuinely flow through the modelled interconnect, and the
//! wall-clock difference comes from the loaders alone.

use nopfs_baselines::{run_policy, DataLoader};
use nopfs_bench::report;
use nopfs_bench::scenarios::{runtime_system, SystemKind};
use nopfs_core::JobConfig;
use nopfs_datasets::DatasetProfile;
use nopfs_net::{cluster, Endpoint, NetConfig};
use nopfs_pfs::Pfs;
use nopfs_policy::PolicyId;
use nopfs_train::{LogisticModel, SyntheticTask};
use nopfs_util::timing::TimeScale;
use parking_lot::Mutex;
use std::sync::Arc;

const DIM: usize = 24;
const EPOCHS: u64 = 8;
const WORKERS: usize = 4;
const LR: f32 = 0.5;
const COMPUTE: f64 = 24.0e6; // model bytes/s

struct EpochPoint {
    time: f64,
    accuracy: f64,
}

/// The per-worker training closure: a real data-parallel SGD loop.
fn train_worker(
    loader: &mut dyn DataLoader,
    profile: &DatasetProfile,
    task: &SyntheticTask,
    endpoint: &Endpoint<Vec<f32>>,
    scale: TimeScale,
    eval: &[(Vec<f32>, f32)],
) -> Vec<EpochPoint> {
    let mut model = LogisticModel::new(DIM);
    let mut grad = vec![0.0f32; DIM + 1];
    let mut curve = Vec::new();
    let epoch_len = loader.epoch_len();
    let mut consumed = 0u64;
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
        // The emulated heavy compute (the tiny model is the stand-in
        // for ResNet-50; its real cost is microseconds).
        scale.wait(bytes as f64 / COMPUTE);
        endpoint.allreduce_sum(&mut grad).expect("allreduce");
        for g in grad.iter_mut() {
            *g /= WORKERS as f32;
        }
        model.apply(&grad, LR);
        consumed += batch.len() as u64;
        if consumed.is_multiple_of(epoch_len) {
            curve.push(EpochPoint {
                time: scale.to_model(t0.elapsed()),
                accuracy: model.accuracy(eval),
            });
        }
    }
    curve
}

fn run(policy: PolicyId, profile: &DatasetProfile, sizes: Arc<Vec<u64>>) -> Vec<EpochPoint> {
    let mut system = runtime_system(SystemKind::Lassen, WORKERS, 1.0 / 2_000.0, 48.0);
    system.compute = COMPUTE;
    let scale = TimeScale::new(0.5);
    let config = JobConfig::new(0xF1_66, EPOCHS, 8, system.clone(), scale);
    let task = SyntheticTask::new(DIM, 1.5, 1.0, 0xAC);
    let eval: Vec<(Vec<f32>, f32)> = (1_000_000..1_000_400u64)
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
        train_worker(loader, profile, &task, &ep, scale, &eval)
    };
    let pfs = Pfs::in_memory(system.pfs_read.clone(), scale);
    profile.materialize(&pfs);
    let mut curves = run_policy(policy, config, sizes, &pfs, body)
        .expect("every compared loader runs this configuration")
        .per_worker;
    // All workers hold identical models (synchronous SGD); report the
    // slowest worker's clock, the bulk-synchronous convention.
    let mut out = curves.pop().expect("at least one worker");
    for c in curves {
        for (o, p) in out.iter_mut().zip(c) {
            o.time = o.time.max(p.time);
        }
    }
    out
}

fn main() {
    report::banner(
        "Fig. 16",
        "End-to-end training: accuracy vs time and epochs (scaled)",
    );
    let profile = DatasetProfile::new("Fig16-Synthetic", 1_200, 20_000.0, 0.0, 2, 0xF16D);
    let sizes = Arc::new(profile.sizes());
    report::config_line(&format!(
        "{WORKERS} workers, {EPOCHS} epochs, F={}, logistic model dim={DIM}",
        profile.num_samples
    ));

    let mut finals = Vec::new();
    for (policy, id) in [
        ("pytorch", PolicyId::StagingBuffer),
        ("nopfs", PolicyId::NoPfs),
        ("noio", PolicyId::Perfect),
    ] {
        let curve = run(id, &profile, Arc::clone(&sizes));
        report::section(&format!("{policy} — accuracy per epoch"));
        for (e, p) in curve.iter().enumerate() {
            println!(
                "epoch {:>2}: t = {:>8.3}s   accuracy = {:>5.1}%",
                e,
                p.time,
                p.accuracy * 100.0
            );
        }
        let last = curve.last().expect("training produced epochs");
        finals.push((policy, last.time, last.accuracy));
    }

    report::section("Summary (paper: 111 min PyTorch vs 78 min NoPFS, both 76.5%)");
    for (policy, time, acc) in &finals {
        println!(
            "{policy:<8} finished at {time:>8.3}s with accuracy {:>5.1}%",
            acc * 100.0
        );
    }
    let pt = finals.iter().find(|f| f.0 == "pytorch").expect("ran");
    let np = finals.iter().find(|f| f.0 == "nopfs").expect("ran");
    println!(
        "NoPFS end-to-end speedup over PyTorch: {} (paper: 1.42x); \
         accuracy difference: {:.2} points (paper: none — same randomization)",
        report::ratio(pt.1, np.1),
        (pt.2 - np.2).abs() * 100.0
    );
}
