//! Instrumentation overhead: the per-fetch cost of an *active* metrics
//! registry (counter increment + histogram record) must stay within 5%
//! of the no-op registry on a realistic fetch path, which is the bar
//! the runtime instrumentation was designed against — observability
//! must be cheap enough to leave on.
//!
//! The loop body simulates the cheapest fetch the runtime ever serves
//! (a node-local RAM read: touch a 4 KiB sample and fold it into a
//! checksum). Against that floor, the two-metric bookkeeping the
//! worker records per fetch must be noise. Slower tiers only dilute
//! the overhead further.

use nopfs_obs::Registry;
use std::hint::black_box;
use std::time::Instant;

const SAMPLE_BYTES: usize = 4096;
const ITERS: u64 = 200_000;
const ROUNDS: usize = 9;

/// The cheapest unit of real work per fetch: scan the sample.
fn touch_sample(sample: &[u8], salt: u64) -> u64 {
    let mut acc = salt;
    for chunk in sample.chunks_exact(8) {
        let mut w = [0u8; 8];
        w.copy_from_slice(chunk);
        acc = acc.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ u64::from_le_bytes(w);
    }
    acc
}

/// One simulated fetch loop: real work plus the same counter bump and
/// latency observation the worker fetch path records per sample.
fn fetch_loop(registry: &Registry, sample: &[u8]) -> u64 {
    let served = registry.counter("bench.fetch.served");
    let latency = registry.histogram("bench.fetch.latency_ns");
    let mut acc = 0u64;
    for i in 0..ITERS {
        acc = touch_sample(black_box(sample), acc ^ i);
        served.inc();
        latency.record(black_box(acc | 1));
    }
    black_box(acc)
}

/// Median-of-rounds wall time for the fetch loop against `registry`.
fn measure(registry: &Registry, sample: &[u8]) -> f64 {
    // Warm up: fault in the metric handles and the branch predictor.
    black_box(fetch_loop(registry, sample));
    let mut samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(fetch_loop(registry, sample));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn main() {
    let sample: Vec<u8> = (0..SAMPLE_BYTES).map(|i| (i * 131) as u8).collect();
    let active = Registry::new();
    let noop = Registry::noop();

    let t_active = measure(&active, &sample);
    let t_noop = measure(&noop, &sample);
    let per_op_active = t_active / ITERS as f64 * 1e9;
    let per_op_noop = t_noop / ITERS as f64 * 1e9;
    let overhead = (t_active - t_noop) / t_noop * 100.0;
    println!("--- instrumentation overhead (per 4 KiB RAM-tier fetch) ---");
    println!("    noop   registry: {per_op_noop:>8.2} ns/fetch");
    println!("    active registry: {per_op_active:>8.2} ns/fetch");
    println!("    overhead vs noop: {overhead:>+6.2}%");

    // The acceptance bar: active instrumentation within 5% of the
    // no-op registry on the cheapest fetch the runtime serves.
    assert!(
        t_active <= t_noop * 1.05,
        "instrumentation overhead {overhead:.2}% exceeds 5% budget \
         (active {per_op_active:.2} ns/fetch vs noop {per_op_noop:.2} ns/fetch)"
    );
    println!("    [PASS] overhead within 5% budget");
}
