//! Property tests for the observability layer: histogram bucket
//! boundaries and quantiles must be monotone, merging must be
//! associative, and snapshots taken under concurrent writers must
//! account for every recorded observation.

use nopfs_obs::metrics::{bucket_of, bucket_upper, HistogramSnapshot, HISTOGRAM_BUCKETS};
use nopfs_obs::{Registry, Snapshot};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn histogram_of(values: &[u64]) -> HistogramSnapshot {
    let r = Registry::new();
    let h = r.histogram("h");
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// value → bucket is monotone: a larger value never lands in a
    /// smaller bucket, and every value lies within its bucket's edges.
    #[test]
    fn bucket_assignment_is_monotone_and_bounded(
        raw in prop::collection::vec(any::<u64>(), 2..64),
    ) {
        let mut values = raw;
        values.sort_unstable();
        let buckets: Vec<usize> = values.iter().map(|&v| bucket_of(v)).collect();
        for w in buckets.windows(2) {
            prop_assert!(w[0] <= w[1], "bucket order violates value order");
        }
        for (&v, &b) in values.iter().zip(&buckets) {
            prop_assert!(b < HISTOGRAM_BUCKETS);
            prop_assert!(v <= bucket_upper(b));
            if b > 0 {
                prop_assert!(v > bucket_upper(b - 1));
            }
        }
    }

    /// bucket → quantile is monotone: for any recorded set, a higher
    /// quantile never reports a smaller value, `quantile(1.0)` is the
    /// exact maximum, and every quantile lies within the observed range
    /// rounded up to its bucket edge.
    #[test]
    fn quantiles_are_monotone_and_clamped(
        values in prop::collection::vec(0u64..1_000_000_000, 1..80),
        qs in prop::collection::vec(0.0f64..=1.0, 2..8),
    ) {
        let snap = histogram_of(&values);
        let mut qs = qs;
        qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let reported: Vec<u64> = qs.iter().map(|&q| snap.quantile(q)).collect();
        for w in reported.windows(2) {
            prop_assert!(w[0] <= w[1], "quantile not monotone: {reported:?}");
        }
        let max = *values.iter().max().unwrap();
        let min = *values.iter().min().unwrap();
        prop_assert_eq!(snap.quantile(1.0), max);
        for &r in &reported {
            prop_assert!(r <= max);
            prop_assert!(r >= min.min(bucket_upper(bucket_of(min))));
        }
    }

    /// Histogram merge is associative and commutative: (a ∪ b) ∪ c
    /// equals a ∪ (b ∪ c) and b ∪ a bucket-for-bucket.
    #[test]
    fn merge_is_associative_and_commutative(
        a in prop::collection::vec(any::<u64>(), 0..40),
        b in prop::collection::vec(any::<u64>(), 0..40),
        c in prop::collection::vec(any::<u64>(), 0..40),
    ) {
        let (ha, hb, hc) = (histogram_of(&a), histogram_of(&b), histogram_of(&c));

        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);

        let mut right_tail = hb.clone();
        right_tail.merge(&hc);
        let mut right = ha.clone();
        right.merge(&right_tail);

        prop_assert_eq!(&left, &right);

        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);

        // The merged histogram equals recording the concatenation.
        let mut all = a.clone();
        all.extend_from_slice(&b);
        all.extend_from_slice(&c);
        // Sum wraps identically in both paths, so compare whole snapshots.
        prop_assert_eq!(left, histogram_of(&all));
    }

    /// Snapshot merging over disjoint per-worker registries equals one
    /// registry recording everything (the "cluster totals" identity).
    #[test]
    fn snapshot_merge_equals_single_registry(
        per_worker in prop::collection::vec(
            prop::collection::vec(0u64..10_000, 0..20), 1..5),
    ) {
        let combined = Registry::new();
        let mut merged = Snapshot::default();
        for values in &per_worker {
            let r = Registry::new();
            for &v in values {
                r.counter("events").inc();
                r.histogram("lat").record(v);
                combined.counter("events").inc();
                combined.histogram("lat").record(v);
            }
            merged.merge(&r.snapshot());
        }
        let want = combined.snapshot();
        prop_assert_eq!(merged.counter_total("events"), want.counter_total("events"));
        let total: usize = per_worker.iter().map(Vec::len).sum();
        if total > 0 {
            prop_assert_eq!(merged.histogram("lat").unwrap(), want.histogram("lat").unwrap());
        }
    }
}

/// Snapshots taken while writers are still running never lose updates:
/// after the writers join, the final snapshot accounts for exactly the
/// recorded sum, and every mid-flight snapshot was monotone.
#[test]
fn concurrent_writers_sum_observed_equals_sum_recorded() {
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 20_000;
    let r = Registry::new();
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let r = r.clone();
            std::thread::spawn(move || {
                let c = r.counter("obs.test.count");
                let h = r.histogram("obs.test.lat");
                let mut sum = 0u64;
                for i in 0..PER_WRITER {
                    let v = w * 31 + i % 97;
                    c.inc();
                    h.record(v);
                    sum += v;
                }
                sum
            })
        })
        .collect();

    // A reader snapshots continuously while the writers run; counters
    // must be monotone and internally consistent at every observation.
    // It snapshots before it checks `stop`, so it observes at least
    // once even when the writers are done before it is first scheduled.
    let reader = {
        let r = r.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last = 0u64;
            let mut observations = 0u64;
            loop {
                let snap = r.snapshot();
                let n = snap.counter_total("obs.test.count");
                assert!(n >= last, "counter went backwards under writers");
                last = n;
                observations += 1;
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            observations
        })
    };

    let recorded_sum: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
    stop.store(true, Ordering::Relaxed);
    let observations = reader.join().unwrap();
    assert!(observations > 0);

    let snap = r.snapshot();
    assert_eq!(snap.counter_total("obs.test.count"), WRITERS * PER_WRITER);
    let h = snap.histogram("obs.test.lat").unwrap();
    assert_eq!(h.count, WRITERS * PER_WRITER);
    assert_eq!(h.sum, recorded_sum, "sum of observed != sum of recorded");
    assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
}
