//! The model's consumption recurrence (paper Sec. 4, Fig. 4).
//!
//! The key metric is `t_{i,f}`, the time elapsed when worker `i` consumes
//! the `f`-th entry of its access stream `R`:
//!
//! ```text
//! t_{i,f}    = max( avail_i(f),  t_{i,f-1} + s_{R_{f-1}} / c )
//! avail_i(f) = ( Σ_{k=1..f} read_i(R_k) ) / p_0
//! ```
//!
//! `avail_i(f)` models `p_0` load-balanced prefetch threads pipelining
//! reads into the staging buffer; the second term is the trainer still
//! computing on the previous sample. Where origin lanes read a sample
//! ahead of that pipeline ([`ConsumeAccumulator::push_ahead`]), its
//! fetch is charged to the lanes instead and `avail_i(f)` is the later
//! of the two pipelines. Whenever `avail` exceeds the
//! compute-ready time the trainer *stalls* — the quantity Fig. 12
//! reports and every I/O optimization in the paper tries to drive to
//! zero.

/// Timing of one consumed access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessTiming {
    /// `avail_i(f)`: when the sample is ready in the staging buffer.
    pub avail: f64,
    /// When the trainer is ready for the sample (done computing on the
    /// previous one).
    pub compute_ready: f64,
    /// `t_{i,f}`: when the sample is actually consumed.
    pub consumed: f64,
    /// Stall time charged to this access: `max(0, avail − compute_ready)`.
    pub stall: f64,
}

/// Streaming evaluator of the `t_{i,f}` recurrence.
///
/// Push accesses one at a time (read time per the model's `read_i`, plus
/// the sample size); the accumulator never stores the timeline, so
/// simulating multi-epoch ImageNet-scale streams stays O(1) in memory.
#[derive(Debug, Clone)]
pub struct ConsumeAccumulator {
    compute: f64,
    p0: f64,
    cum_read: f64,
    /// Cumulative fetch time of the samples read ahead, per lane.
    cum_ahead: f64,
    t_prev: f64,
    prev_size: u64,
    total_stall: f64,
    count: u64,
}

impl ConsumeAccumulator {
    /// Creates an evaluator for compute throughput `compute` (bytes/s)
    /// and `p0 ≥ 1` staging prefetch threads.
    ///
    /// # Panics
    /// Panics if `compute` is not positive or `p0 == 0`.
    pub fn new(compute: f64, p0: u32) -> Self {
        assert!(
            compute.is_finite() && compute > 0.0,
            "compute rate must be positive"
        );
        assert!(p0 >= 1, "the model requires p_0 >= 1");
        Self {
            compute,
            p0: f64::from(p0),
            cum_read: 0.0,
            cum_ahead: 0.0,
            t_prev: 0.0,
            prev_size: 0,
            total_stall: 0.0,
            count: 0,
        }
    }

    /// Records the next access of the stream: `read_time` is the model's
    /// `read_i(R_f) = fetch + write`, `size` the sample's bytes. Returns
    /// the access's timing.
    pub fn push(&mut self, read_time: f64, size: u64) -> AccessTiming {
        debug_assert!(read_time >= 0.0, "negative read time");
        self.cum_read += read_time;
        self.consume(size)
    }

    /// Records an access whose sample `lanes ≥ 1` origin lanes read
    /// ahead of the staging pipeline: the `p_0` threads pay only its
    /// `write_time`, the lanes its `fetch_time` between them, and the
    /// sample is available once both pipelines have got to it —
    /// `avail_i(f) = max(Σ read/p_0, Σ fetch_ahead/lanes)`.
    pub fn push_ahead(
        &mut self,
        fetch_time: f64,
        lanes: usize,
        write_time: f64,
        size: u64,
    ) -> AccessTiming {
        debug_assert!(fetch_time >= 0.0 && write_time >= 0.0, "negative time");
        debug_assert!(lanes >= 1, "reading ahead takes a lane");
        self.cum_ahead += fetch_time / lanes as f64;
        self.cum_read += write_time;
        self.consume(size)
    }

    /// The recurrence step once the access's costs are booked.
    fn consume(&mut self, size: u64) -> AccessTiming {
        let avail = (self.cum_read / self.p0).max(self.cum_ahead);
        let compute_ready = self.t_prev + self.prev_size as f64 / self.compute;
        let consumed = avail.max(compute_ready);
        let stall = (avail - compute_ready).max(0.0);
        self.total_stall += stall;
        self.t_prev = consumed;
        self.prev_size = size;
        self.count += 1;
        AccessTiming {
            avail,
            compute_ready,
            consumed,
            stall,
        }
    }

    /// Sets the compute throughput (bytes/s) the trainer runs at from
    /// the next access on — a straggler's rate changing mid-stream.
    ///
    /// # Panics
    /// Panics if `compute` is not positive.
    pub fn set_compute(&mut self, compute: f64) {
        assert!(
            compute.is_finite() && compute > 0.0,
            "compute rate must be positive"
        );
        self.compute = compute;
    }

    /// Number of accesses recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `t_{i,f}` of the most recent access (0 before any access).
    pub fn last_consumed(&self) -> f64 {
        self.t_prev
    }

    /// Total trainer stall time so far.
    pub fn total_stall(&self) -> f64 {
        self.total_stall
    }

    /// End-to-end time including the compute on the final sample —
    /// the epoch/run execution time the figures report.
    pub fn finish(&self) -> f64 {
        self.t_prev + self.prev_size as f64 / self.compute
    }
}

/// A fully materialized timeline (for tests and small analyses);
/// wraps [`ConsumeAccumulator`].
#[derive(Debug, Clone, PartialEq)]
pub struct ConsumeTimeline {
    /// Per-access timings, in stream order.
    pub accesses: Vec<AccessTiming>,
    /// Total stall time.
    pub total_stall: f64,
    /// End-to-end execution time (includes final compute).
    pub total_time: f64,
}

/// Evaluates the recurrence over whole streams of `read_times` and
/// `sizes` (must be equal length).
///
/// # Panics
/// Panics on length mismatch or invalid `compute`/`p0`.
pub fn consume_timeline(
    read_times: &[f64],
    sizes: &[u64],
    compute: f64,
    p0: u32,
) -> ConsumeTimeline {
    assert_eq!(
        read_times.len(),
        sizes.len(),
        "one read time per access required"
    );
    let mut acc = ConsumeAccumulator::new(compute, p0);
    let accesses: Vec<AccessTiming> = read_times
        .iter()
        .zip(sizes)
        .map(|(&rt, &s)| acc.push(rt, s))
        .collect();
    ConsumeTimeline {
        accesses,
        total_stall: acc.total_stall(),
        total_time: acc.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_bound_stream_is_all_stall() {
        // Instant compute (huge c): every access waits on avail.
        let tl = consume_timeline(&[1.0, 1.0, 1.0], &[1, 1, 1], 1e18, 1);
        // avail: 1, 2, 3 — consumed at those times.
        let consumed: Vec<f64> = tl.accesses.iter().map(|a| a.consumed).collect();
        assert_eq!(consumed, vec![1.0, 2.0, 3.0]);
        assert!((tl.total_stall - 3.0).abs() < 1e-9);
        assert!((tl.total_time - 3.0).abs() < 1e-9);
    }

    #[test]
    fn compute_bound_stream_stalls_once() {
        // Reads are instant after the first; compute dominates.
        // c = 1 byte/s, sizes = 10 bytes => 10 s compute per sample.
        let tl = consume_timeline(&[1.0, 0.0, 0.0], &[10, 10, 10], 1.0, 1);
        // First access: avail = 1, compute_ready = 0 -> stall 1, t=1.
        // Second: avail = 1, ready = 1+10=11 -> t=11, no stall.
        // Third: avail = 1, ready = 21 -> t=21.
        let consumed: Vec<f64> = tl.accesses.iter().map(|a| a.consumed).collect();
        assert_eq!(consumed, vec![1.0, 11.0, 21.0]);
        assert!((tl.total_stall - 1.0).abs() < 1e-9);
        assert!((tl.total_time - 31.0).abs() < 1e-9);
    }

    #[test]
    fn prefetch_threads_divide_avail() {
        // p0 = 4: cumulative read time is spread over 4 threads.
        let tl = consume_timeline(&[4.0, 4.0], &[1, 1], 1e18, 4);
        let consumed: Vec<f64> = tl.accesses.iter().map(|a| a.consumed).collect();
        assert_eq!(consumed, vec![1.0, 2.0]);
    }

    #[test]
    fn reading_ahead_moves_the_fetch_off_the_staging_pipeline() {
        // Four samples, fetch 4 s and write 1 s each, instant compute.
        // In series on one staging thread: avail = 5, 10, 15, 20.
        let mut serial = ConsumeAccumulator::new(1e18, 1);
        // Read ahead by two lanes: the lanes deliver at 2, 4, 6, 8, the
        // staging thread's writes at 1, 2, 3, 4 — the lanes bind.
        let mut ahead = ConsumeAccumulator::new(1e18, 1);
        for i in 1..=4 {
            assert_eq!(serial.push(5.0, 1).avail, 5.0 * f64::from(i));
            assert_eq!(ahead.push_ahead(4.0, 2, 1.0, 1).avail, 2.0 * f64::from(i));
        }
        // With eight lanes the writes bind instead.
        let mut wide = ConsumeAccumulator::new(1e18, 1);
        assert_eq!(wide.push_ahead(4.0, 8, 1.0, 1).avail, 1.0);
        // Accesses the staging threads fetch themselves still queue
        // behind the writes already booked.
        assert_eq!(wide.push(3.0, 1).avail, 4.0);
    }

    #[test]
    fn recurrence_matches_hand_computation() {
        // Mixed case, hand-evaluated:
        // c = 10 B/s, p0 = 2, reads = [2, 2, 6], sizes = [10, 30, 10].
        // f1: avail = 2/2 = 1,  ready = 0           -> t=1, stall 1
        // f2: avail = 4/2 = 2,  ready = 1 + 1 = 2   -> t=2, stall 0
        // f3: avail = 10/2 = 5, ready = 2 + 3 = 5   -> t=5, stall 0
        // total = 5 + 10/10 = 6
        let tl = consume_timeline(&[2.0, 2.0, 6.0], &[10, 30, 10], 10.0, 2);
        let consumed: Vec<f64> = tl.accesses.iter().map(|a| a.consumed).collect();
        assert_eq!(consumed, vec![1.0, 2.0, 5.0]);
        assert!((tl.total_stall - 1.0).abs() < 1e-9);
        assert!((tl.total_time - 6.0).abs() < 1e-9);
    }

    #[test]
    fn consumed_is_monotone_nondecreasing() {
        let reads = [0.5, 3.0, 0.1, 0.1, 2.0, 0.0];
        let sizes = [5u64, 1, 8, 2, 2, 2];
        let tl = consume_timeline(&reads, &sizes, 4.0, 2);
        for w in tl.accesses.windows(2) {
            assert!(w[1].consumed >= w[0].consumed);
        }
    }

    #[test]
    fn accumulator_streaming_matches_batch() {
        let reads = [1.0, 0.2, 0.7, 0.0, 1.5];
        let sizes = [3u64, 9, 1, 4, 2];
        let tl = consume_timeline(&reads, &sizes, 2.0, 3);
        let mut acc = ConsumeAccumulator::new(2.0, 3);
        for (&r, &s) in reads.iter().zip(&sizes) {
            acc.push(r, s);
        }
        assert_eq!(acc.count(), 5);
        assert!((acc.total_stall() - tl.total_stall).abs() < 1e-12);
        assert!((acc.finish() - tl.total_time).abs() < 1e-12);
    }

    #[test]
    fn empty_stream_is_zero_time() {
        let tl = consume_timeline(&[], &[], 1.0, 1);
        assert_eq!(tl.total_time, 0.0);
        assert_eq!(tl.total_stall, 0.0);
        assert!(tl.accesses.is_empty());
    }

    #[test]
    #[should_panic(expected = "p_0 >= 1")]
    fn rejects_zero_threads() {
        ConsumeAccumulator::new(1.0, 0);
    }

    #[test]
    #[should_panic(expected = "one read time per access")]
    fn rejects_length_mismatch() {
        consume_timeline(&[1.0], &[], 1.0, 1);
    }

    #[test]
    fn faster_io_never_slows_the_run() {
        // Monotonicity: scaling all read times down cannot increase
        // total time (sanity property used by the simulator's
        // design-space sweeps).
        let sizes = vec![7u64; 50];
        let reads: Vec<f64> = (0..50).map(|i| 0.1 + 0.01 * (i % 7) as f64).collect();
        let slow = consume_timeline(&reads, &sizes, 3.0, 2).total_time;
        let faster: Vec<f64> = reads.iter().map(|r| r * 0.5).collect();
        let fast = consume_timeline(&faster, &sizes, 3.0, 2).total_time;
        assert!(fast <= slow + 1e-9);
    }
}
