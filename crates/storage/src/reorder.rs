//! Position-ordered staging: out-of-order fills, in-order consumption.
//!
//! NoPFS runs `p_0` staging prefetch threads in parallel; their fetches
//! complete out of order, but the trainer must consume samples in exact
//! access-stream order (Rule 1 requires the *buffer* to be filled in
//! `R` order, and SGD consumes it sequentially). The paper's circular
//! staging buffer assigns each sample a slot by stream position; this
//! type reproduces that: producers insert `(position, sample)` in any
//! order, the consumer pops positions `0, 1, 2, …` strictly.
//!
//! Capacity is bounded in bytes with one escape hatch: the sample the
//! consumer is waiting for (`position == next`) is always admitted, so
//! a burst of out-of-order completions can never deadlock the pipeline.
//!
//! The hand-off is run-granular: a producer stages a whole run of
//! consecutive positions under one lock ([`ReorderStage::push_run`]),
//! the consumer drains a whole batch under one lock
//! ([`ReorderStage::pop_many`]), and either side wakes the other only
//! when it is registered as asleep and has what it sleeps for — a
//! staged sample costs a fraction of a lock round-trip, and a system
//! call only when a thread really has to be woken.

use crate::SampleId;
use bytes::Bytes;
use nopfs_obs::{names, Counter, Gauge, Registry};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct State {
    next: u64,
    /// Staged samples by position: `ring[i]` is position `next + i`,
    /// `None` while that position is still being fetched. The ring
    /// spans `next..=` the furthest position pushed so far.
    ring: VecDeque<Option<(SampleId, Bytes)>>,
    used: u64,
    closed: bool,
    max_used: u64,
    /// Length of the staged prefix of `ring`: how many positions the
    /// consumer could take right now.
    ready: usize,
    /// Whether a producer has gone to sleep on `space` since it was
    /// last notified. Set under the lock by the producer about to wait
    /// and cleared by the consumer that notifies, so sleepers are woken
    /// once, not once per pop until they have had time to run.
    space_waiting: bool,
    /// How many ready positions a consumer asleep on `data` is waiting
    /// for (0: none asleep). Set and cleared like `space_waiting`.
    data_wanted: usize,
}

/// Registry handles (`staging.*` metrics): cumulative push/pop
/// counters and a live occupancy gauge, updated inside the state lock,
/// and the time producers slept on a full stage.
#[derive(Debug)]
struct Metrics {
    pushed: Counter,
    popped: Counter,
    used_bytes: Gauge,
    push_blocked_nanos: Counter,
}

#[derive(Debug)]
struct Inner {
    capacity: u64,
    state: Mutex<State>,
    metrics: Metrics,
    space: Condvar,
    data: Condvar,
}

/// A byte-bounded reorder buffer keyed by stream position. Clone to
/// share between prefetcher threads and the consumer.
#[derive(Debug, Clone)]
pub struct ReorderStage {
    inner: Arc<Inner>,
}

impl ReorderStage {
    /// Creates a stage with the given byte capacity.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: u64) -> Self {
        Self::new_in_registry(capacity, &Registry::noop())
    }

    /// Like [`Self::new`], but the stage's `staging.*` metrics register
    /// in `registry` (with its scope labels) — the worker runtime
    /// passes its rank-scoped registry so staging occupancy and
    /// push/pop rates surface in live telemetry.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new_in_registry(capacity: u64, registry: &Registry) -> Self {
        assert!(capacity > 0, "stage needs capacity");
        Self {
            inner: Arc::new(Inner {
                capacity,
                state: Mutex::new(State {
                    next: 0,
                    ring: VecDeque::new(),
                    used: 0,
                    closed: false,
                    max_used: 0,
                    ready: 0,
                    space_waiting: false,
                    data_wanted: 0,
                }),
                metrics: Metrics {
                    pushed: registry.counter(names::STAGING_PUSHED),
                    popped: registry.counter(names::STAGING_POPPED),
                    used_bytes: registry.gauge(names::STAGING_USED_BYTES),
                    push_blocked_nanos: registry.counter(names::STAGING_PUSH_BLOCKED_NANOS),
                },
                space: Condvar::new(),
                data: Condvar::new(),
            }),
        }
    }

    /// Inserts the sample for stream position `pos`, blocking while the
    /// stage is full — unless `pos` is the position the consumer needs
    /// next, which is always admitted immediately.
    ///
    /// Returns `false` if the stage was closed.
    ///
    /// The stage keeps one slot per position between the consumer's and
    /// the furthest one pushed, so producers are expected to claim
    /// positions from a shared counter, not far ahead of each other.
    ///
    /// # Panics
    /// Panics if `pos` was already pushed or already consumed (every
    /// stream position is fetched exactly once).
    pub fn push(&self, pos: u64, id: SampleId, data: Bytes) -> bool {
        self.push_from(pos, std::iter::once((id, data)))
    }

    /// Inserts `run` as the consecutive stream positions `base`,
    /// `base + 1`, … under one lock, leaving `run` empty. Samples are
    /// admitted in order, each under the rule of [`Self::push`]: the
    /// call blocks while the next one does not fit, unless it is the
    /// position the consumer needs next.
    ///
    /// Returns `false` if the stage was closed (the rest of the run is
    /// dropped).
    ///
    /// # Panics
    /// Panics if a position of the run was already pushed or consumed.
    pub fn push_run(&self, base: u64, run: &mut Vec<(SampleId, Bytes)>) -> bool {
        self.push_from(base, run.drain(..))
    }

    /// The one push path: admits `items` at consecutive positions from
    /// `base`, as many per lock hold as fit.
    fn push_from(&self, base: u64, items: impl Iterator<Item = (SampleId, Bytes)>) -> bool {
        let mut items = items.peekable();
        let mut pos = base;
        let mut st = self.inner.state.lock();
        loop {
            if st.closed {
                return false;
            }
            let admitted_from = pos;
            while let Some((_, data)) = items.peek() {
                assert!(pos >= st.next, "position {pos} already consumed");
                let size = data.len() as u64;
                if pos != st.next && st.used + size > self.inner.capacity {
                    break;
                }
                let slot = usize::try_from(pos - st.next).expect("stage window fits memory");
                if slot >= st.ring.len() {
                    st.ring.resize_with(slot + 1, || None);
                }
                assert!(st.ring[slot].is_none(), "position {pos} pushed twice");
                st.ring[slot] = items.next();
                if slot == st.ready {
                    while st.ring.get(st.ready).is_some_and(Option::is_some) {
                        st.ready += 1;
                    }
                }
                st.used += size;
                pos += 1;
            }
            if pos > admitted_from {
                st.max_used = st.max_used.max(st.used);
                self.inner.metrics.pushed.add(pos - admitted_from);
                self.inner.metrics.used_bytes.set(st.used);
            }
            // A sleeping consumer is woken once what it waits for is
            // ready — or, short of that, as soon as a producer is stuck
            // behind bytes the consumer could free by taking what is.
            let done = items.peek().is_none();
            let wake = st.data_wanted > 0
                && st.ready > 0
                && (st.ready >= st.data_wanted || !done || st.space_waiting);
            if wake {
                st.data_wanted = 0;
            }
            if done {
                drop(st);
                if wake {
                    self.inner.data.notify_all();
                }
                return true;
            }
            if wake {
                self.inner.data.notify_all();
            }
            st.space_waiting = true;
            let blocked = Instant::now();
            self.inner.space.wait(&mut st);
            self.inner
                .metrics
                .push_blocked_nanos
                .add(blocked.elapsed().as_nanos() as u64);
        }
    }

    /// Pops the sample at the next stream position, blocking until it
    /// arrives. Returns `None` once closed and the head is unavailable.
    pub fn pop(&self) -> Option<(SampleId, Bytes)> {
        let mut item = None;
        self.pop_until(1, None, |popped| item = Some(popped));
        item
    }

    /// Like [`Self::pop`] with a wall-clock timeout.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<(SampleId, Bytes)> {
        let mut item = None;
        self.pop_until(1, Some(Instant::now() + timeout), |popped| {
            item = Some(popped)
        });
        item
    }

    /// Appends the next `want` stream positions to `out`, draining
    /// every staged position at the head per lock hold. A consumer
    /// still short of `want` sleeps until the rest is staged — or a
    /// producer is held up behind bytes it could free — so a batch
    /// costs one wake-up, not one per arriving run. Returns how many
    /// samples were appended: fewer than `want` only if the stage was
    /// closed.
    pub fn pop_many(&self, want: usize, out: &mut Vec<(SampleId, Bytes)>) -> usize {
        self.pop_until(want, None, |popped| out.push(popped))
    }

    /// The one pop path: hands the next `want` stream positions to
    /// `sink` in order, waiting for a missing head position until
    /// `deadline` (forever when `None`). Returns how many samples were
    /// handed over before close or timeout.
    fn pop_until(
        &self,
        want: usize,
        deadline: Option<Instant>,
        mut sink: impl FnMut((SampleId, Bytes)),
    ) -> usize {
        let mut taken = 0;
        let mut st = self.inner.state.lock();
        loop {
            let n = st.ready.min(want - taken);
            let mut freed = 0;
            for (id, data) in st.ring.drain(..n).flatten() {
                freed += data.len() as u64;
                sink((id, data));
            }
            st.used -= freed;
            st.ready -= n;
            st.next += n as u64;
            taken += n;
            if n > 0 {
                self.inner.metrics.popped.add(n as u64);
                self.inner.metrics.used_bytes.set(st.used);
            }
            // Space was freed and the head moved: either can admit a
            // blocked producer.
            let wake = n > 0 && st.space_waiting;
            if wake {
                st.space_waiting = false;
            }
            if taken == want || st.closed {
                drop(st);
                if wake {
                    self.inner.space.notify_all();
                }
                return taken;
            }
            if wake {
                // Release the lock first so the producers do not wake
                // into it, then look again before sleeping.
                drop(st);
                self.inner.space.notify_all();
                st = self.inner.state.lock();
                continue;
            }
            st.data_wanted = want - taken;
            match deadline {
                Some(d) => {
                    if self.inner.data.wait_until(&mut st, d).timed_out() {
                        return taken;
                    }
                }
                None => self.inner.data.wait(&mut st),
            }
        }
    }

    /// Closes the stage; blocked producers and consumers return.
    pub fn close(&self) {
        let mut st = self.inner.state.lock();
        st.closed = true;
        drop(st);
        self.inner.space.notify_all();
        self.inner.data.notify_all();
    }

    /// Bytes currently buffered.
    pub fn used(&self) -> u64 {
        self.inner.state.lock().used
    }

    /// The stream position the consumer will receive next.
    pub fn next_position(&self) -> u64 {
        self.inner.state.lock().next
    }

    /// High-water mark of buffered bytes.
    pub fn max_used(&self) -> u64 {
        self.inner.state.lock().max_used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn out_of_order_push_in_order_pop() {
        let stage = ReorderStage::new(1_000);
        stage.push(2, 102, Bytes::from_static(b"c"));
        stage.push(0, 100, Bytes::from_static(b"a"));
        stage.push(1, 101, Bytes::from_static(b"b"));
        assert_eq!(stage.pop().unwrap().0, 100);
        assert_eq!(stage.pop().unwrap().0, 101);
        assert_eq!(stage.pop().unwrap().0, 102);
    }

    #[test]
    fn consumer_waits_for_the_head_not_just_any_sample() {
        let stage = ReorderStage::new(1_000);
        stage.push(1, 11, Bytes::from_static(b"later"));
        let s2 = stage.clone();
        let consumer = thread::spawn(move || s2.pop().unwrap());
        thread::sleep(Duration::from_millis(20));
        assert!(!consumer.is_finished(), "pop must wait for position 0");
        stage.push(0, 10, Bytes::from_static(b"first"));
        assert_eq!(consumer.join().unwrap().0, 10);
    }

    #[test]
    fn head_position_is_always_admitted() {
        // Fill the stage with a future position, then push the head:
        // it must not block even though capacity is exceeded.
        let stage = ReorderStage::new(10);
        stage.push(1, 1, Bytes::from(vec![0u8; 10]));
        let t0 = Instant::now();
        assert!(stage.push(0, 0, Bytes::from(vec![0u8; 10])));
        assert!(t0.elapsed() < Duration::from_millis(50));
        assert_eq!(stage.pop().unwrap().0, 0);
        assert_eq!(stage.pop().unwrap().0, 1);
    }

    #[test]
    fn non_head_producer_blocks_when_full() {
        let stage = ReorderStage::new(10);
        stage.push(1, 1, Bytes::from(vec![0u8; 10]));
        let s2 = stage.clone();
        let producer = thread::spawn(move || s2.push(2, 2, Bytes::from(vec![0u8; 10])));
        thread::sleep(Duration::from_millis(20));
        assert!(!producer.is_finished(), "position 2 should block");
        stage.push(0, 0, Bytes::from(vec![0u8; 4]));
        stage.pop().unwrap(); // frees pos 0's bytes and advances next
        stage.pop().unwrap(); // consumes pos 1, frees space
        assert!(producer.join().unwrap());
    }

    #[test]
    #[should_panic(expected = "pushed twice")]
    fn duplicate_position_panics() {
        let stage = ReorderStage::new(100);
        stage.push(0, 1, Bytes::from_static(b"a"));
        stage.push(0, 2, Bytes::from_static(b"b"));
    }

    #[test]
    #[should_panic(expected = "pushed twice")]
    fn duplicate_position_in_a_run_panics() {
        let stage = ReorderStage::new(100);
        stage.push(1, 1, Bytes::from_static(b"a"));
        let mut run = vec![(0, Bytes::from_static(b"b")), (1, Bytes::from_static(b"c"))];
        stage.push_run(0, &mut run);
    }

    #[test]
    #[should_panic(expected = "already consumed")]
    fn consumed_position_panics() {
        let stage = ReorderStage::new(100);
        stage.push(0, 1, Bytes::from_static(b"a"));
        stage.pop().unwrap();
        stage.push(0, 2, Bytes::from_static(b"b"));
    }

    fn run_of(positions: std::ops::Range<u64>, size: usize) -> Vec<(SampleId, Bytes)> {
        positions
            .map(|pos| (pos * 3, Bytes::from(vec![(pos % 256) as u8; size])))
            .collect()
    }

    #[test]
    fn head_run_is_admitted_at_capacity_one_while_a_later_run_blocks() {
        let stage = ReorderStage::new(1);
        let s2 = stage.clone();
        let later = thread::spawn(move || s2.push_run(4, &mut run_of(4..8, 8)));
        thread::sleep(Duration::from_millis(20));
        assert!(!later.is_finished(), "positions 4..8 should block");
        assert_eq!(stage.used(), 0);
        // The head run goes in one position at a time, each as the
        // consumer reaches it, and never waits for the blocked run.
        let s3 = stage.clone();
        let head = thread::spawn(move || s3.push_run(0, &mut run_of(0..4, 8)));
        let mut got = Vec::new();
        assert_eq!(stage.pop_many(8, &mut got), 8);
        assert!(head.join().unwrap());
        assert!(later.join().unwrap());
        assert_eq!(got, run_of(0..8, 8));
        assert_eq!(stage.max_used(), 8, "one over-capacity head at a time");
    }

    #[test]
    fn close_unblocks_a_run_producer_and_a_batch_consumer() {
        let stage = ReorderStage::new(10);
        stage.push(0, 0, Bytes::from(vec![0u8; 10]));
        let s2 = stage.clone();
        let producer = thread::spawn(move || {
            let mut run = run_of(1..4, 10);
            let pushed = s2.push_run(1, &mut run);
            (pushed, run.len())
        });
        let s3 = stage.clone();
        let consumer = thread::spawn(move || {
            let mut got = Vec::new();
            let n = s3.pop_many(100, &mut got);
            (n, got)
        });
        // The consumer takes position 0 and then whatever the held-up
        // producer stages in the room that frees, one position at a
        // time; the last of the run fits and wakes nobody.
        assert_eq!(producer.join().unwrap(), (true, 0));
        assert!(!consumer.is_finished(), "96 positions are still missing");
        stage.close();
        let (n, got) = consumer.join().unwrap();
        assert_eq!(n, 4, "the partial batch is returned");
        assert_eq!(got, run_of(0..4, 10));

        // A producer blocked mid-run observes the close.
        let stage = ReorderStage::new(10);
        let s2 = stage.clone();
        let producer = thread::spawn(move || {
            let mut run = run_of(0..3, 10);
            let pushed = s2.push_run(0, &mut run);
            (pushed, run.len())
        });
        while stage.used() == 0 {
            thread::yield_now();
        }
        assert!(!producer.is_finished(), "positions 1..3 do not fit");
        stage.close();
        assert_eq!(producer.join().unwrap(), (false, 0));
    }

    #[test]
    fn any_mix_of_single_and_run_hand_offs_delivers_the_stream() {
        use nopfs_util::rng::Xoshiro256pp;
        for seed in 0..20u64 {
            let n = 400u64;
            let stage = ReorderStage::new(1 + seed * 7);
            let claim = Arc::new(std::sync::atomic::AtomicU64::new(0));
            let producers: Vec<_> = (0..3u64)
                .map(|t| {
                    let stage = stage.clone();
                    let claim = Arc::clone(&claim);
                    thread::spawn(move || {
                        let mut rng = Xoshiro256pp::seed_from_u64(seed * 3 + t);
                        loop {
                            let len = 1 + rng.next_below(8);
                            let base = claim.fetch_add(len, std::sync::atomic::Ordering::SeqCst);
                            if base >= n {
                                break;
                            }
                            let mut run = run_of(base..(base + len).min(n), 5);
                            if rng.next_below(2) == 0 {
                                assert!(stage.push_run(base, &mut run));
                                assert!(run.is_empty());
                            } else {
                                for (off, (id, data)) in run.into_iter().enumerate() {
                                    assert!(stage.push(base + off as u64, id, data));
                                }
                            }
                        }
                    })
                })
                .collect();
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let mut got = Vec::new();
            while (got.len() as u64) < n {
                if rng.next_below(2) == 0 {
                    got.push(stage.pop().unwrap());
                } else {
                    let want = (1 + rng.next_below(40)).min(n - got.len() as u64) as usize;
                    assert_eq!(stage.pop_many(want, &mut got), want);
                }
            }
            for p in producers {
                p.join().unwrap();
            }
            assert_eq!(got, run_of(0..n, 5), "seed {seed}");
            assert_eq!(stage.used(), 0);
            assert_eq!(stage.next_position(), n);
        }
    }

    #[test]
    fn close_unblocks_everyone() {
        let stage = ReorderStage::new(10);
        let s2 = stage.clone();
        let consumer = thread::spawn(move || s2.pop());
        thread::sleep(Duration::from_millis(10));
        stage.close();
        assert_eq!(consumer.join().unwrap(), None);
        assert!(!stage.push(0, 0, Bytes::from_static(b"x")));
    }

    #[test]
    fn pop_timeout_on_missing_head() {
        let stage = ReorderStage::new(100);
        stage.push(5, 5, Bytes::from_static(b"future"));
        assert!(stage.pop_timeout(Duration::from_millis(20)).is_none());
    }

    #[test]
    fn many_producers_full_stream_integrity() {
        let stage = ReorderStage::new(64);
        let n = 500u64;
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let producers: Vec<_> = (0..4)
            .map(|_| {
                let stage = stage.clone();
                let counter = Arc::clone(&counter);
                thread::spawn(move || loop {
                    let pos = counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    if pos >= n {
                        break;
                    }
                    // Sample id encodes the position for verification.
                    stage.push(pos, pos * 3, Bytes::from(vec![(pos % 256) as u8; 8]));
                })
            })
            .collect();
        for pos in 0..n {
            let (id, data) = stage.pop().unwrap();
            assert_eq!(id, pos * 3, "wrong sample at position {pos}");
            assert_eq!(data[0], (pos % 256) as u8);
        }
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(stage.used(), 0);
    }
}
